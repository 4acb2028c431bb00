"""Scheduler behavior on controlled single-user worlds: timeline-walk request
arithmetic, the favorites walk's stop rule, rate estimation, ref seeding."""

import hashlib
from collections import Counter
from dataclasses import replace

import pytest

from langcrawl.apiface import DEFAULT_BUDGETS, WINDOW, ApiError, Endpoint, RateLimiter, UserSuspended
from langcrawl.model import UserClass
from langcrawl.sched import GONE_RETRY_AFTER, TRENDS_PERIOD, Crawler, SchedulerConfig, SimClock
from langcrawl.simnet import DAY, World, WorldConfig
from langcrawl.store import Store, dumps


def one_user_rig(seed=11, loops=("tweets",), **cfg_kw):
    w = World(WorldConfig(seed=seed, n_users=1, community_fractions={"el": 1.0}))
    w.frozen = True
    uid = next(iter(w.users))
    store = Store()
    store.set_class(uid, UserClass.TRACKED, w.now)
    cfg = SchedulerConfig(loops=loops, min_staleness=0, **cfg_kw)
    crawler = Crawler(w, store, RateLimiter(), SimClock(w), cfg)
    return w, uid, store, crawler


def visit(crawler) -> dict:
    """Drive one stale-queue timeline walk to completion, count requests."""
    mark = len(crawler.log)
    assert crawler._step_tweets("stale"), "no walk started"
    while crawler._walks["stale"] is not None:
        assert crawler._step_tweets("stale"), "walk stalled"
    out = {"timeline": 0, "show": 0}
    for r in crawler.log[mark:]:
        if r["endpoint"] == "user_timeline":
            out["timeline"] += 1
        elif r["endpoint"] == "users_show":
            out["show"] += 1
    return out


def test_walk_request_arithmetic():
    w, uid, store, crawler = one_user_rig()
    w.emit_tweets(uid, 1100)
    # 1100 pending: six 200-tweet pages, one profile call to size the backlog
    assert visit(crawler) == {"timeline": 6, "show": 1}
    assert store.author_tweet_count(uid) == 1100

    for _ in range(3):  # the rate estimate grows on each revisit; the arithmetic holds
        w.emit_tweets(uid, 1000)
        assert visit(crawler) == {"timeline": 5, "show": 1}

    # a short first page proves the backlog is exhausted without a profile call
    w.emit_tweets(uid, 100)
    assert visit(crawler) == {"timeline": 1, "show": 0}

    w.now += 3600
    assert visit(crawler) == {"timeline": 1, "show": 0}

    w.emit_tweets(uid, 450)
    assert visit(crawler) == {"timeline": 3, "show": 1}

    assert store.author_tweet_count(uid) == len(w.users[uid].tweet_ids)
    assert not store.get_crawl_state(uid).cap_reached


def test_walk_reuses_fresh_snapshot():
    w, uid, store, crawler = one_user_rig()
    w.emit_tweets(uid, 250)
    # a snapshot from this very instant sizes the backlog for free
    store.put_snapshot(w.users_show(uid))
    assert visit(crawler) == {"timeline": 2, "show": 0}
    assert store.author_tweet_count(uid) == 250


def test_backlog_capped_at_service_depth():
    w, uid, store, crawler = one_user_rig(seed=9)
    w.emit_tweets(uid, 3300)
    counts = visit(crawler)
    assert store.author_tweet_count(uid) == 3200
    assert counts["timeline"] == 16  # exactly the service depth, no tail probe
    state = store.get_crawl_state(uid)
    assert state.cap_reached


def test_snapshot_refresh_dedups_tweet_count_only():
    w, uid, store, crawler = one_user_rig()
    w.emit_tweets(uid, 250)
    counts = visit(crawler)
    assert counts["show"] == 1
    assert len(store.snapshots[uid]) == 1
    w.emit_tweets(uid, 250)
    w.now += 3600
    counts = visit(crawler)
    assert counts["show"] == 1
    # second profile fetch differed only in tweet_count: history stays flat
    assert len(store.snapshots[uid]) == 1


def test_rate_estimate_is_an_ema():
    w, uid, store, crawler = one_user_rig()
    w.emit_tweets(uid, 200)
    visit(crawler)
    st0 = store.get_crawl_state(uid)
    assert st0.est_rate > 0

    w.emit_tweets(uid, 120, gap=60)
    w.now += DAY
    prev_at, prev_est = st0.last_crawled_at, st0.est_rate
    visit(crawler)
    st1 = store.get_crawl_state(uid)
    staleness_days = max(st1.last_crawled_at - prev_at, 1) / DAY
    observed = 120 / staleness_days
    assert st1.est_rate == pytest.approx(0.3 * observed + 0.7 * prev_est)


def favorites_scan(crawler) -> int:
    mark = len(crawler.log)
    while crawler._step_scan("favorites"):
        pass
    return sum(
        1 for r in crawler.log[mark:] if r["endpoint"] == "favorites_list"
    )


def test_favorites_walk_captures_new_likes_then_stops_on_known():
    w = World(WorldConfig(seed=13, n_users=2, community_fractions={"el": 1.0}))
    w.frozen = True
    liker, author = sorted(w.users)
    tweets = w.emit_tweets(author, 400)
    for t in tweets[:390]:
        w.emit_like(liker, t.id)

    store = Store()
    store.set_class(liker, UserClass.TRACKED, w.now)
    cfg = SchedulerConfig(loops=("favorites",))
    crawler = Crawler(w, store, RateLimiter(), SimClock(w), cfg)

    assert favorites_scan(crawler) == 2  # 200 + 190, short page ends the walk
    assert len(store.all_favorites()) == 390

    # ten new likes land on top of a deep known history
    for t in tweets[390:]:
        w.emit_like(liker, t.id)
    w.advance(8 * DAY)  # recrawl window

    requests = favorites_scan(crawler)
    assert len(store.all_favorites()) == 400
    # page one: 10 new + 190 known, not enough to stop; page two crosses the
    # known threshold and ends the walk even though the page came back full
    assert requests == 2


def test_retweet_evidence_seeds_unknown_author():
    w = World(WorldConfig(seed=17, n_users=2, community_fractions={"el": 1.0}))
    w.frozen = True
    tracked, unknown = sorted(w.users)
    originals = w.emit_tweets(unknown, 12)
    for t in originals[:10]:
        w.emit_tweet(tracked, kind="retweet", target=t)

    store = Store()
    store.set_class(tracked, UserClass.TRACKED, w.now)
    cfg = SchedulerConfig(loops=("tweets", "lookup"), min_staleness=0)
    crawler = Crawler(w, store, RateLimiter(), SimClock(w), cfg)
    crawler.run(w.now + 3600)

    assert store.user_class(unknown) is UserClass.TRACKED


def test_too_little_evidence_does_not_seed():
    w = World(WorldConfig(seed=17, n_users=2, community_fractions={"el": 1.0}))
    w.frozen = True
    tracked, unknown = sorted(w.users)
    originals = w.emit_tweets(unknown, 12)
    for t in originals[:9]:
        w.emit_tweet(tracked, kind="retweet", target=t)

    store = Store()
    store.set_class(tracked, UserClass.TRACKED, w.now)
    cfg = SchedulerConfig(loops=("tweets", "lookup"), min_staleness=0)
    crawler = Crawler(w, store, RateLimiter(), SimClock(w), cfg)
    crawler.run(w.now + 3600)

    assert store.user_class(unknown) is UserClass.UNKNOWN


def test_run_never_exceeds_any_budget():
    w = World(
        WorldConfig(
            seed=23,
            n_users=30,
            community_fractions={"el": 1.0},
            activity_min=5.0,
            activity_max=60.0,
        )
    )
    store = Store()
    crawler = Crawler(w, store, RateLimiter(), SimClock(w), SchedulerConfig())
    crawler.run(w.cfg.start_time + 2 * DAY)
    per_window: dict[tuple[str, int], int] = {}
    for r in crawler.log:
        if r["outcome"] == "blocked":
            continue
        key = (r["endpoint"], r["at"] - r["at"] % 900)
        per_window[key] = per_window.get(key, 0) + 1
    assert per_window, "crawl made no requests"
    for (endpoint, _), n in per_window.items():
        assert n <= DEFAULT_BUDGETS[Endpoint(endpoint)].max_requests, endpoint


def test_identical_runs_identical_logs():
    def run():
        w = World(
            WorldConfig(seed=29, n_users=15, community_fractions={"el": 1.0})
        )
        store = Store()
        crawler = Crawler(w, store, RateLimiter(), SimClock(w), SchedulerConfig())
        crawler.run(w.cfg.start_time + DAY)
        return crawler.log, sorted(store.tweets)

    log_a, tweets_a = run()
    log_b, tweets_b = run()
    assert log_a == log_b
    assert tweets_a == tweets_b


def test_expected_queue_pops_user_due_at_truncated_wait():
    # At 1000 * DAY / 63000 tweets a day the wait to target_batch is
    # 63000.00000000001 s, truncated to 63000; at that moment the expected
    # count is 999.9999999999999, a hair under target_batch. The user is
    # due, and pushing them back would pop them again at the same moment.
    w, uid, store, crawler = one_user_rig(target_batch=1000)
    state = replace(
        store.get_crawl_state(uid), last_crawled_at=w.now, est_rate=1000 * DAY / 63000
    )
    store.put_crawl_state(state)
    assert state.est_rate * (63000 / DAY) < 1000
    crawler._push_expected(uid, state)

    pushes = 0
    push = crawler._push_expected

    def bounded_push(u, st):
        nonlocal pushes
        pushes += 1
        assert pushes < 5, "expected queue re-pushed the same due user"
        push(u, st)

    crawler._push_expected = bounded_push
    w.now += 62999
    assert crawler._pop_tweet_user("expected") is None  # one second early
    w.now += 1
    assert crawler._pop_tweet_user("expected") == uid
    assert pushes == 0


class FailFirstLookup:
    """A World whose first statuses_lookup raises a transient ApiError."""

    def __init__(self, world):
        self.world = world
        self.failed: list | None = None

    def __getattr__(self, name):
        return getattr(self.world, name)

    def statuses_lookup(self, ids):
        if self.failed is None:
            self.failed = list(ids)
            raise ApiError("transient")
        return self.world.statuses_lookup(ids)


class FailingLookup(FailFirstLookup):
    """A World whose every statuses_lookup raises a transient ApiError."""

    def statuses_lookup(self, ids):
        self.failed = list(ids)
        raise ApiError("transient")


def lookup_world() -> World:
    return World(
        WorldConfig(
            seed=5, n_users=80, community_fractions={"el": 0.6, "en": 0.4}, mixed_fraction=0.1
        )
    )


def lookup_times(crawler) -> list[int]:
    return [r["at"] for r in crawler.log if r["endpoint"] == "statuses_lookup"]


def test_lookup_error_requeues_batch():
    w = lookup_world()
    api = FailFirstLookup(w)
    store = Store()
    crawler = Crawler(api, store, RateLimiter(), SimClock(w), SchedulerConfig())
    crawler.run(w.cfg.start_time + 3 * DAY)

    assert api.failed, "no lookup was made"
    lookups = [r for r in crawler.log if r["endpoint"] == "statuses_lookup"]
    assert [r["outcome"] for r in lookups].count("api_error") == 1
    assert lookups[0]["outcome"] == "api_error" and len(lookups) > 1
    dropped = [
        tid for tid in api.failed if store.get_tweet(tid) is None and tid not in crawler._pending
    ]
    assert not dropped


def test_failed_lookup_batch_waits_for_next_window():
    w = lookup_world()
    crawler = Crawler(FailFirstLookup(w), Store(), RateLimiter(), SimClock(w), SchedulerConfig())
    crawler.run(w.cfg.start_time + DAY)

    failed_at, retry_at = lookup_times(crawler)[:2]
    assert retry_at >= (failed_at // 900 + 1) * 900


def test_persistent_lookup_failure_costs_one_request_per_window():
    w = lookup_world()
    crawler = Crawler(FailingLookup(w), Store(), RateLimiter(), SimClock(w), SchedulerConfig())
    crawler.run(w.cfg.start_time + DAY)

    per_window = Counter(at // 900 for at in lookup_times(crawler))
    assert len(per_window) > 1
    assert max(per_window.values()) == 1


def test_drain_resolves_a_lookup_batch_that_failed():
    w = lookup_world()
    w.advance(3 * DAY)
    w.frozen = True
    store = Store()
    # half the users, so that some referenced tweets only a lookup can fetch
    for u in sorted(w.users)[::2]:
        store.set_class(u, UserClass.TRACKED, w.now)
    api = FailFirstLookup(w)
    crawler = Crawler(api, store, RateLimiter(), SimClock(w), SchedulerConfig())
    crawler.drain()

    assert api.failed, "no lookup failed during drain"
    failed_at, retry_at = lookup_times(crawler)[:2]
    assert retry_at >= (failed_at // 900 + 1) * 900
    assert not crawler._lookup_queue
    for tid in api.failed:
        # stored, or answered gone and waiting for its one later retry
        assert store.get_tweet(tid) is not None or crawler._pending[tid].gone_at is not None


class FailOnceAfter:
    """A World whose first `method` call at or after `at` that starts a visit
    (no cursor and no max_id) raises a transient ApiError. It records the
    time of every visit start of `counted`, per target."""

    def __init__(self, world, method, at, counted):
        self.world = world
        self.method = method
        self.at = at
        self.counted = counted
        self.failed: tuple | None = None  # (target, when)
        self.starts: dict[int, list[int]] = {}

    def __getattr__(self, name):
        call = getattr(self.world, name)
        if name not in (self.method, self.counted):
            return call

        def wrapped(target, *args, **kwargs):
            if kwargs.get("cursor") is None and kwargs.get("max_id") is None:
                now = self.world.now
                if name == self.counted:
                    self.starts.setdefault(target, []).append(now)
                if name == self.method and self.failed is None and now >= self.at:
                    self.failed = (target, now)
                    raise ApiError("transient")
            return call(target, *args, **kwargs)

        return wrapped


HOURS = 3600
ERROR_CASES = {
    # name: (failing method, visits counted, loops, fail at hour, config)
    "timeline_stale": ("user_timeline", "user_timeline", ("tweets",), 0, {}),
    "timeline_expected": (
        "user_timeline",
        "user_timeline",
        ("tweets",),
        24,
        {"min_staleness": 365 * DAY, "target_batch": 10},
    ),
    # the tweets loop calls users_show only to arm a walk's stop count
    "timeline_arming": ("users_show", "user_timeline", ("tweets",), 0, {}),
    "profiles": ("users_show", "users_show", ("profiles",), 0, {}),
    "friends_ids": ("friends_ids", "friends_ids", ("follow",), 0, {}),
    "friends_list": ("friends_list", "friends_list", ("follow",), 0, {}),
    "followers_ids": ("followers_ids", "followers_ids", ("follow",), 0, {}),
    "followers_list": ("followers_list", "followers_list", ("follow",), 0, {}),
    "favorites": ("favorites_list", "favorites_list", ("favorites",), 0, {}),
    "lists_memberships": ("lists_memberships", "lists_memberships", ("lists",), 0, {}),
    "lists_ownerships": ("lists_ownerships", "lists_ownerships", ("lists",), 0, {}),
    "lists_subscriptions": ("lists_subscriptions", "lists_subscriptions", ("lists",), 0, {}),
    "lists_members": ("lists_members", "lists_members", ("lists",), 0, {}),
}


def tracked_world() -> tuple[World, Store]:
    """20 users at 10 tweets a day, all tracked."""
    w = World(
        WorldConfig(
            seed=31,
            n_users=20,
            community_fractions={"el": 1.0},
            activity_min=10.0,
            activity_max=10.0,
            lists_per_user=0.5,
        )
    )
    w.advance(25 * DAY)  # a history deeper than one timeline page
    store = Store()
    for u in w.users:
        store.set_class(u, UserClass.TRACKED, w.now)
    return w, store


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_transient_error_requeues_user_for_next_window(case):
    method, counted, loops, hour, cfg_kw = ERROR_CASES[case]
    w, store = tracked_world()
    windows = dict(
        min_staleness=DAY,
        target_batch=10**9,
        follow_recrawl_window=DAY,
        favorites_recrawl_window=DAY,
        lists_recrawl_window=DAY,
        profile_refresh_window=DAY,
    )
    cfg = SchedulerConfig(loops=loops, **{**windows, **cfg_kw})
    api = FailOnceAfter(w, method, w.now + hour * HOURS, counted)
    crawler = Crawler(api, store, RateLimiter(), SimClock(w), cfg)
    crawler.run(w.now + 6 * DAY)

    assert api.failed is not None, "no request failed"
    target, failed_at = api.failed
    assert [r["outcome"] for r in crawler.log].count("api_error") == 1
    visits = api.starts.pop(target)
    later = [t for t in visits if t > failed_at]
    assert later, "the failing target was never visited again"
    # due again when the next budget window opens, not on the next pass
    assert min(later) >= (failed_at // 900 + 1) * 900
    peers = [len(v) for v in api.starts.values()]
    assert peers, "no other target was visited"
    assert min(peers) - 1 <= len(visits) <= max(peers) + 1, (len(visits), peers)


def test_roundrobin_keeps_user_whose_timeline_request_failed():
    w, store = tracked_world()
    cfg = SchedulerConfig(
        loops=("tweets",), planner="roundrobin", min_staleness=DAY
    )
    api = FailOnceAfter(w, "user_timeline", w.now, "user_timeline")
    crawler = Crawler(api, store, RateLimiter(), SimClock(w), cfg)
    crawler.run(w.now + 6 * HOURS)

    assert api.failed is not None, "no request failed"
    visits = api.starts.pop(api.failed[0])
    peers = [len(v) for v in api.starts.values()]
    # back at the end of the cycle, so visited as often as everyone else
    assert min(peers) - 1 <= len(visits) <= max(peers) + 1, (len(visits), peers)


def test_walk_that_fetches_a_profile_keeps_its_user_in_the_profiles_queue():
    # busy users: most timeline walks run past a full page and fetch a
    # profile to arm their stop count, which stamps profile_fetched_at
    w = World(
        WorldConfig(
            seed=4,
            n_users=20,
            community_fractions={"el": 1.0},
            activity_min=100.0,
            activity_max=400.0,
        )
    )
    store = Store()
    for u in w.users:
        store.set_class(u, UserClass.TRACKED, w.now)
    cfg = SchedulerConfig(loops=("tweets", "profiles"))
    crawler = Crawler(w, store, RateLimiter(), SimClock(w), cfg)
    crawler.run(w.now + 3 * DAY)

    queue = crawler._scans["profiles"].queue
    live = {u for _, key, u in queue._heap if queue.key_of(u) == key and queue.live(u)}
    assert any(  # some walk stamped the profile it fetched
        st.profile_fetched_at is not None and st.profile_fetched_at == st.last_crawled_at
        for st in store.crawl_states.values()
    )
    assert set(store.users_in_class(UserClass.TRACKED, UserClass.TARGET)) <= live


class FailEveryKth:
    """A World whose every k-th user_timeline or users_show call, once armed,
    raises: UserSuspended and a plain ApiError in turn."""

    def __init__(self, world, k):
        self.world = world
        self.k = k
        self.calls = 0
        self.armed = False

    def __getattr__(self, name):
        call = getattr(self.world, name)
        if name not in ("user_timeline", "users_show"):
            return call

        def wrapped(*args, **kwargs):
            if self.armed:
                self.calls += 1
                if self.calls % self.k == 0:
                    if (self.calls // self.k) % 2:
                        raise UserSuspended("failing sweep request")
                    raise ApiError("failing sweep request")
            return call(*args, **kwargs)

        return wrapped


def tight_limiter() -> RateLimiter:
    """4 timeline, 1 lookup and 2 profile requests per window."""
    budgets = dict(DEFAULT_BUDGETS)
    tight = {Endpoint.USER_TIMELINE: 4, Endpoint.STATUSES_LOOKUP: 1, Endpoint.USERS_SHOW: 2}
    for e, n in tight.items():
        budgets[e] = replace(budgets[e], max_requests=n)
    return RateLimiter(budgets)


DRAIN_PINS = {
    # planner, world seed, tweets a day: request log digest and length,
    # saved store digest
    ("priority", 5, (0.5, 50.0)): ("c16dc45d077751f3", 1493, "4c3e3063467a6a10"),
    ("priority", 5, (50.0, 400.0)): ("fdb29149b8336d17", 2455, "d3de9b7dd8b397f3"),
    ("roundrobin", 31, (0.5, 50.0)): ("3146fceb60bfefea", 2463, "95543162293eb4e9"),
}


@pytest.mark.parametrize("planner, seed, activity", sorted(DRAIN_PINS))
def test_blocked_failing_drain_is_pinned(planner, seed, activity, tmp_path):
    # Tight budgets block the sweep across windows, and every 7th sweep
    # request fails, which applies its class transition without a retry.
    # Busy users make sweep walks fetch profiles, some of which fail; under
    # roundrobin both tweet walks are still in flight at the freeze.
    w = World(
        WorldConfig(
            seed=seed,
            n_users=120,
            community_fractions={"el": 0.6, "en": 0.4},
            mixed_fraction=0.1,
            activity_min=activity[0],
            activity_max=activity[1],
            churn_suspend_daily=0.01,
            churn_delete_daily=0.01,
            churn_protect_daily=0.01,
        )
    )
    api = FailEveryKth(w, 7)
    store = Store()
    crawler = Crawler(api, store, tight_limiter(), SimClock(w), SchedulerConfig(planner=planner))
    crawler.run(w.cfg.start_time + 3 * DAY)
    w.frozen = True
    api.armed = True
    mark, frozen_at = len(crawler.log), w.now
    crawler.drain()

    swept = Counter(r["outcome"] for r in crawler.log[mark:] if r["endpoint"] == "user_timeline")
    assert swept["api_error"] and swept["suspended"], swept
    assert w.now > frozen_at, "the sweep was never blocked"
    store.save(tmp_path)
    saved = hashlib.sha256()
    for p in sorted(tmp_path.iterdir()):
        saved.update(p.name.encode())
        saved.update(p.read_bytes())
    log = "\n".join(dumps(r) for r in crawler.log).encode()
    assert (
        hashlib.sha256(log).hexdigest()[:16], len(crawler.log), saved.hexdigest()[:16]
    ) == DRAIN_PINS[planner, seed, activity]


class LookupAlwaysFails:
    """A World whose every statuses_lookup, once armed, raises an ApiError,
    and that stops the crawl with a RuntimeError after 100 of them."""

    def __init__(self, world):
        self.world = world
        self.armed = False
        self.batches: list[list] = []

    def __getattr__(self, name):
        return getattr(self.world, name)

    def statuses_lookup(self, ids):
        if not self.armed:
            return self.world.statuses_lookup(ids)
        if len(self.batches) >= 100:
            raise RuntimeError("the same lookup batch is retried without end")
        self.batches.append(list(ids))
        raise ApiError("transient")


def test_lookup_batch_failing_twice_is_recorded_as_gone():
    w = lookup_world()
    api = LookupAlwaysFails(w)
    store = Store()
    crawler = Crawler(api, store, RateLimiter(), SimClock(w), SchedulerConfig())
    crawler.run(w.cfg.start_time + DAY)
    w.frozen = True
    api.armed = True
    mark = len(crawler.log)
    crawler.drain()

    asked = Counter(tid for batch in api.batches for tid in batch)
    assert asked, "no lookup was made"
    assert max(asked.values()) == 2  # the batch, then its one retry
    assert not crawler._lookup_queue
    times = [r["at"] for r in crawler.log[mark:] if r["endpoint"] == "statuses_lookup"]
    assert len(times) == len(api.batches)
    assert all(b >= (a // 900 + 1) * 900 for a, b in zip(times, times[1:]))
    for tid in asked:
        ref = crawler._pending.get(tid)
        assert store.get_tweet(tid) is not None or (
            ref is not None and ref.gone_at is not None and tid in store.gone_refs[ref.author]
        )

    # a week on, the one retry of a gone reference fails too, and that is final
    w.advance(GONE_RETRY_AFTER)
    crawler.drain()
    asked = Counter(tid for batch in api.batches for tid in batch)
    assert max(asked.values()) == 3
    assert not set(asked) & set(crawler._pending)


def test_unknown_place_ends_the_trends_step():
    w = World(WorldConfig(seed=5, n_users=20))
    places = ("Nowhere", "Worldwide")
    cfg = SchedulerConfig(loops=("trends",), places=places)
    crawler = Crawler(w, Store(), RateLimiter(), SimClock(w), cfg)
    assert crawler._step_trends()
    assert [r["target"] for r in crawler.log] == ["Nowhere"]

    crawler.run(w.now + 2 * 3600)
    for place in places:
        times = [r["at"] for r in crawler.log if r["target"] == place]
        assert times == [w.cfg.start_time + k * TRENDS_PERIOD for k in range(8)]


@pytest.mark.parametrize("loop,endpoint", [("tweets", "user_timeline"), ("profiles", "users_show")])
def test_a_scan_stamped_at_time_zero_counts_as_a_scan(loop, endpoint):
    """A world that starts at the epoch stamps its first scans 0. Each user is
    still visited once in two windows, and its first crawl stays at 0."""
    w = World(WorldConfig(seed=3, n_users=20, start_time=0))
    store = Store()
    for u in sorted(w.users):
        store.set_class(u, UserClass.TRACKED, w.now)
    crawler = Crawler(w, store, RateLimiter(), SimClock(w), SchedulerConfig(loops=(loop,)))
    crawler.run(2 * WINDOW)
    per_user = Counter(r["target"] for r in crawler.log if r["endpoint"] == endpoint)
    assert per_user == dict.fromkeys(w.users, 1)
    if loop == "tweets":
        assert {s.first_crawled_at for s in store.crawl_states.values()} == {0}
