"""Scheduler behavior on controlled single-user worlds: timeline-walk request
arithmetic, the favorites walk's stop rule, rate estimation, ref seeding."""

from dataclasses import replace

import pytest

from langcrawl.apiface import DEFAULT_BUDGETS, ApiError, Endpoint, RateLimiter
from langcrawl.model import UserClass
from langcrawl.sched import Crawler, SchedulerConfig, SimClock
from langcrawl.simnet import DAY, World, WorldConfig
from langcrawl.store import Store


def one_user_rig(seed=11, loops=("tweets",), **cfg_kw):
    w = World(WorldConfig(seed=seed, n_users=1, community_fractions={"el": 1.0}))
    w.frozen = True
    uid = next(iter(w.users))
    store = Store()
    store.set_class(uid, UserClass.TRACKED, w.now)
    cfg = SchedulerConfig(loops=loops, drain=False, min_staleness=0, **cfg_kw)
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
    while crawler._step_favorites():
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
    cfg = SchedulerConfig(loops=("favorites",), drain=False)
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
    cfg = SchedulerConfig(loops=("tweets", "lookup"), drain=False, min_staleness=0)
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
    cfg = SchedulerConfig(loops=("tweets", "lookup"), drain=False, min_staleness=0)
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


def test_lookup_error_requeues_batch():
    w = World(
        WorldConfig(
            seed=5, n_users=80, community_fractions={"el": 0.6, "en": 0.4}, mixed_fraction=0.1
        )
    )
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
