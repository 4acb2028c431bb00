"""Crawl scheduling: all the loops that spend rate-limit budget.

Two tweet crawlers share the timeline budget one permit each per pass: one
visits users by expected new tweets (amortizing requests over ~1000-tweet
batches), the other by staleness. Around them: referenced-tweet lookup,
follow enumeration in both directions, favorites, lists, profile refresh,
trend polling, stream seeding, and the daily classification tick.

Everything runs single-threaded against a virtual clock; one orchestrator
pass gives every loop at most one API request. Walks keep their own cursor
state so a rate-limit block suspends them mid-flight and a crash loses at
most the in-flight page.
"""
from __future__ import annotations

import heapq
import json
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Protocol

from . import classify as cls
from . import lexicons as lex
from .apiface import (
    ApiError,
    DataSource,
    Endpoint,
    GONE,
    LookupHit,
    RateLimiter,
    RetryAfter,
    UserNotFound,
    UserProtected,
    UserSuspended,
)
from .model import (
    CrawlState,
    FollowEdge,
    FollowScan,
    Timestamp,
    Tweet,
    TweetId,
    UserClass,
    UserId,
    tweet_refs,
)
from .store import Store

DAY = 86400

CRAWLABLE = (UserClass.TRACKED, UserClass.TARGET)


@dataclass(frozen=True)
class SchedulerConfig:
    follow_recrawl_window: int = 30 * DAY
    profile_refresh_window: int = 14 * DAY
    favorites_known_stop: int = 191  # strictly more than 190 known likes
    target_batch: int = 1000  # expected-tweets queue visits at ~this accrual
    timeline_page: int = 200
    timeline_cap: int = 3200
    trends_period: int = 900
    lookup_batch: int = 100
    # pacing knobs with no externally pinned value; defaults keep a small
    # crawl healthy without starving any loop
    min_staleness: int = DAY
    favorites_recrawl_window: int = 7 * DAY
    lists_recrawl_window: int = 30 * DAY
    gone_retry_after: int = 7 * DAY
    classify_period: int = DAY
    stream_period: int = 900
    stream_read_size: int = 5000
    rate_ema_alpha: float = 0.3
    planner: str = "priority"  # "priority" (dual queue) or "roundrobin"
    loops: tuple[str, ...] = (
        "tweets",
        "lookup",
        "follow",
        "favorites",
        "lists",
        "profiles",
        "trends",
        "stream",
        "classify",
    )
    keywords: tuple[str, ...] = ()  # empty -> target-language stopword lexicon
    places: tuple[str, ...] = ("Worldwide",)
    drain: bool = True  # sweep every crawlable user once after the horizon

    def to_json(self) -> str:
        rec = {
            k: (list(v) if isinstance(v, tuple) else v) for k, v in self.__dict__.items()
        }
        return json.dumps(rec, ensure_ascii=False, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls_, text: str) -> "SchedulerConfig":
        raw = json.loads(text)
        for name in ("loops", "keywords", "places"):
            if name in raw:
                raw[name] = tuple(raw[name])
        return cls_(**raw)


@dataclass(frozen=True)
class CrawlPlanEntry:
    user: UserId
    expected_new: float
    staleness: int


def estimate_rate(
    state: CrawlState,
    snapshot,
    now: Timestamp,
    span: tuple[int, Timestamp, Timestamp] | None,
) -> float:
    """Tweets per day. With two or more stored tweets: count over the days
    between first and last stored tweet; otherwise the profile's lifetime
    average; zero without any signal."""
    if span is not None and span[0] >= 2:
        count, first_at, last_at = span
        return count / (max(last_at - first_at, 1) / DAY)
    if snapshot is not None and snapshot.tweet_count > 0:
        age = max(now - snapshot.created_at, 1) / DAY
        return snapshot.tweet_count / age
    return 0.0


def plan_tweet_crawl(
    states: Iterable[CrawlState], now: Timestamp, k: int
) -> tuple[list[CrawlPlanEntry], list[CrawlPlanEntry]]:
    """Top-k users by expected new tweets and top-k by staleness."""
    entries = []
    for s in states:
        staleness = now - (s.last_crawled_at or 0)
        entries.append(
            CrawlPlanEntry(s.user, s.est_rate * (staleness / DAY), staleness)
        )
    by_expected = sorted(entries, key=lambda e: (-e.expected_new, e.user))[:k]
    by_staleness = sorted(entries, key=lambda e: (-e.staleness, e.user))[:k]
    return by_expected, by_staleness


class Clock(Protocol):
    def now(self) -> Timestamp: ...

    def sleep_until(self, t: Timestamp) -> None: ...


class SimClock:
    """Couples the crawler to anything with .now and .advance(dt)."""

    def __init__(self, world) -> None:
        self.world = world

    def now(self) -> Timestamp:
        return self.world.now

    def sleep_until(self, t: Timestamp) -> None:
        if t > self.world.now:
            self.world.advance(t - self.world.now)


_BLOCKED = "blocked"
_OK = "ok"
_ERR = "error"

_ERROR_OUTCOMES = {
    UserNotFound: "not_found",
    UserSuspended: "suspended",
    UserProtected: "protected",
}

_ERROR_CLASSES = {
    UserNotFound: UserClass.DEAD,
    UserSuspended: UserClass.SUSPENDED,
    UserProtected: UserClass.PROTECTED,
}


@dataclass
class _PendingRef:
    author: UserId  # author of the referenced tweet, from the ref tuple
    referencers: set[tuple[UserId, str]]  # (referencing user, ref kind)
    gone_at: Timestamp | None = None  # first failed resolution


class _TimelineWalk:
    """One user visit: max-id descent from newest down to the last tweet seen
    previously, bounded by the platform's depth cap.

    After any full page the walk arms a stop count from a fresh profile
    snapshot: remaining = lifetime tweet_count minus tweets already stored in
    the covered id range. That ends a visit of exactly N full pages without
    paying for an empty probe page. The count can only overestimate (older
    uncovered history inflates it), so arming never terminates early.
    """

    def __init__(self, user: UserId, queue: str, state: CrawlState, now: Timestamp):
        self.user = user
        self.queue = queue
        self.pre = state
        self.started_at = now
        self.since = state.last_seen_tweet
        self.max_id: TweetId | None = None
        self.seen = 0
        self.stored = 0
        self.min_seen: TweetId | None = None
        self.max_seen: TweetId | None = None
        self.delta: int | None = None
        self.last_page_full = False
        self.fetched_profile = False

    def needs_arming(self) -> bool:
        return self.last_page_full and self.delta is None


class _FollowWalk:
    def __init__(self, user: UserId, direction: str):
        self.user = user
        self.direction = direction  # "friends" | "followers"
        self.phase = "ids"  # then "list"
        self.cursor = None
        self.ids: list[UserId] = []


class _FavoritesWalk:
    def __init__(self, user: UserId):
        self.user = user
        self.max_id: TweetId | None = None
        self.known = 0


class Crawler:
    def __init__(
        self,
        api: DataSource,
        store: Store,
        limiter: RateLimiter,
        clock: Clock,
        cfg: SchedulerConfig | None = None,
        ccfg: cls.ClassifierConfig | None = None,
        lexicons: lex.Lexicons | None = None,
    ) -> None:
        self.api = api
        self.store = store
        self.limiter = limiter
        self.clock = clock
        self.cfg = cfg or SchedulerConfig()
        self.ccfg = ccfg or cls.ClassifierConfig()
        self.lexicons = lexicons or lex.load_default()
        self.common_names = (
            cls.load_common_names(self.ccfg)
            if self.ccfg.common_names_file
            else self.lexicons.common_names
        )
        self.keywords = tuple(self.cfg.keywords) or tuple(sorted(self.lexicons.stopwords))
        self.log: list[dict] = []

        # tweet crawl queues
        self._walks: dict[str, _TimelineWalk | None] = {"expected": None, "stale": None}
        self._walking: set[UserId] = set()
        self._stale_heap: list[tuple[int, UserId]] = []
        self._expected_heap: list[tuple[int, int, UserId]] = []
        self._rr_queue: deque[UserId] = deque()

        # lookups
        self._pending: dict[TweetId, _PendingRef] = {}
        self._lookup_queue: deque[TweetId] = deque()
        self._gone_retry: list[tuple[Timestamp, TweetId]] = []
        self._evidence: dict[UserId, set[TweetId]] = {}

        # follow / favorites / lists / profiles
        self._follow_heap = {"friends": [], "followers": []}
        self._follow_walk: dict[str, _FollowWalk | None] = {
            "friends": None,
            "followers": None,
        }
        self._fav_heap: list[tuple[int, UserId]] = []
        self._fav_walk: _FavoritesWalk | None = None
        self._list_scan_at: dict[str, dict[UserId, Timestamp]] = {
            "memberships": {},
            "ownerships": {},
            "subscriptions": {},
        }
        self._list_user_heap: dict[str, list[tuple[int, UserId]]] = {
            "memberships": [],
            "ownerships": [],
            "subscriptions": [],
        }
        self._member_queue: deque[int] = deque()
        self._member_cursor = None
        self._member_scanned: dict[int, Timestamp] = {}
        self._list_phase = 0
        self._profile_heap: list[tuple[int, UserId]] = []

        self._last_trend: dict[str, Timestamp] = {}
        self._last_stream: Timestamp | None = None
        self._last_classify: Timestamp | None = None

        for u in self.store.users_in_class(*CRAWLABLE):
            self._enqueue_user(u)

        self._steps: list[Callable[[], bool]] = []
        enabled = set(self.cfg.loops)
        if "tweets" in enabled:
            self._steps.append(lambda: self._step_tweets("expected"))
            self._steps.append(lambda: self._step_tweets("stale"))
        if "lookup" in enabled:
            self._steps.append(self._step_lookup)
        if "follow" in enabled:
            self._steps.append(lambda: self._step_follow("friends"))
            self._steps.append(lambda: self._step_follow("followers"))
        if "favorites" in enabled:
            self._steps.append(self._step_favorites)
        if "lists" in enabled:
            self._steps.append(self._step_lists)
        if "profiles" in enabled:
            self._steps.append(self._step_profiles)
        if "trends" in enabled:
            self._steps.append(self._step_trends)
        if "stream" in enabled:
            self._steps.append(self._step_stream)
        if "classify" in enabled:
            self._steps.append(self._step_classify)

    # -- plumbing ---------------------------------------------------------------

    def _log_request(self, endpoint: Endpoint, target, outcome: str) -> None:
        self.log.append(
            {
                "endpoint": endpoint.value,
                "target": target,
                "at": self.clock.now(),
                "outcome": outcome,
            }
        )

    def _request(self, endpoint: Endpoint, target, call: Callable):
        if isinstance(self.limiter.acquire(endpoint, self.clock.now()), RetryAfter):
            return _BLOCKED, None
        try:
            value = call()
        except ApiError as exc:
            self._log_request(
                endpoint, target, _ERROR_OUTCOMES.get(type(exc), "api_error")
            )
            return _ERR, exc
        self._log_request(endpoint, target, _OK)
        return _OK, value

    def _transition_on_error(self, u: UserId, exc: ApiError) -> None:
        new = _ERROR_CLASSES.get(type(exc))
        if new is not None:
            self.store.set_class(u, new, self.clock.now())

    def _crawlable(self, u: UserId) -> bool:
        return self.store.user_class(u) in CRAWLABLE

    def _enqueue_user(self, u: UserId) -> None:
        """Make a newly tracked user visible to every per-user loop."""
        state = self.store.get_crawl_state(u)
        heapq.heappush(self._stale_heap, (state.last_crawled_at or -1, u))
        self._push_expected(u, state)
        self._rr_queue.append(u)
        for direction in ("friends", "followers"):
            at = getattr(state, f"{direction}_scanned_at")
            heapq.heappush(self._follow_heap[direction], (at or -1, u))
        heapq.heappush(self._fav_heap, (state.favorites_scanned_at or -1, u))
        for endpoint in self._list_user_heap:
            heapq.heappush(
                self._list_user_heap[endpoint],
                (self._list_scan_at[endpoint].get(u, -1), u),
            )
        heapq.heappush(self._profile_heap, (state.profile_fetched_at or -1, u))

    def _eligible_at(self, state: CrawlState) -> Timestamp | None:
        """When target_batch tweets are expected to have accrued since the
        last crawl, in whole seconds; None keeps the user off the queue."""
        if state.est_rate <= 0 or state.last_crawled_at is None:
            return None
        # empty revisits decay est_rate geometrically; a denormal rate would
        # push the wait past float range, so cap it at a year out
        wait = int(min(self.cfg.target_batch / state.est_rate, 365.0) * DAY)
        return state.last_crawled_at + wait

    def _push_expected(self, u: UserId, state: CrawlState) -> None:
        eligible_at = self._eligible_at(state)
        if eligible_at is not None:
            heapq.heappush(self._expected_heap, (eligible_at, state.last_crawled_at, u))

    def track_user(self, u: UserId, at: Timestamp) -> bool:
        if self.store.user_class(u) is not UserClass.UNKNOWN:
            return False
        self.store.set_class(u, UserClass.TRACKED, at)
        self._enqueue_user(u)
        return True

    # -- tweet crawl --------------------------------------------------------------

    def _pop_tweet_user(self, queue: str) -> UserId | None:
        now = self.clock.now()
        if self.cfg.planner == "roundrobin":
            for _ in range(len(self._rr_queue)):
                u = self._rr_queue.popleft()
                if not self._crawlable(u):
                    continue  # dropped users leave the cycle
                if u in self._walking:
                    self._rr_queue.append(u)
                    continue
                return u
            return None
        if queue == "stale":
            while self._stale_heap:
                key, u = self._stale_heap[0]
                state = self.store.get_crawl_state(u)
                if (state.last_crawled_at or -1) != key or not self._crawlable(u):
                    heapq.heappop(self._stale_heap)  # superseded entry
                    continue
                if u in self._walking:
                    return None  # front is busy; keep order, wait
                if key >= 0 and now - key < self.cfg.min_staleness:
                    return None  # nothing stale enough yet
                heapq.heappop(self._stale_heap)
                return u
            return None
        while self._expected_heap:
            eligible_at, key, u = self._expected_heap[0]
            state = self.store.get_crawl_state(u)
            if (state.last_crawled_at or -1) != key or not self._crawlable(u):
                heapq.heappop(self._expected_heap)
                continue
            if eligible_at > now:
                return None
            heapq.heappop(self._expected_heap)
            if u in self._walking:
                self._push_expected(u, state)
                return None
            expected = state.est_rate * ((now - key) / DAY)
            if expected < self.cfg.target_batch:
                # The estimate shrank meanwhile, or the wait's truncation to
                # whole seconds left the count a hair short at eligible_at. A
                # re-push that would be due already is due now: pushing it
                # back would pop it again at this same moment, forever.
                eligible_at = self._eligible_at(state)
                if eligible_at is None or eligible_at > now:
                    self._push_expected(u, state)
                    continue
            return u
        return None

    def _step_tweets(self, queue: str) -> bool:
        walk = self._walks[queue]
        if walk is None:
            u = self._pop_tweet_user(queue)
            if u is None:
                return False
            walk = _TimelineWalk(u, queue, self.store.get_crawl_state(u), self.clock.now())
            self._walks[queue] = walk
            self._walking.add(u)
        status = self._walk_step(walk)
        if status == _BLOCKED:
            return False
        if status == "done":
            self._walks[queue] = None
            self._walking.discard(walk.user)
        return True

    def _walk_step(self, walk: _TimelineWalk) -> str:
        cfg = self.cfg
        if walk.needs_arming():
            snap = self.store.latest_snapshot(walk.user)
            if snap is None or snap.observed_at < walk.started_at:
                status, result = self._request(
                    Endpoint.USERS_SHOW, walk.user, lambda: self.api.users_show(walk.user)
                )
                if status == _BLOCKED:
                    return _BLOCKED
                if status == _ERR:
                    self._transition_on_error(walk.user, result)
                    return "done"  # state deliberately untouched: no progress lost
                self.store.put_snapshot(result)
                walk.fetched_profile = True
                snap = result
            walk.delta = max(
                snap.tweet_count
                - self.store.count_tweets_between(
                    walk.user, walk.pre.first_seen_tweet, walk.pre.last_seen_tweet
                ),
                0,
            )
            if walk.seen >= walk.delta:
                self._finish_walk(walk)
                return "done"
            if walk.fetched_profile:
                return "progress"

        status, page = self._request(
            Endpoint.USER_TIMELINE,
            walk.user,
            lambda: self.api.user_timeline(
                walk.user, since=walk.since, max_id=walk.max_id, count=cfg.timeline_page
            ),
        )
        if status == _BLOCKED:
            return _BLOCKED
        if status == _ERR:
            self._transition_on_error(walk.user, page)
            return "done"

        for t in page:
            if self.store.put_tweet(t).name == "INSERTED":
                walk.stored += 1
            self._register_refs(t)
        walk.seen += len(page)
        if page:
            page_min = page[-1].id
            page_max = page[0].id
            walk.min_seen = page_min if walk.min_seen is None else min(walk.min_seen, page_min)
            walk.max_seen = page_max if walk.max_seen is None else max(walk.max_seen, page_max)
        walk.last_page_full = len(page) == cfg.timeline_page

        if (
            not walk.last_page_full
            or (walk.delta is not None and walk.seen >= walk.delta)
            or walk.seen >= cfg.timeline_cap
        ):
            self._finish_walk(walk)
            return "done"
        walk.max_id = walk.min_seen - 1
        return "progress"

    def _finish_walk(self, walk: _TimelineWalk) -> None:
        now = self.clock.now()
        state = self.store.get_crawl_state(walk.user)
        first = state.first_seen_tweet
        last = state.last_seen_tweet
        if walk.min_seen is not None:
            first = walk.min_seen if first is None else min(first, walk.min_seen)
            last = walk.max_seen if last is None else max(last, walk.max_seen)
        cap_hit = walk.seen >= self.cfg.timeline_cap and (
            walk.delta is None or walk.delta > walk.seen
        )
        prev_crawl = state.last_crawled_at
        if prev_crawl is None:
            observed = estimate_rate(
                state, self.store.latest_snapshot(walk.user), now, self.store.author_span(walk.user)
            )
            est = observed
        else:
            staleness_days = max(now - prev_crawl, 1) / DAY
            observed = walk.stored / staleness_days
            a = self.cfg.rate_ema_alpha
            est = a * observed + (1 - a) * state.est_rate
        state = replace(
            state,
            first_seen_tweet=first,
            last_seen_tweet=last,
            first_crawled_at=state.first_crawled_at or now,
            last_crawled_at=now,
            cap_reached=state.cap_reached or cap_hit,
            profile_fetched_at=now if walk.fetched_profile else state.profile_fetched_at,
            est_rate=est,
        )
        self.store.put_crawl_state(state)
        heapq.heappush(self._stale_heap, (now, walk.user))
        self._push_expected(walk.user, state)
        if self.cfg.planner == "roundrobin":
            self._rr_queue.append(walk.user)

    # -- lookups -------------------------------------------------------------------

    def _register_refs(self, t: Tweet) -> None:
        for kind, tid, author in tweet_refs(t):
            existing = self.store.get_tweet(tid)
            if existing is not None:
                self._note_evidence(existing, t.author, kind)
                continue
            ref = self._pending.get(tid)
            if ref is None:
                self._pending[tid] = _PendingRef(author, {(t.author, kind)})
                self._lookup_queue.append(tid)
            else:
                ref.referencers.add((t.author, kind))

    def _note_evidence(self, original: Tweet, referencer: UserId, kind: str) -> None:
        """Count distinct target-language tweets of an unknown author retweeted
        by users we track; enough of them seeds the author into the crawl."""
        if kind != "retweet" or original.lang != self.ccfg.target_lang:
            return
        candidate = original.author
        if self.store.user_class(candidate) is not UserClass.UNKNOWN:
            return
        if self.store.user_class(referencer) not in CRAWLABLE:
            return
        tweets = self._evidence.setdefault(candidate, set())
        tweets.add(original.id)
        if cls.retweet_seed(len(tweets), self.ccfg):
            self.track_user(candidate, self.clock.now())
            del self._evidence[candidate]

    def _step_lookup(self) -> bool:
        now = self.clock.now()
        while self._gone_retry and self._gone_retry[0][0] <= now:
            _, tid = heapq.heappop(self._gone_retry)
            if tid in self._pending:
                self._lookup_queue.append(tid)
        if not self._lookup_queue:
            return False
        batch: list[TweetId] = []
        while self._lookup_queue and len(batch) < self.cfg.lookup_batch:
            tid = self._lookup_queue.popleft()
            ref = self._pending.get(tid)
            if ref is None or tid in batch:
                continue
            stored = self.store.get_tweet(tid)
            if stored is not None:
                # a timeline walk got there first; no request needed
                if ref.gone_at is not None:
                    self.store.discard_gone_ref(ref.author, tid)
                for referencer, kind in sorted(ref.referencers):
                    self._note_evidence(stored, referencer, kind)
                del self._pending[tid]
                continue
            batch.append(tid)
        if not batch:
            return False
        status, results = self._request(
            Endpoint.STATUSES_LOOKUP, len(batch), lambda: self.api.statuses_lookup(batch)
        )
        if status == _BLOCKED:
            self._lookup_queue.extendleft(reversed(batch))
            return False
        if status == _ERR:
            # counted in the request log; the whole batch waits for a retry
            self._lookup_queue.extendleft(reversed(batch))
            return True
        for tid in batch:
            ref = self._pending[tid]
            result = results.get(tid, GONE)
            if isinstance(result, LookupHit):
                self.store.put_tweet(result.tweet)
                self.store.put_snapshot(result.author)
                if ref.gone_at is not None:
                    self.store.discard_gone_ref(ref.author, tid)
                for referencer, kind in sorted(ref.referencers):
                    self._note_evidence(result.tweet, referencer, kind)
                del self._pending[tid]
            elif ref.gone_at is None:
                # first failure: record now, retry once later
                ref.gone_at = now
                self.store.add_gone_ref(ref.author, tid)
                heapq.heappush(self._gone_retry, (now + self.cfg.gone_retry_after, tid))
            else:
                del self._pending[tid]  # second failure is final
        return True

    # -- follow crawl ------------------------------------------------------------------

    def _pop_scan_user(self, heap: list, field: str, window: int) -> UserId | None:
        now = self.clock.now()
        while heap:
            key, u = heap[0]
            state = self.store.get_crawl_state(u)
            current = getattr(state, field) if field else None
            if field and (current or -1) != key or not self._crawlable(u):
                heapq.heappop(heap)
                continue
            if key >= 0 and now - key < window:
                return None
            heapq.heappop(heap)
            return u
        return None

    def _step_follow(self, direction: str) -> bool:
        walk = self._follow_walk[direction]
        if walk is None:
            u = self._pop_scan_user(
                self._follow_heap[direction],
                f"{direction}_scanned_at",
                self.cfg.follow_recrawl_window,
            )
            if u is None:
                return False
            walk = _FollowWalk(u, direction)
            self._follow_walk[direction] = walk

        if walk.phase == "ids":
            endpoint = (
                Endpoint.FRIENDS_IDS if direction == "friends" else Endpoint.FOLLOWERS_IDS
            )
            call = (
                self.api.friends_ids if direction == "friends" else self.api.followers_ids
            )
            status, result = self._request(
                endpoint, walk.user, lambda: call(walk.user, cursor=walk.cursor)
            )
            if status == _BLOCKED:
                return False
            if status == _ERR:
                self._transition_on_error(walk.user, result)
                self._follow_walk[direction] = None
                return True
            ids, nxt = result
            walk.ids.extend(ids)
            walk.cursor = nxt
            if nxt is None:
                walk.phase = "list"
            return True

        endpoint = (
            Endpoint.FRIENDS_LIST if direction == "friends" else Endpoint.FOLLOWERS_LIST
        )
        call = self.api.friends_list if direction == "friends" else self.api.followers_list
        status, result = self._request(
            endpoint, walk.user, lambda: call(walk.user, cursor=walk.cursor)
        )
        if status == _BLOCKED:
            return False
        if status == _ERR:
            self._transition_on_error(walk.user, result)
            self._follow_walk[direction] = None
            return True
        snapshots, nxt = result
        for s in snapshots:
            self.store.put_snapshot(s)
        walk.cursor = nxt
        if nxt is None:
            self._finish_follow(walk)
            self._follow_walk[direction] = None
        return True

    def _finish_follow(self, walk: _FollowWalk) -> None:
        now = self.clock.now()
        for v in walk.ids:
            src, dst = (walk.user, v) if walk.direction == "friends" else (v, walk.user)
            self.store.append_follow(FollowEdge(src=src, dst=dst, observed_at=now))
        self.store.record_follow_scan(
            FollowScan(kind=walk.direction, subject=walk.user, at=now)
        )
        state = self.store.get_crawl_state(walk.user)
        state = replace(state, **{f"{walk.direction}_scanned_at": now})
        self.store.put_crawl_state(state)
        heapq.heappush(self._follow_heap[walk.direction], (now, walk.user))

    # -- favorites --------------------------------------------------------------------

    def _step_favorites(self) -> bool:
        walk = self._fav_walk
        if walk is None:
            u = self._pop_scan_user(
                self._fav_heap, "favorites_scanned_at", self.cfg.favorites_recrawl_window
            )
            if u is None:
                return False
            walk = _FavoritesWalk(u)
            self._fav_walk = walk
        status, page = self._request(
            Endpoint.FAVORITES_LIST,
            walk.user,
            lambda: self.api.favorites_list(walk.user, max_id=walk.max_id, count=200),
        )
        if status == _BLOCKED:
            return False
        if status == _ERR:
            self._transition_on_error(walk.user, page)
            self._fav_walk = None
            return True
        for rec in page:
            if self.store.has_favorite(rec.user, rec.tweet):
                walk.known += 1
            else:
                self.store.put_favorite(rec)
        # keep descending past known likes: older new ones may hide below,
        # until enough known history proves the rest was covered before
        if len(page) < 200 or walk.known >= self.cfg.favorites_known_stop:
            now = self.clock.now()
            state = self.store.get_crawl_state(walk.user)
            self.store.put_crawl_state(replace(state, favorites_scanned_at=now))
            heapq.heappush(self._fav_heap, (now, walk.user))
            self._fav_walk = None
        else:
            walk.max_id = min(r.tweet for r in page) - 1
        return True

    # -- lists ---------------------------------------------------------------------------

    def _step_lists(self) -> bool:
        for _ in range(4):
            phase = ("memberships", "ownerships", "subscriptions", "members")[
                self._list_phase
            ]
            self._list_phase = (self._list_phase + 1) % 4
            if phase == "members":
                if self._step_list_members():
                    return True
            elif self._step_list_users(phase):
                return True
        return False

    def _step_list_users(self, endpoint_name: str) -> bool:
        heap = self._list_user_heap[endpoint_name]
        scan_at = self._list_scan_at[endpoint_name]
        now = self.clock.now()
        u = None
        while heap:
            key, cand = heap[0]
            if scan_at.get(cand, -1) != key or not self._crawlable(cand):
                heapq.heappop(heap)
                continue
            if key >= 0 and now - key < self.cfg.lists_recrawl_window:
                return False
            heapq.heappop(heap)
            u = cand
            break
        if u is None:
            return False
        endpoint = {
            "memberships": Endpoint.LISTS_MEMBERSHIPS,
            "ownerships": Endpoint.LISTS_OWNERSHIPS,
            "subscriptions": Endpoint.LISTS_SUBSCRIPTIONS,
        }[endpoint_name]
        call = {
            "memberships": self.api.lists_memberships,
            "ownerships": self.api.lists_ownerships,
            "subscriptions": self.api.lists_subscriptions,
        }[endpoint_name]
        status, records = self._request(endpoint, u, lambda: call(u))
        if status == _BLOCKED:
            heapq.heappush(heap, (scan_at.get(u, -1), u))
            return False
        if status == _ERR:
            self._transition_on_error(u, records)
            return True
        from .model import ListMembership, ListSubscription

        for record in records:
            self.store.put_list(record)
            if endpoint_name == "memberships":
                self.store.put_membership(
                    ListMembership(list_id=record.id, member=u, observed_at=now)
                )
            elif endpoint_name == "subscriptions":
                self.store.put_subscription(
                    ListSubscription(list_id=record.id, subscriber=u, observed_at=now)
                )
            if record.id not in self._member_scanned:
                self._member_scanned[record.id] = -1
                self._member_queue.append(record.id)
        scan_at[u] = now
        heapq.heappush(heap, (now, u))
        return True

    def _step_list_members(self) -> bool:
        from .apiface import ListNotFound
        from .model import ListMembership

        if not self._member_queue:
            return False
        list_id = self._member_queue[0]
        status, result = self._request(
            Endpoint.LISTS_MEMBERS,
            list_id,
            lambda: self.api.lists_members(list_id, cursor=self._member_cursor),
        )
        if status == _BLOCKED:
            return False
        if status == _ERR:
            if isinstance(result, ListNotFound):
                self._member_queue.popleft()
                self._member_cursor = None
            return True
        ids, nxt = result
        now = self.clock.now()
        for member in ids:
            self.store.put_membership(
                ListMembership(list_id=list_id, member=member, observed_at=now)
            )
        self._member_cursor = nxt
        if nxt is None:
            self._member_queue.popleft()
            self._member_scanned[list_id] = now
        return True

    # -- profiles / trends / stream / classify ----------------------------------------------

    def _step_profiles(self) -> bool:
        u = self._pop_scan_user(
            self._profile_heap, "profile_fetched_at", self.cfg.profile_refresh_window
        )
        if u is None:
            return False
        status, snap = self._request(
            Endpoint.USERS_SHOW, u, lambda: self.api.users_show(u)
        )
        if status == _BLOCKED:
            heapq.heappush(
                self._profile_heap,
                (self.store.get_crawl_state(u).profile_fetched_at or -1, u),
            )
            return False
        if status == _ERR:
            self._transition_on_error(u, snap)
            return True
        self.store.put_snapshot(snap)
        now = self.clock.now()
        state = self.store.get_crawl_state(u)
        self.store.put_crawl_state(replace(state, profile_fetched_at=now))
        heapq.heappush(self._profile_heap, (now, u))
        return True

    def _step_trends(self) -> bool:
        from .apiface import PlaceUnknown

        now = self.clock.now()
        for place in self.cfg.places:
            last = self._last_trend.get(place)
            if last is not None and now - last < self.cfg.trends_period:
                continue
            status, snap = self._request(
                Endpoint.TRENDS_PLACE, place, lambda: self.api.trends_place(place)
            )
            if status == _BLOCKED:
                return False
            self._last_trend[place] = now
            if status == _ERR:
                if isinstance(snap, PlaceUnknown):
                    continue
                return True
            self.store.put_trend(snap)
            return True
        return False

    def _step_stream(self) -> bool:
        now = self.clock.now()
        if self._last_stream is not None and now - self._last_stream < self.cfg.stream_period:
            return False
        if self.cfg.stream_read_size <= 0:
            return False
        status, tweets = self._request(
            Endpoint.STREAM_FILTER,
            len(self.keywords),
            lambda: self.api.stream_filter(self.keywords, self.cfg.stream_read_size),
        )
        if status == _BLOCKED:
            return False
        self._last_stream = now
        if status == _ERR:
            return True
        for t in tweets:
            self.store.put_tweet(t)
            self._register_refs(t)
            self.track_user(t.author, now)
        return True

    def _step_classify(self) -> bool:
        now = self.clock.now()
        if (
            self._last_classify is not None
            and now - self._last_classify < self.cfg.classify_period
        ):
            return False
        self._run_classification()
        return True

    def _run_classification(self) -> cls.ClassificationReport:
        now = self.clock.now()
        self._last_classify = now
        report = cls.run_classification(self.store, self.ccfg, self.common_names, now)
        for u, old, new in report.transitions:
            if old == UserClass.UNKNOWN.value and new == UserClass.TRACKED.value:
                self._enqueue_user(u)
        return report

    # -- main loop -------------------------------------------------------------------------

    def run(self, until: Timestamp) -> None:
        """Crawl until the virtual clock reaches `until`. Callers wanting
        horizon-exact coverage follow up with drain(), after stopping the
        world if they can."""
        while self.clock.now() < until:
            progressed = False
            for step in self._steps:
                if step():
                    progressed = True
            if not progressed:
                boundary = (self.clock.now() // 900 + 1) * 900
                self.clock.sleep_until(min(boundary, until))

    def drain(self) -> None:
        """Classify, sweep the timeline of every crawlable user once, flush
        pending lookups; repeat until classification stops promoting anyone
        new, so nobody ends up tracked but unswept."""
        for qname, walk in self._walks.items():
            # a walk suspended mid-flight holds uncommitted pages; finish it
            # so its user is eligible for the sweep below
            while walk is not None:
                status = self._walk_step(walk)
                if status == "done":
                    self._walking.discard(walk.user)
                    self._walks[qname] = None
                    walk = None
                elif status == _BLOCKED:
                    self.clock.sleep_until((self.clock.now() // 900 + 1) * 900)
        swept: set[UserId] = set()
        while True:
            self._run_classification()
            queue = deque(
                u for u in self.store.users_in_class(*CRAWLABLE) if u not in swept
            )
            if not queue and not self._lookup_queue and not self._gone_retry_due():
                break
            walk: _TimelineWalk | None = None
            while queue or walk or self._lookup_queue or self._gone_retry_due():
                progressed = False
                if walk is None and queue:
                    u = queue.popleft()
                    swept.add(u)
                    if self._crawlable(u) and u not in self._walking:
                        walk = _TimelineWalk(
                            u, "drain", self.store.get_crawl_state(u), self.clock.now()
                        )
                        self._walking.add(u)
                    progressed = True
                if walk is not None:
                    status = self._walk_step(walk)
                    if status == "done":
                        self._walking.discard(walk.user)
                        walk = None
                    if status != _BLOCKED:
                        progressed = True
                if self._step_lookup():
                    progressed = True
                if not progressed:
                    self.clock.sleep_until((self.clock.now() // 900 + 1) * 900)

    def _gone_retry_due(self) -> bool:
        return bool(self._gone_retry) and self._gone_retry[0][0] <= self.clock.now()

    def write_log(self, path) -> int:
        from .store import dumps

        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.log:
                fh.write(dumps(rec) + "\n")
        return len(self.log)
