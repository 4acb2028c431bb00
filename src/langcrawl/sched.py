"""Crawl scheduling: all the loops that spend rate-limit budget.

Two tweet crawlers share the timeline budget one permit each per pass: one
visits users by expected new tweets (amortizing requests over ~1000-tweet
batches), the other by staleness. Around them: referenced-tweet lookup,
follow enumeration in both directions, favorites, lists, profile refresh,
trend polling, stream seeding, and the daily classification tick.

Each per-user loop draws its users from a RevisitQueue: a user is due a
fixed window after its last scan (the expected-tweets queue instead names the
moment ~1000 new tweets will have accrued).

One error policy covers every per-user request: a failed request applies the
class transition its error implies (dead, suspended, protected), and its user
goes back into the queue it came from, scan stamp unchanged, due when the
next 900-second budget window opens. A user that keeps failing costs a loop
at most one request per window and never holds up the users behind it. A
failed list-members page sends its list back the same way. A failed lookup
batch goes back to the front of the lookup queue, which waits for the next
window; a reference whose batch fails again is settled as if answered gone.
Under the roundrobin planner, kept as a baseline, a failed walk's user goes
back to the end of the cycle, as after any other walk.

Everything runs single-threaded against a virtual clock, in one pass loop
shared by run() and drain(): a pass gives every loop at most one API request,
and a pass where nothing progressed sleeps to the next window. drain()'s
final sweep is a third timeline-walk slot, fed with the crawlable users not
yet swept; a failed sweep walk applies its class transition and is not
retried. Walks keep their own cursor state, so a rate-limit block suspends
them mid-flight. Queues, walks and pending lookups live in memory only; a new
Crawler rebuilds its queues from the store's crawl states.
"""
from __future__ import annotations

import heapq
import math
import operator
from collections import deque
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, Protocol

from . import classify as cls
from . import lexicons as lex
from .apiface import (
    TIMELINE_DEPTH,
    WINDOW,
    ApiError,
    DataSource,
    Endpoint,
    GONE,
    ListNotFound,
    LookupHit,
    RateLimiter,
    RetryAfter,
    UserNotFound,
    UserProtected,
    UserSuspended,
)
from .model import (
    CRAWLABLE,
    CrawlState,
    FollowEdge,
    FollowScan,
    ListId,
    ListMembership,
    ListSubscription,
    Timestamp,
    Tweet,
    TweetId,
    UserClass,
    UserId,
    tweet_refs,
)
from .store import PutTweetResult, Store

DAY = 86400

FAVORITES_KNOWN_STOP = 191  # strictly more than 190 known likes end a favorites walk
TRENDS_PERIOD = 900  # seconds between two polls of one place's trends
GONE_RETRY_AFTER = 7 * DAY  # a reference that failed lookup is retried once, this much later
CLASSIFY_PERIOD = DAY
STREAM_PERIOD = 900  # seconds between two stream reads
STREAM_READ_SIZE = 5000  # most tweets one stream read takes
RATE_EMA_ALPHA = 0.3  # weight of the latest visit in a user's tweet-rate estimate


@dataclass(frozen=True)
class SchedulerConfig:
    follow_recrawl_window: int = 30 * DAY
    profile_refresh_window: int = 14 * DAY
    target_batch: int = 1000  # expected-tweets queue visits at ~this accrual
    # pacing knobs with no externally pinned value; defaults keep a small
    # crawl healthy without starving any loop
    min_staleness: int = DAY
    favorites_recrawl_window: int = 7 * DAY
    lists_recrawl_window: int = 30 * DAY
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

# error -> (request log outcome, class the user moves to)
_USER_ERRORS = {
    UserNotFound: ("not_found", UserClass.DEAD),
    UserSuspended: ("suspended", UserClass.SUSPENDED),
    UserProtected: ("protected", UserClass.PROTECTED),
}


def _next_window(t: Timestamp) -> Timestamp:
    return (t // WINDOW + 1) * WINDOW


_STATE_INDEX = {f.name: i for i, f in enumerate(fields(CrawlState))}
_state_values = operator.attrgetter(*_STATE_INDEX)


def _updated(state: CrawlState, **changes) -> CrawlState:
    """dataclasses.replace for a CrawlState, without its per-field checks."""
    values = list(_state_values(state))
    for name, value in changes.items():
        values[_STATE_INDEX[name]] = value
    return CrawlState(*values)


class RevisitQueue:
    """Users due for a revisit, soonest first.

    Entries are (due, key, user). `key` is the user's scan stamp when the
    entry was pushed, -1 before the first scan, and `due` is key + window (-1
    for a user never scanned) unless the caller names another moment. An
    entry whose key no longer matches key_of(user) was superseded by a later
    scan, and it is dropped once it is at the front and due, as is a user for
    whom live(user) has turned false. Both are final (scan stamps only grow,
    and a user that stops being crawlable never becomes crawlable again), so
    an entry that is not yet due is not looked at.
    """

    def __init__(
        self,
        key_of: Callable[[UserId], Timestamp],
        live: Callable[[UserId], bool],
        window: int = 0,
    ) -> None:
        self.key_of = key_of
        self.live = live
        self.window = window
        self._heap: list[tuple[Timestamp, Timestamp, UserId]] = []

    def push(self, u: UserId, due: Timestamp | None = None) -> None:
        key = self.key_of(u)
        if due is None:
            due = key + self.window if key >= 0 else -1
        heapq.heappush(self._heap, (due, key, u))

    def peek(self, now: Timestamp) -> UserId | None:
        """The front user if it is due at `now`, without removing it."""
        heap = self._heap
        while heap:
            due, key, u = heap[0]
            if due > now:
                return None
            if self.key_of(u) == key and self.live(u):
                return u
            heapq.heappop(heap)
        return None

    def pop(self, now: Timestamp) -> UserId | None:
        """Remove and return the front user if it is due at `now`."""
        u = self.peek(now)
        if u is not None:
            heapq.heappop(self._heap)
        return u


@dataclass
class _PendingRef:
    author: UserId  # author of the referenced tweet, from the ref tuple
    referencers: set[tuple[UserId, str]]  # (referencing user, ref kind)
    gone_at: Timestamp | None = None  # first failed resolution
    errored: bool = False  # a lookup batch holding it raised


class _TimelineWalk:
    """One user visit: max-id descent from newest down to the last tweet seen
    previously, bounded by the platform's depth cap.

    After any full page the walk arms a stop count from a fresh profile
    snapshot: remaining = lifetime tweet_count minus tweets already stored in
    the covered id range. That ends a visit of exactly N full pages without
    paying for an empty probe page. The count can only overestimate (older
    uncovered history inflates it), so arming never terminates early.
    """

    def __init__(
        self, user: UserId, queue: RevisitQueue | None, state: CrawlState, now: Timestamp
    ):
        self.user = user
        self.queue = queue  # where a failed visit sends its user; None for a sweep
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


@dataclass
class _ScanWalk:
    """One visit of a scan loop: the endpoint being paged, its cursor (a
    follow cursor or the favorites max_id), and what the commit needs."""

    user: UserId
    phase: int = 0
    cursor: int | None = None
    ids: list[UserId] = field(default_factory=list)  # follow: every id page
    known: int = 0  # favorites: likes already stored


@dataclass
class _ScanLoop:
    """A per-user loop that revisits every crawlable user a window after its
    last scan. A visit requests `endpoints` in turn, each through `fetch`
    until `take` has stored a page and returns no further cursor; `commit`
    then stamps the scan and the user is queued again. A paged visit holds
    its user from its start through rate-limit blocks; a one-request visit
    leaves its user queued until the request is granted."""

    endpoints: tuple[Endpoint, ...]
    queue: RevisitQueue
    fetch: Callable[[Endpoint, _ScanWalk], object]
    take: Callable[[_ScanWalk, object], int | None]
    commit: Callable[[_ScanWalk], None]
    paged: bool = True
    walk: _ScanWalk | None = None


class Crawler:
    def __init__(
        self,
        api: DataSource,
        store: Store,
        limiter: RateLimiter,
        clock: Clock,
        cfg: SchedulerConfig | None = None,
        ccfg: cls.ClassifierConfig | None = None,
    ) -> None:
        self.api = api
        self.store = store
        self.limiter = limiter
        self.clock = clock
        self.cfg = cfg or SchedulerConfig()
        self.ccfg = ccfg or cls.ClassifierConfig()
        self.common_names = cls.load_common_names(self.ccfg)
        self.keywords = tuple(self.cfg.keywords) or tuple(sorted(lex.load_default().stopwords))
        self.log: list[dict] = []
        cfg = self.cfg

        # tweet crawl queues
        self._walks: dict[str, _TimelineWalk | None] = dict.fromkeys(("expected", "stale", "sweep"))
        self._sweep: deque[UserId] = deque()  # drain's users still to visit
        self._stale = self._state_queue("last_crawled_at", cfg.min_staleness)
        self._expected = self._state_queue("last_crawled_at", 0)
        self._rr_queue: deque[UserId] = deque()

        # lookups
        self._pending: dict[TweetId, _PendingRef] = {}
        self._lookup_queue: deque[TweetId] = deque()
        self._gone_retry: list[tuple[Timestamp, TweetId]] = []
        self._lookup_wait: Timestamp = 0  # no lookup before this; set by a failed batch
        self._evidence: dict[UserId, set[TweetId]] = {}

        # per-user scan loops: endpoints, queue, fetch, take a page, commit
        def by_cursor(e: Endpoint, walk: _ScanWalk):
            return getattr(self.api, e.value)(walk.user, cursor=walk.cursor)

        def once(e: Endpoint, walk: _ScanWalk):
            return getattr(self.api, e.value)(walk.user)

        def likes(e: Endpoint, walk: _ScanWalk):
            return self.api.favorites_list(walk.user, max_id=walk.cursor, count=self._page(e))

        self._scans: dict[str, _ScanLoop] = {}
        for kind in ("friends", "followers"):
            self._scans[kind] = _ScanLoop(
                (Endpoint(f"{kind}_ids"), Endpoint(f"{kind}_list")),
                self._state_queue(f"{kind}_scanned_at", cfg.follow_recrawl_window),
                by_cursor, self._take_follow, partial(self._commit_follow, kind),
            )
        self._scans["favorites"] = _ScanLoop(
            (Endpoint.FAVORITES_LIST,),
            self._state_queue("favorites_scanned_at", cfg.favorites_recrawl_window),
            likes, self._take_favorites, partial(self._stamp, "favorites_scanned_at"),
        )
        self._list_scan_at: dict[str, dict[UserId, Timestamp]] = {
            k: {} for k in ("memberships", "ownerships", "subscriptions")
        }
        for kind, scan_at in self._list_scan_at.items():
            queue = RevisitQueue(
                lambda u, scan_at=scan_at: scan_at.get(u, -1),
                self._crawlable,
                cfg.lists_recrawl_window,
            )
            self._scans[kind] = _ScanLoop(
                (Endpoint(f"lists_{kind}"),), queue, once,
                partial(self._take_lists, kind), partial(self._commit_lists, scan_at),
                paged=False,
            )
        self._scans["profiles"] = _ScanLoop(
            (Endpoint.USERS_SHOW,),
            self._state_queue("profile_fetched_at", cfg.profile_refresh_window),
            once, self._take_profile, partial(self._stamp, "profile_fetched_at"),
            paged=False,
        )
        self._member_queue: deque[ListId] = deque()
        self._member_cursor = None
        self._lists_seen: set[ListId] = set()  # every list ever queued for members
        self._member_retry: deque[tuple[Timestamp, ListId]] = deque()
        self._list_phase = 0

        self._last_trend: dict[str, Timestamp] = {}
        self._last_stream: Timestamp | None = None
        self._last_classify: Timestamp | None = None

        for u in self.store.users_in_class(*CRAWLABLE):
            self._enqueue_user(u)

        steps = (
            ("tweets", partial(self._step_tweets, "expected")),
            ("tweets", partial(self._step_tweets, "stale")),
            ("lookup", self._step_lookup),
            ("follow", partial(self._step_scan, "friends")),
            ("follow", partial(self._step_scan, "followers")),
            ("favorites", partial(self._step_scan, "favorites")),
            ("lists", self._step_lists),
            ("profiles", partial(self._step_scan, "profiles")),
            ("trends", self._step_trends),
            ("stream", self._step_stream),
            ("classify", self._step_classify),
        )
        self._steps = [step for loop, step in steps if loop in cfg.loops]

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
            outcome, _ = _USER_ERRORS.get(type(exc), ("api_error", None))
            self._log_request(endpoint, target, outcome)
            return _ERR, exc
        self._log_request(endpoint, target, _OK)
        return _OK, value

    def _page(self, endpoint: Endpoint) -> int:
        return self.limiter.budgets[endpoint].page_size

    def _on_error(self, u: UserId, exc: ApiError, queue: RevisitQueue | None) -> None:
        """The error policy of every per-user request: apply the class
        transition the error implies, then put u back in the queue it came
        from, scan stamp unchanged, due when the next budget window opens."""
        now = self.clock.now()
        _, new = _USER_ERRORS.get(type(exc), (None, None))
        if new is not None:
            self.store.set_class(u, new, now)
        if queue is not None:
            queue.push(u, due=_next_window(now))

    def _crawlable(self, u: UserId) -> bool:
        return self.store.user_class(u) in CRAWLABLE

    def _state_queue(self, stamp: str, window: int) -> RevisitQueue:
        """A queue keyed on one CrawlState scan stamp, -1 before the first
        scan (a stamp of 0 is a scan at the epoch)."""

        def key_of(u: UserId) -> Timestamp:
            at = getattr(self.store.crawl_states.get(u), stamp, None)
            return -1 if at is None else at

        return RevisitQueue(key_of, self._crawlable, window)

    def _enqueue_user(self, u: UserId) -> None:
        """Make a newly tracked user visible to every per-user loop."""
        self._stale.push(u)
        self._push_expected(u, self.store.get_crawl_state(u))
        self._rr_queue.append(u)
        for loop in self._scans.values():
            loop.queue.push(u)

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
            self._expected.push(u, due=eligible_at)

    def track_user(self, u: UserId, at: Timestamp) -> bool:
        if self.store.user_class(u) is not UserClass.UNKNOWN:
            return False
        self.store.set_class(u, UserClass.TRACKED, at)
        self._enqueue_user(u)
        return True

    # -- tweet crawl --------------------------------------------------------------

    def _pop_tweet_user(self, queue: str) -> UserId | None:
        now = self.clock.now()
        if queue == "sweep":
            return self._sweep.popleft() if self._sweep else None
        walking = {walk.user for walk in self._walks.values() if walk is not None}
        if self.cfg.planner == "roundrobin":
            for _ in range(len(self._rr_queue)):
                u = self._rr_queue.popleft()
                if not self._crawlable(u):
                    continue  # dropped users leave the cycle
                if u in walking:
                    self._rr_queue.append(u)
                    continue
                return u
            return None
        if queue == "stale":
            u = self._stale.peek(now)
            if u is None or u in walking:
                return None  # nothing stale enough yet, or the front is busy: wait
            return self._stale.pop(now)
        while (u := self._expected.pop(now)) is not None:
            state = self.store.get_crawl_state(u)
            if u in walking:
                self._push_expected(u, state)
                return None
            expected = state.est_rate * ((now - state.last_crawled_at) / DAY)
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
            source = {"expected": self._expected, "stale": self._stale}.get(queue)
            walk = _TimelineWalk(u, source, self.store.get_crawl_state(u), self.clock.now())
            self._walks[queue] = walk
        status = self._walk_step(walk)
        if status == _BLOCKED:
            return False
        if status == "done":
            self._walks[queue] = None
            if self.cfg.planner == "roundrobin" and queue != "sweep":
                # back into the cycle however the walk ended, error included
                self._rr_queue.append(walk.user)
        return True

    def _walk_step(self, walk: _TimelineWalk) -> str:
        if walk.needs_arming():
            snap = self.store.latest_snapshot(walk.user)
            if snap is None or snap.observed_at < walk.started_at:
                status, result = self._request(
                    Endpoint.USERS_SHOW, walk.user, lambda: self.api.users_show(walk.user)
                )
                if status == _BLOCKED:
                    return _BLOCKED
                if status == _ERR:
                    # state deliberately untouched: no progress lost
                    self._on_error(walk.user, result, walk.queue)
                    return "done"
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

        page_size = self._page(Endpoint.USER_TIMELINE)
        status, page = self._request(
            Endpoint.USER_TIMELINE,
            walk.user,
            lambda: self.api.user_timeline(
                walk.user, since=walk.since, max_id=walk.max_id, count=page_size
            ),
        )
        if status == _BLOCKED:
            return _BLOCKED
        if status == _ERR:
            self._on_error(walk.user, page, walk.queue)
            return "done"

        for t in page:
            if self.store.put_tweet(t) is PutTweetResult.INSERTED:
                walk.stored += 1
            self._register_refs(t)
        walk.seen += len(page)
        if page:
            page_min = page[-1].id
            page_max = page[0].id
            walk.min_seen = page_min if walk.min_seen is None else min(walk.min_seen, page_min)
            walk.max_seen = page_max if walk.max_seen is None else max(walk.max_seen, page_max)
        walk.last_page_full = len(page) == page_size

        if (
            not walk.last_page_full
            or (walk.delta is not None and walk.seen >= walk.delta)
            or walk.seen >= TIMELINE_DEPTH
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
        cap_hit = walk.seen >= TIMELINE_DEPTH and (
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
            a = RATE_EMA_ALPHA
            est = a * observed + (1 - a) * state.est_rate
        state = _updated(
            state,
            first_seen_tweet=first,
            last_seen_tweet=last,
            first_crawled_at=now if state.first_crawled_at is None else state.first_crawled_at,
            last_crawled_at=now,
            cap_reached=state.cap_reached or cap_hit,
            profile_fetched_at=now if walk.fetched_profile else state.profile_fetched_at,
            est_rate=est,
        )
        self.store.put_crawl_state(state)
        self._stale.push(walk.user)
        self._push_expected(walk.user, state)
        if walk.fetched_profile:
            # the new stamp supersedes the user's profiles-queue entry
            self._scans["profiles"].queue.push(walk.user)

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
        if cls.retweet_seed(len(tweets)):
            self.track_user(candidate, self.clock.now())
            del self._evidence[candidate]

    def _resolve(self, tid: TweetId, tweet: Tweet) -> None:
        """Settle the pending reference to tid, whose tweet is now stored."""
        ref = self._pending.pop(tid)
        if ref.gone_at is not None:
            self.store.discard_gone_ref(ref.author, tid)
        for referencer, kind in sorted(ref.referencers):
            self._note_evidence(tweet, referencer, kind)

    def _step_lookup(self) -> bool:
        now = self.clock.now()
        while self._gone_retry and self._gone_retry[0][0] <= now:
            _, tid = heapq.heappop(self._gone_retry)
            if tid in self._pending:
                self._lookup_queue.append(tid)
        if not self._lookup_queue or now < self._lookup_wait:
            return False
        batch_size = self._page(Endpoint.STATUSES_LOOKUP)
        batch: list[TweetId] = []
        while self._lookup_queue and len(batch) < batch_size:
            tid = self._lookup_queue.popleft()
            ref = self._pending.get(tid)
            if ref is None or tid in batch:
                continue
            stored = self.store.get_tweet(tid)
            if stored is not None:
                self._resolve(tid, stored)  # a timeline walk got there first
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
            # counted in the request log; the batch waits for the next window,
            # and a reference that failed before is answered GONE instead
            self._lookup_wait = _next_window(now)
            retry = [tid for tid in batch if not self._pending[tid].errored]
            for tid in batch:
                ref = self._pending[tid]
                if ref.errored:
                    self._gone(tid, ref, now)
                ref.errored = True
            self._lookup_queue.extendleft(reversed(retry))
            return True
        for tid in batch:
            result = results.get(tid, GONE)
            if isinstance(result, LookupHit):
                self.store.put_tweet(result.tweet)
                self.store.put_snapshot(result.author)
                self._resolve(tid, result.tweet)
            else:
                self._gone(tid, self._pending[tid], now)
        return True

    def _gone(self, tid: TweetId, ref: _PendingRef, now: Timestamp) -> None:
        if ref.gone_at is None:
            # first failure: record now, retry once later
            ref.gone_at = now
            self.store.add_gone_ref(ref.author, tid)
            heapq.heappush(self._gone_retry, (now + GONE_RETRY_AFTER, tid))
        else:
            del self._pending[tid]  # second failure is final

    # -- per-user scan loops: follow, favorites, lists, profiles -------------------------

    def _step_scan(self, name: str) -> bool:
        loop = self._scans[name]
        now = self.clock.now()
        walk = loop.walk
        if walk is None:
            u = loop.queue.peek(now)
            if u is None:
                return False
            walk = _ScanWalk(u)
            if loop.paged:
                loop.queue.pop(now)
                loop.walk = walk
        endpoint = loop.endpoints[walk.phase]
        status, result = self._request(endpoint, walk.user, lambda: loop.fetch(endpoint, walk))
        if status == _BLOCKED:
            return False
        if not loop.paged:
            loop.queue.pop(now)
        if status == _ERR:
            loop.walk = None
            self._on_error(walk.user, result, loop.queue)
            return True
        walk.cursor = loop.take(walk, result)
        if walk.cursor is None:
            walk.phase += 1
            if walk.phase == len(loop.endpoints):
                loop.walk = None
                loop.commit(walk)
                loop.queue.push(walk.user)
        return True

    def _stamp(self, stamp: str, walk: _ScanWalk) -> None:
        state = self.store.get_crawl_state(walk.user)
        self.store.put_crawl_state(_updated(state, **{stamp: self.clock.now()}))

    def _take_follow(self, walk: _ScanWalk, result) -> int | None:
        items, nxt = result
        if walk.phase == 0:
            walk.ids.extend(items)
        else:
            for s in items:
                self.store.put_snapshot(s)
        return nxt

    def _commit_follow(self, kind: str, walk: _ScanWalk) -> None:
        now = self.clock.now()
        for v in walk.ids:
            src, dst = (walk.user, v) if kind == "friends" else (v, walk.user)
            self.store.append_follow(FollowEdge(src=src, dst=dst, observed_at=now))
        self.store.record_follow_scan(FollowScan(kind=kind, subject=walk.user, at=now))
        self._stamp(f"{kind}_scanned_at", walk)

    def _take_favorites(self, walk: _ScanWalk, page) -> int | None:
        for rec in page:
            if self.store.has_favorite(rec.user, rec.tweet):
                walk.known += 1
            else:
                self.store.put_favorite(rec)
        # keep descending past known likes: older new ones may hide below,
        # until enough known history proves the rest was covered before
        if (
            len(page) < self._page(Endpoint.FAVORITES_LIST)
            or walk.known >= FAVORITES_KNOWN_STOP
        ):
            return None
        return min(r.tweet for r in page) - 1

    def _take_lists(self, kind: str, walk: _ScanWalk, records) -> None:
        now = self.clock.now()
        for record in records:
            self.store.put_list(record)
            if kind == "memberships":
                self.store.put_membership(
                    ListMembership(list_id=record.id, member=walk.user, observed_at=now)
                )
            elif kind == "subscriptions":
                self.store.put_subscription(
                    ListSubscription(list_id=record.id, subscriber=walk.user, observed_at=now)
                )
            if record.id not in self._lists_seen:
                self._lists_seen.add(record.id)
                self._member_queue.append(record.id)

    def _commit_lists(self, scan_at: dict[UserId, Timestamp], walk: _ScanWalk) -> None:
        scan_at[walk.user] = self.clock.now()

    def _take_profile(self, walk: _ScanWalk, snap) -> None:
        self.store.put_snapshot(snap)

    def _step_lists(self) -> bool:
        for _ in range(4):
            phase = ("memberships", "ownerships", "subscriptions", "members")[
                self._list_phase
            ]
            self._list_phase = (self._list_phase + 1) % 4
            if phase == "members":
                if self._step_list_members():
                    return True
            elif self._step_scan(phase):
                return True
        return False

    def _step_list_members(self) -> bool:
        now = self.clock.now()
        while self._member_retry and self._member_retry[0][0] <= now:
            self._member_queue.append(self._member_retry.popleft()[1])
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
            # a vanished list is dropped; any other failure restarts the list
            # at the back of the queue once the next budget window opens
            self._member_queue.popleft()
            self._member_cursor = None
            if not isinstance(result, ListNotFound):
                self._member_retry.append((_next_window(now), list_id))
            return True
        ids, nxt = result
        for member in ids:
            self.store.put_membership(
                ListMembership(list_id=list_id, member=member, observed_at=now)
            )
        self._member_cursor = nxt
        if nxt is None:
            self._member_queue.popleft()
        return True

    # -- trends / stream / classify ----------------------------------------------------------

    def _step_trends(self) -> bool:
        now = self.clock.now()
        for place in self.cfg.places:
            last = self._last_trend.get(place)
            if last is not None and now - last < TRENDS_PERIOD:
                continue
            status, snap = self._request(
                Endpoint.TRENDS_PLACE, place, lambda: self.api.trends_place(place)
            )
            if status == _BLOCKED:
                return False
            self._last_trend[place] = now
            if status == _OK:
                self.store.put_trend(snap)
            return True
        return False

    def _step_stream(self) -> bool:
        now = self.clock.now()
        if self._last_stream is not None and now - self._last_stream < STREAM_PERIOD:
            return False
        status, tweets = self._request(
            Endpoint.STREAM_FILTER,
            len(self.keywords),
            lambda: self.api.stream_filter(self.keywords, STREAM_READ_SIZE),
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
        if self._last_classify is not None and now - self._last_classify < CLASSIFY_PERIOD:
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

    def _passes(self, steps, done: Callable[[], bool], until: float = math.inf) -> None:
        """Run passes of `steps` until done(), sleeping no later than `until`."""
        while not done():
            progressed = False
            for step in steps:
                if step():
                    progressed = True
            if not progressed:
                self.clock.sleep_until(min(_next_window(self.clock.now()), until))

    def run(self, until: Timestamp) -> None:
        """Crawl until the virtual clock reaches `until`. Callers wanting
        horizon-exact coverage follow up with drain(), after stopping the
        world if they can."""
        self._passes(self._steps, lambda: self.clock.now() >= until, until)

    def drain(self) -> None:
        """Classify, sweep the timeline of every crawlable user once, flush
        pending lookups; repeat until classification stops promoting anyone
        new, so nobody ends up tracked but unswept.

        In-flight walks finish first. The sweep walks in the "sweep" slot,
        beside the lookup step in run()'s pass loop: a blocked request waits
        for the next window, a failed one applies its class transition and is
        not retried, and a lookup batch that fails twice settles as gone."""
        for name in self._walks:
            step = partial(self._step_tweets, name)
            self._passes((step,), lambda: self._walks[name] is None)
        steps = (partial(self._step_tweets, "sweep"), self._step_lookup)
        swept: set[UserId] = set()
        while True:
            self._run_classification()
            self._sweep = deque(u for u in self.store.users_in_class(*CRAWLABLE) if u not in swept)
            swept.update(self._sweep)
            if self._drained():
                break
            self._passes(steps, self._drained)

    def _drained(self) -> bool:
        """Nothing to sweep, no sweep walk in flight, no lookup queued or due."""
        due = self._gone_retry and self._gone_retry[0][0] <= self.clock.now()
        return not (self._sweep or self._walks["sweep"] or self._lookup_queue or due)
