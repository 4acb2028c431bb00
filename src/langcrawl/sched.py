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
Under the roundrobin planner, kept as a baseline, both tweet walk slots visit
one cycle of users, and a walk's user goes back to its end however it ended.

Everything runs single-threaded against a virtual clock, in one pass loop
shared by run() and drain(): a pass gives every loop at most one API request,
and a pass where nothing progressed sleeps to the next window. drain()'s
final sweep is a third timeline-walk slot, fed with the crawlable users not
yet swept; a failed sweep walk applies its class transition and is not
retried. Walks keep their own cursor state, so a rate-limit block suspends
them mid-flight.

Crawler.state, a CrawlerState of plain values, is all a crawl keeps in
memory between two steps, except the limiter's windows, the request log and
the store. A fresh Crawler built on the same store, world and limiter
continues the crawl once handed it (`fresh.state = state`); without one, it
rebuilds its queues from the store's crawl states. Writing the state to a
file, to resume in a new process, is not done yet.
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

LIST_KINDS = ("memberships", "ownerships", "subscriptions")
_LIST_PHASES = (*LIST_KINDS, "members")  # the lists loop takes them in turn


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


@dataclass
class RevisitQueue:
    """Users due for a revisit, soonest first: a heap of (due, key, user).

    `key` is the user's scan stamp named `stamp` when the entry was pushed, -1
    before the first scan, and `due` is key + window (-1 for a user never
    scanned) unless the pusher names another moment. The crawler's _push,
    _peek and _pop keep the heap. Entries are totally ordered tuples, so which
    user pops when depends on the entries alone, not on the heap's layout.
    """

    stamp: str
    window: int = 0
    heap: list[tuple[Timestamp, Timestamp, UserId]] = field(default_factory=list)


@dataclass
class _PendingRef:
    author: UserId  # author of the referenced tweet, from the ref tuple
    referencers: set[tuple[UserId, str]]  # (referencing user, ref kind)
    gone_at: Timestamp | None = None  # first failed resolution
    errored: bool = False  # a lookup batch holding it raised


@dataclass
class _TimelineWalk:
    """One user visit: max-id descent from newest down to the last tweet seen
    previously, bounded by the platform's depth cap.

    After any full page the walk arms a stop count from a fresh profile
    snapshot: remaining = lifetime tweet_count minus tweets already stored in
    the covered id range. That ends a visit of exactly N full pages without
    paying for an empty probe page. The count can only overestimate (older
    uncovered history inflates it), so arming never terminates early.
    """

    user: UserId
    source: str  # the queue the user came from, which takes it back after a failure
    started_at: Timestamp
    first_seen: TweetId | None  # the covered id range before the visit
    since: TweetId | None
    seen: int = 0
    stored: int = 0
    min_seen: TweetId | None = None
    max_seen: TweetId | None = None
    delta: int | None = None
    last_page_full: bool = False
    fetched_profile: bool = False


@dataclass
class _ScanWalk:
    """One visit of a scan loop: the endpoint being paged, its cursor (a
    follow cursor or the favorites max_id), and what its last page needs."""

    user: UserId
    phase: int = 0
    cursor: int | None = None
    ids: list[UserId] = field(default_factory=list)  # follow: every id page
    known: int = 0  # favorites: likes already stored


@dataclass
class _ScanLoop:
    """A per-user loop that revisits every crawlable user a window after its
    last scan. A visit requests `endpoints` in turn, each until `take` has
    stored a page and returns no further cursor; then the scan is stamped and
    the user queued again. A paged visit holds its user from its start through
    rate-limit blocks; a one-request visit leaves its user queued until the
    request is granted."""

    endpoints: tuple[Endpoint, ...]
    take: Callable[[_ScanWalk, object], int | None]
    paged: bool = True


@dataclass
class CrawlerState:
    """A crawl's memory between two steps, as plain values (see the module docstring)."""

    queues: dict[str, RevisitQueue]  # the nine per-user revisit queues, by loop
    walks: dict[str, _TimelineWalk | None]  # the timeline-walk slots
    list_scan_at: dict[str, dict[UserId, Timestamp]]  # each list kind's scan stamps
    sweep: deque[UserId] = field(default_factory=deque)  # drain's users still to visit
    cycle: deque[UserId] = field(default_factory=deque)  # the roundrobin planner's users
    pending: dict[TweetId, _PendingRef] = field(default_factory=dict)
    lookup_queue: deque[TweetId] = field(default_factory=deque)
    lookup_wait: Timestamp = 0  # no lookup before this; set by a failed batch
    gone_retry: list[tuple[Timestamp, TweetId]] = field(default_factory=list)  # a heap
    evidence: dict[UserId, set[TweetId]] = field(default_factory=dict)
    scan_walks: dict[str, _ScanWalk] = field(default_factory=dict)  # paged visits in flight
    member_queue: deque[ListId] = field(default_factory=deque)
    member_cursor: int | None = None
    member_retry: deque[tuple[Timestamp, ListId]] = field(default_factory=deque)
    lists_seen: set[ListId] = field(default_factory=set)  # every list ever queued for members
    list_phase: int = 0
    last_trend: dict[str, Timestamp] = field(default_factory=dict)
    last_stream: Timestamp | None = None
    last_classify: Timestamp | None = None


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

        # The planner's one decision: the queue each timeline-walk slot pops
        # its users from. A tracked user joins each of these queues.
        slots = ("cycle", "cycle") if cfg.planner == "roundrobin" else ("expected", "stale")
        self._feeds = {"expected": slots[0], "stale": slots[1], "sweep": "sweep"}
        self._tweet_queues = tuple(dict.fromkeys(slots))

        # per-user scan loops: endpoints, take a page
        self._scans: dict[str, _ScanLoop] = {}
        for kind in ("friends", "followers"):
            endpoints = (Endpoint(f"{kind}_ids"), Endpoint(f"{kind}_list"))
            self._scans[kind] = _ScanLoop(endpoints, partial(self._take_follow, kind))
        self._scans["favorites"] = _ScanLoop((Endpoint.FAVORITES_LIST,), self._take_favorites)
        for kind in LIST_KINDS:
            take = partial(self._take_lists, kind)
            self._scans[kind] = _ScanLoop((Endpoint(f"lists_{kind}"),), take, paged=False)
        self._scans["profiles"] = _ScanLoop((Endpoint.USERS_SHOW,), self._take_profile, paged=False)

        # each queue names the stamp it is keyed on: a CrawlState field, or a
        # list kind whose stamps the state keeps in list_scan_at
        self.state = CrawlerState(
            {
                "expected": RevisitQueue("last_crawled_at"),
                "stale": RevisitQueue("last_crawled_at", cfg.min_staleness),
                "friends": RevisitQueue("friends_scanned_at", cfg.follow_recrawl_window),
                "followers": RevisitQueue("followers_scanned_at", cfg.follow_recrawl_window),
                "favorites": RevisitQueue("favorites_scanned_at", cfg.favorites_recrawl_window),
                **{kind: RevisitQueue(kind, cfg.lists_recrawl_window) for kind in LIST_KINDS},
                "profiles": RevisitQueue("profile_fetched_at", cfg.profile_refresh_window),
            },
            dict.fromkeys(("expected", "stale", "sweep")),
            {kind: {} for kind in LIST_KINDS},
        )
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

    def _request(self, endpoint: Endpoint, target, call: Callable):
        """Make one request if the limiter grants it, and log it."""
        now = self.clock.now()
        if isinstance(self.limiter.acquire(endpoint, now), RetryAfter):
            return _BLOCKED, None
        try:
            status, value, outcome = _OK, call(), _OK
        except ApiError as exc:
            status, value = _ERR, exc
            outcome, _ = _USER_ERRORS.get(type(exc), ("api_error", None))
        self.log.append(
            {"endpoint": endpoint.value, "target": target, "at": now, "outcome": outcome}
        )
        return status, value

    def _page(self, endpoint: Endpoint) -> int:
        return self.limiter.budgets[endpoint].page_size

    def _on_error(self, u: UserId, exc: ApiError, source: str) -> None:
        """The error policy of every per-user request: apply the class
        transition the error implies, then put u back in the revisit queue it
        came from, scan stamp unchanged, due when the next budget window
        opens. (_step_tweets puts a cycle walk's user back.)"""
        now = self.clock.now()
        _, new = _USER_ERRORS.get(type(exc), (None, None))
        if new is not None:
            self.store.set_class(u, new, now)
        if source in self.state.queues:
            self._push(source, u, due=_next_window(now))

    def _crawlable(self, u: UserId) -> bool:
        return self.store.user_class(u) in CRAWLABLE

    def _key(self, stamp: str, u: UserId) -> Timestamp:
        """u's scan stamp `stamp`, -1 before the first scan (0 is the epoch)."""
        scans = self.state.list_scan_at.get(stamp)
        at = getattr(self.store.crawl_states.get(u), stamp, None) if scans is None else scans.get(u)
        return -1 if at is None else at

    def _set_stamp(self, stamp: str, u: UserId) -> None:
        now = self.clock.now()
        if stamp in self.state.list_scan_at:
            self.state.list_scan_at[stamp][u] = now
        else:
            self.store.put_crawl_state(_updated(self.store.get_crawl_state(u), **{stamp: now}))

    def _push(self, name: str, u: UserId, due: Timestamp | None = None) -> None:
        queue = self.state.queues[name]
        key = self._key(queue.stamp, u)
        if due is None:
            due = key + queue.window if key >= 0 else -1
        heapq.heappush(queue.heap, (due, key, u))

    def _peek(self, name: str, now: Timestamp) -> UserId | None:
        """The front user of queue `name` if it is due at `now`, left queued.
        An entry whose key is no longer its user's stamp was superseded by a
        later scan, and it is dropped once it is at the front and due, as is a
        user no longer crawlable. Both are final (stamps only grow, and a user
        that stops being crawlable never becomes crawlable again), so an entry
        that is not yet due is not looked at."""
        queue = self.state.queues[name]
        heap = queue.heap
        while heap:
            due, key, u = heap[0]
            if due > now:
                return None
            if self._key(queue.stamp, u) == key and self._crawlable(u):
                return u
            heapq.heappop(heap)
        return None

    def _pop(self, name: str, now: Timestamp) -> UserId | None:
        """Remove and return the front user of queue `name` if it is due."""
        u = self._peek(name, now)
        if u is not None:
            heapq.heappop(self.state.queues[name].heap)
        return u

    def _queue_tweets(self, name: str, u: UserId) -> None:
        """Queue u for a timeline walk from the tweet queue `name`."""
        if name == "cycle":
            self.state.cycle.append(u)
        elif name == "expected":
            self._push_expected(u, self.store.get_crawl_state(u))
        else:
            self._push(name, u)

    def _enqueue_user(self, u: UserId) -> None:
        """Make a newly tracked user visible to every per-user loop."""
        for name in self._tweet_queues:
            self._queue_tweets(name, u)
        for name in self._scans:
            self._push(name, u)

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
            self._push("expected", u, due=eligible_at)

    def track_user(self, u: UserId, at: Timestamp) -> bool:
        if self.store.user_class(u) is not UserClass.UNKNOWN:
            return False
        self.store.set_class(u, UserClass.TRACKED, at)
        self._enqueue_user(u)
        return True

    # -- tweet crawl --------------------------------------------------------------

    def _pop_tweet_user(self, slot: str) -> UserId | None:
        st = self.state
        source = self._feeds[slot]
        if source == "sweep":
            return st.sweep.popleft() if st.sweep else None
        now = self.clock.now()
        walking = {walk.user for walk in st.walks.values() if walk is not None}
        if source == "cycle":
            for _ in range(len(st.cycle)):
                u = st.cycle.popleft()
                if not self._crawlable(u):
                    continue  # dropped users leave the cycle
                if u in walking:
                    st.cycle.append(u)
                    continue
                return u
            return None
        if source == "stale":
            u = self._peek("stale", now)
            if u is None or u in walking:
                return None  # nothing stale enough yet, or the front is busy: wait
            return self._pop("stale", now)
        while (u := self._pop("expected", now)) is not None:
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

    def _step_tweets(self, slot: str) -> bool:
        walks = self.state.walks
        walk = walks[slot]
        if walk is None:
            u = self._pop_tweet_user(slot)
            if u is None:
                return False
            st = self.store.get_crawl_state(u)
            walk = _TimelineWalk(
                u, self._feeds[slot], self.clock.now(), st.first_seen_tweet, st.last_seen_tweet
            )
            walks[slot] = walk
        status = self._walk_step(walk)
        if status == _BLOCKED:
            return False
        if status == "done":
            walks[slot] = None
            if walk.source == "cycle":  # back to its end however the walk ended
                self.state.cycle.append(walk.user)
        return True

    def _walk_step(self, walk: _TimelineWalk) -> str:
        if walk.last_page_full and walk.delta is None:  # arm the stop count
            snap = self.store.latest_snapshot(walk.user)
            if snap is None or snap.observed_at < walk.started_at:
                status, result = self._request(
                    Endpoint.USERS_SHOW, walk.user, lambda: self.api.users_show(walk.user)
                )
                if status == _BLOCKED:
                    return _BLOCKED
                if status == _ERR:
                    # state deliberately untouched: no progress lost
                    self._on_error(walk.user, result, walk.source)
                    return "done"
                self.store.put_snapshot(result)
                walk.fetched_profile = True
                snap = result
            walk.delta = max(
                snap.tweet_count
                - self.store.count_tweets_between(walk.user, walk.first_seen, walk.since),
                0,
            )
            if walk.seen >= walk.delta:
                self._finish_walk(walk)
                return "done"
            if walk.fetched_profile:
                return "progress"

        page_size = self._page(Endpoint.USER_TIMELINE)
        max_id = None if walk.min_seen is None else walk.min_seen - 1  # below the pages seen
        status, page = self._request(
            Endpoint.USER_TIMELINE,
            walk.user,
            lambda: self.api.user_timeline(
                walk.user, since=walk.since, max_id=max_id, count=page_size
            ),
        )
        if status == _BLOCKED:
            return _BLOCKED
        if status == _ERR:
            self._on_error(walk.user, page, walk.source)
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
        # the new stamps supersede the user's entries (_step_tweets refills the cycle)
        for name in self._tweet_queues:
            if name != "cycle":
                self._queue_tweets(name, walk.user)
        if walk.fetched_profile:
            self._push("profiles", walk.user)

    # -- lookups -------------------------------------------------------------------

    def _register_refs(self, t: Tweet) -> None:
        for kind, tid, author in tweet_refs(t):
            existing = self.store.get_tweet(tid)
            if existing is not None:
                self._note_evidence(existing, t.author, kind)
                continue
            ref = self.state.pending.get(tid)
            if ref is None:
                self.state.pending[tid] = _PendingRef(author, {(t.author, kind)})
                self.state.lookup_queue.append(tid)
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
        tweets = self.state.evidence.setdefault(candidate, set())
        tweets.add(original.id)
        if cls.retweet_seed(len(tweets)):
            self.track_user(candidate, self.clock.now())
            del self.state.evidence[candidate]

    def _resolve(self, tid: TweetId, tweet: Tweet) -> None:
        """Settle the pending reference to tid, whose tweet is now stored."""
        ref = self.state.pending.pop(tid)
        if ref.gone_at is not None:
            self.store.discard_gone_ref(ref.author, tid)
        for referencer, kind in sorted(ref.referencers):
            self._note_evidence(tweet, referencer, kind)

    def _step_lookup(self) -> bool:
        st = self.state
        now = self.clock.now()
        while st.gone_retry and st.gone_retry[0][0] <= now:
            _, tid = heapq.heappop(st.gone_retry)
            if tid in st.pending:
                st.lookup_queue.append(tid)
        if not st.lookup_queue or now < st.lookup_wait:
            return False
        batch_size = self._page(Endpoint.STATUSES_LOOKUP)
        batch: list[TweetId] = []
        while st.lookup_queue and len(batch) < batch_size:
            tid = st.lookup_queue.popleft()
            ref = st.pending.get(tid)
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
            st.lookup_queue.extendleft(reversed(batch))
            return False
        if status == _ERR:
            # counted in the request log; the batch waits for the next window,
            # and a reference that failed before is answered GONE instead
            st.lookup_wait = _next_window(now)
            retry = [tid for tid in batch if not st.pending[tid].errored]
            for tid in batch:
                ref = st.pending[tid]
                if ref.errored:
                    self._gone(tid, ref, now)
                ref.errored = True
            st.lookup_queue.extendleft(reversed(retry))
            return True
        for tid in batch:
            result = results.get(tid, GONE)
            if isinstance(result, LookupHit):
                self.store.put_tweet(result.tweet)
                self.store.put_snapshot(result.author)
                self._resolve(tid, result.tweet)
            else:
                self._gone(tid, st.pending[tid], now)
        return True

    def _gone(self, tid: TweetId, ref: _PendingRef, now: Timestamp) -> None:
        if ref.gone_at is None:
            # first failure: record now, retry once later
            ref.gone_at = now
            self.store.add_gone_ref(ref.author, tid)
            heapq.heappush(self.state.gone_retry, (now + GONE_RETRY_AFTER, tid))
        else:
            del self.state.pending[tid]  # second failure is final

    # -- per-user scan loops: follow, favorites, lists, profiles -------------------------

    def _step_scan(self, name: str) -> bool:
        loop = self._scans[name]
        walks = self.state.scan_walks
        now = self.clock.now()
        walk = walks.get(name)
        if walk is None:
            u = self._peek(name, now)
            if u is None:
                return False
            walk = _ScanWalk(u)
            if loop.paged:
                self._pop(name, now)
                walks[name] = walk
        endpoint = loop.endpoints[walk.phase]
        status, result = self._request(endpoint, walk.user, lambda: self._fetch(endpoint, walk))
        if status == _BLOCKED:
            return False
        if not loop.paged:
            self._pop(name, now)
        if status == _ERR:
            walks.pop(name, None)
            self._on_error(walk.user, result, name)
            return True
        walk.cursor = loop.take(walk, result)
        if walk.cursor is None:
            walk.phase += 1
            if walk.phase == len(loop.endpoints):
                walks.pop(name, None)
                self._set_stamp(self.state.queues[name].stamp, walk.user)
                self._push(name, walk.user)
        return True

    def _fetch(self, e: Endpoint, walk: _ScanWalk):
        """A scan visit's next page: favorites below the max_id cursor, any
        other paged endpoint by its cursor once it has one."""
        call = getattr(self.api, e.value)
        if e is Endpoint.FAVORITES_LIST:
            return call(walk.user, max_id=walk.cursor, count=self._page(e))
        return call(walk.user) if walk.cursor is None else call(walk.user, cursor=walk.cursor)

    def _take_follow(self, kind: str, walk: _ScanWalk, result) -> int | None:
        items, nxt = result
        if walk.phase == 0:
            walk.ids.extend(items)
            return nxt
        for s in items:
            self.store.put_snapshot(s)
        if nxt is None:  # the visit's last page: record the edges its id pages named
            now = self.clock.now()
            for v in walk.ids:
                src, dst = (walk.user, v) if kind == "friends" else (v, walk.user)
                self.store.append_follow(FollowEdge(src=src, dst=dst, observed_at=now))
            self.store.record_follow_scan(FollowScan(kind=kind, subject=walk.user, at=now))
        return nxt

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
            if record.id not in self.state.lists_seen:
                self.state.lists_seen.add(record.id)
                self.state.member_queue.append(record.id)

    def _take_profile(self, walk: _ScanWalk, snap) -> None:
        self.store.put_snapshot(snap)

    def _step_lists(self) -> bool:
        st = self.state
        for _ in range(4):
            phase = _LIST_PHASES[st.list_phase]
            st.list_phase = (st.list_phase + 1) % 4
            if self._step_list_members() if phase == "members" else self._step_scan(phase):
                return True
        return False

    def _step_list_members(self) -> bool:
        st = self.state
        now = self.clock.now()
        while st.member_retry and st.member_retry[0][0] <= now:
            st.member_queue.append(st.member_retry.popleft()[1])
        if not st.member_queue:
            return False
        list_id = st.member_queue[0]
        status, result = self._request(
            Endpoint.LISTS_MEMBERS,
            list_id,
            lambda: self.api.lists_members(list_id, cursor=st.member_cursor),
        )
        if status == _BLOCKED:
            return False
        if status == _ERR:
            # a vanished list is dropped; any other failure restarts the list
            # at the back of the queue once the next budget window opens
            st.member_queue.popleft()
            st.member_cursor = None
            if not isinstance(result, ListNotFound):
                st.member_retry.append((_next_window(now), list_id))
            return True
        ids, nxt = result
        for member in ids:
            self.store.put_membership(
                ListMembership(list_id=list_id, member=member, observed_at=now)
            )
        st.member_cursor = nxt
        if nxt is None:
            st.member_queue.popleft()
        return True

    # -- trends / stream / classify ----------------------------------------------------------

    def _step_trends(self) -> bool:
        now = self.clock.now()
        last_trend = self.state.last_trend
        for place in self.cfg.places:
            last = last_trend.get(place)
            if last is not None and now - last < TRENDS_PERIOD:
                continue
            status, snap = self._request(
                Endpoint.TRENDS_PLACE, place, lambda: self.api.trends_place(place)
            )
            if status == _BLOCKED:
                return False
            last_trend[place] = now
            if status == _OK:
                self.store.put_trend(snap)
            return True
        return False

    def _step_stream(self) -> bool:
        now = self.clock.now()
        if self.state.last_stream is not None and now - self.state.last_stream < STREAM_PERIOD:
            return False
        status, tweets = self._request(
            Endpoint.STREAM_FILTER,
            len(self.keywords),
            lambda: self.api.stream_filter(self.keywords, STREAM_READ_SIZE),
        )
        if status == _BLOCKED:
            return False
        self.state.last_stream = now
        if status == _ERR:
            return True
        for t in tweets:
            self.store.put_tweet(t)
            self._register_refs(t)
            self.track_user(t.author, now)
        return True

    def _step_classify(self) -> bool:
        now = self.clock.now()
        last = self.state.last_classify
        if last is not None and now - last < CLASSIFY_PERIOD:
            return False
        self._run_classification()
        return True

    def _run_classification(self) -> cls.ClassificationReport:
        now = self.clock.now()
        self.state.last_classify = now
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
        for name in self.state.walks:
            step = partial(self._step_tweets, name)
            self._passes((step,), lambda: self.state.walks[name] is None)
        steps = (partial(self._step_tweets, "sweep"), self._step_lookup)
        swept: set[UserId] = set()
        while True:
            self._run_classification()
            st = self.state
            st.sweep = deque(u for u in self.store.users_in_class(*CRAWLABLE) if u not in swept)
            swept.update(st.sweep)
            if self._drained():
                break
            self._passes(steps, self._drained)

    def _drained(self) -> bool:
        """Nothing to sweep, no sweep walk in flight, no lookup queued or due."""
        st = self.state
        due = st.gone_retry and st.gone_retry[0][0] <= self.clock.now()
        return not (st.sweep or st.walks["sweep"] or st.lookup_queue or due)
