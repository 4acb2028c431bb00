"""Platform API contract: endpoints, page sizes, failures, fixed-window budgets.

Every data source (the synthetic world today, a live adapter someday) exposes
the same endpoint surface, one DataSource method per Endpoint value; every
consumer must hold a permit from RateLimiter before touching an endpoint.
Budgets use fixed 900-second windows aligned to multiples of 900 since the
epoch, matching how platform quotas reset; a Budget sets only a request
allowance. The page sizes the platform serves are fixed, like WINDOW, and
live in PAGE_SIZE. Each ApiError class names, in `outcome`, the word a
request log records for its failure, on the crawler's side and the world's.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Protocol, Union

from .model import (
    FavoriteRecord,
    ListId,
    ListRecord,
    Timestamp,
    TrendSnapshot,
    Tweet,
    TweetId,
    UserId,
    UserSnapshot,
)

WINDOW = 900  # seconds; fixed by the platform, not configurable
TIMELINE_DEPTH = 3200  # most recent tweets a timeline serves; fixed by the platform


class Endpoint(enum.Enum):
    USER_TIMELINE = "user_timeline"
    STATUSES_LOOKUP = "statuses_lookup"
    USERS_SHOW = "users_show"
    FRIENDS_IDS = "friends_ids"
    FRIENDS_LIST = "friends_list"
    FOLLOWERS_IDS = "followers_ids"
    FOLLOWERS_LIST = "followers_list"
    FAVORITES_LIST = "favorites_list"
    LISTS_MEMBERSHIPS = "lists_memberships"
    LISTS_OWNERSHIPS = "lists_ownerships"
    LISTS_SUBSCRIPTIONS = "lists_subscriptions"
    LISTS_MEMBERS = "lists_members"
    TRENDS_PLACE = "trends_place"
    STREAM_FILTER = "stream_filter"


# Most items one page serves, for each endpoint whose page size is read.
PAGE_SIZE: dict[Endpoint, int] = {
    Endpoint.USER_TIMELINE: 200,
    Endpoint.STATUSES_LOOKUP: 100,
    Endpoint.FRIENDS_IDS: 5000,
    Endpoint.FRIENDS_LIST: 200,
    Endpoint.FOLLOWERS_IDS: 5000,
    Endpoint.FOLLOWERS_LIST: 200,
    Endpoint.FAVORITES_LIST: 200,
    Endpoint.LISTS_MEMBERS: 5000,
}


class ApiError(Exception):
    """Base for endpoint failures that carry crawl-state meaning."""

    outcome = "api_error"  # the request log's word for this failure


class UserNotFound(ApiError):
    outcome = "not_found"


class UserProtected(ApiError):
    outcome = "protected"


class UserSuspended(ApiError):
    outcome = "suspended"


class ListNotFound(ApiError):
    outcome = "not_found"


class PlaceUnknown(ApiError):
    outcome = "unknown"


@dataclass(frozen=True, slots=True)
class Budget:
    endpoint: Endpoint
    max_requests: int


# max_requests per 900 s window.
DEFAULT_BUDGETS: dict[Endpoint, Budget] = {
    b.endpoint: b
    for b in (
        Budget(Endpoint.USER_TIMELINE, 900),
        Budget(Endpoint.STATUSES_LOOKUP, 900),
        Budget(Endpoint.USERS_SHOW, 900),
        Budget(Endpoint.FRIENDS_IDS, 15),
        Budget(Endpoint.FRIENDS_LIST, 15),
        Budget(Endpoint.FOLLOWERS_IDS, 15),
        Budget(Endpoint.FOLLOWERS_LIST, 15),
        Budget(Endpoint.FAVORITES_LIST, 75),
        Budget(Endpoint.LISTS_MEMBERSHIPS, 75),
        Budget(Endpoint.LISTS_OWNERSHIPS, 15),
        Budget(Endpoint.LISTS_SUBSCRIPTIONS, 15),
        Budget(Endpoint.LISTS_MEMBERS, 900),
        Budget(Endpoint.TRENDS_PLACE, 75),
        Budget(Endpoint.STREAM_FILTER, 5),
    )
}


@dataclass(frozen=True, slots=True)
class Granted:
    pass


@dataclass(frozen=True, slots=True)
class RetryAfter:
    duration: int  # seconds until the current window rolls over


GRANTED = Granted()


class RateLimiter:
    """Fixed-window request accounting, one counter per endpoint.

    acquire() either grants (and charges) one request or reports how long the
    caller must wait for the window to roll. Windows are aligned: the window
    holding time t spans [t - t % 900, t - t % 900 + 900).
    """

    def __init__(self, budgets: dict[Endpoint, Budget] | None = None) -> None:
        self.budgets = dict(budgets or DEFAULT_BUDGETS)
        self._used: dict[Endpoint, tuple[int, int]] = {}  # endpoint -> (window index, count)

    def acquire(self, e: Endpoint, now: Timestamp) -> Granted | RetryAfter:
        budget = self.budgets[e]
        index = now // WINDOW
        window, used = self._used.get(e, (index, 0))
        if window != index:
            used = 0
        if used < budget.max_requests:
            self._used[e] = (index, used + 1)
            return GRANTED
        return RetryAfter(duration=(index + 1) * WINDOW - now)


class Gone:
    """Sentinel for a looked-up tweet the platform will not serve."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover
        return "Gone"


GONE = Gone()


@dataclass(frozen=True, slots=True)
class LookupHit:
    tweet: Tweet
    author: UserSnapshot


LookupResult = Union[LookupHit, Gone]

# Cursors are opaque ints; None starts an enumeration, and a None next_cursor
# in the result means the enumeration is complete.
Cursor = Union[int, None]


class DataSource(Protocol):
    """The endpoint surface a crawler consumes.

    Implementations raise UserNotFound / UserProtected / UserSuspended so the
    scheduler can distinguish dead, private and banned accounts; they never
    rate limit by themselves (that is the caller's RateLimiter's job).
    """

    def user_timeline(
        self,
        u: UserId,
        since: TweetId | None = None,
        max_id: TweetId | None = None,
        count: int = PAGE_SIZE[Endpoint.USER_TIMELINE],
    ) -> list[Tweet]:
        """Newest-first page of u's tweets with since < id <= max_id.

        Never serves tweets deeper than u's 3200 most recent.
        """
        ...

    def statuses_lookup(self, ids: Iterable[TweetId]) -> dict[TweetId, LookupResult]:
        """Resolve up to 100 tweet ids to full tweets with author profiles."""
        ...

    def users_show(self, u: UserId) -> UserSnapshot:
        ...

    def friends_ids(self, u: UserId, cursor: Cursor = None) -> tuple[list[UserId], Cursor]:
        ...

    def friends_list(
        self, u: UserId, cursor: Cursor = None
    ) -> tuple[list[UserSnapshot], Cursor]:
        ...

    def followers_ids(self, u: UserId, cursor: Cursor = None) -> tuple[list[UserId], Cursor]:
        ...

    def followers_list(
        self, u: UserId, cursor: Cursor = None
    ) -> tuple[list[UserSnapshot], Cursor]:
        ...

    def favorites_list(
        self,
        u: UserId,
        max_id: TweetId | None = None,
        count: int = PAGE_SIZE[Endpoint.FAVORITES_LIST],
    ) -> list[FavoriteRecord]:
        """Likes ordered by the liked tweet's creation date, newest first."""
        ...

    def lists_memberships(self, u: UserId) -> list[ListRecord]:
        ...

    def lists_ownerships(self, u: UserId) -> list[ListRecord]:
        ...

    def lists_subscriptions(self, u: UserId) -> list[ListRecord]:
        ...

    def lists_members(self, list_id: ListId, cursor: Cursor = None) -> tuple[list[UserId], Cursor]:
        ...

    def trends_place(self, place: str) -> TrendSnapshot:
        ...

    def stream_filter(self, keywords: Iterable[str], budget: int) -> list[Tweet]:
        """Sample of fresh tweets whose text contains any keyword (case-insensitive)."""
        ...
