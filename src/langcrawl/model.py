"""Domain records shared by the crawler, the store and the miners.

Everything here is an immutable value: records are frozen dataclasses with
tuple fields, timestamps are UTC epoch seconds (int), and ids are positive
64-bit ints. Tweet ids are assigned so that id order equals creation order,
which the paging and interval code relies on throughout.
"""
from __future__ import annotations

import enum
import json
from dataclasses import dataclass, fields
from functools import cache
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Callable, get_args, get_origin, get_type_hints

UserId = int
TweetId = int
ListId = int
Timestamp = int

MAX_ID = (1 << 64) - 1


class TweetError(ValueError):
    """Base for raw-tweet validation failures."""


class MissingField(TweetError):
    pass


class NonPositiveId(TweetError):
    pass


class SelfReference(TweetError):
    pass


class UserClass(enum.Enum):
    """Crawl status of a user account.

    Unknown: merely referenced, never tracked. Tracked: being crawled but not
    yet classified. Target: confirmed member of the target language community
    (sticky). Stopped: confirmed outsider, never crawled or re-seeded again.
    Suspended/Dead/Protected mirror what the platform reports.
    """

    UNKNOWN = "unknown"
    TRACKED = "tracked"
    TARGET = "target"
    STOPPED = "stopped"
    SUSPENDED = "suspended"
    DEAD = "dead"
    PROTECTED = "protected"


CRAWLABLE = (UserClass.TRACKED, UserClass.TARGET)  # the classes the crawler visits


def _record(cls: type) -> type:
    """A frozen, slotted dataclass whose __init__ sets each slot directly.

    The __init__ that dataclasses writes for a frozen class calls
    object.__setattr__ once per field. Setting the slots through their
    descriptors builds the same object about three times faster, and the
    crawl makes one record per tweet, profile, edge and state change.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    names = [f.name for f in fields(cls)]
    scope = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    body = "".join(f"    _set_{name}(self, {name})\n" for name in names)
    exec(f"def __init__(self, {', '.join(names)}):\n{body}", scope)
    init = scope["__init__"]
    init.__defaults__ = cls.__init__.__defaults__
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


@_record
class UserSnapshot:
    """One observation of a user profile at a point in time."""

    id: UserId
    screen_name: str
    name: str
    bio: str
    location: str
    time_zone: str
    ui_lang: str
    profile_url: str
    created_at: Timestamp
    tweet_count: int
    followers_count: int
    friends_count: int
    favourites_count: int
    protected: bool
    verified: bool
    observed_at: Timestamp


@_record
class Tweet:
    id: TweetId
    author: UserId
    created_at: Timestamp
    text: str
    lang: str  # "und" when the platform could not tell
    retweet_of: tuple[TweetId, UserId] | None = None
    reply_to: tuple[TweetId, UserId] | None = None
    quote_of: tuple[TweetId, UserId] | None = None
    mentions: tuple[UserId, ...] = ()
    hashtags: tuple[str, ...] = ()
    urls: tuple[tuple[str, str], ...] = ()  # (short, expanded)
    source_client: str = ""
    truncated: bool = False


@_record
class FollowEdge:
    src: UserId  # follower
    dst: UserId  # followee
    observed_at: Timestamp


@_record
class FollowScan:
    """Marker for one completed friends/followers enumeration.

    kind is "friends" or "followers"; subject is the user whose neighbor set
    was enumerated. Needed to give the append-only edge log scan boundaries.
    """

    kind: str
    subject: UserId
    at: Timestamp


@_record
class ListRecord:
    id: ListId
    owner: UserId
    name: str
    member_count: int
    created_at: Timestamp


@_record
class ListMembership:
    list_id: ListId
    member: UserId
    observed_at: Timestamp


@_record
class ListSubscription:
    list_id: ListId
    subscriber: UserId
    observed_at: Timestamp


@_record
class FavoriteRecord:
    user: UserId  # who pressed like
    tweet: TweetId
    tweet_author: UserId
    observed_at: Timestamp


@_record
class TrendSnapshot:
    place: str
    observed_at: Timestamp
    trends: tuple[str, ...] = ()


@_record
class CrawlState:
    """Per-user crawl bookkeeping. Updated by replacement, never in place."""

    user: UserId
    first_seen_tweet: TweetId | None = None
    last_seen_tweet: TweetId | None = None
    first_crawled_at: Timestamp | None = None
    last_crawled_at: Timestamp | None = None
    cap_reached: bool = False
    profile_fetched_at: Timestamp | None = None
    avatar_fetched_at: Timestamp | None = None  # bookkeeping only, never fetched
    favorites_scanned_at: Timestamp | None = None
    friends_scanned_at: Timestamp | None = None
    followers_scanned_at: Timestamp | None = None
    est_rate: float = 0.0  # tweets per day


@_record
class ClassTransition:
    user: UserId
    old: UserClass
    new: UserClass
    at: Timestamp


def tweet_refs(t: Tweet) -> list[tuple[str, TweetId, UserId]]:
    """All (kind, tweet id, user id) references carried by one tweet.

    A tweet can be simultaneously a retweet, a reply and a quote; each slot is
    reported independently, so the result holds at most three entries.
    """
    out = []
    if t.retweet_of is not None:
        out.append(("retweet", t.retweet_of[0], t.retweet_of[1]))
    if t.reply_to is not None:
        out.append(("reply", t.reply_to[0], t.reply_to[1]))
    if t.quote_of is not None:
        out.append(("quote", t.quote_of[0], t.quote_of[1]))
    return out


def _check_id(value: Any, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise NonPositiveId(f"{what} must be an int, got {value!r}")
    if not 0 < value <= MAX_ID:
        raise NonPositiveId(f"{what} out of range: {value}")
    return value


_REQUIRED = ("id", "author", "created_at", "text", "lang")
_REF_FIELDS = ("retweet_of", "reply_to", "quote_of")


def validate_tweet(raw: dict) -> Tweet:
    """Build a Tweet from a raw dict, rejecting malformed records.

    Raises MissingField if any of id/author/created_at/text/lang is absent,
    NonPositiveId for ids outside (0, 2^64), and SelfReference when a tweet
    points at itself.
    """
    for name in _REQUIRED:
        if raw.get(name) is None:
            raise MissingField(f"tweet record lacks {name!r}")
    tid = _check_id(raw["id"], "tweet id")
    author = _check_id(raw["author"], "author id")
    refs = {}
    for name in _REF_FIELDS:
        ref = raw.get(name)
        if ref is None:
            refs[name] = None
            continue
        ref_tweet = _check_id(ref[0], f"{name} tweet id")
        ref_user = _check_id(ref[1], f"{name} user id")
        if ref_tweet == tid:
            raise SelfReference(f"tweet {tid} {name} itself")
        refs[name] = (ref_tweet, ref_user)
    mentions = tuple(_check_id(m, "mention user id") for m in raw.get("mentions", ()))
    return Tweet(
        id=tid,
        author=author,
        created_at=int(raw["created_at"]),
        text=str(raw["text"]),
        lang=str(raw["lang"]),
        retweet_of=refs["retweet_of"],
        reply_to=refs["reply_to"],
        quote_of=refs["quote_of"],
        mentions=mentions,
        hashtags=tuple(raw.get("hashtags", ())),
        urls=tuple((s, e) for s, e in raw.get("urls", ())),
        source_client=str(raw.get("source_client", "")),
        truncated=bool(raw.get("truncated", False)),
    )


# -- JSON-lines mapping ------------------------------------------------------
#
# Records serialize to flat dicts whose keys are exactly the dataclass field
# names. Tuples become lists, enums their value; from_record reverses both.
# Each class gets one encoder and one decoder, built from its field types on
# first use, so no record pays for reflection.


def _field_codec(hint: Any) -> tuple[Callable, Callable] | None:
    """(encode, decode) for a field of type `hint`, or None when its JSON
    form is the value itself."""
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return attrgetter("value"), hint
    args = get_args(hint)
    if type(None) in args:  # X | None
        inner = _field_codec(args[0])
        if inner is None:
            return None
        enc, dec = inner
        return (
            lambda v: None if v is None else enc(v),
            lambda v: None if v is None else dec(v),
        )
    if get_origin(hint) is tuple:  # of one element type
        inner = _field_codec(args[0])
        if inner is None:
            return list, tuple
        enc, dec = inner
        return lambda v: [enc(x) for x in v], lambda v: tuple(map(dec, v))
    return None


@cache
def _codecs(cls: type) -> tuple[Callable[[Any], dict], Callable[[dict], Any]]:
    hints = get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    convs = [(i, _field_codec(hints[name])) for i, name in enumerate(names)]
    convs = [(i, codec) for i, codec in convs if codec is not None]
    get_attrs, get_items = attrgetter(*names), itemgetter(*names)

    def encode(obj: Any) -> dict:
        values = list(get_attrs(obj))
        for i, (enc, _) in convs:
            values[i] = enc(values[i])
        return dict(zip(names, values))

    def decode(rec: dict) -> Any:
        values = list(get_items(rec))
        for i, (_, dec) in convs:
            values[i] = dec(values[i])
        return cls(*values)

    return encode, decode


def to_record(obj: Any) -> dict:
    return _codecs(type(obj))[0](obj)


def from_record(cls: type, rec: dict) -> Any:
    return _codecs(cls)[1](rec)


def load_config(cls: type, path: str | Path) -> Any:
    """The config dataclass `cls` from a JSON object of its field names.

    A field left out keeps its default; a key that names no field is
    refused. Tuple fields are read from JSON lists, nested ones too.
    """
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    hints = get_type_hints(cls)
    for name, value in raw.items():
        codec = _field_codec(hints[name])
        if codec is not None:
            raw[name] = codec[1](value)
    return cls(**raw)
