"""Embedded document store for crawl output.

One process, in-memory collections, JSON-lines import/export. No external
database: the whole point of the design is that a single machine can hold a
mid-sized language community. The process is single-threaded by design, so
no write takes a lock.

A saved store is a directory of one JSON-lines file per collection. `save`
writes them all into the sibling `<dir>.tmp/` and swaps it in by two
renames, the old directory going aside as `<dir>.old/` until it is removed;
`load` finishes a swap that a dying process left half done, so a crash
mid-save leaves the old store or the new one, never a mix of the two.

The table `Store.COLLECTIONS` is where a collection is defined: one row
each, in saved order, naming the attribute that holds it, its record class,
the method `load` inserts each record with and the fields `export
--ids-only` keeps. `save` walks a dict attribute by ascending key and a list
in its own order; only users' snapshot histories, gone refs' id sets,
shorturl and classes are written by name.

`read_collection` reads one saved file line by line. `load` builds records
from it; `langcrawl export` copies its lines as they are.
"""
from __future__ import annotations

import bisect
import enum
import json
import operator
import os
import shutil
from collections import Counter, defaultdict
from dataclasses import fields
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from . import model
from .model import (
    ClassTransition,
    CrawlState,
    FavoriteRecord,
    FollowEdge,
    FollowScan,
    ListMembership,
    ListRecord,
    ListSubscription,
    Timestamp,
    TrendSnapshot,
    Tweet,
    TweetId,
    UserClass,
    UserId,
    UserSnapshot,
)


class PutSnapshotResult(enum.Enum):
    STORED = "stored"
    SKIPPED_TWEET_COUNT_ONLY = "skipped_tweet_count_only"


class PutTweetResult(enum.Enum):
    INSERTED = "inserted"
    DUPLICATE = "duplicate"
    UPGRADED = "upgraded"


_SNAPSHOT_VOLATILE = ("tweet_count", "observed_at")

# the fields whose change makes a snapshot worth storing
_snapshot_core = operator.attrgetter(
    *(f.name for f in fields(UserSnapshot) if f.name not in _SNAPSHOT_VOLATILE)
)


_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":"))
_DECODER = json.JSONDecoder()


def dumps(rec: dict) -> str:
    """Canonical JSON line: sorted keys, no spaces, UTF-8 kept readable."""
    return _ENCODER.encode(rec)


def read_collection(path: str | Path) -> Iterator[tuple[str, dict]]:
    """Each non-empty line of a saved collection file, stripped, with its
    record. A line that is not exactly one JSON value raises ValueError."""
    with open(path, encoding="utf-8") as fh:
        n = 0
        for line in fh:
            line = line.strip()
            if line:
                rec, end = _DECODER.raw_decode(line)
                n += 1
                if end != len(line):
                    raise ValueError(f"{path}: data after record {n}")
                yield line, rec


class Collection(NamedTuple):
    """One row of `Store.COLLECTIONS`, the table that defines a collection."""

    attr: str  # the Store attribute that holds it
    cls: type | None  # its record class; None: load inserts the JSON object as read
    insert: str  # the Store method that load inserts each record with
    ids: tuple[str, ...] | None = None  # what `export --ids-only` keeps; None: all


class Store:
    def __init__(self) -> None:
        self.snapshots: dict[UserId, list[UserSnapshot]] = defaultdict(list)
        self.tweets: dict[TweetId, Tweet] = {}
        self._author_tweets: dict[UserId, list[TweetId]] = defaultdict(list)
        self._author_langs: dict[UserId, Counter] = defaultdict(Counter)
        self.follow_log: list[FollowEdge] = []
        self.follow_scans: list[FollowScan] = []
        self._friends_ever: dict[UserId, set[UserId]] = defaultdict(set)
        self._followers_ever: dict[UserId, set[UserId]] = defaultdict(set)
        self.lists: dict[int, ListRecord] = {}
        self.memberships: dict[tuple[int, UserId], ListMembership] = {}
        self.subscriptions: dict[tuple[int, UserId], ListSubscription] = {}
        self.favorites: dict[tuple[UserId, TweetId], FavoriteRecord] = {}
        self.trends: list[TrendSnapshot] = []
        self.shorturl: dict[str, str] = {}
        self.classes: dict[UserId, UserClass] = {}
        self.class_history: list[ClassTransition] = []
        self.crawl_states: dict[UserId, CrawlState] = {}
        self.gone_refs: dict[UserId, set[TweetId]] = defaultdict(set)
        self.mutations = 0  # bumped on every write; cheap cache invalidation
        self._missing: frozenset[str] = frozenset()  # collections load skipped

    # -- users ---------------------------------------------------------------

    def put_snapshot(self, s: UserSnapshot) -> PutSnapshotResult:
        """Append a profile observation unless only tweet_count moved."""
        history = self.snapshots[s.id]
        if history and _snapshot_core(history[-1]) == _snapshot_core(s):
            return PutSnapshotResult.SKIPPED_TWEET_COUNT_ONLY
        history.append(s)
        self.mutations += 1
        return PutSnapshotResult.STORED

    def latest_snapshot(self, u: UserId) -> UserSnapshot | None:
        history = self.snapshots.get(u)
        return history[-1] if history else None

    def snapshot_as_of(self, u: UserId, t: Timestamp) -> UserSnapshot | None:
        best = None
        for s in self.snapshots.get(u, ()):
            if s.observed_at <= t:
                best = s
        return best

    # -- tweets ----------------------------------------------------------------

    def put_tweet(self, t: Tweet) -> PutTweetResult:
        old = self.tweets.get(t.id)
        if old is not None:
            if old.truncated and not t.truncated:
                self.tweets[t.id] = t
                for short, expanded in t.urls:
                    self.shorturl[short] = expanded
                self.mutations += 1
                return PutTweetResult.UPGRADED
            return PutTweetResult.DUPLICATE
        self.tweets[t.id] = t
        bisect.insort(self._author_tweets[t.author], t.id)
        self._author_langs[t.author][t.lang] += 1
        for short, expanded in t.urls:
            self.shorturl[short] = expanded
        self.mutations += 1
        return PutTweetResult.INSERTED

    def get_tweet(self, tid: TweetId) -> Tweet | None:
        return self.tweets.get(tid)

    def author_tweet_ids(self, u: UserId) -> list[TweetId]:
        return self._author_tweets.get(u, [])

    def author_tweet_count(self, u: UserId) -> int:
        return len(self._author_tweets.get(u, ()))

    def tweet_authors(self) -> list[UserId]:
        """Every user with at least one stored tweet, ascending id."""
        return sorted(self._author_tweets)

    def author_lang_counts(self, u: UserId) -> Counter:
        return self._author_langs.get(u, Counter())

    def count_tweets_between(self, u: UserId, lo: TweetId | None, hi: TweetId | None) -> int:
        """Stored tweets of u with lo <= id <= hi. None bounds count nothing."""
        if lo is None or hi is None:
            return 0
        ids = self._author_tweets.get(u, [])
        return bisect.bisect_right(ids, hi) - bisect.bisect_left(ids, lo)

    def author_span(self, u: UserId) -> tuple[int, Timestamp, Timestamp] | None:
        """(count, first created_at, last created_at) over stored tweets of u."""
        ids = self._author_tweets.get(u)
        if not ids:
            return None
        return len(ids), self.tweets[ids[0]].created_at, self.tweets[ids[-1]].created_at

    # -- follow graph ----------------------------------------------------------

    def append_follow(self, e: FollowEdge) -> None:
        self.follow_log.append(e)
        self._friends_ever[e.src].add(e.dst)
        self._followers_ever[e.dst].add(e.src)
        self.mutations += 1

    def record_follow_scan(self, scan: FollowScan) -> None:
        self.follow_scans.append(scan)
        self.mutations += 1

    def friends_ever(self, u: UserId) -> set[UserId]:
        return self._friends_ever.get(u, set())

    def followers_ever(self, u: UserId) -> set[UserId]:
        return self._followers_ever.get(u, set())

    # -- lists -----------------------------------------------------------------

    def put_list(self, r: ListRecord) -> None:
        self.lists[r.id] = r
        self.mutations += 1

    def put_membership(self, m: ListMembership) -> None:
        self.memberships.setdefault((m.list_id, m.member), m)
        self.mutations += 1

    def put_subscription(self, s: ListSubscription) -> None:
        self.subscriptions.setdefault((s.list_id, s.subscriber), s)
        self.mutations += 1

    # -- favorites ---------------------------------------------------------------

    def put_favorite(self, f: FavoriteRecord) -> bool:
        """Store one like; returns False when (user, tweet) was already known."""
        key = (f.user, f.tweet)
        if key in self.favorites:
            return False
        self.favorites[key] = f
        self.mutations += 1
        return True

    def has_favorite(self, user: UserId, tweet: TweetId) -> bool:
        return (user, tweet) in self.favorites

    # -- trends / gone refs ------------------------------------------------------

    def put_trend(self, t: TrendSnapshot) -> None:
        self.trends.append(t)
        self.mutations += 1

    def add_gone_ref(self, author: UserId, tweet: TweetId) -> None:
        self.gone_refs[author].add(tweet)
        self.mutations += 1

    def discard_gone_ref(self, author: UserId, tweet: TweetId) -> None:
        """Withdraw a gone record after a retry resolved the tweet after all."""
        refs = self.gone_refs.get(author)
        if refs and tweet in refs:
            refs.discard(tweet)
            if not refs:
                del self.gone_refs[author]
            self.mutations += 1

    def gone_count(self, author: UserId) -> int:
        return len(self.gone_refs.get(author, ()))

    # -- classes -------------------------------------------------------------------

    def user_class(self, u: UserId) -> UserClass:
        return self.classes.get(u, UserClass.UNKNOWN)

    def set_class(self, u: UserId, new: UserClass, at: Timestamp) -> bool:
        """Record a class transition. No-op (False) when the class is unchanged."""
        old = self.user_class(u)
        if old == new:
            return False
        self.classes[u] = new
        self.class_history.append(ClassTransition(user=u, old=old, new=new, at=at))
        self.mutations += 1
        return True

    def users_in_class(self, *classes: UserClass) -> list[UserId]:
        wanted = set(classes)
        return sorted(u for u, c in self.classes.items() if c in wanted)

    # -- bulk read views ---------------------------------------------------------------

    def all_favorites(self) -> list[FavoriteRecord]:
        return [self.favorites[k] for k in sorted(self.favorites)]

    def members_by_list(self) -> dict[int, set[UserId]]:
        out: dict[int, set[UserId]] = {}
        for list_id, member in self.memberships:
            out.setdefault(list_id, set()).add(member)
        return out

    # -- crawl state -----------------------------------------------------------------

    def get_crawl_state(self, u: UserId) -> CrawlState:
        return self.crawl_states.get(u) or CrawlState(user=u)

    def put_crawl_state(self, state: CrawlState) -> None:
        self.crawl_states[state.user] = state
        self.mutations += 1

    # -- import / export ---------------------------------------------------------------

    # One row per collection, in saved order: tweets before shorturl, which
    # loading tweets also fills.
    COLLECTIONS = {
        "users": Collection("snapshots", UserSnapshot, "_append_snapshot", ("id", "observed_at")),
        "tweets": Collection("tweets", Tweet, "_import_tweet", ("id", "author")),
        "follow": Collection("follow_log", FollowEdge, "append_follow"),
        "followscans": Collection("follow_scans", FollowScan, "record_follow_scan"),
        "lists": Collection("lists", ListRecord, "put_list", ("id", "owner")),
        "memberships": Collection("memberships", ListMembership, "put_membership"),
        "subscriptions": Collection("subscriptions", ListSubscription, "put_subscription"),
        "favorites": Collection("favorites", FavoriteRecord, "put_favorite"),
        "trends": Collection("trends", TrendSnapshot, "put_trend", ("place", "observed_at")),
        "shorturl": Collection("shorturl", None, "_put_shorturl"),
        "classes": Collection("classes", None, "_put_class"),
        "classhistory": Collection("class_history", ClassTransition, "_append_transition"),
        "crawlstate": Collection("crawl_states", CrawlState, "put_crawl_state", ("user",)),
        "gonerefs": Collection("gone_refs", None, "_put_gone_ref"),
    }

    # load's inserts where no write method takes a saved record as it is

    def _import_tweet(self, t: Tweet) -> None:
        # import path: save writes tweets in ascending id order, so each
        # author's id list stays sorted by appending
        ids = self._author_tweets[t.author]
        if t.id in self.tweets or (ids and ids[-1] > t.id):
            raise ValueError(f"tweets are not in ascending id order at tweet {t.id}")
        self.tweets[t.id] = t
        ids.append(t.id)
        self._author_langs[t.author][t.lang] += 1
        for short, expanded in t.urls:
            self.shorturl[short] = expanded
        self.mutations += 1

    def _append_snapshot(self, s: UserSnapshot) -> None:
        self.snapshots[s.id].append(s)  # history replays verbatim, bypassing the dedup rule

    def _append_transition(self, t: ClassTransition) -> None:
        self.class_history.append(t)

    def _put_shorturl(self, rec: dict) -> None:
        self.shorturl[rec["short"]] = rec["expanded"]

    def _put_class(self, rec: dict) -> None:
        self.classes[rec["user"]] = UserClass(rec["class"])

    def _put_gone_ref(self, rec: dict) -> None:
        self.add_gone_ref(rec["author"], rec["tweet"])

    def export_collection(self, name: str, path: str | Path) -> int:
        """Write one collection as JSON lines in canonical key order: a dict
        by ascending key, a list in its own order."""
        if name in self._missing:
            raise RuntimeError(f"collection {name!r} was not loaded")
        held = getattr(self, self.COLLECTIONS[name].attr)
        if isinstance(held, list):
            records = map(model.to_record, held)
        elif name == "users":  # each user's history in the order observed
            records = (model.to_record(s) for u in sorted(held) for s in held[u])
        elif name == "gonerefs":
            records = ({"author": a, "tweet": t} for a in sorted(held) for t in sorted(held[a]))
        elif name == "shorturl":
            records = ({"short": s, "expanded": held[s]} for s in sorted(held))
        elif name == "classes":
            records = ({"user": u, "class": held[u].value} for u in sorted(held))
        else:
            records = (model.to_record(held[k]) for k in sorted(held))
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(dumps(rec) + "\n")
                n += 1
        return n

    def import_collection(self, name: str, path: str | Path) -> int:
        row = self.COLLECTIONS[name]
        insert, cls, decode = getattr(self, row.insert), row.cls, model.from_record
        n = 0
        for _, rec in read_collection(path):
            insert(rec if cls is None else decode(cls, rec))
            n += 1
        return n

    def save(self, directory: str | Path) -> None:
        """Write every collection to `directory`, replacing it as a whole.

        The directory must hold nothing but a saved store. A store that was
        loaded in part refuses to save, since the collections it skipped
        would be lost.
        """
        if self._missing:
            raise RuntimeError(
                f"store loaded without {sorted(self._missing)} cannot be saved"
            )
        directory = Path(directory)
        finish_swap(directory)
        if directory.is_dir():
            files = {f"{name}.jsonl" for name in self.COLLECTIONS}
            stray = {p.name for p in directory.iterdir()} - files
            if stray:
                raise FileExistsError(f"{directory} holds files not of a store: {sorted(stray)}")
        tmp, old = _siblings(directory)
        if tmp.exists():
            shutil.rmtree(tmp)  # a save that died before its swap
        tmp.mkdir(parents=True)
        for name in self.COLLECTIONS:
            self.export_collection(name, tmp / f"{name}.jsonl")
        if directory.exists():
            os.replace(directory, old)
        os.replace(tmp, directory)
        finish_swap(directory)  # removes the old store

    @classmethod
    def load(cls, directory: str | Path, collections: Iterable[str] | None = None) -> "Store":
        """Read a saved store; a missing directory or file reads as empty.

        With `collections`, only those are read, and the store refuses to
        save or to export any other.
        """
        directory = Path(directory)
        wanted = set(cls.COLLECTIONS if collections is None else collections)
        unknown = wanted.difference(cls.COLLECTIONS)
        if unknown:
            raise KeyError(min(unknown))
        finish_swap(directory)
        store = cls()
        store._missing = frozenset(cls.COLLECTIONS) - wanted
        for name in cls.COLLECTIONS:  # tweets before shorturl, as saved
            path = directory / f"{name}.jsonl"
            if name in wanted and path.exists():
                store.import_collection(name, path)
        return store

    # convenience used all over the test suite
    def all_tweets(self) -> Iterable[Tweet]:
        return (self.tweets[i] for i in sorted(self.tweets))



def _siblings(directory: Path) -> tuple[Path, Path]:
    """(the directory a save writes into, the one it moves the old store to)"""
    return directory.with_name(directory.name + ".tmp"), directory.with_name(
        directory.name + ".old"
    )


def finish_swap(directory: Path) -> None:
    """Complete a save that died after moving the old store aside.

    Between the two renames only `.tmp/` and `.old/` exist, and `.tmp/` is
    already complete; after them, `.old/` only remains to be removed. A
    `.tmp/` without an `.old/` is a save that died before its swap, which
    leaves the directory as it was.
    """
    tmp, old = _siblings(directory)
    if not old.exists():
        return
    if not directory.exists():
        os.replace(tmp, directory)
    shutil.rmtree(old)
