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
from typing import Callable, Iterable, Iterator

from . import model
from .model import (
    ClassTransition,
    CrawlState,
    FavoriteRecord,
    FollowEdge,
    FollowScan,
    GoneRef,
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

    # collection name -> (iter canonical records, insert record)
    def _collections(self) -> dict[str, tuple[Callable, Callable]]:
        return {
            "users": (
                lambda: (
                    model.to_record(s)
                    for u in sorted(self.snapshots)
                    for s in self.snapshots[u]
                ),
                # history replays verbatim, bypassing the dedup rule
                lambda rec: self.snapshots[rec["id"]].append(
                    model.from_record(UserSnapshot, rec)
                ),
            ),
            "tweets": (
                lambda: (model.to_record(self.tweets[i]) for i in sorted(self.tweets)),
                lambda rec: self._import_tweet(model.from_record(Tweet, rec)),
            ),
            "follow": (
                lambda: (model.to_record(e) for e in self.follow_log),
                lambda rec: self.append_follow(model.from_record(FollowEdge, rec)),
            ),
            "followscans": (
                lambda: (model.to_record(s) for s in self.follow_scans),
                lambda rec: self.record_follow_scan(model.from_record(FollowScan, rec)),
            ),
            "lists": (
                lambda: (model.to_record(self.lists[i]) for i in sorted(self.lists)),
                lambda rec: self.put_list(model.from_record(ListRecord, rec)),
            ),
            "memberships": (
                lambda: (
                    model.to_record(self.memberships[k]) for k in sorted(self.memberships)
                ),
                lambda rec: self.put_membership(model.from_record(ListMembership, rec)),
            ),
            "subscriptions": (
                lambda: (
                    model.to_record(self.subscriptions[k])
                    for k in sorted(self.subscriptions)
                ),
                lambda rec: self.put_subscription(model.from_record(ListSubscription, rec)),
            ),
            "favorites": (
                lambda: (
                    model.to_record(self.favorites[k]) for k in sorted(self.favorites)
                ),
                lambda rec: self.put_favorite(model.from_record(FavoriteRecord, rec)),
            ),
            "trends": (
                lambda: (model.to_record(t) for t in self.trends),
                lambda rec: self.put_trend(model.from_record(TrendSnapshot, rec)),
            ),
            "shorturl": (
                lambda: (
                    {"short": s, "expanded": self.shorturl[s]}
                    for s in sorted(self.shorturl)
                ),
                lambda rec: self.shorturl.__setitem__(rec["short"], rec["expanded"]),
            ),
            "classes": (
                lambda: (
                    {"user": u, "class": self.classes[u].value}
                    for u in sorted(self.classes)
                ),
                lambda rec: self.classes.__setitem__(rec["user"], UserClass(rec["class"])),
            ),
            "classhistory": (
                lambda: (model.to_record(t) for t in self.class_history),
                lambda rec: self.class_history.append(
                    model.from_record(ClassTransition, rec)
                ),
            ),
            "crawlstate": (
                lambda: (
                    model.to_record(self.crawl_states[u])
                    for u in sorted(self.crawl_states)
                ),
                lambda rec: self.put_crawl_state(model.from_record(CrawlState, rec)),
            ),
            "gonerefs": (
                lambda: (
                    model.to_record(GoneRef(author=a, tweet=t))
                    for a in sorted(self.gone_refs)
                    for t in sorted(self.gone_refs[a])
                ),
                lambda rec: self.add_gone_ref(rec["author"], rec["tweet"]),
            ),
        }

    # the fields `export --ids-only` keeps; other collections are kept whole
    ID_FIELDS = {
        "users": ("id", "observed_at"),
        "tweets": ("id", "author"),
        "lists": ("id", "owner"),
        "trends": ("place", "observed_at"),
        "crawlstate": ("user",),
    }

    COLLECTIONS = (
        "users",
        "tweets",
        "follow",
        "followscans",
        "lists",
        "memberships",
        "subscriptions",
        "favorites",
        "trends",
        "shorturl",
        "classes",
        "classhistory",
        "crawlstate",
        "gonerefs",
    )

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

    def export_collection(self, name: str, path: str | Path) -> int:
        """Write one collection as JSON lines in canonical key order."""
        if name in self._missing:
            raise RuntimeError(f"collection {name!r} was not loaded")
        records, _ = self._collections()[name]
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records():
                fh.write(dumps(rec) + "\n")
                n += 1
        return n

    def import_collection(self, name: str, path: str | Path) -> int:
        _, insert = self._collections()[name]
        n = 0
        for _, rec in read_collection(path):
            insert(rec)
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
            stray = {p.name for p in directory.iterdir()} - set(_FILES)
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


_FILES = tuple(f"{name}.jsonl" for name in Store.COLLECTIONS)


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
