"""Deterministic synthetic social network standing in for the live platform.

A World owns a virtual clock and a population of users who tweet, like,
follow and churn according to seeded random streams. It exposes the full
apiface.DataSource surface, logs every request served, and hands out ground
truth so tests can audit what a crawler against it should have found.

Determinism contract: one seed fixes everything. Each user draws from an own
random stream keyed (seed, user id), so event outcomes do not depend on how
callers slice advance(); a run split into thirty one-day steps produces the
same world as one thirty-day step.
"""
from __future__ import annotations

import bisect
import heapq
import json
import random
import re
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, NoReturn

from . import lexicons as lex
from .apiface import (
    PAGE_SIZE,
    TIMELINE_DEPTH,
    ApiError,
    Cursor,
    Endpoint,
    GONE,
    ListNotFound,
    LookupHit,
    LookupResult,
    PlaceUnknown,
    UserNotFound,
    UserProtected,
    UserSuspended,
)
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
    to_record,
)
from .store import dumps

DAY = 86400
DEFAULT_EPOCH = 1_470_009_600  # 2016-08-01 00:00 UTC

# Display text above this length is served truncated by timeline pages and in
# full by statuses_lookup, which is what exercises the store's upgrade path.
TRUNCATE_AT = 140


@dataclass(frozen=True)
class WorldConfig:
    seed: int = 1
    n_users: int = 100
    start_time: Timestamp = DEFAULT_EPOCH
    # pure-community split; must sum to 1, counts assigned exactly
    community_fractions: dict[str, float] = field(
        default_factory=lambda: {"el": 0.6, "en": 0.4}
    )
    # share of users who tweet in two languages; the minority language share is
    # 10-19% for those whose home community IS minority_lang, 1-9% otherwise
    mixed_fraction: float = 0.0
    minority_lang: str = "el"
    # discretized power law for tweets/day
    activity_exponent: float = 1.8
    activity_min: float = 0.5
    activity_max: float = 50.0
    like_rate_factor: float = 0.15  # like events per tweet event
    behavior: dict[str, float] = field(
        default_factory=lambda: {
            "plain": 0.35,
            "retweet": 0.25,
            "reply": 0.20,
            "quote": 0.08,
            "mention": 0.12,
        }
    )
    self_reply_prob: float = 0.20  # replies that continue the user's own thread
    attach_edges: int = 8
    cross_community_prob: float = 0.05
    churn_suspend_daily: float = 0.0
    churn_delete_daily: float = 0.0
    churn_protect_daily: float = 0.0
    lists_per_user: float = 0.05
    list_size: tuple[int, int] = (3, 30)
    places: tuple[str, ...] = ("Worldwide",)

    def to_json(self) -> str:
        """The JSON object that model.load_config reads back."""
        return json.dumps(to_record(self), ensure_ascii=False, sort_keys=True, indent=2)


def exact_partition(n: int, fractions: dict[str, float]) -> dict[str, int]:
    """Split n into integer counts proportional to fractions, largest remainder."""
    shares = [(name, n * frac) for name, frac in sorted(fractions.items())]
    counts = {name: int(share) for name, share in shares}
    leftover = n - sum(counts.values())
    by_remainder = sorted(shares, key=lambda nf: (-(nf[1] - int(nf[1])), nf[0]))
    for name, _ in by_remainder[:leftover]:
        counts[name] += 1
    return counts


# -- content pools -------------------------------------------------------------

_DEFAULT_LEX = lex.load_default()

_GREEK_CONTENT = (
    "μέρα νύχτα δουλειά καφές μουσική παιχνίδι βράδυ πόλη φίλος ποδόσφαιρο "
    "φωτογραφία νέα βροχή ήλιος εβδομάδα καλημέρα καληνύχτα ταξίδι θάλασσα "
    "βιβλίο ταινία γεια σπίτι φαγητό γιορτή αγώνας ομάδα τραγούδι δρόμος"
).split()
_ENGLISH_STOP = (
    "the a to and of in is it you that for on with this at from we they be "
    "have do not are was but so what when out up"
).split()
_ENGLISH_CONTENT = (
    "day time people game music coffee work city night football photo news "
    "rain sun friend week travel sea book movie home food party match team "
    "song road morning evening weekend"
).split()

_POOLS = {
    "el": {
        "stop": sorted(_DEFAULT_LEX.stopwords),
        "content": sorted(
            set(_GREEK_CONTENT)
            | set(_DEFAULT_LEX.locations)
            | {a for al in _DEFAULT_LEX.entities.values() for a in al if not a.isascii()}
        ),
        "senti": sorted(w for w in _DEFAULT_LEX.sentiment if not w.isascii()),
        "tags": "καλημερα ελλαδα αθηνα ποδοσφαιρο μουσικη καφες βραδυ νεα".split(),
        "gender": [p for p, _ in _DEFAULT_LEX.gender_patterns],
        "names": "Μαρία Γιώργος Νίκος Ελένη Κώστας Δημήτρης Κατερίνα Γιάννης Σοφία Χρήστος".split(),
        "surnames": "Παπαδοπούλου Νικολάου Γεωργίου Οικονόμου Παππά".split(),
        "locations": ["Αθήνα", "Θεσσαλονίκη", "Πάτρα", "Κρήτη", ""],
        "zones": ["Athens", "Europe/Athens", ""],
    },
    "en": {
        "stop": _ENGLISH_STOP,
        "content": _ENGLISH_CONTENT,
        "senti": sorted(w for w in _DEFAULT_LEX.sentiment if w.isascii()),
        "tags": "monday news music football coffee night photo fun".split(),
        "gender": [],
        "names": "John Emma Liam Olivia Noah Ava James Mia Lucas Zoe".split(),
        "surnames": "Smith Jones Brown Wilson Taylor".split(),
        "locations": ["London", "New York", "Berlin", ""],
        "zones": ["London", "US/Eastern", ""],
    },
}

_SCREEN_BASES = (
    "maria giorgos nikos eleni kostas alex john emma liam noah mia zoe "
    "vas sofi chris kat dim gian"
).split()
_CLIENTS = ("web client", "android app", "iphone app", "desktop deck", "autopost bot")
_DOMAINS = (
    "example.com",
    "news.example.org",
    "blog.example.net",
    "photos.example.io",
    "videos.example.tv",
)
_EMOJI = tuple("😀😂🎉🔥👍😭🙏❤")
_EMOTICONS = tuple(sorted(_DEFAULT_LEX.emoticons))
_YEARS = tuple(str(y) for y in range(1990, 2030))


def _pool_for(lang: str) -> dict:
    return _POOLS.get(lang, _POOLS["en"])


@lru_cache(maxsize=8)
def _keyword_search(keywords: tuple[str, ...]) -> Callable[[str], object] | None:
    """A search for any of the lowercased keywords; None when there are none."""
    needles = sorted({k.lower() for k in keywords})
    return re.compile("|".join(map(re.escape, needles))).search if needles else None


def _b36(n: int) -> str:
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"
    out = []
    while True:
        n, r = divmod(n, 36)
        out.append(digits[r])
        if n == 0:
            return "".join(reversed(out))


@dataclass
class SimUser:
    """Ground-truth account state. Mutable, owned by the world."""

    uid: UserId
    screen_name: str
    name: str
    bio: str
    location: str
    time_zone: str
    ui_lang: str
    profile_url: str
    created_at: Timestamp
    community: str
    lang_profile: tuple[tuple[str, float], ...]  # cumulative thresholds
    rate: float  # tweets per day
    clients: tuple[str, ...]
    rng: random.Random
    status: str = "ok"  # ok | suspended | deleted | protected
    tweets: list[Tweet] = field(default_factory=list)
    tweet_ids: list[TweetId] = field(default_factory=list)
    friends: list[UserId] = field(default_factory=list)
    followers: list[UserId] = field(default_factory=list)
    liked_ids: list[TweetId] = field(default_factory=list)  # sorted by tweet id
    likes: dict[TweetId, FavoriteRecord] = field(default_factory=dict)
    memberships: list[ListId] = field(default_factory=list)
    ownerships: list[ListId] = field(default_factory=list)
    subscriptions: list[ListId] = field(default_factory=list)

    def draw_lang(self) -> str:
        r = self.rng.random()
        for lang, cum in self.lang_profile:
            if r < cum:
                return lang
        return self.lang_profile[-1][0]

    def snapshot(self, now: Timestamp) -> UserSnapshot:
        return UserSnapshot(
            id=self.uid,
            screen_name=self.screen_name,
            name=self.name,
            bio=self.bio,
            location=self.location,
            time_zone=self.time_zone,
            ui_lang=self.ui_lang,
            profile_url=self.profile_url,
            created_at=self.created_at,
            tweet_count=len(self.tweets),
            followers_count=len(self.followers),
            friends_count=len(self.friends),
            favourites_count=len(self.likes),
            protected=self.status == "protected",
            verified=self.uid % 97 == 0,
            observed_at=now,
        )


def _cumulative(profile: dict[str, float]) -> tuple[tuple[str, float], ...]:
    total = sum(profile.values())
    acc = 0.0
    out = []
    for lang in sorted(profile):
        acc += profile[lang] / total
        out.append((lang, acc))
    return tuple(out)


class World:
    """The simulation. Single writer; API views never mutate."""

    def __init__(self, cfg: WorldConfig) -> None:
        self.cfg = cfg
        self.now: Timestamp = cfg.start_time
        self.users: dict[UserId, SimUser] = {}
        self.mixed_users: set[UserId] = set()
        self.tweet_log: list[Tweet] = []  # ids are dense from 1: tweet id i is tweet_log[i - 1]
        self.lists: dict[ListId, ListRecord] = {}
        self.list_members: dict[ListId, list[UserId]] = {}
        self.list_subscribers: dict[ListId, list[UserId]] = {}
        self.request_log: list[dict] = []
        self.frozen = False  # when set, advance moves the clock only
        self._events: list[tuple[float, UserId]] = []
        # hashtags of the last day, oldest first, and their counts
        self._recent_tags: deque[tuple[Timestamp, str]] = deque()
        self._tag_counts: Counter = Counter()
        self._stream_pos = 0
        self._next_day_tick = cfg.start_time + DAY
        self._churn_rng = random.Random(f"{cfg.seed}:churn")
        self._behavior_cum = _cumulative(cfg.behavior)
        self._generate()

    # -- construction ---------------------------------------------------------

    def _generate(self) -> None:
        cfg = self.cfg
        rng = random.Random(f"{cfg.seed}:world")
        n = cfg.n_users
        uids = list(range(1, n + 1))
        rng.shuffle(uids)

        n_mixed = round(n * cfg.mixed_fraction)
        pure_counts = exact_partition(n - n_mixed, cfg.community_fractions)
        assignments: list[tuple[str, bool]] = []  # (community, mixed?)
        for community in sorted(pure_counts):
            assignments += [(community, False)] * pure_counts[community]
        mixed_homes = sorted(
            cfg.community_fractions, key=lambda c: (-cfg.community_fractions[c], c)
        )
        for i in range(n_mixed):
            assignments.append((mixed_homes[i % len(mixed_homes)], True))

        for uid, (community, mixed) in zip(uids, assignments):
            self.users[uid] = self._make_user(uid, community, mixed, rng)
            if mixed:
                self.mixed_users.add(uid)

        self._build_follow_graph(rng)
        self._build_lists(rng)

        for uid in sorted(self.users):
            self._schedule_next_event(self.users[uid], float(self.now))

    def _make_user(
        self, uid: UserId, community: str, mixed: bool, rng: random.Random
    ) -> SimUser:
        cfg = self.cfg
        pool = _pool_for(community)
        minority = cfg.minority_lang

        if not mixed:
            profile = {community: 1.0}
        elif community == minority:
            # expatriate style: home minority community, mostly foreign tweets
            other = next(
                c for c in sorted(cfg.community_fractions, key=lambda c: (c != "en", c))
                if c != minority
            )
            share = rng.uniform(0.10, 0.19)
            profile = {minority: share, other: 1.0 - share}
        else:
            share = rng.uniform(0.01, 0.09)
            profile = {minority: share, community: 1.0 - share}

        # truncated power law via inverse CDF
        a = 1.0 - cfg.activity_exponent
        lo, hi = cfg.activity_min ** a, cfg.activity_max ** a
        rate = (lo + rng.random() * (hi - lo)) ** (1.0 / a)

        if mixed and community == minority and rng.random() < 0.5:
            # latin spelling of a common name; exercises the name-lexicon rule
            name = rng.choice(
                [w.capitalize() for w in sorted(_DEFAULT_LEX.common_names) if w.isascii()]
            )
        else:
            name = rng.choice(pool["names"])
            if rng.random() < 0.6:
                name += " " + rng.choice(pool["surnames"])

        bio_words = []
        for _ in range(rng.randrange(0, 12)):
            src = pool["stop"] if rng.random() < 0.4 else pool["content"]
            bio_words.append(rng.choice(src))
        if bio_words and rng.random() < 0.2:
            bio_words.append(rng.choice(_EMOJI))

        n_clients = 1 + (rng.random() < 0.3)
        clients = tuple(rng.choice(_CLIENTS) for _ in range(n_clients))

        return SimUser(
            uid=uid,
            screen_name=f"{rng.choice(_SCREEN_BASES)}{uid}",
            name=name,
            bio=" ".join(bio_words),
            location=rng.choice(pool["locations"]),
            time_zone=rng.choice(pool["zones"]),
            ui_lang=community,
            profile_url=(
                f"https://{rng.choice(_DOMAINS)}/~u{uid}" if rng.random() < 0.3 else ""
            ),
            created_at=cfg.start_time - rng.randrange(100, 1500) * DAY,
            community=community,
            lang_profile=_cumulative(profile),
            rate=rate,
            clients=clients,
            rng=random.Random(f"{cfg.seed}:user:{uid}"),
        )

    def _build_follow_graph(self, rng: random.Random) -> None:
        cfg = self.cfg
        by_community: dict[str, list[UserId]] = {}
        for uid in sorted(self.users):
            by_community.setdefault(self.users[uid].community, []).append(uid)
        cum_fitness: dict[str, list[float]] = {}
        for community, uids in by_community.items():
            acc, cum = 0.0, []
            for uid in uids:
                acc += self.users[uid].rate
                cum.append(acc)
            cum_fitness[community] = cum

        def pick(community: str) -> UserId:
            uids, cum = by_community[community], cum_fitness[community]
            return uids[bisect.bisect_left(cum, rng.random() * cum[-1])]

        communities = sorted(by_community)
        for uid in sorted(self.users):
            user = self.users[uid]
            others = [c for c in communities if c != user.community] or [user.community]
            for _ in range(cfg.attach_edges):
                cross = len(communities) > 1 and rng.random() < cfg.cross_community_prob
                community = rng.choice(others) if cross else user.community
                for _ in range(20):
                    v = pick(community)
                    if v != uid and v not in user.friends:
                        self._add_edge(uid, v)
                        break

    def _add_edge(self, src: UserId, dst: UserId) -> None:
        self.users[src].friends.append(dst)
        self.users[dst].followers.append(src)

    def _build_lists(self, rng: random.Random) -> None:
        cfg = self.cfg
        n_lists = round(cfg.n_users * cfg.lists_per_user)
        all_uids = sorted(self.users)
        for i in range(1, n_lists + 1):
            owner = rng.choice(all_uids)
            community = self.users[owner].community
            peers = [u for u in all_uids if self.users[u].community == community]
            size = rng.randrange(cfg.list_size[0], cfg.list_size[1] + 1)
            members = sorted(rng.sample(peers, min(size, len(peers))))
            pool = _pool_for(community)
            record = ListRecord(
                id=i,
                owner=owner,
                name=f"{rng.choice(pool['content'])}-{i}",
                member_count=len(members),
                created_at=cfg.start_time - rng.randrange(1, 100) * DAY,
            )
            self.lists[i] = record
            self.list_members[i] = members
            self.list_subscribers[i] = sorted(
                rng.sample(all_uids, rng.randrange(0, 4))
            )
            self.users[owner].ownerships.append(i)
            for m in members:
                self.users[m].memberships.append(i)
            for s in self.list_subscribers[i]:
                self.users[s].subscriptions.append(i)

    # -- virtual time ----------------------------------------------------------

    def _schedule_next_event(self, user: SimUser, after: float) -> None:
        if user.rate <= 0 or user.status != "ok":
            return
        events_per_sec = user.rate * (1.0 + self.cfg.like_rate_factor) / DAY
        gap = user.rng.expovariate(events_per_sec)
        heapq.heappush(self._events, (after + gap, user.uid))

    def advance(self, dt: float) -> None:
        """Run the world forward dt seconds of virtual time.

        The clock never runs backward: an event that fell due while a
        scripted mutator moved the clock past it fires now.
        """
        assert dt > 0
        end = self.now + dt
        events, users = self._events, self.users
        while True:
            boundary = min(self._next_day_tick, end)
            while not self.frozen and events and events[0][0] < boundary:
                t, uid = heapq.heappop(events)
                if t > self.now:
                    self.now = int(t)
                user = users[uid]
                if user.status == "ok":
                    self._emit_event(user)
                    self._schedule_next_event(user, t)
            if boundary >= end:
                break
            self._next_day_tick += DAY
            self.now = max(self.now, boundary)
            self._day_tick()
        self.now = int(end)

    def _day_tick(self) -> None:
        cfg = self.cfg
        if self.frozen:
            return
        p_total = cfg.churn_suspend_daily + cfg.churn_delete_daily + cfg.churn_protect_daily
        if p_total <= 0:
            return
        for uid in sorted(self.users):
            user = self.users[uid]
            if user.status != "ok":
                continue
            r = self._churn_rng.random()
            if r < cfg.churn_suspend_daily:
                user.status = "suspended"
            elif r < cfg.churn_suspend_daily + cfg.churn_delete_daily:
                user.status = "deleted"
            elif r < p_total:
                user.status = "protected"

    def _emit_event(self, user: SimUser) -> None:
        f = self.cfg.like_rate_factor
        if f > 0 and user.rng.random() < f / (1.0 + f):
            self._emit_auto_like(user)
        else:
            self._emit_auto_tweet(user)

    # -- tweet construction -----------------------------------------------------

    def _emit_auto_tweet(self, user: SimUser) -> None:
        rng = user.rng
        r = rng.random()
        kind = "plain"
        for name, cum in self._behavior_cum:
            if r < cum:
                kind = name
                break

        target: Tweet | None = None
        if kind in ("retweet", "reply", "quote"):
            if kind == "reply" and user.tweets and rng.random() < self.cfg.self_reply_prob:
                target = user.tweets[-1]
            else:
                target = self._pick_friend_tweet(user)
            if target is None:
                kind = "plain"

        mentions: tuple[UserId, ...] = ()
        if kind == "mention" and user.friends:
            k = 1 + (rng.random() < 0.25 and len(user.friends) > 1)
            seen = []
            for _ in range(k):
                v = rng.choice(user.friends)
                if v not in seen:
                    seen.append(v)
            mentions = tuple(seen)
        elif kind == "reply" and target is not None:
            mentions = (target.author,)

        self._materialize_tweet(user, kind, target, mentions)

    def _pick_friend_tweet(self, user: SimUser) -> Tweet | None:
        rng = user.rng
        for _ in range(4):
            if not user.friends:
                return None
            friend = self.users[rng.choice(user.friends)]
            if friend.tweets:
                depth = min(len(friend.tweets), 50)
                return friend.tweets[len(friend.tweets) - 1 - rng.randrange(depth)]
        return None

    def _materialize_tweet(
        self,
        user: SimUser,
        kind: str,
        target: Tweet | None,
        mentions: tuple[UserId, ...],
        text: str | None = None,
        lang: str | None = None,
    ) -> Tweet:
        rng = user.rng
        lang = lang or user.draw_lang()
        hashtags: tuple[str, ...] = ()
        urls: tuple[tuple[str, str], ...] = ()

        if kind == "retweet" and target is not None:
            body = f"RT @{self.users[target.author].screen_name}: {target.text}"
            mentions = (target.author,) + target.mentions
            hashtags = target.hashtags
            urls = target.urls
            text = body
        elif text is None:
            words = self._compose_text(rng, lang)
            if kind == "reply" and target is not None:
                words.insert(0, f"@{self.users[target.author].screen_name}")
            for m in mentions:
                words.append(f"@{self.users[m].screen_name}")
            if rng.random() < 0.22:
                tags = _pool_for(lang)["tags"]
                hashtags = tuple(
                    dict.fromkeys(rng.choice(tags) for _ in range(1 + (rng.random() < 0.3)))
                )
                words += [f"#{t}" for t in hashtags]
            if rng.random() < 0.10:
                tid_hint = len(self.tweet_log) + 1
                short = f"https://sh.rt/{_b36(tid_hint * 7 + 5)}"
                expanded = f"https://{rng.choice(_DOMAINS)}/p/{tid_hint}"
                urls = ((short, expanded),)
                words.append(short)
            text = " ".join(words)

        tweet = Tweet(
            id=len(self.tweet_log) + 1,
            author=user.uid,
            created_at=self.now,
            text=text,
            lang=lang,
            retweet_of=(target.id, target.author) if kind == "retweet" and target else None,
            reply_to=(target.id, target.author) if kind == "reply" and target else None,
            quote_of=(target.id, target.author) if kind == "quote" and target else None,
            mentions=mentions,
            hashtags=hashtags,
            urls=urls,
            source_client=rng.choice(user.clients),
            truncated=False,
        )
        user.tweets.append(tweet)
        user.tweet_ids.append(tweet.id)
        self.tweet_log.append(tweet)
        if hashtags:
            for tag in hashtags:
                self._recent_tags.append((self.now, tag))
            self._tag_counts.update(hashtags)
        return tweet

    def _compose_text(self, rng: random.Random, lang: str) -> list[str]:
        # rng.choice(seq) makes the draw of seq[rng.randrange(len(seq))] in one call
        pool = _pool_for(lang)
        stop, content, senti, gender = pool["stop"], pool["content"], pool["senti"], pool["gender"]
        random_, choice = rng.random, rng.choice
        n_words = rng.randrange(4, 14)
        if random_() < 0.04:
            n_words += rng.randrange(10, 25)  # occasionally long, exercises truncation
        words = []
        for _ in range(n_words):
            r = random_()
            if r < 0.45:
                w = choice(stop)
            elif r < 0.80:
                w = choice(content)
            elif r < 0.92 and senti:
                w = choice(senti)
            elif gender and r < 0.95:
                w = choice(gender)
            else:
                w = choice(_YEARS)  # the draw of randrange(1990, 2030)
            if random_() < 0.02:
                w = w.upper()
            words.append(w)
        if random_() < 0.10:
            words.append(choice(_EMOJI))
        if random_() < 0.08:
            words.append(choice(_EMOTICONS))
        if random_() < 0.01:
            words = [w.upper() for w in words]
        return words

    def _emit_auto_like(self, user: SimUser) -> None:
        target = self._pick_friend_tweet(user)
        if target is None or target.id in user.likes:
            return
        self._record_like(user, target)

    def _record_like(self, user: SimUser, target: Tweet) -> None:
        rec = FavoriteRecord(
            user=user.uid,
            tweet=target.id,
            tweet_author=target.author,
            observed_at=self.now,
        )
        user.likes[target.id] = rec
        bisect.insort(user.liked_ids, target.id)

    # -- scripted mutators (tests and controlled scenarios) ----------------------

    def emit_tweet(
        self,
        u: UserId,
        kind: str = "plain",
        target: Tweet | None = None,
        mentions: Iterable[UserId] = (),
        text: str | None = None,
        lang: str | None = None,
    ) -> Tweet:
        """Force one tweet now."""
        return self._materialize_tweet(
            self.users[u], kind, target, tuple(mentions), text=text, lang=lang
        )

    def emit_tweets(self, u: UserId, n: int, gap: int = 1, **kwargs) -> list[Tweet]:
        """n scripted tweets spaced gap seconds apart, advancing the clock;
        kwargs as for emit_tweet."""
        out = []
        for _ in range(n):
            self.now += gap
            out.append(self.emit_tweet(u, **kwargs))
        return out

    def emit_like(self, u: UserId, tweet_id: TweetId) -> None:
        if not 0 < tweet_id <= len(self.tweet_log):
            raise KeyError(tweet_id)
        self._record_like(self.users[u], self.tweet_log[tweet_id - 1])

    def follow(self, src: UserId, dst: UserId) -> None:
        if dst not in self.users[src].friends and src != dst:
            self._add_edge(src, dst)

    def churn_user(self, u: UserId, status: str) -> None:
        assert status in ("ok", "suspended", "deleted", "protected")
        self.users[u].status = status
        if status == "ok":
            self._schedule_next_event(self.users[u], float(self.now))

    # -- api surface --------------------------------------------------------------

    def _log(self, endpoint: Endpoint, target, outcome: str) -> None:
        self.request_log.append(
            {
                "endpoint": endpoint.value,
                "target": target,
                "at": self.now,
                "outcome": outcome,
            }
        )

    def _fail(self, endpoint: Endpoint, target, exc: ApiError) -> NoReturn:
        self._log(endpoint, target, exc.outcome)
        raise exc

    def _visible_user(self, u: UserId, endpoint: Endpoint, profile_ok: bool = False) -> SimUser:
        user = self.users.get(u)
        if user is None or user.status == "deleted":
            self._fail(endpoint, u, UserNotFound(str(u)))
        if user.status == "suspended":
            self._fail(endpoint, u, UserSuspended(str(u)))
        if user.status == "protected" and not profile_ok:
            self._fail(endpoint, u, UserProtected(str(u)))
        return user

    def user_timeline(
        self,
        u: UserId,
        since: TweetId | None = None,
        max_id: TweetId | None = None,
        count: int = PAGE_SIZE[Endpoint.USER_TIMELINE],
    ) -> list[Tweet]:
        user = self._visible_user(u, Endpoint.USER_TIMELINE)
        ids = user.tweet_ids
        window_start = max(0, len(ids) - TIMELINE_DEPTH)
        lo = window_start
        if since is not None:
            lo = max(lo, bisect.bisect_right(ids, since, lo=window_start))
        hi = len(ids)
        if max_id is not None:
            hi = bisect.bisect_right(ids, max_id, lo=window_start)
        start = max(lo, hi - count)
        page = [self._display(t) for t in reversed(user.tweets[start:hi])]
        self._log(Endpoint.USER_TIMELINE, u, f"ok:{len(page)}")
        return page

    @staticmethod
    def _display(t: Tweet) -> Tweet:
        if len(t.text) > TRUNCATE_AT:
            return replace(t, text=t.text[: TRUNCATE_AT - 1] + "…", truncated=True)
        return t

    def statuses_lookup(self, ids: Iterable[TweetId]) -> dict[TweetId, LookupResult]:
        ids = list(ids)
        assert len(ids) <= PAGE_SIZE[Endpoint.STATUSES_LOOKUP]
        out: dict[TweetId, LookupResult] = {}
        hits = 0
        for tid in ids:
            tweet = self.tweet_log[tid - 1] if 0 < tid <= len(self.tweet_log) else None
            if tweet is None or self.users[tweet.author].status != "ok":
                out[tid] = GONE
                continue
            out[tid] = LookupHit(tweet=tweet, author=self.users[tweet.author].snapshot(self.now))
            hits += 1
        self._log(Endpoint.STATUSES_LOOKUP, len(ids), f"ok:{hits}")
        return out

    def users_show(self, u: UserId) -> UserSnapshot:
        user = self._visible_user(u, Endpoint.USERS_SHOW, profile_ok=True)
        self._log(Endpoint.USERS_SHOW, u, "ok")
        return user.snapshot(self.now)

    def _enumerate(
        self, endpoint: Endpoint, target, seq: list[UserId], cursor: Cursor, profiles: bool = False
    ) -> tuple[list, Cursor]:
        """The page of `seq` at `cursor`, as ids or as profiles, logged under `target`."""
        page = PAGE_SIZE[endpoint]
        start = cursor or 0
        # suspended and deleted accounts drop out of enumerations
        users = self.users
        chunk = [v for v in seq[start : start + page] if users[v].status in ("ok", "protected")]
        self._log(endpoint, target, f"ok:{len(chunk)}")
        if profiles:
            chunk = [users[v].snapshot(self.now) for v in chunk]
        nxt = start + page
        return chunk, (nxt if nxt < len(seq) else None)

    def friends_ids(self, u: UserId, cursor: Cursor = None) -> tuple[list[UserId], Cursor]:
        user = self._visible_user(u, Endpoint.FRIENDS_IDS)
        return self._enumerate(Endpoint.FRIENDS_IDS, u, user.friends, cursor)

    def followers_ids(self, u: UserId, cursor: Cursor = None) -> tuple[list[UserId], Cursor]:
        user = self._visible_user(u, Endpoint.FOLLOWERS_IDS)
        return self._enumerate(Endpoint.FOLLOWERS_IDS, u, user.followers, cursor)

    def friends_list(
        self, u: UserId, cursor: Cursor = None
    ) -> tuple[list[UserSnapshot], Cursor]:
        user = self._visible_user(u, Endpoint.FRIENDS_LIST)
        return self._enumerate(Endpoint.FRIENDS_LIST, u, user.friends, cursor, profiles=True)

    def followers_list(
        self, u: UserId, cursor: Cursor = None
    ) -> tuple[list[UserSnapshot], Cursor]:
        user = self._visible_user(u, Endpoint.FOLLOWERS_LIST)
        return self._enumerate(Endpoint.FOLLOWERS_LIST, u, user.followers, cursor, profiles=True)

    def favorites_list(
        self,
        u: UserId,
        max_id: TweetId | None = None,
        count: int = PAGE_SIZE[Endpoint.FAVORITES_LIST],
    ) -> list[FavoriteRecord]:
        user = self._visible_user(u, Endpoint.FAVORITES_LIST)
        ids = user.liked_ids
        hi = len(ids) if max_id is None else bisect.bisect_right(ids, max_id)
        page: list[FavoriteRecord] = []
        for i in range(hi - 1, -1, -1):
            if len(page) == count:
                break
            rec = user.likes[ids[i]]
            if self.users[rec.tweet_author].status == "ok":
                page.append(rec)
        self._log(Endpoint.FAVORITES_LIST, u, f"ok:{len(page)}")
        return page

    def _lists(self, endpoint: Endpoint, u: UserId, kind: str) -> list[ListRecord]:
        """u's lists of one kind: the SimUser field `kind` holds their ids."""
        list_ids = getattr(self._visible_user(u, endpoint), kind)
        self._log(endpoint, u, f"ok:{len(list_ids)}")
        return [self.lists[i] for i in list_ids]

    def lists_memberships(self, u: UserId) -> list[ListRecord]:
        return self._lists(Endpoint.LISTS_MEMBERSHIPS, u, "memberships")

    def lists_ownerships(self, u: UserId) -> list[ListRecord]:
        return self._lists(Endpoint.LISTS_OWNERSHIPS, u, "ownerships")

    def lists_subscriptions(self, u: UserId) -> list[ListRecord]:
        return self._lists(Endpoint.LISTS_SUBSCRIPTIONS, u, "subscriptions")

    def lists_members(self, list_id: ListId, cursor: Cursor = None) -> tuple[list[UserId], Cursor]:
        if list_id not in self.lists:
            self._fail(Endpoint.LISTS_MEMBERS, list_id, ListNotFound(str(list_id)))
        return self._enumerate(Endpoint.LISTS_MEMBERS, list_id, self.list_members[list_id], cursor)

    def trends_place(self, place: str) -> TrendSnapshot:
        if place not in self.cfg.places:
            self._fail(Endpoint.TRENDS_PLACE, place, PlaceUnknown(place))
        # tweets are made in clock order, so the day's oldest tags lead
        horizon = self.now - DAY
        recent, counts = self._recent_tags, self._tag_counts
        while recent and recent[0][0] < horizon:
            tag = recent.popleft()[1]
            counts[tag] -= 1
            if not counts[tag]:
                del counts[tag]
        top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        trends = tuple(f"#{tag}" for tag, _ in top) or ("#welcome",)
        self._log(Endpoint.TRENDS_PLACE, place, f"ok:{len(trends)}")
        return TrendSnapshot(place=place, observed_at=self.now, trends=trends)

    def stream_filter(self, keywords: Iterable[str], budget: int) -> list[Tweet]:
        """Matching tweets created since the previous stream read, oldest first.

        A tweet matches when its lowercased text contains a lowercased
        keyword; no keyword matches nothing."""
        keywords = tuple(keywords)
        match = _keyword_search(keywords)
        out: list[Tweet] = []
        pos = self._stream_pos
        log, users = self.tweet_log, self.users
        if match is None:
            pos = len(log)
        while pos < len(log):
            t = log[pos]
            pos += 1
            if users[t.author].status == "ok" and match(t.text.lower()):
                out.append(t)
                if len(out) >= budget:
                    break
        self._stream_pos = pos
        self._log(Endpoint.STREAM_FILTER, len(keywords), f"ok:{len(out)}")
        return out

    # -- snapshot export ------------------------------------------------------------

    def export_jsonl(self, path: str | Path) -> None:
        """Dump world structure for inspection; same seed gives identical bytes."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps({"config": json.loads(self.cfg.to_json()), "now": self.now}) + "\n")
            for uid in sorted(self.users):
                u = self.users[uid]
                fh.write(
                    dumps(
                        {
                            "uid": u.uid,
                            "screen_name": u.screen_name,
                            "name": u.name,
                            "community": u.community,
                            "mixed": uid in self.mixed_users,
                            "rate": round(u.rate, 9),
                            "tweets": len(u.tweets),
                            "friends": u.friends,
                            "status": u.status,
                        }
                    )
                    + "\n"
                )
