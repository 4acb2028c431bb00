"""The headline guarantees, one test per numbered criterion.

Criteria 1 and 4 share one expensive crawl of a 5000-user world; everything
else runs a controlled scenario sized for seconds. Exact guarantees are
asserted with zero tolerance, statistical ones at their stated floor, so a
red line here points at exactly one broken promise.
"""

from __future__ import annotations

import dataclasses
import random
import statistics
import tempfile
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from urllib.parse import urlsplit

import pytest

from langcrawl.apiface import DEFAULT_BUDGETS, WINDOW, Endpoint, RateLimiter
from langcrawl.classify import (
    ClassifierConfig,
    LangStats,
    Verdict,
    classify_user,
    daily_pass,
    neighbor_resolve,
    retweet_seed,
)
from langcrawl.graphmine import (
    degree_distributions,
    extract_interactions,
    favorite_graph,
    list_similarity,
)
from langcrawl.lexicons import EMOJI_RANGES, TARGET_SCRIPT_RANGES, Lexicons, load_default
from langcrawl.model import (
    CrawlState,
    FavoriteRecord,
    FollowEdge,
    FollowScan,
    Tweet,
    UserClass,
    UserSnapshot,
)
from langcrawl.sched import Crawler, SchedulerConfig, SimClock
from langcrawl.simnet import DAY, World, WorldConfig
from langcrawl.store import PutSnapshotResult, Store, dumps
from langcrawl.vectorize import FEATURE_FIELDS, Vectorizer, export_vectors

TRACKABLE = (UserClass.TRACKED, UserClass.TARGET)


@pytest.fixture(scope="module")
def big_crawl():
    """Thirty virtual days over 5000 users, default budgets, drained at the end."""
    cfg = WorldConfig(
        seed=5,
        n_users=5000,
        community_fractions={"el": 0.6, "en": 0.4},
        mixed_fraction=0.1,
    )
    t0 = time.monotonic()
    world = World(cfg)
    store = Store()
    crawler = Crawler(world, store, RateLimiter(), SimClock(world), SchedulerConfig())
    crawler.run(world.cfg.start_time + 30 * DAY)
    world.frozen = True
    crawler.drain()
    wall = time.monotonic() - t0
    return world, store, crawler, wall


# -- criterion 1: rate-limit compliance ---------------------------------------


def test_criterion_01_rate_limit_budgets_hold(big_crawl):
    world, store, crawler, wall = big_crawl
    per_window: Counter = Counter()
    for r in crawler.log:
        if r["outcome"] == "blocked":
            continue
        per_window[(r["endpoint"], r["at"] - r["at"] % WINDOW)] += 1
    assert per_window, "crawl made no requests"
    violations = [
        (endpoint, win, n)
        for (endpoint, win), n in per_window.items()
        if n > DEFAULT_BUDGETS[Endpoint(endpoint)].max_requests
    ]
    assert violations == []
    assert wall < 120.0, f"crawl took {wall:.1f}s"


# -- criterion 2: requests per tweet ------------------------------------------


def _timeline_visit(crawler) -> int:
    """Drive one stale-queue walk to completion, count page fetches."""
    mark = len(crawler.log)
    assert crawler._step_tweets("stale"), "no walk started"
    while crawler._walks["stale"] is not None:
        assert crawler._step_tweets("stale"), "walk stalled"
    return sum(1 for r in crawler.log[mark:] if r["endpoint"] == "user_timeline")


def _harvest_cost(backlog: int, visits: int) -> tuple[int, int]:
    w = World(WorldConfig(seed=11, n_users=1, community_fractions={"el": 1.0}))
    w.frozen = True
    uid = next(iter(w.users))
    store = Store()
    store.set_class(uid, UserClass.TRACKED, w.now)
    cfg = SchedulerConfig(loops=("tweets",), min_staleness=0)
    crawler = Crawler(w, store, RateLimiter(), SimClock(w), cfg)
    requests = 0
    for _ in range(visits):
        w.emit_tweets(uid, backlog)
        requests += _timeline_visit(crawler)
    assert store.author_tweet_count(uid) == backlog * visits
    return requests, backlog * visits


def test_criterion_02_requests_per_tweet_halve_with_batch_size():
    # Page fetches only: the profile probe that sizes a deep backlog is not
    # part of the per-tweet harvest cost being compared.
    big_req, big_tweets = _harvest_cost(backlog=1000, visits=5)
    small_req, small_tweets = _harvest_cost(backlog=100, visits=10)
    assert big_req / big_tweets == 0.005
    assert small_req / small_tweets == 0.010
    ratio = Fraction(small_req, small_tweets) / Fraction(big_req, big_tweets)
    assert ratio == 2


# -- criterion 3: scheduler benefit -------------------------------------------


def _constrained_run(planner: str, seed: int) -> tuple[int, int]:
    w = World(
        WorldConfig(
            seed=seed,
            n_users=400,
            community_fractions={"el": 1.0},
            activity_exponent=0.5,
            activity_min=0.3,
            activity_max=150.0,
        )
    )
    store = Store()
    for u in sorted(w.users):
        store.set_class(u, UserClass.TRACKED, w.now)
    budgets = dict(DEFAULT_BUDGETS)
    budgets[Endpoint.USER_TIMELINE] = dataclasses.replace(
        budgets[Endpoint.USER_TIMELINE], max_requests=2
    )
    cfg = SchedulerConfig(
        planner=planner, loops=("tweets",), min_staleness=7 * DAY
    )
    crawler = Crawler(w, store, RateLimiter(budgets), SimClock(w), cfg)
    crawler.run(w.cfg.start_time + 14 * DAY)
    stored = sum(store.author_tweet_count(u) for u in store.tweet_authors())
    return stored, len(crawler.log)


def test_criterion_03_priority_planner_beats_roundrobin():
    # Identical heavy-tailed world, identical two-requests-per-window budget;
    # only the visit planner differs.
    p_tweets, p_req = _constrained_run("priority", seed=3)
    r_tweets, r_req = _constrained_run("roundrobin", seed=3)
    ratio = (p_tweets / p_req) / (r_tweets / r_req)
    assert ratio >= 1.3, f"priority/roundrobin efficiency ratio {ratio:.3f}"


# -- criterion 4: coverage against ground truth --------------------------------


def test_criterion_04_cap_free_tracked_users_stored_exactly(big_crawl):
    world, store, crawler, _ = big_crawl
    tracked = [u for u in world.users if store.user_class(u) in TRACKABLE]
    assert len(tracked) > 1000

    stored_total = truth_total = 0
    for u in tracked:
        truth = list(world.users[u].tweet_ids)
        got = store.author_tweet_ids(u)
        stored_total += len(got)
        truth_total += len(truth)
        state = store.get_crawl_state(u)
        if state is None or not state.cap_reached:
            assert got == truth, f"user {u}: {len(got)} stored vs {len(truth)} real"
    assert truth_total > 0
    assert stored_total / truth_total >= 0.95


# -- criterion 5: classifier fidelity ------------------------------------------


def test_criterion_05_classifier_precision_recall_and_stops():
    w = World(
        WorldConfig(
            seed=42,
            n_users=400,
            community_fractions={"el": 0.6, "en": 0.4},
            mixed_fraction=0.10,
            activity_min=20.0,
            activity_max=50.0,
        )
    )
    store = Store()
    # force-crawl some pure majority-community users so the stop rule gets
    # real input instead of never seeing them at all
    pure_other = [
        u for u in sorted(w.users) if w.users[u].community == "en" and u not in w.mixed_users
    ][:10]
    for u in pure_other:
        store.set_class(u, UserClass.TRACKED, w.now)

    crawler = Crawler(w, store, RateLimiter(), SimClock(w), SchedulerConfig())
    crawler.run(w.cfg.start_time + 30 * DAY)
    w.frozen = True
    crawler.drain()

    tp = fp = fn = 0
    for u in sorted(w.users):
        truth = w.users[u].community == "el"
        said = store.user_class(u) is UserClass.TARGET
        if said and truth:
            tp += 1
        elif said:
            fp += 1
        elif truth:
            fn += 1
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    assert precision >= 0.95, f"precision {precision:.4f} ({tp}/{tp + fp})"
    assert recall >= 0.95, f"recall {recall:.4f} ({tp}/{tp + fn})"

    # every pure-other user the crawler read deeply must have been cut off
    deep_other = [
        u
        for u in sorted(w.users)
        if w.users[u].community != "el"
        and u not in w.mixed_users
        and store.author_tweet_count(u) > 500
    ]
    assert deep_other, "no pure-other user was crawled past 500 tweets"
    not_stopped = [u for u in deep_other if store.user_class(u) is not UserClass.STOPPED]
    assert not_stopped == []


# -- criterion 6: decision thresholds ------------------------------------------


def test_criterion_06_threshold_constants():
    cfg = ClassifierConfig()
    names = load_default().common_names
    greek = UserSnapshot(
        id=1, screen_name="x", name="Μαρία", bio="", location="", time_zone="",
        ui_lang="en", profile_url="", created_at=0, tweet_count=0,
        followers_count=0, friends_count=0, favourites_count=0,
        protected=False, verified=False, observed_at=0,
    )

    def verdict(total, target, snapshot=None):
        return classify_user(LangStats(1, total, target), snapshot, cfg, names)

    # high-share membership: total > 100, share >= 20%
    assert verdict(101, 21) is Verdict.TARGET
    assert verdict(105, 21) is Verdict.TARGET  # share exactly 20% qualifies
    assert verdict(100, 20) is Verdict.INCONCLUSIVE  # total must exceed 100
    assert verdict(101, 20) is Verdict.INCONCLUSIVE  # share just under

    # profile-backed membership: total > 500, share >= 10%, script or name
    assert verdict(501, 51, greek) is Verdict.TARGET
    assert verdict(510, 51, greek) is Verdict.TARGET  # share exactly 10%
    assert verdict(501, 50, greek) is Verdict.INCONCLUSIVE
    assert verdict(501, 51, None) is Verdict.INCONCLUSIVE  # no profile evidence
    assert verdict(500, 50, greek) is Verdict.INCONCLUSIVE

    # stop: total > 500, share < 1%
    assert verdict(501, 5) is Verdict.STOP
    assert verdict(600, 6) is Verdict.INCONCLUSIVE  # exactly 1% is not below
    assert verdict(500, 0) is Verdict.INCONCLUSIVE

    # daily sweep demotes established users under 2%
    rows = [
        LangStats(1, 501, 9),   # 1.8% -> demote
        LangStats(2, 501, 11),  # 2.2% -> keep
        LangStats(3, 500, 0),   # volume gate not met
        LangStats(4, 600, 12),  # exactly 2% -> keep
    ]
    assert daily_pass(rows) == [1]

    # neighbor vote needs strictly more than 30% confirmed neighbors
    assert neighbor_resolve(31, 100) is Verdict.TARGET
    assert neighbor_resolve(30, 100) is Verdict.INCONCLUSIVE

    # ten distinct retweeted originals seed an unknown author
    assert retweet_seed(10)
    assert not retweet_seed(9)


# -- criterion 7: graph extraction oracle ---------------------------------------


def _random_tweets(n_tweets: int, n_users: int, seed: int) -> list[Tweet]:
    rng = random.Random(seed)
    tweets = []
    for i in range(1, n_tweets + 1):
        kw = {}
        if i > 10:
            roll = rng.random()
            ref = lambda: (rng.randrange(1, i), rng.randrange(1, n_users + 1))
            if roll < 0.25:
                kw["retweet_of"] = ref()
            elif roll < 0.45:
                kw["reply_to"] = ref()
            elif roll < 0.55:
                kw["quote_of"] = ref()
            if rng.random() < 0.3:
                kw["mentions"] = tuple(
                    rng.randrange(1, n_users + 1) for _ in range(rng.randrange(1, 4))
                )
        tweets.append(
            Tweet(
                id=i,
                author=rng.randrange(1, n_users + 1),
                created_at=i,
                text="x",
                lang="el",
                **kw,
            )
        )
    return tweets


def _assert_mass_conserved(edges: dict) -> None:
    ins, outs, und = degree_distributions(edges)
    out_n, in_n, und_n = defaultdict(set), defaultdict(set), defaultdict(set)
    for s, d in edges:
        out_n[s].add(d)
        in_n[d].add(s)
        und_n[s].add(d)
        und_n[d].add(s)
    verts = set(out_n) | set(in_n)
    for hist in (ins, outs, und):
        assert sum(hist.values()) == len(verts)
    assert sum(d * c for d, c in ins.items()) == len(edges)
    assert sum(d * c for d, c in outs.items()) == len(edges)
    assert sum(d * c for d, c in und.items()) == sum(len(s) for s in und_n.values())


def test_criterion_07_graphs_match_brute_force():
    rng = random.Random(77)
    tweets = _random_tweets(n_tweets=10_000, n_users=1_000, seed=71)

    expected = {k: defaultdict(int) for k in ("retweet", "mention", "reply", "quote")}
    for t in tweets:
        if t.retweet_of:
            expected["retweet"][(t.author, t.retweet_of[1])] += 1
        if t.mentions and not t.retweet_of:
            for m in t.mentions:
                expected["mention"][(t.author, m)] += 1
        if t.reply_to:
            expected["reply"][(t.author, t.reply_to[1])] += 1
        if t.quote_of:
            expected["quote"][(t.author, t.quote_of[1])] += 1

    graphs = extract_interactions(tweets)
    for kind in ("retweet", "mention", "reply", "quote"):
        assert graphs[kind] == dict(expected[kind]), kind
        assert sum(graphs[kind].values()) == sum(expected[kind].values())
        _assert_mass_conserved(graphs[kind])

    favs = []
    seen_pairs = set()
    for _ in range(3000):
        t = tweets[rng.randrange(len(tweets))]
        u = rng.randrange(1, 1001)
        if (u, t.id) in seen_pairs:
            continue
        seen_pairs.add((u, t.id))
        favs.append(FavoriteRecord(user=u, tweet=t.id, tweet_author=t.author, observed_at=0))
    fav_expected = defaultdict(int)
    for f in favs:
        fav_expected[(f.user, f.tweet_author)] += 1
    fg = favorite_graph(favs)
    assert fg == dict(fav_expected)
    _assert_mass_conserved(fg)

    members = {
        lid: {rng.randrange(1, 1001) for _ in range(rng.randrange(2, 40))}
        for lid in range(150)
    }
    members[999] = set(range(1, 602))  # above the cap, must be skipped
    lg, skipped = list_similarity(members, member_cap=500)
    assert skipped == [999]
    list_expected = defaultdict(int)
    for lid, us in members.items():
        if lid == 999:
            continue
        for a in us:
            for b in us:
                if a < b:
                    list_expected[(a, b)] += 1
    assert lg == dict(list_expected)
    _assert_mass_conserved(lg)


# -- criterion 8: favorites walk stop rule ---------------------------------------


def test_criterion_08_favorites_walk_stop_rule():
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

    def scan() -> int:
        mark = len(crawler.log)
        while crawler._step_scan("favorites"):
            pass
        return sum(1 for r in crawler.log[mark:] if r["endpoint"] == "favorites_list")

    assert scan() == 2  # 200 then a short 190: history fully read
    assert len(store.all_favorites()) == 390

    # ten new likes land on top of 390 already-stored ones
    for t in tweets[390:]:
        w.emit_like(liker, t.id)
    w.advance(8 * DAY)

    requests = scan()
    got = {f.tweet for f in store.all_favorites()}
    assert {t.id for t in tweets} <= got  # every one of the ten captured
    assert len(got) == 400
    # page one held 10 new + 190 known, not yet past the 190-known line, so
    # the walk continued; the second (all-known) page crossed it and stopped
    assert requests == 2


# -- criterion 9: snapshot refresh dedup -----------------------------------------


def _snapshot(**kw) -> UserSnapshot:
    base = dict(
        id=1, screen_name="maria", name="Μαρία", bio="γεια", location="Αθήνα",
        time_zone="Athens", ui_lang="el", profile_url="https://x.gr",
        created_at=100, tweet_count=5, followers_count=10, friends_count=20,
        favourites_count=2, protected=False, verified=False, observed_at=1000,
    )
    base.update(kw)
    return UserSnapshot(**base)


def test_criterion_09_snapshot_dedup_rule():
    # tweet_count-only refreshes store nothing
    store = Store()
    assert store.put_snapshot(_snapshot()) is PutSnapshotResult.STORED
    before = store.mutations
    result = store.put_snapshot(_snapshot(tweet_count=99, observed_at=2000))
    assert result is PutSnapshotResult.SKIPPED_TWEET_COUNT_ONLY
    assert len(store.snapshots[1]) == 1
    assert store.mutations == before

    # any other field change stores a new version, every field checked
    for f in dataclasses.fields(UserSnapshot):
        if f.name in ("id", "tweet_count", "observed_at"):
            continue
        fresh = Store()
        fresh.put_snapshot(_snapshot())
        old = getattr(_snapshot(), f.name)
        if isinstance(old, bool):
            new = not old
        elif isinstance(old, int):
            new = old + 1
        else:
            new = old + "x"
        result = fresh.put_snapshot(_snapshot(**{f.name: new, "observed_at": 2000}))
        assert result is PutSnapshotResult.STORED, f.name
        assert len(fresh.snapshots[1]) == 2, f.name


# -- criterion 10: end-to-end determinism ------------------------------------------


def _full_pipeline(workdir: Path) -> dict[str, bytes]:
    w = World(
        WorldConfig(
            seed=5, n_users=80, community_fractions={"el": 0.6, "en": 0.4},
            mixed_fraction=0.1,
        )
    )
    store = Store()
    crawler = Crawler(w, store, RateLimiter(), SimClock(w), SchedulerConfig())
    crawler.run(w.cfg.start_time + 5 * DAY)
    w.frozen = True
    crawler.drain()

    blobs = {"runlog": "\n".join(dumps(r) for r in crawler.log).encode()}
    store.save(workdir)
    for p in sorted(workdir.iterdir()):
        blobs["store/" + p.name] = p.read_bytes()

    users = sorted(store.users_in_class(UserClass.TRACKED, UserClass.TARGET))
    vpath = workdir / "vectors.jsonl"
    export_vectors(Vectorizer(store), users, w.now, vpath)
    blobs["vectors"] = vpath.read_bytes()
    return blobs


def test_criterion_10_end_to_end_determinism():
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        first = _full_pipeline(Path(a))
        second = _full_pipeline(Path(b))
    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    assert len(first["runlog"]) > 0 and len(first["vectors"]) > 0


# -- criterion 11: vectorizer against a naive reference -----------------------------
#
# The package computes vectors through shared caches (interaction adjacency,
# follow snapshot, favorite maps, per-context corpora). The reference below
# recomputes every field from the raw store with plain loops and no sharing;
# counts must agree exactly, float statistics to 1e-9 relative.

T0 = 1_470_000_000
T_END = T0 + 15 * DAY

LEX = Lexicons(
    stopwords=frozenset({"the", "a", "και", "να"}),
    articles=frozenset({"ο", "η", "το"}),
    pronouns=frozenset({"εγώ", "εσύ", "she"}),
    expletives=frozenset({"damn", "γαμωτο"}),
    locations=frozenset({"αθήνα", "κρήτη"}),
    emoticons=frozenset({":)", ":(", ":D"}),
    sentiment={
        "καλό": (2.0, 0.0),
        "κακό": (0.0, 3.0),
        "good": (1.0, 0.0),
        "bad": (0.0, 2.0),
        "μετρια": (0.5, 0.5),
    },
    gender_patterns=(("ούλα ", "f"), ("άκος ", "m")),
    entities={
        "pao": ("pao", "παναθηναϊκός"),
        "osfp": ("osfp", "ολυμπιακός"),
        "αθήνα": ("αθήνα",),
    },
)

_WORD_POOL = [
    "καλό", "κακό", "good", "bad", "μετρια", "ο", "η", "το", "εγώ", "εσύ",
    "she", "damn", "γαμωτο", "αθήνα", "κρήτη", "σήμερα", "αύριο", "τρέχω",
    "hello", "world", "the", "a", "και", "να", "2024", "Café", "ΝΙΚΗ", "ΟΛΕ",
    "μαριούλα", "κωστάκος", "παναθηναϊκός", "ολυμπιακός", "pao", "osfp",
    ":)", ":(", ":D", "@alice", "@bob", "#GR", "#νίκη", "http://x.gr/a",
    "xx--!!", "🙂",
]
_TAG_POOL = ["GR", "νίκη", "Pao", "ele2024"]
_HOST_POOL = ["maria3.gr", "x.gr", "news.example.com"]
_SOURCE_POOL = ["web", "android", "ios"]


def _build_reference_store() -> Store:
    rng = random.Random(417)
    store = Store()

    def text() -> str:
        if rng.random() < 0.04:
            return "ΝΙΚΗ ΟΛΕ 123!"
        return " ".join(rng.choice(_WORD_POOL) for _ in range(rng.randrange(3, 12)))

    emitted: list[tuple[int, int]] = []  # (id, author)
    now = T0
    for i in range(1, 1301):
        now += rng.randrange(450, 1800)
        author = rng.randrange(1, 10) if rng.random() < 0.6 else rng.randrange(11, 61)
        kw = {}
        if emitted:
            roll = rng.random()
            pick = lambda: emitted[rng.randrange(len(emitted))]
            if roll < 0.20:
                kw["retweet_of"] = pick()
            elif roll < 0.35:
                kw["reply_to"] = pick()
            elif roll < 0.43:
                kw["quote_of"] = pick()
        if rng.random() < 0.25:
            kw["mentions"] = tuple(
                rng.randrange(1, 61) for _ in range(rng.randrange(1, 4))
            )
        if rng.random() < 0.30:
            kw["hashtags"] = tuple(
                rng.choice(_TAG_POOL) for _ in range(rng.randrange(1, 3))
            )
        if rng.random() < 0.25:
            kw["urls"] = tuple(
                ("http://t.co/x", f"https://{rng.choice(_HOST_POOL)}/p/{i}")
                for _ in range(rng.randrange(1, 3))
            )
        t = Tweet(
            id=i,
            author=author,
            created_at=now,
            text=text(),
            lang=rng.choice(["el", "el", "en", "und"]),
            source_client=rng.choice(_SOURCE_POOL),
            **kw,
        )
        store.put_tweet(t)
        emitted.append((i, author))

    profiles = {
        1: dict(screen_name="maria3", name="Μαριούλα Κ", bio="τρέχω στην Αθήνα! 42"),
        2: dict(screen_name="KostasGR", name="Κωστάκος", bio="Runner. Coffee."),
        3: dict(screen_name="alice", name="Alice", bio=""),
        4: dict(screen_name="bob99", name="BOB", bio="ΓΕΙΑ ΣΑΣ 123"),
        5: dict(screen_name="eve_", name="eve", bio="γεια"),
        6: dict(screen_name="mallory", name="Mallory", bio="bye"),
        7: dict(screen_name="dead1", name="Gone", bio="was here"),
        8: dict(screen_name="susp", name="Held", bio="hm"),
        10: dict(screen_name="lurker", name="Quiet", bio=""),
    }
    for u, p in profiles.items():
        store.put_snapshot(
            UserSnapshot(
                id=u,
                location="Αθήνα" if u % 2 else "",
                time_zone="Athens",
                ui_lang="el" if u % 3 else "en",
                profile_url=f"https://example.com/{u}" if u % 2 else "",
                created_at=T0 - (100 + 7 * u) * DAY,
                tweet_count=50 * u,
                followers_count=0 if u == 10 else 10 * u,
                friends_count=3 * u,
                favourites_count=u,
                protected=u == 10,
                verified=u == 4,
                observed_at=T0,
                **p,
            )
        )
    # a later refresh changes the bio: as-of selection must pick this one
    store.put_snapshot(
        UserSnapshot(
            id=1, screen_name="maria3", name="Μαριούλα Κ", bio="νέο bio 2024",
            location="Αθήνα", time_zone="Athens", ui_lang="el",
            profile_url="https://example.com/1", created_at=T0 - 107 * DAY,
            tweet_count=60, followers_count=11, friends_count=4,
            favourites_count=1, protected=False, verified=False,
            observed_at=T0 + 5 * DAY,
        )
    )
    # and one from after the vector time, which must be ignored
    store.put_snapshot(
        UserSnapshot(
            id=1, screen_name="maria3", name="Νέο Όνομα", bio="αργότερα",
            location="", time_zone="Athens", ui_lang="el", profile_url="",
            created_at=T0 - 107 * DAY, tweet_count=70, followers_count=12,
            friends_count=5, favourites_count=1, protected=False,
            verified=False, observed_at=T0 + 16 * DAY,
        )
    )

    classes = {
        1: UserClass.TARGET, 2: UserClass.TRACKED, 3: UserClass.TARGET,
        4: UserClass.TRACKED, 5: UserClass.TRACKED, 6: UserClass.STOPPED,
        7: UserClass.DEAD, 8: UserClass.SUSPENDED,
    }
    for u in range(11, 26):
        classes[u] = UserClass.TARGET
    for u in range(26, 41):
        classes[u] = UserClass.TRACKED
    for u in range(41, 46):
        classes[u] = UserClass.STOPPED
    for u, c in classes.items():
        store.set_class(u, c, T0)

    for u in range(1, 7):
        store.put_crawl_state(
            CrawlState(
                user=u,
                last_crawled_at=T0 + 10 * DAY,
                friends_scanned_at=T0 + 2 * DAY,
                followers_scanned_at=T0 + 3 * DAY,
                est_rate=1.5 * u,
            )
        )

    for u in range(1, 9):
        frng = random.Random(1000 + u)
        store.record_follow_scan(FollowScan(kind="friends", subject=u, at=T0 + 2 * DAY))
        for dst in frng.sample([v for v in range(1, 61) if v != u], 6 + u):
            store.append_follow(FollowEdge(src=u, dst=dst, observed_at=T0 + 2 * DAY))
        store.record_follow_scan(
            FollowScan(kind="followers", subject=u, at=T0 + 3 * DAY)
        )
        for src in frng.sample([v for v in range(1, 61) if v != u], 4 + u):
            store.append_follow(FollowEdge(src=src, dst=u, observed_at=T0 + 3 * DAY))
    # rescan of user 1's friends sees a shrunken set: the rest were unfollowed
    kept = sorted(e.dst for e in store.follow_log if e.src == 1)[:3]
    store.record_follow_scan(FollowScan(kind="friends", subject=1, at=T0 + 6 * DAY))
    for dst in kept:
        store.append_follow(FollowEdge(src=1, dst=dst, observed_at=T0 + 6 * DAY))
    # observations after the vector time must not count
    store.record_follow_scan(FollowScan(kind="friends", subject=2, at=T0 + 16 * DAY))
    store.append_follow(FollowEdge(src=2, dst=59, observed_at=T0 + 16 * DAY))

    fav_rng = random.Random(99)
    for _ in range(300):
        tid, tauth = emitted[fav_rng.randrange(len(emitted))]
        u = fav_rng.randrange(1, 61)
        at = T0 + fav_rng.randrange(0, 14 * DAY)
        store.put_favorite(
            FavoriteRecord(user=u, tweet=tid, tweet_author=tauth, observed_at=at)
        )
    tid, tauth = emitted[5]
    store.put_favorite(  # observed after the vector time: excluded
        FavoriteRecord(user=1, tweet=tid, tweet_author=tauth, observed_at=T0 + 16 * DAY)
    )

    for tid in (900_001, 900_002, 900_003):
        store.add_gone_ref(1, tid)
    store.add_gone_ref(9, 900_004)
    return store


# -- the naive reference ------------------------------------------------------


def _in_ranges(ch: str, ranges) -> bool:
    return any(lo <= ord(ch) <= hi for lo, hi in ranges)


def _n_greek(s: str) -> int:
    return sum(1 for ch in s if _in_ranges(ch, TARGET_SCRIPT_RANGES))


def _n_punct(s: str) -> int:
    import unicodedata

    return sum(1 for ch in s if unicodedata.category(ch).startswith("P"))


def _bucket(gap: int) -> int:
    b = 1
    while max(gap, 0) >= b:
        b <<= 1
    return b


def _hist(gaps) -> dict:
    c = Counter(_bucket(g) for g in gaps)
    return {k: c[k] for k in sorted(c)}


def _stats(values) -> tuple | None:
    if not values:
        return None
    return (
        float(min(values)),
        float(max(values)),
        statistics.fmean(values),
        float(statistics.median(values)),
        statistics.pstdev(values),
    )


def _top(counter, k=10) -> list:
    ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    return [[key, n] for key, n in ranked[:k]]


def _pcnt(num, den):
    return None if den == 0 else 100.0 * num / den


def _ratio(num, den):
    return None if den == 0 else num / den


def _edit(a: str, b: str) -> int:
    rows = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        nxt = [i]
        for j, cb in enumerate(b, 1):
            nxt.append(min(rows[j] + 1, nxt[j - 1] + 1, rows[j - 1] + (ca != cb)))
        rows = nxt
    return rows[-1]


def _day(ts: int) -> str:
    from datetime import datetime, timezone

    return datetime.fromtimestamp(ts, tz=timezone.utc).date().isoformat()


def _naive_tokens(text: str) -> list[tuple[str, str]]:
    import re

    out = []
    for chunk in text.split():
        if chunk.startswith(("http://", "https://")):
            out.append(("url", chunk))
        elif chunk in LEX.emoticons:
            out.append(("emoticon", chunk))
        elif chunk[0] == "@" and re.match(r"@\w+", chunk):
            out.append(("mention", re.match(r"@\w+", chunk).group()))
        elif chunk[0] == "#" and re.match(r"#\w+", chunk):
            out.append(("hashtag", re.match(r"#\w+", chunk).group()))
        else:
            out.extend(("word", p) for p in re.findall(r"[^\W_]+", chunk))
    return out


def _naive_profile(s: UserSnapshot | None, klass: UserClass) -> dict:
    fields = [
        "screen_name", "name", "created_at", "tweet_count", "favourites_count",
        "followers_count", "friends_count", "location", "time_zone",
        "protected", "verified", "screen_name_len", "screen_name_upper",
        "screen_name_lower", "screen_name_digit", "screen_name_alpha",
        "name_len", "name_upper", "name_lower", "name_digit", "name_alpha",
        "name_greek", "fr_fo_ratio", "has_location", "lang", "user_url",
        "bio_words", "bio_upper_words", "bio_lower_words",
        "bio_punctuation_chars", "bio_digit_chars", "bio_alpha_chars",
        "bio_upper_chars", "bio_lower_chars", "bio_greek_chars",
        "bio_total_chars",
    ]
    out = {f: None for f in fields}
    out["dead"] = klass is UserClass.DEAD
    out["suspended"] = klass is UserClass.SUSPENDED
    if s is None:
        return out
    out.update(
        screen_name=s.screen_name, name=s.name, created_at=s.created_at,
        tweet_count=s.tweet_count, favourites_count=s.favourites_count,
        followers_count=s.followers_count, friends_count=s.friends_count,
        location=s.location, time_zone=s.time_zone, protected=s.protected,
        verified=s.verified, lang=s.ui_lang, user_url=s.profile_url,
        has_location=bool(s.location),
        fr_fo_ratio=_ratio(s.friends_count, s.followers_count),
    )
    for label, v in (("screen_name", s.screen_name), ("name", s.name)):
        out[label + "_len"] = len(v)
        out[label + "_upper"] = sum(1 for c in v if c.isupper())
        out[label + "_lower"] = sum(1 for c in v if c.islower())
        out[label + "_digit"] = sum(1 for c in v if c.isdigit())
        out[label + "_alpha"] = sum(1 for c in v if c.isalpha())
    out["name_greek"] = _n_greek(s.name)
    bio = s.bio
    out["bio_words"] = len(bio.split())
    out["bio_upper_words"] = sum(1 for w in bio.split() if w.isupper())
    out["bio_lower_words"] = sum(1 for w in bio.split() if w.islower())
    out["bio_punctuation_chars"] = _n_punct(bio)
    out["bio_digit_chars"] = sum(1 for c in bio if c.isdigit())
    out["bio_alpha_chars"] = sum(1 for c in bio if c.isalpha())
    out["bio_upper_chars"] = sum(1 for c in bio if c.isupper())
    out["bio_lower_chars"] = sum(1 for c in bio if c.islower())
    out["bio_greek_chars"] = _n_greek(bio)
    out["bio_total_chars"] = len(bio)
    return out


def _naive_activity(mine: list[Tweet], gone: int, birth_hint, as_of: int) -> dict:
    from datetime import datetime, timedelta, timezone

    times = [t.created_at for t in mine]
    top = [t for t in mine if t.retweet_of is None and t.reply_to is None]
    rts = [t for t in mine if t.retweet_of is not None]
    replies = [t for t in mine if t.reply_to is not None]
    gaps = lambda seq: [b.created_at - a.created_at for a, b in zip(seq, seq[1:])]

    per_day = Counter(_day(ts) for ts in times)
    hour = lambda ts: datetime.fromtimestamp(ts, tz=timezone.utc).hour
    wday = lambda ts: datetime.fromtimestamp(ts, tz=timezone.utc).weekday()

    day_gaps: dict[str, int] = {}
    for a, b in zip(mine, mine[1:]):
        if _day(a.created_at) == _day(b.created_at):
            d = _day(b.created_at)
            g = b.created_at - a.created_at
            if g > day_gaps.get(d, -1):
                day_gaps[d] = g

    def day_stats(counts):
        if not counts:
            return None
        st = _stats(sorted(counts.values()))
        lo = min(counts, key=lambda d: (counts[d], d))
        hi = min(counts, key=lambda d: (-counts[d], d))
        return [*st, lo, hi]

    birth = birth_hint if birth_hint is not None else (times[0] if times else None)
    if birth is not None:
        calendar = Counter()
        d = datetime.fromtimestamp(birth, tz=timezone.utc).date()
        stop = datetime.fromtimestamp(as_of, tz=timezone.utc).date()
        while d <= stop:
            calendar[d.isoformat()] = 0
            d += timedelta(days=1)
        calendar.update(per_day)
        per_all_days = day_stats(calendar)
    else:
        per_all_days = None

    if times:
        cutoff = times[-1] - 30 * DAY
        mh = Counter(hour(ts) for ts in times if ts >= cutoff)
        last_month = {h: mh.get(h, 0) for h in range(24)}
    else:
        last_month = {h: 0 for h in range(24)}

    ph = Counter(hour(ts) for ts in times)
    pw = Counter(wday(ts) for ts in times)
    return {
        "seen_total": len(mine),
        "total_inferred": len(mine) + gone,
        "seen_greek_total": sum(1 for t in mine if t.lang == "el"),
        "all_intervals": _hist(gaps(mine)),
        "seen_top_tweets": len(top),
        "top_tweets_pcnt": _pcnt(len(top), len(mine)),
        "top_intervals": _hist(gaps(top)),
        "rt_intervals": _hist(gaps(rts)),
        "reply_intervals": _hist(gaps(replies)),
        "plain_tweets": sum(
            1
            for t in mine
            if t.retweet_of is None and not t.hashtags and not t.mentions and not t.urls
        ),
        "most_used_sources": [
            [s, n]
            for s, n in sorted(
                Counter(t.source_client for t in mine).items(),
                key=lambda kv: (-kv[1], kv[0]),
            )
        ],
        "time_between_any": _stats(gaps(mine)),
        "time_between_top": _stats(gaps(top)),
        "time_between_rt": _stats(gaps(rts)),
        "time_between_replies": _stats(gaps(replies)),
        "max_daily_interval": _stats(sorted(day_gaps.values())),
        "last_tweeted_at": times[-1] if times else None,
        "life_time": (times[-1] - birth) if times and birth is not None else None,
        "tweets_per_hour_of_day": {h: ph.get(h, 0) for h in range(24)},
        "tweets_per_weekday": {d: pw.get(d, 0) for d in range(7)},
        "tweets_per_active_day": day_stats(per_day),
        "tweets_per_day": per_all_days,
        "last_month": last_month,
    }


def _naive_interaction(u: int, corpus: list[Tweet], mine: list[Tweet]) -> dict:
    outw = {k: defaultdict(Counter) for k in ("mention", "retweet", "reply")}
    inw = {k: defaultdict(Counter) for k in ("mention", "retweet", "reply")}

    def edge(kind, src, dst):
        outw[kind][src][dst] += 1
        inw[kind][dst][src] += 1

    replies_to: Counter = Counter()
    for t in corpus:
        if t.retweet_of is not None:
            edge("retweet", t.author, t.retweet_of[1])
        elif t.mentions:
            for m in t.mentions:
                edge("mention", t.author, m)
        if t.reply_to is not None:
            edge("reply", t.author, t.reply_to[1])
            if t.reply_to[1] == u and t.reply_to[1] != t.author:
                replies_to[t.reply_to[0]] += 1

    out: dict = {}
    tops = {
        "mention": ("most_mentioned_users", "most_mentioned_by"),
        "retweet": ("most_retweeted_users", "most_retweeted_by"),
        "reply": ("most_replied_to", "most_replied_by"),
    }
    for kind in ("mention", "retweet", "reply"):
        mo, mi = outw[kind].get(u, Counter()), inw[kind].get(u, Counter())
        out[kind + "_indegree"] = len(mi)
        out[kind + "_outdegree"] = len(mo)
        out[kind + "_inweight"] = sum(mi.values())
        out[kind + "_outweight"] = sum(mo.values())
        out[kind + "_avg_inweight"] = _ratio(sum(mi.values()), len(mi))
        out[kind + "_avg_outweight"] = _ratio(sum(mo.values()), len(mo))
        out[kind + "_out_in_ratio"] = _ratio(len(mo), len(mi))
        out[tops[kind][0]] = _top(mo)
        out[tops[kind][1]] = _top(mi)

    seen = len(mine)
    out["mention_pcnt"] = _pcnt(
        sum(1 for t in mine if t.retweet_of is None and t.mentions), seen
    )
    out["retweet_pcnt"] = _pcnt(sum(1 for t in mine if t.retweet_of is not None), seen)
    out["replies_pcnt"] = _pcnt(sum(1 for t in mine if t.reply_to is not None), seen)
    out["seen_replied_to"] = len(replies_to)
    if replies_to:
        tid = min(replies_to, key=lambda t: (-replies_to[t], t))
        out["most_engaging_tweet"] = [tid, replies_to[tid]]
    else:
        out["most_engaging_tweet"] = None
    return out


def _naive_relation(u: int, store: Store, as_of: int) -> dict:
    friend_scans: dict[int, int] = {}
    follower_scans: dict[int, int] = {}
    for s in store.follow_scans:
        if s.at > as_of:
            continue
        book = friend_scans if s.kind == "friends" else follower_scans
        if s.at > book.get(s.subject, -1):
            book[s.subject] = s.at
    last_obs: dict[tuple[int, int], int] = {}
    for e in store.follow_log:
        if e.observed_at > as_of:
            continue
        if e.observed_at > last_obs.get((e.src, e.dst), -1):
            last_obs[(e.src, e.dst)] = e.observed_at
    fr: set[int] = set()
    fo: set[int] = set()
    for (src, dst), seen_at in last_obs.items():
        newest = max(friend_scans.get(src, -1), follower_scans.get(dst, -1))
        if newest <= seen_at:
            if src == u:
                fr.add(dst)
            if dst == u:
                fo.add(src)

    gr = lambda vs: sum(1 for v in vs if store.user_class(v) is UserClass.TARGET)
    tr = lambda vs: sum(1 for v in vs if store.user_class(v) in TRACKABLE)
    both, union = fr & fo, fr | fo

    fav_in: Counter = Counter()
    fav_out: Counter = Counter()
    for f in store.all_favorites():
        if f.observed_at > as_of:
            continue
        if f.tweet_author == u:
            fav_in[f.user] += 1
        if f.user == u:
            fav_out[f.tweet_author] += 1

    state = store.crawl_states.get(u)
    return {
        "fr_scanned_at": state.friends_scanned_at if state else None,
        "seen_fr": len(fr),
        "gr_fr": gr(fr),
        "gr_fr_pcnt": _pcnt(gr(fr), len(fr)),
        "tr_fr": tr(fr),
        "tr_fr_pcnt": _pcnt(tr(fr), len(fr)),
        "fo_scanned_at": state.followers_scanned_at if state else None,
        "seen_fo": len(fo),
        "gr_fo": gr(fo),
        "gr_fo_pcnt": _pcnt(gr(fo), len(fo)),
        "tr_fo": tr(fo),
        "tr_fo_pcnt": _pcnt(tr(fo), len(fo)),
        "fr_fo_jaccard": (len(both) / len(union)) if union else 0.0,
        "fr_and_fo": len(both),
        "fr_or_fo": len(union),
        "gr_fr_fo": gr(union),
        "gr_fr_fo_pcnt": _pcnt(gr(union), len(union)),
        "greek": store.user_class(u) is UserClass.TARGET,
        "favoriters": len(fav_in),
        "favorited": len(fav_out),
        "most_favoriters": _top(fav_in),
        "most_favorited": _top(fav_out),
    }


def _naive_text(mine: list[Tweet], screen_name: str | None) -> dict:
    authored = [t for t in mine if t.retweet_of is None]
    rts = [t for t in mine if t.retweet_of is not None]

    words_low: Counter = Counter()
    bigrams: Counter = Counter()
    wptw, urls_ptw = [], []
    total_words = total_bigrams = all_caps = nocaps = tokens_n = emot = 0
    hits = dict.fromkeys(("articles", "pronouns", "expletives", "locations"), 0)
    caps_tweets = 0
    ch = Counter()
    emoji_n = 0
    gender = {"m": 0, "f": 0}
    for t in authored:
        toks = _naive_tokens(t.text)
        tokens_n += len(toks)
        emot += sum(1 for kind, _ in toks if kind == "emoticon")
        ws = [tok for kind, tok in toks if kind == "word"]
        low = [w.lower() for w in ws]
        words_low.update(low)
        total_words += len(ws)
        wptw.append(len(ws))
        for a, b in zip(low, low[1:]):
            bigrams[a + " " + b] += 1
            total_bigrams += 1
        all_caps += sum(1 for w in ws if len(w) > 1 and w.isupper())
        nocaps += sum(1 for w in ws if not any(c.isupper() for c in w))
        for name in hits:
            vocab = getattr(LEX, name)
            hits[name] += sum(1 for w in low if w in vocab)
        if t.text.isupper():
            caps_tweets += 1
        ch["total"] += len(t.text)
        ch["punct"] += _n_punct(t.text)
        ch["digit"] += sum(1 for c in t.text if c.isdigit())
        ch["alpha"] += sum(1 for c in t.text if c.isalpha())
        ch["upper"] += sum(1 for c in t.text if c.isupper())
        ch["lower"] += sum(1 for c in t.text if c.islower())
        ch["greek"] += _n_greek(t.text)
        emoji_n += sum(1 for c in t.text if _in_ranges(c, EMOJI_RANGES))
        low_text = t.text.lower()
        for pattern, g in LEX.gender_patterns:
            gender[g] += low_text.count(pattern)

    tags = Counter(h.lower() for t in authored for h in t.hashtags)
    rt_tags = Counter(h.lower() for t in rts for h in t.hashtags)

    def host_of(url):
        try:
            return urlsplit(url).hostname
        except ValueError:
            return None

    hosts, rt_hosts = Counter(), Counter()
    dists = []
    url_total = 0
    for t in authored:
        urls_ptw.append(len(t.urls))
        url_total += len(t.urls)
        for _, expanded in t.urls:
            h = host_of(expanded)
            if h:
                hosts[h] += 1
                if screen_name:
                    dists.append(_edit(h, screen_name.lower()))
    for t in rts:
        for _, expanded in t.urls:
            h = host_of(expanded)
            if h:
                rt_hosts[h] += 1

    common_words = Counter({w: n for w, n in words_low.items() if w not in LEX.stopwords})
    common_bigrams = Counter(
        {bg: n for bg, n in bigrams.items() if not (set(bg.split(" ")) & LEX.stopwords)}
    )
    langs = Counter(t.lang for t in authored if t.lang != "und")
    g_total = gender["m"] + gender["f"]

    return {
        "total_words": total_words,
        "min_wptw": float(min(wptw)) if wptw else None,
        "avg_wptw": statistics.fmean(wptw) if wptw else None,
        "med_wptw": float(statistics.median(wptw)) if wptw else None,
        "std_wptw": statistics.pstdev(wptw) if wptw else None,
        "unique_words": len(words_low),
        "lex_freq": _ratio(len(words_low), total_words),
        "total_bigrams": total_bigrams,
        "unique_bigrams": len(bigrams),
        "bigram_lex_freq": _ratio(len(bigrams), total_bigrams),
        "articles": hits["articles"],
        "pronouns": hits["pronouns"],
        "expletives": hits["expletives"],
        "locations": hits["locations"],
        "emoticons": emot,
        "emoji": emoji_n,
        "alltokens": tokens_n,
        "all_caps_words": all_caps,
        "all_caps_words_pcnt": _pcnt(all_caps, total_words),
        "all_caps_tweets": caps_tweets,
        "all_caps_tweets_pcnt": _pcnt(caps_tweets, len(mine)),
        "all_nocaps_words": nocaps,
        "all_nocaps_words_pcnt": _pcnt(nocaps, total_words),
        "punctuation_chars": ch["punct"],
        "punctuation_pcnt": _pcnt(ch["punct"], ch["total"]),
        "total_chars": ch["total"],
        "digit_chars": ch["digit"],
        "digit_pcnt": _pcnt(ch["digit"], ch["total"]),
        "alpha_chars": ch["alpha"],
        "alpha_pcnt": _pcnt(ch["alpha"], ch["total"]),
        "upper_chars": ch["upper"],
        "upper_pcnt": _pcnt(ch["upper"], ch["total"]),
        "lower_chars": ch["lower"],
        "lower_pcnt": _pcnt(ch["lower"], ch["total"]),
        "greek_chars": ch["greek"],
        "greek_pcnt": _pcnt(ch["greek"], ch["total"]),
        "total_hashtags": sum(len(t.hashtags) for t in authored),
        "hashtags_per_tw": _stats([len(t.hashtags) for t in authored]),
        "uniq_hashtags": len(tags),
        "total_rt_hashtags": sum(len(t.hashtags) for t in rts),
        "uniq_rt_hashtags": len(rt_tags),
        "most_common_words": _top(common_words),
        "most_common_bigrams": _top(common_bigrams),
        "most_common_hashtags": _top(tags),
        "most_common_rt_hashtags": _top(rt_tags),
        "most_common_urls": _top(hosts),
        "most_common_rt_urls": _top(rt_hosts),
        "seen_urls": url_total,
        "urls_per_tw": _stats(urls_ptw),
        "avg_edit_distance": statistics.fmean(dists) if dists else None,
        "lexical_gender": (
            {"m": _pcnt(gender["m"], g_total), "f": _pcnt(gender["f"], g_total)}
            if g_total
            else None
        ),
        "number_of_languages": len(langs),
        "tweets_per_language": _top(langs, 5),
    }


def _naive_sentiment(mine: list[Tweet]) -> dict:
    authored = [t for t in mine if t.retweet_of is None]

    def score(text):
        pos = neg = 0.0
        for kind, tok in _naive_tokens(text):
            if kind != "word":
                continue
            s = LEX.sentiment.get(tok.lower())
            if s:
                pos += s[0]
                neg += s[1]
        return pos, neg

    day_pos: dict[str, list[float]] = defaultdict(list)
    day_neg: dict[str, list[float]] = defaultdict(list)
    scores = {}
    for t in authored:
        pos, neg = score(t.text)
        scores[t.id] = (pos, neg)
        if pos > 0:
            day_pos[_day(t.created_at)].append(pos)
        if neg > 0:
            day_neg[_day(t.created_at)].append(neg)

    inventory = {name: set(al) for name, al in LEX.entities.items()}
    for t in authored:
        for h in t.hashtags:
            inventory.setdefault(h.lower(), set()).add(h.lower())

    node_w: Counter = Counter()
    edge_w: Counter = Counter()
    ent_pos: dict[str, list[float]] = defaultdict(list)
    ent_neg: dict[str, list[float]] = defaultdict(list)
    for t in authored:
        low = t.text.lower()
        t_tags = {h.lower() for h in t.hashtags}
        hit = sorted(
            name
            for name, aliases in inventory.items()
            if any(a in low for a in aliases) or (aliases & t_tags)
        )
        pos, neg = scores[t.id]
        for name in hit:
            node_w[name] += 1
            if pos > 0:
                ent_pos[name].append(pos)
            if neg > 0:
                ent_neg[name].append(neg)
        for i, a in enumerate(hit):
            for b in hit[i + 1 :]:
                edge_w[a + "|" + b] += 1

    return {
        "daily_sentiment": {
            "pos": {d: statistics.fmean(v) for d, v in sorted(day_pos.items())},
            "neg": {d: statistics.fmean(v) for d, v in sorted(day_neg.items())},
        },
        "entity_overlap": {
            "nodes": {e: node_w[e] for e in sorted(node_w)},
            "edges": {e: edge_w[e] for e in sorted(edge_w)},
        },
        "senti_entities": {
            e: {
                "pos": statistics.fmean(ent_pos[e]) if ent_pos.get(e) else None,
                "neg": statistics.fmean(ent_neg[e]) if ent_neg.get(e) else None,
            }
            for e in sorted(node_w)
        },
    }


def _naive_vector(store: Store, u: int, as_of: int) -> dict:
    corpus = sorted(
        (t for t in store.all_tweets() if t.created_at <= as_of),
        key=lambda t: (t.created_at, t.id),
    )
    mine = [t for t in corpus if t.author == u]
    snapshot = store.snapshot_as_of(u, as_of)
    klass = store.user_class(u)

    merged = {"id": u, "vector_timestamp": as_of}
    merged.update(_naive_profile(snapshot, klass))
    merged.update(
        _naive_activity(
            mine,
            store.gone_count(u),
            snapshot.created_at if snapshot else None,
            as_of,
        )
    )
    merged.update(_naive_interaction(u, corpus, mine))
    merged.update(_naive_relation(u, store, as_of))
    merged.update(_naive_text(mine, snapshot.screen_name if snapshot else None))
    merged.update(_naive_sentiment(mine))
    return {f: merged[f] for f in FEATURE_FIELDS}


def _assert_close(path: str, got, want) -> None:
    if isinstance(want, bool) or isinstance(got, bool):
        assert got == want, f"{path}: {got!r} != {want!r}"
    elif isinstance(want, float) or isinstance(got, float):
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12), path
    elif isinstance(want, (list, tuple)) and isinstance(got, (list, tuple)):
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(f"{path}[{i}]", g, w)
    elif isinstance(want, dict):
        assert set(got) == set(want), f"{path}: key sets differ"
        for k in want:
            _assert_close(f"{path}[{k!r}]", got[k], want[k])
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


def test_criterion_11_vectors_match_naive_reference():
    store = _build_reference_store()
    in_window = [t for t in store.all_tweets() if t.created_at <= T_END]
    assert len(in_window) >= 1000

    vec = Vectorizer(store, LEX)
    for u in range(1, 11):
        got = vec.assemble_vector(u, T_END)
        assert list(got) == list(FEATURE_FIELDS)
        want = _naive_vector(store, u, T_END)
        for name in FEATURE_FIELDS:
            _assert_close(f"user {u}: {name}", got[name], want[name])
