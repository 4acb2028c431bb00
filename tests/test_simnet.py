import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from langcrawl.apiface import GONE, UserProtected, UserSuspended
from langcrawl.simnet import _YEARS, DAY, World, WorldConfig, exact_partition


def small_world(seed=3, **kw) -> World:
    cfg = WorldConfig(
        seed=seed,
        n_users=40,
        community_fractions={"el": 0.5, "en": 0.5},
        mixed_fraction=0.1,
        **kw,
    )
    return World(cfg)


def test_exact_partition_sums_and_rounds():
    assert exact_partition(10, {"a": 0.5, "b": 0.5}) == {"a": 5, "b": 5}
    assert exact_partition(3, {"a": 0.5, "b": 0.5}) == {"a": 2, "b": 1}
    counts = exact_partition(7, {"a": 0.6, "b": 0.3, "c": 0.1})
    assert sum(counts.values()) == 7
    assert counts["a"] == 4


def test_community_counts_are_exact():
    w = small_world()
    langs = [w.users[u].community for u in sorted(w.users)]
    assert langs.count("el") == 20
    assert langs.count("en") == 20
    assert sum(u in w.mixed_users for u in sorted(w.users)) == 4


def test_same_seed_same_world(tmp_path):
    a = small_world()
    b = small_world()
    a.advance(2 * DAY)
    b.advance(2 * DAY)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.export_jsonl(pa)
    b.export_jsonl(pb)
    assert pa.read_bytes() == pb.read_bytes()
    assert pa.stat().st_size > 0


def test_different_seed_different_history(tmp_path):
    a, b = small_world(seed=3), small_world(seed=4)
    a.advance(DAY)
    b.advance(DAY)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.export_jsonl(pa)
    b.export_jsonl(pb)
    assert pa.read_bytes() != pb.read_bytes()


def test_advance_emits_monotonic_tweets():
    w = small_world()
    w.advance(3 * DAY)
    log = list(w.tweet_log)
    assert log, "an active world must tweet"
    ats = [t.created_at for t in log]
    assert ats == sorted(ats)
    ids = [t.id for t in log]
    assert ids == sorted(ids)
    assert all(w.cfg.start_time <= at <= w.now for at in ats)


def test_advance_after_scripted_tweets_never_runs_the_clock_backward():
    w = small_world()
    w.advance(DAY)
    u = next(u for u in sorted(w.users) if w.users[u].status == "ok")
    w.emit_tweets(u, 100, gap=600)  # moves the clock past pending events
    scripted_end = w.now
    before = len(w.tweet_log)
    w.advance(1)
    fired = w.tweet_log[before:]
    assert fired, "events that fell due meanwhile must fire"
    assert all(t.created_at == scripted_end for t in fired)
    ats = [t.created_at for t in w.tweet_log]
    assert ats == sorted(ats), "id order must equal creation order"
    assert w.now == scripted_end + 1
    w.advance(2 * DAY)
    ats = [t.created_at for t in w.tweet_log]
    assert ats == sorted(ats)
    # ids are dense from 1 across organic and scripted tweets alike
    assert [t.id for t in w.tweet_log] == list(range(1, len(w.tweet_log) + 1))


def test_frozen_world_stops_organic_activity_but_serves_api():
    w = small_world()
    w.advance(DAY)
    w.frozen = True
    before = len(w.tweet_log)
    w.advance(DAY)
    assert len(w.tweet_log) == before
    u = next(iter(w.users))
    assert w.users_show(u).id == u


def test_emit_tweets_scripted():
    w = small_world()
    w.frozen = True
    u = next(iter(w.users))
    t0 = w.now
    out = w.emit_tweets(u, 5, gap=60)
    assert len(out) == 5
    assert [t.created_at for t in out] == [t0 + 60 * (i + 1) for i in range(5)]
    assert all(t.author == u for t in out)
    assert w.users[u].tweet_ids[-5:] == [t.id for t in out]


def test_emit_like_and_emit_kinds():
    w = small_world()
    w.frozen = True
    users = sorted(w.users)
    a, b = users[0], users[1]
    (target,) = w.emit_tweets(a, 1)
    (rt,) = w.emit_tweets(b, 1, kind="retweet", target=target)
    assert rt.retweet_of == (target.id, a)
    w.emit_like(b, target.id)
    recs = [rec for v in sorted(w.users) for rec in w.users[v].likes.values()]
    assert any(
        r.user == b and r.tweet == target.id and r.tweet_author == a for r in recs
    )
    for missing in (0, len(w.tweet_log) + 1):
        with pytest.raises(KeyError):
            w.emit_like(b, missing)


def test_churn_hides_user_from_api():
    w = small_world()
    w.advance(DAY)
    u = next(iter(w.users))
    w.churn_user(u, "suspended")
    with pytest.raises(UserSuspended):
        w.user_timeline(u)
    w.churn_user(u, "protected")
    with pytest.raises(UserProtected):
        w.user_timeline(u)
    w.churn_user(u, "ok")
    assert isinstance(w.user_timeline(u), list)


def test_timeline_pages_newest_first_with_since_max():
    w = small_world()
    w.frozen = True
    u = next(iter(w.users))
    tweets = w.emit_tweets(u, 30)
    page = w.user_timeline(u, count=10)
    assert [t.id for t in page] == [t.id for t in reversed(tweets[-10:])]
    older = w.user_timeline(u, max_id=page[-1].id - 1, count=10)
    assert older[0].id < page[-1].id
    newer = w.user_timeline(u, since=tweets[-3].id)
    assert [t.id for t in newer] == [tweets[-1].id, tweets[-2].id]


def test_timeline_serves_at_most_3200():
    w = World(WorldConfig(seed=9, n_users=1, community_fractions={"el": 1.0}))
    w.frozen = True
    u = next(iter(w.users))
    w.emit_tweets(u, 3300)
    got = []
    max_id = None
    while True:
        page = w.user_timeline(u, max_id=max_id, count=200)
        if not page:
            break
        got.extend(page)
        max_id = page[-1].id - 1
    assert len(got) == 3200
    total = len(w.users[u].tweets)
    assert total >= 3300


def test_statuses_lookup_hits_and_gone():
    w = small_world()
    w.frozen = True
    users = sorted(w.users)
    (t,) = w.emit_tweets(users[0], 1)
    res = w.statuses_lookup([t.id, 1 << 60])
    assert res[t.id].tweet.id == t.id
    assert res[1 << 60] is GONE
    # ids outside 1..len(tweet_log) were never made
    res = w.statuses_lookup([0, -1, len(w.tweet_log) + 1])
    assert all(r is GONE for r in res.values())
    w.churn_user(users[0], "deleted")
    assert w.statuses_lookup([t.id])[t.id] is GONE


def test_request_log_counts_api_traffic():
    w = small_world()
    w.advance(DAY)
    before = len(w.request_log)
    u = next(iter(w.users))
    w.user_timeline(u)
    w.users_show(u)
    assert len(w.request_log) == before + 2
    assert w.request_log[-1]["endpoint"] == "users_show"


def test_ground_truth_totals_match_log():
    w = small_world()
    w.advance(2 * DAY)
    per_user = sum(len(w.users[u].tweets) for u in sorted(w.users))
    assert per_user == len(w.tweet_log)


def test_follow_edges_ground_truth():
    w = small_world()
    w.frozen = True
    users = sorted(w.users)
    a, b = users[0], users[1]
    w.follow(a, b)
    assert b in w.users[a].friends
    # idempotent
    n = sum(len(v.friends) for v in w.users.values())
    w.follow(a, b)
    assert sum(len(v.friends) for v in w.users.values()) == n


def test_trends_match_a_recount_of_the_last_day():
    w = small_world()
    polls = 0
    # polls closer together than a day, and gaps longer than one
    for step in (3600, 6 * 3600, 7 * 3600, 2 * DAY, 1, 11 * 3600, 3 * DAY):
        w.advance(step)
        counts = Counter(
            tag for t in w.tweet_log if t.created_at >= w.now - DAY for tag in t.hashtags
        )
        top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        want = tuple(f"#{tag}" for tag, _ in top) or ("#welcome",)
        assert w.trends_place("Worldwide").trends == want
        polls += len(top) == 10
    assert polls, "no poll saw ten distinct tags"


# -- draws ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "n", [1, 2, 35, 100] + [2**k + d for k in (3, 6, 16, 40) for d in (-1, 1)]
)
def test_choice_draws_as_randrange_indexing(n):
    # the world draws from its pools with rng.choice and relies on it making
    # the draw seq[rng.randrange(len(seq))] makes, on every supported Python
    seq = range(n)
    for seed in (0, 1, 7, "3:user:5"):
        a, b = random.Random(seed), random.Random(seed)
        assert [a.choice(seq) for _ in range(300)] == [
            seq[b.randrange(len(seq))] for _ in range(300)
        ]
        assert a.random() == b.random()


def test_year_draw_is_the_draw_of_randrange():
    a, b = random.Random(11), random.Random(11)
    assert [a.choice(_YEARS) for _ in range(500)] == [
        str(b.randrange(1990, 2030)) for _ in range(500)
    ]


# -- stream ----------------------------------------------------------------------


def test_stream_filter_status_budget_position_and_case():
    w = small_world()
    w.advance(DAY)
    w.frozen = True
    assert w.stream_filter(["no such keyword"], 10**6) == []  # reads to the end
    a, b, c = sorted(w.users)[:3]
    hit = w.emit_tweet(a, text="Hello WORLD")
    w.emit_tweet(b, text="nothing here")
    w.emit_tweet(c, text="hello from a suspended account")
    later = w.emit_tweet(a, text="Say ΓΕΙΑ and hello")
    w.churn_user(c, "suspended")

    assert w.stream_filter(["hello"], 1) == [hit]  # the budget ends the read
    assert w.stream_filter(["HELLO", "γεια"], 10) == [later]
    assert w.stream_filter(["hello"], 10) == []  # nothing new since
    assert [(r["target"], r["outcome"]) for r in w.request_log[-4:]] == [
        (1, "ok:0"),
        (1, "ok:1"),
        (2, "ok:1"),
        (1, "ok:0"),
    ]


_STREAM_TOKENS = st.sampled_from(
    [" ", "a", "A", "ab", ".", "*", "|", "(", ")", "[", "\\", "+", "?", "^", "$",
     "σ", "ς", "Σ", "ΟΔΟΣ", "οδος", "ΟΔΌΣ", "Γεια", "ΓΕΙΑ"]
)
_STREAM_TEXT = st.lists(_STREAM_TOKENS, max_size=8).map("".join)


@settings(max_examples=200, deadline=None)
@given(keywords=st.lists(_STREAM_TEXT, max_size=4), texts=st.lists(_STREAM_TEXT, max_size=6))
def test_stream_match_is_the_substring_rule(keywords, texts):
    w = World(WorldConfig(seed=1, n_users=4))
    w.frozen = True
    u = min(w.users)
    tweets = [w.emit_tweet(u, text=text) for text in texts]
    want = [
        t for t in tweets if any(k.lower() in t.text.lower() for k in keywords)
    ]
    assert w.stream_filter(keywords, len(tweets) + 1) == want
    # a second keyword list replaces the first
    w.emit_tweet(u, text="a.b")
    assert w.stream_filter(["."], 10)[0].text == "a.b"
