from collections import Counter

import pytest
from hypothesis import given, strategies as st

from langcrawl import classify
from langcrawl.classify import (
    ClassifierConfig,
    LangStats,
    Verdict,
    classify_user,
    daily_pass,
    lang_stats,
    name_or_bio_matches,
    neighbor_resolve,
    retweet_seed,
    run_classification,
)
from langcrawl.lexicons import load_default
from langcrawl.model import FollowEdge, Tweet, UserClass, UserSnapshot
from langcrawl.store import Store

CFG = ClassifierConfig()
NAMES = load_default().common_names


def snap(name="John", bio="just tweets") -> UserSnapshot:
    return UserSnapshot(
        id=1, screen_name="x", name=name, bio=bio, location="", time_zone="",
        ui_lang="en", profile_url="", created_at=0, tweet_count=0,
        followers_count=0, friends_count=0, favourites_count=0,
        protected=False, verified=False, observed_at=0,
    )


def verdict(total, target, snapshot=None):
    return classify_user(LangStats(1, total, target), snapshot, CFG, NAMES)


GREEK = snap(name="Μαρία")


# One row per comparison the thresholds pin down. The snapshot column only
# matters for the second membership rule.
BOUNDARIES = [
    # high-share rule: total > 100, share >= 0.20
    (101, 21, None, Verdict.TARGET),
    (105, 21, None, Verdict.TARGET),       # share exactly 0.20 qualifies
    (100, 20, None, Verdict.INCONCLUSIVE), # total must exceed 100
    (101, 20, None, Verdict.INCONCLUSIVE), # share just below
    (150, 40, None, Verdict.TARGET),
    # profile-backed rule: total > 500, share >= 0.10, name or bio evidence
    (501, 51, GREEK, Verdict.TARGET),
    (510, 51, GREEK, Verdict.TARGET),      # share exactly 0.10 qualifies
    (501, 50, GREEK, Verdict.INCONCLUSIVE),
    (501, 51, None, Verdict.INCONCLUSIVE), # no evidence
    (500, 50, GREEK, Verdict.INCONCLUSIVE),
    # stop rule: total > 500, share < 0.01
    (501, 5, None, Verdict.STOP),
    (600, 5, None, Verdict.STOP),
    (600, 6, None, Verdict.INCONCLUSIVE),  # share exactly 0.01 is not below
    (500, 0, None, Verdict.INCONCLUSIVE),  # total must exceed 500
    (0, 0, None, Verdict.INCONCLUSIVE),
    (50, 49, None, Verdict.INCONCLUSIVE),  # share high, sample too small
]


@pytest.mark.parametrize("total,target,snapshot,expected", BOUNDARIES)
def test_rule_boundaries(total, target, snapshot, expected):
    assert verdict(total, target, snapshot) is expected


def test_membership_beats_stop():
    # plenty of tweets, high share: never stopped no matter the volume
    assert verdict(10_000, 2_500) is Verdict.TARGET


def test_name_or_bio_matches():
    assert name_or_bio_matches(GREEK, CFG, NAMES)
    assert name_or_bio_matches(snap(bio="γεια σου"), CFG, NAMES)
    assert name_or_bio_matches(snap(name="Maria"), CFG, NAMES)  # known latin spelling
    assert not name_or_bio_matches(snap(), CFG, NAMES)
    assert not name_or_bio_matches(None, CFG, NAMES)


def test_neighbor_vote_strictly_above_fraction():
    assert neighbor_resolve(31, 100) is Verdict.TARGET
    assert neighbor_resolve(30, 100) is Verdict.INCONCLUSIVE
    assert neighbor_resolve(0, 0) is Verdict.INCONCLUSIVE
    assert neighbor_resolve(1, 1) is Verdict.TARGET


def test_retweet_seed_threshold():
    assert retweet_seed(10)
    assert not retweet_seed(9)


def test_daily_pass_rows():
    rows = [
        LangStats(1, 501, 9),   # 1.8%, demote
        LangStats(2, 501, 11),  # 2.2%, keep
        LangStats(3, 500, 0),   # not enough volume yet
        LangStats(4, 600, 12),  # exactly 2.0%, keep
    ]
    assert daily_pass(rows) == [1]


@given(
    st.integers(min_value=0, max_value=2000),
    st.integers(min_value=0, max_value=2000),
    st.integers(min_value=0, max_value=500),
)
def test_more_target_tweets_never_hurts(total, target, extra):
    """Adding target-language tweets can only move a user toward membership."""
    target = min(target, total)
    before = verdict(total, target)
    after = verdict(total + extra, target + extra)
    rank = {Verdict.STOP: 0, Verdict.INCONCLUSIVE: 1, Verdict.TARGET: 2}
    assert rank[after] >= rank[before]


@given(st.integers(min_value=0, max_value=2000), st.integers(min_value=0, max_value=2000))
def test_verdict_total_consistency(total, target):
    target = min(target, total)
    v = verdict(total, target)
    share = target / total if total else 0.0
    if v is Verdict.STOP:
        assert total > 500 and share < 0.01
    if v is Verdict.TARGET:
        assert total > 100 and share >= 0.10


# -- integration over a store ---------------------------------------------------


def el_tweets(store, u, n, start=1):
    for i in range(n):
        store.put_tweet(Tweet(id=start + i, author=u, created_at=i, text="x", lang="el"))
    return start + n


def en_tweets(store, u, n, start):
    for i in range(n):
        store.put_tweet(Tweet(id=start + i, author=u, created_at=i, text="x", lang="en"))
    return start + n


def test_run_classification_promotes_and_stops():
    store = Store()
    nid = el_tweets(store, 1, 150)                  # promoted by the tweet rule
    nid = en_tweets(store, 2, 600, nid)             # stopped
    nid = en_tweets(store, 3, 50, nid)              # undecided
    store.set_class(3, UserClass.TRACKED, 0)
    report = run_classification(store, CFG, NAMES, now=10)
    assert store.user_class(1) is UserClass.TARGET
    assert store.user_class(2) is UserClass.STOPPED
    assert store.user_class(3) is UserClass.TRACKED
    # an unknown promoted straight to membership passes through tracked
    assert (1, "unknown", "tracked") in report.transitions
    assert (1, "tracked", "target") in report.transitions
    assert sum(old == "unknown" and new == "stopped" for _, old, new in report.transitions) == 1


def test_run_classification_is_idempotent():
    store = Store()
    nid = el_tweets(store, 1, 150)
    en_tweets(store, 2, 600, nid)
    run_classification(store, CFG, NAMES, now=10)
    mutations = store.mutations
    again = run_classification(store, CFG, NAMES, now=20)
    assert again.transitions == []
    assert store.mutations == mutations


def test_run_classification_reads_each_users_counts_once(monkeypatch):
    store = Store()
    nid = el_tweets(store, 1, 150)
    nid = en_tweets(store, 3, 50, nid)      # tracked and undecided: in all three passes
    store.set_class(3, UserClass.TRACKED, 0)
    store.set_class(4, UserClass.TRACKED, 0)  # tracked, nothing stored yet
    calls = Counter()
    real = classify.lang_stats

    def counting(store, u, target_lang):
        calls[u] += 1
        return real(store, u, target_lang)

    monkeypatch.setattr(classify, "lang_stats", counting)
    run_classification(store, CFG, NAMES, now=10)
    assert calls == {1: 1, 3: 1, 4: 1}


def test_target_is_sticky_against_later_drift():
    store = Store()
    nid = el_tweets(store, 1, 150)
    run_classification(store, CFG, NAMES, now=10)
    assert store.user_class(1) is UserClass.TARGET
    # bury the target share under a pile of other-language tweets
    en_tweets(store, 1, 2000, nid)
    run_classification(store, CFG, NAMES, now=20)
    assert store.user_class(1) is UserClass.TARGET


def test_neighbor_vote_promotes_tracked_user():
    store = Store()
    next_id = 1
    for friend in range(10, 14):
        next_id = el_tweets(store, friend, 150, next_id)
    run_classification(store, CFG, NAMES, now=5)
    # user 1: tracked, few tweets, all friends are members
    el_tweets(store, 1, 5, next_id)
    store.set_class(1, UserClass.TRACKED, 0)
    for friend in range(10, 14):
        store.append_follow(FollowEdge(src=1, dst=friend, observed_at=6))
    report = run_classification(store, CFG, NAMES, now=10)
    assert store.user_class(1) is UserClass.TARGET
    assert (1, "tracked", "target") in report.transitions


def test_neighbor_vote_skips_stop_trending_users():
    store = Store()
    next_id = 1
    for friend in range(10, 14):
        next_id = el_tweets(store, friend, 150, next_id)
    # user 1 tweets a lot and nearly none of it in the target language
    next_id = en_tweets(store, 1, 400, next_id)
    store.set_class(1, UserClass.TRACKED, 0)
    for friend in range(10, 14):
        store.append_follow(FollowEdge(src=1, dst=friend, observed_at=6))
    run_classification(store, CFG, NAMES, now=10)
    assert store.user_class(1) is UserClass.TRACKED


def test_daily_sweep_demotes_drifted_tracked_user():
    store = Store()
    nid = en_tweets(store, 1, 501, 1)
    el_tweets(store, 1, 5, nid)  # 5 / 506 is below the daily floor
    store.set_class(1, UserClass.TRACKED, 0)
    run_classification(store, CFG, NAMES, now=10)
    assert store.user_class(1) is UserClass.STOPPED


def test_lang_stats_counts_stored_tweets():
    store = Store()
    nid = el_tweets(store, 1, 3)
    en_tweets(store, 1, 2, nid)
    s = lang_stats(store, 1, "el")
    assert (s.seen_total, s.seen_target) == (5, 3)
    assert s.pct_target == 0.6
