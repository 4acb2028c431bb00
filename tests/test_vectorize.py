"""Feature families checked on hand-built micro corpora with known answers,
then spot-recomputed naively over a crawled store."""

import json
import unicodedata
from collections import Counter
from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from langcrawl.graphmine import extract_interactions
from langcrawl.lexicons import EMOJI_RANGES, TARGET_SCRIPT_RANGES, Lexicons, load_default
from langcrawl.model import CrawlState, Tweet, UserClass, UserSnapshot
from langcrawl.store import Store
from langcrawl.vectorize import (
    DAY,
    FEATURE_FIELDS,
    MissingLexicon,
    UnknownUser,
    Vectorizer,
    activity_features,
    export_vectors,
    five_stats,
    interaction_features,
    interval_bucket,
    interval_histogram,
    levenshtein,
    profile_features,
    relation_features,
    reply_targets,
    sentiment_features,
    text_features,
    tokenize,
    top_counts,
    tweet_sentiment,
    _char_classes,
    _day_iso,
    _hour,
    _weekday,
)

T0 = 1_470_000_000  # far from any day boundary pitfalls


def tw(i, author=1, at=None, text="hello world", lang="el", **kw):
    return Tweet(
        id=i, author=author, created_at=T0 + (at if at is not None else i),
        text=text, lang=lang, **kw,
    )


LEX = Lexicons(
    stopwords=frozenset({"the", "a"}),
    articles=frozenset({"the"}),
    pronouns=frozenset({"she", "he"}),
    expletives=frozenset({"damn"}),
    locations=frozenset({"αθήνα"}),
    emoticons=frozenset({":)", ":("}),
    sentiment={"good": (2.0, 0.0), "bad": (0.0, 3.0), "fine": (1.0, 0.0)},
    gender_patterns=(("ούλα ", "f"), ("άκος ", "m")),
    entities={"pao": ("pao", "παναθηναϊκός"), "αθήνα": ("αθήνα",)},
)


# -- helpers -------------------------------------------------------------------


def test_interval_bucket_edges():
    assert interval_bucket(0) == 1
    assert interval_bucket(1) == 2
    assert interval_bucket(2) == 4
    assert interval_bucket(3) == 4
    assert interval_bucket(60) == 64
    assert interval_bucket(64) == 128
    assert interval_bucket(86_400) == 131_072
    # far past a month: buckets keep doubling, nothing is clamped
    assert interval_bucket(2**23) == 2**24


@given(st.lists(st.integers(min_value=0, max_value=2**25), max_size=60))
def test_interval_histogram_conserves_mass(gaps):
    hist = interval_histogram(gaps)
    assert sum(hist.values()) == len(gaps)
    assert list(hist) == sorted(hist)
    for gap in gaps:
        b = interval_bucket(gap)
        assert b // 2 <= max(gap, 1) < b or (gap <= 1 and b == 1)


def test_five_stats():
    assert five_stats([]) is None
    assert five_stats([7]) == (7.0, 7.0, 7.0, 7.0, 0.0)
    mn, mx, mean, med, std = five_stats([2, 4, 6])
    assert (mn, mx, mean, med) == (2.0, 6.0, 4.0, 4.0)
    assert std == pytest.approx(1.632993161855452)


@given(st.integers(-(2**35), 2**37))
def test_utc_calendar_arithmetic_matches_datetime(ts):
    utc = datetime.fromtimestamp(ts, tz=timezone.utc)
    assert _day_iso(ts // DAY) == utc.date().isoformat()
    assert _hour(ts) == utc.hour
    assert _weekday(ts) == utc.weekday()


@given(st.text(st.one_of(st.characters(), st.characters(min_codepoint=0x10000))))
def test_char_classes_match_per_character_counts(text):
    def n_in(ranges):
        return sum(1 for ch in text if any(lo <= ord(ch) <= hi for lo, hi in ranges))

    assert _char_classes(Counter(text)) == {
        "punctuation": sum(1 for ch in text if unicodedata.category(ch).startswith("P")),
        "digit": sum(1 for ch in text if ch.isdigit()),
        "alpha": sum(1 for ch in text if ch.isalpha()),
        "upper": sum(1 for ch in text if ch.isupper()),
        "lower": sum(1 for ch in text if ch.islower()),
        "greek": n_in(TARGET_SCRIPT_RANGES),
        "emoji": n_in(EMOJI_RANGES),
    }


def test_top_counts_ties_break_on_key():
    c = Counter({"b": 2, "a": 2, "c": 5})
    assert top_counts(c, 2) == [["c", 5], ["a", 2]]


def test_levenshtein():
    assert levenshtein("", "abc") == 3
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("same", "same") == 0


def test_tokenize_kinds():
    toks = tokenize("RT @niko look http://x.gr/a #pao :) λοιπόν...", LEX.emoticons)
    assert ("mention", "@niko") in toks
    assert ("url", "http://x.gr/a") in toks
    assert ("hashtag", "#pao") in toks
    assert ("emoticon", ":)") in toks
    assert ("word", "λοιπόν") in toks
    assert ("word", "RT") in toks


# -- profile -------------------------------------------------------------------


def snap(**kw):
    base = dict(
        id=1, screen_name="Ab3", name="Μαρία", bio="", location="", time_zone="",
        ui_lang="el", profile_url="", created_at=T0, tweet_count=10,
        followers_count=5, friends_count=10, favourites_count=0,
        protected=False, verified=False, observed_at=T0 + 100,
    )
    base.update(kw)
    return UserSnapshot(**base)


def test_profile_character_classes():
    out = profile_features(snap(), UserClass.TRACKED)
    assert out["screen_name_len"] == 3
    assert out["screen_name_upper"] == 1
    assert out["screen_name_lower"] == 1
    assert out["screen_name_digit"] == 1
    assert out["screen_name_alpha"] == 2
    assert out["name_greek"] == 5
    assert out["fr_fo_ratio"] == pytest.approx(10 / 5)
    assert out["dead"] is False and out["suspended"] is False


def test_profile_zero_followers_gives_missing_ratio():
    out = profile_features(snap(followers_count=0), UserClass.TRACKED)
    assert out["fr_fo_ratio"] is None


def test_profile_empty_bio_counts_zero():
    out = profile_features(snap(), UserClass.TRACKED)
    assert out["bio_words"] == 0
    assert out["bio_total_chars"] == 0


def test_profile_missing_snapshot_is_all_missing():
    out = profile_features(None, UserClass.UNKNOWN)
    assert out["screen_name"] is None
    assert out["screen_name_len"] is None
    assert out["fr_fo_ratio"] is None


def test_profile_dead_suspended_from_class():
    assert profile_features(snap(), UserClass.DEAD)["dead"] is True
    assert profile_features(snap(), UserClass.SUSPENDED)["suspended"] is True


# -- activity ------------------------------------------------------------------


def test_activity_interval_histogram_and_stats():
    tweets = [tw(1, at=0), tw(2, at=60), tw(3, at=120)]
    out = activity_features(tweets, gone=0, created_at=T0 - 50, as_of=T0 + 120)
    assert out["all_intervals"] == {64: 2}
    assert out["time_between_any"] == (60.0, 60.0, 60.0, 60.0, 0.0)
    assert out["seen_total"] == 3
    assert out["seen_greek_total"] == 3


def test_activity_single_tweet():
    out = activity_features([tw(1, at=0)], gone=2, created_at=T0 - 100, as_of=T0)
    assert out["all_intervals"] == {}
    assert out["time_between_any"] is None
    assert out["total_inferred"] == 3
    assert out["life_time"] == 100
    assert out["last_tweeted_at"] == T0


def test_activity_life_time_without_created_at_uses_first_tweet():
    out = activity_features(
        [tw(1, at=0), tw(2, at=500)], gone=0, created_at=None, as_of=T0 + 600
    )
    assert out["life_time"] == 500


def test_activity_max_daily_interval():
    day = 1_470_009_600  # 00:00 UTC
    tweets = [
        Tweet(id=1, author=1, created_at=day + 10 * 3600, text="x", lang="el"),
        Tweet(id=2, author=1, created_at=day + 16 * 3600, text="x", lang="el"),
    ]
    out = activity_features(tweets, 0, None, day + 17 * 3600)
    assert out["max_daily_interval"] == (21600.0, 21600.0, 21600.0, 21600.0, 0.0)


def test_activity_kind_split():
    tweets = [
        tw(1, at=0),
        tw(2, at=100, retweet_of=(90, 9)),
        tw(3, at=300, retweet_of=(91, 9)),
        tw(4, at=350, reply_to=(1, 1)),
        tw(5, at=600),
    ]
    out = activity_features(tweets, 0, None, T0 + 700)
    assert out["seen_top_tweets"] == 2  # neither retweet nor reply
    assert out["top_tweets_pcnt"] == pytest.approx(40.0)
    assert out["rt_intervals"] == {256: 1}  # one 200s gap between retweets
    assert out["plain_tweets"] == 3  # no hashtags, mentions or urls; replies count
    assert sum(out["tweets_per_hour_of_day"].values()) == 5
    assert len(out["tweets_per_hour_of_day"]) == 24
    assert len(out["tweets_per_weekday"]) == 7


def test_activity_per_day_stats_cover_calendar_gaps():
    # two tweets one day, nothing for the next nine days
    tweets = [tw(1, at=0), tw(2, at=3600)]
    out = activity_features(tweets, 0, created_at=T0, as_of=T0 + 10 * 86400)
    per_day = out["tweets_per_day"]
    assert per_day[0] == 0.0  # min day is an empty one
    assert per_day[1] == 2.0
    active = out["tweets_per_active_day"]
    assert active[0] == 2.0 and active[1] == 2.0
    # quietest: the first empty day after the busy birth day; busiest: birth
    assert per_day[5:] == [utc_day(T0 + DAY), utc_day(T0)]

    # a tweet older than the profile's created_at still counts on its day
    tweets = [tw(1, at=0), tw(2, at=3 * DAY)]
    out = activity_features(tweets, 0, created_at=T0 + DAY, as_of=T0 + 3 * DAY)
    assert out["tweets_per_day"] == [0.0, 1.0, 0.5, 0.5, 0.5, utc_day(T0 + DAY), utc_day(T0)]


def utc_day(ts):
    return datetime.fromtimestamp(ts, tz=timezone.utc).date().isoformat()


# -- interaction ---------------------------------------------------------------


def test_interaction_degrees_weights_ratios():
    tweets = [
        tw(1, author=1, at=0),
        tw(2, author=2, at=10, retweet_of=(1, 1)),
        tw(3, author=2, at=20, retweet_of=(1, 1)),
        tw(4, author=2, at=30, retweet_of=(1, 1)),
        tw(5, author=3, at=40, retweet_of=(1, 1)),
    ]
    graphs = extract_interactions(tweets)
    a = interaction_features(1, graphs, [tweets[0]])
    assert a["retweet_indegree"] == 2
    assert a["retweet_inweight"] == 4
    assert a["retweet_avg_inweight"] == pytest.approx(2.0)
    assert a["retweet_outdegree"] == 0
    assert a["retweet_out_in_ratio"] == pytest.approx(0.0)
    assert a["most_retweeted_by"] == [[2, 3], [3, 1]]
    b = interaction_features(2, graphs, [t for t in tweets if t.author == 2])
    assert b["retweet_outdegree"] == 1
    assert b["retweet_out_in_ratio"] is None  # nobody retweets 2
    assert b["retweet_pcnt"] == pytest.approx(100.0)


def test_interaction_replies_and_engagement():
    tweets = [
        tw(201, author=1, at=0),
        tw(202, author=2, at=10, reply_to=(201, 1)),
        tw(203, author=1, at=20, reply_to=(202, 2)),
    ]
    graphs = extract_interactions(tweets)
    replies = reply_targets(tweets)
    mine = [t for t in tweets if t.author == 1]
    out = interaction_features(1, graphs, mine, replies_to=replies.get(1))
    assert out["reply_indegree"] == 1
    assert out["reply_outdegree"] == 1
    assert out["reply_out_in_ratio"] == pytest.approx(1.0)
    assert out["seen_replied_to"] == 1
    assert out["most_engaging_tweet"] == [201, 1]
    assert out["replies_pcnt"] == pytest.approx(50.0)


def test_interaction_mentions_exclude_retweets():
    tweets = [
        tw(1, author=1, at=0, mentions=(5,)),
        tw(2, author=1, at=10, retweet_of=(99, 9), mentions=(5,)),
    ]
    graphs = extract_interactions(tweets)
    out = interaction_features(1, graphs, tweets)
    assert out["mention_outweight"] == 1
    assert out["mention_pcnt"] == pytest.approx(50.0)  # 1 of 2 tweets mentions


# -- relation ------------------------------------------------------------------


def test_relation_composition():
    # gr_* counts confirmed members, tr_* adds the still-tracked; the
    # combined gr_fr_fo runs over the union of both neighbor sets
    classes = {2: UserClass.TARGET, 3: UserClass.TRACKED, 5: UserClass.TARGET}
    state = CrawlState(user=1, friends_scanned_at=900, followers_scanned_at=950)
    out = relation_features(
        1, fr={2, 3, 4}, fo={2, 3, 5},
        classes=classes, state=state,
        fav_in=Counter({7: 2}), fav_out=Counter({8: 1, 9: 1}),
    )
    assert out["seen_fr"] == 3 and out["seen_fo"] == 3
    assert out["gr_fr"] == 1
    assert out["gr_fr_pcnt"] == pytest.approx(100 / 3)
    assert out["tr_fr"] == 2
    assert out["gr_fo"] == 2
    assert out["fr_and_fo"] == 2
    assert out["fr_or_fo"] == 4
    assert out["fr_fo_jaccard"] == pytest.approx(0.5)
    assert out["gr_fr_fo"] == 2
    assert out["gr_fr_fo_pcnt"] == pytest.approx(50.0)
    assert out["fr_scanned_at"] == 900
    assert out["fo_scanned_at"] == 950
    assert out["favoriters"] == 1 and out["favorited"] == 2
    assert out["most_favoriters"] == [[7, 2]]
    assert out["greek"] is False


def test_relation_empty_sets():
    out = relation_features(1, set(), set(), {}, None)
    assert out["fr_fo_jaccard"] == 0.0
    assert out["gr_fr_pcnt"] is None  # no division by an empty friend set
    assert out["fr_scanned_at"] is None


def test_relation_greek_flag():
    out = relation_features(1, set(), set(), {1: UserClass.TARGET}, None)
    assert out["greek"] is True


# -- text ----------------------------------------------------------------------


def test_text_word_and_bigram_counts():
    tweets = [tw(1, text="a b"), tw(2, text="a b")]
    out = text_features(tweets, LEX, "user1")
    assert out["total_words"] == 4
    assert out["unique_words"] == 2
    assert out["lex_freq"] == pytest.approx(0.5)
    assert out["total_bigrams"] == 2
    assert out["unique_bigrams"] == 1
    assert out["bigram_lex_freq"] == pytest.approx(0.5)


def test_text_caps_stats():
    # "𝐀" is upper case, yet it is its own .lower()
    tweets = [tw(1, text="ΓΕΙΑ ΣΑΣ"), tw(2, text="γεια"), tw(3, text="𝐀")]
    out = text_features(tweets, LEX, None)
    assert out["all_caps_tweets"] == 2
    assert out["all_caps_tweets_pcnt"] == pytest.approx(200 / 3)
    assert out["all_caps_words"] == 2
    assert out["all_nocaps_words"] == 1
    assert out["greek_chars"] == 11


def test_text_lexicon_hits_and_gender():
    tweets = [
        tw(1, text="the damn thing in αθήνα"),
        tw(2, text="μανούλα μου"),
    ]
    out = text_features(tweets, LEX, None)
    assert out["articles"] == 1
    assert out["expletives"] == 1
    assert out["locations"] == 1
    assert out["lexical_gender"] == {"f": 100.0, "m": 0.0}


def test_text_gender_none_without_hits():
    out = text_features([tw(1, text="nothing here")], LEX, None)
    assert out["lexical_gender"] is None


def test_text_hashtags_and_urls_split_by_retweet():
    tweets = [
        tw(1, hashtags=("pao", "Gate13"), urls=(("t.co/a", "http://x.gr/a"),)),
        tw(2, retweet_of=(9, 9), hashtags=("pao",), urls=(("t.co/b", "http://y.gr/b"),)),
    ]
    out = text_features(tweets, LEX, None)
    assert out["total_hashtags"] == 2
    assert out["uniq_hashtags"] == 2
    assert out["total_rt_hashtags"] == 1
    assert out["uniq_rt_hashtags"] == 1
    assert out["most_common_hashtags"][0][0] in ("pao", "gate13")
    assert out["most_common_urls"] == [["x.gr", 1]]
    assert out["most_common_rt_urls"] == [["y.gr", 1]]
    assert out["seen_urls"] == 1
    # five-stat over per-authored-tweet url counts
    assert out["urls_per_tw"] == (1.0, 1.0, 1.0, 1.0, 0.0)
    assert out["hashtags_per_tw"] == (2.0, 2.0, 2.0, 2.0, 0.0)


def test_text_most_common_words_skip_stopwords():
    tweets = [tw(1, text="the cat the cat dog")]
    out = text_features(tweets, LEX, None)
    assert out["most_common_words"][0] == ["cat", 2]
    assert all(w != "the" for w, _ in out["most_common_words"])


def test_text_edit_distance_to_screen_name():
    tweets = [tw(1, urls=(("t.co/a", "http://maria3.gr/x"),))]
    out = text_features(tweets, LEX, "Maria3")
    # host "maria3.gr" vs handle "maria3": three extra characters
    assert out["avg_edit_distance"] == pytest.approx(3.0)


def test_text_languages():
    tweets = [tw(1, lang="el"), tw(2, lang="en"), tw(3, lang="und"),
              tw(4, lang="el", retweet_of=(9, 9))]
    out = text_features(tweets, LEX, None)
    assert out["number_of_languages"] == 2
    assert out["tweets_per_language"] == [["el", 1], ["en", 1]]


# -- sentiment -----------------------------------------------------------------


def test_tweet_sentiment_sums_weights():
    assert tweet_sentiment("good good bad", LEX) == (4.0, 3.0)
    assert tweet_sentiment("nothing", LEX) == (0.0, 0.0)


def test_sentiment_requires_lexicon():
    with pytest.raises(MissingLexicon):
        sentiment_features([tw(1)], Lexicons())


def test_sentiment_daily_means_cover_matching_tweets_only():
    d0 = 1_470_009_600
    tweets = [
        Tweet(id=1, author=1, created_at=d0 + 60, text="good good", lang="el"),
        Tweet(id=2, author=1, created_at=d0 + 120, text="meh", lang="el"),
        Tweet(id=3, author=1, created_at=d0 + 86_400, text="bad", lang="el"),
    ]
    out = sentiment_features(tweets, LEX)
    days = sorted(out["daily_sentiment"]["pos"])
    assert len(days) == 1
    assert out["daily_sentiment"]["pos"][days[0]] == pytest.approx(4.0)
    assert list(out["daily_sentiment"]["neg"].values()) == [pytest.approx(3.0)]


def test_sentiment_entities_and_overlap():
    tweets = [
        tw(1, text="pao is good", hashtags=()),
        tw(2, text="pao και αθήνα bad"),
    ]
    out = sentiment_features(tweets, LEX)
    nodes = out["entity_overlap"]["nodes"]
    assert nodes["pao"] == 2 and nodes["αθήνα"] == 1
    assert out["entity_overlap"]["edges"] == {"pao|αθήνα": 1}
    senti = out["senti_entities"]
    assert senti["pao"]["pos"] == pytest.approx(2.0)
    assert senti["αθήνα"]["neg"] == pytest.approx(3.0)
    assert senti["αθήνα"]["pos"] is None


def test_sentiment_own_hashtags_are_entities():
    tweets = [tw(1, text="retro day", hashtags=("gate13",)),
              tw(2, text="gate13 vibes good")]
    out = sentiment_features(tweets, LEX)
    assert out["entity_overlap"]["nodes"]["gate13"] == 2


# -- assembled vectors over a crawled store -------------------------------------


@pytest.fixture(scope="module")
def vectorized(small_crawl):
    world, store, _ = small_crawl
    vec = Vectorizer(store)
    as_of = world.now
    users = sorted(store.users_in_class(UserClass.TRACKED, UserClass.TARGET))
    return world, store, vec, as_of, users


def test_vector_field_registry_order(vectorized):
    world, store, vec, as_of, users = vectorized
    v = vec.assemble_vector(users[0], as_of)
    assert list(v) == list(FEATURE_FIELDS)
    assert v["id"] == users[0]
    assert v["vector_timestamp"] == as_of


def test_vector_invariants_hold_for_everyone(vectorized):
    world, store, vec, as_of, users = vectorized
    for u in users:
        v = vec.assemble_vector(u, as_of)
        for f, val in v.items():
            if f.endswith("_pcnt") and val is not None:
                assert -1e-9 <= val <= 100 + 1e-9, (u, f, val)
        if v["seen_total"]:
            assert sum(v["all_intervals"].values()) == v["seen_total"] - 1
        if v["lex_freq"] is not None:
            assert 0 < v["lex_freq"] <= 1
        assert 0.0 <= v["fr_fo_jaccard"] <= 1.0
        assert v["seen_total"] >= v["seen_greek_total"]


def test_vector_spot_fields_match_naive_recount(vectorized):
    world, store, vec, as_of, users = vectorized
    for u in users[:10]:
        v = vec.assemble_vector(u, as_of)
        mine = sorted(
            (t for t in store.all_tweets() if t.author == u and t.created_at <= as_of),
            key=lambda t: (t.created_at, t.id),
        )
        assert v["seen_total"] == len(mine)
        rts = [t for t in mine if t.retweet_of is not None]
        if mine:
            assert v["retweet_pcnt"] == pytest.approx(100 * len(rts) / len(mine))
        gaps = Counter(
            interval_bucket(b.created_at - a.created_at)
            for a, b in zip(mine, mine[1:])
        )
        assert v["all_intervals"] == dict(sorted(gaps.items()))
        langs = Counter(
            t.lang for t in mine if t.retweet_of is None and t.lang != "und"
        )
        assert v["number_of_languages"] == len(langs)
        hashtags = [h for t in mine if t.retweet_of is None for h in t.hashtags]
        assert v["total_hashtags"] == len(hashtags)


def test_vector_variant_matches_filtered_window(vectorized):
    world, store, vec, as_of, users = vectorized
    u = users[0]
    t_from = world.cfg.start_time + 2 * 86400
    windowed = vec.vector_between(u, t_from, as_of)
    mine = [
        t for t in store.all_tweets()
        if t.author == u and t_from <= t.created_at <= as_of
    ]
    assert windowed["seen_total"] == len(mine)


def test_vector_cache_returns_identical_object(vectorized):
    world, store, vec, as_of, users = vectorized
    assert vec.assemble_vector(users[0], as_of) is vec.assemble_vector(users[0], as_of)


def test_unknown_user_raises():
    vec = Vectorizer(Store())
    with pytest.raises(UnknownUser):
        vec.assemble_vector(424242, T0)


def test_known_user_without_tweets_gets_empty_vector():
    store = Store()
    store.set_class(3, UserClass.TRACKED, T0)
    v = Vectorizer(store).assemble_vector(3, T0 + 100)
    assert v["seen_total"] == 0
    assert v["screen_name"] is None
    assert v["all_intervals"] == {}


def test_store_write_invalidates_cache(vectorized, tmp_path):
    world, store, _, as_of, users = vectorized
    # a private store copy: mutating the shared fixture would poison others
    store.save(tmp_path / "copy")
    local = Store.load(tmp_path / "copy")
    vec = Vectorizer(local)
    before = vec.assemble_vector(users[0], as_of)
    local.put_tweet(
        Tweet(id=1 << 62, author=users[0], created_at=as_of, text="x", lang="el")
    )
    after = vec.assemble_vector(users[0], as_of)
    assert after is not before
    assert after["seen_total"] == before["seen_total"] + 1


def test_export_vectors_deterministic_and_ordered(vectorized, tmp_path):
    world, store, _, as_of, users = vectorized
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    n1 = export_vectors(Vectorizer(store), users, as_of, pa)
    n2 = export_vectors(Vectorizer(store), users, as_of, pb)
    assert n1 == n2 == len(users)
    assert pa.read_bytes() == pb.read_bytes()
    rows = [json.loads(line) for line in pa.read_text().splitlines()]
    assert [r["id"] for r in rows] == list(users)
    assert list(rows[0]) == list(FEATURE_FIELDS)


def test_default_lexicons_load():
    lex = load_default()
    assert lex.stopwords and lex.sentiment and lex.entities
    assert all(w == w.lower() for w in lex.stopwords)
