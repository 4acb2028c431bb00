import dataclasses
import enum
import json

import pytest
from hypothesis import given, strategies as st

from langcrawl import model
from langcrawl.classify import ClassifierConfig
from langcrawl.cli import RunManifest
from langcrawl.sched import SchedulerConfig
from langcrawl.simnet import WorldConfig
from langcrawl.model import (
    MAX_ID,
    CrawlState,
    FavoriteRecord,
    MissingField,
    NonPositiveId,
    SelfReference,
    Tweet,
    UserClass,
    UserSnapshot,
    from_record,
    to_record,
    validate_tweet,
)

RAW = {
    "id": 10,
    "author": 3,
    "created_at": 1000,
    "text": "hi",
    "lang": "en",
}


def test_validate_tweet_minimal():
    t = validate_tweet(RAW)
    assert t == Tweet(id=10, author=3, created_at=1000, text="hi", lang="en")


def test_validate_tweet_refs_and_entities():
    t = validate_tweet(
        {
            **RAW,
            "reply_to": [4, 9],
            "mentions": [9],
            "hashtags": ["a"],
            "urls": [["t.co/x", "http://x.gr/p"]],
        }
    )
    assert t.reply_to == (4, 9)
    assert t.mentions == (9,)
    assert t.urls == (("t.co/x", "http://x.gr/p"),)


@pytest.mark.parametrize("missing", ["id", "author", "created_at", "text", "lang"])
def test_validate_tweet_missing_field(missing):
    raw = {k: v for k, v in RAW.items() if k != missing}
    with pytest.raises(MissingField):
        validate_tweet(raw)


@pytest.mark.parametrize("bad", [0, -1, MAX_ID + 1])
def test_validate_tweet_id_bounds(bad):
    with pytest.raises(NonPositiveId):
        validate_tweet({**RAW, "id": bad})
    with pytest.raises(NonPositiveId):
        validate_tweet({**RAW, "author": bad})


def test_validate_tweet_max_id_ok():
    assert validate_tweet({**RAW, "id": MAX_ID}).id == MAX_ID


def test_validate_tweet_self_reference():
    for name in ("retweet_of", "reply_to", "quote_of"):
        with pytest.raises(SelfReference):
            validate_tweet({**RAW, name: [10, 3]})


ids = st.integers(min_value=1, max_value=MAX_ID)
refs = st.none() | st.tuples(ids, ids)
texts = st.text(max_size=40)

tweets = st.builds(
    Tweet,
    id=ids,
    author=ids,
    created_at=st.integers(min_value=0, max_value=2**40),
    text=texts,
    lang=st.sampled_from(["el", "en", "und"]),
    retweet_of=refs,
    reply_to=refs,
    quote_of=refs,
    mentions=st.tuples() | st.tuples(ids) | st.tuples(ids, ids),
    hashtags=st.lists(st.text(min_size=1, max_size=8), max_size=3).map(tuple),
    urls=st.lists(st.tuples(texts, texts), max_size=2).map(tuple),
    source_client=texts,
    truncated=st.booleans(),
)


@given(tweets)
def test_tweet_record_round_trip(t):
    rec = json.loads(json.dumps(to_record(t)))
    assert from_record(Tweet, rec) == t


@given(tweets.filter(lambda t: t.id not in {r[0] for r in (t.retweet_of, t.reply_to, t.quote_of) if r}))
def test_validate_accepts_own_records(t):
    assert validate_tweet(to_record(t)) == t


def test_snapshot_round_trip():
    s = UserSnapshot(
        id=1,
        screen_name="Maria",
        name="Μαρία",
        bio="",
        location="Αθήνα",
        time_zone="Athens",
        ui_lang="el",
        profile_url="",
        created_at=5,
        tweet_count=2,
        followers_count=0,
        friends_count=1,
        favourites_count=0,
        protected=False,
        verified=True,
        observed_at=9,
    )
    assert from_record(UserSnapshot, json.loads(json.dumps(to_record(s)))) == s


def test_crawl_state_and_favorite_round_trip():
    st_ = CrawlState(user=4, last_crawled_at=7, est_rate=1.5)
    assert from_record(CrawlState, to_record(st_)) == st_
    fav = FavoriteRecord(user=1, tweet=2, tweet_author=3, observed_at=4)
    assert from_record(FavoriteRecord, to_record(fav)) == fav


def test_user_class_values_round_trip():
    for c in UserClass:
        assert UserClass(c.value) is c


RECORD_CLASSES = [
    c for c in vars(model).values() if dataclasses.is_dataclass(c) and isinstance(c, type)
]


def reference_record(obj) -> dict:
    """The JSON-lines mapping, spelled out by reflection on every call."""

    def plain(v):
        if isinstance(v, enum.Enum):
            return v.value
        if isinstance(v, tuple):
            return [plain(x) for x in v]
        return v

    return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


def any_record(cls):
    # every field drawn from its type; a NaN rate would not equal itself
    return st.builds(
        cls,
        **{
            f.name: st.floats(allow_nan=False) if f.type == "float" else ...
            for f in dataclasses.fields(cls)
        },
    )


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__name__)
@given(data=st.data())
def test_record_codecs_match_the_reflective_mapping(cls, data):
    obj = data.draw(any_record(cls))
    rec = to_record(obj)
    assert rec == reference_record(obj) and list(rec) == list(reference_record(obj))
    assert from_record(cls, json.loads(json.dumps(rec))) == obj


def dataclass_twin(cls):
    """cls as plain dataclasses would build it: same fields, its own __init__."""
    return dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type, dataclasses.field(default=f.default)) for f in dataclasses.fields(cls)],
        frozen=True,
        slots=True,
    )


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__name__)
@given(data=st.data())
def test_record_init_builds_what_the_dataclass_init_builds(cls, data):
    twin = dataclass_twin(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    values = [getattr(data.draw(any_record(cls)), n) for n in names]
    state = lambda obj: [getattr(obj, n) for n in names]  # noqa: E731
    assert state(cls(*values)) == state(twin(*values)) == values
    assert cls(**dict(zip(names, values))) == cls(*values)
    required = sum(f.default is dataclasses.MISSING for f in dataclasses.fields(cls))
    assert state(cls(*values[:required])) == state(twin(*values[:required]))
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[: required - 1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cls(*values), names[0], values[0])


# -- config files ----------------------------------------------------------------


def config_file(tmp_path, rec: dict):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(rec), encoding="utf-8")
    return p


@pytest.mark.parametrize(
    "cls",
    [WorldConfig, SchedulerConfig, ClassifierConfig, RunManifest],
    ids=lambda c: c.__name__,
)
def test_load_config_refuses_unknown_keys(tmp_path, cls):
    with pytest.raises(ValueError, match=cls.__name__):
        model.load_config(cls, config_file(tmp_path, {"no_such_field": 1}))


def test_load_config_refuses_a_retired_scheduler_knob(tmp_path):
    with pytest.raises(ValueError, match="rate_ema_alpha"):
        model.load_config(SchedulerConfig, config_file(tmp_path, {"rate_ema_alpha": 0.5}))


def test_load_config_refuses_a_retired_classifier_threshold(tmp_path):
    with pytest.raises(ValueError, match="rule1_min_pct"):
        model.load_config(ClassifierConfig, config_file(tmp_path, {"rule1_min_pct": 0.5}))


def test_load_config_reads_tuples_and_keeps_defaults(tmp_path):
    scfg = model.load_config(SchedulerConfig, config_file(tmp_path, {"loops": ["tweets"]}))
    assert scfg == SchedulerConfig(loops=("tweets",))
    wcfg = model.load_config(WorldConfig, config_file(tmp_path, {"list_size": [2, 9]}))
    assert wcfg.list_size == (2, 9)
    ranges = {"script_ranges": [[880, 1023], [7936, 8191]]}
    ccfg = model.load_config(ClassifierConfig, config_file(tmp_path, ranges))
    assert ccfg.script_ranges == ((880, 1023), (7936, 8191))
    assert ccfg.target_lang == ClassifierConfig().target_lang


def test_world_config_json_round_trips(tmp_path):
    cfg = WorldConfig(seed=9, list_size=(2, 9), places=("Worldwide", "Athens"))
    p = tmp_path / "world.json"
    p.write_text(cfg.to_json(), encoding="utf-8")
    assert model.load_config(WorldConfig, p) == cfg
