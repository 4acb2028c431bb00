import dataclasses
import json
import os
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from langcrawl import model
from langcrawl.model import (
    CrawlState,
    FavoriteRecord,
    FollowEdge,
    FollowScan,
    ListMembership,
    ListRecord,
    ListSubscription,
    TrendSnapshot,
    Tweet,
    UserClass,
    UserSnapshot,
)
from langcrawl.store import PutSnapshotResult, PutTweetResult, Store, read_collection


def snap(**kw) -> UserSnapshot:
    base = dict(
        id=1,
        screen_name="maria",
        name="Μαρία",
        bio="γεια",
        location="Αθήνα",
        time_zone="Athens",
        ui_lang="el",
        profile_url="",
        created_at=100,
        tweet_count=5,
        followers_count=10,
        friends_count=20,
        favourites_count=0,
        protected=False,
        verified=False,
        observed_at=1000,
    )
    base.update(kw)
    return UserSnapshot(**base)


def tw(i, author=1, at=None, **kw) -> Tweet:
    return Tweet(
        id=i, author=author, created_at=at if at is not None else i, text="x",
        lang="el", **kw,
    )


# -- snapshot dedup -----------------------------------------------------------


def test_snapshot_refresh_tweet_count_only_is_skipped():
    s = Store()
    assert s.put_snapshot(snap()) is PutSnapshotResult.STORED
    before = s.mutations
    r = s.put_snapshot(snap(tweet_count=6, observed_at=2000))
    assert r is PutSnapshotResult.SKIPPED_TWEET_COUNT_ONLY
    assert s.mutations == before
    assert len(s.snapshots[1]) == 1


def test_snapshot_any_other_field_change_is_stored():
    volatile = {"tweet_count", "observed_at"}
    reference = snap()
    for f in dataclasses.fields(UserSnapshot):
        if f.name in volatile or f.name == "id":
            continue
        s = Store()
        s.put_snapshot(reference)
        old = getattr(reference, f.name)
        if isinstance(old, bool):
            new = not old
        elif isinstance(old, int):
            new = old + 1
        else:
            new = old + "x"
        r = s.put_snapshot(snap(**{f.name: new, "observed_at": 2000}))
        assert r is PutSnapshotResult.STORED, f.name
        assert len(s.snapshots[1]) == 2, f.name


def _record_core(s: UserSnapshot) -> tuple:
    """The dedup rule as a record comparison: every field but the volatile two."""
    rec = model.to_record(s)
    del rec["tweet_count"], rec["observed_at"]
    return tuple(sorted(rec.items()))


_FIELD_VALUES = {
    str: st.sampled_from(["", "maria", "Μαρία", "x"]) | st.text(max_size=4),
    int: st.sampled_from([0, 1, 5, 10, 20, 100, 1000]) | st.integers(-5, 2000),
    bool: st.booleans(),
}


@settings(deadline=None)
@given(data=st.data())
def test_snapshot_dedup_is_the_record_rule(data):
    field = data.draw(st.sampled_from(dataclasses.fields(UserSnapshot)))
    old = snap()
    value = data.draw(_FIELD_VALUES[type(getattr(old, field.name))])
    new = dataclasses.replace(old, **{field.name: value})
    s = Store()
    s.put_snapshot(old)
    skipped = s.put_snapshot(new) is PutSnapshotResult.SKIPPED_TWEET_COUNT_ONLY
    assert skipped == (_record_core(old) == _record_core(new))


def test_snapshot_as_of_picks_latest_not_after():
    s = Store()
    s.put_snapshot(snap(observed_at=100, bio="a"))
    s.put_snapshot(snap(observed_at=200, bio="b"))
    assert s.snapshot_as_of(1, 99) is None
    assert s.snapshot_as_of(1, 150).bio == "a"
    assert s.snapshot_as_of(1, 200).bio == "b"
    assert s.latest_snapshot(1).bio == "b"


# -- tweets --------------------------------------------------------------------


def test_put_tweet_insert_duplicate_upgrade():
    s = Store()
    assert s.put_tweet(tw(5, truncated=True)) is PutTweetResult.INSERTED
    assert s.put_tweet(tw(5, truncated=True)) is PutTweetResult.DUPLICATE
    assert s.put_tweet(tw(5)) is PutTweetResult.UPGRADED
    # full copy never regresses to truncated
    assert s.put_tweet(tw(5, truncated=True)) is PutTweetResult.DUPLICATE
    assert s.get_tweet(5).truncated is False


def test_author_indexes():
    s = Store()
    for i in (9, 3, 7):
        s.put_tweet(tw(i))
    assert s.author_tweet_ids(1) == [3, 7, 9]
    assert s.author_span(1) == (3, 3, 9)
    assert s.author_tweet_count(2) == 0
    assert s.author_span(2) is None


def test_count_tweets_between_inclusive_and_none():
    s = Store()
    for i in (3, 7, 9):
        s.put_tweet(tw(i))
    assert s.count_tweets_between(1, 3, 9) == 3
    assert s.count_tweets_between(1, 4, 9) == 2
    assert s.count_tweets_between(1, 7, 7) == 1
    assert s.count_tweets_between(1, None, 9) == 0
    assert s.count_tweets_between(1, 3, None) == 0


# -- favorites / follows / classes ----------------------------------------------


def test_put_favorite_dedups():
    s = Store()
    f = FavoriteRecord(user=1, tweet=2, tweet_author=3, observed_at=4)
    assert s.put_favorite(f) is True
    assert s.has_favorite(1, 2)
    assert s.put_favorite(dataclasses.replace(f, observed_at=9)) is False
    assert len(s.all_favorites()) == 1


def test_follow_log_and_ever_sets():
    s = Store()
    s.append_follow(FollowEdge(src=1, dst=2, observed_at=10))
    s.append_follow(FollowEdge(src=1, dst=3, observed_at=20))
    s.record_follow_scan(FollowScan(kind="friends", subject=1, at=25))
    assert s.friends_ever(1) == {2, 3}
    assert s.followers_ever(2) == {1}


def test_set_class_records_transition_once():
    s = Store()
    assert s.user_class(7) is UserClass.UNKNOWN
    assert s.set_class(7, UserClass.TRACKED, 10) is True
    assert s.set_class(7, UserClass.TRACKED, 20) is False
    assert s.user_class(7) is UserClass.TRACKED
    assert s.users_in_class(UserClass.TRACKED) == [7]


# -- persistence ------------------------------------------------------------------


def populated_store() -> Store:
    s = Store()
    s.put_snapshot(snap())
    s.put_snapshot(snap(id=2, screen_name="nikos", observed_at=1500))
    s.put_tweet(tw(11, mentions=(2,), hashtags=("pao",)))
    s.put_tweet(tw(12, author=2, reply_to=(11, 1)))
    s.append_follow(FollowEdge(src=1, dst=2, observed_at=30))
    s.record_follow_scan(FollowScan(kind="friends", subject=1, at=35))
    s.put_favorite(FavoriteRecord(user=2, tweet=11, tweet_author=1, observed_at=40))
    s.set_class(1, UserClass.TARGET, 50)
    s.set_class(2, UserClass.TRACKED, 55)
    s.put_crawl_state(CrawlState(user=1, last_crawled_at=60, est_rate=2.0))
    return s


def test_save_load_round_trip(tmp_path):
    s = populated_store()
    s.save(tmp_path / "store")
    back = Store.load(tmp_path / "store")
    assert back.tweets == s.tweets
    assert back.snapshots == s.snapshots
    assert back.follow_log == s.follow_log
    assert back.all_favorites() == s.all_favorites()
    assert back.user_class(1) is UserClass.TARGET
    assert back.get_crawl_state(1) == s.get_crawl_state(1)
    assert back.latest_snapshot(1).screen_name == "maria"


def test_save_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    populated_store().save(a)
    populated_store().save(b)
    for fa in sorted(a.iterdir()):
        assert fa.read_bytes() == (b / fa.name).read_bytes()


def saved_files(directory) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def newer_store() -> Store:
    s = populated_store()
    s.put_tweet(tw(13, author=2))
    s.set_class(1, UserClass.STOPPED, 70)
    return s


def test_partly_loaded_store_refuses_save_and_other_exports(tmp_path):
    d = tmp_path / "store"
    populated_store().save(d)
    before = saved_files(d)
    part = Store.load(d, collections=("tweets", "classes"))
    assert part.tweets == populated_store().tweets
    assert part.user_class(1) is UserClass.TARGET
    assert not part.snapshots and not part.crawl_states
    assert part.export_collection("tweets", tmp_path / "tweets.jsonl") == 2
    with pytest.raises(RuntimeError):
        part.export_collection("users", tmp_path / "users.jsonl")
    for target in (d, tmp_path / "elsewhere"):
        with pytest.raises(RuntimeError):
            part.save(target)
    assert saved_files(d) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["store", "tweets.jsonl"]
    with pytest.raises(KeyError):
        Store.load(d, collections=("tweets", "nonsense"))


def every_collection_store() -> Store:
    """Records in all 14 collections, each dict's keys inserted in
    descending order."""
    s = Store()
    s.put_snapshot(snap(id=3, screen_name="eleni", observed_at=1200))
    s.put_snapshot(snap())
    s.put_snapshot(snap(bio="γεια σας", observed_at=1100))
    s.put_tweet(tw(30, author=3, retweet_of=(12, 1), mentions=(1,)))
    s.put_tweet(tw(12, truncated=True))
    s.put_tweet(tw(11, hashtags=("pao",), quote_of=(9, 3)))
    full = Tweet(id=12, author=1, created_at=12, text="x t.co/b", lang="el",
                 urls=(("t.co/b", "https://example.gr/β"),))
    assert s.put_tweet(full) is PutTweetResult.UPGRADED
    s.append_follow(FollowEdge(src=3, dst=1, observed_at=30))
    s.append_follow(FollowEdge(src=1, dst=3, observed_at=31))
    s.record_follow_scan(FollowScan(kind="followers", subject=1, at=35))
    s.record_follow_scan(FollowScan(kind="friends", subject=3, at=36))
    s.put_list(ListRecord(id=8, owner=3, name="Έλληνες", member_count=2, created_at=5))
    s.put_list(ListRecord(id=4, owner=1, name="news", member_count=1, created_at=6))
    s.put_membership(ListMembership(list_id=8, member=3, observed_at=40))
    s.put_membership(ListMembership(list_id=8, member=1, observed_at=41))
    s.put_membership(ListMembership(list_id=4, member=3, observed_at=42))
    s.put_subscription(ListSubscription(list_id=8, subscriber=1, observed_at=43))
    s.put_subscription(ListSubscription(list_id=4, subscriber=3, observed_at=44))
    s.put_favorite(FavoriteRecord(user=3, tweet=12, tweet_author=1, observed_at=45))
    s.put_favorite(FavoriteRecord(user=1, tweet=30, tweet_author=3, observed_at=46))
    s.put_trend(TrendSnapshot(place="Athens", observed_at=900, trends=("#pao", "Ελλάδα")))
    s.put_trend(TrendSnapshot(place="Greece", observed_at=900))
    s.set_class(3, UserClass.TRACKED, 50)
    s.set_class(1, UserClass.TARGET, 51)
    s.set_class(3, UserClass.STOPPED, 52)
    s.put_crawl_state(CrawlState(user=3, last_seen_tweet=30, cap_reached=True))
    s.put_crawl_state(CrawlState(user=1, first_seen_tweet=11, last_crawled_at=60, est_rate=2.5))
    s.add_gone_ref(3, 7)
    s.add_gone_ref(1, 9)
    s.discard_gone_ref(1, 9)
    return s


# the files every_collection_store() saves, byte for byte
PINNED = {
    "classes": (
        '{"class":"target","user":1}\n'
        '{"class":"stopped","user":3}\n'
    ),
    "classhistory": (
        '{"at":50,"new":"tracked","old":"unknown","user":3}\n'
        '{"at":51,"new":"target","old":"unknown","user":1}\n'
        '{"at":52,"new":"stopped","old":"tracked","user":3}\n'
    ),
    "crawlstate": (
        '{"avatar_fetched_at":null,"cap_reached":false,"est_rate":2.5,"favorites_scanned_at":null,"first_crawled_at":null,"first_seen_tweet":11,"followers_scanned_at":null,"friends_scanned_at":null,"last_crawled_at":60,"last_seen_tweet":null,"profile_fetched_at":null,"user":1}\n'
        '{"avatar_fetched_at":null,"cap_reached":true,"est_rate":0.0,"favorites_scanned_at":null,"first_crawled_at":null,"first_seen_tweet":null,"followers_scanned_at":null,"friends_scanned_at":null,"last_crawled_at":null,"last_seen_tweet":30,"profile_fetched_at":null,"user":3}\n'
    ),
    "favorites": (
        '{"observed_at":46,"tweet":30,"tweet_author":3,"user":1}\n'
        '{"observed_at":45,"tweet":12,"tweet_author":1,"user":3}\n'
    ),
    "follow": (
        '{"dst":1,"observed_at":30,"src":3}\n'
        '{"dst":3,"observed_at":31,"src":1}\n'
    ),
    "followscans": (
        '{"at":35,"kind":"followers","subject":1}\n'
        '{"at":36,"kind":"friends","subject":3}\n'
    ),
    "gonerefs": (
        '{"author":3,"tweet":7}\n'
    ),
    "lists": (
        '{"created_at":6,"id":4,"member_count":1,"name":"news","owner":1}\n'
        '{"created_at":5,"id":8,"member_count":2,"name":"Έλληνες","owner":3}\n'
    ),
    "memberships": (
        '{"list_id":4,"member":3,"observed_at":42}\n'
        '{"list_id":8,"member":1,"observed_at":41}\n'
        '{"list_id":8,"member":3,"observed_at":40}\n'
    ),
    "shorturl": (
        '{"expanded":"https://example.gr/β","short":"t.co/b"}\n'
    ),
    "subscriptions": (
        '{"list_id":4,"observed_at":44,"subscriber":3}\n'
        '{"list_id":8,"observed_at":43,"subscriber":1}\n'
    ),
    "trends": (
        '{"observed_at":900,"place":"Athens","trends":["#pao","Ελλάδα"]}\n'
        '{"observed_at":900,"place":"Greece","trends":[]}\n'
    ),
    "tweets": (
        '{"author":1,"created_at":11,"hashtags":["pao"],"id":11,"lang":"el","mentions":[],"quote_of":[9,3],"reply_to":null,"retweet_of":null,"source_client":"","text":"x","truncated":false,"urls":[]}\n'
        '{"author":1,"created_at":12,"hashtags":[],"id":12,"lang":"el","mentions":[],"quote_of":null,"reply_to":null,"retweet_of":null,"source_client":"","text":"x t.co/b","truncated":false,"urls":[["t.co/b","https://example.gr/β"]]}\n'
        '{"author":3,"created_at":30,"hashtags":[],"id":30,"lang":"el","mentions":[1],"quote_of":null,"reply_to":null,"retweet_of":[12,1],"source_client":"","text":"x","truncated":false,"urls":[]}\n'
    ),
    "users": (
        '{"bio":"γεια","created_at":100,"favourites_count":0,"followers_count":10,"friends_count":20,"id":1,"location":"Αθήνα","name":"Μαρία","observed_at":1000,"profile_url":"","protected":false,"screen_name":"maria","time_zone":"Athens","tweet_count":5,"ui_lang":"el","verified":false}\n'
        '{"bio":"γεια σας","created_at":100,"favourites_count":0,"followers_count":10,"friends_count":20,"id":1,"location":"Αθήνα","name":"Μαρία","observed_at":1100,"profile_url":"","protected":false,"screen_name":"maria","time_zone":"Athens","tweet_count":5,"ui_lang":"el","verified":false}\n'
        '{"bio":"γεια","created_at":100,"favourites_count":0,"followers_count":10,"friends_count":20,"id":3,"location":"Αθήνα","name":"Μαρία","observed_at":1200,"profile_url":"","protected":false,"screen_name":"eleni","time_zone":"Athens","tweet_count":5,"ui_lang":"el","verified":false}\n'
    ),
}


def test_every_collection_saves_and_reloads_its_pinned_bytes(tmp_path):
    assert sorted(PINNED) == sorted(Store.COLLECTIONS)
    want = {f"{name}.jsonl": text.encode("utf-8") for name, text in PINNED.items()}
    every_collection_store().save(tmp_path / "store")
    assert saved_files(tmp_path / "store") == want
    Store.load(tmp_path / "store").save(tmp_path / "again")
    assert saved_files(tmp_path / "again") == want


@pytest.mark.parametrize("names", [(name,) for name in sorted(PINNED)] + [
    ("users", "tweets", "follow", "followscans", "favorites", "classes", "crawlstate", "gonerefs"),
])
def test_a_partial_load_holds_the_pinned_records(tmp_path, names):
    every_collection_store().save(tmp_path / "store")
    part = Store.load(tmp_path / "store", names)
    for name in names:
        assert part.export_collection(name, tmp_path / name) == PINNED[name].count("\n")
        assert (tmp_path / name).read_text(encoding="utf-8") == PINNED[name], name


class Died(Exception):
    """The process died here."""


@pytest.mark.parametrize("k", range(len(Store.COLLECTIONS) + 1))
def test_save_that_dies_after_k_files_leaves_previous_store(tmp_path, monkeypatch, k):
    d = tmp_path / "store"
    populated_store().save(d)
    before = saved_files(d)
    written = 0
    export = Store.export_collection

    def dying(self, name, path):
        nonlocal written
        if written == k:
            raise Died
        n = export(self, name, path)
        written += 1
        if written == k:
            raise Died
        return n

    monkeypatch.setattr(Store, "export_collection", dying)
    with pytest.raises(Died):
        newer_store().save(d)
    monkeypatch.undo()
    assert written == k

    Store.load(d).save(tmp_path / "reloaded")
    assert saved_files(tmp_path / "reloaded") == before
    assert saved_files(d) == before
    newer_store().save(d)  # the stray store.tmp/ of the dead save is no obstacle
    assert sorted(p.name for p in tmp_path.iterdir()) == ["reloaded", "store"]
    assert Store.load(d).tweets == newer_store().tweets


@pytest.mark.parametrize(
    "step, survivor",
    [
        (0, "previous"),  # moving the old store aside: store.tmp/ is left over
        (1, "newer"),  # moving the new store in: load finishes the swap
        (2, "newer"),  # removing the old store: load removes it
    ],
)
def test_save_that_dies_in_its_swap_leaves_one_whole_store(tmp_path, monkeypatch, step, survivor):
    d = tmp_path / "store"
    populated_store().save(d)
    want = {"previous": saved_files(d)}
    newer_store().save(tmp_path / "newer")
    want["newer"] = saved_files(tmp_path / "newer")
    shutil.rmtree(tmp_path / "newer")
    calls = 0

    def dies_at_step(fn):
        def wrapped(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == step + 1:
                raise Died
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(os, "replace", dies_at_step(os.replace))
    monkeypatch.setattr(shutil, "rmtree", dies_at_step(shutil.rmtree))
    with pytest.raises(Died):
        newer_store().save(d)
    monkeypatch.undo()

    Store.load(d).save(tmp_path / "reloaded")
    assert saved_files(tmp_path / "reloaded") == want[survivor]
    leftover = {"store.tmp"} if step == 0 else set()
    assert {p.name for p in tmp_path.iterdir()} == {"store", "reloaded"} | leftover


def test_save_refuses_a_directory_that_is_not_a_store(tmp_path):
    (tmp_path / "notes.txt").write_text("keep")
    with pytest.raises(FileExistsError):
        populated_store().save(tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]


@pytest.mark.parametrize("order", [(12, 11), (11, 11)])
def test_load_rejects_tweets_out_of_id_order(tmp_path, order):
    s = Store()
    for i in set(order):
        s.put_tweet(tw(i))
    s.save(tmp_path / "store")
    lines = {json.loads(x)["id"]: x for x in (tmp_path / "store" / "tweets.jsonl").read_text().splitlines()}
    (tmp_path / "store" / "tweets.jsonl").write_text("".join(lines[i] + "\n" for i in order))
    with pytest.raises(ValueError):
        Store.load(tmp_path / "store")


def test_read_collection_yields_saved_lines_and_records(tmp_path):
    s = populated_store()
    s.save(tmp_path / "store")
    path = tmp_path / "store" / "tweets.jsonl"
    path.write_text(path.read_text() + "\n  \n")  # blank lines are skipped
    got = list(read_collection(path))
    assert [line for line, _ in got] == path.read_text().splitlines()[:2]
    assert [rec for _, rec in got] == [model.to_record(t) for t in s.all_tweets()]
    keep = Store.COLLECTIONS["tweets"].ids
    assert [{f: rec[f] for f in keep} for _, rec in got] == [
        {"id": 11, "author": 1},
        {"id": 12, "author": 2},
    ]


def test_mutations_counter_moves_on_every_write():
    s = Store()
    seen = {s.mutations}

    def bump(result=None):
        assert s.mutations not in seen
        seen.add(s.mutations)

    s.put_tweet(tw(1))
    bump()
    s.put_snapshot(snap())
    bump()
    s.append_follow(FollowEdge(src=1, dst=2, observed_at=1))
    bump()
    s.set_class(3, UserClass.TRACKED, 1)
    bump()
