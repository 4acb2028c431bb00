"""End-to-end runs of every subcommand against temp directories."""

import json
import os
import shutil
from pathlib import Path

import pytest

from langcrawl import cli, model
from langcrawl import store as store_mod
from langcrawl.cli import RunManifest, main
from langcrawl.simnet import WorldConfig
from langcrawl.store import Store, dumps, read_collection


def world_config(tmp_path, **kw):
    cfg = WorldConfig(
        seed=19,
        n_users=25,
        community_fractions={"el": 0.6, "en": 0.4},
        mixed_fraction=0.1,
        **kw,
    )
    p = tmp_path / "world.json"
    p.write_text(cfg.to_json())
    return p


def manifest(tmp_path, store="run", horizon=2.0, **kw):
    rec = {
        "world_config": str(world_config(tmp_path)),
        "store_dir": str(tmp_path / store),
        "horizon_days": horizon,
        **kw,
    }
    p = tmp_path / "manifest.json"
    p.write_text(json.dumps(rec, indent=2))
    return p


def test_manifest_load_resolves_relative_paths(tmp_path):
    world_config(tmp_path)
    (tmp_path / "m.json").write_text(
        json.dumps({"world_config": "world.json", "store_dir": "run", "horizon_days": 1})
    )
    m = RunManifest.load(tmp_path / "m.json")
    assert m.world_config == str(tmp_path / "world.json")
    assert m.store_dir == str(tmp_path / "run")


def test_manifest_copy_loads_back_and_names_no_run_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    world_config(tmp_path)
    (tmp_path / "sched.json").write_text("{}")
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "classify.json").write_text("{}")
        (tmp_path / side / "run.json").write_text(json.dumps({
            "world_config": "../world.json",
            "scheduler_config": str(tmp_path / "sched.json"),
            "classifier_config": "classify.json",
            "store_dir": "run",
            "horizon_days": 1,
        }))
        assert main(["crawl", "--config", f"{side}/run.json"]) == 0
    capsys.readouterr()
    original = RunManifest.load("a/run.json")
    copy = RunManifest.load("a/run/manifest.json")
    assert json.loads(Path("a/run/manifest.json").read_text())["store_dir"] == "."
    for name in ("world_config", "store_dir", "scheduler_config", "classifier_config"):
        assert os.path.abspath(getattr(copy, name)) == os.path.abspath(getattr(original, name))

    def files(root):
        return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    assert files(tmp_path / "a" / "run") == files(tmp_path / "b" / "run")


def test_manifest_rejects_unknown_fields_and_bad_horizon(tmp_path):
    world_config(tmp_path)
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"world_config": "world.json", "store_dir": "r",
                             "horizon_days": 1, "bogus": 2}))
    with pytest.raises(Exception):
        RunManifest.load(p)
    p.write_text(json.dumps({"world_config": "world.json", "store_dir": "r",
                             "horizon_days": 0}))
    with pytest.raises(Exception):
        RunManifest.load(p)
    p.write_text(json.dumps({"world_config": "world.json", "store_dir": "r",
                             "horizon_days": 1, "seed": 7}))
    with pytest.raises(ValueError, match="seed"):
        RunManifest.load(p)


def test_simnet_generate_deterministic(tmp_path, capsys):
    cfg = world_config(tmp_path)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["simnet-generate", "--config", str(cfg), "--horizon-days", "1"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    first = json.loads(a.read_text().splitlines()[0])
    assert first["config"]["n_users"] == 25


@pytest.fixture()
def crawled(tmp_path, capsys):
    m = manifest(tmp_path)
    assert main(["crawl", "--config", str(m)]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return tmp_path, m, out


def test_crawl_writes_store_layout(crawled):
    tmp_path, m, summary = crawled
    root = tmp_path / "run"
    assert (root / "store" / "tweets.jsonl").exists()
    assert (root / "runlog.jsonl").exists()
    assert (root / "ground_truth.jsonl").exists()
    assert (root / "manifest.json").exists()
    assert summary["tweets"] > 0
    assert summary["requests"] == len((root / "runlog.jsonl").read_text().splitlines())


def test_crawl_twice_same_seed_identical_runlogs(tmp_path, capsys):
    m1 = manifest(tmp_path, store="run1")
    rec = json.loads(m1.read_text())
    rec["store_dir"] = str(tmp_path / "run2")
    m2 = tmp_path / "manifest2.json"
    m2.write_text(json.dumps(rec))
    assert main(["crawl", "--config", str(m1)]) == 0
    assert main(["crawl", "--config", str(m2)]) == 0
    capsys.readouterr()
    log1 = (tmp_path / "run1" / "runlog.jsonl").read_bytes()
    log2 = (tmp_path / "run2" / "runlog.jsonl").read_bytes()
    assert log1 == log2
    s1 = (tmp_path / "run1" / "store" / "tweets.jsonl").read_bytes()
    s2 = (tmp_path / "run2" / "store" / "tweets.jsonl").read_bytes()
    assert s1 == s2


def test_recrawl_appends_runlog_and_keeps_store(crawled, capsys):
    tmp_path, m, first = crawled
    lines_before = len((tmp_path / "run" / "runlog.jsonl").read_text().splitlines())
    assert main(["crawl", "--config", str(m)]) == 0
    capsys.readouterr()
    lines_after = len((tmp_path / "run" / "runlog.jsonl").read_text().splitlines())
    assert lines_after > lines_before  # append-only, never truncated


def test_classify_is_idempotent(crawled, capsys):
    tmp_path, m, _ = crawled
    store = str(tmp_path / "run")
    assert main(["classify", "--store", store]) == 0
    first = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # backdate every store file, so that a rewrite shows in its mtime
    files = sorted((tmp_path / "run" / "store").iterdir())
    for f in files:
        os.utime(f, ns=(1_000_000_000, 1_000_000_000))
    before = [(f.name, f.read_bytes(), f.stat().st_mtime_ns) for f in files]
    report = tmp_path / "run" / "classify_report.jsonl"
    report.unlink()
    assert main(["classify", "--store", store]) == 0
    second = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert second["transitions"] == 0
    assert first["transitions"] >= 0
    assert report.exists()
    files = sorted((tmp_path / "run" / "store").iterdir())
    assert [(f.name, f.read_bytes(), f.stat().st_mtime_ns) for f in files] == before


def test_mine_writes_edge_and_degree_files(crawled, capsys):
    tmp_path, m, _ = crawled
    store = str(tmp_path / "run")
    assert main(["mine", "--store", store]) == 0
    capsys.readouterr()
    report = tmp_path / "run" / "report"
    for kind in ("retweet", "mention", "reply", "quote", "favorite", "lists", "follow"):
        edges = report / f"edges_{kind}.txt"
        assert edges.exists(), kind
        for direction in ("in", "out", "und"):
            assert (report / f"degree_{kind}_{direction}.csv").exists()
    sample = (report / "degree_retweet_in.csv").read_text().splitlines()
    assert sample[0] == "degree,count"


@pytest.mark.parametrize("kinds, calls", [("follow,favorite,lists", 0), ("follow,quote", 1), (None, 1)])
def test_mine_builds_interaction_graphs_only_for_their_kinds(crawled, capsys, monkeypatch, kinds, calls):
    tmp_path, _, _ = crawled
    seen = []
    real = cli.extract_interactions
    monkeypatch.setattr(cli, "extract_interactions", lambda tweets: seen.append(1) or real(tweets))
    argv = ["mine", "--store", str(tmp_path / "run")] + (["--kinds", kinds] if kinds else [])
    assert main(argv) == 0
    capsys.readouterr()
    assert len(seen) == calls


def test_mine_kinds_filter(crawled, capsys):
    tmp_path, m, _ = crawled
    store = str(tmp_path / "run")
    assert main(["mine", "--store", store, "--kinds", "reply"]) == 0
    capsys.readouterr()
    report = tmp_path / "run" / "report"
    assert (report / "edges_reply.txt").exists()
    assert not (report / "edges_quote.txt").exists()


def test_vectorize_default_users(crawled, capsys):
    tmp_path, m, _ = crawled
    store = str(tmp_path / "run")
    assert main(["classify", "--store", store]) == 0
    capsys.readouterr()
    assert main(["vectorize", "--store", store]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    out = tmp_path / "run" / "report" / "vectors.jsonl"
    rows = [json.loads(x) for x in out.read_text().splitlines()]
    assert summary["vectors"] == len(rows) > 0
    ids = [r["id"] for r in rows]
    assert ids == sorted(ids)


def test_vectorize_explicit_users(crawled, capsys):
    tmp_path, m, _ = crawled
    store = str(tmp_path / "run")
    truth = (tmp_path / "run" / "ground_truth.jsonl").read_text().splitlines()
    uid = json.loads(truth[1])["uid"]
    assert main(["vectorize", "--store", store, "--users", str(uid)]) == 0
    capsys.readouterr()
    rows = (tmp_path / "run" / "report" / "vectors.jsonl").read_text().splitlines()
    assert len(rows) == 1
    assert json.loads(rows[0])["id"] == uid


def test_report_summaries(crawled, capsys):
    tmp_path, m, _ = crawled
    store = str(tmp_path / "run")
    assert main(["report", "--store", store]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    report = tmp_path / "run" / "report"
    assert (report / "threads.csv").read_text().splitlines()[0] == "length,threads"
    cov = (report / "coverage.csv").read_text().splitlines()
    assert cov[0] == "user,stored,truth,pct"
    assert len(cov) > 1
    req = (report / "requests.csv").read_text().splitlines()
    assert req[0] == "endpoint,requests"
    assert summary["requests_per_tweet"] > 0


def test_report_on_empty_store_writes_headers(tmp_path, capsys):
    store = tmp_path / "empty"
    store.mkdir()
    assert main(["report", "--store", str(store)]) == 0
    capsys.readouterr()
    assert (store / "report" / "threads.csv").read_text() == "length,threads\n"
    assert (store / "report" / "coverage.csv").read_text() == "user,stored,truth,pct\n"


READ_ONLY_COMMANDS = {
    # command: the collections it reads
    ("mine",): {"users", "tweets", "follow", "followscans", "memberships", "favorites", "crawlstate"},
    ("report",): {"tweets", "classes"},
    ("vectorize",): {
        "users", "tweets", "follow", "followscans", "favorites", "classes", "crawlstate", "gonerefs"
    },
    ("export", "users"): {"users"},
    ("export", "shorturl"): {"shorturl"},
}


@pytest.mark.parametrize("command", sorted(READ_ONLY_COMMANDS))
def test_read_only_commands_load_only_what_they_read(crawled, capsys, monkeypatch, command):
    tmp_path, _, _ = crawled
    run = tmp_path / "run"
    argv = [*command, "--store", str(run)]
    read = set()

    def spy(path):
        read.add(Path(path).stem)
        return read_collection(path)

    def outputs():
        assert main(argv) == 0
        files = {p.name: p.read_bytes() for p in sorted((run / "report").iterdir())}
        return capsys.readouterr().out, files

    monkeypatch.setattr(store_mod, "read_collection", spy)
    monkeypatch.setattr(cli, "read_collection", spy)
    partial = outputs()
    assert read == READ_ONLY_COMMANDS[command]
    monkeypatch.setattr(cli, "_load_store", lambda d, collections=None: Store.load(run / "store"))
    read.clear()
    assert outputs() == partial
    # export loads no store, so the whole-store load above does not reach it
    whole = READ_ONLY_COMMANDS[command] if command[0] == "export" else set(Store.COLLECTIONS)
    assert read == whole


def test_export_equals_the_saved_file(crawled, capsys):
    tmp_path, _, _ = crawled
    run = tmp_path / "run"
    for name in Store.COLLECTIONS:
        out = tmp_path / "exports" / f"{name}.jsonl"
        assert main(["export", name, "--store", str(run), "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        saved = (run / "store" / f"{name}.jsonl").read_bytes()
        assert out.read_bytes() == saved, name
        assert summary["lines"] == saved.count(b"\n")


def test_export_ids_only(crawled, capsys):
    tmp_path, m, _ = crawled
    run = tmp_path / "run"
    for name in Store.COLLECTIONS:
        assert main(["export", name, "--store", str(run), "--ids-only"]) == 0
        capsys.readouterr()
        saved = [json.loads(x) for x in (run / "store" / f"{name}.jsonl").read_text().splitlines()]
        keep = Store.COLLECTIONS[name].ids
        want = [{f: rec[f] for f in keep} if keep else rec for rec in saved]
        got = (run / "report" / f"{name}.jsonl").read_text()
        assert got == "".join(dumps(rec) + "\n" for rec in want), name
    rows = [json.loads(x) for x in (run / "report" / "tweets.jsonl").read_text().splitlines()]
    assert rows
    assert all(set(r) == {"id", "author"} for r in rows)


def test_export_full_collection_to_custom_path(crawled, capsys):
    tmp_path, m, _ = crawled
    store = str(tmp_path / "run")
    dst = tmp_path / "users_dump.jsonl"
    assert main(["export", "users", "--store", store, "--out", str(dst)]) == 0
    capsys.readouterr()
    rows = [json.loads(x) for x in dst.read_text().splitlines()]
    assert rows and "screen_name" in rows[0]


@pytest.mark.parametrize("ids_only", [[], ["--ids-only"]], ids=["whole", "ids-only"])
def test_export_builds_no_store_and_no_record(crawled, capsys, monkeypatch, ids_only):
    tmp_path, _, _ = crawled
    built = []
    real = model.from_record
    monkeypatch.setattr(model, "from_record", lambda *a: built.append(a) or real(*a))
    monkeypatch.setattr(Store, "__init__", lambda self: built.append(self))
    argv = ["export", "tweets", "--store", str(tmp_path / "run"), *ids_only]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["lines"] > 0
    assert built == []


@pytest.mark.parametrize("bad", ['{"id":1}{"id":2}', '{"id":'], ids=["two-values", "cut-short"])
def test_export_fails_on_a_malformed_line_as_load_does(crawled, capsys, bad):
    tmp_path, _, _ = crawled
    run = tmp_path / "run"
    tweets = run / "store" / "tweets.jsonl"
    lines = tweets.read_text().splitlines()
    tweets.write_text("\n".join([lines[0], bad, *lines[1:]]) + "\n")
    with pytest.raises(ValueError):
        Store.load(run / "store")
    args = cli.build_parser().parse_args(["export", "tweets", "--store", str(run)])
    with pytest.raises(ValueError):
        args.fn(args)


def test_export_finishes_a_save_that_died_between_its_renames(crawled, capsys):
    tmp_path, _, _ = crawled
    run = tmp_path / "run"
    # the new store is complete in store.tmp/, the old one moved to store.old/
    shutil.copytree(run / "store", run / "store.tmp")
    newer = run / "store.tmp" / "tweets.jsonl"
    newer.write_text("".join(newer.read_text().splitlines(keepends=True)[:3]))
    want = newer.read_bytes()
    os.replace(run / "store", run / "store.old")
    assert main(["export", "tweets", "--store", str(run)]) == 0
    assert json.loads(capsys.readouterr().out)["lines"] == 3
    assert (run / "report" / "tweets.jsonl").read_bytes() == want
    assert (run / "store" / "tweets.jsonl").read_bytes() == want
    assert not (run / "store.tmp").exists() and not (run / "store.old").exists()


@pytest.mark.parametrize(
    "collection, out, ids_only",
    [
        ("tweets", "store/tweets.jsonl", ["--ids-only"]),
        ("tweets", "store/tweets.jsonl", []),
        ("tweets", "report/../store/tweets.jsonl", []),
        ("tweets", "store/users.jsonl", []),
    ],
    ids=["ids-only", "whole", "other-spelling", "other-collection"],
)
def test_export_refuses_to_write_over_the_store(crawled, capsys, collection, out, ids_only):
    tmp_path, _, _ = crawled
    run = tmp_path / "run"
    (run / "report").mkdir(exist_ok=True)
    before = {p.name: p.read_bytes() for p in sorted((run / "store").iterdir())}
    argv = ["export", collection, "--store", str(run), "--out", str(run / out), *ids_only]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ValueError"
    assert {p.name: p.read_bytes() for p in sorted((run / "store").iterdir())} == before
    assert len(Store.load(run / "store").tweets) == before["tweets.jsonl"].count(b"\n")


def test_errors_print_one_json_line_and_exit_1(tmp_path, capsys):
    rc = main(["crawl", "--config", str(tmp_path / "missing.json")])
    captured = capsys.readouterr()
    assert rc == 1
    err = json.loads(captured.err.strip())
    assert err["error"] == "FileNotFoundError"

    store = tmp_path / "empty"
    store.mkdir()
    rc = main(["export", "nonsense", "--store", str(store)])
    captured = capsys.readouterr()
    assert rc == 1
    assert json.loads(captured.err.strip())["error"] == "KeyError"
