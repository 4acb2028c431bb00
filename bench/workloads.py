"""The benchmark's three workloads and the per-layer figures of a traced round.

Each workload builds its inputs from the seed, runs one measured phase per
round, and checks the phase's outputs with the recounts in `checks`. A round
returns its set-up time, the wall time of its measured phase, its operations
and how many of them failed.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from langcrawl import classify as classify_mod
from langcrawl import cli
from langcrawl import model as model_mod
from langcrawl import vectorize as vec_mod
from langcrawl.apiface import DEFAULT_BUDGETS, RateLimiter
from langcrawl.classify import ClassifierConfig
from langcrawl.model import UserClass
from langcrawl.sched import Crawler, SchedulerConfig, SimClock
from langcrawl.simnet import DAY, World, WorldConfig
from langcrawl.store import PutTweetResult, Store, dumps
from langcrawl.vectorize import FEATURE_FIELDS, Vectorizer

import checks
from spans import ENDPOINTS, CountingLimiter, Patches, Recorder, TimedClock, timed_source

CRAWLABLE = (UserClass.TRACKED, UserClass.TARGET)
SRC = Path(cli.__file__).resolve().parents[1]

# el/en 0.6/0.4 with bilingual users and small daily churn, so that the
# not-found, suspended and protected paths all run.
WORLD = dict(
    n_users=600,
    community_fractions={"el": 0.6, "en": 0.4},
    mixed_fraction=0.1,
    churn_suspend_daily=0.002,
    churn_delete_daily=0.002,
    churn_protect_daily=0.002,
)
HORIZON_DAYS = 10
HANG_S = 30  # a crawl of these worlds takes about 2 s, a set-up crawl about 3 s
# Tweet volume swings by 10 to 20% from one world to the next, so a run
# spreads its rounds over several worlds and averages over them.
WORLDS = 4
# On a few worlds of this config Crawler.run never returns (sched.py
# _pop_tweet_user, see bench/README.md), so a seed that reached one would fail
# where others do not. Seeds therefore draw from a fixed pool of GROUPS groups
# of WORLDS worlds, worlds 0 to GROUPS * WORLDS - 1, every one of which crawls
# to its end on the current code. A crawl in the pool that stops ending is
# still caught by the watchdog.
GROUPS = 32


def world_configs(seed: int) -> list[WorldConfig]:
    """The worlds of one seed: the seed alone decides them."""
    group = seed % GROUPS
    return [WorldConfig(seed=group * WORLDS + k, **WORLD) for k in range(WORLDS)]


def rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class CrawlHung(BaseException):
    """Raised by the watchdog. Not an Exception, so that no handler in the
    program swallows it."""


@contextlib.contextmanager
def watchdog(seconds: float):
    """Raise CrawlHung in the block once it has run for `seconds`."""

    def hung(signum, frame):
        raise CrawlHung

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Round:
    world: int  # index into the seed's worlds
    setup_s: float
    wall_s: float
    ops: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)  # output checks that failed
    broken: bool = False  # the round could not run; every later round would repeat it
    tweets_per_request: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)
    rss_mb: dict[str, float] = field(default_factory=dict)  # peak RSS after each phase

    def op(self, ok: bool, what: str = "", raised: bool = False) -> None:
        """Count one operation; a failed check also marks the output wrong."""
        self.ops += 1
        if not ok:
            self.failed += 1
            if not raised:
                self.wrong.append(what)

    def hung(self, what: str) -> "Round":
        """Count a crawl that did not end as one failed operation."""
        self.op(False, f"{what} did not end within {HANG_S} s")
        self.broken = True
        return self


def sha256_lines(records) -> str:
    """Digest of records as the CLI writes them, one canonical JSON line each."""
    return hashlib.sha256("".join(dumps(r) + "\n" for r in records).encode()).hexdigest()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_dir(directory: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(directory.iterdir()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def file_hashes(directory: Path) -> dict[str, str]:
    return {p.name: sha256_file(p) for p in sorted(directory.iterdir())}


def crawl_world(world: World, api=None, limiter=None, clock=None):
    """World -> crawl -> freeze -> drain, with the library calls cmd_crawl makes."""
    store = Store()
    crawler = Crawler(
        api or world,
        store,
        limiter or RateLimiter(),
        clock or SimClock(world),
        SchedulerConfig(),
        ClassifierConfig(),
    )
    crawler.run(world.cfg.start_time + HORIZON_DAYS * DAY)
    world.frozen = True
    crawler.drain()
    return store, crawler


def crawl_run_dir(cfg: WorldConfig, parent: Path) -> Path:
    """`langcrawl crawl` of cfg's world into parent/run, as a process of its
    own, so that the crawl's memory stays out of this process's peak.
    Raises CrawlHung when it has not ended after HANG_S seconds."""
    shutil.rmtree(parent, ignore_errors=True)
    parent.mkdir(parents=True)
    (parent / "world.json").write_text(cfg.to_json(), encoding="utf-8")
    manifest = {"world_config": "world.json", "store_dir": "run", "horizon_days": HORIZON_DAYS}
    (parent / "run.json").write_text(json.dumps(manifest), encoding="utf-8")
    argv = [sys.executable, "-m", "langcrawl.cli", "crawl", "--config", str(parent / "run.json")]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        subprocess.run(argv, env=env, capture_output=True, check=True, timeout=HANG_S)
    except subprocess.TimeoutExpired:
        raise CrawlHung from None
    return parent / "run"


def run_cli(argv: list[str]) -> tuple[int, dict | None]:
    """langcrawl.cli.main in-process; its one-line JSON summary is captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    lines = out.getvalue().strip().splitlines()
    return rc, (json.loads(lines[-1]) if rc == 0 and lines else None)


class Workload:
    def __init__(self, seed: int, workdir: Path) -> None:
        self.cfgs = world_configs(seed)
        self.workdir = workdir


class CrawlWorkload(Workload):
    """Crawl a fresh world over a fixed horizon; nothing is written to disk."""

    def round(self, k: int, rec=None):
        t0 = perf_counter()
        world = World(self.cfgs[k])
        setup = perf_counter() - t0
        gc.collect()
        rss_setup = rss_mb()
        limiter, patches = None, None
        if rec is not None:
            limiter, patches = CountingLimiter(rec), install(rec)
        t0 = perf_counter()
        try:
            with watchdog(HANG_S):
                if rec is None:
                    store, crawler = crawl_world(world)
                else:
                    store, crawler = rec.call(
                        "sched.crawl",
                        crawl_world,
                        world,
                        timed_source(world, rec),
                        limiter,
                        TimedClock(SimClock(world), rec),
                    )
        except CrawlHung:
            return Round(k, setup, perf_counter() - t0).hung("crawl")
        except Exception:  # noqa: BLE001 - a crash is a failed operation
            r = Round(k, setup, perf_counter() - t0)
            r.op(False, "crawl", raised=True)
            return r
        finally:
            if patches is not None:
                patches.restore()
        wall = perf_counter() - t0
        if rec is not None:
            rec.counts["apiface.acquire.granted"] = limiter.granted
            rec.counts["apiface.acquire.blocked"] = limiter.blocked

        r = Round(k, setup, wall, tweets_per_request=len(store.tweets) / len(crawler.log))
        r.rss_mb = {"setup": rss_setup, "phase": rss_mb()}
        r.digests["request_log"] = sha256_lines(crawler.log)
        world_log = world.request_log
        budgets = {e.value: b.max_requests for e, b in DEFAULT_BUDGETS.items()}
        over = checks.budget_violations(world_log, budgets)
        differ = checks.logs_disagree(crawler.log, world_log)
        r.op(
            not over and not differ,
            f"crawl: windows over budget {over[:3]}, logs differ on {differ}",
        )
        tracked = store.users_in_class(*CRAWLABLE)
        for u in tracked:
            if store.get_crawl_state(u).cap_reached:
                continue
            got, truth = store.author_tweet_ids(u), world.users[u].tweet_ids
            r.op(got == truth, f"user {u}: {len(got)} tweets stored, {len(truth)} in the world")
        if rec is not None:
            rec.counts["sched.requests"] = len(crawler.log)
            rec.counts["sched.tweets_stored"] = len(store.tweets)
            rec.counts["sched.users_tracked"] = len(tracked)
            rec.counts["simnet.tweets_emitted"] = len(world.tweet_log)
        r.rss_mb["checks"] = rss_mb()
        return r


class PostprocessWorkload(Workload):
    """The offline commands, in-process, on a run directory that set-up made
    with `langcrawl crawl`, afresh for every round."""

    COMMANDS = ("classify", "classify", "mine", "report", "export")

    def round(self, k: int, rec=None):
        t0 = perf_counter()
        try:
            run = crawl_run_dir(self.cfgs[k], self.workdir / "round")
        except CrawlHung:
            return Round(k, perf_counter() - t0, 0.0).hung("set-up crawl")
        r = Round(k, perf_counter() - t0, 0.0)
        r.rss_mb["setup"] = rss_mb()
        store_dir, report_dir = run / "store", run / "report"
        r.digests["request_log"] = sha256_file(run / "runlog.jsonl")
        argv = {
            "classify": ["classify", "--store", str(run)],
            "mine": ["mine", "--store", str(run)],
            "report": ["report", "--store", str(run)],
            "export": ["export", "tweets", "--store", str(run)],
        }
        gc.collect()
        patches = install(rec) if rec is not None else None
        try:
            results = []
            before_second = None
            for i, cmd in enumerate(self.COMMANDS):
                if i == 1:
                    before_second = file_hashes(store_dir)
                t0 = perf_counter()
                if rec is None:
                    results.append(run_cli(argv[cmd]))
                else:
                    results.append(rec.call(f"cli.{cmd}", run_cli, argv[cmd]))
                r.wall_s += perf_counter() - t0
        finally:
            if patches is not None:
                patches.restore()
        r.rss_mb["phase"] = rss_mb()

        (rc1, _), (rc2, second), (rc3, _), (rc4, report), (rc5, exported) = results
        r.op(rc1 == 0, "classify #1", raised=True)
        if rc2 != 0:
            r.op(False, "classify #2", raised=True)
        else:
            r.op(
                second["transitions"] == 0 and file_hashes(store_dir) == before_second,
                f"classify #2: {second['transitions']} transitions or store bytes changed",
            )
        if rc3 != 0:
            r.op(False, "mine", raised=True)
        else:
            want = checks.recount_edges(store_dir)
            bad = [k for k in want if checks.read_edges(report_dir / f"edges_{k}.txt") != want[k]]
            del want
            truth = checks.true_follow_edges(run / "ground_truth.jsonl")
            follow = checks.read_edges(report_dir / "edges_follow.txt")
            if not set(follow) <= truth:
                bad.append("follow")
            r.op(not bad, f"mine: edges differ from a recount for {bad}")
        requests = checks.line_count(run / "runlog.jsonl")
        tweets = checks.line_count(store_dir / "tweets.jsonl")
        if rc4 != 0:
            r.op(False, "report", raised=True)
        else:
            r.op(
                report["total_requests"] == requests and report["tweets_stored"] == tweets,
                f"report: totals {report['total_requests']}/{report['tweets_stored']}"
                f" against {requests}/{tweets} lines",
            )
        if rc5 != 0:
            r.op(False, "export", raised=True)
        else:
            n = checks.ascending_count(exported["out"])
            r.op(
                n == tweets == exported["lines"],
                "export: not one line per stored tweet in ascending id order",
            )
        r.tweets_per_request = tweets / requests
        r.digests["store"] = sha256_dir(store_dir)
        if rec is not None:
            files = list(store_dir.iterdir())
            rec.counts["store.bytes"] = sum(p.stat().st_size for p in files)
            rec.counts["store.records"] = sum(checks.line_count(p) for p in files)
        r.rss_mb["checks"] = rss_mb()
        return r


class VectorizeWorkload(Workload):
    """Feature vectors for every tracked or target user of a store that
    set-up crawled with `langcrawl crawl` and loaded back, afresh for every
    round."""

    def round(self, k: int, rec=None):
        t0 = perf_counter()
        try:
            run = crawl_run_dir(self.cfgs[k], self.workdir / "round")
        except CrawlHung:
            return Round(k, perf_counter() - t0, 0.0).hung("set-up crawl")
        store_dir = run / "store"
        store = Store.load(store_dir)
        r = Round(k, perf_counter() - t0, 0.0)
        gc.collect()
        r.rss_mb["setup"] = rss_mb()
        as_of = cli._store_now(store)  # the as_of that `langcrawl vectorize` defaults to
        requests = checks.line_count(run / "runlog.jsonl")
        r.tweets_per_request = checks.line_count(store_dir / "tweets.jsonl") / requests
        r.digests["request_log"] = sha256_file(run / "runlog.jsonl")
        r.digests["store"] = sha256_dir(store_dir)
        want = checks.recount_vector_fields(store_dir, as_of)
        out = self.workdir / "vectors.jsonl"
        out.unlink(missing_ok=True)
        users = sorted(store.users_in_class(*CRAWLABLE))
        patches = install(rec) if rec is not None else None
        t0 = perf_counter()
        try:
            vec_mod.export_vectors(Vectorizer(store), users, as_of, out)
        except Exception:  # noqa: BLE001 - the rows not written count as failed
            pass
        finally:
            r.wall_s = perf_counter() - t0
            if patches is not None:
                patches.restore()
        r.rss_mb["phase"] = rss_mb()
        del store

        fields = list(FEATURE_FIELDS)
        rows = 0
        if out.exists():
            r.digests["vectors"] = sha256_file(out)
            for i, row in enumerate(checks.iter_jsonl(out)):
                rows += 1
                if i >= len(users):
                    continue
                u = users[i]
                ok = list(row) == fields and row["id"] == u
                ok = ok and all(row[k] == v for k, v in want[u].items())
                r.op(ok, f"vector of user {u}")
        for u in users[rows:]:  # rows not written
            r.op(False, f"vector of user {u}", raised=True)
        if rows > len(users):
            r.wrong.append(f"{rows} vector rows for {len(users)} users")
        if rec is not None:
            rec.counts["vectorize.vectors"] = rows
            rec.counts["vectorize.tweets"] = sum(want[u]["seen_total"] for u in users)
        r.rss_mb["checks"] = rss_mb()
        return r


WORKLOADS = {
    "crawl": CrawlWorkload,
    "postprocess": PostprocessWorkload,
    "vectorize": VectorizeWorkload,
}


# -- tracing ------------------------------------------------------------------------

STORE_WRITES = (
    "put_snapshot",
    "put_tweet",
    "append_follow",
    "record_follow_scan",
    "put_list",
    "put_membership",
    "put_subscription",
    "put_favorite",
    "put_trend",
    "add_gone_ref",
    "discard_gone_ref",
    "set_class",
    "put_crawl_state",
)
GRAPH_FNS = (
    "extract_interactions",
    "favorite_graph",
    "list_similarity",
    "follow_snapshot",
    "degree_distributions",
    "thread_lengths",
)
FAMILIES = ("profile", "activity", "interaction", "relation", "text", "sentiment")
CLI_COMMANDS = ("classify", "mine", "report", "export")


def install(rec: Recorder) -> Patches:
    """Trace the public functions of every layer, wherever the program looks
    them up: a module that imported a name by itself is patched too."""
    counts = rec.counts

    def inserted(result):
        counts["store.put_tweet.inserted"] += result is PutTweetResult.INSERTED

    def transitions(report):
        counts["classify.transitions"] += len(report.transitions)

    def edges(n):
        counts["graphmine.edges"] += n

    p = Patches(rec)
    p.trace(classify_mod, "run_classification", "classify.run", transitions)
    p.trace(cli, "run_classification", "classify.run", transitions)
    p.trace(Store, "load", "store.load")
    p.trace(Store, "save", "store.save")
    for name in STORE_WRITES:
        p.trace(Store, name, f"store.{name}", inserted if name == "put_tweet" else None)
    p.trace(model_mod, "to_record", "model.to_record")
    p.trace(model_mod, "from_record", "model.from_record")
    for name in GRAPH_FNS:
        p.trace(cli, name, f"graphmine.{name}")
    p.trace(cli, "write_edges", "graphmine.write_edges", edges)
    p.trace(cli, "write_degree_csv", "graphmine.write_degree_csv")
    p.trace(vec_mod, "extract_interactions", "graphmine.extract_interactions")
    p.trace(vec_mod, "follow_snapshot", "graphmine.follow_snapshot")
    for fam in FAMILIES:
        p.trace(vec_mod, f"{fam}_features", f"vectorize.{fam}")
    p.trace(vec_mod, "count_in_ranges", "lexicons.count_in_ranges")
    p.trace(Vectorizer, "assemble_vector", "vectorize.assemble")
    p.trace(vec_mod, "export_vectors", "vectorize.export_vectors")
    return p


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Every per-layer figure of one traced round. A layer the round's
    measured phase never calls reads 0."""
    total, calls, own = rec.summary()
    t = lambda name: total.get(name, 0.0)  # noqa: E731
    c = lambda name: calls.get(name, 0)  # noqa: E731
    m: dict[str, float] = {}

    m["simnet.advance_s"] = t("simnet.advance")
    m["simnet.advance.calls"] = c("simnet.advance")
    api = [f"simnet.{e}" for e in ENDPOINTS]
    m["simnet.api_s"] = sum(t(n) for n in api)
    m["simnet.api.calls"] = sum(c(n) for n in api)
    for e in ENDPOINTS:
        m[f"simnet.{e}_s"] = t(f"simnet.{e}")
        m[f"simnet.{e}.calls"] = c(f"simnet.{e}")
    m["apiface.acquire_s"] = t("apiface.acquire")
    m["apiface.acquire.calls"] = c("apiface.acquire")
    m["apiface.acquire.granted"] = rec.counts["apiface.acquire.granted"]
    m["apiface.acquire.blocked"] = rec.counts["apiface.acquire.blocked"]
    writes = [f"store.{w}" for w in STORE_WRITES]
    m["store.write_s"] = sum(t(n) for n in writes)
    m["store.write.calls"] = sum(c(n) for n in writes)
    m["store.put_tweet.calls"] = c("store.put_tweet")
    m["store.put_tweet.inserted"] = rec.counts["store.put_tweet.inserted"]
    m["classify.run_s"] = t("classify.run")
    m["classify.run.calls"] = c("classify.run")
    m["classify.transitions"] = rec.counts["classify.transitions"]
    m["sched.self_s"] = own.get("sched.crawl", 0.0)
    for name in ("requests", "tweets_stored", "users_tracked"):
        m[f"sched.{name}"] = rec.counts[f"sched.{name}"]
    m["simnet.tweets_emitted"] = rec.counts["simnet.tweets_emitted"]

    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = t(f"cli.{cmd}")
    for op in ("load", "save"):
        m[f"store.{op}_s"] = t(f"store.{op}")
        m[f"store.{op}.calls"] = c(f"store.{op}")
    m["store.bytes"] = rec.counts["store.bytes"]
    m["store.records"] = rec.counts["store.records"]
    for fn in ("to_record", "from_record"):
        m[f"model.{fn}_s"] = t(f"model.{fn}")
        m[f"model.{fn}.calls"] = c(f"model.{fn}")
    for fn in GRAPH_FNS:
        m[f"graphmine.{fn}_s"] = t(f"graphmine.{fn}")
    m["graphmine.write_s"] = t("graphmine.write_edges") + t("graphmine.write_degree_csv")
    m["graphmine.edges"] = rec.counts["graphmine.edges"]

    m["vectorize.context_s"] = rec.total_under("graphmine.", "vectorize.assemble")
    for fam in FAMILIES:
        m[f"vectorize.{fam}_s"] = t(f"vectorize.{fam}")
    m["vectorize.encode_s"] = own.get("vectorize.export_vectors", 0.0)
    m["vectorize.vectors"] = rec.counts["vectorize.vectors"]
    m["vectorize.tweets"] = rec.counts["vectorize.tweets"]
    m["lexicons.count_in_ranges_s"] = t("lexicons.count_in_ranges")
    m["lexicons.count_in_ranges.calls"] = c("lexicons.count_in_ranges")
    return m
