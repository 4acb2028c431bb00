"""Command-line front end: generate, crawl, classify, mine, vectorize,
report, export.

One binary with subcommands instead of a pile of scripts. Every command is
deterministic for a fixed seed and idempotent against an unchanged store,
except `crawl`, which appends. Failures print a single machine-readable
JSON line on stderr and exit nonzero.

Store directory layout (created by `crawl`):
    <dir>/store/            collections, one JSONL file each
    <dir>/runlog.jsonl      request log, appended per crawl
    <dir>/ground_truth.jsonl  world state at the end of the crawl
    <dir>/manifest.json     resolved copy of the run manifest
    <dir>/report/           mine/report/vectorize outputs
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .apiface import RateLimiter
from .classify import ClassifierConfig, load_common_names, run_classification
from .graphmine import (
    degree_distributions,
    extract_interactions,
    favorite_graph,
    follow_snapshot,
    list_similarity,
    thread_lengths,
    write_degree_csv,
    write_edges,
)
from .model import UserClass
from .sched import Crawler, SchedulerConfig, SimClock
from .simnet import DAY, World, WorldConfig
from .store import Store, dumps
from .vectorize import Vectorizer, export_vectors

MINE_KINDS = ("retweet", "mention", "reply", "quote", "favorite", "lists", "follow")


class ManifestError(ValueError):
    pass


@dataclass(frozen=True)
class RunManifest:
    """Everything a crawl run needs, in one reviewable file."""

    world_config: str
    store_dir: str
    horizon_days: float
    seed: int | None = None
    scheduler_config: str | None = None
    classifier_config: str | None = None

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        path = Path(path)
        raw = json.loads(path.read_text(encoding="utf-8"))
        unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ManifestError(f"unknown manifest fields: {sorted(unknown)}")
        m = cls(**raw)
        # relative paths mean "next to the manifest file"
        base = path.parent
        resolve = lambda p: str((base / p) if not Path(p).is_absolute() else Path(p))
        m = dataclasses.replace(
            m,
            world_config=resolve(m.world_config),
            store_dir=resolve(m.store_dir),
            scheduler_config=resolve(m.scheduler_config) if m.scheduler_config else None,
            classifier_config=resolve(m.classifier_config) if m.classifier_config else None,
        )
        m.validate()
        return m

    def validate(self) -> None:
        if self.horizon_days <= 0:
            raise ManifestError(f"horizon_days must be positive, got {self.horizon_days}")
        for label, p in (
            ("world_config", self.world_config),
            ("scheduler_config", self.scheduler_config),
            ("classifier_config", self.classifier_config),
        ):
            if p is not None and not Path(p).is_file():
                raise ManifestError(f"{label} does not exist: {p}")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2)


# -- store plumbing -----------------------------------------------------------


def _store_paths(store_dir: str | Path) -> dict[str, Path]:
    root = Path(store_dir)
    return {
        "root": root,
        "store": root / "store",
        "runlog": root / "runlog.jsonl",
        "ground_truth": root / "ground_truth.jsonl",
        "manifest": root / "manifest.json",
        "report": root / "report",
    }


def _load_store(store_dir: str | Path) -> Store:
    p = _store_paths(store_dir)["store"]
    return Store.load(p) if p.is_dir() else Store()


def _store_now(store: Store) -> int:
    """Latest virtual moment the store knows about; 0 on a blank store."""
    candidates = [0]
    candidates += [t.created_at for t in store.tweets.values()]
    candidates += [
        s.observed_at for snaps in store.snapshots.values() for s in snaps
    ]
    candidates += [
        st.last_crawled_at for st in store.crawl_states.values() if st.last_crawled_at
    ]
    return max(candidates)


# -- subcommands ---------------------------------------------------------------


def cmd_simnet_generate(args: argparse.Namespace) -> int:
    cfg = WorldConfig.from_json(Path(args.config).read_text(encoding="utf-8"))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    world = World(cfg)
    if args.horizon_days:
        world.advance(int(args.horizon_days * DAY))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    world.export_jsonl(out)
    print(json.dumps({"out": str(out), "users": len(world.users), "now": world.now}))
    return 0


def cmd_crawl(args: argparse.Namespace) -> int:
    manifest = RunManifest.load(args.config)
    if args.store:
        manifest = dataclasses.replace(manifest, store_dir=args.store)
    if args.seed is not None:
        manifest = dataclasses.replace(manifest, seed=args.seed)
    if args.horizon_days is not None:
        manifest = dataclasses.replace(manifest, horizon_days=args.horizon_days)
        manifest.validate()

    wcfg = WorldConfig.from_json(Path(manifest.world_config).read_text(encoding="utf-8"))
    if manifest.seed is not None:
        wcfg = dataclasses.replace(wcfg, seed=manifest.seed)
    scfg = (
        SchedulerConfig.from_json(Path(manifest.scheduler_config).read_text(encoding="utf-8"))
        if manifest.scheduler_config
        else SchedulerConfig()
    )
    ccfg = (
        ClassifierConfig.from_json(Path(manifest.classifier_config).read_text(encoding="utf-8"))
        if manifest.classifier_config
        else ClassifierConfig()
    )

    paths = _store_paths(manifest.store_dir)
    paths["root"].mkdir(parents=True, exist_ok=True)
    store = _load_store(manifest.store_dir)

    world = World(wcfg)
    crawler = Crawler(world, store, RateLimiter(), SimClock(world), scfg, ccfg)
    crawler.run(world.cfg.start_time + int(manifest.horizon_days * DAY))
    world.frozen = True
    if scfg.drain:
        crawler.drain()

    store.save(paths["store"])
    with open(paths["runlog"], "a", encoding="utf-8") as fh:
        for rec in crawler.log:
            fh.write(dumps(rec) + "\n")
    world.export_jsonl(paths["ground_truth"])
    paths["manifest"].write_text(manifest.to_json() + "\n", encoding="utf-8")
    print(
        json.dumps(
            {
                "store": str(paths["root"]),
                "requests": len(crawler.log),
                "tweets": len(store.tweets),
                "users_tracked": len(
                    store.users_in_class(UserClass.TRACKED, UserClass.TARGET)
                ),
            }
        )
    )
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    store = _load_store(args.store)
    loaded = store.mutations
    ccfg = (
        ClassifierConfig.from_json(Path(args.config).read_text(encoding="utf-8"))
        if args.config
        else ClassifierConfig()
    )
    names = load_common_names(ccfg)
    now = args.at if args.at is not None else _store_now(store)

    # to fixpoint: neighbor promotions can enable further promotions, and a
    # command that changes its own answer when re-run is a debugging trap
    transitions = []
    while True:
        report = run_classification(store, ccfg, names, now)
        transitions.extend(report.transitions)
        if not report.transitions:
            break

    paths = _store_paths(args.store)
    paths["root"].mkdir(parents=True, exist_ok=True)
    # an unchanged store is left as it is on disk, files and mtimes alike
    if store.mutations != loaded or not paths["store"].is_dir():
        store.save(paths["store"])
    report_path = paths["root"] / "classify_report.jsonl"
    with open(report_path, "w", encoding="utf-8") as fh:
        for u, old, new in transitions:
            fh.write(dumps({"user": u, "old": old, "new": new}) + "\n")
    print(json.dumps({"transitions": len(transitions), "report": str(report_path)}))
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    store = _load_store(args.store)
    kinds = args.kinds.split(",") if args.kinds else list(MINE_KINDS)
    unknown = set(kinds) - set(MINE_KINDS)
    if unknown:
        raise ValueError(f"unknown graph kinds: {sorted(unknown)}")

    out_dir = _store_paths(args.store)["report"]
    out_dir.mkdir(parents=True, exist_ok=True)
    graphs = extract_interactions(store.all_tweets())
    written = {}
    for kind in kinds:
        if kind in graphs:
            edges = graphs[kind].edges
        elif kind == "favorite":
            edges = favorite_graph(store.all_favorites()).edges
        elif kind == "lists":
            edges = list_similarity(store.members_by_list()).edges
        else:  # follow
            present = follow_snapshot(store.follow_log, store.follow_scans, _store_now(store))
            edges = {e: 1 for e in sorted(present)}
        n = write_edges(edges, out_dir / f"edges_{kind}.txt")
        indeg, outdeg, und = degree_distributions(edges)
        write_degree_csv(indeg, out_dir / f"degree_{kind}_in.csv")
        write_degree_csv(outdeg, out_dir / f"degree_{kind}_out.csv")
        write_degree_csv(und, out_dir / f"degree_{kind}_und.csv")
        written[kind] = n
    print(json.dumps({"out": str(out_dir), "edges": written}))
    return 0


def cmd_vectorize(args: argparse.Namespace) -> int:
    store = _load_store(args.store)
    as_of = args.as_of if args.as_of is not None else _store_now(store)
    if args.users == "all":
        users = sorted(store.users_in_class(UserClass.TRACKED, UserClass.TARGET))
    else:
        users = [int(u) for u in args.users.split(",") if u]
    out_dir = _store_paths(args.store)["report"]
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "vectors.jsonl"
    n = export_vectors(Vectorizer(store), users, as_of, out)
    print(json.dumps({"out": str(out), "vectors": n, "as_of": as_of}))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    paths = _store_paths(args.store)
    store = _load_store(args.store)
    out_dir = paths["report"]
    out_dir.mkdir(parents=True, exist_ok=True)

    # thread length histogram
    lengths = thread_lengths(store.all_tweets())
    hist = {}
    for n in lengths.values():
        hist[n] = hist.get(n, 0) + 1
    threads_csv = out_dir / "threads.csv"
    with open(threads_csv, "w", encoding="utf-8") as fh:
        fh.write("length,threads\n")
        for n in sorted(hist):
            fh.write(f"{n},{hist[n]}\n")

    # per-user coverage against the ground-truth file, when the crawl left one
    coverage_csv = out_dir / "coverage.csv"
    truth: dict[int, int] = {}
    if paths["ground_truth"].is_file():
        with open(paths["ground_truth"], encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if "uid" in rec:
                    truth[rec["uid"]] = rec["tweets"]
    crawled = sorted(store.users_in_class(UserClass.TRACKED, UserClass.TARGET))
    with open(coverage_csv, "w", encoding="utf-8") as fh:
        fh.write("user,stored,truth,pct\n")
        for u in crawled:
            stored = store.author_tweet_count(u)
            t = truth.get(u)
            pct = f"{100.0 * stored / t:.4f}" if t else ""
            fh.write(f"{u},{stored},{t if t is not None else ''},{pct}\n")

    # request efficiency from the run log
    requests_csv = out_dir / "requests.csv"
    per_endpoint: dict[str, int] = {}
    if paths["runlog"].is_file():
        with open(paths["runlog"], encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                per_endpoint[rec["endpoint"]] = per_endpoint.get(rec["endpoint"], 0) + 1
    with open(requests_csv, "w", encoding="utf-8") as fh:
        fh.write("endpoint,requests\n")
        for name in sorted(per_endpoint):
            fh.write(f"{name},{per_endpoint[name]}\n")

    total = sum(per_endpoint.values())
    summary = {
        "threads": str(threads_csv),
        "coverage": str(coverage_csv),
        "requests": str(requests_csv),
        "total_requests": total,
        "tweets_stored": len(store.tweets),
        "requests_per_tweet": round(total / len(store.tweets), 6) if store.tweets else None,
    }
    print(json.dumps(summary))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    store = _load_store(args.store)
    out = (
        Path(args.out)
        if args.out
        else _store_paths(args.store)["report"] / f"{args.collection}.jsonl"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    n = store.export_collection(args.collection, out, ids_only=args.ids_only)
    print(json.dumps({"out": str(out), "lines": n}))
    return 0


# -- wiring ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="langcrawl", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("simnet-generate", help="materialize a synthetic world")
    g.add_argument("--config", required=True, help="world config JSON")
    g.add_argument("--out", required=True, help="output JSONL path")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--horizon-days", type=float, default=0.0)
    g.set_defaults(fn=cmd_simnet_generate)

    c = sub.add_parser("crawl", help="run a crawl per manifest")
    c.add_argument("--config", required=True, help="run manifest JSON")
    c.add_argument("--store", default=None, help="override manifest store dir")
    c.add_argument("--seed", type=int, default=None)
    c.add_argument("--horizon-days", type=float, default=None)
    c.set_defaults(fn=cmd_crawl)

    cl = sub.add_parser("classify", help="(re)classify users in a store")
    cl.add_argument("--store", required=True)
    cl.add_argument("--config", default=None, help="classifier config JSON")
    cl.add_argument("--at", type=int, default=None, help="virtual timestamp for transitions")
    cl.set_defaults(fn=cmd_classify)

    m = sub.add_parser("mine", help="extract graphs and degree distributions")
    m.add_argument("--store", required=True)
    m.add_argument("--kinds", default=None, help=f"comma list of {','.join(MINE_KINDS)}")
    m.set_defaults(fn=cmd_mine)

    v = sub.add_parser("vectorize", help="compute per-user feature vectors")
    v.add_argument("--store", required=True)
    v.add_argument("--users", default="all", help="'all' or comma-separated ids")
    v.add_argument("--as-of", type=int, default=None, dest="as_of")
    v.set_defaults(fn=cmd_vectorize)

    r = sub.add_parser("report", help="thread, coverage and request summaries")
    r.add_argument("--store", required=True)
    r.set_defaults(fn=cmd_report)

    e = sub.add_parser("export", help="dump one store collection as JSONL")
    e.add_argument("collection")
    e.add_argument("--store", required=True)
    e.add_argument("--out", default=None)
    e.add_argument("--ids-only", action="store_true")
    e.set_defaults(fn=cmd_export)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 - the contract is one error line, exit 1
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
