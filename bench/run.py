"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload crawl --seed 1 --seconds 20 --trace 0

Repeats whole rounds (set-up, measured phase, output checks), cycling
through the seed's worlds, until the measured phases add up to --seconds
and every world has had a round. Then prints, as the last line of stdout,
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json, each the mean over the worlds of its median over the
world's rounds, or with --trace 1 the per-layer metrics of one more round,
on the first world, run with every layer traced. Figures,
digests and spans of the run go to bench/out/. See bench/README.md.

End-to-end times are reference-speed seconds: each round's time is scaled
by REFERENCE_S over the time a fixed calibration task takes right before
and after that round. A shared machine runs at a speed that drifts by 30%
over minutes; the scaling takes that drift out of the figures.
"""
import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IMPORT_PROBES = 9
REFERENCE_S = 0.035  # the calibration task's time at the reference speed


def calibration() -> float:
    """Seconds that a fixed piece of pure-Python work (dict updates, a sort,
    string formatting and JSON encoding, as in the program) takes now; the
    median of three tries. The collector runs first and stays off during the
    tries, so no collection of a round's garbage lands in them."""
    gc.collect()
    gc.disable()
    try:
        return statistics.median(_calibration_task() for _ in range(3))
    finally:
        gc.enable()


def _calibration_task() -> float:
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(60000):
        k = (i * 7919) % 5003
        counts[k] = counts.get(k, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    json.dumps(ranked)
    sum(len(f"{i}:{i % 97}") for i in range(30000))
    return time.perf_counter() - t0


def import_time() -> float:
    """Reference-speed seconds a fresh interpreter takes to import the
    program: the median of IMPORT_PROBES, each scaled by the calibrations
    right before and after it."""
    probe = (
        "import time; t = time.perf_counter(); import langcrawl.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, calib = [], calibration()
    for _ in range(IMPORT_PROBES):
        t = float(
            subprocess.run(
                [sys.executable, "-c", probe],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                timeout=60,
            ).stdout
        )
        before, calib = calib, calibration()
        times.append(t * REFERENCE_S / ((before + calib) / 2))
    return statistics.median(times)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "langcrawl" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'langcrawl'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    from spans import Recorder

    if not Path(workloads.cli.__file__).resolve().is_relative_to(SRC):
        print(f"langcrawl was imported from outside {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    out_dir = HERE / "out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = out_dir / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)

    import_s = import_time()
    calib = calibration()
    rounds, raw, measured = [], [], 0.0

    def scaled(r):
        """Scale a round's times to the reference speed around it."""
        nonlocal calib
        before, calib = calib, calibration()
        speed = (before + calib) / 2
        raw.append({"setup_s": r.setup_s, "wall_s": r.wall_s, "calibration_s": speed})
        scale = REFERENCE_S / speed
        r.wall_s *= scale
        r.setup_s *= scale
        return r

    # Rounds cycle through the seed's worlds, every world at least once. A
    # broken round (a crawl that never ended) would repeat in every later
    # round of its world, so the run stops there.
    while len(rounds) < workloads.WORLDS or measured < args.seconds:
        rounds.append(scaled(wl.round(len(rounds) % workloads.WORLDS)))
        measured += raw[-1]["wall_s"]
        if rounds[-1].broken:
            break
    broken = rounds[-1].broken

    def world_mean(value) -> float:
        """The mean over the run's worlds of the median over each world's rounds."""
        per_world: dict[int, list[float]] = {}
        for r in rounds:
            per_world.setdefault(r.world, []).append(value(r))
        return statistics.mean(statistics.median(v) for v in per_world.values())

    traced = None
    if args.trace:
        rec = Recorder()
        if not broken:
            traced = scaled(wl.round(0, rec))
        layers = workloads.layer_metrics(rec)
        untraced = statistics.median(r.wall_s for r in rounds if r.world == 0)
        layers["trace.overhead_s"] = traced.wall_s - untraced if traced else 0.0
        rec.write(out_dir / f"{tag}.spans.jsonl.gz")
        wanted, values = spec["per_layer"], layers
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": import_s + world_mean(lambda r: r.setup_s),
            "wall_s": world_mean(lambda r: r.wall_s),
            # the peak up to the end of the first measured phase: later
            # rounds and the output checks add heap growth of their own
            "peak_rss_mb": rounds[0].rss_mb.get("phase", workloads.rss_mb()),
            "tweets_per_request": world_mean(lambda r: r.tweets_per_request),
        }
    shutil.rmtree(workdir, ignore_errors=True)

    done = rounds + ([traced] if traced else [])
    wrong = [w for r in done for w in r.wrong]
    digests: dict[int, dict[str, str]] = {}
    for r in done:
        if r.digests and digests.setdefault(r.world, r.digests) != r.digests:
            wrong.append(f"rounds of world {r.world} produced different outputs")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not wrong,
        "attempted": sum(r.ops for r in done),
        "failed": sum(r.failed for r in done),
        "metrics": metrics,
    }
    side = {
        "workload": args.workload,
        "seed": args.seed,
        "worlds": [json.loads(cfg.to_json()) for cfg in wl.cfgs],
        "import_s": import_s,
        "rounds": [
            {"world": r.world, "setup_s": r.setup_s, "wall_s": r.wall_s, "peak_rss_mb": r.rss_mb}
            for r in rounds
        ],
        "raw_rounds": raw,
        "traced_wall_s": traced.wall_s if traced else None,
        "digests": {wl.cfgs[k].seed: d for k, d in sorted(digests.items())},
        "wrong": wrong[:20],
        "result": result,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(side, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
