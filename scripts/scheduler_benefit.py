"""Measures the payoff of yield-aware visit scheduling over uniform cycling.

Same world, same seed, same constrained timeline budget; the only difference
is the planner. Efficiency = tweets stored per request issued. Run with
--sweep to see how the permit split and staleness floor move the ratio.
"""
import argparse
import sys
import time
from dataclasses import replace

sys.path.insert(0, "src")

from langcrawl.apiface import DEFAULT_BUDGETS, Endpoint, RateLimiter
from langcrawl.model import UserClass
from langcrawl.sched import Crawler, SchedulerConfig, SimClock
from langcrawl.simnet import DAY, World, WorldConfig
from langcrawl.store import Store

WORLD = dict(
    n_users=400,
    community_fractions={"el": 1.0},
    activity_exponent=0.5,  # heavy tail: a few prolific users carry the volume
    activity_min=0.3,
    activity_max=150.0,
)
HORIZON_DAYS = 14
TIMELINE_BUDGET = 2  # per 900 s window; the constraint that forces choices


def run(planner: str, seed: int, min_staleness: int, drain: bool) -> tuple[int, int]:
    w = World(WorldConfig(seed=seed, **WORLD))
    store = Store()
    for u in sorted(w.users):
        store.set_class(u, UserClass.TRACKED, w.now)
    budgets = dict(DEFAULT_BUDGETS)
    budgets[Endpoint.USER_TIMELINE] = replace(
        budgets[Endpoint.USER_TIMELINE], max_requests=TIMELINE_BUDGET
    )
    cfg = SchedulerConfig(
        planner=planner,
        loops=("tweets",),
        min_staleness=min_staleness,
    )
    crawler = Crawler(w, store, RateLimiter(budgets), SimClock(w), cfg)
    crawler.run(w.cfg.start_time + HORIZON_DAYS * DAY)
    if drain:
        w.frozen = True
        crawler.drain()
    stored = sum(store.author_tweet_count(u) for u in store.tweet_authors())
    return stored, len(crawler.log)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--sweep", action="store_true")
    ap.add_argument("--drain", action="store_true", help="equalize capture, compare cost")
    args = ap.parse_args()

    staleness_grid = [1, 3, 7, 14] if args.sweep else [7]
    for days in staleness_grid:
        t0 = time.time()
        pt, pr = run("priority", args.seed, days * DAY, args.drain)
        rt, rr_ = run("roundrobin", args.seed, days * DAY, args.drain)
        p_eff = pt / pr
        r_eff = rt / rr_
        print(
            f"staleness floor {days:2d}d: priority {pt} tweets / {pr} req = {p_eff:.2f} t/r; "
            f"roundrobin {rt} / {rr_} = {r_eff:.2f} t/r; "
            f"ratio {p_eff / r_eff:.2f} ({time.time()-t0:.0f}s)"
        )


if __name__ == "__main__":
    main()
