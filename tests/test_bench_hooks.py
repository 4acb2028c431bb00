"""The benchmark's traced round wraps functions of the library by name, so a
rename or removal in the library breaks `bench/run.py --trace 1` only when it
runs. Installing and removing the wrappers here catches that in the suite."""

import importlib
from pathlib import Path

from langcrawl import lexicons, vectorize
from langcrawl.store import Store

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_trace_wrappers_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # the bench imports its modules by bare name
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    originals = (Store.load, Store.put_tweet)

    patches = workloads.install(spans.Recorder())
    try:
        assert vectorize.count_in_ranges is not lexicons.count_in_ranges
    finally:
        patches.restore()
    assert vectorize.count_in_ranges is lexicons.count_in_ranges
    assert (Store.load, Store.put_tweet) == originals
