"""Output checks, computed apart from the program.

Each check reads raw outputs (the world's request log and ground truth, the
JSONL files the program wrote) and recounts what the program should have
produced with code of its own. Only DEFAULT_BUDGETS and FEATURE_FIELDS, which
are the specification being checked against, come from the program.
"""
from __future__ import annotations

import itertools
import json
from collections import Counter, defaultdict
from pathlib import Path

WINDOW = 900  # budget windows are aligned to multiples of 900 s
TARGET_LANG = "el"
GREEK_RANGES = ((0x0370, 0x03FF), (0x1F00, 0x1FFF))


def iter_jsonl(path):
    """The records of a JSONL file, one at a time."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


def line_count(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


# -- crawl ----------------------------------------------------------------------


def budget_violations(request_log: list[dict], budgets: dict[str, int]) -> list:
    """(endpoint, window start, requests) for every aligned window over budget."""
    per_window = Counter((r["endpoint"], r["at"] - r["at"] % WINDOW) for r in request_log)
    return sorted(
        (endpoint, win, n)
        for (endpoint, win), n in per_window.items()
        if n > budgets[endpoint]
    )


def _per_endpoint(log: list[dict]) -> dict[str, list[tuple]]:
    out: dict[str, list[tuple]] = defaultdict(list)
    for r in log:
        out[r["endpoint"]].append((r["target"], r["at"], r["outcome"].startswith("ok")))
    return dict(out)


def logs_disagree(crawler_log: list[dict], world_log: list[dict]) -> list[str]:
    """Endpoints whose requests (target, time, ok or not) differ between the
    crawler's own log and the log the world kept while serving."""
    mine, theirs = _per_endpoint(crawler_log), _per_endpoint(world_log)
    return sorted(e for e in set(mine) | set(theirs) if mine.get(e) != theirs.get(e))


# -- postprocess ------------------------------------------------------------------


def read_edges(path) -> dict[tuple[int, int], int]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            src, dst, w = line.split()
            out[(int(src), int(dst))] = int(w)
    return out


def recount_edges(store_dir: Path) -> dict[str, dict[tuple[int, int], int]]:
    """Every weighted graph `mine` writes, recounted from the store files."""
    graphs: dict[str, Counter] = {k: Counter() for k in ("retweet", "mention", "reply", "quote")}
    for t in iter_jsonl(store_dir / "tweets.jsonl"):
        if t["retweet_of"] is not None:
            graphs["retweet"][(t["author"], t["retweet_of"][1])] += 1
        else:  # a retweet's mentions belong to the original's text
            for m in t["mentions"]:
                graphs["mention"][(t["author"], m)] += 1
        if t["reply_to"] is not None:
            graphs["reply"][(t["author"], t["reply_to"][1])] += 1
        if t["quote_of"] is not None:
            graphs["quote"][(t["author"], t["quote_of"][1])] += 1
    graphs["favorite"] = Counter(
        (f["user"], f["tweet_author"]) for f in iter_jsonl(store_dir / "favorites.jsonl")
    )
    members: dict[int, set[int]] = defaultdict(set)
    for m in iter_jsonl(store_dir / "memberships.jsonl"):
        members[m["list_id"]].add(m["member"])
    pairs = Counter()
    for users in members.values():
        pairs.update(itertools.combinations(sorted(users), 2))
    graphs["lists"] = pairs
    return {k: dict(g) for k, g in graphs.items()}


def true_follow_edges(ground_truth_path) -> set[tuple[int, int]]:
    edges = set()
    for rec in iter_jsonl(ground_truth_path):
        for v in rec.get("friends", ()):
            edges.add((rec["uid"], v))
    return edges


def ascending_count(export_path) -> int | None:
    """Lines of an exported tweets file, or None when its ids are not
    strictly ascending."""
    n, last = 0, None
    for rec in iter_jsonl(export_path):
        if last is not None and rec["id"] <= last:
            return None
        n, last = n + 1, rec["id"]
    return n


# -- vectorize --------------------------------------------------------------------


def greek_chars(text: str) -> int:
    return sum(1 for ch in text if any(lo <= ord(ch) <= hi for lo, hi in GREEK_RANGES))


def recount_vector_fields(store_dir: Path, as_of: int) -> dict[int, dict]:
    """Per author: the vector fields that follow directly from raw tweets."""
    out: dict[int, dict] = defaultdict(
        lambda: {"seen_total": 0, "seen_greek_total": 0, "retweet_outweight": 0, "greek_chars": 0}
    )
    for t in iter_jsonl(store_dir / "tweets.jsonl"):
        if t["created_at"] > as_of:
            continue
        row = out[t["author"]]
        row["seen_total"] += 1
        row["seen_greek_total"] += t["lang"] == TARGET_LANG
        if t["retweet_of"] is not None:
            row["retweet_outweight"] += 1
        else:  # character counts cover authored text only
            row["greek_chars"] += greek_chars(t["text"])
    return out
