"""Graph extraction over stored data.

Every graph is a plain edge-weight dict, `(src, dst) -> weight` (`Edges`).
Six relation graphs: the four tweet-level interaction graphs (retweet,
mention, reply, quote), the favorite graph, and list co-membership
similarity; plus point-in-time reconstruction of the follow graph and
reply-thread length measurement.

Edge direction always follows the action: retweeter to tweeter, mentioner to
mentioned, replier to replied-to, quoter to quoted, liker to liked author.
"""
from __future__ import annotations

import csv
import logging
from collections import Counter, defaultdict
from itertools import combinations
from pathlib import Path
from typing import Iterable

from .model import FavoriteRecord, FollowEdge, FollowScan, Timestamp, Tweet, TweetId, UserId

log = logging.getLogger(__name__)

# beyond this many members, one list contributes a quadratic pair blowup;
# such lists are skipped with a warning rather than eating the machine
LIST_MEMBER_CAP = 50_000


Edges = dict[tuple[UserId, UserId], int]


def extract_interactions(tweets: Iterable[Tweet]) -> dict[str, Edges]:
    """The four tweet-level graphs in one pass.

    Mentions embedded in retweets belong to the original author's text, so
    retweets contribute no mention edges of their own; the original tweet
    carries them when stored.
    """
    retweet: Edges = Counter()
    mention: Edges = Counter()
    reply: Edges = Counter()
    quote: Edges = Counter()
    for t in tweets:
        if t.retweet_of is not None:
            retweet[(t.author, t.retweet_of[1])] += 1
        else:
            for m in t.mentions:
                mention[(t.author, m)] += 1
        if t.reply_to is not None:
            reply[(t.author, t.reply_to[1])] += 1
        if t.quote_of is not None:
            quote[(t.author, t.quote_of[1])] += 1
    return {"retweet": retweet, "mention": mention, "reply": reply, "quote": quote}


def favorite_graph(favorites: Iterable[FavoriteRecord]) -> Edges:
    return Counter((f.user, f.tweet_author) for f in favorites)


def list_similarity(
    members_by_list: dict[int, set[UserId]], member_cap: int = LIST_MEMBER_CAP
) -> tuple[Edges, list[int]]:
    """Undirected co-membership: (min(u, v), max(u, v)) weighted by the number
    of lists containing both, streaming one list at a time. Lists above
    member_cap are skipped with a warning; returns (edges, skipped list ids)."""
    edges: Edges = Counter()
    skipped: list[int] = []
    for list_id in sorted(members_by_list):
        members = members_by_list[list_id]
        if len(members) > member_cap:
            skipped.append(list_id)
            log.warning(
                "list %d has %d members (cap %d), skipped in similarity graph",
                list_id,
                len(members),
                member_cap,
            )
            continue
        edges.update(combinations(sorted(members), 2))
    return edges, skipped


def follow_snapshot(
    edges: Iterable[FollowEdge], scans: Iterable[FollowScan], t: Timestamp
) -> set[tuple[UserId, UserId]]:
    """The follow graph as of t, latest scan wins.

    An edge (u, v) is covered by every friends-scan of u and followers-scan
    of v. It is present at t when its most recent observation at or before t
    came from the most recent covering scan at or before t; a newer covering
    scan that did not re-observe the edge means it was unfollowed.
    """
    friend_scans: dict[UserId, Timestamp] = {}
    follower_scans: dict[UserId, Timestamp] = {}
    for s in scans:
        if s.at > t:
            continue
        book = friend_scans if s.kind == "friends" else follower_scans
        if s.at > book.get(s.subject, -1):
            book[s.subject] = s.at

    last_obs: dict[tuple[UserId, UserId], Timestamp] = {}
    for e in edges:
        if e.observed_at > t:
            continue
        key = (e.src, e.dst)
        if e.observed_at > last_obs.get(key, -1):
            last_obs[key] = e.observed_at

    present: set[tuple[UserId, UserId]] = set()
    for (src, dst), observed in last_obs.items():
        newest_scan = max(friend_scans.get(src, -1), follower_scans.get(dst, -1))
        if newest_scan <= observed:
            present.add((src, dst))
    return present


def degree_distributions(edges: Edges) -> tuple[dict[int, int], dict[int, int], dict[int, int]]:
    """(in-degree, out-degree, undirected-degree) histograms over the edge
    endpoints: degree -> count. Degrees count distinct counterparts."""
    outs: dict[UserId, set[UserId]] = defaultdict(set)
    ins: dict[UserId, set[UserId]] = defaultdict(set)
    both: dict[UserId, set[UserId]] = defaultdict(set)
    for src, dst in edges:
        outs[src].add(dst)
        ins[dst].add(src)
        both[src].add(dst)
        both[dst].add(src)

    def hist(deg: dict[UserId, set[UserId]]) -> dict[int, int]:
        return dict(Counter(len(deg.get(u, ())) for u in both))

    return hist(ins), hist(outs), hist(both)


def thread_lengths(tweets: Iterable[Tweet]) -> dict[TweetId, int]:
    """Longest reply-chain length per thread root, counting the root itself.

    Roots are non-reply tweets that received at least one stored reply;
    reply links leaving the corpus terminate their chain. Every tweet has at
    most one parent, so what hangs below a root is a tree: a reply cycle has
    no root and is never reached.
    """
    by_id: dict[TweetId, Tweet] = {t.id: t for t in tweets}
    children: dict[TweetId, list[TweetId]] = defaultdict(list)
    for t in by_id.values():
        if t.reply_to is not None and t.reply_to[0] in by_id:
            children[t.reply_to[0]].append(t.id)

    lengths: dict[TweetId, int] = {}
    for tid in sorted(by_id):
        if by_id[tid].reply_to is not None or tid not in children:
            continue
        # iterative; recursion would overflow on long chains
        longest, stack = 1, [(tid, 1)]
        while stack:
            node, depth = stack.pop()
            longest = max(longest, depth)
            stack.extend((c, depth + 1) for c in children.get(node, ()))
        lengths[tid] = longest
    return lengths


# -- file formats ------------------------------------------------------------------


def write_edges(edges: Edges, path: str | Path) -> int:
    """Plain `src dst weight` lines sorted by (src, dst); returns line count."""
    keys = sorted(edges)
    with open(path, "w", encoding="utf-8") as fh:
        for src, dst in keys:
            fh.write(f"{src} {dst} {edges[(src, dst)]}\n")
    return len(keys)


def write_degree_csv(hist: dict[int, int], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["degree", "count"])
        for degree in sorted(hist):
            w.writerow([degree, hist[degree]])
