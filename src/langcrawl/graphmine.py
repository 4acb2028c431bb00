"""Graph extraction over stored data.

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
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from .model import FavoriteRecord, FollowEdge, FollowScan, Timestamp, Tweet, TweetId, UserId

log = logging.getLogger(__name__)

INTERACTION_KINDS = ("retweet", "mention", "reply", "quote", "favorite")

# beyond this many members, one list contributes a quadratic pair blowup;
# such lists are skipped with a warning rather than eating the machine
LIST_MEMBER_CAP = 50_000


@dataclass
class InteractionGraph:
    kind: str
    edges: dict[tuple[UserId, UserId], int] = field(default_factory=dict)

    def add(self, src: UserId, dst: UserId, w: int = 1) -> None:
        self.edges[(src, dst)] = self.edges.get((src, dst), 0) + w

    def weight(self, src: UserId, dst: UserId) -> int:
        return self.edges.get((src, dst), 0)

    def total_weight(self) -> int:
        return sum(self.edges.values())

    def vertices(self) -> set[UserId]:
        out: set[UserId] = set()
        for src, dst in self.edges:
            out.add(src)
            out.add(dst)
        return out


def extract_interactions(tweets: Iterable[Tweet]) -> dict[str, InteractionGraph]:
    """The four tweet-level graphs in one pass.

    Mentions embedded in retweets belong to the original author's text, so
    retweets contribute no mention edges of their own; the original tweet
    carries them when stored.
    """
    graphs = {k: InteractionGraph(k) for k in ("retweet", "mention", "reply", "quote")}
    for t in tweets:
        if t.retweet_of is not None:
            graphs["retweet"].add(t.author, t.retweet_of[1])
        else:
            for m in t.mentions:
                graphs["mention"].add(t.author, m)
        if t.reply_to is not None:
            graphs["reply"].add(t.author, t.reply_to[1])
        if t.quote_of is not None:
            graphs["quote"].add(t.author, t.quote_of[1])
    return graphs


def favorite_graph(favorites: Iterable[FavoriteRecord]) -> InteractionGraph:
    g = InteractionGraph("favorite")
    for f in favorites:
        g.add(f.user, f.tweet_author)
    return g


@dataclass
class ListSimilarityGraph:
    # undirected: keys are (min(u,v), max(u,v)), weight = shared list count
    edges: dict[tuple[UserId, UserId], int] = field(default_factory=dict)
    skipped_lists: list[int] = field(default_factory=list)

    def weight(self, u: UserId, v: UserId) -> int:
        return self.edges.get((min(u, v), max(u, v)), 0)


def list_similarity(
    members_by_list: dict[int, set[UserId]], member_cap: int = LIST_MEMBER_CAP
) -> ListSimilarityGraph:
    """Weight {u, v} by the number of lists containing both, streaming one
    list at a time. Lists above member_cap are skipped with a warning."""
    g = ListSimilarityGraph()
    for list_id in sorted(members_by_list):
        members = members_by_list[list_id]
        if len(members) > member_cap:
            g.skipped_lists.append(list_id)
            log.warning(
                "list %d has %d members (cap %d), skipped in similarity graph",
                list_id,
                len(members),
                member_cap,
            )
            continue
        ordered = sorted(members)
        for i, u in enumerate(ordered):
            for v in ordered[i + 1 :]:
                key = (u, v)
                g.edges[key] = g.edges.get(key, 0) + 1
    return g


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


def degree_distributions(
    edges: dict[tuple[UserId, UserId], int] | set[tuple[UserId, UserId]],
    vertices: set[UserId] | None = None,
) -> tuple[dict[int, int], dict[int, int], dict[int, int]]:
    """(in-degree, out-degree, undirected-degree) histograms: degree -> count.

    Degrees count distinct counterparts. Pass a wider vertex set to include
    zero-degree users; by default only edge endpoints enter the histograms.
    """
    outs: dict[UserId, set[UserId]] = defaultdict(set)
    ins: dict[UserId, set[UserId]] = defaultdict(set)
    both: dict[UserId, set[UserId]] = defaultdict(set)
    endpoint_set: set[UserId] = set()
    for src, dst in edges:
        outs[src].add(dst)
        ins[dst].add(src)
        both[src].add(dst)
        both[dst].add(src)
        endpoint_set.add(src)
        endpoint_set.add(dst)
    universe = vertices if vertices is not None else endpoint_set

    def hist(deg: dict[UserId, set[UserId]]) -> dict[int, int]:
        h: dict[int, int] = defaultdict(int)
        for u in universe:
            h[len(deg.get(u, ()))] += 1
        return dict(h)

    return hist(ins), hist(outs), hist(both)


def thread_lengths(
    tweets: Iterable[Tweet], root_filter: Callable[[Tweet], bool] | None = None
) -> dict[TweetId, int]:
    """Longest reply-chain length per thread root, counting the root itself.

    Roots are non-reply tweets (optionally narrowed by root_filter) that
    received at least one stored reply; reply links leaving the corpus
    terminate their chain. Reply cycles are malformed data: the chain is
    truncated at the cycle entry with a warning.
    """
    by_id: dict[TweetId, Tweet] = {}
    children: dict[TweetId, list[TweetId]] = defaultdict(list)
    for t in tweets:
        by_id[t.id] = t
    for t in by_id.values():
        if t.reply_to is not None and t.reply_to[0] in by_id:
            children[t.reply_to[0]].append(t.id)

    depth: dict[TweetId, int] = {}

    def resolve(tid: TweetId) -> int:
        # iterative post-order; recursion would overflow on long chains
        stack = [(tid, False)]
        path: set[TweetId] = set()
        while stack:
            node, expanded = stack.pop()
            if expanded:
                path.discard(node)
                kids = [c for c in children.get(node, ()) if c in depth]
                depth[node] = 1 + max((depth[c] for c in kids), default=0)
                continue
            if node in depth:
                continue
            path.add(node)
            stack.append((node, True))
            for c in children.get(node, ()):
                if c in path:
                    # a reply pointing back up its own chain: malformed
                    log.warning("reply cycle at tweet %d, chain truncated", c)
                    continue
                if c not in depth:
                    stack.append((c, False))
        return depth[tid]

    lengths: dict[TweetId, int] = {}
    for tid in sorted(by_id):
        t = by_id[tid]
        if t.reply_to is not None or not children.get(tid):
            continue
        if root_filter is not None and not root_filter(t):
            continue
        lengths[tid] = resolve(tid)
    return lengths


# -- file formats ------------------------------------------------------------------


def write_edges(edges: dict[tuple[UserId, UserId], int], path: str | Path) -> int:
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
