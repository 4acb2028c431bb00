"""Graph extraction checked against independent brute-force recounts on a
synthetic corpus, plus the file formats."""

import random
from collections import defaultdict

from hypothesis import example, given, strategies as st

from langcrawl.graphmine import (
    degree_distributions,
    extract_interactions,
    favorite_graph,
    follow_snapshot,
    list_similarity,
    thread_lengths,
    write_degree_csv,
    write_edges,
)
from langcrawl.model import FavoriteRecord, FollowEdge, FollowScan, Tweet


def synth_corpus(n_tweets=2000, n_users=200, seed=13):
    """Random tweets with every reference kind, dense enough for collisions."""
    rng = random.Random(seed)
    tweets = []
    for i in range(1, n_tweets + 1):
        author = rng.randrange(1, n_users + 1)
        kw = {}
        if i > 10:
            roll = rng.random()
            ref = lambda: (rng.randrange(1, i), rng.randrange(1, n_users + 1))
            if roll < 0.25:
                kw["retweet_of"] = ref()
            elif roll < 0.45:
                kw["reply_to"] = ref()
            elif roll < 0.55:
                kw["quote_of"] = ref()
            if rng.random() < 0.3:
                kw["mentions"] = tuple(
                    rng.randrange(1, n_users + 1) for _ in range(rng.randrange(1, 4))
                )
        tweets.append(
            Tweet(id=i, author=author, created_at=i, text="x", lang="el", **kw)
        )
    return tweets


def brute_force_graphs(tweets):
    counts = {k: defaultdict(int) for k in ("retweet", "mention", "reply", "quote")}
    for t in tweets:
        if t.retweet_of:
            counts["retweet"][(t.author, t.retweet_of[1])] += 1
        if t.mentions and not t.retweet_of:
            for m in t.mentions:
                counts["mention"][(t.author, m)] += 1
        if t.reply_to:
            counts["reply"][(t.author, t.reply_to[1])] += 1
        if t.quote_of:
            counts["quote"][(t.author, t.quote_of[1])] += 1
    return {k: dict(v) for k, v in counts.items()}


def test_interaction_graphs_match_brute_force():
    tweets = synth_corpus()
    graphs = extract_interactions(tweets)
    expected = brute_force_graphs(tweets)
    for kind in ("retweet", "mention", "reply", "quote"):
        assert graphs[kind] == expected[kind], kind
        assert sum(graphs[kind].values()) == sum(expected[kind].values())


def test_retweets_contribute_no_mention_edges():
    t = Tweet(
        id=2, author=1, created_at=0, text="rt", lang="el",
        retweet_of=(1, 5), mentions=(5, 7),
    )
    graphs = extract_interactions([t])
    assert graphs["mention"] == {}
    assert graphs["retweet"] == {(1, 5): 1}


def test_favorite_graph_counts_pairs():
    favs = [
        FavoriteRecord(user=1, tweet=10, tweet_author=2, observed_at=0),
        FavoriteRecord(user=1, tweet=11, tweet_author=2, observed_at=0),
        FavoriteRecord(user=3, tweet=10, tweet_author=2, observed_at=0),
    ]
    assert favorite_graph(favs) == {(1, 2): 2, (3, 2): 1}


def test_list_similarity_brute_force_and_cap():
    rng = random.Random(5)
    members = {
        lid: {rng.randrange(1, 40) for _ in range(rng.randrange(2, 10))}
        for lid in range(30)
    }
    members[99] = set(range(1000))  # over any sane cap
    edges, skipped = list_similarity(members, member_cap=100)
    assert skipped == [99]
    expected = defaultdict(int)
    for lid, us in members.items():
        if lid == 99:
            continue
        for u in us:
            for v in us:
                if u < v:
                    expected[(u, v)] += 1
    assert edges == dict(expected)
    # undirected: each pair is keyed once, smaller id first
    assert all(u < v for u, v in edges)


def test_follow_snapshot_latest_scan_wins():
    edges = [
        FollowEdge(src=1, dst=2, observed_at=10),
        FollowEdge(src=1, dst=3, observed_at=10),
        # rescan of 1's friends at t=20 saw only 1->3
        FollowEdge(src=1, dst=3, observed_at=20),
    ]
    scans = [
        FollowScan(kind="friends", subject=1, at=10),
        FollowScan(kind="friends", subject=1, at=20),
    ]
    assert follow_snapshot(edges, scans, 15) == {(1, 2), (1, 3)}
    assert follow_snapshot(edges, scans, 25) == {(1, 3)}  # 1->2 unfollowed
    assert follow_snapshot(edges, scans, 5) == set()


def test_follow_snapshot_covered_by_either_endpoint():
    edges = [FollowEdge(src=1, dst=2, observed_at=10)]
    scans = [FollowScan(kind="followers", subject=2, at=30)]
    # a followers-scan of 2 that missed 1->2 kills the edge too
    assert follow_snapshot(edges, scans, 40) == set()
    edges.append(FollowEdge(src=1, dst=2, observed_at=30))
    assert follow_snapshot(edges, scans, 40) == {(1, 2)}


def test_degree_distributions_brute_force():
    tweets = synth_corpus(n_tweets=800, n_users=60, seed=3)
    edges = extract_interactions(tweets)["mention"]
    ins, outs, und = degree_distributions(edges)
    out_n = defaultdict(set)
    in_n = defaultdict(set)
    und_n = defaultdict(set)
    for s, d in edges:
        out_n[s].add(d)
        in_n[d].add(s)
        und_n[s].add(d)
        und_n[d].add(s)
    everyone = {u for edge in edges for u in edge}

    def hist(neigh):
        h = defaultdict(int)
        for u in everyone:
            h[len(neigh.get(u, ()))] += 1
        return dict(h)

    assert ins == hist(in_n)
    assert outs == hist(out_n)
    assert und == hist(und_n)
    for h in (ins, outs, und):
        assert sum(h.values()) == len(everyone)
    # every directed adjacency appears once per side
    assert sum(d * c for d, c in ins.items()) == len(edges)
    assert sum(d * c for d, c in outs.items()) == len(edges)


def tw(i, reply_to=None, author=1):
    return Tweet(
        id=i, author=author, created_at=i, text="x", lang="el",
        reply_to=(reply_to, 1) if reply_to else None,
    )


def test_thread_lengths_longest_chain():
    # 1 <- 2 <- 3 and 1 <- 4: longest chain through 3
    lengths = thread_lengths([tw(1), tw(2, 1), tw(3, 2), tw(4, 1)])
    assert lengths == {1: 3}


def test_thread_lengths_skips_replyless_roots_and_foreign_parents():
    # 5 replies to a tweet we never stored: no root for it in the corpus
    lengths = thread_lengths([tw(1), tw(5, 99)])
    assert lengths == {}


def test_thread_lengths_deep_chain_no_recursion_limit():
    corpus = [tw(1)] + [tw(i, i - 1) for i in range(2, 3002)]
    assert thread_lengths(corpus) == {1: 3001}


def brute_force_thread_lengths(tweets):
    """Follow reply_to up from every tweet; a chain that ends on a stored
    non-reply counts toward that root. A chain longer than the corpus has
    entered a reply cycle and counts toward nothing."""
    by_id = {t.id: t for t in tweets}
    lengths = {}
    for t in by_id.values():
        chain, node = 1, t
        while node.reply_to is not None and node.reply_to[0] in by_id and chain <= len(by_id):
            node = by_id[node.reply_to[0]]
            chain += 1
        if node.reply_to is None and chain > 1:
            lengths[node.id] = max(lengths.get(node.id, 0), chain)
    return lengths


# parents[i] is what tweet i + 1 replies to: None for a non-reply, an id past
# the corpus for a foreign parent; cycles and self-replies come up by chance
@given(st.lists(st.one_of(st.none(), st.integers(1, 24)), max_size=20))
# 4 <-> 5 is a cycle with 10 hanging off it, 6 replies to itself, 9 to a foreign tweet
@example([None, 1, 2, 5, 4, 6, None, 7, 20, 4])
def test_thread_lengths_match_brute_force_with_cycles(parents):
    corpus = [tw(i, p) for i, p in enumerate(parents, start=1)]
    assert thread_lengths(corpus) == brute_force_thread_lengths(corpus)


def test_write_edges_format(tmp_path):
    p = tmp_path / "edges.txt"
    n = write_edges({(3, 1): 2, (1, 2): 1}, p)
    assert n == 2
    assert p.read_text() == "1 2 1\n3 1 2\n"


def test_write_degree_csv_format(tmp_path):
    p = tmp_path / "deg.csv"
    write_degree_csv({2: 5, 0: 1}, p)
    assert p.read_text() == "degree,count\n0,1\n2,5\n"
