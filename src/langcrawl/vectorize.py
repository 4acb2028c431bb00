"""Per-user feature vectors over the crawled corpus.

Six feature families (profile, activity, interaction, relation, text,
sentiment) assembled into one flat record per user. Field names are part of
the export format and must not change between releases; FEATURE_FIELDS is
the authoritative order.

Family functions are pure: they take prepared inputs and return a dict for
their slice of the vector. Vectorizer wires them to a Store, shares the
expensive whole-corpus state (interaction graphs, follow snapshot, favorite
maps) across users.

Each tweet a user wrote (anything but a retweet) is read once, by
read_authored, into an Authored record: its lowercased text, its tokens from
a single tokenize call, its words, its UTC day, its sentiment and the
entities it mentions. The text and sentiment families fold over these
records. They are built per user and dropped with that user's vector.
"""

from __future__ import annotations

import json
import re
import statistics
import unicodedata
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import date, timedelta
from functools import cache
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple
from urllib.parse import urlsplit

from .graphmine import Edges, extract_interactions, favorite_graph, follow_snapshot
from .lexicons import (
    EMOJI_RANGES,
    TARGET_SCRIPT_RANGES,
    Lexicons,
    count_in_ranges,
    in_ranges,
    load_default,
)
from .model import CRAWLABLE, CrawlState, Timestamp, Tweet, UserClass, UserId, UserSnapshot
from .store import Store

DAY = 86400
TARGET_LANG = "el"  # the language seen_greek_total counts
TOP_K = 10
LANG_TOP_K = 5
LAST_MONTH_SPAN = 30 * DAY

# Interval histogram buckets double from 1 second; bucket k holds gaps in
# [2^(k-1), 2^k) and is keyed by its upper edge, with [0, 1) keyed 1. The
# named range of interest ends at 30 days (inside the 2^22 bucket); rarer
# longer gaps continue the doubling rather than being clamped, so mass is
# always conserved.


class MissingLexicon(RuntimeError):
    """A feature family needs a lexicon that was not loaded."""


class UnknownUser(KeyError):
    """The store holds nothing at all about the requested user."""


# -- small numeric helpers ----------------------------------------------------


def interval_bucket(gap: int) -> int:
    return 1 << int(max(gap, 0)).bit_length()


def interval_histogram(gaps: Iterable[int]) -> dict[int, int]:
    counts = Counter(interval_bucket(g) for g in gaps)
    return {k: counts[k] for k in sorted(counts)}


def five_stats(values: list) -> tuple | None:
    """(min, max, mean, median, stddev) or None on empty input.

    Population standard deviation: the values are the whole corpus seen, not
    a sample of something larger.
    """
    if not values:
        return None
    return (
        float(min(values)),
        float(max(values)),
        statistics.fmean(values),
        float(statistics.median(values)),
        statistics.pstdev(values),
    )


def _pcnt(num: float, den: float) -> float | None:
    # Missing beats a fake zero when the denominator is empty.
    return None if den == 0 else 100.0 * num / den


def _ratio(num: float, den: float) -> float | None:
    return None if den == 0 else num / den


def top_counts(counter: Counter, k: int = TOP_K) -> list:
    """Highest-count entries as [key, count] pairs, smallest key on ties."""
    ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    return [[key, n] for key, n in ranked[:k]]


def levenshtein(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


# UTC calendar arithmetic on integer timestamps: a day index is ts // DAY,
# and 1970-01-01, day 0, was a Thursday (weekday 3).
_EPOCH = date(1970, 1, 1)


@cache
def _day_iso(day: int) -> str:
    """ISO date of a UTC day index."""
    return (_EPOCH + timedelta(days=day)).isoformat()


def _hour(ts: Timestamp) -> int:
    return ts % DAY // 3600


def _weekday(ts: Timestamp) -> int:
    return (ts // DAY + 3) % 7


# -- tokenizer -----------------------------------------------------------------

# Word pieces are unicode letters and digits; underscore is kept out so that
# tag-style compounds split the same way twitter renders them.
_WORD_RE = re.compile(r"[^\W_]+")
_TAG_RE = re.compile(r"[@#]\w+")

WORD = "word"
HASHTAG = "hashtag"
MENTION = "mention"
URL = "url"
EMOTICON = "emoticon"


def tokenize(text: str, emoticons: frozenset = frozenset()) -> list[tuple[str, str]]:
    """Split tweet text into (kind, token) pairs.

    Whitespace first, then each chunk is classified whole (URL, emoticon,
    mention, hashtag) or broken into word pieces. Punctuation never becomes
    a token; it is counted at the character level by the text family.
    """
    tokens: list[tuple[str, str]] = []
    for chunk in text.split():
        if chunk.startswith(("http://", "https://")):
            tokens.append((URL, chunk))
            continue
        if chunk in emoticons:
            tokens.append((EMOTICON, chunk))
            continue
        m = chunk[0] in "@#" and _TAG_RE.match(chunk)
        if m:
            tokens.append((MENTION if chunk[0] == "@" else HASHTAG, m.group()))
            continue
        for piece in _WORD_RE.findall(chunk):
            tokens.append((WORD, piece))
    return tokens


# -- one read of a user's tweets ---------------------------------------------------


class Authored(NamedTuple):
    """One tweet the user wrote (not a retweet), read once for the text and
    sentiment families."""

    tweet: Tweet
    text_low: str
    tokens: list[tuple[str, str]]
    words: list[str]
    low_words: list[str]
    day: int  # UTC day index
    pos: float  # summed sentiment weights of the words
    neg: float
    entities: list[str]  # sorted names of the entities the tweet mentions


def read_authored(tweets: list[Tweet], lex: Lexicons) -> list[Authored]:
    """One record per authored tweet of one user's tweets, in their order.

    The entities are the configured entity lexicon plus every hashtag of the
    user's authored tweets, a hashtag being its own single alias. A tweet
    mentions an entity when one of its aliases is a substring of the
    lowercased text or equals one of the tweet's lowercased hashtags.
    """
    if not lex.sentiment:
        raise MissingLexicon("sentiment lexicon is empty")
    mine = [t for t in tweets if t.retweet_of is None]
    named: dict[str, set[str]] = defaultdict(set)  # alias -> entities it names
    for name, aliases in lex.entities.items():
        for alias in aliases:
            named[alias].add(name)
    for t in mine:
        for h in t.hashtags:
            named[h.lower()].add(h.lower())

    authored = []
    for t in mine:
        tokens = tokenize(t.text, lex.emoticons)
        words = [tok for kind, tok in tokens if kind == WORD]
        low = [w.lower() for w in words]
        pos = neg = 0.0
        for w in low:
            scores = lex.sentiment.get(w)
            if scores:
                pos += scores[0]
                neg += scores[1]
        text_low = t.text.lower()
        tags = {h.lower() for h in t.hashtags}
        hits: set[str] = set()
        for alias, names in named.items():
            if alias in text_low or alias in tags:
                hits |= names
        authored.append(
            Authored(t, text_low, tokens, words, low, t.created_at // DAY, pos, neg, sorted(hits))
        )
    return authored


# -- profile family ------------------------------------------------------------

_CHAR_CLASSES = ("punctuation", "digit", "alpha", "upper", "lower", "greek", "emoji")


@cache
def _char_flags(ch: str) -> tuple[bool, ...]:
    """Membership of one character in each of _CHAR_CLASSES."""
    return (
        unicodedata.category(ch).startswith("P"),
        ch.isdigit(),
        ch.isalpha(),
        ch.isupper(),
        ch.islower(),
        in_ranges(ch, TARGET_SCRIPT_RANGES),
        in_ranges(ch, EMOJI_RANGES),
    )


def _char_classes(chars: Counter) -> dict[str, int]:
    """Characters per class of _CHAR_CLASSES, from per-character counts, so
    each distinct character is classified once however often it occurs."""
    totals = [0] * len(_CHAR_CLASSES)
    for ch, n in chars.items():
        for i, hit in enumerate(_char_flags(ch)):
            if hit:
                totals[i] += n
    return dict(zip(_CHAR_CLASSES, totals))


def profile_features(snapshot: UserSnapshot | None, klass: UserClass) -> dict:
    """Everything derivable from the latest profile snapshot.

    Character-class counts run on the raw strings, no normalization. A user
    with no snapshot yet gets missing markers, not empty-string counts.
    """
    out: dict = {"dead": klass is UserClass.DEAD, "suspended": klass is UserClass.SUSPENDED}
    if snapshot is None:
        return {f: out.get(f) for f in FEATURE_FIELDS[_PROFILE_SLICE]}

    for f in _PROFILE_COPIED:
        out[f] = getattr(snapshot, f)
    out["lang"] = snapshot.ui_lang
    out["user_url"] = snapshot.profile_url
    out["has_location"] = bool(snapshot.location)

    for prefix, text in (("screen_name", snapshot.screen_name), ("name", snapshot.name)):
        chars = _char_classes(Counter(text))
        out[f"{prefix}_len"] = len(text)
        for cls in ("upper", "lower", "digit", "alpha"):
            out[f"{prefix}_{cls}"] = chars[cls]
    out["name_greek"] = count_in_ranges(snapshot.name, TARGET_SCRIPT_RANGES)

    out["fr_fo_ratio"] = _ratio(snapshot.friends_count, snapshot.followers_count)

    bio = snapshot.bio
    out["bio_words"] = len(bio.split())
    out["bio_upper_words"] = sum(1 for w in bio.split() if w.isupper())
    out["bio_lower_words"] = sum(1 for w in bio.split() if w.islower())
    for cls, n in _char_classes(Counter(bio)).items():
        if cls != "emoji":
            out[f"bio_{cls}_chars"] = n
    out["bio_total_chars"] = len(bio)
    return out


# -- activity family -----------------------------------------------------------


def activity_features(
    tweets: list[Tweet],
    gone: int,
    created_at: Timestamp | None,
    as_of: Timestamp,
) -> dict:
    """Temporal shape of the account.

    tweets must be sorted by (created_at, id). Interval histograms and the
    time_between_* five-stats run over gaps between consecutive tweets of
    the relevant kind; per-day aggregates use UTC calendar days.
    """
    seen = len(tweets)
    times = [t.created_at for t in tweets]
    top = [t for t in tweets if t.retweet_of is None and t.reply_to is None]

    sources = Counter(t.source_client for t in tweets)
    per_day = Counter(ts // DAY for ts in times)
    per_hour = Counter(_hour(ts) for ts in times)
    per_weekday = Counter(_weekday(ts) for ts in times)

    # Largest intra-day gap, one value per day that had at least two tweets.
    day_gaps: dict[int, int] = {}
    for a, b in zip(tweets, tweets[1:]):
        day = b.created_at // DAY
        if a.created_at // DAY == day:
            g = b.created_at - a.created_at
            if g > day_gaps.get(day, -1):
                day_gaps[day] = g

    out: dict = {
        "seen_total": seen,
        "total_inferred": seen + gone,
        "seen_greek_total": sum(1 for t in tweets if t.lang == TARGET_LANG),
        "seen_top_tweets": len(top),
        "top_tweets_pcnt": _pcnt(len(top), seen),
        "plain_tweets": sum(
            1
            for t in tweets
            if t.retweet_of is None and not t.hashtags and not t.mentions and not t.urls
        ),
        "most_used_sources": top_counts(sources, len(sources)),
        "max_daily_interval": five_stats(sorted(day_gaps.values())),
        "last_tweeted_at": times[-1] if times else None,
        "tweets_per_hour_of_day": {h: per_hour.get(h, 0) for h in range(24)},
        "tweets_per_weekday": {d: per_weekday.get(d, 0) for d in range(7)},
    }
    for hist, stats, seq in (
        ("all_intervals", "time_between_any", tweets),
        ("top_intervals", "time_between_top", top),
        ("rt_intervals", "time_between_rt", [t for t in tweets if t.retweet_of is not None]),
        ("reply_intervals", "time_between_replies", [t for t in tweets if t.reply_to is not None]),
    ):
        gaps = [b.created_at - a.created_at for a, b in zip(seq, seq[1:])]
        out[hist] = interval_histogram(gaps)
        out[stats] = five_stats(gaps)

    # Account lifetime runs from creation to the last seen tweet; when no
    # snapshot ever arrived the first seen tweet stands in for creation.
    birth = created_at if created_at is not None else (times[0] if times else None)
    out["life_time"] = (times[-1] - birth) if times and birth is not None else None

    def day_stats(idle: int = 0, first_idle: int = 0) -> list | None:
        """five_stats over the active days plus `idle` days without a tweet,
        then the quietest and the busiest day, the earliest on ties.

        Every active day has at least one tweet, so the idle days sort first
        and the earliest of them, first_idle, is the quietest."""
        if not per_day and not idle:
            return None
        stats = five_stats([0] * idle + sorted(per_day.values()))
        min_day = first_idle if idle else min(per_day, key=lambda d: (per_day[d], d))
        max_day = min(per_day, key=lambda d: (-per_day[d], d)) if per_day else first_idle
        return [*stats, _day_iso(min_day), _day_iso(max_day)]

    out["tweets_per_active_day"] = day_stats()

    # Every calendar day from account birth through as_of, zeros included;
    # active days outside that span count as well.
    if birth is not None:
        first, last = birth // DAY, as_of // DAY
        idle = max(last - first + 1, 0) - sum(1 for d in per_day if first <= d <= last)
        first_idle = first
        while first_idle in per_day:
            first_idle += 1
        out["tweets_per_day"] = day_stats(idle, first_idle)
    else:
        out["tweets_per_day"] = None

    cutoff = times[-1] - LAST_MONTH_SPAN if times else 0
    month_hours = Counter(_hour(ts) for ts in times if ts >= cutoff)
    out["last_month"] = {h: month_hours.get(h, 0) for h in range(24)}
    return out


# -- interaction family ---------------------------------------------------------

Adjacency = dict[str, tuple[dict[UserId, Counter], dict[UserId, Counter]]]


def build_adjacency(graphs: Mapping[str, Edges]) -> Adjacency:
    """Per-user out/in weight maps for each graph."""
    adj: Adjacency = {}
    for kind, edges in graphs.items():
        out: dict[UserId, Counter] = defaultdict(Counter)
        inc: dict[UserId, Counter] = defaultdict(Counter)
        for (src, dst), w in edges.items():
            out[src][dst] += w
            inc[dst][src] += w
        adj[kind] = (out, inc)
    return adj


def reply_targets(tweets: Iterable[Tweet]) -> dict[UserId, Counter]:
    """Replies from other users, grouped by replied-to author then tweet."""
    hits: dict[UserId, Counter] = defaultdict(Counter)
    for t in tweets:
        if t.reply_to is not None and t.reply_to[1] != t.author:
            hits[t.reply_to[1]][t.reply_to[0]] += 1
    return hits


# interaction kind -> names of its top counterparts (out, in)
_TOP_COUNTERPARTS = {
    "mention": ("most_mentioned_users", "most_mentioned_by"),
    "retweet": ("most_retweeted_users", "most_retweeted_by"),
    "reply": ("most_replied_to", "most_replied_by"),
}


def interaction_features(
    u: UserId,
    adj: Adjacency,
    tweets: list[Tweet],
    replies_to: Counter | None = None,
) -> dict:
    """Degrees, weights and top counterparts on the interaction graphs.

    Degrees count distinct counterparts, weights count tweets; the ratios
    are degree over degree. replies_to is the per-tweet count of replies u's
    tweets received from others, keyed by the replied-to tweet id.
    """
    if replies_to is None:
        replies_to = Counter()
    seen = len(tweets)
    out: dict = {}

    for kind, (top_out, top_in) in _TOP_COUNTERPARTS.items():
        outw, inw = adj.get(kind, ({}, {}))
        mine_out = outw.get(u, Counter())
        mine_in = inw.get(u, Counter())
        outdeg, indeg = len(mine_out), len(mine_in)
        outweight, inweight = sum(mine_out.values()), sum(mine_in.values())
        out[kind + "_indegree"] = indeg
        out[kind + "_outdegree"] = outdeg
        out[kind + "_inweight"] = inweight
        out[kind + "_outweight"] = outweight
        out[kind + "_avg_inweight"] = _ratio(inweight, indeg)
        out[kind + "_avg_outweight"] = _ratio(outweight, outdeg)
        out[kind + "_out_in_ratio"] = _ratio(outdeg, indeg)
        out[top_out] = top_counts(mine_out)
        out[top_in] = top_counts(mine_in)

    out["mention_pcnt"] = _pcnt(
        sum(1 for t in tweets if t.retweet_of is None and t.mentions), seen
    )
    out["retweet_pcnt"] = _pcnt(sum(1 for t in tweets if t.retweet_of is not None), seen)
    out["replies_pcnt"] = _pcnt(sum(1 for t in tweets if t.reply_to is not None), seen)

    out["seen_replied_to"] = len(replies_to)
    if replies_to:
        tid = min(replies_to, key=lambda t: (-replies_to[t], t))
        out["most_engaging_tweet"] = [tid, replies_to[tid]]
    else:
        out["most_engaging_tweet"] = None
    return out


# -- relation family -------------------------------------------------------------


def relation_features(
    u: UserId,
    fr: set[UserId],
    fo: set[UserId],
    classes: Mapping[UserId, UserClass],
    state: CrawlState | None,
    fav_in: Counter | None = None,
    fav_out: Counter | None = None,
) -> dict:
    """Follow-graph neighborhood composition plus favorite counterparts.

    fr and fo come from the reconstructed follow graph at vector time, so a
    later unfollow observed by a newer scan drops the edge. gr_* counts
    neighbors confirmed in the target community, tr_* counts everyone being
    crawled (confirmed or still tracked).
    """
    fav_in = fav_in or Counter()
    fav_out = fav_out or Counter()

    def gr(users: set[UserId]) -> int:
        return sum(1 for v in users if classes.get(v) is UserClass.TARGET)

    def tr(users: set[UserId]) -> int:
        return sum(1 for v in users if classes.get(v) in CRAWLABLE)

    both = fr & fo
    union = fr | fo
    out = {
        "fr_scanned_at": state.friends_scanned_at if state else None,
        "seen_fr": len(fr),
        "gr_fr": gr(fr),
        "gr_fr_pcnt": _pcnt(gr(fr), len(fr)),
        "tr_fr": tr(fr),
        "tr_fr_pcnt": _pcnt(tr(fr), len(fr)),
        "fo_scanned_at": state.followers_scanned_at if state else None,
        "seen_fo": len(fo),
        "gr_fo": gr(fo),
        "gr_fo_pcnt": _pcnt(gr(fo), len(fo)),
        "tr_fo": tr(fo),
        "tr_fo_pcnt": _pcnt(tr(fo), len(fo)),
        "fr_fo_jaccard": (len(both) / len(union)) if union else 0.0,
        "fr_and_fo": len(both),
        "fr_or_fo": len(union),
        "gr_fr_fo": gr(union),
        "gr_fr_fo_pcnt": _pcnt(gr(union), len(union)),
        "greek": classes.get(u) is UserClass.TARGET,
        "favoriters": len(fav_in),
        "favorited": len(fav_out),
        "most_favoriters": top_counts(fav_in),
        "most_favorited": top_counts(fav_out),
    }
    return out


# -- text family ------------------------------------------------------------------


def _url_hosts(tweets: Iterable[Tweet]) -> Counter:
    """Hosts of the tweets' expanded URLs; an unparsable URL has none."""
    hosts: Counter = Counter()
    for t in tweets:
        for _, expanded in t.urls:
            try:
                host = urlsplit(expanded).hostname
            except ValueError:
                continue
            if host:
                hosts[host] += 1
    return hosts


def text_features(
    tweets: list[Tweet], authored: list[Authored], lex: Lexicons, screen_name: str | None
) -> dict:
    """Lexical statistics over authored text: a fold over the records that
    read_authored made of tweets.

    Retweets carry someone else's words, so they are excluded from every
    word, character and sentiment-adjacent count here; only the *_rt_*
    hashtag and URL fields look at them. Uniqueness and most_common_* are
    lowercased; capitalization stats use the raw tokens.
    """
    rts = [t for t in tweets if t.retweet_of is not None]
    word_counts: Counter = Counter()
    bigram_counts: Counter = Counter()
    char_counts: Counter = Counter()  # every character of authored text
    hashtags: Counter = Counter()
    all_caps_words = nocaps_words = all_caps_tweets = 0
    gender_hits = {"m": 0, "f": 0}
    for a in authored:
        word_counts.update(a.low_words)
        bigram_counts.update(map(" ".join, zip(a.low_words, a.low_words[1:])))
        all_caps_words += sum(1 for w in a.words if len(w) > 1 and w.isupper())
        nocaps_words += sum(1 for w in a.words if not any(map(str.isupper, w)))
        all_caps_tweets += a.tweet.text.isupper()
        char_counts.update(a.tweet.text)
        for pattern, g in lex.gender_patterns:
            gender_hits[g] += a.text_low.count(pattern)
        hashtags.update(h.lower() for h in a.tweet.hashtags)

    chars = _char_classes(char_counts)
    wptw = [len(a.words) for a in authored]
    total_words = sum(wptw)
    total_bigrams = sum(bigram_counts.values())
    total_chars = sum(char_counts.values())
    hashtags_ptw = [len(a.tweet.hashtags) for a in authored]
    urls_ptw = [len(a.tweet.urls) for a in authored]
    hosts = _url_hosts(a.tweet for a in authored)
    rt_hashtags = Counter(h.lower() for t in rts for h in t.hashtags)

    stopped = lex.stopwords
    common_words = Counter({w: n for w, n in word_counts.items() if w not in stopped})
    common_bigrams = Counter(
        {
            bg: n
            for bg, n in bigram_counts.items()
            if not (set(bg.split(" ")) & stopped)
        }
    )

    langs = Counter(a.tweet.lang for a in authored if a.tweet.lang != "und")
    total_gender = sum(gender_hits.values())
    min_wptw, _, avg_wptw, med_wptw, std_wptw = five_stats(wptw) or (None,) * 5

    out = {
        "total_words": total_words,
        "min_wptw": min_wptw,
        "avg_wptw": avg_wptw,
        "med_wptw": med_wptw,
        "std_wptw": std_wptw,
        "unique_words": len(word_counts),
        "lex_freq": _ratio(len(word_counts), total_words),
        "total_bigrams": total_bigrams,
        "unique_bigrams": len(bigram_counts),
        "bigram_lex_freq": _ratio(len(bigram_counts), total_bigrams),
        "emoticons": sum(1 for a in authored for kind, _ in a.tokens if kind == EMOTICON),
        "emoji": chars["emoji"],
        "alltokens": sum(len(a.tokens) for a in authored),
        "all_caps_words": all_caps_words,
        "all_caps_words_pcnt": _pcnt(all_caps_words, total_words),
        "all_caps_tweets": all_caps_tweets,
        "all_caps_tweets_pcnt": _pcnt(all_caps_tweets, len(tweets)),
        "all_nocaps_words": nocaps_words,
        "all_nocaps_words_pcnt": _pcnt(nocaps_words, total_words),
        "total_chars": total_chars,
        "total_hashtags": sum(hashtags_ptw),
        "hashtags_per_tw": five_stats(hashtags_ptw),
        "uniq_hashtags": len(hashtags),
        "total_rt_hashtags": sum(rt_hashtags.values()),
        "uniq_rt_hashtags": len(rt_hashtags),
        "most_common_words": top_counts(common_words),
        "most_common_bigrams": top_counts(common_bigrams),
        "most_common_hashtags": top_counts(hashtags),
        "most_common_rt_hashtags": top_counts(rt_hashtags),
        "most_common_urls": top_counts(hosts),
        "most_common_rt_urls": top_counts(_url_hosts(rts)),
        "seen_urls": sum(urls_ptw),
        "urls_per_tw": five_stats(urls_ptw),
        "avg_edit_distance": (
            # one distance per distinct host, weighted by its count: the same
            # float as the mean over every URL occurrence
            sum(levenshtein(h, screen_name.lower()) * n for h, n in hosts.items())
            / sum(hosts.values())
            if screen_name and hosts
            else None
        ),
        "lexical_gender": (
            {g: _pcnt(n, total_gender) for g, n in gender_hits.items()} if total_gender else None
        ),
        "number_of_languages": len(langs),
        "tweets_per_language": top_counts(langs, LANG_TOP_K),
    }
    for cls in ("punctuation", "digit", "alpha", "upper", "lower", "greek"):
        out[f"{cls}_chars"] = chars[cls]
        out[f"{cls}_pcnt"] = _pcnt(chars[cls], total_chars)
    for name in ("articles", "pronouns", "expletives", "locations"):
        vocab = getattr(lex, name)
        out[name] = sum(n for w, n in word_counts.items() if w in vocab)
    return out


# -- sentiment family ---------------------------------------------------------------


def sentiment_features(authored: list[Authored]) -> dict:
    """Daily sentiment timeseries plus per-entity sentiment and co-mentions.

    A day's positive mean covers only tweets that actually matched a
    positive word that day (likewise negative); days with no matches do not
    appear. Scores and entity hits are those read_authored put in each
    record.
    """
    day_pos: dict[str, list[float]] = defaultdict(list)
    day_neg: dict[str, list[float]] = defaultdict(list)
    ent_pos: dict[str, list[float]] = defaultdict(list)
    ent_neg: dict[str, list[float]] = defaultdict(list)
    node_w: Counter = Counter()
    edge_w: Counter = Counter()
    for a in authored:
        for score, by_day, by_entity in ((a.pos, day_pos, ent_pos), (a.neg, day_neg, ent_neg)):
            if score > 0:
                by_day[_day_iso(a.day)].append(score)
                for name in a.entities:
                    by_entity[name].append(score)
        node_w.update(a.entities)
        edge_w.update(x + "|" + y for x, y in combinations(a.entities, 2))

    return {
        "daily_sentiment": {
            "pos": {d: statistics.fmean(v) for d, v in sorted(day_pos.items())},
            "neg": {d: statistics.fmean(v) for d, v in sorted(day_neg.items())},
        },
        "entity_overlap": {
            "nodes": {e: node_w[e] for e in sorted(node_w)},
            "edges": {e: edge_w[e] for e in sorted(edge_w)},
        },
        "senti_entities": {
            e: {
                "pos": statistics.fmean(ent_pos[e]) if ent_pos.get(e) else None,
                "neg": statistics.fmean(ent_neg[e]) if ent_neg.get(e) else None,
            }
            for e in sorted(node_w)
        },
    }


# -- assembly ------------------------------------------------------------------------

FEATURE_FIELDS: tuple[str, ...] = (
    "id",
    "screen_name",
    "screen_name_len",
    "screen_name_upper",
    "screen_name_lower",
    "screen_name_digit",
    "screen_name_alpha",
    "name",
    "name_len",
    "name_upper",
    "name_lower",
    "name_digit",
    "name_alpha",
    "name_greek",
    "created_at",
    "tweet_count",
    "favourites_count",
    "followers_count",
    "friends_count",
    "fr_fo_ratio",
    "location",
    "has_location",
    "time_zone",
    "lang",
    "protected",
    "verified",
    "dead",
    "suspended",
    "user_url",
    "bio_words",
    "bio_upper_words",
    "bio_lower_words",
    "bio_punctuation_chars",
    "bio_digit_chars",
    "bio_alpha_chars",
    "bio_upper_chars",
    "bio_lower_chars",
    "bio_greek_chars",
    "bio_total_chars",
    "seen_total",
    "total_inferred",
    "seen_greek_total",
    "all_intervals",
    "seen_top_tweets",
    "top_tweets_pcnt",
    "top_intervals",
    "mention_indegree",
    "mention_outdegree",
    "mention_inweight",
    "mention_outweight",
    "mention_avg_inweight",
    "mention_avg_outweight",
    "mention_out_in_ratio",
    "mention_pcnt",
    "most_mentioned_users",
    "most_mentioned_by",
    "retweet_indegree",
    "retweet_outdegree",
    "retweet_inweight",
    "retweet_outweight",
    "retweet_avg_inweight",
    "retweet_avg_outweight",
    "retweet_out_in_ratio",
    "retweet_pcnt",
    "most_retweeted_users",
    "most_retweeted_by",
    "rt_intervals",
    "reply_indegree",
    "reply_outdegree",
    "reply_inweight",
    "reply_outweight",
    "reply_avg_inweight",
    "reply_avg_outweight",
    "reply_out_in_ratio",
    "replies_pcnt",
    "most_replied_to",
    "most_replied_by",
    "reply_intervals",
    "seen_replied_to",
    "most_engaging_tweet",
    "plain_tweets",
    "most_used_sources",
    "time_between_any",
    "time_between_top",
    "time_between_rt",
    "time_between_replies",
    "max_daily_interval",
    "last_tweeted_at",
    "life_time",
    "tweets_per_hour_of_day",
    "tweets_per_weekday",
    "tweets_per_active_day",
    "tweets_per_day",
    "last_month",
    "fr_scanned_at",
    "seen_fr",
    "gr_fr",
    "gr_fr_pcnt",
    "tr_fr",
    "tr_fr_pcnt",
    "fo_scanned_at",
    "seen_fo",
    "gr_fo",
    "gr_fo_pcnt",
    "tr_fo",
    "tr_fo_pcnt",
    "fr_fo_jaccard",
    "fr_and_fo",
    "fr_or_fo",
    "gr_fr_fo",
    "gr_fr_fo_pcnt",
    "greek",
    "total_words",
    "min_wptw",
    "avg_wptw",
    "med_wptw",
    "std_wptw",
    "unique_words",
    "lex_freq",
    "total_bigrams",
    "unique_bigrams",
    "bigram_lex_freq",
    "articles",
    "pronouns",
    "expletives",
    "locations",
    "emoticons",
    "emoji",
    "alltokens",
    "all_caps_words",
    "all_caps_words_pcnt",
    "all_caps_tweets",
    "all_caps_tweets_pcnt",
    "all_nocaps_words",
    "all_nocaps_words_pcnt",
    "punctuation_chars",
    "punctuation_pcnt",
    "total_chars",
    "digit_chars",
    "digit_pcnt",
    "alpha_chars",
    "alpha_pcnt",
    "upper_chars",
    "upper_pcnt",
    "lower_chars",
    "lower_pcnt",
    "greek_chars",
    "greek_pcnt",
    "total_hashtags",
    "hashtags_per_tw",
    "uniq_hashtags",
    "total_rt_hashtags",
    "uniq_rt_hashtags",
    "most_common_words",
    "most_common_bigrams",
    "most_common_hashtags",
    "most_common_rt_hashtags",
    "most_common_urls",
    "most_common_rt_urls",
    "seen_urls",
    "urls_per_tw",
    "avg_edit_distance",
    "daily_sentiment",
    "entity_overlap",
    "senti_entities",
    "favoriters",
    "favorited",
    "most_favoriters",
    "most_favorited",
    "lexical_gender",
    "number_of_languages",
    "tweets_per_language",
    "vector_timestamp",
)

# the profile family's fields: every one of them reads missing without a snapshot
_PROFILE_SLICE = slice(FEATURE_FIELDS.index("screen_name"), FEATURE_FIELDS.index("seen_total"))
# those of them that name a snapshot field hold its value as it is
_PROFILE_COPIED = tuple(f for f in FEATURE_FIELDS[_PROFILE_SLICE] if f in UserSnapshot.__slots__)


@dataclass
class _Context:
    """Whole-corpus state shared by every vector at one (as_of, store) state."""

    key: tuple  # (as_of, store mutations)
    tweets_by_author: dict[UserId, list[Tweet]]
    adj: Adjacency  # mention, retweet, reply, favorite and follow
    replies_to: dict[UserId, Counter]


class Vectorizer:
    """Computes feature vectors against one store.

    The heavy shared state (interaction graphs, follow snapshot, favorite
    maps) is built once per (as_of, store mutation count) and reused for
    every user. Any store write invalidates it, which is coarse but always
    correct.
    """

    def __init__(self, store: Store, lexicons: Lexicons | None = None):
        self.store = store
        self.lex = lexicons if lexicons is not None else load_default()
        self._ctx: _Context | None = None

    # -- shared state --------------------------------------------------------

    def _context(self, as_of: Timestamp) -> _Context:
        key = (as_of, self.store.mutations)
        if self._ctx is not None and self._ctx.key == key:
            return self._ctx

        corpus = [t for t in self.store.all_tweets() if t.created_at <= as_of]
        by_author: dict[UserId, list[Tweet]] = defaultdict(list)
        for t in corpus:
            by_author[t.author].append(t)
        for tweets in by_author.values():
            tweets.sort(key=lambda t: (t.created_at, t.id))

        present = follow_snapshot(self.store.follow_log, self.store.follow_scans, as_of)
        favorites = (f for f in self.store.all_favorites() if f.observed_at <= as_of)
        interactions = extract_interactions(corpus)
        graphs = {
            **{kind: interactions[kind] for kind in _TOP_COUNTERPARTS},
            "favorite": favorite_graph(favorites),
            "follow": dict.fromkeys(present, 1),
        }
        self._ctx = _Context(
            key=key,
            tweets_by_author=dict(by_author),
            adj=build_adjacency(graphs),
            replies_to=reply_targets(corpus),
        )
        return self._ctx

    def _known(self, u: UserId) -> bool:
        s = self.store
        return (
            s.latest_snapshot(u) is not None
            or s.author_tweet_count(u) > 0
            or u in s.crawl_states
            or s.user_class(u) is not UserClass.UNKNOWN
        )

    # -- public API ------------------------------------------------------------

    def assemble_vector(self, u: UserId, as_of: Timestamp) -> dict:
        if not self._known(u):
            raise UnknownUser(u)
        ctx = self._context(as_of)

        snapshot = self.store.snapshot_as_of(u, as_of)
        klass = self.store.user_class(u)
        state = self.store.crawl_states.get(u)
        tweets = ctx.tweets_by_author.get(u, [])
        authored = read_authored(tweets, self.lex)

        merged: dict = {"id": u, "vector_timestamp": as_of}
        merged.update(profile_features(snapshot, klass))
        merged.update(
            activity_features(
                tweets,
                gone=self.store.gone_count(u),
                created_at=snapshot.created_at if snapshot else None,
                as_of=as_of,
            )
        )
        merged.update(
            interaction_features(u, ctx.adj, tweets, ctx.replies_to.get(u))
        )
        friends, followers = ctx.adj["follow"]
        fr, fo = set(friends.get(u, ())), set(followers.get(u, ()))
        classes = {v: self.store.user_class(v) for v in fr | fo}
        classes[u] = klass
        fav_out, fav_in = ctx.adj["favorite"]
        merged.update(
            relation_features(u, fr, fo, classes, state, fav_in.get(u), fav_out.get(u))
        )
        screen_name = snapshot.screen_name if snapshot else None
        merged.update(text_features(tweets, authored, self.lex, screen_name))
        merged.update(sentiment_features(authored))

        return {f: merged[f] for f in FEATURE_FIELDS}


def export_vectors(
    vec: Vectorizer, users: Iterable[UserId], as_of: Timestamp, path: str | Path
) -> int:
    """Write one JSON line per user, fields in FEATURE_FIELDS order."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for u in users:
            row = vec.assemble_vector(u, as_of)
            fh.write(json.dumps(row, ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")
            n += 1
    return n
