"""Per-user feature vectors over the crawled corpus.

Six feature families (profile, activity, interaction, relation, text,
sentiment) assembled into one flat record per user. Field names are part of
the export format and must not change between releases; FEATURE_FIELDS is
the authoritative order.

Family functions are pure: they take prepared inputs and return a dict for
their slice of the vector. Vectorizer wires them to a Store, shares the
expensive whole-corpus state (interaction graphs, follow snapshot, favorite
maps) across users, and caches finished vectors until the store changes.
"""

from __future__ import annotations

import json
import re
import statistics
import unicodedata
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from datetime import date, timedelta
from functools import cache
from pathlib import Path
from typing import Iterable, Mapping
from urllib.parse import urlsplit

from .graphmine import InteractionGraph, extract_interactions, follow_snapshot
from .lexicons import (
    EMOJI_RANGES,
    TARGET_SCRIPT_RANGES,
    Lexicons,
    count_in_ranges,
    in_ranges,
    load_default,
)
from .model import CrawlState, Timestamp, Tweet, TweetId, UserClass, UserId, UserSnapshot
from .store import Store

DAY = 86400
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
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#\w+")

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
        if chunk[0] == "@":
            m = _MENTION_RE.match(chunk)
            if m:
                tokens.append((MENTION, m.group()))
                continue
        if chunk[0] == "#":
            m = _HASHTAG_RE.match(chunk)
            if m:
                tokens.append((HASHTAG, m.group()))
                continue
        for piece in _WORD_RE.findall(chunk):
            tokens.append((WORD, piece))
    return tokens


def _words(text: str, emoticons: frozenset = frozenset()) -> list[str]:
    return [tok for kind, tok in tokenize(text, emoticons) if kind == WORD]


# -- profile family ------------------------------------------------------------

_PROFILE_FIELDS = (
    "screen_name",
    "name",
    "created_at",
    "tweet_count",
    "favourites_count",
    "followers_count",
    "friends_count",
    "location",
    "time_zone",
    "protected",
    "verified",
)


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
    out: dict = {f: None for f in _PROFILE_FIELDS}
    out.update(
        screen_name_len=None,
        screen_name_upper=None,
        screen_name_lower=None,
        screen_name_digit=None,
        screen_name_alpha=None,
        name_len=None,
        name_upper=None,
        name_lower=None,
        name_digit=None,
        name_alpha=None,
        name_greek=None,
        fr_fo_ratio=None,
        has_location=None,
        lang=None,
        user_url=None,
        bio_words=None,
        bio_upper_words=None,
        bio_lower_words=None,
        bio_punctuation_chars=None,
        bio_digit_chars=None,
        bio_alpha_chars=None,
        bio_upper_chars=None,
        bio_lower_chars=None,
        bio_greek_chars=None,
        bio_total_chars=None,
    )
    out["dead"] = klass is UserClass.DEAD
    out["suspended"] = klass is UserClass.SUSPENDED
    if snapshot is None:
        return out

    for f in _PROFILE_FIELDS:
        out[f] = getattr(snapshot, f)
    out["lang"] = snapshot.ui_lang
    out["user_url"] = snapshot.profile_url
    out["has_location"] = bool(snapshot.location)

    sn = snapshot.screen_name
    out["screen_name_len"] = len(sn)
    out["screen_name_upper"] = sum(1 for ch in sn if ch.isupper())
    out["screen_name_lower"] = sum(1 for ch in sn if ch.islower())
    out["screen_name_digit"] = sum(1 for ch in sn if ch.isdigit())
    out["screen_name_alpha"] = sum(1 for ch in sn if ch.isalpha())

    nm = snapshot.name
    out["name_len"] = len(nm)
    out["name_upper"] = sum(1 for ch in nm if ch.isupper())
    out["name_lower"] = sum(1 for ch in nm if ch.islower())
    out["name_digit"] = sum(1 for ch in nm if ch.isdigit())
    out["name_alpha"] = sum(1 for ch in nm if ch.isalpha())
    out["name_greek"] = count_in_ranges(nm, TARGET_SCRIPT_RANGES)

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
    target_lang: str = "el",
) -> dict:
    """Temporal shape of the account.

    tweets must be sorted by (created_at, id). Interval histograms and the
    time_between_* five-stats run over gaps between consecutive tweets of
    the relevant kind; per-day aggregates use UTC calendar days.
    """
    seen = len(tweets)
    times = [t.created_at for t in tweets]
    top = [t for t in tweets if t.retweet_of is None and t.reply_to is None]
    rts = [t for t in tweets if t.retweet_of is not None]
    replies = [t for t in tweets if t.reply_to is not None]

    def gaps(seq: list[Tweet]) -> list[int]:
        return [b.created_at - a.created_at for a, b in zip(seq, seq[1:])]

    all_gaps = gaps(tweets)
    top_gaps = gaps(top)
    rt_gaps = gaps(rts)
    reply_gaps = gaps(replies)

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
        "seen_greek_total": sum(1 for t in tweets if t.lang == target_lang),
        "all_intervals": interval_histogram(all_gaps),
        "seen_top_tweets": len(top),
        "top_tweets_pcnt": _pcnt(len(top), seen),
        "top_intervals": interval_histogram(top_gaps),
        "rt_intervals": interval_histogram(rt_gaps),
        "reply_intervals": interval_histogram(reply_gaps),
        "plain_tweets": sum(
            1
            for t in tweets
            if t.retweet_of is None and not t.hashtags and not t.mentions and not t.urls
        ),
        "most_used_sources": sorted(
            Counter(t.source_client for t in tweets).items(),
            key=lambda kv: (-kv[1], kv[0]),
        ),
        "time_between_any": five_stats(all_gaps),
        "time_between_top": five_stats(top_gaps),
        "time_between_rt": five_stats(rt_gaps),
        "time_between_replies": five_stats(reply_gaps),
        "max_daily_interval": five_stats(sorted(day_gaps.values())),
        "last_tweeted_at": times[-1] if times else None,
        "tweets_per_hour_of_day": {h: per_hour.get(h, 0) for h in range(24)},
        "tweets_per_weekday": {d: per_weekday.get(d, 0) for d in range(7)},
    }
    out["most_used_sources"] = [[s, n] for s, n in out["most_used_sources"]]

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

    if times:
        cutoff = times[-1] - LAST_MONTH_SPAN
        month_hours = Counter(_hour(ts) for ts in times if ts >= cutoff)
        out["last_month"] = {h: month_hours.get(h, 0) for h in range(24)}
    else:
        out["last_month"] = {h: 0 for h in range(24)}
    return out


# -- interaction family ---------------------------------------------------------

Adjacency = dict[str, tuple[dict[UserId, Counter], dict[UserId, Counter]]]


def build_adjacency(graphs: Mapping[str, InteractionGraph]) -> Adjacency:
    """Per-user out/in weight maps for each interaction kind."""
    adj: Adjacency = {}
    for kind, g in graphs.items():
        out: dict[UserId, Counter] = defaultdict(Counter)
        inc: dict[UserId, Counter] = defaultdict(Counter)
        for (src, dst), w in g.edges.items():
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


def interaction_features(
    u: UserId,
    graphs: Mapping[str, InteractionGraph],
    tweets: list[Tweet],
    replies_to: Counter | None = None,
    _adj: Adjacency | None = None,
) -> dict:
    """Degrees, weights and top counterparts on the interaction graphs.

    Degrees count distinct counterparts, weights count tweets; the ratios
    are degree over degree. replies_to is the per-tweet count of replies u's
    tweets received from others, keyed by the replied-to tweet id.
    """
    adj = _adj if _adj is not None else build_adjacency(graphs)
    if replies_to is None:
        replies_to = Counter()
    seen = len(tweets)
    out: dict = {}

    names = {"mention": "mention", "retweet": "retweet", "reply": "reply"}
    for kind, prefix in names.items():
        outw, inw = adj.get(kind, ({}, {}))
        mine_out = outw.get(u, Counter())
        mine_in = inw.get(u, Counter())
        outdeg, indeg = len(mine_out), len(mine_in)
        outweight, inweight = sum(mine_out.values()), sum(mine_in.values())
        out[prefix + "_indegree"] = indeg
        out[prefix + "_outdegree"] = outdeg
        out[prefix + "_inweight"] = inweight
        out[prefix + "_outweight"] = outweight
        out[prefix + "_avg_inweight"] = _ratio(inweight, indeg)
        out[prefix + "_avg_outweight"] = _ratio(outweight, outdeg)
        out[prefix + "_out_in_ratio"] = _ratio(outdeg, indeg)
        if kind == "mention":
            out["most_mentioned_users"] = top_counts(mine_out)
            out["most_mentioned_by"] = top_counts(mine_in)
        elif kind == "retweet":
            out["most_retweeted_users"] = top_counts(mine_out)
            out["most_retweeted_by"] = top_counts(mine_in)
        else:
            out["most_replied_to"] = top_counts(mine_out)
            out["most_replied_by"] = top_counts(mine_in)

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

TRACKED_CLASSES = (UserClass.TRACKED, UserClass.TARGET)


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
        return sum(1 for v in users if classes.get(v) in TRACKED_CLASSES)

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


def _url_host(expanded: str) -> str | None:
    try:
        return urlsplit(expanded).hostname
    except ValueError:
        return None


def text_features(tweets: list[Tweet], lex: Lexicons, screen_name: str | None) -> dict:
    """Lexical statistics over authored text.

    Retweets carry someone else's words, so they are excluded from every
    word, character and sentiment-adjacent count here; only the *_rt_*
    hashtag and URL fields look at them. Uniqueness and most_common_* are
    lowercased; capitalization stats use the raw tokens.
    """
    authored = [t for t in tweets if t.retweet_of is None]
    rts = [t for t in tweets if t.retweet_of is not None]
    n_authored = len(authored)
    seen = len(tweets)

    word_counts: Counter = Counter()
    bigram_counts: Counter = Counter()
    wptw: list[int] = []
    total_words = 0
    total_bigrams = 0
    all_caps_words = 0
    nocaps_words = 0
    token_total = 0
    emoticon_hits = 0
    lexicon_hits = {"articles": 0, "pronouns": 0, "expletives": 0, "locations": 0}
    all_caps_tweets = 0
    total_chars = 0
    char_counts: Counter = Counter()  # every character of authored text
    gender_hits = {"m": 0, "f": 0}

    for t in authored:
        toks = tokenize(t.text, lex.emoticons)
        token_total += len(toks)
        words = [tok for kind, tok in toks if kind == WORD]
        emoticon_hits += sum(1 for kind, _ in toks if kind == EMOTICON)
        low = [w.lower() for w in words]
        word_counts.update(low)
        total_words += len(words)
        wptw.append(len(words))
        for a, b in zip(low, low[1:]):
            bigram_counts[a + " " + b] += 1
            total_bigrams += 1
        all_caps_words += sum(1 for w in words if len(w) > 1 and w.isupper())
        nocaps_words += sum(1 for w in words if not any(map(str.isupper, w)))
        for name in lexicon_hits:
            vocab = getattr(lex, name)
            lexicon_hits[name] += sum(1 for w in low if w in vocab)
        if t.text.isupper():
            all_caps_tweets += 1
        total_chars += len(t.text)
        char_counts.update(t.text)
        text_low = t.text.lower()
        for pattern, g in lex.gender_patterns:
            gender_hits[g] += text_low.count(pattern)

    chars = _char_classes(char_counts)

    hashtags = Counter(h.lower() for t in authored for h in t.hashtags)
    rt_hashtags = Counter(h.lower() for t in rts for h in t.hashtags)
    hosts = Counter()
    edit_distances: list[int] = []
    url_total = 0
    urls_ptw: list[int] = []
    for t in authored:
        urls_ptw.append(len(t.urls))
        url_total += len(t.urls)
        for _, expanded in t.urls:
            host = _url_host(expanded)
            if host:
                hosts[host] += 1
                if screen_name:
                    edit_distances.append(levenshtein(host, screen_name.lower()))
    rt_hosts = Counter()
    for t in rts:
        for _, expanded in t.urls:
            host = _url_host(expanded)
            if host:
                rt_hosts[host] += 1

    stopped = lex.stopwords
    common_words = Counter({w: n for w, n in word_counts.items() if w not in stopped})
    common_bigrams = Counter(
        {
            bg: n
            for bg, n in bigram_counts.items()
            if not (set(bg.split(" ")) & stopped)
        }
    )

    langs = Counter(t.lang for t in authored if t.lang != "und")
    total_gender = gender_hits["m"] + gender_hits["f"]

    out = {
        "total_words": total_words,
        "min_wptw": float(min(wptw)) if wptw else None,
        "avg_wptw": statistics.fmean(wptw) if wptw else None,
        "med_wptw": float(statistics.median(wptw)) if wptw else None,
        "std_wptw": statistics.pstdev(wptw) if wptw else None,
        "unique_words": len(word_counts),
        "lex_freq": _ratio(len(word_counts), total_words),
        "total_bigrams": total_bigrams,
        "unique_bigrams": len(bigram_counts),
        "bigram_lex_freq": _ratio(len(bigram_counts), total_bigrams),
        "articles": lexicon_hits["articles"],
        "pronouns": lexicon_hits["pronouns"],
        "expletives": lexicon_hits["expletives"],
        "locations": lexicon_hits["locations"],
        "emoticons": emoticon_hits,
        "emoji": chars["emoji"],
        "alltokens": token_total,
        "all_caps_words": all_caps_words,
        "all_caps_words_pcnt": _pcnt(all_caps_words, total_words),
        "all_caps_tweets": all_caps_tweets,
        "all_caps_tweets_pcnt": _pcnt(all_caps_tweets, seen),
        "all_nocaps_words": nocaps_words,
        "all_nocaps_words_pcnt": _pcnt(nocaps_words, total_words),
        "punctuation_chars": chars["punctuation"],
        "punctuation_pcnt": _pcnt(chars["punctuation"], total_chars),
        "total_chars": total_chars,
        "digit_chars": chars["digit"],
        "digit_pcnt": _pcnt(chars["digit"], total_chars),
        "alpha_chars": chars["alpha"],
        "alpha_pcnt": _pcnt(chars["alpha"], total_chars),
        "upper_chars": chars["upper"],
        "upper_pcnt": _pcnt(chars["upper"], total_chars),
        "lower_chars": chars["lower"],
        "lower_pcnt": _pcnt(chars["lower"], total_chars),
        "greek_chars": chars["greek"],
        "greek_pcnt": _pcnt(chars["greek"], total_chars),
        "total_hashtags": sum(len(t.hashtags) for t in authored),
        "hashtags_per_tw": five_stats([len(t.hashtags) for t in authored]),
        "uniq_hashtags": len(hashtags),
        "total_rt_hashtags": sum(len(t.hashtags) for t in rts),
        "uniq_rt_hashtags": len(rt_hashtags),
        "most_common_words": top_counts(common_words),
        "most_common_bigrams": top_counts(common_bigrams),
        "most_common_hashtags": top_counts(hashtags),
        "most_common_rt_hashtags": top_counts(rt_hashtags),
        "most_common_urls": top_counts(hosts),
        "most_common_rt_urls": top_counts(rt_hosts),
        "seen_urls": url_total,
        "urls_per_tw": five_stats(urls_ptw),
        "avg_edit_distance": statistics.fmean(edit_distances) if edit_distances else None,
        "lexical_gender": (
            {
                "m": _pcnt(gender_hits["m"], total_gender),
                "f": _pcnt(gender_hits["f"], total_gender),
            }
            if total_gender
            else None
        ),
        "number_of_languages": len(langs),
        "tweets_per_language": top_counts(langs, LANG_TOP_K),
    }
    return out


# -- sentiment family ---------------------------------------------------------------


def tweet_sentiment(text: str, lex: Lexicons) -> tuple[float, float]:
    """Summed positive and negative weights of matched lexicon words."""
    pos = neg = 0.0
    for w in _words(text, lex.emoticons):
        scores = lex.sentiment.get(w.lower())
        if scores:
            pos += scores[0]
            neg += scores[1]
    return pos, neg


def _entity_inventory(lex: Lexicons, tweets: list[Tweet]) -> dict[str, set[str]]:
    # The configured entity lexicon, plus every hashtag this user touched;
    # a hashtag entity is its own single alias.
    inventory: dict[str, set[str]] = {name: set(al) for name, al in lex.entities.items()}
    for t in tweets:
        for h in t.hashtags:
            inventory.setdefault(h.lower(), set()).add(h.lower())
    return inventory


def _mentions_entity(t: Tweet, aliases: set[str], text_low: str, tags: set[str]) -> bool:
    return any(a in text_low for a in aliases) or bool(aliases & tags)


def sentiment_features(tweets: list[Tweet], lex: Lexicons) -> dict:
    """Daily sentiment timeseries plus per-entity sentiment and co-mentions.

    A day's positive mean covers only tweets that actually matched a
    positive word that day (likewise negative); days with no matches do not
    appear. Entities are matched by alias substring in the lowercased text
    or by hashtag equality.
    """
    if not lex.sentiment:
        raise MissingLexicon("sentiment lexicon is empty")
    authored = [t for t in tweets if t.retweet_of is None]

    day_pos: dict[str, list[float]] = defaultdict(list)
    day_neg: dict[str, list[float]] = defaultdict(list)
    scores: dict[TweetId, tuple[float, float]] = {}
    for t in authored:
        pos, neg = tweet_sentiment(t.text, lex)
        scores[t.id] = (pos, neg)
        day = _day_iso(t.created_at // DAY)
        if pos > 0:
            day_pos[day].append(pos)
        if neg > 0:
            day_neg[day].append(neg)

    inventory = _entity_inventory(lex, authored)
    node_w: Counter = Counter()
    edge_w: Counter = Counter()
    ent_pos: dict[str, list[float]] = defaultdict(list)
    ent_neg: dict[str, list[float]] = defaultdict(list)
    for t in authored:
        text_low = t.text.lower()
        tags = {h.lower() for h in t.hashtags}
        hit = [
            name
            for name, aliases in inventory.items()
            if _mentions_entity(t, aliases, text_low, tags)
        ]
        hit.sort()
        pos, neg = scores[t.id]
        for name in hit:
            node_w[name] += 1
            if pos > 0:
                ent_pos[name].append(pos)
            if neg > 0:
                ent_neg[name].append(neg)
        for i, a in enumerate(hit):
            for b in hit[i + 1 :]:
                edge_w[a + "|" + b] += 1

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


@dataclass
class _Context:
    """Whole-corpus state shared by every vector at one (window, store) state."""

    t_from: Timestamp | None
    t_to: Timestamp
    mutations: int
    tweets_by_author: dict[UserId, list[Tweet]]
    adj: Adjacency
    replies_to: dict[UserId, Counter]
    fr: dict[UserId, set[UserId]]
    fo: dict[UserId, set[UserId]]
    fav_in: dict[UserId, Counter]
    fav_out: dict[UserId, Counter]
    vectors: dict[UserId, dict] = field(default_factory=dict)


class Vectorizer:
    """Computes and caches feature vectors against one store.

    The heavy shared state (interaction graphs, follow snapshot, favorite
    maps) is built once per (time window, store mutation count) and reused
    for every user; finished vectors are cached write-once within it. Any
    store write invalidates everything, which is coarse but always correct.
    """

    def __init__(self, store: Store, lexicons: Lexicons | None = None, target_lang: str = "el"):
        self.store = store
        self.lex = lexicons if lexicons is not None else load_default()
        self.target_lang = target_lang
        self._ctx: _Context | None = None

    # -- shared state --------------------------------------------------------

    def _context(self, t_from: Timestamp | None, t_to: Timestamp) -> _Context:
        ctx = self._ctx
        key = (t_from, t_to, self.store.mutations)
        if ctx is not None and (ctx.t_from, ctx.t_to, ctx.mutations) == key:
            return ctx

        lo = t_from if t_from is not None else -(1 << 62)
        corpus = [t for t in self.store.all_tweets() if lo <= t.created_at <= t_to]
        by_author: dict[UserId, list[Tweet]] = defaultdict(list)
        for t in corpus:
            by_author[t.author].append(t)
        for tweets in by_author.values():
            tweets.sort(key=lambda t: (t.created_at, t.id))

        present = follow_snapshot(self.store.follow_log, self.store.follow_scans, t_to)
        fr: dict[UserId, set[UserId]] = defaultdict(set)
        fo: dict[UserId, set[UserId]] = defaultdict(set)
        for src, dst in present:
            fr[src].add(dst)
            fo[dst].add(src)

        fav_in: dict[UserId, Counter] = defaultdict(Counter)
        fav_out: dict[UserId, Counter] = defaultdict(Counter)
        for f in self.store.all_favorites():
            if f.observed_at <= t_to:
                fav_in[f.tweet_author][f.user] += 1
                fav_out[f.user][f.tweet_author] += 1

        ctx = _Context(
            t_from=t_from,
            t_to=t_to,
            mutations=self.store.mutations,
            tweets_by_author=dict(by_author),
            adj=build_adjacency(extract_interactions(corpus)),
            replies_to=reply_targets(corpus),
            fr=dict(fr),
            fo=dict(fo),
            fav_in=dict(fav_in),
            fav_out=dict(fav_out),
        )
        self._ctx = ctx
        return ctx

    # -- public API ------------------------------------------------------------

    def assemble_vector(self, u: UserId, as_of: Timestamp) -> dict:
        return self._assemble(u, None, as_of)

    def vector_between(self, u: UserId, t_from: Timestamp, t_to: Timestamp) -> dict:
        """Same vector, counting only tweets created inside [t_from, t_to].

        Snapshots, follow edges and favorites are still taken as of t_to;
        only the tweet corpus gets the lower bound.
        """
        return self._assemble(u, t_from, t_to)

    def _known(self, u: UserId) -> bool:
        s = self.store
        return (
            s.latest_snapshot(u) is not None
            or s.author_tweet_count(u) > 0
            or u in s.crawl_states
            or s.user_class(u) is not UserClass.UNKNOWN
        )

    def _assemble(self, u: UserId, t_from: Timestamp | None, as_of: Timestamp) -> dict:
        if not self._known(u):
            raise UnknownUser(u)
        ctx = self._context(t_from, as_of)
        cached = ctx.vectors.get(u)
        if cached is not None:
            return cached

        snapshot = self.store.snapshot_as_of(u, as_of)
        klass = self.store.user_class(u)
        state = self.store.crawl_states.get(u)
        tweets = ctx.tweets_by_author.get(u, [])

        merged: dict = {"id": u, "vector_timestamp": as_of}
        merged.update(profile_features(snapshot, klass))
        merged.update(
            activity_features(
                tweets,
                gone=self.store.gone_count(u),
                created_at=snapshot.created_at if snapshot else None,
                as_of=as_of,
                target_lang=self.target_lang,
            )
        )
        merged.update(
            interaction_features(u, {}, tweets, ctx.replies_to.get(u), _adj=ctx.adj)
        )
        fr = ctx.fr.get(u, set())
        fo = ctx.fo.get(u, set())
        classes = {v: self.store.user_class(v) for v in fr | fo}
        classes[u] = klass
        merged.update(
            relation_features(
                u, fr, fo, classes, state, ctx.fav_in.get(u), ctx.fav_out.get(u)
            )
        )
        merged.update(text_features(tweets, self.lex, snapshot.screen_name if snapshot else None))
        merged.update(sentiment_features(tweets, self.lex))

        vector = {f: merged[f] for f in FEATURE_FIELDS}
        ctx.vectors[u] = vector
        return vector


def assemble_vector(
    store: Store,
    u: UserId,
    as_of: Timestamp,
    lexicons: Lexicons | None = None,
    target_lang: str = "el",
) -> dict:
    """One-shot convenience around Vectorizer for a single user."""
    return Vectorizer(store, lexicons, target_lang).assemble_vector(u, as_of)


def export_vectors(
    vec: Vectorizer,
    users: Iterable[UserId],
    as_of: Timestamp,
    path: str | Path,
    t_from: Timestamp | None = None,
) -> int:
    """Write one JSON line per user, fields in FEATURE_FIELDS order."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for u in users:
            if t_from is None:
                row = vec.assemble_vector(u, as_of)
            else:
                row = vec.vector_between(u, t_from, as_of)
            fh.write(json.dumps(row, ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")
            n += 1
    return n
