"""Community-membership rules.

Users are judged on the language mix of their stored tweets, with a
name-or-bio script test as a secondary signal, a follow-neighborhood vote for
users the tweet rules cannot decide, and a retweet-evidence path that pulls
unknown authors into the tracked set. A daily sweep drops tracked users whose
target-language share collapses.

All rule functions are pure; `run_classification` is the single writer that
applies transitions to the store.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

from . import lexicons as lex
from .model import Timestamp, UserClass, UserId, UserSnapshot
from .store import Store

UNSEEDABLE = frozenset(
    {
        UserClass.STOPPED,
        UserClass.DEAD,
        UserClass.SUSPENDED,
        UserClass.PROTECTED,
    }
)


@dataclass(frozen=True)
class LangStats:
    user: UserId
    seen_total: int
    seen_target: int

    @property
    def pct_target(self) -> float:
        if self.seen_total == 0:
            return 0.0
        return self.seen_target / self.seen_total


def lang_stats(store: Store, u: UserId, target_lang: str) -> LangStats:
    counts = store.author_lang_counts(u)
    return LangStats(
        user=u,
        seen_total=sum(counts.values()),
        seen_target=counts.get(target_lang, 0),
    )


@dataclass(frozen=True)
class ClassifierConfig:
    target_lang: str = "el"
    rule1_min_tweets: int = 100
    rule1_min_pct: float = 0.20
    rule2_min_tweets: int = 500
    rule2_min_pct: float = 0.10
    stop_min_tweets: int = 500
    stop_max_pct: float = 0.01
    daily_stop_pct: float = 0.02
    neighbor_min_fraction: float = 0.30
    retweet_seed_count: int = 10
    script_ranges: tuple[tuple[int, int], ...] = lex.TARGET_SCRIPT_RANGES
    common_names_file: str = ""  # empty -> packaged default lexicon


def load_common_names(cfg: ClassifierConfig) -> frozenset[str]:
    if cfg.common_names_file:
        lines = Path(cfg.common_names_file).read_text("utf-8").splitlines()
        return frozenset(
            w.strip().lower() for w in lines if w.strip() and not w.startswith("#")
        )
    return lex.load_default().common_names


class Verdict(enum.Enum):
    TARGET = "target"
    STOP = "stop"
    INCONCLUSIVE = "inconclusive"


def name_or_bio_matches(
    snapshot: UserSnapshot | None, cfg: ClassifierConfig, common_names: frozenset[str]
) -> bool:
    """True when the display name or bio is written in the target script, or
    the name is a known latin-spelled target-community name."""
    if snapshot is None:
        return False
    script = lex.range_class(cfg.script_ranges)
    if script.search(snapshot.name) or script.search(snapshot.bio):
        return True
    return snapshot.name.lower() in common_names


def classify_user(
    stats: LangStats,
    snapshot: UserSnapshot | None,
    cfg: ClassifierConfig,
    common_names: frozenset[str],
) -> Verdict:
    total, pct = stats.seen_total, stats.pct_target
    if total > cfg.rule1_min_tweets and pct >= cfg.rule1_min_pct:
        return Verdict.TARGET
    if (
        total > cfg.rule2_min_tweets
        and pct >= cfg.rule2_min_pct
        and name_or_bio_matches(snapshot, cfg, common_names)
    ):
        return Verdict.TARGET
    # membership checks take precedence over the stop check by construction:
    # both rules above returned already
    if total > cfg.stop_min_tweets and pct < cfg.stop_max_pct:
        return Verdict.STOP
    return Verdict.INCONCLUSIVE


def neighbor_resolve(
    u: UserId, neighbor_classes: dict[UserId, UserClass], cfg: ClassifierConfig
) -> Verdict:
    """Promote an undecided user when strictly more than the configured
    fraction of their deduplicated friends-or-followers set is Target."""
    if not neighbor_classes:
        return Verdict.INCONCLUSIVE
    targets = sum(1 for c in neighbor_classes.values() if c is UserClass.TARGET)
    if targets / len(neighbor_classes) > cfg.neighbor_min_fraction:
        return Verdict.TARGET
    return Verdict.INCONCLUSIVE


def retweet_seed(evidence: int, cfg: ClassifierConfig) -> bool:
    """Track an unknown author once enough distinct target-language tweets of
    theirs were retweeted by users we already follow. Retweeter multiplicity
    does not count; the caller keeps one entry per distinct tweet."""
    return evidence >= cfg.retweet_seed_count


def daily_pass(
    tracked_stats: list[LangStats], cfg: ClassifierConfig
) -> list[UserId]:
    """The demotion sweep: tracked (non-Target) users whose stored share of
    target-language tweets fell below the daily threshold."""
    return [
        s.user
        for s in tracked_stats
        if s.seen_total > cfg.stop_min_tweets and s.pct_target < cfg.daily_stop_pct
    ]


@dataclass
class ClassificationReport:
    transitions: list[tuple[UserId, str, str]] = field(default_factory=list)


def _apply(
    store: Store, report: ClassificationReport, u: UserId, new: UserClass, at: Timestamp
) -> None:
    old = store.user_class(u)
    if store.set_class(u, new, at):
        report.transitions.append((u, old.value, new.value))


def run_classification(
    store: Store,
    cfg: ClassifierConfig,
    common_names: frozenset[str],
    now: Timestamp,
) -> ClassificationReport:
    """One full classification round: rule verdicts for every user with stored
    tweets, then the neighbor vote over still-undecided tracked users, then
    the daily demotion sweep. Target is sticky throughout.

    The passes change classes but store no tweets, so each user's language
    counts are read once per round."""
    report = ClassificationReport()
    stats_of = cache(lambda u: lang_stats(store, u, cfg.target_lang))

    for u in store.tweet_authors():
        current = store.user_class(u)
        if current in UNSEEDABLE or current is UserClass.TARGET:
            continue
        verdict = classify_user(stats_of(u), store.latest_snapshot(u), cfg, common_names)
        if verdict is Verdict.TARGET:
            if current is UserClass.UNKNOWN:
                # membership implies having been tracked; keep the history sane
                _apply(store, report, u, UserClass.TRACKED, now)
            _apply(store, report, u, UserClass.TARGET, now)
        elif verdict is Verdict.STOP:
            _apply(store, report, u, UserClass.STOPPED, now)

    for u in store.users_in_class(UserClass.TRACKED):
        stats = stats_of(u)
        if stats.seen_total > 0 and stats.pct_target < cfg.stop_max_pct:
            # own tweets trend toward the stop rule; a promotion now would be
            # sticky and contradict the eventual stop verdict
            continue
        neighbors = store.friends_ever(u) | store.followers_ever(u)
        neighbors.discard(u)
        classes = {v: store.user_class(v) for v in neighbors}
        if neighbor_resolve(u, classes, cfg) is Verdict.TARGET:
            _apply(store, report, u, UserClass.TARGET, now)

    for u in daily_pass([stats_of(u) for u in store.users_in_class(UserClass.TRACKED)], cfg):
        _apply(store, report, u, UserClass.STOPPED, now)

    return report
