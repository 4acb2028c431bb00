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

# The decision rule. Counts are strict lower bounds, shares are inclusive for
# membership and strict for the two stop rules.
RULE1_MIN_TWEETS = 100  # high-share membership: more tweets than this...
RULE1_MIN_PCT = 0.20  # ...and at least this target-language share
RULE2_MIN_TWEETS = 500  # profile-backed membership: more tweets than this...
RULE2_MIN_PCT = 0.10  # ...at least this share, and a name-or-bio match
STOP_MIN_TWEETS = 500  # the stop rule and the daily sweep judge only past this
STOP_MAX_PCT = 0.01  # stop: a share below this
DAILY_STOP_PCT = 0.02  # daily sweep: a tracked user's share below this
NEIGHBOR_MIN_FRACTION = 0.30  # neighbour vote: a Target share above this
RETWEET_SEED_COUNT = 10  # distinct retweeted originals that seed an unknown author


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
    """Which community is targeted; the decision rule is the constants above."""

    target_lang: str = "el"
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
    if total > RULE1_MIN_TWEETS and pct >= RULE1_MIN_PCT:
        return Verdict.TARGET
    if (
        total > RULE2_MIN_TWEETS
        and pct >= RULE2_MIN_PCT
        and name_or_bio_matches(snapshot, cfg, common_names)
    ):
        return Verdict.TARGET
    # membership checks take precedence over the stop check by construction:
    # both rules above returned already
    if total > STOP_MIN_TWEETS and pct < STOP_MAX_PCT:
        return Verdict.STOP
    return Verdict.INCONCLUSIVE


def neighbor_resolve(targets: int, total: int) -> Verdict:
    """Promote an undecided user when strictly more than NEIGHBOR_MIN_FRACTION
    of their `total` deduplicated friends-or-followers are Target; an empty
    neighbourhood decides nothing."""
    if total and targets / total > NEIGHBOR_MIN_FRACTION:
        return Verdict.TARGET
    return Verdict.INCONCLUSIVE


def retweet_seed(evidence: int) -> bool:
    """Track an unknown author once enough distinct target-language tweets of
    theirs were retweeted by users we already follow. Retweeter multiplicity
    does not count; the caller keeps one entry per distinct tweet."""
    return evidence >= RETWEET_SEED_COUNT


def daily_pass(tracked_stats: list[LangStats]) -> list[UserId]:
    """The demotion sweep: tracked (non-Target) users whose stored share of
    target-language tweets fell below the daily threshold."""
    return [
        s.user
        for s in tracked_stats
        if s.seen_total > STOP_MIN_TWEETS and s.pct_target < DAILY_STOP_PCT
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
        if stats.seen_total > 0 and stats.pct_target < STOP_MAX_PCT:
            # own tweets trend toward the stop rule; a promotion now would be
            # sticky and contradict the eventual stop verdict
            continue
        neighbors = store.friends_ever(u) | store.followers_ever(u)
        neighbors.discard(u)
        targets = sum(1 for v in neighbors if store.user_class(v) is UserClass.TARGET)
        if neighbor_resolve(targets, len(neighbors)) is Verdict.TARGET:
            _apply(store, report, u, UserClass.TARGET, now)

    for u in daily_pass([stats_of(u) for u in store.users_in_class(UserClass.TRACKED)]):
        _apply(store, report, u, UserClass.STOPPED, now)

    return report
