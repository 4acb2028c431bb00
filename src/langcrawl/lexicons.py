"""Lexicon loading and character-class helpers.

The package ships small Greek default lexicons under langcrawl/data; every
consumer (classifier name test, text/sentiment features, simulator token
pools) reads them through this module so the pieces agree on vocabulary.
All files are UTF-8; lines starting with # are comments.

The range helpers test code points against inclusive (lo, hi) ranges through
one compiled regex character class per range tuple, built on first use and
cached, so counting runs in the regex engine rather than per character in
Python.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache
from importlib import resources

# Greek and Greek-extended blocks.
TARGET_SCRIPT_RANGES: tuple[tuple[int, int], ...] = ((0x0370, 0x03FF), (0x1F00, 0x1FFF))

EMOJI_RANGES: tuple[tuple[int, int], ...] = (
    (0x1F300, 0x1FAFF),
    (0x2600, 0x27BF),
    (0x1F000, 0x1F0FF),
    (0x2190, 0x21FF),
    (0x2B00, 0x2BFF),
)


@cache
def range_class(ranges: tuple[tuple[int, int], ...]) -> re.Pattern:
    """One character whose code point lies in some inclusive (lo, hi) range."""
    parts = [
        f"\\U{max(lo, 0):08x}-\\U{min(hi, 0x10FFFF):08x}"
        for lo, hi in ranges
        if max(lo, 0) <= min(hi, 0x10FFFF)
    ]
    return re.compile(f"[{''.join(parts)}]" if parts else "(?!)")


def in_ranges(ch: str, ranges: tuple[tuple[int, int], ...]) -> bool:
    return range_class(ranges).fullmatch(ch) is not None


def count_in_ranges(s: str, ranges: tuple[tuple[int, int], ...]) -> int:
    return len(range_class(ranges).findall(s))


@dataclass(frozen=True)
class Lexicons:
    """Word lists driving the text, sentiment and gender features."""

    stopwords: frozenset[str] = frozenset()
    articles: frozenset[str] = frozenset()
    pronouns: frozenset[str] = frozenset()
    expletives: frozenset[str] = frozenset()
    locations: frozenset[str] = frozenset()
    common_names: frozenset[str] = frozenset()
    emoticons: frozenset[str] = frozenset()
    # word -> (positive weight, negative weight)
    sentiment: dict[str, tuple[float, float]] = field(default_factory=dict)
    # (substring pattern, "m" | "f")
    gender_patterns: tuple[tuple[str, str], ...] = ()
    # entity name -> aliases (all lowercase)
    entities: dict[str, tuple[str, ...]] = field(default_factory=dict)


def _lines(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def _parse_sentiment(text: str) -> dict[str, tuple[float, float]]:
    out = {}
    for line in _lines(text):
        word, pos, neg = line.split("\t")
        out[word] = (float(pos), float(neg))
    return out


def _parse_gender(text: str) -> tuple[tuple[str, str], ...]:
    return tuple((p, g) for p, g in (line.split("\t") for line in _lines(text)))


def _parse_entities(text: str) -> dict[str, tuple[str, ...]]:
    out = {}
    for line in _lines(text):
        name, aliases = line.split("\t")
        out[name] = tuple(a.strip().lower() for a in aliases.split(",") if a.strip())
    return out


_SET_FILES = {
    "stopwords": "stopwords.txt",
    "articles": "articles.txt",
    "pronouns": "pronouns.txt",
    "expletives": "expletives.txt",
    "locations": "locations.txt",
    "common_names": "names.txt",
    "emoticons": "emoticons.txt",
}


def _build(read: "callable") -> Lexicons:
    sets = {key: frozenset(_lines(read(fname))) for key, fname in _SET_FILES.items()}
    return Lexicons(
        sentiment=_parse_sentiment(read("sentiment.tsv")),
        gender_patterns=_parse_gender(read("gender.tsv")),
        entities=_parse_entities(read("entities.tsv")),
        **sets,
    )


def load_default() -> Lexicons:
    root = resources.files("langcrawl.data")
    return _build(lambda name: (root / name).read_text(encoding="utf-8"))
