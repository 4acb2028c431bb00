"""The code-point range helpers against a naive per-character check."""

from hypothesis import given, strategies as st

from langcrawl.lexicons import (
    EMOJI_RANGES,
    TARGET_SCRIPT_RANGES,
    count_in_ranges,
    in_ranges,
    range_class,
)


def naive_in(ch, ranges):
    return any(lo <= ord(ch) <= hi for lo, hi in ranges)


ENDPOINTS = sorted(
    {
        cp
        for lo, hi in TARGET_SCRIPT_RANGES + EMOJI_RANGES
        for cp in (lo - 1, lo, lo + 1, hi - 1, hi, hi + 1)
    }
)
CHARS = st.one_of(
    st.characters(),
    st.characters(min_codepoint=0x10000),  # astral
    st.sampled_from([chr(cp) for cp in ENDPOINTS]),
)
code_point = st.integers(0, 0x10FFFF)
RANGES = st.one_of(
    st.sampled_from([TARGET_SCRIPT_RANGES, EMOJI_RANGES, ()]),
    # arbitrary ranges, reversed (empty) ones included
    st.lists(st.tuples(code_point, code_point), max_size=4).map(tuple),
)


@given(st.text(CHARS), RANGES)
def test_range_helpers_match_naive_check(text, ranges):
    hits = [ch for ch in text if naive_in(ch, ranges)]
    assert count_in_ranges(text, ranges) == len(hits)
    assert [ch for ch in text if in_ranges(ch, ranges)] == hits
    assert (range_class(ranges).search(text) is not None) == bool(hits)


def test_range_endpoints_are_inclusive():
    for lo, hi in TARGET_SCRIPT_RANGES + EMOJI_RANGES:
        for cp in (lo, hi):
            assert in_ranges(chr(cp), ((lo, hi),))
        assert not in_ranges(chr(lo - 1), ((lo, hi),))
        assert not in_ranges(chr(hi + 1), ((lo, hi),))
    assert count_in_ranges("αβγ🙂", ()) == 0
