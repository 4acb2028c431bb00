import pytest
from hypothesis import given, strategies as st

from langcrawl.apiface import (
    DEFAULT_BUDGETS,
    GRANTED,
    WINDOW,
    Endpoint,
    RateLimiter,
    RetryAfter,
)


def test_grants_up_to_budget_then_blocks():
    rl = RateLimiter()
    budget = DEFAULT_BUDGETS[Endpoint.FRIENDS_IDS].max_requests
    for _ in range(budget):
        assert rl.acquire(Endpoint.FRIENDS_IDS, 1000) is GRANTED
    verdict = rl.acquire(Endpoint.FRIENDS_IDS, 1000)
    assert isinstance(verdict, RetryAfter)
    # 1000 sits in window [900, 1800)
    assert verdict.duration == 1800 - 1000


def test_windows_are_wall_aligned():
    rl = RateLimiter()
    budget = DEFAULT_BUDGETS[Endpoint.USERS_SHOW].max_requests
    for _ in range(budget):
        assert rl.acquire(Endpoint.USERS_SHOW, 899) is GRANTED
    assert isinstance(rl.acquire(Endpoint.USERS_SHOW, 899), RetryAfter)
    # next second starts a fresh window regardless of when the burst began
    assert rl.acquire(Endpoint.USERS_SHOW, 900) is GRANTED


def test_endpoints_limited_independently():
    rl = RateLimiter()
    for _ in range(DEFAULT_BUDGETS[Endpoint.FRIENDS_IDS].max_requests):
        rl.acquire(Endpoint.FRIENDS_IDS, 0)
    assert isinstance(rl.acquire(Endpoint.FRIENDS_IDS, 0), RetryAfter)
    assert rl.acquire(Endpoint.FOLLOWERS_IDS, 0) is GRANTED


@given(
    st.lists(
        st.tuples(
            st.sampled_from([Endpoint.FRIENDS_IDS, Endpoint.USERS_SHOW]),
            st.integers(min_value=0, max_value=300),
        ),
        max_size=200,
    )
)
def test_never_over_budget_in_any_window(moves):
    """Replay an arbitrary request schedule and recount grants per aligned
    window; no (endpoint, window) pair may exceed its budget."""
    rl = RateLimiter()
    now = 0
    grants = {}
    for endpoint, gap in moves:
        now += gap
        if rl.acquire(endpoint, now) is GRANTED:
            key = (endpoint, now - now % WINDOW)
            grants[key] = grants.get(key, 0) + 1
    for (endpoint, _), n in grants.items():
        assert n <= DEFAULT_BUDGETS[endpoint].max_requests


def test_retry_after_reaches_next_window():
    budget = DEFAULT_BUDGETS[Endpoint.USERS_SHOW].max_requests
    for t in (0, 450):
        rl = RateLimiter()
        for _ in range(budget):
            rl.acquire(Endpoint.USERS_SHOW, t)
        verdict = rl.acquire(Endpoint.USERS_SHOW, t)
        assert rl.acquire(Endpoint.USERS_SHOW, t + verdict.duration) is GRANTED


def test_page_sizes_match_contract():
    assert DEFAULT_BUDGETS[Endpoint.USER_TIMELINE].page_size == 200
    assert DEFAULT_BUDGETS[Endpoint.STATUSES_LOOKUP].page_size == 100
    assert DEFAULT_BUDGETS[Endpoint.FRIENDS_IDS].page_size == 5000
    assert WINDOW == 900
