"""Hypothesis profile and shared strategies for the suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from semimeasures import Dyadic

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@st.composite
def dyadics(draw, max_exponent: int = 8, max_units: int = 4) -> Dyadic:
    exp = draw(st.integers(0, max_exponent))
    num = draw(st.integers(0, max_units << exp))
    return Dyadic(num, exp)


@st.composite
def unit_dyadics(draw, max_exponent: int = 6) -> Dyadic:
    exp = draw(st.integers(0, max_exponent))
    num = draw(st.integers(0, 1 << exp))
    return Dyadic(num, exp)


bit_strings = st.text(alphabet="01", max_size=8)

string_sets = st.lists(st.text(alphabet="01", min_size=0, max_size=5), max_size=6)


@st.composite
def messy_string_sets(draw) -> list[str]:
    """Up to ~60 strings of length <= 10, salted with duplicates and prefixes."""
    base = draw(st.lists(st.text(alphabet="01", max_size=10), max_size=40))
    cuts = draw(st.lists(st.tuples(st.integers(0, 39), st.integers(0, 10)), max_size=20))
    salted = base + [base[k % len(base)][:cut] for k, cut in cuts if base]
    return draw(st.permutations(salted))


seeds = st.integers(0, 2**32 - 1)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(987654321)
