import random
from functools import lru_cache
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisum import theorem1
from trisum.core_arith import MAX_INPUT, ConstructionFailed, Quad1, eval_quad
from trisum.ternary import rep_2t_t_t, rep_square_two_tri
from trisum.theorem1 import fallback_count, represent_thm1, reset_fallback_count
from trisum.verifier import DEFAULT_BUDGET, brute_quad


def test_known_witnesses():
    assert represent_thm1(0) == Quad1(0, 0, 0, 0)
    assert represent_thm1(201) == Quad1(7, 5, 5, 2)
    assert represent_thm1(202) == Quad1(5, 6, 4, 5)


def test_small_range_matches_exhaustive_search():
    # below the crossover both paths run the same nested enumeration
    for n in range(201):
        assert tuple(represent_thm1(n)) == brute_quad("thm1", n)


def test_dense_range_is_total_without_fallback():
    reset_fallback_count()
    for n in range(30000):
        q = represent_thm1(n)
        assert eval_quad("thm1", q) == n
        assert min(q) >= 0
    assert fallback_count() == 0


@given(st.integers(min_value=0, max_value=10**12))
@settings(max_examples=300, deadline=None)
def test_witnesses_evaluate_back(n):
    assert eval_quad("thm1", represent_thm1(n)) == n


def test_large_inputs_stay_constructive():
    reset_fallback_count()
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(10**9, 10**12)
        assert eval_quad("thm1", represent_thm1(n)) == n
    assert fallback_count() == 0


def _by_parity(*indices):
    # odd indices (value a(2a-1), index -1 included) fill (a, b) in the
    # order given, even indices (value c(2c+1)) fill (c, d)
    odd = [(i + 1) // 2 for i in indices if i & 1]
    even = [i // 2 for i in indices if not i & 1]
    assert len(odd) == len(even) == 2, indices
    return Quad1(*odd, *even)


def _two_branch_reference(n):
    # the construction as two parity branches, each building four indices in
    # the first order and sorting them by parity
    if n & 1:
        c = (isqrt(2 * n - 1) - 1) // 2
        d, y, z = rep_2t_t_t((n - (2 * c * c + 2 * c + 1)) // 2)
        assert c - d > y and c + d + 1 > z
        return _by_parity(c + d + 1 + z, c + d - z, c - d + y, c - d - y - 1)
    c = isqrt(n // 2)
    p, y, z = rep_square_two_tri((n - 2 * c * c) // 2)
    assert c - p > y and c + p > z
    return _by_parity(c - p + y, c - p - y - 1, c + p + z, c + p - z - 1)


def test_one_peel_body_matches_the_two_branch_reference():
    reset_fallback_count()
    for n in range(201, 10**5 + 1):
        assert represent_thm1(n) == _two_branch_reference(n)
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randint(201, MAX_INPUT)
        assert represent_thm1(n) == _two_branch_reference(n)
    assert fallback_count() == 0


def _peeled(parity, k, m):
    # the n whose peel takes k and leaves m: m <= 2k fits either parity
    return 2 * k * k + 2 * m + (2 * k + 1 if parity else 0)


@pytest.mark.parametrize("k", [100, 101, 10**8 + 1])
@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
@pytest.mark.parametrize("parity", [0, 1])
def test_one_peel_entry_serves_both_parities_of_k(parity, order, k):
    # the entry a remainder makes at k serves k + 1 as well, and the other
    # way round, though a step of k swaps the odd and even index of a pair
    peel = theorem1._peel_odd if parity else theorem1._peel_even
    for m in (0, 1, 37, 2 * k):
        peel.cache_clear()
        for step in order:
            n = _peeled(parity, k + step, m)
            assert represent_thm1(n) == _two_branch_reference(n), (n, k + step)
        info = peel.cache_info()
        assert (info.misses, info.hits) == (1, 1), m


@given(st.integers(min_value=201, max_value=MAX_INPUT))
@settings(max_examples=300, deadline=None)
def test_bound_check_holds_on_the_whole_domain(n):
    # the first order always passes above 200, so nothing falls back
    reset_fallback_count()
    assert eval_quad("thm1", represent_thm1(n)) == n
    assert fallback_count() == 0


def test_input_validation():
    with pytest.raises(ValueError):
        represent_thm1(-1)
    with pytest.raises(ValueError):
        represent_thm1(MAX_INPUT + 1)


def test_fallback_counter_reset():
    reset_fallback_count()
    assert fallback_count() == 0


@pytest.mark.parametrize("n", [MAX_INPUT - 1, MAX_INPUT, (2**58 - 3) // 4, (2**58 - 3) // 4 + 1])
def test_top_of_domain(n):
    assert eval_quad("thm1", represent_thm1(n)) == n


@given(st.integers(min_value=0, max_value=MAX_INPUT))
@settings(max_examples=200, deadline=None)
def test_witnesses_evaluate_back_on_the_whole_domain(n):
    assert eval_quad("thm1", represent_thm1(n)) == n


def _break_the_bound_checks(monkeypatch):
    # a ternary witness with huge slots fails both bound checks in both orders
    def rep(m):
        return 0, 10**12, 10**12

    monkeypatch.setattr(theorem1, "rep_2t_t_t", rep)
    monkeypatch.setattr(theorem1, "rep_square_two_tri", rep)
    # empty peel caches for the test: a remainder an earlier test cached
    # would never reach these reps, and the real caches, put back after it,
    # never hold what these reps gave
    for name in ("_peel_odd", "_peel_even"):
        monkeypatch.setattr(theorem1, name, lru_cache(maxsize=1 << 15)(getattr(theorem1, name).__wrapped__))


@pytest.mark.parametrize("n", [1001, 1002])
def test_failed_bound_check_raises_without_a_search(monkeypatch, n):
    # the proof rules the failure out above 200, so nothing retries it
    _break_the_bound_checks(monkeypatch)
    searched = []
    monkeypatch.setattr(theorem1, "brute_quad", lambda *args, **kwargs: searched.append(args))
    reset_fallback_count()
    with pytest.raises(ConstructionFailed):
        represent_thm1(n)
    assert fallback_count() == 1
    assert searched == []


@pytest.mark.parametrize("n", [DEFAULT_BUDGET + 1, MAX_INPUT])
def test_failed_bound_check_beyond_the_budget_raises(monkeypatch, n):
    _break_the_bound_checks(monkeypatch)
    with pytest.raises(ConstructionFailed):
        represent_thm1(n)
