import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisum import theorem1
from trisum.core_arith import MAX_INPUT, ConstructionFailed, Quad1, eval_quad
from trisum.ternary import TernaryRep
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
        return TernaryRep(0, 10**12, 10**12, "broken")

    monkeypatch.setattr(theorem1, "rep_2t_t_t", rep)
    monkeypatch.setattr(theorem1, "rep_square_two_tri", rep)


@pytest.mark.parametrize("n", [1001, 1002])
def test_failed_bound_check_falls_back_to_brute_force(monkeypatch, n):
    _break_the_bound_checks(monkeypatch)
    reset_fallback_count()
    assert tuple(represent_thm1(n)) == brute_quad("thm1", n)
    assert fallback_count() == 1


@pytest.mark.parametrize("n", [DEFAULT_BUDGET + 1, MAX_INPUT])
def test_failed_bound_check_beyond_the_budget_raises(monkeypatch, n):
    _break_the_bound_checks(monkeypatch)
    with pytest.raises(ConstructionFailed):
        represent_thm1(n)
