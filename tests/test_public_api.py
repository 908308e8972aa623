"""The package exports what it defines, once each, and none of the helpers it dropped."""

import importlib

import pytest

import trisum
from trisum.ternary import TernaryRep


def test_every_exported_name_resolves():
    assert len(trisum.__all__) == len(set(trisum.__all__))
    for name in trisum.__all__:
        assert hasattr(trisum, name), name


# helpers that only tests called, by the module that defined them
@pytest.mark.parametrize(
    "module, name",
    [
        ("core_arith", "split_square_plus_double_tri"),
        ("core_arith", "indices_to_quad1"),
        ("squares", "is_square"),
        ("ternary", "rep_4t_t_t"),
        ("theorem2", "solve_offset_congruence"),
        ("theorem2", "NotCoprime"),
    ],
)
def test_dropped_helpers_are_unreachable(module, name):
    assert name not in trisum.__all__
    assert not hasattr(trisum, name)
    assert not hasattr(importlib.import_module(f"trisum.{module}"), name)


def test_ternary_rep_is_three_indices():
    rep = TernaryRep(3, 2, 1)
    assert TernaryRep._fields == ("x", "y", "z")
    assert rep == (3, 2, 1)
    assert not hasattr(rep, "kind")
    assert not hasattr(rep, "value")
