"""Golden digest: the deterministic outputs of the public constructions.

One sha256 over the repr of every output (as a plain tuple) or error
(type and message) of a fixed set of calls.  A change that is meant to
keep every witness bit for bit keeps this digest; a change that alters
an output on purpose has to re-pin it, and say why.  GOLDEN_PEEL pins
the same calls without the represent_thm2 inputs whose 4n+3 all of 5, 13
and 61 divide, the ones a modulus past 61 took over from the paper's
descent.  Two more digests, built the same way, pin brute_quad's first
witnesses on both sides of its pair table's limit, and three_squares and
two_squares on every m up to 2^16, the range a separate q-scan once
served.  SMALL_WINDOWS pins, one digest each, the witnesses of
represent_thm1 on [0, 100000) and represent_thm2 on [0, 60000), the
windows the benchmark's small_thm1 and small_thm2 workloads time.
"""

import hashlib
import random

import pytest

from trisum.core_arith import MAX_INPUT
from trisum.squares import three_squares, two_squares
from trisum.theorem1 import represent_thm1
from trisum.theorem2 import represent_thm2
from trisum.verifier import FORMS, brute_quad

GOLDEN = "34e2b6c7778fd63ebacae43aad6a6cf61fb55e42a688b34be4433614bacd0b58"
GOLDEN_PEEL = "88530476c43176fde10ae3eb397b5858e796ca3893162c0cb05ca4c5d0ec923e"
GOLDEN_BRUTE = "7b4de024f59969fb50bb5e9356c49cb5ce1fa3ef61feafe24dfe09f185fb3c6b"
GOLDEN_SQUARES = "790112cf95567fa5222d56d54cd6a0ac905207e8e13f44a5dbfdaa47c0a89414"

LARGE = (10**6, MAX_INPUT)
FORCED_T61_BAND = (10**12, 2 * 10**12 - 1)
SQUARES_BAND = (1 << 16, 1 << 40)


def _forced_t61(rng: random.Random, count: int) -> list[int]:
    # 4n+3 divisible by 5 and 13 (n = 48 mod 65) but not by 61: thm2 takes t = 61
    lo, hi = FORCED_T61_BAND
    out = []
    while len(out) < count:
        n = rng.randint(lo, hi)
        n += (48 - n) % 65
        if n <= hi and (4 * n + 3) % 61:
            out.append(n)
    return out


def _calls():
    for n in range(20001):
        yield represent_thm1, n
        yield represent_thm2, n
    rng = random.Random(20160204)
    for _ in range(500):
        yield represent_thm1, rng.randint(*LARGE)
    for _ in range(500):
        yield represent_thm2, rng.randint(*LARGE)
    for n in _forced_t61(rng, 100):
        yield represent_thm2, n
    for _ in range(2000):
        m = rng.randint(*SQUARES_BAND)
        yield two_squares, m
        yield three_squares, m


def _digest(calls) -> str:
    h = hashlib.sha256()
    for fn, x in calls:
        try:
            line = repr(tuple(fn(x)))
        except Exception as exc:  # the error is part of the output
            line = f"{type(exc).__name__}: {exc}"
        h.update(f"{fn.__name__}({x}) = {line}\n".encode())
    return h.hexdigest()


def golden_digest() -> str:
    return _digest(_calls())


def test_outputs_match_the_golden_digest():
    assert golden_digest() == GOLDEN


def test_outputs_off_the_descent_inputs_match_their_digest():
    calls = [(fn, x) for fn, x in _calls() if fn is not represent_thm2 or (4 * x + 3) % 3965]
    assert len(calls) == sum(1 for _ in _calls()) - 5  # 2973, 6938, 10903, 14868, 18833
    assert _digest(calls) == GOLDEN_PEEL


def _brute_inputs():
    # every n to 5000, then seeded n from the pair table's range and above it
    yield from range(5001)
    rng = random.Random(20160205)
    for _ in range(200):
        yield rng.randint(5001, 1 << 20)
    for _ in range(20):
        yield rng.randint((1 << 20) + 1, 10**7)


def brute_digest() -> str:
    h = hashlib.sha256()
    for n in _brute_inputs():
        for form in FORMS:
            h.update(f"brute_quad({form!r}, {n}) = {brute_quad(form, n)!r}\n".encode())
    return h.hexdigest()


def test_brute_quad_matches_its_golden_digest():
    assert brute_digest() == GOLDEN_BRUTE


def squares_digest() -> str:
    return _digest((fn, m) for m in range((1 << 16) + 1) for fn in (three_squares, two_squares))


def test_squares_match_their_golden_digest():
    assert squares_digest() == GOLDEN_SQUARES


# a window's size and the sha256 of the repr of its witnesses, as a list of
# plain tuples
SMALL_WINDOWS = {
    "thm1": (represent_thm1, 100000, "d5326c4553d191cf711e717f024ccfa4be1d19d123980a0fe5d538708d1be327"),
    "thm2": (represent_thm2, 60000, "04b76b8c88531dceee659a5debd39a1a2c2ccea08a39b0bee8731826b12a4db0"),
}


@pytest.mark.parametrize("form", list(SMALL_WINDOWS))
def test_small_windows_match_their_digests(form):
    represent, size, digest = SMALL_WINDOWS[form]
    witnesses = [tuple(represent(n)) for n in range(size)]
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == digest
