"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (visible in the -rP report
section) and enforces its runtime budget.  Heavy sweeps are shared
through module-scoped fixtures so the whole file stays fast.
"""

import random
import time

import pytest

from trisum.core_arith import Quad1, Quad2, eval_quad
from trisum.ternary import MODULI, ROTATION, _balance_raw
from trisum.squares import NotRepresentable, three_squares, two_squares
from trisum.theorem1 import fallback_count, represent_thm1, reset_fallback_count
from trisum.theorem2 import branch_counts, represent_thm2, reset_branch_counts
from trisum.verifier import brute_quad, verify_range

from oracles import unreached

SEED = 287117  # shared by every randomized acceptance check

RANDOM_LARGE = 970
RANDOM_DESCENT = 30


def _report(ok: bool, label: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    return ok


# ---------------------------------------------------------------- sweeps


@pytest.fixture(scope="module")
def thm1_sweep():
    reset_fallback_count()
    t0 = time.perf_counter()
    bad = [n for n in range(10**6 + 1) if eval_quad("thm1", represent_thm1(n)) != n]
    return {"bad": bad, "fallbacks": fallback_count(), "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def thm2_sweep():
    reset_branch_counts()
    t0 = time.perf_counter()
    bad = [n for n in range(10**5 + 1) if eval_quad("thm2", represent_thm2(n)) != n]
    rng = random.Random(SEED)
    large = [rng.randint(10**9, 10**12) for _ in range(RANDOM_LARGE)]
    # 4n+3 divisible by 5*13*61, the inputs the paper's descent takes and
    # the construction gives to a modulus past 61
    large += [3965 * rng.randint(252000, 252000000) + 2973 for _ in range(RANDOM_DESCENT)]
    bad += [n for n in large if eval_quad("thm2", represent_thm2(n)) != n]
    return {"bad": bad, "branches": branch_counts(), "elapsed": time.perf_counter() - t0}


# ------------------------------------------------- range sweep criteria


def test_conjecture_sweep_to_one_million():
    t0 = time.perf_counter()
    report = verify_range("conjecture", 0, 10**6)
    elapsed = time.perf_counter() - t0
    ok = report.exceptions == (8, 68) and elapsed <= 60.0
    assert _report(
        ok,
        f"conjecture on [0, 1e6] misses exactly 8 and 68 "
        f"(found {list(report.exceptions)[:5]}, {elapsed:.1f}s, budget 60s)",
    )


def test_first_form_sweep_to_ten_million():
    t0 = time.perf_counter()
    report = verify_range("thm1", 0, 10**7)
    elapsed = time.perf_counter() - t0
    ok = report.exceptions == () and elapsed <= 300.0
    assert _report(
        ok,
        f"thm1 on [0, 1e7] has no exceptions "
        f"(found {len(report.exceptions)}, {elapsed:.1f}s, budget 300s)",
    )


def test_second_form_sweep_to_one_million():
    t0 = time.perf_counter()
    report = verify_range("thm2", 0, 10**6)
    elapsed = time.perf_counter() - t0
    ok = report.exceptions == () and elapsed <= 120.0
    assert _report(
        ok,
        f"thm2 on [0, 1e6] has no exceptions "
        f"(found {len(report.exceptions)}, {elapsed:.1f}s, budget 120s)",
    )


def test_second_form_sweep_to_ten_million():
    t0 = time.perf_counter()
    report = verify_range("thm2", 0, 10**7)
    elapsed = time.perf_counter() - t0
    ok = report.exceptions == () and elapsed <= 300.0
    assert _report(
        ok,
        f"thm2 on [0, 1e7] has no exceptions "
        f"(found {len(report.exceptions)}, {elapsed:.1f}s, budget 300s)",
    )


# ------------------------------------------------ constructive totality


def test_first_form_constructive_to_one_million(thm1_sweep):
    ok = not thm1_sweep["bad"] and thm1_sweep["fallbacks"] == 0
    assert _report(
        ok,
        f"represent_thm1 valid on [0, 1e6] with 0 brute fallbacks "
        f"(bad={thm1_sweep['bad'][:5]}, fallbacks={thm1_sweep['fallbacks']}, "
        f"{thm1_sweep['elapsed']:.1f}s)",
    )


def test_second_form_constructive_sweep_and_random(thm2_sweep):
    counts = thm2_sweep["branches"]
    covered = all(counts.get(k, 0) > 0 for k in ("brute", "square", "doubled"))
    ok = not thm2_sweep["bad"] and covered
    assert _report(
        ok,
        f"represent_thm2 valid on [0, 1e5] plus {RANDOM_LARGE + RANDOM_DESCENT} seeded "
        f"large inputs, all strategies exercised (bad={thm2_sweep['bad'][:5]}, "
        f"branches={counts}, {thm2_sweep['elapsed']:.1f}s)",
    )


# --------------------------------------------------------- exact traces


def test_pinned_witnesses():
    got = (
        represent_thm1(201),
        represent_thm1(202),
        represent_thm2(20002),
        represent_thm2(20001),
    )
    want = (
        Quad1(7, 5, 5, 2),
        Quad1(5, 6, 4, 5),
        Quad2(18, 63, 24, 65),
        Quad2(48, 19, 50, 6),
    )
    ok = got == want
    assert _report(ok, f"pinned witnesses for 201/202/20002/20001 (got {[tuple(g) for g in got]})")


# ------------------------------------------------------ unit consistency


def test_three_square_eligibility_agreement():
    bad = []
    for m in range(10**5 + 1):
        r = m
        while r and r % 4 == 0:
            r //= 4
        if r % 8 != 7:  # Legendre: m is not of the form 4^l(8k+7)
            t = three_squares(m)
            if t.a**2 + t.b**2 + t.c**2 != m:
                bad.append(m)
        else:
            try:
                three_squares(m)
                bad.append(m)
            except NotRepresentable:
                pass
    assert _report(
        not bad, f"three-square eligibility and decomposition agree on [0, 1e5] (bad={bad[:5]})"
    )


def test_balance_on_random_inputs():
    rng = random.Random(SEED)
    bad = []
    for _ in range(10**4):
        t = rng.choice(MODULI)
        p = 2 * rng.randint(0, 149) + 1
        q = 2 * rng.randint(0, 149) + 1
        n = t * t * (p * p + q * q)
        a, b = _balance_raw(*two_squares(p * p + q * q), t)
        if not (a * a + b * b == n and a > 0 and b > 0 and a & 1 and b & 1 and a % 4 != b % 4):
            bad.append((n, t))
    assert _report(not bad, f"balance sound on 10^4 seeded inputs (bad={bad[:3]})")


def test_lift_identities_and_closure():
    # the rotation pairs lift a two-square pair by t^2 when scaling alone
    # leaves both roots in one class mod 4: every pair splits t^2, and on
    # seeded same-class pairs the lift is two positive odd roots in
    # distinct classes
    pairs_ok = all(
        x * x + y * y == t * t and x % 4 == 0 and x > y for t, (x, y) in ROTATION.items()
    )
    rng = random.Random(SEED)
    bad = []
    for _ in range(10**4):
        t = rng.choice(MODULI)
        q = 2 * rng.randint(0, 500) + 1
        p = q + 4 * rng.randint(0, 250)  # p >= q, both in q's class mod 4
        a, b = _balance_raw(p, q, t)
        sound = (
            a * a + b * b == t * t * (p * p + q * q)
            and a > 0
            and b > 0
            and a & 1
            and b & 1
            and a % 4 != b % 4
        )
        if not sound:
            bad.append((p, q, t))
    ok = pairs_ok and not bad
    assert _report(ok, f"rotation pairs split t^2 and lifts stay sound on 10^4 pairs (bad={bad[:3]})")


# ------------------------------------- sweep vs. independent enumeration


def test_sweeps_match_independent_enumeration():
    hi = 10**6
    rng = random.Random(SEED)
    spot = list(range(3001)) + [rng.randint(0, hi) for _ in range(500)]
    bad = []
    for form in ("thm1", "thm2", "conj_a", "conj_b", "conjecture"):
        expected = unreached(form, hi)
        report = verify_range(form, 0, hi)
        if report.exceptions != expected:
            bad.append((form, "sweep"))
            continue
        missing = set(expected)
        for n in spot:
            if (brute_quad(form, n) is None) != (n in missing):
                bad.append((form, n))
                break
    assert _report(
        not bad,
        f"bitmap sweep, shift-or enumeration and per-input search agree on [0, 1e6] (bad={bad[:3]})",
    )
