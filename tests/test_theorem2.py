import random
from itertools import islice
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisum import theorem2
from trisum.core_arith import MAX_INPUT, ConstructionFailed, Quad2, eval_quad
from trisum.ternary import MODULI
from trisum.theorem2 import (
    _QR_CLASSES,
    FourSquareForm,
    _offset_candidates,
    branch_counts,
    four_squares_to_quad2,
    quad2_to_four_squares,
    represent_thm2,
    reset_branch_counts,
)
from trisum.verifier import DEFAULT_BUDGET, brute_quad


def _classes(v, t, doubled):
    # the offset congruence solved from scratch: 4*A0^2 = v (8*A0^2 when
    # doubled) mod t^2
    k, mod = (8 if doubled else 4), t * t
    return {a for a in range(mod) if k * a * a % mod == v % mod}


class TestOffsets:
    def test_congruence_classes(self):
        assert _QR_CLASSES[5, False][11] == frozenset({3, 22})
        assert _QR_CLASSES[5, True][7] == frozenset({2, 23})
        assert 11 not in _QR_CLASSES[5, True]

    def test_congruence_classes_satisfy_their_congruence(self):
        # every class sits under the residue of its own square, and every
        # A0 mod t^2 is listed: so each entry is exactly the congruence's solutions
        for t in MODULI:
            mod = t * t
            for doubled in (False, True):
                k, table = (8 if doubled else 4), _QR_CLASSES[t, doubled]
                for v, classes in table.items():
                    assert all(k * a0 * a0 % mod == v for a0 in classes), (v, t, doubled)
                assert sorted(a0 for classes in table.values() for a0 in classes) == list(range(mod))

    def test_congruence_takes_targets_above_the_input_bound(self):
        # v = 4n+3 exceeds MAX_INPUT for every n above (2^58-3)//4
        n = MAX_INPUT
        for t in MODULI:
            doubled = not _classes(4 * n + 3, t, False)
            got = list(islice(_offset_candidates(n, t, doubled), 20))
            assert len(got) == 20
            assert got == list(islice(_scan_offsets(n, t, doubled), 20)), (t, doubled)

    def test_first_offset_known_values(self):
        assert next(_offset_candidates(20002, 5, False)) == 128
        assert next(_offset_candidates(20001, 5, True)) == 98
        # classes 3 and 22 mod 25; A even: 22 and 28 mod 50, below isqrt(n) = 1000
        n = 10**6 + 2
        assert list(islice(_offset_candidates(n, 5, False), 6)) == [978, 972, 928, 922, 878, 872]

    def test_first_offset_respects_parity_and_class(self):
        a = next(_offset_candidates(20002, 5, False))
        assert a % 2 == 20002 % 2
        assert a % 25 in _classes(4 * 20002 + 3, 5, False)

    def test_first_offset_no_class(self):
        # square-mode classes are empty here
        assert next(_offset_candidates(20001, 5, False), None) is None


def _scan_offsets(n, t, doubled):
    # the linear scan the class arithmetic replaced, kept as the reference:
    # every A from the top down with 4A^2 = 4n+3 (8A^2 when doubled) mod t^2
    k, mod = (8 if doubled else 4), t * t
    v = (4 * n + 3) % mod
    start = isqrt(n // 2) if doubled else isqrt(n)
    for a in range(start, -1, -1):
        if not doubled and (a ^ n) & 1:
            continue  # n - A^2 must stay even
        if k * a * a % mod == v:
            yield a


class TestOffsetCandidatesMatchTheScan:
    def test_every_small_input(self):
        for n in range(3000):
            for t in MODULI:
                if (4 * n + 3) % t == 0:
                    continue
                for doubled in (False, True):
                    expected = list(_scan_offsets(n, t, doubled))
                    assert list(_offset_candidates(n, t, doubled)) == expected, (n, t, doubled)

    def test_first_candidates_of_seeded_large_inputs(self):
        rng = random.Random(1602)
        for i in range(300):
            t = MODULI[i % 3]
            n = rng.randint(0, MAX_INPUT)
            while (4 * n + 3) % t == 0:
                n = rng.randint(0, MAX_INPUT)
            # t is 5 mod 8, so 2 is a non-residue: exactly one shape has classes
            doubled = not _classes(4 * n + 3, t, False)
            got = list(islice(_offset_candidates(n, t, doubled), 50))
            assert len(got) == 50
            assert got == list(islice(_scan_offsets(n, t, doubled), 50)), (n, t, doubled)
            assert next(_offset_candidates(n, t, not doubled), None) is None, (n, t)

    def test_start_below_the_smallest_residue(self):
        # classes 1803 and 1918 mod 61^2, but A may not exceed isqrt(50) = 7
        assert sorted(_QR_CLASSES[61, True][403]) == [1803, 1918]
        assert list(_offset_candidates(100, 61, True)) == []


class TestFourSquareBridge:
    def test_known_values(self):
        assert quad2_to_four_squares(0, Quad2(0, 0, 0, 0)) == FourSquareForm(1, 1, 0, 1)
        assert quad2_to_four_squares(7, Quad2(0, 1, 1, 0)) == FourSquareForm(1, 5, 1, 1)
        assert quad2_to_four_squares(20002, Quad2(18, 63, 24, 65)) == FourSquareForm(71, 97, 128, 5)
        assert four_squares_to_quad2(FourSquareForm(1, 1, 0, 1)) == Quad2(0, 0, 0, 0)
        assert four_squares_to_quad2(FourSquareForm(71, 97, 128, 5)) == Quad2(18, 63, 24, 65)
        assert four_squares_to_quad2(FourSquareForm(1, 5, 1, 1)) == Quad2(0, 1, 1, 0)

    def test_forward_rejects_wrong_n(self):
        with pytest.raises(ValueError):
            quad2_to_four_squares(8, Quad2(0, 1, 1, 0))

    @pytest.mark.parametrize(
        "bad",
        [
            FourSquareForm(2, 1, 0, 1),  # u1 even
            FourSquareForm(5, 1, 0, 1),  # u1 = 1 mod 4 but not the wildcard
            FourSquareForm(3, 3, 0, 1),  # u2 = 3 mod 4
            FourSquareForm(3, 1, 1, 2),  # w even
            FourSquareForm(3, 1, 1, 5),  # w > 2a+1
            FourSquareForm(3, 1, -1, 1),
        ],
    )
    def test_inverse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            four_squares_to_quad2(bad)

    @given(
        a=st.integers(min_value=0, max_value=2000),
        b=st.integers(min_value=0, max_value=2000),
        c=st.integers(min_value=0, max_value=2000),
        d=st.integers(min_value=0, max_value=2000),
    )
    @settings(max_examples=300)
    def test_round_trip_is_exact(self, a, b, c, d):
        q = Quad2(a, b, c, d)
        n = eval_quad("thm2", q)
        f = quad2_to_four_squares(n, q)
        assert f.u1 * f.u1 + f.u2 * f.u2 + 4 * f.a * f.a + f.w * f.w == 4 * n + 3
        assert f.u1 == 1 or f.u1 % 4 == 3
        assert f.u2 % 4 == 1
        assert f.w % 2 == 1 and f.w <= 2 * f.a + 1
        assert four_squares_to_quad2(f) == q


class TestRepresent:
    def test_known_witnesses(self):
        assert represent_thm2(0) == Quad2(0, 0, 0, 0)
        assert represent_thm2(20002) == Quad2(18, 63, 24, 65)
        assert represent_thm2(20001) == Quad2(48, 19, 50, 6)

    def test_known_descent_witnesses(self):
        # 4n+3 divisible by 5, 13 and 61 forces the recursive branch
        assert represent_thm2(2973) == Quad2(1, 1, 22, 22)
        assert represent_thm2(6938) == Quad2(1, 21, 22, 45)

    def test_branch_accounting(self):
        reset_branch_counts()
        represent_thm2(0)
        represent_thm2(20002)
        represent_thm2(20001)
        represent_thm2(2973)
        counts = branch_counts()
        # the descent on 2973 recurses into a brute-sized input
        assert counts == {"brute": 2, "square": 1, "doubled": 1, "descent": 1}

    def test_dense_range_evaluates_back(self):
        for n in range(20000):
            assert eval_quad("thm2", represent_thm2(n)) == n

    def test_descent_chain_evaluates_back(self):
        # inputs built so that 4n+3 = 3965^k * small
        for k in (1, 2):
            for inner in range(3, 40, 4):
                v = inner * 3965**k
                if v % 4 == 3:
                    n = (v - 3) // 4
                    assert eval_quad("thm2", represent_thm2(n)) == n

    @given(st.integers(min_value=0, max_value=10**12))
    @settings(max_examples=200, deadline=None)
    def test_witnesses_evaluate_back(self, n):
        assert eval_quad("thm2", represent_thm2(n)) == n

    @given(st.integers(min_value=0, max_value=MAX_INPUT))
    @settings(max_examples=200, deadline=None)
    def test_witnesses_evaluate_back_on_the_whole_domain(self, n):
        assert eval_quad("thm2", represent_thm2(n)) == n

    def test_large_inputs_use_constructive_branches(self):
        reset_branch_counts()
        rng = random.Random(2)
        for _ in range(150):
            n = rng.randint(10**9, 10**12)
            assert eval_quad("thm2", represent_thm2(n)) == n
        counts = branch_counts()
        assert counts.get("brute", 0) == 0
        assert counts.get("square", 0) > 0
        assert counts.get("doubled", 0) > 0

    # the top of the domain, where 4n+3 passes 2^58: the first n past that
    # line and its neighbour below, the two largest inputs, and the largest
    # descent inputs (4n+3 divisible by 3965; MAX_INPUT-1 is one of them)
    @pytest.mark.parametrize(
        "n",
        [
            (2**58 - 3) // 4,
            (2**58 - 3) // 4 + 1,
            MAX_INPUT - 1,
            MAX_INPUT,
            MAX_INPUT - 1 - 3965,
        ],
    )
    def test_top_of_domain(self, n):
        assert eval_quad("thm2", represent_thm2(n)) == n

    def test_seeded_inputs_above_two_to_the_56(self):
        rng = random.Random(58)
        for _ in range(20):
            n = rng.randint(1 << 56, MAX_INPUT)
            assert eval_quad("thm2", represent_thm2(n)) == n

    def test_input_validation(self):
        with pytest.raises(ValueError):
            represent_thm2(-3)
        with pytest.raises(ValueError):
            represent_thm2(MAX_INPUT + 1)


class TestExhaustedOffsetScan:
    # with no offset candidates the scan runs dry for every big-enough input

    @pytest.fixture(autouse=True)
    def _no_offsets(self, monkeypatch):
        monkeypatch.setattr(theorem2, "_offset_candidates", lambda n, t, doubled: iter(()))

    def test_falls_back_to_brute_force_within_the_budget(self):
        reset_branch_counts()
        n = 10**6
        assert tuple(represent_thm2(n)) == brute_quad("thm2", n)
        assert branch_counts() == {"brute": 1}

    @pytest.mark.parametrize("n", [DEFAULT_BUDGET + 1, MAX_INPUT])
    def test_beyond_the_budget_raises(self, n):
        reset_branch_counts()
        with pytest.raises(ConstructionFailed):
            represent_thm2(n)
        assert branch_counts() == {}


def _selects(n):
    # the modulus t and peel shape for n, computed without theorem2: the first
    # t in (5, 13, 61) coprime to 4n+3, doubled when 4n+3 is no square mod t
    v = 4 * n + 3
    t = next((m for m in (5, 13, 61) if v % m), None)
    return t, t is not None and all((x * x - v) % t for x in range(t))


def _big_enough(n, t, doubled):
    # the peeling argument's size bound, written out once per shape
    t4 = t**4
    if doubled:
        return n > 12 * t4 and (n - 12 * t4) ** 2 > 128 * t4 * t4
    return n > 6 * t4 and (n - 6 * t4) ** 2 > 32 * t4 * t4


class TestOnePeelPath:
    # for each (t, doubled): the last n below the size bound and the first n
    # above it that pick that pair, with their witnesses
    @pytest.mark.parametrize(
        "t,doubled,below,above",
        [
            (5, False, (7284, (0, 26, 4, 54)), (7287, (29, 33, 1, 30))),
            (5, True, (14571, (0, 23, 1, 82)), (14575, (41, 19, 38, 26))),
            (13, False, (332923, (0, 74, 3, 401)), (332938, (181, 209, 104, 189))),
            (13, True, (665858, (0, 409, 0, 407)), (665863, (156, 48, 370, 89))),
            (61, False, (161398883, (0, 4304, 2, 7885)), (161399078, (1815, 6130, 198, 6038))),
            (61, True, (322797718, (0, 9361, 1, 8589)), (322797978, (3470, 961, 8258, 15))),
        ],
    )
    def test_size_bound_edges(self, t, doubled, below, above):
        (lo, lo_witness), (hi, hi_witness) = below, above
        assert _selects(lo) == _selects(hi) == (t, doubled)
        assert all(_selects(n) != (t, doubled) for n in range(lo + 1, hi))
        assert not _big_enough(lo, t, doubled) and _big_enough(hi, t, doubled)
        reset_branch_counts()
        assert represent_thm2(lo) == lo_witness
        assert branch_counts() == {"brute": 1}
        reset_branch_counts()
        assert represent_thm2(hi) == hi_witness
        assert branch_counts() == {"doubled" if doubled else "square": 1}

    @pytest.mark.parametrize(
        "n,t,doubled,witness",
        [
            (177868672028, 13, False, (745, 210861, 1728, 210867)),
            (131330312208, 13, True, (128789, 7223, 127339, 3055)),
            (570301855613, 61, False, (16174, 376568, 22849, 376537)),
            (236031553793, 61, True, (176381, 1701, 166895, 9192)),
        ],
    )
    def test_constructive_witnesses(self, n, t, doubled, witness):
        assert _selects(n) == (t, doubled)
        reset_branch_counts()
        assert represent_thm2(n) == witness
        assert eval_quad("thm2", witness) == n
        assert branch_counts() == {"doubled" if doubled else "square": 1}


class TestBudgetedSearch:
    def test_size_bounds(self):
        bounds = {(5, False): 7285, (5, True): 14571, (13, False): 332931,
                  (13, True): 665862, (61, False): 161398950, (61, True): 322797900}  # fmt: skip
        assert theorem2._SIZE_BOUND == bounds
        for (t, doubled), bound in bounds.items():
            for n in range(bound - 3, bound + 4):
                assert _big_enough(n, t, doubled) == (n > bound), (t, doubled, n)

    @pytest.mark.parametrize("n", [7284, 14571, 332923, 665858, 161398883, 322797718])
    def test_search_below_the_bound_has_a_budget(self, monkeypatch, n):
        # the last n below each (t, doubled) size bound, as in TestOnePeelPath
        budgets = []

        def spy(form, m, budget=DEFAULT_BUDGET):
            budgets.append(budget)
            return brute_quad(form, m, budget)

        monkeypatch.setattr(theorem2, "brute_quad", spy)
        witness = represent_thm2(n)
        assert eval_quad("thm2", witness) == n
        assert len(budgets) == 1 and budgets[0] is not None and budgets[0] >= n
