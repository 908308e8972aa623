import random
from functools import cache
from itertools import islice
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisum import theorem2
from trisum.core_arith import MAX_INPUT, ConstructionFailed, Quad2, eval_quad
from trisum.ternary import MODULI, rep_tt4t_mixed, rep_ttt_mixed
from trisum.theorem2 import (
    _CLASSES,
    FourSquareForm,
    branch_counts,
    four_squares_to_quad2,
    quad2_to_four_squares,
    represent_thm2,
    reset_branch_counts,
)
from trisum.verifier import DEFAULT_BUDGET, brute_quad


@cache
def _solutions(t, doubled):
    # one scan of every A0 mod t^2, grouped by the class of k*A0^2
    k, mod = (8 if doubled else 4), t * t
    by_class = {}
    for a in range(mod):
        by_class.setdefault(k * a * a % mod, set()).add(a)
    return by_class


def _classes(v, t, doubled):
    # the offset congruence solved from scratch: 4*A0^2 = v (8*A0^2 when
    # doubled) mod t^2
    return set(_solutions(t, doubled).get(v % (t * t), ()))


def _offset_candidates(n, t, doubled):
    # the offsets represent_thm2 tries, as the generator it used to call,
    # kept as the reference: every A in [0, start] in one of the classes, in
    # descending order; the classes come from the scan above, not from
    # theorem2's table, so a shape that does not fit 4n+3 has none, and the
    # square shape keeps n - A^2 even
    residues = sorted(_classes(4 * n + 3, t, doubled), reverse=True)
    if not residues:
        return  # rather than walk the multiples of the modulus for nothing
    start = isqrt(n // 2) if doubled else isqrt(n)
    mod = t * t
    for base in range(start - start % mod, -1, -mod):
        for r in residues:
            a = base + r
            if a <= start and (doubled or (a ^ n) & 1 == 0):
                yield a


class TestOffsets:
    def test_congruence_classes(self):
        # residues are stored in descending order, the order the scan takes
        assert _CLASSES[5][11] == (False, (22, 3))
        assert _CLASSES[5][7] == (True, (23, 2))
        assert _CLASSES[5][11][0] is False  # 11 is no doubled class

    def test_congruence_classes_satisfy_their_congruence(self):
        # every class sits under the residue of its own square, every A0 mod
        # t^2 coprime to t is listed and no multiple of t, and each class
        # descends: so each entry is exactly the congruence's solutions as a
        # descending scan of all A0 lists them (t never divides the 4n+3 a
        # multiple of t would serve)
        for t in MODULI:
            mod = t * t
            for doubled in (False, True):
                k = 8 if doubled else 4
                table = {v: classes for v, (shape, classes) in _CLASSES[t].items() if shape == doubled}
                for v, classes in table.items():
                    assert all(k * a0 * a0 % mod == v for a0 in classes), (v, t, doubled)
                    # the scan walks them as stored; the closed form builds
                    # each class, all coprime to t, from its two roots r and t^2 - r
                    assert all(a > b for a, b in zip(classes, classes[1:])), (v, t, doubled)
                    assert v % t and len(classes) == 2 and sum(classes) == mod, (v, t, doubled)
                listed = sorted(a0 for classes in table.values() for a0 in classes)
                assert listed == [a0 for a0 in range(mod) if a0 % t], (t, doubled)

    def test_the_class_fixes_the_shape(self):
        # t is 5 mod 8, so the two shapes' classes partition those coprime
        # to t: the table's keys are exactly these, each one's shape is
        # Euler's criterion on v mod t, and its residues are the two roots
        # of kA^2 = v in descending order
        for t in MODULI:
            mod = t * t
            table = _CLASSES[t]
            assert sorted(table) == [v for v in range(mod) if v % t], t
            for v, (doubled, residues) in table.items():
                assert doubled == (pow(v % t, (t - 1) // 2, t) == t - 1), (v, t)
                assert list(residues) == sorted(_classes(v, t, doubled), reverse=True), (v, t)
                assert len(residues) == 2, (v, t)

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
        assert _CLASSES[61][403][0] is True
        assert sorted(_CLASSES[61][403][1]) == [1803, 1918]
        assert list(_offset_candidates(100, 61, True)) == []


def _offset_of(n, doubled, m):
    # the offset A of a mixed rep's argument: m = (n - A^2)/2, or n - 2A^2
    # when doubled
    a = isqrt((n - m) // 2) if doubled else isqrt(n - 2 * m)
    assert (2 * a * a == n - m) if doubled else (a * a == n - 2 * m), (n, doubled, m)
    return a


class TestOffsetLoopTriesTheReferencePrefix:
    # inputs that take a later candidate (a seeded search below the size
    # bounds found none of the square shape), inputs whose offsets run dry,
    # and first-candidate inputs at t = 61; range(3000) adds first and dry
    # inputs of t = 5 and 13
    LATER = (1031, 67733, 336533, 42511868, 158528288)
    DRY = (190253, 505438, 1000008, 245423, 1065138, 11999438, 155829293)
    FIRST = (1252858, 1822193)

    def test_every_shape_and_modulus(self, monkeypatch):
        # represent_thm2 asks the mixed reps for exactly the reference's
        # candidates, in its order, up to the first whose split passes
        # (A > z), or for every one when none does
        asked = []

        def spied(rep, doubled):
            def spy(m, t):
                asked.append((doubled, m))
                return rep(m, t)

            return spy

        monkeypatch.setattr(theorem2, "rep_ttt_mixed", spied(rep_ttt_mixed, False))
        monkeypatch.setattr(theorem2, "rep_tt4t_mixed", spied(rep_tt4t_mixed, True))
        kinds, kind_of = {}, {}
        for n in (*range(3000), *self.LATER, *self.DRY, *self.FIRST):
            t, doubled = _selects(n)
            asked.clear()
            assert eval_quad("thm2", represent_thm2(n)) == n
            if t is None:
                continue  # the descent asks on behalf of its inner input
            assert all(shape == doubled for shape, _ in asked), n
            tried = [_offset_of(n, doubled, m) for _, m in asked]
            expected = []
            for a in _offset_candidates(n, t, doubled):
                expected.append(a)
                rep = rep_tt4t_mixed(n - 2 * a * a, t) if doubled else rep_ttt_mixed((n - a * a) // 2, t)
                if a > rep.z:
                    kind = "first" if len(expected) == 1 else "later"
                    break
            else:
                kind = "dry"
            assert tried == expected, n
            kinds.setdefault((t, doubled), set()).add(kind)
            kind_of[n] = kind
        assert all(kind_of[n] == "later" for n in self.LATER)
        assert all(kind_of[n] == "dry" for n in self.DRY)
        assert all(kind_of[n] == "first" for n in self.FIRST)
        for t in MODULI:
            assert kinds[t, False] == {"first", "dry"}, t
            assert kinds[t, True] == {"first", "later", "dry"}, t


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

    def test_branch_counts_lists_what_ran_and_is_a_copy(self):
        reset_branch_counts()
        assert branch_counts() == {}
        represent_thm2(20002)
        counts = branch_counts()
        assert counts == {"square": 1}
        # the result is the caller's: changing it leaves the tally alone
        counts["square"] = 99
        counts["brute"] = 5
        assert branch_counts() == {"square": 1}
        represent_thm2(20002)
        assert branch_counts() == {"square": 2}
        reset_branch_counts()
        assert branch_counts() == {}

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


def _spy_budgets(monkeypatch):
    # the budget of every brute_quad call theorem2 makes, in call order
    budgets = []

    def spy(form, m, budget=DEFAULT_BUDGET):
        budgets.append(budget)
        return brute_quad(form, m, budget)

    monkeypatch.setattr(theorem2, "brute_quad", spy)
    return budgets


class TestExhaustedOffsetScan:
    # with no offset candidates the scan runs dry for every input

    @pytest.fixture(autouse=True)
    def _no_offsets(self, monkeypatch):
        empty = {t: {v: (doubled, ()) for v, (doubled, _) in table.items()} for t, table in _CLASSES.items()}
        monkeypatch.setattr(theorem2, "_CLASSES", empty)

    def test_falls_back_to_brute_force_within_the_budget(self):
        # the budget is the size bound; these inputs lie at or below theirs
        for n in (0, 7284, 14571, 665858, 1000008):
            reset_branch_counts()
            assert tuple(represent_thm2(n)) == brute_quad("thm2", n)
            assert branch_counts() == {"brute": 1}

    @pytest.mark.parametrize("n", [10**6, DEFAULT_BUDGET + 1, MAX_INPUT])
    def test_beyond_the_budget_raises(self, monkeypatch, n):
        # above the size bound the search refuses the input before it starts
        budgets = _spy_budgets(monkeypatch)
        reset_branch_counts()
        with pytest.raises(ConstructionFailed):
            represent_thm2(n)
        assert branch_counts() == {}
        assert budgets and all(b is not None and b < n for b in budgets)


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
            (5, False, (7284, (29, 26, 16, 28)), (7287, (29, 33, 1, 30))),
            (5, True, (14571, (43, 19, 40, 6)), (14575, (41, 19, 38, 26))),
            (13, False, (332923, (82, 247, 103, 266)), (332938, (181, 209, 104, 189))),
            (13, True, (665858, (342, 62, 218, 16)), (665863, (156, 48, 370, 89))),
            (61, False, (161398883, (2901, 4075, 4051, 3800)), (161399078, (1815, 6130, 198, 6038))),
            (61, True, (322797718, (6145, 1144, 6175, 2882)), (322797978, (3470, 961, 8258, 15))),
        ],
    )
    def test_size_bound_edges(self, t, doubled, below, above):
        # both sides of the bound take the one peel path
        (lo, lo_witness), (hi, hi_witness) = below, above
        assert _selects(lo) == _selects(hi) == (t, doubled)
        assert all(_selects(n) != (t, doubled) for n in range(lo + 1, hi))
        assert not _big_enough(lo, t, doubled) and _big_enough(hi, t, doubled)
        reset_branch_counts()
        assert represent_thm2(lo) == lo_witness
        assert branch_counts() == {"doubled" if doubled else "square": 1}
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
            # below the t = 61 size bounds
            (32369918, 61, True, (1850, 2181, 1514, 15)),
            (143280003, 61, False, (961, 5817, 1113, 5786)),
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
        # a changed bound means re-running the thm2 sweep to the largest one (theorem2 docstring)
        bounds = {(5, False): 7285, (5, True): 14571, (13, False): 332931,
                  (13, True): 665862, (61, False): 161398950, (61, True): 322797900}  # fmt: skip
        assert theorem2._SIZE_BOUND == bounds
        for (t, doubled), bound in bounds.items():
            for n in range(bound - 3, bound + 4):
                assert _big_enough(n, t, doubled) == (n > bound), (t, doubled, n)

    def test_the_sweep_to_the_largest_bound_is_recorded(self):
        # the search's side of the proof is a sweep to the largest bound, run
        # by hand and recorded in README and the module docstring; a changed
        # bound fails here until that sweep is re-run and its record updated
        command = f"trisum verify --form thm2 --to {max(theorem2._SIZE_BOUND.values())} --full"
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        for text in (readme, theorem2.__doc__):
            assert command in " ".join(text.split())

    # inputs whose offsets run dry: two for each t, at or below their bound
    @pytest.mark.parametrize("n", [2369, 7631, 112343, 505438, 11999438, 155829293])
    def test_search_below_the_bound_has_a_budget(self, monkeypatch, n):
        budgets = _spy_budgets(monkeypatch)
        witness = represent_thm2(n)
        assert eval_quad("thm2", witness) == n
        assert budgets == [theorem2._SIZE_BOUND[_selects(n)]]
        assert budgets[0] >= n


class TestFirstCandidateAboveTheBound:
    # the size bound's argument: above it, every input that peels takes the
    # first offset candidate, so exactly one mixed representation is asked for
    @pytest.mark.parametrize("t,doubled", [(t, d) for t in MODULI for d in (False, True)])
    def test_one_mixed_rep_per_input(self, monkeypatch, t, doubled):
        calls = []

        def spied(rep):
            def spy(m, modulus):
                calls.append(m)
                return rep(m, modulus)

            return spy

        for name in ("rep_ttt_mixed", "rep_tt4t_mixed"):
            monkeypatch.setattr(theorem2, name, spied(getattr(theorem2, name)))
        bound = theorem2._SIZE_BOUND[t, doubled]
        rng = random.Random(t * 2 + doubled)
        for lo, hi in ((bound + 1, 10 * bound), (10**12, 2 * 10**12 - 1)):
            seen = 0
            while seen < 40:
                n = rng.randint(lo, hi)
                if _selects(n) != (t, doubled):
                    continue
                seen += 1
                calls.clear()
                assert eval_quad("thm2", represent_thm2(n)) == n
                assert len(calls) == 1, n
