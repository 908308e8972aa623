import importlib.util
import random
import re
from functools import cache
from itertools import islice
from math import isqrt, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisum import theorem2
from trisum.core_arith import MAX_INPUT, ConstructionFailed, Quad2, eval_quad
from trisum.ternary import MODULI, _tt4t_mixed, _ttt_mixed
from trisum.theorem2 import _class, branch_counts, represent_thm2, reset_branch_counts
from trisum.verifier import DEFAULT_BUDGET, brute_quad

ROOT = Path(__file__).resolve().parent.parent
PAPER_MODULI = MODULI[:3]  # the paper's 5, 13 and 61; the rest take what all three divide


def _load_evidence():
    spec = importlib.util.spec_from_file_location("evidence", ROOT / "tools" / "evidence.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _old_table(t):
    # the class table theorem2 built at import for the paper's moduli, kept
    # as the reference: each class v mod t^2 coprime to t maps to (doubled,
    # residues), from the roots a <= t^2/2 coprime to t
    mod = t * t
    return {k * a * a % mod: (k == 8, (mod - a, a)) for k in (4, 8) for a in range(1, mod // 2 + 1) if a % t}


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
        # residues come in descending order, the order the scan takes
        assert _class(5, 11) == (False, (22, 3))
        assert _class(5, 7) == (True, (23, 2))
        assert _class(5, 11)[0] is False  # 11 is no doubled class
        # 4A^2 = 1 mod 149^2 has the roots (149^2 +- 1)/2
        assert _class(149, 1) == (False, (11101, 11100))

    def test_congruence_classes_satisfy_their_congruence(self):
        # every class sits under the residue of its own square, every A0 mod
        # t^2 coprime to t is listed and no multiple of t, and each class
        # descends: so each entry is exactly the congruence's solutions as a
        # descending scan of all A0 lists them (t never divides the 4n+3 a
        # multiple of t would serve)
        for t in PAPER_MODULI:
            mod = t * t
            every = {v: _class(t, v) for v in range(mod) if v % t}
            for doubled in (False, True):
                k = 8 if doubled else 4
                table = {v: classes for v, (shape, classes) in every.items() if shape == doubled}
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
        # to t: the old table's keys are exactly these, the closed form
        # gives each the old table's entry, each one's shape is Euler's
        # criterion on v mod t, and its residues are the two roots of
        # kA^2 = v in descending order
        for t in PAPER_MODULI:
            mod = t * t
            table = _old_table(t)
            assert sorted(table) == [v for v in range(mod) if v % t], t
            assert table == {v: _class(t, v) for v in table}, t
            for v, (doubled, residues) in table.items():
                assert doubled == (pow(v % t, (t - 1) // 2, t) == t - 1), (v, t)
                assert list(residues) == sorted(_classes(v, t, doubled), reverse=True), (v, t)
                assert len(residues) == 2, (v, t)

    @pytest.mark.parametrize("t", MODULI[3:])
    def test_closed_form_past_the_paper_moduli(self, t):
        # seeded classes: the shape is Euler's criterion, and the two roots
        # of kA^2 = v mod t^2 descend and sum to t^2
        mod = t * t
        rng = random.Random(t)
        for _ in range(2000):
            v = rng.randrange(1, mod)
            if v % t == 0:
                continue
            doubled, (r1, r2) = _class(t, v)
            k = 8 if doubled else 4
            assert doubled == (pow(v, (t - 1) // 2, t) == t - 1), (v, t)
            assert k * r1 * r1 % mod == v and k * r2 * r2 % mod == v, (v, t)
            assert r1 > r2 and r1 + r2 == mod, (v, t)

    def test_a_class_is_computed_once_per_process(self, monkeypatch):
        # the first input of a class fills the memo; the next one reads it
        calls = []

        def spy(t, v):
            calls.append((t, v))
            return _class(t, v)

        monkeypatch.setattr(theorem2, "_CLASSES", {t: {} for t in MODULI})
        monkeypatch.setattr(theorem2, "_class", spy)
        represent_thm2(20002)
        represent_thm2(20002 + 25)  # 4n+3 moves by 100, so the class mod 25 stays
        assert calls == [(5, (4 * 20002 + 3) % 25)]
        assert theorem2._CLASSES[5] == {(4 * 20002 + 3) % 25: _class(5, (4 * 20002 + 3) % 25)}

    def test_congruence_takes_targets_above_the_input_bound(self):
        # v = 4n+3 exceeds MAX_INPUT for every n above (2^58-3)//4
        n = MAX_INPUT
        for t in PAPER_MODULI:
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
        assert _class(61, 403) == (True, (1918, 1803))
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

        monkeypatch.setattr(theorem2, "rep_ttt_mixed", spied(_ttt_mixed, False))
        monkeypatch.setattr(theorem2, "rep_tt4t_mixed", spied(_tt4t_mixed, True))
        kinds, kind_of = {}, {}
        for n in (*range(3000), *self.LATER, *self.DRY, *self.FIRST):
            t, doubled = _selects(n)
            asked.clear()
            assert eval_quad("thm2", represent_thm2(n)) == n
            assert all(shape == doubled for shape, _ in asked), n
            tried = [_offset_of(n, doubled, m) for _, m in asked]
            expected = []
            for a in _offset_candidates(n, t, doubled):
                expected.append(a)
                rep = _tt4t_mixed(n - 2 * a * a, t) if doubled else _ttt_mixed((n - a * a) // 2, t)
                if a > rep[2]:
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
        for t in PAPER_MODULI:
            assert kinds[t, False] == {"first", "dry"}, t
            assert kinds[t, True] == {"first", "later", "dry"}, t

    def test_every_mixed_call_meets_the_lemma(self, monkeypatch):
        # the mixed caches check nothing but divisibility, so the class
        # arithmetic must hand each one a modulus of MODULI and an m >= 0
        # with t^2 | 8m+2+k^2 (k = 1 for T+T+T, 2 for T+T+4T)
        asked = []

        def spied(rep, k):
            def spy(m, t):
                asked.append((m, t, k))
                return rep(m, t)

            return spy

        monkeypatch.setattr(theorem2, "rep_ttt_mixed", spied(_ttt_mixed, 1))
        monkeypatch.setattr(theorem2, "rep_tt4t_mixed", spied(_tt4t_mixed, 2))
        rng = random.Random(58)
        large = [rng.randint(10**6, MAX_INPUT) for _ in range(400)]
        # and 100 with 3965 | 4n+3, which pass the paper's moduli for 149 on
        large += [(3965 * (4 * rng.randint(252, MAX_INPUT // 3965) + 3) - 3) // 4 for _ in range(100)]
        for n in (*range(20001), *large):
            represent_thm2(n)
        for m, t, k in asked:
            assert t in MODULI and m >= 0 and (8 * m + 2 + k * k) % (t * t) == 0, (m, t, k)
        assert {k for _, _, k in asked} == {1, 2}
        assert {*PAPER_MODULI, 149} <= {t for _, t, _ in asked}


class TestRepresent:
    def test_known_witnesses(self):
        assert represent_thm2(0) == Quad2(0, 0, 0, 0)
        assert represent_thm2(20002) == Quad2(18, 63, 24, 65)
        assert represent_thm2(20001) == Quad2(48, 19, 50, 6)

    def test_known_descent_witnesses(self):
        # 4n+3 divisible by 5, 13 and 61: the paper's descent took these,
        # the construction takes t = 149, and here the offsets run dry
        assert represent_thm2(2973) == Quad2(0, 13, 2, 36)
        assert represent_thm2(6938) == Quad2(0, 25, 3, 53)

    def test_branch_accounting(self):
        reset_branch_counts()
        represent_thm2(0)
        represent_thm2(20002)
        represent_thm2(20001)
        represent_thm2(2973)
        counts = branch_counts()
        # 2973, which the paper's descent took, is dry at t = 149
        assert counts == {"brute": 2, "square": 1, "doubled": 1}

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
        # inputs built so that 4n+3 = 3965^k * small, the paper's descent
        # chains; the construction takes t = 149 or 157 on each
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
    # inputs all three paper moduli divide (4n+3 divisible by 3965;
    # MAX_INPUT-1 is one of them)
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
        monkeypatch.setattr(theorem2, "_CLASSES", {t: {} for t in MODULI})
        monkeypatch.setattr(theorem2, "_class", lambda t, v: (_class(t, v)[0], ()))

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
    # the modulus t and peel shape for n, computed without theorem2: the
    # first t in MODULI coprime to 4n+3, doubled when 4n+3 is no square mod t
    v = 4 * n + 3
    t = next(m for m in (5, 13, 61, 149, 157, 181, 269, 317, 389, 421) if v % m)
    return t, all((x * x - v) % t for x in range(t))


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
            # above the bounds of the moduli past 61, which the paper's
            # descent served
            (145493979434163, 149, False, (92157, 6030234, 41619, 6030159)),
            (250153272482408, 149, True, (5585152, 268770, 5585226, 476502)),
            (336987788279723, 157, False, (6241, 9177248, 151230, 9177483)),
            (383314316347218, 157, True, (6740709, 351013, 7094351, 39)),
            (227519327394173, 181, False, (397069, 7519880, 420689, 7519427)),
            (59276256860063, 181, True, (2800096, 2691, 2641630, 25060)),
            (279588773059293, 269, False, (567254, 8333760, 353533, 8333625)),
            (191819345419633, 269, True, (4796402, 202, 4974614, 636521)),
            (135417528480022278, 317, False, (3043438, 183969949, 178233, 183970741)),
            (100526427705932848, 317, True, (112081635, 3404658, 112082110, 1495856)),
            (69790104657984018, 389, False, (2934789, 131960415, 5023324, 131961387)),
            (283097296330591583, 389, True, (188200100, 4381599, 188003849, 486)),
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
        # a changed bound means re-running the evidence for it (theorem2 docstring)
        bounds = {(5, False): 7285, (5, True): 14571, (13, False): 332931,
                  (13, True): 665862, (61, False): 161398950, (61, True): 322797900,
                  (149, False): 5745481624, (149, True): 11490963248,
                  (157, False): 7082392249, (157, True): 14164784499,
                  (181, False): 12511104909, (181, True): 25022209819,
                  (269, False): 61036621473, (269, True): 122073242947,
                  (317, False): 117711370239, (317, True): 235422740478,
                  (389, False): 266919173641, (389, True): 533838347282,
                  (421, False): 366192756687, (421, True): 732385513375}  # fmt: skip
        assert theorem2._SIZE_BOUND == bounds
        for (t, doubled), bound in bounds.items():
            for n in range(bound - 3, bound + 4):
                assert _big_enough(n, t, doubled) == (n > bound), (t, doubled, n)

    def test_the_sweep_to_the_largest_bound_is_recorded(self):
        # the search's side of the proof, recorded in README and the module
        # docstring; a changed bound fails here until the evidence for it is
        # re-run and its record updated.  Three parts: for the paper's moduli
        # a sweep to their largest bound, run by hand; for the moduli past
        # them that an input reaches at or below its bound, the evidence
        # tool's enumeration, with both bounds of each t; and for the rest,
        # the product of the smaller moduli, which no input at or below the
        # bound reaches
        bound = theorem2._SIZE_BOUND
        command = f"trisum verify --form thm2 --to {max(bound[t, d] for t in PAPER_MODULI for d in (False, True))} --full"
        reached = [t for i, t in enumerate(MODULI) if i >= 3 and prod(MODULI[:i]) <= 4 * bound[t, True] + 3]
        assert reached == [149, 157, 181, 269]
        lines = [rf"t = {t}: \d+ inputs, bounds {bound[t, False]} and {bound[t, True]}, 0 failures" for t in reached]
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        for text in (readme, theorem2.__doc__):
            flat = " ".join(text.split())
            assert command in flat
            assert "python3 tools/evidence.py" in flat
            assert all(re.search(line, flat) for line in lines)
        for i, t in enumerate(MODULI):
            if t >= 317:
                assert prod(MODULI[:i]) > 4 * bound[t, True] + 3, t

    def test_the_evidence_enumeration_past_149(self):
        # the evidence tool's generator for every t past 149 that an input
        # reaches at or below its bound, run in full (t = 149's 2.9 million
        # inputs are recorded instead): every input takes t, lies at or
        # below its shape's bound and gets a valid witness, and none is missed
        evidence = _load_evidence()
        assert evidence.reached() == [149, 157, 181, 269]
        for t, expected in ((157, 17870), (181, 199), (269, 6)):
            got = list(evidence.inputs(t))
            assert got == sorted(set(got)), t
            for n in got:
                assert _selects(n)[0] == t and n <= theorem2._SIZE_BOUND[_selects(n)], (t, n)
            assert evidence.check(t) == (expected, []), t
        # the generator's arithmetic against a plain filter on a smaller modulus
        top = theorem2._SIZE_BOUND[13, True]
        plain = [n for n in range(3, top + 1, 5) if _selects(n)[0] == 13 and n <= theorem2._SIZE_BOUND[_selects(n)]]
        assert list(evidence.inputs(13)) == plain

    # inputs whose offsets run dry: two for each t up to 149, at or below
    # their bound; each t's first is searched with the pair table and
    # 149's second above it, through the two-square splits
    @pytest.mark.parametrize("n", [2369, 7631, 112343, 505438, 11999438, 155829293, 2973, 1049733])
    def test_search_below_the_bound_has_a_budget(self, monkeypatch, n):
        budgets = _spy_budgets(monkeypatch)
        witness = represent_thm2(n)
        assert eval_quad("thm2", witness) == n
        assert budgets == [theorem2._SIZE_BOUND[_selects(n)]]
        assert budgets[0] >= n

    def test_a_search_that_finds_nothing_raises(self, monkeypatch):
        # a dry input whose budgeted search returns no witness is a typed error
        monkeypatch.setattr(theorem2, "brute_quad", lambda form, n, budget=None: None)
        reset_branch_counts()
        with pytest.raises(ConstructionFailed):
            represent_thm2(2369)
        assert branch_counts() == {}


class TestFirstCandidateAboveTheBound:
    # the size bound's argument: above it, every input that peels takes the
    # first offset candidate, so exactly one mixed representation is asked for

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def spied(rep):
            def spy(m, modulus):
                calls.append(m)
                return rep(m, modulus)

            return spy

        for name in ("rep_ttt_mixed", "rep_tt4t_mixed"):
            monkeypatch.setattr(theorem2, name, spied(getattr(theorem2, name)))
        return calls

    @pytest.mark.parametrize("t,doubled", [(t, d) for t in PAPER_MODULI for d in (False, True)])
    def test_one_mixed_rep_per_input(self, calls, t, doubled):
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

    def test_no_input_reaches_421(self):
        # 4n+3 would be a multiple of the other nine moduli's product, which
        # is 1 mod 4, so at least 3 times it: past 4 * MAX_INPUT + 3
        step = prod(MODULI[:-1])
        assert MODULI[-1] == 421 and step % 4 == 1 and 3 * step > 4 * MAX_INPUT + 3

    @pytest.mark.parametrize("t", MODULI[3:-1])
    def test_one_mixed_rep_per_input_past_the_paper_moduli(self, calls, t):
        # seeded inputs above both bounds built as 4n+3 = step * j, with step
        # the product of the smaller moduli
        step = prod(MODULI[: MODULI.index(t)])
        lo, hi = (4 * theorem2._SIZE_BOUND[t, True] + 3) // step + 1, (4 * MAX_INPUT + 3) // step
        rng = random.Random(t)
        shapes = {False: 0, True: 0}
        while min(shapes.values()) < 20:
            v = step * rng.randint(lo, hi)
            if v % 4 != 3 or v % t == 0:
                continue
            n = (v - 3) // 4
            assert _selects(n)[0] == t
            shapes[_selects(n)[1]] += 1
            calls.clear()
            assert eval_quad("thm2", represent_thm2(n)) == n
            assert len(calls) == 1, n
