import itertools
import os
import random
import re
import subprocess
import sys
from math import isqrt
from pathlib import Path
from types import SimpleNamespace

import pytest

from trisum import verifier
from trisum.core_arith import MAX_INPUT, eval_quad
from trisum.verifier import (
    FORMS,
    BudgetExceeded,
    RangeReport,
    brute_quad,
    verify_range,
)

from oracles import unreached

# each form's slot values in its documented search order, and where each
# searched index goes in the witness (thm2 searches a, c, b, d)
_SEARCH_ORDER = {
    "thm1": ((lambda a: a * (2 * a - 1), lambda b: b * (2 * b - 1),
              lambda c: c * (2 * c + 1), lambda d: d * (2 * d + 1)), (0, 1, 2, 3)),
    "thm2": ((lambda a: 2 * a * (2 * a - 1), lambda c: 2 * c * (2 * c + 1),
              lambda b: b * (2 * b - 1), lambda d: d * (2 * d + 1)), (0, 2, 1, 3)),
    "conj_a": ((lambda a: a * (2 * a - 1), lambda b: b * (2 * b - 1),
                lambda c: c * (2 * c + 1)), (0, 1, 2)),
    "conj_b": ((lambda a: a * (2 * a - 1), lambda b: b * (2 * b + 1),
                lambda c: c * (2 * c + 1)), (0, 1, 2)),
}  # fmt: skip


def _first_witnesses(form: str, hi: int) -> dict[int, tuple[int, ...]]:
    # itertools.product walks the indices in lexicographic order, so the
    # first tuple met for a sum is that sum's first witness
    if form == "conjecture":
        return {**_first_witnesses("conj_b", hi), **_first_witnesses("conj_a", hi)}
    values, place = _SEARCH_ORDER[form]
    tables = [[value(k) for k in range(isqrt(hi) + 2)] for value in values]  # k^2 <= value(k)
    first: dict[int, tuple[int, ...]] = {}
    for idx in itertools.product(range(isqrt(hi) + 2), repeat=len(values)):
        total = sum(table[k] for table, k in zip(tables, idx))
        if total <= hi:
            first.setdefault(total, tuple(idx[i] for i in place))
    return first


# exceptions of the partial forms on [0, 10^6]; none lies above 3530
CONJ_A_TO_1E6 = (
    8, 13, 14, 20, 35, 41, 47, 58, 68, 74, 86, 110, 125, 188, 248, 275,
    278, 288, 305, 308, 338, 348, 539, 548, 720, 890, 953, 1100, 2495, 2714, 2753, 3530,
)  # fmt: skip
CONJ_B_TO_1E6 = (
    2, 5, 8, 17, 23, 29, 33, 44, 50, 53, 60, 62, 68, 75, 95, 98, 107, 113, 118, 128,
    135, 168, 170, 194, 204, 233, 239, 243, 260, 285, 320, 368, 419, 473, 530, 560,
    563, 593, 638, 815, 870, 1070, 1268, 1295, 1328, 1418, 1463, 1658, 2390, 3230,
)  # fmt: skip


def _index_of(kind: str, r: int):
    # T(m) = r exactly when 8r+1 = (2m+1)^2; an odd kind takes m = 2k-1
    # (m = -1 for r = 0), an even kind m = 2k
    s = 8 * r + 1
    root = isqrt(s)
    if root * root != s:
        return None
    k, even = divmod((root + 1) >> 1, 2)
    return (k,) if even == (kind == "even") or not r else None


def _scan_search(kinds: tuple[str, ...], n: int, i: int = 0):
    # an O(sqrt n) scan, a reference independent of table and splits: every
    # value of the slots before the last in order, the last slot resolved by
    # an exact square root
    j = 0
    for v in verifier._values(kinds[i]):
        if v > n:
            return None
        found = _index_of(kinds[-1], n - v) if i == len(kinds) - 2 else _scan_search(kinds, n - v, i + 1)
        if found is not None:
            return (j, *found)
        j += 1


@pytest.mark.parametrize("form", FORMS)
def test_oracle_agrees_with_product_enumeration(form):
    # the shift-or oracle against the itertools.product walk, which shares
    # no code with it (conjecture is the union of conj_a and conj_b in both)
    first = _first_witnesses(form, 300)
    assert unreached(form, 300) == tuple(n for n in range(301) if n not in first)


class TestBruteQuad:
    def test_known_witnesses(self):
        assert brute_quad("thm1", 8) == (1, 1, 1, 1)
        assert brute_quad("thm2", 0) == (0, 0, 0, 0)
        assert brute_quad("thm2", 1) == (0, 1, 0, 0)
        assert brute_quad("thm2", 3) == (0, 0, 0, 1)

    def test_conjecture_misses_eight_and_sixty_eight(self):
        assert brute_quad("conjecture", 8) is None
        assert brute_quad("conjecture", 68) is None
        assert brute_quad("conj_a", 8) is None
        assert brute_quad("conj_b", 8) is None

    @pytest.mark.parametrize("form", FORMS)
    def test_agrees_with_reference_enumeration(self, form):
        missing = unreached(form, 400)
        for n in range(401):
            witness = brute_quad(form, n)
            if n not in missing:
                assert witness is not None, (form, n)
                if form in ("thm1", "thm2"):
                    assert eval_quad(form, witness) == n
            else:
                assert witness is None, (form, n)

    def test_conj_witnesses_evaluate(self):
        # three-slot forms have no eval_quad helper; check by hand
        a, b, c = brute_quad("conj_a", 100)
        assert a * (2 * a - 1) + b * (2 * b - 1) + c * (2 * c + 1) == 100
        a, b, c = brute_quad("conj_b", 100)
        assert a * (2 * a - 1) + b * (2 * b + 1) + c * (2 * c + 1) == 100

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            brute_quad("thm1", 10**8 + 1)
        assert brute_quad("thm1", 301, budget=None) is not None
        assert brute_quad("thm1", 301, budget=301) is not None

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            brute_quad("thm9", 5)

    @pytest.mark.parametrize("form", FORMS)
    def test_first_witness_in_search_order(self, form):
        first = _first_witnesses(form, 300)
        for n in range(301):
            assert brute_quad(form, n) == first.get(n), (form, n)

    def test_doubled_form_above_the_pair_table(self):
        # above 2^20 the last two slots come from the two-square splits, in
        # the same a, c, b, d order as below (n drawn with random.Random(2020)
        # from (2^20, 10^7])
        pinned = {
            2**20 + 1: (0, 146, 2, 709),
            3976601: (0, 393, 5, 1354),
            8472195: (0, 110, 0, 2055),
            8783105: (0, 38, 5, 2095),
        }
        for n, witness in pinned.items():
            assert brute_quad("thm2", n) == witness
            assert eval_quad("thm2", witness) == n

    def test_forms_sharing_a_pair_table_interleave(self, monkeypatch):
        # thm2 and conj_a end in odd + even, thm1 and conj_b in even + even;
        # a table grown by one form must give the other the same witnesses
        first = {form: _first_witnesses(form, 300) for form in ("thm1", "thm2", "conj_a", "conj_b")}
        monkeypatch.setattr(verifier, "_pairs", {})
        large = {(f, n): brute_quad(f, n) for f, n in (("thm2", 100001), ("conj_b", 70001))}
        for n in range(300, -1, -1):
            for form in ("conj_a", "thm1", "thm2", "conj_b"):
                assert brute_quad(form, n) == first[form].get(n), (form, n)
        monkeypatch.setattr(verifier, "_pairs", {})
        for n in range(301):
            for form in ("thm2", "conj_b", "conj_a", "thm1"):
                assert brute_quad(form, n) == first[form].get(n), (form, n)
        assert {(f, n): brute_quad(f, n) for f, n in large} == large

    @pytest.mark.parametrize("kind", ["odd", "even"])
    def test_last_slot_inverse(self, kind):
        # T(m) = r takes the root 2m+1 = isqrt(8r+1); every such r up to 5000
        # is a value of exactly one kind, or of both at 0
        values = verifier._slot_values(kind, 5000)
        for r in range(5001):
            root = isqrt(8 * r + 1)
            if root * root == 8 * r + 1:
                expected = values.index(r) if r in values else None
                assert verifier._slot_index(kind, root) == expected, (kind, r)

    def test_every_form_ends_in_an_undoubled_pair(self):
        # the leaf resolves the last two slots from the splits of 8m+2, which
        # holds only for odd and even slots
        for kinds, _ in verifier._BRUTE_FORMS.values():
            assert len(kinds) >= 3 and set(kinds[-2:]) <= {"odd", "even"}, kinds

    def test_doubled_form_table_growth(self):
        # exercise the cached pair table across a growing range
        for n in (5, 2000, 40000, 6000):
            witness = brute_quad("thm2", n)
            assert eval_quad("thm2", witness) == n

    @pytest.mark.parametrize("part", sorted(verifier._BRUTE_FORMS))
    def test_table_path_equals_scan_path(self, part):
        # three independent ways to the last two slots: the pair table, the
        # two-square splits brute_quad takes above 2^20, and the scan
        kinds = verifier._BRUTE_FORMS[part][0]
        table = verifier._pair_table(kinds[-2:], 1 << 20)
        rng = random.Random(1515)
        inputs = [*range(3001), *(rng.randint(3001, (1 << 20) - 1) for _ in range(100)), 1 << 20]
        missing = 0
        for n in inputs:
            found = _scan_search(kinds, n)
            missing += found is None
            assert verifier._search(kinds, n, table) == verifier._search(kinds, n, None) == found, (part, n)
        # the three-slot forms have exceptions below 3001, and all agree on them
        assert missing > 0 if len(kinds) == 3 else missing == 0, part
        for n in (rng.randint((1 << 20) + 1, 10**7) for _ in range(20)):
            assert verifier._search(kinds, n, None) == _scan_search(kinds, n), (part, n)

    def test_top_of_the_domain_without_a_budget(self):
        # an O(sqrt n) scan would not finish here; every witness evaluates
        # back (conjecture's is conj_a's when there is one)
        rng = random.Random(58)
        for n in (MAX_INPUT, *(rng.randint(1 << 56, MAX_INPUT) for _ in range(3))):
            found = {form: brute_quad(form, n, budget=None) for form in FORMS}
            assert eval_quad("thm1", found["thm1"]) == n
            assert eval_quad("thm2", found["thm2"]) == n
            a, b, c = found["conj_a"]
            assert a * (2 * a - 1) + b * (2 * b - 1) + c * (2 * c + 1) == n
            a, b, c = found["conj_b"]
            assert a * (2 * a - 1) + b * (2 * b + 1) + c * (2 * c + 1) == n
            assert found["conjecture"] == found["conj_a"]

    @pytest.mark.parametrize("kinds", [("odd", "even"), ("even", "even")])
    def test_table_grown_in_steps_equals_one_build(self, monkeypatch, kinds):
        # every growth builds the whole table to its new limit: the largest of
        # n, four times the old limit and 1024; each table the steps leave,
        # and one built directly, holds the first pair of every sum
        monkeypatch.setattr(verifier, "_pairs", {})
        tables = [verifier._pair_table(kinds, n) for n in (5, 1024, 1025, 2000, 40000, 1 << 17)]
        assert [len(table) - 1 for table in tables] == [1024, 1024, 4096, 4096, 40000, 160000]
        monkeypatch.setattr(verifier, "_pairs", {})
        once = verifier._pair_table(kinds, 1 << 17)
        assert verifier._pairs[kinds] is once and len(once) == (1 << 17) + 1
        value = {"odd": lambda k: k * (2 * k - 1), "even": lambda k: k * (2 * k + 1)}
        for table in (*tables, once):
            limit = len(table) - 1
            assert table.itemsize <= 4
            # every entry against the first pair met in lexicographic order
            first, last = ([value[kind](k) for k in range(isqrt(limit) + 1)] for kind in kinds)
            expected = [-1] * (limit + 1)
            for (j, u), (k, v) in itertools.product(enumerate(first), enumerate(last)):
                if u + v <= limit and expected[u + v] < 0:
                    expected[u + v] = j << 16 | k
            assert table.tolist() == expected, limit

    def test_slot_values_are_built_once_to_the_table_bound(self, monkeypatch):
        # every kind's values up to _PAIR_MAX exist from import on, and
        # building both pair tables to that bound leaves them as they are
        kinds = ("odd", "even", "odd2", "even2")
        assert sorted(verifier._SMALL_VALUES) == sorted(kinds)
        for kind in kinds:
            assert verifier._SMALL_VALUES[kind] == verifier._slot_values(kind, verifier._PAIR_MAX), kind
        before = {kind: list(values) for kind, values in verifier._SMALL_VALUES.items()}
        monkeypatch.setattr(verifier, "_pairs", {})
        for pair in (("odd", "even"), ("even", "even")):
            assert len(verifier._pair_table(pair, verifier._PAIR_MAX)) == verifier._PAIR_MAX + 1
        assert verifier._SMALL_VALUES == before

    def test_first_table_use_memory_in_a_fresh_process(self):
        # one brute-branch call that builds the odd + even table to 1000008
        grown = _peak_growth_kb("from trisum.theorem2 import represent_thm2", "represent_thm2(1000008)")
        assert grown < 16 * 1024

    def test_both_tables_memory_in_a_fresh_process(self):
        # 8 MB of tables to 2^20, each built whole in one step from a cold
        # start, so the peak stays near them
        calls = "_pair_table(('odd', 'even'), 1 << 20); _pair_table(('even', 'even'), 1 << 20)"
        assert _peak_growth_kb("from trisum.verifier import _pair_table", calls) < 10 * 1024


def _peak_growth_kb(setup: str, calls: str) -> int:
    # growth of a fresh process's peak resident set (VmHWM, which unlike
    # ru_maxrss does not carry the parent's peak) over `calls`, after `setup`
    if not Path("/proc/self/status").exists():
        pytest.skip("no /proc/self/status")
    return _fresh_process_kb(
        f"{setup}\n"
        "def hwm():\n"
        "    return next(int(line.split()[1]) for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
        "base = hwm()\n"
        f"{calls}\n"
        "print(hwm() - base)\n"
    )


def _traced_peak_kb(setup: str, calls: str) -> int:
    # the peak of the memory Python allocates during `calls` in a fresh
    # process, after `setup`; unlike VmHWM it does not move with whether
    # the imports compiled their modules or read cached bytecode
    return _fresh_process_kb(
        f"{setup}\n"
        "import tracemalloc\n"
        "tracemalloc.start()\n"
        f"{calls}\n"
        "print(tracemalloc.get_traced_memory()[1] // 1024)\n"
    )


def _fresh_process_kb(code: str) -> int:
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return int(done.stdout)


def _top_level_searches(monkeypatch) -> list[int]:
    # the n of every top-level verifier._search call; its recursion passes
    # the slot index i > 0
    searched: list[int] = []
    search = verifier._search

    def spy(kinds, n, pairs, i=0):
        if i == 0:
            searched.append(n)
        return search(kinds, n, pairs, i)

    monkeypatch.setattr(verifier, "_search", spy)
    return searched


def _sweep_holes(first: list[int], second: list[int], last: list[int], hi: int, stride: int) -> list[int]:
    # a big-int oracle of the sweep's bitmap: `first` shifted by the
    # second slot's first _FULL_PREFIX values up to hi and every stride-th
    # one after them, then by every sum in `last`; the n in [0, hi] it misses
    prefix = verifier._FULL_PREFIX
    second = [v for v in second if v <= hi]
    first_bits = sum(1 << v for v in first if v <= hi)
    full = 0
    for v in second[:prefix] + second[prefix::stride]:
        full |= first_bits << v
    reached = 0
    for v in last:
        reached |= full << v
    text = format(reached & ((1 << hi + 1) - 1), f"0{hi + 1}b")[::-1]
    return [m.start() for m in re.finditer("0", text)]


# the full stage's stride past _FULL_PREFIX for each form
_STRIDES = {"thm1": 2, "thm2": 2, "conj_a": 2, "conj_b": 2, "conjecture": 4}


class _ReadStage(dict):
    """A sweep stage that notes the class of every `get`."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.read: list[int] = []

    def get(self, key, default=None):
        self.read.append(key)
        return super().get(key, default)


class TestVerifyRange:
    def test_conjecture_exceptions(self):
        report = verify_range("conjecture", 0, 10000)
        assert report.exceptions == (8, 68)
        assert report.form == "conjecture"
        assert (report.lo, report.hi) == (0, 10000)
        assert report.elapsed_ms >= 0.0

    @pytest.mark.parametrize("form", FORMS)
    def test_elapsed_time_is_the_sum_of_the_stages(self, form):
        # one clock: the stages run back to back from the sweep's start
        report = verify_range(form, 0, 10000)
        assert report.elapsed_ms == sum(ms for _, ms in report.stages)

    def test_quadruple_forms_have_no_exceptions(self):
        assert verify_range("thm1", 0, 10000).exceptions == ()
        assert verify_range("thm2", 0, 10000).exceptions == ()

    @pytest.mark.parametrize("form", FORMS)
    def test_agrees_with_reference_enumeration(self, form):
        assert verify_range(form, 0, 400).exceptions == unreached(form, 400)

    def test_sub_ranges(self):
        assert verify_range("conjecture", 9, 67).exceptions == ()
        assert verify_range("conjecture", 8, 68).exceptions == (8, 68)
        assert verify_range("conjecture", 68, 68).exceptions == (68,)

    def test_sweep_is_deterministic(self):
        base = verify_range("conj_a", 0, 30000)
        assert verify_range("conj_a", 0, 30000).exceptions == base.exceptions
        assert base.exceptions == CONJ_A_TO_1E6

    def test_triple_forms_to_one_million(self):
        # past the last slot's first shifts, conj_a leaves 37 holes of which
        # 32 are exceptions and conj_b 56 of which 50; the rest are resolved
        assert verify_range("conj_a", 0, 10**6).exceptions == CONJ_A_TO_1E6
        assert verify_range("conj_b", 0, 10**6).exceptions == CONJ_B_TO_1E6
        assert verify_range("conjecture", 0, 10**6).exceptions == (8, 68)

    @pytest.mark.parametrize("shifts", [0, 1, 5, 64, 10**6])
    def test_last_stage_shift_count_changes_nothing(self, monkeypatch, shifts):
        # few shifts leave many holes for the lookup to resolve; at least as
        # many shifts as slot values leave only the exceptions
        monkeypatch.setattr(verifier, "_LAST_SHIFTS", shifts)
        for form in FORMS:
            for lo, hi in ((0, 0), (0, 7), (0, 400), (150, 400), (400, 400)):
                expected = tuple(n for n in unreached(form, hi) if n >= lo)
                assert verify_range(form, lo, hi).exceptions == expected, (form, lo, hi)
        assert verify_range("conj_a", 0, 20000).exceptions == CONJ_A_TO_1E6
        assert verify_range("conj_b", 2000, 20000).exceptions == tuple(
            n for n in CONJ_B_TO_1E6 if n >= 2000
        )

    def test_cap_and_override(self, monkeypatch):
        monkeypatch.setattr(verifier, "DEFAULT_CAP", 1000)
        with pytest.raises(BudgetExceeded):
            verify_range("thm1", 0, 5000)
        report = verify_range("thm1", 0, 5000, full=True)
        assert report.exceptions == ()

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_range("thm9", 0, 10)
        with pytest.raises(ValueError):
            verify_range("thm1", 10, 5)
        with pytest.raises(ValueError):
            verify_range("thm1", -1, 5)

    def test_random_windows_match_per_input_search(self):
        rng = random.Random(9)
        for _ in range(10):
            lo = rng.randint(0, 5000)
            hi = lo + rng.randint(0, 500)
            form = rng.choice(FORMS)
            report = verify_range(form, lo, hi)
            missing = tuple(n for n in range(lo, hi + 1) if brute_quad(form, n) is None)
            assert report.exceptions == missing, (form, lo, hi)

    @pytest.mark.parametrize("form", FORMS)
    def test_seeded_windows_match_reference_enumeration(self, form):
        # the full stage keeps every second-slot value up to 3003 at least,
        # and the partial stage ORs in the 112 smallest sums of the later
        # slots: past 2000 for the one odd or even slot of the conjecture,
        # conj_a and conj_b, so below 2000 their holes are the exceptions;
        # thm1's and thm2's two slots reach only 528 and 443, so their
        # windows also leave holes that the search settles
        rng = random.Random(form)
        for _ in range(6):
            hi = rng.choice((rng.randint(0, 60), rng.randint(0, 2000)))
            lo = rng.randint(0, hi)
            expected = tuple(n for n in unreached(form, hi) if n >= lo)
            assert verify_range(form, lo, hi).exceptions == expected, (form, lo, hi)
        for _ in range(4):
            lo = rng.randint(10000, 60000)
            hi = lo + rng.randint(0, 1000)
            missing = tuple(n for n in range(lo, hi + 1) if brute_quad(form, n) is None)
            assert verify_range(form, lo, hi).exceptions == missing, (form, lo, hi)

    def test_report_is_a_named_tuple(self):
        report = verify_range("thm1", 0, 10)
        assert isinstance(report, RangeReport)
        assert report._fields == ("form", "lo", "hi", "exceptions", "elapsed_ms", "stages", "holes")

    @pytest.mark.parametrize("form", FORMS)
    def test_one_full_stage_per_form(self, form):
        # slots 0 + 1 form the only full stage, the later slots together one
        # partial stage
        kinds = verifier._SLOT_KINDS[form]
        stages = verify_range(form, 0, 5000).stages
        names = [name for name, _ in stages]
        assert names == [f"full {kinds[0]}+{kinds[1]}", f"partial {'+'.join(kinds[2:])}", "lookup"]
        assert all(isinstance(ms, float) and ms >= 0.0 for _, ms in stages)

    @pytest.mark.parametrize("form", FORMS)
    def test_every_window_up_to_forty(self, form):
        # hi and lo pick which bits of each class are reported; with hi < 45
        # every class holds one bit, and a class above hi holds only a value
        # that must not be reported; check every window with hi <= 40
        for hi in range(41):
            missing = unreached(form, hi)
            for lo in range(hi + 1):
                expected = tuple(n for n in missing if n >= lo)
                assert verify_range(form, lo, hi).exceptions == expected, (form, lo, hi)

    @pytest.mark.parametrize("form", FORMS)
    def test_byte_edges_next_to_slot_values(self, form):
        # hi = 8k - 1, 8k and 8k + 1 for the multiple 8k nearest each slot
        # value up to 240: a slot value lands just below, on or just above
        # hi, and so at the low or high end of its class's bits (bit i of
        # class r stands for r + M*(hi // M - i)); test_class_edges moves
        # hi // M across a byte edge
        kinds = set(verifier._SLOT_KINDS[form])
        near = {8 * round(v / 8) for kind in kinds for v in verifier._slot_values(kind, 240) if v >= 8}
        for hi in sorted(k + e for k in near for e in (-1, 0, 1)):
            missing = unreached(form, hi)
            for lo in range(hi + 1):
                expected = tuple(n for n in missing if n >= lo)
                assert verify_range(form, lo, hi).exceptions == expected, (form, lo, hi)

    @pytest.mark.parametrize("form", FORMS)
    def test_class_edges(self, form):
        # hi = kM - 1, kM and kM + 1, so hi // M takes 0, 1 and 6..9 and the
        # class bitmaps grow past their first byte at 8; the values in
        # (hi, M*(hi // M) + M - 1] are swept but must never be reported
        m = verifier._MODULUS
        for k in (1, 7, 8, 9):
            for hi in (k * m - 1, k * m, k * m + 1):
                missing = unreached(form, hi)
                for lo in range(hi + 1):
                    expected = tuple(n for n in missing if n >= lo)
                    assert verify_range(form, lo, hi).exceptions == expected, (form, lo, hi)

    @pytest.mark.parametrize("modulus", [1, 2, 9, 45, 315])
    def test_class_count_changes_nothing(self, monkeypatch, modulus):
        # one class is a single backwards bitmap; every modulus sweeps the
        # same sumset, only split differently
        monkeypatch.setattr(verifier, "_MODULUS", modulus)
        for form in FORMS:
            for lo, hi in ((0, 0), (0, 7), (0, 400), (150, 400), (400, 400)):
                expected = tuple(n for n in unreached(form, hi) if n >= lo)
                assert verify_range(form, lo, hi).exceptions == expected, (form, lo, hi)
        assert verify_range("conj_a", 0, 20000).exceptions == CONJ_A_TO_1E6
        assert verify_range("conj_b", 0, 20000).exceptions == CONJ_B_TO_1E6

    @pytest.mark.parametrize("m", [1, 9, 45, 315])
    def test_the_stage_functions_take_the_class_count(self, monkeypatch, m):
        # the stages read no module class count: test_class_count_changes_nothing
        # with _MODULUS at 7, its windows swept by the three stage functions
        # handed m in place of verify_range
        def staged(form, lo, hi):
            kinds = verifier._SLOT_KINDS[form]
            stage, last = verifier._full_stage(kinds[:2], hi, m), verifier._smallest_sums(kinds[2:], hi)
            return SimpleNamespace(exceptions=verifier._lookup(form, verifier._scan_holes(stage, last, lo, hi, m)))

        monkeypatch.setitem(globals(), "verify_range", staged)
        self.test_class_count_changes_nothing(monkeypatch, 7)

    @pytest.mark.parametrize("prefix", [0, 1, 40, 10**6])
    def test_full_stage_thinning_changes_nothing(self, monkeypatch, prefix):
        # the full stage may drop any second-slot values: every sum it loses
        # is a hole the search settles; 0 keeps every other value from the
        # first, 10^6 keeps them all
        monkeypatch.setattr(verifier, "_FULL_PREFIX", prefix)
        for form in FORMS:
            for lo, hi in ((0, 0), (0, 7), (0, 400), (150, 400), (400, 400)):
                expected = tuple(n for n in unreached(form, hi) if n >= lo)
                assert verify_range(form, lo, hi).exceptions == expected, (form, lo, hi)
        assert verify_range("conj_a", 0, 20000).exceptions == CONJ_A_TO_1E6
        assert verify_range("conj_b", 0, 20000).exceptions == CONJ_B_TO_1E6

    @pytest.mark.parametrize("hi", [10**3, 10**6, 10**7, 10**8])
    def test_tail_stride_follows_the_slot_sizes(self, monkeypatch, hi):
        # the conjecture's triangular first slot has about twice the values
        # of its even second slot, so its full stage keeps every fourth even
        # value past the prefix; every other form's first slot has 1 to 1.42
        # times the values of its second, and keeps every other value.  The
        # sweep takes the stride from the slot steps; twice the ratio of the
        # slot sizes, rounded, gives the same at every size.  With no prefix
        # the full stage's values show the stride at every size.  The spy
        # stops the stage once it has them, so no shift-or runs at 10^8
        class Shifts(Exception):
            pass

        def spy(stage, values, m, target=None):
            raise Shifts(values)

        monkeypatch.setattr(verifier, "_FULL_PREFIX", 0)
        monkeypatch.setattr(verifier, "_add_slot", spy)
        for form, kinds in verifier._SLOT_KINDS.items():
            first, second = (verifier._slot_values(kind, hi) for kind in kinds[:2])
            assert 2 * round(len(first) / len(second)) == _STRIDES[form], (form, hi)
            with pytest.raises(Shifts) as shifts:
                verifier._full_stage(kinds[:2], hi, verifier._MODULUS)
            assert shifts.value.args[0] == second[:: _STRIDES[form]], (form, hi)

    def test_the_sweep_lists_no_slot_whole(self, monkeypatch):
        # both stages read their slots off the value iterators, so a sweep
        # of every form to 10^6 finds its exceptions without listing a slot
        def refuse(kind, hi):
            raise AssertionError(f"listed the {kind} slot to {hi}")

        monkeypatch.setattr(verifier, "_slot_values", refuse)
        expected = {"thm1": (), "thm2": (), "conj_a": CONJ_A_TO_1E6, "conj_b": CONJ_B_TO_1E6}
        for form in FORMS:
            assert verify_range(form, 0, 10**6).exceptions == expected.get(form, (8, 68)), form

    def test_the_full_stage_shifts_by_the_strided_second_slot(self, monkeypatch):
        # the full stage, the one _add_slot call with no target, shifts by the
        # second slot's first _FULL_PREFIX values and every stride-th one
        shifts = []
        add_slot = verifier._add_slot

        def spy(stage, values, m, target=None):
            if target is None:
                shifts.append(values)
            return add_slot(stage, values, m, target)

        monkeypatch.setattr(verifier, "_add_slot", spy)
        prefix = verifier._FULL_PREFIX
        for form, stride in _STRIDES.items():
            second = verifier._slot_values(verifier._SLOT_KINDS[form][1], 10**6)
            shifts.clear()
            verify_range(form, 0, 10**6)
            assert shifts == [second[:prefix] + second[prefix::stride]], form

    @pytest.mark.parametrize("shifts", [0, 1, 5, 64, 96, 112, 128])
    def test_smallest_sums_equal_the_sorted_sumset(self, monkeypatch, shifts):
        # the helper marks only sums up to its bound; the reference builds
        # every sum of the slots' first values and sorts them all
        monkeypatch.setattr(verifier, "_LAST_SHIFTS", shifts)
        rng = random.Random(shifts)
        his = {*range(50), *(rng.randint(50, 30000) for _ in range(20)), 6215, 6216, 24752, 24753, 10**6}
        for form in FORMS:
            kinds = verifier._SLOT_KINDS[form][2:]
            for hi in sorted(his):
                last = [0]
                for kind in kinds:
                    values = verifier._slot_values(kind, hi)[:shifts]
                    last = sorted({u + v for u in last for v in values if u + v <= hi})[:shifts]
                assert verifier._smallest_sums(kinds, hi) == last, (form, hi)

    @pytest.mark.parametrize("shifts", [0, 1])
    @pytest.mark.parametrize("form", ["thm1", "thm2"])
    def test_two_level_lookup(self, monkeypatch, form, shifts):
        # at most the value 0 per partial stage: every n off the full stage
        # is a hole, and each one is settled by the search
        monkeypatch.setattr(verifier, "_LAST_SHIFTS", shifts)
        for lo, hi in ((1, 40), (217, 600)):
            expected = tuple(n for n in unreached(form, hi) if n >= lo)
            assert verify_range(form, lo, hi).exceptions == expected, (form, lo, hi)
        for lo, hi in ((9001, 9600), (99500, 100000)):
            missing = tuple(n for n in range(lo, hi + 1) if brute_quad(form, n) is None)
            assert verify_range(form, lo, hi).exceptions == missing, (form, lo, hi)

    def test_the_conjecture_sweep_searches_exactly_its_holes(self, monkeypatch):
        # the conjecture sweeps triangular + even, the triangular slot having
        # twice the even one's values, so thinned to every fourth even value
        # past the first 40, and ORs in the first odd values; each hole that
        # leaves goes to the search of conj_a, and to conj_b's where conj_a
        # finds no witness; only 8 and 68 have neither
        hi = 10**6
        tri = [k * (k + 1) // 2 for k in range(isqrt(2 * hi) + 1)]
        odd = [k * (2 * k - 1) for k in range(isqrt(hi) + 1)]
        even = [k * (2 * k + 1) for k in range(isqrt(hi) + 1)]
        holes = _sweep_holes(tri, even, odd[: verifier._LAST_SHIFTS], hi, 4)
        assert {8, 68} <= set(holes)
        expected = [m for n in holes for m in ([n] if brute_quad("conj_a", n) else [n, n])]
        searched = _top_level_searches(monkeypatch)
        report = verify_range("conjecture", 0, hi)
        assert report.exceptions == (8, 68)
        assert searched == expected
        assert report.holes == len(set(searched)) == len(holes) == 2

    def test_every_hole_is_searched_once(self, monkeypatch):
        # conj_a sweeps odd + even, thinned, and ORs in the first 112 odd
        # values, all below odd[112] = 24976; every hole that leaves is
        # searched once, and is an exception exactly when brute_quad finds no
        # witness for it
        hi = 10**6
        odd = [k * (2 * k - 1) for k in range(isqrt(hi) + 1)]
        even = [k * (2 * k + 1) for k in range(isqrt(hi) + 1)]
        assert odd[verifier._LAST_SHIFTS] == 24976
        holes = _sweep_holes(odd, even, odd[: verifier._LAST_SHIFTS], hi, 2)
        searched = _top_level_searches(monkeypatch)
        report = verify_range("conj_a", 0, hi)
        assert holes and searched == holes
        assert report.holes == len(searched) == 37
        assert report.exceptions == CONJ_A_TO_1E6
        assert report.exceptions == tuple(n for n in holes if brute_quad("conj_a", n) is None)

    def test_every_thm1_hole_is_searched_once(self, monkeypatch):
        # thm1 sweeps odd + odd, thinned, and ORs in the smallest sums of
        # even + even, taken here from the whole even + even sumset; the
        # holes that leaves are each searched once, and none is an exception.
        # At 112 sums it leaves none to 10^6, at 64 it leaves 119
        monkeypatch.setattr(verifier, "_LAST_SHIFTS", 64)
        hi = 10**6
        odd = [k * (2 * k - 1) for k in range(isqrt(hi) + 1)]
        even = [k * (2 * k + 1) for k in range(isqrt(hi) + 1)]
        even_bits = sum(1 << v for v in even if v <= hi)
        pairs = 0
        for v in even:
            pairs |= even_bits << v
        ones = re.finditer("1", format(pairs, "b")[::-1])
        smallest = [m.start() for m in itertools.islice(ones, verifier._LAST_SHIFTS)]
        holes = _sweep_holes(odd, odd, smallest, hi, 2)
        searched = _top_level_searches(monkeypatch)
        report = verify_range("thm1", 0, hi)
        assert holes and searched == holes
        assert report.holes == len(searched)
        assert report.exceptions == ()

    def test_the_sweep_never_grows_a_pair_table(self, monkeypatch):
        # holes are searched through the two-square splits; with no partial
        # shifts every n of thm1 up to 2000 is a searched hole
        monkeypatch.setattr(verifier, "_pairs", {})
        assert verify_range("conj_a", 0, 10**6).exceptions == CONJ_A_TO_1E6
        monkeypatch.setattr(verifier, "_LAST_SHIFTS", 0)
        searched = _top_level_searches(monkeypatch)
        assert verify_range("thm1", 0, 2000).exceptions == ()
        assert searched == list(range(2001))
        assert verifier._pairs == {}

    def test_a_class_stops_at_the_group_that_fills_it(self):
        # every stage class is full, and each value v = r2 is a group of its
        # own, so output class r is full after its first group (r2 = 0, which
        # reads stage class r); with the mask as target no later stage class
        # is read, without one every group is
        m = verifier._MODULUS
        mask = (1 << 20) - 1
        stage = _ReadStage({r: mask for r in range(m)})
        assert list(verifier._add_slot(stage, list(range(m)), m, mask)) == [(r, mask) for r in range(m)]
        assert stage.read == list(range(m))
        stage.read.clear()
        assert list(verifier._add_slot(stage, list(range(m)), m)) == [(r, mask) for r in range(m)]
        assert len(stage.read) == m * m

    def test_the_conjecture_partial_stage_stops_full_classes_early(self, monkeypatch):
        # to 10^6 the partial stage ORs the 112 smallest odd values in 12
        # groups into each class; 43 of the 45 classes are full before their
        # last group and stop there; the two left with gaps read all 12
        groups: list[tuple[bool, int, int]] = []  # (full, groups read, groups) per partial class
        add_slot = verifier._add_slot

        def spy(stage, values, m, target=None):
            stage, count = _ReadStage(stage), len({v % m for v in values})
            for r, bits in add_slot(stage, values, m, target):
                if target is not None:
                    groups.append((bits == target, len(stage.read), count))
                stage.read.clear()
                yield r, bits

        monkeypatch.setattr(verifier, "_add_slot", spy)
        assert verify_range("conjecture", 0, 10**6).exceptions == (8, 68)
        assert len(groups) == verifier._MODULUS
        assert sum(read < count for _, read, count in groups) == 43
        assert all(full == (read < count) for full, read, count in groups)

    @pytest.mark.parametrize("form", ["thm1", "thm2", "conjecture"])
    def test_sweep_memory_in_a_fresh_process(self, form):
        # every form holds one set of class bitmaps of up to hi/8 bytes, the
        # full stage, since its partial stage is scanned class by class as it
        # is built (a traced peak of 1.43-1.73 MB, with the first slot's
        # class bitmaps); a second set held whole beside it, such as the
        # partial stage, takes 2.46-2.75 MB, which the bounds catch, as they
        # catch thm1's and the conjecture's slot lists held through the full
        # stage (1.61 and 1.67 MB)
        peak = _traced_peak_kb("from trisum.verifier import verify_range", f"verify_range({form!r}, 0, 10**7)")
        assert peak < {"thm1": 1.6, "thm2": 1.9, "conjecture": 1.6}[form] * 1024
