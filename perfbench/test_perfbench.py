"""Tests of the benchmark's own logic; they call no trisum function and assert nothing about time.

    python3 -m pytest perfbench
"""

import itertools

import pytest

from run import BEYOND, Passes, tail
from timed_pass import run_calls
from tracing import Tracer, self_times
from workloads import LARGE_BAND, TOP_BAND, WORKLOADS, WrongOutput, check_output, inputs, pass_count


@pytest.mark.parametrize("n", [11, 12, 57, 1000, 4096])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n):
    samples = list(range(n))  # distinct, so "beyond" is unambiguous
    pct, value = tail(samples)
    beyond = [s for s in samples if s > value]
    assert len(beyond) >= BEYOND == 10
    # the next sample up would leave fewer than ten above it
    assert len([s for s in samples if s > value + 1]) < BEYOND
    assert pct == pytest.approx(100.0 * (value + 1) / n)


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_is_null_without_eleven_samples(n):
    assert tail(list(range(n))) is None


def test_self_time_of_nested_spans():
    # root [0, 100) holds a [10, 40) that holds b [15, 25), then c [50, 60)
    parent = [-1, 0, 1, 0]
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 60]
    assert self_times(parent, start, end) == [60, 20, 10, 10]


def test_tracer_records_parent_root_and_counts():
    tracer = Tracer()
    leaf = tracer.spanned("leaf", lambda x: x + 1)
    check = tracer.counted("check", lambda x: x)

    def body(x):
        return leaf(check(x)) + leaf(x)

    outer = tracer.spanned("outer", body)
    assert outer(1) == 4 and outer(2) == 6
    names = [tracer.names[c] for c in tracer.name]
    assert names == ["outer", "leaf", "leaf"] * 2
    assert list(tracer.parent) == [-1, 0, 0, -1, 3, 3]
    assert list(tracer.root) == [0, 0, 0, 3, 3, 3]
    assert tracer.counts["check"] == 2
    own = self_times(tracer.parent, tracer.start, tracer.end)
    assert own[0] == (tracer.end[0] - tracer.start[0]) - sum(
        tracer.end[i] - tracer.start[i] for i in (1, 2)
    )
    assert all(t >= 0 for t in own)


def test_tracer_closes_a_span_whose_call_raises():
    tracer = Tracer()

    def fail(_):
        raise ValueError("out of range")

    with pytest.raises(ValueError):
        tracer.spanned("fail", fail)(0)
    assert tracer.end[0] >= tracer.start[0] > 0
    assert tracer.spanned("next", abs)(-1) == 1
    assert tracer.parent[1] == -1


@pytest.mark.parametrize("name, band", [("large_thm1", LARGE_BAND), ("top_thm1", TOP_BAND)])
def test_inputs_depend_on_the_seed_alone(name, band):
    w = WORKLOADS[name]
    first = list(itertools.islice(inputs(w, 7), 200))
    assert first == list(itertools.islice(inputs(w, 7), 200))
    assert first != list(itertools.islice(inputs(w, 8), 200))
    assert all(band[0] <= n <= band[1] for n in first)


def test_small_and_sweep_inputs():
    assert list(itertools.islice(inputs(WORKLOADS["small_thm2"], 3), 5)) == [0, 1, 2, 3, 4]
    assert list(itertools.islice(inputs(WORKLOADS["sweep_thm1"], 3), 2)) == [10**7, 10**7]


def test_pass_count_depends_on_the_run_length_alone():
    sweep, conj = WORKLOADS["sweep_thm1"], WORKLOADS["sweep_conjecture"]
    assert pass_count(sweep, 25) == 3 and pass_count(sweep, 1) == 1
    assert pass_count(conj, 25) == 62 and pass_count(conj, 50) == 125
    assert all(pass_count(w, s) >= 1 for w in WORKLOADS.values() for s in (1, 15, 60))


def as_pass(tally, peak_rss_mb=1.0):
    return {
        "latency_ns": tally.latency_ns.tolist(),
        "failed": tally.failed,
        "peak_rss_mb": peak_rss_mb,
        "import_ns": 40_000_000,
    }


def test_a_top_band_thm2_input_counts_as_one_failed_call():
    def represent_thm2(n):
        # what represent_thm2 does for every n >= 2^56 until ROADMAP item 2 is fixed
        raise ValueError(f"v={4 * n + 3} exceeds the supported bound 2**58")

    checked = []
    tally = run_calls(represent_thm2, lambda x, out: checked.append(x), [1 << 57])
    assert (len(tally.latency_ns), tally.failed, checked) == (1, [0], [])
    passes = Passes()
    passes.add(as_pass(tally))
    fig = passes.figures()
    assert (fig["calls"], fig["failed"], fig["ops"]) == (1, 1, 0.0)
    assert fig["p50_us"] is None and fig["tail_us"] is None


def test_an_untyped_error_is_not_counted_but_propagates():
    def broken(n):
        raise TypeError("bug")

    with pytest.raises(TypeError):
        run_calls(broken, lambda x, out: None, [1])


def test_successful_calls_are_checked_and_timed():
    seen = []
    tally = run_calls(lambda n: n * 2, lambda x, out: seen.append((x, out)), range(5))
    assert seen == [(i, 2 * i) for i in range(5)]
    assert (len(tally.latency_ns), tally.failed, tally.small) == (5, [], 5)
    assert all(t >= 0 for t in tally.latency_ns)


def test_passes_keep_each_calls_fastest_time():
    passes = Passes()
    passes.add({"latency_ns": [5000, 1000, 9000], "failed": [], "peak_rss_mb": 20.0, "import_ns": 30_000_000})
    passes.add({"latency_ns": [3000, 2000, 8000], "failed": [], "peak_rss_mb": 21.5, "import_ns": 50_000_000})
    passes.add({"latency_ns": [4000, 1500, 8500], "failed": [], "peak_rss_mb": 21.0, "import_ns": 45_000_000})
    fig = passes.figures()
    assert passes.best == [3000, 1000, 8000]
    assert fig["p50_us"] == 3.0
    assert fig["ops"] == pytest.approx(3 / 12e-6)
    assert fig["peak_rss_mb"] == 21.5
    assert fig["setup_s"] == 0.045  # the median import of the three passes
    assert fig["tail_us"] is None  # three samples cannot leave ten beyond


def test_failed_calls_count_in_ops_time_but_not_in_percentiles():
    passes = Passes()
    passes.add({"latency_ns": [1000, 500, 3000], "failed": [1], "peak_rss_mb": 1.0, "import_ns": 1})
    fig = passes.figures()
    assert fig["failed"] == 1
    assert fig["p50_us"] == 2.0
    assert fig["ops"] == pytest.approx(2 / 4.5e-6)


def test_wrong_results_are_rejected():
    small = WORKLOADS["small_thm1"]
    check_output(small, 201, (7, 5, 5, 2))
    for bad in [(7, 5, 5, 3), (-7, 5, 5, 2), (7.0, 5, 5, 2), (7, 5, 5)]:
        with pytest.raises(WrongOutput):
            check_output(small, 201, bad)
    check_output(WORKLOADS["small_thm2"], 20001, (48, 19, 50, 6))

    class Report:
        exceptions = (8,)

    with pytest.raises(WrongOutput):
        check_output(WORKLOADS["sweep_conjecture"], 10**6, Report())
    Report.exceptions = (8, 68)
    check_output(WORKLOADS["sweep_conjecture"], 10**6, Report())
