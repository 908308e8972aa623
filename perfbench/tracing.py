"""Spans and counters recorded from outside the program, and the per-layer metrics.

The tracer replaces the module attributes through which one layer calls
the next (for example `ternary.three_squares`) by wrappers that record a
span per call: its name, start, end, parent span and the span of the
top-level call it belongs to.  `check_nat` is called several times per
witness, so it is counted, not spanned.  Spans live in flat arrays in
memory and are written out once the traced pass has ended.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter_ns

# (module, attribute, span name): each call made through that module's
# binding of the attribute becomes one span.
SPANNED = (
    ("theorem1", "represent_thm1", "theorem1.represent_thm1"),
    ("theorem2", "represent_thm2", "theorem2.represent_thm2"),
    ("verifier", "verify_range", "verifier.verify_range"),
    ("theorem1", "rep_2t_t_t", "ternary.rep_2t_t_t"),
    ("theorem1", "rep_square_two_tri", "ternary.rep_square_two_tri"),
    ("theorem2", "rep_ttt_mixed", "ternary.rep_ttt_mixed"),
    ("theorem2", "rep_tt4t_mixed", "ternary.rep_tt4t_mixed"),
    ("theorem2", "brute_quad", "verifier.brute_quad"),
    ("ternary", "three_squares", "squares.three_squares"),
    ("ternary", "two_squares", "squares.two_squares"),
)
# Every module that calls check_nat, core_arith itself included.
COUNTED = tuple(
    (module, "check_nat", "core_arith.check_nat")
    for module in ("core_arith", "squares", "ternary", "theorem1", "theorem2", "verifier")
)


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.root = array("q")
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    def spanned(self, name: str, fn):
        """Return fn wrapped so that each call records one span."""
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        open_ = self._open

        def traced(*args, **kwargs):
            sid = len(self.start)
            parent = open_[-1] if open_ else -1
            self.name.append(code)
            self.parent.append(parent)
            self.root.append(self.root[parent] if parent >= 0 else sid)
            self.end.append(0)
            open_.append(sid)
            self.start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter_ns()
                open_.pop()

        return traced

    def counted(self, name: str, fn):
        """Return fn wrapped so that each call adds one to counts[name]."""
        counts = self.counts

        def traced(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap the layer boundaries of the imported trisum package."""
        for module, attr, name in SPANNED:
            mod = importlib.import_module(f"trisum.{module}")
            setattr(mod, attr, self.spanned(name, getattr(mod, attr)))
        for module, attr, name in COUNTED:
            mod = importlib.import_module(f"trisum.{module}")
            setattr(mod, attr, self.counted(name, getattr(mod, attr)))

    def write(self, path) -> None:
        """Write one JSON array per span: name, start_ns, end_ns, parent, root."""
        with open(path, "w", encoding="ascii") as out:
            out.write('["name", "start_ns", "end_ns", "parent", "root"]\n')
            names = self.names
            for i in range(len(self.start)):
                out.write(
                    f'["{names[self.name[i]]}", {self.start[i]}, {self.end[i]}, '
                    f"{self.parent[i]}, {self.root[i]}]\n"
                )


def self_times(parent, start, end) -> list[int]:
    """Each span's duration minus the part of it its child spans cover.

    Spans come from one thread, so a span's children are disjoint and lie
    inside it; parents precede their children.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def layer_metrics(tracer: Tracer, trisum, done) -> dict:
    """Per-layer metrics of one traced pass, keyed by metric name.

    `done` is the pass's timed_pass.Tally.  A layer's time is given as its
    share of the summed duration of the pass's top-level calls, so a layer
    that does not run reads 0 without posing as a measured time.  A ratio
    with an empty base is 0.
    """
    names = tracer.names
    own = self_times(tracer.parent, tracer.start, tracer.end)
    calls: Counter[str] = Counter()
    busy: Counter[str] = Counter()
    self_ns: Counter[str] = Counter()
    thm2 = names.index("theorem2.represent_thm2")
    depth = [0] * len(own)
    for i, code in enumerate(tracer.name):
        name = names[code]
        calls[name] += 1
        busy[name] += tracer.end[i] - tracer.start[i]
        self_ns[name] += own[i]
        p = tracer.parent[i]
        if p >= 0:
            depth[i] = depth[p] + (tracer.name[p] == thm2)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def share(counter: Counter, *keys: str) -> float:
        return ratio(sum(counter[k] for k in keys), done.busy_ns)

    cached = [trisum.ternary.rep_2t_t_t.cache_info(), trisum.ternary.rep_square_two_tri.cache_info()]
    hits = sum(c.hits for c in cached)
    misses = sum(c.misses for c in cached)
    mixed = ("ternary.rep_ttt_mixed", "ternary.rep_tt4t_mixed")
    reps = ("ternary.rep_2t_t_t", "ternary.rep_square_two_tri") + mixed
    branches = trisum.theorem2.branch_counts()
    fallbacks = trisum.theorem1.fallback_count()
    top = Counter(names[code] for i, code in enumerate(tracer.name) if tracer.parent[i] < 0)
    return {
        "squares.three_squares.calls": calls["squares.three_squares"],
        "squares.three_squares.share": share(busy, "squares.three_squares"),
        "squares.two_squares.calls": calls["squares.two_squares"],
        "squares.two_squares.share": share(busy, "squares.two_squares"),
        "ternary.cache_hit_ratio": ratio(hits, hits + misses),
        "ternary.self_share": share(self_ns, *reps),
        "ternary.mixed.calls": sum(calls[k] for k in mixed),
        "ternary.mixed.share": share(busy, *mixed),
        "theorem1.calls": top["theorem1.represent_thm1"],
        "theorem1.self_share": share(self_ns, "theorem1.represent_thm1"),
        "theorem1.fallbacks": fallbacks,
        "theorem1.brute_calls": (done.small if top["theorem1.represent_thm1"] else 0) + fallbacks,
        "theorem2.calls": top["theorem2.represent_thm2"],
        "theorem2.self_share": share(self_ns, "theorem2.represent_thm2"),
        "theorem2.errors": len(done.failed) if top["theorem2.represent_thm2"] else 0,
        **{f"theorem2.branch.{b}": branches.get(b, 0) for b in ("brute", "square", "doubled", "descent")},
        "theorem2.offset_attempts_per_call": ratio(
            sum(calls[k] for k in mixed), branches.get("square", 0) + branches.get("doubled", 0)
        ),
        "theorem2.descent_depth_max": max(
            (depth[i] for i, code in enumerate(tracer.name) if code == thm2), default=0
        ),
        "verifier.brute_quad.calls": calls["verifier.brute_quad"],
        "verifier.brute_quad.share": share(busy, "verifier.brute_quad"),
        "core_arith.check_nat.calls": tracer.counts["core_arith.check_nat"],
        "core_arith.check_nat.per_call": ratio(tracer.counts["core_arith.check_nat"], len(done.latency_ns)),
    }
