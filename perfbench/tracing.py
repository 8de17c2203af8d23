"""Spans around fountain-lab's internal calls, for the traced run only.

`traced(recorder)` replaces, for the length of a `with` block, each wrapped
function under the name its calling module looks it up by, and puts the
original back afterwards:

    sim_harness.encode, sim_harness.decode         (called by run_trial)
    lt_codec.DecoderState.__init__, .run           (called by decode)
    cli.outer_bound_curve                          (called by cmd_bound)
    lp_bounds.dual_outer_bound, .primal_min_r      (called by outer_bound_curve)
    lp_bounds.build_outer_bound_problem, .simplex_solve
    asymptotics.peeling_margin, .pgf_derivative    (called by s_of_r, r_of_z)

A span holds a name, a start, an end, its parent span and its operation.
Counts are read from the returned objects after the operation has ended,
so that the work of counting lands in no span. Spans stay in memory and
the runner writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
import tracemalloc
from dataclasses import asdict, dataclass, field

import numpy as np
from fountain_lab import asymptotics, cli, lp_bounds, lt_codec, sim_harness

from perfbench import checks


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    round: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; one operation at a time, nested calls on a stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.peak_alloc: list[float] = []
        self._stack: list[int] = []
        self._deferred: list[tuple] = []
        self._op = -1
        self._round = -1
        self._tracemalloc = False

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op, self._round))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def begin_op(self, kind: str, round_index: int) -> int:
        """Open the root span of one operation of the workload."""
        self._op += 1
        self._round = round_index
        self._tracemalloc = kind == "r_of_z"
        if self._tracemalloc:
            tracemalloc.start()
        return self.open(kind)

    def end_op(self, idx: int) -> None:
        """Close the root span, then take counts and run the codec check."""
        self.close(idx)
        if self._tracemalloc:
            self.peak_alloc.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
        deferred, self._deferred = self._deferred, []
        calls = {}
        for span_idx, count, args, out in deferred:
            count(self.spans[span_idx].counts, args, out)
            calls[self.spans[span_idx].name] = (args, out)
        if "sim_harness.encode" in calls and "sim_harness.decode" in calls:
            (inputs, _, _, _), symbols = calls["sim_harness.encode"]
            _, (recovered, _) = calls["sim_harness.decode"]
            checks.check_codec(inputs, symbols, recovered)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.spans[idx].counts["raised"] = 1
                raise
            finally:
                self.close(idx)
            if count is not None:
                self._deferred.append((idx, count, args, out))
            return out

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def _count_encode(counts, args, symbols):
    counts["symbols"] = len(symbols)
    counts["edges"] = sum(len(sym.neighbors) for sym in symbols)


def _keep_output(counts, args, out):
    """Counts nothing; keeps decode's output for the codec check."""


def _count_run(counts, args, out):
    state = args[0]
    counts["edge_removals"] = state.edge_removals
    counts["decoded"] = state.decoded_count


def _count_simplex(counts, args, solution):
    counts["pivots"] = solution.iterations


def _count_pgf(counts, args, out):
    t = np.asarray(args[1])
    counts["points"] = int(t.size)
    counts["scalar"] = int(t.ndim == 0)


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Wrap the library's internal call sites for the `with` block."""
    state = lt_codec.DecoderState
    targets = [
        (sim_harness, "encode", "sim_harness.encode", _count_encode),
        (sim_harness, "decode", "sim_harness.decode", _keep_output),
        (state, "__init__", "lt_codec.DecoderState.__init__", None),
        (state, "run", "lt_codec.DecoderState.run", _count_run),
        (cli, "outer_bound_curve", "cli.outer_bound_curve", None),
        (lp_bounds, "dual_outer_bound", "lp_bounds.dual_outer_bound", None),
        (lp_bounds, "primal_min_r", "lp_bounds.primal_min_r", None),
        (lp_bounds, "build_outer_bound_problem", "lp_bounds.build_outer_bound_problem", None),
        (lp_bounds, "simplex_solve", "lp_bounds.simplex_solve", _count_simplex),
        (asymptotics, "peeling_margin", "asymptotics.peeling_margin", None),
        (asymptotics, "pgf_derivative", "asymptotics.pgf_derivative", _count_pgf),
    ]
    saved = []
    try:
        for owner, attr, name, count in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, count))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --- per-layer metrics: per-round totals, median over the traced rounds ---


def _children(spans: list[Span]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span.parent is not None:
            kids.setdefault(span.parent, []).append(i)
    return kids


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-module totals for one round, the median over traced rounds."""
    spans = recorder.spans
    kids = _children(spans)

    def self_s(i: int) -> float:
        return spans[i].seconds - sum(spans[c].seconds for c in kids.get(i, ()))

    def parent_name(span: Span) -> str | None:
        return None if span.parent is None else spans[span.parent].name

    per_round: dict[int, dict[str, float]] = {}
    for i, span in enumerate(spans):
        m = per_round.setdefault(span.round, {})

        def add(key: str, value: float) -> None:
            m[key] = m.get(key, 0.0) + value

        name, dt, c = span.name, span.seconds, span.counts
        if name == "run_trial":
            add("sim_harness.trial_s", dt)
            add("sim_harness.self_s", self_s(i))
        elif name == "sim_harness.encode":
            add("lt_codec.encode_s", dt)
            add("lt_codec.symbols", c.get("symbols", 0))
            add("lt_codec.edges", c.get("edges", 0))
        elif name == "lt_codec.DecoderState.__init__":
            add("lt_codec.decoder_init_s", dt)
        elif name == "lt_codec.DecoderState.run":
            add("lt_codec.peel_s", dt)
            add("lt_codec.edge_removals", c.get("edge_removals", 0))
            add("lt_codec.decoded", c.get("decoded", 0))
        elif name == "bound":
            add("cli.self_s", self_s(i))
        elif name == "lp_bounds.dual_outer_bound":
            add("lp_bounds.dual_s", dt)
        elif name == "lp_bounds.primal_min_r":
            add("lp_bounds.primal_s", dt)
            add("lp_bounds.primal_self_s", self_s(i))
        elif name == "lp_bounds.simplex_solve":
            add("lp_bounds.simplex_s", dt)
            add("lp_bounds.simplex_calls", 1)
            if "pivots" in c:
                add("lp_bounds.pivots", c["pivots"])
                add("_solved_simplex_s", dt)
        elif name == "s_of_r" and span.parent is None:
            add("asymptotics.s_of_r_s", dt)
            add("asymptotics.scan_s", self_s(i))
        elif name == "asymptotics.peeling_margin" and parent_name(span) == "s_of_r":
            add("asymptotics.bisect_s", dt)
            add("asymptotics.bisect_steps", 1)
        elif name == "check_margin_condition":
            add("asymptotics.check_margin_s", dt)
        elif name == "r_of_z":
            add("asymptotics.r_of_z_s", dt)
        elif name == "asymptotics.pgf_derivative":
            add("degree_dist.pgf_derivative_s", dt)
            add("degree_dist.pgf_derivative_points", c.get("points", 0))
            if parent_name(span) == "r_of_z" and c.get("scalar"):
                add("asymptotics.polish_s", dt)

    rounds = list(per_round.values())
    keys = {key for m in rounds for key in m}
    out = {key: statistics.median(m.get(key, 0.0) for m in rounds) for key in keys}
    solved = out.pop("_solved_simplex_s", 0.0)
    if out.get("lt_codec.encode_s"):
        out["lt_codec.encode_edges_per_s"] = out["lt_codec.edges"] / out["lt_codec.encode_s"]
    if out.get("lp_bounds.pivots"):
        out["lp_bounds.s_per_pivot"] = solved / out["lp_bounds.pivots"]
    if recorder.peak_alloc:
        out["asymptotics.r_of_z_peak_alloc_mb"] = max(recorder.peak_alloc)
    return out
