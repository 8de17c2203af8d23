"""The benchmark's three workloads and the checks of their outputs.

Each workload is a fixed list of operations that the runner repeats in
round-robin passes, cheap and costly kinds interleaved in a fixed order.
`--seed` sets the per-trial seeds of `mc_trials`; `lp_bound` and `asym_scan`
compute deterministic values, so their inputs are the same for every seed.
Importing this module imports numpy and fountain_lab, so the runner imports
it inside the timed set-up.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import time
from dataclasses import dataclass
from typing import Callable

from fountain_lab import asymptotics, cli, degree_dist, lp_bounds, sim_harness

from perfbench import checks

K = 10_000
RECEIVE_MODELS = ("deterministic_n", "poisson_n")
# robust_soliton(10**4, 0.1, 0.5) at r = 0.9 stalls near s = 0.045; over 50
# trials per receive model its stall point had a standard deviation of 0.011
ROBUST_STALL_SD = 0.012
ROBUST_SIGMAS = 4.5
# the rate of the full-decode cell; README.md says why it is not 1.1
ROBUST_FULL_R = 1.3
DESIGN_TOL = 0.05


class OperationFailed(Exception):
    """The program reported an error for an operation."""


@dataclass
class Op:
    name: str
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]
    # what the workload's final check groups by: (cell, r) or (z, grid step)
    info: tuple = ()


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warm_up: Callable[[], None]
    final_check: Callable[[dict[int, object]], None]
    build_s: float


def build(name: str, seed: int, quick: bool = False) -> Workload:
    """Build a workload; `quick` shrinks it to a smoke pass of a few seconds."""
    by_name = {"mc_trials": _mc_trials, "lp_bound": _lp_bound, "asym_scan": _asym_scan}
    return by_name[name](seed, quick)


def _entries(dist):
    degrees = [d for d, _ in dist.entries]
    masses = [m for _, m in dist.entries]
    return degrees, masses


# --- mc_trials: sim_harness.run_trial at k = 10^4 ---


def _mc_trials(seed: int, quick: bool) -> Workload:
    t0 = time.perf_counter()
    degree1 = degree_dist.DegreeDistribution.from_mapping({1: 1.0}, label="degree1")
    design = degree_dist.truncated_soliton(0.75)
    realized = degree_dist.perturb(design.distribution, 0.01)
    robust = degree_dist.robust_soliton(K, 0.1, 0.5)
    build_s = time.perf_counter() - t0

    # (label, distribution, r, trials per receive model); README.md says
    # why the full-decode cell runs twice
    cells = [
        ("degree1", degree1, 0.2, 1),
        ("robust", robust, 0.9, 1),
        ("degree1", degree1, 0.5, 1),
        ("robust", robust, ROBUST_FULL_R, 2),
        ("degree1", degree1, 0.8, 1),
        ("design0.75", realized, design.a, 1),
    ]
    models = RECEIVE_MODELS
    if quick:
        # the smoke pass keeps k: at k = 2,000 the design cell stalls early
        # on about one seed in five
        cells = [cell for cell in cells if cell[0] != "robust"]
        models = RECEIVE_MODELS[:1]
    ops = []
    for label, dist, r, repeats in cells:
        for model in [m for _ in range(repeats) for m in models]:
            config = sim_harness.SimulationConfig(
                distribution=dist, k=K, r_values=(r,), trials=1,
                receive_model=model, base_seed=seed,
            )
            # a distinct trial index gives every operation its own seed
            trial = len(ops)
            ops.append(
                Op(
                    name=f"run_trial[{label},r={r:.6g},{model},t={trial}]",
                    kind="run_trial",
                    call=lambda c=config, r=r, t=trial: sim_harness.run_trial(c, r, t),
                    check=_check_fraction,
                    info=(label, r),
                )
            )

    def final_check(results: dict[int, object]) -> None:
        by_cell: dict[tuple[str, float], list[float]] = {}
        for i, z in results.items():
            by_cell.setdefault(ops[i].info, []).append(z)
        for (label, r), zs in sorted(by_cell.items()):
            mean = sum(zs) / len(zs)
            what = f"mc_trials {label} r={r:.6g} mean of {len(zs)} trials"
            if label == "degree1":
                checks.check_close(
                    mean, checks.degree1_fraction(r),
                    checks.degree1_tolerance(r, K, len(zs)), what,
                )
            elif label == "design0.75":
                checks.check_close(mean, 0.75, DESIGN_TOL, what)
            else:
                s = checks.s_of_r(r, *_entries(robust))
                tol = ROBUST_SIGMAS * ROBUST_STALL_SD / math.sqrt(len(zs))
                checks.check_close(mean, s, tol, what)

    def warm_up() -> None:
        for dist in (degree1, realized):
            config = sim_harness.SimulationConfig(
                distribution=dist, k=1_000, r_values=(0.5,), trials=1, base_seed=seed
            )
            sim_harness.run_trial(config, 0.5, 0)

    return Workload("mc_trials", ops, warm_up, final_check, build_s)


def _check_fraction(z: object) -> None:
    if not (isinstance(z, float) and 0.0 <= z <= 1.0):
        raise checks.CheckError(f"decoded fraction {z!r} outside [0, 1]")


# --- lp_bound: the `bound` command, in process ---

LP_CASES = (
    (0.3, 1e-3),
    (0.95, 1e-3),
    (0.6, 1e-3),
    (0.75, 1e-4),
    (2.0 / 3.0, 1e-3),
    (0.9, 1e-3),
    (0.75, 1e-3),
    (0.5, 1e-3),
    # the simplex's own final check raises "internal error" here on every run
    (0.98, 5e-3),
    (0.85, 1e-3),
)
LP_QUICK_CASES = ((0.3, 1e-2), (0.6, 1e-2), (2.0 / 3.0, 1e-2), (0.9, 1e-2), (0.98, 5e-3))


def run_bound(z: float, step: float) -> tuple[float, float, float, int]:
    """`fountain-lab bound --z Z --grid-step STEP -o -`, parsed by column name."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["bound", "--z", repr(z), "--grid-step", repr(step), "-o", "-"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OperationFailed(f"exit {code}: {err.getvalue().strip()}")
    lines = [line for line in out.getvalue().splitlines() if not line.startswith("#")]
    rows = list(csv.DictReader(lines))
    if len(rows) != 1:
        raise checks.CheckError(f"bound z={z!r}: expected one CSV row, got {len(rows)}")
    row = rows[0]
    return float(row["z"]), float(row["r_lower"]), float(row["r_upper"]), int(row["m"])


def _lp_bound(seed: int, quick: bool) -> Workload:
    cases = LP_QUICK_CASES if quick else LP_CASES
    ops = []
    for z, step in cases:
        def check(row, z=z):
            zz, lower, upper, m = row
            checks.check_close(zz, z, checks.CSV_REL * z, "bound z column")
            checks.check_bound_row(z, lower, upper, m)

        ops.append(
            Op(
                name=f"bound[z={z:.6g},grid={step:g}]",
                kind="bound",
                call=lambda z=z, step=step: run_bound(z, step),
                check=check,
                info=(z, step),
            )
        )

    def final_check(results: dict[int, object]) -> None:
        # certificates, outside the timed loop: one re-solve per distinct case
        for i, (_, lower, upper, _) in sorted(results.items()):
            z, step = ops[i].info
            value, xs, masses = lp_bounds.dual_outer_bound_details(z, step)
            checks.check_moment_certificate(z, value, xs, masses, lower)
            design, r = lp_bounds.primal_min_r(z, step)
            checks.check_design(z, step, r, *_entries(design), upper)

    def warm_up() -> None:
        run_bound(0.6, 1e-2)

    return Workload("lp_bound", ops, warm_up, final_check, 0.0)


# --- asym_scan: s_of_r, check_margin_condition and r_of_z ---


def _asym_scan(seed: int, quick: bool) -> Workload:
    k = 1_000 if quick else K
    r_of_z_step = 1e-3 if quick else asymptotics.DEFAULT_GRID_STEP
    step = asymptotics.DEFAULT_GRID_STEP
    t0 = time.perf_counter()
    big = {
        "ideal": degree_dist.ideal_soliton(k),
        "robust": degree_dist.robust_soliton(k, 0.1, 0.5),
        "heavy": degree_dist.perturb(degree_dist.limiting_soliton(k), 1e-3),
    }
    limiting = degree_dist.limiting_soliton(k)
    degree1 = degree_dist.DegreeDistribution.from_mapping({1: 1.0}, label="degree1")
    designs = {z: degree_dist.truncated_soliton(z) for z in (0.75, 0.9)}
    raptor = degree_dist.raptor_omega(0.5)
    build_s = time.perf_counter() - t0

    ops: list[Op] = []

    def add(name, kind, call, check):
        ops.append(Op(name=name, kind=kind, call=call, check=check))

    for label, dist in big.items():
        for r in (0.5, 0.9, 1.0, 1.2):
            add(
                f"s_of_r[{label},r={r:g}]", "s_of_r",
                lambda r=r, d=dist: asymptotics.s_of_r(r, d),
                lambda s, r=r, d=dist: checks.check_s_crossing(s, r, *_entries(d), step),
            )
    for r in (0.3, 0.7, 1.5):
        add(
            f"s_of_r[degree1,r={r:g}]", "s_of_r",
            lambda r=r: asymptotics.s_of_r(r, degree1),
            lambda s, r=r: checks.check_close(
                s, checks.degree1_fraction(r), 1e-6, f"s_of_r degree1 r={r:g}"
            ),
        )
    for z, design in designs.items():
        add(
            f"s_of_r[truncated_soliton({z:g}),r=a]", "s_of_r",
            lambda d=design: asymptotics.s_of_r(d.a, d.distribution),
            lambda s, z=z: checks.check_close(s, z, 1e-3, f"s_of_r design z={z:g} at a"),
        )
    add(
        "s_of_r[raptor_omega(0.5),r=1]", "s_of_r",
        lambda: asymptotics.s_of_r(1.0, raptor),
        lambda s: checks.check_s_crossing(s, 1.0, *_entries(raptor), step),
    )
    margin_cases = (
        ("robust", 0.9, big["robust"]),
        ("heavy", 1.2, big["heavy"]),
        ("ideal", 1.0, big["ideal"]),
        ("limiting_soliton", 1.0, limiting),
        ("truncated_soliton(0.75)", designs[0.75].a, designs[0.75].distribution),
    )
    for label, r, dist in margin_cases:
        def check_margin(ok, r=r, d=dist):
            degrees, masses = _entries(d)
            s = checks.s_of_r(r, degrees, masses, step)
            expected = checks.margin_condition(r, degrees, masses, s, step)
            if ok is not expected:
                raise checks.CheckError(
                    f"check_margin_condition r={r:.6g}: returned {ok!r}, expected {expected!r}"
                )

        add(
            f"check_margin_condition[{label},r={r:.6g}]", "check_margin_condition",
            lambda r=r, d=dist: asymptotics.check_margin_condition(r, d),
            check_margin,
        )
    # at z = 1/4 each call builds a 2,500 x 10,000 power matrix (about 200 MB)
    z_cases = [(0.25, label, dist) for label, dist in big.items()]
    z_cases.append((0.9, "raptor_omega(0.5)", raptor))
    for z, label, dist in z_cases:
        add(
            f"r_of_z[{label},z={z:g}]", "r_of_z",
            lambda z=z, d=dist: asymptotics.r_of_z(z, d, r_of_z_step),
            lambda v, z=z, d=dist: checks.check_close(
                v, checks.sup_ratio(z, *_entries(d), r_of_z_step),
                1e-6 * v, f"r_of_z z={z:g} vs sup of -log(1-t)/P'(t)",
            ),
        )

    # spread each kind of operation evenly over the pass
    kinds = [op.kind for op in ops]
    position = {}
    for i, op in enumerate(ops):
        position[i] = (kinds[:i].count(op.kind) + 0.5) / kinds.count(op.kind)
    ops[:] = [ops[i] for i in sorted(range(len(ops)), key=lambda i: position[i])]

    def warm_up() -> None:
        asymptotics.s_of_r(0.5, degree1)
        asymptotics.check_margin_condition(0.5, degree1)
        asymptotics.r_of_z(0.3, degree1)

    return Workload("asym_scan", ops, warm_up, lambda results: None, build_s)
