"""Command-line interface: analysis, bounds, design, simulation, comparison.

All outputs are UTF-8 CSV (or the tab-separated distribution format) with
'#' metadata lines. Exit codes: 0 success, 2 usage or validation error,
1 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import math
import sys
from pathlib import Path

from . import CSV_FLOAT, __version__
from .asymptotics import r_of_z, s_of_r, validate_grid
from .degree_dist import (
    DegreeDistribution,
    UnknownRegionError,
    ideal_soliton,
    limiting_soliton,
    optimal_distribution,
    perturb,
    raptor_omega,
    read_distribution,
    robust_soliton,
    truncated_soliton,
    write_distribution,
)
from .lp_bounds import dual_outer_bound, outer_bound_curve, validate_grid_step, validate_target
from .sim_harness import SimulationConfig, sweep, write_result_csv

# most rates one `analyze --r-range` may list
MAX_R_VALUES = 10**6


def _add_dist_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--degree1", action="store_true", help="all mass on degree 1")
    group.add_argument("--degree2", action="store_true", help="all mass on degree 2")
    group.add_argument("--soliton", type=int, metavar="K", help="ideal soliton on {1..K}")
    group.add_argument(
        "--limiting-soliton", type=int, metavar="M",
        help="heavy-tailed soliton limit truncated at degree M (no degree-1 mass)",
    )
    group.add_argument(
        "--robust", nargs=3, metavar=("K", "C", "DELTA"),
        help="robust soliton with parameters k, c, fail probability",
    )
    group.add_argument("--raptor", type=float, metavar="EPS", help="Raptor output distribution")
    group.add_argument(
        "--design-z", type=float, metavar="Z",
        help="designed distribution for recovery target Z",
    )
    group.add_argument("--dist-file", metavar="PATH", help="degree<TAB>mass file")


def _design(z: float) -> tuple[DegreeDistribution, float, str]:
    """Best known distribution for target z, its rate, and the rate's name."""
    if z > 2.0 / 3.0:
        design = truncated_soliton(z)
        return design.distribution, design.a, "a"
    return (*optimal_distribution(z), "r")


def _robust_params(values: list[str]) -> tuple[int, float, float]:
    """--robust K C DELTA parsed, with an error that names the bad value."""
    parsed = []
    for name, kind, text in zip(("K", "C", "DELTA"), (int, float, float), values):
        try:
            parsed.append(kind(text))
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"--robust {name} must be {what}, got {text!r}") from None
    return tuple(parsed)


def _resolve_dist(args: argparse.Namespace) -> DegreeDistribution:
    if args.degree1:
        return DegreeDistribution.from_mapping({1: 1.0}, label="degree1")
    if args.degree2:
        return DegreeDistribution.from_mapping({2: 1.0}, label="degree2")
    if args.soliton is not None:
        return ideal_soliton(args.soliton)
    if args.limiting_soliton is not None:
        return limiting_soliton(args.limiting_soliton)
    if args.robust is not None:
        return robust_soliton(*_robust_params(args.robust))
    if args.raptor is not None:
        return raptor_omega(args.raptor)
    if args.design_z is not None:
        return _design(args.design_z)[0]
    try:
        return read_distribution(args.dist_file)
    except OSError as exc:
        raise ValueError(f"cannot read distribution file: {exc}") from exc


@contextlib.contextmanager
def _output(path: str | Path | None):
    """stdout for None or '-', else the file at path, closed on exit."""
    if path in (None, "-"):
        yield sys.stdout
        return
    try:
        out = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write output file: {exc}") from exc
    with out:
        yield out


def cmd_analyze(args: argparse.Namespace) -> int:
    validate_grid(args.grid_step, args.refine_tol)
    dist = _resolve_dist(args)
    rs = list(args.r or [])
    if args.r_range is not None:
        start, stop, step = args.r_range
        if not all(math.isfinite(v) for v in args.r_range):
            raise ValueError("r-range values must be finite")
        if step <= 0:
            raise ValueError("r-range step must be positive")
        if (stop - start) / step > MAX_R_VALUES or stop + step == stop:
            raise ValueError(f"r-range gives more than {MAX_R_VALUES} values")
        v = start
        while v <= stop + 1e-12:
            rs.append(v)
            v += step
    if not rs:
        raise ValueError("no r values given")
    if not all(math.isfinite(r) and r >= 0 for r in rs):
        raise ValueError("r values must be finite and >= 0")
    with _output(args.output) as out:
        out.write(f"# fountain-lab {__version__} analyze\n")
        out.write(f"# distribution: {dist.label or 'custom'}\n")
        out.write("r,s\n")
        for r in rs:
            s = s_of_r(r, dist, args.grid_step, args.refine_tol)
            out.write(f"{CSV_FLOAT % r},{CSV_FLOAT % s}\n")
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    zs = args.z
    for z in zs:
        validate_target(z, args.grid_step)
    curve = outer_bound_curve(zs, args.grid_step)
    with _output(args.output) as out:
        out.write(f"# fountain-lab {__version__} bound grid_step={args.grid_step:g}\n")
        curve.write_csv(out)
    return 0


def cmd_design(args: argparse.Namespace) -> int:
    z = args.z
    if not 0.0 < z < 1.0:
        raise ValueError(f"z={z!r} outside (0, 1)")
    dist, rate, rate_name = _design(z)
    buf = io.StringIO()
    buf.write(f"# design for z = {z:g}\n")
    buf.write(f"# {rate_name} = {rate:.9g}\n")
    write_distribution(dist, buf)
    with _output(args.output) as out:
        out.write(buf.getvalue())
    print(f"{rate_name} = {rate:.9g}", file=sys.stderr)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if not 0.0 <= args.realize_delta < 1.0:
        raise ValueError(f"realize-delta must lie in [0, 1), got {args.realize_delta!r}")
    dist = _resolve_dist(args)
    realized = dist
    note = ""
    if dist.mass(1) == 0.0 and args.realize_delta > 0.0:
        # a distribution with no degree-one mass never starts the decoder at
        # finite k; simulate its canonical degree-one perturbation instead
        realized = perturb(dist, args.realize_delta)
        note = f"# realized: perturb(delta={args.realize_delta:g}) of {dist.label or 'custom'}\n"
    config = SimulationConfig(
        distribution=realized,
        k=args.k,
        r_values=tuple(args.r),
        trials=args.trials,
        receive_model=args.receive_model,
        base_seed=args.seed,
    )
    result = sweep(config, annotate_asymptotic=not args.no_asymptotic)
    with _output(args.output) as out:
        if note:
            out.write(note)
        write_result_csv(result, config, out)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    eps, delta = args.eps, args.delta
    if not 0.0 < delta < 1.0 / 3.0:
        raise ValueError("delta must lie in (0, 1/3) so the design target exceeds 2/3")
    z = 1.0 - delta
    omega = raptor_omega(eps)
    r_omega = r_of_z(z, omega)
    design = truncated_soliton(z)
    print(f"target recovery fraction z = {z:.9g}")
    print(f"raptor_omega(eps={eps:g}): r = {r_omega:.9g}")
    print(f"truncated_soliton(z={z:g}): r = a = {design.a:.9g}")
    winner = "truncated_soliton" if design.a < r_omega else "raptor_omega"
    print(f"smaller rate: {winner}")
    return 0


def cmd_curves(args: argparse.Namespace) -> int:
    step = args.grid_step
    validate_grid_step(step)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory: {exc}") from exc

    # exact region: known-optimal rate with the LP outer bound alongside
    zs = [round(0.02 * j, 2) for j in range(1, 34)]
    zs.append(2.0 / 3.0)
    top = out_dir / "exact_region.csv"
    with _output(top) as out:
        out.write(f"# fountain-lab {__version__} curves grid_step={step:g}\n")
        out.write("z,r_exact,r_outer\n")
        for z in zs:
            r_exact = optimal_distribution(z)[1]
            r_outer = dual_outer_bound(z, step)
            out.write(f"{CSV_FLOAT % z},{CSV_FLOAT % r_exact},{CSV_FLOAT % r_outer}\n")

    # region above 2/3: outer bound against the truncated-soliton designs
    bottom = out_dir / "design_region.csv"
    zs2 = [round(0.67 + 0.01 * j, 2) for j in range(0, 29)]
    with _output(bottom) as out:
        out.write(f"# fountain-lab {__version__} curves grid_step={step:g}\n")
        out.write("z,r_outer,r_inner,m\n")
        for z in zs2:
            r_outer = dual_outer_bound(z, step)
            design = truncated_soliton(z)
            out.write(
                f"{CSV_FLOAT % z},{CSV_FLOAT % r_outer},"
                f"{CSV_FLOAT % design.a},{design.m}\n"
            )
    print(f"wrote {top} and {bottom}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Building the whole tree costs about twenty times one parse_args, which
    every in-process caller (tests, benchmarks, notebooks) would pay per
    call. The parser holds no state between parses, and each cmd_* finds
    the library functions it calls through this module's globals, so
    patching those still takes effect. Patching a cmd_* itself does not:
    the parser keeps the function it was built with.
    """
    parser = argparse.ArgumentParser(
        prog="fountain-lab",
        description="Rateless-code intermediate performance: analysis, bounds, design, simulation.",
    )
    parser.add_argument("--version", action="version", version=f"fountain-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="asymptotic recovered fraction s(r) for a distribution")
    _add_dist_flags(p)
    p.add_argument("--r", type=float, action="append", help="rate value (repeatable)")
    p.add_argument("--r-range", nargs=3, type=float, metavar=("START", "STOP", "STEP"))
    p.add_argument("--grid-step", type=float, default=1e-4)
    p.add_argument("--refine-tol", type=float, default=1e-9)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bound", help="LP lower/upper rate bounds for recovery targets")
    p.add_argument("--z", type=float, action="append", required=True)
    p.add_argument("--grid-step", type=float, default=1e-3)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("design", help="write the best known distribution for a target z")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("simulate", help="Monte Carlo decoded-fraction sweep")
    _add_dist_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=float, action="append", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument(
        "--receive-model", choices=["deterministic_n", "poisson_n"],
        default="deterministic_n",
    )
    p.add_argument("--seed", type=int, default=20240601)
    p.add_argument(
        "--realize-delta", type=float, default=0.01,
        help="degree-one mass granted to distributions that have none (0 disables)",
    )
    p.add_argument("--no-asymptotic", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="Raptor output distribution vs the truncated design")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("curves", help="write the two summary curve CSVs")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--grid-step", type=float, default=1e-3)
    p.set_defaults(func=cmd_curves)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, UnknownRegionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
