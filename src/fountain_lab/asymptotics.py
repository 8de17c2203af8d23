"""Asymptotic recovered fraction of the peeling decoder.

For a degree distribution P and normalized receive rate r, the decoder's
large-block behaviour is governed by the margin

    g(t) = r * P'(t) + log(1 - t),

where P' is the derivative of the generating function. Peeling sweeps through
recovered fraction t as long as g stays positive; the asymptotic recovered
fraction s(r, P) is the first t where g dips negative (or 1 if it never does).

The scan uses a strict threshold -refine_tol instead of 0: on knife-edge
inputs (heavy-tailed soliton at r = 1) the true margin is identically ~0 and
a plain sign test would flip on float noise. Results are therefore reported
up to grid resolution, deterministically.

The scan skips what cannot change its answer. P' has nonnegative
coefficients, so it is nondecreasing on [0, 1), and on a cell of grid
points a..b the margin is at least r * P'(a) + log(1 - b). Where that bound
exceeds refine_tol by more than a rounding allowance (1e-11 of its two
terms' sizes, more on supports above 45,000 degrees), the cell holds no
point at or below refine_tol and is not evaluated. Across a cell
log(1 - t) alone falls by more than b - a, so a cell can clear only where
the margin exceeds its width: the cells of a chunk are bounded only after a
chunk whose least margin did, and knife-edge scans pay nothing for the
bound. The crossing is then bisected in batches: one peeling_margin call
evaluates every midpoint the next six steps could visit, so a default-step
crossing takes three calls, not seventeen. Both return the same s and the
same weak points, bit for bit, as a full scan with scalar bisection.

Every P'(t) here is a call of pgf_derivative, whose one chunked evaluator
drops the terms with t^(d-1) < e^-46 ~ 1e-20 (moving P'(t) by less than 1e-20
times the mean degree). Its chunks hold at most 2^16 powers of t: near t = 1
on a 10^4-degree support that is a baby-step/giant-step split, about 200
powers per point and one 100 x 100 weight grid, not 10^4 powers per point.
"""

from __future__ import annotations

import math

import numpy as np

from .degree_dist import DegreeDistribution, pgf_derivative

DEFAULT_GRID_STEP = 1e-4
DEFAULT_REFINE_TOL = 1e-9

# most points one scan may visit, so grid steps go down to 1e-6
MAX_GRID_POINTS = 10**6

# grid points per step of the scan, which stops at the first chunk holding
# the crossing
_SCAN_CHUNK = 512

# grid points per cell of the scan's lower bound. One round of the asym_scan
# benchmark's s_of_r and check_margin_condition calls (one process, 2 vCPUs,
# 25 rounds interleaved) took 24.7, 24.8, 25.4 and 28.8 ms at 32, 64, 128 and
# 256 points, and evaluated 64,030, 65,542, 69,574 and 77,476 points; without
# the bound, 34.6 ms and 132,282 points
_CELL = 64
# least relative allowance for rounding in that bound. A P' sum of n
# nonnegative terms is off by at most about n * 1.1e-16 of its size, so the
# allowance is n * 2.2e-16 where that is larger (n above 45,000); the terms
# the evaluator drops lower P' by under 1e-20 of the mean degree
_BOUND_SLACK = 1e-11
# bisection steps per batched peeling_margin call. The same round took 25.3,
# 24.8, 24.8 and 31.1 ms at 3, 5, 6 and 8 steps: fewer steps cost calls,
# more cost points (2^steps - 1 per call)
_TREE_LEVELS = 6
_TREE_NODES = 2**_TREE_LEVELS - 1


def peeling_margin(t, r: float, dist: DegreeDistribution) -> float | np.ndarray:
    """g(t) = r * P'(t) + log(1-t) for t in [0, 1)."""
    arr = np.asarray(t, dtype=np.float64)
    if arr.size and (float(arr.min()) < 0.0 or float(arr.max()) >= 1.0):
        raise ValueError("t must lie in [0, 1)")
    deriv = pgf_derivative(dist, arr)
    if arr.ndim == 0:  # floats: r * P'(t) overflows to +inf, silently
        return float(float(r) * deriv + np.log1p(-arr))
    with np.errstate(over="ignore"):  # +inf is the margin's right sign
        return r * deriv + np.log1p(-arr)


def validate_grid(grid_step: float, refine_tol: float | None = None) -> None:
    """Reject a scan grid of more than MAX_GRID_POINTS points or a bad refine_tol."""
    if not 1.0 / MAX_GRID_POINTS <= grid_step <= 0.1:
        raise ValueError(f"grid_step must lie in [{1 / MAX_GRID_POINTS:g}, 0.1], got {grid_step!r}")
    # a bisection cannot shrink its bracket below float spacing (up to eps/2
    # on [0, 1)), so a refine_tol under eps would never be reached
    eps = float(np.finfo(float).eps)
    if refine_tol is not None and not eps <= refine_tol <= grid_step:
        raise ValueError(
            f"refine_tol must lie in [{eps:g} (float epsilon), grid_step], got {refine_tol!r}"
        )


def _grid_closed(z: float, grid_step: float) -> np.ndarray:
    """Grid points j*grid_step inside [0, z), with z appended as final point."""
    pts = np.arange(0.0, z, grid_step)
    if pts.size and z - pts[-1] <= 1e-12:
        pts = pts[:-1]
    return np.append(pts, z)


def _rate_ratio(t, deriv):
    """-log(1-t) / deriv, the least rate whose margin holds at t; inf where deriv <= 0."""
    return np.where(deriv > 0.0, -np.log1p(-t) / np.maximum(deriv, 1e-300), np.inf)


# golden-section steps of r_of_z's polish; each shrinks the bracket (two grid
# cells) by 0.618, so 25 steps leave 6e-6 of it: 1e-9 wide at r_of_z's
# default step. A smooth peak is flat to second order, so the value found is
# then exact to rounding. lp_bounds' design check bounds the same kind of
# ratio from above on every cell instead of searching for its peak
_GOLDEN_STEPS = 25
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float) -> float:
    """Largest f seen by golden-section search for its peak inside [lo, hi].

    f maps a point to its value. It sees two interior points, then one a step.
    """
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fc, fd = float(f(c)), float(f(d))
    best = max(fc, fd)
    for _ in range(_GOLDEN_STEPS):
        if fc >= fd:  # the peak lies in [lo, d]
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = float(f(c))
            best = max(best, fc)
        else:  # in [c, hi]
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = float(f(d))
            best = max(best, fd)
    return best


def _crossing(
    r: float, dist: DegreeDistribution, grid_step: float, refine_tol: float
) -> tuple[float, np.ndarray]:
    """s(r, P), and the grid points below it where the margin is at most refine_tol."""
    if r < 0.0 or not math.isfinite(r):
        raise ValueError(f"r must be finite and >= 0, got {r!r}")
    validate_grid(grid_step, refine_tol)

    n_pts = int(round(1.0 / grid_step))
    weak, hit = [], None
    bounding = False  # whether this chunk's cells are bounded before evaluation
    slack = max(_BOUND_SLACK, dist.degree_array.size * np.finfo(float).eps)
    with np.errstate(over="ignore"):  # as in peeling_margin
        for start in range(0, n_pts, _SCAN_CHUNK):
            idx = np.arange(start, min(start + _SCAN_CHUNK, n_pts))
            if bounding:
                # P' is nondecreasing, so r P'(a) + log(1 - b) bounds the
                # margin from below on the cell of grid points a..b
                firsts = idx[::_CELL]
                head = r * pgf_derivative(dist, firsts * grid_step)  # >= 0
                tail = np.log1p(-np.minimum(firsts + (_CELL - 1), idx[-1]) * grid_step)  # < 0
                open_cells = head + tail <= refine_tol + slack * (head - tail)
                n_open = np.count_nonzero(open_cells)
                if n_open == 0:
                    continue
                if n_open < open_cells.size:
                    idx = idx[np.repeat(open_cells, _CELL)[: idx.size]]
            ts = idx * grid_step
            vals = r * pgf_derivative(dist, ts) + np.log1p(-ts)
            bad = np.flatnonzero(vals < -refine_tol)
            end = int(bad[0]) if bad.size else ts.size
            weak.append(ts[:end][vals[:end] <= refine_tol])
            if bad.size:
                hit = int(idx[end])
                break
            bounding = float(vals.min()) > _CELL * grid_step
    weak = np.concatenate(weak)
    if hit is None:
        return 1.0, weak
    # the margin at t=0 is r*P(1) >= 0, so a bracket always exists
    lo = (hit - 1) * grid_step
    hi = hit * grid_step
    while hi - lo > refine_tol:
        # the midpoints the next _TREE_LEVELS steps could visit, breadth-first:
        # node i's bracket splits at mids[i] into nodes 2i + 1 and 2i + 2
        mids, nodes = [], [(lo, hi)]
        for a, b in nodes:  # the loop reaches the nodes it appends
            mid = 0.5 * (a + b)
            mids.append(mid)
            if len(nodes) < _TREE_NODES:
                nodes += [(a, mid), (mid, b)]
        below = peeling_margin(np.array(mids), r, dist) < -refine_tol
        i = 0
        for _ in range(_TREE_LEVELS):
            if hi - lo <= refine_tol:
                break
            if below[i]:
                hi, i = mids[i], 2 * i + 1
            else:
                lo, i = mids[i], 2 * i + 2
    return 0.5 * (lo + hi), weak


def s_of_r(
    r: float,
    dist: DegreeDistribution,
    grid_step: float = DEFAULT_GRID_STEP,
    refine_tol: float = DEFAULT_REFINE_TOL,
) -> float:
    """Asymptotic recovered fraction at rate r.

    Scans t = 0, grid_step, 2*grid_step, ... for the first point where the
    margin drops below -refine_tol, then bisects the bracketing cell down to
    width refine_tol. Returns 1.0 if no grid point up to 1 - grid_step goes
    negative.

    The scan leaves out the 64-point cells whose monotone lower bound
    r * P'(first point) + log(1 - last point) clears refine_tol, and the
    bisection evaluates the 63 midpoints of its next six steps in one call
    (module docstring). Neither changes the result.
    """
    return _crossing(r, dist, grid_step, refine_tol)[0]


def r_of_z(
    z: float,
    dist: DegreeDistribution,
    grid_step: float = DEFAULT_GRID_STEP,
) -> float:
    """Least rate whose asymptotic recovered fraction reaches z.

    Equals the supremum over t in (0, z] of -log(1-t) / P'(t): the margin is
    nonnegative on [0, z) exactly when r dominates that ratio everywhere
    (the ratio extends continuously to t = z, so the closed endpoint is
    included in the grid). Returns inf when the distribution has neither
    degree-1 nor degree-2 mass: the ratio then diverges toward t = 0 and no
    finite rate reaches a positive target.
    """
    if not 0.0 <= z < 1.0:
        raise ValueError(f"z must lie in [0, 1), got {z!r}")
    validate_grid(grid_step)
    if z == 0.0:
        return 0.0
    if dist.mass(1) == 0.0 and dist.mass(2) == 0.0:
        # the ratio diverges like 1/t toward t = 0: no finite rate starts
        return math.inf
    # limit of the ratio at t -> 0+: 0 when P(1) > 0, else 1/(2 P(2))
    origin_limit = 0.0 if dist.mass(1) > 0.0 else 1.0 / (2.0 * dist.mass(2))

    ts = _grid_closed(z, grid_step)
    # t = 0 gives origin_limit; the grid maximum is polished between its
    # neighbours by scalar golden-section search, not by lp_bounds' cell
    # bound: the benchmark's asymptotics.polish_s (perfbench/tracing.py)
    # times these scalar pgf_derivative calls, until the library has its own
    # recorder (ROADMAP item 1)
    ratios = _rate_ratio(ts[1:], pgf_derivative(dist, ts[1:]))
    best = int(np.argmax(ratios)) + 1
    lo, hi = ts[best - 1], ts[min(best + 1, ts.size - 1)]
    polished = _golden_max(lambda t: _rate_ratio(t, pgf_derivative(dist, t)), lo, hi)
    return max(float(ratios[best - 1]), polished, origin_limit)


def check_margin_condition(
    r: float,
    dist: DegreeDistribution,
    grid_step: float = DEFAULT_GRID_STEP,
    refine_tol: float = DEFAULT_REFINE_TOL,
) -> bool:
    """Whether the margin stays strictly positive up to s(r, P).

    This is the hypothesis under which the asymptotic formula describes the
    actual decoder limit. Grid points where the margin sits within
    +-refine_tol of zero fail the check unless they are endpoints (t = 0, or
    within two grid steps of s, where the crossing itself lives).
    """
    s, weak = _crossing(r, dist, grid_step, refine_tol)
    return not np.any((weak > 0.0) & (weak < s - 2.0 * grid_step))
