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

The scan skips what cannot change its answer. After a chunk that ends
without a crossing and with a margin m above refine_tol, the rest of the
scan is cut into Taylor cells of equal width kappa in -log(1 - t), with
kappa^3 = (m - refine_tol) / 2 but no wider than what is left of the scan.
The margin exceeds refine_tol exactly where r exceeds the ratio
(refine_tol - log(1 - t)) / P'(t), whose supremum at refine_tol = 0 is
r_of_z. _ratio_bound, which also certifies lp_bounds' design, bounds that
ratio on a cell from above in closed form, to within about kappa^3, by
second-order Taylor bounds of P' (nonnegative coefficients) and of
log(1 - t). A cell where r exceeds the bound holds no point at or below
refine_tol and is not evaluated. The cells are bounded in doubling batches, and only those the bound cannot clear are evaluated: the
ideal soliton's scans evaluate 565 points at r = 1.2 and, where the margin
stays about 1e-4 over all of [0, 1), 925 at r = 1 (its bisection's
included), instead of 10,000 and 10,189. Where the margin is about 0 (the
limiting soliton at r = 1) no cell could clear and none is bounded. The
crossing is then bisected in batches: one peeling_margin call evaluates
every midpoint the next six steps could visit, so a default-step crossing
takes three calls, not seventeen. At the default refine_tol all of this
returns the same s and weak points, bit for bit, as a full scan with
scalar bisection; at refine_tol 1e-12, 18 of 71,446 knife-edge rates tried
give an s off by less than refine_tol (a point's margin and a batch's
differ in the last bit). check_margin_condition shares the scan and stops
at the first weak point that settles its answer.

Every P'(t) the scan and the bisection evaluate is a call of
pgf_derivative, whose one chunked evaluator drops the terms with
t^(d-1) < e^-46 ~ 1e-20 (moving P'(t) by less than 1e-20 times the mean
degree). Its chunks hold at most 2^16 powers of t: near t = 1 on a
10^4-degree support that is a baby-step/giant-step split, about 200 powers
per point and one 100 x 100 weight grid, not 10^4 powers per point. The
cell bound takes A', t A'' and t^2 A''' at its cell starts from one
stacked power sum of the same evaluator (degree_dist._taylor_terms), whose
dropped and flushed terms only lower them.
"""

from __future__ import annotations

import math

import numpy as np

from .degree_dist import DegreeDistribution, _taylor_terms, pgf_derivative

DEFAULT_GRID_STEP = 1e-4
DEFAULT_REFINE_TOL = 1e-9

# most points one scan may visit, so grid steps go down to 1e-6
MAX_GRID_POINTS = 10**6

# grid points per step of the scan, which stops at the first chunk holding
# the crossing
_SCAN_CHUNK = 512

# least relative allowance for rounding in the cell bound (_ratio_bound). A
# sum of n nonnegative terms is off by at most about n * 1.1e-16 of its size,
# so the allowance is n * 2.2e-16 where that is larger (n above 45,000); the
# terms the evaluator drops lower A' by under 1e-20 of its weights' total
_BOUND_SLACK = 1e-11
# bisection steps per batched peeling_margin call. One round of the
# asym_scan benchmark's s_of_r and check_margin_condition calls (one
# process, 2 vCPUs, 25 rounds interleaved, before the scan had Taylor cells)
# took 25.3, 24.8, 24.8 and 31.1 ms at 3, 5, 6 and 8 steps: fewer steps
# cost calls, more cost points (2^steps - 1 per call)
_TREE_LEVELS = 6
_TREE_NODES = 2**_TREE_LEVELS - 1
# Taylor cells (_taylor_open) are bounded in batches: 32 cells by the first
# call, twice as many by each later one. Bounding a cell start sums three
# rows over the whole support near t = 1, so cells stop where they would
# span fewer than 8 grid points. The same round on this scan (2 vCPUs, one
# BLAS thread, 40 rounds interleaved) took 9.5, 9.4, 9.5 and 9.6 ms at 2, 4,
# 8 and 16 points, and 10.8, 10.1, 9.5, 9.2 and 9.0 ms at first batches of
# 8, 16, 32, 64 and 128 cells. 32 is kept although 64 and 128 make that
# round faster: they slow the scans that cross early, such as the robust
# soliton's at r = 1, which crosses at t = 0.10 (0.61 ms at 64 against 0.49
# ms at 32). The end-to-end asym_scan figures of 32, 64 and 128 are not
# compared yet
_TAYLOR_BATCH = 32
_TAYLOR_MIN_SPAN = 8


def peeling_margin(t, r: float, dist: DegreeDistribution) -> float | np.ndarray:
    """g(t) = r * P'(t) + log(1-t) for t in [0, 1)."""
    arr = np.asarray(t, dtype=np.float64)
    if arr.size and not (float(arr.min()) >= 0.0 and float(arr.max()) < 1.0):  # also nan
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
# then exact to rounding. _ratio_bound bounds the same ratio from above on
# every cell instead of searching for its peak
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


def _taylor_cells(
    start: int, margin: float, grid_step: float, refine_tol: float, n_pts: int
) -> np.ndarray | None:
    """Bounds (grid indices) of the Taylor cells from index start on, or None.

    The cells have equal width kappa in -log(1 - t), hold at most
    _SCAN_CHUNK points each, and stop where they would span fewer than
    _TAYLOR_MIN_SPAN grid points (kappa (1 - t) < _TAYLOR_MIN_SPAN *
    grid_step); None where no cell would span that many. Their bound
    (_taylor_open) clears a cell whose margin exceeds refine_tol by more
    than about kappa^3, so kappa^3 is half of margin - refine_tol, margin
    being the last one the scan saw. kappa is at most the scan's remaining
    width in -log(1 - t), without which a large margin would give no cell
    at all.
    """
    if n_pts - 1 - start < _TAYLOR_MIN_SPAN:
        return None
    x0 = -math.log1p(-start * grid_step)
    x_end = -math.log1p(-(n_pts - 1) * grid_step)
    kappa = min(math.cbrt(0.5 * (margin - refine_tol)), x_end - x0)
    x1 = min(math.log(kappa / (_TAYLOR_MIN_SPAN * grid_step)), x_end)
    if x1 <= x0:
        return None
    j = np.arange(math.floor(x0 / kappa) + 1, math.floor(x1 / kappa) + 1)
    ends = np.ceil(-np.expm1(-kappa * j) / grid_step).astype(np.int64)
    ends = ends[(ends > start) & (ends < n_pts)]
    if not ends.size or ends[-1] - start < _TAYLOR_MIN_SPAN:
        return None
    # sorted and deduplicated by hand: np.union1d imports numpy.ma on first use
    cuts = np.sort(np.concatenate((ends, np.arange(start, ends[-1], _SCAN_CHUNK))))
    return cuts[np.diff(cuts, prepend=-1) > 0]


def _ratio_bound(
    exponents: np.ndarray, weights: np.ndarray, a: np.ndarray, b: np.ndarray, shift: float = 0.0
) -> np.ndarray:
    """An upper bound of (shift - log(1 - t)) / A'(t) on each cell [a, b].

    A'(t) = sum weights t^exponents has nonnegative coefficients, so on a
    cell, with u = t - a, A'(t) >= L(u) and shift - log(1 - t) <= U(u) for
        L(u) = A'(a) + A''(a) u + A'''(a) u^2 / 2,
        U(u) = shift - log(1 - a) + u / (1 - a) + u^2 / (2 (1 - b)^2).
    (U/L)' vanishes at the roots of a quadratic (the cubic terms cancel), so
    the largest U/L on [0, b - a] lies at an end or at a root: a closed form
    for all cells at once, from A', A'' and A''' at the ascending cell
    starts (degree_dist._taylor_terms). Where U(0) = L(0) = 0 (a, shift and
    A'(0) all 0) U/L tends to 1/A''(0) as u -> 0+, inf if A''(0) = 0 too.

    The bound is raised by max(_BOUND_SLACK, n eps) of itself for n terms.
    That relative allowance covers rounding: U and L sum nonnegative terms,
    so neither loses digits to cancellation, and a root misplaced by delta
    loses only O(delta^2) at an interior maximum.
    """
    l0, l1, l2 = _taylor_terms(exponents, weights, a)
    l2 = 0.5 * l2
    u0, u1, u2 = shift - np.log1p(-a), 1.0 / (1.0 - a), 0.5 / (1.0 - b) ** 2
    # (U/L)' = 0 where c2 u^2 + c1 u + c0 = 0, at q / c2 and c0 / q below
    c0, c1, c2 = u1 * l0 - u0 * l1, 2.0 * (u2 * l0 - u0 * l2), u2 * l1 - u1 * l2
    h = b - a
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (c1 + np.copysign(np.sqrt(c1 * c1 - 4.0 * c2 * c0), c1))
        best = u0 / l0
        if math.isnan(best[0]):  # U(0) = L(0) = 0: the limit U'(0) / L'(0)
            best[0] = u1[0] / l1[0]
        # a root outside the cell moves to its nearer end, and a nan one (no
        # real root) to its start; fmax skips the nan of a ratio 0/0
        for u in (h, np.fmin(np.fmax(q / c2, 0.0), h), np.fmin(np.fmax(c0 / q, 0.0), h)):
            np.fmax(best, (u0 + (u1 + u2 * u) * u) / (l0 + (l1 + l2 * u) * u), out=best)
    return best * (1.0 + max(_BOUND_SLACK, exponents.size * np.finfo(float).eps))


def _taylor_open(
    r: float,
    dist: DegreeDistribution,
    lo: np.ndarray,
    hi: np.ndarray,
    grid_step: float,
    refine_tol: float,
) -> np.ndarray:
    """Whether each cell of grid points lo..hi-1 may hold a margin at or below refine_tol.

    Where P' > 0 the margin exceeds refine_tol exactly when r exceeds
    (refine_tol - log(1 - t)) / P'(t), so a cell is clear where r exceeds
    _ratio_bound's bound of that ratio.
    """
    a, b = lo * grid_step, (hi - 1) * grid_step
    return ~(r > _ratio_bound(*dist._derivative_terms, a, b, refine_tol))


def _crossing(
    r: float, dist: DegreeDistribution, grid_step: float, refine_tol: float, settle: bool = False
) -> tuple[float, np.ndarray]:
    """s(r, P), and the grid points below it where the margin is at most refine_tol.

    With settle, the scan stops at its first weak point t_w > 0 that lies
    more than two grid steps below L * grid_step, where no grid point up to
    index L has a margin below -refine_tol, and returns L * grid_step, which
    is at most s, in place of s: check_margin_condition's answer is then
    settled.
    """
    if r < 0.0 or not math.isfinite(r):
        raise ValueError(f"r must be finite and >= 0, got {r!r}")
    validate_grid(grid_step, refine_tol)

    n_pts = int(round(1.0 / grid_step))
    weak, hit = [], None
    first_weak = math.inf  # least weak point above 0, tracked with settle
    start = 0  # first grid index of the next chunk
    cells = None  # bounds of the Taylor cells not yet bounded
    pending = np.empty(0, dtype=np.int64)  # points of open Taylor cells
    with np.errstate(over="ignore"):  # as in peeling_margin
        while True:
            taylor = pending.size > 0
            if taylor:
                idx, pending = pending[:_SCAN_CHUNK], pending[_SCAN_CHUNK:]
            elif cells is not None:
                lo, hi = cells[:-1][:batch], cells[1:][:batch]
                cells = cells[batch:] if cells.size > batch + 1 else None
                batch *= 2
                keep = _taylor_open(r, dist, lo, hi, grid_step, refine_tol)
                lo, hi = lo[keep], hi[keep]
                widths = hi - lo
                starts = np.repeat(lo - np.cumsum(widths) + widths, widths)
                pending = starts + np.arange(widths.sum())
                continue
            elif start < n_pts:
                idx = np.arange(start, min(start + _SCAN_CHUNK, n_pts))
                start += _SCAN_CHUNK
            else:
                break
            ts = idx * grid_step
            vals = r * pgf_derivative(dist, ts) + np.log1p(-ts)
            bad = np.flatnonzero(vals < -refine_tol)
            end = int(bad[0]) if bad.size else ts.size
            weak.append(ts[:end][vals[:end] <= refine_tol])
            if settle and math.isinf(first_weak) and weak[-1].size:
                first_weak = float(np.min(weak[-1], where=weak[-1] > 0.0, initial=math.inf))
            # no grid point up to index last has a margin below -refine_tol
            last = int(idx[end]) - 1 if bad.size else int(idx[-1])
            if first_weak < last * grid_step - 2.0 * grid_step:
                return last * grid_step, np.concatenate(weak)
            if bad.size:
                hit = last + 1
                break
            if not taylor and refine_tol < vals[-1] and start < n_pts:
                # Taylor cells bound the rest of the scan
                cells = _taylor_cells(start, float(vals[-1]), grid_step, refine_tol, n_pts)
                if cells is not None:
                    start, batch = int(cells[-1]), _TAYLOR_BATCH
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

    The scan leaves out the Taylor cells on which a second-order bound
    keeps the margin above refine_tol; the bisection evaluates the 63
    midpoints of its next six steps in one call (module docstring). Neither
    changes the result at the default refine_tol.
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
    # neighbours by scalar golden-section search, not by _ratio_bound, which
    # bounds the supremum from above: the benchmark's asymptotics.polish_s
    # (perfbench/tracing.py) times these scalar pgf_derivative calls, until
    # the library has its own recorder (ROADMAP item 1)
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

    The scan is s_of_r's, and it stops at the first weak point t_w > 0 that
    lies more than two grid steps below a grid point the scan has passed
    without a crossing: s lies beyond that point, so the answer is False.
    """
    s, weak = _crossing(r, dist, grid_step, refine_tol, settle=True)
    return not np.any((weak > 0.0) & (weak < s - 2.0 * grid_step))
