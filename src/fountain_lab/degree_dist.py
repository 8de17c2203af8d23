"""Output-degree distributions for rateless codes.

Everything here is a finite probability mass function over output degrees
d >= 1. The constructors cover the families that matter for intermediate
performance: the classic soliton shapes, their heavy-tailed limit, the
truncated/rescaled designs for recovery targets above 2/3, the Raptor output
distribution, and the degree-one perturbation that makes a heavy-tailed
distribution startable by the peeling decoder.

Masses are stored sparsely (support list) as 64-bit floats. Constructors are
required to hit a mass sum of 1 within 1e-12 on their own; no hidden
renormalization is applied after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, Callable, Mapping, Union

import numpy as np

MASS_SUM_TOL = 1e-12

# largest degree a constructor builds: one dict entry per degree
MAX_DEGREE = 10**6

# power sums drop the terms w t^e with t^e < e^-46 ~ 1e-20, which moves a sum
# by less than 1e-20 times its weights' total (the mean degree, for P'(t))
_TRUNC_LOG = 46.0

# most powers of t (or partial sums) one chunk of a power sum holds, besides
# the split path's weight grid: 512 KiB of float64
_CHUNK_ELEMENTS = 1 << 16

# a stack of weight rows is summed with its powers below e^-644 ~ 1e-280 set
# to 0, not computed: pows that underflow, and subnormal operands, are slow.
# Three rows of a 10^4-degree support at 320 points spread over (0, 1),
# whose giant-step table holds 6,035 zero and 146 subnormal powers among
# 32,000, took 1.44 ms so against 2.05 ms. Every dropped term is
# nonnegative where the weights are, so the sums come out low, never high
_FLUSH_LOG = -644.0


def _check_degree(d: int) -> None:
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"degrees must be integers >= 1, got {d!r}")
    if d > 2**63 - 1:  # degree_array holds them as int64
        raise ValueError(f"degrees must be at most 2**63 - 1, got {d!r}")


def _check_mass(m: float) -> None:
    if not math.isfinite(m) or m < 0.0:
        raise ValueError(f"masses must be finite and >= 0, got {m!r}")


class UnknownRegionError(ValueError):
    """No exactly optimal distribution is known for this recovery target."""


@dataclass(frozen=True)
class DegreeDistribution:
    """Sparse probability mass function over output degrees.

    entries: ordered (degree, mass) pairs, degrees distinct and ascending,
    masses nonnegative and summing to 1 within MASS_SUM_TOL.
    """

    entries: tuple[tuple[int, float], ...]
    label: str = ""

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("distribution needs at least one entry")
        degrees = [d for d, _ in self.entries]
        masses = [m for _, m in self.entries]
        for d in degrees:
            _check_degree(d)
        if any(b <= a for a, b in zip(degrees, degrees[1:])):
            raise ValueError("degrees must be strictly ascending")
        for m in masses:
            _check_mass(m)
        total = math.fsum(masses)
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise ValueError(f"masses sum to {total!r}, not 1 within {MASS_SUM_TOL}")

    @classmethod
    def from_mapping(
        cls, masses: Mapping[int, float], label: str = ""
    ) -> "DegreeDistribution":
        entries = tuple(sorted((int(d), float(m)) for d, m in masses.items()))
        return cls(entries, label)

    @cached_property
    def _lookup(self) -> dict[int, float]:
        return dict(self.entries)

    @cached_property
    def degree_array(self) -> np.ndarray:
        arr = np.array([d for d, _ in self.entries], dtype=np.int64)
        arr.flags.writeable = False
        return arr

    @cached_property
    def mass_array(self) -> np.ndarray:
        arr = np.array([m for _, m in self.entries], dtype=np.float64)
        arr.flags.writeable = False
        return arr

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.entries)

    @property
    def max_degree(self) -> int:
        return self.entries[-1][0]

    def mass(self, degree: int) -> float:
        return self._lookup.get(degree, 0.0)

    def as_dict(self) -> dict[int, float]:
        return dict(self.entries)

    @cached_property
    def _derivative_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Exponents d - 1 and weights d P(d) of P'(t)."""
        return self.degree_array - 1, self.mass_array * self.degree_array

    def mean_degree(self) -> float:
        return float(np.dot(self.degree_array, self.mass_array))


def _kept_terms(exponents: np.ndarray, t_max: float) -> int:
    """How many leading exponents e keep t_max^e >= exp(-_TRUNC_LOG); at least one."""
    if t_max < 1.0:
        # an int limit keeps searchsorted from casting the exponents to float
        limit = int(_TRUNC_LOG / -math.log(t_max)) if t_max > 0.0 else 0
        if limit < exponents[-1]:
            return max(int(np.searchsorted(exponents, limit, side="right")), 1)
    return exponents.size


def _split(e_max: int) -> tuple[int, int]:
    """Baby step b = isqrt(e_max) + 1 and top giant step q_max = e_max // b.

    Each e <= e_max is q*b + r with 0 <= q <= q_max < b and 0 <= r < b.
    """
    b = math.isqrt(e_max) + 1
    return b, e_max // b


def _flushed_powers(t: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """t^e for each t (rows) and e (columns), with 0 where t^e < exp(_FLUSH_LOG)."""
    # 0^e underflows nothing, so the positive t alone decide the path
    t_min = float(t.min()) if t.size else 1.0
    if t_min == 0.0:
        t_min = float(t.min(initial=1.0, where=t > 0.0))
    if exponents[-1] * math.log(t_min) > _FLUSH_LOG:
        return np.power.outer(t, exponents)
    # t = 0 maps to a log below _FLUSH_LOG, so 0^0 = 1 stays and 0^e goes
    keep = np.multiply.outer(np.log(np.maximum(t, 1e-300)), exponents) > _FLUSH_LOG
    return np.power(t[:, None], exponents, out=np.zeros(keep.shape), where=keep)


def _dense_sum(exponents: np.ndarray, weights: np.ndarray, t: np.ndarray) -> np.ndarray:
    if weights.ndim > 1:
        return _flushed_powers(t, exponents) @ weights.T
    return np.power.outer(t, exponents) @ weights


def _split_sum(exponents: np.ndarray, weights: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The same sum by Paterson & Stockmeyer's baby-step/giant-step split.

    With e = q*b + r the weights go into a (q_max + 1) x b grid W, and each
    point's sum is (t^(b*q) @ W) . t^r. Both power tables come straight from
    t, not from repeated products, so each term is a product of two
    correctly rounded powers. A stack of k weight rows shares both tables,
    with a grid per row: one (q_max + 1) x (k * b) grid was 10-25 % slower
    for three rows of 10^4 degrees.
    """
    b, q_max = _split(int(exponents[-1]))
    cells = (q_max + 1) * b
    if weights.ndim == 1:
        grid = np.bincount(exponents, weights, cells).reshape(q_max + 1, b)
        out = np.power.outer(t, np.arange(0, cells, b)) @ grid
        out *= np.power.outer(t, np.arange(b))
        return out.sum(axis=1)
    giant = _flushed_powers(t, np.arange(0, cells, b))
    baby = _flushed_powers(t, np.arange(b))
    grids = (np.bincount(exponents, w, cells).reshape(q_max + 1, b) for w in weights)
    return np.stack([((giant @ grid) * baby).sum(axis=1) for grid in grids], axis=1)


def _plan(exponents: np.ndarray, points: int) -> tuple[int, Callable]:
    """Points per chunk and the chunk evaluator for these kept exponents.

    Counting a power, a multiply-add and a multiply as one step each, the
    dense path does 2*cols steps per point (cols = len(exponents)) and holds
    cols powers. The split does b + q_max + 1 powers, (q_max + 1)*b
    multiply-adds against W, b multiplies by t^r and b adds along the row;
    it holds at most 2b numbers per point (q_max + 1 <= b), and fills W's
    (q_max + 1)*b cells once per chunk. It is taken when those steps, with
    W's fill shared by the chunk's points, come to fewer per point. So W
    then has fewer than 2*cols cells, and short supports, few points and
    sparse wide supports stay on the dense path.
    """
    cols = exponents.size
    b, q_max = _split(int(exponents[-1]))
    cells = (q_max + 1) * b
    rows = min(points, _CHUNK_ELEMENTS // (2 * b))
    if rows > 0 and b + q_max + 1 + cells + 2 * b + cells / rows < 2 * cols:
        return rows, _split_sum
    return max(1, _CHUNK_ELEMENTS // cols), _dense_sum


def _power_sum(exponents: np.ndarray, weights: np.ndarray, t) -> float | np.ndarray:
    """sum_e weights[e] * t^exponents[e] for t in [0, 1] (scalar or array).

    The one evaluator behind pgf_eval and pgf_derivative; exponents are
    nonnegative and ascend. The t go in chunks of at most _CHUNK_ELEMENTS
    powers or partial sums (one point at least), all on the path _plan
    picks for the exponents kept at the largest t: dense powers, or the
    baby-step/giant-step split, which needs about 2*sqrt(e_max) powers per
    point instead of one per exponent, plus its weight grid. Each chunk
    drops the exponents e with t_max^e < exp(-_TRUNC_LOG), t_max its own
    largest t, so it holds no more than planned. Ascending t truncate best.

    weights may also be a k x len(exponents) stack of rows: the k sums then
    share the power tables, come back as a (k, *t.shape) array, and drop the
    powers below exp(_FLUSH_LOG) besides. Only a lower bound may use them.
    """
    arr = np.asarray(t, dtype=np.float64)
    flat = arr.ravel()
    if flat.size > 1:
        t_min, t_max = float(flat.min()), float(flat.max())
    else:
        t_min = t_max = float(flat[0]) if flat.size else 0.0
    if not (t_min >= 0.0 and t_max <= 1.0):  # also rejects nan
        raise ValueError("t must lie in [0, 1]")
    cols = _kept_terms(exponents, t_max)
    rows, chunk_sum = _plan(exponents[:cols], flat.size)
    if flat.size <= rows:
        out = chunk_sum(exponents[:cols], weights[..., :cols], flat)
    else:
        out = np.empty((flat.size,) + weights.shape[:-1])
        for i in range(0, flat.size, rows):
            chunk = flat[i : i + rows]
            cols = _kept_terms(exponents, float(chunk.max()))
            out[i : i + rows] = chunk_sum(exponents[:cols], weights[..., :cols], chunk)
    if weights.ndim > 1:
        return out.T.reshape(weights.shape[:1] + arr.shape)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def pgf_eval(dist: DegreeDistribution, t) -> float | np.ndarray:
    """Generating function sum_i P(i) t^i at t in [0, 1] (scalar or array)."""
    return _power_sum(dist.degree_array, dist.mass_array, t)


def pgf_derivative(dist: DegreeDistribution, t) -> float | np.ndarray:
    """Derivative sum_i P(i) i t^(i-1); equals P(1) at t = 0."""
    exponents, weights = dist._derivative_terms
    return _power_sum(exponents, weights, t)


def _taylor_terms(
    exponents: np.ndarray, weights: np.ndarray, a: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A'(a), A''(a) and A'''(a) at ascending cell starts a, A' = sum weights t^exponents.

    One stacked power sum of the rows w, w e and w e (e - 1) over the terms
    kept at the largest a gives A', a A'' and a^2 A'''; its dropped and
    flushed powers only lower them. At a = 0, A''(0) and A'''(0) / 2 are
    the coefficients of t and t^2.
    """
    cols = _kept_terms(exponents, float(a[-1]))
    e, w = exponents[:cols], weights[:cols]
    rows = np.empty((3, cols))  # in place: np.stack of the products took 6x as long
    rows[0] = w
    np.multiply(w, e, out=rows[1])
    np.multiply(rows[1], e - 1, out=rows[2])
    d1, d2, d3 = _power_sum(e, rows, a)
    with np.errstate(divide="ignore", invalid="ignore"):  # a = 0 is set below
        d2, d3 = d2 / a, d3 / (a * a)
    if a[0] == 0.0:
        d2[0], d3[0] = (k * weights[exponents == k].sum() for k in (1, 2))
    return d1, d2, d3


def _check_max_degree(what: str, degree: float) -> None:
    if not degree <= MAX_DEGREE:
        raise ValueError(f"{what} needs degree {degree:g}, above MAX_DEGREE = {MAX_DEGREE}")


def ideal_soliton(k: int) -> DegreeDistribution:
    """Soliton distribution on {1..k}: mass 1/k at degree 1, 1/(i(i-1)) above.

    The sum telescopes to exactly 1. Requires k >= 2.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"ideal_soliton needs integer k >= 2, got {k!r}")
    _check_max_degree(f"ideal_soliton(k={k})", k)
    masses = {1: 1.0 / k}
    for i in range(2, k + 1):
        masses[i] = 1.0 / (i * (i - 1))
    return DegreeDistribution.from_mapping(masses, label=f"ideal_soliton(k={k})")


def limiting_soliton(max_degree: int) -> DegreeDistribution:
    """Heavy-tailed soliton limit, truncated to a finite support {2..max_degree}.

    Mass 1/(i(i-1)) on 2 <= i < max_degree; the tail deficit 1/max_degree is
    folded into the top degree, which becomes 1/(max_degree-1). Degree one
    carries no mass, so a peeling decoder cannot start on this distribution
    without a perturbation; use it to study the fragile limit itself.
    """
    m = max_degree
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"limiting_soliton needs integer max_degree >= 2, got {m!r}")
    _check_max_degree(f"limiting_soliton(max_degree={m})", m)
    masses = {i: 1.0 / (i * (i - 1)) for i in range(2, m)}
    masses[m] = 1.0 / (m - 1)
    return DegreeDistribution.from_mapping(masses, label=f"limiting_soliton(max={m})")


def robust_soliton(k: int, c: float, fail_prob: float) -> DegreeDistribution:
    """Practical soliton variant with a low-degree boost and a spike.

    Adds the usual correction term tau to the ideal soliton and normalizes:
    with R = c * ln(k/fail_prob) * sqrt(k) and spike position s = round(k/R),
    tau(i) = R/(i*k) for i < s and tau(s) = R * ln(R/fail_prob) / k. This is
    the standard construction from the original LT-code design, included here
    as finite-k simulation equipment.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"robust_soliton needs integer k >= 2, got {k!r}")
    _check_max_degree(f"robust_soliton(k={k})", k)
    if not 0.0 < c < math.inf:
        raise ValueError(f"c must be positive and finite, got {c!r}")
    if not 0.0 < fail_prob < 1.0:
        raise ValueError("fail_prob must lie in (0, 1)")
    R = c * math.log(k / fail_prob) * math.sqrt(k)
    if not 2.0 <= k / R < math.inf:  # a subnormal c overflows k / R
        raise ValueError(f"degenerate ripple size R={R!r} for k={k}")
    spike = int(round(k / R))
    if spike < 2 or spike > k:
        raise ValueError(f"spike degree {spike} outside support for k={k}")
    if R <= fail_prob:
        raise ValueError("degenerate parameters: R must exceed fail_prob")

    rho = [0.0] * (k + 1)
    rho[1] = 1.0 / k
    for i in range(2, k + 1):
        rho[i] = 1.0 / (i * (i - 1))
    tau = [0.0] * (k + 1)
    for i in range(1, spike):
        tau[i] = R / (i * k)
    tau[spike] = R * math.log(R / fail_prob) / k

    beta = math.fsum(rho[1:]) + math.fsum(tau[1:])
    masses = {i: (rho[i] + tau[i]) / beta for i in range(1, k + 1)}
    return DegreeDistribution.from_mapping(
        masses, label=f"robust_soliton(k={k},c={c:g},fail_prob={fail_prob:g})"
    )


def max_useful_degree(z: float) -> int:
    """Largest degree worth any mass for recovery target z.

    Returns the m with (m-1)/m <= z <= m/(m+1); at a boundary z = m/(m+1)
    the smaller choice is used. Mass above m cannot help reach z.
    """
    if not 0.0 < z < 1.0:
        raise ValueError(f"z must lie in (0, 1), got {z!r}")
    # small slack guards float overshoot at exactly representable boundaries
    m = math.ceil(z / (1.0 - z) - 1e-9)
    return max(m, 1)


def _log_series_tail(z: float, m: int) -> float:
    """sum_{i >= m} z^i / i via the closed form -log(1-z) - sum_{i < m} z^i / i."""
    head = math.fsum(z**i / i for i in range(1, m))
    return -math.log1p(-z) - head


@dataclass(frozen=True)
class TruncatedSolitonDesign:
    """Truncated, rescaled soliton achieving recovery fraction z at rate a."""

    z: float
    m: int
    a: float
    distribution: DegreeDistribution

    def __post_init__(self) -> None:
        if not 2.0 / 3.0 < self.z < 1.0:
            raise ValueError(f"z must lie in (2/3, 1), got {self.z!r}")
        if (self.m - 1) / self.m > self.z + 1e-12 or self.z > self.m / (self.m + 1) + 1e-12:
            raise ValueError(f"m={self.m} inconsistent with z={self.z!r}")
        if self.a < (self.m - 2) / (self.m - 1) - 1e-12:
            raise ValueError("scale a too small for nonnegative masses")
        support = self.distribution.support
        if support[0] < 2 or support[-1] > self.m:
            raise ValueError("design support must lie within {2..m}")


def truncated_soliton(z: float) -> TruncatedSolitonDesign:
    """Design a distribution that recovers fraction z in (2/3, 1) cheaply.

    With m = max_useful_degree(z) the masses are 1/(a i (i-1)) for
    2 <= i <= m-1 and 1 - (m-2)/(a(m-1)) at m, where

        a = (m-1)/m + (1/(m z^(m-1))) * sum_{i >= m} z^i / i.

    The series is evaluated through its logarithmic closed form, which stays
    accurate as z approaches 1. The asymptotic recovered fraction at rate a
    is exactly z, and a is the least rate achieving it with this shape.
    """
    if not 2.0 / 3.0 < z < 1.0:
        raise ValueError(
            f"z={z!r} outside (2/3, 1); use optimal_distribution for z <= 2/3"
        )
    m = max(max_useful_degree(z), 3)
    _check_max_degree(f"truncated_soliton(z={z!r})", m)
    tail = _log_series_tail(z, m)
    a = (m - 1) / m + tail / (m * z ** (m - 1))
    masses = {i: 1.0 / (a * i * (i - 1)) for i in range(2, m)}
    masses[m] = 1.0 - (m - 2) / (a * (m - 1))
    dist = DegreeDistribution.from_mapping(masses, label=f"truncated_soliton(z={z:g})")
    return TruncatedSolitonDesign(z=z, m=m, a=a, distribution=dist)


def raptor_omega(eps: float) -> DegreeDistribution:
    """Raptor output distribution for overhead parameter eps > 0.

    With D = ceil(4(1+eps)/eps) and mu = eps/2 + (eps/2)^2 the masses are
    mu/(1+mu) at degree 1, 1/((1+mu) i (i-1)) for 2 <= i <= D, and
    1/((1+mu) D) at degree D+1; the sum telescopes to exactly 1.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    # the 1e-9 slack keeps D exact when 4(1+eps)/eps is an integer but the
    # float quotient lands a hair above it
    top = 4.0 * (1.0 + eps) / eps - 1e-9
    _check_max_degree(f"raptor_omega(eps={eps:g})", top + 1.0)
    D = math.ceil(top)
    try:
        mu = eps / 2.0 + (eps / 2.0) ** 2
    except OverflowError:  # float ** raises where the square leaves float64
        raise ValueError(f"eps={eps!r} too large: mu = eps/2 + (eps/2)^2 is not finite") from None
    masses = {1: mu / (1.0 + mu)}
    for i in range(2, D + 1):
        masses[i] = 1.0 / ((1.0 + mu) * i * (i - 1))
    masses[D + 1] = 1.0 / ((1.0 + mu) * D)
    return DegreeDistribution.from_mapping(masses, label=f"raptor_omega(eps={eps:g})")


def perturb(dist: DegreeDistribution, delta: float) -> DegreeDistribution:
    """Move mass delta to degree one: Q(1) = delta + (1-delta)P(1), Q(i) = (1-delta)P(i).

    The generating function becomes (1-delta) P(t) + delta t. This is the
    canonical finite-k realization of a distribution with no degree-one mass:
    it gives the peeling decoder a starting ripple while approximating the
    original asymptotics.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    masses = {d: (1.0 - delta) * m for d, m in dist.entries}
    masses[1] = delta + masses.get(1, 0.0)
    label = f"perturb({dist.label or 'P'},delta={delta:g})"
    return DegreeDistribution.from_mapping(masses, label=label)


def optimal_distribution(z: float) -> tuple[DegreeDistribution, float]:
    """Optimal distribution and minimal rate for recovery targets z <= 2/3.

    For z <= 1/2 all mass goes on degree 1 and the rate is -log(1-z); for
    1/2 < z <= 2/3 all mass goes on degree 2 and the rate is -log(1-z)/(2z).
    Both forms agree at z = 1/2 (rate log 2); the degree-one form is returned
    there for determinism. Beyond 2/3 no optimal shape is known and
    UnknownRegionError is raised.
    """
    if not 0.0 <= z < 1.0:
        raise ValueError(f"z must lie in [0, 1), got {z!r}")
    if z > 2.0 / 3.0:
        raise UnknownRegionError(
            f"no optimal distribution is known for z={z!r} > 2/3; "
            "use truncated_soliton for a near-optimal design"
        )
    if z <= 0.5:
        return DegreeDistribution.from_mapping({1: 1.0}, label="degree1"), -math.log1p(-z)
    return (
        DegreeDistribution.from_mapping({2: 1.0}, label="degree2"),
        -math.log1p(-z) / (2.0 * z),
    )


# --- text format: one "degree<TAB>mass" pair per line, '#' comments,
# --- lines sorted lexically so plain `sort` leaves a canonical file


def write_distribution(dist: DegreeDistribution, dest: Union[str, Path, IO[str]]) -> None:
    lines = sorted(f"{d}\t{m:.17g}" for d, m in dist.entries)
    body = "".join(line + "\n" for line in lines)
    header = f"# degree distribution: {dist.label}\n" if dist.label else ""
    if hasattr(dest, "write"):
        dest.write(header + body)
    else:
        Path(dest).write_text(header + body, encoding="utf-8")


def read_distribution(src: Union[str, Path, IO[str]], label: str = "") -> DegreeDistribution:
    if hasattr(src, "read"):
        text = src.read()
    else:
        path = Path(src)
        text = path.read_text(encoding="utf-8")
        label = label or path.stem
    masses: dict[int, float] = {}
    linenos: list[int] = []  # of each record, in file order like masses
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'degree<TAB>mass', got {raw!r}")
        try:
            degree, mass = int(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: expected an integer degree and a float mass, got {raw!r}"
            ) from exc
        if degree in masses:
            raise ValueError(f"line {lineno}: duplicate degree {degree}")
        masses[degree] = mass
        linenos.append(lineno)
    try:
        return DegreeDistribution.from_mapping(masses, label=label)
    except ValueError as exc:
        for lineno, (degree, mass) in zip(linenos, masses.items()):
            try:
                _check_degree(degree)
                _check_mass(mass)
            except ValueError as bad:
                raise ValueError(f"line {lineno}: {bad}") from exc
        raise
