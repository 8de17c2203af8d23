"""Monte Carlo validation of the asymptotic predictions at finite block size.

Runs the real encoder/decoder over grids of receive rates, aggregates the
decoded fractions, and (optionally) annotates each row with the asymptotic
prediction for side-by-side comparison.

Reproducibility: every trial derives its own 64-bit seed from
(base_seed, bits(r), trial_index) through mix64, so results are independent
of execution order and of how trials are scheduled across workers. The
receive count is either round(r*k) or Poisson(r*k) depending on the
configured receive model; both are exposed because the asymptotic theory is
stated for the Poisson model while practice usually fixes n.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from . import CSV_FLOAT, __version__
from .asymptotics import s_of_r
from .degree_dist import DegreeDistribution
from .lt_codec import decode, encode, mix64

RECEIVE_MODELS = ("deterministic_n", "poisson_n")

# cap on n = r*k, the coded symbols of one trial; a trial's inputs, CSR
# graph, payload matrix and decoder arrays peak at about 0.49 kB per symbol
# at mean degree 19 (robust_soliton(10**5, 0.1, 0.5), k = 10**5, r = 1.3,
# traced with tracemalloc), so a trial at the cap takes about 0.5 GB
MAX_SYMBOLS = 10**6
# cap on k, the inputs of one trial; a trial takes about 90 bytes per input
# besides its coded symbols (k = 10**6, n = 1000, traced with tracemalloc),
# so k at the cap adds about 90 MB
MAX_K = 10**6
# cap on trials * len(r_values), the (r, trial) cells of one sweep; sweep
# lists every cell and every result before aggregating, about 130 bytes a
# cell, so the cap holds those lists to about 130 MB
MAX_TRIAL_CELLS = 10**6


@dataclass(frozen=True)
class SimulationConfig:
    distribution: DegreeDistribution
    k: int
    r_values: tuple[float, ...]
    trials: int
    receive_model: str = "deterministic_n"
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.trials * len(self.r_values) > MAX_TRIAL_CELLS:
            raise ValueError(f"{self.trials} trials x {len(self.r_values)} rates, above "
                             f"the cap of MAX_TRIAL_CELLS = {MAX_TRIAL_CELLS}")
        if self.k > MAX_K:
            raise ValueError(f"k={self.k} above the cap of MAX_K = {MAX_K}")
        if self.k < self.distribution.max_degree:
            raise ValueError(
                f"k={self.k} smaller than max support degree "
                f"{self.distribution.max_degree}"
            )
        for r in self.r_values:
            if not (math.isfinite(r) and r >= 0.0):
                raise ValueError(f"r={r!r}: r values must be finite and >= 0")
            if r * self.k > MAX_SYMBOLS:
                raise ValueError(
                    f"r={r!r}: n = r*k = {r * self.k:g} coded symbols per trial, "
                    f"above the cap of {MAX_SYMBOLS}"
                )
        if self.receive_model not in RECEIVE_MODELS:
            raise ValueError(f"unknown receive model {self.receive_model!r}")
        object.__setattr__(self, "r_values", tuple(float(r) for r in self.r_values))

    def digest(self) -> str:
        text = "|".join(
            [
                repr(self.distribution.entries),
                str(self.k),
                repr(self.r_values),
                str(self.trials),
                self.receive_model,
                str(self.base_seed),
            ]
        )
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def trial_seed(base_seed: int, r: float, trial_index: int) -> int:
    """Per-trial seed; depends only on (base_seed, bits of r, trial index)."""
    r_bits = struct.unpack("<Q", struct.pack("<d", float(r)))[0]
    s = mix64(base_seed)
    s = mix64(s ^ r_bits)
    return mix64(s ^ trial_index)


def run_trial(config: SimulationConfig, r: float, trial_index: int) -> float:
    """One encode/decode round; returns the decoded fraction z in [0, 1]."""
    seed = trial_seed(config.base_seed, r, trial_index)
    rng = np.random.Generator(np.random.PCG64(seed))
    if config.receive_model == "poisson_n":
        n = int(rng.poisson(r * config.k))
    else:
        n = int(round(r * config.k))
    # one byte per input: the decoded fraction does not depend on the width
    raw = rng.integers(0, 256, size=(config.k, 1), dtype=np.uint8)
    inputs = raw.view("V1").ravel().tolist()  # k one-byte bytes objects
    if n == 0:
        return 0.0
    symbols = encode(inputs, config.distribution, n, seed)
    _, decoded = decode(symbols, config.k)
    return decoded / config.k


@dataclass(frozen=True)
class SweepRow:
    r: float
    mean_z: float
    std_z: float
    min_z: float
    max_z: float
    trials: int
    asymptotic_z: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean_z <= 1.0 or self.std_z < 0.0:
            raise ValueError("aggregates out of range")


@dataclass(frozen=True)
class SimulationResult:
    rows: tuple[SweepRow, ...]
    config_digest: str

    def __post_init__(self) -> None:
        rs = [row.r for row in self.rows]
        if any(b < a for a, b in zip(rs, rs[1:])):
            raise ValueError("rows must be sorted by r")


def _aggregate(r: float, zs: Sequence[float], asymptotic: float | None) -> SweepRow:
    arr = np.asarray(zs)
    return SweepRow(
        r=r,
        mean_z=float(arr.mean()),
        std_z=float(arr.std()),  # population std
        min_z=float(arr.min()),
        max_z=float(arr.max()),
        trials=len(zs),
        asymptotic_z=asymptotic,
    )


def worker_count() -> int:
    env = os.environ.get("FOUNTAIN_LAB_THREADS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def sweep(
    config: SimulationConfig,
    annotate_asymptotic: bool = False,
    workers: int | None = None,
) -> SimulationResult:
    """Run all (r, trial) cells and aggregate per r (rows sorted by r).

    Per-trial seeding makes the output identical for any worker count; the
    worker pool (FOUNTAIN_LAB_THREADS or the workers argument, capped at the
    number of cells and of CPUs) only changes wall-clock time. Each worker
    receives the config once, when it starts; a task is only its (r, trial
    index).
    """
    cells = [
        (r, t) for r in sorted(config.r_values) for t in range(config.trials)
    ]
    # the pool starts all its workers up front, so it never asks for more
    requested = workers if workers is not None else worker_count()
    nworkers = min(requested, len(cells), os.cpu_count() or 1)
    if nworkers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=nworkers, initializer=_set_worker_config, initargs=(config,)
        ) as pool:
            flat = list(pool.map(_sweep_cell, cells, chunksize=8))
    else:
        flat = [run_trial(config, r, t) for r, t in cells]

    rows = []
    per_r = config.trials
    for i, r in enumerate(sorted(config.r_values)):
        zs = flat[i * per_r : (i + 1) * per_r]
        asym = s_of_r(r, config.distribution) if annotate_asymptotic else None
        rows.append(_aggregate(r, zs, asym))
    return SimulationResult(rows=tuple(rows), config_digest=config.digest())


# the sweep's config inside a pool worker, set once by the pool's initializer
_worker_config: SimulationConfig | None = None


def _set_worker_config(config: SimulationConfig) -> None:
    global _worker_config
    _worker_config = config


def _sweep_cell(cell: tuple[float, int]) -> float:
    r, t = cell
    return run_trial(_worker_config, r, t)


def write_result_csv(
    result: SimulationResult, config: SimulationConfig, dest: IO[str]
) -> None:
    """CSV with '#' metadata lines (config echo, seed, code version)."""
    dest.write(f"# fountain-lab {__version__}\n")
    dest.write(f"# distribution: {config.distribution.label or 'custom'}\n")
    dest.write(
        f"# k={config.k} trials={config.trials} receive_model={config.receive_model} "
        f"seed={config.base_seed}\n"
    )
    dest.write(f"# config_digest={result.config_digest}\n")
    dest.write("r,mean_z,std_z,min_z,max_z,trials,asymptotic_z\n")
    for row in result.rows:
        asym = "" if row.asymptotic_z is None else CSV_FLOAT % row.asymptotic_z
        dest.write(
            f"{CSV_FLOAT % row.r},{CSV_FLOAT % row.mean_z},{CSV_FLOAT % row.std_z},"
            f"{CSV_FLOAT % row.min_z},{CSV_FLOAT % row.max_z},{row.trials},{asym}\n"
        )
