"""Acceptance suite: the headline guarantees, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) and checks
its stated tolerance. Criterion 2 checks the LP against the known optimal
shape, which it takes from optimal_distribution. At z = 1/2 that shape is a
tie: all-degree-1 and all-degree-2 both cost log 2, and so does every mix of
the two. The library breaks the tie by its documented boundary rule:
max_useful_degree takes the smaller degree at z = m/(m+1), so
max_useful_degree(0.5) == 1 and primal_min_r has no degree-2 variable there;
optimal_distribution returns the degree-one form for the same z. The support
check follows that rule, giving {1} at z = 1/2 and {2} on (1/2, 2/3].
The design comes from the prices of the moment LP, whose grid closes at z,
so degree 2 wins as soon as z > 1/2.
"""

import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import fountain_lab
from fountain_lab import (
    CodedSymbol,
    DegreeDistribution,
    SimulationConfig,
    decode,
    dual_outer_bound,
    limiting_soliton,
    optimal_distribution,
    perturb,
    primal_min_r,
    s_of_r,
    sweep,
    truncated_soliton,
)
from fountain_lab.lt_codec import xor_payload

DEG1 = DegreeDistribution.from_mapping({1: 1.0}, label="degree1")


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d} [{description}]: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} [{description}]: PASS")


def test_criterion_01_degree_one_closed_form():
    with criterion(1, "degree-1 closed form s = 1 - exp(-r)"):
        start = time.monotonic()
        for r in np.linspace(0.0, 3.0, 30):
            s = s_of_r(float(r), DEG1)
            assert abs(s - (1.0 - math.exp(-r))) <= 1e-6, r
        assert time.monotonic() - start < 1.0


def test_criterion_02_known_region_lp():
    with criterion(2, "known region: LP value and optimal support"):
        start = time.monotonic()
        failures = []
        for z in (0.50, 0.55, 0.60, 0.65, 2.0 / 3.0):
            target = -math.log1p(-z) / (2.0 * z)
            expected = set(optimal_distribution(z)[0].support)
            dist, upper = primal_min_r(z, 1e-3)
            lower = dual_outer_bound(z, 1e-3)
            if abs(upper - target) > 2e-3:
                failures.append(f"primal value off at z={z:.4f}: {upper:.6f} vs {target:.6f}")
            if abs(lower - target) > 2e-3:
                failures.append(f"dual value off at z={z:.4f}: {lower:.6f} vs {target:.6f}")
            stray = sum(m for d, m in dist.entries if d not in expected) * upper
            if stray > 1e-9:
                failures.append(
                    f"support not {expected} at z={z:.4f}: {dist.as_dict()} "
                    f"(stray mass {stray:.3g}; expected the support of optimal_distribution, "
                    "smaller degree at the z = 1/2 tie)"
                )
        assert time.monotonic() - start < 30.0
        assert not failures, "; ".join(failures)


def test_criterion_03_endpoint_constant():
    with criterion(3, "rate at z = 2/3 is (3/4) log 3"):
        target = 0.75 * math.log(3.0)
        assert abs(target - 0.823959) < 1e-6
        _, exact = optimal_distribution(2.0 / 3.0)
        assert abs(exact - target) <= 2e-3
        assert abs(dual_outer_bound(2.0 / 3.0, 1e-3) - target) <= 2e-3
        _, upper = primal_min_r(2.0 / 3.0, 1e-3)
        assert abs(upper - target) <= 2e-3


def test_criterion_04_heavy_tail_fragility():
    with criterion(4, "heavy-tailed soliton collapses below capacity"):
        dist = limiting_soliton(10_000)
        for r in (0.5, 0.9, 0.99):
            assert s_of_r(r, dist, refine_tol=1e-12) <= 2e-4, r
        r = 1.0 - 1e-6
        assert s_of_r(r, dist, refine_tol=1e-12) <= 2e-4
        delta = 1e-3
        recovered = s_of_r(r / (1.0 - delta), perturb(dist, delta))
        assert recovered >= 0.9


def test_criterion_05_design_self_consistency():
    with criterion(5, "truncated designs: masses, margin, recovered fraction"):
        start = time.monotonic()
        for z in (0.70, 0.75, 0.80, 0.85, 0.90):
            design = truncated_soliton(z)
            dist, a, m = design.distribution, design.a, design.m
            assert abs(math.fsum(dist.mass_array) - 1.0) <= 1e-12

            # margin positivity via the cancellation-free form
            # (a m - (m-1)) t^(m-1) - sum_{j>=m} t^j / j, with the leading
            # coefficient taken from the defining tail series at z
            def tail(t, start_idx):
                total, j = 0.0, start_idx
                while True:
                    term = t**j / j
                    total += term
                    j += 1
                    if term < 1e-25:
                        return total

            lead = tail(z, m) / z ** (m - 1)
            for t in np.linspace(z / 400.0, z * (1.0 - 1.0 / 400.0), 399):
                t = float(t)
                assert lead * t ** (m - 1) - tail(t, m) > 0.0, (z, t)

            # the two margin forms agree where floats can see the value
            from fountain_lab import peeling_margin

            mid = 0.6 * z
            stable = lead * mid ** (m - 1) - tail(mid, m)
            assert peeling_margin(mid, a, dist) == pytest.approx(stable, abs=1e-9)

            assert abs(s_of_r(a, dist) - z) <= 1e-3
        assert time.monotonic() - start < 5.0


def test_criterion_06_outer_bound_vs_designs():
    with criterion(6, "designs sit close below the outer bound"):
        for z in (0.70, 0.75, 0.80, 0.85, 0.90):
            lower = dual_outer_bound(z, 1e-3)
            a = truncated_soliton(z).a
            assert lower <= a, z
            assert a - lower < 0.05, z


def _oracle_decode_count(symbols, k):
    recovered = set()
    progress = True
    while progress:
        progress = False
        for sym in symbols:
            residual = [v for v in sym.neighbors if v not in recovered]
            if len(residual) == 1:
                recovered.add(residual[0])
                progress = True
    return len(recovered)


def _oracle_decode_values(symbols, k):
    """The re-scan oracle's recovered bytes, peeling in symbol index order."""
    recovered = {}
    progress = True
    while progress:
        progress = False
        for sym in symbols:
            residual = [v for v in sym.neighbors if v not in recovered]
            if len(residual) == 1:
                value = sym.payload
                for v in sym.neighbors:
                    if v in recovered:
                        value = xor_payload([value, recovered[v]], (0, 1))
                recovered[residual[0]] = value
                progress = True
    return [recovered.get(v) for v in range(k)]


def test_criterion_07_decoder_oracle_equivalence():
    with criterion(7, "peeling decoder matches the naive re-scan oracle"):
        rng = np.random.default_rng(20240731)
        for trial in range(1000):
            k = int(rng.integers(1, 13))
            n = int(rng.integers(0, 17))
            inputs = [bytes([int(v)]) for v in rng.integers(0, 256, size=k)]
            symbols = []
            for _ in range(n):
                d = int(rng.integers(1, k + 1))
                nbrs = tuple(sorted(rng.choice(k, size=d, replace=False).tolist()))
                symbols.append(CodedSymbol(nbrs, xor_payload(inputs, nbrs)))
            _, count = decode(symbols, k)
            assert count == _oracle_decode_count(symbols, k), trial
            if trial < 500:
                values, _ = decode(symbols, k)
                assert values == _oracle_decode_values(symbols, k), trial


def test_criterion_08_monte_carlo_vs_asymptotics():
    with criterion(8, "finite-k Monte Carlo tracks the asymptotics"):
        start = time.monotonic()
        for model in ("deterministic_n", "poisson_n"):
            config = SimulationConfig(
                distribution=DEG1, k=10_000, r_values=(0.2, 0.5, 0.8),
                trials=100, base_seed=404, receive_model=model)
            for row in sweep(config).rows:
                assert abs(row.mean_z - (1.0 - math.exp(-row.r))) < 0.02, (model, row.r)

        design = truncated_soliton(0.75)
        realized = perturb(design.distribution, 0.01)
        for model in ("deterministic_n", "poisson_n"):
            config = SimulationConfig(
                distribution=realized, k=10_000, r_values=(design.a,),
                trials=100, base_seed=405, receive_model=model)
            row = sweep(config).rows[0]
            assert abs(row.mean_z - 0.75) < 0.05, model
        assert time.monotonic() - start < 60.0


def test_criterion_09_design_beats_raptor_shape():
    with criterion(9, "near-1 recovery: design rate < 1 < raptor-shape rate"):
        # the child imports the same fountain_lab as this process
        src = str(Path(fountain_lab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fountain_lab.cli", "compare",
             "--eps", "0.5", "--delta", "0.1"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
        out = proc.stdout
        assert proc.returncode == 0
        rates = {}
        for line in out.splitlines():
            if line.startswith("raptor_omega"):
                rates["omega"] = float(line.split("=")[-1])
            if line.startswith("truncated_soliton"):
                rates["design"] = float(line.split("=")[-1])
        assert rates["design"] < 1.0
        assert rates["omega"] > rates["design"]
        assert "smaller rate: truncated_soliton" in out


def test_criterion_10_perturbation_sandwich():
    with criterion(10, "degree-one perturbation sandwich tightens with delta"):
        dist = limiting_soliton(10_000)
        r = 0.95
        base = s_of_r(r, dist)
        values = {}
        for delta in (0.01, 0.001):
            values[delta] = s_of_r(r / (1.0 - delta), perturb(dist, delta))
            assert values[delta] >= base, delta
        assert abs(values[0.001] - base) < abs(values[0.01] - base)
