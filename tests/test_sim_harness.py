import concurrent.futures
import io
import math
import os
import pickle

import numpy as np
import pytest

from fountain_lab import sim_harness
from fountain_lab import (
    DegreeDistribution,
    SimulationConfig,
    encode,
    ideal_soliton,
    perturb,
    robust_soliton,
    run_trial,
    s_of_r,
    sweep,
    trial_seed,
    write_result_csv,
)
from fountain_lab.sim_harness import MAX_K, MAX_SYMBOLS

DEG1 = DegreeDistribution.from_mapping({1: 1.0}, label="degree1")


def occupancy_mean(k, n):
    return 1.0 - (1.0 - 1.0 / k) ** n


def test_config_validation():
    for k in (0, -5):  # named before the support check, which would also fail
        with pytest.raises(ValueError, match="^k must be >= 1$"):
            SimulationConfig(distribution=DEG1, k=k, r_values=(0.5,), trials=1)
    with pytest.raises(ValueError):
        SimulationConfig(distribution=DEG1, k=100, r_values=(0.5,), trials=0)
    with pytest.raises(ValueError):
        SimulationConfig(distribution=ideal_soliton(50), k=10, r_values=(0.5,), trials=1)
    with pytest.raises(ValueError):
        SimulationConfig(distribution=DEG1, k=100, r_values=(-0.5,), trials=1)
    with pytest.raises(ValueError):
        SimulationConfig(distribution=DEG1, k=100, r_values=(0.5,), trials=1,
                         receive_model="sometimes")


@pytest.mark.parametrize("r", [math.inf, math.nan, 1e300, MAX_SYMBOLS / 10**4 + 0.5])
def test_config_rejects_non_finite_or_oversized_rate(r):
    with pytest.raises(ValueError):
        SimulationConfig(distribution=DEG1, k=10**4, r_values=(0.5, r), trials=1)


@pytest.mark.parametrize("k", [10**9, MAX_K + 1])
def test_config_caps_k(k):
    with pytest.raises(ValueError, match="MAX_K"):
        SimulationConfig(distribution=DEG1, k=k, r_values=(1e-6,), trials=1)


def test_config_accepts_k_at_cap():
    config = SimulationConfig(distribution=DEG1, k=MAX_K, r_values=(1e-6,), trials=1)
    assert config.k == MAX_K


def test_config_accepts_rate_at_symbol_cap():
    config = SimulationConfig(distribution=DEG1, k=10**4,
                              r_values=(MAX_SYMBOLS / 10**4,), trials=1)
    assert config.r_values[0] * config.k == MAX_SYMBOLS


def test_zero_rate_trial():
    config = SimulationConfig(distribution=DEG1, k=1000, r_values=(0.0,), trials=1)
    assert run_trial(config, 0.0, 0) == 0.0


def test_run_trial_encodes_one_byte_rows(monkeypatch):
    seen = []

    def spy(inputs, dist, n, seed):
        seen.append(inputs)
        return encode(inputs, dist, n, seed)

    monkeypatch.setattr(sim_harness, "encode", spy)
    k, r, base_seed = 500, 0.5, 3
    config = SimulationConfig(distribution=DEG1, k=k, r_values=(r,), trials=1,
                              receive_model="poisson_n", base_seed=base_seed)
    run_trial(config, r, 0)
    rng = np.random.Generator(np.random.PCG64(trial_seed(base_seed, r, 0)))
    rng.poisson(r * k)
    raw = rng.integers(0, 256, size=(k, 1), dtype=np.uint8)
    assert len(seen) == 1 and seen[0] == [row.tobytes() for row in raw]
    assert all(type(b) is bytes for b in seen[0])


def test_singleton_trials_match_occupancy():
    k = 2000
    config = SimulationConfig(distribution=DEG1, k=k, r_values=(0.5,), trials=40,
                              base_seed=5)
    zs = [run_trial(config, 0.5, t) for t in range(40)]
    mean = float(np.mean(zs))
    assert abs(mean - occupancy_mean(k, k // 2)) < 0.01


def test_sweep_deterministic():
    config = SimulationConfig(distribution=ideal_soliton(300), k=300,
                              r_values=(0.4, 0.8), trials=10, base_seed=42)
    a = sweep(config, annotate_asymptotic=True)
    b = sweep(config, annotate_asymptotic=True)
    assert a == b
    assert a.config_digest == b.config_digest


def test_sweep_single_trial_row():
    config = SimulationConfig(distribution=DEG1, k=500, r_values=(0.6,), trials=1,
                              base_seed=9)
    result = sweep(config)
    row = result.rows[0]
    assert row.trials == 1
    assert row.mean_z == row.min_z == row.max_z
    assert row.std_z == 0.0
    assert row.mean_z == run_trial(config, 0.6, 0)


def test_trial_schedule_independence():
    # per-trial seeding: any execution order yields the same multiset
    config = SimulationConfig(distribution=ideal_soliton(200), k=200,
                              r_values=(0.7,), trials=16, base_seed=77)
    ordered = [run_trial(config, 0.7, t) for t in range(16)]
    scrambled = [run_trial(config, 0.7, t) for t in reversed(range(16))]
    assert sorted(ordered) == sorted(scrambled)
    result = sweep(config)
    assert result.rows[0].mean_z == pytest.approx(float(np.mean(ordered)), abs=1e-15)


def test_worker_pool_matches_serial(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a real pool of two, anywhere
    config = SimulationConfig(distribution=DEG1, k=200, r_values=(0.4, 0.9),
                              trials=6, base_seed=3)
    assert sweep(config, workers=2) == sweep(config, workers=1)


@pytest.fixture
def pool_calls(monkeypatch):
    """Swap ProcessPoolExecutor for one that runs tasks here; return what it got."""
    calls = {"max_workers": [], "task_bytes": []}

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            calls["max_workers"].append(max_workers)
            self.start = lambda: initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            self.start()
            tasks = list(tasks)
            calls["task_bytes"].extend(len(pickle.dumps((fn, task))) for task in tasks)
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(sim_harness, "_worker_config", None)
    return calls


def test_sweep_tasks_carry_no_config(monkeypatch, pool_calls):
    # the pool gets the config once per worker; each task pickles small
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    config = SimulationConfig(distribution=robust_soliton(10_000, 0.1, 0.5), k=10_000,
                              r_values=(0.01, 0.02), trials=2, base_seed=3)
    assert len(pickle.dumps(config)) > 100_000
    assert sweep(config, workers=2) == sweep(config, workers=1)
    sent = pool_calls["task_bytes"]
    assert len(sent) == 4 and max(sent) < 1024


def test_sweep_pool_is_bounded_by_cells_and_cpus(monkeypatch, pool_calls):
    # FOUNTAIN_LAB_THREADS asks for far more workers than the sweep has cells
    monkeypatch.setenv("FOUNTAIN_LAB_THREADS", str(10**6))
    config = SimulationConfig(distribution=DEG1, k=200, r_values=(0.4, 0.9),
                              trials=1, base_seed=3)
    serial = sweep(config, workers=1)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert sweep(config) == serial
    assert pool_calls["max_workers"] == [2]  # one worker per cell
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert sweep(config) == serial
    assert pool_calls["max_workers"] == [2]  # one CPU: no pool at all


def test_worker_count_env(monkeypatch):
    from fountain_lab.sim_harness import worker_count

    monkeypatch.delenv("FOUNTAIN_LAB_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("FOUNTAIN_LAB_THREADS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("FOUNTAIN_LAB_THREADS", "junk")
    assert worker_count() == 1


def test_trial_seed_distinct():
    seeds = {trial_seed(1, r, t) for r in (0.1, 0.2) for t in range(50)}
    assert len(seeds) == 100


def test_mean_monotone_in_r():
    k = 1500
    config = SimulationConfig(distribution=robust_soliton(k, 0.05, 0.5), k=k,
                              r_values=(0.3, 0.6, 0.9, 1.2), trials=12, base_seed=8)
    result = sweep(config)
    for a, b in zip(result.rows, result.rows[1:]):
        slack = 2.0 * (a.std_z + b.std_z) / math.sqrt(a.trials)
        assert b.mean_z >= a.mean_z - slack


def test_receive_models_agree():
    k = 2000
    for dist in (DEG1, robust_soliton(k, 0.05, 0.5)):
        means = {}
        for model in ("deterministic_n", "poisson_n"):
            config = SimulationConfig(distribution=dist, k=k, r_values=(0.6,),
                                      trials=30, base_seed=13, receive_model=model)
            row = sweep(config).rows[0]
            means[model] = (row.mean_z, row.std_z)
        gap = abs(means["deterministic_n"][0] - means["poisson_n"][0])
        slack = 2.0 * (means["deterministic_n"][1] + means["poisson_n"][1]) / math.sqrt(30)
        assert gap <= max(slack, 0.01)


def test_robust_soliton_recovers_everything_slightly_above_capacity():
    k = 10_000
    config = SimulationConfig(distribution=robust_soliton(k, 0.03, 0.5), k=k,
                              r_values=(1.1,), trials=11, base_seed=21)
    zs = [run_trial(config, 1.1, t) for t in range(11)]
    assert sum(z >= 0.99 for z in zs) > 5


def converged_row(dist, r, k, trials, base_seed):
    """sweep's row for one (r, k) cell, with the asymptotic prediction."""
    config = SimulationConfig(distribution=dist, k=k, r_values=(r,), trials=trials,
                              base_seed=base_seed)
    return sweep(config, annotate_asymptotic=True).rows[0]


def test_sweep_gap_shrinks_with_k_singletons():
    ks = [100, 400, 1600, 6400]
    rows = [converged_row(DEG1, 0.5, k, 60, 31) for k in ks]
    gaps = [abs(row.mean_z - row.asymptotic_z) for row in rows]
    std_errs = [row.std_z / math.sqrt(row.trials) for row in rows]
    for i in range(len(rows) - 1):
        assert gaps[i + 1] <= gaps[i] + 2.0 * (std_errs[i] + std_errs[i + 1])
    assert gaps[-1] < 0.01
    for k, row, std_err in zip(ks, rows, std_errs):
        exact = occupancy_mean(k, round(0.5 * k))
        assert abs(row.mean_z - exact) <= 4.0 * max(std_err, 1e-4)


def test_sweep_tracks_asymptotics_perturbed_soliton():
    r, delta = 0.9, 0.01
    means = {}
    for k in (1000, 10_000):
        dist = perturb(ideal_soliton(k), delta)
        means[k] = converged_row(dist, r / (1 - delta), k, 20, 17)
    # at the larger k the empirical mean sits near the asymptotic prediction
    assert abs(means[10_000].mean_z - means[10_000].asymptotic_z) < 0.05


def test_result_csv_round_trip():
    config = SimulationConfig(distribution=DEG1, k=400, r_values=(0.3, 0.7),
                              trials=5, base_seed=10)
    result = sweep(config, annotate_asymptotic=True)
    buf = io.StringIO()
    write_result_csv(result, config, buf)
    text = buf.getvalue()
    assert "# fountain-lab" in text
    assert "seed=10" in text
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == "r,mean_z,std_z,min_z,max_z,trials,asymptotic_z"
    for line, row in zip(lines[1:], result.rows):
        fields = line.split(",")
        assert float(fields[0]) == pytest.approx(row.r, rel=1e-9)
        assert float(fields[1]) == pytest.approx(row.mean_z, rel=1e-8)
        assert int(fields[5]) == row.trials
        assert float(fields[6]) == pytest.approx(row.asymptotic_z, rel=1e-8)
        assert f"{float(fields[1]):.9g}" == fields[1]
