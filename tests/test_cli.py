import math
import warnings

import pytest

from fountain_lab import DegreeDistribution, cli, limiting_soliton, lp_bounds, write_distribution
from fountain_lab.asymptotics import MAX_GRID_POINTS, validate_grid
from fountain_lab.cli import main
from fountain_lab.degree_dist import MAX_DEGREE
from fountain_lab.lp_bounds import (
    MAX_LP_DEGREE,
    MAX_LP_GRID_POINTS,
    validate_grid_step,
    validate_target,
)
from fountain_lab.sim_harness import MAX_K, MAX_TRIAL_CELLS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_analyze_degree1(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--degree1", "--r", "0.693147")
    assert code == 0
    rows = csv_rows(out)
    assert float(rows[0]["s"]) == pytest.approx(0.5, abs=1e-4)


def test_analyze_degree2(capsys):
    # s solves 2t + log(1 - t) = 0 at r = 1
    code, out, _ = run_cli(capsys, "analyze", "--degree2", "--r", "1")
    assert code == 0
    assert csv_rows(out)[0]["s"] == "0.79681213"


def test_analyze_heavy_tail_file(capsys, tmp_path):
    path = tmp_path / "soliton.tsv"
    write_distribution(limiting_soliton(10_000), path)
    code, out, _ = run_cli(capsys, "analyze", "--dist-file", str(path), "--r", "0.9")
    assert code == 0
    assert float(csv_rows(out)[0]["s"]) <= 1e-4


def test_analyze_dist_file_names_the_bad_line(capsys, tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("1\t0.5\n0\t0.5\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", "--dist-file", str(path), "--r", "1")
    assert (code, out) == (2, "")
    assert "error: line 2: degrees must be integers >= 1, got 0" in err


def test_analyze_dist_file_rejects_a_degree_beyond_int64(capsys, tmp_path):
    path = tmp_path / "big.tsv"
    path.write_text("1\t0.5\n10000000000000000000\t0.5\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", "--dist-file", str(path), "--r", "1")
    assert (code, out) == (2, "")
    assert "error: line 2: degrees must be at most 2**63 - 1" in err


def test_analyze_rejects_negative_rate(capsys):
    code, _, err = run_cli(capsys, "analyze", "--degree1", "--r", "-1")
    assert code == 2
    assert "error" in err


def test_analyze_r_range(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--degree1", "--r-range", "0.2", "0.6", "0.2")
    assert code == 0
    rows = csv_rows(out)
    assert [float(r["r"]) for r in rows] == pytest.approx([0.2, 0.4, 0.6])


def test_bound_known_region(capsys):
    code, out, _ = run_cli(capsys, "bound", "--z", "0.6")
    assert code == 0
    row = csv_rows(out)[0]
    assert float(row["r_lower"]) == pytest.approx(0.7636, abs=2e-3)
    assert int(row["m"]) == 2


def test_bound_above_design_rate(capsys):
    code, out, _ = run_cli(capsys, "bound", "--z", "0.75")
    assert code == 0
    assert float(csv_rows(out)[0]["r_lower"]) < 0.877064


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_repeated_bound_calls_print_only_their_own_rows(capsys):
    # the parser is shared, so no --z list may carry over into the next call
    for zs in (["0.3", "0.6"], ["0.75"], ["0.4", "0.5", "0.6"]):
        code, out, err = run_cli(capsys, "bound", *(a for z in zs for a in ("--z", z)),
                                 "--grid-step", "0.01")
        assert code == 0, err
        assert [row["z"] for row in csv_rows(out)] == zs


def test_usage_error_leaves_the_parser_usable(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--z", "0.6", "--no-such-flag"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "bound", "--z", "0.6", "--grid-step", "0.01")
    assert code == 0
    assert [row["z"] for row in csv_rows(out)] == ["0.6"]


def test_bound_rejects_z_one(capsys):
    code, _, _ = run_cli(capsys, "bound", "--z", "1.0")
    assert code == 2


@pytest.mark.parametrize("z", ["1e-10", "9.9e-10"])
def test_bound_rejects_z_below_the_pivot_tolerance(capsys, z):
    # -log(1-z) <= PIVOT_TOL: no grid point could enter the LP's basis and
    # the design would be empty, so such a z is bad input, not an internal error
    code, out, err = run_cli(capsys, "bound", "--z", z)
    assert code == 2
    assert out == ""
    assert "PIVOT_TOL" in err


def test_bound_smallest_accepted_z(capsys):
    code, out, _ = run_cli(capsys, "bound", "--z", "1e-9")
    assert code == 0
    assert out.splitlines()[-1] == "1e-09,1e-09,1e-09,1"


def test_design_above_two_thirds(capsys, tmp_path):
    out_file = tmp_path / "design.tsv"
    code, _, err = run_cli(capsys, "design", "--z", "0.75", "-o", str(out_file))
    assert code == 0
    assert "a = 0.877063" in err
    text = out_file.read_text()
    assert "# a = 0.877063" in text
    masses = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            d, m = line.split("\t")
            masses[int(d)] = float(m)
    assert masses[2] == pytest.approx(0.570084, abs=1e-5)
    assert masses[3] == pytest.approx(0.429916, abs=1e-5)


def test_design_small_targets(capsys):
    code, out, err = run_cli(capsys, "design", "--z", "0.4")
    assert code == 0
    assert float(err.split("=")[-1]) == pytest.approx(-math.log(0.6), abs=1e-8)
    assert "1\t1" in out
    code, out, _ = run_cli(capsys, "design", "--z", "0.66")
    assert code == 0
    assert "2\t1" in out


def test_simulate_requires_k(capsys):
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--degree1", "--r", "0.5"])
    assert info.value.code == 2


def test_simulate_degree1(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--degree1", "--k", "2000", "--r", "0.5",
        "--trials", "20", "--seed", "7")
    assert code == 0
    row = csv_rows(out)[0]
    assert float(row["mean_z"]) == pytest.approx(1 - math.exp(-0.5), abs=0.02)
    assert float(row["asymptotic_z"]) == pytest.approx(1 - math.exp(-0.5), abs=1e-4)


def test_simulate_design_gets_realized(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--design-z", "0.75", "--k", "10000", "--r", "0.877",
        "--trials", "15", "--seed", "11")
    assert code == 0
    assert "# realized: perturb" in out
    row = csv_rows(out)[0]
    assert float(row["mean_z"]) == pytest.approx(0.75, abs=0.05)


# data rows of `simulate --design-z 0.75 --k 3000 --r 0.5 --r 0.877 --trials 20
# --seed 20240601`; they depend only on the seed, the distribution, k, r and
# the receive model
SIMULATE_GOLDEN = {
    "deterministic_n": [
        "r,mean_z,std_z,min_z,max_z,trials,asymptotic_z",
        "0.5,0.0104666667,0.0033901819,0.00533333333,0.0183333333,20,0.0115189701",
        "0.877,0.745766667,0.0140353126,0.718,0.767333333,20,0.746016244",
    ],
    "poisson_n": [
        "r,mean_z,std_z,min_z,max_z,trials,asymptotic_z",
        "0.5,0.01035,0.00352841639,0.00533333333,0.0183333333,20,0.0115189701",
        "0.877,0.678283333,0.213279636,0.024,0.786333333,20,0.746016244",
    ],
}


@pytest.mark.parametrize("model", sorted(SIMULATE_GOLDEN))
def test_simulate_golden_rows(capsys, model):
    code, out, _ = run_cli(
        capsys, "simulate", "--design-z", "0.75", "--k", "3000", "--r", "0.5",
        "--r", "0.877", "--trials", "20", "--seed", "20240601",
        "--receive-model", model)
    assert code == 0
    assert [l for l in out.splitlines() if not l.startswith("#")] == SIMULATE_GOLDEN[model]


def test_compare_reports_design_win(capsys):
    code, out, _ = run_cli(capsys, "compare", "--eps", "0.5", "--delta", "0.1")
    assert code == 0
    values = {}
    for line in out.splitlines():
        if line.startswith("raptor_omega"):
            values["omega"] = float(line.split("=")[-1])
        if line.startswith("truncated_soliton"):
            values["design"] = float(line.split("=")[-1])
    assert values["design"] < 1.0
    assert values["omega"] > values["design"]
    assert "smaller rate: truncated_soliton" in out


def test_compare_rejects_large_delta(capsys):
    code, _, _ = run_cli(capsys, "compare", "--eps", "0.5", "--delta", "0.5")
    assert code == 2


def test_curves_outputs(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "curves", "--out-dir", str(tmp_path),
                         "--grid-step", "0.002")
    assert code == 0
    exact = (tmp_path / "exact_region.csv").read_text()
    rows = csv_rows(exact)
    by_z = {float(r["z"]): r for r in rows}
    assert float(by_z[0.5]["r_exact"]) == pytest.approx(math.log(2), abs=1e-8)
    two_thirds = [r for r in rows if abs(float(r["z"]) - 2 / 3) < 1e-9]
    assert float(two_thirds[0]["r_exact"]) == pytest.approx(0.75 * math.log(3), abs=1e-8)

    design = (tmp_path / "design_region.csv").read_text()
    inner_outer = [(float(r["r_inner"]), float(r["r_outer"])) for r in csv_rows(design)]
    assert all(inner >= outer for inner, outer in inner_outer)
    assert max(inner - outer for inner, outer in inner_outer) < 0.05
    # all floats round-trip at nine significant digits
    for r in csv_rows(design):
        assert f'{float(r["r_inner"]):.9g}' == r["r_inner"]


@pytest.mark.parametrize("rate", ["inf", "nan", "1e300", "1e9"])
def test_simulate_rejects_absurd_rate_before_output(capsys, tmp_path, rate):
    out_file = tmp_path / "sim.csv"
    code, out, err = run_cli(capsys, "simulate", "--degree1", "--k", "1000",
                             "--r", "0.5", "--r", rate, "-o", str(out_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_file.exists()


@pytest.mark.parametrize("argv", [["--r", "nan"], ["--r", "inf"],
                                  ["--r-range", "0", "inf", "0.1"],
                                  ["--r-range", "0", "1", "1e-9"],
                                  ["--r-range", "1e17", "1e17", "1"]])
def test_analyze_rejects_bad_rates_before_header(capsys, argv):
    code, out, err = run_cli(capsys, "analyze", "--degree1", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_analyze_huge_rate_recovers_everything_without_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "analyze", "--soliton", "100",
                                 "--r", "1e308", "--r", "1.7976931348623157e308")
    assert (code, err) == (0, "")
    assert [float(row["s"]) for row in csv_rows(out)] == [1.0, 1.0]


def test_bound_solves_where_the_whole_grid_simplex_failed(capsys):
    code, out, err = run_cli(capsys, "bound", "--z", "0.98", "--grid-step", "0.005")
    assert code == 0, err
    row = csv_rows(out)[0]
    assert int(row["m"]) == 49
    assert float(row["r_lower"]) <= float(row["r_upper"])


def test_bound_internal_error_prefix_once(capsys, monkeypatch):
    # a solver failure, such as the simplex drifting off a row, reaches the
    # user as one prefixed line with plain numbers
    def drifted(*args):
        raise RuntimeError("reported optimum violates row 0 by 6.4e-08")

    monkeypatch.setattr(lp_bounds, "simplex_solve", drifted)
    code, out, err = run_cli(capsys, "bound", "--z", "0.98", "--grid-step", "0.005")
    assert code == 1
    assert out == ""
    assert err.count("internal error:") == 1
    assert "np.float64(" not in err


def assert_rejected_before_output(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["analyze", "--degree1", "--r", "1", "--grid-step", "1e-12"],
    ["analyze", "--degree1", "--r", "1", "--grid-step", "1e-9"],
    ["bound", "--z", "0.6", "--grid-step", "1e-9"],
])
def test_grid_step_capped_before_output(capsys, argv):
    assert_rejected_before_output(*run_cli(capsys, *argv))


@pytest.mark.parametrize("tol", ["1e-17", "1e-300"])
def test_refine_tol_below_float_epsilon_rejected_before_output(capsys, tol):
    # a bisection cannot shrink its bracket below float spacing, so these
    # would never finish
    code, out, err = run_cli(capsys, "analyze", "--degree1", "--r", "0.7", "--refine-tol", tol)
    assert_rejected_before_output(code, out, err)
    assert "float epsilon" in err


def test_curves_grid_step_capped_before_output(capsys, tmp_path):
    out_dir = tmp_path / "curves"
    code, out, err = run_cli(capsys, "curves", "--out-dir", str(out_dir),
                             "--grid-step", "1e-9")
    assert_rejected_before_output(code, out, err)
    assert not out_dir.exists()


def test_grid_caps_keep_the_usual_steps(capsys):
    for step in (1e-3, 1e-4, 1.0 / MAX_GRID_POINTS):
        validate_grid(step, 1e-9)
    with pytest.raises(ValueError):
        validate_grid(0.99 / MAX_GRID_POINTS)
    for step in (1e-3, 1e-4, 1.0 / MAX_LP_GRID_POINTS):
        validate_grid_step(step)
    with pytest.raises(ValueError):
        validate_grid_step(0.99 / MAX_LP_GRID_POINTS)
    code, out, _ = run_cli(capsys, "analyze", "--degree1", "--r", "0.5", "--grid-step", "1e-4")
    assert code == 0 and csv_rows(out)
    code, out, _ = run_cli(capsys, "bound", "--z", "0.3", "--grid-step", "1e-4")
    assert code == 0 and csv_rows(out)


OVER_CAP = str(MAX_DEGREE + 1)
# eps = 4/(MAX_DEGREE + 1) puts the Raptor distribution's top degree just over the cap
OVER_CAP_EPS = repr(4.0 / (MAX_DEGREE + 1))
# z/(1-z) = MAX_DEGREE + 0.5, so the truncated soliton needs degree MAX_DEGREE + 1
OVER_CAP_Z = repr(1.0 - 1.0 / (MAX_DEGREE + 1.5))


@pytest.mark.parametrize("argv", [
    ["analyze", "--soliton", OVER_CAP, "--r", "1"],
    ["analyze", "--limiting-soliton", OVER_CAP, "--r", "1"],
    ["analyze", "--robust", OVER_CAP, "0.1", "0.5", "--r", "1"],
    ["analyze", "--raptor", OVER_CAP_EPS, "--r", "1"],
    ["analyze", "--design-z", OVER_CAP_Z, "--r", "1"],
    ["simulate", "--soliton", OVER_CAP, "--k", "10", "--r", "1"],
    ["compare", "--eps", OVER_CAP_EPS, "--delta", "0.05"],
    ["compare", "--eps", "1e-9", "--delta", "0.05"],
    ["design", "--z", OVER_CAP_Z],
])
def test_degree_cap_before_output(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("distribution built above the degree cap")

    monkeypatch.setattr(DegreeDistribution, "from_mapping", classmethod(refuse))
    code, out, err = run_cli(capsys, *argv)
    assert_rejected_before_output(code, out, err)
    assert "MAX_DEGREE" in err


# z/(1-z) = MAX_LP_DEGREE + 0.5, so the moment LP needs MAX_LP_DEGREE + 1 rows
OVER_LP_CAP_Z = repr(1.0 - 1.0 / (MAX_LP_DEGREE + 1.5))


@pytest.mark.parametrize("argv", [
    ["bound", "--z", "0.999999"],
    ["bound", "--z", OVER_LP_CAP_Z],
    ["bound", "--z", "0.6", "--z", OVER_LP_CAP_Z],
])
def test_lp_degree_cap_before_output(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("moment LP built above the degree cap")

    monkeypatch.setattr(lp_bounds, "build_outer_bound_problem", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert_rejected_before_output(code, out, err)
    assert "MAX_LP_DEGREE" in err


def test_lp_degree_cap_keeps_the_paper_range():
    validate_target(0.98, 1e-3)
    validate_target(1.0 - 1.0 / (MAX_LP_DEGREE + 0.5), 1e-3)
    with pytest.raises(ValueError, match="MAX_LP_DEGREE"):
        validate_target(float(OVER_LP_CAP_Z), 1e-3)


@pytest.mark.parametrize("argv", [
    ["--k", "1000000000", "--r", "1e-6"],
    ["--k", str(MAX_K + 1), "--r", "1e-6"],
    # every simulated symbol is one byte: the payload width is not an option
    ["--k", "1000", "--r", "0.5", "--symbol-bytes", "4"],
    ["--k", "1000", "--r", "0.5", "--symbol-bytes", "1"],
])
def test_simulate_caps_k_and_symbol_bytes_before_output(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("sweep started above the k cap or with --symbol-bytes")

    monkeypatch.setattr(cli, "sweep", refuse)
    if "--symbol-bytes" in argv:
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--degree1", *argv])
        captured = capsys.readouterr()
        assert info.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --symbol-bytes" in captured.err
        return
    code, out, err = run_cli(capsys, "simulate", "--degree1", *argv)
    assert_rejected_before_output(code, out, err)
    assert "MAX_K" in err


@pytest.mark.parametrize("argv", [
    ["--r", "0.5", "--trials", "1000000000"],
    ["--r", "0.5", "--trials", str(MAX_TRIAL_CELLS + 1)],
    ["--r", "0.5", "--r", "0.6", "--trials", str(MAX_TRIAL_CELLS // 2 + 1)],
])
def test_simulate_caps_trial_cells_before_output(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("sweep started above the trial-cell cap")

    monkeypatch.setattr(cli, "sweep", refuse)
    code, out, err = run_cli(capsys, "simulate", "--degree1", "--k", "100", *argv)
    assert_rejected_before_output(code, out, err)
    assert "MAX_TRIAL_CELLS" in err


@pytest.mark.parametrize("dist", [["--degree1"], ["--limiting-soliton", "50"]])
@pytest.mark.parametrize("delta", ["nan", "-0.01", "1", "1.5", "inf"])
def test_simulate_rejects_bad_realize_delta_before_output(capsys, monkeypatch, dist, delta):
    # whether or not the distribution has degree-one mass to need it
    def refuse(*args, **kwargs):
        raise AssertionError("sweep started with a bad realize-delta")

    monkeypatch.setattr(cli, "sweep", refuse)
    code, out, err = run_cli(capsys, "simulate", *dist, "--k", "100", "--r", "0.5",
                             "--realize-delta", delta)
    assert_rejected_before_output(code, out, err)
    assert "realize-delta" in err


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--degree1"], "no r values given"),
    (["analyze", "--degree1", "--r-range", "0", "1", "0"], "r-range step must be positive"),
    (["design", "--z", "1.5"], "z=1.5 outside (0, 1)"),
    (["analyze", "--dist-file", "MISSING", "--r", "1"], "cannot read distribution file: "),
    (["analyze", "--robust", "100", "1e-310", "0.5", "--r", "1"], "degenerate ripple size"),
    (["simulate", "--degree1", "--k", "0", "--r", "0.5"], "error: k must be >= 1"),
    (["simulate", "--degree1", "--k", "-5", "--r", "0.5"], "error: k must be >= 1"),
])
def test_usage_errors_name_the_problem(capsys, tmp_path, argv, message):
    missing = str(tmp_path / "absent.tsv")
    code, out, err = run_cli(capsys, *[missing if a == "MISSING" else a for a in argv])
    assert_rejected_before_output(code, out, err)
    assert message in err


@pytest.mark.parametrize("argv", [
    ["analyze", "--degree1", "--r", "1", "-o"],
    ["bound", "--z", "0.6", "--grid-step", "0.01", "-o"],
    ["design", "--z", "0.75", "-o"],
    ["simulate", "--degree1", "--k", "100", "--r", "0.5", "--trials", "2", "-o"],
    ["curves", "--grid-step", "0.01", "--out-dir"],
])
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, argv):
    # a path below a regular file can be neither opened nor created
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = str(blocker / "out")
    code, out, err = run_cli(capsys, *argv, target)
    assert_rejected_before_output(code, out, err)
    assert target in err


def test_analyze_rejects_non_finite_robust_c(capsys):
    for c in ("nan", "inf"):
        code, out, err = run_cli(capsys, "analyze", "--robust", "100", c, "0.5", "--r", "1")
        assert_rejected_before_output(code, out, err)
        assert "c must be positive and finite" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "--raptor", "1e300", "--r", "1"],
    ["analyze", "--raptor", "2.7e154", "--r", "1"],
    ["compare", "--eps", "1e300", "--delta", "0.05"],
])
def test_raptor_eps_with_overflowing_mu_is_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert_rejected_before_output(code, out, err)
    assert "eps=" in err


@pytest.mark.parametrize("values, message", [
    (["1e3", "0.1", "0.5"], "--robust K must be an integer, got '1e3'"),
    (["100", "abc", "0.5"], "--robust C must be a number, got 'abc'"),
    (["100", "0.1", "x"], "--robust DELTA must be a number, got 'x'"),
])
def test_analyze_names_the_robust_value_that_does_not_parse(capsys, values, message):
    code, out, err = run_cli(capsys, "analyze", "--robust", *values, "--r", "1")
    assert_rejected_before_output(code, out, err)
    assert message in err
