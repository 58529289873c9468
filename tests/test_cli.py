from __future__ import annotations

import argparse
import math
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wavesplit.cli import MAX_STEPS, run


def test_gates_known_budget(capsys):
    assert run(["gates", "--scheme", "bernier6", "--n", "15", "--d", "3"]) == 0
    out = capsys.readouterr().out
    assert "per_step_cnots=1562" in out
    assert "qubits=47" in out


def test_gates_single_mode_lie(capsys):
    assert run(["gates", "--scheme", "lie", "--n", "1"]) == 0
    assert "per_step_cnots=8" in capsys.readouterr().out


def test_simulate_reference_configuration(capsys):
    assert run(["simulate", "--scheme", "bernier6"]) == 0
    out = capsys.readouterr().out
    assert "scheme=bernier6 n=7 d=1 steps=4" in out
    assert "cnots_total=1208" in out
    assert "success_prob=0.784086" in out
    assert "analytic_norm_ratio=0.784076" in out


def test_simulate_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "run.csv"
    code = run(["simulate", "--scheme", "strang", "--n", "4", "--steps", "6",
                "--t-final", "0.3", "--output", str(out_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("scheme,n,d,T,dt,epsilon")
    assert lines[1].startswith("strang,4,1,6,")


def test_sweep_csv_is_deterministic(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    argv = ["sweep", "--scheme", "strang", "--n", "3", "--t-final", "0.3",
            "--steps-list", "4,6,8,12"]
    for path in paths:
        assert run(argv + ["--output", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sweep_prints_fit(capsys):
    code = run(["sweep", "--scheme", "castella4", "--n", "4",
                "--steps-list", "6,8,12,16,24"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fitted_order=" in out
    assert out.count("T=") == 5


def test_validate_schemes_all_pass(capsys):
    assert run(["validate-schemes"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 4
    assert all(line.rstrip().endswith("PASS") for line in out)


def test_selftest_passes(capsys):
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "failures=0" in out
    assert "FAIL" not in out


def test_usage_error_exit_code():
    assert run([]) == 2
    assert run(["simulate"]) == 2  # --scheme is required
    assert run(["simulate", "--scheme", "nope"]) == 2
    assert run(["frobnicate"]) == 2


def test_range_checks_exit_code(capsys):
    assert run(["simulate", "--scheme", "lie", "--n", "0"]) == 2
    assert run(["simulate", "--scheme", "lie", "--n", "21"]) == 2
    assert run(["simulate", "--scheme", "lie", "--d", "4"]) == 2
    assert run(["simulate", "--scheme", "lie", "--steps", "0"]) == 2
    assert run(["gates", "--scheme", "lie", "--n", "25"]) == 2
    capsys.readouterr()


def test_qubit_cap_rejects_before_allocating(monkeypatch, capsys):
    from wavesplit import cli, harness

    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated past the qubit cap")

    monkeypatch.setattr(harness, "gaussian_profile", no_alloc)
    assert run(["simulate", "--scheme", "lie", "--n", "20", "--d", "3"]) == 2
    assert run(["sweep", "--scheme", "lie", "--n", "13", "--d", "2"]) == 2
    assert "capped at" in capsys.readouterr().err
    # at the cap the check passes; nothing is run here
    args = argparse.Namespace(n=(cli.MAX_QUBITS - 2) // 2, d=2, steps=4)
    assert cli._check_ranges(args) is None
    assert run(["gates", "--scheme", "lie", "--n", "20", "--d", "3"]) == 0
    capsys.readouterr()


def test_steps_list_exit_codes(capsys):
    base = ["sweep", "--scheme", "strang", "--n", "3"]
    assert run(base + ["--steps-list", "4,x,8"]) == 2  # not integers: usage
    assert "comma-separated integers" in capsys.readouterr().err
    assert run(base + ["--steps-list", "8,6,4"]) == 1  # not ascending: domain
    assert "error:" in capsys.readouterr().err


def test_step_counts_below_one_are_usage_errors(capsys):
    # a zero step count once reached run_case's t_final / steps
    for steps in ("0,1,2", "-1,1,2"):
        assert run(["sweep", "--scheme", "lie", "--n", "3", "--steps-list=" + steps]) == 2
        assert "--steps-list entries must be in 1..1000000" in capsys.readouterr().err
    assert run(["simulate", "--scheme", "lie", "--n", "3", "--steps=-3"]) == 2
    assert "--steps must be in 1..1000000" in capsys.readouterr().err


def test_step_counts_are_capped(capsys):
    assert MAX_STEPS == 10**6
    base = ["sweep", "--scheme", "lie", "--n", "3", "--steps-list"]
    assert run(base + ["1,2,100000000000000000000"]) == 2
    assert run(base + [f"1,2,{MAX_STEPS + 1}"]) == 2
    assert run(["simulate", "--scheme", "lie", "--n", "3", "--steps", f"{MAX_STEPS + 1}"]) == 2
    assert capsys.readouterr().err.count(f"1..{MAX_STEPS}") == 3


def test_negative_seed_is_a_usage_error(capsys):
    assert run(["selftest", "--seed=-1"]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err


def test_overflowing_center_exits_without_a_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["simulate", "--scheme", "lie", "--n", "3", "--center", "1e300"]) == 1
    assert "cannot encode a zero initial state" in capsys.readouterr().err


def test_non_finite_profile_exit_code(capsys):
    # a nan width or center makes a nan profile, and -inf or -1e300 an inf
    # one: a domain error raised before any transform, not a nan result
    for extra in (["--width", "nan"], ["--center", "nan"], ["--width=-inf"],
                  ["--width=-1e300"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["simulate", "--scheme", "lie", "--n", "3", *extra]) == 1
        assert "initial fields must be finite" in capsys.readouterr().err
    assert run(["sweep", "--scheme", "strang", "--n", "3", "--width", "nan",
                "--steps-list", "4,6,8"]) == 1
    captured = capsys.readouterr()
    assert "finite" in captured.err and "epsilon=nan" not in captured.out


def test_non_finite_damping_or_time_exit_code(capsys):
    # each is named by its own check, not by the dissipative stage it reaches
    base = ["simulate", "--scheme", "lie", "--n", "3"]
    damping = "damping rate must be finite and nonnegative"
    step = "step size must be positive and finite"
    for extra, message in [(["--gamma-ratio", "nan"], damping),
                           (["--gamma-ratio", "inf"], damping),
                           (["--t-final", "inf"], step),
                           (["--t-final", "nan"], step)]:
        assert run(base + extra) == 1
        assert message in capsys.readouterr().err
    assert run(["sweep", "--scheme", "strang", "--n", "3", "--t-final", "inf",
                "--steps-list", "4,6,8"]) == 1
    assert step in capsys.readouterr().err


def test_runtime_error_exit_code(capsys):
    # a negative damping ratio is bad input, named before anything runs
    base = ["simulate", "--scheme", "lie", "--n", "3"]
    for gamma in ("-0.5", "-inf"):
        assert run(base + ["--gamma-ratio=" + gamma]) == 2
        assert "--gamma-ratio must be nonnegative" in capsys.readouterr().err
    # finite inputs whose products overflow fail when the step is built,
    # named by the damping rate or the step size
    assert run(base + ["--gamma-ratio", "1e308", "--t-final", "10"]) == 1
    assert "error: damping rate" in capsys.readouterr().err
    assert run(base + ["--t-final", "1e308"]) == 1
    assert "error: step size" in capsys.readouterr().err


def test_heavily_overdamped_run_prints_finite_numbers(capsys):
    # gamma t / 2 = 1750, then 2.5e299: the analytic propagator must not turn
    # 0 * inf into nan, nor overflow cosh on the modes it does not use it for
    for args in (["--scheme", "lie", "--n", "3", "--gamma-ratio", "5e3"],
                 ["--scheme", "bernier6", "--n", "2", "--d", "2", "--t-final", "1e300"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["simulate", *args]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        values = dict(re.findall(r"(\w+)=(\S+)", captured.out))
        for key in ("success_prob", "analytic_norm_ratio", "epsilon"):
            assert math.isfinite(float(values[key]))


def test_run_with_gamma_squared_overflowing(capsys):
    # gamma**2 is inf: the propagator must still tell the slow mode from the fast one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["simulate", "--scheme", "bernier6", "--n", "3",
                    "--gamma-ratio", "1e300"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "analytic_norm_ratio=1.000000" in captured.out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wavesplit", "gates", "--scheme", "bernier6",
         "--n", "7"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "per_step_cnots=302" in proc.stdout


SCHEMES = ["lie", "strang", "castella4", "bernier6"]
FLOATS = st.sampled_from([0.0, 0.5, 3.0, -1.0, 1e300, -1e300, math.nan, math.inf, -math.inf])
COUNTS = st.one_of(st.sampled_from([-1, 0, 1, 2]), st.integers(-2, 64))


@st.composite
def argv(draw, output):
    command = draw(st.sampled_from(["simulate", "sweep", "sweep", "gates",
                                    "validate-schemes", "selftest"]))
    if command == "validate-schemes":
        return [command]
    if command == "selftest":
        return [command, f"--seed={draw(st.integers(-3, 3))}"]
    d = draw(st.integers(-1, 3))
    n = draw(st.integers(-1, 6 // max(d, 1)))
    args = [command, "--scheme", draw(st.sampled_from(SCHEMES)), f"--n={n}", f"--d={d}"]
    if command == "gates":
        return args
    for flag in ("--gamma-ratio", "--t-final", "--width", "--center"):
        if draw(st.booleans()):
            args.append(f"{flag}={draw(FLOATS)!r}")
    if command == "simulate":
        args.append(f"--steps={draw(COUNTS)}")
    elif draw(st.booleans()):
        counts = draw(st.one_of(st.lists(COUNTS, min_size=3, max_size=4, unique=True).map(sorted),
                                st.lists(COUNTS, min_size=1, max_size=4)))
        args.append("--steps-list=" + ",".join(map(str, counts)))
    if draw(st.booleans()):
        args.append(f"--output={output}")
    return args


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_small_command_line_exits_cleanly(tmp_path, data):
    args = data.draw(argv(tmp_path / "out.csv"))
    assert run(args) in (0, 1, 2)
