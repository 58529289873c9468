from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from wavesplit import circuits, harness
from wavesplit.circuits import Circuit, ModeSystem
from wavesplit.harness import (
    CSV_HEADER,
    DEFAULT_SWEEP_STEPS,
    DEFAULT_SWEEP_T_FINAL,
    ERROR_FLOOR,
    REFERENCE_RUN,
    REFERENCE_T_FINAL,
    RunReport,
    analytic_norm_ratio,
    convergence_sweep,
    emit_csv,
    fit_order,
    formula_cnots,
    gate_report,
    gaussian_profile,
    run_case,
    scrub_timing,
    selftest,
    state_error,
)
from wavesplit.reference import exact_solution, spectral_pairs
from wavesplit.schemes import get_scheme
from wavesplit.statevector import StateVector

from helpers import split_evolve_pairs

rng = np.random.default_rng(41)


def test_pinned_configuration_constants():
    assert REFERENCE_RUN == {"scheme": "bernier6", "n": 7, "d": 1,
                       "gamma_ratio": 0.5, "steps": 4}
    assert REFERENCE_T_FINAL == 0.7
    assert DEFAULT_SWEEP_T_FINAL == 0.43
    assert ERROR_FLOOR == 1e-12
    assert set(DEFAULT_SWEEP_STEPS) == {"lie", "strang", "castella4", "bernier6"}


def test_gaussian_profile_shape_and_peak():
    sys5 = ModeSystem(n=5)
    phi, dphi = gaussian_profile(sys5)
    assert phi.shape == (32,)
    assert np.max(np.abs(dphi)) == 0.0
    assert np.argmax(phi) == 16  # center 0.5 on a 32-point grid
    assert phi[16] == pytest.approx(1.0, abs=1e-12)


def test_gaussian_profile_multidim_orientation():
    sys22 = ModeSystem(n=2, d=2)
    phi, _ = gaussian_profile(sys22, width=9.0, center=0.25)
    line = np.exp(-9.0 * (np.arange(4) / 4 - 0.25) ** 2)
    expected = np.multiply.outer(line, line).T
    assert np.allclose(phi, expected)


def test_analytic_norm_ratio_endpoints():
    sys5 = ModeSystem(n=5, gamma=0.5)
    phi, dphi = gaussian_profile(sys5)
    pairs = spectral_pairs(phi, dphi)
    assert analytic_norm_ratio(sys5, pairs, 0.0) == pytest.approx(1.0, abs=1e-14)
    r1 = analytic_norm_ratio(sys5, pairs, 0.8)
    full, _ = exact_solution(sys5, pairs, 0.8)
    expected = np.linalg.norm(full) ** 2 / np.linalg.norm(pairs.concat()) ** 2
    assert r1 == pytest.approx(expected, rel=1e-13)
    assert 0 < r1 < 1


def test_run_case_fields():
    sys4 = ModeSystem(n=4, gamma=0.5)
    report = run_case(get_scheme("strang"), sys4, 0.4, 8)
    assert report.scheme == "strang"
    assert (report.n, report.d, report.T) == (4, 1, 8)
    assert report.dt == pytest.approx(0.05)
    assert report.epsilon is not None and report.epsilon > 0
    assert report.cnot_total == 8 * formula_cnots(get_scheme("strang"), 4, 1)
    pairs = spectral_pairs(*gaussian_profile(sys4))
    expected = split_evolve_pairs(get_scheme("strang"), sys4, report.dt, 8, pairs)
    assert abs(report.success_prob - np.linalg.norm(expected) ** 2) < 1e-10


def test_run_case_rejects_no_steps():
    for steps in (0, -2):
        with pytest.raises(ValueError, match="need at least one step"):
            run_case(get_scheme("lie"), ModeSystem(n=3, gamma=0.5), 0.43, steps)


def test_state_error_matches_padded_reference():
    state = StateVector.from_amplitudes(rng.standard_normal(32) + 1j * rng.standard_normal(32))
    exact = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    exact /= np.linalg.norm(exact)
    padded = np.concatenate([exact, np.zeros(16)])
    assert abs(state_error(state, exact) - np.linalg.norm(state.amp - padded)) < 1e-15


def test_reference_run_error_regression():
    # frozen output of the calibrated 4-step sixth-order reference run
    sys7 = ModeSystem(n=7, gamma=REFERENCE_RUN["gamma_ratio"])
    report = run_case(get_scheme("bernier6"), sys7, REFERENCE_T_FINAL, REFERENCE_RUN["steps"])
    assert report.epsilon == pytest.approx(4.7255618463e-05, rel=1e-6)
    assert report.success_prob == pytest.approx(0.7840855, abs=1e-6)
    assert report.cnot_total == 1208


def test_fit_order_recovers_exact_power_laws():
    dts = np.array([0.1, 0.05, 0.025, 0.0125])
    for p in (1, 2, 4, 6):
        eps = 3.7 * dts ** p
        assert fit_order(dts, eps) == pytest.approx(p, abs=1e-12)
    assert np.isnan(fit_order([0.1], [1e-3]))


@pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan, math.inf])
def test_fit_order_names_a_point_without_a_logarithm(bad):
    # an exact row, as a user fit window may pick, has no log error
    with pytest.raises(ValueError, match=r"^point 1 \(dt = 0\.05\) has error "):
        fit_order([0.1, 0.05, 0.025], [1e-3, bad, 1e-5])


def test_convergence_sweep_validation():
    sys3 = ModeSystem(n=3, gamma=0.5)
    with pytest.raises(ValueError):
        convergence_sweep(get_scheme("lie"), sys3, 0.4, [4, 2, 8])
    with pytest.raises(ValueError):
        convergence_sweep(get_scheme("lie"), sys3, 0.4, [4, 8])


def test_convergence_sweep_strang_slope():
    sys5 = ModeSystem(n=5, gamma=0.5)
    table = convergence_sweep(get_scheme("strang"), sys5, DEFAULT_SWEEP_T_FINAL,
                              list(DEFAULT_SWEEP_STEPS["strang"]))
    assert table.fitted_order == pytest.approx(2.0, abs=0.1)
    assert table.fit_window == (2, 7)
    assert [r.T for r in table.rows] == list(DEFAULT_SWEEP_STEPS["strang"])


def test_default_window_skips_floor_points():
    sys5 = ModeSystem(n=5, gamma=0.5)
    # half-period final time cancels the leading error accumulation, so the
    # finest bernier6 points here sit at the roundoff floor and must be cut
    table = convergence_sweep(get_scheme("bernier6"), sys5, 0.5, [6, 8, 12, 16, 24])
    assert table.fit_window[1] <= 4
    for row in table.rows[table.fit_window[0]:table.fit_window[1]]:
        assert row.epsilon >= 10 * ERROR_FLOOR


def test_explicit_fit_window_overrides_default():
    sys4 = ModeSystem(n=4, gamma=0.5)
    table = convergence_sweep(get_scheme("strang"), sys4, 0.43, [8, 16, 32, 64],
                              fit_window=(0, 4))
    assert table.fit_window == (0, 4)
    # one point fits no slope
    table = convergence_sweep(get_scheme("strang"), sys4, 0.43, [8, 16, 32],
                              fit_window=(0, 1))
    assert table.fit_window == (0, 1) and math.isnan(table.fitted_order)


@pytest.mark.parametrize("name,n,d,cnots,qubits", [
    ("bernier6", 7, 1, 302, 9),
    ("bernier6", 15, 3, 1562, 47),
    ("lie", 1, 1, 8, 3),
    ("strang", 3, 2, 24, 8),
])
def test_gate_report_known_budgets(name, n, d, cnots, qubits):
    rep = gate_report(name, n, d)
    assert rep.per_step_cnots == cnots
    assert rep.formula_cnots == cnots
    assert rep.qubits == qubits
    assert rep.consistent


def test_budget_grid_matches_the_formula_cold_and_warm():
    # the benchmark's budget grid; each plan first with no circuit built,
    # then again with every one of its circuits shared
    for scheme in map(get_scheme, ("lie", "strang", "castella4", "bernier6")):
        for n in range(1, 21):
            for d in (1, 2, 3):
                circuits._built.cache_clear()
                cold = gate_report(scheme, n, d)
                misses = circuits._built.cache_info().misses
                warm = gate_report(scheme, n, d)
                assert circuits._built.cache_info().misses == misses
                assert cold.per_step_cnots == warm.per_step_cnots == cold.formula_cnots


def test_the_circuit_cache_holds_the_whole_budget_grid():
    # the grid's 1380 distinct circuits fit the cache's bound, so a second
    # pass over all 240 plans builds none of them again
    grid = [(name, n, d) for name in ("lie", "strang", "castella4", "bernier6")
            for n in range(1, 21) for d in (1, 2, 3)]
    circuits._built.cache_clear()
    for args in grid:
        gate_report(*args)
    info = circuits._built.cache_info()
    assert info.currsize == info.misses == 1380 <= info.maxsize
    for args in grid:
        gate_report(*args)
    assert circuits._built.cache_info().misses == info.misses


def test_emit_csv_round_trip(tmp_path):
    sys4 = ModeSystem(n=4, gamma=0.5)
    report = run_case(get_scheme("lie"), sys4, 0.3, 4)
    path = tmp_path / "rows.csv"
    emit_csv(scrub_timing([report]), path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "lie"
    assert int(fields[3]) == 4
    assert float(fields[5]) == report.epsilon  # 17 digits survive the round trip
    assert float(fields[9]) == 0.0


def test_emit_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text().splitlines() == [CSV_HEADER]


def test_scrub_timing_copies():
    sys3 = ModeSystem(n=3, gamma=0.2)
    report = run_case(get_scheme("lie"), sys3, 0.2, 2)
    scrubbed = scrub_timing([report])[0]
    assert scrubbed.wall_time == 0.0
    assert scrubbed.state is None
    assert report.state is not None  # original untouched
    assert scrubbed.epsilon == report.epsilon


# (row name, last word of its detail): the check's tolerance, or "ok"
SELFTEST_CONTRACT = [
    ("wave_circuit_blocks", "tol=1.0e-12"),
    ("qft_matrix", "tol=1.0e-12"),
    ("damping_contraction", "tol=1.0e-13"),
    ("damping_phase", "tol=1.0e-13"),
    ("mode_propagator", "tol=1.0e-12"),
    ("hermitian_split", "tol=1.0e-14"),
    ("complex_stage_factorization", "tol=1.0e-13"),
    ("commuting_split_lie", "tol=1.0e-12"),
    ("commuting_split_strang", "tol=1.0e-12"),
    ("commuting_split_castella4", "tol=1.0e-12"),
    ("commuting_split_bernier6", "tol=1.0e-12"),
    ("undamped_exactness", "tol=1.0e-11"),
    ("scheme_lie", "ok"),
    ("scheme_strang", "ok"),
    ("scheme_castella4", "ok"),
    ("scheme_bernier6", "ok"),
]


def test_selftest_all_green():
    rows = selftest()
    assert [(name, detail.split()[-1]) for name, _, detail in rows] == SELFTEST_CONTRACT
    assert all(passed for _, passed, _ in rows), [r for r in rows if not r[1]]


def test_selftest_deterministic_given_seed():
    a = selftest(seed=3)
    assert [(name, detail.split()[-1]) for name, _, detail in a] == SELFTEST_CONTRACT
    assert a == selftest(seed=3)


def _failed_rows(monkeypatch, builder: str, broken) -> set[str]:
    monkeypatch.setattr(harness, builder, broken)
    return {name for name, passed, _ in selftest() if not passed}


def test_stage_check_catches_a_flipped_phase(monkeypatch):
    failed = _failed_rows(monkeypatch, "damping_phase_gate",
                          lambda x, sys: circuits.damping_phase_gate(-x, sys))
    assert "complex_stage_factorization" in failed
    assert harness.dissipative_stage_error(0.5, 0.1 + 0.2j) > 1e-3


def test_damping_checks_catch_a_wrong_rate_or_sign(monkeypatch):
    failed = _failed_rows(monkeypatch, "damping_real_circuit",
                          lambda g, sys: circuits.damping_real_circuit(1.01 * g, sys))
    assert {"damping_contraction", "complex_stage_factorization"} <= failed
    failed = _failed_rows(monkeypatch, "damping_phase_gate",
                          lambda x, sys: circuits.damping_phase_gate(-x, sys))
    assert "damping_phase" in failed


def test_wave_check_catches_a_stretched_time(monkeypatch):
    failed = _failed_rows(monkeypatch, "wave_evolution_circuit",
                          lambda sys, tau: circuits.wave_evolution_circuit(sys, 1.01 * tau))
    assert "wave_circuit_blocks" in failed
    assert harness.wave_block_error(ModeSystem(n=3), 0.9) > 1e-3


def test_qft_check_catches_a_missing_swap(monkeypatch):
    def no_last_swap(n):
        ops = circuits.qft_circuit(n).ops
        return Circuit(n, ops[:-3] if n > 1 else ops)  # a swap is three CNOTs
    failed = _failed_rows(monkeypatch, "qft_circuit", no_last_swap)
    assert "qft_matrix" in failed
    assert harness.qft_error(3) > 0.1
