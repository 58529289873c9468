"""Acceptance gate: nine criteria, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Each criterion asserts at its stated tolerance; the printed line always
reflects the computed outcome, also when a criterion fails.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from wavesplit.circuits import ModeSystem
from wavesplit.harness import (
    DEFAULT_SWEEP_STEPS,
    DEFAULT_SWEEP_T_FINAL,
    REFERENCE_RUN,
    REFERENCE_T_FINAL,
    analytic_norm_ratio,
    convergence_sweep,
    dissipative_stage_error,
    fit_order,
    gate_report,
    gaussian_profile,
    qft_error,
    run_case,
    wave_block_error,
)
from wavesplit.reference import (
    decode_state,
    dense_expm,
    encode_initial,
    spectral_pairs,
)
from wavesplit.schemes import builtin_schemes, get_scheme, validate_scheme
from wavesplit.splitting import generic_split_matrix

from helpers import random_hermitian, random_neg_semidefinite, split_evolve_pairs


def _report(num: int, name: str, checks: list[tuple[str, bool]]) -> None:
    ok = all(flag for _, flag in checks)
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    failed = [label for label, flag in checks if not flag]
    assert ok, f"criterion {num} failed: {failed}"


@pytest.fixture(scope="module")
def reference_run_report():
    sys7 = ModeSystem(n=7, d=REFERENCE_RUN["d"], gamma=REFERENCE_RUN["gamma_ratio"])
    phi, dphi = gaussian_profile(sys7)
    report = run_case(get_scheme(REFERENCE_RUN["scheme"]), sys7, REFERENCE_T_FINAL,
                      REFERENCE_RUN["steps"], phi, dphi)
    pairs = spectral_pairs(phi, dphi)
    return sys7, pairs, report


def test_c1_scheme_integrity():
    t0 = time.perf_counter()
    checks = []
    expected = {
        "lie": (1, 1, 1, "none"),
        "strang": (2, 2, 1, "palindromic"),
        "castella4": (4, 5, 4, "palindromic"),
        "bernier6": (6, 16, 15, "symmetric-conjugate"),
    }
    for scheme in builtin_schemes():
        order, n_a, n_b, symmetry = expected[scheme.name]
        rep = validate_scheme(scheme)
        checks.append((f"{scheme.name} validates", rep.passed))
        checks.append((f"{scheme.name} order", scheme.order == order))
        checks.append((f"{scheme.name} stages", (len(scheme.a), len(scheme.b)) == (n_a, n_b)))
        checks.append((f"{scheme.name} symmetry", rep.symmetry == symmetry))
        checks.append((f"{scheme.name} sum a", abs(sum(scheme.a) - 1) < 1e-9))
        checks.append((f"{scheme.name} sum b", abs(sum(scheme.b) - 1) < 1e-9))
        checks.append((f"{scheme.name} re a > 0", min(c.real for c in map(complex, scheme.a)) > 0))
        checks.append((f"{scheme.name} b > 0", min(scheme.b) > 0))
    checks.append(("runtime < 1 s", time.perf_counter() - t0 < 1.0))
    _report(1, "scheme integrity", checks)


def test_c2_wave_circuit_exactness():
    rng = np.random.default_rng(2024)
    checks = []
    worst = max(wave_block_error(ModeSystem(n=n), float(tau))
                for n in range(2, 7) for tau in rng.uniform(-4.0, 4.0, size=10))
    checks.append((f"dense wave blocks, worst {worst:.2e}", worst < 1e-12))

    sys5 = ModeSystem(n=5, gamma=0.0)
    phi, dphi = gaussian_profile(sys5)
    report = run_case(get_scheme("bernier6"), sys5, 0.8, 1)
    checks.append((f"undamped single step eps {report.epsilon:.2e}",
                   report.epsilon < 1e-11))
    _report(2, "wave circuit exactness", checks)


def test_c3_gate_count_reproduction():
    checks = []
    rep71 = gate_report("bernier6", 7, 1)
    rep153 = gate_report("bernier6", 15, 3)
    checks.append(("bernier6 n=7 d=1 -> 302", rep71.per_step_cnots == 302))
    checks.append(("bernier6 n=15 d=3 -> 1562", rep153.per_step_cnots == 1562))
    checks.append(("bernier6 n=15 d=3 -> 47 qubits", rep153.qubits == 47))
    mismatch = []
    for scheme in builtin_schemes():
        for n in range(1, 21):
            for d in (1, 2, 3):
                rep = gate_report(scheme, n, d)
                if rep.per_step_cnots != rep.formula_cnots:
                    mismatch.append((scheme.name, n, d))
    checks.append(("formula == counted for all n <= 20, d <= 3", not mismatch))
    _report(3, "gate count reproduction", checks)


def test_c4_convergence_orders():
    t0 = time.perf_counter()
    sys5 = ModeSystem(n=5, gamma=0.5)
    phi, dphi = gaussian_profile(sys5)
    targets = {"lie": 1.0, "strang": 2.0, "castella4": 4.0, "bernier6": 6.0}
    checks = []
    for name, target in targets.items():
        table = convergence_sweep(get_scheme(name), sys5, DEFAULT_SWEEP_T_FINAL,
                                  list(DEFAULT_SWEEP_STEPS[name]), phi, dphi)
        checks.append((f"{name} fit {table.fitted_order:.3f} vs {target}",
                       abs(table.fitted_order - target) <= 0.3))
    checks.append(("runtime < 60 s", time.perf_counter() - t0 < 60.0))
    _report(4, "convergence orders", checks)


def test_c5_reference_run_error(reference_run_report):
    _, _, report = reference_run_report
    checks = [
        (f"4-step sixth-order eps {report.epsilon:.3e} <= 1e-4",
         report.epsilon <= 1e-4),
        ("step count", report.T == 4),
        ("per-step budget 302", report.cnot_per_step == 302),
    ]
    _report(5, "reference run error", checks)


def test_c6_success_probability_conservation(reference_run_report):
    sys7, pairs, ref = reference_run_report
    checks = []

    def split_norm_gap(scheme, sys, rep, pairs) -> float:
        # squared norm of the per-mode split oracle's unnormalized evolution
        split = split_evolve_pairs(scheme, sys, rep.dt, rep.T, pairs)
        return abs(rep.success_prob - float(np.linalg.norm(split)) ** 2)

    for name in ("lie", "strang", "castella4", "bernier6"):
        sys3 = ModeSystem(n=3, gamma=0.7)
        phi, dphi = gaussian_profile(sys3, width=40.0)
        rep = run_case(get_scheme(name), sys3, 0.6, 3, phi, dphi)
        gap = split_norm_gap(get_scheme(name), sys3, rep, spectral_pairs(phi, dphi))
        checks.append((f"{name} |success_prob - split norm^2| {gap:.1e}", gap <= 1e-10))
    ratio = analytic_norm_ratio(sys7, pairs, REFERENCE_T_FINAL)
    gap = abs(ref.success_prob - ratio)
    checks.append((f"reference run success {ref.success_prob:.6f} within 0.01 "
                   f"of analytic ratio {ratio:.6f}", gap <= 0.01))
    gap = split_norm_gap(get_scheme(REFERENCE_RUN["scheme"]), sys7, ref, pairs)
    checks.append((f"reference run |success_prob - split norm^2| {gap:.1e}", gap <= 1e-10))
    _report(6, "success probability conservation", checks)


GENERIC_T_LISTS = {
    "lie": (16, 24, 32, 48, 64, 96, 128),
    "strang": (8, 12, 16, 24, 32, 48, 64),
    "castella4": (4, 6, 8, 12, 16, 24),
    "bernier6": (2, 3, 4, 6, 8, 12),
}


def test_c7_generic_generator_splitting():
    t0 = time.perf_counter()
    checks = []
    for scheme in builtin_schemes():
        fits = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            h1 = random_neg_semidefinite(rng, 16)
            h2 = random_hermitian(rng, 16)
            exact = dense_expm(h1 + 1j * h2, 1.0)
            dts, errs = [], []
            for T in GENERIC_T_LISTS[scheme.name]:
                approx = generic_split_matrix(scheme, h1, h2, 1.0, T)
                errs.append(np.linalg.norm(approx - exact, 2))
                dts.append(1.0 / T)
            fits.append(fit_order(dts, errs))
        lo, hi = min(fits), max(fits)
        checks.append((f"{scheme.name} fits [{lo:.2f}, {hi:.2f}] vs {scheme.order}",
                       all(abs(f - scheme.order) <= 0.3 for f in fits)))
    checks.append(("runtime < 60 s", time.perf_counter() - t0 < 60.0))
    _report(7, "generic generator splitting", checks)


def test_c8_complex_stage_factorization():
    rng = np.random.default_rng(88)
    checks = []
    worst = 0.0
    for _ in range(20):
        gdt = float(rng.uniform(0.01, 2.0))
        a = complex(rng.uniform(0.02, 0.3), rng.uniform(-0.3, 0.3))
        worst = max(worst, dissipative_stage_error(gdt, a))
    checks.append((f"20 random (gamma dt, a) pairs, worst {worst:.2e}",
                   worst < 1e-13))
    _report(8, "complex stage factorization", checks)


def test_c9_qft_and_encoding():
    checks = []
    worst = max(qft_error(n) for n in range(1, 7))
    checks.append((f"qft vs dft n<=6, worst {worst:.2e}", worst < 1e-12))

    rng = np.random.default_rng(99)
    worst_rt = 0.0
    for shape in ((16,), (4, 4)):
        phi = rng.standard_normal(shape)
        dphi = rng.standard_normal(shape)
        dphi -= dphi.mean()
        state = encode_initial(phi, dphi)
        back_phi, back_dphi = decode_state(state, shape=shape)
        scale = np.linalg.norm(np.concatenate([phi.ravel(), dphi.ravel()]))
        worst_rt = max(worst_rt, float(np.max(np.abs(back_phi * scale - phi))))
        worst_rt = max(worst_rt, float(np.max(np.abs(back_dphi * scale - dphi))))
    checks.append((f"encode/decode round trip, worst {worst_rt:.2e}",
                   worst_rt < 1e-12))
    _report(9, "qft and encoding", checks)
