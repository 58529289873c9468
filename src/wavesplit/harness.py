"""Validation harness: convergence sweeps, gate budgets, CSV emission.

Errors are L2 distances between the emulated unit statevector and the
unit-normalized analytic solution.  Convergence orders come from a
least-squares slope of log(error) against log(dt) over a window that
skips coarse-grid transients and the machine floor.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuits import (ModeSystem, apply_circuit, circuit_to_matrix,
                       damping_phase_gate, damping_real_circuit, qft_circuit,
                       wave_evolution_circuit)
from .reference import (ModePairs, dense_expm, encode_initial, exact_solution,
                        hermitian_split, mode_propagator, spectral_pairs)
from .schemes import SplittingScheme, builtin_schemes, get_scheme, validate_scheme
from .splitting import RunReport, build_step, generic_split_matrix, simulate
from .statevector import StateVector, postselect

CSV_HEADER = "scheme,n,d,T,dt,epsilon,success_prob,cnots,qubits,wall_time_s"

# Error floor attributed to accumulated roundoff; points at or near it
# carry no slope information.
ERROR_FLOOR = 1e-12

# Gaussian initial profile defaults shared by the harness and the CLI.
GAUSSIAN_WIDTH = 100.0
GAUSSIAN_CENTER = 0.5

# Reference single-run configuration: 7 data qubits, damping ratio 0.5,
# 4 sixth-order steps.  The final time is calibrated so the four-step
# error lands near 5e-5; at this time the cumulative success probability
# tracks the analytic squared norm ratio to ~1e-5.
REFERENCE_RUN = {"scheme": "bernier6", "n": 7, "d": 1, "gamma_ratio": 0.5, "steps": 4}
REFERENCE_T_FINAL = 0.7

# Sweep final time.  tc/L = 0.5 is exactly half the fundamental period, so
# every mode satisfies sin(omega_j t) = 0 and the leading error accumulation
# cancels; slopes fitted there overshoot the scheme order.  0.43 is far from
# any low-order resonance and all four schemes fit their order cleanly.
DEFAULT_SWEEP_T_FINAL = 0.43

# Step counts whose errors sit inside the default fit window for the n=5,
# gamma ratio 0.5 sweep at DEFAULT_SWEEP_T_FINAL.
DEFAULT_SWEEP_STEPS: dict[str, tuple[int, ...]] = {
    "lie": (32, 48, 64, 96, 128, 192, 256),
    "strang": (16, 24, 32, 48, 64, 96, 128),
    "castella4": (8, 12, 16, 24, 32, 48, 64),
    "bernier6": (6, 8, 12, 16, 24, 32),
}


def gaussian_profile(sys: ModeSystem, width: float = GAUSSIAN_WIDTH,
                     center: float = GAUSSIAN_CENTER):
    """Gaussian displacement exp(-width (x/L - center)**2), zero velocity.
    An overflowing exponent gives no warning; encoding rejects the profile."""
    x = np.arange(sys.n_modes) / sys.n_modes
    with np.errstate(over="ignore", invalid="ignore"):
        line = np.exp(-width * (x - center) ** 2)
        phi = line
        for _ in range(sys.d - 1):
            phi = np.multiply.outer(phi, line)
    # outer() grows trailing axes; transpose keeps axis 0 the fastest index
    phi = np.ascontiguousarray(phi.T) if sys.d > 1 else line
    return phi, np.zeros_like(phi)


def state_error(state: StateVector, exact_unit: np.ndarray) -> float:
    """Distance to a reference living on the data+selector block.

    The reference is zero on the rest of the state, so that part enters
    as its own norm and no full-size padded copy is built.
    """
    m = exact_unit.size
    return math.hypot(float(np.linalg.norm(state.amp[:m] - exact_unit)),
                      float(np.linalg.norm(state.amp[m:])))


def analytic_norm_ratio(sys: ModeSystem, pairs: ModePairs, t: float) -> float:
    full, _ = exact_solution(sys, pairs, t)
    base = float(np.linalg.norm(pairs.concat()))
    return float(np.linalg.norm(full)) ** 2 / base**2


def run_case(scheme: SplittingScheme, sys: ModeSystem, t_final: float,
             steps: int, phi=None, dphi=None) -> RunReport:
    """Encode, run ``steps`` splitting steps and fill in epsilon."""
    if steps < 1:
        raise ValueError("need at least one step")
    if phi is None:
        phi, dphi = gaussian_profile(sys)
    elif dphi is None:
        dphi = np.zeros_like(np.asarray(phi))
    pairs = spectral_pairs(phi, dphi)
    plan = build_step(scheme, sys, t_final / steps)
    report = simulate(plan, steps, encode_initial(phi, dphi))
    _, exact_unit = exact_solution(sys, pairs, t_final)
    report.epsilon = state_error(report.state, exact_unit)
    return report


@dataclass
class ConvergenceTable:
    rows: list[RunReport]
    fitted_order: float
    fit_window: tuple[int, int]


def fit_order(dts, epsilons) -> float:
    """Least-squares slope of log(eps) against log(dt)."""
    dts = np.asarray(dts, dtype=float)
    eps = np.asarray(epsilons, dtype=float)
    if dts.size < 2:
        return math.nan
    return float(np.polyfit(np.log(dts), np.log(eps), 1)[0])


def _default_window(rows: list[RunReport]) -> tuple[int, int]:
    # drop the two coarsest points, stop at the first floor-bound error
    start = min(2, max(0, len(rows) - 2))
    stop = start
    for i in range(start, len(rows)):
        if rows[i].epsilon is None or rows[i].epsilon < 10 * ERROR_FLOOR:
            break
        stop = i + 1
    return start, stop


def convergence_sweep(scheme: SplittingScheme, sys: ModeSystem, t_final: float,
                      T_list, phi=None, dphi=None,
                      fit_window: tuple[int, int] | None = None) -> ConvergenceTable:
    """Run the same problem at every step count in ascending T_list."""
    T_list = list(T_list)
    if len(T_list) < 3:
        raise ValueError("need at least three step counts")
    if any(b <= a for a, b in zip(T_list, T_list[1:])):
        raise ValueError("step counts must be strictly ascending")
    rows = [run_case(scheme, sys, t_final, T, phi, dphi) for T in T_list]
    window = fit_window if fit_window is not None else _default_window(rows)
    lo, hi = window
    picked = rows[lo:hi]
    order = fit_order([r.dt for r in picked], [r.epsilon for r in picked])
    return ConvergenceTable(rows, order, window)


@dataclass(frozen=True)
class GateReport:
    scheme: str
    n: int
    d: int
    per_step_cnots: int
    qubits: int
    formula_cnots: int

    @property
    def consistent(self) -> bool:
        return self.per_step_cnots == self.formula_cnots


def formula_cnots(scheme: SplittingScheme, n: int, d: int) -> int:
    """Stage counts times per-circuit costs: wave 2n+4, dissipative 2."""
    return len(scheme.b) * d * (2 * n + 4) + len(scheme.a) * 2


def gate_report(scheme, n: int, d: int = 1) -> GateReport:
    if isinstance(scheme, str):
        scheme = get_scheme(scheme)
    plan = build_step(scheme, ModeSystem(n=n, d=d), 1.0)
    return GateReport(scheme.name, n, d, plan.cnot_per_step,
                      plan.n_qubits, formula_cnots(scheme, n, d))


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def emit_csv(table, path) -> Path:
    """Write rows with a fixed header; floats keep 17 significant digits."""
    rows = table.rows if isinstance(table, ConvergenceTable) else list(table)
    lines = [CSV_HEADER]
    for r in rows:
        eps = math.nan if r.epsilon is None else r.epsilon
        lines.append(",".join([
            r.scheme, str(r.n), str(r.d), str(r.T), _fmt(r.dt), _fmt(eps),
            _fmt(r.success_prob), str(r.cnot_total), str(r.qubits),
            _fmt(r.wall_time),
        ]))
    out = Path(path)
    out.write_text("\n".join(lines) + "\n", encoding="ascii")
    return out


def scrub_timing(rows) -> list[RunReport]:
    """Copies with wall_time zeroed, for byte-reproducible CSV artifacts."""
    return [dataclasses.replace(r, wall_time=0.0, state=None) for r in rows]


def qft_error(n: int) -> float:
    """Largest entry gap between ``qft_circuit(n)`` and the dense transform
    F[j, k] = exp(2 pi i j k / 2**n) / 2**(n/2)."""
    N = 2**n
    jk = np.outer(np.arange(N), np.arange(N))
    dft = np.exp(2j * np.pi * jk / N) / math.sqrt(N)
    return float(np.max(np.abs(circuit_to_matrix(qft_circuit(n)) - dft)))


def wave_block_error(sys: ModeSystem, tau: float) -> float:
    """Largest entry gap between ``wave_evolution_circuit(sys, tau)`` (d=1)
    and, with the ancilla idle, the direct sum over modes j of the
    rotation by omega_j * tau / zeta on (u_j, v_j)."""
    N = sys.n_modes
    th = sys.omegas() * (tau / sys.zeta)
    j = np.arange(N)
    block = np.zeros((2 * N, 2 * N), dtype=complex)
    block[j, j] = block[j + N, j + N] = np.cos(th)
    block[j, j + N] = np.sin(th)
    block[j + N, j] = -np.sin(th)
    mat = circuit_to_matrix(wave_evolution_circuit(sys, tau))
    return float(np.max(np.abs(mat - np.kron(np.eye(2), block))))


def damping_contraction_error(g_dt: float, amp: np.ndarray) -> float:
    """Distance between ``damping_real_circuit(g_dt)`` with the ancilla
    postselected on |0> and diag(1, e^{-g_dt}) on the selector, for the
    state ``amp`` with its ancilla-|1> half zeroed, normalized."""
    half = amp.size // 2  # the ancilla is the top qubit
    state = StateVector.from_amplitudes(np.concatenate([amp[:half], np.zeros(half)]))
    want = state.amp.reshape(2, 2, -1).copy()  # (ancilla, selector, data)
    want[0, 1] *= math.exp(-g_dt)
    sys = ModeSystem(n=state.n_qubits - 2)
    apply_circuit(state, damping_real_circuit(g_dt, sys))
    p = postselect(state, sys.ancilla, 0)
    return float(np.linalg.norm(state.amp * math.sqrt(p) - want.reshape(-1)))


def damping_phase_error(x: float, amp: np.ndarray) -> float:
    """Distance between ``damping_phase_gate(x)`` and diag(1, e^{-i x}) on
    the selector, for the state ``amp`` normalized."""
    state = StateVector.from_amplitudes(amp)
    want = state.amp.reshape(2, 2, -1).copy()  # (ancilla, selector, data)
    want[:, 1] *= np.exp(-1j * x)
    apply_circuit(state, damping_phase_gate(x, ModeSystem(n=state.n_qubits - 2)))
    return float(np.linalg.norm(state.amp - want.reshape(-1)))


def dissipative_stage_error(g_dt: float, a: complex) -> float:
    """Largest entry gap between one dissipative stage of coefficient a
    (damp_real, damp_phase, ancilla postselected on |0>) and
    diag(1, 1, e^{-g_dt a}, e^{-g_dt a}) on the n=1 data+selector states."""
    sys = ModeSystem(n=1)
    real = damping_real_circuit(g_dt * a.real, sys)
    phase = damping_phase_gate(g_dt * a.imag, sys)
    cols = []
    for k in range(4):
        state = StateVector.basis(sys.n_qubits, k)
        apply_circuit(state, real)
        apply_circuit(state, phase)
        p = postselect(state, sys.ancilla, 0)
        cols.append(math.sqrt(p) * state.amp[:4])
    decay = np.exp(-g_dt * a)
    return float(np.max(np.abs(np.column_stack(cols) - np.diag([1, 1, decay, decay]))))


def selftest(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Oracle-equivalence suite; returns (name, passed, detail) rows."""
    rng = np.random.default_rng(seed)
    results: list[tuple[str, bool, str]] = []

    def check(name: str, err: float, tol: float) -> None:
        results.append((name, err <= tol, f"err={err:.3e} tol={tol:.1e}"))

    check("wave_circuit_blocks", max(wave_block_error(ModeSystem(n=n), float(tau))
                                     for n in (2, 3, 4)
                                     for tau in rng.uniform(-3.0, 3.0, size=3)), 1e-12)
    check("qft_matrix", max(qft_error(n) for n in (1, 2, 3, 4)), 1e-12)

    # dissipative contraction and phase stage on n=2, each against a
    # diagonal on the selector
    size = 16  # n=2: two data qubits, the selector and the ancilla
    check("damping_contraction", max(
        damping_contraction_error(g, rng.normal(size=size) + 1j * rng.normal(size=size))
        for g in (0.0, 0.05, 0.31)), 1e-13)
    check("damping_phase", damping_phase_error(
        0.42, rng.normal(size=size) + 1j * rng.normal(size=size)), 1e-13)

    # closed-form mode propagator against the series exponential
    worst = 0.0
    for om in (0.0, 0.3, 1.0, 6.0):
        for g in (0.0, 0.2, 2.0, 12.0):
            gen = np.array([[0.0, om], [-om, -g]])
            for t in (0.1, 1.3):
                worst = max(worst, float(np.max(np.abs(
                    mode_propagator(om, g, t) - dense_expm(gen, t)))))
    check("mode_propagator", worst, 1e-12)

    # Hermitian split reconstruction
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h1, h2 = hermitian_split(m)
    err = float(np.max(np.abs(h1 + 1j * h2 - m)))
    err = max(err, float(np.max(np.abs(h1 - h1.conj().T))))
    err = max(err, float(np.max(np.abs(h2 - h2.conj().T))))
    check("hermitian_split", err, 1e-14)

    # complex dissipative stage: real contraction, phase, postselection;
    # each draw takes g_dt, then Re a, then Im a from the stream
    check("complex_stage_factorization", max(
        dissipative_stage_error(float(rng.uniform(0.0, 1.0)),
                                complex(rng.uniform(0.01, 0.3), rng.uniform(-0.3, 0.3)))
        for _ in range(5)), 1e-13)

    # commuting split: H1 diagonal, H2 zero, any scheme is exact
    diag = np.diag(rng.uniform(-1.0, 0.0, size=4))
    for scheme in builtin_schemes():
        got = generic_split_matrix(scheme, diag, np.zeros((4, 4)), 0.8, 3)
        err = float(np.max(np.abs(got - dense_expm(diag, 0.8))))
        check(f"commuting_split_{scheme.name}", err, 1e-12)

    # undamped emulation matches the analytic solution for any T
    sys0 = ModeSystem(n=3, gamma=0.0)
    phi, dphi = gaussian_profile(sys0)
    rep = run_case(get_scheme("strang"), sys0, 1.7, 3, phi, dphi)
    check("undamped_exactness", rep.epsilon, 1e-11)

    # scheme tables
    for scheme in builtin_schemes():
        rep = validate_scheme(scheme)
        results.append((f"scheme_{scheme.name}", rep.passed,
                        "ok" if rep.passed else "; ".join(rep.violations)))
    return results
