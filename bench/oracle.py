"""Independent oracle for the benchmark's outputs.

Written from the documented conventions only, with no call into
wavesplit: the periodic Gaussian initial field, the spectral transform
u[j] = sum_k exp(+2 pi i j k / N) phi[k] / sqrt(N) flattened with axis 0
fastest, the per-mode frequency summed over the axes, and the
dissipative-first stage order.  Each mode carries a (u, v) pair of
displacement and scaled velocity; the split product and the closed-form
propagator act on every pair at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WIDTH = 100.0
CENTER = 0.5
# Seeded centre shifts move the Gaussian by whole cells of a 32-cell grid,
# an exact circular shift for every n >= 5: only per-mode phases change.
SHIFT_CELLS = 32
ORDER = {"lie": 1, "strang": 2, "castella4": 4, "bernier6": 6}

STATE_TOL = 1e-10      # emulated unit state against the split product (L2)
TAIL_TOL = 1e-12       # ancilla-|1> block (L2)
SUCCESS_TOL = 1e-10    # success probability against the squared-norm ratio
EPSILON_TOL = 1e-12    # reported epsilon against the recomputed one
ORDER_TOL = 0.3        # fitted order against the design order


def gaussian_field(n: int, d: int, shifts: tuple[int, ...]) -> np.ndarray:
    """exp(-WIDTH (x - CENTER)**2) per axis, multiplied over d axes and
    rolled along axis k by shifts[k] cells of the 32-cell grid."""
    N = 2**n
    line = np.exp(-WIDTH * (np.arange(N) / N - CENTER) ** 2)
    field = np.ones((N,) * d)
    for k in range(d):
        shape = [1] * d
        shape[k] = N
        field = field * np.roll(line, shifts[k] * N // SHIFT_CELLS).reshape(shape)
    return field


def frequencies(n: int, d: int) -> np.ndarray:
    """Summed axis frequencies over the flat index j0 + N j1 + N**2 j2,
    with c = L = 1 and the wraparound 2 pi min(j, N - j) per axis."""
    N = 2**n
    j = np.arange(N)
    axis = 2.0 * math.pi * np.minimum(j, N - j)
    total = axis
    for _ in range(d - 1):
        total = (axis[:, None] + total[None, :]).ravel()
    return total


def split_product(u, v, freqs, gamma, a, b, dt, T):
    """T steps of the per-mode split product, dissipative stage first:
    diag(1, exp(-gamma a_i dt)), then the rotation [[c, s], [-s, c]] at
    angle w b_i dt, and a closing dissipative stage when len(a) > len(b)."""
    u, v = u.astype(complex), v.astype(complex)
    damp = [np.exp(-gamma * complex(ai) * dt) for ai in a]
    rot = [(np.cos(freqs * bi * dt), np.sin(freqs * bi * dt)) for bi in b]
    for _ in range(T):
        for i, (c, s) in enumerate(rot):
            v = v * damp[i]
            u, v = c * u + s * v, -s * u + c * v
        if len(a) > len(b):
            v = v * damp[-1]
    return u, v


def damped_propagate(u, v, freqs, gamma, t):
    """Closed-form exp([[0, w], [-w, -gamma]] t) applied to every pair.

    With lam = sqrt(w**2 - gamma**2 / 4) taken complex, one formula
    covers the under- and overdamped modes."""
    lam = np.sqrt(freqs.astype(complex) ** 2 - 0.25 * gamma**2)
    tiny = np.abs(lam) < 1e-300
    c = np.cos(lam * t)
    s = np.where(tiny, t, np.sin(lam * t) / np.where(tiny, 1.0, lam))
    pref = math.exp(-0.5 * gamma * t)
    m00 = pref * (c + 0.5 * gamma * s)
    m01 = pref * freqs * s
    m11 = pref * (c - 0.5 * gamma * s)
    return m00 * u + m01 * v, -m01 * u + m11 * v


def cnot_budget(len_a: int, len_b: int, n: int, d: int) -> int:
    """One wave circuit of 2n + 4 CNOTs per unitary stage and dimension,
    one controlled rotation (2 CNOTs) per dissipative stage."""
    return len_b * d * (2 * n + 4) + 2 * len_a


@dataclass(frozen=True)
class Expected:
    """Oracle figures for one trajectory."""

    split_unit: np.ndarray    # unit (u, v) block of the split product
    success: float            # squared-norm ratio of the split product
    closed_unit: np.ndarray   # unit (u, v) block of the exact solution
    cnots: int                # per-step CNOT budget
    qubits: int


def trajectory(a, b, n: int, d: int, gamma: float, t_final: float, T: int,
               shifts: tuple[int, ...]) -> Expected:
    field = gaussian_field(n, d, shifts)
    u0 = (np.fft.ifftn(field) * math.sqrt(field.size)).ravel(order="F")
    v0 = np.zeros_like(u0)
    freqs = frequencies(n, d)
    su, sv = split_product(u0, v0, freqs, gamma, a, b, t_final / T, T)
    split = np.concatenate([su, sv])
    closed = np.concatenate(damped_propagate(u0, v0, freqs, gamma, t_final))
    base = float(np.linalg.norm(u0)) ** 2
    nrm = float(np.linalg.norm(split))
    return Expected(split / nrm, nrm**2 / base, closed / np.linalg.norm(closed),
                    cnot_budget(len(a), len(b), n, d), n * d + 2)


def check_trajectory(report, want: Expected, T: int) -> list[str]:
    """Compare one RunReport with the oracle; returns the failed checks."""
    amp = np.asarray(report.state.amp)
    m = want.split_unit.size
    faults = []
    err = float(np.linalg.norm(amp[:m] - want.split_unit))
    if not err <= STATE_TOL:
        faults.append(f"state off split product by {err:.3e}")
    tail = float(np.linalg.norm(amp[m:]))
    if not tail <= TAIL_TOL:
        faults.append(f"ancilla-|1> tail {tail:.3e}")
    if not abs(report.success_prob - want.success) <= SUCCESS_TOL:
        faults.append(f"success {report.success_prob!r} vs {want.success!r}")
    eps = math.sqrt(float(np.linalg.norm(amp[:m] - want.closed_unit)) ** 2 + tail**2)
    if report.epsilon is None or not abs(report.epsilon - eps) <= EPSILON_TOL:
        faults.append(f"epsilon {report.epsilon!r} vs recomputed {eps!r}")
    if (report.T, report.qubits, report.cnot_total) != (T, want.qubits, want.cnots * T):
        faults.append(f"T/qubits/cnots {report.T}/{report.qubits}/{report.cnot_total}")
    return faults


def check_gates(report, a, b, n: int, d: int) -> list[str]:
    """Compare one GateReport with the recomputed budget on nd + 2 qubits."""
    want = cnot_budget(len(a), len(b), n, d)
    got = (report.per_step_cnots, report.formula_cnots, report.qubits)
    if got != (want, want, n * d + 2):
        return [f"{report.scheme} n={n} d={d}: cnots/formula/qubits {got}, "
                f"want {want}/{want}/{n * d + 2}"]
    return []
