"""Analytic oracles: per-mode propagators, matrix exponentials, encoding.

Spectral convention, fixed to match ``qft_circuit``: the forward
transform is u[j] = sum_k exp(+2 pi i j k / N) phi[k] / sqrt(N), i.e.
numpy's ifft scaled by sqrt(N).  With that convention Parseval holds
with no extra factors and encode/decode round-trips are exact up to
floating point.

Each mode pairs a displacement coefficient u with a scaled velocity
v (the time derivative divided by the mode frequency).  The per-mode
generator is [[0, w], [-w, 0]] plus diag(0, -gamma), whose exponential
has the closed form implemented by ``mode_propagator``.

``exact_solution`` evaluates it once per distinct wrapped frequency
(``ModeSystem.frequency_grid``) and gathers the entries over the modes,
bit for bit.  ``spectral_pairs`` rejects a nan or inf field before any
transform, and does not transform a zero velocity field.  The
propagators and ``dense_expm`` reject a nan or inf argument the same way,
and ``dense_expm`` raises ValueError where finite input overflows or
needs more squarings than keep its result accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuits import ModeSystem
from .statevector import StateVector, _work

_EXPM_DIM_CAP = 64
# each squaring can double the relative rounding error of the Taylor core,
# so 20 squarings amplify it up to 2**20 * eps ~ 2e-10; |M t|_1 <= 2**18 passes
_EXPM_MAX_SQUARINGS = 20
_CRITICAL_REL_TOL = 1e-12
_EXP_NORMAL = -math.log(np.finfo(float).tiny)  # 708.4: exp(-x) is normal below it


@dataclass(frozen=True)
class ModePairs:
    """Unnormalized spectral (u, v) coefficients over the flat mode index."""

    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.u.shape != self.v.shape or self.u.ndim != 1:
            raise ValueError("u and v must be 1-d arrays of equal length")

    @property
    def n_modes(self) -> int:
        return self.u.size

    def concat(self) -> np.ndarray:
        return np.concatenate([self.u, self.v])


def _propagator_entries(omega, gamma: float, t: float):
    """Entries of exp(([[0, w], [-w, -gamma]]) * t), vectorized over w.
    A negative t grows the modes, and raises ValueError where they overflow."""
    if not t < 0:
        return _entries(omega, gamma, t)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            entries = _entries(omega, gamma, t)
            if all(np.isfinite(m).all() for m in entries):
                return entries
        except OverflowError:  # math.exp of the prefactor
            pass
    raise ValueError(f"the propagator over t = {t} overflows at gamma = {gamma}")


def _entries(omega, gamma: float, t: float):
    om = np.asarray(omega, dtype=float)
    if math.isfinite(float(gamma) * float(gamma)):
        disc = om * om - 0.25 * gamma * gamma
        thr = _CRITICAL_REL_TOL * gamma * gamma
        under = disc > thr
        over = disc < -thr
        osc = np.sqrt(np.where(under, disc, 1.0))
        dec = np.sqrt(np.where(over, -disc, 1.0))
    else:
        # gamma**2 overflows: classify by (h - w)(h + w) / h**2 with
        # h = gamma / 2, and take each root as a product of two roots
        h = 0.5 * gamma
        rel = (1 - om / h) * (1 + om / h)
        under = rel < -4 * _CRITICAL_REL_TOL
        over = rel > 4 * _CRITICAL_REL_TOL
        osc = np.sqrt(np.where(under, om - h, 1.0)) * np.sqrt(np.where(under, om + h, 1.0))
        dec = np.sqrt(np.where(over, h - om, 1.0)) * np.sqrt(np.where(over, h + om, 1.0))
    # past this, exp(-gamma t / 2) leaves the normal range and cosh(dec t)
    # may overflow, so overdamped modes fold it into their exponents; the
    # other modes take cosh and sinh of 0, which np.where then discards
    fold = over & (0.5 * gamma * abs(t) > _EXP_NORMAL)
    xt = np.where(over & ~fold, dec * t, 0.0)
    c = np.where(under, np.cos(osc * t), np.where(over, np.cosh(xt), 1.0))
    s = np.where(under, np.sin(osc * t) / osc, np.where(over, np.sinh(xt) / dec, t))
    pref = math.exp(-0.5 * gamma * t)
    m00 = pref * (c + 0.5 * gamma * s)
    m01 = pref * om * s
    m11 = pref * (c - 0.5 * gamma * s)
    if fold.any():
        d, w = dec[fold], om[fold]
        ep = np.exp(-w * w / (d + 0.5 * gamma) * t)  # exp((dec - gamma/2) t)
        em = np.exp(-(d + 0.5 * gamma) * t)
        pc, ps = 0.5 * (ep + em), 0.5 * (ep - em) / d
        m00[fold], m01[fold], m11[fold] = pc + 0.5 * gamma * ps, w * ps, pc - 0.5 * gamma * ps
    return m00, m01, -m01, m11


def mode_propagator(omega: float, gamma: float, t: float) -> np.ndarray:
    """Closed-form 2x2 propagator of one damped mode over time t.

    Switches to the critically damped branch when |omega**2 -
    gamma**2/4| falls below 1e-12 * gamma**2.  gamma == 0 gives a pure
    rotation, omega == 0 gives diag(1, exp(-gamma t)).
    """
    if not (math.isfinite(omega) and math.isfinite(gamma) and math.isfinite(t)):
        raise ValueError("omega, gamma and t must be finite")
    if omega < 0 or gamma < 0:
        raise ValueError("omega and gamma must be nonnegative")
    m00, m01, m10, m11 = _propagator_entries(np.array([omega]), gamma, t)
    return np.array([[m00[0], m01[0]], [m10[0], m11[0]]], dtype=complex)


def dense_expm(m, t: float = 1.0) -> np.ndarray:
    """exp(M t) by scaling and squaring with a truncated Taylor core.
    Raises ValueError past 20 squarings (|M t|_1 > 2**18), where rounding
    would swamp the result, and where finite input overflows."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    if a.shape[0] > _EXPM_DIM_CAP:
        raise ValueError(f"dense exponential capped at dimension {_EXPM_DIM_CAP}")
    if not (math.isfinite(t) and np.isfinite(a).all()):
        raise ValueError("matrix and t must be finite")
    # finite input can still overflow: in the product, in the power of two
    # that scales it, or in the squarings
    with np.errstate(over="raise"):
        try:
            a = a * t
            nrm = float(np.linalg.norm(a, 1))
            squarings = 0 if nrm <= 0.25 else int(math.ceil(math.log2(nrm / 0.25)))
            if squarings > _EXPM_MAX_SQUARINGS:
                raise ValueError(f"exp(M t) needs {squarings} squarings, past the "
                                 f"{_EXPM_MAX_SQUARINGS} that keep it accurate")
            a = a / (2.0**squarings)
            out = np.eye(a.shape[0], dtype=complex) + a
            term = a.copy()
            for k in range(2, 40):
                term = term @ a / k
                out = out + term
                if np.max(np.abs(term)) < 1e-20 * max(1.0, np.max(np.abs(out))):
                    break
            for _ in range(squarings):
                out = out @ out
        except (FloatingPointError, OverflowError):
            raise ValueError("exp(M t) overflows") from None
    return out


def hermitian_split(m) -> tuple[np.ndarray, np.ndarray]:
    """Split M into Hermitian H1, H2 with H1 + i H2 == M."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    ah = a.conj().T
    return (a + ah) / 2.0, (a - ah) / 2.0j


def spectral_pairs(phi, dphi_scaled) -> ModePairs:
    """Transform physical fields into spectral (u, v) mode pairs.

    ``dphi_scaled`` is the velocity field already divided by the wave
    operator's magnitude, so its transform is the per-mode scaled
    velocity directly.  A nan or inf in either field raises, as does a
    nonzero scaled velocity on the zero-frequency mode, which has no
    physical preimage.  Multi-dimensional arrays are flattened with axis
    0 fastest.
    """
    p = np.asarray(phi, dtype=complex)
    w = np.asarray(dphi_scaled, dtype=complex)
    if p.shape != w.shape:
        raise ValueError("fields must share a shape")
    for size in p.shape:
        if size < 2 or size & (size - 1):
            raise ValueError("each axis length must be a power of two, >= 2")
    if not (np.isfinite(p).all() and np.isfinite(w).all()):
        raise ValueError("initial fields must be finite")
    root = math.sqrt(p.size)
    u = (np.fft.ifftn(p) * root).ravel(order="F")
    # a zero field transforms to zeros
    v = (np.fft.ifftn(w) * root).ravel(order="F") if w.any() else np.zeros(p.size, complex)
    vmax = float(np.max(np.abs(v))) if v.size else 0.0
    if vmax > 0 and abs(v[0]) > 1e-10 * vmax:
        raise ValueError("zero-frequency mode carries velocity; it cannot be "
                         "represented in scaled-velocity form")
    return ModePairs(u, v)


def encode_initial(phi, dphi_scaled) -> StateVector:
    """Encode physical fields as a normalized statevector.

    The data register holds the mode index, the selector separates u
    (|0>) from v (|1>), and one ancilla is appended in |0> (the layout
    of ``ModeSystem``).  The discarded normalization is the norm of
    ``spectral_pairs(...).concat()``.
    """
    pairs = spectral_pairs(phi, dphi_scaled)
    vec = pairs.concat()
    nrm = float(np.linalg.norm(vec))
    if nrm == 0.0:
        raise ValueError("cannot encode a zero initial state")
    if not math.isfinite(nrm):
        raise ValueError("initial fields must be finite")
    n_data = int(pairs.n_modes).bit_length() - 1
    # from a 64-byte boundary, as the kernel's scratch
    amp = _work(2 ** (n_data + 2))
    amp[: 2 * pairs.n_modes] = vec / nrm
    amp[2 * pairs.n_modes:] = 0
    return StateVector(n_data + 2, amp)


def decode_state(state: StateVector, shape: tuple[int, ...] | None = None):
    """Inverse of ``encode_initial`` up to the discarded global scale.

    Returns complex (phi, dphi_scaled) arrays; ``shape`` restores a
    multi-dimensional field (axis 0 fastest), default is 1-d.
    """
    n_data = state.n_qubits - 2
    if n_data < 1:
        raise ValueError("state too small to carry a data register")
    n_modes = 2**n_data
    u = state.amp[:n_modes]
    v = state.amp[n_modes: 2 * n_modes]
    if shape is None:
        shape = (n_modes,)
    u = u.reshape(shape, order="F")
    v = v.reshape(shape, order="F")
    root = math.sqrt(u.size)
    return np.fft.fftn(u) / root, np.fft.fftn(v) / root


def exact_solution(sys: ModeSystem, pairs: ModePairs, t: float):
    """Propagate mode pairs analytically to time t.

    Returns (unnormalized, unit) concatenated (u, v) vectors of length
    2 * n_modes, matching the encoded layout without the ancilla.
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    grid, index = sys.frequency_grid()
    if index.size != pairs.n_modes:
        raise ValueError(f"system has {index.size} modes, pairs carry {pairs.n_modes}")
    m00, m01, m10, m11 = (m[index] for m in _propagator_entries(grid, sys.gamma, t))
    u = m00 * pairs.u + m01 * pairs.v
    v = m10 * pairs.u + m11 * pairs.v
    full = np.concatenate([u, v])
    nrm = float(np.linalg.norm(full))
    if nrm == 0.0:
        raise ValueError("propagated state vanished; cannot produce a unit vector")
    return full, full / nrm
