"""Dense little-endian statevector with postselection bookkeeping.

Qubit r addresses bit r of the basis-state integer, so index
j = sum_r 2**r q_r and qubit 0 is the least significant bit.  Working
amplitudes stay unit norm; ``magnitude`` accumulates the square root of
every postselection probability, so magnitude**2 is the cumulative
success probability of the trajectory and also the squared norm of the
unnormalized evolution of a unit initial state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class DegeneratePostselectionError(ValueError):
    """Postselection outcome has (numerically) zero probability."""


@dataclass(frozen=True)
class Gate2x2:
    """Single-qubit gate as a 2x2 unitary."""

    matrix: np.ndarray = field(repr=False)
    name: str = "U"

    @cached_property
    def _entries(self) -> tuple:
        """The kernel's branch and the entries it needs, as Python scalars
        (floats where real): ("diag", m00, m11), ("anti", m01, m10), or
        ("general", m00, m01, m10, m11)."""
        (a, b), (c, d) = ((z.real if z.imag == 0 else z for z in map(complex, row))
                          for row in self.matrix)
        if b == 0 and c == 0:
            return ("diag", a, d)
        if a == 0 and d == 0:
            return ("anti", b, c)
        return ("general", a, b, c, d)

    @classmethod
    def ry(cls, theta: float) -> "Gate2x2":
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return cls(np.array([[c, -s], [s, c]], dtype=complex), "RY")

    @classmethod
    def rz(cls, theta: float) -> "Gate2x2":
        e = np.exp(-0.5j * theta)
        return cls(np.array([[e, 0], [0, e.conjugate()]], dtype=complex), "RZ")

    @classmethod
    def p(cls, theta: float) -> "Gate2x2":
        return cls(np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=complex), "P")

    @classmethod
    def x(cls) -> "Gate2x2":
        return cls(np.array([[0, 1], [1, 0]], dtype=complex), "X")


@dataclass
class StateVector:
    n_qubits: int
    amp: np.ndarray = field(repr=False)
    magnitude: float = 1.0

    @classmethod
    def basis(cls, n_qubits: int, index: int = 0) -> "StateVector":
        if not 0 <= index < 2**n_qubits:
            raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
        amp = np.zeros(2**n_qubits, dtype=complex)
        amp[index] = 1.0
        return cls(n_qubits, amp)

    @classmethod
    def from_amplitudes(cls, amps, magnitude: float = 1.0) -> "StateVector":
        """Build from arbitrary amplitudes, normalizing to unit norm."""
        amp = np.asarray(amps, dtype=complex).reshape(-1)
        n = int(amp.size).bit_length() - 1
        if 2**n != amp.size:
            raise ValueError(f"amplitude count {amp.size} is not a power of two")
        nrm = float(np.linalg.norm(amp))
        if nrm == 0.0:
            raise ValueError("cannot normalize a zero state")
        return cls(n, amp / nrm, magnitude)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amp))


def _check_qubit(state: StateVector, qubit: int, role: str) -> None:
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"{role} qubit {qubit} out of range for {state.n_qubits} qubits")


def _output(state: StateVector, out: np.ndarray | None) -> np.ndarray:
    """The array a gate writes: ``out``, or a fresh one when it is None."""
    size = 2**state.n_qubits
    if out is None:
        return np.empty(size, dtype=complex)
    if (out.dtype != complex or out.size != size or not out.flags.c_contiguous
            or out is not state.amp and np.may_share_memory(out, state.amp)):
        raise ValueError(f"out must be state.amp or a C-contiguous complex array of "
                         f"{size} amplitudes that does not overlap it")
    return out


def _scratch(state: StateVector, dst: np.ndarray, work: np.ndarray | None,
             size: int) -> np.ndarray:
    """``size`` amplitudes of ``work``, or of a fresh array when it is None."""
    if work is None:
        return np.empty(size, dtype=complex)
    if (work.dtype != complex or work.size < size or not work.flags.c_contiguous
            or np.may_share_memory(work, state.amp) or np.may_share_memory(work, dst)):
        raise ValueError(f"work must be a C-contiguous complex array of at least {size} "
                         f"amplitudes that does not overlap the amplitudes")
    return work.reshape(-1)[:size]


def _pin(psi: np.ndarray, pins) -> np.ndarray:
    """Basic-slice view of ``psi`` with each ``(qubit, bit)`` pinned.

    The trailing Ellipsis keeps a fully pinned view an array, so it can
    still be written through.
    """
    sel = [slice(None)] * psi.ndim
    for qubit, bit in pins:
        sel[psi.ndim - 1 - qubit] = bit  # C-order reshape puts qubit n-1 on axis 0
    return psi[(*sel, ...)]


def _scale(src: np.ndarray, k, dst: np.ndarray) -> None:
    if k != 1:
        np.multiply(src, k, out=dst)
    elif dst is not src:
        np.copyto(dst, src)


def _apply_2x2(state: StateVector, gate: Gate2x2, target: int, control: int | None,
               out: np.ndarray | None, work: np.ndarray | None) -> StateVector:
    """Apply ``gate`` to the target-0/target-1 halves of the control-1
    subspace through strided views.  ``out`` may be ``state.amp``.
    """
    n = state.n_qubits
    dst = _output(state, out)
    psi, phi = state.amp.reshape((2,) * n), dst.reshape((2,) * n)
    ctl = () if control is None else ((control, 1),)
    s0, s1 = _pin(psi, ((target, 0), *ctl)), _pin(psi, ((target, 1), *ctl))
    d0, d1 = s0, s1
    if dst is not state.amp:
        if control is not None:
            np.copyto(_pin(phi, ((control, 0),)), _pin(psi, ((control, 0),)))
        d0, d1 = _pin(phi, ((target, 0), *ctl)), _pin(phi, ((target, 1), *ctl))
    result = StateVector(n, dst, state.magnitude)
    kind, *m = gate._entries
    if kind == "diag":
        _scale(s0, m[0], d0)
        _scale(s1, m[1], d1)
        return result
    # A strided ufunc pays per run of contiguous amplitudes, and a low
    # control qubit makes the runs short; a copy pays far less per run.
    # So the halves are copied out, combined contiguously, copied back.
    k = s0.size
    if kind == "anti":
        a = _scratch(state, dst, work, k).reshape(s0.shape)
        np.copyto(a, s0)
        _scale(s1, m[0], d0)
        _scale(a, m[1], d1)
        return result
    m00, m01, m10, m11 = m
    tmp = _scratch(state, dst, work, 4 * k)
    a, b, u, v = (tmp[i * k:(i + 1) * k].reshape(s0.shape) for i in range(4))
    np.copyto(a, s0)
    np.copyto(b, s1)
    np.multiply(b, m01, out=u)
    np.multiply(a, m10, out=v)
    a *= m00
    a += u
    b *= m11
    b += v
    np.copyto(d0, a)
    np.copyto(d1, b)
    return result


def apply_1q(state: StateVector, gate: Gate2x2, target: int,
             out: np.ndarray | None = None, *,
             work: np.ndarray | None = None) -> StateVector:
    """Apply a single-qubit gate, returning a new state.

    The amplitudes go to ``out`` when given, which may be ``state.amp``
    itself; otherwise to a fresh array, leaving the input untouched.
    ``work`` is scratch space the gate may overwrite, so that a run of
    large gates need not allocate on every call.  A controlled gate needs
    at most 2**n amplitudes of it and a single-qubit gate 2**(n+1); a
    shorter ``work`` is an error, and without it the gate allocates its own.
    """
    _check_qubit(state, target, "target")
    return _apply_2x2(state, gate, target, None, out, work)


def apply_controlled(state: StateVector, gate: Gate2x2, control: int, target: int,
                     out: np.ndarray | None = None, *,
                     work: np.ndarray | None = None) -> StateVector:
    """Apply ``gate`` to ``target`` on the control == 1 subspace.

    ``out`` and ``work`` are as in ``apply_1q``.
    """
    _check_qubit(state, control, "control")
    _check_qubit(state, target, "target")
    if control == target:
        raise ValueError("control and target must be distinct qubits")
    return _apply_2x2(state, gate, target, control, out, work)


def postselect(state: StateVector, qubit: int, outcome: int,
               out: np.ndarray | None = None) -> tuple[float, StateVector]:
    """Project onto ``qubit == outcome`` and renormalize.

    Returns the outcome probability p and the projected state; the new
    state's magnitude is the old one scaled by sqrt(p).  ``out`` works
    as in ``apply_1q``; nothing is written when the outcome is degenerate.
    """
    _check_qubit(state, qubit, "measured")
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    n = state.n_qubits
    # (high qubits, measured qubit, low qubits): the kept half is 2-d
    kept = state.amp.reshape(-1, 2, 2**qubit)[:, outcome]
    re, im = kept.real, kept.imag
    p = float(np.einsum("ij,ij->", re, re) + np.einsum("ij,ij->", im, im))
    if p < 1e-300:
        raise DegeneratePostselectionError(
            f"outcome {outcome} on qubit {qubit} has probability {p:.3e}")
    p = min(p, 1.0)
    dst = _output(state, out)
    phi = dst.reshape(-1, 2, 2**qubit)
    np.divide(kept, math.sqrt(p), out=phi[:, outcome])
    phi[:, 1 - outcome] = 0
    return p, StateVector(n, dst, state.magnitude * math.sqrt(p))


def fidelity_error(state: StateVector, reference) -> float:
    """L2 distance between the working amplitudes and a reference vector.

    The reference is expected to be pre-scaled to unit norm by the caller.
    """
    ref = np.asarray(reference, dtype=complex).reshape(-1)
    if ref.size != state.amp.size:
        raise ValueError(f"reference length {ref.size} != state length {state.amp.size}")
    return float(np.linalg.norm(state.amp - ref))
