"""Dense little-endian statevector with postselection.

Qubit r addresses bit r of the basis-state integer, so index
j = sum_r 2**r q_r and qubit 0 is the least significant bit.  Every
function that evolves a state writes ``state.amp`` in place; a caller
that needs the input afterwards copies it first.  Working amplitudes
stay unit norm: ``postselect`` renormalizes and returns the outcome
probability, and the caller keeps the running product of those
probabilities (``splitting.simulate`` reports it as ``success_prob``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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
        """The kernel's branch ("diag", "anti" or "general"), then (m00, m11)
        and (m01, m10) as views of the matrix shaped (2, 1, 1, 1), to
        scale a pair view."""
        m = np.asarray(self.matrix, dtype=complex)
        (a, b), (c, d) = m
        kind = "diag" if b == 0 == c else "anti" if a == 0 == d else "general"
        return kind, m.diagonal().reshape(2, 1, 1, 1), m[:, ::-1].diagonal().reshape(2, 1, 1, 1)

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
    """``amp`` is the 1-d C-contiguous complex array of 2**n_qubits
    amplitudes that gates update in place.  Any other array is rejected:
    a reshape of it could be a copy, and a gate would update that copy."""

    n_qubits: int
    amp: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = self.amp
        if not (isinstance(a, np.ndarray) and a.dtype == complex and a.ndim == 1
                and a.size == 2**self.n_qubits and a.flags.c_contiguous):
            raise ValueError(f"amp must be a 1-d C-contiguous complex array of "
                             f"2**{self.n_qubits} amplitudes")

    @classmethod
    def basis(cls, n_qubits: int, index: int = 0) -> "StateVector":
        if not 0 <= index < 2**n_qubits:
            raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
        amp = np.zeros(2**n_qubits, dtype=complex)
        amp[index] = 1.0
        return cls(n_qubits, amp)

    @classmethod
    def from_amplitudes(cls, amps) -> "StateVector":
        """Build from arbitrary amplitudes, normalizing to unit norm."""
        amp = np.asarray(amps, dtype=complex).reshape(-1)
        n = int(amp.size).bit_length() - 1
        if 2**n != amp.size:
            raise ValueError(f"amplitude count {amp.size} is not a power of two")
        nrm = float(np.linalg.norm(amp))
        if nrm == 0.0:
            raise ValueError("cannot normalize a zero state")
        return cls(n, amp / nrm)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amp))


def _check_qubit(state: StateVector, qubit: int, role: str) -> None:
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"{role} qubit {qubit} out of range for {state.n_qubits} qubits")


def _scratch(state: StateVector, work: np.ndarray | None, size: int) -> np.ndarray:
    """``size`` amplitudes of ``work``, or of a fresh array when it is None."""
    if work is None:
        return np.empty(size, dtype=complex)
    if (work.dtype != complex or work.size < size or not work.flags.c_contiguous
            or np.may_share_memory(work, state.amp)):
        raise ValueError(f"work must be a C-contiguous complex array of at least {size} "
                         f"amplitudes that does not overlap the amplitudes")
    return work.reshape(-1)[:size]


def _outcome_prob(state: StateVector, qubit: int, bit: int) -> float:
    """Squared norm of the amplitudes where ``qubit`` reads ``bit``."""
    # (high qubits, measured qubit, low qubits): the half is 2-d
    half = state.amp.reshape(-1, 2, 2**qubit)[:, bit]
    re, im = half.real, half.imag
    return float(np.einsum("ij,ij->", re, re) + np.einsum("ij,ij->", im, im))


@lru_cache(maxsize=None)  # keys are bounded by the qubit count
def _pair_plan(n: int, target: int, control: int | None) -> tuple:
    """``(shape, ctl1, axes)``: ``amp.reshape(shape)[ctl1].transpose(axes)``
    is the (2, ...) pair view of the target-0 and target-1 amplitudes where
    the control is 1.  C order puts high qubits first.
    """
    if control is None:
        return (2 ** (n - 1 - target), 2, 1, 2**target), ..., (1, 0, 2, 3)
    hi, lo = max(target, control), min(target, control)
    ctl1 = (slice(None),) * (1 if control == hi else 3) + (1,)
    return ((2 ** (n - 1 - hi), 2, 2 ** (hi - lo - 1), 2, 2**lo), ctl1,
            (1, 0, 2, 3) if target == hi else (2, 0, 1, 3))


def _apply_2x2(state: StateVector, gate: Gate2x2, target: int, control: int | None,
               work: np.ndarray | None) -> None:
    """Apply ``gate`` in place to the pair view of ``_pair_plan``."""
    shape, ctl1, axes = _pair_plan(state.n_qubits, target, control)
    pair = state.amp.reshape(shape)[ctl1].transpose(axes)
    kind, diag, cross = gate._entries
    if kind == "diag":
        for k, half in zip(diag.flat, pair):
            if k != 1:
                half *= k
        return
    # A strided ufunc pays per run of contiguous amplitudes, and a low
    # control qubit makes the runs short; a copy pays far less per run.
    # So the pair is copied out once, combined contiguously, copied back.
    if kind == "anti":
        ab = _scratch(state, work, pair.size).reshape(pair.shape)
        np.copyto(ab, pair)
        np.multiply(ab[::-1], cross, out=pair)
        return
    ab, uv = _scratch(state, work, 2 * pair.size).reshape((2, *pair.shape))
    np.copyto(ab, pair)
    np.multiply(ab[::-1], cross, out=uv)  # (m01 b, m10 a)
    ab *= diag
    ab += uv
    np.copyto(pair, ab)


def apply_1q(state: StateVector, gate: Gate2x2, target: int, *,
             work: np.ndarray | None = None) -> None:
    """Apply a single-qubit gate to ``state`` in place.

    ``work`` is scratch space the gate may overwrite, so that a run of
    large gates need not allocate on every call.  A controlled gate needs
    at most 2**n amplitudes of it and a single-qubit gate 2**(n+1); a
    shorter ``work`` is an error, and without it the gate allocates its own.
    """
    _check_qubit(state, target, "target")
    _apply_2x2(state, gate, target, None, work)


def apply_controlled(state: StateVector, gate: Gate2x2, control: int, target: int, *,
                     work: np.ndarray | None = None) -> None:
    """Apply ``gate`` to ``target`` on the control == 1 subspace, in place.

    ``work`` is as in ``apply_1q``.
    """
    _check_qubit(state, control, "control")
    _check_qubit(state, target, "target")
    if control == target:
        raise ValueError("control and target must be distinct qubits")
    _apply_2x2(state, gate, target, control, work)


def postselect(state: StateVector, qubit: int, outcome: int) -> float:
    """Project ``state`` onto ``qubit == outcome`` in place and renormalize.

    Returns the outcome probability p; the unnormalized projection is
    sqrt(p) times the new state.  Nothing is written when the outcome
    is degenerate.
    """
    _check_qubit(state, qubit, "measured")
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    p = _outcome_prob(state, qubit, outcome)
    if p < 1e-300:
        raise DegeneratePostselectionError(
            f"outcome {outcome} on qubit {qubit} has probability {p:.3e}")
    p = min(p, 1.0)
    phi = state.amp.reshape(-1, 2, 2**qubit)
    phi[:, outcome] /= math.sqrt(p)
    phi[:, 1 - outcome] = 0
    return p
