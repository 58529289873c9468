"""Dense little-endian statevector with postselection.

Qubit r addresses bit r of the basis-state integer, so index
j = sum_r 2**r q_r and qubit 0 is the least significant bit.  Every
function that evolves a state writes ``state.amp`` in place; a caller
that needs the input afterwards copies it first.  Working amplitudes
stay unit norm: ``postselect`` renormalizes and returns the outcome
probability, and the caller keeps the running product of those
probabilities (``splitting.simulate`` reports it as ``success_prob``).

A gate updates a pair view of the amplitudes through scratch views.
Both are per state: the first gate on a wiring checks its qubits and
caches the views on the state, so later gates on it do only the
arithmetic.  A state's scratch views are all carved from one buffer,
which starts on a 64-byte boundary.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
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
    def p(cls, theta: float) -> "Gate2x2":
        return cls(np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=complex), "P")

    @classmethod
    def x(cls) -> "Gate2x2":
        return cls(np.array([[0, 1], [1, 0]], dtype=complex), "X")


class _Views(dict):
    """A state's cached views, keyed by wiring and kernel branch, their
    scratch all carved from the one buffer ``work``.  A copy or pickle is
    empty: the views belong to the original amplitudes."""

    __slots__ = ("work",)

    def __init__(self, work=None):
        super().__init__()
        self.work = work

    def __reduce__(self):
        return _Views, ()


@dataclass(eq=False)
class StateVector:
    """``amp`` is the 1-d C-contiguous complex array of 2**n_qubits
    amplitudes that gates update in place.  Any other array is rejected:
    a reshape of it could be a copy, and a gate would update that copy.

    ``_views`` caches the state's pair views and scratch by wiring; it is
    not a field, and assigning ``amp`` or ``n_qubits`` starts it afresh.
    States compare by identity."""

    n_qubits: int
    amp: np.ndarray = field(repr=False)

    def __setattr__(self, name, value):
        if name == "amp" and not (
                isinstance(value, np.ndarray) and value.dtype == complex and value.ndim == 1
                and value.size == 2**self.n_qubits and value.flags.c_contiguous):
            raise ValueError(f"amp must be a 1-d C-contiguous complex array of "
                             f"2**{self.n_qubits} amplitudes")
        object.__setattr__(self, name, value)
        if name != "_views":
            object.__setattr__(self, "_views", _Views())

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
        if not np.isfinite(amp).all():
            raise ValueError("amplitudes must be finite")
        nrm = float(np.linalg.norm(amp))
        if nrm == 0.0:
            raise ValueError("cannot normalize a zero state")
        return cls(n, amp / nrm)


def _check_qubit(state: StateVector, qubit: int, role: str) -> None:
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"{role} qubit {qubit} out of range for {state.n_qubits} qubits")


def _work(size: int) -> np.ndarray:
    """``size`` empty amplitudes from a 64-byte boundary: numpy's loops on
    the scratch and the state ran up to 40% slower from other heap
    addresses."""
    buf = np.empty(size + 3, dtype=complex)
    return buf[-buf.ctypes.data % 64 // 16:][:size]


@contextmanager
def _shared_work(states, size: int):
    """Carve the scratch of every state in ``states`` from one new buffer
    of ``size`` amplitudes, and drop their caches on exit.  A state that
    needs more scratch meanwhile grows its own."""
    work = _work(size)
    for state in states:
        state._views = _Views(work)
    try:
        yield
    finally:
        for state in states:
            state._views = _Views()


def _carve(state: StateVector, key: tuple, target: int, control: int | None,
           kind: str) -> tuple:
    """Cache and return the views ``_combine`` takes for one wiring: the
    halves of the pair view for a diagonal gate, else the pair, its
    scratch copy ``ab``, ``ab`` reversed, for a general gate ``uv``, and
    the pair and ``ab`` as runs.  The pair view stacks the target-0 and
    target-1 amplitudes where the control is 1; C order puts high qubits
    first, so its last axis is a contiguous run of amplitudes."""
    n, views = state.n_qubits, state._views
    if control is None:
        pair = state.amp.reshape(2 ** (n - 1 - target), 2, 1, 2**target).transpose(1, 0, 2, 3)
    else:
        hi, lo = max(target, control), min(target, control)
        ctl1 = (slice(None),) * (1 if control == hi else 3) + (1,)
        pair = state.amp.reshape(2 ** (n - 1 - hi), 2, 2 ** (hi - lo - 1), 2, 2**lo)[ctl1]
        pair = pair.transpose((1, 0, 2, 3) if target == hi else (2, 0, 1, 3))
    if kind == "diag":
        views[key] = tuple(pair)
        return views[key]
    size = pair.size * (1 if kind == "anti" else 2)
    if views.work is None or views.work.size < size:
        views.clear()  # every entry stays carved from the one buffer
        views.work = _work(size)
    scratch = views.work[:size].reshape((-1, *pair.shape))  # ab, and uv if general
    # pair and ab again, one element per run of the last axis, split so that
    # no element passes 2**10 amplitudes: numpy caps a void at 2**31 bytes
    run = min(pair.shape[-1], 2**10)
    split, void = (*pair.shape[:-1], -1, run), np.dtype((np.void, 16 * run))
    runs = tuple(v.reshape(split).view(void) for v in (pair, scratch[0]))
    views[key] = (pair, scratch[0], scratch[0, ::-1], *scratch[1:], *runs)
    return views[key]


def _combine(kind: str, diag: np.ndarray, cross: np.ndarray, views: tuple) -> None:
    """Apply the 2x2 with entries ``diag`` and ``cross`` to the cached views."""
    if kind == "diag":
        for k, half in zip(diag.flat, views):
            if k != 1:
                half *= k
        return
    # A strided ufunc pays per run of contiguous amplitudes, and a low
    # control qubit makes the runs short; a copy of whole runs pays far
    # less.  So the pair is copied out once, combined contiguously, copied back.
    if kind == "anti":
        pair, ab, ba, pair_runs, ab_runs = views
        np.copyto(ab_runs, pair_runs)
        np.multiply(ba, cross, out=pair)
        return
    pair, ab, ba, uv, pair_runs, ab_runs = views
    np.copyto(ab_runs, pair_runs)
    np.multiply(ba, cross, out=uv)  # (m01 b, m10 a)
    ab *= diag
    ab += uv
    np.copyto(pair_runs, ab_runs)


def apply_1q(state: StateVector, gate: Gate2x2, target: int) -> None:
    """Apply a single-qubit gate to ``state`` in place.  The first gate on
    a wiring checks it and caches its views on the state; later gates on
    that wiring do only the arithmetic."""
    kind, diag, cross = gate._entries
    views = state._views.get((target, kind))
    if views is None:
        _check_qubit(state, target, "target")
        views = _carve(state, (target, kind), target, None, kind)
    _combine(kind, diag, cross, views)


def apply_controlled(state: StateVector, gate: Gate2x2, control: int, target: int) -> None:
    """Apply ``gate`` to ``target`` on the control == 1 subspace, in place,
    with views cached per wiring as in ``apply_1q``."""
    kind, diag, cross = gate._entries
    views = state._views.get((target, control, kind))
    if views is None:
        _check_qubit(state, control, "control")
        _check_qubit(state, target, "target")
        if control == target:
            raise ValueError("control and target must be distinct qubits")
        views = _carve(state, (target, control, kind), target, control, kind)
    _combine(kind, diag, cross, views)


def _halves(state: StateVector, qubit: int, bit: int) -> tuple:
    """The cached (kept as float64, dropped, kept.real, kept.imag) halves
    of the amplitudes where ``qubit`` reads ``bit`` and ``1 - bit``."""
    views = state._views.get(("half", qubit, bit))
    if views is None:
        _check_qubit(state, qubit, "measured")
        if bit not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {bit}")
        # (high qubits, measured qubit, low qubits): each half is 2-d
        phi = state.amp.reshape(-1, 2, 2**qubit)
        kept = phi[:, bit]
        views = state._views["half", qubit, bit] = (
            kept.view(np.float64), phi[:, 1 - bit], kept.real, kept.imag)
    return views


def _outcome_prob(halves: tuple) -> float:
    """Squared norm of the kept half of ``_halves``."""
    _, _, re, im = halves
    return float(np.einsum("ij,ij->", re, re) + np.einsum("ij,ij->", im, im))


def postselect(state: StateVector, qubit: int, outcome: int) -> float:
    """Project ``state`` onto ``qubit == outcome`` in place and renormalize.

    Returns the outcome probability p; the unnormalized projection is
    sqrt(p) times the new state.  Nothing is written when the outcome
    is degenerate.
    """
    halves = _halves(state, qubit, outcome)
    p = _outcome_prob(halves)
    if not p >= 1e-300:  # a NaN probability is degenerate too
        raise DegeneratePostselectionError(
            f"outcome {outcome} on qubit {qubit} has probability {p:.3e}")
    p = min(p, 1.0)
    # numpy divides a complex by c + 0j as a product with 1.0 / c, so this
    # real product gives the same values (a signed zero may flip)
    kept, dropped, _, _ = halves
    kept *= 1.0 / math.sqrt(p)
    dropped[...] = 0
    return p
