"""Dense little-endian statevector with postselection.

Qubit r addresses bit r of the basis-state integer, so index
j = sum_r 2**r q_r and qubit 0 is the least significant bit.  Every
function that evolves a state writes ``state.amp`` in place; a caller
that needs the input afterwards copies it first.  Working amplitudes
stay unit norm: ``postselect`` renormalizes and returns the outcome
probability, and the caller keeps the running product of those
probabilities (``splitting.simulate`` reports it as ``success_prob``).

A gate updates a pair view of the amplitudes (target 0 and 1, where the
control is 1) by one of four branches: diag scales a half in place; swap
copies the halves past each other, with no arithmetic for X and CNOT;
rot (every RY and CRY) computes c a - s b and c b + s a from two
entries; general takes any other 2x2.  rot and general copy the pair to
scratch, combine it there and copy it back, unless each half of the pair
is one block (the gate acts on the top qubit or the top two): then they
update the pair in place.  On the half states of the convergence sweeps
(64 to 256 amplitudes) a call costs more in the interpreter than in
arithmetic, so the kernel copies by slice assignment (np.copyto's
dispatch took 1.05 us on a 64-amplitude pair, the assignment 0.59 us),
takes each gate entry as a read-only 0-d array (a ufunc then skips
converting a scalar, about 0.23 us a call) and combines rot and general
on flat (2, m) views.  Views are per state: the first gate on a wiring
checks its qubits and caches the views on the state, so later gates on
it do only the arithmetic.  A state's scratch views are all carved from
one buffer, which starts on a 64-byte boundary and holds at least as
many amplitudes as the state, what a copied controlled rotation takes.
A state's fields are fixed at construction, so its cache is built on
first use, grows with the largest need seen (only a copied one-qubit
rotation or general gate needs more), and lives as long as the state.
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
        """The kernel's branch and its two operands, fixed per gate.
        "diag": the (half, entry) pairs whose entry is not 1, and None.
        "swap" (anti-diagonal): the same for the half holding b, which
        becomes m01 b, and the copy of a, which becomes m10 a, and None.
        "rot" (m00 == m11 and m01 == -m10, so every RY): c = m00 and
        s = m10.  "general": (m00, m11) and (m10, -m01) shaped (2, 1) to
        scale a flat pair.  Every operand is a read-only array (an entry a
        0-d one), which a ufunc takes without converting a scalar on each
        call; gates are shared, so no operand can be written."""
        m = np.array(self.matrix, dtype=complex).reshape(4)
        m.flags.writeable = False
        a, b, c, d = (m[i, ...] for i in range(4))
        if b == 0 == c:
            return "diag", tuple((h, k) for h, k in ((0, a), (1, d)) if k != 1), None
        if a == 0 == d:
            return "swap", tuple((h, k) for h, k in ((0, b), (1, c)) if k != 1), None
        if a == d and b == -c:
            return "rot", a, c
        pq = np.array([a, d, c, -b]).reshape(2, 2, 1)
        pq.flags.writeable = False
        return "general", *pq

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

    def __init__(self):
        super().__init__()
        self.work = None

    def __reduce__(self):
        return _Views, ()


@dataclass(frozen=True, eq=False)
class StateVector:
    """``amp`` is the 1-d C-contiguous complex array of 2**n_qubits
    amplitudes that gates update in place.  Any other array is rejected:
    a reshape of it could be a copy, and a gate would update that copy.
    Neither field can be reassigned; the values in ``amp`` can.

    ``_views`` caches the state's pair views and scratch by wiring; it is
    not a field.  States compare by identity."""

    n_qubits: int
    amp: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = self.amp
        if not (isinstance(a, np.ndarray) and a.dtype == complex and a.ndim == 1
                and a.size == 2**self.n_qubits and a.flags.c_contiguous):
            raise ValueError(f"amp must be a 1-d C-contiguous complex array of "
                             f"2**{self.n_qubits} amplitudes")
        object.__setattr__(self, "_views", _Views())

    @classmethod
    def basis(cls, n_qubits: int, index: int = 0) -> "StateVector":
        if not 0 <= index < 2**n_qubits:
            raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
        amp = _work(2**n_qubits)
        amp.fill(0)
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
        with np.errstate(over="ignore"):
            nrm = float(np.linalg.norm(amp))
        if not 0.0 < nrm < math.inf:  # the squares underflowed or overflowed
            top = float(np.max(np.abs([amp.real, amp.imag])))
            if top == 0.0:
                raise ValueError("cannot normalize a zero state")
            # a real quotient per part: a complex one overflows past 1 / top
            amp = (np.stack((amp.real, amp.imag), axis=-1) / top).view(complex)[:, 0]
            nrm = float(np.linalg.norm(amp))
        return cls(n, np.divide(amp, nrm, out=_work(amp.size)))


def _check_qubit(state: StateVector, qubit: int, role: str) -> None:
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"{role} qubit {qubit} out of range for {state.n_qubits} qubits")


def _work(size: int) -> np.ndarray:
    """``size`` empty amplitudes from a 64-byte boundary: numpy's loops on
    the scratch and the state ran up to 40% slower from other heap
    addresses, so ``basis``, ``from_amplitudes`` and ``encode_initial``
    start their states there too."""
    buf = np.empty(size + 3, dtype=complex)
    return buf[-buf.ctypes.data % 64 // 16:][:size]


def _carve(state: StateVector, key: tuple, target: int, control: int | None,
           kind: str) -> tuple:
    """Cache and return the views ``_combine`` takes for one wiring.  The
    pair view stacks the target-0 and target-1 amplitudes where the
    control is 1; C order puts high qubits first, so its last axis is a
    contiguous run of amplitudes.  A diagonal gate takes the pair's
    halves.  A swap takes the pair's first half, a scratch copy of one
    half, then the pair's halves and the copy as runs.  A rotation or
    general gate takes the scratch ``ab``, its halves, the scratch ``uv``,
    its halves, then the pair and ``ab`` as runs; ``ab`` and ``uv`` are
    (2, m) with 1-d halves, so each ufunc call walks flat operands.  Where
    each half of the pair is one block, ``ab`` is the pair itself, flat
    too, and there are no runs."""
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
    in_place = kind != "swap" and pair.shape[1] == pair.shape[2] == 1
    if in_place:  # each half is one block, so this reshape is a view
        pair = pair.reshape(2, -1)
    shape = pair.shape[1:] if kind == "swap" else pair.shape if in_place else (2, *pair.shape)
    size = math.prod(shape)
    if views.work is None or views.work.size < size:
        views.clear()  # every entry stays carved from the one buffer
        # at least what a copied controlled rotation takes, 2**n amplitudes,
        # so that a first CNOT's smaller swap scratch is not carved again
        views.work = _work(max(size, 2**n))
    scratch = views.work[:size].reshape(shape)
    if in_place:
        views[key] = (pair, *pair, scratch, *scratch)
        return views[key]
    # a copy moves one void element per run of the last axis, split so that
    # no element passes 2**10 amplitudes: numpy caps a void at 2**31 bytes
    run = min(pair.shape[-1], 2**10)
    void = np.dtype((np.void, 16 * run))

    def runs(v):
        return v.reshape(*v.shape[:-1], -1, run).view(void)

    if kind == "swap":
        views[key] = (pair[0], scratch, *runs(pair), runs(scratch))
    else:  # the arithmetic takes ab and uv flat, the copies take ab's runs
        ab, uv = scratch.reshape(2, 2, -1)
        views[key] = (ab, *ab, uv, *uv, runs(pair), runs(scratch[0]))
    return views[key]


def _combine(kind: str, p, q, views: tuple) -> None:
    """Apply a gate with ``_entries`` (kind, p, q) to the cached views."""
    if kind == "diag":
        for h, k in p:
            half = views[h]
            half *= k
        return
    # A strided ufunc pays per run of contiguous amplitudes, and a low
    # control qubit makes the runs short; a copy of whole runs pays far
    # less.  So a swap moves a out to scratch, b down to a and the scratch
    # up to b; a rotation or general gate copies the pair out once,
    # combines it contiguously and copies it back, unless each half is one
    # block: then it updates the pair in place, since the copies would
    # cost more than they save.  A slice assignment copies the same bytes
    # as np.copyto, without its Python-level dispatch.
    if kind == "swap":
        _, _, a_runs, b_runs, copy_runs = views
        copy_runs[...] = a_runs
        a_runs[...] = b_runs
        for h, k in p:
            half = views[h]
            half *= k
        b_runs[...] = copy_runs
        return
    # a rotation: c a - s b and c b + s a, with c = p and s = q; a
    # general gate: m00 a - (-m01) b and m11 b + m10 a, the same bits as
    # m00 a + m01 b since negation is exact
    copy = len(views) == 8
    if copy:
        ab, a, b, uv, u, v, pair_runs, ab_runs = views
        ab_runs[...] = pair_runs
    else:
        ab, a, b, uv, u, v = views
    np.multiply(ab, q, out=uv)
    ab *= p
    a -= v
    b += u
    if copy:
        pair_runs[...] = ab_runs


def apply_1q(state: StateVector, gate: Gate2x2, target: int) -> None:
    """Apply a single-qubit gate to ``state`` in place.  The first gate on
    a wiring checks it and caches its views on the state; later gates on
    that wiring do only the arithmetic."""
    kind, p, q = gate._entries
    views = state._views.get((target, kind))
    if views is None:
        _check_qubit(state, target, "target")
        views = _carve(state, (target, kind), target, None, kind)
    _combine(kind, p, q, views)


def apply_controlled(state: StateVector, gate: Gate2x2, control: int, target: int) -> None:
    """Apply ``gate`` to ``target`` on the control == 1 subspace, in place,
    with views cached per wiring as in ``apply_1q``."""
    kind, p, q = gate._entries
    views = state._views.get((target, control, kind))
    if views is None:
        _check_qubit(state, control, "control")
        _check_qubit(state, target, "target")
        if control == target:
            raise ValueError("control and target must be distinct qubits")
        views = _carve(state, (target, control, kind), target, control, kind)
    _combine(kind, p, q, views)


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


def postselect(state: StateVector, qubit: int, outcome: int) -> float:
    """Project ``state`` onto ``qubit == outcome`` in place and renormalize.

    Returns the outcome probability p; the unnormalized projection is
    sqrt(p) times the new state.  Nothing is written when the outcome
    is degenerate.
    """
    kept, dropped, re, im = _halves(state, qubit, outcome)
    p = float(np.einsum("ij,ij->", re, re) + np.einsum("ij,ij->", im, im))
    if not p >= 1e-300:  # a NaN probability is degenerate too
        raise DegeneratePostselectionError(
            f"outcome {outcome} on qubit {qubit} has probability {p:.3e}")
    p = min(p, 1.0)
    # numpy divides a complex by c + 0j as a product with 1.0 / c, so this
    # real product gives the same values (a signed zero may flip)
    kept *= 1.0 / math.sqrt(p)
    dropped[...] = 0
    return p
