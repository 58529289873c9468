"""Gate-level circuits for spectral damped-wave evolution.

Gate vocabulary is deliberately small: RY, P, X plus their controlled
forms CRY, CP, CNOT.  Cost accounting is in CNOT equivalents, with each
controlled rotation worth two CNOTs (the standard two-CNOT
decomposition) and plain rotations worth zero.

Every circuit uses one register layout (``ModeSystem``): the n*d data
qubits first, dimension by dimension, then the selector qubit, then the
damping ancilla on top.  The three stage builders below return one
shared, frozen circuit per distinct argument, with its qubit count and
CNOT total fixed and its largest angle checked to be finite.  Its ops
are written from the construction rule when they are first read, so a
plan that is only counted never writes them: the selector sits above
every data qubit and the ancilla above the selector, so every target
and control is in range and distinct.

The wave evolution circuit realizes, on one dimension's data register
plus the shared selector qubit, the block-diagonal rotation

    sum_j |j><j| (x) RY(-2 w_j t)

where w_j is the wraparound mode frequency: proportional to j below
the Nyquist index and to 2**n - j above it.  A binary ladder of
controlled RY gates handles the linear-in-j part; conjugating the
ladder by CNOTs from the top data qubit flips the rotation sign on
the upper half (X RY(t) X == RY(-t)), and one final controlled RY
adds the 2**n offset there.

Damping uses one ancilla: a CRY from the selector rotates the ancilla
by 2*arccos(exp(-g)), so postselecting the ancilla on |0> multiplies
every selector-|1> amplitude by exp(-g).  The imaginary part of a
complex damping coefficient needs only a phase gate on the selector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .statevector import Gate2x2, StateVector, apply_1q, apply_controlled

# kind -> (Gate2x2 constructor, CNOT cost).  A controlled kind shares its
# plain form's constructor and is exactly a kind that costs CNOTs; every
# constructor but ``x`` takes an angle.
_KINDS = {"RY": ("ry", 0), "P": ("p", 0), "X": ("x", 0),
          "CNOT": ("x", 1), "CRY": ("ry", 2), "CP": ("p", 2)}
GATE_KINDS = tuple(_KINDS)

_MATRIX_QUBIT_CAP = 12


class GateOp(NamedTuple):
    kind: str
    target: int
    control: int | None = None
    angle: float | None = None


@dataclass(frozen=True)
class Circuit:
    """Ops applied in order to ``n_qubits`` qubits.  One pass checks each
    op's kind, qubits and angle and sums ``cnots``, the total CNOT cost.
    A builder's circuit holds its construction rule in place of ``ops``
    and writes them on first read."""

    n_qubits: int
    ops: tuple[GateOp, ...]
    cnots: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        n, cnots = self.n_qubits, 0
        if not (isinstance(n, Integral) and n >= 0):
            raise ValueError(f"qubit count {n!r} is not a nonnegative integer")
        for kind, target, control, angle in self.ops:
            if kind not in _KINDS:
                raise ValueError(f"unknown gate kind {kind!r}")
            family, cost = _KINDS[kind]
            if not isinstance(target, Integral):
                raise ValueError(f"target {target!r} is not an integer")
            if not 0 <= target < n:
                raise ValueError(f"target {target} out of range")
            if control is not None and not isinstance(control, Integral):
                raise ValueError(f"control {control!r} is not an integer")
            if cost:
                if control is None or not 0 <= control < n:
                    raise ValueError(f"{kind} needs an in-range control qubit")
                if control == target:
                    raise ValueError("control equals target")
            elif control is not None:
                raise ValueError(f"{kind} takes no control qubit")
            if family != "x" and (angle is None or not math.isfinite(angle)):
                raise ValueError(f"{kind} needs a finite angle")
            cnots += cost
        object.__setattr__(self, "cnots", cnots)

    @classmethod
    def _trusted(cls, n_qubits: int, cnots: int, **ops_or_rule) -> Circuit:
        """A Circuit of ``ops``, or of the ``_rule`` that writes them, known
        to fit ``n_qubits`` with finite angles and to cost ``cnots``: the
        per-op checks are not run."""
        circ = object.__new__(cls)
        circ.__dict__.update(n_qubits=n_qubits, cnots=cnots, **ops_or_rule)
        return circ

    def __getattr__(self, name):
        # reached only for an attribute that is not set: the ops of a
        # builder's circuit before their first read
        rule = self.__dict__.get("_rule") if name == "ops" else None
        if rule is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        ops = self.__dict__["ops"] = _rule_ops(*rule)
        del self.__dict__["_rule"]
        return ops

    @cached_property
    def gates(self) -> tuple[Gate2x2, ...]:
        """One gate matrix per op, looked up on first use: plans that are
        only counted, never applied, do not pay for them."""
        return tuple(_gate(_KINDS[kind][0], angle,
                           None if angle is None else math.copysign(1.0, angle))
                     for kind, _, _, angle in self.ops)

    @cached_property
    def lower(self) -> Circuit | None:
        """The same ops and gates on one qubit fewer, or None when there is
        no qubit or an op targets or controls the top one: while that qubit
        reads |0>, this copy runs on the lower half of a state alone."""
        top = self.n_qubits - 1
        if top < 0 or any(top in (op.target, op.control) for op in self.ops):
            return None
        return Circuit._trusted(top, self.cnots, ops=self.ops, gates=self.gates)

    @cached_property
    def kept(self) -> tuple[Gate2x2, ...] | None:
        """Gates for a run on a state whose top qubit reads |0> and is next
        read by a postselection on |0>: the one op on the top qubit, which
        targets it, keeps of its gate only m00, the entry that postselection
        reads, as diag(m00, 1).  The top qubit's |1> half stays zero, and
        the |0> half gets the values of the true gate, which adds m01 times
        zero: at most the sign of a zero moves, and for an RY with
        sin >= 0 not even that.  None unless exactly one op touches the
        top qubit, as its target."""
        top = self.n_qubits - 1
        on_top = [i for i, op in enumerate(self.ops) if top in (op.target, op.control)]
        if len(on_top) != 1 or self.ops[on_top[0]].target != top:
            return None
        gates, (i,) = list(self.gates), on_top
        gates[i] = Gate2x2(np.diag([gates[i].matrix[0, 0], 1.0]))
        gates[i].matrix.flags.writeable = False
        return tuple(gates)


@dataclass(frozen=True)
class ModeSystem:
    """Periodic damped-wave discretization: n qubits per spatial dimension.

    Mode j of one axis carries angular frequency (2 pi c / L) * j below
    the Nyquist index and (2 pi c / L) * (2**n - j) at or above it.  In
    d dimensions the per-mode frequency is the sum over the axes, which
    is exactly the dynamics the per-dimension circuits compose to.
    """

    n: int
    d: int = 1
    c: float = 1.0
    L: float = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.n, Integral) and isinstance(self.d, Integral)):
            raise ValueError("n and d must be integers")
        if self.n < 1:
            raise ValueError("need at least one data qubit per dimension")
        if not 1 <= self.d <= 3:
            raise ValueError("spatial dimensions limited to 1..3")
        if self.c <= 0 or self.L <= 0:
            raise ValueError("wave speed and domain length must be positive")
        if not 0 <= self.gamma < math.inf:
            raise ValueError("damping rate must be finite and nonnegative")
        for name in ("c", "L", "gamma"):  # a Python int can pass the float range
            try:
                float(getattr(self, name))
            except OverflowError:
                raise ValueError(f"{name} is too large for a float") from None

    @property
    def zeta(self) -> float:
        """Angular-frequency scale 4 pi c / L of the circuit angles."""
        return 4.0 * math.pi * self.c / self.L

    @property
    def n_modes(self) -> int:
        return 2**self.n

    @property
    def selector(self) -> int:
        """The qubit above the n*d data qubits: |0> holds u, |1> holds v."""
        return self.n * self.d

    @property
    def ancilla(self) -> int:
        """The damping ancilla on top: its |0> half is the lower half."""
        return self.n * self.d + 1

    @property
    def n_qubits(self) -> int:
        return self.ancilla + 1

    def omegas(self) -> np.ndarray:
        idx = np.arange(self.n_modes)
        return 2.0 * math.pi * self.c / self.L * np.minimum(idx, self.n_modes - idx).astype(float)

    def frequency_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """The (N/2 + 1)**d distinct mode frequencies, one per tuple of
        wrapped indices min(j, N - j) summed over axes 0, 1, 2 in order,
        and the flat index (j0 + N*j1 + N**2*j2, axis 0 in the lowest data
        qubits) such that ``grid[index]`` is every mode's frequency."""
        N, h = self.n_modes, self.n_modes // 2 + 1
        om, idx = self.omegas()[:h], np.arange(N)
        grid, index = np.zeros((h,) * self.d), np.zeros((N,) * self.d, dtype=np.intp)
        for k in range(self.d):
            shape = [1] * self.d
            shape[k] = -1
            grid = grid + om.reshape(shape)
            index = index + (np.minimum(idx, N - idx) * h**k).reshape(shape)
        return grid.ravel(order="F"), index.ravel(order="F")

    def mode_frequencies(self) -> np.ndarray:
        """Per-mode frequency over the flattened d-dimensional index."""
        grid, index = self.frequency_grid()
        return grid[index]


def qft_circuit(n: int) -> Circuit:
    """Fourier transform on n qubits, including the final qubit reversal.

    The dense matrix is F[j, k] = exp(2 pi i j k / 2**n) / 2**(n/2).
    Hadamards are emitted as the pair RY(pi/2) then X, which keeps the
    gate vocabulary closed and costs no CNOTs.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    ops: list[GateOp] = []
    for i in range(n - 1, -1, -1):
        ops.append(GateOp("RY", i, angle=math.pi / 2))
        ops.append(GateOp("X", i))
        for j in range(i - 1, -1, -1):
            ops.append(GateOp("CP", target=i, control=j,
                              angle=2.0 * math.pi / 2 ** (i - j + 1)))
    for r in range(n // 2):
        a, b = r, n - 1 - r
        ops.append(GateOp("CNOT", target=b, control=a))
        ops.append(GateOp("CNOT", target=a, control=b))
        ops.append(GateOp("CNOT", target=b, control=a))
    return Circuit(n, tuple(ops))


def wave_evolution_circuit(sys: ModeSystem, tau: float, dim: int = 0) -> Circuit:
    """Spectral wave evolution over dimensionless time tau = zeta * t, on
    data register ``dim`` (qubits dim*n .. dim*n + n - 1) and the selector.

    Exact in time: composing k circuits built with tau/k equals the
    single circuit built with tau.  Uses 2n + 4 CNOT equivalents.
    """
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    if not 0 <= dim < sys.d:
        raise ValueError(f"dimension {dim} out of range for d={sys.d}")
    return _built("wave", sys.n, sys.d, tau, math.copysign(1.0, tau), dim)


def damping_real_circuit(gamma_dt: float, sys: ModeSystem) -> Circuit:
    """Contraction exp(-gamma_dt) of selector-|1> amplitudes, via the ancilla.

    The circuit alone is unitary; the contraction appears after
    postselecting the ancilla on |0>.  Requires gamma_dt >= 0.
    """
    if not math.isfinite(gamma_dt) or gamma_dt < 0:
        raise ValueError("dissipative stage needs a nonnegative finite argument")
    return _built("damp_real", sys.n, sys.d, gamma_dt, math.copysign(1.0, gamma_dt))


def damping_phase_gate(gamma_im_dt: float, sys: ModeSystem) -> Circuit:
    """Phase rotation exp(-i * gamma_im_dt) of selector-|1> amplitudes.

    Emitted as a plain P gate on the selector (no global-phase
    substitution), so it costs zero CNOT equivalents.
    """
    if not math.isfinite(gamma_im_dt):
        raise ValueError("phase stage needs a finite argument")
    return _built("damp_phase", sys.n, sys.d, gamma_im_dt, math.copysign(1.0, gamma_im_dt))


@lru_cache(maxsize=2048)
def _built(builder: str, n: int, d: int, x: float, sign: float, dim: int = 0) -> Circuit:
    """The one Circuit of a builder and its checked arguments, shared by
    every caller: symmetric schemes repeat their coefficients, so a step
    plan holds each distinct circuit several times.  The key is the finite
    argument and its ``sign`` (``math.copysign(1.0, x)``), which fix the
    bits of ``float(x)``: equal finite floats differ only at 0.0 and -0.0,
    and an int or numpy float keys as the float it equals.  The ints the
    ops depend on complete it; gamma, c and L do not enter them.  The
    bound holds the 1380 distinct circuits of the 240 gate budgets for 4
    schemes x n = 1..20 x d = 1..3, so a second pass over them builds none
    (at 128, a pass that visits each budget 4 times missed about 6800
    times).  Under tracemalloc an entry whose ops are unread takes about
    630 B, 0.87 MB for the 1380; a run wave circuit adds its ops, gates
    tuple and ``lower`` copy, about 1 KiB at n = 5 and 2.5 KiB at n = 20,
    beside the gate matrices it shares through ``_gate``.

    A miss counts the CNOTs from the per-kind costs and computes the last
    op's angle.  A wave circuit checks it: rounding is monotone and the
    closing CRY holds the largest multiplier, so every angle is finite
    when it is.  The ops wait for their first read: on a pass over 240
    gate budgets, writing them took about a third of the time."""
    x = float(x)
    if builder == "wave":
        # the closing multiplier -2**n, or -inf past n = 1023 as the
        # doubling of the ladder reaches it: 2.0**n itself raises there
        last = (-math.ldexp(1.0, n) if n < 1024 else -math.inf) * x
        if not math.isfinite(last):
            raise ValueError("CRY needs a finite angle")
        cnots = (n + 1) * _KINDS["CRY"][1] + 2 * _KINDS["CNOT"][1]
    elif builder == "damp_real":  # finite for every x >= 0
        last, cnots = 2.0 * math.acos(math.exp(-x)), _KINDS["CRY"][1]
    else:
        last, cnots = -x, _KINDS["P"][1]
    return Circuit._trusted(n * d + 2, cnots, _rule=(builder, n, d, dim, x, last))


def _rule_ops(builder: str, n: int, d: int, dim: int, x: float,
              last: float) -> tuple[GateOp, ...]:
    """The ops of a builder's circuit from its rule: the ladder CRY on
    data qubit r takes -2**r * x, doubling the multiplier per op, and the
    closing CRY, the damping CRY or the phase takes ``last``.  The ops go
    into a list, with no tuple of angles between: one such tuple per
    circuit, built from a generator, raised the peak RSS of a pass over
    240 gate budgets from 31.9 to 36.6 MB."""
    sel, new = n * d, tuple.__new__
    if builder == "damp_real":
        return (new(GateOp, ("CRY", sel + 1, sel, last)),)
    if builder == "damp_phase":
        return (new(GateOp, ("P", sel, None, last)),)
    top, m = (dim + 1) * n - 1, -1.0
    flip = new(GateOp, ("CNOT", sel, top, None))
    ops = [flip]
    for q in range(dim * n, top + 1):
        ops.append(new(GateOp, ("CRY", sel, q, m * x)))
        m *= 2.0
    ops += flip, new(GateOp, ("CRY", sel, top, last))
    return tuple(ops)


@lru_cache(maxsize=1024)
def _gate(family: str, angle: float | None, sign: float | None) -> Gate2x2:
    """The one Gate2x2 of a matrix family and a finite angle, keyed as
    ``_built`` keys its argument: with the angle's ``sign``, so that 0.0
    and -0.0 stay apart.  A pass over the benchmark's largest plans meets
    a few hundred distinct gates."""
    make = getattr(Gate2x2, family)
    gate = make() if angle is None else make(float(angle))
    gate.matrix.flags.writeable = False  # every circuit in the process shares it
    return gate


def apply_circuit(state: StateVector, circuit: Circuit,
                  gates: tuple[Gate2x2, ...] | None = None) -> None:
    """Apply every op in order to ``state`` in place, one kernel call per
    op, with the circuit's own gates or ``gates`` in their place."""
    if state.n_qubits != circuit.n_qubits:
        raise ValueError("state and circuit disagree on qubit count")
    gates = circuit.gates if gates is None else gates
    for (_, target, control, _), gate in zip(circuit.ops, gates):
        if control is None:
            apply_1q(state, gate, target)
        else:
            apply_controlled(state, gate, control, target)


def circuit_to_matrix(circuit: Circuit) -> np.ndarray:
    """Dense matrix of the circuit, ops multiplied in application order.

    The identity, flattened row-major, is a state of 2n qubits whose top
    n qubits index the row; running the circuit on those qubits turns
    every column e_c into U e_c.  Peak memory is that 16 * 4**n-byte
    state plus the kernel's scratch, which an uncontrolled RY below the
    top qubit makes twice the state: about 768 MB at the 12-qubit cap.
    """
    n = circuit.n_qubits
    if n > _MATRIX_QUBIT_CAP:
        raise ValueError(f"dense form capped at {_MATRIX_QUBIT_CAP} qubits")
    lifted = Circuit(2 * n, tuple(
        GateOp(op.kind, op.target + n, None if op.control is None else op.control + n,
               op.angle) for op in circuit.ops))
    u = StateVector(2 * n, np.eye(2**n, dtype=complex).reshape(-1))
    apply_circuit(u, lifted)
    return u.amp.reshape(2**n, 2**n)


def circuit_dump(circuit: Circuit) -> str:
    """One op per line: ``KIND angle control target``, '-' for absent."""
    lines = []
    for op in circuit.ops:
        angle = "-" if op.angle is None else repr(op.angle)
        control = "-" if op.control is None else str(op.control)
        lines.append(f"{op.kind} {angle} {control} {op.target}")
    return "\n".join(lines)
