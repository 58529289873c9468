"""Gate-level circuits for spectral damped-wave evolution.

Gate vocabulary is deliberately small: RY, RZ, P, X plus their
controlled forms CNOT, CRY, CP.  Cost accounting is in CNOT
equivalents, with each controlled rotation worth two CNOTs (the
standard two-CNOT decomposition) and plain rotations worth zero.

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
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .statevector import Gate2x2, StateVector, apply_1q, apply_controlled

GATE_KINDS = ("RY", "RZ", "P", "X", "CNOT", "CRY", "CP")
_NEEDS_ANGLE = {"RY", "RZ", "P", "CRY", "CP"}
_NEEDS_CONTROL = {"CNOT", "CRY", "CP"}
CNOT_COST = {"RY": 0, "RZ": 0, "P": 0, "X": 0, "CNOT": 1, "CRY": 2, "CP": 2}

_MATRIX_QUBIT_CAP = 12


class GateOp(NamedTuple):
    kind: str
    target: int
    control: int | None = None
    angle: float | None = None


@lru_cache(maxsize=4096)
def _check_wiring(n_qubits: int, kind: str, target: int, control: int | None) -> bool:
    """Raise on a wiring that does not fit ``n_qubits``, else tell whether
    the kind takes an angle.  A plan repeats a few wirings many times, so
    each is checked once; a rejection raises and is never cached."""
    if kind not in GATE_KINDS:
        raise ValueError(f"unknown gate kind {kind!r}")
    if not 0 <= target < n_qubits:
        raise ValueError(f"target {target} out of range")
    if kind in _NEEDS_CONTROL:
        if control is None or not 0 <= control < n_qubits:
            raise ValueError(f"{kind} needs an in-range control qubit")
        if control == target:
            raise ValueError("control equals target")
    elif control is not None:
        raise ValueError(f"{kind} takes no control qubit")
    return kind in _NEEDS_ANGLE


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit indices for the data registers, selector and ancilla."""

    data: tuple[tuple[int, ...], ...]
    selector: int
    ancilla: int

    @classmethod
    def standard(cls, n: int, d: int = 1) -> "RegisterLayout":
        data = tuple(tuple(range(k * n, (k + 1) * n)) for k in range(d))
        return cls(data, n * d, n * d + 1)

    @property
    def n_qubits(self) -> int:
        return len(self.data) * len(self.data[0]) + 2

    def __post_init__(self):
        flat = [q for reg in self.data for q in reg] + [self.selector, self.ancilla]
        if len(set(flat)) != len(flat):
            raise ValueError("register layout assigns one qubit to two roles")
        if self.data and len({len(reg) for reg in self.data}) != 1:
            raise ValueError("data registers must share one width")


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    ops: tuple[GateOp, ...]

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        n = self.n_qubits
        for kind, target, control, angle in self.ops:
            if _check_wiring(n, kind, target, control) and (
                    angle is None or not math.isfinite(angle)):
                raise ValueError(f"{kind} needs a finite angle")

    @cached_property
    def gates(self) -> tuple[Gate2x2, ...]:
        """One gate matrix per op, built on first use: plans that are only
        counted, never applied, do not pay for them."""
        return tuple(_op_gate(op) for op in self.ops)


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
        if self.n < 1:
            raise ValueError("need at least one data qubit per dimension")
        if not 1 <= self.d <= 3:
            raise ValueError("spatial dimensions limited to 1..3")
        if self.c <= 0 or self.L <= 0:
            raise ValueError("wave speed and domain length must be positive")
        if not 0 <= self.gamma < math.inf:
            raise ValueError("damping rate must be finite and nonnegative")

    @property
    def zeta(self) -> float:
        """Angular-frequency scale 4 pi c / L of the circuit angles."""
        return 4.0 * math.pi * self.c / self.L

    @property
    def n_modes(self) -> int:
        return 2**self.n

    @property
    def n_qubits(self) -> int:
        return self.n * self.d + 2

    def omegas(self) -> np.ndarray:
        idx = np.arange(self.n_modes)
        wrap = np.where(idx < self.n_modes // 2, idx, self.n_modes - idx)
        return 2.0 * math.pi * self.c / self.L * wrap.astype(float)

    def mode_frequencies(self) -> np.ndarray:
        """Per-mode frequency over the flattened d-dimensional index.

        Flattening puts axis 0 in the lowest data qubits, so the flat
        index is j0 + N*j1 + N**2*j2.
        """
        om = self.omegas()
        if self.d == 1:
            return om
        N = self.n_modes
        total = np.zeros((N,) * self.d)
        for k in range(self.d):
            shape = [1] * self.d
            shape[k] = N
            total = total + om.reshape(shape)
        return total.ravel(order="F")

    def layout(self) -> RegisterLayout:
        return RegisterLayout.standard(self.n, self.d)


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


def wave_evolution_circuit(sys: ModeSystem, tau: float, dim: int = 0,
                           layout: RegisterLayout | None = None) -> Circuit:
    """Spectral wave evolution over dimensionless time tau = zeta * t.

    Exact in time: composing k circuits built with tau/k equals the
    single circuit built with tau.  Uses 2n + 4 CNOT equivalents.
    """
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    if not 0 <= dim < sys.d:
        raise ValueError(f"dimension {dim} out of range for d={sys.d}")
    if layout is None:
        layout = sys.layout()
    data = layout.data[dim]
    sel = layout.selector
    top = data[-1]
    flip = GateOp("CNOT", sel, top)
    ladder = [GateOp("CRY", sel, q, -(2.0**r) * tau) for r, q in enumerate(data)]
    return Circuit(layout.n_qubits, (
        flip, *ladder, flip, GateOp("CRY", sel, top, -(2.0 ** len(data)) * tau)))


def damping_real_circuit(gamma_dt: float, layout: RegisterLayout) -> Circuit:
    """Contraction exp(-gamma_dt) of selector-|1> amplitudes, via the ancilla.

    The circuit alone is unitary; the contraction appears after
    postselecting the ancilla on |0>.  Requires gamma_dt >= 0.
    """
    if not math.isfinite(gamma_dt) or gamma_dt < 0:
        raise ValueError("dissipative stage needs a nonnegative finite argument")
    angle = 2.0 * math.acos(math.exp(-gamma_dt))
    return Circuit(layout.n_qubits, (GateOp("CRY", layout.ancilla, layout.selector, angle),))


def damping_phase_gate(gamma_im_dt: float, layout: RegisterLayout) -> Circuit:
    """Phase rotation exp(-i * gamma_im_dt) of selector-|1> amplitudes.

    Emitted as a plain P gate on the selector (no global-phase
    substitution), so it costs zero CNOT equivalents.
    """
    if not math.isfinite(gamma_im_dt):
        raise ValueError("phase stage needs a finite argument")
    return Circuit(layout.n_qubits, (GateOp("P", layout.selector, None, -gamma_im_dt),))


def _op_gate(op: GateOp) -> Gate2x2:
    if op.kind in ("RY", "CRY"):
        return Gate2x2.ry(op.angle)
    if op.kind == "RZ":
        return Gate2x2.rz(op.angle)
    if op.kind in ("P", "CP"):
        return Gate2x2.p(op.angle)
    return Gate2x2.x()


def apply_circuit(state: StateVector, circuit: Circuit) -> None:
    """Apply every op in order to ``state`` in place, one kernel call per op."""
    if state.n_qubits != circuit.n_qubits:
        raise ValueError("state and circuit disagree on qubit count")
    for op, gate in zip(circuit.ops, circuit.gates):
        if op.control is None:
            apply_1q(state, gate, op.target)
        else:
            apply_controlled(state, gate, op.control, op.target)


def circuit_to_matrix(circuit: Circuit) -> np.ndarray:
    """Dense matrix of the circuit, ops multiplied in application order.

    The identity, flattened row-major, is a state of 2n qubits whose top
    n qubits index the row; running the circuit on those qubits turns
    every column e_c into U e_c.
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


def cnot_count(circuit: Circuit) -> int:
    return sum(CNOT_COST[op.kind] for op in circuit.ops)


def circuit_dump(circuit: Circuit) -> str:
    """One op per line: ``KIND angle control target``, '-' for absent."""
    lines = []
    for op in circuit.ops:
        angle = "-" if op.angle is None else repr(op.angle)
        control = "-" if op.control is None else str(op.control)
        lines.append(f"{op.kind} {angle} {control} {op.target}")
    return "\n".join(lines)
