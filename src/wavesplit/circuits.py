"""Gate-level circuits for spectral damped-wave evolution.

Gate vocabulary is deliberately small: RY, P, X plus their controlled
forms CRY, CP, CNOT.  Cost accounting is in CNOT equivalents, with each
controlled rotation worth two CNOTs (the standard two-CNOT
decomposition) and plain rotations worth zero.

Every circuit uses one register layout (``ModeSystem``): the n*d data
qubits first, dimension by dimension, then the selector qubit, then the
damping ancilla on top.  The three stage builders below return one
shared, frozen circuit per distinct argument.  A builder's wiring
depends only on (n, d, dim) and each of its angles is a fixed multiple
of the argument, so that wiring is checked once, as a template circuit
at unit argument, and every new argument scales the template's angles.

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


def _check_wiring(n_qubits: int, kind: str, target: int,
                  control: int | None) -> tuple[bool, int]:
    """Raise on a wiring that does not fit ``n_qubits``, else tell whether
    the kind takes an angle and what it costs in CNOTs.  Builders reach it
    once per template, not once per circuit."""
    if kind not in _KINDS:
        raise ValueError(f"unknown gate kind {kind!r}")
    family, cost = _KINDS[kind]
    if not 0 <= target < n_qubits:
        raise ValueError(f"target {target} out of range")
    if cost:
        if control is None or not 0 <= control < n_qubits:
            raise ValueError(f"{kind} needs an in-range control qubit")
        if control == target:
            raise ValueError("control equals target")
    elif control is not None:
        raise ValueError(f"{kind} takes no control qubit")
    return family != "x", cost


@dataclass(frozen=True)
class Circuit:
    """Ops applied in order to ``n_qubits`` qubits.  ``cnots``, the total
    CNOT cost, is summed once while the ops are checked."""

    n_qubits: int
    ops: tuple[GateOp, ...]
    cnots: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        n, cnots = self.n_qubits, 0
        for kind, target, control, angle in self.ops:
            takes_angle, cost = _check_wiring(n, kind, target, control)
            if takes_angle and (angle is None or not math.isfinite(angle)):
                raise ValueError(f"{kind} needs a finite angle")
            cnots += cost
        object.__setattr__(self, "cnots", cnots)

    @classmethod
    def _trusted(cls, n_qubits: int, ops: tuple[GateOp, ...], cnots: int) -> Circuit:
        """A Circuit of ops already known to fit ``n_qubits`` with finite
        angles and to cost ``cnots``: the per-op checks are not run again."""
        circ = object.__new__(cls)
        circ.__dict__.update(n_qubits=n_qubits, ops=ops, cnots=cnots)
        return circ

    @cached_property
    def gates(self) -> tuple[Gate2x2, ...]:
        """One gate matrix per op, looked up on first use: plans that are
        only counted, never applied, do not pay for them."""
        return tuple(_gate(_KINDS[kind][0], None if angle is None else float(angle).hex())
                     for kind, _, _, angle in self.ops)

    @cached_property
    def lower(self) -> Circuit | None:
        """The same ops on one qubit fewer, or None when an op targets or
        controls the top qubit: while that qubit reads |0>, this copy runs
        on the lower half of a state alone."""
        top = self.n_qubits - 1
        if any(top in (op.target, op.control) for op in self.ops):
            return None
        return Circuit._trusted(top, self.ops, self.cnots)


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
    return _built("wave", sys.n, sys.d, float(tau).hex(), dim)


def damping_real_circuit(gamma_dt: float, sys: ModeSystem) -> Circuit:
    """Contraction exp(-gamma_dt) of selector-|1> amplitudes, via the ancilla.

    The circuit alone is unitary; the contraction appears after
    postselecting the ancilla on |0>.  Requires gamma_dt >= 0.
    """
    if not math.isfinite(gamma_dt) or gamma_dt < 0:
        raise ValueError("dissipative stage needs a nonnegative finite argument")
    return _built("damp_real", sys.n, sys.d, float(gamma_dt).hex())


def damping_phase_gate(gamma_im_dt: float, sys: ModeSystem) -> Circuit:
    """Phase rotation exp(-i * gamma_im_dt) of selector-|1> amplitudes.

    Emitted as a plain P gate on the selector (no global-phase
    substitution), so it costs zero CNOT equivalents.
    """
    if not math.isfinite(gamma_im_dt):
        raise ValueError("phase stage needs a finite argument")
    return _built("damp_phase", sys.n, sys.d, float(gamma_im_dt).hex())


@lru_cache(maxsize=128)
def _built(builder: str, n: int, d: int, arg_bits: str, dim: int = 0) -> Circuit:
    """The one Circuit of a builder and its checked arguments, shared by
    every caller: symmetric schemes repeat their coefficients, so a step
    plan holds each distinct circuit several times.  The key is the exact
    bits of the argument (``float.hex``), so that 0.0 and -0.0 stay apart,
    and the ints the ops depend on; gamma, c and L do not enter them.  The
    bound holds the 48 distinct circuits of a bernier6 d=3 plan.

    A miss scales the angles of the builder's checked ``_template`` and
    skips the per-op checks, save that its angles are finite.  Each op is
    made straight from its template row, with no tuple of angles between:
    one such tuple per miss, built from a generator, raised the peak RSS
    of a pass over 240 gate budgets from 31.9 to 36.6 MB."""
    x = float.fromhex(arg_bits)
    if builder == "damp_real":
        x = 2.0 * math.acos(math.exp(-x))
    unit = _template(builder, n, d, dim)
    new = tuple.__new__
    ops = tuple([new(GateOp, (kind, target, control, None if m is None else m * x))
                 for kind, target, control, m in unit.ops])
    # rounding is monotone and the last op holds the largest multiplier,
    # so every angle is finite when the last one is
    if not math.isfinite(ops[-1].angle):
        raise ValueError(f"{ops[-1].kind} needs a finite angle")
    return Circuit._trusted(unit.n_qubits, ops, unit.cnots)


# Twelve templates per n (wave on each of 1 + 2 + 3 dims, damp_real and
# damp_phase at d = 1, 2, 3), so the bound holds every n the CLI takes.
@lru_cache(maxsize=240)
def _template(builder: str, n: int, d: int, dim: int) -> Circuit:
    """A builder's circuit at unit argument, checked as an ordinary
    Circuit.  Each angle is the multiplier of the argument: -2**r for the
    ladder CRY on data qubit r and -2**n for the closing one, 1.0 for the
    damping CRY (applied to 2*arccos(exp(-x))) and -1.0 for the phase.
    Past n = 1023, 2**n is not a float: doubling reaches -inf and the
    check rejects the template."""
    sys = ModeSystem(n, d)
    sel = sys.selector
    if builder == "wave":
        data = range(dim * n, (dim + 1) * n)
        top, m, ladder = data[-1], -1.0, []
        for q in data:
            ladder.append(GateOp("CRY", sel, q, m))
            m *= 2.0
        flip = GateOp("CNOT", sel, top)
        ops = (flip, *ladder, flip, GateOp("CRY", sel, top, m))
    elif builder == "damp_real":
        ops = (GateOp("CRY", sys.ancilla, sel, 1.0),)
    else:
        ops = (GateOp("P", sel, None, -1.0),)
    return Circuit(sys.n_qubits, ops)


@lru_cache(maxsize=1024)
def _gate(family: str, angle_bits: str | None) -> Gate2x2:
    """The one Gate2x2 of a matrix family and an angle, given by its exact
    bits (``float.hex``) so that 0.0 and -0.0 stay apart.  A pass over the
    benchmark's largest plans meets a few hundred distinct gates."""
    make = getattr(Gate2x2, family)
    gate = make() if angle_bits is None else make(float.fromhex(angle_bits))
    gate.matrix.flags.writeable = False  # every circuit in the process shares it
    return gate


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


def cnot_count(circuit: Circuit) -> int:
    return circuit.cnots


def circuit_dump(circuit: Circuit) -> str:
    """One op per line: ``KIND angle control target``, '-' for absent."""
    lines = []
    for op in circuit.ops:
        angle = "-" if op.angle is None else repr(op.angle)
        control = "-" if op.control is None else str(op.control)
        lines.append(f"{op.kind} {angle} {control} {op.target}")
    return "\n".join(lines)
