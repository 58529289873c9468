"""Splitting steps: stage plans, emulated runs, dense reference products.

A step is a tuple of ``Stage(kind, param, circuit)`` records that
interleaves dissipative and unitary stages, dissipative first:

    for each b[i]:   damp_real, damp_phase, postselect,
                     then one wave stage per spatial dimension
    then, when len(a) == len(b) + 1, a closing dissipative group.

``param`` is b[i]*dt for a wave stage, gamma*Re(a[i])*dt for damp_real
and gamma*Im(a[i])*dt for damp_phase; a postselection carries neither a
parameter nor a circuit.  Complex dissipative coefficients factor
exactly into a real contraction and a phase, exp(D a dt) ==
exp(D Re(a) dt) exp(i D Im(a) dt), because the dissipative generator is
diagonal.  Phase stages with |Im(a)| < 1e-15 are omitted.

The circuit builders return one shared Circuit per distinct argument, so
stages of equal kind and param (and, for waves, dimension) hold the same
object; ``build_step`` still calls a builder once per circuit stage.  It
builds no gate matrix: a circuit looks its gates up on its first run,
from one process-wide Gate2x2 per (matrix family, angle), and a shared
circuit does so once.

``simulate`` runs the stage tuple by one rule: while the ancilla-|1>
half is exactly zero, as in an encoded input and after a postselection,
a circuit off the ancilla (the top qubit) runs its ``lower`` copy on the
ancilla-|0> half alone, and the damping CRY, when a postselection follows
it within the step, runs its diagonal ``kept`` gates on the whole state,
which leave that half zero.  So a ``build_step`` run from an encoded
input puts only those gates and the postselections on the whole state,
and only the half state carves scratch.  Both states are the run's own,
over the caller's amplitudes: their views and scratch die with the run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .circuits import (Circuit, ModeSystem, apply_circuit, damping_phase_gate,
                       damping_real_circuit, wave_evolution_circuit)
from .reference import dense_expm
from .schemes import SplittingScheme
from .statevector import StateVector, postselect

_IM_OMIT_TOL = 1e-15
_HERM_TOL = 1e-12

STAGE_KINDS = ("wave", "damp_real", "damp_phase", "postselect")


@dataclass(frozen=True)
class Stage:
    kind: str  # one of STAGE_KINDS
    param: float | None = None
    circuit: Circuit | None = None

    def __post_init__(self):
        if self.kind not in STAGE_KINDS:
            raise ValueError(f"unknown stage kind {self.kind!r}")
        if (self.kind == "postselect") != (self.circuit is None):
            raise ValueError("every stage but a postselection carries a circuit")


POSTSELECT = Stage("postselect")


@dataclass(frozen=True)
class SplitStepPlan:
    scheme: SplittingScheme
    sys: ModeSystem
    dt: float
    stages: tuple[Stage, ...]

    @property
    def n_qubits(self) -> int:
        return self.sys.n_qubits

    @property
    def cnot_per_step(self) -> int:
        return sum(st.circuit.cnots for st in self.stages if st.circuit is not None)

    def stage_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(STAGE_KINDS, 0)
        for st in self.stages:
            counts[st.kind] += 1
        return counts


@dataclass
class RunReport:
    """Summary of one emulated trajectory.  ``state`` is the state
    ``simulate`` evolved, at unit norm, and ``success_prob`` the product
    of the postselection probabilities, so sqrt(success_prob) * state.amp
    is the unnormalized final state."""

    scheme: str
    n: int
    d: int
    T: int
    dt: float
    success_prob: float
    cnot_per_step: int
    cnot_total: int
    qubits: int
    wall_time: float
    epsilon: float | None = None
    state: StateVector | None = field(default=None, repr=False)


def build_step(scheme: SplittingScheme, sys: ModeSystem, dt: float) -> SplitStepPlan:
    """Lay out one splitting step of size dt as an ordered stage tuple."""
    if not 0 < dt < np.inf:
        raise ValueError("step size must be positive and finite")
    a, b = scheme.a, scheme.b
    if not (len(a) == len(b) + 1 or len(a) == len(b) == 1):
        raise ValueError(f"scheme {scheme.name!r} has unsupported stage counts")
    # the ancilla contraction exp(-g) cannot amplify, so every Re(a) must be >= 0
    for i, ai in enumerate(a):
        if complex(ai).real < 0:
            raise ValueError(f"dissipative coefficient a[{i}] = {ai} has a negative real part")
    # the largest dissipative argument and wave angle the circuits will take
    if not np.isfinite(sys.gamma * max(abs(complex(ai)) for ai in a) * dt):
        raise ValueError(f"damping rate {sys.gamma:g} times step size {dt:g} overflows")
    # 2.0**n itself overflows from n = 1024 on
    if sys.n >= 1024 or not np.isfinite(sys.zeta * max(abs(bi) for bi in b) * dt * 2.0**sys.n):
        raise ValueError(f"step size {dt:g} overflows the wave-stage angles")
    stages: list[Stage] = []

    def dissipative(ai: complex) -> None:
        g_re, g_im = sys.gamma * ai.real * dt, sys.gamma * ai.imag * dt
        stages.append(Stage("damp_real", g_re, damping_real_circuit(g_re, sys)))
        if abs(ai.imag) >= _IM_OMIT_TOL:
            stages.append(Stage("damp_phase", g_im, damping_phase_gate(g_im, sys)))
        stages.append(POSTSELECT)

    for i, bi in enumerate(b):
        dissipative(complex(a[i]))
        for dim in range(sys.d):
            stages.append(Stage("wave", bi * dt,
                                wave_evolution_circuit(sys, sys.zeta * bi * dt, dim)))
    if len(a) == len(b) + 1:
        dissipative(complex(a[-1]))
    return SplitStepPlan(scheme, sys, dt, tuple(stages))


def _postselection_next(stages) -> list[bool]:
    """Per stage, whether the next stage on the ancilla within the step is
    a postselection (False where none follows): a circuit is on the
    ancilla when it has no ``lower`` copy."""
    out, nxt = [], False
    for st in reversed(stages):
        out.append(nxt)
        if st.circuit is None or st.circuit.lower is None:
            nxt = st.circuit is None
    return out[::-1]


def simulate(plan: SplitStepPlan, T: int, state: StateVector) -> RunReport:
    """Run T splitting steps on ``state`` in place, postselecting the
    ancilla after each dissipative stage.  The report's ``state`` is
    ``state`` itself, so a caller that needs the input afterwards passes
    a copy.  A ``DegeneratePostselectionError`` mid-run leaves ``state``
    partially evolved.  ``epsilon`` is left unset; comparison against a
    reference is the harness's job.
    """
    if T < 1:
        raise ValueError("need at least one step")
    if state.n_qubits != plan.n_qubits:
        raise ValueError("initial state size does not match the plan")
    anc, n = plan.sys.ancilla, plan.n_qubits
    top = state.amp[2 ** (n - 1):]  # the ancilla-|1> half: the ancilla is the top qubit
    clear = not top.any()  # while True, that half is exactly zero
    if not clear and np.vdot(top, top).real > 1e-12:
        raise ValueError("ancilla must start in |0>")
    # the run's own states: the whole state and its ancilla-|0> half
    full = StateVector(n, state.amp)
    low = StateVector(n - 1, state.amp[: 2 ** (n - 1)])
    then_post = _postselection_next(plan.stages)
    t0 = time.perf_counter()
    success = 1.0
    for _ in range(T):
        for st, post_next in zip(plan.stages, then_post):
            circuit = st.circuit
            if circuit is None:
                success *= postselect(full, anc, 0)
                clear = True
            elif clear and circuit.lower is not None:
                apply_circuit(low, circuit.lower)
            elif clear and post_next and circuit.kept is not None:
                apply_circuit(full, circuit, circuit.kept)
            else:
                apply_circuit(full, circuit)
                clear = False
    wall = time.perf_counter() - t0
    per_step = plan.cnot_per_step
    return RunReport(
        scheme=plan.scheme.name,
        n=plan.sys.n,
        d=plan.sys.d,
        T=T,
        dt=plan.dt,
        success_prob=success,
        cnot_per_step=per_step,
        cnot_total=per_step * T,
        qubits=plan.n_qubits,
        wall_time=wall,
        state=state,
    )


def _check_hermitian(m: np.ndarray, label: str) -> None:
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m - m.conj().T))) > _HERM_TOL * scale:
        raise ValueError(f"{label} must be Hermitian")


def generic_split_matrix(scheme: SplittingScheme, h1, h2, t: float, T: int) -> np.ndarray:
    """Dense splitting product for exp((H1 + i H2) t) over T steps.

    Stage order mirrors ``build_step``: dissipative exp(H1 a[i] dt)
    first, then unitary exp(i H2 b[i] dt), with the closing dissipative
    factor when the scheme carries one.
    """
    a1 = np.asarray(h1, dtype=complex)
    a2 = np.asarray(h2, dtype=complex)
    if a1.shape != a2.shape or a1.ndim != 2 or a1.shape[0] != a1.shape[1]:
        raise ValueError("H1 and H2 must be square matrices of one shape")
    if a1.shape[0] > 64:
        raise ValueError("dense splitting capped at dimension 64")
    if not (math.isfinite(t) and np.isfinite(a1).all() and np.isfinite(a2).all()):
        raise ValueError("H1, H2 and t must be finite")
    _check_hermitian(a1, "H1")
    _check_hermitian(a2, "H2")
    if T < 1:
        raise ValueError("need at least one step")
    dt = t / T
    step = np.eye(a1.shape[0], dtype=complex)
    for i, bi in enumerate(scheme.b):
        step = dense_expm(complex(scheme.a[i]) * a1, dt) @ step
        step = dense_expm(1j * bi * a2, dt) @ step
    if len(scheme.a) == len(scheme.b) + 1:
        step = dense_expm(complex(scheme.a[-1]) * a1, dt) @ step
    return np.linalg.matrix_power(step, T)
