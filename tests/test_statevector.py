from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wavesplit.circuits import Circuit, GateOp, apply_circuit
from wavesplit.statevector import (
    DegeneratePostselectionError,
    Gate2x2,
    StateVector,
    apply_1q,
    apply_controlled,
    postselect,
)

from helpers import embed_2x2, gateop_matrix

rng = np.random.default_rng(7)


def random_state(n: int) -> StateVector:
    amp = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return StateVector.from_amplitudes(amp)


def test_basis_state():
    s = StateVector.basis(3, index=5)
    assert s.n_qubits == 3
    flat = s.amp.reshape(-1)
    assert flat[5] == 1.0
    assert np.count_nonzero(flat) == 1


def test_from_amplitudes_normalizes():
    s = StateVector.from_amplitudes(np.array([3.0, 4.0]))
    assert abs(s.norm() - 1.0) < 1e-15


def test_from_amplitudes_rejects_bad_input():
    with pytest.raises(ValueError):
        StateVector.from_amplitudes(np.zeros(4))
    with pytest.raises(ValueError):
        StateVector.from_amplitudes(np.ones(3))


def test_little_endian_bit_order():
    # X on qubit 0 maps index 0 to index 1, not to index 2
    s = StateVector.basis(2)
    apply_1q(s, Gate2x2.x(), target=0)
    assert abs(s.amp[1] - 1.0) < 1e-15


@pytest.mark.parametrize("maker,angle", [
    (Gate2x2.ry, 0.7), (Gate2x2.rz, -1.3), (Gate2x2.p, 2.1), (Gate2x2.x, None),
])
def test_single_qubit_gates_match_dense_oracle(maker, angle):
    gate = maker() if angle is None else maker(angle)
    kind = gate.name
    for target in range(3):
        s = random_state(3)
        op = GateOp(kind, target=target, angle=angle)
        expected = gateop_matrix(op, 3) @ s.amp
        apply_1q(s, gate, target)
        assert np.max(np.abs(s.amp - expected)) < 1e-14


@pytest.mark.parametrize("kind,angle", [("CNOT", None), ("CRY", 0.9), ("CP", -0.4)])
def test_controlled_gates_match_dense_oracle(kind, angle):
    gate = {"CNOT": Gate2x2.x, "CRY": Gate2x2.ry, "CP": Gate2x2.p}[kind]
    gate = gate() if angle is None else gate(angle)
    for control, target in [(0, 2), (2, 0), (1, 3), (3, 1)]:
        s = random_state(4)
        op = GateOp(kind, target=target, control=control, angle=angle)
        expected = gateop_matrix(op, 4) @ s.amp
        apply_controlled(s, gate, control, target)
        assert np.max(np.abs(s.amp - expected)) < 1e-14


def test_control_equal_target_rejected():
    s = random_state(2)
    with pytest.raises(ValueError):
        apply_controlled(s, Gate2x2.x(), control=1, target=1)


def test_gate_application_mutates_input():
    s = random_state(2)
    amp = s.amp
    before = amp.copy()
    assert apply_1q(s, Gate2x2.ry(0.3), 0) is None
    mid = amp.copy()
    assert apply_controlled(s, Gate2x2.ry(0.3), 0, 1) is None
    assert s.amp is amp
    assert not np.array_equal(mid, before) and not np.array_equal(amp, mid)


def test_postselect_and_circuit_mutate_input():
    s = random_state(3)
    amp = s.amp
    before = amp.copy()
    p = postselect(s, 1, 0)
    assert type(p) is float
    mid = amp.copy()
    assert apply_circuit(s, Circuit(3, (GateOp("CRY", target=2, control=0, angle=0.3),
                                        GateOp("X", target=1)))) is None
    assert s.amp is amp
    assert not np.array_equal(mid, before) and not np.array_equal(amp, mid)


def _kernel_cases():
    angles = {"RY": 0.7, "RZ": -1.3, "P": 2.1, "X": None}
    for n in (1, 2, 5):
        for kind, angle in angles.items():
            for target in range(n):
                yield GateOp(kind, target=target, angle=angle), n
    angles = {"CNOT": None, "CRY": 0.9, "CP": -0.4}
    for n in (2, 5):
        for kind, angle in angles.items():
            for control in range(n):
                for target in range(n):
                    if control != target:
                        yield GateOp(kind, target=target, control=control, angle=angle), n


MAKERS = {"RY": Gate2x2.ry, "CRY": Gate2x2.ry, "RZ": Gate2x2.rz, "P": Gate2x2.p,
          "CP": Gate2x2.p, "X": Gate2x2.x, "CNOT": Gate2x2.x}


@pytest.mark.parametrize("op,n", list(_kernel_cases()))
def test_kernel_fresh_and_in_place_match_dense_oracle(op, n):
    # each run updates its own copy in place, once with fresh scratch the
    # gate allocates and once with a caller's ``work``
    s = random_state(n)
    expected = gateop_matrix(op, n) @ s.amp
    maker = MAKERS[op.kind]
    gate = maker() if op.angle is None else maker(op.angle)
    for work in (None, np.empty(2 ** (n + 1), dtype=complex)):
        t = StateVector(n, s.amp.copy())
        if op.control is None:
            apply_1q(t, gate, op.target, work=work)
        else:
            apply_controlled(t, gate, op.control, op.target, work=work)
        assert np.max(np.abs(t.amp - expected)) < 1e-14


@pytest.mark.parametrize("matrix", [
    [[0.5j, 0], [0, -2.0]], [[0, 2j], [0.5, 0]], [[0, -3.0], [0.25, 0]],
    [[1 + 1j, 2], [-0.5j, 3]], [[0.3, -1.2], [0.7, 2.5]],
])
def test_kernel_branches_with_asymmetric_entries(matrix):
    gate = Gate2x2(np.array(matrix, dtype=complex))
    for control, target in [(None, 0), (None, 2), (0, 2), (2, 1), (1, 0)]:
        s = random_state(3)
        expected = embed_2x2(gate.matrix, 3, target, control) @ s.amp
        if control is None:
            apply_1q(s, gate, target)
        else:
            apply_controlled(s, gate, control, target)
        assert np.max(np.abs(s.amp - expected)) < 1e-14


@st.composite
def kernel_draws(draw):
    """(n, target, control, matrix, seed): a random complex 2x2 with
    entries zeroed at random, drawn so that every branch of the kernel
    (diagonal, anti-diagonal, general) is hit."""
    n = draw(st.sampled_from(range(1, 7)))
    target = draw(st.sampled_from(range(n)))
    control = draw(st.sampled_from([None, *(q for q in range(n) if q != target)]))
    # the entries (m00, m01, m10, m11) a diagonal, anti-diagonal or general
    # matrix may use; one of them is zeroed at random, or none
    used = draw(st.sampled_from([(0, 3), (1, 2), (0, 1, 2, 3)]))
    zero = draw(st.sampled_from([None, *used]))
    part = st.floats(-2, 2, allow_nan=False, allow_infinity=False)
    matrix = np.zeros(4, dtype=complex)
    for i in used:
        if i != zero:
            matrix[i] = complex(draw(part), draw(part))
    matrix = matrix.reshape(2, 2)
    return n, target, control, matrix, draw(st.integers(0, 2**32 - 1))


@given(kernel_draws())
def test_kernel_matches_basis_oracle(draw):
    n, target, control, matrix, seed = draw
    gen = np.random.default_rng(seed)
    s = StateVector(n, gen.standard_normal(2**n) + 1j * gen.standard_normal(2**n))
    expected = embed_2x2(matrix, n, target, control) @ s.amp
    gate = Gate2x2(matrix)

    def apply(state, work=None):
        if control is None:
            apply_1q(state, gate, target, work=work)
        else:
            apply_controlled(state, gate, control, target, work=work)

    fresh = StateVector(n, s.amp.copy())  # the gate allocates its scratch
    apply(fresh)
    assert np.max(np.abs(fresh.amp - expected)) < 1e-13
    # scratch a gate needs: none for a diagonal, the pair for an
    # anti-diagonal, twice the pair for a general matrix
    pair = 2**n if control is None else 2 ** (n - 1)
    need = (0 if matrix[0, 1] == matrix[1, 0] == 0
            else pair if not matrix.diagonal().any() else 2 * pair)
    if need:
        before = s.amp.copy()
        with pytest.raises(ValueError):
            apply(s, work=np.empty(need - 1, dtype=complex))
        assert np.array_equal(s.amp, before)
    apply(s, work=np.empty(need, dtype=complex))
    assert np.array_equal(s.amp, fresh.amp)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_kernel_rounding_order(n):
    # byte-identical CSVs rest on each gate computing m00 a + m01 b and
    # m11 b + m10 a in this order, with no fused or reassociated arithmetic
    idx = np.arange(2**n)
    cases = [(Gate2x2.ry(0.7), None, t) for t in range(n)]
    cases += [(gate, c, t) for gate in (Gate2x2.ry(-1.1), Gate2x2.x(), Gate2x2.p(0.4))
              for c in range(n) for t in range(n) if c != t]
    for gate, control, target in cases:
        s = random_state(n)
        on = (idx >> target & 1 == 0) & (True if control is None else idx >> control & 1 == 1)
        idx0 = idx[on]
        idx1 = idx0 | 1 << target
        (m00, m01), (m10, m11) = gate.matrix
        a, b = s.amp[idx0], s.amp[idx1]
        expected = s.amp.copy()
        expected[idx0] = a * m00 + b * m01
        expected[idx1] = b * m11 + a * m10
        if control is None:
            apply_1q(s, gate, target)
        else:
            apply_controlled(s, gate, control, target)
        assert np.array_equal(s.amp, expected), (gate.name, control, target)


@pytest.mark.parametrize("qubit,outcome", [(0, 0), (2, 1), (4, 0), (4, 1)])
def test_postselect_in_place_matches_fresh(qubit, outcome):
    # in place on the state, against a projection computed afresh
    s = random_state(5)
    kept = (np.arange(2**5) >> qubit & 1) == outcome
    p_want = float(np.sum(np.abs(s.amp[kept]) ** 2))
    want = np.where(kept, s.amp, 0) / np.sqrt(p_want)
    amp = s.amp
    p = postselect(s, qubit, outcome)
    assert s.amp is amp
    assert p == pytest.approx(p_want, rel=1e-14)
    assert np.max(np.abs(s.amp - want)) < 1e-15
    assert not np.any(s.amp[~kept])


def test_out_and_work_must_fit_and_not_overlap():
    s = random_state(3)
    with pytest.raises(ValueError):
        apply_1q(s, Gate2x2.x(), 0, work=np.empty(16))
    with pytest.raises(ValueError):  # a general 2x2 on 3 qubits needs 16
        apply_1q(s, Gate2x2.ry(0.3), 0, work=np.empty(8, dtype=complex))
    with pytest.raises(ValueError):
        apply_1q(s, Gate2x2.x(), 0, work=s.amp)
    # amplitudes a gate could not update in place
    for amp in (np.empty(8), np.empty(4, dtype=complex), s.amp[::-1],
                np.empty((2, 4), dtype=complex), np.empty(16, dtype=complex)[::2]):
        with pytest.raises(ValueError):
            StateVector(3, amp)


def test_postselect_probability_and_renormalization():
    # amplitudes chosen so qubit 1 is |0> with probability 0.64
    amp = np.array([0.8, 0.0, 0.6, 0.0])
    kept = StateVector.from_amplitudes(amp)
    kept1 = StateVector.from_amplitudes(amp)
    p = postselect(kept, qubit=1, outcome=0)
    assert abs(p - 0.64) < 1e-15
    assert abs(kept.norm() - 1.0) < 1e-15
    assert abs(kept.amp[0] - 1.0) < 1e-15

    p1 = postselect(kept1, qubit=1, outcome=1)
    assert abs(p1 - 0.36) < 1e-15
    assert abs(kept1.amp[2] - 1.0) < 1e-15


def test_postselect_degenerate_branch():
    s = StateVector.basis(2, index=0)
    with pytest.raises(DegeneratePostselectionError):
        postselect(s, qubit=0, outcome=1)


def test_degenerate_postselect_leaves_out_untouched():
    # a degenerate outcome raises before anything is written to the state
    s = StateVector.basis(2, index=0)
    with pytest.raises(DegeneratePostselectionError):
        postselect(s, qubit=0, outcome=1)
    assert np.array_equal(s.amp, [1, 0, 0, 0])


def test_gate2x2_unitarity():
    for gate in (Gate2x2.ry(0.3), Gate2x2.rz(1.1), Gate2x2.p(0.5), Gate2x2.x()):
        prod = gate.matrix @ gate.matrix.conj().T
        assert np.max(np.abs(prod - np.eye(2))) < 1e-15
