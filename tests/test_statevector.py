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
    s = apply_1q(s, Gate2x2.x(), target=0)
    assert abs(s.amp.reshape(-1)[1] - 1.0) < 1e-15


@pytest.mark.parametrize("maker,angle", [
    (Gate2x2.ry, 0.7), (Gate2x2.rz, -1.3), (Gate2x2.p, 2.1), (Gate2x2.x, None),
])
def test_single_qubit_gates_match_dense_oracle(maker, angle):
    gate = maker() if angle is None else maker(angle)
    kind = gate.name
    for target in range(3):
        s = random_state(3)
        out = apply_1q(s, gate, target)
        op = GateOp(kind, target=target, angle=angle)
        expected = gateop_matrix(op, 3) @ s.amp.reshape(-1)
        assert np.max(np.abs(out.amp.reshape(-1) - expected)) < 1e-14


@pytest.mark.parametrize("kind,angle", [("CNOT", None), ("CRY", 0.9), ("CP", -0.4)])
def test_controlled_gates_match_dense_oracle(kind, angle):
    gate = {"CNOT": Gate2x2.x, "CRY": Gate2x2.ry, "CP": Gate2x2.p}[kind]
    gate = gate() if angle is None else gate(angle)
    for control, target in [(0, 2), (2, 0), (1, 3), (3, 1)]:
        s = random_state(4)
        out = apply_controlled(s, gate, control, target)
        op = GateOp(kind, target=target, control=control, angle=angle)
        expected = gateop_matrix(op, 4) @ s.amp.reshape(-1)
        assert np.max(np.abs(out.amp.reshape(-1) - expected)) < 1e-14


def test_control_equal_target_rejected():
    s = random_state(2)
    with pytest.raises(ValueError):
        apply_controlled(s, Gate2x2.x(), control=1, target=1)


def test_gate_application_preserves_input():
    s = random_state(2)
    before = s.amp.copy()
    apply_1q(s, Gate2x2.ry(0.3), 0)
    apply_controlled(s, Gate2x2.ry(0.3), 0, 1)
    assert np.array_equal(s.amp, before)


def test_postselect_and_circuit_preserve_input():
    s = random_state(3)
    before = s.amp.copy()
    postselect(s, 1, 0)
    apply_circuit(s, Circuit(3, (GateOp("CRY", target=2, control=0, angle=0.3),
                                 GateOp("X", target=1))))
    assert np.array_equal(s.amp, before)


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
    s = random_state(n)
    expected = gateop_matrix(op, n) @ s.amp
    maker = MAKERS[op.kind]
    gate = maker() if op.angle is None else maker(op.angle)
    if op.control is None:
        fresh = apply_1q(s, gate, op.target)
        in_place = apply_1q(s, gate, op.target, out=s.amp,
                            work=np.empty(2 ** (n + 1), dtype=complex))
    else:
        fresh = apply_controlled(s, gate, op.control, op.target)
        in_place = apply_controlled(s, gate, op.control, op.target, out=s.amp,
                                    work=np.empty(2 ** (n + 1), dtype=complex))
    assert np.max(np.abs(fresh.amp - expected)) < 1e-14
    assert in_place.amp is s.amp
    assert np.max(np.abs(s.amp - expected)) < 1e-14


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
            fresh = apply_1q(s, gate, target)
            apply_1q(s, gate, target, out=s.amp)
        else:
            fresh = apply_controlled(s, gate, control, target)
            apply_controlled(s, gate, control, target, out=s.amp)
        assert np.max(np.abs(fresh.amp - expected)) < 1e-14
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

    def apply(out=None, work=None):
        if control is None:
            return apply_1q(s, gate, target, out, work=work)
        return apply_controlled(s, gate, control, target, out, work=work)

    fresh = apply()
    separate = apply(out=np.empty(2**n, dtype=complex))
    assert np.max(np.abs(fresh.amp - expected)) < 1e-13
    assert np.array_equal(separate.amp, fresh.amp)
    # scratch a gate needs: none for a diagonal, the pair for an
    # anti-diagonal, twice the pair for a general matrix
    pair = 2**n if control is None else 2 ** (n - 1)
    need = (0 if matrix[0, 1] == matrix[1, 0] == 0
            else pair if not matrix.diagonal().any() else 2 * pair)
    if need:
        with pytest.raises(ValueError):
            apply(out=s.amp, work=np.empty(need - 1, dtype=complex))
    in_place = apply(out=s.amp, work=np.empty(need, dtype=complex))
    assert in_place.amp is s.amp
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
            fresh = apply_1q(s, gate, target)
            apply_1q(s, gate, target, out=s.amp)
        else:
            fresh = apply_controlled(s, gate, control, target)
            apply_controlled(s, gate, control, target, out=s.amp)
        assert np.array_equal(fresh.amp, expected), (gate.name, control, target)
        assert np.array_equal(s.amp, expected), (gate.name, control, target)


@pytest.mark.parametrize("qubit,outcome", [(0, 0), (2, 1), (4, 0), (4, 1)])
def test_postselect_in_place_matches_fresh(qubit, outcome):
    s = random_state(5)
    p, fresh = postselect(s, qubit, outcome)
    p_in, in_place = postselect(s, qubit, outcome, out=s.amp)
    assert p_in == p
    assert in_place.amp is s.amp
    assert np.array_equal(s.amp, fresh.amp)


def test_out_and_work_must_fit_and_not_overlap():
    s = random_state(3)
    with pytest.raises(ValueError):
        apply_1q(s, Gate2x2.x(), 0, work=np.empty(16))
    with pytest.raises(ValueError):  # a general 2x2 on 3 qubits needs 16
        apply_1q(s, Gate2x2.ry(0.3), 0, work=np.empty(8, dtype=complex))
    work = np.empty(16, dtype=complex)
    with pytest.raises(ValueError):
        apply_1q(s, Gate2x2.x(), 0, out=work[:8], work=work)
    with pytest.raises(ValueError):
        apply_1q(s, Gate2x2.x(), 0, out=np.empty(4, dtype=complex))
    with pytest.raises(ValueError):
        apply_1q(s, Gate2x2.x(), 0, out=np.empty(8))
    with pytest.raises(ValueError):
        postselect(s, 0, 0, out=s.amp[::-1])
    with pytest.raises(ValueError):
        apply_controlled(s, Gate2x2.x(), 0, 1, out=s.amp[:])


def test_degenerate_postselect_leaves_out_untouched():
    s = StateVector.basis(2, index=0)
    with pytest.raises(DegeneratePostselectionError):
        postselect(s, qubit=0, outcome=1, out=s.amp)
    assert s.amp[0] == 1.0


def test_postselect_probability_and_renormalization():
    # amplitudes chosen so qubit 1 is |0> with probability 0.64
    amp = np.array([0.8, 0.0, 0.6, 0.0])
    s = StateVector.from_amplitudes(amp)
    p, kept = postselect(s, qubit=1, outcome=0)
    assert abs(p - 0.64) < 1e-15
    assert abs(kept.norm() - 1.0) < 1e-15
    assert abs(kept.amp.reshape(-1)[0] - 1.0) < 1e-15

    p1, kept1 = postselect(s, qubit=1, outcome=1)
    assert abs(p1 - 0.36) < 1e-15
    assert abs(kept1.amp.reshape(-1)[2] - 1.0) < 1e-15


def test_postselect_degenerate_branch():
    s = StateVector.basis(2, index=0)
    with pytest.raises(DegeneratePostselectionError):
        postselect(s, qubit=0, outcome=1)


def test_gate2x2_unitarity():
    for gate in (Gate2x2.ry(0.3), Gate2x2.rz(1.1), Gate2x2.p(0.5), Gate2x2.x()):
        prod = gate.matrix @ gate.matrix.conj().T
        assert np.max(np.abs(prod - np.eye(2))) < 1e-15
