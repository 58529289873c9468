from __future__ import annotations

import copy
import dataclasses
import itertools
import math
import pickle

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

from helpers import embed_2x2, expected_views, gateop_matrix, views_by_buffer

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
    assert abs(np.linalg.norm(s.amp) - 1.0) < 1e-15


def test_from_amplitudes_rejects_bad_input():
    with pytest.raises(ValueError):
        StateVector.from_amplitudes(np.zeros(4))
    with pytest.raises(ValueError):
        StateVector.from_amplitudes(np.ones(3))
    for bad in ([np.nan, 1.0], [np.inf, 1.0]):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            StateVector.from_amplitudes(bad)


def test_from_amplitudes_scales_norms_that_overflow_or_underflow():
    # the plain norm of these is inf or 0; each is scaled by its largest
    # part first, with no RuntimeWarning (the suite turns one into an error)
    for amps, want in (([1e200, 1e200], [1, 1]), ([1e-170, 1e-170], [1, 1]),
                       ([1.7e308 + 1.7e308j, -1e308], [1.7 + 1.7j, -1]),
                       ([5e-324j, 0], [1j, 0])):
        s = StateVector.from_amplitudes(amps)
        want = np.array(want) / np.linalg.norm(want)
        assert np.max(np.abs(s.amp - want)) < 1e-15, amps
    # a finite nonzero plain norm divides as before, bit for bit
    for plain in ([3.0, 4.0], [1e150, -2e150j], [1e-150, 3e-151]):
        amp = np.asarray(plain, dtype=complex)
        want = (amp / np.linalg.norm(amp)).tobytes()
        assert StateVector.from_amplitudes(plain).amp.tobytes() == want


def test_basis_and_from_amplitudes_start_on_a_64_byte_boundary():
    # as encode_initial's state and the kernel's scratch, at every size and
    # on the scaled path; the values are those of a plain allocation
    for n in (1, 2, 5, 9, 12, 14):
        for _ in range(3):
            basis = StateVector.basis(n, index=2**n - 1)
            want = np.zeros(2**n, dtype=complex)
            want[-1] = 1.0
            assert basis.amp.ctypes.data % 64 == 0
            assert basis.amp.tobytes() == want.tobytes()
            amp = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            for raw in (amp, amp * 1e300):
                s = StateVector.from_amplitudes(raw)
                assert s.amp.ctypes.data % 64 == 0 and s.amp.flags.c_contiguous
            assert StateVector.from_amplitudes(amp).amp.tobytes() == (
                amp / np.linalg.norm(amp)).tobytes()


def test_little_endian_bit_order():
    # X on qubit 0 maps index 0 to index 1, not to index 2
    s = StateVector.basis(2)
    apply_1q(s, Gate2x2.x(), target=0)
    assert abs(s.amp[1] - 1.0) < 1e-15


@pytest.mark.parametrize("maker,angle", [
    (Gate2x2.ry, 0.7), (Gate2x2.p, 2.1), (Gate2x2.x, None),
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


# diagonal with both entries != 1: the diagonal branch that scales both halves
SCALE = Gate2x2(np.diag([0.5j, -2.0]))


def _kernel_cases():
    """((gate, target, control), n) over every wiring on 1, 2 and 5 qubits."""
    for n in (1, 2, 5):
        for gate in (Gate2x2.ry(0.7), SCALE, Gate2x2.p(2.1), Gate2x2.x()):
            for target in range(n):
                yield (gate, target, None), n
    for n in (2, 5):
        for gate in (Gate2x2.x(), Gate2x2.ry(0.9), Gate2x2.p(-0.4)):
            for control in range(n):
                for target in range(n):
                    if control != target:
                        yield (gate, target, control), n


MAKERS = {"RY": Gate2x2.ry, "CRY": Gate2x2.ry, "P": Gate2x2.p, "CP": Gate2x2.p,
          "X": Gate2x2.x, "CNOT": Gate2x2.x}


def apply_op(state, op):
    maker = MAKERS[op.kind]
    gate = maker() if op.angle is None else maker(op.angle)
    if op.control is None:
        apply_1q(state, gate, op.target)
    else:
        apply_controlled(state, gate, op.control, op.target)


@pytest.mark.parametrize("op,n", list(_kernel_cases()))
def test_kernel_fresh_and_in_place_match_dense_oracle(op, n):
    # the first gate on a fresh state carves the wiring's views, the
    # second reuses them; both update the state in place
    gate, target, control = op
    s = random_state(n)

    def apply():
        if control is None:
            apply_1q(s, gate, target)
        else:
            apply_controlled(s, gate, control, target)

    m = embed_2x2(gate.matrix, n, target, control)
    once = m @ s.amp
    amp = s.amp
    apply()
    assert np.max(np.abs(s.amp - once)) < 1e-14
    apply()
    assert s.amp is amp
    assert np.max(np.abs(s.amp - m @ once)) < 1e-14


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
    (diagonal, swap, rotation, general) is hit."""
    n = draw(st.sampled_from(range(1, 7)))
    target = draw(st.sampled_from(range(n)))
    control = draw(st.sampled_from([None, *(q for q in range(n) if q != target)]))
    # the entries (m00, m01, m10, m11) a diagonal, anti-diagonal or general
    # matrix may use, or (m00, m01) of a rotation; one of them is zeroed at
    # random, or none
    used = draw(st.sampled_from([(0, 3), (1, 2), (0, 1, 2, 3), (0, 1)]))
    zero = draw(st.sampled_from([None, *used]))
    part = st.floats(-2, 2, allow_nan=False, allow_infinity=False)
    matrix = np.zeros(4, dtype=complex)
    for i in used:
        if i != zero:
            matrix[i] = complex(draw(part), draw(part))
    if used == (0, 1):  # m10 = -m01 and m11 = m00
        matrix[2:] = -matrix[1], matrix[0]
    matrix = matrix.reshape(2, 2)
    return n, target, control, matrix, draw(st.integers(0, 2**32 - 1))


@given(kernel_draws())
def test_kernel_matches_basis_oracle(draw):
    n, target, control, matrix, seed = draw
    gen = np.random.default_rng(seed)
    s = StateVector(n, gen.standard_normal(2**n) + 1j * gen.standard_normal(2**n))
    expected = embed_2x2(matrix, n, target, control) @ s.amp
    gate = Gate2x2(matrix)

    def apply(state):
        if control is None:
            apply_1q(state, gate, target)
        else:
            apply_controlled(state, gate, control, target)

    fresh = StateVector(n, s.amp.copy())
    apply(fresh)
    assert np.max(np.abs(fresh.amp - expected)) < 1e-13
    # another state carves its own views and scratch, with the same bits;
    # a repeat on it reuses them
    apply(s)
    assert np.array_equal(s.amp, fresh.amp)
    apply(s)
    assert np.max(np.abs(s.amp - embed_2x2(matrix, n, target, control) @ expected)) < 1e-12


def rounding_oracle(amp, gate, control, target):
    """The gate applied by fancy indexing: m00 a + m01 b and m11 b + m10 a."""
    idx = np.arange(amp.size)
    on = (idx >> target & 1 == 0) & (True if control is None else idx >> control & 1 == 1)
    idx0 = idx[on]
    idx1 = idx0 | 1 << target
    (m00, m01), (m10, m11) = gate.matrix
    a, b = amp[idx0], amp[idx1]
    expected = amp.copy()
    expected[idx0] = a * m00 + b * m01
    expected[idx1] = b * m11 + a * m10
    return expected


# rotations with complex c and s, and anti-diagonals with one entry 1
ROT = Gate2x2(np.array([[0.6 + 0.3j, 0.2 - 0.7j], [-0.2 + 0.7j, 0.6 + 0.3j]]))
ROT_TINY = Gate2x2(np.array([[1 - 1e-9j, -3e-200j], [3e-200j, 1 - 1e-9j]]))
SWAP_SCALED = (Gate2x2(np.array([[0, 1], [2.5 - 1j, 0]])),
               Gate2x2(np.array([[0, -0.5j], [1, 0]])))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 10])
def test_kernel_rounding_order(n):
    # byte-identical CSVs rest on each gate computing m00 a + m01 b and
    # m11 b + m10 a in this order, with no fused or reassociated arithmetic;
    # a rotation computes c a - s b, which is the same value; at 10 qubits
    # the copies move runs of 1 to 512 amplitudes
    cases = [(gate, None, t) for gate in (Gate2x2.ry(0.7), ROT, *SWAP_SCALED) for t in range(n)]
    cases += [(gate, c, t)
              for gate in (Gate2x2.ry(-1.1), Gate2x2.x(), Gate2x2.p(0.4), ROT, ROT_TINY,
                           *SWAP_SCALED)
              for c in range(n) for t in range(n) if c != t]
    for gate, control, target in cases:
        s = random_state(n)
        expected = rounding_oracle(s.amp, gate, control, target)
        if control is None:
            apply_1q(s, gate, target)
        else:
            apply_controlled(s, gate, control, target)
        assert np.array_equal(s.amp, expected), (gate.name, control, target)


def kernel_sequence_oracle(amp, gate, control, target):
    """The kernel's own op sequence, restated on fancy-indexed copies of
    the halves a and b.  A diagonal scales each half whose entry is not 1.
    A swap moves b onto a and a onto b, then scales each by its entry
    (m01, m10) unless that is 1.  A rotation (m00 == m11 and m01 == -m10)
    takes the scalars p = m00 and q = m10, any other 2x2 p = (m00, m11)
    and q = (m10, -m01) by half; then, on ab = (a, b) stacked, uv = q ab,
    ab *= p, a -= v and b += u.  ab stays one (2, m) array as in the
    kernel: numpy can round an in-place product of one element otherwise
    than one of two or more, so m = 1 would read other bits."""
    idx = np.arange(amp.size)
    on = (idx >> target & 1 == 0) & (True if control is None else idx >> control & 1 == 1)
    idx0 = idx[on]
    idx1 = idx0 | 1 << target
    (m00, m01), (m10, m11) = np.asarray(gate.matrix, dtype=complex)
    ab = amp[np.stack((idx0, idx1))]
    a, b = ab
    if m01 == 0 == m10 or m00 == 0 == m11:
        if m00 == 0:
            ab = ab[::-1].copy()
            a, b = ab
            m00, m11 = m01, m10
        for half, k in ((a, m00), (b, m11)):
            if k != 1:
                half *= k
    else:
        if m00 == m11 and m01 == -m10:
            p, q = m00, m10
        else:
            p, q = np.array([[m00], [m11]]), np.array([[m10], [-m01]])
        uv = ab * q
        ab *= p
        a -= uv[1]
        b += uv[0]
    expected = amp.copy()
    expected[idx0], expected[idx1] = a, b
    return expected


# a real general gate and a diagonal with two entries, beside the gates above
GENERAL = (Gate2x2(np.array([[1 + 1j, 2], [-0.5j, 3]])),
           Gate2x2(np.array([[0.5, -0.25], [0.75, -1.0]])))
DIAG2 = Gate2x2(np.diag([-1.0, 0.5j]))


@pytest.mark.parametrize("n", range(1, 11))
def test_kernel_writes_the_sequence_bits_signed_zeros_included(n):
    # np.array_equal takes -0.0 for +0.0, so compare bytes: every branch
    # (diag, swap, copied and in-place rotation, general) on every wiring,
    # on a state whose top half is +0 (as an encoded state's ancilla-|1>
    # half is)
    # and on a random state with planted zeros of both signs
    gen = np.random.default_rng(n)
    size = 2**n
    top_zero = gen.standard_normal(size) + 1j * gen.standard_normal(size)
    top_zero[size // 2:] = 0
    planted = gen.standard_normal(size) + 1j * gen.standard_normal(size)
    planted.real[::3], planted.real[1::3] = 0.0, -0.0
    planted.imag[::5], planted.imag[2::5] = -0.0, 0.0
    gates = (Gate2x2.p(0.4), DIAG2, Gate2x2.x(), *SWAP_SCALED, Gate2x2.ry(0.7),
             Gate2x2.ry(-1.1), ROT, ROT_TINY, *GENERAL)
    assert {g._entries[0] for g in gates} == {"diag", "swap", "rot", "general"}
    wirings = [(None, t) for t in range(n)]
    wirings += [(c, t) for c in range(n) for t in range(n) if c != t]
    for base in (top_zero, planted):
        s = StateVector(n, base.copy())  # one state, so later gates reuse its views
        for (control, target), gate in itertools.product(wirings, gates):
            s.amp[...] = base
            expected = kernel_sequence_oracle(base, gate, control, target)
            if control is None:
                apply_1q(s, gate, target)
            else:
                apply_controlled(s, gate, control, target)
            assert np.array_equal(s.amp.view(np.uint64), expected.view(np.uint64)), \
                (gate.name, gate.matrix.tolist(), control, target)


def test_long_runs_are_copied_in_capped_elements():
    # the top qubits of 20 make runs of up to 2**19 amplitudes; each copy
    # moves them as elements of 2**10, since numpy caps a void at 2**31
    # bytes (a 28-qubit state's top qubit would pass it).  A rotation whose
    # pair halves are each one block (on qubit 19, or on qubits 18 and 19)
    # is updated in place and copies nothing; a swap always copies.  The
    # largest scratch comes first, so that no entry is dropped.
    s = random_state(20)
    cases = ((Gate2x2.ry(1.3), None, 18), (Gate2x2.ry(0.7), None, 19), (Gate2x2.ry(0.7), 18, 19),
             (Gate2x2.x(), 18, 19), (Gate2x2.ry(-0.3), 19, 18), (Gate2x2.ry(-1.1), 0, 19))
    for gate, control, target in cases:
        expected = rounding_oracle(s.amp, gate, control, target)
        if control is None:
            apply_1q(s, gate, target)
        else:
            apply_controlled(s, gate, control, target)
        assert np.array_equal(s.amp, expected), (gate.name, control, target)
    assert len(s._views) == len(cases)
    for key, entry in s._views.items():
        runs = [v for v in entry if v.dtype.kind == "V"]
        assert len(runs) == expected_views(20, key)[2], key
        if not runs:  # in place: the first view is the flat pair, each half one block
            assert np.shares_memory(entry[0], s.amp) and entry[0].ndim == 2
            assert entry[1].flags.c_contiguous and entry[2].flags.c_contiguous
            continue
        # a swap's runs cover one half (its scratch), a rotation's the pair
        # (ab); a run is 2**min(target, control) amplitudes
        block = entry[1] if key[-1] == "swap" else entry[0]
        assert all(r.shape == runs[0].shape for r in runs)
        assert runs[0].dtype.itemsize * runs[0].size == 16 * block.size
        assert runs[0].dtype.itemsize == 16 * min(2 ** min(key[:-1]), 2**10)


def test_rotations_and_swaps_carry_no_matrix():
    # every RY is a rotation with two scalars, or the identity diagonal,
    # and an X swaps its halves without a scale
    for theta in (0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi, 2 * math.pi, 1e-300):
        kind, p, q = Gate2x2.ry(theta)._entries
        assert kind in ("rot", "diag"), theta
        if kind == "rot":
            assert np.ndim(p) == np.ndim(q) == 0
            assert (p, q) == (math.cos(theta / 2), math.sin(theta / 2))
        else:
            assert theta == 0.0 and p == ()
    assert Gate2x2.x()._entries == ("swap", (), None)
    assert ROT._entries[0] == ROT_TINY._entries[0] == "rot"
    assert [g._entries[1] for g in SWAP_SCALED] == [((1, 2.5 - 1j),), ((0, -0.5j),)]
    kind, p, q = Gate2x2(np.array([[1 + 1j, 2], [-0.5j, 3]]))._entries
    assert kind == "general" and p.shape == q.shape == (2, 1)
    # gates are shared, so no operand the kernel takes can be written
    operands = [p, q, *Gate2x2.ry(0.3)._entries[1:], SWAP_SCALED[0]._entries[1][0][1]]
    assert not any(x.flags.writeable for x in operands)


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


def test_postselect_rescales_like_complex_division():
    # a real product with 1 / sqrt(p) gives numpy's complex quotient
    # value for value, exact zeros of either sign included, and p is the
    # squared norm summed as before: real parts, then imaginary parts
    gen = np.random.default_rng(3)
    for _ in range(4):
        amp = gen.standard_normal(2**6) + 1j * gen.standard_normal(2**6)
        amp /= np.linalg.norm(amp)
        amp.real[gen.integers(64, size=8)] = 0.0
        amp.imag[gen.integers(64, size=8)] = -0.0
        amp[gen.integers(64, size=4)] = complex(-0.0, 0.0)
        for qubit in range(6):
            for outcome in (0, 1):
                s = StateVector(6, amp.copy())
                kept = amp.copy().reshape(-1, 2, 2**qubit)[:, outcome]
                p = float(np.einsum("ij,ij->", kept.real, kept.real)
                          + np.einsum("ij,ij->", kept.imag, kept.imag))
                assert postselect(s, qubit, outcome) == p
                after = s.amp.reshape(-1, 2, 2**qubit)
                assert np.array_equal(after[:, outcome], kept / math.sqrt(p))
                assert not np.any(after[:, 1 - outcome])


def test_amp_must_be_updatable_in_place():
    # amplitudes a gate could not update in place
    s = random_state(3)
    bad = (np.empty(8), np.empty(4, dtype=complex), s.amp[::-1],
           np.empty((2, 4), dtype=complex), np.empty(16, dtype=complex)[::2])
    for a in bad:
        with pytest.raises(ValueError, match="^amp must be a 1-d C-contiguous complex array "
                                             "of 2\\*\\*3 amplitudes$"):
            StateVector(3, a)


def test_postselect_probability_and_renormalization():
    # amplitudes chosen so qubit 1 is |0> with probability 0.64
    amp = np.array([0.8, 0.0, 0.6, 0.0])
    kept = StateVector.from_amplitudes(amp)
    kept1 = StateVector.from_amplitudes(amp)
    p = postselect(kept, qubit=1, outcome=0)
    assert abs(p - 0.64) < 1e-15
    assert abs(np.linalg.norm(kept.amp) - 1.0) < 1e-15
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


def test_nan_postselect_raises_and_leaves_state_untouched():
    # a NaN probability fails every comparison, so it must not pass as valid
    s = StateVector(2, np.array([0.6, np.nan, 0.8, 0.0], dtype=complex))
    before = s.amp.tobytes()
    with pytest.raises(DegeneratePostselectionError, match="probability nan"):
        postselect(s, qubit=0, outcome=1)
    assert s.amp.tobytes() == before


def test_gate2x2_unitarity():
    for gate in (Gate2x2.ry(0.3), Gate2x2.p(0.5), Gate2x2.x()):
        prod = gate.matrix @ gate.matrix.conj().T
        assert np.max(np.abs(prod - np.eye(2))) < 1e-15


# ------------------------------------------------------------ view cache


def test_cache_hits_match_dense_oracle():
    # a few wirings drawn over and over, so most gates reuse cached views
    gen = np.random.default_rng(11)
    n = 4
    ops = [GateOp("RY", 0, angle=0.3), GateOp("X", 3), GateOp("P", 2, angle=-0.8),
           GateOp("CRY", 1, 3, 1.1), GateOp("CNOT", 3, 0), GateOp("CP", 0, 2, 0.4),
           GateOp("P", 1, angle=2.2), GateOp("CRY", 2, 1, -0.6)]
    s = random_state(n)
    expected = s.amp.copy()
    amp = s.amp
    for i in gen.integers(len(ops), size=200):
        apply_op(s, ops[i])
        expected = gateop_matrix(ops[i], n) @ expected
    assert s.amp is amp
    assert np.max(np.abs(s.amp - expected)) < 1e-13
    assert 0 < len(s._views) <= len(ops)


def test_fields_cannot_be_reassigned():
    # a rejected assignment keeps the amplitudes and the cached views, which
    # still act on those amplitudes
    s = random_state(3)
    ops = [GateOp("CRY", 2, 0, 0.7), GateOp("RY", 1, angle=0.4), GateOp("P", 0, angle=1.3)]
    for op in ops:
        apply_op(s, op)
    postselect(s, 2, 0)
    amp, views, cached, work = s.amp, s._views, dict(s._views), s._views.work
    expected = amp.copy()
    for name, value in (("amp", random_state(3).amp), ("amp", amp), ("n_qubits", 2)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, name, value)
        assert s.amp is amp and s.n_qubits == 3 and np.array_equal(amp, expected)
        assert s._views is views and views == cached and views.work is work
    for op in ops:
        expected = gateop_matrix(op, 3) @ expected
        apply_op(s, op)
    assert np.max(np.abs(s.amp - expected)) < 1e-14

    # a qubit count that could drift from the amplitudes misreads them
    s = StateVector.basis(3, 5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.n_qubits = 2
    assert postselect(s, 2, 1) == 1.0 and s.amp[5] == 1


@pytest.mark.parametrize("call,message", [
    (lambda s: apply_1q(s, Gate2x2.ry(0.2), 3), "target qubit 3 out of range for 3 qubits"),
    (lambda s: apply_1q(s, Gate2x2.x(), -1), "target qubit -1 out of range for 3 qubits"),
    (lambda s: apply_controlled(s, Gate2x2.x(), 3, 0), "control qubit 3 out of range for 3 qubits"),
    (lambda s: apply_controlled(s, Gate2x2.ry(0.2), 0, 5), "target qubit 5 out of range for 3 qubits"),
    (lambda s: apply_controlled(s, Gate2x2.p(0.2), 1, 1), "control and target must be distinct qubits"),
    (lambda s: postselect(s, 3, 0), "measured qubit 3 out of range for 3 qubits"),
    (lambda s: postselect(s, 1, 2), "outcome must be 0 or 1, got 2"),
])
def test_bad_wiring_raises_the_same_message_every_call(call, message):
    s = random_state(3)
    apply_controlled(s, Gate2x2.ry(0.2), 0, 1)  # a valid wiring is cached
    before = s.amp.copy()
    cached = dict(s._views)
    for _ in range(3):
        with pytest.raises(ValueError) as err:
            call(s)
        assert str(err.value) == message
        assert s._views == cached and np.array_equal(s.amp, before)


def test_cached_views_share_one_scratch():
    # needs grow from none (diagonal) to half the pair (swap) to twice the
    # pair of a controlled and then of a single-qubit rotation; the first
    # carve already takes the 2**n amplitudes of a copied controlled
    # rotation, so only the single-qubit one grows the buffer.  Rotations
    # updated in place on the top qubits need one pair, and grow nothing
    s = random_state(4)
    ops = [GateOp("P", 1, angle=0.3), GateOp("CNOT", 0, 2), GateOp("CRY", 3, 1, 0.5),
           GateOp("X", 2), GateOp("RY", 0, angle=0.9), GateOp("CRY", 1, 0, 0.2),
           GateOp("CRY", 3, 2, -0.4), GateOp("RY", 3, angle=1.7)]
    expected = s.amp.copy()
    seen = []
    for op in ops:
        apply_op(s, op)
        expected = gateop_matrix(op, 4) @ expected
        seen.append(s._views.work)
    assert [None if w is None else w.size for w in seen] == [None, 16, 16, 16, 32, 32, 32, 32]
    assert all(w.ctypes.data % 64 == 0 for w in seen[1:])  # each buffer
    # growing the buffer dropped the entries carved from the smaller one
    assert set(s._views) == {(0, "rot"), (1, 0, "rot"), (3, 2, "rot"), (3, "rot")}
    for op in ops:  # the dropped wirings are carved again, from the one buffer
        apply_op(s, op)
        expected = gateop_matrix(op, 4) @ expected
    assert np.max(np.abs(s.amp - expected)) < 1e-13
    work = s._views.work
    assert work is seen[-1] and len(s._views) == len(ops)
    # a diagonal gate's halves alias the amplitudes; so do a swap's first
    # half and its halves' runs, the pair's runs of three copied rotations,
    # and the pair and its halves of two in-place ones.  A swap's copy and
    # its runs, a copied rotation's ab, uv, their halves and ab's runs, and
    # an in-place rotation's uv and its halves alias the buffer.
    on_amp, on_work = views_by_buffer(s)
    assert (len(on_amp), len(on_work)) == (2 + 2 * 3 + 3 * 1 + 2 * 3, 2 * 2 + 3 * 7 + 2 * 3)
    assert (len(on_amp), len(on_work)) == tuple(
        sum(expected_views(4, key)[i] for key in s._views) for i in (0, 1))
    for key, entry in s._views.items():  # run views exactly where copies are made
        assert sum(v.dtype.kind == "V" for v in entry) == expected_views(4, key)[2], key


def test_copies_of_a_state_do_not_share_views():
    s = random_state(3)
    apply_op(s, GateOp("CRY", 0, 2, 0.4))
    for t in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert not t._views and np.array_equal(t.amp, s.amp)
        expected = gateop_matrix(GateOp("CRY", 0, 2, 0.4), 3) @ t.amp
        before = s.amp.copy()
        apply_op(t, GateOp("CRY", 0, 2, 0.4))
        assert np.max(np.abs(t.amp - expected)) < 1e-14
        assert np.array_equal(s.amp, before)


def test_states_compare_by_identity():
    # the generated == compared the amp arrays inside a tuple and raised
    s = random_state(3)
    assert s == s
    assert (s == StateVector(3, s.amp.copy())) is False
    assert s != StateVector(3, s.amp.copy())
