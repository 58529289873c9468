from __future__ import annotations

import math

import numpy as np
import pytest

from wavesplit import circuits
from wavesplit.circuits import (
    GATE_KINDS,
    Circuit,
    GateOp,
    ModeSystem,
    apply_circuit,
    circuit_dump,
    circuit_to_matrix,
    damping_phase_gate,
    damping_real_circuit,
    qft_circuit,
    wave_evolution_circuit,
)
from wavesplit.harness import (damping_contraction_error, damping_phase_error, formula_cnots,
                               gate_report, qft_error, wave_block_error)
from wavesplit.schemes import get_scheme
from wavesplit.splitting import build_step
from wavesplit.statevector import StateVector

from helpers import circuit_matrix, expected_views, views_by_buffer

rng = np.random.default_rng(11)


# ---------------------------------------------------------------- structure


def test_gateop_validation():
    # each message twice: the same bad op is rejected every time it is built
    bad = [
        (GateOp("H", target=0), "unknown gate kind 'H'"),
        (GateOp("RZ", target=0, angle=0.1), "unknown gate kind 'RZ'"),
        (GateOp("RY", target=2, angle=0.1), "target 2 out of range"),
        (GateOp("RY", target=-1, angle=0.1), "target -1 out of range"),
        (GateOp("CNOT", target=0), "CNOT needs an in-range control qubit"),
        (GateOp("CRY", target=0, control=2, angle=0.1), "CRY needs an in-range control qubit"),
        (GateOp("RY", target=0, control=1, angle=0.1), "RY takes no control qubit"),
        (GateOp("RY", target=0, angle=float("nan")), "RY needs a finite angle"),
        (GateOp("CP", target=0, control=1), "CP needs a finite angle"),
        (GateOp("CNOT", target=0, control=0), "control equals target"),
        (GateOp("X", target=1.0), "target 1.0 is not an integer"),
        (GateOp("RY", target=0.5, angle=0.1), "target 0.5 is not an integer"),
        (GateOp("CNOT", target=0, control=1.0), "control 1.0 is not an integer"),
        (GateOp("X", target=0, control=1.5), "control 1.5 is not an integer"),
    ]
    for op, message in bad:
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                Circuit(2, (GateOp("X", target=1), op))
            assert str(err.value) == message
    # numpy integers are integers
    assert Circuit(2, (GateOp("CNOT", np.int64(0), np.int64(1)),)).cnots == 1


def test_circuit_rejects_a_qubit_count_that_is_no_nonnegative_integer():
    for n in (2.5, 2.0, -1, "2", None):
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                Circuit(n, (GateOp("X", 1),))
            assert str(err.value) == f"qubit count {n!r} is not a nonnegative integer"
    # numpy integers are integers; a qubit count of 0 has no lower copy
    circ = Circuit(np.int64(3), (GateOp("X", 1),))
    assert circ.lower == Circuit(2, (GateOp("X", 1),))
    assert Circuit(1, ()).lower == Circuit(0, ()) and Circuit(0, ()).lower is None


def test_wiring_valid_at_n_still_raises_at_n_minus_1():
    for op, message in [(GateOp("CRY", 3, 1, 0.2), "target 3 out of range"),
                        (GateOp("CNOT", 0, 3), "CNOT needs an in-range control qubit")]:
        Circuit(4, (op,))
        with pytest.raises(ValueError) as err:
            Circuit(3, (op,))
        assert str(err.value) == message
    # a wiring already accepted still has its angle checked
    Circuit(2, (GateOp("RY", 0, None, 0.5),))
    for angle in (float("inf"), None):
        with pytest.raises(ValueError, match="RY needs a finite angle"):
            Circuit(2, (GateOp("RY", 0, None, angle),))


@pytest.mark.parametrize("kwargs", [dict(n=2.5), dict(n=2.0), dict(n=2, d=2.0), dict(n="3")])
def test_mode_system_rejects_non_integer_sizes(kwargs):
    with pytest.raises(ValueError, match="^n and d must be integers$"):
        ModeSystem(**kwargs)
    assert ModeSystem(n=np.int64(2), d=np.int64(2)).n_qubits == 6


def test_gateop_is_an_immutable_tuple_record():
    op = GateOp("CRY", 3, 1, 0.25)
    assert GateOp._fields == ("kind", "target", "control", "angle")
    assert GateOp("X", 0) == GateOp("X", target=0, control=None, angle=None)
    assert repr(op) == "GateOp(kind='CRY', target=3, control=1, angle=0.25)"
    assert repr(GateOp("X", 0)) == "GateOp(kind='X', target=0, control=None, angle=None)"
    with pytest.raises(AttributeError):
        op.angle = 0.5
    assert op == ("CRY", 3, 1, 0.25)
    assert hash(op) == hash(GateOp(kind="CRY", target=3, control=1, angle=0.25))
    assert len({op, GateOp("CRY", 3, 1, 0.25), GateOp("CRY", 3, 1, 0.5)}) == 2


def test_layout_standard():
    # data registers dimension by dimension, then the selector, then the
    # ancilla on top
    sys32 = ModeSystem(n=3, d=2)
    assert (sys32.selector, sys32.ancilla, sys32.n_qubits) == (6, 7, 8)
    for dim, data in enumerate(((0, 1, 2), (3, 4, 5))):
        ops = wave_evolution_circuit(sys32, 0.3, dim).ops
        assert {op.control for op in ops} == set(data)
        assert {op.target for op in ops} == {6}
    assert damping_real_circuit(0.2, sys32).ops[0][:3] == ("CRY", 7, 6)
    assert damping_phase_gate(0.2, sys32).ops[0][:3] == ("P", 6, None)


def test_mode_system_frequencies():
    sys3 = ModeSystem(n=3)
    expected = 2 * np.pi * np.array([0, 1, 2, 3, 4, 3, 2, 1], dtype=float)
    assert np.allclose(sys3.omegas(), expected, atol=0, rtol=1e-15)
    assert sys3.zeta == pytest.approx(4 * np.pi)
    assert sys3.n_qubits == 3 + 2


def test_mode_system_scaling():
    sys_scaled = ModeSystem(n=2, c=3.0, L=2.0)
    assert sys_scaled.omegas()[1] == pytest.approx(2 * np.pi * 3.0 / 2.0)
    assert sys_scaled.zeta == pytest.approx(4 * np.pi * 3.0 / 2.0)


def test_mode_frequencies_multidim():
    sys22 = ModeSystem(n=2, d=2)
    per_axis = [0.0, 2 * np.pi, 4 * np.pi, 2 * np.pi]
    # flattened with axis 0 fastest
    expected = [per_axis[j0] + per_axis[j1] for j1 in range(4) for j0 in range(4)]
    assert np.allclose(sys22.mode_frequencies(), expected)
    assert sys22.n_qubits == 2 * 2 + 2


def test_gamma_validation():
    for gamma in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="damping rate must be finite and nonnegative"):
            ModeSystem(n=2, gamma=gamma)


@pytest.mark.parametrize("name", ["gamma", "c", "L"])
def test_mode_system_rejects_ints_past_the_float_range(name):
    # the comparisons pass 10**400, but a step's angles would overflow
    with pytest.raises(ValueError, match=f"^{name} is too large for a float$"):
        ModeSystem(n=2, **{name: 10**400})
    # a value that fits is kept as given, so no angle bit moves
    sys = ModeSystem(n=2, **{name: 10**300})
    assert type(getattr(sys, name)) is int and getattr(sys, name) == 10**300


# ---------------------------------------------------------------- matrices


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_qft_matches_dft(n):
    assert qft_error(n) < 1e-12


@pytest.mark.parametrize("n,count", [(1, 0), (2, 5), (3, 9), (4, 18), (5, 26), (6, 39)])
def test_qft_cnot_budget(n, count):
    # n(n-1) direct from the controlled-phase ladder, 3 per closing swap
    assert qft_circuit(n).cnots == count
    assert count == n * (n - 1) + 3 * (n // 2)


def per_op_cnots(circ: Circuit) -> int:
    return sum(circuits._KINDS[op.kind][1] for op in circ.ops)


def test_cnot_count_is_the_per_op_sum():
    user = [
        Circuit(1, ()),
        Circuit(1, (GateOp("RY", 0, angle=0.3), GateOp("X", 0), GateOp("P", 0, angle=1.0))),
        Circuit(3, (GateOp("CNOT", 2, 0), GateOp("CRY", 0, 1, -0.5), GateOp("CP", 1, 2, 0.25),
                    GateOp("CNOT", 1, 0), GateOp("X", 2))),
        Circuit(4, [GateOp("CRY", q, (q + 1) % 4, 0.1 * q) for q in range(4)]),
    ]
    for circ in [qft_circuit(n) for n in range(1, 8)] + user:
        assert circ.cnots == per_op_cnots(circ)
        if circ.lower is not None:
            assert circ.lower.cnots == circ.cnots
    # the total shows in no repr and enters no equality
    assert "cnots" not in repr(user[1])
    assert user[2] == Circuit(3, user[2].ops)


@pytest.mark.parametrize("first", [0.0, -0.0])
def test_builders_key_on_the_exact_bits_of_their_argument(first):
    # 0.0 and -0.0 build different circuits, whichever is built first
    sys_ = ModeSystem(n=2, d=2, gamma=0.3)
    circuits._built.cache_clear()
    for x in (first, -first):
        wave = wave_evolution_circuit(sys_, x, 1)
        assert {op.angle.hex() for op in wave.ops if op.angle is not None} == {(-x).hex()}
        assert damping_phase_gate(x, sys_).ops[0].angle.hex() == (-x).hex()
        assert damping_real_circuit(x, sys_).ops[0].angle.hex() == (0.0).hex()
        # a repeat returns the one circuit, whatever gamma, c and L are
        other = ModeSystem(n=2, d=2, c=2.0, L=3.0, gamma=0.9)
        assert wave_evolution_circuit(other, x, 1) is wave
        assert wave_evolution_circuit(sys_, x, 0) != wave
        assert wave_evolution_circuit(ModeSystem(n=2, d=3), x, 1) != wave
    assert wave_evolution_circuit(sys_, first, 1) is not wave_evolution_circuit(sys_, -first, 1)


def test_builder_rejections_are_never_cached():
    sys_ = ModeSystem(n=2, d=2)
    wave_evolution_circuit(ModeSystem(n=2, d=3), 0.1, 2)  # valid one dimension up
    nan, inf = math.nan, math.inf
    bad = [
        (lambda: wave_evolution_circuit(sys_, nan), "tau must be finite"),
        (lambda: wave_evolution_circuit(sys_, -inf, 1), "tau must be finite"),
        (lambda: wave_evolution_circuit(sys_, 0.1, 2), "dimension 2 out of range for d=2"),
        (lambda: wave_evolution_circuit(sys_, 0.1, -1), "dimension -1 out of range for d=2"),
        (lambda: damping_real_circuit(-0.1, sys_),
         "dissipative stage needs a nonnegative finite argument"),
        (lambda: damping_real_circuit(nan, sys_),
         "dissipative stage needs a nonnegative finite argument"),
        (lambda: damping_phase_gate(nan, sys_), "phase stage needs a finite argument"),
    ]
    for build, message in bad:
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == message


def built_by_rule(builder: str, sys_: ModeSystem, x: float, dim: int = 0) -> Circuit:
    """The builders' construction rule, spelled out op by op and checked
    by the public Circuit constructor."""
    n, sel = sys_.n, sys_.selector
    if builder == "wave":
        data = range(dim * n, (dim + 1) * n)
        flip = GateOp("CNOT", sel, data[-1])
        ops = ((flip,) + tuple(GateOp("CRY", sel, q, -(2.0**r) * x) for r, q in enumerate(data))
               + (flip, GateOp("CRY", sel, data[-1], -(2.0**n) * x)))
    elif builder == "damp_real":
        if x < 0:
            raise ValueError("dissipative stage needs a nonnegative finite argument")
        ops = (GateOp("CRY", sys_.ancilla, sel, 2.0 * math.acos(math.exp(-x))),)
    else:
        ops = (GateOp("P", sel, None, -x),)
    return Circuit(sys_.n_qubits, ops)


def outcome(build):
    """Every field of a built circuit, angles by their exact bits, or the
    message it was rejected with."""
    try:
        circ = build()
    except ValueError as err:
        return str(err)
    return circ.n_qubits, circ.cnots, [
        (type(op), op.kind, op.target, op.control,
         None if op.angle is None else (type(op.angle), op.angle.hex())) for op in circ.ops]


# 1e305 overflows the wave angles from data qubit 11 on
@pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, 0.37, -1.9, 123.456, 1e300, 1e305])
def test_builders_match_the_construction_rule_bit_for_bit(x):
    public = {"wave": lambda s, dim: wave_evolution_circuit(s, x, dim),
              "damp_real": lambda s, dim: damping_real_circuit(x, s),
              "damp_phase": lambda s, dim: damping_phase_gate(x, s)}
    for n in range(1, 21):
        for d in (1, 2, 3):
            sys_ = ModeSystem(n=n, d=d)
            for builder, dims in (("wave", range(d)), ("damp_real", [0]), ("damp_phase", [0])):
                for dim in dims:
                    got = outcome(lambda: public[builder](sys_, dim))
                    assert got == outcome(lambda: built_by_rule(builder, sys_, x, dim))
                    if isinstance(got, str):
                        continue
                    circ = public[builder](sys_, dim)
                    assert circ.cnots == per_op_cnots(circ)
                    if circ.lower is not None:
                        assert circ.lower == Circuit(circ.n_qubits - 1, circ.ops)
                        assert circ.lower.cnots == circ.cnots


def rule_args(scheme, sys_: ModeSystem, dt: float) -> list[tuple[str, float, int]]:
    """(builder, argument, dimension) of each circuit stage of a
    ``build_step`` plan, in stage order, computed as ``build_step`` does."""
    out = []

    def dissipative(ai: complex) -> None:
        out.append(("damp_real", sys_.gamma * ai.real * dt, 0))
        if abs(ai.imag) >= 1e-15:
            out.append(("damp_phase", sys_.gamma * ai.imag * dt, 0))

    for i, bi in enumerate(scheme.b):
        dissipative(complex(scheme.a[i]))
        out += [("wave", sys_.zeta * bi * dt, dim) for dim in range(sys_.d)]
    if len(scheme.a) == len(scheme.b) + 1:
        dissipative(complex(scheme.a[-1]))
    return out


@pytest.mark.parametrize("name", ["lie", "strang", "castella4", "bernier6"])
@pytest.mark.parametrize("n,d", [(1, 1), (7, 1), (4, 2), (15, 3)])
def test_a_counted_plan_writes_no_ops_until_they_are_read(name, n, d):
    circuits._built.cache_clear()  # a run elsewhere may have read these circuits
    scheme, sys_ = get_scheme(name), ModeSystem(n=n, d=d, gamma=0.5)
    plan = build_step(scheme, sys_, 0.1)
    cnots = plan.cnot_per_step
    assert cnots == formula_cnots(scheme, n, d)
    circs = [st.circuit for st in plan.stages if st.circuit is not None]
    assert not any("ops" in vars(circ) for circ in circs)
    # read now, every op follows the rule bit for bit and no total moves
    args = rule_args(scheme, sys_, 0.1)
    assert len(args) == len(circs)
    for circ, (builder, x, dim) in zip(circs, args):
        before = circ.cnots
        assert outcome(lambda: circ) == outcome(lambda: built_by_rule(builder, sys_, x, dim))
        assert circ.cnots == before == per_op_cnots(circ)
    assert plan.cnot_per_step == cnots


@pytest.mark.parametrize("read", [
    lambda c: c.ops, lambda c: c.gates, lambda c: c.lower, lambda c: c.kept,
    lambda c: c == Circuit(c.n_qubits, ()), repr, hash, circuit_dump,
    lambda c: apply_circuit(StateVector.basis(c.n_qubits), c),
], ids=["ops", "gates", "lower", "kept", "eq", "repr", "hash", "dump", "apply"])
def test_every_reader_of_a_builders_ops_writes_them_once(read):
    sys_ = ModeSystem(n=3, d=2)
    for build in (lambda: wave_evolution_circuit(sys_, 0.3, 1),
                  lambda: damping_real_circuit(0.3, sys_),
                  lambda: damping_phase_gate(0.3, sys_)):
        circuits._built.cache_clear()
        circ = build()
        assert set(vars(circ)) == {"n_qubits", "cnots", "_rule"}
        read(circ)
        ops = vars(circ)["ops"]
        assert "_rule" not in vars(circ) and circ.ops is ops
        assert circ == Circuit(circ.n_qubits, ops) and build() is circ
        with pytest.raises(AttributeError, match="has no attribute 'opz'"):
            circ.opz


def test_a_rejected_miss_caches_nothing():
    sys_ = ModeSystem(n=20, d=3)
    wave_evolution_circuit(sys_, 0.5, 2)
    cached = circuits._built.cache_info().currsize
    for _ in range(2):
        # 2**20 * 1e303 overflows: the same message as a hand-built circuit
        with pytest.raises(ValueError, match="^CRY needs a finite angle$"):
            wave_evolution_circuit(sys_, 1e303, 2)
        assert circuits._built.cache_info().currsize == cached
        with pytest.raises(ValueError, match="^tau must be finite$"):
            wave_evolution_circuit(sys_, math.inf, 2)
        assert circuits._built.cache_info().currsize == cached


@pytest.mark.parametrize("n", [1024, 1100])
def test_no_wave_circuit_past_n_1023(n):
    # 2**n is no float: a ValueError, not an OverflowError, and nothing
    # cached, even where -2**n times the argument would round to a float
    circuits._built.cache_clear()
    for x in (0.0, -0.0, 5e-324, 0.1):
        for _ in range(2):
            with pytest.raises(ValueError, match="^CRY needs a finite angle$"):
                wave_evolution_circuit(ModeSystem(n), x)
    assert circuits._built.cache_info().currsize == 0
    with pytest.raises(ValueError, match="^step size 1 overflows the wave-stage angles$"):
        gate_report("lie", n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_wave_circuit_block_structure(n):
    sys_n = ModeSystem(n=n)
    # per-mode rotations on the data+selector register, ancilla untouched
    assert wave_block_error(sys_n, 0.137) < 1e-13
    assert wave_evolution_circuit(sys_n, 0.137).cnots == 2 * n + 4


@pytest.mark.parametrize("n,d,dim", [(1, 1, 0), (3, 1, 0), (4, 3, 2)])
def test_wave_circuit_ops_are_the_documented_ladder(n, d, dim):
    sys_ = ModeSystem(n=n, d=d)
    data, sel = range(dim * n, (dim + 1) * n), sys_.selector
    tau = 0.1 * 7.3
    circ = wave_evolution_circuit(sys_, tau, dim)
    # CNOT(top -> selector), CRY(-2**r tau) per data qubit r, the same
    # CNOT again, then CRY(-2**n tau) controlled by the top qubit
    want = ((GateOp("CNOT", sel, data[-1]),)
            + tuple(GateOp("CRY", sel, q, -(2.0**r) * tau) for r, q in enumerate(data))
            + (GateOp("CNOT", sel, data[-1]), GateOp("CRY", sel, data[-1], -(2.0**n) * tau)))
    assert circ.ops == want
    assert all(type(op) is GateOp for op in circ.ops)
    assert [op.angle.hex() for op in circ.ops if op.angle is not None] == [
        op.angle.hex() for op in want if op.angle is not None]


def random_op(kind: str, n: int) -> GateOp:
    target = int(rng.integers(n))
    control = None
    if kind in ("CNOT", "CRY", "CP"):
        control = int(rng.integers(n))
        while control == target:
            control = int(rng.integers(n))
    angle = None if kind in ("X", "CNOT") else float(rng.uniform(-np.pi, np.pi))
    return GateOp(kind, target=target, control=control, angle=angle)


def test_wave_circuit_independent_embedding_oracle():
    sys2 = ModeSystem(n=2)
    circ = wave_evolution_circuit(sys2, 0.21)
    assert np.max(np.abs(circuit_to_matrix(circ) - circuit_matrix(circ, 4))) < 1e-13
    # random circuits with one op of every kind that fits, the uncontrolled
    # RY among them since it sizes the doubled register's scratch
    for n in range(1, 6):
        kinds = GATE_KINDS if n > 1 else ("RY", "P", "X")
        ops = [random_op(kind, n) for kind in kinds]
        ops += [random_op(kinds[rng.integers(len(kinds))], n) for _ in range(6 * n)]
        circ = Circuit(n, tuple(ops))
        assert np.max(np.abs(circuit_to_matrix(circ) - circuit_matrix(circ, n))) < 1e-13


def test_damping_real_circuit_action():
    sys1 = ModeSystem(n=1)
    gdt = 0.3
    circ = damping_real_circuit(gdt, sys1)
    assert circ.cnots == 2
    mat = circuit_to_matrix(circ)
    k = np.exp(-gdt)
    # selector |1>, ancilla |0> keeps weight k; the rest leaks to ancilla |1>
    for data in (0, 1):
        col = data + 2  # selector bit set
        assert mat[col, col] == pytest.approx(k, abs=1e-15)
        assert abs(mat[col + 4, col]) == pytest.approx(np.sqrt(1 - k * k), abs=1e-15)
    # selector |0> column untouched
    assert mat[0, 0] == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        damping_real_circuit(-0.1, sys1)
    # the selftest check, after postselection, on a wider random state
    draw = np.random.default_rng(5)
    for g in (0.0, 0.05, 0.31, 2.0):
        amp = draw.standard_normal(32) + 1j * draw.standard_normal(32)
        assert damping_contraction_error(g, amp) < 1e-13


def test_damping_phase_gate_action():
    circ = damping_phase_gate(0.4, ModeSystem(n=1))
    mat = circuit_to_matrix(circ)
    expected = np.diag([1, 1, np.exp(-0.4j), np.exp(-0.4j), 1, 1, np.exp(-0.4j), np.exp(-0.4j)])
    assert np.max(np.abs(mat - expected)) < 1e-15
    assert circ.cnots == 0
    # the selftest check, on a wider random state
    draw = np.random.default_rng(6)
    for x in (0.4, -1.7):
        amp = draw.standard_normal(32) + 1j * draw.standard_normal(32)
        assert damping_phase_error(x, amp) < 1e-13


def test_apply_circuit_matches_matrix_path():
    n = 4
    circ = Circuit(n, tuple(random_op(GATE_KINDS[rng.integers(len(GATE_KINDS))], n)
                            for _ in range(30)))
    amp = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    state = StateVector.from_amplitudes(amp)
    expected = circuit_matrix(circ, n) @ state.amp
    assert apply_circuit(state, circ) is None
    assert np.max(np.abs(state.amp - expected)) < 1e-13


def test_lower_copy_is_none_exactly_when_an_op_touches_the_top_qubit():
    sys2 = ModeSystem(n=2, gamma=0.3)
    anc, sel = sys2.ancilla, sys2.selector
    for circ in (wave_evolution_circuit(sys2, 0.4), damping_phase_gate(0.2, sys2),
                 Circuit(4, qft_circuit(3).ops)):
        assert circ.lower == Circuit(circ.n_qubits - 1, circ.ops)
        assert circ.lower is circ.lower
        # the copy shares its parent's gates: they are looked up once
        assert circ.lower.gates is circ.gates
    for ops in ((GateOp("RY", anc, angle=0.4),), (GateOp("CRY", sel, anc, 0.9),),
                (GateOp("X", 0), GateOp("CRY", anc, sel, 0.9))):
        assert Circuit(sys2.n_qubits, ops).lower is None
    assert damping_real_circuit(0.1, sys2).lower is None


def test_kept_gates_keep_the_zero_column_of_the_one_gate_on_the_top_qubit():
    sys2 = ModeSystem(n=2, gamma=0.3)
    anc, sel, nq = sys2.ancilla, sys2.selector, sys2.n_qubits
    damp = damping_real_circuit(0.7, sys2)
    m = damp.gates[0].matrix
    assert np.array_equal(damp.kept[0].matrix, np.diag([m[0, 0], 1]))
    assert damp.kept is damp.kept
    with pytest.raises(ValueError):
        damp.kept[0].matrix[1, 1] = 2.0
    mixed = Circuit(nq, (GateOp("RY", 0, angle=0.4), GateOp("CRY", anc, sel, -2.5),
                         GateOp("CNOT", 1, sel), GateOp("P", sel, angle=0.3)))
    assert mixed.kept[0] is mixed.gates[0] and mixed.kept[2:] == mixed.gates[2:]
    # none unless exactly one op touches the top qubit, as its target
    for ops in ((), (GateOp("CRY", anc, sel, 0.4), GateOp("CRY", anc, 0, 0.4)),
                (GateOp("CRY", sel, anc, 0.4),), (GateOp("X", anc), GateOp("RY", anc, angle=0.2))):
        assert Circuit(nq, ops).kept is None
    assert wave_evolution_circuit(sys2, 0.4).kept is None
    # on a state whose top qubit reads |0>, the |0> half gets the values
    # of the true gates (the bits too, for an RY with sin >= 0), and the
    # |1> half stays zero
    for circ, same_bits in ((damp, True), (mixed, False)):
        amp = np.zeros(2**nq, dtype=complex)
        amp[: 2 ** (nq - 1)] = rng.standard_normal(2 ** (nq - 1)) + 1j
        true, kept = StateVector(nq, amp.copy()), StateVector(nq, amp.copy())
        apply_circuit(true, circ)
        apply_circuit(kept, circ, circ.kept)
        low = 2 ** (nq - 1)
        assert np.any(true.amp[low:]) and not np.any(kept.amp[low:])
        assert np.array_equal(kept.amp[:low], true.amp[:low])
        assert (kept.amp[:low].tobytes() == true.amp[:low].tobytes()) or not same_bits


def test_gates_are_shared_by_family_and_exact_angle():
    a = Circuit(2, (GateOp("RY", 0, angle=0.0), GateOp("CRY", 1, 0, 0.0),
                    GateOp("RY", 0, angle=-0.0), GateOp("CNOT", 0, 1), GateOp("X", 1))).gates
    b = Circuit(3, (GateOp("CRY", 2, 1, 0.0), GateOp("P", 0, angle=0.0))).gates
    # one matrix per family and angle across circuits; -0.0 and P stay apart
    assert a[0] is a[1] is b[0] and a[3] is a[4]
    assert a[2] is not a[0] and b[1] is not b[0]
    with pytest.raises(ValueError):
        a[0].matrix[0, 0] = 2.0


def test_gate_matrices_built_once_on_first_application():
    circuits._built.cache_clear()  # a run elsewhere may have used this circuit
    circ = wave_evolution_circuit(ModeSystem(n=2, gamma=0.3), 0.4)
    assert "gates" not in vars(circ)
    state = StateVector.basis(circ.n_qubits, index=3)
    apply_circuit(state, circ)
    gates = vars(circ)["gates"]
    assert len(gates) == len(circ.ops)
    apply_circuit(state, circ)
    assert circ.gates is gates


@pytest.mark.parametrize("make", [lambda: qft_circuit(3),
                                  lambda: wave_evolution_circuit(ModeSystem(n=2, gamma=0.3), 0.4)])
def test_apply_circuit_gates_share_one_scratch(make):
    # the gates carve their scratch from one buffer on the state, sized for
    # the largest need: twice the pair of an uncontrolled RY when there is one
    circ = make()
    amp = rng.standard_normal(2 ** circ.n_qubits) + 1j * rng.standard_normal(2 ** circ.n_qubits)
    state = StateVector.from_amplitudes(amp)
    expected = circuit_matrix(circ, circ.n_qubits) @ state.amp
    apply_circuit(state, circ)
    assert np.max(np.abs(state.amp - expected)) < 1e-13
    work = state._views.work
    has_ry = any(op.kind == "RY" for op in circ.ops)
    assert work.size == 2 ** (circ.n_qubits + has_ry)
    # each wiring's views alias the amplitudes or the one buffer, as many
    # of each as its kernel branch lays out
    on_amp, on_work = views_by_buffer(state)
    assert on_work and (len(on_amp), len(on_work)) == tuple(
        sum(expected_views(circ.n_qubits, key)[i] for key in state._views) for i in (0, 1))
    apply_circuit(state, circ)  # a second run carves nothing new
    assert state._views.work is work


def test_circuit_to_matrix_size_cap():
    big = Circuit(13, (GateOp("X", target=0),))
    with pytest.raises(ValueError):
        circuit_to_matrix(big)


def test_circuit_dump_format():
    circ = Circuit(3, (
        GateOp("RY", target=1, angle=0.5),
        GateOp("CNOT", target=0, control=2),
    ))
    lines = circuit_dump(circ).splitlines()
    assert lines[0].split() == ["RY", "0.5", "-", "1"]
    assert lines[1].split() == ["CNOT", "-", "2", "0"]
