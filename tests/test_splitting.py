from __future__ import annotations

from collections import Counter
from contextlib import nullcontext

import numpy as np
import pytest
import scipy.linalg

from wavesplit import circuits, harness, splitting
from wavesplit.circuits import ModeSystem
from wavesplit.reference import dense_expm, encode_initial, spectral_pairs
from wavesplit.schemes import builtin_schemes, get_scheme, validate_scheme, yoshida4
from wavesplit.splitting import (
    POSTSELECT,
    SplitStepPlan,
    Stage,
    build_step,
    generic_split_matrix,
    simulate,
)
from wavesplit.statevector import (DegeneratePostselectionError, Gate2x2, StateVector,
                                   apply_1q, apply_controlled, postselect)

from helpers import gateop_matrix, random_hermitian, random_neg_semidefinite, split_evolve_pairs

rng = np.random.default_rng(31)


def random_fields(n_modes: int, d: int = 1):
    shape = (n_modes,) * d
    phi = rng.standard_normal(shape)
    dphi = rng.standard_normal(shape)
    dphi -= dphi.mean()
    return phi, dphi


# ------------------------------------------------------------- step building


@pytest.mark.parametrize("name,n_damp,n_wave_factor", [
    ("lie", 1, 1), ("strang", 2, 1), ("castella4", 5, 4), ("bernier6", 16, 15),
])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_stage_count_identity(name, n_damp, n_wave_factor, d):
    plan = build_step(get_scheme(name), ModeSystem(n=2, d=d, gamma=0.4), 0.05)
    counts = plan.stage_counts()
    assert counts["damp_real"] == n_damp
    assert counts["wave"] == n_wave_factor * d
    assert counts["postselect"] == n_damp


def test_phase_stages_only_for_complex_coefficients():
    sys2 = ModeSystem(n=2, gamma=0.4)
    assert build_step(get_scheme("lie"), sys2, 0.1).stage_counts()["damp_phase"] == 0
    assert build_step(get_scheme("strang"), sys2, 0.1).stage_counts()["damp_phase"] == 0
    assert build_step(get_scheme("castella4"), sys2, 0.1).stage_counts()["damp_phase"] == 5
    assert build_step(get_scheme("bernier6"), sys2, 0.1).stage_counts()["damp_phase"] == 16


def test_dissipative_first_ordering():
    plan = build_step(get_scheme("strang"), ModeSystem(n=2, gamma=0.4), 0.1)
    kinds = [s.kind for s in plan.stages]
    assert kinds[0] == "damp_real"
    assert kinds[-2] == "damp_real"  # closing half stage, then postselect
    assert kinds[-1] == "postselect"


def test_wave_stage_dimension_order():
    plan = build_step(get_scheme("lie"), ModeSystem(n=2, d=3, gamma=0.1), 0.1)
    waves = [s for s in plan.stages if s.kind == "wave"]
    assert len(waves) == 3
    for k, stage in enumerate(waves):
        controls = {op.control for op in stage.circuit.ops}
        assert controls == set(range(2 * k, 2 * k + 2))


def test_stage_coefficients_recorded():
    scheme = get_scheme("castella4")
    dt = 0.07
    plan = build_step(scheme, ModeSystem(n=2, gamma=0.9), dt)
    damp = [s for s in plan.stages if s.kind == "damp_real"]
    phases = [s for s in plan.stages if s.kind == "damp_phase"]
    waves = [s for s in plan.stages if s.kind == "wave"]
    gamma = 0.9
    for stage, a in zip(damp, scheme.a):
        assert stage.param == pytest.approx(gamma * a.real * dt, rel=1e-15)
    for stage, a in zip(phases, scheme.a):
        assert stage.param == pytest.approx(gamma * a.imag * dt, rel=1e-15)
    for stage, b in zip(waves, scheme.b):
        assert stage.param == pytest.approx(b * dt, rel=1e-15)
    assert POSTSELECT.param is None and POSTSELECT.circuit is None


def test_stage_rejects_mismatched_records():
    circ = circuits.damping_real_circuit(0.1, ModeSystem(n=1))
    assert Stage("damp_real", 0.1, circ).circuit is circ
    with pytest.raises(ValueError):
        Stage("wave", 0.1)  # a circuit stage without its circuit
    with pytest.raises(ValueError):
        Stage("postselect", circuit=circ)
    with pytest.raises(ValueError):
        Stage("shear", 0.1, circ)


def test_build_step_rejects_bad_dt():
    for dt in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="step size must be positive and finite"):
            build_step(get_scheme("lie"), ModeSystem(n=2, gamma=0.5), dt)


def test_build_step_names_an_overflowing_input(monkeypatch):
    built = []
    monkeypatch.setattr(splitting, "damping_real_circuit",
                        lambda *args: built.append(args) or circuits.damping_real_circuit(*args))
    # gamma*|a|*dt overflows; so does zeta*b*dt*2**n, while dt alone is finite
    with pytest.raises(ValueError, match="damping rate"):
        build_step(get_scheme("bernier6"), ModeSystem(n=3, gamma=1e308), 100.0)
    with pytest.raises(ValueError, match="step size"):
        build_step(get_scheme("bernier6"), ModeSystem(n=20, gamma=0.0), 1e304)
    assert not built
    # large arguments whose products stay finite still build
    build_step(get_scheme("lie"), ModeSystem(n=3, gamma=1e307), 1.0)
    build_step(get_scheme("lie"), ModeSystem(n=3), 1e300)


BUILDERS = {"wave": "wave_evolution_circuit", "damp_real": "damping_real_circuit",
            "damp_phase": "damping_phase_gate"}


def spy_builders(monkeypatch, calls: Counter) -> None:
    """Count the circuit builders ``build_step`` calls, by stage kind."""
    for kind, name in BUILDERS.items():
        inner = getattr(splitting, name)
        monkeypatch.setattr(splitting, name, lambda *args, inner=inner, kind=kind:
                            calls.update([kind]) or inner(*args))


@pytest.mark.parametrize("scheme", builtin_schemes(), ids=lambda s: s.name)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_one_builder_call_per_circuit_stage(monkeypatch, scheme, d):
    # the benchmark derives its expected construct counts from stage_counts()
    calls = Counter()
    spy_builders(monkeypatch, calls)
    for gamma in (0.0, 0.5):
        calls.clear()
        plan = build_step(scheme, ModeSystem(n=3, d=d, gamma=gamma), 1.0)
        counts = plan.stage_counts()
        assert {k: calls[k] for k in BUILDERS} == {k: counts[k] for k in BUILDERS}
        # stages with equal kind, exact param and dimension share one circuit;
        # at gamma 0 the phase params are 0.0 and -0.0, which stay apart
        keys, circuits_, waves = [], [], 0
        for st in plan.stages:
            if st.circuit is None:
                continue
            dim = None
            if st.kind == "wave":  # wave stages come in dimension order
                dim, waves = waves % d, waves + 1
            keys.append((st.kind, float(st.param).hex(), dim))
            circuits_.append(st.circuit)
        for key, circ in zip(keys, circuits_):
            for other_key, other in zip(keys, circuits_):
                assert (circ is other) == (key == other_key)
        assert len(set(keys)) < len(keys) or scheme.name == "lie"


@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_build_step_rejects_a_negative_dissipative_coefficient(monkeypatch, gamma):
    scheme = yoshida4()
    assert sum(scheme.a) == pytest.approx(1, abs=1e-15)
    assert sum(scheme.b) == pytest.approx(1, abs=1e-15)
    assert not validate_scheme(scheme).passed
    calls = Counter()
    spy_builders(monkeypatch, calls)
    with pytest.raises(ValueError, match=r"^dissipative coefficient a\[1\] = \(-0\.1756\d*\+0j\) "
                                         r"has a negative real part$"):
        build_step(scheme, ModeSystem(n=3, gamma=gamma), 0.1)
    assert not calls


def test_negative_step_amplifies_a_dissipative_stage():
    # the paper's case for complex coefficients: a real scheme above order 2
    # needs a negative step, and on a dissipative H1 that step amplifies,
    # by exp(|lambda_min| |a[1]| dt); no builtin stage can
    h1 = random_neg_semidefinite(rng, 4) - 0.1 * np.eye(4)
    dt = 0.3

    def stage_norm(ai):
        return np.linalg.norm(dense_expm(complex(ai) * h1, dt), 2)

    a1 = yoshida4().a[1]
    assert a1.real < 0
    grow = np.exp(np.linalg.eigvalsh(h1).min() * a1.real * dt)
    assert grow > 1.01
    assert stage_norm(a1) == pytest.approx(grow, rel=1e-12)
    for scheme in builtin_schemes():
        for ai in scheme.a:
            assert stage_norm(ai) <= 1 + 1e-14, (scheme.name, ai)


def test_cnot_per_step_formula():
    for scheme in builtin_schemes():
        for n in (1, 4, 9):
            for d in (1, 2):
                plan = build_step(scheme, ModeSystem(n=n, d=d, gamma=0.2), 0.1)
                expected = len(scheme.b) * d * (2 * n + 4) + len(scheme.a) * 2
                assert plan.cnot_per_step == expected
                assert plan.n_qubits == n * d + 2


# ----------------------------------------------------------------- simulate


def test_simulate_validates_inputs():
    sys2 = ModeSystem(n=2, gamma=0.3)
    plan = build_step(get_scheme("strang"), sys2, 0.1)
    phi, dphi = random_fields(4)
    initial = encode_initial(phi, dphi)
    with pytest.raises(ValueError):
        simulate(plan, 0, initial)
    with pytest.raises(ValueError):
        simulate(plan, 1, StateVector.basis(3))
    hot_ancilla = StateVector.basis(plan.n_qubits, index=2 ** (plan.n_qubits - 1))
    with pytest.raises(ValueError):
        simulate(plan, 1, hot_ancilla)


@pytest.mark.parametrize("name", ["lie", "strang", "castella4", "bernier6"])
def test_split_pipeline_matches_per_mode_oracle(name):
    scheme = get_scheme(name)
    sys3 = ModeSystem(n=3, gamma=0.8)
    phi, dphi = random_fields(8)
    pairs = spectral_pairs(phi, dphi)
    dt, steps = 0.11, 3
    plan = build_step(scheme, sys3, dt)
    report = simulate(plan, steps, encode_initial(phi, dphi))

    expected = split_evolve_pairs(scheme, sys3, dt, steps, pairs)
    emulated = np.sqrt(report.success_prob) * report.state.amp[: 2 * 8]
    assert np.max(np.abs(emulated - expected)) < 1e-12
    assert report.success_prob == pytest.approx(np.linalg.norm(expected) ** 2, abs=1e-10)


def test_split_pipeline_matches_oracle_multidim():
    scheme = get_scheme("castella4")
    sys22 = ModeSystem(n=2, d=2, gamma=0.5)
    phi, dphi = random_fields(4, d=2)
    pairs = spectral_pairs(phi, dphi)
    dt, steps = 0.09, 2
    plan = build_step(scheme, sys22, dt)
    report = simulate(plan, steps, encode_initial(phi, dphi))
    expected = split_evolve_pairs(scheme, sys22, dt, steps, pairs)
    emulated = np.sqrt(report.success_prob) * report.state.amp[: 2 * 16]
    assert np.max(np.abs(emulated - expected)) < 1e-12


@pytest.mark.parametrize("name", ["lie", "strang", "castella4", "bernier6"])
def test_magnitude_squared_equals_probability_product(name):
    # the squared norm of the unnormalized split evolution, from the oracle
    scheme, sys3 = get_scheme(name), ModeSystem(n=3, gamma=0.7)
    phi, dphi = random_fields(8)
    report = simulate(build_step(scheme, sys3, 0.13), 3, encode_initial(phi, dphi))
    expected = split_evolve_pairs(scheme, sys3, 0.13, 3, spectral_pairs(phi, dphi))
    assert abs(report.success_prob - np.linalg.norm(expected) ** 2) < 1e-10
    assert 0 < report.success_prob <= 1


@pytest.mark.parametrize("name", ["lie", "strang", "castella4", "bernier6"])
def test_undamped_evolution_preserves_norm(name):
    sys3 = ModeSystem(n=3, gamma=0.0)
    phi, dphi = random_fields(8)
    plan = build_step(get_scheme(name), sys3, 0.2)
    report = simulate(plan, 2, encode_initial(phi, dphi))
    assert abs(report.success_prob - 1.0) < 1e-12


def test_report_accounting_fields():
    sys3 = ModeSystem(n=3, gamma=0.4)
    phi, dphi = random_fields(8)
    plan = build_step(get_scheme("bernier6"), sys3, 0.1)
    report = simulate(plan, 5, encode_initial(phi, dphi))
    assert report.T == 5
    assert report.dt == pytest.approx(0.1)
    assert report.cnot_total == 5 * plan.cnot_per_step
    assert report.qubits == 5  # 3 data + selector + ancilla
    assert report.wall_time >= 0.0


@pytest.mark.parametrize("n,d", [(3, 1), (2, 3)])
def test_one_kernel_call_per_planned_gate(monkeypatch, n, d):
    calls = {"apply_1q": 0, "apply_controlled": 0, "postselect": 0}
    seen = []  # (kernel, qubits of the state it was handed), in call order

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            seen.append((name, args[0].n_qubits))
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(circuits, "apply_1q")
    counting(circuits, "apply_controlled")
    counting(splitting, "postselect")
    sys_nd = ModeSystem(n=n, d=d, gamma=0.5)
    phi, dphi = random_fields(2**n, d)
    initial = encode_initial(phi, dphi)
    plan = build_step(get_scheme("bernier6"), sys_nd, 0.05)
    T = 2
    report = simulate(plan, T, initial)

    ops = [op for st in plan.stages if st.circuit is not None for op in st.circuit.ops]
    assert calls["apply_1q"] == T * sum(op.control is None for op in ops)
    assert calls["apply_controlled"] == T * sum(op.control is not None for op in ops)
    assert calls["postselect"] == T * plan.stage_counts()["postselect"]
    assert report.state is initial

    # the encoded input's ancilla-|1> half is zero, so from the first stage
    # on every stage but damp_real and the postselections runs on the
    # ancilla-|0> half
    nq = plan.n_qubits
    expected = []
    for st in T * plan.stages:
        if st.kind == "postselect":
            expected.append(("postselect", nq))
            continue
        width = nq if st.kind == "damp_real" else nq - 1
        expected += [("apply_1q" if op.control is None else "apply_controlled", width)
                     for op in st.circuit.ops]
    assert seen == expected


# ------------------------------------------------------- half-state stages


def full_width_run(plan, T, initial):
    """Every stage on the whole state: the path ``simulate`` narrows.
    Runs on a copy, leaving ``initial`` as it was."""
    anc = plan.sys.ancilla
    state = StateVector(initial.n_qubits, initial.amp.copy())
    success = 1.0
    for _ in range(T):
        for st in plan.stages:
            if st.kind == "postselect":
                success *= postselect(state, anc, 0)
            else:
                circuits.apply_circuit(state, st.circuit)
    return state, success


def assert_same_bits(state, ref):
    """The ancilla-|0> half bit for bit, the ancilla-|1> half by value: a
    wave stage run on the half state leaves that zero half as +0.0 where
    one at full width may write -0.0 (a plan that ends in a wave stage)."""
    low = state.amp.size // 2
    assert state.amp[:low].tobytes() == ref.amp[:low].tobytes()
    assert np.array_equal(state.amp, ref.amp)


def assert_matches_full_width(plan, T, initial):
    ref, success = full_width_run(plan, T, initial)
    report = simulate(plan, T, initial)
    assert report.state is initial and not initial._views
    assert_same_bits(report.state, ref)
    assert report.success_prob == success
    return report


def kept_spy(monkeypatch, states=None):
    """Record (qubits, ran kept gates) for each circuit ``simulate`` runs,
    and each state it ran one on by its qubit count into ``states``."""
    runs = []
    inner = splitting.apply_circuit

    def spy(state, circuit, *gates):
        runs.append((state.n_qubits, bool(gates)))
        if states is not None:
            states[state.n_qubits] = state
        inner(state, circuit, *gates)
    monkeypatch.setattr(splitting, "apply_circuit", spy)
    return runs


@pytest.mark.parametrize("name", ["lie", "strang", "castella4", "bernier6"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("T", [1, 2, 3])
def test_half_state_stages_match_full_width(monkeypatch, name, d, T):
    n = 3 if d == 1 else 2
    phi, dphi = random_fields(2**n, d)
    plan = build_step(get_scheme(name), ModeSystem(n=n, d=d, gamma=0.6), 0.07)
    states = {}
    runs = kept_spy(monkeypatch, states)
    report = assert_matches_full_width(plan, T, encode_initial(phi, dphi))
    assert not np.any(report.state.amp[2 ** (plan.n_qubits - 1):])
    # the encoded input's ancilla-|1> half is zero, and every damp_real
    # precedes a postselection in its step: each keeps its zero column, in
    # one call at full width, and every other circuit runs on the half state
    nq = plan.n_qubits
    assert runs == [(nq, True) if st.kind == "damp_real" else (nq - 1, False)
                    for st in T * plan.stages if st.circuit is not None]
    # kept gates are diagonal, so the whole state never carves scratch
    assert states[nq]._views.work is None


def warm_ancilla_initial(sys_):
    """An encoded state with a small ancilla-|1> part that simulate accepts."""
    phi, dphi = random_fields(2**sys_.n, sys_.d)
    amp = encode_initial(phi, dphi).amp.copy()
    half = amp.size // 2
    amp[half:] = 1e-8 * amp[:half]
    return StateVector(sys_.n_qubits, amp)


def hand_built(stages_of):
    """A plan on n=3 from ``stages_of(wave, damp, sys)``."""
    sys3 = ModeSystem(n=3, gamma=0.6)
    wave = Stage("wave", 0.1, circuits.wave_evolution_circuit(sys3, 0.3))
    damp = Stage("damp_real", 0.05, circuits.damping_real_circuit(0.05, sys3))
    stages = stages_of(wave, damp, sys3)
    return SplitStepPlan(get_scheme("lie"), sys3, 0.1, stages), wave, damp


def test_damping_with_no_postselection_after_it_runs_the_true_gate(monkeypatch):
    # a trailing damp_real is followed within its step by no postselection,
    # so it runs the true CRY, also where the next step's first stage on
    # the ancilla postselects; the stages after it run full width up to
    # the next postselection, and the final ancilla-|1> half is not zero.
    # A damp_real with a postselection after it in its step, from a zero
    # ancilla-|1> half, keeps its zero column
    phi, dphi = random_fields(8)
    nq = 5
    runs = kept_spy(monkeypatch)
    for stages_of, T, expected in (
            (lambda w, d, _: (w, POSTSELECT, w, d), 2,
             [(nq - 1, False), (nq - 1, False), (nq, False),
              (nq, False), (nq - 1, False), (nq, False)]),
            (lambda w, d, _: (w, d, POSTSELECT, w, d), 2,
             [(nq - 1, False), (nq, True), (nq - 1, False), (nq, False),
              (nq, False), (nq, False), (nq - 1, False), (nq, False)]),
            (lambda w, d, _: (d, POSTSELECT, d), 1, [(nq, True), (nq, False)])):
        plan, _, _ = hand_built(stages_of)
        runs.clear()
        report = assert_matches_full_width(plan, T, encode_initial(phi, dphi))
        assert runs == expected
        assert np.any(report.state.amp[2 ** (nq - 1):])


def test_wave_before_any_postselect_runs_full_width():
    plan, wave, damp = hand_built(lambda w, d, _: (w, d, POSTSELECT, w))
    initial = warm_ancilla_initial(plan.sys)
    start = initial.amp.copy()
    assert_matches_full_width(plan, 2, initial)
    # the input tells the paths apart: narrowing the leading wave drops
    # its action on the ancilla-|1> part, which the damping mixes back in
    nq = plan.n_qubits
    wrong = StateVector(nq, start.copy())
    circuits.apply_circuit(StateVector(nq - 1, wrong.amp[: wrong.amp.size // 2]),
                           circuits.Circuit(nq - 1, wave.circuit.ops))
    rest = SplitStepPlan(plan.scheme, plan.sys, plan.dt, (damp, POSTSELECT, wave))
    assert not np.array_equal(full_width_run(rest, 1, wrong)[0].amp,
                              simulate(plan, 1, StateVector(nq, start)).state.amp)


def test_half_state_carries_across_steps(monkeypatch):
    widths = []
    inner = splitting.apply_circuit

    def spy(state, circuit, *gates):
        widths.append(state.n_qubits)
        inner(state, circuit, *gates)
    plan, _, _ = hand_built(lambda w, d, _: (w, d, POSTSELECT, w))
    initial = warm_ancilla_initial(plan.sys)
    monkeypatch.setattr(splitting, "apply_circuit", spy)
    assert_matches_full_width(plan, 2, initial)
    # step 2's leading wave follows step 1's postselection, so it runs narrow
    nq = plan.n_qubits
    assert widths == [nq, nq, nq - 1, nq - 1, nq, nq - 1]


def test_ancilla_controlled_circuit_runs_full_width():
    def stages_of(wave, damp, sys_):
        anc, sel = sys_.ancilla, sys_.selector
        controlled = circuits.Circuit(sys_.n_qubits, (
            circuits.GateOp("CRY", sel, control=anc, angle=0.9),))
        lift = circuits.Circuit(sys_.n_qubits, (
            circuits.GateOp("RY", anc, angle=0.4),
            circuits.GateOp("CRY", sel, control=anc, angle=0.9),
        ))
        return (damp, POSTSELECT, Stage("damp_real", 0.0, controlled), wave,
                Stage("damp_real", 0.0, lift), wave, POSTSELECT, wave)

    plan, _, _ = hand_built(stages_of)
    phi, dphi = random_fields(8)
    assert_matches_full_width(plan, 2, encode_initial(phi, dphi))


def test_simulate_runs_on_aligned_states_of_its_own(monkeypatch):
    seen = []
    inner = splitting.apply_circuit

    def spy(state, circuit, *gates):
        inner(state, circuit, *gates)
        work = state._views.work
        seen.append((state, None if work is None else work.ctypes.data % 64))
    monkeypatch.setattr(splitting, "apply_circuit", spy)
    phi, dphi = random_fields(8)
    plan = build_step(get_scheme("strang"), ModeSystem(n=3, gamma=0.6), 0.1)
    initial = encode_initial(phi, dphi)
    simulate(plan, 2, initial)
    # full-width and half-state circuits ran on two states over the
    # caller's amplitudes; only the half state carves scratch, 2**(n-1)
    # amplitudes from a 64-byte boundary, since the whole state runs
    # only the kept, diagonal damping gates
    nq = plan.n_qubits
    states = {id(state): state for state, _ in seen}.values()
    assert sorted(state.n_qubits for state in states) == [nq - 1, nq]
    assert all(state is not initial and np.shares_memory(state.amp, initial.amp)
               for state in states)
    low, full = sorted(states, key=lambda state: state.n_qubits)
    assert full._views.work is None and low._views.work.size == 2 ** (nq - 1)
    assert {offset for state, offset in seen if state is low} == {0}
    assert not initial._views and initial._views.work is None


def test_simulate_leaves_the_callers_views_as_they_were():
    phi, dphi = random_fields(8)
    plan = build_step(get_scheme("strang"), ModeSystem(n=3, gamma=0.6), 0.1)
    nq, anc = plan.n_qubits, plan.sys.ancilla
    # an ancilla flipped to |1> makes the next postselection degenerate
    flip = Stage("damp_real", 0.0, circuits.Circuit(nq, (
        circuits.GateOp("X", anc),)))
    bad, _, _ = hand_built(lambda w, d, _: (d, POSTSELECT, w, flip, POSTSELECT))
    op = circuits.GateOp("CRY", 2, 0, 0.4)
    cry = circuits.Circuit(nq, (op,))
    for run, outcome in ((plan, nullcontext()),
                         (bad, pytest.raises(DegeneratePostselectionError))):
        state = encode_initial(phi, dphi)
        circuits.apply_circuit(state, cry)  # caches views carved from scratch
        postselect(state, anc, 0)  # caches the ancilla's halves
        views, cached, work = state._views, dict(state._views), state._views.work
        with outcome:
            simulate(run, 1, state)
        assert state._views is views and views == cached and views.work is work
        expected = gateop_matrix(op, nq) @ state.amp
        circuits.apply_circuit(state, cry)
        assert np.max(np.abs(state.amp - expected)) < 1e-14


@pytest.mark.parametrize("p1", [1e-10, 1e-14])
def test_ancilla_must_start_in_zero(p1):
    phi, dphi = random_fields(8)
    plan = build_step(get_scheme("strang"), ModeSystem(n=3, gamma=0.6), 0.1)
    amp = encode_initial(phi, dphi).amp.copy()
    half = amp.size // 2
    amp[:half] *= np.sqrt(1 - p1)
    amp[half] = np.sqrt(p1)  # the ancilla reads 1 with probability p1
    state = StateVector(plan.n_qubits, amp)
    if p1 > 1e-12:
        before = amp.copy()
        with pytest.raises(ValueError, match="^ancilla must start in \\|0>$"):
            simulate(plan, 1, state)
        assert np.array_equal(amp, before)
    else:
        assert 0 < simulate(plan, 1, state).success_prob < 1


# ------------------------------------------------- one gate per distinct angle


def test_plan_builds_one_gate_per_distinct_angle():
    # bernier6's b is palindromic and the three axes' ladders share angles
    def gates_of(plan):
        circs = [st.circuit for st in plan.stages if st.circuit is not None]
        return ([g for c in circs for g in c.gates],
                [g for c in circs if c.lower is not None for g in c.lower.gates])

    plan = build_step(get_scheme("bernier6"), ModeSystem(n=5, d=3, gamma=0.5), 0.7)
    full, lower = gates_of(plan)
    assert len(full) == 392 and len({id(g) for g in full + lower}) == 73
    # the narrow copies and a second plan of the same step get the same objects
    assert {id(g) for g in lower} <= {id(g) for g in full}
    full2, lower2 = gates_of(
        build_step(get_scheme("bernier6"), ModeSystem(n=5, d=3, gamma=0.5), 0.7))
    assert [id(g) for g in full2 + lower2] == [id(g) for g in full + lower]


def test_plans_build_no_gates_until_run(monkeypatch):
    def refuse(*args):
        raise AssertionError("a gate matrix was built")

    for family in ("ry", "p", "x"):
        monkeypatch.setattr(Gate2x2, family, refuse)
    # the builders share circuits across the process, and a run elsewhere
    # may have looked up a shared circuit's gates
    circuits._built.cache_clear()
    for scheme in builtin_schemes():
        for d in (1, 2, 3):
            plan = build_step(scheme, ModeSystem(n=3, d=d, gamma=0.5), 0.1)
            assert all("gates" not in vars(st.circuit)
                       for st in plan.stages if st.circuit is not None)
            harness.gate_report(scheme, 3, d)


FRESH = {"RY": Gate2x2.ry, "CRY": Gate2x2.ry, "P": Gate2x2.p, "CP": Gate2x2.p}


@pytest.mark.parametrize("name,d", [("strang", 1), ("castella4", 2), ("bernier6", 3)])
def test_shared_gates_match_fresh_gates(name, d):
    n = 3 if d == 1 else 2
    phi, dphi = random_fields(2**n, d)
    plan = build_step(get_scheme(name), ModeSystem(n=n, d=d, gamma=0.6), 0.07)
    initial = encode_initial(phi, dphi)
    state, anc, T = StateVector(initial.n_qubits, initial.amp.copy()), plan.sys.ancilla, 2
    success = 1.0
    for _ in range(T):
        for st in plan.stages:
            if st.circuit is None:
                success *= postselect(state, anc, 0)
            for op in st.circuit.ops if st.circuit is not None else ():
                gate = Gate2x2.x() if op.angle is None else FRESH[op.kind](op.angle)
                if op.control is None:
                    apply_1q(state, gate, op.target)
                else:
                    apply_controlled(state, gate, op.control, op.target)
    report = simulate(plan, T, initial)
    assert np.array_equal(report.state.amp, state.amp)
    assert report.success_prob == success


# ----------------------------------------------------- generic dense splitting


def test_generic_split_commuting_case_is_exact():
    d1 = np.diag([-0.5, -1.0, -0.1, 0.0])
    d2 = np.diag([0.3, -0.2, 1.1, 0.7])
    for scheme in builtin_schemes():
        approx = generic_split_matrix(scheme, d1, d2, 0.9, 1)
        exact = dense_expm(d1 + 1j * d2, 0.9)
        assert np.max(np.abs(approx - exact)) < 1e-12


def test_generic_split_pure_hamiltonian_limit():
    h2 = random_hermitian(rng, 8)
    approx = generic_split_matrix(get_scheme("strang"), np.zeros((8, 8)), h2, 1.3, 2)
    exact = scipy.linalg.expm(1.3j * h2)
    assert np.max(np.abs(approx - exact)) < 1e-12


def test_generic_split_step_composition():
    h1 = random_neg_semidefinite(rng, 6)
    h2 = random_hermitian(rng, 6)
    scheme = get_scheme("castella4")
    three = generic_split_matrix(scheme, h1, h2, 0.6, 3)
    single = generic_split_matrix(scheme, h1, h2, 0.2, 1)
    assert np.max(np.abs(three - np.linalg.matrix_power(single, 3))) < 1e-12


def test_generic_split_rejects_non_hermitian():
    bad = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h2 = random_hermitian(rng, 4)
    with pytest.raises(ValueError):
        generic_split_matrix(get_scheme("lie"), bad, h2, 0.1, 1)
    with pytest.raises(ValueError):
        generic_split_matrix(get_scheme("lie"), np.zeros((4, 4)), bad, 0.1, 1)


def test_generic_split_first_order_error_shrinks():
    h1 = random_neg_semidefinite(rng, 6)
    h2 = random_hermitian(rng, 6)
    exact = dense_expm(h1 + 1j * h2, 1.0)
    errs = [np.linalg.norm(generic_split_matrix(get_scheme("lie"), h1, h2, 1.0, T) - exact, 2)
            for T in (8, 16, 32)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[2] == pytest.approx(4.0, rel=0.2)
