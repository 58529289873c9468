from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from wavesplit.circuits import ModeSystem
from wavesplit.reference import (
    ModePairs,
    _propagator_entries,
    decode_state,
    dense_expm,
    encode_initial,
    exact_solution,
    hermitian_split,
    mode_propagator,
    spectral_pairs,
)
from wavesplit.schemes import get_scheme
from wavesplit.splitting import generic_split_matrix

rng = np.random.default_rng(23)


def generator(omega: float, gamma: float) -> np.ndarray:
    return np.array([[0.0, omega], [-omega, -gamma]])


# ------------------------------------------------------------ mode propagator


@pytest.mark.parametrize("omega,gamma", [
    (6.0, 1.0),     # underdamped
    (0.3, 2.0),     # overdamped
    (1.0, 2.0),     # critically damped, omega = gamma/2 exactly
    (0.0, 1.5),     # zero mode, pure velocity decay
    (4.0, 0.0),     # undamped rotation
])
def test_mode_propagator_matches_expm(omega, gamma):
    for t in (0.0, 0.17, 1.3):
        mine = mode_propagator(omega, gamma, t)
        ref = scipy.linalg.expm(generator(omega, gamma) * t)
        assert np.max(np.abs(mine - ref)) < 1e-13


@pytest.mark.parametrize("omega,gamma,t", [
    (6.28, 2100.0, 0.7),   # exp(-gamma t/2) underflows, cosh(dec t) overflows
    (0.0, 2100.0, 0.7),    # zero mode
    (300.0, 2100.0, 0.7),  # the slow branch itself decays to ~1e-14
    (6.28, 5000.0, 3.0),
])
def test_mode_propagator_finite_when_heavily_overdamped(omega, gamma, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mine = mode_propagator(omega, gamma, t)
    ref = scipy.linalg.expm(generator(omega, gamma) * t)
    assert np.all(np.isfinite(mine))
    assert np.max(np.abs(mine - ref)) < 1e-12


@pytest.mark.parametrize("gamma", [1e155, 1e300, 1.7e308])
def test_mode_propagator_when_gamma_squared_overflows(gamma):
    # the slow mode keeps its amplitude, the fast one is gone: about diag(1, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mine = mode_propagator(6.28, gamma, 0.7)
    assert np.max(np.abs(mine - np.diag([1.0, 0.0]))) < 1e-12


def test_mode_propagator_continuity_at_critical_branch():
    gamma = 2.0
    t = 0.9
    at = mode_propagator(1.0, gamma, t)
    for eps in (1e-9, -1e-9):
        near = mode_propagator(1.0 + eps, gamma, t)
        assert np.max(np.abs(near - at)) < 1e-7


def test_mode_propagator_rejects_negative_rates():
    with pytest.raises(ValueError):
        mode_propagator(1.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        mode_propagator(-1.0, 0.1, 1.0)


def test_mode_propagator_backward_time_inverts():
    p_fwd = mode_propagator(3.0, 1.2, 0.4)
    p_bwd = mode_propagator(3.0, 1.2, -0.4)
    assert np.max(np.abs(p_fwd @ p_bwd - np.eye(2))) < 1e-13


def test_backward_time_overflow_raises_without_warnings():
    # backward in time the modes grow by exp(gamma |t| / 2); where that
    # overflows the propagator is not finite, and it says so
    pairs = spectral_pairs(rng.standard_normal(8), np.zeros(8))
    calls = (lambda: mode_propagator(1.0, 1e300, -0.7),
             lambda: mode_propagator(1.0, 2000, -0.7),
             lambda: exact_solution(ModeSystem(n=3, gamma=1e3), pairs, -5.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match=r"^the propagator over t = -\S+ overflows"):
                call()
        assert np.all(np.isfinite(mode_propagator(1.0, 900, -0.7)))


def test_undamped_propagator_is_rotation():
    p = mode_propagator(2.0, 0.0, 0.25)
    th = 0.5
    expected = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
    assert np.max(np.abs(p - expected)) < 1e-15


# ---------------------------------------------------------------- dense expm


def test_dense_expm_against_scipy():
    for dim in (2, 5, 8):
        for _ in range(5):
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            ref = scipy.linalg.expm(m)
            err = np.max(np.abs(dense_expm(m) - ref)) / np.max(np.abs(ref))
            assert err < 1e-12


def test_dense_expm_time_argument():
    m = rng.standard_normal((4, 4))
    assert np.max(np.abs(dense_expm(m, 0.3) - scipy.linalg.expm(0.3 * m))) < 1e-12


def test_dense_expm_nilpotent():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(dense_expm(m), np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("call", [
    pytest.param(lambda: dense_expm([[1e200, 0], [0, 1]], 1e200), id="product"),
    pytest.param(lambda: dense_expm([[800, 0], [0, 1]]), id="squarings-800"),
    pytest.param(lambda: dense_expm([[0, 1e308], [0, 0]]), id="scale"),
    pytest.param(lambda: generic_split_matrix(get_scheme("strang"), 2000 * np.eye(2),
                                              np.eye(2), 1.0, 1), id="split"),
])
def test_dense_expm_names_an_overflow_of_finite_input(call):
    # a clean ValueError, not a RuntimeWarning from numpy's multiply or
    # matmul; exp(709) is still finite and keeps its value
    with pytest.raises(ValueError, match=r"^exp\(M t\) overflows$"):
        call()
    assert dense_expm([[709, 0], [0, 1]])[0, 0].real == pytest.approx(math.exp(709), rel=1e-12)


@pytest.mark.parametrize("call,squarings", [
    # each of these came back wrong, or as a false overflow, with no cap
    pytest.param(lambda: dense_expm([[-1e20, 0], [0, -1]]), 69, id="decay-1e20"),
    pytest.param(lambda: dense_expm([[0, 1e20], [-1e20, 0]]), 69, id="rotation-1e20"),
    pytest.param(lambda: dense_expm([[0, 1e10], [-1e10, 0]]), 36, id="rotation-1e10"),
    pytest.param(lambda: dense_expm([[0, 1e300], [-1e300, 0]]), 999, id="rotation-1e300"),
    pytest.param(lambda: dense_expm([[1e300, 0], [0, 1]]), 999, id="squarings-1e300"),
    pytest.param(lambda: generic_split_matrix(get_scheme("strang"), 1e200 * np.eye(2),
                                              np.eye(2), 1.0, 1), 666, id="split"),
])
def test_dense_expm_refuses_past_twenty_squarings(call, squarings):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == (f"exp(M t) needs {squarings} squarings, "
                              "past the 20 that keep it accurate")


def test_dense_expm_keeps_its_accuracy_up_to_twenty_squarings():
    # |M t|_1 = 2**18 takes exactly 20 squarings
    w = 2.0**18
    got = dense_expm([[0, w], [-w, 0]])
    want = np.array([[math.cos(w), math.sin(w)], [-math.sin(w), math.cos(w)]])
    assert np.max(np.abs(got - want)) < 1e-9
    assert dense_expm([[-w, 0], [0, -1]])[1, 1].real == pytest.approx(math.exp(-1), rel=1e-9)


def test_dense_expm_dimension_cap():
    with pytest.raises(ValueError):
        dense_expm(np.eye(65))


# ------------------------------------------------------------ decompositions


def test_hermitian_split_reconstructs():
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h1, h2 = hermitian_split(m)
    assert np.max(np.abs(h1 - h1.conj().T)) < 1e-14
    assert np.max(np.abs(h2 - h2.conj().T)) < 1e-14
    assert np.max(np.abs(h1 + 1j * h2 - m)) < 1e-14


# ------------------------------------------------------------- spectral maps


def test_spectral_pairs_single_cosine():
    n_pts = 8
    k = np.arange(n_pts)
    phi = np.cos(2 * np.pi * k / n_pts)
    pairs = spectral_pairs(phi, np.zeros(n_pts))
    expected = np.zeros(n_pts, dtype=complex)
    expected[1] = np.sqrt(n_pts) / 2
    expected[n_pts - 1] = np.sqrt(n_pts) / 2
    assert np.max(np.abs(pairs.u - expected)) < 1e-13
    assert np.max(np.abs(pairs.v)) == 0.0


def test_spectral_pairs_norm_preserved():
    phi = rng.standard_normal(16)
    dphi = rng.standard_normal(16)
    dphi -= dphi.mean()  # no zero-frequency velocity
    pairs = spectral_pairs(phi, dphi)
    assert pairs.concat().shape == (32,)
    assert np.linalg.norm(pairs.concat()) == pytest.approx(
        np.linalg.norm(np.concatenate([phi, dphi])), rel=1e-13)


def test_spectral_pairs_rejects_dc_velocity():
    with pytest.raises(ValueError):
        spectral_pairs(np.ones(8), np.ones(8))


def test_spectral_pairs_rejects_bad_shapes():
    with pytest.raises(ValueError):
        spectral_pairs(np.ones(6), np.zeros(6))
    with pytest.raises(ValueError):
        spectral_pairs(np.ones(8), np.zeros(4))


def test_spectral_pairs_multidim():
    phi = rng.standard_normal((4, 4))
    pairs = spectral_pairs(phi, np.zeros((4, 4)))
    assert pairs.n_modes == 16
    # axis 0 is the fastest index in the flattening
    spectrum = np.fft.ifftn(phi) * 4.0
    assert pairs.u[1] == pytest.approx(spectrum[1, 0], abs=1e-13)
    assert pairs.u[4] == pytest.approx(spectrum[0, 1], abs=1e-13)


def test_zero_velocity_skips_its_transform(monkeypatch):
    ifftn = np.fft.ifftn
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(None)
        return ifftn(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifftn", counting)
    for shape in [(8,), (4, 4), (4, 2, 8)]:
        phi = rng.standard_normal(shape)
        zero = np.zeros(shape)
        calls.clear()
        pairs = spectral_pairs(phi, zero)
        assert len(calls) == 1
        root = math.sqrt(phi.size)
        assert np.array_equal(pairs.u, (ifftn(phi) * root).ravel(order="F"))
        transformed = (ifftn(zero.astype(complex)) * root).ravel(order="F")
        assert pairs.v.dtype == transformed.dtype and np.array_equal(pairs.v, transformed)
    # a nonzero finite velocity is transformed
    dphi = np.zeros(8)
    dphi[3], dphi[5] = 1e-300, -1e-300
    calls.clear()
    spectral_pairs(np.ones(8), dphi)
    assert len(calls) == 2
    # a nan or inf in either field raises before any transform
    for value in (math.nan, math.inf, -math.inf):
        bad = np.zeros(8)
        bad[3] = value
        for fields in ((np.ones(8), bad), (bad, np.zeros(8))):
            calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="initial fields must be finite"):
                    spectral_pairs(*fields)
            assert calls == []
    with pytest.raises(ValueError, match="zero-frequency mode carries velocity"):
        spectral_pairs(np.ones(8), np.ones(8))


# ------------------------------------------------------------ encode / decode


def test_encode_initial_layout():
    phi = rng.standard_normal(16)
    state = encode_initial(phi, np.zeros(16))
    assert state.n_qubits == 4 + 2
    flat = state.amp.reshape(-1)
    assert np.max(np.abs(flat[32:])) == 0.0  # ancilla |0>
    assert np.linalg.norm(flat) == pytest.approx(1.0, abs=1e-14)
    assert state.amp.ctypes.data % 64 == 0  # a 64-byte boundary, as the scratch


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_encode_initial_rejects_non_finite_fields(bad):
    phi = rng.standard_normal(16)
    phi[3] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
        encode_initial(phi, np.zeros(16))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
        encode_initial(np.ones(16), np.full(16, bad))


def test_encode_decode_round_trip():
    phi = rng.standard_normal(16)
    dphi = rng.standard_normal(16)
    dphi -= dphi.mean()
    state = encode_initial(phi, dphi)
    back_phi, back_dphi = decode_state(state)
    scale = np.linalg.norm(np.concatenate([phi, dphi]))
    assert np.max(np.abs(back_phi * scale - phi)) < 1e-12
    assert np.max(np.abs(back_dphi * scale - dphi)) < 1e-12


def test_decode_restores_shape():
    phi = rng.standard_normal((4, 4))
    state = encode_initial(phi, np.zeros((4, 4)))
    back_phi, _ = decode_state(state, shape=(4, 4))
    assert back_phi.shape == (4, 4)


# ------------------------------------------------------------- exact solution


def test_exact_solution_identity_at_t0():
    sys4 = ModeSystem(n=4, gamma=0.8)
    u = rng.standard_normal(16) + 0j
    v = rng.standard_normal(16) + 0j
    v[0] = 0.0
    pairs = ModePairs(u, v)
    full, unit = exact_solution(sys4, pairs, 0.0)
    start = pairs.concat()
    assert np.max(np.abs(full - start)) < 1e-14
    assert np.max(np.abs(unit - start / np.linalg.norm(start))) < 1e-14


def test_exact_solution_energy_conserved_without_damping():
    sys4 = ModeSystem(n=4, gamma=0.0)
    u = rng.standard_normal(16) + 0j
    pairs = ModePairs(u, np.zeros(16, dtype=complex))
    scale = np.linalg.norm(pairs.concat())
    for t in (0.3, 1.7):
        full, unit = exact_solution(sys4, pairs, t)
        assert np.linalg.norm(full) == pytest.approx(scale, rel=1e-13)
        assert np.linalg.norm(unit) == pytest.approx(1.0, abs=1e-13)


def test_exact_solution_matches_per_mode_propagator():
    sys3 = ModeSystem(n=3, gamma=0.6)
    u = rng.standard_normal(8) + 0j
    v = rng.standard_normal(8) + 0j
    v[0] = 0.0
    pairs = ModePairs(u, v)
    t = 0.42
    full, _ = exact_solution(sys3, pairs, t)
    start = pairs.concat()
    for j in range(8):
        prop = mode_propagator(sys3.omegas()[j], sys3.gamma, t)
        out = prop @ np.array([start[j], start[j + 8]])
        assert abs(full[j] - out[0]) < 1e-13
        assert abs(full[j + 8] - out[1]) < 1e-13


def per_mode_frequencies(sys: ModeSystem) -> np.ndarray:
    """Every mode's frequency as the axis sum over all N**d modes, axes
    added in order 0, 1, 2."""
    om, N = sys.omegas(), sys.n_modes
    total = np.zeros((N,) * sys.d)
    for k in range(sys.d):
        shape = [1] * sys.d
        shape[k] = N
        total = total + om.reshape(shape)
    return total.ravel(order="F")


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_exact_solution_is_the_per_mode_propagator_bit_for_bit(n, d):
    # the propagator is evaluated once per distinct wrapped frequency and
    # gathered; every mode must keep the bits of a per-mode evaluation
    base = ModeSystem(n=n, d=d)
    freqs = base.mode_frequencies()
    assert freqs.tobytes() == per_mode_frequencies(base).tobytes()
    size = freqs.size
    pairs = ModePairs(rng.standard_normal(size) + 1j * rng.standard_normal(size),
                      rng.standard_normal(size) + 1j * rng.standard_normal(size))
    critical = 2 * base.omegas()[1]  # mode 1 sits exactly on the critical branch
    for gamma in (0.0, 0.5, 3.0, 100.0, 1e200, critical):
        sys_ = ModeSystem(n=n, d=d, gamma=gamma)
        m00, m01, m10, m11 = _propagator_entries(freqs, gamma, 0.7)
        expected = np.concatenate([m00 * pairs.u + m01 * pairs.v,
                                   m10 * pairs.u + m11 * pairs.v])
        full, unit = exact_solution(sys_, pairs, 0.7)
        assert full.tobytes() == expected.tobytes()
        assert unit.tobytes() == (expected / float(np.linalg.norm(expected))).tobytes()


def test_exact_solution_size_mismatch_message():
    pairs = ModePairs(np.ones(8, dtype=complex), np.zeros(8, dtype=complex))
    with pytest.raises(ValueError, match=r"^system has 16 modes, pairs carry 8$"):
        exact_solution(ModeSystem(n=2, d=2), pairs, 0.3)


# ---------------------------------------------------------- non-finite input

_PAIRS = ModePairs(np.ones(8, dtype=complex), np.zeros(8, dtype=complex))
_X = [[0, 1], [1, 0]]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call,message", [
    pytest.param(lambda x: mode_propagator(x, 0.2, 1.0), "omega, gamma and t", id="omega"),
    pytest.param(lambda x: mode_propagator(1.0, x, 1.0), "omega, gamma and t", id="gamma"),
    pytest.param(lambda x: mode_propagator(1.0, 0.2, x), "omega, gamma and t", id="t"),
    pytest.param(lambda x: exact_solution(ModeSystem(n=3, gamma=0.4), _PAIRS, x), "t",
                 id="exact-t"),
    pytest.param(lambda x: dense_expm([[x, 0], [0, 1]]), "matrix and t", id="expm-m"),
    pytest.param(lambda x: dense_expm(_X, x), "matrix and t", id="expm-t"),
    pytest.param(lambda x: generic_split_matrix(get_scheme("strang"), [[x, 0], [0, 1]], _X,
                                                1.0, 2), "H1, H2 and t", id="split-h1"),
    pytest.param(lambda x: generic_split_matrix(get_scheme("strang"), _X, [[1, x], [x, 1]],
                                                1.0, 2), "H1, H2 and t", id="split-h2"),
    pytest.param(lambda x: generic_split_matrix(get_scheme("strang"), _X, _X, x, 2),
                 "H1, H2 and t", id="split-t"),
])
def test_reference_rejects_non_finite_input(call, message, bad):
    # a clean ValueError, before numpy computes anything that could warn
    with pytest.raises(ValueError, match=f"^{message} must be finite$"):
        call(bad)
