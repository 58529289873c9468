"""Independent oracles used across the test modules.

Everything here is written against the documented conventions only
(little-endian qubit order, dissipative-first stage pattern) and avoids
the library's own embedding and stepping code paths, so agreement is
meaningful.
"""
from __future__ import annotations

import numpy as np


def _gate_2x2(kind: str, angle) -> np.ndarray:
    if kind in ("RY", "CRY"):
        c, s = np.cos(angle / 2), np.sin(angle / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind in ("P", "CP"):
        return np.diag([1.0, np.exp(1j * angle)]).astype(complex)
    if kind in ("X", "CNOT"):
        return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    raise ValueError(kind)


def gateop_matrix(op, n_qubits: int) -> np.ndarray:
    """Full 2^n matrix for one GateOp; see ``embed_2x2``.

    Gate matrices are restated here from the standard definitions.
    """
    return embed_2x2(_gate_2x2(op.kind, op.angle), n_qubits, op.target, op.control)


def embed_2x2(gate, n_qubits: int, target: int, control=None) -> np.ndarray:
    """Full 2^n matrix of a 2x2 ``gate`` on ``target``, active where
    ``control`` is 1, built by enumerating basis states.

    Deliberately a different algorithm from the library's strided
    kernel: walk every input basis index, flip or weight the target bit
    by hand, and scatter the 2x2 entries.
    """
    size = 2 ** n_qubits
    mat = np.zeros((size, size), dtype=complex)
    for col in range(size):
        if control is not None and not (col >> control) & 1:
            mat[col, col] = 1.0
            continue
        tbit = (col >> target) & 1
        for row_bit in (0, 1):
            row = col & ~(1 << target) | (row_bit << target)
            mat[row, col] += gate[row_bit, tbit]
    return mat


def circuit_matrix(circuit, n_qubits: int) -> np.ndarray:
    mat = np.eye(2 ** n_qubits, dtype=complex)
    for op in circuit.ops:
        mat = gateop_matrix(op, n_qubits) @ mat
    return mat


def mode_axis_indices(index: int, n_modes: int, d: int) -> tuple[int, ...]:
    """Per-axis mode numbers for a flattened index, axis 0 fastest."""
    out = []
    for _ in range(d):
        out.append(index % n_modes)
        index //= n_modes
    return tuple(out)


def split_step_matrices(scheme, sys, dt: float):
    """Per-mode 2x2 matrices of one full splitting step, keyed by flat mode.

    Mirrors the documented stage pattern without touching circuits: for
    each scheme stage i, damp the velocity component by e^{-gamma a_i dt},
    then rotate each axis by its own frequency times b_i dt.  A trailing
    dissipative stage closes the step when len(a) = len(b) + 1.
    """
    n_total = sys.n_modes ** sys.d
    mats = [np.eye(2, dtype=complex) for _ in range(n_total)]

    def damp(a):
        g = np.array([[1.0, 0.0], [0.0, np.exp(-sys.gamma * a * dt)]], dtype=complex)
        for m in range(n_total):
            mats[m] = g @ mats[m]

    omegas = sys.omegas()

    def wave(b):
        for m in range(n_total):
            for j in mode_axis_indices(m, sys.n_modes, sys.d):
                th = omegas[j] * b * dt
                r = np.array([[np.cos(th), np.sin(th)],
                              [-np.sin(th), np.cos(th)]], dtype=complex)
                mats[m] = r @ mats[m]

    for i, b in enumerate(scheme.b):
        damp(scheme.a[i])
        wave(b)
    if len(scheme.a) == len(scheme.b) + 1:
        damp(scheme.a[-1])
    return mats


def split_evolve_pairs(scheme, sys, dt: float, steps: int, pairs) -> np.ndarray:
    """Unnormalized split evolution of a unit-normalized mode-pair vector."""
    vec = pairs.concat()
    vec = vec / np.linalg.norm(vec)
    n_total = sys.n_modes ** sys.d
    step = split_step_matrices(scheme, sys, dt)
    u, v = vec[:n_total].copy(), vec[n_total:].copy()
    for _ in range(steps):
        for m in range(n_total):
            u[m], v[m] = step[m] @ np.array([u[m], v[m]])
    return np.concatenate([u, v])


def random_neg_semidefinite(rng, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = -(a @ a.conj().T)
    return h / np.linalg.norm(h, 2)


def random_hermitian(rng, dim: int) -> np.ndarray:
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (b + b.conj().T) / 2
    return h / np.linalg.norm(h, 2)


def views_by_buffer(state) -> tuple[list, list]:
    """Every view cached on ``state``, split into those that alias
    ``state.amp`` and those that alias its one scratch buffer; a view that
    aliases both or neither fails."""
    on_amp, on_work = [], []
    for entry in state._views.values():
        for v in entry:
            amp = np.shares_memory(v, state.amp)
            work = state._views.work is not None and np.shares_memory(v, state._views.work)
            assert amp != work, v.shape
            (on_amp if amp else on_work).append(v)
    return on_amp, on_work


def expected_views(n_qubits: int, key: tuple) -> tuple[int, int, int]:
    """(views aliasing the amplitudes, views aliasing the scratch, run
    views) of the cached wiring ``key`` = (target, [control,] kind), as the
    kernel lays them out.  A diagonal gate takes the pair's two halves.  A
    swap takes the pair's first half, a scratch copy of one half, and
    those three halves as runs.  A rotation or general gate whose pair
    halves are each one block (its qubits are the top one or two) takes
    the pair, its halves, and the scratch uv and its halves; any other
    takes the scratch ab, its halves, uv, its halves, and the pair and ab
    as runs."""
    *wiring, kind = key
    if kind == "diag":
        return 2, 0, 0
    if kind == "swap":
        return 3, 2, 3
    if sorted(wiring) == list(range(n_qubits - len(wiring), n_qubits)):
        return 3, 3, 0
    return 1, 7, 2
