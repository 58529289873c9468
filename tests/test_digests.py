"""Byte digests of the program's outputs, pinned.

Each digest is a sha256 over bytes the program writes: the reference
``simulate`` CSV, the four default ``sweep`` CSVs, the stdout of
``selftest``, ``validate-schemes`` and two ``gates`` budgets, and the
final amplitudes, success probability and epsilon of 64 ``run_case``
runs.  A change that moves any of these bits, a signed zero included,
fails here.  The bits depend on numpy's loop and summation order, so the
digests hold for the numpy version CI pins (2.4.6); a different numpy
may move the last bits of a sum and fail this test with working code.
"""
from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from wavesplit.circuits import ModeSystem
from wavesplit.cli import run
from wavesplit.harness import run_case
from wavesplit.schemes import builtin_schemes

CSV_DIGESTS = {
    ("simulate", "bernier6"):
        "64beb80ff2c49dbfa6b5aa95495e8a2822991238531f00f8897461eda47c03de",
    ("sweep", "lie"):
        "0d3ed4ec3038a87376207d50d4c14574b6641d697e30ff904c21a69f5e659acc",
    ("sweep", "strang"):
        "3d87499c3751f1b94fdc937dc3b97f63da7d4f94f796ac365f956d5c5d2532f4",
    ("sweep", "castella4"):
        "6f0c7f72dc85a2da585186696a5b13fc9b884851ce3554985ff56aea419f0e3a",
    ("sweep", "bernier6"):
        "9f683ef8aea1cc8c8bf8d807f1efef7234b393cfac84cdf871c5686b2557b9a8",
}

STDOUT_DIGESTS = {
    ("selftest",):
        "f49cb49e9fe7286a1c9d31e8e1005773a243d287b54c5babe70504952e5db310",
    ("validate-schemes",):
        "197dea2bd328548f77e8766e34136123a68e3d1b84acf5db4cc61ef0461fe3cb",
    ("gates", "--scheme", "bernier6", "--n", "7"):
        "90f12106a2f9c363a37d8aeb6130bf88d849d2ca2926e6aca24055c61aa82509",
    ("gates", "--scheme", "bernier6", "--n", "15", "--d", "3"):
        "ecac07e4caee4abfa45e3e57e6e84a373228ab3bf56e8cadecf439f2cc211923",
}

RUN_CASE_DIGEST = "56155b3546b1d01b518aa5bf3e538b493b9be41e95296e3e762de2785fd2cc10"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command, scheme", list(CSV_DIGESTS))
def test_csv_bytes_are_pinned(command, scheme, tmp_path, capsys):
    path = tmp_path / "out.csv"
    assert run([command, "--scheme", scheme, "--output", str(path)]) == 0
    capsys.readouterr()
    assert _sha(path.read_bytes()) == CSV_DIGESTS[command, scheme]


@pytest.mark.parametrize("argv", list(STDOUT_DIGESTS))
def test_stdout_is_pinned(argv, capsys):
    assert run(list(argv)) == 0
    assert _sha(capsys.readouterr().out.encode()) == STDOUT_DIGESTS[argv]


def run_case_digest() -> str:
    """One sha256 over 64 runs: every builtin scheme, four (n, d), one
    and three steps, no damping and a strong one."""
    h = hashlib.sha256()
    for scheme, (n, d), T, gamma in itertools.product(
            builtin_schemes(), ((1, 1), (4, 1), (2, 2), (1, 3)), (1, 3), (0.0, 2.0)):
        rep = run_case(scheme, ModeSystem(n=n, d=d, gamma=gamma), 0.43, T)
        h.update(np.ascontiguousarray(rep.state.amp).tobytes())
        h.update(rep.success_prob.hex().encode())
        h.update(rep.epsilon.hex().encode())
    return h.hexdigest()


def test_run_case_bits_are_pinned():
    assert run_case_digest() == RUN_CASE_DIGEST
