from __future__ import annotations

import dataclasses

import mpmath
import numpy as np
import pytest

from wavesplit.harness import fit_order
from wavesplit.schemes import (
    BERNIER6,
    CASTELLA4,
    LIE,
    STRANG,
    builtin_schemes,
    get_scheme,
    validate_scheme,
    yoshida4,
)

from helpers import random_hermitian


def test_builtin_roster():
    names = [s.name for s in builtin_schemes()]
    assert names == ["lie", "strang", "castella4", "bernier6"]
    orders = [s.order for s in builtin_schemes()]
    assert orders == [1, 2, 4, 6]


def test_stage_counts():
    assert (len(LIE.a), len(LIE.b)) == (1, 1)
    assert (len(STRANG.a), len(STRANG.b)) == (2, 1)
    assert (len(CASTELLA4.a), len(CASTELLA4.b)) == (5, 4)
    assert (len(BERNIER6.a), len(BERNIER6.b)) == (16, 15)


def test_first_and_second_order_coefficients():
    assert LIE.a == (1.0,) and LIE.b == (1.0,)
    assert STRANG.a == (0.5, 0.5) and STRANG.b == (1.0,)


def test_fourth_order_coefficients_exact():
    expected_a = (
        1 / 10 - 1j / 30,
        4 / 15 + 2j / 15,
        4 / 15 - 1j / 5,
        4 / 15 + 2j / 15,
        1 / 10 - 1j / 30,
    )
    assert CASTELLA4.a == expected_a
    assert CASTELLA4.b == (0.25, 0.25, 0.25, 0.25)


def test_sixth_order_spot_values():
    # first half of the literal block; the rest is generated by symmetry
    assert BERNIER6.a[0] == 0.03 - 0.0028985018717006387j
    assert BERNIER6.a[3] == 0.051044248093469226 + 0.07580262639617709j
    assert BERNIER6.a[7] == 0.08580441972624608 + 0.011182129837497105j
    assert BERNIER6.b[0] == 0.08092666015955027
    assert BERNIER6.b[7] == 0.08721201869361150


def test_sixth_order_symmetric_conjugate_structure():
    a, b = BERNIER6.a, BERNIER6.b
    for i in range(len(a)):
        assert a[i] == np.conj(a[len(a) - 1 - i])
    for i in range(len(b)):
        assert b[i] == b[len(b) - 1 - i]


def test_coefficient_sums():
    # the literals sum to 1 within 1.2e-16; a corrupted late digit shows here
    for scheme in builtin_schemes():
        assert abs(sum(scheme.a) - 1.0) < 1e-15
        assert abs(sum(scheme.b) - 1.0) < 1e-15


def test_dissipative_real_parts_positive():
    for scheme in builtin_schemes():
        assert min(c.real if isinstance(c, complex) else c for c in scheme.a) > 0
        assert min(scheme.b) > 0


def test_validation_reports_pass():
    expected_symmetry = {
        "lie": "none",
        "strang": "palindromic",
        "castella4": "palindromic",
        "bernier6": "symmetric-conjugate",
    }
    for scheme in builtin_schemes():
        report = validate_scheme(scheme)
        assert report.passed, report.violations
        assert report.symmetry == expected_symmetry[scheme.name]
        assert report.summary().endswith("PASS")
        assert report.name in report.summary()


def test_validation_catches_bad_sum():
    bad = dataclasses.replace(BERNIER6, a=BERNIER6.a[:-1] + (0.5 + 0j,))
    report = validate_scheme(bad)
    assert not report.passed
    assert report.violations
    assert "FAIL" in report.summary()


def test_validation_catches_negative_real_part():
    bad = dataclasses.replace(STRANG, a=(1.5, -0.5))
    report = validate_scheme(bad)
    assert not report.passed
    # the named negative-step scheme is flagged, and is no builtin
    y = yoshida4()
    assert f"min Re(a) = {y.a[1].real} is not positive" in validate_scheme(y).violations
    assert y not in builtin_schemes()
    with pytest.raises(KeyError):
        get_scheme(y.name)


def test_scheme_tables_meet_their_order_conditions():
    # one step's local error ||S(dt) - exp((H1 + i H2) dt)|| falls as
    # dt**(order + 1) only if the coefficients meet every order condition,
    # so a wrong late digit in a table lowers the slope.  The double
    # literals meet them to about 1e-17, which leaves a floor near 5e-18:
    # these dt keep bernier6's error (1e-10 .. 8e-15) well above it, where
    # smaller ones bent its slope to 2-6.
    gen = np.random.default_rng(5)
    dts = (0.32, 0.16, 0.08)
    slopes = []
    with mpmath.workdps(20):
        h1, h2 = (mpmath.matrix(random_hermitian(gen, 3).tolist()) for _ in range(2))
        for scheme in builtin_schemes():
            errs = []
            for dt in dts:
                # stage order as in build_step: dissipative first
                step = mpmath.eye(3)
                for i, bi in enumerate(scheme.b):
                    step = mpmath.expm(h1 * (mpmath.mpc(scheme.a[i]) * dt)) * step
                    step = mpmath.expm(h2 * (1j * bi * dt)) * step
                if len(scheme.a) > len(scheme.b):
                    step = mpmath.expm(h1 * (mpmath.mpc(scheme.a[-1]) * dt)) * step
                exact = mpmath.expm((h1 + 1j * h2) * dt)
                errs.append(float(mpmath.mnorm(step - exact, 1)))
            slopes.append(fit_order(dts, errs))
    assert slopes == pytest.approx([s.order + 1 for s in builtin_schemes()], abs=0.5)


def test_get_scheme_unknown_name():
    with pytest.raises(KeyError) as err:
        get_scheme("yoshida")
    assert "bernier6" in str(err.value)


def test_schemes_are_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        BERNIER6.order = 2
