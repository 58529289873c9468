from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from wavesplit.schemes import (
    BERNIER6,
    CASTELLA4,
    LIE,
    STRANG,
    builtin_schemes,
    get_scheme,
    validate_scheme,
)


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


def test_get_scheme_unknown_name():
    with pytest.raises(KeyError) as err:
        get_scheme("yoshida")
    assert "bernier6" in str(err.value)


def test_schemes_are_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        BERNIER6.order = 2
