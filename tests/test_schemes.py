from __future__ import annotations

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from wavesplit.circuits import ModeSystem
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
from wavesplit.splitting import build_step

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
    # so a wrong late digit in a table lowers the slope.  bernier6's double
    # literals miss the conditions by up to 1.2e-14 (see the word test
    # below; Sum b_i Im(a_0 + ... + a_i) is 1.224e-14 in exact arithmetic
    # on the doubles) and their sums by 1.2e-16.  On these matrices that
    # leaves a floor: its error reads 5.9e-18, 2.7e-18 and 1.2e-18 at
    # dt = 0.02, 0.01 and 0.005, at 20 digits and at 40 alike.  These dt
    # keep its error (1.3e-10 .. 7.8e-15) well above that floor.
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


def word_residuals(scheme, length: int) -> list[float]:
    """Per word length k = 1..length, the largest distance from 1/k! of a
    word's coefficient in one step's product of exp(a_i A) and exp(b_i B),
    A and B two non-commuting letters, expanded in complex floats.  The
    exact flow exp(A + B) gives every word of length k the coefficient
    1/k!, so a scheme has order p exactly when lengths 1..p match."""
    factors = []
    for i, bi in enumerate(scheme.b):
        factors += [("A", complex(scheme.a[i])), ("B", complex(bi))]
    if len(scheme.a) > len(scheme.b):
        factors.append(("A", complex(scheme.a[-1])))
    coef = {"": 1 + 0j}
    for letter, c in factors:  # the later factor multiplies from the left
        new = {}
        for word, v in coef.items():
            term = v
            for j in range(length - len(word) + 1):
                key = letter * j + word
                new[key] = new.get(key, 0j) + term
                term *= c / (j + 1)
        coef = new
    worst = [0.0] * length
    for word, v in coef.items():
        if word:
            k = len(word)
            worst[k - 1] = max(worst[k - 1], abs(v - 1 / math.factorial(k)))
    return worst


@pytest.mark.parametrize("scheme", builtin_schemes() + [yoshida4()], ids=lambda s: s.name)
def test_tables_meet_their_order_conditions_word_by_word(scheme):
    # bernier6's literals miss by up to 1.2e-14 through length 6 and by
    # 9.8e-7 at 7; castella4 by 1.1e-16 through 4 and 1.2e-3 at 5
    res = word_residuals(scheme, scheme.order + 1)
    assert max(res[: scheme.order]) <= 1e-13, res
    assert res[scheme.order] >= 1e-8, res


def test_word_check_catches_a_perturbed_coefficient():
    a = list(BERNIER6.a)
    a[3] += 1e-12
    res = word_residuals(dataclasses.replace(BERNIER6, a=tuple(a)), 7)
    assert res[0] > 1e-13  # fails at length 1, the sum of a


def test_get_scheme_unknown_name():
    with pytest.raises(KeyError) as err:
        get_scheme("yoshida")
    assert "bernier6" in str(err.value)


def test_schemes_are_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        BERNIER6.order = 2


def test_a_rejected_scheme_is_rejected_on_every_build():
    # the checks are cached per scheme object, and a failed check caches
    # nothing; a copy keeps BERNIER6's name, so nothing may key on it
    a = list(BERNIER6.a)
    a[5] = -0.25 + 0.1j
    bad, sys_ = dataclasses.replace(BERNIER6, a=tuple(a)), ModeSystem(n=3, gamma=0.5)
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            build_step(bad, sys_, 0.1)
        messages.append(str(err.value))
    assert messages == ["dissipative coefficient a[5] = (-0.25+0.1j) has a negative real part"] * 2
    short = dataclasses.replace(BERNIER6, a=BERNIER6.a[:-2])
    for _ in range(2):
        with pytest.raises(ValueError, match="^scheme 'bernier6' has unsupported stage counts$"):
            build_step(short, sys_, 0.1)
    # the original still builds, and an equal copy builds an equal plan
    plan = build_step(BERNIER6, sys_, 0.1)
    twin = dataclasses.replace(BERNIER6)
    assert twin == BERNIER6 and twin is not BERNIER6
    again = build_step(twin, sys_, 0.1)
    assert again.stages == plan.stages and again.cnot_per_step == plan.cnot_per_step
    # the step-size check still comes first
    with pytest.raises(ValueError, match="^step size must be positive and finite$"):
        build_step(bad, sys_, 0.0)


def test_a_scheme_with_no_wave_stage_is_rejected_by_its_stage_counts():
    # one a and no b would pass len(a) == len(b) + 1, and build_step would
    # then fail on max() of the empty b
    empty_b = dataclasses.replace(LIE, b=())
    for _ in range(2):
        with pytest.raises(ValueError, match="^scheme 'lie' has unsupported stage counts$"):
            build_step(empty_b, ModeSystem(n=2, gamma=0.5), 10.0)
    report = validate_scheme(empty_b)
    assert not report.passed and report.violations == ["empty coefficient list"]
