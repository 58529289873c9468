"""Splitting coefficient sets for composing dissipative and unitary stages.

Each scheme lists dissipative coefficients ``a`` (complex, positive real
part) and unitary coefficients ``b`` (real, positive), both given as
fractions of one step.  Built-ins:

    lie        order 1,  1 dissipative / 1 unitary stage
    strang     order 2,  2 / 1
    castella4  order 4,  5 / 4,  palindromic: a[i] == a[-1-i]
    bernier6   order 6, 16 / 15, symmetric-conjugate: a[i] == conj(a[-1-i])

The sixth-order coefficients are numeric literals fixed to the last
digit; the lower-order sets are exact double-precision fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

_SUM_TOL = 1e-9
_SYM_TOL = 1e-12


@dataclass(frozen=True)
class SplittingScheme:
    """Named coefficient set of a declared convergence order.  The checks
    ``build_step`` makes are cached per object (``step_coefficients``)."""

    name: str
    order: int
    a: tuple[complex, ...]
    b: tuple[float, ...]

    @cached_property
    def step_coefficients(self) -> tuple[tuple[complex, ...], float, float]:
        """``a`` as complex numbers, max |a| and max |b|, for ``build_step``,
        once the stage counts and every Re(a) are checked.  A failed check
        raises ValueError and caches nothing, so a later read raises again."""
        a, b = self.a, self.b
        if not b or not (len(a) == len(b) + 1 or len(a) == len(b) == 1):
            raise ValueError(f"scheme {self.name!r} has unsupported stage counts")
        # the ancilla contraction exp(-g) cannot amplify, so every Re(a) must be >= 0
        ca = tuple(map(complex, a))
        for i, ai in enumerate(ca):
            if ai.real < 0:
                raise ValueError(f"dissipative coefficient a[{i}] = {a[i]} has a negative real part")
        return ca, max(map(abs, ca)), max(map(abs, b))


# First half of the sixth-order coefficients; the second half mirrors them
# so that a[i] == conj(a[15 - i]) and b[i] == b[14 - i].
_BERNIER_A_HALF = (
    0.03 - 0.0028985018717006387j,
    0.08826477458499815 + 0.019065371639195743j,
    0.07026507350715319 - 0.05226928459003309j,
    0.051044248093469226 + 0.07580262639617709j,
    0.040506044227148555 - 0.07981221177569087j,
    0.03061653536468681 + 0.07254698089135206j,
    0.10349890449629792 - 0.03539199012223482j,
    0.08580441972624608 + 0.011182129837497105j,
)
_BERNIER_B_HALF = (
    0.08092666015955027,
    0.06736427978832901,
    0.057276240999706116,
    0.06428730473896961,
    0.05528732144478408,
    0.02566179136566552,
    0.10559039215618958,
    0.08721201869361150,
)

LIE = SplittingScheme("lie", 1, (1.0 + 0.0j,), (1.0,))

STRANG = SplittingScheme("strang", 2, (0.5 + 0.0j, 0.5 + 0.0j), (1.0,))

CASTELLA4 = SplittingScheme(
    "castella4",
    4,
    (
        1 / 10 - 1j / 30,
        4 / 15 + 2j / 15,
        4 / 15 - 1j / 5,
        4 / 15 + 2j / 15,
        1 / 10 - 1j / 30,
    ),
    (1 / 4, 1 / 4, 1 / 4, 1 / 4),
)

BERNIER6 = SplittingScheme(
    "bernier6",
    6,
    _BERNIER_A_HALF + tuple(z.conjugate() for z in reversed(_BERNIER_A_HALF)),
    _BERNIER_B_HALF + tuple(reversed(_BERNIER_B_HALF[:-1])),
)


def yoshida4() -> SplittingScheme:
    """Yoshida's fourth-order triple jump (Phys. Lett. A 150, 1990): real
    coefficients, and the middle steps negative, as every real scheme
    above order 2 must have.  Not a builtin: ``validate_scheme`` and
    ``build_step`` reject it."""
    w1 = 1 / (2 - 2 ** (1 / 3))
    w0 = -(2 ** (1 / 3)) * w1
    a = (w1 / 2, (w0 + w1) / 2, (w0 + w1) / 2, w1 / 2)
    return SplittingScheme("yoshida4", 4, tuple(complex(x) for x in a), (w1, w0, w1))


_REGISTRY = {s.name: s for s in (LIE, STRANG, CASTELLA4, BERNIER6)}


def builtin_schemes() -> list[SplittingScheme]:
    """Return the four built-in schemes in ascending order of accuracy."""
    return [LIE, STRANG, CASTELLA4, BERNIER6]


def get_scheme(name: str) -> SplittingScheme:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown scheme {name!r}; available: {known}") from None


def _mirrored(seq, tol: float, conjugate: bool) -> bool:
    m = len(seq) - 1
    for i, z in enumerate(seq):
        other = complex(seq[m - i])
        if conjugate:
            other = other.conjugate()
        if abs(complex(z) - other) > tol:
            return False
    return True


def _detect_symmetry(a, b) -> str:
    if len(a) < 2:
        return "none"
    if not _mirrored(b, _SYM_TOL, conjugate=False):
        return "none"
    if _mirrored(a, _SYM_TOL, conjugate=False):
        return "palindromic"
    if _mirrored(a, _SYM_TOL, conjugate=True):
        return "symmetric-conjugate"
    return "none"


@dataclass
class ValidationReport:
    """Coefficient diagnostics plus any hard violations found."""

    name: str
    order: int
    sum_a: complex
    sum_b: float
    min_re_a: float
    min_b: float
    symmetry: str
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL: " + "; ".join(self.violations)
        return (
            f"{self.name:<10} order={self.order} "
            f"|sum_a-1|={abs(self.sum_a - 1):.2e} |sum_b-1|={abs(self.sum_b - 1):.2e} "
            f"min_re_a={self.min_re_a:.4g} min_b={self.min_b:.4g} "
            f"symmetry={self.symmetry:<19} {status}"
        )


def validate_scheme(scheme: SplittingScheme) -> ValidationReport:
    """Check consistency sums, stage-count structure and positivity.

    Both coefficient families must sum to 1 within 1e-9, every Re(a)
    and every b must be positive, and len(a) must be len(b) + 1, or
    len(a) == len(b) == 1 for the single-stage scheme.
    """
    a, b = scheme.a, scheme.b
    violations: list[str] = []
    if not a or not b:
        violations.append("empty coefficient list")
        return ValidationReport(scheme.name, scheme.order, 0j, 0.0, 0.0, 0.0,
                                "none", violations)

    sum_a = complex(sum(a))
    sum_b = float(sum(b))
    min_re_a = min(z.real for z in a)
    min_b = min(b)

    if not (len(a) == len(b) + 1 or len(a) == len(b) == 1):
        violations.append(f"stage counts len(a)={len(a)} len(b)={len(b)} unsupported")
    if abs(sum_a - 1.0) > _SUM_TOL:
        violations.append(f"sum(a) = {sum_a} deviates from 1 by {abs(sum_a - 1):.3e}")
    if abs(sum_b - 1.0) > _SUM_TOL:
        violations.append(f"sum(b) = {sum_b} deviates from 1 by {abs(sum_b - 1):.3e}")
    if min_re_a <= 0.0:
        violations.append(f"min Re(a) = {min_re_a} is not positive")
    if min_b <= 0.0:
        violations.append(f"min b = {min_b} is not positive")

    symmetry = _detect_symmetry(a, b)
    return ValidationReport(scheme.name, scheme.order, sum_a, sum_b,
                            min_re_a, min_b, symmetry, violations)
