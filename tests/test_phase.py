import math
import random
from fractions import Fraction

import numpy as np
import pytest

from zxna import Phase
from zxna.phase import rationalize_angle


def test_normalization_range():
    assert Phase(3, 2) == Phase(-1, 2)
    assert Phase(2) == Phase(0)
    assert Phase(-1) == Phase(1)  # -pi normalizes to +pi
    assert Phase(5, 4).frac == Fraction(-3, 4)
    assert Phase(1, 1).frac == Fraction(1)


def test_reduction():
    p = Phase(2, 4)
    assert p.numerator == 1 and p.denominator == 2


def test_arithmetic_exact():
    assert Phase(1, 2) + Phase(1, 2) == Phase(1)
    assert Phase(1, 4) - Phase(1, 2) == Phase(-1, 4)
    assert -Phase(1, 2) == Phase(-1, 2)
    assert Phase(1, 4) * 2 == Phase(1, 2)
    assert 3 * Phase(1, 2) == Phase(-1, 2)
    assert Phase(1).div_pow2(2) == Phase(1, 4)
    with pytest.raises(ValueError):
        Phase(1).div_pow2(-1)


def test_arithmetic_random_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        a = Phase(rng.randint(-20, 20), rng.randint(1, 16))
        b = Phase(rng.randint(-20, 20), rng.randint(1, 16))
        assert (a + b) - b == a
        assert a + (-a) == Phase(0)


def test_predicates():
    assert Phase(0).is_zero() and Phase(0).is_pauli() and Phase(0).is_clifford()
    assert Phase(1).is_pauli() and not Phase(1).is_proper_clifford()
    assert Phase(1, 2).is_proper_clifford() and Phase(-1, 2).is_proper_clifford()
    assert not Phase(1, 4).is_clifford()


def test_to_float():
    assert Phase(1, 2).to_float() == pytest.approx(math.pi / 2)
    assert Phase(-3, 4).to_float() == pytest.approx(-3 * math.pi / 4)


def test_str_repr():
    assert str(Phase(0)) == "0"
    assert str(Phase(1)) == "pi"
    assert str(Phase(-1, 2)) == "-pi/2"
    assert repr(Phase(3, 4)) == "Phase(3, 4)"
    assert hash(Phase(1, 2)) == hash(Phase(5, 2))


def test_rationalize_common_angles():
    assert rationalize_angle(math.pi / 4) == Phase(1, 4)
    assert rationalize_angle(-math.pi / 2) == Phase(-1, 2)
    assert rationalize_angle(0.0) == Phase(0)
    assert rationalize_angle(3 * math.pi) == Phase(1)


def test_rationalize_random_fractions():
    rng = random.Random(3)
    for _ in range(100):
        p = Phase(rng.randint(-40, 40), rng.choice([1, 2, 3, 4, 8, 16, 64, 256]))
        assert rationalize_angle(p.to_float()) == p


def test_rationalize_failure_names_literal():
    # denominator beyond the 2^20 bound cannot be represented
    bad = math.pi * (1 / ((1 << 20) * 3 + 1))
    with pytest.raises(ValueError, match="tricky"):
        rationalize_angle(bad, literal="tricky")


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_rationalize_non_finite_raises_value_error(value):
    with pytest.raises(ValueError, match=f"cannot express angle {value!r} as a rational multiple of pi"):
        rationalize_angle(value)
    with pytest.raises(ValueError, match="cannot express angle lit as a rational multiple of pi"):
        rationalize_angle(value, literal="lit")


# Reference check of the int-pair representation against Fraction
GRID_DENOMINATORS = (1, 2, 3, 4, 8, 1 << 20)


def _reference(f: Fraction) -> Fraction:
    """The value a Phase of ``f*pi`` must hold: ``f % 2`` mapped into (-1, 1]."""
    r = Fraction(f) % 2
    return r - 2 if r > 1 else r


def _grid():
    """Seeded (numerator, denominator) pairs, denominators of both signs."""
    rng = random.Random(20)
    pairs = []
    for d in GRID_DENOMINATORS:
        edges = [0, 1, -1, d - 1, d, d + 1, -d, 2 * d, -2 * d, 3 * d + 1]
        randoms = [rng.randint(-6 * d, 6 * d) for _ in range(6)]
        randoms += [rng.randint(-(10**15), 10**15) for _ in range(2)]
        for n in edges + randoms:
            pairs += [(n, d), (n, -d)]
    return pairs


def _check(p: Phase, expected: Fraction):
    n, d = p.numerator, p.denominator
    assert type(n) is int and type(d) is int
    assert (n, d) == (expected.numerator, expected.denominator)
    assert d > 0 and math.gcd(n, d) == 1 and -1 < Fraction(n, d) <= 1
    assert p.frac == expected
    assert p == Phase(expected) and hash(p) == hash(Phase(expected))
    assert hash(p) == hash(("Phase", p.frac))
    assert p.is_zero() == (n == 0)
    assert p.is_pauli() == (d == 1)
    assert p.is_clifford() == (d in (1, 2))
    assert p.is_proper_clifford() == (d == 2)
    assert p.to_float() == float(expected) * math.pi
    assert repr(p) == f"Phase({n}, {d})"
    if n == 0:
        assert str(p) == "0"
    else:
        coef = "pi" if n == 1 else "-pi" if n == -1 else f"{n}*pi"
        assert str(p) == (coef if d == 1 else f"{coef}/{d}")


def test_reference_construction():
    for n, d in _grid():
        expected = _reference(Fraction(n, d))
        _check(Phase(n, d), expected)
        _check(Phase(Fraction(n, d)), expected)
        _check(Phase(Fraction(n), d), expected)
        _check(Phase(np.int64(n), np.int64(d)), expected)


def test_reference_arithmetic():
    rng = random.Random(21)
    phases = [Phase(n, d) for n, d in _grid()]
    for _ in range(600):
        a, b = rng.choice(phases), rng.choice(phases)
        fa, fb = a.frac, b.frac
        _check(a + b, _reference(fa + fb))
        _check(a - b, _reference(fa - fb))
        _check(-a, _reference(-fa))
        assert (a == b) == (fa == fb)
        k = rng.choice([0, 1, -1, 2, -3, 7, 1 << 40, -(1 << 61) - 1])
        _check(a * k, _reference(fa * k))
        _check(k * a, _reference(fa * k))
        j = rng.choice([0, 1, 2, 5, 20])
        _check(a.div_pow2(j), _reference(fa / (1 << j)))
    assert Phase(1, 2) != "pi/2"


def test_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        Phase(1, 0)
    with pytest.raises(ZeroDivisionError):
        Phase(np.int64(1), np.int64(0))
