"""Exact phases as rational multiples of pi.

All angles in the compiler (spider phases, gate angles, gadget phases) are
instances of :class:`Phase`, so phase arithmetic is exact and pattern
matching on angles never suffers from floating point drift.

A phase is a reduced pair of Python ints and its arithmetic works on the
ints; ``fractions.Fraction`` only reads other rational inputs and answers
:attr:`Phase.frac`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import index

__all__ = ["Phase", "rationalize_angle"]


class Phase:
    """An angle ``(n/d)*pi`` stored as ints with ``gcd(n, d) == 1``, ``d > 0``.

    The value is normalized modulo 2*pi into the half-open interval
    ``(-pi, pi]``, i.e. ``n/d`` lies in ``(-1, 1]``, so equal phases have
    equal pairs.  The hash is ``hash(("Phase", self.frac))``, as when the
    value was held as a ``Fraction``, so sets and dicts of phases keep
    their iteration order.
    """

    __slots__ = ("_n", "_d")

    def __new__(cls, numerator: int | Fraction = 0, denominator: int = 1) -> "Phase":
        if type(numerator) is not int or type(denominator) is not int or denominator <= 0:
            f = Fraction(numerator, denominator)
            numerator, denominator = int(f.numerator), int(f.denominator)
        return _phase(numerator, denominator)

    @property
    def frac(self) -> Fraction:
        """The multiple of pi, in ``(-1, 1]``."""
        return Fraction(self._n, self._d)

    @property
    def numerator(self) -> int:
        return self._n

    @property
    def denominator(self) -> int:
        return self._d

    def __add__(self, other: "Phase") -> "Phase":
        return _phase(self._n * other._d + other._n * self._d, self._d * other._d)

    def __sub__(self, other: "Phase") -> "Phase":
        return _phase(self._n * other._d - other._n * self._d, self._d * other._d)

    def __neg__(self) -> "Phase":
        return _phase(-self._n, self._d)

    def __mul__(self, k: int) -> "Phase":
        return _phase(self._n * index(k), self._d)

    __rmul__ = __mul__

    def div_pow2(self, k: int) -> "Phase":
        """Exact division of the normalized representative by ``2**k``."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        return _phase(self._n, self._d << k)

    def is_zero(self) -> bool:
        return self._n == 0

    def is_pauli(self) -> bool:
        """True for phases 0 and pi."""
        return self._d == 1

    def is_clifford(self) -> bool:
        """True for multiples of pi/2."""
        return self._d <= 2

    def is_proper_clifford(self) -> bool:
        """True for exactly +pi/2 or -pi/2."""
        return self._d == 2

    def to_float(self) -> float:
        # int true division rounds once, as float(Fraction) does
        return self._n / self._d * math.pi

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Phase):
            return self._n == other._n and self._d == other._d
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Phase", Fraction(self._n, self._d)))

    def __repr__(self) -> str:
        return f"Phase({self._n}, {self._d})"

    def __str__(self) -> str:
        n, d = self._n, self._d
        if n == 0:
            return "0"
        num = {1: "pi", -1: "-pi"}.get(n, f"{n}*pi")
        return num if d == 1 else f"{num}/{d}"


def _phase(n: int, d: int) -> Phase:
    """The :class:`Phase` ``(n/d)*pi`` for ints ``n`` and ``d > 0``, skipping ``__new__``."""
    g = math.gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    n %= 2 * d
    if n > d:
        n -= 2 * d
    p = object.__new__(Phase)
    p._n = n
    p._d = d
    return p


#: Largest denominator considered when rationalizing decimal QASM angles.
MAX_DENOMINATOR = 1 << 20

#: Absolute tolerance for accepting a rationalization, in radians.
RATIONALIZE_TOL = 1e-10


def rationalize_angle(value: float, literal: str | None = None) -> Phase:
    """Convert a numeric angle in radians into an exact :class:`Phase`.

    Uses continued-fraction approximation of ``value/pi`` with a bounded
    denominator.  Raises ``ValueError`` if the value is not finite or no
    fraction reproduces it within tolerance, naming the offending literal.
    """
    if math.isfinite(value):
        f = Fraction(value / math.pi).limit_denominator(MAX_DENOMINATOR)
        if abs(float(f) * math.pi - value) <= RATIONALIZE_TOL:
            return Phase(f)
    what = literal if literal is not None else repr(value)
    raise ValueError(f"cannot express angle {what} as a rational multiple of pi")
