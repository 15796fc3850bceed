"""Exact scalars for matrix entries: rationals, the kind tag and the units.

Everything downstream (generator matrices, structure constants, cohomology
ranks) requires arithmetic to be exact, so scalars are built on
:class:`fractions.Fraction` and Python integers; nothing in this package
ever touches a float.

Every entry of a generator matrix is a rational times one unit of the scalar
algebra: 1, or one of the imaginary units i_1, i_2, i_3 of the quaternions.
So an entry is stored as the pair (unit, rational), with no four-component
carrier.  The reals, the complexes and the quaternions differ only in which
units they allow (1; 1 and i_1; all four), which the *kind* tag records,
mirroring the chain of subalgebra embeddings R < C < H.  A product of two
units is again a signed unit, read from :data:`_UNIT_PRODUCT`.
"""

from __future__ import annotations

import re
import sys
from enum import IntEnum
from fractions import Fraction

# Unit products on the units (0, 1, 2, 3) = (1, i, j, k):
# _UNIT_PRODUCT[p][q] = (r, sign) means e_p * e_q = sign * e_r, e.g. i*j = k,
# j*i = -k and i*i = -1.
_UNIT_PRODUCT = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, -1), (3, 1), (2, -1)),
    ((2, 1), (3, -1), (0, -1), (1, 1)),
    ((3, 1), (2, 1), (1, -1), (0, -1)),
)

# "p", "-p" or "p/q" in ASCII digits (int() would also read other scripts' digits).
_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")


class Kind(IntEnum):
    """Scalar subalgebra tag; ordering matches the embedding chain.  REAL
    allows the unit 1, COMPLEX also i_1, QUATERNION all four units."""

    REAL = 0
    COMPLEX = 1
    QUATERNION = 2


def parse_rational(text: str) -> Fraction:
    """Parse the textual rational format "p", "-p" or "p/q" (q > 0).

    A zero denominator is rejected here as a ValueError instead of surfacing
    as a ZeroDivisionError deep inside a computation.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational: {text!r}")
    num, _, den = s.partition("/")
    # Checked here so that the message names the coefficient, not the API
    # that lifts the interpreter's limit on int <-> str conversion.
    digits = max(len(num.lstrip("+-")), len(den))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and digits > limit:
        raise ValueError(f"a coefficient has {digits} digits; at most {limit} are allowed")
    if den and not int(den):
        raise ValueError("rational denominator must be nonzero")
    return Fraction(int(num), int(den or 1))


def _frac(value) -> Fraction:
    """Exact rational from a Fraction, an int or a rational string.

    Floats are rejected because their binary value is rarely the rational the
    caller meant (0.1 is not 1/10), and bools because they are not numbers.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, (float, bool)):
        raise TypeError(f"expected an exact rational, got {type(value).__name__} {value!r}")
    return Fraction(value)
