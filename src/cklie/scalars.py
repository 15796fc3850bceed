"""Exact scalar tower for matrix entries: rationals and hypercomplex values.

Everything downstream (generator matrices, structure constants, cohomology
ranks) requires arithmetic to be exact, so scalars are built on
:class:`fractions.Fraction`; nothing in this package ever touches a float.

A single quaternion-shaped carrier with a *kind* tag represents the reals,
the complexes and the quaternions at once: real and complex values are
quaternions whose upper components vanish.  The tag records the smallest
algebra a value is allowed to live in, and binary operations promote to the
larger kind, mirroring the chain of subalgebra embeddings R < C < H.
"""

from __future__ import annotations

import re
from enum import IntEnum
from fractions import Fraction

__all__ = [
    "Kind",
    "Hypercomplex",
    "parse_rational",
    "ONE",
    "I1",
    "I2",
    "I3",
]

_F0 = Fraction(0)
_F1 = Fraction(1)

# Unit products on the components (0, 1, 2, 3) = (1, i, j, k):
# _UNIT_PRODUCT[p][q] = (r, positive) means e_p * e_q = +-e_r, e.g. i*j = k,
# j*i = -k and i*i = -1.
_UNIT_PRODUCT = (
    ((0, True), (1, True), (2, True), (3, True)),
    ((1, True), (0, False), (3, True), (2, False)),
    ((2, True), (3, False), (0, False), (1, True)),
    ((3, True), (2, True), (1, False), (0, False)),
)

# "p", "-p" or "p/q" in ASCII digits (int() would also read other scripts' digits).
_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")


class Kind(IntEnum):
    """Scalar subalgebra tag; ordering matches the embedding chain."""

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


class Hypercomplex:
    """Quaternion w + x*i + y*j + z*k over exact rationals, with a kind tag.

    Values are immutable.  The tag never lies: a value tagged REAL has
    x = y = z = 0 and a value tagged COMPLEX has y = z = 0.  Arithmetic
    between different kinds promotes the result to the larger kind.
    """

    __slots__ = ("w", "x", "y", "z", "kind")

    def __init__(self, w=0, x=0, y=0, z=0, kind: Kind | None = None):
        w, x, y, z = _frac(w), _frac(x), _frac(y), _frac(z)
        if y or z:
            needed = Kind.QUATERNION
        elif x:
            needed = Kind.COMPLEX
        else:
            needed = Kind.REAL
        if kind is None:
            kind = needed
        elif kind < needed:
            raise ValueError(f"components do not fit in kind {kind.name}")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "kind", Kind(kind))

    def __setattr__(self, name, value):
        raise AttributeError("Hypercomplex values are immutable")

    # Internal fast path: trusted components, no re-validation.
    @classmethod
    def _make(cls, w, x, y, z, kind):
        obj = object.__new__(cls)
        object.__setattr__(obj, "w", w)
        object.__setattr__(obj, "x", x)
        object.__setattr__(obj, "y", y)
        object.__setattr__(obj, "z", z)
        object.__setattr__(obj, "kind", kind)
        return obj

    @classmethod
    def zero(cls, kind: Kind = Kind.REAL) -> "Hypercomplex":
        return _ZEROS[kind]

    @classmethod
    def real(cls, value, kind: Kind = Kind.REAL) -> "Hypercomplex":
        """Embed a rational as a scalar of the requested kind."""
        return cls._make(_frac(value), _F0, _F0, _F0, kind)

    @classmethod
    def imag_unit_multiple(cls, alpha: int, value, kind: Kind) -> "Hypercomplex":
        """value * i_alpha tagged with `kind` (alpha in 1..3; i_1 needs C, i_2/i_3 need H)."""
        v = _frac(value)
        if alpha == 1:
            if kind < Kind.COMPLEX:
                raise ValueError("i_1 does not fit in a REAL-kind value")
            return cls._make(_F0, v, _F0, _F0, kind)
        if alpha == 2:
            if kind < Kind.QUATERNION:
                raise ValueError("i_2 requires QUATERNION kind")
            return cls._make(_F0, _F0, v, _F0, kind)
        if alpha == 3:
            if kind < Kind.QUATERNION:
                raise ValueError("i_3 requires QUATERNION kind")
            return cls._make(_F0, _F0, _F0, v, kind)
        raise ValueError(f"quaternionic unit index must be 1, 2 or 3, got {alpha}")

    def components(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.w, self.x, self.y, self.z)

    def __bool__(self) -> bool:
        return bool(self.w or self.x or self.y or self.z)

    def __eq__(self, other) -> bool:
        if isinstance(other, Hypercomplex):
            return (
                self.w == other.w
                and self.x == other.x
                and self.y == other.y
                and self.z == other.z
            )
        if isinstance(other, (int, Fraction)):
            return self.w == other and not (self.x or self.y or self.z)
        return NotImplemented

    def __neg__(self) -> "Hypercomplex":
        return Hypercomplex._make(-self.w, -self.x, -self.y, -self.z, self.kind)

    def __add__(self, other: "Hypercomplex") -> "Hypercomplex":
        k = self.kind if self.kind >= other.kind else other.kind
        return Hypercomplex._make(
            self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z, k
        )

    def __sub__(self, other: "Hypercomplex") -> "Hypercomplex":
        k = self.kind if self.kind >= other.kind else other.kind
        return Hypercomplex._make(
            self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z, k
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _frac(other)
            return Hypercomplex._make(
                self.w * f, self.x * f, self.y * f, self.z * f, self.kind
            )
        if not isinstance(other, Hypercomplex):
            return NotImplemented
        k = self.kind if self.kind >= other.kind else other.kind
        aw, ax, ay, az = self.w, self.x, self.y, self.z
        bw, bx, by, bz = other.w, other.x, other.y, other.z
        if k == Kind.REAL:
            return Hypercomplex._make(aw * bw, _F0, _F0, _F0, k)
        if k == Kind.COMPLEX:
            return Hypercomplex._make(aw * bw - ax * bx, aw * bx + ax * bw, _F0, _F0, k)
        # Quaternion entries are mostly single-unit multiples, so only the
        # products of nonzero components are formed.
        out = [_F0, _F0, _F0, _F0]
        b_terms = [(q, v) for q, v in enumerate((bw, bx, by, bz)) if v]
        for p, u in enumerate((aw, ax, ay, az)):
            if not u:
                continue
            row = _UNIT_PRODUCT[p]
            for q, v in b_terms:
                r, positive = row[q]
                out[r] += u * v if positive else -u * v
        return Hypercomplex._make(out[0], out[1], out[2], out[3], k)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _frac(other)
            return Hypercomplex._make(
                f * self.w, f * self.x, f * self.y, f * self.z, self.kind
            )
        return NotImplemented

    def conjugate(self) -> "Hypercomplex":
        """Scalar conjugation: fixes the real part, negates i, j, k parts."""
        return Hypercomplex._make(self.w, -self.x, -self.y, -self.z, self.kind)

    def __str__(self) -> str:
        parts = []
        for value, sym in ((self.w, ""), (self.x, "i"), (self.y, "j"), (self.z, "k")):
            if not value:
                continue
            if sym and value == 1:
                body = sym
            elif sym and value == -1:
                body = f"-{sym}"
            else:
                body = f"{value}{sym}"
            if parts and not body.startswith("-"):
                parts.append("+" + body)
            else:
                parts.append(body)
        return "".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"Hypercomplex({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r}, kind={self.kind.name})"


_ZEROS = {k: Hypercomplex._make(_F0, _F0, _F0, _F0, k) for k in Kind}

ONE = Hypercomplex._make(_F1, _F0, _F0, _F0, Kind.REAL)
I1 = Hypercomplex._make(_F0, _F1, _F0, _F0, Kind.QUATERNION)
I2 = Hypercomplex._make(_F0, _F0, _F1, _F0, Kind.QUATERNION)
I3 = Hypercomplex._make(_F0, _F0, _F0, _F1, Kind.QUATERNION)
