"""Exact entries, contraction coefficients, the diagonal metric and the
matrix generators.

Everything downstream (generator matrices, structure constants, cohomology
ranks) requires arithmetic to be exact, so entries are built on
:class:`fractions.Fraction` and Python integers; nothing in this package
ever touches a float.

Each family of algebras is parametrized by N rational contraction
coefficients omega = (omega_1, ..., omega_N).  Two-index products of
consecutive coefficients build the diagonal metric, and the generators are
the metric-antihermitian elementary combinations over the matching scalar
kind.  The reals, the complexes and the quaternions differ only in which
units they allow (1; 1 and i_1; all four), which the `Kind` tag records,
mirroring the chain of subalgebra embeddings R < C < H.

Every entry of a generator matrix is a rational times one unit (1, i_1,
i_2 or i_3), so an entry is the pair (unit, rational), with no
four-component carrier, and a matrix is stored sparsely as
{(row, col): (unit, value)} with no zero entries; the constructor accepts
no other form.  Every generator except the central phase I has at most two
nonzero entries, so commutators and the metric checks loop over those
entries only.  A product of two units is again a signed unit, read from
`_UNIT_PRODUCT`, so commutators multiply entries into component rows,
integer matrices give integer rows and the matrix route of
`lie_core.from_matrices` multiplies no Fraction per pair.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence, Set
from enum import IntEnum
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from math import prod

_F1 = Fraction(1)


class Kind(IntEnum):
    """Scalar subalgebra tag; ordering matches the embedding chain.  REAL
    allows the unit 1, COMPLEX also i_1, QUATERNION all four units."""

    REAL = 0
    COMPLEX = 1
    QUATERNION = 2


FAMILY_KIND = {
    "so": Kind.REAL,
    "su": Kind.COMPLEX,
    "u": Kind.COMPLEX,
    "sq": Kind.QUATERNION,
}

FAMILIES = tuple(FAMILY_KIND)

# "p", "-p" or "p/q" in ASCII digits (int() would also read other scripts' digits).
_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")


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


class OmegaVector(tuple):
    """The N contraction coefficients omega_1..omega_N: a tuple of Fractions,
    omega_k at index k - 1.

    Entries are arbitrary rationals.  Every nonzero entry could be rescaled
    to +-1 without changing the algebra up to isomorphism; that reduction is
    never forced, so rescaling covariance stays testable.
    """

    __slots__ = ()

    def __new__(cls, coeffs: Iterable):
        if isinstance(coeffs, str):
            raise TypeError("OmegaVector takes numbers, not a string: use OmegaVector.parse")
        # Bytes would give character codes, and a mapping or a set has no order.
        if isinstance(coeffs, (bytes, bytearray, memoryview, Mapping, Set)):
            raise TypeError(f"OmegaVector takes numbers in order, not a {type(coeffs).__name__}")
        vals = tuple(_frac(c) for c in coeffs)
        if not vals:
            raise ValueError("omega must have at least one coefficient")
        return super().__new__(cls, vals)

    @classmethod
    def coerce(cls, value) -> "OmegaVector":
        if isinstance(value, OmegaVector):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        return cls(value)

    @classmethod
    def parse(cls, text: str) -> "OmegaVector":
        """Parse a comma-separated list of rationals, e.g. "1,0,-1/2"."""
        items = [part.strip() for part in text.split(",")]
        return cls(items)

    @property
    def n(self) -> int:
        return len(self)

    def product(self, a: int, b: int) -> Fraction:
        """Two-index coefficient: product omega_{a+1} * ... * omega_b, 1 when
        a == b; a and b are ints, and a float or a bool raises TypeError."""
        if type(a) is not int or type(b) is not int:
            raise TypeError(f"product indices must be ints, got a={a!r}, b={b!r}")
        if not 0 <= a <= b <= self.n:
            raise ValueError(f"need 0 <= a <= b <= {self.n}, got a={a}, b={b}")
        return prod(self[a:b], start=_F1)

    def evaluate(self, monomials) -> list[Fraction]:
        """coef * omega_{k1} * omega_{k2} * ... for each (coef, ks) monomial,
        ks a sorted tuple of indices in 1..N (one may repeat; () is 1)."""
        return [coef * prod([self[k - 1] for k in ks], start=_F1) for coef, ks in monomials]

    @property
    def n_zeros(self) -> int:
        return sum(1 for c in self if not c)

    def text(self) -> str:
        return ",".join(str(c) for c in self)

    def __repr__(self) -> str:
        return f"OmegaVector(({self.text()}))"


def build_metric(omega) -> tuple[Fraction, ...]:
    """Diagonal of the hermitian metric: (1, w_01, w_02, ..., w_0N)."""
    om = OmegaVector.coerce(omega)
    return tuple(om.product(0, b) for b in range(om.n + 1))


class GeneratorLabel(namedtuple("GeneratorLabel", "variant indices")):
    """Label of a basis generator.

    variant "J": rotation-type, indices (a, b) with a < b (all families)
    variant "M": complex partner of J, indices (a, b)       (su, u)
    variant "B": diagonal torus generator, index (l,)       (su, u)
    variant "I": central phase i * identity, no indices     (u)
    variant "Mq": quaternionic partners, indices (alpha, a, b)  (sq)
    variant "E": diagonal quaternionic units, (alpha, a)        (sq)

    A label is the tuple (variant, indices) and hashes like it.  Every index
    is an int: a float or a bool raises TypeError.
    """

    __slots__ = ()

    def __new__(cls, variant: str, indices: tuple[int, ...]):
        for i in indices:
            if type(i) is not int:
                raise TypeError(f"{variant} indices must be ints, got {type(i).__name__} {i!r}")
        return super().__new__(cls, variant, indices)

    def __str__(self) -> str:
        # Mq and E write their alpha after the letter: J(0,1), M2(0,1), E1(0), B(1), I.
        v, idx = self
        q = v in ("Mq", "E")
        rest = ",".join(map(str, idx[q:]))
        return (v[0] + str(idx[0]) if q else v) + (f"({rest})" if rest else "")

    __repr__ = __str__

    def cells(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """(unit, cells), the one reading of the label's geometry: the unit
        0..3 (1, i_1, i_2, i_3) of every entry of its matrix, 0 for J, 1 for
        M, B and I and alpha for Mq and E, and the upper-triangle cells (p, q),
        p <= q, it holds, (a, b) for J, M and Mq(alpha, a, b), (a, a) for
        E(alpha, a), (l-1, l-1) and (l, l) for B(l), and none for I."""
        v, idx = self
        unit = idx[0] if v in ("Mq", "E") else int(v != "J")
        if v == "B":
            return unit, ((idx[0] - 1,) * 2, idx * 2)
        if v == "E":
            return unit, (idx[1:] * 2,)
        return unit, (idx[-2:],) if idx else ()


def J(a: int, b: int) -> GeneratorLabel:
    if not 0 <= a < b:
        raise ValueError(f"J indices need 0 <= a < b, got ({a}, {b})")
    return GeneratorLabel("J", (a, b))


def M(a: int, b: int) -> GeneratorLabel:
    if not 0 <= a < b:
        raise ValueError(f"M indices need 0 <= a < b, got ({a}, {b})")
    return GeneratorLabel("M", (a, b))


def B(l: int) -> GeneratorLabel:
    if l < 1:
        raise ValueError(f"B index must be >= 1, got {l}")
    return GeneratorLabel("B", (l,))


def Mq(alpha: int, a: int, b: int) -> GeneratorLabel:
    if alpha not in (1, 2, 3):
        raise ValueError(f"quaternionic index must be 1..3, got {alpha}")
    if not 0 <= a < b:
        raise ValueError(f"Mq indices need 0 <= a < b, got ({a}, {b})")
    return GeneratorLabel("Mq", (alpha, a, b))


def E(alpha: int, a: int) -> GeneratorLabel:
    if alpha not in (1, 2, 3):
        raise ValueError(f"quaternionic index must be 1..3, got {alpha}")
    if a < 0:
        raise ValueError(f"E index must be >= 0, got {a}")
    return GeneratorLabel("E", (alpha, a))


I_LABEL = GeneratorLabel("I", ())


@lru_cache(maxsize=None, typed=True)
def labels_for_family(family: str, n: int) -> tuple[GeneratorLabel, ...]:
    """The basis of `family` with N = n: the one statement of which labels
    are its generators, and all that `build_generator` accepts.

    Canonical order: J, then M or Mq(1), Mq(2), Mq(3), each over the pairs
    a < b in lex order, then B or E, then I; a fixed order makes structure
    constants and cochain indices reproducible across runs and machines.
    A cached tuple; n is an int >= 1, a float or a bool raises TypeError,
    and the typed cache never serves True the entry of 1.
    """
    if type(n) is not int:
        raise TypeError(f"n must be an int, got {type(n).__name__} {n!r}")
    if family not in FAMILY_KIND:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    kind = FAMILY_KIND[family]
    make = [J] + [M if kind == Kind.COMPLEX else partial(Mq, u) for u in range(1, 2**kind)]
    out = [new(a, b) for new in make for a, b in combinations(range(n + 1), 2)]
    if kind == Kind.COMPLEX:
        out += [B(l) for l in range(1, n + 1)]
    elif kind == Kind.QUATERNION:
        out += [E(alpha, a) for alpha in (1, 2, 3) for a in range(n + 1)]
    if family == "u":
        out.append(I_LABEL)
    return tuple(out)


def reversal(basis, n: int) -> tuple[list[int], list[int]]:
    """(sigma, sign): the map X -> -P X^H P, P the exchange matrix (p -> n-p),
    which sends the generators at omega to the generators at reversed omega
    (omega_k -> omega_{n+1-k}) as X_i -> sign[i] * X_sigma[i].  basis[sigma[i]]
    has the unit of basis[i] and its cells reflected, (p, q) -> (n-q, n-p):
    X(u,a,b) -> s_u X(u,n-b,n-a) with s_u = -1 for J and +1 for M and Mq,
    B(l) -> -B(n+1-l), E(alpha,a) -> E(alpha,n-a) and I -> I."""
    where = {lab.cells(): i for i, lab in enumerate(basis)}
    images = [(u, [(n - q, n - p) for p, q in c]) for u, c in where]
    sigma = [where[u, tuple(sorted(c))] for u, c in images]
    # -X^H negates the real unit alone, and B's cells, signed (+1, -1), swap.
    return sigma, [(1 if u else -1) * (1 if c == sorted(c) else -1) for u, c in images]


class MatrixOverK:
    """Sparse (dim x dim) matrix over one scalar kind whose every entry is a
    rational times one unit: {(row, col): (unit, value)}, with unit 0..3 for
    1, i_1, i_2, i_3 and value a nonzero int or Fraction.

    The constructor rejects every other form: a dim that is not an int, a
    kind that is not a `Kind`, a position that is not two ints or a value
    that is not an int or a Fraction (TypeError; a bool or a float is
    neither), a dim below 1, a zero value (zero entries are never stored, so
    an empty map is the zero matrix), a unit the kind does not allow and a
    position outside the matrix (ValueError).
    """

    __slots__ = ("dim", "kind", "cells")

    def __init__(self, dim: int, kind: Kind, cells=None):
        if type(dim) is not int:
            raise TypeError(f"dim must be an int, got {type(dim).__name__} {dim!r}")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if not isinstance(kind, Kind):
            raise TypeError(f"kind must be a Kind, got {type(kind).__name__} {kind!r}")
        cells = dict(cells) if cells else {}
        # R, C and H have real dimension 2**kind, so units 0 .. 2**kind - 1.
        top = 2**kind - 1
        for (i, j), (u, v) in cells.items():
            for x in (i, j):
                if type(x) is not int:
                    raise TypeError(f"entry ({i!r}, {j!r}) has a {type(x).__name__} position, not an int")
            if type(v) is not int and type(v) is not Fraction:
                raise TypeError(f"entry ({i}, {j}) must be an int or a Fraction, got {v!r}")
            if not v:
                raise ValueError(f"entry ({i}, {j}) is zero; zero entries are not stored")
            if type(u) is not int or not 0 <= u <= top:
                raise ValueError(f"entry ({i}, {j}): unit {u!r} is not a {kind.name} unit")
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"entry ({i}, {j}) is outside a {dim} x {dim} matrix")
        self.dim = dim
        self.kind = kind
        self.cells = cells

    def row(self) -> dict[int, int | Fraction]:
        """The component row {(i * dim + j) * 4 + unit: value}: one column
        per real component of each entry, row-major."""
        d = self.dim
        return {(i * d + j) * 4 + u: v for (i, j), (u, v) in self.cells.items()}

    def __repr__(self) -> str:
        return f"MatrixOverK(dim={self.dim}, kind={self.kind.name})"


def build_generator(family: str, label: GeneratorLabel, omega) -> MatrixOverK:
    """The matrix realization of one labeled generator.

    J(a,b)      -> -w_ab e_ab + e_ba
    M(a,b)      -> i (w_ab e_ab + e_ba)
    B(l)        -> i (e_{l-1,l-1} - e_{l,l})
    I           -> i * identity
    Mq(al,a,b)  -> i_al (w_ab e_ab + e_ba)
    E(al,a)     -> i_al e_aa

    A label outside `labels_for_family(family, N)` raises ValueError.
    """
    om = OmegaVector.coerce(omega)
    n = om.n
    if label not in labels_for_family(family, n):
        raise ValueError(f"label {label} is not a {family} generator for N={n}")
    u, where = label.cells()
    if not where:  # no cells: I
        cells = {(a, a): (u, 1) for a in range(n + 1)}
    elif where[0][0] < where[0][1]:  # one cell off the diagonal: s_u = -1 for u = 0, else +1
        ((a, b),) = where
        cells = {(a, b): (u, (1 if u else -1) * om.product(a, b)), (b, a): (u, 1)}
    else:  # diagonal cells: E, or B with the signs (+1, -1)
        cells = {pq: (u, s) for pq, s in zip(where, (1, -1))}
    # A contracted entry w_ab = 0 is not stored.
    return MatrixOverK(n + 1, FAMILY_KIND[family], {ij: c for ij, c in cells.items() if c[1]})


def is_metric_antihermitian(X: MatrixOverK, g: Sequence[Fraction]) -> bool:
    """Exact test of conj-transpose(X) * G + G * X == 0 for the diagonal
    metric G = diag(g), as given by `build_metric`.

    Entry (i, j) of that sum is g_j conj(X_ji) + g_i X_ij, where conjugation
    negates every unit but 1; two terms on different units cancel only if
    both vanish.  The sum is hermitian, so checking it where X_ij is nonzero
    covers every entry.
    """
    if X.dim != len(g):
        raise ValueError(f"dimension mismatch: matrix {X.dim} vs metric {len(g)}")
    for (i, j), (u, v) in X.cells.items():
        total = g[i] * v
        if (j, i) in X.cells:
            pu, pv = X.cells[j, i]
            term = g[j] * (pv if pu == 0 else -pv)
            if pu == u:
                total += term
            elif term:
                return False
        if total:
            return False
    return True


def is_traceless(X: MatrixOverK) -> bool:
    trace: dict[int, int | Fraction] = {}
    for (i, j), (u, v) in X.cells.items():
        if i == j:
            trace[u] = trace.get(u, 0) + v
    return not any(trace.values())


# Unit products on the units (0, 1, 2, 3) = (1, i, j, k):
# _UNIT_PRODUCT[p][q] = (r, sign) means e_p * e_q = sign * e_r, e.g. i*j = k,
# j*i = -k and i*i = -1.
_UNIT_PRODUCT = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, -1), (3, 1), (2, -1)),
    ((2, 1), (3, -1), (0, -1), (1, 1)),
    ((3, 1), (2, 1), (1, -1), (0, -1)),
)


def mat_commutator(X: MatrixOverK, Y: MatrixOverK) -> dict[int, int | Fraction]:
    """The component row (`MatrixOverK.row`) of XY - YX, summed over the
    pairs of nonzero cells that meet.  The product of two entries is the
    signed unit of `_UNIT_PRODUCT` times the product of their values, so
    integer matrices give an integer row.  No zero entry is kept; matrices
    of different dim or kind raise ValueError, since the row's columns
    depend on the dim."""
    d = X.dim
    if Y.dim != d or Y.kind != X.kind:
        raise ValueError(f"cannot commute {X!r} with {Y!r}")
    acc: dict[int, int | Fraction] = {}
    for (i, k), (p, a) in X.cells.items():
        for (l, j), (q, b) in Y.cells.items():
            if k == l:
                r, sign = _UNIT_PRODUCT[p][q]
                col = (i * d + j) * 4 + r
                acc[col] = acc.get(col, 0) + sign * a * b
            if j == i:
                r, sign = _UNIT_PRODUCT[q][p]
                col = (l * d + k) * 4 + r
                acc[col] = acc.get(col, 0) - sign * b * a
    return {col: v for col, v in acc.items() if v}


class NotInSpanError(ValueError):
    """A commutator fell outside the span of the generators."""
