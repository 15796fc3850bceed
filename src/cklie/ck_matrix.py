"""Contraction coefficients, the diagonal metric, and matrix generators.

Each family of algebras is parametrized by N rational contraction
coefficients omega = (omega_1, ..., omega_N).  Two-index products of
consecutive coefficients build the diagonal metric, and the generators are
the metric-antihermitian elementary combinations over the matching scalar
kind (real, complex or quaternionic).

Matrices are stored sparsely as {(row, col): value} with no zero entries.
Every generator except the central phase I has at most two nonzero entries,
so commutators and the metric checks loop over those entries only; the full
(N+1) x (N+1) grid is rendered only for output.

The exact elimination kernel lives here too: sparse integer rows reduced
fraction-free (cross-multiplication, gcd normalization), after a pre-pass
that takes out the columns of single-entry rows (most cocycle equations say
xi_c = 0).  One reduction loop decomposes commutators in the generator basis
(`BasisDecomposer`) and serves every rank and membership question of
`cohomology`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm, prod

from .scalars import Hypercomplex, Kind, _frac

__all__ = [
    "FAMILIES",
    "FAMILY_KIND",
    "OmegaVector",
    "build_metric",
    "GeneratorLabel",
    "J",
    "M",
    "B",
    "Mq",
    "E",
    "I_LABEL",
    "labels_for_family",
    "MatrixOverK",
    "build_generator",
    "is_metric_antihermitian",
    "is_traceless",
    "mat_commutator",
    "BasisDecomposer",
    "NotInSpanError",
]

_F1 = Fraction(1)

FAMILIES = ("so", "su", "u", "sq")

FAMILY_KIND = {
    "so": Kind.REAL,
    "su": Kind.COMPLEX,
    "u": Kind.COMPLEX,
    "sq": Kind.QUATERNION,
}


class OmegaVector:
    """The N contraction coefficients omega_1..omega_N (1-based accessors).

    Entries are arbitrary rationals.  Every nonzero entry could be rescaled
    to +-1 without changing the algebra up to isomorphism; that reduction is
    never forced, so rescaling covariance stays testable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        vals = tuple(_frac(c) for c in coeffs)
        if not vals:
            raise ValueError("omega must have at least one coefficient")
        object.__setattr__(self, "coeffs", vals)

    def __setattr__(self, name, value):
        raise AttributeError("OmegaVector is immutable")

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
        return len(self.coeffs)

    def product(self, a: int, b: int) -> Fraction:
        """Two-index coefficient: product omega_{a+1} * ... * omega_b, 1 when a == b."""
        if not 0 <= a <= b <= self.n:
            raise ValueError(f"need 0 <= a <= b <= {self.n}, got a={a}, b={b}")
        return prod(self.coeffs[a:b], start=_F1)

    @property
    def n_zeros(self) -> int:
        return sum(1 for c in self.coeffs if not c)

    def text(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, OmegaVector):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self) -> str:
        return f"OmegaVector(({self.text()}))"

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coeffs) + ")"


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

    A label is the tuple (variant, indices) and hashes like it.
    """

    __slots__ = ()

    def __str__(self) -> str:
        v, idx = self.variant, self.indices
        if v == "J" or v == "M":
            return f"{v}({idx[0]},{idx[1]})"
        if v == "B":
            return f"B({idx[0]})"
        if v == "Mq":
            return f"M{idx[0]}({idx[1]},{idx[2]})"
        if v == "E":
            return f"E{idx[0]}({idx[1]})"
        return v

    __repr__ = __str__


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


def labels_for_family(family: str, n: int) -> list[GeneratorLabel]:
    """Canonical basis order: J block (lex), then M/Mq, then B/E, then I.

    A fixed order makes structure constants and cochain indices reproducible
    across runs and machines.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    js = [J(a, b) for a in range(n + 1) for b in range(a + 1, n + 1)]
    if family == "so":
        return js
    if family in ("su", "u"):
        ms = [M(a, b) for a in range(n + 1) for b in range(a + 1, n + 1)]
        bs = [B(l) for l in range(1, n + 1)]
        out = js + ms + bs
        if family == "u":
            out.append(I_LABEL)
        return out
    mqs = [
        Mq(alpha, a, b)
        for alpha in (1, 2, 3)
        for a in range(n + 1)
        for b in range(a + 1, n + 1)
    ]
    es = [E(alpha, a) for alpha in (1, 2, 3) for a in range(n + 1)]
    return js + mqs + es


def _accumulate(cells: dict, ij: tuple[int, int], value: Hypercomplex):
    cells[ij] = cells[ij] + value if ij in cells else value


class MatrixOverK:
    """Sparse (dim x dim) matrix over one scalar kind: {(row, col): value}.

    Zero entries are never stored, so equality of the cell maps is equality
    of matrices and an empty map is the zero matrix.
    """

    __slots__ = ("dim", "kind", "cells")

    def __init__(self, dim: int, kind: Kind, cells=None):
        self.dim = dim
        self.kind = kind
        self.cells = {ij: v for ij, v in cells.items() if v} if cells else {}

    def __add__(self, other: "MatrixOverK") -> "MatrixOverK":
        cells = dict(self.cells)
        for ij, v in other.cells.items():
            _accumulate(cells, ij, v)
        return MatrixOverK(self.dim, max(self.kind, other.kind), cells)

    def __neg__(self) -> "MatrixOverK":
        return MatrixOverK(self.dim, self.kind, {ij: -v for ij, v in self.cells.items()})

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return MatrixOverK(self.dim, self.kind, {ij: v * scalar for ij, v in self.cells.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixOverK):
            return NotImplemented
        return self.dim == other.dim and self.cells == other.cells

    def _grid(self) -> list[list[Hypercomplex]]:
        zero = Hypercomplex.zero(self.kind)
        return [
            [self.cells.get((i, j), zero) for j in range(self.dim)] for i in range(self.dim)
        ]

    def to_component_lists(self) -> list[list[list[str]]]:
        """JSON form: nested arrays of (w, x, y, z) component quadruples."""
        return [[[str(c) for c in v.components()] for v in line] for line in self._grid()]

    def __str__(self) -> str:
        text = [[str(v) for v in line] for line in self._grid()]
        width = max((len(c) for line in text for c in line), default=1)
        return "\n".join(
            "[ " + "  ".join(c.rjust(width) for c in line) + " ]" for line in text
        )

    def __repr__(self) -> str:
        return f"MatrixOverK(dim={self.dim}, kind={self.kind.name})"


_FAMILY_VARIANTS = {
    "so": {"J"},
    "su": {"J", "M", "B"},
    "u": {"J", "M", "B", "I"},
    "sq": {"J", "Mq", "E"},
}


def build_generator(family: str, label: GeneratorLabel, omega) -> MatrixOverK:
    """The matrix realization of one labeled generator.

    J(a,b)      -> -w_ab e_ab + e_ba
    M(a,b)      -> i (w_ab e_ab + e_ba)
    B(l)        -> i (e_{l-1,l-1} - e_{l,l})
    I           -> i * identity
    Mq(al,a,b)  -> i_al (w_ab e_ab + e_ba)
    E(al,a)     -> i_al e_aa
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    om = OmegaVector.coerce(omega)
    if label.variant not in _FAMILY_VARIANTS[family]:
        raise ValueError(f"label {label} is not a {family} generator")
    n = om.n
    if label.indices and label.indices[-1] > n:
        raise ValueError(f"label {label} out of range for n={n}")
    kind = FAMILY_KIND[family]
    v = label.variant
    if v == "J":
        a, b = label.indices
        cells = {
            (a, b): Hypercomplex.real(-om.product(a, b), kind),
            (b, a): Hypercomplex.real(_F1, kind),
        }
    elif v == "B":
        (l,) = label.indices
        cells = {
            (l - 1, l - 1): Hypercomplex.imag_unit_multiple(1, _F1, kind),
            (l, l): Hypercomplex.imag_unit_multiple(1, -_F1, kind),
        }
    elif v == "I":
        cells = {(a, a): Hypercomplex.imag_unit_multiple(1, _F1, kind) for a in range(n + 1)}
    elif v == "E":
        alpha, a = label.indices
        cells = {(a, a): Hypercomplex.imag_unit_multiple(alpha, _F1, kind)}
    else:  # M(a,b) is Mq with the complex unit i = i_1
        alpha, a, b = (1, *label.indices) if v == "M" else label.indices
        cells = {
            (a, b): Hypercomplex.imag_unit_multiple(alpha, om.product(a, b), kind),
            (b, a): Hypercomplex.imag_unit_multiple(alpha, _F1, kind),
        }
    return MatrixOverK(n + 1, kind, cells)


def is_metric_antihermitian(X: MatrixOverK, g: Sequence[Fraction]) -> bool:
    """Exact test of conj-transpose(X) * G + G * X == 0 for the diagonal
    metric G = diag(g), as given by `build_metric`.

    Entry (i, j) of that sum is g_j conj(X_ji) + g_i X_ij.  The sum is
    hermitian, so checking it where X_ij is nonzero covers every entry.
    """
    if X.dim != len(g):
        raise ValueError(f"dimension mismatch: matrix {X.dim} vs metric {len(g)}")
    zero = Hypercomplex.zero(X.kind)
    return not any(
        X.cells.get((j, i), zero).conjugate() * g[j] + v * g[i]
        for (i, j), v in X.cells.items()
    )


def is_traceless(X: MatrixOverK) -> bool:
    return not sum((v for (i, j), v in X.cells.items() if i == j), Hypercomplex.zero(X.kind))


def mat_commutator(X: MatrixOverK, Y: MatrixOverK) -> MatrixOverK:
    """XY - YX, summed over the pairs of nonzero cells that meet."""
    acc: dict[tuple[int, int], Hypercomplex] = {}
    for (i, k), a in X.cells.items():
        for (l, j), b in Y.cells.items():
            if k == l:
                _accumulate(acc, (i, j), a * b)
            if j == i:
                _accumulate(acc, (l, k), -(b * a))
    return MatrixOverK(X.dim, max(X.kind, Y.kind), acc)


class NotInSpanError(ValueError):
    """A matrix fell outside the span of the supplied basis."""


# ---------------------------------------------------------------------------
# Exact elimination kernel (sparse rows over arbitrary-precision integers)
# ---------------------------------------------------------------------------


def _normalize_int_row(row: dict[int, int]) -> dict[int, int]:
    """Divide by the gcd and make the leading entry positive."""
    if not row:
        return row
    g = gcd(*row.values())
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    if row[min(row)] < 0:
        row = {c: -v for c, v in row.items()}
    return row


def _reduce(row: dict[int, int], pivots_by_lead: dict[int, dict[int, int]]) -> dict[int, int]:
    """Reduce row against the pivot rows keyed by leading column until it
    vanishes or leads a column with no pivot: an integer multiple of the
    pivot row is subtracted when the pivot entry divides the row's, else the
    two are cross-multiplied and the result gcd-normalized.  Returns the
    residue, empty exactly when row lies in the pivots' span; row itself is
    not modified."""
    while row:
        lead = min(row)
        piv = pivots_by_lead.get(lead)
        if piv is None:
            break
        pv, v = piv[lead], row[lead]
        q, rem = divmod(v, pv)
        if rem:
            new = {c: pv * val for c, val in row.items()}
            q = v
        else:
            new = dict(row)
        for c, val in piv.items():
            nv = new.get(c, 0) - q * val
            if nv:
                new[c] = nv
            else:
                del new[c]
        row = _normalize_int_row(new) if rem else new
    return row


def _echelon_int(rows: Sequence[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Forward elimination: each row's nonzero residue under :func:`_reduce`
    is gcd-normalized and stored as the pivot row of its leading column.
    Returns {pivot column: echelon row}; its length is the rank.  The rows
    are sparse with no zero entries, read twice and never modified.  A
    pre-pass makes each single-entry row the unit pivot {c: 1} of its column
    and strips those columns from the other rows: the row space, and so the
    RREF and the set of pivot columns, stays the same."""
    units = {c: {c: 1} for row in rows if len(row) == 1 for c in row}
    echelon = dict(units)
    for row in rows:
        if len(row) > 1:
            if not units.keys().isdisjoint(row):
                row = {c: v for c, v in row.items() if c not in units}
            row = _reduce(row, echelon)
            if row:
                echelon[min(row)] = _normalize_int_row(row)
    return echelon


def _lcm_scaled(items: Iterable[tuple[int, Fraction]]) -> tuple[int, dict[int, int]]:
    """The lcm m of the values' denominators and the sparse integer vector
    {column: m * value} of the (column, value) pairs."""
    items = list(items)
    m = lcm(*(v.denominator for _, v in items))
    return m, {c: v.numerator * (m // v.denominator) for c, v in items}


def _int_row(mat: MatrixOverK, marker: int) -> dict[int, int]:
    """The (w, x, y, z) components of each entry, row-major, scaled by the
    lcm m of their denominators, with m at column marker."""
    d = mat.dim
    m, row = _lcm_scaled(
        ((i * d + j) * 4 + t, c)
        for (i, j), v in mat.cells.items()
        for t, c in enumerate(v.components())
        if c
    )
    row[marker] = m
    return row


class BasisDecomposer:
    """Reusable exact coordinate solver over a fixed independent basis.

    Each matrix becomes one integer row (:func:`_int_row`): its real
    components scaled by the lcm m of their denominators, and m itself in a
    marker column past the 4 * dim**2 component columns, off + k for basis
    element k.  The marker carries m, not 1, so that every integer
    combination of rows keeps the exact coefficients of the matrices it
    combines.  The basis rows are forward-eliminated once with the
    solver's kernel (:func:`_echelon_int`).  A matrix X takes marker
    off + r, r = len(basis), and :func:`_reduce` leaves a residue
    s * row(X) - sum_k a_k * row(B_k); X is in the span exactly when no
    component column is left, and then X = sum_k c_k B_k with
    c_k = -residue[off + k] / residue[off + r].  Built once per basis, used
    for every commutator.
    """

    def __init__(self, basis: Sequence[MatrixOverK]):
        if not basis:
            raise ValueError("basis must be nonempty")
        self._off = off = 4 * basis[0].dim ** 2
        self._echelon = _echelon_int([_int_row(mat, off + k) for k, mat in enumerate(basis)])
        # A row whose residue leads a marker column has no component left:
        # its element, the last marker it holds, depends on earlier ones.
        dependent = [max(row) - off for lead, row in self._echelon.items() if lead >= off]
        if dependent:
            raise ValueError(f"basis element {min(dependent)} depends on earlier elements")
        self._marker = off + len(basis)

    def coefficients(self, mat: MatrixOverK) -> dict[int, Fraction]:
        """The nonzero coordinates {k: c_k} with mat == sum(c_k * basis_k);
        NotInSpanError if mat is outside the span."""
        off, marker = self._off, self._marker
        res = _reduce(_int_row(mat, marker), self._echelon)
        if min(res) < off:
            raise NotInSpanError("matrix is not in the span of the basis")
        scale = res[marker]
        return {c - off: Fraction(-v, scale) for c, v in res.items() if c != marker}
