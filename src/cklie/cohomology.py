"""Exact second cohomology of a structure-constant Lie algebra.

The unknowns are the antisymmetric extension coefficients xi_ij (i < j, so
m = r(r-1)/2 of them).  Each index triple i < j < l contributes one linear
equation

    sum_k ( C_ij^k xi_kl + C_jl^k xi_ki + C_li^k xi_kj ) = 0,

assembled once per triple with xi_kl read as -xi_lk whenever k > l.  The
cocycle space Z2 is the exact nullspace of that system; the coboundary space
B2 is spanned by the maps mu |-> (xi_ij = sum_k C_ij^k mu_k); dim H2 =
dim Z2 - dim B2 counts inequivalent nontrivial central extensions.

Rank/nullspace computations clear denominators and run a fraction-free
integer elimination: each row is reduced by cross-multiplication and gcd
normalization against the pivot row stored for its leading column.  The
reduced row echelon form of a row space is unique, so ranks, bases and
representatives do not depend on the order in which rows meet their pivots.
A wrong rank here would be a wrong theorem, so no floating point is allowed
anywhere near this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Sequence

from .scalars import _frac

__all__ = [
    "TwoCochain",
    "OneCochain",
    "CohomologyResult",
    "CocycleSystem",
    "CohomologySolver",
    "coboundary",
    "h2",
    "exact_rank",
]

_F0 = Fraction(0)
_F1 = Fraction(1)


class TwoCochain:
    """Antisymmetric rational 2-cochain xi, stored as {(i, j): value}, i < j.

    Immutable value semantics; zero entries are never stored, so equality of
    the entry maps is equality of cochains.
    """

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries=None):
        data: dict[tuple[int, int], Fraction] = {}
        if entries:
            for (i, j), value in entries.items() if isinstance(entries, dict) else entries:
                if i == j:
                    raise ValueError(f"cochain entry at equal indices ({i}, {j})")
                if not (0 <= i < dim and 0 <= j < dim):
                    raise ValueError(f"cochain index ({i}, {j}) out of range")
                v = _frac(value)
                if i > j:
                    i, j = j, i
                    v = -v
                if v:
                    prev = data.get((i, j))
                    data[(i, j)] = v if prev is None else prev + v
                    if not data[(i, j)]:
                        del data[(i, j)]
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", data)

    def __setattr__(self, name, value):
        raise AttributeError("TwoCochain is immutable")

    @classmethod
    def zero(cls, dim: int) -> "TwoCochain":
        return cls(dim)

    def value(self, i: int, j: int) -> Fraction:
        """xi_ij for any index order (antisymmetric, zero on the diagonal)."""
        if i == j:
            return _F0
        if i < j:
            return self.entries.get((i, j), _F0)
        return -self.entries.get((j, i), _F0)

    def items(self):
        return sorted(self.entries.items())

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, TwoCochain):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __hash__(self):
        return hash((self.dim, frozenset(self.entries.items())))

    def __add__(self, other: "TwoCochain") -> "TwoCochain":
        if self.dim != other.dim:
            raise ValueError("cochain dimension mismatch")
        out = dict(self.entries)
        for key, v in other.entries.items():
            nv = out.get(key, _F0) + v
            if nv:
                out[key] = nv
            else:
                out.pop(key, None)
        res = TwoCochain.__new__(TwoCochain)
        object.__setattr__(res, "dim", self.dim)
        object.__setattr__(res, "entries", out)
        return res

    def __sub__(self, other: "TwoCochain") -> "TwoCochain":
        return self + (-other)

    def __neg__(self) -> "TwoCochain":
        res = TwoCochain.__new__(TwoCochain)
        object.__setattr__(res, "dim", self.dim)
        object.__setattr__(res, "entries", {k: -v for k, v in self.entries.items()})
        return res

    def __mul__(self, scalar) -> "TwoCochain":
        f = _frac(scalar)
        res = TwoCochain.__new__(TwoCochain)
        object.__setattr__(res, "dim", self.dim)
        if f:
            object.__setattr__(res, "entries", {k: v * f for k, v in self.entries.items()})
        else:
            object.__setattr__(res, "entries", {})
        return res

    __rmul__ = __mul__

    def to_json_obj(self, algebra=None) -> dict:
        pairs = []
        for (i, j), c in self.items():
            rec = {"i": i, "j": j, "c": str(c)}
            if algebra is not None:
                rec["label_i"] = str(algebra.basis[i])
                rec["label_j"] = str(algebra.basis[j])
            pairs.append(rec)
        return {"pairs": pairs}

    def __repr__(self) -> str:
        body = ", ".join(f"({i},{j}): {c}" for (i, j), c in self.items())
        return f"TwoCochain(dim={self.dim}, {{{body}}})"


class OneCochain:
    """A 1-cochain mu: one rational per generator (used to shift generators
    into the center; its differential is a 2-coboundary)."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable):
        object.__setattr__(self, "values", tuple(_frac(v) for v in values))

    def __setattr__(self, name, value):
        raise AttributeError("OneCochain is immutable")

    @classmethod
    def zero(cls, dim: int) -> "OneCochain":
        return cls([_F0] * dim)

    @classmethod
    def basis_vector(cls, dim: int, k: int, value=_F1) -> "OneCochain":
        vals = [_F0] * dim
        vals[k] = _frac(value)
        return cls(vals)

    @property
    def dim(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int) -> Fraction:
        return self.values[k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, OneCochain):
            return NotImplemented
        return self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self) -> str:
        return f"OneCochain({[str(v) for v in self.values]})"


# ---------------------------------------------------------------------------
# Exact elimination kernel (sparse rows over arbitrary-precision integers)
# ---------------------------------------------------------------------------


def _normalize_int_row(row: dict[int, int]) -> dict[int, int]:
    """Divide by the gcd and make the leading entry positive."""
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    if row[min(row)] < 0:
        row = {c: -v for c, v in row.items()}
    return row


def _to_int_row(row: dict[int, Fraction]) -> dict[int, int]:
    if not row:
        return {}
    denom = 1
    for v in row.values():
        denom = lcm(denom, v.denominator)
    return _normalize_int_row(
        {c: int(v * denom) for c, v in row.items() if v}
    )


def _echelon_int(rows: Iterable[dict[int, int]]) -> tuple[list[int], list[dict[int, int]]]:
    """Fraction-free forward elimination keyed by leading column.

    Each row is cross-multiplied against the stored pivot row of its smallest
    column until it vanishes or leads a column that has no pivot yet.  Returns
    (pivot columns, echelon rows), one row per pivot, ordered by pivot column.
    """
    by_lead: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            lead = min(row)
            piv = by_lead.get(lead)
            if piv is None:
                by_lead[lead] = row
                break
            pv, v = piv[lead], row[lead]
            new = {c: pv * val for c, val in row.items()}
            for c, val in piv.items():
                nv = new.get(c, 0) - v * val
                if nv:
                    new[c] = nv
                else:
                    new.pop(c, None)
            row = _normalize_int_row(new)
    pivots = sorted(by_lead)
    return pivots, [by_lead[p] for p in pivots]


def _rref(rows: Iterable[dict[int, Fraction]]) -> tuple[list[int], list[dict[int, Fraction]]]:
    """Reduced row echelon form over the rationals (pivots scaled to 1,
    eliminated above), computed through the integer kernel."""
    pivots, ech = _echelon_int(_to_int_row(r) for r in rows)
    frac_rows: list[dict[int, Fraction]] = []
    for p, row in zip(pivots, ech):
        pv = row[p]
        frac_rows.append({c: Fraction(v, pv) for c, v in row.items()})
    for s in range(len(pivots) - 1, -1, -1):
        ps = pivots[s]
        src = frac_rows[s]
        for t in range(s):
            f = frac_rows[t].get(ps)
            if f is None:
                continue
            tgt = dict(frac_rows[t])
            for c, v in src.items():
                nv = tgt.get(c, _F0) - f * v
                if nv:
                    tgt[c] = nv
                else:
                    tgt.pop(c, None)
            frac_rows[t] = tgt
    return pivots, frac_rows


def _nullspace_from_rref(
    pivots: list[int], rows: list[dict[int, Fraction]], ncols: int
) -> list[dict[int, Fraction]]:
    piv_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in piv_set:
            continue
        vec = {free: _F1}
        for p, row in zip(pivots, rows):
            v = row.get(free)
            if v:
                vec[p] = -v
        basis.append(vec)
    return basis


def _rank_and_nullspace(rows, ncols) -> tuple[int, list[dict[int, Fraction]]]:
    pivots, rref_rows = _rref(rows)
    return len(pivots), _nullspace_from_rref(pivots, rref_rows, ncols)


def exact_rank(matrix: Sequence[Sequence]) -> tuple[int, list[list[Fraction]]]:
    """Exact rank and nullspace basis of a dense rational matrix.

    Accepts rows of ints/Fractions; returns (rank, basis vectors as dense
    Fraction lists, one per free column, in column order).
    """
    if not matrix:
        return 0, []
    ncols = len(matrix[0])
    rows = []
    for raw in matrix:
        if len(raw) != ncols:
            raise ValueError("ragged matrix")
        rows.append({c: v for c, v in enumerate(map(_frac, raw)) if v})
    rank, null = _rank_and_nullspace(rows, ncols)
    dense = [[vec.get(c, _F0) for c in range(ncols)] for vec in null]
    return rank, dense


# ---------------------------------------------------------------------------
# Cocycle system assembly and the solver proper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CocycleSystem:
    """The assembled linear system: sparse rows over pair-indexed unknowns."""

    n_unknowns: int
    pairs: tuple[tuple[int, int], ...]
    rows: tuple[dict[int, Fraction], ...]

    @property
    def n_equations(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class CohomologyResult:
    dim_z2: int
    dim_b2: int
    dim_h2: int
    z2_basis: tuple[TwoCochain, ...]
    b2_basis: tuple[TwoCochain, ...]
    h2_representatives: tuple[TwoCochain, ...]

    def to_json_obj(self, algebra=None) -> dict:
        return {
            "dim_z2": self.dim_z2,
            "dim_b2": self.dim_b2,
            "dim_h2": self.dim_h2,
            "representatives": [
                xi.to_json_obj(algebra) for xi in self.h2_representatives
            ],
        }


class CohomologySolver:
    """Caches the assembled system, Z2/B2 bases and triviality reducer for
    one algebra, so repeated cochain queries stay cheap."""

    def __init__(self, algebra):
        self.algebra = getattr(algebra, "algebra", algebra)
        r = self.algebra.dim
        self.pairs = tuple((i, j) for i in range(r) for j in range(i + 1, r))
        self.pair_index = {pair: t for t, pair in enumerate(self.pairs)}
        self.n_unknowns = len(self.pairs)
        self._system: CocycleSystem | None = None
        self._z2: tuple[list[int], list[dict[int, Fraction]]] | None = None
        self._b2: tuple[list[int], list[dict[int, Fraction]]] | None = None

    # -- assembly -----------------------------------------------------------

    def _unknown(self, k: int, l: int) -> tuple[int, int] | None:
        """(column, sign) of xi_kl, or None on the diagonal."""
        if k == l:
            return None
        if k < l:
            return self.pair_index[(k, l)], 1
        return self.pair_index[(l, k)], -1

    def system(self) -> CocycleSystem:
        if self._system is None:
            L = self.algebra
            rows = []
            for i, j, l in combinations(range(L.dim), 3):
                acc: dict[int, Fraction] = {}
                for (u, v), third in (((i, j), l), ((j, l), i), ((l, i), j)):
                    for k, c in L.bracket(u, v).items():
                        hit = self._unknown(k, third)
                        if hit is None:
                            continue
                        col, sign = hit
                        nv = acc.get(col, _F0) + (c if sign > 0 else -c)
                        if nv:
                            acc[col] = nv
                        else:
                            acc.pop(col, None)
                if acc:
                    rows.append(acc)
            self._system = CocycleSystem(self.n_unknowns, self.pairs, tuple(rows))
        return self._system

    # -- vector conversions ---------------------------------------------------

    def cochain_vector(self, xi: TwoCochain) -> dict[int, Fraction]:
        if xi.dim != self.algebra.dim:
            raise ValueError("cochain dimension does not match the algebra")
        return {self.pair_index[pair]: v for pair, v in xi.entries.items()}

    def vector_cochain(self, vec: dict[int, Fraction]) -> TwoCochain:
        return TwoCochain(
            self.algebra.dim, {self.pairs[col]: v for col, v in vec.items()}
        )

    # -- spaces ----------------------------------------------------------------

    def _z2_data(self):
        if self._z2 is None:
            sys_ = self.system()
            _, null = _rank_and_nullspace(list(sys_.rows), sys_.n_unknowns)
            self._z2 = _rref(null)
        return self._z2

    def _b2_data(self):
        if self._b2 is None:
            L = self.algebra
            rows = []
            for k in range(L.dim):
                row: dict[int, Fraction] = {}
                for (i, j), terms in L.constants.items():
                    c = terms.get(k)
                    if c:
                        row[self.pair_index[(i, j)]] = c
                if row:
                    rows.append(row)
            self._b2 = _rref(rows)
        return self._b2

    def result(self) -> CohomologyResult:
        z_pivots, z_rows = self._z2_data()
        b_pivots, b_rows = self._b2_data()
        b_set = set(b_pivots)
        reps = [
            self.vector_cochain(row)
            for p, row in zip(z_pivots, z_rows)
            if p not in b_set
        ]
        dim_z2 = len(z_pivots)
        dim_b2 = len(b_pivots)
        return CohomologyResult(
            dim_z2=dim_z2,
            dim_b2=dim_b2,
            dim_h2=dim_z2 - dim_b2,
            z2_basis=tuple(self.vector_cochain(row) for row in z_rows),
            b2_basis=tuple(self.vector_cochain(row) for row in b_rows),
            h2_representatives=tuple(reps),
        )

    # -- cochain queries ---------------------------------------------------------

    def is_cocycle(self, xi: TwoCochain) -> bool:
        vec = self.cochain_vector(xi)
        if not vec:
            return True
        for row in self.system().rows:
            s = _F0
            for col, c in row.items():
                v = vec.get(col)
                if v:
                    s += c * v
            if s:
                return False
        return True

    def is_coboundary(self, xi: TwoCochain) -> bool:
        """True iff xi lies in the span of B2.  Does not test the cocycle
        equations; see :meth:`is_trivial` for the checked form."""
        vec = dict(self.cochain_vector(xi))
        b_pivots, b_rows = self._b2_data()
        for p, row in zip(b_pivots, b_rows):
            f = vec.get(p)
            if not f:
                continue
            for c, v in row.items():
                nv = vec.get(c, _F0) - f * v
                if nv:
                    vec[c] = nv
                else:
                    vec.pop(c, None)
        return not vec

    def is_trivial(self, xi: TwoCochain) -> bool:
        """True iff xi is a coboundary.  Rejects non-cocycles: an input that
        fails the cocycle equations is not an extension at all."""
        if not self.is_cocycle(xi):
            raise ValueError("cochain is not a cocycle")
        return self.is_coboundary(xi)


# ---------------------------------------------------------------------------
# Functional API
# ---------------------------------------------------------------------------


def coboundary(mu, L) -> TwoCochain:
    """The 2-coboundary of mu: xi_ij = sum_k C_ij^k mu_k."""
    algebra = getattr(L, "algebra", L)
    values = mu.values if isinstance(mu, OneCochain) else OneCochain(mu).values
    if len(values) != algebra.dim:
        raise ValueError("mu dimension does not match the algebra")
    entries: dict[tuple[int, int], Fraction] = {}
    for (i, j), terms in algebra.constants.items():
        s = _F0
        for k, c in terms.items():
            v = values[k]
            if v:
                s += c * v
        if s:
            entries[(i, j)] = s
    return TwoCochain(algebra.dim, entries)


def h2(L) -> CohomologyResult:
    """Dimensions of Z2, B2 and H2 plus canonical representative cocycles."""
    return CohomologySolver(L).result()
