"""Exact second cohomology of a structure-constant Lie algebra.

The unknowns are the antisymmetric extension coefficients xi_ij (i < j, so
m = r(r-1)/2 of them).  Each index triple i < j < l contributes one linear
equation

    sum_k ( C_ij^k xi_kl + C_jl^k xi_ki + C_li^k xi_kj ) = 0,

assembled in one nested loop over i < j < l with the three bracket terms
inline, xi_kl read as -xi_lk whenever k > l.  Z2 is its exact nullspace, B2
is spanned by the maps mu |-> (xi_ij = sum_k C_ij^k mu_k), and dim H2 =
dim Z2 - dim B2 counts inequivalent nontrivial central extensions.

Everything runs in Python integers: the equations and the coboundary rows
are linear in the constants, so scaling them by the lcm of their
denominators leaves Z2 and B2 unchanged.  A cochain is its integer column
vector {pair_index[(i, j)]: int}, and delta(e_k) is the k-th coboundary row,
the only coboundary built here.  The fraction-free kernel, defined here
and used nowhere else, first takes out the columns of single-entry rows
(most equations say xi_c = 0); its forward elimination then gives the dims
alone (dim Z2 = unknowns - rank of the system, dim B2 = rank of the
coboundary rows), which `CohomologySolver(L).result()` returns, and a
cochain is a coboundary exactly when its integer vector leaves no residue
against the B2 echelon.
The cocycle test evaluates only the equations that hold a nonzero column of
the cochain.  Only the representatives that the `h2` command prints need a
basis: the system echelon is back-substituted, its integer nullspace
reduced in turn, and each Z2 row divided by its pivot into a plain
{(i, j): Fraction} map, the only Fractions made here.  The RREF of a row
space, and so its set of pivot columns, is unique, so nothing depends on
row order or on the pre-pass.  A wrong rank here would be a wrong theorem,
so no floating point is allowed.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm


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


# ---------------------------------------------------------------------------
# Back-substitution and nullspace over the kernel's integer echelon
# ---------------------------------------------------------------------------


def _rref(echelon: dict[int, dict[int, int]]) -> tuple[list[int], list[dict[int, int]]]:
    """Integer reduced row echelon form of a forward echelon: row s leads
    column pivots[s] and is zero in every other pivot column; dividing it by
    its leading entry gives the rational RREF row.

    Back-substitution runs from the last pivot to the first.  Each row is
    cleared, in one fraction-free combination, against the already-reduced
    rows of just the pivot columns it holds.
    """
    done: dict[int, dict[int, int]] = {}
    for p, row in sorted(echelon.items(), reverse=True):
        hits = [c for c in row if c in done]
        if hits:
            m = lcm(*(done[c][c] for c in hits))
            new = {c: m * v for c, v in row.items()}
            for c in hits:
                f = row[c] * (m // done[c][c])
                for c2, v in done[c].items():
                    new[c2] = new.get(c2, 0) - f * v
            row = _normalize_int_row({c: v for c, v in new.items() if v})
        done[p] = row
    pivots = sorted(done)
    return pivots, [done[p] for p in pivots]


def _nullspace(pivots: list[int], rows: list[dict[int, int]], ncols: int) -> list[dict[int, int]]:
    """Integer nullspace basis of an integer RREF, one vector per free column
    f in column order, scaled by the lcm of the pivot entries that meet f."""
    meets: dict[int, list[tuple[int, int, int]]] = {}
    for p, row in zip(pivots, rows):
        a = row[p]
        for c, v in row.items():
            if c != p:
                meets.setdefault(c, []).append((p, v, a))
    piv_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in piv_set:
            continue
        hits = meets.get(free, ())
        m = lcm(*(a for _, _, a in hits))
        vec = {free: m}
        for p, v, a in hits:
            vec[p] = -v * (m // a)
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# Cocycle system assembly and the solver proper
# ---------------------------------------------------------------------------


class CocycleSystem(namedtuple("CocycleSystem", "n_unknowns rows")):
    """The assembled linear system: sparse integer rows over pair-indexed
    unknowns, one per index triple whose equation is not identically zero.
    The rows are those of the constants scaled by the lcm of their
    denominators; the equations are linear in the constants, so the scaling
    leaves the solution space unchanged."""

    __slots__ = ()

    @property
    def n_equations(self) -> int:
        return len(self.rows)


CohomologyResult = namedtuple("CohomologyResult", "dim_z2 dim_b2 dim_h2")


class CohomologySolver:
    """Caches, for one algebra, the assembled system and its echelon, the B2
    echelon, the dims, the Z2 basis and the column index of the cocycle
    test, so repeated cochain queries stay cheap.  Only the Z2 basis holds
    Fractions.

    The cochain queries take a cochain as its integer column vector
    {pair_index[(i, j)]: int}, with no zero values.  Each query is
    homogeneous, so every nonzero multiple of a cochain gets the same
    answer.
    """

    def __init__(self, algebra):
        self.algebra = algebra
        r = algebra.dim
        self.pairs = tuple((i, j) for i in range(r) for j in range(i + 1, r))
        self.pair_index = {pair: t for t, pair in enumerate(self.pairs)}
        self.n_unknowns = len(self.pairs)
        self._system: CocycleSystem | None = None
        self._echelon: dict[int, dict[int, int]] | None = None
        self._b2: dict[int, dict[int, int]] | None = None
        self._result: CohomologyResult | None = None
        self._z2: dict[int, dict[tuple[int, int], Fraction]] | None = None
        self._by_column: list[list[int]] | None = None

    # -- assembly -----------------------------------------------------------

    def system(self) -> CocycleSystem:
        if self._system is None:
            r = self.algebra.dim
            # brk[i][j]: the terms of d*[X_i, X_j] for i < j, else None;
            # col[t][k]: the column of xi_kt, whichever of k, t is smaller.
            brk: list[list[dict[int, int] | None]] = [[None] * r for _ in range(r)]
            for (i, j), terms in self.algebra.integer_constants().items():
                brk[i][j] = terms
            col = [[0] * r for _ in range(r)]
            for x, (i, j) in enumerate(self.pairs):
                col[i][j] = col[j][i] = x
            rows = []
            # xi([X_i, X_j], X_l) + xi([X_j, X_l], X_i) - xi([X_i, X_l], X_j), xi_kt = -xi_tk
            for i in range(r):
                bi, col_i = brk[i], col[i]
                for j in range(i + 1, r):
                    bij, bj, col_j = bi[j], brk[j], col[j]
                    for l in range(j + 1, r):
                        acc: dict[int, int] = {}
                        if bij:
                            col_l = col[l]
                            for k, c in bij.items():
                                if k != l:
                                    acc[col_l[k]] = c if k < l else -c
                        terms = bj[l]
                        if terms:
                            for k, c in terms.items():
                                if k != i:
                                    x = col_i[k]
                                    acc[x] = acc.get(x, 0) + (c if k < i else -c)
                        terms = bi[l]
                        if terms:
                            for k, c in terms.items():
                                if k != j:
                                    x = col_j[k]
                                    acc[x] = acc.get(x, 0) + (-c if k < j else c)
                        row = {x: c for x, c in acc.items() if c}
                        if row:
                            rows.append(row)
            self._system = CocycleSystem(self.n_unknowns, tuple(rows))
        return self._system

    def _system_echelon(self) -> dict[int, dict[int, int]]:
        if self._echelon is None:
            self._echelon = _echelon_int(self.system().rows)
        return self._echelon

    def coboundary_rows(self) -> list[dict[int, int]]:
        """The column vectors of delta(e_k), k = 0..dim-1: xi_ij = C_ij^k at
        column ij, in the scaled integer constants (empty for a central X_k)."""
        rows: list[dict[int, int]] = [{} for _ in range(self.algebra.dim)]
        for pair, terms in self.algebra.integer_constants().items():
            col = self.pair_index[pair]
            for k, c in terms.items():
                rows[k][col] = c
        return rows

    def _b2_echelon(self) -> dict[int, dict[int, int]]:
        """Forward echelon of the coboundary rows."""
        if self._b2 is None:
            self._b2 = _echelon_int([row for row in self.coboundary_rows() if row])
        return self._b2

    # -- spaces ----------------------------------------------------------------

    def result(self) -> CohomologyResult:
        """dim Z2 = unknowns - rank of the system echelon, dim B2 = rank of
        the B2 echelon; memoized.  No back-substitution, no Fraction."""
        if self._result is None:
            dim_z2 = self.n_unknowns - len(self._system_echelon())
            dim_b2 = len(self._b2_echelon())
            self._result = CohomologyResult(dim_z2, dim_b2, dim_z2 - dim_b2)
        return self._result

    def z2_basis(self) -> dict[int, dict[tuple[int, int], Fraction]]:
        """The reduced row echelon basis of Z2, {pivot column: cochain} in
        column order, each cochain {(i, j): xi_ij} over i < j with no zero
        value; memoized.  The cached system echelon is back-substituted, its
        integer nullspace echeloned and reduced, and each row divided by its
        leading entry: the only Fractions the solver makes."""
        if self._z2 is None:
            null = _nullspace(*_rref(self._system_echelon()), self.n_unknowns)
            pairs = self.pairs
            self._z2 = {
                p: {pairs[c]: Fraction(v, row[p]) for c, v in row.items()}
                for p, row in zip(*_rref(_echelon_int(null)))
            }
        return self._z2

    def representatives(self) -> tuple[dict[tuple[int, int], Fraction], ...]:
        """The Z2 basis rows whose pivots B2 lacks: dim H2 nontrivial
        cocycles, canonical because the RREF of a row space is unique."""
        return tuple(xi for p, xi in self.z2_basis().items() if p not in self._b2_echelon())

    # -- cochain queries ---------------------------------------------------------

    def is_cocycle(self, vec: dict[int, int]) -> bool:
        """Exact: only the equations that hold a nonzero column of vec are
        evaluated, and every other equation sums to zero on it."""
        rows = self.system().rows
        if self._by_column is None:
            self._by_column = [[] for _ in range(self.n_unknowns)]
            for t, row in enumerate(rows):
                for c in row:
                    self._by_column[c].append(t)
        touched = set()
        for c in vec:
            touched.update(self._by_column[c])
        for t in touched:
            if sum(v * vec.get(c, 0) for c, v in rows[t].items()):
                return False
        return True

    def is_coboundary(self, vec: dict[int, int]) -> bool:
        """True iff vec lies in the span of B2: it reduces to nothing against
        the B2 echelon.  Does not test the cocycle equations."""
        return not _reduce(vec, self._b2_echelon())

    def rank_mod_b2(self, vectors: Iterable[dict[int, int]]) -> int:
        """The number of the vectors independent modulo B2: the pivots they
        add to the B2 echelon rows."""
        b2 = self._b2_echelon()
        return len(_echelon_int([*b2.values(), *vectors])) - len(b2)

