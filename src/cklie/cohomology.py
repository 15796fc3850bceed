"""Exact second cohomology of a structure-constant Lie algebra.

The unknowns are the antisymmetric extension coefficients xi_ij (i < j, so
m = r(r-1)/2 of them).  Each index triple i < j < l contributes one linear
equation

    sum_k ( C_ij^k xi_kl + C_jl^k xi_ki + C_li^k xi_kj ) = 0,

assembled in one nested loop over i < j < l with the three bracket terms
inline, xi_kl read as -xi_lk whenever k > l.  Only the triples that hold a
member of `LieAlgebra.generators()` are assembled, and of those the ones with
no bracket are skipped: on a Lie algebra these equations alone cut out Z2
(`CohomologySolver.system`), and the solver proves the table Lie from the
RREF of those rows before it answers, raising ArithmeticError otherwise.
Z2 is the exact nullspace, B2 is spanned by the maps
mu |-> (xi_ij = sum_k C_ij^k mu_k), and dim H2 = dim Z2 - dim B2 counts
inequivalent nontrivial central extensions.

Everything runs in Python integers: the equations and the coboundary rows
are linear in the constants, so scaling them by the lcm of their
denominators leaves Z2 and B2 unchanged.  A cochain is its integer column
vector {pair_index[(i, j)]: int}, and delta(e_k) is the k-th coboundary row,
the only coboundary built here.  The fraction-free kernel, defined here
and used nowhere else, first takes out the columns of single-entry rows
(most equations say xi_c = 0), then keeps its echelon reduced as rows
arrive and returns the integer RREF.  Its length gives the dims (dim Z2 =
unknowns - rank of the system, dim B2 = rank of the coboundary rows), which
`CohomologySolver(L).result()` returns.  The cocycle test evaluates only
the equations that hold a nonzero column of the cochain.  Only the
representatives that the `h2` command prints, when dim H2 > 0, need a
basis: the integer nullspace of the system RREF is echeloned in turn and
each Z2 row divided by its pivot into a plain {(i, j): Fraction} map, the
only Fractions made here.  The RREF of a row space, and so its set of
pivot columns, is unique, so nothing depends on row order or on the
pre-pass.  A wrong rank here would be a wrong theorem, so no floating
point is allowed.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
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


def _clear(row: dict[int, int], col: int, piv: dict[int, int]) -> dict[int, int]:
    """Clear column col of row in place, and return it, by the pivot row piv
    of that column: an integer multiple of piv is subtracted when its entry
    divides the row's, else the two are cross-multiplied.  No gcd is taken."""
    pv, v = piv[col], row[col]
    q, rem = divmod(v, pv)
    if rem:
        for c in row:
            row[c] *= pv
        q = v
    for c, val in piv.items():
        nv = row.get(c, 0) - q * val
        if nv:
            row[c] = nv
        else:
            del row[c]
    return row


def _reduce(row: dict[int, int], rref: dict[int, dict[int, int]]) -> dict[int, int]:
    """Clear row on each pivot column it holds, in one pass, since an RREF
    row holds no pivot column but its own.  The residue is empty exactly when
    row lies in the RREF's span; row itself is not modified."""
    hits = [c for c in row if c in rref]
    if hits:
        row = dict(row)
        for col in hits:
            _clear(row, col, rref[col])
    return row


def _echelon_int(rows: Sequence[dict[int, int]]) -> dict[int, dict[int, int]]:
    """The integer RREF of the rows, {pivot column: row}, each row
    gcd-normalized with a positive lead and zero in every other pivot
    column; its length is the rank.  Each row's nonzero residue under
    :func:`_reduce` becomes the pivot row of its leading column, which is
    then cleared from the pivot rows that hold it.  The rows are sparse with
    no zero entries, read twice and never modified.  A pre-pass makes one
    unit pivot {c: 1} for each column that a single-entry row holds and
    strips those columns from the other rows: the row space, and so the
    RREF, stays the same."""
    units = {c: {c: 1} for c in dict.fromkeys(c for row in rows if len(row) == 1 for c in row)}
    rref = dict(units)
    holders: dict[int, set[int]] = {}  # column -> leads of rows that may hold it
    for row in rows:
        if len(row) > 1:
            if not units.keys().isdisjoint(row):
                row = {c: v for c, v in row.items() if c not in units}
            row = _reduce(row, rref)
            if row:
                row = _normalize_int_row(row)
                p = min(row)
                touched = [p]  # the rows that may now hold row's other columns
                for q in holders.pop(p, ()):
                    old = rref[q]
                    if p in old:  # else a later clearing freed it of p
                        rref[q] = _normalize_int_row(_clear(dict(old), p, row))
                        touched.append(q)
                for c in row:
                    if c != p:
                        holders.setdefault(c, set()).update(touched)
                rref[p] = row
    return rref


# ---------------------------------------------------------------------------
# Nullspace of the kernel's integer RREF
# ---------------------------------------------------------------------------


def _nullspace(rref: dict[int, dict[int, int]], ncols: int) -> list[dict[int, int]]:
    """Integer nullspace basis of an integer RREF, one vector per free column
    f in column order, scaled by the lcm of the pivot entries that meet f."""
    meets: dict[int, list[tuple[int, int, int]]] = {}
    for p, row in rref.items():
        a = row[p]
        for c, v in row.items():
            if c != p:
                meets.setdefault(c, []).append((p, v, a))
    basis = []
    for free in range(ncols):
        if free in rref:
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
    unknowns, one per index triple that holds a generator and whose
    equation is not identically zero.
    The rows are those of the constants scaled by the lcm of their
    denominators; the equations are linear in the constants, so the scaling
    leaves the solution space unchanged."""

    __slots__ = ()

    @property
    def n_equations(self) -> int:
        return len(self.rows)


CohomologyResult = namedtuple("CohomologyResult", "dim_z2 dim_b2 dim_h2")


class CohomologySolver:
    """Caches, for one algebra, the assembled system and its RREF, the B2
    RREF, the dims, the Z2 basis and the column index of the cocycle
    test, so repeated cochain queries stay cheap.  Only the Z2 basis holds
    Fractions.  It answers only for a Lie table: the dims, the
    representatives and `is_cocycle` first prove Jacobi from the system
    RREF and raise ArithmeticError if it fails.

    `is_cocycle` takes a cochain as its integer column vector
    {pair_index[(i, j)]: int}, with no zero values; it is homogeneous, so
    every nonzero multiple of a cochain gets the same answer.
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
        """The equations of the triples i < j < l that hold a generator
        (`LieAlgebra.generators()`), in triple order; the assembly never leans
        on Jacobi.  On a Lie algebra they cut out Z2: by the Cartan identities
        i_[x,y] = [L_x, i_y] and L_x = d i_x + i_x d with d^2 = 0
        (Chevalley-Eilenberg 1948), the x with i_x d xi = 0 form a subalgebra
        for a fixed 2-cochain xi, as i_[x,y] d xi = L_x i_y d xi -
        i_y (d i_x + i_x d) d xi = 0 for two of them.

        `_system_echelon` proves that Jacobi from these rows.  A triple's
        equation sends delta(e_m) = ((p, q) |-> C_pq^m) to e_m of the triple's
        Jacobiator, which is so sum_c row[c] * (C at pair c), and zero for a
        triple left out for want of a bracket.  So Jacobi holds on the triples
        that hold a generator exactly when every row of the system RREF sends
        the bracket table to zero (a unit row {c: 1}: pair c has no bracket),
        and then on all triples, by the derivation argument of
        `lie_core.verify_jacobi`."""
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
            # reach[i]: the l > i with [X_i, X_l] != 0; later[j]: the generators l > j.
            reach = [{l for l in range(i + 1, r) if brk[i][l]} for i in range(r)]
            gens = set(self.algebra.generators())
            later = [sorted(g for g in gens if g > j) for j in range(r)]
            rows = []
            # xi([X_i, X_j], X_l) + xi([X_j, X_l], X_i) - xi([X_i, X_l], X_j), xi_kt = -xi_tk
            for i in range(r):
                bi, col_i, tail, i_gen = brk[i], col[i], set(reach[i]), i in gens
                for j in range(i + 1, r):
                    bij, bj, col_j = bi[j], brk[j], col[j]
                    # With [X_i, X_j] = 0, only the l > j that X_i or X_j reaches;
                    # with neither i nor j a generator, only the generators l > j.
                    tail.discard(j)
                    if i_gen or j in gens:
                        ls = range(j + 1, r) if bij else sorted(tail.union(reach[j]))
                    elif bij:
                        ls = later[j]
                    else:
                        ls = [l for l in later[j] if l in tail or l in reach[j]]
                    for l in ls:
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
                        if 0 in acc.values():
                            acc = {x: c for x, c in acc.items() if c}
                        if acc:
                            rows.append(acc)
            self._system = CocycleSystem(self.n_unknowns, tuple(rows))
        return self._system

    def _system_echelon(self) -> dict[int, dict[int, int]]:
        """The system RREF, once it proves the table Lie, else
        ArithmeticError: every RREF row must send the bracket table to zero,
        sum_c row[c] * (d*C at pair c) = 0 (see `system`)."""
        if self._echelon is None:
            rref = _echelon_int(self.system().rows)
            brk = {self.pair_index[p]: t for p, t in self.algebra.integer_constants().items()}
            for row in rref.values():
                jac: dict[int, int] = {}
                for c, v in row.items():
                    for k, t in brk.get(c, {}).items():
                        jac[k] = jac.get(k, 0) + v * t
                if any(jac.values()):
                    raise ArithmeticError(f"{self.algebra!r} fails the Jacobi identity")
            self._echelon = rref
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
        """Integer RREF of the coboundary rows."""
        if self._b2 is None:
            self._b2 = _echelon_int([row for row in self.coboundary_rows() if row])
        return self._b2

    # -- spaces ----------------------------------------------------------------

    def result(self) -> CohomologyResult:
        """dim Z2 = unknowns - rank of the system RREF, dim B2 = rank of the
        B2 RREF; memoized.  No nullspace, no Fraction."""
        if self._result is None:
            dim_z2 = self.n_unknowns - len(self._system_echelon())
            dim_b2 = len(self._b2_echelon())
            self._result = CohomologyResult(dim_z2, dim_b2, dim_z2 - dim_b2)
        return self._result

    def z2_basis(self) -> dict[int, dict[tuple[int, int], Fraction]]:
        """The reduced row echelon basis of Z2, {pivot column: cochain} in
        column order, each cochain {(i, j): xi_ij} over i < j with no zero
        value; memoized.  The kernel's RREF of the system RREF's nullspace,
        each row divided by its leading entry: the only Fractions made here."""
        if self._z2 is None:
            null = _nullspace(self._system_echelon(), self.n_unknowns)
            pairs = self.pairs
            self._z2 = {
                p: {pairs[c]: Fraction(v, row[p]) for c, v in row.items()}
                for p, row in sorted(_echelon_int(null).items())
            }
        return self._z2

    def representatives(self) -> tuple[dict[tuple[int, int], Fraction], ...]:
        """The Z2 basis rows whose pivots B2 lacks: dim H2 nontrivial cocycles,
        canonical because an RREF is unique.  B2 lies in Z2, so its pivots are
        among Z2's and no Z2 basis is built when dim H2 = 0."""
        if not self.result().dim_h2:
            return ()
        return tuple(xi for p, xi in self.z2_basis().items() if p not in self._b2_echelon())

    # -- cochain queries ---------------------------------------------------------

    def is_cocycle(self, vec: dict[int, int]) -> bool:
        """Exact once the system RREF proves the table Lie, which runs
        first: the rows of the triples that hold a generator cut out Z2.
        Only the equations that hold a nonzero column of vec are evaluated,
        and every other equation sums to zero on it."""
        self._system_echelon()
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
