"""Structure-constant core for the four generator families.

`build_algebra` fills the sparse bracket table of every family from one
closed-form rule set, as the families are the antihermitian matrices over
R (so), C (su, u) and H (sq): one loop over ordered pairs of units of the
scalar kind (1 over R; 1 and i over C; 1, i_1, i_2, i_3 over H) gives every
row between off-diagonal generators, signed by the unit product, and only
the rows of the diagonal generators (the torus of su/u, the units E of sq)
are family-specific.
The rules run once per (family, N), on symbolic weights: the cached shape
holds each constant as a monomial (coef, ks), an integer times the range
product w_ab = omega_{a+1} ... omega_b, and each omega fills fresh constant
dicts from `OmegaVector.evaluate`, as the extension catalog does.
`from_matrices` rebuilds the same constants by commuting the matrix
generators, reading each commutator's coordinates off its cells and proving
them by an integer recomposition, with neither the shape nor the evaluator
and no elimination.  `matrix_match`, which the commands call, commutes only
the pairs that hold a generator and compares those rows; with Jacobi, that
equals the comparison of the whole tables.  Jacobi verification lives here
too.

`verify_jacobi` is exact but runs in Python integers, on the constants with
their denominators cleared once.  It checks only the triples that hold one
of a greedy set of generators, which suffices for any antisymmetric table,
and visits each nonzero bracket composition of those once, under its
triple's smallest index, with one flat accumulator per index.

Index conventions throughout: whenever three indices a, b, c appear they
satisfy a < b < c; four indices a < b, d < e are pairwise distinct; there is
no implied summation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import lcm

from .ck_matrix import (
    FAMILY_KIND,
    B,
    E,
    GeneratorLabel,
    J,
    Kind,
    M,
    MatrixOverK,
    NotInSpanError,
    OmegaVector,
    build_generator,
    labels_for_family,
    mat_commutator,
)


class LieAlgebra:
    """Finite-dimensional real Lie algebra given by labeled basis + constants.

    `constants` is the bracket table {(i, j): {k: C_ij^k}}, stored sparsely
    and keyed by index pairs (i, j) with i < j; antisymmetry is implicit:
    [X_j, X_i] is the negated row (i, j).  The table is checked when the
    algebra is made: ValueError unless the labels are distinct, every key is
    a pair of ints 0 <= i < j < dim and every term a nonzero constant at an
    int index 0 <= k < dim, and TypeError for a constant that is not an int
    or a Fraction (a float or a bool included).  The same loop takes `scale`,
    the lcm d of the denominators that `integer_constants` scales by.
    The constants are not mutated after construction: a changed table is a
    new `LieAlgebra`.
    """

    __slots__ = ("family", "omega", "basis", "constants", "scale", "_integer", "_generators")

    def __init__(self, family, omega, basis, constants):
        self.family = family
        self.omega = omega
        self.basis = tuple(basis)
        self._integer = self._generators = None
        if len(set(self.basis)) < len(self.basis):
            raise ValueError("basis labels must be distinct")
        r = self.dim
        d = 1
        for (i, j), terms in constants.items():
            if type(i) is not int or type(j) is not int or not 0 <= i < j < r:
                raise ValueError(f"bracket key {(i, j)!r} is not a pair of ints 0 <= i < j < {r}")
            for k, c in terms.items():
                if type(k) is not int or not 0 <= k < r:
                    raise ValueError(f"bracket {(i, j)} has a term at index {k!r}, outside 0..{r - 1}")
                if type(c) is not Fraction and type(c) is not int:
                    raise TypeError(f"bracket {(i, j)} has a {type(c).__name__} constant {c!r}")
                if not c:
                    raise ValueError(f"bracket {(i, j)} stores a zero constant at index {k}")
                d = lcm(d, c.denominator)
        self.constants: dict[tuple[int, int], dict[int, Fraction]] = constants
        self.scale = d

    @property
    def dim(self) -> int:
        return len(self.basis)

    def structure_rows(self):
        """Yield (i, j, k, c) with i < j, sorted, over nonzero constants."""
        for (i, j), terms in sorted(self.constants.items()):
            for k in sorted(terms):
                yield i, j, k, terms[k]

    def integer_constants(self) -> dict[tuple[int, int], dict[int, int]]:
        """The constants scaled by d, the lcm of their denominators, as ints.

        Every exact check here is homogeneous in the constants, so it gives
        the same verdict, rank or space on d*C as on C.  Computed on the first
        call and shared by later ones, so callers must not mutate it.
        """
        if self._integer is None:
            d = self.scale
            self._integer = {
                pair: {k: c.numerator * (d // c.denominator) for k, c in terms.items()}
                for pair, terms in self.constants.items()
            }
        return self._integer

    def generators(self) -> list[int]:
        """Indices of basis elements that generate the algebra, greedily in
        basis order: an index joins unless the closure of the earlier ones
        holds it, where a row [X_p, X_q] of two members whose terms are all
        members but one makes that one a member.  Each new member visits once
        the rows it brackets into and the rows of several terms that hold it
        (a one-term row whose term is a member adds nothing).  Computed on the
        first call and shared by later ones, so callers must not mutate it."""
        if self._generators is None:
            dim = self.dim
            touch = [[] for _ in range(dim)]
            for (p, q), row in self.constants.items():
                item = (p, q, row)
                touch[p].append(item)
                touch[q].append(item)
                if len(row) > 1:
                    for k in row:
                        touch[k].append(item)
            member = [False] * dim
            gens = []
            for g in range(dim):
                if member[g]:
                    continue
                gens.append(g)
                member[g] = True
                stack = [g]
                while stack:
                    for p, q, row in touch[stack.pop()]:
                        if member[p] and member[q]:
                            out = [k for k in row if not member[k]]
                            if len(out) == 1:
                                member[out[0]] = True
                                stack += out
            self._generators = gens
        return self._generators

    def __repr__(self) -> str:
        om = self.omega.text() if self.omega is not None else "?"
        return f"LieAlgebra({self.family}, omega=({om}), dim={self.dim})"


def _unit_product(u: int, v: int) -> tuple[int, int]:
    """(t, sign) with i_u i_v = sign * i_t, on the units (1, i_1, i_2, i_3)
    numbered 0..3: i_0 = 1 is neutral, i_u i_u = -1, and distinct imaginary
    units give i_t, t = 6 - u - v, with sign +1 exactly when v follows u in
    the cycle 1 -> 2 -> 3 -> 1 (i_1 i_2 = i_3)."""
    if not u or not v:
        return u + v, 1
    if u == v:
        return 0, -1
    return 6 - u - v, 1 if (v - u) % 3 == 1 else -1


class _Builder:
    """Collects rows of (k, monomial number) terms, ordered and collision-checked."""

    def __init__(self, labels):
        self.index = {lab: i for i, lab in enumerate(labels)}
        self.monomials: dict[tuple[int, tuple[int, ...]], int] = {}
        self.rows: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}

    def put(self, u: GeneratorLabel, v: GeneratorLabel, terms: dict[GeneratorLabel, tuple]):
        """Store [u, v] = sum of coef * w(ks) * label over terms {label: (coef, ks)}."""
        i, j = self.index[u], self.index[v]
        if i == j:
            raise ValueError(f"bracket of {u} with itself")
        i, j, sign = (i, j, 1) if i < j else (j, i, -1)
        if (i, j) in self.rows:
            raise ValueError(f"bracket ({u}, {v}) assigned twice")
        monos = self.monomials
        self.rows[(i, j)] = tuple(
            (self.index[lab], monos.setdefault((sign * coef, ks), len(monos)))
            for lab, (coef, ks) in terms.items()
        )


def _put_torus_rows(bld: _Builder, n: int, w: dict[tuple[int, int], tuple[int, ...]]):
    """The su/u rows of the torus generators B(l)."""
    for (a, b), ks in w.items():
        for l in range(1, n + 1):
            kappa = (a == l - 1) - (b == l - 1) + (b == l) - (a == l)
            if kappa:
                bld.put(J(a, b), B(l), {M(a, b): (kappa, ())})
                bld.put(M(a, b), B(l), {J(a, b): (-kappa, ())})
        bld.put(J(a, b), M(a, b), {B(s): (-2, ks) for s in range(a + 1, b + 1)})


def _put_quaternion_rows(bld: _Builder, n: int, w: dict[tuple[int, int], tuple[int, ...]], X):
    """The sq rows of the units E(v, a) = i_v e_aa, with i_u i_v = rho i_t and
    i_v i_u = sigma i_t: [X(u,a,b), E(v,a)] = rho X(t,a,b) and
    [X(u,a,b), E(v,b)] = -sigma X(t,a,b); for u < v, the same-pair row
    [X(u,a,b), X(v,a,b)] = 2 w_ab (rho E(t,b) - sigma E(t,a)) and, for
    imaginary u, [E(u,a), E(v,a)] = 2 rho E(t,a)."""
    for u, v in product(range(4), (1, 2, 3)):
        t, rho = _unit_product(u, v)
        sigma = _unit_product(v, u)[1]
        for (a, b), ks in w.items():
            bld.put(X[u, a, b], E(v, a), {X[t, a, b]: (rho, ())})
            bld.put(X[u, a, b], E(v, b), {X[t, a, b]: (-sigma, ())})
            if u < v:
                bld.put(X[u, a, b], X[v, a, b], {E(t, a): (-2 * sigma, ks), E(t, b): (2 * rho, ks)})
        if 0 < u < v:
            for a in range(n + 1):
                bld.put(E(u, a), E(v, a), {E(t, a): (2 * rho, ())})


@lru_cache(maxsize=None, typed=True)
def _shape(family: str, n: int):
    """The bracket table of `family` with N = n for a symbolic omega.

    Returns the basis labels, the distinct monomials (coef, ks) and the rows
    ((i, j), ((k, m), ...)), meaning [X_i, X_j] = sum of monomial m times
    X_k, in insertion order.  Built once per (family, n) and immutable, so
    every omega shares it.
    """
    labels = labels_for_family(family, n)
    kind = FAMILY_KIND[family]
    bld = _Builder(labels)
    w = {(a, b): tuple(range(a + 1, b + 1)) for a, b in combinations(range(n + 1), 2)}
    triples = list(combinations(range(n + 1), 3))
    # X[u, a, b] = i_u (s_u w_ab e_ab + e_ba) over the units 0 .. 2**kind - 1 of
    # R, C or H: J for u = 0 (s_0 = -1), M or Mq(u) for imaginary u (s_u = +1).
    # The basis opens with them, one block per unit, each over the pairs in w.
    units = range(2**kind)
    X = dict(zip([(u, a, b) for u in units for a, b in w], labels))
    for u, v in product(units, repeat=2):
        t, sigma = _unit_product(v, u)
        s_u, s_v = (1 if u else -1), (1 if v else -1)
        for a, b, c in triples:
            bld.put(X[u, a, b], X[v, a, c], {X[t, b, c]: (-s_u * sigma, w[a, b])})
            bld.put(X[u, a, b], X[v, b, c], {X[t, a, c]: (-sigma, ())})
            bld.put(X[u, a, c], X[v, b, c], {X[t, a, b]: (-s_v * sigma, w[b, c])})
    if kind == Kind.COMPLEX:
        _put_torus_rows(bld, n, w)
    elif kind == Kind.QUATERNION:
        _put_quaternion_rows(bld, n, w, X)
    return labels, tuple(bld.monomials), tuple(bld.rows.items())


def build_algebra(family: str, omega) -> LieAlgebra:
    """The closed-form bracket table of `family` at `omega`.

    so, su/u and sq are the metric-antihermitian matrices over R, C and H,
    and share one rule set (a < b < c, w_ab = omega_{a+1} ... omega_b).  Each
    off-diagonal generator is X(u,a,b) = i_u (s_u w_ab e_ab + e_ba) for a
    unit u of the scalar kind: J(a,b) for u = 0 (i_0 = 1, s_0 = -1), and for
    an imaginary unit (s_u = +1) M(a,b) over C or Mq(u,a,b) over H.  For
    every ordered pair of units (u, v), with i_v i_u = sigma i_t:

    * [X(u,a,b), X(v,a,c)] = -s_u sigma w_ab X(t,b,c);
    * [X(u,a,b), X(v,b,c)] = -sigma X(t,a,c);
    * [X(u,a,c), X(v,b,c)] = -s_v sigma w_bc X(t,a,b).

    Only the rows of the diagonal generators differ: the torus rows of
    B(l) over C (the phase I of u is central), and over H the rows of the
    units E(alpha, a), from the same unit product.

    The rules run once per (family, N), on symbolic weights (`_shape`); each
    omega then evaluates each distinct monomial once and drops the zeros,
    into constant dicts of its own.  The rules never read the matrices, and
    the matrix route reads neither the shape nor the evaluator:
    `from_matrices` is the route that checks them.
    """
    om = OmegaVector.coerce(omega)
    labels, monomials, rows = _shape(family, om.n)
    v = om.evaluate(monomials)
    constants: dict[tuple[int, int], dict[int, Fraction]] = {}
    for pair, terms in rows:
        out = {k: v[m] for k, m in terms if v[m]}
        if out:
            constants[pair] = out
    return LieAlgebra(family, om, labels, constants)


def verify_jacobi(L: LieAlgebra) -> bool:
    """Exact Jacobi check: is [[X_i,X_q],X_r] + [[X_q,X_r],X_i] + [[X_r,X_i],X_q]
    zero for every index triple i < q < r?

    Only the triples that hold a generator (`LieAlgebra.generators()`) are
    checked, which is exact for every antisymmetric table, Lie or not.  The
    Jacobiator J is trilinear and alternating, and J(x, ., .) = 0 says that
    ad_x is a derivation, so the set D of such x is a subspace.  D is closed
    under the bracket: for x1, x2 in D, ad_[x1,x2] = [ad_x1, ad_x2], a
    commutator of two derivations.  So if D holds the generators, D is the
    whole algebra.  Each member that the closure adds is its bracket minus
    the other terms, divided by a nonzero constant, so it lies in the
    generated subalgebra.  With the table relabelled, its g generators first,
    a triple holds a generator exactly when its smallest index is below g.

    The check runs in Python integers, on the constants scaled by the lcm d
    of their denominators: J is quadratic, so it scales by d**2 and a nonzero
    entry stays nonzero.  Each nonzero composition [[X_p, X_q], X_r] of
    distinct indices is visited once, under the smallest index i < g of its
    triple, into one flat accumulator per i keyed (q*dim + r)*dim + m for the
    triple i < q < r:

    * (a) [[X_i, X_q], X_r], distinct q, r > i: + into (i, q, r) if q < r,
      else - into (i, r, q), as [[X_q, X_i], X_r];
    * (b) [[X_p, X_q], X_i] = sum_k C_pq^k [X_k, X_i], i < p < q, from the
      rows (p, q) holding X_k, largest p first.
    """
    dim = L.dim
    gens = L.generators()
    pos = [0] * dim  # old index -> new index
    for new, old in enumerate(gens + sorted(set(range(dim)).difference(gens))):
        pos[old] = new
    rows = []
    for (p, q), row in L.integer_constants().items():
        p, q = pos[p], pos[q]
        if p < q:
            rows.append((p, q, {pos[k]: c for k, c in row.items()}))
        else:
            rows.append((q, p, {pos[k]: -c for k, c in row.items()}))
    rows.sort(reverse=True)
    # adj[k][r]: d*[X_k, X_r] for both orders; holds[k][p, q]: d*C_pq^k; both
    # in the new labels, filled largest index first.
    adj = [{} for _ in range(dim)]
    holds = [{} for _ in range(dim)]
    for p, q, row in rows:
        adj[p][q] = row
        adj[q][p] = {k: -c for k, c in row.items()}
        for k, c in row.items():
            holds[k][p, q] = c
    for i, adj_i in enumerate(adj[: len(gens)]):
        acc = {}
        for q, row in adj_i.items():  # (a)
            if q <= i:
                break
            for k, c in row.items():
                for r, kr in adj[k].items():
                    if r <= i:
                        break
                    if r == q:
                        continue
                    if q < r:
                        base, s = (q * dim + r) * dim, c
                    else:
                        base, s = (r * dim + q) * dim, -c
                    for m, c2 in kr.items():
                        key = base + m
                        acc[key] = acc.get(key, 0) + s * c2
        for k, row in adj_i.items():  # (b): [X_k, X_i] = -[X_i, X_k]
            for (p, q), c in holds[k].items():
                if p <= i:
                    break
                base = (p * dim + q) * dim
                for m, c2 in row.items():
                    key = base + m
                    acc[key] = acc.get(key, 0) - c * c2
        if any(acc.values()):
            return False
    return True


def from_matrices(family: str, omega, pairs=None) -> LieAlgebra:
    """Rebuild the structure constants from matrix commutators, of the index
    pairs i < j in `pairs`, all C(dim, 2) by default: the table holds the
    rows of those pairs alone.

    Each generator G_k is scaled once by the lcm D_k of its denominators, so
    [G_i, G_j] comes out of `mat_commutator` as an integer component row c
    over the scale D_i * D_j.  Its coordinates are read off the generators'
    cells (`GeneratorLabel.cells()`): a generator of one cell holds 1, in its
    unit, at the largest column of its row.  Over C the torus B(l), two
    cells, takes the prefix sum d_0 + ... + d_{l-1} of the imaginary diagonal
    d, and the phase I, no cells, takes nothing: a commutator has trace zero.

    Nothing read off is trusted: the recomposition sum_k c[lead_k] * D_k G_k
    must equal D_col * c in every column, D_col being the scale of the one
    generator whose support holds the column (1 on the torus diagonal, whose
    generators are integer).  No other generator holds a leading cell, where
    the two agree by the choice of coordinate, so each generator's row keeps
    its other cells and the comparison runs over the other columns.  Any
    difference, a column off every support or a nonzero trace included,
    means the matrix algebra did not close, which the construction rules
    out, so it raises NotInSpanError.
    """
    om = OmegaVector.coerce(omega)
    labels = labels_for_family(family, om.n)
    d = om.n + 1
    mats, rows, scales, torus = [], [], [], []
    lead: dict[int, int] = {}  # leading column -> generator
    col_scale: dict[int, int] = {}  # column -> scale of the generator holding it
    for k, lab in enumerate(labels):
        mat = build_generator(family, lab, om)
        s = lcm(*(v.denominator for _, v in mat.cells.values()))
        cells = {ij: (u, v.numerator * (s // v.denominator)) for ij, (u, v) in mat.cells.items()}
        mats.append(MatrixOverK(d, mat.kind, cells))
        scales.append(s)
        row = mats[-1].row()
        where = lab.cells()[1]
        if where:  # I holds no cells
            col_scale.update(dict.fromkeys(row, s))
            if len(where) == 2:  # the torus B(l)
                torus.append(k)
            else:
                top = max(row)
                lead[top] = k
                del row[top]
        rows.append(row)
    diag = [(a * d + a) * 4 + 1 for a in range(d)]
    constants: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, j in combinations(range(len(labels)), 2) if pairs is None else pairs:
        c = mat_commutator(mats[i], mats[j])
        if not c:
            continue
        coords = {lead[col]: v for col, v in c.items() if col in lead}
        prefix = 0
        for k, col in zip(torus, diag):
            prefix += c.get(col, 0)
            if prefix:
                coords[k] = prefix
        total: dict[int, int] = {}
        for k, x in coords.items():
            for col, v in rows[k].items():
                total[col] = total.get(col, 0) + x * v
        # A column off every support has scale 0, which no sum of rows holds.
        if {col: v for col, v in total.items() if v} != {
            col: col_scale.get(col, 0) * v for col, v in c.items() if col not in lead
        }:
            raise NotInSpanError(f"[{labels[i]}, {labels[j]}] is not in the span of the generators")
        s = scales[i] * scales[j]
        constants[(i, j)] = {k: Fraction(x, s) for k, x in coords.items()}
    return LieAlgebra(family, om, labels, constants)


def matrix_match(L: LieAlgebra, jacobi_ok: bool) -> bool:
    """Does the closed-form table L, Lie by `jacobi_ok`, equal the matrix
    commutator table?  Only the g(dim-1) - C(g, 2) index pairs that hold one
    of its g generators (`LieAlgebra.generators()`) are commuted and
    compared.

    That is the whole comparison on a Lie table.  Let phi send X_k to its
    matrix G_k; the x with phi[x, y] = [phi x, phi y] for every y form a
    subspace D.  If L satisfies Jacobi, D is closed under the bracket, as
    commutators satisfy Jacobi: for x1, x2 in D,
    phi[[x1, x2], y] = [[phi x1, phi x2], phi y].  So once D holds the
    generators it is all of L.  A table that fails Jacobi never equals a
    commutator table, hence `jacobi_ok and`.  Every other commutator is then
    phi of a bracket, so only a generator row can raise NotInSpanError.
    """
    gens = L.generators()
    member = set(gens)
    pairs = [(min(g, x), max(g, x)) for g in gens for x in range(L.dim) if x > g or x not in member]
    M = from_matrices(L.family, L.omega, pairs)
    return jacobi_ok and all(L.constants.get(p) == M.constants.get(p) for p in pairs)
