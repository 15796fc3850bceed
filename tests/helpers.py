"""Plain, independent reference implementations used as test oracles.

Everything here is deliberately naive: dense Fraction Gauss-Jordan with no
shared code, integer tricks or sparsity, so it can arbitrate the package's
elimination kernel, cohomology dimensions and bases; the cocycle test and
the Jacobi check walk every index triple in Fractions, reading each bracket
from `L.constants` through `bracket` and never from the solver's integer
tables, the generation oracle grows a span by the brackets of its vectors,
the coboundary sums every bracket term in Fractions, the Killing Gram
pairs the bracket terms of `integer_constants` and its signature is
Lagrange's reduction in Fractions, neither with anything from
`cklie.cohomology`, and the quaternion product is the full 16-term
formula.  The dense commutator of two matrices, each entry a
(w, x, y, z) quadruple of Fractions and each product of nonzero entries
that formula, arbitrates the package's single-unit commutator.

A 2-cochain here is a plain map {(i, j): Fraction} over i < j with no zero
value, the form `CohomologySolver.z2_basis` and `classify.removals` return;
a 1-cochain mu is a map {k: rational}, a missing k meaning 0.

The last section holds test-side tools that are not oracles: a basis
permutation, seeded random bracket tables, a label-keyed bracket, the
dimension formulas, signed-prime omegas, the cochain of an integer solver
row, the adapters that drive the package's own elimination kernel and a
runner for fresh interpreters.  It also holds the conveniences that only
tests use: omega sign patterns and zero sets, sums and multiples of
cochains, a cochain's integer column vector, a catalog entry's cochain by
name, the dense triviality test, the centrally extended algebra, the
elimination-free bounds on dim B2 from the closed-form H1 characters and
`range_case`, what acceptance criteria 12-14 and `tools/proven_range.py`
read of one zero set.  No oracle calls them.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import lcm
from pathlib import Path

from cklie.ck_matrix import I_LABEL, B, GeneratorLabel, J, OmegaVector, _frac
from cklie.classify import crosscheck, predict, removals
from cklie.cohomology import _echelon_int, _nullspace
from cklie.lie_core import LieAlgebra, verify_jacobi

# Filled by the acceptance tests, echoed by the conftest terminal summary.
CRITERION_LINES: list[str] = []


def dense_rref(matrix):
    """Gauss-Jordan over Fractions; returns (pivot columns, rref rows).

    Rows stay dense lists, but a row operation touches only the nonzero
    entries of the pivot row, and only nonzero entries become Fractions."""
    zero = Fraction(0)
    rows = [[Fraction(v) if v else zero for v in row] for row in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for t in range(r, len(rows)):
            if rows[t][c]:
                pivot = t
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pv = prow[c]
        nonzero = [k for k in range(c, ncols) if prow[k]]
        for k in nonzero:
            prow[k] /= pv
        for t, row in enumerate(rows):
            f = row[c]
            if t != r and f:
                for k in nonzero:
                    row[k] -= f * prow[k]
        pivots.append(c)
        r += 1
    return pivots, rows[: len(pivots)]


def dense_rank(matrix):
    return len(dense_rref(matrix)[0])


def dense_nullspace(matrix, ncols):
    pivots, rows = dense_rref(matrix)
    piv_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in piv_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for p, row in zip(pivots, rows):
            if row[free]:
                vec[p] = -row[free]
        basis.append(vec)
    return basis


def bracket(L, i, j):
    """Coefficients {k: C_ij^k} of [X_i, X_j] for any index order, read from
    `L.constants` (the row (j, i) negated when j < i), empty if zero."""
    if i < j:
        return L.constants.get((i, j), {})
    return {k: -c for k, c in L.constants.get((j, i), {}).items()}


def oracle_cocycle_system(L):
    """The cohomology equations straight from the definitions, densely.

    Unknowns are xi_ij over pairs i < j; one equation per triple from the
    bracket table, in Fractions; the coboundary matrix rows are the images
    of the basis shifts.  Returns (pairs, equations, coboundary rows).
    """
    r = L.dim
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    pair_pos = {p: t for t, p in enumerate(pairs)}
    m = len(pairs)

    def xi_column(k, l):
        if k == l:
            return None
        if k < l:
            return pair_pos[(k, l)], 1
        return pair_pos[(l, k)], -1

    equations = []
    for i, j, l in combinations(range(r), 3):
        row = [Fraction(0)] * m
        for (u, v), third in (((i, j), l), ((j, l), i), ((l, i), j)):
            for k, c in bracket(L, u, v).items():
                hit = xi_column(k, third)
                if hit is not None:
                    col, sign = hit
                    row[col] += c if sign > 0 else -c
        equations.append(row)
    cob = []
    for k in range(r):
        row = [Fraction(0)] * m
        for (i, j), terms in L.constants.items():
            c = terms.get(k)
            if c:
                row[pair_pos[(i, j)]] = c
        cob.append(row)
    return pairs, equations, cob


def oracle_h2_dims(L):
    """dim Z2, dim B2 and dim H2 by dense ranks of the oracle system."""
    pairs, equations, cob = oracle_cocycle_system(L)
    m = len(pairs)
    dim_z2 = m - dense_rank(equations) if equations else m
    dim_b2 = dense_rank(cob) if cob else 0
    return dim_z2, dim_b2, dim_z2 - dim_b2


def oracle_h2_bases(L):
    """The RREF bases of Z2 (of the dense nullspace) and of B2, each vector
    as its nonzero entries {(i, j): Fraction}."""
    pairs, equations, cob = oracle_cocycle_system(L)
    _, z2 = dense_rref(dense_nullspace(equations, len(pairs)))
    _, b2 = dense_rref(cob)
    return (
        [{pairs[c]: v for c, v in enumerate(row) if v} for row in z2],
        [{pairs[c]: v for c, v in enumerate(row) if v} for row in b2],
    )


def cochain_value(xi, i, j):
    """xi_ij for any index order, read from the stored entries i < j
    (antisymmetric, zero on the diagonal)."""
    if i == j:
        return Fraction(0)
    if i < j:
        return xi.get((i, j), Fraction(0))
    return -xi.get((j, i), Fraction(0))


def oracle_coboundary(L, mu):
    """delta(mu) straight from the definition, xi_ij = sum_k C_ij^k mu_k,
    in Fractions over every bracket of `L.constants`, with the zero sums
    dropped.  The oracle for the solver's integer coboundary rows and for
    the removal identities; delta(e_k) is oracle_coboundary(L, {k: 1})."""
    xi = {}
    for pair, terms in L.constants.items():
        v = sum((c * mu.get(k, 0) for k, c in terms.items()), Fraction(0))
        if v:
            xi[pair] = v
    return xi


def oracle_is_cocycle(L, xi):
    """xi([X_i,X_j],X_l) + xi([X_j,X_l],X_i) + xi([X_l,X_i],X_j) == 0 for
    every index triple, evaluated from `bracket` and the entries
    of xi."""
    for i, j, l in combinations(range(L.dim), 3):
        total = Fraction(0)
        for (u, v), third in (((i, j), l), ((j, l), i), ((l, i), j)):
            for k, c in bracket(L, u, v).items():
                total += c * cochain_value(xi, k, third)
        if total:
            return False
    return True


def oracle_jacobi(L):
    """Jacobi identity over every index triple i < j < l, in Fractions."""
    for i, j, l in combinations(range(L.dim), 3):
        acc = {}
        for (u, v), third in (((i, j), l), ((j, l), i), ((l, i), j)):
            for k, c in bracket(L, u, v).items():
                for m, c2 in bracket(L, k, third).items():
                    acc[m] = acc.get(m, Fraction(0)) + c * c2
        if any(acc.values()):
            return False
    return True


def oracle_generated_dim(L, gens):
    """Dimension of the subalgebra that the basis elements at `gens` generate:
    their span, grown by the bracket of each pair of its vectors, read from
    `bracket`, until every pair is bracketed and the span stops growing, or
    it holds every basis element.  Dense exact vectors whose zeros are plain
    ints; each new vector is reduced against the earlier ones in the order
    they came, so they stay independent."""
    r = L.dim
    span = []  # (pivot, nonzero entries of a vector 1 at the pivot, 0 at earlier pivots)

    def grow(vec):
        for p, row in span:
            f = vec[p]
            if f:
                for c, b in row:
                    vec[c] -= f * b
        lead = next((c for c, a in enumerate(vec) if a), None)
        if lead is not None:
            span.append((lead, [(c, Fraction(a, vec[lead])) for c, a in enumerate(vec) if a]))

    for g in gens:
        grow([int(k == g) for k in range(r)])
    new = 0
    while new < len(span) < r:
        for _, u in span[:new]:
            vec = [0] * r
            for i, a in u:
                for j, b in span[new][1]:
                    for k, c in bracket(L, i, j).items():
                        vec[k] += a * b * c
            grow(vec)
            if len(span) == r:
                break
        new += 1
    return len(span)


def killing_gram(L):
    """The Killing form K(X_i, X_j) = tr(ad X_i ad X_j) on the basis, times
    d**2, as integers {(i, j): value} with no zero value, both orders
    stored: it reads the constants scaled by d, the lcm of their
    denominators (`LieAlgebra.integer_constants`), each row in both orders,
    and d**2 > 0 keeps the signature.  (ad X_i) has entry C_ik^m at row m,
    column k, so K_ij = sum over k, m of C_ik^m C_jm^k: each term
    [X_i, X_k] = c X_m meets each term [X_j, X_m] = c' X_k."""
    terms = [
        term
        for (i, k), row in L.integer_constants().items()
        for m, c in row.items()
        for term in ((i, k, m, c), (k, i, m, -c))
    ]
    into = {}  # into[m, k]: the (j, c') with [X_j, X_m] = c' X_k + ...
    for j, m, k, c in terms:
        into.setdefault((m, k), []).append((j, c))
    gram = {}
    for i, k, m, c in terms:
        for j, c2 in into.get((m, k), ()):
            gram[i, j] = gram.get((i, j), 0) + c * c2
    return {ij: v for ij, v in gram.items() if v}


def signature(gram):
    """(positive, negative) squares of the symmetric form {(i, j): value},
    by Lagrange's reduction in Fractions: each nonzero diagonal entry in
    turn is a pivot whose square is split off and whose row and column are
    cleared from the rest.  The rank is their sum.  A nonzero form whose
    diagonal has become zero would need a change of basis that the Killing
    forms of the acceptance criteria never call for, so it raises
    ArithmeticError."""
    rows = {}
    for (i, j), v in gram.items():
        rows.setdefault(i, {})[j] = Fraction(v)
    pos = neg = 0
    while True:
        rows = {i: row for i, row in rows.items() if row}
        if not rows:
            return pos, neg
        piv = next((i for i, row in rows.items() if i in row), None)
        if piv is None:
            raise ArithmeticError("no nonzero diagonal entry is left to pivot on")
        prow = rows.pop(piv)
        d = prow.pop(piv)
        pos, neg = pos + (d > 0), neg + (d < 0)
        for r, v in prow.items():
            f = v / d
            row = rows[r]
            del row[piv]
            for c, w in prow.items():
                x = row.get(c, 0) - f * w
                if x:
                    row[c] = x
                else:
                    row.pop(c, None)


def oracle_quaternion_product(a, b):
    """Components (w, x, y, z) of the quaternion product a * b, all 16 terms."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def oracle_commutator(X, Y):
    """XY - YX over dense grids of (w, x, y, z) Fraction quadruples, every
    product of two nonzero entries formed by `oracle_quaternion_product` and
    summed, as the component row {(i * dim + j) * 4 + t: Fraction}."""
    d = X.dim
    zero = (Fraction(0),) * 4

    def grid(mat):
        rows = [[zero] * d for _ in range(d)]
        for (i, j), (u, v) in mat.cells.items():
            rows[i][j] = tuple(Fraction(v) if t == u else Fraction(0) for t in range(4))
        return rows

    x, y = grid(X), grid(Y)
    row = {}
    for i in range(d):
        for j in range(d):
            total = list(zero)
            for k in range(d):
                for a, b, sign in ((x[i][k], y[k][j], 1), (y[i][k], x[k][j], -1)):
                    if a != zero and b != zero:
                        for t, c in enumerate(oracle_quaternion_product(a, b)):
                            total[t] += sign * c
            for t, c in enumerate(total):
                if c:
                    row[(i * d + j) * 4 + t] = c
    return row


# ---------------------------------------------------------------------------
# Test-side tools (not oracles)
# ---------------------------------------------------------------------------

# Real dimension of each family as a function of N.
FAMILY_DIMENSION = {
    "so": lambda n: n * (n + 1) // 2,
    "su": lambda n: (n + 1) ** 2 - 1,
    "u": lambda n: (n + 1) ** 2,
    "sq": lambda n: 2 * (n + 1) ** 2 + (n + 1),
}


# Signed primes: with no zero entry, every range product omega_{a+1} ... omega_b
# is a different number, so a constant read from the wrong range cannot agree
# by accident as it can among the +-1 products of sign patterns.
SIGNED_PRIMES = (
    Fraction(2), Fraction(-3), Fraction(5, 7), Fraction(-11), Fraction(13, 17), Fraction(-19, 23)
)


def prime_omegas(n):
    """The first n signed primes, then the same with a zero at each position."""
    base = SIGNED_PRIMES[:n]
    yield base
    for p in range(n):
        yield base[:p] + (Fraction(0),) + base[p + 1:]


def bracket_of(L, u, v):
    """[u, v] for generator labels u, v, as {label: coefficient}."""
    return {L.basis[k]: c for k, c in bracket(L, L.basis.index(u), L.basis.index(v)).items()}


def omega_signs(omega):
    """The sign of each coefficient: 1, 0 or -1."""
    return tuple((c > 0) - (c < 0) for c in OmegaVector.coerce(omega))


def zero_set(omega):
    """1-based indices of the vanishing coefficients."""
    return frozenset(k for k, c in enumerate(OmegaVector.coerce(omega), 1) if not c)


def with_zeros(omega, indices):
    """Copy of omega with the listed 1-based entries set to zero."""
    om = OmegaVector.coerce(omega)
    idx = set(indices)
    for k in idx:
        if not 1 <= k <= om.n:
            raise ValueError(f"omega index {k} out of range 1..{om.n}")
    return OmegaVector(0 if k in idx else c for k, c in enumerate(om, 1))


def cochain_sum(*cochains):
    """The sum of cochains, with the zero sums dropped."""
    total = {}
    for xi in cochains:
        for pair, v in xi.items():
            total[pair] = total.get(pair, 0) + v
    return {pair: v for pair, v in total.items() if v}


def scaled(xi, scalar):
    """The cochain scalar * xi; a float or bool scalar raises TypeError."""
    f = _frac(scalar)
    return {pair: v * f for pair, v in xi.items() if f}


def lcm_scaled(items):
    """The lcm m of the values' denominators and the sparse integer vector
    {key: m * value} of the (key, value) pairs."""
    items = list(items)
    m = lcm(*(v.denominator for _, v in items))
    return m, {c: v.numerator * (m // v.denominator) for c, v in items}


def int_vector(solver, xi):
    """The solver's column vector of the cochain xi, scaled by the lcm of
    its denominators."""
    return lcm_scaled((solver.pair_index[pair], v) for pair, v in xi.items())[1]


def coefficient_cocycle(family, omega, name, value=1):
    """The cochain of one named catalog entry: its slots, each scaled by value."""
    value = _frac(value)
    om = OmegaVector.coerce(omega)
    for entry in predict(family, om):
        if entry.name == name:
            return {(i, j): c * value for i, j, c in entry.slots if value}
    raise ValueError(f"coefficient {name!r} is not in the {family} catalog for n={om.n}")


def is_trivial(L, xi):
    """True iff the cochain xi is a coboundary: adding it to the oracle's
    coboundary rows leaves their dense rank unchanged.  ValueError if it
    fails an oracle equation, since such a cochain is not an extension at
    all."""
    pairs, equations, cob = oracle_cocycle_system(L)
    vec = [cochain_value(xi, i, j) for i, j in pairs]
    if any(sum(a * b for a, b in zip(eq, vec)) for eq in equations):
        raise ValueError("cochain is not a cocycle")
    return dense_rank(cob + [vec]) == dense_rank(cob)


def xi_label(t):
    """The label of the t-th central generator that `build_extended` adjoins."""
    return GeneratorLabel("Xi", (t,))


def build_extended(L, cochains):
    """L with one central generator xi_label(t) adjoined at index L.dim + t
    for the t-th cochain, whose values are its extension coefficients: it
    satisfies the Jacobi identity exactly when every cochain solves the
    cocycle equations of L."""
    r = L.dim
    constants = {pair: dict(terms) for pair, terms in L.constants.items()}
    for t, xi in enumerate(cochains):
        if not all(0 <= i < j < r for i, j in xi):
            raise ValueError(f"cochain pair outside 0 <= i < j < {r}")
        for (i, j), value in xi.items():
            constants.setdefault((i, j), {})[r + t] = value
    basis = [*L.basis, *map(xi_label, range(len(cochains)))]
    return LieAlgebra(L.family, L.omega, basis, constants)


def h1_characters(L):
    """The closed-form H1 characters of a Cayley-Klein algebra at its omega,
    dim H1 = dim g - dim [g, g] of them, each the dual of one basis element,
    given by its label: for so the J(k-1,k), k in 1..N, with (k = 1 or
    omega_{k-1} = 0) and (k = N or omega_{k+1} = 0), which no bracket
    reaches; for su the torus duals B(k) with omega_k = 0, since
    [J(a,b), M(a,b)] = -2 w_ab (B(a+1) + ... + B(b)); for u those and the
    phase I; for sq none."""
    om, n = L.omega, L.omega.n
    if L.family == "so":
        ks = range(1, n + 1)
        return [J(k - 1, k) for k in ks if (k == 1 or not om[k - 2]) and (k == n or not om[k])]
    if L.family == "sq":
        return []
    torus = [B(k) for k in range(1, n + 1) if not om[k - 1]]
    return torus + [I_LABEL] if L.family == "u" else torus


def b2_certificate(L):
    """Bounds on dim B2 = dim [g, g] with no elimination, as (lower bound in
    basis order, lower bound in reversed order, upper bound).

    Nonzero vectors with distinct leading entries are independent, so the
    number of distinct leading labels of the bracket values, the smallest
    index of each in basis order and the largest in reversed order, is at
    most dim [g, g].  The characters of `h1_characters` that kill every
    bracket value kill [g, g], and as duals of distinct basis elements they
    are independent: dim [g, g] <= dim g - their number."""
    values = list(L.constants.values())
    killers = [k for k in map(L.basis.index, h1_characters(L)) if all(k not in t for t in values)]
    return len({min(t) for t in values}), len({max(t) for t in values}), L.dim - len(killers)


def row_cochain(solver, row):
    """The cochain of an integer row over the solver's pair columns."""
    return {solver.pairs[c]: v for c, v in row.items()}


def permute_basis(L, perm):
    """Same algebra on a permuted basis: new basis[p] = old basis[perm[p]]."""
    perm = list(perm)
    r = L.dim
    if sorted(perm) != list(range(r)):
        raise ValueError("perm must be a permutation of 0..dim-1")
    inv = [0] * r
    for p, old in enumerate(perm):
        inv[old] = p
    basis = [L.basis[old] for old in perm]
    constants = {}
    for (i, j), terms in L.constants.items():
        p, q = inv[i], inv[j]
        sign = 1
        if p > q:
            p, q = q, p
            sign = -1
        constants[(p, q)] = {inv[k]: Fraction(sign) * c for k, c in terms.items()}
    return LieAlgebra(L.family, L.omega, basis, constants)


def random_tables(count, seed=3131):
    """(constants, algebra) of hand-built sparse tables on 3 to 7 basis
    elements, multi-term and with a denominator 2 now and then; most of them
    fail the Jacobi identity."""
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(3, 7)
        constants = {}
        for pair in combinations(range(dim), 2):
            if rng.random() < 0.45:
                ks = rng.sample(range(dim), rng.choice((1, 1, 2, 3)))
                constants[pair] = {k: rng.choice((-2, -1, 1, 1, Fraction(1, 2))) for k in ks}
        yield constants, LieAlgebra(None, None, [J(0, k) for k in range(1, dim + 1)], constants)


def kernel_rref(rref):
    """The rational RREF rows, {column: Fraction}, in pivot order, of the
    package kernel's integer RREF {pivot column: row}."""
    return [{c: Fraction(v, row[p]) for c, v in row.items()} for p, row in sorted(rref.items())]


def integer_rows(matrix):
    """The kernel's input for a dense rational matrix: each row as sparse
    integers {column: value}, scaled by the lcm of its denominators, with
    no zero entries."""
    rows = []
    for raw in matrix:
        vals = [Fraction(v) for v in raw]
        d = lcm(*(v.denominator for v in vals))
        rows.append({c: v.numerator * (d // v.denominator) for c, v in enumerate(vals) if v})
    return rows


def kernel_rank(matrix):
    """Rank and nullspace basis of a dense rational matrix through the
    package's kernel: the integer RREF from `cohomology._echelon_int`, then
    its `_nullspace`.

    Each row goes in as sparse integers, scaled by the lcm of its
    denominators; each basis vector comes out dense in Fractions, 1 at its
    free column, one per free column in column order.
    """
    if not matrix:
        return 0, []
    ncols = len(matrix[0])
    rref = _echelon_int(integer_rows(matrix))
    free = [c for c in range(ncols) if c not in rref]
    null = _nullspace(rref, ncols)
    return len(rref), [
        [Fraction(vec.get(c, 0), vec[f]) for c in range(ncols)] for f, vec in zip(free, null)
    ]


def range_case(family: str, z: tuple[int, ...]) -> dict:
    """One crosscheck at the 0/1 pattern z, and what criteria 12, 13 and 14
    read of it; the report itself is not kept."""
    report = crosscheck(family, z)
    solver = report.solver
    L = solver.algebra
    # At a 0/1 omega the constants are integers, so the solver's row of
    # delta(e_g) is delta(e_g) itself.
    rows = solver.coboundary_rows()
    identities = [
        rows[L.basis.index(g)] == {solver.pair_index[p]: v for p, v in rhs.items()}
        for g, rhs in removals(predict(family, z)).items()
    ]
    derived = L.dim - len(h1_characters(L))  # dim [g, g]
    reps = solver.representatives()
    ext = build_extended(L, reps)
    values = [[terms.get(k, 0) for k in range(ext.dim)] for terms in ext.constants.values()]
    return {
        "row": (
            report.n_zeros, report.dim_z2, report.dim_b2, report.dim_h2,
            report.predicted, report.match,
        ),
        "closed_forms": (report.dim_b2, report.dim_z2) == (derived, derived + report.predicted),
        "identities": identities,
        "extension": (
            len(reps) == report.dim_h2,
            verify_jacobi(ext),
            dense_rank(values) == derived + report.dim_h2,
        ),
        "b2_bounds": b2_certificate(L),
    }


def run_fresh(*argv: str) -> str:
    """Standard output of a fresh interpreter run with the arguments argv,
    e.g. "-c", code, with this checkout's package on the path; what it
    imports is what a launch pays."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
