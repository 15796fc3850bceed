"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All assertions are exact (tolerance 0); the only non-exact bounds are the
stated wall-clock budgets.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from helpers import (
    CRITERION_LINES,
    int_vector,
    killing_gram,
    oracle_coboundary,
    oracle_h2_dims,
    permute_basis,
    range_case,
    signature,
)

from cklie.ck_matrix import OmegaVector
from cklie.classify import certify_rescaling, crosscheck, predict, removals
from cklie.cohomology import CohomologySolver
from cklie.lie_core import build_algebra, from_matrices, verify_jacobi


def announce(num: int, title: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"{status}: criterion {num} - {title}{suffix}"
    print(line)
    CRITERION_LINES.append(line)
    assert ok, f"criterion {num} failed: {title} {suffix}"


def rich_case(family: str, signs: tuple[int, ...]) -> dict:
    """Everything the criteria need for one (family, omega) case."""
    t0 = time.perf_counter()
    report = crosscheck(family, signs)
    solver = report.solver
    L = solver.algebra
    lean_elapsed = time.perf_counter() - t0
    res = solver.result()
    rng = random.Random(f"{family}:{signs}")
    perm = list(range(L.dim))
    rng.shuffle(perm)
    perm_res = CohomologySolver(permute_basis(L, perm)).result()
    return {
        "signs": signs,
        "dims": (res.dim_z2, res.dim_b2, res.dim_h2),
        "predicted": report.predicted,
        "match": report.match,
        "jacobi": verify_jacobi(L),
        "matrix_match": from_matrices(family, signs).constants == L.constants,
        "b2_in_z2": all(
            solver.is_cocycle(row) for row in solver._b2_echelon().values()
        ),
        "dims_identity": res.dim_h2 == res.dim_z2 - res.dim_b2,
        "perm_dims": (perm_res.dim_z2, perm_res.dim_b2, perm_res.dim_h2),
        "lean_elapsed": lean_elapsed,
    }


def sweep_records(family: str, n_range) -> dict:
    records = {}
    for n in n_range:
        for signs in product((-1, 0, 1), repeat=n):
            records[signs] = rich_case(family, signs)
    return records


@pytest.fixture(scope="module")
def so_sweep():
    return sweep_records("so", range(1, 6))


@pytest.fixture(scope="module")
def su_sweep():
    return sweep_records("su", range(1, 4))


@pytest.fixture(scope="module")
def u_sweep():
    return sweep_records("u", range(1, 4))


@pytest.fixture(scope="module")
def sq_sweep():
    return sweep_records("sq", range(1, 3))


def test_c01_whitehead_baseline():
    """so with every coefficient nonzero has no nontrivial extensions."""
    t0 = time.perf_counter()
    bad = []
    cases = 0
    for n in range(2, 6):
        for signs in product((-1, 1), repeat=n):
            cases += 1
            res = CohomologySolver(build_algebra("so", signs)).result()
            if res.dim_h2 != 0:
                bad.append((signs, res.dim_h2))
    elapsed = time.perf_counter() - t0
    announce(
        1,
        "Whitehead baseline: dim H2 = 0 for all +-1 patterns, N=2..5",
        not bad and elapsed < 60.0,
        f"{cases} cases in {elapsed:.1f}s",
    )


def test_c02_euclidean_poincare_line(so_sweep):
    """w1 = 0, all others nonzero: a single extension at N=2, none above."""
    bad = []
    for signs, rec in so_sweep.items():
        n = len(signs)
        if signs[0] == 0 and all(s != 0 for s in signs[1:]) and n >= 2:
            expected = 1 if n == 2 else 0
            if rec["dims"][2] != expected:
                bad.append((signs, rec["dims"][2], expected))
    announce(2, "inhomogeneous line: dim H2 = 1 at N=2, 0 for N=3..5", not bad, str(bad) if bad else "")


def test_c03_galilei_table(so_sweep):
    """w1 = w2 = 0, others nonzero: dims 2, 3, 1, 1 for N = 2..5."""
    expected_by_n = {2: 2, 3: 3, 4: 1, 5: 1}
    bad = []
    for signs, rec in so_sweep.items():
        n = len(signs)
        if n >= 2 and signs[0] == 0 and signs[1] == 0 and all(s != 0 for s in signs[2:]):
            if rec["dims"][2] != expected_by_n[n]:
                bad.append((signs, rec["dims"][2], expected_by_n[n]))
    announce(3, "doubly contracted table reproduced for N=2..5", not bad, str(bad) if bad else "")


def test_c04_flag_algebra(so_sweep):
    """All coefficients zero: dim H2 = 2(N-1) + (N-1)(N-2)/2."""
    bad = []
    for n in range(2, 6):
        signs = (0,) * n
        expected = 2 * (n - 1) + (n - 1) * (n - 2) // 2
        got = so_sweep[signs]["dims"][2]
        if got != expected:
            bad.append((n, got, expected))
    assert so_sweep[(0,) * 5]["dims"][2] == 14
    announce(4, "flag algebra counts 2(N-1) + (N-1)(N-2)/2 for N=2..5", not bad, str(bad) if bad else "")


def test_c05_full_orthogonal_sweep(so_sweep):
    """Solver equals predictor on all 3^N patterns, N = 1..5."""
    mismatches = [s for s, rec in so_sweep.items() if not rec["match"]]
    elapsed = sum(rec["lean_elapsed"] for rec in so_sweep.values())
    announce(
        5,
        "full orthogonal sweep: 363 cases, zero mismatches",
        len(so_sweep) == 363 and not mismatches and elapsed < 300.0,
        f"{len(so_sweep)} cases in {elapsed:.1f}s",
    )


def test_c06_unitary_formulas(su_sweep, u_sweep):
    """dim H2 = n(n+1)/2 for su and n(n+3)/2 for u over all patterns, N=1..3."""
    bad = []
    for signs, rec in su_sweep.items():
        nz = signs.count(0)
        if rec["dims"][2] != nz * (nz + 1) // 2 or not rec["match"]:
            bad.append(("su", signs))
    for signs, rec in u_sweep.items():
        nz = signs.count(0)
        if rec["dims"][2] != nz * (nz + 3) // 2 or not rec["match"]:
            bad.append(("u", signs))
    elapsed = sum(r["lean_elapsed"] for r in su_sweep.values()) + sum(
        r["lean_elapsed"] for r in u_sweep.values()
    )
    announce(
        6,
        "unitary counting formulas over all patterns, N=1..3",
        not bad and elapsed < 300.0,
        f"{len(su_sweep) + len(u_sweep)} cases in {elapsed:.1f}s",
    )


def test_c07_quaternionic_triviality(sq_sweep):
    """sq has dim H2 = 0 for every pattern, N = 1..2."""
    bad = [s for s, rec in sq_sweep.items() if rec["dims"][2] != 0 or not rec["match"]]
    elapsed = sum(rec["lean_elapsed"] for rec in sq_sweep.values())
    announce(
        7,
        "quaternionic triviality: all patterns N=1..2",
        not bad and elapsed < 300.0,
        f"{len(sq_sweep)} cases in {elapsed:.1f}s",
    )


def test_c07_quaternionic_triviality_stretch():
    """sq has dim H2 = 0 for every pattern at N = 3."""
    bad = []
    for signs in product((-1, 0, 1), repeat=3):
        res = CohomologySolver(build_algebra("sq", signs)).result()
        if res.dim_h2 != 0:
            bad.append(signs)
    announce(7, "quaternionic triviality: all patterns N=3", not bad, "27 cases")


def test_c08_matrix_closed_form_equivalence(so_sweep, su_sweep, u_sweep, sq_sweep):
    """Commuting the matrix generators reproduces every bracket table."""
    bad = []
    for family, records in (
        ("so", so_sweep),
        ("su", su_sweep),
        ("u", u_sweep),
        ("sq", sq_sweep),
    ):
        bad += [(family, s) for s, rec in records.items() if not rec["matrix_match"]]
    announce(8, "matrix route equals closed form on every sweep case", not bad, str(bad[:5]) if bad else "")


def test_c09_beta_constraint_equivalence():
    """A beta cochain solves the cocycle system iff its in-range constraint
    factors all vanish; exhaustive over (b, d, sign pattern) for N <= 5."""
    checks = 0
    bad = []
    for n in range(3, 6):
        for signs in product((-1, 0, 1), repeat=n):
            om = OmegaVector.coerce(signs)
            L = build_algebra("so", om)
            solver = CohomologySolver(L)
            catalog = {entry.name: entry for entry in predict("so", om)}
            for b in range(n - 2):
                for d in range(b + 2, n):
                    checks += 1
                    entry = catalog[f"beta[{b + 1},{d + 1}]"]
                    xi = {(i, j): c for i, j, c in entry.slots}
                    if solver.is_cocycle(int_vector(solver, xi)) != entry.active:
                        bad.append((signs, b, d))
    announce(9, "beta cocycle condition == constraint factors", not bad, f"{checks} checks")


def test_c10_pseudoextension_removal():
    """Every type II removal identity of the catalog, delta(e_g) = sum of
    c * xi over the entries with shift (g, c), holds exactly, slot for slot,
    active entries included; exhaustive over the sign patterns of so N <= 5
    and su/u N <= 3, and over the entries -5/2, -1, 0, 2/3, 1 for N <= 3.
    delta(e_g) comes from the Fraction oracle, not from the solver."""
    entries = (-1, 0, 1, Fraction(2, 3), Fraction(-5, 2))
    grids = [(family, n, entries) for family in ("so", "su", "u") for n in (1, 2, 3)]
    grids += [("so", n, (-1, 0, 1)) for n in (4, 5)]
    checks = 0
    bad = []
    for family, n, values in grids:
        for omega in product(values, repeat=n):
            L = build_algebra(family, omega)
            for g, rhs in removals(predict(family, omega)).items():
                checks += 1
                if oracle_coboundary(L, {L.basis.index(g): 1}) != rhs:
                    bad.append((family, omega, g))
    announce(10, "every pseudo-extension removal identity holds exactly", not bad, f"{checks} checks")


def test_c11_property_suite(so_sweep, su_sweep, u_sweep, sq_sweep):
    """Jacobi everywhere, B2 inside Z2, dim identity, permutation invariance,
    sign-class invariance of the dims and zero-set monotonicity of dim H2
    across each family's sweep."""
    all_records = {
        "so": so_sweep,
        "su": su_sweep,
        "u": u_sweep,
        "sq": sq_sweep,
    }
    bad = []
    for family, records in all_records.items():
        for signs, rec in records.items():
            if not rec["jacobi"]:
                bad.append((family, signs, "jacobi"))
            if not rec["b2_in_z2"]:
                bad.append((family, signs, "b2_in_z2"))
            if not rec["dims_identity"]:
                bad.append((family, signs, "dims_identity"))
            if rec["perm_dims"] != rec["dims"]:
                bad.append((family, signs, "permutation"))
        # (dim Z2, dim B2, dim H2) depends only on the zero set of omega: sign
        # flips give real forms of one complex algebra
        by_zero_set = {}
        for signs, rec in records.items():
            zeros = tuple(s == 0 for s in signs)
            if by_zero_set.setdefault(zeros, rec["dims"]) != rec["dims"]:
                bad.append((family, signs, "sign-class"))
        # zeroing one more coefficient never lowers dim H2
        for signs, rec in records.items():
            for k, s in enumerate(signs):
                if s == 0:
                    continue
                more = tuple(0 if t == k else v for t, v in enumerate(signs))
                if rec["dims"][2] > records[more]["dims"][2]:
                    bad.append((family, signs, f"monotonicity@{k + 1}"))
    announce(11, "exact property suite across the sweep", not bad, str(bad[:5]) if bad else "")


@pytest.fixture(scope="module")
def c12_range():
    """{(family, z): range_case} over every 0/1 pattern of criterion 12's
    range, so N <= 8, su/u N <= 6 and sq N <= 5 (824 zero sets), each N
    after its rescaling certificate passes."""
    records = {}
    for family, nmax in (("so", 8), ("su", 6), ("u", 6), ("sq", 5)):
        for n in range(1, nmax + 1):
            certify_rescaling(family, n)
            for z in product((0, 1), repeat=n):
                records[family, z] = range_case(family, z)
    return records


def test_c12_every_rational_omega(c12_range):
    """The catalog is a basis of H2, and every type II removal identity holds
    exactly, for every rational omega when so N <= 8, su/u N <= 6 or sq
    N <= 5: the rescaling certificate passes, so each crosscheck and each
    identity at omega follows from the 0/1 pattern with the same zeros, and
    every one of those representatives is solved and checked here.  The
    sweep row (n_zeros, dims, predicted, match) at z must also equal the one
    at reversed z, which checks the reversal certificate from the solves
    alone.  dim B2 = dim [g, g] = dim g - dim H1 and dim Z2 = dim B2 +
    predicted must hold in closed form, dim H1 counting the characters of
    `helpers.h1_characters`, so every column of a sweep row follows from the
    zero set."""
    identities = 0
    bad = []
    for (family, z), rec in c12_range.items():
        if not rec["row"][-1]:
            bad.append((family, z))
        if not rec["closed_forms"]:
            bad.append((family, z, "closed forms"))
        identities += len(rec["identities"])
        bad += [(family, z, "identity") for ok in rec["identities"] if not ok]
        if rec["row"] != c12_range[family, z[::-1]]["row"]:
            bad.append((family, z, "reversal"))
    announce(
        12,
        "every rational omega: catalog basis of H2, removal identities, reversal, B2/Z2 closed forms",
        not bad,
        f"{len(c12_range)} zero sets, {identities} identities",
    )


def test_c13_representatives_extend_the_algebra(c12_range):
    """dim H2 >= the printed count, from the printed representatives alone,
    on criterion 12's range.  There are dim H2 of them, and adjoining each as
    its own central generator gives a Lie algebra (`verify_jacobi`), so each
    is a cocycle.  The bracket values of that algebra span dim g - dim H1 +
    dim H2 = dim [g, g] + dim H2 dimensions (`helpers.h1_characters`, dense
    Fraction rank), so no nonzero combination of the representatives is a
    coboundary: delta(mu) vanishes on every combination of brackets that
    vanishes in g."""
    bad = [
        (family, z, rec["extension"])
        for (family, z), rec in c12_range.items()
        if not all(rec["extension"])
    ]
    announce(
        13,
        "the printed representatives extend g centrally and are independent modulo B2",
        not bad,
        f"{len(c12_range)} zero sets" + (f", failed {bad[:5]}" if bad else ""),
    )


def test_c14_b2_certificate_without_elimination(c12_range):
    """dim B2 = dim [g, g] is bounded on both sides with no elimination on
    criterion 12's range (`helpers.b2_certificate`): below by the distinct
    leading labels of the bracket values in basis order and in reversed
    order, above by dim g less the closed-form H1 characters that kill every
    bracket value.  All three bounds equal the printed dim B2, and with
    criterion 12 every character kills every bracket value."""
    bad = [
        (family, z, rec["b2_bounds"], rec["row"][2])
        for (family, z), rec in c12_range.items()
        if rec["b2_bounds"] != (rec["row"][2],) * 3
    ]
    announce(
        14,
        "dim B2 certified by leading labels and H1 characters, with no elimination",
        not bad,
        f"{len(c12_range)} zero sets" + (f", failed {bad[:5]}" if bad else ""),
    )


def real_form(family: str, signs: tuple[int, ...]) -> tuple[int, int]:
    """The Killing signature of the real form at a +-1 pattern, read off the
    metric signs diag(1, omega_1, omega_1 omega_2, ...) with p plus and q
    minus signs: so(p, q), su(p, q) (and u(p, q), whose center adds a null
    direction) and sq(p, q)."""
    metric = [1]
    for s in signs:
        metric.append(metric[-1] * s)
    p, q = metric.count(1), metric.count(-1)
    if family == "so":
        return p * q, p * (p - 1) // 2 + q * (q - 1) // 2
    if family == "sq":
        return 4 * p * q, p * (2 * p + 1) + q * (2 * q + 1)
    return 2 * p * q, p * p + q * q - 1


def killing_rank(family: str, z: tuple[int, ...]) -> int:
    """The Killing rank at a 0/1 pattern, from the run sizes m_i of the
    points 0..N between zeros (omega_k = 0 cuts points k-1 and k apart)."""
    runs = [1]
    for s in z:
        if s:
            runs[-1] += 1
        else:
            runs.append(1)
    if family == "so":
        return sum(m * (m - 1) // 2 for m in runs)
    if family == "sq":
        return sum(m * (2 * m + 1) for m in runs)
    return sum(m * m for m in runs) - 1


def test_c15_killing_form():
    """The Killing form K(x, y) = tr(ad x ad y) (`helpers.killing_gram`,
    exact signature by `helpers.signature`, neither of them touching the
    cohomology kernel) names the real form at every sign pattern and certifies
    the all-ones row with no cohomology kernel.

    * At every +-1 pattern of criterion 12's range, so 2 <= N <= 8, su/u
      N <= 6 and sq N <= 5, the signature is that of so(p, q), su(p, q) or
      sq(p, q) (`real_form`); so N = 1 is so(2) or so(1, 1), abelian, and
      its form is zero.
    * At every 0/1 pattern of that range the rank follows the runs of points
      between zeros (`killing_rank`).
    * At all ones, so 2 <= N <= 13, su/u N <= 9 and sq N <= 7, K is negative
      definite, on the complement of the center for u.  So the algebra is
      semisimple (Cartan's criterion), or u = su + R, and Whitehead's lemmas
      give H1 = H2 = 0: the solver's row (dim Z2, dim B2, dim H2) must be
      (dim, dim, 0), or (dim - 1, dim - 1, 0) for u by Kunneth."""
    t0 = time.perf_counter()
    bad = []
    checked = 0
    for family, nmax in (("so", 8), ("su", 6), ("u", 6), ("sq", 5)):
        for n in range(1, nmax + 1):
            for signs in product((-1, 1), repeat=n):
                form = signature(killing_gram(build_algebra(family, signs)))
                want = (0, 0) if family == "so" and n == 1 else real_form(family, signs)
                checked += 1
                if form != want:
                    bad.append((family, signs, form, want))
            for z in product((0, 1), repeat=n):
                rank = sum(signature(killing_gram(build_algebra(family, z))))
                want = 0 if family == "so" and n == 1 else killing_rank(family, z)
                checked += 1
                if rank != want:
                    bad.append((family, z, rank, want))
    for family, nmin, nmax in (("so", 2, 13), ("su", 1, 9), ("u", 1, 9), ("sq", 1, 7)):
        for n in range(nmin, nmax + 1):
            L = build_algebra(family, (1,) * n)
            whitehead = L.dim - (family == "u")
            res = CohomologySolver(L).result()
            checked += 1
            if signature(killing_gram(L)) != (0, whitehead):
                bad.append((family, n, "not negative definite"))
            if (res.dim_z2, res.dim_b2, res.dim_h2) != (whitehead, whitehead, 0):
                bad.append((family, n, tuple(res)))
    elapsed = time.perf_counter() - t0
    announce(
        15,
        "Killing form: real form at every sign pattern, rank by runs, Whitehead row at all ones",
        not bad,
        f"{checked} forms in {elapsed:.1f}s" + (f", failed {bad[:5]}" if bad else ""),
    )


def test_solver_vs_naive_oracle_spot_checks():
    """Independent dense-elimination oracle agrees on a spread of cases."""
    cases = [
        ("so", (0, 1)),
        ("so", (1, 0, 1)),
        ("so", (0, 0, 0)),
        ("su", (0, 1)),
        ("u", (0, 0)),
        ("sq", (0,)),
    ]
    for family, signs in cases:
        L = build_algebra(family, signs)
        res = CohomologySolver(L).result()
        assert (res.dim_z2, res.dim_b2, res.dim_h2) == oracle_h2_dims(L)
