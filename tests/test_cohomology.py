import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    bracket,
    dense_nullspace,
    dense_rank,
    dense_rref,
    integer_rows,
    kernel_rank,
    kernel_rref,
    oracle_coboundary,
    oracle_cocycle_system,
    oracle_h2_bases,
    oracle_h2_dims,
    cochain_sum,
    cochain_value,
    coefficient_cocycle,
    int_vector,
    is_trivial,
    oracle_is_cocycle,
    oracle_jacobi,
    permute_basis,
    random_tables,
    row_cochain,
    scaled,
)

from cklie.cohomology import CohomologySolver, _echelon_int, _reduce
from cklie.ck_matrix import J, OmegaVector
from cklie import classify
from cklie.classify import CatalogEntry, crosscheck, predict
from cklie.cli import structure_json
from cklie.lie_core import (
    LieAlgebra,
    build_algebra,
    verify_jacobi,
)


def sign_patterns(n):
    return product((-1, 0, 1), repeat=n)


def random_cochain(rng, dim, density=0.4, span=4):
    entries = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            if rng.random() < density:
                entries[(i, j)] = Fraction(rng.randint(-span, span))
    return {pair: v for pair, v in entries.items() if v}


@st.composite
def rational_matrices(draw):
    """Up to 10 x 5, integer and Fraction entries, zeros common."""
    ncols = draw(st.integers(min_value=1, max_value=5))
    entry = st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.fractions(min_value=-6, max_value=6, max_denominator=4),
    )
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=1, max_size=10))


@st.composite
def sparse_matrices(draw):
    """Up to 12 x 8, each row with 0-3 nonzeros; single-entry rows and
    repeated rows (exact, negated or doubled copies) are common, so the
    kernel's pre-pass meets unit rows, duplicate units, rows it strips and
    rows it strips to nothing."""
    ncols = draw(st.integers(min_value=1, max_value=8))
    nonzero = st.one_of(
        st.sampled_from((-3, -2, -1, 1, 2, 3)),
        st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool),
    )
    matrix = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        if matrix and draw(st.integers(min_value=0, max_value=3)) == 0:
            factor = draw(st.sampled_from((1, -1, 2)))
            matrix.append([factor * v for v in draw(st.sampled_from(matrix))])
            continue
        size = min(ncols, draw(st.sampled_from((0, 1, 1, 1, 2, 3))))
        support = draw(st.lists(st.integers(0, ncols - 1), min_size=size, max_size=size, unique=True))
        row = [0] * ncols
        for c in support:
            row[c] = draw(nonzero)
        matrix.append(row)
    return matrix


def rational_omega(*entries):
    return tuple(Fraction(e) for e in entries)


# Non-unit rational omegas: the constants' denominators have lcm d > 1, so the
# solver's scaling by d is exercised.
RATIONAL_CASES = [
    ("so", rational_omega("-3/4", "5/2", "2/3")),
    ("so", rational_omega("-3/4", 0, "5/2", "2/3")),
    ("so", rational_omega(0, "2/3", 0)),
    ("su", rational_omega("5/2", "-3/4")),
    ("su", rational_omega("2/3", 0, "-3/4")),
    ("u", rational_omega("-3/4", "5/2")),
    ("u", rational_omega(0, "2/3")),
    ("sq", rational_omega("5/2")),
]


def random_mu(rng, dim, span=6):
    return {k: Fraction(rng.randint(-span, span), rng.randint(1, 4)) for k in range(dim)}


# The range of the assembly oracle, and two cases with zeros and non-unit rationals.
ASSEMBLY_RANGE = (
    [("so", n) for n in range(1, 6)]
    + [(f, n) for f in ("su", "u") for n in range(1, 4)]
    + [("su", 4), ("sq", 1), ("sq", 2)]
)
ASSEMBLY_RATIONALS = [
    ("so", rational_omega(0, "-3/4", 0, "5/2")),
    ("su", rational_omega(0, "2/3", 0)),
]


def oracle_rows(L):
    """The oracle's nonzero cocycle equations, all C(dim, 3) of them, as the
    kernel's integer rows, each scaled by the lcm of its denominators.  Only
    the nonzero entries of a dense row are read, as in
    `TestCocycleSystem.assert_rows_match_oracle`."""
    _, equations, _ = oracle_cocycle_system(L)
    rows = []
    for eq in equations:
        zero = eq[-1] if eq[-1] == 0 else Fraction(0)
        if eq.count(zero) < len(eq):
            row = {c: eq[c] for c in [c for c, v in enumerate(eq) if v is not zero] if eq[c]}
            m = lcm(*(v.denominator for v in row.values()))
            rows.append({c: v.numerator * (m // v.denominator) for c, v in row.items()})
    return rows


class TestExactRank:
    def test_identity(self):
        rank, null = kernel_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert rank == 3 and null == []

    def test_zero_matrix(self):
        rank, null = kernel_rank([[0, 0], [0, 0]])
        assert rank == 0
        assert null == [[1, 0], [0, 1]]

    def test_rank_deficient(self):
        rank, null = kernel_rank([[1, 2], [2, 4]])
        assert rank == 1
        assert null == [[Fraction(-2), Fraction(1)]]

    def test_empty(self):
        assert kernel_rank([]) == (0, [])

    def test_rational_entries(self):
        rank, null = kernel_rank([[Fraction(1, 2), Fraction(1, 3)]])
        assert rank == 1
        assert len(null) == 1
        v = null[0]
        assert Fraction(1, 2) * v[0] + Fraction(1, 3) * v[1] == 0

    @staticmethod
    def check_against_dense_oracle(matrix, rnd):
        rank, null = kernel_rank(matrix)
        assert rank == dense_rank(matrix)
        assert null == dense_nullspace(matrix, len(matrix[0]))
        # The produced vectors must actually solve the system.
        for vec in null:
            for row in matrix:
                assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0
        # The RREF is unique, so the order rows arrive in cannot matter.
        shuffled = list(matrix)
        rnd.shuffle(shuffled)
        assert kernel_rank(matrix[::-1]) == kernel_rank(shuffled) == (rank, null)
        # The echelon is the RREF itself, whatever the pre-pass took out:
        # each row is the dense RREF row scaled to a gcd-normalized integer
        # row with a positive lead.  `representatives` reads B2's pivots off
        # its keys.
        rref = _echelon_int(integer_rows(matrix))
        pivots, dense = dense_rref(matrix)
        assert sorted(rref) == pivots
        for p, row in zip(pivots, dense):
            d = lcm(*(v.denominator for v in row))
            ints = [int(v * d) for v in row]
            g = gcd(*ints)
            assert ints[p] > 0 and rref[p] == {c: v // g for c, v in enumerate(ints) if v}
        # One pass of `_reduce` leaves no residue exactly on the row span.
        ncols = len(matrix[0])
        probes = [list(row) for row in matrix] + [[0] * ncols]
        probes += [[int(c == k) for c in range(ncols)] for k in range(ncols)]
        for _ in range(4):
            coefs = [rnd.choice((-2, -1, 0, 1, 3)) for _ in matrix]
            probes.append([sum(k * Fraction(row[c]) for k, row in zip(coefs, matrix)) for c in range(ncols)])
            probes.append([rnd.choice((-1, 0, 0, 2)) for _ in range(ncols)])
        for vec in probes:
            in_span = dense_rank(matrix + [vec]) == rank
            assert (not _reduce(integer_rows([vec])[0], rref)) == in_span

    @given(rational_matrices(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_against_dense_oracle(self, matrix, rnd):
        self.check_against_dense_oracle(matrix, rnd)

    @given(sparse_matrices(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_sparse_against_dense_oracle(self, matrix, rnd):
        self.check_against_dense_oracle(matrix, rnd)

    def test_single_entry_rows_become_unit_pivots(self):
        # Columns 1 and 3 are killed by unit rows; the pre-pass strips them,
        # so the last row leaves no residue and the third leads column 0.
        rows = [{1: -4}, {3: 2}, {0: 6, 1: 5, 3: -1}, {1: 3, 3: 7}, {3: 9}]
        assert _echelon_int(rows) == {1: {1: 1}, 3: {3: 1}, 0: {0: 1}}
        assert rows[2] == {0: 6, 1: 5, 3: -1}  # the input is not modified


class TestCocycleSystem:
    def test_no_triples_means_empty_system(self):
        L = build_algebra("so", [1])  # one generator
        sys_ = CohomologySolver(L).system()
        assert sys_.n_unknowns == 0 and sys_.n_equations == 0

    def test_so3_single_equation_degenerates(self):
        # the lone triple equation on so with N=2 is identically zero
        for signs in sign_patterns(2):
            sys_ = CohomologySolver(build_algebra("so", signs)).system()
            assert sys_.n_unknowns == 3
            assert sys_.n_equations == 0

    def test_abelian_algebra_full_cochain_space(self):
        from cklie.lie_core import LieAlgebra
        from cklie.ck_matrix import J

        L = build_algebra("so", [0])  # abelian, dim 1: no pairs at all
        assert CohomologySolver(L).result().dim_z2 == 0
        su_flag = build_algebra("so", [0, 0])  # only one nonzero bracket
        res = CohomologySolver(su_flag).result()
        assert res.dim_z2 == 3
        # a hand-made abelian algebra: empty system, every cochain a cocycle
        abelian = LieAlgebra(None, None, [J(0, k) for k in range(1, 5)], {})
        sys_ = CohomologySolver(abelian).system()
        assert sys_.n_equations == 0 and sys_.n_unknowns == 6
        res = CohomologySolver(abelian).result()
        assert (res.dim_z2, res.dim_b2, res.dim_h2) == (6, 0, 6)

    @staticmethod
    def assert_rows_match_oracle(L):
        # The rows are the oracle's nonzero equations on the triples that
        # hold a member of `L.generators()` (which `TestGenerators` checks
        # against `oracle_generated_dim`), scaled by d, the lcm of the
        # constants' denominators, in triple order.  Each dense oracle row
        # is read whole, but only its nonzero entries one by one:
        # list.count counts its zeros (by identity, so cheaply, for the
        # zero the oracle fills it with), the package row must hold exactly
        # as many entries as the rest, and each must be d times the oracle's
        # entry in its column.
        d = lcm(*(c.denominator for terms in L.constants.values() for c in terms.values()))
        gens = set(L.generators())
        _, equations, _ = oracle_cocycle_system(L)
        rows = iter(CohomologySolver(L).system().rows)
        for triple, eq in zip(combinations(range(L.dim), 3), equations):
            if gens.isdisjoint(triple):
                continue
            zeros = eq.count(eq[-1] if eq[-1] == 0 else Fraction(0))
            if zeros < len(eq):
                row = next(rows)
                assert zeros + len(row) == len(eq) and 0 not in row.values()
                assert [eq[c] * d for c in row] == list(row.values())
        assert next(rows, None) is None

    @pytest.mark.parametrize("family,n", ASSEMBLY_RANGE)
    def test_rows_equal_oracle_equations(self, family, n):
        for signs in sign_patterns(n):
            self.assert_rows_match_oracle(build_algebra(family, signs))

    @pytest.mark.parametrize("family,omega", ASSEMBLY_RATIONALS)
    def test_rows_equal_oracle_equations_on_rationals(self, family, omega):
        self.assert_rows_match_oracle(build_algebra(family, omega))

    def test_rows_equal_oracle_equations_on_random_tables(self):
        # Hand-built sparse tables, not Lie algebras: the assembly must not
        # lean on Jacobi.  Across the tables the oracle meets multi-term
        # brackets, terms that cancel (some rows to nothing), terms with
        # k equal to the third index, and triples with a bracketless pair.
        seen = dict.fromkeys(("multi-term", "cancel", "cancel to zero", "k == l", "no bracket"), 0)
        for constants, L in random_tables(150):
            self.assert_rows_match_oracle(L)
            seen["multi-term"] += sum(len(terms) > 1 for terms in constants.values())
            _, equations, _ = oracle_cocycle_system(L)
            for (i, j, l), eq in zip(combinations(range(L.dim), 3), equations):
                triple = (((i, j), l), ((j, l), i), ((i, l), j))
                seen["no bracket"] += sum(pair not in constants for pair, _ in triple) > 0
                hit = [(min(k, t), max(k, t)) for pair, t in triple for k in constants.get(pair, ())]
                seen["k == l"] += sum(k == t for k, t in hit)
                cols = {k_t for k_t in hit if k_t[0] != k_t[1]}
                nonzero = sum(1 for v in eq if v)
                seen["cancel"] += nonzero < len(cols)
                seen["cancel to zero"] += nonzero == 0 < len(cols)
        assert all(seen.values()), seen


class TestExactness:
    """The equations of the triples that hold a generator have the RREF of
    all C(dim, 3) equations on a Lie table, and the solver answers for no
    other table."""

    @staticmethod
    def assert_rref_is_full_rref(L, dense=False):
        rref = CohomologySolver(L)._system_echelon()
        rows = oracle_rows(L)
        assert rref == _echelon_int(rows)
        if dense:
            ncols = L.dim * (L.dim - 1) // 2
            matrix = [[row.get(c, 0) for c in range(ncols)] for row in rows]
            assert kernel_rref(rref) == [
                {c: v for c, v in enumerate(row) if v} for row in dense_rref(matrix)[1]
            ]

    # The solver's RREF against the kernel's RREF of every oracle equation,
    # on the whole range of the assembly oracle; `TestExactRank` arbitrates
    # the kernel against `dense_rref`.
    @pytest.mark.parametrize("family,n", ASSEMBLY_RANGE)
    def test_rref_equals_rref_of_all_equations(self, family, n):
        for signs in sign_patterns(n):
            self.assert_rref_is_full_rref(build_algebra(family, signs))

    # Against `dense_rref` itself where a dense Fraction elimination of every
    # equation is affordable: about 1 s a sign pattern on su N=4.
    @pytest.mark.parametrize(
        "family,n",
        [("so", n) for n in range(1, 5)] + [(f, n) for f in ("su", "u") for n in (1, 2)] + [("sq", 1)],
    )
    def test_rref_equals_dense_rref_of_all_equations(self, family, n):
        for signs in sign_patterns(n):
            self.assert_rref_is_full_rref(build_algebra(family, signs), dense=True)

    @pytest.mark.parametrize("family,omega", ASSEMBLY_RATIONALS)
    def test_rref_equals_dense_rref_of_all_equations_on_rationals(self, family, omega):
        self.assert_rref_is_full_rref(build_algebra(family, omega), dense=True)

    def test_answers_exactly_on_lie_tables(self):
        # The certificate reads only the solver's own RREF, yet it raises
        # exactly where the oracle finds a triple that fails Jacobi; on the
        # Lie tables the dims are the dense oracle's, over every triple.
        lie = 0
        for _, L in random_tables(400):
            solver = CohomologySolver(L)
            if oracle_jacobi(L):
                lie += 1
                assert solver.result() == oracle_h2_dims(L)
                continue
            for query in (
                solver.result,
                solver.representatives,
                lambda: solver.is_cocycle({0: 1}),
            ):
                with pytest.raises(ArithmeticError, match="fails the Jacobi identity"):
                    query()
        assert lie == 86  # so 314 of the 400 fail Jacobi


BAD_TABLES = [
    ({(0, 1): {2: 0}}, "zero constant"),
    ({(0, 1): {2: 1, 0: 0}}, "zero constant"),
    ({(1, 0): {2: 1}}, "not a pair of ints"),
    ({(0, 1): {3: Fraction(1)}}, "outside 0..2"),
    ({(0.0, 1): {2: Fraction(1)}}, "not a pair of ints"),
]

# Every way a table is read.  Unchecked, the key (1, 0) gave [X_0, X_1]
# == 0 but xi_01 = -1 from the coboundary, and a stored zero printed "c": "0".
TABLE_READERS = {
    "constants": lambda L: L.constants,
    "structure_rows": lambda L: list(L.structure_rows()),
    # The structure payload, keyed by the name of the method it replaced so
    # that these test ids stay the same.
    "to_json_obj": lambda L: structure_json(L, True, True),
    "integer_constants": lambda L: L.integer_constants(),
    "verify_jacobi": verify_jacobi,
    "coboundary": lambda L: CohomologySolver(L).coboundary_rows(),
    "h2": lambda L: CohomologySolver(L).result(),
}


class TestHandBuiltTable:
    """A stored zero would become a B2 pivot, and a key (1, 0) would be
    dropped by the assembly: each gives a wrong H2 with no error unless the
    table is checked.  The constructor checks it, so no reader is ever
    handed an unchecked table."""

    BASIS = [J(0, 1), J(0, 2), J(1, 2)]

    @pytest.mark.parametrize("constants,message", BAD_TABLES)
    def test_rejected(self, constants, message):
        with pytest.raises(ValueError, match=message):
            LieAlgebra(None, None, self.BASIS, constants)

    @pytest.mark.parametrize("reader", TABLE_READERS)
    @pytest.mark.parametrize("constants,message", BAD_TABLES)
    def test_every_reader_checks(self, reader, constants, message):
        L = None
        with pytest.raises(ValueError, match=message):
            L = LieAlgebra(None, None, self.BASIS, constants)
            TABLE_READERS[reader](L)
        assert L is None, f"{reader} was handed an unchecked table"

    @pytest.mark.parametrize("reader", TABLE_READERS)
    @pytest.mark.parametrize("bad", [0.5, 1.0, True, False])
    def test_float_or_bool_constant_rejected(self, reader, bad):
        # 0.5 made integer_constants raise AttributeError and the structure
        # payload print "0.5"; True was taken as 1 and printed "True".
        L = None
        with pytest.raises(TypeError, match=type(bad).__name__):
            L = LieAlgebra(None, None, self.BASIS, {(0, 1): {2: bad}})
            TABLE_READERS[reader](L)
        assert L is None, f"{reader} was handed an unchecked table"

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            LieAlgebra(None, None, [J(0, 1), J(0, 2), J(0, 1)], {})

    def test_int_and_fraction_constants_accepted(self):
        # The structure payload prints omega, so this table has one.
        om = OmegaVector((1, 1))
        L = LieAlgebra("so", om, self.BASIS, {(0, 1): {2: 3}, (0, 2): {1: Fraction(-1, 2)}})
        assert bracket(L, 1, 0) == {2: -3}
        assert L.integer_constants() == {(0, 1): {2: 6}, (0, 2): {1: -1}}
        assert [c["c"] for c in structure_json(L, True, True)["constants"]] == ["3", "-1/2"]


class TestCoboundary:
    """The solver's integer coboundary rows against `oracle_coboundary`."""

    def test_zero_mu(self):
        assert oracle_coboundary(build_algebra("so", [1, 1]), {}) == {}

    def test_single_slot(self):
        L = build_algebra("so", [1, 1])
        solver = CohomologySolver(L)
        # [J(0,1), J(0,2)] = J(1,2), so delta(e_J(1,2)) has the one slot (0, 1)
        assert solver.coboundary_rows()[2] == {solver.pair_index[0, 1]: 1}
        assert oracle_coboundary(L, {2: 1}) == {(0, 1): Fraction(1)}

    def test_abelian_always_zero(self):
        assert CohomologySolver(build_algebra("so", [1])).coboundary_rows() == [{}]

    @pytest.mark.parametrize(
        "family,signs",
        [("so", (0, 1)), ("so", (1, 1, 1)), ("su", (0, 0)), ("u", (0,)), ("sq", (1,))],
    )
    def test_coboundaries_are_cocycles(self, family, signs):
        # The coboundary is linear, so the basis vectors cover every mu.
        L = build_algebra(family, signs)
        solver = CohomologySolver(L)
        for k in range(L.dim):
            assert solver.is_cocycle(int_vector(solver, oracle_coboundary(L, {k: 1})))

    @pytest.mark.parametrize(
        "family,omega", [("so", ("2/3", -5, "1/2")), ("su", ("-3/4", 0)), ("u", (0, "5/3"))]
    )
    def test_coboundary_rows_are_scaled_coboundaries(self, family, omega):
        # Row k is delta(e_k) scaled by d, the lcm of the constants' denominators.
        L = build_algebra(family, omega)
        d = lcm(*(c.denominator for terms in L.constants.values() for c in terms.values()))
        solver = CohomologySolver(L)
        rows = solver.coboundary_rows()
        assert len(rows) == L.dim and d > 1 and L.scale == d
        for k, row in enumerate(rows):
            xi = oracle_coboundary(L, {k: 1})
            assert row == {solver.pair_index[p]: c * d for p, c in xi.items()}


class TestSpacesAndDims:
    @pytest.mark.parametrize(
        "signs,expected",
        [((1, 1), (3, 3, 0)), ((0, 1), (3, 2, 1)), ((0, 0), (3, 1, 2))],
    )
    def test_so_n2_dims_frozen(self, signs, expected):
        solver = CohomologySolver(build_algebra("so", signs))
        res = solver.result()
        assert (res.dim_z2, res.dim_b2, res.dim_h2) == expected
        assert len(solver.z2_basis()) == expected[0]
        assert len(solver._b2_echelon()) == expected[1]

    @pytest.mark.parametrize(
        "family,nmax", [("so", 3), ("su", 2), ("u", 2), ("sq", 1)]
    )
    def test_dims_match_dense_oracle(self, family, nmax):
        for n in range(1, nmax + 1):
            for signs in sign_patterns(n):
                L = build_algebra(family, signs)
                res = CohomologySolver(L).result()
                assert (res.dim_z2, res.dim_b2, res.dim_h2) == oracle_h2_dims(L)

    @pytest.mark.parametrize("family,omega", RATIONAL_CASES)
    def test_bases_match_dense_oracle_on_rationals(self, family, omega):
        L = build_algebra(family, omega)
        solver = CohomologySolver(L)
        z2, b2 = oracle_h2_bases(L)
        assert list(solver.z2_basis().values()) == z2
        b2_rref = kernel_rref(solver._b2_echelon())
        assert [{solver.pairs[c]: v for c, v in row.items()} for row in b2_rref] == b2

    def test_result_is_memoized(self):
        solver = CohomologySolver(build_algebra("so", (0, 1, 1)))
        assert solver.result() is solver.result()
        assert solver.z2_basis() is solver.z2_basis()

    def test_result_invariants(self):
        for signs in [(0, 1), (0, 0, 1), (1, 0, 1)]:
            L = build_algebra("so", signs)
            solver = CohomologySolver(L)
            res = solver.result()
            assert res.dim_h2 == res.dim_z2 - res.dim_b2
            assert len(solver.z2_basis()) == res.dim_z2
            assert len(solver._b2_echelon()) == res.dim_b2
            assert len(solver.representatives()) == res.dim_h2
            for row in solver._b2_echelon().values():
                assert solver.is_cocycle(row)
            for rep in solver.representatives():
                assert solver.is_cocycle(int_vector(solver, rep))
                assert not is_trivial(L, rep)

    def test_known_h2_values(self):
        assert CohomologySolver(build_algebra("so", [1, 1])).result().dim_h2 == 0
        assert CohomologySolver(build_algebra("so", [0, 1])).result().dim_h2 == 1
        assert CohomologySolver(build_algebra("so", [0, 0, 1])).result().dim_h2 == 3
        assert CohomologySolver(build_algebra("sq", [1, 1])).result().dim_h2 == 0
        assert CohomologySolver(build_algebra("sq", [0, 0])).result().dim_h2 == 0
        assert CohomologySolver(build_algebra("su", [0, 0])).result().dim_h2 == 3
        assert CohomologySolver(build_algebra("u", [0, 0])).result().dim_h2 == 5


class TestIsCocycle:
    """`is_cocycle` evaluates only the equations a cochain's columns reach;
    `oracle_is_cocycle` evaluates every triple from the brackets."""

    CASES = [("so", (1, 1, 1)), ("so", (0, 0, 0)), ("su", (0, 1))] + RATIONAL_CASES

    @pytest.mark.parametrize("family,omega", CASES)
    def test_agrees_with_full_evaluation(self, family, omega):
        L = build_algebra(family, omega)
        solver = CohomologySolver(L)
        rng = random.Random(f"{family}:{omega}")
        pairs = solver.pairs
        units = [{pair: Fraction(1)} for pair in pairs]
        cochains = list(units)
        for density in (0.05, 0.2):
            cochains += [random_cochain(rng, L.dim, density) for _ in range(8)]
        names = [entry.name for entry in predict(family, omega)]
        for xi in [row_cochain(solver, row) for row in solver._b2_echelon().values()] + [
            coefficient_cocycle(family, omega, name) for name in names
        ]:
            bump = {rng.choice(pairs): Fraction(rng.choice((1, -2, 3)), 5)}
            cochains += [xi, cochain_sum(xi, bump)]
        # Columns that no equation touches: every cochain on them is a cocycle.
        untouched = [xi for xi in units if oracle_is_cocycle(L, xi)]
        for _ in range(5):
            picked = [xi for xi in untouched if rng.random() < 0.5]
            cochains.append(scaled(cochain_sum(*picked), Fraction(-7, 3)))
        verdicts = [solver.is_cocycle(int_vector(solver, xi)) for xi in cochains]
        assert verdicts == [oracle_is_cocycle(L, xi) for xi in cochains]
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize(
        "family,omega",
        [
            ("so", (0, 0, 0)),
            ("so", (0, 0, 1)),
            ("so", rational_omega("-3/4", 0, "5/2")),
            ("so", rational_omega(0, "2/3", 0)),
            ("so", rational_omega("5/2", "-3/4", 0)),
            ("su", rational_omega("5/2", 0)),
            ("u", rational_omega("2/3")),
        ],
    )
    def test_every_independent_equation_is_evaluated(self, family, omega):
        # For each equation the others do not imply, a cochain that fails it
        # and satisfies every other equation.
        L = build_algebra(family, omega)
        solver = CohomologySolver(L)
        pairs, equations, _ = oracle_cocycle_system(L)
        found = 0
        for t, eq in enumerate(equations):
            others = equations[:t] + equations[t + 1:]
            for vec in dense_nullspace(others, len(pairs)):
                if sum(a * b for a, b in zip(eq, vec)):
                    xi = {pair: v for pair, v in zip(pairs, vec) if v}
                    assert not oracle_is_cocycle(L, xi)
                    assert not solver.is_cocycle(int_vector(solver, xi))
                    found += 1
                    break
        assert found


class TestIsTrivial:
    def test_coboundaries_trivial(self):
        L = build_algebra("so", [0, 1])
        for k in range(L.dim):
            assert is_trivial(L, oracle_coboundary(L, {k: 1}))

    def test_nontrivial_representative(self):
        L = build_algebra("so", [0, 1])
        rep = CohomologySolver(L).representatives()[0]
        assert not is_trivial(L, rep)

    def test_non_cocycle_rejected(self):
        L = build_algebra("so", [1, 1, 1])
        solver = CohomologySolver(L)
        xi = {(0, 1): Fraction(1)}
        assert not solver.is_cocycle(int_vector(solver, xi))
        with pytest.raises(ValueError):
            is_trivial(L, xi)

    def test_gauge_invariance(self):
        L = build_algebra("so", [0, 0, 1])
        rng = random.Random(17)
        reps = CohomologySolver(L).representatives()
        for xi in reps:
            for _ in range(10):
                shifted = cochain_sum(xi, oracle_coboundary(L, random_mu(rng, L.dim)))
                assert is_trivial(L, shifted) == is_trivial(L, xi) == False

    def test_zero_cochain_trivial(self):
        L = build_algebra("so", [0, 1])
        assert is_trivial(L, {})


def active_cochains(family, omega):
    """The cochains of the catalog's active entries at omega."""
    return [{(i, j): c for i, j, c in e.slots} for e in predict(family, omega) if e.active]


def crosscheck_of(monkeypatch, family, omega, cochains):
    """crosscheck with the catalog replaced by one active type III entry per
    cochain, so that its verdicts and match read the certificates on them."""
    entries = tuple(
        CatalogEntry(f"xi{t}", "III", True, tuple((i, j, c) for (i, j), c in xi.items()))
        for t, xi in enumerate(cochains)
    )
    monkeypatch.setattr(classify, "predict", lambda family, omega: entries)
    return crosscheck(family, omega)


class TestIsCoboundary:
    """crosscheck calls an active cocycle nontrivial only when it holds a
    witness, a pair with no bracket, where every coboundary vanishes; the
    oracle compares dense ranks of the coboundary rows with and without the
    cochain.  No coboundary holds a witness, and every active catalog entry,
    shifted by a coboundary or not, does."""

    @pytest.mark.parametrize("family,omega", RATIONAL_CASES)
    def test_agrees_with_dense_rank(self, family, omega, monkeypatch):
        L = build_algebra(family, omega)
        pairs, _, cob = oracle_cocycle_system(L)
        rng = random.Random(f"coboundary:{family}:{omega}")
        coboundaries = [oracle_coboundary(L, {k: 1}) for k in range(L.dim)]
        coboundaries += [oracle_coboundary(L, random_mu(rng, L.dim)) for _ in range(4)]
        active = active_cochains(family, omega)
        shifted = [cochain_sum(xi, rng.choice(coboundaries)) for xi in active]
        cochains = coboundaries + active + shifted
        report = crosscheck_of(monkeypatch, family, omega, cochains)
        rank = dense_rank(cob)
        in_b2 = [
            dense_rank(cob + [[cochain_value(xi, i, j) for i, j in pairs]]) == rank for xi in cochains
        ]
        witnessed = [v.cocycle and v.trivial is False for v in report.verdicts]
        assert all(v.cocycle for v in report.verdicts)
        assert in_b2 == [True] * len(coboundaries) + [False] * (len(cochains) - len(coboundaries))
        assert witnessed == [False] * len(coboundaries) + [True] * (len(cochains) - len(coboundaries))
        assert not report.match  # an active coboundary has no certificate


class TestRankModB2:
    """crosscheck's match needs distinct leading witnesses of the active
    entries.  On catalogs of dim H2 cocycles drawn from the active entries,
    their shifts by coboundaries and the coboundaries themselves, match
    agrees with the dense rank modulo B2: the rank of the coboundary rows
    with the cochains, less their rank alone."""

    @pytest.mark.parametrize("family,omega", RATIONAL_CASES)
    def test_agrees_with_dense_rank(self, family, omega, monkeypatch):
        L = build_algebra(family, omega)
        pairs, _, cob = oracle_cocycle_system(L)
        rng = random.Random(f"rank mod b2:{family}:{omega}")
        active = active_cochains(family, omega)
        coboundaries = [oracle_coboundary(L, random_mu(rng, L.dim)) for _ in range(3)]
        pool = active + [cochain_sum(xi, c) for xi in active for c in coboundaries] + coboundaries
        rank = dense_rank(cob)
        seen = set()
        for picked in [active] + [rng.choices(pool, k=len(active)) for _ in range(12)]:
            dense = [[cochain_value(xi, i, j) for i, j in pairs] for xi in picked]
            expected = dense_rank(cob + dense) - rank == len(active)
            assert crosscheck_of(monkeypatch, family, omega, picked).match == expected
            seen.add(expected)
        assert seen == ({True, False} if active else {True})


class TestPermutationInvariance:
    def test_dims_stable_under_basis_shuffle(self):
        rng = random.Random(23)
        for family, signs in [("so", (0, 1, 1)), ("su", (0, 1)), ("sq", (0,))]:
            L = build_algebra(family, signs)
            res = CohomologySolver(L).result()
            perm = list(range(L.dim))
            rng.shuffle(perm)
            res_p = CohomologySolver(permute_basis(L, perm)).result()
            assert (res.dim_z2, res.dim_b2, res.dim_h2) == (
                res_p.dim_z2,
                res_p.dim_b2,
                res_p.dim_h2,
            )


class TestRepresentatives:
    def test_representative_pivots_outside_b2(self):
        L = build_algebra("so", [0, 0, 1])
        solver = CohomologySolver(L)
        b_pivots = set(solver._b2_echelon())
        for rep in solver.representatives():
            assert min(int_vector(solver, rep)) not in b_pivots

    def test_deterministic(self):
        a = CohomologySolver(build_algebra("so", [0, 0, 1]))
        b = CohomologySolver(build_algebra("so", [0, 0, 1]))
        assert a.representatives() == b.representatives()
        assert list(a.z2_basis().items()) == list(b.z2_basis().items())

    @pytest.mark.parametrize(
        "family,signs", [("so", (1, 1, 1)), ("so", (1, -1, 1, 1)), ("su", (1, 1)), ("sq", (1, 0))]
    )
    def test_no_z2_basis_when_h2_vanishes(self, family, signs):
        solver = CohomologySolver(build_algebra(family, signs))
        res = solver.result()
        assert res.dim_h2 == 0 < res.dim_b2
        assert solver.representatives() == ()
        assert solver._z2 is None

    @pytest.mark.parametrize(
        "family,signs",
        [("su", (0, 0)), ("su", (0, 1, 0)), ("su", (1, 0, -1)), ("u", (0,)), ("u", (0, 0)), ("u", (1, 0, 1))],
    )
    def test_z2_rows_outside_b2_pivots(self, family, signs):
        # Type III cases with H2 > 0: the Z2 rows whose pivots B2 lacks.
        solver = CohomologySolver(build_algebra(family, signs))
        reps = solver.representatives()
        b2 = solver._b2_echelon()
        assert reps == tuple(xi for p, xi in solver.z2_basis().items() if p not in b2)
        assert len(reps) == solver.result().dim_h2 > 0
