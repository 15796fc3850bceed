from fractions import Fraction
from itertools import combinations, product
import random

import pytest

from helpers import (
    FAMILY_DIMENSION,
    SIGNED_PRIMES,
    bracket,
    bracket_of,
    build_extended,
    coefficient_cocycle,
    int_vector,
    oracle_generated_dim,
    oracle_jacobi,
    permute_basis,
    prime_omegas,
    with_zeros,
    xi_label,
)
from cklie import lie_core
from cklie.ck_matrix import _UNIT_PRODUCT, I_LABEL, B, E, J, M, Mq, NotInSpanError, OmegaVector
from cklie.classify import predict
from cklie.cli import structure_json
from cklie.cohomology import CohomologySolver
from cklie.lie_core import (
    LieAlgebra,
    build_algebra,
    from_matrices,
    matrix_match,
    verify_jacobi,
)


def sign_patterns(n):
    return product((-1, 0, 1), repeat=n)


def brackets_by_label(L):
    out = {}
    for (i, j), terms in L.constants.items():
        out[(str(L.basis[i]), str(L.basis[j]))] = {
            str(L.basis[k]): c for k, c in terms.items()
        }
    return out


def oracle_corpus(family, nmax):
    """Every sign pattern of `family` up to N = nmax with seeded non-unit
    magnitudes, each algebra also with every single constant scaled by 3/2
    and, separately, negated; and with each of up to 3 seeded rows dropped,
    each of up to 3 given a term at an index it does not hold, and each of
    up to 3 rows it lacks given one term."""
    magnitudes = [Fraction(1, 2), Fraction(2, 3), Fraction(3), Fraction(5, 4), Fraction(7, 5)]
    rng = random.Random(family)
    pick = random.Random(f"{family} inserted terms")
    for n in range(1, nmax + 1):
        for signs in sign_patterns(n):
            L = build_algebra(family, [s * rng.choice(magnitudes) for s in signs])
            C = L.constants
            rows = sorted(C)
            tables = []
            for pair in rows:
                for k in sorted(C[pair]):
                    for factor in (Fraction(3, 2), -1):
                        tables.append({**C, pair: {**C[pair], k: C[pair][k] * factor}})
            for pair in pick.sample(rows, min(3, len(rows))):
                tables.append({p: terms for p, terms in C.items() if p != pair})
            for pair in pick.sample(rows, min(3, len(rows))):
                k = pick.choice([k for k in range(L.dim) if k not in C[pair]])
                tables.append({**C, pair: {**C[pair], k: pick.choice(magnitudes)}})
            absent = [pair for pair in combinations(range(L.dim), 2) if pair not in C]
            for pair in pick.sample(absent, min(3, len(absent))):
                tables.append({**C, pair: {pick.randrange(L.dim): pick.choice(magnitudes)}})
            yield L
            for t in tables:
                yield LieAlgebra(family, L.omega, L.basis, t)


class TestUnitProduct:
    def test_matches_the_matrix_table(self):
        # lie_core derives the product by its cyclic rule and does not import
        # the table the matrix route multiplies by, so a wrong entry in either
        # shows up as a closed-form/matrix mismatch.
        for u, v in product(range(4), repeat=2):
            assert lie_core._unit_product(u, v) == _UNIT_PRODUCT[u][v], (u, v)
        assert not hasattr(lie_core, "_UNIT_PRODUCT")


class TestBuildSo:
    def test_so3_table(self):
        L = build_algebra("so", [1, 1])
        assert L.dim == 3
        assert brackets_by_label(L) == {
            ("J(0,1)", "J(0,2)"): {"J(1,2)": 1},
            ("J(0,1)", "J(1,2)"): {"J(0,2)": -1},
            ("J(0,2)", "J(1,2)"): {"J(0,1)": 1},
        }

    def test_fully_contracted_heisenberg_pattern(self):
        L = build_algebra("so", [0, 0])
        assert brackets_by_label(L) == {("J(0,1)", "J(1,2)"): {"J(0,2)": -1}}

    def test_euclidean_pattern(self):
        L = build_algebra("so", [0, 1])
        assert brackets_by_label(L) == {
            ("J(0,1)", "J(1,2)"): {"J(0,2)": -1},
            ("J(0,2)", "J(1,2)"): {"J(0,1)": 1},
        }

    def test_n1_abelian(self):
        L = build_algebra("so", [1])
        assert L.dim == 1
        assert L.constants == {}

    def test_disjoint_pairs_commute(self):
        L = build_algebra("so", [1, 1, 1])
        assert bracket_of(L, J(0, 1), J(2, 3)) == {}

    def test_rational_omega_allowed(self):
        L = build_algebra("so", [Fraction(1, 2), Fraction(-3, 4)])
        assert bracket_of(L, J(0, 1), J(0, 2)) == {J(1, 2): Fraction(1, 2)}
        assert verify_jacobi(L)


class TestBuildSu:
    def test_n1_table(self):
        L = build_algebra("su", [1])
        assert brackets_by_label(L) == {
            ("J(0,1)", "M(0,1)"): {"B(1)": -2},
            ("J(0,1)", "B(1)"): {"M(0,1)": 2},
            ("M(0,1)", "B(1)"): {"J(0,1)": -2},
        }

    def test_n1_contracted(self):
        L = build_algebra("su", [0])
        table = brackets_by_label(L)
        assert ("J(0,1)", "M(0,1)") not in table
        assert table[("J(0,1)", "B(1)")] == {"M(0,1)": 2}
        assert table[("M(0,1)", "B(1)")] == {"J(0,1)": -2}

    def test_dimension(self):
        assert build_algebra("su", [1, 1]).dim == 8

    def test_b_sum_row(self):
        L = build_algebra("su", [1, 1, 1])
        assert bracket_of(L, J(0, 2), M(0, 2)) == {B(1): -2, B(2): -2}
        assert bracket_of(L, J(0, 3), M(0, 3)) == {B(1): -2, B(2): -2, B(3): -2}

    def test_torus_is_abelian(self):
        L = build_algebra("su", [1, 1, 1])
        assert bracket_of(L, B(1), B(2)) == {}
        assert bracket_of(L, B(2), B(3)) == {}


class TestBuildU:
    def test_phase_is_central(self):
        L = build_algebra("u", [0, 1])
        i_idx = L.basis.index(I_LABEL)
        for other in range(L.dim):
            assert bracket(L, other, i_idx) == {}

    def test_dimension(self):
        assert build_algebra("u", [1, 1]).dim == 9

    def test_jacobi_on_contracted_case(self):
        assert verify_jacobi(build_algebra("u", [0, 1]))


class TestBuildSq:
    def test_dimensions(self):
        assert build_algebra("sq", [1]).dim == 10
        assert build_algebra("sq", [1, 1]).dim == 21

    def test_diagonal_unit_rotations(self):
        L = build_algebra("sq", [1])
        assert bracket_of(L, E(1, 0), E(2, 0)) == {E(3, 0): 2}
        assert bracket_of(L, E(1, 1), E(3, 1)) == {E(2, 1): -2}

    def test_diagonal_units_at_distinct_nodes_commute(self):
        L = build_algebra("sq", [1])
        assert bracket_of(L, E(1, 0), E(2, 1)) == {}
        assert bracket_of(L, E(1, 0), E(1, 1)) == {}

    def test_j_m_same_pair_row(self):
        L = build_algebra("sq", [1, 1])
        assert bracket_of(L, J(0, 1), Mq(2, 0, 1)) == {E(2, 1): 2, E(2, 0): -2}

    def test_mixed_unit_same_pair_row(self):
        L = build_algebra("sq", [-1])
        # [M^1, M^2] on the same index pair -> 2 w eps (E^3_a + E^3_b)
        assert bracket_of(L, Mq(1, 0, 1), Mq(2, 0, 1)) == {E(3, 0): -2, E(3, 1): -2}


class TestJacobi:
    @pytest.mark.parametrize("family,nmax", [("so", 3), ("su", 2), ("u", 2), ("sq", 2)])
    def test_jacobi_over_sweep(self, family, nmax):
        for n in range(1, nmax + 1):
            for signs in sign_patterns(n):
                assert verify_jacobi(build_algebra(family, signs)), (family, signs)

    @pytest.mark.parametrize("family", ["su", "u"])
    def test_jacobi_unitary_n4(self, family):
        for signs in sign_patterns(4):
            assert verify_jacobi(build_algebra(family, signs)), (family, signs)

    def test_jacobi_sq_n3_spot_patterns(self):
        for signs in [(0, 0, 0), (1, 1, 1), (-1, 0, 1), (1, 0, -1), (0, 1, 0), (-1, -1, -1)]:
            assert verify_jacobi(build_algebra("sq", signs)), signs

    def test_corrupted_sign_breaks_jacobi(self):
        # on a 3-generator algebra every bracket lands on the third basis
        # element, so single sign flips never violate Jacobi there; the
        # smallest honest fixture is N=3, where every flip breaks it.
        L = build_algebra("so", [1, 1, 1])
        for pair in sorted(L.constants):
            terms = dict(L.constants[pair])
            k = sorted(terms)[0]
            terms[k] = -terms[k]
            corrupted = LieAlgebra("so", L.omega, L.basis, {**L.constants, pair: terms})
            assert not verify_jacobi(corrupted)

    def test_jacobi_sq_contracted(self):
        assert verify_jacobi(build_algebra("sq", [0, 1]))

    @pytest.mark.parametrize("family,n", [("su", 5), ("so", 8)])
    def test_highest_pair_corrupted_above_dim_30(self, family, n):
        # The accumulator packs a triple's two larger indices and the output
        # index into one int over dim; corrupt the last row at a dim over 30,
        # scaled by 2 and, separately, given the X_i term it lacks.
        L = build_algebra(family, [1] * n)
        assert L.dim > 30 and verify_jacobi(L)
        pair = max(L.constants)
        assert pair[0] not in L.constants[pair]
        for terms in (
            {k: 2 * c for k, c in L.constants[pair].items()},
            {**L.constants[pair], pair[0]: Fraction(1)},
        ):
            V = LieAlgebra(family, L.omega, L.basis, {**L.constants, pair: terms})
            assert not verify_jacobi(V) and not oracle_jacobi(V)

    @pytest.mark.parametrize("family,nmax", [("so", 4), ("su", 3), ("u", 3), ("sq", 2)])
    def test_agrees_with_oracle(self, family, nmax):
        # The corpus must hold non-Lie tables that some basis elements do not
        # generate, or the loop restricted to the generators' triples is
        # never tried on a table it can get wrong.
        verdicts = set()
        restricted = 0
        for V in oracle_corpus(family, nmax):
            verdict = verify_jacobi(V)
            assert verdict == oracle_jacobi(V), (family, V.omega)
            verdicts.add(verdict)
            restricted += not verdict and len(V.generators()) < V.dim
        assert verdicts == {True, False}
        assert restricted


class TestGenerators:
    # `LieAlgebra.generators()` must generate, by the span closure of
    # `oracle_generated_dim`, which shares no code with it.
    @pytest.mark.parametrize("family,nmax", [("so", 4), ("su", 3), ("u", 3), ("sq", 2)])
    def test_generate_every_sign_pattern(self, family, nmax):
        for n in range(1, nmax + 1):
            for signs in sign_patterns(n):
                L = build_algebra(family, signs)
                assert oracle_generated_dim(L, L.generators()) == L.dim, signs

    @pytest.mark.parametrize("family,nmax", [("so", 4), ("su", 3), ("u", 3), ("sq", 2)])
    def test_generate_the_oracle_corpus(self, family, nmax):
        for V in oracle_corpus(family, nmax):
            assert oracle_generated_dim(V, V.generators()) == V.dim, V.omega

    @pytest.mark.parametrize("family,extra", [("so", 0), ("su", 1), ("u", 2), ("sq", 4)])
    def test_count_at_nonzero_omega(self, family, extra):
        # Making every element a generator keeps the check exact but gives up
        # its speed; the closure must find N, N+1, N+2 and N+4 (sq from N=2).
        for n in range(2 if family == "sq" else 1, 7):
            L = build_algebra(family, SIGNED_PRIMES[:n])
            assert len(L.generators()) == n + extra, n

    def test_generators_past_the_first_indices(self):
        # The filiform [X_0, X_k] = X_(k+1) on 0..4 is Lie and has generators
        # 0 and 1; beside it, commuting with it, [X_5, X_6] = X_7 and
        # [X_6, X_7] = X_6 break Jacobi on the triple (5, 6, 7) alone.  The
        # generators are 0, 1, 5 and 6, so a check of the triples whose
        # smallest index is below 4, in the basis order, would miss it.
        table = {(0, k): {k + 1: 1} for k in range(1, 4)}
        table.update({(5, 6): {7: 1}, (6, 7): {6: 1}})
        V = LieAlgebra("x", None, [J(0, k) for k in range(1, 9)], table)
        assert V.generators() == [0, 1, 5, 6]
        assert not verify_jacobi(V) and not oracle_jacobi(V)

    def test_memoized_on_the_algebra(self):
        # Every reader shares one list: later calls return the same object,
        # and an algebra built again computes its own, equal list.
        L = build_algebra("sq", [1, 0])
        gens = L.generators()
        assert L.generators() is gens and verify_jacobi(L) and L.generators() is gens
        again = build_algebra("sq", [1, 0]).generators()
        assert again == gens and again is not gens

    def test_proper_subset_fails_the_oracle(self):
        # The oracle can say no: without J(0,2), so N=2 gets no further.
        L = build_algebra("so", [1, 1])
        assert oracle_generated_dim(L, [0, 1]) == 3
        assert oracle_generated_dim(L, [0]) == 1


class TestFromMatrices:
    # sq needs N = 2 for an index triple a < b < c, and so for its rows
    # between distinct units, where the order of the unit product matters.
    @pytest.mark.parametrize("family,nmax", [("so", 3), ("su", 2), ("u", 2), ("sq", 2)])
    def test_matches_closed_form_exhaustively(self, family, nmax):
        for n in range(1, nmax + 1):
            for signs in sign_patterns(n):
                closed = build_algebra(family, signs)
                matrix = from_matrices(family, signs)
                assert matrix.constants == closed.constants, (family, signs)

    def test_sq_n2_spot_checks(self):
        # Non-unit weights, so a row that drops or misplaces w_ab shows.
        for omega in [(2, -3), (Fraction(1, 2), 5), (0, Fraction(-7, 3))]:
            assert from_matrices("sq", omega).constants == build_algebra("sq", omega).constants

    def test_su_rational_omega(self):
        om = [Fraction(2, 3)]
        assert from_matrices("su", om).constants == build_algebra("su", om).constants

    def test_reads_neither_shape_nor_evaluator(self, monkeypatch):
        # The matrix route is the independent check of the closed form, so it
        # must succeed with both of the closed form's inputs taken away.
        om = OmegaVector(SIGNED_PRIMES[:3])
        expected = {family: build_algebra(family, om) for family in ("so", "su", "u", "sq")}

        def refuse(*args):
            raise AssertionError("the closed-form shape or the monomial evaluator was read")

        monkeypatch.setattr(lie_core, "_shape", refuse)
        monkeypatch.setattr(OmegaVector, "evaluate", refuse)
        for family, closed in expected.items():
            assert from_matrices(family, om).constants == closed.constants, family

    def test_closed_form_reads_no_matrix(self, monkeypatch):
        # The converse of the test above: the closed form must rebuild every
        # family with the matrix generators and their commutator taken away.
        om = OmegaVector(SIGNED_PRIMES[:3])
        expected = {family: from_matrices(family, om) for family in ("so", "su", "u", "sq")}

        def refuse(*args):
            raise AssertionError("a matrix generator or commutator was read")

        lie_core._shape.cache_clear()
        monkeypatch.setattr(lie_core, "build_generator", refuse)
        monkeypatch.setattr(lie_core, "mat_commutator", refuse)
        for family, matrix in expected.items():
            assert build_algebra(family, om).constants == matrix.constants, family

    def test_dropped_cell_of_a_j_commutator_leaves_the_span(self, monkeypatch):
        # [J(0,1), J(1,2)] = -J(0,2) loses its (0, 2) cell.  The read-off from
        # (2, 0) is still right, so only a comparison over the columns of the
        # recomposition, not just those of the commutator, sees the loss.
        commutator = lie_core.mat_commutator

        def drop_cell(X, Y):
            return {c: v for c, v in commutator(X, Y).items() if c != (0 * X.dim + 2) * 4}

        monkeypatch.setattr(lie_core, "mat_commutator", drop_cell)
        with pytest.raises(NotInSpanError, match=r"\[J\(0,1\), J\(1,2\)\]"):
            from_matrices("so", [2, 3])

    def test_nonzero_trace_leaves_the_span(self, monkeypatch):
        # The phase I of u never gets a coordinate: a commutator given an
        # imaginary trace (i at (0, 0)) must fail the recomposition rather
        # than be read off as a multiple of I.
        commutator = lie_core.mat_commutator

        def with_trace(X, Y):
            com = commutator(X, Y)
            return {1: 1, **com} if com else com

        monkeypatch.setattr(lie_core, "mat_commutator", with_trace)
        with pytest.raises(NotInSpanError, match=r"\[J\(0,1\), J\(0,2\)\]"):
            from_matrices("u", [2, 3])


def with_row(L, pair, terms):
    """L with the row at `pair` replaced by `terms`, dropped when empty."""
    constants = {p: t for p, t in L.constants.items() if p != pair}
    if terms:
        constants[pair] = terms
    return LieAlgebra(L.family, L.omega, L.basis, constants)


def generator_split(L):
    """The index pairs that hold a generator, and the nonzero rows of the others."""
    member = set(L.generators())
    held = [p for p in combinations(range(L.dim), 2) if member.intersection(p)]
    free = [p for p in L.constants if not member.intersection(p)]
    return held, free


def row_mutants(L, rng):
    """L with one seeded constant doubled in a generator row, with a term
    added to a zero generator row, and with one constant doubled in a row
    that holds no generator, where L has such rows."""
    held, free = generator_split(L)
    out = []
    for pairs in ([p for p in held if p in L.constants], free):
        if pairs:
            pair = rng.choice(pairs)
            k = rng.choice(sorted(L.constants[pair]))
            out.append(with_row(L, pair, {**L.constants[pair], k: 2 * L.constants[pair][k]}))
    empty = [p for p in held if p not in L.constants]
    if empty:
        out.append(with_row(L, rng.choice(empty), {rng.randrange(L.dim): Fraction(1)}))
    return out


class TestMatrixMatch:
    """`matrix_match` commutes only the pairs that hold a generator, and
    with Jacobi gives the verdict of the whole-table comparison."""

    @staticmethod
    def assert_verdict_is_full_comparison(family, omega, rng):
        for L in [build_algebra(family, omega), *row_mutants(build_algebra(family, omega), rng)]:
            full = from_matrices(family, omega).constants == L.constants
            assert matrix_match(L, verify_jacobi(L)) is full, (family, omega)

    # The range of acceptance criterion 8: every sign pattern of so N <= 5,
    # su/u N <= 3 and sq N <= 2, each with its seeded row mutants.
    @pytest.mark.parametrize("family,nmax", [("so", 5), ("su", 3), ("u", 3), ("sq", 2)])
    def test_equals_full_comparison_on_sign_patterns(self, family, nmax):
        rng = random.Random(f"matrix rows {family}")
        for n in range(1, nmax + 1):
            for signs in sign_patterns(n):
                self.assert_verdict_is_full_comparison(family, signs, rng)

    @pytest.mark.parametrize("family,n", [("so", 6), ("su", 4), ("u", 4), ("sq", 3), ("sq", 5)])
    def test_equals_full_comparison_on_rationals(self, family, n):
        rng = random.Random(f"matrix rationals {family} {n}")
        omegas = list(prime_omegas(n))
        for omega in omegas if n < 5 else omegas[:2]:
            self.assert_verdict_is_full_comparison(family, omega, rng)

    @pytest.mark.parametrize(
        "family,n,pairs",
        [("so", 10, 495), ("su", 7, 468), ("sq", 5, 657), ("so", 3, 12), ("u", 2, 26)],
    )
    def test_commutes_the_pairs_that_hold_a_generator(self, monkeypatch, family, n, pairs):
        # g(dim - 1) - C(g, 2) pairs, each once and i < j: 495 + 468 + 657
        # of the 1485 + 1953 + 3003 on so N=10, su N=7 and sq N=5.
        L = build_algebra(family, [1] * n)
        gens = L.generators()
        g = len(gens)
        seen = []

        def recording(family, omega, pairs=None):
            seen.append(list(pairs))
            return from_matrices(family, omega, pairs)

        monkeypatch.setattr(lie_core, "from_matrices", recording)
        assert matrix_match(L, True)
        (commuted,) = seen
        assert len(commuted) == g * (L.dim - 1) - g * (g - 1) // 2 == pairs
        assert sorted(commuted) == generator_split(L)[0]

    @pytest.mark.parametrize("family,n", [("so", 3), ("su", 2), ("u", 2), ("sq", 2)])
    def test_every_changed_generator_row_fails_the_rows(self, family, n):
        # Each generator row in turn: every constant doubled, and a term added
        # where the bracket is zero.  The rows alone must see each, Jacobi aside.
        L = build_algebra(family, SIGNED_PRIMES[:n])
        for pair in generator_split(L)[0]:
            terms = L.constants.get(pair)
            changed = {k: 2 * c for k, c in terms.items()} if terms else {0: Fraction(1)}
            assert not matrix_match(with_row(L, pair, changed), True), pair

    def test_a_changed_row_without_a_generator_needs_jacobi(self):
        # The rows that hold no generator are never compared: doubling a
        # constant in one leaves every compared row equal, and only Jacobi
        # tells the table from the commutators.
        mutants = 0
        for family, n in (("so", 3), ("so", 4), ("su", 2), ("u", 2), ("sq", 2)):
            for signs in sign_patterns(n):
                L = build_algebra(family, signs)
                for pair in generator_split(L)[1]:
                    k = min(L.constants[pair])
                    bad = with_row(L, pair, {**L.constants[pair], k: 2 * L.constants[pair][k]})
                    assert from_matrices(family, signs).constants != bad.constants
                    assert matrix_match(bad, True)
                    assert not verify_jacobi(bad) and not matrix_match(bad, verify_jacobi(bad))
                    mutants += 1
        assert mutants == 870


class TestShape:
    @pytest.mark.parametrize("family,nmax", [("so", 5), ("su", 4), ("u", 4), ("sq", 3)])
    def test_matches_matrix_route_at_distinct_products(self, family, nmax):
        lie_core._shape.cache_clear()
        for n in range(1, nmax + 1):
            # Build the shape at another omega first, so a value left over from
            # that build shows up as a mismatch below.
            build_algebra(family, [Fraction(7, 3)] * n)
            for omega in prime_omegas(n):
                om = OmegaVector(omega)
                # Every bracket monomial is coef * w_ab, ks = (a+1, ..., b).
                _, monomials, _ = lie_core._shape(family, n)
                for (coef, ks), value in zip(monomials, om.evaluate(monomials)):
                    a, b = (ks[0] - 1, ks[-1]) if ks else (0, 0)
                    assert ks == tuple(range(a + 1, b + 1)), (family, n, ks)
                    assert value == coef * om.product(a, b), (omega, coef, ks)
                closed = build_algebra(family, om)
                assert closed.constants == from_matrices(family, om).constants, (family, omega)

    def test_matrix_route_and_predictor_read_no_shape(self, monkeypatch):
        om = OmegaVector(SIGNED_PRIMES[:3])
        expected = build_algebra("sq", om)

        def refuse(*args):
            raise AssertionError("the closed-form shape was read")

        monkeypatch.setattr(lie_core, "_shape", refuse)
        with pytest.raises(AssertionError):
            build_algebra("sq", om)
        assert from_matrices("sq", om).constants == expected.constants
        for family in ("so", "su", "u"):
            assert predict(family, om)

    def test_cache_hands_out_no_shared_state(self):
        om = [Fraction(2), Fraction(-3)]
        first = build_algebra("su", om)
        snapshot = {pair: dict(terms) for pair, terms in first.constants.items()}
        pair = next(iter(first.constants))
        terms = first.constants[pair]
        terms[min(terms)] += 1
        terms[first.dim - 1] = Fraction(5)
        assert build_algebra("su", om).constants == snapshot

    def test_integer_constants_computed_once(self):
        L = build_algebra("su", [Fraction(2, 3), Fraction(-3)])
        assert L.integer_constants() is L.integer_constants()
        assert L.integer_constants()[(0, 1)] == {2: 2}


class TestContract:
    def test_zeroing(self):
        assert with_zeros(OmegaVector([1, 1]), {1}) == OmegaVector([0, 1])

    def test_galilei_pattern(self):
        assert with_zeros(OmegaVector([1, 1, 1]), {1, 2}) == OmegaVector([0, 0, 1])

    def test_union_idempotence(self):
        om = OmegaVector([1, -1, 1, -1])
        assert with_zeros(with_zeros(om, {1}), {3}) == with_zeros(om, {1, 3})
        assert with_zeros(with_zeros(om, {1}), {1}) == with_zeros(om, {1})

    def test_contract_builds_contracted_algebra(self):
        contracted = with_zeros(OmegaVector([1, 1]), {1})
        assert build_algebra("so", contracted).constants == build_algebra("so", [0, 1]).constants


class TestPermuteBasis:
    def test_brackets_transported(self):
        L = build_algebra("su", [0, 1])
        rng = random.Random(7)
        perm = list(range(L.dim))
        rng.shuffle(perm)
        P = permute_basis(L, perm)
        assert verify_jacobi(P)
        for u in (J(0, 1), M(1, 2), B(2)):
            assert bracket_of(L, u, B(1)) == bracket_of(P, u, B(1))

    def test_bad_permutation(self):
        with pytest.raises(ValueError):
            permute_basis(build_algebra("so", [1, 1]), [0, 0, 1])


class TestExtendedAlgebra:
    def test_zero_cochain_direct_sum(self):
        L = build_algebra("so", [1, 1])
        ext = build_extended(L, [{}])
        assert ext.dim == L.dim + 1
        assert ext.basis[-1] == xi_label(0)
        assert verify_jacobi(ext)

    def test_double_extension_rejected(self):
        # a second extension would repeat xi_label(0) in the basis
        ext = build_extended(build_algebra("so", [1, 1]), [{}])
        with pytest.raises(ValueError, match="distinct"):
            build_extended(ext, [{}])

    def test_central_generator_commutes(self):
        L = build_algebra("so", [0, 1])
        xi = {(0, 1): Fraction(1)}
        ext = build_extended(L, [xi])
        last = ext.dim - 1
        for i in range(ext.dim):
            assert bracket(ext, i, last) == {}

    def test_nontrivial_coefficient_appears_in_bracket(self):
        L = build_algebra("so", [0, 1])
        xi = {(0, 1): Fraction(5)}
        ext = build_extended(L, [xi])
        assert bracket(ext, 0, 1).get(3) == 5

    def test_jacobi_iff_cocycle(self):
        # exhaustive over the cocycle basis, plus random non-cocycles
        for family, signs in [("so", (0, 1)), ("so", (1, 1, 1)), ("su", (0,))]:
            L = build_algebra(family, signs)
            for xi in CohomologySolver(L).z2_basis().values():
                assert verify_jacobi(build_extended(L, [xi]))
        L = build_algebra("so", [1, 1, 1])
        solver = CohomologySolver(L)
        rng = random.Random(11)
        found_non_cocycle = 0
        for _ in range(20):
            entries = {}
            for i in range(L.dim):
                for j in range(i + 1, L.dim):
                    if rng.random() < 0.3:
                        entries[(i, j)] = Fraction(rng.randint(-3, 3))
            xi = {pair: v for pair, v in entries.items() if v}
            if not solver.is_cocycle(int_vector(solver, xi)):
                found_non_cocycle += 1
                assert not verify_jacobi(build_extended(L, [xi]))
        assert found_non_cocycle > 0

    def test_agrees_with_oracle_on_non_cocycle(self):
        L = build_algebra("so", [1, Fraction(-2, 3), Fraction(5, 2)])
        xi = {(0, 1): Fraction(1, 3), (1, 2): Fraction(-7, 4)}
        solver = CohomologySolver(L)
        assert not solver.is_cocycle(int_vector(solver, xi))
        ext = build_extended(L, [xi])
        assert verify_jacobi(ext) is oracle_jacobi(ext) is False

    def test_galilei_beta_extension_satisfies_jacobi(self):
        om = [0, 0, 1]
        L = build_algebra("so", om)
        xi = coefficient_cocycle("so", om, "beta[1,3]")
        assert verify_jacobi(build_extended(L, [xi]))

    def test_dimension_mismatch_rejected(self):
        # (0, 3) would pair X_0 with the new central generator itself
        with pytest.raises(ValueError):
            build_extended(build_algebra("so", [1, 1]), [{(0, 3): Fraction(1)}])


class TestSerialization:
    def test_structure_rows_sorted_and_exact(self):
        L = build_algebra("su", [0])
        rows = list(L.structure_rows())
        assert rows == sorted(rows, key=lambda r: (r[0], r[1], r[2]))
        obj = structure_json(L, True, True)
        assert obj["constants"][0]["c"] == "2"
        assert obj["basis"] == ["J(0,1)", "M(0,1)", "B(1)"]

    def test_dimension_table(self):
        for family in ("so", "su", "u", "sq"):
            for n in range(1, 7):
                assert build_algebra(family, [1] * n).dim == FAMILY_DIMENSION[family](n)
