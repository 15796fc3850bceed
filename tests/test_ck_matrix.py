from fractions import Fraction
from itertools import product
import json
import random

import pytest

from helpers import (
    FAMILY_DIMENSION,
    coefficient_cocycle,
    omega_signs,
    oracle_commutator,
    oracle_quaternion_product,
    scaled,
    with_zeros,
    zero_set,
)
from cklie import ck_matrix, cli, lie_core
from cklie.cli import matrix_json
from cklie.ck_matrix import (
    _UNIT_PRODUCT,
    B,
    E,
    FAMILIES,
    GeneratorLabel,
    I_LABEL,
    J,
    Kind,
    M,
    MatrixOverK,
    Mq,
    NotInSpanError,
    OmegaVector,
    build_generator,
    build_metric,
    is_metric_antihermitian,
    is_traceless,
    labels_for_family,
    mat_commutator,
    parse_rational,
)
from cklie.lie_core import build_algebra, from_matrices


def sign_patterns(n):
    return product((-1, 0, 1), repeat=n)


class TestOmegaVector:
    def test_product_example(self):
        assert OmegaVector([2, 3, 5]).product(1, 3) == 15

    def test_product_equal_indices_is_one(self):
        om = OmegaVector([7, -2, Fraction(1, 3)])
        for a in range(4):
            assert om.product(a, a) == 1

    def test_product_zero_annihilates(self):
        assert OmegaVector([0, 1, 1]).product(0, 2) == 0

    def test_product_bad_indices(self):
        om = OmegaVector([1, 1])
        with pytest.raises(ValueError):
            om.product(2, 1)
        with pytest.raises(ValueError):
            om.product(0, 3)

    @pytest.mark.parametrize("a,b,bad", [(True, 2, "True"), (0, 1.0, "1.0"), (Fraction(0), 1, "Fraction")])
    def test_product_non_int_index_rejected(self, a, b, bad):
        # product(True, 2) once gave omega_2 = 1 as if a were 1.
        with pytest.raises(TypeError, match=bad):
            OmegaVector([1, 1]).product(a, b)

    def test_string_is_refused(self):
        # A string would be read one character at a time.
        with pytest.raises(TypeError, match=r"OmegaVector\.parse"):
            OmegaVector("10")
        assert OmegaVector.coerce("10") == (10,)

    @pytest.mark.parametrize("coeffs", [b"10", bytearray(b"10"), {1: 2}, {1, 2}],
                             ids=["bytes", "bytearray", "dict", "set"])
    def test_bytes_and_unordered_input_refused(self, coeffs):
        # Bytes were read as character codes, b"10" as (49, 48), and a dict
        # as its keys, {1: 2} as (1); a set has no order either.
        with pytest.raises(TypeError, match=type(coeffs).__name__):
            OmegaVector(coeffs)
        with pytest.raises(TypeError, match=type(coeffs).__name__):
            OmegaVector.coerce(coeffs)

    def test_parse_and_text_roundtrip(self):
        om = OmegaVector.parse("1,0,-1/2")
        assert om == (Fraction(1), Fraction(0), Fraction(-1, 2))
        assert om.text() == "1,0,-1/2"

    def test_signs_and_zero_set(self):
        om = OmegaVector([Fraction(3, 2), 0, -5])
        assert omega_signs(om) == (1, 0, -1)
        assert zero_set(om) == frozenset({2})
        assert om.n_zeros == 1

    def test_with_zeros(self):
        om = with_zeros(OmegaVector([1, 1, 1]), {1, 2})
        assert om == (0, 0, 1)
        with pytest.raises(ValueError):
            with_zeros(OmegaVector([1]), {2})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            OmegaVector([])

    def test_is_its_tuple_of_fractions(self):
        om = OmegaVector([1, 0, "-1/2"])
        coeffs = (Fraction(1), Fraction(0), Fraction(-1, 2))
        assert om == coeffs and coeffs == om and hash(om) == hash(coeffs)
        assert all(type(c) is Fraction for c in om) and om[2] == coeffs[2]
        assert len({om, coeffs, OmegaVector.parse("1,0,-1/2")}) == 1
        assert om != OmegaVector([1, 0, "1/2"]) and om != coeffs[:2]
        assert OmegaVector.coerce(om) is om and OmegaVector.coerce(coeffs) == om
        assert repr(om) == "OmegaVector((1,0,-1/2))" and str(om) == repr(om)

    def test_read_only(self):
        om = OmegaVector([1, 1])
        for name in ("coeffs", "n", "n_zeros", "extra"):
            with pytest.raises(AttributeError):
                setattr(om, name, (2,))
        assert om == (1, 1) and om.n == 2

    @pytest.mark.parametrize("bad", [[], [0.5], [1, 1.0], [True], [1, False]])
    def test_empty_float_and_bool_input_rejected(self, bad):
        with pytest.raises(TypeError if bad else ValueError):
            OmegaVector(bad)
        with pytest.raises(TypeError if bad else ValueError):
            OmegaVector.coerce(tuple(bad))


class TestMetric:
    def test_all_ones(self):
        assert build_metric([1, 1]) == (1, 1, 1)

    def test_zero_propagates_rightward(self):
        assert build_metric([0, 1]) == (1, 0, 0)

    def test_sign_propagation(self):
        assert build_metric([-1, 1]) == (1, -1, -1)


class TestLabels:
    def test_basis_sizes_match_formulas(self):
        for family in FAMILIES:
            for n in range(1, 7):
                assert len(labels_for_family(family, n)) == FAMILY_DIMENSION[family](n)

    def test_family_dimension_values(self):
        assert len(labels_for_family("so", 3)) == 6
        assert len(labels_for_family("su", 2)) == 8
        assert len(labels_for_family("u", 2)) == 9
        assert len(labels_for_family("sq", 1)) == 10
        assert len(labels_for_family("sq", 2)) == 21

    def test_label_strings(self):
        assert str(J(0, 1)) == "J(0,1)"
        assert str(Mq(2, 0, 1)) == "M2(0,1)"
        assert str(E(1, 0)) == "E1(0)"
        assert str(B(1)) == "B(1)"
        assert str(I_LABEL) == "I"
        assert str(M(0, 2)) == "M(0,2)"
        assert str(J(3, 10)) == "J(3,10)"
        assert str(E(3, 12)) == "E3(12)"
        assert str(GeneratorLabel("Xi", ())) == "Xi"

    @pytest.mark.parametrize("family,nmax", [("so", 8), ("su", 6), ("u", 6), ("sq", 5)])
    def test_cells_tell_labels_apart_and_read_the_matrix(self, family, nmax):
        # `reversal` keys its relabelling on cells(), so it is one-to-one on
        # every basis; and at a signed rational omega every entry of the
        # generator has the unit of cells(), whose cells are the matrix's
        # upper-triangle support (every diagonal cell for I, which has none).
        for n in range(1, nmax + 1):
            omega = [Fraction(k + 2, 3 - k % 2) * (-1) ** k for k in range(n)]
            labels = labels_for_family(family, n)
            assert len({lab.cells() for lab in labels}) == len(labels), (family, n)
            for lab in labels:
                unit, cells = lab.cells()
                mat = build_generator(family, lab, omega).cells
                assert {u for u, _ in mat.values()} == {unit}, (family, n, lab)
                support = sorted((p, q) for p, q in mat if p <= q)
                assert support == list(cells or ((a, a) for a in range(n + 1))), (family, n, lab)

    @pytest.mark.parametrize("n", [True, 1.0, Fraction(1), "1"])
    def test_non_int_n_rejected(self, n):
        # labels_for_family("so", True) once gave the N = 1 basis.
        with pytest.raises(TypeError, match="n must be an int"):
            labels_for_family("so", n)

    def test_bool_n_misses_the_cached_int_entry(self):
        # The cache is typed: True == 1 and they hash alike, so an untyped
        # cache would hand True the basis of N = 1 without the type check.
        assert labels_for_family("so", 1) == (J(0, 1),)
        with pytest.raises(TypeError, match="bool"):
            labels_for_family("so", True)

    def test_basis_is_one_cached_tuple(self):
        basis = labels_for_family("sq", 2)
        assert type(basis) is tuple and labels_for_family("sq", 2) is basis

    def test_label_validation(self):
        with pytest.raises(ValueError):
            J(1, 1)
        with pytest.raises(ValueError):
            Mq(4, 0, 1)
        with pytest.raises(ValueError):
            B(0)

    @pytest.mark.parametrize(
        "make,args,bad",
        [
            (J, (Fraction(1, 2), 2), "Fraction"),
            (J, (0.5, 2), "float"),
            (J, (0, True), "bool"),
            (M, (0, 2.0), "float"),
            (B, (1.5,), "float"),
            (B, (True,), "bool"),
            (Mq, (True, 0, 1), "bool"),
            (Mq, (1, 0, 1.0), "float"),
            (E, (1, True), "bool"),
            (E, (1.0, 0), "float"),
            (GeneratorLabel, ("B", (1.5,)), "float"),
        ],
    )
    def test_non_int_index_rejected(self, make, args, bad):
        # A float or bool index once made a label such as B(1.5) or E1(True),
        # whose matrix put cells at non-integer positions.
        with pytest.raises(TypeError, match=bad):
            make(*args)


class TestGenerators:
    def test_so_j01(self):
        g = build_generator("so", J(0, 1), [1, 1])
        assert g.cells == {(0, 1): (0, -1), (1, 0): (0, 1)}

    def test_so_j01_contracted_single_entry(self):
        g = build_generator("so", J(0, 1), [0, 1])
        # the contracted entry -w_01 = 0 is not stored
        assert g.cells == {(1, 0): (0, 1)}

    def test_sq_e10(self):
        g = build_generator("sq", E(1, 0), [0])
        assert g.cells == {(0, 0): (1, 1)}

    def test_family_label_mismatch(self):
        with pytest.raises(ValueError):
            build_generator("so", M(0, 1), [1])
        with pytest.raises(ValueError):
            build_generator("sq", B(1), [1])
        with pytest.raises(ValueError):
            build_generator("su", J(0, 3), [1, 1])

    def test_non_int_label_index_rejected(self, monkeypatch):
        # A label that skips the index check (namedtuple's _make does) is not
        # in the basis, so it is refused before any cell is placed: B(1.5)
        # once put cells at (0.5, 0.5) and (1.5, 1.5) and rendered as the
        # zero matrix.
        def refuse(*args, **kwargs):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(ck_matrix, "MatrixOverK", refuse)
        with pytest.raises(ValueError, match="not a su generator"):
            build_generator("su", GeneratorLabel._make(("B", (1.5,))), [1, 1])

    @pytest.mark.parametrize("family", FAMILIES)
    def test_accepts_exactly_its_basis(self, family):
        # Every family's labels at N and N + 1, and the phase I, are offered;
        # the family's own basis at N is what is accepted.  The expected set
        # is also worked out apart from labels_for_family, from each family's
        # variants and a last index of at most N.
        variants = {"so": "J", "su": "J M B", "u": "J M B I", "sq": "J Mq E"}[family].split()
        for n in (1, 2, 3):
            offered = {I_LABEL}
            offered.update(lab for f in FAMILIES for m in (n, n + 1) for lab in labels_for_family(f, m))
            accepted = set()
            for lab in offered:
                try:
                    build_generator(family, lab, [1] * n)
                except ValueError as exc:
                    assert f"not a {family} generator" in str(exc)
                else:
                    accepted.add(lab)
            assert accepted == set(labels_for_family(family, n))
            assert accepted == {
                lab for lab in offered
                if lab.variant in variants and all(i <= n for i in lab.indices[-1:])
            }

    def test_all_generators_metric_antihermitian(self):
        # every family, every sign pattern, n <= 4: X^dag G + G X == 0
        for family in FAMILIES:
            for n in range(1, 5):
                for signs in sign_patterns(n):
                    g = build_metric(signs)
                    for lab in labels_for_family(family, n):
                        mat = build_generator(family, lab, signs)
                        assert is_metric_antihermitian(mat, g), (family, signs, lab)

    def test_su_generators_traceless(self):
        for n in (1, 2, 3):
            for signs in sign_patterns(n):
                for lab in labels_for_family("su", n):
                    assert is_traceless(build_generator("su", lab, signs))

    def test_phase_generator_not_traceless(self):
        assert not is_traceless(build_generator("u", I_LABEL, [1, 1]))

    def test_single_elementary_not_antihermitian(self):
        X = MatrixOverK(2, Kind.REAL, {(0, 1): (0, 1)})
        assert not is_metric_antihermitian(X, build_metric([1]))

    def test_generator_not_antihermitian_under_other_metric(self):
        # J(0,1) for omega_1 = 1 against the metric of omega_1 = -1: each
        # stored cell is checked against its transposed partner
        X = build_generator("so", J(0, 1), [1])
        assert not is_metric_antihermitian(X, build_metric([-1]))

    def test_partner_on_another_unit_not_antihermitian(self):
        # M(0,1) = i_1 (w e_01 + e_10) with i_2 at (1,0): the values are the
        # same, only the unit differs, and i_1 and i_2 terms cannot cancel.
        g = build_generator("su", M(0, 1), [1])
        same = MatrixOverK(2, Kind.QUATERNION, g.cells)
        swapped = MatrixOverK(2, Kind.QUATERNION, {**g.cells, (1, 0): (2, g.cells[1, 0][1])})
        metric = build_metric([1])
        assert is_metric_antihermitian(same, metric)
        assert not is_metric_antihermitian(swapped, metric)

    def test_torus_with_a_flipped_sign_not_traceless(self):
        g = build_generator("su", B(2), [1, 1])
        assert g.cells == {(1, 1): (1, 1), (2, 2): (1, -1)}
        flipped = MatrixOverK(3, Kind.COMPLEX, {**g.cells, (2, 2): (1, 1)})
        assert is_traceless(g) and not is_traceless(flipped)
        # i_1 - i_2 on the diagonal: the values cancel, the units do not.
        assert not is_traceless(MatrixOverK(2, Kind.QUATERNION, {(0, 0): (1, 1), (1, 1): (2, -1)}))

    def test_zero_matrix_antihermitian(self):
        assert is_metric_antihermitian(MatrixOverK(3, Kind.REAL), build_metric([1, 1]))

    @pytest.mark.parametrize("family,n", [("so", 4), ("su", 3), ("u", 3), ("sq", 3)])
    def test_reversal_is_the_exchanged_negated_adjoint(self, family, n):
        # X -> -P X^H P sends each generator at omega to sign * X_sigma at
        # reversed omega: the conjugate of i_u is -i_u for u != 0, and the
        # exchange matrix P moves cell (r, c) to (n - r, n - c).
        omega = [Fraction(k + 2, 3 - k % 2) * (-1) ** k for k in range(n)]
        labels = labels_for_family(family, n)
        sigma, sign = ck_matrix.reversal(labels, n)
        assert sorted(sigma) == list(range(len(labels)))
        for i, lab in enumerate(labels):
            cells = build_generator(family, lab, omega).cells
            image = {(n - c, n - r): (u, v if u else -v) for (r, c), (u, v) in cells.items()}
            mirror = build_generator(family, labels[sigma[i]], omega[::-1]).cells
            assert image == {rc: (u, sign[i] * v) for rc, (u, v) in mirror.items()}, lab


class TestMatrixOverK:
    def test_accepts_single_unit_entries(self):
        X = MatrixOverK(2, Kind.QUATERNION, {(0, 1): (3, Fraction(-2, 3)), (1, 1): (0, 5)})
        assert X.row() == {(0 * 2 + 1) * 4 + 3: Fraction(-2, 3), (1 * 2 + 1) * 4 + 0: 5}

    @pytest.mark.parametrize("unit", [4, -1, 1.0, None])
    def test_bad_unit_index(self, unit):
        with pytest.raises(ValueError, match="unit"):
            MatrixOverK(2, Kind.QUATERNION, {(0, 1): (unit, 1)})

    @pytest.mark.parametrize("value", [0, Fraction(0)])
    def test_zero_value(self, value):
        with pytest.raises(ValueError, match="zero"):
            MatrixOverK(2, Kind.REAL, {(0, 1): (0, value)})

    @pytest.mark.parametrize(
        "kind,unit", [(Kind.REAL, 1), (Kind.REAL, 3), (Kind.COMPLEX, 2), (Kind.COMPLEX, 3)]
    )
    def test_unit_the_kind_forbids(self, kind, unit):
        with pytest.raises(ValueError, match="unit"):
            MatrixOverK(2, kind, {(0, 1): (unit, 1)})

    @pytest.mark.parametrize("value", [0.5, 1.0, True, "1"])
    def test_inexact_value(self, value):
        with pytest.raises(TypeError):
            MatrixOverK(2, Kind.QUATERNION, {(0, 1): (1, value)})

    @pytest.mark.parametrize(
        "ij,bad", [((0.5, 1), "float"), ((1, 1.0), "float"), ((True, 1), "bool"), ((0, False), "bool")]
    )
    def test_position_not_an_int(self, ij, bad):
        # (0.5, 1) was once stored: the matrix printed as zero and row() gave column 8.0.
        with pytest.raises(TypeError, match=bad):
            MatrixOverK(2, Kind.REAL, {ij: (0, 1)})

    @pytest.mark.parametrize(
        "dim,kind,error,match",
        [
            (2.5, Kind.REAL, TypeError, "float"),
            (True, Kind.REAL, TypeError, "bool"),
            (0, Kind.REAL, ValueError, ">= 1"),
            (2, 5, TypeError, "Kind"),
            (2, 1, TypeError, "Kind"),
            (2, "REAL", TypeError, "Kind"),
        ],
    )
    def test_dim_and_kind_checked(self, dim, kind, error, match):
        # A float dim once gave row() {28.0: 1}, and kind 5 allowed unit 7.
        cells = {(0, 1): (7, 1)} if kind == 5 else {(1, 1): (0, 1)}
        with pytest.raises(error, match=match):
            MatrixOverK(dim, kind, cells)

    @pytest.mark.parametrize("ij", [(0, 2), (2, 0), (-1, 0)])
    def test_position_outside(self, ij):
        with pytest.raises(ValueError, match="outside"):
            MatrixOverK(2, Kind.REAL, {ij: (0, 1)})


class TestCommutatorAndDecomposition:
    def test_commutator_antisymmetry(self):
        X = build_generator("so", J(0, 1), [1, 1])
        Y = build_generator("so", J(1, 2), [1, 1])
        assert not mat_commutator(X, X)
        assert mat_commutator(X, Y)
        assert mat_commutator(X, Y) == {c: -v for c, v in mat_commutator(Y, X).items()}

    def test_so3_bracket_as_matrices(self):
        om = [1, 1]
        X = build_generator("so", J(0, 1), om)
        Y = build_generator("so", J(1, 2), om)
        Z = build_generator("so", J(0, 2), om)
        assert mat_commutator(X, Y) == {c: -v for c, v in Z.row().items()}

    @pytest.mark.parametrize(
        "family,om", [("so", [2, 0, "-1/3"]), ("u", ["2/3", "-5/7"]), ("sq", ["3/4", "-2/5"])]
    )
    def test_generator_commutators_match_dense_oracle(self, family, om):
        basis = [build_generator(family, lab, om) for lab in labels_for_family(family, len(om))]
        for X in basis:
            for Y in basis:
                assert mat_commutator(X, Y) == oracle_commutator(X, Y)

    def test_mixed_unit_commutators_match_dense_oracle(self):
        # Cells on different units, so an entry of the commutator can hold
        # several units at once, unlike any commutator of two generators.
        rng = random.Random(5)

        def random_matrix():
            cells = {}
            for _ in range(4):
                value = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
                cells[rng.randrange(3), rng.randrange(3)] = (rng.randrange(4), value)
            return MatrixOverK(3, Kind.QUATERNION, cells)

        for _ in range(50):
            X, Y = random_matrix(), random_matrix()
            assert mat_commutator(X, Y) == oracle_commutator(X, Y)

    def test_bracket_multiplies_no_fraction(self, monkeypatch):
        # The matrix route scales each generator once to integers, so its
        # per-pair loop commutes, reads off and recomposes in ints alone: with
        # the generators built beforehand, it runs with Fraction products
        # refused.
        om = OmegaVector(["3/4", "-2/5", "7/3"])
        expected = lie_core.from_matrices("sq", om)
        built = {lab: build_generator("sq", lab, om) for lab in labels_for_family("sq", 3)}
        monkeypatch.setattr(lie_core, "build_generator", lambda family, lab, omega: built[lab])

        def no_fraction_product(*args):
            raise AssertionError("a Fraction was multiplied")

        monkeypatch.setattr(Fraction, "__mul__", no_fraction_product)
        monkeypatch.setattr(Fraction, "__rmul__", no_fraction_product)
        with pytest.raises(AssertionError):
            Fraction(1, 2) * 3
        assert lie_core.from_matrices("sq", om).constants == expected.constants

    def test_su2_bracket_coefficient(self):
        om = [1]
        com = mat_commutator(
            build_generator("su", J(0, 1), om), build_generator("su", M(0, 1), om)
        )
        assert com == {c: -2 * v for c, v in build_generator("su", B(1), om).row().items()}
        # Read off the torus diagonal: B(1) takes d_0 = -2.
        assert lie_core.from_matrices("su", om).constants[(0, 1)] == {2: Fraction(-2)}

    def test_decompose_unit_vector(self):
        # The read-off of `from_matrices` rests on this: every generator but
        # B and I holds 1, in its own unit, at (b, a) (at (a, a) for E), the
        # largest column of its row, and no other generator holds that
        # column; so read off its own cells, a generator is its unit vector.
        om, dim = ["3/4", 0, "-2/5"], 4
        for family in FAMILIES:
            labels = labels_for_family(family, dim - 1)
            rows = [build_generator(family, lab, om).row() for lab in labels]
            for k, lab in enumerate(labels):
                if lab.variant in ("B", "I"):
                    continue
                if lab.variant == "E":
                    unit, a = lab.indices
                    b = a
                else:
                    unit, a, b = {"J": (0,), "M": (1,)}.get(lab.variant, ()) + lab.indices
                lead = max(rows[k])
                assert (lead, rows[k][lead]) == ((b * dim + a) * 4 + unit, 1), (family, lab)
                assert [h for h, row in enumerate(rows) if lead in row] == [k], (family, lab)

    def test_decompose_zero(self):
        # A zero commutator gets no entry: the phase I of u is central, and
        # J(0,1) and J(2,3) share no index.
        L = lie_core.from_matrices("u", [1, 1, 1])
        phase = L.basis.index(I_LABEL)
        assert not any(phase in pair for pair in L.constants)
        assert (L.basis.index(J(0, 1)), L.basis.index(J(2, 3))) not in L.constants
        assert all(L.constants.values())
        X, Y = (build_generator("so", lab, [1, 1, 1]) for lab in (J(0, 1), J(2, 3)))
        assert mat_commutator(X, Y) == {}

    def test_not_in_span(self, monkeypatch):
        # A real diagonal entry lies on no so generator's support, so no
        # recomposition can hold it.
        commutator = lie_core.mat_commutator

        def with_diagonal(X, Y):
            com = commutator(X, Y)
            return {**com, 0: 1} if com else com

        monkeypatch.setattr(lie_core, "mat_commutator", with_diagonal)
        with pytest.raises(NotInSpanError, match="not in the span"):
            lie_core.from_matrices("so", [1, 1])

    def test_mixed_dim_or_kind_rejected(self):
        # The columns depend on the dim, so matrices of different dim or kind
        # do not commute.
        small = MatrixOverK(2, Kind.REAL, {(0, 1): (0, 1)})
        large = MatrixOverK(3, Kind.REAL, {(0, 0): (0, 1)})
        with pytest.raises(ValueError, match="cannot commute"):
            mat_commutator(small, large)
        complex_ = MatrixOverK(2, Kind.COMPLEX, {(0, 0): (1, 1)})
        with pytest.raises(ValueError, match="cannot commute"):
            mat_commutator(complex_, small)

    def test_matrix_json_component_quadruples(self):
        g = build_generator("sq", E(2, 1), [1])
        comps = matrix_json(g)
        assert comps[1][1] == ["0", "0", "1", "0"]
        assert comps[0][0] == ["0", "0", "0", "0"]


class TestRational:
    def test_normalize_reduces(self):
        assert parse_rational("2/4") == Fraction(1, 2)

    def test_normalize_zero(self):
        q = parse_rational("0/5")
        assert q == 0 and q.denominator == 1

    def test_normalize_sign_in_numerator(self):
        q = parse_rational("-3/6")
        assert q == Fraction(-1, 2) and q.denominator == 2

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="denominator"):
            parse_rational("1/0")

    @pytest.mark.parametrize(
        "text,expected",
        [("3", Fraction(3)), ("-3", Fraction(-3)), ("3/6", Fraction(1, 2)), ("-1/2", Fraction(-1, 2))],
    )
    def test_parse(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["x", "1/-2", "1.5", "", "1/0"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    # int() reads any Unicode decimal digit: Arabic-Indic one and two,
    # full-width one.
    @pytest.mark.parametrize("text", ["\u0661", "\uff11", "-\u0661/2", "1/\u0662"])
    def test_parse_rejects_non_ascii_digits(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    @pytest.mark.parametrize("bad", [0.1, 1.0, True, False])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda v: OmegaVector([1, v]),
            lambda v: scaled({(0, 1): Fraction(1)}, v),
            lambda v: coefficient_cocycle("so", [0, 1], "alphaF[1,2]", v),
            lambda v: MatrixOverK(2, Kind.REAL, {(0, 1): (0, v)}),
        ],
        ids=["OmegaVector", "scaled", "coefficient_cocycle", "MatrixOverK"],
    )
    def test_floats_and_bools_rejected(self, entry, bad):
        # 0.1 would silently become 3602879701896397/36028797018963968
        with pytest.raises(TypeError):
            entry(bad)


class TestUnitTable:
    # The 16 Hamilton products of the units 1, i, j, k, written out:
    # e_p * e_q = sign * e_r.
    HAMILTON = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }

    def test_hamilton_products(self):
        units = "1ijk"
        for (a, b), (sign, c) in self.HAMILTON.items():
            assert _UNIT_PRODUCT[units.index(a)][units.index(b)] == (units.index(c), sign), (a, b)
        assert len(_UNIT_PRODUCT) == 4 and all(len(row) == 4 for row in _UNIT_PRODUCT)

    def test_oracle_product_on_units(self):
        # The oracle product is bilinear by its form, so its 16 unit
        # products fix it.
        units = "1ijk"

        def quad(a):
            return tuple(int(t == units.index(a)) for t in range(4))

        for (a, b), (sign, c) in self.HAMILTON.items():
            assert oracle_quaternion_product(quad(a), quad(b)) == tuple(sign * v for v in quad(c)), (a, b)

    @staticmethod
    def flip(monkeypatch, p, q):
        table = [list(row) for row in _UNIT_PRODUCT]
        r, sign = table[p][q]
        table[p][q] = (r, -sign)
        monkeypatch.setattr(ck_matrix, "_UNIT_PRODUCT", tuple(map(tuple, table)))

    def test_flipped_square_breaks_the_matrix_route(self, monkeypatch, capsys):
        # i*i = +1: every commutator of two i_1 generators changes sign and
        # stays in the span, so only the comparison with the closed form can
        # catch it.
        omega = "1,1"
        assert from_matrices("sq", omega).constants == build_algebra("sq", omega).constants
        self.flip(monkeypatch, 1, 1)
        assert from_matrices("sq", omega).constants != build_algebra("sq", omega).constants
        assert cli.main(["structure", "--family", "sq", "--omega", omega]) == 1
        assert json.loads(capsys.readouterr().out)["matrix_match"] is False

    def test_flipped_mixed_product_leaves_the_span(self, monkeypatch):
        # i*j = -k, with j*i = -k still: [E1(0), E2(0)] vanishes, and the
        # commutator of M1(0,1) and M2(1,2) is no longer antihermitian.
        self.flip(monkeypatch, 1, 2)
        with pytest.raises(NotInSpanError):
            from_matrices("sq", "1,1")
