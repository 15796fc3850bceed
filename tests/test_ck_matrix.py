from fractions import Fraction
from itertools import product

import pytest

from helpers import FAMILY_DIMENSION, omega_signs, with_zeros, zero_set
from cklie.ck_matrix import (
    B,
    BasisDecomposer,
    E,
    FAMILIES,
    I_LABEL,
    J,
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
)
from cklie.scalars import Hypercomplex, Kind


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

    def test_parse_and_text_roundtrip(self):
        om = OmegaVector.parse("1,0,-1/2")
        assert om.coeffs == (Fraction(1), Fraction(0), Fraction(-1, 2))
        assert om.text() == "1,0,-1/2"

    def test_signs_and_zero_set(self):
        om = OmegaVector([Fraction(3, 2), 0, -5])
        assert omega_signs(om) == (1, 0, -1)
        assert zero_set(om) == frozenset({2})
        assert om.n_zeros == 1

    def test_with_zeros(self):
        om = with_zeros(OmegaVector([1, 1, 1]), {1, 2})
        assert om.coeffs == (0, 0, 1)
        with pytest.raises(ValueError):
            with_zeros(OmegaVector([1]), {2})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            OmegaVector([])


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

    def test_label_validation(self):
        with pytest.raises(ValueError):
            J(1, 1)
        with pytest.raises(ValueError):
            Mq(4, 0, 1)
        with pytest.raises(ValueError):
            B(0)


class TestGenerators:
    def test_so_j01(self):
        g = build_generator("so", J(0, 1), [1, 1])
        assert g.cells == {(0, 1): Hypercomplex(-1), (1, 0): Hypercomplex(1)}

    def test_so_j01_contracted_single_entry(self):
        g = build_generator("so", J(0, 1), [0, 1])
        # the contracted entry -w_01 = 0 is not stored
        assert g.cells == {(1, 0): Hypercomplex(1)}

    def test_sq_e10(self):
        g = build_generator("sq", E(1, 0), [0])
        assert g.cells == {(0, 0): Hypercomplex(0, 1)}

    def test_family_label_mismatch(self):
        with pytest.raises(ValueError):
            build_generator("so", M(0, 1), [1])
        with pytest.raises(ValueError):
            build_generator("sq", B(1), [1])
        with pytest.raises(ValueError):
            build_generator("su", J(0, 3), [1, 1])

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
        X = MatrixOverK(2, Kind.REAL, {(0, 1): Hypercomplex(1)})
        assert not is_metric_antihermitian(X, build_metric([1]))

    def test_generator_not_antihermitian_under_other_metric(self):
        # J(0,1) for omega_1 = 1 against the metric of omega_1 = -1: each
        # stored cell is checked against its transposed partner
        X = build_generator("so", J(0, 1), [1])
        assert not is_metric_antihermitian(X, build_metric([-1]))

    def test_zero_matrix_antihermitian(self):
        assert is_metric_antihermitian(MatrixOverK(3, Kind.REAL), build_metric([1, 1]))


class TestCommutatorAndDecomposition:
    def test_commutator_antisymmetry(self):
        X = build_generator("so", J(0, 1), [1, 1])
        Y = build_generator("so", J(1, 2), [1, 1])
        assert not mat_commutator(X, X).cells
        assert not (mat_commutator(X, Y) + mat_commutator(Y, X)).cells

    def test_so3_bracket_as_matrices(self):
        om = [1, 1]
        X = build_generator("so", J(0, 1), om)
        Y = build_generator("so", J(1, 2), om)
        Z = build_generator("so", J(0, 2), om)
        assert mat_commutator(X, Y) == -Z

    def test_su2_bracket_coefficient(self):
        om = [1]
        com = mat_commutator(
            build_generator("su", J(0, 1), om), build_generator("su", M(0, 1), om)
        )
        basis = [build_generator("su", lab, om) for lab in labels_for_family("su", 1)]
        coeffs = BasisDecomposer(basis).coefficients(com)
        assert coeffs == {2: Fraction(-2)}

    def test_decompose_unit_vector(self):
        om = [1, 1]
        basis = [build_generator("so", lab, om) for lab in labels_for_family("so", 2)]
        coeffs = BasisDecomposer(basis).coefficients(basis[1])
        assert coeffs == {1: 1}

    def test_decompose_zero(self):
        om = [1, 1]
        basis = [build_generator("so", lab, om) for lab in labels_for_family("so", 2)]
        assert BasisDecomposer(basis).coefficients(MatrixOverK(3, Kind.REAL)) == {}

    def test_decompose_roundtrip_random_combination(self):
        # Rational omegas give basis rows scaled by different lcms, so a
        # decomposer that dropped those scales would get the coefficients wrong.
        for family, om in (("su", [0, 1]), ("su", ["2/3", "-5/7"]), ("sq", ["3/4", "-2/5"])):
            basis = [build_generator(family, lab, om) for lab in labels_for_family(family, 2)]
            coeffs = {k: Fraction(k * k - 3, k + 1) for k in range(len(basis))}
            X = MatrixOverK(3, basis[0].kind)
            for k, mat in enumerate(basis):
                X = X + mat * coeffs[k]
            dec = BasisDecomposer(basis)
            assert dec.coefficients(X) == coeffs, (family, om)

    def test_not_in_span(self):
        om = [1, 1]
        basis = [build_generator("so", lab, om) for lab in labels_for_family("so", 2)]
        outside = MatrixOverK(3, Kind.REAL, {(0, 0): Hypercomplex(1)})
        with pytest.raises(NotInSpanError):
            BasisDecomposer(basis).coefficients(outside)

    def test_dependent_basis_rejected(self):
        om = [1, 1]
        g = build_generator("so", J(0, 1), om)
        for factor in (2, Fraction(2, 3)):
            with pytest.raises(ValueError, match="basis element 1 depends"):
                BasisDecomposer([g, g * factor])

    def test_matrix_json_component_quadruples(self):
        g = build_generator("sq", E(2, 1), [1])
        comps = g.to_component_lists()
        assert comps[1][1] == ["0", "0", "1", "0"]
        assert comps[0][0] == ["0", "0", "0", "0"]
