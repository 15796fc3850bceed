import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    I1,
    I2,
    I3,
    ONE,
    Hypercomplex,
    coefficient_cocycle,
    oracle_quaternion_product,
    scaled,
)
import cklie
from cklie import ck_matrix, cli
from cklie.ck_matrix import _UNIT_PRODUCT, Kind, MatrixOverK, NotInSpanError, OmegaVector, parse_rational
from cklie.lie_core import build_algebra, from_matrices

UNITS = [ONE, I1, I2, I3, -I1, -I2, -I3, -ONE]

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def hc(w=0, x=0, y=0, z=0):
    return Hypercomplex(w, x, y, z)


quaternions = st.builds(hc, rationals, rationals, rationals, rationals)


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
            lambda v: Hypercomplex(v),
            lambda v: OmegaVector([1, v]),
            lambda v: scaled({(0, 1): Fraction(1)}, v),
            lambda v: coefficient_cocycle("so", [0, 1], "alphaF[1,2]", v),
            lambda v: MatrixOverK(2, Kind.REAL, {(0, 1): (0, v)}),
        ],
        ids=["Hypercomplex", "OmegaVector", "scaled", "coefficient_cocycle", "MatrixOverK"],
    )
    def test_floats_and_bools_rejected(self, entry, bad):
        # 0.1 would silently become 3602879701896397/36028797018963968
        with pytest.raises(TypeError):
            entry(bad)

    @given(rationals, rationals)
    def test_exact_addition_roundtrip(self, a, b):
        assert (a + b) - b == a


class TestNoFloats:
    def test_package_source_has_no_float(self):
        """The package never touches a float: no float literal anywhere, and
        the name `float` appears only in `ck_matrix._frac`, which rejects it."""
        found = []
        for path in sorted(Path(cklie.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            exempt = set()
            if path.name == "ck_matrix.py":
                frac = next(
                    f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_frac"
                )
                exempt = {id(node) for node in ast.walk(frac)}
            for node in ast.walk(tree):
                literal = isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                named = isinstance(node, ast.Name) and node.id == "float" and id(node) not in exempt
                if literal or named:
                    found.append(f"{path.name}:{node.lineno}")
        assert not found


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


class TestHypercomplex:
    def test_defining_relations(self):
        assert I1 * I2 == I3
        assert I2 * I3 == I1
        assert I3 * I1 == I2
        for u in (I1, I2, I3):
            assert u * u == -ONE

    def test_anticommutation(self):
        for a in (I1, I2, I3):
            for b in (I1, I2, I3):
                if a != b:
                    assert a * b == -(b * a)

    def test_norm_expansion(self):
        assert hc(1, 1) * hc(1, -1) == hc(2)

    def test_conjugation_examples(self):
        assert hc(1, 1).conjugate() == hc(1, -1)
        assert hc(3).conjugate() == hc(3)
        assert hc(0, 0, 1, 1).conjugate() == hc(0, 0, -1, -1)

    def test_conj_is_involution_on_units(self):
        for u in UNITS:
            assert u.conjugate().conjugate() == u

    def test_conj_antihomomorphism_on_units(self):
        # exhaustive over the signed unit basis
        for a in UNITS:
            for b in UNITS:
                assert (a * b).conjugate() == b.conjugate() * a.conjugate()

    def test_kind_tags(self):
        assert hc(1).kind == Kind.REAL
        assert hc(1, 2).kind == Kind.COMPLEX
        assert hc(0, 0, 1).kind == Kind.QUATERNION
        with pytest.raises(ValueError):
            Hypercomplex(1, 2, kind=Kind.REAL)

    def test_kind_promotion(self):
        assert (hc(2) * Hypercomplex(0, 1)).kind == Kind.COMPLEX
        assert (Hypercomplex(0, 1) * I2).kind == Kind.QUATERNION

    def test_real_and_complex_multiplication_embed(self):
        # complex arithmetic through the quaternion carrier
        assert hc(0, 1) * hc(0, 1) == hc(-1)
        assert hc(1, 2) * hc(3, -1) == hc(5, 5)

    def test_immutability(self):
        with pytest.raises(AttributeError):
            ONE.w = Fraction(2)

    @given(quaternions, quaternions, quaternions)
    @settings(max_examples=200, deadline=None)
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(quaternions, quaternions)
    @settings(max_examples=200, deadline=None)
    def test_conj_antihomomorphism(self, a, b):
        assert (a * b).conjugate() == b.conjugate() * a.conjugate()

    @given(quaternions)
    @settings(max_examples=200, deadline=None)
    def test_norm_is_a_conj_a(self, a):
        norm_sq = sum(c * c for c in a.components())
        assert a * a.conjugate() == Hypercomplex(norm_sq)
        assert norm_sq >= 0

    @given(quaternions, quaternions)
    @settings(max_examples=100, deadline=None)
    def test_distributivity(self, a, b):
        c = hc(1, 2, 3, 4)
        assert (a + b) * c == a * c + b * c

    @given(
        st.lists(rationals, min_size=8, max_size=8),
        st.lists(st.booleans(), min_size=8, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_product_matches_full_formula(self, parts, keep):
        # zero masks exercise every sparsity pattern the skipping product sees
        comps = [c if k else Fraction(0) for c, k in zip(parts, keep)]
        a = Hypercomplex(*comps[:4], kind=Kind.QUATERNION)
        b = Hypercomplex(*comps[4:])
        for x, y in ((a, b), (b, a)):
            prod = x * y
            assert prod.components() == oracle_quaternion_product(
                x.components(), y.components()
            )
            assert all(type(v) is Fraction for v in prod.components())
            assert prod.kind == Kind.QUATERNION

    def test_scalar_multiplication(self):
        assert 2 * I1 == I1 + I1
        assert I2 * Fraction(1, 2) + I2 * Fraction(1, 2) == I2

    def test_str_forms(self):
        assert str(hc(0)) == "0"
        assert str(hc(1, -1)) == "1-i"
        assert str(-I3) == "-k"
        assert str(hc(Fraction(1, 2), 0, 3)) == "1/2+3j"
