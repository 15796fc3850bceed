import json
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    SIGNED_PRIMES,
    cochain_sum,
    cochain_value,
    coefficient_cocycle,
    int_vector,
    is_trivial,
    omega_signs,
    oracle_coboundary,
    prime_omegas,
    zero_set,
)
from cklie import classify, cli, lie_core
from cklie.ck_matrix import B, GeneratorLabel, J, M, OmegaVector, labels_for_family
from cklie.classify import (
    CatalogEntry,
    CoefficientVerdict,
    crosscheck,
    predict,
    removals,
)
from cklie.cohomology import CohomologySolver
from cklie.lie_core import build_algebra


def sign_patterns(n):
    return product((-1, 0, 1), repeat=n)


def active_names(catalog):
    return [e.name for e in catalog if e.active]


class TestZeroPattern:
    def test_from_omega(self):
        om = OmegaVector.coerce([1, 0, 0, -1])
        assert om.n_zeros == 2 and zero_set(om) == frozenset({2, 3})


class TestPredictSo:
    def test_simple_signature_cases_have_none(self):
        assert active_names(predict("so", [1, 1, 1, 1])) == []
        assert active_names(predict("so", [-1, 1, -1, 1])) == []

    def test_galilei_n3(self):
        cat = predict("so", [0, 0, 1])
        assert sorted(active_names(cat)) == ["alphaF[2,3]", "alphaL[0,1]", "beta[1,3]"]
        assert len(active_names(cat)) == 3

    def test_flag_n4(self):
        cat = predict("so", [0, 0, 0, 0])
        assert len(active_names(cat)) == 9  # 2(N-1) type II + (N-1)(N-2)/2 type III

    def test_deep_zero_tail_n5(self):
        cat = predict("so", [0, 0, 1, 1, 1])
        assert active_names(cat) == ["alphaL[0,1]"]

    def test_n1_empty_catalog(self):
        assert predict("so", [1]) == ()
        assert active_names(predict("so", [0])) == []

    def test_n2_only_singletons(self):
        cat = predict("so", [0, 1])
        assert [e.name for e in cat] == ["alphaL[0,1]", "alphaF[1,2]"]
        assert active_names(cat) == ["alphaF[1,2]"]

    def test_entry_counts(self):
        for n in range(2, 7):
            cat = predict("so", [1] * n)
            singletons = ("alphaL[0,1]", f"alphaF[{n - 1},{n}]")
            n_pairs = sum(1 for e in cat if e.ext_type == "II" and e.name not in singletons)
            n_beta = sum(1 for e in cat if e.ext_type == "III")
            assert n_pairs == 2 * (n - 2)
            assert n_beta == (n - 1) * (n - 2) // 2

    def test_monotone_under_more_zeros(self):
        # enlarging the zero set never deactivates an entry
        for n in (3, 4, 5):
            for signs in sign_patterns(n):
                before = {e.name: e.active for e in predict("so", signs)}
                for k in range(1, n + 1):
                    if signs[k - 1] == 0:
                        continue
                    contracted = list(signs)
                    contracted[k - 1] = 0
                    after = {e.name: e.active for e in predict("so", contracted)}
                    for name, was_active in before.items():
                        if was_active:
                            assert after[name], (signs, k, name)


class TestPredictUnitaryAndSq:
    def test_su_formula(self):
        assert active_names(predict("su", [1, 1])) == []
        assert active_names(predict("su", [0, 1])) == ["alpha[1]"]
        assert sorted(active_names(predict("su", [0, 0, 1]))) == [
            "alpha[1]",
            "alpha[2]",
            "beta[1,2]",
        ]
        for n in (1, 2, 3):
            for signs in sign_patterns(n):
                nz = signs.count(0)
                assert len(active_names(predict("su", signs))) == nz * (nz + 1) // 2

    def test_u_formula(self):
        assert active_names(predict("u", [1])) == []
        assert sorted(active_names(predict("u", [0]))) == ["alpha[1]", "gamma[1]"]
        assert len(active_names(predict("u", [0, 0, 0]))) == 9
        for n in (1, 2, 3):
            for signs in sign_patterns(n):
                nz = signs.count(0)
                assert len(active_names(predict("u", signs))) == nz * (nz + 3) // 2

    def test_sq_always_empty(self):
        for n in (1, 2, 3, 4):
            for signs in [(1,) * n, (0,) * n, (-1, 1) * (n // 2) or (-1,) * n]:
                assert active_names(predict("sq", signs)) == []
        assert predict("sq", [-1, 1]) == ()

    def test_predict_dispatch(self):
        assert [e.name for e in predict("so", [0, 1])] == ["alphaL[0,1]", "alphaF[1,2]"]
        assert [e.name for e in predict("u", [1])] == ["alpha[1]", "gamma[1]"]
        with pytest.raises(ValueError):
            predict("sp", [1])


class TestCoefficientCocycle:
    def test_so_alphaF_slots(self):
        om = [0, 1]
        xi = coefficient_cocycle("so", om, "alphaF[1,2]")
        # slots xi(J(a,1), J(a,2)) = w_{a,0}: only a=0 with value w_00 = 1
        assert xi == {(0, 1): Fraction(1)}

    def test_so_alphaL_slots(self):
        om = OmegaVector([1, 1, 1])
        xi = coefficient_cocycle("so", om, "alphaL[0,1]")
        L = build_algebra("so", om)
        # slots xi(J(0,c), J(1,c)) = w_{2,c} for c = 2, 3
        expected = {
            (L.basis.index(J(0, 2)), L.basis.index(J(1, 2))): Fraction(1),
            (L.basis.index(J(0, 3)), L.basis.index(J(1, 3))): Fraction(1),
        }
        assert xi == expected

    def test_so_beta_adjacent_has_two_slots(self):
        om = [0, 1, 0]
        xi = coefficient_cocycle("so", om, "beta[1,3]")
        # slot (J(0,1), J(2,3)) with 1 and (J(0,2), J(1,3)) with -w_2
        assert len(xi) == 2
        vals = sorted(xi.values())
        assert vals == [Fraction(-1), Fraction(1)]

    def test_so_beta_wide_single_slot(self):
        om = [0, 0, 0, 0]
        xi = coefficient_cocycle("so", om, "beta[1,4]")
        assert len(xi) == 1

    def test_su_alpha_unit_slot(self):
        om = [0]
        xi = coefficient_cocycle("su", om, "alpha[1]")
        L = build_algebra("su", om)
        assert cochain_value(xi, L.basis.index(J(0, 1)), L.basis.index(M(0, 1))) == 1

    def test_su_alpha_slot_values(self):
        om = OmegaVector([2, 3])
        xi = coefficient_cocycle("su", om, "alpha[1]")
        L = build_algebra("su", om)
        iJ01, iJ02 = L.basis.index(J(0, 1)), L.basis.index(J(0, 2))
        iM01, iM02 = L.basis.index(M(0, 1)), L.basis.index(M(0, 2))
        # xi(J(0,1), M(0,1)) = w_00 * w_11 = 1; xi(J(0,2), M(0,2)) = w_00 * w_12 = 3
        assert cochain_value(xi, iJ01, iM01) == 1
        assert cochain_value(xi, iJ02, iM02) == 3

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            coefficient_cocycle("so", [0, 1], "beta[1,3]")  # no beta at N=2
        with pytest.raises(ValueError):
            coefficient_cocycle("su", [0], "gamma[1]")  # gamma only in u
        with pytest.raises(ValueError):
            coefficient_cocycle("so", [0, 1], "nonsense")


def removal_identity(family, omega, g):
    """Both sides of the catalog's removal identity for the generator g:
    delta(e_g) and the sum of c * xi over the entries with shift (g, c)."""
    L = build_algebra(family, omega)
    delta = oracle_coboundary(L, {L.basis.index(g): 1})
    return delta, removals(predict(family, omega))[g]


class TestRemovalIdentities:
    def test_singleton_alphaL_removed_exactly(self):
        # delta(e_J(0,1)) = w2 * alphaL[0,1]
        om = [1, 1, 1]
        delta, rhs = removal_identity("so", om, J(0, 1))
        assert rhs == coefficient_cocycle("so", om, "alphaL[0,1]")
        assert delta == rhs

    def test_singleton_alphaF_removed_exactly(self):
        # delta(e_J(2,3)) = w2 * alphaF[2,3]
        om = [1, -1, 1]
        delta, rhs = removal_identity("so", om, J(2, 3))
        assert rhs == coefficient_cocycle("so", om, "alphaF[2,3]", -1)
        assert delta == rhs

    def test_su_alpha_removed_exactly(self):
        # delta(e_B(k)) = -2 w_k * alpha[k]
        om = [Fraction(2, 3), 1]
        for k, w in ((1, Fraction(2, 3)), (2, 1)):
            delta, rhs = removal_identity("su", om, B(k))
            assert rhs == coefficient_cocycle("su", om, f"alpha[{k}]", -2 * w)
            assert delta == rhs

    def test_removal_refused_when_active(self):
        # an active singleton has shift factor 0: no shift removes it, and
        # the identity reads delta(e_g) = 0
        for family, om, g in (("so", [1, 0, 1], J(0, 1)), ("su", [0], B(1))):
            delta, rhs = removal_identity(family, om, g)
            assert not rhs
            assert delta == rhs

    def test_pair_combination_equals_coboundary_always(self):
        # delta(e_J(a+1,a+2)) = w_{a+1} * alphaF + w_{a+3} * alphaL
        for n in (3, 4):
            for signs in sign_patterns(n):
                for a in range(n - 2):
                    delta, rhs = removal_identity("so", signs, J(a + 1, a + 2))
                    f, l = f"alphaF[{a + 1},{a + 2}]", f"alphaL[{a + 1},{a + 2}]"
                    xi_f = coefficient_cocycle("so", signs, f, signs[a])
                    xi_l = coefficient_cocycle("so", signs, l, signs[a + 2])
                    assert rhs == cochain_sum(xi_f, xi_l), (signs, a)
                    assert delta == rhs, (signs, a)

    def test_pair_constraint_violation_not_a_cocycle(self):
        # alphaF alone with both constraint omegas nonzero violates the tie
        om = [1, 1, 1]
        L = build_algebra("so", om)
        solver = CohomologySolver(L)
        xi_f = coefficient_cocycle("so", om, "alphaF[1,2]")
        xi_l = coefficient_cocycle("so", om, "alphaL[1,2]")
        assert not solver.is_cocycle(int_vector(solver, xi_f))
        assert not solver.is_cocycle(int_vector(solver, xi_l))
        # but the tied combination is one
        assert solver.is_cocycle(int_vector(solver, removals(predict("so", om))[J(1, 2)]))

    def test_pair_members_independent_when_both_omegas_vanish(self):
        om = [0, 1, 0]
        L = build_algebra("so", om)
        solver = CohomologySolver(L)
        for name in ("alphaF[1,2]", "alphaL[1,2]"):
            xi = coefficient_cocycle("so", om, name)
            assert solver.is_cocycle(int_vector(solver, xi))
            assert not is_trivial(L, xi)


class TestCrosscheck:
    @pytest.mark.parametrize(
        "family,signs,dim",
        [("so", (0, 1), 1), ("su", (0, 0), 3), ("sq", (0, 0), 0)],
    )
    def test_examples(self, family, signs, dim):
        rep = crosscheck(family, signs)
        assert rep.match and rep.dim_h2 == dim

    def test_report_fields(self):
        rep = crosscheck("so", [0, 0, 1])
        assert rep.predicted == rep.dim_h2 == 3
        assert rep.n_zeros == 2
        obj = cli.crosscheck_json(rep)
        assert obj["match"] is True
        assert len(obj["coefficients"]) == len(rep.verdicts)

    def test_type_iii_forced_zero_verdict(self):
        rep = crosscheck("so", [1, 1, 1])
        beta = [v for v in rep.verdicts if v.name == "beta[1,3]"][0]
        assert not beta.active and not beta.cocycle and beta.ok

    def test_small_sweeps_all_match(self):
        for family, nmax in (("so", 4), ("su", 2), ("u", 2), ("sq", 2)):
            for n in range(1, nmax + 1):
                for signs in sign_patterns(n):
                    assert crosscheck(family, signs).match, (family, signs)

    def test_builds_no_rational_cochain(self, monkeypatch):
        # Each entry goes to the solver as the integer vector of its slots:
        # with `z2_basis`, the only place the solver makes Fractions, patched
        # to raise, the reports over the grid of the four acceptance sweeps
        # stay the same.
        grid = [
            (family, signs)
            for family, n in (("so", 5), ("su", 3), ("u", 3), ("sq", 2))
            for signs in sign_patterns(n)
        ]
        expected = [cli.crosscheck_json(crosscheck(family, signs)) for family, signs in grid]
        assert all(obj["match"] for obj in expected)

        def refuse(*args, **kwargs):
            raise AssertionError("crosscheck built the Z2 basis")

        monkeypatch.setattr(CohomologySolver, "z2_basis", refuse)
        assert [cli.crosscheck_json(crosscheck(family, signs)) for family, signs in grid] == expected

    @pytest.mark.parametrize(
        "family,signs",
        [("so", (1, 1)), ("so", (0, 1, 0)), ("su", (1, 0)), ("u", (0, -1)), ("sq", (1, 0))],
    )
    def test_report_solver_is_the_requested_algebra(self, family, signs):
        rep = crosscheck(family, signs)
        assert rep.solver.algebra.constants == build_algebra(family, signs).constants
        res = rep.solver.result()
        assert (rep.dim_z2, rep.dim_b2, rep.dim_h2) == (res.dim_z2, res.dim_b2, res.dim_h2)

    def test_active_entries_must_span_h2(self, monkeypatch):
        # A catalog whose paired alphaF carries the slots of its alphaL keeps
        # the right count and every active entry a nontrivial cocycle, but
        # the active entries no longer span H2: match must say so.
        def mutant(family, omega):
            cat = predict(family, omega)
            by_name = {e.name: e for e in cat}
            n = OmegaVector.coerce(omega).n
            entries = []
            for e in cat:
                if e.name.startswith("alphaF[") and e.name != f"alphaF[{n - 1},{n}]":
                    e = e._replace(slots=by_name["alphaL" + e.name[len("alphaF"):]].slots)
                entries.append(e)
            return tuple(entries)

        monkeypatch.setattr(classify, "predict", mutant)
        caught = 0
        for n in range(1, 6):
            for signs in sign_patterns(n):
                rep = crosscheck("so", signs)
                if not rep.match:
                    caught += 1
                    assert rep.predicted == rep.dim_h2
                    assert all(v.ok for v in rep.verdicts)
        assert caught

    def test_mixed_deep_zero_patterns(self):
        # patterns with no closed-form table entry still crosscheck
        for signs in [(1, 0, 1), (0, 1, 0), (1, 0, 1, 0), (0, 1, 1, 0)]:
            rep = crosscheck("so", signs)
            assert rep.match
        assert crosscheck("so", (1, 0, 1)).dim_h2 == 3
        assert crosscheck("so", (1, 0, 1, 0)).dim_h2 == 4


class TestCatalogShape:
    @pytest.mark.parametrize("family,nmax", [("so", 6), ("su", 4), ("u", 4)])
    def test_identities_and_crosscheck_at_distinct_products(self, family, nmax):
        classify._catalog_shape.cache_clear()
        for n in range(1, nmax + 1):
            # Build the shape at another omega first, so a value left over from
            # that build shows up as a failure below.
            predict(family, [Fraction(7, 3)] * n)
            for omega in prime_omegas(n):
                for g in removals(predict(family, omega)):
                    delta, rhs = removal_identity(family, omega, g)
                    assert delta == rhs, (family, omega, g)
                assert crosscheck(family, omega).match, (family, omega)

    def test_predict_reads_no_labels_once_built(self, monkeypatch):
        om = SIGNED_PRIMES[:3]
        for family in ("so", "su", "u", "sq"):
            predict(family, [1, 1, 1])

        def refuse(*args):
            raise AssertionError("the basis labels were rebuilt")

        monkeypatch.setattr(classify, "labels_for_family", refuse)
        catalogs = {family: predict(family, om) for family in ("so", "su", "u", "sq")}
        identities = {family: removals(cat) for family, cat in catalogs.items()}
        monkeypatch.undo()
        classify._catalog_shape.cache_clear()
        for family, cat in catalogs.items():
            assert cat == predict(family, om)
            assert identities[family] == removals(predict(family, om))

    @pytest.mark.parametrize("family,nmax", [("so", 8), ("su", 6), ("u", 6), ("sq", 4)])
    def test_degree_at_most_one_in_each_omega(self, family, nmax):
        # Every catalog slot, factor and shift and every bracket constant is
        # an integer times a squarefree monomial; so both sides of
        # delta(e_g) = sum of c * xi have degree <= 2 in each omega_k, and
        # agreeing on {-1, 0, 1}^N proves the identity for every omega.
        for n in range(1, nmax + 1):
            monomials, entries = classify._catalog_shape(family, n)
            _, bracket_monomials, _ = lie_core._shape(family, n)
            for _, ks in monomials + bracket_monomials:
                assert list(ks) == sorted(set(ks)) and set(ks) <= set(range(1, n + 1)), (n, ks)
            assert all(i < j for *_, slots, _ in entries for i, j, _ in slots), (family, n)

    def test_evaluate_matches_explicit_products(self):
        # The su alpha[s] slots are w_{a,s-1} * w_{s,b}, not a range product.
        om = OmegaVector(SIGNED_PRIMES[:4])
        monomials, entries = classify._catalog_shape("su", 4)
        labels = labels_for_family("su", 4)
        values = om.evaluate(monomials)
        checked = 0
        for name, _, _, slots, _ in entries:
            if name.startswith("alpha"):
                s = int(name[6:-1])
                for i, _, m in slots:
                    a, b = labels[i].indices
                    assert values[m] == om.product(a, s - 1) * om.product(s, b), (name, a, b)
                    checked += 1
        assert checked == 4 + 6 + 6 + 4
        # A repeated index counts twice, and no index is the coefficient.
        assert om.evaluate([(3, (2, 2, 3)), (-4, ())]) == [3 * 9 * Fraction(5, 7), -4]


class TestRecords:
    """The immutable records: fields in order and read-only, defaults, label
    hashing, and a crosscheck report whose serialization leaves out its
    solver."""

    FIELDS = {
        "GeneratorLabel": ("variant", "indices"),
        "CocycleSystem": ("n_unknowns", "rows"),
        "CohomologyResult": ("dim_z2", "dim_b2", "dim_h2"),
        "CatalogEntry": ("name", "ext_type", "active", "slots", "shift"),
        "CoefficientVerdict": ("name", "type", "active", "cocycle", "trivial", "ok", "note"),
        "CrosscheckReport": (
            "family", "omega", "n_zeros", "predicted", "dim_z2", "dim_b2", "dim_h2",
            "verdicts", "match", "solver",
        ),
    }

    def test_fields_in_order_and_read_only(self):
        rep = crosscheck("so", [0, 0, 1])
        catalog = predict("so", [0, 0, 1])
        records = [
            J(0, 1), rep.solver.system(), rep.solver.result(), catalog[0],
            rep.verdicts[0], rep,
        ]
        assert sorted(type(r).__name__ for r in records) == sorted(self.FIELDS)
        for record in records:
            fields = self.FIELDS[type(record).__name__]
            assert type(record)(*(getattr(record, f) for f in fields)) == record
            for name in fields + ("extra",):
                with pytest.raises(AttributeError):
                    setattr(record, name, None)

    def test_labels_hash_like_their_tuple(self):
        assert J(0, 1) == GeneratorLabel("J", (0, 1))
        assert hash(J(0, 1)) == hash(GeneratorLabel("J", (0, 1))) == hash(("J", (0, 1)))
        assert J(0, 1) != M(0, 1) and J(0, 1) != J(0, 2)
        assert len({J(0, 1), GeneratorLabel("J", (0, 1)), M(0, 1)}) == 2

    def test_defaults(self):
        assert CatalogEntry("beta[1,3]", "III", False, ()).shift is None
        assert CoefficientVerdict("beta[1,3]", "III", False, False, None, True).note == ""
        entries = predict("so", [0, 0, 1])
        assert all(e.shift is None for e in entries if e.ext_type == "III")

    def test_report_serialization_leaves_out_the_solver(self):
        a, b = crosscheck("so", [0, 0, 1]), crosscheck("so", [0, 0, 1])
        assert a.solver is not b.solver
        summary = cli.crosscheck_json
        assert summary(a) == summary(b)
        text = json.dumps(summary(a), sort_keys=True)
        assert "solver" not in text and "Cohomology" not in text
        assert a[:-1] == b[:-1] and summary(a) != summary(crosscheck("so", [0, 1, 1]))
        assert list(summary(a)["coefficients"][0]) == list(CoefficientVerdict._fields)


class TestRescalingCovariance:
    def test_h2_depends_only_on_signs(self):
        # scaling any entry by a positive square leaves all dims unchanged
        cases = [
            ([1, 1], [4, Fraction(9, 4)]),
            ([0, 1], [0, Fraction(1, 4)]),
            ([-1, 1, 0], [-4, 9, 0]),
        ]
        for signs, scaled in cases:
            a = CohomologySolver(build_algebra("so", signs)).result()
            b = CohomologySolver(build_algebra("so", scaled)).result()
            assert (a.dim_z2, a.dim_b2, a.dim_h2) == (b.dim_z2, b.dim_b2, b.dim_h2)
            assert omega_signs(signs) == omega_signs(scaled)


def _nonunit_rationals():
    """0 or +-p/q with p <= 13, q <= 9 and |p/q| != 1."""
    magnitude = st.builds(Fraction, st.integers(1, 13), st.integers(1, 9)).filter(lambda v: v != 1)
    return st.one_of(
        st.just(Fraction(0)), st.builds(lambda v, s: s * v, magnitude, st.sampled_from((-1, 1)))
    )


@st.composite
def rational_cases(draw):
    family, nmax = draw(st.sampled_from((("so", 4), ("su", 3), ("u", 3))))
    n = draw(st.integers(1, nmax))
    return family, tuple(draw(st.lists(_nonunit_rationals(), min_size=n, max_size=n)))


@pytest.fixture
def fresh_certificate():
    # The certificates are cached per (family, N); a test that patches a
    # shape must not read, nor leave behind, a verdict on another shape.
    for certify in (classify.certify_rescaling, classify.certify_reversal):
        certify.cache_clear()
    yield
    for certify in (classify.certify_rescaling, classify.certify_reversal):
        certify.cache_clear()


def patch_shape(monkeypatch, name, family, n, mutate):
    """Serve mutate(shape) in place of the cached shape `classify.<name>`
    for (family, n); every other (family, N) keeps its own."""
    real = getattr(classify, name)
    mutant = mutate(real(family, n))
    monkeypatch.setattr(
        classify, name, lambda f, k: mutant if (f, k) == (family, n) else real(f, k)
    )


def edit_entries(edit):
    """A catalog shape mutation: each entry's (slots, shift) becomes
    edit(name, slots, shift, monomials), where `monomials` is a list that
    edit may append new monomials to."""

    def mutate(shape):
        monomials, rows = shape
        monomials = list(monomials)
        rows = tuple(
            (name, ext_type, factors, *edit(name, slots, shift, monomials))
            for name, ext_type, factors, slots, shift in rows
        )
        return tuple(monomials), rows

    return mutate


def numbered(monomials, mono):
    monomials.append(mono)
    return len(monomials) - 1


def su_alpha_with_omega_s(name, slots, shift, monomials):
    # xi(J(a,b), M(a,b)) = w_ab, omega_s included, for alpha[s].
    if not name.startswith("alpha"):
        return slots, shift
    s = int(name[6:-1])
    slots = tuple(
        (i, j, numbered(monomials, (coef, tuple(sorted((*ks, s))))))
        for i, j, m in slots
        for coef, ks in [monomials[m]]
    )
    return slots, shift


class TestRescalingCertificate:
    """`certify_rescaling` proves that a crosscheck depends on the zero set
    of omega alone; the sweep carries each row from a 0/1 representative on
    its strength."""

    @pytest.mark.parametrize("family,nmax", [("so", 12), ("su", 8), ("u", 8), ("sq", 6)])
    def test_passes_on_every_shape(self, family, nmax, fresh_certificate):
        for n in range(1, nmax + 1):
            assert classify.certify_rescaling(family, n) is None

    def test_squared_slot_monomial_is_counted(self, monkeypatch, capsys, fresh_certificate):
        # so beta[1,3] with -omega_2**2 in place of -omega_2.  Every 0/1
        # representative still matches, since omega_2**2 = omega_2 there, but
        # the sign pattern (0, -1, 0, 0), where beta[1,3] is active, does not:
        # only counting exponents, not testing membership, sees it.
        def square(name, slots, shift, monomials):
            if name == "beta[1,3]":
                (i, j, m) = slots[1]
                coef, ks = monomials[m]
                slots = (slots[0], (i, j, numbered(monomials, (coef, ks * 2))))
            return slots, shift

        patch_shape(monkeypatch, "_catalog_shape", "so", 4, edit_entries(square))
        assert all(cli.run_case("so", z)["match"] for z in product((0, 1), repeat=4))
        bad = [s for s in sign_patterns(4) if not cli.run_case("so", s)["match"]]
        assert bad == [(0, -1, 0, 0)]
        with pytest.raises(ArithmeticError, match=r"slots of beta\[1,3\]"):
            classify.certify_rescaling("so", 4)
        with pytest.raises(ArithmeticError):
            cli.main(["sweep", "--family", "so", "--n", "4", "--format", "csv", "--jobs", "1"])
        assert capsys.readouterr().out == ""

    def test_shifted_bracket_weight(self, monkeypatch, capsys, fresh_certificate):
        # One bracket term of so N=3 reads w_{a+1,b+1} in place of w_ab.
        def shift_first(shape):
            labels, monomials, rows = shape
            monomials = list(monomials)
            (pair, ((k, m), *rest)), *others = rows
            coef, ks = monomials[m]
            shifted = numbered(monomials, (coef, tuple(x + 1 for x in ks)))
            return labels, tuple(monomials), ((pair, ((k, shifted), *rest)), *others)

        patch_shape(monkeypatch, "_shape", "so", 3, shift_first)
        with pytest.raises(ArithmeticError, match="bracket"):
            classify.certify_rescaling("so", 3)
        with pytest.raises(ArithmeticError):
            cli.main(["sweep", "--family", "so", "--n", "3", "--format", "json", "--jobs", "1"])
        assert capsys.readouterr().out == ""

    def test_removal_identity_must_rescale(self, monkeypatch, fresh_certificate):
        # su alpha[s] with omega_s inside its slots rescales consistently, but
        # delta(e_B(s)) = -2 omega_s * xi then holds only where omega_s is 0
        # or 1: the shift check sees it.
        patch_shape(monkeypatch, "_catalog_shape", "su", 2, edit_entries(su_alpha_with_omega_s))
        with pytest.raises(ArithmeticError, match=r"removal identity of B\(1\)"):
            classify.certify_rescaling("su", 2)

    def test_consistent_wrong_slot_is_caught_by_solving(
        self, monkeypatch, capsys, fresh_certificate
    ):
        # The same slots with the shift coefficient -2, so that the removal
        # identity holds for every omega: the certificate passes, and solving
        # the representatives finds the cochain trivial wherever alpha[s] is
        # active, in the 5 patterns with a zero.
        def with_constant_shift(name, slots, shift, monomials):
            slots, shift = su_alpha_with_omega_s(name, slots, shift, monomials)
            if shift:
                shift = (shift[0], numbered(monomials, (-2, ())))
            return slots, shift

        patch_shape(monkeypatch, "_catalog_shape", "su", 2, edit_entries(with_constant_shift))
        classify.certify_rescaling("su", 2)
        code = cli.main(["sweep", "--family", "su", "--n", "2", "--format", "json", "--jobs", "1"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["summary"] == {"cases": 9, "mismatches": 5}

    @settings(max_examples=60, deadline=None)
    @given(case=rational_cases())
    def test_non_unit_rationals_report_as_their_zero_set(self, case):
        family, omega = case
        got = crosscheck(family, omega)
        rep = crosscheck(family, tuple(int(v != 0) for v in omega))
        assert rep.match
        assert (got.n_zeros, got.dim_z2, got.dim_b2, got.dim_h2, got.predicted) == (
            rep.n_zeros, rep.dim_z2, rep.dim_b2, rep.dim_h2, rep.predicted
        )
        assert got.verdicts == rep.verdicts and got.match == rep.match


def sweep_fails_closed(capsys, family, n):
    # The certificate raises before the sweep solves or prints anything.
    with pytest.raises(ArithmeticError):
        cli.main(["sweep", "--family", family, "--n", str(n), "--format", "csv", "--jobs", "1"])
    assert capsys.readouterr().out == ""


class TestReversalCertificate:
    """`certify_reversal` proves that a sweep row at a zero set equals the
    row at the reversed zero set; the sweep solves one pattern per reversal
    orbit on its strength."""

    @pytest.mark.parametrize("family,nmax", [("so", 12), ("su", 8), ("u", 8), ("sq", 6)])
    def test_passes_on_every_shape(self, family, nmax, fresh_certificate):
        for n in range(1, nmax + 1):
            assert classify.certify_reversal(family, n) is None

    def test_fixture_clears_both_caches(self, request):
        classify.certify_rescaling("su", 2)
        classify.certify_reversal("su", 2)
        request.getfixturevalue("fresh_certificate")
        assert classify.certify_rescaling.cache_info().currsize == 0
        assert classify.certify_reversal.cache_info().currsize == 0

    @staticmethod
    def flip_signs(monkeypatch, variant):
        # The relabelling of `reversal` with the sign of every `variant` label negated.
        real = classify.reversal

        def flipped(basis, n):
            sigma, sign = real(basis, n)
            return sigma, [-s if lab.variant == variant else s for lab, s in zip(basis, sign)]

        monkeypatch.setattr(classify, "reversal", flipped)

    def test_torus_sign_is_needed(self, monkeypatch, capsys, fresh_certificate):
        # B(l) -> +B(N+1-l) in place of -B(N+1-l).
        self.flip_signs(monkeypatch, "B")
        with pytest.raises(ArithmeticError, match="bracket table does not map"):
            classify.certify_reversal("su", 3)
        sweep_fails_closed(capsys, "su", 3)

    def test_rotation_sign_is_needed(self, monkeypatch, capsys, fresh_certificate):
        # J(a,b) -> +J(N-b,N-a) in place of -J(N-b,N-a).
        self.flip_signs(monkeypatch, "J")
        with pytest.raises(ArithmeticError, match="bracket table does not map"):
            classify.certify_reversal("so", 3)
        sweep_fails_closed(capsys, "so", 3)

    def test_weight_without_reversed_term(self, monkeypatch, capsys, fresh_certificate):
        # [J(0,1), J(0,2)] = 2 omega_1 J(1,2) in place of omega_1 J(1,2) in so
        # N=3; its mirror [J(2,3), J(1,3)] keeps omega_3 J(1,2).  The
        # coefficient is invisible to the rescaling certificate.
        def double_first(shape):
            labels, monomials, rows = shape
            monomials = list(monomials)
            (pair, ((k, m), *rest)), *others = rows
            coef, ks = monomials[m]
            doubled = numbered(monomials, (2 * coef, ks))
            return labels, tuple(monomials), ((pair, ((k, doubled), *rest)), *others)

        patch_shape(monkeypatch, "_shape", "so", 3, double_first)
        assert classify.certify_rescaling("so", 3) is None
        with pytest.raises(ArithmeticError, match="so N=3: the bracket table does not map"):
            classify.certify_reversal("so", 3)
        sweep_fails_closed(capsys, "so", 3)

    @pytest.mark.parametrize(
        "edit",
        [
            # alphaL[0,1] is the mirror of alphaF[3,4].
            lambda rows: tuple(r for r in rows if r[0] != "alphaL[0,1]"),
            # beta[1,3] is the mirror of beta[2,4]; retyped II, it has none.
            lambda rows: tuple(
                (name, "II" if name == "beta[1,3]" else t, *rest) for name, t, *rest in rows
            ),
            # A second beta[1,3] maps onto beta[2,4] too, which has one mirror.
            lambda rows: rows
            + tuple(("beta[9,9]", *rest) for name, *rest in rows if name == "beta[1,3]"),
        ],
        ids=["removed", "retyped", "duplicated"],
    )
    def test_catalog_entry_without_mirror(self, monkeypatch, capsys, edit, fresh_certificate):
        patch_shape(monkeypatch, "_catalog_shape", "so", 4, lambda s: (s[0], edit(s[1])))
        assert classify.certify_rescaling("so", 4) is None
        with pytest.raises(ArithmeticError, match="so N=4: the catalog does not map"):
            classify.certify_reversal("so", 4)
        sweep_fails_closed(capsys, "so", 4)

    @pytest.mark.parametrize(
        "family,n,solves", [("so", 5, 20), ("su", 3, 6), ("u", 3, 6), ("sq", 2, 3)]
    )
    def test_one_solve_per_orbit(self, monkeypatch, family, n, solves):
        solved = []
        real = classify.crosscheck

        def counting(family, omega):
            solved.append(tuple(omega))
            return real(family, omega)

        monkeypatch.setattr(classify, "crosscheck", counting)
        rows = cli.sweep_rows(family, n, jobs=1)
        assert len(rows) == 3**n
        assert len(solved) == solves
        assert {min(z, z[::-1]) for z in product((0, 1), repeat=n)} == set(solved)
