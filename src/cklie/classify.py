"""Closed-form classification of the nontrivial central extensions.

For each family the possible extension coefficients form a small catalog
with activation conditions on the contraction coefficients:

orthogonal (so), basis {J}:
  * alphaL[0,1] and alphaF[N-1,N]: pseudo-extension (type II) singletons,
    nontrivial exactly when omega_2 = 0 resp. omega_{N-1} = 0.
  * N-2 type II pairs (alphaF[a+1,a+2], alphaL[a+1,a+2]), a = 0..N-3, tied
    by omega_{a+3} * alphaF = omega_{a+1} * alphaL; both nontrivial exactly
    when omega_{a+1} = 0 and omega_{a+3} = 0, both trivial otherwise (the
    tied combination is removable by shifting J(a+1,a+2) into the center).
  * (N-1)(N-2)/2 constrained (type III) coefficients beta[b+1,d+1],
    b = 0..N-3, d = b+2..N-1, which can be nonzero exactly when every
    in-range constraint factor vanishes:
      d == b+2: omega_b, omega_{b+1}omega_{b+2}, omega_{b+2}omega_{b+3}, omega_{b+4}
      d >  b+2: omega_b, omega_{b+2}, omega_d, omega_{d+2}
    (factors with index 0 or N+1 do not exist and impose nothing).  A
    nonzero beta is always nontrivial.

special unitary (su): alpha[k] nontrivial iff omega_k = 0; beta[k,l]
nonzero iff omega_k = omega_l = 0, then nontrivial.  dim H2 = n(n+1)/2 with
n the number of vanishing coefficients.

unitary (u): the su catalog plus gamma[k], nonzero iff omega_k = 0; total
n(n+3)/2.

quaternionic unitary (sq): every central extension is trivial, for any N
and any coefficients; the catalog is empty.

Each catalog entry holds everything about its coefficient: its activation,
the cochain slots that carry it, and, for type II, the generator shift
(g, c) that removes it.  The catalog thus states one removal identity per
shifted generator, delta(e_g) = sum of c * xi over the entries that shift g,
and every one holds exactly for every omega (at an active entry c = 0, so
its share of the sum vanishes); `removals` builds their right-hand sides.
`coefficient_cocycle` looks an entry up by name; `crosscheck` confronts the
whole catalog with the exact solver: counts must agree, the active
coefficients must be nontrivial cocycles that form a basis of H2, every
inactive type II must be trivial or forced to zero, every inactive type III
must fail the cocycle equations.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .ck_matrix import B, I_LABEL, J, M, GeneratorLabel, OmegaVector, labels_for_family
from .cohomology import CohomologySolver, TwoCochain
from .lie_core import build_algebra
from .scalars import _frac

__all__ = [
    "CatalogEntry",
    "ExtensionCatalog",
    "predict_so",
    "predict_su",
    "predict_u",
    "predict_sq",
    "predict",
    "coefficient_cocycle",
    "removals",
    "CoefficientVerdict",
    "CrosscheckReport",
    "crosscheck",
]

_F1 = Fraction(1)

Slot = tuple[GeneratorLabel, GeneratorLabel, Fraction]


# ext_type is "II" (pseudo-extension) or "III" (constrained); slots are the
# nonzero xi(X, Y) = c of the cochain for value 1.  Type II only: shift is
# (g, c) with delta(e_g) = sum of c * xi over the entries that shift g; a
# singleton's c is zero exactly when it is active.
CatalogEntry = namedtuple(
    "CatalogEntry", "name ext_type active slots shift", defaults=(None,)
)


class ExtensionCatalog(namedtuple("ExtensionCatalog", "family omega entries")):
    __slots__ = ()

    @property
    def predicted(self) -> int:
        return sum(1 for e in self.entries if e.active)

    def active_names(self) -> list[str]:
        return [e.name for e in self.entries if e.active]

    def names(self) -> list[str]:
        return [e.name for e in self.entries]


def _slots(candidates) -> tuple[Slot, ...]:
    return tuple(s for s in candidates if s[2])


def _singleton(name: str, om: OmegaVector, k: int, slots, generator, scale=1) -> CatalogEntry:
    """Type II singleton, nontrivial iff omega_k = 0, else removed by
    shifting `generator` by value / (scale * omega_k)."""
    factor = scale * om.value(k)
    return CatalogEntry(name, "II", factor == 0, _slots(slots), (generator, factor))


def _alpha_f(om: OmegaVector, b: int):
    """alphaF[b,b+1]: xi(J(a,b), J(a,b+1)) = w_{a,b-1}, a < b."""
    return ((J(a, b), J(a, b + 1), om.product(a, b - 1)) for a in range(b))


def _alpha_l(om: OmegaVector, a: int):
    """alphaL[a,a+1]: xi(J(a,c), J(a+1,c)) = w_{a+2,c}, c > a+1."""
    return ((J(a, c), J(a + 1, c), om.product(a + 2, c)) for c in range(a + 2, om.n + 1))


def _beta_factors(om: OmegaVector, b: int, d: int) -> list[Fraction]:
    """In-range constraint factors for beta[b+1,d+1]: it is nonzero iff all
    of them vanish."""
    n = om.n
    factors: list[Fraction] = []
    if b >= 1:
        factors.append(om.value(b))
    if d == b + 2:
        factors.append(om.value(b + 1) * om.value(b + 2))
        factors.append(om.value(b + 2) * om.value(b + 3))
        if b + 4 <= n:
            factors.append(om.value(b + 4))
    else:
        factors.append(om.value(b + 2))
        factors.append(om.value(d))
        if d + 2 <= n:
            factors.append(om.value(d + 2))
    return factors


def predict_so(omega) -> ExtensionCatalog:
    """Extension-coefficient catalog of the orthogonal family.

    N=1 has no coefficients at all; N=2 has only the two singletons (no
    pairs, no beta): there both singleton conditions read off omega_1 and
    omega_2 directly.
    """
    om = OmegaVector.coerce(omega)
    n = om.n
    entries: list[CatalogEntry] = []
    if n >= 2:
        entries.append(_singleton("alphaL[0,1]", om, 2, _alpha_l(om, 0), J(0, 1)))
        entries.append(
            _singleton(f"alphaF[{n - 1},{n}]", om, n - 1, _alpha_f(om, n - 1), J(n - 1, n))
        )
    for a in range(n - 2):
        active = om.value(a + 1) == 0 and om.value(a + 3) == 0
        g = J(a + 1, a + 2)
        f_slots, l_slots = _slots(_alpha_f(om, a + 1)), _slots(_alpha_l(om, a + 1))
        f_name, l_name = f"alphaF[{a + 1},{a + 2}]", f"alphaL[{a + 1},{a + 2}]"
        entries.append(CatalogEntry(f_name, "II", active, f_slots, (g, om.value(a + 1))))
        entries.append(CatalogEntry(l_name, "II", active, l_slots, (g, om.value(a + 3))))
    for b in range(n - 2):
        for d in range(b + 2, n):
            active = not any(_beta_factors(om, b, d))
            # xi(J(b,b+1), J(d,d+1)) = 1, plus xi(J(b,b+2), J(b+1,b+3)) = -w_{b+2}
            # when d = b+2
            slots = [(J(b, b + 1), J(d, d + 1), _F1)]
            if d == b + 2:
                slots.append((J(b, b + 2), J(b + 1, b + 3), -om.value(b + 2)))
            entries.append(
                CatalogEntry(f"beta[{b + 1},{d + 1}]", "III", active, _slots(slots))
            )
    return ExtensionCatalog("so", om, tuple(entries))


def predict_su(omega) -> ExtensionCatalog:
    om = OmegaVector.coerce(omega)
    n = om.n
    entries: list[CatalogEntry] = []
    for s in range(1, n + 1):
        # xi(J(a,b), M(a,b)) = w_{a,s-1} * w_{s,b}, a < s <= b; removed by B(s)
        slots = (
            (J(a, b), M(a, b), om.product(a, s - 1) * om.product(s, b))
            for a in range(s)
            for b in range(s, n + 1)
        )
        entries.append(_singleton(f"alpha[{s}]", om, s, slots, B(s), scale=-2))
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            active = om.value(k) == 0 and om.value(l) == 0
            slots = ((B(k), B(l), _F1),)
            entries.append(CatalogEntry(f"beta[{k},{l}]", "III", active, slots))
    return ExtensionCatalog("su", om, tuple(entries))


def predict_u(omega) -> ExtensionCatalog:
    om = OmegaVector.coerce(omega)
    entries = list(predict_su(om).entries)
    for k in range(1, om.n + 1):
        slots = ((B(k), I_LABEL, _F1),)
        entries.append(CatalogEntry(f"gamma[{k}]", "III", om.value(k) == 0, slots))
    return ExtensionCatalog("u", om, tuple(entries))


def predict_sq(omega) -> ExtensionCatalog:
    """Quaternionic unitary algebras admit no nontrivial central extensions,
    whatever the contraction pattern."""
    om = OmegaVector.coerce(omega)
    return ExtensionCatalog("sq", om, ())


_PREDICTORS = {"so": predict_so, "su": predict_su, "u": predict_u, "sq": predict_sq}


def predict(family: str, omega) -> ExtensionCatalog:
    if family not in _PREDICTORS:
        raise ValueError(f"unknown family {family!r}")
    return _PREDICTORS[family](omega)


def _entry(family: str, om: OmegaVector, name: str) -> CatalogEntry:
    for entry in predict(family, om).entries:
        if entry.name == name:
            return entry
    raise ValueError(f"coefficient {name!r} is not in the {family} catalog for n={om.n}")


def coefficient_cocycle(family: str, omega, name: str, value=_F1) -> TwoCochain:
    """The explicit cochain carrying one named catalog coefficient: the
    entry's slots, each scaled by value."""
    om = OmegaVector.coerce(omega)
    index = _basis_index(labels_for_family(family, om.n))
    return _cochain(_entry(family, om, name).slots, index, _frac(value))


def _basis_index(basis) -> dict:
    return {lab: i for i, lab in enumerate(basis)}


def _cochain(slots, index: dict, value: Fraction = _F1) -> TwoCochain:
    """The cochain of the slots scaled by value, with the basis index map given."""
    return TwoCochain(len(index), {(index[p], index[q]): c * value for p, q, c in slots})


def removals(catalog: ExtensionCatalog, algebra) -> dict[GeneratorLabel, TwoCochain]:
    """Right-hand sides of the type II removal identities: for each shifted
    generator g, the sum of c * xi over the catalog entries with shift (g, c).

    delta(e_g) equals it exactly for every omega, so shifting g by value / c
    removes a singleton coefficient wherever c != 0, and the tied so pair
    (alphaF, alphaL) = (w_{a+1}, w_{a+3}) always.
    """
    index = _basis_index(algebra.basis)
    rhs: dict[GeneratorLabel, TwoCochain] = {}
    for entry in catalog.entries:
        if entry.shift:
            g, c = entry.shift
            rhs[g] = rhs.get(g, TwoCochain(algebra.dim)) + _cochain(entry.slots, index, c)
    return rhs


# trivial is None when the cochain is not a cocycle.
class CoefficientVerdict(
    namedtuple(
        "CoefficientVerdict", "name ext_type active is_cocycle trivial ok note", defaults=("",)
    )
):
    __slots__ = ()

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "type": self.ext_type,
            "active": self.active,
            "cocycle": self.is_cocycle,
            "trivial": self.trivial,
            "ok": self.ok,
            "note": self.note,
        }


class CrosscheckReport(
    namedtuple(
        "CrosscheckReport",
        "family omega n_zeros predicted dim_z2 dim_b2 dim_h2 verdicts match solver",
    )
):
    # The solver, last, is kept for callers but is left out of equality, repr
    # and serialization.  != is spelled out too: tuple's own would compare it.
    __slots__ = ()

    def __eq__(self, other) -> bool:
        return isinstance(other, CrosscheckReport) and self[:-1] == other[:-1]

    def __ne__(self, other) -> bool:
        return not self == other

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self[:-1]))
        return f"CrosscheckReport({fields})"

    def to_json_obj(self) -> dict:
        return {
            "family": self.family,
            "omega": [str(c) for c in self.omega],
            "n": self.omega.n,
            "n_zeros": self.n_zeros,
            "predicted": self.predicted,
            "dim_z2": self.dim_z2,
            "dim_b2": self.dim_b2,
            "dim_h2": self.dim_h2,
            "match": self.match,
            "coefficients": [v.to_json_obj() for v in self.verdicts],
        }


def crosscheck(family: str, omega) -> CrosscheckReport:
    """Confront the catalog with the exact solver for one algebra.

    Match requires: predicted count == dim H2; the active coefficients are
    nontrivial cocycles independent modulo B2, a basis of H2; every inactive
    type II is trivial or fails the cocycle equations (forced to zero by its
    constraint); every inactive type III fails the cocycle equations.  The
    report keeps the solver, so callers read the algebra, the dims and the
    representatives from the same run.
    """
    om = OmegaVector.coerce(omega)
    catalog = predict(family, om)
    solver = CohomologySolver(build_algebra(family, om))
    res = solver.result()
    index = _basis_index(solver.algebra.basis)
    verdicts: list[CoefficientVerdict] = []
    active: list[TwoCochain] = []
    all_ok = True
    for entry in catalog.entries:
        xi = _cochain(entry.slots, index)
        cocycle_ok = solver.is_cocycle(xi)
        trivial = solver.is_coboundary(xi) if cocycle_ok else None
        note = ""
        if entry.active:
            active.append(xi)
            ok = cocycle_ok and trivial is False
        elif entry.ext_type == "III":
            ok = not cocycle_ok
            note = "forced zero" if ok else "constraint violated but cochain survives"
        else:
            if cocycle_ok:
                ok = bool(trivial)
            else:
                ok = True
                note = "forced zero"
        all_ok = all_ok and ok
        verdicts.append(
            CoefficientVerdict(
                name=entry.name,
                ext_type=entry.ext_type,
                active=entry.active,
                is_cocycle=cocycle_ok,
                trivial=trivial,
                ok=ok,
                note=note,
            )
        )
    match = all_ok and catalog.predicted == res.dim_h2 == solver.rank_mod_b2(active)
    return CrosscheckReport(
        family=family,
        omega=om,
        n_zeros=om.n_zeros,
        predicted=catalog.predicted,
        dim_z2=res.dim_z2,
        dim_b2=res.dim_b2,
        dim_h2=res.dim_h2,
        verdicts=tuple(verdicts),
        match=match,
        solver=solver,
    )
