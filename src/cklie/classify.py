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

`coefficient_cocycle` realizes each named coefficient as an explicit
cochain, and `crosscheck` confronts the whole catalog with the exact solver:
counts must agree, every active coefficient must be a nontrivial cocycle,
every inactive type II must be trivial or forced to zero, every inactive
type III must fail the cocycle equations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .ck_matrix import B, I_LABEL, J, M, OmegaVector, labels_for_family
from .cohomology import CohomologySolver, OneCochain, TwoCochain
from .lie_core import build_algebra

__all__ = [
    "CatalogEntry",
    "ExtensionCatalog",
    "predict_so",
    "predict_su",
    "predict_u",
    "predict_sq",
    "predict",
    "coefficient_cocycle",
    "removal_mu",
    "pair_combination",
    "pair_mu",
    "CoefficientVerdict",
    "CrosscheckReport",
    "crosscheck",
]

_F0 = Fraction(0)
_F1 = Fraction(1)
_F2 = Fraction(2)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    ext_type: str  # "II" (pseudo-extension) or "III" (constrained)
    active: bool
    constraint_note: str

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "type": self.ext_type,
            "active": self.active,
            "constraint": self.constraint_note,
        }


@dataclass(frozen=True)
class ExtensionCatalog:
    family: str
    omega: OmegaVector
    entries: tuple[CatalogEntry, ...]

    @property
    def predicted(self) -> int:
        return sum(1 for e in self.entries if e.active)

    def active_names(self) -> list[str]:
        return [e.name for e in self.entries if e.active]

    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def to_json_obj(self) -> dict:
        return {
            "family": self.family,
            "omega": [str(c) for c in self.omega],
            "predicted": self.predicted,
            "entries": [e.to_json_obj() for e in self.entries],
        }


def _beta_factors(om: OmegaVector, b: int, d: int) -> list[tuple[str, Fraction]]:
    """In-range constraint factors for beta[b+1,d+1] as (description, value)."""
    n = om.n
    factors: list[tuple[str, Fraction]] = []
    if b >= 1:
        factors.append((f"w{b}", om.value(b)))
    if d == b + 2:
        factors.append((f"w{b + 1}*w{b + 2}", om.value(b + 1) * om.value(b + 2)))
        factors.append((f"w{b + 2}*w{b + 3}", om.value(b + 2) * om.value(b + 3)))
        if b + 4 <= n:
            factors.append((f"w{b + 4}", om.value(b + 4)))
    else:
        factors.append((f"w{b + 2}", om.value(b + 2)))
        factors.append((f"w{d}", om.value(d)))
        if d + 2 <= n:
            factors.append((f"w{d + 2}", om.value(d + 2)))
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
        entries.append(
            CatalogEntry(
                "alphaL[0,1]",
                "II",
                om.value(2) == 0,
                "nontrivial iff w2 = 0",
            )
        )
        entries.append(
            CatalogEntry(
                f"alphaF[{n - 1},{n}]",
                "II",
                om.value(n - 1) == 0,
                f"nontrivial iff w{n - 1} = 0",
            )
        )
    for a in range(n - 2):
        active = om.value(a + 1) == 0 and om.value(a + 3) == 0
        note = f"paired; both nontrivial iff w{a + 1} = 0 and w{a + 3} = 0"
        entries.append(CatalogEntry(f"alphaF[{a + 1},{a + 2}]", "II", active, note))
        entries.append(CatalogEntry(f"alphaL[{a + 1},{a + 2}]", "II", active, note))
    for b in range(n - 2):
        for d in range(b + 2, n):
            factors = _beta_factors(om, b, d)
            active = all(v == 0 for _, v in factors)
            note = "nonzero iff " + " and ".join(f"{s} = 0" for s, _ in factors)
            entries.append(CatalogEntry(f"beta[{b + 1},{d + 1}]", "III", active, note))
    return ExtensionCatalog("so", om, tuple(entries))


def predict_su(omega) -> ExtensionCatalog:
    om = OmegaVector.coerce(omega)
    n = om.n
    entries: list[CatalogEntry] = []
    for k in range(1, n + 1):
        entries.append(
            CatalogEntry(f"alpha[{k}]", "II", om.value(k) == 0, f"nontrivial iff w{k} = 0")
        )
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            active = om.value(k) == 0 and om.value(l) == 0
            entries.append(
                CatalogEntry(
                    f"beta[{k},{l}]",
                    "III",
                    active,
                    f"nonzero iff w{k} = 0 and w{l} = 0",
                )
            )
    return ExtensionCatalog("su", om, tuple(entries))


def predict_u(omega) -> ExtensionCatalog:
    om = OmegaVector.coerce(omega)
    base = predict_su(om)
    entries = list(base.entries)
    for k in range(1, om.n + 1):
        entries.append(
            CatalogEntry(f"gamma[{k}]", "III", om.value(k) == 0, f"nonzero iff w{k} = 0")
        )
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


_NAME_RE = re.compile(r"^(alphaF|alphaL|alpha|beta|gamma)\[(\d+)(?:,(\d+))?\]$")


def _parse_name(name: str) -> tuple[str, tuple[int, ...]]:
    m = _NAME_RE.match(name)
    if not m:
        raise ValueError(f"unknown coefficient name {name!r}")
    kind = m.group(1)
    idx = (int(m.group(2)),) if m.group(3) is None else (int(m.group(2)), int(m.group(3)))
    return kind, idx


def _index_map(family: str, n: int) -> dict:
    return {lab: i for i, lab in enumerate(labels_for_family(family, n))}


def coefficient_cocycle(family: str, omega, name: str, value=_F1) -> TwoCochain:
    """The explicit cochain carrying one named catalog coefficient.

    Slot placement per family:
      alphaF[b,b+1]  (so): xi(J(a,b), J(a,b+1)) = w_{a,b-1} * value, a < b
      alphaL[a,a+1]  (so): xi(J(a,c), J(a+1,c)) = w_{a+2,c} * value, c > a+1
      beta[b+1,d+1]  (so): xi(J(b,b+1), J(d,d+1)) = value, plus
                           xi(J(b,b+2), J(b+1,b+3)) = -w_{b+2} * value if d = b+2
      alpha[s]       (su/u): xi(J(a,b), M(a,b)) = w_{a,s-1} * w_{s,b} * value
      beta[k,l]      (su/u): xi(B(k), B(l)) = value
      gamma[k]       (u):    xi(B(k), I) = value
    """
    om = OmegaVector.coerce(omega)
    if name not in predict(family, om).names():
        raise ValueError(f"coefficient {name!r} is not in the {family} catalog for n={om.n}")
    return _cochain(family, om, name, Fraction(value), _index_map(family, om.n))


def _cochain(family: str, om: OmegaVector, name: str, value: Fraction, index: dict) -> TwoCochain:
    """`coefficient_cocycle` for a catalog name, with the basis index map given."""
    n = om.n
    kind, idx = _parse_name(name)
    entries: dict[tuple[int, int], Fraction] = {}
    if family == "so":
        if kind == "alphaF":
            b = idx[0]
            for a in range(b):
                v = om.product(a, b - 1) * value
                if v:
                    entries[(index[J(a, b)], index[J(a, b + 1)])] = v
        elif kind == "alphaL":
            a = idx[0]
            for c in range(a + 2, n + 1):
                v = om.product(a + 2, c) * value
                if v:
                    entries[(index[J(a, c)], index[J(a + 1, c)])] = v
        else:  # beta
            b, d = idx[0] - 1, idx[1] - 1
            entries[(index[J(b, b + 1)], index[J(d, d + 1)])] = value
            if d == b + 2:
                v = -om.value(b + 2) * value
                if v:
                    entries[(index[J(b, b + 2)], index[J(b + 1, b + 3)])] = v
    else:
        if kind == "alpha":
            s = idx[0]
            for a in range(s):
                for b in range(s, n + 1):
                    v = om.product(a, s - 1) * om.product(s, b) * value
                    if v:
                        entries[(index[J(a, b)], index[M(a, b)])] = v
        elif kind == "beta":
            k, l = idx
            entries[(index[B(k)], index[B(l)])] = value
        else:  # gamma
            k = idx[0]
            entries[(index[B(k)], index[I_LABEL])] = value
    dim = len(index)
    return TwoCochain(dim, entries)


def removal_mu(family: str, omega, name: str, value=_F1) -> OneCochain:
    """Generator shift removing a type II singleton when its condition fails.

    Defined exactly when the coefficient is inactive (its activation omega is
    nonzero); the coboundary of the result equals the coefficient cochain.
    """
    om = OmegaVector.coerce(omega)
    n = om.n
    value = Fraction(value)
    kind, idx = _parse_name(name)
    index = _index_map(family, n)
    dim = len(index)
    if family == "so" and kind == "alphaL" and idx == (0, 1):
        w2 = om.value(2)
        if not w2:
            raise ValueError("alphaL[0,1] is nontrivial here (w2 = 0); no removal exists")
        return OneCochain.basis_vector(dim, index[J(0, 1)], value / w2)
    if family == "so" and kind == "alphaF" and idx == (n - 1, n):
        w = om.value(n - 1)
        if not w:
            raise ValueError(
                f"alphaF[{n - 1},{n}] is nontrivial here (w{n - 1} = 0); no removal exists"
            )
        return OneCochain.basis_vector(dim, index[J(n - 1, n)], value / w)
    if family in ("su", "u") and kind == "alpha":
        k = idx[0]
        wk = om.value(k)
        if not wk:
            raise ValueError(f"alpha[{k}] is nontrivial here (w{k} = 0); no removal exists")
        return OneCochain.basis_vector(dim, index[B(k)], -value / (_F2 * wk))
    raise ValueError(f"no singleton removal rule for {name!r} in family {family!r}")


def pair_combination(omega, a: int, scale=_F1) -> TwoCochain:
    """The tied type II pair with (alphaF, alphaL) = (w_{a+1}, w_{a+3}) * scale.

    This instance always satisfies the pair constraint, and it equals the
    coboundary of `pair_mu` identically in omega.
    """
    om = OmegaVector.coerce(omega)
    if not 0 <= a <= om.n - 3:
        raise ValueError(f"pair index a={a} out of range 0..{om.n - 3}")
    scale = Fraction(scale)
    f = coefficient_cocycle("so", om, f"alphaF[{a + 1},{a + 2}]", om.value(a + 1) * scale)
    l = coefficient_cocycle("so", om, f"alphaL[{a + 1},{a + 2}]", om.value(a + 3) * scale)
    return f + l


def pair_mu(omega, a: int, scale=_F1) -> OneCochain:
    """Shift of J(a+1,a+2) whose coboundary equals `pair_combination`."""
    om = OmegaVector.coerce(omega)
    if not 0 <= a <= om.n - 3:
        raise ValueError(f"pair index a={a} out of range 0..{om.n - 3}")
    index = _index_map("so", om.n)
    return OneCochain.basis_vector(len(index), index[J(a + 1, a + 2)], Fraction(scale))


@dataclass(frozen=True)
class CoefficientVerdict:
    name: str
    ext_type: str
    active: bool
    is_cocycle: bool
    trivial: bool | None  # None when not a cocycle
    ok: bool
    note: str = ""

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


@dataclass(frozen=True)
class CrosscheckReport:
    family: str
    omega: OmegaVector
    n_zeros: int
    predicted: int
    dim_z2: int
    dim_b2: int
    dim_h2: int
    verdicts: tuple[CoefficientVerdict, ...] = field(default=())
    match: bool = False

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


def crosscheck(family: str, omega, solver: CohomologySolver | None = None) -> CrosscheckReport:
    """Confront the catalog with the exact solver for one algebra.

    Match requires: predicted count == dim H2; every active coefficient is a
    nontrivial cocycle; every inactive type II is trivial or fails the
    cocycle equations (forced to zero by its constraint); every inactive
    type III fails the cocycle equations.
    """
    om = OmegaVector.coerce(omega)
    catalog = predict(family, om)
    if solver is None:
        solver = CohomologySolver(build_algebra(family, om))
    res = solver.result()
    index = _index_map(family, om.n)
    verdicts: list[CoefficientVerdict] = []
    all_ok = True
    for entry in catalog.entries:
        xi = _cochain(family, om, entry.name, _F1, index)
        cocycle_ok = solver.is_cocycle(xi)
        trivial = solver.is_coboundary(xi) if cocycle_ok else None
        note = ""
        if entry.active:
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
    match = all_ok and catalog.predicted == res.dim_h2
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
    )
