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

The rules above are data: they run once per (family, N) on monomials
(coef, ks), an integer times a squarefree product of omegas, and yield one
entry per coefficient with its constraint factors, its cochain slots and,
for type II, the generator shift (g, c) that removes it; `predict`
evaluates each distinct monomial once per omega (`OmegaVector.evaluate`, as
`build_algebra` does) and returns the tuple of entries, each active iff
every factor vanishes.  The catalog thus states one removal identity per
shifted generator, delta(e_g) = sum of c * xi over the entries that shift
g; `removals` builds each right-hand side as a plain {(i, j): Fraction}
map, and `verify` compares it, scaled by the lcm d of the constants'
denominators, with the solver's integer row of delta(e_g).
`certify_rescaling` proves, once per (family, N), that a crosscheck and
every removal identity at omega follow from those at the 0/1 pattern with
the same zeros, so solving the 2^N representatives proves them for every
rational omega: the acceptance suite does so for so N <= 8, su/u N <= 6 and
sq N <= 5, and `tools/proven_range.py` for so N <= 10 and su/u N <= 7.
`certify_reversal` proves, once per (family, N), that the relabelling
`reversal` maps the bracket table at omega onto the one at reversed omega
and the catalog onto itself, so a sweep row at a zero set equals the one at
the reversed set: `sweep` solves one set per orbit.
`crosscheck` confronts the whole catalog with the exact solver, each entry
as the integer column vector of its slots: counts must agree, the active
coefficients must be nontrivial cocycles that form a basis of H2, every
inactive type II must be trivial or forced to zero, every inactive type III
must fail the cocycle equations.  The solver gives the dims and the cocycle
test; certificates that run no elimination give every other verdict, and a
missing one is a mismatch.  Its report holds values only, each verdict a
record of its own fields, and keeps the solver; `cli` builds every output
of `h2` and `sweep` from those fields.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .ck_matrix import B, I_LABEL, J, M, GeneratorLabel, OmegaVector, labels_for_family, reversal
from .cohomology import CohomologySolver
from .lie_core import _shape, build_algebra

# coef * omega_{k1} * omega_{k2} * ... for 1 <= k1 < k2 < ... <= N.
Monomial = tuple[int, tuple[int, ...]]


# ext_type is "II" (pseudo-extension) or "III" (constrained); slots are the
# nonzero xi_ij = c, i < j indices of the canonical basis, of the cochain for
# value 1.  Type II only: shift is (g, c) with delta(e_g) = sum of c * xi
# over the entries that shift g; a singleton's c is zero exactly when it is
# active.
CatalogEntry = namedtuple(
    "CatalogEntry", "name ext_type active slots shift", defaults=(None,)
)


def _mono(*ks: int, coef: int = 1) -> Monomial:
    return coef, ks


def _so_rules(n: int):
    """N=1 has no coefficients at all; N=2 has only the two singletons (no
    pairs, no beta): there both singleton conditions read off omega_1 and
    omega_2 directly."""

    def alpha_f(b):  # alphaF[b,b+1]: xi(J(a,b), J(a,b+1)) = w_{a,b-1}, a < b
        return [(J(a, b), J(a, b + 1), _mono(*range(a + 1, b))) for a in range(b)]

    def alpha_l(a):  # alphaL[a,a+1]: xi(J(a,c), J(a+1,c)) = w_{a+2,c}, c > a+1
        return [(J(a, c), J(a + 1, c), _mono(*range(a + 3, c + 1))) for c in range(a + 2, n + 1)]

    if n >= 2:
        w2, w_last = _mono(2), _mono(n - 1)
        yield "alphaL[0,1]", "II", (w2,), alpha_l(0), (J(0, 1), w2)
        yield f"alphaF[{n - 1},{n}]", "II", (w_last,), alpha_f(n - 1), (J(n - 1, n), w_last)
    for a in range(n - 2):
        g, f, l = J(a + 1, a + 2), _mono(a + 1), _mono(a + 3)
        yield f"alphaF[{a + 1},{a + 2}]", "II", (f, l), alpha_f(a + 1), (g, f)
        yield f"alphaL[{a + 1},{a + 2}]", "II", (f, l), alpha_l(a + 1), (g, l)
    for b in range(n - 2):
        for d in range(b + 2, n):
            # xi(J(b,b+1), J(d,d+1)) = 1, plus xi(J(b,b+2), J(b+1,b+3)) = -w_{b+2}
            # when d = b+2
            slots = [(J(b, b + 1), J(d, d + 1), _mono())]
            if d == b + 2:
                factors = ((b,), (b + 1, b + 2), (b + 2, b + 3), (b + 4,))
                slots.append((J(b, b + 2), J(b + 1, b + 3), _mono(b + 2, coef=-1)))
            else:
                factors = ((b,), (b + 2,), (d,), (d + 2,))
            in_range = tuple(_mono(*ks) for ks in factors if 1 <= ks[0] and ks[-1] <= n)
            yield f"beta[{b + 1},{d + 1}]", "III", in_range, slots, None


def _su_rules(n: int):
    for s in range(1, n + 1):
        # xi(J(a,b), M(a,b)) = w_{a,s-1} * w_{s,b}, a < s <= b; removed by B(s)
        slots = [
            (J(a, b), M(a, b), _mono(*range(a + 1, s), *range(s + 1, b + 1)))
            for a in range(s)
            for b in range(s, n + 1)
        ]
        shift = _mono(s, coef=-2)
        yield f"alpha[{s}]", "II", (shift,), slots, (B(s), shift)
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            yield f"beta[{k},{l}]", "III", (_mono(k), _mono(l)), [(B(k), B(l), _mono())], None


def _u_rules(n: int):
    yield from _su_rules(n)
    for k in range(1, n + 1):
        yield f"gamma[{k}]", "III", (_mono(k),), [(B(k), I_LABEL, _mono())], None


_RULES = {"so": _so_rules, "su": _su_rules, "u": _u_rules, "sq": lambda n: ()}


@lru_cache(maxsize=None, typed=True)
def _catalog_shape(family: str, n: int):
    """The catalog of `family` with N = n for a symbolic omega.

    Returns the distinct monomials and one row per entry, (name, ext_type,
    factors, slots, shift), with each factor a monomial number, each slot
    (i, j, monomial number), i < j indices of the canonical basis, and the
    shift (g, monomial number) or None.  Built once per (family, n) and
    immutable, so every omega shares it.
    """
    index = {lab: i for i, lab in enumerate(labels_for_family(family, n))}
    monomials: dict[Monomial, int] = {}

    def intern(mono: Monomial) -> int:
        return monomials.setdefault(mono, len(monomials))

    rows = tuple(
        (
            name,
            ext_type,
            tuple(map(intern, factors)),
            tuple((index[p], index[q], intern(m)) for p, q, m in slots),
            shift and (shift[0], intern(shift[1])),
        )
        for name, ext_type, factors, slots, shift in _RULES[family](n)
    )
    return tuple(monomials), rows


@lru_cache(maxsize=None, typed=True)
def certify_rescaling(family: str, n: int) -> None:
    """Prove that every crosscheck of `family` with N = n depends only on the
    zero set of omega; raise ArithmeticError if the proof fails.

    Write omega_m = lam_m**2 * z_m with z the 0/1 pattern of the same zeros
    (lam_m = 1 where omega_m = 0), and let e_m(g) = 1 when a < m <= b for
    J/M/Mq(..., a, b), else 0.  Over K = Q(sqrt(omega_1), ..., sqrt(omega_N)),
    X_g -> prod lam_m**e_m(g) X_g maps the algebra at omega onto the one at z
    when e(i) + e(j) - 2 exponents(term monomial) = e(k) for every bracket
    term (i, j) -> k; it carries each catalog cochain to a nonzero multiple
    of its counterpart when e(i) + e(j) - 2 exponents(slot monomial) is one
    vector v for all of the entry's slots; and it carries each removal
    identity of generator g when v - 2 exponents(shift monomial) = e(g) for
    every entry that shifts g.  Ranks do not change under a field
    extension, and the slots, factors and shift coefficients vanish on the
    zero set alone, so dims, verdicts and match at omega equal those at z.

    Reads only the two cached shapes and solves nothing; cached, so it runs
    once per (family, n).  Exponents are counted: omega_k**2 counts 2.
    """
    ms = range(1, n + 1)

    def exponents(ks):
        return tuple(ks.count(m) for m in ms)

    def e(label):
        return exponents([m for p, q in label.cells()[1] for m in range(p + 1, q + 1)])

    def rescaled(i, j, p):
        return tuple(x + y - 2 * q for x, y, q in zip(weights[i], weights[j], p))

    labels, monomials, brackets = _shape(family, n)
    weights = [e(label) for label in labels]
    powers = [exponents(ks) for _, ks in monomials]
    for (i, j), terms in brackets:
        for k, m in terms:
            if rescaled(i, j, powers[m]) != weights[k]:
                raise ArithmeticError(
                    f"{family} N={n}: bracket [{labels[i]}, {labels[j]}] -> {labels[k]} "
                    f"with weight (coef, ks) = {monomials[m]} does not rescale"
                )
    monomials, entries = _catalog_shape(family, n)
    powers = [exponents(ks) for _, ks in monomials]
    for name, _, _, slots, shift in entries:
        vectors = {rescaled(i, j, powers[mono]) for i, j, mono in slots}
        if len(vectors) > 1:
            raise ArithmeticError(f"{family} N={n}: the slots of {name} rescale differently")
        if shift and vectors:
            g, mono = shift
            (v,) = vectors
            if tuple(x - 2 * p for x, p in zip(v, powers[mono])) != e(g):
                raise ArithmeticError(
                    f"{family} N={n}: the removal identity of {g} through {name} does not rescale"
                )


@lru_cache(maxsize=None, typed=True)
def certify_reversal(family: str, n: int) -> None:
    """Prove that the sweep row of `family` with N = n at omega equals the
    one at reversed omega; raise ArithmeticError if the proof fails.

    With (sigma, s) = `reversal`, the bracket terms (i, j) -> k of weight
    (coef, ks) must map one to one onto the terms (sigma i, sigma j) ->
    sigma k of weight (coef * s_i s_j s_k * order sign, N+1-ks): then sigma
    is an isomorphism onto the algebra at reversed omega.  The catalog
    entries must map one to one onto entries of the same ext_type with the
    reversed factors, the slots mapped by sigma up to one overall sign.  An
    isomorphism keeps dim Z2/B2/H2, each entry's activity, its cocycle and
    coboundary verdicts and the rank modulo B2 of the active entries, so
    n_zeros, the dims, predicted and match agree.  A sweep row holds nothing
    else, so the type II shifts are left out.  Reads only the two cached
    shapes and their labels; cached, so it runs once per (family, n).
    """
    labels, monomials, brackets = _shape(family, n)
    sigma, sign = reversal(labels, n)

    def mirror(i, j, coef, ks):  # a term or slot; at i = j, [2:] is a factor's mirror
        p, q = sigma[i], sigma[j]
        s = sign[i] * sign[j] * (-1 if p > q else 1)
        return min(p, q), max(p, q), s * coef, tuple(sorted(n + 1 - m for m in ks))

    terms = {(i, j, *monomials[m], k) for (i, j), row in brackets for k, m in row}
    ok = terms == {(*mirror(i, j, c * sign[k], ks), sigma[k]) for i, j, c, ks, k in terms}
    monomials, entries = _catalog_shape(family, n)
    forms = set(), set()
    for _, t, fs, sl, _ in entries:
        for form, image in zip(forms, (lambda *x: x, mirror)):  # the entry as it is, mirrored
            slots = [image(i, j, *monomials[m]) for i, j, m in sl]
            s = -1 if min(slots)[2] < 0 else 1
            factors = frozenset(image(0, 0, *monomials[f])[2:] for f in fs)
            form.add((t, factors, frozenset((i, j, s * c, ks) for i, j, c, ks in slots)))
    if not ok or forms[0] != forms[1] or len(forms[0]) < len(entries):
        shape = "catalog" if ok else "bracket table"
        raise ArithmeticError(f"{family} N={n}: the {shape} does not map onto its reversal")


def predict(family: str, omega) -> tuple[CatalogEntry, ...]:
    """Extension-coefficient catalog of `family` at omega, one entry per
    coefficient: each monomial of the cached shape evaluated once, each
    entry active iff every factor vanishes."""
    om = OmegaVector.coerce(omega)
    monomials, rows = _catalog_shape(family, om.n)
    v = om.evaluate(monomials)
    return tuple(
        CatalogEntry(
            name,
            ext_type,
            not any(v[f] for f in factors),
            tuple((i, j, v[m]) for i, j, m in slots if v[m]),
            shift and (shift[0], v[shift[1]]),
        )
        for name, ext_type, factors, slots, shift in rows
    )


def removals(
    catalog: tuple[CatalogEntry, ...],
) -> dict[GeneratorLabel, dict[tuple[int, int], Fraction]]:
    """Right-hand sides of the type II removal identities: for each shifted
    generator g, the sum of c * xi over the catalog entries with shift (g, c),
    as {(i, j): value} over i < j indices of the canonical basis of the
    catalog's family and N, with the zero sums dropped.

    delta(e_g) equals it exactly (proved for every omega up to the N stated
    in the module docstring), so shifting g by value / c removes a singleton
    coefficient wherever c != 0, and the tied so pair (alphaF, alphaL) =
    (w_{a+1}, w_{a+3}) always.
    """
    sums = {}
    for entry in catalog:
        if entry.shift:
            g, c = entry.shift
            acc = sums.setdefault(g, {})
            for i, j, v in entry.slots:
                acc[i, j] = acc.get((i, j), 0) + c * v
    return {g: {pair: v for pair, v in acc.items() if v} for g, acc in sums.items()}


# trivial is None when the cochain is not a cocycle or no certificate decides it.
CoefficientVerdict = namedtuple(
    "CoefficientVerdict", "name type active cocycle trivial ok note", defaults=("",)
)

CrosscheckReport = namedtuple(
    "CrosscheckReport",
    "family omega n_zeros predicted dim_z2 dim_b2 dim_h2 verdicts match solver",
)


def _multiple(vec: dict[int, int], solver: CohomologySolver, g: GeneratorLabel) -> bool:
    """True when vec is zero or a nonzero multiple of the coboundary row of g."""
    row = solver.coboundary_rows()[solver.algebra.basis.index(g)]
    ratios = {Fraction(v, row[c]) for c, v in vec.items() if c in row}
    return not vec or vec.keys() == row.keys() and len(ratios) == 1


def crosscheck(family: str, omega) -> CrosscheckReport:
    """Confront the catalog with the exact solver for one algebra.

    Match requires: predicted count == dim H2; the active coefficients are
    cocycles with distinct leading witness columns, a basis of H2; every
    inactive type II is zero or a multiple of its generator's coboundary
    row, or fails the cocycle equations (forced to zero); every inactive
    type III fails them.  A witness column is a pair with no bracket, where
    every coboundary vanishes, so those cocycles are independent modulo B2.
    The report keeps the solver, so callers read the algebra, the dims and
    the representatives from the same run.
    """
    om = OmegaVector.coerce(omega)
    solver = CohomologySolver(build_algebra(family, om))
    res = solver.result()
    pair_index, pairs, constants = solver.pair_index, solver.pairs, solver.algebra.constants
    verdicts: list[CoefficientVerdict] = []
    leads: list[int | None] = []  # the active entries' leading witness columns
    all_ok = True
    for entry in predict(family, om):
        m = lcm(*(c.denominator for _, _, c in entry.slots))
        vec = {pair_index[i, j]: c.numerator * (m // c.denominator) for i, j, c in entry.slots}
        cocycle_ok = solver.is_cocycle(vec)
        lead = min((c for c in vec if pairs[c] not in constants), default=None)
        trivial = None
        if cocycle_ok and lead is not None:
            trivial = False
        elif cocycle_ok and entry.shift and _multiple(vec, solver, entry.shift[0]):
            trivial = True
        note = ""
        if entry.active:
            leads.append(lead)
            ok = trivial is False
        elif entry.ext_type == "III":
            ok = not cocycle_ok
            note = "forced zero" if ok else "constraint violated but cochain survives"
        elif cocycle_ok:
            ok = trivial is True
        else:
            ok, note = True, "forced zero"
        all_ok = all_ok and ok
        verdicts.append(
            CoefficientVerdict(
                entry.name, entry.ext_type, entry.active, cocycle_ok, trivial, ok, note
            )
        )
    predicted = len(leads)
    match = all_ok and predicted == res.dim_h2 == len(set(leads))
    return CrosscheckReport(
        family=family,
        omega=om,
        n_zeros=om.n_zeros,
        predicted=predicted,
        dim_z2=res.dim_z2,
        dim_b2=res.dim_b2,
        dim_h2=res.dim_h2,
        verdicts=tuple(verdicts),
        match=match,
        solver=solver,
    )
