"""Replay the recorded mutation checks: every mutant must fail its tests.

    python3 tools/mutants.py

``MUTANTS`` lists each mutant as (name, file, old, new, tests): ``old`` is
exact text that occurs once in ``file`` (a path in this checkout), ``new``
replaces it, and ``tests`` is the narrow pytest selection that must fail on
the mutated copy.  For each mutant in turn, the
script copies ``src/``, ``tests/``, ``tools/``, ``perfbench/`` and
``README.md`` to a fresh temporary directory, applies the substitution there
and runs ``pytest -x`` on the selection with that copy's ``src/`` on the
path: one pytest process at a time, with no pool.  The checkout itself is
never modified.

Prints one line per mutant: its seconds and the first test that killed it.
Exits 1 if a mutant survives (its selection passes), if a selection does not
run (pytest exits with neither 0 nor 1), or if an old text does not occur
exactly once in its file.  A stale entry is updated, not skipped;
``tests/test_package.py`` fails on one too.  Each later mutation check is
added here rather than described in prose.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "perfbench", "README.md")

Mutant = namedtuple("Mutant", "name file old new tests")

LIE = "src/cklie/lie_core.py"
COH = "src/cklie/cohomology.py"
CKM = "src/cklie/ck_matrix.py"
CLS = "src/cklie/classify.py"
CLI = "src/cklie/cli.py"
HELPERS = "tests/helpers.py"

MUTANTS = (
    # lie_core: the unit product, the shapes, the generators, matrix_match.
    Mutant(
        "unit product with the cyclic sign flipped", LIE,
        "1 if (v - u) % 3 == 1 else -1",
        "1 if (v - u) % 3 == 2 else -1",
        ("tests/test_lie_core.py::TestUnitProduct",),
    ),
    Mutant(
        "_shape multiplying the units as (u, v)", LIE,
        "t, sigma = _unit_product(v, u)",
        "t, sigma = _unit_product(u, v)",
        ("tests/test_lie_core.py::TestFromMatrices",),
    ),
    Mutant(
        "generators() dropping its last member", LIE,
        "self._generators = gens\n",
        "self._generators = gens[:-1]\n",
        ("tests/test_lie_core.py::TestGenerators",),
    ),
    Mutant(
        "generators() recomputing on every call", LIE,
        "if self._generators is None:",
        "if True:",
        ("tests/test_lie_core.py::TestGenerators::test_memoized_on_the_algebra",),
    ),
    Mutant(
        "generator closure admitting a row with two terms missing", LIE,
        "if len(out) == 1:",
        "if 1 <= len(out) <= 2:",
        ("tests/test_lie_core.py::TestGenerators",),
    ),
    Mutant(
        "matrix_match without `jacobi_ok and`", LIE,
        "return jacobi_ok and all(",
        "return all(",
        ("tests/test_cli.py::TestStructure::test_doubled_constant_without_a_generator_fails_both",),
    ),
    Mutant(
        "matrix_match over all generators but the last", LIE,
        "for g in gens for x in range(L.dim)",
        "for g in gens[:-1] for x in range(L.dim)",
        ("tests/test_lie_core.py::TestMatrixMatch",),
    ),
    Mutant(
        "matrix_match over all generators but the first", LIE,
        "for g in gens for x in range(L.dim)",
        "for g in gens[1:] for x in range(L.dim)",
        ("tests/test_lie_core.py::TestMatrixMatch",),
    ),
    # cohomology: assembly, Lie certificate, elimination, spaces.
    Mutant(
        "assembly dropping the last generator's triples", COH,
        "gens = set(self.algebra.generators())",
        "gens = set(self.algebra.generators()[:-1])",
        ("tests/test_cohomology.py::TestCocycleSystem",),
    ),
    Mutant(
        "assembly dropping the first generator's triples", COH,
        "gens = set(self.algebra.generators())",
        "gens = set(self.algebra.generators()[1:])",
        ("tests/test_cohomology.py::TestCocycleSystem",),
    ),
    Mutant(
        "Lie certificate checking no row", COH,
        "for row in rref.values():",
        "for row in ():",
        ("tests/test_cohomology.py::TestExactness::test_answers_exactly_on_lie_tables",),
    ),
    Mutant(
        "Lie certificate stopping after the first row", COH,
        "for row in rref.values():",
        "for row in list(rref.values())[:1]:",
        ("tests/test_cohomology.py::TestExactness::test_answers_exactly_on_lie_tables",),
    ),
    Mutant(
        "Lie certificate reading the bracket of column c + 1", COH,
        "brk.get(c, {})",
        "brk.get(c + 1, {})",
        ("tests/test_cohomology.py::TestExactness",),
    ),
    Mutant(
        "_reduce skipping one pivot", COH,
        "for col in hits:",
        "for col in hits[1:]:",
        ("tests/test_cohomology.py::TestSpacesAndDims",),
    ),
    Mutant(
        "_b2_echelon dropping one coboundary row", COH,
        "_echelon_int([row for row in self.coboundary_rows() if row])",
        "_echelon_int([row for row in self.coboundary_rows() if row][1:])",
        ("tests/test_cohomology.py::TestSpacesAndDims",),
    ),
    Mutant(
        "representatives() returning the first dim_h2 Z2 rows", COH,
        "return tuple(xi for p, xi in self.z2_basis().items() if p not in self._b2_echelon())",
        "return tuple(self.z2_basis().values())[: self.result().dim_h2]",
        ("tests/test_cohomology.py::TestRepresentatives",),
    ),
    Mutant(
        "each representative's last entry doubled", COH,
        "return tuple(xi for p, xi in self.z2_basis().items() if p not in self._b2_echelon())",
        "return tuple({**xi, max(xi): 2 * xi[max(xi)]} for p, xi in self.z2_basis().items()"
        " if p not in self._b2_echelon())",
        ("tests/test_acceptance.py::test_c13_representatives_extend_the_algebra",),
    ),
    # ck_matrix: label geometry, reversal, omega.
    Mutant(
        "cells() giving M the unit 0", CKM,
        'else int(v != "J")',
        'else int(v not in ("J", "M"))',
        ("tests/test_ck_matrix.py::TestLabels",),
    ),
    Mutant(
        "reversal without the real-unit sign", CKM,
        "[(1 if u else -1) * (1 if c == sorted(c) else -1) for u, c in images]",
        "[(1 if c == sorted(c) else -1) for u, c in images]",
        ("tests/test_ck_matrix.py::TestGenerators::test_reversal_is_the_exchanged_negated_adjoint",),
    ),
    Mutant(
        "reversal without the swap factor", CKM,
        "[(1 if u else -1) * (1 if c == sorted(c) else -1) for u, c in images]",
        "[(1 if u else -1) for u, c in images]",
        ("tests/test_ck_matrix.py::TestGenerators::test_reversal_is_the_exchanged_negated_adjoint",),
    ),
    Mutant(
        "omega negated in both OmegaVector.product and OmegaVector.evaluate", CKM,
        "prod(self[a:b], start=_F1)\n\n    def evaluate(self, monomials) -> list[Fraction]:\n"
        '        """coef * omega_{k1} * omega_{k2} * ... for each (coef, ks) monomial,\n'
        '        ks a sorted tuple of indices in 1..N (one may repeat; () is 1)."""\n'
        "        return [coef * prod([self[k - 1] for k in ks], start=_F1)",
        "prod((-c for c in self[a:b]), start=_F1)\n\n    def evaluate(self, monomials) -> list[Fraction]:\n"
        "        return [coef * prod([-self[k - 1] for k in ks], start=_F1)",
        ("tests/test_acceptance.py::test_c15_killing_form",),
    ),
    # classify and cli.
    Mutant(
        "crosscheck's witnesses admitting the first pair with a bracket", CLS,
        "pairs[c] not in constants",
        "pairs[c] not in list(constants)[1:]",
        ("tests/test_cohomology.py::TestIsCoboundary",),
    ),
    Mutant(
        "crosscheck's trivial proof reading the wrong generator's coboundary row", CLS,
        "solver.coboundary_rows()[solver.algebra.basis.index(g)]",
        "solver.coboundary_rows()[solver.algebra.basis.index(g) - 1]",
        ("tests/test_classify.py::TestCrosscheck::test_small_sweeps_all_match",),
    ),
    Mutant(
        "crosscheck's match without distinct leading witnesses", CLS,
        "predicted == res.dim_h2 == len(set(leads))",
        "predicted == res.dim_h2",
        ("tests/test_cohomology.py::TestRankModB2",),
    ),
    Mutant(
        "removals doubling each term", CLS,
        "acc.get((i, j), 0) + c * v",
        "acc.get((i, j), 0) + 2 * c * v",
        ("tests/test_classify.py::TestRemovalIdentities",),
    ),
    Mutant(
        "verify's coboundary verdict hard-wired to pass", CLI,
        'checks["coboundaries_are_cocycles"] = "fail"',
        'checks["coboundaries_are_cocycles"] = "pass"',
        ("tests/test_cli.py::TestVerify::test_coboundaries_fail_on_a_broken_bracket",),
    ),
    Mutant(
        "matrix_json writing every value at component 0", CLI,
        "grid[i][j][u] = str(v)",
        "grid[i][j][0] = str(v)",
        ("tests/test_ck_matrix.py::TestCommutatorAndDecomposition::test_matrix_json_component_quadruples",),
    ),
    Mutant(
        "matrix_text without the bare-unit form", CLI,
        "if u and abs(v) == 1:",
        "if False:",
        ("tests/test_cli.py::TestGenerators",),
    ),
    Mutant(
        "crosscheck_json keeping the solver", CLI,
        '    del out["solver"]\n',
        "",
        ("tests/test_cli.py::TestH2",),
    ),
    Mutant(
        "structure_json printing c unconverted", CLI,
        '"c": str(c),\n                "label_i"',
        '"c": c,\n                "label_i"',
        ("tests/test_cli.py::TestStructure",),
    ),
    # The test oracles: a wrong helper must fail the criterion that reads it.
    Mutant(
        "b2_certificate counting one repeated leading label twice", HELPERS,
        "return len({min(t) for t in values}),",
        "return len({min(t) for t in values}) + (len({min(t) for t in values}) < len(values)),",
        ("tests/test_acceptance.py::test_c14_b2_certificate_without_elimination",),
    ),
    Mutant(
        "h1_characters for so reading omega_k for omega_{k+1}", HELPERS,
        "(k == n or not om[k])",
        "(k == n or not om[k - 1])",
        ("tests/test_acceptance.py::test_c12_every_rational_omega",),
    ),
    Mutant(
        "dense_rank dropping a row", HELPERS,
        "return len(dense_rref(matrix)[0])",
        "return len(dense_rref(matrix[1:])[0])",
        ("tests/test_cohomology.py::TestIsCoboundary",),
    ),
    Mutant(
        "killing_gram reading ad x transposed", HELPERS,
        "into.get((m, k), ())",
        "into.get((k, m), ())",
        ("tests/test_acceptance.py::test_c15_killing_form",),
    ),
    Mutant(
        "oracle_quaternion_product with the sign of j*k flipped", HELPERS,
        "+ ay * bz",
        "- ay * bz",
        ("tests/test_ck_matrix.py::TestUnitTable::test_oracle_product_on_units",),
    ),
    Mutant(
        "oracle_commutator dropping the YX product", HELPERS,
        "((x[i][k], y[k][j], 1), (y[i][k], x[k][j], -1))",
        "((x[i][k], y[k][j], 1),)",
        ("tests/test_ck_matrix.py::TestCommutatorAndDecomposition::test_generator_commutators_match_dense_oracle",),
    ),
)


def stale(m: Mutant) -> str | None:
    """Why the entry no longer applies to this checkout, or None."""
    count = (ROOT / m.file).read_text().count(m.old)
    if count != 1:
        return f"old text occurs {count} times in {m.file}"
    if m.old == m.new:
        return "old and new text are the same"
    return None


def run_one(m: Mutant) -> tuple[bool, str]:
    """(killed, what): the mutated copy's pytest verdict on m.tests."""
    with tempfile.TemporaryDirectory(prefix="cklie-mutant-") as tmp:
        copy = Path(tmp)
        for part in COPIED:
            if (ROOT / part).is_dir():
                shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(ROOT / part, copy / part)
        target = copy / m.file
        target.write_text(target.read_text().replace(m.old, m.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider", *m.tests]
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return False, "SURVIVED"
    failed = [line.split(" - ")[0].split(" ", 1)[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if proc.returncode == 1 and failed:
        return True, "killed by " + failed[0]
    tail = (proc.stdout + proc.stderr).strip().splitlines()[-3:]
    return False, f"ERROR: pytest exit {proc.returncode}: " + " | ".join(tail)


def main() -> int:
    failures = 0
    t_all = time.perf_counter()
    for m in MUTANTS:
        reason = stale(m)
        if reason:
            failures += 1
            print(f"STALE  {m.name}: {reason}", flush=True)
            continue
        t0 = time.perf_counter()
        killed, what = run_one(m)
        failures += not killed
        print(f"{time.perf_counter() - t0:6.1f}s  {m.name}: {what}", flush=True)
    print(f"{failures} failed, {time.perf_counter() - t_all:.1f} s in all")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
