"""Command-line front end.

Commands: generators | structure | h2 | sweep | verify, one subparser each,
built from one table.  Each ``cmd_*`` computes once and returns ``(ok, out)``:
``out`` is the JSON payload under ``--format json`` and the finished text
otherwise.  Every payload and text layout is built in this module, from the
values that the library's records hold (`matrix_json`, `matrix_text`,
`structure_json`, `crosscheck_json` and the commands).  ``main`` alone serializes JSON, writes to ``--out`` or stdout and
sets the exit code: 0 on success, 1 when ``ok`` is false (a verification or
predictor/solver crosscheck failed), 2 on input errors.  JSON output is
key-sorted and rationals are serialized as "p/q" strings, so identical inputs
produce byte-identical output.
"""

from __future__ import annotations

# The package's own modules are imported first.  A launch that writes no
# bytecode compiles each one from source, and compiling lie_core on top of
# argparse and json raised the peak traced memory of `import cklie.cli` by 0.46 MB.
# json is imported only where JSON is written, in `main`: csv and text
# commands, and `import cklie.cli`, never load it.
from .ck_matrix import (
    FAMILIES,
    I_LABEL,
    MatrixOverK,
    OmegaVector,
    build_generator,
    build_metric,
    is_metric_antihermitian,
    is_traceless,
    labels_for_family,
)
from .lie_core import LieAlgebra, build_algebra, matrix_match, verify_jacobi

import argparse
import io
import os
import sys
from itertools import product

# cohomology and classify are imported inside the commands that solve for H2
# (h2, sweep, verify), so that structure and generators load neither.

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2

SWEEP_COLUMNS = (
    "family",
    "N",
    "omega",
    "n_zeros",
    "dim_z2",
    "dim_b2",
    "dim_h2",
    "predicted",
    "match",
)


class InputError(Exception):
    """User-facing input problem; reported on stderr with exit code 2."""


def _check_size(args: argparse.Namespace) -> None:
    """Parse --omega in place and check --n against it; --n alone sizes a sweep, up to 13."""
    if "omega" in args:
        try:
            args.omega = OmegaVector.parse(args.omega)
        except ValueError as exc:
            raise InputError(f"bad --omega value: {exc}") from None
        if args.n is not None and args.n != args.omega.n:
            raise InputError(f"--n {args.n} disagrees with --omega of length {args.omega.n}")
        args.n = args.omega.n
    if args.n < 1:
        raise InputError("--n must be >= 1")
    # A sweep holds its 3^n rows in memory: about 1.7 GB at n = 14.
    if "omega" not in args and args.n > 13:
        raise InputError(f"sweep --n must be <= 13, got {args.n}")


def _cpus() -> int:
    """The CPUs this process may run on; all of them where the platform cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _heading(args: argparse.Namespace) -> str:
    return f"family {args.family}  omega ({args.omega.text()})"


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

# The units 1, i_1, i_2, i_3 of a matrix entry, as printed.
_UNIT_SYMBOL = ("", "i", "j", "k")


def matrix_json(mat: MatrixOverK) -> list[list[list[str]]]:
    """A matrix as `generators` prints it in JSON: rows of (w, x, y, z)
    component quadruples."""
    grid = [[["0"] * 4 for _ in range(mat.dim)] for _ in range(mat.dim)]
    for (i, j), (u, v) in mat.cells.items():
        grid[i][j][u] = str(v)
    return grid


def matrix_text(mat: MatrixOverK) -> str:
    """A matrix as `generators` prints it in text: one bracketed line per
    row, every entry right-aligned to the widest, each "0", "2", "-1/2j", or
    a bare "i" or "-k" for a unit times +-1."""
    grid = [["0"] * mat.dim for _ in range(mat.dim)]
    for (i, j), (u, v) in mat.cells.items():
        if u and abs(v) == 1:
            grid[i][j] = ("-" if v < 0 else "") + _UNIT_SYMBOL[u]
        else:
            grid[i][j] = f"{v}{_UNIT_SYMBOL[u]}"
    width = max(len(c) for line in grid for c in line)
    return "\n".join("[ " + "  ".join(c.rjust(width) for c in line) + " ]" for line in grid)


def cmd_generators(args: argparse.Namespace) -> tuple[bool, object]:
    labels = labels_for_family(args.family, args.n)
    mats = [(lab, build_generator(args.family, lab, args.omega)) for lab in labels]
    if args.format == "json":
        return True, {
            "family": args.family,
            "n": args.n,
            "omega": [str(c) for c in args.omega],
            "dim": len(labels),
            "generators": [{"label": str(lab), "matrix": matrix_json(mat)} for lab, mat in mats],
        }
    lines = [f"{_heading(args)}  {len(labels)} generators"]
    for lab, mat in mats:
        lines += (f"{lab}:", matrix_text(mat))
    return True, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


def structure_json(L: LieAlgebra, jacobi_ok: bool, matrix_ok: bool) -> dict:
    """The `structure` JSON payload: the algebra, each nonzero constant with
    its labels and its value as a "p/q" string, and the two verdicts."""
    names = [str(lab) for lab in L.basis]
    return {
        "family": L.family,
        "dim": L.dim,
        "omega": [str(c) for c in L.omega],
        "basis": names,
        "constants": [
            {
                "i": i,
                "j": j,
                "k": k,
                "c": str(c),
                "label_i": names[i],
                "label_j": names[j],
                "label_k": names[k],
            }
            for i, j, k, c in L.structure_rows()
        ],
        "jacobi_ok": jacobi_ok,
        "matrix_match": matrix_ok,
    }


def cmd_structure(args: argparse.Namespace) -> tuple[bool, object]:
    L = build_algebra(args.family, args.omega)
    jacobi_ok = verify_jacobi(L)
    matrix_ok = matrix_match(L, jacobi_ok)
    ok = jacobi_ok and matrix_ok
    if args.format == "json":
        return ok, structure_json(L, jacobi_ok, matrix_ok)
    lines = [
        f"{_heading(args)}  dim {L.dim}",
        f"jacobi_ok: {jacobi_ok}",
        f"matrix_match: {matrix_ok}",
    ]
    names = [str(lab) for lab in L.basis]
    for i, j, k, c in L.structure_rows():
        lines.append(f"[{names[i]}, {names[j]}] -> {c} * {names[k]}")
    return ok, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# h2
# ---------------------------------------------------------------------------


def crosscheck_json(report) -> dict:
    """The crosscheck summary that `h2` prints under "crosscheck": every
    field of the `classify.CrosscheckReport` but the solver, omega as "p/q"
    strings and its length n, and each verdict as a dict of its fields under
    "coefficients"."""
    out = report._asdict()
    del out["solver"]
    out["coefficients"] = [v._asdict() for v in out.pop("verdicts")]
    return out | {"omega": [str(c) for c in report.omega], "n": report.omega.n}


def cmd_h2(args: argparse.Namespace) -> tuple[bool, object]:
    from .classify import crosscheck

    report = crosscheck(args.family, args.omega)
    L = report.solver.algebra
    representatives = [sorted(xi.items()) for xi in report.solver.representatives()]
    if args.format == "json":
        summary = crosscheck_json(report)
        payload = {key: value for key, value in summary.items() if key != "coefficients"}
        payload["dim"] = L.dim
        payload["representatives"] = [
            {"pairs": [
                {"i": i, "j": j, "c": str(c), "label_i": str(L.basis[i]), "label_j": str(L.basis[j])}
                for (i, j), c in pairs
            ]}
            for pairs in representatives
        ]
        payload["crosscheck"] = summary
        return report.match, payload
    lines = [
        _heading(args),
        f"dim_z2 {report.dim_z2}  dim_b2 {report.dim_b2}  dim_h2 {report.dim_h2}",
        f"predicted {report.predicted}  match {report.match}",
    ]
    for pairs in representatives:
        body = ", ".join(f"xi({L.basis[i]},{L.basis[j]})={c}" for (i, j), c in pairs)
        lines.append(f"representative: {body}")
    return report.match, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def run_case(family: str, signs: tuple[int, ...]) -> dict:
    """One sweep row: solver dims, predicted count, crosscheck match."""
    from .classify import crosscheck

    omega = OmegaVector.coerce(signs)
    report = crosscheck(family, omega)
    row = {"family": family, "N": omega.n, "omega": omega.text()}
    return row | {column: getattr(report, column) for column in SWEEP_COLUMNS[3:]}


def sweep_rows(family: str, n: int, jobs: int = 1) -> list[dict]:
    """All 3^n sign patterns, rows in lexicographic omega order.

    `certify_rescaling` proves that a row depends only on the zero set of
    omega, and `certify_reversal` that the row at a zero set z equals the
    one at reversed z.  So only the patterns z in {0, 1}^n with z <= reversed
    z are solved, one per reversal orbit, and each row is its orbit
    representative's (1 wherever omega is nonzero, the lesser of z and
    reversed z) with its own omega.  At most jobs workers, and never more
    than the cases solved or the CPUs this process may run on;
    `Pool.starmap` keeps the order.
    """
    from .classify import certify_rescaling, certify_reversal

    certify_rescaling(family, n)
    certify_reversal(family, n)
    tasks = [(family, z) for z in product((0, 1), repeat=n) if z <= z[::-1]]
    workers = min(jobs, len(tasks), _cpus())
    if workers > 1:
        # Imported here: only a parallel sweep pays for loading multiprocessing.
        from multiprocessing import Pool

        with Pool(processes=workers) as pool:
            solved = pool.starmap(run_case, tasks)
    else:
        solved = [run_case(*t) for t in tasks]
    by_orbit = {z: row for (_, z), row in zip(tasks, solved)}
    return [
        {**by_orbit[min(z, z[::-1])], "omega": ",".join(map(str, signs))}
        for signs in product((-1, 0, 1), repeat=n)
        for z in [tuple(s * s for s in signs)]
    ]


def cmd_sweep(args: argparse.Namespace) -> tuple[bool, object]:
    jobs = _cpus() if args.jobs is None else args.jobs
    if jobs < 1:
        raise InputError("--jobs must be >= 1")
    rows = sweep_rows(args.family, args.n, jobs=jobs)
    mismatches = sum(1 for row in rows if not row["match"])
    if args.format == "json":
        return not mismatches, {
            "rows": rows,
            "summary": {"cases": len(rows), "mismatches": mismatches},
        }
    if args.format == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            *cells, match = (row[column] for column in SWEEP_COLUMNS)
            writer.writerow([*cells, "true" if match else "false"])
        buf.write(f"# summary cases={len(rows)} mismatches={mismatches}\n")
        return not mismatches, buf.getvalue()
    lines = [
        f"{row['family']}  ({row['omega']})  z2={row['dim_z2']} b2={row['dim_b2']} "
        f"h2={row['dim_h2']} predicted={row['predicted']} match={row['match']}"
        for row in rows
    ]
    lines.append(f"summary: cases={len(rows)} mismatches={mismatches}")
    return not mismatches, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def verify_case(family: str, omega: OmegaVector) -> dict:
    """Full invariant suite for one algebra; values 'pass'/'fail'/'skipped'."""
    from .classify import predict, removals
    from .cohomology import CohomologySolver

    checks: dict[str, str] = {}
    labels = labels_for_family(family, omega.n)
    mats = [build_generator(family, lab, omega) for lab in labels]
    metric = build_metric(omega)
    checks["antihermitian"] = (
        "pass" if all(is_metric_antihermitian(m, metric) for m in mats) else "fail"
    )
    if family in ("su", "u"):
        ok = all(is_traceless(m) for lab, m in zip(labels, mats) if lab != I_LABEL)
        checks["traceless"] = "pass" if ok else "fail"
    else:
        checks["traceless"] = "skipped"
    L = build_algebra(family, omega)
    jacobi_ok = verify_jacobi(L)
    checks["closure_matrix_match"] = "pass" if matrix_match(L, jacobi_ok) else "fail"
    checks["jacobi"] = "pass" if jacobi_ok else "fail"
    # Coboundaries are linear in mu, and a triple's equation sends delta(e_k)
    # to e_k of its Jacobiator, so every coboundary solves the solver's rows
    # (the triples that hold one of `LieAlgebra.generators()`) exactly when
    # the solver's Lie certificate passes; it raises ArithmeticError if not.
    solver = CohomologySolver(L)
    try:
        solver._system_echelon()
        checks["coboundaries_are_cocycles"] = "pass"
    except ArithmeticError:
        checks["coboundaries_are_cocycles"] = "fail"
    # Every type II removal identity delta(e_g) = sum c * xi, exactly: row g
    # is delta(e_g) in the constants scaled by d, so it must equal d * rhs.
    identities = removals(predict(family, omega))
    rows, d, pair_index = solver.coboundary_rows(), L.scale, solver.pair_index
    ok = all(
        rows[L.basis.index(g)] == {pair_index[p]: d * c for p, c in rhs.items()}
        for g, rhs in identities.items()
    )
    checks["pseudoextension_removal"] = ("pass" if ok else "fail") if identities else "skipped"
    return checks


def cmd_verify(args: argparse.Namespace) -> tuple[bool, object]:
    checks = verify_case(args.family, args.omega)
    failed = [name for name, status in checks.items() if status == "fail"]
    if args.format == "json":
        return not failed, {
            "family": args.family,
            "n": args.n,
            "omega": [str(c) for c in args.omega],
            "checks": checks,
            "ok": not failed,
        }
    lines = [_heading(args), *(f"{name}: {status}" for name, status in checks.items())]
    lines.append("ok" if not failed else f"FAILED: {', '.join(failed)}")
    return not failed, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cklie",
        description=(
            "Exact construction of the orthogonal/unitary/quaternionic "
            "contraction families and their central extensions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help_text in (
        ("generators", cmd_generators, "print the basis matrices"),
        ("structure", cmd_structure, "structure constants + verification"),
        ("h2", cmd_h2, "second cohomology + predictor crosscheck"),
        ("sweep", cmd_sweep, "all 3^n sign patterns"),
        ("verify", cmd_verify, "full invariant suite for one case"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--family", required=True, choices=FAMILIES)
        if name == "sweep":
            p.add_argument("--n", type=int, required=True, help="number of coefficients")
            p.add_argument("--jobs", type=int, default=None, help="parallel workers")
            formats = ("json", "csv", "text")
        else:
            p.add_argument(
                "--omega",
                required=True,
                help="comma-separated rational coefficients, e.g. 1,0,-1/2",
            )
            p.add_argument("--n", type=int, default=None, help="optional length check")
            formats = ("json", "text")
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", default=None, help="write output to this path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_size(args)
        # The int <-> str digit limit (against quadratic-time conversion) holds
        # for the input; printed products and representatives may exceed it.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            ok, out = args.run(args)
            if args.format == "json":
                import json

                out = json.dumps(out, indent=2, sort_keys=True) + "\n"
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(out)
            except OSError as exc:
                raise InputError(f"cannot write --out {args.out}: {exc.strerror or exc}") from None
        else:
            sys.stdout.write(out)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK if ok else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
