"""Command-line front end.

Commands: generators | structure | h2 | sweep | verify.  Exit codes: 0 on
success, 1 when a verification or predictor/solver crosscheck fails, 2 on
input errors.  JSON output is key-sorted and rationals are serialized as
"p/q" strings, so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from itertools import product

from .ck_matrix import (
    FAMILIES,
    I_LABEL,
    OmegaVector,
    build_generator,
    build_metric,
    is_metric_antihermitian,
    is_traceless,
    labels_for_family,
)
from .lie_core import _from_generators, build_algebra, from_matrices, verify_jacobi

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
    """Parse --omega in place and check --n against it; --n alone sizes a sweep."""
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


def _write_output(args: argparse.Namespace, text: str):
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write --out {args.out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _emit_json(args: argparse.Namespace, payload) -> None:
    _write_output(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def cmd_generators(args: argparse.Namespace) -> int:
    labels = labels_for_family(args.family, args.n)
    mats = [(lab, build_generator(args.family, lab, args.omega)) for lab in labels]
    if args.format == "json":
        payload = {
            "family": args.family,
            "n": args.n,
            "omega": [str(c) for c in args.omega],
            "dim": len(labels),
            "generators": [
                {"label": str(lab), "matrix": mat.to_component_lists()}
                for lab, mat in mats
            ],
        }
        _emit_json(args, payload)
    else:
        lines = [f"family {args.family}  omega ({args.omega.text()})  {len(labels)} generators"]
        for lab, mat in mats:
            lines.append(f"{lab}:")
            lines.append(str(mat))
        _write_output(args, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


def cmd_structure(args: argparse.Namespace) -> int:
    L = build_algebra(args.family, args.omega)
    jacobi_ok = verify_jacobi(L)
    matrix_match = from_matrices(args.family, args.omega).same_constants(L)
    payload = L.to_json_obj()
    payload["jacobi_ok"] = jacobi_ok
    payload["matrix_match"] = matrix_match
    if args.format == "json":
        _emit_json(args, payload)
    else:
        lines = [
            f"family {args.family}  omega ({args.omega.text()})  dim {L.dim}",
            f"jacobi_ok: {jacobi_ok}",
            f"matrix_match: {matrix_match}",
        ]
        for i, j, k, c in L.structure_rows():
            lines.append(f"[{L.basis[i]}, {L.basis[j]}] -> {c} * {L.basis[k]}")
        _write_output(args, "\n".join(lines) + "\n")
    return EXIT_OK if (jacobi_ok and matrix_match) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# h2
# ---------------------------------------------------------------------------


def _h2_payload(family: str, omega: OmegaVector) -> dict:
    from .classify import crosscheck

    report = crosscheck(family, omega)
    L = report.solver.algebra
    summary = report.to_json_obj()
    payload = {key: value for key, value in summary.items() if key != "coefficients"}
    payload["dim"] = L.dim
    payload["representatives"] = [
        {"pairs": [
            {"i": i, "j": j, "c": str(c), "label_i": str(L.basis[i]), "label_j": str(L.basis[j])}
            for (i, j), c in sorted(xi.items())
        ]}
        for xi in report.solver.representatives()
    ]
    payload["crosscheck"] = summary
    return payload


def cmd_h2(args: argparse.Namespace) -> int:
    payload = _h2_payload(args.family, args.omega)
    if args.format == "json":
        _emit_json(args, payload)
    else:
        lines = [
            f"family {args.family}  omega ({args.omega.text()})",
            f"dim_z2 {payload['dim_z2']}  dim_b2 {payload['dim_b2']}  dim_h2 {payload['dim_h2']}",
            f"predicted {payload['predicted']}  match {payload['match']}",
        ]
        for rep in payload["representatives"]:
            body = ", ".join(
                f"xi({p['label_i']},{p['label_j']})={p['c']}" for p in rep["pairs"]
            )
            lines.append(f"representative: {body}")
        _write_output(args, "\n".join(lines) + "\n")
    return EXIT_OK if payload["match"] else EXIT_CHECK_FAILED


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
    omega, so only the 2^n patterns in {0, 1}^n are solved, and each row is
    its representative's (1 wherever omega is nonzero) with its own omega.
    At most jobs workers, and never more than the CPUs or the cases solved;
    `Pool.starmap` keeps the order.
    """
    from .classify import certify_rescaling

    certify_rescaling(family, n)
    tasks = [(family, z) for z in product((0, 1), repeat=n)]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: only a parallel sweep pays for loading multiprocessing.
        from multiprocessing import Pool

        with Pool(processes=workers) as pool:
            solved = pool.starmap(run_case, tasks)
    else:
        solved = [run_case(*t) for t in tasks]
    by_zero_set = {z: row for (_, z), row in zip(tasks, solved)}
    return [
        {**by_zero_set[tuple(s * s for s in signs)], "omega": ",".join(map(str, signs))}
        for signs in product((-1, 0, 1), repeat=n)
    ]


def cmd_sweep(args: argparse.Namespace) -> int:
    jobs = (os.cpu_count() or 1) if args.jobs is None else args.jobs
    if jobs < 1:
        raise InputError("--jobs must be >= 1")
    rows = sweep_rows(args.family, args.n, jobs=jobs)
    mismatches = sum(1 for row in rows if not row["match"])
    if args.format == "json":
        _emit_json(
            args,
            {
                "rows": rows,
                "summary": {"cases": len(rows), "mismatches": mismatches},
            },
        )
    elif args.format == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            *cells, match = (row[column] for column in SWEEP_COLUMNS)
            writer.writerow([*cells, "true" if match else "false"])
        buf.write(f"# summary cases={len(rows)} mismatches={mismatches}\n")
        _write_output(args, buf.getvalue())
    else:
        lines = []
        for row in rows:
            lines.append(
                f"{row['family']}  ({row['omega']})  z2={row['dim_z2']} b2={row['dim_b2']} "
                f"h2={row['dim_h2']} predicted={row['predicted']} match={row['match']}"
            )
        lines.append(f"summary: cases={len(rows)} mismatches={mismatches}")
        _write_output(args, "\n".join(lines) + "\n")
    return EXIT_OK if mismatches == 0 else EXIT_CHECK_FAILED


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
    checks["closure_matrix_match"] = (
        "pass" if _from_generators(family, omega, labels, mats).same_constants(L) else "fail"
    )
    checks["jacobi"] = "pass" if verify_jacobi(L) else "fail"
    # Coboundaries are linear in mu, so testing each delta(e_k) proves that
    # every coboundary is a cocycle.
    solver = CohomologySolver(L)
    rows = solver.coboundary_rows()
    ok = all(solver.is_cocycle(row) for row in rows)
    checks["coboundaries_are_cocycles"] = "pass" if ok else "fail"
    # Every type II removal identity delta(e_g) = sum c * xi, exactly: row g
    # is delta(e_g) in the constants scaled by d, so it must equal d * rhs.
    identities = removals(predict(family, omega))
    d, pair_index = L.scale, solver.pair_index
    ok = all(
        rows[L.index(g)] == {pair_index[p]: d * c for p, c in rhs.items()}
        for g, rhs in identities.items()
    )
    checks["pseudoextension_removal"] = ("pass" if ok else "fail") if identities else "skipped"
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    checks = verify_case(args.family, args.omega)
    failed = [name for name, status in checks.items() if status == "fail"]
    payload = {
        "family": args.family,
        "n": args.n,
        "omega": [str(c) for c in args.omega],
        "checks": checks,
        "ok": not failed,
    }
    if args.format == "json":
        _emit_json(args, payload)
    else:
        lines = [f"family {args.family}  omega ({args.omega.text()})"]
        for name, status in checks.items():
            lines.append(f"{name}: {status}")
        lines.append("ok" if not failed else f"FAILED: {', '.join(failed)}")
        _write_output(args, "\n".join(lines) + "\n")
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


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

    def common(p: argparse.ArgumentParser, need_omega: bool, formats=("json", "text")):
        p.add_argument("--family", required=True, choices=FAMILIES)
        if need_omega:
            p.add_argument(
                "--omega",
                required=True,
                help="comma-separated rational coefficients, e.g. 1,0,-1/2",
            )
            p.add_argument("--n", type=int, default=None, help="optional length check")
        else:
            p.add_argument("--n", type=int, required=True, help="number of coefficients")
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", default=None, help="write output to this path")

    p_gen = sub.add_parser("generators", help="print the basis matrices")
    common(p_gen, need_omega=True)

    p_struct = sub.add_parser("structure", help="structure constants + verification")
    common(p_struct, need_omega=True)

    p_h2 = sub.add_parser("h2", help="second cohomology + predictor crosscheck")
    common(p_h2, need_omega=True)

    p_sweep = sub.add_parser("sweep", help="all 3^n sign patterns")
    common(p_sweep, need_omega=False, formats=("json", "csv", "text"))
    p_sweep.add_argument("--jobs", type=int, default=None, help="parallel workers")

    p_verify = sub.add_parser("verify", help="full invariant suite for one case")
    common(p_verify, need_omega=True)

    return parser


_COMMANDS = {
    "generators": cmd_generators,
    "structure": cmd_structure,
    "h2": cmd_h2,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_size(args)
        # The int <-> str digit limit (against quadratic-time conversion) holds
        # for the input; printed products and representatives may exceed it.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            return _COMMANDS[args.command](args)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
