import argparse
import csv
import hashlib
import importlib.util
import io
import json
import re
import sys
from itertools import product
from pathlib import Path

import pytest

from helpers import oracle_jacobi, random_tables, run_fresh
from cklie import classify, cli, cohomology, lie_core
from cklie.ck_matrix import NotInSpanError, OmegaVector, labels_for_family
from cklie.classify import predict, removals
from cklie.cli import main, sweep_rows


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerators:
    def test_so_count_and_labels(self, capsys):
        code, out, _ = run(capsys, "generators", "--family", "so", "--omega", "1,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 3
        assert [g["label"] for g in payload["generators"]] == ["J(0,1)", "J(0,2)", "J(1,2)"]
        assert payload["generators"][0]["matrix"][0][1] == ["-1", "0", "0", "0"]

    def test_sq_count(self, capsys):
        code, out, _ = run(capsys, "generators", "--family", "sq", "--omega", "0")
        assert code == 0
        assert json.loads(out)["dim"] == 10

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "generators", "--family", "su", "--omega", "1,0,x")
        assert code == 2
        assert "error" in err

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "generators", "--family", "so", "--omega", "1", "--format", "text"
        )
        assert code == 0
        assert "J(0,1):" in out

    # sha256 of the output recorded from the dense matrix store (commit
    # a07d196); pins the full grid rendering, zeros included, of the sparse one.
    @pytest.mark.parametrize(
        "family,fmt,digest",
        [
            ("so", "json", "57f01e83a5da49d992abf13895125e73bbef8bda67051a5c605915cf57e83fbe"),
            ("so", "text", "e020217ce63c2ac08bd1e4101439065f4be5c63e2f4e29c80bc0082138ebb4b9"),
            ("su", "json", "55e3f2aeb7305a02bcfc5e528d3fb6e128316fdb3175397f17bbdca865f3ec85"),
            ("su", "text", "85b13024cba58f0897b8faa7e08ca7d83ac7902fa35890d69955a92c846cc8f1"),
            ("u", "json", "67cebedc4b7d7cbcc36ff92c3235a9113f83089f7856de56736adee3e1f8666e"),
            ("u", "text", "0715a89d3deb41f4e72a6ae587d28a28c236e57c3b2df216f53cb97fe6b1748b"),
            ("sq", "json", "19765371b3e7ef5fa1a079f371a84cfa9cbd660daf857b687ea8cc11c37ce90c"),
            ("sq", "text", "dc22ae39ff3c4a61af0b92c1fe0304f63461a63866b86fb502e2cd84e7473b41"),
        ],
    )
    def test_output_digest(self, capsys, family, fmt, digest):
        code, out, _ = run(
            capsys, "generators", "--family", family, "--omega", "1,0,-1/2", "--format", fmt
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of the output recorded from the four-component entries (commit
    # a911076); non-unit denominators pin the scaled generators' rendering.
    @pytest.mark.parametrize(
        "fmt,digest",
        [
            ("json", "c5c4af0e05400b4f45f8fd5be73d3d3ad587a1883f5ee20d07218ba5f03b9974"),
            ("text", "bae10510e5d4e60d11d9429f1d569b6cfd17ec9b2f06fe1d5243f32b3ce0c89a"),
        ],
    )
    def test_rational_omega_digest(self, capsys, fmt, digest):
        code, out, _ = run(
            capsys, "generators", "--family", "sq", "--omega=2,-3,5/7,4/3,-1/2", "--format", fmt
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_csv_not_supported_here(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generators", "--family", "so", "--omega", "1", "--format", "csv"])
        assert exc.value.code == 2


class TestStructure:
    def test_ok_case(self, capsys):
        code, out, _ = run(capsys, "structure", "--family", "so", "--omega", "0,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["jacobi_ok"] is True and payload["matrix_match"] is True

    def test_su_constants_include_torus_row(self, capsys):
        code, out, _ = run(capsys, "structure", "--family", "su", "--omega", "1")
        payload = json.loads(out)
        rows = {
            (r["label_i"], r["label_j"], r["label_k"]): r["c"]
            for r in payload["constants"]
        }
        assert rows[("J(0,1)", "M(0,1)", "B(1)")] == "-2"

    @staticmethod
    def negate_one_constant(monkeypatch):
        # The closed-form table with its first constant negated.
        def corrupted(family, omega):
            L = lie_core.build_algebra(family, omega)
            pair = min(L.constants)
            terms = dict(L.constants[pair])
            k = min(terms)
            terms[k] = -terms[k]
            return lie_core.LieAlgebra(L.family, L.omega, L.basis, {**L.constants, pair: terms})

        monkeypatch.setattr(cli, "build_algebra", corrupted)

    def test_corrupt_mode_fails(self, capsys, monkeypatch):
        self.negate_one_constant(monkeypatch)
        code, out, _ = run(capsys, "structure", "--family", "so", "--omega", "1,1")
        assert code == 1
        assert json.loads(out)["matrix_match"] is False

    def test_corrupt_breaks_jacobi(self, capsys, monkeypatch):
        # so N=2 has dim 3, where no sign flip can break Jacobi; N=3 is the
        # smallest case where the corrupted copy fails the Jacobi check.
        self.negate_one_constant(monkeypatch)
        code, out, _ = run(capsys, "structure", "--family", "so", "--omega", "1,1,1")
        assert code == 1
        assert json.loads(out)["jacobi_ok"] is False

    def test_corrupt_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["structure", "--family", "so", "--omega", "1,1", "--corrupt"])
        assert exc.value.code == 2

    def test_doubled_constant_without_a_generator_fails_both(self, capsys, monkeypatch):
        # so N=3 has generators J(0,1), J(0,2), J(0,3); the row
        # [J(1,2), J(1,3)] = J(2,3) holds none of them, so the matrix rows
        # never compare it and only Jacobi sees it doubled.
        def doubled(family, omega):
            L = lie_core.build_algebra(family, omega)
            return lie_core.LieAlgebra(L.family, L.omega, L.basis, {**L.constants, (3, 4): {5: 2}})

        monkeypatch.setattr(cli, "build_algebra", doubled)
        code, out, _ = run(capsys, "structure", "--family", "so", "--omega", "1,1,1", "--format", "text")
        assert code == 1
        assert "jacobi_ok: False\nmatrix_match: False\n" in out

    def test_program_fault_is_not_an_input_error(self, capsys, monkeypatch):
        # A commutator outside the generators' span is a broken invariant,
        # not bad input: it must surface as a traceback, never as exit code 2.
        def broken(family, omega, pairs=None):
            raise NotInSpanError("[J(0,1), J(1,2)] is not in the span of the generators")

        monkeypatch.setattr(lie_core, "from_matrices", broken)
        with pytest.raises(NotInSpanError):
            main(["structure", "--family", "so", "--omega", "1,1"])

    def test_omega_length_check(self, capsys):
        code, _, err = run(
            capsys, "structure", "--family", "so", "--omega", "1,1", "--n", "3"
        )
        assert code == 2

    # sha256 of the output recorded from the per-family closed-form tables
    # (commit 6d12248); pins every constant at a rational omega with a zero.
    @pytest.mark.parametrize(
        "family,fmt,digest",
        [
            ("so", "json", "d6a690dcb8a7895364b1b6b8b1f933b7cc3c334898871647a7033e6f5e840acf"),
            ("so", "text", "c5a55641bd09b04273ae9d65d0ff28db7048fc49224d48f95c81f7c55ad1404a"),
            ("su", "json", "3fb0452b36474d1ceb8acb71e877ac2fb62f113f0907a57ec85a4800fd9268e5"),
            ("su", "text", "88bf0c653b5beb9745cbf79a3773f32827623a0a7ee5528fb8ade9f4c2149d01"),
            ("u", "json", "f5bb98f3f8bca821f74664620ce476b5b787e924c2852b70fa272559fadf752f"),
            ("u", "text", "51d72dea8d34c3ae241906adb20280b5f91f8f921c9e39a8f882efed300967a1"),
            ("sq", "json", "a91d86d3f07ec628e8d204174535fc48733bbdd25e1272ed16b1a4a2dd075063"),
            ("sq", "text", "c1d38861470f70251efabcfbd32fde3cc3b7507a123c39b865ff8b3118ea47d0"),
        ],
    )
    def test_output_digest(self, capsys, family, fmt, digest):
        code, out, _ = run(
            capsys, "structure", "--family", family, "--omega", "1,0,-1/2", "--format", fmt
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


    # sha256 of the output recorded from the four-component entries (commit
    # a911076).  Each generator is scaled by the lcm D_k of its denominators,
    # and these omegas make D_i * D_j differ from 1 in the commutator rows.
    @pytest.mark.parametrize(
        "family,omega,fmt,digest",
        [
            ("sq", "2,-3,5/7,4/3,-1/2", "json",
             "2c87bc03b339d030abaab01f914d047febd678661d6e4eadebd99b7d647645b0"),
            ("sq", "2,-3,5/7,4/3,-1/2", "text",
             "2db1542ca245142209d78ae87ae886fea537ba9349761481cd6066ff906bedb4"),
            ("su", "3/2,-1,0,5/3", "json",
             "5a3e589b03215c1682dd0bc30b80a00d7473f6238ce1555f60bbd8d49e494152"),
            ("su", "3/2,-1,0,5/3", "text",
             "6f14f462415929680705f34834c557072796de6dde750948c7f59cba2c537289"),
        ],
    )
    def test_rational_omega_digest(self, capsys, family, omega, fmt, digest):
        code, out, _ = run(capsys, "structure", "--family", family, f"--omega={omega}", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestH2:
    def test_euclidean_case(self, capsys):
        code, out, _ = run(capsys, "h2", "--family", "so", "--omega", "0,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["dim_h2"] == 1 and payload["match"] is True
        assert payload["crosscheck"]["predicted"] == 1

    def test_sq_trivial(self, capsys):
        code, out, _ = run(capsys, "h2", "--family", "sq", "--omega", "0,0")
        assert code == 0
        assert json.loads(out)["dim_h2"] == 0

    def test_u_flag_case(self, capsys):
        code, out, _ = run(capsys, "h2", "--family", "u", "--omega", "0,0,0")
        assert code == 0
        assert json.loads(out)["dim_h2"] == 9

    def test_sq_n3_trivial(self, capsys):
        code, out, _ = run(capsys, "h2", "--family", "sq", "--omega", "0,0,1")
        assert code == 0
        assert json.loads(out)["dim_h2"] == 0

    def test_representatives_carry_labels(self, capsys):
        _, out, _ = run(capsys, "h2", "--family", "so", "--omega", "0,1")
        rep = json.loads(out)["representatives"][0]
        assert rep["pairs"][0]["label_i"] == "J(0,1)"

    # sha256 of the output recorded before the leading-column elimination
    # kernel (commit da598b2); pins the representative cocycles, not just dims.
    @pytest.mark.parametrize(
        "family,omega,digest",
        [
            ("so", "0,0,0,0", "b463316e2b01dd36223edca3a25cfa915d70116e7a0f53ad39707a2cce021d58"),
            ("so", "0,-3/4,0,5/2", "47c54876cd682e85b8ba293328a88aff19ea3d648ab6b53f083947803556231d"),
            ("su", "0,2/3,0", "e054361ad8c7b2d829537178c23364e59a3262b07f6b58440855000e81dea72c"),
            ("u", "-5/2,0,0", "0f98ee17059230b262fe7fef6f65350dadb70d19e59db0004d079d7b28d13d42"),
            ("sq", "0,1", "af8f9710dd52a4e7a97304ab43b85ed3c7820b3176b37362b5b4a0162dd51a35"),
        ],
    )
    def test_output_digest(self, capsys, family, omega, digest):
        code, out, _ = run(capsys, "h2", "--family", family, f"--omega={omega}", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "h2", "--family", "su", "--omega", "0,1")
        _, out2, _ = run(capsys, "h2", "--family", "su", "--omega", "0,1")
        assert out1 == out2


class TestSweep:
    def test_so_n2_rows(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--family", "so", "--n", "2", "--format", "csv", "--jobs", "1"
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        header, rows = lines[0], lines[1:]
        assert header == "family,N,omega,n_zeros,dim_z2,dim_b2,dim_h2,predicted,match"
        assert len(rows) == 9
        assert "# summary cases=9 mismatches=0" in out

    def test_csv_parses_and_sorted(self, capsys):
        _, out, _ = run(
            capsys, "sweep", "--family", "su", "--n", "2", "--format", "csv", "--jobs", "1"
        )
        body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        rows = list(csv.DictReader(io.StringIO(body)))
        omegas = [tuple(int(v) for v in r["omega"].split(",")) for r in rows]
        assert omegas == sorted(omegas)
        dims = {int(r["dim_h2"]) for r in rows}
        assert dims == {0, 1, 3}

    def test_sq_sweep_all_zero_dims(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--family", "sq", "--n", "1", "--format", "json", "--jobs", "1"
        )
        payload = json.loads(out)
        assert code == 0
        assert all(row["dim_h2"] == 0 for row in payload["rows"])
        assert payload["summary"] == {"cases": 3, "mismatches": 0}

    def test_parallel_jobs_match_serial(self, capsys):
        _, serial, _ = run(
            capsys, "sweep", "--family", "so", "--n", "2", "--format", "json", "--jobs", "1"
        )
        _, parallel, _ = run(
            capsys, "sweep", "--family", "so", "--n", "2", "--format", "json", "--jobs", "2"
        )
        assert serial == parallel

    @staticmethod
    def fake_pool(monkeypatch, cpus):
        # A recording stand-in for Pool where this process may run on `cpus`
        # of the machine's 64 CPUs, or where neither call can say (None): no
        # process is started.
        asked = []

        class FakePool:
            def __init__(self, processes):
                asked.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, tasks):
                return [fn(*t) for t in tasks]

        monkeypatch.setattr("multiprocessing.Pool", FakePool)
        if cpus is None:
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        return asked

    def test_workers_capped_at_cases(self, monkeypatch):
        asked = self.fake_pool(monkeypatch, cpus=64)
        rows = sweep_rows("so", 1, jobs=8)
        # so N=1 has 3 sign patterns but 2 zero sets, and only those are solved.
        assert asked == [2]
        assert rows == sweep_rows("so", 1, jobs=1)

    def test_bool_n_rejected_after_n_1_is_cached(self):
        # sweep_rows("so", True) once returned the 3 rows of N = 1; every
        # cache keyed on N is typed, so a warm N = 1 does not serve it.
        assert len(sweep_rows("so", 1)) == 3
        with pytest.raises(TypeError, match="n must be an int, got bool"):
            sweep_rows("so", True)

    @pytest.mark.parametrize("cpus,expected", [(4, [4]), (None, []), (1, [])])
    def test_workers_capped_at_cpus(self, monkeypatch, cpus, expected):
        # An unknown CPU count counts as one, and one worker runs serially.
        # so N=3 solves 6 reversal orbits, more than the 4 CPUs.
        asked = self.fake_pool(monkeypatch, cpus=cpus)
        rows = sweep_rows("so", 3, jobs=5000)
        assert asked == expected
        assert rows == sweep_rows("so", 3, jobs=1)

    def test_without_affinity_call_workers_capped_at_cpu_count(self, monkeypatch):
        asked = self.fake_pool(monkeypatch, cpus=None)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        sweep_rows("so", 3, jobs=5000)
        assert asked == [3]

    @pytest.mark.parametrize("cpus,expected", [(1, []), (3, [3])])
    def test_default_jobs_are_the_cpus_this_process_may_use(self, monkeypatch, capsys, cpus, expected):
        # Pinned to one CPU of many, a default sweep runs serially.
        asked = self.fake_pool(monkeypatch, cpus=cpus)
        _, out, _ = run(capsys, "sweep", "--family", "so", "--n", "3", "--format", "csv")
        assert asked == expected
        _, serial, _ = run(capsys, "sweep", "--family", "so", "--n", "3", "--format", "csv", "--jobs", "1")
        assert out == serial

    @pytest.mark.parametrize(
        "family,n",
        [*(("so", n) for n in range(1, 6)), *((f, n) for f in ("su", "u", "sq") for n in (1, 2, 3))],
    )
    def test_rows_equal_per_pattern_solves(self, family, n):
        # The sweep solves one pattern per reversal orbit of zero sets;
        # solving every pattern must give the same rows, in the same order.
        expected = [cli.run_case(family, signs) for signs in product((-1, 0, 1), repeat=n)]
        assert sweep_rows(family, n) == expected

    def test_certificate_once_per_sweep(self, monkeypatch, capsys):
        calls = []
        real = classify.certify_rescaling

        def counting(family, n):
            calls.append((family, n))
            return real(family, n)

        monkeypatch.setattr(classify, "certify_rescaling", counting)
        code, _, _ = run(
            capsys, "sweep", "--family", "su", "--n", "3", "--format", "csv", "--jobs", "1"
        )
        assert code == 0 and calls == [("su", 3)]

    @pytest.mark.parametrize("family,signs", [("so", (0, 0, 1, 0)), ("su", (0, 1, 0))])
    def test_rows_need_no_basis_and_no_fraction(self, monkeypatch, family, signs):
        # A sweep row reads only dims and catalog verdicts: the kernel's RREF
        # and integer reduction give them, with no nullspace and no Fraction
        # made in the solver.
        expected = cli.run_case(family, signs)

        def forbidden(*args, **kwargs):
            raise AssertionError("a sweep row must not build a basis or a Fraction")

        for name in ("_nullspace", "Fraction"):
            monkeypatch.setattr(cohomology, name, forbidden)
        assert cli.run_case(family, signs) == expected
        assert expected["match"] and expected["dim_h2"] > 0

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys,
            "sweep", "--family", "so", "--n", "1",
            "--format", "csv", "--jobs", "1", "--out", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("family,N,omega")


class TestVerify:
    def test_so_contracted_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "so", "--omega", "0,0,1")
        assert code == 0
        checks = json.loads(out)["checks"]
        assert checks["antihermitian"] == "pass"
        assert checks["jacobi"] == "pass"
        assert checks["pseudoextension_removal"] == "pass"
        assert checks["traceless"] == "skipped"

    def test_su_includes_traceless(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "su", "--omega", "1,1")
        assert code == 0
        assert json.loads(out)["checks"]["traceless"] == "pass"

    def test_u_traceless_skips_phase(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "u", "--omega", "1")
        assert code == 0
        assert json.loads(out)["checks"]["traceless"] == "pass"

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "sq", "--omega", "0", "--format", "text"
        )
        assert code == 0
        assert "ok" in out

    def test_matrix_check_is_from_matrices(self, capsys, monkeypatch):
        # The matrix route has one entry point; verify builds the generators
        # for its own checks and again inside it, once.
        calls = []
        route = lie_core.from_matrices

        def counting(family, omega, pairs=None):
            calls.append((family, omega))
            return route(family, omega, pairs)

        monkeypatch.setattr(lie_core, "from_matrices", counting)
        code, out, _ = run(capsys, "verify", "--family", "so", "--omega=1,0,1")
        assert code == 0
        assert json.loads(out)["checks"]["closure_matrix_match"] == "pass"
        assert calls == [("so", OmegaVector([1, 0, 1]))]

    def test_coboundary_rows_built_once(self, monkeypatch):
        # The removal identities read the solver's integer delta(e_k) rows,
        # built once; the coboundaries-are-cocycles verdict is the solver's
        # Lie certificate and reads none.  Neither builds the Z2 basis, the
        # only place the solver makes Fractions.
        calls = []
        real = cohomology.CohomologySolver.coboundary_rows

        def counting(solver):
            calls.append(solver)
            return real(solver)

        def refuse(solver):
            raise AssertionError("verify built the Z2 basis")

        monkeypatch.setattr(cohomology.CohomologySolver, "coboundary_rows", counting)
        monkeypatch.setattr(cohomology.CohomologySolver, "z2_basis", refuse)
        omega = OmegaVector.coerce([1] * 5)
        checks = cli.verify_case("so", omega)
        assert checks["coboundaries_are_cocycles"] == checks["pseudoextension_removal"] == "pass"
        assert len(removals(predict("so", omega))) == 5
        assert len(calls) == 1

    # Non-unit rationals: the constants' denominators have lcm d = 6, so
    # each solver row is 6 * delta(e_g).
    RATIONAL_SO = ("2/3", "-5", "1", "-1/2")

    def test_doubled_shift_coefficient_fails(self, monkeypatch, capsys):
        # alphaL[0,1] with twice its shift coefficient: delta(e_J(0,1)) no
        # longer equals the sum of c * xi, and verify must say so.
        real = classify._catalog_shape
        monomials, rows = real("so", 4)
        doubled = []
        for name, ext_type, factors, slots, shift in rows:
            if name == "alphaL[0,1]":
                coef, ks = monomials[shift[1]]
                shift = (shift[0], len(monomials))
                monomials = (*monomials, (2 * coef, ks))
            doubled.append((name, ext_type, factors, slots, shift))
        mutant = (monomials, tuple(doubled))
        monkeypatch.setattr(
            classify, "_catalog_shape", lambda f, n: mutant if (f, n) == ("so", 4) else real(f, n)
        )
        assert lie_core.build_algebra("so", self.RATIONAL_SO).scale == 6
        omega = ",".join(self.RATIONAL_SO)
        code, out, _ = run(capsys, "verify", "--family", "so", f"--omega={omega}", "--format", "text")
        assert code == 1
        assert "pseudoextension_removal: fail" in out.splitlines()

    def test_removal_check_needs_the_scale(self, monkeypatch):
        # The identities hold on the real catalog, but only against d * rhs:
        # the same check with d = 1 fails.
        omega = OmegaVector.coerce(self.RATIONAL_SO)
        assert cli.verify_case("so", omega)["pseudoextension_removal"] == "pass"

        def unscaled(family, omega):
            L = lie_core.build_algebra(family, omega)
            L.integer_constants()  # the coboundary rows keep the real d
            L.scale = 1
            return L

        monkeypatch.setattr(cli, "build_algebra", unscaled)
        assert cli.verify_case("so", omega)["pseudoextension_removal"] == "fail"

    def test_coboundaries_fail_on_a_broken_bracket(self, monkeypatch):
        # Negating one constant of so N=3 breaks Jacobi, so some delta(e_k)
        # is no longer a cocycle.
        def corrupted(family, omega):
            L = lie_core.build_algebra(family, omega)
            pair = min(L.constants)
            terms = {k: -c for k, c in L.constants[pair].items()}
            return lie_core.LieAlgebra(L.family, L.omega, L.basis, {**L.constants, pair: terms})

        monkeypatch.setattr(cli, "build_algebra", corrupted)
        checks = cli.verify_case("so", OmegaVector.coerce([1, 1, 1]))
        assert checks["jacobi"] == checks["coboundaries_are_cocycles"] == "fail"

    def test_coboundaries_fail_exactly_on_non_lie_tables(self, monkeypatch):
        # The seeded random tables of dims 3 and 6, on the so bases of N = 2
        # and 3: the verdict, the solver's Lie certificate, must be "fail"
        # exactly where the all-triples Jacobi oracle fails.
        omegas = {3: OmegaVector.coerce([1, 1]), 6: OmegaVector.coerce([1, 1, 1])}
        verdicts = {True: 0, False: 0}
        for constants, T in random_tables(400):
            if T.dim in omegas:
                omega = omegas[T.dim]
                L = lie_core.LieAlgebra("so", omega, labels_for_family("so", omega.n), constants)
                monkeypatch.setattr(cli, "build_algebra", lambda family, omega: L)
                lie = oracle_jacobi(L)
                checks = cli.verify_case("so", omega)
                assert checks["coboundaries_are_cocycles"] == ("pass" if lie else "fail"), constants
                verdicts[lie] += 1
        assert verdicts == {True: 60, False: 104}

    # sha256 of the output recorded before the catalog entries carried their
    # own slots and removal shifts; pins every check's verdict.
    @pytest.mark.parametrize(
        "family,omega,fmt,digest",
        [
            ("so", "1", "json", "f7a6b274c19f746505ca65461ff6259fe37d97b918020d6ac4faee5109cadccd"),
            ("so", "1", "text", "c6c8f0d7fd89f27f6eed7c97c59420bc1b91341a78b86f470065b25c8d360126"),
            ("so", "1,1,1", "json", "8705ee413ab3fdfbb0c227d47830aed62ff21325caa68182ed39d10a05de0bdd"),
            ("so", "1,1,1", "text", "436bba46030dc4c1503e8b95754a0832a72f00546c02824ea905073a534d5250"),
            ("so", "0,1,0", "json", "907ff13180d87fa1e1559256d4f1296b1466fdc8543bab31fc9d1f83c53a5cb5"),
            ("so", "0,1,0", "text", "3ae541ce81a30d585d1bcd893a97d41858a68b913084e5af45fd75af9c00574f"),
            ("so", "2/3,-5,1,-1/2", "json",
             "4cf147ecf8e88814cc74a65bf8f043e3ae1f40833f12ba78561efaed24b667a9"),
            ("so", "2/3,-5,1,-1/2", "text",
             "55d2461c188c8c908ee80aae37c7d199a8128ef0a9c33e1c508fa26f085d6846"),
            ("su", "2/3,1", "json", "4f497dedcd276b89963e6ad65c54edc33979887ae83aa5704fd49510daa03d3b"),
            ("su", "2/3,1", "text", "5ebd16672e1835466cf6b3013e1f0f2604db04a588dafe7ff93e988fcea3939a"),
            ("u", "1,0", "json", "96353052407f84dd674dffcb6779a85d432505e15218fcfc03a27ba6f7d71880"),
            ("u", "1,0", "text", "893901e745c759f59fcef4f12cad2a1895170f1c0b6fd7d63cb4ff641318bb05"),
            ("sq", "1,1", "json", "b0a2e011f1d10b2e09a16f09c2ff16bb43a9622e25f4c25ccd776d03d20eb6cf"),
            ("sq", "1,1", "text", "959c8e23121c22148b4adfb5d6e55884c869f33fe45bc33e0e627dc995e97f47"),
        ],
    )
    def test_output_digest(self, capsys, family, omega, fmt, digest):
        code, out, _ = run(capsys, "verify", "--family", family, f"--omega={omega}", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestOneGeneratorSet:
    # `verify_jacobi`, `matrix_match` and the cocycle system each read
    # `LieAlgebra.generators()`: structure reads it twice, h2 once and verify
    # three times, all on one algebra, and every read returns the one list
    # that algebra computed.
    @pytest.mark.parametrize("command,reads", [("structure", 2), ("h2", 1), ("verify", 3)])
    def test_computed_once_per_algebra(self, monkeypatch, capsys, command, reads):
        real = lie_core.LieAlgebra.generators
        read = []

        def recording(L):
            gens = real(L)
            read.append((L, gens))
            return gens

        monkeypatch.setattr(lie_core.LieAlgebra, "generators", recording)
        code, _, _ = run(capsys, command, "--family", "su", "--omega=1,0,1")
        assert code == 0 and len(read) == reads
        (L, gens), *rest = read
        assert all(M is L and other is gens for M, other in rest)


class TestArgumentValidation:
    def test_unknown_family_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["h2", "--family", "sp", "--omega", "1"])
        assert exc.value.code == 2

    def test_missing_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("omega", ["\u0661,1", "\uff11,1", "1,1/\u0662"])
    def test_non_ascii_digits_exit_2(self, capsys, omega):
        # Arabic-Indic and full-width digits are decimal digits to int(); the
        # omega syntax takes ASCII digits only.
        code, out, err = run(capsys, "h2", "--family", "so", f"--omega={omega}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad --omega value: not a rational")

    def test_bad_jobs(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--family", "so", "--n", "2", "--jobs", "0"
        )
        assert code == 2

    @pytest.mark.parametrize("n", [14, 30])
    def test_oversized_sweep_is_refused_before_any_work(self, capsys, monkeypatch, n):
        # certify_rescaling is the first thing a sweep does; refusing it keeps
        # this test from allocating anything if the size check is missing.
        def refuse(*args):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(classify, "certify_rescaling", refuse)
        code, out, err = run(capsys, "sweep", "--family", "so", "--n", str(n), "--jobs", "1")
        assert (code, out) == (2, "")
        assert err == f"error: sweep --n must be <= 13, got {n}\n"

    def test_largest_sweep_passes_the_size_check(self):
        args = cli.build_parser().parse_args(["sweep", "--family", "so", "--n", "13"])
        cli._check_size(args)
        assert args.n == 13

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_out(self, capsys, tmp_path, where):
        target = tmp_path / "no" / "such" / "x.json" if where == "missing_dir" else tmp_path
        code, out, err = run(
            capsys, "h2", "--family", "so", "--omega", "1", "--out", str(target)
        )
        assert code == 2
        assert err.startswith(f"error: cannot write --out {target}")
        assert out == ""

    # B = 10**3000 parses within the interpreter's 4300-digit limit for int
    # <-> str conversion, but each of these prints B**2, which exceeds it and
    # once ended the command with a traceback and exit 1.
    BIG = "1" + "0" * 3000

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize(
        "command,family,omega",
        [
            ("generators", "so", "B,B"),
            ("structure", "so", "B,B,1"),
            ("h2", "su", "0,B,B,0"),
            ("h2", "so", "0,0,B,B,0"),
        ],
    )
    def test_large_coefficients_print_exact_digits(self, capsys, command, family, omega, fmt):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        omega = omega.replace("B", self.BIG)
        code, out, err = run(capsys, command, "--family", family, f"--omega={omega}", "--format", fmt)
        assert (code, err) == (0, "")
        assert re.search(r"(?<!\d)-?1" + "0" * 6000 + r"(?!\d)", out)
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no digit limit"
    )
    def test_coefficient_over_the_digit_limit_is_an_input_error(self, capsys):
        # The limit is lifted for the output only: the parser still keeps it,
        # and names it in the command's terms, not the interpreter's API.
        limit = sys.get_int_max_str_digits()
        digits = "7" * (limit + 1)
        for omega in (f"1,{digits}", f"1,-{digits}", f"1,1/{digits}"):
            code, out, err = run(capsys, "structure", "--family", "so", f"--omega={omega}")
            assert (code, out) == (2, "")
            assert err == (
                f"error: bad --omega value: a coefficient has {limit + 1} digits; "
                f"at most {limit} are allowed\n"
            )
            assert "sys." not in err
        code, _, err = run(capsys, "structure", "--family", "so", f"--omega=1,-{digits[1:]}")
        assert (code, err) == (0, "")

    def test_parser_surface(self):
        # Every subcommand's options and formats; --jobs is sweep's alone.
        parser = cli.build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        surface = {
            name: (
                {s for a in p._actions for s in a.option_strings},
                next(a.choices for a in p._actions if "--format" in a.option_strings),
            )
            for name, p in sub.choices.items()
        }
        one_case = {"-h", "--help", "--family", "--omega", "--n", "--format", "--out"}
        assert surface == {
            "generators": (one_case, ("json", "text")),
            "structure": (one_case, ("json", "text")),
            "h2": (one_case, ("json", "text")),
            "sweep": (
                {"-h", "--help", "--family", "--n", "--jobs", "--format", "--out"},
                ("json", "csv", "text"),
            ),
            "verify": (one_case, ("json", "text")),
        }
        assert {s for a in parser._actions for s in a.option_strings} == {"-h", "--help"}

    def test_corpus_digests_cover_every_command_and_format(self):
        # tools/corpus_digests.py checks the output bytes of each (command,
        # --format) pair it records; a pair the parser offers but the tool
        # does not record would skip that check.
        path = Path(__file__).resolve().parent.parent / "tools" / "corpus_digests.py"
        spec = importlib.util.spec_from_file_location("corpus_digests", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        offered = {
            (name, fmt)
            for name, p in sub.choices.items()
            for a in p._actions
            if "--format" in a.option_strings
            for fmt in a.choices
        }
        assert set(tool.RECORDED) == offered
        assert len(offered) == 11


class TestOutFile:
    """--out FILE writes exactly the bytes stdout gets, prints nothing and
    keeps the exit code."""

    def test_input_error_leaves_out_alone(self, capsys, tmp_path):
        # --out is opened only once the command has computed.
        existing, missing = tmp_path / "existing", tmp_path / "missing"
        existing.write_bytes(b"kept\n")
        for target in (existing, missing):
            code, out, err = run(
                capsys, "h2", "--family", "so", "--omega", "1,x", "--out", str(target)
            )
            assert (code, out) == (2, "") and err.startswith("error: bad --omega value")
        assert existing.read_bytes() == b"kept\n"
        assert not missing.exists()

    @staticmethod
    def stdout_and_file(capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv)
        target = tmp_path / "out"
        assert run(capsys, *argv, "--out", str(target)) == (code, "", "")
        assert target.read_bytes() == out.encode("utf-8")
        return code, out, err

    @pytest.mark.parametrize(
        "command,fmt",
        [
            *((c, f) for c in ("generators", "structure", "h2", "verify") for f in ("json", "text")),
            *(("sweep", f) for f in ("json", "csv", "text")),
        ],
    )
    def test_same_bytes_as_stdout(self, capsys, tmp_path, command, fmt):
        size = ["--n", "2", "--jobs", "1"] if command == "sweep" else ["--omega=0,1"]
        code, out, err = self.stdout_and_file(
            capsys, tmp_path, [command, "--family", "su", *size, "--format", fmt]
        )
        assert (code, err) == (0, "") and out

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_same_bytes_on_a_failed_check(self, capsys, tmp_path, monkeypatch, fmt):
        TestStructure.negate_one_constant(monkeypatch)
        code, out, err = self.stdout_and_file(
            capsys, tmp_path, ["structure", "--family", "so", "--omega", "1,1", "--format", fmt]
        )
        assert (code, err) == (1, "")
        assert "matrix_match" in out


class TestImport:
    def test_cli_import_leaves_multiprocessing_unloaded(self):
        # Only a parallel sweep needs multiprocessing; every launch pays for
        # what `import cklie.cli` loads.
        run_fresh("-c", "import cklie.cli, sys; assert 'multiprocessing' not in sys.modules")

    def test_structure_loads_no_dataclasses_cohomology_or_classify(self):
        # Every launch compiles the package modules it imports, so a command
        # that never solves for H2 must not load the solver or the catalog;
        # no record needs dataclasses.  structure runs the matrix route, so
        # this also proves that the route shares no code with the
        # elimination kernel, which lives in cohomology.  h2 then loads both
        # and gives the digest recorded before they were loaded on demand.
        script = """
import contextlib, hashlib, io, json, sys
import cklie.cli
heavy = ("dataclasses", "cklie.cohomology", "cklie.classify")
loaded = {"import": [m for m in heavy if m in sys.modules]}
with contextlib.redirect_stdout(io.StringIO()):
    code = cklie.cli.main(["structure", "--family", "so", "--omega=1,0,1"])
loaded["structure"] = [m for m in heavy if m in sys.modules]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    h2_code = cklie.cli.main(["h2", "--family", "so", "--omega=1,0,1"])
loaded["h2"] = [m for m in heavy if m in sys.modules]
digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
print(json.dumps([code, h2_code, digest, loaded]))
"""
        code, h2_code, digest, loaded = json.loads(run_fresh("-c", script))
        assert code == 0 and h2_code == 0
        assert loaded == {
            "import": [],
            "structure": [],
            "h2": ["cklie.cohomology", "cklie.classify"],
        }
        assert digest == "aa4c78bcff7094bea372e62fe8d6d5876364ccf842e6239d70e3fb5d470e9eb6"


class TestTraceWrapper:
    """perfbench/trace_cli.py wraps each layer's entry points by name; a
    change to those names or to what they return must keep it working."""

    TRACE_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "trace_cli.py"

    @pytest.mark.parametrize(
        "argv",
        [
            ["h2", "--family", "so", "--omega=0,1,1"],
            ["sweep", "--family", "su", "--n", "2", "--jobs", "1", "--format", "csv"],
        ],
    )
    def test_traced_run_prints_the_same_and_counts_each_layer(self, tmp_path, argv):
        spans_path = tmp_path / "spans.json"
        traced = run_fresh(str(self.TRACE_CLI), str(spans_path), *argv)
        assert traced == run_fresh("-m", "cklie.cli", *argv)
        spans = json.loads(spans_path.read_text(encoding="utf-8"))
        counts = {}
        for name, _, _, _, count, _ in spans:
            if count:
                counts.setdefault(name, []).append(count)
        assert counts["classify.crosscheck"]
        assert all(c["catalog_entries"] > 0 for c in counts["classify.crosscheck"])
        assert counts["cohomology.system"]
        for c in counts["cohomology.system"]:
            assert set(c) == {"unknowns", "equations", "nonzeros"} and c["unknowns"] > 0
