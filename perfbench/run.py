#!/usr/bin/env python3
"""Benchmark of the ``cklie`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  Every command is the real CLI,
``python -m cklie.cli ...`` with ``PYTHONPATH=src``, started in a fresh
process.  Commands run one after another from this single process, which
keeps itself and them on one CPU, and every sweep pins ``--jobs 1``, so a run
needs one core.

A run makes one untimed warm-up pass over the workload's commands, so that
``.pyc`` compilation and first-import cost stay out of the timings, and then
runs them again, round-robin, while the next one fits in ``--seconds``.  It is
a closed loop: each command starts when the previous one has exited.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: wall time of one pass over the workload's commands run back to
  back, as the sum of each command's mean wall time over the run, scaled to
  the reference pace (below);
* ``peak_rss_mb``: peak RSS of the largest CLI process of the workload, the
  median over its runs;
* ``setup_s``: wall time of a fresh interpreter that imports ``cklie.cli``,
  the fixed cost every CLI call pays; the median of one launch after each
  measured command, scaled to the reference pace.

The speed of a shared host drifts by tens of percent over seconds to
minutes, and every kind of Python work slows by about the same ratio.  So
after each measured command the benchmark also runs fixed chunks of
pure-Python work in its own process (the pace) for half the command's wall
time, and scales both times by ``REFERENCE_CHUNK_S`` over the run's mean
chunk time: a run made while the host is slow then reads close to one made
while it is fast.  The pace does not touch ``cklie``, so a change to the
program moves the scaled times by the same ratio as the raw ones.  The raw
times are printed too, with the median, extremes and count of whole-pass
walls.

``--trace 1`` alternates untraced passes with passes that run each command
through ``perfbench/trace_cli.py``, which times calls into each layer's
public entry points, and reports the per-layer metrics (medians over the
traced passes).  ``trace.overhead_s`` is traced minus untraced pass wall;
``trace.coverage`` is the summed self time of all spans over the traced wall.

Every answer is checked.  Seed-independent commands must reproduce the
output digests in ``perfbench/reference.json`` byte for byte; they were
recorded when the benchmark was added, and the project promises identical
output bytes for identical inputs.  Seeded
commands must exit 0, report ``match``/``jacobi_ok``/``matrix_match`` true
and repeat the warm-up output exactly; each seeded ``h2`` case must give the
same dims as its sign pattern (every entry replaced by -1, 0 or 1), because
a positive rescaling of omega gives an isomorphic algebra.  A command that
fails any check counts in ``failed`` (``failed_frac`` = failed / attempted).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
TRACE_CLI = HERE / "trace_cli.py"
SCRATCH = ROOT / ".perfbench_tmp"

COMMAND_TIMEOUT_S = 60

# Time spent on pace chunks after each command, as a share of its wall time.
# The host's speed varies from one second to the next, so the pace needs a
# good part of the run to estimate its mean as well as the commands do.
PACE_SHARE = 0.5
# A pace chunk's typical time on a 2-vCPU Intel Xeon VM under CPython 3.11,
# so that scaled times read close to seconds there.
REFERENCE_CHUNK_S = 0.008

# Why each workload: each puts most of its time in one layer and little in
# another, so a change to one layer has a workload that exercises it and one
# that should not move.
#   sweep-acceptance  306 small algebras (<= 210 unknowns): per-case fixed
#                     costs (build, assembly, crosscheck, orchestration) and
#                     small eliminations; the matrix route never runs.
#   h2-large          about 90% exact elimination; the seeded rational cases
#                     make the integers grow.  The matrix route never runs.
#   structure-large   matrix route (from_matrices) and Jacobi, plus 77-240 KB
#                     of JSON per command; no cohomology runs.
WORKLOADS = ("sweep-acceptance", "h2-large", "structure-large")

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "lie_core.build_algebra.s": "s",
    "lie_core.constants": "count",
    "lie_core.from_matrices.s": "s",
    "lie_core.from_matrices.pairs": "count",
    "lie_core.verify_jacobi.s": "s",
    "lie_core.verify_jacobi.triples": "count",
    "cohomology.system.s": "s",
    "cohomology.unknowns": "count",
    "cohomology.equations": "count",
    "cohomology.nonzeros": "count",
    "cohomology.result.s": "s",
    "classify.crosscheck.s": "s",
    "classify.catalog_entries": "count",
    "cli.run_case.ms_p50": "ms",
    "cli.run_case.ms_p95": "ms",
    "cli.self.s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


@dataclass(frozen=True)
class Command:
    label: str
    args: tuple[str, ...]
    # For a seeded h2 case: the h2 arguments of its sign pattern.
    signs: tuple[str, ...] | None = None
    seeded: bool = False


@dataclass
class Outcome:
    returncode: int
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    spans: list | None = None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def seeded_omega(seed: int, case: str, n: int, zero_at: int | None = None) -> list[Fraction]:
    """n rationals p/q with p <= 13, q <= 9 and |p/q| != 1, and a zero at
    index `zero_at`.  Each case draws from its own stream of the seed."""
    rng = random.Random(f"{seed}:{case}")
    values = []
    while len(values) < n:
        value = Fraction(rng.randint(1, 13), rng.randint(1, 9)) * rng.choice((-1, 1))
        if abs(value) != 1:
            values.append(value)
    if zero_at is not None:
        values[zero_at] = Fraction(0)
    return values


def omega_arg(values) -> str:
    # The `=` form: a bare `--omega -3/4,...` is read by argparse as a flag.
    return "--omega=" + ",".join(str(v) for v in values)


def sign_pattern(values: list[Fraction]) -> list[int]:
    return [(v > 0) - (v < 0) for v in values]


def workload_commands(name: str, seed: int) -> list[Command]:
    if name == "sweep-acceptance":
        return [
            Command(f"sweep {family} n={n}",
                    ("sweep", "--family", family, "--n", str(n), "--format", "csv", "--jobs", "1"))
            for family, n in (("so", 5), ("su", 3), ("u", 3), ("sq", 2))
        ]
    if name == "h2-large":
        su6 = seeded_omega(seed, "h2 su N=6", 6, zero_at=2)
        so8 = seeded_omega(seed, "h2 so N=8", 8)
        return [
            Command("h2 so N=10 ones", ("h2", "--family", "so", omega_arg([1] * 10))),
            Command("h2 su N=6 seeded", ("h2", "--family", "su", omega_arg(su6)),
                    signs=("h2", "--family", "su", omega_arg(sign_pattern(su6))), seeded=True),
            Command("h2 so N=8 seeded", ("h2", "--family", "so", omega_arg(so8)),
                    signs=("h2", "--family", "so", omega_arg(sign_pattern(so8))), seeded=True),
        ]
    if name == "structure-large":
        sq5 = seeded_omega(seed, "structure sq N=5", 5)
        return [
            Command("structure so N=10 ones", ("structure", "--family", "so", omega_arg([1] * 10))),
            Command("structure su N=7 ones", ("structure", "--family", "su", omega_arg([1] * 7))),
            Command("structure sq N=5 seeded", ("structure", "--family", "sq", omega_arg(sq5)),
                    seeded=True),
        ]
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# running the CLI
# ---------------------------------------------------------------------------


class Runner:
    """Starts CLI processes one at a time and collects their output and usage."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def launch(self, argv: list[str]) -> Outcome:
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        # wait4 has reaped the child; record that so Popen does not wait again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(proc.returncode, wall, usage.ru_maxrss / 1024,
                       out_path.read_bytes(), err_path.read_bytes())

    def cli(self, args, traced: bool = False) -> Outcome:
        if not traced:
            return self.launch([sys.executable, "-m", "cklie.cli", *args])
        spans_path = self.workdir / "spans.json"
        spans_path.unlink(missing_ok=True)
        outcome = self.launch([sys.executable, str(TRACE_CLI), str(spans_path), *args])
        if spans_path.exists():
            outcome.spans = json.loads(spans_path.read_text(encoding="utf-8"))
        return outcome

    def setup_time(self) -> float:
        """Wall time of a fresh interpreter importing cklie.cli."""
        outcome = self.launch([sys.executable, "-c", "import cklie.cli"])
        if outcome.returncode != 0:
            raise SystemExit(f"import cklie.cli failed: {outcome.stderr.decode(errors='replace')}")
        return outcome.wall_s


def pace_chunk() -> None:
    """A fixed piece of exact arithmetic, dict and list work, the kinds of
    work the CLI does, without calling it."""
    total = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for i in range(1, 2500):
        total += Fraction(i % 13 + 1, i % 9 + 1)
        key = (i % 97, i % 7)
        table[key] = table.get(key, 0) + i
    rows = [[i * j for j in range(30)] for i in range(30)]
    for row in rows:
        for j in range(30):
            row[j] = (row[j] * 7 + 3) % 1000003


def pace(seconds: float) -> tuple[int, float]:
    """Runs pace chunks for at least `seconds`; returns their count and time."""
    start = time.perf_counter()
    chunks = 0
    while True:
        pace_chunk()
        chunks += 1
        spent = time.perf_counter() - start
        if spent >= seconds:
            return chunks, spent


# ---------------------------------------------------------------------------
# exactness gate
# ---------------------------------------------------------------------------


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dims(payload: dict) -> tuple[int, int, int]:
    return payload["dim_z2"], payload["dim_b2"], payload["dim_h2"]


class Gate:
    """Decides whether one command's output is exact."""

    def __init__(self, reference: dict[str, str]):
        self.reference = reference
        self.warm: dict[str, bytes] = {}
        self.sign_dims: dict[str, tuple[int, int, int] | str] = {}

    def learn_signs(self, cmd: Command, outcome: Outcome) -> None:
        """Record the dims of a seeded h2 case's sign pattern, or why they are missing."""
        reason = flag_failure(cmd.signs, outcome)
        self.sign_dims[cmd.label] = reason or dims(json.loads(outcome.stdout))

    def failure(self, cmd: Command, outcome: Outcome) -> str | None:
        """Why the output is wrong, or None when it is exact."""
        reason = flag_failure(cmd.args, outcome)
        if reason:
            return reason
        if not cmd.seeded:
            if self.reference.get(cmd.label) != digest(outcome.stdout):
                return "output differs from the reference digest"
        elif cmd.label in self.warm:
            if self.warm[cmd.label] != outcome.stdout:
                return "output differs from the warm-up run"
        if cmd.signs is not None:
            expected = self.sign_dims.get(cmd.label, "sign pattern not run")
            if isinstance(expected, str):
                return f"sign pattern: {expected}"
            got = dims(json.loads(outcome.stdout))
            if got != expected:
                return f"dims {got} differ from the sign pattern's {expected}"
        return None


def flag_failure(args, outcome: Outcome) -> str | None:
    """Exit status and the verdict flags the command reports itself."""
    if outcome.returncode != 0:
        tail = outcome.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return " ".join([f"exit {outcome.returncode}", *tail])
    if args[0] == "sweep":
        lines = outcome.stdout.splitlines()
        if not lines or not lines[-1].endswith(b" mismatches=0"):
            return "sweep reports mismatches"
        return None
    try:
        payload = json.loads(outcome.stdout)
    except ValueError:
        return "output is not JSON"
    flags = ("match",) if args[0] == "h2" else ("jacobi_ok", "matrix_match")
    for flag in flags:
        if payload.get(flag) is not True:
            return f"{flag} is not true"
    return None


def self_check(runner: Runner, gate: Gate, commands: list[Command], warm: list[Outcome]) -> None:
    """The gate must refuse a tampered digest and the bare negative-omega form."""
    for cmd, outcome in zip(commands, warm):
        if not cmd.seeded:
            tampered = Gate({**gate.reference, cmd.label: digest(outcome.stdout + b"\n")})
            if tampered.failure(cmd, outcome) is None:
                raise SystemExit("self-check failed: a tampered digest passed the gate")
            break
    bare = ("h2", "--family", "so", "--omega", "-3/4,1")
    if gate.failure(Command("bare omega", bare, seeded=True), runner.cli(bare)) is None:
        raise SystemExit("self-check failed: the bare --omega form passed the gate")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def layer_split(spans: list) -> tuple[dict[str, float], dict[str, int], list[float]]:
    """Self time per span name, summed counts, and run_case durations in ms."""
    covered = [0.0] * len(spans)
    for name, parent, start, end, _, counting in spans:
        if parent is not None:
            covered[parent] += (end - start) + counting
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    run_case_ms = []
    for (name, _, start, end, found, _), inner in zip(spans, covered):
        self_s[name] += (end - start) - inner
        for key, value in (found or {}).items():
            counts[key] += value
        if name == "cli.run_case":
            run_case_ms.append((end - start) * 1000)
    return self_s, counts, run_case_ms


def per_layer(outcomes: list[Outcome]) -> dict[str, float]:
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    run_case_ms: list[float] = []
    for outcome in outcomes:
        s, c, r = layer_split(outcome.spans or [])
        for key, value in s.items():
            self_s[key] += value
        for key, value in c.items():
            counts[key] += value
        run_case_ms += r
    wall = sum(o.wall_s for o in outcomes)
    return {
        "lie_core.build_algebra.s": self_s["lie_core.build_algebra"],
        "lie_core.constants": counts["constants"],
        "lie_core.from_matrices.s": self_s["lie_core.from_matrices"],
        "lie_core.from_matrices.pairs": counts["pairs"],
        "lie_core.verify_jacobi.s": self_s["lie_core.verify_jacobi"],
        "lie_core.verify_jacobi.triples": counts["triples"],
        "cohomology.system.s": self_s["cohomology.system"],
        "cohomology.unknowns": counts["unknowns"],
        "cohomology.equations": counts["equations"],
        "cohomology.nonzeros": counts["nonzeros"],
        "cohomology.result.s": self_s["cohomology.result"],
        "classify.crosscheck.s": self_s["classify.crosscheck"],
        "classify.catalog_entries": counts["catalog_entries"],
        "cli.run_case.ms_p50": statistics.median(run_case_ms) if run_case_ms else 0.0,
        "cli.run_case.ms_p95": percentile(run_case_ms, 95) if run_case_ms else 0.0,
        "cli.self.s": self_s["cli.main"] + self_s["cli.run_case"],
        "cli.output_bytes": sum(len(o.stdout) for o in outcomes),
        "trace.coverage": sum(self_s.values()) / wall,
    }


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"n={n}; a tail percentile needs at least 11 samples"
    p = (100 * (n - 10)) // n
    return f"n={n}; p{p} {percentile(values, p):.4f}"


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------


def commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def metadata(seed: int) -> dict:
    files = sorted(SRC.rglob("*.py"))
    return {
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "commit": commit(),
        "seed": seed,
        "src_lines": sum(len(f.read_bytes().splitlines()) for f in files),
        "src_sha256": digest(b"".join(f.read_bytes() for f in files)),
    }


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run_command(runner: Runner, gate: Gate, cmd: Command, traced: bool,
                failures: list[str]) -> Outcome:
    outcome = runner.cli(cmd.args, traced=traced)
    reason = gate.failure(cmd, outcome)
    if reason:
        failures.append(f"{cmd.label}: {reason}")
    return outcome


def end_to_end(runner: Runner, gate: Gate, commands: list[Command], deadline: float,
               failures: list[str]) -> tuple[dict[str, float], int]:
    """Runs the commands round-robin, untraced, while the next one fits before
    the deadline; returns the end-to-end metrics and the commands attempted.

    After each command come one set-up launch and the pace chunks for
    PACE_SHARE of the command's wall time, so that the pace samples the host
    in proportion to the time the commands saw it.
    """
    walls: dict[str, list[float]] = {cmd.label: [] for cmd in commands}
    rss: dict[str, list[float]] = {cmd.label: [] for cmd in commands}
    setup: list[float] = []
    pace_chunks, pace_s = 0, 0.0
    for cmd in itertools.cycle(commands):
        done = walls[cmd.label]
        if done and time.perf_counter() + done[-1] * (1 + PACE_SHARE) + setup[-1] > deadline:
            break
        outcome = run_command(runner, gate, cmd, False, failures)
        done.append(outcome.wall_s)
        rss[cmd.label].append(outcome.rss_mb)
        setup.append(runner.setup_time())
        chunks, spent = pace(PACE_SHARE * outcome.wall_s)
        pace_chunks += chunks
        pace_s += spent

    # A pass is one run of every command; whole passes give the samples of
    # the pass wall, and the per-command means use every run.
    passes = [sum(w[i] for w in walls.values()) for i in range(min(map(len, walls.values())))]
    chunk_s = pace_s / pace_chunks
    scale = REFERENCE_CHUNK_S / chunk_s
    mean_pass = sum(statistics.fmean(w) for w in walls.values())
    print(f"wall_s raw: mean {mean_pass:.4f}; whole passes: median {statistics.median(passes):.4f}"
          f" min {min(passes):.4f} max {max(passes):.4f}; {tail_note(passes)}")
    print(f"setup_s raw: median {statistics.median(setup):.4f} n={len(setup)}"
          f" min {min(setup):.4f} max {max(setup):.4f}")
    print(f"pace: {pace_chunks} chunks in {pace_s:.4f} s, {chunk_s * 1000:.4f} ms each;"
          f" scale {scale:.4f}")
    metrics = {
        "wall_s": mean_pass * scale,
        "peak_rss_mb": max(statistics.median(r) for r in rss.values()),
        "setup_s": statistics.median(setup) * scale,
    }
    return metrics, len(setup)


def layer_metrics(runner: Runner, gate: Gate, commands: list[Command], deadline: float,
                  failures: list[str]) -> tuple[dict[str, float], int]:
    """Alternates untraced and traced passes while the next pass fits before
    the deadline, after one of each; returns the per-layer metrics and the
    commands attempted."""
    plain: list[list[Outcome]] = []
    traced: list[list[Outcome]] = []
    longest = 0.0
    while not traced or time.perf_counter() + longest <= deadline:
        use_trace = len(traced) < len(plain)
        start = time.perf_counter()
        (traced if use_trace else plain).append(
            [run_command(runner, gate, cmd, use_trace, failures) for cmd in commands])
        longest = max(longest, time.perf_counter() - start)
    layers = [per_layer(p) for p in traced]
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    walls = [sum(o.wall_s for o in p) for p in plain]
    traced_walls = [sum(o.wall_s for o in p) for p in traced]
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    print(f"traced passes {len(traced)}, untraced passes {len(plain)}")
    return metrics, len(commands) * (len(plain) + len(traced))


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> None:
    runner = Runner(workdir)
    gate = Gate(json.loads(REFERENCE.read_text(encoding="utf-8")))
    commands = workload_commands(workload, seed)
    failures: list[str] = []

    warm = [runner.cli(cmd.args) for cmd in commands]
    for cmd in commands:
        if cmd.signs is not None:
            gate.learn_signs(cmd, runner.cli(cmd.signs))
    for cmd, outcome in zip(commands, warm):
        reason = gate.failure(cmd, outcome)
        if reason:
            failures.append(f"{cmd.label} (warm-up): {reason}")
        elif cmd.seeded:
            gate.warm[cmd.label] = outcome.stdout
    self_check(runner, gate, commands, warm)

    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    print("meta " + json.dumps(metadata(seed), sort_keys=True))
    deadline = time.perf_counter() + seconds
    measured = layer_metrics if trace else end_to_end
    values, attempted = measured(runner, gate, commands, deadline, failures)
    attempted += len(commands)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    for name in units:
        print(f"{name:32s} {values[name]:14.6f} {units[name]}")
    failed = len(failures)
    print(f"{'failed_frac':32s} {failed / attempted:14.6f} ratio  ({failed} of {attempted} commands)")
    for failure in failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cklie" / "cli.py").is_file():
        print(f"error: no cklie sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # The host slows each CPU of its share independently.  On one CPU, this
    # process (and so the pace) and every CLI process it starts see the same
    # slowdowns; nothing runs beside them, as the commands run one at a time.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
