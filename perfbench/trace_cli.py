"""Run the cklie command line with spans around each layer's public entry points.

    PYTHONPATH=src python3 perfbench/trace_cli.py SPANS.json <cklie arguments...>

Behaves like ``python -m cklie.cli <cklie arguments...>``.  On exit it writes
the spans, held in memory until then, to SPANS.json as a list of
``[name, parent index or null, start, end, counts or null, counting seconds]``.
Counts are taken after a span ends; the time spent taking them is recorded so
that it is not charged to the parent span.

Only the traced benchmark process runs this file.  Untraced runs start
``python -m cklie.cli`` directly and load no wrapper.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

import cklie.classify
import cklie.cli
import cklie.cohomology
import cklie.lie_core


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        # Cocycle systems already counted.  `system()` is memoized per solver
        # and called again by every cocycle test, so only a system's first
        # appearance is counted; the objects are held so their ids stay unique.
        self._systems: dict[int, object] = {}

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = [name, parent, time.perf_counter(), None, None, 0.0]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if count is not None:
                span[4] = count(args, out)
                span[5] = time.perf_counter() - span[3]
            return out

        return traced

    def count_system(self, args, system):
        if id(system) in self._systems:
            return None
        self._systems[id(system)] = system
        return {
            "unknowns": system.n_unknowns,
            "equations": system.n_equations,
            "nonzeros": sum(len(row) for row in system.rows),
        }


def install(tracer: Tracer) -> None:
    """Replace every cklie module's reference to each entry point by its wrapper."""
    functions = (
        (cklie.lie_core, "build_algebra",
         lambda args, L: {"constants": sum(len(t) for t in L.constants.values())}),
        (cklie.lie_core, "from_matrices", lambda args, L: {"pairs": math.comb(L.dim, 2)}),
        (cklie.lie_core, "verify_jacobi", lambda args, ok: {"triples": math.comb(args[0].dim, 3)}),
        (cklie.classify, "crosscheck", lambda args, rep: {"catalog_entries": len(rep.verdicts)}),
        (cklie.cli, "run_case", None),
    )
    modules = [m for n, m in sys.modules.items() if n == "cklie" or n.startswith("cklie.")]
    for home, name, count in functions:
        original = getattr(home, name)
        traced = tracer.wrap(f"{home.__name__.rsplit('.', 1)[-1]}.{name}", original, count)
        for module in modules:
            if getattr(module, name, None) is original:
                setattr(module, name, traced)
    solver = cklie.cohomology.CohomologySolver
    solver.system = tracer.wrap("cohomology.system", solver.system, tracer.count_system)
    solver.result = tracer.wrap("cohomology.result", solver.result)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        return tracer.wrap("cli.main", cklie.cli.main)(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
