"""Check acceptance criteria 12, 13 and 14 past Tier-1's range: every 0/1
zero set of so N=9 and 10 and of su and u N=7, 1792 in all.

    python3 tools/proven_range.py

For each (family, N) it runs ``certify_rescaling``, then ``range_case`` of
``tests/helpers.py`` on every zero set z in {0, 1}^N, in one process, and
checks each one as the three criteria do on Tier-1's range:

* the crosscheck matches, and dim B2 and dim Z2 take their closed forms;
* every type II removal identity holds exactly;
* the sweep row at z equals the one at reversed z;
* the printed representatives extend the algebra centrally and are
  independent modulo B2;
* both elimination-free lower bounds and the upper bound equal dim B2.

With the rescaling certificate this proves the catalog a basis of H2, and
every removal identity, for every rational omega at those N.  Prints one
line per (family, N) with its zero sets, identities and seconds.  Exits 1
on any failure, a certificate that raises included.
"""

from __future__ import annotations

import sys
import time
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from cklie.classify import certify_rescaling  # noqa: E402
from helpers import range_case  # noqa: E402

RANGE = (("so", 9), ("so", 10), ("su", 7), ("u", 7))


def main() -> int:
    failed = False
    for family, n in RANGE:
        t0 = time.perf_counter()
        certify_rescaling(family, n)
        records = {z: range_case(family, z) for z in product((0, 1), repeat=n)}
        identities = 0
        bad = []
        for z, rec in records.items():
            identities += len(rec["identities"])
            checks = {
                "match": rec["row"][-1],
                "closed forms": rec["closed_forms"],
                "identity": all(rec["identities"]),
                "reversal": rec["row"] == records[z[::-1]]["row"],
                "extension": all(rec["extension"]),
                "b2 bounds": rec["b2_bounds"] == (rec["row"][2],) * 3,
            }
            bad += [(z, name) for name, ok in checks.items() if not ok]
        seconds = time.perf_counter() - t0
        status = f"FAILED {bad[:5]}" if bad else "ok"
        print(f"{family:<2} N={n:<2} {len(records):4} zero sets {identities:6} identities "
              f"{seconds:6.1f} s  {status}", flush=True)
        failed = failed or bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
