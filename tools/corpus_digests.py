"""Check the command line's output bytes against recorded sha256 digests.

    python3 tools/corpus_digests.py

Runs ``cklie.cli.main`` in-process (from this checkout's ``src/``) over fixed
corpora and prints one line per corpus.  Each corpus digest is one sha256
over its cases in order: for each case the line "family omega exit-code\\n"
(or "family N exit-code\\n" for a sweep), then the captured stdout.  Exits 1
if any digest differs from the recorded one.

* h2, verify, structure, generators (json and text): ``--omega`` over every
  sign pattern of so N=1..5, then su, u and sq N=1..3, in
  ``itertools.product((-1, 0, 1))`` order within each N, then five rational
  cases; 485 cases.
* sweep (csv, json and text): ``--jobs 1`` over so N=1..6, su and u N=1..4
  and sq N=1..3.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cklie.cli import main  # noqa: E402

RECORDED = {
    ("h2", "json"): "3ce415e0943f715d82194f15d8a44b917e3f4faf8dfe030434c3f61bde94f3f4",
    ("h2", "text"): "c4919cbb14c4e9741e1041aa297ba08dfab35f2cd90d694f709b65ecbc7c86be",
    ("verify", "json"): "501a1402a8aeab49bb127180010a5b9cb73b0e78a52fb49fc9378f70c9bb0e3c",
    ("verify", "text"): "31988c6d8997ec09357438bbdb52c74f01174e91e761c8c73731da48c6cf4780",
    ("structure", "json"): "5fe034e778b4cb5d301085b2aa03435cc28da7522f5d92597908cdeb88599dd0",
    ("structure", "text"): "65f8fde76450f896186df2954f635cf04a896e068f6da56ba5df84d188561f14",
    ("generators", "json"): "00cdaf8113217aad4ff357a6df85fd0d67c8ff75052965fbb759c22735ef022b",
    ("generators", "text"): "7d95e29b9d8ea1b38379c9a53da784cf6b1be7ba2daba040768d13cadeed55f3",
    ("sweep", "csv"): "566236b5b59d1286fcbd3dfeb6934f9423fcf5fa4aa26d63eaebddf54f5dc052",
    ("sweep", "json"): "f0d1c6fa9a3990606cb9970bd3166928832faa364e9825628cb0d826783f91fe",
    ("sweep", "text"): "4d8e229768fd63e664cc3671a4d2e4ad9830bdb81d4e23462172e3121cf768de",
}

RATIONAL_CASES = (
    ("so", "0,-3/4,0,5/2"),
    ("so", "2/3,-5,1,-1/2"),
    ("su", "0,2/3,0"),
    ("u", "-5/2,0,0"),
    ("sq", "2,-3,5/7"),
)


def omega_cases() -> list[tuple[str, str]]:
    sizes = [("so", range(1, 6))] + [(f, range(1, 4)) for f in ("su", "u", "sq")]
    signs = [
        (family, ",".join(map(str, s)))
        for family, ns in sizes
        for n in ns
        for s in product((-1, 0, 1), repeat=n)
    ]
    return signs + list(RATIONAL_CASES)


def sweep_cases() -> list[tuple[str, int]]:
    sizes = (("so", 6), ("su", 4), ("u", 4), ("sq", 3))
    return [(family, n) for family, top in sizes for n in range(1, top + 1)]


def digest(command: str, fmt: str) -> str:
    h = hashlib.sha256()
    if command == "sweep":
        cases = [(f, str(n), ["--n", str(n), "--jobs", "1"]) for f, n in sweep_cases()]
    else:
        cases = [(f, omega, [f"--omega={omega}"]) for f, omega in omega_cases()]
    for family, key, args in cases:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, "--family", family, *args, "--format", fmt])
        h.update(f"{family} {key} {code}\n".encode())
        h.update(out.getvalue().encode())
    return h.hexdigest()


def run() -> int:
    mismatches = 0
    for (command, fmt), recorded in RECORDED.items():
        got = digest(command, fmt)
        ok = got == recorded
        mismatches += not ok
        print(f"{command:<10} {fmt:<4} {got} {'ok' if ok else 'MISMATCH, recorded ' + recorded}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(run())
