"""Write the CLI's outputs over a fixed set of commands into one directory.

Usage, from the repository root::

    PYTHONPATH=src python3 tests/snapshot_cli.py OUTDIR

Each command runs in a fresh ``python -m ringline`` process, on the
``ringline`` this script imports, with OUTDIR as its working directory and
RINGLINE_MAX_ORDER=64.  Its stdout and stderr go to ``NNN-name.out`` and
``.err``, its arguments and exit code to ``.code``, and the files it writes
under ``NNN-name.files/``.  Ring files are written into OUTDIR and named by
a relative path, so their ``file:`` labels do not depend on where OUTDIR
is; one of them, ``amphibian16-broken.ring``, has one ``mul`` entry changed,
so ``ring validate`` refuses it.  All six commands run, with exit codes 0,
1 and 2.  Two checkouts give the same outputs when ``diff -r`` of their two
directories is empty.
"""

from __future__ import annotations

import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import oracles
import ringline
from ringline import construct, product, validate_tables, write_ring_file

DATA = Path(__file__).parent / "data"

# file: rings, each written into OUTDIR: (file name, spec it relabels, seed)
RELABELLED = (("gf3t2-seed5.ring", "GF(3)*T(2)", 5), ("z4z4-seed2.ring", "Z(4)*Z(4)", 2))
# file: rings that only ``ring info`` reads, named there by their product specs
PRODUCTS = (("g2g3-seed2.ring", "GF(2)*GF(3)", 2), ("g2t2-seed5.ring", "GF(2)*T(2)", 5))
# a file: ring whose partition is refuted, with 117 non-unimodular points, reported last but one
REFUTED = ("t2t2-seed2.ring", "T(2)*T(2)", 2)
# M2(GF(2))*GF(4), whose R/J has a matrix factor: a refuted partition, 175 unimodular points, reported last
MATRIX = "m2gf4.ring"

REPORTED = (
    "T(2)", "GF(3)*T(2)", "T(3)", "GF(7)*T(2)", "T(4)", "T(2)*T(2)", "Z(4)*Z(4)", "Z(12)",
    "GF(2)*T(2)", "Z(4)*T(2)", "file:amphibian16.ring", *(f"file:{name}" for name, _, _ in RELABELLED),
)

# The benchmark's condense catalog.
CATALOG = (
    "GF(2)", "Z(4)", "D(2)", "Z(6)", "GF(2)*GF(2)", "GF(2)*GF(3)",
    "GF(3)", "GF(4)", "GF(2)*GF(4)", "GF(2)*GF(5)", "Z(4)*GF(2)", "D(2)*GF(2)",
)

EXPORTED = ("T(2)", "GF(3)*T(2)", "GF(5)*T(2)")

# ring info: ideal censuses up to order 64, "isomorphic to" on a file ring
# (n/a above order 16), and ideals n/a above RINGLINE_MAX_ORDER
INFO = ("T(2)", "Z(12)", "T(4)", "file:amphibian16.ring", f"file:{RELABELLED[0][0]}", "T(2)*T(2)*GF(2)")

BROKEN = "amphibian16-broken.ring"


def commands() -> list[tuple[str, ...]]:
    """Each command's arguments; FILES stands for the command's own output directory."""
    found = []
    for spec in REPORTED:
        found += [
            ("line", "compute", spec),
            ("line", "compute", spec, "--json"),
            ("line", "compute", spec, "--json", "--fixtures", "FILES"),
            ("condense", spec),
            ("condense", spec, "--json"),
            ("condense", spec, "--json", "--catalog", ",".join(CATALOG)),
        ]
    for spec in EXPORTED:
        for sector in ("u", "n", "all"):
            for fmt in ("dot", "json"):
                found.append(("line", "export", spec, "--sector", sector, "--format", fmt,
                              "--out", f"FILES/graph.{fmt}"))
    found += [("table2",), ("table2", "--json", "--ring-b", "amphibian16.ring")]
    for spec in INFO:
        found += [("ring", "info", spec), ("ring", "info", spec, "--json")]
    for name in ("amphibian16.ring", BROKEN):
        found += [("ring", "validate", name), ("ring", "validate", name, "--json")]
    found += [("line", "compute", "T(2)*T(2)*GF(2)"), ("ring", "info", "Q(3)")]  # exit 2: too large, bad spec
    for name in (RELABELLED[1][0], *(name for name, _, _ in PRODUCTS)):
        found += [("ring", "info", f"file:{name}"), ("ring", "info", f"file:{name}", "--json")]
    for name in (REFUTED[0], MATRIX):
        found += [("line", "compute", f"file:{name}"), ("line", "compute", f"file:{name}", "--json")]
    # exit 2: the refusals of a named term, alone and as a product factor
    found += [("ring", "info", spec) for spec in ("Z(1)", "D(1)", "T(6)", "GF(2)*T(6)")]
    # a file term after the first, identified like one that comes first
    spec = f"GF(2)*file:{PRODUCTS[0][0]}"
    found += [("ring", "info", spec), ("ring", "info", spec, "--json")]
    return found


def broken(text: str) -> str:
    """A ring file's text with ``mul`` entry [2][3] raised by one, mod the order."""
    lines = text.splitlines(keepends=True)
    row = lines.index("mul\n") + 3
    entries = lines[row].split()
    entries[3] = str((int(entries[3]) + 1) % len(entries))
    lines[row] = " ".join(entries) + "\n"
    return "".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(DATA / "amphibian16.ring", out / "amphibian16.ring")
    (out / BROKEN).write_text(broken((DATA / "amphibian16.ring").read_text(encoding="utf-8")), encoding="utf-8")
    for name, spec, seed in (*RELABELLED, *PRODUCTS, REFUTED):
        ring = construct(spec)
        write_ring_file(out / name, validate_tables(*oracles.relabelled(ring.add_table, ring.mul_table, seed)))
    write_ring_file(out / MATRIX, product(validate_tables(*oracles.matrix_gf2_tables()), construct("GF(4)")))
    env = {**os.environ, "PYTHONPATH": str(Path(ringline.__file__).parent.parent), "RINGLINE_MAX_ORDER": "64"}
    for i, args in enumerate(commands()):
        stem = f"{i:03d}-" + re.sub(r"[^A-Za-z0-9]+", "-", " ".join(args[:3])).strip("-")
        files = f"{stem}.files"
        if "FILES" in " ".join(args):
            (out / files).mkdir(exist_ok=True)
        args = [arg.replace("FILES", files) for arg in args]
        run = subprocess.run([sys.executable, "-m", "ringline", *args], cwd=out, env=env, capture_output=True)
        (out / f"{stem}.out").write_bytes(run.stdout)
        (out / f"{stem}.err").write_bytes(run.stderr)
        (out / f"{stem}.code").write_text(f"{shlex.join(args)}\n{run.returncode}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
