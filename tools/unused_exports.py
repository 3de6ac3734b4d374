#!/usr/bin/env python3
"""List exported values that nothing outside their own module names.

    python3 tools/unused_exports.py

For each `val NAME` in a tracked lib/**/*.mli, report NAME when no
tracked .ml or .mli under lib, bin, bench or benchmark names it, other
than the module's own .ml and .mli.  Files are compared by path, so
lib/engine/pool.ml does not count as lib/parallel/pool.ml's own file.
Each report also lists the test files that still name the value.

Matching is by whole identifier, not by scope: a name that also
appears in a comment or as another module's value counts as used, and
a value reached only through `open`/`include` of a differently named
module may be reported.  The list is a lead for review, not a gate:
the script always exits 0.
"""
import re
import subprocess

SHIPPED = ("lib", "bin", "bench", "benchmark")
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)\s*:", re.M)


def tracked(*dirs):
    out = subprocess.run(["git", "ls-files", "--", *dirs], capture_output=True, text=True,
                         check=True).stdout.split()
    return [f for f in out if f.endswith((".ml", ".mli"))]


def words(path):
    with open(path, encoding="utf-8") as f:
        return set(IDENT.findall(f.read()))


def main():
    shipped = {f: words(f) for f in tracked(*SHIPPED)}
    tests = {f: words(f) for f in tracked("test")}
    reported = 0
    for mli in sorted(f for f in shipped if f.startswith("lib/") and f.endswith(".mli")):
        own = {mli, mli[:-1]}
        with open(mli, encoding="utf-8") as f:
            names = VAL.findall(f.read())
        for name in names:
            if any(name in ws for f, ws in shipped.items() if f not in own):
                continue
            users = sorted(f for f, ws in tests.items() if name in ws)
            where = "tests: " + ", ".join(users) if users else "no test names it"
            print(f"{mli}: {name} ({where})")
            reported += 1
    print(f"{reported} exported values named by no other file under {', '.join(SHIPPED)}")


if __name__ == "__main__":
    main()
