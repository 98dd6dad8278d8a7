#!/usr/bin/env python3
"""Regenerate the golden survivor files from the brute-force oracle.

Run from the repo root:

    python tools/make_golden.py

Regeneration is deliberate: the oracle scans the box [-4k, 4k], which is
checked to contain the Cauchy-Schwarz survivor box of each case, so these
files freeze the complete survivor sets the staged pipeline must
reproduce. Only four cases ship as golden files; the rest inline their
expected sets in the fixture catalog.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

from oracle_bruteforce import (  # noqa: E402
    ORACLE_CASES,
    brute_survivors,
    survivor_box,
)

GOLDEN_CASES = ["g1kondelp-c", "g1kondelp-e", "g1kondelp-f", "g1kondelp-i"]
OUT = pathlib.Path(__file__).resolve().parent.parent / "src/divcalc/data/golden"


def main():
    for cid in GOLDEN_CASES:
        surface, C, k, mod4 = ORACLE_CASES[cid]
        box = 4 * k
        assert box >= survivor_box(surface, C, k), cid
        surv = brute_survivors(surface, C, k, box=box, mod4=mod4)
        doc = {
            "case": cid,
            "surface": surface,
            "curve": list(C),
            "k": k,
            "mod4": mod4,
            "box": box,
            "survivors": [
                {"coords": list(c), "z": z} for c, z in sorted(surv)
            ],
        }
        path = OUT / f"{cid}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {path} ({len(surv)} survivors)")


if __name__ == "__main__":
    main()
