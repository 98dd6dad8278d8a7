"""Regenerate refs_fixed.json, the stored references of the inputs that do
not depend on the seed, from the numpy oracle:

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import refs  # noqa: E402


def main():
    fixed = refs.build_fixed(refs.load_oracle(os.path.dirname(HERE)))
    with open(refs.FIXED_REFS, "w") as fh:
        json.dump(fixed, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {refs.FIXED_REFS}")


if __name__ == "__main__":
    main()
