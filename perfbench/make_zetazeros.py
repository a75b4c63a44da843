"""Regenerate data/zetazeros.json from mpmath.

The critical-line checks compare every refined zero with
``mpmath.zetazero(k)``.  Computing those ordinates takes about 0.3 s each
near t = 400, so they are stored here instead of being recomputed in
every run.  Run from the repository root:

    python3 perfbench/make_zetazeros.py
"""

from __future__ import annotations

import json

import mpmath

from oracles import DATA, ZERO_WINDOWS

OUT = DATA / "zetazeros.json"


def main() -> None:
    mpmath.mp.dps = 30
    zeros = {}
    for lo, hi in ZERO_WINDOWS:
        first, last = int(mpmath.nzeros(lo)) + 1, int(mpmath.nzeros(hi))
        for k in range(first, last + 1):
            zeros[str(k)] = mpmath.nstr(mpmath.zetazero(k).imag, 25)
    OUT.write_text(json.dumps({"source": "mpmath.zetazero, mp.dps = 30",
                               "ordinates": zeros}, indent=1) + "\n")
    print(f"wrote {len(zeros)} ordinates to {OUT}")


if __name__ == "__main__":
    main()
