#!/usr/bin/env python3
"""Compare ``format_block``'s bytes with the ``repr`` join on millions of values.

The values: 2M seeded random 64-bit patterns (every class of double, about
3% of them in fixed notation), every integer in [-2**20, 2**20], 1M seeded
normals log-uniform in [1e-20, 1e17] at both signs (where the CLI's tables'
values lie, fixed notation or not), and every 10**k, k = -307...307, with
both neighbours at both signs (where the digit count flips between 16 and
17).  A third of each set goes through 1-, 3- and 7-column blocks of 2**14
rows.  The first mismatch stops the run with exit 1 and names its row.
The tier-1 hypothesis test sees about 30k values a run.

    python scripts/check_float_text.py
"""

import sys
from itertools import zip_longest

import numpy as np

from krein_string.floattext import format_block


def repr_join(block):
    return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist()).encode()


def main() -> int:
    patterns = np.random.default_rng(2020).integers(0, 2**64, 2_000_000, np.uint64)
    integers = np.arange(-(2**20), 2**20 + 1, dtype=np.float64)
    normals = np.exp(np.random.default_rng(2021).uniform(np.log(1e-20), np.log(1e17), 500_000))
    tens = np.array([float(f"1e{k}") for k in range(-307, 308)])
    tens = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    for name, values in (
        ("random patterns", patterns.view(np.float64)),
        ("integers", integers),
        ("log-uniform normals", np.concatenate([normals, -normals])),
        ("powers of ten", np.concatenate([tens, -tens])),
    ):
        for third, cols in enumerate((1, 3, 7)):
            part = values[third::3]
            block = part[: len(part) // cols * cols].reshape(-1, cols)
            for start in range(0, len(block), 2**14):
                chunk = block[start : start + 2**14]
                got, want = format_block(chunk).splitlines(), repr_join(chunk).splitlines()
                if got != want:
                    row, line = next((i, pair) for i, pair in enumerate(zip_longest(got, want)) if pair[0] != pair[1])
                    print(f"{name}, {cols} columns, row {start + row}: {line[0]!r}, repr {line[1]!r}", file=sys.stderr)
                    return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
