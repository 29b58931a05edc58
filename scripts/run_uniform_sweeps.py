#!/usr/bin/env python3
"""Run the constant-density convergence experiments and emit one CSV each.

Sweeps the uniform point-mass approximation through N = 8..128 for the four
experiments: impulse components against the closed form, response
concentration at t = 0, the corrected response pairing like a derivative,
and the interpolated solution against traveling sine modes.

The prop-1 closed form is the finite chain's method-of-images sum, so its
``abs_error`` column is the modal solver's error: rounding, 4e-15 to 2e-12.
"""

import sys
from pathlib import Path

from krein_string.cli import main

OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/uniform")


def run(*args: str) -> None:
    argv = list(args)
    print("+ krein-string " + " ".join(argv))
    code = main(argv)
    if code != 0:
        sys.exit(code)


if __name__ == "__main__":
    ladder = "8,16,32,64"
    run("uniform-sweep", "--prop", "1", "--N", ladder, "--out", str(OUT))
    run("uniform-sweep", "--prop", "2", "--N", ladder, "--xi", "gauss:0.0,0.3", "--out", str(OUT))
    run("uniform-sweep", "--prop", "3", "--N", ladder, "--xi", "gauss:0.0,0.3", "--out", str(OUT))
    for k in (1, 2, 3):
        run(
            "uniform-sweep", "--prop", "4", "--N", ladder + ",128",
            "--t", "0.3", "--k", str(k),
            "--out", str(OUT / f"k{k}"),
        )
    print(f"wrote CSVs under {OUT}/")
