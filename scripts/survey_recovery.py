#!/usr/bin/env python3
"""Recovery survey: invert 720 seeded random strings and compare two runs.

    PYTHONPATH=<checkout>/src python scripts/survey_recovery.py run OUT.json
    python scripts/survey_recovery.py compare BEFORE.json AFTER.json

``run`` recovers each string with whatever ``krein_string`` is importable
(oversample 8, default threshold) and writes one record per case: its
status (``ok`` within criterion 10's 1e-2, ``bad`` beyond it, ``short`` or
``long`` mass count, or the error's class name), the recovered masses and
lengths, and the number of singular values the factorization kept.

Set A: 2-24 segments, n in {10, 20, 50, 100, 200, 500}, T in {L, 1.5L},
four draws each (432 strings).  Set B: 2-12 segments, n = 4..15, two draws
(288 strings).  Lengths and masses are uniform on [0.5, 1], drawn from
``np.random.default_rng([7, segments, n, 10 T/L, draw, ord(set)])``.

``compare`` prints the status transitions, the ``ok`` cases of BEFORE that
AFTER lost, and how far the others moved.
"""

import collections
import json
import sys
import time

import numpy as np

OK_TOL = 1e-2
OVERSAMPLE = 8


def cases():
    for segs in (2, 3, 4, 6, 8, 12, 16, 20, 24):
        for n in (10, 20, 50, 100, 200, 500):
            for tf in (1.0, 1.5):
                for draw in range(4):
                    yield "A", segs, n, tf, draw
    for segs in (2, 3, 4, 6, 8, 12):
        for n in range(4, 16):
            for tf in (1.0, 1.5):
                for draw in range(2):
                    yield "B", segs, n, tf, draw


def record(tag: str, segs: int, n: int, tf: float, draw: int) -> dict:
    """Recover one case of ``cases()`` and return its record."""
    from krein_string import (
        StringSpec,
        TimeGrid,
        build_matrices,
        compute_spectral_data,
        recover_string,
        response_function,
    )
    from krein_string.errors import KreinStringError

    rng = np.random.default_rng([7, segs, n, int(tf * 10), draw, ord(tag)])
    spec = StringSpec(rng.uniform(0.5, 1.0, segs), rng.uniform(0.5, 1.0, segs - 1))
    horizon = tf * spec.total_length
    grid = TimeGrid(horizon, n)
    fine = TimeGrid(2.0 * horizon, 2 * OVERSAMPLE * n)
    l1 = float(spec.lengths[0])
    rec = dict(tag=tag, segs=segs, n=n, tf=tf, draw=draw)
    try:
        r = response_function(compute_spectral_data(build_matrices(spec)), l1, fine)
        start = time.perf_counter()
        result = recover_string(r, l1, grid)
        rec["s"] = time.perf_counter() - start
        masses, lengths = result.recovered_masses, result.recovered_lengths
        rec["masses"], rec["lengths"] = masses.tolist(), lengths.tolist()
        rec["width"] = len(result.diagnostics.singular_values)
        if len(masses) == segs - 1:
            rec["err"] = max(
                float(np.max(np.abs(masses - spec.masses) / spec.masses)),
                float(np.max(np.abs(lengths - spec.lengths) / spec.lengths)),
            )
            rec["status"] = "ok" if rec["err"] <= OK_TOL else "bad"
        else:
            rec["status"] = "short" if len(masses) < segs - 1 else "long"
    except KreinStringError as exc:
        rec["status"] = type(exc).__name__
        rec["detail"] = str(exc)
    return rec


def survey(path: str) -> None:
    records = [record(*case) for case in cases()]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh)


def compare(before_path: str, after_path: str) -> None:
    with open(before_path, encoding="utf-8") as fh:
        before = json.load(fh)
    with open(after_path, encoding="utf-8") as fh:
        after = json.load(fh)
    transitions = collections.Counter()
    lost, moved, max_move = [], 0, 0.0
    for a, b in zip(before, after, strict=True):
        transitions[(a["tag"], a["status"], b["status"])] += 1
        if a["status"] != "ok":
            continue
        if b["status"] != "ok":
            lost.append((a["tag"], a["segs"], a["n"], a["tf"], a["draw"], b["status"]))
            continue
        x = np.array(a["masses"] + a["lengths"])
        y = np.array(b["masses"] + b["lengths"])
        move = float(np.max(np.abs(x - y) / np.abs(x)))
        max_move = max(max_move, move)
        moved += move > 1e-9
    for (tag, was, now), count in sorted(transitions.items()):
        print(f"{tag} {was:>14} -> {now:<14} {count}")
    print(f"cases {len(before)}  ok before {sum(a['status'] == 'ok' for a in before)}")
    print(f"lost {len(lost)}  moved > 1e-9: {moved}  largest move of an ok case {max_move:.2e}")
    for case in lost:
        print("lost", *case)


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "run":
        survey(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        compare(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)
