"""Command-line front end: run experiments, emit reproducible CSV artifacts.

Every output file opens with a comment echoing the full configuration as
the command line that reruns it, and reruns with the same configuration
produce byte-identical files.  Floats are written with shortest round-trip
precision, the bytes of ``repr``, index columns as ints.  Short tables
stream in one pass, a ``repr`` join per row.  Only the long tables of
``forward`` and ``response`` (``_TableRows``) are split: ``_write_csv``
formats them as bytes with ``floattext.format_block`` in up to one part per
usable CPU, each after the first in a forked child that the parent places
on its CPU, and the bytes do not depend on the split.  Python 3.12 and later
issue a ``DeprecationWarning`` for that ``fork()``, since numpy's OpenBLAS
threads are running.  Exit codes: 0 success, 2 configuration error, 3
numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import shlex
import shutil
import sys
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import uniform
from .errors import (
    GridError,
    RankError,
    RecoveryError,
    SpecError,
    StabilityError,
    TruncationError,
)
from .forward import (
    TimeGrid,
    Waveform,
    _impulse_response,
    check_pulse_mass,
    mollified_delta,
    response_function,
    solve_forward_delta,
    solve_forward_ode,
    solve_forward_spectral,
)
from .floattext import format_block
from .inverse import DEFAULT_THRESHOLD, recover_string
from .model import build_matrices, read_spec_file
from .spectral import compute_spectral_data

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# Fields per block of a ``_TableRows`` table, which ``format_block`` formats:
# its temporaries stay near 1 MB.  Writing the eight forward-uniform tables of
# one set of strings (10001 x 4, 8, 16 and 24, and four 32001 x 2) on one CPU
# took 338, 325, 312, 302 and 390 ms at 2**12, 1.5 * 2**12, 2**13,
# 1.5 * 2**13 and 2**14 fields a block (means of six interleaved rounds, on a
# 2-CPU VM); 2**13 keeps clear of the rise.
_BLOCK_FIELDS = 2**13

# Fewest fields a part is given.  On a 2-CPU VM, for a 10001 x 24 table cut
# into two 120k-field halves in a 100 MB process, the fork call takes 2.0 ms;
# about 550 copy-on-write faults on each side cost this process 2.7 ms of
# its own half; the child's teardown holds waitpid 2.7 ms; and copying the
# spill back takes 0.6 ms a MB (1.4 ms for the half's 2.4 MB).  A part thus
# costs about 9 ms beyond its own formatting, as long as formatting
# 2**14.4 fields takes in that process's default heap (about 400 ns each)
# and 2**15.6 in a steady one (about 180 ns), so a table is split from
# 2**17 fields on.
_MIN_PART_FIELDS = 2**16

_CONFIG_ERRORS = (SpecError, GridError, ValueError)
# LinAlgError subclasses ValueError, so main() must test this tuple first
_NUMERICAL_ERRORS = (
    np.linalg.LinAlgError,
    StabilityError,
    RankError,
    RecoveryError,
    TruncationError,
)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _pin(pid: int, cpus: set[int]) -> None:
    """Run process ``pid`` (0: this thread) on ``cpus`` only, if the OS lets
    it: an ``OSError`` leaves its mask as it was."""
    try:
        os.sched_setaffinity(pid, cpus)
    except OSError:
        pass


def _write_csv(path: Path, echo: str, header: list[str], rows) -> None:
    """Write the echo line, the header and then ``rows``.

    Rows other than a ``_TableRows`` table are short and stream in one pass;
    they hold plain Python ints and floats (build them with ``tolist()``),
    so ``repr`` writes what ``_fmt`` would (an ``np.float64`` would not).
    A table is cut into P = min(usable CPUs, fields // ``_MIN_PART_FIELDS``)
    parts, at least 1.  A forked child writes each part after the first as
    bytes into an anonymous temporary file and leaves through ``os._exit``,
    while this process writes the first; the others are appended in order
    once every child is reaped, and a child that fails makes this raise
    ``OSError``.  Right after each fork this process places child i on CPU
    i of this thread's mask (wrapping around), then itself on the first, as
    far as the OS allows, so no child starts and stays on its parent's CPU;
    the thread's mask is restored once the children are reaped.
    Either way the bytes are those of one join of every line's ``repr``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with ExitStack() as stack:
        fh = stack.enter_context(open(path, "wb"))
        fh.write(f"# {echo}\n{','.join(header)}\n".encode())
        if not isinstance(rows, _TableRows):
            fh.writelines((",".join(map(repr, row)) + "\n").encode() for row in rows)
            return
        fields = len(rows.times) * len(header)
        parts = rows.split(max(1, min(_usable_cpus(), fields // _MIN_PART_FIELDS)))
        spills, pids = [], []
        mask = os.sched_getaffinity(0) if len(parts) > 1 else set()
        cpus = sorted(mask)
        try:
            for i, part in enumerate(parts[1:], start=1):
                spill = stack.enter_context(tempfile.TemporaryFile())
                spills.append(spill)
                pid = os.fork()
                if pid == 0:
                    # the child only formats and writes its part: os._exit
                    # flushes no inherited buffer and runs no caller code
                    code = 1
                    try:
                        part.write(spill)
                        spill.flush()
                        code = 0
                    finally:
                        os._exit(code)
                pids.append(pid)
                _pin(pid, {cpus[i % len(cpus)]})
            if mask:
                _pin(0, {cpus[0]})
            parts[0].write(fh)
        finally:
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
            if mask:
                _pin(0, mask)
        if any(codes):
            raise OSError(f"{path}: formatting rows in a child process failed, exit codes {codes}")
        for spill in spills:
            spill.seek(0)
            shutil.copyfileobj(spill, fh)


@dataclass
class _TableRows:
    """Rows (t_j, values[j]...) of a time grid and its samples, written by
    ``format_block`` about ``_BLOCK_FIELDS`` fields at a time; iterating
    gives the same rows as plain Python floats.  ``split`` cuts them into
    contiguous parts, views of the same arrays, so no part is copied."""

    times: np.ndarray
    values: np.ndarray

    def split(self, n_parts: int) -> list[_TableRows]:
        cuts = [len(self.times) * k // n_parts for k in range(n_parts + 1)]
        return [_TableRows(self.times[a:b], self.values[a:b]) for a, b in zip(cuts, cuts[1:])]

    def blocks(self):
        columns = 1 + (self.values.shape[1] if self.values.ndim > 1 else 1)
        step = max(1, _BLOCK_FIELDS // columns)
        for start in range(0, len(self.times), step):
            block = slice(start, start + step)
            yield np.column_stack([self.times[block], self.values[block]])

    def write(self, fh) -> None:
        """Write the rows as bytes to the binary file ``fh``."""
        for block in self.blocks():
            fh.write(format_block(block))

    def __iter__(self):
        for block in self.blocks():
            yield from block.tolist()


def _control_waveform(descriptor: str, grid: TimeGrid) -> Waveform:
    name, _, width = descriptor.partition(":")
    if name == "delta":
        try:
            value = float(width) if width else 0.02
        except ValueError:
            value = np.nan
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError(f"--control delta width must be finite and positive, got {width!r}")
        # a width given here must give a unit-mass pulse on the grid; the
        # default runs the RK4 oracle on any grid, down to 3 steps
        if width:
            check_pulse_mass(grid, value)
        return mollified_delta(grid, value)
    xi = uniform.parse_test_function(descriptor)
    return Waveform(grid=grid, values=np.asarray(xi(grid.times), dtype=float))


# ---------------------------------------------------------------------------
# Commands.


def _cmd_spectral(args, echo: str) -> int:
    spec = read_spec_file(args.spec)
    data = compute_spectral_data(build_matrices(spec))
    rows = zip(range(1, data.n_modes + 1), data.eigenvalues.tolist(), data.weights.tolist())
    _write_csv(Path(args.out) / "spectral.csv", echo, ["k", "lambda", "omega"], rows)
    return EXIT_OK


def _cmd_forward(args, echo: str) -> int:
    spec = read_spec_file(args.spec)
    mats = build_matrices(spec)
    grid = TimeGrid(horizon=args.T, n_steps=args.steps)
    l1 = float(spec.lengths[0])
    if args.solver == "ode":
        control = _control_waveform(args.control, grid)
        traj = solve_forward_ode(mats, control, l1)
    else:
        data = compute_spectral_data(mats)
        if args.control == "delta":
            traj = solve_forward_delta(data, l1, grid)
        else:
            control = _control_waveform(args.control, grid)
            traj = solve_forward_spectral(mats, data, control, l1)
    header = ["t"] + [f"u_{i + 1}" for i in range(mats.order)]
    rows = _TableRows(grid.times, traj.states)
    _write_csv(Path(args.out) / "trajectory.csv", echo, header, rows)
    return EXIT_OK


def _cmd_response(args, echo: str) -> int:
    spec = read_spec_file(args.spec)
    data = compute_spectral_data(build_matrices(spec))
    grid = TimeGrid(horizon=args.T, n_steps=args.steps)
    r = response_function(data, float(spec.lengths[0]), grid)
    rows = _TableRows(grid.times, r.values)
    _write_csv(Path(args.out) / "response.csv", echo, ["t", "r"], rows)
    return EXIT_OK


def _read_response_csv(path: str) -> Waveform:
    times = []
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("t,"):
                continue
            fields = line.split(",")
            if len(fields) != 2:
                raise GridError(f"{path}: line {number} has {len(fields)} fields, expected t,r")
            try:
                times.append(float(fields[0]))
                values.append(float(fields[1]))
            except ValueError as exc:
                raise GridError(f"{path}: line {number}: {exc}") from None
    if len(times) < 3:
        raise GridError(f"{path}: too few samples for a response")
    if abs(times[0]) > 1e-12:
        raise GridError(f"{path}: response must start at t = 0, first sample at t = {times[0]!r}")
    times_arr = np.asarray(times)
    steps = np.diff(times_arr)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
        raise GridError(f"{path}: response grid is not uniform")
    grid = TimeGrid(horizon=float(times_arr[-1]), n_steps=len(times_arr) - 1)
    return Waveform(grid=grid, values=np.asarray(values))


def _emit_recovery(out_dir: Path, echo: str, result) -> None:
    diag = result.diagnostics
    n_masses = len(result.recovered_masses)
    sigma = diag.singular_values
    # cond_k is the one condition number of the truncated factorization, and
    # residual_k holds step 1's residual; later steps stay in the range
    cond = float(sigma[0] / sigma[n_masses - 1])
    columns = np.column_stack(
        [
            result.recovered_masses,
            result.recovered_b,
            result.recovered_a,
            result.recovered_lengths[:n_masses],
        ]
    )
    rows = [
        (k, *row, diag.residual if k == 1 else 0.0, cond)
        for k, row in enumerate(columns.tolist(), start=1)
    ]
    _write_csv(
        out_dir / "recovery.csv",
        echo,
        ["k", "m_k", "b_k", "a_k", "l_k", "residual_k", "cond_k"],
        rows,
    )
    with open(out_dir / "recovery.csv", "a", encoding="utf-8") as fh:
        fh.write(f"# l_N={_fmt(result.recovered_lengths[-1])}\n")
    sv_rows = enumerate(sigma.tolist(), start=1)
    _write_csv(out_dir / "singular_values.csv", echo, ["i", "sigma_i"], sv_rows)


def _cmd_invert(args, echo: str) -> int:
    r = _read_response_csv(args.response)
    grid = TimeGrid(horizon=r.grid.horizon / 2.0, n_steps=args.steps)
    result = recover_string(r, args.l1, grid, args.threshold)
    _emit_recovery(Path(args.out), echo, result)
    print(
        f"rank={len(result.recovered_masses)} "
        f"endpoint_gap={_fmt(result.diagnostics.endpoint_gap)} "
        f"last_length={_fmt(result.recovered_lengths[-1])}"
    )
    return EXIT_OK


def _cmd_roundtrip(args, echo: str) -> int:
    if not (np.isfinite(args.noise) and args.noise >= 0.0):
        raise ValueError(f"--noise must be finite and non-negative, got {args.noise!r}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed!r}")
    if args.oversample < 1:
        raise ValueError(f"--oversample must be at least 1, got {args.oversample!r}")
    spec = read_spec_file(args.spec)
    data = compute_spectral_data(build_matrices(spec))
    l1 = float(spec.lengths[0])
    grid = TimeGrid(horizon=args.T, n_steps=args.steps)
    fine = TimeGrid(horizon=2.0 * args.T, n_steps=2 * args.oversample * args.steps)
    r = response_function(data, l1, fine)
    if args.noise > 0.0:
        rng = np.random.default_rng(args.seed)
        noisy = r.values + args.noise * rng.standard_normal(len(r.values))
        r = Waveform(grid=fine, values=noisy)
    result = recover_string(r, l1, grid, args.threshold)
    _emit_recovery(Path(args.out), echo, result)

    err_m = err_l = np.inf
    if len(result.recovered_masses) == spec.n_masses:
        err_m = float(
            np.max(np.abs(result.recovered_masses - spec.masses) / spec.masses)
        )
        err_l = float(
            np.max(np.abs(result.recovered_lengths - spec.lengths) / spec.lengths)
        )
    print(f"max_rel_err_m={_fmt(err_m)} max_rel_err_l={_fmt(err_l)}")
    return EXIT_OK


def _cmd_uniform_sweep(args, echo: str) -> int:
    try:
        ns = [int(tok) for tok in args.N.split(",") if tok.strip()]
    except ValueError:
        ns = []
    if not ns or min(ns) < 2:
        raise ValueError(f"--N needs integer segment counts of at least 2, got {args.N!r}")
    if args.prop == 1:
        # impulse components j = 1 and n // 2 against the spectral sum, worst
        # case over j and t; only those two components are summed, and the
        # closed form is the finite chain's image sum
        target, values = 0.0, []
        for n in ns:
            data = uniform.uniform_eigen(n)
            grid = TimeGrid(horizon=1.0, n_steps=max(4 * n, 64))
            components = (1, n // 2)
            states = _impulse_response(data, 1.0 / n, grid, [j - 1 for j in components])
            worst = 0.0
            for j, column in zip(components, states.T):
                closed = uniform.image_sum(n, j, grid.times[1:])
                worst = max(worst, float(np.max(np.abs(closed - column[1:]))))
            values.append(worst)
    elif args.prop in (2, 3):
        xi = uniform.parse_test_function(args.xi)
        if xi.tail_sup(np.inf) > 0.0:
            # the pairing's tail bound is sup|xi| times int |J_2(s)|/s, which
            # never falls below tol for a test function that does not decay
            raise ValueError(
                f"--prop {args.prop} needs a test function that decays away from "
                f"t = 0, gauss or rcos; got {args.xi!r}"
            )
        if args.prop == 2:
            target, pair = float(xi(0.0)), uniform.pair_response
        else:
            target, pair = float(xi.derivative(0.0)), uniform.pair_corrected_response
        # smallest N first: a test function narrower than the pairing's step,
        # 0.05 / 2N in t, is refused there, naming a width that every N takes
        pairs = {n: pair(n, xi).value for n in sorted(ns)}
        values = [pairs[n] for n in ns]
    elif args.prop == 4:
        # the ladder's argument is 2 N t
        if not (0.0 < args.t < np.inf and np.isfinite(2.0 * max(ns) * args.t)):
            raise ValueError(
                f"--t must be finite and positive, with 2 N t finite for every --N; got {args.t!r}"
            )
        if args.k < 1:
            raise ValueError(f"--k must be a positive integer, got {args.k!r}")
        values = [uniform.pair_solution_with_sine(n, args.t, args.k) for n in ns]
        target = float(np.sin(args.k * args.t))
    else:
        raise ValueError(f"unknown proposition {args.prop}")
    rows = [(n, target, value, abs(value - target)) for n, value in zip(ns, values)]
    _write_csv(
        Path(args.out) / f"uniform_prop{args.prop}.csv",
        echo,
        ["N", "target", "value", "abs_error"],
        rows,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krein-string",
        description="Forward/inverse experiments for finite point-mass strings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("spectral", help="eigenvalues and weights of a string")
    p.add_argument("--spec", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("forward", help="trajectory under a boundary control")
    p.add_argument("--spec", required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--control", default="delta", help="delta[:width] or test-function descriptor")
    p.add_argument("--solver", choices=("spectral", "ode"), default="spectral")
    add_common(p)
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("response", help="boundary response function")
    p.add_argument("--spec", required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_response)

    p = sub.add_parser("invert", help="recover a string from a response CSV on [0,2T]")
    p.add_argument("--response", required=True)
    p.add_argument("--l1", type=float, required=True, help="first segment length: picks the scale")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    add_common(p)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("roundtrip", help="generate exact response, invert, compare")
    p.add_argument("--spec", required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--oversample", type=int, default=8)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0, help="seed of the --noise draw")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    add_common(p)
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("uniform-sweep", help="constant-density convergence experiments")
    p.add_argument("--prop", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("--N", required=True, help="comma-separated segment counts")
    p.add_argument("--xi", default="gauss:0.0,0.3")
    p.add_argument("--t", type=float, default=0.3)
    p.add_argument("--k", type=int, default=1)
    add_common(p)
    p.set_defaults(func=_cmd_uniform_sweep)

    return parser


_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # one parser per process: building it costs about 1 ms, and parse_args
    # keeps no state between calls (each returns a fresh namespace)
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    # every file's header echoes the command line that reruns this run: each
    # option of the command, defaults included, as --name value, shell-quoted,
    # in the order the parser declares them
    options = (
        f"--{key.replace('_', '-')} {shlex.quote(str(value))}"
        for key, value in vars(args).items()
        if key not in ("command", "func")
    )
    echo = " ".join(["krein-string", args.command, *options])
    try:
        return args.func(args, echo)
    except _NUMERICAL_ERRORS as exc:
        print(f"error_code={EXIT_NUMERICAL} detail={exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _CONFIG_ERRORS as exc:
        print(f"error_code={EXIT_CONFIG} detail={exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error_code={EXIT_IO} detail={exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
