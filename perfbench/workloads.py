"""The benchmark's workloads: seeded CLI cases and the check of each case.

A workload hands out its cases one cycle at a time.  A cycle covers every
configuration of the workload once, in a fixed order, so a run that stops
at a cycle boundary always measures the same mix.  Inputs depend only on
the workload seed, the cycle and the configuration; the program sees only
the spec files written here and its command line.  How many distinct
cycles a run holds depends only on its length (``cycles_for``), so the same
seed and length always give the same cases.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Acceptance criterion 10's tolerance on the relative mass and length errors.
ROUNDTRIP_TOL = 1e-2
# Acceptance criterion 1's tolerance on |u_spectral - u_rk4|.
ORACLE_TOL = 1e-6
# The delta trajectory's u_1 and the response r are the same modal sum.
RESPONSE_TOL = 1e-9
# The Bessel module documents a few 1e-14 absolute; pairings sum thousands
# of terms, so allow a wide margin below any figure the sweeps report.
UNIFORM_TOL = 1e-10

LENGTH_RANGE = MASS_RANGE = (0.2, 1.0)


class Invalid(Exception):
    """Output the program reported as a success is malformed or inconsistent."""


@dataclass
class Outcome:
    status: str  # "pass" or "fail"; malformed output raises Invalid instead
    reason: str = ""
    values: dict = field(default_factory=dict)


@dataclass
class Case:
    label: str
    argv: list
    check: Callable[[str, Path], Outcome]


def _string(seed: int, salt: int, cycle: int, n_segments: int, extra: int = 0):
    rng = np.random.default_rng([seed, salt, cycle, n_segments, extra])
    lengths = rng.uniform(*LENGTH_RANGE, n_segments)
    masses = rng.uniform(*MASS_RANGE, n_segments - 1)
    return lengths, masses


def _write_spec(path: Path, lengths, masses) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = "lengths=" + ",".join(repr(float(v)) for v in lengths)
    text += "\nmasses=" + ",".join(repr(float(v)) for v in masses) + "\n"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _read_csv(path: Path, header: list) -> np.ndarray:
    """Rows of a CLI CSV after its config comment and the expected header."""
    try:
        with open(path, encoding="utf-8") as fh:
            first, second = fh.readline(), fh.readline().strip()
        if not first.startswith("# krein-string ") or second.split(",") != header:
            raise Invalid(f"{path.name}: unexpected preamble {second!r}")
        rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    except (OSError, ValueError) as exc:
        raise Invalid(f"{path.name}: {exc}") from exc
    if rows.shape[1] != len(header) or not np.all(np.isfinite(rows)):
        raise Invalid(f"{path.name}: {rows.shape} table or non-finite values")
    return rows


def _check_grid(path: Path, times: np.ndarray, horizon: float, steps: int) -> None:
    if not np.array_equal(times, np.linspace(0.0, horizon, steps + 1)):
        raise Invalid(f"{path.name}: time column is not the requested grid")


# ---------------------------------------------------------------------------


class Workload:
    name = ""
    # Seconds of a run per distinct cycle: a run of ``seconds`` holds
    # ``cycles_for(seconds)`` cycles, about three quarters of its length on
    # the 2-CPU machine the benchmark was tuned on.
    cycle_seconds = 10.0
    # Configurations run once, untimed, before a run's first timed call.
    warm_labels: tuple = ()
    # The kind of work the calls are bound by, which picks the reference
    # kernel that times the host's speed around each call (run.REFERENCES).
    reference: str

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.out = work / "out"

    def prepare(self) -> None:
        """Untimed set-up that the checks need."""

    def cycles_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.cycle_seconds))

    def cycle(self, index: int) -> list:
        raise NotImplementedError

    def warmup(self, index: int) -> list:
        """Every code path of a cycle once, on a cycle the run does not time."""
        return [case for case in self.cycle(index) if case.label in self.warm_labels]


class Roundtrip(Workload):
    """Exact responses at n = 1000 and 2000, plus the n = 2000 strings again
    with noise at 1e-6 and the cut threshold at 1e-4, which lifts the
    singular-value tail from roundoff to the noise floor."""

    name = "roundtrip"
    cycle_seconds = 13.0
    # Dense eigh on two BLAS threads does not follow the interpreter's speed:
    # over eight runs the raw timings spread 0.09-0.11 of their median, scaled
    # by the interpreter loop 0.05-0.13, by a BLAS matrix product 0.03-0.06.
    reference = "blas"
    warm_labels = ("N=3,n=1000", "N=3,n=2000,noisy")
    # (segments, steps, noisy); cheap and dear calls alternate through a cycle
    configs = (
        (3, 1000, False), (12, 2000, False), (5, 2000, True),
        (5, 1000, False), (8, 2000, False), (3, 2000, True),
        (8, 1000, False), (5, 2000, False), (12, 2000, True),
        (12, 1000, False), (3, 2000, False), (8, 2000, True),
    )
    noise_args = ("--noise", "1e-6", "--threshold", "1e-4")

    def cycle(self, index: int) -> list:
        cases = []
        for slot, (n_segments, steps, noisy) in enumerate(self.configs):
            lengths, masses = _string(self.seed, 0, index, n_segments, steps)
            spec = _write_spec(self.work / "specs" / f"{index}-{slot}.spec", lengths, masses)
            argv = [
                "roundtrip", "--spec", spec,
                "--T", repr(2.0 * float(np.sum(lengths))),
                "--steps", str(steps), "--oversample", "8",
                "--out", str(self.out),
            ]
            label = f"N={n_segments},n={steps}"
            if noisy:
                # the CLI seeds its noise draw; vary it per case with the workload seed
                draw = self.seed * 1000 + index * len(self.configs) + slot
                argv += [*self.noise_args, "--seed", str(draw)]
                label += ",noisy"
            cases.append(Case(label, argv, self._checker(lengths, masses)))
        return cases

    @staticmethod
    def _checker(lengths, masses):
        def check(stdout: str, out: Path) -> Outcome:
            match = re.search(r"max_rel_err_m=(\S+) max_rel_err_l=(\S+)\s*$", stdout)
            if match is None:
                raise Invalid("no max_rel_err line on stdout")
            printed = (float(match.group(1)), float(match.group(2)))
            path = out / "recovery.csv"
            rows = _read_csv(path, ["k", "m_k", "b_k", "a_k", "l_k", "residual_k", "cond_k"])
            last = path.read_text(encoding="utf-8").rstrip("\n").rsplit("\n", 1)[-1]
            if not last.startswith("# l_N="):
                raise Invalid("recovery.csv lacks its l_N trailer")
            if len(_read_csv(out / "singular_values.csv", ["i", "sigma_i"])) == 0:
                raise Invalid("singular_values.csv is empty")
            got_m = rows[:, 1]
            got_l = np.append(rows[:, 4], float(last[len("# l_N="):]))
            if len(got_m) != len(masses):
                if printed != (np.inf, np.inf):
                    raise Invalid(f"short recovery printed errors {printed}")
                return Outcome("fail", f"{len(got_m)} of {len(masses)} masses", {"rank_ok": False})
            err_m = float(np.max(np.abs(got_m - masses) / masses))
            err_l = float(np.max(np.abs(got_l - lengths) / lengths))
            if not np.allclose(printed, (err_m, err_l), rtol=1e-12, atol=0.0):
                raise Invalid(f"printed errors {printed} != recomputed {(err_m, err_l)}")
            values = {"rank_ok": True, "err_m": err_m, "err_l": err_l}
            if max(err_m, err_l) > ROUNDTRIP_TOL:
                return Outcome("fail", f"error {max(err_m, err_l):.2e} > {ROUNDTRIP_TOL}", values)
            return Outcome("pass", "", values)

        return check


class Forward(Workload):
    segments = (4, 8, 16, 24)
    horizon, steps, response_steps = 4.0, 10000, 32000

    def cycle(self, index: int) -> list:
        cases = []
        for n_segments in self.segments:
            lengths, masses = _string(self.seed, 1, index, n_segments)
            spec = _write_spec(self.work / "specs" / f"{index}-{n_segments}.spec", lengths, masses)
            cases += self._string_cases(spec, n_segments)
        return cases

    def _string_cases(self, spec: str, n_segments: int) -> list:
        base = ["--spec", spec, "--T", repr(self.horizon), "--out", str(self.out)]
        traj = ["--steps", str(self.steps)]
        gauss = ["--control", "gauss:0.3,0.1"]
        header = ["t"] + [f"u_{i}" for i in range(1, n_segments)]
        paired = {}  # trajectories later cases of this string compare against

        def trajectory(out: Path) -> np.ndarray:
            path = out / "trajectory.csv"
            rows = _read_csv(path, header)
            _check_grid(path, rows[:, 0], self.horizon, self.steps)
            return rows[:, 1:]

        def spectral(stdout: str, out: Path) -> Outcome:
            paired["spectral"] = trajectory(out)
            return Outcome("pass")

        def delta(stdout: str, out: Path) -> Outcome:
            paired["u1"] = trajectory(out)[:, 0]
            return Outcome("pass")

        def ode(stdout: str, out: Path) -> Outcome:
            states = trajectory(out)
            if "spectral" not in paired:
                return Outcome("pass")
            gap = float(np.max(np.abs(states - paired["spectral"])))
            if gap > ORACLE_TOL:
                return Outcome("fail", f"oracle gap {gap:.2e} > {ORACLE_TOL}", {"oracle_gap": gap})
            return Outcome("pass", "", {"oracle_gap": gap})

        def response(stdout: str, out: Path) -> Outcome:
            path = out / "response.csv"
            rows = _read_csv(path, ["t", "r"])
            _check_grid(path, rows[:, 0], self.horizon, self.response_steps)
            if "u1" in paired:
                # t = 4j/10000 = 4(16j/5)/32000: every 5th against every 16th
                gap = float(np.max(np.abs(paired["u1"][::5] - rows[::16, 1])))
                if gap > RESPONSE_TOL:
                    return Outcome("fail", f"r differs from delta u_1 by {gap:.2e}")
            return Outcome("pass")

        label = f"N={n_segments}"
        return [
            Case(f"{label},spectral", ["forward", *base, *traj, *gauss], spectral),
            Case(f"{label},delta", ["forward", *base, *traj], delta),
            Case(f"{label},ode", ["forward", *base, *traj, *gauss, "--solver", "ode"], ode),
            Case(f"{label},response", ["response", *base, "--steps", str(self.response_steps)], response),
        ]


class UniformSweep(Workload):
    sweeps = (
        ("1", []),
        ("2", ["--xi", "gauss:0.0,0.3"]),
        ("3", ["--xi", "gauss:0.0,0.3"]),
        ("4", ["--t", "0.3", "--k", "1"]),
        ("4", ["--t", "0.3", "--k", "2"]),
        ("4", ["--t", "0.3", "--k", "3"]),
    )
    ns = (8, 16, 32, 64, 128, 256)

    def _argv(self, prop: str, extra: list, out: Path) -> list:
        n_list = ",".join(str(n) for n in self.ns)
        return ["uniform-sweep", "--prop", prop, "--N", n_list, *extra, "--out", str(out)]

    def prepare(self) -> None:
        """Reference values: the same sweeps with uniform's Bessel names
        rebound to scipy.special.jv."""
        from scipy.special import jv

        from krein_string import cli, uniform

        saved = {name: getattr(uniform, name) for name in ("bessel_j", "bessel_j_grid", "bessel_j_ladder")}
        uniform.bessel_j = lambda n, x: float(jv(n, x))
        uniform.bessel_j_grid = lambda n, xs: jv(n, np.asarray(xs, dtype=float))
        uniform.bessel_j_ladder = lambda n_max, x: jv(np.arange(n_max + 1), x)
        self.reference = []
        out = self.work / "reference"
        try:
            for prop, extra in self.sweeps:
                try:
                    ok = cli.main(self._argv(prop, extra, out)) == 0
                    self.reference.append(self._rows(out, prop) if ok else None)
                except Invalid:
                    self.reference.append(None)
        finally:
            for name, fn in saved.items():
                setattr(uniform, name, fn)

    def _rows(self, out: Path, prop: str) -> np.ndarray:
        rows = _read_csv(out / f"uniform_prop{prop}.csv", ["N", "target", "value", "abs_error"])
        if not np.array_equal(rows[:, 0], self.ns):
            raise Invalid(f"uniform_prop{prop}.csv: rows for N={rows[:, 0]}")
        if not np.array_equal(rows[:, 3], np.abs(rows[:, 2] - rows[:, 1])):
            raise Invalid(f"uniform_prop{prop}.csv: abs_error != |value - target|")
        return rows

    def cycle(self, index: int) -> list:
        return [
            Case(f"prop{prop}" + (f",k={extra[-1]}" if prop == "4" else ""),
                 self._argv(prop, extra, self.out), self._checker(prop, ref))
            for (prop, extra), ref in zip(self.sweeps, self.reference)
        ]

    def _checker(self, prop: str, ref):
        def check(stdout: str, out: Path) -> Outcome:
            rows = self._rows(out, prop)
            if ref is None:
                raise Invalid(f"prop {prop}: the scipy reference sweep failed")
            if not np.array_equal(rows[:, 1], ref[:, 1]):
                raise Invalid(f"prop {prop}: targets differ from the reference sweep")
            dev = float(np.max(np.abs(rows[:, 2] - ref[:, 2])))
            values = {"uniform_dev": dev}
            if dev > UNIFORM_TOL:
                return Outcome("fail", f"deviation {dev:.2e} > {UNIFORM_TOL}", values)
            return Outcome("pass", "", values)

        return check


class ForwardUniform(Workload):
    """The forward strings and the uniform sweeps in one cycle: neither calls
    ``inverse``, and together they run long enough to average out the
    machine's speed swings, which hit their Python and memory-bound work
    harder than the BLAS-bound roundtrip."""

    name = "forward-uniform"
    cycle_seconds = 10.0
    # CSV formatting, the RK4 loop and the scalar Bessel sums: over twelve
    # runs the raw timings spread 0.11-0.26 of their median as the host's
    # speed varied by 0.22 of its median, the scaled ones 0.06-0.07.
    reference = "interpreter"
    warm_labels = ("N=4,spectral", "N=4,delta", "N=4,ode", "N=4,response", "prop1", "prop4,k=1")

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.forward = Forward(seed, work)
        self.uniform = UniformSweep(seed, work)

    def prepare(self) -> None:
        self.uniform.prepare()

    def cycle(self, index: int) -> list:
        return self.forward.cycle(index) + self.uniform.cycle(index)


WORKLOADS = {cls.name: cls for cls in (Roundtrip, ForwardUniform)}
