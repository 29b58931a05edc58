import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy

import krein_string
from krein_string import (
    TimeGrid,
    Waveform,
    build_matrices,
    compute_spectral_data,
    read_spec_file,
    response_function,
    solve_forward_delta,
    solve_forward_ode,
    solve_forward_spectral,
)
from krein_string import cli
from krein_string.cli import (
    _MIN_PART_FIELDS,
    _fmt,
    _TableRows,
    _write_csv,
    main,
)
from krein_string.uniform import image_sum, parse_test_function, uniform_eigen

SPEC_TEXT = "lengths=0.2,0.3,0.5\nmasses=1.0,2.0\n"


@pytest.fixture(autouse=True)
def cpu_mask():
    # a split _write_csv restores the CPU mask it read, so under a faked
    # os.sched_getaffinity it sets the fake; give each test the real one back
    mask = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, mask)


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "string.txt"
    path.write_text(SPEC_TEXT, encoding="utf-8")
    return str(path)


def run(*argv):
    return main(list(argv))


def test_spectral_command(tmp_path, spec_file):
    out = tmp_path / "out"
    assert run("spectral", "--spec", spec_file, "--out", str(out)) == 0
    lines = (out / "spectral.csv").read_text().splitlines()
    assert lines[0].startswith("# krein-string spectral")
    assert lines[1] == "k,lambda,omega"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 2
    assert float(rows[0][1]) < float(rows[1][1]) < 0.0


def test_cli_import_leaves_heavy_scipy_out(tmp_path, spec_file, small_response):
    # a bare import and every command but uniform-sweep, run in one fresh
    # interpreter, load no scipy module at all: the FFTs are numpy's.  The
    # sweep then loads scipy.special for the Bessel functions and nothing
    # heavy; scipy.signal or scipy.interpolate alone would pull in stats,
    # optimize, sparse, spatial and more.  Before scipy 1.17, scipy.special
    # imports scipy.linalg at module level (for the roots of its orthogonal
    # polynomials), and scipy.linalg imports scipy.sparse, so only from 1.17
    # on are linalg and sparse ruled out.
    heavy = [
        "scipy.signal", "scipy.interpolate", "scipy.stats",
        "scipy.optimize", "scipy.spatial",
    ]
    if tuple(int(part) for part in scipy.__version__.split(".")[:2]) >= (1, 17):
        heavy += ["scipy.linalg", "scipy.sparse"]
    forward = ["forward", "--spec", spec_file, "--T", "1.0", "--steps", "800"]
    commands = [
        ["spectral", "--spec", spec_file],
        forward,
        [*forward, "--control", "gauss:0.3,0.1", "--solver", "ode"],
        ["response", "--spec", spec_file, "--T", "4.0", "--steps", "2000"],
        ["invert", "--response", small_response(), "--l1", "0.5", "--steps", "100"],
        ["roundtrip", "--spec", spec_file, "--T", "2.0", "--steps", "900"],
    ]
    sweep = ["uniform-sweep", "--prop", "2", "--N", "8"]
    out = str(tmp_path / "out")
    code = (
        "import sys\n"
        "import krein_string, krein_string.cli\n"
        "from krein_string.cli import main\n"
        "def loaded():\n"
        "    return [m for m in sys.modules if m.partition('.')[0] == 'scipy']\n"
        "print('import', loaded())\n"
        f"codes = [main([*argv, '--out', {out!r}]) for argv in {commands!r}]\n"
        "print('commands', codes, loaded())\n"
        f"code = main([*{sweep!r}, '--out', {out!r}])\n"
        f"print('sweep', code, 'scipy.special' in sys.modules, [m for m in {heavy!r} if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(krein_string.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    tags = ("import", "commands", "sweep")
    lines = [line for line in result.stdout.splitlines() if line.split(" ")[0] in tags]
    assert lines == ["import []", f"commands {[0] * len(commands)} []", "sweep 0 True []"]


def test_forward_solvers_agree(tmp_path, spec_file):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    common = ["--spec", spec_file, "--T", "1.0", "--steps", "800", "--control", "gauss:0.3,0.1"]
    assert run("forward", *common, "--out", str(out_a)) == 0
    assert run("forward", *common, "--solver", "ode", "--out", str(out_b)) == 0
    a = np.loadtxt(out_a / "trajectory.csv", delimiter=",", skiprows=2)
    b = np.loadtxt(out_b / "trajectory.csv", delimiter=",", skiprows=2)
    assert a.shape == (801, 3)
    assert np.max(np.abs(a - b)) < 1e-5


def test_response_and_invert_round_trip(tmp_path, spec_file):
    out = tmp_path / "out"
    assert run("response", "--spec", spec_file, "--T", "4.0", "--steps", "16000", "--out", str(out)) == 0
    code = run(
        "invert",
        "--response", str(out / "response.csv"),
        "--l1", "0.2",
        "--steps", "2000",
        "--out", str(out),
    )
    assert code == 0
    rows = np.loadtxt(out / "recovery.csv", delimiter=",", skiprows=2, comments="#")
    assert rows.shape == (2, 7)
    assert np.allclose(rows[:, 1], [1.0, 2.0], rtol=2e-2)  # m_k column
    # the truncated factorization writes its leading Ritz values, not all n+1
    sigma = np.loadtxt(out / "singular_values.csv", delimiter=",", skiprows=2)[:, 1]
    assert np.all(np.diff(sigma) <= 0.0)
    assert np.count_nonzero(sigma >= 1e-8 * sigma[0]) == 2
    assert np.count_nonzero(sigma < 1e-9 * sigma[0]) >= len(sigma) / 2


@pytest.fixture
def small_response(tmp_path):
    """r = sin 2t (one unit mass, l_1 = 0.5) on [0, 2] in 200 steps, or on
    [start, 2] when ``start`` moves the first sample off t = 0."""

    def write(bad_index=None, start=0.0):
        t = np.linspace(start, 2.0, 201)
        r = np.sin(2.0 * t)
        if bad_index is not None:
            r[bad_index] = np.nan
        path = tmp_path / "response.csv"
        rows = [f"{a:.17g},{b:.17g}" for a, b in zip(t, r)]
        path.write_text("\n".join(["# test", "t,r", *rows]) + "\n", encoding="utf-8")
        return str(path)

    return write


def invert_small(response, out):
    return run("invert", "--response", response, "--l1", "0.5", "--steps", "100", "--out", str(out))


def test_invert_rejects_non_finite_response(tmp_path, small_response, capsys):
    assert invert_small(small_response(), tmp_path / "ok") == 0
    capsys.readouterr()
    assert invert_small(small_response(bad_index=57), tmp_path / "bad") == 2
    err = capsys.readouterr().err
    assert "error_code=2" in err
    assert "response sample 57" in err and "nan" in err


def test_invert_rejects_a_response_not_starting_at_zero(tmp_path, small_response, capsys):
    # the horizon is read from the last sample, so a grid that starts late
    # would be read as if it started at t = 0
    assert invert_small(small_response(start=0.1), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error_code=2 ")
    assert "response must start at t = 0, first sample at t = 0.1" in err
    assert not (tmp_path / "out").exists()


def test_invert_summary_line_matches_recovery_csv(tmp_path, small_response, capsys):
    out = tmp_path / "out"
    assert invert_small(small_response(), out) == 0
    fields = dict(field.split("=") for field in capsys.readouterr().out.split())
    assert list(fields) == ["rank", "endpoint_gap", "last_length"]
    lines = (out / "recovery.csv").read_text(encoding="utf-8").splitlines()
    rows = [line for line in lines if not line.startswith(("#", "k,"))]
    assert int(fields["rank"]) == len(rows) == 1
    assert lines[-1] == f"# l_N={fields['last_length']}"
    assert np.isfinite(float(fields["endpoint_gap"]))


@pytest.mark.parametrize("row", ["0.0,0.0,1", "0.0"])
def test_invert_names_the_line_of_a_row_without_two_fields(tmp_path, small_response, capsys, row):
    path = Path(small_response())
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([*lines[:2], row, *lines[3:]]) + "\n", encoding="utf-8")
    assert invert_small(str(path), tmp_path / "out") == 2
    fields = row.count(",") + 1
    expected = f"error_code=2 detail={path}: line 3 has {fields} fields, expected t,r\n"
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("row", ["0.01,abc", "abc,0.5"])
def test_invert_names_the_line_of_a_non_numeric_field(tmp_path, small_response, capsys, row):
    path = Path(small_response())
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([*lines[:3], row, *lines[4:]]) + "\n", encoding="utf-8")
    assert invert_small(str(path), tmp_path / "out") == 2
    expected = f"error_code=2 detail={path}: line 4: could not convert string to float: 'abc'\n"
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# Refusals of a command line, one row each (a malformed response file and
# argparse's own refusals have their tests above and below).  A row is an
# argv, split on spaces before its {spec}, {response} and {bad_spec} are
# filled in, the exit code of its class of failure, and the start of the
# detail; a detail that ends in a newline is the whole of stderr.

FORWARD = "forward --spec {spec} --T 1.0 --steps 800"
ROUNDTRIP = "roundtrip --spec {spec} --T 2.0 --steps 900"
INVERT = "invert --response {response} --l1 0.5"
SWEEP = "uniform-sweep --prop"
BAD_XI = "bad test-function arguments in"

REFUSALS = [
    # options out of range, each detail with the value read; the seed is
    # refused even where no noise is drawn
    *((f"{INVERT} --steps 100 --l1={v}", 2, f"l1 must be finite and positive, got {float(v)!r}\n")
      for v in ("0", "-0.2", "nan", "inf")),
    *((f"{INVERT} --steps 100 --threshold={v}", 2, f"threshold must lie in (0, 1), got {float(v)!r}\n")
      for v in ("-1", "0", "1", "2")),
    (f"{ROUNDTRIP} --threshold nan", 2, "threshold must lie in (0, 1), got nan\n"),
    *((f"{ROUNDTRIP} --noise={v}", 2, f"--noise must be finite and non-negative, got {float(v)!r}\n")
      for v in ("-1e-6", "nan", "inf")),
    (f"{ROUNDTRIP} --oversample 0", 2, "--oversample must be at least 1, got 0\n"),
    (f"{ROUNDTRIP} --seed -1", 2, "--seed must be non-negative, got -1\n"),
    (f"{ROUNDTRIP} --noise 1e-9 --seed -1", 2, "--seed must be non-negative, got -1\n"),
    *((f"{FORWARD} --control delta:{w}", 2, f"--control delta width must be finite and positive, got '{w}'\n")
      for w in ("abc", "0", "-0.02", "nan")),
    (f"{FORWARD} --control deltafoo", 2, "unknown test function 'deltafoo'\n"),
    (f"{FORWARD} --control gauss:0.3,0", 2, f"{BAD_XI} 'gauss:0.3,0': "),
    (f"{SWEEP} 3 --N 8 --xi gauss:0.0,0", 2, f"{BAD_XI} 'gauss:0.0,0': "),
    *((f"{SWEEP} 2 --N 8 --xi {xi}", 2, f"{BAD_XI} '{xi}': ")
      for xi in ("gauss:0.0,0", "gauss:nan,0.3", "gauss:0.0,inf", "rcos:0.1,0", "rcos:0.1,-0.2", "sine:nan")),
    (f"{SWEEP} 4 --N 8 --k 0", 2, "--k must be a positive integer, got 0\n"),
    (f"{SWEEP} 4 --N 8 --k=-2", 2, "--k must be a positive integer, got -2\n"),
    *((f"{SWEEP} {prop} --N={n}", 2, f"--N needs integer segment counts of at least 2, got '{n}'\n")
      for prop, n in [(2, "0"), (3, "8,0"), (2, "-4"), (3, "-4"), (4, "0"), (4, "1"), (1, "1"), (2, ",")]),
    *((f"{SWEEP} 1 --N {n}", 2, f"--N needs integer segment counts of at least 2, got '{n}'\n")
      for n in ("8,abc", "8.5")),
    # the pairing's tail bound never falls below tol for a test function that
    # does not decay: refused before any pairing runs, which would end at
    # s = 5e5 in a TruncationError, exit 3
    *((f"{SWEEP} {prop} --N 8 --xi {xi}", 2,
       f"--prop {prop} needs a test function that decays away from t = 0, gauss or rcos; got '{xi}'\n")
      for prop in (2, 3) for xi in ("sine:1", "one")),
    # sin(k t) at t = inf would warn, and the ladder's argument 2 N t
    # overflows at N = 8 for t = 1e308
    *((f"{SWEEP} 4 --N 8 --t={t}", 2,
       f"--t must be finite and positive, with 2 N t finite for every --N; got {float(t)!r}\n")
      for t in ("inf", "1e308", "-1")),
    *((f"{command} --spec {{spec}} --T inf --steps 100", 2, "horizon must be finite and positive, got inf\n")
      for command in ("forward", "response", "roundtrip")),
    # recovery fits its range model on the n - 1 interior nodes, which must
    # outnumber the rank, and the RK4 oracle's midpoint rule reads four nodes
    ("roundtrip --spec {spec} --T 2.0 --steps 1", 2, "recovery of rank 1 needs more than 2 steps, got 1 "),
    ("roundtrip --spec {spec} --T 2.0 --steps 2", 2, "recovery of rank 2 needs more than 3 steps, got 2 "),
    ("roundtrip --spec {spec} --T 2.0 --steps 3", 2, "recovery of rank 2 needs more than 3 steps, got 3 "),
    (f"{INVERT} --steps 1", 2, "recovery of rank 1 needs more than 2 steps, got 1 "),
    (f"{INVERT} --steps 2", 2, "recovery of rank 1 needs more than 2 steps, got 2 "),
    *((f"forward --spec {{spec}} --T 2.0 --solver ode --steps {steps}", 2,
       f"the RK4 oracle needs at least 4 nodes (steps >= 3), got {steps + 1}\n")
      for steps in (1, 2)),
    ("spectral --spec {bad_spec}", 2, "non-positive length (values below 1e-12 rejected)\n"),
    ("spectral --spec {spec}.missing", 4, "[Errno 2] No such file or directory: '{spec}.missing'\n"),
    # a step past either solver's bound names the smallest --steps that
    # passes; where nu_max T overflows, none does, and sqrt(|lambda_max|) dt
    # is given to three digits, not as its 300 integer digits.  A control
    # there underflows to zero with no warning
    ("forward --spec {spec} --T 1.0 --steps 4", 3,
     "grid too coarse: sqrt(|lambda_max|)*dt = 0.758 >= 0.5 (need n_steps >= 7)\n"),
    *((f"forward --spec {{spec}} --T 1e308 --steps 100{solver}{control}", 3,
       f"{heading}: sqrt(|lambda_max|)*dt = 3.03e+306 >= {limit} "
       "(sqrt(|lambda_max|)*T = 3.03 * 1e+308 overflows)\n")
      for solver, heading, limit in [("", "grid too coarse", 0.5), (" --solver ode", "RK4 unstable", 2.8)]
      for control in ("", " --control gauss:0.3,0.1")),
    ("forward --spec {spec} --T 1e300 --steps 100 --solver ode", 3,
     "RK4 unstable: sqrt(|lambda_max|)*dt = 3.03e+298 >= 2.8 (need n_steps >= 1.082417303595031e+300)\n"),
    ("forward --spec {spec} --T 100 --steps 100 --solver ode", 3,
     "RK4 unstable: sqrt(|lambda_max|)*dt = 3.03 >= 2.8 (need n_steps >= 109)\n"),
    # response samples its sines exactly, with no step bound, but the sine
    # of an overflowing phase would be NaN
    ("response --spec {spec} --T 1e308 --steps 100", 3,
     "modal phase overflows: sqrt(|lambda_max|)*T = 3.03 * 1e+308 is not finite\n"),
    # a noise floor far above the threshold puts the rank near n
    ("roundtrip --spec {spec} --T 1.0 --steps 400 --noise 1e-3", 3, "connector rank is near the grid size: "),
]


@pytest.mark.parametrize("argv, code, detail", REFUSALS, ids=[row[0] for row in REFUSALS])
def test_refusal(argv, code, detail, tmp_path, spec_file, small_response, capfd, recwarn):
    # the exit code of the failure's class and one line on stderr, with no
    # traceback, no warning and no output directory
    bad_spec = tmp_path / "bad.txt"
    bad_spec.write_text("lengths=0.5,-0.5\nmasses=1.0\n", encoding="utf-8")
    paths = {"spec": spec_file, "response": small_response(), "bad_spec": str(bad_spec)}
    out = tmp_path / "out"
    assert main([arg.format(**paths) for arg in argv.split()] + ["--out", str(out)]) == code
    err = capfd.readouterr().err
    head = f"error_code={code} detail={detail.format(**paths)}"
    assert err == head if detail.endswith("\n") else err.startswith(head), err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err
    assert [str(w.message) for w in recwarn] == []
    assert not out.exists()


def test_the_inputs_next_to_a_refusal_run(tmp_path, spec_file):
    # the two-mass roundtrip runs from 4 steps and the RK4 oracle from 3,
    # and the forward control takes the test functions the sweeps refuse
    out = str(tmp_path / "out")
    assert run("roundtrip", "--spec", spec_file, "--T", "2.0", "--steps", "4", "--out", out) == 0
    ode = ["forward", "--spec", spec_file, "--T", "2.0", "--solver", "ode", "--out", out]
    assert run(*ode, "--steps", "3") == 0
    for xi in ("sine:1", "one"):
        assert run(*FORWARD.format(spec=spec_file).split(), "--control", xi, "--out", out) == 0


def test_strings_whose_modes_agree_to_rounding_run(tmp_path, capsys):
    # valid strings, which test_spectral holds to the RK4 oracle
    for text in ("lengths=1,1e12,1\nmasses=1,1\n", "lengths=1,1e9,1,1e9,1\nmasses=1,1,1,1\n"):
        clustered = tmp_path / "clustered.txt"
        clustered.write_text(text, encoding="utf-8")
        assert run("spectral", "--spec", str(clustered), "--out", str(tmp_path)) == 0
        forward = ("forward", "--spec", str(clustered), "--T", "4", "--steps", "800")
        assert run(*forward, "--control", "delta:0.1", "--out", str(tmp_path)) == 0
    assert capsys.readouterr().err == ""


def test_linalg_failure_is_numerical(tmp_path, small_response, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr("krein_string.cli.recover_string", failing)
    assert invert_small(small_response(), tmp_path) == 3
    assert "error_code=3 detail=Eigenvalues did not converge" in capsys.readouterr().err


def test_roundtrip_command(tmp_path, spec_file, capsys):
    out = tmp_path / "out"
    code = run("roundtrip", "--spec", spec_file, "--T", "2.0", "--steps", "1200", "--out", str(out))
    assert code == 0
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert summary.startswith("max_rel_err_m=")
    err_m = float(summary.split()[0].split("=")[1])
    err_l = float(summary.split()[1].split("=")[1])
    assert err_m < 1e-2 and err_l < 1e-2
    body = (out / "recovery.csv").read_text().splitlines()
    assert body[-1].startswith("# l_N=")
    # cond_k is sigma_1 / sigma_rank on every row, the rank being the row count
    recovery = csv_floats(out / "recovery.csv")
    sigma = csv_floats(out / "singular_values.csv")[:, 1]
    assert np.all(recovery[:, 6] == sigma[0] / sigma[len(recovery) - 1])


def test_uniform_sweep_command(tmp_path):
    out = tmp_path / "out"
    code = run("uniform-sweep", "--prop", "2", "--N", "8,16", "--xi", "gauss:0.0,0.3", "--out", str(out))
    assert code == 0
    rows = np.loadtxt(out / "uniform_prop2.csv", delimiter=",", skiprows=2)
    assert rows.shape == (2, 4)
    assert rows[0, 3] > rows[1, 3]  # error shrinks with N


def test_uniform_prop1_sums_only_the_compared_components(tmp_path):
    # prop 1 sums only components j = 1 and n // 2 (the same one at n = 2);
    # each row is bitwise the worst gap the full impulse response gives
    out = tmp_path / "out"
    assert run("uniform-sweep", "--prop", "1", "--N", "2,8,64", "--out", str(out)) == 0
    rows = np.loadtxt(out / "uniform_prop1.csv", delimiter=",", skiprows=2)
    assert rows[:, 0].tolist() == [2, 8, 64]
    for n, target, value, error in rows.tolist():
        n = int(n)
        grid = TimeGrid(1.0, max(4 * n, 64))
        states = solve_forward_delta(uniform_eigen(n), 1.0 / n, grid).states
        worst = max(
            float(np.max(np.abs(image_sum(n, j, grid.times[1:]) - states[1:, j - 1])))
            for j in (1, n // 2)
        )
        assert (target, value, error) == (0.0, worst, worst)
        assert worst < 1e-11


@pytest.mark.parametrize(
    "horizon, solver, need",
    [("2.5", "spectral", 16), ("1.0", "spectral", 7), ("40", "spectral", 243), ("40", "ode", 44),
     ("100", "ode", 109)],
)
def test_coarse_grid_names_the_smallest_step_count_that_passes(
    horizon, solver, need, tmp_path, spec_file, capsys
):
    out = tmp_path / "out"
    argv = ["forward", "--spec", spec_file, "--T", horizon, "--solver", solver, "--out", str(out)]
    assert run(*argv, "--steps", str(need - 1)) == 3
    assert f"(need n_steps >= {need})" in capsys.readouterr().err
    assert run(*argv, "--steps", str(need)) == 0


def test_byte_identical_reruns(tmp_path, spec_file):
    out = tmp_path / "out"
    args = ("roundtrip", "--spec", spec_file, "--T", "2.0", "--steps", "900", "--out", str(out))
    assert run(*args) == 0
    first = {name: (out / name).read_bytes() for name in ("recovery.csv", "singular_values.csv")}
    assert run(*args) == 0
    for name, body in first.items():
        assert (out / name).read_bytes() == body


def test_repeated_main_calls_keep_no_state(tmp_path, spec_file):
    # main() reuses one parser per process; a noisy call must leave nothing
    # behind for the next call, which a fresh interpreter is compared with
    out = tmp_path / "out"
    args = ["roundtrip", "--spec", spec_file, "--T", "2.0", "--steps", "900", "--out", str(out)]
    assert run(*args, "--noise", "1e-6") == 0
    assert run(*args) == 0
    in_process = {name: (out / name).read_bytes() for name in ("recovery.csv", "singular_values.csv")}
    env = dict(os.environ, PYTHONPATH=str(Path(krein_string.__file__).parents[1]))
    script = "import sys; from krein_string.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", script, *args], check=True, env=env, capture_output=True)
    for name, body in in_process.items():
        assert (out / name).read_bytes() == body, name


# ---------------------------------------------------------------------------
# CSV contract: floats in shortest round-trip form, index columns as ints.

INDEX_COLUMNS = ("k", "i", "N")


def csv_fields(path):
    """Header and rows of a CLI CSV as strings, after checking every field's
    form; comment lines (the config echo, the l_N trailer) are skipped."""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# krein-string ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if not line.startswith("#")]
    assert rows
    for row in rows:
        assert len(row) == len(header)
        for name, field in zip(header, row):
            if name in INDEX_COLUMNS:
                assert field == str(int(field)), (path.name, name, field)
            else:
                assert field == repr(float(field)), (path.name, name, field)
    return header, rows


def csv_floats(path):
    _, rows = csv_fields(path)
    return np.array([[float(field) for field in row] for row in rows])


def test_write_csv_writes_what_fmt_writes(tmp_path):
    row = [7, -0.0, float("inf"), float("nan"), 5e-324, 1e16, 1e-5, 0.1 + 0.2]
    path = tmp_path / "unit.csv"
    _write_csv(path, "krein-string unit", [f"c{j}" for j in range(len(row))], [row])
    written = path.read_text(encoding="utf-8").splitlines()[2].split(",")
    assert written == [_fmt(v) for v in row]
    assert written[1:4] == ["-0.0", "inf", "nan"]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("kind", ["iterator", "list", "table"])
@pytest.mark.parametrize("n_rows", [3 * _MIN_PART_FIELDS // 4 + 1001, 0])
def test_write_csv_writes_the_one_shot_bytes(tmp_path, monkeypatch, n_rows, kind, cpus):
    # a table of 3 * _MIN_PART_FIELDS fields and more (24.5 blocks) is
    # formatted a block at a time in one part per usable CPU, up to three;
    # a list or an iterator of rows streams in one pass and never forks.  The
    # file is what one join of every line's repr wrote, also for a
    # header-only table
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    special = np.resize([-0.0, 5e-324, 1e16, float("inf"), 7.0], n_rows)
    values = np.column_stack([special, np.random.default_rng(0).standard_normal((n_rows, 2))])
    times = np.arange(n_rows) / 8.0
    listed = [[j, *row] for j, row in enumerate(values.tolist())]
    rows, expected = {
        "iterator": (iter(listed), listed),
        "list": (listed, listed),
        "table": (_TableRows(times, values), np.column_stack([times, values]).tolist()),
    }[kind]
    echo = "krein-string unit --out x"
    header = ["k", "special", "a", "b"]
    path = tmp_path / "unit.csv"
    _write_csv(path, echo, header, rows)
    lines = [f"# {echo}", ",".join(header)]
    lines += [",".join(map(repr, row)) for row in expected]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
    assert len(forks) == (cpus - 1 if n_rows and kind == "table" else 0)


def test_write_csv_reaps_every_child_when_a_part_fails(tmp_path, monkeypatch, spec_file, capsys):
    # three parts; a child whose part raises leaves with a non-zero status,
    # which is an I/O failure, and a part that raises in this process still
    # waits for the children: none is left running or unreaped
    parent = os.getpid()
    write_part = _TableRows.write

    def failing(in_child):
        def write(self, fh):
            if (os.getpid() != parent) == in_child:
                raise RuntimeError("part failed")
            write_part(self, fh)

        return write

    def assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    rows = _TableRows(np.arange(_MIN_PART_FIELDS, dtype=float), np.ones((_MIN_PART_FIELDS, 3)))
    monkeypatch.setattr(_TableRows, "write", failing(in_child=True))
    with pytest.raises(OSError, match="child process failed"):
        _write_csv(tmp_path / "unit.csv", "krein-string unit", ["a", "b", "c", "d"], rows)
    assert_no_child()
    # the 3-mass string at _MIN_PART_FIELDS steps is three columns of
    # _MIN_PART_FIELDS + 1 rows, three parts
    steps = str(_MIN_PART_FIELDS)
    argv = ["forward", "--spec", spec_file, "--T", "1.0", "--steps", steps, "--out", str(tmp_path)]
    assert run(*argv) == 4
    assert capsys.readouterr().err.startswith("error_code=4 ")
    assert_no_child()
    monkeypatch.setattr(_TableRows, "write", failing(in_child=False))
    with pytest.raises(RuntimeError, match="part failed"):
        _write_csv(tmp_path / "unit.csv", "krein-string unit", ["a", "b", "c", "d"], rows)
    assert_no_child()


def test_write_csv_pins_the_parts_and_gives_the_mask_back(tmp_path, monkeypatch):
    # a split write runs part i on CPU i of the caller's mask (wrapping
    # around), this process's part on the first; the caller places each
    # child after forking it, so a child's part waits (at most about 2 s)
    # until its mask is one CPU. Afterwards the caller's mask is what it
    # was, also when a child or this process's part fails
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    parent = os.getpid()
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    rows = _TableRows(np.arange(2 * _MIN_PART_FIELDS, dtype=float), np.ones(2 * _MIN_PART_FIELDS))
    path = tmp_path / "unit.csv"

    def write_mask(self, fh):
        deadline = time.monotonic() + 2.0
        while len(os.sched_getaffinity(0)) > 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        fh.write(f"{sorted(os.sched_getaffinity(0))}\n".encode())

    monkeypatch.setattr(_TableRows, "write", write_mask)
    _write_csv(path, "krein-string unit", ["t", "r"], rows)
    masks = path.read_text(encoding="utf-8").splitlines()[2:]
    assert masks == [str([cpus[i % len(cpus)]]) for i in range(3)]
    assert os.sched_getaffinity(0) == mask
    for in_child in (True, False):

        def fail(self, fh):
            if (os.getpid() != parent) == in_child:
                raise RuntimeError("part failed")

        monkeypatch.setattr(_TableRows, "write", fail)
        with pytest.raises(OSError if in_child else RuntimeError):
            _write_csv(path, "krein-string unit", ["t", "r"], rows)
        assert os.sched_getaffinity(0) == mask


def test_forward_peak_memory(tmp_path):
    # a 24-segment impulse trajectory at 10000 steps is 10001 x 23 floats
    # (1.8 MiB); writing its CSV a block at a time keeps the traced peak of
    # this process at about twice that (4.17 MiB measured, writing the first
    # of two parts on 2 CPUs; 4.16 MiB on one), where the whole table as
    # Python floats and text took 24.9 MiB.  The RK4 oracle under a gauss
    # control peaks at 3.97 MiB: its block scan keeps the positions and
    # O(sqrt(n)) states, where a (10001 x 46) state history would add 3.5 MiB
    rng = np.random.default_rng(24)
    path = tmp_path / "string.txt"
    lengths, masses = rng.uniform(0.2, 1.0, 24).tolist(), rng.uniform(0.2, 1.0, 23).tolist()
    path.write_text(f"lengths={','.join(map(repr, lengths))}\nmasses={','.join(map(repr, masses))}\n")
    argv = ["forward", "--spec", str(path), "--T", "4.0", "--steps", "10000", "--out", str(tmp_path)]
    ode = ["--control", "gauss:0.3,0.1", "--solver", "ode"]
    for extra, bound in (([], 6 * 2**20), (ode, 4.5 * 2**20)):
        tracemalloc.start()
        try:
            assert run(*argv, *extra) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len((tmp_path / "trajectory.csv").read_text().splitlines()) == 10003
        assert peak < bound, (extra, peak / 2**20)


def test_forward_and_response_columns_are_the_library_arrays(tmp_path, spec_file):
    spec = read_spec_file(spec_file)
    mats = build_matrices(spec)
    data = compute_spectral_data(mats)
    l1 = float(spec.lengths[0])
    grid = TimeGrid(1.0, 800)
    control = Waveform(grid, parse_test_function("gauss:0.3,0.1")(grid.times))
    common = ["--spec", spec_file, "--T", "1.0", "--steps", "800"]
    gauss = ["--control", "gauss:0.3,0.1"]
    cases = {
        "spectral": (gauss, solve_forward_spectral(mats, data, control, l1)),
        "delta": ([], solve_forward_delta(data, l1, grid)),
        "ode": ([*gauss, "--solver", "ode"], solve_forward_ode(mats, control, l1)),
    }
    for name, (extra, traj) in cases.items():
        out = tmp_path / name
        assert run("forward", *common, *extra, "--out", str(out)) == 0
        got = csv_floats(out / "trajectory.csv")
        assert np.array_equal(got, np.column_stack([grid.times, traj.states])), name

    out = tmp_path / "response"
    assert run("response", "--spec", spec_file, "--T", "4.0", "--steps", "2000", "--out", str(out)) == 0
    fine = TimeGrid(4.0, 2000)
    r = response_function(data, l1, fine)
    assert np.array_equal(csv_floats(out / "response.csv"), np.column_stack([fine.times, r.values]))

    out = tmp_path / "spectral"
    assert run("spectral", "--spec", spec_file, "--out", str(out)) == 0
    k = np.arange(1, data.n_modes + 1)
    expected = np.column_stack([k, data.eigenvalues, data.weights])
    assert np.array_equal(csv_floats(out / "spectral.csv"), expected)


def test_every_command_writes_the_csv_contract(tmp_path, spec_file):
    out = tmp_path / "out"
    assert run("roundtrip", "--spec", spec_file, "--T", "2.0", "--steps", "1200", "--out", str(out)) == 0
    for name in ("recovery.csv", "singular_values.csv"):
        csv_fields(out / name)
    sweeps = {"1": [], "2": ["--xi", "gauss:0.0,0.3"], "3": ["--xi", "gauss:0.0,0.3"], "4": ["--k", "2"]}
    for prop, extra in sweeps.items():
        assert run("uniform-sweep", "--prop", prop, "--N", "8,16", *extra, "--out", str(out)) == 0
        header, rows = csv_fields(out / f"uniform_prop{prop}.csv")
        assert header == ["N", "target", "value", "abs_error"]
        assert [row[0] for row in rows] == ["8", "16"]


# ---------------------------------------------------------------------------
# Header lines: the configuration echo every CSV opens with, pinned byte for
# byte; {spec}, {response} and {out} stand for the shell-quoted paths of each
# run.  Each header is the command line that reruns its files.

GOLDEN_HEADERS = {
    "spectral": (
        ["spectral", "--spec", "{spec}", "--out", "{out}"],
        "spectral.csv",
        "# krein-string spectral --spec {spec} --out {out}",
    ),
    "forward-spectral": (
        ["forward", "--spec", "{spec}", "--T", "1.0", "--steps", "800", "--out", "{out}"],
        "trajectory.csv",
        "# krein-string forward --spec {spec} --T 1.0 --steps 800 --control delta "
        "--solver spectral --out {out}",
    ),
    "forward-ode": (
        ["forward", "--spec", "{spec}", "--T", "1", "--steps", "800",
         "--control", "gauss:0.3,0.1", "--solver", "ode", "--out", "{out}"],
        "trajectory.csv",
        "# krein-string forward --spec {spec} --T 1.0 --steps 800 "
        "--control gauss:0.3,0.1 --solver ode --out {out}",
    ),
    "response": (
        ["response", "--spec", "{spec}", "--T", "4.0", "--steps", "2000", "--out", "{out}"],
        "response.csv",
        "# krein-string response --spec {spec} --T 4.0 --steps 2000 --out {out}",
    ),
    "invert": (
        ["invert", "--response", "{response}", "--l1", "0.5", "--steps", "100",
         "--out", "{out}"],
        "recovery.csv",
        "# krein-string invert --response {response} --l1 0.5 --steps 100 "
        "--threshold 1e-08 --out {out}",
    ),
    "roundtrip": (
        ["roundtrip", "--spec", "{spec}", "--T", "2.0", "--steps", "900", "--out", "{out}"],
        "recovery.csv",
        "# krein-string roundtrip --spec {spec} --T 2.0 --steps 900 --oversample 8 "
        "--noise 0.0 --seed 0 --threshold 1e-08 --out {out}",
    ),
    "roundtrip-noisy": (
        ["roundtrip", "--spec", "{spec}", "--T", "2.0", "--steps", "900",
         "--noise", "1e-6", "--seed", "3", "--threshold", "1e-4", "--out", "{out}"],
        "recovery.csv",
        "# krein-string roundtrip --spec {spec} --T 2.0 --steps 900 --oversample 8 "
        "--noise 1e-06 --seed 3 --threshold 0.0001 --out {out}",
    ),
    "uniform-sweep": (
        ["uniform-sweep", "--prop", "4", "--N", "8,16", "--k", "2", "--out", "{out}"],
        "uniform_prop4.csv",
        "# krein-string uniform-sweep --prop 4 --N 8,16 --xi gauss:0.0,0.3 --t 0.3 "
        "--k 2 --out {out}",
    ),
}


@pytest.mark.parametrize("case", list(GOLDEN_HEADERS))
def test_golden_header(case, tmp_path, spec_file, small_response):
    argv, name, header = GOLDEN_HEADERS[case]
    paths = {"spec": spec_file, "response": small_response(), "out": str(tmp_path / "out")}
    assert run(*(arg.format(**paths) for arg in argv)) == 0
    files = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    lines = {file_name: body.decode("utf-8").splitlines()[0] for file_name, body in files.items()}
    header = header.format(**{key: shlex.quote(path) for key, path in paths.items()})
    assert lines[name] == header
    # every CSV of one run echoes the same configuration
    assert set(lines.values()) == {header}
    # and the echo, fed back to the command line, rewrites every file as it was
    assert run(*shlex.split(header.removeprefix("# krein-string "))) == 0
    for file_name, body in files.items():
        assert (tmp_path / "out" / file_name).read_bytes() == body, file_name


def test_only_roundtrip_takes_a_seed(tmp_path, spec_file, capsys):
    # --seed seeds roundtrip's noise draw; the other commands reject it
    out = str(tmp_path / "out")
    assert run("forward", "--spec", spec_file, "--T", "1.0", "--steps", "800", "--seed", "1", "--out", out) == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert run("spectral", "--spec", spec_file, "--seed", "1", "--out", out) == 2
    assert run("uniform-sweep", "--prop", "2", "--N", "8", "--seed", "1", "--out", out) == 2
    assert not (tmp_path / "out").exists()


def test_benchmark_tracer_fits_the_commands(tmp_path, monkeypatch, spec_file):
    # perfbench's tracer, imported from the checkout as it stands, rebinds
    # names of cli and the library to timing wrappers, subclasses
    # ConnectorFactorization as (connector, reg=None), and its _write_csv
    # hands on every table as a list of rows: each traced command still
    # exits 0 and writes the untraced bytes (the long tables of which are
    # split in up to three parts), the roundtrip's one factorization and the
    # Bessel sweep are counted, and restore() puts every name back
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    from tracing import Instrumentation, Tracer, layer_metrics

    from krein_string import forward, inverse, uniform

    common = ["--spec", spec_file, "--T", "1.0"]
    gauss = ["--control", "gauss:0.3,0.1"]
    commands = {
        "gauss": ["forward", *common, "--steps", "70000", *gauss],
        "delta": ["forward", *common, "--steps", "70000"],
        "ode": ["forward", *common, "--steps", "2000", *gauss, "--solver", "ode"],
        "response": ["response", *common, "--steps", "70000"],
        "roundtrip": ["roundtrip", *common, "--steps", "400"],
        "uniform": ["uniform-sweep", "--prop", "1", "--N", "8,16"],
        "bessel": ["uniform-sweep", "--prop", "4", "--N", "8,16"],
    }

    def outputs():
        # both runs write to the same paths, which the files' echo lines hold
        for name, argv in commands.items():
            assert cli.main([*argv, "--out", str(tmp_path / name)]) == 0, name
        return {p.relative_to(tmp_path): p.read_bytes() for p in sorted(tmp_path.rglob("*.csv"))}

    untraced = outputs()
    modules = (cli, forward, inverse, uniform)
    names = [dict(vars(module)) for module in modules]
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    try:
        traced = outputs()
    finally:
        instrumentation.restore()
    assert [dict(vars(module)) for module in modules] == names
    assert traced == untraced
    # every table passed through the tracer's counting writer
    rows = [line for body in traced.values() for line in body.splitlines()[2:]]
    assert tracer.counts["cli.rows_written"] == sum(not line.startswith(b"#") for line in rows)
    metrics = layer_metrics(tracer)
    assert metrics["inverse.factor_calls"] == 1
    assert metrics["bessel.ladder_calls"] == 2  # one per N
    spans = {span[0] for span in tracer.spans}
    assert {"cli.main", "forward.solve_forward_spectral", "forward.solve_forward_ode"} <= spans

