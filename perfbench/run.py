"""Benchmark of the krein-string CLI: end-to-end per workload, per layer traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One closed-loop caller drives ``krein_string.cli.main(argv)`` in this
process, one case after another: the run's cycles of the workload once,
then again, a whole cycle at a time, until ``--seconds`` have passed.
Every case's output is checked.  With ``--trace 0`` the last stdout line
holds the end-to-end metrics; with ``--trace 1`` the layer boundaries are
wrapped (see ``tracing.py``) and it holds the per-layer metrics.  ``--workload all`` runs every workload both
ways, each in a fresh process, and prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import betainc

from tracing import Instrumentation, Tracer, layer_metrics
from workloads import WORKLOADS, Invalid

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples the tail percentile must leave above it

# The host's speed drifts: on the 2-CPU machine the benchmark was tuned on,
# a fixed pure-Python loop takes 0.010 s in fast phases and up to 0.017 s in
# slow ones, which last from seconds to minutes, and BLAS-bound work drifts
# too, by less and not in step with it.  So a reference kernel of the kind
# of work the workload's calls are bound by (``Workload.reference``) is
# timed, best of two runs, just before and just after each call.  The call's
# time scaled by the kernel's reference time over the mean of those two is
# its time at the reference speed.
MATRIX = np.random.default_rng(0).standard_normal((400, 400))


def _interpreter_kernel() -> None:
    total = 0
    for i in range(150_000):
        total += i * i


def _blas_kernel() -> None:
    MATRIX @ MATRIX


# kind -> (kernel, its time at the reference speed in seconds)
REFERENCES = {"interpreter": (_interpreter_kernel, 0.010), "blas": (_blas_kernel, 0.0015)}


def _blas() -> list:
    """BLAS libraries loaded into this process and their thread counts."""
    found = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "blas" in line.lower()})
        paths = [p for p in paths if Path(p).name.startswith("lib")]
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = None
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        found.append({"library": Path(path).name, "threads": threads})
    return found


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "load": "one closed-loop caller in one process",
    }


def kernel_seconds(kernel) -> float:
    """Best of two runs of a reference kernel: the host's speed now."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of the
    order statistics, steadier than any single one of them."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    edges = betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def setup_seconds(root: Path) -> tuple[float, float]:
    """Median time of a fresh interpreter importing the package, at the
    interpreter's reference speed and raw.  Importing is interpreted work
    whatever the workload, so the interpreter kernel times the host around
    each start."""
    kernel, reference_s = REFERENCES["interpreter"]
    code = "import sys; sys.path.insert(0, 'src'); import krein_string, krein_string.cli"
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        kernel_before = kernel_seconds(kernel)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, check=True)
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * reference_s / ((kernel_before + kernel_seconds(kernel)) / 2.0))
    return statistics.median(scaled), statistics.median(raw)


def run_case(case, out: Path, reference: str):
    """Time one CLI call and check its output; returns a result record."""
    from krein_string import cli

    kernel, reference_s = REFERENCES[reference]
    shutil.rmtree(out, ignore_errors=True)
    kernel_before = kernel_seconds(kernel)
    stdout, stderr = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = cli.main(case.argv)
        except Exception as exc:  # an escaped exception is a failed case
            code, crash = None, exc
        elapsed = time.perf_counter() - start
    speed = reference_s / ((kernel_before + kernel_seconds(kernel)) / 2.0)
    record = {"label": case.label, "s": elapsed, "ref_s": elapsed * speed, "speed": speed, "values": {}}
    if crash is not None:
        record.update(status="fail", reason=f"crash {type(crash).__name__}: {crash}")
    elif code != 0:
        detail = stderr.getvalue().strip().splitlines()
        record.update(status="fail", reason=f"exit {code}: {detail[-1] if detail else ''}")
    else:
        try:
            outcome = case.check(stdout.getvalue(), out)
            record.update(status=outcome.status, reason=outcome.reason, values=outcome.values)
        except Invalid as exc:
            record.update(status="invalid", reason=str(exc))
        record["bytes"] = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
    shutil.rmtree(out, ignore_errors=True)
    return record


def measure(workload, seconds: float, tracer=None) -> list:
    """Warm up, run the run's cycles once, then run them again from the
    first, a whole cycle at a time, until ``seconds`` have passed."""
    cycles = [workload.cycle(index) for index in range(workload.cycles_for(seconds))]
    for case in workload.warmup(len(cycles)):
        run_case(case, workload.out, workload.reference)
    if tracer is not None:
        tracer.reset()
    records = []
    start = time.perf_counter()
    turn = 0
    while turn < len(cycles) or time.perf_counter() - start < seconds:
        index = turn % len(cycles)
        for slot, case in enumerate(cycles[index]):
            record = run_case(case, workload.out, workload.reference)
            record["case"] = f"{index}-{slot}"
            records.append(record)
        turn += 1
    return records


def tally(records) -> tuple[int, int]:
    """Distinct cases attempted and failed; a case fails if any of its calls
    did not pass.  Both depend only on the seed and the run length."""
    failed = {}
    for r in records:
        failed[r["case"]] = failed.get(r["case"], False) or r["status"] != "pass"
    return len(failed), sum(failed.values())


def _max_value(records, key, passing_only=False) -> float:
    """Largest ``key`` over the cases that report it (0 when none does)."""
    values = [
        r["values"][key]
        for r in records
        if key in r["values"] and (r["status"] == "pass" or not passing_only)
    ]
    return max(values, default=0.0)


def timings(records, key: str) -> dict:
    """The bounded timings over the run's calls, at the workload's fixed mix.

    A failed call is timed as the median passing call of its configuration
    (all of that configuration's calls when none passed): a failure that
    stops early, such as a degenerate spectrum, would otherwise tilt the mix
    toward cheap calls by a seed-dependent amount.  The run stops at a cycle
    boundary, so every configuration counts equally.
    """
    by_label = {}
    for r in records:
        by_label.setdefault(r["label"], []).append(r)
    typical = {}
    for label, group in by_label.items():
        passing = [r[key] for r in group if r["status"] == "pass"]
        typical[label] = statistics.median(passing or [r[key] for r in group])
    times = [r[key] if r["status"] == "pass" else typical[r["label"]] for r in records]
    # with fewer than 2 * TAIL_BEYOND calls no tail percentile exists; the
    # median then stands in, with half of the calls beyond it
    beyond = min(TAIL_BEYOND, len(times) // 2)
    tail_p = (len(times) - beyond) / len(times)
    return {
        "calls_per_s": len(times) / sum(times),
        "case_s_p50": hd_quantile(times, 0.5),
        "case_s_tail": hd_quantile(times, tail_p),
        "tail_percentile": 100.0 * tail_p,
        "samples": len(times),
        "beyond": beyond,
    }


def end_to_end(records, setup: tuple[float, float], reference: str) -> tuple[dict, dict]:
    """Contract metrics and the full report, which adds the outcome figures
    and the raw timings.  ``cases_per_s`` (passed calls per busy second, as
    measured) and ``fail_frac`` are reported, not bounded: which seeded
    strings pass varies too much from seed to seed."""
    scaled, raw = timings(records, "ref_s"), timings(records, "s")
    passed = sum(r["status"] == "pass" for r in records)
    attempted, failed = tally(records)
    values = {
        "setup_s": setup[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **{name: scaled[name] for name in ("calls_per_s", "case_s_p50", "case_s_tail")},
    }
    contract = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in CONTRACT["end_to_end"]}
    report = {name: dict(entry) for name, entry in contract.items()}
    report["case_s_tail"].update(
        percentile=scaled["tail_percentile"], samples=scaled["samples"], beyond=scaled["beyond"]
    )
    report["raw"] = {m: raw[m] for m in ("calls_per_s", "case_s_p50", "case_s_tail")}
    report["raw"]["setup_s"] = setup[1]
    report["host_speed"] = {
        "value": statistics.median(r["speed"] for r in records),
        "unit": "ratio",
        "reference": reference,
    }
    report["cases_per_s"] = {"value": passed / sum(r["s"] for r in records), "unit": "1/s"}
    report["fail_frac"] = {"value": failed / attempted, "unit": "ratio", "failed": failed, "attempted": attempted}
    for name, key, unit, passing_only in (
        ("err_m_max", "err_m", "rel", True),
        ("err_l_max", "err_l", "rel", True),
        ("oracle_gap_max", "oracle_gap", "abs", False),
        ("uniform_dev_max", "uniform_dev", "abs", False),
    ):
        if any(key in r["values"] for r in records):
            report[name] = {"value": _max_value(records, key, passing_only), "unit": unit}
    return contract, report


def per_layer(records, tracer) -> dict:
    values = layer_metrics(tracer)
    recovered = [r["values"]["rank_ok"] for r in records if "rank_ok" in r["values"]]
    values.update(
        {
            "cli.bytes_written": sum(r.get("bytes", 0) for r in records),
            "forward.oracle_gap_max": _max_value(records, "oracle_gap"),
            "inverse.rank_ok_frac": sum(recovered) / len(recovered) if recovered else 0.0,
            "inverse.err_m_max": _max_value(records, "err_m", passing_only=True),
            "inverse.err_l_max": _max_value(records, "err_l", passing_only=True),
            "bessel.dev_max": _max_value(records, "uniform_dev"),
            "trace.calls_per_s": timings(records, "ref_s")["calls_per_s"],
        }
    )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in CONTRACT["per_layer"]}


def run_one(args, root: Path) -> int:
    sys.path.insert(0, str(root / "src"))
    import krein_string.cli  # noqa: F401  (compiles the package before set-up is timed)

    setup = setup_seconds(root) if not args.trace else None
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        workload.prepare()
        tracer = instrumentation = None
        if args.trace:
            tracer = Tracer()
            instrumentation = Instrumentation(tracer)
        try:
            records = measure(workload, args.seconds, tracer)
        finally:
            if instrumentation is not None:
                instrumentation.restore()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env " + json.dumps(environment(args)))
    failures = {}
    for r in records:
        if r["status"] != "pass":
            key = f"{r['label']}: {r['status']} {r['reason'][:80]}"
            failures[key] = failures.get(key, 0) + 1
    print("failures " + json.dumps(failures))
    if args.trace:
        spans = HERE / ".spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(exist_ok=True)
        spans.write_text(json.dumps(tracer.spans), encoding="utf-8")
        print(f"spans {spans.relative_to(root)}")
        metrics = per_layer(records, tracer)
    else:
        metrics, report = end_to_end(records, setup, workload.reference)
        print("report " + json.dumps(report))
    attempted, failed = tally(records)
    result = {
        "correct": all(r["status"] != "invalid" for r in records),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args, root: Path) -> int:
    """Every workload untraced and traced, each run in a fresh process."""
    table = {}
    for name in WORKLOADS:
        table[name] = {}
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            for line in lines[:-1]:
                tag, _, body = line.partition(" ")
                if tag in ("env", "report", "failures"):
                    table[name][f"{tag}{trace}"] = json.loads(body)
            table[name][f"result{trace}"] = result
    for name, runs in table.items():
        print(f"== {name}  seed={args.seed}  env={json.dumps(runs['env0'])}")
        for metric, entry in runs["report0"].items():
            if "value" not in entry:
                print(f"  {metric:24s} {json.dumps(entry)}")
                continue
            extra = {k: v for k, v in entry.items() if k not in ("value", "unit")}
            print(f"  {metric:24s} {entry['value']:<14.6g} {entry['unit']:6s} {json.dumps(extra) if extra else ''}")
        untraced = runs["report0"]["calls_per_s"]["value"]
        traced = runs["result1"]["metrics"]["trace.calls_per_s"]["value"]
        print(f"  {'trace_overhead':24s} {untraced / traced:<14.4g} ratio  (untraced / traced calls_per_s)")
        for metric, entry in runs["result1"]["metrics"].items():
            print(f"  {metric:24s} {entry['value']:<14.6g} {entry['unit']}")
        for key, count in runs["failures0"].items():
            print(f"  failed x{count}: {key}")
    print(json.dumps({name: {"report": runs["report0"], "per_layer": runs["result1"]["metrics"]}
                      for name, runs in table.items()}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "krein_string" / "cli.py").is_file():
        print(f"no krein_string sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(args, root)


if __name__ == "__main__":
    sys.exit(main())
