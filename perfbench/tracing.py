"""Per-layer tracing by rebinding module attributes of ``krein_string``.

Nothing under ``src/`` is edited: every public function a layer boundary
crosses is looked up through a module global at call time, so replacing
that global with a timing wrapper puts a span around each call.  Spans
(name, start, end, parent) stay in memory until ``layer_metrics`` reduces
them; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

# Span name -> (self-time metric, call-count metric or None).  Span names
# that share a metric are summed into it.
_SPAN_METRICS = {
    "cli.main": ("cli.self_s", None),
    "model.read_spec_file": ("model.s", None),
    "model.build_matrices": ("model.s", None),
    "spectral.compute_spectral_data": ("spectral.s", "spectral.calls"),
    "forward.response_function": ("forward.response_s", None),
    "forward.solve_forward_spectral": ("forward.modal_s", None),
    "forward.solve_forward_delta": ("forward.modal_s", None),
    "forward.causal_convolution": ("forward.conv_s", "forward.conv_calls"),
    "forward.solve_forward_ode": ("forward.rk4_s", None),
    "inverse.recover_string": ("inverse.recursion_s", None),
    "inverse.build_connector": ("inverse.connector_s", None),
    "inverse.factorize": ("inverse.factor_s", "inverse.factor_calls"),
    "inverse.solve": ("inverse.solve_s", "inverse.solves"),
    "bessel.bessel_j": ("bessel.scalar_s", "bessel.scalar_calls"),
    "bessel.bessel_j_grid": ("bessel.grid_s", None),
    "bessel.bessel_j_ladder": ("bessel.ladder_s", "bessel.ladder_calls"),
    "uniform.pair_response": ("uniform.pair_s", None),
    "uniform.pair_corrected_response": ("uniform.pair_s", None),
    "uniform.pair_solution_with_sine": ("uniform.pair_s", None),
    "uniform.delta_solution": ("uniform.closed_s", None),
    "uniform.uniform_eigen": ("uniform.eigen_s", None),
}

# Counters kept at the same boundaries; the last two hold an extreme, not a sum.
_COUNTERS = (
    "cli.rows_written",
    "spectral.failures",
    "forward.response_samples",
    "forward.modal_samples",
    "forward.rk4_steps",
    "inverse.kernel_bytes",
    "bessel.grid_points",
    "inverse.residual_max",
    "inverse.cut_gap_min",
)


@dataclass
class Tracer:
    """In-memory span log plus counters for one traced run."""

    spans: list = field(default_factory=list)  # [name, start, end, parent]
    counts: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def extreme(self, key: str, value: float, pick) -> None:
        self.counts[key] = pick(self.counts[key], value) if key in self.counts else value

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


def _wrap(tracer: Tracer, name: str, fn, count=None, on_error=None):
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            if on_error is not None:
                on_error()
            raise
        finally:
            tracer.close(index)
        if count is not None:
            count(args, result)
        return result

    return traced


class Instrumentation:
    """Rebinds the layer boundaries to traced wrappers; ``restore`` undoes it."""

    def __init__(self, tracer: Tracer):
        from krein_string import cli, forward, inverse, uniform

        self._saved = []
        t = tracer

        def samples(grid, data):
            return (grid.n_steps + 1) * data.n_modes

        def patch(module, attr, name, count=None, on_error=None):
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, _wrap(t, name, original, count, on_error))

        patch(cli, "main", "cli.main")
        patch(cli, "read_spec_file", "model.read_spec_file")
        patch(cli, "build_matrices", "model.build_matrices")
        patch(
            cli,
            "compute_spectral_data",
            "spectral.compute_spectral_data",
            on_error=lambda: t.add("spectral.failures", 1),
        )
        patch(
            cli,
            "response_function",
            "forward.response_function",
            lambda a, r: t.add("forward.response_samples", samples(a[2], a[0])),
        )
        patch(
            cli,
            "solve_forward_spectral",
            "forward.solve_forward_spectral",
            lambda a, r: t.add("forward.modal_samples", samples(a[2].grid, a[1])),
        )
        patch(
            cli,
            "solve_forward_delta",
            "forward.solve_forward_delta",
            lambda a, r: t.add("forward.modal_samples", samples(a[2], a[0])),
        )
        patch(
            cli,
            "solve_forward_ode",
            "forward.solve_forward_ode",
            lambda a, r: t.add("forward.rk4_steps", a[1].grid.n_steps),
        )
        patch(forward, "causal_convolution", "forward.causal_convolution")
        patch(cli, "recover_string", "inverse.recover_string")
        patch(
            inverse,
            "build_connector",
            "inverse.build_connector",
            lambda a, r: t.add("inverse.kernel_bytes", (a[2].n_steps + 1) ** 2 * 8),
        )
        patch(uniform, "bessel_j", "bessel.bessel_j")
        patch(uniform, "bessel_j_ladder", "bessel.bessel_j_ladder")
        patch(
            uniform,
            "bessel_j_grid",
            "bessel.bessel_j_grid",
            lambda a, r: t.add("bessel.grid_points", len(r)),
        )
        for attr in (
            "pair_response",
            "pair_corrected_response",
            "pair_solution_with_sine",
            "delta_solution",
            "uniform_eigen",
        ):
            patch(uniform, attr, f"uniform.{attr}")

        write_csv = cli._write_csv

        def counted_write(path, config, header, rows):
            rows = list(rows)
            t.add("cli.rows_written", len(rows))
            return write_csv(path, config, header, rows)

        self._saved.append((cli, "_write_csv", write_csv))
        cli._write_csv = counted_write

        base = inverse.ConnectorFactorization

        class TracedFactorization(base):
            def __init__(self, connector, reg=None):
                index = t.open("inverse.factorize")
                try:
                    super().__init__(connector, reg)
                finally:
                    t.close(index)
                sv, rank = self.singular_values, self.rank
                if 0 < rank < len(sv) and sv[rank] > 0.0:
                    t.extreme("inverse.cut_gap_min", float(sv[rank - 1] / sv[rank]), min)

            def solve(self, rhs_values):
                index = t.open("inverse.solve")
                try:
                    values, residual = super().solve(rhs_values)
                finally:
                    t.close(index)
                t.extreme("inverse.residual_max", residual, max)
                return values, residual

        self._saved.append((inverse, "ConnectorFactorization", base))
        inverse.ConnectorFactorization = TracedFactorization

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def layer_metrics(tracer: Tracer) -> dict:
    """Self time and call counts per layer metric, plus the counters."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for time_key, count_key in _SPAN_METRICS.values():
        out[time_key] = 0.0
        if count_key is not None:
            out[count_key] = 0
    for (name, start, end, _), children in zip(spans, child_time):
        time_key, count_key = _SPAN_METRICS[name]
        out[time_key] += (end - start) - children
        if count_key is not None:
            out[count_key] += 1
    for key in _COUNTERS:
        out[key] = tracer.counts.get(key, 0)
    return out
