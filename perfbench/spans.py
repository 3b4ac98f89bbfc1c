"""Per-layer spans recorded from outside rmflab.

During a traced pass the benchmark replaces, with timing wrappers, the
attributes through which `rmflab.harness` reaches each layer, and restores
them afterwards; untraced passes run the program untouched. Spans are kept
in memory as [name, start, end, parent, pass] and written when the run
ends. A span's self time is its duration minus that of its child spans;
each layer metric sums self times, so nested calls are never counted twice.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import time
from collections import Counter
from contextlib import contextmanager


def _incidence(table) -> tuple[set[int], int]:
    """Distinct primes of the square-free entries, and their total count."""
    squarefree = list(itertools.compress(table.entries, table.flags))
    return {p for fac in squarefree for p, _ in fac}, sum(map(len, squarefree))


def _count_table(tracer: "Tracer", args, table) -> None:
    primes, nnz = _incidence(table)
    c = tracer.counts
    c["numtheory.numbers"] += table.y_len
    c["numtheory.s_count"] += table.squarefree_count
    c["numtheory.distinct_primes"] += len(primes)
    c["numtheory.incidence_nnz"] += nnz


def _count_sampler(tracer: "Tracer", args, _result) -> None:
    sampler, table = args[0], args[1]
    tracer.sampler_nnz[id(sampler)] = _incidence(table)[1]


def _count_trials(tracer: "Tracer", args, _result) -> None:
    sampler, count = args[0], args[2]
    tracer.counts["rmf_core.trials"] += count
    tracer.counts["rmf_core.trial_nnz"] += count * tracer.sampler_nnz[id(sampler)]


def _count_nondiagonal(tracer: "Tracer", args, result) -> None:
    tracer.counts["quadruples.nondiagonal"] += result


# (module, attribute the harness resolves at call time, layer metric, counter
# hook). The harness imports segmented_factorize and IntervalSampler by name
# and reaches the other layers through their module objects.
TARGETS = (
    ("rmflab.harness", "run_simulate", "harness.self_s", None),
    ("rmflab.harness", "run_moments", "harness.self_s", None),
    ("rmflab.harness", "run_stein_checks", "harness.self_s", None),
    ("rmflab.harness", "emit", "harness.emit_s", None),
    ("rmflab.harness", "_emit_or_print", "harness.emit_s", None),
    ("rmflab.harness", "segmented_factorize", "numtheory.factorize_s", _count_table),
    ("rmflab.rmf_core", "IntervalSampler.__init__", "rmf_core.sampler_build_s", _count_sampler),
    ("rmflab.rmf_core", "IntervalSampler.raw_sums", "rmf_core.raw_sums_s", _count_trials),
    ("rmflab.distances", "SampleSet.from_values", "distances.sample_build_s", None),
    ("rmflab.distances", "kolmogorov_stat", "distances.kolmogorov_s", None),
    ("rmflab.distances", "wasserstein1", "distances.wasserstein1_s", None),
    ("rmflab.quadruples", "param_enumerate_nondiagonal", "quadruples.enumerate_s",
     _count_nondiagonal),
    ("rmflab.quadruples", "oracle_count_square_quadruples", "quadruples.oracle_s", None),
    ("rmflab.stein", "subset_weight_identity", "stein.weight_identity_s", None),
    ("rmflab.stein", "conditional_moments_check", "stein.conditional_moments_s", None),
    ("rmflab.stein", "decomposition_sides", "stein.decomposition_s", None),
    ("rmflab.stein", "stein_terms", "stein.stein_terms_s", None),
    ("rmflab.stein", "exchange_variance_monte_carlo", "stein.exchange_variance_s", None),
    ("rmflab.bounds", "wasserstein_bound", "bounds.eval_s", None),
    ("rmflab.bounds", "kolmogorov_bound", "bounds.eval_s", None),
    ("rmflab.bounds", "nondiagonal_bound", "bounds.eval_s", None),
    ("rmflab.bounds", "delta3_sum_bound", "bounds.eval_s", None),
    ("rmflab.bounds", "exchange_variance_bound", "bounds.eval_s", None),
)
ROOT_SPAN = "rmflab.harness.main"
COUNTER_SPAN = "perfbench.counters"

# Layer metrics in report order, with units. Counters repeat exactly for a
# seed; the times are medians over the traced passes of a run.
LAYER_METRICS = {
    "numtheory.factorize_s": "s",
    "numtheory.ns_per_number": "ns",
    "numtheory.numbers": "count",
    "numtheory.s_count": "count",
    "numtheory.distinct_primes": "count",
    "numtheory.incidence_nnz": "count",
    "rmf_core.sampler_build_s": "s",
    "rmf_core.raw_sums_s": "s",
    "rmf_core.ns_per_trial_nnz": "ns",
    "rmf_core.trials": "count",
    "distances.sample_build_s": "s",
    "distances.kolmogorov_s": "s",
    "distances.wasserstein1_s": "s",
    "distances.passes_per_sample": "count",
    "quadruples.enumerate_s": "s",
    "quadruples.oracle_s": "s",
    "quadruples.nondiagonal": "count",
    "stein.weight_identity_s": "s",
    "stein.conditional_moments_s": "s",
    "stein.decomposition_s": "s",
    "stein.stein_terms_s": "s",
    "stein.exchange_variance_s": "s",
    "stein.skipped": "count",
    "bounds.eval_s": "s",
    "harness.self_s": "s",
    "harness.emit_s": "s",
    "harness.bytes_written": "bytes",
    "perfbench.trace_overhead_s": "s",
}
COUNTERS = tuple(name for name, unit in LAYER_METRICS.items() if unit in ("count", "bytes"))


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []
        self.pass_index = -1
        self.counts: Counter = Counter()
        self.sampler_nnz: dict[int, int] = {}
        self._open: list[int] = []
        self._pass_start = 0
        self._metric_of: dict[str, str] = {ROOT_SPAN: "harness.self_s"}

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter() - self.t0, None, parent, self.pass_index])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter() - self.t0

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                with self.span(COUNTER_SPAN):
                    hook(self, args, result)
            return result
        return traced

    @contextmanager
    def traced_pass(self):
        """Install the wrappers for one pass; counters restart at zero."""
        self.pass_index += 1
        self._pass_start = len(self.spans)
        self.counts = Counter()
        self.sampler_nnz.clear()
        restore = []
        try:
            for module_name, attr, metric, hook in TARGETS:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner)[leaf]
                name = f"{module_name}.{attr}"
                self._metric_of[name] = metric
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, hook))
                else:
                    wrapped = self._wrap(name, raw, hook)
                setattr(owner, leaf, wrapped)
                restore.append((owner, leaf, raw))
            yield
        finally:
            for owner, leaf, raw in reversed(restore):
                setattr(owner, leaf, raw)

    def pass_metrics(self, extra_counts: dict[str, int]) -> dict[str, float]:
        """Layer metrics of the current traced pass."""
        start = self._pass_start
        spans = self.spans[start:]
        own = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= 0:
                own[s[3] - start] -= s[2] - s[1]
        calls = Counter(s[0] for s in spans)
        out = {name: 0.0 for name, unit in LAYER_METRICS.items() if unit == "s"}
        for s, t in zip(spans, own):
            metric = self._metric_of.get(s[0])
            if metric is not None:
                out[metric] += t
        del out["perfbench.trace_overhead_s"]
        c = self.counts + Counter(extra_counts)
        for name in COUNTERS:
            out[name] = c[name]
        out["numtheory.ns_per_number"] = (
            out["numtheory.factorize_s"] * 1e9 / c["numtheory.numbers"]
            if c["numtheory.numbers"] else 0.0)
        out["rmf_core.ns_per_trial_nnz"] = (
            out["rmf_core.raw_sums_s"] * 1e9 / c["rmf_core.trial_nnz"]
            if c["rmf_core.trial_nnz"] else 0.0)
        samples = calls["rmflab.distances.SampleSet.from_values"]
        passes = calls["rmflab.distances.kolmogorov_stat"] + calls["rmflab.distances.wasserstein1"]
        out["distances.passes_per_sample"] = passes / samples if samples else 0.0
        return out


def summarize(per_pass: list[dict[str, float]], overhead_s: float) -> dict[str, float]:
    """Medians of the per-pass layer times; counters are taken as they are,
    since the caller has checked that they repeat."""
    out = {}
    for name in LAYER_METRICS:
        if name == "perfbench.trace_overhead_s":
            out[name] = overhead_s
        elif name in COUNTERS:
            out[name] = per_pass[0][name]
        else:
            out[name] = statistics.median(p[name] for p in per_pass)
    return out
