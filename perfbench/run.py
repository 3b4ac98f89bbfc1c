"""Benchmark for rmflab.

Runs one workload through the CLI entry point `rmflab.harness.main` in a
closed loop with one client (the next pass starts when the previous one and
its output checks are done), in this one process, with workers=1. Prints
each metric by name with its unit, then one JSON line as the last line.

    python3 perfbench/run.py --workload clt --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: rmflab is imported from ./src.
With --trace 0 the passes are untraced and the end-to-end metrics are
reported. With --trace 1 untraced and traced passes alternate and the
per-layer metrics are reported, with the tracing overhead. Spans and scratch
report files go to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import probe
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_IMPORTS = 7
IMPORT_TIMER = ("import time; t = time.perf_counter(); import rmflab; "
                "print(time.perf_counter() - t)")


def measure_setup_s() -> tuple[list[float], list[float]]:
    """Times for a fresh interpreter to import rmflab, numpy included, raw
    and rescaled to the reference speed. One untimed import first writes the
    bytecode caches."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled = [], []
    before = probe.probe_s()
    for i in range(SETUP_IMPORTS + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        after = probe.probe_s()
        if i:
            raw.append(float(done.stdout))
            scaled.append(probe.rescaled(raw[-1], before, after))
        before = after
    return raw, scaled


def file_digest(paths: list[Path]) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for p in paths:
        data = p.read_bytes()
        h.update(p.name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


class Run:
    """The passes of one benchmark run, their walls, and every failure."""

    def __init__(self, main, workloads, workload: str, seed: int):
        self.main = main
        self.seed = seed
        self.calls = workloads.calls_for(workload, seed)
        self.checker = workloads.Checker(seed)
        self.check_failed = workloads.CheckFailed
        self.tracer = spans.Tracer()
        # raw pass walls, and the same rescaled to the reference speed
        self.walls: dict[bool, list[float]] = {False: [], True: []}
        self.scaled: dict[bool, list[float]] = {False: [], True: []}
        self.layer_passes: list[dict[str, float]] = []
        self.digests: list[str | None] | None = None
        self.attempted = 0
        self.failed = 0

    def one_pass(self, traced: bool) -> None:
        """Run and check one pass. An invocation fails on a nonzero exit, an
        exception, a failed output check, report bytes that differ from the
        first pass, or a traced pass whose work counters do not repeat."""
        problems: list[list[str]] = [[] for _ in self.calls]
        digests: list[str | None] = [None] * len(self.calls)
        counts = {"harness.bytes_written": 0, "stein.skipped": 0}
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            bases = [str(Path(tmp) / f"{i}-{c.command}") for i, c in enumerate(self.calls)]
            codes = self._invoke(bases, traced)
            for i, (call, base, code) in enumerate(zip(self.calls, bases, codes)):
                if code != 0:
                    problems[i].append(f"exit code {code}")
                    continue
                try:
                    for name, n in self.checker.check(call, base).items():
                        counts[name] += n
                    digests[i], size = file_digest([Path(base + s) for s in call.suffixes])
                except self.check_failed as e:
                    problems[i].append(str(e))
                    continue
                counts["harness.bytes_written"] += size

        if self.digests is None:
            self.digests = digests
        for i, (first, this) in enumerate(zip(self.digests, digests)):
            if None not in (first, this) and this != first:
                problems[i].append("report bytes differ from the first pass")
        if traced:
            metrics = self.tracer.pass_metrics(counts)
            sieve_s = sum(self.checker.s_count(c.x, c.y) for c in self.calls)
            wrong = []
            if metrics["numtheory.s_count"] != sieve_s:
                wrong.append(f"factor tables hold S = {metrics['numtheory.s_count']}, "
                             f"the sieve gives {sieve_s}")
            if self.layer_passes:
                wrong += [f"work counter {n} differs from the first traced pass"
                          for n in spans.COUNTERS if metrics[n] != self.layer_passes[0][n]]
            for p in problems:
                p.extend(wrong)
            self.layer_passes.append(metrics)

        self.attempted += len(self.calls)
        for call, p in zip(self.calls, problems):
            if p:
                self.failed += 1
                print(f"FAILED: {call}: {'; '.join(p)}", file=sys.stderr)

    def _invoke(self, bases: list[str], traced: bool) -> list[int | None]:
        """Call main once per call and record the pass wall, from the first
        call to the last return. Returns the exit codes, None where main
        raised."""
        argvs = [c.argv(self.seed, b) for c, b in zip(self.calls, bases)]
        codes: list[int | None] = []
        gc.collect()
        before = probe.probe_s()
        with contextlib.ExitStack() as stack:
            program_output = io.StringIO()
            stack.enter_context(contextlib.redirect_stdout(program_output))
            stack.enter_context(contextlib.redirect_stderr(program_output))
            if traced:
                stack.enter_context(self.tracer.traced_pass())
            t0 = time.perf_counter()
            for argv in argvs:
                try:
                    with self.tracer.span(spans.ROOT_SPAN) if traced else contextlib.nullcontext():
                        codes.append(self.main(argv))
                except Exception:
                    codes.append(None)
                    print(traceback.format_exc(), file=sys.__stderr__)
            wall = time.perf_counter() - t0
        self.walls[traced].append(wall)
        self.scaled[traced].append(probe.rescaled(wall, before, probe.probe_s()))
        return codes


def describe(values: list[float]) -> str:
    if len(values) < 2:
        return "1 sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4g}, q3 {q3:.4g}, max {max(values):.4g}, {len(values)} samples"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rmflab" / "__init__.py").is_file():
        print(f"error: no rmflab source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from rmflab import harness

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)

    traced = bool(args.trace)
    setup_raw, setup_scaled = ([], []) if traced else measure_setup_s()
    run = Run(harness.main, workloads, args.workload, args.seed)
    deadline = time.perf_counter() + args.seconds
    longest = 0.0
    # a pass starts only if, judged by the longest so far, it ends in time;
    # a traced run alternates untraced and traced passes and needs one of each
    while (time.perf_counter() + longest <= deadline
           or not run.walls[traced] or not run.walls[False]):
        begun = time.perf_counter()
        run.one_pass(traced and len(run.walls[True]) < len(run.walls[False]))
        longest = max(longest, time.perf_counter() - begun)

    print(f"workload {args.workload}, seed {args.seed}: "
          + ", ".join(f"{c.command} x={c.x} y={c.y}" for c in run.calls))
    print(f"failed_frac {run.failed}/{run.attempted} invocations")
    for kind in (False, True) if traced else (False,):
        name = "traced" if kind else "untraced"
        print(f"{name} wall_s {statistics.median(run.walls[kind]):.6g} s raw "
              f"({describe(run.walls[kind])}); "
              f"ref_wall_s {statistics.median(run.scaled[kind]):.6g} s "
              f"({describe(run.scaled[kind])})")

    ref_wall = statistics.median(run.scaled[False])
    if traced:
        overhead = statistics.median(run.scaled[True]) - ref_wall
        metrics = spans.summarize(run.layer_passes, overhead)
        units = spans.LAYER_METRICS
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                    "fields": ["name", "start_s", "end_s", "parent", "pass"],
                                    "spans": run.tracer.spans}) + "\n")
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        numbers = sum(c.y for c in run.calls)
        trials = sum(c.trials for c in run.calls)
        metrics = {
            "ref_wall_s": ref_wall,
            "ref_numbers_per_s": numbers / ref_wall,
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"ref_wall_s": "s", "ref_numbers_per_s": "1/s", "setup_s": "s",
                 "peak_rss_mb": "MB"}
        print(f"  ({numbers} interval numbers and {trials} trials per pass; "
              f"ref_trials_per_s {trials / ref_wall:.6g} 1/s)")
        print(f"  setup_s {statistics.median(setup_raw):.6g} s raw ({describe(setup_raw)}); "
              f"rescaled: {describe(setup_scaled)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
