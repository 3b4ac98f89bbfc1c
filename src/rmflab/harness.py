"""Experiment runner and CLI: configures an interval, runs seeded parallel
Monte Carlo trials, aggregates moments and distances, evaluates every bound,
and persists reports.

Reproducibility contract: (config, master_seed) determines every byte of
the emitted report files.  A trial's raw sum depends only on (master_seed,
trial index), so no split of the trials among workers changes a byte.
Wall-clock timings, the one non-deterministic quantity, go to stderr only:
every report writes "timing_ms" as null.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import distances as dist_mod
from . import quadruples as quad_mod
from . import stein as stein_mod
from .errors import ScaleError
from .numtheory import IntervalTable, segmented_factorize
from .rmf_core import IntervalSampler, SignSource

SCHEMA_VERSION = 1
# Most trials a run may ask for (simulate --trials, stein --var-trials); a
# larger count is refused before the factor table is built.  At the cap a
# simulate of (10^6, 10^6+10^3] writing json, csv and histogram peaks at
# about 110 MB RSS (2 s on 2 vCPUs).  The sampler's sign matrix is bounded
# per tile, so what grows with the trial count is the per-trial arrays and
# the CSV text.
MAX_TRIALS = 10**6
# Most trial worker processes simulate may fork (--workers), above any core
# count the lab targets; a larger count is refused before the factor table
# is built, so no run asks the OS for thousands of processes.
MAX_WORKERS = 64
# Monte Carlo trials of stein's exchange variance (--var-trials)
VAR_TRIALS = 2000
# stein checks the subset-weight identity for every |L| up to this
# (0.0006 s on 2 shared vCPUs); the report records it as weight_identity.max_l
IDENTITY_MAX_L = 30
HIST_BINS = 64
HIST_RANGE = (-5.0, 5.0)
# CSV rows built per byte-table block: 2^14 rows of at most ~30 bytes
CSV_CHUNK = 2**14

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SCALE = 3
EXIT_IO = 4


def _check_trials(trials: int) -> None:
    if trials > MAX_TRIALS:
        raise ScaleError(f"{trials} trials exceeds MAX_TRIALS = {MAX_TRIALS}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's interval (x, x+y], trial count, master seed, optional
    small/large prime threshold z and worker count.  Construction validates
    every field, once: a bad value is a ValueError, a trial or worker count
    past its cap a ScaleError.  The instance is frozen, and
    dataclasses.replace validates the new one again.  delta = y / x is
    derived, never given."""

    x: int
    y: int
    trials: int = 1
    master_seed: int = 0
    z_override: float | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.x < 2:
            raise ValueError(f"x must be >= 2, got {self.x}")
        if self.y < 1:
            raise ValueError(f"y must be >= 1, got {self.y}")
        if self.y >= self.x:
            raise ValueError(f"y must be < x, got y={self.y}, x={self.x}")
        if self.z_override is not None:
            z = self.z_override
            if not 0 < z < math.inf:
                raise ValueError(f"z must be finite and > 0, got {z}")
            # the exchange-variance comparator divides by z
            try:
                finite = math.isfinite(bounds_mod.exchange_variance_bound(self.x, self.delta, z))
            except OverflowError:
                finite = False
            if not finite:
                raise ValueError(f"the exchange-variance comparator overflows at z = {z} "
                                 f"(x = {self.x}, y = {self.y})")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        _check_trials(self.trials)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.workers > MAX_WORKERS:
            raise ScaleError(f"{self.workers} workers exceeds MAX_WORKERS = {MAX_WORKERS}")

    @property
    def delta(self) -> float:
        return self.y / self.x

    @property
    def z(self) -> float:
        if self.z_override is not None:
            return self.z_override
        return 0.5 * math.log(1.0 / self.delta)

    def as_dict(self) -> dict:
        # workers is an execution detail: reports must not depend on it
        return {
            "x": self.x,
            "y": self.y,
            "delta": self.delta,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "z": self.z,
        }


@dataclass
class ExperimentReport:
    config: dict
    s_count: int
    moments: dict
    exact: dict
    distances: dict
    bounds: dict
    ratios: dict
    # stage wall times (sieve, trials, analysis) for stderr; never serialized
    timing_ms: dict
    # W's (distinct, counts, row) from _lattice, kept for csv/histogram
    # emission; never serialized
    lattice: tuple = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config,
            "s_count": self.s_count,
            "moments": self.moments,
            "exact": self.exact,
            "distances": self.distances,
            "bounds": self.bounds,
            "ratios": self.ratios,
            "timing_ms": None,
        }

    @property
    def w_values(self) -> np.ndarray:
        """Per-trial W values, bit for bit raw / sqrt(S)."""
        distinct, _, row = self.lattice
        return distinct[row]

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------

_WORKER_STATE: dict = {}


def _range_worker(start: int, stop: int) -> np.ndarray:
    return _WORKER_STATE["sampler"].raw_sums(start, stop - start)


def _run_trials(table: IntervalTable, master_seed: int, trials: int,
                workers: int) -> np.ndarray:
    """Raw interval sums for trials 0..trials-1, one sampler call per worker
    over a contiguous range; a sum depends only on (seed, trial index)."""
    sampler = IntervalSampler(table, master_seed)
    n = min(workers, trials)
    if n == 1:
        return sampler.raw_sums(0, trials)
    import multiprocessing

    cuts = [trials * i // n for i in range(n + 1)]
    _WORKER_STATE["sampler"] = sampler
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=n) as pool:
        parts = pool.starmap(_range_worker, zip(cuts, cuts[1:]))
    _WORKER_STATE.clear()
    return np.concatenate(parts)


def _lattice(raw: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The values of W = raw / sqrt(S) that occur, ascending (one zero when
    S = 0), each one's trial count, and each trial's row in them: W lies on
    the S+1 points (S - 2j) / sqrt(S), and T trials visit at most
    min(S+1, T) of them.  distinct[row] is bit for bit raw / sqrt(S)."""
    j = (s - raw) >> 1
    counts = np.bincount(j)
    seen = counts > 0
    # W falls as j rises: the row of j is the number of visited j above it
    row = (np.count_nonzero(seen) - np.cumsum(seen))[j]
    occurs = np.flatnonzero(seen)[::-1]
    distinct = (s - 2 * occurs) / math.sqrt(s) if s else np.zeros(1)
    return distinct, counts[occurs], row


def _moment_block(distinct: np.ndarray, row: np.ndarray) -> dict:
    # each power of the values that occur once, gathered by row: w ** k
    powers = {k: (distinct ** k)[row] for k in (1, 2, 3, 4)}
    moments = {f"m{k}": float(p.mean()) for k, p in powers.items()}
    # one trial has no standard error; null keeps the report strict JSON
    moments["se"] = {
        f"m{k}": float(p.std(ddof=1) / math.sqrt(len(row))) if len(row) > 1 else None
        for k, p in powers.items()
    }
    return moments


def _distance_block(sample: dist_mod.SampleSet) -> dict:
    """KS and W1 distances of the sample from the standard normal and the
    K <= 2 sqrt(W) check, each distance computed once."""
    ks = dist_mod.kolmogorov_stat(sample)
    w1 = dist_mod.wasserstein1(sample)
    holds, ratio = dist_mod.kkw_from(ks, w1)
    return {"ks": ks, "w1": w1, "kkw_ratio": ratio, "kkw_holds": holds}


def _bound_block(cfg: ExperimentConfig, s_count: int) -> dict:
    b = bounds_mod.BoundInputs(cfg.x, cfg.y, s_count, cfg.z)
    return {
        "wasserstein": bounds_mod.wasserstein_bound(b),
        "kolmogorov": bounds_mod.kolmogorov_bound(b),
        "nondiagonal": bounds_mod.nondiagonal_bound(cfg.x, cfg.delta),
        "delta3_sum": bounds_mod.delta3_sum_bound(cfg.x, cfg.y, cfg.z),
        "exchange_variance": bounds_mod.exchange_variance_bound(cfg.x, cfg.delta, cfg.z),
    }


def run_simulate(cfg: ExperimentConfig) -> ExperimentReport:
    """Full experiment: seeded trials, moments, distances, bounds, ratios."""
    timing: dict[str, float] = {}
    t0 = time.perf_counter()
    table = segmented_factorize(cfg.x, cfg.y)
    timing["sieve"] = (time.perf_counter() - t0) * 1000.0
    s = table.squarefree_count

    t0 = time.perf_counter()
    raw = _run_trials(table, cfg.master_seed, cfg.trials, cfg.workers)
    timing["trials"] = (time.perf_counter() - t0) * 1000.0

    t0 = time.perf_counter()
    distinct, counts, row = _lattice(raw, s)
    moments = _moment_block(distinct, row)

    try:
        nd = quad_mod.param_enumerate_nondiagonal(cfg.x, cfg.y)
        exact = {"nondiagonal": nd, "fourth_moment": quad_mod.diagonal_count(s) + nd}
    except ScaleError as e:
        exact = {"skipped": str(e)}

    sample = dist_mod.SampleSet(tuple(distinct.tolist()), tuple(counts.tolist()))
    distances = _distance_block(sample)
    bounds = _bound_block(cfg, s)
    ratios = {
        "w1_over_bound": distances["w1"] / bounds["wasserstein"],
        "ks_over_bound": distances["ks"] / bounds["kolmogorov"],
    }
    timing["analysis"] = (time.perf_counter() - t0) * 1000.0

    return ExperimentReport(
        cfg.as_dict(), s, moments, exact, distances, bounds, ratios, timing,
        (distinct, counts, row),
    )


def run_moments(cfg: ExperimentConfig) -> dict:
    """Exact fourth-moment fragment: counts, closed forms and bound ratios.
    The non-diagonal enumeration runs first and is refused beyond
    quadruples.DEFAULT_BUDGET candidate rows before the factor table is
    built."""
    nd = quad_mod.param_enumerate_nondiagonal(cfg.x, cfg.y)
    table = segmented_factorize(cfg.x, cfg.y)
    s = table.squarefree_count
    diag = quad_mod.diagonal_count(s)
    out = {
        "s_count": s,
        "diagonal": diag,
        "nondiagonal": nd,
        "fourth_moment": diag + nd,
        "nondiagonal_bound": bounds_mod.nondiagonal_bound(cfg.x, cfg.delta),
    }
    out["nondiagonal_over_bound"] = nd / out["nondiagonal_bound"]
    out["fourth_over_diagonal"] = (diag + nd) / diag if diag else None
    if s <= quad_mod.ORACLE_MAX_S:
        out["oracle"] = quad_mod.oracle_count_square_quadruples(table)
    return out


def run_stein_checks(cfg: ExperimentConfig, var_trials: int = VAR_TRIALS) -> dict:
    """Identity and conditional-moment checks.  The weight identity and the
    conditional moments always run; the decomposition and stein_terms each
    report their result or the scale refusal that stopped them.  One
    stein_terms call gives both exchange_variance and sum_delta3, so its
    refusal skips both."""
    if var_trials < 2:
        raise ValueError(f"var_trials must be >= 2, got {var_trials}")
    _check_trials(var_trials)
    table = segmented_factorize(cfg.x, cfg.y)
    out: dict = {"s_count": table.squarefree_count}

    identity_ok = all(
        num * w == common
        for nums, common in map(stein_mod.subset_weight_identity, range(1, IDENTITY_MAX_L + 1))
        for w, num in enumerate(nums, 1)
    )
    out["weight_identity"] = {"max_l": IDENTITY_MAX_L, "ok": identity_ok}

    signs = SignSource(cfg.master_seed)
    rep = stein_mod.conditional_moments_check(table, cfg.z, [signs.for_trial(t) for t in range(5)])
    out["conditional_moments"] = {"large_primes": len(rep.large_primes), "ok": rep.ok}

    try:
        direct, closed = stein_mod.decomposition_sides(table, cfg.z, signs)
        out["decomposition"] = {
            "equal": direct == closed,
            "value": str(direct),
        }
    except ScaleError as e:
        out["decomposition"] = {"skipped": str(e)}

    try:
        terms = stein_mod.stein_terms(table, cfg.z, var_trials, cfg.master_seed)
        goal = bounds_mod.exchange_variance_bound(cfg.x, cfg.delta, cfg.z)
        d3_bound = bounds_mod.delta3_sum_bound(cfg.x, cfg.y, cfg.z) if cfg.y >= 2 else None
        out["exchange_variance"] = {
            "estimate": terms.exchange_variance,
            "trials": var_trials,
            "exchange_variance_bound": goal,
            "ratio": terms.exchange_variance / goal,
        }
        out["sum_delta3"] = {
            "value": terms.sum_delta3,
            "exact_primes": terms.exact_primes,
            "bounded_primes": terms.bounded_primes,
            "delta3_sum_bound": d3_bound,
            "ratio": terms.sum_delta3 / d3_bound if d3_bound else None,
        }
    except ScaleError as e:
        out["exchange_variance"] = out["sum_delta3"] = {"skipped": str(e)}
    return out


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _histogram_block(distinct: np.ndarray, counts: np.ndarray) -> dict:
    """64 bins on [-5, 5] plus explicit under/overflow bins over the values
    of W that occur, each weighted by its trial count; counts (with the
    flows) sum to the number of trials."""
    binned, edges = np.histogram(distinct, bins=HIST_BINS, range=HIST_RANGE, weights=counts)
    under = int(counts[distinct < HIST_RANGE[0]].sum())
    over = int(counts[distinct > HIST_RANGE[1]].sum())
    # values exactly at the right edge land in the last bin per numpy
    return {
        "edges": [float(e) for e in edges],
        "counts": [under] + [int(c) for c in binned] + [over],
    }


def _csv_text(distinct: np.ndarray, row: np.ndarray) -> str:
    """The `trial,w` CSV of W = distinct[row], one f"{i},{w!r}" row per trial.

    Each row is a fixed-width uint8 row: the trial index's digits (leading
    zeros as NUL) and then ",repr(w)\n" padded with NUL, gathered from a
    text table of the distinct values.  Dropping the NUL bytes leaves the
    CSV.  Rows are built CSV_CHUNK at a time, so no per-trial Python string
    is made."""
    cells = [f",{v!r}\n".encode() for v in distinct.tolist()]
    width = max(map(len, cells))
    text = np.frombuffer(b"".join(c.ljust(width, b"\0") for c in cells), dtype=np.uint8)
    text = text.reshape(len(cells), width)

    trials = len(row)
    ndigits = len(str(trials - 1))
    parts = ["trial,w\n"]
    for start in range(0, trials, CSV_CHUNK):
        # int32 holds every index up to MAX_TRIALS
        i = np.arange(start, min(start + CSV_CHUNK, trials), dtype=np.int32)
        rows = np.empty((len(i), ndigits + width), dtype=np.uint8)
        for k in range(ndigits):
            d = i // 10 ** (ndigits - 1 - k)
            # a leading zero (d == 0) is NUL; the units digit is always
            # written, so trial 0 reads "0"
            rows[:, k] = d % 10 + ord("0") if k == ndigits - 1 else (d % 10 + ord("0")) * (d > 0)
        rows[:, ndigits:] = text.take(row[start:start + len(i)], axis=0)
        flat = rows.ravel()
        parts.append(flat[flat != 0].tobytes().decode("ascii"))
    return "".join(parts)


def _write_files(files: list[tuple[Path, str]]) -> list[Path]:
    """Write each (path, text) in order, creating the parent directory; on
    an I/O failure every file of the call written so far, the one being
    written included, is removed and the error re-raised."""
    started: list[Path] = []
    try:
        for path, text in files:
            path.parent.mkdir(parents=True, exist_ok=True)
            started.append(path)
            path.write_text(text)
    except OSError:
        for path in started:
            path.unlink(missing_ok=True)
        raise
    return started


def emit(report: ExperimentReport, formats: tuple[str, ...], out_base: str) -> list[Path]:
    """Write report files <out_base>.json / <out_base>.csv /
    <out_base>.hist.json; on any I/O failure partial files are removed and
    the error re-raised."""
    files: list[tuple[Path, str]] = []
    if "json" in formats:
        files.append((Path(out_base + ".json"), report.dumps() + "\n"))
    if "csv" in formats:
        distinct, _, row = report.lattice
        files.append((Path(out_base + ".csv"), _csv_text(distinct, row)))
    if "histogram" in formats:
        distinct, counts, _ = report.lattice
        files.append((Path(out_base + ".hist.json"),
                      json.dumps(_histogram_block(distinct, counts), indent=2) + "\n"))
    return _write_files(files)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _add_interval_args(p: argparse.ArgumentParser, z: bool = True,
                       trials: bool = False) -> None:
    p.add_argument("--x", type=int, required=True, help="interval left endpoint")
    p.add_argument("--y", type=int, required=True, help="interval length")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    if z:
        p.add_argument("--z", type=float, default=None,
                       help="override the small/large prime threshold")
    if trials:
        p.add_argument("--trials", type=int, default=1000)
        p.add_argument("--workers", type=int, default=1,
                       help="trial worker processes (default 1)")
    p.add_argument("--out", default=None, help="output path base (default stdout)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by later ones: a
    parse reads it and leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="rmflab",
        description="Random multiplicative functions in short intervals: "
                    "simulation, exact counting and distance diagnostics.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run seeded Monte Carlo trials")
    _add_interval_args(p, trials=True)
    p.add_argument("--format", default="json",
                   help="comma-separated subset of json,csv,histogram")

    p = sub.add_parser("moments", help="exact fourth moment of the interval sum")
    _add_interval_args(p, z=False)

    p = sub.add_parser("stein", help="identity and conditional-moment checks")
    _add_interval_args(p)
    p.add_argument("--var-trials", type=int, default=VAR_TRIALS)

    p = sub.add_parser("bounds", help="evaluate every bound for an interval")
    _add_interval_args(p)

    p = sub.add_parser("distances", help="distances of a stored W sample "
                                         "from the standard normal")
    p.add_argument("--infile", required=True, help="CSV with header trial,w")
    p.add_argument("--out", default=None)
    return ap


def _read_w_csv(path: str) -> list[float]:
    """The w column of a `trial,w` CSV written by `simulate`, in one pass over
    its rows; each distinct w string is converted once."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "trial,w":
            raise ValueError(f"unexpected CSV header {header!r}")
        lines = fh.read().split("\n")
    value: dict[str, float] = {}
    values = []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        # float rejects the "" of a row without a comma and a w with one
        w = line.partition(",")[2]
        if w not in value:
            try:
                value[w] = float(w)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed row {line.strip()!r}") from None
        values.append(value[w])
    return values


def _emit_or_print(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if out is None:
        print(text)
    else:
        _write_files([(Path(out + ".json"), text + "\n")])


def _check_args(args: argparse.Namespace) -> None:
    """Refuse, before any work and before the config is built (so no delta
    warning comes first), an --out that names no file (it would write `.json`
    or `..csv` into a directory), an unknown --format, a --format that writes
    files without --out (it would print the JSON and drop them) and a
    --var-trials below 2 or above MAX_TRIALS."""
    var_trials = getattr(args, "var_trials", 2)
    if var_trials < 2:
        raise ValueError(f"--var-trials must be >= 2, got {var_trials}")
    if var_trials > MAX_TRIALS:
        raise ScaleError(f"--var-trials {var_trials} exceeds MAX_TRIALS = {MAX_TRIALS}")
    out = getattr(args, "out", None)
    if out is not None and os.path.basename(out) in ("", ".", ".."):
        raise ValueError(f"--out must end in a file name, got {out!r}")
    formats = getattr(args, "format", "json").split(",")
    bad = set(formats) - {"json", "csv", "histogram"}
    if bad:
        raise ValueError(f"unknown formats: {sorted(bad)}")
    files = [f for f in formats if f in ("csv", "histogram")]
    if out is None and files:
        raise ValueError(f"--format {','.join(files)} writes files: give --out")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_args(args)
        if args.command != "distances":
            cfg = ExperimentConfig(x=args.x, y=args.y, trials=getattr(args, "trials", 1),
                                   master_seed=args.seed, z_override=getattr(args, "z", None),
                                   workers=getattr(args, "workers", 1))
            if args.command in ("simulate", "bounds") and cfg.y < 2:
                raise ValueError("the distance bounds divide by ln y and need y >= 2, "
                                 f"got y={cfg.y}")
            if cfg.delta >= 0.1:
                print(f"warning: delta = {cfg.delta!r} is outside the proven range (< 1/10)",
                      file=sys.stderr)
        if args.command == "simulate":
            t0 = time.perf_counter()
            report = run_simulate(cfg)
            wall = (time.perf_counter() - t0) * 1000.0
            stages = ", ".join(f"{k} {v:.1f} ms" for k, v in report.timing_ms.items())
            print(f"simulate: {cfg.trials} trials in {wall:.1f} ms ({stages})", file=sys.stderr)
            if args.out is None:
                print(report.dumps())
            else:
                emit(report, tuple(args.format.split(",")), args.out)
        elif args.command == "moments":
            _emit_or_print(run_moments(cfg), args.out)
        elif args.command == "stein":
            _emit_or_print(run_stein_checks(cfg, args.var_trials), args.out)
        elif args.command == "bounds":
            table = segmented_factorize(cfg.x, cfg.y)
            _emit_or_print(_bound_block(cfg, table.squarefree_count), args.out)
        elif args.command == "distances":
            values = _read_w_csv(args.infile)
            sample = dist_mod.SampleSet.from_values(values)
            _emit_or_print({"n": len(values), **_distance_block(sample)}, args.out)
    except ScaleError as e:
        print(f"scale error: {e}", file=sys.stderr)
        return EXIT_SCALE
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
