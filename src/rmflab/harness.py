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
    timing_ms: dict | None = None
    # W's lattice (S - 2j) / sqrt(S), each trial's j and each j's trial
    # count, kept for csv/histogram emission; never serialized
    lattice: np.ndarray | None = field(default=None, repr=False, compare=False)
    lattice_index: np.ndarray | None = field(default=None, repr=False, compare=False)
    lattice_counts: np.ndarray | None = field(default=None, repr=False, compare=False)

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
    def w_values(self) -> np.ndarray | None:
        """Per-trial W values, bit for bit raw / sqrt(S)."""
        return None if self.lattice is None else self.lattice[self.lattice_index]

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
    """W = raw / sqrt(S) on its lattice: the S+1 values (S - 2j) / sqrt(S)
    (one zero when S = 0), each trial's index j, and the trials at each j.
    lattice[j] is bit for bit raw / sqrt(S)."""
    lat = (s - 2 * np.arange(s + 1)) / math.sqrt(s) if s else np.zeros(1)
    j = (s - raw) >> 1
    return lat, j, np.bincount(j, minlength=s + 1)


def _moment_block(lat: np.ndarray, j: np.ndarray) -> dict:
    # each power of the lattice once, gathered by j: w ** k
    powers = {k: (lat ** k)[j] for k in (1, 2, 3, 4)}
    moments = {f"m{k}": float(p.mean()) for k, p in powers.items()}
    # one trial has no standard error; null keeps the report strict JSON
    moments["se"] = {
        f"m{k}": float(p.std(ddof=1) / math.sqrt(len(j))) if len(j) > 1 else None
        for k, p in powers.items()
    }
    return moments


def _lattice_sample(lat: np.ndarray, counts: np.ndarray) -> dist_mod.SampleSet:
    """The lattice values that occur, ascending, with their counts: the
    SampleSet that from_values builds from the per-trial values."""
    occurs = np.flatnonzero(counts)[::-1]
    return dist_mod.SampleSet(tuple(lat[occurs].tolist()), tuple(counts[occurs].tolist()))


def _distance_block(sample: dist_mod.SampleSet) -> dict:
    """KS and W1 distances of the sample from the standard normal and the
    K <= 2 sqrt(W) check, each distance computed once."""
    ks = dist_mod.kolmogorov_stat(sample)
    w1 = dist_mod.wasserstein1(sample)
    holds, ratio = dist_mod.kkw_from(ks, w1)
    return {"ks": ks, "w1": w1, "kkw_ratio": ratio, "kkw_holds": holds}


def _bound_block(cfg: ExperimentConfig, s_count: int) -> dict:
    b = bounds_mod.BoundInputs(cfg.x, cfg.y, s_count, cfg.delta, cfg.z)
    return {
        "wasserstein": bounds_mod.wasserstein_bound(b),
        "kolmogorov": bounds_mod.kolmogorov_bound(b),
        "nondiagonal": bounds_mod.nondiagonal_bound(cfg.x, cfg.delta),
        # the summed-third-moment comparator divides by ln y
        "delta3_sum": (bounds_mod.delta3_sum_bound(cfg.x, cfg.y, cfg.z)
                       if cfg.y >= 2 else None),
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
    lat, j, counts = _lattice(raw, s)
    moments = _moment_block(lat, j)

    try:
        nd = quad_mod.param_enumerate_nondiagonal(cfg.x, cfg.y)
        exact = {"nondiagonal": nd, "fourth_moment": quad_mod.diagonal_count(s) + nd}
    except ScaleError as e:
        exact = {"skipped": str(e)}

    distances = _distance_block(_lattice_sample(lat, counts))
    bounds = _bound_block(cfg, s)
    ratios = {
        "w1_over_bound": distances["w1"] / bounds["wasserstein"],
        "ks_over_bound": distances["ks"] / bounds["kolmogorov"],
    }
    timing["analysis"] = (time.perf_counter() - t0) * 1000.0

    return ExperimentReport(
        cfg.as_dict(), s, moments, exact, distances, bounds, ratios, timing, lat, j, counts,
    )


def run_moments(cfg: ExperimentConfig,
                budget: int = quad_mod.DEFAULT_BUDGET) -> dict:
    """Exact fourth-moment fragment: counts, closed forms and bound ratios.
    The non-diagonal enumeration runs first and is refused beyond `budget`
    candidate rows before the factor table is built."""
    nd = quad_mod.param_enumerate_nondiagonal(cfg.x, cfg.y, budget)
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


def run_stein_checks(cfg: ExperimentConfig, var_trials: int = 2000) -> dict:
    """Identity and conditional-moment checks; each sub-check reports its
    own result or the scale refusal that stopped it."""
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
    try:
        rep = stein_mod.conditional_moments_check(
            table, cfg.z, [signs.for_trial(t) for t in range(5)])
        out["conditional_moments"] = {
            "large_primes": len(rep.large_primes),
            "ok": rep.ok,
        }
    except ScaleError as e:
        out["conditional_moments"] = {"skipped": str(e)}

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
        out["exchange_variance"] = {"skipped": str(e)}
    return out


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _histogram_block(lat: np.ndarray, counts: np.ndarray) -> dict:
    """64 bins on [-5, 5] plus explicit under/overflow bins over the lattice
    values, each weighted by its trial count; counts (with the flows) sum to
    the number of trials."""
    occurs = counts > 0
    lat, counts = lat[occurs], counts[occurs]
    binned, edges = np.histogram(lat, bins=HIST_BINS, range=HIST_RANGE, weights=counts)
    under = int(counts[lat < HIST_RANGE[0]].sum())
    over = int(counts[lat > HIST_RANGE[1]].sum())
    # values exactly at the right edge land in the last bin per numpy
    return {
        "edges": [float(e) for e in edges],
        "counts": [under] + [int(c) for c in binned] + [over],
    }


def _csv_text(lat: np.ndarray, j: np.ndarray, counts: np.ndarray) -> str:
    """The `trial,w` CSV of W = lat[j], one f"{i},{w!r}" row per trial.

    Each row is a fixed-width uint8 row: the trial index's digits (leading
    zeros as NUL) and then ",repr(w)\n" padded with NUL, gathered from a
    text table of the lattice values that occur.  Dropping the NUL bytes
    leaves the CSV.  Rows are built CSV_CHUNK at a time, so no per-trial
    Python string is made."""
    occurs = np.flatnonzero(counts)
    cells = [f",{v!r}\n".encode() for v in lat[occurs].tolist()]
    width = max(map(len, cells))
    text = np.frombuffer(b"".join(c.ljust(width, b"\0") for c in cells), dtype=np.uint8)
    text = text.reshape(len(cells), width)
    row_of = np.zeros(len(lat), dtype=np.intp)
    row_of[occurs] = np.arange(len(occurs))

    trials = len(j)
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
        rows[:, ndigits:] = text.take(row_of[j[start:start + len(i)]], axis=0)
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
    lat, j, counts = report.lattice, report.lattice_index, report.lattice_counts
    files: list[tuple[Path, str]] = []
    if "json" in formats:
        files.append((Path(out_base + ".json"), report.dumps() + "\n"))
    if "csv" in formats:
        if lat is None:
            raise ValueError("csv format needs per-trial values")
        files.append((Path(out_base + ".csv"), _csv_text(lat, j, counts)))
    if "histogram" in formats:
        if lat is None:
            raise ValueError("histogram format needs per-trial values")
        files.append((Path(out_base + ".hist.json"),
                      json.dumps(_histogram_block(lat, counts), indent=2) + "\n"))
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
    p.add_argument("--budget", type=int, default=quad_mod.DEFAULT_BUDGET,
                   help="most candidate rows the non-diagonal enumeration may build; "
                        "a larger count is refused (exit 3) before any row past the "
                        "budget is built")

    p = sub.add_parser("stein", help="identity and conditional-moment checks")
    _add_interval_args(p)
    p.add_argument("--var-trials", type=int, default=2000)

    p = sub.add_parser("bounds", help="evaluate every bound for an interval")
    _add_interval_args(p)

    p = sub.add_parser("distances", help="distances of a stored W sample "
                                         "from the standard normal")
    p.add_argument("--infile", required=True, help="CSV with header trial,w")
    p.add_argument("--out", default=None)
    return ap


def _read_w_csv(path: str) -> list[float]:
    """The w column of a `trial,w` CSV written by `simulate`.  The rows are
    split in one joined pass and each distinct w string is converted once;
    a file that fails that pass is walked row by row to name its first
    malformed row."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "trial,w":
            raise ValueError(f"unexpected CSV header {header!r}")
        lines = fh.read().split("\n")
    rows = [line for line in lines if line.strip()]
    fields = ",".join(rows).split(",")
    # as many commas as rows, and none without one: exactly one per row
    if len(fields) == 2 * len(rows) and all("," in row for row in rows):
        ws = fields[1::2]
        try:
            value = {w: float(w) for w in set(ws)}
            return [value[w] for w in ws]
        except ValueError:
            pass
    values = []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            _, w = line.split(",")
            values.append(float(w))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed row {line.strip()!r}") from None
    return values


def _emit_or_print(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if out is None:
        print(text)
    else:
        _write_files([(Path(out + ".json"), text + "\n")])


def _check_args(args: argparse.Namespace) -> None:
    """Refuse, before any work, an --out that names no file (it would write
    `.json` or `..csv` into a directory), an unknown --format, and a --format
    that writes files without --out (it would print the JSON and drop them)."""
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
            _emit_or_print(run_moments(cfg, args.budget), args.out)
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
