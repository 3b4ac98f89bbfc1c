import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmflab import harness
from rmflab import quadruples as quad_mod
from rmflab.errors import ScaleError
from rmflab.distances import SampleSet
from rmflab.harness import (
    CSV_CHUNK,
    HIST_BINS,
    HIST_RANGE,
    MAX_TRIALS,
    MAX_WORKERS,
    ExperimentConfig,
    _build_parser,
    _csv_text,
    _histogram_block,
    _lattice,
    _lattice_sample,
    _moment_block,
    _read_w_csv,
    _run_trials,
    emit,
    main,
    run_moments,
    run_simulate,
    run_stein_checks,
)
from rmflab import numtheory
from rmflab.numtheory import segmented_factorize
from rmflab.rmf_core import IntervalSampler, SignSource
from rmflab.stein import conditional_moments_check


def small_config(trials=200, workers=1, **kw):
    return ExperimentConfig(
        x=2000, y=150, trials=trials, master_seed=11, workers=workers, **kw
    )


@pytest.mark.parametrize("fields, error, message", [
    (dict(x=1, y=1), ValueError, "x must be >= 2, got 1"),
    (dict(x=1000, y=0), ValueError, "y must be >= 1, got 0"),
    (dict(x=1000, y=1000), ValueError, "y must be < x, got y=1000, x=1000"),
    (dict(x=1000, y=50, z_override=math.inf), ValueError, "z must be finite and > 0, got inf"),
    (dict(x=1000, y=50, z_override=math.nan), ValueError, "z must be finite and > 0, got nan"),
    (dict(x=1000, y=50, z_override=0.0), ValueError, "z must be finite and > 0, got 0.0"),
    (dict(x=10**12, y=10**6, z_override=1e-297), ValueError,
     "the exchange-variance comparator overflows at z = 1e-297"),
    (dict(x=1000, y=50, trials=0), ValueError, "trials must be >= 1, got 0"),
    (dict(x=1000, y=50, trials=MAX_TRIALS + 1), ScaleError,
     f"{MAX_TRIALS + 1} trials exceeds MAX_TRIALS"),
    (dict(x=1000, y=50, workers=0), ValueError, "workers must be >= 1, got 0"),
    (dict(x=1000, y=50, workers=MAX_WORKERS + 1), ScaleError,
     f"{MAX_WORKERS + 1} workers exceeds MAX_WORKERS"),
], ids=["x-1", "y-0", "y-eq-x", "z-inf", "z-nan", "z-0", "z-overflow", "trials-0",
        "trials-over-cap", "workers-0", "workers-over-cap"])
def test_config_refuses_each_bad_field_on_construction(fields, error, message):
    with pytest.raises(error, match=re.escape(message)):
        ExperimentConfig(**fields)


def test_config_is_frozen_and_validated_again_on_replace():
    cfg = ExperimentConfig(x=1000, y=50, trials=MAX_TRIALS, workers=MAX_WORKERS)
    assert cfg.delta == 50 / 1000 and cfg.z == 0.5 * math.log(1 / cfg.delta)
    assert ExperimentConfig(x=2, y=1).delta == 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.y = 2000
    assert dataclasses.replace(cfg, y=999).delta == 0.999
    with pytest.raises(ValueError, match="y must be < x"):
        dataclasses.replace(cfg, y=2000)
    with pytest.raises(ScaleError, match="MAX_TRIALS"):
        dataclasses.replace(cfg, trials=MAX_TRIALS + 1)


def test_simulate_trials_one():
    cfg = ExperimentConfig(x=2000, y=150, trials=1, master_seed=3)
    report = run_simulate(cfg)
    assert report.moments["m1"] == pytest.approx(float(report.w_values[0]))


def test_simulate_degenerate_interval():
    report = run_simulate(ExperimentConfig(x=47, y=1, trials=5, master_seed=1))
    assert report.s_count == 0
    assert report.moments["m1"] == 0.0
    assert report.bounds["wasserstein"] == 1.0  # min clamp
    assert report.bounds["delta3_sum"] is None  # needs y >= 2


def test_simulate_report_contents():
    report = run_simulate(small_config())
    assert report.s_count > 0
    assert report.moments["m2"] >= 0
    assert set(report.bounds) == {"wasserstein", "kolmogorov", "nondiagonal", "delta3_sum", "exchange_variance"}
    assert report.distances["kkw_holds"]
    assert report.exact["fourth_moment"] >= report.exact["nondiagonal"]
    assert len(report.w_values) == 200
    assert report.ratios["w1_over_bound"] >= 0


def test_simulate_deterministic_and_worker_independent():
    r1 = run_simulate(small_config(trials=500))
    r2 = run_simulate(small_config(trials=500))
    r4 = run_simulate(small_config(trials=500, workers=2))
    assert r1.dumps() == r2.dumps() == r4.dumps()
    assert np.array_equal(r1.w_values, r4.w_values)


@pytest.mark.parametrize("trials", [1, 2, 4097, 10001])
def test_run_trials_same_for_any_worker_count(trials):
    table = segmented_factorize(2000, 150)
    one = _run_trials(table, 11, trials, 1)
    assert one.dtype == np.int64
    assert np.array_equal(one, IntervalSampler(table, 11).raw_sums(0, trials))
    for workers in (2, 3):
        assert np.array_equal(_run_trials(table, 11, trials, workers), one), workers


def _reference_moment_block(w):
    # the literal moments: one full-length w ** k pass per power
    t = len(w)
    powers = {k: w ** k for k in (1, 2, 3, 4)}
    moments = {f"m{k}": float(p.mean()) for k, p in powers.items()}
    moments["se"] = {
        f"m{k}": float(p.std(ddof=1) / math.sqrt(t)) if t > 1 else None
        for k, p in powers.items()
    }
    return moments


def _moments_match_reference(x, y, trials, seed):
    table = segmented_factorize(x, y)
    s = table.squarefree_count
    raw = IntervalSampler(table, seed).raw_sums(0, trials)
    w = raw / math.sqrt(s) if s else raw.astype(float)
    lat, j, _ = _lattice(raw, s)
    got = _moment_block(lat, j)
    assert got == _reference_moment_block(w), (x, y, trials, seed)
    return got


@pytest.mark.parametrize("x,y,trials,seed", [
    (47, 1, 5, 1),                # S = 0: W is all zeros
    (2000, 150, 1, 3),            # one trial: every se is null
    (10**6 + 123, 10**3, 10**5, 1),   # clt size
    (10**10 + 1234, 10**4, 1000, 2),  # wide size
])
def test_moment_block_matches_w_powers(x, y, trials, seed):
    got = _moments_match_reference(x, y, trials, seed)
    assert (got["se"]["m1"] is None) == (trials == 1)


@settings(max_examples=40, deadline=None)
@given(x=st.integers(1, 10**6), y=st.integers(1, 400), trials=st.integers(1, 300),
       seed=st.integers(0, 2**64 - 1))
def test_moment_block_matches_w_powers_sweep(x, y, trials, seed):
    _moments_match_reference(x, y, trials, seed)


def test_adding_trials_extends_stream():
    short = run_simulate(small_config(trials=100))
    long = run_simulate(small_config(trials=300))
    assert np.array_equal(long.w_values[:100], short.w_values)


def test_emit_files(tmp_path):
    report = run_simulate(small_config())
    base = tmp_path / "out" / "run"
    files = emit(report, ("json", "csv", "histogram"), str(base))
    assert [f.name for f in files] == ["run.json", "run.csv", "run.hist.json"]

    data = json.loads(files[0].read_text())
    assert data["schema_version"] == 1
    assert data["timing_ms"] is None  # timings never go into reproducible files

    lines = files[1].read_text().splitlines()
    assert lines[0] == "trial,w"
    assert len(lines) == 201
    assert lines[1:] == [f"{i},{float(v)!r}" for i, v in enumerate(report.w_values)]

    hist = json.loads(files[2].read_text())
    assert len(hist["edges"]) == 65
    assert len(hist["counts"]) == 66  # underflow + 64 + overflow
    assert sum(hist["counts"]) == 200


def _lattice_of(s, j):
    """W's lattice built from the raw sums S - 2j, checked bit for bit
    against raw / sqrt(S)."""
    raw = s - 2 * np.asarray(j, dtype=np.int64)
    lat, index, counts = _lattice(raw, s)
    assert np.array_equal(index, j) and counts.sum() == len(raw)
    w = raw / math.sqrt(s) if s else raw.astype(float)
    assert lat[index].tobytes() == w.tobytes()
    return lat, index, counts, w


def _reference_csv(w) -> str:
    # the per-row f-string writer the byte table replaced
    return "\n".join(["trial,w"] + [f"{i},{float(v)!r}" for i, v in enumerate(w)]) + "\n"


# every width of the trial index (1 to 5 digits) and both sides of the
# chunk boundaries
CSV_TRIALS = [1, 9, 10, 11, 99, 100, 10**4, 10**4 + 1,
              CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1,
              2 * CSV_CHUNK - 1, 2 * CSV_CHUNK, 2 * CSV_CHUNK + 1]


@pytest.mark.parametrize("trials", CSV_TRIALS)
def test_csv_byte_table_matches_per_row_writer(trials):
    rng = np.random.default_rng(trials)
    j = rng.binomial(606, 0.5, size=trials)
    lat, j, counts, w = _lattice_of(606, j)
    assert _csv_text(lat, j, counts) == _reference_csv(w)


@pytest.mark.parametrize("s, j", [
    (0, [0] * 12),                      # S = 0: every w is 0.0
    (25, [0, 25, 3, 3, 0, 12, 25] * 3),  # 4 of the 26 values, the ends +-5 among them
    (6080, [6080, 0, 3040, 1] * 250),    # wide's S: 4 reprs for 1000 rows
], ids=["s0", "s25-partial", "s6080-partial"])
def test_csv_byte_table_on_degenerate_and_partial_lattices(s, j):
    lat, j, counts, w = _lattice_of(s, j)
    assert _csv_text(lat, j, counts) == _reference_csv(w)


def _reference_histogram_block(w) -> dict:
    # the per-value histogram the weighted lattice histogram replaced
    counts, edges = np.histogram(w, bins=HIST_BINS, range=HIST_RANGE)
    under = int((w < HIST_RANGE[0]).sum())
    over = int((w > HIST_RANGE[1]).sum())
    return {
        "edges": [float(e) for e in edges],
        "counts": [under] + [int(c) for c in counts] + [over],
    }


@pytest.mark.parametrize("s, j", [
    (0, [0] * 7),                     # S = 0
    (606, [303]),                     # one trial
    (25, [0, 25, 0, 1, 12, 13, 24, 25, 25]),  # w = +-5 exactly: the edge bins
    (100, [0, 0, 1, 50, 97, 99, 100, 100]),   # |w| = 10, 9.8, 9.4: both flows, repeated
], ids=["s0", "one-trial", "s25-edges", "s100-flows"])
def test_lattice_sample_and_histogram_match_per_value_paths(s, j):
    lat, j, counts, w = _lattice_of(s, j)
    assert _lattice_sample(lat, counts) == SampleSet.from_values(w)
    hist = _histogram_block(lat, counts)
    assert hist == _reference_histogram_block(w)
    assert sum(hist["counts"]) == len(w)
    if s == 25:
        assert hist["counts"][1] == 3 and hist["counts"][HIST_BINS] == 2
    if s == 100:
        assert hist["counts"][0] == 4 and hist["counts"][-1] == 3


def test_emit_deterministic_bytes(tmp_path):
    r1 = run_simulate(small_config())
    r2 = run_simulate(small_config(workers=2))
    f1 = emit(r1, ("json", "csv"), str(tmp_path / "a"))
    f2 = emit(r2, ("json", "csv"), str(tmp_path / "b"))
    assert f1[0].read_bytes() == f2[0].read_bytes()
    assert f1[1].read_bytes() == f2[1].read_bytes()


def test_simulate_reports_a_refused_enumeration(monkeypatch):
    def refuse(x, y):
        raise ScaleError("enumeration budget exceeded")

    monkeypatch.setattr(quad_mod, "param_enumerate_nondiagonal", refuse)
    report = run_simulate(small_config(trials=10))
    assert report.exact == {"skipped": "enumeration budget exceeded"}
    assert json.loads(report.dumps())["exact"] == report.exact


def test_simulate_reports_the_budget_and_the_rows_charged(monkeypatch):
    # (2000, 2150]: m = 14 and m^2 <= 2150, so the enumeration runs; its
    # first level, A in [14, 2150 // 14], charges 140 candidate rows
    enumerate_ = quad_mod.param_enumerate_nondiagonal
    monkeypatch.setattr(quad_mod, "param_enumerate_nondiagonal",
                        lambda x, y: enumerate_(x, y, budget=10))
    report = run_simulate(small_config(trials=10))
    assert report.exact == {
        "skipped": "enumeration budget of 10 candidate rows exceeded: 140 charged"}


def test_run_moments_fragment():
    frag = run_moments(ExperimentConfig(x=100, y=40))
    assert frag["oracle"] == frag["diagonal"] + frag["nondiagonal"] == frag["fourth_moment"]
    assert frag["nondiagonal"] <= frag["nondiagonal_bound"]


def test_mean_within_four_sigma_across_seeds():
    # |m1| <= 4/sqrt(trials) should hold for (nearly) every seed
    trials = 100
    hits = 0
    seeds = range(40)
    for seed in seeds:
        r = run_simulate(ExperimentConfig(x=2000, y=150, trials=trials,
                                          master_seed=seed))
        hits += abs(r.moments["m1"]) <= 4 / math.sqrt(trials)
    assert hits / len(seeds) >= 0.95


def test_run_stein_checks_fragment():
    frag = run_stein_checks(ExperimentConfig(x=700, y=9, master_seed=5), var_trials=20)
    assert frag["weight_identity"]["ok"]
    assert frag["conditional_moments"]["ok"]
    assert frag["exchange_variance"]["estimate"] >= 0
    assert frag["sum_delta3"]["value"] >= 0
    assert frag["sum_delta3"]["ratio"] >= 0  # reported, never asserted vs constants
    # larger interval: the exhaustive checks must refuse, not crash
    frag2 = run_stein_checks(ExperimentConfig(x=10**4, y=400, master_seed=5), var_trials=10)
    assert "skipped" in frag2["conditional_moments"]
    assert "skipped" in frag2["decomposition"]
    assert frag2["exchange_variance"]["ratio"] >= 0


def test_emit_io_failure_exit_code(tmp_path, capsys):
    rc = main(["simulate", "--x", "2000", "--y", "100", "--trials", "10",
               "--out", "/proc/nonexistent/run"])
    assert rc == 4


def test_cli_simulate_stdout(capsys):
    rc = main(["simulate", "--x", "2000", "--y", "100", "--trials", "50",
               "--seed", "9"])
    assert rc == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["config"]["trials"] == 50


def test_cli_runs_as_python_m_rmflab(tmp_path):
    # `python -m rmflab` from a source checkout, without an install
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "rmflab", "simulate", "--x", "2000", "--y", "100",
         "--trials", "20", "--seed", "9"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["config"]["trials"] == 20
    assert "Warning" not in done.stderr


def test_cli_simulate_files(tmp_path, capsys):
    base = tmp_path / "exp"
    rc = main(["simulate", "--x", "2000", "--y", "100", "--trials", "50",
               "--seed", "9", "--out", str(base), "--format", "json,csv,histogram"])
    assert rc == 0
    assert (tmp_path / "exp.json").exists()
    assert (tmp_path / "exp.csv").exists()
    assert (tmp_path / "exp.hist.json").exists()


def test_cli_distances_round_trip(tmp_path, capsys):
    # a CSV of two byte-table chunks read back through from_values gives
    # the distances simulate computed on the lattice, to the last bit
    trials = 2 * CSV_CHUNK - 3
    base = tmp_path / "exp"
    assert main(["simulate", "--x", "2000", "--y", "100", "--trials", str(trials),
                 "--seed", "9", "--out", str(base), "--format", "json,csv"]) == 0
    rc = main(["distances", "--infile", str(tmp_path / "exp.csv")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    sim = json.loads((tmp_path / "exp.json").read_text())
    assert report["n"] == trials
    assert {k: report[k] for k in sim["distances"]} == sim["distances"]


def test_cli_exit_codes(capsys):
    assert main(["simulate", "--x", "1000", "--y", "2000", "--trials", "5"]) == 2
    # scale error: oracle-sized check refused
    assert main(["moments", "--x", "5000", "--y", "400", "--budget", "10"]) == 3
    capsys.readouterr()
    assert main(["simulate", "--x", "1000", "--y", "10", "--format", "yaml"]) == 2
    assert "unknown formats: ['yaml']" in _one_line_error(capsys)
    # a --z override that is not finite and > 0 is refused before the table
    # is built or any trial runs
    for argv in (["stein", "--x", "700", "--y", "9", "--z", "inf"],
                 ["simulate", "--x", "1000", "--y", "50", "--trials", "200000", "--z", "0"],
                 ["simulate", "--x", "1000", "--y", "50", "--z", "nan"],
                 ["simulate", "--x", "1000", "--y", "50", "--z", "inf"],
                 ["bounds", "--x", "1000", "--y", "50", "--z", "-1"]):
        assert main(argv) == 2, argv
        assert "z must be finite and > 0" in _one_line_error(capsys)
    # a negative enumeration budget is a usage error; a budget of 0 is valid
    assert main(["moments", "--x", "1000", "--y", "50", "--budget", "-1"]) == 2
    assert "budget must be >= 0, got -1" in _one_line_error(capsys)
    assert main(["moments", "--x", "1000", "--y", "50", "--budget", "0"]) == 3
    assert "budget of 0 candidate rows exceeded" in _one_line_error(capsys)
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # missing required --x
    assert exc.value.code == 2


def _refuse_tables(monkeypatch):
    def no_table(x, y):
        raise AssertionError("factor table built")

    monkeypatch.setattr(harness, "segmented_factorize", no_table)


@pytest.mark.parametrize("formats", ["csv", "histogram", "json,csv,histogram"])
def test_cli_file_formats_without_out_are_usage_errors(formats, monkeypatch, capsys):
    # these formats write files only: without --out the run used to print
    # the JSON, write nothing else and exit 0
    _refuse_tables(monkeypatch)
    argv = ["simulate", "--x", "2000", "--y", "100", "--trials", "5", "--format", formats]
    assert main(argv) == 2
    assert "give --out" in _one_line_error(capsys)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("out", ["", ".", "..", "runs/"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--x", "2000", "--y", "100", "--trials", "5", "--format", "json,csv"],
    ["bounds", "--x", "2000", "--y", "100"],
    ["moments", "--x", "2000", "--y", "100"],
    ["stein", "--x", "700", "--y", "9"],
    ["distances", "--infile", "w.csv"],
])
def test_cli_out_without_file_name_is_a_usage_error(argv, out, tmp_path, monkeypatch, capsys):
    # --out "" used to write .json (or ..json and ..csv) into the working
    # directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "runs").mkdir()
    _refuse_tables(monkeypatch)
    assert main(argv + ["--out", out]) == 2
    assert "--out must end in a file name" in _one_line_error(capsys)
    assert [p.name for p in tmp_path.rglob("*")] == ["runs"]


@pytest.mark.parametrize("argv", [
    ["bounds", "--x", "1000000000000", "--y", "1000000", "--z", "1e-297"],
    ["simulate", "--x", "10000000000", "--y", "100000", "--trials", "200", "--z", "1e-320"],
    ["stein", "--x", "100000", "--y", "100", "--z", "1e-310"],
    # x^2 is beyond a float: the comparator raises OverflowError at any z
    ["bounds", "--x", str(10**160), "--y", "10", "--z", "1"],
], ids=["bounds", "simulate", "stein", "bounds-x-beyond-float"])
def test_cli_refuses_a_z_that_overflows_the_comparator_before_any_work(argv, monkeypatch,
                                                                        capsys):
    # 1/z overflowed exchange_variance_bound: each command built the table
    # (simulate also ran every trial) and then failed to write inf as JSON
    _refuse_tables(monkeypatch)
    assert main(argv) == 2
    assert "the exchange-variance comparator overflows at z = " in _one_line_error(capsys)
    assert capsys.readouterr().out == ""


def test_a_small_z_with_a_finite_comparator_is_accepted(capsys):
    assert main(["bounds", "--x", "1000000000000", "--y", "1000000", "--z", "1e-290"]) == 0
    data = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert data["exchange_variance"] > 1e300


def test_cli_moments_subcommand(capsys):
    rc = main(["moments", "--x", "100", "--y", "40"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["fourth_moment"] == data["oracle"]


def test_cli_stein_and_bounds_subcommands(capsys):
    rc = main(["stein", "--x", "700", "--y", "9", "--seed", "5", "--var-trials", "20"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["weight_identity"]["ok"] and data["conditional_moments"]["ok"]

    rc = main(["bounds", "--x", "100000", "--y", "1000"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"wasserstein", "kolmogorov", "nondiagonal", "delta3_sum", "exchange_variance"}


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_cli_simulate_trials_one_is_strict_json(capsys):
    rc = main(["simulate", "--x", "2000", "--y", "150", "--trials", "1"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert data["moments"]["se"] == {"m1": None, "m2": None, "m3": None, "m4": None}


def test_stein_refuses_one_var_trial_before_any_work(monkeypatch, capsys):
    # refused before the table is built, also at (10^8, 10^4], where
    # stein_terms refuses |N(5)| before it reaches the exchange variance
    def no_table(x, y):
        raise AssertionError("factor table built")

    monkeypatch.setattr(harness, "segmented_factorize", no_table)
    for x, y in ((100000000, 10000), (700, 9)):
        assert main(["stein", "--x", str(x), "--y", str(y), "--var-trials", "1"]) == 2
        assert "var_trials must be >= 2, got 1" in _one_line_error(capsys)


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    return err[0]


def test_cli_moments_budget_refusal_names_budget_and_rows(capsys):
    # (5000, 5400]: m = 13 and m^2 <= 5400, so the enumeration runs; its
    # first level, A in [13, 5400 // 13], charges 403 candidate rows
    assert main(["moments", "--x", "5000", "--y", "400", "--budget", "10"]) == 3
    assert _one_line_error(capsys) == (
        "scale error: enumeration budget of 10 candidate rows exceeded: 403 charged")


def test_cli_bounds_y_one_exits_2(capsys):
    # ln y = 0 would divide by zero in the third bound terms
    assert main(["bounds", "--x", "100", "--y", "1"]) == 2
    assert "y >= 2" in _one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["simulate", "--x", "2", "--y", "1", "--trials", "5"],
    # S = 0 at (3, 4]: this one used to exit 0
    ["simulate", "--x", "3", "--y", "1", "--trials", "5"],
    ["bounds", "--x", "2", "--y", "1"],
    ["bounds", "--x", "3", "--y", "1"],
], ids=["simulate-2-1", "simulate-3-1", "bounds-2-1", "bounds-3-1"])
def test_cli_distance_commands_refuse_y_one_before_any_work(argv, monkeypatch, capsys):
    # simulate ran every trial before its bounds divided by ln y = 0, and
    # bounds built the table first
    _refuse_tables(monkeypatch)
    assert main(argv) == 2
    assert _one_line_error(capsys) == (
        "error: the distance bounds divide by ln y and need y >= 2, got y=1")


@pytest.mark.parametrize("argv", [
    ["moments", "--x", "100", "--y", "1"],
    ["stein", "--x", "100", "--y", "1", "--var-trials", "2"],
], ids=["moments", "stein"])
def test_cli_stein_and_moments_accept_y_one(argv, capsys):
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["s_count"] == 1


SIMULATE_FILES = ["simulate", "--x", "2000", "--y", "100", "--trials", "10",
                  "--format", "json,csv,histogram"]


@pytest.mark.parametrize("argv, fail_at", [
    (["bounds", "--x", "2000", "--y", "100"], 0),
    (["moments", "--x", "2000", "--y", "100"], 0),
    (SIMULATE_FILES, 0),
    (SIMULATE_FILES, 1),
    (SIMULATE_FILES, 2),
], ids=["bounds", "moments", "simulate-json", "simulate-csv", "simulate-histogram"])
def test_failed_write_removes_every_file_of_the_call(argv, fail_at, tmp_path, monkeypatch,
                                                     capsys):
    # the write that fails has written half its text: that file is removed
    # with every complete one before it
    write_text = Path.write_text
    written = []

    def half_then_fail(path, data, *args, **kwargs):
        written.append(path.name)
        if len(written) > fail_at:
            write_text(path, data[: len(data) // 2], *args, **kwargs)
            raise OSError(28, "No space left on device")
        return write_text(path, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", half_then_fail)
    assert main(argv + ["--out", str(tmp_path / "d" / "r")]) == 4
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "i/o error: [Errno 28] No space left on device"
    assert written == ["r.json", "r.csv", "r.hist.json"][: fail_at + 1]
    assert list((tmp_path / "d").iterdir()) == []


def test_cli_distances_malformed_row_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("trial,w\n0,0.5\n1\n2,0.25\n")
    assert main(["distances", "--infile", str(path)]) == 2
    assert "bad.csv:3" in _one_line_error(capsys)


def _read_w_csv_rows(path) -> list[float]:
    """The w column read one row at a time, as the reference for _read_w_csv."""
    lines = Path(path).read_text().split("\n")[1:]
    return [float(line.split(",")[1]) for line in lines if line.strip()]


def test_read_w_csv_matches_row_by_row_parse(tmp_path):
    base = tmp_path / "exp"
    report = run_simulate(ExperimentConfig(x=2000, y=100, trials=500, master_seed=4))
    emit(report, ("csv",), str(base))
    values = _read_w_csv(str(base) + ".csv")
    assert values == _read_w_csv_rows(str(base) + ".csv") == report.w_values.tolist()
    # blank and whitespace-only rows are skipped
    path = tmp_path / "blank.csv"
    path.write_text("trial,w\n\n0,0.5\n   \n1, -0.25 \n\n")
    assert _read_w_csv(str(path)) == [0.5, -0.25]


@pytest.mark.parametrize("text, line", [
    ("trial,w\n0,0.5\n1,0.5,2\n2\n", 3),  # comma count still matches the rows
    ("trial,w\n0,0.5\n\n1,oops\n", 4),
    ("trial,w\n0,0.5\n1,\n", 3),
])
def test_read_w_csv_names_first_malformed_row(tmp_path, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"bad.csv:{line}: malformed row"):
        _read_w_csv(str(path))


def test_cli_stein_splits_primes_at_given_z(capsys):
    # the conditional moments use --z, not z(delta) = 2.18 here
    large = {p for _, ps in segmented_factorize(700, 9).squarefree_items()
             for p in ps if p > 3.5}
    assert main(["stein", "--x", "700", "--y", "9", "--z", "3.5", "--var-trials", "20"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["conditional_moments"] == {"large_primes": len(large), "ok": True}
    # with z given, delta >= 1/10 only warns, as in simulate
    assert main(["stein", "--x", "700", "--y", "80", "--z", "3", "--var-trials", "20"]) == 0


def test_stein_at_a_large_z_never_sieves_to_z(monkeypatch):
    # the five sign sources are read at the view's primes <= z, not at every
    # prime <= z: no sieve past isqrt(x + y), and the same conditional
    # moments as at z = x + y, where L is as empty
    limits = []
    sieve = numtheory._sieve

    def spy(limit):
        limits.append(limit)
        return sieve(limit)

    monkeypatch.setattr(numtheory, "_sieve", spy)
    out = run_stein_checks(ExperimentConfig(x=700, y=9, master_seed=4, z_override=1e7),
                           var_trials=2)
    assert limits and max(limits) <= math.isqrt(709)
    monkeypatch.undo()

    table = segmented_factorize(700, 9)
    signs = SignSource(4)
    rep = conditional_moments_check(table, 709.0, [signs.for_trial(i) for i in range(5)])
    assert rep.large_primes == ()
    assert out["conditional_moments"] == {"large_primes": 0, "ok": rep.ok}
    small_z = run_stein_checks(ExperimentConfig(x=700, y=9, master_seed=4, z_override=709.0),
                               var_trials=2)
    for key in ("conditional_moments", "decomposition", "s_count", "weight_identity"):
        assert out[key] == small_z[key]


def test_cli_stein_negative_seed(capsys):
    assert main(["stein", "--x", "700", "--y", "9", "--seed", "-1", "--var-trials", "20"]) == 0
    assert json.loads(capsys.readouterr().out)["conditional_moments"]["ok"]


@pytest.mark.parametrize("x, y", [(10**12, 10**9), (10**15, 10**3)])
def test_cli_out_of_scale_interval_exits_3_at_once(capsys, x, y):
    # y > 10^7 or x + y > 10^15: refused before the sieve allocates anything
    t0 = time.perf_counter()
    assert main(["bounds", "--x", str(x), "--y", str(y)]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert _one_line_error(capsys).startswith("scale error:")


@pytest.mark.parametrize("argv", [
    ["--x", "10000000", "--y", "1000000"],
    ["--x", "1000000", "--y", "100000", "--budget", "1000000"],
])
def test_cli_moments_over_budget_exits_3_at_once(capsys, argv):
    # the enumeration sizes its levels and refuses before the factor table
    # or the over-budget level is built
    t0 = time.perf_counter()
    assert main(["moments", *argv]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.splitlines()[-1].startswith("scale error:")
    tracemalloc.start()
    try:
        assert main(["moments", *argv]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("argv", [
    ["simulate", "--x", "1000000", "--y", "1000", "--trials", str(MAX_TRIALS + 1)],
    ["simulate", "--x", "1000000", "--y", "1000", "--trials", str(10**15)],
    ["stein", "--x", "100000", "--y", "100", "--var-trials", str(MAX_TRIALS + 1)],
])
def test_cli_too_many_trials_exits_3_at_once(capsys, argv):
    # refused before the factor table or the sign matrix
    t0 = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - t0 < 1.0
    assert _one_line_error(capsys).startswith("scale error:")
    tracemalloc.start()
    try:
        assert main(argv) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_cli_too_many_workers_exits_3_before_any_process(monkeypatch, capsys):
    import multiprocessing

    def no_process(*args, **kwargs):
        raise AssertionError("a worker pool was asked for")

    monkeypatch.setattr(multiprocessing, "get_context", no_process)
    argv = ["simulate", "--x", "1000000", "--y", "1000", "--trials", "100000"]
    with monkeypatch.context() as m:
        # refused before the factor table is built
        m.setattr(harness, "segmented_factorize", no_process)
        assert main(argv + ["--workers", str(MAX_WORKERS + 1)]) == 3
        assert _one_line_error(capsys) == (f"scale error: {MAX_WORKERS + 1} workers exceeds "
                                           f"MAX_WORKERS = {MAX_WORKERS}")
        assert main(argv + ["--workers", "100000"]) == 3
        assert _one_line_error(capsys).startswith("scale error:")
        with pytest.raises(ScaleError, match="MAX_WORKERS"):
            run_simulate(small_config(workers=MAX_WORKERS + 1))
    # the cap itself is accepted: one trial runs in this process
    assert main(["simulate", "--x", "2000", "--y", "100", "--trials", "1",
                 "--workers", str(MAX_WORKERS)]) == 0


@pytest.mark.parametrize("argv", [
    ["quadruples", "--x", "100", "--y", "40"],
    ["moments", "--x", "100", "--y", "40", "--z", "1"],
    ["stein", "--x", "700", "--y", "9", "--identity-max-l", "3"],
    ["simulate", "--x", "2000", "--y", "100", "--trials", "5", "--timed-json"],
    # --y is the only interval length: --delta is no option, alone or with --y
    ["simulate", "--x", "20", "--delta", "0.05", "--trials", "5"],
    ["simulate", "--x", "2000", "--delta", "0.05"],
    ["simulate", "--x", "1000", "--delta", "inf"],
    ["moments", "--x", "1000", "--delta", "-1"],
    ["moments", "--x", "1000", "--delta", "1e-9"],
    ["moments", "--x", "10000000000", "--delta", "1e308"],
    ["stein", "--x", "700", "--y", "9", "--delta", "0.012857142857142857"],
    ["bounds", "--x", "1000", "--y", "50", "--delta", "0.05"],
    ["bounds", "--x", "1000"],
], ids=["quadruples", "moments-z", "stein-identity-max-l", "simulate-timed-json",
        "simulate-delta", "simulate-delta-no-y", "simulate-delta-inf", "moments-delta-negative",
        "moments-delta-tiny", "moments-delta-huge", "stein-delta", "bounds-delta", "bounds-no-y"])
def test_cli_unknown_command_or_option_is_an_argparse_error(argv, monkeypatch, capsys):
    # argparse exits 2 before main builds a table or prints a report
    _refuse_tables(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_cli_simulate_puts_its_stage_times_on_one_stderr_line(tmp_path, capsys):
    # the total and the sieve, trials and analysis stages; never in a report
    ms = r"\d+\.\d ms"
    line = rf"simulate: 50 trials in {ms} \(sieve {ms}, trials {ms}, analysis {ms}\)"
    argv = ["simulate", "--x", "2000", "--y", "100", "--trials", "50"]
    assert main(argv) == 0
    printed = capsys.readouterr()
    assert re.fullmatch(line, printed.err.rstrip("\n"))
    assert json.loads(printed.out)["timing_ms"] is None
    assert main(argv + ["--out", str(tmp_path / "r")]) == 0
    assert re.fullmatch(line, _one_line_error(capsys))
    assert json.loads((tmp_path / "r.json").read_text())["timing_ms"] is None


def test_cli_parser_is_built_once_and_parses_each_command_afresh():
    assert _build_parser() is _build_parser()
    parse = _build_parser().parse_args
    first = parse(["moments", "--x", "100", "--y", "40", "--budget", "5"])
    second = parse(["simulate", "--x", "2000", "--y", "100"])
    third = parse(["moments", "--x", "300", "--y", "30"])
    assert (first.command, first.x, first.y, first.budget) == ("moments", 100, 40, 5)
    assert (second.command, second.x, second.y, second.z) == ("simulate", 2000, 100, None)
    assert (second.trials, second.format) == (1000, "json")
    assert not hasattr(second, "budget")
    assert (third.command, third.x, third.y, third.budget) == (
        "moments", 300, 30, quad_mod.DEFAULT_BUDGET)
    assert not hasattr(third, "trials")


@pytest.mark.parametrize("command", [
    ["simulate", "--x", "100", "--y", "20", "--trials", "10"],
    ["moments", "--x", "100", "--y", "20"],
    ["stein", "--x", "100", "--y", "20", "--var-trials", "2"],
    ["bounds", "--x", "100", "--y", "20"],
    # delta is printed as the report writes it, not rounded to 1
    ["bounds", "--x", "1000000", "--y", "999999"],
])
def test_cli_warns_once_about_delta(capsys, command):
    assert main(command) == 0
    delta = {"20": "0.2", "999999": "0.999999"}[command[4]]
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("warning:")] == [
        f"warning: delta = {delta} is outside the proven range (< 1/10)"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--x", "100", "--y", "20", "--trials", "10"],
    ["moments", "--x", "100", "--y", "20"],
    ["stein", "--x", "100", "--y", "20", "--var-trials", "2"],
    ["bounds", "--x", "100", "--y", "20"],
], ids=["simulate", "moments", "stein", "bounds"])
def test_cli_builds_one_config_per_call(argv, monkeypatch, capsys):
    # main validates the config once and hands that one instance to the run
    built = []
    validate = ExperimentConfig.__post_init__

    def spy(cfg):
        built.append(cfg)
        validate(cfg)

    monkeypatch.setattr(ExperimentConfig, "__post_init__", spy)
    assert main(argv) == 0
    assert [(cfg.x, cfg.y) for cfg in built] == [(100, 20)]
