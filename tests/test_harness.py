import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from rmflab.harness import (
    ExperimentConfig,
    ExperimentReport,
    emit,
    main,
    run_moments,
    run_simulate,
    run_stein_checks,
)
from rmflab.numtheory import segmented_factorize


def small_config(trials=200, workers=1, **kw):
    return ExperimentConfig(
        x=2000, y=150, trials=trials, master_seed=11, workers=workers, **kw
    )


def test_config_resolution():
    cfg = ExperimentConfig(x=1000, delta=0.05).resolved()
    assert cfg.y == 50 and cfg.delta == pytest.approx(0.05)
    cfg2 = ExperimentConfig(x=1000, y=50).resolved()
    assert cfg2.delta == pytest.approx(0.05)
    assert cfg2.z == pytest.approx(0.5 * math.log(20))
    with pytest.raises(ValueError):
        ExperimentConfig(x=1000).resolved()
    with pytest.raises(ValueError):
        ExperimentConfig(x=1000, y=2000).resolved()
    with pytest.raises(ValueError):
        ExperimentConfig(x=1000, y=10, trials=0).resolved()
    with pytest.raises(ValueError):
        ExperimentConfig(x=1000, y=10, formats=("yaml",)).resolved()


def test_config_warns_outside_proven_range(capsys):
    ExperimentConfig(x=100, y=50).resolved()
    assert "outside the proven range" in capsys.readouterr().err


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


def test_adding_trials_extends_stream():
    short = run_simulate(small_config(trials=100))
    long = run_simulate(small_config(trials=300))
    assert np.array_equal(long.w_values[:100], short.w_values)


def test_report_round_trip():
    report = run_simulate(small_config())
    loaded = ExperimentReport.from_dict(json.loads(report.dumps()))
    assert loaded.dumps() == report.dumps()
    with pytest.raises(ValueError):
        ExperimentReport.from_dict({"schema_version": 99})


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
    assert float(lines[1].split(",")[1]) == float(report.w_values[0])

    hist = json.loads(files[2].read_text())
    assert len(hist["edges"]) == 65
    assert len(hist["counts"]) == 66  # underflow + 64 + overflow
    assert sum(hist["counts"]) == 200


def test_emit_deterministic_bytes(tmp_path):
    r1 = run_simulate(small_config())
    r2 = run_simulate(small_config(workers=2))
    f1 = emit(r1, ("json", "csv"), str(tmp_path / "a"))
    f2 = emit(r2, ("json", "csv"), str(tmp_path / "b"))
    assert f1[0].read_bytes() == f2[0].read_bytes()
    assert f1[1].read_bytes() == f2[1].read_bytes()


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
    frag = run_stein_checks(ExperimentConfig(x=700, y=9, master_seed=5),
                            identity_max_l=10, var_trials=20)
    assert frag["weight_identity"]["ok"]
    assert frag["conditional_moments"]["ok"]
    assert frag["exchange_variance"]["estimate"] >= 0
    assert frag["sum_delta3"]["value"] >= 0
    assert frag["sum_delta3"]["ratio"] >= 0  # reported, never asserted vs constants
    # larger interval: the exhaustive checks must refuse, not crash
    frag2 = run_stein_checks(ExperimentConfig(x=10**4, y=400, master_seed=5),
                             identity_max_l=3, var_trials=10)
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


def test_cli_simulate_files(tmp_path, capsys):
    base = tmp_path / "exp"
    rc = main(["simulate", "--x", "2000", "--y", "100", "--trials", "50",
               "--seed", "9", "--out", str(base), "--format", "json,csv,histogram"])
    assert rc == 0
    assert (tmp_path / "exp.json").exists()
    assert (tmp_path / "exp.csv").exists()
    assert (tmp_path / "exp.hist.json").exists()


def test_cli_distances_round_trip(tmp_path, capsys):
    base = tmp_path / "exp"
    main(["simulate", "--x", "2000", "--y", "100", "--trials", "64",
          "--seed", "9", "--out", str(base), "--format", "json,csv"])
    rc = main(["distances", "--infile", str(tmp_path / "exp.csv")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    sim = json.loads((tmp_path / "exp.json").read_text())
    assert report["ks"] == pytest.approx(sim["distances"]["ks"])
    assert report["w1"] == pytest.approx(sim["distances"]["w1"])


def test_cli_exit_codes(capsys):
    assert main(["simulate", "--x", "1000", "--y", "2000", "--trials", "5"]) == 2
    # scale error: oracle-sized check refused
    assert main(["quadruples", "--x", "5000", "--y", "400", "--budget", "10"]) == 3
    assert main(["moments", "--x", "5000", "--y", "400", "--budget", "10"]) == 3
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # missing required --x
    assert exc.value.code == 2


def test_cli_env_workers(monkeypatch, capsys):
    monkeypatch.setenv("RMF_LAB_WORKERS", "2")
    rc = main(["simulate", "--x", "2000", "--y", "100", "--trials", "40"])
    assert rc == 0


def test_cli_moments_subcommand(capsys):
    rc = main(["moments", "--x", "100", "--y", "40"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["fourth_moment"] == data["oracle"]


def test_cli_stein_and_bounds_subcommands(capsys):
    rc = main(["stein", "--x", "700", "--y", "9", "--seed", "5",
               "--var-trials", "20", "--identity-max-l", "6"])
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


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    return err[0]


def test_cli_bounds_y_one_exits_2(capsys):
    # ln y = 0 would divide by zero in the third bound terms
    assert main(["bounds", "--x", "100", "--y", "1"]) == 2
    assert "y >= 2" in _one_line_error(capsys)


def test_cli_distances_malformed_row_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("trial,w\n0,0.5\n1\n2,0.25\n")
    assert main(["distances", "--infile", str(path)]) == 2
    assert "bad.csv:3" in _one_line_error(capsys)


def test_cli_env_workers_invalid_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("RMF_LAB_WORKERS", "two")
    assert main(["simulate", "--x", "2000", "--y", "100", "--trials", "4"]) == 2
    assert "RMF_LAB_WORKERS" in _one_line_error(capsys)


def test_cli_stein_splits_primes_at_given_z(capsys):
    # the conditional moments use --z, not z(delta) = 2.18 here
    large = {p for _, ps in segmented_factorize(700, 9).squarefree_items()
             for p in ps if p > 3.5}
    assert main(["stein", "--x", "700", "--y", "9", "--z", "3.5",
                 "--var-trials", "20", "--identity-max-l", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["conditional_moments"] == {"large_primes": len(large), "ok": True}
    # with z given, delta >= 1/10 only warns, as in simulate
    assert main(["stein", "--x", "700", "--y", "80", "--z", "3",
                 "--var-trials", "20", "--identity-max-l", "3"]) == 0


def test_cli_stein_negative_seed(capsys):
    assert main(["stein", "--x", "700", "--y", "9", "--seed", "-1",
                 "--var-trials", "20", "--identity-max-l", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["conditional_moments"]["ok"]


@pytest.mark.parametrize("value", ["0", "-4"])
def test_cli_stein_identity_max_l_below_one_exits_2(capsys, value):
    # an identity check over no L at all would report ok
    assert main(["stein", "--x", "700", "--y", "9", "--identity-max-l", value]) == 2
    assert "identity_max_l" in _one_line_error(capsys)


@pytest.mark.parametrize("x, y", [(10**12, 10**9), (10**15, 10**3)])
def test_cli_out_of_scale_interval_exits_3_at_once(capsys, x, y):
    # y > 10^7 or x + y > 10^15: refused before the sieve allocates anything
    t0 = time.perf_counter()
    assert main(["bounds", "--x", str(x), "--y", str(y)]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert _one_line_error(capsys).startswith("scale error:")
