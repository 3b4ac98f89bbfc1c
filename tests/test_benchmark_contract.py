"""The benchmark under perfbench/ reaches into rmflab by module path and
attribute name; these tests read it, without changing it, so that a rename
or deletion that would break its traced runs fails here first."""

import argparse
import importlib
import importlib.util
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import rmflab
from rmflab import errors, harness, numtheory, quadruples, rmf_core, stein
from rmflab.numtheory import segmented_factorize

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")

# Each command's options, as `_build_parser()` defines them (25 in all).
COMMAND_OPTIONS = {
    "simulate": {"--x", "--y", "--seed", "--z", "--trials", "--workers", "--out",
                 "--format"},
    "moments": {"--x", "--y", "--seed", "--out"},
    "stein": {"--x", "--y", "--seed", "--z", "--out", "--var-trials"},
    "bounds": {"--x", "--y", "--seed", "--z", "--out"},
    "distances": {"--infile", "--out"},
}


@pytest.mark.parametrize("module_name, attr", [t[:2] for t in spans.TARGETS])
def test_span_targets_resolve(module_name, attr):
    # the tracer wraps vars(owner)[leaf], so the leaf must be defined on its owner
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert leaf in vars(owner)


# The package's public names; the span targets above pin what must stay.
PUBLIC_NAMES = [
    "BoundInputs", "ExperimentConfig", "ExperimentReport", "IntervalSampler", "IntervalTable",
    "SampleSet", "ScaleError", "SignSource", "SteinTerms", "conditional_moments_check",
    "delta3_sum_bound", "diagonal_count", "emit", "exchange_variance_bound",
    "exchange_variance_monte_carlo", "interval_sum", "kkw_from", "kolmogorov_bound",
    "kolmogorov_stat", "nondiagonal_bound", "normal_cdf", "normal_pdf", "normal_quantile",
    "oracle_count_square_quadruples", "param_enumerate_nondiagonal", "rmf_value",
    "run_simulate", "segmented_factorize", "stein_terms", "subset_weight",
    "subset_weight_identity", "wasserstein1", "wasserstein_bound",
]


def test_public_names_are_pinned():
    # the test-only references live in tests/reference.py, not in the package
    public = sorted(name for name, value in vars(rmflab).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert public == PUBLIC_NAMES
    moved = {
        quadruples: ("QuadrupleParam", "param_of_quadruple", "nondiagonal_quadruples",
                     "_oracle_count_members"),
        numtheory: ("trial_factorize", "_kernel_unchecked"),
        numtheory.IntervalTable: ("factors", "squarefree_values"),
        errors: ("ContractViolation",),
    }
    assert not [(owner, name) for owner, names in moved.items() for name in names
                if hasattr(owner, name)]


def test_workloads_import():
    assert callable(workloads.interval_sum) and callable(workloads.squarefree_flags)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_workload_argv_parses(workload):
    # a command or option the benchmark passes and the CLI no longer has
    # would make every run of the workload exit 2
    parse = harness._build_parser().parse_args
    for seed in (1, 2, 3):
        for call in workloads.calls_for(workload, seed):
            args = parse(call.argv(seed, "runs/r"))
            assert (args.command, args.x, args.y, args.seed, args.out) == (
                call.command, call.x, call.y, seed, "runs/r")


def test_each_command_has_exactly_its_options():
    parser = harness._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {name: {o for a in p._actions if not isinstance(a, argparse._HelpAction)
                      for o in a.option_strings}
               for name, p in commands.choices.items()}
    assert options == COMMAND_OPTIONS
    assert sum(map(len, options.values())) == 25


def test_incidence_counters_match_the_table():
    table = segmented_factorize(10**6, 1000)
    primes, nnz = spans._incidence(table)
    sizes = np.diff(table.offsets)
    squarefree = np.repeat(table.flags, sizes)
    assert len(primes) == np.unique(table.primes[squarefree]).size
    assert nnz == int(np.count_nonzero(squarefree))


def test_stein_checks_reach_the_traced_stein_layers(monkeypatch):
    # the stein.weight_identity_s and stein.decomposition_s spans wrap these
    # module attributes; a harness path that stopped calling them would leave
    # those layer metrics at 0
    calls = {"subset_weight_identity": 0, "decomposition_sides": 0}
    for name in calls:
        original = getattr(stein, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(stein, name, counted)
    out = harness.run_stein_checks(harness.ExperimentConfig(x=700, y=9, master_seed=5))
    assert out["weight_identity"]["ok"] and out["decomposition"]["equal"]
    assert calls["subset_weight_identity"] == harness.IDENTITY_MAX_L  # one call per |L|
    assert calls["decomposition_sides"] == 1


def test_stein_terms_builds_member_masks_only_for_shared_primes(monkeypatch):
    # a prime with |N(p)| = 1 is closed form: at (100020, 100] member masks
    # are built for the 10 primes of L with |N(p)| >= 2, not for all 84
    built = []
    original = stein._support_masks

    def counted(table, j):
        built.append(j)
        return original(table, j)

    monkeypatch.setattr(stein, "_support_masks", counted)
    out = harness.run_stein_checks(harness.ExperimentConfig(x=100020, y=100), var_trials=20)
    assert "skipped" in out["decomposition"] and "skipped" not in out["exchange_variance"]
    table = segmented_factorize(100020, 100)
    view, first = stein._view(table, harness.ExperimentConfig(x=100020, y=100).z)
    counts = np.diff(view.offsets)
    assert view.primes.size - first == 84
    assert built == (first + np.flatnonzero(counts[first:] >= 2)).tolist()
    assert len(built) == 10


@pytest.mark.parametrize("argv", [
    ["bounds", "--x", "10000", "--y", "100"],
    ["simulate", "--x", "10000", "--y", "100", "--trials", "8"],
    ["moments", "--x", "10000", "--y", "100"],
    ["stein", "--x", "700", "--y", "9", "--var-trials", "8"],
])
def test_each_command_factors_its_interval_once(argv, monkeypatch, capsys):
    # a traced pass is checked against the factor tables it saw (their S
    # must be the sieve's), so each command the benchmark runs must factor
    # its interval exactly once through harness.segmented_factorize
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return segmented_factorize(x, y)

    monkeypatch.setattr(harness, "segmented_factorize", counted)
    assert harness.main(argv) == 0
    capsys.readouterr()
    assert calls == [(int(argv[2]), int(argv[4]))]


def test_one_raw_sums_call_per_run_at_one_worker(monkeypatch):
    # spans._count_trials reads the trial count as args[2] of
    # IntervalSampler.raw_sums, so the harness passes (start, count)
    # positionally, once for all trials when it runs in one process
    calls = []
    original = rmf_core.IntervalSampler.raw_sums

    def counted(*args, **kwargs):
        calls.append((args[1:], kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(rmf_core.IntervalSampler, "raw_sums", counted)
    raw = harness._run_trials(segmented_factorize(2000, 150), 11, 10001, 1)
    assert raw.shape == (10001,)
    assert calls == [((0, 10001), {})]


def test_traced_pass_counts_every_trial(capsys):
    tracer = spans.Tracer()
    with tracer.traced_pass():
        assert harness.main(["simulate", "--x", "2000", "--y", "150",
                             "--trials", "5000", "--workers", "1"]) == 0
    capsys.readouterr()
    assert tracer.counts["rmf_core.trials"] == 5000


def _count_views(monkeypatch) -> list[bool]:
    """Record each build of a table's prime-major view, with whether it ran
    inside IntervalSampler.__init__."""
    builds: list[bool] = []
    in_sampler = [False]
    build, init = numtheory._prime_major, rmf_core.IntervalSampler.__init__

    def counted_build(table):
        builds.append(in_sampler[0])
        return build(table)

    def traced_init(self, *args, **kwargs):
        in_sampler[0] = True
        try:
            init(self, *args, **kwargs)
        finally:
            in_sampler[0] = False

    monkeypatch.setattr(numtheory, "_prime_major", counted_build)
    monkeypatch.setattr(rmf_core.IntervalSampler, "__init__", traced_init)
    return builds


@pytest.mark.parametrize("x, y", [(100020, 100), (700, 9), (100000000, 10000)])
def test_stein_builds_the_prime_major_view_once(x, y, monkeypatch, capsys):
    # conditional moments, the decomposition, stein_terms and the exchange
    # variance all read the one view of the command's table
    builds = _count_views(monkeypatch)
    assert harness.main(["stein", "--x", str(x), "--y", str(y), "--var-trials", "50"]) == 0
    capsys.readouterr()
    assert builds == [False]


def test_bounds_never_builds_the_prime_major_view(monkeypatch, capsys):
    # the sweep workload is bounds alone: factorization and nothing more
    builds = _count_views(monkeypatch)
    assert harness.main(["bounds", "--x", "10000000000", "--y", "10000"]) == 0
    capsys.readouterr()
    assert builds == []


def test_simulate_builds_the_view_inside_the_sampler(monkeypatch, capsys):
    # a traced simulate charges the view to rmf_core.sampler_build_s, the
    # span around IntervalSampler.__init__
    builds = _count_views(monkeypatch)
    assert harness.main(["simulate", "--x", "10000", "--y", "100", "--trials", "20",
                         "--workers", "1"]) == 0
    capsys.readouterr()
    assert builds == [True]
