"""The benchmark's workloads: the rmflab CLI calls each one makes for a seed,
and the checks every output file of those calls must pass.

A seed sets the program's --seed and moves x by a seed-derived offset inside
a small fixed window above the nominal value, so a fresh seed gives a fresh
interval of the same cost. Expected values come from paths independent of
the ones under test: S from the square-free sieve `squarefree_flags`, raw
sums from the scalar `interval_sum` reference, bounds from `rmflab.bounds`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from rmflab.bounds import BoundInputs, kolmogorov_bound, nondiagonal_bound, wasserstein_bound
from rmflab.numtheory import segmented_factorize, squarefree_flags
from rmflab.quadruples import ORACLE_MAX_S
from rmflab.rmf_core import SignSource, interval_sum

# Trials whose raw sums are re-derived through the scalar reference path.
SCALAR_TRIALS = 16
# Relative tolerance for floats recomputed from the same formula; a change of
# S by one moves the interval bounds by about 1e-6 relative.
REL_TOL = 1e-9


class CheckFailed(Exception):
    """An output file disagrees with its independently computed value."""


@dataclass(frozen=True)
class Call:
    """One invocation of `rmflab.harness.main`."""

    command: str
    x: int
    y: int
    trials: int = 0

    @property
    def suffixes(self) -> tuple[str, ...]:
        if self.command == "simulate":
            return (".json", ".csv", ".hist.json")
        return (".json",)

    def argv(self, seed: int, out_base: str) -> list[str]:
        argv = [self.command, "--x", str(self.x), "--y", str(self.y), "--seed", str(seed)]
        if self.command == "simulate":
            argv += ["--trials", str(self.trials), "--format", "json,csv,histogram",
                     "--workers", "1"]
        return argv + ["--out", out_base]


def _clt(rng: random.Random) -> list[Call]:
    return [Call("simulate", 10**6 + rng.randrange(1000), 1000, trials=100_000)]


def _wide(rng: random.Random) -> list[Call]:
    # x/y >= 1000 keeps the fourth-moment enumeration inside simulate empty
    return [Call("simulate", 10**10 + rng.randrange(10**4), 10**4, trials=1000)]


def _sweep(rng: random.Random) -> list[Call]:
    return [Call("bounds", 10**12 + rng.randrange(10**5), 10**5),
            Call("bounds", 10**10 + rng.randrange(10**6), 10**6)]


def _exact(rng: random.Random) -> list[Call]:
    # Across this window the enumeration steps stay within 2% and the largest
    # exact third-moment transform in stein has 2^18 entries, which sets the
    # peak memory (2^19 and 2^20 just outside it). The tiny Stein interval
    # stays at x = 700: its cost is exponential in the number of large
    # primes, which ranges from 8 to 11 within +-6 of 700.
    x = 10**5 + 15 + rng.randrange(15)
    return [Call("moments", x, 1000), Call("moments", x, 300),
            Call("stein", x, 100), Call("stein", 700, 9)]


WORKLOADS = {"clt": _clt, "wide": _wide, "sweep": _sweep, "exact": _exact}


def calls_for(workload: str, seed: int) -> list[Call]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _reject_constant(name: str):
    raise CheckFailed(f"non-finite JSON constant {name}")


def _load_json(path: Path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


class Checker:
    """Checks the output files of one call; expected values are computed once
    per run, since every pass of a run repeats the same calls."""

    def __init__(self, seed: int):
        self.seed = seed
        self._s_count: dict[tuple[int, int], int] = {}
        self._raw: dict[tuple[int, int], list[int]] = {}

    def s_count(self, x: int, y: int) -> int:
        if (x, y) not in self._s_count:
            self._s_count[(x, y)] = sum(squarefree_flags(x, y))
        return self._s_count[(x, y)]

    def scalar_raw_sums(self, x: int, y: int) -> list[int]:
        if (x, y) not in self._raw:
            table = segmented_factorize(x, y)
            root = SignSource(self.seed)
            self._raw[(x, y)] = [interval_sum(table, root.for_trial(t))
                                 for t in range(SCALAR_TRIALS)]
        return self._raw[(x, y)]

    def check(self, call: Call, base: str) -> dict[str, int]:
        """Raise CheckFailed on a wrong output; return counters read off it."""
        try:
            return getattr(self, "_check_" + call.command)(call, base)
        except (OSError, KeyError, TypeError, ValueError, IndexError) as e:
            raise CheckFailed(f"{type(e).__name__}: {e}") from e

    def _check_simulate(self, call: Call, base: str) -> dict[str, int]:
        report = _load_json(Path(base + ".json"))
        cfg = report["config"]
        _expect((cfg["x"], cfg["y"], cfg["trials"], cfg["master_seed"])
                == (call.x, call.y, call.trials, self.seed), "config echo")
        s = self.s_count(call.x, call.y)
        _expect(report["s_count"] == s, f"s_count {report['s_count']} != {s}")
        _expect(report["distances"]["kkw_holds"] is True, "K <= 2 sqrt(W1) fails")

        lines = Path(base + ".csv").read_text().splitlines()
        _expect(lines[0] == "trial,w", "csv header")
        _expect(len(lines) == call.trials + 1, "csv row count")
        root_s = math.sqrt(s)
        for t, raw in enumerate(self.scalar_raw_sums(call.x, call.y)):
            index, w = lines[t + 1].split(",")
            _expect(int(index) == t, f"csv row {t} index")
            _expect(abs(float(w) * root_s - raw) <= 1e-6, f"trial {t}: W*sqrt(S) != {raw}")

        hist = _load_json(Path(base + ".hist.json"))
        _expect(sum(hist["counts"]) == call.trials, "histogram counts != trials")
        return {}

    def _check_bounds(self, call: Call, base: str) -> dict[str, int]:
        # the bounds report does not echo S; its S-dependent entries are
        # recomputed from the sieve's S
        out = _load_json(Path(base + ".json"))
        b = BoundInputs.from_interval(call.x, call.y, self.s_count(call.x, call.y))
        for key, value in (("wasserstein", wasserstein_bound(b)),
                           ("kolmogorov", kolmogorov_bound(b)),
                           ("nondiagonal", nondiagonal_bound(call.x, b.delta))):
            _expect(math.isclose(out[key], value, rel_tol=REL_TOL),
                    f"{key} {out[key]!r} != {value!r}")
        return {}

    def _check_moments(self, call: Call, base: str) -> dict[str, int]:
        out = _load_json(Path(base + ".json"))
        s = self.s_count(call.x, call.y)
        _expect(out["s_count"] == s, f"s_count {out['s_count']} != {s}")
        _expect(out["diagonal"] == 3 * s * s - 2 * s, "diagonal != 3S^2 - 2S")
        _expect(out["fourth_moment"] == out["diagonal"] + out["nondiagonal"],
                "fourth_moment != diagonal + nondiagonal")
        _expect(out["nondiagonal"] <= out["nondiagonal_bound"], "nondiagonal bound fails")
        if s <= ORACLE_MAX_S:
            _expect(out["oracle"] == out["fourth_moment"], "oracle != fourth_moment")
        return {}

    def _check_stein(self, call: Call, base: str) -> dict[str, int]:
        out = _load_json(Path(base + ".json"))
        s = self.s_count(call.x, call.y)
        _expect(out["s_count"] == s, f"s_count {out['s_count']} != {s}")
        _expect(out["weight_identity"]["ok"] is True, "weight identity fails")
        skipped = 0
        for key, verdict in (("conditional_moments", "ok"), ("decomposition", "equal"),
                             ("exchange_variance", None)):
            if "skipped" in out[key]:
                skipped += 1
            elif verdict is not None:
                _expect(out[key][verdict] is True, f"{key} check fails")
        return {"stein.skipped": skipped}
