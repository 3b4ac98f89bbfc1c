"""Mutation checks: small faults that the test suite must catch.

Each entry of MUTANTS puts one fault into the source: a file, an exact text
that occurs once in it, the text that replaces it, and the test files each
of which must fail with the fault in place.  For each entry the runner
copies src/, tests/, perfbench/ and pyproject.toml into a temporary
directory, applies the entry there and runs each named test file with
`pytest -x`.  A mutant is killed when every named file fails (pytest exits
1).  A file whose run takes longer than TIMEOUT_S counts as failing: its
pytest and every process that pytest started are killed, and the mutant's
line says so.  The runner exits 1 if any mutant survives, or, before running
any, if an old text is not found exactly once, so that the table keeps up
with the code.  The named files must pass on the unchanged tree, as tier-1
checks first.  pytest does not collect this file; run it from anywhere, with
no options:

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
# Longest run of one test file under a mutant.  The slowest named file,
# tests/test_stein.py, takes 14-17 s on 2 shared vCPUs, and a mutant can
# make a loop run forever (a factor table that stores a prime of 1 never
# leaves numtheory._valuations).
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


STEIN = "src/rmflab/stein.py"
CORE = "src/rmflab/rmf_core.py"
HARNESS = "src/rmflab/harness.py"
NUMTHEORY = "src/rmflab/numtheory.py"

MUTANTS = [
    # each Stein budget refusing at its own value
    Mutant("_delta3 refuses k = PRIME_BUDGET", STEIN,
           "if k > PRIME_BUDGET:", "if k >= PRIME_BUDGET:", ("tests/test_stein.py",)),
    Mutant("a lone member with k = PRIME_BUDGET counted as bounded", STEIN,
           "np.diff(table.offsets)[alone] - 1 > PRIME_BUDGET",
           "np.diff(table.offsets)[alone] - 1 >= PRIME_BUDGET", ("tests/test_stein.py",)),
    Mutant("stein_terms refuses |N(p)| = MEMBER_BUDGET", STEIN,
           "counts > MEMBER_BUDGET", "counts >= MEMBER_BUDGET", ("tests/test_stein.py",)),
    Mutant("conditional_moments_check refuses |L| = LARGE_PRIME_BUDGET", STEIN,
           "if len(large) > LARGE_PRIME_BUDGET:", "if len(large) >= LARGE_PRIME_BUDGET:",
           ("tests/test_stein.py",)),
    Mutant("decomposition_sides refuses |L| = L_BUDGET", STEIN,
           "if l_size > L_BUDGET:", "if l_size >= L_BUDGET:", ("tests/test_stein.py",)),
    Mutant("stein_terms refuses y = x", STEIN,
           "if table.y_len > table.x_lo:", "if table.y_len >= table.x_lo:",
           ("tests/test_stein.py",)),
    # the exact Stein checks
    Mutant("the N(p) with four members not enumerated", STEIN,
           "np.flatnonzero(n >= 4)", "np.flatnonzero(n >= 5)", ("tests/test_stein.py",)),
    Mutant("the second moment taken as the squared sum", STEIN,
           "seconds.append(Fraction(int((f * f).sum()), n))",
           "seconds.append(Fraction(int(f.sum() ** 2), n))", ("tests/test_stein.py",)),
    Mutant("the small signs dropped from the sign-vector table", STEIN,
           "coeffs = _over_entries(table, np.multiply, small)",
           "coeffs = np.ones(table.y_len, dtype=np.int64)", ("tests/test_stein.py",)),
    Mutant("every source reads the first source's small signs", STEIN,
           "    for signs in sources:\n"
           "        small = np.array([signs.sign(q) for q in view.primes[:first].tolist()], "
           "dtype=np.int64)\n"
           "        coeffs = _over_entries(table, np.multiply, small)\n",
           "    small = np.array([sources[0].sign(q) for q in view.primes[:first].tolist()], "
           "dtype=np.int64)\n"
           "    coeffs = _over_entries(table, np.multiply, small)\n"
           "    for signs in sources:\n", ("tests/test_stein.py",)),
    Mutant("the large-sign factor taken as any overlap", STEIN,
           "np.bitwise_count(masks & x_bits) & 1", "np.bitwise_count(masks & x_bits) != 0",
           ("tests/test_stein.py", "tests/test_report_digests.py")),
    Mutant("a buffered fancy add in _all_sign_values", STEIN,
           "np.add.at(g, masks, coeffs)", "g[masks] += coeffs", ("tests/test_stein.py",)),
    # the sign kernel
    Mutant("bit 62 read for the sign", CORE,
           "np.signbit(hb.view(np.float64), out=dst)",
           "np.signbit((hb << np.uint64(1)).view(np.float64), out=dst)",
           ("tests/test_rmf_core.py",)),
    Mutant("np.less on the float view", CORE,
           "np.signbit(hb.view(np.float64), out=bits)",
           "np.less(hb.view(np.float64), 0, out=bits)", ("tests/test_rmf_core.py",)),
    Mutant("rmf_value reads only the first prime of its entry", CORE,
           "table.primes[table.offsets[i] : table.offsets[i + 1]]",
           "table.primes[table.offsets[i] : table.offsets[i] + 1]", ("tests/test_rmf_core.py",)),
    Mutant("the omega = 1 bucket dropped", CORE,
           "for k in (np.flatnonzero(sizes[1:]) + 1).tolist():",
           "for k in (np.flatnonzero(sizes[2:]) + 2).tolist():", ("tests/test_rmf_core.py",)),
    # simulate's analysis and report files
    Mutant("trial 0 written blank", HARNESS,
           'rows[:, k] = d % 10 + ord("0") if k == ndigits - 1 else (d % 10 + ord("0")) * (d > 0)',
           'rows[:, k] = (d % 10 + ord("0")) * (d > 0)',
           ("tests/test_harness.py", "tests/test_report_digests.py")),
    Mutant("an unweighted histogram", HARNESS,
           "range=HIST_RANGE, weights=counts)", "range=HIST_RANGE)",
           ("tests/test_harness.py", "tests/test_report_digests.py")),
    Mutant("CSV rows out of order", HARNESS,
           "text.take(row[start:start + len(i)], axis=0)",
           "text.take(np.sort(row[start:start + len(i)]), axis=0)",
           ("tests/test_harness.py", "tests/test_report_digests.py")),
    Mutant("an unreversed distinct", HARNESS,
           "occurs = np.flatnonzero(seen)[::-1]", "occurs = np.flatnonzero(seen)",
           ("tests/test_harness.py", "tests/test_report_digests.py")),
    # the CLI and its refusals
    Mutant(".4g for delta", HARNESS,
           'print(f"warning: delta = {cfg.delta!r} is',
           'print(f"warning: delta = {cfg.delta:.4g} is', ("tests/test_harness.py",)),
    Mutant("no worker cap", HARNESS,
           "if self.workers > MAX_WORKERS:", "if self.workers > 1000 * MAX_WORKERS:",
           ("tests/test_harness.py",)),
    Mutant("a refused stein_terms drops sum_delta3", HARNESS,
           'out["exchange_variance"] = out["sum_delta3"] = {"skipped": str(e)}',
           'out["exchange_variance"] = {"skipped": str(e)}', ("tests/test_harness.py",)),
    Mutant("simulate at y = 1 reports no delta3_sum bound", HARNESS,
           '"delta3_sum": bounds_mod.delta3_sum_bound(cfg.x, cfg.y, cfg.z),',
           '"delta3_sum": bounds_mod.delta3_sum_bound(cfg.x, cfg.y, cfg.z) if cfg.y >= 2 else None,',
           ("tests/test_harness.py",)),
    Mutant("another default for --var-trials", HARNESS,
           "VAR_TRIALS = 2000", "VAR_TRIALS = 2001", ("tests/test_report_digests.py",)),
    # the factor table
    Mutant("a left > 1 filter on the sieve primes", NUMTHEORY,
           "sieve = sieve[hits > 0]", "sieve = sieve[hits > 1]", ("tests/test_numtheory.py",)),
    Mutant("a dense prime's multiples keep their free slot", NUMTHEORY,
           "        slot += 1\n", "", ("tests/test_numtheory.py",)),
    Mutant("a sparse key's rank counts the sparse keys of earlier entries", NUMTHEORY,
           "    fill[1:] -= sparse_end[:-1]\n", "", ("tests/test_numtheory.py",)),
    Mutant("a cofactor written one slot early", NUMTHEORY,
           "keys[ends[cof] - 1] = rem[cof]", "keys[ends[cof] - 2] = rem[cof]",
           ("tests/test_numtheory.py",)),
    Mutant("a prime-power multiple's product multiplied by the power", NUMTHEORY,
           "np.multiply.at(prod, at, np.repeat(sieve[power_j], hits_k))",
           "np.multiply.at(prod, at, np.repeat(power, hits_k))", ("tests/test_numtheory.py",)),
    Mutant("a prime-power multiple left flagged square-free", NUMTHEORY,
           "    flags[at] = False\n", "", ("tests/test_numtheory.py",)),
    Mutant("every exponent one short", NUMTHEORY,
           "e = np.ones(p.size, dtype=np.int64)", "e = np.zeros(p.size, dtype=np.int64)",
           ("tests/test_numtheory.py",)),
    # the enumeration budget
    Mutant("the enumeration refuses a charge equal to its budget", "src/rmflab/quadruples.py",
           "if self.charged > self.budget:", "if self.charged >= self.budget:",
           ("tests/test_quadruples.py",)),
]


def _stale(mutants: list[Mutant]) -> list[str]:
    """Why each entry whose old text is not found exactly once is stale."""
    out = []
    for m in mutants:
        found = (ROOT / m.path).read_text().count(m.old)
        if found != 1:
            out.append(f"{m.name}: old text found {found} times in {m.path}")
    return out


def _survivors(m: Mutant) -> tuple[list[str], list[str]]:
    """The named test files that do not fail with m applied to a copy, and
    those that ran past TIMEOUT_S and count as failing."""
    with tempfile.TemporaryDirectory(prefix="rmflab-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(ROOT / name, copy / name)
        target = copy / m.path
        target.write_text(target.read_text().replace(m.old, m.new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        out, hung = [], []
        for test in m.tests:
            # its own session, so that a kill reaches pytest's fork-pool workers too
            run = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                                    "no:cacheprovider", test], cwd=copy, env=env,
                                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                   start_new_session=True)
            try:
                code = run.wait(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(run.pid, signal.SIGKILL)  # pytest is not yet reaped: its group exists
                run.wait()
                hung.append(test)
                continue
            if code != 1:
                out.append(f"{test} (pytest exit {code})")
        return out, hung


def main() -> int:
    stale = _stale(MUTANTS)
    if stale:
        print("stale mutants:\n  " + "\n  ".join(stale))
        return 1
    survived = 0
    for m in MUTANTS:
        t0 = time.perf_counter()
        left, hung = _survivors(m)
        survived += bool(left)
        status = f"SURVIVED in {', '.join(left)}" if left else "killed"
        if hung and not left:
            status += f" (timed out after {TIMEOUT_S} s in {', '.join(hung)})"
        print(f"{m.name}: {status} ({time.perf_counter() - t0:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
