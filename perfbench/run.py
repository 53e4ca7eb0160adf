"""End-to-end benchmark of the grassperm command line tool.

    python3 perfbench/run.py --workload paper-check --seed 1 --seconds 30 --trace 0

Each workload is a fixed list of CLI commands.  Every command runs in a
fresh ``python3 -m grassperm.cli`` process, started through
``spawn.py``, whose stdout is a pipe that the harness drains into memory
as a consumer at the end of a shell pipeline would.  Each command gets
its spawn-to-exit wall time, the time to its first stdout byte, and its
own CPU time and peak RSS from ``os.wait4``.  The list is run in whole
rounds until ``--seconds`` have passed, with set-up probes between
rounds; each metric is a median over rounds.  Every command's output is
checked by ``checks.py``, which shares no code with grassperm.

``--trace 1`` runs the same commands through ``traced.py`` instead and
reports per-module counters.  ``--workload all`` runs every workload in
turn.  Lines starting ``#`` give the stamp and each metric with its
unit; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import traced

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

WORKLOADS: dict[str, list[list[str]]] = {
    "paper-check": [["verify", target] for target in (
        "weiner", "theorem34", "prop21", "prop22", "prop23", "prop31",
        "prop41", "prop42", "prop43", "prop46", "thm51", "prop53")]
    + [["table", "table1"], ["table", "table2"]],
    "enum-write": [["enum", "grassmannian", "--n", "19"],
                   ["enum", "dyck", "--n", "12"]],
    "count-oracle": [["count", "grassmannian", "--n", "1..18", "--oracle"],
                     ["count", "union-inverse", "--n", "1..17", "--oracle"],
                     ["count", "odd", "--n", "1..16", "--oracle"],
                     ["count", "bigrassmannian", "--n", "1..15", "--oracle"]],
}

UNITS = {"wall_s": "s", "cpu_s": "s", "first_out_s": "s",
         "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_PROBES_PER_ROUND = 3
CHUNK = 1 << 20


def child_env(seed: int) -> dict[str, str]:
    """The caller's environment without PYTHON* settings, which change
    what is measured (PYTHONUNBUFFERED makes every print a system call,
    PYTHONDONTWRITEBYTECODE recompiles the package on every start)."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed % 2 ** 32)
    return env


def spawn(command: list[str], env: dict[str, str],
          scratch: Path) -> tuple[dict, bytes, bytes]:
    """Run one process to its end: its measures, stdout and stderr."""
    report = scratch.with_suffix(".usage.json")
    out = bytearray()
    first = None
    with open(scratch.with_suffix(".err"), "w+b") as err:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawn.py"), str(report)] + command,
            stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        with proc.stdout:
            while chunk := os.read(proc.stdout.fileno(), CHUNK):
                if first is None:
                    first = time.monotonic()
                out += chunk
        if proc.wait() != 0:
            raise RuntimeError(f"spawn.py failed on {command}")
        err.seek(0)
        stderr = err.read()
    sample = json.loads(report.read_text())
    start, end = sample.pop("start"), sample.pop("end")
    sample["first_out_s"] = (end if first is None else first) - start
    return sample, bytes(out), stderr


def probe(env: dict[str, str], code: str) -> str:
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          check=True, capture_output=True,
                          text=True).stdout.strip()


def stamp(workload: str, env: dict[str, str]) -> dict:
    """What a result depends on besides the code under test."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(SRC.rglob("*.pyx")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"git_revision": revision,
            "source_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "backend": probe(env, "import grassperm; print(grassperm.backend())"),
            "workload": workload,
            "commands": [" ".join(c) for c in WORKLOADS[workload]]}


class Checker:
    """Check outputs and tally them; re-use the verdict for byte-identical
    repeats.  A command that fails its check makes the run incorrect,
    whatever its exit code: a sweep that finds a disagreement prints FAIL
    rows and exits 1, and that output is wrong."""

    def __init__(self) -> None:
        self.passed: set[tuple] = set()
        self.attempted = 0
        self.failed = 0

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def __call__(self, argv: list[str], returncode: int, out: bytes,
                 err: bytes) -> str | None:
        """The problem with this output, or None when it is right."""
        self.attempted += 1
        key = (tuple(argv), returncode, hashlib.sha256(out).digest(), err)
        if key in self.passed:
            return None
        try:
            checks.check_command(argv, returncode, out, err)
        except checks.CheckFailed as exc:
            self.failed += 1
            return str(exc)
        self.passed.add(key)
        return None


def run_round(workload: str, env: dict[str, str], trace: bool,
              checker: Checker) -> list[dict]:
    """Run every command of the workload once; one sample per command."""
    samples = []
    for i, argv in enumerate(WORKLOADS[workload]):
        trace_file = OUT / f"{workload}-{i}.trace.json"
        if trace:
            command = [sys.executable, str(BENCH / "traced.py"),
                       str(trace_file)] + argv
        else:
            command = [sys.executable, "-m", "grassperm.cli"] + argv
        sample, out, err = spawn(command, env, OUT / f"{workload}-{i}")
        problem = checker(argv, sample["returncode"], out, err)
        if problem:
            print(f"FAILED {' '.join(argv)}: {problem}", file=sys.stderr)
        if trace:
            counters = (json.loads(trace_file.read_text())
                        if sample["returncode"] == 0 else {})
            sample.update({name: counters.get(name, 0)
                           for name in traced.metric_names()})
        samples.append(sample)
    return samples


def summarise(rounds: list[list[dict]], name: str) -> float:
    """Each command's median over the rounds, summed over the commands
    (the largest of them for peak RSS).  Per-command medians drop a
    slow spell that hit one command without needing a whole round."""
    # counts repeat exactly across rounds; median_low keeps them whole
    median = statistics.median if name.endswith(
        ("_s", "_mb")) else statistics.median_low
    per_command = [median(r[i][name] for r in rounds)
                   for i in range(len(rounds[0]))]
    return max(per_command) if name == "peak_rss_mb" else sum(per_command)


def probe_setup(env: dict[str, str]) -> float:
    """Time to start a fresh interpreter and import the CLI."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import grassperm.cli"],
                   env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, dict, list]:
    """Whole rounds of one workload: the result, its stamp, the samples."""
    env = child_env(seed)
    info = stamp(workload, env)  # its import also fills __pycache__
    print("# stamp " + json.dumps(info), flush=True)
    checker = Checker()
    rounds, setup = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        if not trace:
            # probes between rounds see the machine the rounds see
            setup += [probe_setup(env) for _ in range(SETUP_PROBES_PER_ROUND)]
        rounds.append(run_round(workload, env, trace, checker))

    if trace:
        names = traced.metric_names()
        units = {name: "s" if name.endswith("_s") else "count"
                 for name in names}
        units["cli.write_bytes"] = "bytes"
        print(f"# {workload}: traced wall_s {summarise(rounds, 'wall_s')}")
    else:
        names = ["wall_s", "cpu_s", "first_out_s", "peak_rss_mb"]
        units = UNITS
    metrics = {name: summarise(rounds, name) for name in names}
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    result = {"correct": checker.correct,
              "attempted": checker.attempted,
              "failed": checker.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(f"# {workload}: {len(rounds)} rounds, {result['attempted']}"
          f" commands attempted, {result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"# {workload}: {name} {metric['value']:.6g} {metric['unit']}")
    return result, info, rounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True,
                        help="sets PYTHONHASHSEED of every child")
    parser.add_argument("--seconds", type=float, required=True,
                        help="run whole rounds until this much time passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="also write the stamped result here as JSON")
    args = parser.parse_args()

    if not (SRC / "grassperm" / "cli.py").is_file():
        print(f"error: no grassperm sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload != "all":
        result, info, rounds = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace))
        if args.out:
            args.out.write_text(json.dumps(
                dict(result, stamp=info, rounds=rounds), indent=1))
        print(json.dumps(result))
        return 0

    # every workload in turn; metric names are prefixed by the workload
    results = [run_workload(workload, args.seed, args.seconds,
                            bool(args.trace))[0] for workload in WORKLOADS]
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{workload}.{name}": metric
                    for workload, r in zip(WORKLOADS, results)
                    for name, metric in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
