"""Run two sets of benchmark runs of the same code and compare them.

    python3 perfbench/stability.py
    python3 perfbench/stability.py --compare PARENT.json CHANGE.json

Each set runs ``run.py`` ten times on every workload of BENCHMARK.json
for its ``run_seconds``, with the workloads interleaved and a fresh
seed and harness process per run.  For every end-to-end metric on every
workload it prints the two set medians, the change between them against
the metric's bound in BENCHMARK.json, and each set's quartile spread
(Q3 - Q1) as a share of its median.  Two sets of the same code must
agree both ways: a change beyond the bound in either direction fails.
A set is saved as a JSON list of stamped run results, so two saved
sets, a parent and a change, can be compared later with ``--compare``;
there only a change for the worse fails.  Results whose stamps differ
in backend, Python version, core count or commands are refused: the
compiled kernels run 21-84x faster than the pure-Python ones.

Exit code 0 when every spread and every change stays within its bound
and the failed shares agree, 1 otherwise, 2 when the sets cannot be
compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench-out" / "stability"
STAMP_KEYS = ("backend", "python", "nproc", "commands")
RUNS = 10


class Refused(Exception):
    """The two sets were not measured under the same conditions."""


def run_set(label: str, bench: dict, first_seed: int) -> list[dict]:
    results = []
    for i in range(RUNS):
        for workload in (w["name"] for w in bench["workloads"]):
            out = OUT / f"{label}-{workload}-{i}.json"
            subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(first_seed + i),
                 "--seconds", str(bench["run_seconds"]),
                 "--trace", "0", "--out", str(out)],
                cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            results.append(json.loads(out.read_text()))
            print(f"{label} run {i + 1}/{RUNS} {workload}: "
                  f"wall_s {results[-1]['metrics']['wall_s']['value']:.3f}",
                  flush=True)
    return results


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(first: list[dict], second: list[dict], bench: dict,
            same_code: bool) -> bool:
    """Print the comparison table; True when every check holds.  With
    ``same_code`` a change either way counts against the bound."""
    for key in STAMP_KEYS:
        for workload in {r["stamp"]["workload"] for r in first + second}:
            seen = {json.dumps(r["stamp"][key]) for r in first + second
                    if r["stamp"]["workload"] == workload}
            if len(seen) > 1:
                raise Refused(f"refused: {workload} runs differ in {key}:"
                              f" {sorted(seen)}")
    ok = True
    print(f"{'workload':13s} {'metric':12s} {'median A':>10s} {'median B':>10s}"
          f" {'change':>8s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}")
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        a = [r for r in first if r["stamp"]["workload"] == workload]
        b = [r for r in second if r["stamp"]["workload"] == workload]
        if not a or not b:
            continue
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            change = mb / ma - 1
            worse = change if metric["better"] == "lower" else -change
            sa, sb = ((spread(va), spread(vb)) if min(len(va), len(vb)) > 1
                      else (float("nan"), float("nan")))
            flag = ((abs(change) if same_code else worse) > bound
                    or not (sa <= bound and sb <= bound))
            ok = ok and not flag
            print(f"{workload:13s} {name:12s} {ma:10.4f} {mb:10.4f}"
                  f" {change:+8.2%} {sa:9.2%} {sb:9.2%} {bound:6.2f}"
                  + ("  OVER" if flag else ""))
        shares = [{(r["failed"], r["attempted"]) for r in runs}
                  for runs in (a, b)]
        rates = [{f / n for f, n in s} for s in shares]
        if len(rates[0] | rates[1]) > 1:
            ok = False
            print(f"{workload:13s} failed shares differ: {rates}")
    return ok


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, type=Path, metavar="SET.json",
                        help="compare two saved sets instead of running")
    args = parser.parse_args()

    if args.compare:
        sets = [json.loads(path.read_text()) for path in args.compare]
    else:
        OUT.mkdir(parents=True, exist_ok=True)
        tag = time.strftime("%Y%m%dT%H%M%S")
        sets = []
        for index, label in enumerate(("A", "B")):
            results = run_set(f"{tag}-{label}", bench,
                              first_seed=1000 * (index + 1))
            path = OUT / f"{tag}-{label}.json"
            path.write_text(json.dumps(results))
            print(f"set {label} saved to {path.relative_to(ROOT)}")
            sets.append(results)
    try:
        ok = compare(sets[0], sets[1], bench, same_code=not args.compare)
    except Refused as exc:
        print(exc, file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
