"""Self-test of the benchmark's determinism.

    python3 perfbench/selftest.py

For each workload, at the `run_seconds` of BENCHMARK.json: two traced runs
with one seed must report identical counts (every per-layer metric counted
in `count` or `bytes`, plus EER and top-1) and, for cli_batch,
byte-identical artifacts; a run with another seed must generate different
inputs. Exits 1 on any difference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gmm_ubm_llr", "ivector_cosine", "cli_batch")
SEED, OTHER_SEED = 7, 8


def _run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def _run(workload, seed, seconds, trace):
    """One benchmark run in a fresh process: (result line, full record)."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    path = os.path.join(ROOT, ".perfbench_out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return result, json.load(fh)


def _counts(result, record):
    counts = {key: m["value"] for key, m in result["metrics"].items()
              if m["unit"] in ("count", "bytes")}
    counts["eer"] = record["eer"]
    counts["top1"] = record["end_to_end"]["top1"]["value"]
    return counts


def check_workload(workload, seconds):
    problems = []
    first, first_record = _run(workload, SEED, seconds, 1)
    second, second_record = _run(workload, SEED, seconds, 1)
    _, other_record = _run(workload, OTHER_SEED, seconds, 0)
    for result in (first, second):
        if not result["correct"] or result["failed"]:
            problems.append(f"run not correct: {result['failed']} failed")
    a, b = _counts(first, first_record), _counts(second, second_record)
    problems += [f"{key}: {a[key]} != {b[key]}" for key in a if a[key] != b[key]]
    if first_record["artifacts"] != second_record["artifacts"]:
        problems.append("artifact bytes differ between runs with one seed")
    if first_record["input_digest"] != second_record["input_digest"]:
        problems.append("inputs differ between runs with one seed")
    if first_record["input_digest"] == other_record["input_digest"]:
        problems.append(f"seeds {SEED} and {OTHER_SEED} generate the same inputs")
    return problems, len(a)


def main():
    seconds = _run_seconds()
    failed = False
    for workload in WORKLOADS:
        problems, compared = check_workload(workload, seconds)
        status = "ok" if not problems else "FAIL"
        print(f"{workload}: {status} ({compared} counts compared)")
        for problem in problems:
            print(f"  {problem}")
        failed = failed or bool(problems)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
