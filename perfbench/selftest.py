"""Self-test of the benchmark.

Runs every workload of BENCHMARK.json at smoke length, untraced and traced,
and checks that
* the last stdout line is a result with every metric BENCHMARK.json names
  for that mode, each with its unit and a finite value, and no failed
  operation;
* no span of the written trace outlasts its parent;
* in a directory holding only BENCHMARK.json and the benchmark's own files,
  the command exits non-zero without printing a result.

    python3 perfbench/selftest.py        # exit status 0 when every check holds
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(command, cwd, *extra):
    return subprocess.run(
        command + list(extra), cwd=cwd, capture_output=True, text=True, timeout=900
    )


def check_run(bench, workload, trace):
    proc = run(bench["command"], ROOT, "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace), "--smoke")
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2].removeprefix("run_record "))
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']} failures={record['failures']}")
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        wrong = sorted(n for n in set(expected) & set(printed) if expected[n] != printed[n])
        errors.append(f"{label}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            errors.append(f"{label}: {name} = {m['value']!r}")
        elif not trace and m["value"] <= 0:
            errors.append(f"{label}: end-to-end metric {name} is {m['value']!r}")
    if trace:
        errors += check_spans(label, ROOT / record["trace_file"])
    return errors


def check_spans(label, path):
    payload = json.loads(path.read_text())
    fields = payload["span_fields"]
    start, end, parent = (fields.index(k) for k in ("start", "end", "parent"))
    spans = payload["spans"]
    if not spans:
        return [f"{label}: the trace holds no spans"]
    errors = []
    for i, span in enumerate(spans):
        if span[end] < span[start]:
            errors.append(f"{label}: span {i} ({span[0]}) ends before it starts")
        if span[parent] >= 0:
            p = spans[span[parent]]
            if span[start] < p[start] or span[end] > p[end]:
                errors.append(f"{label}: span {i} ({span[0]}) outlasts its parent {p[0]}")
    return errors[:20]


def check_bare_directory(bench):
    """Without the program's sources the command must fail without a result."""
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bench["command"], bare, "--workload", bench["workloads"][0]["name"],
                   "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in bench["workloads"]:
        for trace in (0, 1):
            found = check_run(bench, workload["name"], trace)
            print(f"{workload['name']} --trace {trace}: {'FAIL' if found else 'ok'}", flush=True)
            errors += found
    found = check_bare_directory(bench)
    print(f"bare directory: {'FAIL' if found else 'ok'}")
    errors += found
    for line in errors:
        print(line, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
