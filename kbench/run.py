#!/usr/bin/env python3
"""Benchmark for the kempner package; run it from the root of a checkout.

    python3 kbench/run.py --workload <table|query|factored|verify> \\
        --seed <n> --seconds <s> --trace <0|1>

The seed fixes the workload's input set (see `inputs.py`); the program only
ever sees the generated inputs. Each run starts fresh child processes one at
a time: several that only `import kempner.cli` (set-up time, and with
`--trace 1` the per-module `-X importtime` breakdown), then one that runs
the workload as a closed loop with one client, in rounds over the fixed
input set until `--seconds` is used up (`child.py`). The child's outputs are
judged here with independent arithmetic (`check.py`), outside any timed
region.

With `--trace 0` the result carries the end-to-end metrics; with
`--trace 1` the child adds one traced round after the untraced ones and the
result carries the per-layer metrics (`tracer.py`). Traced numbers never
feed the end-to-end metrics. Human-readable lines starting with `#` come
first; the last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

`--write-manifest` regenerates BENCHMARK.json from `spec.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import check
import inputs
import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".kbench_out")

SETUP_CHILDREN = 15
IMPORTTIME_CHILDREN = 5
TIME_LIMIT_S = 170  # the whole run, child processes included

SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import kempner.cli; print(time.perf_counter() - t)"
)
IMPORTTIME_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import kempner.cli"


def _python(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, text=True, check=True, timeout=60, **kwargs
    )


def measure_setup() -> list[float]:
    """`import kempner.cli` in fresh children; the first one only writes bytecode."""
    _python(["-c", SETUP_CODE, SRC], stdout=subprocess.DEVNULL)
    return [
        float(_python(["-c", SETUP_CODE, SRC], stdout=subprocess.PIPE).stdout)
        for _ in range(SETUP_CHILDREN)
    ]


def measure_import_breakdown() -> dict[str, float]:
    """Median self time per kempner module from `-X importtime`, in seconds."""
    samples: dict[str, list[float]] = {module: [] for module in spec.MODULES}
    for _ in range(IMPORTTIME_CHILDREN):
        stderr = _python(["-X", "importtime", "-c", IMPORTTIME_CODE, SRC], stderr=subprocess.PIPE).stderr
        for line in stderr.splitlines():
            # "import time:   self [us] | cumulative | imported package"
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[2].strip().startswith("kempner."):
                module = fields[2].strip().removeprefix("kempner.")
                if module in samples:
                    samples[module].append(int(fields[0]) / 1e6)
    return {module: statistics.median(values) for module, values in samples.items()}


def run_child(workload: str, trace: bool, seconds: float, program_input, meta: dict, deadline: float):
    if trace:
        os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"trace-{workload}")
    request = {"root": ROOT, "input": program_input, "meta": meta}
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), workload, "trace" if trace else "run", str(seconds), stem],
        cwd=ROOT,
        input=json.dumps(request),
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        raise SystemExit(f"kbench: the {workload} child exited with code {done.returncode}")
    return json.loads(done.stdout)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """HEAD's commit read from .git without running git; None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(report, setup: list[float], attempted: int, failed: int) -> dict[str, float]:
    return {
        "wall_s": statistics.median(report["walls"]),
        "op_p50_us": statistics.median(report["p50_ns"]) / 1e3,
        "op_p99_us": statistics.median(report["p99_ns"]) / 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
        "pass_frac": (attempted - failed) / attempted,
    }


def per_layer(report, imports: dict[str, float]) -> dict[str, float]:
    values = {}
    layers = report["layers"]
    for module, name in spec.TRACED:
        label = f"{module}.{name}"
        layer = layers.get(label, {"calls": 0, "self_s": 0.0})
        values[f"{label}.calls"] = layer["calls"]
        values[f"{label}.self_s"] = layer["self_s"]
    prime_calls = values["number_core.is_prime.calls"]
    values["number_core.is_prime.repeat_ratio"] = report["prime_repeats"] / prime_calls if prime_calls else 0.0
    values["repunit_repr.decompose.terms"] = report["decompose_terms"]
    for module, seconds in imports.items():
        values[f"{module}.import_s"] = seconds
    values["trace.overhead_ratio"] = report["traced_wall"] / statistics.median(report["walls"])
    return values


def write_manifest() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
        json.dump(spec.manifest(), f, indent=2)
        f.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink the input sets (smoke runs)")
    parser.add_argument("--write-manifest", action="store_true", help="regenerate BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        write_manifest()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "kempner", "__init__.py")):
        print(f"kbench: no kempner sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
    }
    print("# meta " + json.dumps(meta))

    setup = measure_setup()
    imports = measure_import_breakdown() if args.trace else {}
    program_input, expected = inputs.GENERATORS[args.workload](args.seed, args.scale)
    report = run_child(args.workload, bool(args.trace), args.seconds, program_input, meta, deadline)
    attempted, failed, examples = check.check(args.workload, program_input, expected, report)

    for example in examples:
        print(f"# FAILED {example}")
    print(f"# {len(report['walls'])} rounds of {report['ops_per_round']} timed operations")
    print(f"# per round: wall_s {report['walls']} p50_ns {report['p50_ns']} p99_ns {report['p99_ns']}")
    print(f"# fail_frac {failed / attempted} ({failed} of {attempted})")
    if args.trace:
        metrics, units = per_layer(report, imports), dict(spec.per_layer())
        print(f"# setup_s {statistics.median(setup)} s (median of {len(setup)} children)")
    else:
        metrics = end_to_end(report, setup, attempted, failed)
        units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    for name, value in metrics.items():
        print(f"# {name} {value} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
