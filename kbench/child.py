"""The measured process: runs one workload in rounds and reports raw results.

Usage: python3 kbench/child.py <workload> <run|trace> <seconds> <stem>, with
a JSON object {"root": ..., "input": ...} on stdin. One thread, one client:
each operation starts when the previous one returns. A round is one pass
over the fixed input set; rounds repeat until the next one would end after
the time budget. Latency percentiles are taken per round (nearest rank). In `trace` mode one traced round follows and its spans are
written to `<stem>.json` and `<stem>.spans`. The result goes to stdout as
one JSON object; the checks happen in the parent.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter, perf_counter_ns


class LineSink:
    """Stands in for stdout: keeps the text and stamps each finished line."""

    def __init__(self):
        self.parts: list[str] = []
        self.gaps: list[int] = []
        self.last = perf_counter_ns()

    def write(self, s: str) -> int:
        self.parts.append(s)
        if s.endswith("\n"):
            now = perf_counter_ns()
            self.gaps.append(now - self.last)
            self.last = now
        return len(s)

    def flush(self) -> None:
        pass


def _cli_round(commands, per_line: bool, tracer=None):
    """Run each argv through cli.run with stdout sent to a sink.

    table streams its rows, so each output line is an operation; verify
    prints only after every check ran, so there the command is one.
    """
    cli = sys.modules["kempner.cli"]
    outcomes, gaps = [], []
    for argv in commands:
        if tracer:
            tracer.begin_op()
        sink = LineSink()
        with contextlib.redirect_stdout(sink):
            t0 = sink.last = perf_counter_ns()
            code = cli.run(list(argv))
            elapsed = perf_counter_ns() - t0
        gaps += sink.gaps if per_line else [elapsed]
        outcomes.append((code, "".join(sink.parts)))
    return outcomes, gaps


def _call_round(calls, tracer=None):
    """Time each library call; an exception is an outcome like any other."""
    outcomes, gaps = [], []
    for fn, args in calls:
        if tracer:
            tracer.begin_op()
        t0 = perf_counter_ns()
        try:
            outcome = fn(*args)
        except Exception as exc:  # a wrong or missing error is judged by the checker
            outcome = exc
        gaps.append(perf_counter_ns() - t0)
        outcomes.append(outcome)
    return outcomes, gaps


def _settle(outcomes, cli: bool) -> list:
    """Outcomes as JSON-ready results, converted after the round's timing."""
    if cli:
        return [[code, hashlib.sha256(text.encode()).hexdigest()] for code, text in outcomes]
    return [_plain(outcome) for outcome in outcomes]


def _plain(value):
    """A kempner result as JSON-ready lists."""
    if isinstance(value, BaseException):
        return ["err", type(value).__name__]
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, int):
        return ["int", value]
    kind = type(value).__name__
    if kind == "EtaResult":
        return ["eta", value.value, value.argmax_prime, [list(t) for t in value.per_prime]]
    if kind == "Factorization":
        return ["fact", value.sign, [[f.prime, f.exponent] for f in value.factors]]
    if kind == "RepunitDecomposition":
        return ["terms", [list(t) for t in value.terms]]
    if kind == "ZerosSolution":
        return ["zeros", list(value.members)]
    return ["unknown", repr(value)]


def _library_calls(workload: str, ops):
    m = sys.modules
    exprs, apps = m["kempner.exprs"], m["kempner.applications"]
    eta, number_core, repunit_repr = m["kempner.eta"], m["kempner.number_core"], m["kempner.repunit_repr"]

    # module attributes are read at call time so the tracer's bindings apply
    def query(text, n):
        return apps.smallest_factorial_multiple(exprs.parse_factored_expr(text)), number_core.factorize(n)

    dispatch = {
        "eta": lambda text: apps.smallest_factorial_multiple(exprs.parse_factored_expr(text)),
        "eta_p": lambda k, p: eta.eta_p(k, p),
        "decompose": lambda k, p: repunit_repr.decompose(k, p),
        "zeros": lambda z: apps.solve_trailing_zeros(z),
        "preimage": lambda mm, p: eta.eta_p_preimage(mm, p),
    }
    if workload == "query":
        return [(query, tuple(op)) for op in ops]
    return [(dispatch[op[0]], tuple(op[1:])) for op in ops]


def main() -> None:
    workload, mode, seconds, stem = sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4]
    request = json.load(sys.stdin)
    src = os.path.join(request["root"], "src")
    sys.path.insert(0, src)
    import kempner
    import kempner.cli  # noqa: F401  (the CLI layer is part of every setup)

    if not os.path.abspath(kempner.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported kempner from {kempner.__file__}, not from {src}")
    ops = request["input"]
    cli = workload in ("table", "verify")
    calls = None if cli else _library_calls(workload, ops)

    def run_round(tracer=None):
        if cli:
            return _cli_round(ops, workload == "table", tracer)
        return _call_round(calls, tracer)

    first, texts, walls, p50s, p99s, diffs = None, [], [], [], [], []
    # a traced run spends half its budget untraced: enough for the overhead ratio
    deadline = perf_counter() + (seconds / 2 if mode == "trace" else seconds)
    while True:
        t0 = perf_counter()
        outcomes, gaps = run_round()
        walls.append(perf_counter() - t0)
        gaps.sort()
        p50s.append(gaps[_rank(len(gaps), 0.50)])
        p99s.append(gaps[_rank(len(gaps), 0.99)])
        results = _settle(outcomes, cli)
        if first is None:
            first = results
            texts = [text for _, text in outcomes] if cli else []
        else:
            diffs.append(_differences(first, results))
        if perf_counter() + statistics.median(walls) > deadline:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {
        "results": first,
        "texts": texts,
        "round_diffs": diffs,
        "walls": walls,
        "p50_ns": p50s,
        "p99_ns": p99s,
        "ops_per_round": len(gaps),
        "peak_rss_kb": peak_rss_kb,
    }

    if mode == "trace":
        from tracer import Tracer
        import spec

        tracer = Tracer()
        tracer.install(spec.TRACED)
        t0 = perf_counter()
        outcomes, _ = run_round(tracer)
        report["traced_wall"] = perf_counter() - t0
        tracer.uninstall()
        report["round_diffs"].append(_differences(first, _settle(outcomes, cli)))
        report["layers"] = tracer.summary()
        report["prime_repeats"] = tracer.prime_repeats
        report["decompose_terms"] = tracer.decompose_terms
        tracer.write(stem, request["meta"])
    json.dump(report, sys.stdout)


def _rank(n: int, q: float) -> int:
    """Nearest-rank index of quantile q in a sorted list of n samples."""
    return min(n - 1, max(0, math.ceil(q * n) - 1))


def _differences(first: list, results: list) -> list[int]:
    """Indices whose outcome differs from the first round's."""
    if len(first) != len(results):
        return list(range(len(first)))
    return [i for i, (a, b) in enumerate(zip(first, results)) if a != b]


if __name__ == "__main__":
    main()
