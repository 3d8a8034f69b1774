"""Correctness gate: judges the child's outputs with `reference` arithmetic.

Every function returns `(attempted, failed, examples)`; the examples are a
few human-readable failure descriptions. Outputs repeated in later rounds
are compared with the first round by the child, and a difference there
counts as a failure of that round's operation.
"""

from __future__ import annotations

import json

import reference as ref
import spec

MAX_EXAMPLES = 5


def _eta_ok(result, factors) -> bool:
    """An `eta` outcome: per-prime values are minimal and the value is their max."""
    if not (isinstance(result, list) and len(result) == 4 and result[0] == "eta"):
        return False
    _, value, argmax, per_prime = result
    if [(p, a) for p, a, _ in per_prime] != [tuple(f) for f in factors]:
        return False
    if not per_prime:
        return value == 0 and argmax is None
    if any(not ref.is_eta_p(e, a, p) for p, a, e in per_prime):
        return False
    return value == max(e for _, _, e in per_prime) and argmax == next(
        p for p, _, e in per_prime if e == value
    )


def query_op_ok(op, expected_error, result) -> bool:
    if expected_error is not None:
        return result == ["err", expected_error]
    text, n = op
    if not (isinstance(result, list) and len(result) == 2):
        return False
    eta_result, fact = result
    if not (isinstance(fact, list) and len(fact) == 3 and fact[0] == "fact"):
        return False
    _, sign, factors = fact
    return ref.is_factorization(n, sign, factors) and _eta_ok(eta_result, factors)


def factored_op_ok(op, expected, result) -> bool:
    kind, *args = op
    if isinstance(expected, str):
        return result == ["err", expected]
    if kind == "eta":
        return _eta_ok(result, expected)
    if kind == "eta_p":
        k, p = args
        return result[0] == "int" and ref.is_eta_p(result[1], k, p)
    if kind == "decompose":
        k, p = args
        return result[0] == "terms" and ref.is_repunit_decomposition(k, p, result[1])
    if kind == "zeros":
        return result == ["zeros", ref.zeros_members(args[0])]
    if kind == "preimage":
        m, p = args
        return result[0] == "int" and ref.is_eta_p(m, result[1], p)
    return False


def check_calls(workload: str, ops, expected, report):
    """query and factored: one check per call."""
    judge = query_op_ok if workload == "query" else factored_op_ok
    results = report["results"]
    wrong, examples = [], []
    for i, (op, expect) in enumerate(zip(ops, expected)):
        result = results[i] if i < len(results) else None
        try:
            ok = judge(op, expect, result)
        except (TypeError, ValueError, IndexError):  # malformed outcome
            ok = False
        wrong.append(0 if ok else 1)
        if not ok and len(examples) < MAX_EXAMPLES:
            examples.append(f"{op!r}: got {result!r}, expected {expect or 'a correct result'}")
    return _with_rounds([1] * len(ops), wrong, report, examples)


def _with_rounds(sizes: list[int], wrong: list[int], report, examples):
    """Totals over all rounds: unit i holds sizes[i] operations, of which
    wrong[i] failed in the first round; a unit whose outcome changed in a
    later round fails whole in that round."""
    attempted = sum(sizes) * (1 + len(report["round_diffs"]))
    failed = sum(wrong)
    for diff in report["round_diffs"]:
        changed = set(diff)
        failed += sum(size if i in changed else w for i, (size, w) in enumerate(zip(sizes, wrong)))
        if changed and len(examples) < MAX_EXAMPLES:
            examples.append(f"a later round changed the outcome of units {sorted(changed)[:5]}")
    return attempted, failed, examples


def _table_rows(a: int, b: int, text: str) -> dict:
    """Judge json-lines rows on their own: n -> (eta, argmax) for good rows."""
    good = {}
    for n, line in zip(range(a, b + 1), text.split("\n")):
        try:
            row = json.loads(line)
        except ValueError:
            continue
        if not (isinstance(row, dict) and set(row) == {"n", "eta", "witness"} and row["n"] == n):
            continue
        witness = row["witness"]
        if not all(isinstance(w, list) and len(w) == 3 for w in witness):
            continue
        factors = [(p, e) for p, e, _ in witness]
        argmax = next((p for p, _, m in witness if m == row["eta"]), None)
        try:
            ok = ref.is_factorization(n, 1, factors) and _eta_ok(["eta", row["eta"], argmax, witness], factors)
        except TypeError:  # a non-integer field
            ok = False
        if ok:
            good[n] = (row["eta"], argmax)
    return good


def _row_text(fmt: str, n: int, eta: int, argmax) -> str | None:
    if fmt == "plain":
        return f"{n} {eta}"
    if fmt == "csv":
        return f"{n},{eta},{'' if argmax is None else argmax}"
    return None  # json-lines rows were judged by _table_rows


def check_table(expected, report):
    """Every line is an operation and every row is judged.

    json-lines rows carry a witness factorization that is checked on its
    own; plain and csv rows must agree with the json-lines row for the same
    n. The range from 1 must also match the digests pinned in `spec`.
    """
    texts = report["texts"]
    good_by_range = {
        (a, b): _table_rows(a, b, text)
        for (a, b, fmt), text in zip(expected, texts)
        if fmt == "json-lines"
    }
    sizes, wrong, examples = [], [], []
    for (a, b, fmt), (code, digest), text in zip(expected, report["results"], texts):
        header = ["# convention: eta(1)=0", "n,eta,argmax_prime"] if fmt == "csv" else []
        lines = text.split("\n")
        trailing = lines.pop()
        size = len(header) + b - a + 1
        good = good_by_range.get((a, b), {})
        bad = 0
        for j in range(size):
            line = lines[j] if j < len(lines) else None
            if j < len(header):
                bad += line != header[j]
                continue
            n = a + j - len(header)
            bad += n not in good or _row_text(fmt, n, *good[n]) not in (None, line)
        pinned_mismatch = (a, b) == (1, spec.TABLE_FROM_ONE_END) and digest != spec.TABLE_DIGESTS[fmt]
        if code != 0 or trailing != "" or len(lines) != size or pinned_mismatch:
            bad = size
        if bad and len(examples) < MAX_EXAMPLES:
            examples.append(f"table {a} {b} --format {fmt}: {bad} bad lines, exit {code}")
        sizes.append(size)
        wrong.append(bad)
    return _with_rounds(sizes, wrong, report, examples)


def check_verify(report):
    """The default verify must exit 0 and print exactly the pinned report."""
    examples = []
    ok = report["results"][0][0] == 0 and report["texts"][0] == spec.VERIFY_OUTPUT
    if not ok:
        examples.append(f"verify exited {report['results'][0][0]}: {report['texts'][0]!r}")
    return _with_rounds([1], [0 if ok else 1], report, examples)


def check(workload: str, program_input, expected, report):
    if workload == "table":
        return check_table(expected, report)
    if workload == "verify":
        return check_verify(report)
    return check_calls(workload, program_input, expected, report)
