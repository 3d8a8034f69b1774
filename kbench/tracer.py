"""Spans around calls into kempner's public functions, installed from outside.

The tracer rebinds every module attribute that `is` a traced function (a
function imported by name is bound once per importing module) and replaces
dataclass validators through the class attribute `__post_init__`. Spans
live in flat int64 columns until the run ends. A self time includes the
wrapper's own cost, which matters most for tiny leaf calls such as
`is_prime` on small n; `trace.overhead_ratio` reports the total slowdown.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.op = array("q")
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._op_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._primes_seen: set[int] = set()
        self.prime_repeats = 0
        self.decompose_terms = 0

    def begin_op(self) -> None:
        """Start a new operation: later spans share its id."""
        self._op_id += 1
        self._primes_seen.clear()

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.op.append(self._op_id)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, label: str, fn):
        nid = len(self.names)
        self.names.append(label)
        tracer = self

        if label == "applications.emit_table":
            # a generator: one span per next(), so rows are timed where they
            # are produced and the consumer's printing stays outside
            def traced_gen(*args, **kwargs):
                return _TracedIter(tracer, nid, fn(*args, **kwargs))

            return traced_gen

        if label == "number_core.is_prime":

            def traced_is_prime(n, *args, **kwargs):
                if n in tracer._primes_seen:
                    tracer.prime_repeats += 1
                else:
                    tracer._primes_seen.add(n)
                idx = tracer._open(nid)
                try:
                    return fn(n, *args, **kwargs)
                finally:
                    tracer._close(idx)

            return traced_is_prime

        if label == "repunit_repr.decompose":

            def traced_decompose(*args, **kwargs):
                idx = tracer._open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                tracer.decompose_terms += len(result.terms)
                return result

            return traced_decompose

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    def install(self, traced: list[tuple[str, str]]) -> None:
        # `kempner.eta` on the package is the function, so modules come from
        # sys.modules, never from attribute access on the package
        modules = [m for k, m in sys.modules.items() if k == "kempner" or k.startswith("kempner.")]
        for module_name, name in traced:
            module = sys.modules[f"kempner.{module_name}"]
            label = f"{module_name}.{name}"
            if name.endswith(".validate"):
                cls = getattr(module, name.split(".")[0])
                original = cls.__dict__["__post_init__"]
                self._patch(cls, "__post_init__", self._wrap(label, original))
                continue
            original = getattr(module, name)
            wrapper = self._wrap(label, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per label: exact call count and self time (span minus child spans)."""
        n = len(self.start)
        child_ns = [0] * n
        durations = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            parent = self.parent[i]
            if parent >= 0:
                child_ns[parent] += durations[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            nid = self.name[i]
            calls[nid] += 1
            self_ns[nid] += durations[i] - child_ns[i]
        return {
            label: {"calls": calls[nid], "self_s": self_ns[nid] / 1e9}
            for nid, label in enumerate(self.names)
        }

    def write(self, stem: str, meta: dict) -> None:
        """`<stem>.json` names the columns of the raw int64 file `<stem>.spans`."""
        columns = ("op", "name", "parent", "start", "end")
        with open(f"{stem}.spans", "wb") as out:
            for column in columns:
                getattr(self, column).tofile(out)
        header = {
            **meta,
            "spans": len(self.start),
            "columns": columns,
            "dtype": f"int64, native byte order ({sys.byteorder}), one column after another",
            "names": self.names,
        }
        with open(f"{stem}.json", "w") as out:
            json.dump(header, out, indent=1)


class _TracedIter:
    def __init__(self, tracer: Tracer, nid: int, iterator):
        self._tracer = tracer
        self._nid = nid
        self._iterator = iterator

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._tracer._open(self._nid)
        try:
            return next(self._iterator)
        finally:
            self._tracer._close(idx)
