"""Span recording around arcpd's layers, installed from outside the package.

`Tracer.install` replaces the module attributes (and `pipeline.CORRECTIONS`
entries) that the pipeline and the bench look up at call time with wrappers.
Each wrapped call records one span: name, thread id, start and end
(`perf_counter_ns`), the span that caused it and the benchmark item it ran
for.  Spans stay in memory; `dump` writes them out when the run ends.
`uninstall` puts every original object back.

A span's parent is the innermost open span of its own thread.  Spans opened
on a thread with nothing open (the bench's worker threads) take as parent the
innermost open span of the thread that opened the current root span.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# (module, attribute, dict key or None, span name).  The span name is the
# layer module and the function the call reaches.
TARGETS = (
    ("pipeline", "mean_correct", None, "ar.mean_correct"),
    ("pipeline", "scan_statistics", None, "scan.scan_statistics"),
    ("pipeline", "extract_candidates", None, "scan.extract_candidates"),
    ("pipeline", "discrimination_test", None, "sdtest.discrimination_test"),
    ("pipeline", "CORRECTIONS", "bh", "multtest.bh_procedure"),
    ("pipeline", "CORRECTIONS", "bonferroni", "multtest.bonferroni_procedure"),
    ("scan", "bic_select_order", None, "ar.bic_select_order"),
    ("sdtest", "bic_select_order", None, "ar.bic_select_order"),
    ("bench", "run_model", None, "bench.run_model"),
    ("bench", "simulate_piecewise", None, "simulate.simulate_piecewise"),
    ("bench", "detect_changepoints", None, "pipeline.detect_changepoints"),
    ("bench", "bh_procedure", None, "multtest.bh_procedure"),
    ("bench", "bonferroni_procedure", None, "multtest.bonferroni_procedure"),
)

# Counts read off a call's return value, by span name.
COUNTERS = {
    "scan.scan_statistics": lambda prof: {
        "windows": len(prof.values),
        "degenerate": prof.degenerate,
    },
    "scan.extract_candidates": lambda cands: {"candidates": len(cands)},
    "pipeline.detect_changepoints": lambda rep: {"final_cps": len(rep.final_cps)},
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    item: int
    start: int
    end: int = 0
    error: bool = False
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.item = -1  # benchmark item whose call is in progress
        self.not_found: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack: list[int] = []  # open spans of the thread holding the root
        self._saved: list[tuple[object, str, object, object]] = []

    @contextmanager
    def span(self, name: str, root: bool = False):
        stack = self._local.__dict__.setdefault("stack", [])
        if root:
            parent = None
            self._root_stack = stack
        else:
            holder = stack or self._root_stack
            parent = holder[-1] if holder else None
        sp = Span(next(self._ids), parent, name, threading.get_ident(), self.item,
                  time.perf_counter_ns())
        stack.append(sp.id)
        try:
            yield sp
        except BaseException:
            sp.error = True
            raise
        finally:
            sp.end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(sp)

    def call(self, name: str, fn, *args, root: bool = False, **kwargs):
        """Run fn under a span, then record the counts COUNTERS reads off its result."""
        with self.span(name, root) as sp:
            result = fn(*args, **kwargs)
        counter = COUNTERS.get(name)
        if counter is not None:
            sp.counts = counter(result)
        return result

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def install(self, modules: dict, targets=TARGETS) -> None:
        """Wrap every target; a missing module, attribute or key goes to not_found."""
        self.not_found = []
        for modname, attr, key, name in targets:
            label = f"{modname}.{attr}" + (f"[{key!r}]" if key is not None else "")
            mod = modules.get(modname)
            holder = getattr(mod, attr, None) if mod is not None else None
            if key is not None:
                if not isinstance(holder, dict) or key not in holder:
                    self.not_found.append(label)
                    continue
                self._saved.append((holder, key, holder[key], False))
                holder[key] = self._wrap(holder[key], name)
            else:
                if not callable(holder):
                    self.not_found.append(label)
                    continue
                self._saved.append((mod, attr, holder, True))
                setattr(mod, attr, self._wrap(holder, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original, is_attr = self._saved.pop()
            if is_attr:
                setattr(owner, attr, original)
            else:
                owner[attr] = original

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"not_found": self.not_found,
                       "spans": [asdict(s) for s in self.spans]}, fh)


def _merged(intervals) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], end))
        else:
            out.append((start, end))
    return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> the wall time of the span that no child span covers (ns).

    Where such self intervals of spans on different threads overlap, as with
    the bench's worker threads, the overlap is split evenly among them.  So
    the self times of all spans add up to the wall time the spans cover, and
    on one thread each is the span's duration minus its children's.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    events = []
    for sp in spans:
        cursor = sp.start
        for start, end in _merged(children.get(sp.id, ())):
            if start > cursor:
                events += [(cursor, 1, sp.id), (min(start, sp.end), -1, sp.id)]
            cursor = max(cursor, end)
        if sp.end > cursor:
            events += [(cursor, 1, sp.id), (sp.end, -1, sp.id)]
    events.sort(key=lambda e: (e[0], e[1]))  # at equal times, ends before starts
    out = {sp.id: 0.0 for sp in spans}
    active: set[int] = set()
    prev = 0
    for when, kind, sid in events:
        if active and when > prev:
            share = (when - prev) / len(active)
            for a in active:
                out[a] += share
        prev = when
        if kind == 1:
            active.add(sid)
        else:
            active.discard(sid)
    return out
