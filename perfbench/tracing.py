"""Spans around the benchmark's calls into each layer of the package.

``Layers`` is the only way the workloads reach the package.  Untraced, its
attributes are the package functions themselves, so the measured run pays
nothing for tracing.  Traced, each attribute is wrapped: a call records a
span (id, parent span, operation id, name, start, end) and, for some
functions, counts taken from the arguments and the result.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import gzip
import json
from time import perf_counter
from typing import Callable, Optional


def _n_states(nfh) -> int:
    return nfh.underlying.n_states


# attribute -> (span name, module attribute path, counts from (args, result))
LAYER_FUNCTIONS: dict[str, tuple[str, str, Optional[Callable]]] = {
    "member": ("hfa.member", "hfa.member",
               lambda a, r: {"assignment_bound": len(a[1]) ** a[0].k}),
    "gen_hamiltonian": ("hfa.gen_hamiltonian", "hfa.gen_hamiltonian", None),
    "make_nfh": ("hfa.make_nfh", "hfa.make_nfh", None),
    "complement": ("hfa.complement", "hfa.complement",
                   lambda a, r: {"states_out": _n_states(r)}),
    "union": ("hfa.union", "hfa.union", lambda a, r: {"states_out": _n_states(r)}),
    "intersect": ("hfa.intersect", "hfa.intersect",
                  lambda a, r: {"states_out": _n_states(r)}),
    "nonempty_exists": ("hfa.nonempty_exists", "hfa.nonempty_exists", None),
    "nonempty_forall": ("hfa.nonempty_forall", "hfa.nonempty_forall", None),
    "nonempty_exists_forall": ("hfa.nonempty_exists_forall",
                               "hfa.nonempty_exists_forall", None),
    "regular_member": ("hfa.regular_member", "hfa.regular_member", None),
    "contains": ("hfa.contains", "hfa.contains", None),
    "equivalent": ("hfa.equivalent", "hfa.equivalent", None),
    "parse_nfh": ("hfa.parse_nfh", "hfa.parse_nfh", None),
    "format_nfh": ("hfa.format_nfh", "hfa.format_nfh", None),
    "parse_hyperword": ("hfa.parse_hyperword", "hfa.parse_hyperword", None),
    "hyperword": ("hfa.Hyperword.of", "hfa.Hyperword.of", None),
    "fa": ("fa.Fa", "fa.Fa", None),
    "fa_minimize": ("fa.minimize", "fa.Fa.minimize",
                    lambda a, r: {"states_in": a[0].n_states, "states_out": r.n_states}),
    "fa_determinize": ("fa.determinize", "fa.Fa.determinize",
                       lambda a, r: {"states_out": r.n_states}),
    "fa_complement": ("fa.complement", "fa.Fa.complement", None),
    "fa_intersect": ("fa.intersect", "fa.Fa.intersect",
                     lambda a, r: {"states_out": r.n_states}),
    "fa_union": ("fa.union", "fa.Fa.union", None),
    "fa_shortest_accepted": ("fa.shortest_accepted", "fa.Fa.shortest_accepted", None),
    "sequence_closure": ("canon.sequence_closure", "canon.sequence_closure",
                         lambda a, r: {"states_out": _n_states(r)}),
    "permutation_closure": ("canon.permutation_closure", "canon.permutation_closure",
                            lambda a, r: {"states_out": _n_states(r)}),
    "check_complete": ("canon.check_complete", "canon.check_complete", None),
    "canonical_equal": ("canon.canonical_equal", "canon.canonical_equal", None),
    "learn": ("learn.learn", "learn.learn", None),
    "teacher": ("learn.AutomatedTeacher", "learn.AutomatedTeacher", None),
    "hre_parse": ("hre.parse", "hre.parse", None),
    "compile_hre": ("hre.compile_hre", "hre.compile_hre",
                    lambda a, r: {"states_out": _n_states(r)}),
}


class Tracer:
    """In-memory span recorder; the benchmark is single-threaded, so one
    stack of open spans gives every span its parent."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end)
        self.counts: list[tuple] = []  # (span id, name, {count: value})
        self.events: list[tuple] = []  # (op, learner trace record)
        self.op = 0
        self._stack: list[int] = [0]
        self._next = 1

    def span(self, name: str, fn: Callable, args: tuple, counter=None):
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.op, name, start, end))
        if counter is not None:
            self.counts.append((sid, name, counter(args, result)))
        return result

    def wrap(self, name: str, fn: Callable, counter=None) -> Callable:
        def traced(*args):
            return self.span(name, fn, args, counter)

        return traced

    def learner_trace(self, record: dict) -> None:
        self.events.append((self.op, record))

    def write(self, path) -> None:
        """JSON lines, gzip-compressed: a traced member-random run records
        hundreds of thousands of spans."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end}))
                fh.write("\n")
            for sid, name, counts in self.counts:
                fh.write(json.dumps({"id": sid, "name": name, "counts": counts}))
                fh.write("\n")


class Layers:
    """The package's public functions, plain or wrapped in spans."""

    def __init__(self, package, tracer: Optional[Tracer] = None):
        self.learner_trace = tracer.learner_trace if tracer else None
        self.Quantifier = package.hfa.Quantifier
        self.Fragment = package.hfa.Fragment
        for attr, (name, path, counter) in LAYER_FUNCTIONS.items():
            fn = package
            for part in path.split("."):
                fn = getattr(fn, part)
            setattr(self, attr, fn if tracer is None else tracer.wrap(name, fn, counter))


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    child_time: dict[int, float] = {}
    for _sid, parent, _op, _name, start, end in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return {sid: (end - start) - child_time.get(sid, 0.0)
            for sid, _parent, _op, _name, start, end in spans}
