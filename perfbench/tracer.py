"""Span tracer for the padicdyn benchmark.

``Tracer.install`` wraps the public entry points of each padicdyn module
from outside the library: a module-level function is replaced in every
padicdyn namespace that holds it (so calls through ``from .x import f``
are seen too), a method is replaced on its class. Each call records one
span (name, start, end, parent span, op id) in flat in-memory arrays;
``uninstall`` puts every original object back.

Per-layer metrics are derived from the spans after the traced pass:
``self_s`` is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from array import array
from collections import defaultdict
from typing import Callable, Optional

MODULES = ("padicdyn", "padicdyn.padic", "padicdyn.dynamics", "padicdyn.ergodicity",
           "padicdyn.periodic", "padicdyn.conjugation", "padicdyn.cli")

ARITH_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__")

# (defining module, function name, layer name)
FUNCTIONS = (
    ("padicdyn.padic", "_fraction_valuation", "padic.valuation"),
    ("padicdyn.padic", "_unit_residue", "padic.unit_residue"),
    ("padicdyn.padic", "hensel_sqrt", "padic.hensel_sqrt"),
    ("padicdyn.dynamics", "orbit", "dynamics.orbit"),
    ("padicdyn.ergodicity", "decide_ergodicity", "ergodicity.decide"),
    ("padicdyn.ergodicity", "residue_cycle_oracle", "ergodicity.oracle"),
    ("padicdyn.ergodicity", "_ball_permutation", "ergodicity.ball_level"),
    ("padicdyn.ergodicity", "isometry_check", "ergodicity.isometry"),
    ("padicdyn.ergodicity", "verify_rho", "ergodicity.verify_rho"),
    ("padicdyn.ergodicity", "mod4_criterion", "ergodicity.mod4"),
    ("padicdyn.periodic", "two_periodic", "periodic.two_periodic"),
    ("padicdyn.periodic", "three_periodic_from_q", "periodic.three_periodic"),
    ("padicdyn.periodic", "verify_orbit_structure", "periodic.structure"),
    ("padicdyn.periodic", "q_sweep", "periodic.q_sweep"),
    ("padicdyn.conjugation", "conjugate", "conjugation.conjugate"),
    ("padicdyn.conjugation", "verify_conjugacy", "conjugation.verify_conjugacy"),
    ("padicdyn.cli", "main", "cli.main"),
)

# (module, class, attribute, layer name); from_rational is a classmethod
METHODS = (
    [("padicdyn.padic", "TruncatedPadic", m, "padic.trunc_arith") for m in ARITH_METHODS]
    + [
        ("padicdyn.padic", "TruncatedPadic", "from_rational", "padic.from_rational"),
        ("padicdyn.dynamics", "CanonicalMap", "eval", "dynamics.eval"),
        ("padicdyn.dynamics", "CanonicalMap", "eval_truncated", "dynamics.eval_truncated"),
        ("padicdyn.dynamics", "CanonicalMap", "classify", "dynamics.classify"),
    ]
)

# Layer metrics reported by a traced run, in the order of BENCHMARK.json.
CALLS = ("padic.trunc_arith", "padic.from_rational", "padic.valuation",
         "padic.unit_residue", "padic.hensel_sqrt", "dynamics.eval",
         "dynamics.eval_truncated", "dynamics.orbit", "dynamics.classify",
         "ergodicity.oracle", "ergodicity.ball_level", "cli.main")
SELF = ("padic.trunc_arith", "padic.valuation", "padic.unit_residue",
        "padic.hensel_sqrt", "dynamics.eval", "dynamics.eval_truncated",
        "dynamics.orbit", "ergodicity.oracle", "ergodicity.ball_level",
        "ergodicity.isometry", "ergodicity.verify_rho", "ergodicity.mod4",
        "periodic.two_periodic", "periodic.three_periodic", "periodic.structure",
        "conjugation.conjugate", "conjugation.verify_conjugacy", "cli.main")
TOTAL = ("padic.from_rational", "dynamics.orbit", "ergodicity.oracle",
         "periodic.q_sweep")
FAILED = ("dynamics.orbit", "cli.main")


class Tracer:
    """Wraps padicdyn entry points and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.failed: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, hook: Optional[Callable] = None):
        nid = self.name_ids.setdefault(layer, len(self.names))
        if nid == len(self.names):
            self.names.append(layer)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops, failed, stack = self.span_parent, self.span_op, self.failed, self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                failed.append(idx)
                raise
            ends[idx] = clock()
            stack.pop()
            if hook is not None:
                hook(idx, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [importlib.import_module(name) for name in MODULES]
        hooks = {
            "ergodicity.oracle": self._count_balls,
            "ergodicity.isometry": self._count_pairs,
            "cli.main": self._count_exit,
        }
        for module_name, func_name, layer in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), func_name)
            wrapped = self._wrap(original, layer, hooks.get(layer))
            for module in modules:
                if module.__dict__.get(func_name) is original:
                    self._patch(module, func_name, wrapped)
        for module_name, class_name, attr, layer in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, layer))
            else:
                wrapped = self._wrap(original, layer)
            self._patch(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    def _count_balls(self, idx, result) -> None:
        self.counters["ergodicity.oracle.balls"] += sum(lv.ball_count for lv in result.levels)

    def _count_pairs(self, idx, result) -> None:
        self.counters["ergodicity.isometry.pairs"] += result.pairs_checked

    def _count_exit(self, idx, code) -> None:
        if code != 0:
            self.failed.append(idx)

    # -- analysis ---------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer counts and times (seconds) derived from the spans."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        dur = array("q", (e - s for s, e in zip(self.span_start, self.span_end)))
        child = array("q", [0]) * n
        for i in range(n):
            if parents[i] >= 0:
                child[parents[i]] += dur[i]
        ids = self.name_ids
        total_ids = {ids[layer] for layer in TOTAL if layer in ids}
        calls, self_ns, total_ns = defaultdict(int), defaultdict(int), defaultdict(int)
        for i in range(n):
            nid = names[i]
            calls[nid] += 1
            self_ns[nid] += dur[i] - child[i]
            if nid in total_ids and not self._has_ancestor(i, {nid}):
                total_ns[nid] += dur[i]
        failed = defaultdict(int)
        for i in self.failed:
            failed[names[i]] += 1

        oracle_ids = {ids["ergodicity.oracle"]} if "ergodicity.oracle" in ids else set()
        eval_id = ids.get("dynamics.eval")
        evals_in_oracle = sum(1 for i in range(n)
                              if names[i] == eval_id and self._has_ancestor(i, oracle_ids))

        def get(table, layer):
            return table.get(ids[layer], 0) if layer in ids else 0

        out = {}
        for layer in CALLS:
            out[f"{layer}.calls"] = get(calls, layer)
        for layer in SELF:
            out[f"{layer}.self_s"] = get(self_ns, layer) / 1e9
        for layer in TOTAL:
            out[f"{layer}.total_s"] = get(total_ns, layer) / 1e9
        for layer in FAILED:
            out[f"{layer}.failed"] = get(failed, layer)
        balls = self.counters["ergodicity.oracle.balls"]
        out["ergodicity.oracle.balls"] = balls
        out["ergodicity.oracle.evals_per_ball"] = evals_in_oracle / balls if balls else 0.0
        out["ergodicity.isometry.pairs"] = self.counters["ergodicity.isometry.pairs"]
        out["cli.report_bytes"] = self.counters["cli.report_bytes"]
        out["trace.spans"] = n
        return out

    def _has_ancestor(self, i: int, ids: set) -> bool:
        parents, names = self.span_parent, self.span_name
        j = parents[i]
        while j >= 0:
            if names[j] in ids:
                return True
            j = parents[j]
        return False

    def write_spans(self, path) -> None:
        """Write the spans as gzipped JSON lines: a header, then one array per span."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start_ns", "end_ns", "parent", "op",
                                            "failed"]}) + "\n")
            failed = set(self.failed)
            rows = zip(self.span_name, self.span_start, self.span_end, self.span_parent,
                       self.span_op)
            for i, (nid, s, e, parent, op) in enumerate(rows):
                fh.write(f"[{nid},{s},{e},{parent},{op},{int(i in failed)}]\n")
