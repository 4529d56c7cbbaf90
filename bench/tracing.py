"""Span recorder for the traced benchmark run.

The traced run replaces pqvol's public entry points with wrappers that
record one span (name, start, end, parent) per call. Each wrapper is
installed under the name its caller looks up: `recurrence` imports
`block_subgraphs` and `build_double` by name, so those are replaced in
`recurrence` itself, while calls through a module (`draconian.count`) are
caught on that module. Spans stay in memory and are written out once, when
the run ends. Untraced runs never import this module.
"""

from __future__ import annotations

import time
from collections import defaultdict
from functools import wraps

# (module, attribute, span name) for every wrapped entry point. A name is
# <layer>.<function>; the process-pool path of count and
# enumerate_draconian is renamed to the `shard` layer at call time.
TARGETS = (
    ("pqvol.draconian", "build_double", "graphs.build_double"),
    ("pqvol.recurrence", "build_double", "graphs.build_double"),
    ("pqvol.graphs", "build_double", "graphs.build_double"),
    ("pqvol.recurrence", "block_subgraphs", "graphs.block_subgraphs"),
    ("pqvol.outerplanar", "block_subgraphs", "graphs.block_subgraphs"),
    ("pqvol.sampling", "sample_subdivision_pair", "sampling.sample"),
    ("pqvol.sampling", "sample_triangle_pair", "sampling.sample"),
    ("pqvol.sampling", "random_connected_graph", "sampling.sample"),
    ("pqvol.outerplanar", "is_outerplanar", "outerplanar.is_outerplanar"),
    ("pqvol.outerplanar", "outer_structure", "outerplanar.outer_structure"),
    ("pqvol.outerplanar", "nvol_outerplanar", "outerplanar.nvol_outerplanar"),
    ("pqvol.recurrence", "nvol", "recurrence.nvol"),
    ("pqvol.recurrence", "subdivision_step", "recurrence.subdivision_step"),
    ("pqvol.recurrence", "triangle_step", "recurrence.triangle_step"),
    ("pqvol.draconian", "enumerate_draconian", "draconian.enumerate"),
    ("pqvol.draconian", "count", "draconian.count"),
    ("pqvol.draconian", "check_flow", "draconian.check_flow"),
    ("pqvol.draconian", "check_subset", "draconian.check_subset"),
)

_SHARDED = {"draconian.enumerate": "shard.enumerate", "draconian.count": "shard.count"}


class Recorder:
    """Spans as parallel lists; index -1 as a parent means a root span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        # span index -> sequences listed, for enumerate spans
        self.listed: dict[int, int] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        sharded = _SHARDED.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            if sharded and kwargs.get("workers", args[1] if len(args) > 1 else 1) > 1:
                span = sharded
            idx = self.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if name == "draconian.enumerate":
                self.listed[idx] = result.count
            return result

        return wrapper

    def install(self) -> None:
        import importlib

        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:  # no longer looked up there; its metrics read 0
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def totals(self, first: int = 0) -> tuple[dict, dict, dict]:
        """Per span name from span index `first` on: calls, total seconds and
        self seconds (duration minus the time its child spans cover)."""
        child = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        for i in range(first, len(self.names)):
            p = self.parents[i]
            if p >= first:
                child[p] += self.ends[i] - self.starts[i]
        selfs: dict[str, float] = defaultdict(float)
        for i in range(first, len(self.names)):
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            calls[name] += 1
            total[name] += dur
            selfs[name] += dur - child[i]
        return calls, total, selfs

    def layer_self(self, first: int = 0) -> dict[str, float]:
        """Self seconds per layer, the first dotted part of a span name."""
        _, _, selfs = self.totals(first)
        out: dict[str, float] = defaultdict(float)
        for name, s in selfs.items():
            out[name.split(".", 1)[0]] += s
        return out

    def ancestor_named(self, idx: int, prefix: str) -> str | None:
        p = self.parents[idx]
        while p >= 0:
            if self.names[p].startswith(prefix):
                return self.names[p]
            p = self.parents[p]
        return None

    def write(self, path) -> None:
        """One span per line: index, parent, name, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i}\t{self.parents[i]}\t{name}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n"
                )


# Planner rules as they appear in returned traces; ':' is not allowed in a
# metric name, so it becomes '.'.
RULES = (
    "component-product", "block-product", "closed-form:vertex", "closed-form:edge",
    "closed-form:cycle", "closed-form:complete-minus-matching", "closed-form:k2m",
    "outerplanar-formula", "reverse-triangle", "reverse-subdivision", "enumeration",
)
ENUM_FAMILIES = ("cycle", "wheel", "complete", "k2m", "kmm")


def _count_rules(node, counts: dict) -> None:
    counts[node.rule] = counts.get(node.rule, 0) + 1
    for child in node.children:
        _count_rules(child, counts)


def layer_metrics(rec: Recorder, first: int, rounds: int, input_spans: int,
                  ops, plans) -> dict[str, float]:
    """Per-layer metrics of the traced phase (spans from `first` on), per round.

    `plans` holds the planner results of one traced round. Spans before
    `input_spans` were recorded while the inputs were built; sampling only
    runs there, so its figures are per run.
    """
    calls, total, _ = rec.totals(first)
    layer_self = rec.layer_self(first)
    m: dict[str, float] = {}

    def per_round(value: float) -> float:
        return value / rounds

    for name in ("graphs.build_double", "draconian.count", "draconian.check_flow",
                 "draconian.check_subset", "outerplanar.is_outerplanar"):
        m[f"{name}_calls"] = per_round(calls.get(name, 0))
    for name in ("graphs.build_double", "graphs.block_subgraphs", "outerplanar.is_outerplanar",
                 "outerplanar.outer_structure", "recurrence.nvol", "recurrence.subdivision_step",
                 "recurrence.triangle_step", "draconian.count", "draconian.check_flow",
                 "draconian.check_subset"):
        m[f"{name}_s"] = per_round(total.get(name, 0.0))
    m["draconian.enumerate_s"] = per_round(total.get("draconian.enumerate", 0.0))
    for layer in ("graphs", "outerplanar", "recurrence", "draconian", "shard"):
        m[f"{layer}.self_s"] = per_round(layer_self.get(layer, 0.0))

    m["sampling.sample_s"] = sum(
        rec.ends[i] - rec.starts[i]
        for i in range(input_spans)
        if rec.names[i] == "sampling.sample" and rec.parents[i] < 0
    )

    blocks = sum(op.extra.get("blocks", 0) for op in ops if op.kind == "nvol")
    if blocks:
        m["outerplanar.calls_per_block"] = m["outerplanar.is_outerplanar_calls"] / blocks

    listed = {i: c for i, c in rec.listed.items() if i >= first}
    m["draconian.sequences"] = per_round(sum(listed.values()))
    by_family: dict[str, list[float]] = {f: [0, 0.0] for f in ENUM_FAMILIES}
    for i, c in listed.items():
        op_name = rec.ancestor_named(i, "op.")
        family = op_name.split(".", 1)[1] if op_name else ""
        if family in by_family:
            by_family[family][0] += c
            by_family[family][1] += rec.ends[i] - rec.starts[i]
    for family, (seqs, secs) in by_family.items():
        if secs:
            m[f"draconian.sequences_per_s.{family}"] = seqs / secs

    rule_counts: dict[str, int] = {}
    for result in plans:
        _count_rules(result.trace, rule_counts)
    for rule in RULES:
        m[f"recurrence.rule.{rule.replace(':', '.')}"] = rule_counts.get(rule, 0)
    return m
