"""Outside-in layer trace for the benchmark worker.

The tracer wraps public names of the ``graphrestrict`` modules from the
outside: module-level functions are replaced at every module that binds the
same function object (so ``cosetgraph.find_completion`` is traced as well as
``completion.find_completion``), and methods are replaced on their class.
Each call records a span ``[name, parent, start, end]``; spans stay in memory
and are written out as JSON lines when the worker ends.  ``Permutation.__mul__``
gets a counter instead of a span, because it runs millions of times.

A name that no longer exists is listed in ``missing`` and every metric that
depends on it is left out of ``metrics()``; it is never reported as 0.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (module, attribute, span name): functions wrapped at every binding site.
FUNCTIONS = (
    ("classify", "analyze_local_group", "classify.analyze"),
    ("amalgam", "build_star", "amalgam.build_star"),
    ("amalgam", "validate_star", "amalgam.validate_star"),
    ("amalgam", "local_model", "amalgam.local_model"),
    ("completion", "build_involution", "completion.build_involution"),
    ("completion", "verify_completion", "completion.verify_completion"),
    ("completion", "find_completion", "completion.find_completion"),
    ("cosetgraph", "enumerate_cosets", "cosetgraph.enumerate_cosets"),
    ("cosetgraph", "build_graph", "cosetgraph.build_graph"),
    ("cosetgraph", "local_action", "cosetgraph.local_action"),
    ("cosetgraph", "verify_locally_L", "cosetgraph.verify_locally_L"),
    ("cosetgraph", "parse_graph", "cosetgraph.parse_graph"),
    ("cosetgraph", "export_graph", "cosetgraph.export_graph"),
    ("perm", "permutation_isomorphic", "perm.isomorphic"),
    ("cli", "main", "cli"),
)

# (module, class, method, span name): methods wrapped on the class itself.
METHODS = (
    ("completion", "Carrier", "__init__", "completion.carrier"),
    ("perm", "StabiliserChain", "__init__", "perm.chain"),
)

MUL_COUNTER = ("perm", "Permutation", "__mul__")

# metric -> (span name, "total" | "self").  "total" is the time inside
# outermost spans of that name; "self" excludes the time of child spans.
TIMES = {
    "amalgam.validate_star_s": ("amalgam.validate_star", "total"),
    "amalgam.build_star_s": ("amalgam.build_star", "total"),
    "amalgam.local_model_s": ("amalgam.local_model", "total"),
    "classify.analyze_s": ("classify.analyze", "total"),
    "completion.carrier_self_s": ("completion.carrier", "self"),
    "completion.verify_completion_self_s": ("completion.verify_completion", "self"),
    "completion.find_completion_self_s": ("completion.find_completion", "self"),
    "completion.build_involution_s": ("completion.build_involution", "total"),
    "cosetgraph.enumerate_cosets_s": ("cosetgraph.enumerate_cosets", "total"),
    "cosetgraph.build_graph_self_s": ("cosetgraph.build_graph", "self"),
    "cosetgraph.export_graph_s": ("cosetgraph.export_graph", "total"),
    "cosetgraph.verify_locally_L_self_s": ("cosetgraph.verify_locally_L", "self"),
    "cosetgraph.parse_graph_s": ("cosetgraph.parse_graph", "total"),
    "cosetgraph.local_action_self_s": ("cosetgraph.local_action", "self"),
    "perm.chain_s": ("perm.chain", "total"),
    "perm.isomorphic_s": ("perm.isomorphic", "total"),
    "cli.self_s": ("cli", "self"),
}

# metric -> span name whose calls it counts.
COUNTS = {
    "completion.carriers": "completion.carrier",
    "completion.involutions": "completion.build_involution",
    "completion.combos": "completion.verify_completion",
    "perm.chains": "perm.chain",
}


class Tracer:
    """Spans and counters of one CLI operation in one worker process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []       # [name, parent index, start, end]
        self._stack: list[int] = []
        self.missing: set[str] = set()
        self.mul_calls = 0
        self.accepted = 0                 # accepted verify_completion reports
        self.vertices = 0                 # cosets enumerated

    def _wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, stack[-1] if stack else None, 0.0, 0.0]
            spans.append(span)
            stack.append(sid)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _on_report(self, report):
        if hasattr(report, "accepted"):
            self.accepted += bool(report.accepted)
        else:
            self.missing.add("CompletionReport.accepted")

    def _on_table(self, table):
        if table is None:       # more cosets than the vertex cap
            return
        if hasattr(table, "size"):
            self.vertices += table.size
        else:
            self.missing.add("CosetTable.size")

    def install(self) -> None:
        """Wrap every traced name of the imported package."""
        package = "graphrestrict"
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        hooks = {"completion.verify_completion": self._on_report,
                 "cosetgraph.enumerate_cosets": self._on_table}
        for mod_name, attr, name in FUNCTIONS:
            module = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(name)
                continue
            wrapper = self._wrap(name, original, hooks.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        for mod_name, cls_name, method, name in METHODS:
            cls = getattr(sys.modules.get(f"{package}.{mod_name}"), cls_name, None)
            original = vars(cls).get(method) if cls is not None else None
            if original is None:
                self.missing.add(name)
                continue
            setattr(cls, method, self._wrap(name, original))
        mod_name, cls_name, method = MUL_COUNTER
        cls = getattr(sys.modules.get(f"{package}.{mod_name}"), cls_name, None)
        mul = vars(cls).get(method) if cls is not None else None
        if mul is None:
            self.missing.add("perm.mul")
        else:
            tracer = self

            def counted(a, b):
                tracer.mul_calls += 1
                return mul(a, b)

            setattr(cls, method, counted)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded spans; absent when a name is missing."""
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for sid, (name, parent, start, end) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[sid]
            if not self._has_ancestor(sid, name):
                total[name] = total.get(name, 0.0) + (end - start)
        out: dict[str, float] = {}
        for metric, (name, kind) in TIMES.items():
            if name not in self.missing:
                out[metric] = (total if kind == "total" else self_time).get(name, 0.0)
        for metric, name in COUNTS.items():
            if name not in self.missing:
                out[metric] = calls.get(name, 0)
        if not self.missing & {"completion.verify_completion", "CompletionReport.accepted"}:
            combos = calls.get("completion.verify_completion", 0)
            out["completion.accept_ratio"] = self.accepted / combos if combos else 0.0
        if not self.missing & {"cosetgraph.enumerate_cosets", "CosetTable.size"}:
            out["cosetgraph.vertices"] = self.vertices
        if "perm.mul" not in self.missing:
            out["perm.mul_calls"] = self.mul_calls
        return out

    def _has_ancestor(self, sid: int, name: str) -> bool:
        parent = self.spans[sid][1]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def write(self, path) -> None:
        """Append the spans as JSON lines, one object per span."""
        with open(path, "a") as fh:
            for sid, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": sid, "name": name,
                                     "parent": parent, "start": start,
                                     "end": end}) + "\n")
