"""Outside-in tracing: spans recorded around calls into each stringc layer.

Tracer.install() replaces each traced function with a wrapper under the name
its caller looks it up by (a module global such as
stringc.classify.check_intersection_property, or a method on its class), so
src/ is untouched.  Spans are kept in memory as [name, start, end, parent,
op] lists; op is the index of the benchmark operation that caused them,
which all spans of one operation share.  A span's self time is its duration
less the durations of its child spans; dedup.total_s alone is inclusive,
because signature() builds stabilizer chains and block systems whose self
time lands in perms and analysis.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name).  "Class.method" patches a method.
PATCHES = [
    ("stringc.classify", "is_independent", "sggi.is_independent"),
    ("stringc.classify", "signature", "dedup.signature"),
    ("stringc.classify", "dual", "dedup.signature"),
    ("stringc.classify", "block_action", "analysis"),
    ("stringc.classify", "classify_kernel", "analysis"),
    ("stringc.classify", "lcr_decompose", "analysis"),
    ("stringc.classify", "delta_vector", "analysis"),
    ("stringc.classify", "alpha_vector", "analysis"),
    ("stringc.classify", "duality_partner", "families"),
    ("stringc.families", "FamilyDescriptor.instantiate", "families"),
    ("stringc.classify", "graph_to_sggi", "prgraph"),
    ("stringc.classify", "sggi_to_graph", "prgraph"),
    ("stringc.classify", "is_connected", "prgraph"),
    ("stringc.families", "graph_to_sggi", "prgraph"),
    ("stringc.families", "sggi_to_graph", "prgraph"),
    ("stringc.families", "canonical_form", "prgraph"),
    ("stringc.sggi", "intersection_order_bounded", "perms.bounded_meet"),
    ("stringc.sggi", "SubsetLattice.intersection_order", "sggi.meet"),
    ("stringc.perms", "StabilizerChain.__init__", "perms.chain_build"),
    ("stringc.perms", "PermGroup.minimal_block_systems", "perms.block_systems"),
    ("stringc.perms", "PermGroup.all_block_systems", "perms.block_systems"),
]

# Per-layer metric: (name, unit, better).  Kept in step with BENCHMARK.json.
ROWS = ["alt5-deg6", "sym5-deg6", "c2wrS3-deg6", "s3wrS2-deg6"]
METRICS = [
    ("perms.chain_builds", "count", "lower"),
    ("perms.chain_build_s", "s", "lower"),
    ("perms.bounded_meet_calls", "count", "lower"),
    ("perms.bounded_meet_s", "s", "lower"),
    ("perms.block_systems_s", "s", "lower"),
    ("sggi.ip_recursive_s", "s", "lower"),
    ("sggi.ip_naive_s", "s", "lower"),
    ("sggi.element_set_s", "s", "lower"),
    ("sggi.element_sets_built", "count", "lower"),
    ("sggi.elements_materialised", "count", "lower"),
    ("sggi.meets", "count", "lower"),
    ("sggi.meet_s", "s", "lower"),
    ("sggi.ip_budget_skips", "count", "lower"),
    ("sggi.is_independent_s", "s", "lower"),
    ("classify.verify_instance_max_s", "s", "lower"),
    ("classify.verify_instance_self_s", "s", "lower"),
    ("search.dfs_s", "s", "lower"),
    ("search.accepted_tuples", "count", "lower"),
    *((f"search.row_s.{row}", "s", "lower") for row in ROWS),
    ("dedup.signature_calls", "count", "lower"),
    ("dedup.signature_s", "s", "lower"),
    ("dedup.total_s", "s", "lower"),
    ("analysis.s", "s", "lower"),
    ("families.s", "s", "lower"),
    ("prgraph.s", "s", "lower"),
    ("ambients.named_ambient_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = -1
        self._undo = []

    # -- recording ---------------------------------------------------------

    def begin(self, name):
        record = [name, perf_counter(), 0.0,
                  self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def end(self, record):
        self.stack.pop()
        record[2] = perf_counter()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; the benchmark's own calls use this."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name, fn):
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            record = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(record)

        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, module, attribute, wrapper_for):
        owner = importlib.import_module(module)
        path = attribute.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, path[-1])
        setattr(owner, path[-1], wrapper_for(original))
        self._undo.append((owner, path[-1], original))

    def install(self):
        for module, attribute, name in PATCHES:
            self._patch(module, attribute,
                        lambda fn, name=name: self._wrap(name, fn))
        self._patch("stringc.classify", "check_intersection_property",
                    self._wrap_ip_check)
        self._patch("stringc.sggi", "SubsetLattice.element_set",
                    self._wrap_element_set)

    def uninstall(self):
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def _wrap_ip_check(self, fn):
        from stringc.sggi import IPBudgetExceeded

        def traced(s, mode="recursive", lattice=None):
            record = self.begin(f"sggi.ip_{mode}")
            try:
                return fn(s, mode, lattice=lattice)
            except IPBudgetExceeded:
                self.counts["sggi.ip_budget_skips"] += 1
                raise
            finally:
                self.end(record)

        return traced

    def _wrap_element_set(self, fn):
        def traced(lattice, mask):
            # The lattice caches one set per distinct subgroup; a new cache
            # entry means this call materialised it.
            before = len(lattice._elsets)
            record = self.begin("sggi.element_set")
            try:
                result = fn(lattice, mask)
            finally:
                self.end(record)
            if len(lattice._elsets) > before:
                self.counts["sggi.element_sets_built"] += 1
                self.counts["sggi.elements_materialised"] += len(result)
            return result

        return traced

    def time_ambients(self, ops):
        """Seconds to build the ambient groups of the search operations."""
        from stringc.ambients import named_ambient

        self.install()
        mark = self.mark()
        try:
            for op in ops:
                if op["kind"] == "search":
                    self.call("ambients.named_ambient", named_ambient,
                              op["ambient"])
        finally:
            self.uninstall()
        return self.summary(mark, ops)["ambients.named_ambient_s"]

    # -- results -----------------------------------------------------------

    def mark(self):
        """Positions to pass to summary() for the work done after now."""
        return len(self.spans), Counter(self.counts)

    def summary(self, mark, ops):
        """Per-layer figures of the spans and counts recorded since mark."""
        first, counts_before = mark
        spans = self.spans[first:]
        child = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent] += end - start
        self_s = Counter()
        total_s = Counter()
        calls = Counter()
        instance_max = 0.0
        rows = {}
        for index, (name, start, end, parent, op) in enumerate(spans, first):
            self_s[name] += end - start - child[index]
            if parent < first or spans[parent - first][0] != name:
                total_s[name] += end - start
            calls[name] += 1
            if name == "classify.verify_instance":
                instance_max = max(instance_max, end - start)
            elif name == "search.exhaustive_search":
                rows[ops[op]["ambient"]] = end - start
        counts = self.counts - counts_before
        values = {
            "perms.chain_builds": calls["perms.chain_build"],
            "perms.chain_build_s": self_s["perms.chain_build"],
            "perms.bounded_meet_calls": calls["perms.bounded_meet"],
            "perms.bounded_meet_s": self_s["perms.bounded_meet"],
            "perms.block_systems_s": self_s["perms.block_systems"],
            "sggi.ip_recursive_s": self_s["sggi.ip_recursive"],
            "sggi.ip_naive_s": self_s["sggi.ip_naive"],
            "sggi.element_set_s": self_s["sggi.element_set"],
            "sggi.element_sets_built": counts["sggi.element_sets_built"],
            "sggi.elements_materialised": counts["sggi.elements_materialised"],
            "sggi.meets": calls["sggi.meet"],
            "sggi.meet_s": self_s["sggi.meet"],
            "sggi.ip_budget_skips": counts["sggi.ip_budget_skips"],
            "sggi.is_independent_s": self_s["sggi.is_independent"],
            "classify.verify_instance_max_s": instance_max,
            "classify.verify_instance_self_s":
                self_s["classify.verify_instance"],
            "search.dfs_s": self_s["search.exhaustive_search"],
            "search.accepted_tuples": counts["search.accepted_tuples"],
            "dedup.signature_calls": calls["dedup.signature"],
            "dedup.signature_s": self_s["dedup.signature"],
            "dedup.total_s": total_s["dedup.signature"],
            "analysis.s": self_s["analysis"],
            "families.s": self_s["families"],
            "prgraph.s": self_s["prgraph"],
            "ambients.named_ambient_s": self_s["ambients.named_ambient"],
        }
        for row in ROWS:
            values[f"search.row_s.{row}"] = rows.get(row, 0.0)
        return values

    def write(self, path, ops):
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps([name, start, end, parent,
                                      ops[op]["key"] if op >= 0 else None]))
                out.write("\n")
