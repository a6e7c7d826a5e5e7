"""The benchmark's workloads: which library calls make up one round.

A verify operation is one catalog instance, run through verify_instance
(the call verify_catalog makes for each instance).  A search operation is
one Table 1-2 row, run through exhaustive_search with no time budget and no
worker processes.  stringc is imported inside prepare(), so that the setup
probe times the import.

Each workload has a run set, small enough that one round fits a benchmark
run, and a full set: the whole catalog at that degree, or all seven rows.
"""

from __future__ import annotations

import json

from checks import closure

# (family id, parameters besides n) of the instances in one verify round.
VERIFY_RUN = {
    14: [
        ("T4#5", {}),
        ("T7#27", {"x": 1}),
        ("T8#1", {}),
        ("T8#5", {}),
        ("T8#6", {}),
        ("T8#7", {}),
        ("HIGHC#1", {}),
        ("REP2N#2", {}),
    ],
    16: [
        ("T8#4", {"i": 4}),
        ("T8#5", {}),
        ("T8#6", {}),
        ("T8#7", {}),
        ("REP2N#1", {}),
        ("REP2N#2", {}),
    ],
}

# (ambient, min rank, max rank, subgroup order or None, transitive only).
SEARCH_ROWS = [
    ("alt5-deg6", 3, 5, None, False),
    ("sym5-deg6", 3, 5, None, False),
    ("c2wrS3-deg6", 4, 5, None, False),
    ("s3wrS2-deg6", 4, 5, 36, True),
    ("sym6-deg10", 5, 5, None, False),
    ("c2wrS4-deg8", 5, 5, None, False),
    ("s4wrS2-deg8", 5, 5, 576, True),
]
# Rows in the full set only.  They take about 17 s, 1 min and 2.5 min, too
# long for three rounds in a run.
FULL_ONLY_ROWS = {"sym6-deg10", "c2wrS4-deg8", "s4wrS2-deg8"}

WORKLOADS = {
    "verify-n14": ("verify", 14),
    "verify-n16": ("verify", 16),
    "search-tables": ("search", None),
}


def op_key(op):
    if op["kind"] == "verify":
        extra = ",".join(f"{k}={v}" for k, v in sorted(op["params"].items())
                         if k != "n")
        return f"{op['id']}[{extra}]" if extra else op["id"]
    return op["ambient"]


def prepare(name, full=False):
    """Import the library and build the operations of one round.

    This is the set-up a user pays before the first result: the import,
    the catalog listing for a verify workload, and the ambient groups for
    the search workload.
    """
    from stringc.classify import catalog_instances

    kind, degree = WORKLOADS[name]
    if kind == "verify":
        listing = catalog_instances(degree)
        if full:
            chosen = listing
        else:
            chosen = []
            for fid, extra in VERIFY_RUN[degree]:
                match = [(f, p) for f, p in listing if f == fid and all(
                    p.get(k) == v for k, v in extra.items())]
                if len(match) != 1:
                    raise LookupError(f"{fid} {extra} is not one instance "
                                      f"of the n={degree} catalog")
                chosen.append(match[0])
        return [{"kind": "verify", "id": fid, "params": params}
                for fid, params in chosen]

    from stringc.ambients import named_ambient

    return [
        {"kind": "search", "ambient": amb, "min_rank": lo, "max_rank": hi,
         "subgroup_order": order, "transitive_only": transitive,
         "group": named_ambient(amb)}
        for amb, lo, hi, order, transitive in SEARCH_ROWS
        if full or amb not in FULL_ONLY_ROWS
    ]


def run_op(op):
    """One call into the library; returns its raw result."""
    if op["kind"] == "verify":
        from stringc.classify import verify_instance

        return verify_instance(op["id"], op["params"])
    from stringc.classify import exhaustive_search

    return exhaustive_search(
        op["group"], op["min_rank"], op["max_rank"],
        subgroup_order=op["subgroup_order"],
        transitive_only=op["transitive_only"])


def normalise(op, result):
    """The program's output as plain JSON data, with timings left out."""
    if op["kind"] == "verify":
        return json.loads(json.dumps(result.to_dict(no_timing=True)))
    return {
        "completed": result.completed,
        "merged": result.merged_duplicates,
        "results": [
            {"gens": [list(g.images) for g in s.gens],
             "schlafli": list(sig.schlafli)}
            for s, sig in result.items
        ],
    }


def check_input(op):
    """What the checks need about an operation, taken from its input.

    For a verify operation this is the catalog's graph and what the catalog
    states about it; for a search row, the row's parameters.
    """
    if op["kind"] == "verify":
        from stringc.families import descriptor

        desc = descriptor(op["id"])
        params = dict(op["params"])
        n = params.pop("n")
        graph = desc.instantiate(n, params)
        return {"id": op["id"], "params": op["params"],
                "degree": graph.vertices, "rank": desc.rank_for(n),
                "edges": [list(e) for e in graph.edges], "table": desc.table,
                "order_tag": desc.expected.get("order")}
    group = op["group"]
    ambient_order = len(closure([g.images for g in group.generators],
                                group.degree))
    return {"ambient": op["ambient"], "degree": group.degree,
            "min_rank": op["min_rank"], "max_rank": op["max_rank"],
            "target_order": op["subgroup_order"] or ambient_order,
            "transitive_only": op["transitive_only"]}


def decided(op, output):
    """(IP verdicts decided, oracle verdicts decided) in one output.

    Verify: the intersection_property and naive_oracle checks that end in
    pass or fail rather than skip.  Search: every reported string C-group
    is an intersection-property verdict decided exactly, and a row that
    runs to completion is a decided exhaustive verdict.
    """
    if op["kind"] == "verify":
        checks = output["checks"]
        return tuple(
            int(checks.get(name, {}).get("status") in ("pass", "fail"))
            for name in ("intersection_property", "naive_oracle"))
    return len(output["results"]), int(output["completed"])
