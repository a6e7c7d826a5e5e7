"""Independent checks of the program's outputs.

Nothing here imports stringc.  Permutations are image tuples on 0..n-1,
groups are enumerated by breadth-first closure, and every expected value is
either a property the method must have or a figure the paper prints.
Each check returns a list of problems; an empty list means the output holds.
"""

from __future__ import annotations

import math
from itertools import combinations

# Closures stop once a group exceeds this many elements.  A reported group
# order under the cap is compared with a closure count; every group that a
# recorded witness generates in the benchmark's workloads lies under it.
CLOSURE_CAP = 100_000

# Table 8 rows whose constructions fail the intersection property.  A FAIL
# verdict on them is the correct output.
EXPECTED_FAILURES = frozenset({"T8#5", "T8#6", "T8#7"})

# Checks that may fail on an expected failure: the recursive IP check, the
# naive oracle, which decides the same property, and independence, which
# every string C-group has (T8#6 fails it).
IP_CHECKS = frozenset({"intersection_property", "naive_oracle", "independent"})

# Schlafli symbols that Tables 1-2 print for each search row.  An empty set
# means the paper states that the row has no string C-group.
PRINTED_ROWS = {
    "alt5-deg6": {(3, 5), (5, 5)},
    "sym5-deg6": {(3, 3, 3), (4, 5), (4, 6), (5, 6), (6, 6)},
    "c2wrS3-deg6": {(2, 3, 3), (2, 3, 4)},
    "s3wrS2-deg6": {(3, 2, 3)},
    "sym6-deg10": {(3, 3, 3, 3)},
    "c2wrS4-deg8": set(),
    "s4wrS2-deg8": {(3, 4, 4, 3)},
}

_TABLE_WREATH = ("T4", "T5", "T6", "T7")


# ---------------------------------------------------------------------------
# Permutations as image tuples.
# ---------------------------------------------------------------------------


def involution(degree, pairs):
    """The product of the transpositions on 1-based vertex pairs."""
    images = list(range(degree))
    for u, v in pairs:
        images[u - 1], images[v - 1] = v - 1, u - 1
    return tuple(images)


def compose(a, b):
    """Apply a, then b."""
    return tuple(map(b.__getitem__, a))


def perm_order(p):
    order = 1
    seen = [False] * len(p)
    for start in range(len(p)):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        if length:
            order = order * length // math.gcd(order, length)
    return order


def closure(gens, degree, cap=CLOSURE_CAP):
    """Set of all elements of <gens>, or None once it passes cap."""
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        found = []
        for x in frontier:
            for g in gens:
                y = tuple(map(g.__getitem__, x))
                if y not in seen:
                    seen.add(y)
                    found.append(y)
        if len(seen) > cap:
            return None
        frontier = found
    return seen


def schlafli_of(gens):
    return tuple(perm_order(compose(a, b)) for a, b in zip(gens, gens[1:]))


def is_transitive(gens, degree):
    seen = {0}
    frontier = [0]
    while frontier:
        a = frontier.pop()
        for g in gens:
            if g[a] not in seen:
                seen.add(g[a])
                frontier.append(g[a])
    return len(seen) == degree


def canonical_symbol(symbol):
    """A Schlafli symbol up to reversal, the order duality allows."""
    symbol = tuple(symbol)
    return min(symbol, symbol[::-1])


def generators_of(instance):
    """Generator images of a catalog instance, one per edge label."""
    degree = instance["degree"]
    return [
        involution(degree, [(u, v) for lbl, u, v in instance["edges"]
                            if lbl == label])
        for label in range(instance["rank"])
    ]


def stated_order(instance):
    """The order the catalog states for an instance, or None."""
    n = instance["params"]["n"]
    tag = instance["order_tag"]
    if tag == "2*(n/2)!":
        return 2 * math.factorial(n // 2)
    if tag == "n!":
        return math.factorial(n)
    return None


# ---------------------------------------------------------------------------
# Verify outputs.
# ---------------------------------------------------------------------------


def witness_violation(gens, degree, j, k, cap=CLOSURE_CAP):
    """|<J>|, |<K>|, |<J> & <K>|, |<J & K>| by closure, or None past cap."""
    groups = [closure([gens[i] for i in part], degree, cap)
              for part in (j, k, sorted(set(j) & set(k)))]
    if any(g is None for g in groups):
        return None
    group_j, group_k, group_meet = groups
    return len(group_j), len(group_k), len(group_j & group_k), len(group_meet)


def check_verify_report(report, instance, cap=CLOSURE_CAP):
    """Problems with one verification report, checked against its input.

    report is VerificationReport.to_dict(no_timing=True) after a JSON round
    trip; instance holds the catalog's graph and statements for it.
    """
    problems = []
    gens = generators_of(instance)
    degree = instance["degree"]
    name = instance["id"]
    checks = report["checks"]

    rank = checks.get("rank", {}).get("evidence", {}).get("rank")
    if not (rank == len(gens) == instance["rank"]):
        problems.append(
            f"rank {rank}, {len(gens)} edge labels, catalog states "
            f"{instance['rank']}")
    if tuple(report["schlafli"]) != schlafli_of(gens):
        problems.append(
            f"Schlafli {report['schlafli']} but the generators give "
            f"{list(schlafli_of(gens))}")

    order = report["order"]
    if instance["table"] in _TABLE_WREATH:
        half = instance["params"]["n"] // 2
        if (2**half * math.factorial(half)) % order:
            problems.append(f"order {order} does not divide 2^m * m!")
    stated = stated_order(instance)
    if stated is not None and order != stated:
        problems.append(f"order {order}, catalog states {stated}")
    if order <= cap:
        group = closure(gens, degree, cap)
        if group is None or len(group) != order:
            problems.append(f"order {order}, but the closure "
                            f"{'passes the cap' if group is None else f'has {len(group)} elements'}")

    failing = {c for c, v in checks.items() if v["status"] == "fail"}
    ip = checks.get("intersection_property", {})
    if name in EXPECTED_FAILURES:
        if report["status"] != "FAIL" or ip.get("status") != "fail":
            problems.append(
                f"{name} must fail intersection_property, got "
                f"{report['status']} / {ip.get('status')}")
        elif not failing <= IP_CHECKS:
            problems.append(f"unexpected failing checks {sorted(failing)}")
        else:
            j, k = ip["evidence"]["witness"]
            orders = witness_violation(gens, degree, j, k, cap)
            if orders is None:
                problems.append(f"witness {j}/{k} exceeds the closure cap")
            elif orders[2] <= orders[3]:
                problems.append(
                    f"witness {j}/{k} is no violation: closure gives "
                    f"|<J>&<K>| = {orders[2]} = |<J&K>|")
    elif report["status"] == "FAIL" or failing:
        problems.append(f"unexpected FAIL on {sorted(failing)}")
    return problems


# ---------------------------------------------------------------------------
# Search outputs.
# ---------------------------------------------------------------------------


def intersection_property_holds(gens, degree, cap=CLOSURE_CAP):
    """Whether <J> & <K> = <J & K> for every pair of generator subsets.

    None once a closure passes the cap.
    """
    rank = len(gens)
    groups = {}
    for size in range(rank + 1):
        for subset in combinations(range(rank), size):
            group = closure([gens[i] for i in subset], degree, cap)
            if group is None:
                return None
            groups[frozenset(subset)] = group
    for j, group_j in groups.items():
        for k, group_k in groups.items():
            if len(group_j & group_k) != len(groups[j & k]):
                return False
    return True


def check_search_result(result, row, cap=CLOSURE_CAP):
    """Problems with one reported string C-group of a search row."""
    gens = [tuple(g) for g in result["gens"]]
    degree = row["degree"]
    rank = len(gens)
    problems = []
    if not row["min_rank"] <= rank <= row["max_rank"]:
        problems.append(f"rank {rank} outside the row's range")
    identity = tuple(range(degree))
    if any(g == identity or compose(g, g) != identity for g in gens):
        problems.append("a generator is not an involution")
        return problems
    for i, j in combinations(range(rank), 2):
        if j - i > 1 and compose(gens[i], gens[j]) != compose(gens[j], gens[i]):
            problems.append(f"string condition fails: rho{i}, rho{j} "
                            f"do not commute")
    group = closure(gens, degree, cap)
    if group is None or len(group) != row["target_order"]:
        problems.append(
            f"generates order {None if group is None else len(group)}, "
            f"target {row['target_order']}")
    if row["transitive_only"] and not is_transitive(gens, degree):
        problems.append("group is intransitive")
    if tuple(result["schlafli"]) != schlafli_of(gens):
        problems.append(f"Schlafli {result['schlafli']} but the generators "
                        f"give {list(schlafli_of(gens))}")
    if not problems and not intersection_property_holds(gens, degree, cap):
        problems.append("intersection property fails or exceeds the cap")
    return problems


def check_search_row(output, row, cap=CLOSURE_CAP):
    """Problems with one search row: completeness, printed rows, results."""
    problems = []
    if not output["completed"]:
        problems.append("search did not complete")
    found = {canonical_symbol(r["schlafli"]) for r in output["results"]}
    printed = {canonical_symbol(s) for s in PRINTED_ROWS[row["ambient"]]}
    if not printed and found:
        problems.append(f"paper prints no string C-group, found {sorted(found)}")
    missing = printed - found
    if missing:
        problems.append(f"printed symbols not found: {sorted(missing)}")
    for index, result in enumerate(output["results"]):
        problems.extend(f"result {index}: {p}"
                        for p in check_search_result(result, row, cap))
    return problems
