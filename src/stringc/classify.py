"""Verification harness and exhaustive small-degree search.

verify_instance runs every checkable claim about one catalog instance and
returns a structured report; verify_catalog sweeps a whole degree.
exhaustive_search enumerates ordered involution tuples of a small ambient
group with lossless pruning (commuting property, independence, for index-2
targets the tuple's image in G/<g^2>, and, right to left along one column of
interval subgroups, the interval intersection condition and divisibility of
each interval's order into the target) and returns the string C-groups
found, one per class of tuples conjugate in Sym(n) or dual to each other.
Serial and pooled runs share one code path: the work items go through _map,
inline for one job.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field, replace

from .analysis import (
    NOT_IN_KERNEL,
    AnalysisError,
    all_swap_permutation,
    alpha_vector,
    block_action,
    block_lattice,
    block_path_order,
    classify_kernel,
    delta_vector,
    kernel_vector,
    lcr_decompose,
    table3_cell,
)
from .families import (
    catalog_instances,
    catalog_skips,
    descriptor,
    duality_partner,
)
from .perms import BlockSystem, PermGroup, Permutation, brute_force_elements
from .prgraph import (
    graph_to_sggi,
    involution_key,
    is_connected,
    orbit_count,
    sggi_to_graph,
)
from .sggi import (
    IPBudgetExceeded,
    Sggi,
    SubsetLattice,
    check_intersection_property,
    dual,
    is_independent,
    schlafli,
)


# ---------------------------------------------------------------------------
# Signatures.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Signature:
    """What a search prints about an sggi: degree, rank, group order,
    Schlafli symbol and the generators' cycle types."""

    degree: int
    rank: int
    order: int
    schlafli: tuple
    gen_cycle_types: tuple

    def key(self):
        return (
            self.degree,
            self.rank,
            self.order,
            self.schlafli,
            self.gen_cycle_types,
        )


def signature(s: Sggi) -> Signature:
    return Signature(
        degree=s.degree,
        rank=s.rank,
        order=PermGroup(list(s.gens), s.degree).order(),
        schlafli=tuple(schlafli(s)) if s.rank >= 2 else (),
        gen_cycle_types=tuple(sorted(g.cycle_type() for g in s.gens)),
    )


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class VerificationReport:
    instance: str
    params: dict
    schlafli: tuple = ()
    order: int = 0
    timing_ms: float = 0.0
    # Check name -> (status, key, value, key, value, ...), one flat tuple
    # per check in the order recorded, the evidence's items after the
    # status: a report costs a few small objects per check.
    _checks: dict = field(default_factory=dict, init=False, repr=False)

    def record(self, name, status, **evidence):
        self._checks[name] = sum(evidence.items(), (status,))

    @property
    def checks(self):
        """Check name -> {"status", "evidence"}, built afresh on each read,
        so editing it leaves the report as it was."""
        return {name: {"status": check[0],
                       "evidence": dict(zip(check[1::2], check[2::2]))}
                for name, check in self._checks.items()}

    @property
    def passed(self):
        """No check failed; a skipped check does not count against."""
        return all(check[0] != "fail" for check in self._checks.values())

    @property
    def status(self):
        """FAIL; UNDECIDED if nothing failed but the IP check was skipped;
        else PASS."""
        if not self.passed:
            return "FAIL"
        ip = self._checks.get("intersection_property", ("pass",))
        return "UNDECIDED" if ip[0] == "skip" else "PASS"

    def to_dict(self, no_timing=False):
        out = {
            "instance": self.instance,
            "params": self.params,
            "checks": self.checks,
            "schlafli": list(self.schlafli),
            "order": self.order,
            "status": self.status,
        }
        if not no_timing:
            out["timing_ms"] = round(self.timing_ms, 1)
        return out


def _expect(report, name, condition, **evidence):
    report.record(name, "pass" if condition else "fail", **evidence)


# ---------------------------------------------------------------------------
# Per-instance verification.
# ---------------------------------------------------------------------------

NAIVE_ORACLE_MAX_RANK = 7


def _column_system(degree):
    half = degree // 2
    return BlockSystem(degree, [(j, j + half) for j in range(1, half + 1)])


def _two_block_system(group):
    for system in group.all_block_systems():
        if system.block_count == 2:
            return system
    return None


def verify_instance(family_id, params) -> VerificationReport:
    """Run every checkable predicate for one instance.

    Parameters outside the family's domain raise FamilyDomainError.
    """
    started = time.perf_counter()
    desc = descriptor(family_id)
    params = dict(params)
    n = params["n"]
    build_params = {k: v for k, v in params.items() if k != "n"}
    desc.check_domain(n, build_params)
    report = VerificationReport(instance=family_id, params=params)

    try:
        graph = desc.instantiate(n, build_params)
        report.record("graph_valid", "pass", edges=len(graph.edges))
    except Exception as exc:  # structural failure
        report.record("graph_valid", "fail", error=str(exc))
        report.timing_ms = (time.perf_counter() - started) * 1000
        return report

    try:
        s = graph_to_sggi(graph)
        Sggi(s.gens)  # strict re-validation (distinctness included)
        report.record("sggi_valid", "pass", rank=s.rank, degree=s.degree)
    except Exception as exc:
        report.record("sggi_valid", "fail", error=str(exc))
        report.timing_ms = (time.perf_counter() - started) * 1000
        return report

    # The lattice extends its chains one generator at a time; the group's
    # chain is its chain of every generator.
    lattice = SubsetLattice(s.gens)
    full = (1 << s.rank) - 1
    group = PermGroup(list(s.gens), s.degree, chain=lattice.chain(full))
    order = group.order()
    symbol = schlafli(s)
    report.order = order
    report.schlafli = tuple(symbol)

    _expect(report, "rank", s.rank == desc.rank_for(n),
            rank=s.rank, expected=desc.rank_for(n))
    _expect(report, "round_trip", sggi_to_graph(s) == graph)
    _expect(report, "independent", is_independent(s, lattice=lattice))

    try:
        recursive = check_intersection_property(s, "recursive", lattice=lattice)
        report.record(
            "intersection_property",
            "pass" if recursive.passed else "fail",
            witness=_witness_str(recursive),
        )
    except IPBudgetExceeded as exc:
        recursive = None
        report.record("intersection_property", "skip", reason=str(exc))
    if s.rank <= NAIVE_ORACLE_MAX_RANK:
        try:
            naive = check_intersection_property(s, "naive", lattice=lattice)
            agree = recursive is None or naive.passed == recursive.passed
            report.record(
                "naive_oracle",
                "pass" if naive.passed and agree else "fail",
                naive=naive.passed,
                modes_agree=agree,
                witness=_witness_str(naive),
            )
        except IPBudgetExceeded as exc:
            report.record("naive_oracle", "skip", reason=str(exc))

    _expect(report, "transitive", group.is_transitive() == is_connected(graph)
            and group.is_transitive())

    expected = desc.expected
    if "blocks" in expected:
        _expect(report, "proper_subgroup", order < math.factorial(s.degree),
                order=order)
        systems = group.minimal_block_systems()
        _expect(report, "imprimitive", bool(systems),
                systems=[(b.block_count, b.block_size) for b in systems])

    if expected.get("order") == "2*(n/2)!":
        _expect(report, "order_expected", order == 2 * math.factorial(n // 2),
                order=order)
    elif expected.get("order") == "n!":
        _expect(report, "order_expected", order == math.factorial(n),
                order=order)

    if "schlafli" in expected:
        head = expected["schlafli"]
        _expect(report, "schlafli_expected",
                symbol[:len(head)] == head
                and all(p == 3 for p in symbol[len(head):]),
                schlafli=str(symbol))

    if expected.get("blocks") == "k2":
        _verify_k2(report, expected, s, group, systems, n, build_params,
                   lattice)
    elif expected.get("blocks") == "m2":
        _verify_m2(report, expected, s, group, lattice)

    partner = duality_partner(family_id, n)
    dd = sggi_to_graph(dual(dual(s))) == graph
    report.record("duality", "pass" if dd else "fail",
                  partner=partner if partner else "unlisted",
                  dual_is_involution=dd)

    report.timing_ms = (time.perf_counter() - started) * 1000
    return report


def _witness_str(result):
    if result.passed:
        return None
    j, k = result.witness
    return [sorted(j), sorted(k)]


def _verify_k2(report, expected, s, group, systems, n, build_params,
               lattice):
    m = n // 2
    columns = _column_system(n)
    _expect(
        report,
        "column_blocks",
        all(columns.is_invariant_under(g) for g in group.generators)
        and columns in systems,
    )

    blocks = block_lattice(s, columns)
    res = block_action(lattice, blocks, (1 << s.rank) - 1)
    kclass = classify_kernel(res, m)
    _expect(report, "kernel_class", kclass != "OTHER", kernel_class=kclass,
            kernel_order=res.kernel_order)

    wreath_order = (2**m) * res.image_order
    index = wreath_order // group.order()
    _expect(report, "wreath_index",
            wreath_order % group.order() == 0
            and index in (1, 2, 2 ** (m - 1), 2**m),
            index=index)
    if index == 2 ** (m - 1):
        _expect(report, "all_swap_member",
                all_swap_permutation(columns) in group)

    dec = lcr_decompose(s, blocks)
    expected_sizes = expected["lcr"](s.rank)
    _expect(report, "lcr", dec.sizes() == expected_sizes,
            sizes=dec.sizes(), expected=expected_sizes)
    _expect(report, "lcr_bounds", len(dec.C) <= 1 and len(dec.L) <= m - 1,
            C=len(dec.C), L=len(dec.L))

    if "kernel_g0" in expected:
        _verify_delta_calculus(report, expected, s, columns, m, build_params,
                               lattice, blocks)


def _verify_delta_calculus(report, expected, s, columns, m, build_params,
                           lattice, blocks):
    res0 = block_action(lattice, blocks, (1 << s.rank) - 2)  # all but rho_0
    kclass0 = classify_kernel(res0, m)
    expected0 = expected["kernel_g0"]
    _expect(report, "kernel_g0", kclass0 == expected0,
            kernel_class=kclass0, expected=expected0)

    ordered = block_path_order(s, columns)
    deltas = {i: delta_vector(s, i, ordered) for i in range(1, s.rank - 1)}
    alphas = {i: alpha_vector(s, i, ordered) for i in range(1, s.rank)}

    in_kernel = all(v is not NOT_IN_KERNEL for v in deltas.values())
    _expect(report, "deltas_block_fixing", in_kernel)
    if not in_kernel:
        return

    parity_ok = all(
        v.weight() % 2 == 0 or v.form == ("U", None) for v in deltas.values()
    )
    _expect(report, "deltas_even_or_allswap", parity_ok)

    table_ok = True
    mismatches = []
    for i in range(1, s.rank - 1):
        cell = table3_cell(s.rank, i, alphas[i].form, alphas[i + 1].form)
        if cell != deltas[i].form:
            table_ok = False
            mismatches.append(
                {"i": i, "alpha_i": alphas[i].name,
                 "alpha_next": alphas[i + 1].name,
                 "delta": deltas[i].name, "table": str(cell)}
            )
    _expect(report, "deltas_match_table", table_ok, mismatches=mismatches)

    nontrivial = sorted(i for i, v in deltas.items() if v.form != ("O", None))
    if "u_index" in expected:
        u_indices = [i for i, v in deltas.items() if v.form == ("U", None)]
        expected_u = expected["u_index"](s.rank, build_params)
        _expect(report, "unique_u_delta",
                nontrivial == u_indices and len(u_indices) == 1
                and u_indices[0] == expected_u,
                u_indices=u_indices, expected=expected_u)
    else:
        window = expected["delta_window"](s.rank, build_params)
        _expect(report, "delta_window", nontrivial == window,
                nontrivial=nontrivial, expected=window)
    rho0 = kernel_vector_of_rho0(s, ordered)
    _expect(report, "rho0_vector", rho0 == expected["rho0"],
            rho0=rho0, expected=expected["rho0"])


def kernel_vector_of_rho0(s, ordered):
    try:
        return kernel_vector(s.gens[0], ordered).name
    except AnalysisError:
        return NOT_IN_KERNEL


def _verify_m2(report, expected, s, group, lattice):
    two = _two_block_system(group)
    _expect(report, "two_block_system", two is not None)
    if two is None:
        return
    blocks = block_lattice(s, two)
    res = block_action(lattice, blocks, (1 << s.rank) - 1)
    _expect(report, "two_block_image", res.image_order == 2,
            image_order=res.image_order)
    dec = lcr_decompose(s, blocks)
    expected_sizes = expected["lcr"](s.rank)
    _expect(report, "lcr", dec.sizes() == expected_sizes,
            sizes=dec.sizes(), expected=expected_sizes)
    _expect(report, "lcr_bounds", len(dec.C) <= two.block_size - 1,
            C=len(dec.C))


# ---------------------------------------------------------------------------
# Catalog sweep.
# ---------------------------------------------------------------------------


def _workers(jobs, items):
    """jobs clamped to [1, min(cpu count, number of work items)]."""
    return max(1, min(jobs, os.cpu_count() or 1, items))


def _map(fn, work, jobs):
    """[fn(*item) for item in work], in a process pool when more than one
    worker is allowed.  The pool is imported only then, so a serial run
    never loads multiprocessing."""
    jobs = _workers(jobs, len(work))
    if jobs == 1:
        return [fn(*item) for item in work]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, *zip(*work)))


def verify_catalog(n, ids=None, jobs=1):
    """Verify every admissible instance on n points; returns reports."""
    instances = catalog_instances(n)
    if not instances:
        raise ValueError(f"no catalog family has an instance on {n} points")
    work = [(fid, params) for fid, params in instances
            if ids is None or fid in ids]
    return _map(verify_instance, work, jobs)


def reports_to_json(reports, no_timing=False):
    return json.dumps(
        [r.to_dict(no_timing=no_timing) for r in reports], indent=2
    ) + "\n"


# ---------------------------------------------------------------------------
# Exhaustive search.
# ---------------------------------------------------------------------------


@dataclass
class SearchOutcome:
    items: list  # (Sggi, Signature), one per class, deterministic order
    completed: bool
    elapsed_sec: float
    merged_duplicates: int = 0  # raw tuples less the number of classes

    def schlafli_set(self):
        return sorted({item[1].schlafli for item in self.items})


class _AmbientModel:
    """Index arithmetic for a small group: elements as 0..N-1 in sorted
    order, with the full multiplication table.

    Only left multiplication by the group's generators composes
    permutations (N·k products).  The rest of the table follows along a
    breadth-first spanning tree of the Cayley graph: for a tree edge
    b = s·p, b·x = s·(p·x), so row b of the table is row p mapped through
    left multiplication by s.

    A pickled model carries only the ambient's generators and degree, and
    is rebuilt where it is unpickled: a pickled table would come back with
    every entry above 256 as an int object of its own.
    """

    TABLE_LIMIT = 4096

    def __init__(self, group: PermGroup):
        order = group.order()
        if order > self.TABLE_LIMIT:
            raise ValueError(
                f"ambient of order {order} exceeds the search limit "
                f"{self.TABLE_LIMIT}"
            )
        self._ambient = (group.generators, group.degree)
        self.elements = sorted(brute_force_elements(group.generators,
                                                    group.degree))
        self.index = {g.images: i for i, g in enumerate(self.elements)}
        self.identity = self.index[tuple(range(group.degree))]
        self.order = len(self.elements)
        left_by = [[self.index[(s * g).images] for g in self.elements]
                   for s in group.generators]
        table = [None] * self.order
        table[self.identity] = list(range(self.order))
        tree = [self.identity]
        for p in tree:
            for by_s in left_by:
                b = by_s[p]
                if table[b] is None:
                    table[b] = list(map(by_s.__getitem__, table[p]))
                    tree.append(b)
        self._table = table

    def __reduce__(self):
        return _AmbientModel, (PermGroup(*self._ambient),)

    def mul(self, a, b):
        return self._table[a][b]

    def involution_indices(self):
        return [i for i, g in enumerate(self.elements) if g.is_involution()]

    def conjugations(self):
        """For each generator s of the ambient, the map x -> s^-1·x·s on
        element indices, read off the table: the generators' conjugations
        reach every conjugate of a tuple."""
        table = self._table
        moves = []
        for s in self._ambient[0]:
            by_s = self.index[s.images]
            inverse_row = table[self.index[s.inverse().images]]
            moves.append([table[y][by_s] for y in inverse_row])
        return moves


class _SubgroupLattice:
    """The subgroups of an _AmbientModel met by one search, each numbered
    the first time it is seen; number 0 is the trivial group.

    Per subgroup it keeps its element set, its order, one generating
    tuple, its joins with single elements (element -> number), the orders
    of its meets with other subgroups, and, once square_cosets has run, its
    image in G/Phi.  A join seen for the first time is built from H by
    whole left cosets of H: starting from H, for each new coset
    representative x and each generator s, s·x outside the set adds the
    coset (s·x)H in one step.  The set then stays a union of left cosets of
    H closed under left multiplication by every generator, which makes it
    the subgroup.
    """

    def __init__(self, model):
        self._table = model._table
        self._identity = model.identity
        trivial = frozenset((model.identity,))
        self.elements = [trivial]
        self.orders = [1]
        self._gens = [()]
        self._joins = [{}]
        self._meets = [{}]
        self._images = {}
        self._numbers = {trivial: 0}
        self._coset = None

    def join(self, h, g):
        """Number of <H, g>, for H numbered h and g an element index."""
        row = self._joins[h]
        k = row.get(g)
        if k is None:
            k = row[g] = self._close(h, g)
        return k

    def _close(self, h, g):
        base = self.elements[h]
        if g in base:
            return h
        table = self._table
        gens = self._gens[h] + (g,)
        by = [table[s] for s in gens]
        members = set(base)
        reps = [self._identity]
        for x in reps:
            for row in by:
                y = row[x]
                if y not in members:
                    members.update(map(table[y].__getitem__, base))
                    reps.append(y)
        members = frozenset(members)
        k = self._numbers.get(members)
        if k is None:
            k = self._numbers[members] = len(self.elements)
            self.elements.append(members)
            self.orders.append(len(members))
            self._gens.append(gens)
            self._joins.append({})
            self._meets.append({})
        return k

    def meet_order(self, a, b):
        """|A meet B| for subgroups numbered a and b."""
        memo = self._meets[a]
        m = memo.get(b)
        if m is None:
            m = memo[b] = len(self.elements[a] & self.elements[b])
        return m

    def square_cosets(self):
        """Coset number of every element modulo Phi = <g^2 : g in G>, and
        the number of cosets.

        Every index-2 subgroup contains Phi, and G/Phi is elementary
        abelian, so a set of elements lies in a common index-2 subgroup
        exactly when its image in G/Phi is a proper subgroup.
        """
        table = self._table
        phi = 0
        for i, row in enumerate(table):
            phi = self.join(phi, row[i])
        coset = [None] * len(table)
        q = 0
        for i, row in enumerate(table):
            if coset[i] is None:
                for c in self.elements[phi]:
                    coset[row[c]] = q
                q += 1
        self._coset = coset
        return coset, q

    def image(self, h):
        """The cosets of Phi that the subgroup numbered h meets."""
        image = self._images.get(h)
        if image is None:
            image = self._images[h] = frozenset(
                map(self._coset.__getitem__, self.elements[h]))
        return image


def exhaustive_search(
    ambient: PermGroup,
    min_rank: int,
    max_rank: int,
    subgroup_order=None,
    budget_sec=None,
    jobs=1,
    transitive_only=False,
) -> SearchOutcome:
    """Enumerate string C-groups generated by ordered involution tuples.

    Accepted tuples generate the whole ambient (or a subgroup of exactly
    subgroup_order when given), satisfy the commuting property, and pass the
    incremental interval intersection-property criterion (lossless pruning;
    every interval parabolic of a string C-group is itself a string
    C-group).  Tuples conjugate in Sym(n), directly or after reversal, are
    merged by the canonical forms of their images; output order is
    deterministic and independent of the worker count.
    transitive_only drops intransitive subgroups (only possible when
    subgroup_order is given).

    The raw tuples stay element-index combos of the ambient's model, and
    _dedup keys them once per orbit of the ambient G acting by conjugation:
    conjugating by G relabels the points, which changes no key, so the key
    of one tuple is the key of its whole orbit.  The representative of each
    class is still the first raw tuple of the class in sorted order (the
    elements are numbered in sorted order, so the combos sort as their
    images do), and the output is the same as with one key per tuple.
    """
    if min_rank < 2:
        raise ValueError("min_rank must be at least 2")
    if max_rank < min_rank:
        raise ValueError(f"max_rank {max_rank} is below min_rank {min_rank}")
    target = ambient.order() if subgroup_order is None else subgroup_order
    if target < 1:
        raise ValueError("subgroup_order must be at least 1")
    if ambient.order() % target:
        raise ValueError("subgroup_order must divide the ambient order")
    if budget_sec is not None and not budget_sec > 0:
        raise ValueError(f"budget_sec must be positive, got {budget_sec}")
    started = time.perf_counter()
    model = _AmbientModel(ambient)
    npos = len(model.involution_indices())
    jobs = _workers(jobs, npos)
    work = [
        (model, min_rank, max_rank, target, budget_sec, range(i, npos, jobs))
        for i in range(jobs)
    ]
    raw = []
    completed = True
    for found, done in _map(_raw_search, work, jobs):
        raw += found
        completed = completed and done
    items, merged = _dedup(raw, model, transitive_only)
    return SearchOutcome(items, completed, time.perf_counter() - started, merged)


def _raw_search(model, min_rank, max_rank, target, budget_sec, first_slice):
    """DFS over element indices; returns accepted tuples (element indices).

    A node holds one column of interval subgroups, column[a] = <g_a .. g_last>
    as a number in a _SubgroupLattice that lives for this call, so column[0]
    is the subgroup the tuple generates.  A candidate g_d is tested right to
    left over a = d-1 .. 0: first the interval condition
    |<a..d-1> meet <a+1..d>| = |<a+1..d-1>| on [a, d], then the join
    <a..d> = <column[a], g_d>, dropped unless its order divides the target.
    Both depend only on lattice numbers and g_d, so each join and meet is
    computed once per search and looked up after that.  By the recursion
    of McMullen and Schulte, Abstract Regular Polytopes, Prop. 2E16, a tuple
    has the intersection property exactly when consecutive generators differ
    and every interval of length at least 3 meets this condition.  Intervals
    inside [0, d-1] were checked at the ancestors, and [d-1, d] holds because
    g_d is outside <0..d-1> (the dependence test).  <a..d> lies in <0..d>,
    so by Lagrange the divisibility test drops no candidate that the target
    test on <0..d> would keep; a failing candidate only stops sooner.
    first_slice holds the involution positions allowed at depth 0, so that
    the search splits into independent work items.
    """
    invs = model.involution_indices()
    npos = len(invs)
    commute = []
    for i in range(npos):
        mask = 0
        for j in range(npos):
            if model.mul(invs[i], invs[j]) == model.mul(invs[j], invs[i]):
                mask |= 1 << j
        commute.append(mask)
    first_mask = sum(1 << p for p in first_slice)

    lattice = _SubgroupLattice(model)
    elements, orders = lattice.elements, lattice.orders
    join, meet_order = lattice.join, lattice.meet_order
    cyclic = [join(0, g) for g in invs]
    coset = None
    if target * 2 == model.order:
        coset, q = lattice.square_cosets()

    deadline = None if budget_sec is None else time.perf_counter() + budget_sec
    found = []
    completed = [True]

    def dfs(tuple_pos, column):
        depth = len(tuple_pos)
        if deadline is not None and time.perf_counter() > deadline:
            completed[0] = False
            return
        generated = column[0] if depth else 0
        if depth >= min_rank and orders[generated] == target:
            if invs[tuple_pos[0]] <= invs[tuple_pos[-1]]:
                # The reversed tuple generates the dual sggi; duality
                # deduplication makes exploring both redundant.
                found.append([invs[p] for p in tuple_pos])
        if depth == max_rank:
            return
        allowed = first_mask if depth == 0 else (1 << npos) - 1
        for p in tuple_pos[:-1]:
            allowed &= commute[p]
        hyperplane = None
        if coset is not None:
            image = lattice.image(generated)
            if 2 * len(image) == q:
                # A generator outside this hyperplane of G/Phi would leave
                # no index-2 subgroup containing the whole tuple.
                hyperplane = image
        members = elements[generated]
        remaining_for_min = max(0, min_rank - depth - 1)
        mask = allowed
        while mask:
            low = mask & -mask
            pos = low.bit_length() - 1
            mask ^= low
            gen = invs[pos]
            if gen in members:
                continue  # dependent candidates can never pass the IP
            if hyperplane is not None and coset[gen] not in hyperplane:
                continue
            new = column + [cyclic[pos]]
            for a in range(depth - 1, -1, -1):
                # new[a + 1] is <a+1..depth>: <gen>, or the last join.
                if target % orders[new[a + 1]]:
                    break
                if (a < depth - 1 and meet_order(column[a], new[a + 1])
                        != orders[column[a + 1]]):
                    break
                new[a] = join(column[a], gen)
            else:
                order = orders[new[0]]
                if target % order or order * (2**remaining_for_min) > target:
                    continue
                tuple_pos.append(pos)
                dfs(tuple_pos, new)
                tuple_pos.pop()

    dfs([], [])
    # dfs refers to itself through its closure cell; dropping that reference
    # frees the lattice and the results now instead of at a cyclic collection.
    del dfs
    return found, completed[0]


def _dedup(raw_tuples, model=None, transitive_only=False):
    """Deduplication of raw tuples up to conjugacy in Sym(n) and duality.

    Without model the raw tuples are generator-image tuples, each keyed by
    its own involution_key; brute_force_search uses this path, so the
    oracle does not rest on the orbit walk.  With model they are
    element-index combos of model, keyed by _orbit_keys once per orbit of
    the ambient acting by conjugation, and transitive_only drops the tuples
    whose group has more than one orbit on the points.

    A tuple's key is its involution_key: the smaller involution_form of its
    images and of the reversed images (its dual's), so two tuples share a
    key exactly when they are conjugate, directly or after reversal.  For a
    transitive tuple the key is one least numbering table over every start
    vertex in both label orders, grown row by row in one pass (see the
    canonical-form notes in prgraph).  Only the first tuple of each class
    in sorted order becomes an Sggi, oriented so that its Schlafli symbol
    is no larger than the reversed one.  Both orientations generate the
    same group, so the dual's signature is this one with the Schlafli
    symbol reversed.  Classes are listed by signature, then by their
    printed generators.

    The orbit keys are exact and keep the same representatives.  The
    ambient G lies in Sym(n), so conjugating a tuple by g in G relabels the
    points: its involution_form is unchanged, and so is its key, the
    minimum over both orientations, under reversal as well.  Every tuple
    that an orbit walk marks therefore has the key of the tuple the walk
    started from.  The walks start in sorted order, each from a tuple not
    yet marked, and every earlier tuple is keyed by then, so a walk marks
    only tuples after its start.  A marked tuple thus shares its key with
    an earlier tuple, and the first tuple of each key class in sorted order
    is never marked: it is keyed by its own images, as on the reference
    path, and stays the representative, so merged_duplicates is unchanged
    too.  A class that splits into several orbits of G costs one key per
    orbit, and its orbits are merged by their equal keys.
    """
    raw_tuples = sorted(map(tuple, raw_tuples))
    if model is None:
        keys = map(involution_key, raw_tuples)
        generator = Permutation
    else:
        keys = map(_orbit_keys(model, raw_tuples, transitive_only).get,
                   raw_tuples)
        generator = model.elements.__getitem__
    classes = {}
    kept = 0
    for raw, key in zip(raw_tuples, keys):
        if key is not None:
            kept += 1
            classes.setdefault(key, raw)
    items = []
    for raw in classes.values():
        s = Sggi(list(map(generator, raw)))
        sig = signature(s)
        if sig.schlafli[::-1] < sig.schlafli:
            s = dual(s)
            sig = replace(sig, schlafli=sig.schlafli[::-1])
        items.append((sig.key(), [str(g) for g in s.gens], s, sig))
    items.sort(key=lambda item: item[:2])
    return [(s, sig) for _, _, s, sig in items], kept - len(classes)


def _orbit_keys(model, combos, transitive_only=False):
    """{combo: its involution_key} for the sorted element-index combos of
    model, with one key computed per orbit of the ambient acting by
    conjugation; with transitive_only, None for the combos of intransitive
    orbits (the number of orbits on the points is a conjugacy invariant).

    At the first combo not yet keyed, the key is computed from its images,
    and the orbit is walked from it: each generator's conjugation applied
    position by position, in both orientations.  Only combos in the list
    are marked, and the walk goes on only from them, so nothing is kept per
    conjugate outside the list.  The search keeps one orientation of each
    accepted tuple, and the accepted tuples are closed under conjugation,
    so a complete search's list meets every tuple of an orbit in one
    orientation or the other and the walk reaches all of them.
    """
    moves = model.conjugations()
    elements = model.elements
    unkeyed = set(combos)
    keys = {}
    for combo in combos:
        if combo not in unkeyed:
            continue
        images = [elements[e].images for e in combo]
        key = (involution_key(images)
               if not transitive_only or orbit_count(images) == 1 else None)
        unkeyed.discard(combo)
        keys[combo] = key
        orbit = [combo]
        for c in orbit:
            for move in moves:
                conjugate = tuple(map(move.__getitem__, c))
                for d in (conjugate, conjugate[::-1]):
                    if d in unkeyed:
                        unkeyed.discard(d)
                        keys[d] = key
                        orbit.append(d)
    return keys


def brute_force_search(ambient: PermGroup, min_rank, max_rank,
                       subgroup_order=None):
    """Unpruned oracle: all involution tuples, naive IP check at the end.

    Only usable for toy ambients; certifies that the pruned search is
    lossless (same deduplicated output).  With subgroup_order, keeps the
    tuples generating a subgroup of that order instead of the ambient.
    """
    from itertools import product

    target = subgroup_order or ambient.order()
    model = _AmbientModel(ambient)
    invs = model.involution_indices()
    raw = []
    for rank in range(min_rank, max_rank + 1):
        for combo in product(invs, repeat=rank):
            gens = [model.elements[i] for i in combo]
            try:
                s = Sggi(gens)
            except Exception:
                continue
            if PermGroup(gens, ambient.degree).order() != target:
                continue
            if not check_intersection_property(s, "naive").passed:
                continue
            raw.append([g.images for g in gens])
    items, merged = _dedup(raw)
    return SearchOutcome(items, True, 0.0, merged)


__all__ = [
    "Signature",
    "signature",
    "VerificationReport",
    "verify_instance",
    "verify_catalog",
    "catalog_instances",
    "catalog_skips",
    "reports_to_json",
    "SearchOutcome",
    "exhaustive_search",
    "brute_force_search",
]
