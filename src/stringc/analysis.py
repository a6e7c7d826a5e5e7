"""Block-action analysis for imprimitive sggis.

Covers the structural toolkit used by the verification harness: the orders
of the action on a block system and of its kernel, the L/C/R decomposition of
the generator list, naming kernels inside (C2)^m, and the delta calculus for
size-2 blocks (delta_i = (rho_i rho_{i+1})^3, recorded as a 0/1 vector over
the path-ordered blocks together with the table of admissible named forms).
The generators' images on a block system are computed once, into a
SubsetLattice (block_lattice), as the group's subgroups are in the group's.
"""

from __future__ import annotations

from dataclasses import dataclass

from .perms import BlockSystem, PermError, Permutation
from .sggi import IndexSet, Sggi, SubsetLattice


class AnalysisError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Block action and kernel.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockActionResult:
    image_order: int
    kernel_order: int


def block_lattice(s: Sggi, system: BlockSystem) -> SubsetLattice:
    """The SubsetLattice of the generators' images on the block indices;
    a mask picks the same generators in it as in the group's lattice."""
    if s.degree != system.degree:
        raise AnalysisError("sggi and block system degrees differ")
    try:
        return SubsetLattice([system.action_on_blocks(g) for g in s.gens])
    except PermError as exc:
        raise AnalysisError(f"block system not invariant: {exc}") from exc


def block_action(lattice, blocks, mask) -> BlockActionResult:
    """Orders of the image on block indices and of the kernel (the
    block-fixing subgroup) of <mask>, read off the group's lattice and its
    block_lattice; the kernel order is |<mask>| / |image| (first
    isomorphism theorem)."""
    image_order = blocks.order(mask)
    return BlockActionResult(image_order, lattice.order(mask) // image_order)


def classify_kernel(result: BlockActionResult, m: int) -> str:
    """Name the kernel of the action on m size-2 blocks by its order.

    Every caller passes the size-2 column system.  A kernel element fixes
    each block setwise, so it swaps or fixes the two points of each block:
    the kernel lies in (C2)^m and its order names it.
    """
    order = result.kernel_order
    if order == 1:
        return "TRIVIAL"
    if order == 2:
        return "C2"
    if order == 2 ** (m - 1):
        return "C2^(m-1)"
    if order == 2**m:
        return "C2^m"
    return "OTHER"


def all_swap_permutation(system: BlockSystem) -> Permutation:
    """The involution swapping the two points of every size-2 block."""
    if system.block_size != 2:
        raise AnalysisError("all-swap needs blocks of size two")
    return Permutation.from_cycles([list(b) for b in system.blocks], system.degree)


# ---------------------------------------------------------------------------
# L/C/R decomposition.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LCRDecomposition:
    L: IndexSet
    C: IndexSet
    R: IndexSet

    def sizes(self):
        return (len(self.L), len(self.C), len(self.R))


def lcr_decompose(s: Sggi, blocks: SubsetLattice) -> LCRDecomposition:
    """Deterministic L/C/R split of the generators, given their block_lattice.

    L: greedy minimal independent set of block-action images (scan 0..r-1,
    keep when the image falls outside the span of earlier keepers, then
    prune right-to-left); C: generators commuting with every kept one;
    R: the rest.  Each span the scan tests extends the one before it.

    The prune is skipped when every kept image is a single transposition,
    as it would remove nothing.  Transpositions generate the product of the
    symmetric groups on the components of their graph (the edges being the
    transpositions), so a transposition lies in their span exactly when its
    ends lie in one component.  The scan keeps an edge only when its ends
    lie in different components of the edges kept before it, so the kept
    edges form a forest; removing an edge from a forest separates its ends,
    so no kept image lies in the span of the others.
    """
    images = blocks.generators
    kept = 0
    for idx in range(s.rank):
        if not blocks.chain(kept).contains(images[idx]):
            kept |= 1 << idx
    if not all(images[i].cycle_type() == (2,) for i in range(s.rank)
               if kept >> i & 1):
        for idx in reversed(range(s.rank)):
            others = kept & ~(1 << idx)
            if others != kept and blocks.chain(others).contains(images[idx]):
                kept = others
    L = IndexSet(i for i in range(s.rank) if kept >> i & 1)
    C = IndexSet(
        idx
        for idx in range(s.rank)
        if idx not in L
        and all(s.gens[idx] * s.gens[i] == s.gens[i] * s.gens[idx] for i in L)
    )
    R = IndexSet(set(range(s.rank)) - L - C)
    return LCRDecomposition(L, C, R)


# ---------------------------------------------------------------------------
# Kernel vectors and the delta calculus (size-2 blocks).
# ---------------------------------------------------------------------------

NOT_IN_KERNEL = "NOT_IN_KERNEL"


@dataclass(frozen=True)
class KernelVector:
    """0/1 pattern of a block-fixing element over the path-ordered blocks.

    form is one of ("O",None), ("U",None), ("L",k), ("R",k), ("V",k),
    ("T",k) or ("OTHER",None); L/R/V/T carry the prefix length k.
    """

    bits: tuple
    form: tuple

    @property
    def name(self):
        kind, k = self.form
        return kind if k is None else f"{kind}{k}"

    def weight(self):
        return sum(self.bits)

    def __str__(self):
        return "(" + "".join(map(str, self.bits)) + f")={self.name}"


def _classify_bits(bits):
    m = len(bits)
    ones = sum(bits)
    if ones == 0:
        return ("O", None)
    if ones == m:
        return ("U", None)
    # leading block of ones then zeros: L_k
    k = 0
    while k < m and bits[k] == 1:
        k += 1
    if all(b == 0 for b in bits[k:]):
        return ("L", k)
    zeros = 0
    while zeros < m and bits[zeros] == 0:
        zeros += 1
    if all(b == 1 for b in bits[zeros:]):
        return ("R", zeros)
    if k >= 1:
        gap = 0
        j = k
        while j < m and bits[j] == 0:
            gap += 1
            j += 1
        if all(b == 1 for b in bits[j:]) and j < m:
            if gap == 2:
                return ("V", k)
            if gap == 3:
                return ("T", k)
    return ("OTHER", None)


def kernel_vector(perm: Permutation, ordered_blocks) -> KernelVector:
    """Vector of a permutation that fixes every (size-2) block setwise."""
    bits = []
    for a, b in ordered_blocks:
        if perm.apply(a) == b and perm.apply(b) == a:
            bits.append(1)
        elif perm.apply(a) == a and perm.apply(b) == b:
            bits.append(0)
        else:
            raise AnalysisError("permutation does not fix the blocks")
    bits = tuple(bits)
    return KernelVector(bits, _classify_bits(bits))


def block_path_order(s: Sggi, system: BlockSystem):
    """Blocks ordered along the block-action path.

    The blocks must have size two, every generator with nontrivial block
    image must induce a transposition, and the union of those edges must be
    a path.  The first block is the degree-1 endpoint whose incident edge
    label is smallest.
    """
    if system.block_size != 2:
        raise AnalysisError("the block path needs blocks of size two")
    m = system.block_count
    adj = {i: [] for i in range(m)}
    for lbl, g in enumerate(s.gens):
        cycles = system.action_on_blocks(g).cycles()
        if not cycles:
            continue
        if len(cycles) != 1 or len(cycles[0]) != 2:
            raise AnalysisError(
                f"generator {lbl} does not act as a block transposition"
            )
        a, b = cycles[0][0] - 1, cycles[0][1] - 1
        adj[a].append((lbl, b))
        adj[b].append((lbl, a))
    degrees = {v: len(e) for v, e in adj.items()}
    endpoints = [v for v, d in degrees.items() if d == 1]
    if sorted(degrees.values())[-1] > 2 or len(endpoints) != 2:
        raise AnalysisError("block action is not a path")
    start = min(endpoints, key=lambda v: (min(lbl for lbl, _ in adj[v]), v))
    order = [start]
    prev = None
    while len(order) < m:
        nxt = [w for _, w in adj[order[-1]] if w != prev]
        if not nxt:
            raise AnalysisError("block action path is disconnected")
        prev = order[-1]
        order.append(nxt[0])
    return [system.blocks[i] for i in order]


def delta_vector(s: Sggi, i: int, ordered):
    """delta_i = (rho_i rho_{i+1})^3 on the path-ordered blocks, or
    NOT_IN_KERNEL."""
    if not 1 <= i <= s.rank - 2:
        raise AnalysisError(f"delta index {i} outside 1..{s.rank - 2}")
    delta = (s.gens[i] * s.gens[i + 1]) ** 3
    try:
        return kernel_vector(delta, ordered)
    except AnalysisError:
        return NOT_IN_KERNEL


def alpha_vector(s: Sggi, i: int, ordered):
    """Vector of alpha_i in rho_i = alpha_i beta_i, with beta_i the
    row-paired swap of the path-adjacent blocks i, i+1 (1-based).

    ordered comes from block_path_order, which checked that every generator
    moving a block swaps two blocks and fixes the rest, so g_i swaps blocks
    i and i+1 exactly when it maps the left one onto the right one.
    """
    if not 1 <= i <= s.rank - 1:
        raise AnalysisError(f"alpha index {i} outside 1..{s.rank - 1}")
    left, right = ordered[i - 1], ordered[i]
    if tuple(sorted(map(s.gens[i].apply, left))) != right:
        raise AnalysisError(
            f"generator {i} does not swap the path-adjacent blocks {i},{i + 1}"
        )
    beta = Permutation.from_cycles(
        [[left[0], right[0]], [left[1], right[1]]], s.degree
    )
    return kernel_vector(s.gens[i] * beta, ordered)


# ---------------------------------------------------------------------------
# Possibilities for delta_i given (alpha_i, alpha_{i+1}).
# ---------------------------------------------------------------------------

ODD = "odd"


def table3_cell(r: int, i: int, row_form, col_form):
    """Expected named form of delta_i (or ODD), or None if the pair is not a
    row/column of the table for this index."""
    table = _table3(r, i)
    return table.get((row_form, col_form))


def _table3(r, i):
    O = ("O", None)
    U = ("U", None)

    def L(k):
        return ("L", k)

    def R(k):
        return ("R", k)

    def V(k):
        return ("V", k)

    def T(k):
        return ("T", k)

    if i == 1:
        return {
            (O, O): O,
            (O, L(1)): ODD,
            (O, R(3)): R(3),
            (O, V(1)): U,
            (R(2), O): U,
            (R(2), L(1)): R(3),
            (R(2), R(3)): ODD,
            (R(2), V(1)): O,
        }
    if i == r - 2:
        return {
            (O, O): O,
            (O, L(r - 2)): U,
            (L(r - 3), O): L(r - 3),
            (L(r - 3), L(r - 2)): ODD,
            (R(r - 1), O): ODD,
            (R(r - 1), L(r - 2)): L(r - 3),
            (V(r - 3), O): U,
            (V(r - 3), L(r - 2)): O,
        }
    return {
        (O, O): O,
        (O, L(i)): L(i + 2),
        (O, R(i + 2)): R(i + 2),
        (O, V(i)): U,
        (L(i - 1), O): L(i - 1),
        (L(i - 1), L(i)): ODD,
        (L(i - 1), R(i + 2)): T(i - 1),
        (L(i - 1), V(i)): R(i - 1),
        (R(i + 1), O): R(i - 1),
        (R(i + 1), L(i)): T(i - 1),
        (R(i + 1), R(i + 2)): ODD,
        (R(i + 1), V(i)): L(i - 1),
        (V(i - 1), O): U,
        (V(i - 1), L(i)): R(i + 2),
        (V(i - 1), R(i + 2)): L(i + 2),
        (V(i - 1), V(i)): O,
    }


__all__ = [
    "AnalysisError",
    "BlockActionResult",
    "block_lattice",
    "block_action",
    "classify_kernel",
    "all_swap_permutation",
    "LCRDecomposition",
    "lcr_decompose",
    "KernelVector",
    "kernel_vector",
    "block_path_order",
    "delta_vector",
    "alpha_vector",
    "NOT_IN_KERNEL",
    "ODD",
    "table3_cell",
]
