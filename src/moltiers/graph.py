"""Graph algorithms over MolecularGraph.

Every analysis reads the graph's arrays (adjacency, bond endpoints and
orders, heavy degrees, element sites, valence sums and marks), which the
parser builds once, in its loop, however many descriptors they feed.

The ring *count* is always the cyclomatic number, bonds - atoms +
components, which the graph holds.  A molecule whose count is 0 has no cycle,
so ``ring_info`` returns an empty result for it without any search: every
cycle of a parsed graph holds a ring-closure bond, so that is each molecule
written without one.

Ring perception is otherwise block-based.  One iterative lowlink DFS splits
the bonds into biconnected blocks; single-bond blocks are bridges, every
other bond is a ring bond.  A block with as many bonds as atoms is a simple
cycle, walked directly from its lowest-index bond (or dropped when it has
more than MAX_RING_SIZE atoms).  Only fused or bridged blocks run the capped
shortest-cycle BFS, once per bond and over the block's own bonds: every
simple path between two atoms of a block stays inside it, so the search
finds the same cycle it would over the whole graph.  Rings are reported in
the order of the bond that produced them, deduplicated by atom set, which
covers drug-like ring systems without full SSSR machinery.

Aromaticity perception promotes Kekulé-written 6-rings of C/N atoms with
alternating single and double bonds.  Such a ring holds three double bonds
between C/N atoms, so a molecule with fewer, such as one written with
aromatic atoms, is returned unchanged before any ring search.  A promoted
molecule is a new graph with new bond orders, aromatic flags and valence
sums, which shares every other array with the input.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .errors import EmptyMolecule
from .smiles import (
    AROMATIC,
    DOUBLE,
    MolecularGraph,
    SINGLE,
    molecular_weight,
)

MAX_RING_SIZE = 8

# the elements of a ring that aromaticity perception promotes
_CN = frozenset(("C", "N"))


class RingInfo(NamedTuple):
    ring_atoms: frozenset[int]
    ring_bonds: frozenset[int]
    rings: list[tuple[int, ...]]  # ordered small cycles, deduplicated
    n_ring: int  # cyclomatic number


class ScaffoldResult(NamedTuple):
    scaffold_atoms: frozenset[int]
    n_scaffold: int
    is_empty: bool


class StructuralCounts(NamedTuple):
    n_ha: int
    n_het: int
    n_ring: int
    n_sc: int
    mw: float


def _blocks(adj: list[list[tuple[int, int]]]) -> list[list[int]]:
    """Biconnected blocks of more than one bond, as bond-index lists
    (iterative lowlink DFS that keeps the bonds it has seen on a stack and
    cuts a block off at each articulation)."""
    n = len(adj)
    disc = [-1] * n
    low = [0] * n
    edges: list[int] = []
    blocks: list[list[int]] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        # atom, bond it was entered by, edge-stack height below that bond,
        # remaining neighbours
        stack = [(root, -1, 0, iter(adj[root]))]
        while stack:
            a, in_bond, mark, rest = stack[-1]
            for nb, bi in rest:
                if bi == in_bond:
                    continue
                d = disc[nb]
                if d == -1:
                    disc[nb] = low[nb] = timer
                    timer += 1
                    stack.append((nb, bi, len(edges), iter(adj[nb])))
                    edges.append(bi)
                    break
                if d < disc[a]:  # back edge to an ancestor
                    edges.append(bi)
                    if d < low[a]:
                        low[a] = d
            else:
                stack.pop()
                if not stack:
                    continue
                parent = stack[-1][0]
                if low[a] < low[parent]:
                    low[parent] = low[a]
                if low[a] >= disc[parent]:
                    if len(edges) - mark > 1:
                        blocks.append(edges[mark:])
                    del edges[mark:]
    return blocks


def _walk_cycle(ends: list[tuple[int, int]], adj, block_of: list[int],
                bond_index: int) -> tuple[int, ...]:
    """The cycle of a simple-cycle block, from the bond's first atom around
    to its second: what the shortest-cycle search through it returns."""
    block = block_of[bond_index]
    a, end = ends[bond_index]
    came = bond_index
    cycle = [a]
    while a != end:
        for nb, bi in adj[a]:
            if bi != came and block_of[bi] == block:
                cycle.append(nb)
                a, came = nb, bi
                break
    return tuple(cycle)


def _shortest_cycle_through(
    ends: list[tuple[int, int]],
    adj: list[list[tuple[int, int]]],
    block_of: list[int],
    bond_index: int,
    max_size: int,
) -> tuple[int, ...] | None:
    """Smallest cycle containing the bond, searched within the bond's block,
    or None if longer than max_size."""
    block = block_of[bond_index]
    u, v = ends[bond_index]
    prev: dict[int, int] = {u: -1}
    queue = deque([(u, 0)])
    limit = max_size - 1
    while queue:
        a, depth = queue.popleft()
        if depth >= limit:
            continue
        for nb, bi in adj[a]:
            if bi == bond_index or block_of[bi] != block or nb in prev:
                continue
            prev[nb] = a
            if nb == v:
                path = [v]
                while path[-1] != u:
                    path.append(prev[path[-1]])
                return tuple(reversed(path))
            queue.append((nb, depth + 1))
    return None


def ring_info(graph: MolecularGraph) -> RingInfo:
    """Ring bonds, ring atoms and small rings; memoised on the graph.
    A molecule without a cycle gets the empty result with no search."""
    if graph.rings is None:
        graph.rings = (_perceive_rings(graph) if graph.n_ring
                       else RingInfo(frozenset(), frozenset(), [], 0))
    return graph.rings


def _perceive_rings(graph: MolecularGraph) -> RingInfo:
    adj = graph.adj
    ends = graph.ends
    blocks = _blocks(adj)
    block_of = [-1] * len(ends)
    ring_bonds: list[int] = []
    ring_atoms: set[int] = set()
    found: list[tuple[int, tuple[int, ...]]] = []  # (producing bond, ring)
    for k, block in enumerate(blocks):
        atoms: set[int] = set()
        for bi in block:
            block_of[bi] = k
            a, b = ends[bi]
            atoms.add(a)
            atoms.add(b)
        ring_bonds.extend(block)
        ring_atoms |= atoms
        block.sort()
        if len(block) == len(atoms):
            if len(atoms) <= MAX_RING_SIZE:
                found.append((block[0], _walk_cycle(ends, adj, block_of, block[0])))
            continue
        seen: set[frozenset[int]] = set()
        for bi in block:
            cycle = _shortest_cycle_through(ends, adj, block_of, bi, MAX_RING_SIZE)
            if cycle is None:
                continue
            key = frozenset(cycle)
            if key not in seen:
                seen.add(key)
                found.append((bi, cycle))
    found.sort(key=lambda item: item[0])
    return RingInfo(frozenset(ring_atoms), frozenset(ring_bonds),
                    [cycle for _, cycle in found], graph.n_ring)


def cycle_bonds(adj: list[list[tuple[int, int]]],
                cycle: tuple[int, ...]) -> list[int]:
    """Bond indices around a ring; bond k joins cycle[k] and cycle[k + 1]."""
    out = []
    for k, a in enumerate(cycle):
        b = cycle[k + 1 - len(cycle)]
        for nb, bi in adj[a]:
            if nb == b:
                out.append(bi)
                break
    return out


def perceive_aromaticity(
    graph: MolecularGraph, rings: RingInfo | None = None
) -> MolecularGraph:
    """Flag 6-membered C/N rings with alternating single/double bonds.

    Atoms and bonds already aromatic are left untouched; the operation is
    idempotent and never removes a flag.  Returns the input object when no
    ring qualifies.  Such a ring holds three double bonds between C/N atoms,
    so a molecule with fewer is returned at once, without running
    ``ring_info``.  A new graph shares the input's topology and ring
    perception, since only bond orders, aromatic flags and the valence sums
    they give change.
    """
    elements = graph.elements
    orders = graph.orders
    ends = graph.ends
    if orders.count(DOUBLE) < 3 or sum(
        1 for (a, b), order in zip(ends, orders)
        if order == DOUBLE and elements[a] in _CN and elements[b] in _CN
    ) < 3:
        return graph
    if rings is None:
        rings = ring_info(graph)
    flip_atoms: set[int] = set()
    flip_bonds: set[int] = set()
    for cycle in rings.rings:
        if len(cycle) != 6:
            continue
        if any(elements[a] not in _CN for a in cycle):
            continue
        bond_ids = cycle_bonds(graph.adj, cycle)
        ring_orders = [orders[bi] for bi in bond_ids]
        if any(order not in (SINGLE, DOUBLE) for order in ring_orders):
            continue
        if all(ring_orders[k] != ring_orders[k - 1] for k in range(6)):
            flip_atoms.update(cycle)
            flip_bonds.update(bond_ids)
    if not flip_atoms:
        return graph
    # a flipped bond is single or double; as aromatic it counts one
    new_orders = list(orders)
    valence = list(graph.valence)
    for bi in flip_bonds:
        if orders[bi] == DOUBLE:
            a, b = ends[bi]
            valence[a] -= 1
            valence[b] -= 1
        new_orders[bi] = AROMATIC
    aromatic = list(graph.aromatic)
    for a in flip_atoms:
        aromatic[a] = True
    return graph.with_flags(new_orders, aromatic, valence)


def murcko_scaffold(
    graph: MolecularGraph, rings: RingInfo | None = None
) -> ScaffoldResult:
    """Ring systems plus their linkers, with exocyclic double-bond partners.

    Terminal side chains are pruned to a fixpoint; the result is independent
    of pruning order.  Atoms double-bonded to a kept ring/linker atom are
    retained, which keeps quinone and benzophenone-style carbonyls intact.
    """
    if rings is None:
        rings = ring_info(graph)
    ring_atoms = rings.ring_atoms
    if not ring_atoms:
        return ScaffoldResult(frozenset(), 0, True)
    adj = graph.adj
    elements = graph.elements
    deg = list(graph.degree)
    # hydrogens count as removed from the start
    removed = [el == "H" for el in elements]
    queue = deque(
        i for i in range(len(elements))
        if not removed[i] and deg[i] <= 1 and i not in ring_atoms
    )
    while queue:
        a = queue.popleft()
        if removed[a]:
            continue
        removed[a] = True
        for nb, _ in adj[a]:
            if removed[nb]:
                continue
            deg[nb] -= 1
            if deg[nb] <= 1 and nb not in ring_atoms:
                queue.append(nb)
    core = {i for i in range(len(elements)) if not removed[i]}
    kept = set(core)
    for (a, b), order in zip(graph.ends, graph.orders):
        if order == DOUBLE:
            if a in core and elements[b] != "H":
                kept.add(b)
            elif b in core and elements[a] != "H":
                kept.add(a)
    return ScaffoldResult(frozenset(kept), len(kept), not kept)


def structural_counts(graph: MolecularGraph) -> StructuralCounts:
    if not graph.elements:
        raise EmptyMolecule("no atoms")
    n_ha = graph.n_heavy
    n_het = n_ha - len(graph.element_sites.get("C", ()))
    n_sc = graph.n_chiral
    # cis/trans marks: a double bond flanked by direction marks on both ends
    # (direction marks live on the adjacent single bonds, never on the double
    # bond itself)
    if graph.stereo:
        ends = graph.ends
        marked = set()
        for bi in graph.stereo:
            marked.update(ends[bi])
        for (a, b), order in zip(ends, graph.orders):
            if order == DOUBLE and a in marked and b in marked:
                n_sc += 1
    return StructuralCounts(n_ha, n_het, graph.n_ring, n_sc, molecular_weight(graph))
