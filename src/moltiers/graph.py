"""Graph algorithms over MolecularGraph.

Ring perception uses bridge detection for membership plus a per-ring-bond
shortest-cycle search capped at 8 atoms, which covers drug-like ring systems
without full SSSR machinery.  The ring *count* is always the cyclomatic
number, bonds - atoms + components.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import EmptyMolecule
from .smiles import (
    AROMATIC,
    CHI_NONE,
    DOUBLE,
    MolecularGraph,
    SINGLE,
    STEREO_NONE,
    TRIPLE,
    molecular_weight,
)

MAX_RING_SIZE = 8


@dataclass(slots=True)
class RingInfo:
    ring_atoms: frozenset[int]
    ring_bonds: frozenset[int]
    rings: list[tuple[int, ...]]  # ordered small cycles, deduplicated


@dataclass(slots=True)
class ScaffoldResult:
    scaffold_atoms: frozenset[int]
    n_scaffold: int
    is_empty: bool


@dataclass(slots=True)
class StructuralCounts:
    n_ha: int
    n_het: int
    n_ring: int
    n_sc: int
    mw: float


def has_heavy_atom(graph: MolecularGraph) -> bool:
    return any(a.element != "H" for a in graph.atoms)


def heavy_degrees(graph: MolecularGraph) -> list[int]:
    deg = [0] * len(graph.atoms)
    atoms = graph.atoms
    for bond in graph.bonds:
        if atoms[bond.b].element != "H":
            deg[bond.a] += 1
        if atoms[bond.a].element != "H":
            deg[bond.b] += 1
    return deg


def connected_components(graph: MolecularGraph) -> list[list[int]]:
    n = len(graph.atoms)
    adj = graph.neighbors()
    seen = [False] * n
    comps: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            a = queue.popleft()
            for nb, _ in adj[a]:
                if not seen[nb]:
                    seen[nb] = True
                    comp.append(nb)
                    queue.append(nb)
        comps.append(comp)
    return comps


def _bridges(graph: MolecularGraph, adj: list[list[tuple[int, int]]]) -> set[int]:
    """Bond indices that are bridges (iterative lowlink DFS)."""
    n = len(graph.atoms)
    disc = [-1] * n
    low = [0] * n
    bridges: set[int] = set()
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]  # atom, in-bond, edge ptr
        while stack:
            a, in_bond, ptr = stack.pop()
            if ptr == 0:
                disc[a] = low[a] = timer
                timer += 1
            if ptr < len(adj[a]):
                stack.append((a, in_bond, ptr + 1))
                nb, bi = adj[a][ptr]
                if bi == in_bond:
                    continue
                if disc[nb] == -1:
                    stack.append((nb, bi, 0))
                else:
                    if disc[nb] < low[a]:
                        low[a] = disc[nb]
            else:
                if in_bond != -1:
                    bond = graph.bonds[in_bond]
                    parent = bond.other(a)
                    if low[a] < low[parent]:
                        low[parent] = low[a]
                    if low[a] > disc[parent]:
                        bridges.add(in_bond)
    return bridges


def _shortest_cycle_through(
    graph: MolecularGraph,
    adj: list[list[tuple[int, int]]],
    bond_index: int,
    max_size: int,
) -> tuple[int, ...] | None:
    """Smallest cycle containing the bond, or None if longer than max_size."""
    bond = graph.bonds[bond_index]
    u, v = bond.a, bond.b
    prev: dict[int, int] = {u: -1}
    queue = deque([(u, 0)])
    limit = max_size - 1
    while queue:
        a, depth = queue.popleft()
        if depth >= limit:
            continue
        for nb, bi in adj[a]:
            if bi == bond_index or nb in prev:
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
    adj = graph.neighbors()
    bridges = _bridges(graph, adj)
    ring_bonds = frozenset(
        bi for bi in range(len(graph.bonds)) if bi not in bridges
    )
    ring_atoms: set[int] = set()
    for bi in ring_bonds:
        bond = graph.bonds[bi]
        ring_atoms.add(bond.a)
        ring_atoms.add(bond.b)
    rings: list[tuple[int, ...]] = []
    seen: set[frozenset[int]] = set()
    for bi in sorted(ring_bonds):
        cycle = _shortest_cycle_through(graph, adj, bi, MAX_RING_SIZE)
        if cycle is None:
            continue
        key = frozenset(cycle)
        if key not in seen:
            seen.add(key)
            rings.append(cycle)
    return RingInfo(frozenset(ring_atoms), ring_bonds, rings)


def cyclomatic_number(graph: MolecularGraph) -> int:
    return len(graph.bonds) - len(graph.atoms) + len(connected_components(graph))


def _bond_lookup(graph: MolecularGraph) -> dict[tuple[int, int], int]:
    table: dict[tuple[int, int], int] = {}
    for bi, bond in enumerate(graph.bonds):
        key = (bond.a, bond.b) if bond.a < bond.b else (bond.b, bond.a)
        table[key] = bi
    return table


def perceive_aromaticity(
    graph: MolecularGraph, rings: RingInfo | None = None
) -> MolecularGraph:
    """Flag 6-membered C/N rings with alternating single/double bonds.

    Atoms and bonds already aromatic are left untouched; the operation is
    idempotent and never removes a flag.  Returns the input object when no
    ring qualifies.
    """
    if rings is None:
        rings = ring_info(graph)
    lookup = _bond_lookup(graph)
    atoms = graph.atoms
    flip_atoms: set[int] = set()
    flip_bonds: set[int] = set()
    for cycle in rings.rings:
        if len(cycle) != 6:
            continue
        if any(atoms[a].element not in ("C", "N") for a in cycle):
            continue
        bond_ids = []
        orders = []
        ok = True
        for k in range(6):
            a, b = cycle[k], cycle[(k + 1) % 6]
            bi = lookup[(a, b) if a < b else (b, a)]
            order = graph.bonds[bi].order
            if order not in (SINGLE, DOUBLE):
                ok = False
                break
            bond_ids.append(bi)
            orders.append(order)
        if not ok:
            continue
        if all(orders[k] != orders[(k + 1) % 6] for k in range(6)):
            flip_atoms.update(cycle)
            flip_bonds.update(bond_ids)
    if not flip_atoms:
        return graph
    new_atoms = []
    for atom in atoms:
        if atom.index in flip_atoms and not atom.aromatic:
            new_atoms.append(
                type(atom)(
                    atom.element, True, atom.formal_charge, atom.explicit_h,
                    atom.chirality, atom.isotope, atom.index,
                )
            )
        else:
            new_atoms.append(atom)
    new_bonds = []
    for bi, bond in enumerate(graph.bonds):
        if bi in flip_bonds and bond.order != AROMATIC:
            new_bonds.append(type(bond)(bond.a, bond.b, AROMATIC, bond.stereo))
        else:
            new_bonds.append(bond)
    return MolecularGraph(new_atoms, new_bonds, graph.source)


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
    if not rings.ring_atoms:
        return ScaffoldResult(frozenset(), 0, True)
    atoms = graph.atoms
    adj = graph.neighbors()
    heavy = [a.element != "H" for a in atoms]
    deg = heavy_degrees(graph)
    removed = [not heavy[i] for i in range(len(atoms))]
    queue = deque(
        i for i in range(len(atoms))
        if heavy[i] and deg[i] <= 1 and i not in rings.ring_atoms
    )
    while queue:
        a = queue.popleft()
        if removed[a]:
            continue
        removed[a] = True
        for nb, _ in adj[a]:
            if removed[nb] or not heavy[nb]:
                continue
            deg[nb] -= 1
            if deg[nb] <= 1 and nb not in rings.ring_atoms:
                queue.append(nb)
    core = {i for i in range(len(atoms)) if heavy[i] and not removed[i]}
    kept = set(core)
    for bond in graph.bonds:
        if bond.order == DOUBLE:
            if bond.a in core and heavy[bond.b]:
                kept.add(bond.b)
            elif bond.b in core and heavy[bond.a]:
                kept.add(bond.a)
    return ScaffoldResult(frozenset(kept), len(kept), not kept)


def conjugated_components(graph: MolecularGraph) -> list[frozenset[int]]:
    """Connected atom sets of the subgraph induced by conjugated bonds.

    A bond is conjugated when it is aromatic/double/triple, or when it is a
    single bond whose two endpoints each carry some multiple bond.
    """
    n = len(graph.atoms)
    pi = [False] * n
    for bond in graph.bonds:
        if bond.order in (DOUBLE, TRIPLE, AROMATIC):
            pi[bond.a] = True
            pi[bond.b] = True
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    members: set[int] = set()
    for bond in graph.bonds:
        conj = bond.order in (DOUBLE, TRIPLE, AROMATIC) or (
            bond.order == SINGLE and pi[bond.a] and pi[bond.b]
        )
        if conj:
            members.add(bond.a)
            members.add(bond.b)
            ra, rb = find(bond.a), find(bond.b)
            if ra != rb:
                parent[ra] = rb
    groups: dict[int, set[int]] = {}
    for a in members:
        groups.setdefault(find(a), set()).add(a)
    return sorted((frozenset(g) for g in groups.values()), key=min)


def structural_counts(graph: MolecularGraph) -> StructuralCounts:
    if not graph.atoms:
        raise EmptyMolecule("no atoms")
    n_ha = 0
    n_het = 0
    n_sc = 0
    for atom in graph.atoms:
        if atom.element != "H":
            n_ha += 1
            if atom.element != "C":
                n_het += 1
        if atom.chirality != CHI_NONE:
            n_sc += 1
    # cis/trans marks: a double bond flanked by direction marks on both ends
    # (direction marks live on the adjacent single bonds, never on the double
    # bond itself)
    marked = [False] * len(graph.atoms)
    any_marked = False
    for bond in graph.bonds:
        if bond.stereo != STEREO_NONE:
            marked[bond.a] = True
            marked[bond.b] = True
            any_marked = True
    if any_marked:
        for bond in graph.bonds:
            if bond.order == DOUBLE and marked[bond.a] and marked[bond.b]:
                n_sc += 1
    # component count by union-find; avoids building adjacency
    parent = list(range(len(graph.atoms)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    n_comp = len(graph.atoms)
    for bond in graph.bonds:
        ra, rb = find(bond.a), find(bond.b)
        if ra != rb:
            parent[ra] = rb
            n_comp -= 1
    n_ring = len(graph.bonds) - len(graph.atoms) + n_comp
    return StructuralCounts(n_ha, n_het, n_ring, n_sc, molecular_weight(graph))
