"""The five structural-complexity descriptors and the per-molecule record.

All descriptors are pure functions of the (aromaticity-perceived) graph:
each is invariant under atom re-indexing and reads only the graph's arrays,
so records are safe to compute in parallel across molecules.  Only
``rarity`` depends on the corpus, so a record is built in two steps:
``descriptor_core`` holds everything else, and ``finish_record`` adds
rarity from a prevalence table.  Both are immutable named tuples.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import EmptyMolecule
from .fgroups import FGLibrary, PrevalenceTable, default_library, present_groups
from .graph import (
    RingInfo,
    StructuralCounts,
    cycle_bonds,
    murcko_scaffold,
    perceive_aromaticity,
    ring_info,
    structural_counts,
)
from .smiles import AROMATIC, DOUBLE, SINGLE, TRIPLE, MolecularGraph, feature_mask

# the feature bits of the bond orders that carry a pi bond
_PI_ORDERS = feature_mask({}, (DOUBLE, TRIPLE, AROMATIC))


class DescriptorCore(NamedTuple):
    """Every record field except the corpus-dependent rarity."""

    d_scaf: float
    conjugation: int
    arom_sub: int
    bertz_ct: float
    counts: StructuralCounts
    n_fg: int
    fg_names: frozenset[str]


class DescriptorRecord(NamedTuple):
    d_scaf: float
    rarity: float
    conjugation: int
    arom_sub: int
    bertz_ct: float
    counts: StructuralCounts
    n_fg: int
    fg_names: frozenset[str]


def scaffold_decoration(
    graph: MolecularGraph, rings: RingInfo | None = None
) -> float:
    """1 - n_scaffold / heavy atoms, clamped to [0, 1]; 1 when acyclic."""
    n_ha = graph.n_heavy
    if n_ha == 0:
        raise EmptyMolecule("scaffold decoration needs a heavy atom")
    scaffold = murcko_scaffold(graph, rings)
    value = 1.0 - scaffold.n_scaffold / n_ha
    return min(1.0, max(0.0, value))


def fg_rarity(
    graph: MolecularGraph,
    table: PrevalenceTable,
    library: FGLibrary | None = None,
    groups: frozenset[str] | None = None,
) -> float:
    """Mean inverse corpus prevalence of the molecule's groups; 0 if none."""
    if groups is None:
        groups = present_groups(graph, library)
    return group_rarity(groups, table)


def group_rarity(groups: frozenset[str], table: PrevalenceTable) -> float:
    """fg_rarity from already matched group names."""
    if not groups:
        return 0.0
    # sorted so the float sum is byte-identical across interpreter runs
    # (set iteration order follows the per-process string hash seed), and
    # added left to right: the builtin sum of floats is compensated from
    # Python 3.12 on, which changes the last digit of some values
    total = 0.0
    for name in sorted(groups):
        total += 1.0 - table.prevalence[name]
    return total / len(groups)


def conjugation_extent(graph: MolecularGraph) -> int:
    """Atom count of the largest connected conjugated pi-system.

    A bond is conjugated when it is aromatic/double/triple, or when it is a
    single bond whose two endpoints each carry some multiple bond.  The
    conjugated bonds are joined by union-find, keeping each set's size.
    """
    if not graph.features & _PI_ORDERS:
        return 0
    ends = graph.ends
    orders = graph.orders
    n = len(graph.elements)
    pi = [False] * n
    for (a, b), order in zip(ends, orders):
        if order != SINGLE:
            pi[a] = pi[b] = True
    parent = list(range(n))
    size = [1] * n
    best = 0
    for (a, b), order in zip(ends, orders):
        if order != SINGLE or (pi[a] and pi[b]):
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[b] = a
                size[a] += size[b]
                if size[a] > best:
                    best = size[a]
    return best


def _gap_pattern(positions: list[int], size: int) -> tuple[int, ...]:
    """Cyclic gaps between substituted positions, canonicalised.

    The representative is the lexicographically smallest rotation over both
    traversal directions: an abstract ring has no intrinsic orientation, so
    folding direction is required for the pattern to be well defined under
    atom re-indexing.
    """
    positions = sorted(positions)
    k = len(positions)
    gaps = [
        (positions[(i + 1) % k] - positions[i]) % size or size for i in range(k)
    ]
    best: tuple[int, ...] | None = None
    for seq in (gaps, gaps[::-1]):
        for r in range(k):
            rot = tuple(seq[r:] + seq[:r])
            if best is None or rot < best:
                best = rot
    return best  # type: ignore[return-value]


def aromatic_substitution_complexity(
    graph: MolecularGraph, rings: RingInfo | None = None
) -> int:
    """Distinct ring substitution patterns plus total substituent count.

    A ring position is substituted when the ring atom has a heavy neighbor
    outside the ring; fused-ring partners count as substituents of each ring
    they do not belong to.
    """
    if rings is None:
        rings = ring_info(graph)
    if not rings.rings:
        return 0
    adj = graph.adj
    orders = graph.orders
    elements = graph.elements
    patterns: set[tuple[int, ...]] = set()
    total_subs = 0
    for cycle in rings.rings:
        # aromatic ring: every bond along the cycle is aromatic
        if any(orders[bi] != AROMATIC for bi in cycle_bonds(adj, cycle)):
            continue
        cset = set(cycle)
        positions = []
        for pos, a in enumerate(cycle):
            ext = 0
            for nb, _ in adj[a]:
                if nb not in cset and elements[nb] != "H":
                    ext += 1
            if ext:
                positions.append(pos)
                total_subs += ext
        if positions:
            patterns.add(_gap_pattern(positions, len(cycle)))
    return len(patterns) + total_subs


def bertz_ct(graph: MolecularGraph) -> float:
    """Entropy-style complexity over the bond-environment distribution.

    A bond's environment is the unordered pair of its endpoint descriptors
    (element, aromatic flag, heavy degree) together with the bond order.
    Returns 0 for bond-free graphs.
    """
    if not graph.ends:
        return 0.0
    atom_env = list(zip(graph.elements, graph.aromatic, graph.degree))
    hist: dict[tuple, int] = {}
    for (a, b), order in zip(graph.ends, graph.orders):
        da = atom_env[a]
        db = atom_env[b]
        env = (da, db, order) if da <= db else (db, da, order)
        hist[env] = hist.get(env, 0) + 1
    total = 0.0
    for count in hist.values():
        if count > 1:
            total += count * math.log2(count)
    n_e = len(hist)
    if n_e > 1:
        total += n_e * math.log2(n_e)
    return 0.5 * total


def descriptor_core(
    graph: MolecularGraph, library: FGLibrary | None = None
) -> DescriptorCore:
    """The corpus-independent descriptors, counts and group names.

    Aromaticity perception is applied internally (idempotent), and ring
    analysis is shared across the descriptors that need it.
    """
    library = default_library() if library is None else library
    rings = ring_info(graph)
    perceived = perceive_aromaticity(graph, rings)
    counts = structural_counts(perceived)
    if counts.n_ha == 0:
        raise EmptyMolecule("descriptor record needs a heavy atom")
    groups = present_groups(perceived, library)
    return DescriptorCore(
        d_scaf=scaffold_decoration(perceived, rings),
        conjugation=conjugation_extent(perceived),
        arom_sub=aromatic_substitution_complexity(perceived, rings),
        bertz_ct=bertz_ct(perceived),
        counts=counts,
        n_fg=len(groups),
        fg_names=groups,
    )


def finish_record(core: DescriptorCore, table: PrevalenceTable) -> DescriptorRecord:
    """The full record: the core plus rarity under a prevalence table."""
    return with_rarity(core, group_rarity(core.fg_names, table))


def with_rarity(core: DescriptorCore, rarity: float) -> DescriptorRecord:
    """The full record of ``core`` with an already computed rarity."""
    return DescriptorRecord(
        d_scaf=core.d_scaf,
        rarity=rarity,
        conjugation=core.conjugation,
        arom_sub=core.arom_sub,
        bertz_ct=core.bertz_ct,
        counts=core.counts,
        n_fg=core.n_fg,
        fg_names=core.fg_names,
    )
