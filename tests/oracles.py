"""Independent brute-force oracles for the test suite.

Everything here deliberately avoids the library's own algorithms: cycles are
enumerated exhaustively instead of via block-based perception, matches come
from raw candidate products instead of backtracking, entropy and correlations
are recomputed from first principles.  ``reference_ring_info`` keeps the
earlier whole-graph ring perception as a differential reference, and
``reference_perceive_aromaticity`` the aromaticity perception that searched
rings in every molecule, and ``reference_parse_smiles`` the parser that
built ``Atom`` and ``Bond`` objects and left the molecule's arrays to the
test builder's ``build_graph``, with its valence check (``check_valences``)
summing the bond orders again.  The oracles read a graph through the
builder's ``atoms_of`` and ``bonds_of``.  ``conjugated_components`` is the union-find that built
every conjugated atom set before ``conjugation_extent`` kept only sizes.  ``reference_sample_epoch`` draws every mixed-regime
id with the public ``uniform_draw``, and ``reference_manifest_text`` writes
each manifest line with its own ``json.dumps``.  ``reference_records``
and ``reference_stats_report`` read annotated records with ``json.loads``
on every line, as the readers did before the layout match.
``reference_nt_xent`` and ``reference_siglip_loss`` are the loss kernels
as they were before each pair cost one exponential: a label matrix, a
masked sigmoid and a softmax built in fresh copies.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
from collections import Counter, deque

import moltiers.smiles as smiles_module
from moltiers.elements import VALENCES
from moltiers.errors import (
    AromaticBondError,
    DanglingBond,
    EmptyInput,
    UnbalancedParenthesis,
    UnknownElement,
    UnmatchedRingClosure,
    ValenceError,
)
from moltiers.scheduler import (
    active_tiers,
    tier_weights_mixed,
    uniform_draw,
)
from moltiers.smiles import (
    AROMATIC,
    DOUBLE,
    SINGLE,
    STEREO_DOWN,
    STEREO_NONE,
    STEREO_UP,
    TRIPLE,
    MolecularGraph,
)

from builders import Atom, Bond, atoms_of, bonds_of, build_graph

# ---------------------------------------------------------------------------
# shared small helpers


def plain_adjacency(graph: MolecularGraph) -> dict[int, dict[int, int]]:
    adj: dict[int, dict[int, int]] = {i: {} for i in range(len(graph.elements))}
    for bond in bonds_of(graph):
        adj[bond.a][bond.b] = bond.order
        adj[bond.b][bond.a] = bond.order
    return adj


def heavy_degree(graph: MolecularGraph) -> list[int]:
    atoms = atoms_of(graph)
    deg = [0] * len(atoms)
    for bond in bonds_of(graph):
        if atoms[bond.b].element != "H":
            deg[bond.a] += 1
        if atoms[bond.a].element != "H":
            deg[bond.b] += 1
    return deg


# ---------------------------------------------------------------------------
# the parser before it filled the arrays

_BOND_CHAR_ORDER = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC,
                    "/": SINGLE, "\\": SINGLE}
_BOND_CHAR_STEREO = {"/": STEREO_UP, "\\": STEREO_DOWN}


def reference_parse_smiles(text: str) -> MolecularGraph:
    """The parser as it was before it filled the molecule's arrays: Atom
    and Bond objects only and a bond-pair set for duplicates, from which
    ``build_graph`` builds the arrays."""
    if not text:
        raise EmptyInput("empty SMILES", 0)
    if not text.isascii():
        for off, ch in enumerate(text):
            if ord(ch) > 127:
                raise UnknownElement(f"non-ASCII byte {ch!r}", off)

    atoms: list[Atom] = []
    bonds: list[Bond] = []
    atom_offsets: list[int] = []
    bond_pairs: set[tuple[int, int]] = set()
    # open ring closures: digit -> (atom index, pending order, pending stereo, offset)
    open_rings: dict[int, tuple[int, int, int, int]] = {}
    stack: list[int] = []
    paren_offsets: list[int] = []
    prev = -1
    pend_order = 0      # 0 = no pending bond symbol
    pend_stereo = STEREO_NONE
    pend_offset = -1

    n = len(text)
    i = 0

    def add_bond(a_idx: int, b_idx: int, order: int, stereo: int, offset: int) -> None:
        if a_idx == b_idx:
            raise UnmatchedRingClosure("ring closure bonds an atom to itself", offset)
        key = (a_idx, b_idx) if a_idx < b_idx else (b_idx, a_idx)
        if key in bond_pairs:
            raise UnmatchedRingClosure("duplicate bond between atom pair", offset)
        bond_pairs.add(key)
        if order == 0:
            if atoms[a_idx].aromatic and atoms[b_idx].aromatic:
                order = AROMATIC
            else:
                order = SINGLE
        if order == AROMATIC and not (atoms[a_idx].aromatic and atoms[b_idx].aromatic):
            raise AromaticBondError("aromatic bond on non-aromatic atom", offset)
        bonds.append(Bond(a_idx, b_idx, order, stereo))

    def attach(atom: Atom, offset: int) -> None:
        nonlocal prev, pend_order, pend_stereo
        atom.index = len(atoms)
        atoms.append(atom)
        atom_offsets.append(offset)
        if prev >= 0:
            add_bond(prev, atom.index, pend_order, pend_stereo, offset)
        elif pend_order:
            raise DanglingBond("bond symbol with no preceding atom", pend_offset)
        prev = atom.index
        pend_order = 0
        pend_stereo = STEREO_NONE

    while i < n:
        c = text[i]
        if c == "C":
            if i + 1 < n and text[i + 1] == "l":
                attach(Atom("Cl"), i)
                i += 2
            else:
                attach(Atom("C"), i)
                i += 1
        elif c in "NOPSFI" or c == "B":
            if c == "B" and i + 1 < n and text[i + 1] == "r":
                attach(Atom("Br"), i)
                i += 2
            else:
                attach(Atom(c), i)
                i += 1
        elif c in "bcnops":
            attach(Atom(c.upper(), aromatic=True), i)
            i += 1
        elif c == "(":
            if pend_order:
                raise DanglingBond("bond symbol before branch open", pend_offset)
            if prev < 0:
                raise UnbalancedParenthesis("branch opened before any atom", i)
            stack.append(prev)
            paren_offsets.append(i)
            i += 1
        elif c == ")":
            if pend_order:
                raise DanglingBond("bond symbol before branch close", pend_offset)
            if not stack:
                raise UnbalancedParenthesis("unmatched ')'", i)
            prev = stack.pop()
            paren_offsets.pop()
            i += 1
        elif c in _BOND_CHAR_ORDER:
            if pend_order:
                raise DanglingBond("two bond symbols in a row", i)
            pend_order = _BOND_CHAR_ORDER[c]
            pend_stereo = _BOND_CHAR_STEREO.get(c, STEREO_NONE)
            pend_offset = i
            i += 1
        elif c.isdigit() or c == "%":
            if c == "%":
                if i + 2 >= n or not (text[i + 1].isdigit() and text[i + 2].isdigit()):
                    raise UnmatchedRingClosure("'%' needs two digits", i)
                num = int(text[i + 1 : i + 3])
                width = 3
            else:
                num = int(c)
                width = 1
            if prev < 0:
                raise UnmatchedRingClosure("ring closure before any atom", i)
            if num in open_rings:
                o_atom, o_order, o_stereo, _ = open_rings.pop(num)
                if o_order and pend_order and o_order != pend_order:
                    raise UnmatchedRingClosure("ring closure bond order conflict", i)
                order = pend_order or o_order
                stereo = pend_stereo or o_stereo
                add_bond(o_atom, prev, order, stereo, i)
            else:
                open_rings[num] = (prev, pend_order, pend_stereo, i)
            pend_order = 0
            pend_stereo = STEREO_NONE
            i += width
        elif c == ".":
            if pend_order:
                raise DanglingBond("bond symbol before '.'", pend_offset)
            prev = -1
            i += 1
        elif c == "[":
            element, aromatic, entry, i2 = smiles_module._parse_bracket(text, i)
            attach(Atom(element, aromatic, *entry), i)
            i = i2
        else:
            raise UnknownElement(f"unexpected character {c!r}", i)

    if pend_order:
        raise DanglingBond("bond symbol at end of input", pend_offset)
    if stack:
        raise UnbalancedParenthesis("unclosed '('", paren_offsets[0])
    if open_rings:
        off = min(v[3] for v in open_rings.values())
        raise UnmatchedRingClosure("unclosed ring bond", off)
    if not atoms:
        raise EmptyInput("no atoms in SMILES", 0)

    graph = build_graph(atoms, bonds, text)
    check_valences(graph, atom_offsets)
    return graph


def explicit_valences(graph: MolecularGraph) -> list[int]:
    """Sum of bond orders per atom, counting aromatic bonds as one."""
    val = [0] * len(graph.elements)
    for bond in bonds_of(graph):
        o = bond.order if bond.order != AROMATIC else 1
        val[bond.a] += o
        val[bond.b] += o
    return val


def check_valences(graph: MolecularGraph, offsets: list[int]) -> None:
    """Reject unbracketed atoms whose bonds exceed the valence table.

    Bracket atoms carry explicit hydrogen counts and charges, which shift
    valence in ways the neutral table cannot capture, so they are accepted
    as written.  Aromatic atoms are granted one extra unit to cover the
    delocalised bond.
    """
    val = explicit_valences(graph)
    for atom in atoms_of(graph):
        if atom.explicit_h is not None:
            continue
        allowed = VALENCES[atom.element]
        limit = allowed[-1] + (1 if atom.aromatic else 0)
        if val[atom.index] > limit:
            raise ValenceError(
                f"{atom.element} with valence {val[atom.index]} exceeds {limit}",
                offsets[atom.index],
            )


# ---------------------------------------------------------------------------
# Bertz-style complexity: direct histogram, coded independently


def brute_bertz_ct(graph: MolecularGraph) -> float:
    bonds = bonds_of(graph)
    if not bonds:
        return 0.0
    atoms = atoms_of(graph)
    deg = heavy_degree(graph)

    def of(i: int) -> tuple:
        atom = atoms[i]
        return (atom.element, atom.aromatic, deg[i])

    envs = Counter()
    for bond in bonds:
        pair = sorted([of(bond.a), of(bond.b)])
        envs[(pair[0], pair[1], bond.order)] += 1
    term = sum(n * math.log2(n) for n in envs.values())
    n_e = len(envs)
    return 0.5 * (term + n_e * math.log2(n_e))


# ---------------------------------------------------------------------------
# exhaustive subgraph enumeration for pattern matching


def brute_matches(graph: MolecularGraph, pattern) -> set[tuple[int, ...]]:
    """Every injective atom tuple satisfying the pattern constraints."""
    adj = plain_adjacency(graph)
    deg = heavy_degree(graph)
    atoms = atoms_of(graph)
    pools = []
    for constraint in pattern.atoms:
        pool = [
            i for i in range(len(atoms))
            if constraint.admits(atoms[i].element, atoms[i].aromatic, deg[i])
        ]
        pools.append(pool)
    found = set()
    for combo in itertools.product(*pools):
        if len(set(combo)) != len(combo):
            continue
        ok = True
        for bc in pattern.bonds:
            u, v = combo[bc.a], combo[bc.b]
            if adj[u].get(v) not in bc.orders:
                ok = False
                break
        if ok:
            found.add(combo)
    return found


def brute_present(graph: MolecularGraph, library) -> frozenset[str]:
    return frozenset(
        p.name for p in library.patterns if brute_matches(graph, p)
    )


# ---------------------------------------------------------------------------
# all simple cycles up to a size bound (exhaustive DFS)


def all_simple_cycles(graph: MolecularGraph, max_size: int = 8) -> list[tuple[int, ...]]:
    adj = plain_adjacency(graph)
    n = len(graph.elements)
    cycles: dict[frozenset[int], tuple[int, ...]] = {}

    def dfs(start: int, current: int, path: list[int]) -> None:
        for nxt in adj[current]:
            if nxt == start and len(path) >= 3:
                key = frozenset(path)
                if key not in cycles:
                    cycles[key] = tuple(path)
            elif nxt not in path and nxt > start and len(path) < max_size:
                path.append(nxt)
                dfs(start, nxt, path)
                path.pop()

    for start in range(n):
        dfs(start, start, [start])
    return list(cycles.values())


def reference_ring_info(
    graph: MolecularGraph, max_size: int = 8
) -> tuple[frozenset[int], frozenset[int], list[tuple[int, ...]]]:
    """(ring_atoms, ring_bonds, rings) the way ring perception worked before
    it became block-based: bridges by lowlink DFS, then one capped BFS per
    ring bond over the whole graph, in bond order, deduplicated by atom set.
    """
    n = len(graph.elements)
    bonds = bonds_of(graph)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for bi, bond in enumerate(bonds):
        adj[bond.a].append((bond.b, bi))
        adj[bond.b].append((bond.a, bi))

    disc = [-1] * n
    low = [0] * n
    bridges: set[int] = set()
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
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
                elif disc[nb] < low[a]:
                    low[a] = disc[nb]
            elif in_bond != -1:
                bond = bonds[in_bond]
                parent = bond.b if a == bond.a else bond.a
                if low[a] < low[parent]:
                    low[parent] = low[a]
                if low[a] > disc[parent]:
                    bridges.add(in_bond)

    def shortest_cycle_through(bond_index: int):
        bond = bonds[bond_index]
        u, v = bond.a, bond.b
        prev = {u: -1}
        queue = deque([(u, 0)])
        while queue:
            a, depth = queue.popleft()
            if depth >= max_size - 1:
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

    ring_bonds = frozenset(b for b in range(len(bonds)) if b not in bridges)
    ring_atoms = set()
    for bi in ring_bonds:
        ring_atoms.add(bonds[bi].a)
        ring_atoms.add(bonds[bi].b)
    rings = []
    seen = set()
    for bi in sorted(ring_bonds):
        cycle = shortest_cycle_through(bi)
        if cycle is not None and frozenset(cycle) not in seen:
            seen.add(frozenset(cycle))
            rings.append(cycle)
    return frozenset(ring_atoms), ring_bonds, rings


def reference_perceive_aromaticity(graph: MolecularGraph) -> MolecularGraph:
    """Kekulé 6-ring promotion the way it worked before it could return
    without a ring search: every ring is perceived and checked.

    Rings come from ``reference_ring_info``; returns ``graph`` itself when
    no 6-ring of C/N atoms alternates single and double bonds.
    """
    adj = plain_adjacency(graph)
    atoms = atoms_of(graph)
    bonds = bonds_of(graph)
    bond_index = {}
    for bi, bond in enumerate(bonds):
        bond_index[frozenset((bond.a, bond.b))] = bi
    flip_atoms: set[int] = set()
    flip_bonds: set[int] = set()
    for cycle in reference_ring_info(graph)[2]:
        if len(cycle) != 6:
            continue
        if any(atoms[a].element not in ("C", "N") for a in cycle):
            continue
        pairs = [(cycle[k], cycle[(k + 1) % 6]) for k in range(6)]
        ring_orders = [adj[a][b] for a, b in pairs]
        if any(order not in (SINGLE, DOUBLE) for order in ring_orders):
            continue
        if all(ring_orders[k] != ring_orders[k - 1] for k in range(6)):
            flip_atoms.update(cycle)
            flip_bonds.update(bond_index[frozenset(pair)] for pair in pairs)
    if not flip_atoms:
        return graph
    atoms = [
        dataclasses.replace(atom, aromatic=True) if atom.index in flip_atoms
        else atom
        for atom in atoms
    ]
    bonds = [
        dataclasses.replace(bond, order=AROMATIC) if bi in flip_bonds else bond
        for bi, bond in enumerate(bonds)
    ]
    return build_graph(atoms, bonds, graph.source)


def connected_components(graph: MolecularGraph) -> list[set[int]]:
    adj = plain_adjacency(graph)
    unseen = set(adj)
    comps = []
    while unseen:
        frontier = [unseen.pop()]
        comp = set(frontier)
        while frontier:
            for nb in adj[frontier.pop()]:
                if nb not in comp:
                    comp.add(nb)
                    frontier.append(nb)
        unseen -= comp
        comps.append(comp)
    return comps


def brute_aromatic_substitution(graph: MolecularGraph) -> int:
    """Independent recomputation of the ring-substitution descriptor."""
    adj = plain_adjacency(graph)
    atoms = atoms_of(graph)
    aromatic_pairs = {
        frozenset((b.a, b.b)) for b in bonds_of(graph) if b.order == AROMATIC
    }
    patterns = set()
    total = 0
    for cycle in all_simple_cycles(graph):
        size = len(cycle)
        if any(
            frozenset((cycle[i], cycle[(i + 1) % size])) not in aromatic_pairs
            for i in range(size)
        ):
            continue
        cset = set(cycle)
        positions = []
        for pos, atom in enumerate(cycle):
            ext = sum(
                1 for nb in adj[atom]
                if nb not in cset and atoms[nb].element != "H"
            )
            if ext:
                positions.append(pos)
                total += ext
        if not positions:
            continue
        gaps = []
        for k, p in enumerate(positions):
            q = positions[(k + 1) % len(positions)]
            gaps.append((q - p) % size or size)
        variants = []
        for seq in (gaps, gaps[::-1]):
            for r in range(len(seq)):
                variants.append(tuple(seq[r:] + seq[:r]))
        patterns.add(min(variants))
    return len(patterns) + total


# ---------------------------------------------------------------------------
# conjugation oracles


def conjugated_components(graph: MolecularGraph) -> list[frozenset[int]]:
    """Connected atom sets of the subgraph induced by conjugated bonds.

    A bond is conjugated when it is aromatic/double/triple, or when it is a
    single bond whose two endpoints each carry some multiple bond.
    """
    n = len(graph.elements)
    bonds = bonds_of(graph)
    pi = [False] * n
    for bond in bonds:
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
    for bond in bonds:
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


def brute_conjugation_extent(graph: MolecularGraph) -> int:
    multi = {DOUBLE, TRIPLE, AROMATIC}
    bonds = bonds_of(graph)
    pi_atoms = set()
    for bond in bonds:
        if bond.order in multi:
            pi_atoms.add(bond.a)
            pi_atoms.add(bond.b)
    edges = []
    for bond in bonds:
        if bond.order in multi or (
            bond.order == SINGLE and bond.a in pi_atoms and bond.b in pi_atoms
        ):
            edges.append((bond.a, bond.b))
    if not edges:
        return 0
    nodes = {a for e in edges for a in e}
    best = 0
    remaining = set(nodes)
    neigh: dict[int, set[int]] = {a: set() for a in nodes}
    for a, b in edges:
        neigh[a].add(b)
        neigh[b].add(a)
    while remaining:
        seed = remaining.pop()
        comp = {seed}
        frontier = [seed]
        while frontier:
            cur = frontier.pop()
            for nb in neigh[cur]:
                if nb not in comp:
                    comp.add(nb)
                    frontier.append(nb)
        remaining -= comp
        best = max(best, len(comp))
    return best


# ---------------------------------------------------------------------------
# scaffold oracle: randomized sequential pruning + exocyclic double add-back


def ring_atoms_exhaustive(graph: MolecularGraph) -> set[int]:
    out: set[int] = set()
    for cycle in all_simple_cycles(graph, max_size=len(graph.elements)):
        out.update(cycle)
    return out


def brute_scaffold(graph: MolecularGraph, rng: random.Random) -> set[int]:
    ring = ring_atoms_exhaustive(graph)
    if not ring:
        return set()
    heavy = {i for i, a in enumerate(atoms_of(graph)) if a.element != "H"}
    adj = plain_adjacency(graph)
    alive = set(heavy)
    while True:
        candidates = [
            a for a in alive
            if a not in ring
            and sum(1 for nb in adj[a] if nb in alive and nb in heavy) <= 1
        ]
        if not candidates:
            break
        alive.discard(rng.choice(candidates))
    kept = set(alive)
    for bond in bonds_of(graph):
        if bond.order == DOUBLE:
            if bond.a in alive and bond.b in heavy:
                kept.add(bond.b)
            elif bond.b in alive and bond.a in heavy:
                kept.add(bond.a)
    return kept


# ---------------------------------------------------------------------------
# rank correlation from first principles


def brute_ranks(values) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def reference_rank_average(values):
    """``losses.rank_average`` as a loop over the sorted order: 1-based
    ranks, ties sharing their average rank."""
    import numpy as np

    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def brute_pearson(x, y) -> float:
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = math.sqrt(sum((a - mx) ** 2 for a in x))
    dy = math.sqrt(sum((b - my) ** 2 for b in y))
    return num / (dx * dy)


def brute_spearman(x, y) -> float:
    return brute_pearson(brute_ranks(x), brute_ranks(y))


# ---------------------------------------------------------------------------
# finite differences (independent of the kernels' own arithmetic)


def finite_difference(f, x, eps: float = 1e-5):
    import numpy as np

    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        hi = x.copy()
        hi[idx] += eps
        lo = x.copy()
        lo[idx] -= eps
        grad[idx] = (f(hi) - f(lo)) / (2 * eps)
        it.iternext()
    return grad


def max_rel_error(analytic, numeric) -> float:
    import numpy as np

    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# graph isomorphism under an explicit mapping


def assert_isomorphic(original: MolecularGraph, reparsed: MolecularGraph,
                      order: list[int]) -> None:
    """order[k] = original atom index emitted at output position k."""
    original_atoms = atoms_of(original)
    reparsed_atoms = atoms_of(reparsed)
    assert len(original_atoms) == len(reparsed_atoms) == len(order)
    assert len(bonds_of(original)) == len(bonds_of(reparsed))
    for new_idx, old_idx in enumerate(order):
        a = original_atoms[old_idx]
        b = reparsed_atoms[new_idx]
        assert a.element == b.element, (a, b)
        assert a.aromatic == b.aromatic, (a, b)
        assert a.formal_charge == b.formal_charge, (a, b)
        assert a.explicit_h == b.explicit_h, (a, b)
        assert a.chirality == b.chirality, (a, b)
        assert a.isotope == b.isotope, (a, b)
    inverse = {old: new for new, old in enumerate(order)}

    def edge_set(graph, relabel=None):
        out = set()
        for bond in bonds_of(graph):
            a, b = bond.a, bond.b
            if relabel:
                a, b = relabel[a], relabel[b]
            key = (min(a, b), max(a, b), bond.order, bond.stereo != 0)
            out.add(key)
        return out

    assert edge_set(original, inverse) == edge_set(reparsed)


# ---------------------------------------------------------------------------
# curriculum manifests: one draw and one json.dumps per id


def reference_sample_epoch(ids_by_tier: dict[int, list[int]], spec,
                           epoch: int) -> list[int]:
    """Sorted ids of the epoch: every id of an active tier, or, in the mixed
    regime, each id whose ``uniform_draw`` falls below its tier's weight."""
    if spec.regime == "mixed":
        weights = tier_weights_mixed(epoch, spec.epochs, spec.hard_start)
        return sorted(
            m for tier, ids in ids_by_tier.items() for m in ids
            if uniform_draw(spec.seed, m, epoch) < weights[tier]
        )
    tiers = active_tiers(spec.regime, epoch, spec.epochs)
    return sorted(m for tier in tiers for m in ids_by_tier.get(tier, ()))


def reference_manifest_text(epoch: int, regime: str, ids) -> str:
    """The manifest as written line by line with ``json.dumps``."""
    return "".join(
        json.dumps({"epoch": epoch, "regime": regime, "id": m},
                   separators=(",", ":")) + "\n"
        for m in ids
    )


# ---------------------------------------------------------------------------
# annotated records: json.loads on every line


def reference_records(path) -> list[tuple[int, dict]]:
    """(line number, record) per non-blank line; every line must be an object."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            if line.strip():
                row = json.loads(line)
                assert type(row) is dict, (n, line)
                rows.append((n, row))
    return rows


def reference_stats_report(path) -> dict:
    """The ``stats --json`` report, computed from whole records in memory."""
    import numpy as np

    rows = [row for _, row in reference_records(path)]
    report: dict = {"n": len(rows)}
    for key in ("mw", "bertz_ct", "n_ring"):
        arr = np.asarray([r[key] for r in rows], dtype=float)
        report[key] = {
            "mean": float(arr.mean()),
            "median": float(np.median(arr)),
            "p99": float(np.percentile(arr, 99)),
        }
    tiers = ("T0", "T1", "T2", "T3", "T4")
    report["tier_histogram"] = {t: sum(r["tier"] == t for r in rows) for t in tiers}
    per_tier = {}
    for tier in tiers:
        values = [r["bertz_ct"] for r in rows if r["tier"] == tier]
        if values:
            q25, q50, q75 = map(float, np.percentile(np.asarray(values, dtype=float),
                                                     (25, 50, 75)))
            per_tier[tier] = {"n": len(values), "q25": q25, "median": q50, "q75": q75}
    report["bertz_ct_per_tier"] = per_tier
    return report


# ---------------------------------------------------------------------------
# loss kernels with a label matrix, a masked sigmoid and softmax copies


def reference_softplus(x):
    import numpy as np

    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def reference_sigmoid(x):
    import numpy as np

    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_nt_xent(v1, v2, temperature: float = 0.07,
                      include_positive_in_denominator: bool = False):
    """(loss, grad_v1, grad_v2) of the temperature-scaled contrastive loss."""
    import numpy as np

    v1 = np.asarray(v1, dtype=np.float64)
    v2 = np.asarray(v2, dtype=np.float64)
    n = v1.shape[0]
    sim = v1 @ v2.T / temperature
    if include_positive_in_denominator:
        masked = sim
    else:
        masked = sim.copy()
        np.fill_diagonal(masked, -np.inf)
    row_max = masked.max(axis=1, keepdims=True)
    exp = np.exp(masked - row_max)
    denom = exp.sum(axis=1)
    log_denom = row_max[:, 0] + np.log(denom)
    loss = float(np.sum(log_denom - np.diagonal(sim)))
    p = exp / denom[:, None]
    g = p.copy()
    idx = np.arange(n)
    g[idx, idx] -= 1.0
    g /= temperature
    return loss, g @ v2, g.T @ v1


def reference_siglip_loss(v, t, scale: float = 1.0, bias: float = 0.0,
                          signed_bias: bool = True):
    """(loss, grad_v, grad_t, grad_scale, grad_bias) of the pairwise sigmoid
    loss, from the full label matrix."""
    import numpy as np

    v = np.asarray(v, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    n = v.shape[0]
    sim = v @ t.T
    labels = np.full((n, n), -1.0)
    np.fill_diagonal(labels, 1.0)
    if signed_bias:
        z = labels * (scale * sim) + labels * bias
    else:
        z = labels * (scale * sim) + bias
    inv_n2 = 1.0 / (n * n)
    loss = float(np.sum(reference_softplus(-z)) * inv_n2)
    dz = -reference_sigmoid(-z) * inv_n2
    w = dz * labels * scale
    grad_scale = float(np.sum(dz * labels * sim))
    grad_bias = float(np.sum(dz * labels)) if signed_bias else float(np.sum(dz))
    return loss, w @ t, w.T @ v, grad_scale, grad_bias
