"""Atom and bond objects for the tests, over the package's array graph.

``build_graph(atoms, bonds, source)`` walks hand-built ``Atom`` and ``Bond``
objects once and hands the arrays to ``MolecularGraph``, the way the
reference parser and hand-built test graphs make a molecule;
``atoms_of`` and ``bonds_of`` read a graph's arrays back as objects, so a
test can ask for an atom's charge or a bond's stereo mark by name.

An atom with any of a charge, an H count, a chirality mark or an isotope
is a bracket atom: its ``(charge, H count, chirality, isotope)`` entry goes
into ``graph.brackets``, and its H count, when it has one, into
``graph.explicit_h``.  A parsed organic-subset atom has none of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from moltiers.smiles import (
    CHI_NONE,
    SINGLE,
    STEREO_NONE,
    MolecularGraph,
    _VALENCE_UNITS,
    _count_components,
)

# (charge, H count, chirality, isotope) of an atom written without brackets
_NO_BRACKET = (0, None, CHI_NONE, 0)


@dataclass(slots=True)
class Atom:
    element: str
    aromatic: bool = False
    formal_charge: int = 0
    explicit_h: int | None = None
    chirality: int = CHI_NONE
    isotope: int = 0
    index: int = 0


@dataclass(slots=True)
class Bond:
    a: int
    b: int
    order: int = SINGLE
    stereo: int = STEREO_NONE


def build_graph(atoms: list[Atom], bonds: list[Bond],
                source: str = "") -> MolecularGraph:
    """The graph of these atoms and bonds, atom ``k`` at index ``k``."""
    adj: list[list[tuple[int, int]]] = [[] for _ in atoms]
    ends = []
    orders = []
    valence = [0] * len(atoms)
    stereo = {}
    for bi, bond in enumerate(bonds):
        a, b, order = bond.a, bond.b, bond.order
        adj[a].append((b, bi))
        adj[b].append((a, bi))
        ends.append((a, b))
        orders.append(order)
        valence[a] += _VALENCE_UNITS[order]
        valence[b] += _VALENCE_UNITS[order]
        if bond.stereo != STEREO_NONE:
            stereo[bi] = bond.stereo
    elements = [a.element for a in atoms]
    sites: dict[str, list[int]] = {}
    for i, el in enumerate(elements):
        sites.setdefault(el, []).append(i)
    brackets = {}
    for i, a in enumerate(atoms):
        entry = (a.formal_charge, a.explicit_h, a.chirality, a.isotope)
        if entry != _NO_BRACKET:
            brackets[i] = entry
    return MolecularGraph(
        source, brackets, adj, ends, orders, elements,
        [a.aromatic for a in atoms], sites, valence,
        {i: e[1] for i, e in brackets.items() if e[1] is not None},
        sum(e[2] != CHI_NONE for e in brackets.values()), stereo,
        len(ends) - len(atoms) + _count_components(len(atoms), ends))


def atoms_of(graph: MolecularGraph) -> list[Atom]:
    """One ``Atom`` per atom of the graph, ``index`` set to its position."""
    brackets = graph.brackets
    return [Atom(element, aromatic, *brackets.get(i, _NO_BRACKET), i)
            for i, (element, aromatic) in enumerate(zip(graph.elements, graph.aromatic))]


def bonds_of(graph: MolecularGraph) -> list[Bond]:
    """One ``Bond`` per bond of the graph, in bond order."""
    stereo = graph.stereo
    return [Bond(a, b, order, stereo.get(bi, STEREO_NONE))
            for bi, ((a, b), order) in enumerate(zip(graph.ends, graph.orders))]
