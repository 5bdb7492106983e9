"""A SMILES writer for the tests: ``write_smiles_mapped`` serializes a
graph and returns the order it emitted the atoms in, so round-trip tests
compare graphs through an explicit isomorphism.  The package itself writes
no SMILES.
"""

from __future__ import annotations

from moltiers.elements import AROMATIC_ORGANIC
from moltiers.errors import EmptyMolecule
from moltiers.smiles import (
    AROMATIC,
    CHI_AT,
    CHI_AT_AT,
    CHI_NONE,
    DOUBLE,
    SINGLE,
    STEREO_DOWN,
    STEREO_UP,
    TRIPLE,
    MolecularGraph,
)

from builders import Atom, Bond, atoms_of, bonds_of

# Atoms writable without brackets.
ORGANIC_SUBSET = frozenset({"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"})

_ORDER_CHAR = {SINGLE: "-", DOUBLE: "=", TRIPLE: "#", AROMATIC: ":"}


def _atom_token(atom: Atom) -> str:
    symbol = atom.element.lower() if atom.aromatic else atom.element
    if (
        atom.formal_charge == 0
        and atom.explicit_h is None
        and atom.chirality == CHI_NONE
        and atom.isotope == 0
        and atom.element in ORGANIC_SUBSET
        and (not atom.aromatic or symbol in AROMATIC_ORGANIC)
    ):
        return symbol
    parts = ["["]
    if atom.isotope:
        parts.append(str(atom.isotope))
    parts.append(symbol)
    if atom.chirality == CHI_AT:
        parts.append("@")
    elif atom.chirality == CHI_AT_AT:
        parts.append("@@")
    h = atom.explicit_h or 0
    if h == 1:
        parts.append("H")
    elif h > 1:
        parts.append(f"H{h}")
    q = atom.formal_charge
    if q == 1:
        parts.append("+")
    elif q == -1:
        parts.append("-")
    elif q > 0:
        parts.append(f"+{q}")
    elif q < 0:
        parts.append(f"-{-q}")
    parts.append("]")
    return "".join(parts)


def _bond_token(bond: Bond, src: int, both_aromatic: bool) -> str:
    if bond.stereo == STEREO_UP:
        return "/" if src == bond.a else "\\"
    if bond.stereo == STEREO_DOWN:
        return "\\" if src == bond.a else "/"
    if bond.order == SINGLE:
        # explicit '-' so two adjacent aromatic atoms don't fuse on re-parse
        return "-" if both_aromatic else ""
    if bond.order == AROMATIC:
        return "" if both_aromatic else ":"
    return _ORDER_CHAR[bond.order]


def write_smiles_mapped(graph: MolecularGraph) -> tuple[str, list[int]]:
    """Serialize to SMILES; also return the emission order of atom indices.

    The order list maps output position -> input atom index, which gives
    round-trip tests an explicit isomorphism instead of a graph-matching
    search.
    """
    atoms = atoms_of(graph)
    bonds = bonds_of(graph)
    if not atoms:
        raise EmptyMolecule("cannot write an empty graph")
    adj = graph.adj
    natoms = len(atoms)
    visited = [False] * natoms
    order: list[int] = []
    pieces: list[str] = []
    digit_free: list[int] = list(range(99, 0, -1))

    for root in range(natoms):
        if visited[root]:
            continue
        if pieces:
            pieces.append(".")

        # spanning tree + back edges for this component
        tree_children: dict[int, list[tuple[int, int]]] = {}
        back_edges_at: dict[int, list[int]] = {}
        seen_bonds: set[int] = set()
        visited[root] = True
        stack = [root]
        while stack:
            a = stack.pop()
            children: list[tuple[int, int]] = []
            for nb, bi in adj[a]:
                if bi in seen_bonds:
                    continue
                seen_bonds.add(bi)
                if not visited[nb]:
                    visited[nb] = True
                    children.append((nb, bi))
                    stack.append(nb)
                else:
                    bond = bonds[bi]
                    back_edges_at.setdefault(bond.a, []).append(bi)
                    back_edges_at.setdefault(bond.b, []).append(bi)
            tree_children[a] = children

        # emit; all children but the last are parenthesised
        opened_digit: dict[int, int] = {}
        emit: list[tuple[str, int, int]] = [("atom", root, -1)]
        while emit:
            kind, a, bi = emit.pop()
            if kind == "text":
                pieces.append(")" if a else "(")
                continue
            if bi >= 0:
                bond = bonds[bi]
                both = atoms[bond.a].aromatic and atoms[bond.b].aromatic
                src = bond.a if a == bond.b else bond.b
                pieces.append(_bond_token(bond, src, both))
            pieces.append(_atom_token(atoms[a]))
            order.append(a)
            for rbi in back_edges_at.get(a, ()):
                rbond = bonds[rbi]
                if rbi not in opened_digit:
                    both = atoms[rbond.a].aromatic and atoms[rbond.b].aromatic
                    digit = digit_free.pop()
                    opened_digit[rbi] = digit
                    pieces.append(_bond_token(rbond, a, both))
                else:
                    digit = opened_digit[rbi]
                    digit_free.append(digit)
                pieces.append(str(digit) if digit < 10 else f"%{digit:02d}")
            children = tree_children.get(a, [])
            if children:
                last, last_bi = children[-1]
                emit.append(("atom", last, last_bi))
                for child, cbi in reversed(children[:-1]):
                    emit.append(("text", 1, -1))
                    emit.append(("atom", child, cbi))
                    emit.append(("text", 0, -1))
    return "".join(pieces), order


def write_smiles(graph: MolecularGraph) -> str:
    """Serialize a graph back to SMILES (re-parses to an isomorphic graph)."""
    return write_smiles_mapped(graph)[0]
