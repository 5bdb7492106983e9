"""SMILES parsing over a practical organic-chemistry subset.

Supported notation: organic-subset atoms (B C N O P S F Cl Br I), aromatic
lowercase atoms (b c n o p s), bracket atoms with isotope / chirality /
H-count / charge, bond symbols ``- = # : / \\``, ring closures (digits and
``%nn``), branches, and dot-separated components.  Reaction SMILES,
wildcards, atom classes, and quadruple bonds are rejected.

Parsing is total: every input string either yields a ``MolecularGraph`` or
raises a ``SmilesError`` subclass carrying the byte offset of the problem.
The parser fills the graph's ``MolView`` arrays in the loop that reads the
atoms and bonds; ``MolView(graph)`` builds the same view for a graph built
by hand.  The package writes no SMILES: a record carries its input
string as read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .elements import (
    AROMATIC_BRACKET,
    AROMATIC_ORGANIC,
    ATOMIC_MASS,
    HYDROGEN_MASS,
    KNOWN_ELEMENTS,
    VALENCES,
)
from .errors import (
    AromaticBondError,
    DanglingBond,
    EmptyInput,
    InvalidBracketAtom,
    UnbalancedParenthesis,
    UnknownElement,
    UnmatchedRingClosure,
    ValenceError,
)

# Chirality marks
CHI_NONE = 0
CHI_AT = 1       # @
CHI_AT_AT = 2    # @@

# Bond orders
SINGLE = 1
DOUBLE = 2
TRIPLE = 3
AROMATIC = 4

# Bond stereo marks (direction is relative to the bond's endpoint order)
STEREO_NONE = 0
STEREO_UP = 1    # '/'
STEREO_DOWN = 2  # '\'

_BOND_CHAR_ORDER = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC,
                    "/": SINGLE, "\\": SINGLE}
_BOND_CHAR_STEREO = {"/": STEREO_UP, "\\": STEREO_DOWN}
# unbracketed atoms: first letter -> (element, aromatic); "Cl" and "Br" take
# the second letter that follows their first
_ORGANIC_ATOM = {c: (c, False) for c in "BCNOPSFI"}
_ORGANIC_ATOM.update((c, (c.upper(), True)) for c in "bcnops")
_SECOND_LETTER = {"C": "l", "B": "r"}


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


# Bits of a feature mask: one per bond order, then per element one bit for
# each count threshold 1..FEATURE_MAX_COUNT.
FEATURE_MAX_COUNT = 3
_ELEMENT_SHIFT = {
    el: AROMATIC + 1 + FEATURE_MAX_COUNT * k for k, el in enumerate(ATOMIC_MASS)
}


def feature_mask(element_counts: dict[str, int], orders: Iterable[int]) -> int:
    """The bond orders present and the element counts, as one integer.

    Counts above FEATURE_MAX_COUNT set the same bits as FEATURE_MAX_COUNT.
    A molecule with every order and at least the element counts of some
    requirement therefore has all of the requirement's bits, so a pattern
    whose mask a molecule's mask lacks cannot match it.
    """
    mask = 0
    for order in orders:
        mask |= 1 << order
    for el, count in element_counts.items():
        shift = _ELEMENT_SHIFT.get(el)
        if shift is not None and count > 0:
            mask |= ((1 << min(count, FEATURE_MAX_COUNT)) - 1) << shift
    return mask


class MolView:
    """Per-molecule indices, built once per graph and shared by every analysis.

    ``adj[i]`` lists ``(neighbor_index, bond_index)`` pairs in bond order;
    ``orders`` holds each bond's order; ``degree`` counts heavy neighbours;
    ``element_sites`` maps each element to its atom indices, in index order;
    ``features`` is the molecule's ``feature_mask``.  ``rings`` is filled in
    by the graph module's ring perception the first time it runs.

    ``parse_smiles`` fills the arrays as it reads the atoms and bonds and
    sets the graph's view itself; ``MolView(graph)`` walks a graph built by
    hand.  Both derive the rest in ``_fill``.
    """

    __slots__ = ("adj", "orders", "elements", "aromatic", "degree",
                 "element_sites", "n_heavy", "features", "rings")

    def __init__(self, graph: MolecularGraph):
        atoms = graph.atoms
        adj: list[list[tuple[int, int]]] = [[] for _ in atoms]
        orders = []
        for bi, bond in enumerate(graph.bonds):
            adj[bond.a].append((bond.b, bi))
            adj[bond.b].append((bond.a, bi))
            orders.append(bond.order)
        elements = [a.element for a in atoms]
        sites: dict[str, list[int]] = {}
        for i, el in enumerate(elements):
            if el in sites:
                sites[el].append(i)
            else:
                sites[el] = [i]
        self._fill(adj, orders, elements, [a.aromatic for a in atoms], sites)

    def _fill(self, adj, orders, elements, aromatic, element_sites,
              rings=None) -> MolView:
        """Set the arrays and derive heavy degrees, ``n_heavy`` and
        ``features`` from them: the one place those are computed."""
        degree = [len(nbrs) for nbrs in adj]
        hydrogens = element_sites.get("H", ())
        for h in hydrogens:
            for nb, _ in adj[h]:
                degree[nb] -= 1
        self.adj = adj
        self.orders = orders
        self.elements = elements
        self.aromatic = aromatic
        self.degree = degree
        self.element_sites = element_sites
        self.n_heavy = len(elements) - len(hydrogens)
        self.features = feature_mask(
            {el: len(sites) for el, sites in element_sites.items()}, set(orders))
        self.rings = rings
        return self

    def with_flags(self, graph: MolecularGraph) -> MolView:
        """The view of ``graph``, a copy of this view's molecule that differs
        only in bond orders and aromatic flags: topology, element sites and
        rings are shared."""
        return MolView.__new__(MolView)._fill(
            self.adj, [bond.order for bond in graph.bonds], self.elements,
            [atom.aromatic for atom in graph.atoms], self.element_sites,
            self.rings)


@dataclass(slots=True)
class MolecularGraph:
    """Immutable-by-convention molecular graph.

    ``atoms`` are stored in input order; treat graphs as frozen after
    construction so they can be shared freely across worker processes.
    """

    atoms: list[Atom] = field(default_factory=list)
    bonds: list[Bond] = field(default_factory=list)
    source: str = ""
    _view: MolView | None = field(default=None, repr=False, compare=False)
    _valences: list[int] | None = field(default=None, repr=False, compare=False)

    def view(self) -> MolView:
        """The per-molecule indices: set by ``parse_smiles``, built on first
        use for any other graph and memoised; safe because graphs never
        change after construction."""
        if self._view is None:
            self._view = MolView(self)
        return self._view

    def valences(self) -> list[int]:
        """Per-atom bond-order sums, aromatic bonds counting one; memoised,
        so the parser's valence check and the hydrogen count share them."""
        if self._valences is None:
            self._valences = _explicit_valences(self)
        return self._valences


def parse_smiles(text: str) -> MolecularGraph:
    """Parse ``text`` into a MolecularGraph or raise a SmilesError.

    The graph's ``MolView`` arrays (adjacency, bond orders, elements,
    aromatic flags, element sites) are filled in the same loop that reads
    the atoms and bonds, so no later pass walks them again.
    """
    if not text:
        raise EmptyInput("empty SMILES", 0)
    if not text.isascii():
        for off, ch in enumerate(text):
            if ord(ch) > 127:
                raise UnknownElement(f"non-ASCII byte {ch!r}", off)

    atoms: list[Atom] = []
    bonds: list[Bond] = []
    atom_offsets: list[int] = []
    elements: list[str] = []
    aromatic: list[bool] = []
    adj: list[list[tuple[int, int]]] = []
    orders: list[int] = []
    sites: dict[str, list[int]] = {}
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
    while i < n:
        # each pass reads one token; an atom or a ring closure then falls
        # through to add the bond a-b of ``order`` and ``stereo``
        c = text[i]
        token = _ORGANIC_ATOM.get(c)
        if token is not None or c == "[":
            offset = i
            if token is not None:
                element, arom = token
                i += 1
                if i < n and text[i] == _SECOND_LETTER.get(c):
                    element = c + text[i]
                    i += 1
                atom = Atom(element, arom, 0, None, CHI_NONE, 0, len(atoms))
            else:
                atom, i = _parse_bracket(text, i)
                atom.index = len(atoms)
                element = atom.element
                arom = atom.aromatic
            b = atom.index
            atoms.append(atom)
            atom_offsets.append(offset)
            elements.append(element)
            aromatic.append(arom)
            adj.append([])
            if element in sites:
                sites[element].append(b)
            else:
                sites[element] = [b]
            a = prev
            order = pend_order
            stereo = pend_stereo
            prev = b
            pend_order = 0
            pend_stereo = STEREO_NONE
            if a < 0:
                if order:
                    raise DanglingBond("bond symbol with no preceding atom", pend_offset)
                continue
        elif c == "(":
            if pend_order:
                raise DanglingBond("bond symbol before branch open", pend_offset)
            if prev < 0:
                raise UnbalancedParenthesis("branch opened before any atom", i)
            stack.append(prev)
            paren_offsets.append(i)
            i += 1
            continue
        elif c == ")":
            if pend_order:
                raise DanglingBond("bond symbol before branch close", pend_offset)
            if not stack:
                raise UnbalancedParenthesis("unmatched ')'", i)
            prev = stack.pop()
            paren_offsets.pop()
            i += 1
            continue
        elif c in _BOND_CHAR_ORDER:
            if pend_order:
                raise DanglingBond("two bond symbols in a row", i)
            pend_order = _BOND_CHAR_ORDER[c]
            pend_stereo = _BOND_CHAR_STEREO.get(c, STEREO_NONE)
            pend_offset = i
            i += 1
            continue
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
            if num not in open_rings:
                open_rings[num] = (prev, pend_order, pend_stereo, i)
                pend_order = 0
                pend_stereo = STEREO_NONE
                i += width
                continue
            a, o_order, o_stereo, _ = open_rings.pop(num)
            if o_order and pend_order and o_order != pend_order:
                raise UnmatchedRingClosure("ring closure bond order conflict", i)
            b = prev
            order = pend_order or o_order
            stereo = pend_stereo or o_stereo
            offset = i
            if a == b:
                raise UnmatchedRingClosure("ring closure bonds an atom to itself", i)
            for nb, _ in adj[a]:
                if nb == b:
                    raise UnmatchedRingClosure("duplicate bond between atom pair", i)
            pend_order = 0
            pend_stereo = STEREO_NONE
            i += width
        elif c == ".":
            if pend_order:
                raise DanglingBond("bond symbol before '.'", pend_offset)
            prev = -1
            i += 1
            continue
        else:
            raise UnknownElement(f"unexpected character {c!r}", i)

        if order == 0:
            order = AROMATIC if aromatic[a] and aromatic[b] else SINGLE
        elif order == AROMATIC and not (aromatic[a] and aromatic[b]):
            raise AromaticBondError("aromatic bond on non-aromatic atom", offset)
        bi = len(bonds)
        bonds.append(Bond(a, b, order, stereo))
        orders.append(order)
        adj[a].append((b, bi))
        adj[b].append((a, bi))

    if pend_order:
        raise DanglingBond("bond symbol at end of input", pend_offset)
    if stack:
        raise UnbalancedParenthesis("unclosed '('", paren_offsets[0])
    if open_rings:
        off = min(v[3] for v in open_rings.values())
        raise UnmatchedRingClosure("unclosed ring bond", off)
    if not atoms:
        raise EmptyInput("no atoms in SMILES", 0)

    graph = MolecularGraph(atoms, bonds, text,
                           MolView.__new__(MolView)._fill(
                               adj, orders, elements, aromatic, sites))
    _check_valences(graph, atom_offsets)
    return graph


def _parse_bracket(text: str, start: int) -> tuple[Atom, int]:
    """Parse a bracket atom beginning at ``text[start] == '['``."""
    n = len(text)
    i = start + 1
    isotope = 0
    ndig = 0
    while i < n and text[i].isdigit():
        isotope = isotope * 10 + int(text[i])
        i += 1
        ndig += 1
        if ndig > 3:
            raise InvalidBracketAtom("isotope longer than 3 digits", start)
    if i >= n:
        raise InvalidBracketAtom("unterminated bracket atom", start)

    aromatic = False
    c = text[i]
    if c.islower():
        two = text[i : i + 2]
        if two in AROMATIC_BRACKET:
            symbol = two.capitalize()
            i += 2
        elif c in AROMATIC_ORGANIC:
            symbol = c.upper()
            i += 1
        else:
            raise UnknownElement(f"unknown aromatic symbol {c!r}", i)
        aromatic = True
    elif c.isupper():
        if i + 1 < n and text[i + 1].islower() and text[i : i + 2] in KNOWN_ELEMENTS:
            symbol = text[i : i + 2]
            i += 2
        else:
            symbol = c
            i += 1
        if symbol not in KNOWN_ELEMENTS:
            raise UnknownElement(f"unknown element {symbol!r}", start + 1)
    else:
        raise InvalidBracketAtom(f"expected element symbol, got {c!r}", i)

    chirality = CHI_NONE
    if i < n and text[i] == "@":
        if i + 1 < n and text[i + 1] == "@":
            chirality = CHI_AT_AT
            i += 2
        else:
            chirality = CHI_AT
            i += 1

    hcount = 0
    if i < n and text[i] == "H":
        i += 1
        if i < n and text[i].isdigit():
            hcount = int(text[i])
            i += 1
        else:
            hcount = 1

    charge = 0
    if i < n and text[i] in "+-":
        sign = 1 if text[i] == "+" else -1
        mark = text[i]
        i += 1
        if i < n and text[i].isdigit():
            charge = sign * int(text[i])
            i += 1
        else:
            charge = sign
            while i < n and text[i] == mark:
                charge += sign
                i += 1
    if not -4 <= charge <= 4:
        raise InvalidBracketAtom(f"charge {charge:+d} out of range [-4, +4]", start)

    if i >= n or text[i] != "]":
        raise InvalidBracketAtom("expected ']'", i if i < n else start)
    return (
        Atom(symbol, aromatic=aromatic, formal_charge=charge, explicit_h=hcount,
             chirality=chirality, isotope=isotope),
        i + 1,
    )


def _explicit_valences(graph: MolecularGraph) -> list[int]:
    """Sum of bond orders per atom, counting aromatic bonds as one."""
    val = [0] * len(graph.atoms)
    for bond in graph.bonds:
        o = bond.order if bond.order != AROMATIC else 1
        val[bond.a] += o
        val[bond.b] += o
    return val


def _check_valences(graph: MolecularGraph, offsets: list[int]) -> None:
    """Reject unbracketed atoms whose bonds exceed the valence table.

    Bracket atoms carry explicit hydrogen counts and charges, which shift
    valence in ways the neutral table cannot capture, so they are accepted
    as written.  Aromatic atoms are granted one extra unit to cover the
    delocalised bond.
    """
    val = graph.valences()
    for atom in graph.atoms:
        if atom.explicit_h is not None:
            continue
        allowed = VALENCES[atom.element]
        limit = allowed[-1] + (1 if atom.aromatic else 0)
        if val[atom.index] > limit:
            raise ValenceError(
                f"{atom.element} with valence {val[atom.index]} exceeds {limit}",
                offsets[atom.index],
            )


def implicit_hydrogens(graph: MolecularGraph) -> list[int]:
    """Implicit H count per atom under the standard valence model.

    Bracket atoms use their explicit count.  For aromatic atoms, aromatic
    bonds count one each and one hydrogen is withheld for the delocalised
    electron, which reproduces the usual counts (benzene CH, pyridine N).
    """
    val = graph.valences()
    out = [0] * len(graph.atoms)
    for atom in graph.atoms:
        if atom.explicit_h is not None:
            out[atom.index] = atom.explicit_h
            continue
        ev = val[atom.index]
        h = 0
        for v in VALENCES[atom.element]:
            if ev <= v:
                h = v - ev
                break
        if atom.aromatic and h > 0:
            h -= 1
        out[atom.index] = h
    return out


def molecular_weight(graph: MolecularGraph) -> float:
    """Molecular weight in Da, implicit hydrogens included."""
    hs = implicit_hydrogens(graph)
    mass = 0.0
    for atom in graph.atoms:
        mass += ATOMIC_MASS[atom.element] + HYDROGEN_MASS * hs[atom.index]
    return mass
