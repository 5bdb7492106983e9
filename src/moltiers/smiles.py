"""SMILES parsing over a practical organic-chemistry subset.

Supported notation: organic-subset atoms (B C N O P S F Cl Br I), aromatic
lowercase atoms (b c n o p s), bracket atoms with isotope / chirality /
H-count / charge, bond symbols ``- = # : / \\``, ring closures (digits and
``%nn``), branches, and dot-separated components.  Reaction SMILES,
wildcards, atom classes, and quadruple bonds are rejected.

Parsing is total: every input string either yields a ``MolecularGraph`` or
raises a ``SmilesError`` subclass carrying the byte offset of the problem.
The parser fills only the graph's arrays, in the one loop that reads the
atoms and bonds: elements and aromatic flags, bond endpoints and orders,
valence sums, one ``(charge, H count, chirality, isotope)`` entry per
bracket atom, chiral atoms, stereo marks and the ring count.  Those arrays
are the whole molecule: no object stands for an atom or a bond.  The
package writes no SMILES: a record carries its input string as read.
"""

from __future__ import annotations

from operator import gt
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
# what a bond of each order adds to its atoms' valence sums: aromatic bonds
# count one
_VALENCE_UNITS = (0, SINGLE, DOUBLE, TRIPLE, 1)


def _organic(element: str, aromatic: bool,
             second: str = "") -> tuple[str, bool, int, str]:
    """An unbracketed atom: element, aromatic flag, the largest valence sum
    it may have (one unit more for the delocalised bond when aromatic), and
    the letter that makes it a two-letter element."""
    return element, aromatic, VALENCES[element][-1] + aromatic, second


# unbracketed atoms by first letter; "Cl" and "Br" by both
_ORGANIC_ATOM = {c: _organic(c, False, {"C": "l", "B": "r"}.get(c, ""))
                 for c in "BCNOPSFI"}
_ORGANIC_ATOM.update((c, _organic(c.upper(), True)) for c in "bcnops")
_ORGANIC_ATOM.update((el, _organic(el, False)) for el in ("Cl", "Br"))
# bracket atoms carry explicit hydrogen counts and charges, which shift
# valence in ways the neutral table cannot capture: they are accepted as
# written
_UNCHECKED = 1 << 30


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


def _count_components(n_atoms: int, ends: list[tuple[int, int]]) -> int:
    """Connected components of the graph on ``n_atoms`` atoms with these
    bond endpoints (union-find)."""
    parent = list(range(n_atoms))
    count = n_atoms
    for a, b in ends:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            count -= 1
    return count


class MolecularGraph:
    """Immutable-by-convention molecular graph: the per-molecule arrays that
    every analysis reads.

    ``adj[i]`` lists ``(neighbor_index, bond_index)`` pairs in bond order;
    ``ends`` holds each bond's ``(a, b)`` and ``orders`` its order;
    ``elements`` and ``aromatic`` hold each atom's symbol and flag;
    ``valence`` is each atom's bond-order sum, aromatic bonds counting one;
    ``brackets`` maps each bracket atom to its ``(charge, H count,
    chirality, isotope)`` and ``explicit_h`` to its H count; ``n_chiral``
    counts atoms with a chirality mark and ``stereo`` maps each bond with a
    direction mark to it; ``n_ring`` is the cyclomatic number, bonds - atoms
    + components.  ``degree`` counts heavy neighbours; ``element_sites`` maps
    each element to its atom indices, in index order; ``features`` is the
    molecule's ``feature_mask``.  ``rings`` is filled in by the graph
    module's ring perception the first time it runs.

    ``parse_smiles`` fills the arrays as it reads the atoms and bonds and
    ``with_flags`` shares most of them; both hand them to ``__init__``,
    which derives the rest.  Treat graphs as frozen after construction so
    they can be shared freely across worker processes.
    """

    __slots__ = ("adj", "ends", "orders", "elements", "aromatic", "valence",
                 "brackets", "explicit_h", "n_chiral", "stereo", "n_ring",
                 "degree", "element_sites", "n_heavy", "features", "rings",
                 "source")

    def __init__(self, source, brackets, adj, ends, orders, elements, aromatic,
                 element_sites, valence, explicit_h, n_chiral, stereo, n_ring,
                 rings=None):
        """Set the arrays and derive heavy degrees, ``n_heavy`` and
        ``features`` from them: the one place those are computed."""
        degree = [len(nbrs) for nbrs in adj]
        hydrogens = element_sites.get("H", ())
        for h in hydrogens:
            for nb, _ in adj[h]:
                degree[nb] -= 1
        self.adj = adj
        self.ends = ends
        self.orders = orders
        self.elements = elements
        self.aromatic = aromatic
        self.valence = valence
        self.brackets = brackets
        self.explicit_h = explicit_h
        self.n_chiral = n_chiral
        self.stereo = stereo
        self.n_ring = n_ring
        self.degree = degree
        self.element_sites = element_sites
        self.n_heavy = len(elements) - len(hydrogens)
        self.features = feature_mask(
            {el: len(sites) for el, sites in element_sites.items()}, set(orders))
        self.rings = rings
        self.source = source

    # The benchmark's traced probe counts ``len(graph.atoms)`` and
    # ``len(graph.bonds)``.  Until it reads ``elements`` and ``ends`` itself,
    # these hand it those lists: one entry per atom or bond, nothing built.
    @property
    def atoms(self) -> list[str]:
        return self.elements

    @property
    def bonds(self) -> list[tuple[int, int]]:
        return self.ends

    def with_flags(self, orders: list[int], aromatic: list[bool],
                   valence: list[int]) -> MolecularGraph:
        """This molecule with other bond orders, aromatic flags and the
        valence sums they give: topology, element sites, marks and rings are
        shared."""
        return MolecularGraph(
            self.source, self.brackets, self.adj, self.ends, orders,
            self.elements, aromatic, self.element_sites, valence,
            self.explicit_h, self.n_chiral, self.stereo, self.n_ring, self.rings)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MolecularGraph):
            return NotImplemented
        return ((self.elements, self.aromatic, self.ends, self.orders,
                 self.stereo, self.brackets, self.source)
                == (other.elements, other.aromatic, other.ends, other.orders,
                    other.stereo, other.brackets, other.source))

    __hash__ = None

    def __repr__(self) -> str:
        return (f"MolecularGraph(source={self.source!r}, "
                f"atoms={len(self.elements)}, bonds={len(self.ends)})")


def parse_smiles(text: str) -> MolecularGraph:
    """Parse ``text`` into a MolecularGraph or raise a SmilesError.

    The graph's arrays are filled in the same loop that reads
    the atoms and bonds, so no later pass walks them again.
    """
    if not text:
        raise EmptyInput("empty SMILES", 0)
    if not text.isascii():
        for off, ch in enumerate(text):
            if ord(ch) > 127:
                raise UnknownElement(f"non-ASCII byte {ch!r}", off)

    atom_offsets: list[int] = []
    limits: list[int] = []
    elements: list[str] = []
    aromatic: list[bool] = []
    valence = [0] * len(text)  # no more atoms than characters; cut at the end
    adj: list[list[tuple[int, int]]] = []
    ends: list[tuple[int, int]] = []
    orders: list[int] = []
    sites: dict[str, list[int]] = {}
    brackets: dict[int, tuple[int, int, int, int]] = {}
    explicit_h: dict[int, int] = {}
    stereo_marks: dict[int, int] = {}
    n_chiral = 0
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
            b = len(elements)
            if token is not None:
                element, arom, limit, second = token
                i += 1
                if second and i < n and text[i] == second:
                    element, arom, limit, _ = _ORGANIC_ATOM[c + second]
                    i += 1
            else:
                element, arom, entry, i = _parse_bracket(text, i)
                limit = _UNCHECKED
                brackets[b] = entry
                explicit_h[b] = entry[1]
                if entry[2] != CHI_NONE:
                    n_chiral += 1
            atom_offsets.append(offset)
            limits.append(limit)
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
        bi = len(orders)
        ends.append((a, b))
        orders.append(order)
        units = _VALENCE_UNITS[order]
        valence[a] += units
        valence[b] += units
        if stereo:
            stereo_marks[bi] = stereo
        adj[a].append((b, bi))
        adj[b].append((a, bi))

    if pend_order:
        raise DanglingBond("bond symbol at end of input", pend_offset)
    if stack:
        raise UnbalancedParenthesis("unclosed '('", paren_offsets[0])
    if open_rings:
        off = min(v[3] for v in open_rings.values())
        raise UnmatchedRingClosure("unclosed ring bond", off)
    if not elements:
        raise EmptyInput("no atoms in SMILES", 0)
    del valence[len(elements):]
    if any(map(gt, valence, limits)):
        k = next(k for k, (v, limit) in enumerate(zip(valence, limits)) if v > limit)
        raise ValenceError(
            f"{elements[k]} with valence {valence[k]} exceeds {limits[k]}",
            atom_offsets[k],
        )

    n_ring = len(ends) - len(elements) + _count_components(len(elements), ends)
    return MolecularGraph(
        text, brackets, adj, ends, orders, elements, aromatic, sites, valence,
        explicit_h, n_chiral, stereo_marks, n_ring)


def _parse_bracket(text: str, start: int
                   ) -> tuple[str, bool, tuple[int, int, int, int], int]:
    """Parse a bracket atom beginning at ``text[start] == '['``: its element,
    aromatic flag, ``(charge, H count, chirality, isotope)`` entry and the
    offset past its ``]``."""
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
    return symbol, aromatic, (charge, hcount, chirality, isotope), i + 1


def _implicit_h(element: str, aromatic: bool, valence: int) -> int:
    """Implicit H count of an unbracketed atom with this valence sum; none
    for an element outside the valence model, such as a hand-built H."""
    for v in VALENCES.get(element, ()):
        if valence <= v:
            # one hydrogen is withheld for an aromatic atom's delocalised
            # electron
            return v - valence - 1 if aromatic and v > valence else v - valence
    return 0


# mass of an unbracketed atom with its implicit hydrogens, by (element,
# aromatic flag, valence sum); filled as keys are met
_UNBRACKETED_MASS: dict[tuple[str, bool, int], float] = {}


def implicit_hydrogens(graph: MolecularGraph) -> list[int]:
    """Implicit H count per atom under the standard valence model.

    Bracket atoms use their explicit count.  For aromatic atoms, aromatic
    bonds count one each and one hydrogen is withheld for the delocalised
    electron, which reproduces the usual counts (benzene CH, pyridine N).
    """
    explicit = graph.explicit_h
    return [explicit[i] if i in explicit else _implicit_h(*key)
            for i, key in enumerate(zip(graph.elements, graph.aromatic, graph.valence))]


def molecular_weight(graph: MolecularGraph) -> float:
    """Molecular weight in Da, implicit hydrogens included."""
    explicit = graph.explicit_h
    masses = _UNBRACKETED_MASS
    mass = 0.0
    for i, key in enumerate(zip(graph.elements, graph.aromatic, graph.valence)):
        if i in explicit:
            mass += ATOMIC_MASS[key[0]] + HYDROGEN_MASS * explicit[i]
            continue
        m = masses.get(key)
        if m is None:
            m = masses[key] = ATOMIC_MASS[key[0]] + HYDROGEN_MASS * _implicit_h(*key)
        mass += m
    return mass
