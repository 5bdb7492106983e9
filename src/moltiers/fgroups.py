"""Functional-group pattern library, subgraph matcher, and corpus prevalence.

Patterns are small constraint graphs (1-6 atoms): per-atom element set,
aromatic flag, and heavy-degree bounds; per-bond allowed order sets.  This
deliberately covers far less than a full query language -- no recursion, no
logic operators -- but it is enough to express the default 31-group library.

Each pattern is compiled once into a flat plan (``_compile``): one step per
pattern atom, its constraint fields unpacked, rooted on the most selective
atom.  ``present_groups`` runs the plans through one iterative search
(``_search``) over the molecule graph's arrays, which stops each plan at its
first embedding, with inline checks in place of ``AtomConstraint.admits``;
``admits`` stays the definition the brute-force oracle tests the search
against.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import EmptyCorpus
from .smiles import (
    AROMATIC,
    DOUBLE,
    SINGLE,
    TRIPLE,
    MolecularGraph,
    feature_mask,
)

_ORDER_BY_NAME = {
    "single": SINGLE,
    "double": DOUBLE,
    "triple": TRIPLE,
    "aromatic": AROMATIC,
}


class AtomConstraint(NamedTuple):
    elements: frozenset[str]
    aromatic: bool | None = None
    min_deg: int = 0
    max_deg: int | None = None

    def admits(self, element: str, aromatic: bool, degree: int) -> bool:
        if element not in self.elements:
            return False
        if self.aromatic is not None and aromatic != self.aromatic:
            return False
        if degree < self.min_deg:
            return False
        if self.max_deg is not None and degree > self.max_deg:
            return False
        return True


class BondConstraint(NamedTuple):
    a: int
    b: int
    orders: frozenset[int]


class FunctionalGroupPattern:
    """A named constraint graph of 1-6 atoms whose bonds each join two of
    its atoms, compiled once into its search plan (see ``_compile``)."""

    def __init__(self, name: str, atoms: list[AtomConstraint],
                 bonds: list[BondConstraint]):
        if not 1 <= len(atoms) <= 6:
            raise ValueError(f"pattern {name!r} must have 1-6 atoms")
        for bond in bonds:
            if bond.a == bond.b or not (0 <= bond.a < len(atoms)
                                        and 0 <= bond.b < len(atoms)):
                raise ValueError(f"pattern {name!r}: bond {bond.a}-{bond.b} does "
                                 f"not join two of its {len(atoms)} atoms")
        self.name = name
        self.atoms = atoms
        self.bonds = bonds
        self._plan = _compile(self)

    def __eq__(self, other: object) -> bool:
        if type(other) is not FunctionalGroupPattern:
            return NotImplemented
        return ((self.name, self.atoms, self.bonds)
                == (other.name, other.atoms, other.bonds))

    def __repr__(self) -> str:
        return (f"FunctionalGroupPattern(name={self.name!r}, atoms={self.atoms!r}, "
                f"bonds={self.bonds!r})")

    def required_elements(self) -> dict[str, int]:
        """Lower bound on element counts a molecule needs to match."""
        need: dict[str, int] = {}
        for c in self.atoms:
            if len(c.elements) == 1:
                (el,) = c.elements
                need[el] = need.get(el, 0) + 1
        return need

    def required_orders(self) -> frozenset[int]:
        return frozenset(
            next(iter(b.orders)) for b in self.bonds if len(b.orders) == 1
        )


# stands for max_deg=None in a compiled step, so a degree check is one
# chained comparison
_NO_MAX_DEG = 1 << 30


def _compile(pattern: FunctionalGroupPattern) -> tuple:
    """The pattern as one flat search plan.

    The plan is ``(name, features, root_site, pair, steps)``: ``features``
    is the ``feature_mask`` of the required elements and orders, so a
    molecule whose ``graph.features`` lacks any of its bits cannot match;
    ``root_site`` is the root atom's element when it allows only one (its
    candidates are then that element's sites) and None otherwise; ``pair``
    is True for a two-atom pattern the root loop finishes.  Step ``k`` is
    ``(anchor, anchor_orders, elements, aromatic, min_deg, max_deg,
    extras)``: the atom is a neighbour of step ``anchor``'s atom through a
    bond of ``anchor_orders`` (-1 and None for the root), and ``extras``
    lists ``(earlier_step, allowed_orders)`` for its other bonds to atoms
    already placed.
    """
    n = len(pattern.atoms)
    adj: list[list[tuple[int, frozenset[int]]]] = [[] for _ in range(n)]
    for bc in pattern.bonds:
        adj[bc.a].append((bc.b, bc.orders))
        adj[bc.b].append((bc.a, bc.orders))
    # root on the most selective atom: fewest allowed elements, prefer non-C
    def selectivity(i: int) -> tuple:
        c = pattern.atoms[i]
        return (c.elements == frozenset({"C"}), -len(adj[i]))

    root = min(range(n), key=selectivity)
    order = [root]
    placed = {root}
    while len(order) < n:
        nxt = None
        for i in order:
            for j, _ in adj[i]:
                if j not in placed:
                    nxt = j
                    break
            if nxt is not None:
                break
        if nxt is None:
            raise ValueError(f"pattern {pattern.name!r} is not connected")
        order.append(nxt)
        placed.add(nxt)
    pos_of = {atom: k for k, atom in enumerate(order)}
    steps = []
    for k, atom in enumerate(order):
        anchor = -1
        anchor_orders = None
        extras = []
        for j, orders in adj[atom]:
            if pos_of[j] < k:
                if anchor == -1:
                    anchor = pos_of[j]
                    anchor_orders = orders
                else:
                    extras.append((pos_of[j], orders))
        c = pattern.atoms[atom]
        steps.append((anchor, anchor_orders, c.elements, c.aromatic, c.min_deg,
                      _NO_MAX_DEG if c.max_deg is None else c.max_deg,
                      tuple(extras)))
    root_elements = pattern.atoms[root].elements
    root_site = next(iter(root_elements)) if len(root_elements) == 1 else None
    features = feature_mask(pattern.required_elements(), pattern.required_orders())
    pair = n == 2 and not steps[1][6]
    return (pattern.name, features, root_site, pair, tuple(steps))


class PrevalenceTable(NamedTuple):
    prevalence: dict[str, float]
    corpus_size: int


class FGLibrary:
    """An immutable set of uniquely named patterns."""

    def __init__(self, patterns: list[FunctionalGroupPattern]):
        names: set[str] = set()
        for p in patterns:
            if p.name in names:
                raise ValueError(f"pattern {p.name!r} appears twice")
            names.add(p.name)
        self.patterns = list(patterns)
        self._plans = tuple(p._plan for p in self.patterns)

    def __len__(self) -> int:
        return len(self.patterns)

    def names(self) -> list[str]:
        return [p.name for p in self.patterns]

    @classmethod
    def from_dict(cls, payload: dict) -> FGLibrary:
        """The library of a ``{"patterns": [...]}`` payload, the form of the
        JSON file.  Raises ValueError, naming the pattern, for an entry that
        is not a well-formed pattern."""
        entries = payload.get("patterns") if isinstance(payload, dict) else None
        if not isinstance(entries, list):
            raise ValueError('a library is a JSON object with a "patterns" list')
        return cls([_pattern_from_dict(k, item) for k, item in enumerate(entries)])

    @classmethod
    def from_json(cls, path) -> FGLibrary:
        """``from_dict`` of a JSON file; a ValueError names the path."""
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


_ABSENT = object()


def _get(entry: object, key: str, kinds: tuple[type, ...],
         default: object = _ABSENT):
    """``entry[key]``, whose type must be one of ``kinds`` (exactly, so a
    JSON true or false is no count); ``default`` when absent."""
    if not isinstance(entry, dict):
        raise ValueError(f"{entry!r} is not a JSON object")
    value = entry.get(key, default)
    if value is _ABSENT:
        raise ValueError(f'an entry lacks "{key}"')
    if value is not default and type(value) not in kinds:
        raise ValueError(f'"{key}" is {value!r}')
    return value


def _pattern_from_dict(k: int, item: object) -> FunctionalGroupPattern:
    """Library entry ``k`` as a pattern; ValueError names it."""
    name = item.get("name") if isinstance(item, dict) else None
    try:
        atoms = []
        for a in _get(item, "atoms", (list,)):
            elements = _get(a, "elements", (list,))
            if not all(isinstance(el, str) for el in elements):
                raise ValueError(f'"elements" is {elements!r}')
            atoms.append(AtomConstraint(
                frozenset(elements),
                _get(a, "aromatic", (bool, type(None)), None),
                _get(a, "min_deg", (int,), 0),
                _get(a, "max_deg", (int, type(None)), None),
            ))
        bonds = []
        for b in _get(item, "bonds", (list,)):
            orders = set()
            for order in _get(b, "orders", (list,)):
                if not isinstance(order, str) or order not in _ORDER_BY_NAME:
                    raise ValueError(f"unknown bond order {order!r}")
                orders.add(_ORDER_BY_NAME[order])
            bonds.append(BondConstraint(_get(b, "a", (int,)), _get(b, "b", (int,)),
                                        frozenset(orders)))
        name = _get(item, "name", (str,))
    except ValueError as exc:
        label = repr(name) if isinstance(name, str) else f"#{k}"
        raise ValueError(f"pattern {label}: {exc}") from None
    return FunctionalGroupPattern(name, atoms, bonds)


_DEFAULT: FGLibrary | None = None


def default_library() -> FGLibrary:
    global _DEFAULT
    if _DEFAULT is None:
        # read beside this module: importlib.resources loads inspect on
        # Python 3.12 and later, which no command needs otherwise
        text = (Path(__file__).parent / "data" / "functional_groups.json"
                ).read_text(encoding="utf-8")
        _DEFAULT = FGLibrary.from_dict(json.loads(text))
        assert len(_DEFAULT) == 31
    return _DEFAULT


def _search(graph: MolecularGraph, plans: tuple) -> list[str]:
    """Names of the compiled plans with an embedding in the molecule.

    A plan is tried only when the molecule has its features, and stops at
    its first embedding.  Backtracking keeps one cursor per step into its
    anchor atom's neighbour list, and an atom is free when it is not in
    ``assign``: no recursion, generator or set.
    """
    adj = graph.adj
    orders = graph.orders
    elements = graph.elements
    aromatic = graph.aromatic
    degree = graph.degree
    sites = graph.element_sites
    features = graph.features
    names = []
    for name, required, root_site, pair, steps in plans:
        if features & required != required:
            continue
        _, _, r_elements, r_aromatic, r_min, r_max, _ = steps[0]
        n = len(steps)
        hit = False
        for r in range(len(elements)) if root_site is None else sites.get(root_site, ()):
            if (elements[r] not in r_elements
                    or (r_aromatic is not None and aromatic[r] != r_aromatic)
                    or not r_min <= degree[r] <= r_max):
                continue
            if n == 1:
                hit = True
                break
            if pair:
                _, b_orders, b_elements, b_aromatic, b_min, b_max, _ = steps[1]
                for nb, bi in adj[r]:
                    if (orders[bi] in b_orders and elements[nb] in b_elements
                            and (b_aromatic is None or aromatic[nb] == b_aromatic)
                            and b_min <= degree[nb] <= b_max):
                        hit = True
                        break
                if hit:
                    break
                continue
            assign = [r] + [-1] * (n - 1)  # step -> molecule atom, -1 unplaced
            cursor = [0] * n
            depth = 1
            while depth:
                anchor, a_orders, s_elements, s_aromatic, s_min, s_max, extras = steps[depth]
                nbrs = adj[assign[anchor]]
                k = cursor[depth]
                assign[depth] = -1
                while k < len(nbrs):
                    nb, bi = nbrs[k]
                    k += 1
                    if (orders[bi] not in a_orders or elements[nb] not in s_elements
                            or (s_aromatic is not None and aromatic[nb] != s_aromatic)
                            or not s_min <= degree[nb] <= s_max or nb in assign):
                        continue
                    ok = True
                    for pos, allowed in extras:
                        other = assign[pos]
                        ok = False
                        for nb2, bi2 in adj[nb]:
                            if nb2 == other and orders[bi2] in allowed:
                                ok = True
                                break
                        if not ok:
                            break
                    if not ok:
                        continue
                    if depth + 1 < n:
                        cursor[depth] = k
                        assign[depth] = nb
                        depth += 1
                        cursor[depth] = 0
                        break
                    hit = True
                    break
                else:
                    depth -= 1
                    continue
                if hit:
                    break
            if hit:
                break
        if hit:
            names.append(name)
    return names


def present_groups(
    graph: MolecularGraph, library: FGLibrary | None = None
) -> frozenset[str]:
    """Names of the library patterns with at least one embedding."""
    library = default_library() if library is None else library
    return frozenset(_search(graph, library._plans))


def corpus_prevalence(
    graphs: Iterable[MolecularGraph], library: FGLibrary | None = None
) -> PrevalenceTable:
    """P(f) = fraction of corpus molecules containing group f."""
    library = default_library() if library is None else library
    counts = {name: 0 for name in library.names()}
    size = 0
    for graph in graphs:
        size += 1
        for name in present_groups(graph, library):
            counts[name] += 1
    return prevalence_from_counts(counts, size, library)


def prevalence_from_counts(
    counts: dict[str, int], size: int, library: FGLibrary | None = None
) -> PrevalenceTable:
    """The prevalence table for per-group molecule counts over `size` molecules.

    Groups absent from `counts` get prevalence 0.
    """
    library = default_library() if library is None else library
    if size == 0:
        raise EmptyCorpus("prevalence requires at least one molecule")
    return PrevalenceTable(
        {name: counts.get(name, 0) / size for name in library.names()}, size
    )


def top_k_groups(table: PrevalenceTable, k: int) -> list[str]:
    """The k most prevalent group names; ties broken lexicographically."""
    ranked = sorted(table.prevalence.items(), key=lambda kv: (-kv[1], kv[0]))
    return [name for name, _ in ranked[:k]]
