"""Functional-group pattern library, subgraph matcher, and corpus prevalence.

Patterns are small constraint graphs (1-6 atoms): per-atom element set,
aromatic flag, and heavy-degree bounds; per-bond allowed order sets.  This
deliberately covers far less than a full query language -- no recursion, no
logic operators -- but it is enough to express the default 31-group library.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Iterator

from .errors import EmptyCorpus
from .smiles import (
    AROMATIC,
    DOUBLE,
    SINGLE,
    TRIPLE,
    MolecularGraph,
    MolView,
    feature_mask,
)

_ORDER_BY_NAME = {
    "single": SINGLE,
    "double": DOUBLE,
    "triple": TRIPLE,
    "aromatic": AROMATIC,
}


@dataclass(frozen=True)
class AtomConstraint:
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


@dataclass(frozen=True)
class BondConstraint:
    a: int
    b: int
    orders: frozenset[int]


@dataclass
class FunctionalGroupPattern:
    name: str
    atoms: list[AtomConstraint]
    bonds: list[BondConstraint]
    priority: int = 0
    # search plan, built once: (atom_pos, anchor_pos, allowed_orders,
    # [(earlier_pos, allowed_orders), ...])  -- anchor_pos is -1 for the root
    _plan: list[tuple[int, int, frozenset[int] | None, list]] = field(
        default_factory=list, repr=False
    )
    # feature_mask of the required elements and orders: a molecule whose
    # view.features lacks any of these bits cannot match
    _features: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not 1 <= len(self.atoms) <= 6:
            raise ValueError(f"pattern {self.name!r} must have 1-6 atoms")
        self._plan = _build_plan(self)
        self._features = feature_mask(self.required_elements(),
                                      self.required_orders())

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


def _build_plan(pattern: FunctionalGroupPattern):
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
    plan = []
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
        plan.append((atom, anchor, anchor_orders, extras))
    return plan


@dataclass
class PrevalenceTable:
    prevalence: dict[str, float]
    corpus_size: int


class FGLibrary:
    """An immutable set of uniquely named patterns."""

    def __init__(self, patterns: list[FunctionalGroupPattern]):
        names = [p.name for p in patterns]
        if len(set(names)) != len(names):
            raise ValueError("pattern names must be unique")
        self.patterns = list(patterns)

    def __len__(self) -> int:
        return len(self.patterns)

    def names(self) -> list[str]:
        return [p.name for p in self.patterns]

    @classmethod
    def from_dict(cls, payload: dict) -> "FGLibrary":
        patterns = []
        for item in payload["patterns"]:
            atoms = [
                AtomConstraint(
                    elements=frozenset(a["elements"]),
                    aromatic=a.get("aromatic"),
                    min_deg=a.get("min_deg", 0),
                    max_deg=a.get("max_deg"),
                )
                for a in item["atoms"]
            ]
            bonds = [
                BondConstraint(
                    b["a"], b["b"],
                    frozenset(_ORDER_BY_NAME[o] for o in b["orders"]),
                )
                for b in item["bonds"]
            ]
            patterns.append(
                FunctionalGroupPattern(
                    item["name"], atoms, bonds, item.get("priority", 0)
                )
            )
        return cls(patterns)

    @classmethod
    def from_json(cls, path) -> "FGLibrary":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


_DEFAULT: FGLibrary | None = None


def default_library() -> FGLibrary:
    global _DEFAULT
    if _DEFAULT is None:
        text = (
            resources.files("moltiers.data")
            .joinpath("functional_groups.json")
            .read_text(encoding="utf-8")
        )
        _DEFAULT = FGLibrary.from_dict(json.loads(text))
        assert len(_DEFAULT) == 31
    return _DEFAULT


def _candidates(view: MolView, constraint: AtomConstraint) -> Iterator[int]:
    if len(constraint.elements) == 1:
        (el,) = constraint.elements
        pool = view.element_sites.get(el, ())
    else:
        pool = range(len(view.elements))
    elements = view.elements
    aromatic = view.aromatic
    degree = view.degree
    for i in pool:
        if constraint.admits(elements[i], aromatic[i], degree[i]):
            yield i


def _match_pattern(
    view: MolView, pattern: FunctionalGroupPattern, first_only: bool
) -> list[tuple[int, ...]]:
    results: list[tuple[int, ...]] = []
    assign = [-1] * len(pattern._plan)  # plan position -> molecule atom
    _extend(view, pattern, assign, set(), 0, results, first_only)
    return results


def _extend(view, pattern, assign, used, depth, results, first_only) -> bool:
    """Place plan position ``depth`` and recurse; True stops the search.

    A module function rather than a recursive closure: the closure would be
    a reference cycle holding the molecule's view, which only the cyclic
    garbage collector could then free.
    """
    plan = pattern._plan
    if depth == len(plan):
        out = [0] * depth
        for k, (atom_pos, _, _, _) in enumerate(plan):
            out[atom_pos] = assign[k]
        results.append(tuple(out))
        return first_only
    atom_pos, anchor, anchor_orders, extras = plan[depth]
    constraint = pattern.atoms[atom_pos]
    if anchor == -1:
        candidates: Iterator[int] = _candidates(view, constraint)
    else:
        candidates = _extend_candidates(
            view, constraint, assign[anchor], anchor_orders, extras, assign
        )
    for cand in candidates:
        if cand in used:
            continue
        assign[depth] = cand
        used.add(cand)
        if _extend(view, pattern, assign, used, depth + 1, results, first_only):
            return True
        used.discard(cand)
        assign[depth] = -1
    return False


def _extend_candidates(view, constraint, anchor_mol, anchor_orders, extras, assign):
    adj = view.adj
    orders = view.orders
    elements = view.elements
    aromatic = view.aromatic
    degree = view.degree
    for nb, bi in adj[anchor_mol]:
        if orders[bi] not in anchor_orders:
            continue
        if not constraint.admits(elements[nb], aromatic[nb], degree[nb]):
            continue
        ok = True
        for pos, allowed in extras:
            other = assign[pos]
            found = False
            for nb2, bi2 in adj[nb]:
                if nb2 == other and orders[bi2] in allowed:
                    found = True
                    break
            if not found:
                ok = False
                break
        if ok:
            yield nb


def _matchable(
    view: MolView, library: FGLibrary
) -> Iterator[FunctionalGroupPattern]:
    """The library's patterns whose required elements and orders the
    molecule has: one integer AND per pattern."""
    features = view.features
    for pattern in library.patterns:
        required = pattern._features
        if features & required == required:
            yield pattern


def match_groups(
    graph: MolecularGraph, library: FGLibrary | None = None
) -> set[tuple[str, tuple[int, ...]]]:
    """All embeddings of every library pattern into the molecule."""
    library = default_library() if library is None else library
    view = graph.view()
    out: set[tuple[str, tuple[int, ...]]] = set()
    for pattern in _matchable(view, library):
        for embedding in _match_pattern(view, pattern, first_only=False):
            out.add((pattern.name, embedding))
    return out


def present_groups(
    graph: MolecularGraph, library: FGLibrary | None = None
) -> frozenset[str]:
    """Names of patterns with at least one embedding (early-exit matcher)."""
    library = default_library() if library is None else library
    view = graph.view()
    return frozenset(
        pattern.name for pattern in _matchable(view, library)
        if _match_pattern(view, pattern, first_only=True)
    )


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
