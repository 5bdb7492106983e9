from __future__ import annotations

import gc
import hashlib
import itertools
import random

import pytest

from moltiers.descriptors import descriptor_core
from moltiers.errors import EmptyCorpus
from moltiers.featurizer import ComplexityAnnotator
from moltiers.fgroups import (
    FGLibrary,
    PrevalenceTable,
    corpus_prevalence,
    default_library,
    prevalence_from_counts,
    present_groups,
    top_k_groups,
)
from moltiers.graph import perceive_aromaticity
from moltiers.smiles import DOUBLE, SINGLE, parse_smiles
from moltiers.synth import generate_corpus

from builders import Atom, Bond, atoms_of, build_graph
from oracles import brute_present, heavy_degree

LIB = default_library()


class TestLibrary:
    def test_thirty_one_patterns(self):
        assert len(LIB) == 31
        assert len(set(LIB.names())) == 31

    def test_pattern_sizes(self):
        for pattern in LIB.patterns:
            assert 1 <= len(pattern.atoms) <= 6

    def test_loadable_from_file(self, tmp_path):
        import importlib.resources as resources
        import json

        text = (
            resources.files("moltiers.data")
            .joinpath("functional_groups.json")
            .read_text()
        )
        path = tmp_path / "lib.json"
        path.write_text(text)
        lib = FGLibrary.from_json(path)
        assert lib.names() == LIB.names()


class TestPresence:
    @pytest.mark.parametrize(
        "smiles, expected",
        [
            ("CCCCCC", set()),
            ("CC(=O)O", {"carbonyl", "carboxylic_acid", "hydroxyl"}),
            ("Ic1ccccc1", {"iodide"}),
            ("CCO", {"hydroxyl"}),
            ("CCOCC", {"ether"}),
            ("CCN(CC)CC", {"tertiary_amine"}),
            ("COc1ccccc1", {"ether"}),
            ("CC(C)=O", {"carbonyl", "ketone"}),
            ("CC=O", {"carbonyl", "aldehyde"}),
            ("OP(=O)(O)O", {"phosphate"}),
            ("Oc1ccccc1", {"phenol"}),
            ("Nc1ccccc1", {"aniline", "primary_amine"}),
            ("C=O", {"carbonyl"}),
            ("IC=O", {"carbonyl", "iodide"}),
            ("CS(=O)C", {"sulfoxide"}),
            ("CS(=O)(=O)C", {"sulfone"}),
            ("CS(=O)(=O)N", {"sulfone", "sulfonamide"}),
            ("N#Cc1ccccc1", {"nitrile"}),
            ("[N+](=O)([O-])c1ccccc1", {"nitro"}),
            ("NC(=O)N", {"amide", "carbonyl", "primary_amine", "urea"}),
            ("N=C(N)N", {"guanidine", "imine", "primary_amine"}),
            ("C/N=N/C", {"azo"}),
            ("CSC", {"thioether"}),
            ("CS", {"thiol"}),
            ("C=C", {"alkene"}),
            ("C#C", {"alkyne"}),
        ],
    )
    def test_expected_groups(self, mol, smiles, expected):
        assert set(present_groups(mol(smiles))) == expected

    def test_present_groups_on_large_molecules_are_pinned(self, mol):
        # many of these molecules are too large for the brute-force oracle,
        # so their group sets are pinned by a digest of the sorted names
        text = "\n".join(",".join(sorted(present_groups(mol(smiles))))
                         for smiles in generate_corpus(120, seed=2))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "94a1ed64025231cd184dccc3cb9f3047a347025523562705d8668e3066b33335")


def test_describe_leaves_no_cyclic_garbage(mol):
    """Matching and describing free everything by reference counting: a
    reference cycle would keep each molecule's arrays alive until the cyclic
    collector ran."""
    corpus = list(generate_corpus(200, seed=3))
    annotator = ComplexityAnnotator()
    gc.collect()
    gc.disable()
    try:
        for smiles in corpus:
            annotator.describe(smiles)
            present_groups(mol(smiles))
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestMatcherCompleteness:
    def test_reindexing_invariance(self, mol):
        rng = random.Random(4)
        for smiles in ("CC(=O)Oc1ccccc1C(=O)O", "NC(=O)c1ccc(O)cc1", "CSC"):
            g = mol(smiles)
            base = present_groups(g)
            text_again = smiles  # reparse under a rewritten atom order
            from smiles_writer import write_smiles

            g2 = mol(write_smiles(g))
            assert present_groups(g2) == base


class TestPrevalence:
    def test_two_molecule_corpus(self, mol):
        table = corpus_prevalence([mol("CC(=O)O"), mol("CCCCCC")])
        assert table.corpus_size == 2
        assert table.prevalence["carboxylic_acid"] == 0.5
        assert table.prevalence["carbonyl"] == 0.5
        assert table.prevalence["iodide"] == 0.0

    def test_hydrocarbon_corpus_all_zero(self, mol):
        table = corpus_prevalence([mol("CCCCCC"), mol("c1ccccc1")])
        assert all(v == 0.0 for v in table.prevalence.values())

    def test_saturation(self, mol):
        table = corpus_prevalence([mol("Ic1ccccc1")] * 10)
        assert table.prevalence["iodide"] == 1.0

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            corpus_prevalence([])

    def test_shuffle_invariance(self, mol):
        graphs = [mol(s) for s in generate_corpus(60, seed=5)]
        t1 = corpus_prevalence(graphs)
        rng = random.Random(0)
        shuffled = graphs[:]
        rng.shuffle(shuffled)
        t2 = corpus_prevalence(shuffled)
        assert t1.prevalence == t2.prevalence


class TestEmptyLibrary:
    """An empty library is a library: nothing matches, and no function swaps
    it for the default one."""
    EMPTY = FGLibrary.from_dict({"patterns": []})

    def test_nothing_matches(self, mol):
        graph = mol("CCO")
        assert present_groups(graph) == {"hydroxyl"}
        assert present_groups(graph, self.EMPTY) == frozenset()
        core = descriptor_core(graph, self.EMPTY)
        assert (core.n_fg, core.fg_names) == (0, frozenset())

    def test_prevalence_has_no_groups(self, mol):
        assert corpus_prevalence([mol("CCO")], self.EMPTY).prevalence == {}
        assert prevalence_from_counts({}, 3, self.EMPTY).prevalence == {}


class TestTopK:
    def test_distinct_values(self):
        table = PrevalenceTable(
            {name: i / 100 for i, name in enumerate(LIB.names())}, 10
        )
        top = top_k_groups(table, 6)
        assert len(top) == 6
        values = [table.prevalence[n] for n in top]
        assert values == sorted(values, reverse=True)

    def test_tie_breaks_lexicographically(self):
        table = PrevalenceTable(
            {"zeta": 0.3, "alpha": 0.3, "mid": 0.5, "low": 0.1}, 10
        )
        assert top_k_groups(table, 2) == ["mid", "alpha"]

    def test_k_equals_all(self):
        table = PrevalenceTable({n: 0.0 for n in LIB.names()}, 1)
        assert len(top_k_groups(table, 31)) == 31


# one atom with several elements (the root scans every atom), a six-atom
# ring whose last bond closes onto the root (a plan extra), a pair listed
# twice (a two-atom plan with an extra) and atoms of either aromaticity
CUSTOM = FGLibrary.from_dict({"patterns": [
    {"name": "halogen",
     "atoms": [{"elements": ["F", "Cl", "Br", "I"], "max_deg": 1}],
     "bonds": []},
    {"name": "pyridine_ring",
     "atoms": [{"elements": ["N"], "aromatic": True}]
              + [{"elements": ["C"], "aromatic": True}] * 5,
     "bonds": [{"a": k, "b": (k + 1) % 6, "orders": ["aromatic"]}
               for k in range(6)]},
    {"name": "hetero_carbonyl",
     "atoms": [{"elements": ["N", "O"]}, {"elements": ["C"], "min_deg": 2},
               {"elements": ["O"], "max_deg": 1}],
     "bonds": [{"a": 0, "b": 1, "orders": ["single", "aromatic"]},
               {"a": 1, "b": 2, "orders": ["double"]}]},
    {"name": "carbonyl_listed_twice",
     "atoms": [{"elements": ["C"]}, {"elements": ["O"]}],
     "bonds": [{"a": 0, "b": 1, "orders": ["single", "double"]},
               {"a": 1, "b": 0, "orders": ["double"]}]},
    {"name": "cyclopropane",
     "atoms": [{"elements": ["C"], "min_deg": 2}] * 3,
     "bonds": [{"a": 0, "b": 1, "orders": ["single"]},
               {"a": 1, "b": 2, "orders": ["single"]},
               {"a": 2, "b": 0, "orders": ["single"]}]},
]})

LIBRARIES = {"default": LIB, "empty": TestEmptyLibrary.EMPTY, "custom": CUSTOM}

HAND_MOLECULES = [
    "c1ccncc1", "Clc1ccncc1C(=O)N", "OC(=O)c1cccnc1", "C1=CC=NC=C1",
    "c1ccc2ncccc2c1", "FC(F)(F)Br", "[H]OC=O", "[H]N([H])C(=O)OC", "C1CC1",
    "CC1(C)CC1C(=O)O", "O=C1CC1", "ICI", "Oc1ccccc1", "CC(=O)Nc1ccc(O)cc1",
    "C=C", "C#CC=CC#N", "CS(=O)(=O)N", "[N+](=O)([O-])c1ccccc1",
]


def brute_cost(graph, library) -> int:
    """Candidate tuples the brute-force oracle tries for the library."""
    deg = heavy_degree(graph)
    total = 0
    for pattern in library.patterns:
        product = 1
        for c in pattern.atoms:
            product *= sum(1 for i, atom in enumerate(atoms_of(graph))
                           if c.admits(atom.element, atom.aromatic, deg[i]))
        total += product
    return total


@pytest.fixture(scope="module")
def molecules():
    """Hand-written molecules and generated ones the oracle can afford."""
    graphs = [perceive_aromaticity(parse_smiles(s)) for s in HAND_MOLECULES]
    for smiles in generate_corpus(400, seed=77):
        graph = perceive_aromaticity(parse_smiles(smiles))
        if brute_cost(graph, LIB) + brute_cost(graph, CUSTOM) <= 60_000:
            graphs.append(graph)
    return graphs


class TestCompiledPlans:
    """The search over compiled plans finds what the brute-force oracle,
    built on AtomConstraint.admits, finds."""

    @pytest.mark.parametrize("name", sorted(LIBRARIES))
    def test_present_equals_brute(self, molecules, name):
        library = LIBRARIES[name]
        for graph in molecules:
            assert present_groups(graph, library) == brute_present(graph, library), \
                graph.source

    def test_custom_library_is_exercised(self, molecules):
        found = set()
        for graph in molecules:
            found |= present_groups(graph, CUSTOM)
        assert found == set(CUSTOM.names())
        assert len(molecules) >= 60

    def test_steps_admit_what_admits_admits(self):
        # each compiled step holds the fields of one pattern atom's
        # constraint, unpacked, and its anchor and extra bonds are the
        # pattern's bonds: some order of the pattern atoms lines up with
        # the steps on both counts
        grid = [(el, arom, deg) for el in ("C", "N", "O", "F", "Cl", "S", "H")
                for arom in (False, True) for deg in range(6)]

        def step_admits(step):
            _, _, elements, aromatic, min_deg, max_deg, _ = step
            return [el in elements and (aromatic is None or arom == aromatic)
                    and min_deg <= deg <= max_deg for el, arom, deg in grid]

        for library in (LIB, CUSTOM):
            for pattern in library.patterns:
                _, _, _, _, steps = pattern._plan
                admits = [[c.admits(*point) for point in grid]
                          for c in pattern.atoms]
                bonds = sorted((sorted((b.a, b.b)), sorted(b.orders))
                               for b in pattern.bonds)
                step_bonds = [(k, anchor, orders) for k, (anchor, orders, *_)
                              in enumerate(steps) if anchor >= 0]
                step_bonds += [(k, pos, orders) for k, step in enumerate(steps)
                               for pos, orders in step[6]]
                assert any(
                    all(step_admits(step) == admits[atom_of[k]]
                        for k, step in enumerate(steps))
                    and sorted((sorted((atom_of[k], atom_of[j])), sorted(orders))
                               for k, j, orders in step_bonds) == bonds
                    for atom_of in itertools.permutations(range(len(steps)))
                ), pattern.name


# Patterns whose non-root step admits only a non-aromatic atom, each with a
# bond order that an aromatic neighbour also has, so only the step's
# aromatic flag keeps that neighbour out: a two-atom pattern (the pair
# path), the flag on the first step of a three-atom one and on its last.
NON_AROMATIC_STEPS = FGLibrary.from_dict({"patterns": [
    {"name": "n_alkyl",
     "atoms": [{"elements": ["N"]}, {"elements": ["C"], "aromatic": False}],
     "bonds": [{"a": 0, "b": 1, "orders": ["single", "aromatic"]}]},
    {"name": "n_acyl",
     "atoms": [{"elements": ["N"]}, {"elements": ["C"], "aromatic": False},
               {"elements": ["O"], "max_deg": 1}],
     "bonds": [{"a": 0, "b": 1, "orders": ["single", "aromatic"]},
               {"a": 1, "b": 2, "orders": ["double"]}]},
    {"name": "ether_ethyl",
     "atoms": [{"elements": ["O"]}, {"elements": ["C"]},
               {"elements": ["C"], "aromatic": False}],
     "bonds": [{"a": 0, "b": 1, "orders": ["single"]},
               {"a": 1, "b": 2, "orders": ["single", "aromatic"]}]},
]})


def hand_built(elements_aromatic, bonds):
    """A graph from (element, aromatic) atoms and (a, b, order) bonds."""
    return build_graph(
        [Atom(el, aromatic=arom, index=i)
         for i, (el, arom) in enumerate(elements_aromatic)],
        [Bond(a, b, order) for a, b, order in bonds])


class TestNonRootAromaticFlag:
    """A non-root step's aromatic flag decides presence when the step's
    atom would otherwise be an aromatic neighbour."""

    def test_plans_take_the_paths_named(self):
        pair, n_acyl, ether = (p._plan for p in NON_AROMATIC_STEPS.patterns)
        assert pair[3] and pair[4][1][3] is False
        assert not n_acyl[3] and n_acyl[4][1][3] is False
        assert not ether[3] and ether[4][2][3] is False and ether[4][0][2] == {"O"}

    @pytest.mark.parametrize("smiles, expected", [
        ("c1ccccc1N", set()),                    # N on an aromatic C only
        ("CNc1ccccc1", {"n_alkyl"}),
        ("O=c1cccc[nH]1", set()),                # the C=O carbon is aromatic
        ("CC(=O)Nc1ccccc1", {"n_alkyl", "n_acyl"}),
        ("COc1ccccc1", set()),                   # O-C-C only through the ring
        ("CCOc1ccccc1", {"ether_ethyl"}),
        ("C1=CC=CC=C1N", set()),                 # aromatic once perceived
    ])
    def test_written_molecules(self, mol, smiles, expected):
        graph = mol(smiles)
        assert present_groups(graph, NON_AROMATIC_STEPS) == expected
        assert brute_present(graph, NON_AROMATIC_STEPS) == expected

    @pytest.mark.parametrize("aromatic", [False, True])
    def test_hand_built_twins(self, aromatic):
        # the same graphs, with the flagged atom aromatic or not
        amide = hand_built([("N", False), ("C", aromatic), ("O", False)],
                           [(0, 1, SINGLE), (1, 2, DOUBLE)])
        ether = hand_built([("C", True), ("O", False), ("C", False), ("C", aromatic)],
                           [(0, 1, SINGLE), (1, 2, SINGLE), (2, 3, SINGLE)])
        expected = ({"n_alkyl", "n_acyl"} if not aromatic else set(),
                    {"ether_ethyl"} if not aromatic else set())
        for graph, want in zip((amide, ether), expected):
            assert present_groups(graph, NON_AROMATIC_STEPS) == want
            assert brute_present(graph, NON_AROMATIC_STEPS) == want
