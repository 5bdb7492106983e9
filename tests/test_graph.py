from __future__ import annotations

import pickle
import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import moltiers.graph as graph_module
from moltiers.errors import EmptyMolecule, SmilesError
from moltiers.descriptors import conjugation_extent
from moltiers.graph import (
    AROMATIC,
    murcko_scaffold,
    perceive_aromaticity,
    ring_info,
    structural_counts,
)
from moltiers.smiles import (
    MolecularGraph,
    implicit_hydrogens,
    molecular_weight,
    parse_smiles,
)
from moltiers.synth import generate_corpus

from builders import Atom, Bond, atoms_of, bonds_of, build_graph
from oracles import (
    brute_conjugation_extent,
    brute_scaffold,
    conjugated_components,
    connected_components,
    reference_perceive_aromaticity,
    reference_ring_info,
    ring_atoms_exhaustive,
)
from test_smiles import fuzz_strings


class TestStructuralCounts:
    def test_benzene(self, mol):
        c = structural_counts(mol("c1ccccc1"))
        assert (c.n_ha, c.n_het, c.n_ring, c.n_sc) == (6, 0, 1, 0)
        assert c.mw == pytest.approx(78.11, abs=5e-3)

    def test_methane(self, mol):
        c = structural_counts(mol("C"))
        assert (c.n_ha, c.n_het, c.n_ring) == (1, 0, 0)
        assert c.mw == pytest.approx(16.04, abs=5e-3)

    def test_water_heteroatom(self, mol):
        assert structural_counts(mol("O")).n_het == 1

    def test_stereocenter_counts(self, mol):
        assert structural_counts(mol("C[C@H](N)C(=O)O")).n_sc == 1
        assert structural_counts(mol("F/C=C/F")).n_sc == 1

    def test_counts_are_frozen(self, mol):
        # counts are a value: immutable, and pickled as their fields
        counts = structural_counts(mol("CCO"))
        with pytest.raises(AttributeError):
            counts.n_ha = 0
        assert counts.n_ha == 3
        assert pickle.loads(pickle.dumps(counts)) == counts
        assert structural_counts(mol("F/C=C/C=C/F")).n_sc == 2
        # mark on one side only does not make a stereo double bond
        assert structural_counts(mol("F/C=CF")).n_sc == 0

    def test_ring_count_is_cyclomatic(self, mol):
        for smiles, expected in [
            ("CCCC", 0),
            ("C1CC1", 1),
            ("c1ccc2ccccc2c1", 2),
            ("C1CC2CCC1CC2", 2),
            ("CC.O", 0),
            ("C1CC1.C1CC1", 2),
        ]:
            g = mol(smiles)
            assert structural_counts(g).n_ring == expected
            assert ring_info(g).n_ring == expected

    def test_ring_count_identity_random(self, mol):
        for smiles in generate_corpus(150, seed=5):
            g = mol(smiles)
            assert structural_counts(g).n_ring == (
                len(bonds_of(g)) - len(atoms_of(g)) + len(connected_components(g))
            )

    def test_explicit_h_not_heavy(self, mol):
        c = structural_counts(mol("[H]C([H])([H])[H]"))
        assert c.n_ha == 1
        assert c.mw == pytest.approx(16.04, abs=5e-3)

    def test_hand_built_hydrogen_gets_no_implicit_hydrogens(self):
        # an unbracketed H is outside the valence model: like a bracket H
        # with no H count, it carries no hydrogens of its own
        built = build_graph([Atom("C", index=0), Atom("H", index=1)], [Bond(0, 1)])
        parsed = parse_smiles("C[H]")
        assert implicit_hydrogens(built) == implicit_hydrogens(parsed) == [3, 0]
        assert molecular_weight(built) == molecular_weight(parsed)
        assert structural_counts(built) == structural_counts(parsed)


class TestAromaticityPerception:
    def test_already_aromatic_kept(self, mol):
        g = mol("c1ccccc1")
        assert all(a.aromatic for a in atoms_of(g))

    def test_kekule_benzene(self, mol):
        g = mol("C1=CC=CC=C1")
        assert all(a.aromatic for a in atoms_of(g))
        assert all(b.order == AROMATIC for b in bonds_of(g))

    def test_kekule_pyridine(self, mol):
        g = mol("C1=CC=CC=N1")
        assert all(a.aromatic for a in atoms_of(g))

    def test_cyclohexane_untouched(self, mol):
        g = mol("C1CCCCC1")
        assert not any(a.aromatic for a in atoms_of(g))

    def test_cyclohexene_untouched(self, mol):
        g = mol("C1=CCCCC1")
        assert not any(a.aromatic for a in atoms_of(g))

    def test_seven_ring_untouched(self, mol):
        g = mol("C1=CC=CC=CC1")
        assert not any(a.aromatic for a in atoms_of(g))

    def test_hetero_ring_with_o_untouched(self, mol):
        # only C/N six-rings qualify for Kekule promotion
        g = mol("O1C=CC=CC1")
        assert not any(a.aromatic for a in atoms_of(g))

    def test_idempotent_and_object_identity(self):
        g = parse_smiles("C1=CC=CC=C1")
        once = perceive_aromaticity(g)
        twice = perceive_aromaticity(once)
        assert twice is once  # no candidates left -> same object

    def test_monotone(self):
        for smiles in generate_corpus(120, seed=8):
            g = parse_smiles(smiles)
            before = [a.aromatic for a in atoms_of(g)]
            after = perceive_aromaticity(g)
            for b, a in zip(before, atoms_of(after)):
                assert a.aromatic >= b

    def test_no_ring_search_below_three_cn_double_bonds(self):
        # aromatic-written, saturated, a cyclohexadiene, and a quinone whose
        # two C=O bonds do not count: no promotable ring can exist
        for smiles in ("c1ccccc1CC", "C1CCCCC1", "C1=CC=CCC1",
                       "O=C1C=CC(=O)C=C1", "CCO"):
            graph = parse_smiles(smiles)
            assert perceive_aromaticity(graph) is graph
            assert graph.rings is None

    def test_kekule_naphthalene(self, mol):
        # both rings written with alternating bonds (fusion bond double)
        g = mol("C1=CC=CC2=C1C=CC=C2")
        assert sum(a.aromatic for a in atoms_of(g)) == 10

    def test_kekule_partial_ring_only(self, mol):
        # this resonance form alternates only in one ring; per-ring rule
        # promotes just that ring (full Hueckel perception is a non-goal)
        g = mol("C1=CC2=CC=CC=C2C=C1")
        assert sum(a.aromatic for a in atoms_of(g)) == 6


class TestHandBuiltGraph:
    """A graph built from ``Atom`` and ``Bond`` objects rather than parsed."""

    @staticmethod
    def labelled_kekule_benzene():
        # ring C 0 is carbon-13; ring C 3 carries an exocyclic [15NH3+]
        atoms = [Atom("C", index=i) for i in range(6)]
        atoms[0].isotope = 13
        atoms.append(Atom("N", formal_charge=1, explicit_h=3, isotope=15, index=6))
        bonds = [Bond(k, (k + 1) % 6, 2 if k % 2 == 0 else 1) for k in range(6)]
        bonds.append(Bond(3, 6))
        return build_graph(atoms, bonds, "hand-built")

    def test_perceived_ring_keeps_atom_labels(self):
        graph = self.labelled_kekule_benzene()
        perceived = perceive_aromaticity(graph)
        assert perceived is not graph
        assert [a.aromatic for a in atoms_of(perceived)] == [True] * 6 + [False]
        assert [b.order for b in bonds_of(perceived)] == [AROMATIC] * 6 + [1]
        assert [(a.isotope, a.formal_charge, a.explicit_h) for a in atoms_of(perceived)] \
            == [(13, 0, None)] + [(0, 0, None)] * 5 + [(15, 1, 3)]
        assert [a.index for a in atoms_of(perceived)] == list(range(7))
        assert implicit_hydrogens(perceived) == [1, 1, 1, 0, 1, 1, 3]
        assert perceived.source == "hand-built"
        # the input graph is left as it was built
        assert not any(a.aromatic for a in atoms_of(graph))
        assert [b.order for b in bonds_of(graph)] == [2, 1, 2, 1, 2, 1, 1]

    def test_compares_equal_only_to_a_graph(self):
        graph = self.labelled_kekule_benzene()
        assert graph == self.labelled_kekule_benzene()
        # a bracket entry, a stereo mark, a bond direction or the source
        # alone tells two graphs apart
        atoms = atoms_of(graph)
        atoms[6].isotope = 0
        assert graph != build_graph(atoms, bonds_of(graph), graph.source)
        bonds = bonds_of(graph)
        bonds[6].stereo = 1
        assert graph != build_graph(atoms_of(graph), bonds, graph.source)
        bonds = bonds_of(graph)
        bonds[6] = Bond(6, 3)
        assert graph != build_graph(atoms_of(graph), bonds, graph.source)
        assert graph != build_graph(atoms_of(graph), bonds_of(graph), "other")
        assert graph.__eq__(1) is NotImplemented
        assert (graph == 1) is False
        assert graph != 1

    def test_repr_names_atoms_bonds_and_source(self):
        graph = build_graph([Atom("C", index=0), Atom("O", index=1)],
                            [Bond(0, 1)], "CO")
        assert repr(graph) == "MolecularGraph(source='CO', atoms=2, bonds=1)"
        assert repr(parse_smiles("CO")) == repr(graph)


class TestRingInfo:
    def test_benzene_ring(self, mol):
        info = ring_info(mol("c1ccccc1"))
        assert len(info.rings) == 1
        assert len(info.rings[0]) == 6
        assert info.ring_atoms == frozenset(range(6))

    def test_naphthalene_two_rings(self, mol):
        info = ring_info(mol("c1ccc2ccccc2c1"))
        assert len(info.rings) == 2
        assert all(len(r) == 6 for r in info.rings)

    def test_acyclic_no_rings(self, mol):
        info = ring_info(mol("CCO"))
        assert not info.rings
        assert not info.ring_atoms

    def test_macrocycle_excluded_from_small_rings(self, mol):
        g = mol("C1CCCCCCCCCCC1")  # 12-ring
        info = ring_info(g)
        assert not info.rings                  # above the size-8 cap
        assert len(info.ring_atoms) == 12      # membership still detected
        assert structural_counts(g).n_ring == 1

    def test_ring_atoms_match_exhaustive(self, mol):
        for smiles in generate_corpus(120, seed=13):
            g = mol(smiles)
            assert ring_info(g).ring_atoms == frozenset(ring_atoms_exhaustive(g))


HAND_RINGS = {
    "bicyclo[2.2.2]octane": "C1CC2CCC1CC2",
    "cubane": "C12C3C4C1C5C2C3C45",
    "spiro[4.5]decane": "C1CCC2(CC1)CCCC2",
    "three rings sharing a bond": "C123C(CCC1)(CCC2)CCC3",
    "12-membered macrocycle": "C1CCCCCCCCCCC1",
    "macrocycle fused to benzene": "c1ccc2c(c1)CCCCCCCCC2",
    "dot-separated mixture": "c1ccccc1.C1CC1.CCO.C1CCC2CCCCC2C1",
    "acyclic": "CCCC(C)CC(=O)O",
    "adamantane": "C1C2CC3CC1CC(C2)C3",
    "norbornane": "C1CC2CCC1C2",
    "steroid core": "C1CCC2C(C1)CCC1C2CCC2CCCC12",
    "ring closed across dot-separated parts": "C12.C1CC2",
    "parts joined by a ring closure": "C1.CC1C2CC2",
}

# Isolated rings only: every ring bond lies in a simple-cycle block.
ISOLATED_RINGS = [
    "c1ccccc1CCC1CCCCC1",
    "C1CCC2(CC1)CCCC2",
    "C1CC1.c1ccncc1",
    "C1CCCCCCCCCCC1",
    "c1ccccc1-c1ccccc1C1CC1",
]


def random_ring_graphs(seed: int, count: int) -> list[MolecularGraph]:
    """Random forests plus extra bonds: fused, bridged and cage blocks,
    several components, rings both under and over the size cap."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(3, 24)
        pairs = set()
        for i in range(1, n):
            if rng.random() < 0.95:  # otherwise start a new component
                pairs.add((rng.randrange(i), i))
        for _ in range(rng.randint(0, 8)):
            a, b = sorted(rng.sample(range(n), 2))
            pairs.add((a, b))
        bonds = [Bond(a, b) if rng.random() < 0.5 else Bond(b, a)
                 for a, b in pairs]
        rng.shuffle(bonds)
        graphs.append(build_graph([Atom("C", index=i) for i in range(n)], bonds))
    return graphs


def assert_same_rings(graph):
    ring_atoms, ring_bonds, rings = reference_ring_info(graph)
    info = ring_info(graph)
    assert info.rings == rings
    assert info.ring_atoms == ring_atoms
    assert info.ring_bonds == ring_bonds


def assert_same_rings_if_parsed(text):
    try:
        graph = parse_smiles(text)
    except SmilesError:
        return False
    assert_same_rings(graph)
    return True


class TestRingPerceptionMatchesReference:
    """Block-based perception against the whole-graph reference: the same
    rings in the same order and orientation, ring atoms and ring bonds."""

    @pytest.mark.parametrize("name", sorted(HAND_RINGS))
    def test_hand_cases(self, name):
        assert_same_rings(parse_smiles(HAND_RINGS[name]))

    @pytest.mark.parametrize("seed", [1, 2, 3, 11])
    def test_synthetic_corpus(self, seed):
        for smiles in generate_corpus(1500, seed=seed):
            assert_same_rings(parse_smiles(smiles))

    def test_fuzz_strings(self):
        for text in fuzz_strings():
            assert_same_rings_if_parsed(text)

    def test_random_graphs(self):
        for graph in random_ring_graphs(5, 5000):
            assert_same_rings(graph)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="CcNOS1234()=#.[]H@", max_size=40))
    def test_generated_strings(self, text):
        assert_same_rings_if_parsed(text)

    @pytest.mark.parametrize("text, cycles", [
        ("CCO", 0), ("CC(C)(C)C.O", 0), ("C1.C1", 0), ("C12.C1.C2", 0),
        ("C1CC1", 1), ("C12.C1CC2", 1), ("C1.CC1C2CC2", 1)])
    def test_block_search_only_with_a_cycle(self, text, cycles, monkeypatch):
        # a ring closure between dot-separated parts joins them and makes no
        # cycle, so the count, not the closure, decides whether to search
        calls = []
        blocks = graph_module._blocks
        monkeypatch.setattr(graph_module, "_blocks",
                            lambda adj: calls.append(adj) or blocks(adj))
        graph = parse_smiles(text)
        assert graph.n_ring == structural_counts(graph).n_ring == cycles
        assert_same_rings(graph)
        assert len(calls) == (1 if cycles else 0)

    def test_hand_case_ring_counts(self):
        counts = {name: len(ring_info(parse_smiles(s)).rings)
                  for name, s in HAND_RINGS.items()}
        assert counts["bicyclo[2.2.2]octane"] == 3
        assert counts["cubane"] == 6
        assert counts["spiro[4.5]decane"] == 2
        assert counts["three rings sharing a bond"] == 3
        assert counts["12-membered macrocycle"] == 0
        assert counts["acyclic"] == 0
        assert counts["dot-separated mixture"] == 4


class TestRingSearchCount:
    @pytest.fixture()
    def searches(self, monkeypatch):
        calls = []
        search = graph_module._shortest_cycle_through

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(graph_module, "_shortest_cycle_through", counted)
        return calls

    @pytest.mark.parametrize("smiles", ISOLATED_RINGS)
    def test_isolated_rings_run_no_search(self, searches, smiles):
        graph = parse_smiles(smiles)
        assert ring_info(graph).rings == reference_ring_info(graph)[2]
        assert searches == []

    def test_fused_block_searches_only_its_bonds(self, searches):
        # naphthalene (11 ring bonds) plus an isolated cyclopropyl
        ring_info(parse_smiles("c1ccc2ccccc2c1C1CC1"))
        assert len(searches) == 11

    def test_memoised_and_kept_by_aromaticity(self, searches):
        graph = parse_smiles("C1=CC=C2C=CC=CC2=C1")
        rings = ring_info(graph)
        assert ring_info(graph) is rings
        perceived = perceive_aromaticity(graph)
        assert perceived is not graph
        assert ring_info(perceived) is rings
        assert len(searches) == 11


KEKULE_CASES = [
    "C1=CC=CC=C1",
    "C1=CC=NC=C1",
    "C1=CC=C2C=CC=CC2=C1",  # naphthalene, only one ring alternates
    "C1=CC=CC2=C1C=CC=C2",  # naphthalene, both rings alternate
    "O=C1C=CC(=O)C=C1",  # p-benzoquinone: two C=C, never promoted
    "C=CC=CC=C",  # three C=C and no ring
    "C1=CC=CC=CC1",  # alternating, but seven atoms
    "O1C=CC=CC1",
    "c1ccccc1C1=CC=CC=C1",  # one aromatic-written and one Kekulé ring
    "C1=Cc2ccccc2C=C1",  # a Kekulé ring fused to an aromatic bond
    "C1=CC=CC=C1.C=CC=C",
    "CC1=C(C)C=C(N)C=C1C=CC=O",
]


class TestAromaticityMatchesReference:
    """The exit before the ring search changes nothing the full search
    decides: same flags, same orders, and the input object when nothing
    flips."""

    @staticmethod
    def check(graph):
        perceived = perceive_aromaticity(graph)
        expected = reference_perceive_aromaticity(graph)
        assert (perceived is graph) == (expected is graph)
        assert [a.aromatic for a in atoms_of(perceived)] == [
            a.aromatic for a in atoms_of(expected)]
        assert [b.order for b in bonds_of(perceived)] == [
            b.order for b in bonds_of(expected)]
        assert perceived.orders == [b.order for b in bonds_of(expected)]
        return perceived is not graph

    def test_kekule_cases(self):
        flipped = {s for s in KEKULE_CASES if self.check(parse_smiles(s))}
        assert flipped == {
            "C1=CC=CC=C1", "C1=CC=NC=C1", "C1=CC=C2C=CC=CC2=C1",
            "C1=CC=CC2=C1C=CC=C2", "c1ccccc1C1=CC=CC=C1",
            "C1=CC=CC=C1.C=CC=C", "CC1=C(C)C=C(N)C=C1C=CC=O",
        }

    @pytest.mark.parametrize("seed", [1, 3, 7, 11])
    def test_generated_corpus(self, seed):
        for smiles in generate_corpus(400, seed=seed):
            self.check(parse_smiles(smiles))

    def test_random_kekule_rings(self):
        # seeded rings of 5-7 C/N atoms with random single/double bonds,
        # some with a chain, an aromatic ring or a second such ring attached
        rng = random.Random(29)

        def ring(digit):
            size = rng.choice((5, 6, 6, 6, 7))
            atoms = [rng.choice("CCCN") for _ in range(size)]
            bonds = [rng.choice(("", "=")) for _ in range(size)]
            text = atoms[0] + digit
            for atom, bond in zip(atoms[1:], bonds):
                text += bond + atom
            return text + bonds[-1] + digit

        parsed = flipped = 0
        for _ in range(3000):
            text = ring("1") + rng.choice(("", "C=CC", "c2ccccc2", ring("2")))
            try:
                graph = parse_smiles(text)
            except SmilesError:
                continue
            parsed += 1
            flipped += self.check(graph)
        assert parsed > 1000 and flipped > 20


class TestMurckoScaffold:
    def test_benzene_full(self, mol):
        res = murcko_scaffold(mol("c1ccccc1"))
        assert res.n_scaffold == 6
        assert not res.is_empty

    def test_hexane_empty(self, mol):
        res = murcko_scaffold(mol("CCCCCC"))
        assert res.is_empty
        assert res.n_scaffold == 0

    def test_toluene_prunes_methyl(self, mol):
        res = murcko_scaffold(mol("Cc1ccccc1"))
        assert res.n_scaffold == 6
        assert 0 not in res.scaffold_atoms

    def test_biphenyl_keeps_link(self, mol):
        res = murcko_scaffold(mol("c1ccccc1-c1ccccc1"))
        assert res.n_scaffold == 12

    def test_benzophenone_keeps_carbonyl(self, mol):
        res = murcko_scaffold(mol("c1ccccc1C(=O)c1ccccc1"))
        assert res.n_scaffold == 14  # two rings + linker C + exocyclic O

    def test_acetophenone_side_chain_removed(self, mol):
        res = murcko_scaffold(mol("CC(=O)c1ccccc1"))
        assert res.n_scaffold == 6

    def test_linker_chain_kept(self, mol):
        res = murcko_scaffold(mol("c1ccccc1CCCc1ccccc1"))
        assert res.n_scaffold == 15

    def test_order_independence_randomized(self, mol):
        rng = random.Random(17)
        for smiles in generate_corpus(150, seed=21):
            g = mol(smiles)
            expected = frozenset(brute_scaffold(g, rng))
            assert murcko_scaffold(g).scaffold_atoms == expected


class TestConjugation:
    def test_ethane_empty(self, mol):
        assert conjugated_components(mol("CC")) == []

    def test_benzene_single_component(self, mol):
        comps = conjugated_components(mol("c1ccccc1"))
        assert [len(c) for c in comps] == [6]

    def test_butadiene_bridged(self, mol):
        comps = conjugated_components(mol("C=CC=C"))
        assert [len(c) for c in comps] == [4]

    def test_isolated_dienes_split(self, mol):
        comps = conjugated_components(mol("C=CCCC=C"))
        assert sorted(len(c) for c in comps) == [2, 2]

    def test_components_disjoint(self, mol):
        for smiles in generate_corpus(150, seed=34):
            comps = conjugated_components(mol(smiles))
            seen = set()
            for comp in comps:
                assert not (comp & seen)
                seen |= comp

    def test_matches_oracle(self, mol):
        for smiles in generate_corpus(200, seed=55):
            g = mol(smiles)
            comps = conjugated_components(g)
            largest = max((len(c) for c in comps), default=0)
            assert largest == brute_conjugation_extent(g)
            assert conjugation_extent(g) == largest

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="CcNnOo=#()123[]H+-.", max_size=40))
    def test_extent_matches_oracle_on_generated_strings(self, text):
        # parsed as written and after aromaticity perception
        try:
            graph = parse_smiles(text)
        except SmilesError:
            return
        for g in (graph, perceive_aromaticity(graph)):
            assert conjugation_extent(g) == brute_conjugation_extent(g), text

    def test_extent_matches_oracle_on_random_graphs(self):
        # the orders are drawn before the graph that reads them is built
        rng = random.Random(41)
        for drawn in random_ring_graphs(43, 400):
            graph = build_graph(
                atoms_of(drawn),
                [Bond(b.a, b.b, rng.choice((1, 1, 2, 3, 4)), b.stereo)
                 for b in bonds_of(drawn)])
            assert conjugation_extent(graph) == brute_conjugation_extent(graph)


def test_empty_graph_counts_raise():
    with pytest.raises(EmptyMolecule):
        structural_counts(build_graph([], [], ""))
