from __future__ import annotations

import random

import pytest

from moltiers.descriptors import (
    DescriptorRecord,
    aromatic_substitution_complexity,
    bertz_ct,
    conjugation_extent,
    descriptor_core,
    fg_rarity,
    finish_record,
    scaffold_decoration,
)
from moltiers.errors import EmptyMolecule
from moltiers.fgroups import PrevalenceTable, default_library, present_groups
from moltiers.graph import ring_info, structural_counts
from moltiers.smiles import MolecularGraph, parse_smiles
from moltiers.synth import generate_corpus

from builders import Atom, Bond, atoms_of, bonds_of, build_graph
from oracles import brute_aromatic_substitution, brute_bertz_ct
from smiles_writer import write_smiles

LIB = default_library()

ANCHOR_TABLE = PrevalenceTable(
    {name: 0.0 for name in LIB.names()} | {"carbonyl": 0.661, "iodide": 0.011},
    corpus_size=1_000_000,
)


def permuted(graph: MolecularGraph, rng: random.Random) -> MolecularGraph:
    n = len(atoms_of(graph))
    perm = list(range(n))
    rng.shuffle(perm)  # perm[old] = new
    atoms = [None] * n
    for old, atom in enumerate(atoms_of(graph)):
        atoms[perm[old]] = Atom(
            atom.element, atom.aromatic, atom.formal_charge, atom.explicit_h,
            atom.chirality, atom.isotope, perm[old],
        )
    bonds = [Bond(perm[b.a], perm[b.b], b.order, b.stereo) for b in bonds_of(graph)]
    rng.shuffle(bonds)
    return build_graph(atoms, bonds, graph.source)


class TestScaffoldDecoration:
    def test_benzene_zero(self, mol):
        assert scaffold_decoration(mol("c1ccccc1")) == 0.0

    def test_toluene(self, mol):
        assert scaffold_decoration(mol("Cc1ccccc1")) == pytest.approx(
            1 - 6 / 7, abs=1e-12
        )

    def test_hexane_one(self, mol):
        assert scaffold_decoration(mol("CCCCCC")) == 1.0

    def test_single_atom(self, mol):
        assert scaffold_decoration(mol("C")) == 1.0

    def test_monotone_under_decoration(self, mol):
        bare = scaffold_decoration(mol("c1ccccc1"))
        decorated = scaffold_decoration(mol("Cc1ccccc1"))
        more = scaffold_decoration(mol("Cc1ccccc1C"))
        assert bare < decorated < more

    def test_range(self, mol):
        for smiles in generate_corpus(150, seed=41):
            v = scaffold_decoration(mol(smiles))
            assert 0.0 <= v <= 1.0

    def test_empty_molecule(self):
        with pytest.raises(EmptyMolecule):
            scaffold_decoration(build_graph([], [], ""))


class TestRarity:
    def test_no_groups_is_zero(self, mol):
        assert fg_rarity(mol("CCCCCC"), ANCHOR_TABLE) == 0.0

    def test_carbonyl_anchor(self, mol):
        # formaldehyde carries exactly the umbrella carbonyl group
        assert fg_rarity(mol("C=O"), ANCHOR_TABLE) == pytest.approx(0.339, abs=1e-12)

    def test_carbonyl_plus_iodide(self, mol):
        value = fg_rarity(mol("IC=O"), ANCHOR_TABLE)
        assert value == pytest.approx((0.339 + 0.989) / 2, abs=1e-12)

    def test_bounds(self, mol, suite_prevalence):
        for smiles in generate_corpus(150, seed=42):
            v = fg_rarity(mol(smiles), suite_prevalence)
            assert 0.0 <= v <= 1.0


class TestConjugation:
    def test_ethane(self, mol):
        assert conjugation_extent(mol("CC")) == 0

    def test_benzene(self, mol):
        assert conjugation_extent(mol("c1ccccc1")) == 6

    def test_styrene(self, mol):
        assert conjugation_extent(mol("C=Cc1ccccc1")) == 8

    def test_butadiene(self, mol):
        assert conjugation_extent(mol("C=CC=C")) == 4


class TestAromaticSubstitution:
    def test_benzene_zero(self, mol):
        assert aromatic_substitution_complexity(mol("c1ccccc1")) == 0

    def test_toluene(self, mol):
        assert aromatic_substitution_complexity(mol("Cc1ccccc1")) == 2

    def test_para_xylene(self, mol):
        assert aromatic_substitution_complexity(mol("Cc1ccc(C)cc1")) == 3

    def test_ortho_vs_para_distinguished(self, mol):
        ortho = mol("Cc1ccccc1C")
        para = mol("Cc1ccc(C)cc1")
        meta = mol("Cc1cccc(C)c1")
        # same substituent count, different gap patterns
        values = {
            aromatic_substitution_complexity(g) for g in (ortho, para, meta)
        }
        assert values == {3}
        # dot-joined toluene + p-xylene: patterns (6) and (3,3), 3 substituents
        both = mol("Cc1ccccc1.Cc1ccc(C)cc1")
        assert aromatic_substitution_complexity(both) == 2 + 3
        # biphenyl link counts as a substituent on each ring; both rings
        # normalise to the same (1,2,3) gap pattern: 1 pattern + 6 subs
        linked = mol("Cc1ccc(C)cc1-c1cc(C)ccc1C")
        assert aromatic_substitution_complexity(linked) == 1 + 6

    def test_naphthalene_fused(self, mol):
        # fusion atoms count their cross-ring neighbor as a substituent
        assert aromatic_substitution_complexity(mol("c1ccc2ccccc2c1")) == 5

    def test_nonaromatic_rings_ignored(self, mol):
        assert aromatic_substitution_complexity(mol("CC1CCCCC1")) == 0

    def test_matches_oracle(self, mol):
        for smiles in generate_corpus(250, seed=43):
            g = mol(smiles)
            assert aromatic_substitution_complexity(g) == (
                brute_aromatic_substitution(g)
            ), smiles


class TestBertz:
    def test_ethane_zero(self, mol):
        assert bertz_ct(mol("CC")) == 0.0

    def test_propane_one(self, mol):
        assert bertz_ct(mol("CCC")) == pytest.approx(1.0, abs=1e-12)

    def test_benzene(self, mol):
        import math

        assert bertz_ct(mol("c1ccccc1")) == pytest.approx(
            3 * math.log2(6), abs=1e-12
        )

    def test_no_bonds_zero(self, mol):
        assert bertz_ct(mol("C")) == 0.0

    def test_matches_bruteforce(self, mol):
        for smiles in generate_corpus(300, seed=44):
            g = mol(smiles)
            assert bertz_ct(g) == pytest.approx(brute_bertz_ct(g), abs=1e-12)

    def test_supergraph_corpus_ordering(self, mol):
        import statistics

        bases = ["c1ccccc1", "c1ccncc1", "CCO", "CC(=O)O", "C1CCCCC1"]
        decorated = [
            "Cc1ccc(Cl)cc1C(=O)O", "Cc1ccnc(N)c1C", "CCOC(=O)CN",
            "CC(=O)OC(C)C(=O)O", "CC1CCC(N)CC1O",
        ]
        mean_base = statistics.mean(bertz_ct(mol(s)) for s in bases)
        mean_dec = statistics.mean(bertz_ct(mol(s)) for s in decorated)
        assert mean_dec > mean_base


class TestDescriptorRecord:
    def test_hexane(self, mol, suite_prevalence):
        rec = finish_record(descriptor_core(mol("CCCCCC")), suite_prevalence)
        assert rec.d_scaf == 1.0
        assert rec.rarity == 0.0
        assert rec.conjugation == 0
        assert rec.arom_sub == 0
        assert rec.bertz_ct > 0.0
        assert rec.counts.n_het == 0

    def test_benzene(self, mol, suite_prevalence):
        rec = finish_record(descriptor_core(mol("c1ccccc1")), suite_prevalence)
        assert rec.d_scaf == 0.0
        assert rec.rarity == 0.0
        assert rec.conjugation == 6
        assert rec.arom_sub == 0
        assert rec.counts.n_het == 0

    def test_acetic_acid(self, mol, suite_prevalence):
        rec = finish_record(descriptor_core(mol("CC(=O)O")), suite_prevalence)
        assert rec.rarity > 0.0
        assert rec.n_fg >= 2
        assert rec.fg_names >= {"carbonyl", "carboxylic_acid"}

    def test_perception_applied_internally(self, suite_prevalence):
        raw = parse_smiles("C1=CC=CC=C1")
        rec = finish_record(descriptor_core(raw), suite_prevalence)
        assert rec.conjugation == 6
        assert rec.d_scaf == 0.0

    def test_reindexing_invariance(self, mol, suite_prevalence):
        rng = random.Random(7)
        for smiles in list(generate_corpus(60, seed=45)) + [
            "CC(=O)Oc1ccccc1C(=O)O", "Clc1cc(Cl)c(Cl)cc1Cl",
        ]:
            g = mol(smiles)
            base = finish_record(descriptor_core(g), suite_prevalence)
            shuffled = finish_record(
                descriptor_core(permuted(g, rng)), suite_prevalence
            )
            assert base.d_scaf == pytest.approx(shuffled.d_scaf, abs=1e-12)
            assert base.rarity == pytest.approx(shuffled.rarity, abs=1e-12)
            assert base.conjugation == shuffled.conjugation
            assert base.arom_sub == shuffled.arom_sub
            assert base.bertz_ct == pytest.approx(shuffled.bertz_ct, abs=1e-12)
            assert base.fg_names == shuffled.fg_names

    def test_rewrite_invariance(self, mol, suite_prevalence):
        for smiles in generate_corpus(60, seed=46):
            g = mol(smiles)
            base = finish_record(descriptor_core(g), suite_prevalence)
            rewritten = finish_record(
                descriptor_core(parse_smiles(write_smiles(g))), suite_prevalence
            )
            assert base.d_scaf == pytest.approx(rewritten.d_scaf, abs=1e-12)
            assert base.rarity == pytest.approx(rewritten.rarity, abs=1e-12)
            assert base.conjugation == rewritten.conjugation
            assert base.arom_sub == rewritten.arom_sub
            assert base.bertz_ct == pytest.approx(rewritten.bertz_ct, abs=1e-12)
            assert base.counts.n_sc == rewritten.counts.n_sc


class TestDescriptorCore:
    def test_core_plus_finish_is_the_record(self, mol, suite_prevalence):
        """Each field of the finished record is what the descriptor
        function of that name gives."""
        for smiles in list(generate_corpus(40, seed=47)) + ["CC(=O)O", "CCCCCC"]:
            g = mol(smiles)
            rings = ring_info(g)
            groups = present_groups(g, LIB)
            assert finish_record(descriptor_core(g), suite_prevalence) == (
                DescriptorRecord(
                    d_scaf=scaffold_decoration(g, rings),
                    rarity=fg_rarity(g, suite_prevalence, LIB, groups),
                    conjugation=conjugation_extent(g),
                    arom_sub=aromatic_substitution_complexity(g, rings),
                    bertz_ct=bertz_ct(g),
                    counts=structural_counts(g),
                    n_fg=len(groups),
                    fg_names=groups,
                )
            )

    def test_core_is_table_free(self, mol, suite_prevalence):
        core = descriptor_core(mol("CC(=O)Oc1ccccc1C(=O)O"))
        a = finish_record(core, suite_prevalence)
        b = finish_record(core, ANCHOR_TABLE)
        assert a.rarity != b.rarity
        assert (a.d_scaf, a.conjugation, a.arom_sub, a.bertz_ct, a.fg_names) == (
            b.d_scaf, b.conjugation, b.arom_sub, b.bertz_ct, b.fg_names
        )

    def test_heavy_atom_free_rejected(self):
        with pytest.raises(EmptyMolecule):
            descriptor_core(parse_smiles("[H][H]"))
