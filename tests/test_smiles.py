from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moltiers.errors import (
    AromaticBondError,
    DanglingBond,
    EmptyInput,
    InvalidBracketAtom,
    SmilesError,
    UnbalancedParenthesis,
    UnknownElement,
    UnmatchedRingClosure,
    ValenceError,
)
from moltiers.smiles import (
    AROMATIC,
    CHI_AT,
    CHI_AT_AT,
    DOUBLE,
    SINGLE,
    STEREO_UP,
    TRIPLE,
    MolecularGraph,
    feature_mask,
    implicit_hydrogens,
    molecular_weight,
    parse_smiles,
)
from moltiers.synth import generate_corpus

from builders import Atom, Bond, atoms_of, bonds_of, build_graph
from oracles import (
    assert_isomorphic,
    explicit_valences,
    heavy_degree,
    reference_parse_smiles,
)
from smiles_writer import write_smiles, write_smiles_mapped


def bond_set(graph):
    return {(min(b.a, b.b), max(b.a, b.b), b.order) for b in bonds_of(graph)}


class TestParsing:
    def test_single_atom(self):
        g = parse_smiles("C")
        assert len(atoms_of(g)) == 1
        assert not bonds_of(g)
        assert atoms_of(g)[0].element == "C"

    def test_benzene(self):
        g = parse_smiles("c1ccccc1")
        assert len(atoms_of(g)) == 6
        assert len(bonds_of(g)) == 6
        assert all(a.aromatic for a in atoms_of(g))
        assert all(b.order == AROMATIC for b in bonds_of(g))

    def test_acetic_acid(self):
        g = parse_smiles("CC(=O)O")
        assert len(atoms_of(g)) == 4
        assert bond_set(g) == {(0, 1, SINGLE), (1, 2, DOUBLE), (1, 3, SINGLE)}

    def test_branches_and_rings(self):
        g = parse_smiles("CC1CC(C)CC1")
        assert len(atoms_of(g)) == 7
        assert len(bonds_of(g)) == 7

    def test_two_letter_elements(self):
        g = parse_smiles("ClCCBr")
        assert [a.element for a in atoms_of(g)] == ["Cl", "C", "C", "Br"]

    def test_percent_ring_closure(self):
        g = parse_smiles("C%12CCCCC%12")
        assert len(bonds_of(g)) == 6

    def test_dot_components(self):
        g = parse_smiles("CC.O")
        assert len(atoms_of(g)) == 3
        assert len(bonds_of(g)) == 1

    def test_bond_symbols(self):
        g = parse_smiles("C=C-C#C")
        orders = [b.order for b in bonds_of(g)]
        assert orders == [DOUBLE, SINGLE, TRIPLE]

    def test_stereo_bond_marks(self):
        g = parse_smiles("F/C=C/F")
        marks = [b.stereo for b in bonds_of(g)]
        assert marks.count(STEREO_UP) == 2

    def test_bracket_atom(self):
        g = parse_smiles("[13C@H2+2]")
        atom = atoms_of(g)[0]
        assert atom.isotope == 13
        assert atom.chirality == CHI_AT
        assert atom.explicit_h == 2
        assert atom.formal_charge == 2

    def test_bracket_charge_forms(self):
        assert atoms_of(parse_smiles("[O-]"))[0].formal_charge == -1
        assert atoms_of(parse_smiles("[Fe++]"))[0].formal_charge == 2
        assert atoms_of(parse_smiles("[N+3]"))[0].formal_charge == 3
        assert atoms_of(parse_smiles("[C@@H](N)(C)O"))[0].chirality == CHI_AT_AT

    def test_aromatic_bracket(self):
        g = parse_smiles("c1cc[nH]c1")
        assert atoms_of(g)[3].element == "N"
        assert atoms_of(g)[3].aromatic
        assert atoms_of(g)[3].explicit_h == 1

    def test_ring_bond_order_on_either_side(self):
        for text in ("C=1CCCCC=1", "C=1CCCCC1", "C1CCCCC=1"):
            g = parse_smiles(text)
            assert sum(b.order == DOUBLE for b in bonds_of(g)) == 1

    def test_index_in_input_order(self):
        g = parse_smiles("NC(=O)c1ccccc1")
        assert [a.index for a in atoms_of(g)] == list(range(9))
        assert atoms_of(g)[0].element == "N"


class TestErrors:
    def test_unmatched_ring_closure(self):
        with pytest.raises(UnmatchedRingClosure) as err:
            parse_smiles("C1CC")
        assert err.value.offset == 1

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            parse_smiles("CQ")
        with pytest.raises(UnknownElement):
            parse_smiles("[Qq]")

    def test_invalid_bracket(self):
        with pytest.raises(InvalidBracketAtom):
            parse_smiles("[CH4")
        with pytest.raises(InvalidBracketAtom):
            parse_smiles("[C+5]")

    def test_dangling_bond(self):
        for text in ("C=", "=C", "C=.C", "C=)", "C(=)C"):
            with pytest.raises((DanglingBond, UnbalancedParenthesis)):
                parse_smiles(text)

    def test_unbalanced_parens(self):
        with pytest.raises(UnbalancedParenthesis):
            parse_smiles("C(C")
        with pytest.raises(UnbalancedParenthesis):
            parse_smiles("CC)C")

    def test_empty(self):
        with pytest.raises(EmptyInput):
            parse_smiles("")

    def test_valence(self):
        with pytest.raises(ValenceError):
            parse_smiles("C(C)(C)(C)(C)C")
        with pytest.raises(ValenceError):
            parse_smiles("O(C)(C)C")

    def test_ring_order_conflict(self):
        with pytest.raises(UnmatchedRingClosure):
            parse_smiles("C=1CCCCC#1")

    def test_duplicate_bond(self):
        with pytest.raises(UnmatchedRingClosure):
            parse_smiles("C12CC12")

    def test_self_closure(self):
        with pytest.raises(UnmatchedRingClosure):
            parse_smiles("C11")

    def test_errors_carry_offset(self):
        for text, expected in (("C1CC", 1), ("CQ", 1), ("C=", 1)):
            with pytest.raises(SmilesError) as err:
                parse_smiles(text)
            assert err.value.offset == expected


class TestImplicitHydrogens:
    @pytest.mark.parametrize(
        "smiles, counts",
        [
            ("C", [4]),
            ("O", [2]),
            ("CC(=O)O", [3, 0, 0, 1]),
            ("c1ccccc1", [1] * 6),
            ("C1=CC=CC=C1", [1] * 6),
            ("c1ccncc1", [1, 1, 1, 0, 1, 1]),
            ("[nH]1cccc1", [1, 1, 1, 1, 1]),
            ("S(=O)(=O)(O)O", [0, 0, 0, 1, 1]),
            ("[CH3-]", [3]),
        ],
    )
    def test_counts(self, smiles, counts):
        assert implicit_hydrogens(parse_smiles(smiles)) == counts

    def test_accepted_valences_within_table(self):
        from moltiers.elements import VALENCES

        for smiles in generate_corpus(300, seed=61):
            g = parse_smiles(smiles)
            hs = implicit_hydrogens(g)
            ev = g.valence
            assert ev == explicit_valences(g), smiles
            for atom in atoms_of(g):
                if atom.explicit_h is not None:
                    continue  # bracket atoms carry their own H/charge state
                total = ev[atom.index] + hs[atom.index]
                allowed = VALENCES[atom.element]
                if atom.aromatic:
                    assert total <= allowed[-1]
                else:
                    assert total in allowed

    def test_molecular_weights(self):
        assert molecular_weight(parse_smiles("C")) == pytest.approx(16.043, abs=1e-3)
        assert molecular_weight(parse_smiles("c1ccccc1")) == pytest.approx(
            78.11, abs=5e-3
        )
        assert molecular_weight(parse_smiles("CC(=O)O")) == pytest.approx(
            60.052, abs=1e-3
        )
        # kekulized and aromatic notations give the same weight
        assert molecular_weight(parse_smiles("C1=CC=CC=C1")) == pytest.approx(
            molecular_weight(parse_smiles("c1ccccc1")), abs=1e-9
        )


class TestRoundTrip:
    @pytest.mark.parametrize(
        "smiles",
        [
            "C",
            "c1ccccc1",
            "CC(=O)O",
            "CC(C)(C)c1ccc(O)cc1",
            "F/C=C/F",
            "C[C@H](N)C(=O)O",
            "c1ccc2ccccc2c1",
            "CC.O.[Na+]",
            "C1CC2CCC1CC2",
            "[13CH4]",
            "O=C1CCCCC1",
            "N#Cc1ccccc1C(=O)NC",
            "C%11CCCCC%11",
            "c1ccoc1",
            "S(=O)(=O)(N)c1ccccc1",
        ],
    )
    def test_known_round_trips(self, smiles):
        g1 = parse_smiles(smiles)
        text, order = write_smiles_mapped(g1)
        g2 = parse_smiles(text)
        assert_isomorphic(g1, g2, order)

    def test_corpus_round_trip(self):
        for smiles in generate_corpus(400, seed=3):
            g1 = parse_smiles(smiles)
            text, order = write_smiles_mapped(g1)
            g2 = parse_smiles(text)
            assert_isomorphic(g1, g2, order)

    def test_write_is_stable(self):
        g = parse_smiles("CC(=O)Oc1ccccc1C(=O)O")
        assert write_smiles(g) == write_smiles(g)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.characters(min_codepoint=1, max_codepoint=255),
                   max_size=40))
    def test_never_crashes(self, text):
        try:
            graph = parse_smiles(text)
            assert atoms_of(graph)
        except SmilesError:
            pass

    def test_random_bytes_block(self):
        for text in fuzz_strings():
            try:
                parse_smiles(text)
            except SmilesError:
                pass


def fuzz_strings(seed: int = 99, count: int = 20_000) -> list[str]:
    """Seeded strings of random bytes, up to 30 long."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(0, 30)
        out.append("".join(chr(rng.randint(1, 255)) for _ in range(n)))
    return out


# One string per raise site of the parser, in source order, each with the
# error it must give; the equivalence check below runs them all.
ERROR_CASES = [
    ("", EmptyInput),
    ("Cé", UnknownElement),
    ("=C", DanglingBond),
    ("C=(C)C", DanglingBond),
    ("(C)", UnbalancedParenthesis),
    ("C(C=)C", DanglingBond),
    ("CC)C", UnbalancedParenthesis),
    ("C==C", DanglingBond),
    ("C%1", UnmatchedRingClosure),
    ("1CC", UnmatchedRingClosure),
    ("C=1CCCCC#1", UnmatchedRingClosure),
    ("C11", UnmatchedRingClosure),
    ("C12CC12", UnmatchedRingClosure),
    ("C:C", AromaticBondError),
    ("C1CCCCC:1", AromaticBondError),
    ("C=.C", DanglingBond),
    ("CQ", UnknownElement),
    ("C=", DanglingBond),
    ("C(C", UnbalancedParenthesis),
    ("C1CC", UnmatchedRingClosure),
    ("..", EmptyInput),
    ("O(C)(C)C", ValenceError),
    ("[1234C]", InvalidBracketAtom),
    ("[C", InvalidBracketAtom),
    ("[q]", UnknownElement),
    ("[Xx]", UnknownElement),
    ("[+]", InvalidBracketAtom),
    ("[C+5]", InvalidBracketAtom),
    ("[CH4", InvalidBracketAtom),
]

# everything the bracket-free and bracket grammar reads, and some it does not
SMILES_ALPHABET = "CcNnOoSsPpBbrlFI[]()=#:/\\%0123456789.@H+-Q"


def parse_outcome(parse, text):
    """The graph, or the error's class, offset and message."""
    try:
        return parse(text)
    except SmilesError as err:
        return type(err), err.offset, err.args


def view_fields(graph) -> dict:
    """The graph's slots, field by field."""
    return {name: getattr(graph, name) for name in MolecularGraph.__slots__}


def assert_parses_as_reference(text):
    """The parser gives the graph or error the parser before it gave, and
    the arrays it fills are the ones ``build_graph`` builds from the
    reference parser's objects, field by field."""
    got = parse_outcome(parse_smiles, text)
    want = parse_outcome(reference_parse_smiles, text)
    if isinstance(want, tuple):
        assert got == want, text
        return
    assert isinstance(got, MolecularGraph), (text, got)
    assert (atoms_of(got), bonds_of(got)) == (atoms_of(want), bonds_of(want)), text
    assert view_fields(got) == view_fields(want), text
    assert got.degree == heavy_degree(want), text


class TestViewFilledByParser:
    def test_every_error_path(self):
        for text, error in ERROR_CASES:
            assert parse_outcome(reference_parse_smiles, text)[0] is error, text
            assert_parses_as_reference(text)

    def test_corpus_and_fuzz(self):
        texts = (list(generate_corpus(2500, seed=1)) + fuzz_strings(count=3000)
                 + [text for text, _ in ERROR_CASES]
                 + ["[H]C([H])([H])[H]", "[H][H]", "[2H]OC", "N[C@@H](C)C(=O)O",
                    "F/C=C/F", "c1ccccc1-c1ccccc1", "C%10CC%10", "[nH]1cccc1",
                    "C1=CC=CC=C1", "[Na+].[Cl-]", "OC(=O)c1cccnc1", "BrCCCl"])
        errors = 0
        for text in texts:
            assert_parses_as_reference(text)
            errors += isinstance(parse_outcome(reference_parse_smiles, text), tuple)
        assert 3000 < errors < len(texts) - 2500

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet=SMILES_ALPHABET, max_size=40))
    def test_generated_strings(self, text):
        assert_parses_as_reference(text)

    def test_hand_built_graph_view(self):
        # a graph built by hand gets its arrays at construction, with
        # hydrogens left out of the heavy degrees
        graph = build_graph(
            [Atom("C", index=0), Atom("H", index=1), Atom("O", index=2)],
            [Bond(0, 1), Bond(0, 2, DOUBLE)])
        assert graph.degree == [1, 1, 1]
        assert graph.element_sites == {"C": [0], "H": [1], "O": [2]}
        assert (graph.n_heavy, graph.orders) == (2, [SINGLE, DOUBLE])
        assert graph.features == feature_mask({"C": 1, "H": 1, "O": 1},
                                              {SINGLE, DOUBLE})
