"""Element tables: symbols, atomic masses, and the SMILES valence model."""

from __future__ import annotations

# Lowercase symbols accepted as aromatic atoms (organic subset only outside
# brackets; 'se'/'as' additionally allowed inside brackets).
AROMATIC_ORGANIC = frozenset({"b", "c", "n", "o", "p", "s"})
AROMATIC_BRACKET = frozenset({"b", "c", "n", "o", "p", "s", "se", "as"})

# Implicit-hydrogen valence model for unbracketed atoms.  Multi-valent
# elements list their allowed valences in increasing order.
VALENCES: dict[str, tuple[int, ...]] = {
    "B": (3,),
    "C": (4,),
    "N": (3,),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}

# Standard atomic weights (IUPAC 2021, conventional values), covering the
# organic subset plus bracket-atom elements common in small-molecule corpora.
ATOMIC_MASS: dict[str, float] = {
    "H": 1.008,
    "He": 4.002602,
    "Li": 6.94,
    "Be": 9.0121831,
    "B": 10.81,
    "C": 12.011,
    "N": 14.007,
    "O": 15.999,
    "F": 18.998403163,
    "Ne": 20.1797,
    "Na": 22.98976928,
    "Mg": 24.305,
    "Al": 26.9815384,
    "Si": 28.085,
    "P": 30.973761998,
    "S": 32.06,
    "Cl": 35.45,
    "Ar": 39.95,
    "K": 39.0983,
    "Ca": 40.078,
    "Ti": 47.867,
    "Cr": 51.9961,
    "Mn": 54.938043,
    "Fe": 55.845,
    "Co": 58.933194,
    "Ni": 58.6934,
    "Cu": 63.546,
    "Zn": 65.38,
    "Ga": 69.723,
    "Ge": 72.63,
    "As": 74.921595,
    "Se": 78.971,
    "Br": 79.904,
    "Kr": 83.798,
    "Rb": 85.4678,
    "Sr": 87.62,
    "Zr": 91.224,
    "Mo": 95.95,
    "Ru": 101.07,
    "Rh": 102.90549,
    "Pd": 106.42,
    "Ag": 107.8682,
    "Cd": 112.414,
    "In": 114.818,
    "Sn": 118.71,
    "Sb": 121.76,
    "Te": 127.6,
    "I": 126.90447,
    "Xe": 131.293,
    "Cs": 132.90545196,
    "Ba": 137.327,
    "W": 183.84,
    "Pt": 195.084,
    "Au": 196.966570,
    "Hg": 200.592,
    "Tl": 204.38,
    "Pb": 207.2,
    "Bi": 208.98040,
}

KNOWN_ELEMENTS = frozenset(ATOMIC_MASS)

HYDROGEN_MASS = ATOMIC_MASS["H"]
