"""Seeded workload inputs.  The same seed always yields the same inputs."""

from __future__ import annotations

import bisect
import json
import random
from pathlib import Path

from moltiers.fgroups import default_library
from moltiers.synth import random_smiles

# One entry per SmilesError kind the corpus must exercise.
MALFORMED = (
    "C1CCC",        # unclosed ring
    "CC(CC",        # unbalanced parenthesis
    "CC)C",         # unbalanced parenthesis
    "CJC",          # unknown element
    "C[Xy]C",       # unknown element
    "C[C@@H",       # bad bracket atom
    "C[13]C",       # bad bracket atom
)
MALFORMED_EVERY = 50  # one malformed line after every 49 valid ones

# Tier sizes reported in the paper (T0..T4); the curriculum scales them down.
PAPER_TIER_COUNTS = (268, 107370, 153955, 703283, 35124)

ZIPF_S = 1.1


def unique_smiles(n: int, rng: random.Random) -> list[str]:
    """n distinct synthetic SMILES strings."""
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < n:
        smiles = random_smiles(rng)
        if smiles not in seen:
            seen.add(smiles)
            out.append(smiles)
    return out


def corpus_lines(n_valid: int, seed: int) -> tuple[list[str], int]:
    """Unique valid SMILES with malformed lines mixed in at a fixed share.

    Returns the lines and the number of malformed lines injected.
    """
    rng = random.Random(seed)
    valid = unique_smiles(n_valid, rng)
    lines: list[str] = []
    injected = 0
    for smiles in valid:
        if len(lines) % MALFORMED_EVERY == MALFORMED_EVERY - 1:
            lines.append(MALFORMED[injected % len(MALFORMED)])
            injected += 1
        lines.append(smiles)
    return lines, injected


def write_lines(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def zipf_stream(pool_size: int, n: int, seed: int, segment: int,
                s: float = ZIPF_S) -> list[int]:
    """n pool indices drawn Zipf(s) over popularity ranks.

    The rank-to-molecule mapping is a fresh seeded permutation every
    `segment` draws (popularity drifts), so a run's mean request cost is not
    set by the handful of molecules that top a single ranking.
    """
    rng = random.Random(seed)
    cumulative = []
    total = 0.0
    for rank in range(1, pool_size + 1):
        total += rank ** -s
        cumulative.append(total)
    order = list(range(pool_size))
    draws = []
    for k in range(n):
        if k % segment == 0:
            rng.shuffle(order)
        rank = bisect.bisect_left(cumulative, rng.random() * total)
        draws.append(order[min(rank, pool_size - 1)])
    return draws


def scaled_tier_counts(total: int) -> list[int]:
    """Paper tier proportions at `total` molecules (largest remainder)."""
    paper = sum(PAPER_TIER_COUNTS)
    exact = [c * total / paper for c in PAPER_TIER_COUNTS]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(5), key=lambda t: exact[t] - counts[t], reverse=True)
    for t in by_remainder[: total - sum(counts)]:
        counts[t] += 1
    return counts


def write_annotated(path: Path, total: int, seed: int) -> tuple[list[int], list[str]]:
    """An annotated JSONL in the annotate output schema with tiers in the
    paper's proportions.  Descriptor values are synthetic; ids and tiers are
    what the schedule consumes.  Returns tier counts and the SMILES column."""
    rng = random.Random(seed)
    counts = scaled_tier_counts(total)
    tiers = [t for t, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(tiers)
    smiles = unique_smiles(total, rng)
    names = default_library().names()
    with open(path, "w", encoding="utf-8") as fh:
        for mol_id, (text, tier) in enumerate(zip(smiles, tiers)):
            n_ha = rng.randint(4, 40)
            fg_names = sorted(rng.sample(names, rng.randint(0, 5)))
            fh.write(json.dumps({
                "id": mol_id,
                "smiles": text,
                "d_scaf": rng.random(),
                "rarity": rng.random(),
                "conjugation": rng.randint(0, 20),
                "arom_sub": rng.randint(0, 8),
                "bertz_ct": rng.random() * 300.0,
                "n_ha": n_ha,
                "n_het": rng.randint(0, n_ha // 3),
                "n_ring": rng.randint(0, 4),
                "n_sc": int(tier == 4 and rng.random() < 0.5),
                "n_fg": len(fg_names),
                "mw": rng.random() * 500.0,
                "fg_names": fg_names,
                "tier": f"T{tier}",
            }, separators=(",", ":")) + "\n")
    return counts, smiles
