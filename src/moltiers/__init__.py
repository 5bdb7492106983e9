"""moltiers: molecular complexity descriptors, curriculum tiers, schedule
manifests, and contrastive-loss kernels."""

from .descriptors import (
    DescriptorCore,
    DescriptorRecord,
    aromatic_substitution_complexity,
    bertz_ct,
    conjugation_extent,
    descriptor_core,
    descriptor_record,
    fg_rarity,
    finish_record,
    scaffold_decoration,
)
from .fgroups import (
    FGLibrary,
    FunctionalGroupPattern,
    PrevalenceTable,
    corpus_prevalence,
    default_library,
    match_groups,
    present_groups,
    top_k_groups,
)
from .featurizer import ComplexityAnnotator
from .graph import (
    MolecularGraph,
    RingInfo,
    ScaffoldResult,
    StructuralCounts,
    conjugated_components,
    murcko_scaffold,
    perceive_aromaticity,
    ring_info,
    structural_counts,
)
from .scheduler import (
    EpochManifest,
    ScheduleSpec,
    TierIndex,
    active_tiers,
    baseline_budget,
    budget,
    sample_epoch,
    tier_weights_mixed,
)
from .smiles import Atom, Bond, parse_smiles, write_smiles
from .synth import generate_corpus, random_smiles
from .tiering import TierConfig, TierLabel, assign_tier, tier_histogram

__version__ = "0.1.0"

# The loss kernels need numpy; they load on first access, so importing the
# package (and the CLI) does not import numpy.
_LOSS_NAMES = frozenset({
    "LinearMap",
    "LossParams",
    "hybrid_loss",
    "l2_normalize_rows",
    "load_embeddings",
    "nt_xent",
    "pairwise_distance_correlation",
    "save_embeddings",
    "siglip_loss",
})


def __getattr__(name: str):
    if name in _LOSS_NAMES:
        from . import losses

        return getattr(losses, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Atom",
    "Bond",
    "ComplexityAnnotator",
    "DescriptorCore",
    "DescriptorRecord",
    "EpochManifest",
    "FGLibrary",
    "FunctionalGroupPattern",
    "LinearMap",
    "LossParams",
    "MolecularGraph",
    "PrevalenceTable",
    "RingInfo",
    "ScaffoldResult",
    "ScheduleSpec",
    "StructuralCounts",
    "TierConfig",
    "TierIndex",
    "TierLabel",
    "active_tiers",
    "aromatic_substitution_complexity",
    "assign_tier",
    "baseline_budget",
    "bertz_ct",
    "budget",
    "conjugated_components",
    "conjugation_extent",
    "corpus_prevalence",
    "default_library",
    "descriptor_core",
    "descriptor_record",
    "fg_rarity",
    "finish_record",
    "generate_corpus",
    "hybrid_loss",
    "l2_normalize_rows",
    "load_embeddings",
    "match_groups",
    "murcko_scaffold",
    "nt_xent",
    "pairwise_distance_correlation",
    "parse_smiles",
    "perceive_aromaticity",
    "present_groups",
    "random_smiles",
    "ring_info",
    "sample_epoch",
    "save_embeddings",
    "scaffold_decoration",
    "siglip_loss",
    "structural_counts",
    "tier_histogram",
    "tier_weights_mixed",
    "top_k_groups",
    "write_smiles",
]
