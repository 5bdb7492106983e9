"""moltiers: molecular complexity descriptors, curriculum tiers, schedule
manifests, and contrastive-loss kernels."""

from importlib import import_module

__version__ = "0.1.0"

# Every public name loads its module on first access, so importing the
# package, or the CLI, loads only what is used: `schedule` and `stats` load
# no SMILES or descriptor code, and nothing but the loss kernels needs
# numpy.
_EXPORTS = {
    "descriptors": (
        "DescriptorCore",
        "DescriptorRecord",
        "aromatic_substitution_complexity",
        "bertz_ct",
        "conjugation_extent",
        "descriptor_core",
        "fg_rarity",
        "finish_record",
        "scaffold_decoration",
    ),
    "fgroups": (
        "FGLibrary",
        "FunctionalGroupPattern",
        "PrevalenceTable",
        "corpus_prevalence",
        "default_library",
        "present_groups",
        "top_k_groups",
    ),
    "featurizer": ("ComplexityAnnotator",),
    "graph": (
        "MolecularGraph",
        "RingInfo",
        "ScaffoldResult",
        "StructuralCounts",
        "murcko_scaffold",
        "perceive_aromaticity",
        "ring_info",
        "structural_counts",
    ),
    "losses": (
        "LinearMap",
        "LossParams",
        "hybrid_loss",
        "l2_normalize_rows",
        "nt_xent",
        "pairwise_distance_correlation",
        "siglip_loss",
    ),
    "scheduler": (
        "EpochManifest",
        "ScheduleSpec",
        "TierIndex",
        "active_tiers",
        "baseline_budget",
        "budget",
        "sample_epoch",
        "tier_weights_mixed",
    ),
    "smiles": ("parse_smiles",),
    "synth": ("generate_corpus", "random_smiles"),
    "tiering": ("TierConfig", "TierLabel", "assign_tier"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})

