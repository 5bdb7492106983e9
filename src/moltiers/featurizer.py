"""Corpus-fitted annotator with a scikit-learn style estimator surface.

``fit`` learns functional-group prevalence (and the top-k common groups)
from a SMILES corpus; ``transform`` turns SMILES into descriptor/tier
records ready for JSON serialization.  ``get_params``/``set_params`` follow
the scikit-learn contract so the annotator drops into sklearn pipelines and
search utilities without this package depending on sklearn.

Only rarity and tier depend on the fitted table, so ``annotate_one``,
``transform`` and ``predict`` remember the corpus-independent part of each
molecule (its ``DescriptorCore``) in a ``functools.lru_cache`` of up to
``DESCRIBE_CACHE_SIZE`` stripped SMILES, one per annotator and library: the
least recently used entry is evicted first, and a repeated request is only
finished.  Equal group-name sets are interned, so an entry takes about 430
bytes.  The cache stays valid across ``fit``, ``set_prevalence`` and
``set_params``, because rarity and tier are computed on every call; it is
rebuilt empty when ``library`` changes, never holds unannotatable input
(``lru_cache`` stores no exception), and is not copied by pickle or
deepcopy.  ``describe`` is uncached: the annotate pipeline, whose input has
no repeats, calls it.
"""

from __future__ import annotations

import functools
import inspect
from typing import Callable, Iterable

from .descriptors import (
    DescriptorCore,
    DescriptorRecord,
    descriptor_core,
    finish_record,
)
from .errors import EmptyMolecule, NotFitted, PrevalenceMismatch, SmilesError
from .fgroups import (
    FGLibrary,
    PrevalenceTable,
    corpus_prevalence,
    default_library,
    top_k_groups,
)
from .graph import has_heavy_atom, perceive_aromaticity
from .records import RECORD_FIELDS  # noqa: F401  (re-exported)
from .smiles import parse_smiles
from .tiering import TierConfig, TierLabel, assign_tier

# Input that yields no record: unparseable SMILES, or no heavy atom.  Such
# lines are skipped and counted, never fatal.
UNANNOTATABLE = (SmilesError, EmptyMolecule)

# Most described molecules one annotator remembers (see the module docstring)
DESCRIBE_CACHE_SIZE = 8192


def record_to_dict(
    mol_id: int,
    smiles: str,
    record: DescriptorRecord,
    label: TierLabel,
    include_trace: bool = False,
) -> dict:
    """Flatten a record into the fixed JSONL schema (field order matters)."""
    out = {
        "id": mol_id,
        "smiles": smiles,
        "d_scaf": record.d_scaf,
        "rarity": record.rarity,
        "conjugation": record.conjugation,
        "arom_sub": record.arom_sub,
        "bertz_ct": record.bertz_ct,
        "n_ha": record.counts.n_ha,
        "n_het": record.counts.n_het,
        "n_ring": record.counts.n_ring,
        "n_sc": record.counts.n_sc,
        "n_fg": record.n_fg,
        "mw": record.counts.mw,
        "fg_names": sorted(record.fg_names),
        "tier": label.tier,
    }
    if include_trace:
        out["rule_trace"] = label.rule_trace
    return out


def _describe_cache(library: FGLibrary | None) -> Callable[[str], DescriptorCore]:
    """``describe`` for stripped SMILES under ``library``, memoised.

    Equal group-name sets are interned: many molecules share few sets.
    """
    names: dict[frozenset[str], frozenset[str]] = {}

    @functools.lru_cache(DESCRIBE_CACHE_SIZE)
    def describe(smiles: str) -> DescriptorCore:
        core = descriptor_core(parse_smiles(smiles), library)
        if len(names) >= DESCRIBE_CACHE_SIZE:
            names.clear()
        core.fg_names = names.setdefault(core.fg_names, core.fg_names)
        return core

    describe.library = library
    return describe


class ComplexityAnnotator:
    """fit on a corpus, transform SMILES into descriptor/tier records."""

    def __init__(
        self,
        rarity_threshold: float = TierConfig.rarity_threshold,
        top_k: int = TierConfig.top_k,
        s_threshold: int = TierConfig.s_threshold,
        ct_per_ha_threshold: float = TierConfig.ct_per_ha_threshold,
        min_rings_t3: int = TierConfig.min_rings_t3,
        fg_low: int = TierConfig.fg_low,
        fg_mid_lo: int = TierConfig.fg_mid_lo,
        fg_mid_hi: int = TierConfig.fg_mid_hi,
        library: FGLibrary | None = None,
    ):
        self.rarity_threshold = rarity_threshold
        self.top_k = top_k
        self.s_threshold = s_threshold
        self.ct_per_ha_threshold = ct_per_ha_threshold
        self.min_rings_t3 = min_rings_t3
        self.fg_low = fg_low
        self.fg_mid_lo = fg_mid_lo
        self.fg_mid_hi = fg_mid_hi
        self.library = library

    # -- sklearn-style parameter plumbing ---------------------------------
    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [p for p in sig.parameters if p != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "ComplexityAnnotator":
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r}")
            setattr(self, key, value)
        if hasattr(self, "prevalence_"):
            self._adopt(self.prevalence_)
        return self

    def __getstate__(self) -> dict:
        # the describe cache is a memo, not state: copies start without it
        state = self.__dict__.copy()
        state.pop("_cache", None)
        return state

    # -- estimator surface -------------------------------------------------
    def tier_config(self) -> TierConfig:
        """The tier parameters; raises ValueError when they are invalid."""
        return TierConfig.from_attributes(self)

    def _lib(self) -> FGLibrary:
        return self.library if self.library is not None else default_library()

    def fit(self, X: Iterable[str], y=None) -> "ComplexityAnnotator":
        """Learn group prevalence from a SMILES corpus.

        Unparseable and heavy-atom-free entries are skipped and counted in
        ``n_skipped_``; they are not part of the corpus size.  Invalid tier
        parameters raise ValueError before ``X`` is read.
        """
        self.tier_config()
        library = self._lib()
        skipped = 0

        def graphs():
            nonlocal skipped
            for text in X:
                try:
                    graph = perceive_aromaticity(parse_smiles(text.strip()))
                except SmilesError:
                    skipped += 1
                    continue
                if has_heavy_atom(graph):
                    yield graph
                else:
                    skipped += 1

        self.set_prevalence(corpus_prevalence(graphs(), library))
        self.n_skipped_ = skipped
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "prevalence_"):
            raise NotFitted("call fit() before transform()/predict()")

    def set_prevalence(self, table: PrevalenceTable) -> "ComplexityAnnotator":
        """Adopt a precomputed prevalence table instead of fitting.

        Raises PrevalenceMismatch when the table lacks a library group.
        """
        missing = [n for n in self._lib().names() if n not in table.prevalence]
        if missing:
            raise PrevalenceMismatch(
                f"prevalence table lacks {len(missing)} library group(s): "
                + ", ".join(missing)
            )
        self._adopt(table)
        self.n_fitted_ = table.corpus_size
        self.n_skipped_ = 0
        return self

    def _adopt(self, table: PrevalenceTable) -> None:
        # finish reads the validated config held here, refreshed by
        # set_params, and the top groups its top_k picks from the table
        config = self.tier_config()
        self.top_groups_ = frozenset(top_k_groups(table, config.top_k))
        self.config_ = config
        self.prevalence_ = table

    def describe(self, smiles: str) -> DescriptorCore:
        """The corpus-independent part of a record; needs no fit."""
        # descriptor_core perceives aromaticity itself; don't do it twice
        return descriptor_core(parse_smiles(smiles.strip()), self._lib())

    def finish(self, core: DescriptorCore) -> tuple[DescriptorRecord, TierLabel]:
        """Rarity and tier for a described molecule under the fitted table."""
        record = finish_record(core, self.prevalence_)
        label = assign_tier(record, self.top_groups_, self.config_)
        return record, label

    def _cached_core(self, smiles: str) -> DescriptorCore:
        """``describe`` for a stripped SMILES, through the bounded cache."""
        cache = self.__dict__.get("_cache")
        if cache is None or cache.library is not self.library:
            cache = self._cache = _describe_cache(self.library)
        return cache(smiles)

    def annotate_one(self, smiles: str) -> tuple[DescriptorRecord, TierLabel]:
        self._check_fitted()
        return self.finish(self._cached_core(smiles.strip()))

    def transform(self, X: Iterable[str]) -> list[dict]:
        """One record dict per parseable input, in input order."""
        self._check_fitted()
        out = []
        for i, text in enumerate(X):
            smiles = text.strip()
            try:
                record, label = self.finish(self._cached_core(smiles))
            except UNANNOTATABLE:
                continue
            out.append(record_to_dict(i, smiles, record, label))
        return out

    def fit_transform(self, X, y=None) -> list[dict]:
        smiles = list(X)
        return self.fit(smiles).transform(smiles)

    def predict(self, X: Iterable[str]) -> list[str]:
        """Tier label per input SMILES."""
        self._check_fitted()
        return [self.annotate_one(text)[1].tier for text in X]
