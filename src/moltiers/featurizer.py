"""Corpus-fitted annotator with a scikit-learn style estimator surface.

``fit`` learns functional-group prevalence (and the top-k common groups)
from a SMILES corpus; ``transform`` turns SMILES into descriptor/tier
records ready for JSON serialization.  ``get_params``/``set_params`` follow
the scikit-learn contract so the annotator drops into sklearn pipelines and
search utilities without this package depending on sklearn.

``annotate_one``, ``transform`` and ``predict`` keep one entry per molecule
in a ``functools.lru_cache`` of up to ``DESCRIBE_CACHE_SIZE`` stripped
SMILES, one per annotator and library, least recently used out first.  An
entry holds the molecule's group-name set and its finished part: the
fitted state it was finished under, its record row under that state (the
``RECORD_FIELDS`` dict, with no id and its group names as a sorted tuple)
and its tier label.  That state is the ``(prevalence_, top_groups_,
config_)`` tuple that ``fit``, ``set_prevalence`` and ``set_params``
replace whole.  A request whose entry was finished under the current state
(by identity) is served from the row: ``transform`` copies it and sets the
id and a fresh ``fg_names`` list, ``predict`` reads the label, and
``annotate_one`` rebuilds the record from the row.  Otherwise the entry is
finished again from the core its row describes and holds the new row.  The
row is the entry's one copy of the descriptors: no ``DescriptorCore`` is
kept beside it.  Each call reads the state once, so under a concurrent
``set_prevalence`` it answers wholly under the old state or wholly under
the new one.  Equal group-name sets are interned with their sorted names.
An entry takes about 910 bytes (``tracemalloc`` over 5,000 distinct
generated molecules, Python 3.11), ~465 of them the row; an entry not
requested since an older state keeps that state's table alive until it is
finished again or evicted.  The cache is rebuilt empty when ``library``
changes, never holds unannotatable input (``lru_cache`` stores no
exception), and is not copied by pickle or deepcopy.  ``describe`` is
uncached: the annotate pipeline, whose input has no repeats, calls it.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, NamedTuple, Sequence

from .descriptors import (
    DescriptorCore,
    DescriptorRecord,
    descriptor_core,
    finish_record,
    with_rarity,
)
from .errors import EmptyMolecule, NotFitted, PrevalenceMismatch, SmilesError
from .fgroups import (
    FGLibrary,
    PrevalenceTable,
    corpus_prevalence,
    default_library,
    top_k_groups,
)
from .graph import StructuralCounts, perceive_aromaticity
from .records import RECORD_FIELDS  # noqa: F401  (re-exported)
from .smiles import parse_smiles
from .tiering import TierConfig, TierLabel, assign_tier

# Input that yields no record: unparseable SMILES, or no heavy atom.  Such
# lines are skipped and counted, never fatal.
UNANNOTATABLE = (SmilesError, EmptyMolecule)

# Most described molecules one annotator remembers (see the module docstring)
DESCRIBE_CACHE_SIZE = 8192


def _row(mol_id: int | None, smiles: str, core: DescriptorCore | DescriptorRecord,
         rarity: float | None, fg_names: Sequence[str], tier: str | None) -> dict:
    """The fixed JSONL schema (field order matters)."""
    counts = core.counts
    return {
        "id": mol_id,
        "smiles": smiles,
        "d_scaf": core.d_scaf,
        "rarity": rarity,
        "conjugation": core.conjugation,
        "arom_sub": core.arom_sub,
        "bertz_ct": core.bertz_ct,
        "n_ha": counts.n_ha,
        "n_het": counts.n_het,
        "n_ring": counts.n_ring,
        "n_sc": counts.n_sc,
        "n_fg": core.n_fg,
        "mw": counts.mw,
        "fg_names": fg_names,
        "tier": tier,
    }


def record_to_dict(
    mol_id: int,
    smiles: str,
    record: DescriptorRecord,
    label: TierLabel,
    include_trace: bool = False,
) -> dict:
    """Flatten a record into the fixed JSONL schema."""
    out = _row(mol_id, smiles, record, record.rarity, sorted(record.fg_names),
               label.tier)
    if include_trace:
        out["rule_trace"] = label.rule_trace
    return out


class _Fitted(NamedTuple):
    """What ``fit``, ``set_prevalence`` and ``set_params`` set, replaced whole."""

    prevalence: PrevalenceTable
    top_groups: frozenset[str]
    config: TierConfig


def _finish(core: DescriptorCore, state: _Fitted) -> tuple[DescriptorRecord, TierLabel]:
    record = finish_record(core, state.prevalence)
    return record, assign_tier(record, state.top_groups, state.config)


def _core(row: dict, groups: frozenset[str]) -> DescriptorCore:
    """The core a cached row was built from, ``groups`` its group names."""
    return DescriptorCore(
        row["d_scaf"], row["conjugation"], row["arom_sub"], row["bertz_ct"],
        StructuralCounts(row["n_ha"], row["n_het"], row["n_ring"], row["n_sc"],
                         row["mw"]),
        row["n_fg"], groups)


class _Entry:
    """A cached molecule: its group-name set and its finished part
    ``(state, row, label)``, one tuple in one slot, so a thread reads either
    the old tuple or the new one.  ``row`` is the record under ``state``
    with no id and its group names as a tuple; it is never changed, only
    copied.  Before the first finish the state, rarity and tier are None."""

    __slots__ = ("groups", "finished")

    def __init__(self, groups: frozenset[str], row: dict):
        self.groups = groups
        self.finished = (None, row, None)


def _finished(entry: _Entry, state: _Fitted) -> tuple:
    """``entry``'s ``(state, row, label)``, finished once per state."""
    finished = entry.finished
    if finished[0] is not state:
        row = finished[1]
        record, label = _finish(_core(row, entry.groups), state)
        row = _row(None, row["smiles"], record, record.rarity, row["fg_names"],
                   label.tier)
        finished = entry.finished = (state, row, label)
    return finished


def _describe_cache(library: FGLibrary | None) -> Callable[[str], _Entry]:
    """The cache entry of a stripped SMILES under ``library``, memoised.

    Equal group-name sets are interned, each with its names in order: many
    molecules share few sets.
    """
    names: dict[frozenset[str], tuple[frozenset[str], tuple[str, ...]]] = {}

    @functools.lru_cache(DESCRIBE_CACHE_SIZE)
    def entry(smiles: str) -> _Entry:
        core = descriptor_core(parse_smiles(smiles), library)
        if len(names) >= DESCRIBE_CACHE_SIZE:
            names.clear()
        groups, ordered = names.setdefault(
            core.fg_names, (core.fg_names, tuple(sorted(core.fg_names))))
        return _Entry(groups, _row(None, smiles, core, None, ordered, None))

    entry.library = library
    return entry


# the tier parameters' defaults; on the named tuple, the field names are
# accessors, not values
_DEFAULTS = TierConfig._field_defaults


class ComplexityAnnotator:
    """fit on a corpus, transform SMILES into descriptor/tier records."""

    def __init__(
        self,
        rarity_threshold: float = _DEFAULTS["rarity_threshold"],
        top_k: int = _DEFAULTS["top_k"],
        s_threshold: int = _DEFAULTS["s_threshold"],
        ct_per_ha_threshold: float = _DEFAULTS["ct_per_ha_threshold"],
        min_rings_t3: int = _DEFAULTS["min_rings_t3"],
        fg_low: int = _DEFAULTS["fg_low"],
        fg_mid_lo: int = _DEFAULTS["fg_mid_lo"],
        fg_mid_hi: int = _DEFAULTS["fg_mid_hi"],
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
        code = cls.__init__.__code__
        return list(code.co_varnames[1:code.co_argcount + code.co_kwonlyargcount])

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
                if graph.n_heavy:
                    yield graph
                else:
                    skipped += 1

        self.set_prevalence(corpus_prevalence(graphs(), library))
        self.n_skipped_ = skipped
        return self

    def _state(self) -> _Fitted:
        try:
            return self._fitted
        except AttributeError:
            raise NotFitted("call fit() before transform()/predict()") from None

    def set_prevalence(self, table: PrevalenceTable) -> "ComplexityAnnotator":
        """Adopt a precomputed prevalence table instead of fitting.

        Raises PrevalenceMismatch when the table lacks a library group or
        names a group outside the library.
        """
        names = self._lib().names()
        missing = [n for n in names if n not in table.prevalence]
        extra = sorted(table.prevalence.keys() - set(names))
        problems = []
        if missing:
            problems.append(f"lacks {len(missing)} library group(s): "
                            + ", ".join(missing))
        if extra:
            problems.append(f"has {len(extra)} group(s) outside the library: "
                            + ", ".join(extra))
        if problems:
            raise PrevalenceMismatch("prevalence table " + "; ".join(problems))
        self._adopt(table)
        self.n_fitted_ = table.corpus_size
        self.n_skipped_ = 0
        return self

    def _adopt(self, table: PrevalenceTable) -> None:
        # finish reads the validated config held here, refreshed by
        # set_params, and the top groups its top_k picks from the table;
        # one assignment, so a reader never sees parts of two fits
        config = self.tier_config()
        self._fitted = _Fitted(
            table, frozenset(top_k_groups(table, config.top_k)), config)

    @property
    def prevalence_(self) -> PrevalenceTable:
        return self._fitted.prevalence

    @property
    def top_groups_(self) -> frozenset[str]:
        return self._fitted.top_groups

    @property
    def config_(self) -> TierConfig:
        return self._fitted.config

    def describe(self, smiles: str) -> DescriptorCore:
        """The corpus-independent part of a record; needs no fit."""
        # descriptor_core perceives aromaticity itself; don't do it twice
        return descriptor_core(parse_smiles(smiles.strip()), self._lib())

    def finish(self, core: DescriptorCore) -> tuple[DescriptorRecord, TierLabel]:
        """Rarity and tier for a described molecule under the fitted table."""
        return _finish(core, self._fitted)

    def _entries(self) -> Callable[[str], _Entry]:
        """The describe cache for the current library."""
        cache = self.__dict__.get("_cache")
        if cache is None or cache.library is not self.library:
            cache = self._cache = _describe_cache(self.library)
        return cache

    def annotate_one(self, smiles: str) -> tuple[DescriptorRecord, TierLabel]:
        state = self._state()
        entry = self._entries()(smiles.strip())
        _, row, label = _finished(entry, state)
        return with_rarity(_core(row, entry.groups), row["rarity"]), label

    def transform(self, X: Iterable[str]) -> list[dict]:
        """One record dict per parseable input, in input order."""
        state = self._state()
        cache = self._entries()
        out = []
        for i, text in enumerate(X):
            smiles = text.strip()
            try:
                entry = cache(smiles)
            except UNANNOTATABLE:
                continue
            # _finished's test, inlined: a hit makes no call for it
            finished = entry.finished
            if finished[0] is not state:
                finished = _finished(entry, state)
            row = finished[1].copy()
            row["id"] = i
            row["fg_names"] = list(row["fg_names"])
            out.append(row)
        return out

    def fit_transform(self, X, y=None) -> list[dict]:
        smiles = list(X)
        return self.fit(smiles).transform(smiles)

    def predict(self, X: Iterable[str]) -> list[str]:
        """Tier label per input SMILES."""
        state = self._state()
        cache = self._entries()
        return [_finished(cache(text.strip()), state)[2].tier for text in X]
