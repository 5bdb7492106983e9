"""Exception types shared across the package."""

from __future__ import annotations


class MoltiersError(Exception):
    """Base class for every error raised by this package."""


class SmilesError(MoltiersError):
    """A SMILES string could not be parsed.

    Carries the byte offset of the offending character so callers can point
    at the exact position in the input.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnmatchedRingClosure(SmilesError):
    pass


class UnknownElement(SmilesError):
    pass


class InvalidBracketAtom(SmilesError):
    pass


class DanglingBond(SmilesError):
    pass


class EmptyInput(SmilesError):
    """Empty or whitespace-only SMILES text."""


class UnbalancedParenthesis(SmilesError):
    pass


class ValenceError(SmilesError):
    """An organic-subset atom exceeds its maximum allowed valence."""


class AromaticBondError(SmilesError):
    """An explicit aromatic bond joins at least one non-aromatic atom."""


class EmptyMolecule(MoltiersError):
    """Operation requires at least one heavy atom."""


class EmptyCorpus(MoltiersError):
    """Operation requires a non-empty molecule corpus.  ``skipped`` counts
    the entries read and found unusable on the way."""

    def __init__(self, message: str, skipped: int = 0):
        super().__init__(message)
        self.skipped = skipped


class PrevalenceMismatch(MoltiersError):
    """A prevalence table lacks groups of the pattern library, or names
    groups outside it."""


class NotFitted(MoltiersError):
    """Estimator method called before fit()."""


class ShapeMismatch(MoltiersError):
    """Embedding matrices have incompatible shapes."""


class NotNormalized(MoltiersError):
    """A matrix expected to have unit-norm rows does not."""


class DegenerateVariance(MoltiersError):
    """Correlation is undefined because one distance set is constant."""


class EpochOutOfRange(MoltiersError):
    pass


class Staged10RequiresTenEpochs(MoltiersError):
    pass


class MalformedLine(MoltiersError):
    """A line of a prevalence table or annotated file cannot be read."""


class MissingTierField(MoltiersError):
    """An input file lacks its SMILES column: the header of a delimited
    file that ``iter_input`` reads names no ``smiles_column`` (``smiles``
    by default)."""


class WorkerDied(MoltiersError):
    """A pool worker process exited while it held a chunk of the run."""
