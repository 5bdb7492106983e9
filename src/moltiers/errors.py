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
    """Operation requires a non-empty molecule corpus."""


class PrevalenceMismatch(MoltiersError):
    """A prevalence table lacks groups of the pattern library."""


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


class MissingTierField(MoltiersError):
    """Annotated record lacks the tier (or id) field needed for scheduling."""


class WorkerDied(MoltiersError):
    """A pool worker process exited while it held a chunk of the run."""
