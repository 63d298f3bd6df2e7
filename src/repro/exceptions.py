"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError`, so callers can
catch a single base class when they do not care about the precise failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class HypergraphError(ReproError):
    """Raised for malformed hypergraphs (empty edges, unknown vertices, ...)."""


class ParseError(ReproError):
    """Raised when a hypergraph or query file cannot be parsed."""


class DecompositionError(ReproError):
    """Raised when a decomposition object is structurally invalid."""


class ValidationError(DecompositionError):
    """Raised when a decomposition violates one of the HD/GHD conditions."""


class SolverError(ReproError):
    """Raised for invalid solver configuration (e.g. width < 1)."""


class TimeoutExceeded(ReproError):
    """Raised internally when a decomposer exceeds its time budget."""


class QueryError(ReproError):
    """Raised for malformed queries or schema mismatches in the query substrate."""


class ServiceError(ReproError):
    """Raised by the serving layer: submit after shutdown, cancelled tickets."""
