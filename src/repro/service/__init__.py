"""The concurrent serving layer: shared caches, dedup, priority scheduling.

See :mod:`repro.service.service` for the design; the short version is that
:class:`DecompositionService` lets many threads share one decomposition
pipeline and one query engine (each shared cache behind one lock), with
concurrent requests for the same work coalesced onto a single computation.
"""

from .service import (
    PRIORITY_BULK,
    PRIORITY_INTERACTIVE,
    PRIORITY_NORMAL,
    DecompositionService,
    ServiceStats,
    ServiceTicket,
)

__all__ = [
    "PRIORITY_INTERACTIVE",
    "PRIORITY_NORMAL",
    "PRIORITY_BULK",
    "DecompositionService",
    "ServiceStats",
    "ServiceTicket",
]
