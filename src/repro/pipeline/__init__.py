"""Staged decomposition pipeline: simplification, algorithm registry, engine.

This package is the single route from "a hypergraph and a width ``k``" to "a
hypertree decomposition":

* :mod:`repro.pipeline.simplify` — width-preserving reductions with a
  reversible trace (lifting a reduced-instance HD back to the original),
* :mod:`repro.pipeline.registry` — the declarative algorithm catalogue every
  entry point builds decomposers from,
* :mod:`repro.pipeline.engine` — the :class:`DecompositionEngine` running
  simplify → cache → per-component decompose → lift.

``Decomposer.decompose`` always delegates here; ``Decomposer.decompose_raw``
runs the raw search.
"""

from .engine import (
    CacheStatistics,
    DecompositionEngine,
    ResultCache,
    default_engine,
    set_default_engine,
)
from .registry import DecomposerRegistry, available, build, describe, register, registry
from .simplify import (
    CollapsedVertices,
    RemovedEdge,
    SimplificationTrace,
    lift_decomposition,
    simplify,
)

__all__ = [
    "CacheStatistics",
    "DecompositionEngine",
    "ResultCache",
    "default_engine",
    "set_default_engine",
    "DecomposerRegistry",
    "registry",
    "register",
    "build",
    "available",
    "describe",
    "CollapsedVertices",
    "RemovedEdge",
    "SimplificationTrace",
    "simplify",
    "lift_decomposition",
]
