"""Model preprocessing: shrink the circuit before any engine encodes it.

The package provides a composable pass pipeline over
:class:`~repro.aig.model.Model` objects — cone-of-influence reduction,
ternary-simulation stuck-latch sweeping, structural rewriting, SAT
sweeping (fraiging) and the ``cnf`` pass, which leaves the model as it
is — plus the :class:`~repro.preprocess.modelmap.ModelMap` machinery
that lifts counterexample traces found on the reduced model back to the
original inputs and latches, so preprocessing never weakens trace
validation.
"""

from .coi import CoiPass
from .fraig import FraigConfig, FraigPass, FraigResult, find_equivalences
from .modelmap import ModelMap
from .passes import (
    DEFAULT_PASSES,
    PASSES,
    CnfEliminationPass,
    Pass,
    PassResult,
    PassStats,
    Pipeline,
    PreprocessResult,
    build_pipeline,
)
from .rebuild import rebuild_model
from .rewrite import RewritePass, rewrite_and
from .sweep import SweepPass, ternary_latch_fixpoint

__all__ = [
    "CoiPass",
    "FraigConfig",
    "FraigPass",
    "FraigResult",
    "find_equivalences",
    "ModelMap",
    "DEFAULT_PASSES",
    "PASSES",
    "CnfEliminationPass",
    "Pass",
    "PassResult",
    "PassStats",
    "Pipeline",
    "PreprocessResult",
    "build_pipeline",
    "rebuild_model",
    "RewritePass",
    "rewrite_and",
    "SweepPass",
    "ternary_latch_fixpoint",
]
