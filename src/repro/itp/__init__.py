"""Craig interpolation over resolution proofs: labelling, extraction, sequences."""

from .craig import ITP_SYSTEMS, InterpolantBuilder, InterpolationError
from .labeling import VarClass
from .sequence import InterpolationSequence, extract_sequence

__all__ = [
    "ITP_SYSTEMS",
    "InterpolantBuilder",
    "InterpolationError",
    "VarClass",
    "InterpolationSequence",
    "extract_sequence",
]

from .verify import check_craig_conditions, check_sequence_conditions, itp_support_vars

__all__ += [
    "check_craig_conditions",
    "check_sequence_conditions",
    "itp_support_vars",
]

from .compact import ConeCompaction, compact_cone

__all__ += [
    "ConeCompaction",
    "compact_cone",
]
