"""CNF substrate: clause containers and Tseitin encoding.

No encoding made here is simplified before a solver sees it.
"""

from .cnf import Clause, Cnf
from .tseitin import ClauseSink, TseitinEncoder, encode_combinational

__all__ = [
    "Clause",
    "Cnf",
    "ClauseSink",
    "TseitinEncoder",
    "encode_combinational",
]
