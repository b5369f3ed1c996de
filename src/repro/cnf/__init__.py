"""CNF substrate: clause containers, DIMACS I/O, Tseitin encoding.

No encoding made here is simplified before a solver sees it.
"""

from .cnf import Clause, Cnf, neg, var_of
from .dimacs import DimacsError, dumps_dimacs, loads_dimacs, read_dimacs, write_dimacs
from .tseitin import ClauseSink, TseitinEncoder, encode_combinational

__all__ = [
    "Clause",
    "Cnf",
    "neg",
    "var_of",
    "DimacsError",
    "dumps_dimacs",
    "loads_dimacs",
    "read_dimacs",
    "write_dimacs",
    "ClauseSink",
    "TseitinEncoder",
    "encode_combinational",
]
