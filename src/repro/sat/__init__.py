"""A self-contained SAT solving substrate.

The paper's tool decides whether a litmus test is admissible under a memory
model by encoding the happens-before axioms into propositional logic and
calling MiniSat.  We cannot ship MiniSat, so this package provides an
equivalent substrate written from scratch:

* :mod:`repro.sat.cnf` — literals, clauses, CNF formulas, DIMACS I/O;
* :mod:`repro.sat.tseitin` — Tseitin transformation of arbitrary boolean
  circuits into CNF;
* :mod:`repro.sat.solver` — a CDCL solver with two-watched literals,
  first-UIP conflict clause learning, VSIDS-style activities, phase saving
  and Luby restarts.

The solver is exact and is cross-validated against a truth-table oracle in
the test suite.
"""

from repro.sat.cnf import CNF, Clause
from repro.sat.solver import SatResult, SatSolver, solve
from repro.sat.tseitin import BoolExpr, BoolVar, conjoin, disjoin, negate, tseitin_encode

__all__ = [
    "CNF",
    "Clause",
    "SatResult",
    "SatSolver",
    "solve",
    "BoolExpr",
    "BoolVar",
    "conjoin",
    "disjoin",
    "negate",
    "tseitin_encode",
]
