"""Affine invariant generation (our replacement for Aspic/Sting).

The analysis needs, for each location, a conjunction of affine
inequalities over-approximating the reachable states (algorithm
assumption 1).  This package computes such invariants by forward
abstract interpretation on a polyhedra-lite domain:

- :class:`~repro.invariants.polyhedron.Polyhedron` — conjunctions of
  :class:`~repro.ts.guards.LinIneq` with exact LP-based entailment,
  meet, weak join, widening and Fourier-Motzkin projection;
- :mod:`~repro.invariants.kernel` — the exact integer dual simplex that
  answers every LP the domain asks;
- :mod:`~repro.invariants.intervals` — interval arithmetic used to bound
  non-affine (polynomial) updates;
- :mod:`~repro.invariants.engine` — the worklist fixpoint with delayed
  widening and narrowing;
- :func:`~repro.invariants.generator.generate_invariants` — the public
  entry point, which also conjoins user annotations (the paper's
  manually strengthened invariants, marked ``*`` in Table 1).
"""

from repro.invariants.polyhedron import Polyhedron
from repro.invariants.intervals import Interval, polynomial_range
from repro.invariants.engine import FixpointEngine
from repro.invariants.generator import InvariantMap, generate_invariants

__all__ = [
    "Polyhedron",
    "Interval",
    "polynomial_range",
    "FixpointEngine",
    "InvariantMap",
    "generate_invariants",
]
