"""Complete lattices with widening and narrowing operators.

This package provides the value domains over which equation systems are
solved.  Every domain is an instance of :class:`repro.lattices.base.Lattice`:
the lattice is an *object* describing the ordering, and lattice *elements* are
plain (hashable, immutable) Python values.  This mirrors the design of
analyzer frameworks such as Goblint, where the domain is a module and values
are first-class data.

The domains shipped here cover everything the paper needs:

* :mod:`~repro.lattices.natinf` -- the chain ``N `` | `` {oo}`` used by the
  paper's Examples 1--4;
* :mod:`~repro.lattices.interval` -- integer intervals with the standard
  widening and narrowing, used by the experimental evaluation;
* :mod:`~repro.lattices.flat`, :mod:`~repro.lattices.sign`,
  :mod:`~repro.lattices.parity`, :mod:`~repro.lattices.boollat`,
  :mod:`~repro.lattices.powerset` -- finite-height building blocks;
* :mod:`~repro.lattices.product`, :mod:`~repro.lattices.envlat`,
  :mod:`~repro.lattices.lifted` -- combinators;
* :mod:`~repro.lattices.widening` -- widening/narrowing *combinators*
  (delayed widening, threshold widening, k-bounded degrading narrowing).
"""

from repro.lattices.base import Lattice, LatticeError
from repro.lattices.boollat import BoolLattice
from repro.lattices.congruence import CongruenceLattice
from repro.lattices.envlat import ArrayEnv, ArrayEnvLattice, EnvSchema
from repro.lattices.flat import Flat, FlatTop, FlatBot
from repro.lattices.interval import Interval, IntervalLattice, NEG_INF, POS_INF
from repro.lattices.lifted import Lifted, LiftedBottom
from repro.lattices.natinf import NatInf, INF
from repro.lattices.parity import Parity
from repro.lattices.powerset import PowersetLattice
from repro.lattices.product import ProductLattice
from repro.lattices.sign import Sign
from repro.lattices.union import TaggedUnionLattice, UNION_BOT, UNION_TOP
from repro.lattices.widening import (
    DelayedWidening,
    ThresholdWidening,
    NarrowToMeet,
)

__all__ = [
    "Lattice",
    "LatticeError",
    "ArrayEnv",
    "ArrayEnvLattice",
    "EnvSchema",
    "BoolLattice",
    "CongruenceLattice",
    "Flat",
    "FlatTop",
    "FlatBot",
    "Interval",
    "IntervalLattice",
    "NEG_INF",
    "POS_INF",
    "Lifted",
    "LiftedBottom",
    "NatInf",
    "INF",
    "Parity",
    "PowersetLattice",
    "ProductLattice",
    "Sign",
    "TaggedUnionLattice",
    "UNION_BOT",
    "UNION_TOP",
    "DelayedWidening",
    "ThresholdWidening",
    "NarrowToMeet",
]
