"""Finite-time quantum Otto refrigerator for driven Ising spin chains.

The package builds the working medium as an all-to-all Ising model with
linearly interpolated fields and couplings, solves variationally for
approximate multi-spin counter-diabatic control, propagates the four-stroke
cycle exactly at small system size, and reports heats, the work split
between piston and control device, cooling power, coefficient of
performance, and the control implementation cost.

The command line is ``cdotto run`` (``cdotto.cli``); library users import
the submodules (``cdotto.cycle``, ``cdotto.agp``, ...) directly.
"""

__version__ = "0.1.0"
