"""Spectral laboratory for the gauged periodic mKdV system.

Sequence-space conventions throughout: fields live on [0, 2*pi) with the
e^{ikx} basis, mode vectors are ascending k = -K..K, and Sobolev norms are
plain weighted l2 sums without 2*pi factors.
"""

# The public names are those of each module's __all__, VERSION and the
# aliases at the end.
from .errors import *
from .gauge import *
from .nonlinearity import *
from .norms import *
from .picard import *
from .probes import *
from .reference import *
from .spectral import *
from .version import VERSION

__version__ = VERSION

# Aliases under the variable names of the underlying system: z is the gauged
# remainder, u the reconstructed solution, Q the phase.
solve_z = picard_solve
reconstruct_u = reconstruct_solution
solve_Q = solve_phase
