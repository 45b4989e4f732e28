"""setflow: set-valued analysis and differential inclusions on finite data.

The package works with set-valued maps whose values are nonempty finite point
sets.  It verifies and extends cyclically monotone chains of (point, velocity)
pairs, classifies maps across the monotonicity hierarchy by brute force over
sample grids, builds finite-family convex potentials with their compatible
velocity submaps, and integrates differential inclusions by Euler polygons
whose node velocities form a verified chain.  A command-line front end
(``setflow solve|classify|potential|refine``) drives the same code paths from
problem-spec JSON documents.
"""

from . import geometry, setmaps, chains, potential, solver
from .geometry import *
from .setmaps import *
from .chains import *
from .potential import *
from .solver import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = sorted(geometry.__all__ + setmaps.__all__ + chains.__all__
                 + potential.__all__ + solver.__all__)
