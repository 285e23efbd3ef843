"""Exact enumeration of signed and colored permutation statistics,
mirror-closed set partitions, and the Stirling/Eulerian identities,
block-procedure bijections, falling-factorial bases, and lattice-point
censuses that tie them together.
"""
from .bijections import *
from .config import *
from .geometry import *
from .groups import *
from .identities import *
from .partitions import *
from .polynomials import *

__version__ = "0.1.0"
