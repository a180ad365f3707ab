"""Marked-pattern permutation classes and the composition eigensequence.

The package counts and constructs the permutations in which a 3241
pattern may only occur inside a 35241 pattern, proves (computationally)
that they are enumerated by the unique monic integer sequence whose
generating series shifts left under self-composition, and classifies all
96 single-marked patterns on four letters by their counting sequences.
"""

from .bijection import *
from .four_patterns import *
from .perms import *
from .recurrences import *
from .series import *
from .textforms import *
from .verify import *

__version__ = "0.1.0"
