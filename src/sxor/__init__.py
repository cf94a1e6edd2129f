"""Shift-and-XOR erasure codes over GF(2**m).

Encode K source packets into N >= K packets using only bit shifts and
XORs; any K surviving packets recover the sources exactly, at the price
of a few extra bits per packet instead of full finite-field multiplies.
See :mod:`sxor.codes` for the constructions, :mod:`sxor.codec` for the
encoder and the two decoders, and :mod:`sxor.analysis` for code-family
analysis and reports.
"""

from . import analysis, codec, codes, gf2m, gf2poly, polymat
from .gf2poly import *
from .gf2m import *
from .polymat import *
from .codes import *
from .codec import *
from .analysis import *

__version__ = "0.1.0"

# The root API is each module's own __all__, so no list is kept here twice.
__all__ = [name for module in (gf2poly, gf2m, polymat, codes, codec, analysis)
           for name in module.__all__] + ["__version__"]
