"""sidonlab: Sidon sets, additive bases of order 3, and deletion-method audits.

The package is organized around one pipeline and its supporting machinery:

* exact constructions of Sidon sets over Z_N (``sidoncore``),
* the elliptic-curve counting identity behind 3-term representations in the
  Ruzsa group and the quadric behind 3-term decompositions over Z_N
  (``curveoracle``, ``decomposer``),
* the random sequence model, lifting processes and obstruction families used
  by the deletion method (``randommodel``, ``deletionlab``, ``sunflower``),
* exact and Monte Carlo evaluation of the relevant expected values
  (``analysis``),
* a thin command line front door (``cli``).

All engines are deterministic: counting is exact integer arithmetic, sampling
is counter-based from an explicit seed, and float work is plain IEEE double.

Every name in a library module's ``__all__`` is importable from here; that
list is the one statement of a module's public names. ``cli`` is left out,
so importing the package loads no argument parser.
"""

from . import (analysis, curveoracle, decomposer, deletionlab, numbertheory,
               randommodel, sidoncore, sunflower)
from .analysis import *
from .curveoracle import *
from .decomposer import *
from .deletionlab import *
from .numbertheory import *
from .randommodel import *
from .sidoncore import *
from .sunflower import *

__version__ = "0.3.0"

__all__ = [name for module in (numbertheory, sidoncore, curveoracle,
                               decomposer, randommodel, deletionlab,
                               sunflower, analysis)
           for name in module.__all__] + ["__version__"]
