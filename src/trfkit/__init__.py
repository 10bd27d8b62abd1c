"""Estimation of multichannel temporal response kernels from word-level
feature streams, with built-in cross-validation, discriminant feature
reduction, correlation statistics and a synthetic ground-truth generator.

The package re-exports every name that a layer module lists in its
`__all__`; `trfkit.cli` is imported on its own.
"""

from . import errors, lagged_design, lda_reduce, preprocess, ridge_trf, stats_eval, synthgen
from . import tensorio
from .errors import *
from .lagged_design import *
from .lda_reduce import *
from .preprocess import *
from .ridge_trf import *
from .stats_eval import *
from .synthgen import *
from .tensorio import *

__version__ = "0.1.0"

_LAYERS = (errors, tensorio, preprocess, lagged_design, ridge_trf, lda_reduce, stats_eval, synthgen)
__all__ = ["__version__"] + [name for layer in _LAYERS for name in layer.__all__]
