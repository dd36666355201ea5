"""One-shot compression toolkit for large linear layers.

Quantize a weight matrix onto a symmetric integer grid (with an
error-minimizing scale search or AbsMax baselines), prune it to an
unstructured or n:m pattern using activation-aware saliency, then fit a
saliency-weighted low-rank adapter to cancel the remaining error.
Includes analytic memory/FLOP budget calculators and a bit-exact binary
container for all artifacts.

Every module's public names (its ``__all__``) are re-exported here.
"""

from . import artifact, budget, calibration, container, errors, lora, pipeline, prune, quant, tensor
from .errors import *
from .tensor import *
from .calibration import *
from .quant import *
from .prune import *
from .lora import *
from .pipeline import *
from .budget import *
from .container import *
from .artifact import *

__version__ = "0.1.0"

_MODULES = (errors, tensor, calibration, quant, prune, lora, pipeline, budget, container, artifact)
__all__ = [name for module in _MODULES for name in module.__all__]
