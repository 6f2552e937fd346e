"""Numerical operators for spectral detail enhancement, gated multi-scale
refinement, and content-aware pyramid alignment, with reverse-mode
differentiation and a gradient-certification harness.

Layering, bottom to top: `tensor` (dense NCHW values and kernels),
`autodiff` (tape, ops, gradcheck), `params` (named walks over parameter
objects), `spectral` (half-spectrum DFT pair and complex modulation),
then the composed blocks `fddem`, `msgrb`, `ca2neck`, `io` (SEPT tensor
and SEPP parameter files, JSON reports), and the `cli`/`props` front end.
"""

from .autodiff import GradReport, Tape, Var, gradcheck
from .ca2neck import (Ca2neckParams, DysampleParams, LdconvParams,
                      ca2neck_forward, dysample_forward, ldconv_coords,
                      ldconv_forward)
from .errors import ConfigError, DimensionError, NumericError, SepkitError
from .fddem import FddemParams, dual_attention, fddem_forward
from .msgrb import MsgrbParams, ms_gu, msdwconv, msgrb_forward
from .rng import Stream, derive_seed
from .spectral import ComplexWeights
from .tensor import Tensor

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "Tape", "Var", "GradReport", "gradcheck",
    "ComplexWeights",
    "FddemParams", "dual_attention", "fddem_forward",
    "MsgrbParams", "msdwconv", "ms_gu", "msgrb_forward",
    "LdconvParams", "DysampleParams", "Ca2neckParams", "ldconv_coords",
    "ldconv_forward", "dysample_forward", "ca2neck_forward",
    "Stream", "derive_seed",
    "SepkitError", "DimensionError", "NumericError", "ConfigError",
    "__version__",
]
