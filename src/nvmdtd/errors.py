"""Exception types shared across the package.

The CLI maps these onto its exit-code contract, so new failure modes
should reuse one of the classes below rather than raising bare builtins;
``require_indexable`` does so for array sizes numpy cannot index.  Channel
values beyond float arithmetic are refused where the channel is built.
"""

import math
import sys


class NvmdtdError(Exception):
    """Base class for all package errors."""


class ParameterError(NvmdtdError, ValueError):
    """A channel, detector, or training parameter is out of its valid range."""


class UnsupportedModelError(NvmdtdError):
    """An analytic formula was asked to handle a noise model it does not cover."""


class NoRootError(NvmdtdError):
    """Root bracketing failed after the allowed number of expansions."""


class DivergenceError(NvmdtdError):
    """Training produced a non-finite loss or value."""


class FormatError(NvmdtdError):
    """A weight file is malformed, truncated or version-mismatched, or holds a network the run cannot use."""


class ConfigError(NvmdtdError):
    """A run configuration failed validation."""


class MissingAssetError(NvmdtdError):
    """A required asset (typically a trained weight file) is absent."""


def require_indexable(shape: tuple[int, ...]) -> None:
    """Raise ParameterError for an array shape beyond numpy's index range.

    numpy rejects a dimension, or a byte count, above the largest signed
    index with a bare ValueError; a shape inside that range but too large
    for memory still raises MemoryError when it is allocated.  The byte
    count assumes 8-byte elements, the widest dtype the package allocates.
    """
    if max(shape) > sys.maxsize or math.prod(shape) * 8 > sys.maxsize:
        raise ParameterError(f"an array of shape {shape} is beyond numpy's index range")


def channel_text(params) -> str:
    """The channel ``params`` as error messages name it."""
    return (f"the channel mu0={params.mu0:g}, mu1={params.mu1:g}, "
            f"sigma0={params.sigma0:g}, sigma1={params.sigma1:g}, "
            f"mu_b={params.offset_mu_b:g}, sigma_b={params.offset_sigma_b:g}")
