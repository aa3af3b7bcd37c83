"""Small NCHW tensor core, dilated/stride convolution equivalences, joint
pyramid upsampling, and an analytic cost model."""

from .tensor import Rng, Tensor, bilinear_resize, concat_channels, max_abs_diff, random_uniform

__all__ = [
    "Rng",
    "Tensor",
    "bilinear_resize",
    "concat_channels",
    "max_abs_diff",
    "random_uniform",
]
