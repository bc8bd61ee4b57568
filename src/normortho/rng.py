"""Deterministic random numbers via SplitMix64.

All sampling in this package goes through this generator so that every
report, probe, and counterexample search is replayable from its seed alone,
independent of interpreter version or platform.  The algorithm is the
standard SplitMix64 mixer (Steele, Lea & Flood): state advances by the
golden-gamma constant and the output is a xor-shift/multiply finalizer of
the new state.  Doubles are the top 53 bits scaled by 2^-53.

`SplitMix64` is the class of the backend that `kernels` selected: the
compiled type or its pure Python twin, which draw the same bits.
"""

from .kernels import _impl

__all__ = ["SplitMix64"]

SplitMix64 = _impl.SplitMix64
