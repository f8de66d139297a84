"""Legendre values, their orthonormal scale factors, and reconstruction on [-1, 1].

The basis layer for the whole package: plain Legendre values p_n(s), the
scale factors sqrt((2n+1)/2) that turn them into the orthonormal family g_n
(unit weight on [-1, 1]), and signal reconstruction from a coefficient vector.
Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss, legval, legvander

from .errors import INT_MAX, InputError, is_integer

# slack for arguments that land on +/-1 through floating-point maps
_DOMAIN_TOL = 1e-12


def _check_domain(s: np.ndarray) -> np.ndarray:
    """s as floats clipped to [-1, 1]; InputError if any is NaN or beyond the slack."""
    s = np.asarray(s, dtype=float)
    if not np.all(np.abs(s) <= 1.0 + _DOMAIN_TOL):
        raise InputError(f"basis argument outside [-1, 1]: max |s| = {np.max(np.abs(s))}")
    return np.clip(s, -1.0, 1.0)


def legendre_values(order: int, s) -> np.ndarray:
    """All Legendre values p_0(s) .. p_order(s), stacked on the first axis.

    numpy's legvander, which runs the stable three-term recurrence
    (k+1) p_{k+1} = (2k+1) s p_k - k p_{k-1}. order is an integer from 0
    (errors.is_integer), else InputError. The result is a fresh C-contiguous
    array, so each row p_n(s) is read in one run.
    """
    if not (is_integer(order) and order >= 0):
        raise InputError(f"order must be an integer from 0 to {INT_MAX}, got {order!r}")
    s = _check_domain(s)
    return np.moveaxis(legvander(s, order), -1, 0).reshape((order + 1,) + s.shape).copy()


def legendre_eval(n: int, s):
    """Legendre polynomial p_n evaluated at s in [-1, 1]."""
    values = legendre_values(n, s)[n]
    return float(values) if values.ndim == 0 else values


def normalization(order: int) -> np.ndarray:
    """Scale factors sqrt((2n+1)/2) turning p_n into the orthonormal g_n."""
    n = np.arange(order + 1)
    return np.sqrt((2 * n + 1) / 2.0)


def reconstruct(c, s):
    """Signal value sum_k c_k g_k(s) for a coefficient vector c."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise InputError("coefficient vector must be a non-empty 1-d array")
    out = legval(_check_domain(s), c * normalization(c.size - 1))
    return float(out) if np.ndim(out) == 0 else out


def gauss_legendre_rule(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], exact to degree 2*npts - 1.

    npts is an integer from 1 (errors.is_integer), else InputError.
    """
    if not (is_integer(npts) and npts >= 1):
        raise InputError(f"npts must be an integer from 1 to {INT_MAX}, got {npts!r}")
    return leggauss(npts)
