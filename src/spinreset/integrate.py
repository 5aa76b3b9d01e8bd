"""Adaptive Gauss-Kronrod quadrature of vector-valued integrands.

One rule, QUADPACK's qk21 (Piessens et al., *QUADPACK*, 1983): a 21-point
Kronrod extension of the 10-point Gauss rule on each panel, with the
QUADPACK error estimate taken in the 2-norm over all entries, so every
entry shares the same panels.  The panel with the largest estimate is
bisected until the summed estimate falls below 1e-8 * ||I|| / 8, the
global stopping rule of scipy.integrate.quad_vec at its defaults.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

# qk21 abscissae on [-1, 1]; the 10 Gauss nodes are the odd-indexed ones
_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_NODES = np.concatenate([_NODES, -_NODES[-2::-1]])
_KRONROD = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_KRONROD = np.concatenate([_KRONROD, _KRONROD[-2::-1]])
_GAUSS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_GAUSS = np.concatenate([_GAUSS, _GAUSS[::-1]])
_EPSREL = 1e-8
_LIMIT = 10000
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _panel(f, a: float, b: float):
    """(integral, error estimate, rounding estimate) of f over [a, b].

    The error estimate is QUADPACK's: the Kronrod-Gauss difference,
    scaled against the mean absolute deviation of f on the panel and
    floored at the rounding estimate.
    """
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    out = np.asarray(f(c + h * _NODES))
    if not np.all(np.isfinite(out)):
        raise ValueError(f"integrand is not finite on [{a!r}, {b!r}]")
    vals = out.reshape(len(_NODES), -1)
    s_k = _KRONROD @ vals
    err = float(np.linalg.norm(h * (s_k - _GAUSS @ vals[1::2])))
    dabs = float(np.linalg.norm(h * (_KRONROD @ np.abs(vals - 0.5 * s_k))))
    if dabs != 0.0 and err != 0.0:
        err = dabs * min(1.0, (200.0 * err / dabs) ** 1.5)
    rounding = float(np.linalg.norm(50.0 * _EPS * h * (_KRONROD @ np.abs(vals))))
    if rounding > _TINY:
        err = max(err, rounding)
    return (h * s_k).reshape(out.shape[1:]), err, rounding


def quad(f, a: float, b: float):
    """Integral of f over the finite interval [a, b].

    f takes a 1-D array of nodes and returns one value per node: an
    array of shape (len(nodes), *shape).  The result has that shape
    (a numpy scalar for a scalar integrand).  Stops once the summed
    error estimate is below _EPSREL * ||I|| / 8 (2-norm), or below the
    accumulated rounding estimate, after at least one bisection.  Raises
    ValueError on a non-finite integrand value, or when _LIMIT panels do
    not meet the tolerance.
    """
    a, b = float(a), float(b)
    total, error, rounding = _panel(f, a, b)
    order = itertools.count()
    panels = [(-error, next(order), a, b, total)]
    while True:
        neg_err, _, lo, hi, old = heapq.heappop(panels)
        mid = 0.5 * (lo + hi)
        for x1, x2 in ((lo, mid), (mid, hi)):
            part, err, rnd = _panel(f, x1, x2)
            total = total + part
            error += err
            rounding += rnd
            heapq.heappush(panels, (-err, next(order), x1, x2, part))
        total = total - old
        error += neg_err
        if error <= max(_EPSREL * float(np.linalg.norm(total)) / 8.0, rounding):
            return total[()]
        if len(panels) >= _LIMIT:
            raise ValueError(f"quadrature did not converge in {_LIMIT} panels "
                             f"(error estimate {error:.3g})")
