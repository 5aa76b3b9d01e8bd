"""Finite complex-exponential polynomials in one time variable.

Everything the reset-free dynamics produces (matrix entries of the
time-evolved one- and two-spin states, flip probabilities, two-point
densities) is of the form

    f(t) = sum_w c_w exp(i w t)

with a handful of real frequencies w.  Keeping track of the pairs
(w, c_w) instead of sampling f on a grid lets the renewal layer do all
of its time integrals analytically.

Each term is keyed by the frequency it is given, with -0.0 folded into
0.0.  Every frequency the package builds is an exact float sum of
+-obar terms (obar + obar is 2 * obar bit for bit), so algebraically
equal frequencies meet on one key at any scale of obar, and distinct
ones never merge.

TrigPolyBatch holds one such sum per row of a drive grid, on the
frequencies k * scale[row], and repeats TrigPoly's arithmetic on whole
columns of coefficients at once, rounding for rounding.
"""

from __future__ import annotations

import numpy as np

# Coefficients below this magnitude are dropped on construction.
_COEFF_EPS = 1e-15


class TrigPoly:
    """A finite sum of complex exponentials c_w * exp(i w t)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs: dict[float, complex] = {}
        if coeffs:
            for w, c in coeffs.items():
                self._add_term(w, c)

    def _add_term(self, w, c):
        key = 0.0 if w == 0.0 else float(w)
        new = self.coeffs.get(key, 0.0) + complex(c)
        if abs(new) <= _COEFF_EPS:
            self.coeffs.pop(key, None)
        else:
            self.coeffs[key] = new

    @classmethod
    def constant(cls, c) -> "TrigPoly":
        return cls({0.0: c})

    def __add__(self, other) -> "TrigPoly":
        out = TrigPoly(self.coeffs)
        if isinstance(other, TrigPoly):
            for w, c in other.coeffs.items():
                out._add_term(w, c)
        else:
            out._add_term(0.0, other)
        return out

    __radd__ = __add__

    def __mul__(self, other) -> "TrigPoly":
        out = TrigPoly()
        if isinstance(other, TrigPoly):
            for w1, c1 in self.coeffs.items():
                for w2, c2 in other.coeffs.items():
                    out._add_term(w1 + w2, c1 * c2)
        else:
            for w, c in self.coeffs.items():
                out._add_term(w, c * complex(other))
        return out

    __rmul__ = __mul__

    def conj(self) -> "TrigPoly":
        return TrigPoly({-w: np.conj(c) for w, c in self.coeffs.items()})

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for w, c in self.coeffs.items():
            out = out + c * np.exp(1j * w * t)
        return out if out.shape else complex(out)

    def is_real(self, tol=1e-12) -> bool:
        """True if f(t) is real for all t (coefficients come in conjugate pairs)."""
        for w, c in self.coeffs.items():
            if abs(c - np.conj(self.coeffs.get(-w, 0.0))) > tol:
                return False
        return True

    def __repr__(self):
        terms = ", ".join(f"{w:g}: {c:.6g}" for w, c in sorted(self.coeffs.items()))
        return f"TrigPoly({{{terms}}})"


def poly_matrix(entries) -> np.ndarray:
    """Pack a nested list of TrigPoly into an object array."""
    out = np.empty((len(entries), len(entries[0])), dtype=object)
    for i, row in enumerate(entries):
        for j, e in enumerate(row):
            out[i, j] = e
    return out


def kron_poly(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two object arrays of TrigPoly."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.empty((ra * rb, ca * cb), dtype=object)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


class TrigPolyBatch:
    """One TrigPoly per grid row, on the frequencies k * scale[row].

    Keys are the integers k and coefficients are (re, im) float arrays over
    the rows.  Every operation repeats TrigPoly's, rounding for rounding:
    complex products are written out as CPython evaluates them (numpy's
    complex array kernels may fuse a multiply-add and round differently),
    and a first insertion adds the coefficient to 0.0.  That holds while a
    row's terms stay in the shared key order, so ``unsafe`` flags the rows
    where TrigPoly would drop a coefficient (it comes within reach of
    _COEFF_EPS; a later re-add appends it at the end).  Distinct k keep
    distinct frequencies k * scale wherever scale > 0, as TrigPoly's
    exact keys do; rows with scale = 0 are the caller's to route.
    """

    __slots__ = ("coeffs", "unsafe")

    def __init__(self, n: int, coeffs=None):
        self.coeffs: dict[int, tuple] = {}
        self.unsafe = np.zeros(n, dtype=bool)
        if coeffs:
            for k, (re, im) in coeffs.items():
                self._add_term(k, re, im)

    def _add_term(self, k, re, im):
        old = self.coeffs.get(k)
        new = (0.0 + re, 0.0 + im) if old is None else (old[0] + re, old[1] + im)
        # np.hypot and CPython's abs may differ in the last bit: keep a margin
        self.unsafe |= ~(np.hypot(*new) > 2.0 * _COEFF_EPS)
        self.coeffs[k] = new

    def __mul__(self, other) -> "TrigPolyBatch":
        out = TrigPolyBatch(len(self.unsafe))
        out.unsafe = self.unsafe | other.unsafe
        for k1, (r1, i1) in self.coeffs.items():
            for k2, (r2, i2) in other.coeffs.items():
                out._add_term(k1 + k2, r1 * r2 - i1 * i2, r1 * i2 + i1 * r2)
        return out

    def conj(self) -> "TrigPolyBatch":
        out = TrigPolyBatch(len(self.unsafe),
                            {-k: (re, -im) for k, (re, im) in self.coeffs.items()})
        out.unsafe |= self.unsafe
        return out

    def is_real(self, tol=1e-12):
        """TrigPoly.is_real per row, and the rows too close to tol to tell."""
        gap = np.zeros(len(self.unsafe))
        for k, (re, im) in self.coeffs.items():
            mirror = self.coeffs.get(-k, (0.0, 0.0))
            gap = np.maximum(gap, np.hypot(re - mirror[0], im + mirror[1]))
        unsure = ~np.isfinite(gap) | ((gap > tol / 8.0) & (gap < 8.0 * tol))
        return gap <= tol, unsure
