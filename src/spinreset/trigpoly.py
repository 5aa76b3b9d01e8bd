"""Finite complex-exponential polynomials in one time variable.

Everything the reset-free dynamics produces (matrix entries of the
time-evolved one- and two-spin states, flip probabilities, two-point
densities) is of the form

    f(t) = sum_w c_w exp(i w t)

with a handful of real frequencies w.  Keeping track of the pairs
(w, c_w) instead of sampling f on a grid lets the renewal layer do all
of its time integrals analytically.

TrigPolyBatch holds one such sum per row of a drive grid, on the
frequencies k * scale[row], and repeats TrigPoly's arithmetic on whole
columns of coefficients at once, rounding for rounding.
"""

from __future__ import annotations

import numpy as np

# Frequencies within the same rounding bucket are merged, so that
# algebraically equal frequencies produced by different floating-point
# routes (e.g. 2*w vs w+w) land on one term.  The stored key is the
# first frequency seen in the bucket, not the rounded value: integrals
# downstream are sensitive to the exact frequency.
_FREQ_DECIMALS = 9

# Coefficients below this magnitude are dropped on construction.
_COEFF_EPS = 1e-15


def _bucket(w: float) -> float:
    key = round(float(w), _FREQ_DECIMALS)
    return 0.0 if key == 0.0 else key


class TrigPoly:
    """A finite sum of complex exponentials c_w * exp(i w t)."""

    __slots__ = ("coeffs", "_keys")

    def __init__(self, coeffs=None):
        self.coeffs: dict[float, complex] = {}
        self._keys: dict[float, float] = {}  # bucket -> representative frequency
        if coeffs:
            for w, c in coeffs.items():
                self._add_term(w, c)

    def _add_term(self, w, c):
        bucket = _bucket(w)
        key = self._keys.get(bucket)
        if key is None:
            key = 0.0 if bucket == 0.0 else float(w)
            self._keys[bucket] = key
        new = self.coeffs.get(key, 0.0) + complex(c)
        if abs(new) <= _COEFF_EPS:
            self.coeffs.pop(key, None)
            del self._keys[bucket]
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

    def __neg__(self) -> "TrigPoly":
        return TrigPoly({w: -c for w, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, TrigPoly) else -complex(other))

    def __rsub__(self, other):
        return (-self) + other

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

    @property
    def frequencies(self):
        return sorted(self.coeffs)

    def is_real(self, tol=1e-12) -> bool:
        """True if f(t) is real for all t (coefficients come in conjugate pairs)."""
        for w, c in self.coeffs.items():
            partner = self._keys.get(_bucket(-w))
            mirror = 0.0 if partner is None else self.coeffs.get(partner, 0.0)
            if abs(c - np.conj(mirror)) > tol:
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
    _COEFF_EPS; a later re-add appends it at the end).  Rows whose
    frequencies share a rounding bucket are the caller's to flag.
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
