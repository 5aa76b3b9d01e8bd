"""Matrices of finite complex-exponential polynomials over a grid of drives.

Everything the reset-free dynamics produces (matrix entries of the
time-evolved one- and two-spin states) is of the form

    f(t) = sum_k c_k exp(i k obar t)

with a handful of integers k and obar the drive's effective Rabi
frequency.  Keeping track of the pairs (k, c_k) instead of sampling f on
a grid lets the renewal layer do all of its time integrals analytically.

TrigPolyBatch holds a matrix of such sums for every row of a grid at
once.  Every coefficient is kept, exact zeros included, so the term
structure of an entry (which k it holds, in which order, and which
products sum into each coefficient) is the same on every row.  It is
worked out once per operation, and the arithmetic runs on stacked
(terms x rows) arrays.  Each coefficient rounds as a per-row sum of
Python complex numbers keyed by the frequency k * obar would: terms keep
their insertion order, a first insertion adds the coefficient to 0.0,
and complex products are written out as CPython evaluates them (numpy's
complex array kernels may fuse a multiply-add and round differently).
Distinct k keep distinct frequencies k * obar wherever obar > 0 and
4 * obar is finite; rows with obar = 0 have no dynamics and are the
caller's to route.
"""

from __future__ import annotations

import functools

import numpy as np


def _frozen(values) -> np.ndarray:
    out = np.array(values, dtype=np.intp)
    out.setflags(write=False)
    return out


def _chain_steps(chains) -> tuple:
    """Steps that sum each chain of indices in order: step s holds (chain, index) of every
    chain longer than s.  Every chain holds at least one index."""
    depth = max(map(len, chains))
    return tuple((_frozen([o for o, c in enumerate(chains) if len(c) > s]),
                  _frozen([c[s] for c in chains if len(c) > s])) for s in range(depth))


def _chain_sum(values: np.ndarray, steps) -> np.ndarray:
    """Sum values[index] along each chain in order, from 0.0 as Python's sum() starts."""
    (_, first), *rest = steps
    acc = 0.0 + values[first]
    for outs, index in rest:
        acc[outs] += values[index]
    return acc


@functools.cache
def _product_plan(a_terms, b_terms, pairs):
    """Term structure of the products a[ea] * b[eb] for (ea, eb) in pairs.

    Returns the slots of both factors of every partial product, the
    chain steps summing them into the result's coefficients, and the
    result's terms.  Partial products come in the order of a product of
    two dicts keyed by frequency: a's terms outside, b's inside.
    """
    left, right, chains, terms = [], [], [], []
    for ea, eb in pairs:
        slots = {}
        for ka, sa in a_terms[ea]:
            for kb, sb in b_terms[eb]:
                slot = slots.setdefault(ka + kb, len(chains))
                if slot == len(chains):
                    chains.append([])
                chains[slot].append(len(left))
                left.append(sa)
                right.append(sb)
        terms.append(tuple(slots.items()))
    return _frozen(left), _frozen(right), _chain_steps(chains), tuple(terms)


@functools.cache
def _entry_layout(terms):
    """Multiple k of every slot, and the chain steps summing each entry's terms in order."""
    keys = [0] * sum(map(len, terms))
    for entry in terms:
        for k, slot in entry:
            keys[slot] = k
    return _frozen(keys), _chain_steps([[slot for _, slot in entry] for entry in terms])


class TrigPolyBatch:
    """A matrix of trig polynomials on the frequencies k * obar, one matrix per grid row.

    terms[e] lists the terms (k, slot) of entry e (entries in C order) in
    insertion order; re[slot] and im[slot] are that coefficient's real and
    imaginary parts over the rows.
    """

    __slots__ = ("shape", "terms", "re", "im")

    def __init__(self, shape: tuple, terms: tuple, re: np.ndarray, im: np.ndarray):
        self.shape, self.terms, self.re, self.im = shape, terms, re, im

    @classmethod
    def from_entries(cls, shape, entries) -> "TrigPolyBatch":
        """Build from one dict k -> (re, im) per entry, each part an array over the rows."""
        terms, re, im = [], [], []
        for entry in entries:
            terms.append(tuple((k, len(re) + i) for i, k in enumerate(entry)))
            for part_re, part_im in entry.values():
                re.append(0.0 + part_re)
                im.append(0.0 + part_im)
        return cls(tuple(shape), tuple(terms), np.array(re), np.array(im))

    def adjoint(self) -> "TrigPolyBatch":
        """Conjugate transpose: entry (j, i) takes the conjugate of (i, j) on the keys -k."""
        rows, cols = self.shape
        terms = tuple(tuple((-k, slot) for k, slot in self.terms[i * cols + j])
                      for j in range(cols) for i in range(rows))
        return TrigPolyBatch((cols, rows), terms, 0.0 + self.re, 0.0 - self.im)

    def keys(self) -> np.ndarray:
        """The multiple k of obar that each coefficient slot sits on."""
        return _entry_layout(self.terms)[0]

    def entry_sums(self, values: np.ndarray) -> np.ndarray:
        """Sum per-slot values (slots x rows) over each entry's terms in order: (entries x rows)."""
        return _chain_sum(values, _entry_layout(self.terms)[1])


def kron_poly(a: TrigPolyBatch, b: TrigPolyBatch) -> TrigPolyBatch:
    """Kronecker product of two matrices of trig polynomials, on every row of a grid."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    pairs = tuple((i * ca + j, k * cb + m) for i in range(ra) for k in range(rb)
                  for j in range(ca) for m in range(cb))
    left, right, steps, terms = _product_plan(a.terms, b.terms, pairs)
    ar, ai, br, bi = a.re[left], a.im[left], b.re[right], b.im[right]
    pr, pi = ar * br - ai * bi, ar * bi + ai * br
    return TrigPolyBatch((ra * rb, ca * cb), terms, _chain_sum(pr, steps), _chain_sum(pi, steps))
