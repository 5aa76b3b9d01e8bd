import math

import numpy as np
import pytest

from spinreset.trigpoly import TrigPolyBatch, kron_poly

from reference_sim import TrigPoly, kron_poly as kron_oracle, poly_matrix


def at(mat, t):
    """An object array of TrigPoly evaluated at one time."""
    return np.array([[p(t) for p in row] for row in mat])


def cos(w, c=1.0):
    return TrigPoly({w: 0.5 * c, -w: 0.5 * c})


def sin(w, c=1.0):
    return TrigPoly({w: -0.5j * c, -w: 0.5j * c})


def test_algebra_matches_pointwise_evaluation():
    rng = np.random.default_rng(7)
    a = cos(1.3, 0.7) + sin(0.4, -0.2) + TrigPoly.constant(0.1)
    b = TrigPoly({2.1: 0.3 - 0.4j}) + TrigPoly.constant(-0.5)
    ts = rng.uniform(0.0, 50.0, size=40)
    np.testing.assert_allclose((a + b)(ts), a(ts) + b(ts), atol=1e-14)
    np.testing.assert_allclose((a + (-1.0) * b)(ts), a(ts) - b(ts), atol=1e-14)
    np.testing.assert_allclose((a * b)(ts), a(ts) * b(ts), atol=1e-14)
    np.testing.assert_allclose((2.0 * a)(ts), 2.0 * a(ts), atol=1e-14)
    np.testing.assert_allclose(((-1.0) * a)(ts), -a(ts), atol=1e-14)
    np.testing.assert_allclose(a.conj()(ts), np.conj(a(ts)), atol=1e-14)


def test_products_merge_onto_existing_frequencies():
    # cos(w)^2 deposits weight on w + w; adding an explicit 2w term must
    # land on the same coefficient slot: doubling a float is exact, so
    # w + w == 2*w bit for bit even where w is not a short decimal
    w = 0.1 + 0.2
    p = cos(w) * cos(w) + cos(2.0 * w, 0.5)
    freqs = sorted(p.coeffs)
    assert len(freqs) == 3  # -2w, 0, +2w
    ts = np.linspace(0.0, 30.0, 17)
    np.testing.assert_allclose(p(ts), np.cos(w * ts) ** 2 + 0.5 * np.cos(2 * w * ts),
                               atol=1e-14)


def test_cancellation_keeps_zero_coefficients():
    # no coefficient is dropped, so the term structure of a sum does not
    # depend on the values it holds
    p = cos(1.1) + (-1.0) * cos(1.1)
    assert sorted(p.coeffs) == [-1.1, 1.1]
    assert set(p.coeffs.values()) == {0.0}
    assert p(3.7) == 0.0
    # sin^2 + cos^2 collapses to the constant, on all three frequencies
    q = sin(2.3) * sin(2.3) + cos(2.3) * cos(2.3)
    assert sorted(q.coeffs) == [-4.6, 0.0, 4.6]
    assert q(0.9) == pytest.approx(1.0, abs=1e-15)


def test_distinct_frequencies_stay_apart_at_any_scale():
    # terms are keyed by their exact frequency: nearby tiny frequencies
    # keep their own terms, and -0.0 lands on the 0.0 term
    p = TrigPoly({1e-10: 1.0, 2e-10: 1.0})
    assert sorted(p.coeffs) == [1e-10, 2e-10]
    assert p(3.0) == pytest.approx(np.exp(3e-10j) + np.exp(6e-10j), abs=1e-15)
    q = TrigPoly({0.0: 1.0}) + TrigPoly({-0.0: 2.0})
    assert list(q.coeffs) == [0.0] and q.coeffs[0.0] == 3.0
    assert math.copysign(1.0, next(iter(TrigPoly({-0.0: 1.0}).coeffs))) == 1.0


def _random_matrix(rng, shape, keys, scale):
    """A TrigPolyBatch of random coefficients over the rows of scale, and its rows as TrigPoly."""
    entries = [{k: (rng.normal(size=len(scale)), rng.normal(size=len(scale))) for k in keys}
               for _ in range(shape[0] * shape[1])]
    batch = TrigPolyBatch.from_entries(shape, entries)
    rows = [poly_matrix([[TrigPoly({k * s: complex(re[i], im[i]) for k, (re, im) in
                                    entries[r * shape[1] + c].items()})
                          for c in range(shape[1])] for r in range(shape[0])])
            for i, s in enumerate(scale)]
    return batch, rows


def _row(batch, i, s):
    """Row i of a TrigPolyBatch as {frequency: (re, im)} per entry, in term order."""
    return [[tuple(float(x).hex() for x in (k * s, batch.re[slot, i], batch.im[slot, i]))
             for k, slot in entry] for entry in batch.terms]


def _oracle_row(mat):
    return [[tuple(x.hex() for x in (w, c.real, c.imag)) for w, c in p.coeffs.items()]
            for p in mat.flat]


def test_batch_products_equal_the_per_row_algebra_bit_for_bit():
    # kron_poly and adjoint on stacked rows repeat the Python complex
    # algebra of each row: the same terms in the same order, every
    # coefficient to the bit, whatever the scale of the frequencies
    rng = np.random.default_rng(11)
    scale = np.array([1.0, 0.3, 2.0 ** -600, 1e-10, 2.0 ** 600])
    a, a_rows = _random_matrix(rng, (2, 1), (1, -1), scale)
    b, b_rows = _random_matrix(rng, (2, 2), (0, 2, -2), scale)
    adj = a.adjoint()
    assert adj.shape == (1, 2)
    outer, square = kron_poly(a, adj), kron_poly(b, b)
    assert outer.shape == (2, 2) and square.shape == (4, 4)
    for i, s in enumerate(scale):
        ar = a_rows[i]
        adj_rows = poly_matrix([[ar[0, 0].conj(), ar[1, 0].conj()]])
        assert _row(adj, i, s) == _oracle_row(adj_rows)
        assert _row(outer, i, s) == _oracle_row(kron_oracle(ar, adj_rows))
        assert _row(square, i, s) == _oracle_row(kron_oracle(b_rows[i], b_rows[i]))
    # entry sums add each entry's terms in order, from 0.0
    sums = square.entry_sums(square.re)
    for e, entry in enumerate(square.terms):
        assert np.array_equal(sums[e], sum(square.re[slot] for _, slot in entry))
    np.testing.assert_array_equal(square.keys()[[slot for _, slot in square.terms[0]]],
                                  [k for k, _ in square.terms[0]])


def test_matrix_helpers():
    a = poly_matrix([[cos(1.0), sin(1.0)],
                     [sin(1.0), TrigPoly.constant(1.0)]])
    b = poly_matrix([[TrigPoly.constant(2.0), TrigPoly()],
                     [TrigPoly(), TrigPoly({0.5: 1.0})]])
    t = 1.234
    av, bv = at(a, t), at(b, t)
    np.testing.assert_allclose(at(kron_oracle(a, b), t), np.kron(av, bv), atol=1e-14)
