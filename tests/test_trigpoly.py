import math

import numpy as np
import pytest

from spinreset.trigpoly import TrigPoly, kron_poly, poly_matrix


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


def test_real_combinations_are_detected():
    assert cos(0.9).is_real()
    assert sin(0.9).is_real()
    assert (cos(0.9) * sin(0.9)).is_real()
    assert not TrigPoly({0.9: 1.0}).is_real()
    assert TrigPoly.constant(1.0 + 1e-3j).is_real(tol=1e-2)


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


def test_cancellation_drops_coefficients():
    p = cos(1.1) + (-1.0) * cos(1.1)
    assert sorted(p.coeffs) == []
    assert p(3.7) == 0.0
    # sin^2 + cos^2 collapses to the constant
    q = sin(2.3) * sin(2.3) + cos(2.3) * cos(2.3)
    assert sorted(q.coeffs) == [0.0]
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
    # is_real reads the partner term at exactly -w, tiny or huge
    for w in (2.0 ** -600, 1e-10, 2.0 ** 600):
        assert cos(w).is_real() and sin(w).is_real()
        assert not TrigPoly({w: 1.0, -2.0 * w: 1.0}).is_real()


def test_matrix_helpers():
    a = poly_matrix([[cos(1.0), sin(1.0)],
                     [sin(1.0), TrigPoly.constant(1.0)]])
    b = poly_matrix([[TrigPoly.constant(2.0), TrigPoly()],
                     [TrigPoly(), TrigPoly({0.5: 1.0})]])
    t = 1.234
    av, bv = at(a, t), at(b, t)
    np.testing.assert_allclose(at(kron_poly(a, b), t), np.kron(av, bv), atol=1e-14)
