import math

import numpy as np
import pytest
from scipy import stats

from spinreset import finite_size
from spinreset.finite_size import transition_prob_approx, transition_prob_exact


def test_input_validation():
    for bad_n in (0, -3, 4, 100):
        with pytest.raises(ValueError):
            transition_prob_exact(bad_n, 0.3)
    with pytest.raises(ValueError):
        transition_prob_exact(3, -0.1)
    with pytest.raises(ValueError):
        transition_prob_exact(3, 1.1)
    with pytest.raises(ValueError):
        transition_prob_approx(4, 0.3)


def test_small_n_by_hand():
    # N = 1: the single spin is down with probability p
    assert transition_prob_exact(1, 0.3) == pytest.approx(0.3, abs=1e-15)
    # N = 3: at least two of three down
    p = 0.3
    expect = 3 * p**2 * (1 - p) + p**3
    assert transition_prob_exact(3, p) == pytest.approx(expect, abs=1e-15)
    assert transition_prob_exact(5, 0.0) == 0.0
    assert transition_prob_exact(5, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert transition_prob_exact(7, 0.5) == pytest.approx(0.5, abs=1e-14)


def test_exact_matches_binomial_survival():
    # independent route through the regularized incomplete beta function
    for n in (11, 101, 1001):
        for p in (0.05, 0.3, 0.5, 0.68, 0.95):
            expect = stats.binom.sf((n - 1) // 2, n, p)
            assert transition_prob_exact(n, p) == pytest.approx(expect, rel=1e-12)


def test_exact_symmetry_and_monotonicity():
    grid = np.linspace(0.0, 1.0, 101)
    for n in (9, 51):
        vals = transition_prob_exact(n, grid)
        assert vals.shape == grid.shape
        assert np.all(np.diff(vals) >= -1e-13)  # rounding noise in the flat tails
        np.testing.assert_allclose(vals + transition_prob_exact(n, 1.0 - grid),
                                   np.ones_like(grid), atol=1e-12)


def test_exact_sharpens_to_step():
    lo = [transition_prob_exact(n, 0.3) for n in (11, 101, 1001)]
    hi = [transition_prob_exact(n, 0.7) for n in (11, 101, 1001)]
    assert lo[0] > lo[1] > lo[2]
    assert hi[0] < hi[1] < hi[2]
    assert lo[2] < 1e-30
    assert hi[2] > 1.0 - 1e-30


def test_exact_survives_large_n():
    # log-domain binomials: naive factorials would overflow near N ~ 1e3
    val = transition_prob_exact(10001, 0.48)
    assert 0.0 < val < 1.0
    assert val == pytest.approx(stats.binom.sf(5000, 10001, 0.48), rel=1e-10)


def test_normal_erf_endpoints_and_sanity():
    for n in (51, 201):
        grid = np.linspace(0.0, 1.0, 41)
        vals = transition_prob_approx(n, grid)
        assert vals[0] == 0.0 and vals[-1] == 1.0
        assert np.all(np.isfinite(vals))
        assert np.all(vals >= -1e-12) and np.all(vals <= 1.0 + 1e-12)
    assert transition_prob_approx(201, 0.5) == pytest.approx(0.5, abs=1e-6)


def test_log_factorials_are_one_read_only_table(monkeypatch):
    table = finite_size._log_factorials(301)
    assert not table.flags.writeable
    assert table.tolist() == [math.lgamma(j + 1.0) for j in range(302)]
    # a smaller N reads the same table, and an N it covers computes no lgamma
    assert np.shares_memory(finite_size._log_factorials(101), table)
    expect = transition_prob_exact(301, 0.47)
    monkeypatch.setattr(math, "lgamma", None)
    assert transition_prob_exact(301, 0.47) == expect
