"""The shared pair-sum kernel against the plain direct sum it replaces."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kvnsim.phase_space import (
    CosinePair,
    GaussianPair,
    NoPair,
    PhaseGrid,
    _chebyshev_nodes,
    _chebyshev_proxy_sum,
    _pair_sum_path,
    _proxy_order,
    pair_force_sum,
    pair_sum_evaluations,
)

OPEN = PhaseGrid(-6.0, 6.0, -6.0, 6.0, 8, 8)
PERIODIC = PhaseGrid(-np.pi, np.pi, -6.0, 6.0, 8, 8, periodic_q=True)


def plain_sum(targets, sources, weights, pair, grid):
    """pair.gradient(wrap(t - s)) @ w, a few target rows at a time."""
    wrap = grid.wrap_displacement if grid is not None else (lambda d: d)
    blocks = [pair.gradient(wrap(tb[:, None] - sources[None, :])) @ weights
              for tb in np.array_split(targets, max(1, targets.size // 256))]
    return np.concatenate(blocks) if blocks else np.zeros(0)


def assert_matches_plain(targets, sources, weights, pair, grid):
    got = pair_force_sum(targets, sources, weights, pair, grid)
    want = plain_sum(targets, sources, weights, pair, grid)
    tol = max(1e-12 * np.max(np.abs(want), initial=0.0), 1e-300)
    assert np.max(np.abs(got - want), initial=0.0) <= tol


@st.composite
def pair_sums(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.floats(0.1, 2.0))
    sizes = st.sampled_from([1, 2, 40, 700, 3000]) | st.integers(1, 3000)
    n_s, n_t = draw(sizes), draw(sizes)
    grid = draw(st.sampled_from([None, OPEN, PERIODIC]))
    lo = draw(st.floats(-8.0, 4.0))
    hi = lo + draw(st.floats(0.0, 8.0))
    sources = rng.uniform(lo, hi, n_s)
    weights = rng.uniform(-0.5, 1.0, n_s)
    pair = GaussianPair(draw(st.floats(0.01, 2.0)), width)
    layout = draw(st.sampled_from(["inside", "duplicates", "equal", "outside", "nodes"]))
    if layout == "inside":
        targets = rng.uniform(lo, hi, n_t)
    elif layout == "duplicates":
        targets = rng.choice(rng.uniform(lo, hi, max(1, n_t // 7)), n_t)
    elif layout == "equal":
        targets = np.full(n_t, rng.uniform(lo, hi))
    elif layout == "outside":
        reach = draw(st.floats(0.0, 12.0))
        targets = rng.uniform(lo - reach, hi + reach, n_t)
        targets[0], targets[-1] = lo - reach, hi + reach
    else:
        # targets on the panel boundaries and on the nodes of the kernel's own
        # plan, which depends on the sizes and the span alone, so overwriting
        # targets inside [t_lo, t_hi] keeps it
        t_lo, t_hi = lo - width, hi + width
        targets = np.concatenate([[t_lo, t_hi], rng.uniform(t_lo, t_hi, n_t)])
        path, panels, k = _pair_sum_path(targets, sources, pair, grid)
        if path != "proxy":
            panels, k = 1, _proxy_order(t_hi - t_lo, width)
        nodes, _ = _chebyshev_nodes(t_lo, t_hi, panels, k)
        special = np.concatenate([np.linspace(t_lo, t_hi, panels + 1)[1:-1],
                                  rng.permutation(nodes.ravel())])
        m = min(special.size, n_t)
        targets[2:2 + m] = special[:m]
    return targets, sources, weights, pair, grid


def tiny_span(lo, hi, near_nodes=False):
    """40 targets and sources spread over [lo, hi] with a gaussian pair on an
    open axis; with ``near_nodes``, five targets one ulp above proxy nodes."""
    pair = GaussianPair(1.0, 1.0)
    targets = np.linspace(lo, hi, 40)
    if near_nodes:
        _, panels, k = _pair_sum_path(targets, targets, pair, None)
        targets[5:10] = np.nextafter(_chebyshev_nodes(lo, hi, panels, k)[0].ravel()[:5], 1.0)
    return targets, np.linspace(lo, hi, 40), np.ones(40), pair, None


@settings(max_examples=40, deadline=None)
@given(pair_sums())
# spans below the smallest normal float: 1 / span and the barycentric weights overflow
@example(tiny_span(0.0, 1e-320))
@example(tiny_span(1e-310, 1.1e-308))
# a normal span whose targets sit so near 0 that 1 / (t - node) overflows
@example(tiny_span(1e-300, 2e-300, near_nodes=True))
def test_kernel_matches_the_plain_direct_sum(case):
    assert_matches_plain(*case)


def test_workload_shape_takes_the_proxy_and_small_n_the_direct_sum():
    pair = GaussianPair(0.1, 0.8)
    q = np.random.default_rng(7).normal(0.6, 0.7, 2000)
    path, panels, k = _pair_sum_path(q, q, pair, None)
    assert (path, panels) == ("proxy", 1) and k == _proxy_order(q.max() - q.min(), 0.8)
    assert pair_sum_evaluations(q, q, pair) == k * 4000 < 2000**2
    assert_matches_plain(q, q, np.ones(2000), pair, None)
    assert _pair_sum_path(q[:20], q[:20], pair, None) == ("direct", 0, 0)
    # a periodic q-axis never takes the proxy: the minimum-image sum jumps at L/2
    assert _pair_sum_path(q, q, pair, PERIODIC) == ("direct", 0, 0)


def test_compare_shape_takes_25_panels_of_19_nodes():
    # the C1 pair integral: traced cells on +-7.45 against 128 auxiliary q-centers
    # weighted by a marginal times dq; one proxy over all of them would take 91 nodes
    rng = np.random.default_rng(11)
    targets = rng.uniform(-7.45, 7.45, 16384)
    targets[:2] = -7.45, 7.45
    sources = PhaseGrid(-8.0, 8.0, -6.0, 6.0, 128, 8).q_centers
    weights = np.exp(-0.5 * sources**2) * (16.0 / 128)
    pair = GaussianPair(0.1, 0.8)
    assert _pair_sum_path(targets, sources, pair, None) == ("proxy", 25, 19)
    assert pair_sum_evaluations(targets, sources, pair) == 25 * 19 * 128 + 16384 * 19
    assert_matches_plain(targets, sources, weights, pair, None)


def test_one_pass_holds_a_few_64_kib_tiles_beyond_its_arrays():
    # the ensemble's force pass; the O(N + S) arrays are the result, the
    # targets' panel indices and the like
    pair = GaussianPair(0.1, 0.8)
    q = np.random.default_rng(7).normal(0.6, 0.7, 2000)
    weights = np.ones(2000)
    pair_force_sum(q, q, weights, pair)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pair_force_sum(q, q, weights, pair)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * (2000 + 2000) + 4 * 65536


@pytest.mark.parametrize("ratio, k_exact", [(5.5, 32), (6.8, 40), (15.0, 64), (21.0, 80)])
def test_node_rule_covers_the_measured_orders(ratio, k_exact):
    # orders at which the interpolant reached ~1e-15 of max|direct| at span/width = ratio
    width = 0.5
    assert _proxy_order(ratio * width, width) >= k_exact
    rng = np.random.default_rng(3)
    half = 0.5 * ratio * width
    targets = np.linspace(-half, half, 3000)
    sources = rng.uniform(-half, half, 3000)
    assert _pair_sum_path(targets, sources, GaussianPair(1.0, width), OPEN)[0] == "proxy"
    assert_matches_plain(targets, sources, rng.uniform(0, 1, 3000), GaussianPair(1.0, width), OPEN)


def test_targets_far_on_both_sides_of_the_sources_fall_back_to_the_direct_sum():
    # the interpolant's error is relative to its largest node value, which
    # sits between the two target clusters where no target is
    pair = GaussianPair(1.0, 0.1)
    targets = np.concatenate([np.full(1500, -10.0), np.full(1500, 10.0)])
    targets[::7] += 0.01
    sources = np.random.default_rng(5).normal(0.0, 0.1, 3000)
    path, panels, k = _pair_sum_path(targets, sources, pair, None)
    assert path == "proxy"
    assert _chebyshev_proxy_sum(targets, sources, np.ones(3000), pair, panels, k) is None
    assert_matches_plain(targets, sources, np.ones(3000), pair, None)


def test_equal_targets_get_the_exact_sum():
    pair = GaussianPair(0.5, 0.3)
    sources = np.random.default_rng(2).normal(0.0, 1.0, 3000)
    targets = np.full(3000, 0.25)
    got = pair_force_sum(targets, sources, np.ones(3000), pair)
    assert np.all(got == got[0])
    assert got[0] == pytest.approx(np.sum(pair.gradient(0.25 - sources)), rel=1e-13)


def test_targets_one_ulp_apart_fall_back_to_the_direct_sum():
    # a span of one ulp passes the proxy's span test, but its 17 nodes round to
    # two values, so the barycentric formula has no distinct nodes to use
    pair = GaussianPair(0.5, 0.3)
    sources = np.random.default_rng(2).normal(0.0, 1.0, 3000)
    targets = np.where(np.arange(3000) % 2, 0.25, np.nextafter(0.25, 1.0))
    path, panels, k = _pair_sum_path(targets, sources, pair, None)
    assert (path, panels, k) == ("proxy", 1, 17)
    assert _chebyshev_proxy_sum(targets, sources, np.ones(3000), pair, panels, k) is None
    assert_matches_plain(targets, sources, np.ones(3000), pair, None)


def test_cosine_factorization_only_where_the_wrap_changes_nothing():
    q = np.random.default_rng(4).uniform(-3.0, 3.0, 500)
    whole = CosinePair(0.3, 2.0)  # two periods over [-pi, pi)
    broken = CosinePair(0.3, 1.5)
    assert _pair_sum_path(q, q, whole, PERIODIC)[0] == "cosine"
    assert _pair_sum_path(q, q, broken, OPEN)[0] == "cosine"
    assert _pair_sum_path(q, q, broken, PERIODIC)[0] == "direct"
    for pair, grid in ((whole, PERIODIC), (broken, OPEN), (broken, PERIODIC)):
        assert_matches_plain(q, q, np.linspace(0.0, 1.0, 500), pair, grid)


def test_minimum_image_force_across_the_periodic_seam():
    # q = +-3 on [-pi, pi) are 2 pi - 6 = 0.283 apart through the seam
    pair = GaussianPair(1.0, 0.5)
    q = np.array([3.0, -3.0])
    force = -pair_force_sum(q, q, np.ones(2), pair, PERIODIC)
    assert force[0] == pytest.approx(-0.965, abs=1e-3)  # pushed away through the seam
    assert force[1] == -force[0]
    assert abs(pair_force_sum(q, q, np.ones(2), pair, OPEN)[0]) < 1e-29


def test_kernel_refuses_bad_inputs():
    pair = GaussianPair(0.1, 0.8)
    with pytest.raises(ValueError, match="1-d"):
        pair_force_sum(np.zeros((3, 2)), np.zeros(3), np.ones(3), pair)
    with pytest.raises(ValueError, match="weights"):
        pair_force_sum(np.zeros(3), np.zeros(3), np.ones(2), pair)
    with pytest.raises(ValueError, match="finite"):
        pair_force_sum(np.array([0.0, np.inf]), np.zeros(3), np.ones(3), pair)
    with pytest.raises(ValueError, match="finite"):
        pair_force_sum(np.zeros(2), np.zeros(3), np.array([1.0, np.nan, 1.0]), pair)
    assert np.array_equal(pair_force_sum(np.arange(3.0), np.zeros(3), np.ones(3), NoPair()),
                          np.zeros(3))
