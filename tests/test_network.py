import math
from dataclasses import replace
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import belpm.model
from belpm import network
from belpm.baselines import WknnModel, wknn_predict, wknn_predict_many
from belpm.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameter,
    TooFewSamples,
)
from belpm.network import (
    AdaptiveNetwork,
    KernelKind,
    StoredPairs,
    _nearest,
    forward,
    grad_bandwidths,
    loo_predictions,
    train_bandwidths_sd,
)
from belpm.model import (BelpmConfig, BelpmModel, CmWeights, _bl_feature_matrix, predict,
                         predict_many, predict_series, train)
from belpm.series import EmbeddedDataset, TimeSeries, embed, gen_logistic, gen_mackey_glass

from oracles import forward_direct, kernel_value, nearest_direct, sq_distance_direct

ALL_KERNELS = list(KernelKind)
PARAMETRIC = [KernelKind.EXPONENTIAL, KernelKind.INVERSE_QUADRATIC]


def random_instance(rng, n=None, r=None, k=None, kind=None):
    n = n or int(rng.integers(5, 31))
    r = r or int(rng.integers(1, 5))
    k = k or int(rng.integers(1, 9))
    kind = kind or ALL_KERNELS[int(rng.integers(len(ALL_KERNELS)))]
    inputs = rng.normal(size=(n, r))
    targets = rng.normal(size=n)
    k_eff = min(k, n)
    bw = rng.uniform(0.5, 2.0, size=k_eff)
    return AdaptiveNetwork(inputs, targets, k=k, kernel=kind, bandwidths=bw)


def nearest_row(net, q, exclude=None):
    """``_nearest`` on the one row ``q``, leaving out stored sample
    ``exclude``, as ``forward`` searches: its indices and distances."""
    indices, dists = _nearest(net, np.asarray(q, dtype=np.float64)[None],
                              None if exclude is None else [exclude])
    return indices[0], dists[0]


def loo_loss(net):
    resid = loo_predictions(net) - net.train_targets
    total = 0.0  # left to right, as the descent sums its loss
    for term in (resid * resid).tolist():
        total += term
    return total


class TestConstruction:
    def test_k_clamped_to_sample_count(self):
        net = AdaptiveNetwork(np.zeros((3, 2)), np.zeros(3), k=10)
        assert net.k == 3
        assert net.bandwidths.shape == (3,)

    def test_k_below_one_rejected(self):
        with pytest.raises(InvalidParameter):
            AdaptiveNetwork(np.zeros((3, 2)), np.zeros(3), k=0)

    def test_nonpositive_bandwidths_rejected(self):
        with pytest.raises(InvalidParameter):
            AdaptiveNetwork(np.zeros((3, 2)), np.zeros(3), k=2,
                            bandwidths=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_stored_pairs_rejected(self, bad):
        inputs, targets = np.zeros((3, 2)), np.zeros(3)
        for cls in (StoredPairs, AdaptiveNetwork):
            with pytest.raises(InvalidParameter, match="finite"):
                cls(inputs, np.where(np.arange(3) == 1, bad, targets), k=2)
            with pytest.raises(InvalidParameter, match="finite"):
                cls(np.where(inputs == 0, bad, inputs), targets, k=2)

    @pytest.mark.parametrize("kind", ALL_KERNELS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_bandwidths_rejected(self, kind, bad):
        with pytest.raises(InvalidParameter, match="finite"):
            AdaptiveNetwork(np.zeros((3, 2)), np.zeros(3), k=2, kernel=kind,
                            bandwidths=np.array([1.0, bad]))

    def test_stored_arrays_are_read_only_copies(self):
        inputs, targets, bw = np.zeros((3, 2)), np.zeros(3), np.ones(2)
        net = AdaptiveNetwork(inputs, targets, k=2, bandwidths=bw)
        for stored, given in ((net.train_inputs, inputs), (net.train_targets, targets),
                              (net.bandwidths, bw)):
            assert not stored.flags.writeable and not np.shares_memory(stored, given)

    def test_train_inputs_keep_row_shape_over_column_storage(self):
        inputs = np.arange(12.0).reshape(4, 3)
        for cls in (StoredPairs, AdaptiveNetwork):
            stored = cls(inputs, np.zeros(4), k=2).train_inputs
            assert stored.shape == (4, 3) and not stored.flags.writeable
            assert np.array_equal(stored, inputs)
            assert stored.T.flags.c_contiguous

    def test_zero_width_inputs_rejected(self):
        with pytest.raises(InvalidParameter, match="non-empty"):
            StoredPairs(np.zeros((3, 0)), np.zeros(3), k=1)


class TestDistances:
    """Distances as ``_nearest`` returns them for single queries."""

    def test_three_four_five(self):
        net = AdaptiveNetwork(np.array([[3.0, 4.0]]), np.array([1.0]), k=1)
        indices, dists = nearest_row(net, [0.0, 0.0])
        np.testing.assert_array_equal(indices, [0])
        np.testing.assert_array_equal(dists, [5.0])

    def test_identity_gives_zero(self):
        X = np.random.default_rng(0).normal(size=(6, 3))
        indices, dists = nearest_row(AdaptiveNetwork(X, np.arange(6.0), k=2), X[4])
        assert indices[0] == 4 and dists[0] == 0.0

    def test_matches_per_element_recomputation(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 3))
        q = rng.normal(size=3)
        indices, dists = nearest_row(AdaptiveNetwork(X, np.zeros(10), k=10), q)
        np.testing.assert_array_equal(np.sort(indices), np.arange(10))
        for j, d in zip(indices, dists):
            manual = sum((q[i] - X[j, i]) ** 2 for i in range(3)) ** 0.5
            assert d == pytest.approx(manual, abs=1e-12)

    def test_dimension_mismatch(self):
        net = AdaptiveNetwork(np.zeros((3, 2)), np.zeros(3), k=1)
        with pytest.raises(DimensionMismatch):
            forward(net, [1.0, 2.0, 3.0])


class TestSelectKMin:
    """Selection of the k smallest distances by ``_nearest`` on one row."""

    def test_two_smallest(self):
        net = StoredPairs(np.array([[3.0], [1.0], [2.0]]), np.zeros(3), k=2)
        indices, dists = nearest_row(net, [0.0])
        np.testing.assert_array_equal(indices, [1, 2])
        np.testing.assert_array_equal(dists, [1.0, 2.0])

    def test_tie_goes_to_lowest_index(self):
        net = StoredPairs(np.array([[1.0], [-1.0], [2.0]]), np.zeros(3), k=1)
        np.testing.assert_array_equal(nearest_row(net, [0.0])[0], [0])

    def test_k_clamped(self):
        net = StoredPairs(np.array([[1.0], [2.0], [3.0]]), np.zeros(3), k=5)
        assert len(nearest_row(net, [0.0])[0]) == 3
        # Leaving a sample out leaves n - 1 candidates.
        indices, dists = nearest_row(net, [2.0], exclude=1)
        np.testing.assert_array_equal(indices, [0, 2])
        np.testing.assert_array_equal(dists, [1.0, 1.0])

    def test_exclusion_empties_candidates(self):
        net = AdaptiveNetwork(np.zeros((1, 2)), np.zeros(1), k=1)
        # forward's checks run in order: shape, finiteness, exclude index,
        # sample count; the last two are _nearest's, for every query row.
        with pytest.raises(DimensionMismatch):
            forward(net, [np.nan, 2.0, 3.0], exclude=5)
        with pytest.raises(InvalidParameter, match="query must be finite"):
            forward(net, [np.nan, 2.0], exclude=5)
        for bad in (1, -1):
            with pytest.raises(IndexOutOfRange):
                forward(net, [1.0, 2.0], exclude=bad)
            with pytest.raises(IndexOutOfRange):
                _nearest(net, np.zeros((2, 2)), [0, bad])
        # The same error leave-one-out raises for a single stored sample.
        with pytest.raises(TooFewSamples):
            forward(net, [1.0, 2.0], exclude=0)
        with pytest.raises(TooFewSamples):
            _nearest(net, np.zeros((2, 2)), [0, 0])


# Few distinct coordinates make duplicate windows and ties at the k-th
# distance; the 1e200 scale makes squared differences overflow to inf.
# Queries are finite, as every predictor and stored pair checks.
COORD = st.integers(-2, 2).map(float) | st.floats(-3.0, 3.0)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_batched_nearest_matches_direct_ranking(data):
    n = data.draw(st.integers(2, 12), label="n")
    dim = data.draw(st.integers(1, 3), label="dim")
    scale = data.draw(st.sampled_from([1.0, 1e-3, 1e200]), label="scale")
    inputs = data.draw(arrays(np.float64, (n, dim), elements=COORD), label="inputs") * scale
    net = StoredPairs(inputs, np.zeros(n), data.draw(st.integers(1, n + 1), label="k"))
    loo = data.draw(st.booleans(), label="loo")
    if loo:
        queries = inputs
    else:
        m = data.draw(st.integers(0, 7), label="m")
        queries = data.draw(arrays(np.float64, (m, dim), elements=COORD),
                            label="queries") * scale
    block = data.draw(st.integers(1, 3 * n), label="block distances")
    with mock.patch.object(network, "_BLOCK_DISTANCES", block):
        indices, dists = _nearest(net, queries, np.arange(len(queries)) if loo else None)
    assert indices.shape[0] == dists.shape[0] == len(queries)
    for j, q in enumerate(queries.tolist()):
        ref_indices, ref_dists = nearest_direct(inputs.tolist(), q, net.k, j if loo else None)
        np.testing.assert_array_equal(indices[j], ref_indices)
        assert np.array_equal(dists[j], ref_dists)


def _stored_family(data, n, dim, family=None):
    """(n, dim) stored inputs from one of the data families the key windows
    meet: sorted, periodic, uninformative, tied, underflowing, overflowing
    and a few ulps apart."""
    family = family or data.draw(st.sampled_from(["ramp", "sine", "constant first",
                                                  "integer grid", "tiny", "overflow",
                                                  "offset"]), label="family")
    t = np.arange(n + dim, dtype=np.float64)
    if family == "ramp":
        x = np.lib.stride_tricks.sliding_window_view(t, dim)[:n].copy()
    elif family == "sine":
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="noise seed"))
        s = np.sin(0.3 * t) + rng.normal(0.0, 0.05, t.size)
        x = np.lib.stride_tricks.sliding_window_view(s, dim)[:n].copy()
    elif family == "tiny":
        # Squares of these underflow to subnormals or to 0.
        x = data.draw(arrays(np.float64, (n, dim), elements=st.sampled_from(
            [0.0, 5e-324, -5e-324, 1e-310, 1e-170, -1e-170, 2e-170, 1.0])), label="inputs")
    elif family == "offset":
        # Coordinate sums round by more than these distances. A row that
        # repeats its first coordinate, plus a few ulps, moves its sum by up
        # to sqrt(dim) times its distance: the sum key's bound, less the slack.
        base = data.draw(st.sampled_from([2.0 ** 53, 1e16, 1e300]), label="base")
        ulps = data.draw(arrays(np.int64, (n, dim), elements=st.integers(-4, 4)), label="ulps")
        repeat = data.draw(arrays(np.bool_, n), label="rows that repeat their first")
        ulps[repeat, 1:] = ulps[repeat, :1] + ulps[repeat, 1:] // 4
        x = base + np.spacing(base) * ulps
    else:
        x = data.draw(arrays(np.float64, (n, dim), elements=COORD), label="inputs")
        if family == "integer grid":
            x = np.round(x)
        elif family == "constant first":
            x[:, 0] = 1.0
        elif family == "overflow":
            x *= 1e200
    if data.draw(st.booleans(), label="shuffle rows"):
        x = x[data.draw(st.permutations(range(n)), label="row order")]
    return x


class SearchCase(NamedTuple):
    """Stored rows, the query rows (None: each stored row, itself left out),
    k, and the search settings ``_WINDOW_SHARE``, ``_BLOCK_DISTANCES``,
    ``_KEY_SAMPLE`` and ``_SUM_KEY_SHARE`` to run them under."""

    inputs: np.ndarray
    queries: np.ndarray | None
    k: int
    share: float
    block: int
    key_sample: int
    key_share: float


@st.composite
def search_cases(draw):
    data = draw(st.data())
    n = data.draw(st.integers(2, 60), label="n")
    dim = data.draw(st.integers(1, 4), label="dim")
    inputs = _stored_family(data, n, dim)
    k = data.draw(st.integers(1, 14), label="k")
    queries = None
    if not data.draw(st.booleans(), label="loo"):
        # Coordinates the stored samples hold, so queries tie with them.
        pool = sorted(set(inputs.ravel().tolist()))
        queries = data.draw(arrays(np.float64, (data.draw(st.integers(0, 70), label="m"), dim),
                                   elements=st.sampled_from(pool)), label="queries")
    # Share 1 forces the window, 0 the full scan.
    share = data.draw(st.sampled_from([0.0, network._WINDOW_SHARE, 1.0]), label="share")
    block = data.draw(st.just(network._BLOCK_DISTANCES) | st.integers(1, 3 * n),
                      label="block distances")
    # One row in 4 sampled picks a key for calls this small too. Share inf
    # then takes the sum key wherever it is finite, 0 never.
    key_sample = data.draw(st.sampled_from([4, network._KEY_SAMPLE]), label="key sample")
    key_share = data.draw(st.sampled_from([0.0, network._SUM_KEY_SHARE, np.inf]),
                          label="sum key share")
    return SearchCase(inputs, queries, k, share, block, key_sample, key_share)


def _sum_key_case(base, ulps, queries=None):
    """Offset-family rows, ``base`` plus ``ulps`` of its spacing, searched for
    their nearest neighbour through windows of the sum key that one row in 4 picks."""
    def offset(u):
        return None if u is None else base + np.spacing(base) * np.array(u, dtype=np.float64)
    return SearchCase(offset(ulps), offset(queries), 1, 1.0, network._BLOCK_DISTANCES, 4, np.inf)


# Rows near the diagonal, 3 or 4 coordinates wide, whose rounded coordinate
# sums lie further apart than sqrt(d) times their distance: without the sum
# bound's slack their nearest neighbours fall out of the windows.
@example(case=_sum_key_case(1e16, [[-1, 0, 0], [1, 3, 3], [-1, -2, -2]]))
@example(case=_sum_key_case(2.0 ** 53, [[-2, -2, -2], [2, 1, 3]],
                            [[-2, -2, 1], [1, -2, 2], [2, 3, 2]]))
@example(case=_sum_key_case(1e16, [[-4, -4, -4, -5], [1, 1, 0, 0], [2, 2, 2, 1]]))
@settings(max_examples=200, deadline=None)
@given(case=search_cases())
def test_window_and_fallback_searches_match_direct_ranking(case):
    inputs, queries, k, share, block, key_sample, key_share = case
    loo = queries is None
    queries = inputs if loo else queries
    net = StoredPairs(inputs, np.zeros(len(inputs)), k)
    with mock.patch.object(network, "_WINDOW_SHARE", share), \
            mock.patch.object(network, "_BLOCK_DISTANCES", block), \
            mock.patch.object(network, "_KEY_SAMPLE", key_sample), \
            mock.patch.object(network, "_SUM_KEY_SHARE", key_share):
        indices, dists = _nearest(net, queries, np.arange(len(queries)) if loo else None)
    assert indices.shape[0] == dists.shape[0] == len(queries)
    for j, q in enumerate(queries.tolist()):
        ref_indices, ref_dists = nearest_direct(inputs.tolist(), q, net.k, j if loo else None)
        np.testing.assert_array_equal(indices[j], ref_indices)
        assert np.array_equal(dists[j], ref_dists)


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_sum_key_windows_match_direct_ranking_a_few_ulps_apart(data):
    n = data.draw(st.integers(2, 40), label="n")
    dim = data.draw(st.sampled_from([3, 5]) | st.integers(1, 6), label="dim")
    inputs = _stored_family(data, n, dim, "offset")
    net = StoredPairs(inputs, np.zeros(n), data.draw(st.integers(1, 6), label="k"))
    # Stored rows moved a few ulps along the diagonal, and a few rows at once:
    # every other one is sampled, so the windows of the rest are narrow.
    rows = inputs[data.draw(arrays(np.intp, data.draw(st.integers(2, 6), label="m"),
                                   elements=st.integers(0, n - 1)), label="rows")]
    shift = data.draw(arrays(np.int64, len(rows), elements=st.integers(-3, 3)), label="shift")
    queries = rows + np.spacing(rows) * shift[:, None]
    with mock.patch.object(network, "_KEY_SAMPLE", 2), \
            mock.patch.object(network, "_SUM_KEY_SHARE", np.inf), \
            mock.patch.object(network, "_WINDOW_SHARE", 1.0):
        indices, dists = _nearest(net, queries)
    for j, q in enumerate(queries.tolist()):
        ref_indices, ref_dists = nearest_direct(inputs.tolist(), q, net.k)
        np.testing.assert_array_equal(indices[j], ref_indices)
        assert np.array_equal(dists[j], ref_dists)


# (1e-170 - 0)**2 underflows to 0, so sample 0 lies at distance 0 from a query
# at [1e-170, 0] though its first coordinate is 1e-170 away. Only the window
# margin's absolute term keeps it, and it wins the tie with a later sample.
# A one-row call skips the window, so the plain case asks two queries.
UNDERFLOW_ROWS = np.array([[0.0, 0.0], [1e-170, 0.0], [5.0, 0.0], [6.0, 0.0], [7.0, 1.0]])


@pytest.mark.parametrize("inputs, loo", [
    (UNDERFLOW_ROWS, False),
    (UNDERFLOW_ROWS, True),
    # The last query row's block starts past sample 0, so its window alone decides.
    (np.array([[0.0, 0.0]] + [[1e-170, 0.0]] * 32), True),
])
def test_window_margin_keeps_samples_whose_squares_underflow(inputs, loo):
    net = StoredPairs(inputs, np.zeros(len(inputs)), 1)
    queries = inputs if loo else np.array([[1e-170, 0.0]] * 2)
    with mock.patch.object(network, "_WINDOW_SHARE", 1.0):
        indices, dists = _nearest(net, queries, np.arange(len(queries)) if loo else None)
    for j, q in enumerate(queries.tolist()):
        ref_indices, ref_dists = nearest_direct(inputs.tolist(), q, 1, j if loo else None)
        np.testing.assert_array_equal(indices[j], ref_indices)
        assert np.array_equal(dists[j], ref_dists)


# Two integer grids stored by descending first coordinate, so the x0 key
# orders samples against their indices. A grid point's neighbours at x0 - 1
# and x0 + 1 lie at distance 1, as does one at x1 +- 1, so rows tie at their
# m-th distance. A call this small samples no row: x0 is the key and a guess
# spans 4m samples. Around the sparse grid's rows (2 samples per x0) that holds
# every sample within the m-th distance; around the dense grid's (10 per x0)
# it does not, and the rows are widened.
TIE_GRID = np.array(sorted([(a, b) for a in range(10) for b in range(2)]
                           + [(a, b) for a in range(20, 30) for b in range(10)],
                           key=lambda p: -p[0]), dtype=np.float64)


@pytest.mark.parametrize("loo", [True, False])
def test_ties_across_key_and_index_order_go_to_the_lower_index(loo):
    net = StoredPairs(TIE_GRID, np.zeros(len(TIE_GRID)), 2)
    scan, rank, passes = network._scan, network._rank_smallest, []

    def spy_scan(cols, queries, rows, m, out, order=None, *args):
        passes.append([order is not None, False])  # windowed, tied at the m-th
        return scan(cols, queries, rows, m, out, order, *args)

    def spy_rank(d, m, order=None, at=None):
        kth = np.sort(d, axis=1)[:, m - 1:m]
        passes[-1][1] |= bool(np.any(np.count_nonzero(d <= kth, axis=1) != m))
        return rank(d, m, order, at)

    with mock.patch.object(network, "_scan", spy_scan), \
            mock.patch.object(network, "_rank_smallest", spy_rank):
        indices, dists = _nearest(net, TIE_GRID, np.arange(len(TIE_GRID)) if loo else None)
    windowed = [tied for is_window, tied in passes if is_window]
    assert windowed[0] and any(windowed[1:])  # the guess and a widening pass
    for j, q in enumerate(TIE_GRID.tolist()):
        ref_indices, ref_dists = nearest_direct(TIE_GRID.tolist(), q, 2, j if loo else None)
        np.testing.assert_array_equal(indices[j], ref_indices)
        assert np.array_equal(dists[j], ref_dists)


@pytest.mark.parametrize("loo", [False, True])
@pytest.mark.parametrize("reach", ["exact", "inf"])
@pytest.mark.parametrize("rows", [slice(45, 46), slice(None)], ids=["one row", "all rows"])
def test_a_reach_ranks_ties_as_the_full_search(rows, reach, loo):
    # A reach at the m-th distance itself (m = k, or k + 1 with the row's own
    # sample, which lies within it) keeps every sample tied there, and at inf
    # it keeps them all. Row 45, (25, 5), has four neighbours at distance 1.
    net = StoredPairs(TIE_GRID, np.zeros(len(TIE_GRID)), 3)
    grid, picked = TIE_GRID.tolist(), np.arange(len(TIE_GRID))[rows]
    exclude = picked if loo else None
    bound = np.array([nearest_direct(grid, grid[j], net.k + loo)[1][-1] for j in picked])
    bound = bound if reach == "exact" else np.full(len(picked), np.inf)
    indices, dists = _nearest(net, TIE_GRID[rows], exclude, bound)
    unbounded = _nearest(net, TIE_GRID[rows], exclude)
    np.testing.assert_array_equal(indices, unbounded[0])
    assert np.array_equal(dists, unbounded[1])
    for row, j in enumerate(picked):
        ref_indices, ref_dists = nearest_direct(grid, grid[j], net.k, j if loo else None)
        np.testing.assert_array_equal(indices[row], ref_indices)
        assert np.array_equal(dists[row], ref_dists)


@pytest.mark.parametrize("loo", [False, True])
@pytest.mark.parametrize("k_a, k_o", [(8, 8), (13, 8), (8, 1)])
def test_primary_distances_bound_the_secondary_search(k_a, k_o, loo):
    # The primary network's features begin with the window, so its k_a-th
    # distance bounds the secondary network's k_o-th, bit for bit: it is a
    # reach for one row and for batches, a leave-one-out table included.
    windows = chaotic_windows("MO")[:600]
    bl = StoredPairs(_bl_feature_matrix(windows), np.zeros(600), k_a)
    mo = StoredPairs(windows, np.zeros(600), k_o)
    queries = windows if loo else windows[::2] + 1e-3
    exclude = np.arange(600) if loo else None
    reach = _nearest(bl, _bl_feature_matrix(queries), exclude)[1][:, -1]
    indices, dists = _nearest(mo, queries, exclude, reach)
    unbounded = _nearest(mo, queries, exclude)
    np.testing.assert_array_equal(indices, unbounded[0])
    assert np.array_equal(dists, unbounded[1])
    for j in range(0, len(queries), 50):
        one = slice(j, j + 1)
        row = _nearest(mo, queries[one], None if exclude is None else exclude[one], reach[one])
        np.testing.assert_array_equal(row[0], indices[one])
        assert np.array_equal(row[1], dists[one])
        ref_indices, ref_dists = nearest_direct(windows.tolist(), queries[j].tolist(), k_o,
                                                j if loo else None)
        np.testing.assert_array_equal(indices[j], ref_indices)
        assert np.array_equal(dists[j], ref_dists)


def test_one_row_with_a_reach_sorts_only_the_samples_within_it():
    windows = chaotic_windows("MO")
    bl, mo = (StoredPairs(x, np.zeros(2000), 8) for x in (_bl_feature_matrix(windows), windows))
    q = windows[:1] + 1e-3
    reach = _nearest(bl, _bl_feature_matrix(q))[1][:, -1]
    within = np.count_nonzero(network._distances(mo.train_inputs.T, q) <= reach[0])
    with mock.patch.object(network.np, "argsort", wraps=np.argsort) as sort:
        _nearest(mo, q, None, reach)
    assert 8 <= within < 0.05 * 2000
    assert [call.args[0].size for call in sort.call_args_list] == [within]


def fused_model(windows, k_a, k_o, kernel, seed=0):
    """A BELPM model over ``windows``, its kernels ``kernel`` (BL) and the next
    kind (MO), with drawn targets (some -0.0), bandwidths and fusion weights."""
    rng = np.random.default_rng(seed)
    kinds = [kernel, ALL_KERNELS[(ALL_KERNELS.index(kernel) + 1) % len(ALL_KERNELS)]]
    nets = []
    for inputs, k, kind in zip((_bl_feature_matrix(windows), windows), (k_a, k_o), kinds):
        targets = rng.normal(size=len(windows))
        targets[::7] = -0.0
        bw = rng.uniform(0.5, 2.0, min(k, len(windows))) if kind.parametric else None
        nets.append(AdaptiveNetwork(inputs, targets, k=k, kernel=kind, bandwidths=bw))
    return BelpmModel(horizon=1, bl=nets[0], mo=nets[1], cm=CmWeights(*rng.normal(size=3)))


def fused_case(name):
    """Stored windows and query rows. Chaotic windows at r = 1, 3 and 8 are
    queried off and on a stored window; TIE_GRID stored twice holds duplicate
    windows tied at every rank; five windows clamp every k; at 1e200 every
    distance is inf but a query's own window's."""
    if name == "tie grid":
        return np.vstack([TIE_GRID, TIE_GRID]), np.vstack([TIE_GRID[::7], TIE_GRID[::11] + 0.5])
    r = {"r=1": 1, "r=8": 8}.get(name, 3)
    windows = np.lib.stride_tricks.sliding_window_view(chaotic_mackey_glass(300), r)
    stored = windows[:5] if name == "n < k" else windows[:150]
    scale = 1e200 if name == "1e200" else 1.0
    return stored * scale, np.vstack([windows[150:170], stored[::30]]) * scale


@pytest.mark.parametrize("k_a, k_o", [(8, 4), (8, 8), (4, 8)])
@pytest.mark.parametrize("kernel", ALL_KERNELS)
@pytest.mark.parametrize("case", ["r=1", "r=3", "r=8", "tie grid", "n < k", "1e200"])
def test_one_row_fusion_matches_the_batch_and_the_unfused_networks(case, kernel, k_a, k_o):
    # One row ranks both networks from one distance pass and weighs in Python
    # floats; the batch path searches each network on its own and weighs in
    # numpy. Every output keeps its bits.
    stored, queries = fused_case(case)
    model = fused_model(stored, k_a, k_o, kernel)
    r_a = network._forward_many(model.bl, _bl_feature_matrix(queries))[0]
    r_o = network._forward_many(model.mo, queries)[0]
    unfused = model.cm.w1 * r_a + model.cm.w2 * r_o + model.cm.w3
    batch = predict_many(model, queries)
    one = [predict(model, q) for q in queries]
    alone = [predict_many(model, q[None])[0] for q in queries]
    for got in (batch, one, alone):
        np.testing.assert_array_equal(np.asarray(got).view(np.int64), unfused.view(np.int64))


@pytest.mark.parametrize("k_a, k_o", [(8, 8), (4, 8)])
@pytest.mark.parametrize("r", [1, 3])
def test_one_row_predict_makes_one_distance_pass(r, k_a, k_o):
    # The secondary network's distances are the pass's sums after r
    # coordinates, with or without the primary network's reach.
    stored, queries = fused_case(f"r={r}")
    model, widths = fused_model(stored, k_a, k_o, KernelKind.EXPONENTIAL), []
    distances = network._distances

    def spy(cols, rows, *args, **kwargs):
        widths.append((len(cols), len(rows)))
        return distances(cols, rows, *args, **kwargs)

    with mock.patch.object(network, "_distances", spy), \
            mock.patch.object(belpm.model, "_distances", spy):
        predict(model, queries[0])
        predict_many(model, queries[:1])
    assert widths == [(r + 2, 1), (r + 2, 1)]


# Chunk entries: 0, inf, and three levels moved up by a few ulps. The keys'
# column bits (the low bit_length(width - 1) bits, up to 6 here) hide exact
# ties and near-ties; moves of 16 or 64 ulps reach the high bits of narrower rows.
RANK_LEVELS = np.array([1.0, 1.5, 3.0])
RANK_ULPS = [0, 1, 2, 3, 16, 64]


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_rank_smallest_matches_a_full_lexsort(data):
    m = data.draw(st.integers(1, 6), label="m")
    width = data.draw(st.sampled_from([m, m + 1]) | st.integers(m, 40), label="width")
    rows = data.draw(st.integers(1, 5), label="rows")
    scale = data.draw(st.sampled_from([1.0, 1e-300, 1e300]), label="scale")
    code = data.draw(arrays(np.intp, (rows, width), elements=st.integers(-2, 2)), label="levels")
    ulps = data.draw(arrays(np.uint64, (rows, width), elements=st.sampled_from(RANK_ULPS)),
                     label="ulps")
    d = ((RANK_LEVELS * scale)[np.maximum(code, 0)].view(np.uint64) + ulps).view(np.float64)
    d[code == -1], d[code == -2] = 0.0, np.inf
    order = at = None
    index = np.broadcast_to(np.arange(width), d.shape)
    if data.draw(st.booleans(), label="windows"):
        n = width + data.draw(st.integers(0, 10), label="extra samples")
        order = np.array(data.draw(st.permutations(range(n)), label="order"))
        at = data.draw(arrays(np.intp, rows, elements=st.integers(0, n - width)), label="at")
        index = order[at[:, None] + np.arange(width)]
    top, vals = network._rank_smallest(d.copy(), m, order, at)
    by = np.lexsort((index, d))[:, :m]
    np.testing.assert_array_equal(top, np.take_along_axis(index, by, axis=1))
    assert vals.tobytes() == np.take_along_axis(d, by, axis=1).tobytes()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_windows_over_many_equal_keys_match_direct_ranking(data):
    # Three first coordinates and few sums for up to 150 shuffled samples: the
    # key sort, which need not be stable, leaves equal keys in any order.
    n = data.draw(st.integers(20, 150), label="n")
    grid = arrays(np.float64, (n, 2), elements=st.integers(0, 2).map(float))
    inputs = data.draw(grid, label="inputs")[data.draw(st.permutations(range(n)), label="rows")]
    net = StoredPairs(inputs, np.zeros(n), data.draw(st.integers(1, 6), label="k"))
    loo = data.draw(st.booleans(), label="loo")
    queries = inputs if loo else data.draw(arrays(np.float64, (data.draw(
        st.integers(2, 30), label="m"), 2), elements=st.integers(0, 2).map(float)), label="queries")
    key_sample = data.draw(st.sampled_from([4, network._KEY_SAMPLE]), label="key sample")
    with mock.patch.object(network, "_WINDOW_SHARE", 1.0), \
            mock.patch.object(network, "_KEY_SAMPLE", key_sample):
        indices, dists = _nearest(net, queries, np.arange(len(queries)) if loo else None)
    for j, q in enumerate(queries.tolist()):
        ref_indices, ref_dists = nearest_direct(inputs.tolist(), q, net.k, j if loo else None)
        np.testing.assert_array_equal(indices[j], ref_indices)
        assert np.array_equal(dists[j], ref_dists)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_single_query_nearest_matches_direct_ranking(data):
    n = data.draw(st.integers(1, 12), label="n")
    dim = data.draw(st.integers(1, 3), label="dim")
    scale = data.draw(st.sampled_from([1.0, 1e-3, 1e200]), label="scale")
    family = data.draw(st.sampled_from(["grid", "duplicates", "any"]), label="family")
    if family == "duplicates":
        rows = data.draw(arrays(np.float64, (2, dim), elements=COORD), label="rows")
        inputs = rows[data.draw(arrays(np.intp, n, elements=st.integers(0, 1)), label="picks")]
    else:
        inputs = data.draw(arrays(np.float64, (n, dim), elements=COORD), label="inputs")
        if family == "grid":
            inputs = np.round(inputs)
    inputs = inputs * scale
    net = StoredPairs(inputs, np.zeros(n), data.draw(st.integers(1, n + 1), label="k"))
    if data.draw(st.booleans(), label="stored query"):
        q = inputs[data.draw(st.integers(0, n - 1), label="row")]
    else:
        q = data.draw(arrays(np.float64, dim, elements=COORD), label="query") * scale
    exclude = data.draw(st.none() | st.integers(0, n - 1), label="exclude") if n > 1 else None
    indices, dists = nearest_row(net, q, exclude)
    ref_indices, ref_dists = nearest_direct(inputs.tolist(), q.tolist(), net.k, exclude)
    np.testing.assert_array_equal(indices, ref_indices)
    assert np.array_equal(dists, ref_dists)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_each_batch_row_matches_the_row_searched_alone(data):
    n = data.draw(st.integers(2, 40), label="n")
    dim = data.draw(st.integers(1, 3), label="dim")
    # Integer grids tie at the k-th distance; at 1e200 the squares overflow.
    scale = data.draw(st.sampled_from([1.0, 1e200]), label="scale")
    grid = arrays(np.float64, (n, dim), elements=st.integers(-2, 2).map(float))
    inputs = data.draw(grid, label="inputs") * scale
    net = StoredPairs(inputs, np.zeros(n), data.draw(st.integers(1, n + 1), label="k"))
    m = data.draw(st.integers(2, 40), label="m")
    queries = data.draw(arrays(np.float64, (m, dim), elements=st.integers(-3, 3).map(float)),
                        label="queries") * scale
    exclude = data.draw(st.none() | arrays(np.intp, m, elements=st.integers(0, n - 1)),
                        label="exclude")
    # Share 1 takes the window wherever a bound is finite, 0 the full scan.
    share = data.draw(st.sampled_from([0.0, 1.0]), label="share")
    with mock.patch.object(network, "_WINDOW_SHARE", share):
        indices, dists = _nearest(net, queries, exclude)
    for j, q in enumerate(queries):
        ex = None if exclude is None else int(exclude[j])
        alone_indices, alone_dists = nearest_row(net, q, ex)
        np.testing.assert_array_equal(indices[j], alone_indices)
        assert dists[j].tobytes() == alone_dists.tobytes()
        ref_indices, ref_dists = nearest_direct(inputs.tolist(), q.tolist(), net.k, ex)
        np.testing.assert_array_equal(indices[j], ref_indices)
        assert np.array_equal(dists[j], ref_dists)


def chaotic_mackey_glass(n: int, seed: int = 0) -> np.ndarray:
    """The chaotic Mackey-Glass recursion (beta 0.2, gamma 0.1, tau 17) past
    1000 warm-up steps, plus noise of std 1e-3."""
    x = [1.2] * 18
    for _ in range(1000 + n - 1):
        x.append(x[-1] + 0.2 * x[-18] / (1.0 + x[-18] ** 10) - 0.1 * x[-1])
    return np.asarray(x[1017:]) + np.random.default_rng(seed).normal(0.0, 1e-3, n)


def key_names(keys):
    """Which key each search chose, from the keys a spied ``_key`` returned:
    the sum key's scale is sqrt(d) * (1 + 1e-12), x0's is 1."""
    return ["x0" if key[2] == 1.0 else "sum" for key in keys]


def spy_keys(keys):
    choose = network._key

    def spy(*args):
        chosen = choose(*args)
        keys.append(chosen[0])
        return chosen
    return spy


def chaotic_windows(features):
    windows = np.lib.stride_tricks.sliding_window_view(chaotic_mackey_glass(2002), 3)[:2000]
    return _bl_feature_matrix(windows) if features == "BL" else windows


@pytest.mark.parametrize("features", ["MO", "BL"])
@pytest.mark.parametrize("k", [1, 8, 13])
def test_window_search_engages_on_a_chaotic_series(k, features):
    net = StoredPairs(chaotic_windows(features), np.zeros(2000), k)
    distances, computed = network._distances, []

    def spy(*args):
        d = distances(*args)
        computed.append(d.size)
        return d

    with mock.patch.object(network, "_distances", spy):
        indices, dists = _nearest(net, net.train_inputs, np.arange(2000))
    # A window that silently never engaged would still match the full scan.
    assert sum(computed) < 0.06 * 2000 ** 2
    with mock.patch.object(network, "_WINDOW_SHARE", 0.0):
        full_indices, full_dists = _nearest(net, net.train_inputs, np.arange(2000))
    np.testing.assert_array_equal(indices, full_indices)
    assert np.array_equal(dists, full_dists)


@pytest.mark.parametrize("series, features, key", [
    ("chaotic", "MO", "sum"),
    ("chaotic", "BL", "sum"),
    # The logistic map's windows lie on a curve that the first coordinate orders well.
    ("logistic", "MO", "x0"),
    ("logistic", "BL", "x0"),
])
def test_search_takes_the_key_with_narrower_windows(series, features, key):
    if series == "chaotic":
        inputs = chaotic_windows(features)
    else:
        inputs = np.lib.stride_tricks.sliding_window_view(gen_logistic(2002).values, 3)[:2000]
        inputs = _bl_feature_matrix(inputs) if features == "BL" else inputs
    net = StoredPairs(inputs, np.zeros(2000), 8)
    keys = []
    with mock.patch.object(network, "_key", spy_keys(keys)):
        _nearest(net, net.train_inputs, np.arange(2000))
    assert key_names(keys) == [key]


# Near 2**53 and 1e16 the coordinates are 2 apart and their sums of three 4:
# summed left to right, the query (b - 2) * 3 rounds down to 3b - 8 and the
# stored (b + 2) * 3 up to 3b + 8. Their sum keys are 16 apart, past sqrt(3)
# times their distance sqrt(48), which is 12, and 3b - 8 + 12 rounds to 3b + 4.
# Only the sum bound's slack keeps that sample; a far one widens the guess.
@pytest.mark.parametrize("base", [2.0 ** 53, 1e16])
def test_sum_key_slack_keeps_samples_whose_sums_round_apart(base):
    inputs = base + np.spacing(base) * np.array([[1.0] * 3, [-8.0] * 3])
    net = StoredPairs(inputs, np.zeros(2), 1)
    # One row is sampled to pick the key; the other is windowed.
    queries = np.full((2, 3), base - np.spacing(base))
    keys = []
    with mock.patch.object(network, "_KEY_SAMPLE", 2), \
            mock.patch.object(network, "_SUM_KEY_SHARE", np.inf), \
            mock.patch.object(network, "_WINDOW_SHARE", 1.0), \
            mock.patch.object(network, "_key", spy_keys(keys)):
        indices, dists = _nearest(net, queries)
    assert key_names(keys) == ["sum"]
    for j, q in enumerate(queries.tolist()):
        ref_indices, ref_dists = nearest_direct(inputs.tolist(), q, 1)
        np.testing.assert_array_equal(indices[j], ref_indices)
        assert np.array_equal(dists[j], ref_dists)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e200, 1e308])
def test_searches_on_huge_windows_warn_nothing(scale):
    # At 1e200 squared differences overflow; at 1e308 the coordinate sums do
    # too, so the first coordinate stays the key.
    windows = np.lib.stride_tricks.sliding_window_view(gen_logistic(303).values, 3)[:300]
    targets = gen_logistic(300, x0=0.6).values
    model = BelpmModel(horizon=1, cm=CmWeights(1.0, 0.5, 0.0),
                       bl=AdaptiveNetwork(_bl_feature_matrix(windows * scale), targets, k=4),
                       mo=AdaptiveNetwork(windows * scale, targets, k=4))
    queries = windows[::3] * scale
    keys = []

    def run():
        return ([loo_predictions(net) for net in (model.bl, model.mo)],
                predict_many(model, queries))
    with mock.patch.object(network, "_key", spy_keys(keys)):
        loo, preds = run()
    if scale == 1e308:
        assert set(key_names(keys)) == {"x0"}
    with mock.patch.object(network, "_WINDOW_SHARE", 0.0):
        full_loo, full_preds = run()
    np.testing.assert_array_equal(loo, full_loo)
    np.testing.assert_array_equal(preds, full_preds)
    assert np.isfinite(preds).all()


@pytest.mark.parametrize("scale", [1.0, 1e200])
def test_every_search_sees_finite_queries(scale):
    # The search ranks no NaN or inf query: every predictor refuses one before
    # it searches, and stored inputs and their max and min are finite. At 1e200
    # the squared differences overflow, so every distance is inf. Every search
    # computes its distances by `_distances`, `predict`'s one pass included.
    values = chaotic_mackey_glass(260)
    data = embed(TimeSeries(values), 3, 1)
    train_set = EmbeddedDataset(data.inputs[:200] * scale, data.targets[:200], 3, 1)
    queries = data.inputs[200:] * scale
    finite, tables = [], []

    def spy(call, seen):
        def recorded(stored, rows, *args, **kwargs):
            seen.append(bool(np.isfinite(rows).all()))
            return call(stored, rows, *args, **kwargs)
        return recorded

    with mock.patch.object(network, "_distances", spy(network._distances, finite)), \
            mock.patch.object(belpm.model, "_distances", spy(network._distances, finite)), \
            mock.patch.object(network, "_nearest", spy(network._nearest, tables)):
        model = train(train_set, BelpmConfig(k_a=4, k_o=4, epochs=2))
        assert len(tables) == 2  # one leave-one-out table per network
        net, wknn = model.mo, WknnModel.from_dataset(train_set, k=2)
        calls = {
            "forward": lambda: forward(net, queries[0]),
            "forward, exclude": lambda: forward(net, train_set.inputs[5], exclude=5),
            "predict": lambda: predict(model, queries[0]),
            "predict_many": lambda: predict_many(model, queries),
            "predict_series": lambda: predict_series(model, TimeSeries(values * scale)),
            "wknn_predict": lambda: wknn_predict(wknn, queries[0]),
            "wknn_predict_many": lambda: wknn_predict_many(wknn, queries),
            "loo_predictions": lambda: loo_predictions(net),
            "grad_bandwidths": lambda: grad_bandwidths(net),
            "train_bandwidths_sd": lambda: train_bandwidths_sd(net, 0.05, 2),
        }
        for name, call in calls.items():
            searched = len(finite)
            call()
            assert len(finite) > searched, name
        assert all(finite)
        searched = len(finite)
        for bad in (np.nan, np.inf, -np.inf):
            rows = queries.copy()
            rows[3, 1] = bad
            for call in (lambda: forward(net, rows[3]), lambda: predict(model, rows[3]),
                         lambda: predict_many(model, rows), lambda: wknn_predict(wknn, rows[3]),
                         lambda: wknn_predict_many(wknn, rows),
                         lambda: AdaptiveNetwork(rows, np.zeros(len(rows)), k=2)):
                with pytest.raises(InvalidParameter):
                    call()
        assert len(finite) == searched


# Finite coordinates (stored pairs must be finite); the 1e200 ones make
# squared differences overflow to inf.
DIST_COORD = st.floats(-1e3, 1e3) | st.sampled_from([1e200, -1e200])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_distances_sum_squares_in_documented_order(data):
    dim = data.draw(st.integers(1, 12), label="dim")
    n = data.draw(st.integers(1, 12), label="n")
    m = data.draw(st.integers(1, 40), label="block rows")
    inputs = data.draw(arrays(np.float64, (n, dim), elements=DIST_COORD), label="inputs")
    queries = data.draw(arrays(np.float64, (m, dim), elements=DIST_COORD), label="queries")
    d = network._distances(StoredPairs(inputs, np.zeros(n), 1).train_inputs.T, queries)
    ref = [[math.sqrt(sq_distance_direct(row, q)) for row in inputs.tolist()]
           for q in queries.tolist()]
    assert np.array_equal(d, ref)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_distances_are_never_nan(data):
    # Stored coordinates are finite and query coordinates finite or infinite,
    # so each square is inf or >= 0 and no sum meets inf - inf: the search
    # never ranks a NaN distance.
    dim = data.draw(st.integers(1, 6), label="dim")
    n = data.draw(st.integers(1, 8), label="n")
    m = data.draw(st.integers(1, 8), label="block rows")
    finite = st.floats(-1e308, 1e308)
    inputs = data.draw(arrays(np.float64, (n, dim), elements=finite), label="inputs")
    queries = data.draw(arrays(np.float64, (m, dim), elements=finite | st.sampled_from(
        [1e308, -1e308, np.inf, -np.inf])), label="queries")
    d = network._distances(StoredPairs(inputs, np.zeros(n), 1).train_inputs.T, queries)
    assert d.shape == (m, n) and not np.isnan(d).any()


def two_neighbor_output(kind, d1, d2, bandwidths=None):
    """Forward output for a query at 0 with neighbors at distances d1 < d2
    holding targets 1 and 0: the first neighbor's normalized weight."""
    net = AdaptiveNetwork(np.array([[d1], [d2]]), np.array([1.0, 0.0]), k=2,
                          kernel=kind, bandwidths=bandwidths)
    out = forward(net, [0.0])
    return out


class TestKernelEval:
    def test_exponential_at_zero(self):
        # kernel values exp(0) = 1 and exp(-1 * 5) at bandwidth 5
        out = two_neighbor_output(KernelKind.EXPONENTIAL, 0.0, 1.0, [5.0, 5.0])
        assert out == pytest.approx(1.0 / (1.0 + np.exp(-5.0)), abs=1e-15)

    def test_inverse_quadratic_substitution(self):
        # kernel values 1/(1+0) = 1 and 1/(1+1) = 0.5
        out = two_neighbor_output(KernelKind.INVERSE_QUADRATIC, 0.0, 1.0)
        assert out == pytest.approx(1.0 / 1.5, abs=1e-15)

    def test_linear_rescale_substitution(self):
        # (min, max) = (1, 4): kernel values (4 - 0)/4 = 1 and (4 - 3)/4 = 0.25
        out = two_neighbor_output(KernelKind.LINEAR_RESCALE, 1.0, 4.0)
        assert out == pytest.approx(1.0 / 1.25, abs=1e-15)

    def test_linear_rescale_degenerate(self):
        # all selected distances zero: no kernel mass, uniform weights
        out = two_neighbor_output(KernelKind.LINEAR_RESCALE, 0.0, 0.0)
        assert out == 0.5

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_linear_rescale_limit_at_an_infinite_distance(self):
        # 1e160 squared overflows, so sample 1 lies at distance inf from the
        # others: it weighs 0 beside finite neighbors, and sample 1's own
        # leave-one-out row (both distances inf) weighs uniformly.
        net = AdaptiveNetwork(np.array([[0.0], [1e160], [2.0]]), np.array([1.0, 5.0, 3.0]),
                              k=3, kernel=KernelKind.LINEAR_RESCALE)
        assert forward(net, [0.0]) == 2.0
        np.testing.assert_array_equal(loo_predictions(net), [3.0, 2.0, 1.0])
        # Finite rows keep their bits beside a row that takes the limit.
        finite = np.random.default_rng(41).uniform(0.0, 3.0, size=(4, 3))
        rows = np.vstack([finite, [[1.0, np.inf, np.inf]]])
        # The kernel takes rank-major distances: one column per query.
        got = network._kernel(KernelKind.LINEAR_RESCALE, rows.T, np.ones(3)).T
        assert np.array_equal(got[:4], network._kernel(KernelKind.LINEAR_RESCALE, finite.T,
                                                       np.ones(3)).T)
        np.testing.assert_array_equal(got[4], [1.0, 0.0, 0.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_inverse_quadratic_at_a_distance_too_large_to_square(self):
        # 1e150 * 1e5 squared overflows: that neighbor's kernel value is 0
        net = AdaptiveNetwork(np.array([[0.0], [1e150]]), np.array([1.0, 5.0]), k=2,
                              kernel=KernelKind.INVERSE_QUADRATIC,
                              bandwidths=np.array([1e5, 1e5]))
        assert forward(net, [0.0]) == 1.0


class TestForward:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        net = AdaptiveNetwork(np.arange(6.0).reshape(3, 2), np.arange(3.0), k=2)
        with pytest.raises(InvalidParameter, match="query must be finite"):
            forward(net, [1.0, bad])
        with pytest.raises(DimensionMismatch):  # the shape is checked first
            forward(net, [bad])

    def test_k1_returns_nearest_target(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(8, 3))
        y = rng.normal(size=8)
        for kind in ALL_KERNELS:
            net = AdaptiveNetwork(X, y, k=1, kernel=kind,
                                  bandwidths=np.array([3.7]) if kind.parametric else None)
            q = X[5] + 1e-4
            assert forward(net, q) == y[nearest_row(net, q)[0][0]]

    def test_equidistant_neighbors_average(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([2.0, 6.0])
        for kind in ALL_KERNELS:
            net = AdaptiveNetwork(X, y, k=2, kernel=kind)
            out = forward(net, [0.0, 0.0])
            assert out == pytest.approx(4.0, abs=1e-12)

    def test_matches_direct_oracle_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            net = random_instance(rng)
            q = rng.normal(size=net.dim)
            out = forward(net, q)
            ref = forward_direct(net.train_inputs.tolist(),
                                 net.train_targets.tolist(),
                                 net.k, net.kernel.value,
                                 net.bandwidths.tolist(), q.tolist())
            assert out == pytest.approx(ref, abs=1e-12)

    def test_normalized_weights_keep_output_in_target_hull(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            net = random_instance(rng)
            q = rng.normal(size=net.dim)
            out = forward(net, q)
            selected = net.train_targets[nearest_row(net, q)[0]]
            assert selected.min() - 1e-12 <= out <= selected.max() + 1e-12

    def test_normalized_weights_sum_to_one(self):
        # rebuild the layer outputs from the independent scalar kernel and
        # check both the normalization and the final weighted sum
        rng = np.random.default_rng(40)
        for _ in range(20):
            net = random_instance(rng)
            q = rng.normal(size=net.dim)
            out = forward(net, q)
            indices, dists = nearest_row(net, q)
            d_min, d_max = float(dists.min()), float(dists.max())
            if d_max == 0.0:
                continue
            raw = np.array([
                kernel_value(net.kernel.value, float(d), float(b), d_min, d_max)
                for d, b in zip(dists, net.bandwidths)
            ])
            if raw.sum() == 0.0:
                continue
            norm = raw / raw.sum()
            assert abs(norm.sum() - 1.0) <= 1e-12
            assert out == pytest.approx(
                float(norm @ net.train_targets[indices]), abs=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        net = random_instance(rng, n=12, r=3, k=4,
                             kind=KernelKind.EXPONENTIAL)
        q = rng.normal(size=3)
        shift = rng.normal(size=3)
        shifted = AdaptiveNetwork(net.train_inputs + shift, net.train_targets,
                                  k=net.k, kernel=net.kernel,
                                  bandwidths=net.bandwidths)
        np.testing.assert_array_equal(nearest_row(net, q)[0],
                                      nearest_row(shifted, q + shift)[0])
        assert forward(shifted, q + shift) == pytest.approx(forward(net, q), abs=1e-9)

    def test_duplicate_points_all_zero_distances_rescale_fallback(self):
        X = np.zeros((4, 2))
        y = np.array([1.0, 2.0, 3.0, 4.0])
        net = AdaptiveNetwork(X, y, k=3, kernel=KernelKind.LINEAR_RESCALE)
        out = forward(net, [0.0, 0.0])
        assert out == pytest.approx(np.mean(y[:3]), abs=1e-12)

    def test_underflowed_kernel_mass_falls_back_to_uniform(self):
        X = np.array([[0.0], [1000.0]])
        y = np.array([5.0, 7.0])
        net = AdaptiveNetwork(X, y, k=2, kernel=KernelKind.EXPONENTIAL,
                              bandwidths=np.array([50.0, 50.0]))
        out = forward(net, [500.0])
        assert out == pytest.approx(6.0, abs=1e-12)


class TestLooPredictions:
    def test_two_samples_swap(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([3.0, 9.0])
        net = AdaptiveNetwork(X, y, k=1)
        np.testing.assert_array_equal(loo_predictions(net), [9.0, 3.0])

    def test_constant_targets(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(10, 2))
        y = np.zeros(10)
        net = AdaptiveNetwork(X, y, k=4)
        np.testing.assert_array_equal(loo_predictions(net), np.zeros(10))

    def test_matches_per_point_brute_force(self):
        rng = np.random.default_rng(7)
        duplicates = np.repeat(rng.normal(size=(3, 2)), [3, 2, 1], axis=0)
        underflow = rng.normal(size=(12, 2))
        nets = [
            random_instance(rng, n=15, r=3, k=4),
            # rows whose selected distances are all zero: uniform fallback
            AdaptiveNetwork(duplicates, rng.normal(size=6), k=2,
                            kernel=KernelKind.LINEAR_RESCALE),
            # exp(-d * 1e4) underflows to zero mass on most rows: uniform fallback
            AdaptiveNetwork(underflow, rng.normal(size=12), k=3,
                            kernel=KernelKind.EXPONENTIAL,
                            bandwidths=np.full(3, 1e4)),
        ]
        for net in nets:
            preds = loo_predictions(net)
            for j in range(net.n_samples):
                ref = forward_direct(net.train_inputs.tolist(),
                                     net.train_targets.tolist(),
                                     net.k, net.kernel.value,
                                     net.bandwidths.tolist(),
                                     net.train_inputs[j].tolist(), exclude=j)
                assert preds[j] == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("kind", ALL_KERNELS)
    def test_matches_forward_with_exclusion(self, kind):
        net = random_instance(np.random.default_rng(16), n=20, r=2, k=5, kind=kind)
        preds = loo_predictions(net)
        for j in range(net.n_samples):
            out = forward(net, net.train_inputs[j], exclude=j)
            assert abs(preds[j] - out) <= 1e-12

    def test_needs_two_samples(self):
        net = AdaptiveNetwork(np.zeros((1, 2)), np.zeros(1), k=1)
        with pytest.raises(TooFewSamples):
            loo_predictions(net)


class TestGradient:
    def test_constant_targets_zero_gradient(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(12, 3))
        y = np.zeros(12)
        net = AdaptiveNetwork(X, y, k=5, kernel=KernelKind.EXPONENTIAL)
        np.testing.assert_array_equal(grad_bandwidths(net), np.zeros(5))

    def test_linear_rescale_zero_vector(self):
        rng = np.random.default_rng(10)
        net = random_instance(rng, n=10, r=2, k=3,
                             kind=KernelKind.LINEAR_RESCALE)
        np.testing.assert_array_equal(grad_bandwidths(net), np.zeros(3))

    @pytest.mark.parametrize("kind", PARAMETRIC)
    def test_matches_central_finite_differences(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(5):
            net = random_instance(rng, kind=kind)
            g = grad_bandwidths(net)
            h = 1e-6
            k_eff = min(net.k, net.n_samples - 1)
            for m in range(net.k):
                bp = net.bandwidths.copy()
                bm = net.bandwidths.copy()
                bp[m] += h
                bm[m] -= h
                up = AdaptiveNetwork(net.train_inputs, net.train_targets,
                                     k=net.k, kernel=kind, bandwidths=bp)
                dn = AdaptiveNetwork(net.train_inputs, net.train_targets,
                                     k=net.k, kernel=kind, bandwidths=bm)
                fd = (loo_loss(up) - loo_loss(dn)) / (2 * h)
                if m >= k_eff:
                    assert g[m] == 0.0
                else:
                    np.testing.assert_allclose(g[m], fd, rtol=1e-5, atol=1e-10)


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", PARAMETRIC)
    def test_finite_at_an_infinite_distance(self, kind):
        # 1e160 squared overflows: every other sample's 4th neighbor lies at
        # distance inf, where the kernel value and its derivative are 0.
        net = AdaptiveNetwork(np.array([[0.0], [1.0], [2.0], [1e160], [3.0]]),
                              np.arange(5.0), k=4, kernel=kind)
        g = grad_bandwidths(net)
        assert np.isfinite(g).all() and g[3] == 0.0 and np.any(g != 0.0)
        trained, trace, _ = train_bandwidths_sd(net, lr=0.05, epochs=3)
        assert trace[-1] < trace[0]
        assert trained.bandwidths[3] == 1.0


class TestTrainBandwidths:
    def test_zero_epochs_is_identity(self):
        rng = np.random.default_rng(12)
        net = random_instance(rng, n=10, r=2, k=3,
                             kind=KernelKind.EXPONENTIAL)
        trained, trace, _ = train_bandwidths_sd(net, lr=0.1, epochs=0)
        np.testing.assert_array_equal(trained.bandwidths, net.bandwidths)
        assert trace.shape == (1,)
        assert trace[0] == pytest.approx(loo_loss(net), rel=1e-12)

    def test_constant_targets_flat_zero_trace(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(8, 2))
        y = np.zeros(8)
        net = AdaptiveNetwork(X, y, k=3, kernel=KernelKind.EXPONENTIAL)
        trained, trace, _ = train_bandwidths_sd(net, lr=0.1, epochs=5)
        np.testing.assert_array_equal(trace, np.zeros(6))
        np.testing.assert_array_equal(trained.bandwidths, net.bandwidths)

    def test_loss_never_ends_above_start(self):
        rng = np.random.default_rng(14)
        for kind in PARAMETRIC:
            net = random_instance(rng, n=25, r=3, k=6, kind=kind)
            _, trace, _ = train_bandwidths_sd(net, lr=0.5, epochs=20)
            assert trace.shape == (21,)
            assert trace[-1] <= trace[0]
            assert np.all(np.diff(trace) <= 1e-12)

    def test_linear_rescale_noop(self):
        rng = np.random.default_rng(15)
        net = random_instance(rng, n=10, r=2, k=3,
                             kind=KernelKind.LINEAR_RESCALE)
        trained, trace, _ = train_bandwidths_sd(net, lr=0.1, epochs=4)
        assert trained is net
        assert trace.shape == (5,)
        assert np.all(trace == trace[0])

    def test_mackey_glass_descends(self):
        ds = embed(gen_mackey_glass(203, tau=17, x0=1.2, warmup=100), 3, 1)
        assert len(ds) == 200
        net = AdaptiveNetwork(ds.inputs, ds.targets, k=8,
                              kernel=KernelKind.EXPONENTIAL)
        _, trace, _ = train_bandwidths_sd(net, lr=0.05, epochs=50)
        assert trace.shape == (51,)
        assert trace[-1] <= trace[0]

    @pytest.mark.parametrize("kind", ALL_KERNELS)
    def test_fused_loop_matches_public_steps(self, kind):
        # The descent reuses each accepted candidate's kernel values for the
        # next gradient and the returned responses; replay it from the
        # public functions, with lr large enough that steps backtrack.
        net = random_instance(np.random.default_rng(17), n=30, r=2, k=5, kind=kind)
        lr, epochs = 20.0, 8
        trained, trace, responses = train_bandwidths_sd(net, lr, epochs)
        b, loss = net.bandwidths, loo_loss(net)
        ref_trace, backtracks = [loss], 0
        for _ in range(epochs):
            g = grad_bandwidths(replace(net, bandwidths=b))
            step, before = lr, loss
            for _attempt in range(network._MAX_BACKTRACKS):
                cand = np.maximum(b - step * g, network.BANDWIDTH_FLOOR)
                cand_loss = loo_loss(replace(net, bandwidths=cand))
                if cand_loss <= loss:
                    b, loss = cand, cand_loss
                    break
                step *= 0.5
                backtracks += 1
            ref_trace.append(loss)
            if before - loss <= network._SD_RTOL * before:
                break
        ref_trace += [loss] * (epochs + 1 - len(ref_trace))
        assert backtracks > 0 or not kind.parametric
        np.testing.assert_array_equal(trace, ref_trace)
        np.testing.assert_array_equal(trained.bandwidths, b)
        np.testing.assert_array_equal(responses, loo_predictions(trained))

    def test_descent_stops_at_its_fixed_point(self, monkeypatch):
        # With lr = 1e12 even the smallest backtracked step overshoots after
        # three accepted epochs. An epoch that accepts nothing leaves the
        # bandwidths as they were, so no later epoch is run: 40 epochs cost
        # as many kernel evaluations as 10, and the trace repeats the loss.
        calls = []
        outputs = network._outputs
        monkeypatch.setattr(network, "_outputs", lambda *a: calls.append(1) or outputs(*a))
        ds = embed(gen_logistic(43, r=3.9, x0=0.3), 3, 1)
        net = AdaptiveNetwork(ds.inputs, ds.targets, k=4, kernel=KernelKind.INVERSE_QUADRATIC)
        short = train_bandwidths_sd(net, lr=1e12, epochs=10)
        n_short = len(calls)
        long = train_bandwidths_sd(net, lr=1e12, epochs=40)
        assert len(calls) - n_short == n_short < 1 + 10 * network._MAX_BACKTRACKS
        np.testing.assert_array_equal(long[0].bandwidths, short[0].bandwidths)
        np.testing.assert_array_equal(long[1], np.append(short[1], [short[1][-1]] * 30))
        np.testing.assert_array_equal(long[2], short[2])
        assert short[1][3] < short[1][2] and not np.array_equal(short[0].bandwidths,
                                                                net.bandwidths)

    def test_descent_ends_at_a_stalled_epoch(self, monkeypatch):
        # On chaotic Mackey-Glass the first step lowers the loss by about 1e-11
        # of itself: the descent keeps that step and runs no second epoch, so
        # it evaluates the kernel twice, not once per epoch.
        calls = []
        outputs = network._outputs
        monkeypatch.setattr(network, "_outputs", lambda *a: calls.append(1) or outputs(*a))
        ds = embed(gen_mackey_glass(203, tau=17, x0=1.2, warmup=100), 3, 1)
        net = AdaptiveNetwork(ds.inputs, ds.targets, k=8, kernel=KernelKind.EXPONENTIAL)
        trained, trace, responses = train_bandwidths_sd(net, lr=0.05, epochs=50)
        assert len(calls) == 2
        assert trace.shape == (51,) and np.all(trace[1:] == trace[1])
        assert 0 < trace[0] - trace[1] <= network._SD_RTOL * trace[0]
        assert not np.array_equal(trained.bandwidths, net.bandwidths)
        assert responses.tobytes() == loo_predictions(trained).tobytes()

    def test_descent_runs_every_epoch_that_lowers_the_loss(self, monkeypatch):
        grads = []
        grad = network._grad
        monkeypatch.setattr(network, "_grad", lambda *a: grads.append(1) or grad(*a))
        ds = embed(gen_logistic(80, r=3.9, x0=0.3), 3, 1)
        net = AdaptiveNetwork(ds.inputs, ds.targets, k=4, kernel=KernelKind.EXPONENTIAL)
        _, trace, _ = train_bandwidths_sd(net, lr=1.0, epochs=20)
        assert len(grads) == 20
        assert np.all(trace[:-1] - trace[1:] > network._SD_RTOL * trace[:-1])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_step_from_an_infinite_loss_is_no_stall(self):
        # The first loss overflows and the first step makes it finite: an
        # infinite drop, which must not end the descent before the next epoch
        # lowers the loss again.
        net = AdaptiveNetwork(np.array([[6.0], [3.0], [0.0], [7.0]]),
                              np.array([-1.0, 3.0, -1.0, 1.0]) * 3e153, k=3,
                              kernel=KernelKind.INVERSE_QUADRATIC)
        _, trace, _ = train_bandwidths_sd(net, lr=0.05, epochs=5)
        assert trace[0] == np.inf and np.isfinite(trace[1]) and trace[2] < trace[1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_start_whose_kernel_overflows_warns_nothing(self):
        # Every bandwidth times a stored distance overflows at the start, so
        # the descent cannot step and returns its start.
        net = AdaptiveNetwork(np.array([[0.0], [1.0], [3.0]]), np.array([1.0, 2.0, 3.0]),
                              k=2, bandwidths=[1e308, 1e308])
        trained, trace, _ = train_bandwidths_sd(net, lr=0.05, epochs=2)
        assert trained is net and trace.tolist() == [4.5, 4.5, 4.5]
        # The leave-one-out responses and the gradient outside the descent too.
        np.testing.assert_array_equal(loo_predictions(net), train_bandwidths_sd(net, 0.05, 0)[2])
        assert grad_bandwidths(net).tolist() == [0.0, 0.0]

    # Seed 0's descent used to end on bandwidths near 1e308, whose products
    # with the table's distances overflowed in every later kernel call.
    @example(seed=0, n=6, scale=3e153, kind=KernelKind.EXPONENTIAL, lr=20.0)
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(6, 29),
           scale=st.floats(3e153, 2e154), kind=st.sampled_from(PARAMETRIC),
           lr=st.sampled_from([0.05, 1.0, 20.0]))
    def test_an_overflowing_descent_steps_only_to_finite_values(self, seed, n, scale, kind, lr):
        # Targets near 1e154 overflow the loss, the gradient, a step or a
        # kernel product. The descent warns nothing (a RuntimeWarning fails
        # the test), steps only to finite bandwidths and a finite loss, and
        # returns its start when it cannot step; nor do the trained
        # network's own leave-one-out responses warn.
        rng = np.random.default_rng(seed)
        net = AdaptiveNetwork(rng.normal(size=(n, 2)), rng.normal(size=n) * scale,
                              k=min(8, n - 1), kernel=kind)
        trained, trace, responses = train_bandwidths_sd(net, lr=lr, epochs=6)
        assert np.array_equal(loo_predictions(trained), responses)
        assert np.isfinite(trained.bandwidths).all() and np.all(trace[1:] <= trace[:-1])
        if trained is net:
            assert np.all(trace == trace[0])
        else:
            assert np.isfinite(trace[-1]) and np.isfinite(responses).all()

    def test_bandwidth_floor_respected(self):
        X = np.array([[0.0], [0.2], [0.4], [0.9]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        net = AdaptiveNetwork(X, y, k=2, kernel=KernelKind.EXPONENTIAL)
        trained, _, _ = train_bandwidths_sd(net, lr=100.0, epochs=40)
        assert np.all(trained.bandwidths >= 1e-8)


@pytest.mark.parametrize("build, message", [
    (lambda: AdaptiveNetwork(np.ones((3, 2)), np.ones(3), k=2, bandwidths=[1.0]),
     "bandwidths must have length k=2"),
    (lambda: train_bandwidths_sd(AdaptiveNetwork(np.arange(6.0).reshape(3, 2), np.ones(3), k=2),
                                 lr=0.05, epochs=-1),
     "epochs must be >= 0"),
])
def test_network_refusals(build, message):
    with pytest.raises(InvalidParameter, match=message):
        build()
