"""The rank-major weighting, gradient and descent against the row-major code
they replaced (``oracles``), bit for bit, and their sums against plain
Python sums in order."""

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from belpm import network
from belpm.baselines import DISTANCE_EPSILON, WknnModel, _wknn
from belpm.network import AdaptiveNetwork, KernelKind, grad_bandwidths, loo_predictions

# Rank counts: every count up to 20, and 130.
RANKS = st.integers(1, 20) | st.just(130)


def same_bits(a, b) -> bool:
    """Equal values, equal signs of zero and equal shapes."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def summands(rng, shape) -> np.ndarray:
    """Values over 40 decades, so the summation order shows in the last bits,
    with exact cancellations, 0.0 and -0.0 mixed in, and some rows and
    columns all -0.0."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    pick = rng.integers(0, 8, shape)
    x = np.where(pick == 0, -0.0, np.where(pick == 1, 0.0, np.where(pick == 2, np.round(x), x)))
    x[rng.random(shape[0]) < 0.1] = -0.0
    x[:, rng.random(shape[1]) < 0.1] = -0.0
    return x


def plain_sum(values) -> float:
    """The first value, then one value at a time, then + 0.0, over Python floats."""
    total = values[0]
    for v in values[1:]:
        total += v
    return total + 0.0


@settings(max_examples=150, deadline=None)
@given(kk=RANKS, m=st.integers(1, 300) | st.just(1), seed=st.integers(0, 2 ** 32 - 1))
def test_sums_run_in_plain_order(kk, m, seed):
    a = summands(np.random.default_rng(seed), (kk, m))
    by_sample = [plain_sum(a[:, j].tolist()) for j in range(m)]
    by_rank = [plain_sum(a[j].tolist()) for j in range(kk)]
    # C-ordered, as the descent's table, and F-ordered, as a forward pass's
    # transposed search.
    assert same_bits(network._rank_sum(a), by_sample)
    assert same_bits(network._rank_sum(np.asfortranarray(a)), by_sample)
    assert same_bits(network._sample_sum(a.copy()), by_rank)


def network_case(data) -> AdaptiveNetwork:
    """A network whose leave-one-out table has kk ranks, with targets that
    hold 0.0 and -0.0, and inputs spread so that kernel masses underflow to
    0 (uniform fallback) or squared differences overflow (infinite distances)."""
    kk = data.draw(RANKS, label="kk")
    n = data.draw(st.integers(max(2, kk + 1), 300), label="n")
    dim = data.draw(st.integers(1, 4), label="dim")
    kind = data.draw(st.sampled_from(list(KernelKind)), label="kind")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    inputs = rng.normal(size=(n, dim))
    spread = data.draw(st.sampled_from(["plain", "underflow", "infinite"]), label="spread")
    if spread == "underflow":
        inputs[rng.random(n) < 0.5] *= 1e3
    elif spread == "infinite":
        inputs[rng.random(n) < 0.2] *= 1e200
    targets = rng.normal(size=n)
    targets[rng.random(n) < 0.3] = -0.0
    targets[rng.random(n) < 0.1] = 0.0
    bw = rng.uniform(0.5, 2.0, size=kk) if kind.parametric else None
    return AdaptiveNetwork(inputs, targets, k=kk, kernel=kind, bandwidths=bw)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_descent_matches_the_row_major_replay(data):
    net = network_case(data)
    lr = data.draw(st.sampled_from([0.05, 1.0, 20.0, 1e12]), label="lr")
    epochs = data.draw(st.integers(0, 8), label="epochs")
    trained, trace, responses = network.train_bandwidths_sd(net, lr, epochs)
    ref_bw, ref_trace, ref_responses = oracles.sd_replay(net, lr, epochs)
    assert same_bits(trained.bandwidths, ref_bw)
    assert same_bits(trace, ref_trace)
    assert same_bits(responses, ref_responses)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_path_matches_the_row_major_code(data):
    # Gradient, leave-one-out responses, and batch and one-row forward passes
    # (with wknn's weighting) all run the one rank-major implementation.
    net = network_case(data)
    indices, dists = network._nearest(net, net.train_inputs, np.arange(net.n_samples))
    table = dists, net.train_targets[indices]
    weighed = oracles._outputs(net.kernel, *table, net.bandwidths)
    assert same_bits(loo_predictions(net), weighed[2])
    if net.kernel.parametric:
        assert same_bits(grad_bandwidths(net), oracles._grad(net, table, net.bandwidths, weighed))
    queries = net.train_inputs[::3] + 0.25
    for rows in (queries, queries[:1]):
        indices, dists = network._nearest(net, rows)
        ref = oracles._outputs(net.kernel, dists, net.train_targets[indices], net.bandwidths)
        assert same_bits(network._forward_many(net, rows), ref[2])
        wknn = WknnModel(net.train_inputs, net.train_targets, net.k)
        ref = oracles._weigh(1.0 / (dists + DISTANCE_EPSILON), net.train_targets[indices])
        assert same_bits(_wknn(wknn, rows), ref[1])
