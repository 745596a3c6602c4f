"""Mask aggregation: selection semantics, orthogonality, adjoint, energy."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopdiff.aggregation import (
    MaskAggregator,
    aggregate,
    make_mask,
    scatter_adjoint,
)
from oracles import masked_control_energy, selection_matrix


def two_agent_split():
    return MaskAggregator(2, 4, ((0, 1), (2, 3)))


def test_two_agent_selection_example():
    agg = two_agent_split()
    y = aggregate(agg, [np.array([[1.0, 2, 3, 4]]), np.array([[5.0, 6, 7, 8]])])
    np.testing.assert_array_equal(y, [[1.0, 2.0, 7.0, 8.0]])


def test_identity_mask_single_agent():
    agg = make_mask("identity", 1, 3)
    x = np.array([[0.5, -1.0, 2.0]])
    np.testing.assert_array_equal(aggregate(agg, [x]), x)


def test_hstripes_16x16_three_agents_ceil_split():
    agg = make_mask("h-stripes", 3, 256, image_hw=(16, 16))
    # band heights 6, 5, 5: rows 0-5, 6-10, 11-15 (0-indexed)
    rows = [sorted({i // 16 for i in s}) for s in agg.index_sets]
    assert rows[0] == list(range(0, 6))
    assert rows[1] == list(range(6, 11))
    assert rows[2] == list(range(11, 16))
    assert agg.seam_pairs == ((5, 6), (10, 11))
    m = selection_matrix(agg)
    np.testing.assert_array_equal(m @ m.T, np.eye(256))
    assert sorted(i for s in agg.index_sets for i in s) == list(range(256))


def test_vstripes_and_halves():
    agg = make_mask("v-stripes", 2, 16, image_hw=(4, 4))
    cols = [sorted({i % 4 for i in s}) for s in agg.index_sets]
    assert cols == [[0, 1], [2, 3]]
    assert agg.seam_pairs == ()
    halves = make_mask("halves", 2, 5)
    assert halves.index_sets == ((0, 1, 2), (3, 4))


def test_partition_violations_raise():
    with pytest.raises(ValueError):
        MaskAggregator(2, 4, ((0, 1), (1, 2)))  # overlap and hole
    with pytest.raises(ValueError):
        MaskAggregator(2, 4, ((0, 1), (2,)))  # missing coordinate
    with pytest.raises(ValueError):
        MaskAggregator(1, 4, ((0, 1, 2, 5),))  # out of range
    with pytest.raises(ValueError):
        make_mask("identity", 2, 4)
    with pytest.raises(ValueError):
        make_mask("h-stripes", 2, 16)  # image_hw missing
    with pytest.raises(ValueError):
        make_mask("mosaic", 2, 4)


def test_aggregate_shape_errors():
    agg = two_agent_split()
    with pytest.raises(ValueError):
        aggregate(agg, [np.zeros((1, 4))])
    with pytest.raises(ValueError):
        aggregate(agg, [np.zeros((1, 4)), np.zeros((1, 3))])


def test_scatter_adjoint_examples():
    agg = make_mask("identity", 1, 4)
    g = np.array([[1.0, 2.0, 3.0, 4.0]])
    np.testing.assert_array_equal(scatter_adjoint(agg, g)[0], g)

    agg2 = two_agent_split()
    parts = scatter_adjoint(agg2, np.ones((1, 4)))
    np.testing.assert_array_equal(parts[0], [[1.0, 1.0, 0.0, 0.0]])
    np.testing.assert_array_equal(parts[1], [[0.0, 0.0, 1.0, 1.0]])


def test_scatter_roundtrip_on_basis_vectors():
    agg = MaskAggregator(3, 6, ((0, 3), (1, 4), (2, 5)))
    for j in range(6):
        e = np.zeros((1, 6))
        e[0, j] = 1.0
        parts = scatter_adjoint(agg, e)
        y = aggregate(agg, parts)
        np.testing.assert_array_equal(y, e)
        # exactly one agent receives the coordinate
        holders = [i for i, p in enumerate(parts) if p.sum() != 0]
        assert len(holders) == 1
        assert j in agg.index_sets[holders[0]]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_adjoint_identity(seed):
    rng = np.random.default_rng(seed)
    agg = MaskAggregator(2, 5, ((0, 2, 4), (1, 3)))
    xs = [rng.standard_normal((3, 5)) for _ in range(2)]
    g = rng.standard_normal((3, 5))
    lhs = float((aggregate(agg, xs) * g).sum())
    rhs = float(sum((x * s).sum() for x, s in zip(xs, scatter_adjoint(agg, g))))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_aggregate_linearity():
    rng = np.random.default_rng(0)
    agg = two_agent_split()
    xs = [rng.standard_normal((2, 4)) for _ in range(2)]
    ys = [rng.standard_normal((2, 4)) for _ in range(2)]
    a, b = 1.7, -0.3
    lhs = aggregate(agg, [a * x + b * y for x, y in zip(xs, ys)])
    rhs = a * aggregate(agg, xs) + b * aggregate(agg, ys)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_control_energy_zero_and_identity():
    # with one agent the aggregate sees the whole control
    agg = make_mask("identity", 1, 3)
    assert masked_control_energy(agg, [np.zeros((2, 3))]) == 0.0
    u = np.array([[1.0, 2.0, 2.0]])
    np.testing.assert_allclose(masked_control_energy(agg, [u]), 9.0)


def test_control_energy_decomposition_disjoint_masks():
    rng = np.random.default_rng(1)
    agg = make_mask("h-stripes", 3, 64, image_hw=(8, 8))
    us = [rng.standard_normal((4, 64)) for _ in range(3)]
    total = float(sum((u * u).sum() for u in us))
    masked = masked_control_energy(agg, us)
    restricted = sum(((u * agg.masks[i]) ** 2).sum() for i, u in enumerate(us))
    assert abs(masked - restricted) <= 1e-12 * max(1.0, masked)
    assert total >= masked  # masked-out components only add energy
