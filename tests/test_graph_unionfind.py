"""Tests for repro.graph.unionfind — both the scalar structure and the
vectorized bulk union, which must agree with each other."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.unionfind import (_BITMAP_DEDUP_CELLS, UnionFind,
                                   _dedup_edges, union_groups)


class TestUnionFind:
    def test_initial_state(self):
        uf = UnionFind(5)
        assert len(uf) == 5
        assert uf.n_components == 5
        assert all(uf.find(i) == i for i in range(5))

    def test_union_and_find(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        assert uf.connected(0, 1)
        assert not uf.connected(0, 2)
        assert uf.n_components == 3

    def test_idempotent_union(self):
        uf = UnionFind(3)
        uf.union(0, 1)
        uf.union(1, 0)
        assert uf.n_components == 2

    def test_set_size(self):
        uf = UnionFind(6)
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.set_size(2) == 3
        assert uf.set_size(5) == 1

    def test_union_group(self):
        uf = UnionFind(6)
        uf.union_group(np.array([1, 3, 5]))
        assert uf.connected(1, 5) and uf.connected(3, 5)
        assert uf.n_components == 4

    def test_union_group_trivial(self):
        uf = UnionFind(3)
        uf.union_group(np.array([2]))
        uf.union_group(np.array([], dtype=np.int64))
        assert uf.n_components == 3

    def test_union_many(self):
        uf = UnionFind(6)
        uf.union_many(np.array([0, 2]), np.array([1, 3]))
        assert uf.connected(0, 1) and uf.connected(2, 3)

    def test_union_many_shape_mismatch(self):
        uf = UnionFind(4)
        with pytest.raises(ValueError):
            uf.union_many(np.array([0]), np.array([1, 2]))

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UnionFind(-1)

    def test_labels_are_canonical(self):
        uf = UnionFind(5)
        uf.union(3, 4)
        labels = uf.labels()
        # first-appearance order: 0,1,2 singleton, {3,4} shares one label
        assert list(labels[:3]) == [0, 1, 2]
        assert labels[3] == labels[4] == 3

    def test_roots_fully_compressed(self):
        uf = UnionFind(10)
        for i in range(9):
            uf.union(i, i + 1)
        roots = uf.roots()
        assert np.unique(roots).size == 1
        assert np.array_equal(roots, uf._parent)


class TestUnionGroups:
    def test_matches_unionfind(self):
        rng = np.random.default_rng(0)
        n = 60
        groups = [rng.choice(n, size=rng.integers(1, 6), replace=False)
                  for _ in range(15)]
        offsets = np.zeros(len(groups) + 1, dtype=np.int64)
        offsets[1:] = np.cumsum([len(g) for g in groups])
        flat = np.concatenate(groups)

        roots = union_groups(n, offsets, flat)
        uf = UnionFind(n)
        for g in groups:
            uf.union_group(g)
        # same partition (compare canonical forms)
        _, vec_labels = np.unique(roots, return_inverse=True)
        assert np.array_equal(vec_labels, uf.labels())

    def test_empty_groups(self):
        roots = union_groups(4, np.array([0, 0, 0]), np.array([], dtype=np.int64))
        assert np.array_equal(roots, np.arange(4))

    def test_roots_are_set_minima(self):
        offsets = np.array([0, 3])
        flat = np.array([5, 2, 7])
        roots = union_groups(10, offsets, flat)
        assert roots[5] == roots[2] == roots[7] == 2

    def test_transitive_merging_across_groups(self):
        # {0,1} and {1,2} must merge into {0,1,2}
        offsets = np.array([0, 2, 4])
        flat = np.array([0, 1, 1, 2])
        roots = union_groups(5, offsets, flat)
        assert roots[0] == roots[1] == roots[2] == 0
        assert roots[3] == 3

    def test_invalid_offsets_rejected(self):
        with pytest.raises(ValueError):
            union_groups(3, np.array([1, 2]), np.array([0]))
        with pytest.raises(ValueError):
            union_groups(3, np.array([0, 2]), np.array([0]))

    def test_member_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            union_groups(3, np.array([0, 1]), np.array([7]))

    @given(st.lists(st.lists(st.integers(0, 29), min_size=1, max_size=5),
                    min_size=0, max_size=12))
    @settings(max_examples=80)
    def test_property_matches_unionfind(self, group_lists):
        n = 30
        groups = [np.array(sorted(set(g)), dtype=np.int64) for g in group_lists]
        offsets = np.zeros(len(groups) + 1, dtype=np.int64)
        offsets[1:] = np.cumsum([len(g) for g in groups])
        flat = (np.concatenate(groups) if groups
                else np.array([], dtype=np.int64))
        roots = union_groups(n, offsets, flat)
        uf = UnionFind(n)
        for g in groups:
            uf.union_group(g)
        _, vec_labels = np.unique(roots, return_inverse=True)
        assert np.array_equal(vec_labels, uf.labels())


class TestDedupEdges:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sort_branch_equals_np_unique(self, seed):
        """Large universes (past the bitmap ceiling) dedup by sort."""
        n = (1 << 13) + 7
        assert n * n > _BITMAP_DEDUP_CELLS
        rng = np.random.default_rng(seed)
        src = rng.integers(0, n, 3 * n)
        dst = rng.integers(0, n, 3 * n)
        src = np.concatenate([src, src[: 2 * n], np.arange(n // 4)])
        dst = np.concatenate([dst, dst[: 2 * n], np.arange(n // 4)])
        assert src.size > 4 * n

        keys = np.unique((src.astype(np.uint64) << np.uint64(32))
                         | dst.astype(np.uint64))
        want_src = (keys >> np.uint64(32)).astype(np.int64)
        want_dst = (keys & np.uint64(0xFFFFFFFF)).astype(np.int64)
        keep = want_src != want_dst
        got_src, got_dst = _dedup_edges(n, src, dst)
        assert got_src.dtype == got_dst.dtype == np.int64
        assert np.array_equal(got_src, want_src[keep])
        assert np.array_equal(got_dst, want_dst[keep])
