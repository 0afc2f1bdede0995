"""Tournament plan scope, and both select executors against brute force.

The fused shingle path selects each segment's top-``s`` ids either with the
eager kernels (``fused_hash`` + ``segmented_select_top_s``) or through a
per-batch :class:`~repro.device.kernels.TournamentPlan`.  Both must equal a
per-segment argsort of the hash keys; geometries outside the tournament's
scope yield no plan.  (The module keeps the name of the launch-graph tests
these began in.)
"""

import numpy as np
import pytest

from repro.device.kernels import (
    build_tournament_plan,
    fused_hash,
    recover_top_ids,
    run_tournament,
    segmented_select_top_s,
)
from repro.device.memory import ScratchPool


def _brute_force_top_ids(elements, indptr, a, b, prime, s):
    t = a.shape[0]
    n_seg = indptr.size - 1
    out = np.empty((t, n_seg, s), dtype=np.uint64)
    for i in range(t):
        for seg in range(n_seg):
            ids = elements[indptr[seg]:indptr[seg + 1]].astype(np.uint64)
            keys = (a[i] * ids + b[i]) % prime
            out[i, seg] = ids[np.argsort(keys)][:s]
    return out


class TestTournament:
    PRIME = 2147483647

    def _geometry(self, rng, n_seg=17, n_values=101, s=2):
        lengths = rng.integers(s, 9, n_seg)
        indptr = np.zeros(n_seg + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        elements = np.concatenate([
            rng.choice(n_values, size=L, replace=False) for L in lengths
        ]).astype(np.int64)
        return elements, indptr

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_both_executors_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        s, n_values = 2, 101
        elements, indptr = self._geometry(rng, n_values=n_values, s=s)
        plan = build_tournament_plan(elements, indptr, s, n_values)
        assert plan is not None
        t = 5
        a = rng.integers(1, self.PRIME, t).astype(np.uint64)
        b = rng.integers(0, self.PRIME, t).astype(np.uint64)
        expected = _brute_force_top_ids(elements, indptr, a, b, self.PRIME, s)
        n_seg = indptr.size - 1

        keys = fused_hash(elements, a, b, self.PRIME, n_values=n_values)
        eager = segmented_select_top_s(keys, indptr, s)
        eager_ids, _ = recover_top_ids(eager, a, b, self.PRIME)
        assert np.array_equal(eager_ids, expected)

        top = np.empty((t, n_seg, s), dtype=np.uint32)
        run_tournament(plan, ScratchPool(), a, b, self.PRIME, s, out32=top)
        expected_keys = (a.reshape(-1, 1, 1) * expected[:, plan.perm, :]
                         + b.reshape(-1, 1, 1)) % self.PRIME
        assert np.array_equal(top, expected_keys.astype(np.uint32))
        ids, _ = recover_top_ids(top, a, b, self.PRIME, has_sentinels=False)
        assert np.array_equal(ids, expected[:, plan.perm, :])

    def test_plan_rejects_short_segments(self):
        indptr = np.array([0, 1, 4], dtype=np.int64)
        elements = np.array([3, 0, 1, 2], dtype=np.int64)
        assert build_tournament_plan(elements, indptr, 2, 10) is None

    def test_plan_rejects_duplicate_ids(self):
        indptr = np.array([0, 3], dtype=np.int64)
        elements = np.array([4, 4, 5], dtype=np.int64)
        assert build_tournament_plan(elements, indptr, 2, 10) is None

    def test_plan_rejects_empty(self):
        assert build_tournament_plan(
            np.empty(0, np.int64), np.zeros(1, np.int64), 2, 10) is None
