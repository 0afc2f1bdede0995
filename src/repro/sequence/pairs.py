"""Vectorized group-to-pairs expansion shared by the candidate-pair filters.

Both pair filters — the k-mer seed index and the generalized-suffix-array
maximal-match filter — end with the same combinatorial step: groups of
sequence ids that share a seed (or an LCP run) are expanded into all
within-group pairs, then deduplicated and thresholded on how many groups
each pair appeared in.  This module holds the one loop-free implementation
of that triangle expansion plus the single-sort pair reduction, so neither
filter carries its own copy.

Both steps optionally carry one seed position per group member through to
the pairs: each expanded pair gets the diagonal ``pos_a - pos_b`` of its
shared seed, and the reduction returns each surviving pair's median
diagonal — where the seed-and-extend edge test centres its band.
"""

from __future__ import annotations

import numpy as np


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=out[1:])
    return out


def expand_group_pairs(members: np.ndarray, starts: np.ndarray,
                       sizes: np.ndarray, positions: np.ndarray | None = None):
    """All ordered within-group pairs, fully vectorized.

    Parameters
    ----------
    members:
        Flat array holding every group's members back to back.  Members
        must be sorted ascending *within* each group (so emitted pairs obey
        ``a < b`` when members are distinct).
    starts / sizes:
        Per-group offset into ``members`` and group length.  Groups need
        not tile ``members``; filtered subsets are fine.
    positions:
        Optional seed position of each entry of ``members`` within its
        sequence.

    Returns
    -------
    np.ndarray
        ``(sum_g size_g*(size_g-1)/2, 2)`` array: for each group, every
        member pair ``(members[x], members[y])`` with ``x < y`` (local),
        groups in order, pairs in row-major triangle order.  With
        ``positions`` the result is ``(pairs, diagonals)``, where
        ``diagonals[p] = positions[x] - positions[y]`` for pair ``p``.
    """
    members = np.asarray(members, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.size == 0 or members.size == 0:
        return no_pairs(positions is not None)

    # Element level: local position p of each member within its group.
    n_elems = int(sizes.sum())
    elem_group_start = np.repeat(_exclusive_cumsum(sizes), sizes)
    local = np.arange(n_elems, dtype=np.int64) - elem_group_start
    elem_pos = np.repeat(starts, sizes) + local          # index into members
    # Member at local position p partners every later member: g - 1 - p
    # pairs with itself as the left element.
    reps = np.repeat(sizes, sizes) - 1 - local

    # Pair level: for each left element, right elements are the following
    # run of reps[e] members; cumsum arithmetic yields the run-local index.
    total = int(reps.sum())
    if total == 0:
        return no_pairs(positions is not None)
    left = np.repeat(elem_pos, reps)
    # right = left + 1 + (pair index - its run's start), built in place so
    # only two pair-level index arrays are alive at a time.
    right = np.arange(total, dtype=np.int64)
    right -= np.repeat(_exclusive_cumsum(reps), reps)
    right += left
    right += 1
    pairs = np.stack([members[left], members[right]], axis=1)
    if positions is None:
        return pairs
    positions = np.asarray(positions, dtype=np.int64)
    return pairs, positions[left] - positions[right]


def no_pairs(with_diagonals: bool = False):
    """The empty result of a pair filter, with or without diagonals."""
    pairs = np.empty((0, 2), dtype=np.int64)
    return (pairs, np.empty(0, dtype=np.int64)) if with_diagonals else pairs


def dedupe_count_pairs(pairs: np.ndarray, n: int, min_count: int = 1,
                       diagonals: np.ndarray | None = None):
    """Unique sorted pairs occurring at least ``min_count`` times.

    Packs each ``(a, b)`` row into the dense key ``a * n + b`` and finds
    run lengths with a single sort — equivalent to ``np.unique(...,
    return_counts=True)`` but without the second pass the unique/inverse
    machinery performs.

    Returns ``(m, 2)`` rows sorted lexicographically (the key order).  With
    ``diagonals`` (one per input row) the result is ``(pairs, medians)``:
    each surviving pair's lower median diagonal, ``sorted(d)[(c - 1) //
    2]`` over its ``c`` occurrences.  The diagonal rides in the low digits
    of the sort key, so the reduction stays one sort.
    """
    if pairs.shape[0] == 0:
        return no_pairs(diagonals is not None)
    keys = pairs[:, 0] * np.int64(n) + pairs[:, 1]
    if diagonals is None:
        keys.sort(kind="stable")
    else:
        keys, diagonals = _sort_by_key_then_diagonal(keys, diagonals, n)
    boundary = np.empty(keys.size, dtype=bool)
    boundary[0] = True
    np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
    run_starts = np.flatnonzero(boundary)
    if min_count > 1 or diagonals is not None:
        run_lengths = np.diff(np.append(run_starts, keys.size))
        if min_count > 1:
            kept = run_lengths >= min_count
            run_starts = run_starts[kept]
            run_lengths = run_lengths[kept]
    qualified = keys[run_starts]
    out = np.stack([qualified // n, qualified % n], axis=1)
    if diagonals is None:
        return out
    return out, diagonals[run_starts + (run_lengths - 1) // 2]


def _sort_by_key_then_diagonal(keys: np.ndarray, diagonals: np.ndarray,
                               n: int) -> tuple[np.ndarray, np.ndarray]:
    """``keys`` and ``diagonals`` sorted by ``(key, diagonal)``.

    One int64 sort of ``key * span + (diagonal - lo)`` when that cannot
    overflow, else a two-key lexsort.
    """
    diagonals = np.asarray(diagonals, dtype=np.int64)
    lo = int(diagonals.min())
    span = int(diagonals.max()) - lo + 1
    if n * n * span < 1 << 62:
        packed = keys * np.int64(span) + (diagonals - lo)
        packed.sort()
        return packed // span, packed % span + lo
    order = np.lexsort((diagonals, keys))
    return keys[order], diagonals[order]
