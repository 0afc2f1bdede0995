"""Data-parallel device kernels.

Each function here is the NumPy analogue of one GPU kernel launch from
Figure 4 of the paper: whole-array operations over a *batch* of adjacency
lists stored as one contiguous buffer plus an ``indptr`` boundary array —
never a per-element interpreted loop.  The kernels are pure functions over
ndarrays; :class:`repro.device.device.SimulatedDevice` wraps them with device
buffers, timing, and cost-model accounting.

All hot-path kernels accept optional ``out=`` destinations and (where they
need internal working arrays) a :class:`repro.device.memory.ScratchPool`, so
the steady state of a shingling pass performs **zero** fresh large
allocations: every round reuses the previous round's buffers, exactly as a
real CUDA pipeline would reuse device allocations across kernel launches.
The defaults (no pool, no ``out``) preserve the original allocate-per-call
behaviour for tests and one-off callers.

Kernel inventory
----------------
``affine_hash``
    ``thrust::transform`` analogue: ``h_j(v) = (A_j*v + B_j) mod P`` for a
    chunk of trials ``j`` at once (one row per trial).
``pack_pairs`` / ``unpack_pairs`` / ``unpack_ids``
    Pack (hash, id) into one uint64 so a single segmented min yields both the
    minimum hash and its original element.
``hash_table``
    ``thrust::transform`` over the id range: a trial chunk's ``(T,
    n_values)`` uint32 hash of every id, built once and gathered by every
    batch over those ids (out-of-core passes keep it device-resident).
``fused_hash``
    Fused hash+pack: because the affine map is injective mod P, the uint32
    hash alone *is* the packed pair — one transform launch writes one
    ``(T, nnz)`` uint32 key buffer instead of the uint64 hash matrix plus the
    uint64 packed matrix, and :func:`recover_top_ids` inverts the map on the
    small top-``s`` block afterwards.
``chunk_reduce``
    On-device sort-dedup reduction: groups one trial chunk's ``(t, n)``
    shingle occurrences by packed ``(trial, member-tuple, column)`` keys so
    only the ``k`` distinct shingles (in key order, with first-occurrence
    members and positions and ready-made generator lists) ship back to
    the host.
``segmented_sort_top_s``
    ``thrust::sort`` analogue: stable segmented sort, then take each
    segment's first ``s`` entries.  Reference implementation; the sort is a
    single 2-D composite-key argsort (value pass then stable segment pass),
    not a per-trial interpreted loop.
``segmented_select_top_s``
    Optimized selection: ``s`` rounds of segmented min (``ufunc.reduceat``)
    with masking.  O(s*n) instead of O(n log n); produces identical output.
``build_tournament_plan`` / ``run_tournament``
    Key-space tournament selection for the fused path: a per-batch plan of
    length-binned gather tables, then ``s`` min/max registers per bin over
    a ``(T, n_values)`` hash table.  Same top-``s`` keys as
    ``fused_hash`` + ``segmented_select_top_s`` whenever every segment has
    at least ``s`` distinct ids, in bin-permuted column order.
``fold_fingerprints``
    ``thrust::transform`` analogue folding each segment's top-``s`` ids into
    a 64-bit shingle fingerprint.
``segment_element_ids``
    Auxiliary iota: the segment id of every element — computed once per
    batch and reused by every selection round.
``merge_runs``
    Inter-pass aggregation: one unstable fingerprint argsort over a pass's
    ``chunk_reduce`` runs plus gathers.  Trial salts keep different trials'
    fingerprints apart, so runs almost never collide; an exact fallback
    collapses the ones that do.  Host and device merges both run it.
``cc_hook`` / ``cc_jump``
    Phase III connected components: one min-label hooking round (atomic-min
    scatter over the edge list) and one pointer-jumping round
    (``labels[labels]`` gather).  Iterated to a fixpoint, these converge to
    the canonical min-vertex labeling of each component.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.device.memory import ScratchPool
from repro.util.mixhash import fold_fingerprint_array

#: Sentinel marking "no element": larger than any packed (hash, id) pair.
SENTINEL = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Sentinel for the fused uint32 key lane: larger than any hash (< P < 2^32).
SENTINEL32 = np.uint32(0xFFFFFFFF)

#: Bits reserved for the element id in a packed pair.
_ID_BITS = np.uint64(32)
_ID_MASK = np.uint64((1 << 32) - 1)


def _take(pool: ScratchPool | None, shape, dtype):
    """A scratch buffer from the pool, or a fresh allocation without one."""
    if pool is not None:
        return pool.take(shape, dtype)
    return np.empty(shape, dtype=dtype)


def _give(pool: ScratchPool | None, *arrays: np.ndarray) -> None:
    if pool is not None:
        pool.give(*arrays)


def _check_prime(prime: int) -> None:
    # Products a*v must stay below 2**64: both factors < ~2**31.5.
    if prime <= 0 or prime > (1 << 31) + (1 << 20):
        raise ValueError(f"prime {prime} outside supported range")


def affine_hash(values: np.ndarray, a: np.ndarray, b: np.ndarray, prime: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """Min-wise hash a flat element buffer under a chunk of trials.

    Parameters
    ----------
    values:
        ``(nnz,)`` element ids (all ``< prime``).
    a, b:
        ``(T,)`` per-trial hash coefficients.
    prime:
        The modulus ``P``.
    out:
        Optional ``(T, nnz)`` uint64 destination; when given, no temporaries
        are allocated (the computation runs in place on ``out``).

    Returns
    -------
    np.ndarray
        ``(T, nnz)`` uint64 hashed values, row ``t`` = trial ``t``.
    """
    v = np.asarray(values, dtype=np.uint64)
    a = np.asarray(a, dtype=np.uint64).reshape(-1, 1)
    b = np.asarray(b, dtype=np.uint64).reshape(-1, 1)
    _check_prime(prime)
    with np.errstate(over="ignore"):
        if out is None:
            return (a * v + b) % np.uint64(prime)
        np.multiply(a, v, out=out)
        np.add(out, b, out=out)
        np.remainder(out, np.uint64(prime), out=out)
        return out


def pack_pairs(hashed: np.ndarray, ids: np.ndarray,
               out: np.ndarray | None = None,
               checked: bool = False) -> np.ndarray:
    """Pack ``(hash, id)`` into ``hash << 32 | id`` (uint64).

    Requires ``hash < 2**31`` (guaranteed by the prime bound) and
    ``id < 2**32``.  Ordering packed pairs orders primarily by hash, with the
    id as a deterministic tiebreaker — though within one adjacency list ties
    cannot occur because the affine map is injective mod P.

    ``out`` may alias ``hashed`` (the shift runs in place).  ``checked=True``
    skips the per-call id-range scan for callers that validated the element
    buffer once per batch.
    """
    ids = np.asarray(ids, dtype=np.uint64)
    if not checked and ids.size and int(ids.max()) >> 32:
        raise ValueError("element ids must fit in 32 bits")
    hashed = np.asarray(hashed, dtype=np.uint64)
    if out is None:
        return (hashed << _ID_BITS) | ids
    np.left_shift(hashed, _ID_BITS, out=out)
    np.bitwise_or(out, ids, out=out)
    return out


def unpack_pairs(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_pairs`: returns ``(hash, id)`` arrays."""
    packed = np.asarray(packed, dtype=np.uint64)
    return packed >> _ID_BITS, packed & _ID_MASK


def unpack_ids(packed: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The id halves of packed pairs only (the fingerprint fold's input)."""
    packed = np.asarray(packed, dtype=np.uint64)
    if out is None:
        return packed & _ID_MASK
    np.bitwise_and(packed, _ID_MASK, out=out)
    return out


def hash_table(a: np.ndarray, b: np.ndarray, prime: int, n_values: int,
               out: np.ndarray | None = None,
               scratch: ScratchPool | None = None) -> np.ndarray:
    """``(T, n_values)`` uint32 lookup table of ``h_j(v)`` for every id ``v``.

    One transform over the id range instead of the element buffer: every
    batch over ids ``< n_values`` can gather its fused keys from it.  ``out``
    may be wider than ``n_values`` columns; the extra columns are left
    untouched (the tournament keeps its sentinel there).
    """
    _check_prime(prime)
    a = np.asarray(a, dtype=np.uint64).reshape(-1, 1)
    b = np.asarray(b, dtype=np.uint64).reshape(-1, 1)
    t = a.shape[0]
    if out is None:
        out = np.empty((t, n_values), dtype=np.uint32)
    table64 = _take(scratch, (t, n_values), np.uint64)
    with np.errstate(over="ignore"):
        np.multiply(a, np.arange(n_values, dtype=np.uint64), out=table64)
        np.add(table64, b, out=table64)
        np.remainder(table64, np.uint64(prime), out=table64)
    np.copyto(out[:, :n_values], table64, casting="unsafe")
    _give(scratch, table64)
    return out


def fused_hash(values: np.ndarray, a: np.ndarray, b: np.ndarray, prime: int,
               out: np.ndarray | None = None,
               scratch: ScratchPool | None = None,
               n_values: int | None = None,
               table: np.ndarray | None = None) -> np.ndarray:
    """Fused hash+pack: one uint32 key buffer replaces hash + packed matrices.

    The affine map ``h(v) = (a*v + b) mod P`` is injective for ``a`` in
    ``[1, P)`` and ``v < P``, so within one adjacency list (distinct ids) the
    hash alone orders exactly like the packed ``(hash, id)`` pair — ties are
    impossible — and the id is recoverable as ``v = (h - b) * a^{-1} mod P``
    (:func:`recover_top_ids`).  One ``(T, nnz)`` uint32 pass therefore does
    the work of :func:`affine_hash` + :func:`pack_pairs` with half the key
    bytes for the selection kernel.

    A prebuilt :func:`hash_table` for the same trials (at least
    ``max(values) + 1`` columns) is only gathered from.  Without one, when
    the id range ``n_values`` is smaller than the element buffer, the table
    is built for this call and gathered (each table row is hit
    ``nnz / n_values`` times); otherwise the buffer is hashed directly.
    All give identical keys.
    """
    v = np.asarray(values)
    _check_prime(prime)
    t, nnz = np.asarray(a).size, v.size
    if out is None:
        out = np.empty((t, nnz), dtype=np.uint32)
    if nnz == 0:
        return out
    if table is not None:
        np.take(table, v, axis=1, out=out, mode="clip")
        return out
    if n_values is None:
        n_values = int(v.max()) + 1
    if n_values <= nnz:
        table32 = hash_table(a, b, prime, n_values,
                             out=_take(scratch, (t, n_values), np.uint32),
                             scratch=scratch)
        np.take(table32, v, axis=1, out=out, mode="clip")
        _give(scratch, table32)
        return out
    a = np.asarray(a, dtype=np.uint64).reshape(-1, 1)
    b = np.asarray(b, dtype=np.uint64).reshape(-1, 1)
    v64 = v.view(np.uint64) if v.dtype == np.int64 else v.astype(np.uint64)
    h64 = _take(scratch, (t, nnz), np.uint64)
    with np.errstate(over="ignore"):
        np.multiply(a, v64, out=h64)
        np.add(h64, b, out=h64)
        np.remainder(h64, np.uint64(prime), out=h64)
    np.copyto(out, h64, casting="unsafe")
    _give(scratch, h64)
    return out


def recover_top_ids(top_keys: np.ndarray, a: np.ndarray, b: np.ndarray,
                    prime: int, out_ids: np.ndarray | None = None,
                    out_packed: np.ndarray | None = None,
                    scratch: ScratchPool | None = None,
                    has_sentinels: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Invert the fused hash on a top-``s`` block: keys -> ids (and pairs).

    ``d = (h + P - b) mod P``; ``v = d * a^{-1} mod P`` — the inverse exists
    because P is prime and ``0 < a < P``.  Runs only on the small
    ``(t, n_seg, s)`` selection output, not the ``(t, nnz)`` element buffer.
    ``SENTINEL32`` keys map to id ``0xFFFFFFFF``, so the rebuilt packed pair
    (``hash << 32 | id``, written to ``out_packed`` when given) is exactly
    ``SENTINEL`` — bit-identical to the unfused pipeline's padding.

    Callers that guarantee a fully-compacted block (every segment has at
    least ``s`` elements, so no padding exists) pass
    ``has_sentinels=False`` to skip the sentinel mask-and-patch passes.
    """
    top_keys = np.asarray(top_keys, dtype=np.uint32)
    t = np.asarray(a).shape[0]
    a_inv = np.array([pow(int(x), prime - 2, prime)
                      for x in np.asarray(a).reshape(-1).tolist()],
                     dtype=np.uint64).reshape((t,) + (1,) * (top_keys.ndim - 1))
    b_neg = ((prime - np.asarray(b, dtype=np.int64)) % prime).astype(
        np.uint64).reshape(a_inv.shape)
    p64 = np.uint64(prime)
    if out_ids is None:
        out_ids = np.empty(top_keys.shape, dtype=np.uint64)
    if has_sentinels:
        mask = _take(scratch, top_keys.shape, np.bool_)
        np.equal(top_keys, SENTINEL32, out=mask)
    np.copyto(out_ids, top_keys, casting="unsafe")
    with np.errstate(over="ignore"):
        np.add(out_ids, b_neg, out=out_ids)
        # (h + b_neg) * a_inv is congruent mod P to the two-remainder
        # sequence; when the unreduced product provably fits 64 bits
        # (including sentinel keys up to 2**32-1, whose garbage product is
        # masked over below) one remainder pass over the block suffices.
        if (0xFFFFFFFF + prime) * (prime - 1) >= 1 << 64:
            np.remainder(out_ids, p64, out=out_ids)
        np.multiply(out_ids, a_inv, out=out_ids)
        np.remainder(out_ids, p64, out=out_ids)
    if has_sentinels:
        np.copyto(out_ids, _ID_MASK, where=mask)
    if out_packed is not None:
        np.copyto(out_packed, top_keys, casting="unsafe")
        np.left_shift(out_packed, _ID_BITS, out=out_packed)
        np.bitwise_or(out_packed, out_ids, out=out_packed)
    if has_sentinels:
        _give(scratch, mask)
    return out_ids, out_packed


def segment_element_ids(indptr: np.ndarray) -> np.ndarray:
    """Segment id of every element position (``[0,0,..,1,1,..]``).

    One gather table, computed once per batch; every selection round expands
    per-segment minima to element positions through it with ``np.take``.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    return np.repeat(np.arange(indptr.size - 1, dtype=np.int64),
                     np.diff(indptr))


def _segment_geometry(indptr: np.ndarray, nnz: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Common precomputation: (starts, lengths, empty_mask).

    ``starts`` is ``indptr[:-1]`` unmodified; trailing empty segments have
    ``start == nnz``, which is NOT a valid ``reduceat`` index — callers must
    restrict reduceat to the prefix of segments with ``start < nnz`` (they
    form a suffix of empties, handled via the empty mask).  Clipping the
    invalid starts instead would silently shrink the *previous* segment's
    reduceat window.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
        raise ValueError("invalid indptr for segment buffer")
    lengths = np.diff(indptr)
    return indptr[:-1], lengths, lengths == 0


def segmented_select_top_s(packed: np.ndarray, indptr: np.ndarray, s: int,
                           scratch: ScratchPool | None = None,
                           seg_ids: np.ndarray | None = None,
                           out: np.ndarray | None = None,
                           consume: bool = False) -> np.ndarray:
    """Top-``s`` smallest keys per segment via s rounds of segmented min.

    Parameters
    ----------
    packed:
        ``(T, nnz)`` keys, one row per trial — uint64 packed pairs or the
        fused kernel's uint32 hashes (any other dtype is cast to uint64).
        Not modified unless ``consume`` is set.
    indptr:
        ``(n_seg + 1,)`` segment boundaries within each row.
    s:
        Number of minima to extract per segment.
    scratch:
        Optional scratch pool for the working copy, per-round minima, the
        expanded-minimum matrix, and the equality mask — with it, repeated
        calls of the same geometry allocate nothing.
    seg_ids:
        Optional precomputed :func:`segment_element_ids` of ``indptr``.
    out:
        Optional ``(T, n_seg, s)`` destination matching ``packed``'s dtype.
    consume:
        Destroy ``packed`` in place instead of working on a copy — the fused
        path sets this because its key buffer is not needed afterwards,
        skipping one full ``(T, nnz)`` copy per round.

    Returns
    -------
    np.ndarray
        ``(T, n_seg, s)``; position ``[t, i, r]`` holds the r-th smallest
        key of segment ``i`` under trial ``t``, or the dtype's all-ones
        sentinel when the segment has fewer than ``r+1`` elements.
    """
    packed = np.asarray(packed)
    if packed.dtype not in (np.dtype(np.uint32), np.dtype(np.uint64)):
        packed = packed.astype(np.uint64)
    if packed.ndim == 1:
        packed = packed[np.newaxis, :]
    sentinel = packed.dtype.type(np.iinfo(packed.dtype).max)
    n_trials, nnz = packed.shape
    starts, lengths, empty = _segment_geometry(indptr, nnz)
    n_seg = lengths.size
    if out is None:
        out = np.empty((n_trials, n_seg, s), dtype=packed.dtype)
    out[...] = sentinel
    if nnz == 0 or n_seg == 0:
        return out
    # Trailing empty segments have start == nnz (invalid for reduceat);
    # they are a suffix, so reduce over the valid prefix only.
    n_valid = int(np.searchsorted(starts, nnz, side="left"))
    if consume:
        work = packed
    else:
        work = _take(scratch, (n_trials, nnz), packed.dtype)
        np.copyto(work, packed)
    segmin = _take(scratch, (n_trials, n_seg), packed.dtype)
    if s > 1:
        if seg_ids is None:
            seg_ids = segment_element_ids(indptr)
        expanded = _take(scratch, (n_trials, nnz), packed.dtype)
        mask = _take(scratch, (n_trials, nnz), np.bool_)
    for r in range(s):
        np.minimum.reduceat(work, starts[:n_valid], axis=1,
                            out=segmin[:, :n_valid])
        if n_valid < n_seg:
            segmin[:, n_valid:] = sentinel
        segmin[:, empty] = sentinel
        out[:, :, r] = segmin
        if r + 1 == s:
            break
        # Mask each extracted minimum so the next round finds the runner-up.
        # mode="clip" selects the fast gather path (indices are in range by
        # construction; "raise" would fall back to a slow checked loop).
        np.take(segmin, seg_ids, axis=1, out=expanded, mode="clip")
        np.equal(work, expanded, out=mask)
        np.copyto(work, sentinel, where=mask)
    if not consume:
        _give(scratch, work)
    _give(scratch, segmin)
    if s > 1:
        _give(scratch, expanded, mask)
    return out


def segmented_sort_top_s(packed: np.ndarray, indptr: np.ndarray, s: int,
                         scratch: ScratchPool | None = None,
                         seg_ids: np.ndarray | None = None,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Reference implementation: full segmented sort, then gather top ``s``.

    Mirrors the paper's Thrust pipeline (transform then ``thrust::sort`` of
    the whole batch with segment keys).  The segmented sort is composed as a
    least-significant-key radix pass over the whole 2-D trial block: a
    stable argsort by pair value, then a stable argsort by segment id of the
    value-ordered positions — one composite-key sort for *all* trials, with
    no per-trial interpreted loop.  Output is identical to
    :func:`segmented_select_top_s`.
    """
    packed = np.array(packed, dtype=np.uint64, ndmin=2, copy=False)
    n_trials, nnz = packed.shape
    indptr = np.asarray(indptr, dtype=np.int64)
    _, lengths, _ = _segment_geometry(indptr, nnz)
    n_seg = lengths.size
    if out is None:
        out = np.empty((n_trials, n_seg, s), dtype=np.uint64)
    out[...] = SENTINEL
    if nnz == 0 or n_seg == 0:
        return out
    if seg_ids is None:
        seg_ids = segment_element_ids(indptr)
    take = np.minimum(lengths, s)
    # Destination coordinates of the top-s entries of every segment.
    dst_seg = np.repeat(np.arange(n_seg, dtype=np.int64), take)
    dst_rank = _ranks_within(take)
    src_pos = np.repeat(indptr[:-1], take) + dst_rank
    # Stable LSD composition == np.lexsort((packed[t], seg_ids)) per trial.
    value_order = np.argsort(packed, axis=1, kind="stable")
    segment_keys = seg_ids[value_order]
    segment_order = np.argsort(segment_keys, axis=1, kind="stable")
    order = np.take_along_axis(value_order, segment_order, axis=1)
    sorted_rows = np.take_along_axis(packed, order, axis=1)
    out[:, dst_seg, dst_rank] = sorted_rows[:, src_pos]
    return out


@dataclass
class TournamentPlan:
    """Per-batch constants of the binned tournament selection.

    ``bins`` holds ``(pos0, idx)`` entries: ``idx`` is an ``(L, m)`` gather
    table whose row ``j`` maps bin columns to element values (pad slots
    point at the sentinel column ``n_values`` of the extended hash table);
    the bin's segments occupy permuted columns ``pos0:pos0+m``.
    ``perm_cols`` / ``col_to_row`` let :func:`chunk_reduce` consume the
    permuted block directly — packed keys carry original column ids, so its
    global sort restores eager order without an inverse scatter.

    ``verified`` is ``None`` until the batch's first trial chunk has
    compared the tournament with the eager kernels in full; the device then
    sets it, and a ``False`` pins the rest of the batch to the eager path.
    """

    n_seg: int
    n_values: int
    bins: list = field(default_factory=list)
    perm: np.ndarray | None = None         # (n_seg,) int64, permuted -> original
    perm_cols: np.ndarray | None = None    # (n_seg,) uint64 original column ids
    col_to_row: np.ndarray | None = None   # (n_seg,) int64, original -> permuted
    verified: bool | None = None


def _ceil_pow2(lengths: np.ndarray) -> np.ndarray:
    """Elementwise ``2**ceil(log2(x))``, int-exact (bit length of ``x-1``)."""
    out = np.ones(lengths.size, dtype=np.int64)
    rem = np.asarray(lengths, dtype=np.int64) - 1
    while np.any(rem > 0):
        np.left_shift(out, 1, out=out, where=rem > 0)
        np.right_shift(rem, 1, out=rem)
    return out


def build_tournament_plan(elements: np.ndarray, indptr: np.ndarray,
                          s: int, n_values: int) -> TournamentPlan | None:
    """Bin one batch's segments by padded length for :func:`run_tournament`.

    Returns ``None`` (the caller keeps the eager kernels) when the geometry
    is out of scope: an empty batch, a segment shorter than ``s`` (sentinel
    padding would be needed) or duplicate element ids within a segment (the
    tournament computes multiset top-``s``, the eager masking select
    deduplicates — only distinctness makes them provably identical for
    every hash coefficient).
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    elements = np.asarray(elements, dtype=np.int64)
    lengths = np.diff(indptr)
    n_seg = lengths.size
    if n_seg == 0 or elements.size == 0:
        return None
    if int(lengths.min()) < s:
        return None
    # Distinctness proof: one packed sort over (segment, value) pairs.
    seg_of = np.repeat(np.arange(n_seg, dtype=np.uint64), lengths)
    packed = seg_of * np.uint64(n_values) + elements.astype(np.uint64)
    packed.sort()
    if packed.size > 1 and np.any(packed[1:] == packed[:-1]):
        return None

    buckets = _ceil_pow2(lengths)
    perm = np.argsort(buckets, kind="stable")
    inv = np.empty(n_seg, dtype=np.int64)
    inv[perm] = np.arange(n_seg, dtype=np.int64)
    plan = TournamentPlan(
        n_seg=n_seg, n_values=n_values, perm=perm,
        perm_cols=perm.astype(np.uint64), col_to_row=inv)

    sorted_buckets = buckets[perm]
    boundaries = np.flatnonzero(
        np.concatenate(([True], sorted_buckets[1:] != sorted_buckets[:-1])))
    edges = np.append(boundaries, n_seg)
    for lo, hi in zip(edges[:-1], edges[1:]):
        segs = perm[lo:hi]
        seg_lengths = lengths[segs]
        pad_len = int(seg_lengths.max())
        idx = np.full((pad_len, segs.size), n_values, dtype=np.int64)
        starts = indptr[segs]
        for j in range(pad_len):
            live = seg_lengths > j
            idx[j, live] = elements[starts[live] + j]
        plan.bins.append((int(lo), idx))
    return plan


def tournament_table(a: np.ndarray, b: np.ndarray, prime: int,
                     n_values: int, pool: ScratchPool | None) -> np.ndarray:
    """:func:`hash_table` plus the tournament's pad column ``n_values``.

    The pad column holds ``SENTINEL32``; the first ``n_values`` columns are
    the plain hash table, so eager keys may gather from the same buffer.
    """
    table = _take(pool, (np.asarray(a).size, n_values + 1), np.uint32)
    hash_table(a, b, prime, n_values, out=table, scratch=pool)
    table[:, n_values] = SENTINEL32
    return table


def run_tournament(plan: TournamentPlan, pool: ScratchPool | None,
                   a: np.ndarray, b: np.ndarray, prime: int, s: int,
                   out32: np.ndarray,
                   table: np.ndarray | None = None) -> np.ndarray:
    """Hash table + binned min tournaments: top-``s`` keys per segment.

    Writes each segment's ascending top-``s`` hash keys into ``out32``
    (``(t, n_seg, s)`` uint32, *bin-permuted* column order).  Equal to
    ``fused_hash`` + ``segmented_select_top_s`` composed with ``plan.perm``
    whenever the plan exists and ``a != 0``.  Each bin keeps ``s`` running
    registers: a gathered row is min/max-swapped down the chain, and the
    last register's displaced maximum is never read, so its ``maximum`` is
    skipped.  ``table`` is a caller-owned :func:`tournament_table` for the
    same trials; without one the call builds (and releases) its own.
    """
    t = np.asarray(a).size
    owned = table is None
    if owned:
        table = tournament_table(a, b, prime, plan.n_values, pool)
    for pos0, idx in plan.bins:
        rows, m = idx.shape
        regs = [_take(pool, (t, m), np.uint32) for _ in range(s)]
        np.take(table, idx[0], axis=1, out=regs[0], mode="clip")
        for r in range(1, s):
            regs[r].fill(SENTINEL32)
        if rows > 1:
            x = _take(pool, (t, m), np.uint32)
            swap = _take(pool, (t, m), np.uint32)
            for j in range(1, rows):
                np.take(table, idx[j], axis=1, out=x, mode="clip")
                cur, spare = x, swap
                for r in range(s):
                    if r < s - 1:
                        np.maximum(regs[r], cur, out=spare)
                    np.minimum(regs[r], cur, out=regs[r])
                    if r < s - 1:
                        cur, spare = spare, cur
            _give(pool, x, swap)
        for r in range(s):
            out32[:, pos0:pos0 + m, r] = regs[r]
        _give(pool, *regs)
    if owned:
        _give(pool, table)
    return out32


def _ranks_within(counts: np.ndarray) -> np.ndarray:
    """``[0..c0-1, 0..c1-1, ...]`` for a counts array (vectorized iota)."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(counts)
    idx = np.arange(total, dtype=np.int64)
    seg_start = np.repeat(ends - counts, counts)
    return idx - seg_start


def fold_fingerprints(top_ids: np.ndarray, salts: np.ndarray,
                      scratch: ScratchPool | None = None,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Fold each segment's top-``s`` ids into a shingle fingerprint.

    Parameters
    ----------
    top_ids:
        ``(T, n_seg, s)`` ids in min-hash order.
    salts:
        ``(T,)`` per-trial salts.
    scratch, out:
        Optional scratch pool / destination for allocation-free folding.

    Returns
    -------
    np.ndarray
        ``(T, n_seg)`` uint64 fingerprints.
    """
    top_ids = np.asarray(top_ids, dtype=np.uint64)
    salts = np.asarray(salts, dtype=np.uint64).reshape(-1, 1)
    return fold_fingerprint_array(top_ids, salts, scratch=scratch, out=out)


def reduce_keys_fit(n_trials: int, n_seg: int, s: int, n_values: int) -> bool:
    """True when :func:`chunk_reduce`'s packed key fits 63 bits.

    The key is ``(trial * n_values**s + member_tuple) * n_seg + column``;
    evaluated in exact Python integers so enormous ``n_values**s`` cannot
    overflow the check itself.
    """
    if n_values < 1:
        return False
    return n_trials * (n_values ** s) * max(n_seg, 1) < (1 << 63)


def chunk_reduce(top_ids: np.ndarray, salts: np.ndarray, gen_ids: np.ndarray,
                 n_values: int, scratch: ScratchPool | None = None,
                 col_ids: np.ndarray | None = None,
                 col_to_row: np.ndarray | None = None,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """On-device sort-dedup of one trial chunk's shingle occurrences.

    Groups the ``(t, n)`` occurrences by their identity — the ordered member
    tuple within a trial — using one packed-key quicksort (the ``uint64``
    key packs trial, base-``n_values`` member tuple, and column), mirroring
    the packed-key technique of the host-side generator sort.  Because the
    column occupies the low bits, equal-identity runs come out contiguous
    AND ascending by column without needing a stable sort, so the first
    element of each run is the first occurrence and each run's column list
    is already the sorted, duplicate-free generator list.  Fingerprints are
    folded only for the ``k`` distinct shingles; the runs stay in key order
    and :func:`merge_runs` sorts a whole pass's runs by fingerprint once.

    The caller must guarantee :func:`reduce_keys_fit` and that ``top_ids``
    contains no sentinel entries (all segments have length >= s — the device
    driver pre-compacts inputs this way).

    Parameters
    ----------
    top_ids:
        ``(t, n, s)`` uint64 member ids in min-hash order.
    salts:
        ``(t,)`` uint64 per-trial fingerprint salts.
    gen_ids:
        ``(n,)`` original segment id of each column, monotone increasing
        (the driver's ``valid_ids`` table, device-resident).
    n_values:
        Exclusive upper bound on member ids (the tuple-key base).
    col_ids, col_to_row:
        Support for *column-permuted* ``top_ids`` blocks (the tournament's
        bin order, see :class:`TournamentPlan`): ``col_ids`` (``(n,)`` uint64) supplies the ORIGINAL column
        id of each permuted position for the packed key (instead of
        ``arange(n)``), and ``col_to_row`` (``(n,)`` int64) maps an original
        column back to its permuted row for the member gather.  Because the
        key then carries original ids, the global sort canonicalizes order
        and every output — first positions included — is bit-identical to
        the unpermuted call.

    Returns
    -------
    (fps, members, gen_counts, gens, first_pos):
        One entry per distinct ``(trial, tuple)`` run, in key order:
        ``fps`` — ``(k,)`` uint64 fingerprints; ``members`` — ``(k, s)``
        uint32 first-occurrence member rows; ``gen_counts`` — ``(k,)``
        uint32 generator-list lengths; ``gens`` — concatenated uint32
        generator lists (``t*n`` entries total); ``first_pos`` — ``(k,)``
        int64 flat position ``trial * n + column`` of each run's first
        occurrence.  :func:`merge_runs` turns one or more of these into
        exactly what host-side ``aggregate_pass`` would distill from the
        dense ``(t, n)`` arrays, at O(k) download size.
    """
    top_ids = np.asarray(top_ids, dtype=np.uint64)
    salts = np.asarray(salts, dtype=np.uint64)
    gen_ids = np.asarray(gen_ids)
    t, n, s = top_ids.shape
    total = t * n
    if total == 0:
        return (np.empty(0, dtype=np.uint64), np.empty((0, s), dtype=np.uint32),
                np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.uint32),
                np.empty(0, dtype=np.int64))
    m_pow_s = np.uint64(n_values ** s)
    n64 = np.uint64(n)
    key = _take(scratch, (t, n), np.uint64)
    np.copyto(key, top_ids[..., 0])
    with np.errstate(over="ignore"):
        for j in range(1, s):
            np.multiply(key, np.uint64(n_values), out=key)
            np.add(key, top_ids[..., j], out=key)
        np.add(key, (np.arange(t, dtype=np.uint64) * m_pow_s).reshape(t, 1),
               out=key)
        np.multiply(key, n64, out=key)
        np.add(key,
               np.arange(n, dtype=np.uint64) if col_ids is None else col_ids,
               out=key)
    skey = key.reshape(total)
    skey.sort(kind="quicksort")

    # Run boundaries: adjacent positions with a different (trial, tuple) part.
    gkey_buf = _take(scratch, (t, n), np.uint64)
    gkey = gkey_buf.reshape(total)
    np.floor_divide(skey, n64, out=gkey)
    is_start = np.empty(total, dtype=bool)
    is_start[0] = True
    np.not_equal(gkey[1:], gkey[:-1], out=is_start[1:])
    run_start = np.flatnonzero(is_start)
    k = run_start.size
    counts = np.empty(k, dtype=np.int64)
    np.subtract(run_start[1:], run_start[:-1], out=counts[:-1])
    counts[-1] = total - run_start[-1]

    # First occurrence of each run = its smallest column (low key bits).
    start_keys = skey[run_start]
    col = (start_keys % n64).astype(np.int64)
    trial = (gkey[run_start] // m_pow_s).astype(np.int64)
    first_pos = trial * n + col
    gather_pos = first_pos if col_to_row is None else trial * n + col_to_row[col]
    members = np.take(top_ids.reshape(total, s), gather_pos, axis=0)
    fps = fold_fingerprint_array(members, salts[trial])

    # Column -> generator id for every occurrence, still in key order (runs
    # contiguous, columns ascending within each run).  ``take`` wants intp
    # indices; the columns fit, so a view reinterprets them for free.
    np.remainder(skey, n64, out=gkey)
    gens = np.take(np.asarray(gen_ids, dtype=np.uint32), gkey.view(np.int64))
    _give(scratch, key, gkey_buf)
    return (fps, members.astype(np.uint32), counts.astype(np.uint32), gens,
            first_pos)


def merge_runs(parts: list[tuple]) -> tuple[np.ndarray, np.ndarray,
                                           np.ndarray, np.ndarray]:
    """Group-by of a pass's chunk partials into the fingerprint-sorted result.

    ``parts`` holds one ``(fps, members, gen_counts, gens, first_pos)``
    partial per trial chunk, in ascending trial order: the runs
    :func:`chunk_reduce` emits (or the host's
    :func:`repro.core.aggregate.aggregate_runs`), each a distinct
    shingle identity with its member row, its sorted generator list and
    the chunk-local flat position ``trial * n + column`` of its first
    occurrence.

    Every trial salts its fingerprints, so two runs almost never share
    one: the merge is one unstable argsort over the concatenated
    fingerprints and gathers of the other fields — the generator lists
    move with one repeat-offset gather.  Only when adjacent sorted
    fingerprints are equal does :func:`_merge_fp_collisions` collapse them
    exactly: the first occurrence in trial-major order (part, then first
    position) keeps its member row and the generator lists are unioned.

    Returns ``(fps, members, gen_counts, gens)``: ``fps`` strictly
    ascending, the rest in the partials' dtypes (``gen_counts`` uint32).
    """
    fps, members, counts, gens, first_pos = (
        np.concatenate(field) for field in zip(*parts))
    counts = counts.astype(np.int64)
    if fps.size == 0:
        return fps, members, counts.astype(np.uint32), gens
    order = np.argsort(fps, kind="quicksort")
    fps_sorted = np.take(fps, order)
    counts_o = np.take(counts, order)
    # Reorder the generator runs with ONE repeat: position j inside sorted
    # run r maps to run_start[order[r]] + rank, and rank == j - (sorted run
    # offset), so the gather index is j plus a per-run shift.
    ends_o = np.cumsum(counts_o)
    shift = np.take(np.cumsum(counts) - counts, order)
    shift -= ends_o
    shift += counts_o
    positions = np.repeat(shift, counts_o)
    positions += np.arange(positions.size, dtype=np.int64)
    gens_sorted = np.take(gens, positions)
    members_sorted = np.take(members, order, axis=0)
    if fps.size > 1 and np.any(fps_sorted[1:] == fps_sorted[:-1]):
        part_of = np.repeat(np.arange(len(parts)),
                            [part[0].size for part in parts])
        return _merge_fp_collisions(
            fps_sorted, members_sorted, counts_o, gens_sorted,
            (np.take(first_pos, order), np.take(part_of, order)))
    return fps_sorted, members_sorted, counts_o.astype(np.uint32), gens_sorted


def _merge_fp_collisions(fps: np.ndarray, members: np.ndarray,
                         counts: np.ndarray, gens: np.ndarray,
                         first_keys: tuple[np.ndarray, ...]
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collapse adjacent equal-fingerprint runs (cold path, k-sized).

    ``first_keys`` orders the runs by first occurrence, most significant
    key last (``np.lexsort`` convention).
    """
    k = fps.size
    is_new = np.empty(k, dtype=bool)
    is_new[0] = True
    np.not_equal(fps[1:], fps[:-1], out=is_new[1:])
    group = np.cumsum(is_new) - 1
    n_groups = int(group[-1]) + 1
    # Representative row per group: the globally-first occurrence.
    rep_order = np.lexsort((*first_keys, group))
    reps = rep_order[np.searchsorted(group[rep_order], np.arange(n_groups))]
    # Union the generator lists with one packed-key sort + dedup.
    entry_groups = np.repeat(group, counts).astype(np.uint64)
    keys = (entry_groups << _ID_BITS) | gens.astype(np.uint64)
    keys.sort()
    keep = np.empty(keys.size, dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    kept = keys[keep]
    gen_counts = np.bincount((kept >> _ID_BITS).astype(np.int64),
                             minlength=n_groups).astype(np.uint32)
    return (fps[is_new], np.take(members, reps, axis=0), gen_counts,
            (kept & _ID_MASK).astype(gens.dtype))


def unique_first(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(keys, return_index=True, return_inverse=True)``, faster.

    ``np.unique`` sorts stably so that each group's first sorted element
    is its first occurrence; here one unstable argsort groups the keys
    and ``np.minimum.reduceat`` of the permutation over each run picks the
    smallest index instead.  Returns ``(uniq, first_idx, inverse)``.
    """
    keys = np.asarray(keys)
    n = keys.size
    if n == 0:
        return keys.copy(), np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    order = np.argsort(keys, kind="quicksort")
    keys_sorted = np.take(keys, order)
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=is_start[1:])
    run_starts = np.flatnonzero(is_start)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(is_start) - 1
    return (keys_sorted[run_starts], np.minimum.reduceat(order, run_starts),
            inverse)


def cc_hook(labels: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
    """One min-label hooking round over an edge list, in place.

    Every edge pulls both endpoints down to the smaller of their current
    labels — the atomic-min scatter of a GPU hooking kernel
    (``np.minimum.at`` is the unordered-atomic analogue).
    """
    lo = np.minimum(labels[src], labels[dst])
    np.minimum.at(labels, src, lo)
    np.minimum.at(labels, dst, lo)


def cc_jump(labels: np.ndarray, out: np.ndarray) -> bool:
    """One pointer-jumping round: ``out = labels[labels]``.

    Returns True when the round changed anything (the caller copies ``out``
    back into ``labels`` and iterates until False — at most O(log n)
    rounds since every jump at least halves the pointer-chain depth).
    """
    np.take(labels, labels, out=out)
    return not np.array_equal(out, labels)


def count_kernel_elements(kernel: str, n_trials: int, nnz: int, n_seg: int, s: int) -> int:
    """Element counts fed to the kernel cost model, per kernel class."""
    if kernel == "transform":
        return n_trials * nnz
    if kernel == "sort":
        return n_trials * nnz
    if kernel in ("select", "fused"):
        return n_trials * nnz * s
    if kernel == "reduce":
        return n_trials * n_seg * s
    if kernel == "chunk_reduce":
        return n_trials * n_seg
    raise ValueError(f"unknown kernel class {kernel!r}")
