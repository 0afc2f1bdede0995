"""Smith-Waterman local alignment.

pGraph's homology detection performs "the optimality-guaranteeing
Smith-Waterman alignment algorithm [20] only on those identified pairs".
Several implementations, cross-validated by the test suite:

* :func:`sw_score_linear` — scalar reference, linear gap penalty;
* :func:`sw_score_affine` — scalar Gotoh, affine gaps (the richer model for
  users who want BLAST-like penalties);
* :func:`batch_smith_waterman` / :func:`batch_smith_waterman_affine` — the
  production path: a *row-scan* DP vectorized across a batch of pairs at
  once.  Bit-identical to the scalar references;
* :func:`banded_lower_bounds` — batched :func:`sw_score_banded` around a
  per-pair diagonal, the cheap first stage of the homology edge test (a
  lower bound on both full scores; see its docstring).

The host batched kernels advance one *row* at a time (the device aligner,
:mod:`repro.device.alignment`, runs an anti-diagonal wavefront instead):
the sequential left-gap dependency ``H[i,j] = max(..., H[i,j-1] - gap)``
unrolls exactly into a max-plus prefix scan,

    ``H[i,j] = max_{k<=j} (T[i,k] - gap * (j - k))``
             ``= accmax_j (T[i,k] + gap*k) - gap*j``,

where ``T`` collects the non-left candidates (zero, diagonal, up), so each
row is a handful of whole-chunk vector operations including one prefix
max.  This runs ``min(la, lb)`` long contiguous iterations, and the DP
state is held in the narrowest integer dtype the score bounds allow
(int16 where penalties and lengths permit, else int32/int64).
The affine (Gotoh) ``F`` recurrence folds into the same scan with step
``min(gap_open, gap_extend)`` — see :func:`_rowscan_affine`.

All functions take integer-encoded sequences (see
:mod:`repro.sequence.alphabet`).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.sequence.alphabet import ALPHABET_SIZE
from repro.sequence.arena import flatten_sequences
from repro.sequence.scoring import BLOSUM62

#: Internal padding code for batched alignment; scores hugely negative so
#: padded cells can never contribute to a local alignment.
_PAD = ALPHABET_SIZE
_PAD_SCORE = -(1 << 20)

#: int16 DP is used when every intermediate fits these bounds.
_I16_SPAN = 28000
_I16_PAD_SCORE = -30000
_I16_NEG = -30000
_I16_MAX_PENALTY = 512


def sw_score_linear(a: np.ndarray, b: np.ndarray,
                    matrix: np.ndarray = BLOSUM62, gap: int = 8) -> int:
    """Scalar Smith-Waterman score with linear gap penalty ``gap``."""
    if gap < 0:
        raise ValueError("gap penalty must be >= 0")
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0
    prev = [0] * (lb + 1)
    best = 0
    mat = matrix.tolist()
    b_list = b.tolist()
    for i in range(1, la + 1):
        row_scores = mat[a[i - 1]]
        cur = [0] * (lb + 1)
        for j in range(1, lb + 1):
            h = prev[j - 1] + row_scores[b_list[j - 1]]
            up = prev[j] - gap
            left = cur[j - 1] - gap
            v = h if h >= up else up
            if left > v:
                v = left
            if v < 0:
                v = 0
            cur[j] = v
            if v > best:
                best = v
        prev = cur
    return best


def sw_score_affine(a: np.ndarray, b: np.ndarray,
                    matrix: np.ndarray = BLOSUM62,
                    gap_open: int = 11, gap_extend: int = 1) -> int:
    """Scalar Gotoh Smith-Waterman with affine gaps (open+extend model).

    A gap of length L costs ``gap_open + (L - 1) * gap_extend``.
    """
    if gap_open < 0 or gap_extend < 0:
        raise ValueError("gap penalties must be >= 0")
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0
    neg = -(1 << 30)
    h_prev = [0] * (lb + 1)
    e_prev = [neg] * (lb + 1)
    best = 0
    mat = matrix.tolist()
    b_list = b.tolist()
    for i in range(1, la + 1):
        row_scores = mat[a[i - 1]]
        h_cur = [0] * (lb + 1)
        e_cur = [neg] * (lb + 1)
        f = neg
        for j in range(1, lb + 1):
            e_cur[j] = max(e_prev[j] - gap_extend, h_prev[j] - gap_open)
            f = max(f - gap_extend, h_cur[j - 1] - gap_open)
            v = max(0, h_prev[j - 1] + row_scores[b_list[j - 1]], e_cur[j], f)
            h_cur[j] = v
            if v > best:
                best = v
        h_prev, e_prev = h_cur, e_cur
    return best


def sw_score_banded(a: np.ndarray, b: np.ndarray, band: int,
                    matrix: np.ndarray = BLOSUM62, gap: int = 8,
                    diagonal: int = 0) -> int:
    """Banded Smith-Waterman: only cells with ``|i - j - diagonal| <= band``
    computed.

    The standard shortcut for pairs expected to align near one diagonal
    (family members of similar length, or a shared seed at ``a[x]``,
    ``b[y]`` with ``diagonal = x - y``).  Cells outside the band are treated
    as zero, so the score is a lower bound on the full DP and equals it
    whenever the optimal path stays inside the band; widening the band can
    only increase the score.  The scalar reference of
    :func:`banded_lower_bounds`.
    """
    if band < 0:
        raise ValueError("band must be >= 0")
    if gap < 0:
        raise ValueError("gap penalty must be >= 0")
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0
    prev = [0] * (lb + 1)
    best = 0
    mat = matrix.tolist()
    b_list = b.tolist()
    for i in range(1, la + 1):
        row_scores = mat[a[i - 1]]
        cur = [0] * (lb + 1)
        j_lo = max(1, i - diagonal - band)
        j_hi = min(lb, i - diagonal + band)
        for j in range(j_lo, j_hi + 1):
            h = prev[j - 1] + row_scores[b_list[j - 1]]
            v = max(0, h, prev[j] - gap, cur[j - 1] - gap)
            cur[j] = v
            if v > best:
                best = v
        prev = cur
    return best


def sw_align(a: np.ndarray, b: np.ndarray, matrix: np.ndarray = BLOSUM62,
             gap: int = 8) -> tuple[int, list[tuple[int, int]]]:
    """Smith-Waterman with traceback (linear gaps).

    Returns ``(score, path)`` where ``path`` is the list of aligned index
    pairs ``(i, j)`` (0-based, match/mismatch steps only; gap steps are the
    jumps between consecutive pairs).
    """
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0, []
    h = np.zeros((la + 1, lb + 1), dtype=np.int32)
    scores = matrix.astype(np.int32)[np.asarray(a)[:, None], np.asarray(b)[None, :]]
    for i in range(1, la + 1):
        row = h[i]
        prev = h[i - 1]
        for j in range(1, lb + 1):
            row[j] = max(0, prev[j - 1] + scores[i - 1, j - 1],
                         prev[j] - gap, row[j - 1] - gap)
    best_pos = np.unravel_index(np.argmax(h), h.shape)
    score = int(h[best_pos])
    path: list[tuple[int, int]] = []
    i, j = int(best_pos[0]), int(best_pos[1])
    while i > 0 and j > 0 and h[i, j] > 0:
        if h[i, j] == h[i - 1, j - 1] + scores[i - 1, j - 1]:
            path.append((i - 1, j - 1))
            i, j = i - 1, j - 1
        elif h[i, j] == h[i - 1, j] - gap:
            i -= 1
        else:
            j -= 1
    path.reverse()
    return score, path


def self_score(seq: np.ndarray, matrix: np.ndarray = BLOSUM62) -> int:
    """Score of a sequence aligned to itself without gaps (the maximum
    attainable SW score), used to normalize pairwise scores."""
    seq = np.asarray(seq)
    if seq.size == 0:
        return 0
    return int(matrix[seq, seq].sum())


def batch_self_scores(sequences: list[np.ndarray],
                      matrix: np.ndarray = BLOSUM62,
                      block_size: int = 1024) -> np.ndarray:
    """Self-scores of many sequences, vectorized over padded blocks.

    Equal elementwise to calling :func:`self_score` per sequence; sequences
    are padded to the block maximum with a symbol whose diagonal score is
    zero, so padding never contributes.
    """
    n = len(sequences)
    out = np.empty(n, dtype=np.int64)
    diag = np.zeros(ALPHABET_SIZE + 1, dtype=np.int64)
    diag[:ALPHABET_SIZE] = matrix.diagonal().astype(np.int64)
    for lo in range(0, n, block_size):
        chunk = sequences[lo:lo + block_size]
        block = _pad_block([np.asarray(s) for s in chunk])
        out[lo:lo + len(chunk)] = diag[block].sum(axis=1)
    return out


# --------------------------------------------------------------------- #
# Batched row-scan kernels
# --------------------------------------------------------------------- #

def _pad_block(seqs: list[np.ndarray]) -> np.ndarray:
    width = max((s.size for s in seqs), default=0)
    block = np.full((len(seqs), max(width, 1)), _PAD, dtype=np.int64)
    for r, s in enumerate(seqs):
        block[r, :s.size] = s
    return block


def _dp_dtype(max_short: int, max_long: int, matrix: np.ndarray,
              penalties: tuple[int, ...]) -> np.dtype:
    """Narrowest integer dtype whose range covers every DP intermediate.

    The SW score is bounded by ``matrix.max() * min(la, lb)`` (at most one
    match step per residue of the shorter sequence); the prefix scans add at
    most ``penalty * (lb - 1)`` on top.
    """
    smax = max(int(matrix.max()), 0) * max_short
    worst = max(penalties, default=0)
    span = smax + worst * (max_long + 1)
    if span < _I16_SPAN and all(p <= _I16_MAX_PENALTY for p in penalties):
        return np.dtype(np.int16)
    if span < (1 << 30):
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def dp_dtype(max_short: int, max_long: int, matrix: np.ndarray,
             penalties: tuple[int, ...]) -> np.dtype:
    """Public view of the DP dtype rule, shared with the device aligner.

    The device bin planner keys its dtype-homogeneous length bins on this
    exact function so host and device paths escalate int16 -> int32 -> int64
    at identical geometries (a precondition of bit-identity testing).
    """
    return _dp_dtype(max_short, max_long, matrix, penalties)


def orient_pair_lengths(pairs: np.ndarray,
                        lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair (short, long) sequence lengths, vectorized.

    The array sibling of :func:`_swap_short_long` for planners that only
    need geometry: ``pairs`` is ``(n, 2)`` sequence-id rows, ``lengths``
    the per-sequence length table.
    """
    la = lengths[pairs[:, 0]]
    lb = lengths[pairs[:, 1]]
    return np.minimum(la, lb), np.maximum(la, lb)


def _score_matrix(matrix: np.ndarray, dtype: np.dtype) -> np.ndarray:
    pad = _I16_PAD_SCORE if dtype == np.int16 else _PAD_SCORE
    m = np.full((ALPHABET_SIZE + 1, ALPHABET_SIZE + 1), pad, dtype=dtype)
    m[:ALPHABET_SIZE, :ALPHABET_SIZE] = matrix.astype(dtype)
    return m


def _swap_short_long(seqs_a: list[np.ndarray], seqs_b: list[np.ndarray],
                     ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Orient each pair so the first sequence is the shorter one.

    SW scores are symmetric, and the row-scan kernel loops over rows of the
    shorter sequence while vectorizing along the longer, so this minimizes
    Python-level iterations per chunk.
    """
    short = [x if x.size <= y.size else y for x, y in zip(seqs_a, seqs_b)]
    long_ = [y if x.size <= y.size else x for x, y in zip(seqs_a, seqs_b)]
    return short, long_


def _prefix_max_axis0(x: np.ndarray) -> None:
    """In-place running maximum down axis 0, by repeated doubling.

    Equivalent to ``np.maximum.accumulate(x, axis=0, out=x)`` but built
    from whole-array maximums over contiguous slabs — ``log2(rows)`` SIMD
    passes instead of a strided scalar scan.  Reading already-updated rows
    is harmless: max is idempotent and monotone, so early propagation can
    only reach the same fixed point.
    """
    n = x.shape[0]
    k = 1
    while k < n:
        np.maximum(x[k:], x[:-k], out=x[k:])
        k <<= 1


def _gather_blocks(seqs_short: list[np.ndarray],
                   seqs_long: list[np.ndarray], mat: np.ndarray):
    """Chunk tensors for the transposed row scan.

    Returns ``(arow, bt, mat_flat)`` where ``arow[i]`` holds the short
    sequences' row-``i`` symbols pre-scaled to row offsets into the
    flattened score matrix, and ``bt`` is the long block transposed to
    ``(Lb, B)`` so every DP array is contiguous along the scan axis.
    """
    a = _pad_block(seqs_short)          # (B, La) — row loop
    b = _pad_block(seqs_long)           # (B, Lb) — vector width
    arow = np.ascontiguousarray((a * mat.shape[1]).T.astype(np.intp))
    bt = np.ascontiguousarray(b.T.astype(np.intp))
    return arow, bt, mat.ravel()


def _rowscan_linear(seqs_short: list[np.ndarray], seqs_long: list[np.ndarray],
                    matrix: np.ndarray, gap: int) -> np.ndarray:
    """Row-scan linear-gap DP over one padded chunk; per-pair best scores.

    All DP state lives transposed as ``(Lb, B)`` so the left-chain prefix
    max runs down contiguous memory, and substitution scores come from one
    flat ``take`` per row.
    """
    n_pairs = len(seqs_short)
    if n_pairs == 0:
        return np.zeros(0, dtype=np.int64)
    la = max(s.size for s in seqs_short)
    dtype = _dp_dtype(la, max(s.size for s in seqs_long), matrix, (gap,))
    mat = _score_matrix(matrix, dtype)
    arow, bt, mat_flat = _gather_blocks(seqs_short, seqs_long, mat)
    lb = bt.shape[0]
    ramp = (np.arange(lb) * gap).astype(dtype)[:, None]

    h_prev = np.zeros((lb, n_pairs), dtype=dtype)
    hmax = np.zeros((lb, n_pairs), dtype=dtype)
    shifted = np.zeros((lb, n_pairs), dtype=dtype)
    tmp = np.empty((lb, n_pairs), dtype=dtype)
    up = np.empty((lb, n_pairs), dtype=dtype)
    idx = np.empty((lb, n_pairs), dtype=np.intp)
    sub = np.empty((lb, n_pairs), dtype=dtype)
    for i in range(la):
        np.add(bt, arow[i][None, :], out=idx)
        np.take(mat_flat, idx, out=sub)
        shifted[1:] = h_prev[:-1]
        np.add(shifted, sub, out=tmp)                 # diagonal candidate
        np.subtract(h_prev, dtype.type(gap), out=up)  # up candidate
        np.maximum(tmp, up, out=tmp)
        np.maximum(tmp, dtype.type(0), out=tmp)       # T[i, :]
        np.maximum(hmax, tmp, out=hmax)
        # Left-chain scan: H[i,j] = accmax_j(T + gap*j) - gap*j.
        np.add(tmp, ramp, out=tmp)
        _prefix_max_axis0(tmp)
        np.subtract(tmp, ramp, out=h_prev)
    return hmax.max(axis=0).astype(np.int64)


def _rowscan_affine(seqs_short: list[np.ndarray], seqs_long: list[np.ndarray],
                    matrix: np.ndarray, gap_open: int,
                    gap_extend: int) -> np.ndarray:
    """Row-scan Gotoh DP over one padded chunk; per-pair best scores.

    ``E`` (gap in the long sequence) is elementwise per row.  ``F`` (gap in
    the short sequence) unrolls into the same max-plus prefix scan as the
    linear left chain: expanding ``F[j] = max(F[j-1]-e, H[j-1]-o)`` with
    ``H[j-1] = max(T[j-1], F[j-1])`` gives ``F[j] = max(T[j-1]-o,
    F[j-1]-min(e,o))``, hence ``F[j] = max_{k<j} (T[k] - o - min(e,o) *
    (j-1-k))`` exactly, for either ordering of the two penalties.

    Layout matches :func:`_rowscan_linear`: state is ``(Lb, B)`` so the F
    scan runs down contiguous memory.
    """
    n_pairs = len(seqs_short)
    if n_pairs == 0:
        return np.zeros(0, dtype=np.int64)
    la = max(s.size for s in seqs_short)
    step = min(gap_open, gap_extend)
    dtype = _dp_dtype(la, max(s.size for s in seqs_long), matrix,
                      (gap_open, gap_extend))
    mat = _score_matrix(matrix, dtype)
    neg = dtype.type(_I16_NEG if dtype == np.int16 else -(1 << 26))
    arow, bt, mat_flat = _gather_blocks(seqs_short, seqs_long, mat)
    lb = bt.shape[0]
    ramp = (np.arange(lb) * step).astype(dtype)[:, None]

    h_prev = np.zeros((lb, n_pairs), dtype=dtype)
    e_row = np.full((lb, n_pairs), neg, dtype=dtype)
    hmax = np.zeros((lb, n_pairs), dtype=dtype)
    shifted = np.zeros((lb, n_pairs), dtype=dtype)
    tmp = np.empty((lb, n_pairs), dtype=dtype)
    scratch = np.empty((lb, n_pairs), dtype=dtype)
    idx = np.empty((lb, n_pairs), dtype=np.intp)
    sub = np.empty((lb, n_pairs), dtype=dtype)
    for i in range(la):
        np.add(bt, arow[i][None, :], out=idx)
        np.take(mat_flat, idx, out=sub)
        # E[i, :] = max(E[i-1, :] - extend, H[i-1, :] - open)
        np.subtract(e_row, dtype.type(gap_extend), out=e_row)
        np.subtract(h_prev, dtype.type(gap_open), out=scratch)
        np.maximum(e_row, scratch, out=e_row)
        shifted[1:] = h_prev[:-1]
        np.add(shifted, sub, out=tmp)
        np.maximum(tmp, e_row, out=tmp)
        np.maximum(tmp, dtype.type(0), out=tmp)       # T[i, :]
        np.maximum(hmax, tmp, out=hmax)
        # F scan, then H = max(T, F); F[0] never beats T[0] >= 0.
        np.add(tmp, ramp, out=scratch)
        _prefix_max_axis0(scratch)
        np.subtract(scratch, ramp, out=scratch)
        h_prev, tmp = tmp, h_prev
        h_prev[1:] = np.maximum(h_prev[1:],
                                scratch[:-1] - dtype.type(gap_open))
    return hmax.max(axis=0).astype(np.int64)


def _chunk_order(seqs_short: list[np.ndarray],
                 seqs_long: list[np.ndarray]) -> np.ndarray:
    """Length-sorted processing order so chunks pad homogeneously.

    Sorting by (long, short) length keeps both the vector width and the row
    count of each chunk tight around its members.
    """
    return np.lexsort(([s.size for s in seqs_short],
                       [s.size for s in seqs_long]))


def batch_smith_waterman(seqs_a: list[np.ndarray], seqs_b: list[np.ndarray],
                         matrix: np.ndarray = BLOSUM62, gap: int = 8,
                         chunk_size: int = 256) -> np.ndarray:
    """Scores of ``len(seqs_a)`` alignments, vectorized across pairs.

    Pairs are grouped into length-sorted chunks; within a chunk the
    row-scan DP advances with whole-chunk array operations (see the module
    docstring).  Equal elementwise to calling :func:`sw_score_linear` per
    pair.
    """
    if len(seqs_a) != len(seqs_b):
        raise ValueError("seqs_a and seqs_b must have equal length")
    if gap < 0:
        raise ValueError("gap penalty must be >= 0")
    n = len(seqs_a)
    out = np.zeros(n, dtype=np.int64)
    short, long_ = _swap_short_long(
        [np.asarray(a, dtype=np.uint8) for a in seqs_a],
        [np.asarray(b, dtype=np.uint8) for b in seqs_b])
    order = _chunk_order(short, long_)
    for lo in range(0, n, chunk_size):
        idx = order[lo:lo + chunk_size]
        out[idx] = _rowscan_linear([short[i] for i in idx],
                                   [long_[i] for i in idx], matrix, gap)
    return out


def batch_smith_waterman_affine(seqs_a: list[np.ndarray],
                                seqs_b: list[np.ndarray],
                                matrix: np.ndarray = BLOSUM62,
                                gap_open: int = 11, gap_extend: int = 1,
                                chunk_size: int = 256) -> np.ndarray:
    """Affine-gap (Gotoh) scores, vectorized across pairs.

    Bit-identical to :func:`sw_score_affine` per pair; see
    :func:`_rowscan_affine` for how the three DP matrices collapse into one
    elementwise pass plus one prefix scan per row.
    """
    if len(seqs_a) != len(seqs_b):
        raise ValueError("seqs_a and seqs_b must have equal length")
    if gap_open < 0 or gap_extend < 0:
        raise ValueError("gap penalties must be >= 0")
    n = len(seqs_a)
    out = np.zeros(n, dtype=np.int64)
    short, long_ = _swap_short_long(
        [np.asarray(a, dtype=np.uint8) for a in seqs_a],
        [np.asarray(b, dtype=np.uint8) for b in seqs_b])
    order = _chunk_order(short, long_)
    for lo in range(0, n, chunk_size):
        idx = order[lo:lo + chunk_size]
        out[idx] = _rowscan_affine([short[i] for i in idx],
                                   [long_[i] for i in idx],
                                   matrix, gap_open, gap_extend)
    return out


# --------------------------------------------------------------------- #
# Banded lower bound (the seed-and-extend edge test's first stage)
# --------------------------------------------------------------------- #

#: Pairs per band bin.  Measured on the ``pipeline`` input (2-vCPU x86
#: host, half-width 4): 512 pairs cost ~25% more than 1,024-4,096, which
#: are within noise of each other (DESIGN.md section 13).
BAND_MAX_PAIRS = 2048

#: Cap on a band bin's packed block (rows x pairs).  Bins of long
#: sequences hold fewer pairs, so a bin's blocks and their int64 gather
#: index stay near 10 MB whatever the lengths (protein sets carry a few
#: sequences of tens of thousands of residues).
_BAND_BLOCK_CELLS = 1 << 20

#: Sweep steps per bulk substitution gather.  Measured on the ``paper``
#: homology workload (2-vCPU x86 host): 16 steps beat 64 by ~20%, the
#: larger gathers falling out of cache.
_BAND_STEP_CHUNK = 16


def banded_lower_bounds(sequences: list[np.ndarray], pairs: np.ndarray,
                        diagonals: np.ndarray, half_width: int,
                        matrix: np.ndarray = BLOSUM62, gap: int = 8
                        ) -> tuple[np.ndarray, int]:
    """Banded linear-gap Smith-Waterman scores of ``pairs``, batched.

    Row ``p`` is scored over the cells ``(i, j)`` of ``sequences[a]`` x
    ``sequences[b]`` (``a, b = pairs[p]``) with ``|i - j - diagonals[p]|
    <= half_width``; every cell outside the band counts as 0.  Each score
    equals :func:`sw_score_banded` with that band, so it is the score of a
    real local alignment and never exceeds :func:`sw_score_linear` — nor
    :func:`sw_score_affine` when ``gap >= max(gap_open, gap_extend)``,
    since ``L * gap >= gap_open + (L - 1) * gap_extend`` for every gap.

    Pairs are sorted by shorter length and cut into bins of at most
    :data:`BAND_MAX_PAIRS` (fewer for long sequences, bounding a bin's memory);
    each bin runs one anti-diagonal sweep over its ``2 * half_width + 1``
    band diagonals (see :func:`_band_sweep`) in the :func:`dp_dtype` of
    its padded geometry.  Returns ``(scores, cells)``: int64 scores in
    ``pairs`` order and the band cells the sweeps evaluated.
    """
    if half_width < 0:
        raise ValueError("half_width must be >= 0")
    if gap < 0:
        raise ValueError("gap penalty must be >= 0")
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    diagonals = np.asarray(diagonals, dtype=np.int64)
    n = pairs.shape[0]
    out = np.zeros(n, dtype=np.int64)
    if n == 0:
        return out, 0
    # Flat int16 residues with one PAD between (and around) sequences:
    # clipping a position to [-1, len] then reads PAD outside a sequence.
    residues, offsets = flatten_sequences(
        [np.asarray(s, dtype=np.uint8) for s in sequences])
    lengths = np.diff(offsets)
    starts = offsets[:-1] + np.arange(1, lengths.size + 1)
    padded = np.full(residues.size + lengths.size + 1, _PAD, dtype=np.int16)
    padded[np.repeat(starts - offsets[:-1], lengths)
           + np.arange(residues.size)] = residues
    rows_scaled = padded * np.int16(ALPHABET_SIZE + 1)
    # Rows run over the shorter sequence; swapping a pair negates its
    # diagonal.
    swap = lengths[pairs[:, 0]] > lengths[pairs[:, 1]]
    short_ids = np.where(swap, pairs[:, 1], pairs[:, 0])
    long_ids = np.where(swap, pairs[:, 0], pairs[:, 1])
    diag = np.where(swap, -diagonals, diagonals)
    order = np.argsort(lengths[short_ids], kind="stable")
    sorted_short = lengths[short_ids[order]]
    cells = 0
    lo = 0
    while lo < n:
        hi = min(lo + BAND_MAX_PAIRS, n)
        rows = int(sorted_short[hi - 1]) + 2 * half_width
        hi = min(hi, lo + max(1, _BAND_BLOCK_CELLS // max(rows, 1)))
        idx = order[lo:hi]
        lo = hi
        s_ids, l_ids = short_ids[idx], long_ids[idx]
        la = max(int(lengths[s_ids].max()), 1)
        dtype = dp_dtype(la, int(lengths[l_ids].max()), matrix, (gap,))
        # arow[y] is short row i = y + 1 - w (1-based), pre-scaled to a
        # score-matrix row offset; brev[z] is long row j = la - z - (d - w)
        # for the pair's diagonal d, so that lane m of a sweep step reads
        # both blocks at contiguous, pair-independent rows.
        n_rows = la + 2 * half_width
        arow = _gather_rows(rows_scaled, starts, lengths, s_ids,
                            -half_width, 1, n_rows)
        brev = _gather_rows(padded, starts, lengths, l_ids,
                            la - 1 + half_width - diag[idx], -1, n_rows)
        out[idx] = _band_sweep(arow, brev, la, half_width, matrix, gap,
                               dtype)
        cells += idx.size * (la + half_width) * (2 * half_width + 1)
    return out, cells


def _gather_rows(padded: np.ndarray, starts: np.ndarray,
                 lengths: np.ndarray, ids: np.ndarray, first_pos, step: int,
                 n_rows: int) -> np.ndarray:
    """``(n_rows, B)`` block of ``padded`` residues: row ``y`` of column
    ``p`` is sequence ``ids[p]`` at 0-based position ``first_pos[p] + step
    * y``, or an adjacent PAD where that falls outside the sequence."""
    first = starts[ids]
    flat = np.arange(0, step * n_rows, step)[:, None] + (first + first_pos)
    # In-place max / min: np.clip with array bounds costs twice as much.
    np.maximum(flat, first - 1, out=flat)
    np.minimum(flat, first + lengths[ids], out=flat)
    return padded[flat]


def _band_sweep(arow: np.ndarray, brev: np.ndarray, la: int, w: int,
                matrix: np.ndarray, gap: int, dtype: np.dtype) -> np.ndarray:
    """Anti-diagonal sweep of one packed band bin; per-pair best scores.

    With ``r = i - j - (diagonal - w)`` in ``[0, 2w]`` the band's lane and
    ``t = i + j + diagonal - w`` its step, cell ``(i, j)`` reads its
    diagonal neighbour at ``(t - 2, r)`` and its up / left neighbours at
    ``(t - 1, r -+ 1)``.  Step ``t`` holds only lanes with ``r = t`` (mod
    2): the even step ``t = 2s`` evaluates lanes ``0, 2, .., 2w`` and the
    odd step ``t = 2s + 1`` lanes ``1, 3, .., 2w - 1``, each a few
    contiguous slice ops with no scan.  Substitution scores are gathered
    for :data:`_BAND_STEP_CHUNK` steps at a time with one bulk ``take``
    per parity straight into the state slabs, which the steps then update
    in place.  The odd slabs carry zero sentinel lanes ``-1`` and ``2w +
    1`` (out of band) that no step writes.  Cells outside the DP rectangle
    read PAD: before it they stay 0, past it they sit at least ``gap``
    below a real cell and feed no real cell.
    """
    n_pairs = arow.shape[1]
    mat_flat = _score_matrix(matrix, dtype).ravel()
    # Gap and zero slabs: a ufunc with a broadcast scalar operand skips
    # NumPy's SIMD loop (see the wavefront kernels).
    g = np.full((w + 1, n_pairs), gap, dtype=dtype)
    zeros = np.zeros((w + 1, n_pairs), dtype=dtype)
    # Step k = s - 1 + w, lane m: a_win[k, m] = arow[k + m] (row i = s + m)
    # and b_win[k, m] = brev[la + w - 1 - k + m] (long row j, same cell).
    a_win = sliding_window_view(arow, w + 1, axis=0).transpose(0, 2, 1)
    b_win = sliding_window_view(brev, w + 1, axis=0).transpose(0, 2, 1)[::-1]
    n_steps = la + w
    chunk = min(_BAND_STEP_CHUNK, n_steps)
    # Slot 0 of each slab carries the previous chunk's last step.
    even = np.zeros((chunk + 1, w + 1, n_pairs), dtype=dtype)
    odd = np.zeros((chunk + 1, w + 2, n_pairs), dtype=dtype)
    # intp indices: ``take`` then skips a per-element index conversion.
    idx = np.empty((chunk, w + 1, n_pairs), dtype=np.intp)
    best_even = np.zeros((w + 1, n_pairs), dtype=dtype)
    best_odd = np.zeros((w + 2, n_pairs), dtype=dtype)
    near = np.empty((w + 1, n_pairs), dtype=dtype)
    for k0 in range(0, n_steps, chunk):
        n = min(chunk, n_steps - k0)
        np.add(a_win[k0:k0 + n], b_win[k0:k0 + n], out=idx[:n])
        np.take(mat_flat, idx[:n], out=even[1:n + 1], mode="clip")
        np.add(a_win[k0:k0 + n, 1:], b_win[k0:k0 + n, :w],
               out=idx[:n, :w])
        np.take(mat_flat, idx[:n, :w], out=odd[1:n + 1, 1:w + 1],
                mode="clip")
        for k in range(1, n + 1):
            cur = even[k]
            np.add(cur, even[k - 1], out=cur)                   # diagonal
            np.maximum(odd[k - 1, :-1], odd[k - 1, 1:], out=near)  # up, left
            np.subtract(near, g, out=near)
            np.maximum(cur, near, out=cur)
            np.maximum(cur, zeros, out=cur)
            if w:
                cur = odd[k, 1:w + 1]
                np.add(cur, odd[k - 1, 1:w + 1], out=cur)
                np.maximum(even[k, :-1], even[k, 1:], out=near[:w])
                np.subtract(near[:w], g[:w], out=near[:w])
                np.maximum(cur, near[:w], out=cur)
                np.maximum(cur, zeros[:w], out=cur)
        np.maximum(best_even, even[1:n + 1].max(axis=0), out=best_even)
        np.maximum(best_odd, odd[1:n + 1].max(axis=0), out=best_odd)
        even[0] = even[n]
        odd[0] = odd[n]
    best = np.maximum(best_even.max(axis=0), best_odd.max(axis=0))
    return best.astype(np.int64)
