"""Generalized suffix array: pGraph's maximal-exact-match pair filter.

pGraph identifies "promising pairs of sequences based on a maximal-matching
heuristic (suffix trees are used in our implementation to identify such
pairs [14])".  The modern equivalent of the suffix tree for this job is the
generalized suffix array + LCP array over the concatenated sequence set:
two sequences share an exact match of length >= L iff suffixes of theirs
appear within an LCP-``>= L`` run of the suffix array.

This module builds the arrays (prefix-doubling construction, O(n log^2 n)
with whole-array NumPy ops) and derives candidate pairs from LCP runs — an
alternative to the k-mer seed filter in :mod:`repro.sequence.kmer_filter`,
selectable through :class:`repro.sequence.homology.HomologyConfig`.
"""

from __future__ import annotations

import numpy as np

from repro.sequence.alphabet import ALPHABET_SIZE
from repro.sequence.pairs import (dedupe_count_pairs, expand_group_pairs,
                                  no_pairs)


def build_suffix_array(text: np.ndarray) -> np.ndarray:
    """Suffix array of an integer sequence via prefix doubling.

    Parameters
    ----------
    text:
        1-D array of nonnegative integer symbols.

    Returns
    -------
    np.ndarray
        ``sa`` such that ``text[sa[0]:] < text[sa[1]:] < ...``
        (shorter-prefix-first for ties, i.e. the suffix that runs out of
        symbols sorts first, as with a unique sentinel).
    """
    text = np.asarray(text, dtype=np.int64)
    n = text.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    rank = np.asarray(np.unique(text, return_inverse=True)[1], dtype=np.int64)
    sa = np.argsort(rank, kind="stable")
    k = 1
    while k < n:
        # Sort by (rank[i], rank[i+k]) with -1 past the end.
        second = np.full(n, -1, dtype=np.int64)
        second[: n - k] = rank[k:]
        order = np.lexsort((second, rank))
        sa = order
        # Recompute ranks: same pair -> same rank.
        pair_first = rank[sa]
        pair_second = second[sa]
        changed = np.ones(n, dtype=np.int64)
        changed[1:] = ((pair_first[1:] != pair_first[:-1])
                       | (pair_second[1:] != pair_second[:-1])).astype(np.int64)
        new_rank_sorted = np.cumsum(changed) - 1
        rank = np.empty(n, dtype=np.int64)
        rank[sa] = new_rank_sorted
        if int(new_rank_sorted[-1]) == n - 1:
            break
        k *= 2
    return sa


def build_lcp_array(text: np.ndarray, sa: np.ndarray) -> np.ndarray:
    """LCP array via Kasai's algorithm: ``lcp[i] = LCP(sa[i-1], sa[i])``.

    ``lcp[0] == 0`` by convention.
    """
    text = np.asarray(text, dtype=np.int64)
    n = text.size
    lcp = np.zeros(n, dtype=np.int64)
    if n == 0:
        return lcp
    rank = np.empty(n, dtype=np.int64)
    rank[sa] = np.arange(n)
    text_l = text.tolist()
    sa_l = sa.tolist()
    rank_l = rank.tolist()
    h = 0
    for i in range(n):
        r = rank_l[i]
        if r > 0:
            j = sa_l[r - 1]
            while i + h < n and j + h < n and text_l[i + h] == text_l[j + h]:
                h += 1
            lcp[r] = h
            if h > 0:
                h -= 1
        else:
            h = 0
    return lcp


class GeneralizedSuffixArray:
    """Suffix array over a concatenated sequence set with unique separators.

    Each sequence is followed by a distinct separator symbol (above the
    alphabet range), so no match can run across sequence boundaries.
    """

    def __init__(self, sequences: list[np.ndarray]) -> None:
        self.n_sequences = len(sequences)
        parts = []
        owners = []
        offsets = []
        cursor = 0
        for i, seq in enumerate(sequences):
            seq = np.asarray(seq, dtype=np.int64)
            if seq.size and (seq.min() < 0 or seq.max() >= ALPHABET_SIZE):
                raise ValueError("sequence symbols must be alphabet codes")
            parts.append(seq)
            parts.append(np.array([ALPHABET_SIZE + i], dtype=np.int64))
            owners.append(np.full(seq.size + 1, i, dtype=np.int64))
            offsets.append(cursor)
            cursor += seq.size + 1
        self.text = (np.concatenate(parts) if parts
                     else np.empty(0, dtype=np.int64))
        self.owner = (np.concatenate(owners) if owners
                      else np.empty(0, dtype=np.int64))
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.sa = build_suffix_array(self.text)
        self.lcp = build_lcp_array(self.text, self.sa)

    def candidate_pairs(self, min_match_len: int, max_run: int = 200,
                        return_diagonals: bool = False):
        """Sequence pairs sharing an exact match of ``>= min_match_len``.

        Finds maximal LCP-``>= min_match_len`` runs of the suffix array and
        pairs the distinct owner sequences within each run.  Runs with more
        than ``max_run`` distinct owners are skipped (low-complexity
        filter, the suffix-array analogue of the k-mer occurrence cap).

        Fully vectorized: runs come from one boolean diff, per-run distinct
        owners from one lexsort, and the triangle expansion plus the final
        cross-run dedup are shared with the k-mer filter
        (:mod:`repro.sequence.pairs`).

        Returns ``(m, 2)`` sorted unique index pairs with ``i < j``; with
        ``return_diagonals`` a tuple ``(pairs, diagonals)`` whose second
        element is each pair's lower-median seed diagonal ``pos_i -
        pos_j`` over the runs it shares, a sequence's seed in a run being
        its lowest-ranked suffix there (``sa[rank] - offsets[owner]``).
        """
        if min_match_len < 1:
            raise ValueError("min_match_len must be >= 1")
        owner_by_rank = self.owner[self.sa]
        qualifying = self.lcp >= min_match_len
        hits = np.flatnonzero(qualifying)
        if hits.size == 0:
            return no_pairs(return_diagonals)
        # Runs of consecutive qualifying LCP entries at ranks
        # [s .. e] cover the suffixes sa[s-1 .. e] (lcp[i] relates rank i-1
        # to rank i, so the run of suffixes starts one rank earlier).
        breaks = np.flatnonzero(np.diff(hits) > 1)
        run_lo = hits[np.r_[0, breaks + 1]] - 1
        run_hi = hits[np.r_[breaks, hits.size - 1]]
        run_sizes = run_hi - run_lo + 1

        # Gather each run's owners and deduplicate per run with one sort.
        n_elems = int(run_sizes.sum())
        run_of_elem = np.repeat(np.arange(run_sizes.size, dtype=np.int64),
                                run_sizes)
        elem_start = np.repeat(np.cumsum(run_sizes) - run_sizes, run_sizes)
        rank = (np.arange(n_elems, dtype=np.int64) - elem_start
                + np.repeat(run_lo, run_sizes))
        owners = owner_by_rank[rank]
        order = np.lexsort((owners, run_of_elem))
        owners = owners[order]
        runs = run_of_elem[order]
        distinct = np.empty(n_elems, dtype=bool)
        distinct[:1] = True
        distinct[1:] = (runs[1:] != runs[:-1]) | (owners[1:] != owners[:-1])
        first_rank = rank[order[distinct]]
        owners = owners[distinct]
        runs = runs[distinct]

        starts = np.flatnonzero(np.r_[True, runs[1:] != runs[:-1]])
        sizes = np.diff(np.append(starts, runs.size))
        keep = (sizes >= 2) & (sizes <= max_run)
        positions = (self.sa[first_rank] - self.offsets[owners]
                     if return_diagonals else None)
        found = expand_group_pairs(owners, starts[keep], sizes[keep],
                                   positions)
        raw, diagonals = found if return_diagonals else (found, None)
        return dedupe_count_pairs(raw, self.n_sequences, diagonals=diagonals)


def candidate_pairs_suffix(sequences: list[np.ndarray],
                           min_match_len: int = 8, max_run: int = 200,
                           return_diagonals: bool = False):
    """Convenience wrapper: maximal-match candidate pairs via suffix array
    (see :meth:`GeneralizedSuffixArray.candidate_pairs`)."""
    gsa = GeneralizedSuffixArray(sequences)
    return gsa.candidate_pairs(min_match_len, max_run=max_run,
                               return_diagonals=return_diagonals)
