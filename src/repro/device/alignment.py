"""Device-offloaded batched Smith-Waterman.

pGraph keeps "the optimality-guaranteeing Smith-Waterman alignment
algorithm" on the CPU side and parallelizes it across processors; this
module moves the same batched DP onto the simulated device, the way the
shingling hot loop already runs there.  The structure mirrors the
shingling offload end to end:

* the sequence set is uploaded **once** as a flat CSR residue buffer
  (:func:`repro.sequence.arena.flatten_sequences`) — the exact wire layout
  the process-pool arena uses, so host and device paths share one
  representation;
* candidate pairs are grouped into dtype- and length-homogeneous bins
  (:func:`repro.device.batching.plan_alignment_bins`) so the padded DP
  rectangle wastes a bounded fraction of cells (``padding_waste``);
* each bin runs *pack* (a CSR gather into padded transposed blocks) then
  one *wavefront* kernel whose state lives in the device
  :class:`~repro.device.memory.ScratchPool` — zero fresh allocations in
  the steady state — with every launch costed through the
  :class:`~repro.device.timingmodels.KernelCostModel` and every transfer
  through the PCIe model;
* bins are scheduled by an :class:`~repro.core.execplan.ExecutionPlan`:
  ``sync`` (one bin at a time), ``prefetch`` (pack bin *i+1* on a copy
  thread while bin *i* scores, via
  :func:`~repro.core.execplan.double_buffer`) or ``multistream``
  (concurrent bins on disjoint output slices).  When the bins carry enough
  work to repay a process start-up, a single device instead fans them out
  across forked workers, one per usable core (:data:`FANOUT_MIN_CELLS`);
  the parent keeps all device accounting.  All schedules are
  bit-identical.

The kernels advance one **anti-diagonal** at a time.  Cell ``(i, j)`` on
diagonal ``d = i + j`` reads only diagonals ``d - 1`` (up, left) and
``d - 2`` (diagonal), so every step is a handful of contiguous slice
operations over the ``(diagonal cells, pairs)`` block — substitution
gather, diagonal add, max of up/left minus the gap, clamp at zero, running
max — with no sequential dependency inside a step and no prefix scan.  The
state is indexed by the short sequence's row ``i`` and kept in three
rotating diagonal buffers (plus two each for the Gotoh ``E``/``F``
matrices); boundary cells are never written, so they keep their initial
zero (``H``) or negative floor (``E``/``F``).  Scores are bit-identical to
:func:`~repro.sequence.smith_waterman.batch_smith_waterman` /
:func:`~repro.sequence.smith_waterman.batch_smith_waterman_affine`: the
recurrences are the textbook ones, evaluated in a different order, and the
bin planner keys its dtype cuts on the shared
:func:`~repro.sequence.smith_waterman.dp_dtype` rule.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.execplan import (
    EXEC_MULTISTREAM,
    EXEC_PREFETCH,
    ExecutionPlan,
    double_buffer,
)
from repro.device.batching import AlignmentBin, AlignmentBinPlan, plan_alignment_bins
from repro.device.device import SimulatedDevice
from repro.device.group import DeviceGroup, least_loaded_assignment
from repro.device.memory import ScratchPool
from repro.sequence.alphabet import ALPHABET_SIZE
from repro.sequence.arena import flatten_sequences
from repro.sequence.scoring import BLOSUM62
# The pad/negative-floor constants and the padded score matrix are shared
# with the host kernels on purpose: bit-identity across backends depends on
# both paths saturating at the same values.
from repro.sequence.smith_waterman import (
    _I16_NEG,
    _score_matrix,
    dp_dtype,
    orient_pair_lengths,
)
from repro.util.timer import BUCKET_GPU

_PAD = ALPHABET_SIZE
_MAT_DIM = ALPHABET_SIZE + 1

#: Fan bins out across forked workers only when their padded DP cells
#: exceed this: ~0.25 s of in-process kernel time at the int16 wavefront's
#: ~4e8 cells/s (2-core x86 host), over ten times the ~20 ms start-up of a
#: 2-worker fork pool.
FANOUT_MIN_CELLS = 100_000_000


def _usable_cores() -> int:
    """Cores this process may run on (its affinity mask, not the host's)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity API (macOS)
        return os.cpu_count() or 1


def _neg_floor(dtype: np.dtype):
    return dtype.type(_I16_NEG if dtype == np.int16 else -(1 << 26))


def pack_bin_blocks(residues: np.ndarray, offsets: np.ndarray,
                    short_ids: np.ndarray, long_ids: np.ndarray,
                    max_short: int, max_long: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Gather one bin's pairs from flat CSR into padded transposed blocks.

    Returns ``(arow, bt)``: ``arow`` is ``(max_short, B)`` holding the
    short sequences' symbols pre-scaled to score-matrix row offsets, ``bt``
    the long block transposed to ``(max_long, B)``.  ``residues`` must be
    the int16-widened device buffer (see :meth:`DeviceAligner.
    upload_sequences`): a cell's substitution score is then one
    ``bt + arow`` add plus one flat ``take`` — the composite index never
    exceeds ``22 * 22``, so the whole gather stays in int16 lanes.  Pure
    array ops (one strided gather per block), no per-pair Python loop.
    """
    arow = _gather_padded(residues, offsets, short_ids, max(max_short, 1))
    arow *= np.int16(_MAT_DIM)
    bt = _gather_padded(residues, offsets, long_ids, max(max_long, 1))
    return arow, bt


def _gather_padded(residues: np.ndarray, offsets: np.ndarray,
                   ids: np.ndarray, width: int) -> np.ndarray:
    """``(width, B)`` int16 column-per-sequence block, PAD-filled."""
    starts = offsets[ids]
    lens = offsets[ids + 1] - starts
    col = np.arange(width, dtype=np.int64)[:, None]
    mask = col < lens[None, :]
    idx = starts[None, :] + np.where(mask, col, 0)
    block = np.empty(idx.shape, dtype=residues.dtype)
    if residues.size:
        # mode="clip" skips the bounds check; masked-out lanes are
        # overwritten below, so their clipped reads are immaterial.
        np.take(residues, idx, out=block, mode="clip")
    block[~mask] = _PAD
    return block


def _diagonals(la: int, lb: int):
    """``(lo, hi, b_lo)`` per anti-diagonal ``d = i + j`` of an
    ``la x lb`` DP (1-based cells): rows ``lo <= i < hi`` are on it, and
    their long-sequence symbols are rows ``b_lo ..`` of the reversed
    long block."""
    for d in range(2, la + lb + 1):
        lo = max(1, d - lb)
        yield lo, min(la, d - 1) + 1, lb - d + lo


def _substitution(arow, brev, lo, hi, b_lo, mat_flat, idx, sub):
    """Substitution scores of diagonal cells ``lo <= i < hi`` into
    ``sub[:hi - lo]``: one int16 index add plus one flat ``take``."""
    w = hi - lo
    np.add(arow[lo - 1:hi - 1], brev[b_lo:b_lo + w], out=idx[:w])
    np.take(mat_flat, idx[:w], out=sub[:w], mode="clip")
    return sub[:w]


def wavefront_linear_binned(arow: np.ndarray, bt: np.ndarray,
                            matrix: np.ndarray, gap: int, dtype: np.dtype,
                            pool: ScratchPool) -> np.ndarray:
    """Anti-diagonal linear-gap Smith-Waterman over one packed bin.

    ``H_d[i] = max(0, H_{d-2}[i-1] + s(i, d-i), max(H_{d-1}[i-1],
    H_{d-1}[i]) - gap)``: three rotating ``(la + 1, B)`` diagonal buffers,
    each step a run of contiguous slice ops.  Cells past a lane's true
    lengths score PAD (hugely negative), so they can never exceed the
    lane's best real cell.  Bit-identical to
    :func:`repro.sequence.smith_waterman.sw_score_linear` per pair.
    """
    la, n_pairs = arow.shape
    lb = bt.shape[0]
    mat_flat = _score_matrix(matrix, dtype).ravel()
    g = dtype.type(gap)
    h0 = pool.take((la + 1, n_pairs), dtype)     # diagonal d (being built)
    h1 = pool.take((la + 1, n_pairs), dtype)     # d - 1
    h2 = pool.take((la + 1, n_pairs), dtype)     # d - 2
    hmax = pool.take((la + 1, n_pairs), dtype)
    zeros = pool.take((la, n_pairs), dtype)
    brev = pool.take((lb, n_pairs), np.int16)
    idx = pool.take((la, n_pairs), np.int16)
    sub = pool.take((la, n_pairs), dtype)
    for buf in (h0, h1, h2, hmax, zeros):
        buf.fill(0)
    np.copyto(brev, bt[::-1])
    for lo, hi, b_lo in _diagonals(la, lb):
        s = _substitution(arow, brev, lo, hi, b_lo, mat_flat, idx, sub)
        cur = h0[lo:hi]
        np.add(h2[lo - 1:hi - 1], s, out=cur)                # diagonal
        np.maximum(h1[lo - 1:hi - 1], h1[lo:hi], out=s)      # up, left
        np.subtract(s, g, out=s)
        np.maximum(cur, s, out=cur)
        # Clamp against a zero slab: NumPy's max with a broadcast scalar
        # skips the SIMD loop and costs ~6x an array-array max.
        np.maximum(cur, zeros[:hi - lo], out=cur)
        np.maximum(hmax[lo:hi], cur, out=hmax[lo:hi])
        h0, h1, h2 = h2, h0, h1
    scores = hmax.max(axis=0).astype(np.int64)
    pool.give(h0, h1, h2, hmax, zeros, brev, idx, sub)
    return scores


def wavefront_affine_binned(arow: np.ndarray, bt: np.ndarray,
                            matrix: np.ndarray, gap_open: int,
                            gap_extend: int, dtype: np.dtype,
                            pool: ScratchPool) -> np.ndarray:
    """Anti-diagonal Gotoh Smith-Waterman over one packed bin.

    ``E`` (gap ending in the long sequence) comes from the up cell,
    ``F`` from the left cell, both on diagonal ``d - 1``:
    ``E_d[i] = max(E_{d-1}[i-1] - extend, H_{d-1}[i-1] - open)``,
    ``F_d[i] = max(F_{d-1}[i] - extend, H_{d-1}[i] - open)`` and
    ``H_d[i] = max(0, H_{d-2}[i-1] + s, E_d[i], F_d[i])``.  The shared
    ``H_{d-1} - open`` slab is computed once per step.  Bit-identical to
    :func:`repro.sequence.smith_waterman.sw_score_affine` per pair.
    """
    la, n_pairs = arow.shape
    lb = bt.shape[0]
    mat_flat = _score_matrix(matrix, dtype).ravel()
    o = dtype.type(gap_open)
    e = dtype.type(gap_extend)
    shape = (la + 1, n_pairs)
    h0, h1, h2, hmax, opened = (pool.take(shape, dtype) for _ in range(5))
    e0, e1, f0, f1 = (pool.take(shape, dtype) for _ in range(4))
    zeros = pool.take((la, n_pairs), dtype)
    brev = pool.take((lb, n_pairs), np.int16)
    idx = pool.take((la, n_pairs), np.int16)
    sub = pool.take((la, n_pairs), dtype)
    for buf in (h0, h1, h2, hmax, zeros):
        buf.fill(0)
    for buf in (e0, e1, f0, f1):
        buf.fill(_neg_floor(dtype))
    np.copyto(brev, bt[::-1])
    for lo, hi, b_lo in _diagonals(la, lb):
        s = _substitution(arow, brev, lo, hi, b_lo, mat_flat, idx, sub)
        cur = h0[lo:hi]
        np.add(h2[lo - 1:hi - 1], s, out=cur)                # diagonal
        op = opened[lo - 1:hi]
        np.subtract(h1[lo - 1:hi], o, out=op)
        ec = e0[lo:hi]
        np.subtract(e1[lo - 1:hi - 1], e, out=ec)
        np.maximum(ec, op[:-1], out=ec)                      # E (up)
        fc = f0[lo:hi]
        np.subtract(f1[lo:hi], e, out=fc)
        np.maximum(fc, op[1:], out=fc)                       # F (left)
        np.maximum(cur, ec, out=cur)
        np.maximum(cur, fc, out=cur)
        np.maximum(cur, zeros[:hi - lo], out=cur)
        np.maximum(hmax[lo:hi], cur, out=hmax[lo:hi])
        h0, h1, h2 = h2, h0, h1
        e0, e1 = e1, e0
        f0, f1 = f1, f0
    scores = hmax.max(axis=0).astype(np.int64)
    pool.give(h0, h1, h2, hmax, opened, e0, e1, f0, f1, zeros, brev, idx,
              sub)
    return scores


class DeviceAligner:
    """Batched Smith-Waterman scoring on a :class:`SimulatedDevice`.

    Usage mirrors the shingling driver: :meth:`upload_sequences` moves the
    flat residue buffer across the link once, then :meth:`batch_scores`
    bins, packs and scores any number of pair sets against it.  Every
    launch/transfer is accounted on the device (wall + modeled buckets,
    kernel counters, tracer spans), and ``device.obs.metrics`` accumulates
    the alignment-specific series (``device.align.*``) the benchmarks and
    the Chrome trace read.
    """

    def __init__(self, device: SimulatedDevice | DeviceGroup | None = None, *,
                 matrix: np.ndarray = BLOSUM62,
                 plan: ExecutionPlan | None = None,
                 max_pairs_per_bin: int = 384,
                 max_waste: float = 0.25,
                 min_pairs_per_bin: int = 32) -> None:
        # A DeviceGroup distributes bins across its members (bins write
        # disjoint output slices, so they are already independent units of
        # work); ``self.device`` stays a plain SimulatedDevice — member 0 —
        # so single-device callers see the historical surface.
        if isinstance(device, DeviceGroup):
            self.group: DeviceGroup | None = device
            self.device = device.members[0]
        else:
            self.group = None
            self.device = device if device is not None else SimulatedDevice()
        self.matrix = matrix
        self.plan = plan if plan is not None else ExecutionPlan()
        self.max_pairs_per_bin = max_pairs_per_bin
        self.max_waste = max_waste
        self.min_pairs_per_bin = min_pairs_per_bin
        # Per-member device buffers (one entry per group member; a single
        # device is the one-member degenerate case).
        self._d_residues: list = []
        self._d_offsets: list = []
        self._d_residues16: list = []
        self._lengths: np.ndarray | None = None
        #: Bin plan of the most recent :meth:`batch_scores` call.
        self.last_plan: AlignmentBinPlan | None = None

    @property
    def _members(self) -> list[SimulatedDevice]:
        return self.group.members if self.group is not None else [self.device]

    # ------------------------------------------------------------------ #
    # Sequence residency
    # ------------------------------------------------------------------ #

    def upload_sequences(self, sequences: list[np.ndarray]) -> None:
        """Upload the sequence set as flat CSR (h2d-accounted), replacing
        any previously resident set.

        With a group the flat buffers cross the PCIe link once and fan out
        peer-to-peer (:meth:`DeviceGroup.broadcast`); every member then
        widens its own copy.  The uint8 wire buffer is widened on-device to
        int16 (one transform launch per member) so every subsequent bin
        pack gathers directly into the int16 index lanes the kernels
        consume.
        """
        residues, offsets = flatten_sequences(
            [np.asarray(s, dtype=np.uint8) for s in sequences])
        self.release()
        self._lengths = np.diff(offsets)
        if self.group is not None and self.group.n_devices > 1:
            self._d_residues = self.group.broadcast(residues)
            self._d_offsets = self.group.broadcast(offsets)
        else:
            self._d_residues = [self.device.upload(residues)]
            self._d_offsets = [self.device.upload(offsets)]
        for member, d_res in zip(self._members, self._d_residues):
            t0 = time.perf_counter()
            wide = d_res.device_view().astype(np.int16)
            self._d_residues16.append(member.memory.adopt(wide))
            t1 = time.perf_counter()
            member.breakdown.add(BUCKET_GPU, t1 - t0)
            modeled = member.spec.kernels.seconds_for("transform", wide.size)
            member._record_kernel("sw_widen", wide.size, modeled)
            member.breakdown.add_modeled(BUCKET_GPU, modeled)

    def release(self) -> None:
        """Free the device-resident sequence buffers."""
        for buf in self._d_residues + self._d_offsets + self._d_residues16:
            buf.free()
        self._d_residues = []
        self._d_offsets = []
        self._d_residues16 = []
        self._lengths = None

    def __enter__(self) -> "DeviceAligner":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #

    def batch_scores(self, pairs: np.ndarray, *, gap_model: str = "linear",
                     gap: int = 8, gap_open: int = 11,
                     gap_extend: int = 1) -> np.ndarray:
        """Smith-Waterman scores of ``pairs`` rows against the resident set.

        ``pairs`` is ``(n, 2)`` sequence ids.  Returns ``(n,)`` int64
        scores, bit-identical to the host batched kernels under the same
        gap model.  Bins run under :attr:`plan`'s schedule on one device,
        or fan out across forked workers when they carry enough work (see
        :meth:`_fanout_workers`); on a group they are statically assigned
        to the member with the least accumulated padded-cell load and
        scored by one driver thread per device — bins write disjoint
        ``out`` slices, so distribution cannot reorder anything observable.
        """
        if not self._d_residues:
            raise RuntimeError("no sequences resident; call upload_sequences")
        if gap_model not in ("linear", "affine"):
            raise ValueError(f"unknown gap_model {gap_model!r}")
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        n = pairs.shape[0]
        out = np.zeros(n, dtype=np.int64)
        if n == 0:
            self.last_plan = AlignmentBinPlan(
                bins=[], order=np.empty(0, dtype=np.int64))
            return out

        penalties = (gap,) if gap_model == "linear" else (gap_open, gap_extend)
        lengths = self._lengths
        short_lens, long_lens = orient_pair_lengths(pairs, lengths)
        swap = lengths[pairs[:, 0]] > lengths[pairs[:, 1]]
        short_ids = np.where(swap, pairs[:, 1], pairs[:, 0])
        long_ids = np.where(swap, pairs[:, 0], pairs[:, 1])
        plan = plan_alignment_bins(
            short_lens, long_lens,
            lambda s, l: dp_dtype(s, l, self.matrix, penalties),
            max_pairs=self.max_pairs_per_bin, max_waste=self.max_waste,
            min_pairs=self.min_pairs_per_bin)
        self.last_plan = plan

        members = self._members
        multi = len(members) > 1

        # The pair table rides to the device like any other kernel input
        # (peer-fanned on a group: every member scores against it).
        d_pairs = (self.group.broadcast(pairs) if multi
                   else [self.device.upload(pairs)])

        def kernel(bin_: AlignmentBin, arow, bt, pool: ScratchPool):
            if gap_model == "affine":
                return wavefront_affine_binned(arow, bt, self.matrix,
                                               gap_open, gap_extend,
                                               bin_.dtype, pool)
            return wavefront_linear_binned(arow, bt, self.matrix, gap,
                                           bin_.dtype, pool)

        def gather(bin_: AlignmentBin, dev: int = 0):
            return self._gather_bin(bin_, plan.order, short_ids, long_ids,
                                    dev)

        def pack(bin_: AlignmentBin, dev: int = 0):
            t0 = time.perf_counter()
            packed = gather(bin_, dev)
            self._account_pack(bin_, time.perf_counter() - t0, dev)
            return packed

        def score(bin_: AlignmentBin, packed, dev: int = 0) -> None:
            device = members[dev]
            arow, bt = packed
            d_work = device.memory.adopt(bt)  # bin working set, on device
            t0 = time.perf_counter()
            scores = kernel(bin_, arow, bt, device.scratch)
            self._land_bin(bin_, d_work, scores, t0, time.perf_counter(),
                           plan, out, dev)

        try:
            if multi:
                owners = least_loaded_assignment(
                    [bin_.padded_cells for bin_ in plan.bins], len(members))
                per_dev: list[list[AlignmentBin]] = [[] for _ in members]
                for bin_, owner in zip(plan.bins, owners):
                    per_dev[owner].append(bin_)
                errors: list[BaseException] = []

                def runner(dev: int) -> None:
                    try:
                        for bin_ in per_dev[dev]:
                            score(bin_, pack(bin_, dev), dev)
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)

                threads = [threading.Thread(target=runner, args=(i,),
                                            name=f"dev{i}")
                           for i in range(len(members)) if per_dev[i]]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                if errors:
                    raise errors[0]
            elif (n_workers := self._fanout_workers(plan)) > 1:
                self._fan_out(plan, gather, kernel, out, n_workers)
            elif self.plan.mode == EXEC_PREFETCH and plan.n_bins > 1:
                for bin_, packed in double_buffer(plan.bins, pack):
                    score(bin_, packed)
            elif self.plan.mode == EXEC_MULTISTREAM and plan.n_bins > 1:
                # Bins write disjoint slices of ``out``; concurrent
                # execution cannot reorder anything observable.
                def run(bin_: AlignmentBin) -> None:
                    score(bin_, pack(bin_))

                with ThreadPoolExecutor(
                        max_workers=self.plan.streams) as streams:
                    futures = [streams.submit(run, bin_)
                               for bin_ in plan.bins]
                    for f in futures:
                        f.result()
            else:
                for bin_ in plan.bins:
                    score(bin_, pack(bin_))
        finally:
            for buf in d_pairs:
                buf.free()

        self._record_plan_metrics(plan)
        return out

    # ------------------------------------------------------------------ #
    # Process fan-out (single device)
    # ------------------------------------------------------------------ #

    def _fanout_workers(self, plan: AlignmentBinPlan) -> int:
        """Forked workers to score ``plan`` with; ``1`` means in-process.

        Threads cannot scale this loop — its ~10 µs NumPy calls hand the
        GIL back and forth — so a single device fans its bins out across
        processes, one per usable core.  That pays a process start-up, so
        it needs at least two bins, a second core, more than
        :data:`FANOUT_MIN_CELLS` padded DP cells, and the ``fork`` start
        method (workers inherit the resident residue buffer copy-on-write).
        Forking a process that runs other threads can deadlock the child
        on a lock one of them held, so a multi-threaded caller stays
        in-process.
        """
        cores = _usable_cores()
        if (plan.n_bins < 2 or cores < 2
                or plan.padded_cells <= FANOUT_MIN_CELLS
                or threading.active_count() > 1):
            return 1
        import multiprocessing      # deferred: small runs never load it

        if "fork" not in multiprocessing.get_all_start_methods():
            return 1
        return min(cores, plan.n_bins)

    def _fan_out(self, plan: AlignmentBinPlan, gather, kernel,
                 out: np.ndarray, n_workers: int) -> None:
        """Score ``plan``'s bins in ``n_workers`` forked processes.

        Bins go to workers by :func:`least_loaded_assignment` on padded
        cells.  Each worker gathers and scores its bins against the
        inherited residue buffer and sends back, per bin, ``(index, scores,
        pack seconds, kernel start, kernel end)``.  The parent then does
        all device accounting bin by bin in plan order, so kernel stats,
        transfer bytes, ``device.align.*`` metrics and ``device.align_bin``
        spans are exactly those of an in-process run.
        """
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        owners = least_loaded_assignment(
            [bin_.padded_cells for bin_ in plan.bins], n_workers)

        def work(conn, mine: list[int]) -> None:
            try:
                pool = ScratchPool()
                results = []
                for k in mine:
                    bin_ = plan.bins[k]
                    t0 = time.perf_counter()
                    arow, bt = gather(bin_)
                    t1 = time.perf_counter()
                    scores = kernel(bin_, arow, bt, pool)
                    results.append((k, scores, t1 - t0, t1,
                                    time.perf_counter()))
                conn.send(results)
            except Exception as exc:  # noqa: BLE001 — re-raised in parent
                conn.send(exc)
            finally:
                conn.close()

        procs, conns = [], []
        results: dict[int, tuple] = {}
        try:
            for w in range(n_workers):
                mine = [k for k, owner in enumerate(owners) if owner == w]
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=work, args=(send, mine),
                                   name=f"sw-fanout-{w}", daemon=True)
                proc.start()
                send.close()
                procs.append(proc)
                conns.append(recv)
            for proc, conn in zip(procs, conns):
                try:
                    msg = conn.recv()
                except EOFError:
                    proc.join()
                    raise RuntimeError(
                        f"alignment worker {proc.name} exited with code "
                        f"{proc.exitcode} before sending its scores"
                    ) from None
                if isinstance(msg, BaseException):
                    raise msg
                for k, *rest in msg:
                    results[k] = rest
        except BaseException:
            for proc in procs:
                proc.terminate()
            raise
        finally:
            for conn in conns:
                conn.close()
            for proc in procs:
                proc.join()

        device = self.device
        for k, bin_ in enumerate(plan.bins):
            scores, pack_s, t0, t1 = results[k]
            self._account_pack(bin_, pack_s)
            # The bin's working set: the long block ``bt`` it was packed to.
            d_work = device.memory.alloc(
                (max(bin_.max_long, 1), bin_.n_pairs), np.int16)
            self._land_bin(bin_, d_work, scores, t0, t1, plan, out)

    # ------------------------------------------------------------------ #
    # Per-bin stages
    # ------------------------------------------------------------------ #

    def _gather_bin(self, bin_: AlignmentBin, order: np.ndarray,
                    short_ids: np.ndarray, long_ids: np.ndarray,
                    dev: int = 0):
        members = order[bin_.order_lo:bin_.order_hi]
        return pack_bin_blocks(self._d_residues16[dev].device_view(),
                               self._d_offsets[dev].device_view(),
                               short_ids[members], long_ids[members],
                               bin_.max_short, bin_.max_long)

    def _account_pack(self, bin_: AlignmentBin, seconds: float,
                      dev: int = 0) -> None:
        device = self._members[dev]
        device.breakdown.add(BUCKET_GPU, seconds)
        n_el = bin_.n_pairs * (max(bin_.max_short, 1) + max(bin_.max_long, 1))
        modeled = device.spec.kernels.seconds_for("transform", n_el)
        device._record_kernel("sw_pack", n_el, modeled)
        device.breakdown.add_modeled(BUCKET_GPU, modeled)

    def _land_bin(self, bin_: AlignmentBin, d_work, scores: np.ndarray,
                  t0: float, t1: float, plan: AlignmentBinPlan,
                  out: np.ndarray, dev: int = 0) -> None:
        """Account one bin's kernel run ``[t0, t1]`` and download its
        scores into ``out``, freeing the bin's working set ``d_work``."""
        device = self._members[dev]
        d_scores = device.memory.adopt(scores)
        device.breakdown.add(BUCKET_GPU, t1 - t0)
        cells = bin_.padded_cells
        modeled = device.spec.kernels.seconds_for("transform", cells)
        device._record_kernel("sw_wavefront", cells, modeled)
        device.breakdown.add_modeled(BUCKET_GPU, modeled)
        tracer = device.obs.tracer
        if tracer.enabled:
            tracer.record(
                "device.align_bin", t0, t1, proc=device.proc,
                attrs={"n_pairs": bin_.n_pairs, "la": bin_.max_short,
                       "lb": bin_.max_long, "dtype": bin_.dtype.name,
                       "padding_waste": round(bin_.padding_waste, 4)})
        host_scores = device.download(d_scores)
        device.free(d_work, d_scores)
        out[plan.order[bin_.order_lo:bin_.order_hi]] = host_scores

    def _record_plan_metrics(self, plan: AlignmentBinPlan) -> None:
        metrics = self.device.obs.metrics
        padded = metrics.counter("device.align.cells_padded")
        actual = metrics.counter("device.align.cells_actual")
        padded.add(plan.padded_cells)
        actual.add(plan.actual_cells)
        metrics.counter("device.align.pairs").add(int(plan.order.size))
        metrics.counter("device.align.bins").add(plan.n_bins)
        # Cumulative wasted-cell fraction across every plan so far.
        if padded.value:
            metrics.gauge("device.align.padding_waste").set(
                round(1.0 - actual.value / padded.value, 6))
        if self.group is not None:
            self.group.sync_metrics()
        else:
            self.device.sync_metrics()
