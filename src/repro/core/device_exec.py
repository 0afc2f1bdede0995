"""Device-path execution of one shingling pass (Algorithm 2's inner loops).

The driver here is the CPU side of the paper's computing framework
(Figure 3): it partitions the input adjacency structure into device-sized
batches, uploads them, launches the shingle-extraction kernels, and
aggregates the downloaded shingles — including the merge of adjacency lists
that were split across batches.

The schedule is pluggable via :class:`repro.core.execplan.ExecutionPlan`:

* ``sync`` — the paper-faithful synchronous pipeline;
* ``prefetch`` — double-buffered uploads (next batch's transfer overlaps the
  current batch's kernels on a copy thread);
* ``multistream`` — trial-chunk streams: each pass's ``c`` trials split into
  independent chunks executed concurrently on a worker pool.  NumPy kernels
  release the GIL, so streams overlap with each other and with CPU-side
  aggregation.

In the dominant single-batch regime every mode aggregates **streamingly**:
each trial chunk's ``(t, n, s)`` block is folded into a partial result and
dropped as soon as its kernels finish (see
:class:`repro.core.aggregate.StreamingAggregator`), so peak host memory is
O(chunk * n * s) instead of O(c * n * s).  When the graph needs several
batches, per-batch scatter requires the full accumulators (bounded by the
same device-capacity math as before); the streaming path resumes once a
batch covers the input.

Every step is charged to the right Table-I bucket: batch planning and
aggregation to ``cpu``, kernel work to ``gpu`` (inside the device facade),
transfers to ``data_c2g``/``data_g2c``.  All modes produce results
bit-identical to :func:`repro.core.serial.serial_shingle_pass`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.aggregate import (StreamingAggregator, aggregate_pass,
                                  aggregate_runs, merge_splits_into)
from repro.core.execplan import (EXEC_MULTIDEVICE, EXEC_PREFETCH, EXEC_SYNC,
                                 ExecutionPlan, trial_chunks)
from repro.core.params import AGG_AUTO, AGG_HOST, KERNEL_FUSED, PassConfig
from repro.core.passresult import PassResult
from repro.device.batching import max_batch_elements, plan_batches
from repro.device.device import SimulatedDevice
from repro.device.group import DeviceGroup, least_loaded_assignment
from repro.device.kernels import (SENTINEL, build_tournament_plan,
                                  reduce_keys_fit, segment_element_ids)
from repro.device.memory import ScratchPool
from repro.util.timer import BUCKET_CPU


def device_shingle_pass(
    indptr: np.ndarray,
    elements: np.ndarray,
    config: PassConfig,
    device: SimulatedDevice | DeviceGroup,
    *,
    kernel: str = "select",
    trial_chunk: int = 16,
    max_elements: int | None = None,
    prefetch: bool = False,
    plan: ExecutionPlan | None = None,
) -> PassResult:
    """Run one full shingling pass through the simulated device.

    Parameters
    ----------
    indptr, elements:
        Input adjacency structure in CSR form.
    config:
        Pass configuration (s, c, hash pairs, salts).
    device:
        The simulated device — or a :class:`DeviceGroup`, whose members the
        ``multidevice`` plan shards trial chunks across (shared inputs are
        broadcast once over PCIe and fanned out peer-to-peer); the
        breakdown accumulates component times either way.
    kernel, trial_chunk:
        Kernel selection and trials-per-round (see :class:`SimulatedDevice`).
    max_elements:
        Batch element budget override; by default derived from the device's
        memory capacity and divided by the plan's resident factor (double
        buffering keeps two batches resident; ``k`` streams keep ``k``
        kernel working sets resident).
    prefetch:
        Back-compat alias for ``plan=ExecutionPlan("prefetch")``; ignored
        when ``plan`` is given.
    plan:
        The execution schedule (defaults to synchronous).

    Returns
    -------
    PassResult
        Identical to :func:`repro.core.serial.serial_shingle_pass` on the
        same inputs and configuration, in every mode.
    """
    if plan is None:
        plan = ExecutionPlan(EXEC_PREFETCH if prefetch else EXEC_SYNC)
    indptr = np.asarray(indptr, dtype=np.int64)
    elements = np.asarray(elements, dtype=np.int64)
    breakdown = device.breakdown
    s, c = config.s, config.c
    t_start = time.perf_counter()

    capacity = device.spec.memory_capacity_bytes
    derived_budget = max_elements is None
    with breakdown.timing(BUCKET_CPU):
        if derived_budget:
            max_elements = max_batch_elements(capacity, trial_chunk, s)
        max_elements = max(max_elements // plan.resident_factor, 1)
        all_lengths = np.diff(indptr)
        n_seg = all_lengths.size
        # CPU-side compaction: segments shorter than s generate no shingles
        # (Section III-B: shingles exist only for "any vertex ... that has
        # at least s links"), so they never ship to the device.  The serial
        # reference skips them the same way.
        valid = all_lengths >= s
        valid_ids = np.flatnonzero(valid)
        lengths = all_lengths[valid_ids]
        elements = elements[np.repeat(valid, all_lengths)]
        compact_indptr = np.zeros(valid_ids.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=compact_indptr[1:])
        # Exclusive element-id bound; sizes the fused kernel's hash table
        # and the on-device reduction's packed keys.
        n_values = int(elements.max()) + 1 if elements.size else 1
        chunks = trial_chunks(c, trial_chunk)
        with device.obs.tracer.span("exec.plan_batches") as span:
            batch_plan = plan_batches(compact_indptr, max_elements)
            resident_tables = False
            if kernel == KERNEL_FUSED and batch_plan.n_batches > 1:
                tables_plan = _resident_tables_plan(
                    compact_indptr, batch_plan, chunks, plan,
                    len(_members_of(device)), capacity, trial_chunk, s,
                    n_values, derived_budget)
                if tables_plan is not None:
                    batch_plan, resident_tables = tables_plan, True
            span.set(n_batches=batch_plan.n_batches,
                     resident_tables=resident_tables)

    if batch_plan.n_batches == 1:
        result = _single_batch_streaming(
            device, elements, batch_plan.batches[0], chunks, config, kernel,
            plan, lengths, valid_ids, n_seg, n_values)
    else:
        result = _multi_batch_accumulate(
            device, elements, batch_plan, chunks, config, kernel, plan,
            lengths, valid_ids, n_seg, n_values,
            resident_tables=resident_tables)

    # Dedup accounting: how many (trial, segment) shingle occurrence slots
    # collapsed into distinct fingerprints this pass (the shingle dedup
    # ratio the bench JSONs report).
    metrics = device.obs.metrics
    metrics.counter("shingle.occurrence_slots").add(int(c) * valid_ids.size)
    metrics.counter("shingle.distinct_fps").add(int(result.n_shingles))
    tracer = device.obs.tracer
    if tracer.enabled:
        tracer.record("exec.shingle_pass", t_start, time.perf_counter(),
                      attrs={"mode": plan.mode, "kernel": kernel, "c": c,
                             "s": s, "n_segments": n_seg,
                             "n_batches": batch_plan.n_batches,
                             "n_shingles": int(result.n_shingles)})
    return result


def _members_of(device) -> list[SimulatedDevice]:
    return device.members if isinstance(device, DeviceGroup) else [device]


def _chunk_owners(plan: ExecutionPlan, chunks, n_members: int) -> list[int]:
    """Member index each trial chunk runs on, in every batch of a pass.

    ``multidevice`` over several members assigns chunks to the least-loaded
    member by trial count (nnz is constant within a batch, so trials are
    proportional to modeled kernel cost); every other schedule runs on the
    first member.
    """
    if plan.mode == EXEC_MULTIDEVICE and n_members > 1:
        return least_loaded_assignment([hi - lo for lo, hi in chunks],
                                       n_members)
    return [0] * len(chunks)


def _resident_tables_plan(compact_indptr: np.ndarray, batch_plan, chunks,
                          plan: ExecutionPlan, n_members: int, capacity: int,
                          trial_chunk: int, s: int, n_values: int,
                          derived_budget: bool):
    """The batch plan of a fused multi-batch pass with resident hash tables.

    Each trial chunk's ``(t, n_values)`` uint32 table is built once per
    pass on the member that runs the chunk and stays resident across
    batches, so the batch element budget comes from the capacity left
    beside the largest member's tables.  Returns ``None`` — keep building
    a table per batch inside ``fused_hash`` — when the tables would take
    more than half the device, or when no batch reaches ``n_values``
    elements (``fused_hash`` would hash those batches directly).
    """
    loads = [0] * n_members
    for (lo, hi), owner in zip(chunks, _chunk_owners(plan, chunks, n_members)):
        loads[owner] += hi - lo
    table_bytes = max(loads) * n_values * np.dtype(np.uint32).itemsize
    if 2 * table_bytes > capacity:
        return None
    if derived_budget:
        try:
            budget = max_batch_elements(capacity - table_bytes, trial_chunk, s)
        except ValueError:  # no element fits beside the tables
            return None
        batch_plan = plan_batches(
            compact_indptr, max(budget // plan.resident_factor, 1))
    if n_values > max(batch.n_elements for batch in batch_plan):
        return None
    return batch_plan


def _release_scratch(members: list[SimulatedDevice]) -> None:
    """Give back a pass's kernel scratch once its chunk loop is done.

    Nothing reuses it: the merge allocates its own arrays, and the next
    pass has a different geometry.
    """
    for member in members:
        member.scratch.clear()


def _broadcast(device, members, multi: bool, host_array: np.ndarray):
    """Input residency per member: group broadcast, or one plain upload."""
    if multi:
        return device.broadcast(host_array)
    return [members[0].upload(host_array)]


def _run_chunks(plan: ExecutionPlan, chunks, work,
                members: list[SimulatedDevice] | None = None,
                first_alone: bool = False) -> None:
    """Execute ``work(lo, hi, dev)`` for every trial chunk under the plan.

    ``multidevice`` with several members statically assigns chunks by
    :func:`_chunk_owners` and runs one driver thread per member — named
    ``dev{i}`` so each device's kernel rounds render as their own trace
    track.  Static-by-cost assignment keeps every
    member's kernel stream deterministic; the out-of-order-tolerant
    aggregation downstream makes completion order immaterial.

    With ``first_alone`` the first chunk runs to completion, on the worker
    the schedule gives it, before any other chunk starts.
    """
    if (plan.mode == EXEC_MULTIDEVICE and members is not None
            and len(members) > 1):
        owners = _chunk_owners(plan, chunks, len(members))
        per_dev: list[list[tuple[int, int]]] = [[] for _ in members]
        for chunk, owner in zip(chunks, owners):
            per_dev[owner].append(chunk)
        if first_alone and chunks:
            lead = per_dev[owners[0]].pop(0)
            _run_member_threads([[lead] if i == owners[0] else []
                                 for i in range(len(members))], work)
        _run_member_threads(per_dev, work)
        return
    if plan.n_workers == 1 or plan.mode == EXEC_MULTIDEVICE:
        for lo, hi in chunks:
            work(lo, hi, 0)
        return
    # The prefix names each worker's spans' track ("stream_0", "stream_1",
    # ...) so concurrent kernel rounds render as separate trace tracks.
    with ThreadPoolExecutor(max_workers=plan.n_workers,
                            thread_name_prefix="stream") as executor:
        if first_alone and chunks:
            executor.submit(work, *chunks[0], 0).result()
            chunks = chunks[1:]
        futures = [executor.submit(work, lo, hi, 0) for lo, hi in chunks]
        for future in futures:
            future.result()


def _run_member_threads(per_dev: list[list[tuple[int, int]]], work) -> None:
    """One ``dev{i}`` driver thread per member with chunks; re-raise errors."""
    errors: list[BaseException] = []

    def runner(idx: int) -> None:
        try:
            for lo, hi in per_dev[idx]:
                work(lo, hi, idx)
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=runner, args=(i,), name=f"dev{i}")
               for i in range(len(per_dev)) if per_dev[i]]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _single_batch_streaming(
    device: SimulatedDevice | DeviceGroup,
    elements: np.ndarray,
    batch,
    chunks,
    config: PassConfig,
    kernel: str,
    plan: ExecutionPlan,
    lengths: np.ndarray,
    valid_ids: np.ndarray,
    n_seg: int,
    n_values: int,
) -> PassResult:
    """The streaming hot path: one resident batch, per-chunk aggregation.

    A single batch cannot contain split lists, so every trial chunk's block
    aggregates independently the moment its kernels finish; the full
    ``(c, n, s)`` arrays are never materialized.

    With the ``fused`` kernel (and whenever the packed reduction keys fit in
    63 bits) the device additionally runs :func:`chunk_reduce` before the
    transfer: each chunk downloads its compacted distinct-shingle runs
    instead of the raw ``(t, n, s)`` occurrence block, so both the g2c
    bytes and the CPU aggregation shrink from O(t*n*s) to O(k_chunk*s);
    one :func:`~repro.device.kernels.merge_runs` over all chunks' runs
    then sorts the pass by fingerprint.

    On that reduce path the batch's :class:`~repro.device.kernels.
    TournamentPlan` is built once, here, and every chunk selects through
    it.  The first chunk runs alone: it returns the eager kernels' output
    and checks the tournament against it in full, so a mismatch pins the
    whole batch to the eager kernels before any other chunk starts.
    """
    breakdown = device.breakdown
    group_members = _members_of(device)
    multi = plan.mode == EXEC_MULTIDEVICE and len(group_members) > 1
    s = config.s
    a, b, salts = config.a_array, config.b_array, config.salts
    n_rows = batch.n_segments
    t_max = max((hi - lo for lo, hi in chunks), default=0)
    # The single batch is pre-compacted (every row has length >= s, no
    # sentinel padding), which is exactly what the on-device reduction
    # requires; the only other gate is the 63-bit key-packing bound.
    use_reduce = (kernel == KERNEL_FUSED
                  and reduce_keys_fit(t_max, n_rows, s, n_values))
    # Device-backed aggregation: keep every chunk's compacted partial
    # resident and merge on-device (group-by kernels), downloading only the
    # final bipartite CSR.  Requires the on-device reduction (the partials
    # must exist on the device in wire form) and that the worst-case
    # resident partial volume — every chunk fully distinct — fits device
    # memory with headroom for the merge working set.  Both "auto" and a
    # forced "device" degrade to the host merge when a prerequisite is
    # missing; results are bit-identical either way.
    agg_backend = getattr(config, "aggregate_backend", AGG_AUTO)
    c_total = sum(hi - lo for lo, hi in chunks)
    resident_fits = (3 * c_total * n_rows * (24 + 4 * s)
                     < device.spec.memory_capacity_bytes)
    use_dev_agg = (use_reduce and agg_backend != AGG_HOST and resident_fits)

    with breakdown.timing(BUCKET_CPU):
        batch_elements = batch.slice_elements(elements)
        seg_ids_table = segment_element_ids(batch.local_indptr)
        aggregator = StreamingAggregator(
            s, n_seg, device=device if use_dev_agg else None)
        host_pool = ScratchPool()  # reused download staging across chunks

    d_elems = _broadcast(device, group_members, multi, batch_elements)
    d_indptrs = _broadcast(device, group_members, multi, batch.local_indptr)
    d_gens = (_broadcast(device, group_members, multi,
                         valid_ids.astype(np.uint32))
              if use_reduce else [])

    tracer = device.obs.tracer
    tournament = None

    def run_chunk_reduce(lo: int, hi: int, dev: int) -> None:
        member = group_members[dev]
        out = member.shingle_chunk_reduce(
            d_elems[dev], d_indptrs[dev], d_gens[dev],
            a=a[lo:hi], b=b[lo:hi], prime=config.prime, s=s,
            salts=salts[lo:hi], seg_ids=seg_ids_table, n_values=n_values,
            resident=use_dev_agg, tournament=tournament,
            label=f"trials {lo}-{hi - 1}")
        if lo == 0 and tracer.enabled:
            # The lead chunk settles the plan's check (alone, if a plan
            # exists), so the span ends with it.
            tracer.record(
                "device.tournament_plan", plan_t0, time.perf_counter(),
                proc=member.proc,
                attrs={"n_seg": n_rows,
                       "bins": len(tournament.bins) if tournament else 0,
                       "verified": bool(tournament and tournament.verified)})
        if use_dev_agg:
            # The partial never leaves the device: record the resident
            # buffers and move on (no per-chunk host aggregation at all).
            aggregator.add_resident(lo, member, out)
        else:
            aggregator.add(lo, out)

    def run_chunk(lo: int, hi: int, dev: int) -> None:
        t = hi - lo
        fps_buf = host_pool.take((t, n_rows), np.uint64)
        top_buf = host_pool.take((t, n_rows, s), np.uint64)
        group_members[dev].shingle_chunk(
            d_elems[dev], d_indptrs[dev],
            a=a[lo:hi], b=b[lo:hi], prime=config.prime, s=s,
            salts=salts[lo:hi], kernel=kernel, seg_ids=seg_ids_table,
            n_values=n_values,
            out_fps=fps_buf, out_top=top_buf, label=f"trials {lo}-{hi - 1}")
        with breakdown.timing(BUCKET_CPU), \
                tracer.span("exec.chunk_aggregate"):
            aggregator.add(lo, aggregate_runs(fps_buf, top_buf, lengths, s,
                                              segment_ids=valid_ids))
        host_pool.give(fps_buf, top_buf)

    try:
        if use_reduce:
            plan_t0 = time.perf_counter()
            with breakdown.timing(BUCKET_CPU):
                tournament = build_tournament_plan(
                    batch_elements, batch.local_indptr, s, n_values)
        # The lead chunk checks the plan that every later chunk relies on.
        _run_chunks(plan, chunks,
                    run_chunk_reduce if use_reduce else run_chunk,
                    members=group_members, first_alone=tournament is not None)
    finally:
        device.free(*(d_elems + d_indptrs + d_gens))
    _release_scratch(group_members)

    if use_dev_agg and aggregator.n_partials:
        # The device merge charges its own gpu/g2c/cpu buckets internally —
        # no blanket cpu timing here, or those seconds would double-count.
        with tracer.span("exec.merge_partials"):
            return aggregator.result()

    with breakdown.timing(BUCKET_CPU), tracer.span("exec.merge_partials"):
        if aggregator.n_partials == 0:
            # c == 0 degenerate case: an empty pass over n_seg segments.
            return aggregate_pass(np.empty((0, n_rows), dtype=np.uint64),
                                  np.empty((0, n_rows, s), dtype=np.uint64),
                                  lengths, s, segment_ids=valid_ids,
                                  n_segments=n_seg)
        return aggregator.result()


def _multi_batch_accumulate(
    device: SimulatedDevice | DeviceGroup,
    elements: np.ndarray,
    batch_plan,
    chunks,
    config: PassConfig,
    kernel: str,
    plan: ExecutionPlan,
    lengths: np.ndarray,
    valid_ids: np.ndarray,
    n_seg: int,
    n_values: int,
    resident_tables: bool = False,
) -> PassResult:
    """General path: several batches, scatter into pass-level accumulators.

    Batch uploads may double-buffer (``prefetch``), each batch's trial
    chunks may run on concurrent streams (``multistream``) or shard across
    a device group (``multidevice``, batches broadcast member-to-member);
    the final aggregation happens once, after split lists are merged.

    With ``resident_tables`` (fused kernel; see
    :func:`_resident_tables_plan`) each trial chunk's hash table is built
    once, before the first batch, on the member that runs the chunk, and
    every batch gathers its keys from it; the tables are freed when the
    pass ends.
    """
    breakdown = device.breakdown
    group_members = _members_of(device)
    multi = plan.mode == EXEC_MULTIDEVICE and len(group_members) > 1
    s, c = config.s, config.c
    a, b, salts = config.a_array, config.b_array, config.salts

    with breakdown.timing(BUCKET_CPU):
        n_rows = valid_ids.size
        fps_all = np.zeros((c, n_rows), dtype=np.uint64)
        top_all = np.full((c, n_rows, s), SENTINEL, dtype=np.uint64)
        # compact row id -> list of (c, s) packed top-s arrays, one per chunk
        split_chunks: dict[int, list[np.ndarray]] = {}

    def _upload(batch):
        return (_broadcast(device, group_members, multi,
                           batch.slice_elements(elements)),
                _broadcast(device, group_members, multi, batch.local_indptr))

    tracer = device.obs.tracer
    uploader = (ThreadPoolExecutor(max_workers=1, thread_name_prefix="copy")
                if plan.mode == EXEC_PREFETCH else None)
    pending = None
    d_tables: dict = {}   # trial-chunk start -> resident hash table

    def build_table(lo: int, hi: int, dev: int) -> None:
        d_tables[lo] = group_members[dev].hash_table(
            a=a[lo:hi], b=b[lo:hi], prime=config.prime, n_values=n_values,
            label=f"trials {lo}-{hi - 1}")

    try:
        if resident_tables:
            _run_chunks(plan, chunks, build_table, members=group_members)
        for bi, batch in enumerate(batch_plan):
            if uploader is None:
                d_elems, d_indptrs = _upload(batch)
            else:
                # Double buffering: this batch was prefetched during the
                # previous batch's kernels; kick off the next one now.
                d_elems, d_indptrs = (pending.result() if pending is not None
                                      else _upload(batch))
                pending = (uploader.submit(_upload, batch_plan.batches[bi + 1])
                           if bi + 1 < batch_plan.n_batches else None)

            n_b = batch.n_segments
            with breakdown.timing(BUCKET_CPU):
                seg_ids_table = segment_element_ids(batch.local_indptr)
                fps_b = np.empty((c, n_b), dtype=np.uint64)
                top_b = np.empty((c, n_b, s), dtype=np.uint64)

            def run_chunk(lo: int, hi: int, dev: int) -> None:
                group_members[dev].shingle_chunk(
                    d_elems[dev], d_indptrs[dev],
                    a=a[lo:hi], b=b[lo:hi], prime=config.prime, s=s,
                    salts=salts[lo:hi], kernel=kernel, seg_ids=seg_ids_table,
                    n_values=n_values, table=d_tables.get(lo),
                    out_fps=fps_b[lo:hi], out_top=top_b[lo:hi],
                    label=f"batch {bi} trials {lo}-{hi - 1}")

            _run_chunks(plan, chunks, run_chunk, members=group_members)
            device.free(*(d_elems + d_indptrs))

            with breakdown.timing(BUCKET_CPU):
                whole = ~batch.is_split
                if whole.any():
                    seg_ids = batch.segment_ids[whole]
                    fps_all[:, seg_ids] = fps_b[:, whole]
                    top_all[:, seg_ids, :] = top_b[:, whole, :]
                for local_idx in np.flatnonzero(batch.is_split):
                    src = int(batch.segment_ids[local_idx])
                    split_chunks.setdefault(src, []).append(top_b[:, local_idx, :])
    finally:
        if uploader is not None:
            uploader.shutdown(wait=True)
        device.free(*d_tables.values())
    _release_scratch(group_members)

    with breakdown.timing(BUCKET_CPU), \
            tracer.span("exec.aggregate", n_splits=len(split_chunks)):
        if split_chunks:
            merge_splits_into(fps_all, top_all, split_chunks, s, salts)
        result = aggregate_pass(fps_all, top_all, lengths, s,
                                segment_ids=valid_ids, n_segments=n_seg)
    return result
