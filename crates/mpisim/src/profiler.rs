//! The virtual-time profiler: a [`PmpiHook`] that records every
//! application-level MPI call as a per-rank timeline interval.
//!
//! Each completed call becomes one fixed-size [`SimEvent`] — `(rank,
//! call class, vtime start, vtime end, peer/comm, bytes, blocked wait)`.
//! Recording happens only in the `post` hook: the runtime threads the
//! call's start time and exact blocked-wait total through
//! [`HookCtx::call_start_ns`] / [`HookCtx::wait_ns`].
//!
//! # Storage: per-thread logs, not rank tracks
//!
//! The obvious layout — one buffer per rank — is cache-hostile at scale:
//! the scheduler interleaves ranks, so consecutive events land in
//! different rank buffers and every push is a cold miss plus a possibly
//! migrating mutex line (measured ~150 ns/event at 4 096 ranks, blowing
//! the <5% overhead budget). Instead events append to the calling
//! worker's chain in a [`siesta_obs::chunk_log::ChunkLog`] — the same
//! per-thread event log the span flight recorder uses: the write head
//! stays in that core's L1, so a push is a plain store plus a release
//! store, and the chunks recycle through a process-wide pool, so a
//! process that simulates more than one world pays the page faults of
//! the event stream once. Program order per rank is preserved by
//! [`HookCtx::call_seq`] — the rank's own hooked-call ordinal, counted in
//! state that is already hot in the polling worker — and
//! [`SimProfiler::snapshot`] merges the logs back into per-rank tracks by
//! `(rank, seq)`.
//!
//! The profiler charges **zero** virtual overhead — it observes the
//! simulation without perturbing the clocks, so schedules (and
//! `schedule_hash`) are identical with profiling on or off.
//!
//! Peers are recorded as *global* ranks where the PMPI view permits:
//! communicator-local ranks equal global ranks only on `MPI_COMM_WORLD`,
//! so non-world point-to-point events carry [`NO_PEER`] (they still
//! appear on the timeline; the critical-path extractor counts them as
//! unmatchable instead of guessing).
//!
//! Process-global enable/install/take plumbing mirrors
//! [`crate::comm_matrix`]: the CLI enables collection, hook construction
//! installs a fresh collector per world, and the exporter takes the last
//! snapshot after the command ran.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use siesta_obs::chunk_log::{ChunkLog, ChunkPool, LogHead};
use siesta_obs::vtime::{self, ClassRow, VtSpan, VtTraceMeta};

use crate::comm::CommId;
use crate::hook::{HookCtx, MpiCall, PmpiHook, NUM_CALL_CLASSES};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// The collector of the current (most recent) profiled run.
static CURRENT: Mutex<Option<Arc<SimProfiler>>> = Mutex::new(None);

/// Turn virtual-time profiling on or off (off by default). While on, the
/// pipeline and the CLI's `simulate` command install a [`SimProfiler`]
/// in the hook chain of every world they run.
pub fn set_sim_profile_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is virtual-time profiling enabled?
pub fn sim_profile_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// "No peer recorded": non-world communicator, or the call has no peer.
pub const NO_PEER: u32 = u32::MAX;

/// Request-id slots inlined per event; `MPI_Waitall` over more requests
/// records [`REQS_OVERFLOW`] instead (counted, never mismatched). Four
/// covers the common stencil waitalls (one request per face) while
/// keeping the event small — recording streams ~100 MB at 64k ranks, so
/// every inline slot is measurable wall time.
pub const MAX_INLINE_REQS: usize = 4;

/// `nreqs` sentinel: the call completed more requests than fit inline.
pub const REQS_OVERFLOW: u8 = u8::MAX;

/// One recorded MPI call interval. Fixed-size and `Copy`, so the event
/// log stores it inline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimEvent {
    /// [`MpiCall::class_index`] of the call.
    pub class: u16,
    /// Inlined request count in `reqs`, or [`REQS_OVERFLOW`].
    pub nreqs: u8,
    /// Primary tag: send tag for sends, recv tag for receives.
    pub tag: i32,
    /// `MPI_Sendrecv` only: the receive-side tag.
    pub tag2: i32,
    /// Global peer rank — destination for sends, source for receives —
    /// when attributable (world communicator), else [`NO_PEER`].
    pub peer: u32,
    /// `MPI_Sendrecv` only: the receive-side global source.
    pub peer2: u32,
    /// Raw communicator id of the call (0 for comm-less calls).
    pub comm: u64,
    /// Payload bytes ([`MpiCall::payload_bytes`]).
    pub bytes: u64,
    /// Request ids: the allocated id for `Isend`/`Irecv`, the completed
    /// ids for `Wait`/`Waitall`.
    pub reqs: [u32; MAX_INLINE_REQS],
    /// Virtual time entering the call (pre hook).
    pub t0: f64,
    /// Virtual time leaving the call (post hook).
    pub t1: f64,
    /// Blocked-wait portion of `t1 - t0` (see [`HookCtx::wait_ns`]).
    /// Stored `f32` (±2⁻²⁴ relative — sub-percent on any printable wait)
    /// to keep the event at exactly one cache line; the interval bounds
    /// stay `f64` because tests and the critical path compare them
    /// against exact virtual clocks.
    pub wait_ns: f32,
}

impl SimEvent {
    /// Interval length in virtual nanoseconds.
    pub fn dur_ns(&self) -> f64 {
        self.t1 - self.t0
    }
}

/// One `(rank, call_seq, event)` record in a thread log.
type Rec = (u32, u32, SimEvent);

/// Chunks parked by dropped profilers (~300 MB at most): enough to cover
/// a 64k-rank run's whole stream, small enough that a long-lived host
/// process isn't hoarding arbitrary memory after a huge one-off run.
static POOL: ChunkPool<Rec> = ChunkPool::new(8192);

thread_local! {
    static HEAD: LogHead = const { LogHead::new() };
}

/// The recording hook. Construct per world via [`SimProfiler::install`].
pub struct SimProfiler {
    nranks: usize,
    log: ChunkLog<Rec>,
}

impl SimProfiler {
    /// A free-standing profiler for `nranks` tracks. Not registered
    /// anywhere: read it back with [`SimProfiler::snapshot`].
    pub fn new(nranks: usize) -> Arc<SimProfiler> {
        Arc::new(SimProfiler { nranks, log: ChunkLog::new(&POOL) })
    }

    /// Build a profiler for `nranks` tracks and install it as the
    /// process-global "current" collector (replacing any previous one).
    pub fn install(nranks: usize) -> Arc<SimProfiler> {
        let p = Self::new(nranks);
        *CURRENT.lock().unwrap() = Some(p.clone());
        p
    }

    /// Copy the recorded timelines out (tracks in rank order, events in
    /// program order).
    pub fn snapshot(&self) -> SimProfileSnapshot {
        let mut per_rank: Vec<Vec<(u32, SimEvent)>> = vec![Vec::new(); self.nranks];
        self.log.for_each(|(rank, seq, ev)| per_rank[rank as usize].push((seq, ev)));
        let tracks = per_rank
            .into_iter()
            .map(|mut recs| {
                recs.sort_unstable_by_key(|&(seq, _)| seq);
                recs.into_iter().map(|(_, ev)| ev).collect()
            })
            .collect();
        SimProfileSnapshot { nranks: self.nranks, tracks }
    }
}

impl PmpiHook for SimProfiler {
    fn pre(&self, _ctx: &HookCtx, _call: &MpiCall) {}

    fn post(&self, ctx: &HookCtx, call: &MpiCall) {
        let mut ev = SimEvent {
            class: call.class_index() as u16,
            nreqs: 0,
            tag: -1,
            tag2: -1,
            peer: NO_PEER,
            peer2: NO_PEER,
            comm: 0,
            bytes: call.payload_bytes() as u64,
            reqs: [0; MAX_INLINE_REQS],
            t0: ctx.call_start_ns,
            t1: ctx.clock_ns,
            wait_ns: ctx.wait_ns as f32,
        };
        // Local == global rank only on the world communicator; elsewhere
        // the PMPI view cannot attribute a global peer.
        let world_peer = |comm: &CommId, local: usize| {
            if *comm == CommId::WORLD { local as u32 } else { NO_PEER }
        };
        match call {
            MpiCall::Send { comm, dest, tag, .. } => {
                ev.comm = comm.0;
                ev.tag = *tag;
                ev.peer = world_peer(comm, *dest);
            }
            MpiCall::Recv { comm, src, tag, .. } => {
                ev.comm = comm.0;
                ev.tag = *tag;
                ev.peer = world_peer(comm, *src);
            }
            MpiCall::Isend { comm, dest, tag, req, .. } => {
                ev.comm = comm.0;
                ev.tag = *tag;
                ev.peer = world_peer(comm, *dest);
                ev.reqs[0] = *req as u32;
                ev.nreqs = 1;
            }
            MpiCall::Irecv { comm, src, tag, req, .. } => {
                ev.comm = comm.0;
                ev.tag = *tag;
                ev.peer = world_peer(comm, *src);
                ev.reqs[0] = *req as u32;
                ev.nreqs = 1;
            }
            MpiCall::Wait { req } => {
                ev.reqs[0] = *req as u32;
                ev.nreqs = 1;
            }
            MpiCall::Waitall { reqs } => {
                if reqs.len() <= MAX_INLINE_REQS {
                    for (slot, r) in ev.reqs.iter_mut().zip(reqs) {
                        *slot = *r as u32;
                    }
                    ev.nreqs = reqs.len() as u8;
                } else {
                    ev.nreqs = REQS_OVERFLOW;
                }
            }
            MpiCall::Sendrecv { comm, dest, send_tag, src, recv_tag, .. } => {
                ev.comm = comm.0;
                ev.tag = *send_tag;
                ev.tag2 = *recv_tag;
                ev.peer = world_peer(comm, *dest);
                ev.peer2 = world_peer(comm, *src);
            }
            MpiCall::CommSplit { parent, .. } | MpiCall::CommDup { parent, .. } => {
                ev.comm = parent.0;
            }
            MpiCall::CommFree { comm }
            | MpiCall::Barrier { comm }
            | MpiCall::Bcast { comm, .. }
            | MpiCall::Reduce { comm, .. }
            | MpiCall::Allreduce { comm, .. }
            | MpiCall::Allgather { comm, .. }
            | MpiCall::Alltoall { comm, .. }
            | MpiCall::Alltoallv { comm, .. }
            | MpiCall::Gather { comm, .. }
            | MpiCall::Scatter { comm, .. }
            | MpiCall::Gatherv { comm, .. }
            | MpiCall::Scatterv { comm, .. }
            | MpiCall::Scan { comm, .. }
            | MpiCall::ReduceScatterBlock { comm, .. } => {
                ev.comm = comm.0;
            }
        }
        // Out-of-range ranks are ignored (never panic in the simulator's
        // hot path).
        if ctx.rank < self.nranks {
            self.log.push(&HEAD, (ctx.rank as u32, ctx.call_seq, ev));
        }
    }
}

/// Per-rank timelines of one profiled run, in program order.
#[derive(Debug, Clone, PartialEq)]
pub struct SimProfileSnapshot {
    pub nranks: usize,
    /// One track per rank, events in program order.
    pub tracks: Vec<Vec<SimEvent>>,
}

impl SimProfileSnapshot {
    /// Events retained across all ranks.
    pub fn events_total(&self) -> usize {
        self.tracks.iter().map(Vec::len).sum()
    }

    /// Export as a Chrome trace in virtual time: one track per rank,
    /// strided to at most `max_tracks` tracks (0 = no cap) so huge worlds
    /// stay loadable. Deterministic: virtual timestamps are a pure
    /// function of the program and tracks export in rank order.
    pub fn chrome_trace_json(&self, max_tracks: usize) -> String {
        let stride = vtime::export_stride(self.nranks, max_tracks);
        let mut spans = Vec::new();
        let mut skipped = 0u64;
        for (rank, track) in self.tracks.iter().enumerate() {
            if rank % stride != 0 {
                skipped += track.len() as u64;
                continue;
            }
            for ev in track {
                spans.push(VtSpan {
                    track: rank as u32,
                    name: MpiCall::class_name(ev.class as usize),
                    ts_ns: ev.t0,
                    dur_ns: ev.dur_ns(),
                    wait_ns: ev.wait_ns as f64,
                    bytes: ev.bytes,
                });
            }
        }
        let meta = VtTraceMeta {
            tracks_total: self.nranks,
            tracks_exported: self.nranks.div_ceil(stride),
            events_skipped: skipped,
        };
        vtime::chrome_trace_json(&spans, &meta)
    }

    /// Aggregate the per-call-class wait/transfer rows (classes with at
    /// least one call, in class-index order — deterministic).
    pub fn class_breakdown(&self) -> Vec<ClassRow> {
        let mut count = [0u64; NUM_CALL_CLASSES];
        let mut total = [0.0f64; NUM_CALL_CLASSES];
        let mut wait = [0.0f64; NUM_CALL_CLASSES];
        let mut bytes = [0u64; NUM_CALL_CLASSES];
        for track in &self.tracks {
            for ev in track {
                let c = (ev.class as usize).min(NUM_CALL_CLASSES - 1);
                count[c] += 1;
                total[c] += ev.dur_ns();
                wait[c] += ev.wait_ns as f64;
                bytes[c] += ev.bytes;
            }
        }
        (0..NUM_CALL_CLASSES)
            .filter(|&c| count[c] > 0)
            .map(|c| ClassRow {
                name: MpiCall::class_name(c),
                count: count[c],
                total_ns: total[c],
                wait_ns: wait[c],
                bytes: bytes[c],
            })
            .collect()
    }

    /// Render the wait/transfer breakdown table.
    pub fn render_breakdown(&self) -> String {
        vtime::render_class_table(&self.class_breakdown())
    }
}

/// Take the snapshot of the most recently installed profiler, leaving
/// none behind. `None` if no profiled world ran.
pub fn take_sim_profile() -> Option<SimProfileSnapshot> {
    let p = CURRENT.lock().unwrap().take()?;
    Some(p.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use siesta_perfmodel::CounterVec;

    /// Serializes tests: `install` and `take_sim_profile` share the
    /// process-global `CURRENT`, so concurrent tests could take each
    /// other's profiler.
    static CURRENT_LOCK: Mutex<()> = Mutex::new(());

    fn ctx(rank: usize, t0: f64, t1: f64, wait: f64) -> HookCtx {
        HookCtx {
            rank,
            clock_ns: t1,
            counters: CounterVec::ZERO,
            comm_rank: rank,
            comm_size: 2,
            call_start_ns: t0,
            wait_ns: wait,
            // Tests advance t0 per rank, so it doubles as the call ordinal.
            call_seq: t0 as u32,
        }
    }

    #[test]
    fn records_intervals_with_peer_and_wait() {
        let _g = CURRENT_LOCK.lock().unwrap();
        let p = SimProfiler::install(2);
        let send = MpiCall::Send { comm: CommId::WORLD, dest: 1, tag: 7, bytes: 64 };
        p.post(&ctx(0, 10.0, 30.0, 0.0), &send);
        let recv = MpiCall::Recv { comm: CommId::WORLD, src: 0, tag: 7, bytes: 64 };
        p.post(&ctx(1, 5.0, 40.0, 25.0), &recv);
        // Non-world peers are not attributable.
        let sub = MpiCall::Send { comm: CommId(9), dest: 0, tag: 1, bytes: 8 };
        p.post(&ctx(1, 41.0, 42.0, 0.0), &sub);

        let snap = take_sim_profile().expect("installed");
        assert_eq!(snap.nranks, 2);
        let s = &snap.tracks[0][0];
        assert_eq!((s.class, s.peer, s.tag, s.bytes), (0, 1, 7, 64));
        assert_eq!((s.t0, s.t1, s.wait_ns), (10.0, 30.0, 0.0));
        let r = &snap.tracks[1][0];
        assert_eq!((r.class, r.peer, r.wait_ns), (1, 0, 25.0));
        assert_eq!(snap.tracks[1][1].peer, NO_PEER);
        assert!(take_sim_profile().is_none());
    }

    #[test]
    fn waitall_inlines_small_and_flags_overflow() {
        let _g = CURRENT_LOCK.lock().unwrap();
        let p = SimProfiler::install(1);
        p.post(&ctx(0, 0.0, 1.0, 0.0), &MpiCall::Waitall { reqs: vec![3, 1, 2] });
        p.post(&ctx(0, 1.0, 2.0, 0.0), &MpiCall::Waitall { reqs: (0..12).collect() });
        let snap = take_sim_profile().unwrap();
        let small = &snap.tracks[0][0];
        assert_eq!(small.nreqs, 3);
        assert_eq!(&small.reqs[..3], &[3, 1, 2]);
        assert_eq!(snap.tracks[0][1].nreqs, REQS_OVERFLOW);
    }

    #[test]
    fn breakdown_and_trace_are_deterministic() {
        let _g = CURRENT_LOCK.lock().unwrap();
        let p = SimProfiler::install(4);
        for r in 0..4 {
            let call = MpiCall::Allreduce { comm: CommId::WORLD, bytes: 8 };
            p.post(&ctx(r, r as f64, 10.0, 10.0 - r as f64 - 1.0), &call);
        }
        let snap = take_sim_profile().unwrap();
        let rows = snap.class_breakdown();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "MPI_Allreduce");
        assert_eq!(rows[0].count, 4);
        let a = snap.chrome_trace_json(2);
        assert_eq!(a, snap.chrome_trace_json(2));
        // Stride 2 keeps ranks 0 and 2, skipping 2 tracks' events.
        assert!(a.contains("\"tracks_exported\":2"));
        assert!(a.contains("\"events_skipped\":2"));
    }
}
