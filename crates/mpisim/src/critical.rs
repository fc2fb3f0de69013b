//! Critical-path extraction over a recorded virtual-time profile.
//!
//! Given the per-rank timelines of a [`SimProfileSnapshot`], this module
//! reconstructs the happens-before edges the simulator actually enforced
//! — send→recv matches, collective joins, wait completions — and walks
//! them backward from the last event to finish, yielding the longest
//! chain of virtual-time dependencies: the *critical path*. The report
//! answers the profiler's headline question ("which calls does the job's
//! completion time actually hinge on?") plus a per-rank blocked/busy
//! breakdown.
//!
//! # Edge reconstruction
//!
//! The profile records *call intervals*, not engine internals, so edges
//! are rebuilt from MPI semantics the same way an offline trace analyzer
//! would:
//!
//! * **Point-to-point** — the engine matches in FIFO posting order per
//!   `(comm, src, dst, tag)` stream (no `ANY_SOURCE`, non-overtaking
//!   channels), so the k-th send on a stream pairs with the k-th posted
//!   receive. A blocking `Recv` (and the receive half of `Sendrecv`)
//!   both posts and completes at its own event; an `Irecv` posts at its
//!   event and completes at the `Wait`/`Waitall` that retires its
//!   request id.
//! * **Collectives** — members of the i-th collective on a communicator
//!   join on the last-arriving member (the one with the greatest entry
//!   time `t0`).
//! * **Unmatchable events are counted, never guessed.** Non-world
//!   point-to-point (no global peer in the PMPI view), wildcard-tag
//!   receives and `Waitall` request-list overflow all fall back to the
//!   rank's own program order and bump `unmatched`.
//!
//! The walk chooses a remote predecessor only when the event actually
//! *blocked* (`wait_ns > 0`); a call satisfied locally depends only on
//! its own rank's previous event. All tie-breaks are by `(rank, idx)`,
//! and every input is a pure function of the simulated program, so the
//! report is byte-identical at any `--threads` width.

use siesta_hash::{fx_map, FxHashMap, FxHashSet};
use std::fmt::Write as _;

use crate::profiler::{SimEvent, SimProfileSnapshot, MAX_INLINE_REQS, NO_PEER, REQS_OVERFLOW};

/// Class-index range of calls that join a communicator-wide instance
/// (`MPI_Barrier` .. `MPI_Comm_dup`; `MPI_Comm_free` is local).
fn is_collective(class: u16) -> bool {
    (7..=21).contains(&class)
}

/// A node on the critical path: `idx` is the event's position in rank
/// `rank`'s retained timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathStep {
    pub rank: usize,
    pub idx: usize,
    pub class: u16,
    pub t0: f64,
    pub t1: f64,
    pub wait_ns: f64,
}

/// Per-rank virtual-time budget split derived from the profile.
#[derive(Debug, Clone, Copy)]
pub struct RankBreakdown {
    pub rank: usize,
    /// Virtual time inside MPI calls.
    pub mpi_ns: f64,
    /// Blocked-wait portion of `mpi_ns`.
    pub wait_ns: f64,
    /// Everything outside MPI up to the rank's last recorded completion
    /// (compute and local gaps).
    pub other_ns: f64,
    /// Completion time of the rank's last recorded event.
    pub last_t1: f64,
}

/// Aggregate of one call class along the critical path.
#[derive(Debug, Clone, Copy)]
pub struct PathClassTotal {
    pub class: u16,
    pub count: u64,
    pub total_ns: f64,
    pub wait_ns: f64,
}

/// The extracted critical path and its supporting breakdowns.
#[derive(Debug, Clone)]
pub struct CriticalPathReport {
    /// Virtual time spanned by the path: last step's `t1` − first step's
    /// `t0`. Bounded by the job's elapsed virtual time.
    pub span_ns: f64,
    /// Steps in chronological (walk-reversed) order.
    pub path: Vec<PathStep>,
    /// Blocked wait summed along the path.
    pub wait_ns: f64,
    /// Call time (`t1 − t0`) summed along the path.
    pub mpi_ns: f64,
    /// Distinct ranks the path visits.
    pub ranks_visited: usize,
    /// Per-class totals along the path, heaviest first.
    pub class_totals: Vec<PathClassTotal>,
    /// Blocked events whose remote producer could not be reconstructed
    /// (non-world peers, wildcard tags, overflowed request lists); they
    /// fell back to program order.
    pub unmatched: u64,
    /// The backward walk revisited a node (possible only through
    /// fallback edges on partial profiles) and stopped early.
    pub truncated: bool,
    /// Per-rank blocked/busy split for the whole run.
    pub per_rank: Vec<RankBreakdown>,
}

/// A posted receive on a `(comm, src, dst, tag)` stream.
struct RecvPost {
    /// Node at which the matching wait completes; `None` until the
    /// request is retired (never, for an abandoned `Irecv`).
    completion: Option<(usize, usize)>,
}

enum Pending {
    /// Index into `recv_posts` to complete when the request retires.
    Irecv(usize),
    /// Sender-side request: retiring it needs no edge (the rendezvous
    /// ack's reverse dependency is approximated by program order).
    Isend,
}

/// Extract the critical path from a recorded profile. Events that cannot
/// be matched show up as `unmatched` (and possibly `truncated`), never as
/// a wrong edge.
pub fn critical_path(snap: &SimProfileSnapshot) -> CriticalPathReport {
    let tracks = &snap.tracks;

    // ---- Pass 1: per-rank scans reconstruct matching state. ----------
    // A `(rank, idx)` timeline node.
    type Node = (usize, usize);
    // A collective member: `(t0, rank, idx)`.
    type Member = (f64, usize, usize);
    // A `(comm, src, dst, tag)` point-to-point stream key.
    type StreamKey = (u64, u32, u32, i32);
    // Collective instances: (comm, per-comm ordinal) → members.
    let mut coll: FxHashMap<(u64, u64), Vec<Member>> = fx_map();
    // P2P streams: FIFO send nodes / recv posts per stream.
    let mut send_q: FxHashMap<StreamKey, Vec<Node>> = fx_map();
    let mut recv_q: FxHashMap<StreamKey, Vec<usize>> = fx_map();
    let mut recv_posts: Vec<RecvPost> = Vec::new();
    let mut unmatched = 0u64;

    for (rank, track) in tracks.iter().enumerate() {
        let mut coll_ord: FxHashMap<u64, u64> = fx_map();
        let mut pending: FxHashMap<u32, Pending> = fx_map();
        for (idx, ev) in track.iter().enumerate() {
            let class = ev.class;
            if is_collective(class) {
                let ord = coll_ord.entry(ev.comm).or_insert(0);
                coll.entry((ev.comm, *ord)).or_default().push((ev.t0, rank, idx));
                *ord += 1;
                continue;
            }
            match class {
                // Send / Isend: enqueue the event as the producing node.
                0 | 2 => {
                    if ev.peer != NO_PEER {
                        send_q
                            .entry((ev.comm, rank as u32, ev.peer, ev.tag))
                            .or_default()
                            .push((rank, idx));
                    } else {
                        unmatched += 1;
                    }
                    if class == 2 {
                        pending.insert(ev.reqs[0], Pending::Isend);
                    }
                }
                // Recv: posts and completes here.
                1 => {
                    if ev.peer != NO_PEER && ev.tag != crate::message::ANY_TAG {
                        let post = recv_posts.len();
                        recv_posts.push(RecvPost { completion: Some((rank, idx)) });
                        recv_q.entry((ev.comm, ev.peer, rank as u32, ev.tag)).or_default().push(post);
                    } else {
                        unmatched += 1;
                    }
                }
                // Irecv: posts here, completes at the retiring wait.
                3 => {
                    if ev.peer != NO_PEER && ev.tag != crate::message::ANY_TAG {
                        let post = recv_posts.len();
                        recv_posts.push(RecvPost { completion: None });
                        recv_q.entry((ev.comm, ev.peer, rank as u32, ev.tag)).or_default().push(post);
                        pending.insert(ev.reqs[0], Pending::Irecv(post));
                    } else {
                        unmatched += 1;
                        pending.insert(ev.reqs[0], Pending::Isend); // peer unknown: no edge
                    }
                }
                // Wait / Waitall: retire requests.
                4 | 5 => {
                    if ev.nreqs == REQS_OVERFLOW {
                        unmatched += 1;
                    } else {
                        for &req in &ev.reqs[..(ev.nreqs as usize).min(MAX_INLINE_REQS)] {
                            match pending.remove(&req) {
                                Some(Pending::Irecv(post)) => {
                                    recv_posts[post].completion = Some((rank, idx));
                                }
                                Some(Pending::Isend) => {}
                                None => unmatched += 1,
                            }
                        }
                    }
                }
                // Sendrecv: send half + immediately-completing recv half.
                6 => {
                    if ev.peer != NO_PEER {
                        send_q
                            .entry((ev.comm, rank as u32, ev.peer, ev.tag))
                            .or_default()
                            .push((rank, idx));
                    } else {
                        unmatched += 1;
                    }
                    if ev.peer2 != NO_PEER && ev.tag2 != crate::message::ANY_TAG {
                        let post = recv_posts.len();
                        recv_posts.push(RecvPost { completion: Some((rank, idx)) });
                        recv_q.entry((ev.comm, ev.peer2, rank as u32, ev.tag2)).or_default().push(post);
                    } else {
                        unmatched += 1;
                    }
                }
                // CommFree and anything else: purely local.
                _ => {}
            }
        }
    }

    // ---- Pass 2: zip FIFO streams into completion → producer edges. --
    // remote_pred[v] = the send node whose message v's wait consumed; a
    // Waitall retiring several receives keeps the latest-finishing send.
    let mut remote_pred: FxHashMap<(usize, usize), (usize, usize)> = fx_map();
    let event = |node: (usize, usize)| -> &SimEvent { &tracks[node.0][node.1] };
    for (key, sends) in &send_q {
        let posts = recv_q.get(key).map(Vec::as_slice).unwrap_or(&[]);
        if sends.len() != posts.len() {
            unmatched += sends.len().abs_diff(posts.len()) as u64;
        }
        for (&snode, &post) in sends.iter().zip(posts) {
            let Some(cnode) = recv_posts[post].completion else {
                unmatched += 1;
                continue;
            };
            let better = match remote_pred.get(&cnode) {
                None => true,
                Some(&old) => {
                    let (a, b) = (event(snode), event(old));
                    a.t1 > b.t1 || (a.t1 == b.t1 && snode < old)
                }
            };
            if better {
                remote_pred.insert(cnode, snode);
            }
        }
    }

    // ---- Pass 3: backward walk from the last event to finish. --------
    //
    // One subtlety keeps the walk acyclic on symmetric exchanges: after
    // following a remote edge to the producing call, only the producer's
    // *entry* lies on the chain (the message left once the sender reached
    // the call), so the next hop is its program predecessor — never its
    // own wait edge. Without this, two ranks blocked on each other's
    // `MPI_Sendrecv` are each other's remote predecessor and the walk
    // would 2-cycle immediately.
    let mut path: Vec<PathStep> = Vec::new();
    let mut wait_on_path = 0.0f64;
    let mut truncated = false;
    let mut via_remote = false;
    let mut cur: Option<(usize, usize)> = {
        let mut best: Option<((usize, usize), f64)> = None;
        for (rank, track) in tracks.iter().enumerate() {
            if let Some(ev) = track.last() {
                let node = (rank, track.len() - 1);
                if best.is_none_or(|(_, t)| ev.t1 > t) {
                    best = Some((node, ev.t1));
                }
            }
        }
        best.map(|(n, _)| n)
    };
    let mut visited: FxHashSet<(usize, usize)> = FxHashSet::default();
    while let Some(node) = cur {
        if !visited.insert(node) {
            truncated = true;
            break;
        }
        let ev = event(node);
        path.push(PathStep {
            rank: node.0,
            idx: node.1,
            class: ev.class,
            t0: ev.t0,
            t1: ev.t1,
            wait_ns: ev.wait_ns as f64,
        });
        let program_pred =
            |node: (usize, usize)| if node.1 > 0 { Some((node.0, node.1 - 1)) } else { None };
        if via_remote {
            // Entered as a producer: only its entry time is on the chain.
            via_remote = false;
            cur = program_pred(node);
            continue;
        }
        wait_on_path += ev.wait_ns as f64;
        cur = if ev.wait_ns > 0.0 {
            if let Some(&producer) = remote_pred.get(&node) {
                via_remote = true;
                Some(producer)
            } else if is_collective(ev.class) {
                // Hop to the last-arriving member of the same instance.
                let ord = tracks[node.0][..node.1]
                    .iter()
                    .filter(|e| is_collective(e.class) && e.comm == ev.comm)
                    .count() as u64;
                let last = coll.get(&(ev.comm, ord)).and_then(|members| {
                    members
                        .iter()
                        .copied()
                        .reduce(|a, b| {
                            // Max t0; ties lowest (rank, idx).
                            if b.0 > a.0 || (b.0 == a.0 && (b.1, b.2) < (a.1, a.2)) {
                                b
                            } else {
                                a
                            }
                        })
                        .map(|(_, r, i)| (r, i))
                });
                match last {
                    Some(m) if m != node => {
                        via_remote = true;
                        Some(m)
                    }
                    _ => program_pred(node),
                }
            } else {
                // Blocked with no reconstructable producer (rendezvous
                // ack, unmatched stream): fall back to program order.
                program_pred(node)
            }
        } else {
            program_pred(node)
        };
    }
    path.reverse();

    // ---- Aggregates. -------------------------------------------------
    let span_ns = match (path.first(), path.last()) {
        (Some(a), Some(b)) => b.t1 - a.t0,
        _ => 0.0,
    };
    let wait_ns = wait_on_path;
    let mpi_ns: f64 = path.iter().map(|s| s.t1 - s.t0).sum();
    let ranks_visited = path.iter().map(|s| s.rank).collect::<FxHashSet<_>>().len();

    let mut by_class: FxHashMap<u16, PathClassTotal> = fx_map();
    for s in &path {
        let e = by_class.entry(s.class).or_insert(PathClassTotal {
            class: s.class,
            count: 0,
            total_ns: 0.0,
            wait_ns: 0.0,
        });
        e.count += 1;
        e.total_ns += s.t1 - s.t0;
        e.wait_ns += s.wait_ns;
    }
    let mut class_totals: Vec<PathClassTotal> = by_class.into_values().collect();
    class_totals.sort_by(|a, b| {
        b.total_ns.partial_cmp(&a.total_ns).unwrap().then(a.class.cmp(&b.class))
    });

    let per_rank = tracks
        .iter()
        .enumerate()
        .map(|(rank, track)| {
            let mpi: f64 = track.iter().map(|e| e.t1 - e.t0).sum();
            let wait: f64 = track.iter().map(|e| e.wait_ns as f64).sum();
            let last_t1 = track.last().map_or(0.0, |e| e.t1);
            RankBreakdown { rank, mpi_ns: mpi, wait_ns: wait, other_ns: last_t1 - mpi, last_t1 }
        })
        .collect();

    CriticalPathReport {
        span_ns,
        path,
        wait_ns,
        mpi_ns,
        ranks_visited,
        class_totals,
        unmatched,
        truncated,
        per_rank,
    }
}

impl CriticalPathReport {
    /// Render the report as a deterministic text table (part of the
    /// profiler's canonical artifacts — byte-identical at any width).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical path: {:.3} ms over {} calls on {} ranks ({:.3} ms blocked, {:.3} ms in-call)",
            self.span_ns / 1e6,
            self.path.len(),
            self.ranks_visited,
            self.wait_ns / 1e6,
            self.mpi_ns / 1e6,
        );
        if self.truncated {
            out.push_str("  (walk truncated: revisited a node on a partial profile)\n");
        }
        if self.unmatched > 0 {
            let _ = writeln!(
                out,
                "  ({} blocked events lacked a reconstructable producer; program-order fallback)",
                self.unmatched
            );
        }
        out.push_str("dominant call classes on the path:\n");
        for c in self.class_totals.iter().take(5) {
            let _ = writeln!(
                out,
                "  {:<24} {:>7} calls {:>11.3} ms total {:>11.3} ms blocked",
                crate::hook::MpiCall::class_name(c.class as usize),
                c.count,
                c.total_ns / 1e6,
                c.wait_ns / 1e6,
            );
        }
        // Whole-run blocked/busy split: aggregate plus the most-blocked ranks.
        let n = self.per_rank.len().max(1) as f64;
        let tot_wait: f64 = self.per_rank.iter().map(|r| r.wait_ns).sum();
        let tot_mpi: f64 = self.per_rank.iter().map(|r| r.mpi_ns).sum();
        let _ = writeln!(
            out,
            "per-rank budget: mean {:.3} ms MPI ({:.3} ms blocked) per rank across {} ranks",
            tot_mpi / n / 1e6,
            tot_wait / n / 1e6,
            self.per_rank.len(),
        );
        let mut worst: Vec<&RankBreakdown> = self.per_rank.iter().collect();
        worst.sort_by(|a, b| b.wait_ns.partial_cmp(&a.wait_ns).unwrap().then(a.rank.cmp(&b.rank)));
        out.push_str("most-blocked ranks:\n");
        for r in worst.iter().take(5) {
            let _ = writeln!(
                out,
                "  rank {:<8} {:>11.3} ms blocked {:>11.3} ms mpi {:>11.3} ms other",
                r.rank,
                r.wait_ns / 1e6,
                r.mpi_ns / 1e6,
                r.other_ns / 1e6,
            );
        }
        out
    }
}
