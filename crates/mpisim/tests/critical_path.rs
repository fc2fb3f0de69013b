//! Critical-path extraction on hand-built programs with known longest
//! chains (ISSUE 9 satellite): a send chain, a straggler-dominated
//! collective join, and a Waitall whose completion is pinned on one late
//! sender. Each test asserts the exact path membership, not just the
//! span, so a regression in happens-before matching shows up as a wrong
//! rank/class sequence rather than a small numeric drift.

use std::sync::Arc;

use siesta_mpisim::{critical_path, PmpiHook, Rank, RankFut, SimProfileSnapshot, SimProfiler, World};
use siesta_perfmodel::{platform_a, Machine, MpiFlavor};

const SEND: u16 = 0;
const RECV: u16 = 1;
const WAITALL: u16 = 5;
const ALLREDUCE: u16 = 10;

fn machine() -> Machine {
    Machine::new(platform_a(), MpiFlavor::OpenMpi)
}

/// Run `body` on `n` ranks under a private (non-global) profiler and
/// return the recorded timelines plus the run's elapsed virtual time.
fn profiled_run<F>(n: usize, body: F) -> (SimProfileSnapshot, f64)
where
    F: Fn(Rank) -> RankFut<'static> + Send + Sync,
{
    let prof = SimProfiler::new(n);
    let hook: Arc<dyn PmpiHook> = prof.clone();
    let stats = World::new(machine(), n).with_hook(hook).run(body);
    (prof.snapshot(), stats.elapsed_ns())
}

/// The (rank, class) sequence of a path, for exact-membership asserts.
fn shape(report: &siesta_mpisim::CriticalPathReport) -> Vec<(usize, u16)> {
    report.path.iter().map(|s| (s.rank, s.class)).collect()
}

#[test]
fn send_chain_follows_the_relay() {
    // 0 sleeps then sends to 1; 1 relays to 2. The longest chain is the
    // relay itself: 0's send, 1's recv+send, 2's recv. Rank 2's recv is
    // the last thing to finish, and every hop crosses a matched message.
    let (snap, elapsed) = profiled_run(3, |mut rank| {
        Box::pin(async move {
            let comm = rank.comm_world();
            match rank.rank() {
                0 => {
                    rank.sleep_ns(50_000.0);
                    rank.send(&comm, 1, 7, 256).await;
                }
                1 => {
                    rank.recv(&comm, 0, 7, 256).await;
                    rank.send(&comm, 2, 7, 256).await;
                }
                _ => {
                    rank.recv(&comm, 1, 7, 256).await;
                }
            }
            rank
        })
    });
    let report = critical_path(&snap);
    assert_eq!(
        shape(&report),
        vec![(0, SEND), (1, RECV), (1, SEND), (2, RECV)],
        "path should walk the relay end to end: {report:#?}"
    );
    assert!(!report.truncated);
    assert_eq!(report.unmatched, 0);
    assert!(report.span_ns <= elapsed + 1e-6, "span {} > elapsed {elapsed}", report.span_ns);
    // Both recvs blocked on the straggler: the path carries real wait.
    assert!(report.wait_ns > 0.0);
}

#[test]
fn collective_join_hops_to_the_straggler() {
    // Rank 2 arrives late at an allreduce; everyone else waits for it.
    // Whichever rank's allreduce finishes last, the walk must hop to the
    // last-arriving member — rank 2 — and start the chain there.
    let (snap, elapsed) = profiled_run(4, |mut rank| {
        Box::pin(async move {
            let comm = rank.comm_world();
            if rank.rank() == 2 {
                rank.sleep_ns(200_000.0);
            }
            rank.allreduce(&comm, 4096).await;
            rank
        })
    });
    let report = critical_path(&snap);
    let s = shape(&report);
    assert!(!report.truncated);
    assert_eq!(report.unmatched, 0);
    assert!(s.iter().all(|&(_, c)| c == ALLREDUCE), "only allreduce events on path: {s:?}");
    assert_eq!(s.first().unwrap().0, 2, "chain must start at the straggler: {s:?}");
    assert!(s.len() <= 2, "straggler + at most one joining rank: {s:?}");
    assert!(report.span_ns <= elapsed + 1e-6);
    // The straggler itself never blocks; its own step carries no wait.
    let first = &report.path[0];
    assert_eq!(first.rank, 2);
    assert_eq!(first.wait_ns, 0.0);
}

#[test]
fn waitall_resolves_to_the_late_sender() {
    // Rank 0 posts two irecvs and waits on both; rank 1 sends at once,
    // rank 2 sends late. The Waitall's completion is pinned on rank 2's
    // send — the path must route through it, not through rank 1.
    let (snap, elapsed) = profiled_run(3, |mut rank| {
        Box::pin(async move {
            let comm = rank.comm_world();
            match rank.rank() {
                0 => {
                    let r1 = rank.irecv(&comm, 1, 5, 512);
                    let r2 = rank.irecv(&comm, 2, 6, 512);
                    rank.waitall(&[r1, r2]).await;
                }
                1 => rank.send(&comm, 0, 5, 512).await,
                _ => {
                    rank.sleep_ns(300_000.0);
                    rank.send(&comm, 0, 6, 512).await;
                }
            }
            rank
        })
    });
    let report = critical_path(&snap);
    let s = shape(&report);
    assert!(!report.truncated);
    assert_eq!(report.unmatched, 0);
    assert_eq!(s.last().unwrap(), &(0, WAITALL), "path ends at the waitall: {s:?}");
    assert!(s.contains(&(2, SEND)), "path must route through the late sender: {s:?}");
    assert!(!s.contains(&(1, SEND)), "the prompt sender is off the chain: {s:?}");
    assert!(report.span_ns <= elapsed + 1e-6);
}

#[test]
fn profiling_does_not_perturb_virtual_time() {
    // The profiler charges zero interposition overhead, so the simulated
    // schedule is identical with and without it installed.
    let body = |mut rank: Rank| -> RankFut<'static> {
        Box::pin(async move {
            let comm = rank.comm_world();
            let right = (rank.rank() + 1) % rank.nranks();
            let left = (rank.rank() + rank.nranks() - 1) % rank.nranks();
            rank.sendrecv(&comm, right, 3, 1024, left, 3, 1024).await;
            rank.allreduce(&comm, 64).await;
            rank
        })
    };
    let bare = World::new(machine(), 4).run(body);
    let prof = SimProfiler::new(4);
    let hook: Arc<dyn PmpiHook> = prof.clone();
    let hooked = World::new(machine(), 4).with_hook(hook).run(body);
    assert_eq!(bare.schedule_hash(), hooked.schedule_hash());
    assert_eq!(bare.elapsed_ns(), hooked.elapsed_ns());
    let report = critical_path(&prof.snapshot());
    assert!(report.span_ns <= hooked.elapsed_ns() + 1e-6);
}
