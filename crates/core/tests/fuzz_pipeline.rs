//! Randomized end-to-end pipeline fuzzing.
//!
//! A deterministic generator builds arbitrary-but-valid SPMD programs from a
//! seed (every rank derives the same schedule, so sends and receives always
//! match). Each seed's program goes through the whole pipeline: run, trace,
//! synthesize, replay — checking losslessness and timing fidelity on
//! programs nobody hand-shaped.

use siesta_codegen::replay;
use siesta_core::{Siesta, SiestaConfig};
use siesta_mpisim::{Rank, RankFut};
use siesta_perfmodel::{noise, platform_a, platform_c, KernelDesc, Machine, MpiFlavor};

const NRANKS: usize = 8;

/// The fuzz matrix covers a multi-node machine and the single-node
/// platform C, under two MPI implementations.
fn machines() -> [Machine; 2] {
    [
        Machine::new(platform_a(), MpiFlavor::OpenMpi),
        Machine::new(platform_c(), MpiFlavor::Mpich),
    ]
}

/// One round of the generated program, decoded from the schedule stream.
async fn round(rank: &mut Rank, seed: u64, step: u64) {
    let comm = rank.comm_world();
    let p = rank.nranks();
    let me = rank.rank();
    let r = |k: u64| noise::combine(&[seed, step, k]);
    let kind = r(0) % 8;
    match kind {
        0 => {
            // Ring sendrecv with a schedule-derived size.
            let bytes = 16 + (r(1) % 100_000) as usize;
            let right = (me + 1) % p;
            let left = (me + p - 1) % p;
            let tag = (r(2) % 50) as i32;
            rank.sendrecv(&comm, right, tag, bytes, left, tag, bytes).await;
        }
        1 => {
            // Pairwise exchange at a schedule-derived offset.
            let d = 1 + (r(1) as usize % (p - 1));
            let bytes = 16 + (r(2) % 60_000) as usize;
            let to = (me + d) % p;
            let from = (me + p - d) % p;
            rank.sendrecv(&comm, to, 9, bytes, from, 9, bytes).await;
        }
        2 => {
            // Nonblocking halo with 1–3 offsets.
            let k = 1 + (r(1) as usize % 3.min(p - 1));
            let bytes = 16 + (r(2) % 30_000) as usize;
            let mut reqs = Vec::new();
            for i in 0..k {
                let d = 1 + ((r(3 + i as u64) as usize) % (p - 1));
                reqs.push(rank.irecv(&comm, (me + p - d) % p, 40 + i as i32, bytes));
            }
            for i in 0..k {
                let d = 1 + ((r(3 + i as u64) as usize) % (p - 1));
                reqs.push(rank.isend(&comm, (me + d) % p, 40 + i as i32, bytes));
            }
            rank.waitall(&reqs).await;
        }
        3 => {
            let bytes = 8 + (r(1) % 50_000) as usize;
            match r(2) % 5 {
                0 => rank.allreduce(&comm, bytes).await,
                1 => rank.bcast(&comm, (r(3) as usize) % p, bytes).await,
                2 => rank.reduce(&comm, (r(3) as usize) % p, bytes).await,
                3 => rank.allgather(&comm, bytes / p.max(1) + 1).await,
                _ => rank.alltoall(&comm, bytes / p.max(1) + 1).await,
            }
        }
        4 => {
            rank.barrier(&comm).await;
        }
        5 => {
            // Rooted collectives, including the variable-count variants.
            let root = (r(1) as usize) % p;
            match r(4) % 3 {
                0 => {
                    rank.gather(&comm, root, 64 + (r(2) % 4096) as usize).await;
                    rank.scatter(&comm, root, 64 + (r(3) % 4096) as usize).await;
                }
                1 => {
                    let counts: Vec<usize> =
                        (0..p).map(|i| 16 + ((r(5) as usize + i * 13) % 2048)).collect();
                    rank.gatherv(&comm, root, &counts).await;
                    rank.scatterv(&comm, root, &counts).await;
                }
                _ => {
                    rank.scan(&comm, 8 + (r(2) % 8192) as usize).await;
                    rank.reduce_scatter_block(&comm, 8 + (r(3) % 8192) as usize).await;
                }
            }
        }
        6 => {
            // Communicator split; a collective inside; free.
            let colors = 1 + (r(1) % 3) as i64;
            let color = (me as i64) % colors;
            if let Some(sub) = rank.comm_split(&comm, color, me as i64).await {
                rank.allreduce(&sub, 8 + (r(2) % 1024) as usize).await;
                rank.comm_free(sub);
            }
        }
        _ => {
            // Compute of schedule-derived shape.
            let points = 1_000.0 + (r(1) % 300_000) as f64;
            let flops = 1.0 + (r(2) % 12) as f64;
            let ws = 4096.0 + (r(3) % 4_000_000) as f64;
            rank.compute(&KernelDesc::stencil(points, flops, ws));
        }
    }
}

fn program(seed: u64) -> impl Fn(Rank) -> RankFut<'static> + Send + Sync {
    move |mut rank: Rank| -> RankFut<'static> {
        Box::pin(async move {
            let steps = 10 + noise::combine(&[seed, 0xFEED]) % 30;
            // A compute epilogue ensures every program has computation.
            rank.compute(&KernelDesc::bookkeeping(20_000.0));
            for step in 0..steps {
                round(&mut rank, seed, step).await;
            }
            let comm = rank.comm_world();
            rank.barrier(&comm).await;
            rank
        })
    }
}

#[test]
fn random_programs_run_deterministically() {
    for (mi, m) in machines().into_iter().enumerate() {
        let seed = mi as u64; // one seed per machine keeps runtime bounded
        {
        let a = siesta_mpisim::World::new(m, NRANKS).run(program(seed));
        let b = siesta_mpisim::World::new(m, NRANKS).run(program(seed));
        assert_eq!(a.elapsed_ns(), b.elapsed_ns(), "seed {seed}");
        for (x, y) in a.per_rank.iter().zip(&b.per_rank) {
            assert_eq!(x.counters, y.counters, "seed {seed} rank {}", x.rank);
        }
        }
    }
    // And a deeper sweep on the default machine.
    let m = Machine::default_eval();
    for seed in 0..6u64 {
        let a = siesta_mpisim::World::new(m, NRANKS).run(program(seed));
        let b = siesta_mpisim::World::new(m, NRANKS).run(program(seed));
        assert_eq!(a.elapsed_ns(), b.elapsed_ns(), "seed {seed}");
    }
}

#[test]
fn random_programs_synthesize_losslessly() {
    let m = Machine::default_eval();
    for seed in 0..6u64 {
        let siesta = Siesta::new(SiestaConfig::default());
        let (trace, _) = siesta.trace_run_streamed(m, NRANKS, program(seed));
        let sg = siesta.merge_streamed(trace);
        let global = sg.to_global_trace();
        let synthesis = siesta.synthesize_streamed_global(sg, &m);
        for rank in 0..NRANKS as u32 {
            assert_eq!(
                synthesis.program.expand_for_rank(rank),
                global.seqs[rank as usize],
                "seed {seed} rank {rank}"
            );
        }
    }
}

#[test]
fn random_programs_replay_with_bounded_time_error_across_machines() {
    for m in machines() {
        for seed in [1u64, 5] {
            let original = siesta_mpisim::World::new(m, NRANKS).run(program(seed));
            let siesta = Siesta::new(SiestaConfig::default());
            let (synthesis, _) = siesta.synthesize_run(m, NRANKS, program(seed));
            let proxy = replay(&synthesis.program, m);
            let err = proxy.time_error(&original);
            assert!(err < 0.25, "machine {} seed {seed}: {:.1}%", m.label(), err * 100.0);
        }
    }
}

#[test]
fn random_programs_replay_with_bounded_time_error() {
    let m = Machine::default_eval();
    for seed in 0..6u64 {
        let original = siesta_mpisim::World::new(m, NRANKS).run(program(seed));
        let siesta = Siesta::new(SiestaConfig::default());
        let (synthesis, _) = siesta.synthesize_run(m, NRANKS, program(seed));
        let proxy = replay(&synthesis.program, m);
        let err = proxy.time_error(&original);
        assert!(
            err < 0.25,
            "seed {seed}: time error {:.1}% (proxy {:.3}ms vs orig {:.3}ms)",
            err * 100.0,
            proxy.elapsed_ms(),
            original.elapsed_ms()
        );
        // No request leaks anywhere in replay.
        assert!(proxy.per_rank.iter().all(|r| r.finish_ns > 0.0));
    }
}

#[test]
fn random_programs_round_trip_through_wire_format() {
    let m = Machine::default_eval();
    for seed in [3u64, 4] {
        let siesta = Siesta::new(SiestaConfig::default());
        let (synthesis, _) = siesta.synthesize_run(m, NRANKS, program(seed));
        let bytes = siesta_codegen::to_bytes(&synthesis.program);
        let decoded = siesta_codegen::from_bytes(&bytes).expect("decode");
        assert_eq!(decoded, synthesis.program);
        // The decoded program replays identically.
        let a = replay(&synthesis.program, m);
        let b = replay(&decoded, m);
        assert_eq!(a.elapsed_ns(), b.elapsed_ns());
    }
}
