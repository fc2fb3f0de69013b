//! Whole-pipeline integration tests across **all nine** evaluation
//! programs: losslessness, timing fidelity, and C emission, end to end.

use siesta_codegen::{emit_c, replay};
use siesta_core::{Siesta, SiestaConfig};
use siesta_perfmodel::{platform_a, Machine, MpiFlavor};
use siesta_workloads::{ProblemSize, Program};

fn machine() -> Machine {
    Machine::new(platform_a(), MpiFlavor::OpenMpi)
}

fn nprocs_for(program: Program) -> usize {
    match program {
        Program::Bt | Program::Sp => 16,
        _ => 16,
    }
}

#[test]
fn every_program_replays_its_comm_stream_losslessly() {
    let m = machine();
    for program in Program::ALL {
        let n = nprocs_for(program);
        let siesta = Siesta::new(SiestaConfig::default());
        let (trace, _) =
            siesta.trace_run_streamed(m, n, move |r| program.body(ProblemSize::Tiny)(r));
        let sg = siesta.merge_streamed(trace);
        let global = sg.to_global_trace();
        let synthesis = siesta.synthesize_streamed_global(sg, &m);
        for rank in 0..n as u32 {
            assert_eq!(
                synthesis.program.expand_for_rank(rank),
                global.seqs[rank as usize],
                "{} rank {rank} diverges",
                program.name()
            );
        }
    }
}

#[test]
fn every_program_proxy_time_is_close() {
    let m = machine();
    for program in Program::ALL {
        let n = nprocs_for(program);
        let original = program.run(m, n, ProblemSize::Tiny);
        let siesta = Siesta::new(SiestaConfig::default());
        let (synthesis, _) =
            siesta.synthesize_run(m, n, move |r| program.body(ProblemSize::Tiny)(r));
        let proxy = replay(&synthesis.program, m);
        let err = proxy.time_error(&original);
        assert!(
            err < 0.25,
            "{}: time error {:.1}% (proxy {:.2} vs orig {:.2} ms)",
            program.name(),
            err * 100.0,
            proxy.elapsed_ms(),
            original.elapsed_ms()
        );
    }
}

#[test]
fn every_program_emits_wellformed_c() {
    let m = machine();
    for program in Program::ALL {
        let n = nprocs_for(program);
        let siesta = Siesta::new(SiestaConfig::default());
        let (synthesis, _) =
            siesta.synthesize_run(m, n, move |r| program.body(ProblemSize::Tiny)(r));
        let c = emit_c(&synthesis.program);
        assert_eq!(
            c.matches('{').count(),
            c.matches('}').count(),
            "{}: unbalanced braces",
            program.name()
        );
        assert!(c.contains("MPI_Init"), "{}", program.name());
        assert!(c.contains("MPI_Finalize"), "{}", program.name());
        // Every terminal function is defined and `main` exists.
        for i in 0..synthesis.program.terminals.len() {
            assert!(
                c.contains(&format!("static void ev_{i}(void)")),
                "{}: missing ev_{i}",
                program.name()
            );
        }
    }
}

#[test]
fn scaled_proxies_shrink_every_program() {
    let m = machine();
    for program in [Program::Bt, Program::Mg, Program::Sweep3d, Program::Sedov] {
        let n = nprocs_for(program);
        let original = program.run(m, n, ProblemSize::Tiny);
        let siesta = Siesta::new(SiestaConfig::scaled());
        let (synthesis, _) =
            siesta.synthesize_run(m, n, move |r| program.body(ProblemSize::Tiny)(r));
        let proxy = replay(&synthesis.program, m);
        assert!(
            proxy.elapsed_ns() < 0.6 * original.elapsed_ns(),
            "{}: scaled proxy {:.2}ms not well under original {:.2}ms",
            program.name(),
            proxy.elapsed_ms(),
            original.elapsed_ms()
        );
    }
}

#[test]
fn compression_never_loses_to_raw_trace() {
    let m = machine();
    for program in Program::ALL {
        let n = nprocs_for(program);
        let siesta = Siesta::new(SiestaConfig::default());
        let (synthesis, _) =
            siesta.synthesize_run(m, n, move |r| program.body(ProblemSize::Small)(r));
        assert!(
            synthesis.stats.size_c_bytes < synthesis.stats.raw_trace_bytes,
            "{}: size_C {} >= raw {}",
            program.name(),
            synthesis.stats.size_c_bytes,
            synthesis.stats.raw_trace_bytes
        );
    }
}

#[test]
fn out_of_sample_lu_goes_through_the_whole_pipeline() {
    // LU is not in the paper's evaluation set; the synthesis path must not
    // be overfit to the nine programs it was tuned on.
    let m = machine();
    let program = Program::Lu;
    let n = 9;
    let original = program.run(m, n, ProblemSize::Tiny);
    let siesta = Siesta::new(SiestaConfig::default());
    let (trace, _) =
        siesta.trace_run_streamed(m, n, move |r| program.body(ProblemSize::Tiny)(r));
    let sg = siesta.merge_streamed(trace);
    let global = sg.to_global_trace();
    let synthesis = siesta.synthesize_streamed_global(sg, &m);
    for rank in 0..n as u32 {
        assert_eq!(
            synthesis.program.expand_for_rank(rank),
            global.seqs[rank as usize],
            "LU rank {rank} diverges"
        );
    }
    let proxy = replay(&synthesis.program, m);
    let terr = proxy.time_error(&original);
    let cerr = proxy.mean_counter_error(&original);
    assert!(terr < 0.20, "LU time error {:.1}%", terr * 100.0);
    assert!(cerr < 0.15, "LU counter error {:.1}%", cerr * 100.0);
}
