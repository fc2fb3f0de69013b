//! The paper's comparative claims, as integration tests: Siesta vs
//! Pilgrim-like vs ScalaBench-like vs MINIME.

use siesta_baselines::{pilgrim, scalabench};
use siesta_codegen::replay;
use siesta_core::{Siesta, SiestaConfig};
use siesta_perfmodel::{platform_a, Machine, MpiFlavor};
use siesta_proxy::{Minime, ProxySearcher};
use siesta_trace::EventRecord;
use siesta_workloads::{ProblemSize, Program};

fn machine() -> Machine {
    Machine::new(platform_a(), MpiFlavor::OpenMpi)
}

#[test]
fn pilgrim_comm_only_severely_underruns() {
    // Section 3.4.1: Pilgrim's proxies cannot reflect execution time
    // (paper: 84.30% mean error). Check the same failure across programs.
    let m = machine();
    let mut total = 0.0;
    let programs = [Program::Bt, Program::Mg, Program::Sweep3d];
    for program in programs {
        let n = 16;
        let original = program.run(m, n, ProblemSize::Tiny);
        let prog =
            pilgrim::trace_and_synthesize(m, n, move |r| program.body(ProblemSize::Tiny)(r));
        let t = replay(&prog, m);
        total += t.time_error(&original);
    }
    let mean = total / programs.len() as f64;
    assert!(mean > 0.5, "Pilgrim-like mean error only {:.1}%", mean * 100.0);
}

#[test]
fn scalabench_rejects_flash_but_siesta_handles_it() {
    let m = machine();
    for program in [Program::Sedov, Program::Sod, Program::StirTurb] {
        let scala = scalabench::trace_and_synthesize(m, 8, move |r| {
            program.body(ProblemSize::Small)(r)
        });
        assert!(scala.is_err(), "{} should be rejected", program.name());
        // Siesta synthesizes and replays the same program fine.
        let original = program.run(m, 8, ProblemSize::Small);
        let siesta = Siesta::new(SiestaConfig::default());
        let (synthesis, _) =
            siesta.synthesize_run(m, 8, move |r| program.body(ProblemSize::Small)(r));
        let proxy = replay(&synthesis.program, m);
        assert!(
            proxy.time_error(&original) < 0.15,
            "{}: siesta error too large",
            program.name()
        );
    }
}

#[test]
fn scalabench_histograms_quantize_volumes() {
    // The lossy step exists even when generation succeeds.
    let m = machine();
    let app = scalabench::trace_and_synthesize(m, 8, move |r| {
        Program::Mg.body(ProblemSize::Tiny)(r)
    })
    .unwrap();
    assert!(app.is_lossy(), "histogram pooling should lose volume information");
}

#[test]
fn siesta_beats_minime_on_event_sequences() {
    // Figure 5's claim, as a test: per-event fitting summed over the trace.
    let m = machine();
    let searcher = ProxySearcher::new(&m);
    let minime = Minime::new(&m);
    let siesta = Siesta::new(SiestaConfig::default());
    let mut siesta_err = 0.0;
    let mut minime_err = 0.0;
    for program in [Program::Bt, Program::Cg, Program::Mg] {
        let (trace, _) =
            siesta.trace_run_streamed(m, 16, move |r| program.body(ProblemSize::Tiny)(r));
        let global = siesta.merge_streamed(trace).to_global_trace();
        let mut occurrences = vec![0u64; global.table.len()];
        for seq in &global.seqs {
            for &id in seq {
                occurrences[id as usize] += 1;
            }
        }
        let mut origin = siesta_perfmodel::CounterVec::ZERO;
        let mut s_sum = siesta_perfmodel::CounterVec::ZERO;
        let mut m_sum = siesta_perfmodel::CounterVec::ZERO;
        for (id, rec) in global.table.iter().enumerate() {
            if let EventRecord::Compute(stats) = rec {
                let target = stats.mean();
                let w = occurrences[id] as f64;
                origin += target * w;
                s_sum += searcher.predict(&searcher.search(&target), &m) * w;
                let mp = minime.synthesize(&target, &m);
                m_sum += mp.counters_on(m.cpu(), minime.blocks()) * w;
            }
        }
        siesta_err += s_sum.mean_relative_error(&origin);
        minime_err += m_sum.mean_relative_error(&origin);
    }
    assert!(
        siesta_err < minime_err,
        "six-metric: siesta {siesta_err} !< minime {minime_err}"
    );
}

#[test]
fn scalabench_rsd_and_siesta_grammar_both_compress() {
    // Both tools compress the trace heavily; Siesta additionally carries
    // the computation model.
    let m = machine();
    let program = Program::Sp;
    let original = program.run(m, 16, ProblemSize::Tiny);
    let events = original.total_calls() as usize;
    let app = scalabench::trace_and_synthesize(m, 16, move |r| {
        program.body(ProblemSize::Tiny)(r)
    })
    .unwrap();
    assert!(app.total_items() * 3 < events, "RSD barely compressed");
    let siesta = Siesta::new(SiestaConfig::default());
    let (synthesis, _) =
        siesta.synthesize_run(m, 16, move |r| program.body(ProblemSize::Tiny)(r));
    assert!(synthesis.stats.grammar_size * 3 < events, "grammar barely compressed");
    assert!(synthesis.stats.num_compute_terminals > 0);
}
