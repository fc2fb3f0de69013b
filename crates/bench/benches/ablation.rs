//! Ablation studies backing the design choices called out in DESIGN.md:
//!
//! 1. **Compute-event clustering threshold** (Section 2.3): too tight and
//!    the terminal table explodes; too loose and the replay targets drift.
//! 2. **Main-rule clustering threshold** (Section 2.6.2): merging
//!    dissimilar mains bloats the merged rule; never merging wastes space.
//! 3. **Row normalization of the QP** (eq. 3→4): without it, INS/CYC
//!    dominate the fit and the small metrics (L1_DCM, MSP) go unmodeled.

use siesta_bench::{hr, machine_a, Scale};
use siesta_codegen::replay;
use siesta_core::{counter_error_pct, human_bytes, Siesta, SiestaConfig};
use siesta_grammar::{MergeConfig, Sequitur};
use siesta_perfmodel::KernelDesc;
use siesta_proxy::{solve_block_fit_opts, ProxySearcher};
use siesta_trace::TraceConfig;
use siesta_workloads::Program;

fn main() {
    let scale = Scale::from_env();
    let size = scale.size();
    let m = machine_a();

    // ------------------------------------------------------------------
    println!("Ablation 1: compute-event clustering threshold (program: MG)");
    hr(76);
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "threshold", "terminals", "size_C", "grammar", "counterErr%"
    );
    hr(76);
    let nprocs = scale.one_nprocs(Program::Mg);
    let original = Program::Mg.run(m, nprocs, size);
    for threshold in [0.02, 0.05, 0.15, 0.40, 0.80] {
        let config = SiestaConfig {
            trace: TraceConfig { cluster_threshold: threshold, ..TraceConfig::default() },
            ..SiestaConfig::default()
        };
        let siesta = Siesta::new(config);
        let (synthesis, _) =
            siesta.synthesize_run(m, nprocs, move |r| Program::Mg.body(size)(r));
        let proxy = replay(&synthesis.program, m);
        println!(
            "{:<12} {:>12} {:>12} {:>12} {:>11.2}%",
            threshold,
            synthesis.stats.num_terminals,
            human_bytes(synthesis.stats.size_c_bytes),
            synthesis.stats.grammar_size,
            counter_error_pct(&proxy, &original),
        );
    }

    // ------------------------------------------------------------------
    println!();
    println!("Ablation 2: main-rule clustering threshold (program: BT, boundary-heavy)");
    hr(64);
    println!(
        "{:<12} {:>8} {:>12} {:>12}",
        "threshold", "mains", "mainSyms", "size_C"
    );
    hr(64);
    let bt_procs = if scale == Scale::Paper { 64 } else { 16 };
    for threshold in [0.0, 0.1, 0.3, 0.5, 0.9] {
        let config = SiestaConfig {
            merge: MergeConfig { cluster_threshold: threshold },
            ..SiestaConfig::default()
        };
        let siesta = Siesta::new(config);
        let (synthesis, _) =
            siesta.synthesize_run(m, bt_procs, move |r| Program::Bt.body(size)(r));
        let main_syms: usize =
            synthesis.program.mains.iter().map(|mm| mm.body.len()).sum();
        println!(
            "{:<12} {:>8} {:>12} {:>12}",
            threshold,
            synthesis.stats.num_mains,
            main_syms,
            human_bytes(synthesis.stats.size_c_bytes),
        );
    }

    // ------------------------------------------------------------------
    println!();
    println!("Ablation 3: QP row normalization (eq. 3→4)");
    hr(70);
    println!(
        "{:<26} {:>18} {:>18}",
        "target kernel", "normalized err%", "unnormalized err%"
    );
    hr(70);
    let searcher = ProxySearcher::new(&m);
    let kernels = [
        ("dense stencil", KernelDesc::stencil(80_000.0, 6.0, 2e6)),
        ("divide-heavy", KernelDesc::divide_heavy(30_000.0, 2.0, 1e6)),
        ("integer scatter", KernelDesc::integer_scatter(60_000.0, 6e6)),
        ("bookkeeping", KernelDesc::bookkeeping(50_000.0)),
    ];
    for (name, kernel) in kernels {
        let target = m.cpu().counters(&kernel);
        let t = target.as_array();
        let mut errs = [0.0f64; 2];
        for (slot, normalize) in [(0, true), (1, false)] {
            let fit = solve_block_fit_opts(searcher.b_matrix(), &t, normalize);
            // Evaluate with the mean relative error over the six metrics.
            let mut pred = [0.0f64; 6];
            #[allow(clippy::needless_range_loop)] // i indexes two matrices
            for i in 0..6 {
                pred[i] = (0..11).map(|j| searcher.b_matrix()[i][j] * fit.x[j]).sum();
            }
            let err: f64 = (0..6)
                .filter(|&i| t[i] > 1.0)
                .map(|i| (pred[i] - t[i]).abs() / t[i])
                .sum::<f64>()
                / 6.0;
            errs[slot] = 100.0 * err;
        }
        println!("{:<26} {:>17.2}% {:>17.2}%", name, errs[0], errs[1]);
    }
    println!();
    println!("(expected: unnormalized fits sacrifice L1_DCM/MSP accuracy to INS/CYC magnitude)");

    // ------------------------------------------------------------------
    println!();
    println!("Ablation 4: run-length extension of Sequitur (constraint 3)");
    hr(72);
    println!(
        "{:<10} {:>10} {:>14} {:>14} {:>10}",
        "program", "events", "RLE grammar", "classic", "saving"
    );
    hr(72);
    let siesta = Siesta::new(SiestaConfig::default());
    for program in [Program::Sweep3d, Program::Sp, Program::Mg, Program::Cg] {
        let n = scale.one_nprocs(program);
        let (trace, _) = siesta.trace_run_streamed(m, n, move |r| program.body(size)(r));
        let global = siesta.merge_streamed(trace).to_global_trace();
        let events: usize = global.seqs.iter().map(|s| s.len()).sum();
        let rle: usize = global.seqs.iter().map(|s| Sequitur::build(s).size()).sum();
        let classic: usize =
            global.seqs.iter().map(|s| Sequitur::build_classic(s).size()).sum();
        println!(
            "{:<10} {:>10} {:>14} {:>14} {:>9.1}x",
            program.name(),
            events,
            rle,
            classic,
            classic as f64 / rle.max(1) as f64
        );
    }
    println!();
    println!("(paper/Omnis'IO: regular loops cost O(1) grammar space with powers vs O(log n) without)");
}
