//! Figure 5 — MINIME vs Siesta on a *sequence* of computation events.
//!
//! Each clustered computation event of the trace is mimicked separately;
//! the per-event proxies are summed (weighted by occurrence count) and the
//! total is compared against the original computation. The paper's point:
//! fitting heterogeneous events individually is where the QP fit pulls
//! clearly ahead of iterative ratio matching.

use siesta_bench::{hr, machine_a, Scale};
use siesta_core::{Siesta, SiestaConfig};
use siesta_perfmodel::CounterVec;
use siesta_proxy::{Minime, ProxySearcher};
use siesta_trace::EventRecord;
use siesta_workloads::Program;

fn main() {
    let scale = Scale::from_env();
    let size = scale.size();
    let m = machine_a();
    let searcher = ProxySearcher::new(&m);
    let minime = Minime::new(&m);
    let siesta = Siesta::new(SiestaConfig::default());

    println!("Figure 5: sequence of computation events — summed proxies vs Origin  ({scale:?})");
    hr(78);
    println!(
        "{:<10} {:>8} {:>10} | {:>9} {:>9} | {:>9} {:>9}",
        "Program", "Events", "Origin-INS", "miniErr%", "siesErr%", "miniRat%", "siesRat%"
    );
    hr(78);
    let mut totals = (0.0, 0.0, 0.0, 0.0);
    for program in Program::ALL {
        let nprocs = scale.one_nprocs(program);
        let (trace, _) = siesta.trace_run_streamed(m, nprocs, move |r| program.body(size)(r));
        let global = siesta.merge_streamed(trace).to_global_trace();
        // Occurrence counts per terminal id (over all ranks).
        let mut occurrences = vec![0u64; global.table.len()];
        for seq in &global.seqs {
            for &id in seq {
                occurrences[id as usize] += 1;
            }
        }
        let mut origin = CounterVec::ZERO;
        let mut siesta_sum = CounterVec::ZERO;
        let mut minime_sum = CounterVec::ZERO;
        let mut n_events = 0usize;
        for (id, rec) in global.table.iter().enumerate() {
            if let EventRecord::Compute(stats) = rec {
                n_events += 1;
                let target = stats.mean();
                let weight = occurrences[id] as f64;
                origin += target * weight;
                let sp = searcher.search(&target);
                siesta_sum += searcher.predict(&sp, &m) * weight;
                let mp = minime.synthesize(&target, &m);
                minime_sum += mp.counters_on(m.cpu(), minime.blocks()) * weight;
            }
        }
        let s_err = 100.0 * siesta_sum.mean_relative_error(&origin);
        let m_err = 100.0 * minime_sum.mean_relative_error(&origin);
        let s_rat = 100.0 * Minime::ratio_error(&siesta_sum, &origin);
        let m_rat = 100.0 * Minime::ratio_error(&minime_sum, &origin);
        totals.0 += m_err;
        totals.1 += s_err;
        totals.2 += m_rat;
        totals.3 += s_rat;
        println!(
            "{:<10} {:>8} {:>10.2e} | {:>8.2}% {:>8.2}% | {:>8.2}% {:>8.2}%",
            program.name(),
            n_events,
            origin.ins,
            m_err,
            s_err,
            m_rat,
            s_rat,
        );
    }
    hr(78);
    let n = Program::ALL.len() as f64;
    println!(
        "Means: six-metric error  MINIME {:.2}% vs Siesta {:.2}%;  ratio error  MINIME {:.2}% vs Siesta {:.2}%",
        totals.0 / n,
        totals.1 / n,
        totals.2 / n,
        totals.3 / n
    );
    println!("(paper: on per-event sequences Siesta has clearly higher similarity than MINIME)");
}
