//! Differential oracle for the two trace front ends: the live one (interned
//! event ids feed each rank's online Sequitur as calls complete; the table
//! merge lifts those grammars to global ids by relabeling) and the offline
//! one (`synthesize_global`: expand every rank's merged sequence, then
//! batch-rebuild each grammar with Sequitur) must produce **byte-identical**
//! artifacts.
//!
//! The front ends share the simulator, the recorder, and the synthesis back
//! half but nothing in between: one relabels grammars built online through
//! composed table remaps (memoizing on a running content hash), the other
//! re-runs Sequitur per unique materialized sequence. If grammar
//! construction, table-merge remapping, memoization order, or flush
//! cadence leaked into the output anywhere, these runs would diverge. Every
//! comparison covers the full pipeline — proxy wire bytes, emitted C, the
//! columnar trace store, the synthesis report, traced run stats with the
//! event-schedule hash — on all nine paper workloads, across pool widths
//! 1/2/8, grammar memoization on/off, and stream buffers from the
//! flush-heavy minimum to `stream: false` (the largest buffer).
//!
//! ```sh
//! cargo test -p siesta-bench --test differential_engine
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use siesta_codegen::{emit_c, wire};
use siesta_core::{Siesta, SiestaConfig, Synthesis};
use siesta_perfmodel::{platform_a, Machine, MpiFlavor};
use siesta_trace::TraceConfig;
use siesta_workloads::{ProblemSize, Program};

/// Serializes tests: the pool width is process-global.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

const WIDTHS: [usize; 3] = [1, 2, 8];
const NPROCS: usize = 16;

fn machine() -> Machine {
    Machine::new(platform_a(), MpiFlavor::OpenMpi)
}

/// Everything a synthesis run externalizes, as bytes/strings to compare.
struct Output {
    wire_bytes: Vec<u8>,
    c_source: String,
    store_bytes: Vec<u8>,
    report: String,
    stats: String,
}

static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write the columnar store rank at a time from the merged grammars, the
/// way `siesta trace --out` does, and return the file's bytes.
fn store_file(sg: &siesta_trace::StreamedGlobal) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!(
        "siesta-diff-{}-{}.siestatrace",
        std::process::id(),
        STORE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    sg.write_store(&path).expect("store write");
    let bytes = std::fs::read(&path).expect("store read-back");
    std::fs::remove_file(&path).ok();
    bytes
}

/// One traced run, synthesized through the online lift (`offline: false`)
/// or through the offline expand-and-rebuild path (`offline: true`).
fn synthesize(offline: bool, width: usize, program: Program, config: SiestaConfig) -> Output {
    siesta_par::with_threads(width, || {
        let siesta = Siesta::new(config);
        let (st, traced) =
            siesta.trace_run_streamed(machine(), NPROCS, program.body(ProblemSize::Tiny));
        let sg = siesta.merge_streamed(st);
        let store_bytes = store_file(&sg);
        let synthesis: Synthesis = if offline {
            siesta.synthesize_global(sg.to_global_trace(), &machine())
        } else {
            siesta.synthesize_streamed_global(sg, &machine())
        };
        Output {
            wire_bytes: wire::to_bytes(&synthesis.program),
            c_source: emit_c(&synthesis.program),
            store_bytes,
            report: format!(
                "{:?} ratio={:.6}",
                synthesis.stats,
                synthesis.stats.compression_ratio()
            ),
            stats: format!("{:?} hash={:016x}", traced, traced.schedule_hash()),
        }
    })
}

/// The reference: width 1, default config, offline expand-and-rebuild.
fn baseline(program: Program) -> Output {
    synthesize(true, 1, program, SiestaConfig::default())
}

fn assert_same(program: Program, label: &str, got: &Output, baseline: &Output) {
    let name = program.name();
    assert_eq!(got.wire_bytes, baseline.wire_bytes, "{name}: wire bytes diverge ({label})");
    assert_eq!(got.c_source, baseline.c_source, "{name}: C source diverges ({label})");
    assert_eq!(
        got.store_bytes, baseline.store_bytes,
        "{name}: columnar trace store diverges ({label})"
    );
    assert_eq!(got.report, baseline.report, "{name}: synthesis report diverges ({label})");
    assert_eq!(got.stats, baseline.stats, "{name}: traced run stats diverge ({label})");
}

#[test]
fn streaming_matches_materialized_on_every_workload() {
    let _g = WIDTH_LOCK.lock().unwrap();
    for program in Program::ALL {
        let baseline = baseline(program);
        for &width in &WIDTHS {
            let got = synthesize(false, width, program, SiestaConfig::default());
            assert_same(program, &format!("online lift, {width} threads"), &got, &baseline);
        }
    }
}

#[test]
fn memo_and_buffer_toggles_agree_across_modes() {
    let _g = WIDTH_LOCK.lock().unwrap();
    let memo_off = SiestaConfig { grammar_memo: false, ..SiestaConfig::default() };
    // The flush-heavy extreme: every 16 events the buffer drains into the
    // online Sequitur. Grammar output must not depend on flush cadence.
    let tiny_buf = SiestaConfig {
        trace: TraceConfig { stream_buf: 16, ..TraceConfig::default() },
        ..SiestaConfig::default()
    };
    // `stream: false` buffers up to the largest accepted size: no rank of
    // these workloads ever flushes before the finish.
    let max_buf = SiestaConfig { stream: false, ..SiestaConfig::default() };
    for program in Program::ALL {
        let baseline = baseline(program);
        for (offline, width, config, label) in [
            (false, 2, memo_off, "online lift, no-memo, 2 threads"),
            (false, 1, memo_off, "online lift, no-memo, 1 thread"),
            (false, 8, tiny_buf, "online lift, 16-id buffer, 8 threads"),
            (false, 2, max_buf, "online lift, stream: false, 2 threads"),
            (true, 2, memo_off, "offline rebuild, no-memo, 2 threads"),
            (true, 8, tiny_buf, "offline rebuild, 16-id buffer, 8 threads"),
        ] {
            let got = synthesize(offline, width, program, config);
            assert_same(program, label, &got, &baseline);
        }
    }
}

#[test]
fn streamed_store_feeds_offline_synthesis() {
    let _g = WIDTH_LOCK.lock().unwrap();
    // The offline workflow: a store written rank-at-a-time by the live
    // path, decoded back in one validated pass, must synthesize to
    // the same proxy as the live run.
    for program in [Program::Sweep3d, Program::Is] {
        let live = synthesize(false, 2, program, SiestaConfig::default());
        let path = std::env::temp_dir().join(format!(
            "siesta-diff-offline-{}-{}.siestatrace",
            std::process::id(),
            program.name()
        ));
        std::fs::write(&path, &live.store_bytes).expect("store write");
        let global = siesta_trace::load_trace(&path).expect("store load");
        std::fs::remove_file(&path).ok();
        let synthesis =
            Siesta::new(SiestaConfig::default()).synthesize_global(global, &machine());
        assert_eq!(
            wire::to_bytes(&synthesis.program),
            live.wire_bytes,
            "{}: offline synthesis from streamed store diverges",
            program.name()
        );
    }
}
