//! `synthbench` — the end-to-end synthesis benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path synthbench/Cargo.toml -- \
//!     --workload cg-256 [--seed 0x51e57a] [--seconds 10] [--trace 0|1]
//! ```
//!
//! One process, one workload. Set-up spawns the `siesta-par` pool (width
//! 1), builds the machine (platform A + OpenMPI) and the program body,
//! writes the stored trace for the offline workload, and runs a reference
//! synthesis, whose proxy bytes become the reference.
//! Then syntheses run back to back (closed loop, one at a time) for
//! `--seconds`; each one's bytes must equal the reference. Ten more
//! set-ups are spread through the loop; their references must match too. After the timed
//! loop, once: the original program runs without a hook, the proxy is
//! replayed, and the two must agree on MPI call and byte totals.
//!
//! With `--trace 1` the loop alternates untraced and traced syntheses and
//! the result carries per-layer metrics instead of end-to-end ones.
//! `synthbench/METRICS.md` defines every workload and metric.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod layers;
mod measure;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use siesta_codegen::{emit_c, replay};
use siesta_core::time_error_pct;
use siesta_mpisim::RunStats;
use siesta_obs::counter;

use layers::Traced;
use measure::{median, min, quartiles, Metric};
use workload::{Bench, Output, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: synthbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
  workloads: cg-256, cg-256-offline (BENCHMARK.json); sweep3d-256-small, is-256,
             cg-1024, sweep3d-256, is-1024, cg-1024-offline
  --seed     World measurement-noise seed, decimal or 0x-hex (default 0x51e57a)
  --seconds  length of the timed loop (default 10)
  --trace    1 = report per-layer metrics from traced syntheses (default 0)";

/// `siesta-par` pool width. One worker: on a shared two-vCPU host
/// every scheduler round of a two-wide pool waits for the slower vCPU, and
/// run-to-run spread grew from ~10% to ~40% of the median (METRICS.md).
const WIDTH: usize = 1;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::find(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => {
                seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                }
                .map_err(|_| format!("--seed: not a u64: {value}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: not a positive number: {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("synthbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("synthbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".into())
}

/// Run `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| Err(panic_message(&*p)))
}

/// Every synthesis attempted, and those that panicked, deadlocked or
/// failed their byte check.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        guarded(f)
            .map_err(|e| {
                self.failed += 1;
                eprintln!("synthbench: {what} failed (counted, continuing): {e}");
            })
            .ok()
    }

    /// Count a completed run whose bytes differ from the reference.
    fn mismatch(&mut self, what: &str, got: &[u8], want: &[u8]) {
        self.failed += 1;
        eprintln!(
            "synthbench: {what} produced different proxy bytes ({} B, fnv1a64 {:016x}; \
             reference {} B, {:016x})",
            got.len(),
            measure::fnv1a64(got),
            want.len(),
            measure::fnv1a64(want)
        );
    }

    fn failed_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Removes the stored trace when the run ends, however it ends.
struct ScratchFile(PathBuf);

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        if let Some(dir) = self.0.parent() {
            let _ = std::fs::remove_dir(dir);
        }
    }
}

/// Set-ups per run: one before the timed loop, whose bench and reference
/// the loop uses, and the rest spread evenly through the loop, so that
/// their median covers the same stretch of the host's time as the
/// syntheses do. Each builds the workload afresh and runs its own
/// reference synthesis, and all must produce the same proxy bytes.
const SETUPS: usize = 11;

/// What set-up leaves for the timed loop and the checks.
struct Setup {
    bench: Bench,
    reference: Output,
    setup_s: f64,
    store_write_ms: f64,
    store_bytes: u64,
    /// Offline only: the online chain's bytes for the trace that was
    /// stored, which the offline chain must reproduce.
    online_bytes: Option<Vec<u8>>,
    _scratch: Option<ScratchFile>,
}

/// The first set-up, which also spawns the pool.
fn set_up(args: &Args, tally: &mut Tally) -> Result<Setup, String> {
    // Spawn the pool's workers now rather than inside the first region.
    let start = Instant::now();
    siesta_par::run_tasks(WIDTH, WIDTH, |_| ());
    let spawn_s = start.elapsed().as_secs_f64();
    let mut s = set_up_once(args, tally, 0)?;
    s.setup_s += spawn_s;
    Ok(s)
}

/// One set-up: build the machine and the program body, record and store
/// the trace for `-offline`, and run the reference synthesis.
fn set_up_once(args: &Args, tally: &mut Tally, index: usize) -> Result<Setup, String> {
    let w = args.workload;
    let start = Instant::now();
    let mut bench = Bench::new(w, siesta_bench::machine_a(), args.seed);
    let (mut store_write_ms, mut store_bytes, mut online_bytes, mut scratch) = (0.0, 0, None, None);
    let mut checking_s = 0.0;
    if w.offline {
        let dir = Path::new(".synthbench");
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.{}.{index}.siestatrace", w.name, std::process::id()));
        scratch = Some(ScratchFile(path.clone()));
        let (sg, events) = (0..3)
            .find_map(|_| tally.attempt("recording the stored trace", || bench.record_and_merge()))
            .ok_or("recording the stored trace failed 3 times")?;
        let t0 = Instant::now();
        sg.write_store(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        store_write_ms = t0.elapsed().as_secs_f64() * 1e3;
        store_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        let t0 = Instant::now();
        online_bytes = Some(bench.synthesize_merged(sg, events).bytes);
        checking_s = t0.elapsed().as_secs_f64();
        bench.store = Some(path);
    }
    let reference = (0..3)
        .find_map(|_| tally.attempt("reference synthesis", || bench.synthesize()))
        .ok_or("reference synthesis failed 3 times")?;
    let setup_s = start.elapsed().as_secs_f64() - checking_s;
    Ok(Setup {
        bench,
        reference,
        setup_s,
        store_write_ms,
        store_bytes,
        online_bytes,
        _scratch: scratch,
    })
}

/// Results of the once-per-invocation output checks.
struct Checks {
    ok: bool,
    original: Option<RunStats>,
    original_ms: f64,
    replay_ms: f64,
    time_err_pct: f64,
}

fn check_outputs(s: &Setup) -> Checks {
    let b = &s.bench;
    let mut ok = true;
    let mut fail = |what: String| {
        ok = false;
        eprintln!("synthbench: CHECK FAILED: {what}");
    };
    let t0 = Instant::now();
    let original = guarded(|| b.run(&b.world(None)));
    let original_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let proxy = guarded(|| Ok(replay(&s.reference.synthesis.program, b.machine)));
    let replay_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut time_err_pct = 0.0;
    match (&original, &proxy) {
        (Ok(orig), Ok(proxy)) => {
            if proxy.total_calls() != orig.total_calls() {
                fail(format!(
                    "replayed proxy made {} MPI calls, original {}",
                    proxy.total_calls(),
                    orig.total_calls()
                ));
            }
            if proxy.total_bytes() != orig.total_bytes() {
                fail(format!(
                    "replayed proxy sent {} bytes, original {}",
                    proxy.total_bytes(),
                    orig.total_bytes()
                ));
            }
            time_err_pct = time_error_pct(proxy, orig);
        }
        (Err(e), _) => fail(format!("original run: {e}")),
        (_, Err(e)) => fail(format!("proxy replay: {e}")),
    }
    if let Some(online) = &s.online_bytes {
        if *online != s.reference.bytes {
            fail("offline chain's proxy differs from the online chain's for the same trace".into());
        }
    } else if b.seed == DEFAULT_SEED {
        match guarded(|| Ok(b.library_bytes())) {
            Ok(lib) if lib == s.reference.bytes => {}
            Ok(_) => fail("proxy differs from Siesta::synthesize_run at the default seed".into()),
            Err(e) => fail(format!("Siesta::synthesize_run: {e}")),
        }
    }
    Checks { ok, original: original.ok(), original_ms, replay_ms, time_err_pct }
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let nproc = siesta_par::available_parallelism();
    siesta_par::set_threads(WIDTH);
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    println!(
        "# synthbench workload={} program={} ranks={} size={:?} chain={} seed={:#x} \
         nproc={nproc} pool_width={WIDTH} machine={} trace={} commit={}",
        w.name,
        w.program.name(),
        w.nranks,
        w.size,
        if w.offline { "offline" } else { "online" },
        args.seed,
        siesta_bench::machine_a().label(),
        u8::from(args.trace),
        measure::git_commit(&root),
    );
    let config = siesta_core::SiestaConfig::default();
    println!(
        "# config: stream={} stream_buf={} grammar_memo={} scale={}",
        config.stream, config.trace.stream_buf, config.grammar_memo, config.scale
    );

    let mut tally = Tally::default();
    let mut setup = set_up(args, &mut tally)?;
    let mut setup_times = vec![setup.setup_s];
    let b = &setup.bench;
    let reference = &setup.reference;

    // The timed loop: closed, one synthesis at a time.
    let mut per_synthesis_rss = true;
    let mut walls = Vec::new();
    let mut peaks = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let mut mismatches = 0u64;
    let loop_start = Instant::now();
    loop {
        let due = args.seconds * (setup_times.len() - 1) as f64 / (SETUPS - 1) as f64;
        if setup_times.len() < SETUPS && loop_start.elapsed().as_secs_f64() >= due {
            // Dropped at the end of the block, with its stored trace.
            let extra = set_up_once(args, &mut tally, setup_times.len())?;
            setup_times.push(extra.setup_s);
            if extra.reference.bytes != reference.bytes {
                mismatches += 1;
                tally.mismatch(
                    "set-up reference synthesis",
                    &extra.reference.bytes,
                    &reference.bytes,
                );
            }
        }
        per_synthesis_rss &= measure::reset_peak_rss();
        let t0 = Instant::now();
        let out = tally.attempt("synthesis", || b.synthesize());
        let wall = t0.elapsed().as_secs_f64();
        let peak = siesta_obs::peak_rss_bytes().unwrap_or(0) as f64 / 1e6;
        if let Some(out) = out {
            if out.bytes == reference.bytes {
                walls.push(wall);
                peaks.push(peak);
            } else {
                mismatches += 1;
                tally.mismatch("synthesis", &out.bytes, &reference.bytes);
            }
        }
        if args.trace {
            if let Some((t, out)) =
                tally.attempt("traced synthesis", || layers::traced_synthesis(b))
            {
                if out.bytes == reference.bytes {
                    traced.push(t);
                } else {
                    mismatches += 1;
                    tally.mismatch("traced synthesis", &out.bytes, &reference.bytes);
                }
            }
        }
        let done =
            loop_start.elapsed().as_secs_f64() >= args.seconds && setup_times.len() == SETUPS;
        if done && (!walls.is_empty() || tally.failed >= 3) {
            break;
        }
    }

    println!(
        "# setup_s: {} set-ups, {} s (the first spawns the pool)",
        SETUPS,
        setup_times.iter().map(|t| format!("{t:.6}")).collect::<Vec<_>>().join(" ")
    );
    setup.setup_s = median(&setup_times);
    let checks = check_outputs(&setup);
    let correct = checks.ok && mismatches == 0 && !walls.is_empty();
    let hash = measure::fnv1a64(&reference.bytes);
    println!(
        "# proxy: {} B, fnv1a64 {hash:016x}; attempted {} failed {} (failed_pct {:.2} %); \
         byte checks {}",
        reference.bytes.len(),
        tally.attempted,
        tally.failed,
        tally.failed_pct(),
        if correct { "passed" } else { "FAILED" }
    );
    if walls.is_empty() || (args.trace && traced.is_empty()) {
        return Err("no synthesis succeeded; nothing to report".into());
    }

    let metrics = if args.trace {
        per_layer(&setup, &checks, &walls, &traced)?
    } else {
        end_to_end(&setup, &checks, &walls, &peaks, per_synthesis_rss, &tally)
    };
    for m in &metrics {
        println!("{:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", measure::result_json(correct, tally.attempted, tally.failed, &metrics));
    Ok(correct)
}

fn end_to_end(
    s: &Setup,
    checks: &Checks,
    walls: &[f64],
    peaks: &[f64],
    per_synthesis_rss: bool,
    tally: &Tally,
) -> Vec<Metric> {
    // The fastest synthesis of the run, not the median: a shared 2-vCPU
    // virtual machine ran at two speeds in spells of 10-20 s, so a run's
    // median landed on either speed, and over ten seeds the minimum
    // spread less (METRICS.md, "Host noise").
    let wall = min(walls);
    let (q1, q3) = quartiles(walls);
    println!(
        "# synth_wall_s: min {wall:.6} q1 {q1:.6} median {:.6} q3 {q3:.6} n {}; events {}; \
         peak RSS scope {}; each set-up includes its reference synthesis",
        median(walls),
        walls.len(),
        s.reference.events,
        if per_synthesis_rss { "one synthesis (VmHWM reset before each)" } else { "process" },
    );
    // The result line carries complements of these two: both sit near 0,
    // where a seed-to-seed wobble of a few hundredths of a percent is a
    // large share of the value (METRICS.md).
    println!("# proxy_time_err_pct {} %", checks.time_err_pct);
    println!("# failed_pct {} %", tally.failed_pct());
    vec![
        Metric { name: "synth_wall_min_s", value: wall, unit: "s" },
        Metric { name: "events_per_s", value: s.reference.events as f64 / wall, unit: "1/s" },
        Metric { name: "peak_rss_mb", value: median(peaks), unit: "MB" },
        Metric { name: "setup_s", value: s.setup_s, unit: "s" },
        Metric { name: "proxy_time_fidelity_pct", value: 100.0 - checks.time_err_pct, unit: "%" },
        Metric {
            name: "compression_ratio",
            value: s.reference.synthesis.stats.compression_ratio(),
            unit: "x",
        },
        Metric { name: "ok_pct", value: 100.0 - tally.failed_pct(), unit: "%" },
    ]
}

/// A per-layer metric, or the reason it does not apply to this workload
/// (reported as 0).
fn layer(name: &'static str, value: f64, unit: &'static str, na: Option<&str>) -> Metric {
    if let Some(why) = na {
        println!("# {name}: not applicable ({why})");
    }
    Metric { name, value: if na.is_some() { 0.0 } else { value }, unit }
}

fn per_layer(
    s: &Setup,
    checks: &Checks,
    walls: &[f64],
    traced: &[Traced],
) -> Result<Vec<Metric>, String> {
    let b = &s.bench;
    let offline = b.workload.offline;
    // Report the fastest traced synthesis, whole, so its self times still
    // sum to its wall time; it is compared with the fastest untraced one,
    // as `synth_wall_min_s` is.
    let t = traced.iter().min_by(|x, y| x.wall_ms.total_cmp(&y.wall_ms)).expect("traced runs");
    let st = t.self_times();
    let untraced_ms = min(walls) * 1e3;
    let sum = st.mpisim + st.trace + st.grammar + st.proxy + st.core + st.codegen + st.unattributed;
    println!(
        "# traced: {} traced / {} untraced syntheses; reported traced wall {:.3} ms = \
         layer self times + unattributed ({sum:.3} ms)",
        traced.len(),
        walls.len(),
        t.wall_ms
    );

    // Untraced simulator timings and scheduler counts, online only: the
    // offline chain never simulates.
    let (mut run_1t_ms, mut run_2t_ms, mut rounds, mut wakes) = (0.0, 0.0, 0, 0);
    let two_wide = siesta_par::available_parallelism() >= 2;
    if !offline {
        let timed_run = |threads| -> Result<f64, String> {
            let t0 = Instant::now();
            guarded(|| siesta_par::with_threads(threads, || b.run(&b.world(None))))?;
            Ok(t0.elapsed().as_secs_f64() * 1e3)
        };
        run_1t_ms = timed_run(1)?;
        if two_wide {
            run_2t_ms = timed_run(2)?;
        }
        let (r0, w0) =
            (counter("obs.sim.sched.rounds").get(), counter("obs.sim.sched.wakes").get());
        siesta_obs::set_profiling_enabled(true);
        let counted = guarded(|| b.run(&b.world(None)));
        siesta_obs::set_profiling_enabled(false);
        counted?;
        rounds = counter("obs.sim.sched.rounds").get() - r0;
        wakes = counter("obs.sim.sched.wakes").get() - w0;
    }
    let t0 = Instant::now();
    std::hint::black_box(emit_c(&s.reference.synthesis.program));
    let emit_c_ms = t0.elapsed().as_secs_f64() * 1e3;
    let original = checks.original.as_ref().ok_or("original run failed")?;

    let sim_na =
        offline.then_some("the offline chain starts from a stored trace and never simulates");
    let store_na = (!offline).then_some("the online chain writes and reads no trace store");
    let seq_na =
        (!offline).then_some("online grammars are built during recording, inside trace.hook");
    Ok(vec![
        layer("mpisim.run_ms", checks.original_ms, "ms", sim_na),
        layer("mpisim.run_1t_ms", run_1t_ms, "ms", sim_na),
        layer(
            "mpisim.run_2t_ms",
            run_2t_ms,
            "ms",
            sim_na.or((!two_wide).then_some("the host has one core")),
        ),
        layer("mpisim.self_ms", st.mpisim, "ms", sim_na),
        layer("mpisim.calls", original.total_calls() as f64, "count", None),
        layer("mpisim.bytes", original.total_bytes() as f64, "B", None),
        layer("mpisim.virtual_ms", original.elapsed_ms(), "ms", None),
        layer("mpisim.sched_rounds", rounds as f64, "count", sim_na),
        layer("mpisim.sched_wakes", wakes as f64, "count", sim_na),
        layer("trace.hook_ms", t.hook_ms, "ms", sim_na),
        layer("trace.hook_cpu_ms", t.hook_cpu_ms, "ms", sim_na),
        layer(
            "trace.hook_ns_per_call",
            t.hook_cpu_ms * 1e6 / (t.hook_calls as f64 / 2.0).max(1.0),
            "ns",
            sim_na,
        ),
        layer("trace.finish_ms", t.finish_ms, "ms", sim_na),
        layer("trace.stream_flushes", t.stream_flushes as f64, "count", sim_na),
        layer("trace.events", t.events as f64, "count", None),
        layer("trace.merge_ms", t.merge_ms, "ms", sim_na),
        layer("trace.store_write_ms", s.store_write_ms, "ms", store_na),
        layer("trace.load_ms", t.load_ms, "ms", store_na),
        layer("trace.store_bytes", s.store_bytes as f64, "B", store_na),
        layer("trace.self_ms", st.trace, "ms", None),
        layer("grammar.sequitur_ms", t.sequitur_ms, "ms", seq_na),
        layer("grammar.merge_ms", t.grammar_merge_ms, "ms", None),
        layer(
            "grammar.memo_hit_rate",
            t.memo_hits as f64 / b.workload.nranks as f64,
            "ratio",
            None,
        ),
        layer("grammar.lcs_cells", t.lcs_cells as f64, "count", None),
        layer("grammar.merged_rules", t.merged_rules as f64, "count", None),
        layer("grammar.self_ms", st.grammar, "ms", None),
        layer("proxy.search_ms", t.search_ms, "ms", None),
        layer("proxy.unique_solves", t.unique_solves as f64, "count", None),
        layer("proxy.self_ms", st.proxy, "ms", None),
        layer("core.synth_back_ms", t.synth_back_ms, "ms", None),
        layer("core.self_ms", st.core, "ms", None),
        layer("codegen.encode_ms", t.encode_ms, "ms", None),
        layer("codegen.proxy_bytes", s.reference.bytes.len() as f64, "B", None),
        layer("codegen.emit_c_ms", emit_c_ms, "ms", None),
        layer("codegen.replay_ms", checks.replay_ms, "ms", None),
        layer("codegen.self_ms", st.codegen, "ms", None),
        layer("par.threads", siesta_par::threads() as f64, "count", None),
        layer("bench.traced_wall_ms", t.wall_ms, "ms", None),
        layer("bench.unattributed_ms", st.unattributed, "ms", None),
        layer(
            "bench.trace_overhead_pct",
            100.0 * (t.wall_ms - untraced_ms) / untraced_ms,
            "%",
            None,
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::WORKLOADS;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn args_parse_and_reject() {
        let a =
            parse(&["--workload", "is-1024", "--seed", "0x10", "--seconds", "3", "--trace", "1"])
                .expect("valid arguments");
        assert_eq!((a.workload.name, a.seed, a.seconds, a.trace), ("is-1024", 16, 3.0, true));
        assert_eq!(parse(&["--workload", "cg-1024"]).expect("defaults").seed, DEFAULT_SEED);
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "cg-1024", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "cg-1024", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload"]).is_err());
    }

    #[test]
    fn workload_names_are_unique() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[i + 1..].iter().all(|v| v.name != w.name));
            assert!(w.program.valid_nprocs(w.nranks));
        }
    }
}
