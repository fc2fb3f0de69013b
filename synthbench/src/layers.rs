//! The traced run: per-layer times taken from outside each crate, by timing
//! the calls the synthesis chain makes into its public functions.
//!
//! Layers are named after crates. Calls that run in sequence are timed
//! directly. Two layers run inside one call and are split out as follows:
//!
//! * `trace` inside `mpisim`: the recorder is wrapped in [`TimedHook`],
//!   which times a random eighth of `pre`/`post` calls on every thread and
//!   scales up. That is thread time; it becomes wall time by the share of
//!   process CPU time the run spent in the hook, so `mpisim` self time is
//!   the hooked `World::run` minus the hook's wall share.
//! * `grammar` and `proxy` inside `core`'s synthesis back half: their
//!   public entry points (`build_rank_grammars`, `merge_grammars`,
//!   `ProxySearcher::new` + `search_batch`) are called twice more on the
//!   same inputs, just before the back half runs; the faster call counts,
//!   and `core` self time is the back half minus them. Those repeat calls
//!   are left out of the traced wall time.
//!
//! The self times plus `bench.unattributed_ms` equal the traced wall time
//! by construction; the unattributed rest is the chain's own glue
//! (recorder and world construction) and timer overhead.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use siesta_codegen::wire;
use siesta_grammar::{build_rank_grammars, merge_grammars};
use siesta_mpisim::{HookCtx, MpiCall, PmpiHook};
use siesta_obs::counter;
use siesta_proxy::{shrink_counters, ProxySearcher};
use siesta_trace::{load_trace, EventRecord, GlobalTrace, Recorder, StreamedGlobal};

use crate::measure::process_cpu_ns;
use crate::workload::{Bench, Output};

/// One sampled call in `1 << SAMPLE_SHIFT`.
const SAMPLE_SHIFT: u32 = 3;
const SLOTS: usize = 64;

/// Per-thread hook accounting, padded so threads never share a line.
#[repr(align(64))]
#[derive(Default)]
struct Slot {
    calls: AtomicU64,
    sampled: AtomicU64,
    sampled_ns: AtomicU64,
}

static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// (slot index, xorshift state) of this thread.
    static LOCAL: Cell<(usize, u64)> = const { Cell::new((usize::MAX, 0)) };
}

/// A `PmpiHook` that forwards to the recorder and times a random sample
/// of its calls. Its virtual cost is the recorder's, so the simulated run
/// and the proxy bytes are the untraced ones.
pub struct TimedHook {
    inner: Arc<Recorder>,
    slots: Vec<Slot>,
}

impl TimedHook {
    pub fn new(inner: Arc<Recorder>) -> TimedHook {
        TimedHook { inner, slots: (0..SLOTS).map(|_| Slot::default()).collect() }
    }

    #[inline]
    fn timed(&self, f: impl FnOnce()) {
        let (slot, sample) = LOCAL.with(|l| {
            let (mut slot, mut x) = l.get();
            if slot == usize::MAX {
                slot = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS;
                x = 0x9e37_79b9_7f4a_7c15 ^ (slot as u64 + 1);
            }
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            l.set((slot, x));
            (slot, x >> (64 - SAMPLE_SHIFT) == 0)
        });
        // Each thread owns its slot (fewer threads than slots), so plain
        // load + store counts exactly without a locked instruction; the
        // totals are read after the run, once the pool is idle.
        let s = &self.slots[slot];
        let bump =
            |a: &AtomicU64, n: u64| a.store(a.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        bump(&s.calls, 1);
        if sample {
            let t = Instant::now();
            f();
            bump(&s.sampled_ns, t.elapsed().as_nanos() as u64);
            bump(&s.sampled, 1);
        } else {
            f();
        }
    }

    /// (hook invocations, estimated thread-time ns spent in the recorder).
    fn totals(&self) -> (u64, f64) {
        let sum = |f: fn(&Slot) -> &AtomicU64| -> u64 {
            self.slots.iter().map(|s| f(s).load(Ordering::Relaxed)).sum()
        };
        let (calls, sampled, ns) = (sum(|s| &s.calls), sum(|s| &s.sampled), sum(|s| &s.sampled_ns));
        let est = if sampled == 0 { 0.0 } else { ns as f64 * calls as f64 / sampled as f64 };
        (calls, est)
    }
}

impl PmpiHook for TimedHook {
    fn pre(&self, ctx: &HookCtx, call: &MpiCall) {
        self.timed(|| self.inner.pre(ctx, call));
    }

    fn post(&self, ctx: &HookCtx, call: &MpiCall) {
        self.timed(|| self.inner.post(ctx, call));
    }

    fn overhead_ns(&self) -> f64 {
        self.inner.overhead_ns()
    }
}

/// Per-layer figures of one traced synthesis, in milliseconds unless named
/// otherwise. Fields that do not apply to the chain stay zero.
#[derive(Default, Clone)]
pub struct Traced {
    pub wall_ms: f64,
    // mpisim
    pub run_hooked_ms: f64,
    // trace
    pub hook_ms: f64,
    pub hook_cpu_ms: f64,
    pub hook_calls: u64,
    pub finish_ms: f64,
    pub merge_ms: f64,
    pub load_ms: f64,
    pub events: usize,
    pub stream_flushes: u64,
    // grammar
    pub sequitur_ms: f64,
    pub grammar_merge_ms: f64,
    pub memo_hits: u64,
    pub lcs_cells: u64,
    pub merged_rules: usize,
    // proxy
    pub search_ms: f64,
    pub unique_solves: u64,
    // core
    pub synth_back_ms: f64,
    // codegen
    pub encode_ms: f64,
}

/// Layer self times of a traced synthesis, in the order they are printed.
pub struct SelfTimes {
    pub mpisim: f64,
    pub trace: f64,
    pub grammar: f64,
    pub proxy: f64,
    pub core: f64,
    pub codegen: f64,
    pub unattributed: f64,
}

impl Traced {
    pub fn self_times(&self) -> SelfTimes {
        let grammar = self.sequitur_ms + self.grammar_merge_ms;
        let s = SelfTimes {
            mpisim: self.run_hooked_ms - self.hook_ms,
            trace: self.hook_ms + self.finish_ms + self.merge_ms + self.load_ms,
            grammar,
            proxy: self.search_ms,
            core: self.synth_back_ms - grammar - self.search_ms,
            codegen: self.encode_ms,
            unattributed: 0.0,
        };
        let attributed = s.mpisim + s.trace + s.grammar + s.proxy + s.core + s.codegen;
        SelfTimes { unattributed: self.wall_ms - attributed, ..s }
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// What the front half of a chain hands to the back half.
enum Front {
    Streamed(StreamedGlobal),
    Loaded(GlobalTrace),
}

/// One traced synthesis through the workload's chain. Returns the layer
/// figures and the output, whose bytes must equal the untraced ones.
pub fn traced_synthesis(b: &Bench) -> Result<(Traced, Output), String> {
    let mut t = Traced::default();
    let start = Instant::now();
    let front = match &b.store {
        None => Front::Streamed(traced_front(b, &mut t)?),
        Some(path) => {
            let t0 = Instant::now();
            let global = load_trace(path).map_err(|e| format!("{}: {e}", path.display()))?;
            t.load_ms = ms_since(t0);
            t.events = global.seqs.iter().map(Vec::len).sum();
            Front::Loaded(global)
        }
    };

    let side = Instant::now();
    repeat_children(b, &front, &mut t);
    let excluded_ms = ms_since(side);

    let t0 = Instant::now();
    let synthesis = match front {
        Front::Streamed(sg) => b.siesta.synthesize_streamed_global(sg, &b.machine),
        Front::Loaded(global) => b.siesta.synthesize_global(global, &b.machine),
    };
    t.synth_back_ms = ms_since(t0);
    let t0 = Instant::now();
    let bytes = wire::to_bytes(&synthesis.program);
    t.encode_ms = ms_since(t0);
    t.wall_ms = ms_since(start) - excluded_ms;
    let events = t.events;
    Ok((t, Output { bytes, synthesis, events }))
}

/// The online front half, hooked: simulate + record, finish, merge.
fn traced_front(b: &Bench, t: &mut Traced) -> Result<StreamedGlobal, String> {
    let recorder = b.recorder();
    let hook = Arc::new(TimedHook::new(recorder.clone()));
    let world = b.world(Some(hook.clone()));
    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    b.run(&world)?;
    t.run_hooked_ms = ms_since(t0);
    let cpu_ms = process_cpu_ns().zip(cpu0).map(|(c1, c0)| c1.saturating_sub(c0) as f64 / 1e6);
    let (calls, hook_ns) = hook.totals();
    t.hook_calls = calls;
    t.hook_cpu_ms = hook_ns / 1e6;
    // Wall share of the hook: its share of the CPU time the run used,
    // applied to the run's wall time. Without a CPU clock, assume every
    // pool thread was busy throughout.
    t.hook_ms = match cpu_ms {
        Some(cpu) if cpu > 0.0 => t.hook_cpu_ms * t.run_hooked_ms / cpu,
        _ => t.hook_cpu_ms / siesta_par::threads() as f64,
    };

    let flushes = counter("trace.stream.flushes").get();
    let t0 = Instant::now();
    let st = recorder.finish_streamed();
    t.finish_ms = ms_since(t0);
    t.stream_flushes = counter("trace.stream.flushes").get() - flushes;
    t.events = st.total_events();

    let hits = counter("grammar.memo.stream_hits").get();
    let t0 = Instant::now();
    let sg = b.siesta.merge_streamed(st);
    t.merge_ms = ms_since(t0);
    t.memo_hits = counter("grammar.memo.stream_hits").get() - hits;
    Ok(sg)
}

/// Run `f` twice and keep the second result, the faster time in ms, and
/// how far `metric` advanced per call. The back half runs right after, on
/// the same warm data, so timing a cold first call would overstate the
/// child and leave `core.self_ms` negative.
fn warm<T>(metric: &'static str, mut f: impl FnMut() -> T) -> (T, f64, u64) {
    let before = counter(metric).get();
    let t0 = Instant::now();
    let discarded = f();
    let first = ms_since(t0);
    drop(discarded);
    let t0 = Instant::now();
    let out = f();
    let ms = ms_since(t0).min(first);
    (out, ms, (counter(metric).get() - before) / 2)
}

/// Call the grammar and proxy entry points the back half will call, on
/// the same inputs, and time them.
fn repeat_children(b: &Bench, front: &Front, t: &mut Traced) {
    let config = &b.siesta.config;
    let (table, built);
    let grammars = match front {
        Front::Streamed(sg) => {
            table = &sg.table;
            &sg.grammars
        }
        Front::Loaded(global) => {
            table = &global.table;
            let out = warm("grammar.memo.hits", || {
                build_rank_grammars(&global.seqs, config.grammar_memo)
            });
            (built, t.sequitur_ms, t.memo_hits) = out;
            &built
        }
    };
    let (merged, ms, cells) = warm("grammar.lcs_cells", || merge_grammars(grammars, &config.merge));
    (t.grammar_merge_ms, t.lcs_cells, t.merged_rules) = (ms, cells, merged.rules.len());

    let targets: Vec<_> = table
        .iter()
        .filter_map(|rec| match rec {
            EventRecord::Compute(stats) => Some(shrink_counters(&stats.mean(), config.scale)),
            EventRecord::Comm(_) => None,
        })
        .collect();
    let (_, ms, solves) =
        warm("proxy.batch.unique_solves", || ProxySearcher::new(&b.machine).search_batch(&targets));
    (t.search_ms, t.unique_solves) = (ms, solves);
}
