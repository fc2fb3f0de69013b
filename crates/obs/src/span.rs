//! Flight-recorder spans: per-thread lock-free recording with RAII
//! guards.
//!
//! `span!("sequitur", rank = r)` returns a [`SpanGuard`]; dropping it
//! appends a [`FinishedSpan`] to the calling thread's chain in the shared
//! per-thread event log ([`crate::chunk_log`]). The commit path takes
//! **no locks and performs no heap allocation** for a no-arg span once
//! the thread has a head chunk: it writes one `Copy` record and publishes
//! it with a release store. When profiling is disabled (the default) the
//! macro performs a single relaxed atomic load and returns an inert guard
//! without formatting its arguments, so instrumented hot paths stay
//! effectively free. Worker threads of the `siesta-par` pool register at
//! spawn ([`register_thread`]), so no span on a worker pays registration.
//!
//! # Bounded mode
//!
//! With a capacity set (`SIESTA_OBS_CAP` env var or
//! [`set_span_capacity`], surfaced as `--obs-cap` on the CLI), each
//! thread keeps only its newest spans as a ring, and [`drain`] reports
//! exactly how many were lost. Long runs get bounded memory; the newest
//! spans always survive.
//!
//! # Draining
//!
//! [`drain`] takes every thread's recorded spans and merge-sorts them by
//! `(start_ns, tid, name)` — a deterministic order, so exports are
//! byte-stable. Spans committed while a drain runs are either in it or
//! kept for the next one; none is lost or torn.
//!
//! Timestamps are nanoseconds since the first use of the clock in this
//! process (a monotonic epoch), which maps directly onto the Chrome
//! trace-event `ts` field after dividing by 1000.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{LazyLock, OnceLock};
use std::time::Instant;

use crate::chunk_log::{ChunkLog, ChunkPool, LogHead};
use crate::intern::ArgsId;

/// Master switch. Off by default; flipped by `--profile`.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is span collection on? One relaxed load; call before doing any work
/// whose only purpose is feeding the profiler.
#[inline]
pub fn profiling_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

pub fn set_profiling_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-local monotonic epoch.
#[inline]
pub fn clock_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    /// Small dense per-thread id for the Chrome `tid` field (the OS
    /// thread id is neither stable nor compact).
    static TID: Cell<u32> = const { Cell::new(0) };
    /// Current span nesting depth on this thread.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// This thread's write head in [`SPANS`].
    static HEAD: LogHead = const { LogHead::new() };
}

/// Small dense id of the calling thread (1, 2, …, in first-use order).
/// Stable for the thread's lifetime; shared with the span recorder's
/// Chrome `tid` field. Cheap enough for per-event sharding decisions.
#[inline]
pub fn thread_index() -> u32 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(v);
            v
        }
    })
}

/// A completed span, ready for export. Plain `Copy` data: the args are an
/// interned id ([`crate::intern`]), not an owned string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinishedSpan {
    pub name: &'static str,
    /// Interned `key=value` pairs; [`ArgsId::NONE`] if none.
    pub args: ArgsId,
    pub tid: u32,
    pub depth: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

impl FinishedSpan {
    /// The formatted args behind [`FinishedSpan::args`] (`""` if none).
    pub fn args_str(&self) -> &'static str {
        crate::intern::resolve(self.args)
    }
}

/// Drained chunks parked for reuse (~1.5 MB at most).
static POOL: ChunkPool<FinishedSpan> = ChunkPool::new(64);

/// The span log; its ring capacity starts from `SIESTA_OBS_CAP`.
static SPANS: LazyLock<ChunkLog<FinishedSpan>> = LazyLock::new(|| {
    let log = ChunkLog::new(&POOL);
    let env = std::env::var("SIESTA_OBS_CAP").ok().and_then(|v| v.parse().ok());
    log.set_ring_cap(env.unwrap_or(0));
    log
});

/// Bound every thread to a ring of its newest `cap` spans (0 = unbounded,
/// the default). Overrides `SIESTA_OBS_CAP`; surfaced as `--obs-cap` on
/// the CLI. A thread picks it up at its first span after the next drain,
/// so set it before recording.
pub fn set_span_capacity(cap: usize) {
    SPANS.set_ring_cap(cap);
}

/// The configured per-thread span capacity (0 = unbounded).
pub fn span_capacity() -> usize {
    SPANS.ring_cap()
}

/// Eagerly register this thread with the recorder (takes the registry
/// lock and a head chunk once). The `siesta-par` pool calls this from
/// each worker at spawn so no span recorded inside a parallel region
/// pays for registration.
pub fn register_thread() {
    SPANS.register(&HEAD);
}

/// Result of [`drain`]: the spans recorded since the last drain,
/// merge-sorted by `(start_ns, tid, name)`, plus how many bounded mode
/// dropped.
#[derive(Debug, Default)]
pub struct DrainedSpans {
    pub spans: Vec<FinishedSpan>,
    pub dropped: u64,
}

/// Collect all spans recorded since the last drain, leaving the recorder
/// empty. Deterministically ordered.
pub fn drain() -> DrainedSpans {
    let mut spans = Vec::new();
    let dropped = SPANS.drain(|s| spans.push(s));
    spans.sort_by(|a, b| {
        (a.start_ns, a.tid, a.name).cmp(&(b.start_ns, b.tid, b.name))
    });
    if dropped > 0 {
        crate::metrics::counter("obs.spans_dropped").add(dropped);
    }
    DrainedSpans { spans, dropped }
}

/// Take all spans recorded so far, leaving the recorder empty — the
/// spans-only view of [`drain`].
pub fn drain_spans() -> Vec<FinishedSpan> {
    drain().spans
}

/// RAII guard returned by [`span!`]. Records the span on drop.
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    /// `None` when profiling was off at creation time.
    live: Option<LiveSpan>,
}

struct LiveSpan {
    name: &'static str,
    args: ArgsId,
    start_ns: u64,
    depth: u32,
}

impl SpanGuard {
    #[inline]
    pub fn disabled() -> SpanGuard {
        SpanGuard { live: None }
    }

    /// Start a span now. Prefer the [`span!`] macro, which skips argument
    /// formatting and interning when profiling is off.
    pub fn start(name: &'static str, args: ArgsId) -> SpanGuard {
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        SpanGuard {
            live: Some(LiveSpan { name, args, start_ns: clock_ns(), depth }),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            let dur_ns = clock_ns().saturating_sub(live.start_ns);
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            SPANS.push(
                &HEAD,
                FinishedSpan {
                    name: live.name,
                    args: live.args,
                    tid: thread_index(),
                    depth: live.depth,
                    start_ns: live.start_ns,
                    dur_ns,
                },
            );
        }
    }
}

/// Format-and-intern helper for the [`span!`] macro: renders the args
/// into a reused thread-local buffer (no per-span `String`) and interns
/// the result.
#[doc(hidden)]
pub fn __intern_args(fill: impl FnOnce(&mut String)) -> ArgsId {
    thread_local! {
        static BUF: std::cell::RefCell<String> = const { std::cell::RefCell::new(String::new()) };
    }
    BUF.with(|b| {
        let mut buf = b.borrow_mut();
        buf.clear();
        fill(&mut buf);
        crate::intern::intern(&buf)
    })
}

/// Open a timed span: `let _g = span!("phase");` or
/// `let _g = span!("sequitur", rank = r, len = seq.len());`.
///
/// Argument values are captured with `Display` formatting into a reused
/// thread-local buffer and interned to a `u64` id — and only when
/// profiling is enabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::profiling_enabled() {
            $crate::SpanGuard::start($name, $crate::intern::ArgsId::NONE)
        } else {
            $crate::SpanGuard::disabled()
        }
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {
        if $crate::profiling_enabled() {
            let args = $crate::span::__intern_args(|buf| {
                use ::std::fmt::Write as _;
                $(
                    if !buf.is_empty() {
                        buf.push(' ');
                    }
                    let _ = ::std::write!(buf, concat!(stringify!($key), "={}"), $val);
                )+
            });
            $crate::SpanGuard::start($name, args)
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk_log::CHUNK;
    use std::sync::Mutex;

    /// Serializes tests that touch the process-global recorder state
    /// (profiling switch, span log, capacity).
    static RECORDER_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = locked();
        set_profiling_enabled(false);
        drain();
        {
            let _g = crate::span!("quiet", x = 1);
        }
        assert!(drain_spans().is_empty());
    }

    #[test]
    fn spans_nest_and_record() {
        let _g = locked();
        set_profiling_enabled(true);
        drain();
        {
            let _outer = crate::span!("outer");
            let _inner = crate::span!("inner", rank = 3);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        set_profiling_enabled(false);
        let spans = drain_spans();
        assert_eq!(spans.len(), 2);
        // Drain sorts by start: outer starts first, inner second.
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].name, "inner");
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[1].args_str(), "rank=3");
        assert!(spans[0].args.is_none());
        assert!(spans[0].dur_ns >= spans[1].dur_ns);
        assert!(spans[1].dur_ns >= 1_000_000);
        assert_eq!(spans[0].tid, spans[1].tid);
    }

    #[test]
    fn epochs_isolate_drains() {
        let _g = locked();
        set_profiling_enabled(true);
        drain();
        {
            let _a = crate::span!("first-epoch");
        }
        assert_eq!(drain_spans().len(), 1);
        {
            let _b = crate::span!("second-epoch");
            let _c = crate::span!("second-epoch");
        }
        set_profiling_enabled(false);
        let spans = drain_spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.name == "second-epoch"));
        assert!(drain_spans().is_empty());
    }

    #[test]
    fn ring_mode_keeps_newest_and_counts_dropped_exactly() {
        let _g = locked();
        set_profiling_enabled(true);
        drain();
        set_span_capacity(10);
        for i in 0..37 {
            let _s = crate::span!("ring", i = i);
        }
        set_span_capacity(0);
        set_profiling_enabled(false);
        let drained = drain();
        assert_eq!(drained.spans.len(), 10);
        assert_eq!(drained.dropped, 27);
        // The survivors are exactly the newest 10, in start order.
        let kept: Vec<&str> = drained.spans.iter().map(|s| s.args_str()).collect();
        let expect: Vec<String> = (27..37).map(|i| format!("i={i}")).collect();
        assert_eq!(kept, expect);
    }

    #[test]
    fn grows_past_one_chunk_without_loss() {
        let _g = locked();
        set_profiling_enabled(true);
        drain();
        let n = CHUNK * 2 + 100;
        for _ in 0..n {
            let _s = crate::span!("bulk");
        }
        set_profiling_enabled(false);
        let drained = drain();
        assert_eq!(drained.spans.len(), n);
        assert_eq!(drained.dropped, 0);
    }

    #[test]
    fn drain_is_sorted_across_threads() {
        let _g = locked();
        set_profiling_enabled(true);
        drain();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..50 {
                        let _s = crate::span!("mt", i = i);
                    }
                });
            }
        });
        set_profiling_enabled(false);
        let spans = drain_spans();
        assert_eq!(spans.len(), 200);
        assert!(spans
            .windows(2)
            .all(|w| (w[0].start_ns, w[0].tid) <= (w[1].start_ns, w[1].tid)));
        // Four distinct recording threads.
        let tids: std::collections::BTreeSet<u32> = spans.iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 4);
    }
}
