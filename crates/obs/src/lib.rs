//! `siesta-obs` — flight-recorder observability for the synthesis pipeline.
//!
//! Siesta's whole premise is measurement, so the pipeline itself must be
//! measurable — without distorting what it measures. This crate provides
//! small, hand-rolled facilities (workspace-internal only — the build
//! environment has no registry access):
//!
//! * **Leveled logging** ([`log`]): `error!` .. `trace!` macros gated by a
//!   single atomic level, configurable via `SIESTA_LOG` or `--log-level`.
//! * **Per-thread event log** ([`chunk_log`]): the one store behind both
//!   wall-clock spans and the simulator's virtual-time events. Each
//!   thread appends lock-free to its own chunk chain (a plain write and a
//!   release store of the chunk length), chunks recycle through a bounded
//!   pool, and an optional ring keeps each thread's newest records with
//!   an exact dropped count.
//! * **Flight-recorder spans** ([`span`]): RAII guards created with
//!   `span!("sequitur", rank = r)`, recorded into the event log. The
//!   record path is lock-free and allocation-free for a no-arg span;
//!   dynamic args are interned to `u64` content-hash ids ([`intern`]).
//!   A bounded ring mode (`SIESTA_OBS_CAP` / `--obs-cap`) caps memory
//!   with an exact dropped-span count. When profiling is disabled the
//!   macro early-outs on one relaxed atomic load and formats nothing.
//! * **Metrics** ([`metrics`]): process-global registry of monotonic
//!   counters, gauges, and log2-bucket histograms with p50/p95/p99.
//! * **Exporters**: Chrome trace-event JSON ([`chrome`], loadable in
//!   `chrome://tracing` / Perfetto, with the interned-args string table)
//!   and a per-phase report table ([`report`]) with inclusive *and*
//!   exclusive time ([`selftime`]). Both have canonical (timing-free)
//!   variants that are byte-identical across `--threads` widths.
//! * **Virtual-time exporters** ([`vtime`]): Chrome-trace and
//!   wait/transfer-table exporters for the simulator's per-rank profiler
//!   (deterministic by construction — virtual timestamps are a pure
//!   function of the simulated program).
//!
//! The overhead budget — <1% pipeline slowdown with profiling off, <5%
//! with `--profile` — is measured by `benches/obs_overhead.rs` in
//! `siesta-bench` and enforced in CI by `scripts/check_bench.py`.

pub mod chrome;
pub mod chunk_log;
pub mod intern;
pub mod log;
pub mod metrics;
pub mod report;
pub mod rss;
pub mod selftime;
pub mod span;
pub mod vtime;

pub use intern::ArgsId;
pub use log::{set_level_from_str, Level};
pub use metrics::{
    counter, gauge, histogram, metrics_snapshot, reset_metrics, Counter, Gauge, Histogram,
    HistogramSummary, MetricsSnapshot,
};
pub use rss::{peak_rss_bytes, rss_snapshot};
pub use selftime::self_times;
pub use span::{
    drain, drain_spans, profiling_enabled, register_thread, set_profiling_enabled,
    set_span_capacity, span_capacity, thread_index, DrainedSpans, FinishedSpan, SpanGuard,
};
