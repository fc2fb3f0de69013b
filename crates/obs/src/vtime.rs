//! Virtual-time exporters.
//!
//! Where `crate::chrome` exports *wall-clock* spans of the synthesis
//! pipeline, this module exports *virtual-time* intervals recorded by the
//! simulator's profiler: one Chrome-trace track per simulated rank with
//! timestamps in virtual microseconds, plus a deterministic
//! per-call-class wait/transfer table for `--stats`-style reports.
//!
//! Virtual timestamps are a pure function of the simulated program, so —
//! unlike the wall-clock exporters — these outputs need no separate
//! canonical form: they are byte-identical at any `--threads` width by
//! construction, provided the caller feeds spans in a deterministic order
//! (tracks ascending, events in program order).
//!
//! Above a track threshold the exporter *strides* the rank axis (every
//! k-th track) so a 64k-rank trace stays loadable; skipped tracks and
//! events are counted exactly and embedded in the trace metadata, the
//! same drop-accounting discipline as the flight recorder's ring mode.

use std::fmt::Write as _;

/// One exported interval: `track` is the Chrome `tid` (the simulated
/// rank), times are virtual nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct VtSpan {
    pub track: u32,
    /// Interval label (an MPI function name; must not need JSON escaping).
    pub name: &'static str,
    pub ts_ns: f64,
    pub dur_ns: f64,
    /// Blocked-wait portion of the interval, exported as an arg.
    pub wait_ns: f64,
    /// Payload bytes of the call, exported as an arg.
    pub bytes: u64,
}

/// Coverage accounting embedded in the exported trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct VtTraceMeta {
    pub tracks_total: usize,
    pub tracks_exported: usize,
    /// Events on tracks elided by striding (at export).
    pub events_skipped: u64,
}

/// Stride for exporting `ntracks` tracks while emitting at most
/// `max_tracks` of them (`0` disables the cap). Tracks `0, s, 2s, …` are
/// kept, so rank 0 is always present.
pub fn export_stride(ntracks: usize, max_tracks: usize) -> usize {
    if max_tracks == 0 || ntracks <= max_tracks {
        1
    } else {
        ntracks.div_ceil(max_tracks)
    }
}

fn push_us(out: &mut String, ns: f64) {
    // Fixed microsecond formatting with nanosecond resolution: f64
    // formatting in Rust is deterministic across platforms.
    let _ = write!(out, "{:.3}", ns / 1000.0);
}

/// Render spans as a Chrome-trace JSON document in virtual time: complete
/// (`ph:"X"`) events, `pid` 0, one `tid` per track, `ts`/`dur` in virtual
/// microseconds. `spans` must already be filtered to the exported tracks
/// and ordered deterministically.
pub fn chrome_trace_json(spans: &[VtSpan], meta: &VtTraceMeta) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":",
            s.name, s.track
        );
        push_us(&mut out, s.ts_ns);
        out.push_str(",\"dur\":");
        push_us(&mut out, s.dur_ns);
        out.push_str(",\"args\":{\"wait_us\":");
        push_us(&mut out, s.wait_ns);
        let _ = write!(out, ",\"bytes\":{}}}}}", s.bytes);
    }
    let _ = write!(
        out,
        "\n],\n\"displayTimeUnit\":\"ms\",\n\"siestaVtMeta\":{{\"tracks_total\":{},\
         \"tracks_exported\":{},\"events_skipped\":{}}}\n}}\n",
        meta.tracks_total, meta.tracks_exported, meta.events_skipped
    );
    out
}

/// One row of the per-call-class wait/transfer table.
#[derive(Debug, Clone, Copy)]
pub struct ClassRow {
    pub name: &'static str,
    pub count: u64,
    /// Total virtual time inside calls of this class.
    pub total_ns: f64,
    /// Blocked-wait portion of `total_ns`.
    pub wait_ns: f64,
    pub bytes: u64,
}

/// Render the wait/transfer breakdown: per class, call count, total
/// virtual milliseconds, the blocked-wait and local transfer/overhead
/// split, and payload volume. Rows render in the order given (callers
/// sort; the table is part of deterministic artifacts).
pub fn render_class_table(rows: &[ClassRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "call class                  count    total ms     wait ms    xfer ms       bytes\n",
    );
    let mut count = 0u64;
    let (mut total, mut wait, mut bytes) = (0.0f64, 0.0f64, 0u64);
    for r in rows {
        let _ = writeln!(
            out,
            "{:<24} {:>9} {:>11.3} {:>11.3} {:>10.3} {:>11}",
            r.name,
            r.count,
            r.total_ns / 1e6,
            r.wait_ns / 1e6,
            (r.total_ns - r.wait_ns) / 1e6,
            r.bytes
        );
        count += r.count;
        total += r.total_ns;
        wait += r.wait_ns;
        bytes += r.bytes;
    }
    let _ = writeln!(
        out,
        "{:<24} {:>9} {:>11.3} {:>11.3} {:>10.3} {:>11}",
        "total",
        count,
        total / 1e6,
        wait / 1e6,
        (total - wait) / 1e6,
        bytes
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_covers_and_caps() {
        assert_eq!(export_stride(10, 0), 1);
        assert_eq!(export_stride(10, 16), 1);
        assert_eq!(export_stride(16, 16), 1);
        assert_eq!(export_stride(17, 16), 2);
        assert_eq!(export_stride(65536, 256), 256);
        // The kept set {0, s, 2s, …} never exceeds max_tracks.
        for n in [1usize, 7, 255, 256, 257, 1000, 65536] {
            let s = export_stride(n, 256);
            assert!(n.div_ceil(s) <= 256, "n={n} stride={s}");
        }
    }

    #[test]
    fn trace_json_shape_and_determinism() {
        let spans = [
            VtSpan { track: 0, name: "MPI_Send", ts_ns: 1500.0, dur_ns: 250.0, wait_ns: 0.0, bytes: 64 },
            VtSpan { track: 3, name: "MPI_Recv", ts_ns: 1000.0, dur_ns: 900.5, wait_ns: 700.5, bytes: 0 },
        ];
        let meta = VtTraceMeta { tracks_total: 4, tracks_exported: 2, events_skipped: 5 };
        let a = chrome_trace_json(&spans, &meta);
        assert_eq!(a, chrome_trace_json(&spans, &meta));
        assert!(a.contains("\"tid\":3"));
        assert!(a.contains("\"ts\":1.500"));
        assert!(a.contains("\"dur\":0.900"));
        assert!(a.contains("\"events_skipped\":5"));
        assert!(a.contains("\"wait_us\":0.701"));
    }

    #[test]
    fn class_table_totals() {
        let rows = [
            ClassRow { name: "MPI_Send", count: 2, total_ns: 2e6, wait_ns: 0.5e6, bytes: 128 },
            ClassRow { name: "MPI_Recv", count: 1, total_ns: 1e6, wait_ns: 1e6, bytes: 0 },
        ];
        let t = render_class_table(&rows);
        assert!(t.contains("MPI_Send"));
        assert!(t.lines().last().unwrap().starts_with("total"));
        assert!(t.contains("3.000")); // total ms row
    }
}
