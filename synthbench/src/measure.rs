//! Measurement helpers: order statistics, memory and CPU probes, content
//! hashing, the run record's commit lookup, and the JSON result line.

use std::fmt::Write as _;
use std::path::Path;

/// Median of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest of `xs`.
pub fn min(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "min of no samples");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
/// A single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let ld = v.len();
    let q = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Reset this process's peak-RSS high-water mark (`VmHWM`) to its current
/// resident set, so the next read covers only what runs in between.
/// Returns false where the kernel does not offer the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Process CPU time over all threads, in nanoseconds.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_ns() -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec with the C layout of a
    // 64-bit Linux target, and the clock id is a valid constant; the call
    // writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_ns() -> Option<u64> {
    None
}

/// 64-bit FNV-1a: a content hash of the proxy bytes that depends on this
/// file alone, so equal bytes print equal hashes on every commit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The commit the checkout was made from, read from `.git` without
/// running git; "unknown" outside a git work tree.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest representation that round-trips, so
        // every digit measured reaches the reader. NaN and infinity are
        // not JSON numbers.
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(
            true,
            3,
            0,
            &[
                Metric { name: "setup_s", value: 0.5, unit: "s" },
                Metric { name: "ok_pct", value: 100.0, unit: "%" },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"ok_pct\": {\"value\": 100.0, \"unit\": \"%\"}}}"
        );
    }
}
