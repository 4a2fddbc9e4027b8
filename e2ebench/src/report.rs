//! Reporting helpers shared by every workload: percentiles with their
//! sample counts, attempted/failed accounting, peak memory, the host
//! record, and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Samples a tail percentile must leave beyond it to be reported.
const TAIL_SAMPLES: usize = 10;

/// A timing summary: the median and a tail percentile, each with the
/// sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile actually reported, as a fraction (0.99 for p99).
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
}

impl Summary {
    /// Summarise `samples`, reporting `want` (e.g. 0.99) as the tail when
    /// at least ten samples lie beyond it, otherwise the highest whole
    /// percentile that still leaves ten beyond. `None` when the sample
    /// cannot support even a median with ten samples beyond it.
    pub fn of(samples: &[f64], want: f64) -> Option<Summary> {
        let count = samples.len();
        let tail_q = tail_quantile(count, want)?;
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            count,
            p50: nearest_rank(&sorted, 0.5),
            tail_q,
            tail: nearest_rank(&sorted, tail_q),
        })
    }

    /// `p50 12.3 us, p99 45.6 us (n=1234)` — the tail named by the
    /// percentile it really is.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.1} {unit}, p{} {:.1} {unit} (n={})",
            self.p50,
            percent_label(self.tail_q),
            self.tail,
            self.count
        )
    }
}

/// The highest whole percentile, at most `want`, that leaves at least ten
/// of `count` samples beyond it; `None` below the median.
pub fn tail_quantile(count: usize, want: f64) -> Option<f64> {
    if count == 0 {
        return None;
    }
    let supported = 1.0 - TAIL_SAMPLES as f64 / count as f64;
    // Whole percents only, so the reported name is exact.
    let q = (want.min(supported) * 100.0).floor() / 100.0;
    (q >= 0.5).then_some(q)
}

fn percent_label(q: f64) -> String {
    format!("{}", (q * 100.0).round() as u32)
}

/// Nearest-rank percentile of an ascending, non-empty slice.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Operations attempted and failed, with the failures broken down by
/// cause.
#[derive(Debug, Default, Clone)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    failures: BTreeMap<&'static str, u64>,
}

impl Ops {
    /// Count `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count `n` failures of the given cause (`n` may be zero).
    pub fn fail(&mut self, cause: &'static str, n: u64) {
        if n > 0 {
            *self.failures.entry(cause).or_insert(0) += n;
        }
    }

    /// Total failures.
    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// `cause=n` pairs, for the log.
    pub fn breakdown(&self) -> String {
        if self.failures.is_empty() {
            return "none".to_string();
        }
        self.failures
            .iter()
            .map(|(cause, n)| format!("{cause}={n}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_mb(&status)
}

/// The `VmHWM` line of a `/proc/<pid>/status` text, in MiB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = fields.next()?.parse().ok()?;
    match fields.next()? {
        "kB" => Some(value / 1024.0),
        _ => None,
    }
}

/// The host facts every result is recorded with, as one JSON object.
pub fn host_record() -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"transport\": \"tcp-loopback\", \"rustc\": {}}}}}",
        json_string(env!("E2EBENCH_RUSTC_VERSION"))
    )
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": v, "unit": u}, …}}`.
pub fn result_json(correct: bool, ops: &Ops, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.attempted,
        ops.failed()
    );
    for (i, metric) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(metric.name),
            json_number(metric.value),
            json_string(metric.unit)
        );
    }
    out.push_str("}}");
    out
}

/// A finite number with every digit Rust's shortest round-trip form gives;
/// non-finite values (which JSON cannot carry) become `null`.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        let text = format!("{value}");
        if text.contains(['.', 'e']) {
            text
        } else {
            format!("{text}.0")
        }
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_wanted_percentile_when_the_sample_supports_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let summary = Summary::of(&samples, 0.99).unwrap();
        assert_eq!(summary.count, 1000);
        assert_eq!(summary.p50, 500.0);
        assert_eq!(summary.tail_q, 0.99);
        assert_eq!(summary.tail, 990.0);
        assert_eq!(
            summary.describe("us"),
            "p50 500.0 us, p99 990.0 us (n=1000)"
        );
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
        // 200 samples leave ten beyond p95 but not beyond p99.
        assert_eq!(tail_quantile(200, 0.99), Some(0.95));
        assert_eq!(tail_quantile(250, 0.99), Some(0.96));
        assert_eq!(tail_quantile(1000, 0.95), Some(0.95));
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let summary = Summary::of(&samples, 0.99).unwrap();
        assert_eq!(summary.tail_q, 0.95);
        assert_eq!(summary.tail, 190.0);
        assert!(summary.describe("us").contains("p95"));
    }

    #[test]
    fn too_few_samples_give_no_summary() {
        assert_eq!(tail_quantile(0, 0.99), None);
        assert_eq!(tail_quantile(19, 0.99), None);
        assert_eq!(tail_quantile(20, 0.99), Some(0.5));
        assert!(Summary::of(&[1.0, 2.0], 0.99).is_none());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn ops_count_failures_by_cause() {
        let mut ops = Ops::default();
        ops.attempt(10);
        ops.fail("timeout", 2);
        ops.fail("error_ack", 0);
        ops.fail("timeout", 1);
        ops.fail("dropped", 4);
        assert_eq!(ops.attempted, 10);
        assert_eq!(ops.failed(), 7);
        assert_eq!(ops.breakdown(), "dropped=4 timeout=3");
        assert_eq!(Ops::default().breakdown(), "none");
    }

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t1 kB\n"), None);
        assert!(peak_rss_mb().unwrap() > 0.0, "this process has a peak RSS");
    }

    #[test]
    fn host_record_names_the_transport_and_toolchain() {
        let host = host_record();
        assert!(host.contains("\"transport\": \"tcp-loopback\""), "{host}");
        assert!(host.contains("\"rustc\": \"rustc "), "{host}");
        assert!(host.contains("\"nproc\": "), "{host}");
    }

    #[test]
    fn result_line_has_the_four_keys_and_full_digits() {
        let mut ops = Ops::default();
        ops.attempt(3);
        ops.fail("timeout", 1);
        let line = result_json(
            true,
            &ops,
            &[
                Metric {
                    name: "setup_s",
                    value: 0.812_734_5,
                    unit: "s",
                },
                Metric {
                    name: "count",
                    value: 3.0,
                    unit: "count",
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"setup_s\": \
             {\"value\": 0.8127345, \"unit\": \"s\"}, \"count\": {\"value\": 3.0, \"unit\": \
             \"count\"}}}"
        );
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
