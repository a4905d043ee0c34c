//! Percentiles, failure accounting and the result line.

use std::collections::BTreeMap;

/// Nearest-rank percentile of an ascending slice (0 for an empty one).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Latencies of one request class in one phase, with failures charged.
///
/// A request that was shed, failed or never answered counts as missing
/// every latency limit: it enters the distribution with `penalty_ns`,
/// which the caller sets above any latency a served request could have
/// had (the time from the phase's start to its deadline).
#[derive(Debug, Default)]
pub struct Latencies {
    served: Vec<u64>,
    failed: u64,
    penalty_ns: u64,
}

impl Latencies {
    pub fn new(penalty_ns: u64) -> Self {
        Latencies {
            served: Vec::new(),
            failed: 0,
            penalty_ns,
        }
    }

    pub fn served(&mut self, ns: u64) {
        self.served.push(ns);
    }

    pub fn failed(&mut self) {
        self.failed += 1;
    }

    pub fn count(&self) -> u64 {
        self.served.len() as u64 + self.failed
    }

    /// Percentile in nanoseconds over served and failed requests alike.
    pub fn percentile_ns(&mut self, p: f64) -> u64 {
        let n = self.count() as usize;
        if n == 0 {
            return 0;
        }
        self.served.sort_unstable();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let rank = rank.clamp(1, n);
        if rank <= self.served.len() {
            self.served[rank - 1]
        } else {
            self.penalty_ns
        }
    }

    /// [`Latencies::percentile_ns`] in microseconds.
    pub fn percentile_us(&mut self, p: f64) -> f64 {
        self.percentile_ns(p) as f64 / 1e3
    }
}

/// A phase's latencies, whole and cut into equal windows of arrival
/// time. The median over windows of a windowed percentile is the steady
/// figure: a transient stall of the host spoils a window or two, not the
/// median. The whole-phase distribution keeps the rare tail.
#[derive(Debug)]
pub struct Windowed {
    pub all: Latencies,
    windows: Vec<Latencies>,
    start_ns: u64,
    width_ns: f64,
}

impl Windowed {
    /// `n` windows over arrivals in `[start_ns, start_ns + span_ns]`.
    pub fn new(penalty_ns: u64, start_ns: u64, span_ns: u64, n: usize) -> Self {
        Windowed {
            all: Latencies::new(penalty_ns),
            windows: (0..n.max(1)).map(|_| Latencies::new(penalty_ns)).collect(),
            start_ns,
            width_ns: (span_ns.max(1) as f64) / n.max(1) as f64,
        }
    }

    fn window(&mut self, at_ns: u64) -> &mut Latencies {
        let i = (at_ns.saturating_sub(self.start_ns) as f64 / self.width_ns) as usize;
        let last = self.windows.len() - 1;
        &mut self.windows[i.min(last)]
    }

    pub fn served(&mut self, at_ns: u64, ns: u64) {
        self.all.served(ns);
        self.window(at_ns).served(ns);
    }

    pub fn failed(&mut self, at_ns: u64) {
        self.all.failed();
        self.window(at_ns).failed();
    }

    /// Median over non-empty windows of each window's `p` percentile, us.
    pub fn median_us(&mut self, p: f64) -> f64 {
        let per_window: Vec<f64> = self
            .windows
            .iter_mut()
            .filter(|w| w.count() > 0)
            .map(|w| w.percentile_us(p))
            .collect();
        median(per_window)
    }
}

/// Fraction `part / whole`, with an empty whole reading as `empty`.
pub fn frac(part: u64, whole: u64, empty: f64) -> f64 {
    if whole == 0 {
        empty
    } else {
        part as f64 / whole as f64
    }
}

/// Named metrics with units, printed in name order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite float as JSON (non-finite values, which no metric should
/// produce, print as -1 so the line stays valid JSON).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

/// The result of one run: the benchmark's last output line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Why `correct` is false, for the log.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a failed correctness check.
    pub fn problem(&mut self, what: String) {
        eprintln!("correctness check failed: {what}");
        self.correct = false;
        self.problems.push(what);
    }

    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of a non-empty list of floats.
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 50.0), 50);
        assert_eq!(percentile(&xs, 95.0), 95);
        assert_eq!(percentile(&xs, 100.0), 100);
        assert_eq!(percentile(&xs, 0.0), 1);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn failures_are_charged_above_every_served_latency() {
        // 90 served at 1..=90 us, 10 failed: p50 is a served sample, p95
        // lands among the failures and reads the penalty.
        let mut lat = Latencies::new(5_000_000);
        for us in 1..=90u64 {
            lat.served(us * 1_000);
        }
        for _ in 0..10 {
            lat.failed();
        }
        assert_eq!(lat.count(), 100);
        assert_eq!(lat.percentile_ns(50.0), 50_000);
        assert_eq!(lat.percentile_ns(90.0), 90_000);
        assert_eq!(lat.percentile_ns(95.0), 5_000_000);
        assert_eq!(lat.percentile_us(99.0), 5_000.0);
    }

    #[test]
    fn all_failed_reads_the_penalty_and_empty_reads_zero() {
        let mut lat = Latencies::new(7);
        lat.failed();
        assert_eq!(lat.percentile_ns(50.0), 7);
        assert_eq!(Latencies::new(7).percentile_ns(50.0), 0);
    }

    #[test]
    fn result_line_is_json_with_units() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            failed: 1,
            ..Default::default()
        };
        o.metrics.put("b_us", 1.5, "us");
        o.metrics.put("a", f64::NAN, "count");
        assert_eq!(
            o.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"a\": {\"value\": -1, \"unit\": \"count\"}, \"b_us\": {\"value\": 1.5, \"unit\": \"us\"}}}"
        );
    }

    #[test]
    fn windowed_median_ignores_a_spoiled_window() {
        // Four windows of 1 s; arrivals 1 ms apart take 10 us, except in
        // the third window, where a stall makes them take 50 ms.
        let mut w = Windowed::new(9_000_000_000, 0, 4_000_000_000, 4);
        for i in 0..4_000u64 {
            let at = i * 1_000_000;
            w.served(
                at,
                if (2_000..3_000).contains(&i) {
                    50_000_000
                } else {
                    10_000
                },
            );
        }
        assert_eq!(w.median_us(95.0), 10.0);
        assert_eq!(w.all.percentile_us(95.0), 50_000.0);
        // Failures are charged inside their window.
        let mut f = Windowed::new(7_000, 0, 2_000, 2);
        f.served(10, 1_000);
        f.failed(1_500);
        assert_eq!(f.median_us(50.0), 4.0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
