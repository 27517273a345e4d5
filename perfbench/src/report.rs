//! Measurement bookkeeping shared by the workloads: latency samples and
//! their percentiles, named metrics with units, input fingerprints, and
//! the per-layer readings taken from an `obs` registry.

use adhoc_graph::obs::MetricsSnapshot;
use serde_json::Value;

/// One named metric: value plus unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Ordered list of metrics, rendered into the record and the final line.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push(Metric { name, value, unit });
    }

    pub fn to_json(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        serde_json::json!({"value": m.value, "unit": m.unit}),
                    )
                })
                .collect(),
        )
    }
}

/// A percentile read off a sample, with the evidence behind it.
#[derive(Clone, Copy, Debug)]
pub struct Percentile {
    pub value: f64,
    /// Samples the percentile was read from.
    pub samples: usize,
    /// Samples strictly above the reported value.
    pub beyond: usize,
}

/// Nearest-rank `q`-quantile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], q: f64) -> Percentile {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let value = sorted[rank - 1];
    let beyond = n - sorted.partition_point(|&x| x <= value);
    Percentile {
        value,
        samples: n,
        beyond,
    }
}

/// Median of an unsorted, non-empty sample (mean of the middle two
/// for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Latency samples (µs) of one run, kept in consecutive chunks. A
/// percentile is the median of its per-chunk values, so a stretch of
/// the run that a busy host slowed moves at most one chunk.
#[derive(Debug, Default)]
pub struct Latencies {
    chunks: Vec<Vec<f64>>,
}

impl Latencies {
    pub fn push(&mut self, chunk: usize, us: f64) {
        if self.chunks.len() <= chunk {
            self.chunks.resize_with(chunk + 1, Vec::new);
        }
        self.chunks[chunk].push(us);
    }

    pub fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    fn pooled(&self) -> Vec<f64> {
        let all: Vec<f64> = self.chunks.iter().flatten().copied().collect();
        sorted(&all)
    }

    /// Median over chunks of the chunk's `q`-quantile; `samples` and
    /// `beyond` count the whole run.
    pub fn percentile(&self, q: f64) -> Percentile {
        let per_chunk: Vec<f64> = self
            .chunks
            .iter()
            .filter(|c| !c.is_empty())
            .map(|c| percentile(&sorted(c), q).value)
            .collect();
        let value = median(&per_chunk);
        let all = self.pooled();
        Percentile {
            value,
            samples: all.len(),
            beyond: all.len() - all.partition_point(|&x| x <= value),
        }
    }

    /// Operations per second: the median over chunks of the chunk's
    /// count over its summed latency.
    pub fn rate(&self) -> f64 {
        let per_chunk: Vec<f64> = self
            .chunks
            .iter()
            .filter(|c| !c.is_empty())
            .map(|c| c.len() as f64 / (c.iter().sum::<f64>() / 1e6))
            .collect();
        median(&per_chunk)
    }

    /// Deciles of the pooled sample (shows the shape: a bimodal
    /// latency has a jump between two deciles).
    pub fn deciles(&self) -> Vec<f64> {
        let all = self.pooled();
        (1..10)
            .map(|d| percentile(&all, f64::from(d) / 10.0).value)
            .collect()
    }

    /// Record entries `<prefix>_p{50,75,90,99}_us` plus the deciles.
    pub fn to_json(&self, prefix: &str) -> Vec<(String, Value)> {
        let mut out: Vec<(String, Value)> = [(50, 0.5), (75, 0.75), (90, 0.9), (99, 0.99)]
            .into_iter()
            .map(|(label, q)| {
                let p = self.percentile(q);
                (
                    format!("{prefix}_p{label}_us"),
                    serde_json::json!({
                        "value": p.value,
                        "unit": "us",
                        "samples": p.samples,
                        "beyond": p.beyond,
                        "chunks": self.chunks.iter().filter(|c| !c.is_empty()).count(),
                    }),
                )
            })
            .collect();
        out.push((
            format!("{prefix}_deciles_us"),
            serde_json::json!(self.deciles()),
        ));
        out
    }
}

/// FNV-1a accumulator over the generated inputs: two runs that print
/// the same fingerprint measured the same inputs.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn mix(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Readings from one `obs` registry, normalized per operation.
pub struct Obs<'a> {
    pub snap: &'a MetricsSnapshot,
    /// Operations the readings are spread over (reconciles, builds,
    /// queries, set-ups).
    pub ops: f64,
}

impl Obs<'_> {
    /// Total microseconds recorded by the `_ns` span `name`, per op.
    pub fn span_us(&self, name: &str) -> f64 {
        self.snap
            .histogram(name)
            .map_or(0.0, |h| h.sum as f64 / 1e3 / self.ops)
    }

    /// Samples recorded by the histogram `name`.
    pub fn span_count(&self, name: &str) -> u64 {
        self.snap.histogram(name).map_or(0, |h| h.count)
    }

    /// Counter `name`, per op.
    pub fn per_op(&self, name: &str) -> f64 {
        self.snap.counter(name).unwrap_or(0) as f64 / self.ops
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.snap.counter(name).unwrap_or(0)
    }
}

/// Chunks a run's latency sample is cut into by time.
const TIME_CHUNKS: usize = 10;

/// Which of [`TIME_CHUNKS`] equal stretches of the measured time that
/// began at `start` the present lies in (overrun joins the last).
pub fn time_chunk(start: std::time::Instant, spec: &crate::RunSpec) -> usize {
    let frac = start.elapsed().as_secs_f64() / spec.duration.as_secs_f64().max(1e-9);
    ((frac * TIME_CHUNKS as f64) as usize).min(TIME_CHUNKS - 1)
}

/// Nonzero-denominator ratio (0 when nothing was measured).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_percentile_is_the_median_of_chunks() {
        let mut lat = Latencies::default();
        for (chunk, base) in [(0, 10.0), (1, 20.0), (2, 1000.0)] {
            for i in 0..100 {
                lat.push(chunk, base + f64::from(i) / 100.0);
            }
        }
        let p = lat.percentile(0.5);
        assert_eq!((p.value, p.samples, p.beyond), (20.49, 300, 150));
        assert_eq!(median(&[1.0, 2.0, 4.0, 8.0]), 3.0);
    }

    #[test]
    fn percentile_reports_rank_and_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&v, 0.5);
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
        let p99 = percentile(&v, 0.99);
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        let ties = [1.0, 2.0, 2.0, 2.0];
        assert_eq!(percentile(&ties, 0.5).beyond, 0);
    }
}
