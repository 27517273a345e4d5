//! Zero-dependency observability core: counters, power-of-two latency
//! histograms, span timers, and a bounded structured event ring behind
//! one cloneable [`Metrics`] handle.
//!
//! Everything in this module is hand-rolled in the spirit of the
//! workspace's vendored shims — no external metrics crate, no unsafe,
//! no background thread. The design splits cold registration from hot
//! recording:
//!
//! * **Registration** (`metrics.counter("name")`,
//!   `metrics.histogram("name")`) takes a short mutex on a
//!   `BTreeMap<String, Arc<..>>` and hands back a lock-free handle.
//!   Call it once per site, outside loops.
//! * **Recording** (`counter.add(n)`, `hist.record(v)`, a [`Span`]
//!   drop) is a relaxed atomic op — safe from any thread, including
//!   [`par::scoped_chunks`](crate::par::scoped_chunks) workers, with
//!   no lock and no allocation.
//! * **Disabled** is the default everywhere: [`Metrics::disabled`] is
//!   a `const fn` producing a handle whose every operation
//!   early-returns on one `Option` branch — no clock read, no lock,
//!   no allocation. Hot paths pay one predictable branch.
//!
//! # Determinism contract
//!
//! Count-type metrics (counters, non-timing histograms, events) must
//! be **bit-identical for any worker count**: counters are commutative
//! atomic sums over a worker-independent increment set, histogram
//! bucket tallies are commutative, and events are only recorded from
//! single-threaded orchestration points. Duration metrics (`*_ns`
//! histograms fed by [`Span`]s) are explicitly exempt — wall-clock is
//! never deterministic. [`MetricsSnapshot::deterministic_fingerprint`]
//! hashes exactly the deterministic subset, and the
//! `metrics_determinism` proptests pin it across worker counts.
//!
//! # Naming conventions
//!
//! Dotted lowercase paths, subsystem first (`reconcile.observe_ns`,
//! `query.hops`, `labels.rows_swept`). Timing histograms end in `_ns`
//! and hold nanoseconds; everything else is a dimensionless count.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of histogram buckets: one per possible `u64` bit width,
/// plus bucket 0 for the value zero.
const HIST_BUCKETS: usize = 65;

/// Default capacity of the structured event ring.
const DEFAULT_EVENT_CAPACITY: usize = 4096;

// ---------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------

/// A capacity-bounded append log: stores the first `capacity` items,
/// counts (but does not store) everything past the bound.
///
/// This generalizes the capacity-bounded design `adhoc-sim`'s `Trace`
/// pioneered — recording a large run can never exhaust memory, and the
/// overflow is observable instead of silent. The default ring has
/// capacity 0 (counts everything as dropped), matching `Trace`'s
/// `Default`.
#[derive(Clone, Debug)]
pub struct Ring<T> {
    items: Vec<T>,
    capacity: usize,
    dropped: u64,
}

/// A zero-capacity ring (stores nothing, counts everything dropped) —
/// deliberately not derived, so `Ring<T>: Default` holds without
/// requiring `T: Default`.
impl<T> Default for Ring<T> {
    fn default() -> Self {
        Ring::new(0)
    }
}

impl<T> Ring<T> {
    /// Creates a ring storing at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        Ring {
            items: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an item, or counts it as dropped when full. Returns
    /// whether the item was stored.
    pub fn push(&mut self, item: T) -> bool {
        if self.items.len() < self.capacity {
            self.items.push(item);
            true
        } else {
            self.dropped += 1;
            false
        }
    }

    /// Stored items, in insertion order.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items not stored because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Rebuilds a ring from its persisted parts (for deserializers of
    /// types embedding a ring, e.g. `adhoc-sim`'s `Trace`).
    pub fn from_parts(items: Vec<T>, capacity: usize, dropped: u64) -> Self {
        Ring {
            items,
            capacity,
            dropped,
        }
    }
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

/// A log-bucketed (HDR-style power-of-two) histogram of `u64` samples.
///
/// Bucket `i > 0` holds samples of bit width `i` (the range
/// `[2^(i-1), 2^i - 1]`); bucket 0 holds zeros. Recording is one
/// relaxed `fetch_add` plus a `fetch_max` — lock-free and commutative,
/// so bucket tallies are deterministic for any worker count. Quantiles
/// are read from the cumulative bucket walk (reported at the bucket's
/// upper bound, capped at the exact observed max), which bounds the
/// relative quantile error at 2x — the right trade for latency
/// distributions spanning nanoseconds to seconds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        let idx = (64 - v.leading_zeros()) as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0 < q <= 1`) as the upper bound of the
    /// bucket holding the target rank, capped at the observed max.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                let bound = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return bound.min(self.max());
            }
        }
        self.max()
    }

    /// Snapshot of the summary statistics under `name`.
    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

// ---------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------

/// Lock-free counter handle. A no-op when resolved from a disabled
/// [`Metrics`].
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `v`.
    pub fn add(&self, v: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Whether this handle discards everything (disabled metrics).
    pub fn is_noop(&self) -> bool {
        self.0.is_none()
    }
}

/// Lock-free histogram handle. A no-op when resolved from a disabled
/// [`Metrics`].
#[derive(Clone, Debug, Default)]
pub struct Hist(Option<Arc<Histogram>>);

impl Hist {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.record(v);
        }
    }

    /// Starts a span whose drop records elapsed nanoseconds here.
    /// Disabled handles never read the clock.
    pub fn start(&self) -> Span {
        Span(self.0.as_ref().map(|h| (Arc::clone(h), Instant::now())))
    }

    /// Whether this handle discards everything (disabled metrics).
    pub fn is_noop(&self) -> bool {
        self.0.is_none()
    }
}

/// A drop-guard timer: created by [`Metrics::span`] or
/// [`Hist::start`], records elapsed wall-clock nanoseconds into its
/// histogram when dropped (or explicitly via [`Span::finish`]).
/// Span-fed histograms are timing metrics — exempt from the
/// determinism contract.
#[derive(Debug, Default)]
pub struct Span(Option<(Arc<Histogram>, Instant)>);

impl Span {
    /// Stops the timer now and records the elapsed nanoseconds
    /// (dropping the span does the same; this just makes the stop
    /// point explicit).
    pub fn finish(mut self) {
        self.record_elapsed();
    }

    fn record_elapsed(&mut self) {
        if let Some((h, t)) = self.0.take() {
            h.record(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record_elapsed();
    }
}

// ---------------------------------------------------------------------
// Registry + Metrics handle
// ---------------------------------------------------------------------

/// One structured event in the bounded ring: a name plus one integer
/// payload (e.g. `("plan.publish", epoch)`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Dotted event name.
    pub name: String,
    /// Integer payload (step index, count, epoch — site-defined).
    pub value: u64,
}

/// The metric registered under `name`, registering a fresh one first
/// if there is none. The key `String` is allocated only then.
fn resolve<T: Default>(map: &mut BTreeMap<String, Arc<T>>, name: &str) -> Arc<T> {
    if let Some(metric) = map.get(name) {
        return Arc::clone(metric);
    }
    let metric = Arc::new(T::default());
    map.insert(name.to_string(), Arc::clone(&metric));
    metric
}

#[derive(Debug)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    events: Mutex<Ring<Event>>,
}

/// The cloneable observability handle threaded through the stack.
///
/// Either **enabled** (wrapping a shared thread-safe registry) or
/// **disabled** (the `const` default — every operation early-returns
/// on one branch; see the module docs). Clones share the registry.
#[derive(Clone, Debug)]
pub struct Metrics {
    inner: Option<Arc<Registry>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::disabled()
    }
}

impl Metrics {
    /// The disabled handle: `const`, allocation-free, lock-free —
    /// every recording operation is a single `Option` branch.
    pub const fn disabled() -> Metrics {
        Metrics { inner: None }
    }

    /// An enabled handle with the default event-ring capacity.
    pub fn enabled() -> Metrics {
        Metrics::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// An enabled handle whose event ring stores at most `capacity`
    /// events (further events are counted as dropped).
    pub fn with_event_capacity(capacity: usize) -> Metrics {
        Metrics {
            inner: Some(Arc::new(Registry {
                counters: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                events: Mutex::new(Ring::new(capacity)),
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolves (registering on first use) the counter `name`,
    /// returning a lock-free handle. Cold: takes a short mutex — hoist
    /// out of hot loops. A registered name is looked up by `&str`; only
    /// the first registration allocates its key.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|r| {
            resolve(
                &mut r.counters.lock().expect("obs counter registry poisoned"),
                name,
            )
        }))
    }

    /// Resolves (registering on first use) the histogram `name`,
    /// returning a lock-free handle. Cold, like [`Self::counter`].
    pub fn histogram(&self, name: &str) -> Hist {
        Hist(self.inner.as_ref().map(|r| {
            resolve(
                &mut r
                    .histograms
                    .lock()
                    .expect("obs histogram registry poisoned"),
                name,
            )
        }))
    }

    /// One-shot counter add (resolve + add). For orchestration points,
    /// not per-item loops.
    pub fn add(&self, name: &str, v: u64) {
        if self.is_enabled() {
            self.counter(name).add(v);
        }
    }

    /// One-shot counter increment.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// One-shot histogram record (resolve + record).
    pub fn record(&self, name: &str, v: u64) {
        if self.is_enabled() {
            self.histogram(name).record(v);
        }
    }

    /// Starts a drop-guard timer feeding the histogram `name` (which
    /// should end in `_ns`). Disabled handles never read the clock.
    pub fn span(&self, name: &str) -> Span {
        if self.is_enabled() {
            self.histogram(name).start()
        } else {
            Span(None)
        }
    }

    /// Appends a structured event to the bounded ring. Only call from
    /// single-threaded orchestration points — event order is part of
    /// the determinism contract.
    pub fn event(&self, name: &str, value: u64) {
        if let Some(r) = &self.inner {
            r.events
                .lock()
                .expect("obs event ring poisoned")
                .push(Event {
                    name: name.to_string(),
                    value,
                });
        }
    }

    /// A point-in-time snapshot of every registered metric. Returns
    /// the empty snapshot for a disabled handle.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(r) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let counters = r
            .counters
            .lock()
            .expect("obs counter registry poisoned")
            .iter()
            .map(|(name, v)| CounterSnapshot {
                name: name.clone(),
                value: v.load(Ordering::Relaxed),
            })
            .collect();
        let histograms = r
            .histograms
            .lock()
            .expect("obs histogram registry poisoned")
            .iter()
            .map(|(name, h)| h.snapshot(name))
            .collect();
        let events = r.events.lock().expect("obs event ring poisoned");
        MetricsSnapshot {
            counters,
            histograms,
            events: events
                .items()
                .iter()
                .map(|e| EventSnapshot {
                    name: e.name.clone(),
                    value: e.value,
                })
                .collect(),
            events_dropped: events.dropped(),
        }
    }
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// One counter's value at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Dotted counter name.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// One histogram's summary statistics at snapshot time. Quantiles are
/// power-of-two bucket upper bounds capped at the exact max (see
/// [`Histogram`]).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Dotted histogram name (`_ns` suffix marks timing data).
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples (nanoseconds for `_ns` histograms).
    pub sum: u64,
    /// Exact largest sample.
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One stored event at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventSnapshot {
    /// Dotted event name.
    pub name: String,
    /// Integer payload.
    pub value: u64,
}

/// A serializable point-in-time view of a [`Metrics`] registry —
/// rendered as JSON (`--metrics=FILE`, bench `metrics` sections) or as
/// a human text table ([`MetricsSnapshot::text_table`]).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters, name-sorted.
    pub counters: Vec<CounterSnapshot>,
    /// All histograms, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
    /// Stored structured events, in record order.
    pub events: Vec<EventSnapshot>,
    /// Events dropped by the bounded ring.
    pub events_dropped: u64,
}

impl MetricsSnapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.events.is_empty()
    }

    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// FNV-1a fingerprint of the **deterministic subset**: counters,
    /// histograms not ending in `_ns`, events, and the drop count.
    /// Identical for any worker count under the module's determinism
    /// contract; timing histograms are excluded.
    pub fn deterministic_fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        let mix_str = |s: &str, mix: &mut dyn FnMut(u64)| {
            for b in s.bytes() {
                mix(u64::from(b));
            }
            mix(s.len() as u64);
        };
        for c in &self.counters {
            mix_str(&c.name, &mut mix);
            mix(c.value);
        }
        for hist in self.histograms.iter().filter(|h| !h.name.ends_with("_ns")) {
            mix_str(&hist.name, &mut mix);
            mix(hist.count);
            mix(hist.sum);
            mix(hist.max);
            mix(hist.p50);
            mix(hist.p90);
            mix(hist.p99);
        }
        for e in &self.events {
            mix_str(&e.name, &mut mix);
            mix(e.value);
        }
        mix(self.events_dropped);
        h
    }

    /// Renders an aligned human-readable table (the `--metrics` CLI
    /// surface without a file argument).
    pub fn text_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("(no metrics recorded)\n");
            return out;
        }
        let name_w = self
            .counters
            .iter()
            .map(|c| c.name.len())
            .chain(self.histograms.iter().map(|h| h.name.len()))
            .max()
            .unwrap_or(4)
            .max(4);
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<name_w$} {:>14}", "counter", "value");
            for c in &self.counters {
                let _ = writeln!(out, "{:<name_w$} {:>14}", c.name, c.value);
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "{:<name_w$} {:>10} {:>14} {:>12} {:>12} {:>12} {:>12}",
                "histogram", "count", "mean", "p50", "p90", "p99", "max"
            );
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "{:<name_w$} {:>10} {:>14.1} {:>12} {:>12} {:>12} {:>12}",
                    h.name,
                    h.count,
                    h.mean(),
                    h.p50,
                    h.p90,
                    h.p99,
                    h.max
                );
            }
        }
        if !self.events.is_empty() || self.events_dropped > 0 {
            let _ = writeln!(
                out,
                "events: {} stored, {} dropped",
                self.events.len(),
                self.events_dropped
            );
            for e in &self.events {
                let _ = writeln!(out, "  {} = {}", e.name, e.value);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The disabled handle is constructible in const context — the
    /// compile-time pin that it allocates nothing.
    const DISABLED: Metrics = Metrics::disabled();

    #[test]
    fn disabled_path_is_a_noop() {
        assert!(!DISABLED.is_enabled());
        // Every resolved handle is a no-op: no registry, no lock, no
        // allocation behind it.
        assert!(DISABLED.counter("x").is_noop());
        assert!(DISABLED.histogram("x").is_noop());
        DISABLED.add("x", 5);
        DISABLED.record("y", 5);
        DISABLED.event("z", 1);
        {
            let _span = DISABLED.span("t_ns");
        }
        let snap = DISABLED.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.events_dropped, 0);
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = Metrics::enabled();
        let c = m.counter("a.count");
        c.add(3);
        c.inc();
        m.add("a.count", 1);
        m.inc("b.count");
        let snap = m.snapshot();
        assert_eq!(snap.counter("a.count"), Some(5));
        assert_eq!(snap.counter("b.count"), Some(1));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn registered_names_resolve_to_one_metric() {
        let m = Metrics::enabled();
        let (a, b) = (m.counter("r.count"), m.counter("r.count"));
        assert!(Arc::ptr_eq(a.0.as_ref().unwrap(), b.0.as_ref().unwrap()));
        let (x, y) = (m.histogram("r_ns"), m.histogram("r_ns"));
        assert!(Arc::ptr_eq(x.0.as_ref().unwrap(), y.0.as_ref().unwrap()));
        a.add(2);
        b.inc();
        m.inc("r.count");
        x.record(7);
        m.record("r_ns", 9);
        let snap = m.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counter("r.count"), Some(4));
        assert_eq!(snap.histograms.len(), 1);
        let h = snap.histogram("r_ns").unwrap();
        assert_eq!((h.count, h.sum, h.max), (2, 16, 9));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        // p50 rank 50 lands in bucket [32, 63] -> bound 63.
        assert_eq!(h.quantile(0.5), 63);
        // p99 rank 99 lands in bucket [64, 127], capped at max 100.
        assert_eq!(h.quantile(0.99), 100);
        assert_eq!(h.quantile(1.0), 100);
    }

    #[test]
    fn histogram_zero_and_extremes() {
        let h = Histogram::default();
        h.record(0);
        assert_eq!(h.quantile(0.5), 0);
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        let empty = Histogram::default();
        assert_eq!(empty.quantile(0.99), 0);
    }

    #[test]
    fn histograms_are_commutative_across_threads() {
        let m = Metrics::enabled();
        let h = m.histogram("par.samples");
        let vals: Vec<u64> = (0..1000).map(|i| i * 7 % 97).collect();
        crate::par::scoped_chunks(4, vals.len(), &vals[..], |_, _, chunk: &[u64]| {
            for &v in chunk {
                h.record(v);
            }
        });
        let serial = Histogram::default();
        for &v in &vals {
            serial.record(v);
        }
        let snap = m.snapshot();
        let got = snap.histogram("par.samples").expect("recorded");
        assert_eq!(got.count, serial.count());
        assert_eq!(got.sum, serial.sum());
        assert_eq!(got.max, serial.max());
        assert_eq!(got.p50, serial.quantile(0.5));
    }

    #[test]
    fn span_records_nonzero_nanos() {
        let m = Metrics::enabled();
        {
            let _s = m.span("work_ns");
            std::hint::black_box(1 + 1);
        }
        m.histogram("work_ns").start().finish();
        let snap = m.snapshot();
        let h = snap.histogram("work_ns").expect("span recorded");
        assert_eq!(h.count, 2);
    }

    #[test]
    fn event_ring_bounds_and_counts() {
        let m = Metrics::with_event_capacity(2);
        for i in 0..5 {
            m.event("e", i);
        }
        let snap = m.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events_dropped, 3);
        assert_eq!(snap.events[0].value, 0);
    }

    #[test]
    fn ring_generic_behavior() {
        let mut r: Ring<u32> = Ring::new(3);
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.items(), &[0, 1, 2]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.capacity(), 3);
        assert!(!r.is_empty());
        let d: Ring<u32> = Ring::default();
        assert_eq!(d.capacity(), 0);
        let rebuilt = Ring::from_parts(vec![1u32, 2], 4, 7);
        assert_eq!(rebuilt.items(), &[1, 2]);
        assert_eq!(rebuilt.dropped(), 7);
    }

    #[test]
    fn fingerprint_ignores_timing_histograms() {
        let a = Metrics::enabled();
        let b = Metrics::enabled();
        for m in [&a, &b] {
            m.add("c", 2);
            m.record("hops", 5);
            m.event("e", 1);
        }
        // Different timing data must not change the fingerprint.
        a.record("t_ns", 10);
        b.record("t_ns", 999_999);
        assert_eq!(
            a.snapshot().deterministic_fingerprint(),
            b.snapshot().deterministic_fingerprint()
        );
        // But a diverging counter must.
        b.add("c", 1);
        assert_ne!(
            a.snapshot().deterministic_fingerprint(),
            b.snapshot().deterministic_fingerprint()
        );
    }

    #[test]
    fn snapshot_serde_roundtrip() {
        let m = Metrics::enabled();
        m.add("a", 1);
        m.record("h", 2);
        m.event("e", 3);
        let snap = m.snapshot();
        let v = serde::Serialize::to_value(&snap);
        let back: MetricsSnapshot = serde::Deserialize::from_value(&v).expect("roundtrip");
        assert_eq!(back, snap);
        assert!(v.get("counters").is_some());
        assert!(v.get("histograms").is_some());
        assert!(v.get("events_dropped").is_some());
    }

    #[test]
    fn text_table_renders() {
        let m = Metrics::enabled();
        m.add("reconcile.count", 3);
        m.record("query.hops", 7);
        m.event("plan.publish", 1);
        let table = m.snapshot().text_table();
        assert!(table.contains("reconcile.count"));
        assert!(table.contains("query.hops"));
        assert!(table.contains("plan.publish"));
        assert!(Metrics::disabled()
            .snapshot()
            .text_table()
            .contains("no metrics"));
    }
}
