//! Guards on the committed canonical bench records in `results/`.
//!
//! The four `BENCH_*.json` files are the repo's perf trajectory; CI and
//! reviewers compare against them. Two classes of regression are cheap
//! to commit by accident and expensive to discover later:
//!
//! 1. overwriting a canonical full-mode record with the output of a
//!    `--quick` smoke run (tiny grids, useless numbers), and
//! 2. dropping the `metrics` section (or committing one produced by a
//!    binary whose instrumentation went silent), losing the per-phase
//!    reconcile timings and query latency percentiles the records are
//!    now expected to carry.
//!
//! This test fails the build in either case. It reads the records from
//! the working tree, so it also validates freshly regenerated records
//! before they are committed.

use serde_json::Value;
use std::path::{Path, PathBuf};

fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR is `crates/khop`; the records live at the
    // repository root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn load(name: &str) -> Value {
    let path = results_dir().join(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e:?}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {name}: {e:?}"))
}

const CANONICAL: &[(&str, &str)] = &[
    ("BENCH_pipeline.json", "khop-perf-baseline/v3"),
    ("BENCH_churn.json", "khop-churn/v1"),
    ("BENCH_routing.json", "khop-routing/v1"),
    ("BENCH_resilience.json", "khop-resilience/v1"),
];

/// Histograms every record's probe section must have populated.
const REQUIRED_HISTOGRAMS: &[&str] = &[
    "reconcile.observe_ns",
    "reconcile.repair_ns",
    "reconcile.publish_ns",
    "query.latency_ns",
    "query.hops",
];

fn check_metrics_section(name: &str, doc: &Value) {
    let metrics = &doc["metrics"];
    assert!(
        metrics.as_object().is_some(),
        "{name}: missing `metrics` section (regenerate with the current bench binaries)"
    );
    assert!(
        metrics["fingerprint"]
            .as_str()
            .is_some_and(|f| f.len() == 16),
        "{name}: metrics.fingerprint missing or malformed"
    );
    let histograms = metrics["snapshot"]["histograms"]
        .as_array()
        .unwrap_or_else(|| panic!("{name}: metrics.snapshot.histograms missing"));
    for required in REQUIRED_HISTOGRAMS {
        let h = histograms
            .iter()
            .find(|h| h["name"].as_str() == Some(required))
            .unwrap_or_else(|| panic!("{name}: metrics section lacks histogram {required}"));
        assert!(
            h["count"].as_u64().is_some_and(|c| c > 0),
            "{name}: histogram {required} is empty"
        );
        for pct in ["p50", "p90", "p99"] {
            assert!(
                h[pct].as_u64().is_some(),
                "{name}: histogram {required} lacks {pct}"
            );
        }
    }
    let counters = metrics["snapshot"]["counters"]
        .as_array()
        .unwrap_or_else(|| panic!("{name}: metrics.snapshot.counters missing"));
    for required in ["reconcile.count", "plan.published", "query.count"] {
        assert!(
            counters
                .iter()
                .any(|c| c["name"].as_str() == Some(required)),
            "{name}: metrics section lacks counter {required}"
        );
    }
}

#[test]
fn canonical_records_are_full_mode_with_metrics() {
    for &(name, schema) in CANONICAL {
        let doc = load(name);
        assert_eq!(
            doc["schema"].as_str(),
            Some(schema),
            "{name}: unexpected schema"
        );
        assert_eq!(
            doc["mode"].as_str(),
            Some("full"),
            "{name}: canonical records must be full-mode; a --quick run \
             was committed over it (quick runs write BENCH_*_quick.json)"
        );
        assert!(
            doc["grid"].as_object().is_some() || doc["grid"].as_array().is_some(),
            "{name}: missing `grid` stamp"
        );
        check_metrics_section(name, &doc);
    }
}

#[test]
fn pipeline_record_carries_metrics_overhead_guard() {
    let doc = load("BENCH_pipeline.json");
    let overhead = &doc["metrics_overhead"];
    assert!(
        overhead.as_object().is_some(),
        "BENCH_pipeline.json: metrics_overhead missing or null — the \
         largest grid cell's metered arm did not run"
    );
    let ratio = overhead["overhead_ratio"]
        .as_f64()
        .expect("metrics_overhead.overhead_ratio");
    assert!(
        ratio < 1.03,
        "BENCH_pipeline.json: committed metrics-on overhead {ratio:.4}x \
         exceeds the 3% budget"
    );
}

/// Quick smoke artifacts may exist locally but must self-identify, so a
/// rename/copy onto a canonical path is caught by the test above.
#[test]
fn quick_records_self_identify() {
    let dir = results_dir();
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return;
    };
    for entry in entries.flatten() {
        let file = entry.file_name();
        let Some(name) = file.to_str() else { continue };
        if name.starts_with("BENCH_") && name.ends_with("_quick.json") {
            let doc = load(name);
            assert_eq!(
                doc["mode"].as_str(),
                Some("quick"),
                "{name}: quick-named record must carry mode=\"quick\""
            );
        }
    }
}
