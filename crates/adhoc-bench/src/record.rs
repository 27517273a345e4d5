//! What the four record bins (`churn`, `routing_serve`,
//! `perf_baseline`, `resilience`) share: the record writer, the git
//! stamp and the timer.

use crate::{quick_mode, results_dir, run_mode};
use serde_json::{json, Value};
use std::time::Instant;

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// outside a repository.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Writes a bench record to `<results>/<stem>.json`, or to
/// `<stem>_quick.json` under `--quick` so a smoke run can never clobber
/// the committed full-mode record. The record is `schema`, `git`,
/// `mode` and `quick`, then the fields of `body` (a JSON object) in
/// order. The file is read back and re-parsed, so a serialization bug
/// fails the run, and the parsed record must carry `schema` and a
/// non-empty `cells` array. Returns the parsed record.
///
/// # Panics
/// Panics if `body` is not an object, if the file cannot be written or
/// read back, or if what was read back fails the checks above.
pub fn write_record(stem: &str, schema: &str, body: Value) -> Value {
    let mut doc = json!({
        "schema": schema,
        "git": git_describe(),
        "mode": run_mode(),
        "quick": quick_mode(),
    });
    match (&mut doc, body) {
        (Value::Object(doc), Value::Object(body)) => doc.extend(body),
        _ => panic!("{stem}: a record body is a JSON object"),
    }
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(if quick_mode() {
        format!("{stem}_quick.json")
    } else {
        format!("{stem}.json")
    });
    std::fs::write(&path, format!("{doc:#}\n"))
        .unwrap_or_else(|e| panic!("write {}: {e:?}", path.display()));
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read back {}: {e:?}", path.display()));
    let parsed: Value = serde_json::from_str(&raw)
        .unwrap_or_else(|e| panic!("{} must parse: {e:?}", path.display()));
    assert_eq!(parsed["schema"], schema, "{}", path.display());
    assert!(
        !parsed["cells"].as_array().expect("cells array").is_empty(),
        "{}: a record holds at least one cell",
        path.display()
    );
    println!("wrote {}", path.display());
    parsed
}

/// Times `pass`, which returns a checksum of its output: one untimed
/// warm-up pass, then the fastest of `rounds` timed windows. Returns
/// the seconds per pass and the last pass's checksum.
///
/// Without `min_window` each window is one pass. With it, the warm-up
/// pass calibrates how many passes (1 to 2000) a window repeats to
/// last about `min_window` seconds, so a pass too short to time alone
/// is timed in bulk. The minimum is the estimator because preemption
/// on a shared host only ever inflates a window.
pub fn best_of(
    rounds: usize,
    min_window: Option<f64>,
    mut pass: impl FnMut() -> u64,
) -> (f64, u64) {
    let t = Instant::now();
    let mut checksum = pass();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let iters = min_window.map_or(1, |w| ((w / once).ceil() as usize).clamp(1, 2000));
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t = Instant::now();
        for _ in 0..iters {
            checksum = pass();
        }
        best = best.min(t.elapsed().as_secs_f64() / iters as f64);
    }
    (best, checksum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_runs_one_warm_up_then_every_window() {
        let mut passes = 0u64;
        let (secs, sum) = best_of(3, None, || {
            passes += 1;
            passes
        });
        assert_eq!(passes, 4);
        assert_eq!(sum, 4);
        assert!(secs.is_finite() && secs >= 0.0);
    }

    #[test]
    fn best_of_repeats_short_passes_to_fill_the_window() {
        let mut passes = 0usize;
        best_of(2, Some(1.0), || {
            passes += 1;
            0
        });
        // A pass this cheap calibrates to many passes per window (up to
        // the 2000 cap, which keeps the test fast).
        assert!(passes > 3, "{passes} passes");
    }
}
