//! `wgtt-benchmark compare A.json B.json`: one row per (workload,
//! end-to-end metric) with both values, quartiles, the bound and a
//! verdict. A is the parent, B the change.
//!
//! Simulated-time metrics and counts must be bit-equal — the engine is
//! deterministic, so a difference is a change of behaviour, not of speed.
//! Host-time metrics get `better` / `same` / `worse`, or `unresolved` when
//! a side's own spread is wider than the bound.

use crate::spec::{END_TO_END, PER_LAYER};
use serde_json::Value;
use std::fmt::Write as _;

/// Outcome of a comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The table and notes, ready to print.
    pub text: String,
    /// Rows judged `worse`.
    pub worse: usize,
    /// Simulated-time metrics or counts that are not bit-equal.
    pub changed: usize,
    /// Rows judged `unresolved`.
    pub unresolved: usize,
}

impl Outcome {
    /// Process exit code: 0 only when nothing is worse and nothing that
    /// must repeat exactly has changed.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.worse > 0 || self.changed > 0)
    }
}

fn workloads(doc: &Value) -> Result<&[Value], String> {
    doc.get("workloads")
        .and_then(Value::as_array)
        .ok_or_else(|| "no \"workloads\" array".to_string())
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

/// IQR ÷ median of a metric's `samples` summary, when it has one.
fn spread(metric: &Value) -> Option<f64> {
    let s = metric.get("samples")?;
    let (q1, q3, median) = (num(s, "q1")?, num(s, "q3")?, num(s, "median")?);
    (median != 0.0).then(|| (q3 - q1) / median.abs())
}

fn quartiles(metric: &Value) -> String {
    match metric.get("samples") {
        Some(s) => format!(
            "[{:.4} {:.4}]",
            num(s, "q1").unwrap_or(0.0),
            num(s, "q3").unwrap_or(0.0)
        ),
        None => "-".to_string(),
    }
}

/// Compares two parsed `results.json` documents.
pub fn compare(a: &Value, b: &Value) -> Result<Outcome, String> {
    let (seed_a, seed_b) = (num(a, "seed"), num(b, "seed"));
    if seed_a != seed_b {
        return Err(format!(
            "the runs used different seeds ({seed_a:?} and {seed_b:?}): \
             simulated-time metrics cannot be compared"
        ));
    }
    let mut out = Outcome {
        text: String::new(),
        worse: 0,
        changed: 0,
        unresolved: 0,
    };
    let _ = writeln!(
        out.text,
        "{:<14} {:<20} {:>14} {:>14} {:>8} {:>6}  {:<10} quartiles A / B",
        "workload", "metric", "A", "B", "change", "bound", "verdict"
    );
    let b_workloads = workloads(b)?;
    for wa in workloads(a)? {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) = b_workloads
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            return Err(format!("workload {name} is missing from B"));
        };
        let skipped = |w: &Value| w.get("skipped").and_then(Value::as_str).is_some();
        if skipped(wa) || skipped(wb) {
            let _ = writeln!(out.text, "{name:<14} skipped on one side; not compared");
            continue;
        }
        let (Some(ea), Some(eb)) = (wa.get("end_to_end"), wb.get("end_to_end")) else {
            return Err(format!("workload {name} has no end_to_end object"));
        };
        for metric in END_TO_END.iter().map(|m| m.name) {
            let Some(ma) = ea.get(metric) else {
                continue;
            };
            let mb = eb
                .get(metric)
                .ok_or_else(|| format!("{name}/{metric} is missing from B"))?;
            let (va, vb) = (
                num(ma, "value").ok_or("value missing")?,
                num(mb, "value").ok_or("value missing")?,
            );
            let bound = num(ma, "bound").unwrap_or(0.0);
            let higher_better = ma.get("better").and_then(Value::as_str) == Some("higher");
            let exact = ma.get("base").and_then(Value::as_str) == Some("sim");
            // Signed so that positive is worse.
            let change = if va == 0.0 { 0.0 } else { (vb - va) / va.abs() };
            let worse_by = if higher_better { -change } else { change };
            let verdict = if exact {
                if va.to_bits() == vb.to_bits() {
                    "same"
                } else {
                    out.changed += 1;
                    "CHANGED"
                }
            } else if [spread(ma), spread(mb)]
                .into_iter()
                .flatten()
                .any(|s| s > bound)
            {
                out.unresolved += 1;
                "unresolved"
            } else if worse_by > bound {
                out.worse += 1;
                "worse"
            } else if worse_by < -bound {
                "better"
            } else {
                "same"
            };
            let _ = writeln!(
                out.text,
                "{name:<14} {metric:<20} {va:>14.6} {vb:>14.6} {:>+7.2}% {:>5.0}%  {verdict:<10} {} / {}",
                change * 100.0,
                bound * 100.0,
                quartiles(ma),
                quartiles(mb)
            );
        }
        if let (Some(la), Some(lb)) = (wa.get("per_layer"), wb.get("per_layer")) {
            for metric in PER_LAYER.iter().map(|m| m.name) {
                let Some(ma) = la.get(metric) else {
                    continue;
                };
                if ma.get("base").and_then(Value::as_str) != Some("sim") {
                    continue;
                }
                let (va, vb) = (
                    num(ma, "value"),
                    lb.get(metric).and_then(|m| num(m, "value")),
                );
                if va.map(f64::to_bits) != vb.map(f64::to_bits) {
                    out.changed += 1;
                    let _ = writeln!(
                        out.text,
                        "{name:<14} {metric:<34} CHANGED {va:?} -> {vb:?} (a count must repeat exactly)"
                    );
                }
            }
        }
    }
    let _ = writeln!(
        out.text,
        "worse: {}   changed (must be bit-equal): {}   unresolved: {}",
        out.worse, out.changed, out.unresolved
    );
    Ok(out)
}

/// Reads and compares two `results.json` files.
pub fn compare_files(a: &str, b: &str) -> Result<Outcome, String> {
    let read = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{p}: {e}"))
    };
    compare(&read(a)?, &read(b)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(seed: u64, ratio: f64, q1: f64, q3: f64, goodput: f64, events: f64) -> Value {
        serde_json::from_str(&format!(
            r#"{{"seed": {seed}, "workloads": [{{"name": "drive_udp", "skipped": null,
              "end_to_end": {{
                "sim_rt_ratio": {{"value": {ratio}, "unit": "sim-s/s", "base": "host",
                  "better": "higher", "bound": 0.1,
                  "samples": {{"n": 9, "min": 1, "q1": {q1}, "median": {ratio}, "q3": {q3}, "max": 9}}}},
                "goodput_mbps": {{"value": {goodput}, "unit": "Mb/s", "base": "sim",
                  "better": "higher", "bound": 0.1}}}},
              "per_layer": {{"sim.engine.events": {{"value": {events}, "unit": "count", "base": "sim"}},
                             "sim.queue.hold_ns": {{"value": {ratio}, "unit": "ns", "base": "host"}}}}
            }}]}}"#
        ))
        .expect("test document parses")
    }

    #[test]
    fn identical_runs_compare_clean() {
        let a = doc(1, 5.0, 4.9, 5.1, 25.5, 1000.0);
        let r = compare(&a, &a).unwrap();
        assert_eq!(
            (r.worse, r.changed, r.unresolved, r.exit_code()),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn host_metric_verdicts_follow_the_bound_and_the_spread() {
        let a = doc(1, 5.0, 4.9, 5.1, 25.5, 1000.0);
        let slower = doc(1, 4.0, 3.9, 4.1, 25.5, 1000.0);
        let r = compare(&a, &slower).unwrap();
        assert_eq!((r.worse, r.exit_code()), (1, 1));
        let faster = doc(1, 6.0, 5.9, 6.1, 25.5, 1000.0);
        assert!(compare(&a, &faster).unwrap().text.contains("better"));
        let noisy = doc(1, 4.0, 3.0, 5.0, 25.5, 1000.0);
        let r = compare(&a, &noisy).unwrap();
        assert_eq!((r.worse, r.unresolved, r.exit_code()), (0, 1, 0));
    }

    #[test]
    fn simulated_metrics_and_counts_must_be_bit_equal() {
        let a = doc(1, 5.0, 4.9, 5.1, 25.5, 1000.0);
        let r = compare(&a, &doc(1, 5.0, 4.9, 5.1, 25.500001, 1000.0)).unwrap();
        assert_eq!((r.changed, r.exit_code()), (1, 1));
        let r = compare(&a, &doc(1, 5.0, 4.9, 5.1, 25.5, 1001.0)).unwrap();
        assert_eq!((r.changed, r.exit_code()), (1, 1));
    }

    #[test]
    fn different_seeds_are_refused() {
        let a = doc(1, 5.0, 4.9, 5.1, 25.5, 1000.0);
        assert!(compare(&a, &doc(2, 5.0, 4.9, 5.1, 25.5, 1000.0)).is_err());
    }
}
