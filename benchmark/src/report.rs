//! What the benchmark prints and writes: `name workload value unit` lines,
//! the driver's one-line JSON result, `results.json` and `trace.json`.

use crate::host::{HostNote, MIN_CPU_SHARE};
use crate::measure::{EndToEnd, Session};
use crate::spec::{self, MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` as a JSON number with all its digits (Rust prints the shortest
/// text that reads back to the same f64). JSON has no NaN or infinity; a
/// ratio over nothing is reported as 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Everything known about one workload after its passes.
#[derive(Debug, Default)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: &'static str,
    /// Threads the timed pass used.
    pub threads: usize,
    /// Why the workload did not run, when it did not.
    pub skipped: Option<String>,
    /// Ops run (scenario runs × reps, every pass).
    pub ops: u64,
    /// Ops failed.
    pub ops_failed: u64,
    /// Failure messages.
    pub failures: Vec<String>,
    /// Why the noise guard distrusts the host-time numbers, if it does.
    pub noisy: Option<String>,
    /// Timed reps.
    pub reps: usize,
    /// End-to-end values (untraced pass).
    pub end_to_end: Option<EndToEnd>,
    /// Why the end-to-end values could not be formed (e.g. too few
    /// switches for p95).
    pub end_to_end_error: Option<String>,
    /// Per-layer values (traced pass).
    pub per_layer: Option<BTreeMap<&'static str, f64>>,
    /// Share of `sim_rt_ratio` lost to tracing (traced pass).
    pub tracing_overhead: Option<f64>,
}

impl WorkloadReport {
    /// A report for a workload that was not run.
    pub fn skipped(name: &'static str, why: String) -> Self {
        WorkloadReport {
            name,
            skipped: Some(why),
            ..WorkloadReport::default()
        }
    }

    /// A session's counts; the caller fills in the metric parts.
    pub fn from_session(session: &Session) -> Self {
        WorkloadReport {
            name: session.workload.name,
            threads: session.workers,
            ops: session.ops,
            ops_failed: session.ops_failed,
            failures: session.failures.clone(),
            reps: session.reps.len(),
            ..WorkloadReport::default()
        }
    }

    /// Whether every op passed and every requested metric could be formed.
    pub fn correct(&self) -> bool {
        self.skipped.is_none() && self.ops_failed == 0 && self.end_to_end_error.is_none()
    }
}

/// The noise guard's verdict on a finished timed pass: `Some(reason)` when
/// the rep-to-rep spread of `sim_rt_ratio` exceeds its bound, or when a
/// rep got less CPU than wall. On a multi-worker workload the barrier
/// idles workers by design, so the floor there is one core's worth in
/// total, not per thread.
pub fn noise_verdict(session: &Session, e2e: &EndToEnd) -> Option<String> {
    let bound = spec::end_to_end("sim_rt_ratio").map_or(0.1, |m| m.bound);
    let mut why = Vec::new();
    let spread = e2e.rep_sim_rt_ratio.spread();
    if spread > bound {
        why.push(format!(
            "rep IQR/median of sim_rt_ratio {:.1}% exceeds the {:.0}% bound",
            spread * 100.0,
            bound * 100.0
        ));
    }
    let share = session
        .reps
        .iter()
        .filter(|r| r.wall_s > 0.0 && r.cpu_s > 0.0)
        .map(|r| r.cpu_s / r.wall_s)
        .fold(f64::INFINITY, f64::min);
    if share < MIN_CPU_SHARE {
        why.push(format!(
            "a rep got {share:.2} CPU-s per wall-s (floor {MIN_CPU_SHARE})"
        ));
    }
    (!why.is_empty()).then(|| why.join("; "))
}

fn line(name: &str, workload: &str, value: f64, unit: &str) {
    println!("{name} {workload} {} {unit}", json_num(value));
}

fn summary_note(s: &Summary) -> String {
    format!(
        "n={} min={:.4} q1={:.4} median={:.4} q3={:.4} max={:.4} spread={:.2}%",
        s.n,
        s.min,
        s.q1,
        s.median,
        s.q3,
        s.max,
        s.spread() * 100.0
    )
}

/// Prints one workload: every metric as `name workload value unit`, plus
/// `#` comment lines with sample counts and quartiles.
pub fn print_workload(r: &WorkloadReport) {
    let w = r.name;
    if let Some(why) = &r.skipped {
        println!("# {w}: skipped — {why}");
        return;
    }
    println!("# {w}: {} threads, {} timed reps", r.threads, r.reps);
    if let Some(e) = &r.end_to_end {
        for (m, v) in END_TO_END.iter().zip(e.values()) {
            println!(
                "{} {w} {} {}  # {}",
                m.name,
                json_num(v),
                m.unit,
                m.base.label()
            );
        }
        println!(
            "# {w} sim_rt_ratio per op:  {}",
            summary_note(&e.op_sim_rt_ratio)
        );
        println!(
            "# {w} sim_rt_ratio per rep: {}",
            summary_note(&e.rep_sim_rt_ratio)
        );
        println!(
            "# {w} set-up (generate + warm-up), s: {}",
            summary_note(&e.setup)
        );
        println!("# {w} switch samples: {}", e.switch_samples);
    }
    if let Some(err) = &r.end_to_end_error {
        println!("# {w}: end-to-end metrics unavailable — {err}");
    }
    if let Some(layers) = &r.per_layer {
        for m in &PER_LAYER {
            line(
                m.name,
                w,
                layers.get(m.name).copied().unwrap_or(0.0),
                m.unit,
            );
        }
    }
    if let Some(o) = r.tracing_overhead {
        line("tracing_overhead", w, o, "ratio");
    }
    line("ops", w, r.ops as f64, "count");
    line("ops_failed", w, r.ops_failed as f64, "count");
    for failure in &r.failures {
        println!("# {w}: FAILED — {failure}");
    }
    match &r.noisy {
        Some(why) => println!("# {w}: NOISY — {why}"),
        None => println!("# {w}: noise guard quiet"),
    }
}

fn metric_object(values: impl Iterator<Item = (&'static MetricSpec, f64)>) -> String {
    let mut out = String::from("{");
    for (i, (m, v)) in values.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(m.name),
            json_num(v),
            json_str(m.unit)
        );
    }
    out.push('}');
    out
}

/// The driver's result: one JSON object, to be the last line of stdout.
/// `traced` selects the per-layer metrics instead of the end-to-end ones.
pub fn driver_line(r: &WorkloadReport, traced: bool) -> String {
    let metrics = if traced {
        let layers = r.per_layer.as_ref();
        metric_object(PER_LAYER.iter().map(|m| {
            (
                m,
                layers.and_then(|l| l.get(m.name)).copied().unwrap_or(0.0),
            )
        }))
    } else {
        let values = r.end_to_end.as_ref().map_or([0.0; 8], |e| e.values());
        metric_object(END_TO_END.iter().zip(values))
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct(),
        r.ops.max(1),
        r.ops_failed,
        metrics
    )
}

fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"n\": {}, \"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}}}",
        s.n,
        json_num(s.min),
        json_num(s.q1),
        json_num(s.median),
        json_num(s.q3),
        json_num(s.max)
    )
}

fn loadavg_json(l: Option<[f64; 3]>) -> String {
    match l {
        Some([a, b, c]) => format!("[{}, {}, {}]", json_num(a), json_num(b), json_num(c)),
        None => "null".to_string(),
    }
}

/// The whole run as a JSON document (`out/results.json`), the input of
/// the `compare` subcommand.
pub fn results_json(seed: u64, host: &HostNote, reports: &[WorkloadReport]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n\"schema\": 1,\n\"seed\": {seed},\n\"host\": {{\"nproc\": {}, \"loadavg_start\": {}, \"loadavg_end\": {}}},\n\"workloads\": [",
        host.nproc,
        loadavg_json(host.loadavg_start),
        loadavg_json(host.loadavg_end)
    );
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\": {}, \"threads\": {}, \"skipped\": {}, \"noisy\": {}, \"reps\": {}, \"ops\": {}, \"ops_failed\": {}",
            json_str(r.name),
            r.threads,
            r.skipped.as_deref().map_or("null".to_string(), json_str),
            r.noisy.as_deref().map_or("null".to_string(), json_str),
            r.reps,
            r.ops,
            r.ops_failed
        );
        out.push_str(",\n \"end_to_end\": {");
        if let Some(e) = &r.end_to_end {
            for (k, (m, v)) in END_TO_END.iter().zip(e.values()).enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\n  {}: {{\"value\": {}, \"unit\": {}, \"base\": {}, \"better\": {}, \"bound\": {}",
                    json_str(m.name),
                    json_num(v),
                    json_str(m.unit),
                    json_str(m.base.label()),
                    json_str(m.better.label()),
                    json_num(m.bound)
                );
                // Host-time metrics carry their samples' summary, so that
                // `compare` can tell a difference from a spread: the reps
                // for `sim_rt_ratio`, the set-ups for `setup_s`.
                let samples = match m.name {
                    "sim_rt_ratio" => Some(&e.rep_sim_rt_ratio),
                    "setup_s" => Some(&e.setup),
                    _ => None,
                };
                if let Some(s) = samples {
                    let _ = write!(out, ", \"samples\": {}", summary_json(s));
                }
                if m.name == "sim_rt_ratio" {
                    let _ = write!(
                        out,
                        ", \"op_samples\": {}",
                        summary_json(&e.op_sim_rt_ratio)
                    );
                }
                out.push('}');
            }
            let _ = write!(out, "\n }},\n \"switch_samples\": {}", e.switch_samples);
        } else {
            out.push('}');
        }
        out.push_str(",\n \"per_layer\": {");
        if let Some(layers) = &r.per_layer {
            for (k, m) in PER_LAYER.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\n  {}: {{\"value\": {}, \"unit\": {}, \"base\": {}}}",
                    json_str(m.name),
                    json_num(layers.get(m.name).copied().unwrap_or(0.0)),
                    json_str(m.unit),
                    json_str(m.base.label())
                );
            }
            out.push_str("\n }");
        } else {
            out.push('}');
        }
        let _ = write!(
            out,
            ",\n \"tracing_overhead\": {}}}",
            r.tracing_overhead.map_or("null".to_string(), json_num)
        );
    }
    out.push_str("\n]\n}\n");
    out
}

/// Writes `text` to `dir/name`, creating `dir`.
pub fn write_out(dir: &Path, name: &str, text: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(name), text)
}
