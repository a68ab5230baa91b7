//! `wgtt-benchmark`: the repo benchmark's one binary.
//!
//! ```text
//! wgtt-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! wgtt-benchmark suite [--seed <n>] [--seconds <s>] [--out <dir>]
//! wgtt-benchmark compare <A.json> <B.json>
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload,
//! one pass (timed with `--trace 0`, traced with `--trace 1`), and as the
//! last line of stdout one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `suite` runs all four workloads, the timed
//! pass with reps interleaved round-robin and then the traced pass, and
//! writes `results.json` and `trace.json` under `--out`.

use std::path::PathBuf;
use std::process::ExitCode;
use wgtt_benchmark::host::{self, HostNote};
use wgtt_benchmark::layers::traced_pass;
use wgtt_benchmark::measure::{set_up, EndToEnd, Session};
use wgtt_benchmark::report::{self, WorkloadReport};
use wgtt_benchmark::spec::{DEFAULT_SEED, WORKLOADS};
use wgtt_benchmark::trace::Tracer;
use wgtt_benchmark::workloads::{Scale, Workload};

/// Set-ups per run; `setup_s` reports their median.
const SETUPS: usize = 5;
/// Fewest timed reps, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// `--seconds` when not given: `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => o.workload = Some(value.clone()),
            "--seed" => o.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                o.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("seconds in (0, 600]"))?
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => o.out = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(o)
}

/// Generates the workload and warms it up [`SETUPS`] times (once for a
/// traced run, which reports no set-up time). `Err(report)` when the host
/// cannot run it.
fn prepare(
    name: &str,
    o: &Options,
    setups: usize,
) -> Result<(Session, Vec<f64>), Box<WorkloadReport>> {
    let nproc = host::nproc();
    let static_name = WORKLOADS
        .iter()
        .copied()
        .find(|w| *w == name)
        .unwrap_or("unknown");
    let Some(probe) = Workload::generate(name, o.seed, Scale::Full) else {
        return Err(Box::new(WorkloadReport::skipped(
            static_name,
            format!("unknown workload {name:?}; known: {WORKLOADS:?}"),
        )));
    };
    let Some(workers) = probe.threads_on(nproc) else {
        return Err(Box::new(WorkloadReport::skipped(
            probe.name,
            format!(
                "it measures {} lockstep workers and the host has {nproc} core(s)",
                probe.workers
            ),
        )));
    };
    drop(probe);
    let mut times = Vec::with_capacity(setups);
    let mut workload = None;
    for _ in 0..setups.max(1) {
        match set_up(name, o.seed, workers) {
            Ok((w, s)) => {
                times.push(s);
                workload = Some(w);
            }
            Err(e) => {
                let mut r = WorkloadReport::skipped(static_name, e);
                r.ops = 1;
                r.ops_failed = 1;
                return Err(Box::new(r));
            }
        }
    }
    let workload = workload.expect("at least one set-up ran");
    Ok((Session::new(workload, workers), times))
}

fn finish_timed(session: &Session, setups: &[f64]) -> WorkloadReport {
    let mut r = WorkloadReport::from_session(session);
    match EndToEnd::of(session, setups) {
        Ok(e) => {
            r.noisy = report::noise_verdict(session, &e);
            r.end_to_end = Some(e);
        }
        Err(e) => r.end_to_end_error = Some(e),
    }
    r
}

fn host_note_start() -> HostNote {
    HostNote {
        nproc: host::nproc(),
        loadavg_start: host::loadavg(),
        loadavg_end: None,
    }
}

fn print_host(h: &HostNote) {
    println!(
        "# host: nproc {} loadavg start {:?} end {:?}",
        h.nproc, h.loadavg_start, h.loadavg_end
    );
}

/// One workload, one pass: the form the driver runs.
fn run_one(o: &Options, name: &str) -> ExitCode {
    let mut host = host_note_start();
    let (mut session, setups) = match prepare(name, o, if o.trace { 1 } else { SETUPS }) {
        Ok(p) => p,
        Err(r) => {
            // A skipped workload is reported as skipped, not as a number.
            report::print_workload(&r);
            eprintln!("{name}: {}", r.skipped.as_deref().unwrap_or("not run"));
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(o.trace);
    let mut r = if o.trace {
        let traced = traced_pass(&mut session, &mut tracer, o.seed);
        let mut r = WorkloadReport::from_session(&session);
        r.per_layer = Some(traced.metrics);
        r.tracing_overhead = Some(traced.tracing_overhead);
        r
    } else {
        while session.reps.len() < MIN_REPS || session.measured_s() < o.seconds {
            session.run_rep();
        }
        finish_timed(&session, &setups)
    };
    host.loadavg_end = host::loadavg();
    print_host(&host);
    report::print_workload(&r);
    if o.trace {
        if let Err(e) = report::write_out(&o.out, "trace.json", &tracer.to_json()) {
            eprintln!("cannot write trace.json under {}: {e}", o.out.display());
            r.ops_failed += 1;
        }
    }
    println!("{}", report::driver_line(&r, o.trace));
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// All four workloads: timed pass (reps round-robin), then traced pass.
fn run_suite(o: &Options) -> ExitCode {
    let mut host = host_note_start();
    let mut sessions: Vec<(Session, Vec<f64>)> = Vec::new();
    let mut reports: Vec<WorkloadReport> = Vec::new();
    for name in WORKLOADS {
        match prepare(name, o, SETUPS) {
            Ok(p) => sessions.push(p),
            Err(r) => reports.push(*r),
        }
    }
    // Round-robin, so each workload's samples meet the host at several
    // different times.
    loop {
        let mut ran = false;
        for (session, _) in &mut sessions {
            if session.reps.len() < MIN_REPS || session.measured_s() < o.seconds {
                session.run_rep();
                ran = true;
            }
        }
        if !ran {
            break;
        }
    }
    let mut timed: Vec<WorkloadReport> = sessions
        .iter()
        .map(|(session, setups)| finish_timed(session, setups))
        .collect();
    let mut tracer = Tracer::new(true);
    for ((session, _), r) in sessions.iter_mut().zip(&mut timed) {
        let traced = traced_pass(session, &mut tracer, o.seed);
        r.per_layer = Some(traced.metrics);
        r.tracing_overhead = Some(traced.tracing_overhead);
        r.ops = session.ops;
        r.ops_failed = session.ops_failed;
        r.failures = session.failures.clone();
    }
    reports.extend(timed);
    reports.sort_by_key(|r| WORKLOADS.iter().position(|w| *w == r.name));
    host.loadavg_end = host::loadavg();
    print_host(&host);
    for r in &reports {
        report::print_workload(r);
    }
    let written = report::write_out(
        &o.out,
        "results.json",
        &report::results_json(o.seed, &host, &reports),
    )
    .and_then(|()| report::write_out(&o.out, "trace.json", &tracer.to_json()));
    if let Err(e) = written {
        eprintln!("cannot write under {}: {e}", o.out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "# wrote {0}/results.json and {0}/trace.json",
        o.out.display()
    );
    // A skipped workload is not a failure of the ones that ran.
    if reports.iter().all(|r| r.skipped.is_some() || r.correct()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: wgtt-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n       wgtt-benchmark suite [--seed <n>] [--seconds <s>] [--out <dir>]\n       wgtt-benchmark compare <A.json> <B.json>";
    match args.first().map(String::as_str) {
        Some("compare") => match args.as_slice() {
            [_, a, b] => match wgtt_benchmark::compare::compare_files(a, b) {
                Ok(outcome) => {
                    print!("{}", outcome.text);
                    ExitCode::from(outcome.exit_code() as u8)
                }
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{usage}");
                ExitCode::from(2)
            }
        },
        Some("suite") => match parse_options(&args[1..]) {
            Ok(o) if o.workload.is_none() => run_suite(&o),
            Ok(_) => {
                eprintln!("suite runs every workload; drop --workload\n{usage}");
                ExitCode::from(2)
            }
            Err(e) => {
                eprintln!("{e}\n{usage}");
                ExitCode::from(2)
            }
        },
        _ => match parse_options(&args) {
            Ok(o) => match o.workload.clone() {
                Some(name) => run_one(&o, &name),
                None => {
                    eprintln!("{usage}");
                    ExitCode::from(2)
                }
            },
            Err(e) => {
                eprintln!("{e}\n{usage}");
                ExitCode::from(2)
            }
        },
    }
}
