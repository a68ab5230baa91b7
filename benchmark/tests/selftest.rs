//! The benchmark's tests of itself (`cargo test --offline` inside
//! `benchmark/`; the smoke test is much quicker with `--release`).

use serde_json::Value;
use wgtt_benchmark::measure::Session;
use wgtt_benchmark::spec::{DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS};
use wgtt_benchmark::stats::{tail_percentile, MIN_TAIL_SAMPLES};
use wgtt_benchmark::workloads::{scenario_seeds, Scale, Workload};

#[test]
fn p95_refuses_fewer_than_200_samples() {
    let few: Vec<f64> = (0..MIN_TAIL_SAMPLES - 1).map(|i| i as f64).collect();
    let err = tail_percentile(&few, 0.95).unwrap_err();
    assert!(err.contains("200") && err.contains("199"), "{err}");
    let enough: Vec<f64> = (0..MIN_TAIL_SAMPLES).map(|i| i as f64).collect();
    let p95 = tail_percentile(&enough, 0.95).unwrap();
    assert!((p95 - 189.05).abs() < 1e-9, "{p95}");
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {v:?}"))
}

#[test]
fn names_are_well_formed_and_equal_benchmark_json() {
    let doc = benchmark_json();
    let list = |key: &str| doc.get(key).and_then(Value::as_array).expect(key).to_vec();

    let workloads = list("workloads");
    let names: Vec<&str> = workloads.iter().map(|w| str_field(w, "name")).collect();
    assert_eq!(names, WORKLOADS, "workloads differ from BENCHMARK.json");
    for w in &workloads {
        let why = str_field(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "why: {why}");
    }

    for (key, specs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = list(key);
        assert_eq!(listed.len(), specs.len(), "{key} count");
        for (json, spec) in listed.iter().zip(specs) {
            assert!(name_ok(spec.name), "bad metric name {}", spec.name);
            assert!(unit_ok(spec.unit), "bad unit {}", spec.unit);
            assert_eq!(str_field(json, "name"), spec.name);
            assert_eq!(str_field(json, "unit"), spec.unit, "{}", spec.name);
            assert_eq!(
                str_field(json, "better"),
                spec.better.label(),
                "{}",
                spec.name
            );
            if key == "end_to_end" {
                let bound = json.get("bound").and_then(Value::as_f64).expect("bound");
                assert_eq!(bound, spec.bound, "{}", spec.name);
                assert!(bound > 0.0 && bound <= 0.25, "{}", spec.name);
            }
        }
    }
    assert!(WORKLOADS.iter().all(|w| name_ok(w)));
    let mut all: Vec<&str> = WORKLOADS.to_vec();
    all.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
    let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
    assert_eq!(unique.len(), all.len(), "a name is used twice");

    // setup_s is the contract's set-up metric and carries the largest bound.
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.label()), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

    let paths = list("paths");
    assert_eq!(paths, vec![Value::String("benchmark".to_string())]);
}

#[test]
fn scenario_seeds_are_stable_for_the_default_seed_and_differ_for_another() {
    // Pinned: a change here silently changes every workload's inputs.
    assert_eq!(
        scenario_seeds(DEFAULT_SEED, "drive_udp", 3),
        [
            5_985_691_704_344_066_823,
            15_987_314_792_401_250_527,
            121_688_489_720_059_734
        ]
    );
    assert_eq!(
        scenario_seeds(DEFAULT_SEED, "fault_storm", 1),
        [3_360_685_989_293_579_936]
    );
    let other = scenario_seeds(DEFAULT_SEED + 1, "drive_udp", 3);
    assert!(scenario_seeds(DEFAULT_SEED, "drive_udp", 3)
        .iter()
        .all(|s| !other.contains(s)));
    // Workloads do not share seeds either.
    assert_ne!(
        scenario_seeds(DEFAULT_SEED, "drive_udp", 1),
        scenario_seeds(DEFAULT_SEED, "convoy_mixed", 1)
    );
}

#[test]
fn smoke_every_workload_runs_one_rep_without_a_failed_op() {
    for name in WORKLOADS {
        let workload = Workload::generate(name, DEFAULT_SEED, Scale::Smoke).expect(name);
        assert!(!workload.inputs.is_empty());
        // One worker: the smoke must pass on a one-core host too.
        let mut session = Session::new(workload, 1);
        session.run_rep();
        assert_eq!(session.ops, session.workload.inputs.len() as u64);
        assert_eq!(session.ops_failed, 0, "{name}: {:?}", session.failures);
        let tally = session.tally.as_ref().expect("the rep completed");
        assert!(tally.events > 10_000, "{name}: {} events", tally.events);
        assert!(
            tally.payload_bytes > 0 && !tally.switch_ns.is_empty(),
            "{name}"
        );
        assert_eq!(tally.seam_retention(), 1.0, "{name}");
        // A second rep repeats the first bit for bit.
        session.run_rep();
        assert_eq!(session.ops_failed, 0, "{name}: {:?}", session.failures);
    }
    assert!(Workload::generate("no_such_workload", 1, Scale::Smoke).is_none());
}
