//! `wgtt-bench` argument checking: the registry is the only list of
//! experiment names, and anything outside it is refused before a single
//! experiment runs.

use std::collections::BTreeSet;
use std::process::{Command, Output};
use wgtt_bench::all_experiments;

fn wgtt_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wgtt-bench"))
        .args(args)
        .output()
        .expect("spawn wgtt-bench")
}

fn ids() -> Vec<&'static str> {
    all_experiments().into_iter().map(|(id, _)| id).collect()
}

#[test]
fn ids_are_unique_and_list_prints_exactly_them() {
    let ids = ids();
    let unique: BTreeSet<&str> = ids.iter().copied().collect();
    assert_eq!(unique.len(), ids.len(), "duplicate experiment id");

    let out = wgtt_bench(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 ids");
    assert_eq!(stdout.lines().collect::<Vec<_>>(), ids);
}

#[test]
fn unknown_input_exits_nonzero_and_names_the_valid_ids() {
    let ids = ids();
    // The bad argument comes after a valid id: nothing may run first.
    for args in [
        &["no_such_experiment"][..],
        &["table1_switch_time", "no_such_experiment", "--fast"],
        &["table1_switch_time", "--quick"],
        &["--fast"],
        &[],
    ] {
        let out = wgtt_bench(args);
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} ran an experiment");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 usage");
        for id in &ids {
            assert!(stderr.contains(id), "{args:?}: usage omits {id}");
        }
    }
}
