//! Command-line boundary of the `experiments` binary: bad options are
//! usage errors (exit code 2 with the usage line), never panics.

use std::process::Command;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

#[test]
fn removed_and_unknown_options_are_usage_errors() {
    for args in [
        &["validate", "--fast", "--shards", "2"][..],
        &["--shards", "2", "table1"],
        &["table1", "--frobnicate"],
        &["table1", "--out"],
        &["table1", "--injection", "poisson"],
    ] {
        let out = experiments(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran an experiment");
    }
}

#[test]
fn list_still_succeeds() {
    let out = experiments(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stderr).contains("validate"));
}
