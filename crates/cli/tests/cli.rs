//! Command-line boundary of `obm`: an unknown option, a flag missing its
//! value, a flag given twice or a stray positional is a usage error (exit
//! code 2 with the usage text, nothing run), never a panic or a silent run.

use std::process::{Command, Output};

fn obm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obm"))
        .args(args)
        .output()
        .expect("obm runs")
}

/// A spec file every command can read: the pinned `obm gen C1 --seed 3`.
fn spec() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/gen_c1_seed3.spec").to_string()
}

#[test]
fn removed_and_unknown_options_are_usage_errors() {
    let spec = spec();
    let spec = spec.as_str();
    for args in [
        &["experiments", "validate", "--fast", "--shards", "2"][..],
        &["experiments", "--shards", "2", "table1"],
        &["experiments", "table1", "--frobnicate"],
        &["experiments", "table1", "--out"],
        &["experiments", "table1", "--injection", "poisson"],
        &["experiments", "table1", "--fast", "--fast"],
        &["experiments", "table1", "nosuchid"],
        &["experiments"],
        &["experiments", "heatmap", spec, "-o", "x"],
        &["solve", spec, "--seed", "7"],
        &["solve", spec, "--seeds", "--aggressive"],
        &["map", spec, "--metrics", "f"],
        &["latency", "--mesh", "4", "--frobnicate"],
        &["latency", "stray"],
        &["gen", "C1", "--seed", "1", "--seed", "2"],
    ] {
        let out = obm(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("USAGE:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran a command");
    }
}

#[test]
fn a_switch_never_swallows_the_next_id() {
    let before = obm(&["experiments", "--fast", "fig5"]);
    assert_eq!(before.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&before.stdout);
    assert!(stdout.contains("Figure 5"), "{stdout}");
    assert_eq!(
        before.stdout,
        obm(&["experiments", "fig5", "--fast"]).stdout
    );
}

#[test]
fn list_still_succeeds() {
    let out = obm(&["experiments", "list"]);
    assert_eq!(out.status.code(), Some(0));
    let listed: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    let ids: Vec<&str> = obm_bench::experiments::ALL
        .iter()
        .map(|(id, _)| *id)
        .collect();
    assert_eq!(listed, ids);
}

#[test]
fn telemetry_commands_fill_the_metrics_snapshot() {
    let spec = spec();
    for (cmd, format) in [("heatmap", "prom"), ("trace", "json")] {
        let path = format!("{}/{cmd}.metrics", env!("CARGO_TARGET_TMPDIR"));
        let out = obm(&[
            "experiments",
            cmd,
            &spec,
            "--cycles",
            "500",
            "--metrics",
            &path,
            "--metrics-format",
            format,
        ]);
        assert_eq!(out.status.code(), Some(0), "{cmd}");
        let snapshot = std::fs::read_to_string(&path).expect("snapshot written");
        assert!(snapshot.contains("sim_cycles_total"), "{cmd}: {snapshot}");
        assert!(snapshot.contains("\"sim/route\""), "{cmd}: {snapshot}");
    }
}
