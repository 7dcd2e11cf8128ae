//! Command-line contract of the harness binaries: `--jobs` never changes
//! results, `--json` writes schema-versioned reports, bad flags fail
//! with a usage message and exit status 2, and an unwritable `--json`
//! path fails with an error line and exit status 1, `explore --replay`
//! exits 0/1/2 for a clean, failing and malformed spec, and a closed
//! stdout stops every binary without a panic.

use std::path::PathBuf;
use std::process::Command;

fn fig7() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fig7"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fugu-bench-cli-{}-{name}", std::process::id()));
    p
}

#[test]
fn jobs_flag_does_not_change_json_output() {
    let a = tmp("jobs1.json");
    let b = tmp("jobs4.json");
    for (jobs, path) in [("1", &a), ("4", &b)] {
        let status = fig7()
            .args(["--quick", "--nodes", "2", "--jobs", jobs, "--json"])
            .arg(path)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("fig7 runs");
        assert!(status.success());
    }
    let ja = std::fs::read(&a).expect("report written");
    let jb = std::fs::read(&b).expect("report written");
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
    assert_eq!(
        ja, jb,
        "--jobs 1 and --jobs 4 reports must be byte-identical"
    );
    let text = String::from_utf8(ja).expect("reports are UTF-8");
    assert!(text.contains("\"schema\": \"fugu-bench/v1\""));
    assert!(text.contains("\"binary\": \"fig7\""));
    assert!(
        !text.contains("jobs"),
        "--jobs must not leak into the report"
    );
}

#[test]
fn unknown_flag_exits_2_with_usage() {
    let out = fig7().arg("--bogus").output().expect("fig7 runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option --bogus"));
    assert!(stderr.contains("--jobs"), "usage must list the flags");
}

#[test]
fn missing_value_exits_2() {
    let out = fig7().arg("--nodes").output().expect("fig7 runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--nodes needs a value"));
}

#[test]
fn zero_nodes_or_trials_exits_2_with_usage() {
    for (mut cmd, flag) in [
        (fig7(), "--nodes"),
        (fig7(), "--trials"),
        (Command::new(env!("CARGO_BIN_EXE_explore")), "--budget"),
    ] {
        let out = cmd.args([flag, "0"]).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{flag} 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: {flag} wants a positive integer")),
            "{flag} 0: {stderr}"
        );
        assert!(stderr.contains("--jobs"), "usage must list the flags");
        assert!(out.stdout.is_empty(), "{flag} 0 must not print a table");
    }
}

#[test]
fn help_exits_0() {
    let out = fig7().arg("--help").output().expect("fig7 runs");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("--json"));
}

#[test]
fn unwritable_json_path_exits_1_without_panicking() {
    // A path below a regular file can never be created.
    let file = tmp("not-a-dir");
    std::fs::write(&file, "").expect("temp file");
    let target = file.join("x.json");
    for (exe, extra) in [
        (env!("CARGO_BIN_EXE_table5"), &["--quick"][..]),
        (env!("CARGO_BIN_EXE_profile"), &["--quick"][..]),
        (
            env!("CARGO_BIN_EXE_explore"),
            &["--quick", "--budget", "1"][..],
        ),
    ] {
        let out = Command::new(exe)
            .args(extra)
            .arg("--json")
            .arg(&target)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{exe}: {stderr}");
        assert!(
            stderr.contains(&format!("error: writing {}", file.display())),
            "{exe}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{exe}: {stderr}");
    }
    let _ = std::fs::remove_file(&file);
}

#[test]
fn explore_replay_exit_codes() {
    for (spec, code) in [
        ("workload=enum:frames=8", 0),
        // Three nodes break barrier's power-of-two precondition: a
        // sim-thread panic the replay classifies.
        ("workload=barrier:nodes=3", 1),
        ("garbage", 2),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_explore"))
            .args(["--replay", spec])
            .output()
            .expect("explore runs");
        assert_eq!(
            out.status.code(),
            Some(code),
            "--replay {spec}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn closed_stdout_stops_every_binary_quietly() {
    let bins = [
        env!("CARGO_BIN_EXE_table4"),
        env!("CARGO_BIN_EXE_table5"),
        env!("CARGO_BIN_EXE_table6"),
        env!("CARGO_BIN_EXE_fig7"),
        env!("CARGO_BIN_EXE_fig8"),
        env!("CARGO_BIN_EXE_fig9"),
        env!("CARGO_BIN_EXE_fig10"),
        env!("CARGO_BIN_EXE_ablate"),
        env!("CARGO_BIN_EXE_chaos"),
        env!("CARGO_BIN_EXE_profile"),
        env!("CARGO_BIN_EXE_explore"),
    ];
    let runs = bins
        .iter()
        .map(|exe| (*exe, &["--help"][..]))
        .chain([(env!("CARGO_BIN_EXE_table4"), &[][..])]);
    for (exe, args) in runs {
        // A pipe whose read end is closed before the child starts, as
        // after `| head -1` has read its line: every write fails.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(exe)
            .args(args)
            .stdout(writer)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{exe} {args:?}: {stderr}");
        assert_ne!(out.status.code(), Some(101), "{exe} {args:?}: {stderr}");
    }
}
