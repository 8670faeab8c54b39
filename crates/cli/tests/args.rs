//! Command-line contract of `fedda-cli`: help requests print the usage and
//! exit 0, malformed flags take the `error:` path and exit 1, and neither
//! ever reaches a panic.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fedda-cli"))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn fedda-cli: {e}"))
}

/// Assert the exit code and that stderr carries no panic message; return
/// `(stdout, stderr)`.
fn expect_exit(args: &[&str], code: i32) -> (String, String) {
    let out = cli(args);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(code),
        "fedda-cli {args:?}: stdout {stdout:?}, stderr {stderr:?}"
    );
    assert!(
        !stderr.contains("panicked"),
        "fedda-cli {args:?} panicked: {stderr}"
    );
    (stdout, stderr)
}

#[test]
fn help_after_a_subcommand_prints_usage() {
    for args in [
        &["train", "--help"][..],
        &["train", "-h"],
        &["train", "--rounds", "3", "--help"],
        &["stats", "--help"],
        &["help"],
        &["--help"],
    ] {
        let (stdout, _) = expect_exit(args, 0);
        assert!(stdout.contains("USAGE:"), "{args:?}: {stdout}");
    }
}

#[test]
fn missing_flag_value_is_an_error_not_a_panic() {
    let (_, stderr) = expect_exit(&["train", "--scale"], 1);
    assert!(
        stderr.contains("error: missing value for --scale"),
        "{stderr}"
    );
}

#[test]
fn malformed_command_lines_exit_1() {
    for (args, msg) in [
        (
            &["train", "--seed", "1", "--seed", "2"][..],
            "duplicate flag --seed",
        ),
        (&["train", "stray"], "unexpected argument: stray"),
        (&["frobnicate"], "unknown subcommand 'frobnicate'"),
    ] {
        let (_, stderr) = expect_exit(args, 1);
        assert!(
            stderr.contains(&format!("error: {msg}")),
            "{args:?}: {stderr}"
        );
    }
    let (_, stderr) = expect_exit(&[], 1);
    assert!(stderr.contains("USAGE:"), "{stderr}");
}
