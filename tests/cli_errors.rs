//! The `hsyn` CLI fails helpfully: unknown `--benchmark` / `--library`
//! names exit nonzero and list every available name so the user can
//! correct the invocation without consulting the source.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hsyn"))
        .args(args)
        .output()
        .expect("hsyn binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_benchmark_lists_available_names() {
    for args in [
        &["--benchmark", "nope"][..],
        &["cosim", "--benchmark", "nope"][..],
        &["lint", "--benchmark", "nope"][..],
    ] {
        let (ok, stderr) = run(args);
        assert!(!ok, "{args:?} must fail");
        assert!(
            stderr.contains("unknown benchmark `nope`"),
            "{args:?}: {stderr}"
        );
        for name in ["paulin", "fft4", "matmul", "fir_block", "conv2d"] {
            assert!(
                stderr.contains(name),
                "{args:?}: error must list `{name}`: {stderr}"
            );
        }
    }
}

#[test]
fn unknown_library_lists_available_names() {
    let (ok, stderr) = run(&["--benchmark", "paulin", "--library", "nope"]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown library `nope`")
            && stderr.contains("table1")
            && stderr.contains("realistic"),
        "{stderr}"
    );
}

#[test]
fn unknown_subcommand_lists_subcommands() {
    let (ok, stderr) = run(&["serv"]);
    assert!(!ok, "a mistyped subcommand must fail");
    assert!(
        stderr.contains("unknown subcommand `serv`"),
        "stderr must name the bad word: {stderr}"
    );
    for sub in ["serve", "submit", "lint", "analyze", "cosim"] {
        assert!(stderr.contains(sub), "error must list `{sub}`: {stderr}");
    }
}

#[test]
fn conflicting_flags_are_rejected_with_an_explanation() {
    // Shadow evaluation cross-checks the incremental cache; disabling the
    // cache while demanding the cross-check is a contradiction.
    let (ok, stderr) = run(&["--benchmark", "paulin", "--shadow-eval", "--no-incremental"]);
    assert!(!ok, "--shadow-eval --no-incremental must fail");
    assert!(
        stderr.contains("--shadow-eval") && stderr.contains("--no-incremental"),
        "the error must name both flags: {stderr}"
    );
}

#[test]
fn retired_engine_flag_is_an_unknown_argument() {
    // A retired flag is rejected like any other unknown argument, with
    // the usage exit code, rather than silently ignored.
    let out = Command::new(env!("CARGO_BIN_EXE_hsyn"))
        .args(["--benchmark", "paulin", "--no-transactional"])
        .output()
        .expect("hsyn binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown argument `--no-transactional`"),
        "{stderr}"
    );
}

#[test]
fn submit_requires_a_daemon_address() {
    let (ok, stderr) = run(&["submit", "--benchmark", "paulin"]);
    assert!(!ok);
    assert!(
        stderr.contains("--connect"),
        "submit without --connect must say what is missing: {stderr}"
    );
}
