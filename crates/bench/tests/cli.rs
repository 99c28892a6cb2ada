//! `fgbench` reproduces the paper's tables and figures and nothing else:
//! serving is measured by `bench/e2e`, so the serving scenarios are unknown
//! commands that exit 2 with the usage line.

use std::process::{Command, Output};

fn fgbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fgbench"))
        .args(args)
        .output()
        .expect("run fgbench")
}

/// The commands the usage line offers: the `|`-separated list inside its
/// first `<...>`.
fn usage_commands(stderr: &str) -> Vec<String> {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("usage: fgbench <"))
        .unwrap_or_else(|| panic!("no usage line in {stderr:?}"));
    let open = line.find('<').unwrap() + 1;
    let close = open + line[open..].find('>').unwrap();
    line[open..close].split('|').map(str::to_string).collect()
}

#[test]
fn serving_scenarios_are_unknown_commands() {
    for cmd in ["serve", "sample", "mem"] {
        // Small, valid flags: a build that still runs the scenario finishes
        // quickly and exits 0.
        let out = fgbench(&[cmd, "--scale", "2000", "--runs", "1"]);
        assert_eq!(out.status.code(), Some(2), "fgbench {cmd}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: fgbench"), "{cmd}: {stderr}");
    }
}

#[test]
fn usage_names_paper_commands_only() {
    let out = fgbench(&["no-such-command"]);
    assert_eq!(out.status.code(), Some(2));
    let commands = usage_commands(&String::from_utf8_lossy(&out.stderr));
    for paper in ["table3", "table6", "fused", "all", "compare"] {
        assert!(
            commands.iter().any(|c| c == paper),
            "{paper} in {commands:?}"
        );
    }
    for gone in ["serve", "sample", "mem"] {
        assert!(
            !commands.iter().any(|c| c == gone),
            "{gone} in {commands:?}"
        );
    }
}
