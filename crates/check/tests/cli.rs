//! `fgcheck` argument handling: input it does not know exits 2 with a
//! message, never as a silent pass.

use std::process::{Command, Output};

fn fgcheck(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fgcheck"))
        .args(args)
        .output()
        .expect("run fgcheck")
}

#[test]
fn the_shard_flag_is_an_unknown_flag() {
    let out = fgcheck(&["--shard", "--seed", "0", "--cases", "1"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --shard"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing ran");
}

#[test]
fn a_shard_descriptor_is_an_unknown_kernel() {
    let out = fgcheck(&["--case", "shard;g=uni:40:3:1;m=gcn;n=2;p=range;k=0"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown kernel `shard`"), "{stderr}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("PASS"));
}

#[test]
fn help_names_no_shard_family() {
    let out = fgcheck(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--sampler"), "{stdout}");
    assert!(!stdout.contains("shard"), "{stdout}");
}
