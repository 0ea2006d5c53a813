//! The output check must be able to fail: one perturbed golden value has
//! to fail every pass (`failed == attempted`) and make the command exit
//! non-zero, while the unperturbed file passes.

use std::path::PathBuf;
use std::process::{Command, Output};

const GOLDEN: &str = include_str!("../golden.txt");

fn run(golden: &str, name: &str, seed: &str) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("golden.txt");
    std::fs::write(&path, golden).unwrap();
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "faults_observed", "--seed", seed])
        .args(["--seconds", "1", "--trace", "0", "--golden"])
        .arg(&path)
        .arg("--out")
        .arg(&dir)
        .output()
        .unwrap()
}

/// (correct, attempted, failed) from the last stdout line.
fn verdict(out: &Output) -> (bool, u64, u64) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    let num = |key: &str| -> u64 {
        let rest = &last[last.find(key).expect(key) + key.len()..];
        rest.split(|c: char| !c.is_ascii_digit())
            .find(|s| !s.is_empty())
            .unwrap()
            .parse()
            .unwrap()
    };
    (
        last.contains("\"correct\": true"),
        num("\"attempted\":"),
        num("\"failed\":"),
    )
}

#[test]
fn the_committed_golden_values_pass() {
    let out = run(GOLDEN, "clean", "23061");
    let (correct, attempted, failed) = verdict(&out);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(correct && attempted >= 1 && failed == 0);
}

#[test]
fn one_perturbed_golden_value_fails_every_pass() {
    let line = GOLDEN
        .lines()
        .find(|l| l.starts_with("faults_observed "))
        .expect("a faults_observed golden row");
    let events: u64 = line
        .split_whitespace()
        .find_map(|f| f.strip_prefix("events="))
        .unwrap()
        .parse()
        .unwrap();
    let perturbed = GOLDEN.replacen(
        line,
        &line.replace(
            &format!("events={events}"),
            &format!("events={}", events + 1),
        ),
        1,
    );
    assert_ne!(perturbed, GOLDEN);
    let out = run(&perturbed, "perturbed", "23061");
    let (correct, attempted, failed) = verdict(&out);
    assert!(!out.status.success());
    assert!(!correct && attempted >= 1 && failed == attempted);
}

#[test]
fn golden_values_bind_only_the_default_seed() {
    // Any other seed is checked by the invariants alone, so the same
    // perturbation cannot fail it.
    let perturbed = GOLDEN.replacen("events=", "events=1", 1);
    let out = run(&perturbed, "other-seed", "7");
    let (correct, _, failed) = verdict(&out);
    assert!(out.status.success() && correct && failed == 0);
}
