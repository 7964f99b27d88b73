//! End-to-end tests of the reproduction binaries: each must run cleanly
//! and print the facts the paper's tables/figures assert.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} exited with {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn repro_table1_prints_both_sections() {
    let out = run(env!("CARGO_BIN_EXE_repro_table1"), &[]);
    assert!(out.contains("Table I: analytic complexity"));
    assert!(out.contains("Table I, measured"));
    // The headline ratio column exists and the n = 32 row shows ratio 8.
    assert!(out.contains("cent/hier time"));
    // Detections agree in the clean-round rows.
    for line in out.lines().filter(|l| l.contains("(0.0/0.0)")) {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        assert_eq!(cells[4], cells[5], "det hier == det cent in: {line}");
    }
}

#[test]
fn repro_fig4_shows_erratum_and_growth() {
    let out = run(env!("CARGO_BIN_EXE_repro_fig4"), &[]);
    assert!(out.contains("cent (published)"));
    // The published closed form's h = 2 value is negative — the erratum.
    let h2_line = out
        .lines()
        .find(|l| l.trim_start().starts_with("|  2 |"))
        .expect("h=2 row");
    assert!(
        h2_line.contains("-40"),
        "erratum visible at h = 2: {h2_line}"
    );
    // Corrected and hierarchical α-curves agree at h = 2 (both 40).
    assert!(out.contains("Measured validation"));
    // Figure 5 is the same comparison at d = 4.
    assert!(out.contains("Figure 5: analytic series (p = 20, d = 4)"));
    assert!(out.contains("full 4-ary trees"));
}

#[test]
fn repro_examples_reproduces_all_figures() {
    let out = run(env!("CARGO_BIN_EXE_repro_examples"), &[]);
    assert!(out.contains("Figure 1"));
    assert!(out.contains("Figure 3"));
    assert!(out.contains("Figure 2"));
    assert!(out.contains("{x1,x2,x4,x5} Definitely: false"));
    assert!(out.contains("{x1,x3,x4,x5} Definitely: true"));
    assert!(out.contains("All worked examples reproduced."));
}

#[test]
fn ftscp_sim_cli_end_to_end() {
    let out = run(
        env!("CARGO_BIN_EXE_ftscp_sim"),
        &[
            "--nodes",
            "15",
            "--rounds",
            "4",
            "--seed",
            "3",
            "--crash",
            "5@150ms",
            "--baseline",
        ],
    );
    assert!(out.contains("hierarchical detections:"));
    assert!(out.contains("centralized baseline:"));
    assert!(out.contains("scheduled crash: node 5"));
}
