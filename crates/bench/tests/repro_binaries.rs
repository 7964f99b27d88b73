//! End-to-end tests of the reproduction binaries: each must run cleanly
//! and print the facts the paper's tables/figures assert.

use std::process::Command;

/// Runs `bin` in the target's scratch directory, so the CSVs it writes
/// under `results/` never overwrite the committed ones.
fn run(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
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

    let wall = table_rows(&out, "== Table I, wall-clock");
    assert_eq!(wall.len(), 7, "n = 7 … 511");
    for row in &wall {
        assert_eq!(row[4], row[5], "det hier == det sink in: {row:?}");
    }

    let ablation = table_rows(&out, "== Ablation: prune rule");
    assert_eq!(ablation.len(), 3, "n = 4, 8, 16");
    for row in &ablation {
        let num = |i: usize| row[i].parse::<f64>().expect("numeric cell");
        assert_eq!(row[1], row[2], "Eq. (10) and Eq. (9) solutions in: {row:?}");
        assert!(
            num(4) >= num(3),
            "Eq. (9) prunes no less per solution: {row:?}"
        );
        assert!(num(6) >= num(5), "Eq. (9) compares no less: {row:?}");
    }
}

/// The data rows of the table under the section headed `header`, as
/// trimmed cells.
fn table_rows(out: &str, header: &str) -> Vec<Vec<String>> {
    let start = out.find(header).unwrap_or_else(|| panic!("no {header:?}"));
    let section = &out[start + header.len()..];
    let section = &section[..section.find("\n== ").unwrap_or(section.len())];
    section
        .lines()
        .filter(|l| l.starts_with('|'))
        .skip(2) // header and separator
        .map(|l| {
            let cells = l.trim_matches('|').split('|');
            cells.map(|c| c.trim().to_string()).collect()
        })
        .collect()
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
