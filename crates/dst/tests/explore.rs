//! The model-check matrix, row by row: each row's failure classes are the
//! ones it pins, two runs agree to the last state, and the fault-free tree
//! detects over every process (so a clean verdict is not a vacuous one).

use ftscp_dst::explore::{explore, Class, Report, Row, MATRIX};

/// Explores `row` twice: the reports, state counts included, must be
/// equal, the search complete, and the classes the row's expected ones.
fn pinned(row: Row) -> Report {
    let report = explore(row);
    assert_eq!(report, explore(row), "{}: two runs differ", row.name);
    assert!(!report.truncated, "{}: search truncated", row.name);
    let classes: Vec<Class> = report.found.keys().copied().collect();
    assert_eq!(classes, row.expect, "{}: {:#?}", row.name, report.found);
    report
}

#[test]
fn fault_free_chain_detects_over_every_process() {
    let report = pinned(Row {
        name: "chain4 fault-free",
        budget: [0; 4],
        expect: &[],
        ..MATRIX[0]
    });
    assert!(
        report.full_detection,
        "no detection covered all 4 processes"
    );
}

#[test]
fn chain_with_one_crash_and_one_duplicate() {
    let report = pinned(MATRIX[0]);
    assert!(report.full_detection);
}

#[test]
fn fork_whose_internal_node_leaves_two_orphans() {
    pinned(MATRIX[1]);
}

#[test]
fn fork_whose_root_dies_with_its_first_heir() {
    pinned(MATRIX[2]);
}

#[test]
fn two_crash_storm() {
    let report = pinned(MATRIX[3]);
    // The hold on the dead child expires while the orphan below the
    // second corpse is still knocking: both crashes, nothing else.
    let missed = &report.found[&Class::Missed];
    assert_eq!(missed.len(), 2, "{missed:?}");
    assert!(
        missed.iter().all(|step| step.contains("CRASH")),
        "{missed:?}"
    );
}

#[test]
fn crash_restart_and_an_adopter_that_dies_before_its_ack() {
    let report = pinned(MATRIX[4]);
    let knocking = &report.found[&Class::Knocking];
    let restart = knocking.iter().position(|step| step.contains("RESTART"));
    let crash = knocking.iter().rposition(|step| step.contains("CRASH"));
    assert!(
        restart < crash,
        "the adopter dies after the rejoin: {knocking:?}"
    );
}

#[test]
fn root_restarted_after_its_heir_promoted() {
    // The dead root can restart only once its heir no longer sits below
    // it, so each such restart meets the heir's re-knock, and neither
    // adopts the other: no `Rootless`. What the row does find is F2, the
    // crashed internal node restarting into its old parent's queue.
    let report = pinned(MATRIX[5]);
    for class in [Class::Missed, Class::Uncovered] {
        let trace = &report.found[&class];
        let f2 = trace
            .iter()
            .any(|step| step.contains("RESTART 1 rejoin at 0"));
        assert!(f2, "{trace:?}");
    }
}
