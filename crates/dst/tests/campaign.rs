//! Campaign-level integration: replay determinism across the sharded
//! driver, a clean fixed seed range, and the shrinker demonstrated
//! end-to-end on a deliberately injected violation.

use ftscp_dst::campaign::{run_campaign, run_case, CampaignCase, ViolationHook};
use ftscp_dst::shrink::{render_regression, shrink_case};
use ftscp_simnet::{FaultPlan, NodeId, SimTime};

/// The whole campaign — case derivation, sharded scheduling, double
/// runs, verification — is a pure function of the seed range.
#[test]
fn campaign_replays_byte_identical() {
    let a = run_campaign(0, 40, None);
    let b = run_campaign(0, 40, None);
    assert_eq!(a.aggregate, b.aggregate);
    assert_eq!(a.reports, b.reports);
}

/// The CI gate in miniature: a fixed prefix of the seed space passes
/// every faultcheck invariant. (Completeness under faults is *not*
/// among them — that's the explorer's job; see docs/DST.md.)
#[test]
fn fixed_seed_range_passes_clean() {
    let summary = run_campaign(0, 80, None);
    let failures = summary.failures();
    assert!(
        failures.is_empty(),
        "failing seeds: {:?}",
        failures
            .iter()
            .map(|r| (r.seed, &r.violations))
            .collect::<Vec<_>>()
    );
}

/// End-to-end shrinker contract on a real campaign case: seed 3's
/// seven-op plan over four nodes reduces to the single fault the
/// injected predicate needs.
#[test]
fn shrinker_minimizes_the_injected_violation() {
    let hook = ViolationHook::CrashOf(NodeId(1));
    let case = CampaignCase::from_seed(3);
    let fails = |c: &CampaignCase| !run_case(c, Some(&hook)).violations.is_empty();
    assert!(fails(&case), "seed 3's plan crashes node 1");
    assert!(case.plan.len() > 1, "there is something to shrink away");

    let shrunk = shrink_case(&case, &fails);
    assert_eq!(
        shrunk.plan.crashes(),
        vec![(SimTime(13_647), NodeId(1))],
        "only the crash the predicate needs survives"
    );
    assert_eq!(shrunk.plan.len(), 1);
    assert_eq!(shrunk.n, 2, "network floor: the victim plus a root");
    assert_eq!(shrunk.rounds, 1);
    assert_eq!(shrunk.tenants, 1, "the fleet is irrelevant to the crash");

    let rendered = render_regression(&shrunk);
    assert!(rendered.contains("fn shrunk_regression_seed_3()"));
    assert!(rendered.contains(".crash_at(SimTime(13647), NodeId(1))"));
}

/// The checked-in output of `ftscp_dst --shrink 3 --inject-crash-of 1`
/// (hand-inlined): the minimal case runs clean without the hook —
/// pinning the protocol on this exact two-node crash scenario — and
/// still trips the hook's predicate, so the shrink above stays honest.
#[test]
fn shrunk_regression_seed_3() {
    let case = CampaignCase {
        seed: 3,
        n: 2,
        degree: 2,
        rounds: 1,
        skip_prob: 0.0,
        solo_prob: 0.0,
        tenants: 1,
        plan: FaultPlan::new().crash_at(SimTime(13647), NodeId(1)),
    };
    let report = run_case(&case, None);
    assert!(report.violations.is_empty(), "{:?}", report.violations);

    let hooked = run_case(&case, Some(&ViolationHook::CrashOf(NodeId(1))));
    assert!(
        hooked
            .violations
            .iter()
            .any(|v| v.contains("injected violation hook")),
        "the minimized case still reproduces the injected failure"
    );
}
