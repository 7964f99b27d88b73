//! Greedy seed shrinking: reduce a failing [`CampaignCase`] to a
//! minimal one that still fails, then render it as a ready-to-paste
//! regression test.
//!
//! The shrinker never re-derives anything from the seed — it edits the
//! concrete case (drop a fault op, shrink the network, thin the
//! workload, simplify its shape knobs) and keeps an edit only if the
//! caller's `still_fails` predicate holds on the edited case. Running
//! the candidates to a fixpoint yields a *locally* minimal case: no
//! single remaining edit preserves the failure. That is usually a
//! handful of ops on a 2–4 node network — small enough to read the
//! fault sequence off the plan directly.

use crate::campaign::CampaignCase;
use ftscp_simnet::{FaultOp, FaultPlan, SimTime};

fn plan_from_ops(ops: &[(SimTime, FaultOp)]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for (t, op) in ops {
        plan = plan.op_at(*t, op.clone());
    }
    plan
}

/// Highest node id the plan refers to, if any.
fn max_node_ref(plan: &FaultPlan) -> Option<u32> {
    plan.sorted_ops()
        .iter()
        .flat_map(|(_, op)| match op {
            FaultOp::Crash(v) | FaultOp::Restart(v) => vec![v.0],
            FaultOp::Partition(side) => side.iter().map(|v| v.0).collect(),
            FaultOp::TimerSkew { node, .. } => vec![node.0],
            _ => vec![],
        })
        .max()
}

/// Can the case be re-run on a network of `new_n` nodes?
fn n_fits(case: &CampaignCase, new_n: usize) -> bool {
    if new_n < 2 {
        return false;
    }
    if let Some(max_ref) = max_node_ref(&case.plan) {
        if max_ref as usize >= new_n {
            return false;
        }
    }
    // A partition side must stay a proper subset — cutting everything
    // (or nothing) is a different fault than the one being shrunk.
    case.plan.sorted_ops().iter().all(|(_, op)| match op {
        FaultOp::Partition(side) => !side.is_empty() && side.len() < new_n,
        _ => true,
    })
}

/// Single-edit reductions of `case`, most aggressive first.
fn candidates(case: &CampaignCase) -> Vec<CampaignCase> {
    let mut out = Vec::new();
    let ops = case.plan.sorted_ops();

    // Drop each fault op.
    for i in 0..ops.len() {
        let mut kept = ops.clone();
        kept.remove(i);
        let mut c = case.clone();
        c.plan = plan_from_ops(&kept);
        out.push(c);
    }

    // Shrink the network: jump to the smallest size the plan still
    // references, then single steps.
    let min_n = max_node_ref(&case.plan).map_or(2, |m| (m as usize + 1).max(2));
    for new_n in [min_n, case.n - 1] {
        if new_n < case.n && n_fits(case, new_n) {
            let mut c = case.clone();
            c.n = new_n;
            out.push(c);
        }
    }

    // Thin the workload: jump to one round, then single steps.
    for new_rounds in [1, case.rounds / 2, case.rounds - 1] {
        if new_rounds >= 1 && new_rounds < case.rounds {
            let mut c = case.clone();
            c.rounds = new_rounds;
            out.push(c);
        }
    }

    // Thin the tenant fleet: jump to the single full tenant, then
    // halve, then single steps. `tenant_specs` re-derives member sets
    // from (seed, tenants, n), so any cut fleet stays well-formed.
    for new_tenants in [1, case.tenants / 2, case.tenants - 1] {
        if new_tenants >= 1 && new_tenants < case.tenants {
            let mut c = case.clone();
            c.tenants = new_tenants;
            out.push(c);
        }
    }

    // Simplify shape knobs.
    if case.skip_prob > 0.0 {
        let mut c = case.clone();
        c.skip_prob = 0.0;
        out.push(c);
    }
    if case.solo_prob > 0.0 {
        let mut c = case.clone();
        c.solo_prob = 0.0;
        out.push(c);
    }
    if case.degree > 2 {
        let mut c = case.clone();
        c.degree = 2;
        out.push(c);
    }

    out.dedup();
    out
}

/// Greedily reduces `case` while `still_fails` keeps returning `true`
/// on the reduced case, to a fixpoint. `case` itself must fail — the
/// caller checks that before shrinking.
pub fn shrink_case(
    case: &CampaignCase,
    still_fails: &dyn Fn(&CampaignCase) -> bool,
) -> CampaignCase {
    let mut current = case.clone();
    // Each accepted edit strictly reduces (ops + n + rounds + knobs),
    // so the fixpoint terminates; the cap is a belt against a buggy
    // candidate generator.
    for _ in 0..10_000 {
        let next = candidates(&current).into_iter().find(|c| still_fails(c));
        match next {
            Some(c) => current = c,
            None => break,
        }
    }
    current
}

fn render_f64(v: f64) -> String {
    // `{:?}` keeps full precision and always includes a decimal point,
    // so the output is a valid f64 literal.
    format!("{v:?}")
}

fn render_plan(plan: &FaultPlan, indent: &str) -> String {
    let mut out = String::from("FaultPlan::new()");
    for (t, op) in plan.sorted_ops() {
        out.push('\n');
        out.push_str(indent);
        let call = match op {
            FaultOp::Crash(v) => format!(".crash_at(SimTime({}), NodeId({}))", t.0, v.0),
            FaultOp::Restart(v) => format!(".restart_at(SimTime({}), NodeId({}))", t.0, v.0),
            FaultOp::Partition(side) => {
                let ids: Vec<String> = side.iter().map(|v| format!("NodeId({})", v.0)).collect();
                format!(".partition_at(SimTime({}), &[{}])", t.0, ids.join(", "))
            }
            FaultOp::Heal => format!(".heal_at(SimTime({}))", t.0),
            // Window halves are emitted as raw ops: after shrinking,
            // an `On` may survive without its `Off` (or vice versa),
            // which the paired `*_between` builders reject.
            FaultOp::DuplicateOn { prob } => format!(
                ".op_at(SimTime({}), FaultOp::DuplicateOn {{ prob: {} }})",
                t.0,
                render_f64(prob)
            ),
            FaultOp::DuplicateOff => {
                format!(".op_at(SimTime({}), FaultOp::DuplicateOff)", t.0)
            }
            FaultOp::ReorderOn { window, prob } => format!(
                ".op_at(SimTime({}), FaultOp::ReorderOn {{ window: SimTime({}), prob: {} }})",
                t.0,
                window.0,
                render_f64(prob)
            ),
            FaultOp::ReorderOff => format!(".op_at(SimTime({}), FaultOp::ReorderOff)", t.0),
            FaultOp::TimerSkew { node, num, den } => {
                format!(
                    ".skew_timers_at(SimTime({}), NodeId({}), {num}, {den})",
                    t.0, node.0
                )
            }
        };
        out.push_str(&call);
    }
    out
}

/// Renders a shrunk case as a self-contained `#[test]` ready to paste
/// into `crates/dst/tests/` (the imports it needs are listed in the
/// header comment).
pub fn render_regression(case: &CampaignCase) -> String {
    format!(
        r#"// Shrunk by `ftscp_dst --shrink {seed}`. Needs:
// use ftscp_dst::{{run_case, CampaignCase}};
// use ftscp_simnet::{{FaultOp, FaultPlan, NodeId, SimTime}};
#[test]
fn shrunk_regression_seed_{seed}() {{
    let case = CampaignCase {{
        seed: {seed},
        n: {n},
        degree: {degree},
        rounds: {rounds},
        skip_prob: {skip},
        solo_prob: {solo},
        tenants: {tenants},
        plan: {plan},
    }};
    let report = run_case(&case, None);
    assert!(report.violations.is_empty(), "{{:?}}", report.violations);
}}
"#,
        seed = case.seed,
        n = case.n,
        degree = case.degree,
        rounds = case.rounds,
        skip = render_f64(case.skip_prob),
        solo = render_f64(case.solo_prob),
        tenants = case.tenants,
        plan = render_plan(&case.plan, "            "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftscp_simnet::NodeId;

    fn base_case() -> CampaignCase {
        CampaignCase {
            seed: 7,
            n: 7,
            degree: 3,
            rounds: 5,
            skip_prob: 0.1,
            solo_prob: 0.3,
            tenants: 5,
            plan: FaultPlan::new()
                .crash_at(SimTime(1_000), NodeId(5))
                .crash_at(SimTime(2_000), NodeId(2))
                .skew_timers_at(SimTime::ZERO, NodeId(4), 5, 4),
        }
    }

    #[test]
    fn shrinks_to_the_single_relevant_op() {
        // The "failure" only needs the crash of node 2 to reproduce.
        let fails = |c: &CampaignCase| c.plan.crashes().iter().any(|&(_, v)| v == NodeId(2));
        let shrunk = shrink_case(&base_case(), &fails);
        assert_eq!(shrunk.plan.crashes(), vec![(SimTime(2_000), NodeId(2))]);
        assert_eq!(shrunk.plan.len(), 1, "irrelevant ops dropped");
        assert_eq!(shrunk.rounds, 1);
        assert_eq!(shrunk.skip_prob, 0.0);
        assert_eq!(shrunk.solo_prob, 0.0);
        assert_eq!(shrunk.degree, 2);
        assert_eq!(shrunk.tenants, 1, "fleet thinned to the full tenant");
        // n can't shrink below the highest referenced node.
        assert_eq!(shrunk.n, 3);
    }

    #[test]
    fn shrink_respects_partition_subset_constraint() {
        let mut case = base_case();
        case.plan = FaultPlan::new()
            .partition_at(SimTime(1_000), &[NodeId(0), NodeId(1)])
            .heal_at(SimTime(2_000));
        // Failure needs the partition; the network may not shrink to 2
        // (side of 2 would cut everything), so 3 is the floor.
        let fails = |c: &CampaignCase| {
            c.plan
                .sorted_ops()
                .iter()
                .any(|(_, op)| matches!(op, FaultOp::Partition(_)))
        };
        let shrunk = shrink_case(&case, &fails);
        assert_eq!(shrunk.n, 3);
        assert_eq!(
            shrunk.plan.len(),
            1,
            "the heal is irrelevant to this predicate"
        );
    }

    #[test]
    fn rendered_regression_contains_the_literal_case() {
        let case = base_case();
        let text = render_regression(&case);
        assert!(text.contains("fn shrunk_regression_seed_7()"));
        assert!(text.contains(".crash_at(SimTime(1000), NodeId(5))"));
        assert!(text.contains(".skew_timers_at(SimTime(0), NodeId(4), 5, 4)"));
        assert!(text.contains("skip_prob: 0.1,"));
        assert!(text.contains("tenants: 5,"));
    }
}
