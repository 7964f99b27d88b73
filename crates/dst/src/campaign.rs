//! The randomized campaign: seed → case → verified run.
//!
//! A [`CampaignCase`] — workload, topology and [`FaultPlan`] — is a pure
//! function of its seed, so any failing seed replays byte-for-byte on any
//! machine and shrinks deterministically (see [`crate::shrink`]). Each
//! case runs through the full [`Deployment`] twice and is checked for:
//!
//! * **validity** — every emitted solution passes
//!   `faultcheck::verify_detections` (overlapping intervals, real
//!   coverage) regardless of what faults fired;
//! * **determinism** — both runs produce the identical detection
//!   fingerprint;
//! * **losslessness** — when the plan is lossless (no crashes, every
//!   partition healed), no surviving node may end the run with
//!   undelivered reports;
//! * **exactness** — a fault-free case must reproduce the offline
//!   [`HierarchicalDetector`] reference verbatim;
//! * **multi-tenancy** — a seed-derived fleet of 1–8 registry tenants
//!   (tenant 0 full, the rest member-restricted) replays the same
//!   workload through [`PredicateRegistry`] under the plan's crashes;
//!   every tenant is re-verified independently with
//!   `faultcheck::verify_detections` and the whole fleet must replay
//!   deterministically.
//!
//! Deliberately not a check: *completeness* under faults. A run that
//! emits narrower-but-valid solutions after a crash passes — whether
//! every live subtree is still represented is the explorer's domain
//! ([`mod@crate::explore`]), which runs a few real cores exhaustively.
//! The campaign only tallies it: [`CaseReport::covered`] says whether
//! the run's last detection covers every process alive at its end.

use ftscp_analysis::shard::run_sharded;
use ftscp_core::deploy::{DeployConfig, Deployment};
use ftscp_core::faultcheck::{detection_fingerprint, verify_detections, verify_no_silent_drops};
use ftscp_core::monitor::MonitorConfig;
use ftscp_core::registry::{PredicateRegistry, TenantSpec};
use ftscp_core::{HierarchicalDetector, PredicateId};
use ftscp_simnet::{FaultOp, FaultPlan, LinkModel, NodeId, SimConfig, SimTime, Topology};
use ftscp_tree::SpanningTree;
use ftscp_vclock::ProcessId;
use ftscp_workload::{Execution, RandomExecution};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Decorrelates case-shape randomness from the fault-plan randomness
/// (which hashes the raw seed itself inside `FaultPlan::randomized`).
const CASE_SALT: u64 = 0x51c6_4b1f_0d83_77a9;

/// Seeds the tenant-count and tenant-membership draws. Deliberately a
/// *third* stream, hashed outside the [`CASE_SALT`] RNG: adding tenancy
/// to the campaign must not perturb any existing seed's case shape, or
/// every pinned regression seed in the suite would silently change
/// meaning.
const TENANT_SALT: u64 = 0xa24b_1f68_3d9e_0c57;

/// splitmix64 finalizer — the same stateless mixer the bench harness
/// uses to derive tenant member sets independent of any RNG stream.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One self-contained campaign case. Every field is derived from
/// `seed` by [`CampaignCase::from_seed`]; the struct stays public and
/// plain so shrunk cases can be pasted into regression tests literally.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignCase {
    /// Drives the workload, the network link timing, and the plan.
    pub seed: u64,
    /// Network size.
    pub n: usize,
    /// Spanning-tree fan-out.
    pub degree: usize,
    /// Intervals per process in the workload.
    pub rounds: usize,
    /// Probability a process skips a round (predicate stays false).
    pub skip_prob: f64,
    /// Probability an interval gets no concurrent partner.
    pub solo_prob: f64,
    /// Registry tenants run alongside the deployment (1–8). Tenant 0 is
    /// always the full conjunction; the rest get member sets derived
    /// from the seed by [`CampaignCase::tenant_specs`].
    pub tenants: usize,
    /// The fault script.
    pub plan: FaultPlan,
}

impl CampaignCase {
    /// Derives the complete case from a seed.
    ///
    /// Shapes are drawn from small palettes rather than free ranges so
    /// the campaign keeps hammering the structurally distinct
    /// configurations (shallow/deep trees, binary/ternary fan-out,
    /// sparse/dense workloads) instead of diffusing over near-identical
    /// ones. Every case gets the full fault plan — crashes, restarts,
    /// partitions, duplication, reordering and timer skew — and the
    /// monitors repair through their own protocol, the only one there is.
    /// Every scripted fault lands inside `10·(rounds + 1)` ≤ 70 ms (a
    /// restart up to half that later) while the suspicion timeout is
    /// `repair_delay` = 120 ms, so no cut outlasts it and the campaign
    /// produces no false suspicion (ROADMAP item 5 lengthens the plans).
    pub fn from_seed(seed: u64) -> CampaignCase {
        let mut rng = StdRng::seed_from_u64(seed ^ CASE_SALT);
        let n = *[4usize, 5, 7, 9, 12].choose(&mut rng).unwrap();
        let degree = *[2usize, 2, 3].choose(&mut rng).unwrap();
        let rounds = rng.gen_range(2..=6usize);
        let skip_prob = *[0.0, 0.0, 0.1, 0.3].choose(&mut rng).unwrap();
        let solo_prob = *[0.0, 0.0, 0.1, 0.3].choose(&mut rng).unwrap();
        // Interval spacing is 10ms (the deployment default), so the
        // workload occupies roughly rounds * 10ms; faults beyond that
        // horizon would fire into a drained network.
        let horizon = SimTime::from_millis(10 * (rounds as u64 + 1));
        let plan = FaultPlan::randomized(n, horizon, seed);
        let tenants = 1 + (mix64(seed ^ TENANT_SALT) % 8) as usize;
        CampaignCase {
            seed,
            n,
            degree,
            rounds,
            skip_prob,
            solo_prob,
            tenants,
            plan,
        }
    }

    /// The tenant declarations this case runs through the
    /// [`PredicateRegistry`]: tenant 0 is the full conjunction (the
    /// classic single-Φ shape every other campaign check exercises),
    /// tenants 1.. get seed-derived member sets of 1–4 processes. A pure
    /// function of `(seed, tenants, n)`, so the shrinker can cut the
    /// network or the tenant count and the surviving specs stay valid.
    pub fn tenant_specs(&self) -> Vec<TenantSpec> {
        let mut specs = vec![TenantSpec::full(PredicateId(0))];
        for k in 1..self.tenants {
            let mut probe = mix64(self.seed ^ TENANT_SALT ^ k as u64);
            let size = 1 + (probe % self.n.min(4) as u64) as usize;
            let mut members = Vec::with_capacity(size);
            while members.len() < size {
                probe = mix64(probe);
                let p = ProcessId((probe % self.n as u64) as u32);
                if !members.contains(&p) {
                    members.push(p);
                }
            }
            specs.push(TenantSpec::restricted(PredicateId(k as u32), members));
        }
        specs
    }

    /// The workload this case runs (pure function of the case).
    pub fn execution(&self) -> Execution {
        RandomExecution::builder(self.n)
            .intervals_per_process(self.rounds)
            .skip_prob(self.skip_prob)
            .solo_prob(self.solo_prob)
            .seed(self.seed)
            .build()
    }

    fn deploy_config(&self) -> DeployConfig {
        DeployConfig {
            sim: SimConfig {
                seed: self.seed,
                link: LinkModel {
                    min_delay: SimTime(200),
                    max_delay: SimTime(4_000),
                    drop_prob: 0.0,
                },
            },
            monitor: MonitorConfig {
                retransmit_period: Some(SimTime::from_millis(15)),
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// Test hook: deliberately injects a violation into [`run_case`] so
/// the shrinker's contract ("reduce while the failure reproduces") can
/// itself be tested without depending on a real protocol bug.
#[derive(Clone, Debug, PartialEq)]
pub enum ViolationHook {
    /// Any case whose plan crashes `node` "fails".
    CrashOf(NodeId),
}

/// The verdict of one case.
#[derive(Clone, Debug, PartialEq)]
pub struct CaseReport {
    /// The seed the case was derived from.
    pub seed: u64,
    /// `faultcheck::detection_fingerprint` of the first run.
    pub fingerprint: u64,
    /// Number of root detections emitted.
    pub detections: usize,
    /// Human-readable invariant violations; empty means the case passed.
    pub violations: Vec<String>,
    /// Completeness, tallied and not checked: the run's last detection
    /// (by time) covers every process alive at the end of the run.
    pub covered: bool,
}

/// True iff the plan can lose no monitor traffic: nobody crashes and
/// every installed cut is healed afterwards.
fn lossless(plan: &FaultPlan) -> bool {
    let mut open_cuts = 0usize;
    for (_, op) in plan.sorted_ops() {
        match op {
            FaultOp::Crash(_) => return false,
            FaultOp::Partition(_) => open_cuts += 1,
            FaultOp::Heal => open_cuts = 0,
            _ => {}
        }
    }
    open_cuts == 0
}

/// Runs the case's tenant fleet through a [`PredicateRegistry`] under
/// the same fault plan and re-verifies every tenant independently.
///
/// Crashes are replayed against the registry's crash-stop model
/// ([`PredicateRegistry::fail_node`]): each crash fires at the feed
/// position its `SimTime` maps to on the workload horizon, so a
/// mid-horizon crash interrupts the interval stream mid-flight just as
/// it does in the deployment. Restarts are ignored — the registry has no
/// rejoin protocol, and a permanently narrower view still has to emit
/// only *valid* solutions, which is exactly what `verify_detections`
/// asserts per tenant. The whole run is executed twice and the
/// per-tenant solution sequences must replay bit-identically.
fn check_registry(
    case: &CampaignCase,
    exec: &Execution,
    topo: &Topology,
    tree: &SpanningTree,
) -> Vec<String> {
    let specs = case.tenant_specs();
    let ivs = exec.intervals_interleaved();
    // Map each crash time onto a feed position: the deployment spaces
    // intervals ~10ms apart, so the workload occupies the same horizon
    // `from_seed` scripted the faults against.
    let horizon = SimTime::from_millis(10 * (case.rounds as u64 + 1));
    let total = ivs.len() as u64;
    let mut crashes: Vec<(usize, ProcessId)> = case
        .plan
        .crashes()
        .iter()
        .map(|&(t, v)| {
            let pos =
                t.0.saturating_mul(total)
                    .checked_div(horizon.0)
                    .unwrap_or(0)
                    .min(total);
            (pos as usize, v)
        })
        .collect();
    crashes.sort_unstable_by_key(|&(pos, p)| (pos, p.0));

    let run = || {
        let mut reg = PredicateRegistry::new(tree, &specs);
        let mut next = 0;
        for (i, iv) in ivs.iter().enumerate() {
            while next < crashes.len() && crashes[next].0 <= i {
                reg.fail_node(crashes[next].1, topo);
                next += 1;
            }
            reg.ingest((*iv).clone());
        }
        while next < crashes.len() {
            reg.fail_node(crashes[next].1, topo);
            next += 1;
        }
        reg
    };

    let reg = run();
    let mut violations = Vec::new();
    for slot in reg.tenants() {
        for v in verify_detections(exec, slot.root_solutions()) {
            violations.push(format!("registry tenant {:?}: {v}", slot.id()));
        }
    }
    let sequences: Vec<_> = reg.tenants().map(|t| t.solution_sequence()).collect();
    let replayed: Vec<_> = run().tenants().map(|t| t.solution_sequence()).collect();
    if sequences != replayed {
        violations.push(format!(
            "registry replay diverged across {} tenants",
            case.tenants
        ));
    }
    violations
}

fn coverages(dep: &Deployment) -> Vec<Vec<(u32, u64)>> {
    dep.detections()
        .iter()
        .map(|d| d.coverage.iter().map(|r| (r.process.0, r.seq)).collect())
        .collect()
}

/// Runs one case through the full deployment (twice, for the
/// determinism check) and re-verifies it.
pub fn run_case(case: &CampaignCase, hook: Option<&ViolationHook>) -> CaseReport {
    let exec = case.execution();
    let topo = Topology::dary_tree(case.n, case.degree, 1);
    let tree = SpanningTree::balanced_dary(case.n, case.degree);
    let cfg = case.deploy_config();
    let execute = || {
        let mut dep = Deployment::new(topo.clone(), tree.clone(), &exec, cfg);
        dep.apply_fault_plan(&case.plan);
        dep.run();
        dep
    };

    let dep = execute();
    let dets = dep.detections();
    let mut violations = verify_detections(&exec, &dets);
    if lossless(&case.plan) {
        violations.extend(verify_no_silent_drops(&dep));
    }
    if case.plan.is_empty() {
        let mut reference = HierarchicalDetector::new(&tree);
        for iv in exec.intervals_interleaved() {
            reference.feed(iv.clone());
        }
        let want: Vec<Vec<(u32, u64)>> = reference
            .root_solutions()
            .iter()
            .map(|d| d.coverage.iter().map(|r| (r.process.0, r.seq)).collect())
            .collect();
        if coverages(&dep) != want {
            violations.push(format!(
                "fault-free run diverged from the offline reference: got {} solutions, want {}",
                dets.len(),
                want.len()
            ));
        }
    }

    let fingerprint = detection_fingerprint(&dets);
    let replay = detection_fingerprint(&execute().detections());
    if fingerprint != replay {
        violations.push(format!(
            "non-deterministic replay: fingerprint {fingerprint:#018x} vs {replay:#018x}"
        ));
    }

    violations.extend(check_registry(case, &exec, &topo, &tree));

    if let Some(ViolationHook::CrashOf(victim)) = hook {
        if case.plan.crashes().iter().any(|&(_, v)| v == *victim) {
            violations.push(format!(
                "injected violation hook: plan crashes node {}",
                victim.0
            ));
        }
    }

    let covered = dets.last().is_some_and(|d| {
        let members = d.covered_processes();
        ProcessId::all(case.n).all(|p| !dep.is_alive(p) || members.contains(&p))
    });
    CaseReport {
        seed: case.seed,
        fingerprint,
        detections: dets.len(),
        violations,
        covered,
    }
}

/// The aggregate of a campaign run.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSummary {
    /// One report per seed, in seed order.
    pub reports: Vec<CaseReport>,
    /// Order-sensitive FNV-1a digest over every `(seed, fingerprint,
    /// pass/fail)` triple: two campaign invocations over the same seed
    /// range must agree on this single number.
    pub aggregate: u64,
}

impl CampaignSummary {
    /// Cases whose last detection covers every live process.
    pub fn covered(&self) -> usize {
        self.reports.iter().filter(|r| r.covered).count()
    }

    /// Reports that found at least one violation.
    pub fn failures(&self) -> Vec<&CaseReport> {
        self.reports
            .iter()
            .filter(|r| !r.violations.is_empty())
            .collect()
    }
}

fn fnv1a(digest: u64, word: u64) -> u64 {
    let mut h = digest;
    for byte in word.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs `count` seeded cases starting at `start_seed`, sharded across
/// the available cores (results stay in seed order, so the aggregate
/// fingerprint is independent of scheduling).
pub fn run_campaign(
    start_seed: u64,
    count: usize,
    hook: Option<&ViolationHook>,
) -> CampaignSummary {
    let reports = run_sharded(count, |i| {
        run_case(&CampaignCase::from_seed(start_seed + i as u64), hook)
    });
    let mut aggregate = 0xcbf2_9ce4_8422_2325u64;
    for r in &reports {
        aggregate = fnv1a(aggregate, r.seed);
        aggregate = fnv1a(aggregate, r.fingerprint);
        aggregate = fnv1a(aggregate, r.violations.len() as u64);
    }
    CampaignSummary { reports, aggregate }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_derivation_is_deterministic() {
        for seed in [0u64, 1, 17, 999_983] {
            assert_eq!(CampaignCase::from_seed(seed), CampaignCase::from_seed(seed));
        }
    }

    #[test]
    fn tenant_fleets_are_wellformed_and_seed_stable() {
        let mut counts = [0usize; 9];
        for seed in 0..200u64 {
            let case = CampaignCase::from_seed(seed);
            assert!((1..=8).contains(&case.tenants), "seed {seed}");
            counts[case.tenants] += 1;
            let specs = case.tenant_specs();
            assert_eq!(specs.len(), case.tenants);
            assert!(specs[0].members.is_empty(), "tenant 0 is the full Φ");
            for spec in &specs[1..] {
                assert!(!spec.members.is_empty());
                assert!(spec.members.len() <= 4);
                for m in &spec.members {
                    assert!((m.0 as usize) < case.n, "seed {seed}: member outside tree");
                }
            }
            assert_eq!(specs, case.tenant_specs(), "derivation must be pure");
        }
        assert!(
            counts[1..].iter().all(|&c| c > 0),
            "200 seeds should hit every fleet size 1–8: {counts:?}"
        );
    }

    #[test]
    fn tenant_count_shrinks_without_touching_case_shape() {
        // The tenant draw comes from its own salt stream: editing
        // `tenants` (as the shrinker does) or comparing across fleet
        // sizes must never interact with n/degree/rounds/plan.
        let case = CampaignCase::from_seed(42);
        let mut cut = case.clone();
        cut.tenants = 1;
        assert_eq!(cut.tenant_specs(), vec![TenantSpec::full(PredicateId(0))]);
        let full = case.tenant_specs();
        assert!(
            case.tenants < 2 || {
                cut.tenants = case.tenants - 1;
                cut.tenant_specs().as_slice() == &full[..full.len() - 1]
            }
        );
    }

    #[test]
    fn lossless_recognizes_healed_partitions_only() {
        assert!(lossless(&FaultPlan::new()));
        assert!(lossless(
            &FaultPlan::new()
                .partition_at(SimTime(10), &[NodeId(1)])
                .heal_at(SimTime(20))
        ));
        assert!(!lossless(
            &FaultPlan::new().partition_at(SimTime(10), &[NodeId(1)])
        ));
        assert!(!lossless(
            &FaultPlan::new().crash_at(SimTime(10), NodeId(1))
        ));
    }

    #[test]
    fn violation_hook_fires_only_on_matching_crashes() {
        // Find one case that crashes some node and one that doesn't.
        let victim_seed = (0..500u64)
            .find(|&s| !CampaignCase::from_seed(s).plan.crashes().is_empty())
            .expect("some seed crashes a node");
        let case = CampaignCase::from_seed(victim_seed);
        let victim = case.plan.crashes()[0].1;
        let report = run_case(&case, Some(&ViolationHook::CrashOf(victim)));
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("injected violation hook")));
        let other = NodeId(u32::MAX);
        let clean = run_case(&case, Some(&ViolationHook::CrashOf(other)));
        assert!(!clean
            .violations
            .iter()
            .any(|v| v.contains("injected violation hook")));
    }
}
