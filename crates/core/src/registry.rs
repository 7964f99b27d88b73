//! [`PredicateRegistry`] — many conjunctive predicates (tenants) over one
//! event stream.
//!
//! Production-scale monitoring means thousands of live predicates `Φ_k`
//! watched concurrently, not one `Φ` per deployment. The registry serves
//! them over shared infrastructure:
//!
//! * **One flat bank per tenant.** A tenant is one [`QueueBank`] with one
//!   queue per member process; a full tenant is simply the tenant whose
//!   members are every process of the tree. The spanning tree exists to
//!   *distribute* Algorithm 1 across machines, and Theorem 1 says its
//!   shape never changes which solution sets are found — so inside one
//!   process a tenant runs the algorithm over its members directly, and
//!   a solution out of the bank is the tenant's root detection.
//! * **One shared [`SpanningTree`].** It says which processes exist and
//!   are alive (a crashed process leaves it), sizes the routing index, and
//!   names the node a detection is reported at (its current root).
//! * **One allocation per bound clock.** The tenants that consume an
//!   interval each hold a clone of it, and cloning a `VectorClock` is a
//!   refcount bump, so fan-out to `k` tenants costs `O(k)` pointers, not
//!   `O(k·n)` components.
//! * **A per-process tenant index — the relevance filter.** Each tenant
//!   declares its *local-predicate set* (the member processes whose local
//!   predicates appear in its conjunction). [`ingest`] routes an event
//!   only to the tenants whose set contains the event's owner, straight
//!   into the owner's queue there — the slicing-style filter of
//!   Mittal–Garg's computation slicing and Chauhan et al.'s abstraction
//!   algorithm (see `PAPERS.md`): a tenant pays only for events that can
//!   affect its predicate, so aggregate cost grows with Σ|S_k|, not
//!   `tenants × events`.
//!
//! The naive alternative — offer every event to every tenant — is kept as
//! [`ingest_broadcast`]: detection outcomes are bit-identical (a tenant
//! ignores a non-member's event), only the billed routing cost differs.
//! The benchmark harness asserts the equality at runtime and gates both
//! cost counters.
//!
//! Per-tenant monitor state lives in a [`TenantSlot`]; transports key into
//! the same seam the single-predicate stack uses (`ftscp-net`'s tenancy
//! runtime drives a registry behind the shared framing/session layer,
//! batching uplink intervals per *connection* rather than per predicate —
//! see `docs/TENANCY.md`).
//!
//! [`ingest`]: PredicateRegistry::ingest
//! [`ingest_broadcast`]: PredicateRegistry::ingest_broadcast

use crate::membership::repair_tree;
use crate::report::GlobalDetection;
use ftscp_intervals::{Interval, QueueBank, SlotId, Solution};
use ftscp_simnet::{SimTime, Topology};
use ftscp_tree::SpanningTree;
use ftscp_vclock::ProcessId;
use std::collections::BTreeMap;

/// Identifies one of the monitored predicates.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PredicateId(pub u32);

/// Declares one tenant: a predicate id plus its local-predicate set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantSpec {
    /// The tenant's predicate id (unique within a registry).
    pub id: PredicateId,
    /// Member processes whose local predicates form the conjunction.
    /// Empty means *every* process in the tree (the classic single-Φ
    /// shape).
    pub members: Vec<ProcessId>,
}

impl TenantSpec {
    /// A tenant whose conjunction ranges over every process.
    pub fn full(id: PredicateId) -> Self {
        TenantSpec {
            id,
            members: Vec::new(),
        }
    }

    /// A tenant restricted to `members`.
    pub fn restricted(id: PredicateId, members: Vec<ProcessId>) -> Self {
        TenantSpec { id, members }
    }
}

/// Per-tenant monitor state: one queue bank over the tenant's members,
/// the detections it has produced, and its accounting.
pub struct TenantSlot {
    id: PredicateId,
    /// Sorted member set; member `k` owns queue `SlotId(k)` of `bank`.
    members: Vec<ProcessId>,
    bank: QueueBank,
    detections: Vec<GlobalDetection>,
    /// Member events this tenant has consumed — also its detection clock.
    relevant_feeds: u64,
}

impl TenantSlot {
    /// The tenant's predicate id.
    pub fn id(&self) -> PredicateId {
        self.id
    }

    /// The member set, sorted (every process of the tree for a full
    /// tenant).
    pub fn members(&self) -> &[ProcessId] {
        &self.members
    }

    /// Feeds this tenant has actually consumed (relevance-filtered).
    pub fn relevant_feeds(&self) -> u64 {
        self.relevant_feeds
    }

    /// The tenant's detections so far, in order.
    pub fn root_solutions(&self) -> &[GlobalDetection] {
        &self.detections
    }

    /// The tenant's solution sequence: `(solution index, coverage)` per
    /// root detection, in order. This is the repo's cross-backend
    /// bit-identity anchor — detection *times* are excluded (they count
    /// consumed events, not stream positions).
    pub fn solution_sequence(&self) -> Vec<(u64, Vec<(u32, u64)>)> {
        self.detections
            .iter()
            .map(|d| {
                (
                    d.solution.index,
                    d.coverage.iter().map(|r| (r.process.0, r.seq)).collect(),
                )
            })
            .collect()
    }

    /// Enqueues a member's interval on its queue.
    fn enqueue(&mut self, slot: SlotId, interval: Interval, root: ProcessId) {
        self.relevant_feeds += 1;
        let solutions = self.bank.enqueue(slot, interval);
        self.record(solutions, root);
    }

    /// Offers an event that may or may not be a member's.
    fn offer(&mut self, interval: &Interval, root: ProcessId) {
        if let Ok(k) = self.members.binary_search(&interval.source) {
            self.enqueue(SlotId(k as u32), interval.clone(), root);
        }
    }

    fn record(&mut self, solutions: Vec<Solution>, root: ProcessId) {
        let time = SimTime(self.relevant_feeds);
        self.detections.extend(
            solutions
                .into_iter()
                .map(|s| GlobalDetection::new(root, s, time)),
        );
    }
}

/// Registry-level routing/cost counters. All deterministic — the bench
/// harness gates them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Events ingested from the shared stream.
    pub events_ingested: u64,
    /// Tenant banks actually fed by the relevance filter
    /// ([`PredicateRegistry::ingest`]).
    pub tenant_touches: u64,
    /// Tenants offered an event by the naive broadcast path
    /// ([`PredicateRegistry::ingest_broadcast`]), relevant or not.
    pub broadcast_touches: u64,
}

/// True iff `p` is a process of `tree` — one that has not crashed, for the
/// registry's repaired tree.
fn in_tree(tree: &SpanningTree, p: ProcessId) -> bool {
    p.index() < tree.capacity() && tree.contains(p)
}

/// Many tenants, one event stream, one shared tree.
pub struct PredicateRegistry {
    tree: SpanningTree,
    slots: Vec<TenantSlot>,
    by_id: BTreeMap<PredicateId, usize>,
    /// `index[p]` = `(tenant, queue)` for every tenant whose member set
    /// contains process `p` — the per-process relevance filter. Emptied
    /// when `p` crashes.
    index: Vec<Vec<(u32, SlotId)>>,
    stats: RegistryStats,
}

impl PredicateRegistry {
    /// Builds a registry for `specs` over the shared `tree`.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty, a predicate id repeats, or a member set
    /// names a node outside the tree.
    pub fn new(tree: &SpanningTree, specs: &[TenantSpec]) -> Self {
        assert!(!specs.is_empty(), "at least one tenant");
        let mut slots = Vec::with_capacity(specs.len());
        let mut by_id = BTreeMap::new();
        let mut index: Vec<Vec<(u32, SlotId)>> = vec![Vec::new(); tree.capacity()];
        for spec in specs {
            let tenant = slots.len();
            assert!(
                by_id.insert(spec.id, tenant).is_none(),
                "duplicate predicate id {:?}",
                spec.id
            );
            let mut members = spec.members.clone();
            if members.is_empty() {
                members.extend(tree.nodes());
            }
            members.sort_unstable();
            members.dedup();
            for (k, &m) in members.iter().enumerate() {
                assert!(
                    in_tree(tree, m),
                    "tenant {:?} member {m} is not in the tree",
                    spec.id
                );
                index[m.index()].push((tenant as u32, SlotId(k as u32)));
            }
            slots.push(TenantSlot {
                id: spec.id,
                bank: QueueBank::new(members.len()),
                members,
                detections: Vec::new(),
                relevant_feeds: 0,
            });
        }
        PredicateRegistry {
            tree: tree.clone(),
            slots,
            by_id,
            index,
            stats: RegistryStats::default(),
        }
    }

    /// All tenant slots, in registration order.
    pub fn tenants(&self) -> impl Iterator<Item = &TenantSlot> {
        self.slots.iter()
    }

    /// The shared tree: the processes still alive, repaired after every
    /// [`fail_node`](Self::fail_node); its root is where detections are
    /// reported.
    pub fn tree(&self) -> &SpanningTree {
        &self.tree
    }

    /// Routing/cost counters.
    pub fn stats(&self) -> RegistryStats {
        self.stats
    }

    /// True iff `pred` is registered.
    pub fn contains(&self, pred: PredicateId) -> bool {
        self.by_id.contains_key(&pred)
    }

    /// The tenant slot of `pred`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown predicate id.
    pub fn tenant(&self, pred: PredicateId) -> &TenantSlot {
        &self.slots[self.slot_index(pred)]
    }

    /// Root-level detections of `pred`.
    pub fn root_solutions(&self, pred: PredicateId) -> &[GlobalDetection] {
        self.tenant(pred).root_solutions()
    }

    /// Total root detections across all tenants.
    pub fn total_detections(&self) -> usize {
        self.slots.iter().map(|s| s.detections.len()).sum()
    }

    /// The tenants whose local-predicate set contains `p`, i.e. the ones
    /// an event owned by `p` is routed to. Transports use this to build
    /// per-connection batches.
    pub fn tenants_for(&self, p: ProcessId) -> Vec<PredicateId> {
        self.index
            .get(p.index())
            .map(|row| {
                row.iter()
                    .map(|&(t, _)| self.slots[t as usize].id)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Ingests one event from the shared stream, routing it through the
    /// relevance filter: only tenants whose member set contains
    /// `interval.source` are fed, each on the owner's own queue.
    pub fn ingest(&mut self, interval: Interval) {
        self.stats.events_ingested += 1;
        let Some(row) = self.index.get(interval.source.index()) else {
            return;
        };
        let root = self.tree.root();
        self.stats.tenant_touches += row.len() as u64;
        for &(tenant, slot) in row {
            self.slots[tenant as usize].enqueue(slot, interval.clone(), root);
        }
    }

    /// Ingests one event the naive way: every tenant is offered every
    /// event, relevant or not. A tenant ignores a non-member's event, so
    /// detection outcomes (solution sequences) are bit-identical to
    /// [`ingest`](Self::ingest) — only the billed routing cost differs.
    /// Kept as the differential baseline.
    pub fn ingest_broadcast(&mut self, interval: Interval) {
        self.stats.events_ingested += 1;
        self.stats.broadcast_touches += self.slots.len() as u64;
        if in_tree(&self.tree, interval.source) {
            let root = self.tree.root();
            for slot in &mut self.slots {
                slot.offer(&interval, root);
            }
        }
    }

    /// Feeds an interval to a *single* tenant, bypassing routing — for
    /// predicates that each have their own event stream (e.g. one
    /// threshold per sensor quantity).
    ///
    /// # Panics
    ///
    /// Panics on an unknown predicate id.
    pub fn feed_tenant(&mut self, pred: PredicateId, interval: Interval) {
        let idx = self.slot_index(pred);
        self.stats.tenant_touches += 1;
        if in_tree(&self.tree, interval.source) {
            let root = self.tree.root();
            self.slots[idx].offer(&interval, root);
        }
    }

    /// §III-F: `node` crash-stops. The shared tree is repaired once, by the
    /// protocol's ladder rule
    /// ([`ladder_adopters`](crate::membership::ladder_adopters)), so later
    /// detections are reported at a live root (the first heir, when the
    /// root died); every tenant that has `node` as a member drops its
    /// queue — the solutions that releases are recorded — and the tenants
    /// that do not are not touched. From here on an event of `node` is
    /// ignored on every path.
    pub fn fail_node(&mut self, node: ProcessId, topology: &Topology) {
        if !in_tree(&self.tree, node) {
            return;
        }
        let alive: Vec<bool> = ProcessId::all(self.tree.capacity())
            .map(|p| p != node && self.tree.contains(p))
            .collect();
        repair_tree(&mut self.tree, topology, &alive, node);
        let root = self.tree.root();
        for (tenant, slot) in std::mem::take(&mut self.index[node.index()]) {
            let tenant = &mut self.slots[tenant as usize];
            let released = tenant.bank.remove_queue(slot);
            tenant.record(released, root);
        }
    }

    /// Total deterministic billed cost: routing touches (both paths) plus
    /// every tenant's vector-clock comparison count — the paper's §IV-C
    /// time-cost unit summed across the fleet. This is the number the
    /// tenancy bench gates and the sublinearity claim is stated over.
    pub fn billed_cost(&self) -> u64 {
        let ops: u64 = self.slots.iter().map(|s| s.bank.ops().get()).sum();
        self.stats.tenant_touches + self.stats.broadcast_touches + ops
    }

    fn slot_index(&self, pred: PredicateId) -> usize {
        *self
            .by_id
            .get(&pred)
            .unwrap_or_else(|| panic!("unknown predicate id {pred:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hier::HierarchicalDetector;
    use ftscp_intervals::offline::OfflineDetector;
    use ftscp_intervals::PruneRule;
    use ftscp_workload::RandomExecution;

    fn exec(n: usize, rounds: usize, seed: u64) -> ftscp_workload::Execution {
        RandomExecution::builder(n)
            .intervals_per_process(rounds)
            .seed(seed)
            .build()
    }

    /// One tenant's `solution_sequence()`.
    type Sequence = Vec<(u64, Vec<(u32, u64)>)>;

    fn sequences(reg: &PredicateRegistry) -> Vec<Sequence> {
        reg.tenants().map(|t| t.solution_sequence()).collect()
    }

    /// What a flat tenant and a hierarchy can agree on: a flat root's
    /// solution members are locals, a hierarchy's are child aggregates.
    fn outcome(dets: &[GlobalDetection]) -> Vec<(u64, Vec<ftscp_intervals::IntervalRef>)> {
        dets.iter()
            .map(|d| (d.solution.index, d.coverage.clone()))
            .collect()
    }

    /// `n`-process stream with skips and solos, so heads misalign and the
    /// sweep has work to do.
    fn noisy(n: usize, seed: u64) -> ftscp_workload::Execution {
        RandomExecution::builder(n)
            .intervals_per_process(6)
            .skip_prob(0.2)
            .solo_prob(0.15)
            .noise_msg_prob(0.3)
            .seed(seed)
            .build()
    }

    /// Theorem 1, as the registry relies on it: the flat bank of a full
    /// tenant finds what the hierarchy over the same tree finds, and a
    /// restricted tenant finds what Algorithm 1 finds given only its
    /// members' complete interval sequences.
    #[test]
    fn tenants_match_the_hierarchy_and_the_offline_oracle() {
        let mut detections = 0;
        for seed in 0..60u64 {
            let n = 5 + (seed as usize * 7) % 28;
            let tree = SpanningTree::balanced_dary(n, 2 + seed as usize % 3);
            let members: Vec<ProcessId> = (0..1 + seed % 9)
                .map(|k| ProcessId(((seed + 5 * k * k) % n as u64) as u32))
                .collect();
            let specs = [
                TenantSpec::full(PredicateId(0)),
                TenantSpec::restricted(PredicateId(1), members),
            ];
            let mut reg = PredicateRegistry::new(&tree, &specs);
            let mut solo = HierarchicalDetector::new(&tree);
            let e = noisy(n, seed);
            for iv in e.intervals_interleaved() {
                reg.ingest(iv.clone());
                solo.feed(iv.clone());
            }
            let full = outcome(reg.root_solutions(PredicateId(0)));
            assert_eq!(
                full,
                outcome(solo.root_solutions()),
                "seed {seed}: full tenant vs hierarchy"
            );

            let restricted = reg.tenant(PredicateId(1));
            let sequences = restricted
                .members()
                .iter()
                .map(|&m| e.intervals_of(m).to_vec())
                .collect();
            let oracle = OfflineDetector::new(sequences, PruneRule::Approximate).run();
            assert_eq!(
                restricted
                    .root_solutions()
                    .iter()
                    .map(|d| d.coverage.clone())
                    .collect::<Vec<_>>(),
                oracle
                    .solutions
                    .iter()
                    .map(|s| s.coverage())
                    .collect::<Vec<_>>(),
                "seed {seed}: restricted tenant vs offline oracle"
            );
            detections += full.len() + oracle.solutions.len();
        }
        assert!(detections > 100, "only {detections} detections compared");
    }

    #[test]
    fn indexed_and_broadcast_routing_agree() {
        let n = 13;
        let tree = SpanningTree::balanced_dary(n, 3);
        let specs = vec![
            TenantSpec::full(PredicateId(0)),
            TenantSpec::restricted(PredicateId(1), vec![ProcessId(4), ProcessId(5)]),
            TenantSpec::restricted(
                PredicateId(2),
                vec![ProcessId(1), ProcessId(7), ProcessId(12)],
            ),
            TenantSpec::restricted(PredicateId(3), vec![ProcessId(9)]),
        ];
        let mut indexed = PredicateRegistry::new(&tree, &specs);
        let mut broadcast = PredicateRegistry::new(&tree, &specs);
        let e = exec(n, 5, 23);
        for iv in e.intervals_interleaved() {
            indexed.ingest(iv.clone());
            broadcast.ingest_broadcast(iv.clone());
        }
        assert_eq!(
            sequences(&indexed),
            sequences(&broadcast),
            "relevance filtering must not change any tenant's solutions"
        );
        // Same *relevant* work, very different routing cost.
        let si = indexed.stats();
        let sb = broadcast.stats();
        assert_eq!(
            indexed
                .tenants()
                .map(|t| t.relevant_feeds())
                .collect::<Vec<_>>(),
            broadcast
                .tenants()
                .map(|t| t.relevant_feeds())
                .collect::<Vec<_>>()
        );
        assert_eq!(sb.broadcast_touches, si.events_ingested * 4);
        assert!(
            si.tenant_touches < sb.broadcast_touches,
            "filter must route fewer touches: {} vs {}",
            si.tenant_touches,
            sb.broadcast_touches
        );
    }

    #[test]
    fn restricted_tenant_joins_disjoint_subtrees_at_the_root() {
        // balanced 2-ary over 7: 0 -> {1, 2}, 1 -> {3, 4}, 2 -> {5, 6}.
        // Members 3 and 5 live in disjoint subtrees; the tenant joins them
        // in one bank and reports at the root 0.
        let tree = SpanningTree::balanced_dary(7, 2);
        let mut reg = PredicateRegistry::new(
            &tree,
            &[TenantSpec::restricted(
                PredicateId(0),
                vec![ProcessId(3), ProcessId(5)],
            )],
        );
        let e = exec(7, 3, 5);
        for iv in e.intervals_interleaved() {
            reg.ingest(iv.clone());
        }
        let dets = reg.root_solutions(PredicateId(0));
        assert!(!dets.is_empty(), "members overlap every round by seq");
        for d in dets {
            assert_eq!(d.at_node, ProcessId(0));
            let covered: Vec<u32> = d.coverage.iter().map(|r| r.process.0).collect();
            for p in &covered {
                assert!(
                    [3, 5].contains(p),
                    "coverage {covered:?} leaked a non-member"
                );
            }
        }
        // Only member events were routed.
        assert_eq!(
            reg.stats().tenant_touches,
            reg.tenants().next().unwrap().relevant_feeds()
        );
        assert_eq!(reg.stats().tenant_touches, 2 * 3);
    }

    #[test]
    fn irrelevant_events_touch_nothing() {
        let tree = SpanningTree::balanced_dary(5, 2);
        let mut reg = PredicateRegistry::new(
            &tree,
            &[TenantSpec::restricted(PredicateId(7), vec![ProcessId(2)])],
        );
        let e = exec(5, 2, 3);
        for iv in e.intervals_interleaved() {
            reg.ingest(iv.clone());
        }
        assert_eq!(reg.stats().events_ingested, 10);
        assert_eq!(reg.stats().tenant_touches, 2, "only process 2's events");
        assert_eq!(reg.tenants_for(ProcessId(0)), Vec::<PredicateId>::new());
        assert_eq!(reg.tenants_for(ProcessId(2)), vec![PredicateId(7)]);
    }

    #[test]
    fn single_member_tenant_detects_every_interval() {
        let tree = SpanningTree::balanced_dary(7, 2);
        let mut reg = PredicateRegistry::new(
            &tree,
            &[TenantSpec::restricted(PredicateId(0), vec![ProcessId(6)])],
        );
        let e = exec(7, 4, 2);
        for iv in e.intervals_interleaved() {
            reg.ingest(iv.clone());
        }
        // A 1-member conjunction holds for each of the member's intervals.
        assert_eq!(reg.root_solutions(PredicateId(0)).len(), 4);
    }

    #[test]
    fn interleaved_feeding_keeps_predicates_isolated() {
        // Two full tenants, each with its own stream (4 and 2 clean
        // rounds), fed alternately through `feed_tenant`: each must detect
        // exactly what a standalone detector fed only its stream detects.
        let n = 7;
        let tree = SpanningTree::balanced_dary(n, 2);
        let mut reg = PredicateRegistry::new(
            &tree,
            &[
                TenantSpec::full(PredicateId(0)),
                TenantSpec::full(PredicateId(1)),
            ],
        );
        let streams = [exec(n, 4, 1), exec(n, 2, 2)];
        let feeds: Vec<Vec<&Interval>> =
            streams.iter().map(|e| e.intervals_interleaved()).collect();
        for i in 0..feeds[0].len() {
            for (k, feed) in feeds.iter().enumerate() {
                if let Some(iv) = feed.get(i) {
                    reg.feed_tenant(PredicateId(k as u32), (*iv).clone());
                }
            }
        }
        for (k, feed) in feeds.iter().enumerate() {
            let mut solo = HierarchicalDetector::new(&tree);
            for iv in feed {
                solo.feed((*iv).clone());
            }
            assert_eq!(
                outcome(reg.root_solutions(PredicateId(k as u32))),
                outcome(solo.root_solutions()),
                "tenant {k} saw another tenant's stream"
            );
        }
        assert_eq!(reg.root_solutions(PredicateId(0)).len(), 4);
        assert_eq!(reg.root_solutions(PredicateId(1)).len(), 2);
    }

    #[test]
    fn member_failure_repairs_only_affected_tenants() {
        let n = 7;
        let topo = Topology::dary_tree(n, 2, 1);
        let tree = SpanningTree::balanced_dary(n, 2);
        let specs = vec![
            TenantSpec::restricted(PredicateId(0), vec![ProcessId(3), ProcessId(4)]),
            TenantSpec::restricted(PredicateId(1), vec![ProcessId(5), ProcessId(6)]),
            TenantSpec::full(PredicateId(2)),
            TenantSpec::full(PredicateId(3)),
        ];
        let mut reg = PredicateRegistry::new(&tree, &specs);
        reg.fail_node(ProcessId(3), &topo);
        // The shared tree is repaired once, for everyone.
        assert!(!reg.tree().contains(ProcessId(3)));
        assert_eq!(reg.tree().node_count(), n - 1);
        let e = exec(n, 3, 8);
        for iv in e.intervals_interleaved() {
            reg.ingest(iv.clone());
        }
        // The dead process routes nowhere; survivors still detect.
        assert_eq!(reg.tenants_for(ProcessId(3)), Vec::<PredicateId>::new());
        let survivors: Vec<ProcessId> = (0..n as u32).filter(|&p| p != 3).map(ProcessId).collect();
        for k in [2, 3] {
            // Every full-coverage tenant had the node: all narrow alike.
            assert_eq!(reg.root_solutions(PredicateId(k)).len(), 3);
            for d in reg.root_solutions(PredicateId(k)) {
                assert_eq!(d.covered_processes(), survivors);
            }
        }
        // Tenant 1 never had process 3 and was not touched.
        assert_eq!(reg.root_solutions(PredicateId(1)).len(), 3);
        assert_eq!(reg.tenant(PredicateId(1)).relevant_feeds(), 6);
        assert_eq!(reg.root_solutions(PredicateId(0)).len(), 3);
        for d in reg.root_solutions(PredicateId(0)) {
            assert_eq!(d.covered_processes(), vec![ProcessId(4)]);
        }
    }

    /// Feeds `e` through a registry of `specs`, crashing `crash.1` before
    /// event number `crash.0`; the dead process's later events stay in the
    /// stream.
    fn run_with_crash(
        e: &ftscp_workload::Execution,
        specs: &[TenantSpec],
        crash: Option<(usize, ProcessId)>,
        broadcast: bool,
    ) -> PredicateRegistry {
        let n = e.intervals.len();
        let topo = Topology::dary_tree(n, 3, 1);
        let mut reg = PredicateRegistry::new(&SpanningTree::balanced_dary(n, 3), specs);
        for (i, iv) in e.intervals_interleaved().into_iter().enumerate() {
            if crash.is_some_and(|(at, _)| at == i) {
                reg.fail_node(crash.expect("checked").1, &topo);
            }
            if broadcast {
                reg.ingest_broadcast(iv.clone());
            } else {
                reg.ingest(iv.clone());
            }
        }
        reg
    }

    #[test]
    fn mid_stream_crash_is_the_same_on_both_routing_paths() {
        let n = 13;
        let specs = vec![
            TenantSpec::full(PredicateId(0)),
            TenantSpec::restricted(PredicateId(1), vec![ProcessId(4), ProcessId(5)]),
            TenantSpec::restricted(
                PredicateId(2),
                vec![ProcessId(1), ProcessId(7), ProcessId(12)],
            ),
            TenantSpec::restricted(PredicateId(3), vec![ProcessId(9)]),
        ];
        for seed in 0..8 {
            let e = noisy(n, seed);
            let calm = run_with_crash(&e, &specs, None, false);
            // Process 7 is a member of tenants 0 and 2 only; it dies after
            // roughly two of its six rounds, and its later events still
            // arrive — a removed queue must ignore them, not panic.
            let crash = Some((2 * n + 3, ProcessId(7)));
            let indexed = run_with_crash(&e, &specs, crash, false);
            let broadcast = run_with_crash(&e, &specs, crash, true);
            assert_eq!(sequences(&indexed), sequences(&broadcast), "seed {seed}");
            for (a, b) in indexed.tenants().zip(broadcast.tenants()) {
                assert_eq!(a.relevant_feeds(), b.relevant_feeds(), "seed {seed}");
            }
            for k in [1, 3] {
                assert_eq!(
                    indexed.tenant(PredicateId(k)).solution_sequence(),
                    calm.tenant(PredicateId(k)).solution_sequence(),
                    "seed {seed}: a non-member's crash changed tenant {k}"
                );
            }
            for k in [0, 2] {
                let tenant = indexed.tenant(PredicateId(k));
                assert!(
                    tenant.relevant_feeds() < calm.tenant(PredicateId(k)).relevant_feeds(),
                    "seed {seed}: tenant {k} consumed a dead member's events"
                );
                let dead = ftscp_intervals::IntervalRef {
                    process: ProcessId(7),
                    seq: 2,
                };
                for d in tenant.root_solutions() {
                    assert!(d
                        .coverage
                        .iter()
                        .all(|r| r.process != dead.process || r < &dead));
                }
            }
        }
    }

    #[test]
    fn root_crash_moves_detections_to_the_new_root() {
        let n = 7;
        let specs = [TenantSpec::restricted(
            PredicateId(0),
            vec![ProcessId(0), ProcessId(3), ProcessId(5)],
        )];
        let e = exec(n, 4, 9);
        let reg = run_with_crash(&e, &specs, Some((2 * n, ProcessId(0))), false);
        let new_root = reg.tree().root();
        assert_ne!(new_root, ProcessId(0));
        let dets = reg.root_solutions(PredicateId(0));
        assert_eq!(dets.len(), 4);
        assert_eq!(dets[0].at_node, ProcessId(0));
        assert_eq!(dets[3].at_node, new_root);
        assert_eq!(
            dets[3].covered_processes(),
            vec![ProcessId(3), ProcessId(5)]
        );
        // A second crash report, and a stray feed, are no-ops.
        let mut reg = reg;
        reg.fail_node(ProcessId(0), &Topology::dary_tree(n, 3, 1));
        reg.feed_tenant(PredicateId(0), e.intervals_of(ProcessId(0))[3].clone());
        assert_eq!(reg.root_solutions(PredicateId(0)).len(), 4);
    }

    #[test]
    fn tenants_share_one_allocation_per_bound_clock() {
        let n = 7;
        let tree = SpanningTree::balanced_dary(n, 2);
        let specs: Vec<TenantSpec> = (0..8).map(|k| TenantSpec::full(PredicateId(k))).collect();
        let mut reg = PredicateRegistry::new(&tree, &specs);
        let e = exec(n, 3, 4);
        // One event, consumed by every tenant: each holds the same
        // allocation for either bound, however many tenants there are.
        reg.ingest(e.intervals_of(ProcessId(2))[0].clone());
        let head = |t: usize| reg.slots[t].bank.head(SlotId(2)).expect("queued");
        for t in 1..specs.len() {
            assert!(head(t).lo.shares_storage_with(&head(0).lo));
            assert!(head(t).hi.shares_storage_with(&head(0).hi));
        }
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn empty_registry_rejected() {
        let tree = SpanningTree::balanced_dary(3, 2);
        let _ = PredicateRegistry::new(&tree, &[]);
    }

    #[test]
    #[should_panic(expected = "duplicate predicate id")]
    fn duplicate_ids_rejected() {
        let tree = SpanningTree::balanced_dary(3, 2);
        let _ = PredicateRegistry::new(
            &tree,
            &[
                TenantSpec::full(PredicateId(1)),
                TenantSpec::restricted(PredicateId(1), vec![ProcessId(0)]),
            ],
        );
    }
}
