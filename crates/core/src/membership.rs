//! Decentralized tree membership: epochs, the suspicion → adoption
//! handshake, and the clairvoyant [`repair_plan`].
//!
//! The paper assumes spanning-tree repair as a substrate (§III-F) but
//! says nothing about *who* performs it. Until this module existed the
//! answer was "a clairvoyant harness": `core::deploy` inspected global
//! simulator state and reconfigured the monitors itself. That worked
//! only on the simulated backend — a real-socket deployment had no
//! repair at all. Membership moves repair into the protocol itself:
//!
//! * every node carries an **epoch** (incarnation number). Epochs are
//!   bumped when a node starts an adoption attempt or reboots, and they
//!   ride on every [`Heartbeat`](crate::protocol::DetectMsg::Heartbeat),
//!   so stale beacons from a previous incarnation and stale adoption
//!   handshakes are rejected deterministically;
//! * heartbeats also carry the sender's **ancestor chain** (its parent
//!   plus the rungs above, relayed one edge per beacon), so every child
//!   passively learns its *grandparent* — the preferred adopter of
//!   §III-F's reattachment rule (the same preference
//!   [`tree::reconnect`](ftscp_tree::SpanningTree::handle_failure)
//!   encodes for the clairvoyant oracle) — and, behind it, the full
//!   fallback ladder of great-grandparents for the storm where the
//!   grandparent died with the parent;
//! * when heartbeat suspicion (`MonitorCore::suspects`) fires, a node
//!   that lost a **child** drops the dead queue locally, and a node that
//!   lost its **parent** runs the adoption handshake:
//!
//! ```text
//!   child C                          grandparent G
//!     |  (parent P silent > timeout)   |
//!     |-- Suspect{from:C, suspect:P} ->|  G drops P's queue (if still a child)
//!     |-- Adopt{child:C, epoch:e,   ->|  G records epoch e for C,
//!     |         dead_parent:P}        |  opens an empty queue for C
//!     |<- AdoptAck{child:C, epoch:e, -|
//!     |            accepted:true}     |
//!     |-- ReReport{from:C, epoch:e} ->|  stream restart announcement
//!     |-- Interval{resync:true} ...  ->|  standalone-first re-reports
//!                                        refill G's fresh queue (§III-B)
//! ```
//!
//! The handshake is idempotent (duplicate `Adopt`s re-ack, a stale
//! `AdoptAck` is dropped by its epoch) and order-independent (`Adopt`
//! carries `dead_parent`, so it does not rely on the separate `Suspect`
//! arriving first over a non-FIFO transport).
//!
//! The clairvoyant harness survives as [`repair_plan`]: one list of
//! [`RepairStep`]s, computed from the repaired tree, that the simulated
//! deployment's `Scheduled` mode and the in-memory `HierarchicalDetector`
//! both apply by call. No wire carries a step.

use ftscp_simnet::Topology;
use ftscp_tree::SpanningTree;
use ftscp_vclock::ProcessId;
use std::collections::{BTreeMap, BTreeSet};

/// Where a node stands in the repair protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairState {
    /// Nothing in flight.
    Stable,
    /// Parent presumed dead; an `Adopt` with `epoch` is outstanding
    /// toward `target` (re-sent on every suspicion tick until acked).
    Adopting {
        /// The prospective new parent (usually the grandparent).
        target: ProcessId,
        /// The epoch this attempt was issued under; the matching
        /// `AdoptAck` must echo it.
        epoch: u64,
        /// The parent being replaced, if this attempt replaces one (a
        /// rebooted node rejoining from scratch has none).
        dead_parent: Option<ProcessId>,
    },
}

/// What a membership tick decided — the transport-specific driver acts
/// on these (the simulated backend sends the handshake immediately; the
/// TCP backend first re-targets its uplink socket at the new parent).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MembershipEvent {
    /// A dead child's queue was dropped locally.
    ChildDropped(ProcessId),
    /// An adoption handshake toward `target` is (still) wanted; send or
    /// re-send `Suspect` + `Adopt` once a channel to `target` exists.
    AdoptionStarted {
        /// The prospective new parent.
        target: ProcessId,
    },
    /// The parent is dead and no grandparent is known (the root died, or
    /// no heartbeat ever carried a hint): the node stays orphaned and
    /// detection over its subtree halts until an adopter appears.
    Orphaned {
        /// The dead parent.
        dead_parent: ProcessId,
    },
}

/// Knocks an orphan sends at one adoption target before giving up on it
/// and falling back to an older hint (or declaring itself orphaned). The
/// suspicion driver re-knocks every `timeout / 2`, so a cap of 4 gives a
/// slow-but-alive adopter two full suspicion periods to answer; a *dead*
/// adopter (the grandparent died with the parent) stops being dialed
/// after the fourth knock instead of forever.
pub const ADOPT_ATTEMPT_CAP: u32 = 4;

/// Longest ancestor chain carried on a heartbeat (and remembered from
/// one). Deep enough to climb any realistic monitor hierarchy — the
/// paper's trees are logarithmic, so 8 rungs cover hundreds of nodes —
/// while bounding the beacon's wire size.
pub const ANCESTOR_HINT_CAP: usize = 8;

/// Per-node membership view: own epoch, the freshest epoch heard from
/// each peer, the grandparent hint history, and the repair state machine.
#[derive(Clone, Debug)]
pub struct Membership {
    epoch: u64,
    peer_epochs: BTreeMap<ProcessId, u64>,
    grandparent: Option<ProcessId>,
    /// This node's ancestors *above its own parent*, nearest first — the
    /// chain carried by the parent's last heartbeat ([grandparent,
    /// great-grandparent, …], capped at [`ANCESTOR_HINT_CAP`]). Relayed
    /// verbatim as the `ancestors` field of this node's own heartbeats,
    /// so chains propagate one edge per beacon down the tree. May go
    /// stale across a re-parenting until the new parent's first beacon
    /// overwrites it — chains are hints, and the knock budget handles
    /// hints that turn out to be corpses.
    above_parent: Vec<ProcessId>,
    /// Every distinct grandparent hint ever heard, most recent last — the
    /// fallback-adopter ladder when the freshest hint turns out to be a
    /// corpse (the parent re-parented over its lifetime, so older hints
    /// name other live ancestors).
    hint_history: Vec<ProcessId>,
    /// Adoption targets that exhausted their knock budget during the
    /// current outage; never dialed again until an adoption succeeds or
    /// a genuinely new hint arrives.
    failed_targets: Vec<ProcessId>,
    /// Knocks sent at the current adoption target (bounded by
    /// [`ADOPT_ATTEMPT_CAP`]).
    attempts: u32,
    state: RepairState,
}

impl Membership {
    /// A stable view at `epoch` (0 for a first incarnation).
    pub fn new(epoch: u64) -> Self {
        Membership {
            epoch,
            peer_epochs: BTreeMap::new(),
            grandparent: None,
            above_parent: Vec::new(),
            hint_history: Vec::new(),
            failed_targets: Vec::new(),
            attempts: 0,
            state: RepairState::Stable,
        }
    }

    /// This node's current epoch (rides on its heartbeats).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The current repair state.
    pub fn state(&self) -> &RepairState {
        &self.state
    }

    /// True while an adoption handshake is outstanding.
    pub fn is_adopting(&self) -> bool {
        matches!(self.state, RepairState::Adopting { .. })
    }

    /// The last grandparent hint heard from the parent's heartbeats.
    pub fn grandparent(&self) -> Option<ProcessId> {
        self.grandparent
    }

    /// Folds one adoption hint into the ladder (most recent last; a
    /// never-seen hint clears the failed-target memory).
    fn note_hint(&mut self, hint: ProcessId) {
        if self.hint_history.last() != Some(&hint) {
            if !self.hint_history.contains(&hint) {
                self.failed_targets.clear();
            }
            self.hint_history.retain(|&h| h != hint);
            self.hint_history.push(hint);
        }
    }

    /// Records the full ancestor chain carried by the parent's heartbeat,
    /// in the two pieces the beacon carries it in: `nearest`, the
    /// parent's own parent, then `above`, the rungs beyond it — together
    /// this node's ancestors above its own parent, nearest first
    /// ([grandparent, great-grandparent, …]; empty when the parent is a
    /// root). The nearest rung becomes the grandparent hint, every rung
    /// enters the fallback ladder (farthest folded first, so
    /// [`next_adoption_candidate`](Self::next_adoption_candidate) dials
    /// nearest-first), and the capped chain is kept for relay on this
    /// node's own heartbeats.
    pub fn note_ancestors(&mut self, nearest: Option<ProcessId>, above: &[ProcessId]) {
        let room = ANCESTOR_HINT_CAP - usize::from(nearest.is_some());
        let above = &above[..above.len().min(room)];
        for &a in above.iter().rev().chain(&nearest) {
            self.note_hint(a);
        }
        self.above_parent.clear();
        self.above_parent.extend(nearest);
        self.above_parent.extend_from_slice(above);
        self.grandparent = self.above_parent.first().copied();
    }

    /// This node's ancestors above its own parent, nearest first — what
    /// its own heartbeats relay to its children as their chain beyond
    /// the grandparent.
    pub fn ancestor_chain(&self) -> &[ProcessId] {
        &self.above_parent
    }

    /// The fallback-adopter ladder: every distinct grandparent hint ever
    /// heard, most recent last.
    pub fn hint_history(&self) -> &[ProcessId] {
        &self.hint_history
    }

    /// Adoption targets written off during the current outage.
    pub fn failed_targets(&self) -> &[ProcessId] {
        &self.failed_targets
    }

    /// Knocks sent at the current adoption target.
    pub fn adoption_attempts(&self) -> u32 {
        self.attempts
    }

    /// Counts one more knock at the current adoption target. Returns
    /// `true` while the target's budget ([`ADOPT_ATTEMPT_CAP`]) allows
    /// another knock, `false` when the target should be abandoned.
    pub fn note_adoption_attempt(&mut self) -> bool {
        self.attempts += 1;
        self.attempts <= ADOPT_ATTEMPT_CAP
    }

    /// The freshest hint that is still worth dialing: most recent first,
    /// skipping this node itself, the dead parent being replaced, and
    /// every target already written off.
    pub fn next_adoption_candidate(
        &self,
        me: ProcessId,
        dead_parent: Option<ProcessId>,
    ) -> Option<ProcessId> {
        self.hint_history
            .iter()
            .rev()
            .copied()
            .find(|&c| c != me && Some(c) != dead_parent && !self.failed_targets.contains(&c))
    }

    /// Abandons the current adoption target (its knock budget ran out):
    /// the target joins the failed list and the attempt closes. The next
    /// suspicion tick re-opens adoption toward the best remaining
    /// candidate, or reports the node orphaned when the ladder is empty.
    pub fn abandon_adoption_target(&mut self) {
        if let RepairState::Adopting { target, .. } = self.state {
            if !self.failed_targets.contains(&target) {
                self.failed_targets.push(target);
            }
        }
        self.attempts = 0;
        self.state = RepairState::Stable;
    }

    /// Folds a peer's claimed epoch into the view. Returns false when the
    /// claim is *stale* — lower than an epoch already heard from that
    /// peer, i.e. traffic from a previous incarnation still in flight —
    /// in which case the caller must ignore the message entirely.
    pub fn observe_peer_epoch(&mut self, peer: ProcessId, epoch: u64) -> bool {
        let known = self.peer_epochs.entry(peer).or_insert(epoch);
        if epoch < *known {
            return false;
        }
        *known = epoch;
        true
    }

    /// The freshest epoch heard from `peer` (0 if never heard).
    pub fn peer_epoch(&self, peer: ProcessId) -> u64 {
        self.peer_epochs.get(&peer).copied().unwrap_or(0)
    }

    /// Opens an adoption attempt toward `target` under a fresh epoch,
    /// replacing `dead_parent` (None when joining from scratch). Returns
    /// the attempt's epoch. No-op returning the in-flight epoch if an
    /// attempt toward the same target is already outstanding.
    pub fn begin_adoption(&mut self, target: ProcessId, dead_parent: Option<ProcessId>) -> u64 {
        if let RepairState::Adopting {
            target: t, epoch, ..
        } = self.state
        {
            if t == target {
                return epoch;
            }
        }
        self.epoch += 1;
        self.attempts = 1;
        self.state = RepairState::Adopting {
            target,
            epoch: self.epoch,
            dead_parent,
        };
        self.epoch
    }

    /// True iff an `AdoptAck` from `from` echoing `epoch` answers the
    /// outstanding attempt.
    pub fn matches_adoption(&self, from: ProcessId, epoch: u64) -> bool {
        matches!(
            self.state,
            RepairState::Adopting { target, epoch: e, .. } if target == from && e == epoch
        )
    }

    /// Closes the outstanding attempt because the target *answered*
    /// (acked or refused): the outage is over or being re-negotiated, so
    /// the failed-target memory resets along with the knock counter.
    pub fn finish_adoption(&mut self) {
        self.attempts = 0;
        self.failed_targets.clear();
        self.state = RepairState::Stable;
    }
}

impl Default for Membership {
    fn default() -> Self {
        Membership::new(0)
    }
}

/// One reconfiguration of one monitor, decided by a clairvoyant repair
/// ([`repair_plan`]) and applied by call — never sent — by whoever drives
/// the monitors: [`MonitorCore::apply_repair`] on the simulated network,
/// `HierarchicalDetector` in memory. Each step is the oracle twin of a
/// handshake effect: [`RemoveChild`](Self::RemoveChild) plays `Suspect`,
/// [`AddChild`](Self::AddChild) plays `Adopt`, and
/// [`SetParent`](Self::SetParent) plays `AdoptAck` + `ReReport`.
///
/// [`MonitorCore::apply_repair`]: crate::transport::MonitorCore::apply_repair
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairStep {
    /// Drop this child and its queue (it failed or was re-parented).
    RemoveChild(ProcessId),
    /// Adopt this child: open an empty queue for it.
    AddChild(ProcessId),
    /// Become the root of the tree; the last output, shipped only to the
    /// dead root, is folded back into detection.
    PromoteRoot,
    /// The node's parent is now this one (`None`: a forest root). The
    /// node re-reports its last output to a new parent (§III-B).
    SetParent(Option<ProcessId>),
}

/// The plan of one clairvoyant repair after `failed` crash-stopped, in
/// the order it must be applied. Repairs `tree` (the shared
/// [`SpanningTree::handle_failure`] computation), retries every orphan
/// that `pending_orphans` holds from earlier, overlapping failures (and
/// leaves there the ones still partitioned), then reconciles every
/// affected monitor with the repaired tree.
///
/// `engine_children` reports the monitors' *current* child sets — the
/// plan only patches real differences, so repeated repairs are
/// idempotent. Order is part of the determinism contract: the dead
/// child's queue drop (or, when the root died, the promotion — a single
/// failure has one or the other), then adoptions/removals per affected
/// node, then the re-parent steps that trigger re-reports into the
/// adopters' fresh queues.
pub fn repair_plan<'a>(
    tree: &mut SpanningTree,
    pending_orphans: &mut Vec<ProcessId>,
    failed: ProcessId,
    topology: &Topology,
    alive: &[bool],
    engine_children: impl Fn(ProcessId) -> &'a [ProcessId],
) -> Vec<(ProcessId, RepairStep)> {
    let old_parents: Vec<Option<ProcessId>> = ProcessId::all(tree.capacity())
        .map(|n| tree.parent(n))
        .collect();
    let mut report = tree.handle_failure(failed, topology, alive);
    // Overlapping failures can strand orphan subtrees (e.g. a repair
    // that runs while the root's own crash is still unrepaired). Retry
    // every previously partitioned orphan now, and merge the outcome into
    // this repair's report; the ones still stranded wait for the next.
    pending_orphans.extend(report.partitioned.iter().copied());
    pending_orphans.sort_unstable();
    pending_orphans.dedup();
    let retry = tree.reattach_orphans(pending_orphans, topology, alive);
    *pending_orphans = retry.partitioned;
    report.affected.extend(retry.affected);
    report.affected.sort_unstable();
    report.affected.dedup();
    let affected: Vec<ProcessId> = report
        .affected
        .into_iter()
        .filter(|&a| tree.contains(a))
        .collect();

    let mut plan = Vec::new();
    // 1. The former parent drops the dead child's queue, or the promoted
    //    root takes over.
    if let Some(p) = report.former_parent {
        plan.push((p, RepairStep::RemoveChild(failed)));
    }
    if let Some(new_root) = report.new_root {
        plan.push((new_root, RepairStep::PromoteRoot));
    }
    // 2. Affected nodes reconcile children: removals and adoptions before
    //    any `RepairStep::SetParent`, whose re-report must land in an
    //    open queue.
    for &aff in &affected {
        let tree_children: BTreeSet<ProcessId> = tree.children(aff).iter().copied().collect();
        let engine_children: BTreeSet<ProcessId> = engine_children(aff).iter().copied().collect();
        for &gone in engine_children.difference(&tree_children) {
            if gone != failed {
                plan.push((aff, RepairStep::RemoveChild(gone)));
            }
        }
        for &new in tree_children.difference(&engine_children) {
            plan.push((aff, RepairStep::AddChild(new)));
        }
    }
    // 3. Re-parent steps (trigger re-reports).
    for &aff in &affected {
        let new_parent = tree.parent(aff);
        if new_parent != old_parents[aff.index()] {
            plan.push((aff, RepairStep::SetParent(new_parent)));
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_reject_stale_and_accept_fresh() {
        let mut m = Membership::new(0);
        assert!(m.observe_peer_epoch(ProcessId(2), 1));
        assert!(m.observe_peer_epoch(ProcessId(2), 1), "equal is fresh");
        assert!(!m.observe_peer_epoch(ProcessId(2), 0), "lower is stale");
        assert!(m.observe_peer_epoch(ProcessId(2), 3));
        assert_eq!(m.peer_epoch(ProcessId(2)), 3);
        assert_eq!(m.peer_epoch(ProcessId(9)), 0, "never heard");
    }

    #[test]
    fn adoption_attempt_lifecycle() {
        let mut m = Membership::new(0);
        let e = m.begin_adoption(ProcessId(1), Some(ProcessId(3)));
        assert_eq!(e, 1, "attempt bumps the epoch");
        assert!(m.is_adopting());
        assert_eq!(
            m.begin_adoption(ProcessId(1), Some(ProcessId(3))),
            e,
            "re-begin toward the same target keeps the in-flight epoch"
        );
        assert!(m.matches_adoption(ProcessId(1), e));
        assert!(!m.matches_adoption(ProcessId(1), e + 1), "wrong epoch");
        assert!(!m.matches_adoption(ProcessId(2), e), "wrong sender");
        m.finish_adoption();
        assert!(!m.is_adopting());
        assert!(!m.matches_adoption(ProcessId(1), e), "attempt closed");
    }

    #[test]
    fn hint_ladder_and_failed_target_memory() {
        let mut m = Membership::new(0);
        m.note_ancestors(Some(ProcessId(7)), &[]);
        m.note_ancestors(Some(ProcessId(8)), &[]);
        m.note_ancestors(Some(ProcessId(7)), &[]); // re-heard: moves to most-recent
        assert_eq!(m.hint_history(), &[ProcessId(8), ProcessId(7)]);
        assert_eq!(
            m.next_adoption_candidate(ProcessId(1), Some(ProcessId(0))),
            Some(ProcessId(7)),
            "most recent hint dialed first"
        );
        m.begin_adoption(ProcessId(7), Some(ProcessId(0)));
        m.abandon_adoption_target();
        assert_eq!(m.failed_targets(), &[ProcessId(7)]);
        assert_eq!(
            m.next_adoption_candidate(ProcessId(1), Some(ProcessId(0))),
            Some(ProcessId(8)),
            "fallback skips the written-off target"
        );
        m.begin_adoption(ProcessId(8), Some(ProcessId(0)));
        m.abandon_adoption_target();
        assert_eq!(
            m.next_adoption_candidate(ProcessId(1), Some(ProcessId(0))),
            None,
            "ladder exhausted"
        );
        // A re-heard old hint does not forgive a written-off target...
        m.note_ancestors(Some(ProcessId(8)), &[]);
        assert_eq!(
            m.next_adoption_candidate(ProcessId(1), Some(ProcessId(0))),
            None
        );
        // ...but a genuinely new hint re-opens every path.
        m.note_ancestors(Some(ProcessId(9)), &[]);
        assert!(m.failed_targets().is_empty());
        assert_eq!(
            m.next_adoption_candidate(ProcessId(1), Some(ProcessId(0))),
            Some(ProcessId(9))
        );
    }

    #[test]
    fn ancestor_chain_feeds_the_ladder_nearest_first() {
        let mut m = Membership::new(0);
        // Parent's beacon: grandparent 2, great-grandparent 1, root 0.
        m.note_ancestors(Some(ProcessId(2)), &[ProcessId(1), ProcessId(0)]);
        assert_eq!(m.grandparent(), Some(ProcessId(2)));
        assert_eq!(
            m.ancestor_chain(),
            &[ProcessId(2), ProcessId(1), ProcessId(0)],
            "kept verbatim for relay on this node's own beacons"
        );
        // Ladder dials nearest first, then climbs.
        assert_eq!(
            m.next_adoption_candidate(ProcessId(9), None),
            Some(ProcessId(2))
        );
        m.begin_adoption(ProcessId(2), None);
        m.abandon_adoption_target();
        assert_eq!(
            m.next_adoption_candidate(ProcessId(9), None),
            Some(ProcessId(1)),
            "a dead grandparent falls back to the next rung up"
        );
        m.begin_adoption(ProcessId(1), None);
        m.abandon_adoption_target();
        assert_eq!(
            m.next_adoption_candidate(ProcessId(9), None),
            Some(ProcessId(0)),
            "…all the way to the root"
        );
        // Repeated identical beacons keep the ladder stable.
        let ladder = m.hint_history().to_vec();
        m.note_ancestors(Some(ProcessId(2)), &[ProcessId(1), ProcessId(0)]);
        assert_eq!(m.hint_history(), &ladder[..]);
        // A root parent's beacon clears the chain (nothing above it).
        m.note_ancestors(None, &[]);
        assert_eq!(m.grandparent(), None);
        assert!(m.ancestor_chain().is_empty());
        // The cap bounds what is remembered and relayed.
        let long: Vec<ProcessId> = (0..20).map(ProcessId).collect();
        m.note_ancestors(Some(long[0]), &long[1..]);
        assert_eq!(m.ancestor_chain(), &long[..ANCESTOR_HINT_CAP]);
        m.note_ancestors(None, &long);
        assert_eq!(m.ancestor_chain(), &long[..ANCESTOR_HINT_CAP]);
    }

    #[test]
    fn knock_budget_counts_and_resets() {
        let mut m = Membership::new(0);
        m.begin_adoption(ProcessId(2), None);
        assert_eq!(m.adoption_attempts(), 1, "the opening knock counts");
        for k in 2..=ADOPT_ATTEMPT_CAP {
            assert!(m.note_adoption_attempt(), "knock {k} within budget");
        }
        assert!(!m.note_adoption_attempt(), "budget exhausted");
        m.abandon_adoption_target();
        assert_eq!(m.adoption_attempts(), 0);
        assert!(!m.is_adopting());
        // A target that *answers* clears the outage memory entirely.
        m.begin_adoption(ProcessId(3), None);
        m.finish_adoption();
        assert!(m.failed_targets().is_empty());
        assert_eq!(m.adoption_attempts(), 0);
    }

    #[test]
    fn retarget_opens_a_new_epoch() {
        let mut m = Membership::new(5);
        let e1 = m.begin_adoption(ProcessId(1), Some(ProcessId(3)));
        let e2 = m.begin_adoption(ProcessId(2), Some(ProcessId(3)));
        assert!(e2 > e1, "a different target is a fresh attempt");
        assert!(!m.matches_adoption(ProcessId(1), e1), "old attempt dead");
        assert!(m.matches_adoption(ProcessId(2), e2));
    }
}
