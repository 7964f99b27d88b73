//! Decentralized tree membership: epochs, the suspicion → adoption
//! handshake, succession, and the ladder rule they implement
//! ([`ladder_adopters`]).
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
//! * heartbeats to children also carry the sender's **ancestor chain**
//!   (its parent plus the rungs above, relayed one edge per beacon), so
//!   every child passively learns its *grandparent* — the preferred
//!   adopter of §III-F's reattachment rule — and, behind it, the full
//!   fallback ladder of great-grandparents for the storm where the
//!   grandparent died with the parent;
//! * a root has no rungs above it and beacons its **heirs** there
//!   instead: its live children, by id. The line travels the chain like
//!   any rung, so the root's children climb it when the root dies — the
//!   first heir finds its own id on the ladder and promotes itself, the
//!   others adopt under it — and a deeper orphan finds it above the
//!   root. A node whose ladder runs out promotes itself too, rooting its
//!   subtree as a forest, and re-knocks its lost parent every heartbeat
//!   round until that parent answers (a healed cut). No adoption closes a
//!   cycle (a node refuses its parent, its rungs and, before it heard a
//!   chain, any knock that replaces no dead parent);
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
//! There is one ladder: the chain the parent last beaconed, which an
//! orphan climbs nearest-first and [`ladder`] builds from the tree. What
//! the handshake settles to after a crash is a pure function of the
//! tree, the topology and who is alive: [`ladder_adopters`]. The
//! message-free `HierarchicalDetector` and `PredicateRegistry` repair by
//! it, so every deployment and the in-memory reference build one tree.

use ftscp_simnet::Topology;
use ftscp_tree::SpanningTree;
use ftscp_vclock::ProcessId;
use std::collections::BTreeMap;

/// Where a node stands in the repair protocol.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
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
    /// The parent is dead and the ladder reached this node's own id (it
    /// is next in the dead root's succession line) or ran out: the node
    /// is now the root of its subtree and knocks at `dead_parent` every
    /// heartbeat round, re-attaching if it answers.
    Promoted {
        /// The parent it promoted itself over.
        dead_parent: ProcessId,
    },
}

/// Knocks an orphan sends at one adoption target before giving up on it
/// and falling back to the next rung of its ancestor chain (or promoting
/// itself when the chain runs out). The suspicion driver re-knocks every
/// `timeout / 2`, so a cap of 4 gives a slow-but-alive adopter two full
/// suspicion periods to answer; a *dead* adopter (the grandparent died
/// with the parent) stops being dialed after the fourth knock instead of
/// forever.
pub const ADOPT_ATTEMPT_CAP: u32 = 4;

/// Longest ancestor chain carried on a heartbeat (and remembered from
/// one). Deep enough to climb any realistic monitor hierarchy — the
/// paper's trees are logarithmic, so 8 rungs cover hundreds of nodes —
/// while bounding the beacon's wire size.
pub const ANCESTOR_HINT_CAP: usize = 8;

/// Per-node membership view: own epoch, the freshest epoch heard from
/// each peer, the ancestor chain the parent last beaconed (the one
/// adoption ladder), and the repair state machine. Every field is logical
/// state, so `Hash` is its digest.
#[derive(Clone, Debug, Hash)]
pub struct Membership {
    epoch: u64,
    peer_epochs: BTreeMap<ProcessId, u64>,
    /// This node's ancestors *above its own parent*, nearest first — the
    /// chain carried by the parent's last heartbeat ([grandparent,
    /// great-grandparent, …], capped at [`ANCESTOR_HINT_CAP`]). Relayed
    /// verbatim as the `ancestors` field of this node's own heartbeats,
    /// so chains propagate one edge per beacon down the tree. May go
    /// stale across a re-parenting until the new parent's first beacon
    /// overwrites it — chains are hints, and the knock budget handles
    /// hints that turn out to be corpses. It is also the adoption ladder:
    /// an orphan climbs it nearest-first, the list [`ladder`] builds from
    /// the tree.
    above_parent: Vec<ProcessId>,
    /// Adoption targets that exhausted their knock budget during the
    /// current outage; never dialed again until an adoption succeeds.
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
            above_parent: Vec::new(),
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

    /// Records the full ancestor chain carried by the parent's heartbeat,
    /// in the two pieces the beacon carries it in: `nearest`, the
    /// parent's own parent, then `above`, the rungs beyond it — together
    /// this node's ancestors above its own parent, nearest first
    /// ([grandparent, great-grandparent, …]; empty when the parent is a
    /// root). The capped chain replaces the previous one: it is both the
    /// ladder [`next_adoption_candidate`](Self::next_adoption_candidate)
    /// climbs and what this node's own heartbeats relay.
    pub fn note_ancestors(&mut self, nearest: Option<ProcessId>, above: &[ProcessId]) {
        let room = ANCESTOR_HINT_CAP - usize::from(nearest.is_some());
        let above = &above[..above.len().min(room)];
        self.above_parent.clear();
        self.above_parent.extend(nearest);
        self.above_parent.extend_from_slice(above);
    }

    /// This node's ancestors above its own parent, nearest first — what
    /// its own heartbeats relay to its children as their chain beyond
    /// the grandparent.
    pub fn ancestor_chain(&self) -> &[ProcessId] {
        &self.above_parent
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

    /// The nearest rung of the ancestor chain that is still worth
    /// dialing, skipping the dead parent being replaced and every target
    /// already written off. The node's own id is a rung like any other:
    /// reaching it means the node is next in a dead root's succession line.
    pub fn next_adoption_candidate(&self, dead_parent: Option<ProcessId>) -> Option<ProcessId> {
        self.above_parent
            .iter()
            .copied()
            .find(|&c| Some(c) != dead_parent && !self.failed_targets.contains(&c))
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

/// The adopter a restarted `node` rejoins under, on the simulated network
/// and in `HierarchicalDetector` alike: its first topology neighbour that
/// is in `tree` and `alive`.
pub(crate) fn rejoin_adopter(
    node: ProcessId,
    topology: &Topology,
    tree: &SpanningTree,
    alive: impl Fn(ProcessId) -> bool,
) -> Option<ProcessId> {
    let mut neighbours = topology.neighbors(node).iter().copied();
    neighbours.find(|&nb| tree.contains(nb) && alive(nb))
}

/// The chain `node` beacons to its children, built from `tree`: its
/// ancestors, nearest first, then the heirs of its tree's root (that
/// root's children, by id), or the heirs alone when `node` is a root,
/// capped at [`ANCESTOR_HINT_CAP`]. Once beacons have settled, a child's
/// [`Membership::ancestor_chain`] is `ladder(tree, parent)`: the ladder
/// it climbs when that parent dies.
pub fn ladder(tree: &SpanningTree, node: ProcessId) -> Vec<ProcessId> {
    let mut chain = Vec::new();
    let mut top = node;
    while let Some(p) = tree.parent(top) {
        chain.push(p);
        top = p;
    }
    let mut heirs = tree.children(top).to_vec();
    heirs.sort_unstable();
    chain.extend(heirs);
    chain.truncate(ANCESTOR_HINT_CAP);
    chain
}

/// The protocol's repair rule (§III-F) as a pure function: where each
/// orphan of `failed` settles once the handshake has run. Returns every
/// live child of `failed`, in ascending id, with its adopter; `None`
/// means the orphan roots its subtree.
///
/// An orphan climbs [`ladder`]`(tree, failed)`, the chain `failed`
/// beaconed, and adopts under the first rung that is alive and that
/// `topology` reaches over live nodes; a rung that is its own id, met
/// first, or a ladder run out, promotes it. `alive` must be `false` for
/// `failed`.
pub fn ladder_adopters(
    tree: &SpanningTree,
    topology: &Topology,
    alive: &[bool],
    failed: ProcessId,
) -> Vec<(ProcessId, Option<ProcessId>)> {
    let chain = ladder(tree, failed);
    let mut orphans = tree.children(failed).to_vec();
    orphans.retain(|c| alive[c.index()]);
    orphans.sort_unstable();
    orphans
        .into_iter()
        .map(|orphan| {
            let reached = |&r: &ProcessId| topology.shortest_path(orphan, r, alive).is_some();
            let rung = chain.iter().copied().find(reached);
            (orphan, rung.filter(|&r| r != orphan))
        })
        .collect()
}

/// Removes `failed` from `tree` and re-attaches its orphans where
/// [`ladder_adopters`] puts them, which it returns. When the root failed,
/// the lowest-id parentless node left roots the tree (the rule
/// `Deployment` mirrors its simulated tree by); every other promoted
/// orphan stays a forest root.
pub(crate) fn repair_tree(
    tree: &mut SpanningTree,
    topology: &Topology,
    alive: &[bool],
    failed: ProcessId,
) -> Vec<(ProcessId, Option<ProcessId>)> {
    let adopters = ladder_adopters(tree, topology, alive, failed);
    tree.detach_node(failed);
    for &(orphan, adopter) in &adopters {
        if let Some(adopter) = adopter {
            tree.attach(orphan, adopter);
        }
    }
    if failed == tree.root() {
        if let Some(root) = tree.nodes().into_iter().find(|&n| tree.parent(n).is_none()) {
            tree.set_root(root);
        }
    }
    adopters
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
        let p = ProcessId;
        let mut m = Membership::new(0);
        // An older beacon named grandparent 9; the parent re-parented
        // since, and its latest beacon names 7 over 8.
        m.note_ancestors(Some(p(9)), &[]);
        m.note_ancestors(Some(p(7)), &[p(8)]);
        assert_eq!(m.next_adoption_candidate(Some(p(0))), Some(p(7)));
        assert_eq!(
            m.next_adoption_candidate(Some(p(7))),
            Some(p(8)),
            "the dead parent is no rung"
        );
        m.begin_adoption(p(7), Some(p(0)));
        m.abandon_adoption_target();
        assert_eq!(m.failed_targets(), &[p(7)]);
        assert_eq!(
            m.next_adoption_candidate(Some(p(0))),
            Some(p(8)),
            "fallback is the next rung of the beaconed chain"
        );
        m.begin_adoption(p(8), Some(p(0)));
        m.abandon_adoption_target();
        assert_eq!(
            m.next_adoption_candidate(Some(p(0))),
            None,
            "ladder exhausted: 9, heard only in an older beacon, is never knocked"
        );
        // A re-heard beacon does not forgive a written-off target...
        m.note_ancestors(Some(p(7)), &[p(8)]);
        assert_eq!(m.next_adoption_candidate(Some(p(0))), None);
        // ...nor does a new one, whose fresh rung is dialed all the same.
        m.note_ancestors(Some(p(9)), &[p(7)]);
        assert_eq!(m.failed_targets(), &[p(7), p(8)]);
        assert_eq!(m.next_adoption_candidate(Some(p(0))), Some(p(9)));
        // A target that answers ends the outage and its memory.
        m.begin_adoption(p(9), Some(p(0)));
        m.finish_adoption();
        assert!(m.failed_targets().is_empty());
    }

    #[test]
    fn ancestor_chain_feeds_the_ladder_nearest_first() {
        let mut m = Membership::new(0);
        // Parent's beacon: grandparent 2, great-grandparent 1, root 0.
        m.note_ancestors(Some(ProcessId(2)), &[ProcessId(1), ProcessId(0)]);
        assert_eq!(m.ancestor_chain().first(), Some(&ProcessId(2)));
        assert_eq!(
            m.ancestor_chain(),
            &[ProcessId(2), ProcessId(1), ProcessId(0)],
            "kept verbatim for relay on this node's own beacons"
        );
        // Ladder dials nearest first, then climbs.
        assert_eq!(m.next_adoption_candidate(None), Some(ProcessId(2)));
        m.begin_adoption(ProcessId(2), None);
        m.abandon_adoption_target();
        assert_eq!(
            m.next_adoption_candidate(None),
            Some(ProcessId(1)),
            "a dead grandparent falls back to the next rung up"
        );
        m.begin_adoption(ProcessId(1), None);
        m.abandon_adoption_target();
        assert_eq!(
            m.next_adoption_candidate(None),
            Some(ProcessId(0)),
            "…all the way to the root"
        );
        // Repeated identical beacons keep the ladder stable.
        let ladder = m.ancestor_chain().to_vec();
        m.note_ancestors(Some(ProcessId(2)), &[ProcessId(1), ProcessId(0)]);
        assert_eq!(m.ancestor_chain(), &ladder[..]);
        // A root parent's beacon clears the chain (nothing above it).
        m.note_ancestors(None, &[]);
        assert_eq!(m.ancestor_chain().first(), None);
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
    fn a_partitioned_root_crash_roots_each_component_at_its_lowest_heir() {
        // Root 0 over heirs 1..=4; without 0, {1, 3} and {2, 4} are cut
        // apart. Each component's lowest heir roots it.
        let edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (2, 4)];
        let topology = Topology::from_edges(5, &edges);
        let tree = SpanningTree::bfs(&topology, ProcessId(0));
        let alive = [false, true, true, true, true];
        let p = ProcessId;
        assert_eq!(
            ladder_adopters(&tree, &topology, &alive, p(0)),
            [
                (p(1), None),
                (p(2), None),
                (p(3), Some(p(1))),
                (p(4), Some(p(2)))
            ]
        );
    }

    #[test]
    fn the_ladder_stops_at_the_hint_cap() {
        // Root 0 over ten heirs: 1..=8 are chained together, 9 and 10 only
        // to each other. The root beacons its first eight heirs alone, so
        // 9 and 10 find no rung once it dies and each roots its subtree.
        let mut edges = vec![(9, 10)];
        edges.extend((1..=10).map(|h| (0, h)));
        edges.extend((1..8).map(|h| (h, h + 1)));
        let topology = Topology::from_edges(11, &edges);
        let tree = SpanningTree::bfs(&topology, ProcessId(0));
        let mut alive = [true; 11];
        alive[0] = false;
        let adopters = ladder_adopters(&tree, &topology, &alive, ProcessId(0));
        assert_eq!(adopters.len(), 10);
        assert_eq!(adopters[0], (ProcessId(1), None));
        for &(heir, adopter) in &adopters[1..8] {
            assert_eq!(adopter, Some(ProcessId(1)), "{heir} under the first heir");
        }
        assert_eq!(adopters[8..], [(ProcessId(9), None), (ProcessId(10), None)]);
    }

    #[test]
    fn a_childless_root_hands_the_tree_to_a_forest_root() {
        // The line 0 - 1 - 2: node 1's death cuts 2 off, so 2 roots its
        // subtree; the root's death then leaves 2 the tree's root, and
        // 2's leaves the tree empty.
        let topology = Topology::line(3);
        let mut tree = SpanningTree::bfs(&topology, ProcessId(0));
        let mut alive = [true; 3];
        for (victim, root) in [(1, 0), (0, 2), (2, 2)] {
            alive[victim] = false;
            repair_tree(&mut tree, &topology, &alive, ProcessId(victim as u32));
            assert_eq!(tree.root(), ProcessId(root), "after {victim} died");
        }
        assert_eq!(tree.node_count(), 0);
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
