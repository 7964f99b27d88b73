//! Bounded explicit-state exploration of the real repair protocol.
//!
//! The campaign re-verifies what a run detected; it cannot see a live node
//! the tree stopped covering. This module looks for one exhaustively, on
//! the code itself: `n ≤ 5` [`MonitorCore`]s, each built with
//! [`MonitorCore::new`] and driven through an [`Outbox`], explored
//! breadth-first over every delivery order, timer order and budgeted
//! fault, so each violation comes with a shortest trace. States are
//! deduplicated by [`MonitorCore::digest`] plus the explorer's own
//! fields. `docs/DST.md` §2 gives the state, the actions and their
//! reductions, the invariants and the matrix.

use ftscp_core::monitor::MonitorConfig;
use ftscp_core::transport::Duty;
use ftscp_core::{DetectMsg, MonitorCore, Outbox};
use ftscp_intervals::Interval;
use ftscp_simnet::SimTime;
use ftscp_vclock::{ProcessId, VectorClock};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use Class::*;

/// Heartbeat period; the suspicion timeout is four of them.
const PERIOD: u64 = 10;
/// From the end of the fault window to the horizon: room for a suspicion,
/// a whole knock budget at a dead target and the re-report.
const SETTLE: u64 = 250;
/// Exploration cap per row; reaching it marks the report truncated.
const MAX_STATES: usize = 2_000_000;

/// A failure class: what went wrong, not where. I1 and I2 are checked on
/// every transition, (a) and (b) at the horizon.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// I1: a new root detection misses a live process whose incarnation
    /// is attached (it never crashed, or its rejoin was acked).
    Missed,
    /// I2: an `AdoptAck` that did not match the attempt open before its
    /// delivery was accepted.
    StaleAck,
    /// (a): a live component has no root: every ancestor above its top is
    /// dead up to the root, or live parent pointers form a cycle.
    Rootless,
    /// (a): a rebooted node still knocks at the dead adopter it rejoined.
    Knocking,
    /// (a): a node under a dead parent and a live ancestor that never
    /// learned a rung to climb to.
    Hintless,
    /// (a): a node under a dead parent and a live ancestor that gave up
    /// after knocking at every rung it knew.
    Stranded,
    /// (a): a rebooted node's rejoin at a live adopter is never answered.
    Unanswered,
    /// (a): any other live node whose live parent holds no queue for it.
    Unqueued,
    /// (b): the last detection at a component root misses a live member.
    Uncovered,
}

/// One row of the matrix: a tree (node 0 is the root) and fault budgets.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Name printed on the verdict line.
    pub name: &'static str,
    /// Parent of each node.
    pub parents: &'static [Option<u32>],
    /// Crashes, restarts, duplicates and drops the adversary may inject.
    pub budget: [u8; 4],
    /// Length of the fault window, in heartbeat periods.
    pub window: u64,
    /// The classes the search must find, sorted.
    pub expect: &'static [Class],
}

const CHAIN4: &[Option<u32>] = &[None, Some(0), Some(1), Some(2)];
const FORK5: &[Option<u32>] = &[None, Some(0), Some(1), Some(1), Some(0)];

/// The model-check matrix. A row's expected classes are what the protocol
/// does today (`docs/DST.md` §2), not what it should do.
pub const MATRIX: [Row; 6] = [
    Row {
        name: "chain4 1 crash 1 dup",
        parents: CHAIN4,
        budget: [1, 0, 1, 0],
        window: 8,
        expect: &[],
    },
    Row {
        name: "fork5 1 crash two orphans",
        parents: FORK5,
        budget: [1, 0, 0, 0],
        window: 1,
        expect: &[],
    },
    Row {
        name: "fork5 root and heir crash",
        parents: FORK5,
        budget: [2, 0, 0, 0],
        window: 1,
        expect: &[],
    },
    Row {
        name: "chain4 storm 2 crashes",
        parents: CHAIN4,
        budget: [2, 0, 0, 0],
        window: 1,
        expect: &[Missed, Uncovered],
    },
    Row {
        name: "chain4 2 crashes 1 restart 1 drop",
        parents: CHAIN4,
        budget: [2, 1, 0, 1],
        window: 1,
        expect: &[Missed, Knocking, Uncovered],
    },
    Row {
        name: "chain3 root crash and restart",
        parents: &[None, Some(0), Some(1)],
        budget: [1, 1, 0, 0],
        window: 6,
        expect: &[Missed, Uncovered],
    },
];

/// What one row's search found.
#[derive(Debug, PartialEq, Eq)]
pub struct Report {
    /// Distinct states reached.
    pub states: usize,
    /// True if the state cap (2 million) cut the search short.
    pub truncated: bool,
    /// Whether some root detection covered every process.
    pub full_detection: bool,
    /// Each class found, with its shortest trace (duty firings, beacons
    /// and deliveries before the fault window elided).
    pub found: BTreeMap<Class, Vec<String>>,
}

#[derive(Clone)]
struct Node {
    core: MonitorCore,
    digest: u64,
    alive: bool,
    attached: bool,
    /// Next deadline of each duty the core runs.
    due: Vec<(u64, Duty)>,
    /// Scripted intervals observed (or skipped while down) so far.
    observed: usize,
}

#[derive(Clone)]
struct Flight {
    dst: usize,
    sent: u64,
    digest: u64,
    msg: DetectMsg,
}

#[derive(Clone)]
struct State {
    now: u64,
    nodes: Vec<Node>,
    /// Sorted by `(dst, sent, digest)`: a canonical multiset.
    flight: Vec<Flight>,
    budget: [u8; 4],
}

#[derive(Clone, Copy)]
enum Act {
    Tick(u64),
    Deliver(usize),
    Crash(usize),
    Restart(usize, usize),
    Dup(usize),
    Drop(usize),
}

struct Explorer {
    row: Row,
    window: (u64, u64),
    script: [u64; 2],
    horizon: u64,
}

fn key(f: &Flight) -> (usize, u64, u64) {
    (f.dst, f.sent, f.digest)
}

impl State {
    fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        (self.now, self.budget).hash(&mut h);
        for n in &self.nodes {
            (n.digest, n.alive, n.attached, n.observed).hash(&mut h);
            n.due.iter().for_each(|&(t, _)| t.hash(&mut h));
        }
        self.flight.iter().for_each(|f| key(f).hash(&mut h));
        h.finish()
    }

    fn parent(&self, v: usize) -> Option<usize> {
        self.nodes[v].core.parent().map(ProcessId::index)
    }

    /// The earliest deadline of `v`: a duty or its next scripted interval.
    fn next_due(&self, v: usize, script: &[u64; 2]) -> Option<u64> {
        let node = &self.nodes[v];
        let local = script.get(node.observed).copied();
        node.due.iter().map(|&(t, _)| t).chain(local).min()
    }

    /// Puts what a core sent in flight; a message to a dead node is lost.
    fn send(&mut self, out: Outbox) {
        for (dst, msg) in out.sent {
            if self.nodes[dst.index()].alive {
                // The key orders the beacons the reduction delivers first,
                // and the pinned state counts follow that order
                // (docs/DST.md §2).
                let mut h = DefaultHasher::new();
                msg.hash(&mut h);
                let (dst, sent, digest) = (dst.index(), self.now, h.finish());
                let f = Flight {
                    dst,
                    sent,
                    digest,
                    msg,
                };
                let at = self.flight.partition_point(|g| key(g) <= key(&f));
                self.flight.insert(at, f);
            }
        }
    }
}

impl Explorer {
    fn new(row: Row) -> Explorer {
        let depth = |mut v: usize| {
            let mut d = 0;
            while let Some(p) = row.parents[v] {
                (v, d) = (p as usize, d + 1);
            }
            d
        };
        // The window opens once every ancestor chain has been relayed.
        let open = PERIOD * (1 + (0..row.parents.len()).map(depth).max().unwrap_or(0));
        let close = open + PERIOD * row.window;
        Explorer {
            row,
            window: (open, close),
            script: [PERIOD / 2, close + PERIOD / 2],
            horizon: close + SETTLE,
        }
    }

    /// Process `v`'s interval of `round`: the rounds' intervals overlap
    /// pairwise within a round and not across. The bounds are the
    /// timestamps of a round in which every process starts its interval
    /// (own event `base + 1`), sends twice (`base + 2`, `base + 3`) and
    /// ends it (`base + 4`) after hearing its successor's first send and
    /// everyone else's second. So the ends are pairwise concurrent, and no
    /// `⊓` of some processes' intervals precedes another process's end or
    /// another disjoint `⊓`: Eq. (10) prunes every member of a round's
    /// solution, and a next round's start has heard every end.
    fn interval(&self, v: usize, round: usize) -> Interval {
        let n = self.row.parents.len();
        let base = 4 * round as u32 + 1;
        let lo: Vec<u32> = (0..n).map(|j| base + u32::from(j == v)).collect();
        let heard = |j: usize| match j {
            _ if j == v => 4,
            _ if j == (v + 1) % n => 2,
            _ => 3,
        };
        let hi: Vec<u32> = (0..n).map(|j| base + heard(j)).collect();
        let clock = VectorClock::from_components;
        Interval::local(ProcessId(v as u32), round as u64, clock(lo), clock(hi))
    }

    fn initial(&self) -> State {
        let parents = self.row.parents;
        let config = MonitorConfig {
            heartbeat_period: Some(SimTime(PERIOD)),
            suspect_timeout: Some(SimTime(4 * PERIOD)),
            ..MonitorConfig::default()
        };
        let nodes = (0..parents.len())
            .map(|v| {
                let children: Vec<ProcessId> = (0..parents.len() as u32)
                    .filter(|&c| parents[c as usize] == Some(v as u32))
                    .map(ProcessId)
                    .collect();
                let parent = parents[v].map(ProcessId);
                // The level only tags aggregates for diagnostics.
                let core = MonitorCore::new(ProcessId(v as u32), parent, &children, 1, config);
                Node {
                    digest: core.digest(SimTime::ZERO),
                    due: core.duties().map(|(d, delay)| (delay.0, d)).collect(),
                    core,
                    alive: true,
                    attached: true,
                    observed: 0,
                }
            })
            .collect();
        let (now, flight, budget) = (0, Vec::new(), self.row.budget);
        State {
            now,
            nodes,
            flight,
            budget,
        }
    }

    fn actions(&self, s: &State) -> Vec<Act> {
        let n = s.nodes.len();
        let alive: Vec<usize> = (0..n).filter(|&v| s.nodes[v].alive).collect();
        let mut acts = Vec::new();
        // Time moves to the earliest deadline once nothing in flight would
        // then be a whole heartbeat period old.
        let due = alive.iter().filter_map(|&v| s.next_due(v, &self.script));
        if let Some(t) = due.min().filter(|&t| t <= self.horizon) {
            if s.flight.iter().all(|f| f.sent + PERIOD > t) {
                acts.push(Act::Tick(t));
            }
        }
        // Beacons commute with each other, so they go in flight order;
        // everything else in any order.
        let beacon = |i: &usize| matches!(s.flight[*i].msg, DetectMsg::Heartbeat { .. });
        let (beacons, distinct): (Vec<usize>, Vec<usize>) = (0..s.flight.len())
            .filter(|&i| i == 0 || key(&s.flight[i - 1]) != key(&s.flight[i]))
            .partition(beacon);
        let deliverable = beacons.first().into_iter().chain(&distinct);
        acts.extend(deliverable.map(|&i| Act::Deliver(i)));
        if !(self.window.0..=self.window.1).contains(&s.now) {
            return acts;
        }
        let [crashes, restarts, dups, drops] = s.budget.map(|b| b > 0);
        if crashes {
            acts.extend(alive.iter().map(|&v| Act::Crash(v)));
        }
        for v in (0..n).filter(|&v| restarts && !s.nodes[v].alive) {
            // Any live adopter that is not below `v`.
            let outside = |&&a: &&usize| {
                let mut up = Some(a);
                (0..n).all(|_| {
                    up = up.and_then(|u| s.parent(u));
                    up != Some(v)
                })
            };
            acts.extend(alive.iter().filter(outside).map(|&a| Act::Restart(v, a)));
        }
        acts.extend(distinct.iter().filter(|_| dups).map(|&i| Act::Dup(i)));
        acts.extend(distinct.iter().filter(|_| drops).map(|&i| Act::Drop(i)));
        acts
    }

    /// Applies `act` to a copy of `s`; returns it with the classes the
    /// transition itself violates (I1, I2).
    fn apply(&self, s: &State, act: Act) -> (State, Vec<Class>) {
        let mut s = s.clone();
        let mut found = Vec::new();
        let touched: Vec<usize> = match act {
            Act::Tick(t) => (0..s.nodes.len())
                .filter(|&v| s.nodes[v].alive && s.next_due(v, &self.script) == Some(t))
                .collect(),
            Act::Restart(v, _) => vec![v],
            Act::Deliver(i) => vec![s.flight[i].dst],
            _ => Vec::new(),
        };
        let seen: Vec<usize> = touched
            .iter()
            .map(|&v| s.nodes[v].core.detections().len())
            .collect();
        let mut out = Outbox::new(SimTime(s.now));
        match act {
            // The touched nodes' duties due now fire together, each node's
            // scripted interval first, then its duties in `Duty` order.
            Act::Tick(t) => {
                (s.now, out) = (t, Outbox::new(SimTime(t)));
                for &v in &touched {
                    let node = &mut s.nodes[v];
                    if self.script.get(node.observed) == Some(&t) {
                        let interval = self.interval(v, node.observed);
                        node.core.observe_local(interval, &mut out);
                        node.observed += 1;
                    }
                    for (deadline, duty) in node.due.iter_mut().filter(|(d, _)| *d == t) {
                        let (next, _) = node.core.on_duty(*duty, &mut out);
                        *deadline = next.map_or(u64::MAX, |d| t + d.0);
                    }
                }
            }
            Act::Deliver(i) => {
                let f = s.flight.remove(i);
                let node = &mut s.nodes[f.dst];
                let accepted = matches!(f.msg, DetectMsg::AdoptAck { accepted: true, .. });
                let open = match f.msg {
                    DetectMsg::AdoptAck { from, epoch, .. } => {
                        node.core.membership().matches_adoption(from, epoch)
                    }
                    _ => true,
                };
                node.core.on_message(f.msg, &mut out);
                let rereport = out
                    .sent
                    .iter()
                    .any(|(_, m)| matches!(m, DetectMsg::ReReport { .. }));
                if rereport && !open {
                    found.push(StaleAck);
                }
                node.attached |= accepted && open;
            }
            Act::Crash(v) => {
                s.budget[0] -= 1;
                (s.nodes[v].alive, s.nodes[v].attached) = (false, false);
                s.flight.retain(|f| f.dst != v);
            }
            Act::Restart(v, adopter) => {
                s.budget[1] -= 1;
                let node = &mut s.nodes[v];
                node.core.reboot();
                node.core.rejoin(ProcessId(adopter as u32), &mut out);
                node.alive = true;
                let due = node.core.duties().map(|(d, delay)| (s.now + delay.0, d));
                node.due = due.collect();
                while self.script.get(node.observed).is_some_and(|&t| t <= s.now) {
                    node.observed += 1;
                }
            }
            Act::Dup(i) => {
                s.budget[2] -= 1;
                s.flight.insert(i, s.flight[i].clone());
            }
            Act::Drop(i) => {
                s.budget[3] -= 1;
                s.flight.remove(i);
            }
        };
        s.send(out);
        let attached = |u: &usize| s.nodes[*u].alive && s.nodes[*u].attached;
        let live: Vec<ProcessId> = (0..s.nodes.len())
            .filter(attached)
            .map(|u| ProcessId(u as u32))
            .collect();
        for (&v, &seen) in touched.iter().zip(&seen) {
            s.nodes[v].digest = s.nodes[v].core.digest(SimTime(s.now));
            for det in &s.nodes[v].core.detections()[seen..] {
                let covered = det.covered_processes();
                if live.iter().any(|u| !covered.contains(u)) {
                    found.push(Missed);
                }
            }
        }
        (s, found)
    }

    /// Checks (a), structural agreement, and (b), coverage, at the horizon.
    fn quiescent(&self, s: &State) -> Vec<Class> {
        let n = s.nodes.len();
        let alive = |v: usize| s.nodes[v].alive;
        let mut found = Vec::new();
        let mut components: BTreeMap<usize, Vec<ProcessId>> = BTreeMap::new();
        for v in (0..n).filter(|&v| alive(v)) {
            // Only a rebooted node is alive and unattached.
            let membership = s.nodes[v].core.membership();
            let rejoining = membership.is_adopting() && !s.nodes[v].attached;
            match s.parent(v) {
                Some(p) if !alive(p) => {
                    let mut up = p;
                    while let Some(q) = s.parent(up).filter(|&q| !alive(q)) {
                        up = q;
                    }
                    found.push(match () {
                        _ if rejoining => Knocking,
                        _ if s.parent(up).is_none() => Rootless,
                        _ if membership.failed_targets().is_empty() => Hintless,
                        _ => Stranded,
                    });
                }
                Some(p) if !s.nodes[p].core.engine().has_child(ProcessId(v as u32)) => {
                    found.push(if rejoining { Unanswered } else { Unqueued });
                }
                _ => {}
            }
            let mut top = v;
            for _ in 0..n {
                match s.parent(top) {
                    Some(p) if alive(p) => top = p,
                    _ => break,
                }
            }
            match s.parent(top) {
                None => components.entry(top).or_default().push(ProcessId(v as u32)),
                Some(p) if alive(p) => found.push(Rootless),
                Some(_) => {}
            }
        }
        for (root, members) in components {
            let last = s.nodes[root].core.detections().last();
            let covered = last.map(|d| d.covered_processes()).unwrap_or_default();
            if members.iter().any(|u| !covered.contains(u)) {
                found.push(Uncovered);
            }
        }
        found
    }

    /// Replays `path` (action indices from the initial state) and renders
    /// the steps worth reading.
    fn render(&self, path: &[u16]) -> Vec<String> {
        let mut s = self.initial();
        let mut out = Vec::new();
        for &k in path {
            let act = self.actions(&s)[k as usize];
            let label = |what: &str, i: usize| {
                let msg = match &s.flight[i].msg {
                    DetectMsg::Interval { interval: iv, .. } => {
                        format!("Interval {}#{}", iv.source, iv.seq)
                    }
                    other => format!("{other:?}"),
                };
                format!("t{} {what} →{} {msg}", s.now, s.flight[i].dst)
            };
            match act {
                Act::Tick(_) => {}
                Act::Deliver(_) if s.now < self.window.0 => {}
                Act::Deliver(i) if matches!(s.flight[i].msg, DetectMsg::Heartbeat { .. }) => {}
                Act::Deliver(i) => out.push(label("deliver", i)),
                Act::Dup(i) => out.push(label("DUPLICATE", i)),
                Act::Drop(i) => out.push(label("DROP", i)),
                Act::Crash(v) => out.push(format!("t{} CRASH {v}", s.now)),
                Act::Restart(v, a) => out.push(format!("t{} RESTART {v} rejoin at {a}", s.now)),
            }
            s = self.apply(&s, act).0;
        }
        out
    }
}

/// Explores `row` breadth-first, so every recorded trace is shortest.
pub fn explore(row: Row) -> Report {
    let x = Explorer::new(row);
    let init = x.initial();
    let mut seen = HashSet::from([init.digest()]);
    // Per state: its predecessor and the index of the action taken there.
    let mut parents: Vec<(u32, u16)> = vec![(u32::MAX, 0)];
    let mut queue = VecDeque::from([(0u32, init)]);
    let mut first: BTreeMap<Class, (u32, Option<u16>)> = BTreeMap::new();
    let (mut truncated, mut full_detection) = (false, false);
    'bfs: while let Some((id, s)) = queue.pop_front() {
        let acts = x.actions(&s);
        if s.flight.is_empty() && acts.is_empty() {
            for class in x.quiescent(&s) {
                first.entry(class).or_insert((id, None));
            }
        }
        for (k, &act) in acts.iter().enumerate() {
            let (next, found) = x.apply(&s, act);
            for class in found {
                first.entry(class).or_insert((id, Some(k as u16)));
            }
            if !seen.insert(next.digest()) {
                continue;
            }
            if parents.len() >= MAX_STATES {
                truncated = true;
                break 'bfs;
            }
            full_detection |= next.nodes.iter().any(|node| {
                let det = node.core.detections().last();
                det.is_some_and(|d| d.covered_processes().len() == next.nodes.len())
            });
            queue.push_back((parents.len() as u32, next));
            parents.push((id, k as u16));
        }
    }
    let mut found = BTreeMap::new();
    for (class, (mut id, last)) in first {
        let mut path: Vec<u16> = last.into_iter().collect();
        while id != 0 {
            path.push(parents[id as usize].1);
            id = parents[id as usize].0;
        }
        path.reverse();
        found.insert(class, x.render(&path));
    }
    Report {
        states: parents.len(),
        truncated,
        full_detection,
        found,
    }
}
