//! The discrete-event simulation driver.

use crate::event::{EventKind, EventQueue, TimerToken};
use crate::fault::{ActiveFaults, FaultOp, FaultPlan};
use crate::metrics::NetMetrics;
use crate::route::Router;
use crate::time::SimTime;
use crate::topology::Topology;
use crate::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-hop link delay model: every hop of every message samples an
/// independent uniform delay in `[min_delay, max_delay]`. Independent
/// sampling is what makes channels non-FIFO (a later message can draw a
/// shorter delay and overtake).
#[derive(Clone, Copy, Debug)]
pub struct LinkModel {
    /// Minimum per-hop delay.
    pub min_delay: SimTime,
    /// Maximum per-hop delay.
    pub max_delay: SimTime,
    /// Per-hop loss probability (a message over `k` hops survives with
    /// probability `(1 - drop_prob)^k`) — the WSN radio reality that makes
    /// the monitor's acknowledgement/retransmission layer necessary.
    pub drop_prob: f64,
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel {
            min_delay: SimTime(500),
            max_delay: SimTime(5_000),
            drop_prob: 0.0,
        }
    }
}

impl LinkModel {
    fn sample(&self, rng: &mut StdRng) -> SimTime {
        SimTime(rng.gen_range(self.min_delay.0..=self.max_delay.0))
    }

    fn survives_hop(&self, rng: &mut StdRng) -> bool {
        self.drop_prob <= 0.0 || rng.gen::<f64>() >= self.drop_prob
    }
}

/// Simulation parameters.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimConfig {
    /// RNG seed: same seed ⇒ identical execution.
    pub seed: u64,
    /// Link delay model.
    pub link: LinkModel,
}

/// Behaviour of one node. Implementations are deterministic state machines;
/// all effects go through the [`Ctx`].
pub trait Application {
    /// Message type exchanged between nodes.
    type Msg: Clone;

    /// Called once at simulation start (time 0).
    fn on_init(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// Called when a message is delivered.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self::Msg>, _token: TimerToken) {}

    /// Approximate wire size of a message, for byte accounting.
    fn msg_size(_msg: &Self::Msg) -> usize {
        16
    }
}

/// Effect interface handed to application callbacks.
pub struct Ctx<'a, M> {
    me: NodeId,
    now: SimTime,
    n: usize,
    neighbors: &'a [NodeId],
    outbox: Vec<(NodeId, M, Option<usize>)>,
    timers: Vec<(SimTime, TimerToken)>,
}

impl<'a, M> Ctx<'a, M> {
    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// This node's topology neighbors (alive or not — liveness is only
    /// observable through the application's own heartbeats).
    pub fn neighbors(&self) -> &[NodeId] {
        self.neighbors
    }

    /// Sends `msg` to `dst`; the network routes it over the shortest alive
    /// path and delivers it after per-hop random delays. Byte accounting
    /// charges [`Application::msg_size`].
    pub fn send(&mut self, dst: NodeId, msg: M) {
        self.outbox.push((dst, msg, None));
    }

    /// Like [`send`](Self::send), but charges `size` bytes instead of
    /// [`Application::msg_size`]. For applications whose on-the-wire
    /// encoding is stateful (e.g. a per-connection delta codec), where the
    /// size of a message depends on what the connection already carried —
    /// a static size function cannot express that.
    pub fn send_sized(&mut self, dst: NodeId, msg: M, size: usize) {
        self.outbox.push((dst, msg, Some(size)));
    }

    /// Arms a one-shot timer `delay` from now.
    pub fn set_timer(&mut self, delay: SimTime, token: TimerToken) {
        self.timers.push((self.now + delay, token));
    }
}

/// Test utilities: drive an [`Application`] callback directly, without a
/// full simulation, and observe the effects it queued.
pub mod testkit {
    use super::*;

    /// Effects captured from a single callback invocation.
    #[derive(Debug)]
    pub struct Effects<M> {
        /// Messages the app sent: `(dst, msg)`.
        pub sends: Vec<(NodeId, M)>,
        /// Per-send byte-size overrides, index-aligned with `sends`:
        /// `Some(bytes)` for [`Ctx::send_sized`], `None` for [`Ctx::send`].
        pub send_sizes: Vec<Option<usize>>,
        /// Timers armed: `(fire_at, token)`.
        pub timers: Vec<(SimTime, TimerToken)>,
    }

    /// Invokes `f` with a detached [`Ctx`] for node `me` at time `now` in
    /// an `n`-node network with the given neighbor list, returning what
    /// the app emitted. Intended for unit-testing applications.
    pub fn drive<M>(
        me: NodeId,
        now: SimTime,
        n: usize,
        neighbors: &[NodeId],
        f: impl FnOnce(&mut Ctx<'_, M>),
    ) -> Effects<M> {
        let mut ctx = Ctx {
            me,
            now,
            n,
            neighbors,
            outbox: Vec::new(),
            timers: Vec::new(),
        };
        f(&mut ctx);
        let (sends, send_sizes) = ctx
            .outbox
            .into_iter()
            .map(|(dst, msg, size)| ((dst, msg), size))
            .unzip();
        Effects {
            sends,
            send_sizes,
            timers: ctx.timers,
        }
    }
}

/// The simulation: topology + one application instance per node + event
/// queue + metrics.
pub struct Simulation<A: Application> {
    topology: Topology,
    apps: Vec<A>,
    alive: Vec<bool>,
    /// Per node, its incarnation epoch (how many times it was revived),
    /// stamped on every timer it arms.
    epochs: Vec<u32>,
    queue: EventQueue<A::Msg>,
    metrics: NetMetrics,
    rng: StdRng,
    now: SimTime,
    config: SimConfig,
    initialized: bool,
    events_processed: u64,
    /// Scripted fault operations not yet applied, in application order.
    plan_ops: Vec<(SimTime, FaultOp)>,
    /// Index of the next unapplied operation in `plan_ops`.
    next_op: usize,
    /// Live fault state (cuts, windows, skew) the run loops consult.
    faults: ActiveFaults,
    router: Router,
    /// Effect buffers lent to the [`Ctx`] of each callback and drained
    /// after it, so a callback's sends and timers reuse one allocation.
    outbox: Vec<(NodeId, A::Msg, Option<usize>)>,
    timers: Vec<(SimTime, TimerToken)>,
}

impl<A: Application> Simulation<A> {
    /// Builds a simulation; `apps[i]` runs on node `i`.
    pub fn new(topology: Topology, apps: Vec<A>, config: SimConfig) -> Self {
        assert_eq!(topology.len(), apps.len(), "one app per node");
        let n = topology.len();
        let metrics = NetMetrics::new(n, topology.edge_count());
        Simulation {
            topology,
            apps,
            alive: vec![true; n],
            epochs: vec![0; n],
            queue: EventQueue::new(),
            metrics,
            rng: StdRng::seed_from_u64(config.seed),
            now: SimTime::ZERO,
            config,
            initialized: false,
            events_processed: 0,
            plan_ops: Vec::new(),
            next_op: 0,
            faults: ActiveFaults::default(),
            router: Router::default(),
            outbox: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// Schedules `node` to crash-stop at `time`.
    pub fn schedule_crash(&mut self, node: NodeId, time: SimTime) {
        self.queue.push(time, EventKind::Crash { node });
    }

    /// Installs a [`FaultPlan`]: its operations apply at their scheduled
    /// times as the run loops advance, interleaved deterministically with
    /// ordinary events (an operation at time `t` applies before any event
    /// with time ≥ `t`; ties between operations keep plan insertion order).
    ///
    /// May be called repeatedly; later plans merge with the unapplied
    /// remainder of earlier ones. A plan draws no randomness of its own,
    /// so `(topology, apps, seed, plan)` always replays identically — and
    /// an empty/absent plan leaves the RNG stream untouched, so fault-free
    /// runs are byte-identical to pre-fault-injection builds.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        self.plan_ops.extend(plan.sorted_ops());
        self.plan_ops[self.next_op..].sort_by_key(|&(t, _)| t);
    }

    /// Time of the next unapplied fault operation, if any.
    fn next_fault_time(&self) -> Option<SimTime> {
        self.plan_ops.get(self.next_op).map(|&(t, _)| t)
    }

    /// Applies the next fault operation, advancing `now` to its time.
    fn apply_next_fault(&mut self) {
        let (at, op) = self.plan_ops[self.next_op].clone();
        self.next_op += 1;
        if self.now < at {
            self.now = at;
        }
        match op {
            FaultOp::Crash(node) => self.alive[node.index()] = false,
            FaultOp::Restart(node) => self.revive(node),
            op => self.faults.apply(&op, self.apps.len()),
        }
    }

    /// Revives a crashed node immediately (crash-*recovery* support) as a
    /// new incarnation: it may send/receive from now on, and no timer its
    /// crashed incarnation armed ever fires. Its application's in-memory
    /// state is untouched — modelling a reboot (what state survives,
    /// re-arming timers) is the application's job.
    pub fn revive(&mut self, node: NodeId) {
        let i = node.index();
        if !self.alive[i] {
            self.alive[i] = true;
            self.epochs[i] += 1;
        }
    }

    /// Invokes a callback on `node`'s application with a live [`Ctx`], so
    /// out-of-band controllers (a deployment harness) can let an app react
    /// to management actions with sends/timers. No-op on dead nodes.
    pub fn with_app_ctx(&mut self, node: NodeId, f: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg>)) {
        if !self.alive[node.index()] {
            return;
        }
        self.with_ctx(node, f);
    }

    /// Current simulated time.
    pub fn time(&self) -> SimTime {
        self.now
    }

    /// Network size.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// True iff the simulation has zero nodes.
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    /// Immutable access to node `i`'s application.
    pub fn app(&self, node: NodeId) -> &A {
        &self.apps[node.index()]
    }

    /// All applications.
    pub fn apps(&self) -> &[A] {
        &self.apps
    }

    /// Liveness flags.
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// True iff `node` has not crashed.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()]
    }

    /// Message accounting.
    pub fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The most events (deliveries in flight, armed timers, scheduled
    /// crashes) that were ever pending at once — the simulator's own queue
    /// depth, as opposed to any application's.
    pub fn peak_pending_events(&self) -> usize {
        self.queue.peak_len()
    }

    /// Runs until the event queue drains or `deadline` passes, whichever is
    /// first. Returns the number of events processed by this call (fault
    /// operations are applied but not counted).
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.ensure_init();
        let mut processed = 0;
        loop {
            // A fault op due no later than the next event (and within the
            // deadline) applies first — ties go to the fault, so a crash
            // at `t` suppresses deliveries at `t`.
            match (self.queue.peek_time(), self.next_fault_time()) {
                (ev_t, Some(op_t)) if op_t <= deadline && ev_t.is_none_or(|t| op_t <= t) => {
                    self.apply_next_fault();
                }
                (Some(t), _) if t <= deadline => {
                    let ev = self.queue.pop().expect("peeked");
                    self.now = ev.time;
                    self.dispatch(ev.kind);
                    processed += 1;
                }
                _ => break,
            }
        }
        // Time always advances to the deadline even if the queue drained.
        if self.now < deadline {
            self.now = deadline;
        }
        self.events_processed += processed;
        processed
    }

    /// Runs until the event queue is empty and no fault operations remain
    /// (quiescence). `max_events` bounds runaway applications.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        self.ensure_init();
        let mut processed = 0;
        while processed < max_events {
            match (self.queue.peek_time(), self.next_fault_time()) {
                (ev_t, Some(op_t)) if ev_t.is_none_or(|t| op_t <= t) => {
                    self.apply_next_fault();
                }
                (Some(_), _) => {
                    let ev = self.queue.pop().expect("peeked");
                    self.now = ev.time;
                    self.dispatch(ev.kind);
                    processed += 1;
                }
                // (None, Some) is absorbed by the first arm (its guard is
                // vacuously true with no event pending).
                _ => break,
            }
        }
        self.events_processed += processed;
        processed
    }

    fn ensure_init(&mut self) {
        if self.initialized {
            return;
        }
        self.initialized = true;
        // Operations scheduled at time zero precede everything — including
        // `on_init` callbacks (which run at time zero): a skew or window
        // starting at zero covers a node's very first sends and timers.
        while self.next_fault_time() == Some(SimTime::ZERO) {
            self.apply_next_fault();
        }
        for i in 0..self.apps.len() {
            let node = NodeId(i as u32);
            self.with_ctx(node, |app, ctx| app.on_init(ctx));
        }
    }

    fn dispatch(&mut self, kind: EventKind<A::Msg>) {
        match kind {
            EventKind::Deliver { src, dst, msg } => {
                if !self.alive[dst.index()] {
                    self.metrics.record_dropped_dead();
                    return;
                }
                self.metrics.record_delivery(dst);
                self.with_ctx(dst, |app, ctx| app.on_message(ctx, src, msg));
            }
            EventKind::Timer { node, epoch, token } => {
                if !self.alive[node.index()] || epoch != self.epochs[node.index()] {
                    return;
                }
                self.with_ctx(node, |app, ctx| app.on_timer(ctx, token));
            }
            EventKind::Crash { node } => {
                self.alive[node.index()] = false;
            }
        }
    }

    fn with_ctx(&mut self, node: NodeId, f: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg>)) {
        let mut ctx = Ctx {
            me: node,
            now: self.now,
            n: self.apps.len(),
            neighbors: self.topology.neighbors(node),
            outbox: std::mem::take(&mut self.outbox),
            timers: std::mem::take(&mut self.timers),
        };
        // Split borrow: the app is taken out of the slice context via index.
        // `neighbors` borrows the topology, `apps[node]` the app vector —
        // disjoint fields, but the compiler cannot see that through &mut
        // self, so dispatch through raw indices on separate locals.
        let apps = &mut self.apps;
        f(&mut apps[node.index()], &mut ctx);
        let Ctx {
            mut outbox,
            mut timers,
            ..
        } = ctx;
        for (dst, msg, size) in outbox.drain(..) {
            self.route_and_schedule(node, dst, msg, size);
        }
        for (at, token) in timers.drain(..) {
            // Fault-injected clock skew stretches/shrinks this node's timer
            // delays (identity when no skew is installed).
            let at = self.now + self.faults.timer_delay(node, at - self.now);
            let epoch = self.epochs[node.index()];
            self.queue.push(at, EventKind::Timer { node, epoch, token });
        }
        self.outbox = outbox;
        self.timers = timers;
    }

    fn route_and_schedule(
        &mut self,
        src: NodeId,
        dst: NodeId,
        msg: A::Msg,
        size_override: Option<usize>,
    ) {
        let size = size_override.unwrap_or_else(|| A::msg_size(&msg));
        if src == dst {
            // Loopback: no channel occupied.
            self.metrics.record_send(src, 0, size);
            self.queue
                .push(self.now + SimTime(1), EventKind::Deliver { src, dst, msg });
            return;
        }
        // Partition cuts filter routing without mutating the topology.
        let path = self
            .router
            .route(&self.topology, src, dst, &self.alive, &self.faults);
        match path {
            Some(path) => {
                let mut delay = SimTime::ZERO;
                let mut survived_hops = 0usize;
                let mut lost = false;
                for hop in path {
                    delay += self.config.link.sample(&mut self.rng);
                    survived_hops += 1;
                    self.metrics.record_hop(hop.edge);
                    if !self.config.link.survives_hop(&mut self.rng) {
                        lost = true;
                        break;
                    }
                }
                // Channels are charged for every hop actually attempted.
                self.metrics.record_send(src, survived_hops, size);
                if lost {
                    self.metrics.record_lost();
                    return;
                }
                // Fault windows. Each draw below is gated on its window
                // being active, so an inactive plan consumes zero RNG and
                // fault-free runs replay pre-existing seeded streams.
                if self.faults.reorder_prob > 0.0
                    && self.rng.gen::<f64>() < self.faults.reorder_prob
                {
                    delay += SimTime(self.rng.gen_range(0..=self.faults.reorder_window.0));
                }
                if self.faults.duplicate_prob > 0.0
                    && self.rng.gen::<f64>() < self.faults.duplicate_prob
                {
                    let extra = self.config.link.sample(&mut self.rng);
                    self.metrics.record_duplicate();
                    self.queue.push(
                        self.now + delay + extra,
                        EventKind::Deliver {
                            src,
                            dst,
                            msg: msg.clone(),
                        },
                    );
                }
                self.queue
                    .push(self.now + delay, EventKind::Deliver { src, dst, msg });
            }
            None => {
                self.metrics.record_undeliverable();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flood app: node 0 starts a token; every node forwards the first copy
    /// it sees to all neighbors, counting receptions.
    #[derive(Default, Clone)]
    struct Flood {
        seen: bool,
        receptions: u32,
    }

    impl Application for Flood {
        type Msg = u32;

        fn on_init(&mut self, ctx: &mut Ctx<'_, u32>) {
            if ctx.me() == NodeId(0) {
                self.seen = true;
                let neighbors: Vec<NodeId> = ctx.neighbors().to_vec();
                for nb in neighbors {
                    ctx.send(nb, 1);
                }
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _from: NodeId, msg: u32) {
            self.receptions += 1;
            if !self.seen {
                self.seen = true;
                let neighbors: Vec<NodeId> = ctx.neighbors().to_vec();
                for nb in neighbors {
                    ctx.send(nb, msg + 1);
                }
            }
        }
    }

    fn flood_sim(seed: u64) -> Simulation<Flood> {
        let topo = Topology::grid(4, 4);
        let apps = vec![Flood::default(); 16];
        Simulation::new(
            topo,
            apps,
            SimConfig {
                seed,
                ..Default::default()
            },
        )
    }

    #[test]
    fn flood_reaches_every_node() {
        let mut sim = flood_sim(3);
        sim.run_to_quiescence(100_000);
        assert!(sim.apps().iter().all(|a| a.seen));
        assert!(sim.metrics().delivered > 0);
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let mut a = flood_sim(11);
        let mut b = flood_sim(11);
        a.run_to_quiescence(100_000);
        b.run_to_quiescence(100_000);
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(a.time(), b.time());
        let ra: Vec<u32> = a.apps().iter().map(|x| x.receptions).collect();
        let rb: Vec<u32> = b.apps().iter().map(|x| x.receptions).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn different_seeds_usually_differ_in_timing() {
        let mut a = flood_sim(1);
        let mut b = flood_sim(2);
        a.run_to_quiescence(100_000);
        b.run_to_quiescence(100_000);
        assert_ne!(a.time(), b.time(), "independent delay draws");
    }

    #[test]
    fn crash_stops_delivery_and_timers() {
        struct Pinger;
        impl Application for Pinger {
            type Msg = ();
            fn on_init(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.me() == NodeId(0) {
                    ctx.send(NodeId(1), ());
                }
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_, ()>, _from: NodeId, _msg: ()) {
                panic!("dead node must not receive");
            }
        }
        let topo = Topology::line(2);
        let mut sim = Simulation::new(topo, vec![Pinger, Pinger], SimConfig::default());
        sim.schedule_crash(NodeId(1), SimTime(0));
        sim.run_to_quiescence(1000);
        assert_eq!(sim.metrics().dropped_dead_dst, 1);
        assert!(!sim.is_alive(NodeId(1)));
    }

    #[test]
    fn unroutable_send_counts_undeliverable() {
        struct Lonely;
        impl Application for Lonely {
            type Msg = ();
            fn on_init(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.me() == NodeId(0) {
                    ctx.send(NodeId(1), ());
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
        }
        let topo = Topology::empty(2); // no edges at all
        let mut sim = Simulation::new(topo, vec![Lonely, Lonely], SimConfig::default());
        sim.run_to_quiescence(1000);
        assert_eq!(sim.metrics().undeliverable, 1);
        assert_eq!(sim.metrics().delivered, 0);
    }

    #[test]
    fn multi_hop_messages_bill_hops() {
        struct EndToEnd;
        impl Application for EndToEnd {
            type Msg = ();
            fn on_init(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.me() == NodeId(0) {
                    ctx.send(NodeId(3), ());
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn msg_size(_: &()) -> usize {
                10
            }
        }
        let topo = Topology::line(4);
        let mut sim = Simulation::new(
            topo,
            vec![EndToEnd, EndToEnd, EndToEnd, EndToEnd],
            SimConfig::default(),
        );
        sim.run_to_quiescence(1000);
        assert_eq!(sim.metrics().sends, 1);
        assert_eq!(sim.metrics().hop_messages, 3, "3 hops end-to-end");
        assert_eq!(sim.metrics().hop_bytes, 30);
    }

    #[test]
    fn send_sized_overrides_byte_accounting() {
        struct SizedSender;
        impl Application for SizedSender {
            type Msg = ();
            fn on_init(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.me() == NodeId(0) {
                    ctx.send(NodeId(1), ()); // charged msg_size() = 10
                    ctx.send_sized(NodeId(1), (), 3); // charged 3
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn msg_size(_: &()) -> usize {
                10
            }
        }
        let topo = Topology::line(2);
        let mut sim = Simulation::new(topo, vec![SizedSender, SizedSender], SimConfig::default());
        sim.run_to_quiescence(1000);
        assert_eq!(sim.metrics().sends, 2);
        assert_eq!(sim.metrics().hop_bytes, 13, "10 default + 3 override");
        assert_eq!(sim.metrics().per_node[0].bytes_sent, 13);
    }

    #[test]
    fn testkit_surfaces_size_overrides() {
        let effects = testkit::drive::<u32>(NodeId(0), SimTime(0), 2, &[], |ctx| {
            ctx.send(NodeId(1), 7);
            ctx.send_sized(NodeId(1), 8, 42);
        });
        assert_eq!(effects.sends, vec![(NodeId(1), 7), (NodeId(1), 8)]);
        assert_eq!(effects.send_sizes, vec![None, Some(42)]);
    }

    #[test]
    fn timers_fire_in_order_and_after_crash_are_dropped() {
        #[derive(Default)]
        struct TimerApp {
            fired: Vec<TimerToken>,
        }
        impl Application for TimerApp {
            type Msg = ();
            fn on_init(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimTime(10), 1);
                ctx.set_timer(SimTime(5), 2);
                ctx.set_timer(SimTime(20), 3);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, ()>, token: TimerToken) {
                self.fired.push(token);
            }
        }
        // Node 1 crashes at 7 and is back at 8, before its timers at 10
        // and 20 are due: they belong to the crashed incarnation and must
        // not fire in the new one — whether the harness revives it or a
        // fault plan restarts it.
        for by_plan in [false, true] {
            let mut sim = Simulation::new(
                Topology::line(2),
                vec![TimerApp::default(), TimerApp::default()],
                SimConfig::default(),
            );
            if by_plan {
                use crate::fault::FaultPlan;
                let plan = FaultPlan::new()
                    .crash_at(SimTime(7), NodeId(1))
                    .restart_at(SimTime(8), NodeId(1));
                sim.apply_fault_plan(&plan);
            } else {
                sim.schedule_crash(NodeId(1), SimTime(7));
            }
            sim.run_until(SimTime(7));
            assert!(!sim.is_alive(NodeId(1)), "by_plan {by_plan}: crashed");
            sim.run_until(SimTime(8));
            if !by_plan {
                sim.revive(NodeId(1));
            }
            assert!(sim.is_alive(NodeId(1)), "by_plan {by_plan}: revived");
            sim.run_to_quiescence(100);
            assert_eq!(sim.app(NodeId(0)).fired, vec![2, 1, 3]);
            assert_eq!(
                sim.app(NodeId(1)).fired,
                vec![2],
                "by_plan {by_plan}: only the pre-crash timer"
            );
            assert_eq!(
                sim.peak_pending_events(),
                if by_plan { 6 } else { 7 },
                "2 × 3 timers (and a scheduled crash) were all pending before the first fired"
            );
        }
    }

    #[test]
    fn run_until_advances_time_to_deadline() {
        let mut sim = flood_sim(5);
        sim.run_until(SimTime(100));
        assert_eq!(sim.time(), SimTime(100));
    }

    #[test]
    fn fault_plan_replays_identically() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::new()
            .crash_at(SimTime(2_000), NodeId(5))
            .partition_at(SimTime(1_000), &[NodeId(0), NodeId(1), NodeId(4)])
            .heal_at(SimTime(6_000))
            .duplicate_between(SimTime::ZERO, SimTime(20_000), 0.3)
            .reorder_between(SimTime(500), SimTime(10_000), SimTime(4_000), 0.5)
            .restart_at(SimTime(9_000), NodeId(5))
            .skew_timers_at(SimTime::ZERO, NodeId(2), 3, 2);
        let run = |()| {
            let mut sim = flood_sim(77);
            sim.apply_fault_plan(&plan);
            sim.run_to_quiescence(100_000);
            (sim.metrics().clone(), sim.time())
        };
        assert_eq!(run(()), run(()), "same seed + same plan ⇒ same run");
    }

    #[test]
    fn fault_free_plan_does_not_perturb_seeded_streams() {
        // An installed-but-empty plan must leave the execution identical
        // to no plan at all (no extra RNG draws, no timing changes).
        use crate::fault::FaultPlan;
        let mut a = flood_sim(11);
        let mut b = flood_sim(11);
        b.apply_fault_plan(&FaultPlan::new());
        a.run_to_quiescence(100_000);
        b.run_to_quiescence(100_000);
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(a.time(), b.time());
    }

    #[test]
    fn partition_blocks_crossing_traffic_until_heal() {
        use crate::fault::FaultPlan;
        struct Repeater;
        impl Application for Repeater {
            type Msg = ();
            fn on_init(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.me() == NodeId(0) {
                    ctx.set_timer(SimTime(1_000), 1);
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: TimerToken) {
                ctx.send(NodeId(1), ());
                ctx.set_timer(SimTime(1_000), 1);
            }
        }
        let mut sim = Simulation::new(
            Topology::line(2),
            vec![Repeater, Repeater],
            SimConfig::default(),
        );
        sim.apply_fault_plan(
            &FaultPlan::new()
                .partition_at(SimTime::ZERO, &[NodeId(0)])
                .heal_at(SimTime(10_500)),
        );
        sim.run_until(SimTime(10_000));
        assert_eq!(sim.metrics().delivered, 0, "cut blocks everything");
        assert_eq!(sim.metrics().undeliverable, 10);
        sim.run_until(SimTime(30_000));
        assert!(sim.metrics().delivered > 0, "heal restores the route");
    }

    #[test]
    fn duplication_window_schedules_extra_copies() {
        use crate::fault::FaultPlan;
        let mut sim = flood_sim(3);
        sim.apply_fault_plan(&FaultPlan::new().duplicate_between(
            SimTime::ZERO,
            SimTime::from_secs(100),
            1.0,
        ));
        sim.run_to_quiescence(100_000);
        let m = sim.metrics();
        assert_eq!(m.duplicated, m.sends, "every send duplicated");
        assert_eq!(m.delivered, m.sends + m.duplicated);
        assert!(sim.apps().iter().all(|a| a.seen));
    }

    #[test]
    fn plan_crash_suppresses_then_restart_restores_delivery() {
        use crate::fault::FaultPlan;
        struct Repeater;
        impl Application for Repeater {
            type Msg = ();
            fn on_init(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.me() == NodeId(0) {
                    ctx.set_timer(SimTime(1_000), 1);
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: TimerToken) {
                ctx.send(NodeId(1), ());
                ctx.set_timer(SimTime(1_000), 1);
            }
        }
        let mut sim = Simulation::new(
            Topology::line(2),
            vec![Repeater, Repeater],
            SimConfig::default(),
        );
        sim.apply_fault_plan(
            &FaultPlan::new()
                .crash_at(SimTime(500), NodeId(1))
                .restart_at(SimTime(10_500), NodeId(1)),
        );
        sim.run_until(SimTime(10_000));
        assert_eq!(sim.metrics().delivered, 0);
        assert!(!sim.is_alive(NodeId(1)));
        sim.run_until(SimTime(30_000));
        assert!(sim.is_alive(NodeId(1)));
        assert!(sim.metrics().delivered > 0, "restart restores delivery");
    }

    #[test]
    fn timer_skew_stretches_local_timers() {
        use crate::fault::FaultPlan;
        #[derive(Default)]
        struct OneShot {
            fired_at: Option<SimTime>,
        }
        impl Application for OneShot {
            type Msg = ();
            fn on_init(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimTime(1_000), 1);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: TimerToken) {
                self.fired_at = Some(ctx.now());
            }
        }
        let mut sim = Simulation::new(
            Topology::line(2),
            vec![OneShot::default(), OneShot::default()],
            SimConfig::default(),
        );
        sim.apply_fault_plan(&FaultPlan::new().skew_timers_at(SimTime::ZERO, NodeId(1), 3, 1));
        sim.run_to_quiescence(100);
        assert_eq!(sim.app(NodeId(0)).fired_at, Some(SimTime(1_000)));
        assert_eq!(
            sim.app(NodeId(1)).fired_at,
            Some(SimTime(3_000)),
            "3x slow clock"
        );
    }
}
