//! `ftscp_sim` — parameterized simulation runner.
//!
//! Runs the fault-tolerant hierarchical detector (and optionally the
//! centralized baseline) over a simulated network and prints detections
//! and cost metrics. All knobs via flags:
//!
//! ```text
//! cargo run -p ftscp-bench --release --bin ftscp_sim -- \
//!     --nodes 31 --degree 2 --rounds 8 --skip 0.1 --seed 7 \
//!     --crash 5@200ms --crash 0@400ms --baseline --loss 0.1
//! ```
//!
//! `--bench-json` instead runs the data-plane measurement suite (Figure 5
//! workload shape, full 4-ary trees at n ∈ {64, 256, 1024, 4096}),
//! sharding the independent `(point × sweep mode)` deployments across the
//! machine's cores, and writes `BENCH_hotpath.json` at the repository
//! root: overlap comparisons of the `Full` reference vs the `Aggregate`
//! engine (with runtime assertions that both produce bit-identical
//! detections), logical vs deep clock clones, encoded bytes per interval
//! dense vs delta, plus a `repair` row measuring the decentralized
//! crash-recovery protocol (re-report traffic and simulated
//! time-to-first-solution after a mid-run internal-node crash on the
//! `h = 3` workload), and a `reactor` row driving one real-TCP node
//! through a 512-connection fan-in on a single epoll loop
//! (`ftscp_net::scale::run_scale`).
//!
//! `--bench-check` regenerates the same grid in memory and exits nonzero
//! if any gated counter differs — in either direction, to the last digit
//! — from the committed `BENCH_hotpath.json`: the CI equality gate.

use ftscp_analysis::report::render_table;
use ftscp_baselines::centralized::CentralizedDeployment;
use ftscp_core::deploy::{DeployConfig, Deployment, RepairMode};
use ftscp_core::monitor::MonitorConfig;
use ftscp_simnet::{LinkModel, NodeId, SimConfig, SimTime, Topology};
use ftscp_tree::SpanningTree;
use ftscp_vclock::ProcessId;
use ftscp_workload::RandomExecution;

#[derive(Debug)]
struct Args {
    nodes: usize,
    degree: usize,
    rounds: usize,
    skip: f64,
    solo: f64,
    seed: u64,
    loss: f64,
    crashes: Vec<(u32, u64)>, // (node, ms)
    baseline: bool,
    topology: String,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            nodes: 15,
            degree: 2,
            rounds: 6,
            skip: 0.0,
            solo: 0.0,
            seed: 0,
            loss: 0.0,
            crashes: Vec::new(),
            baseline: false,
            topology: "tree".to_string(),
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: ftscp_sim [--nodes N] [--degree D] [--rounds P] [--skip F] \
         [--solo F] [--seed S] [--loss F] [--crash NODE@MSms]... \
         [--topology tree|grid|geometric|smallworld|scalefree] [--baseline] \
         | --bench-json | --bench-check | --bench-tenancy"
    );
    std::process::exit(2);
}

/// The `(skip, solo) × h` grid of the `--bench-json` suite.
const BENCH_GRID: [(f64, f64); 2] = [(0.0, 0.0), (0.3, 0.2)];
const BENCH_HEIGHTS: [u32; 4] = [3, 4, 5, 6];

/// One sweep-mode deployment of one workload point: a self-contained
/// simulation with its own workload, detector tree and (per-thread) clone
/// counters, so the sharded driver can run it on any worker.
struct ModeRun {
    ops: u64,
    fingerprint: u64,
    /// `(solution index, coverage refs)` in emission order — the explicit
    /// solution sequence behind the fingerprint, for the bit-identity
    /// assertion across sweep modes.
    solutions: Vec<(u64, Vec<(u32, u64)>)>,
    detections: usize,
    clones_logical: u64,
    clones_deep: u64,
    gate_hits: u64,
    gate_misses: u64,
}

/// Wire-size measurement of one workload point's interval stream.
struct CodecRun {
    intervals: usize,
    dense_bytes: usize,
    standalone_bytes: usize,
    stateful_bytes: usize,
}

/// One measured size point of the `--bench-json` suite, assembled from
/// its two [`ModeRun`]s and one [`CodecRun`].
struct BenchPoint {
    n: usize,
    h: u32,
    skip: f64,
    solo: f64,
    intervals: usize,
    detections: usize,
    ops_full: u64,
    ops_agg: u64,
    gate_hits: u64,
    gate_misses: u64,
    clones_logical: u64,
    clones_deep: u64,
    dense_bytes: usize,
    standalone_bytes: usize,
    stateful_bytes: usize,
}

fn pct_saved(before: u64, after: u64) -> f64 {
    if before == 0 {
        0.0
    } else {
        100.0 * (before.saturating_sub(after)) as f64 / before as f64
    }
}

fn bench_workload(h: u32, skip: f64, solo: f64) -> Vec<ftscp_intervals::Interval> {
    let n = 4usize.pow(h);
    let exec = RandomExecution::builder(n)
        .intervals_per_process(6)
        .skip_prob(skip)
        .solo_prob(solo)
        .seed(7)
        .build();
    exec.intervals_interleaved().into_iter().cloned().collect()
}

/// Runs one sweep mode over one Figure 5 workload row (full `d = 4` tree,
/// `p = 6`, seed 7). Clone counters are thread-local, so resetting here
/// charges exactly this deployment no matter which shard worker runs it.
fn bench_mode(h: u32, skip: f64, solo: f64, mode: ftscp_intervals::SweepMode) -> ModeRun {
    use ftscp_core::HierarchicalDetector;

    let intervals = bench_workload(h, skip, solo);
    let tree = SpanningTree::balanced_dary(4usize.pow(h), 4);
    ftscp_vclock::reset_clone_stats();
    let mut det = HierarchicalDetector::new(&tree).with_sweep_mode(mode);
    for iv in &intervals {
        det.feed(iv.clone());
    }
    let (clones_logical, clones_deep) = ftscp_vclock::clone_stats();
    let stats = det.bank_stats_total();
    ModeRun {
        ops: det.ops().get(),
        fingerprint: ftscp_core::faultcheck::detection_fingerprint(det.root_solutions()),
        solutions: det
            .root_solutions()
            .iter()
            .map(|d| {
                (
                    d.solution.index,
                    d.coverage.iter().map(|r| (r.process.0, r.seq)).collect(),
                )
            })
            .collect(),
        detections: det.root_solutions().len(),
        clones_logical,
        clones_deep,
        gate_hits: stats.gate_hits,
        gate_misses: stats.gate_misses,
    }
}

/// Wire sizes over one point's interval stream: legacy dense, delta with
/// no base (retransmit/resync frames), and delta over per-source
/// connection state (the live stream).
fn bench_codec(h: u32, skip: f64, solo: f64) -> CodecRun {
    use ftscp_core::ConnCodec;
    use ftscp_intervals::codec::{encoded_interval_delta_len, encoded_interval_len};
    use std::collections::BTreeMap;

    let intervals = bench_workload(h, skip, solo);
    let mut dense_bytes = 0usize;
    let mut standalone_bytes = 0usize;
    let mut stateful_bytes = 0usize;
    let mut conns: BTreeMap<u32, ConnCodec> = BTreeMap::new();
    for iv in &intervals {
        dense_bytes += encoded_interval_len(iv);
        standalone_bytes += encoded_interval_delta_len(iv, None);
        let codec = conns.entry(iv.source.0).or_default();
        stateful_bytes += codec.stateful_len(iv);
        codec.note_sent(iv);
    }
    CodecRun {
        intervals: intervals.len(),
        dense_bytes,
        standalone_bytes,
        stateful_bytes,
    }
}

/// The `net_loopback` row: the `h = 3` hotpath workload pushed through
/// the real-TCP loopback deployment (`ftscp-net`), one OS process tree on
/// 127.0.0.1. The frame/byte counters are deterministic because
/// heartbeats and retransmits are off (reliable local sockets, no drops)
/// and each node's report stream is interleaving-invariant.
struct NetRun {
    available: bool,
    n: usize,
    intervals: u64,
    detections: usize,
    interval_msgs: u64,
    interval_frames: u64,
    standalone_frames: u64,
    bytes_on_wire: u64,
    reconnects: u64,
}

fn bench_net_loopback() -> NetRun {
    use ftscp_net::loopback::{run_execution, sockets_available, LoopbackConfig};

    let h = 3u32;
    let n = 4usize.pow(h);
    let mut run = NetRun {
        available: false,
        n,
        intervals: 0,
        detections: 0,
        interval_msgs: 0,
        interval_frames: 0,
        standalone_frames: 0,
        bytes_on_wire: 0,
        reconnects: 0,
    };
    if !sockets_available() {
        return run;
    }
    let exec = RandomExecution::builder(n)
        .intervals_per_process(6)
        .seed(7)
        .build();
    let tree = SpanningTree::balanced_dary(n, 4);
    let config = LoopbackConfig {
        monitor: MonitorConfig {
            heartbeat_period: None,
            retransmit_period: None,
            ..MonitorConfig::default()
        },
        event_pacing: std::time::Duration::ZERO,
        run_timeout: std::time::Duration::from_secs(60),
    };
    let report = match run_execution(&tree, &exec, &config) {
        Ok(r) if !r.timed_out => r,
        _ => return run,
    };
    run.available = true;
    run.intervals = report.total_intervals;
    run.detections = report.detections.len();
    run.interval_msgs = report
        .node_reports
        .iter()
        .map(|r| r.interval_msgs_sent)
        .sum();
    run.interval_frames = report.interval_frames();
    run.standalone_frames = report.standalone_frames();
    run.bytes_on_wire = report.bytes_on_wire();
    run.reconnects = report.reconnects();
    run
}

/// The `repair` row: cost of surviving a mid-run crash of a height-1
/// internal node on the `h = 3` hotpath workload, with the repair run by
/// the decentralized membership protocol (`RepairMode::HeartbeatDriven`:
/// heartbeat suspicion → grandparent adoption → re-reports — the same
/// code path the TCP runtime drives). Everything is simulation-
/// deterministic: `time_to_first_solution_ms` is *simulated* time from
/// the crash instant to the first post-crash detection at the root, and
/// the re-report counters meter the §III-F recovery traffic
/// (retransmitted unacked reports + standalone resync frames).
struct RepairRun {
    n: usize,
    crashed_node: u32,
    crash_at_ms: u64,
    detections: usize,
    re_report_msgs: u64,
    re_report_bytes: u64,
    time_to_first_solution_ms: f64,
}

fn bench_repair() -> RepairRun {
    let h = 3u32;
    let n = 4usize.pow(h);
    let crashed = ProcessId(5); // height-1 internal: parent of four leaves
    let crash_at = SimTime::from_millis(150);
    let exec = RandomExecution::builder(n)
        .intervals_per_process(6)
        .seed(7)
        .build();
    let topo = Topology::dary_tree(n, 4, 1);
    let tree = SpanningTree::balanced_dary(n, 4);
    let cfg = DeployConfig {
        sim: SimConfig {
            seed: 7,
            link: LinkModel {
                min_delay: SimTime(200),
                max_delay: SimTime(4_000),
                drop_prob: 0.0,
            },
        },
        monitor: MonitorConfig {
            heartbeat_period: Some(SimTime::from_millis(20)),
            retransmit_period: Some(SimTime::from_millis(25)),
            ..Default::default()
        },
        repair_delay: SimTime::from_millis(120),
        repair_mode: RepairMode::HeartbeatDriven,
        ..Default::default()
    };
    let mut dep = Deployment::new(topo, tree, &exec, cfg);
    dep.schedule_crash(crashed, crash_at);
    dep.run();
    let dets = dep.detections();
    let first_after = dets
        .iter()
        .map(|d| d.time)
        .find(|&t| t >= crash_at)
        .map(|t| t.saturating_sub(crash_at))
        .unwrap_or(SimTime::ZERO);
    let mut re_report_msgs = 0u64;
    let mut re_report_bytes = 0u64;
    for p in 0..n {
        let app = dep.app(ProcessId(p as u32));
        re_report_msgs += app.re_report_msgs();
        re_report_bytes += app.re_report_bytes();
    }
    assert!(
        dets.iter().any(|d| d.time >= crash_at),
        "repair row must keep detecting after the crash"
    );
    RepairRun {
        n,
        crashed_node: crashed.0,
        crash_at_ms: crash_at.as_millis(),
        detections: dets.len(),
        re_report_msgs,
        re_report_bytes,
        time_to_first_solution_ms: first_after.as_micros() as f64 / 1e3,
    }
}

/// The `reactor` row: one real-TCP root node sustaining a 512-child
/// fan-in on a single epoll loop (`ftscp_net::scale::run_scale`, the
/// same harness as `net/tests/scale.rs`). Heartbeats and retransmits
/// are off, so `detections`, `bytes_received` (the children's protocol
/// payload), and `reconnects` are deterministic and gated.
struct ReactorRun {
    available: bool,
    children: usize,
    rounds: u64,
    intervals: u64,
    detections: usize,
    bytes_sent: u64,
    bytes_received: u64,
    reconnects: u64,
}

fn bench_reactor() -> ReactorRun {
    use ftscp_net::scale::run_scale;

    let children = 512usize;
    let rounds = 3u64;
    let mut run = ReactorRun {
        available: false,
        children,
        rounds,
        intervals: 0,
        detections: 0,
        bytes_sent: 0,
        bytes_received: 0,
        reconnects: 0,
    };
    let report = match run_scale(children, rounds, std::time::Duration::from_secs(120)) {
        Ok(Some(r)) => r,
        // Socketless environment or an unraisable fd limit: record zeros.
        Ok(None) | Err(_) => return run,
    };
    run.available = true;
    run.intervals = (children as u64 + 1) * rounds;
    run.detections = report.node.detections.len();
    run.bytes_sent = report.node.bytes_sent;
    run.bytes_received = report.node.bytes_received;
    run.reconnects = report.node.reconnects;
    run
}

/// One tenant-count point of the tenancy suite: the registry's
/// relevance-filtered routing vs the naive broadcast baseline on the
/// same shared event stream, with per-tenant bit-identity asserted at
/// runtime every time the suite runs.
struct TenancyPoint {
    tenants: usize,
    events: u64,
    detections: usize,
    /// Deterministic billed cost (routing touches + vector-clock
    /// comparisons) of the registry's `ingest` run.
    registry_billed: u64,
    /// Billed cost of the naive run: every tenant offered every event.
    naive_billed: u64,
    /// Events × relevant tenants — the Σ|S_k| work the filter admits.
    relevant_touches: u64,
    /// Uplink bytes with per-connection tenant batches (0xD3 frames).
    batched_bytes: u64,
    /// The same routed traffic as per-predicate `Interval` frames.
    naive_bytes: u64,
}

/// Tenant counts of the tenancy suite (1 → 10k over one event stream).
const TENANCY_COUNTS: [usize; 5] = [1, 10, 100, 1_000, 10_000];
const TENANCY_N: usize = 64;
const TENANCY_ROUNDS: usize = 6;
const TENANCY_BATCH_SPAN: usize = 8;

/// splitmix64 — the member sets must be stable across runs and machines
/// (the bench gate compares billed counters), so they are derived from
/// the tenant index, not from an RNG stream shared with anything else.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Tenant 0 watches everyone (the legacy full-coverage shape); tenants
/// 1.. watch pseudo-random member sets of 4–16 processes — the
/// "thousands of small Φ over one fleet" shape the registry exists for.
fn tenancy_specs(tenants: usize, n: usize) -> Vec<ftscp_core::registry::TenantSpec> {
    use ftscp_core::registry::TenantSpec;
    use ftscp_core::PredicateId;

    let mut specs = Vec::with_capacity(tenants);
    specs.push(TenantSpec::full(PredicateId(0)));
    for k in 1..tenants {
        let seed = mix64(k as u64);
        let size = 4 + (seed % 13) as usize;
        let mut members: Vec<ProcessId> = Vec::with_capacity(size);
        let mut probe = seed;
        while members.len() < size {
            probe = mix64(probe);
            let p = ProcessId((probe % n as u64) as u32);
            if !members.contains(&p) {
                members.push(p);
            }
        }
        specs.push(TenantSpec::restricted(PredicateId(k as u32), members));
    }
    specs
}

/// Measures one tenant count: registry `ingest` (billed), naive
/// `ingest_broadcast` baseline (billed), per-tenant solution-sequence
/// bit-identity (asserted), and both uplink byte costs for the same
/// routed traffic (computed with the real codecs, size queries only).
fn bench_tenancy_point(
    tenants: usize,
    tree: &SpanningTree,
    exec: &ftscp_workload::Execution,
    stream: &[ftscp_intervals::Interval],
) -> TenancyPoint {
    use ftscp_core::registry::PredicateRegistry;
    use ftscp_intervals::codec::{
        encoded_interval_delta_len, encoded_tenant_batch_len, TenantGroup,
    };

    let specs = tenancy_specs(tenants, TENANCY_N);
    let mut registry = PredicateRegistry::new(tree, &specs);
    for iv in stream {
        registry.ingest(iv.clone());
    }

    let mut naive = PredicateRegistry::new(tree, &specs);
    for iv in stream {
        naive.ingest_broadcast(iv.clone());
    }
    // The differential, enforced on every bench run: routing through the
    // relevance filter must not change any tenant's detections.
    for spec in &specs {
        assert_eq!(
            registry.tenant(spec.id).solution_sequence(),
            naive.tenant(spec.id).solution_sequence(),
            "tenant {:?} diverged registry-vs-naive at T = {tenants}",
            spec.id
        );
    }

    // Wire cost of the same routed traffic, per monitored process: one
    // connection each, flushed every TENANCY_BATCH_SPAN events. Batched =
    // one 0xD3 frame per flush (each interval encoded once, fan-out as
    // varint tags); naive = one per-predicate Interval frame per
    // (event, tenant) pair, each predicate with its own delta stream.
    // Constant 11 bytes per frame either way: u32 length prefix, tag,
    // subtag, u32 `from`, resync flag.
    const FRAME_FIXED: u64 = 4 + 2 + 4 + 1;
    let mut batched_bytes = 0u64;
    let mut naive_bytes = 0u64;
    for p in 0..TENANCY_N {
        let route: Vec<u32> = registry
            .tenants_for(ProcessId(p as u32))
            .iter()
            .map(|id| id.0)
            .collect();
        if route.is_empty() {
            continue;
        }
        let ivs = exec.intervals_of(ProcessId(p as u32));
        let mut base: Option<ftscp_vclock::VectorClock> = None;
        for chunk in ivs.chunks(TENANCY_BATCH_SPAN) {
            let groups: Vec<TenantGroup> =
                chunk.iter().map(|iv| (route.clone(), iv.clone())).collect();
            batched_bytes += FRAME_FIXED + encoded_tenant_batch_len(&groups, base.as_ref()) as u64;
            base = chunk.last().map(|iv| iv.lo.clone());
        }
        let mut bases: Vec<Option<ftscp_vclock::VectorClock>> = vec![None; route.len()];
        for iv in ivs {
            for b in bases.iter_mut() {
                naive_bytes += FRAME_FIXED + 4 + encoded_interval_delta_len(iv, b.as_ref()) as u64;
                *b = Some(iv.lo.clone());
            }
        }
    }

    TenancyPoint {
        tenants,
        events: stream.len() as u64,
        detections: registry.total_detections(),
        registry_billed: registry.billed_cost(),
        naive_billed: naive.billed_cost(),
        relevant_touches: registry.stats().tenant_touches,
        batched_bytes,
        naive_bytes,
    }
}

/// The tenancy suite: T ∈ {1, 10, 100, 1k, 10k} tenants over one shared
/// 64-process event stream (full 4-ary tree, seed 7). Asserts the
/// acceptance bar: aggregate billed cost at 10k tenants under 0.5× of
/// 10k × the single-tenant cost — the relevance filter's sublinearity.
fn bench_tenancy() -> Vec<TenancyPoint> {
    let tree = SpanningTree::balanced_dary(TENANCY_N, 4);
    let exec = RandomExecution::builder(TENANCY_N)
        .intervals_per_process(TENANCY_ROUNDS)
        .seed(7)
        .build();
    let stream: Vec<ftscp_intervals::Interval> =
        exec.intervals_interleaved().into_iter().cloned().collect();
    let points: Vec<TenancyPoint> = TENANCY_COUNTS
        .into_iter()
        .map(|tenants| {
            eprintln!(
                "tenancy: {tenants} tenants over {} events ...",
                stream.len()
            );
            bench_tenancy_point(tenants, &tree, &exec, &stream)
        })
        .collect();

    let single = points[0].registry_billed;
    let at_10k = points
        .last()
        .expect("tenant grid is non-empty")
        .registry_billed;
    assert!(
        2 * at_10k < 10_000 * single,
        "tenancy sublinearity bar lost: 10k tenants billed {at_10k}, \
         single-tenant cost {single} (needs < 0.5x of 10k x single)"
    );
    for p in &points {
        assert!(
            p.batched_bytes < p.naive_bytes || p.tenants == 1,
            "batched uplink must beat per-predicate framing at T = {}",
            p.tenants
        );
    }
    points
}

/// Runs the whole measurement grid — every `(point, sweep mode)`
/// deployment plus one codec pass per point — as independent jobs on the
/// sharded worker pool, then assembles and cross-checks the points.
///
/// The cross-checks are the bit-identity contract of the sweep modes,
/// asserted at runtime on every point: identical faultcheck fingerprints
/// *and* identical solution sequences for the `Full` reference and the
/// `Aggregate` engine. The clean `h ≥ 5` rows must also show the headline
/// `≥ 10×` comparison saving of the aggregate-summary gate.
fn bench_points() -> Vec<BenchPoint> {
    use ftscp_intervals::SweepMode;

    let grid: Vec<(u32, f64, f64)> = BENCH_GRID
        .iter()
        .flat_map(|&(skip, solo)| BENCH_HEIGHTS.iter().map(move |&h| (h, skip, solo)))
        .collect();
    const MODES: [SweepMode; 2] = [SweepMode::Full, SweepMode::Aggregate];
    const JOBS_PER_POINT: usize = MODES.len() + 1; // 2 sweep modes + codec

    enum JobOut {
        Mode(ModeRun),
        Codec(CodecRun),
    }
    eprintln!(
        "measuring {} deployments on {} workers ...",
        grid.len() * JOBS_PER_POINT,
        ftscp_analysis::worker_count(grid.len() * JOBS_PER_POINT)
    );
    let outs = ftscp_analysis::run_sharded(grid.len() * JOBS_PER_POINT, |i| {
        let (h, skip, solo) = grid[i / JOBS_PER_POINT];
        match i % JOBS_PER_POINT {
            m if m < MODES.len() => JobOut::Mode(bench_mode(h, skip, solo, MODES[m])),
            _ => JobOut::Codec(bench_codec(h, skip, solo)),
        }
    });

    let mut points = Vec::new();
    for (pi, chunk) in outs.chunks(JOBS_PER_POINT).enumerate() {
        let (h, skip, solo) = grid[pi];
        let n = 4usize.pow(h);
        let [JobOut::Mode(full), JobOut::Mode(agg), JobOut::Codec(codec)] = chunk else {
            unreachable!("job kinds arrive in per-point order");
        };
        // Bit-identity of the engine against the reference: same
        // fingerprint, same explicit solution sequence.
        assert_eq!(
            full.fingerprint, agg.fingerprint,
            "aggregate sweep fingerprint diverged at n = {n}, skip = {skip}"
        );
        assert_eq!(
            full.solutions, agg.solutions,
            "aggregate sweep solution sequence diverged at n = {n}, skip = {skip}"
        );
        assert!(
            agg.ops < full.ops,
            "aggregate sweep must do strictly fewer comparisons ({} >= {})",
            agg.ops,
            full.ops
        );
        if skip == 0.0 && h >= 5 {
            assert!(
                full.ops >= 10 * agg.ops,
                "headline row (n = {n} dense) lost the ≥10× saving: {} vs {}",
                full.ops,
                agg.ops
            );
        }
        points.push(BenchPoint {
            n,
            h,
            skip,
            solo,
            intervals: codec.intervals,
            detections: agg.detections,
            ops_full: full.ops,
            ops_agg: agg.ops,
            gate_hits: agg.gate_hits,
            gate_misses: agg.gate_misses,
            clones_logical: agg.clones_logical,
            clones_deep: agg.clones_deep,
            dense_bytes: codec.dense_bytes,
            standalone_bytes: codec.standalone_bytes,
            stateful_bytes: codec.stateful_bytes,
        });
    }
    points
}

fn render_tenancy_json(tenancy: &[TenancyPoint]) -> String {
    let mut out = String::new();
    out.push_str("  \"tenancy\": [\n");
    for (i, p) in tenancy.iter().enumerate() {
        let per_iv = |total: u64| total as f64 / p.events.max(1) as f64;
        out.push_str(&format!(
            "    {{\"tenants\": {}, \"events\": {},\n     \
             \"tenancy_cost\": {{\"registry_billed\": {}, \"naive_billed\": {}, \
             \"relevant_touches\": {}, \"detections\": {}}},\n",
            p.tenants,
            p.events,
            p.registry_billed,
            p.naive_billed,
            p.relevant_touches,
            p.detections
        ));
        out.push_str(&format!(
            "     \"tenancy_bytes\": {{\"batched_per_interval\": {:.1}, \
             \"naive_per_interval\": {:.1}}}}}{}\n",
            per_iv(p.batched_bytes),
            per_iv(p.naive_bytes),
            if i + 1 < tenancy.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out
}

fn render_bench_json(
    points: &[BenchPoint],
    tenancy: &[TenancyPoint],
    net: &NetRun,
    repair: &RepairRun,
    reactor: &ReactorRun,
) -> String {
    // Hand-formatted JSON: the build environment has no serde_json.
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"hotpath\",\n");
    out.push_str(
        "  \"workload\": {\"tree_degree\": 4, \"intervals_per_process\": 6, \"seed\": 7},\n",
    );
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let per_iv = |total: usize| total as f64 / p.intervals.max(1) as f64;
        out.push_str(&format!(
            "    {{\"n\": {}, \"h\": {}, \"skip_prob\": {:.1}, \"solo_prob\": {:.1}, \
             \"intervals\": {}, \"detections\": {},\n",
            p.n, p.h, p.skip, p.solo, p.intervals, p.detections
        ));
        out.push_str(&format!(
            "     \"overlap_comparisons\": {{\"full_sweep\": {}, \"aggregate\": {}, \
             \"aggregate_saved_pct\": {:.2}}},\n",
            p.ops_full,
            p.ops_agg,
            pct_saved(p.ops_full, p.ops_agg)
        ));
        out.push_str(&format!(
            "     \"aggregate_gate\": {{\"hits\": {}, \"misses\": {}}},\n",
            p.gate_hits, p.gate_misses
        ));
        out.push_str(&format!(
            "     \"clock_clones\": {{\"logical\": {}, \"deep_copies\": {}, \"elided_pct\": {:.1}}},\n",
            p.clones_logical,
            p.clones_deep,
            pct_saved(p.clones_logical, p.clones_deep)
        ));
        out.push_str(&format!(
            "     \"bytes_per_interval\": {{\"dense\": {:.1}, \"delta_standalone\": {:.1}, \"delta_stateful\": {:.1}}}}}{}\n",
            per_iv(p.dense_bytes),
            per_iv(p.standalone_bytes),
            per_iv(p.stateful_bytes),
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&render_tenancy_json(tenancy));
    out.push_str(&format!(
        "  \"repair\": {{\"n\": {}, \"crashed_node\": {}, \"crash_at_ms\": {}, \
         \"detections\": {}, \"re_report_msgs\": {}, \"re_report_bytes\": {}, \
         \"time_to_first_solution_ms\": {:.3}}},\n",
        repair.n,
        repair.crashed_node,
        repair.crash_at_ms,
        repair.detections,
        repair.re_report_msgs,
        repair.re_report_bytes,
        repair.time_to_first_solution_ms
    ));
    out.push_str(&format!(
        "  \"net_loopback\": {{\"available\": {}, \"n\": {}, \"intervals\": {}, \
         \"detections\": {}, \"interval_msgs\": {}, \"interval_frames\": {}, \
         \"standalone_frames\": {}, \"bytes_on_wire\": {}, \"reconnects\": {}}},\n",
        net.available,
        net.n,
        net.intervals,
        net.detections,
        net.interval_msgs,
        net.interval_frames,
        net.standalone_frames,
        net.bytes_on_wire,
        net.reconnects
    ));
    out.push_str(&format!(
        "  \"reactor\": {{\"available\": {}, \"children\": {}, \"rounds\": {}, \
         \"intervals\": {}, \"detections\": {}, \"bytes_sent\": {}, \
         \"bytes_received\": {}, \"reconnects\": {}}}\n",
        reactor.available,
        reactor.children,
        reactor.rounds,
        reactor.intervals,
        reactor.detections,
        reactor.bytes_sent,
        reactor.bytes_received,
        reactor.reconnects
    ));
    out.push_str("}\n");
    out
}

const BENCH_JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");

fn run_bench_json() {
    let points = bench_points();
    let tenancy = bench_tenancy();
    let net = bench_net_loopback();
    let repair = bench_repair();
    let reactor = bench_reactor();
    if !net.available {
        eprintln!("note: loopback sockets unavailable — net_loopback row records zeros");
    }
    if !reactor.available {
        eprintln!("note: reactor scale run unavailable — reactor row records zeros");
    }
    let out = render_bench_json(&points, &tenancy, &net, &repair, &reactor);
    std::fs::write(BENCH_JSON_PATH, &out).expect("write BENCH_hotpath.json");
    print!("{out}");
    eprintln!("written to {BENCH_JSON_PATH}");

    let last = points.last().expect("eight grid points");
    assert!(
        last.stateful_bytes < last.dense_bytes && last.standalone_bytes < last.dense_bytes,
        "delta encoding must beat dense at n = {}",
        last.n
    );
}

/// The text of every numeric value of `"key"` inside each
/// `"section": {...}` object, in file order — a deliberately dumb
/// extractor for the equality gate (no serde_json in the build
/// environment; the file is our own hand-formatted flat output). Scoping
/// to the section keeps a key name shared by two sections (`detections`,
/// `reconnects`) from matching in the wrong one.
fn extract_all<'a>(json: &'a str, section: &str, key: &str) -> Vec<&'a str> {
    let sec_pat = format!("\"{section}\": {{");
    let key_pat = format!("\"{key}\": ");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(pos) = rest.find(&sec_pat) {
        let body_start = pos + sec_pat.len();
        let body_end = body_start
            + rest[body_start..]
                .find('}')
                .expect("section object is closed");
        let body = &rest[body_start..body_end];
        if let Some(kpos) = body.find(&key_pat) {
            let tail = &body[kpos + key_pat.len()..];
            let end = tail
                .find(|c: char| !c.is_ascii_digit() && c != '.' && c != '-')
                .unwrap_or(tail.len());
            out.push(&tail[..end]);
        }
        rest = &rest[body_end..];
    }
    out
}

/// Every gated counter of `BENCH_hotpath.json`: `(section, key,
/// needs_sockets)`. All are deterministic — billed comparisons and codec
/// bytes per grid point, the simulated repair row (recovery traffic and
/// *simulated* time to first solution), the tenancy rows, and the TCP
/// rows' frame/byte counters (heartbeats and retransmits off; `reconnects`
/// is zero — any reconnect under loopback is a reactor bug). A TCP row is
/// compared only when both the committed file and this machine could run
/// it; a row of zeros (socketless environment) is recorded, not compared.
const GATED: [(&str, &str, bool); 20] = [
    ("overlap_comparisons", "full_sweep", false),
    ("overlap_comparisons", "aggregate", false),
    ("bytes_per_interval", "dense", false),
    ("bytes_per_interval", "delta_standalone", false),
    ("bytes_per_interval", "delta_stateful", false),
    ("repair", "detections", false),
    ("repair", "re_report_msgs", false),
    ("repair", "re_report_bytes", false),
    ("repair", "time_to_first_solution_ms", false),
    ("tenancy_cost", "registry_billed", false),
    ("tenancy_cost", "relevant_touches", false),
    ("tenancy_cost", "detections", false),
    ("tenancy_bytes", "batched_per_interval", false),
    ("net_loopback", "interval_msgs", true),
    ("net_loopback", "interval_frames", true),
    ("net_loopback", "standalone_frames", true),
    ("net_loopback", "bytes_on_wire", true),
    ("reactor", "detections", true),
    ("reactor", "bytes_received", true),
    ("reactor", "reconnects", true),
];

/// `--bench-check`: regenerates the whole file in memory and fails
/// (exit 1) if any [`GATED`] counter differs, in either direction, from
/// the committed `BENCH_hotpath.json`.
fn run_bench_check() {
    let committed = std::fs::read_to_string(BENCH_JSON_PATH)
        .unwrap_or_else(|e| panic!("read committed {BENCH_JSON_PATH}: {e}"));
    let current = render_bench_json(
        &bench_points(),
        &bench_tenancy(),
        &bench_net_loopback(),
        &bench_repair(),
        &bench_reactor(),
    );

    let ran = |json: &str, section: &str| extract_all(json, section, "intervals") != ["0"];
    let mut failures = Vec::new();
    for (section, key, needs_sockets) in GATED {
        if needs_sockets && !(ran(&committed, section) && ran(&current, section)) {
            eprintln!(
                "bench check: \"{section}.{key}\" not gated (no sockets, here or at baseline)"
            );
            continue;
        }
        let was = extract_all(&committed, section, key);
        let now = extract_all(&current, section, key);
        if was.is_empty() || was.len() != now.len() {
            failures.push(format!(
                "committed file has {} values of \"{section}.{key}\", this run {} \
                 (regenerate with --bench-json)",
                was.len(),
                now.len()
            ));
        }
        for (i, (w, n)) in was.iter().zip(&now).enumerate() {
            if w != n {
                failures.push(format!("point {i}: \"{section}.{key}\" {w} -> {n}"));
            }
        }
    }

    if failures.is_empty() {
        eprintln!(
            "bench check passed: every gated counter equals the committed BENCH_hotpath.json"
        );
    } else {
        for f in &failures {
            eprintln!("bench check: {f}");
        }
        std::process::exit(1);
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut next = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--nodes" => args.nodes = next().parse().unwrap_or_else(|_| usage()),
            "--degree" => args.degree = next().parse().unwrap_or_else(|_| usage()),
            "--rounds" => args.rounds = next().parse().unwrap_or_else(|_| usage()),
            "--skip" => args.skip = next().parse().unwrap_or_else(|_| usage()),
            "--solo" => args.solo = next().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = next().parse().unwrap_or_else(|_| usage()),
            "--loss" => args.loss = next().parse().unwrap_or_else(|_| usage()),
            "--topology" => args.topology = next(),
            "--baseline" => args.baseline = true,
            "--crash" => {
                let spec = next();
                let Some((node, at)) = spec.split_once('@') else {
                    usage()
                };
                let node: u32 = node.parse().unwrap_or_else(|_| usage());
                let at_ms: u64 = at
                    .trim_end_matches("ms")
                    .parse()
                    .unwrap_or_else(|_| usage());
                args.crashes.push((node, at_ms));
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

fn main() {
    if std::env::args().any(|a| a == "--bench-json") {
        run_bench_json();
        return;
    }
    if std::env::args().any(|a| a == "--bench-check") {
        run_bench_check();
        return;
    }
    // Standalone tenancy suite (same rows as the `--bench-json`
    // `tenancy` section, printed as its JSON fragment) for re-measuring
    // the multi-tenant table — including its sublinearity and
    // bit-identity assertions — without the full grid.
    if std::env::args().any(|a| a == "--bench-tenancy") {
        print!("{}", render_tenancy_json(&bench_tenancy()));
        return;
    }
    let args = parse_args();
    let n = args.nodes;

    let topo = match args.topology.as_str() {
        "tree" => Topology::dary_tree(n, args.degree, 1),
        "grid" => {
            let w = (n as f64).sqrt().ceil() as usize;
            Topology::grid(w, n.div_ceil(w))
        }
        "geometric" => Topology::random_geometric(n, 0.25, args.seed),
        "smallworld" => Topology::small_world(n, 4, 0.15, args.seed),
        "scalefree" => Topology::scale_free(n, 2, args.seed),
        _ => usage(),
    };
    let n = topo.len(); // grid may round up
    let tree = if args.topology == "tree" {
        SpanningTree::balanced_dary(n, args.degree)
    } else {
        // Degree-bounded BFS keeps the paper's d parameter meaningful on
        // hub-heavy topologies.
        SpanningTree::bfs_bounded(&topo, NodeId(0), args.degree.max(2))
    };
    println!(
        "network: {} nodes, {} links | tree: height {}, degree {}",
        n,
        topo.edge_count(),
        tree.height(),
        tree.max_degree()
    );

    let exec = RandomExecution::builder(n)
        .intervals_per_process(args.rounds)
        .skip_prob(args.skip)
        .solo_prob(args.solo)
        .seed(args.seed)
        .build();
    println!(
        "workload: {} intervals in {} rounds ({} causal messages)",
        exec.total_intervals(),
        args.rounds,
        exec.messages
    );

    let sim = SimConfig {
        seed: args.seed,
        link: LinkModel {
            min_delay: SimTime(200),
            max_delay: SimTime(4_000),
            drop_prob: args.loss,
        },
    };
    let mut dep = Deployment::new(
        topo.clone(),
        tree,
        &exec,
        DeployConfig {
            sim,
            interval_spacing: SimTime::from_millis(10),
            monitor: MonitorConfig {
                heartbeat_period: Some(SimTime::from_millis(100)),
                retransmit_period: (args.loss > 0.0).then(|| SimTime::from_millis(25)),
                ..Default::default()
            },
            repair_delay: SimTime::from_millis(250),
            ..Default::default()
        },
    );
    for &(node, at_ms) in &args.crashes {
        dep.schedule_crash(ProcessId(node), SimTime::from_millis(at_ms));
        println!("scheduled crash: node {node} at {at_ms}ms");
    }
    dep.run();

    let dets = dep.detections();
    println!("\n=== hierarchical detections: {} ===", dets.len());
    let rows: Vec<Vec<String>> = dets
        .iter()
        .map(|d| {
            vec![
                d.time.to_string(),
                d.at_node.to_string(),
                d.covered_processes().len().to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&["time", "root", "coverage"], &rows));
    println!(
        "cost: {} interval msgs | {} total sends | {} hop-msgs | {} lost | peak queue {}",
        dep.interval_messages(),
        dep.metrics().sends,
        dep.metrics().hop_messages,
        dep.metrics().lost,
        dep.peak_queue_len()
    );

    if args.baseline {
        let mut cent =
            CentralizedDeployment::new(topo, NodeId(0), &exec, sim, SimTime::from_millis(10));
        cent.run();
        println!(
            "\n=== centralized baseline: {} detections | {} hop-msgs | sink queue {} | sink cmp {} ===",
            cent.detections().len(),
            cent.metrics().hop_messages,
            cent.sink_stats().peak_resident,
            cent.sink_ops(),
        );
        if !args.crashes.is_empty() {
            println!("(note: baseline ran crash-free — it cannot survive its sink)");
        }
    }
}
