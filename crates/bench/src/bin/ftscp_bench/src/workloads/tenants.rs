//! `mem_tenants`: a thousand narrow predicates over one event stream.
//!
//! `PredicateRegistry::ingest` routes each of 1 536 events to the tenants
//! whose member set contains its process; tenant 0 watches all 64
//! processes, the rest 4–16 of them. The banks are narrow, so per-call
//! overhead — routing, engine entry, small sweeps — dominates and compare
//! width does not: the registry and engine changes the wide workloads
//! hide show here.

use super::{
    build_execution, quartile_pass, overhead_pct, repeat_setup, tail, timed_passes, Outcome, RunCfg,
    SolutionSeq,
};
use crate::replay;
use crate::trace::Tracer;
use ftscp_core::{PredicateId, PredicateRegistry, TenantSpec};
use ftscp_intervals::Interval;
use ftscp_tree::SpanningTree;
use ftscp_vclock::ProcessId;
use std::time::Instant;

const N: usize = 64;
const DEGREE: usize = 4;
const ROUNDS: usize = 24;
const TENANTS: usize = 1_000;
/// Tenants whose solution sequences are compared with a broadcast-fed
/// registry of the same specs.
const CHECKED: usize = 32;

/// splitmix64, as in `ftscp_sim`'s tenancy bench: member sets are a pure
/// function of (seed, tenant index), shared with no other random stream.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Tenant 0 watches everyone; tenants 1.. watch 4–16 pseudo-random
/// processes, salted with the bench seed.
fn tenancy_specs(tenants: usize, n: usize, seed: u64) -> Vec<TenantSpec> {
    let salt = mix64(seed);
    let mut specs = Vec::with_capacity(tenants);
    specs.push(TenantSpec::full(PredicateId(0)));
    for k in 1..tenants {
        let start = mix64(k as u64 ^ salt);
        let size = 4 + (start % 13) as usize;
        let mut members: Vec<ProcessId> = Vec::with_capacity(size);
        let mut probe = start;
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

struct Prepared {
    tree: SpanningTree,
    specs: Vec<TenantSpec>,
    stream: Vec<Interval>,
    /// Solution sequences of the first [`CHECKED`] tenants under
    /// `ingest_broadcast`.
    reference: Vec<SolutionSeq>,
    registry_build_s: f64,
    tree_build_us: f64,
    workload_build_s: f64,
}

fn prepare(seed: u64) -> Prepared {
    let t0 = Instant::now();
    let exec = build_execution(N, ROUNDS, 0.0, 0.0, seed);
    let workload_build_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let tree = SpanningTree::balanced_dary(N, DEGREE);
    let tree_build_us = t0.elapsed().as_secs_f64() * 1e6;
    let stream: Vec<Interval> = exec.intervals_interleaved().into_iter().cloned().collect();
    let specs = tenancy_specs(TENANTS, N, seed);
    // What a user pays before the first event: the registry itself.
    let t0 = Instant::now();
    let registry = PredicateRegistry::new(&tree, &specs);
    let registry_build_s = t0.elapsed().as_secs_f64();
    drop(registry);
    let mut naive = PredicateRegistry::new(&tree, &specs[..CHECKED]);
    for iv in &stream {
        naive.ingest_broadcast(iv.clone());
    }
    let reference = specs[..CHECKED]
        .iter()
        .map(|s| naive.tenant(s.id).solution_sequence())
        .collect();
    Prepared {
        tree,
        specs,
        stream,
        reference,
        registry_build_s,
        tree_build_us,
        workload_build_s,
    }
}

struct Pass {
    ingest_ns: Vec<u64>,
    registry: PredicateRegistry,
}

fn pass(prep: &Prepared, tracer: &mut Tracer) -> (f64, Pass) {
    let mut registry = PredicateRegistry::new(&prep.tree, &prep.specs);
    let input = prep.stream.clone();
    let mut ingest_ns = Vec::with_capacity(input.len());
    let t0 = Instant::now();
    let mut last = t0;
    for (k, iv) in input.into_iter().enumerate() {
        tracer.span("core.registry.ingest", k as u64, |_| registry.ingest(iv));
        let now = Instant::now();
        ingest_ns.push((now - last).as_nanos() as u64);
        last = now;
    }
    (
        (last - t0).as_secs_f64(),
        Pass {
            ingest_ns,
            registry,
        },
    )
}

fn check(prep: &Prepared, registry: &PredicateRegistry, out: &mut Outcome) {
    let expected = (TENANTS * ROUNDS) as u64;
    let got = registry.total_detections() as u64;
    out.checks
        .tally(expected, expected.abs_diff(got).min(expected), || {
            format!("{got} detections, expected {expected} (every tenant, every round)")
        });
    for (spec, reference) in prep.specs.iter().zip(&prep.reference) {
        out.checks.check(
            registry.tenant(spec.id).solution_sequence() == *reference,
            || {
                format!(
                    "tenant {:?} diverged from the ingest_broadcast registry",
                    spec.id
                )
            },
        );
    }
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (prep, setup_s) = repeat_setup(|| Ok(prepare(cfg.seed)))?;
    let events = prep.stream.len() as f64;

    let mut off = Tracer::new(false, Instant::now());
    let passes = timed_passes(cfg.pass_budget(), 1, |_| {
        let (wall, p) = pass(&prep, &mut off);
        check(&prep, &p.registry, &mut out);
        let stats = p.registry.stats();
        let billed = p.registry.billed_cost();
        Ok((wall, (p.ingest_ns, stats, billed)))
    })?;
    let walls: Vec<f64> = passes.iter().map(|(w, _)| *w).collect();
    let mid = &passes[quartile_pass(&passes)];
    let (_, stats, billed) = &mid.1;
    out.set("intervals_per_s", events / mid.0);
    // Latency here is one `ingest` call: event in, every tenant's
    // detections it causes out. One latency window per pass.
    let ingest_us: Vec<f64> = passes
        .iter()
        .flat_map(|(_, (ns, _, _))| ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect();
    let lat = tail(&ingest_us, prep.stream.len());
    out.set_latency(&lat);
    out.set("billed_cmp_per_interval", *billed as f64 / events);
    out.set(
        "core.registry.touch_ratio",
        stats.tenant_touches as f64 / (events * TENANTS as f64),
    );
    out.set("core.registry.build_s", prep.registry_build_s);
    out.set("tree.build_us", prep.tree_build_us);
    out.set("workload.build_s", prep.workload_build_s);
    let samples = ingest_us.len();
    let untraced_wall = mid.0;
    drop(passes);

    if cfg.traced {
        let mut tracer = Tracer::new(true, Instant::now());
        let traced = timed_passes(cfg.pass_budget(), 1, |_| {
            let (wall, p) = pass(&prep, &mut tracer);
            check(&prep, &p.registry, &mut out);
            Ok((wall, ()))
        })?;
        let wall = traced[quartile_pass(&traced)].0;
        out.set(
            "harness.trace_overhead_pct",
            overhead_pct(wall, untraced_wall),
        );
        out.set("core.registry.ingest_ns", wall * 1e9 / events);
        // Tenant 0's engines by hand: the per-call cost a narrow tree pays.
        let tree_replay = replay::engine_tree(&prep.tree, &prep.stream, &mut tracer);
        out.checks
            .check(tree_replay.detections == prep.reference[0], || {
                "hand-driven engine tree diverged from tenant 0".into()
            });
        out.set_engine_calls(&tree_replay);
        out.set(
            "vclock.compare_ns",
            replay::vclock_compare(&prep.stream, 200_000, &mut tracer).mean_ns(),
        );
        out.spans = tracer.into_spans();
    }
    out.finish(&setup_s, &walls, samples);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_a_function_of_the_seed_and_stay_in_range() {
        let a = tenancy_specs(50, N, 7);
        assert_eq!(a, tenancy_specs(50, N, 7));
        assert_ne!(a, tenancy_specs(50, N, 11));
        assert!(a[0].members.is_empty(), "tenant 0 is the full predicate");
        for spec in &a[1..] {
            assert!((4..=16).contains(&spec.members.len()));
            assert!(spec.members.iter().all(|p| p.index() < N));
        }
    }
}
