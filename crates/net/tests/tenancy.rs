//! Multi-tenant differential over real sockets: a registry served behind
//! TCP with predicate-tagged batch frames must detect, per tenant,
//! exactly what the in-memory registry detects on the same execution —
//! and the batched uplink must cost fewer bytes than per-predicate
//! framing of the same routed traffic.

use ftscp_core::registry::{PredicateRegistry, TenantSpec};
use ftscp_core::PredicateId;
use ftscp_net::sockets_available;
use ftscp_net::tenancy::run_tenancy;
use ftscp_tree::SpanningTree;
use ftscp_vclock::ProcessId;
use ftscp_workload::RandomExecution;

fn specs() -> Vec<TenantSpec> {
    vec![
        TenantSpec::full(PredicateId(0)),
        TenantSpec::restricted(PredicateId(1), vec![ProcessId(3), ProcessId(10)]),
        TenantSpec::restricted(
            PredicateId(2),
            vec![ProcessId(1), ProcessId(5), ProcessId(6)],
        ),
        TenantSpec::restricted(PredicateId(7), vec![ProcessId(4)]),
    ]
}

#[test]
fn socket_tenancy_matches_in_memory_registry() {
    if !sockets_available() {
        eprintln!("skipping: loopback sockets unavailable in this sandbox");
        return;
    }
    let n = 13;
    let tree = SpanningTree::balanced_dary(n, 3);
    let specs = specs();
    let exec = RandomExecution::builder(n)
        .intervals_per_process(6)
        .seed(41)
        .build();

    let report = run_tenancy(&tree, &specs, &exec).expect("tenancy run over loopback");

    // Reference: the same registry fed in memory through the relevance
    // filter, in canonical interleaved order.
    let mut reference = PredicateRegistry::new(&tree, &specs);
    for iv in exec.intervals_interleaved() {
        reference.ingest(iv.clone());
    }

    assert!(report.total_detections > 0, "the run must detect something");
    assert_eq!(report.solution_sequences.len(), specs.len());
    for (id, seq) in &report.solution_sequences {
        assert_eq!(
            seq,
            &reference.tenant(*id).solution_sequence(),
            "tenant {id:?} diverged socket-vs-memory"
        );
    }

    // The whole point of the batch frame: cheaper than per-predicate
    // uplinks carrying the same routed intervals.
    assert!(
        report.batched_bytes < report.naive_bytes,
        "batched uplink ({}) must beat per-predicate framing ({})",
        report.batched_bytes,
        report.naive_bytes
    );
    assert_eq!(report.events_sent, (n as u64) * 6);
}

#[test]
fn socket_tenancy_single_tenant_degenerates_cleanly() {
    if !sockets_available() {
        eprintln!("skipping: loopback sockets unavailable in this sandbox");
        return;
    }
    let n = 7;
    let tree = SpanningTree::balanced_dary(n, 2);
    let specs = vec![TenantSpec::full(PredicateId(0))];
    let exec = RandomExecution::builder(n)
        .intervals_per_process(4)
        .seed(5)
        .build();
    let report = run_tenancy(&tree, &specs, &exec).expect("tenancy run over loopback");
    let mut reference = PredicateRegistry::new(&tree, &specs);
    for iv in exec.intervals_interleaved() {
        reference.ingest(iv.clone());
    }
    assert_eq!(
        report.solution_sequences[0].1,
        reference.tenant(PredicateId(0)).solution_sequence()
    );
    assert_eq!(report.total_detections, 4);
}
