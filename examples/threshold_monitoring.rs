//! From raw sensor values to predicate detections: the paper intro's
//! `Φ = "x_i > threshold ∧ …"` scenario, plus multi-predicate monitoring.
//!
//! Two conjunctive predicates are watched simultaneously over one tree:
//!   Φ_hot  — every sensor reads above 20 °C (heat episodes)
//!   Φ_low  — every sensor's battery is below 30 % (end-of-life episodes)
//!
//! ```text
//! cargo run --example threshold_monitoring
//! ```

use ftscp::core::{PredicateId, PredicateRegistry, TenantSpec};
use ftscp::tree::SpanningTree;
use ftscp::workload::threshold::{from_series, GossipPattern, SensorFleet};

const HOT: PredicateId = PredicateId(0);
const LOW_BATTERY: PredicateId = PredicateId(1);

fn main() {
    let n = 9;

    // Temperature: hourly heat episodes, occasionally missed by a sensor.
    let temp_fleet = SensorFleet {
        n,
        steps: 96,
        period: 16,
        high_len: 5,
        low_value: 14.0,
        high_value: 27.0,
        noise: 2.0,
        dropout: 0.15,
        seed: 6,
    };
    // Battery: "low" episodes become common late in the trace — model as
    // inverted values against a (100 - battery) > 70 predicate.
    let battery_fleet = SensorFleet {
        n,
        steps: 96,
        period: 24,
        high_len: 8,
        low_value: 40.0,  // = battery 60%: fine
        high_value: 85.0, // = battery 15%: low
        noise: 3.0,
        dropout: 0.05,
        seed: 7,
    };

    let temp_exec = from_series(&temp_fleet.series(), 20.0, GossipPattern::Coordinator);
    let batt_exec = from_series(&battery_fleet.series(), 70.0, GossipPattern::Coordinator);
    println!(
        "temperature: {} intervals; battery: {} intervals",
        temp_exec.total_intervals(),
        batt_exec.total_intervals()
    );

    let tree = SpanningTree::balanced_dary(n, 3);
    let mut registry = PredicateRegistry::new(
        &tree,
        &[TenantSpec::full(HOT), TenantSpec::full(LOW_BATTERY)],
    );
    for iv in temp_exec.intervals_interleaved() {
        registry.feed_tenant(HOT, iv.clone());
    }
    for iv in batt_exec.intervals_interleaved() {
        registry.feed_tenant(LOW_BATTERY, iv.clone());
    }

    println!("\nΦ_hot (all sensors above 20 °C simultaneously):");
    for d in registry.root_solutions(HOT) {
        println!("  episode covering {} sensors", d.covered_processes().len());
    }
    println!("\nΦ_low (all batteries low simultaneously):");
    for d in registry.root_solutions(LOW_BATTERY) {
        println!("  episode covering {} sensors", d.covered_processes().len());
    }

    let hot = registry.root_solutions(HOT).len();
    let low = registry.root_solutions(LOW_BATTERY).len();
    println!(
        "\n{} heat episodes, {} low-battery episodes detected \
         (expected: {} and {} complete episodes)",
        hot,
        low,
        temp_fleet.complete_episodes(),
        battery_fleet.complete_episodes(),
    );
    assert_eq!(hot, temp_fleet.complete_episodes());
    assert_eq!(low, battery_fleet.complete_episodes());
}
