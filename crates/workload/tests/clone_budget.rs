//! The generator's clock-copy budget: an execution stores the two bounds of
//! each interval and the generator copies one stamp per message sent, so
//! building one may clone at most `2 · intervals + messages` clocks. A
//! generator that kept a stamp per event would exceed it several times over.

use ftscp_vclock::{clone_stats, reset_clone_stats};
use ftscp_workload::RandomExecution;

#[test]
fn generation_copies_at_most_bounds_and_message_stamps() {
    let shapes = [
        RandomExecution::builder(64)
            .intervals_per_process(24)
            .seed(7),
        RandomExecution::builder(7)
            .intervals_per_process(300)
            .noise_events(4)
            .noise_msg_prob(0.8)
            .seed(11),
        RandomExecution::builder(32)
            .intervals_per_process(10)
            .skip_prob(0.3)
            .solo_prob(0.2)
            .seed(3),
    ];
    for gen in shapes {
        reset_clone_stats();
        let exec = gen.clone().build();
        let (logical, deep) = clone_stats();
        let budget = 2 * exec.total_intervals() as u64 + exec.messages;
        assert!(
            deep <= budget && logical <= budget,
            "{gen:?}: {deep} deep copies and {logical} clones, budget {budget}"
        );
    }
}
