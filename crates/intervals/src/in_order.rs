//! [`InOrder`]: one sender's interval stream, put back in sequence order.

use crate::Interval;
use std::collections::BTreeMap;

/// One sender's intervals, delivered in [`Interval::seq`] order from 0.
///
/// Algorithm 1's queues assume each sender's intervals arrive in the order
/// they were produced (that is what makes queue heads "earliest
/// remaining", Theorem 2), and channels may reorder and duplicate. So
/// early arrivals wait, stale duplicates are dropped, and
/// [`next`](InOrder::next) — the first sequence number not yet delivered —
/// is the cumulative-ack position.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct InOrder {
    /// The next sequence number to deliver; everything below it was
    /// delivered or skipped.
    next: u64,
    /// Arrivals ahead of `next`, by sequence number.
    early: BTreeMap<u64, Interval>,
}

impl InOrder {
    /// The next sequence number to deliver: the cumulative-ack position.
    pub fn next(&self) -> u64 {
        self.next
    }

    /// Restarts the stream at `seq` if that is ahead of it: the sender says
    /// that every earlier number went elsewhere (a re-report after a tree
    /// repair, where the sender's previous parent consumed them) and will
    /// never arrive here. Early arrivals below `seq` are dropped with them.
    pub fn resync(&mut self, seq: u64) {
        if seq > self.next {
            self.next = seq;
            self.early.retain(|&s, _| s >= seq);
        }
    }

    /// Takes one arrival and returns what is now deliverable, in order:
    /// nothing for a stale duplicate or an early arrival (kept until the
    /// gap fills), else the arrival and every kept one it makes consecutive.
    pub fn accept(&mut self, interval: Interval) -> Vec<Interval> {
        match interval.seq.cmp(&self.next) {
            std::cmp::Ordering::Less => Vec::new(),
            std::cmp::Ordering::Greater => {
                self.early.insert(interval.seq, interval);
                Vec::new()
            }
            std::cmp::Ordering::Equal => {
                let mut ready = vec![interval];
                self.next += 1;
                while let Some(iv) = self.early.remove(&self.next) {
                    ready.push(iv);
                    self.next += 1;
                }
                ready
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftscp_vclock::{ProcessId, VectorClock};
    use proptest::prelude::*;

    fn iv(seq: u64) -> Interval {
        let clock = VectorClock::from_components(vec![seq as u32]);
        Interval::local(ProcessId(0), seq, clock.clone(), clock)
    }

    proptest! {
        /// A permutation of `0..n` with duplicates mixed in and one
        /// arrival carrying a resync to its own number (as a re-report
        /// does) is delivered once each and in order: everything below
        /// the stream position at the jump, then everything from the jump
        /// on. The ack position ends at `n`.
        #[test]
        fn a_shuffled_stream_is_delivered_once_in_order(
            (n, keys, dups, jump) in (1u64..48).prop_flat_map(|n| (
                Just(n),
                proptest::collection::vec(proptest::num::u32::ANY, n as usize),
                proptest::collection::vec((0..n, 0..=n as usize), 0..16),
                0..n as usize,
            ))
        ) {
            let mut order: Vec<u64> = (0..n).collect();
            order.sort_by_key(|&seq| (keys[seq as usize], seq));
            let jump_seq = order[jump];
            let mut arrivals: Vec<(u64, bool)> =
                order.iter().map(|&seq| (seq, seq == jump_seq)).collect();
            for &(seq, at) in dups.iter().rev() {
                arrivals.insert(at.min(arrivals.len()), (seq, false));
            }
            let mut s = InOrder::default();
            let mut delivered = Vec::new();
            let mut before_jump = None;
            for (seq, resync) in arrivals {
                if resync {
                    before_jump = Some(s.next());
                    s.resync(seq);
                }
                delivered.extend(s.accept(iv(seq)).into_iter().map(|iv| iv.seq));
            }
            let kept = before_jump.expect("the jump arrives");
            let want: Vec<u64> = (0..n).filter(|&seq| seq < kept || seq >= jump_seq).collect();
            prop_assert_eq!(delivered, want);
            prop_assert_eq!(s.next(), n);
            // An early copy of the jump's own number outlives the jump; any
            // other early arrival was delivered or dropped with the gap.
            prop_assert!(s.early.keys().all(|&seq| seq == jump_seq));
        }
    }
}
