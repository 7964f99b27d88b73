//! Message/hop/byte accounting.
//!
//! The paper's message-complexity comparison (§IV-A) charges a message that
//! traverses `h` hops as `h` point-to-point messages, "since the
//! communication channels are occupied h times". [`NetMetrics`] therefore
//! tracks both the end-to-end send count and the hop-weighted count; the
//! latter is the series plotted in Figures 4–5.

use crate::NodeId;

/// Per-node accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeMetrics {
    /// Messages this node originated.
    pub sent: u64,
    /// Messages delivered to this node.
    pub received: u64,
    /// Payload bytes this node originated.
    pub bytes_sent: u64,
}

/// Whole-network accounting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetMetrics {
    /// End-to-end sends.
    pub sends: u64,
    /// Hop-weighted message count (each hop of each message counts once) —
    /// the unit of the paper's Eq. (11)/(14) comparison.
    pub hop_messages: u64,
    /// Hop-weighted bytes.
    pub hop_bytes: u64,
    /// Deliveries that completed.
    pub delivered: u64,
    /// Sends dropped because no alive route existed.
    pub undeliverable: u64,
    /// Deliveries dropped because the destination died in flight.
    pub dropped_dead_dst: u64,
    /// Messages lost to per-hop link loss.
    pub lost: u64,
    /// Extra copies scheduled by fault-injected duplication.
    pub duplicated: u64,
    /// Per-node counters.
    pub per_node: Vec<NodeMetrics>,
    /// Per-link traffic: messages that traversed each undirected edge,
    /// indexed by [`Topology::edge_id`](crate::Topology::edge_id). The
    /// paper's §IV-A charges each hop as one channel occupation; this
    /// shows *where* those occupations concentrate — the centralized
    /// algorithm funnels everything through the links around the sink.
    pub edge_load: Vec<u64>,
}

impl NetMetrics {
    /// Fresh metrics for a network of `n` nodes and `edges` links.
    pub fn new(n: usize, edges: usize) -> Self {
        NetMetrics {
            per_node: vec![NodeMetrics::default(); n],
            edge_load: vec![0; edges],
            ..Default::default()
        }
    }

    /// Records an end-to-end send over a `hops`-long route.
    pub fn record_send(&mut self, src: NodeId, hops: usize, bytes: usize) {
        self.sends += 1;
        self.hop_messages += hops as u64;
        self.hop_bytes += (hops * bytes) as u64;
        let nm = &mut self.per_node[src.index()];
        nm.sent += 1;
        nm.bytes_sent += bytes as u64;
    }

    /// Records a completed delivery.
    pub fn record_delivery(&mut self, dst: NodeId) {
        self.delivered += 1;
        self.per_node[dst.index()].received += 1;
    }

    /// Records a send with no usable route.
    pub fn record_undeliverable(&mut self) {
        self.undeliverable += 1;
    }

    /// Records an in-flight message whose destination died.
    pub fn record_dropped_dead(&mut self) {
        self.dropped_dead_dst += 1;
    }

    /// Records a message lost to link-level loss.
    pub fn record_lost(&mut self) {
        self.lost += 1;
    }

    /// Records an extra copy created by fault-injected duplication.
    pub fn record_duplicate(&mut self) {
        self.duplicated += 1;
    }

    /// Records one traversal, in either direction, of the edge with id
    /// `edge`.
    pub fn record_hop(&mut self, edge: usize) {
        self.edge_load[edge] += 1;
    }

    /// Peak per-link load (0 if nothing was sent).
    pub fn max_edge_load(&self) -> u64 {
        self.edge_load.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_weighting() {
        let mut m = NetMetrics::new(3, 0);
        m.record_send(NodeId(0), 3, 100);
        m.record_send(NodeId(1), 1, 50);
        assert_eq!(m.sends, 2);
        assert_eq!(m.hop_messages, 4);
        assert_eq!(m.hop_bytes, 350);
        assert_eq!(m.per_node[0].sent, 1);
        assert_eq!(m.per_node[0].bytes_sent, 100);
    }

    #[test]
    fn edge_load_is_per_edge_and_maxed() {
        let t = crate::Topology::line(3);
        let mut m = NetMetrics::new(3, t.edge_count());
        assert_eq!(m.max_edge_load(), 0);
        // Both directions of a link land on the one counter.
        m.record_hop(t.edge_id(NodeId(2), NodeId(1)).unwrap());
        m.record_hop(t.edge_id(NodeId(1), NodeId(2)).unwrap());
        m.record_hop(t.edge_id(NodeId(0), NodeId(1)).unwrap());
        assert_eq!(m.edge_load, vec![1, 2]);
        assert_eq!(m.max_edge_load(), 2);
    }

    #[test]
    fn delivery_and_drop_counters() {
        let mut m = NetMetrics::new(2, 0);
        m.record_delivery(NodeId(1));
        m.record_undeliverable();
        m.record_dropped_dead();
        assert_eq!(m.delivered, 1);
        assert_eq!(m.per_node[1].received, 1);
        assert_eq!(m.undeliverable, 1);
        assert_eq!(m.dropped_dead_dst, 1);
    }
}
