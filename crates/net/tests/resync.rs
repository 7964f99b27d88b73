//! ConnCodec resync over real sockets: a mid-stream disconnect leaves the
//! receiving side with a cold decoder, and the first interval frame on
//! the replacement connection must be standalone (cold-decodable) or the
//! stream is lost. These tests force that path on both stream kinds —
//! the child→parent report uplink and the client→node event feed. Two
//! cover a parent that never completes the handshake: no `HelloAck`, no
//! session, and the leaf re-dials. The last two cover frames a node
//! refuses outright, closing that one connection only: interval frames
//! that are not of the delta family at all, and the retired detect
//! subtags 3–6.

use ftscp_core::deploy::{DeployConfig, Deployment as SimDeployment};
use ftscp_core::protocol::ConnCodec;
use ftscp_core::report::GlobalDetection;
use ftscp_net::client::EventClient;
use ftscp_net::frame::{frame_bytes, read_frame, FrameBuffer};
use ftscp_net::loopback::{sockets_available, Deployment, LoopbackConfig};
use ftscp_net::wire::{decode_msg, encode_msg};
use ftscp_net::{spawn, NetMsg, NodeConfig, PeerKind, PROTO_VERSION};
use ftscp_simnet::{LinkModel, SimConfig, SimTime, Topology};
use ftscp_tree::SpanningTree;
use ftscp_vclock::ProcessId;
use ftscp_workload::{Execution, RandomExecution};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn coverages(dets: &[GlobalDetection]) -> Vec<Vec<(u32, u64)>> {
    dets.iter()
        .map(|d| d.coverage.iter().map(|r| (r.process.0, r.seq)).collect())
        .collect()
}

fn simnet_detections(tree: &SpanningTree, exec: &Execution, seed: u64) -> Vec<GlobalDetection> {
    let topo = Topology::dary_tree(exec.n, 2, 1);
    let config = DeployConfig {
        sim: SimConfig {
            seed,
            link: LinkModel {
                min_delay: SimTime(200),
                max_delay: SimTime(4_000),
                drop_prob: 0.0,
            },
        },
        ..Default::default()
    };
    let mut dep = SimDeployment::new(topo, tree.clone(), exec, config);
    dep.run();
    dep.detections()
}

/// Severs `p`'s uplink, retrying every millisecond until a live socket
/// was actually shut down: a drop that lands before the uplink is up is a
/// no-op, and on a loaded box "a few milliseconds after launch" can be
/// before.
fn sever_uplink(dep: &Deployment, p: ProcessId) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !dep.drop_uplink(p) {
        assert!(
            Instant::now() < deadline,
            "the uplink of {p:?} never came up to be severed"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Severing the report uplink mid-stream: the leaf reconnects, its tx
/// codec restarts cold, and the frame counters prove the resync actually
/// used a standalone frame on the new connection (while the bulk of the
/// stream stayed on the cheaper stateful encoding).
#[test]
fn uplink_resyncs_with_standalone_frame_after_disconnect() {
    if !sockets_available() {
        eprintln!("skipping: loopback sockets unavailable in this environment");
        return;
    }
    let exec = RandomExecution::builder(2)
        .intervals_per_process(8)
        .skip_prob(0.0)
        .seed(11)
        .build();
    let tree = SpanningTree::balanced_dary(2, 2); // root 0 — leaf 1
    let sim = simnet_detections(&tree, &exec, 11);

    let config = LoopbackConfig {
        event_pacing: Duration::from_millis(4),
        ..Default::default()
    };
    let mut dep = Deployment::launch(&tree, &config).expect("launch failed");
    dep.feed_execution(&exec, config.event_pacing);
    // Three events' worth of pacing, so the first connection has carried
    // interval frames by the time it is cut.
    std::thread::sleep(Duration::from_millis(12));
    sever_uplink(&dep, ProcessId(1));
    let report = dep.finish(&config).expect("loopback run failed");
    assert!(!report.timed_out, "run did not recover from the drop");

    let leaf = &report.node_reports[1];
    assert!(leaf.reconnects >= 1, "uplink never reconnected");
    assert!(
        leaf.standalone_frames_sent >= 2,
        "expected a standalone frame per connection (initial + resync), saw {}",
        leaf.standalone_frames_sent
    );
    assert!(
        leaf.interval_frames_sent > leaf.standalone_frames_sent,
        "the steady state should use stateful delta frames \
         ({} interval frames, {} standalone)",
        leaf.interval_frames_sent,
        leaf.standalone_frames_sent
    );
    assert_eq!(coverages(&sim), coverages(&report.detections));
}

/// Severing the event feed mid-stream: the replacement client starts a
/// fresh tx codec against the node's fresh per-connection rx codec. If
/// either side wrongly carried delta state across the reconnect, the
/// first frame would fail to decode, the connection would be killed, and
/// the detections below would be missing.
#[test]
fn event_feed_resumes_on_a_fresh_connection() {
    if !sockets_available() {
        eprintln!("skipping: loopback sockets unavailable in this environment");
        return;
    }
    let exec = RandomExecution::builder(2)
        .intervals_per_process(6)
        .skip_prob(0.0)
        .seed(13)
        .build();
    let tree = SpanningTree::balanced_dary(2, 2);
    let sim = simnet_detections(&tree, &exec, 13);

    let config = LoopbackConfig::default();
    let dep = Deployment::launch(&tree, &config).expect("launch failed");

    // Process 0 feeds normally.
    let p0 = ProcessId(0);
    let mut c0 = EventClient::connect(dep.addr(p0), p0).expect("connect p0");
    for iv in exec.intervals_of(p0) {
        c0.send_event(iv).expect("send p0");
    }
    c0.fin().expect("fin p0");

    // Process 1's feed dies mid-stream (connection dropped WITHOUT Fin,
    // mid-delta-stream) and resumes on a brand-new connection.
    let p1 = ProcessId(1);
    let intervals = exec.intervals_of(p1);
    let (first_half, second_half) = intervals.split_at(intervals.len() / 2);
    let mut c1 = EventClient::connect(dep.addr(p1), p1).expect("connect p1");
    for iv in first_half {
        c1.send_event(iv).expect("send p1 first half");
    }
    drop(c1); // orderly TCP close delivers what was written, then EOF
              // Give the node time to drain the dead connection before the
              // replacement starts, so events stay in per-process order.
    std::thread::sleep(Duration::from_millis(150));
    let mut c1 = EventClient::connect(dep.addr(p1), p1).expect("reconnect p1");
    for iv in second_half {
        c1.send_event(iv).expect("send p1 second half");
    }
    c1.fin().expect("fin p1");

    let report = dep.finish(&config).expect("loopback run failed");
    assert!(!report.timed_out, "run did not complete after feed resume");
    assert_eq!(coverages(&sim), coverages(&report.detections));
}

/// A stranger connects to the node at `addr`, handshakes properly as an
/// event client for `claim`, sends one frame with `payload` — and must be
/// hung up on.
fn stranger_is_hung_up_on(addr: SocketAddr, claim: ProcessId, payload: &[u8]) {
    let mut stranger = TcpStream::connect(addr).expect("connect stranger");
    stranger
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let hello = NetMsg::Hello {
        node: claim,
        kind: PeerKind::Client,
        proto: PROTO_VERSION,
    };
    let hello = encode_msg(&hello, &mut ConnCodec::new());
    stranger.write_all(&frame_bytes(&hello)).expect("hello");
    let mut fb = FrameBuffer::new();
    let ack = read_frame(&mut stranger, &mut fb).expect("read ack");
    let ack = decode_msg(&ack.expect("ack frame"), &mut ConnCodec::new());
    assert!(matches!(ack, Ok(NetMsg::HelloAck { .. })));
    stranger
        .write_all(&frame_bytes(payload))
        .expect("refused frame");
    let hung_up = read_frame(&mut stranger, &mut fb).expect("EOF, not a timeout");
    assert_eq!(
        hung_up, None,
        "the node must close the stranger's connection"
    );
}

/// Leaf 1 under a fake parent 0 that never completes the handshake —
/// it says nothing to `Hello`, or answers `answer` on its behalf. The
/// session must never come up: the leaf's one interval is not routed to
/// the fake, the first connection carries only `Hello` before the leaf
/// hangs up, and the leaf dials again within its connect timeout plus
/// backoff.
fn unanswered_parent_is_dropped_and_redialed(answer: Option<ProcessId>) {
    let deadline = Instant::now() + Duration::from_millis(2_500);
    let fake = TcpListener::bind("127.0.0.1:0").expect("bind fake");
    let parent = (ProcessId(0), fake.local_addr().expect("fake addr"));
    let mut config = NodeConfig::new(ProcessId(1), Some(parent));
    config.expected_feeds = 1;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind leaf");
    let leaf = spawn(listener, config).expect("spawn leaf");
    let exec = RandomExecution::builder(2)
        .intervals_per_process(1)
        .seed(23)
        .build();
    let mut feed = EventClient::connect(leaf.addr, ProcessId(1)).expect("connect feed");
    feed.send_event(&exec.intervals_of(ProcessId(1))[0])
        .expect("send");

    // The kernel completes the connect; the fake reads nothing until the
    // leaf has dialed again.
    let (mut first, _) = fake.accept().expect("first dial");
    if let Some(node) = answer {
        let ack = encode_msg(&NetMsg::HelloAck { node }, &mut ConnCodec::new());
        first.write_all(&frame_bytes(&ack)).expect("answer");
    }
    fake.set_nonblocking(true).expect("nonblocking");
    while let Err(e) = fake.accept() {
        assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock);
        assert!(Instant::now() < deadline, "the leaf never dialed again");
        std::thread::sleep(Duration::from_millis(5));
    }

    first
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let (mut fb, mut rx, mut got) = (FrameBuffer::new(), ConnCodec::new(), Vec::new());
    while let Some(frame) = read_frame(&mut first, &mut fb).expect("EOF, not a timeout") {
        got.push(decode_msg(&frame, &mut rx).expect("decodes"));
    }
    let hello = NetMsg::Hello {
        node: ProcessId(1),
        kind: PeerKind::Child,
        proto: PROTO_VERSION,
    };
    assert_eq!(got, vec![hello], "Hello, then EOF");
    drop(feed);
    assert_eq!(leaf.finish().reconnects, 0, "no session ever started");
}

#[test]
fn a_parent_that_never_answers_hello_is_dropped_and_redialed() {
    if !sockets_available() {
        eprintln!("skipping: loopback sockets unavailable in this environment");
        return;
    }
    unanswered_parent_is_dropped_and_redialed(None);
}

#[test]
fn a_parent_answering_as_another_node_is_dropped_and_redialed() {
    if !sockets_available() {
        eprintln!("skipping: loopback sockets unavailable in this environment");
        return;
    }
    unanswered_parent_is_dropped_and_redialed(Some(ProcessId(9)));
}

/// A peer that still frames intervals in the retired fixed-width layout
/// (version byte `0x00`) is a corrupt peer like any other: the node hangs
/// up on that one connection and keeps serving everyone else.
#[test]
fn dense_frame_kills_only_its_own_connection() {
    if !sockets_available() {
        eprintln!("skipping: loopback sockets unavailable in this environment");
        return;
    }
    let exec = RandomExecution::builder(2)
        .intervals_per_process(6)
        .skip_prob(0.0)
        .seed(17)
        .build();
    let tree = SpanningTree::balanced_dary(2, 2);
    let sim = simnet_detections(&tree, &exec, 17);
    let config = LoopbackConfig::default();
    let dep = Deployment::launch(&tree, &config).expect("launch failed");

    // Process 0's real feed is half-way through when the stranger shows up.
    let p0 = ProcessId(0);
    let (first_half, second_half) = exec.intervals_of(p0).split_at(3);
    let mut c0 = EventClient::connect(dep.addr(p0), p0).expect("connect p0");
    for iv in first_half {
        c0.send_event(iv).expect("send p0 first half");
    }

    // The stranger sends an `Event` (tag 4) whose interval is dense: u32
    // source, u64 seq, u8 kind, two length-prefixed clocks, u32 coverage
    // count, (u32, u64) entries.
    let iv = &second_half[0];
    let mut event = vec![4u8];
    event.extend_from_slice(&iv.source.0.to_le_bytes());
    event.extend_from_slice(&iv.seq.to_le_bytes());
    event.push(0);
    for clock in [&iv.lo, &iv.hi] {
        event.extend_from_slice(&(clock.len() as u32).to_le_bytes());
        for c in clock.components() {
            event.extend_from_slice(&c.to_le_bytes());
        }
    }
    event.extend_from_slice(&1u32.to_le_bytes());
    event.extend_from_slice(&iv.source.0.to_le_bytes());
    event.extend_from_slice(&iv.seq.to_le_bytes());
    stranger_is_hung_up_on(dep.addr(p0), p0, &event);

    // Everyone else is still served, and the dense interval was not fed.
    for iv in second_half {
        c0.send_event(iv).expect("send p0 second half");
    }
    c0.fin().expect("fin p0");
    let p1 = ProcessId(1);
    let mut c1 = EventClient::connect(dep.addr(p1), p1).expect("connect p1");
    for iv in exec.intervals_of(p1) {
        c1.send_event(iv).expect("send p1");
    }
    c1.fin().expect("fin p1");
    let report = dep.finish(&config).expect("loopback run failed");
    assert!(!report.timed_out, "run did not complete past the stranger");
    assert_eq!(coverages(&sim), coverages(&report.detections));
}

/// Detect subtags 3–6 are retired: they once carried a clairvoyant
/// harness's tree-repair control messages (the bytes below are a root
/// promotion and a child removal as they were laid out), and nothing
/// sends or applies them any more. Acted on from a socket they would let
/// anyone who can connect drop a live child's queue — releasing solutions
/// that never saw its subtree — or promote a root. The node refuses them
/// like any unknown frame and is otherwise untouched.
#[test]
fn control_frames_from_a_stranger_are_refused() {
    if !sockets_available() {
        eprintln!("skipping: loopback sockets unavailable in this environment");
        return;
    }
    let exec = RandomExecution::builder(2)
        .intervals_per_process(6)
        .skip_prob(0.0)
        .seed(19)
        .build();
    let tree = SpanningTree::balanced_dary(2, 2); // root 0 — leaf 1
    let sim = simnet_detections(&tree, &exec, 19);
    let config = LoopbackConfig::default();
    let mut dep = Deployment::launch(&tree, &config).expect("launch failed");

    let root = ProcessId(0);
    let promote_root = [3u8, 6];
    let remove_child_1 = [3u8, 5, 1, 0, 0, 0];
    stranger_is_hung_up_on(dep.addr(root), root, &promote_root);
    stranger_is_hung_up_on(dep.addr(root), root, &remove_child_1);

    dep.feed_execution(&exec, config.event_pacing);
    let report = dep.finish(&config).expect("loopback run failed");
    assert!(!report.timed_out, "run did not complete past the strangers");
    assert_eq!(coverages(&sim), coverages(&report.detections));
}
