//! Standalone monitor node: one process in the detection hierarchy,
//! speaking the ftscp-net TCP protocol.
//!
//! A three-node chain on one machine looks like:
//!
//! ```text
//! ftscp_node --role root     --me 0 --listen 127.0.0.1:7100 --children 1 --level 3
//! ftscp_node --role internal --me 1 --listen 127.0.0.1:7101 \
//!            --parent 127.0.0.1:7100 --parent-id 0 --children 2 --level 2
//! ftscp_node --role leaf     --me 2 --listen 127.0.0.1:7102 \
//!            --parent 127.0.0.1:7101 --parent-id 1
//! ```
//!
//! Each node ingests its own process's intervals through the event
//! endpoint on `--listen` (see `ftscp_net::EventClient`); the run
//! terminates when every expected feed has sent `Fin` and the reports
//! have drained to the root, which then prints its detections.

use ftscp_net::node::{spawn, NodeConfig};
use ftscp_simnet::SimTime;
use ftscp_vclock::ProcessId;
use std::net::{SocketAddr, TcpListener};
use std::process::exit;
use std::time::Duration;

const USAGE: &str = "\
usage: ftscp_node --role root|internal|leaf --me <id> --listen <addr> [options]

required:
  --role root|internal|leaf   position in the monitor tree
  --me <id>                   this node's process id
  --listen <addr>             address for child/client connections

required unless --role root:
  --parent <addr>             parent node's listen address
  --parent-id <id>            parent node's process id

options:
  --children <id,id,...>      child process ids (internal/root)
  --level <n>                 tree level (leaves are 1; default: 1 for
                              leaf, otherwise children count + 1 heuristic
                              is NOT applied — set it explicitly)
  --expected-feeds <n>        event feeds to wait for before Fin (default 1)
  --feeds-none                expect no event feed on this node
  --heartbeat-ms <n>          heartbeat period (default 50, 0 disables)
  --heartbeat-timeout-ms <n>  suspicion timeout (default 500)
  --retransmit-ms <n>         retransmit period (default 25, 0 disables)
  --timeout-secs <n>          max run time before giving up (default 600)
";

fn fail(msg: &str) -> ! {
    eprintln!("ftscp_node: {msg}\n\n{USAGE}");
    exit(2);
}

struct Args(Vec<String>);

impl Args {
    fn take(&mut self, flag: &str) -> Option<String> {
        let i = self.0.iter().position(|a| a == flag)?;
        if i + 1 >= self.0.len() {
            fail(&format!("{flag} needs a value"));
        }
        self.0.remove(i);
        Some(self.0.remove(i))
    }

    fn take_flag(&mut self, flag: &str) -> bool {
        match self.0.iter().position(|a| a == flag) {
            Some(i) => {
                self.0.remove(i);
                true
            }
            None => false,
        }
    }
}

fn parse<T: std::str::FromStr>(flag: &str, v: String) -> T {
    v.parse()
        .unwrap_or_else(|_| fail(&format!("bad value for {flag}: {v}")))
}

fn main() {
    let mut args = Args(std::env::args().skip(1).collect());
    if args.take_flag("--help") || args.take_flag("-h") {
        println!("{USAGE}");
        return;
    }

    let role = args
        .take("--role")
        .unwrap_or_else(|| fail("--role is required"));
    if !matches!(role.as_str(), "root" | "internal" | "leaf") {
        fail(&format!("unknown role: {role}"));
    }
    let me = ProcessId(parse(
        "--me",
        args.take("--me")
            .unwrap_or_else(|| fail("--me is required")),
    ));
    let listen: SocketAddr = parse(
        "--listen",
        args.take("--listen")
            .unwrap_or_else(|| fail("--listen is required")),
    );

    let parent = if role == "root" {
        None
    } else {
        let addr: SocketAddr = parse(
            "--parent",
            args.take("--parent")
                .unwrap_or_else(|| fail("--parent is required for non-root nodes")),
        );
        let id = ProcessId(parse(
            "--parent-id",
            args.take("--parent-id")
                .unwrap_or_else(|| fail("--parent-id is required for non-root nodes")),
        ));
        Some((id, addr))
    };

    let mut config = NodeConfig::new(me, parent);
    if let Some(list) = args.take("--children") {
        config.children = list
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| ProcessId(parse("--children", s.to_string())))
            .collect();
    }
    if role != "leaf" && config.children.is_empty() {
        fail(&format!("--children is required for role {role}"));
    }
    config.level = args
        .take("--level")
        .map(|v| parse("--level", v))
        .unwrap_or(1);
    if role != "leaf" && config.level < 2 {
        fail("--level must be >= 2 for internal/root nodes");
    }
    config.expected_feeds = args
        .take("--expected-feeds")
        .map(|v| parse("--expected-feeds", v))
        .unwrap_or(1);
    if args.take_flag("--feeds-none") {
        config.expected_feeds = 0;
    }

    let hb_ms: u64 = args
        .take("--heartbeat-ms")
        .map(|v| parse("--heartbeat-ms", v))
        .unwrap_or(50);
    config.monitor.heartbeat_period = (hb_ms > 0).then(|| SimTime::from_millis(hb_ms));
    if let Some(v) = args.take("--heartbeat-timeout-ms") {
        config.monitor.suspect_timeout =
            Some(SimTime::from_millis(parse("--heartbeat-timeout-ms", v)));
    }
    let rt_ms: u64 = args
        .take("--retransmit-ms")
        .map(|v| parse("--retransmit-ms", v))
        .unwrap_or(25);
    config.monitor.retransmit_period = (rt_ms > 0).then(|| SimTime::from_millis(rt_ms));
    let timeout = Duration::from_secs(
        args.take("--timeout-secs")
            .map(|v| parse("--timeout-secs", v))
            .unwrap_or(600),
    );

    if !args.0.is_empty() {
        fail(&format!("unrecognized arguments: {:?}", args.0));
    }

    let listener =
        TcpListener::bind(listen).unwrap_or_else(|e| fail(&format!("cannot bind {listen}: {e}")));
    eprintln!("ftscp_node: {role} node {} listening on {listen}", me.0);

    let handle = spawn(listener, config).unwrap_or_else(|e| {
        eprintln!("ftscp_node: spawn failed: {e}");
        exit(1);
    });
    let done = handle.wait_done(timeout);
    if done && role != "root" {
        // Linger briefly so a parent that reconnects right at the end can
        // still be served a re-Fin before this process exits.
        std::thread::sleep(Duration::from_millis(500));
    }
    let report = handle.finish();

    if !done {
        eprintln!("ftscp_node: timed out after {timeout:?} without draining");
    }
    eprintln!(
        "ftscp_node: node {} done — {} detections, {} interval msgs, \
         {} bytes sent, {} bytes received, {} reconnects",
        me.0,
        report.detections.len(),
        report.interval_msgs_sent,
        report.bytes_sent,
        report.bytes_received,
        report.reconnects,
    );
    for det in &report.detections {
        println!(
            "detected at={} index={} coverage={:?}",
            det.at_node.0,
            det.solution.index,
            det.coverage
                .iter()
                .map(|iv| (iv.process.0, iv.seq))
                .collect::<Vec<_>>(),
        );
    }
    exit(if done { 0 } else { 1 });
}
