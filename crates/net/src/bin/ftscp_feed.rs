//! Synthetic event feeder: streams deterministic overlapping intervals
//! into a running `ftscp_node`.
//!
//! One invocation feeds one process's intervals. Round `s` produces the
//! interval `lo = [2s+1; n]`, `hi = [2s+2; n]`, each one higher on the
//! process's own component (`ftscp_net::scale::round_interval`): the
//! intervals of a round pairwise overlap — one global solution per round
//! — while consecutive rounds are strictly ordered and never
//! cross-match. That makes the expected detection
//! sequence of a multi-process run trivially predictable from the
//! command lines alone, which is what a shell-level smoke test needs:
//!
//! ```text
//! ftscp_feed --to 127.0.0.1:7410 --process 0 --n 3 --rounds 30 --pace-ms 100
//! ```
//!
//! With `--pace-ms` the stream stretches over wall-clock time, so faults
//! injected mid-run (a SIGKILLed node) land on live traffic.

use ftscp_net::scale::round_interval;
use ftscp_net::EventClient;
use ftscp_vclock::ProcessId;
use std::net::SocketAddr;
use std::process::exit;
use std::time::Duration;

const USAGE: &str = "\
usage: ftscp_feed --to <addr> --process <id> --n <width> --rounds <r> [--pace-ms <ms>]

  --to <addr>       listen address of the process's ftscp_node
  --process <id>    process id the intervals belong to
  --n <width>       number of processes (vector clock width)
  --rounds <r>      intervals to send (round s: lo=[2s+1;n], hi=[2s+2;n])
  --pace-ms <ms>    delay between intervals (default 0)
";

fn fail(msg: &str) -> ! {
    eprintln!("ftscp_feed: {msg}\n\n{USAGE}");
    exit(2);
}

fn take(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        fail(&format!("{flag} needs a value"));
    }
    args.remove(i);
    Some(args.remove(i))
}

fn req<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str) -> T {
    let v = take(args, flag).unwrap_or_else(|| fail(&format!("{flag} is required")));
    v.parse()
        .unwrap_or_else(|_| fail(&format!("bad value for {flag}: {v}")))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let to: SocketAddr = req(&mut args, "--to");
    let process = ProcessId(req(&mut args, "--process"));
    let n: usize = req(&mut args, "--n");
    let rounds: u64 = req(&mut args, "--rounds");
    let pace = Duration::from_millis(
        take(&mut args, "--pace-ms")
            .map(|v| v.parse().unwrap_or_else(|_| fail("bad --pace-ms")))
            .unwrap_or(0),
    );
    if !args.is_empty() {
        fail(&format!("unrecognized arguments: {args:?}"));
    }

    let mut client = EventClient::connect(to, process).unwrap_or_else(|e| {
        eprintln!("ftscp_feed: connect {to}: {e}");
        exit(1);
    });
    for s in 0..rounds {
        let iv = round_interval(process, s, n);
        if let Err(e) = client.send_event(&iv) {
            eprintln!("ftscp_feed: send round {s}: {e}");
            exit(1);
        }
        if !pace.is_zero() {
            std::thread::sleep(pace);
        }
    }
    if let Err(e) = client.fin() {
        eprintln!("ftscp_feed: fin: {e}");
        exit(1);
    }
    eprintln!(
        "ftscp_feed: process {} fed {rounds} rounds to {to}",
        process.0
    );
}
