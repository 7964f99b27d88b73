//! DST campaign driver: seeded randomized fault campaigns, seed
//! shrinking, and the exhaustive explorer of the repair protocol.
//!
//! ```text
//! ftscp_dst [--seeds N] [--start-seed S] [--max-seeds M]   # campaign
//! ftscp_dst --shrink SEED [--inject-crash-of NODE]         # minimize a failure
//! ftscp_dst --model-check                                  # explore real cores
//! ```
//!
//! The campaign exits non-zero iff any seed fails; each failing seed is
//! printed with a `--shrink` invocation to reproduce and minimize it.
//! `--inject-crash-of` wires a deliberate fake violation into the
//! verifier — the end-to-end test hook for the shrinker itself.
//!
//! `--model-check` explores every row of `explore::MATRIX` on real
//! `MonitorCore`s, prints each row's state count, failure classes and
//! their shortest traces, and exits non-zero if any row's classes differ
//! from its expected ones (in either direction) or a search truncated.
//! Each row ends with its own wall time (`  wall … s`) and the run with
//! the total (`wall … s`); every other line is byte-stable.

use ftscp_dst::campaign::{run_campaign, run_case, CampaignCase, ViolationHook};
use ftscp_dst::explore::{explore, MATRIX};
use ftscp_dst::shrink::{render_regression, shrink_case};
use ftscp_simnet::NodeId;
use std::time::Instant;

struct Args {
    seeds: usize,
    start_seed: u64,
    max_seeds: Option<usize>,
    shrink: Option<u64>,
    inject_crash_of: Option<u32>,
    model_check: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            seeds: 1000,
            start_seed: 0,
            max_seeds: None,
            shrink: None,
            inject_crash_of: None,
            model_check: false,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: ftscp_dst [--seeds N] [--start-seed S] [--max-seeds M]\n\
         \x20      ftscp_dst --shrink SEED [--inject-crash-of NODE]\n\
         \x20      ftscp_dst --model-check   # explore real MonitorCores"
    );
    std::process::exit(2);
}

fn next_value<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>) -> T {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage())
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => args.seeds = next_value(&mut it),
            "--start-seed" => args.start_seed = next_value(&mut it),
            "--max-seeds" => args.max_seeds = Some(next_value(&mut it)),
            "--shrink" => args.shrink = Some(next_value(&mut it)),
            "--inject-crash-of" => args.inject_crash_of = Some(next_value(&mut it)),
            "--model-check" => args.model_check = true,
            _ => usage(),
        }
    }
    args
}

fn model_check() -> i32 {
    let started = Instant::now();
    let mut ok = true;
    for row in MATRIX {
        let row_started = Instant::now();
        let report = explore(row);
        let classes: Vec<_> = report.found.keys().copied().collect();
        let verdict = match (report.truncated, classes == row.expect) {
            (true, _) => "TRUNCATED",
            (false, true) => "ok",
            (false, false) => "UNEXPECTED",
        };
        println!(
            "model-check: {}: {} states, verdict {classes:?} {verdict}",
            row.name, report.states
        );
        for (class, trace) in &report.found {
            println!("  {class:?}: {}", trace.join(" -> "));
        }
        println!("  wall {:.1} s", row_started.elapsed().as_secs_f64());
        ok &= verdict == "ok";
    }
    let summary = ["verdict matrix DIVERGED", "all verdicts as expected"];
    println!("model-check: {}", summary[usize::from(ok)]);
    println!("wall {:.1} s", started.elapsed().as_secs_f64());
    i32::from(!ok)
}

fn main() {
    let args = parse_args();
    let hook = args
        .inject_crash_of
        .map(|v| ViolationHook::CrashOf(NodeId(v)));

    if args.model_check {
        std::process::exit(model_check());
    }

    if let Some(seed) = args.shrink {
        let case = CampaignCase::from_seed(seed);
        let fails = |c: &CampaignCase| !run_case(c, hook.as_ref()).violations.is_empty();
        if !fails(&case) {
            println!("seed {seed} passes — nothing to shrink");
            std::process::exit(0);
        }
        let report = run_case(&case, hook.as_ref());
        println!("seed {seed} fails:");
        for v in &report.violations {
            println!("  - {v}");
        }
        let shrunk = shrink_case(&case, &fails);
        println!(
            "shrunk: n={} degree={} rounds={} plan_ops={} (from n={} rounds={} plan_ops={})",
            shrunk.n,
            shrunk.degree,
            shrunk.rounds,
            shrunk.plan.len(),
            case.n,
            case.rounds,
            case.plan.len()
        );
        println!("--- regression test ---");
        print!("{}", render_regression(&shrunk));
        std::process::exit(1);
    }

    let count = args.max_seeds.map_or(args.seeds, |m| args.seeds.min(m));
    let summary = run_campaign(args.start_seed, count, hook.as_ref());
    let failures = summary.failures();
    for report in &failures {
        println!("seed {} FAILED:", report.seed);
        for v in &report.violations {
            println!("  - {v}");
        }
        println!("  reproduce: ftscp_dst --shrink {}", report.seed);
    }
    println!(
        "campaign: {} seeds [{}..{}), {} failures, aggregate fingerprint {:#018x}, covered {}/{}",
        count,
        args.start_seed,
        args.start_seed + count as u64,
        failures.len(),
        summary.aggregate,
        summary.covered(),
        count
    );
    std::process::exit(i32::from(!failures.is_empty()));
}
