//! `ftscp_bench` — the repository's yardstick for *time*.
//!
//! Six named workloads, each generated from `--seed`, each checked
//! against a reference, each reporting the same three end-to-end metrics
//! from an untraced run; `--trace 1` is the separate run that attributes
//! the time to layers. See `README.md` beside this file for every metric
//! and workload by name, the predictions written before measuring, and
//! the public API this binary pins.
//!
//! ```text
//! ftscp_bench [--seed S] [--workload NAME]... [--seconds N]
//!             [--trace 0|1] [--out PATH]
//! ftscp_bench --compare A.json B.json
//! ```
//!
//! The last line of standard output is one JSON object per the benchmark
//! contract: `{"correct", "attempted", "failed", "metrics"}`. The exit
//! code is 0 only when every reference check passed.

mod compare;
mod json;
mod metrics;
mod replay;
mod trace;
mod workloads;

use json::{obj, Json};
use metrics::{end_to_end_units, per_layer_units};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Outcome, RunCfg};

struct Args {
    seed: u64,
    workloads: Vec<String>,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn usage() -> String {
    let mut text = String::from(
        "usage: ftscp_bench [--seed S] [--workload NAME]... [--seconds N] [--trace 0|1] [--out PATH]\n       ftscp_bench --compare A.json B.json\nworkloads:\n",
    );
    for (name, why) in workloads::NAMES.iter().zip(workloads::WHY) {
        text.push_str(&format!("  {name:<12} {why}\n"));
    }
    text
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 7,
        workloads: Vec::new(),
        seconds: 10.0,
        traced: false,
        out: None,
        compare: None,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => {
                args.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--workload" => {
                let name = value(&mut it, flag)?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}"));
                }
                args.workloads.push(name);
            }
            "--seconds" => {
                let s: f64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.traced = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--out" => args.out = Some(value(&mut it, flag)?.into()),
            "--compare" => {
                args.compare = Some((value(&mut it, flag)?.into(), value(&mut it, flag)?.into()));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = workloads::NAMES.iter().map(|s| s.to_string()).collect();
    }
    Ok(args)
}

/// Where trace files go: the build directory, which is never committed.
fn trace_dir() -> PathBuf {
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    base.join("ftscp_bench")
}

fn loadavg_1m() -> Json {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .map_or(Json::Null, Json::Num)
}

fn rustc_version() -> Json {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or(Json::Null, |o| {
            Json::Str(String::from_utf8_lossy(&o.stdout).trim().to_string())
        })
}

fn metric_json(value: f64, unit: &str) -> Json {
    obj(vec![
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

/// The contract line: every end-to-end metric of an untraced run, every
/// per-layer metric of a traced one (0 where the layer is not on the
/// workload's path).
fn contract_line(outcome: &Outcome, traced: bool) -> Json {
    let table: Vec<(&str, &str)> = if traced {
        per_layer_units().collect()
    } else {
        end_to_end_units().collect()
    };
    let metrics = table
        .into_iter()
        .map(|(name, unit)| {
            let value = outcome.values.get(name).copied().unwrap_or(0.0);
            (name.to_string(), metric_json(value, unit))
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(outcome.checks.failed == 0)),
        (
            "attempted",
            Json::Num(outcome.checks.attempted.max(1) as f64),
        ),
        ("failed", Json::Num(outcome.checks.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// The `--out` entry of one workload: everything it measured, by name.
fn report_entry(name: &str, outcome: &Outcome) -> Json {
    let unit_of = |metric: &str| {
        end_to_end_units()
            .chain(per_layer_units())
            .find(|(n, _)| *n == metric)
            .map_or("", |(_, u)| u)
    };
    let strings = |v: &[String]| Json::Arr(v.iter().cloned().map(Json::Str).collect());
    obj(vec![
        ("name", Json::Str(name.into())),
        ("correct", Json::Bool(outcome.checks.failed == 0)),
        ("attempted", Json::Num(outcome.checks.attempted as f64)),
        ("failed", Json::Num(outcome.checks.failed as f64)),
        ("failures", strings(&outcome.checks.failures)),
        ("notes", strings(&outcome.notes)),
        (
            "metrics",
            Json::Obj(
                outcome
                    .values
                    .iter()
                    .map(|(k, v)| (k.to_string(), metric_json(*v, unit_of(k))))
                    .collect(),
            ),
        ),
    ])
}

fn print_table(name: &str, outcome: &Outcome) {
    eprintln!(
        "== {name}: {} ({} checked, {} failed)",
        if outcome.checks.failed == 0 {
            "correct"
        } else {
            "FAILED"
        },
        outcome.checks.attempted,
        outcome.checks.failed
    );
    for (name, unit) in end_to_end_units().chain(per_layer_units()) {
        if let Some(v) = outcome.values.get(name) {
            eprintln!("   {name:<36} {v:>18.4} {unit}");
        }
    }
    for line in outcome.checks.failures.iter().chain(&outcome.notes) {
        eprintln!("   note: {line}");
    }
}

fn run_compare(a: &PathBuf, b: &PathBuf) -> Result<bool, String> {
    let load = |p: &PathBuf| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    compare::compare(&load(a)?, &load(b)?)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprint!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match run_compare(a, b) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(1),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    // The variable silently flips every monitor's default sweep mode; a
    // number measured under it is not a number of the default system.
    if std::env::var_os("FTSCP_SWEEP_THREADS").is_some() {
        eprintln!(
            "FTSCP_SWEEP_THREADS is set: it changes the default sweep mode; unset it to measure"
        );
        return ExitCode::from(2);
    }

    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
    };
    let loadavg = loadavg_1m();
    let mut entries = Vec::new();
    let mut all_correct = true;
    for name in &args.workloads {
        let outcome = workloads::run(name, &cfg).unwrap_or_else(|e| {
            // A workload that could not run at all is a failed workload,
            // not a skipped one.
            let mut o = Outcome::default();
            o.checks.check(false, || e);
            o
        });
        all_correct &= outcome.checks.failed == 0;
        print_table(name, &outcome);
        if args.traced && !outcome.spans.is_empty() {
            let dir = trace_dir();
            let path = dir.join(format!("trace-{name}.json"));
            let written = std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::File::create(&path))
                .and_then(|file| trace::write_json(name, &outcome.spans, file));
            match written {
                Ok(()) => eprintln!(
                    "   trace: {} spans in {}",
                    outcome.spans.len(),
                    path.display()
                ),
                Err(e) => eprintln!("   trace not written to {}: {e}", path.display()),
            }
        }
        entries.push(report_entry(name, &outcome));
        if args.workloads.len() > 1 {
            println!("workload {name}");
        }
        println!("{}", contract_line(&outcome, args.traced).render());
    }

    if let Some(path) = &args.out {
        let report = obj(vec![
            ("bench", Json::Str("ftscp_bench".into())),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("traced", Json::Bool(args.traced)),
            (
                "cores",
                Json::Num(std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)),
            ),
            ("loadavg_1m", loadavg),
            ("rustc", rustc_version()),
            ("workloads", Json::Arr(entries)),
        ]);
        if let Err(e) = std::fs::write(path, report.render_pretty()) {
            eprintln!("{}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
