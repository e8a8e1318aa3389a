//! End-to-end driver of the citesys benchmark (see ../README.md).
//!
//! `e2e --citesys <bin> --layers <bin> --out <dir>
//!      [--workload <name>] [--seed <n>] [--seconds <s>] [--trace 0|1] [--smoke]`
//!
//! Prints one JSON line per run with every metric's value, unit and
//! sample count; when `--workload` names one workload, the last line is
//! the short form the benchmark contract asks for.

mod gen;
mod report;
mod run;
mod server;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{Paths, Plan, Workload};

struct Args {
    citesys: PathBuf,
    layers: PathBuf,
    out: PathBuf,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        citesys: PathBuf::new(),
        layers: PathBuf::new(),
        out: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<f64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--citesys" => args.citesys = value.into(),
            "--layers" => args.layers = value.into(),
            "--out" => args.out = value.into(),
            "--workload" if value == "all" => args.workload = None,
            "--workload" => {
                args.workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0.0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.citesys.as_os_str().is_empty() || args.out.as_os_str().is_empty() {
        return Err("--citesys and --out are required (run.sh passes them)".to_string());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = server::sweep_previous_runs(&args.out) {
        eprintln!("e2e: {e}");
        return ExitCode::from(2);
    }
    let plan = if args.smoke {
        // Same code paths, one second of each.
        Plan {
            seconds: 1.0,
            warm_seconds: 0.3,
            warm_commits: 4,
            tail_txns: 6,
            setups: 1,
            restarts: 1,
        }
    } else {
        Plan {
            seconds: args.seconds,
            warm_seconds: 2.0,
            warm_commits: 48,
            tail_txns: 40,
            // The traced run gates nothing: one set-up, one restart.
            setups: if args.trace { 1 } else { 3 },
            restarts: if args.trace { 1 } else { 3 },
        }
    };
    let workloads: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut all_correct = true;
    let mut last_short = String::new();
    for workload in workloads {
        let work = args.out.join(format!("work-{}", std::process::id()));
        let work = match server::WorkDir::create(work) {
            Ok(work) => work,
            Err(e) => {
                eprintln!("e2e: {}: {e}", args.out.display());
                return ExitCode::from(1);
            }
        };
        let paths = Paths {
            citesys: args.citesys.clone(),
            work: work.0.clone(),
        };
        let outcome = match run::run(&paths, workload, args.seed, &plan, args.trace) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("e2e: {} failed: {e}", workload.name());
                return ExitCode::from(1);
            }
        };
        let result = if args.trace {
            report::traced(&outcome, workload, &args.layers, &args.out, plan.seconds)
        } else {
            report::end_to_end(&outcome)
        };
        for e in &outcome.errors {
            eprintln!("e2e: {}: {e}", workload.name());
        }
        all_correct &= result.correct;
        println!(
            "{}",
            result.long_json(workload.name(), args.seed, plan.seconds, args.trace)
        );
        last_short = result.short_json();
    }
    if args.workload.is_some() {
        println!("{last_short}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
