//! `repro` — regenerates every experiment table (E1–E12).
//!
//! Usage:
//! ```text
//! cargo run -p citesys-bench --release --bin repro            # all, full sizes
//! cargo run -p citesys-bench --release --bin repro -- --quick # smaller sweeps
//! cargo run -p citesys-bench --release --bin repro -- e4 e5   # selected ids
//! ```

use citesys_bench::EXPERIMENTS;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let selected: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.to_lowercase())
        .collect();

    // Resolve every id before running anything: a typo fails the run
    // up front instead of after minutes of earlier experiments.
    let mut chosen = Vec::new();
    for id in &selected {
        match EXPERIMENTS.iter().find(|(name, _)| name == id) {
            Some(entry) => chosen.push(*entry),
            None => {
                eprintln!("unknown experiment id: {id}");
                std::process::exit(2);
            }
        }
    }
    if chosen.is_empty() {
        chosen.extend_from_slice(EXPERIMENTS);
    }

    println!("# citesys experiment reproduction\n");
    println!(
        "mode: {} | ids: {}\n",
        if quick { "quick" } else { "full" },
        if selected.is_empty() {
            "all".to_string()
        } else {
            selected.join(", ")
        }
    );
    for (_, table) in chosen {
        println!("{}", table(quick));
    }
}
