//! # citesys-bench — the experiment suite
//!
//! The paper is a vision paper with **no evaluation section**, so there are
//! no tables or figures to re-plot; instead, DESIGN.md §6 derives an
//! experiment per computational concern the paper raises, and this crate
//! regenerates each one:
//!
//! | id | concern (paper §) | module |
//! |----|-------------------|--------|
//! | E1 | §2 worked example correctness | [`e1`] |
//! | E2 | §3 rewriting enumeration cost | [`e2`] |
//! | E3 | Def. 2.2 citation cost vs data size | [`e3`] |
//! | E4 | §3 citation size vs policy | [`e4`] |
//! | E5 | §3 schema-level pruning | [`e5`] |
//! | E6 | §3 fixity / versioning cost | [`e6`] |
//! | E7 | §3 citation evolution (incremental) | [`e7`] |
//! | E8 | §3 view selection for a workload | [`e8`] |
//! | E9 | §2 algebra cost: normalize, size, `+R` choice, per-row atoms | [`e9`] |
//! | E10 | §3 other models (RDF triples) | [`e10`] |
//! | E11 | ablation: rewriting minimization | [`e11`] |
//! | E12 | Reactome pathway domain | [`e12`] |
//! //! //! //! //! //! //! //! //!
//! Run `cargo run -p citesys-bench --release --bin repro` to print every
//! table. Performance numbers live in the repository's `benchmark/`
//! directory; these tables reproduce the paper's concerns.

pub mod table;

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;

pub use table::Table;

/// One experiment: lower-case id and the function that builds its table
/// (`quick` shrinks the sweeps).
pub type Experiment = (&'static str, fn(bool) -> Table);

/// Every experiment, in order — the one list `run_all` and the `repro`
/// binary both iterate.
pub const EXPERIMENTS: &[Experiment] = &[
    ("e1", |_| e1::table()),
    ("e2", e2::table),
    ("e3", e3::table),
    ("e4", e4::table),
    ("e5", e5::table),
    ("e6", e6::table),
    ("e7", e7::table),
    ("e8", |_| e8::table()),
    ("e9", e9::table),
    ("e10", e10::table),
    ("e11", e11::table),
    ("e12", e12::table),
];

/// Runs every experiment in order, returning the rendered tables.
pub fn run_all(quick: bool) -> Vec<Table> {
    EXPERIMENTS.iter().map(|(_, table)| table(quick)).collect()
}
