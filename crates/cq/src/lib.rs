//! # citesys-cq — conjunctive queries for the citation engine
//!
//! This crate implements the query language of *“Data Citation: A
//! Computational Challenge”* (Davidson, Buneman, Deutch, Milo, Silvello —
//! PODS 2017): **conjunctive queries optionally parameterized by
//! λ-variables**, together with the classical reasoning toolkit the paper's
//! rewriting approach relies on:
//!
//! * a Datalog-style parser for the paper's notation
//!   (`λ FID. V1(FID, FName, Desc) :- Family(FID, FName, Desc)`),
//! * the literal grammar ([`literal`]) through which every text in the
//!   system — command lines, queries, the WAL, checkpoints — reads and
//!   writes a constant,
//! * homomorphism search (Chandra–Merlin containment mappings),
//! * containment / equivalence tests and core minimization,
//! * most-general unification (used by the view-rewriting algorithms in
//!   `citesys-rewrite`).
//!
//! ## Quick example
//!
//! ```
//! use citesys_cq::{parse_query, are_equivalent, minimize};
//!
//! let q = parse_query("Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)").unwrap();
//! let r = parse_query("Q(N) :- Family(I, N, D), FamilyIntro(I, T)").unwrap();
//! assert!(are_equivalent(&q, &r));
//!
//! let redundant = parse_query("Q(X) :- R(X, Y), R(X, Z)").unwrap();
//! assert_eq!(minimize(&redundant).body.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod atom;
pub mod chase;
pub mod contain;
pub mod error;
pub mod hom;
pub mod hypergraph;
pub mod literal;
pub mod parse;
pub mod query;
pub mod symbol;
pub mod term;
pub mod unify;
pub mod value;

pub use atom::{Atom, Literal};
pub use chase::{chase_keys, contained_under_keys, equivalent_under_keys, KeyConstraint};
pub use contain::{are_equivalent, is_contained_in, is_minimal, minimize};
pub use error::CqError;
pub use hom::{find_homomorphism, homomorphism_exists};
pub use hypergraph::{gyo, is_acyclic, join_forest, GyoResult};
pub use literal::{scan_quoted, scan_value, split_quoted, write_quoted, write_value};
pub use parse::{parse_program, parse_query};
pub use query::ConjunctiveQuery;
pub use symbol::Symbol;
pub use term::{Substitution, Term};
pub use unify::{mgu, unify_atoms, unify_terms};
pub use value::{Value, ValueType};
