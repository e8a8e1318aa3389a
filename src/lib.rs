//! # citesys — fine-grained data citation for relational databases
//!
//! A from-scratch implementation of *“Data Citation: A Computational
//! Challenge”* (Davidson, Buneman, Deutch, Milo, Silvello — PODS 2017,
//! DOI 10.1145/3034786.3056123): generate citations for **arbitrary
//! conjunctive queries** over a curated database by rewriting them over
//! owner-declared *citation views* and combining the views' citations with
//! a semiring-style algebra (`·`, `+`, `+R`, `Agg`).
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`cq`] | conjunctive queries, parser, containment, minimization |
//! | [`storage`] | relational store, CQ evaluation, versioning, SHA-256 fixity |
//! | [`rewrite`] | answering queries using views (bucket, MiniCon, plans) |
//! | [`core`] | citation views, the citation algebra ([`CiteExpr`](core::CiteExpr)) and its policies, service, formats |
//! | [`gtopdb`] | synthetic GtoPdb / eagle-i generators and workloads |
//!
//! ## Quickstart
//!
//! The entry point is the owned, `Send + Sync`
//! [`CitationService`](core::CitationService), built once and shared:
//!
//! ```
//! use citesys::core::paper;
//! use citesys::core::{CitationMode, CitationService};
//!
//! let service = CitationService::builder()
//!     .database(paper::paper_database())
//!     .registry(paper::paper_registry())
//!     .mode(CitationMode::Formal)
//!     .build()
//!     .unwrap();
//!
//! let cited = service.cite(&paper::paper_query()).unwrap();
//! assert_eq!(cited.tuples[0].expr().to_string(),
//!     "(CV1(11)·CV3 + CV1(12)·CV3) +R (CV2·CV3)");
//!
//! // Repeated (λ-parameterized) queries reuse the cached rewrite plan:
//! let prepared = service.prepare(&paper::paper_query()).unwrap();
//! let again = prepared.execute().unwrap();
//! assert_eq!(again.rewrite_stats.search_effort(), 0);
//! assert_eq!(again.rewrite_stats.plan_cache_hits, 1);
//! ```
//!
//! Upgrading from an older version? `MIGRATION.md` at the repository
//! root lists what was removed and what to use instead.

#![warn(missing_docs)]

pub mod script;

pub use citesys_core as core;
pub use citesys_cq as cq;
pub use citesys_gtopdb as gtopdb;
pub use citesys_net as net;
pub use citesys_rewrite as rewrite;
pub use citesys_storage as storage;
