//! # citesys-storage — the relational substrate
//!
//! An in-memory relational store purpose-built for the citation engine of
//! *“Data Citation: A Computational Challenge”* (Davidson et al., PODS
//! 2017):
//!
//! * typed schemas with key constraints ([`schema`], [`relation`]),
//! * set-semantics relations with per-column hash indexes,
//! * a conjunctive-query evaluator that reports **every binding** per
//!   output tuple ([`eval`]) — the input to the paper's Definitions
//!   2.1/2.2,
//! * semi-naive delta rules for maintaining materialized views under
//!   single-tuple updates ([`delta`]),
//! * multi-version storage with snapshots for **fixity** ([`versioned`]),
//! * SHA-256 content digests over canonical serializations ([`fixity`]).
//!
//! ## Quick example
//!
//! ```
//! use citesys_cq::{parse_query, ValueType};
//! use citesys_storage::{Database, RelationSchema, tuple};
//!
//! let mut db = Database::new();
//! db.create_relation(RelationSchema::from_parts(
//!     "Family",
//!     &[("FID", ValueType::Int), ("FName", ValueType::Text), ("Desc", ValueType::Text)],
//!     &[0],
//! )).unwrap();
//! db.insert("Family", tuple![11, "Calcitonin", "C1"]).unwrap();
//!
//! let q = parse_query("Q(N) :- Family(F, N, D)").unwrap();
//! let answer = citesys_storage::evaluate(&db, &q).unwrap();
//! assert_eq!(answer.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod csv;
pub mod database;
pub mod delta;
pub mod durability;
pub mod error;
pub mod eval;
pub mod fixity;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod versioned;

pub use csv::{
    csv_header, csv_quote, from_csv, load_csv, parse_csv_header, parse_csv_record,
    render_csv_value, to_csv, RecordScanner,
};
pub use database::Database;
pub use delta::{Changeset, NetChanges};
pub use durability::{
    manifest_version, CheckpointData, DurabilityError, DurableStore, FailingAppends, FileStore,
    MemStore, Recovery, Wal, WalRecord, ANCHORS_DIR, FORMAT_VERSION,
};
pub use error::StorageError;
pub use eval::{evaluate, explain, AnswerRow, Binding, PlanStep, QueryAnswer};
pub use fixity::{digest_answer, digest_database, sha256, Digest, Sha256};
pub use relation::Relation;
pub use schema::{Attribute, RelationSchema};
pub use tuple::Tuple;
pub use versioned::{Op, VersionedDatabase};
