//! # citesys-ingest — streaming bulk ingestion & the dataset registry
//!
//! The citation contract only matters if curated databases can get *into*
//! the system without a forklift. This crate is the ingestion vertical:
//!
//! | module | contents |
//! |--------|----------|
//! | [`reader`] | incremental [`CsvReader`]: typed tuple batches from any [`std::io::BufRead`] source, never holding the dump in memory; records come from [`citesys_storage::RecordScanner`], the scanner `from_csv` also runs |
//! | [`jsonl`] | [`JsonlReader`]: the same batch contract over line-delimited JSON (schema line + value objects), parsed by a hermetic in-tree scanner |
//! | [`manifest`] | the `datasets.lock` registry ([`DatasetManifest`]): `citesys-datasets v1` text codec pinning per-source SHA-256, relation fixity and the commit version range, plus [`manifest::verify_sources`] tamper detection |
//! | [`audit`] | append-only audit log (`datasets.audit`): who loaded what, when, into which version range |
//!
//! Batches are sized by [`IngestConfig::batch_size`] and are meant to be
//! committed through the normal changeset path (stage_batch / delta
//! maintenance / WAL), so a bulk load looks like ordinary commits to
//! every layer above — views stay warm, replicas follow, recovery works.
//!
//! ## Quickstart
//!
//! ```
//! use citesys_ingest::{CsvReader, IngestConfig};
//!
//! let csv = "\"FID:int\",\"FName:text\"\n1,\"Calcitonin\"\n2,\"Dopamine\"\n";
//! let cfg = IngestConfig::default();
//! let mut r = CsvReader::new("Family", Some(&[0]), csv.as_bytes(), &cfg).unwrap();
//! assert_eq!(r.schema().arity(), 2);
//! let mut total = 0;
//! while let Some(batch) = r.next_batch().unwrap() {
//!     total += batch.len();
//! }
//! assert_eq!(total, 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod audit;
pub mod jsonl;
pub mod manifest;
pub mod reader;

mod error;

pub use audit::{append_audit, read_audit, AuditRecord, AUDIT_FILE};
pub use error::IngestError;
pub use jsonl::JsonlReader;
pub use manifest::{
    hash_file, manifest_path, verify_sources, DatasetEntry, DatasetManifest, SourceFile,
    VerifyIssue, MANIFEST_FILE,
};
pub use reader::{CsvReader, HashCountRead, IngestConfig};
