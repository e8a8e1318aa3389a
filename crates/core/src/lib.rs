//! # citesys-core — fine-grained data citation
//!
//! The primary contribution of *“Data Citation: A Computational Challenge”*
//! (Davidson, Buneman, Deutch, Milo, Silvello — PODS 2017), as a library:
//!
//! * **Citation views** ([`registry`]): conjunctive-query views with
//!   λ-parameters, citation queries and citation functions, exactly as in
//!   §2 of the paper.
//! * **The citation algebra** ([`expr`]): symbolic expressions over `·`
//!   (joint), `+` (alternative bindings) and `+R` (alternative
//!   rewritings), e.g. the paper's
//!   `(CV1(11)·CV3 + CV1(12)·CV3) +R (CV2·CV3)`.
//! * **Policies** ([`policy`]): owner-chosen interpretations (union, join,
//!   first, minimum estimated size) of the abstract operators.
//! * **The service** ([`service`]): the owned, `Send + Sync`
//!   [`CitationService`] — rewrite → evaluate → annotate → render with a
//!   formal-semantics mode and a cost-pruned mode (§3), prepared queries,
//!   a sharded LRU plan cache keyed modulo λ-parameter constants (with
//!   text persistence), and a delta-maintained materialized-view cache
//!   ([`viewcache`]).
//! * **Rendering** ([`mod@format`]): text, BibTeX, RIS, XML, JSON.
//! * **Fixity** ([`fixity`]): versioned citations with SHA-256 digests,
//!   dereference and verification.
//! * **The store** ([`store`]): citations over an evolving database —
//!   [`Store`] owns the versioned database, registry, plan caches,
//!   cached service and durability backend, and cuts every version
//!   through one routine (WAL append → commit → delta-maintained
//!   snapshot swap) shared by local commits, replicas and recovery.
//! * **View selection** ([`select`]): covering a query workload with few
//!   views (greedy vs exhaustive).
//! * **The paper's running example** ([`paper`]): the GtoPdb fragment as a
//!   reusable fixture.
//!
//! ## Quickstart
//!
//! ```
//! use citesys_core::format::{format_citation, CitationFormat};
//! use citesys_core::paper;
//! use citesys_core::{CitationMode, CitationService};
//!
//! let service = CitationService::builder()
//!     .database(paper::paper_database())
//!     .registry(paper::paper_registry())
//!     .mode(CitationMode::Formal)
//!     .build()
//!     .unwrap();
//!
//! let cited = service.cite(&paper::paper_query()).unwrap();
//! // The min-size policy picks the paper's answer: CV2·CV3.
//! let atoms: Vec<String> =
//!     cited.tuples[0].atoms.iter().map(ToString::to_string).collect();
//! assert_eq!(atoms, vec!["CV2", "CV3"]);
//!
//! let text = format_citation(&cited.tuples[0].snippets, None, CitationFormat::Text);
//! assert!(text.contains("IUPHAR/BPS Guide to PHARMACOLOGY..."));
//!
//! // Re-citing the same query shape skips the rewriting search entirely.
//! let prepared = service.prepare(&paper::paper_query()).unwrap();
//! let again = prepared.execute().unwrap();
//! assert_eq!(again.rewrite_stats.search_effort(), 0);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod durable;
pub mod engine;
pub mod error;
pub mod expr;
pub mod fixity;
pub mod format;
pub mod paper;
pub mod policy;
pub mod registry;
pub mod select;
pub mod service;
pub mod snippet;
pub mod store;
pub mod trace;
pub mod viewcache;

pub use citesys_obs::SpanSet;
pub use citesys_storage::{Changeset, NetChanges};
pub use durable::{
    rebuild_from_checkpoint, DurableHandle, RecoveredService, SECTION_DATABASE, SECTION_PLANS,
    SECTION_REGISTRY, SECTION_VIEWS,
};
pub use engine::{
    AggregateCitation, CitationMode, CitedAnswer, Coverage, EngineOptions, TupleCitation,
};
pub use error::CiteError;
pub use expr::{CiteAtom, CiteExpr};
pub use fixity::{
    cite_at_version, cite_with_service, cite_with_service_spanned, dereference, verify, FixityToken,
};
pub use format::{format_citation, format_citation_with, CitationFormat, FormatOptions};
pub use policy::{AggPolicy, AltPolicy, JointPolicy, PolicySet, RewritePolicy, RewritingChoice};
pub use registry::{CitationRegistry, CitationView};
pub use select::{covers, exhaustive_select, greedy_select, Selection};
pub use service::{
    AsOfCache, CitationService, CitationServiceBuilder, PlanCache, PlanCacheStats,
    PreparedCitation, DEFAULT_PLAN_CACHE_CAPACITY, DEFAULT_PLAN_CACHE_SHARDS,
};
pub use snippet::{CitationFunction, CitationQuery, CitationSnippet};
pub use store::{AsOf, Sealed, Store, StoreError};
pub use trace::{trace_answer, trace_tuple};
pub use viewcache::{PendingViewDelta, ViewCache, ViewCacheStats};
