//! The owned, thread-safe citation service.
//!
//! [`CitationService`] is the production entry point for the paper's
//! central operation: it owns its database and citation-view registry
//! behind `Arc`s (so it is `Send + Sync` and cheap to clone across
//! threads), and it amortizes the expensive part of citation — the
//! bucket/MiniCon rewriting search — through two caches:
//!
//! * a **plan cache**: a sharded (lock-striped) LRU keyed by the query's
//!   *signature modulo constants* (λ-parameterized workloads repeat the
//!   same query shape at different constants; one search serves them
//!   all). Read hits take only a shard's shared lock, so concurrent
//!   clones scale across threads; plans can also be persisted to disk
//!   ([`PlanCache::to_text`] / [`PlanCache::load_text`]) and reloaded by
//!   a later process.
//! * a **view cache**: citation views are materialized once into a shared
//!   scratch database ([`ViewCache`]) and reused across queries. The
//!   cite read path is **lock-free**: materializations live behind a
//!   published arc-swap snapshot pointer, so readers pay one
//!   atomic load and only writers pay for publication. Data updates —
//!   whole mixed insert/delete transactions
//!   ([`stage_batch`](CitationService::stage_batch) with a
//!   [`Changeset`]) — are carried into the materializations by delta
//!   maintenance and land in **one** snapshot swap
//!   ([`with_database_delta`](CitationService::with_database_delta))
//!   instead of dropping them.
//!
//! **Invalidation contract**: registering a view or declaring a relation
//! changes the rewriting space — both caches are replaced (see
//! [`Store`](crate::store::Store)). Data updates
//! must invalidate **neither**: plans are data-independent, and
//! materializations follow the data by delta.
//!
//! A plan-cache hit performs **zero rewriting-search work** — observable
//! in [`CitedAnswer::rewrite_stats`], whose `plan_cache_hits` counter is 1
//! and whose search-effort counters are all 0 (and whose
//! `plan_cache_shard` names the serving shard).
//!
//! ```
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
//! // First call runs the rewriting search and caches the plan…
//! let first = service.cite(&paper::paper_query()).unwrap();
//! assert_eq!(first.rewrite_stats.plan_cache_hits, 0);
//! // …the second call skips straight to evaluate + annotate.
//! let second = service.cite(&paper::paper_query()).unwrap();
//! assert_eq!(second.rewrite_stats.plan_cache_hits, 1);
//! assert_eq!(second.rewrite_stats.search_effort(), 0);
//! assert_eq!(first.tuples[0].atoms, second.tuples[0].atoms);
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use citesys_cq::{ConjunctiveQuery, Term, Value};
use citesys_obs::{SpanSet, SpanTimer};
use citesys_rewrite::{PlanParseError, RewritePlan, RewriteStats};
use citesys_storage::{Changeset, Database, VersionedDatabase};
use parking_lot::{Mutex, RwLock};

use crate::engine::{
    cite_selected, compute_plan, needed_views, select_rewritings, CitationMode, CitedAnswer,
    EngineOptions,
};
use crate::error::CiteError;
use crate::fixity::{cite_with_service, FixityToken};
use crate::registry::CitationRegistry;
use crate::viewcache::{PendingViewDelta, ViewCache, ViewCacheStats};

/// Default number of distinct query signatures the plan cache retains.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

/// Default number of lock-striped shards in the plan cache.
pub const DEFAULT_PLAN_CACHE_SHARDS: usize = 8;

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

/// Counters for one [`PlanCache`] — either the whole cache
/// ([`PlanCache::stats`], summed over shards) or a single shard
/// ([`PlanCache::shard_stats`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a fresh rewriting search.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Explicit invalidations (view/schema changes).
    pub invalidations: u64,
}

impl PlanCacheStats {
    fn add(&mut self, other: PlanCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.invalidations += other.invalidations;
    }
}

struct PlanEntry {
    /// Constants of the query instance the plan was computed for, in
    /// signature-placeholder order.
    constants: Vec<Value>,
    plan: Arc<RewritePlan>,
    /// LRU clock value of the entry's last touch. Atomic so a read hit
    /// can refresh it under the shard's *shared* lock.
    last_used: AtomicU64,
}

/// One lock stripe of the cache: an independent LRU with its own clock
/// and counters.
struct Shard {
    capacity: usize,
    /// Monotonic LRU clock for this shard.
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    entries: RwLock<BTreeMap<String, PlanEntry>>,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            capacity,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            entries: RwLock::new(BTreeMap::new()),
        }
    }

    fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

/// A sharable, sharded LRU cache of rewrite plans, keyed by query
/// signature.
///
/// The cache is internally synchronized and built to be **read-dominated
/// under concurrency**: entries are spread over `N` lock-striped shards by
/// signature hash, and a read hit takes only its shard's *shared* lock —
/// the LRU clock and all counters are atomics, so concurrent hits on the
/// same shard never serialize on an exclusive lock. Only a miss-then-insert
/// or an eviction takes a shard's exclusive lock, and it blocks just that
/// shard's traffic, not the other `N − 1`.
///
/// Clones of the owning service (and the successors a
/// [`Store`](crate::store::Store) carries across commits) share one cache through an `Arc`. LRU eviction is per shard; per-shard
/// hit/miss/eviction counters are exposed via [`shard_stats`]
/// (aggregate: [`stats`]), and each served citation reports the shard that
/// answered it in
/// [`RewriteStats::plan_cache_shard`](citesys_rewrite::RewriteStats::plan_cache_shard).
///
/// [`shard_stats`]: Self::shard_stats
/// [`stats`]: Self::stats
pub struct PlanCache {
    shards: Vec<Shard>,
    capacity: usize,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans (minimum 1),
    /// striped over [`DEFAULT_PLAN_CACHE_SHARDS`] shards (fewer when the
    /// capacity is smaller than the default shard count).
    pub fn new(capacity: usize) -> Self {
        PlanCache::with_shards(capacity, DEFAULT_PLAN_CACHE_SHARDS)
    }

    /// Creates a cache holding at most `capacity` plans spread over
    /// `shards` lock stripes. The shard count is clamped to
    /// `1..=capacity`; capacity is divided evenly per shard, **rounding
    /// up**, so the requested total never shrinks — which means the
    /// *effective* capacity is the next multiple of the shard count (e.g.
    /// capacity 10 over 8 shards yields 8 shards × 2 = 16). The cache
    /// admits up to that effective total, and [`capacity`](Self::capacity)
    /// reports it, so `len() <= capacity()` always holds. One shard gives
    /// the exact single-LRU semantics (and the exact capacity) of the
    /// pre-sharded cache.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        let per_shard = capacity.div_ceil(shards);
        PlanCache {
            shards: (0..shards).map(|_| Shard::new(per_shard)).collect(),
            capacity: per_shard * shards,
        }
    }

    /// The shard index serving `signature` (stable for the lifetime of
    /// this cache).
    pub fn shard_of(&self, signature: &str) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        signature.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of cached plans (across all shards).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.entries.read().len()).sum()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate counter snapshot (sum over shards).
    pub fn stats(&self) -> PlanCacheStats {
        let mut out = PlanCacheStats::default();
        for s in &self.shards {
            out.add(s.stats());
        }
        out
    }

    /// Per-shard counter snapshots, indexed by shard.
    pub fn shard_stats(&self) -> Vec<PlanCacheStats> {
        self.shards.iter().map(Shard::stats).collect()
    }

    /// Drops every cached plan (view/schema change invalidation).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut entries = shard.entries.write();
            let dropped = entries.len() as u64;
            entries.clear();
            shard.invalidations.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// Number of distinct signatures the cache may hold (across all
    /// shards). This is the **effective** capacity: the requested one
    /// rounded up to a multiple of the shard count (see
    /// [`with_shards`](Self::with_shards)), so it is a true upper bound
    /// on [`len`](Self::len).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up the plan for `signature`, re-targeted at `constants`
    /// (test-only convenience: production paths hash once and call
    /// [`get_in`](Self::get_in) with the precomputed shard).
    #[cfg(test)]
    fn get(&self, signature: &str, constants: &[Value]) -> Option<Arc<RewritePlan>> {
        self.get_in(self.shard_of(signature), signature, constants)
    }

    /// [`get`](Self::get) with the shard precomputed — the cite hot path
    /// hashes the signature once and reuses the index for lookup, insert
    /// and stats reporting.
    fn get_in(
        &self,
        shard: usize,
        signature: &str,
        constants: &[Value],
    ) -> Option<Arc<RewritePlan>> {
        let shard = &self.shards[shard];
        // Fast path: a hit needs only the shared lock — the LRU touch is
        // an atomic store, and the instantiation happens outside the lock
        // (λ-transfer hits would otherwise serialize threads on a deep
        // plan clone).
        let (plan, entry_constants) = {
            let entries = shard.entries.read();
            let Some(entry) = entries.get(signature) else {
                drop(entries);
                shard.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            };
            let tick = shard.tick.fetch_add(1, Ordering::Relaxed) + 1;
            entry.last_used.store(tick, Ordering::Relaxed);
            shard.hits.fetch_add(1, Ordering::Relaxed);
            (Arc::clone(&entry.plan), entry.constants.clone())
        };
        if entry_constants == constants {
            return Some(plan);
        }
        // Same shape, different λ-constants: instantiate the cached plan
        // at the new constants (a bijective value mapping — the signature
        // guarantees equal equality-patterns).
        debug_assert_eq!(entry_constants.len(), constants.len());
        let mapping: BTreeMap<Value, Value> = entry_constants
            .into_iter()
            .zip(constants.iter().cloned())
            .collect();
        Some(Arc::new(plan.instantiate(&mapping)))
    }

    /// Inserts a freshly computed plan, evicting its shard's
    /// least-recently-used entry when that shard is full.
    fn insert(&self, signature: String, constants: Vec<Value>, plan: Arc<RewritePlan>) {
        self.insert_in(self.shard_of(&signature), signature, constants, plan);
    }

    /// [`insert`](Self::insert) with the shard precomputed (see
    /// [`get_in`](Self::get_in)).
    fn insert_in(
        &self,
        shard: usize,
        signature: String,
        constants: Vec<Value>,
        plan: Arc<RewritePlan>,
    ) {
        let shard = &self.shards[shard];
        let tick = shard.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut entries = shard.entries.write();
        if entries.len() >= shard.capacity && !entries.contains_key(&signature) {
            if let Some(oldest) = entries
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
            {
                entries.remove(&oldest);
                shard.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        entries.insert(
            signature,
            PlanEntry {
                constants,
                plan,
                last_used: AtomicU64::new(tick),
            },
        );
    }

    /// Serializes every cached plan to a line-oriented text form that
    /// [`load_text`](Self::load_text) reads back — the checkpoint's plan
    /// section (`SECTION_PLANS`).
    ///
    /// The format stores `(signature, constants, plan)` triples; shard
    /// assignment and LRU/counter state are in-process properties and are
    /// not persisted. Like [`RewritePlan::to_text`], text constants
    /// containing newlines do not round-trip (the surface parser cannot
    /// produce them either).
    ///
    /// **Soundness caveat**: plans are computed against a specific
    /// registry of citation views. Loading a file exported under a
    /// different registry serves wrong plans; persist and restore only
    /// across processes that register the same views.
    pub fn to_text(&self) -> String {
        let mut out = String::from("citesys-plan-cache v1\n");
        for shard in &self.shards {
            let entries = shard.entries.read();
            for (sig, e) in entries.iter() {
                out.push_str("entry\n");
                let _ = writeln!(out, "sig {sig}");
                for c in &e.constants {
                    match c {
                        Value::Int(i) => {
                            let _ = writeln!(out, "const i {i}");
                        }
                        Value::Text(s) => {
                            let _ = writeln!(out, "const t {}", s.as_str());
                        }
                        Value::Bool(b) => {
                            let _ = writeln!(out, "const b {b}");
                        }
                    }
                }
                out.push_str(&e.plan.to_text());
                out.push_str("end\n");
            }
        }
        out
    }

    /// Loads plans serialized by [`to_text`](Self::to_text) into this
    /// cache, returning how many entries were parsed. Entries are inserted
    /// through the normal path, so the configured capacity still applies
    /// (an overfull file ends with the tail of each shard evicted).
    pub fn load_text(&self, text: &str) -> Result<usize, PlanParseError> {
        fn err(message: impl Into<String>) -> PlanParseError {
            PlanParseError {
                message: message.into(),
            }
        }
        // CRLF tolerance, via the same helper `RewritePlan::from_text`
        // uses: trim a carriage return from every line so a plans file
        // saved/edited on Windows neither fails to parse nor smuggles
        // `\r` into a cached signature (which would silently never match
        // again).
        let mut lines = text.lines().map(citesys_rewrite::trim_cr);
        match lines.next() {
            Some("citesys-plan-cache v1") => {}
            other => return Err(err(format!("bad plan-cache header: {other:?}"))),
        }
        let mut loaded = 0usize;
        while let Some(line) = lines.next() {
            if line.trim().is_empty() {
                continue;
            }
            if line != "entry" {
                return Err(err(format!("expected 'entry', got '{line}'")));
            }
            let sig = lines
                .next()
                .and_then(|l| l.strip_prefix("sig "))
                .ok_or_else(|| err("entry without 'sig' line"))?
                .to_string();
            let mut constants: Vec<Value> = Vec::new();
            let mut plan_lines: Vec<&str> = Vec::new();
            let mut ended = false;
            for line in lines.by_ref() {
                if line == "end" {
                    ended = true;
                    break;
                }
                if let Some(c) = line.strip_prefix("const ") {
                    let v = match c.split_once(' ') {
                        Some(("i", n)) => Value::Int(
                            n.parse()
                                .map_err(|_| err(format!("bad int constant '{n}'")))?,
                        ),
                        Some(("t", s)) => Value::text(s),
                        Some(("b", "true")) => Value::Bool(true),
                        Some(("b", "false")) => Value::Bool(false),
                        _ => return Err(err(format!("bad constant line '{line}'"))),
                    };
                    constants.push(v);
                } else {
                    plan_lines.push(line);
                }
            }
            if !ended {
                return Err(err("unterminated plan-cache entry (missing 'end')"));
            }
            let plan = RewritePlan::from_text(&plan_lines.join("\n"))?;
            self.insert(sig, constants, Arc::new(plan));
            loaded += 1;
        }
        Ok(loaded)
    }
}

/// Computes the cache signature of `q`: its canonical form printed with
/// every constant replaced by a typed placeholder (`generalize == true`),
/// or by its literal value (`generalize == false`, used when registered
/// views themselves contain constants and plan transfer would be unsound).
///
/// Equal constants share a placeholder, so the signature preserves the
/// equality pattern — `Q(N) :- R(11, N), S(11)` and `Q(N) :- R(7, N),
/// S(9)` get different signatures, while `… R(12, N), S(12)` shares the
/// first one's plan re-targeted at 12.
fn plan_signature(q: &ConjunctiveQuery, generalize: bool) -> (String, Vec<Value>) {
    let canonical = q.canonical();
    let mut constants: Vec<Value> = Vec::new();
    let mut sig = String::new();
    let mut push_term = |sig: &mut String, t: &Term| match t {
        Term::Var(v) => sig.push_str(v.as_str()),
        Term::Const(c) => {
            if generalize {
                let idx = match constants.iter().position(|x| x == c) {
                    Some(i) => i,
                    None => {
                        constants.push(c.clone());
                        constants.len() - 1
                    }
                };
                let _ = write!(sig, "\u{27e8}{}:{}\u{27e9}", idx, c.type_name());
            } else {
                let _ = write!(sig, "\u{27e8}={}:{:?}\u{27e9}", c.type_name(), c);
            }
        }
    };
    let mut push_atom = |sig: &mut String, atom: &citesys_cq::Atom| {
        sig.push_str(atom.predicate.as_str());
        sig.push('(');
        for (i, t) in atom.terms.iter().enumerate() {
            if i > 0 {
                sig.push(',');
            }
            push_term(sig, t);
        }
        sig.push(')');
    };
    for p in &canonical.params {
        sig.push('λ');
        sig.push_str(p.as_str());
        sig.push('.');
    }
    push_atom(&mut sig, &canonical.head);
    sig.push_str(":-");
    for atom in &canonical.body {
        push_atom(&mut sig, atom);
        sig.push(';');
    }
    (sig, constants)
}

/// True when any registered view's defining query mentions a constant —
/// plan transfer across constants is then disabled (the search result can
/// depend on the specific constant).
fn registry_has_view_constants(registry: &CitationRegistry) -> bool {
    registry.iter().any(|cv| {
        cv.view
            .head
            .terms
            .iter()
            .chain(cv.view.body.iter().flat_map(|a| a.terms.iter()))
            .any(|t| matches!(t, Term::Const(_)))
    })
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Typed builder for [`CitationService`]; obtained from
/// [`CitationService::builder`].
#[derive(Default)]
pub struct CitationServiceBuilder {
    db: Option<Arc<Database>>,
    registry: Option<Arc<CitationRegistry>>,
    options: EngineOptions,
    shared_plans: Option<Arc<PlanCache>>,
    warm_views: Option<Database>,
}

impl CitationServiceBuilder {
    /// Sets the database (required). Accepts an owned [`Database`] or an
    /// existing `Arc<Database>` (e.g. a version snapshot).
    pub fn database(mut self, db: impl Into<Arc<Database>>) -> Self {
        self.db = Some(db.into());
        self
    }

    /// Sets the citation-view registry (required).
    pub fn registry(mut self, registry: impl Into<Arc<CitationRegistry>>) -> Self {
        self.registry = Some(registry.into());
        self
    }

    /// Replaces the full option set at once.
    pub fn options(mut self, options: EngineOptions) -> Self {
        self.options = options;
        self
    }

    /// Formal vs cost-pruned evaluation.
    pub fn mode(mut self, mode: CitationMode) -> Self {
        self.options.mode = mode;
        self
    }

    /// Shares an existing plan cache (so a rebuilt service — e.g. after a
    /// data update — keeps its amortized plans).
    pub fn shared_plan_cache(mut self, plans: Arc<PlanCache>) -> Self {
        self.shared_plans = Some(plans);
        self
    }

    /// Seeds the materialized-view cache with views materialized by a
    /// previous process (checkpoint recovery). The caller asserts the
    /// materializations match the database snapshot and registry being
    /// built — the durability layer guarantees this by checkpointing
    /// all of them together under one manifest.
    pub fn warm_views(mut self, views: Database) -> Self {
        self.warm_views = Some(views);
        self
    }

    /// Builds the service, validating that both the database and the
    /// registry were provided.
    pub fn build(self) -> Result<CitationService, CiteError> {
        let db = self.db.ok_or_else(|| CiteError::ServiceConfig {
            reason: "a database is required: call .database(db)".to_string(),
        })?;
        let registry = self.registry.ok_or_else(|| CiteError::ServiceConfig {
            reason: "a citation-view registry is required: call .registry(reg)".to_string(),
        })?;
        let plans = self
            .shared_plans
            .unwrap_or_else(|| Arc::new(PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)));
        let generalize = !registry_has_view_constants(&registry);
        let views = match self.warm_views {
            Some(seed) => ViewCache::with_published(seed),
            None => ViewCache::new(),
        };
        Ok(CitationService {
            db,
            registry,
            options: self.options,
            plans,
            views: Arc::new(views),
            generalize_constants: generalize,
            asof: Arc::new(AsOfCache::new()),
        })
    }
}

// ---------------------------------------------------------------------------
// Time travel: the as-of service cache
// ---------------------------------------------------------------------------

/// How many historical versions keep a warm as-of service at once.
/// Time-travel reads typically revisit a handful of cited versions (a
/// reviewer re-deriving a result, a follower verifying fixity), so a
/// small LRU ring captures the locality without holding old snapshots
/// alive indefinitely.
const ASOF_SERVICE_CAPACITY: usize = 4;

/// Cache of services pinned to historical versions, kept **separate**
/// from the live service's plan/view caches so `cite … @ version`
/// traffic never evicts or pollutes warm live state (and vice versa).
///
/// Plans are still shared *among* as-of services (one cache for strict,
/// one for partial-citation mode, mirroring how the serving layer splits
/// them), because plans depend only on the query shape and the registry
/// — never on which snapshot is being read. Materialized views are
/// per-version (each cached service owns its own [`ViewCache`]).
///
/// The cache is invalidated wholesale when the owning service's registry
/// pointer changes (DDL replaces the registry `Arc`, which invalidates
/// every cached plan and materialization for historical reads too).
pub struct AsOfCache {
    inner: Mutex<AsOfInner>,
}

struct AsOfInner {
    /// `Arc::as_ptr` of the registry the cached state was built for.
    registry_ptr: usize,
    /// Shared plan cache for as-of services citing without partial mode.
    plans_strict: Arc<PlanCache>,
    /// Shared plan cache for as-of services citing with `allow_partial`.
    plans_partial: Arc<PlanCache>,
    /// LRU ring of warm services keyed by `(version, allow_partial)`.
    services: VecDeque<((u64, bool), CitationService)>,
}

impl AsOfCache {
    fn new() -> Self {
        AsOfCache {
            inner: Mutex::new(AsOfInner {
                registry_ptr: 0,
                plans_strict: Arc::new(PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)),
                plans_partial: Arc::new(PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)),
                services: VecDeque::new(),
            }),
        }
    }

    /// The versions currently holding a warm as-of service (diagnostics).
    pub fn cached_versions(&self) -> Vec<u64> {
        let mut versions: Vec<u64> = self
            .inner
            .lock()
            .services
            .iter()
            .map(|((v, _), _)| *v)
            .collect();
        versions.sort_unstable();
        versions.dedup();
        versions
    }

    /// Returns a warm service over `snapshot` at `version` with
    /// `options`, building (and caching) one on miss. `registry` is the
    /// owning service's **current** registry: a pointer change clears
    /// the whole cache, because DDL invalidates historical plans too.
    fn service_for(
        &self,
        version: u64,
        snapshot: &Arc<Database>,
        registry: &Arc<CitationRegistry>,
        options: EngineOptions,
    ) -> Result<CitationService, CiteError> {
        let mut inner = self.inner.lock();
        let registry_ptr = Arc::as_ptr(registry) as usize;
        if inner.registry_ptr != registry_ptr {
            inner.registry_ptr = registry_ptr;
            inner.services.clear();
            inner.plans_strict = Arc::new(PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY));
            inner.plans_partial = Arc::new(PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY));
        }
        let key = (version, options.allow_partial);
        if let Some((_, base)) = inner.services.iter().find(|(k, _)| *k == key) {
            // Mode/policies may differ per cite; rewrite and
            // allow_partial match by key construction, so the swap is
            // always accepted and shares the warm caches.
            return base.with_options(options);
        }
        let plans = if options.allow_partial {
            Arc::clone(&inner.plans_partial)
        } else {
            Arc::clone(&inner.plans_strict)
        };
        let base = CitationService::builder()
            .database(Arc::clone(snapshot))
            .registry(Arc::clone(registry))
            .options(options)
            .shared_plan_cache(plans)
            .build()?;
        if inner.services.len() >= ASOF_SERVICE_CAPACITY {
            inner.services.pop_front();
        }
        inner.services.push_back((key, base.clone()));
        Ok(base)
    }
}

impl std::fmt::Debug for AsOfCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("AsOfCache")
            .field("cached", &inner.services.len())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// An owned, `Send + Sync` citation service with prepared-query support.
///
/// Cloning is cheap (all heavyweight state is behind `Arc`s) and clones
/// share both caches — hand one clone to each worker thread.
///
/// The database snapshot is immutable for the lifetime of the service; for
/// mutable workloads use a [`Store`](crate::store::Store), which carries
/// the service across every commit with its caches warm.
#[derive(Clone, Debug)]
pub struct CitationService {
    db: Arc<Database>,
    registry: Arc<CitationRegistry>,
    options: EngineOptions,
    plans: Arc<PlanCache>,
    /// Materialized citation views, grown on demand and shared by all
    /// clones of this service; carried across data updates by delta
    /// maintenance (see [`ViewCache`]).
    views: Arc<ViewCache>,
    /// Whether plans may be transferred across λ-parameter constants.
    generalize_constants: bool,
    /// Warm services for historical versions (`cite … @ version`),
    /// cached apart from the live plan/view caches; shared by all
    /// clones and carried across delta-maintained snapshot swaps
    /// (historical versions never change under a data update).
    asof: Arc<AsOfCache>,
}

impl CitationService {
    /// Starts building a service.
    pub fn builder() -> CitationServiceBuilder {
        CitationServiceBuilder::default()
    }

    /// The underlying database snapshot.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The citation-view registry.
    pub fn registry(&self) -> &Arc<CitationRegistry> {
        &self.registry
    }

    /// The engine options the service was built with.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The shared plan cache (for sharing with a rebuilt service).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plans
    }

    /// Aggregate plan-cache counters (see
    /// [`PlanCache::shard_stats`] for the per-shard breakdown).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// Materialized-view cache counters. The counters survive
    /// delta-maintained snapshot swaps
    /// ([`with_database_delta`](Self::with_database_delta)), so after a
    /// data update they show how many views were carried over untouched
    /// or by delta rows versus dropped for recomputation.
    pub fn view_cache_stats(&self) -> ViewCacheStats {
        self.views.stats()
    }

    /// A copy of the currently published materialized views — what a
    /// checkpoint persists so the next process starts with them warm
    /// (see [`CitationServiceBuilder::warm_views`]).
    pub fn materialized_views(&self) -> Database {
        Database::clone(&self.views.read())
    }

    /// A service with different evaluation options over the same data,
    /// registry and caches. **Caveat**: the plan cache is keyed by query
    /// signature only, so the new options must agree with the old ones on
    /// everything that affects planning (`rewrite`, `allow_partial`) —
    /// mode and policies are freely swappable. Violations are rejected.
    pub fn with_options(&self, options: EngineOptions) -> Result<CitationService, CiteError> {
        let same_rewrite = {
            let a = &self.options.rewrite;
            let b = &options.rewrite;
            a.algorithm == b.algorithm
                && a.goal == b.goal
                && a.prune == b.prune
                && a.minimize == b.minimize
                && a.max_candidates == b.max_candidates
        };
        if !same_rewrite || self.options.allow_partial != options.allow_partial {
            return Err(CiteError::ServiceConfig {
                reason: "with_options may not change rewrite options or allow_partial \
                         (they invalidate cached plans); build a fresh service instead"
                    .to_string(),
            });
        }
        Ok(CitationService {
            options,
            ..self.clone()
        })
    }

    /// A service over a different database snapshot that keeps this
    /// service's plan cache warm (plans depend only on the query shape and
    /// the registry, never on data). The materialized-view cache is
    /// dropped — it does depend on data, and an arbitrary snapshot swap
    /// gives nothing to delta against. When the new snapshot differs from
    /// the old by a known changeset, use
    /// [`stage_batch`](Self::stage_batch) +
    /// [`with_database_delta`](Self::with_database_delta) instead to keep
    /// the materializations warm too.
    pub fn with_database(&self, db: impl Into<Arc<Database>>) -> CitationService {
        CitationService {
            db: db.into(),
            registry: Arc::clone(&self.registry),
            options: self.options,
            plans: Arc::clone(&self.plans),
            views: Arc::new(self.views.fresh_linked()),
            generalize_constants: self.generalize_constants,
            asof: Arc::clone(&self.asof),
        }
    }

    /// Phase one of a delta-maintained snapshot swap for a whole
    /// transaction: normalizes `changes` against this service's snapshot
    /// into its **net** effect (in-batch cancellations, re-inserts of
    /// present tuples and deletes of absent ones cost no delta work) and
    /// captures everything deletion deltas need from the pre-batch state.
    /// Call **before** mutating the database, then apply the changeset,
    /// then finish with [`with_database_delta`](Self::with_database_delta)
    /// — the whole batch lands in **one** snapshot swap instead of N
    /// single-tuple swaps.
    ///
    /// Staging clones the materializations, so services handed out
    /// earlier keep citing their own consistent (old snapshot, old views)
    /// pairing while the successor is prepared.
    pub fn stage_batch(&self, changes: &Changeset) -> PendingViewDelta {
        self.views.stage_batch(&self.registry, &self.db, changes)
    }

    /// Phase two of a delta-maintained snapshot swap: a service over the
    /// post-update snapshot whose plan cache **and** materialized views
    /// stay warm — the staged net insert/delete delta (one tuple or a
    /// whole batch) is applied to every affected view against the single
    /// post-batch database, unaffected views are carried over verbatim,
    /// and only views whose delta application fails are dropped for lazy
    /// recomputation ([`ViewCacheStats`] counts each case). However many
    /// tuples the transaction changed, readers observe exactly **one**
    /// snapshot swap.
    ///
    /// Applying a delta staged for a mutation that then failed (or
    /// changed nothing) is harmless: the delta rules evaluate against the
    /// post-update database, so an absent insertion contributes no rows
    /// and a still-present "deleted" tuple keeps all its rows derivable.
    pub fn with_database_delta(
        &self,
        db: impl Into<Arc<Database>>,
        pending: PendingViewDelta,
    ) -> CitationService {
        let db = db.into();
        let views = Arc::new(pending.apply(&self.registry, &db));
        CitationService {
            db,
            registry: Arc::clone(&self.registry),
            options: self.options,
            plans: Arc::clone(&self.plans),
            views,
            generalize_constants: self.generalize_constants,
            asof: Arc::clone(&self.asof),
        }
    }

    /// Cites `q` against historical `version` of `history` — the
    /// time-travel read path — using this service's own options.
    /// See [`cite_at_with`](Self::cite_at_with).
    pub fn cite_at(
        &self,
        history: &VersionedDatabase,
        version: u64,
        q: &ConjunctiveQuery,
    ) -> Result<(CitedAnswer, FixityToken), CiteError> {
        self.cite_at_with(history, version, self.options, q)
    }

    /// Cites `q` against historical `version` of `history` with explicit
    /// per-call options (mode and policies may differ from this
    /// service's; `allow_partial` may too — it selects a separate shared
    /// plan cache; rewrite options must match, as for
    /// [`with_options`](Self::with_options)).
    ///
    /// The snapshot comes from `history` (erroring with
    /// [`CompactedVersion`](citesys_storage::StorageError::CompactedVersion)
    /// or [`UnknownVersion`](citesys_storage::StorageError::UnknownVersion)
    /// when `version` is outside the retained window), and evaluation
    /// runs on a cached **as-of service** pinned to that version — kept
    /// apart from the live plan/view caches so time-travel reads never
    /// pollute warm live state. The returned [`FixityToken`] is stamped
    /// with `version` and the answer's SHA-256 digest, byte-identical to
    /// what a live cite at that version produced.
    pub fn cite_at_with(
        &self,
        history: &VersionedDatabase,
        version: u64,
        options: EngineOptions,
        q: &ConjunctiveQuery,
    ) -> Result<(CitedAnswer, FixityToken), CiteError> {
        let snapshot = history.snapshot(version)?;
        let service = self.as_of_service(version, &snapshot, options)?;
        cite_with_service(&service, version, q)
    }

    /// The cached **as-of service** [`cite_at_with`](Self::cite_at_with)
    /// evaluates on, for a caller that already holds the snapshot of
    /// `version` (e.g. the serving layer extracts it under its store lock
    /// and cites outside it). The caller asserts `snapshot` **is** the
    /// database as of `version`: citing through [`cite_with_service`]
    /// with `version` stamps the fixity token with the pair as given.
    pub fn as_of_service(
        &self,
        version: u64,
        snapshot: &Arc<Database>,
        options: EngineOptions,
    ) -> Result<CitationService, CiteError> {
        let same_rewrite = {
            let a = &self.options.rewrite;
            let b = &options.rewrite;
            a.algorithm == b.algorithm
                && a.goal == b.goal
                && a.prune == b.prune
                && a.minimize == b.minimize
                && a.max_candidates == b.max_candidates
        };
        if !same_rewrite {
            return Err(CiteError::ServiceConfig {
                reason: "cite_at may not change rewrite options (they invalidate \
                         cached as-of plans); build a fresh service instead"
                    .to_string(),
            });
        }
        self.asof
            .service_for(version, snapshot, &self.registry, options)
    }

    /// The shared time-travel cache (diagnostics: which historical
    /// versions currently hold a warm as-of service).
    pub fn asof_cache(&self) -> &Arc<AsOfCache> {
        &self.asof
    }

    /// Looks up (or computes and caches) the rewrite plan for `q`.
    /// Returns the plan, whether it was served from the cache, and the
    /// shard that served (or stored) it.
    fn plan_for(&self, q: &ConjunctiveQuery) -> Result<(Arc<RewritePlan>, bool, usize), CiteError> {
        self.plan_for_spanned(q, &mut SpanSet::disabled())
    }

    /// [`plan_for`](Self::plan_for) with pipeline spans: records the
    /// cache probe as `plan_lookup` and, on a miss, the fresh search as
    /// `rewrite` (absent on a hit — that absence is how callers tell a
    /// hit from a miss without re-deriving the signature).
    fn plan_for_spanned(
        &self,
        q: &ConjunctiveQuery,
        spans: &mut SpanSet,
    ) -> Result<(Arc<RewritePlan>, bool, usize), CiteError> {
        let lookup = SpanTimer::start(spans.enabled());
        let (signature, constants) = plan_signature(q, self.generalize_constants);
        // One signature hash per cite: the shard index is reused for the
        // lookup, the miss-insert, and stats reporting.
        let shard = self.plans.shard_of(&signature);
        if let Some(plan) = self.plans.get_in(shard, &signature, &constants) {
            spans.record_micros("plan_lookup", lookup.elapsed_micros());
            return Ok((plan, true, shard));
        }
        spans.record_micros("plan_lookup", lookup.elapsed_micros());
        let search = SpanTimer::start(spans.enabled());
        let plan = Arc::new(compute_plan(&self.registry, &self.options, q)?);
        self.plans
            .insert_in(shard, signature, constants, Arc::clone(&plan));
        spans.record_micros("rewrite", search.elapsed_micros());
        Ok((plan, false, shard))
    }

    /// Stats reported for work served from a cached plan: the search-effort
    /// counters are zero by construction.
    fn cached_stats(plan: &RewritePlan, shard: usize) -> RewriteStats {
        RewriteStats {
            views_total: plan.stats.views_total,
            views_pruned: plan.stats.views_pruned,
            rewritings_found: plan.stats.rewritings_found,
            plan_cache_hits: 1,
            plan_cache_shard: shard,
            ..Default::default()
        }
    }

    /// Evaluate + annotate `q` under `plan` (shared by all entry points).
    fn cite_with_plan(
        &self,
        q: &ConjunctiveQuery,
        plan: &RewritePlan,
        stats: RewriteStats,
    ) -> Result<CitedAnswer, CiteError> {
        if plan.rewritings.is_empty() {
            return Err(CiteError::NoRewriting {
                query: q.to_string(),
            });
        }
        let selected = select_rewritings(&self.db, &self.registry, &self.options, plan);
        let needed = needed_views(&selected);
        // Fast path: all needed views already published — one lock-free
        // atomic load, then evaluate against the loaded snapshot (a
        // concurrent publication cannot change it underneath us).
        {
            let views = self.views.read();
            if needed.iter().all(|n| views.has_relation(n.as_str())) {
                return cite_selected(
                    &self.db,
                    &self.registry,
                    &self.options,
                    q,
                    &selected,
                    plan.partial,
                    &views,
                    stats,
                );
            }
        }
        // Slow path: copy-on-write materialization of the missing views,
        // published as a fresh snapshot (skipped when a racing writer
        // already published them); readers are never blocked.
        self.views
            .materialize_missing(&self.db, &self.registry, &needed)?;
        let views = self.views.read();
        cite_selected(
            &self.db,
            &self.registry,
            &self.options,
            q,
            &selected,
            plan.partial,
            &views,
            stats,
        )
    }

    /// Computes the citation for `q` (the paper's central operation),
    /// reusing a cached plan when one matches the query's signature
    /// (exactly, or modulo λ-parameter constants when the registry
    /// permits).
    ///
    /// ```
    /// use citesys_core::paper;
    /// use citesys_core::{CitationMode, CitationService};
    ///
    /// let service = CitationService::builder()
    ///     .database(paper::paper_database())
    ///     .registry(paper::paper_registry())
    ///     .mode(CitationMode::Formal)
    ///     .build()
    ///     .unwrap();
    /// let cited = service.cite(&paper::paper_query()).unwrap();
    /// // Two rewritings (the paper's Q1, Q2), min-size picks CV2·CV3.
    /// assert_eq!(cited.rewritings.len(), 2);
    /// let atoms: Vec<String> =
    ///     cited.tuples[0].atoms.iter().map(ToString::to_string).collect();
    /// assert_eq!(atoms, ["CV2", "CV3"]);
    /// ```
    pub fn cite(&self, q: &ConjunctiveQuery) -> Result<CitedAnswer, CiteError> {
        self.cite_spanned(q, &mut SpanSet::disabled())
    }

    /// [`cite`](Self::cite) with per-stage tracing spans: records
    /// `plan_lookup`, `rewrite` (on a plan-cache miss only) and `eval`
    /// into `spans`. With a disabled span set this **is** `cite` — the
    /// timers skip their clock reads, so the un-instrumented path pays
    /// only a branch.
    pub fn cite_spanned(
        &self,
        q: &ConjunctiveQuery,
        spans: &mut SpanSet,
    ) -> Result<CitedAnswer, CiteError> {
        let (plan, hit, shard) = self.plan_for_spanned(q, spans)?;
        let stats = if hit {
            Self::cached_stats(&plan, shard)
        } else {
            RewriteStats {
                plan_cache_shard: shard,
                ..plan.stats
            }
        };
        let eval = SpanTimer::start(spans.enabled());
        let cited = self.cite_with_plan(q, &plan, stats);
        spans.record_micros("eval", eval.elapsed_micros());
        cited
    }

    /// Runs the rewriting search for `q` once (or reuses a cached plan)
    /// and returns a handle that re-cites without ever searching again.
    ///
    /// Preparation fails fast with [`CiteError::NoRewriting`] when the
    /// query is not coverable, rather than deferring the error to
    /// execution time.
    pub fn prepare(&self, q: &ConjunctiveQuery) -> Result<PreparedCitation, CiteError> {
        let (plan, _, shard) = self.plan_for(q)?;
        if plan.rewritings.is_empty() {
            return Err(CiteError::NoRewriting {
                query: q.to_string(),
            });
        }
        Ok(PreparedCitation {
            service: self.clone(),
            query: q.clone(),
            plan,
            shard,
        })
    }
}

// ---------------------------------------------------------------------------
// Prepared citations
// ---------------------------------------------------------------------------

/// A query whose rewriting plan has been computed once and pinned.
///
/// [`execute`](Self::execute) skips the rewriting search entirely — its
/// [`CitedAnswer::rewrite_stats`] always report `plan_cache_hits == 1` and
/// zero search effort. The handle snapshots the service's database; data
/// updates happen through a [`Store`](crate::store::Store), whose
/// services re-prepare cheaply thanks to the shared plan cache.
#[derive(Clone, Debug)]
pub struct PreparedCitation {
    service: CitationService,
    query: ConjunctiveQuery,
    plan: Arc<RewritePlan>,
    /// Plan-cache shard the plan lives in (reported in execute() stats).
    shard: usize,
}

impl PreparedCitation {
    /// The prepared query.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// The pinned rewrite plan.
    pub fn plan(&self) -> &RewritePlan {
        &self.plan
    }

    /// Evaluate + annotate against the service's snapshot, with zero
    /// rewriting-search work.
    pub fn execute(&self) -> Result<CitedAnswer, CiteError> {
        self.service.cite_with_plan(
            &self.query,
            &self.plan,
            CitationService::cached_stats(&self.plan, self.shard),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use crate::policy::{PolicySet, RewritePolicy};
    use citesys_cq::parse_query;

    // Compile-time assertions: the service types are thread-safe and the
    // service is cheap to share.
    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CitationService>();
        assert_send_sync::<PreparedCitation>();
        assert_send_sync::<PlanCache>();
    };

    fn service(mode: CitationMode) -> CitationService {
        CitationService::builder()
            .database(paper::paper_database())
            .registry(paper::paper_registry())
            .mode(mode)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_requires_database_and_registry() {
        let e = CitationService::builder().build().unwrap_err();
        assert!(matches!(e, CiteError::ServiceConfig { .. }), "{e}");
        let e = CitationService::builder()
            .database(paper::paper_database())
            .build()
            .unwrap_err();
        assert!(e.to_string().contains("registry"), "{e}");
    }

    #[test]
    fn builder_accepts_arc_and_owned() {
        let db = std::sync::Arc::new(paper::paper_database());
        let svc = CitationService::builder()
            .database(std::sync::Arc::clone(&db))
            .registry(paper::paper_registry())
            .options(EngineOptions {
                policies: PolicySet {
                    rewritings: RewritePolicy::Union,
                    ..Default::default()
                },
                allow_partial: true,
                ..Default::default()
            })
            .build()
            .unwrap();
        assert!(svc.options().allow_partial);
    }

    #[test]
    fn service_matches_engine_results() {
        let expected = crate::engine::cite_uncached(
            &paper::paper_database(),
            &paper::paper_registry(),
            &EngineOptions {
                mode: CitationMode::Formal,
                ..Default::default()
            },
            &paper::paper_query(),
        )
        .unwrap();
        let svc = service(CitationMode::Formal);
        let got = svc.cite(&paper::paper_query()).unwrap();
        assert_eq!(got.answer, expected.answer);
        assert_eq!(got.tuples[0].atoms, expected.tuples[0].atoms);
        assert_eq!(got.tuples[0].expr(), expected.tuples[0].expr());
    }

    #[test]
    fn repeat_cite_hits_plan_cache_with_zero_search() {
        let svc = service(CitationMode::Formal);
        let first = svc.cite(&paper::paper_query()).unwrap();
        assert_eq!(first.rewrite_stats.plan_cache_hits, 0);
        assert!(first.rewrite_stats.search_effort() > 0);
        let second = svc.cite(&paper::paper_query()).unwrap();
        assert_eq!(second.rewrite_stats.plan_cache_hits, 1);
        assert_eq!(second.rewrite_stats.search_effort(), 0);
        assert_eq!(second.rewrite_stats.rewritings_found, 2);
        assert_eq!(first.tuples[0].atoms, second.tuples[0].atoms);
        let stats = svc.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn prepared_execution_never_searches() {
        let svc = service(CitationMode::Formal);
        let prepared = svc.prepare(&paper::paper_query()).unwrap();
        assert_eq!(prepared.plan().rewritings.len(), 2);
        for _ in 0..3 {
            let cited = prepared.execute().unwrap();
            assert_eq!(cited.rewrite_stats.plan_cache_hits, 1);
            assert_eq!(cited.rewrite_stats.search_effort(), 0);
            assert_eq!(cited.answer.len(), 1);
        }
    }

    #[test]
    fn lambda_parameterized_repeats_share_one_plan() {
        let svc = service(CitationMode::Formal);
        // The same query shape at three different λ-constants: one search.
        for fid in [11, 12, 13] {
            let q = parse_query(&format!(
                "Q(N) :- Family({fid}, N, D), FamilyIntro({fid}, T)"
            ))
            .unwrap();
            let cited = svc.cite(&q).unwrap();
            if fid == 11 {
                assert_eq!(cited.rewrite_stats.plan_cache_hits, 0);
                let expr = cited.tuples[0].expr().to_string();
                assert!(expr.contains("CV1(11)"), "{expr}");
            } else {
                assert_eq!(cited.rewrite_stats.plan_cache_hits, 1, "fid {fid} missed");
                assert_eq!(cited.rewrite_stats.search_effort(), 0);
            }
            if fid == 12 {
                // The transferred plan must be *instantiated* at 12, not 11.
                let expr = cited.tuples[0].expr().to_string();
                assert!(expr.contains("CV1(12)"), "{expr}");
                assert!(!expr.contains("CV1(11)"), "{expr}");
            }
        }
        let stats = svc.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!(svc.plan_cache().len(), 1, "one signature for all three");
    }

    #[test]
    fn distinct_constant_patterns_get_distinct_plans() {
        let svc = service(CitationMode::Formal);
        // Same shape but different equality pattern between the constants:
        // (11, 11) collapses to one placeholder, (11, 12) keeps two.
        let same = parse_query("Q(N) :- Family(11, N, D), FamilyIntro(11, T)").unwrap();
        let diff = parse_query("Q(N) :- Family(11, N, D), FamilyIntro(12, T)").unwrap();
        svc.cite(&same).unwrap();
        let second = svc.cite(&diff).unwrap();
        assert_eq!(
            second.rewrite_stats.plan_cache_hits, 0,
            "must not share a plan"
        );
        assert_eq!(svc.plan_cache().len(), 2);
    }

    #[test]
    fn alpha_renamed_query_shares_plan() {
        let svc = service(CitationMode::Formal);
        svc.cite(&paper::paper_query()).unwrap();
        let renamed = parse_query("Q(A) :- Family(B, A, C), FamilyIntro(B, E)").unwrap();
        let cited = svc.cite(&renamed).unwrap();
        assert_eq!(cited.rewrite_stats.plan_cache_hits, 1);
    }

    #[test]
    fn uncoverable_query_fails_and_caches_the_failure() {
        let svc = service(CitationMode::CostPruned);
        let q = parse_query("Q(P) :- Committee(F, P)").unwrap();
        for _ in 0..2 {
            let e = svc.cite(&q).unwrap_err();
            assert!(matches!(e, CiteError::NoRewriting { .. }));
        }
        // Second failure came from the cached empty plan.
        assert_eq!(svc.plan_cache_stats().hits, 1);
        assert!(matches!(
            svc.prepare(&q),
            Err(CiteError::NoRewriting { .. })
        ));
    }

    #[test]
    fn repeated_cites_reuse_plans_and_views() {
        let svc = service(CitationMode::Formal);
        for fid in [11, 12, 11, 13] {
            let q = parse_query(&format!(
                "Q(N) :- Family({fid}, N, D), FamilyIntro({fid}, T)"
            ))
            .unwrap();
            assert!(svc.cite(&q).is_ok());
        }
        let stats = svc.plan_cache_stats();
        assert_eq!(stats.misses, 1, "one search for all four cites");
        assert_eq!(stats.hits, 3);
    }

    #[test]
    fn plan_cache_lru_evicts() {
        // One shard: the exact single-LRU semantics.
        let cache = PlanCache::with_shards(2, 1);
        assert_eq!(cache.shard_count(), 1);
        cache.insert("a".into(), vec![], Arc::new(RewritePlan::empty()));
        cache.insert("b".into(), vec![], Arc::new(RewritePlan::empty()));
        assert!(cache.get("a", &[]).is_some()); // refresh a
        cache.insert("c".into(), vec![], Arc::new(RewritePlan::empty()));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("b", &[]).is_none(), "b was LRU");
        assert!(cache.get("a", &[]).is_some());
        assert!(cache.get("c", &[]).is_some());
        assert_eq!(cache.stats().evictions, 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn plan_cache_shards_stripe_entries_and_counters() {
        let cache = PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY);
        assert_eq!(cache.shard_count(), DEFAULT_PLAN_CACHE_SHARDS);
        // Spread enough distinct signatures that at least two shards see
        // traffic (probabilistically certain with 64 keys over 8 shards,
        // and deterministic for a fixed hasher).
        for i in 0..64 {
            let sig = format!("sig-{i}");
            assert!(cache.get(&sig, &[]).is_none());
            cache.insert(sig, vec![], Arc::new(RewritePlan::empty()));
        }
        assert_eq!(cache.len(), 64);
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard.len(), DEFAULT_PLAN_CACHE_SHARDS);
        let busy = per_shard.iter().filter(|s| s.misses > 0).count();
        assert!(busy >= 2, "expected striping, got {per_shard:?}");
        // Aggregate equals the shard sum, and lookups land on the shard
        // shard_of reports.
        let total: u64 = per_shard.iter().map(|s| s.misses).sum();
        assert_eq!(cache.stats().misses, total);
        let shard = cache.shard_of("sig-0");
        let hits_before = cache.shard_stats()[shard].hits;
        assert!(cache.get("sig-0", &[]).is_some());
        assert_eq!(cache.shard_stats()[shard].hits, hits_before + 1);
    }

    #[test]
    fn plan_cache_capacity_clamps_shards() {
        let cache = PlanCache::with_shards(2, 8);
        assert_eq!(cache.shard_count(), 2, "shards clamped to capacity");
        let cache = PlanCache::with_shards(0, 0);
        assert_eq!(cache.shard_count(), 1);
        assert_eq!(cache.capacity(), 1);
    }

    #[test]
    fn plan_cache_capacity_reports_effective_total() {
        // 10 requested over 8 shards rounds up to 2 per shard: the cache
        // can genuinely hold 16, and capacity() must say so — len() may
        // never exceed capacity().
        let cache = PlanCache::with_shards(10, 8);
        assert_eq!(cache.shard_count(), 8);
        assert_eq!(cache.capacity(), 16);
        for i in 0..200 {
            cache.insert(format!("sig-{i}"), vec![], Arc::new(RewritePlan::empty()));
            assert!(
                cache.len() <= cache.capacity(),
                "len {} exceeded capacity {}",
                cache.len(),
                cache.capacity()
            );
        }
        // An evenly divisible request is exact.
        assert_eq!(PlanCache::with_shards(16, 8).capacity(), 16);
        // One shard preserves the requested capacity exactly.
        assert_eq!(PlanCache::with_shards(10, 1).capacity(), 10);
    }

    #[test]
    fn plan_cache_text_crlf_round_trip() {
        // A plans file edited on Windows: CRLF endings (and a lost final
        // newline) must neither fail to load nor corrupt the stored
        // signatures — the reloaded cache has to keep serving hits.
        let svc = service(CitationMode::Formal);
        svc.cite(&paper::paper_query()).unwrap();
        let q11 = parse_query("Q(N) :- Family(11, N, D), FamilyIntro(11, T)").unwrap();
        svc.cite(&q11).unwrap();
        let crlf = svc.plan_cache().to_text().replace('\n', "\r\n");
        let crlf = crlf.trim_end_matches('\n').to_string(); // EOF without newline

        let warm = service(CitationMode::Formal);
        assert_eq!(warm.plan_cache().load_text(&crlf).unwrap(), 2);
        let cited = warm.cite(&paper::paper_query()).unwrap();
        assert_eq!(
            cited.rewrite_stats.plan_cache_hits, 1,
            "signature survived CRLF round-trip"
        );
        assert_eq!(cited.rewrite_stats.search_effort(), 0);
        // Trailing blank CRLF lines are tolerated too.
        let trailing = format!("{crlf}\r\n\r\n\r\n");
        let again = service(CitationMode::Formal);
        assert_eq!(again.plan_cache().load_text(&trailing).unwrap(), 2);
    }

    #[test]
    fn plan_cache_text_round_trip() {
        let svc = service(CitationMode::Formal);
        svc.cite(&paper::paper_query()).unwrap();
        let q11 = parse_query("Q(N) :- Family(11, N, D), FamilyIntro(11, T)").unwrap();
        svc.cite(&q11).unwrap();
        let text = svc.plan_cache().to_text();

        // A fresh service loads the file and cites with zero search work.
        let warm = service(CitationMode::Formal);
        let loaded = warm.plan_cache().load_text(&text).unwrap();
        assert_eq!(loaded, 2);
        assert_eq!(warm.plan_cache().len(), 2);
        let cited = warm.cite(&paper::paper_query()).unwrap();
        assert_eq!(cited.rewrite_stats.plan_cache_hits, 1, "loaded plan hit");
        assert_eq!(cited.rewrite_stats.search_effort(), 0);
        // λ-transfer still works through a loaded plan (constants survive).
        let q12 = parse_query("Q(N) :- Family(12, N, D), FamilyIntro(12, T)").unwrap();
        let cited = warm.cite(&q12).unwrap();
        assert_eq!(cited.rewrite_stats.plan_cache_hits, 1);
        let expr = cited.tuples[0].expr().to_string();
        assert!(expr.contains("CV1(12)"), "{expr}");
    }

    #[test]
    fn plan_cache_text_rejects_malformed() {
        let cache = PlanCache::new(4);
        assert!(cache.load_text("").is_err());
        assert!(cache.load_text("bogus header\n").is_err());
        assert!(cache
            .load_text("citesys-plan-cache v1\nentry\nno sig\n")
            .is_err());
        assert!(cache
            .load_text("citesys-plan-cache v1\nentry\nsig s\nconst q 1\nend\n")
            .is_err());
        assert!(
            cache
                .load_text("citesys-plan-cache v1\nentry\nsig s\ncitesys-rewrite-plan v1\n")
                .is_err(),
            "unterminated entry"
        );
        // Untouched on failure paths that never reached insert.
        assert!(cache.is_empty());
    }

    #[test]
    fn view_constants_disable_plan_transfer() {
        // A registry whose view pins a constant: plans must not transfer
        // across constants (the rewriting genuinely depends on the value).
        let db = paper::paper_database();
        let mut reg = crate::registry::CitationRegistry::new();
        reg.add(
            crate::registry::CitationView::new(
                parse_query("V11(N) :- Family(11, N, D)").unwrap(),
                vec![crate::snippet::CitationQuery::new(
                    parse_query("CV11(F) :- Family(F, N, D)").unwrap(),
                )],
                crate::snippet::CitationFunction::new(),
            )
            .unwrap(),
        )
        .unwrap();
        let svc = CitationService::builder()
            .database(db)
            .registry(reg)
            .mode(CitationMode::Formal)
            .build()
            .unwrap();
        assert!(!svc.generalize_constants);
        let q11 = parse_query("Q(N) :- Family(11, N, D)").unwrap();
        let q13 = parse_query("Q(N) :- Family(13, N, D)").unwrap();
        assert!(svc.cite(&q11).is_ok(), "covered by the pinned view");
        // A different constant is NOT covered — with plan transfer this
        // would wrongly reuse q11's plan.
        assert!(matches!(svc.cite(&q13), Err(CiteError::NoRewriting { .. })));
    }

    #[test]
    fn concurrent_cites_share_caches() {
        let svc = service(CitationMode::Formal);
        svc.cite(&paper::paper_query()).unwrap(); // warm
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let svc = svc.clone();
                std::thread::spawn(move || {
                    let cited = svc.cite(&paper::paper_query()).unwrap();
                    assert_eq!(cited.rewrite_stats.plan_cache_hits, 1);
                    cited.tuples[0].atoms.len()
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), 2);
        }
        assert_eq!(svc.plan_cache_stats().hits, 4);
    }

    #[test]
    fn with_database_keeps_plans_drops_views() {
        let svc = service(CitationMode::Formal);
        svc.cite(&paper::paper_query()).unwrap();
        // New snapshot with one more intro: Dopamine becomes visible.
        let mut db2 = paper::paper_database();
        db2.insert("FamilyIntro", citesys_storage::tuple![13, "3rd"])
            .unwrap();
        let svc2 = svc.with_database(db2);
        let cited = svc2.cite(&paper::paper_query()).unwrap();
        assert_eq!(
            cited.rewrite_stats.plan_cache_hits, 1,
            "plan survived the swap"
        );
        assert_eq!(cited.answer.len(), 2, "fresh snapshot data is visible");
    }

    #[test]
    fn signature_modulo_constants() {
        let a = parse_query("Q(N) :- Family(11, N, D)").unwrap();
        let b = parse_query("Q(N) :- Family(12, N, D)").unwrap();
        let c = parse_query("Q(N) :- Family('x', N, D)").unwrap();
        let (sa, ca) = plan_signature(&a, true);
        let (sb, cb) = plan_signature(&b, true);
        let (sc, _) = plan_signature(&c, true);
        assert_eq!(sa, sb, "same shape, same signature");
        assert_ne!(ca, cb, "different constant vectors");
        assert_ne!(sa, sc, "type-distinct constants get distinct signatures");
        let (ea, _) = plan_signature(&a, false);
        let (eb, _) = plan_signature(&b, false);
        assert_ne!(ea, eb, "exact mode embeds the constants");
    }
}
