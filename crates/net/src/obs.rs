//! Observability wiring for the serving layer.
//!
//! [`StoreObs`] is the registry-backed instrument bundle every
//! [`SharedStore`] owns: the write-path and
//! replication counters the `stats` command prints (one source of
//! truth — `stats` and `metrics` read the same atomics), the per-stage
//! cite latency histograms (`parse → plan_lookup → rewrite → eval →
//! digest → render`), the durability timings (WAL fsync, checkpoint,
//! snapshot swap, commit, group window) and the transport disconnect
//! counters. Recording is lock-free (relaxed atomics on `Arc`'d
//! instruments); the transports clone the bundle out of the store lock
//! once and never lock to count.
//!
//! The same bundle feeds three consumers:
//!
//! * the `metrics` wire/script command (Prometheus text exposition),
//! * `serve --metrics <addr>` — [`spawn_metrics_server`], a minimal
//!   `std::net` HTTP responder serving `GET /metrics`,
//! * `--slow-cite-ms <n>` — the slow-cite log, one stderr line per
//!   over-threshold cite with its span breakdown.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use citesys_obs::{Counter, Gauge, Histogram, Registry, SpanSet};
use parking_lot::Mutex;

use crate::script::SharedStore;

/// The pipeline stages that get their own latency histogram, in span
/// taxonomy order (`parse` is recorded by the transports; the rest by
/// the cite path).
pub const CITE_STAGES: &[&str] = &[
    "parse",
    "plan_lookup",
    "rewrite",
    "eval",
    "digest",
    "render",
];

/// One store's registry-backed instruments. Cloning shares every
/// instrument (all `Arc`s), so transports and the group committer hold
/// copies and record without touching the store lock.
#[derive(Clone)]
pub struct StoreObs {
    registry: Arc<Registry>,
    /// Commit requests acknowledged (one per `commit` command).
    pub commits: Arc<Counter>,
    /// Delta-maintained service snapshot publications. Under group
    /// commit many commits share one swap, so this stays **below**
    /// `commits` when concurrent transactions coalesce.
    pub snapshot_swaps: Arc<Counter>,
    /// Group-commit windows processed by the committer thread.
    pub group_windows: Arc<Counter>,
    /// Largest number of transactions merged into one window.
    pub largest_group: Arc<Gauge>,
    /// Cold service (re)builds — cites that could not reuse the cached
    /// snapshot service.
    pub service_builds: Arc<Counter>,
    /// Replication feeds currently attached (primary side).
    pub replicas_connected: Arc<Gauge>,
    /// WAL-equivalent records shipped to followers, summed over every
    /// feed this store ever served (primary side).
    pub replica_records_shipped: Arc<Counter>,
    /// Versions the primary is known to be ahead of this follower
    /// (follower side; 0 when caught up or not following).
    pub replica_lag_versions: Arc<Gauge>,
    /// Shipped records received but not yet applied locally (follower
    /// side; nonzero only transiently while a record is mid-apply).
    pub replica_lag_records: Arc<Gauge>,
    /// Times the follower lost its primary and entered backoff
    /// (follower side).
    pub replica_reconnects: Arc<Counter>,
    // Transport disconnect accounting (both transports).
    pub(crate) disconnects_idle: Arc<Counter>,
    pub(crate) disconnects_oversized: Arc<Counter>,
    // Slow-cite log.
    pub(crate) slow_cites: Arc<Counter>,
    // Rewriting tuples the direct answer lacked (left uncited; 0 unless
    // the engine is wrong).
    pub(crate) cite_unmatched_tuples: Arc<Counter>,
    // Streaming bulk ingestion.
    pub(crate) ingest_records: Arc<Counter>,
    pub(crate) ingest_batches: Arc<Counter>,
    pub(crate) ingest_batch_seconds: Arc<Histogram>,
    // Latency histograms.
    pub(crate) cite_seconds: Arc<Histogram>,
    stage_parse: Arc<Histogram>,
    stage_plan_lookup: Arc<Histogram>,
    stage_rewrite: Arc<Histogram>,
    stage_eval: Arc<Histogram>,
    stage_digest: Arc<Histogram>,
    stage_render: Arc<Histogram>,
    pub(crate) commit_seconds: Arc<Histogram>,
    pub(crate) wal_fsync_seconds: Arc<Histogram>,
    pub(crate) checkpoint_seconds: Arc<Histogram>,
    pub(crate) snapshot_swap_seconds: Arc<Histogram>,
    pub(crate) group_window_seconds: Arc<Histogram>,
    // Scrape-time mirrors: counters/gauges whose source of truth is an
    // existing atomic elsewhere (plan-cache shards, view cache, WAL);
    // `SharedStore::render_metrics` refreshes them just before render.
    pub(crate) plan_cache_hits: Arc<Counter>,
    pub(crate) plan_cache_misses: Arc<Counter>,
    pub(crate) plan_cache_evictions: Arc<Counter>,
    pub(crate) view_materializations: Arc<Counter>,
    pub(crate) view_deltas_applied: Arc<Counter>,
    pub(crate) wal_records: Arc<Gauge>,
    pub(crate) history_base_version: Arc<Gauge>,
    pub(crate) checkpoints_retained: Arc<Gauge>,
    pub(crate) latest_version: Arc<Gauge>,
}

impl Default for StoreObs {
    fn default() -> Self {
        Self::new()
    }
}

impl StoreObs {
    /// A fresh registry with every instrument pre-registered (so a
    /// scrape before any traffic still shows the full metric surface).
    pub fn new() -> Self {
        let r = Registry::new();
        let stage = |s: &str| {
            r.histogram_with(
                "citesys_cite_stage_seconds",
                "Per-stage cite pipeline latency",
                &[("stage", s)],
            )
        };
        StoreObs {
            commits: r.counter("citesys_commits_total", "Commit requests acknowledged"),
            snapshot_swaps: r.counter(
                "citesys_snapshot_swaps_total",
                "Delta-maintained service snapshot publications",
            ),
            group_windows: r.counter(
                "citesys_group_windows_total",
                "Group-commit windows processed",
            ),
            largest_group: r.gauge(
                "citesys_group_largest",
                "Largest number of transactions merged into one commit window",
            ),
            service_builds: r.counter(
                "citesys_service_builds_total",
                "Cold citation-service (re)builds",
            ),
            replicas_connected: r.gauge(
                "citesys_replicas_connected",
                "Replication feeds currently attached (primary side)",
            ),
            replica_records_shipped: r.counter(
                "citesys_replica_records_shipped_total",
                "WAL records shipped to followers (primary side)",
            ),
            replica_lag_versions: r.gauge(
                "citesys_replica_lag_versions",
                "Versions the primary is ahead of this follower",
            ),
            replica_lag_records: r.gauge(
                "citesys_replica_lag_records",
                "Shipped records received but not yet applied (follower side)",
            ),
            replica_reconnects: r.counter(
                "citesys_replica_reconnects_total",
                "Times the follower lost its primary and entered backoff",
            ),
            disconnects_idle: r.counter_with(
                "citesys_disconnects_total",
                "Sessions closed by the server, by reason",
                &[("reason", "idle")],
            ),
            disconnects_oversized: r.counter_with(
                "citesys_disconnects_total",
                "Sessions closed by the server, by reason",
                &[("reason", "oversized")],
            ),
            slow_cites: r.counter(
                "citesys_slow_cites_total",
                "Cites over the --slow-cite-ms threshold",
            ),
            cite_unmatched_tuples: r.counter(
                "citesys_cite_unmatched_tuples_total",
                "Rewriting tuples absent from the direct answer, left uncited (0 unless the engine is wrong)",
            ),
            ingest_records: r.counter(
                "citesys_ingest_records_total",
                "Records committed by streaming bulk ingestion",
            ),
            ingest_batches: r.counter(
                "citesys_ingest_batches_total",
                "Batches committed by streaming bulk ingestion",
            ),
            ingest_batch_seconds: r.histogram(
                "citesys_ingest_batch_seconds",
                "Per-batch ingest latency: parse through commit acknowledgement",
            ),
            cite_seconds: r.histogram("citesys_cite_seconds", "End-to-end cite latency"),
            stage_parse: stage("parse"),
            stage_plan_lookup: stage("plan_lookup"),
            stage_rewrite: stage("rewrite"),
            stage_eval: stage("eval"),
            stage_digest: stage("digest"),
            stage_render: stage("render"),
            commit_seconds: r.histogram(
                "citesys_commit_seconds",
                "Commit latency: WAL append+fsync through snapshot swap",
            ),
            wal_fsync_seconds: r.histogram(
                "citesys_wal_fsync_seconds",
                "Write-ahead-log append + fsync latency per commit",
            ),
            checkpoint_seconds: r
                .histogram("citesys_checkpoint_seconds", "Checkpoint write latency"),
            snapshot_swap_seconds: r.histogram(
                "citesys_snapshot_swap_seconds",
                "Batch delta maintenance + service publication latency",
            ),
            group_window_seconds: r.histogram(
                "citesys_group_window_seconds",
                "Group-commit window processing latency",
            ),
            plan_cache_hits: r.counter(
                "citesys_plan_cache_hits_total",
                "Plan-cache lookups answered from the cache (strict cache)",
            ),
            plan_cache_misses: r.counter(
                "citesys_plan_cache_misses_total",
                "Plan-cache lookups that ran a fresh rewriting search (strict cache)",
            ),
            plan_cache_evictions: r.counter(
                "citesys_plan_cache_evictions_total",
                "Plan-cache entries evicted by the LRU policy (strict cache)",
            ),
            view_materializations: r.counter(
                "citesys_view_materializations_total",
                "Views materialized from scratch",
            ),
            view_deltas_applied: r.counter(
                "citesys_view_deltas_applied_total",
                "Views carried across an update by delta maintenance",
            ),
            wal_records: r.gauge(
                "citesys_wal_records",
                "Write-ahead-log records since the last checkpoint",
            ),
            history_base_version: r.gauge(
                "citesys_history_base_version",
                "Oldest version time-travel cites can currently serve",
            ),
            checkpoints_retained: r.gauge(
                "citesys_checkpoints_retained",
                "Live checkpoint plus retained time-travel anchors",
            ),
            latest_version: r.gauge("citesys_latest_version", "Latest committed version"),
            registry: Arc::new(r),
        }
    }

    /// Whether latency timings (histograms + span clock reads) are on.
    pub fn timings_enabled(&self) -> bool {
        self.registry.timings_enabled()
    }

    /// Turns latency timings on or off. Counters and gauges — the
    /// `stats` command's source of truth — are unaffected.
    pub fn set_timings_enabled(&self, enabled: bool) {
        self.registry.set_timings_enabled(enabled);
    }

    /// Renders the registry in Prometheus text exposition format.
    pub fn render(&self) -> String {
        self.registry.render()
    }

    /// Records one traced cite: the end-to-end latency plus every
    /// recorded stage span into its stage histogram.
    pub(crate) fn observe_cite(&self, total_us: u64, spans: &SpanSet) {
        self.cite_seconds.observe_micros(total_us);
        for (name, us) in spans.spans() {
            self.observe_stage(name, *us);
        }
    }

    /// Records the durability spans of one store write — `wal_fsync`,
    /// `snapshot_swap`, `checkpoint` — into their histograms.
    pub(crate) fn observe_write(&self, spans: &SpanSet) {
        for (name, us) in spans.spans() {
            let hist = match *name {
                "wal_fsync" => &self.wal_fsync_seconds,
                "snapshot_swap" => &self.snapshot_swap_seconds,
                "checkpoint" => &self.checkpoint_seconds,
                _ => continue,
            };
            hist.observe_micros(*us);
        }
    }

    /// Records `us` against the named pipeline stage (unknown stages
    /// are ignored — the span taxonomy is the contract).
    pub(crate) fn observe_stage(&self, stage: &str, us: u64) {
        let hist = match stage {
            "parse" => &self.stage_parse,
            "plan_lookup" => &self.stage_plan_lookup,
            "rewrite" => &self.stage_rewrite,
            "eval" => &self.stage_eval,
            "digest" => &self.stage_digest,
            "render" => &self.stage_render,
            _ => return,
        };
        hist.observe_micros(us);
    }
}

/// Formats one slow-cite log line: total latency, the per-stage span
/// breakdown in pipeline order, plan-cache hit/miss, the cited version
/// and the query. Stable single-line shape (`slow-cite …`) so smoke
/// scripts can grep it.
pub(crate) fn slow_cite_line(total_us: u64, spans: &SpanSet, version: u64, query: &str) -> String {
    let ms = |us: u64| format!("{}.{:03}ms", us / 1000, us % 1000);
    let mut line = format!("slow-cite total={}", ms(total_us));
    for stage in CITE_STAGES {
        if let Some(us) = spans.get(stage) {
            line.push_str(&format!(" {stage}={}", ms(us)));
        }
    }
    // A traced cite that never ran the rewriting search was served from
    // the plan cache.
    let hit = spans.get("rewrite").is_none();
    line.push_str(if hit {
        " plan_cache=hit"
    } else {
        " plan_cache=miss"
    });
    line.push_str(&format!(" version={version} query=\"{query}\""));
    line
}

/// How often the scrape listener wakes to notice shutdown.
const SCRAPE_TICK: Duration = Duration::from_millis(50);

/// Per-request socket budget: a scraper that stalls mid-request is cut
/// off rather than pinning the responder thread.
const SCRAPE_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Spawns the `serve --metrics <addr>` scrape endpoint: a minimal
/// `std::net` HTTP/1.1 responder answering `GET /metrics` (and `GET /`)
/// with the store's Prometheus text exposition
/// (`Content-Type: text/plain; version=0.0.4`), `404` elsewhere, one
/// request per connection (`Connection: close`). Returns the bound
/// address and the responder thread (joined at server teardown after
/// `shutdown` flips).
pub fn spawn_metrics_server(
    addr: &str,
    shared: Arc<Mutex<SharedStore>>,
    shutdown: Arc<AtomicBool>,
) -> io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    let handle = std::thread::Builder::new()
        .name("citesys-metrics".into())
        .spawn(move || {
            while !shutdown.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => serve_scrape(stream, &shared),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(SCRAPE_TICK);
                    }
                    Err(_) => std::thread::sleep(SCRAPE_TICK),
                }
            }
        })?;
    Ok((bound, handle))
}

/// One scrape: read the request head, answer, close. Errors just drop
/// the connection — a scraper retry is cheaper than server state.
fn serve_scrape(mut stream: std::net::TcpStream, shared: &Mutex<SharedStore>) {
    let _ = stream.set_read_timeout(Some(SCRAPE_IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SCRAPE_IO_TIMEOUT));
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    // Read until the blank line ending the request head (or a cap — the
    // endpoint takes no bodies).
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 4096 {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(_) => return,
        }
    }
    let request = String::from_utf8_lossy(&head);
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = if method != "GET" {
        ("405 Method Not Allowed", "method not allowed\n".to_string())
    } else if path == "/metrics" || path == "/" {
        ("200 OK", shared.lock().render_metrics())
    } else {
        ("404 Not Found", "not found\n".to_string())
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_obs_prerendered_surface() {
        let obs = StoreObs::new();
        let text = obs.render();
        for family in [
            "citesys_commits_total",
            "citesys_cite_seconds",
            "citesys_cite_stage_seconds",
            "citesys_wal_fsync_seconds",
            "citesys_replica_lag_versions",
            "citesys_disconnects_total",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family}")),
                "{family} missing"
            );
        }
        // Every stage label is pre-registered.
        for stage in CITE_STAGES {
            assert!(
                text.contains(&format!("stage=\"{stage}\"")),
                "stage {stage} missing"
            );
        }
    }

    #[test]
    fn observe_cite_feeds_stage_histograms() {
        let obs = StoreObs::new();
        let mut spans = SpanSet::new(true);
        spans.record_micros("plan_lookup", 5);
        spans.record_micros("rewrite", 500);
        spans.record_micros("eval", 100);
        obs.observe_cite(700, &spans);
        assert_eq!(obs.cite_seconds.count(), 1);
        let text = obs.render();
        assert!(text.contains("citesys_cite_stage_seconds_count{stage=\"rewrite\"} 1"));
        assert!(text.contains("citesys_cite_stage_seconds_count{stage=\"render\"} 0"));
    }

    #[test]
    fn slow_cite_line_shape() {
        let mut spans = SpanSet::new(true);
        spans.record_micros("plan_lookup", 12);
        spans.record_micros("eval", 1500);
        let line = slow_cite_line(2048, &spans, 7, "Q(A) :- R(A)");
        assert!(line.starts_with("slow-cite total=2.048ms"), "{line}");
        assert!(line.contains("plan_lookup=0.012ms"), "{line}");
        assert!(line.contains("eval=1.500ms"), "{line}");
        assert!(line.contains("plan_cache=hit"), "{line}");
        assert!(line.contains("version=7"), "{line}");
        assert!(line.contains("query=\"Q(A) :- R(A)\""), "{line}");
        spans.record_micros("rewrite", 99);
        assert!(slow_cite_line(1, &spans, 1, "q").contains("plan_cache=miss"));
    }
}
