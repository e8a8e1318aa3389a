//! Shapes what a run measured into named metrics and JSON; for a traced
//! run, hands the logged requests to the `layers` binary and derives the
//! rows that make the layers add up to the wire number.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::process::Command;

use crate::run::{Outcome, Sample, Span, Workload, WINDOWS};

pub struct Metric {
    name: &'static str,
    /// `None`: not measured (the layer probes did not build, or the
    /// server does not export the series).
    value: Option<f64>,
    unit: &'static str,
    n: u64,
}

pub struct RunResult {
    pub correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl RunResult {
    /// Every metric with value, unit and sample count, plus run facts.
    pub fn long_json(&self, workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = match m.value {
                    Some(v) if v.is_finite() => v.to_string(),
                    _ => "null".to_string(),
                };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}, \"n\": {}}}",
                    json_string(m.name),
                    json_string(m.unit),
                    m.n
                )
            })
            .collect();
        let notes: Vec<String> = self.notes.iter().map(|n| json_string(n)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \
             \"notes\": [{}]}}",
            json_string(workload),
            u8::from(trace),
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", "),
            notes.join(", ")
        )
    }

    /// The contract's last line. It has no way to say "not measured", so
    /// such a metric reads 0 here and `null` in the long form.
    pub fn short_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = m.value.filter(|v| v.is_finite()).unwrap_or(0.0);
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json_string(m.name),
                    json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Below this many samples per window a window's percentiles mean
/// little; the phase is then taken whole (the short commit tail of the
/// read-only workloads).
const MIN_PER_WINDOW: usize = 20;

/// Nearest-rank percentile of sorted nanosecond latencies, in ms.
fn percentile_ms(sorted_ns: &[u64], q: f64) -> Option<f64> {
    if sorted_ns.is_empty() {
        return None;
    }
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    Some(sorted_ns[rank - 1] as f64 / 1e6)
}

fn median(mut xs: Vec<f64>) -> Option<f64> {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(xs[n / 2]),
        _ => Some((xs[n / 2 - 1] + xs[n / 2]) / 2.0),
    }
}

/// Median-window p50, p90, p99 (ms) and completions per second of one
/// phase, which began at `start_ns` and lasted `seconds`.
struct PhaseStats {
    p50: Option<f64>,
    p90: Option<f64>,
    p99: Option<f64>,
    per_s: Option<f64>,
    n: u64,
}

fn phase_stats(samples: &[Sample], (start_ns, seconds): (u64, f64)) -> PhaseStats {
    let windows = if samples.len() >= WINDOWS * MIN_PER_WINDOW {
        WINDOWS
    } else {
        1
    };
    let width = seconds * 1e9 / windows as f64;
    let mut cut: Vec<Vec<u64>> = vec![Vec::new(); windows];
    for s in samples {
        // A request in flight when the phase ended completes just after it.
        let w = (s.done_ns.saturating_sub(start_ns) as f64 / width) as usize;
        cut[w.min(windows - 1)].push(s.latency_ns);
    }
    for w in &mut cut {
        w.sort_unstable();
    }
    let over =
        |f: &dyn Fn(&[u64]) -> Option<f64>| median(cut.iter().filter_map(|w| f(w)).collect());
    PhaseStats {
        p50: over(&|w| percentile_ms(w, 0.50)),
        p90: over(&|w| percentile_ms(w, 0.90)),
        p99: over(&|w| percentile_ms(w, 0.99)),
        per_s: over(&|w| Some(w.len() as f64 / (width / 1e9))),
        n: samples.len() as u64,
    }
}

fn facts(outcome: &Outcome) -> Vec<String> {
    vec![
        format!("{} tuples ingested", outcome.tuples),
        format!(
            "plan-cache hit ratio {:.4} over the measured phase",
            outcome.plan_cache_hit_ratio
        ),
        format!(
            "ad-hoc shape space {} (plan cache holds 256)",
            outcome.adhoc_shapes
        ),
        format!(
            "{} core(s) for server and load generator together",
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ),
    ]
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(outcome: &Outcome) -> RunResult {
    let cites = phase_stats(&outcome.cite_ns, outcome.measured);
    let commits = phase_stats(&outcome.commit_ns, outcome.commit_phase);
    let metric = |name, value, unit, n| Metric {
        name,
        value,
        unit,
        n,
    };
    let ok_share = 1.0 - outcome.failed as f64 / outcome.attempted.max(1) as f64;
    let metrics = vec![
        metric(
            "setup_s",
            median(outcome.setup_s.clone()),
            "s",
            outcome.setup_s.len() as u64,
        ),
        metric("cite_p50_ms", cites.p50, "ms", cites.n),
        metric("cite_p90_ms", cites.p90, "ms", cites.n),
        metric("cites_per_s", cites.per_s, "1/s", cites.n),
        metric("commit_p50_ms", commits.p50, "ms", commits.n),
        metric("commit_p90_ms", commits.p90, "ms", commits.n),
        metric("commits_per_s", commits.per_s, "1/s", commits.n),
        metric("rss_peak_mb", Some(outcome.rss_peak_mb), "MB", 1),
        metric(
            "restart_s",
            median(outcome.restart_s.clone()),
            "s",
            outcome.restart_s.len() as u64,
        ),
        metric("data_dir_mb", Some(outcome.data_dir_mb), "MB", 1),
        metric("ok_share", Some(ok_share), "share", outcome.attempted),
    ];
    let measured = metrics.iter().all(|m| m.value.is_some());
    RunResult {
        correct: outcome.failed == 0 && measured,
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        metrics,
        notes: facts(outcome),
    }
}

/// Per-layer metric names and units, in report order. `selftest.sh`
/// holds this list against BENCHMARK.json.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("wire.cite_p50_ms", "ms"),
    ("wire.cite_p99_ms", "ms"),
    ("wire.commit_p50_ms", "ms"),
    ("net.unattributed_us", "us"),
    ("net.session_line_us", "us"),
    ("net.session_self_us", "us"),
    ("net.parse_command_us", "us"),
    ("net.frame_us", "us"),
    ("core.cite_us", "us"),
    ("core.cite_self_us", "us"),
    ("core.plan_cache_hit_ratio", "ratio"),
    ("core.format_citation_us", "us"),
    ("cq.parse_query_us", "us"),
    ("rewrite.rewrite_us", "us"),
    ("rewrite.candidates_per_query", "count"),
    ("rewrite.equivalence_checks_per_query", "count"),
    ("rewrite.kept_ratio", "ratio"),
    ("storage.eval_us", "us"),
    ("storage.bindings_per_answer", "count"),
    ("storage.digest_answer_us", "us"),
    ("commit.unattributed_ms", "ms"),
    ("storage.apply_commit_us", "us"),
    ("storage.snapshot_us", "us"),
    ("storage.wal_append_us", "us"),
    ("storage.wal_bytes_per_commit", "B"),
    ("core.view_delta_us", "us"),
    ("core.view_rematerializations", "count"),
    ("core.cite_at_us", "us"),
    ("storage.checkpoint_write_us", "us"),
    ("storage.recover_us", "us"),
    ("ingest.csv_records_per_s", "1/s"),
    ("server.parse_mean_us", "us"),
    ("server.plan_lookup_mean_us", "us"),
    ("server.rewrite_mean_us", "us"),
    ("server.eval_mean_us", "us"),
    ("server.digest_mean_us", "us"),
    ("server.render_mean_us", "us"),
    ("server.commit_mean_us", "us"),
    ("server.wal_fsync_mean_us", "us"),
    ("server.snapshot_swap_mean_us", "us"),
    ("server.group_window_mean_us", "us"),
    ("server.checkpoint_mean_us", "us"),
];

/// `(row, whole, its factor, parts, their factor)`: the row is the whole
/// minus its parts, in the row's unit.
type Derived = (
    &'static str,
    &'static str,
    f64,
    &'static [&'static str],
    f64,
);

const DERIVED: &[Derived] = &[
    (
        "core.cite_self_us",
        "core.cite_us",
        1.0,
        &[
            "rewrite.rewrite_us",
            "storage.eval_us",
            "storage.digest_answer_us",
        ],
        1.0,
    ),
    (
        "net.session_self_us",
        "net.session_line_us",
        1.0,
        &[
            "net.parse_command_us",
            "core.cite_us",
            "core.format_citation_us",
        ],
        1.0,
    ),
    (
        "net.unattributed_us",
        "wire.cite_p50_ms",
        1000.0,
        &["net.session_line_us"],
        1.0,
    ),
    (
        "commit.unattributed_ms",
        "wire.commit_p50_ms",
        1.0,
        &[
            "storage.apply_commit_us",
            "storage.snapshot_us",
            "storage.wal_append_us",
            "core.view_delta_us",
        ],
        0.001,
    ),
];

/// `(sum of seconds, count)` of one histogram series in Prometheus text.
fn series(text: &str, family: &str, labels: &str) -> Option<(f64, f64)> {
    let find = |suffix: &str| {
        let prefix = format!("{family}_{suffix}{labels} ");
        text.lines()
            .find_map(|l| l.strip_prefix(prefix.as_str())?.trim().parse::<f64>().ok())
    };
    Some((find("sum")?, find("count")?))
}

/// Server-reported attribution: mean microseconds per observation over
/// the measured phase. These names belong to the program and may move, so
/// a missing series is "not measured", never an error.
fn server_means(before: &str, after: &str, found: &mut HashMap<String, (f64, u64)>) {
    let mut rows: Vec<(String, &str, String)> = Vec::new();
    for stage in [
        "parse",
        "plan_lookup",
        "rewrite",
        "eval",
        "digest",
        "render",
    ] {
        rows.push((
            format!("server.{stage}_mean_us"),
            "citesys_cite_stage_seconds",
            format!("{{stage=\"{stage}\"}}"),
        ));
    }
    for what in [
        "commit",
        "wal_fsync",
        "snapshot_swap",
        "group_window",
        "checkpoint",
    ] {
        rows.push((
            format!("server.{what}_mean_us"),
            match what {
                "commit" => "citesys_commit_seconds",
                "wal_fsync" => "citesys_wal_fsync_seconds",
                "snapshot_swap" => "citesys_snapshot_swap_seconds",
                "group_window" => "citesys_group_window_seconds",
                _ => "citesys_checkpoint_seconds",
            },
            String::new(),
        ));
    }
    for (name, family, labels) in rows {
        let (Some((s0, c0)), Some((s1, c1))) = (
            series(before, family, &labels),
            series(after, family, &labels),
        ) else {
            continue;
        };
        let count = c1 - c0;
        let mean_us = if count > 0.0 {
            (s1 - s0) / count * 1e6
        } else {
            0.0
        };
        found.insert(name, (mean_us, count as u64));
    }
}

fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut text = String::new();
    for s in spans {
        writeln!(
            text,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"id\": {}, \"parent\": null}}",
            s.name, s.start_ns, s.end_ns, s.id
        )
        .expect("String");
    }
    file.write_all(text.as_bytes())
}

/// Runs the `layers` binary over the logged requests; its stdout is one
/// `name<TAB>value<TAB>n` line per probe.
fn run_layers(
    outcome: &Outcome,
    layers: &Path,
    trace_file: &Path,
    seconds: f64,
    found: &mut HashMap<String, (f64, u64)>,
) -> Result<(), String> {
    let replay = outcome
        .replay_store
        .as_ref()
        .ok_or("no replay store was kept")?;
    if !layers.is_file() {
        return Err(format!(
            "layers build failed: {} does not exist (see run.sh output)",
            layers.display()
        ));
    }
    let mut requests = String::new();
    for (id, line) in &outcome.replay_cites {
        writeln!(requests, "cite\t{id}\t{line}").expect("String");
    }
    for (id, ops) in &outcome.replay_txns {
        writeln!(requests, "txn\t{id}\t{}", ops.join("\t")).expect("String");
    }
    let file = replay.join("requests.tsv");
    fs::write(&file, requests).map_err(|e| e.to_string())?;
    let out = Command::new(layers)
        .arg("--store")
        .arg(replay.join("data"))
        .arg("--session-store")
        .arg(replay.join("session-data"))
        .arg("--dump")
        .arg(replay.join("dump"))
        .arg("--requests")
        .arg(&file)
        .arg("--trace-out")
        .arg(trace_file)
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("layers did not start: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "layers failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let mut cols = line.split('\t');
        if let (Some(name), Some(value), Some(n)) = (cols.next(), cols.next(), cols.next()) {
            if let (Ok(value), Ok(n)) = (value.parse(), n.parse()) {
                found.insert(name.to_string(), (value, n));
            }
        }
    }
    Ok(())
}

/// The per-layer metrics of a traced run.
pub fn traced(
    outcome: &Outcome,
    workload: Workload,
    layers: &Path,
    out: &Path,
    seconds: f64,
) -> RunResult {
    let mut notes = facts(outcome);
    let mut found: HashMap<String, (f64, u64)> = HashMap::new();
    let cites = phase_stats(&outcome.cite_ns, outcome.measured);
    let commits = phase_stats(&outcome.commit_ns, outcome.commit_phase);
    if let (Some(p50), Some(p99)) = (cites.p50, cites.p99) {
        found.insert("wire.cite_p50_ms".to_string(), (p50, cites.n));
        found.insert("wire.cite_p99_ms".to_string(), (p99, cites.n));
    }
    if let Some(p50) = commits.p50 {
        found.insert("wire.commit_p50_ms".to_string(), (p50, commits.n));
    }
    found.insert(
        "core.plan_cache_hit_ratio".to_string(),
        (outcome.plan_cache_hit_ratio, cites.n),
    );
    if let Some((before, after)) = &outcome.server_metrics {
        server_means(before, after, &mut found);
    }
    let trace_file = out.join(format!("trace-{}.jsonl", workload.name()));
    let _ = fs::remove_file(&trace_file);
    let mut layers_ok = true;
    if let Err(e) = run_layers(outcome, layers, &trace_file, seconds, &mut found) {
        layers_ok = false;
        notes.push(e);
    }
    match write_spans(&trace_file, &outcome.spans) {
        Ok(()) => notes.push(format!("spans in {}", trace_file.display())),
        Err(e) => notes.push(format!("spans not written: {e}")),
    }

    // Derived rows: each is a difference, so on every workload the layer
    // rows and the unattributed row sum to the wire number by construction.
    for &(name, whole, whole_factor, parts, parts_factor) in DERIVED {
        let value = |n: &&str| found.get(*n).map(|m| m.0);
        let (Some(whole), Some(parts)) = (
            value(&whole),
            parts.iter().map(value).collect::<Option<Vec<f64>>>(),
        ) else {
            continue;
        };
        let rest = whole * whole_factor - parts.iter().sum::<f64>() * parts_factor;
        found.insert(name.to_string(), (rest, 1));
    }

    let metrics = LAYER_METRICS
        .iter()
        .map(|(name, unit)| {
            let got = found.get(*name);
            Metric {
                name,
                value: got.map(|m| m.0),
                unit,
                n: got.map_or(0, |m| m.1),
            }
        })
        .collect();
    RunResult {
        correct: outcome.failed == 0 && layers_ok,
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        metrics,
        notes,
    }
}
