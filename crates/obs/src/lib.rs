//! # citesys-obs — hermetic observability primitives
//!
//! A dependency-free metrics and tracing layer for the citation server:
//!
//! * **Instruments** — [`Counter`], [`Gauge`] and fixed-bucket latency
//!   [`Histogram`]s, all plain `AtomicU64` state so the hot path is a
//!   handful of relaxed atomic ops and never takes a lock.
//! * **[`Registry`]** — owns the instrument families (name, help text,
//!   labels) and renders them in Prometheus **text exposition format**
//!   (`# HELP`/`# TYPE`, `_bucket{le=…}`/`_sum`/`_count` for
//!   histograms), sorted by family name so scrapes diff cleanly.
//!   Registration takes a mutex once; recording never does.
//! * **Spans** — [`SpanTimer`] and [`SpanSet`]: lightweight per-request
//!   tracing used to break a `cite` into its pipeline stages
//!   (plan-cache lookup → rewrite → eval → digest → render) for stage
//!   histograms and the slow-cite log. When timings are disabled the
//!   timers skip the clock reads entirely, so the disabled cost is a
//!   branch, not a syscall.
//!
//! Histograms measure in **microseconds** internally and expose
//! **seconds** (Prometheus convention). Percentiles (p50/p95/p99) are
//! extracted from the bucket counts with linear interpolation inside
//! the winning bucket.

#![deny(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the value. Counters are normally monotone; this exists
    /// for **scrape-time mirrors** — counters whose source of truth is an
    /// existing atomic elsewhere (plan-cache shards, the view cache) and
    /// which the registry refreshes just before rendering.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (running maximum).
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one, saturating at zero.
    pub fn dec_sat(&self) {
        // fetch_update never fails with this closure shape.
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Default latency bucket upper bounds, in microseconds: 5µs … 10s in a
/// roughly 1-2.5-5 progression, chosen so plan-cache lookups (~µs),
/// cites (~100µs–10ms) and fsyncs (~ms) all land mid-range.
pub const DEFAULT_LATENCY_BOUNDS_US: &[u64] = &[
    5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
    500_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000,
];

/// A fixed-bucket latency histogram.
///
/// `bounds` are inclusive upper bounds in microseconds; one implicit
/// `+Inf` bucket catches the rest. Recording is two relaxed atomic adds
/// and one increment — no locks, no allocation. Recording is skipped
/// entirely while the owning registry's timings are
/// [disabled](Registry::set_timings_enabled).
#[derive(Debug)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    sum_us: AtomicU64,
    count: AtomicU64,
}

/// A point-in-time copy of a histogram's state.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds in microseconds (the `+Inf` bucket is
    /// `counts.last()`).
    pub bounds_us: Vec<u64>,
    /// Per-bucket observation counts (`bounds_us.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Sum of all observed values, microseconds.
    pub sum_us: u64,
    /// Total observations.
    pub count: u64,
}

impl Histogram {
    fn new(enabled: Arc<AtomicBool>, bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            enabled,
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            sum_us: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// True while the owning registry has timings enabled. Callers use
    /// this to skip the clock reads feeding the histogram.
    pub fn timings_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records one observation of `us` microseconds. A no-op while
    /// timings are disabled.
    pub fn observe_micros(&self, us: u64) {
        if !self.timings_enabled() {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one observation of a [`Duration`].
    pub fn observe(&self, d: Duration) {
        self.observe_micros(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy for rendering and percentile math
    /// (buckets are read individually; a racing observation may land
    /// between reads, which scraping tolerates by design).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds_us: self.bounds.clone(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            count: self.count(),
        }
    }

    /// The `q`-quantile (0 < q ≤ 1) in **seconds**, linearly
    /// interpolated inside the winning bucket (assuming a uniform
    /// spread, the Prometheus `histogram_quantile` convention). Returns
    /// `None` with no observations. Observations in the `+Inf` bucket
    /// clamp to the largest finite bound.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.snapshot().quantile(q)
    }
}

impl HistogramSnapshot {
    /// See [`Histogram::quantile`].
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            cumulative += n;
            if (cumulative as f64) >= rank && n > 0 {
                if i >= self.bounds_us.len() {
                    // +Inf bucket: clamp to the largest finite bound.
                    return Some(*self.bounds_us.last().expect("nonempty") as f64 / 1e6);
                }
                let upper = self.bounds_us[i] as f64;
                let lower = if i == 0 {
                    0.0
                } else {
                    self.bounds_us[i - 1] as f64
                };
                let before = (cumulative - n) as f64;
                let frac = ((rank - before) / n as f64).clamp(0.0, 1.0);
                return Some((lower + (upper - lower) * frac) / 1e6);
            }
        }
        Some(*self.bounds_us.last().expect("nonempty") as f64 / 1e6)
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Label pairs attached to one instrument within a family.
pub type Labels = Vec<(String, String)>;

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

struct Family {
    name: String,
    help: String,
    members: Vec<(Labels, Instrument)>,
}

/// The instrument registry: one per server/store.
///
/// Registration (`counter`, `gauge`, `histogram` and their `_with`
/// label variants) is idempotent — asking for an existing
/// `(name, labels)` pair hands back the same instrument — and takes a
/// mutex; recording on the returned `Arc`s never does.
pub struct Registry {
    timings_enabled: Arc<AtomicBool>,
    families: Mutex<Vec<Family>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry with timings enabled.
    pub fn new() -> Self {
        Registry {
            timings_enabled: Arc::new(AtomicBool::new(true)),
            families: Mutex::new(Vec::new()),
        }
    }

    /// Turns latency-histogram recording (and, via
    /// [`timings_enabled`](Self::timings_enabled), callers' span clock
    /// reads) on or off. Counters and gauges are unaffected — they feed
    /// the `stats` command and must stay correct either way.
    pub fn set_timings_enabled(&self, enabled: bool) {
        self.timings_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether latency timings are currently recorded.
    pub fn timings_enabled(&self) -> bool {
        self.timings_enabled.load(Ordering::Relaxed)
    }

    /// Registers (or retrieves) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Registers (or retrieves) a counter with labels.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.instrument(name, help, labels, || {
            Instrument::Counter(Arc::new(Counter::new()))
        }) {
            Instrument::Counter(c) => c,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Registers (or retrieves) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or retrieves) a gauge with labels.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.instrument(name, help, labels, || {
            Instrument::Gauge(Arc::new(Gauge::new()))
        }) {
            Instrument::Gauge(g) => g,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Registers (or retrieves) an unlabelled histogram with the
    /// [default latency buckets](DEFAULT_LATENCY_BOUNDS_US).
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// Registers (or retrieves) a labelled histogram with the
    /// [default latency buckets](DEFAULT_LATENCY_BOUNDS_US).
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        let enabled = Arc::clone(&self.timings_enabled);
        match self.instrument(name, help, labels, move || {
            Instrument::Histogram(Arc::new(Histogram::new(enabled, DEFAULT_LATENCY_BOUNDS_US)))
        }) {
            Instrument::Histogram(h) => h,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    fn instrument(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let labels: Labels = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut families = self.families.lock().expect("registry poisoned");
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => f,
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    members: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some((_, existing)) = family.members.iter().find(|(l, _)| *l == labels) {
            return clone_instrument(existing);
        }
        let made = make();
        let out = clone_instrument(&made);
        family.members.push((labels, made));
        out
    }

    /// Renders every family in Prometheus text exposition format,
    /// sorted by family name (and by label set within a family) so
    /// consecutive scrapes diff cleanly.
    pub fn render(&self) -> String {
        let families = self.families.lock().expect("registry poisoned");
        let mut order: Vec<usize> = (0..families.len()).collect();
        order.sort_by(|&a, &b| families[a].name.cmp(&families[b].name));
        let mut out = String::new();
        for idx in order {
            let f = &families[idx];
            let kind = match f.members.first() {
                Some((_, i)) => i.kind(),
                None => continue,
            };
            out.push_str(&format!("# HELP {} {}\n", f.name, f.help));
            out.push_str(&format!("# TYPE {} {}\n", f.name, kind));
            let mut members: Vec<&(Labels, Instrument)> = f.members.iter().collect();
            members.sort_by(|a, b| a.0.cmp(&b.0));
            for (labels, inst) in members {
                render_member(&mut out, &f.name, labels, inst);
            }
        }
        out
    }
}

fn clone_instrument(i: &Instrument) -> Instrument {
    match i {
        Instrument::Counter(c) => Instrument::Counter(Arc::clone(c)),
        Instrument::Gauge(g) => Instrument::Gauge(Arc::clone(g)),
        Instrument::Histogram(h) => Instrument::Histogram(Arc::clone(h)),
    }
}

/// `{k="v",…}` with label values escaped per the exposition format.
fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Microseconds → seconds, rendered as a minimal decimal (`0.00025`,
/// `1`, `2.5`), never scientific notation (some exposition parsers
/// choke on it for `le` values).
fn secs(us: u64) -> String {
    let whole = us / 1_000_000;
    let frac = us % 1_000_000;
    if frac == 0 {
        return format!("{whole}");
    }
    let s = format!("{whole}.{frac:06}");
    s.trim_end_matches('0').to_string()
}

fn render_member(out: &mut String, name: &str, labels: &[(String, String)], inst: &Instrument) {
    match inst {
        Instrument::Counter(c) => {
            out.push_str(&format!(
                "{name}{} {}\n",
                label_block(labels, None),
                c.get()
            ));
        }
        Instrument::Gauge(g) => {
            out.push_str(&format!(
                "{name}{} {}\n",
                label_block(labels, None),
                g.get()
            ));
        }
        Instrument::Histogram(h) => {
            let snap = h.snapshot();
            let mut cumulative = 0u64;
            for (i, &n) in snap.counts.iter().enumerate() {
                cumulative += n;
                let le = if i < snap.bounds_us.len() {
                    secs(snap.bounds_us[i])
                } else {
                    "+Inf".to_string()
                };
                out.push_str(&format!(
                    "{name}_bucket{} {cumulative}\n",
                    label_block(labels, Some(("le", &le)))
                ));
            }
            out.push_str(&format!(
                "{name}_sum{} {}\n",
                label_block(labels, None),
                secs(snap.sum_us)
            ));
            out.push_str(&format!(
                "{name}_count{} {}\n",
                label_block(labels, None),
                snap.count
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A start-time capture that costs nothing when timings are off.
#[derive(Debug)]
pub struct SpanTimer(Option<Instant>);

impl SpanTimer {
    /// Starts the timer — reads the clock only when `enabled`.
    pub fn start(enabled: bool) -> Self {
        SpanTimer(enabled.then(Instant::now))
    }

    /// Microseconds since [`start`](Self::start) (0 when disabled).
    pub fn elapsed_micros(&self) -> u64 {
        self.0
            .map(|t| t.elapsed().as_micros().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(0)
    }
}

/// The named stage durations of one traced request, in pipeline order.
///
/// A disabled set records nothing and reports no spans, so the same
/// code path serves both the instrumented and the bare cite.
#[derive(Debug)]
pub struct SpanSet {
    enabled: bool,
    spans: Vec<(&'static str, u64)>,
}

impl SpanSet {
    /// A span set that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        SpanSet {
            enabled,
            spans: Vec::new(),
        }
    }

    /// A span set that records nothing (the un-instrumented path).
    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// Whether this set records (callers skip clock reads when not).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records `us` microseconds against stage `name`.
    pub fn record_micros(&mut self, name: &'static str, us: u64) {
        if self.enabled {
            self.spans.push((name, us));
        }
    }

    /// Times `f` as stage `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = SpanTimer::start(self.enabled);
        let out = f();
        self.record_micros(name, t.elapsed_micros());
        out
    }

    /// The recorded duration of stage `name`, if it ran.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.spans
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, us)| *us)
    }

    /// All recorded `(stage, microseconds)` pairs, in recording order.
    pub fn spans(&self) -> &[(&'static str, u64)] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.set(42);
        assert_eq!(c.get(), 42);

        let g = Gauge::new();
        g.set(7);
        g.set_max(3);
        assert_eq!(g.get(), 7, "set_max must not lower");
        g.set_max(9);
        assert_eq!(g.get(), 9);
        g.inc();
        assert_eq!(g.get(), 10);
        g.set(0);
        g.dec_sat();
        assert_eq!(g.get(), 0, "dec_sat saturates at zero");
    }

    fn hist(bounds: &[u64]) -> Histogram {
        Histogram::new(Arc::new(AtomicBool::new(true)), bounds)
    }

    #[test]
    fn histogram_bucket_placement() {
        let h = hist(&[10, 100, 1000]);
        h.observe_micros(10); // inclusive upper bound → first bucket
        h.observe_micros(11);
        h.observe_micros(100);
        h.observe_micros(5000); // +Inf
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![1, 2, 0, 1]);
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum_us, 10 + 11 + 100 + 5000);
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let h = hist(&[100, 200, 400]);
        // 100 observations uniformly "in" the 100–200µs bucket.
        for _ in 0..100 {
            h.observe_micros(150);
        }
        // p50 lands mid-bucket: 100µs + 0.5·(200−100)µs = 150µs.
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 150e-6).abs() < 1e-9, "p50 = {p50}");
        // p100 is the bucket's upper bound.
        let p100 = h.quantile(1.0).unwrap();
        assert!((p100 - 200e-6).abs() < 1e-9, "p100 = {p100}");
    }

    #[test]
    fn histogram_quantiles_across_buckets() {
        let h = hist(&[100, 200, 400]);
        for _ in 0..90 {
            h.observe_micros(50); // first bucket
        }
        for _ in 0..10 {
            h.observe_micros(300); // third bucket
        }
        // p50 is inside the first bucket; p99 inside the third.
        assert!(h.quantile(0.5).unwrap() <= 100e-6);
        let p99 = h.quantile(0.99).unwrap();
        assert!((200e-6..=400e-6).contains(&p99), "p99 = {p99}");
        // Empty histogram has no quantiles.
        assert!(hist(&[10]).quantile(0.5).is_none());
    }

    #[test]
    fn histogram_inf_bucket_clamps() {
        let h = hist(&[100]);
        h.observe_micros(1_000_000);
        assert_eq!(h.quantile(0.99), Some(100e-6));
    }

    #[test]
    fn disabled_timings_skip_recording() {
        let r = Registry::new();
        let h = r.histogram("t_seconds", "test");
        r.set_timings_enabled(false);
        h.observe_micros(10);
        assert_eq!(h.count(), 0);
        r.set_timings_enabled(true);
        h.observe_micros(10);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn registry_is_idempotent_and_shared() {
        let r = Registry::new();
        let a = r.counter("x_total", "help");
        let b = r.counter("x_total", "help");
        a.inc();
        assert_eq!(b.get(), 1, "same (name, labels) → same instrument");
        let l1 = r.counter_with("y_total", "help", &[("k", "v1")]);
        let l2 = r.counter_with("y_total", "help", &[("k", "v2")]);
        l1.add(2);
        assert_eq!(l2.get(), 0, "distinct labels → distinct instruments");
    }

    #[test]
    fn render_exposition_format() {
        let r = Registry::new();
        r.counter("z_total", "a counter").add(3);
        r.gauge("a_gauge", "a gauge").set(9);
        let h = r.histogram_with("lat_seconds", "latency", &[("stage", "eval")]);
        h.observe_micros(7);
        h.observe_micros(2_000_000);
        let text = r.render();
        // Families sorted by name: a_gauge < lat_seconds < z_total.
        let a = text.find("# HELP a_gauge").unwrap();
        let l = text.find("# HELP lat_seconds").unwrap();
        let z = text.find("# HELP z_total").unwrap();
        assert!(a < l && l < z, "{text}");
        assert!(text.contains("# TYPE z_total counter"));
        assert!(text.contains("z_total 3"));
        assert!(text.contains("# TYPE a_gauge gauge"));
        assert!(text.contains("a_gauge 9"));
        assert!(text.contains("# TYPE lat_seconds histogram"));
        // 7µs ≤ 10µs bound; cumulative buckets; +Inf equals count.
        assert!(text.contains("lat_seconds_bucket{stage=\"eval\",le=\"0.00001\"} 1"));
        assert!(text.contains("lat_seconds_bucket{stage=\"eval\",le=\"+Inf\"} 2"));
        assert!(text.contains("lat_seconds_count{stage=\"eval\"} 2"));
        assert!(text.contains("lat_seconds_sum{stage=\"eval\"} 2.000007"));
        // Buckets are cumulative and nondecreasing.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("lat_seconds_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "{line}");
            last = v;
        }
    }

    #[test]
    fn le_values_are_plain_decimals() {
        assert_eq!(secs(5), "0.000005");
        assert_eq!(secs(250), "0.00025");
        assert_eq!(secs(1_000_000), "1");
        assert_eq!(secs(2_500_000), "2.5");
    }

    #[test]
    fn span_set_records_in_order() {
        let mut s = SpanSet::new(true);
        s.record_micros("plan_lookup", 5);
        let out = s.time("eval", || 42);
        assert_eq!(out, 42);
        assert_eq!(s.get("plan_lookup"), Some(5));
        assert!(s.get("eval").is_some());
        assert!(s.get("render").is_none());
        assert_eq!(s.spans().len(), 2);

        let mut off = SpanSet::disabled();
        off.record_micros("eval", 5);
        assert!(off.spans().is_empty());
        assert_eq!(SpanTimer::start(false).elapsed_micros(), 0);
    }
}
