//! One benchmark run: set-up, warm-up, the measured closed loop, the
//! commit tail, crash and restart — with every response checked against
//! the generator's expectation and the citation contract.

use std::collections::{HashMap, VecDeque};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use crate::gen::{self, AdhocShapes, Dataset, Rng};
use crate::server::{self, Server};
use crate::wire::{Client, Reply};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Lookup,
    Report,
    Adhoc,
    Curate,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Lookup,
        Workload::Report,
        Workload::Adhoc,
        Workload::Curate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Lookup => "lookup",
            Workload::Report => "report",
            Workload::Adhoc => "adhoc",
            Workload::Curate => "curate",
        }
    }

    /// Closed-loop reader connections (never more than the 2 cores of
    /// the reference box, counting `curate`'s curator connection).
    fn readers(self) -> usize {
        match self {
            Workload::Lookup => 2,
            Workload::Report | Workload::Adhoc | Workload::Curate => 1,
        }
    }
}

/// Durations and repeat counts of one run.
pub struct Plan {
    pub seconds: f64,
    pub warm_seconds: f64,
    /// `curate` also warms up until this many commits are acknowledged:
    /// retained snapshots (and with them resident memory) only level off
    /// once the first compaction cycle has run.
    pub warm_commits: u64,
    /// Solo curator transactions after the cite phase of the other three
    /// workloads, so commit metrics exist on every workload. The tail
    /// compacts once, `WAL_AT_KILL` transactions before its end.
    pub tail_txns: u64,
    pub setups: usize,
    pub restarts: usize,
}

/// `curate`'s curator compacts history to the newest `COMPACT_KEEP`
/// versions after every `COMPACT_EVERY` commits. The newest `PIN_WINDOW`
/// acknowledged versions, well inside what is kept, are remembered: the
/// reader pins at the newest, the pre-crash pins at all of them.
const COMPACT_EVERY: u64 = 32;
const COMPACT_KEEP: u64 = 16;
const PIN_WINDOW: usize = 8;

/// Every run is killed with exactly this many records in the write-ahead
/// log behind the newest checkpoint: what a restart replays must not
/// depend on where the clock stopped the curator.
const WAL_AT_KILL: u64 = 2;

/// Connection number in the curator's span ids; readers count from 0.
const CURATOR_CONN: u64 = 8;

/// When the curator stops.
#[derive(Clone, Copy)]
enum Until {
    /// After this many transactions (the commit tail).
    Count(u64),
    /// Once the phase is STOP and `WAL_AT_KILL` commits have followed
    /// the last compaction (`curate`).
    Stopped,
}

/// The measured phase is cut into this many equal windows; latency
/// percentiles and rates are computed per window and the median window
/// is reported, so a hiccup of the sandbox moves one window and not the
/// run's number.
pub const WINDOWS: usize = 5;

/// Requests logged per run for the in-process layer replay.
const REPLAY_SAMPLE: usize = 2000;

const WARM: u8 = 0;
const MEASURE: u8 = 1;
const STOP: u8 = 2;

pub struct Paths {
    pub citesys: PathBuf,
    pub work: PathBuf,
}

/// One latency sample: when the response was complete (nanoseconds since
/// the run's epoch) and how long the request took.
#[derive(Clone, Copy)]
pub struct Sample {
    pub done_ns: u64,
    pub latency_ns: u64,
}

#[derive(Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What one connection saw.
#[derive(Default)]
struct ConnLog {
    cite_ns: Vec<Sample>,
    commit_ns: Vec<Sample>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// `(request line without its pin, version)` → payload hash: the same
    /// query at the same version must always return the same bytes.
    seen: HashMap<(String, u64), u64>,
    spans: Vec<Span>,
    /// Cite lines of the measured phase that replay against the initial
    /// store (no pin, no curated key), with their span ids.
    replay_cites: Vec<(u64, String)>,
    /// Every transaction from the first, in order, with its span id.
    replay_txns: Vec<(u64, Vec<String>)>,
}

impl ConnLog {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.note(what);
    }

    /// Keeps the first few messages; the count is in `failed`.
    fn note(&mut self, what: String) {
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    fn absorb(&mut self, other: ConnLog) {
        self.cite_ns.extend(other.cite_ns);
        self.commit_ns.extend(other.commit_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            self.note(e);
        }
        for (key, hash) in other.seen {
            if let Some(prev) = self.seen.insert(key.clone(), hash) {
                if prev != hash {
                    self.fail(format!("two connections saw different bytes for {key:?}"));
                }
            }
        }
        self.spans.extend(other.spans);
        self.replay_cites.extend(other.replay_cites);
        self.replay_txns.extend(other.replay_txns);
    }
}

/// State the connections of one run share.
struct Shared {
    phase: AtomicU8,
    /// Index of the current window of the measured phase.
    window: AtomicU64,
    commits: AtomicU64,
    /// Newest `PIN_WINDOW` acknowledged `(version, transaction index)`.
    acked: Mutex<VecDeque<(u64, u64)>>,
    /// Version of the newest checkpoint: after a restart only versions
    /// from here on are citable.
    checkpoint_version: AtomicU64,
    epoch: Instant,
    trace: bool,
}

impl Shared {
    fn acked(&self) -> Vec<(u64, u64)> {
        self.acked
            .lock()
            .expect("no connection panics holding the lock")
            .iter()
            .copied()
            .collect()
    }

    fn newest_acked(&self) -> Option<(u64, u64)> {
        self.acked
            .lock()
            .expect("no connection panics holding the lock")
            .back()
            .copied()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `N answer tuple(s) at version V` → `(N, V)`.
fn parse_cite_header(payload: &[u8]) -> Option<(usize, u64)> {
    let first = payload.split(|b| *b == b'\n').next()?;
    let first = std::str::from_utf8(first).ok()?;
    let mut words = first.split(' ');
    let n = words.next()?.parse().ok()?;
    let version = first.rsplit(' ').next()?.parse().ok()?;
    first
        .contains("answer tuple(s) at version")
        .then_some((n, version))
}

/// `committed version V (…)` → `V`.
fn parse_commit_ack(payload: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(payload).ok()?;
    text.strip_prefix("committed version ")?
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// Sends one cite and checks it: answer count as generated, and the same
/// bytes as any earlier response to this line at this version. Returns
/// the version on success.
fn checked_cite(
    client: &mut Client,
    log: &mut ConnLog,
    line: &str,
    expected: usize,
) -> io::Result<Option<(u64, Vec<u8>)>> {
    log.attempted += 1;
    let payload = match client.request(line)? {
        Reply::Ok(payload) => payload,
        Reply::Err(e) => {
            log.fail(format!("{line}: {e}"));
            return Ok(None);
        }
    };
    let Some((n, version)) = parse_cite_header(&payload) else {
        log.fail(format!("{line}: unreadable response"));
        return Ok(None);
    };
    if n != expected {
        log.fail(format!("{line}: {n} answers, generator expects {expected}"));
        return Ok(None);
    }
    // A pinned cite must return what the live cite returned at that
    // version, so both are recorded under the unpinned line.
    let unpinned = line.split(" @ ").next().unwrap_or(line);
    let hash = fnv1a(&payload);
    if let Some(prev) = log.seen.insert((unpinned.to_string(), version), hash) {
        if prev != hash {
            log.fail(format!("{line}: bytes changed at version {version}"));
            return Ok(None);
        }
    }
    Ok(Some((version, payload)))
}

/// What a reader sends next: the line, the expected answer count, and
/// whether the line replays against the initial store.
type NextCite<'a> = Box<dyn FnMut(&mut Rng, &Shared) -> (String, usize, bool) + Send + 'a>;

fn reader(
    addr: &str,
    shared: &Shared,
    conn: u64,
    seed: u64,
    mut next: NextCite<'_>,
) -> io::Result<ConnLog> {
    let mut client = Client::connect(addr)?;
    let mut rng = Rng::new(seed);
    let mut log = ConnLog::default();
    let mut seq = 0u64;
    let mut window = 0;
    loop {
        let phase = shared.phase.load(Ordering::SeqCst);
        if phase == STOP {
            return Ok(log);
        }
        // A fresh connection per window: which server worker and which
        // core a connection lands on is luck, and one draw per run would
        // make the run's numbers that luck.
        let now = shared.window.load(Ordering::SeqCst);
        if now != window {
            window = now;
            client = Client::connect(addr)?;
        }
        let (line, expected, replayable) = next(&mut rng, shared);
        let id = conn << 32 | seq;
        seq += 1;
        let start = Instant::now();
        let ok = checked_cite(&mut client, &mut log, &line, expected)?.is_some();
        let end = Instant::now();
        if phase != MEASURE || !ok {
            continue;
        }
        log.cite_ns.push(Sample {
            done_ns: shared.ns(end),
            latency_ns: (end - start).as_nanos() as u64,
        });
        if shared.trace {
            log.spans.push(Span {
                name: "request",
                id,
                start_ns: shared.ns(start),
                end_ns: shared.ns(end),
            });
            if replayable && log.replay_cites.len() < REPLAY_SAMPLE {
                log.replay_cites.push((id, line));
            }
        }
    }
}

/// The curator: `begin; 4 ops; commit` from transaction 0, compacting
/// after every `compact_every` commits. Returns the next transaction.
fn curator(
    addr: &str,
    shared: &Shared,
    compact_every: u64,
    until: Until,
) -> io::Result<(ConnLog, u64)> {
    let mut client = Client::connect(addr)?;
    let mut log = ConnLog::default();
    let mut k = 0u64;
    loop {
        let phase = shared.phase.load(Ordering::SeqCst);
        let done = match until {
            Until::Count(n) => k >= n,
            Until::Stopped => phase == STOP && k % compact_every == WAL_AT_KILL,
        };
        if done {
            return Ok((log, k));
        }
        let ops = gen::curator_txn(k);
        let id = CURATOR_CONN << 32 | k;
        log.attempted += 1;
        let start = Instant::now();
        let mut outcome = client.request("begin")?;
        for op in &ops {
            if matches!(outcome, Reply::Ok(_)) {
                outcome = client.request(op)?;
            }
        }
        if matches!(outcome, Reply::Ok(_)) {
            outcome = client.request("commit")?;
        }
        let end = Instant::now();
        let version = match &outcome {
            Reply::Ok(payload) => parse_commit_ack(payload),
            Reply::Err(_) => None,
        };
        let Some(version) = version else {
            let why = match outcome {
                Reply::Err(e) => e,
                Reply::Ok(p) => String::from_utf8_lossy(&p).into_owned(),
            };
            log.fail(format!("transaction {k}: {why}"));
            let _ = client.request("rollback")?;
            k += 1;
            continue;
        };
        {
            let mut acked = shared
                .acked
                .lock()
                .expect("no connection panics holding the lock");
            acked.push_back((version, k));
            if acked.len() > PIN_WINDOW {
                acked.pop_front();
            }
        }
        shared.commits.fetch_add(1, Ordering::SeqCst);
        if phase == MEASURE {
            log.commit_ns.push(Sample {
                done_ns: shared.ns(end),
                latency_ns: (end - start).as_nanos() as u64,
            });
            if shared.trace {
                log.spans.push(Span {
                    name: "commit",
                    id,
                    start_ns: shared.ns(start),
                    end_ns: shared.ns(end),
                });
            }
        }
        if shared.trace {
            log.replay_txns.push((id, ops));
        }
        k += 1;
        if k.is_multiple_of(compact_every) {
            log.attempted += 1;
            match client.request(&format!("compact {COMPACT_KEEP}"))? {
                Reply::Ok(_) => shared.checkpoint_version.store(version, Ordering::SeqCst),
                Reply::Err(e) => log.fail(format!("compact: {e}")),
            }
        }
    }
}

/// Counters read from the `stats` wire command.
fn plan_cache_counters(control: &mut Client) -> io::Result<(u64, u64)> {
    let stats = control.expect_ok("stats")?;
    let get = |name: &str| {
        stats
            .lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse::<u64>().ok())
            .unwrap_or(0)
    };
    Ok((get("plan_cache_hits "), get("plan_cache_misses ")))
}

/// The cites each workload issues once before timing, so the service is
/// built and its views are materialised: a store that has never been
/// cited commits ten times faster than one in service, a path no user runs.
fn warm_queries(workload: Workload) -> Vec<gen::Query> {
    match workload {
        Workload::Lookup | Workload::Curate => vec![gen::lookup(0, 1), gen::lookup(1, 1)],
        Workload::Report => gen::reports().to_vec(),
        Workload::Adhoc => gen::adhoc_warmers(),
    }
}

/// Generate, ingest, start the server, register the views, warm.
/// Returns the server, the data and the version the store is at.
fn set_up(
    paths: &Paths,
    dir: &Path,
    workload: Workload,
    seed: u64,
    metrics: bool,
) -> io::Result<(Server, Dataset, u64)> {
    let data = Dataset::generate(seed);
    let dump = dir.join("dump");
    data.write_csv(&dump)?;
    let store = dir.join("data");
    fs::create_dir_all(&store)?;
    let ingest = Command::new(&paths.citesys)
        .arg("ingest")
        .arg(&store)
        .arg(&dump)
        .args(["--as", "gtopdb"])
        .output()?;
    if !ingest.status.success() {
        return Err(io::Error::other(format!(
            "citesys ingest failed: {}",
            String::from_utf8_lossy(&ingest.stderr)
        )));
    }
    let server = Server::spawn(&paths.citesys, &store, dir, metrics)?;
    let mut control = Client::connect(&server.addr)?;
    for view in gen::view_commands() {
        control.expect_ok(&view)?;
    }
    let mut log = ConnLog::default();
    let mut version = 0;
    for q in warm_queries(workload) {
        let line = format!("cite {}", q.text());
        match checked_cite(&mut control, &mut log, &line, q.count(&data))? {
            Some((v, _)) => version = v,
            None => {
                return Err(io::Error::other(format!(
                    "warm-up cite failed: {:?}",
                    log.errors
                )))
            }
        }
    }
    Ok((server, data, version))
}

/// Everything a run measured, before it is shaped into metrics.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub cite_ns: Vec<Sample>,
    pub commit_ns: Vec<Sample>,
    /// Start (since the epoch) and length of the measured phase, and of
    /// the phase the commit samples come from (the same on `curate`).
    pub measured: (u64, f64),
    pub commit_phase: (u64, f64),
    pub rss_peak_mb: f64,
    pub restart_s: Vec<f64>,
    pub data_dir_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub plan_cache_hit_ratio: f64,
    pub tuples: usize,
    pub adhoc_shapes: u64,
    // Traced runs only.
    pub spans: Vec<Span>,
    pub replay_cites: Vec<(u64, String)>,
    pub replay_txns: Vec<(u64, Vec<String>)>,
    pub server_metrics: Option<(String, String)>,
    /// Holds `data/` and `session-data/`, two copies of the data
    /// directory as set-up left it, and `dump/`.
    pub replay_store: Option<PathBuf>,
}

pub fn run(
    paths: &Paths,
    workload: Workload,
    seed: u64,
    plan: &Plan,
    trace: bool,
) -> io::Result<Outcome> {
    // Set up several times and keep the last stack: one set-up time per
    // run is too noisy to gate on, and its median is not.
    let mut setup_s = Vec::new();
    let mut stack = None;
    for i in 0..plan.setups {
        drop(stack.take());
        let dir = paths.work.join(format!("stack-{i}"));
        let start = Instant::now();
        let made = set_up(paths, &dir, workload, seed, trace)?;
        setup_s.push(start.elapsed().as_secs_f64());
        stack = Some((made, server::WorkDir(dir)));
    }
    let ((mut server, data, version), dir) = stack.expect("at least one set-up");
    let store = dir.0.join("data");
    let replay_store = if trace {
        // The server is idle between set-up and warm-up: its files are at rest.
        let replay = paths.work.join("replay");
        server::copy_dir(&store, &replay.join("data"))?;
        server::copy_dir(&store, &replay.join("session-data"))?;
        server::copy_dir(&dir.0.join("dump"), &replay.join("dump"))?;
        Some(replay)
    } else {
        None
    };

    let shared = Shared {
        phase: AtomicU8::new(WARM),
        window: AtomicU64::new(0),
        commits: AtomicU64::new(0),
        acked: Mutex::new(VecDeque::new()),
        checkpoint_version: AtomicU64::new(version),
        epoch: Instant::now(),
        trace,
    };
    let mut control = Client::connect(&server.addr)?;
    let reports = gen::reports();
    let report_counts: Vec<usize> = reports.iter().map(|q| q.count(&data)).collect();
    let mut shape_rng = Rng::new(seed ^ 0xad_0c);
    let adhoc = Mutex::new(AdhocShapes::new(&mut shape_rng));
    let adhoc_shapes = adhoc.lock().expect("unshared yet").total();

    let mut total = ConnLog::default();
    let mut next_txn = 0u64;
    let mut counters = ((0, 0), (0, 0));
    let mut metrics_before = None;
    let mut measured = (0, 0.0);
    let addr = server.addr.clone();
    thread::scope(|scope| -> io::Result<()> {
        let mut readers = Vec::new();
        for conn in 0..workload.readers() as u64 {
            let (data, shared, addr, adhoc) = (&data, &shared, addr.as_str(), &adhoc);
            let (reports, report_counts) = (&reports, &report_counts);
            let mut i = 0usize;
            let next: NextCite<'_> = match workload {
                Workload::Lookup => Box::new(move |rng, _| {
                    i += 1;
                    let q = gen::lookup(i % 2, gen::lookup_key(i % 2, rng));
                    (format!("cite {}", q.text()), q.count(data), true)
                }),
                Workload::Report => Box::new(move |_, _| {
                    i += 1;
                    let shape = i % reports.len();
                    (
                        format!("cite {}", reports[shape].text()),
                        report_counts[shape],
                        true,
                    )
                }),
                Workload::Adhoc => Box::new(move |rng, _| {
                    let q = adhoc.lock().expect("one reader").next(rng);
                    (format!("cite {}", q.text()), q.count(data), true)
                }),
                Workload::Curate => Box::new(move |rng, shared| {
                    i += 1;
                    let q = gen::lookup(i % 2, gen::lookup_key(i % 2, rng));
                    match (i % 20, shared.newest_acked()) {
                        // Time travel to the version the curator was last
                        // acknowledged: nobody has cited it yet, so the
                        // server builds an as-of service for it. Always the
                        // target shape (odd `i`), whose views cost the most
                        // to build: two as-of costs would be two populations.
                        (1 | 7 | 13, Some((version, _))) => (
                            format!("cite {} @ {version}", q.text()),
                            q.count(data),
                            false,
                        ),
                        // A family that acknowledged transaction added.
                        (4 | 14, Some((_, k))) => {
                            let q = gen::lookup(0, gen::curated_family(k));
                            (format!("cite {}", q.text()), 1, false)
                        }
                        _ => (format!("cite {}", q.text()), q.count(data), true),
                    }
                }),
            };
            let seed = seed.wrapping_mul(31).wrapping_add(conn);
            readers.push(scope.spawn(move || reader(addr, shared, conn, seed, next)));
        }
        let writer = (workload == Workload::Curate)
            .then(|| scope.spawn(|| curator(&addr, &shared, COMPACT_EVERY, Until::Stopped)));

        // Whatever happens below, the connections must see STOP, or the
        // scope would wait for them for ever.
        let timed = (|| -> io::Result<()> {
            let warm_start = Instant::now();
            let warm = Duration::from_secs_f64(plan.warm_seconds);
            let warm_limit = warm_start + Duration::from_secs(60);
            while warm_start.elapsed() < warm
                || (writer.is_some()
                    && shared.commits.load(Ordering::SeqCst) < plan.warm_commits
                    && Instant::now() < warm_limit)
            {
                thread::sleep(Duration::from_millis(5));
            }
            counters.0 = plan_cache_counters(&mut control)?;
            let before = if trace {
                Some(control.expect_ok("metrics")?)
            } else {
                None
            };
            let start = Instant::now();
            shared.phase.store(MEASURE, Ordering::SeqCst);
            for w in 1..=WINDOWS {
                thread::sleep(Duration::from_secs_f64(plan.seconds / WINDOWS as f64));
                shared.window.store(w as u64, Ordering::SeqCst);
            }
            shared.phase.store(STOP, Ordering::SeqCst);
            measured = (shared.ns(start), start.elapsed().as_secs_f64());
            counters.1 = plan_cache_counters(&mut control)?;
            metrics_before = before;
            Ok(())
        })();
        shared.phase.store(STOP, Ordering::SeqCst);
        for r in readers {
            total.absorb(r.join().expect("reader does not panic")?);
        }
        if let Some(w) = writer {
            let (log, k) = w.join().expect("curator does not panic")?;
            total.absorb(log);
            next_txn = k;
        }
        timed
    })?;
    let rss_peak_mb = server.vm_hwm_mb()?;
    let mut commit_phase = measured;

    // The commit tail of the read-only workloads: a solo curator on the
    // server the cite phase left warm.
    if workload != Workload::Curate {
        shared.phase.store(MEASURE, Ordering::SeqCst);
        let start = Instant::now();
        let compact_after = plan.tail_txns - WAL_AT_KILL;
        let (log, k) = curator(&addr, &shared, compact_after, Until::Count(plan.tail_txns))?;
        commit_phase = (shared.ns(start), start.elapsed().as_secs_f64());
        total.absorb(log);
        next_txn = k;
    }
    // Server-side timings cover the measured phase and the commit tail.
    let server_metrics = match metrics_before {
        Some(before) => Some((before, control.expect_ok("metrics")?)),
        None => None,
    };

    // Pin what the restart must reproduce: cites at acknowledged
    // versions the newest checkpoint still covers.
    let floor = shared.checkpoint_version.load(Ordering::SeqCst);
    let mut pins: Vec<(String, Vec<u8>)> = Vec::new();
    let acked = shared.acked();
    for &(v, k) in acked.iter().filter(|(v, _)| *v >= floor) {
        for q in [
            gen::lookup(0, gen::curated_family(k)),
            gen::lookup(1, 1 + (k as i64 % gen::TARGETS)),
        ] {
            let line = format!("cite {} @ {v}", q.text());
            if let Some((_, payload)) = checked_cite(&mut control, &mut total, &line, 1)? {
                pins.push((line, payload));
            }
        }
    }
    let Some(&(last_version, last_txn)) = acked.last() else {
        return Err(io::Error::other(format!(
            "no transaction was acknowledged: {:?}",
            total.errors
        )));
    };
    // A transaction that is never committed: it must not survive.
    control.expect_ok("begin")?;
    for op in gen::curator_txn(next_txn).iter().take(2) {
        control.expect_ok(op)?;
    }
    let data_dir_mb = server::dir_bytes(&store)? as f64 / 1e6;

    // Crash and restart. Timed from the spawn to the first correct cite
    // of the last acknowledged transaction's family.
    let durable = format!(
        "cite {}",
        gen::lookup(0, gen::curated_family(last_txn)).text()
    );
    let lost = format!(
        "cite {}",
        gen::lookup(0, gen::curated_family(next_txn)).text()
    );
    let mut restart_s = Vec::new();
    for i in 0..plan.restarts {
        server.kill();
        let start = Instant::now();
        server = Server::spawn(&paths.citesys, &store, &dir.0, false)?;
        let mut client = Client::connect(&server.addr)?;
        // A fresh log: the restarted server is asked what the old one was.
        let mut after = ConnLog::default();
        let answer = checked_cite(&mut client, &mut after, &durable, 1)?;
        restart_s.push(start.elapsed().as_secs_f64());
        match answer {
            Some((v, _)) if v == last_version => {}
            Some((v, _)) => after.fail(format!(
                "restarted at version {v}, last acknowledged was {last_version}"
            )),
            None => {}
        }
        if i == 0 {
            checked_cite(&mut client, &mut after, &lost, 0)?;
            for (line, before) in &pins {
                if let Some((_, now)) = checked_cite(&mut client, &mut after, line, 1)? {
                    if now != *before {
                        after.fail(format!("{line}: bytes changed across the restart"));
                    }
                }
            }
        }
        total.absorb(after);
    }
    server.kill();

    let (before, after) = counters;
    let hits = after.0.saturating_sub(before.0) as f64;
    let misses = after.1.saturating_sub(before.1) as f64;
    let plan_cache_hit_ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    let bound_broken = match workload {
        Workload::Lookup | Workload::Report => plan_cache_hit_ratio < 0.95,
        Workload::Adhoc => plan_cache_hit_ratio > 0.05,
        Workload::Curate => false,
    };
    if bound_broken {
        total.fail(format!(
            "plan-cache hit ratio {plan_cache_hit_ratio:.3} is not what {} is built to show",
            workload.name()
        ));
    }

    Ok(Outcome {
        setup_s,
        cite_ns: total.cite_ns,
        commit_ns: total.commit_ns,
        measured,
        commit_phase,
        rss_peak_mb,
        restart_s,
        data_dir_mb,
        attempted: total.attempted,
        failed: total.failed,
        errors: total.errors,
        plan_cache_hit_ratio,
        tuples: data.tuples(),
        adhoc_shapes,
        spans: total.spans,
        replay_cites: total.replay_cites,
        replay_txns: total.replay_txns,
        server_metrics,
        replay_store,
    })
}
