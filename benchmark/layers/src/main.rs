//! Per-layer probes of the citesys benchmark (see ../README.md, "probe
//! surface"): replays the requests the wire run logged, in process, on
//! one thread, timing calls to each crate's public functions.
//!
//! `layers --store <dir> --session-store <dir> --dump <dir>
//!         --requests <file> --trace-out <file> --seconds <budget>`
//!
//! Prints one `name<TAB>value<TAB>n` line per probe; times are medians
//! in microseconds. Appends one span per timed call to `--trace-out`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use citesys_core::{cite_with_service, format_citation, CitationService};
use citesys_cq::parse_query;
use citesys_ingest::{CsvReader, IngestConfig};
use citesys_net::protocol::{parse_command, read_response, write_response};
use citesys_net::{Command, Interpreter, Response, SharedStore};
use citesys_rewrite::{rewrite, RewriteOptions};
use citesys_storage::{digest_answer, evaluate, Changeset, Database};

type Failure = Box<dyn std::error::Error>;

/// The curator compacts on this cadence in the wire run; the replay does
/// the same so memory stays bounded.
const COMPACT_EVERY: u64 = 32;
const COMPACT_KEEP: u64 = 16;
/// WAL records a recovery replays, as in the wire run's restart.
const WAL_AT_RECOVERY: usize = 2;
const RECOVERIES: usize = 3;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u64,
}

struct Probes {
    epoch: Instant,
    /// Microseconds per timed call, by probe name.
    samples: BTreeMap<&'static str, Vec<f64>>,
    spans: Vec<Span>,
}

impl Probes {
    /// Times `f` as one call into `name`, under request `parent`.
    fn time<T>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        self.sample(name, (end - start).as_secs_f64() * 1e6);
        self.spans.push(Span {
            name,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
            parent,
        });
        out
    }

    fn sample(&mut self, name: &'static str, us: f64) {
        self.samples.entry(name).or_default().push(us);
    }

    fn median(&self, name: &str) -> Option<(f64, usize)> {
        let mut xs = self.samples.get(name)?.clone();
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        let mid = if n % 2 == 1 {
            xs[n / 2]
        } else {
            (xs[n / 2 - 1] + xs[n / 2]) / 2.0
        };
        Some((mid, n))
    }
}

struct Args {
    store: PathBuf,
    /// A second copy of the store for `net`'s interpreter: two handles on
    /// one write-ahead log would be a fault of the benchmark, not of the
    /// program.
    session_store: PathBuf,
    dump: PathBuf,
    requests: PathBuf,
    trace_out: PathBuf,
    seconds: f64,
}

fn parse_args() -> Result<Args, Failure> {
    let mut found: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        found.insert(flag, value);
    }
    let mut path = |flag: &str| -> Result<PathBuf, Failure> {
        Ok(found
            .remove(flag)
            .ok_or(format!("{flag} is required"))?
            .into())
    };
    Ok(Args {
        store: path("--store")?,
        session_store: path("--session-store")?,
        dump: path("--dump")?,
        requests: path("--requests")?,
        trace_out: path("--trace-out")?,
        seconds: found
            .remove("--seconds")
            .ok_or("--seconds is required")?
            .parse()?,
    })
}

/// `ingest`: stream every dump file through `CsvReader`.
fn probe_csv(dump: &Path) -> Result<(f64, u64), Failure> {
    let mut records = 0u64;
    let start = Instant::now();
    for entry in fs::read_dir(dump)? {
        let path = entry?.path();
        let Some(relation) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        let file = BufReader::new(fs::File::open(&path)?);
        let mut reader = CsvReader::new(relation, None, file, &IngestConfig::default())?;
        while let Some(batch) = reader.next_batch()? {
            records += std::hint::black_box(batch).len() as u64;
        }
    }
    Ok((records as f64 / start.elapsed().as_secs_f64(), records))
}

/// Counts that are sums over the replayed cites.
#[derive(Default)]
struct CiteCounts {
    searched: u64,
    candidates: u64,
    equivalence_checks: u64,
    expanded: u64,
    kept: u64,
    bindings: u64,
    answers: u64,
}

/// The read path, one request at a time: `net` parses the command,
/// `cq` the query, `core` cites (looking up or searching a plan,
/// evaluating, digesting), `core` formats — and beside it the same work
/// split into `rewrite` and `storage` calls, and the whole command run
/// through `net`'s interpreter and response framing.
fn probe_cites(
    probes: &mut Probes,
    cites: &[(u64, String)],
    service: &CitationService,
    version: u64,
    session: &mut Interpreter,
    deadline: Instant,
) -> Result<CiteCounts, Failure> {
    let mut counts = CiteCounts::default();
    let view_set = service.registry().view_set();
    let mut views: Database = service.materialized_views();
    for (id, line) in cites {
        if Instant::now() > deadline {
            break;
        }
        let id = *id;
        // The whole before its parts: whichever runs first meets the
        // request's data cold, and it is the parts that are subtracted.
        let output = probes.time("net.session_line_us", id, || session.run_line(line))?;
        let response = Response::Ok(output.lines().map(str::to_string).collect());
        probes.time("net.frame_us", id, || -> std::io::Result<()> {
            let mut wire: Vec<u8> = Vec::new();
            write_response(&mut wire, &response)?;
            read_response(&mut wire.as_slice())?;
            Ok(())
        })?;
        let command = probes.time("net.parse_command_us", id, || parse_command(line))?;
        let Some(Command::Cite(spec)) = command else {
            return Err(format!("not a cite: {line}").into());
        };
        let text = line.trim_start_matches("cite ").to_string();
        let q = probes.time("cq.parse_query_us", id, || parse_query(&text))?;
        // The wire's `cite` runs in formal mode, which is not the
        // library's default: cite under the options the command parsed to.
        let service = service.with_options(spec.options)?;
        let (cited, token) = probes.time("core.cite_us", id, || {
            cite_with_service(&service, version, &q)
        })?;

        // A plan-cache hit does no search, so it costs the rewrite layer
        // nothing; a miss costs one `rewrite` call.
        if cited.rewrite_stats.plan_cache_hits == 0 {
            let outcome = probes.time("rewrite.rewrite_us", id, || {
                rewrite(&q, &view_set, &RewriteOptions::default())
            })?;
            counts.searched += 1;
            counts.candidates += outcome.stats.candidates_generated as u64;
            counts.equivalence_checks += outcome.stats.equivalence_checks as u64;
            counts.expanded += outcome.stats.candidates_expanded as u64;
            counts.kept += outcome.stats.rewritings_found as u64;
        } else {
            probes.sample("rewrite.rewrite_us", 0.0);
        }

        // Citing evaluates the query over the base relations and every
        // selected rewriting over the materialised views.
        if cited
            .rewritings
            .iter()
            .flat_map(|r| &r.body)
            .any(|atom| !views.has_relation(atom.predicate.as_str()))
        {
            views = service.materialized_views();
        }
        let db = service.database();
        let answers = probes.time("storage.eval_us", id, || {
            let mut all = vec![evaluate(db, &q)];
            all.extend(cited.rewritings.iter().map(|r| evaluate(&views, r)));
            all
        });
        for answer in answers {
            let answer = answer?;
            counts.bindings += answer.total_bindings() as u64;
            counts.answers += answer.len() as u64;
        }
        probes.time("storage.digest_answer_us", id, || {
            digest_answer(&cited.answer)
        });
        if let Some(aggregate) = &cited.aggregate {
            probes.time("core.format_citation_us", id, || {
                format_citation(&aggregate.snippets, Some(&token), spec.format)
            });
        }
    }
    Ok(counts)
}

fn changeset(ops: &[String]) -> Result<Changeset, Failure> {
    let mut changes = Changeset::new();
    for op in ops {
        match parse_command(op)? {
            Some(Command::Insert { rel, tuple }) => changes.insert(&rel, tuple),
            Some(Command::Delete { rel, tuple }) => changes.delete(&rel, tuple),
            _ => return Err(format!("not an insert or delete: {op}").into()),
        };
    }
    Ok(changes)
}

fn main() -> Result<(), Failure> {
    let args = parse_args()?;
    let mut probes = Probes {
        epoch: Instant::now(),
        samples: BTreeMap::new(),
        spans: Vec::new(),
    };
    let mut out = String::new();
    let started = Instant::now();
    let budget = |share: f64| started + Duration::from_secs_f64(args.seconds * share);

    let mut cites: Vec<(u64, String)> = Vec::new();
    let mut txns: Vec<(u64, Vec<String>)> = Vec::new();
    for line in fs::read_to_string(&args.requests)?.lines() {
        let mut cols = line.split('\t');
        let (Some(kind), Some(id)) = (cols.next(), cols.next()) else {
            continue;
        };
        let id: u64 = id.parse()?;
        match kind {
            "cite" => cites.push((id, cols.collect::<Vec<_>>().join("\t"))),
            "txn" => txns.push((id, cols.map(str::to_string).collect())),
            other => return Err(format!("unknown request kind {other}").into()),
        }
    }

    let (rate, records) = probe_csv(&args.dump)?;
    writeln!(out, "ingest.csv_records_per_s\t{rate}\t{records}")?;

    let mut session =
        Interpreter::with_store(SharedStore::open_durable_shared(&args.session_store)?);
    let (mut handle, recovered) = CitationService::open(&args.store)?;
    let recovered = recovered.ok_or("the replay store is empty")?;
    let (mut store, mut service) = (recovered.store, recovered.service);

    let counts = probe_cites(
        &mut probes,
        &cites,
        &service,
        store.latest_version(),
        &mut session,
        budget(0.55),
    )?;
    drop(session);
    if counts.searched > 0 {
        let n = counts.searched;
        let per_query = |sum: u64| sum as f64 / n as f64;
        writeln!(
            out,
            "rewrite.candidates_per_query\t{}\t{n}",
            per_query(counts.candidates)
        )?;
        writeln!(
            out,
            "rewrite.equivalence_checks_per_query\t{}\t{n}",
            per_query(counts.equivalence_checks)
        )?;
        let kept = counts.kept as f64 / counts.expanded.max(1) as f64;
        writeln!(out, "rewrite.kept_ratio\t{kept}\t{}", counts.expanded)?;
    } else {
        // Every plan came from the cache: no search, nothing generated.
        writeln!(out, "rewrite.candidates_per_query\t0\t0")?;
        writeln!(out, "rewrite.equivalence_checks_per_query\t0\t0")?;
        writeln!(out, "rewrite.kept_ratio\t0\t0")?;
    }
    if counts.answers > 0 {
        let per_answer = counts.bindings as f64 / counts.answers as f64;
        writeln!(
            out,
            "storage.bindings_per_answer\t{per_answer}\t{}",
            counts.answers
        )?;
    }

    // The write path, one transaction at a time, in the order the
    // server's seal_version and refresh_service_after_commit go through it.
    let wal = args.store.join("wal.log");
    let Some(Command::Cite(pinned)) =
        parse_command("cite Q(TName, FName) :- Target(1, TName, FID), Family(FID, FName, Desc)")?
    else {
        return Err("the pinned cite does not parse".into());
    };
    let before = service.view_cache_stats();
    let mut wal_bytes = 0u64;
    let mut applied = 0u64;
    let deadline = budget(0.9);
    for (id, ops) in &txns {
        if Instant::now() > deadline {
            break;
        }
        let id = *id;
        let changes = changeset(ops)?;
        let size_before = fs::metadata(&wal).map_or(0, |m| m.len());
        let staged = Instant::now();
        let pending = service.stage_batch(&changes);
        let staged = staged.elapsed();
        let version = probes.time("storage.apply_commit_us", id, || {
            store.apply_changeset(&changes).map(|_| store.commit())
        })?;
        probes.time("storage.wal_append_us", id, || {
            handle.log_commit(version, &changes)
        })?;
        wal_bytes += fs::metadata(&wal)?.len().saturating_sub(size_before);
        let snapshot = probes.time("storage.snapshot_us", id, || store.snapshot(version))?;
        let swap = Instant::now();
        service = service.with_database_delta(snapshot, pending);
        probes.sample(
            "core.view_delta_us",
            (staged + swap.elapsed()).as_secs_f64() * 1e6,
        );
        applied += 1;
        if applied.is_multiple_of(4) {
            probes.time("core.cite_at_us", id, || {
                service.cite_at_with(&store, version - 1, pinned.options, &pinned.query)
            })?;
        }
        if applied.is_multiple_of(COMPACT_EVERY) {
            store.compact_to(version - COMPACT_KEEP)?;
        }
    }
    if applied > 0 {
        writeln!(
            out,
            "storage.wal_bytes_per_commit\t{}\t{applied}",
            wal_bytes as f64 / applied as f64
        )?;
        let after = service.view_cache_stats();
        let redone = (after.recomputes + after.drops) - (before.recomputes + before.drops);
        writeln!(out, "core.view_rematerializations\t{redone}\t{applied}")?;
    }

    // Checkpoint, log a few more commits, then recover the directory the
    // way a restart does: checkpoint load plus WAL replay.
    probes.time("storage.checkpoint_write_us", 0, || {
        service.checkpoint(&store, &mut handle)
    })?;
    for (_, ops) in txns.iter().skip(applied as usize).take(WAL_AT_RECOVERY) {
        let changes = changeset(ops)?;
        store.apply_changeset(&changes)?;
        let version = store.commit();
        handle.log_commit(version, &changes)?;
    }
    drop((handle, store, service));
    for _ in 0..RECOVERIES {
        let (_, recovered) = probes.time("storage.recover_us", 0, || {
            CitationService::open(&args.store)
        })?;
        recovered.ok_or("recovery found nothing")?;
    }

    let names: Vec<&'static str> = probes.samples.keys().copied().collect();
    for name in names {
        if let Some((median, n)) = probes.median(name) {
            writeln!(out, "{name}\t{median}\t{n}")?;
        }
    }
    let mut spans = String::new();
    for (i, s) in probes.spans.iter().enumerate() {
        // Layer span ids live above every request id (connection << 32 | n).
        let id = (1u64 << 48) + i as u64;
        let parent = if s.parent == 0 {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            spans,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"id\": {id}, \"parent\": {parent}}}",
            s.name.trim_end_matches("_us"), s.start_ns, s.end_ns
        )?;
    }
    fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&args.trace_out)?
        .write_all(spans.as_bytes())?;
    print!("{out}");
    Ok(())
}
