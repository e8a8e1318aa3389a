//! `citesys` — the command-line front end.
//!
//! ```console
//! $ citesys script.cts                      # run a script file
//! $ citesys -                               # read the script from stdin
//! $ citesys serve                           # interactive loop: one service, many cites
//! $ citesys serve --data-dir ./data         # …durable: WAL + checkpoints, warm restart
//! $ citesys serve --listen 127.0.0.1:4242 --data-dir ./data
//! $ citesys client 127.0.0.1:4242 script.cts
//! $ citesys ingest ./data ./dumps           # bulk-load CSV/JSONL dumps, pin datasets.lock
//! $ citesys dataset verify ./data           # re-hash pinned sources + re-digest fixity
//! $ citesys checkpoint ./data               # fold the WAL into a fresh checkpoint
//! $ citesys recover ./data                  # report what a restart would recover
//! $ citesys compact ./data --keep 16        # trim time-travel history to a window
//! $ citesys wal dump ./data                 # print the WAL's changesets
//! $ citesys wal compact ./data --keep 16    # alias for 'compact'
//! ```
//!
//! See [`citesys::script`] for the command language and
//! [`citesys::net`] for the wire protocol.
//!
//! Exit codes: `0` success (including `--help`), `1` I/O error, `2` usage
//! error, `3` script parse error, `4` citation/runtime error, `5` the
//! requested history was compacted away, `6` dataset verification failed
//! (a pinned source or fixity digest no longer matches).

use std::io::{BufRead, Read, Write};
use std::time::Duration;

use citesys::net::client::{run_script, run_script_pipelined, ScriptFailure};
use citesys::net::protocol::WireErrorKind;
use citesys::net::script::{
    Interpreter, ScriptError, ScriptErrorKind, SessionControl, SharedStore,
};
use citesys::net::server::{Server, ServerConfig};
use citesys_core::CitationService;
use citesys_storage::Wal;

/// Why a subcommand failed: one variant per non-zero exit code, each
/// carrying the message `main` prints to stderr.
enum AppError {
    /// An I/O error (unreadable file, unbindable address, broken data dir).
    Io(String),
    /// A malformed command line.
    Usage(String),
    /// A script parse error.
    Parse(String),
    /// A citation or runtime error (including a write on a read-only
    /// replica).
    Cite(String),
    /// The requested versions were compacted into a checkpoint and are no
    /// longer individually reconstructable (distinct from a plain I/O
    /// error so scripts can tell "gone by policy" from "broken").
    Compacted(String),
    /// Dataset verification failed: a pinned source file is missing or
    /// was modified, or the store's fixity digest drifted from the
    /// manifest. Distinct from a citation error so pipelines can alert on
    /// tamper specifically.
    Tamper(String),
}

impl AppError {
    /// The process exit code — the one table behind `--help`'s list.
    fn code(&self) -> i32 {
        match self {
            AppError::Io(_) => 1,
            AppError::Usage(_) => 2,
            AppError::Parse(_) => 3,
            AppError::Cite(_) => 4,
            AppError::Compacted(_) => 5,
            AppError::Tamper(_) => 6,
        }
    }

    fn message(&self) -> &str {
        match self {
            AppError::Io(m)
            | AppError::Usage(m)
            | AppError::Parse(m)
            | AppError::Cite(m)
            | AppError::Compacted(m)
            | AppError::Tamper(m) => m,
        }
    }

    /// A script error reported as `message`: parse errors exit 3, every
    /// other kind exits 4.
    fn script(e: &ScriptError, message: String) -> Self {
        match e.kind {
            ScriptErrorKind::Parse => AppError::Parse(message),
            ScriptErrorKind::Citation | ScriptErrorKind::Readonly => AppError::Cite(message),
        }
    }
}

impl From<ScriptFailure> for AppError {
    /// A server-reported error exits like the same script error run
    /// locally; connection and protocol failures are I/O errors.
    fn from(e: ScriptFailure) -> Self {
        match e.kind {
            Some(WireErrorKind::Parse) => AppError::Parse(e.message),
            Some(WireErrorKind::Citation | WireErrorKind::Readonly) => AppError::Cite(e.message),
            Some(WireErrorKind::Proto) | None => AppError::Io(e.message),
        }
    }
}

fn usage() -> String {
    "usage: citesys <script-file | - | serve | client | ingest | dataset | checkpoint | recover | compact | wal>\n\n\
     modes:\n  \
     <script-file>  run a script file\n  \
     -              read a whole script from stdin\n  \
     serve [--data-dir <path>] [--listen <addr>]\n        \
     [--follow <addr>] [--workers <n>] [--idle-timeout <secs>] [--commit-window-ms <ms>]\n        \
     [--max-connections <n>]\n        \
     [--checkpoint-every <records>] [--retain-checkpoints <n>]\n        \
     [--metrics <addr>] [--slow-cite-ms <n>]\n                 \
     interactive: execute each stdin line as it arrives,\n                 \
     reusing one citation service (warm plan cache) per session.\n                 \
     --data-dir makes the store durable: the newest checkpoint is\n                 \
     recovered at startup (data, views and plans come back warm),\n                 \
     every commit is write-ahead-logged and fsynced before it is\n                 \
     acknowledged, and the 'checkpoint' command folds the log into\n                 \
     a fresh snapshot.\n                 \
     --listen serves the same command language over TCP instead:\n                 \
     concurrent sessions share one store, and racing begin…commit\n                 \
     transactions group-commit into one snapshot swap per window\n                 \
     (stop it with the 'shutdown' command).\n                 \
     --follow makes this server a read replica of the primary at\n                 \
     <addr>: it bootstraps from a shipped checkpoint, tails the\n                 \
     primary's WAL, serves cite/read commands at its replicated\n                 \
     version and rejects writes with a readonly error (requires\n                 \
     --listen and --data-dir; a restart resumes from the local WAL)\n                 \
     --workers sets the event-worker threads: each multiplexes the\n                 \
     sockets an acceptor hands it (fewest held first) through an\n                 \
     epoll readiness loop, and clients may pipeline commands\n                 \
     (optionally tagged '@t cmd', tag echoed in the response\n                 \
     frame); --max-connections caps held sockets (over it,\n                 \
     connections are refused with 'err proto server full')\n                 \
     --checkpoint-every writes a checkpoint automatically once the WAL\n                 \
     holds that many records; --retain-checkpoints keeps the newest <n>\n                 \
     superseded checkpoints as time-travel anchors so 'cite … @ <version>'\n                 \
     reaches back past checkpoints (both require --data-dir)\n                 \
     --metrics serves Prometheus text exposition at\n                 \
     http://<addr>/metrics (cite-stage latency histograms, WAL/commit\n                 \
     timings, replication lag gauges) and turns latency timings on;\n                 \
     --slow-cite-ms logs every cite at or over <n> ms to stderr as one\n                 \
     'slow-cite' line with its per-stage span breakdown and\n                 \
     plan-cache hit/miss\n  \
     client [--pipeline] <addr> [script-file]\n                 \
     run a script (or stdin) against a serve --listen server and\n                 \
     print the responses; --pipeline sends every line up front\n                 \
     (tagged with its line number) and reads the responses in one\n                 \
     pass — one round trip instead of one per line\n  \
     ingest <data-dir> <dump-dir> [--as <dataset>] [--manifest <file>] [--batch <records>]\n                 \
     stream every <Relation>.csv / <Relation>.jsonl dump under\n                 \
     <dump-dir> into the durable store in batch-sized commits (each\n                 \
     WAL-logged and fsynced like any other commit), then pin the\n                 \
     load in <data-dir>/datasets.lock: per-source sha256, relation\n                 \
     fixity digest and the commit version range, with a line in the\n                 \
     append-only datasets.audit log. --as names the dataset\n                 \
     (default: the dump directory's name); --batch sets the tuples\n                 \
     per commit (default 10000, bounds peak memory)\n  \
     dataset verify <data-dir> [--manifest <file>]\n                 \
     re-hash every pinned source file and re-digest the store at\n                 \
     each dataset's recorded version; any mismatch (tampered or\n                 \
     missing source, fixity drift) exits 6 and names the failure\n  \
     checkpoint <data-dir>\n                 \
     recover the directory, fold the write-ahead log into a fresh\n                 \
     checkpoint, and reset the log\n  \
     recover <data-dir>\n                 \
     recover the directory and report what came back (version,\n                 \
     tables, views, plans, replayed log records) without serving\n  \
     compact <data-dir> [--keep <versions>]\n                 \
     fold the WAL into a fresh checkpoint and prune time-travel\n                 \
     anchors below the newest <versions> versions (default 0: only\n                 \
     the latest version stays reconstructable)\n  \
     wal dump <data-dir> [--since <version>]\n                 \
     print the write-ahead log's records as changeset text\n                 \
     (--since skips records at or below <version>; asking below the\n                 \
     last checkpoint exits 5 and names the oldest retained version)\n  \
     wal compact <data-dir> [--keep <versions>]\n                 \
     alias for 'compact'\n\n\
     commands:\n  \
     schema Name(attr:type, …) [key(i, …)]\n  \
     insert Name(v, …) / delete Name(v, …)\n  \
     view <rule> | cite <rule> [| static k=v]…\n  \
     begin          open a transaction: insert/delete lines buffer until\n                 \
     commit applies them atomically as one changeset (rollback discards)\n  \
     commit\n  \
     cite <query> [@ <version>] [| format text|bibtex|ris|xml|json|csl] [| mode formal|pruned] [| policy minsize|union|first] [| partial]\n                 \
     '@ <version>' cites against the committed snapshot at that\n                 \
     version (time travel); the citation is stamped with it\n  \
     verify / tables / dump Name / load Name from '<path>' [key(i, …)] / trace\n  \
     ingest '<dir>' [as <dataset>] [manifest '<file>'] [batch <n>]\n                 \
     stream the directory's CSV/JSONL dumps into the store in\n                 \
     batch-sized commits and pin the load in the dataset registry\n  \
     datasets       list the loads registered in the store's datasets.lock\n  \
     dataset verify ['<manifest>']   re-hash pinned sources and re-check fixity\n  \
     stats          commit/swap/group-window, plan/view-cache, WAL and\n                 \
     history counters (history_base_version, checkpoints_retained),\n                 \
     sorted by name\n  \
     metrics        the full metrics registry in Prometheus text\n                 \
     exposition format (the serve --metrics scrape payload)\n  \
     checkpoint     snapshot the durable store and reset the WAL (--data-dir)\n  \
     snapshot [@ <version>]   print the sha256 fixity digest of a version\n  \
     compact [<window>]       trim history to the newest <window> versions\n  \
     quit / shutdown (interactive and network sessions)\n\n\
     exit codes: 0 ok, 1 i/o error, 2 usage, 3 script parse error, 4 citation error,\n\
     5 requested history was compacted away, 6 dataset verification failed"
        .to_string()
}

/// Options accepted by `citesys serve`.
struct ServeOpts {
    data_dir: Option<String>,
    listen: Option<String>,
    follow: Option<String>,
    workers: Option<usize>,
    idle_timeout: Option<u64>,
    commit_window_ms: Option<u64>,
    max_connections: Option<usize>,
    checkpoint_every: Option<u64>,
    retain_checkpoints: Option<usize>,
    metrics: Option<String>,
    slow_cite_ms: Option<u64>,
}

fn parse_serve_opts(args: &[String]) -> Result<ServeOpts, String> {
    let mut opts = ServeOpts {
        data_dir: None,
        listen: None,
        follow: None,
        workers: None,
        idle_timeout: None,
        commit_window_ms: None,
        max_connections: None,
        checkpoint_every: None,
        retain_checkpoints: None,
        metrics: None,
        slow_cite_ms: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--data-dir" => opts.data_dir = Some(take("--data-dir")?),
            "--listen" => opts.listen = Some(take("--listen")?),
            "--follow" => opts.follow = Some(take("--follow")?),
            "--workers" => {
                opts.workers = Some(
                    take("--workers")?
                        .parse()
                        .map_err(|_| "--workers needs a number".to_string())?,
                )
            }
            "--idle-timeout" => {
                opts.idle_timeout = Some(
                    take("--idle-timeout")?
                        .parse()
                        .map_err(|_| "--idle-timeout needs seconds".to_string())?,
                )
            }
            "--commit-window-ms" => {
                opts.commit_window_ms = Some(
                    take("--commit-window-ms")?
                        .parse()
                        .map_err(|_| "--commit-window-ms needs milliseconds".to_string())?,
                )
            }
            "--checkpoint-every" => {
                let every: u64 = take("--checkpoint-every")?
                    .parse()
                    .map_err(|_| "--checkpoint-every needs a record count".to_string())?;
                if every == 0 {
                    return Err("--checkpoint-every must be at least 1".into());
                }
                opts.checkpoint_every = Some(every);
            }
            "--retain-checkpoints" => {
                opts.retain_checkpoints = Some(
                    take("--retain-checkpoints")?
                        .parse()
                        .map_err(|_| "--retain-checkpoints needs a number".to_string())?,
                )
            }
            "--max-connections" => {
                opts.max_connections = Some(
                    take("--max-connections")?
                        .parse()
                        .map_err(|_| "--max-connections needs a number".to_string())?,
                )
            }
            "--metrics" => opts.metrics = Some(take("--metrics")?),
            "--slow-cite-ms" => {
                opts.slow_cite_ms = Some(
                    take("--slow-cite-ms")?
                        .parse()
                        .map_err(|_| "--slow-cite-ms needs milliseconds".to_string())?,
                )
            }
            other => return Err(format!("unknown serve option '{other}'")),
        }
    }
    // The worker/timeout/window knobs configure the TCP server; accepting
    // them for the stdin REPL would silently ignore them.
    if opts.listen.is_none() {
        for (flag, set) in [
            ("--workers", opts.workers.is_some()),
            ("--idle-timeout", opts.idle_timeout.is_some()),
            ("--commit-window-ms", opts.commit_window_ms.is_some()),
            ("--max-connections", opts.max_connections.is_some()),
        ] {
            if set {
                return Err(format!("{flag} requires --listen <addr>"));
            }
        }
    }
    // Checkpoint cadence and anchor retention are durability knobs:
    // without a data dir there is no WAL to measure or checkpoint to
    // archive, so accepting them would silently do nothing.
    if opts.data_dir.is_none() {
        for (flag, set) in [
            ("--checkpoint-every", opts.checkpoint_every.is_some()),
            ("--retain-checkpoints", opts.retain_checkpoints.is_some()),
        ] {
            if set {
                return Err(format!("{flag} requires --data-dir <path>"));
            }
        }
    }
    // A follower serves reads over TCP and must be able to resume from
    // its own WAL after a restart, so both --listen and --data-dir are
    // mandatory with --follow.
    if opts.follow.is_some() {
        if opts.listen.is_none() {
            return Err("--follow requires --listen <addr> (replicas serve reads over TCP)".into());
        }
        if opts.data_dir.is_none() {
            return Err(
                "--follow requires --data-dir <path> (replicas persist shipped records \
                 to their own WAL so a restart resumes from the local version)"
                    .into(),
            );
        }
    }
    Ok(opts)
}

/// `serve --listen`: the TCP front end. Blocks until a client issues
/// `shutdown`.
fn serve_tcp(opts: &ServeOpts) -> Result<(), AppError> {
    let mut config = ServerConfig {
        addr: opts.listen.clone().expect("caller checked"),
        data_dir: opts.data_dir.clone().map(Into::into),
        follow: opts.follow.clone(),
        ..Default::default()
    };
    if let Some(w) = opts.workers {
        config.workers = w;
    }
    if let Some(s) = opts.idle_timeout {
        config.idle_timeout = Duration::from_secs(s);
    }
    if let Some(ms) = opts.commit_window_ms {
        config.commit_window = Duration::from_millis(ms);
    }
    if let Some(n) = opts.max_connections {
        config.max_connections = n;
    }
    config.checkpoint_every = opts.checkpoint_every;
    if let Some(n) = opts.retain_checkpoints {
        config.retain_checkpoints = n;
    }
    config.metrics = opts.metrics.clone();
    config.slow_cite_ms = opts.slow_cite_ms;
    let server =
        Server::spawn(config).map_err(|e| AppError::Io(format!("error starting server: {e}")))?;
    if let Some(primary) = &opts.follow {
        // Parsed by scripts/CI to confirm follower mode engaged.
        println!("following {primary}");
    }
    if let Some(addr) = server.metrics_addr() {
        // Parsed by scripts/CI to discover the scrape endpoint.
        println!("metrics on {addr}");
    }
    // Parsed by scripts/CI to discover an ephemeral port.
    println!("listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    server.wait();
    eprintln!("server stopped");
    Ok(())
}

/// The interactive stdin loop: executes each line as it arrives against
/// one persistent interpreter (and thus one warm plan cache). Errors are
/// reported but do not end the session. With `--data-dir` the store is
/// durable: an interrupted session (SIGINT, killed terminal) restarts
/// with its data, views and plans warm.
fn serve_stdin(opts: &ServeOpts) -> Result<(), AppError> {
    let data_dir = opts.data_dir.as_deref();
    let stdin = std::io::stdin();
    let interactive = std::env::var_os("CITESYS_SERVE_SILENT").is_none();
    let mut interp = match data_dir {
        Some(dir) => match SharedStore::open_durable_shared_with_retention(
            dir,
            opts.retain_checkpoints.unwrap_or(0),
        ) {
            Ok(shared) => {
                {
                    let mut sh = shared.lock();
                    let store = sh.store_mut();
                    store.set_checkpoint_every(opts.checkpoint_every);
                    if interactive {
                        eprintln!(
                            "durable store at {dir}: {} wal record(s) pending",
                            store.wal_records()
                        );
                    }
                }
                Interpreter::with_store(shared)
            }
            Err(e) => return Err(AppError::Io(format!("error opening data dir {dir}: {e}"))),
        },
        None => Interpreter::new(),
    };
    interp.shared().lock().set_slow_cite_ms(opts.slow_cite_ms);
    let metrics_shutdown = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let metrics_thread = match &opts.metrics {
        Some(addr) => {
            // Scraping without timings would expose empty histograms.
            interp.shared().lock().obs().set_timings_enabled(true);
            match citesys::net::spawn_metrics_server(
                addr,
                std::sync::Arc::clone(interp.shared()),
                std::sync::Arc::clone(&metrics_shutdown),
            ) {
                Ok((bound, handle)) => {
                    if interactive {
                        eprintln!("metrics on {bound}");
                    }
                    Some(handle)
                }
                Err(e) => {
                    return Err(AppError::Io(format!(
                        "error starting metrics endpoint on {addr}: {e}"
                    )))
                }
            }
        }
        None => None,
    };
    if interactive {
        eprintln!("citesys serve — one command per line, Ctrl-D to exit");
    }
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| AppError::Io(format!("error reading stdin: {e}")))?;
        match interp.run_session_line(&line) {
            Ok(reply) => {
                print!("{}", reply.output);
                let _ = std::io::stdout().flush();
                if reply.control != SessionControl::Continue {
                    break;
                }
            }
            Err(e) => eprintln!("error: {}", e.message),
        }
    }
    metrics_shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    if let Some(handle) = metrics_thread {
        let _ = handle.join();
    }
    Ok(())
}

/// `client [--pipeline] <addr> [script-file]`.
fn client(args: &[String]) -> Result<(), AppError> {
    const CLIENT_USAGE: &str = "usage: citesys client [--pipeline] <addr> [script-file]";
    let (pipeline, args) = match args.first().map(String::as_str) {
        Some("--pipeline") => (true, &args[1..]),
        _ => (false, args),
    };
    let Some(addr) = args.first() else {
        return Err(AppError::Usage(CLIENT_USAGE.into()));
    };
    if args.len() > 2 {
        return Err(AppError::Usage(CLIENT_USAGE.into()));
    }
    let script = match args.get(1) {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| AppError::Io(format!("error reading {path}: {e}")))?,
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| AppError::Io(format!("error reading stdin: {e}")))?;
            buf
        }
    };
    let mut out = std::io::stdout();
    if pipeline {
        run_script_pipelined(addr, &script, &mut out)?;
    } else {
        run_script(addr, &script, &mut out)?;
    }
    Ok(())
}

/// `checkpoint <data-dir>`: recover and fold the WAL into a fresh
/// checkpoint.
fn checkpoint_cmd(args: &[String]) -> Result<(), AppError> {
    let [dir] = args else {
        return Err(AppError::Usage(
            "usage: citesys checkpoint <data-dir>".into(),
        ));
    };
    let io = |e: String| AppError::Io(format!("{dir}: {e}"));
    match CitationService::open(dir).map_err(|e| io(e.to_string()))? {
        (mut handle, Some(recovered)) => {
            let replayed = recovered.replayed;
            let version = recovered
                .service
                .checkpoint(&recovered.store, &mut handle)
                .map_err(|e| io(e.to_string()))?;
            println!("{dir}: checkpoint at version {version} ({replayed} wal record(s) folded)");
        }
        (_, None) => println!("{dir}: empty data dir, nothing to checkpoint"),
    }
    Ok(())
}

/// `recover <data-dir>`: recover and report, without serving.
fn recover_cmd(args: &[String]) -> Result<(), AppError> {
    let [dir] = args else {
        return Err(AppError::Usage("usage: citesys recover <data-dir>".into()));
    };
    match CitationService::open(dir).map_err(|e| AppError::Io(format!("{dir}: {e}")))? {
        (_, Some(recovered)) => {
            println!(
                "{dir}: recovered to version {}",
                recovered.store.latest_version()
            );
            println!(
                "wal: {} record(s) replayed{}",
                recovered.replayed,
                if recovered.wal_truncated {
                    " (torn final record truncated)"
                } else {
                    ""
                }
            );
            let snapshot = recovered
                .store
                .snapshot(recovered.store.latest_version())
                .expect("latest snapshot");
            for (rel, count) in citesys_storage::durability::summarize_database(&snapshot) {
                println!("table {rel}: {count} tuple(s)");
            }
            println!(
                "registry: {} view(s); plans: {} cached; materialized views: {} relation(s)",
                recovered.service.registry().len(),
                recovered.service.plan_cache().len(),
                recovered
                    .service
                    .materialized_views()
                    .relation_names()
                    .len()
            );
        }
        (_, None) => println!("{dir}: empty data dir, nothing to recover"),
    }
    Ok(())
}

/// `wal <dump|compact> <data-dir> …`: inspect or trim the write-ahead
/// log.
fn wal_cmd(args: &[String]) -> Result<(), AppError> {
    const WAL_USAGE: &str = "usage: citesys wal dump <data-dir> [--since <version>]\n       \
         citesys wal compact <data-dir> [--keep <versions>]";
    match args.first().map(String::as_str) {
        Some("dump") => wal_dump(&args[1..]),
        // `wal compact` is the discoverable spelling; the work — fold
        // the WAL, prune anchors — is exactly `citesys compact`.
        Some("compact") => compact_cmd(&args[1..]),
        _ => Err(AppError::Usage(WAL_USAGE.into())),
    }
}

/// The oldest version still reconstructable from `dir`: the oldest
/// retained time-travel anchor when any exist, else the live
/// checkpoint's version.
fn oldest_retained_version(dir: &std::path::Path, checkpoint: u64) -> u64 {
    let mut oldest = checkpoint;
    if let Ok(entries) = std::fs::read_dir(dir.join(citesys_storage::ANCHORS_DIR)) {
        for entry in entries.flatten() {
            if let Some(v) = entry
                .file_name()
                .to_str()
                .and_then(|name| name.parse::<u64>().ok())
            {
                oldest = oldest.min(v);
            }
        }
    }
    oldest
}

/// `wal dump <data-dir> [--since <version>]`: print the write-ahead log
/// as changeset text, optionally only the records after a version.
fn wal_dump(args: &[String]) -> Result<(), AppError> {
    const DUMP_USAGE: &str = "usage: citesys wal dump <data-dir> [--since <version>]";
    let Some(dir) = args.first() else {
        return Err(AppError::Usage(DUMP_USAGE.into()));
    };
    let since = match &args[1..] {
        [] => None,
        [flag, v] if flag == "--since" => Some(v.parse::<u64>().map_err(|_| {
            AppError::Usage(format!("--since needs a version number\n{DUMP_USAGE}"))
        })?),
        _ => return Err(AppError::Usage(DUMP_USAGE.into())),
    };
    let dir = std::path::Path::new(dir);
    // An explicit --since below the last checkpoint asks for records
    // that were folded away: printing the (empty or partial) tail
    // would silently misrepresent history, so fail distinctly instead.
    if let Some(since) = since {
        match citesys_storage::manifest_version(dir) {
            Ok(Some(checkpoint)) if since < checkpoint => {
                let oldest = oldest_retained_version(dir, checkpoint);
                return Err(AppError::Compacted(format!(
                    "{}: wal records at or below version {checkpoint} were compacted \
                     into a checkpoint; the oldest retained version is {oldest} \
                     (use 'cite … @ <version>' from {oldest} on, or raise --since to \
                     at least {checkpoint})",
                    dir.display()
                )));
            }
            Ok(_) => {}
            Err(e) => return Err(AppError::Io(format!("{}: {e}", dir.display()))),
        }
    }
    let path = dir.join(citesys_storage::durability::WAL_FILE);
    // Read-only: a dump must never create or truncate the log — the
    // server owning this directory may be appending to it right now.
    let (records, truncated) = Wal::read_from(&path, since.unwrap_or(0))
        .map_err(|e| AppError::Io(format!("{}: {e}", path.display())))?;
    if truncated {
        eprintln!("note: final record is torn (left in place; recovery will truncate it)");
    }
    if records.is_empty() {
        println!("{}: no wal records", path.display());
    }
    for r in &records {
        println!("# version {} ({} op(s))", r.version, r.changes.len());
        print!("{}", r.changes.to_text());
    }
    Ok(())
}

/// `compact <data-dir> [--keep <versions>]`: offline history trim —
/// fold the WAL into a fresh checkpoint, then prune time-travel anchors
/// below the newest `--keep` versions.
fn compact_cmd(args: &[String]) -> Result<(), AppError> {
    const COMPACT_USAGE: &str = "usage: citesys compact <data-dir> [--keep <versions>]";
    let Some(dir) = args.first() else {
        return Err(AppError::Usage(COMPACT_USAGE.into()));
    };
    let keep = match &args[1..] {
        [] => 0u64,
        [flag, v] if flag == "--keep" => v.parse::<u64>().map_err(|_| {
            AppError::Usage(format!("--keep needs a version count\n{COMPACT_USAGE}"))
        })?,
        _ => return Err(AppError::Usage(COMPACT_USAGE.into())),
    };
    // Open with unbounded retention: offline compaction must not throw
    // away anchors as a side effect of its own checkpoint — only the
    // explicit prune below the window removes history.
    let shared = SharedStore::open_durable_shared_with_retention(dir, usize::MAX)
        .map_err(|e| AppError::Io(format!("{dir}: {e}")))?;
    let mut interp = Interpreter::with_store(shared);
    let reply = interp
        .run_session_line(&format!("compact {keep}"))
        .map_err(|e| AppError::Io(format!("{dir}: {}", e.message)))?;
    print!("{}", reply.output);
    Ok(())
}

/// `ingest <data-dir> <dump-dir> [--as <dataset>] [--manifest <file>]
/// [--batch <records>]`: stream the directory's dumps into the durable
/// store and pin the load in the dataset registry.
fn ingest_cmd(args: &[String]) -> Result<(), AppError> {
    const INGEST_USAGE: &str = "usage: citesys ingest <data-dir> <dump-dir> \
         [--as <dataset>] [--manifest <file>] [--batch <records>]";
    let [data_dir, dump_dir, rest @ ..] = args else {
        return Err(AppError::Usage(INGEST_USAGE.into()));
    };
    let mut dataset = None;
    let mut manifest = None;
    let mut batch: Option<usize> = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let parsed = match flag.as_str() {
            "--as" => take("--as").map(|v| dataset = Some(v)),
            "--manifest" => take("--manifest").map(|v| manifest = Some(v)),
            "--batch" => take("--batch").and_then(|v| {
                v.parse::<usize>()
                    .map_err(|_| "--batch needs a record count".to_string())
                    .and_then(|n| {
                        if n == 0 {
                            Err("--batch must be at least 1".to_string())
                        } else {
                            batch = Some(n);
                            Ok(())
                        }
                    })
            }),
            other => Err(format!("unknown ingest option '{other}'")),
        };
        parsed.map_err(|e| AppError::Usage(format!("{e}\n{INGEST_USAGE}")))?;
    }
    // The script grammar quotes paths with single quotes; a path
    // containing one cannot round-trip through the command line.
    for (what, value) in [
        ("dump directory", Some(dump_dir)),
        ("manifest", manifest.as_ref()),
    ] {
        if value.is_some_and(|v| v.contains('\'')) {
            return Err(AppError::Usage(format!(
                "{what} path must not contain a single quote\n{INGEST_USAGE}"
            )));
        }
    }
    let shared = SharedStore::open_durable_shared_with_retention(data_dir, 0)
        .map_err(|e| AppError::Io(format!("{data_dir}: {e}")))?;
    let mut interp = Interpreter::with_store(shared);
    let mut line = format!("ingest '{dump_dir}'");
    if let Some(name) = &dataset {
        line.push_str(&format!(" as {name}"));
    }
    if let Some(m) = &manifest {
        line.push_str(&format!(" manifest '{m}'"));
    }
    if let Some(n) = batch {
        line.push_str(&format!(" batch {n}"));
    }
    let reply = interp
        .run_session_line(&line)
        .map_err(|e| AppError::script(&e, format!("{data_dir}: {}", e.message)))?;
    print!("{}", reply.output);
    Ok(())
}

/// `dataset verify <data-dir> [--manifest <file>]`: re-hash every pinned
/// source and re-digest the store's fixity; mismatches exit
/// [`AppError::Tamper`].
fn dataset_cmd(args: &[String]) -> Result<(), AppError> {
    const DATASET_USAGE: &str = "usage: citesys dataset verify <data-dir> [--manifest <file>]";
    let Some("verify") = args.first().map(String::as_str) else {
        return Err(AppError::Usage(DATASET_USAGE.into()));
    };
    let (dir, manifest) = match &args[1..] {
        [dir] => (dir, None),
        [dir, flag, m] if flag == "--manifest" => (dir, Some(m.as_str())),
        _ => return Err(AppError::Usage(DATASET_USAGE.into())),
    };
    if manifest.is_some_and(|m| m.contains('\'')) {
        return Err(AppError::Usage(format!(
            "manifest path must not contain a single quote\n{DATASET_USAGE}"
        )));
    }
    // Unbounded retention: verification must not discard time-travel
    // anchors its fixity re-digest may need to reach a pinned version.
    let shared = SharedStore::open_durable_shared_with_retention(dir, usize::MAX)
        .map_err(|e| AppError::Io(format!("{dir}: {e}")))?;
    let mut interp = Interpreter::with_store(shared);
    let line = match manifest {
        Some(m) => format!("dataset verify '{m}'"),
        None => "dataset verify".to_string(),
    };
    let reply = interp.run_session_line(&line).map_err(|e| {
        let message = format!("{dir}: {}", e.message);
        if e.kind == ScriptErrorKind::Citation
            && e.message.starts_with("dataset verification failed")
        {
            AppError::Tamper(message)
        } else {
            AppError::script(&e, message)
        }
    })?;
    print!("{}", reply.output);
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("{}", e.message());
        std::process::exit(e.code());
    }
}

/// Dispatches one command line: a subcommand, or a script to run.
fn run(args: &[String]) -> Result<(), AppError> {
    let source = match args.first().map(String::as_str) {
        Some("--help") | Some("-h") | Some("help") => {
            println!("{}", usage());
            return Ok(());
        }
        None => return Err(AppError::Usage(usage())),
        Some("serve") => {
            let opts = parse_serve_opts(&args[1..])
                .map_err(|e| AppError::Usage(format!("{e}\n\n{}", usage())))?;
            return if opts.listen.is_some() {
                serve_tcp(&opts)
            } else {
                serve_stdin(&opts)
            };
        }
        Some("client") => return client(&args[1..]),
        Some("ingest") => return ingest_cmd(&args[1..]),
        Some("dataset") => return dataset_cmd(&args[1..]),
        Some("checkpoint") => return checkpoint_cmd(&args[1..]),
        Some("recover") => return recover_cmd(&args[1..]),
        Some("compact") => return compact_cmd(&args[1..]),
        Some("wal") => return wal_cmd(&args[1..]),
        Some("-") => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| AppError::Io(format!("error reading stdin: {e}")))?;
            buf
        }
        Some(flag) if flag.starts_with('-') => {
            return Err(AppError::Usage(format!(
                "unknown option '{flag}'\n\n{}",
                usage()
            )))
        }
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| AppError::Io(format!("error reading {path}: {e}")))?,
    };
    let out = Interpreter::new()
        .run(&source)
        .map_err(|e| AppError::script(&e, format!("error: {e}")))?;
    print!("{out}");
    Ok(())
}
