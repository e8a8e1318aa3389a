//! Observability integration tests: under a pipelined burst, the
//! Prometheus exposition served by the `metrics` command and the
//! `--metrics` HTTP endpoint must reconcile with the `stats` command's
//! counters — on both transports — and the exposition itself must be
//! structurally valid (metadata before samples, cumulative buckets).
//! The transports must also agree on *why* connections die: oversized
//! lines and idle reaps land in the same disconnect counters. And a
//! time-travel `cite … @ <version>` is observed exactly like a live one.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use citesys_core::AsOf;
use citesys_net::client::Connection;
use citesys_net::protocol::{Response, MAX_LINE_BYTES};
use citesys_net::script::{Interpreter, SharedStore};
use citesys_net::server::{Server, ServerConfig};

/// A transport variant with the metrics endpoint (and therefore
/// latency timings) enabled on an ephemeral port.
fn metrics_config(event_loop: bool) -> ServerConfig {
    ServerConfig {
        event_loop,
        workers: 2,
        metrics: Some("127.0.0.1:0".to_string()),
        ..Default::default()
    }
}

fn ok_lines(resp: Response) -> Vec<String> {
    match resp {
        Response::Ok(lines) => lines,
        Response::Err { kind, message } => panic!("unexpected error [{kind:?}]: {message}"),
    }
}

fn poll_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

/// One `name value` line out of the `stats` command's reply.
fn stat(lines: &[String], name: &str) -> u64 {
    lines
        .iter()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("stats has no '{name}' line: {lines:?}"))
}

/// The value of one exposition series, matched on the full
/// `name{labels}` prefix.
fn sample(text: &str, series: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            (name == series).then(|| value.parse().expect("numeric sample"))
        })
        .unwrap_or_else(|| panic!("exposition has no '{series}' series"))
}

/// Structural validation of the Prometheus text format: every sample
/// carries a parseable value and is preceded by `# HELP` / `# TYPE`
/// metadata for its family, and every `# TYPE` names a known kind.
fn assert_valid_exposition(text: &str) {
    let mut helped: HashSet<String> = HashSet::new();
    let mut typed: HashSet<String> = HashSet::new();
    let mut samples = 0usize;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap();
            assert!(!helped.contains(name), "duplicate HELP for {name}");
            helped.insert(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            let name = it.next().unwrap();
            let kind = it.next().unwrap_or("");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown TYPE kind: {line}"
            );
            typed.insert(name.to_string());
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment: {line}");
        if line.is_empty() {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("unparseable sample: {line}"));
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("non-numeric value: {line}"));
        let base = series.split('{').next().unwrap();
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| base.strip_suffix(suffix).filter(|f| typed.contains(*f)))
            .unwrap_or(base);
        assert!(
            typed.contains(family) && helped.contains(family),
            "sample without HELP/TYPE metadata: {line}"
        );
        samples += 1;
    }
    assert!(samples > 0, "exposition is empty");
}

/// Buckets of an unlabeled histogram must be cumulative and its `+Inf`
/// bucket must equal `_count`.
fn assert_histogram_consistent(text: &str, family: &str) {
    let mut buckets: Vec<f64> = Vec::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        if line.starts_with(&format!("{family}_bucket{{")) {
            let (_, value) = line.rsplit_once(' ').unwrap();
            buckets.push(value.parse().unwrap());
        }
    }
    assert!(!buckets.is_empty(), "{family} has no buckets");
    for pair in buckets.windows(2) {
        assert!(pair[0] <= pair[1], "{family} buckets not cumulative");
    }
    let count = sample(text, &format!("{family}_count"));
    assert_eq!(
        buckets.last().copied(),
        Some(count),
        "{family} +Inf bucket disagrees with _count"
    );
}

/// Raw HTTP/1.1 exchange against the scrape endpoint; returns
/// `(head, body)`.
fn scrape(addr: &str, request_line: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect scrape endpoint");
    write!(stream, "{request_line}\r\nHost: test\r\n\r\n").unwrap();
    let mut reply = String::new();
    stream
        .read_to_string(&mut reply)
        .expect("read scrape reply");
    let (head, body) = reply.split_once("\r\n\r\n").expect("header/body split");
    (head.to_string(), body.to_string())
}

/// Three commits, three cites (one plan-cache hit, two misses), all
/// pipelined through one connection.
const BURST: &[&str] = &[
    "schema R(A:int, B:text) key(0)",
    "insert R(1, 'a')",
    "view V(A, B) :- R(A, B) | cite CV(D) :- D = 'src'",
    "commit",
    "begin",
    "insert R(2, 'b')",
    "commit",
    "begin",
    "insert R(3, 'c')",
    "commit",
    "cite Q(A) :- R(A, B)",
    "cite Q(A) :- R(A, B)",
    "cite Q(B) :- R(A, B)",
];

#[test]
fn metrics_reconcile_with_stats_after_pipelined_burst() {
    for event_loop in [false, true] {
        let server = Server::spawn(metrics_config(event_loop)).expect("spawn");
        let addr = server.local_addr().to_string();
        let mut conn = Connection::connect(&addr).unwrap();
        for resp in conn.pipeline(BURST).unwrap() {
            ok_lines(resp);
        }

        let stats_lines = ok_lines(conn.send("stats").unwrap());
        let mut sorted = stats_lines.clone();
        sorted.sort();
        assert_eq!(stats_lines, sorted, "stats output must be sorted");

        let text = ok_lines(conn.send("metrics").unwrap()).join("\n");
        assert_valid_exposition(&text);
        assert_histogram_consistent(&text, "citesys_cite_seconds");
        assert_histogram_consistent(&text, "citesys_commit_seconds");

        // Counter/gauge reconciliation: one registry feeds both views.
        assert_eq!(
            sample(&text, "citesys_commits_total"),
            stat(&stats_lines, "commits") as f64,
            "event_loop={event_loop}"
        );
        assert_eq!(
            sample(&text, "citesys_snapshot_swaps_total"),
            stat(&stats_lines, "snapshot_swaps") as f64,
        );
        assert_eq!(
            sample(&text, "citesys_group_windows_total"),
            stat(&stats_lines, "group_windows") as f64,
        );
        assert_eq!(
            sample(&text, "citesys_wal_records"),
            stat(&stats_lines, "wal_records") as f64,
        );
        assert_eq!(
            sample(&text, "citesys_plan_cache_hits_total"),
            stat(&stats_lines, "plan_cache_hits") as f64,
        );
        assert_eq!(
            sample(&text, "citesys_plan_cache_misses_total"),
            stat(&stats_lines, "plan_cache_misses") as f64,
        );
        assert_eq!(stat(&stats_lines, "commits"), 3);

        // Latency spans: every cite timed end-to-end and per stage; the
        // rewrite stage only ran on plan-cache misses.
        assert_eq!(sample(&text, "citesys_cite_seconds_count"), 3.0);
        assert_eq!(
            sample(
                &text,
                "citesys_cite_stage_seconds_count{stage=\"plan_lookup\"}"
            ),
            3.0
        );
        assert_eq!(
            sample(&text, "citesys_cite_stage_seconds_count{stage=\"render\"}"),
            3.0
        );
        assert_eq!(
            sample(&text, "citesys_cite_stage_seconds_count{stage=\"rewrite\"}"),
            sample(&text, "citesys_plan_cache_misses_total"),
        );
        assert!(sample(&text, "citesys_cite_stage_seconds_count{stage=\"parse\"}") > 0.0);

        // The HTTP endpoint serves the same registry.
        let maddr = server
            .metrics_addr()
            .expect("metrics endpoint bound")
            .to_string();
        let (head, body) = scrape(&maddr, "GET /metrics HTTP/1.1");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(
            head.contains("Content-Type: text/plain; version=0.0.4"),
            "{head}"
        );
        assert_valid_exposition(&body);
        assert_eq!(
            sample(&body, "citesys_commits_total"),
            stat(&stats_lines, "commits") as f64,
        );

        let (head, _) = scrape(&maddr, "GET /nope HTTP/1.1");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        let (head, _) = scrape(&maddr, "POST /metrics HTTP/1.1");
        assert!(head.starts_with("HTTP/1.1 405"), "{head}");

        drop(conn);
        server.stop();
    }
}

#[test]
fn disconnect_reasons_counted_on_both_transports() {
    for event_loop in [false, true] {
        let config = ServerConfig {
            event_loop,
            workers: 2,
            idle_timeout: Duration::from_millis(200),
            ..Default::default()
        };
        let server = Server::spawn(config).expect("spawn");
        let addr = server.local_addr().to_string();

        // Oversized: one line over the cap hangs the session up.
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let mut big = vec![b'x'; MAX_LINE_BYTES + 16];
        big.push(b'\n');
        stream.write_all(&big).expect("send oversized line");
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink);
        drop(stream);

        // Idle: a connected-but-silent session is reaped at the
        // deadline (hold it open until the server closes it).
        let mut idle = TcpStream::connect(&addr).expect("connect idle");
        let mut sink = Vec::new();
        let _ = idle.read_to_end(&mut sink);
        drop(idle);

        let reconciled = poll_until(Duration::from_secs(5), || {
            let mut conn = Connection::connect(&addr).unwrap();
            let lines = ok_lines(conn.send("stats").unwrap());
            stat(&lines, "disconnects_oversized") == 1 && stat(&lines, "disconnects_idle") == 1
        });
        assert!(
            reconciled,
            "event_loop={event_loop}: disconnect counters never reconciled"
        );
        server.stop();
    }
}

const ASOF_SETUP: &str = "\
schema Family(FID:int, FName:text, Desc:text) key(0)
schema FamilyIntro(FID:int, Text:text) key(0)
insert Family(11, 'Calcitonin', 'C1')
insert FamilyIntro(11, '1st')
view V2(FID, FName, Desc) :- Family(FID, FName, Desc) | cite CV2(D) :- D = 'GtoPdb'
view V3(FID, Text) :- FamilyIntro(FID, Text) | cite CV3(D) :- D = 'GtoPdb'
commit
";

const ASOF_CITE: &str = "cite Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)";

/// Commits one new family as the next version.
fn commit_family(interp: &mut Interpreter, fid: u64) {
    interp
        .run(&format!(
            "insert Family({fid}, 'F{fid}', 'D')\ninsert FamilyIntro({fid}, 'I{fid}')\ncommit\n"
        ))
        .expect("commit");
}

/// Live, in-memory `@ v` and anchor `@ v` cites all reach the cite
/// histogram and the slow-cite log. With timings off and the log
/// disarmed, none of them is timed (the gate really gates).
#[test]
fn time_travel_cites_are_observed_like_live_cites() {
    let dir = std::env::temp_dir()
        .join("citesys-obs-test")
        .join(format!("asof-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        // Versions 1..=4, each checkpointed: the superseded checkpoints
        // stay behind as anchors.
        let shared = SharedStore::open_durable_shared_with_retention(&dir, usize::MAX).unwrap();
        shared.lock().store_mut().set_checkpoint_every(Some(1));
        let mut interp = Interpreter::with_store(shared);
        interp.run(ASOF_SETUP).expect("setup");
        for fid in 20..23 {
            commit_family(&mut interp, fid);
        }
    }
    for timings in [false, true] {
        // After a restart the op log starts at the recovered checkpoint:
        // version 1 is reachable only through an anchor, while the
        // version committed below stays in memory.
        let shared = SharedStore::open_durable_shared_with_retention(&dir, usize::MAX).unwrap();
        shared.lock().obs().set_timings_enabled(timings);
        if timings {
            shared.lock().set_slow_cite_ms(Some(0));
        }
        let mut interp = Interpreter::with_store(shared);
        commit_family(&mut interp, 30 + u64::from(timings));
        let latest = interp.shared().lock().store().latest_version();
        let in_memory = latest - 1;
        {
            let mut sh = interp.shared().lock();
            let store = sh.store_mut();
            assert!(matches!(store.as_of(in_memory), Ok(AsOf::Memory(_))));
            assert!(matches!(store.as_of(1), Ok(AsOf::Anchor(..))));
        }
        let cites = [
            (ASOF_CITE.to_string(), latest),
            (format!("{ASOF_CITE} @ {in_memory}"), in_memory),
            (format!("{ASOF_CITE} @ 1"), 1),
        ];
        for (line, version) in &cites {
            let out = interp.run_line(line).expect("cite");
            assert!(out.contains(&format!("at version {version}")), "{out}");
        }
        let text = interp.shared().lock().render_metrics();
        let (expect_timed, expect_slow) = if timings {
            (cites.len() as f64, cites.len() as f64)
        } else {
            (0.0, 0.0)
        };
        assert_eq!(
            sample(&text, "citesys_cite_seconds_count"),
            expect_timed,
            "timings={timings}"
        );
        assert_eq!(
            sample(&text, "citesys_slow_cites_total"),
            expect_slow,
            "timings={timings}"
        );
        // Exported whatever the timing gate says; equivalent rewritings
        // never derive a tuple the direct answer lacks.
        assert_eq!(sample(&text, "citesys_cite_unmatched_tuples_total"), 0.0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
