//! The `citesys` binary, driven end to end through its command line:
//! one literal grammar from the typed line to the durable bytes and back.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn citesys(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_citesys"))
        .args(args)
        .env("CITESYS_SERVE_SILENT", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn citesys");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    child.wait_with_output().unwrap()
}

/// Runs a script from stdin and returns its output; the script must
/// succeed line by line.
fn run_script(script: &str) -> String {
    let out = citesys(&["-"], script);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "script failed ({:?}): {}\n{stdout}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("citesys-cli-test")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("temp paths are UTF-8")
}

const NOTES: &str = "schema Note(I:int, B:text, F:bool)\n\
    view V(I, B, F) :- Note(I, B, F) | cite CV(D) :- D = 'notes'\n\
    insert Note(1, 'a\\nb', true)\n\
    insert Note(2, 'bug #42', false)\n\
    commit\n";

fn answer_counts(output: &str) -> Vec<&str> {
    output
        .lines()
        .filter(|l| l.contains("answer tuple(s)"))
        .collect()
}

#[test]
fn an_escape_means_the_same_in_an_insert_and_a_query() {
    let out = run_script(&format!(
        "{NOTES}cite Q(I) :- Note(I, 'a\\nb', F)\ndump Note\n"
    ));
    assert_eq!(answer_counts(&out), ["1 answer tuple(s) at version 1"]);
    assert!(
        out.contains("1,\"a\nb\",true"),
        "stored with a newline: {out}"
    );
}

#[test]
fn true_is_a_constant_in_a_query() {
    let out = run_script(&format!("{NOTES}cite Q(I) :- Note(I, B, true)\n"));
    assert_eq!(answer_counts(&out), ["1 answer tuple(s) at version 1"]);
}

#[test]
fn double_quoted_strings_read_everywhere() {
    let out = run_script(&format!(
        "{NOTES}cite Q(I) :- Note(I, \"bug #42\", F) # a comment\n\
         insert Note(3, \"x\", true)\ncommit\ndump Note\n"
    ));
    assert_eq!(answer_counts(&out), ["1 answer tuple(s) at version 1"]);
    assert!(out.contains("3,\"x\",true"), "{out}");
}

#[test]
fn wal_dump_lines_replay_as_insert_lines() {
    let dir = temp_dir("wal-replay");
    let data = dir.join("data");
    // A CSV load stores what no typed line spells raw: embedded newlines
    // and carriage returns, which the WAL writes as escapes.
    let csv = dir.join("more.csv");
    std::fs::write(&csv, "\"A:int\",\"B:text\"\n4,\"line1\nline2\r\"\n").unwrap();
    let schema = "schema R(A:int, B:text) key(0)\n";
    let written = format!(
        "{schema}view V(A, B) :- R(A, B) | cite CV(D) :- D = 'r'\n\
         insert R(1, 'q\\'uo\\\\te')\ninsert R(2, '\ttab \"dq\" #h')\ncommit\n\
         delete R(2, '\ttab \"dq\" #h')\ninsert R(3, \"it's\")\nload R from '{}'\ncommit\ndump R\n",
        path_str(&csv)
    );
    let out = citesys(&["serve", "--data-dir", path_str(&data)], &written);
    assert!(out.status.success());
    let original = String::from_utf8(out.stdout).unwrap();
    let original_dump = &original[original.find("\"A:int\"").unwrap()..];
    assert!(
        original_dump.contains("line1\nline2\r"),
        "{original_dump:?}"
    );

    let wal = citesys(&["wal", "dump", path_str(&data)], "");
    assert!(wal.status.success());
    let mut replay = String::from(schema);
    for line in String::from_utf8(wal.stdout).unwrap().lines() {
        if let Some(atom) = line.strip_prefix("i ") {
            replay.push_str(&format!("insert {atom}\n"));
        } else if let Some(atom) = line.strip_prefix("d ") {
            replay.push_str(&format!("delete {atom}\n"));
        }
    }
    replay.push_str("commit\ndump R\n");
    let replayed = run_script(&replay);
    assert_eq!(
        &replayed[replayed.find("\"A:int\"").unwrap()..],
        original_dump
    );
}

#[test]
fn ingest_reads_a_directory_whose_name_has_a_quote() {
    let dir = temp_dir("ingest-quote");
    let dumps = dir.join("it's dumps");
    std::fs::create_dir_all(&dumps).unwrap();
    std::fs::write(dumps.join("R.csv"), "\"A:int\",\"B:text\"\n1,\"x\"\n").unwrap();
    let manifest = dir.join("o'clock.lock");
    let data = dir.join("data");
    let out = citesys(
        &[
            "ingest",
            path_str(&data),
            path_str(&dumps),
            "--manifest",
            path_str(&manifest),
        ],
        "",
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{:?}: {}{stdout}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("ingested 1 record(s)"), "{stdout}");
    let verify = citesys(
        &[
            "dataset",
            "verify",
            path_str(&data),
            "--manifest",
            path_str(&manifest),
        ],
        "",
    );
    assert!(
        verify.status.success(),
        "{}",
        String::from_utf8_lossy(&verify.stderr)
    );
}

#[test]
fn a_cited_control_character_survives_checkpoint_and_recovery() {
    let dir = temp_dir("plan-newline");
    let data = dir.join("data");
    let out = citesys(
        &["serve", "--data-dir", path_str(&data)],
        &format!("{NOTES}cite Q(I) :- Note(I, 'a\\nb', F)\ncheckpoint\n"),
    );
    assert!(out.status.success());
    let recover = citesys(&["recover", path_str(&data)], "");
    assert!(
        recover.status.success(),
        "{}",
        String::from_utf8_lossy(&recover.stderr)
    );
    let stdout = String::from_utf8_lossy(&recover.stdout);
    assert!(stdout.contains("plans: 1 cached"), "{stdout}");
    let again = citesys(
        &["serve", "--data-dir", path_str(&data)],
        "cite Q(I) :- Note(I, 'a\\nb', F)\n",
    );
    assert_eq!(
        answer_counts(&String::from_utf8_lossy(&again.stdout)),
        ["1 answer tuple(s) at version 1"]
    );
}
