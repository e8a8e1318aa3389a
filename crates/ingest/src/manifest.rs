//! The dataset registry: a `datasets.lock`-style manifest pinning what
//! was loaded, from where, and what it hashed to.
//!
//! Text codec in the durability conventions — format-version gate,
//! CRLF-tolerant line parsing, atomic write (temp file + rename + parent
//! directory fsync). Grammar:
//!
//! ```text
//! citesys-datasets v1
//! dataset <name>
//! dir <ingested directory...>
//! loaded-by <user>
//! loaded-at <unix-seconds>
//! versions <first> <last>
//! fixity <sha256-hex>
//! source <sha256-hex> <bytes> <records> <relation> <file name...>
//! end
//! ```
//!
//! `fixity` is the whole-database digest at the last committed version of
//! the load; `source` lines pin each input file. [`verify_sources`]
//! re-hashes the files in a streaming pass and reports tamper; fixity
//! drift against the live store is checked by the caller (who owns the
//! versioned database) via [`DatasetEntry::fixity`].

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};

use citesys_storage::Digest;

use crate::error::{io_err, IngestError};

/// Header line gating the manifest format version.
pub const MANIFEST_HEADER: &str = "citesys-datasets v1";

/// Default manifest file name inside a data directory.
pub const MANIFEST_FILE: &str = "datasets.lock";

/// One pinned source file of a dataset.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SourceFile {
    /// File name relative to the ingested directory.
    pub file: String,
    /// Relation the file loaded into.
    pub relation: String,
    /// SHA-256 of the file bytes at load time.
    pub sha256: Digest,
    /// File size in bytes at load time.
    pub bytes: u64,
    /// Data records the file contributed.
    pub records: u64,
}

/// One registered dataset load.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DatasetEntry {
    /// Dataset name (by convention the ingested directory name).
    pub name: String,
    /// The directory the sources were ingested from (as recorded at
    /// load time; source file names are relative to it).
    pub dir: String,
    /// Who ran the load.
    pub loaded_by: String,
    /// Unix seconds when the load committed.
    pub loaded_at: u64,
    /// First commit version the load produced.
    pub first_version: u64,
    /// Last commit version the load produced.
    pub last_version: u64,
    /// Whole-database fixity digest at `last_version`.
    pub fixity: Digest,
    /// The pinned source files.
    pub sources: Vec<SourceFile>,
}

/// The registry: every dataset load recorded in `datasets.lock`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DatasetManifest {
    /// Registered loads, in load order.
    pub datasets: Vec<DatasetEntry>,
}

/// A problem found by verification.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VerifyIssue {
    /// A pinned source file no longer exists.
    MissingSource {
        /// Dataset owning the pin.
        dataset: String,
        /// The missing file (relative name).
        file: String,
    },
    /// A pinned source file's bytes changed since the load.
    SourceDigest {
        /// Dataset owning the pin.
        dataset: String,
        /// The tampered file (relative name).
        file: String,
        /// Digest recorded at load time.
        expected: Digest,
        /// Digest of the file as it is now.
        got: Digest,
    },
    /// The database digest at the recorded version no longer matches.
    FixityDrift {
        /// Dataset owning the pin.
        dataset: String,
        /// Digest recorded at load time.
        expected: Digest,
        /// Digest the store reports now.
        got: Digest,
    },
}

impl std::fmt::Display for VerifyIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyIssue::MissingSource { dataset, file } => {
                write!(f, "dataset {dataset}: source '{file}' is missing")
            }
            VerifyIssue::SourceDigest { dataset, file, .. } => {
                write!(
                    f,
                    "dataset {dataset}: source '{file}' digest mismatch (tampered)"
                )
            }
            VerifyIssue::FixityDrift { dataset, .. } => {
                write!(f, "dataset {dataset}: relation fixity drift")
            }
        }
    }
}

impl DatasetManifest {
    /// Renders the registry in the `citesys-datasets v1` codec.
    pub fn to_text(&self) -> String {
        let mut out = String::from(MANIFEST_HEADER);
        out.push('\n');
        for d in &self.datasets {
            out.push_str(&format!("dataset {}\n", d.name));
            out.push_str(&format!("dir {}\n", d.dir));
            out.push_str(&format!("loaded-by {}\n", d.loaded_by));
            out.push_str(&format!("loaded-at {}\n", d.loaded_at));
            out.push_str(&format!(
                "versions {} {}\n",
                d.first_version, d.last_version
            ));
            out.push_str(&format!("fixity {}\n", d.fixity.to_hex()));
            for s in &d.sources {
                out.push_str(&format!(
                    "source {} {} {} {} {}\n",
                    s.sha256.to_hex(),
                    s.bytes,
                    s.records,
                    s.relation,
                    s.file
                ));
            }
            out.push_str("end\n");
        }
        out
    }

    /// Parses the codec back; tolerates CRLF line endings and rejects
    /// unknown format versions or directives.
    pub fn from_text(text: &str) -> Result<DatasetManifest, String> {
        let mut lines = text.lines().map(trim_cr);
        match lines.next() {
            Some(MANIFEST_HEADER) => {}
            Some(other) => return Err(format!("unsupported manifest header '{other}'")),
            None => return Err("empty manifest".into()),
        }
        let mut datasets = Vec::new();
        let mut cur: Option<DatasetEntry> = None;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (word, rest) = line.split_once(' ').unwrap_or((line, ""));
            match word {
                "dataset" => {
                    if cur.is_some() {
                        return Err("nested 'dataset' without 'end'".into());
                    }
                    cur = Some(DatasetEntry {
                        name: rest.to_string(),
                        dir: String::new(),
                        loaded_by: String::new(),
                        loaded_at: 0,
                        first_version: 0,
                        last_version: 0,
                        fixity: Digest([0; 32]),
                        sources: Vec::new(),
                    });
                }
                "dir" => entry_mut(&mut cur)?.dir = rest.to_string(),
                "loaded-by" => entry_mut(&mut cur)?.loaded_by = rest.to_string(),
                "loaded-at" => {
                    entry_mut(&mut cur)?.loaded_at = rest
                        .parse()
                        .map_err(|_| format!("bad loaded-at '{rest}'"))?
                }
                "versions" => {
                    let (a, b) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("bad versions line '{rest}'"))?;
                    let e = entry_mut(&mut cur)?;
                    e.first_version = a.parse().map_err(|_| format!("bad version '{a}'"))?;
                    e.last_version = b.parse().map_err(|_| format!("bad version '{b}'"))?;
                }
                "fixity" => {
                    entry_mut(&mut cur)?.fixity =
                        Digest::from_hex(rest).ok_or_else(|| format!("bad fixity '{rest}'"))?
                }
                "source" => {
                    let mut it = rest.splitn(5, ' ');
                    let (hex, bytes, records, relation, file) =
                        match (it.next(), it.next(), it.next(), it.next(), it.next()) {
                            (Some(a), Some(b), Some(c), Some(d), Some(e)) => (a, b, c, d, e),
                            _ => return Err(format!("bad source line '{rest}'")),
                        };
                    entry_mut(&mut cur)?.sources.push(SourceFile {
                        file: file.to_string(),
                        relation: relation.to_string(),
                        sha256: Digest::from_hex(hex)
                            .ok_or_else(|| format!("bad source digest '{hex}'"))?,
                        bytes: bytes.parse().map_err(|_| format!("bad bytes '{bytes}'"))?,
                        records: records
                            .parse()
                            .map_err(|_| format!("bad records '{records}'"))?,
                    });
                }
                "end" => {
                    datasets.push(cur.take().ok_or("'end' without 'dataset'")?);
                }
                other => return Err(format!("unknown manifest directive '{other}'")),
            }
        }
        if cur.is_some() {
            return Err("manifest truncated: missing 'end'".into());
        }
        Ok(DatasetManifest { datasets })
    }

    /// Loads a manifest file; `Ok(None)` when the file does not exist.
    pub fn load(path: &Path) -> Result<Option<DatasetManifest>, IngestError> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(path)(e)),
        };
        DatasetManifest::from_text(&text)
            .map(Some)
            .map_err(|m| IngestError::Corrupt {
                path: path.to_path_buf(),
                message: m,
            })
    }

    /// Writes the manifest atomically (temp file + rename + parent fsync).
    pub fn write_atomic(&self, path: &Path) -> Result<(), IngestError> {
        write_atomic(path, &self.to_text())
    }

    /// Finds a dataset by name.
    pub fn dataset(&self, name: &str) -> Option<&DatasetEntry> {
        self.datasets.iter().find(|d| d.name == name)
    }

    /// Registers a load, replacing any earlier entry with the same name
    /// (re-ingesting a dataset re-pins it).
    pub fn register(&mut self, entry: DatasetEntry) {
        self.datasets.retain(|d| d.name != entry.name);
        self.datasets.push(entry);
    }
}

fn entry_mut(cur: &mut Option<DatasetEntry>) -> Result<&mut DatasetEntry, String> {
    cur.as_mut()
        .ok_or_else(|| "directive outside 'dataset' block".to_string())
}

/// Trims one trailing carriage return (CRLF tolerance).
fn trim_cr(line: &str) -> &str {
    line.strip_suffix('\r').unwrap_or(line)
}

/// Streams a file through SHA-256 without loading it.
pub fn hash_file(path: &Path) -> Result<(Digest, u64), IngestError> {
    let f = File::open(path).map_err(io_err(path))?;
    let mut r = BufReader::new(f);
    let mut hash = citesys_storage::Sha256::new();
    let mut buf = [0u8; 64 * 1024];
    let mut total = 0u64;
    loop {
        let n = r.read(&mut buf).map_err(io_err(path))?;
        if n == 0 {
            break;
        }
        hash.update(&buf[..n]);
        total += n as u64;
    }
    Ok((hash.finalize(), total))
}

/// Re-hashes every pinned source and reports missing or tampered files.
/// Files resolve against each dataset's recorded `dir` unless `base`
/// overrides it (e.g. the dump moved). Streaming — bounded memory
/// regardless of dump size.
pub fn verify_sources(
    manifest: &DatasetManifest,
    base: Option<&Path>,
) -> Result<Vec<VerifyIssue>, IngestError> {
    let mut issues = Vec::new();
    for d in &manifest.datasets {
        for s in &d.sources {
            let path = base.unwrap_or_else(|| Path::new(&d.dir)).join(&s.file);
            if !path.exists() {
                issues.push(VerifyIssue::MissingSource {
                    dataset: d.name.clone(),
                    file: s.file.clone(),
                });
                continue;
            }
            let (got, _) = hash_file(&path)?;
            if got != s.sha256 {
                issues.push(VerifyIssue::SourceDigest {
                    dataset: d.name.clone(),
                    file: s.file.clone(),
                    expected: s.sha256,
                    got,
                });
            }
        }
    }
    Ok(issues)
}

pub(crate) fn write_atomic(path: &Path, content: &str) -> Result<(), IngestError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, content).map_err(io_err(&tmp))?;
    let f = File::open(&tmp).map_err(io_err(&tmp))?;
    f.sync_all().map_err(io_err(&tmp))?;
    std::fs::rename(&tmp, path).map_err(io_err(path))?;
    sync_parent_dir(path)
}

pub(crate) fn sync_parent_dir(path: &Path) -> Result<(), IngestError> {
    #[cfg(unix)]
    if let Some(dir) = path.parent() {
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        let d = File::open(dir).map_err(io_err(dir))?;
        d.sync_all().map_err(io_err(dir))?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// Where a store's manifest lives: the explicit override, else
/// `<data-dir>/datasets.lock`; `None` for a store with neither.
pub fn manifest_path(data_dir: Option<&Path>, explicit: Option<&str>) -> Option<PathBuf> {
    match explicit {
        Some(p) => Some(PathBuf::from(p)),
        None => data_dir.map(|d| d.join(MANIFEST_FILE)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citesys_storage::sha256;

    fn sample() -> DatasetManifest {
        DatasetManifest {
            datasets: vec![DatasetEntry {
                name: "gtopdb".into(),
                dir: "/tmp/dumps/gtopdb".into(),
                loaded_by: "curator".into(),
                loaded_at: 1_754_500_000,
                first_version: 3,
                last_version: 17,
                fixity: sha256(b"db"),
                sources: vec![
                    SourceFile {
                        file: "Family.csv".into(),
                        relation: "Family".into(),
                        sha256: sha256(b"fam"),
                        bytes: 123,
                        records: 4,
                    },
                    SourceFile {
                        file: "name with spaces.csv".into(),
                        relation: "Target".into(),
                        sha256: sha256(b"tgt"),
                        bytes: 99,
                        records: 2,
                    },
                ],
            }],
        }
    }

    #[test]
    fn round_trip() {
        let m = sample();
        let text = m.to_text();
        assert!(text.starts_with("citesys-datasets v1\n"));
        let back = DatasetManifest::from_text(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn crlf_tolerated() {
        let text = sample().to_text().replace('\n', "\r\n");
        assert_eq!(DatasetManifest::from_text(&text).unwrap(), sample());
    }

    #[test]
    fn version_gate_and_bad_directives() {
        assert!(DatasetManifest::from_text("citesys-datasets v2\n").is_err());
        assert!(DatasetManifest::from_text("").is_err());
        assert!(DatasetManifest::from_text("citesys-datasets v1\nbogus line\n").is_err());
        assert!(DatasetManifest::from_text("citesys-datasets v1\ndataset x\n").is_err());
    }

    #[test]
    fn register_replaces_same_name() {
        let mut m = sample();
        let mut again = m.datasets[0].clone();
        again.last_version = 40;
        m.register(again);
        assert_eq!(m.datasets.len(), 1);
        assert_eq!(m.datasets[0].last_version, 40);
    }

    #[test]
    fn verify_detects_tamper_and_missing() {
        let dir = std::env::temp_dir().join(format!("citesys-ingest-mt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("Family.csv");
        std::fs::write(&file, b"\"FID:int\"\n1\n").unwrap();
        let (digest, bytes) = hash_file(&file).unwrap();
        let m = DatasetManifest {
            datasets: vec![DatasetEntry {
                name: "d".into(),
                dir: dir.display().to_string(),
                loaded_by: "t".into(),
                loaded_at: 0,
                first_version: 1,
                last_version: 1,
                fixity: sha256(b"x"),
                sources: vec![
                    SourceFile {
                        file: "Family.csv".into(),
                        relation: "Family".into(),
                        sha256: digest,
                        bytes,
                        records: 1,
                    },
                    SourceFile {
                        file: "Gone.csv".into(),
                        relation: "Gone".into(),
                        sha256: sha256(b"gone"),
                        bytes: 0,
                        records: 0,
                    },
                ],
            }],
        };
        let issues = verify_sources(&m, None).unwrap();
        assert_eq!(issues.len(), 1);
        assert!(matches!(issues[0], VerifyIssue::MissingSource { .. }));
        // One-byte tamper flips the digest; also exercise the base override.
        std::fs::write(&file, b"\"FID:int\"\n2\n").unwrap();
        let issues = verify_sources(&m, Some(&dir)).unwrap();
        assert!(issues
            .iter()
            .any(|i| matches!(i, VerifyIssue::SourceDigest { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_then_load() {
        let dir = std::env::temp_dir().join(format!("citesys-ingest-aw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(MANIFEST_FILE);
        assert!(DatasetManifest::load(&path).unwrap().is_none());
        sample().write_atomic(&path).unwrap();
        assert_eq!(DatasetManifest::load(&path).unwrap().unwrap(), sample());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
