//! Incremental CSV reading: typed tuple batches from a [`BufRead`]
//! source without materializing the dump.
//!
//! Records come from [`RecordScanner`], the one CSV scanner
//! `citesys_storage::from_csv` also runs; here it is fed one `read_line`
//! at a time instead of a whole document, so the dialect is the same by
//! construction.

use std::fs::File;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

use citesys_storage::{
    parse_csv_header, parse_csv_record, Digest, RecordScanner, RelationSchema, Sha256,
    StorageError, Tuple,
};

use crate::error::{io_err, IngestError};

/// Tuning for a streaming load.
#[derive(Clone, Debug)]
pub struct IngestConfig {
    /// Records per batch / per commit. Bounds resident memory: at any
    /// moment the reader holds at most one partial line, one partial
    /// record and one batch.
    pub batch_size: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig { batch_size: 10_000 }
    }
}

/// A `Read` wrapper that hashes and counts every byte passing through,
/// so a single streaming pass yields both tuples and the source file's
/// SHA-256 for the manifest.
pub struct HashCountRead<R> {
    inner: R,
    hash: Sha256,
    bytes: u64,
}

impl<R: Read> HashCountRead<R> {
    /// Wraps a reader.
    pub fn new(inner: R) -> Self {
        HashCountRead {
            inner,
            hash: Sha256::new(),
            bytes: 0,
        }
    }

    /// Finishes the hash, returning `(sha256, bytes read)`.
    pub fn finish(self) -> (Digest, u64) {
        (self.hash.finalize(), self.bytes)
    }
}

impl<R: Read> Read for HashCountRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hash.update(&buf[..n]);
        self.bytes += n as u64;
        Ok(n)
    }
}

/// Streaming CSV reader yielding typed tuple batches.
///
/// The header is read eagerly by [`CsvReader::new`]; each
/// [`CsvReader::next_batch`] call then delivers up to
/// [`IngestConfig::batch_size`] tuples. Memory stays bounded by the
/// batch size — [`CsvReader::peak_buffered_bytes`] reports the high-water
/// mark of everything the reader held at once (line buffer + partial
/// record + current batch), which tests assert against the file size.
pub struct CsvReader<R> {
    src: R,
    scanner: RecordScanner,
    schema: RelationSchema,
    batch_size: usize,
    line: String,
    records: u64,
    batches: u64,
    peak_buffered: usize,
    done: bool,
}

impl CsvReader<BufReader<HashCountRead<File>>> {
    /// Opens a CSV file for streaming, hashing bytes as they flow so the
    /// manifest digest costs no second pass. `key: None` infers a key
    /// over all columns in header order.
    pub fn open_path(
        path: &Path,
        relation: &str,
        key: Option<&[usize]>,
        cfg: &IngestConfig,
    ) -> Result<Self, IngestError> {
        let f = File::open(path).map_err(io_err(path))?;
        let src = BufReader::new(HashCountRead::new(f));
        CsvReader::new(relation, key, src, cfg)
    }

    /// Drains any unread tail (so the hash covers the whole file) and
    /// returns `(sha256, bytes)` of the source.
    pub fn finish(self) -> Result<(Digest, u64), std::io::Error> {
        let mut inner = self.src;
        std::io::copy(&mut inner, &mut std::io::sink())?;
        Ok(inner.into_inner().finish())
    }
}

impl<R: BufRead> CsvReader<R> {
    /// Reads the `name:type` header from `src` and prepares batch
    /// iteration. `key: None` infers a key over all columns in header
    /// order (the whole tuple — always valid, enforces set semantics).
    pub fn new(
        relation: &str,
        key: Option<&[usize]>,
        src: R,
        cfg: &IngestConfig,
    ) -> Result<Self, IngestError> {
        let mut r = CsvReader {
            src,
            scanner: RecordScanner::new(),
            schema: RelationSchema::new(relation, Vec::new(), Vec::new()),
            batch_size: cfg.batch_size.max(1),
            line: String::new(),
            records: 0,
            batches: 0,
            peak_buffered: 0,
            done: false,
        };
        let header = match r.next_record()? {
            Some(rec) => rec,
            None => {
                return Err(StorageError::UnknownRelation {
                    name: format!("{relation}: empty csv"),
                }
                .into())
            }
        };
        let attrs = parse_csv_header(relation, &header)?;
        let key = match key {
            Some(k) => k.to_vec(),
            None => (0..attrs.len()).collect(),
        };
        r.schema = RelationSchema::new(relation, attrs, key);
        Ok(r)
    }

    /// The schema parsed from the header row.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// Data records delivered so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Batches delivered so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// High-water mark of bytes buffered inside the reader (line
    /// buffer, partial record and in-progress batch). Stays
    /// proportional to the batch size, not the file size.
    pub fn peak_buffered_bytes(&self) -> usize {
        self.peak_buffered
    }

    /// Next batch of up to `batch_size` tuples; `None` at end of input.
    pub fn next_batch(&mut self) -> Result<Option<Vec<Tuple>>, IngestError> {
        if self.done {
            return Ok(None);
        }
        let mut batch = Vec::new();
        let mut batch_bytes = 0usize;
        while batch.len() < self.batch_size {
            match self.next_record()? {
                Some(rec) => {
                    let rec_bytes: usize = rec.iter().map(String::len).sum();
                    self.records += 1;
                    let t = parse_csv_record(&self.schema, &rec, self.records as usize)?;
                    batch.push(t);
                    batch_bytes += rec_bytes + 8 * self.schema.arity();
                    self.note_buffered(batch_bytes);
                }
                None => {
                    self.done = true;
                    break;
                }
            }
        }
        if batch.is_empty() {
            Ok(None)
        } else {
            self.batches += 1;
            Ok(Some(batch))
        }
    }

    fn note_buffered(&mut self, batch_bytes: usize) {
        let now = self.line.capacity() + self.scanner.buffered_bytes() + batch_bytes;
        self.peak_buffered = self.peak_buffered.max(now);
    }

    fn next_record(&mut self) -> Result<Option<Vec<String>>, IngestError> {
        loop {
            self.line.clear();
            let n = self
                .src
                .read_line(&mut self.line)
                .map_err(|e| IngestError::Io {
                    path: std::path::PathBuf::from("<csv source>"),
                    message: e.to_string(),
                })?;
            if n == 0 {
                match self.scanner.flush() {
                    Some(rec) if !RecordScanner::is_blank(&rec) => return Ok(Some(rec)),
                    _ => return Ok(None),
                }
            }
            let line = std::mem::take(&mut self.line);
            let completed = self.scanner.feed_line(&line);
            self.line = line;
            if let Some(rec) = completed {
                if !RecordScanner::is_blank(&rec) {
                    return Ok(Some(rec));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citesys_storage::from_csv;

    fn cfg(batch: usize) -> IngestConfig {
        IngestConfig { batch_size: batch }
    }

    fn stream_all(input: &str, batch: usize) -> (RelationSchema, Vec<Tuple>) {
        let mut r = CsvReader::new("R", Some(&[0]), input.as_bytes(), &cfg(batch)).unwrap();
        let schema = r.schema().clone();
        let mut out = Vec::new();
        while let Some(b) = r.next_batch().unwrap() {
            assert!(b.len() <= batch);
            out.extend(b);
        }
        (schema, out)
    }

    /// Batching at 1, 2 and 1000 records yields what a whole-document
    /// read through `from_csv` yields.
    #[test]
    fn matches_whole_string_parser() {
        let docs = [
            "\"FID:int\",\"FName:text\"\n1,\"Calcitonin\"\n2,\"Dopamine, the 2nd\"\n",
            "\"A:int\",\"B:text\"\r\n1,\"x\"\r\n2,\"embedded\nnewline, and \"\"quotes\"\"\"\r\n",
            "\"A:int\"\n1\n\n2\n",
            "\"A:int\",\"B:bool\"\n1,true\n2,false",
        ];
        for (i, doc) in docs.iter().enumerate() {
            let (schema, want) = from_csv("R", &[0], doc).unwrap();
            for batch in [1, 2, 1000] {
                let (got_schema, got) = stream_all(doc, batch);
                assert_eq!(got_schema.attributes, schema.attributes, "doc {i}");
                assert_eq!(got, want, "doc {i} batch {batch}");
            }
        }
    }

    #[test]
    fn quoted_field_spanning_many_lines() {
        let doc = "\"A:int\",\"B:text\"\n1,\"l1\nl2\nl3\"\n2,\"y\"\n";
        let (_, tuples) = stream_all(doc, 10);
        assert_eq!(tuples[0].get(1).unwrap().as_text(), Some("l1\nl2\nl3"));
        assert_eq!(tuples.len(), 2);
    }

    #[test]
    fn header_key_inference_covers_all_columns() {
        let doc = "\"A:int\",\"B:text\"\n1,\"x\"\n";
        let r = CsvReader::new("R", None, doc.as_bytes(), &cfg(8)).unwrap();
        assert_eq!(r.schema().key, vec![0, 1]);
    }

    #[test]
    fn record_numbers_are_global_across_batches() {
        let doc = "\"A:int\"\n1\n2\n3\n\"x\"\n";
        let mut r = CsvReader::new("R", None, doc.as_bytes(), &cfg(2)).unwrap();
        assert!(r.next_batch().is_ok());
        let err = loop {
            match r.next_batch() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("expected a parse error"),
                Err(e) => break e,
            }
        };
        assert!(err.to_string().contains("csv record 4"), "{err}");
    }

    #[test]
    fn duplicate_header_rejected_streaming() {
        let doc = "\"A:int\",\"A:text\"\n1,\"x\"\n";
        let err = match CsvReader::new("R", None, doc.as_bytes(), &cfg(8)) {
            Err(e) => e,
            Ok(_) => panic!("duplicate header accepted"),
        };
        assert!(err.to_string().contains("duplicate csv column"), "{err}");
    }

    #[test]
    fn hash_count_read_matches_one_shot() {
        let data = b"hello, csv world\n".repeat(100);
        let mut h = HashCountRead::new(&data[..]);
        let mut sink = Vec::new();
        std::io::Read::read_to_end(&mut h, &mut sink).unwrap();
        let (digest, bytes) = h.finish();
        assert_eq!(bytes as usize, data.len());
        assert_eq!(digest, citesys_storage::sha256(&data));
    }

    #[test]
    fn bounded_memory_on_large_input() {
        // ~200k single-column records; with batch 1000 the reader must
        // never buffer more than a small multiple of one batch.
        let mut doc = String::from("\"A:int\",\"B:text\"\n");
        for i in 0..200_000 {
            doc.push_str(&format!("{i},\"payload payload payload {i}\"\n"));
        }
        let (_, tuples) = stream_all(&doc, 1000);
        assert_eq!(tuples.len(), 200_000);
        let mut r = CsvReader::new("R", None, doc.as_bytes(), &cfg(1000)).unwrap();
        while r.next_batch().unwrap().is_some() {}
        assert!(
            r.peak_buffered_bytes() < doc.len() / 20,
            "peak {} vs input {}",
            r.peak_buffered_bytes(),
            doc.len()
        );
    }
}
