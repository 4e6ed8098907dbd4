//! Out-of-core sharded dataset store (`store.v1`).
//!
//! The in-memory [`Dataset`](chef_model::Dataset) keeps the whole
//! `n × d` feature matrix in
//! one heap allocation, which caps the reachable scale at available
//! RAM. This module stores the same data as a **directory of
//! fixed-width row-major shards** plus a small manifest, and serves it
//! back through the [`DatasetStore`] trait with features left on disk:
//!
//! ```text
//! store-dir/
//!   store.v1           versioned manifest: dims, chunk size, checksums
//!   chunk-00000.bin    rows 0..chunk_rows, raw f64 LE, row-major
//!   chunk-00001.bin    rows chunk_rows..2*chunk_rows
//!   ...
//!   labels.bin         soft labels + clean flags + ground truth
//! ```
//!
//! * [`StoreWriter`] builds a store **streaming**, one row at a time,
//!   holding only the current chunk (a few MB) plus the label columns
//!   in memory — so a store larger than RAM can be written.
//! * [`MmapStore`] opens a store read-only. Feature chunks are
//!   memory-mapped (`MAP_SHARED`, via the offline `memmap` shim) so the
//!   kernel's page cache owns residency; reads and the [`DatasetStore`]
//!   hint methods drive a bounded window of resident chunks, advised
//!   `MADV_WILLNEED` when they enter it and released with
//!   `MADV_DONTNEED` when they leave (DESIGN.md §15.3). When `mmap`
//!   itself is unavailable the store falls back to positional reads
//!   (`pread`) that load chunks into owned buffers — a correctness
//!   fallback, not memory-bounded.
//! * Labels, clean flags and ground truth are deliberately
//!   **RAM-resident** (they are O(n), not O(n·d), and the cleaning loop
//!   mutates them every round). Label mutations are in-memory only:
//!   durability across crashes belongs to the `checkpoint.v1` subsystem,
//!   which re-applies its label patches to a freshly opened store on
//!   resume.
//!
//! Integrity: the manifest records an FNV-1a-64 checksum and byte size
//! per shard (and for `labels.bin`); `store.v2` manifests additionally
//! carry a **per-block checksum table** (fixed block size, default
//! 1 MiB) so verification can be block-granular, plus a `labels_fnv64`
//! line. The v2-only checksums fold FNV over 64-bit words instead of
//! bytes — the byte-serial chain alone would floor a lazy cold open —
//! while the v1 fields stay byte-wise so old directories (and v2
//! manifests demoted to v1) still verify. [`MmapStore::open`]
//! rejects an unknown manifest version and detects torn shards before
//! serving any data. *When* shards are verified is governed by
//! [`IntegrityMode`]:
//!
//! * [`Eager`](IntegrityMode::Eager) — stream every shard checksum at
//!   open through a pooled `pread` buffer (never inflates the resident
//!   set). O(dataset bytes) before the first row is served.
//! * [`LazyFirstTouch`](IntegrityMode::LazyFirstTouch) — defer to the
//!   access path: each block is verified exactly once, on first touch
//!   (`feature` / `feature_rows`), tracked by a
//!   per-shard atomic bitmap. Cold-open cost becomes O(touched bytes),
//!   which is what makes the first scored block arrive fast at n=10M.
//!   Corruption discovered on the access path poisons the store and
//!   panics with the [`StoreError::Corrupt`] rendering; the fallible
//!   twins [`MmapStore::verify_rows`] / [`MmapStore::verify_all`]
//!   surface the error value itself.
//! * [`Off`](IntegrityMode::Off) — sizes checked, checksums skipped.
//!
//! On top of lazy verification sits an optional **background prefetch
//! pipeline** ([`StoreOptions::background_prefetch`]): a single worker
//! thread that verifies-and-warms the next residency window
//! (`madvise(WILLNEED)`) while the selector scores the current one. The worker mutates no
//! visible data — it only flips verification bits (idempotent) and
//! issues advisory hints — so scored results are bit-identical with the
//! prefetcher on or off, serial or parallel. See DESIGN.md §15.

use chef_model::{DatasetStore, SoftLabel, StoreIoStats};
use memmap::Mmap;
use std::collections::VecDeque;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Version line of first-generation manifests (whole-shard checksums).
pub const STORE_VERSION: &str = "chef-store.v1";
/// Version line of second-generation manifests (per-block checksums).
pub const STORE_VERSION_V2: &str = "chef-store.v2";
/// First-generation manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "store.v1";
/// Second-generation manifest file name inside a store directory.
/// [`Manifest::read`] looks for this first and falls back to
/// [`MANIFEST_FILE`], so v1 directories stay readable.
pub const MANIFEST_FILE_V2: &str = "store.v2";
/// Label sidecar file name inside a store directory.
pub const LABELS_FILE: &str = "labels.bin";
/// Default verification block size written by [`StoreWriter`]: large
/// enough that the checksum table stays tiny (16 B of hex per MiB of
/// data), small enough that first-touch verification of one scored
/// window costs milliseconds, not seconds.
pub const DEFAULT_BLOCK_BYTES: usize = 1 << 20;

/// File name of shard `idx` (`chunk-00000.bin`, `chunk-00001.bin`, …).
pub fn chunk_file_name(idx: usize) -> String {
    format!("chunk-{idx:05}.bin")
}

// FNV-1a 64-bit, streaming form. chef-core's checkpoint module has the
// same function, but chef-core depends on chef-data (not vice versa),
// so the store keeps its own copy rather than inverting the crate DAG.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a64(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// FNV-1a folded over 64-bit little-endian words (trailing bytes
/// byte-wise). The byte-at-a-time form above is a strictly serial
/// xor→multiply chain (~4 cycles *per byte*), which puts a hard floor
/// under every verification on the open/first-touch path; folding a
/// word per step cuts the chain 8×. All checksums that `store.v2`
/// introduces (the per-block table, the v2 labels hash) use this form;
/// the whole-shard and v1 labels checksums keep the byte-wise form so
/// v1 directories still verify.
fn fnv1a64_words(mut state: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        state ^= u64::from_le_bytes(w.try_into().unwrap());
        state = state.wrapping_mul(FNV_PRIME);
    }
    fnv1a64(state, words.remainder())
}

/// Errors opening or validating a `store.v1` directory.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The manifest's version line is not [`STORE_VERSION`].
    Version(String),
    /// The manifest is syntactically malformed.
    Format(String),
    /// A shard or sidecar failed integrity checks (torn write).
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Version(v) => {
                write!(
                    f,
                    "unknown store version {v:?} (expected {STORE_VERSION:?} or {STORE_VERSION_V2:?})"
                )
            }
            StoreError::Format(m) => write!(f, "malformed store manifest: {m}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Per-shard record in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Number of rows stored in this shard.
    pub rows: usize,
    /// Exact byte size of the shard file (`rows × dim × 8`).
    pub bytes: u64,
    /// FNV-1a-64 checksum of the shard file's contents.
    pub fnv: u64,
    /// Per-block FNV-1a-64 checksums (`store.v2` only; empty for v1).
    /// Block `b` covers bytes `[b·block_bytes, (b+1)·block_bytes)` of
    /// the shard, with the last block possibly short.
    pub blocks: Vec<u64>,
}

/// Parsed store manifest (either generation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Manifest generation: `1` for `store.v1`, `2` for `store.v2`.
    pub version: u32,
    /// Total number of samples across all shards.
    pub n: usize,
    /// Feature dimensionality.
    pub dim: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Rows per shard (every shard but the last holds exactly this many).
    pub chunk_rows: usize,
    /// Verification block size in bytes (`store.v2` only; `0` for v1,
    /// meaning "the whole shard is one block").
    pub block_bytes: usize,
    /// Byte size of `labels.bin`.
    pub labels_bytes: u64,
    /// Byte-wise FNV-1a-64 checksum of `labels.bin`. Present in both
    /// dialects, so a v2 manifest demoted to v1 stays verifiable.
    pub labels_fnv: u64,
    /// Word-folded FNV-1a-64 of `labels.bin` (`store.v2` only; `0` for
    /// v1). v2 opens verify this one — the byte-serial chain costs ~4
    /// cycles/byte, which is most of a lazy cold open at n=1M.
    pub labels_fnv_words: u64,
    /// Shard records, in shard order.
    pub chunks: Vec<ChunkMeta>,
}

impl Manifest {
    /// Render the manifest in its on-disk line format. A `version: 1`
    /// manifest renders byte-identically to what pre-v2 code wrote.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(if self.version >= 2 {
            STORE_VERSION_V2
        } else {
            STORE_VERSION
        });
        out.push('\n');
        out.push_str(&format!("n={}\n", self.n));
        out.push_str(&format!("dim={}\n", self.dim));
        out.push_str(&format!("num_classes={}\n", self.num_classes));
        out.push_str(&format!("chunk_rows={}\n", self.chunk_rows));
        if self.version >= 2 {
            out.push_str(&format!("block_bytes={}\n", self.block_bytes));
        }
        out.push_str(&format!(
            "labels bytes={} fnv={:016x}\n",
            self.labels_bytes, self.labels_fnv
        ));
        if self.version >= 2 {
            out.push_str(&format!("labels_fnv64={:016x}\n", self.labels_fnv_words));
        }
        out.push_str(&format!("chunks={}\n", self.chunks.len()));
        for (i, c) in self.chunks.iter().enumerate() {
            out.push_str(&format!(
                "chunk={i} rows={} bytes={} fnv={:016x}\n",
                c.rows, c.bytes, c.fnv
            ));
            if self.version >= 2 {
                out.push_str(&format!("blocks={i}"));
                for b in &c.blocks {
                    out.push_str(&format!(" {b:016x}"));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Verification block size effective for shard `c`: the manifest's
    /// `block_bytes` under v2, the whole shard under v1.
    pub fn effective_block_bytes(&self, c: usize) -> usize {
        if self.version >= 2 && self.block_bytes > 0 {
            self.block_bytes
        } else {
            self.chunks[c].bytes as usize
        }
    }

    /// Number of verification blocks in shard `c` (at least 1).
    pub fn num_blocks(&self, c: usize) -> usize {
        let bytes = self.chunks[c].bytes as usize;
        bytes.div_ceil(self.effective_block_bytes(c).max(1)).max(1)
    }

    /// Expected checksum of block `b` of shard `c` (the whole-shard
    /// checksum under v1, where each shard is a single block).
    pub fn block_fnv(&self, c: usize, b: usize) -> u64 {
        if self.version >= 2 {
            self.chunks[c].blocks[b]
        } else {
            self.chunks[c].fnv
        }
    }

    /// Parse a manifest from its on-disk text, rejecting unknown
    /// versions before looking at anything else.
    pub fn parse(text: &str) -> Result<Manifest, StoreError> {
        let mut lines = text.lines();
        let version_line = lines.next().unwrap_or("").trim();
        let version: u32 = if version_line == STORE_VERSION {
            1
        } else if version_line == STORE_VERSION_V2 {
            2
        } else {
            return Err(StoreError::Version(version_line.to_string()));
        };
        fn kv<'a>(line: Option<&'a str>, key: &str) -> Result<&'a str, StoreError> {
            let line = line.ok_or_else(|| StoreError::Format(format!("missing {key} line")))?;
            line.trim()
                .strip_prefix(key)
                .and_then(|rest| rest.strip_prefix('='))
                .ok_or_else(|| StoreError::Format(format!("expected `{key}=...`, got {line:?}")))
        }
        fn num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, StoreError> {
            s.parse()
                .map_err(|_| StoreError::Format(format!("bad {what}: {s:?}")))
        }
        let n: usize = num(kv(lines.next(), "n")?, "n")?;
        let dim: usize = num(kv(lines.next(), "dim")?, "dim")?;
        let num_classes: usize = num(kv(lines.next(), "num_classes")?, "num_classes")?;
        let chunk_rows: usize = num(kv(lines.next(), "chunk_rows")?, "chunk_rows")?;
        if dim == 0 || num_classes == 0 || chunk_rows == 0 {
            return Err(StoreError::Format(
                "dim, num_classes and chunk_rows must be positive".into(),
            ));
        }
        let block_bytes: usize = if version >= 2 {
            let bb = num(kv(lines.next(), "block_bytes")?, "block_bytes")?;
            if bb == 0 {
                return Err(StoreError::Format("block_bytes must be positive".into()));
            }
            bb
        } else {
            0
        };
        let labels_line = lines
            .next()
            .ok_or_else(|| StoreError::Format("missing labels line".into()))?;
        let (labels_bytes, labels_fnv) = parse_sized_entry(labels_line, "labels")?;
        let labels_fnv_words: u64 = if version >= 2 {
            let v = kv(lines.next(), "labels_fnv64")?;
            u64::from_str_radix(v, 16)
                .map_err(|_| StoreError::Format(format!("bad labels_fnv64 {v:?}")))?
        } else {
            0
        };
        let num_chunks: usize = num(kv(lines.next(), "chunks")?, "chunks")?;
        let mut chunks = Vec::with_capacity(num_chunks);
        for i in 0..num_chunks {
            let line = lines
                .next()
                .ok_or_else(|| StoreError::Format(format!("missing chunk {i} line")))?;
            let rest = line
                .trim()
                .strip_prefix(&format!("chunk={i} rows="))
                .ok_or_else(|| StoreError::Format(format!("bad chunk line {line:?}")))?;
            let (rows_s, tail) = rest
                .split_once(' ')
                .ok_or_else(|| StoreError::Format(format!("bad chunk line {line:?}")))?;
            let rows: usize = num(rows_s, "chunk rows")?;
            let (bytes, fnv) = parse_sized_entry(&format!("x {tail}"), "x")?;
            let blocks = if version >= 2 {
                let line = lines
                    .next()
                    .ok_or_else(|| StoreError::Format(format!("missing blocks {i} line")))?;
                let rest = line
                    .trim()
                    .strip_prefix(&format!("blocks={i}"))
                    .ok_or_else(|| StoreError::Format(format!("bad blocks line {line:?}")))?;
                let fnvs: Result<Vec<u64>, StoreError> = rest
                    .split_whitespace()
                    .map(|s| {
                        u64::from_str_radix(s, 16)
                            .map_err(|_| StoreError::Format(format!("bad block fnv {s:?}")))
                    })
                    .collect();
                let fnvs = fnvs?;
                let expect = (bytes as usize).div_ceil(block_bytes).max(1);
                if fnvs.len() != expect {
                    return Err(StoreError::Format(format!(
                        "chunk {i} lists {} block checksums, expected {expect}",
                        fnvs.len()
                    )));
                }
                fnvs
            } else {
                Vec::new()
            };
            chunks.push(ChunkMeta {
                rows,
                bytes,
                fnv,
                blocks,
            });
        }
        let total: usize = chunks.iter().map(|c| c.rows).sum();
        if total != n {
            return Err(StoreError::Format(format!(
                "chunk rows sum to {total}, manifest says n={n}"
            )));
        }
        for (i, c) in chunks.iter().enumerate() {
            let expect_rows = if i + 1 < chunks.len() {
                chunk_rows
            } else {
                c.rows // last shard may be short
            };
            if c.rows != expect_rows || c.rows == 0 || c.rows > chunk_rows {
                return Err(StoreError::Format(format!(
                    "chunk {i} holds {} rows (chunk_rows={chunk_rows})",
                    c.rows
                )));
            }
            if c.bytes != (c.rows * dim * 8) as u64 {
                return Err(StoreError::Format(format!(
                    "chunk {i} byte size {} does not match rows×dim×8",
                    c.bytes
                )));
            }
        }
        Ok(Manifest {
            version,
            n,
            dim,
            num_classes,
            chunk_rows,
            block_bytes,
            labels_bytes,
            labels_fnv,
            labels_fnv_words,
            chunks,
        })
    }

    /// Read and parse the manifest inside `dir`: `store.v2` if present,
    /// otherwise the legacy `store.v1` (backward-compat open).
    pub fn read(dir: &Path) -> Result<Manifest, StoreError> {
        match fs::read_to_string(dir.join(MANIFEST_FILE_V2)) {
            Ok(text) => Manifest::parse(&text),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let text = fs::read_to_string(dir.join(MANIFEST_FILE))?;
                Manifest::parse(&text)
            }
            Err(e) => Err(e.into()),
        }
    }
}

/// Parse a `<name> bytes=<u64> fnv=<hex16>` manifest line.
fn parse_sized_entry(line: &str, name: &str) -> Result<(u64, u64), StoreError> {
    let parts: Vec<&str> = line.trim().split(' ').collect();
    let bad = || StoreError::Format(format!("bad {name} line {line:?}"));
    if parts.len() != 3 {
        return Err(bad());
    }
    let bytes = parts[1]
        .strip_prefix("bytes=")
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let fnv = parts[2]
        .strip_prefix("fnv=")
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(bad)?;
    Ok((bytes, fnv))
}

/// Streaming store builder: create, [`push_row`](Self::push_row) `n`
/// times, [`finish`](Self::finish). Memory use is one chunk's worth of
/// feature bytes plus the O(n) label columns, independent of how many
/// chunks the finished store holds — which is what lets a
/// larger-than-RAM store be generated row by row.
#[derive(Debug)]
pub struct StoreWriter {
    dir: PathBuf,
    dim: usize,
    num_classes: usize,
    chunk_rows: usize,
    block_bytes: usize,
    buf: Vec<u8>,
    rows_in_chunk: usize,
    chunks: Vec<ChunkMeta>,
    labels: Vec<SoftLabel>,
    clean: Vec<bool>,
    truth: Vec<Option<usize>>,
}

impl StoreWriter {
    /// Create (or truncate) a store directory. The writer emits a
    /// `store.v2` manifest with per-block checksums at
    /// [`DEFAULT_BLOCK_BYTES`] granularity; tune with
    /// [`with_block_bytes`](Self::with_block_bytes).
    pub fn create(
        dir: &Path,
        dim: usize,
        num_classes: usize,
        chunk_rows: usize,
    ) -> io::Result<StoreWriter> {
        assert!(dim > 0 && num_classes > 0 && chunk_rows > 0);
        fs::create_dir_all(dir)?;
        Ok(StoreWriter {
            dir: dir.to_path_buf(),
            dim,
            num_classes,
            chunk_rows,
            block_bytes: DEFAULT_BLOCK_BYTES,
            buf: Vec::with_capacity(chunk_rows * dim * 8),
            rows_in_chunk: 0,
            chunks: Vec::new(),
            labels: Vec::new(),
            clean: Vec::new(),
            truth: Vec::new(),
        })
    }

    /// Override the verification block size (bytes). Must be called
    /// before the first chunk flushes; mainly for tests that want many
    /// blocks per shard without writing gigabytes.
    pub fn with_block_bytes(mut self, block_bytes: usize) -> StoreWriter {
        assert!(block_bytes > 0, "block_bytes must be positive");
        assert!(
            self.chunks.is_empty() && self.buf.is_empty(),
            "with_block_bytes must be called before pushing rows"
        );
        self.block_bytes = block_bytes;
        self
    }

    /// Append one sample. Rows land in shards in append order, so row
    /// `i` of the finished store is the `i`-th pushed row.
    pub fn push_row(
        &mut self,
        features: &[f64],
        label: SoftLabel,
        clean: bool,
        truth: Option<usize>,
    ) -> io::Result<()> {
        assert_eq!(features.len(), self.dim, "feature row has wrong width");
        assert_eq!(label.num_classes(), self.num_classes);
        for &x in features {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
        self.labels.push(label);
        self.clean.push(clean);
        self.truth.push(truth);
        self.rows_in_chunk += 1;
        if self.rows_in_chunk == self.chunk_rows {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.rows_in_chunk == 0 {
            return Ok(());
        }
        let path = self.dir.join(chunk_file_name(self.chunks.len()));
        let mut f = File::create(&path)?;
        f.write_all(&self.buf)?;
        f.sync_all()?;
        self.chunks.push(ChunkMeta {
            rows: self.rows_in_chunk,
            bytes: self.buf.len() as u64,
            fnv: fnv1a64(FNV_OFFSET, &self.buf),
            blocks: self
                .buf
                .chunks(self.block_bytes)
                .map(|b| fnv1a64_words(FNV_OFFSET, b))
                .collect(),
        });
        self.buf.clear();
        self.rows_in_chunk = 0;
        Ok(())
    }

    /// Flush the final (possibly short) shard, write `labels.bin` and
    /// the manifest. The manifest is written last so a crash mid-write
    /// leaves a directory that [`MmapStore::open`] refuses to serve.
    pub fn finish(mut self) -> io::Result<Manifest> {
        self.flush_chunk()?;
        let labels_buf = encode_labels(&self.labels, &self.clean, &self.truth, self.num_classes);
        let labels_path = self.dir.join(LABELS_FILE);
        let mut f = File::create(&labels_path)?;
        f.write_all(&labels_buf)?;
        f.sync_all()?;
        let manifest = Manifest {
            version: 2,
            n: self.labels.len(),
            dim: self.dim,
            num_classes: self.num_classes,
            chunk_rows: self.chunk_rows,
            block_bytes: self.block_bytes,
            labels_bytes: labels_buf.len() as u64,
            labels_fnv: fnv1a64(FNV_OFFSET, &labels_buf),
            labels_fnv_words: fnv1a64_words(FNV_OFFSET, &labels_buf),
            chunks: std::mem::take(&mut self.chunks),
        };
        let mut f = File::create(self.dir.join(MANIFEST_FILE_V2))?;
        f.write_all(manifest.render().as_bytes())?;
        f.sync_all()?;
        Ok(manifest)
    }
}

/// Copy any [`DatasetStore`] into a fresh `store.v1` directory.
pub fn write_store(data: &dyn DatasetStore, dir: &Path, chunk_rows: usize) -> io::Result<Manifest> {
    let mut w = StoreWriter::create(dir, data.dim(), data.num_classes(), chunk_rows)?;
    for i in 0..data.len() {
        w.push_row(
            data.feature(i),
            data.label(i).clone(),
            data.is_clean(i),
            data.ground_truth(i),
        )?;
    }
    w.finish()
}

// labels.bin layout: [n × C f64 LE probs][n × u8 clean][n × i64 LE truth]
// with truth = −1 encoding "no ground truth".
fn encode_labels(
    labels: &[SoftLabel],
    clean: &[bool],
    truth: &[Option<usize>],
    num_classes: usize,
) -> Vec<u8> {
    let n = labels.len();
    let mut buf = Vec::with_capacity(n * num_classes * 8 + n + n * 8);
    for l in labels {
        for &p in l.probs() {
            buf.extend_from_slice(&p.to_le_bytes());
        }
    }
    for &c in clean {
        buf.push(u8::from(c));
    }
    for t in truth {
        let v: i64 = t.map_or(-1, |c| c as i64);
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf
}

/// The RAM-resident label state decoded from `labels.bin`: soft labels,
/// clean flags, and optional ground truth per sample.
type DecodedLabels = (Vec<SoftLabel>, Vec<bool>, Vec<Option<usize>>);

fn decode_labels(buf: &[u8], n: usize, num_classes: usize) -> Result<DecodedLabels, StoreError> {
    let expect = n * num_classes * 8 + n + n * 8;
    if buf.len() != expect {
        return Err(StoreError::Corrupt(format!(
            "labels.bin is {} bytes, expected {expect}",
            buf.len()
        )));
    }
    // This loop is the floor of the lazy cold open (it runs once per
    // sample whatever the integrity mode), so it takes the trusted
    // constructor: the bytes just passed the manifest checksum and were
    // written from validated `SoftLabel`s, and re-validating a million
    // rows costs more than the entire rest of a lazy open.
    let clean_at = n * num_classes * 8;
    let mut labels = Vec::with_capacity(n);
    for row in buf[..clean_at].chunks_exact(num_classes * 8) {
        let probs = row
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
            .collect();
        labels.push(SoftLabel::from_verified(probs));
    }
    let clean: Vec<bool> = buf[clean_at..clean_at + n]
        .iter()
        .map(|&b| b != 0)
        .collect();
    let truth = buf[clean_at + n..]
        .chunks_exact(8)
        .map(|b| {
            let v = i64::from_le_bytes(b.try_into().unwrap());
            if v < 0 {
                None
            } else {
                Some(v as usize)
            }
        })
        .collect();
    Ok((labels, clean, truth))
}

/// When shard checksums are verified. File sizes are checked at open
/// regardless of mode, and `labels.bin` (O(n), RAM-resident anyway) is
/// always verified at open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityMode {
    /// Stream every shard checksum at open. Cold-open is O(dataset
    /// bytes); all subsequent reads are free of verification cost.
    Eager,
    /// Verify each block the first time it is touched on the access
    /// path. Cold-open is O(touched bytes); a corrupt block surfaces
    /// the moment something reads it.
    LazyFirstTouch,
    /// Skip checksum verification entirely.
    Off,
}

/// How an [`MmapStore`] opens its shards.
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Maximum number of chunks the residency window keeps resident at
    /// once; when it is full, an entering chunk replaces the most
    /// recently used one, which is released with `MADV_DONTNEED`. `0`
    /// disables eviction.
    pub residency_chunks: usize,
    /// Skip `mmap` and use the `pread` fallback (loads every chunk
    /// into an owned buffer — correctness fallback, not memory-bounded).
    pub force_pread: bool,
    /// When shard checksums are verified (default: [`IntegrityMode::Eager`],
    /// matching the historical open-time behaviour).
    pub integrity: IntegrityMode,
    /// Spawn the background verify-and-warm prefetch thread serving
    /// [`DatasetStore::prefetch_upcoming`] hints. Off, the hints are
    /// no-ops and verification runs synchronously on the access path.
    pub background_prefetch: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            residency_chunks: 32,
            force_pread: false,
            integrity: IntegrityMode::Eager,
            background_prefetch: true,
        }
    }
}

#[derive(Debug)]
enum ChunkData {
    Mapped(Mmap),
    Loaded(Vec<f64>),
}

/// A `store.v1` directory opened for the cleaning pipeline: features
/// served from memory-mapped shards, label columns RAM-resident.
///
/// ```
/// use chef_data::store::{MmapStore, StoreWriter};
/// use chef_model::{DatasetStore, SoftLabel};
///
/// let dir = std::env::temp_dir().join(format!("doc-store-{}", std::process::id()));
/// let mut w = StoreWriter::create(&dir, 2, 2, 4).unwrap();
/// for i in 0..10 {
///     let x = [i as f64, -(i as f64)];
///     w.push_row(&x, SoftLabel::onehot(i % 2, 2), false, Some(i % 2)).unwrap();
/// }
/// w.finish().unwrap();
///
/// let store = MmapStore::open(&dir).unwrap();
/// assert_eq!(store.len(), 10);
/// assert_eq!(store.feature(7), &[7.0, -7.0]);
/// assert_eq!(store.contiguous_limit(5), 8); // rows 4..8 share a shard
/// assert_eq!(store.shard_boundaries(), vec![0, 4, 8, 10]);
/// std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug)]
pub struct MmapStore {
    core: Arc<StoreCore>,
    labels: Vec<SoftLabel>,
    clean: Vec<bool>,
    truth: Vec<Option<usize>>,
    prefetcher: Option<Prefetcher>,
}

/// The shared, immutable-after-open part of an [`MmapStore`]: shard
/// data, residency tracking, lazy-verification state and I/O counters.
/// Lives behind an `Arc` so the background prefetch thread can hold it
/// without borrowing from the store (label columns stay outside — the
/// cleaning loop mutates them and the prefetcher never needs them).
#[derive(Debug)]
struct StoreCore {
    manifest: Manifest,
    data: Vec<ChunkData>,
    // Queue of chunk indices in the residency window, least recently
    // used first. A Mutex (not RwLock) because every operation mutates
    // the queue; contention is per-chunk-transition, not per-row.
    resident: Mutex<VecDeque<usize>>,
    // Last chunk this store noted an access to — a lock-free dedup so
    // the per-read residency tracking costs one atomic load on the
    // straight-line path (consecutive reads land in the same chunk).
    last_touched: AtomicUsize,
    residency_chunks: usize,
    // First-touch verification state; `None` under Eager (already
    // verified at open) and Off (verification disabled), so the
    // access-path check is a single Option discriminant load.
    verify: Option<LazyVerify>,
    // Once a corrupt block is seen the whole store is poisoned: every
    // subsequent verified access fails with the same message, whichever
    // thread (reader or prefetcher) found the corruption first.
    poisoned: AtomicBool,
    poison_msg: Mutex<Option<String>>,
    stats: IoCounters,
}

/// Per-shard atomic bitmaps recording which verification blocks have
/// been checksummed. Bit `b` of `bits[c]` (word `b/64`, bit `b%64`) is
/// set once block `b` of shard `c` verified clean. Relaxed ordering is
/// enough: the worst race is two threads verifying the same block once
/// each — idempotent, and counted honestly by the counters.
#[derive(Debug)]
struct LazyVerify {
    bits: Vec<Vec<AtomicU64>>,
}

/// Monotonic I/O counters behind [`DatasetStore::io_stats`].
#[derive(Debug, Default)]
struct IoCounters {
    verify_ns: AtomicU64,
    blocks_verified: AtomicU64,
    lazy_verify_hits: AtomicU64,
    prefetch_overlap_ns: AtomicU64,
    window_entries: AtomicU64,
    window_releases: AtomicU64,
}

impl IoCounters {
    fn snapshot(&self) -> StoreIoStats {
        StoreIoStats {
            verify_ms: self.verify_ns.load(Ordering::Relaxed) / 1_000_000,
            blocks_verified: self.blocks_verified.load(Ordering::Relaxed),
            lazy_verify_hits: self.lazy_verify_hits.load(Ordering::Relaxed),
            prefetch_overlap_ms: self.prefetch_overlap_ns.load(Ordering::Relaxed) / 1_000_000,
            window_entries: self.window_entries.load(Ordering::Relaxed),
            window_releases: self.window_releases.load(Ordering::Relaxed),
        }
    }
}

/// Handle to the background verify-and-warm thread. Requests are
/// coalesced (only the newest window matters); dropping the handle
/// closes the channel and joins the worker.
#[derive(Debug)]
struct Prefetcher {
    tx: Option<std::sync::mpsc::Sender<(usize, usize)>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Prefetcher {
    fn spawn(core: Arc<StoreCore>) -> Prefetcher {
        let (tx, rx) = std::sync::mpsc::channel::<(usize, usize)>();
        let handle = std::thread::Builder::new()
            .name("chef-store-prefetch".into())
            .spawn(move || {
                while let Ok(mut win) = rx.recv() {
                    // Coalesce a backlog down to the newest request —
                    // the selector has already moved past older windows.
                    while let Ok(next) = rx.try_recv() {
                        win = next;
                    }
                    let t0 = Instant::now();
                    let hi = win.1.min(core.data.len());
                    for c in win.0..hi {
                        if core.poisoned.load(Ordering::Acquire) {
                            break;
                        }
                        // Verify-and-warm. A corrupt block poisons the
                        // core (inside verify_block); the next verified
                        // access on the scoring thread surfaces it.
                        if core.verify_chunk(c).is_err() {
                            break;
                        }
                        if let ChunkData::Mapped(m) = &core.data[c] {
                            m.advise_willneed(0, m.len());
                        }
                    }
                    core.stats
                        .prefetch_overlap_ns
                        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
            })
            .expect("failed to spawn chef-store-prefetch thread");
        Prefetcher {
            tx: Some(tx),
            handle: Some(handle),
        }
    }

    fn request(&self, chunk_lo: usize, chunk_hi: usize) {
        if let Some(tx) = &self.tx {
            // A send error means the worker already exited (poisoned
            // store); the hint is best-effort either way.
            let _ = tx.send((chunk_lo, chunk_hi));
        }
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl MmapStore {
    /// Open `dir` with default [`StoreOptions`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Version`] for an unknown manifest version,
    /// [`StoreError::Corrupt`] for torn shards (size or checksum
    /// mismatch), [`StoreError::Format`]/[`StoreError::Io`] otherwise.
    pub fn open(dir: &Path) -> Result<MmapStore, StoreError> {
        MmapStore::open_with(dir, StoreOptions::default())
    }

    /// Open `dir` with explicit options.
    pub fn open_with(dir: &Path, opts: StoreOptions) -> Result<MmapStore, StoreError> {
        let manifest = Manifest::read(dir)?;
        let lazy = opts.integrity == IntegrityMode::LazyFirstTouch;

        // One pooled scratch buffer serves every streamed checksum this
        // open performs (under Eager, all shards).
        let mut scratch = vec![0u8; 1 << 20];
        let mut open_verify_ns = 0u64;
        let mut open_blocks = 0u64;

        // Label sidecar: small (O(n)) and RAM-resident by design, so it
        // is verified in every integrity mode — cleaning decisions never
        // run on unverified labels. Unlike the shards it is about to be
        // decoded into RAM anyway, so read it once and hash the buffer
        // in memory rather than paying a streamed-verify pass plus a
        // read pass; the transient buffer is the same O(n·C) the decoded
        // labels occupy. This is the floor of the lazy cold open.
        let labels_path = dir.join(LABELS_FILE);
        let labels_buf = fs::read(&labels_path)?;
        let t0 = Instant::now();
        let labels_ok = labels_buf.len() as u64 == manifest.labels_bytes
            && if manifest.version >= 2 {
                fnv1a64_words(FNV_OFFSET, &labels_buf) == manifest.labels_fnv_words
            } else {
                fnv1a64(FNV_OFFSET, &labels_buf) == manifest.labels_fnv
            };
        open_verify_ns += t0.elapsed().as_nanos() as u64;
        if !labels_ok {
            return Err(StoreError::Corrupt(
                "labels.bin size/checksum mismatch".into(),
            ));
        }
        let (labels, clean, truth) = decode_labels(&labels_buf, manifest.n, manifest.num_classes)?;
        drop(labels_buf);

        let mut data = Vec::with_capacity(manifest.chunks.len());
        let mut verify_bits: Vec<Vec<AtomicU64>> = Vec::new();
        for (i, meta) in manifest.chunks.iter().enumerate() {
            let path = dir.join(chunk_file_name(i));
            let file = File::open(&path)?;
            let size = file.metadata()?.len();
            if size != meta.bytes {
                return Err(StoreError::Corrupt(format!(
                    "torn shard {}: {size} bytes on disk, manifest says {}",
                    chunk_file_name(i),
                    meta.bytes
                )));
            }
            if opts.integrity == IntegrityMode::Eager {
                // Stream the checksum through pread with the pooled
                // buffer: the pages go through the page cache, not this
                // process's resident set, so opening a 1M-row store does
                // not cost 1M rows of RSS.
                let t0 = Instant::now();
                let state = streamed_file_fnv(&file, size, &mut scratch)?;
                open_verify_ns += t0.elapsed().as_nanos() as u64;
                open_blocks += 1; // whole-shard units under Eager
                if state != meta.fnv {
                    return Err(StoreError::Corrupt(format!(
                        "torn shard {}: checksum mismatch",
                        chunk_file_name(i)
                    )));
                }
            }
            let mapped = if opts.force_pread {
                None
            } else {
                match Mmap::map(&file) {
                    Ok(map)
                        if (map.as_ptr() as usize).is_multiple_of(std::mem::align_of::<f64>()) =>
                    {
                        Some(map)
                    }
                    // mmap unavailable (or, theoretically, misaligned):
                    // fall back to loading this chunk via pread.
                    _ => None,
                }
            };
            let chunk = match mapped {
                Some(map) => ChunkData::Mapped(map),
                None => {
                    let bytes = read_file_bytes(&file, size)?;
                    if lazy {
                        // The loaded fallback materializes the whole
                        // shard now anyway, so verify it in full here;
                        // its lazy bitmap is born all-set below.
                        let t0 = Instant::now();
                        let ok = fnv1a64(FNV_OFFSET, &bytes) == meta.fnv;
                        open_verify_ns += t0.elapsed().as_nanos() as u64;
                        open_blocks += manifest.num_blocks(i) as u64;
                        if !ok {
                            return Err(StoreError::Corrupt(format!(
                                "torn shard {}: checksum mismatch",
                                chunk_file_name(i)
                            )));
                        }
                    }
                    ChunkData::Loaded(bytes_to_floats(&bytes))
                }
            };
            if lazy {
                let nb = manifest.num_blocks(i);
                let words = nb.div_ceil(64);
                let init = match &chunk {
                    ChunkData::Mapped(_) => 0u64,
                    ChunkData::Loaded(_) => !0u64, // verified at load
                };
                verify_bits.push((0..words).map(|_| AtomicU64::new(init)).collect());
            }
            data.push(chunk);
        }

        let stats = IoCounters::default();
        stats.verify_ns.store(open_verify_ns, Ordering::Relaxed);
        stats.blocks_verified.store(open_blocks, Ordering::Relaxed);
        let core = Arc::new(StoreCore {
            manifest,
            data,
            resident: Mutex::new(VecDeque::new()),
            last_touched: AtomicUsize::new(usize::MAX),
            residency_chunks: opts.residency_chunks,
            verify: lazy.then_some(LazyVerify { bits: verify_bits }),
            poisoned: AtomicBool::new(false),
            poison_msg: Mutex::new(None),
            stats,
        });
        let prefetcher = opts
            .background_prefetch
            .then(|| Prefetcher::spawn(Arc::clone(&core)));
        Ok(MmapStore {
            core,
            labels,
            clean,
            truth,
            prefetcher,
        })
    }

    /// The parsed manifest this store was opened from.
    pub fn manifest(&self) -> &Manifest {
        &self.core.manifest
    }

    /// Verify (first-touch) every not-yet-verified block covering rows
    /// `lo..hi`, returning the corruption instead of panicking. A no-op
    /// under [`IntegrityMode::Eager`] / [`IntegrityMode::Off`].
    pub fn verify_rows(&self, lo: usize, hi: usize) -> Result<(), StoreError> {
        assert!(
            lo <= hi && hi <= self.core.manifest.n,
            "bad row range {lo}..{hi}"
        );
        if lo == hi {
            return Ok(());
        }
        let d8 = self.core.manifest.dim * 8;
        let rows_per = self.core.manifest.chunk_rows;
        for c in self.core.chunk_of(lo)..=self.core.chunk_of(hi - 1) {
            let c_lo = lo.max(c * rows_per) - c * rows_per;
            let c_hi = hi.min((c + 1) * rows_per) - c * rows_per;
            self.core.ensure_bytes_verified(c, c_lo * d8, c_hi * d8)?;
        }
        Ok(())
    }

    /// Verify every not-yet-verified block in the store (fallible twin
    /// of an eager open, usable after a lazy one).
    pub fn verify_all(&self) -> Result<(), StoreError> {
        for c in 0..self.core.data.len() {
            self.core.verify_chunk(c)?;
        }
        Ok(())
    }
}

impl StoreCore {
    /// The `&[f64]` view of shard `c`.
    fn chunk_floats(&self, c: usize) -> &[f64] {
        match &self.data[c] {
            // SAFETY: alignment was checked at open (mmap is page-
            // aligned), the length is a multiple of 8 (size was checked
            // against rows×dim×8), and the mapping lives as long as self.
            ChunkData::Mapped(m) => unsafe {
                std::slice::from_raw_parts(m.as_ptr() as *const f64, m.len() / 8)
            },
            ChunkData::Loaded(v) => v,
        }
    }

    /// Chunk index holding row `i`.
    #[inline]
    fn chunk_of(&self, i: usize) -> usize {
        i / self.manifest.chunk_rows
    }

    /// Record a corrupt-block message and trip the poison flag. The
    /// message is stored before the flag is raised (Release) so any
    /// thread that observes the flag (Acquire) reads the message.
    fn poison(&self, msg: &str) {
        *self.poison_msg.lock().unwrap() = Some(msg.to_string());
        self.poisoned.store(true, Ordering::Release);
    }

    fn poison_check(&self) -> Result<(), StoreError> {
        if self.poisoned.load(Ordering::Acquire) {
            let msg = self
                .poison_msg
                .lock()
                .unwrap()
                .clone()
                .unwrap_or_else(|| "store poisoned by earlier corruption".into());
            return Err(StoreError::Corrupt(msg));
        }
        Ok(())
    }

    /// First-touch verification of every block covering the byte range
    /// `[byte_lo, byte_hi)` of shard `c`. O(1) per already-verified
    /// block (one Relaxed bitmap load); checksums only what a reader is
    /// about to consume otherwise.
    fn ensure_bytes_verified(
        &self,
        c: usize,
        byte_lo: usize,
        byte_hi: usize,
    ) -> Result<(), StoreError> {
        let Some(v) = &self.verify else {
            return Ok(());
        };
        self.poison_check()?;
        if byte_hi <= byte_lo {
            return Ok(());
        }
        let bb = self.manifest.effective_block_bytes(c).max(1);
        let words = &v.bits[c];
        for b in byte_lo / bb..=(byte_hi - 1) / bb {
            if words[b / 64].load(Ordering::Relaxed) & (1u64 << (b % 64)) != 0 {
                self.stats.lazy_verify_hits.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.verify_block(c, b)?;
        }
        Ok(())
    }

    /// Verify every block of shard `c` (bitmap-skipping ones already
    /// done).
    fn verify_chunk(&self, c: usize) -> Result<(), StoreError> {
        self.ensure_bytes_verified(c, 0, self.manifest.chunks[c].bytes as usize)
    }

    /// Checksum one block against the manifest table, set its bitmap
    /// bit on success, poison the store on mismatch.
    fn verify_block(&self, c: usize, b: usize) -> Result<(), StoreError> {
        let v = self.verify.as_ref().expect("verify_block without state");
        let bb = self.manifest.effective_block_bytes(c).max(1);
        let got = match &self.data[c] {
            ChunkData::Mapped(m) => {
                let t0 = Instant::now();
                // v2 block-table entries are word-folded; a v1 manifest
                // has one "block" per shard checked against its
                // byte-wise whole-shard checksum.
                let got = if self.manifest.version >= 2 {
                    fnv1a64_words(FNV_OFFSET, m.byte_range(b * bb, bb))
                } else {
                    fnv1a64(FNV_OFFSET, m.byte_range(b * bb, bb))
                };
                self.stats
                    .verify_ns
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                got
            }
            // Loaded shards are verified in full when materialized at
            // open and their bitmaps born all-set, so this arm is only
            // reachable through a stale bitmap — which cannot happen —
            // but answering "verified" keeps it harmless if it ever did.
            ChunkData::Loaded(_) => return Ok(()),
        };
        if got != self.manifest.block_fnv(c, b) {
            let msg = format!(
                "torn shard {}: block {b} checksum mismatch (first-touch)",
                chunk_file_name(c)
            );
            self.poison(&msg);
            return Err(StoreError::Corrupt(msg));
        }
        self.stats.blocks_verified.fetch_add(1, Ordering::Relaxed);
        v.bits[c][b / 64].fetch_or(1u64 << (b % 64), Ordering::Relaxed);
        Ok(())
    }

    /// Move the given chunks into the residency window, most recently
    /// used last. A chunk already in the window only moves to the back
    /// of the queue — no syscall. A chunk entering it is advised
    /// `WILLNEED`; when the window is full it takes the slot of the most
    /// recently used chunk, which is released with `DONTNEED`. So R − 1
    /// chunks stay resident while a scan wider than the window streams
    /// through the last slot, and a cyclic pass over N > R chunks
    /// re-enters N − R + 1 of them instead of all N (LRU's worst case).
    fn touch_chunks(&self, chunks: impl Iterator<Item = usize>) {
        use std::sync::atomic::Ordering::Relaxed;
        let mut q = self
            .resident
            .lock()
            .expect("residency window lock poisoned");
        for c in chunks {
            if let Some(pos) = q.iter().position(|&x| x == c) {
                q.remove(pos);
                q.push_back(c);
                continue;
            }
            if self.residency_chunks > 0 && q.len() >= self.residency_chunks {
                let mru = q.pop_back().expect("a full window is non-empty");
                self.release(mru);
                // The victim's next read must re-enter the window, which
                // the last-touched shortcut would otherwise skip.
                let _ = self
                    .last_touched
                    .compare_exchange(mru, usize::MAX, Relaxed, Relaxed);
            }
            if let ChunkData::Mapped(m) = &self.data[c] {
                m.advise_willneed(0, m.len());
            }
            self.stats.window_entries.fetch_add(1, Relaxed);
            q.push_back(c);
        }
    }

    /// Release the given chunks (and forget them from the window).
    fn release_chunks(&self, chunks: impl Iterator<Item = usize>) {
        let mut q = self
            .resident
            .lock()
            .expect("residency window lock poisoned");
        for c in chunks {
            self.release(c);
            if let Some(pos) = q.iter().position(|&x| x == c) {
                q.remove(pos);
            }
        }
        // A released chunk must re-enter the window on its next read,
        // which the last-touched shortcut would otherwise skip.
        self.last_touched.store(usize::MAX, Ordering::Relaxed);
    }

    /// Drop chunk `c`'s pages (`DONTNEED`); the caller keeps the window.
    fn release(&self, c: usize) {
        if let ChunkData::Mapped(m) = &self.data[c] {
            m.advise_dontneed(0, m.len());
        }
        self.stats.window_releases.fetch_add(1, Ordering::Relaxed);
    }

    /// Note a read landing in chunk `c`, keeping the residency window
    /// honest even for consumers that never call the hint methods —
    /// e.g. the conjugate-gradient solver's full-dataset HVP scans,
    /// which stream every row once per iteration. Without this, one CG
    /// pass would fault the whole file resident and an out-of-core run
    /// would peak at the in-memory footprint. Reads are never blocked:
    /// an evicted chunk simply refaults from the page cache.
    #[inline]
    fn note_chunk_access(&self, c: usize) {
        use std::sync::atomic::Ordering::Relaxed;
        if self.residency_chunks == 0 || self.last_touched.load(Relaxed) == c {
            return;
        }
        self.last_touched.store(c, Relaxed);
        self.touch_chunks(std::iter::once(c));
    }
}

impl DatasetStore for MmapStore {
    fn len(&self) -> usize {
        self.core.manifest.n
    }

    fn dim(&self) -> usize {
        self.core.manifest.dim
    }

    fn num_classes(&self) -> usize {
        self.core.manifest.num_classes
    }

    fn feature(&self, i: usize) -> &[f64] {
        let core = &*self.core;
        assert!(i < core.manifest.n, "row {i} out of bounds");
        let c = core.chunk_of(i);
        let r = i - c * core.manifest.chunk_rows;
        let d = core.manifest.dim;
        // First-touch integrity: &[f64] cannot carry a Result, so a
        // corrupt block aborts the read with the StoreError rendering
        // (the fallible twin is MmapStore::verify_rows).
        if let Err(e) = core.ensure_bytes_verified(c, r * d * 8, (r + 1) * d * 8) {
            panic!("{e}");
        }
        core.note_chunk_access(c);
        &core.chunk_floats(c)[r * d..(r + 1) * d]
    }

    fn feature_rows(&self, lo: usize, hi: usize) -> &[f64] {
        let core = &*self.core;
        assert!(
            lo <= hi && hi <= core.manifest.n,
            "bad row range {lo}..{hi}"
        );
        assert!(
            hi <= self.contiguous_limit(lo),
            "feature_rows({lo}, {hi}) crosses a shard boundary; \
             callers must respect contiguous_limit"
        );
        let c = core.chunk_of(lo);
        let r = lo - c * core.manifest.chunk_rows;
        let d = core.manifest.dim;
        if let Err(e) = core.ensure_bytes_verified(c, r * d * 8, (r + (hi - lo)) * d * 8) {
            panic!("{e}");
        }
        core.note_chunk_access(c);
        &core.chunk_floats(c)[r * d..(r + (hi - lo)) * d]
    }

    fn contiguous_limit(&self, lo: usize) -> usize {
        ((self.core.chunk_of(lo) + 1) * self.core.manifest.chunk_rows).min(self.core.manifest.n)
    }

    fn shard_boundaries(&self) -> Vec<usize> {
        (0..=self.core.data.len())
            .map(|c| (c * self.core.manifest.chunk_rows).min(self.core.manifest.n))
            .collect()
    }

    fn label(&self, i: usize) -> &SoftLabel {
        &self.labels[i]
    }

    fn is_clean(&self, i: usize) -> bool {
        self.clean[i]
    }

    fn ground_truth(&self, i: usize) -> Option<usize> {
        self.truth[i]
    }

    fn clean_label(&mut self, i: usize, label: SoftLabel) {
        assert_eq!(label.num_classes(), self.core.manifest.num_classes);
        self.labels[i] = label;
        self.clean[i] = true;
    }

    fn set_label(&mut self, i: usize, label: SoftLabel) {
        assert_eq!(label.num_classes(), self.core.manifest.num_classes);
        self.labels[i] = label;
    }

    fn mark_uncleaned(&mut self, i: usize) {
        self.clean[i] = false;
    }

    fn advise_range(&self, lo: usize, hi: usize) {
        if lo >= hi {
            return;
        }
        self.core
            .touch_chunks(self.core.chunk_of(lo)..=self.core.chunk_of(hi - 1));
    }

    fn advise_scanned(&self, lo: usize, hi: usize) {
        if lo >= hi {
            return;
        }
        self.core
            .release_chunks(self.core.chunk_of(lo)..=self.core.chunk_of(hi - 1));
    }

    fn prefetch_upcoming(&self, lo: usize, hi: usize) {
        // Without a worker the hint is dropped — the access path
        // verifies on first touch exactly as before the hint.
        if lo < hi {
            if let Some(p) = &self.prefetcher {
                p.request(self.core.chunk_of(lo), self.core.chunk_of(hi - 1) + 1);
            }
        }
    }

    fn io_stats(&self) -> Option<StoreIoStats> {
        Some(self.core.stats.snapshot())
    }
}

/// Stream an FNV-1a-64 checksum over a whole file through `pread` and
/// a caller-pooled scratch buffer (pages pass through the page cache,
/// not this process's resident set).
fn streamed_file_fnv(file: &File, size: u64, scratch: &mut [u8]) -> io::Result<u64> {
    let mut state = FNV_OFFSET;
    let mut off = 0u64;
    while off < size {
        let take = scratch.len().min((size - off) as usize);
        memmap::read_exact_at(file, &mut scratch[..take], off)?;
        state = fnv1a64(state, &scratch[..take]);
        off += take as u64;
    }
    Ok(state)
}

fn read_file_bytes(file: &File, size: u64) -> io::Result<Vec<u8>> {
    let mut bytes = vec![0u8; size as usize];
    memmap::read_exact_at(file, &mut bytes, 0)?;
    Ok(bytes)
}

fn bytes_to_floats(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chef_linalg::Matrix;
    use chef_model::Dataset;

    fn tmp_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("chef-store-{}-{name}", std::process::id()))
    }

    fn fixture(n: usize, d: usize) -> Dataset {
        let mut raw = Vec::with_capacity(n * d);
        let mut labels = Vec::with_capacity(n);
        let mut clean = Vec::with_capacity(n);
        let mut truth = Vec::with_capacity(n);
        for i in 0..n {
            for j in 0..d {
                raw.push((i * d + j) as f64 * 0.25 - 3.0);
            }
            let p = (i % 10) as f64 / 10.0;
            labels.push(SoftLabel::new(vec![p, 1.0 - p]));
            clean.push(i % 3 == 0);
            truth.push(if i % 7 == 0 { None } else { Some(i % 2) });
        }
        Dataset::new(Matrix::from_vec(n, d, raw), labels, clean, truth, 2)
    }

    fn assert_same(a: &dyn DatasetStore, b: &dyn DatasetStore) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.dim(), b.dim());
        assert_eq!(a.num_classes(), b.num_classes());
        for i in 0..a.len() {
            assert_eq!(a.feature(i), b.feature(i), "row {i}");
            assert_eq!(a.label(i).probs(), b.label(i).probs(), "label {i}");
            assert_eq!(a.is_clean(i), b.is_clean(i), "clean {i}");
            assert_eq!(a.ground_truth(i), b.ground_truth(i), "truth {i}");
        }
    }

    #[test]
    fn round_trip_preserves_every_row_bit_for_bit() {
        let dir = tmp_dir("roundtrip");
        let data = fixture(37, 5);
        let manifest = write_store(&data, &dir, 8).unwrap();
        assert_eq!(manifest.chunks.len(), 5); // 4 full shards + 5 rows
        assert_eq!(manifest.chunks[4].rows, 5);
        let store = MmapStore::open(&dir).unwrap();
        assert_same(&data, &store);
        // Shard geometry.
        assert_eq!(store.shard_boundaries(), vec![0, 8, 16, 24, 32, 37]);
        assert_eq!(store.contiguous_limit(0), 8);
        assert_eq!(store.contiguous_limit(33), 37);
        // Zero-copy block reads within a shard match the dense matrix.
        assert_eq!(store.feature_rows(8, 16), data.feature_rows(8, 16));
        assert_eq!(store.feature_rows(32, 37), data.feature_rows(32, 37));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pread_fallback_is_equivalent() {
        let dir = tmp_dir("pread");
        let data = fixture(20, 3);
        write_store(&data, &dir, 6).unwrap();
        let store = MmapStore::open_with(
            &dir,
            StoreOptions {
                force_pread: true,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        assert_same(&data, &store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn to_dataset_materializes_the_same_data() {
        let dir = tmp_dir("todataset");
        let data = fixture(25, 4);
        write_store(&data, &dir, 10).unwrap();
        let store = MmapStore::open(&dir).unwrap();
        let back = store.to_dataset();
        assert_same(&data, &back);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn label_mutations_update_ram_state() {
        let dir = tmp_dir("mutate");
        write_store(&fixture(12, 2), &dir, 4).unwrap();
        let mut store = MmapStore::open(&dir).unwrap();
        let before_uncleaned = store.uncleaned_indices();
        store.clean_label(1, SoftLabel::onehot(0, 2));
        assert!(store.is_clean(1));
        assert_eq!(store.label(1).probs(), &[1.0, 0.0]);
        assert_eq!(store.uncleaned_indices().len(), before_uncleaned.len() - 1);
        store.mark_uncleaned(1);
        assert!(!store.is_clean(1));
        store.set_label(2, SoftLabel::new(vec![0.4, 0.6]));
        assert!(!store.is_clean(2) || store.is_clean(2)); // set_label leaves the flag
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn residency_hints_do_not_change_data() {
        let dir = tmp_dir("hints");
        let data = fixture(40, 3);
        write_store(&data, &dir, 8).unwrap();
        let store = MmapStore::open_with(
            &dir,
            StoreOptions {
                residency_chunks: 2, // force eviction
                ..StoreOptions::default()
            },
        )
        .unwrap();
        store.advise_range(0, 40);
        for i in 0..40 {
            assert_eq!(store.feature(i), data.feature(i));
        }
        store.advise_scanned(0, 40);
        assert_eq!(store.feature(39), data.feature(39)); // still readable
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A store of `chunks` four-row shards behind a `window`-chunk
    /// residency window.
    fn window_store(tag: &str, chunks: usize, window: usize) -> (PathBuf, Dataset, MmapStore) {
        let dir = tmp_dir(tag);
        let data = fixture(chunks * 4, 3);
        write_store(&data, &dir, 4).unwrap();
        let store = MmapStore::open_with(
            &dir,
            StoreOptions {
                residency_chunks: window,
                background_prefetch: false,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        (dir, data, store)
    }

    fn window_len(store: &MmapStore) -> usize {
        store.core.resident.lock().unwrap().len()
    }

    #[test]
    fn residency_window_never_holds_more_than_its_budget() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let (dir, data, store) = window_store("window-bound", 12, 4);
        let mut rng = SmallRng::seed_from_u64(7);
        for step in 0..2000 {
            match rng.gen_range(0..3) {
                0 => {
                    let i = rng.gen_range(0..data.len());
                    assert_eq!(store.feature(i), data.feature(i));
                }
                1 => {
                    let lo = rng.gen_range(0..data.len());
                    let hi = rng.gen_range(lo..store.contiguous_limit(lo)) + 1;
                    assert_eq!(store.feature_rows(lo, hi), data.feature_rows(lo, hi));
                }
                _ => {
                    let lo = rng.gen_range(0..data.len());
                    store.advise_range(lo, rng.gen_range(lo..data.len()) + 1);
                }
            }
            let io = store.io_stats().unwrap();
            assert!(window_len(&store) <= 4, "step {step}");
            assert_eq!(
                (io.window_entries - io.window_releases) as usize,
                window_len(&store),
                "step {step}: every entry beyond the budget released one chunk"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rereading_a_resident_chunk_adds_no_entry() {
        let (dir, data, store) = window_store("window-reread", 6, 3);
        for i in 0..12 {
            assert_eq!(store.feature(i), data.feature(i)); // chunks 0..3
        }
        let entered = store.io_stats().unwrap().window_entries;
        assert_eq!(entered, 3);
        for i in (0..12).rev().chain([5, 1, 9, 2, 10, 0]) {
            assert_eq!(store.feature(i), data.feature(i));
        }
        assert_eq!(store.feature_rows(4, 8), data.feature_rows(4, 8));
        store.advise_range(0, 12);
        let io = store.io_stats().unwrap();
        assert_eq!(io.window_entries, entered, "re-touches only reorder");
        assert_eq!(io.window_releases, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cyclic_pass_reenters_at_most_n_minus_r_plus_one_chunks() {
        let (chunks, window) = (10, 4);
        let (dir, data, store) = window_store("window-cyclic", chunks, window);
        let pass = || {
            for i in 0..data.len() {
                assert_eq!(store.feature(i), data.feature(i));
            }
            store.io_stats().unwrap().window_entries
        };
        let mut before = pass(); // the first pass fills the window
        for p in 0..5 {
            let after = pass();
            assert!(
                after - before <= (chunks - window + 1) as u64,
                "pass {p} entered {} chunks",
                after - before
            );
            before = after;
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_chunk_evicted_by_a_hint_reenters_on_its_next_read() {
        let (dir, data, store) = window_store("window-evicted", 3, 2);
        assert_eq!(store.feature(0), data.feature(0)); // chunk 0 enters
        assert_eq!(store.feature(4), data.feature(4)); // chunk 1 enters
        store.advise_range(8, 12); // chunk 2 takes chunk 1's slot
        let io = store.io_stats().unwrap();
        assert_eq!((io.window_entries, io.window_releases), (3, 1));
        assert_eq!(store.feature(5), data.feature(5));
        let io = store.io_stats().unwrap();
        assert_eq!(io.window_entries, 4, "chunk 1 re-entered on its read");
        assert_eq!(window_len(&store), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_version_is_rejected() {
        let dir = tmp_dir("version");
        write_store(&fixture(5, 2), &dir, 4).unwrap();
        let path = dir.join(MANIFEST_FILE_V2);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replacen("chef-store.v2", "chef-store.v3", 1)).unwrap();
        match MmapStore::open(&dir) {
            Err(StoreError::Version(v)) => assert_eq!(v, "chef-store.v3"),
            other => panic!("expected version error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v1_manifest_directories_still_open() {
        let dir = tmp_dir("v1compat");
        let data = fixture(23, 3);
        let m2 = write_store(&data, &dir, 6).unwrap();
        // Rewrite the directory as a v1-era one: demote the manifest to
        // generation 1 (whole-shard checksums only) under the old file
        // name and drop store.v2.
        let m1 = Manifest {
            version: 1,
            block_bytes: 0,
            chunks: m2
                .chunks
                .iter()
                .map(|c| ChunkMeta {
                    blocks: Vec::new(),
                    ..c.clone()
                })
                .collect(),
            ..m2.clone()
        };
        fs::write(dir.join(MANIFEST_FILE), m1.render()).unwrap();
        fs::remove_file(dir.join(MANIFEST_FILE_V2)).unwrap();
        for integrity in [
            IntegrityMode::Eager,
            IntegrityMode::LazyFirstTouch,
            IntegrityMode::Off,
        ] {
            let store = MmapStore::open_with(
                &dir,
                StoreOptions {
                    integrity,
                    ..StoreOptions::default()
                },
            )
            .unwrap();
            assert_eq!(store.manifest().version, 1);
            assert_same(&data, &store);
            // Under lazy, a v1 shard is one whole-shard block.
            store.verify_all().unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_emits_v2_manifest_with_block_table() {
        let dir = tmp_dir("v2meta");
        let m = write_store(&fixture(9, 4), &dir, 4).unwrap();
        assert_eq!(m.version, 2);
        assert_eq!(m.block_bytes, DEFAULT_BLOCK_BYTES);
        assert!(dir.join(MANIFEST_FILE_V2).exists());
        assert!(!dir.join(MANIFEST_FILE).exists());
        for (c, meta) in m.chunks.iter().enumerate() {
            // Shards here are far below one block, so each is a single
            // block covering the whole shard: the word-folded block
            // checksum sits beside the byte-wise whole-shard one.
            let bytes = fs::read(dir.join(chunk_file_name(c))).unwrap();
            assert_eq!(meta.blocks.len(), 1, "chunk {c}");
            assert_eq!(meta.fnv, fnv1a64(FNV_OFFSET, &bytes), "chunk {c}");
            assert_eq!(
                meta.blocks[0],
                fnv1a64_words(FNV_OFFSET, &bytes),
                "chunk {c}"
            );
            assert_eq!(m.num_blocks(c), 1);
            assert_eq!(m.block_fnv(c, 0), meta.blocks[0]);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn small_blocks_round_trip_and_verify_lazily() {
        let dir = tmp_dir("smallblocks");
        let data = fixture(30, 4);
        let mut w = StoreWriter::create(&dir, 4, 2, 8)
            .unwrap()
            .with_block_bytes(64); // 2 rows per block, 4 blocks per shard
        for i in 0..30 {
            w.push_row(
                data.feature(i),
                data.label(i).clone(),
                data.is_clean(i),
                data.ground_truth(i),
            )
            .unwrap();
        }
        let m = w.finish().unwrap();
        assert_eq!(m.chunks[0].blocks.len(), 4);
        let store = MmapStore::open_with(
            &dir,
            StoreOptions {
                integrity: IntegrityMode::LazyFirstTouch,
                background_prefetch: false,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        assert_same(&data, &store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lazy_first_touch_verifies_each_block_exactly_once() {
        let dir = tmp_dir("lazyonce");
        let data = fixture(40, 3);
        write_store(&data, &dir, 8).unwrap(); // 5 shards, 1 block each
        let store = MmapStore::open_with(
            &dir,
            StoreOptions {
                integrity: IntegrityMode::LazyFirstTouch,
                background_prefetch: false,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        let at_open = store.io_stats().unwrap();
        assert_eq!(at_open.blocks_verified, 0, "nothing touched yet");
        for i in 0..40 {
            assert_eq!(store.feature(i), data.feature(i));
        }
        let after_first = store.io_stats().unwrap();
        assert_eq!(after_first.blocks_verified, 5, "one verify per block");
        for i in 0..40 {
            let _ = store.feature(i);
        }
        let after_second = store.io_stats().unwrap();
        assert_eq!(after_second.blocks_verified, 5, "bitmap made reads free");
        assert!(after_second.lazy_verify_hits > after_first.lazy_verify_hits);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lazy_detects_bitflip_on_first_touch_of_that_block() {
        let dir = tmp_dir("lazyflip");
        let data = fixture(30, 4);
        let mut w = StoreWriter::create(&dir, 4, 2, 8)
            .unwrap()
            .with_block_bytes(64);
        for i in 0..30 {
            w.push_row(
                data.feature(i),
                data.label(i).clone(),
                data.is_clean(i),
                data.ground_truth(i),
            )
            .unwrap();
        }
        w.finish().unwrap();
        // Flip a bit in the LAST block of shard 0 (rows 6..8).
        let chunk = dir.join(chunk_file_name(0));
        let mut bytes = fs::read(&chunk).unwrap();
        let at = bytes.len() - 5;
        bytes[at] ^= 0x10;
        fs::write(&chunk, &bytes).unwrap();
        let store = MmapStore::open_with(
            &dir,
            StoreOptions {
                integrity: IntegrityMode::LazyFirstTouch,
                background_prefetch: false,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        // Untouched-block reads still fine:
        assert_eq!(store.feature(0), data.feature(0));
        store.verify_rows(0, 6).unwrap();
        // Touching the corrupt block surfaces Corrupt:
        match store.verify_rows(6, 8) {
            Err(StoreError::Corrupt(msg)) => {
                assert!(msg.contains("checksum mismatch"), "{msg}")
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
        // ... and the store stays poisoned for verified reads.
        assert!(matches!(
            store.verify_rows(0, 6),
            Err(StoreError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_prefetcher_warms_without_changing_data() {
        let dir = tmp_dir("prefetch");
        let data = fixture(40, 3);
        write_store(&data, &dir, 8).unwrap();
        let store = MmapStore::open_with(
            &dir,
            StoreOptions {
                integrity: IntegrityMode::LazyFirstTouch,
                background_prefetch: true,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        store.prefetch_upcoming(8, 24); // shards 1..3
        store.prefetch_upcoming(24, 40); // coalesces/queues behind it
        for i in 0..40 {
            assert_eq!(store.feature(i), data.feature(i));
        }
        store.verify_all().unwrap();
        let stats = store.io_stats().unwrap();
        assert_eq!(stats.blocks_verified, 5, "prefetch + reads share bitmap");
        drop(store); // joins the worker
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_shard_truncation_is_rejected() {
        let dir = tmp_dir("torn-size");
        write_store(&fixture(10, 2), &dir, 4).unwrap();
        let chunk = dir.join(chunk_file_name(1));
        let bytes = fs::read(&chunk).unwrap();
        fs::write(&chunk, &bytes[..bytes.len() - 8]).unwrap();
        match MmapStore::open(&dir) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("torn shard"), "{msg}"),
            other => panic!("expected corrupt error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_shard_bitflip_is_rejected_by_checksum() {
        let dir = tmp_dir("torn-flip");
        write_store(&fixture(10, 2), &dir, 4).unwrap();
        let chunk = dir.join(chunk_file_name(0));
        let mut bytes = fs::read(&chunk).unwrap();
        bytes[3] ^= 0x40; // same size, different contents
        fs::write(&chunk, &bytes).unwrap();
        match MmapStore::open(&dir) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected checksum error, got {other:?}"),
        }
        // With verification off the torn shard goes undetected — which
        // is exactly why integrity defaults to Eager.
        assert!(MmapStore::open_with(
            &dir,
            StoreOptions {
                integrity: IntegrityMode::Off,
                ..StoreOptions::default()
            }
        )
        .is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_an_io_error() {
        let dir = tmp_dir("missing");
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(MmapStore::open(&dir), Err(StoreError::Io(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_renders_and_parses_losslessly() {
        let dir = tmp_dir("manifest");
        let m = write_store(&fixture(17, 3), &dir, 5).unwrap();
        let parsed = Manifest::parse(&m.render()).unwrap();
        assert_eq!(parsed, m);
        fs::remove_dir_all(&dir).unwrap();
    }
}
