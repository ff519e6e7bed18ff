//! The on-disk trace corpus: one recorded deployment, ready to re-merge.
//!
//! The real Jigsaw never merged from RAM — jigdump streamed every radio's
//! compressed trace to disk over NFS, and the merger consumed ~150 day-long
//! files (paper §3.3). A *corpus* is this repo's equivalent: a directory
//! holding one compressed, indexed trace per radio plus a manifest, written
//! by `repro record` and consumed by `repro merge --corpus`:
//!
//! ```text
//! corpus/
//!   MANIFEST         scenario, seed, scale, snaplen, duration,
//!                    per-radio table, wired member entry
//!   corpus.digest    16-hex FNV-1a digest of the whole corpus + newline
//!   r000.jigt        radio 0 trace (jigdump format, crate::format)
//!   r000.jigx        radio 0 block index (crate::index)
//!   r001.jigt        ...
//!   wired.jigw       wired distribution-network trace (opaque payload;
//!                    the simulator stores MSDU headers only, ≈65 B/record)
//! ```
//!
//! The manifest is a line-oriented text file (`JIGC 2` magic) so corpora
//! stay inspectable with `cat` and diffable in CI. The digest chains each
//! file's FNV-1a digest with its name, then the manifest text — any bit
//! flip anywhere in the corpus changes it, which is what the golden-corpus
//! determinism check in CI compares against a checked-in value.
//!
//! Besides the radio traces a corpus may hold one **wired member**
//! (`wired.jigw` by convention): the distribution-network packet trace the
//! paper's §6 coverage analysis compares the merged wireless view against.
//! Its payload is opaque to this crate (the simulator owns the encoding);
//! the manifest records its record count and file name and the digest
//! chains it like any trace file, so `repro analyze --corpus` runs
//! Figure 6 straight off the corpus without re-simulating the scenario.
//!
//! ## Anchor time and windowed reads
//!
//! Every radio's manifest row carries its NTP anchor pair
//! (`anchor_wall`/`anchor_local`). Those anchors define *anchor time* — a
//! universal, wall-clock-anchored timeline derived purely from the
//! manifest: [`RadioMeta::anchor_universal`] maps a local timestamp onto
//! it and [`RadioMeta::coarse_local`] maps back, both accurate to the NTP
//! error (ms) plus oscillator drift since the anchor. Anchor time is what
//! time-windowed replay speaks: a `[from, to)` request in anchor-universal
//! µs becomes, per radio, a local-clock range via `coarse_local`, and
//! [`RadioTraceSource::open_stream_range`] (or `read_window`)
//! serves exactly that range through the block index ([`find_block`] seeks
//! to the first overlapping block; decoding stops inside the first block
//! past the range) — the paper's "start at 11 am without decompressing the
//! morning", with I/O proportional to the window rather than the corpus.
//!
//! Reading back, [`Corpus::sources`] hands the pipeline one
//! [`RadioTraceSource`] per radio, and a replay reads each trace **once**:
//! [`RadioTraceSource::open_stream_range`] index-seeks to the first block
//! of the range the replay needs (the whole trace, or a window plus its
//! warm-up), the pipeline splits the bootstrap window off the front of
//! that one stream and seeds it back into the merger, and every block of
//! the range is read and decoded exactly once — what `repro`'s `disk bytes
//! in` reports is at most the trace files' size. Peak memory is one
//! decompressed block per radio ([`crate::format::BLOCK_TARGET`], 64 KB)
//! plus the bootstrap window and the merger's search-window state,
//! independent of corpus size. [`RadioTraceSource::read_window`] /
//! [`RadioTraceSource::read_bootstrap_window`] remain for callers that want
//! a window's events on their own (a separate, index-bounded read).

use crate::digest::{Fnv64, HashingWriter};
use crate::format::{FormatError, TraceReader, TraceWriter};
use crate::index::{find_block, read_index, write_index, IndexEntry};
use crate::stream::{CountingReader, WindowedStream};
use crate::{PhyEvent, RadioMeta};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Manifest file name inside a corpus directory.
pub const MANIFEST_NAME: &str = "MANIFEST";
/// Digest file name inside a corpus directory.
pub const DIGEST_NAME: &str = "corpus.digest";
/// First line of every manifest.
pub const MANIFEST_MAGIC: &str = "JIGC 2";
/// Conventional file name of the wired distribution-network member.
pub const WIRED_NAME: &str = "wired.jigw";

/// Errors from corpus operations.
#[derive(Debug)]
pub enum CorpusError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A trace file failed to decode.
    Format(FormatError),
    /// The manifest is malformed.
    Manifest(String),
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::Io(e) => write!(f, "corpus i/o: {e}"),
            CorpusError::Format(e) => write!(f, "corpus trace: {e}"),
            CorpusError::Manifest(what) => write!(f, "corpus manifest: {what}"),
        }
    }
}

impl std::error::Error for CorpusError {}

impl From<io::Error> for CorpusError {
    fn from(e: io::Error) -> Self {
        CorpusError::Io(e)
    }
}

impl From<FormatError> for CorpusError {
    fn from(e: FormatError) -> Self {
        CorpusError::Format(e)
    }
}

/// One radio's row in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestRadio {
    /// Radio metadata (identity, channel, clock anchors).
    pub meta: RadioMeta,
    /// Events recorded in this radio's trace.
    pub events: u64,
    /// Trace data file name, relative to the corpus directory.
    pub data: String,
    /// Block index file name, relative to the corpus directory.
    pub index: String,
}

/// The corpus's wired distribution-network member, if recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestWired {
    /// Wired-trace records in the member.
    pub records: u64,
    /// File name, relative to the corpus directory.
    pub file: String,
}

/// The corpus manifest: provenance plus the per-radio file table.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Scenario the corpus was recorded from (no whitespace).
    pub scenario: String,
    /// Simulation seed — `repro merge --verify` re-simulates from this.
    pub seed: u64,
    /// Scenario scale factor.
    pub scale: f64,
    /// Snap length the traces were captured with.
    pub snaplen: u32,
    /// Recorded duration in µs (the scenario's represented day — analyses
    /// derive their bin widths from this without re-simulating).
    pub duration_us: u64,
    /// One entry per radio, in radio order.
    pub radios: Vec<ManifestRadio>,
    /// The wired distribution-network member, when recorded.
    pub wired: Option<ManifestWired>,
}

impl Manifest {
    /// Renders the manifest to its on-disk text form.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(MANIFEST_MAGIC);
        s.push('\n');
        s.push_str(&format!("scenario {}\n", self.scenario));
        s.push_str(&format!("seed {}\n", self.seed));
        s.push_str(&format!("scale {}\n", self.scale));
        s.push_str(&format!("snaplen {}\n", self.snaplen));
        s.push_str(&format!("duration {}\n", self.duration_us));
        s.push_str(&format!("radios {}\n", self.radios.len()));
        for r in &self.radios {
            s.push_str(&format!(
                "radio {} monitor {} channel {} anchor_wall {} anchor_local {} events {} data {} index {}\n",
                r.meta.radio.0,
                r.meta.monitor.0,
                r.meta.channel.number(),
                r.meta.anchor_wall_us,
                r.meta.anchor_local_us,
                r.events,
                r.data,
                r.index,
            ));
        }
        if let Some(w) = &self.wired {
            s.push_str(&format!("wired {} {}\n", w.records, w.file));
        }
        s
    }

    /// Parses the text form written by [`Manifest::render`].
    pub fn parse(text: &str) -> Result<Self, CorpusError> {
        fn bad(what: impl Into<String>) -> CorpusError {
            CorpusError::Manifest(what.into())
        }
        fn field<'a>(line: &'a str, key: &str) -> Result<&'a str, CorpusError> {
            line.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix(' '))
                .ok_or_else(|| bad(format!("expected `{key} <value>`, got `{line}`")))
        }
        fn num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, CorpusError> {
            s.parse()
                .map_err(|_| bad(format!("bad {what} value `{s}`")))
        }
        fn file_name(s: &str, what: &str) -> Result<String, CorpusError> {
            if s.is_empty() || s.contains(['/', '\\']) || s == ".." {
                return Err(bad(format!("bad {what} file name `{s}`")));
            }
            Ok(s.to_string())
        }

        let mut lines = text.lines();
        if lines.next() != Some(MANIFEST_MAGIC) {
            return Err(bad("bad magic line"));
        }
        let scenario = field(lines.next().unwrap_or(""), "scenario")?.to_string();
        let seed = num(field(lines.next().unwrap_or(""), "seed")?, "seed")?;
        let scale = num(field(lines.next().unwrap_or(""), "scale")?, "scale")?;
        let snaplen = num(field(lines.next().unwrap_or(""), "snaplen")?, "snaplen")?;
        let duration_us = num(field(lines.next().unwrap_or(""), "duration")?, "duration")?;
        let n: usize = num(field(lines.next().unwrap_or(""), "radios")?, "radios")?;
        if n > 100_000 {
            return Err(bad("radio count implausibly large"));
        }
        let mut radios = Vec::with_capacity(n);
        for _ in 0..n {
            let line = lines.next().ok_or_else(|| bad("truncated radio table"))?;
            let t: Vec<&str> = line.split_whitespace().collect();
            // Manifest lines are untrusted input (tidy: `decode-no-panic`):
            // a slice pattern rejects a wrong-arity line up front, so no
            // field access below can be out of bounds.
            let [kr, radio, km, monitor, kc, channel, kw, anchor_wall, kl, anchor_local, ke, events, kd, data, ki, index] =
                t.as_slice()
            else {
                return Err(bad(format!("bad radio line `{line}`")));
            };
            let keys = [kr, km, kc, kw, kl, ke, kd, ki];
            let expect = [
                &"radio",
                &"monitor",
                &"channel",
                &"anchor_wall",
                &"anchor_local",
                &"events",
                &"data",
                &"index",
            ];
            if keys != expect {
                return Err(bad(format!("bad radio line `{line}`")));
            }
            let channel = jigsaw_ieee80211::Channel::new(num(channel, "channel")?)
                .map_err(|_| bad(format!("bad channel in `{line}`")))?;
            radios.push(ManifestRadio {
                meta: RadioMeta {
                    radio: crate::RadioId(num(radio, "radio")?),
                    monitor: crate::MonitorId(num(monitor, "monitor")?),
                    channel,
                    anchor_wall_us: num(anchor_wall, "anchor_wall")?,
                    anchor_local_us: num(anchor_local, "anchor_local")?,
                },
                events: num(events, "events")?,
                data: file_name(data, "data")?,
                index: file_name(index, "index")?,
            });
        }
        let wired = match lines.next() {
            None => None,
            Some(line) => {
                let t: Vec<&str> = line.split_whitespace().collect();
                let [kw, records, file] = t.as_slice() else {
                    return Err(bad(format!("bad wired line `{line}`")));
                };
                if *kw != "wired" {
                    return Err(bad(format!("bad wired line `{line}`")));
                }
                Some(ManifestWired {
                    records: num(records, "wired records")?,
                    file: file_name(file, "wired")?,
                })
            }
        };
        if let Some(extra) = lines.next() {
            return Err(bad(format!("trailing manifest line `{extra}`")));
        }
        Ok(Manifest {
            scenario,
            seed,
            scale,
            snaplen,
            duration_us,
            radios,
            wired,
        })
    }
}

/// What [`CorpusWriter::finish`] reports.
#[derive(Debug, Clone)]
pub struct CorpusSummary {
    /// The corpus digest (16-char hex), also written to [`DIGEST_NAME`].
    pub digest: String,
    /// Total bytes written across data + index files (compressed size).
    pub data_bytes: u64,
    /// Total events recorded.
    pub events: u64,
    /// Radios recorded.
    pub radios: usize,
}

/// Streaming corpus recorder: one [`record_radio`](CorpusWriter::record_radio)
/// call per radio (in radio order), optionally
/// [`record_wired`](CorpusWriter::record_wired) after the last radio, then
/// [`finish`](CorpusWriter::finish). Each radio is written through a
/// [`TraceWriter`] and hashed as it goes — memory stays bounded by one
/// compression block regardless of trace length.
pub struct CorpusWriter {
    dir: PathBuf,
    manifest: Manifest,
    block_target: usize,
    digest: Fnv64,
    data_bytes: u64,
}

impl CorpusWriter {
    /// Creates the corpus directory (and parents) and an empty manifest.
    /// `scenario` must be whitespace-free; `block_target` of 0 means the
    /// format default; `duration_us` is the recorded scenario length.
    pub fn create(
        dir: &Path,
        scenario: &str,
        seed: u64,
        scale: f64,
        snaplen: u32,
        duration_us: u64,
        block_target: usize,
    ) -> Result<Self, CorpusError> {
        if scenario.is_empty() || scenario.contains(char::is_whitespace) {
            return Err(CorpusError::Manifest(format!(
                "scenario name `{scenario}` must be non-empty and whitespace-free"
            )));
        }
        std::fs::create_dir_all(dir)?;
        Ok(CorpusWriter {
            dir: dir.to_path_buf(),
            manifest: Manifest {
                scenario: scenario.to_string(),
                seed,
                scale,
                snaplen,
                duration_us,
                radios: Vec::new(),
                wired: None,
            },
            block_target: if block_target == 0 {
                crate::format::BLOCK_TARGET
            } else {
                block_target
            },
            digest: Fnv64::new(),
            data_bytes: 0,
        })
    }

    /// Records one radio's trace (events must be in `ts_local` order).
    /// Returns the number of events written. Must precede
    /// [`record_wired`](CorpusWriter::record_wired) — the digest chain runs
    /// radios first, wired member last.
    pub fn record_radio<'a>(
        &mut self,
        meta: RadioMeta,
        events: impl IntoIterator<Item = &'a PhyEvent>,
    ) -> Result<u64, CorpusError> {
        if self.manifest.wired.is_some() {
            return Err(CorpusError::Manifest(
                "record_radio after record_wired: radios must come first".into(),
            ));
        }
        let i = self.manifest.radios.len();
        let data = format!("r{i:03}.jigt");
        let index = format!("r{i:03}.jigx");

        let sink = HashingWriter::new(BufWriter::new(File::create(self.dir.join(&data))?));
        let mut w =
            TraceWriter::with_block_target(sink, meta, self.manifest.snaplen, self.block_target)?;
        for ev in events {
            w.append(ev)?;
        }
        let (sink, entries, total) = w.finish()?;
        let (mut file, data_digest, data_bytes) = sink.finish();
        file.flush()?;
        drop(file);

        let mut isink = HashingWriter::new(BufWriter::new(File::create(self.dir.join(&index))?));
        write_index(&mut isink, &entries)?;
        isink.flush()?;
        let (mut ifile, index_digest, index_bytes) = isink.finish();
        ifile.flush()?;
        drop(ifile);

        // Chain (name, file digest) pairs in radio order; the manifest text
        // joins at finish(). Any reordering, rename, or byte flip moves the
        // corpus digest.
        self.digest.update(data.as_bytes());
        self.digest.update_u64(data_digest);
        self.digest.update(index.as_bytes());
        self.digest.update_u64(index_digest);
        self.data_bytes += data_bytes + index_bytes;
        self.manifest.radios.push(ManifestRadio {
            meta,
            events: total,
            data,
            index,
        });
        Ok(total)
    }

    /// Records the wired distribution-network member ([`WIRED_NAME`]) from
    /// an already-encoded payload (the encoding belongs to the layer that
    /// owns the record type — this crate stores and digests opaque bytes).
    /// Call at most once, after every radio.
    pub fn record_wired(&mut self, records: u64, payload: &[u8]) -> Result<(), CorpusError> {
        if self.manifest.wired.is_some() {
            return Err(CorpusError::Manifest(
                "wired member already recorded".into(),
            ));
        }
        std::fs::write(self.dir.join(WIRED_NAME), payload)?;
        let mut h = Fnv64::new();
        h.update(payload);
        self.digest.update(WIRED_NAME.as_bytes());
        self.digest.update_u64(h.finish());
        self.data_bytes += payload.len() as u64;
        self.manifest.wired = Some(ManifestWired {
            records,
            file: WIRED_NAME.to_string(),
        });
        Ok(())
    }

    /// Writes the manifest and digest files and returns the summary.
    pub fn finish(mut self) -> Result<CorpusSummary, CorpusError> {
        let text = self.manifest.render();
        std::fs::write(self.dir.join(MANIFEST_NAME), &text)?;
        self.digest.update(text.as_bytes());
        let digest = self.digest.hex();
        std::fs::write(self.dir.join(DIGEST_NAME), format!("{digest}\n"))?;
        Ok(CorpusSummary {
            digest,
            data_bytes: self.data_bytes,
            events: self.manifest.radios.iter().map(|r| r.events).sum(),
            radios: self.manifest.radios.len(),
        })
    }
}

/// The merge stream type corpus sources hand out: a jigdump decode of a
/// buffered file read, with every byte counted.
pub type CorpusStream = TraceReader<CountingReader<BufReader<File>>>;

/// A corpus stream clipped to a local-time range — what windowed replay
/// merges from ([`RadioTraceSource::open_stream_range`]).
pub type WindowedCorpusStream = WindowedStream<CorpusStream>;

/// One radio of an opened corpus: its trace file, its block index, and a
/// shared disk-bytes counter. This is the disk-backed event source the
/// pipeline merges from (`jigsaw_core` adapts it into its `EventSource`).
pub struct RadioTraceSource {
    path: PathBuf,
    meta: RadioMeta,
    index: Vec<IndexEntry>,
    counter: Arc<AtomicU64>,
}

impl RadioTraceSource {
    /// The radio's metadata (from the manifest).
    pub fn meta(&self) -> RadioMeta {
        self.meta
    }

    /// The block index.
    pub fn index(&self) -> &[IndexEntry] {
        &self.index
    }

    /// Opens the full merge stream (from the first event).
    pub fn open_stream(&self) -> Result<CorpusStream, FormatError> {
        let f = File::open(&self.path)?;
        TraceReader::open(CountingReader::new(
            BufReader::new(f),
            Arc::clone(&self.counter),
        ))
    }

    /// Reads every event with `ts_local` in `[lo, hi]`, decoding only the
    /// blocks that overlap the range. [`find_block`] bounds the read on
    /// both sides: the reader seeks straight to the first overlapping
    /// block, decoding stops inside the first block holding a past-range
    /// event, and when the index shows no block can overlap the range the
    /// file is not opened at all. A standalone read: the pipeline splits
    /// its bootstrap window off the merge stream
    /// ([`RadioTraceSource::open_stream_range`]) rather than read it twice.
    pub fn read_window(&self, lo: u64, hi: u64) -> Result<Vec<PhyEvent>, FormatError> {
        // `find_block` returns in-bounds positions, but the index came off
        // disk, so this path stays `get`-based (tidy: `decode-no-panic`).
        let Some((start, first)) =
            find_block(&self.index, lo).and_then(|b| Some((b, self.index.get(b)?)))
        else {
            return Ok(Vec::new()); // whole trace ends before `lo`
        };
        if first.first_ts > hi {
            return Ok(Vec::new()); // whole trace (from `lo` on) starts past `hi`
        }
        // The first block that may hold events past the range; every block
        // between `start` and it overlaps the range, which also caps the
        // allocation.
        let stop = find_block(&self.index, hi.saturating_add(1));
        let cap: u64 = match stop {
            Some(b) => self.index.get(start..=b),
            None => self.index.get(start..),
        }
        .into_iter()
        .flatten()
        .map(|e| u64::from(e.count))
        .sum();
        let mut out = Vec::with_capacity(cap as usize);
        let mut reader = self.open_stream()?;
        reader.seek_to_block(first.offset)?;
        while let Some(ev) = reader.next_event()? {
            if ev.ts_local > hi {
                break; // still inside block `stop`: later blocks never load
            }
            if ev.ts_local >= lo {
                out.push(ev);
            }
        }
        Ok(out)
    }

    /// Reads the bootstrap window — every event with
    /// `ts_local ≤ anchor_local + window_us` — via [`read_window`]
    /// (the t=0 case of the windowed read; see
    /// [`RadioTraceSource::read_window`] for the bounding guarantees).
    ///
    /// [`read_window`]: RadioTraceSource::read_window
    pub fn read_bootstrap_window(&self, window_us: u64) -> Result<Vec<PhyEvent>, FormatError> {
        // `lo = 0`, not the anchor: the t=0 bootstrap read historically
        // included any (pathological) pre-anchor events, and the merger
        // must see them regardless.
        self.read_window(0, self.meta.anchor_local_us.saturating_add(window_us))
    }

    /// Opens a merge stream clipped to `ts_local ∈ [lo, hi]`: the reader
    /// index-seeks to the first block that may overlap the range, events
    /// before `lo` in that block are skipped, and decoding stops inside the
    /// first block past `hi` — disk bytes read are bounded by the window's
    /// blocks, not the trace. A range past the end of the trace yields an
    /// empty (but valid) stream.
    pub fn open_stream_range(&self, lo: u64, hi: u64) -> Result<WindowedCorpusStream, FormatError> {
        let inner = match find_block(&self.index, lo).and_then(|b| self.index.get(b)) {
            Some(entry) if entry.first_ts <= hi => {
                let mut reader = self.open_stream()?;
                reader.seek_to_block(entry.offset)?;
                Some(reader)
            }
            _ => None, // no block overlaps [lo, hi]: open nothing
        };
        Ok(WindowedStream::new(self.meta, inner, lo, hi))
    }
}

/// An opened corpus directory.
pub struct Corpus {
    dir: PathBuf,
    manifest: Manifest,
}

impl Corpus {
    /// Opens a corpus by parsing its manifest.
    pub fn open(dir: &Path) -> Result<Self, CorpusError> {
        let text = std::fs::read_to_string(dir.join(MANIFEST_NAME))?;
        Ok(Corpus {
            dir: dir.to_path_buf(),
            manifest: Manifest::parse(&text)?,
        })
    }

    /// The parsed manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The corpus directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Per-radio metadata, in radio order.
    pub fn metas(&self) -> Vec<RadioMeta> {
        self.manifest.radios.iter().map(|r| r.meta).collect()
    }

    /// Total events across all radios (from the manifest).
    pub fn total_events(&self) -> u64 {
        self.manifest.radios.iter().map(|r| r.events).sum()
    }

    /// Total on-disk bytes of the data + index files (wired member
    /// included, when present).
    pub fn data_bytes(&self) -> io::Result<u64> {
        let mut total = 0;
        for r in &self.manifest.radios {
            total += std::fs::metadata(self.dir.join(&r.data))?.len();
            total += std::fs::metadata(self.dir.join(&r.index))?.len();
        }
        if let Some(w) = &self.manifest.wired {
            total += std::fs::metadata(self.dir.join(&w.file))?.len();
        }
        Ok(total)
    }

    /// Reads the wired member's raw payload (`None` when the corpus has no
    /// wired trace). Decoding belongs to the layer that recorded it.
    pub fn wired_payload(&self) -> Result<Option<Vec<u8>>, CorpusError> {
        match &self.manifest.wired {
            None => Ok(None),
            Some(w) => Ok(Some(std::fs::read(self.dir.join(&w.file))?)),
        }
    }

    /// The corpus's span on the anchor-universal timeline: the earliest and
    /// latest event timestamps across all radios, each mapped through its
    /// radio's NTP anchor ([`RadioMeta::anchor_universal`]). Derived from
    /// the block indexes — no trace data is decoded. `None` for a corpus
    /// with no events. This is what `repro` validates `--from`/`--to`
    /// requests against.
    pub fn universal_span(&self) -> Result<Option<(u64, u64)>, CorpusError> {
        let mut span: Option<(u64, u64)> = None;
        for r in &self.manifest.radios {
            let index = read_index(BufReader::new(File::open(self.dir.join(&r.index))?))?;
            let (Some(first), Some(last)) = (index.first(), index.last()) else {
                continue;
            };
            let lo = r.meta.anchor_universal(first.first_ts);
            let hi = r.meta.anchor_universal(last.last_ts);
            span = Some(match span {
                None => (lo, hi),
                Some((a, b)) => (a.min(lo), b.max(hi)),
            });
        }
        Ok(span)
    }

    /// Opens one radio as a disk-backed event source. Reads through the
    /// source accumulate into `counter`.
    pub fn source(
        &self,
        radio: usize,
        counter: Arc<AtomicU64>,
    ) -> Result<RadioTraceSource, CorpusError> {
        let entry = self
            .manifest
            .radios
            .get(radio)
            .ok_or_else(|| CorpusError::Manifest(format!("no radio {radio} in manifest")))?;
        let index = read_index(BufReader::new(File::open(self.dir.join(&entry.index))?))?;
        Ok(RadioTraceSource {
            path: self.dir.join(&entry.data),
            meta: entry.meta,
            index,
            counter,
        })
    }

    /// Opens every radio as a disk-backed event source sharing one
    /// disk-bytes counter.
    pub fn sources(&self, counter: Arc<AtomicU64>) -> Result<Vec<RadioTraceSource>, CorpusError> {
        (0..self.manifest.radios.len())
            .map(|i| self.source(i, Arc::clone(&counter)))
            .collect()
    }

    /// The digest recorded at write time ([`DIGEST_NAME`]), trimmed.
    pub fn stored_digest(&self) -> io::Result<String> {
        Ok(std::fs::read_to_string(self.dir.join(DIGEST_NAME))?
            .trim()
            .to_string())
    }

    /// Recomputes the corpus digest from the files on disk (same chaining
    /// as [`CorpusWriter`]). Files are hashed in fixed-size chunks — a
    /// day-long, larger-than-RAM trace file must be verifiable without
    /// materializing it.
    pub fn compute_digest(&self) -> Result<String, CorpusError> {
        fn hash_file(path: &Path) -> io::Result<u64> {
            use std::io::Read;
            let mut f = File::open(path)?;
            let mut h = Fnv64::new();
            let mut buf = [0u8; 64 * 1024];
            loop {
                let n = f.read(&mut buf)?;
                if n == 0 {
                    return Ok(h.finish());
                }
                // tidy:allow(decode-no-panic): the Read contract guarantees n <= buf.len()
                h.update(&buf[..n]);
            }
        }
        let mut digest = Fnv64::new();
        for r in &self.manifest.radios {
            for name in [&r.data, &r.index] {
                digest.update(name.as_bytes());
                digest.update_u64(hash_file(&self.dir.join(name))?);
            }
        }
        if let Some(w) = &self.manifest.wired {
            digest.update(w.file.as_bytes());
            digest.update_u64(hash_file(&self.dir.join(&w.file))?);
        }
        let text = std::fs::read_to_string(self.dir.join(MANIFEST_NAME))?;
        digest.update(text.as_bytes());
        Ok(digest.hex())
    }

    /// True when the files on disk still match the recorded digest.
    pub fn verify_digest(&self) -> Result<bool, CorpusError> {
        Ok(self.compute_digest()? == self.stored_digest()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MonitorId, PhyStatus, RadioId};
    use jigsaw_ieee80211::{Channel, PhyRate};
    use std::sync::atomic::Ordering;

    fn meta(radio: u16, chan: u8, anchor_local: u64) -> RadioMeta {
        RadioMeta {
            radio: RadioId(radio),
            monitor: MonitorId(radio / 2),
            channel: Channel::of(chan),
            anchor_wall_us: 42,
            anchor_local_us: anchor_local,
        }
    }

    fn ev(radio: u16, ts: u64, chan: u8, fill: u8) -> PhyEvent {
        PhyEvent {
            radio: RadioId(radio),
            ts_local: ts,
            channel: Channel::of(chan),
            rate: PhyRate::R11,
            rssi_dbm: -55,
            status: PhyStatus::Ok,
            wire_len: 60,
            bytes: vec![fill; 60].into(),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "jigsaw-corpus-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Two radios on different channels, multi-block (tiny block target).
    fn write_sample(dir: &Path) -> (Vec<Vec<PhyEvent>>, CorpusSummary) {
        let traces: Vec<Vec<PhyEvent>> = vec![
            (0..400)
                .map(|k| ev(0, 1_000 + k * 500, 1, k as u8))
                .collect(),
            (0..300)
                .map(|k| ev(1, 2_000 + k * 700, 6, k as u8))
                .collect(),
        ];
        let mut w = CorpusWriter::create(dir, "sample", 7, 0.5, 200, 250_000, 2048).unwrap();
        w.record_radio(meta(0, 1, 1_000), traces[0].iter()).unwrap();
        w.record_radio(meta(1, 6, 2_000), traces[1].iter()).unwrap();
        let summary = w.finish().unwrap();
        (traces, summary)
    }

    fn drain(s: CorpusStream) -> Vec<PhyEvent> {
        s.map(|e| e.unwrap()).collect()
    }

    #[test]
    fn manifest_roundtrip() {
        let mut m = Manifest {
            scenario: "paper_day".into(),
            seed: 20060124,
            scale: 0.25,
            snaplen: 260,
            duration_us: 720_000_000,
            radios: vec![ManifestRadio {
                meta: meta(3, 11, 777),
                events: 123_456,
                data: "r003.jigt".into(),
                index: "r003.jigx".into(),
            }],
            wired: None,
        };
        assert_eq!(Manifest::parse(&m.render()).unwrap(), m);
        m.wired = Some(ManifestWired {
            records: 42,
            file: WIRED_NAME.into(),
        });
        assert_eq!(Manifest::parse(&m.render()).unwrap(), m);
    }

    #[test]
    fn manifest_rejects_garbage() {
        assert!(Manifest::parse("").is_err());
        assert!(Manifest::parse("JIGC 1\n").is_err());
        let m = Manifest {
            scenario: "x".into(),
            seed: 1,
            scale: 1.0,
            snaplen: 100,
            duration_us: 1_000,
            radios: vec![],
            wired: None,
        };
        let good = m.render();
        // Truncated radio table.
        let bad = good.replace("radios 0", "radios 3");
        assert!(Manifest::parse(&bad).is_err());
        // A manifest missing the duration line (the old JIGC 1 shape).
        let old = good.replace("duration 1000\n", "");
        assert!(Manifest::parse(&old).is_err());
        // Garbage trailing line where the wired entry would sit.
        assert!(Manifest::parse(&format!("{good}wires 1 w\n")).is_err());
        // A valid wired entry parses — but nothing may follow it.
        let with_wired = format!("{good}wired 1 w.jigw\n");
        assert!(Manifest::parse(&with_wired).is_ok());
        assert!(Manifest::parse(&format!("{with_wired}junk\n")).is_err());
        assert!(Manifest::parse(&format!("{with_wired}wired 2 x.jigw\n")).is_err());
        // Path traversal in a file name.
        assert!(Manifest::parse(
            "JIGC 2\nscenario x\nseed 1\nscale 1\nsnaplen 100\nduration 5\nradios 1\n\
             radio 0 monitor 0 channel 1 anchor_wall 0 anchor_local 0 events 1 data ../evil index r.jigx\n"
        )
        .is_err());
    }

    #[test]
    fn scenario_name_must_be_clean() {
        let dir = tmpdir("badname");
        assert!(CorpusWriter::create(&dir, "two words", 1, 1.0, 100, 1, 0).is_err());
        assert!(CorpusWriter::create(&dir, "", 1, 1.0, 100, 1, 0).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_roundtrip_streams_and_metadata() {
        let dir = tmpdir("roundtrip");
        let (traces, summary) = write_sample(&dir);
        assert_eq!(summary.radios, 2);
        assert_eq!(summary.events, 700);

        let c = Corpus::open(&dir).unwrap();
        assert_eq!(c.manifest().scenario, "sample");
        assert_eq!(c.manifest().seed, 7);
        assert_eq!(c.total_events(), 700);
        assert_eq!(c.metas(), vec![meta(0, 1, 1_000), meta(1, 6, 2_000)]);
        assert_eq!(c.data_bytes().unwrap(), summary.data_bytes);

        let counter = Arc::new(AtomicU64::new(0));
        for (i, trace) in traces.iter().enumerate() {
            let src = c.source(i, Arc::clone(&counter)).unwrap();
            assert!(src.index().len() > 1, "expected multiple blocks");
            assert_eq!(&drain(src.open_stream().unwrap()), trace);
        }
        // The shared counter saw every data byte (both files fully read).
        let data_only: u64 = c
            .manifest()
            .radios
            .iter()
            .map(|r| std::fs::metadata(dir.join(&r.data)).unwrap().len())
            .sum();
        assert_eq!(counter.load(Ordering::Relaxed), data_only);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn digest_is_deterministic_and_tamper_evident() {
        let d1 = tmpdir("digest1");
        let d2 = tmpdir("digest2");
        let (_, s1) = write_sample(&d1);
        let (_, s2) = write_sample(&d2);
        assert_eq!(s1.digest, s2.digest, "same input must digest identically");

        let c = Corpus::open(&d1).unwrap();
        assert_eq!(c.stored_digest().unwrap(), s1.digest);
        assert_eq!(c.compute_digest().unwrap(), s1.digest);
        assert!(c.verify_digest().unwrap());

        // Flip one byte mid-file: verify must fail.
        let path = d1.join(&c.manifest().radios[0].data);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();
        assert!(!c.verify_digest().unwrap());

        let _ = std::fs::remove_dir_all(&d1);
        let _ = std::fs::remove_dir_all(&d2);
    }

    #[test]
    fn bootstrap_window_read_is_exact_and_bounded() {
        let dir = tmpdir("window");
        let (traces, _) = write_sample(&dir);
        let c = Corpus::open(&dir).unwrap();
        let counter = Arc::new(AtomicU64::new(0));

        // Radio 0: anchor 1000, window 20_000 → events with ts ≤ 21_000.
        let src = c.source(0, Arc::clone(&counter)).unwrap();
        let window = src.read_bootstrap_window(20_000).unwrap();
        let expect: Vec<&PhyEvent> = traces[0].iter().filter(|e| e.ts_local <= 21_000).collect();
        assert!(!window.is_empty() && window.len() < traces[0].len());
        assert_eq!(window.iter().collect::<Vec<_>>(), expect);
        // Bounded read: the prefix read must not touch the whole file.
        let file_len = std::fs::metadata(dir.join(&c.manifest().radios[0].data))
            .unwrap()
            .len();
        assert!(
            counter.load(Ordering::Relaxed) < file_len,
            "window read consumed the entire file"
        );

        // A window covering everything returns the full trace.
        let all = src.read_bootstrap_window(u64::MAX).unwrap();
        assert_eq!(all.len(), traces[0].len());

        // A window that closes before the first event (the index shows
        // first_ts past the window) reads nothing and opens nothing.
        let before = counter.load(Ordering::Relaxed);
        let mut early = c.source(0, Arc::clone(&counter)).unwrap();
        early.meta.anchor_local_us = 0;
        assert!(early.read_bootstrap_window(5).unwrap().is_empty());
        assert_eq!(counter.load(Ordering::Relaxed), before, "no bytes read");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_window_seeks_and_is_exact() {
        let dir = tmpdir("readwin");
        let (traces, _) = write_sample(&dir);
        let c = Corpus::open(&dir).unwrap();
        let counter = Arc::new(AtomicU64::new(0));
        let src = c.source(0, Arc::clone(&counter)).unwrap();

        // A mid-trace window: exact contents, inclusive on both bounds.
        let (lo, hi) = (traces[0][250].ts_local, traces[0][280].ts_local);
        let got = src.read_window(lo, hi).unwrap();
        let expect: Vec<&PhyEvent> = traces[0]
            .iter()
            .filter(|e| e.ts_local >= lo && e.ts_local <= hi)
            .collect();
        assert_eq!(got.iter().collect::<Vec<_>>(), expect);
        assert_eq!(got.first().unwrap().ts_local, lo);
        assert_eq!(got.last().unwrap().ts_local, hi);
        // The read seeked past the morning and stopped before the evening.
        let file_len = std::fs::metadata(dir.join(&c.manifest().radios[0].data))
            .unwrap()
            .len();
        assert!(
            counter.load(Ordering::Relaxed) < file_len / 2,
            "windowed read consumed {} of {file_len} bytes",
            counter.load(Ordering::Relaxed)
        );

        // A window entirely before the first event: nothing, and since the
        // seek target is block 0 the bounded decode stops inside it.
        assert!(src
            .read_window(0, traces[0][0].ts_local - 1)
            .unwrap()
            .is_empty());
        // A window past the end of the trace: nothing is even opened.
        let before = counter.load(Ordering::Relaxed);
        assert!(src.read_window(u64::MAX - 1, u64::MAX).unwrap().is_empty());
        assert_eq!(counter.load(Ordering::Relaxed), before, "no bytes read");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_stream_range_clips_both_ends() {
        let dir = tmpdir("range");
        let (traces, _) = write_sample(&dir);
        let c = Corpus::open(&dir).unwrap();
        let counter = Arc::new(AtomicU64::new(0));
        let src = c.source(0, Arc::clone(&counter)).unwrap();

        let (lo, hi) = (traces[0][100].ts_local, traces[0][320].ts_local);
        let mut s = src.open_stream_range(lo, hi).unwrap();
        let mut got = Vec::new();
        {
            use crate::stream::EventStream;
            assert_eq!(s.meta(), src.meta());
            while let Some(e) = s.next_event().unwrap() {
                got.push(e);
            }
        }
        let expect: Vec<PhyEvent> = traces[0]
            .iter()
            .filter(|e| e.ts_local >= lo && e.ts_local <= hi)
            .cloned()
            .collect();
        assert_eq!(got, expect);
        // Bounded I/O on both sides.
        let file_len = std::fs::metadata(dir.join(&c.manifest().radios[0].data))
            .unwrap()
            .len();
        assert!(
            counter.load(Ordering::Relaxed) < file_len,
            "read everything"
        );

        // A range past the end yields a valid, empty stream with no I/O.
        let before = counter.load(Ordering::Relaxed);
        let mut empty = src.open_stream_range(u64::MAX - 1, u64::MAX).unwrap();
        {
            use crate::stream::EventStream;
            assert!(empty.next_event().unwrap().is_none());
        }
        assert_eq!(counter.load(Ordering::Relaxed), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn universal_span_from_indexes_only() {
        let dir = tmpdir("span");
        let (traces, _) = write_sample(&dir);
        let c = Corpus::open(&dir).unwrap();
        // Expected: each radio's [first, last] local ts mapped through its
        // anchor pair, merged across radios.
        let expect_lo = (0..2)
            .map(|r| {
                c.manifest().radios[r]
                    .meta
                    .anchor_universal(traces[r][0].ts_local)
            })
            .min()
            .unwrap();
        let expect_hi = (0..2)
            .map(|r| {
                c.manifest().radios[r]
                    .meta
                    .anchor_universal(traces[r].last().unwrap().ts_local)
            })
            .max()
            .unwrap();
        assert_eq!(c.universal_span().unwrap(), Some((expect_lo, expect_hi)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wired_member_is_stored_and_digest_chained() {
        let dir = tmpdir("wired");
        let payload = b"JIGW-opaque-payload".to_vec();
        let mut w = CorpusWriter::create(&dir, "sample", 7, 0.5, 200, 9_000, 2048).unwrap();
        let trace: Vec<PhyEvent> = (0..50)
            .map(|k| ev(0, 1_000 + k * 500, 1, k as u8))
            .collect();
        w.record_radio(meta(0, 1, 1_000), trace.iter()).unwrap();
        w.record_wired(3, &payload).unwrap();
        // Ordering is enforced: wired closes the member chain.
        assert!(w.record_wired(3, &payload).is_err());
        assert!(w.record_radio(meta(1, 6, 2_000), trace.iter()).is_err());
        let summary = w.finish().unwrap();

        let c = Corpus::open(&dir).unwrap();
        assert_eq!(
            c.manifest().wired,
            Some(ManifestWired {
                records: 3,
                file: WIRED_NAME.into()
            })
        );
        assert_eq!(c.manifest().duration_us, 9_000);
        assert_eq!(c.wired_payload().unwrap().unwrap(), payload);
        assert_eq!(c.data_bytes().unwrap(), summary.data_bytes);
        assert!(c.verify_digest().unwrap());

        // Tampering with the wired member breaks the corpus digest.
        let mut bytes = std::fs::read(dir.join(WIRED_NAME)).unwrap();
        bytes[2] ^= 0x10;
        std::fs::write(dir.join(WIRED_NAME), bytes).unwrap();
        assert!(!c.verify_digest().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
