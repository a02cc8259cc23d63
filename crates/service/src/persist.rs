//! Crash-safe registry persistence: versioned, checksummed binary
//! snapshots of loaded graphs (CSR + full [`BcDecomposition`]) plus an
//! append-only request journal.
//!
//! ## Snapshot format (version 4)
//!
//! A fixed one-page header followed by three independently checksummed
//! sections:
//!
//! ```text
//! [   0..   8)  magic          b"SAPHSNAP"
//! [   8..  12)  u32 version    SNAPSHOT_VERSION
//! [  12..  16)  u32 flags      reserved, zero
//! [  16..  24)  u64 delta_seq
//! [  24..  48)  graph extent   u64 offset | u64 length | u32 CRC-32 | pad
//! [  48..  72)  warm extent    same shape
//! [  72..  96)  dec extent     same shape
//! [  96..    )  name           length-prefixed UTF-8
//! [       4096) graph section  u64 n | u64 m | (n + 1) u64 offsets |
//!                              2m u32 neighbors | 2m u32 edge ids
//! [           ) warm section   cached /rank responses worth pre-warming
//! [           ) dec section    BcDecomposition (own DEC_FORMAT_VERSION)
//! ```
//!
//! The graph section starts at file offset 4096, a fixed part of version
//! 4: the header page holds the name, and a reader checks that the graph
//! extent starts exactly there. [`load_snapshot`] verifies the section
//! CRC, decodes the CSR arrays into owned vectors, and hands them to
//! [`Graph::assemble`], which re-validates the full CSR structure —
//! sorted adjacency, no self-loops, twin edge ids — so a hand-crafted
//! file whose CRC was forged along with its bytes still cannot put an
//! invariant-breaking graph in the engine.
//!
//! `delta_seq` counts the journaled edge deltas (`PATCH /graphs/<name>`)
//! already folded into the snapshotted graph, so boot replay applies only
//! patch records with `seq > delta_seq` — snapshot + journal suffix
//! reconstructs the live graph with zero re-uploads.
//!
//! All integers little-endian. The three sections are checksummed
//! *independently*: a damaged graph section makes the snapshot unusable
//! (there is nothing to decompose), a damaged warm section degrades to an
//! empty warm cache, and a damaged or version-mismatched decomposition
//! section degrades gracefully — the graph is still restored and the
//! caller recomputes the decomposition, trading the startup win for
//! correctness, never a crash.
//!
//! Version 4 is the only container version written or read. A file of any
//! other version (1–3 were earlier layouts) fails to load with an error
//! naming its version; re-save it by re-`POST`ing the graph or with
//! `snapshot save`.
//!
//! ## Atomic writes
//!
//! [`save_snapshot`] writes to a dot-prefixed temp file in the target
//! directory, `fsync`s it, `rename`s it over the destination, and
//! `fsync`s the directory. A crash at any point leaves either the old
//! snapshot or the new one — never a torn file (a leftover `.tmp` is
//! ignored by the `*.snap` boot scan).
//!
//! ## Journal
//!
//! One JSON line per `/rank` request, appended in a single `write`:
//!
//! ```json
//! {"ts":1722268800,"status":200,"cache":"miss","request":{"graph":"g","targets":[1,2],...}}
//! ```
//!
//! `ts` is unix seconds, `cache` the `X-Saphyra-Cache` disposition
//! (`null` for rejected requests), and `request` the parsed request body
//! re-serialized canonically (`null` when the body was not valid JSON).
//! Because `f64`s serialize with shortest-round-trip precision, replaying
//! a journal line reconstructs the exact request bit pattern —
//! [`replay_journal`] drives the recorded requests back through a
//! [`Service`] and checks the statuses match.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use saphyra::bc::{self, BcDecomposition};
use saphyra_graph::wire::{self, Reader};
use saphyra_graph::Graph;

use crate::http::Request;
use crate::json::Json;
use crate::server::Service;
use crate::sync::LockExt;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"SAPHSNAP";
/// Snapshot container format version, the only one this build writes or
/// reads. Version 4 stores the CSR offsets as plain `u64`s.
pub const SNAPSHOT_VERSION: u32 = 4;
/// Bytes reserved for the fixed header (magic, version, extents, name).
/// The graph section starts here, one page in.
pub const GRAPH_SECTION_OFFSET: usize = 4096;
/// Size of the fixed-field prefix of a graph section: `u64` n and m.
const GRAPH_FIELDS_BYTES: usize = 16;
/// File name of the append-only request journal inside a state dir.
pub const JOURNAL_FILE: &str = "journal.log";

/// Persistence failure: I/O or format (with context).
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The bytes do not form a valid snapshot.
    Format(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Format(m) => write!(f, "invalid snapshot: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn format_err<T>(msg: impl Into<String>) -> Result<T, PersistError> {
    Err(PersistError::Format(msg.into()))
}

/// A decoded snapshot. `dec` is `Err(reason)` when only the decomposition
/// section was damaged or version-mismatched: the graph is intact and the
/// caller should recompute (and may overwrite the snapshot).
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// Registry name the snapshot was saved under.
    pub name: String,
    /// The restored graph.
    pub graph: Graph,
    /// The restored decomposition, or the reason it must be recomputed.
    pub dec: Result<BcDecomposition, String>,
    /// How many journaled edge deltas the snapshotted graph already
    /// contains.
    pub delta_seq: u64,
    /// Cached responses persisted for cache pre-warming. Empty when the
    /// warm section was damaged.
    pub warm: Vec<WarmEntry>,
}

/// One cached `/rank` response persisted into a snapshot's warm section,
/// so a restarted node answers its hottest requests straight from the
/// page cache instead of recomputing. The fields mirror the service's
/// ranking-cache key; `measure` is the service's measure code (the
/// service owns that mapping) and `body` the exact JSON response bytes
/// served before the restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmEntry {
    /// Service measure code (0 = betweenness, 1 = k-path, 2 = harmonic).
    pub measure: u8,
    /// Target node set of the cached request.
    pub targets: Vec<u32>,
    /// Bit pattern of the request's `eps` (`f64::to_bits`).
    pub eps_bits: u64,
    /// Bit pattern of the request's `delta` (`f64::to_bits`).
    pub delta_bits: u64,
    /// Sampling seed of the cached request.
    pub seed: u64,
    /// `k` for k-path requests (0 otherwise).
    pub khops: u64,
    /// The exact response body previously served.
    pub body: String,
}

fn warm_to_bytes(entries: &[WarmEntry]) -> Vec<u8> {
    let mut out = Vec::new();
    wire::put_u32(&mut out, entries.len() as u32);
    for e in entries {
        wire::put_u8(&mut out, e.measure);
        wire::put_u64(&mut out, e.seed);
        wire::put_u64(&mut out, e.eps_bits);
        wire::put_u64(&mut out, e.delta_bits);
        wire::put_u64(&mut out, e.khops);
        wire::put_vec_u32(&mut out, &e.targets);
        wire::put_str(&mut out, &e.body);
    }
    out
}

fn warm_from_bytes(bytes: &[u8]) -> Result<Vec<WarmEntry>, String> {
    let mut r = Reader::new(bytes);
    let count = r.u32().map_err(|e| format!("warm count: {e}"))? as usize;
    if count > r.remaining() {
        // Every entry takes well over one byte; an impossible count means
        // damage — refuse before reserving a huge Vec.
        return Err(format!("warm count {count} exceeds the section size"));
    }
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let entry = (|| -> Result<WarmEntry, wire::WireError> {
            Ok(WarmEntry {
                measure: r.u8()?,
                seed: r.u64()?,
                eps_bits: r.u64()?,
                delta_bits: r.u64()?,
                khops: r.u64()?,
                targets: r.vec_u32()?,
                body: r.str_()?,
            })
        })()
        .map_err(|e| format!("warm entry {i}: {e}"))?;
        out.push(entry);
    }
    if !r.is_empty() {
        return Err(format!(
            "{} trailing bytes in the warm section",
            r.remaining()
        ));
    }
    Ok(out)
}

/// One section's location in the container: file offset, byte length,
/// and the CRC-32 of the section bytes.
#[derive(Debug, Clone, Copy)]
struct Extent {
    off: u64,
    len: u64,
    crc: u32,
}

impl Extent {
    fn end(&self) -> Option<u64> {
        self.off.checked_add(self.len)
    }
}

/// The decoded fixed header of a container.
#[derive(Debug)]
struct Header {
    delta_seq: u64,
    graph: Extent,
    warm: Extent,
    dec: Extent,
    name: String,
}

fn put_extent(out: &mut Vec<u8>, off: u64, payload: &[u8]) {
    wire::put_u64(out, off);
    wire::put_u64(out, payload.len() as u64);
    wire::put_u32(out, wire::crc32(payload));
    wire::put_u32(out, 0); // pad: keeps the following extent u64-aligned
}

fn read_extent(r: &mut Reader<'_>, what: &str) -> Result<Extent, PersistError> {
    let off = r
        .u64()
        .map_err(|e| PersistError::Format(format!("{what} extent offset: {e}")))?;
    let len = r
        .u64()
        .map_err(|e| PersistError::Format(format!("{what} extent length: {e}")))?;
    let crc = r
        .u32()
        .map_err(|e| PersistError::Format(format!("{what} extent checksum: {e}")))?;
    let _pad = r
        .u32()
        .map_err(|e| PersistError::Format(format!("{what} extent padding: {e}")))?;
    Ok(Extent { off, len, crc })
}

/// Parses and sanity-checks the fixed header: magic, version, then the
/// extents. The header carries no CRC of its own; the invariants checked
/// here (one-page size, contiguous extents in graph → warm → dec order)
/// are what stand between a bit-flipped header and an out-of-bounds slice
/// below.
fn parse_header(bytes: &[u8]) -> Result<Header, PersistError> {
    let mut r = Reader::new(bytes);
    let magic = r
        .bytes(SNAPSHOT_MAGIC.len())
        .map_err(|_| PersistError::Format("shorter than the magic header".into()))?;
    if magic != SNAPSHOT_MAGIC {
        return format_err("bad magic (not a saphyra snapshot)");
    }
    let version = r
        .u32()
        .map_err(|e| PersistError::Format(format!("container version: {e}")))?;
    if version != SNAPSHOT_VERSION {
        return format_err(format!(
            "container version {version} is not supported (this build reads only version \
             {SNAPSHOT_VERSION}); re-save it: re-POST the graph or run `snapshot save`"
        ));
    }
    if bytes.len() < GRAPH_SECTION_OFFSET {
        return format_err(format!(
            "header truncated: {} bytes, a container reserves {GRAPH_SECTION_OFFSET}",
            bytes.len()
        ));
    }
    let mut r = Reader::new(&bytes[SNAPSHOT_MAGIC.len() + 4..GRAPH_SECTION_OFFSET]);
    let _flags = r
        .u32()
        .map_err(|e| PersistError::Format(format!("header flags: {e}")))?;
    let delta_seq = r
        .u64()
        .map_err(|e| PersistError::Format(format!("header delta_seq: {e}")))?;
    let graph = read_extent(&mut r, "graph")?;
    let warm = read_extent(&mut r, "warm")?;
    let dec = read_extent(&mut r, "dec")?;
    let name = r
        .str_()
        .map_err(|e| PersistError::Format(format!("graph name: {e}")))?;
    if graph.off != GRAPH_SECTION_OFFSET as u64 {
        return format_err(format!(
            "graph section at offset {}, expected {GRAPH_SECTION_OFFSET}",
            graph.off
        ));
    }
    let graph_end = graph
        .end()
        .ok_or_else(|| PersistError::Format("graph extent overflows".into()))?;
    if warm.off != graph_end {
        return format_err(format!(
            "warm section at offset {}, expected {graph_end} (sections must be contiguous)",
            warm.off
        ));
    }
    let warm_end = warm
        .end()
        .ok_or_else(|| PersistError::Format("warm extent overflows".into()))?;
    if dec.off != warm_end {
        return format_err(format!(
            "dec section at offset {}, expected {warm_end} (sections must be contiguous)",
            dec.off
        ));
    }
    dec.end()
        .ok_or_else(|| PersistError::Format("dec extent overflows".into()))?;
    Ok(Header {
        delta_seq,
        graph,
        warm,
        dec,
        name,
    })
}

/// Slices one section out of a container and verifies its CRC.
fn read_section<'a>(bytes: &'a [u8], ext: &Extent, what: &str) -> Result<&'a [u8], String> {
    let end = ext
        .end()
        .ok_or_else(|| format!("{what} extent overflows"))?;
    if end > bytes.len() as u64 {
        return Err(format!(
            "{what} section truncated: extent ends at byte {end}, file holds {}",
            bytes.len()
        ));
    }
    let payload = &bytes[ext.off as usize..end as usize];
    let actual = wire::crc32(payload);
    if actual != ext.crc {
        return Err(format!(
            "{what} section checksum mismatch: stored {:#010x}, computed {actual:#010x}",
            ext.crc
        ));
    }
    Ok(payload)
}

/// Reads a graph section's `n` and `m` and checks that the arrays they
/// declare fill the section exactly.
fn read_graph_fields(sec: &[u8]) -> Result<(usize, usize), String> {
    let mut r = Reader::new(sec);
    let n = r.u64().map_err(|e| format!("graph node count: {e}"))?;
    let m = r.u64().map_err(|e| format!("graph edge count: {e}"))?;
    // Checked arithmetic: both counts are attacker-placeable. Each edge
    // takes two slots of a `u32` neighbor and a `u32` edge id.
    let want = n
        .checked_add(1)
        .and_then(|offsets| offsets.checked_mul(8))
        .and_then(|b| m.checked_mul(16)?.checked_add(b))
        .and_then(|b| b.checked_add(GRAPH_FIELDS_BYTES as u64));
    if want != Some(sec.len() as u64) {
        return Err(format!(
            "graph section holds {} bytes, which does not fit n = {n}, m = {m}",
            sec.len()
        ));
    }
    // Both fit in usize: the section they describe is in memory.
    Ok((n as usize, m as usize))
}

/// Serializes a graph into the graph-section layout: `n`, `m`, the `n + 1`
/// offsets, then the neighbor and edge-id slot arrays.
fn graph_section_to_bytes(graph: &Graph) -> Vec<u8> {
    let (offsets, neighbors, edge_ids) = graph.csr_arrays();
    let mut out = Vec::with_capacity(
        GRAPH_FIELDS_BYTES + 8 * offsets.len() + 4 * (neighbors.len() + edge_ids.len()),
    );
    wire::put_u64(&mut out, graph.num_nodes() as u64);
    wire::put_u64(&mut out, graph.num_edges() as u64);
    for &off in offsets {
        wire::put_u64(&mut out, off);
    }
    for &v in neighbors.iter().chain(edge_ids) {
        wire::put_u32(&mut out, v);
    }
    out
}

/// Decodes the graph of a CRC-checked section into owned CSR arrays,
/// with [`Graph::assemble`]'s full validation.
fn graph_from_section(sec: &[u8]) -> Result<Graph, String> {
    let (n, m) = read_graph_fields(sec)?;
    // `read_graph_fields` proved the three arrays fill the section exactly.
    let (offsets, slots) = sec[GRAPH_FIELDS_BYTES..].split_at(8 * (n + 1));
    let (neighbors, edge_ids) = slots.split_at(8 * m);
    let offsets = offsets
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunk")))
        .collect();
    let u32s = |bytes: &[u8]| {
        bytes
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte chunk")))
            .collect()
    };
    Graph::assemble(offsets, u32s(neighbors), u32s(edge_ids), m)
}

/// Serializes one registry entry to snapshot bytes (always the current
/// container version). `delta_seq` is the entry's journaled-delta count —
/// 0 for a fresh upload, `GraphEntry::delta_seq` when re-snapshotting a
/// patched graph. The cached `warm` responses ride along in the container
/// and pre-warm the ranking cache of the node that restores it (`&[]`
/// for none).
///
/// # Panics
/// If `name` does not satisfy [`valid_graph_name`] — every caller
/// validates names at the API boundary, and an oversized name would
/// overflow the fixed one-page header.
pub fn snapshot_to_bytes_with_warm(
    name: &str,
    graph: &Graph,
    dec: &BcDecomposition,
    delta_seq: u64,
    warm: &[WarmEntry],
) -> Vec<u8> {
    let graph_bytes = graph_section_to_bytes(graph);
    let warm_bytes = warm_to_bytes(warm);
    let mut dec_bytes = Vec::new();
    bc::write_decomposition(dec, &mut dec_bytes);

    let graph_off = GRAPH_SECTION_OFFSET as u64;
    let warm_off = graph_off + graph_bytes.len() as u64;
    let dec_off = warm_off + warm_bytes.len() as u64;

    let mut out = Vec::with_capacity(
        GRAPH_SECTION_OFFSET + graph_bytes.len() + warm_bytes.len() + dec_bytes.len(),
    );
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    wire::put_u32(&mut out, SNAPSHOT_VERSION);
    wire::put_u32(&mut out, 0); // flags, reserved
    wire::put_u64(&mut out, delta_seq);
    put_extent(&mut out, graph_off, &graph_bytes);
    put_extent(&mut out, warm_off, &warm_bytes);
    put_extent(&mut out, dec_off, &dec_bytes);
    wire::put_str(&mut out, name);
    assert!(
        out.len() <= GRAPH_SECTION_OFFSET,
        "graph name overflows the snapshot header"
    );
    out.resize(GRAPH_SECTION_OFFSET, 0);
    out.extend_from_slice(&graph_bytes);
    out.extend_from_slice(&warm_bytes);
    out.extend_from_slice(&dec_bytes);
    out
}

/// Decodes snapshot bytes into owned memory, validating magic, container
/// version and every section checksum. Graph-section damage is fatal,
/// warm-section damage degrades to an empty warm cache, and
/// decomposition-section damage degrades to `dec: Err(reason)`.
pub fn snapshot_from_bytes(bytes: &[u8]) -> Result<LoadedSnapshot, PersistError> {
    let h = parse_header(bytes)?;
    let graph_sec = read_section(bytes, &h.graph, "graph").map_err(PersistError::Format)?;
    // The dec section ends the container; a longer file is not this
    // snapshot (a concatenation, or junk appended past the CRCs' reach).
    let dec_end = h.dec.end().expect("checked in parse_header");
    if (bytes.len() as u64) > dec_end {
        return format_err(format!(
            "{} trailing bytes after the decomposition section",
            bytes.len() as u64 - dec_end
        ));
    }
    let graph = graph_from_section(graph_sec).map_err(PersistError::Format)?;
    let warm = decode_warm_section(bytes, &h.warm);
    let dec = decode_dec_section(bytes, &h.dec, &graph);
    Ok(LoadedSnapshot {
        name: h.name,
        graph,
        dec,
        delta_seq: h.delta_seq,
        warm,
    })
}

/// Decodes a warm section, degrading any damage (bad extent, bad CRC,
/// malformed entries) to an empty warm cache with a warning — warm data
/// is a performance hint, never worth failing a boot over.
fn decode_warm_section(bytes: &[u8], ext: &Extent) -> Vec<WarmEntry> {
    match read_section(bytes, ext, "warm").and_then(warm_from_bytes) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!(
                "warning: snapshot warm section damaged ({e}); continuing with an empty warm cache"
            );
            Vec::new()
        }
    }
}

/// Decodes a dec section against its graph; any failure degrades to
/// `Err(reason)` (the caller recomputes).
fn decode_dec_section(
    bytes: &[u8],
    ext: &Extent,
    graph: &Graph,
) -> Result<BcDecomposition, String> {
    let payload = read_section(bytes, ext, "decomposition")?;
    let mut dr = Reader::new(payload);
    match bc::read_decomposition(&mut dr, graph) {
        Err(e) => Err(e.to_string()),
        Ok(_) if !dr.is_empty() => Err("trailing bytes in decomposition section".into()),
        Ok(dec) => Ok(dec),
    }
}

/// Writes a snapshot to `path` atomically: dot-prefixed temp file in the
/// same directory, `fsync`, `rename`, `fsync` of the directory. Readers
/// (and crashes) see either the previous file or the complete new one.
/// The temp name is unique per process *and* per call — concurrent saves
/// of the same name must not interleave writes into one temp file, or
/// the winning `rename` could publish a torn mix of both.
pub fn save_snapshot(
    path: &Path,
    name: &str,
    graph: &Graph,
    dec: &BcDecomposition,
    delta_seq: u64,
) -> Result<(), PersistError> {
    save_snapshot_with_warm(path, name, graph, dec, delta_seq, &[])
}

/// [`save_snapshot`] with a warm-cache section (same atomic write path).
pub fn save_snapshot_with_warm(
    path: &Path,
    name: &str,
    graph: &Graph,
    dec: &BcDecomposition,
    delta_seq: u64,
    warm: &[WarmEntry],
) -> Result<(), PersistError> {
    let bytes = snapshot_to_bytes_with_warm(name, graph, dec, delta_seq, warm);
    write_snapshot_atomic(path, &bytes)
}

fn write_snapshot_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| PersistError::Format(format!("bad snapshot path {path:?}")))?;
    let tmp_name = format!(
        ".{file_name}.{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    );
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => PathBuf::from(&tmp_name),
    };
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e.into());
    }
    // Persist the rename itself (the new directory entry).
    if let Some(d) = dir {
        if let Ok(dirf) = File::open(d) {
            let _ = dirf.sync_all();
        }
    }
    Ok(())
}

/// The snapshot path for registry entry `name` inside `dir`.
pub fn snapshot_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.snap"))
}

/// Whether `name` can name a persisted graph: 1-64 chars of
/// `[A-Za-z0-9._-]`, no leading dot. The leading-dot rule is load-bearing
/// for persistence, not cosmetic: snapshots are stored as `<name>.snap`
/// and [`scan_snapshots`] skips dot-prefixed files (that namespace is
/// reserved for atomic-write temp files) — a ".g" graph would persist
/// "successfully" yet silently vanish on the next boot. Both the HTTP
/// `POST /graphs` path and the offline `snapshot save` CLI enforce this.
pub fn valid_graph_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// Loads and fully validates one snapshot file.
pub fn load_snapshot(path: &Path) -> Result<LoadedSnapshot, PersistError> {
    snapshot_from_bytes(&fs::read(path)?)
}

/// Per-section accounting of one snapshot container — what the
/// `snapshot verify` CLI reports. Produced by [`inspect_snapshot`] after
/// a full-validation load, so an `Ok` info implies a loadable snapshot
/// (possibly with a degraded dec/warm section).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Container version the file was written with (only
    /// [`SNAPSHOT_VERSION`] loads).
    pub version: u32,
    /// Registry name the snapshot was saved under.
    pub name: String,
    /// Journaled deltas already folded in.
    pub delta_seq: u64,
    /// Whole-file size in bytes.
    pub total_bytes: u64,
    /// Graph section payload bytes.
    pub graph_bytes: u64,
    /// Warm section payload bytes.
    pub warm_bytes: u64,
    /// Decomposition section payload bytes.
    pub dec_bytes: u64,
    /// Warm entries restored (0 when the section was damaged or absent).
    pub warm_entries: usize,
    /// Whether the decomposition section decoded (false = boot recomputes).
    pub dec_ok: bool,
}

/// Inspects a snapshot file: container version plus per-section byte
/// sizes, after a full-validation decode.
pub fn inspect_snapshot(path: &Path) -> Result<SnapshotInfo, PersistError> {
    inspect_snapshot_bytes(&fs::read(path)?)
}

/// [`inspect_snapshot`] over in-memory bytes.
pub fn inspect_snapshot_bytes(bytes: &[u8]) -> Result<SnapshotInfo, PersistError> {
    let snap = snapshot_from_bytes(bytes)?;
    let h = parse_header(bytes)?;
    Ok(SnapshotInfo {
        version: SNAPSHOT_VERSION,
        name: snap.name,
        delta_seq: snap.delta_seq,
        total_bytes: bytes.len() as u64,
        graph_bytes: h.graph.len,
        warm_bytes: h.warm.len,
        dec_bytes: h.dec.len,
        warm_entries: snap.warm.len(),
        dec_ok: snap.dec.is_ok(),
    })
}

/// All `*.snap` files in `dir`, name-sorted (deterministic boot order).
pub fn scan_snapshots(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.extension().and_then(|x| x.to_str()) == Some("snap")
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| !n.starts_with('.'))
        })
        .collect();
    paths.sort();
    Ok(paths)
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

/// The append-only request journal of a state directory. Lines are
/// buffered in memory per call and appended with a single `write`, so
/// concurrent workers never interleave partial lines.
///
/// With a rotation bound set ([`Journal::open_with_limit`]), an append
/// that would push the file past the bound first renames it to
/// [`rotated_journal_path`] — a single atomic `rename` replacing any
/// previous rotation — and continues in a fresh file. At most two
/// generations exist at any time, so the disk footprint is bounded by
/// roughly twice the limit. [`replay_journals`] replays rotated + current
/// in order.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    max_bytes: Option<u64>,
    file: Mutex<JournalFile>,
}

#[derive(Debug)]
struct JournalFile {
    file: File,
    len: u64,
}

impl Journal {
    /// Opens (creating if needed) the journal of `dir` for appending, with
    /// an optional rotation bound in bytes. A bound smaller than one line still works: every append
    /// rotates, keeping exactly the last line in the current file.
    pub fn open_with_limit(dir: &Path, max_bytes: Option<u64>) -> io::Result<Journal> {
        let path = dir.join(JOURNAL_FILE);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let len = file.metadata()?.len();
        Ok(Journal {
            path,
            max_bytes,
            file: Mutex::new(JournalFile { file, len }),
        })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record (a newline is added; `line` must not contain
    /// one — JSON strings escape `\n`, so serialized [`Json`] never does).
    /// Rotates first when the bound would be crossed.
    pub fn append(&self, line: &str) -> io::Result<()> {
        debug_assert!(!line.contains('\n'));
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        let mut inner = self.file.lock_ok();
        if let Some(max) = self.max_bytes {
            if inner.len > 0 && inner.len + buf.len() as u64 > max {
                // Rotate under the lock: the rename and the reopen are one
                // atomic step as far as other appenders are concerned. A
                // crash between them loses no data — the rotated file
                // holds everything written so far, and the next open
                // simply creates a fresh current file.
                fs::rename(&self.path, rotated_journal_path(&self.path))?;
                inner.file = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)?;
                inner.len = 0;
            }
        }
        inner.file.write_all(&buf)?;
        inner.len += buf.len() as u64;
        Ok(())
    }
}

/// Where [`Journal::append`] rotates a full journal to: `<journal>.1`
/// next to the current file.
pub fn rotated_journal_path(journal: &Path) -> PathBuf {
    let mut name = journal
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".1");
    journal.with_file_name(name)
}

/// Builds one journal line for a handled `/rank` request.
pub fn journal_line(ts: u64, status: u16, cache: Option<&str>, request: Option<Json>) -> String {
    Json::Obj(vec![
        ("ts".to_string(), Json::from(ts)),
        ("status".to_string(), Json::from(status as u64)),
        ("cache".to_string(), cache.map_or(Json::Null, Json::from)),
        ("request".to_string(), request.unwrap_or(Json::Null)),
    ])
    .to_string()
}

/// A journaled edge delta (`PATCH /graphs/<name>`), decoded from a
/// journal line of the form
/// `{"ts":…,"patch":{"graph":"g","seq":3,"insert":[[0,1]],"delete":[]}}`.
///
/// `seq` is the graph's delta sequence number *after* the patch was
/// applied — the first patch against a fresh upload journals `seq: 1`.
/// Boot replay applies a record only when `seq == entry.delta_seq + 1`,
/// so records already folded into a snapshot are skipped and a gap
/// (records rotated away) is detected instead of silently misapplied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchRecord {
    /// Registry name the delta targets.
    pub graph: String,
    /// Delta sequence number after this patch.
    pub seq: u64,
    /// Edges inserted.
    pub insert: Vec<(u32, u32)>,
    /// Edges deleted.
    pub delete: Vec<(u32, u32)>,
}

fn edges_json(edges: &[(u32, u32)]) -> Json {
    Json::Arr(
        edges
            .iter()
            .map(|&(u, v)| Json::Arr(vec![Json::from(u), Json::from(v)]))
            .collect(),
    )
}

fn edges_from_json(v: &Json) -> Option<Vec<(u32, u32)>> {
    v.as_arr()?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr()?;
            match pair {
                [u, v] => Some((u.as_u64()? as u32, v.as_u64()? as u32)),
                _ => None,
            }
        })
        .collect()
}

/// Builds one journal line for an applied `PATCH /graphs/<name>` delta.
pub fn patch_line(ts: u64, record: &PatchRecord) -> String {
    Json::Obj(vec![
        ("ts".to_string(), Json::from(ts)),
        (
            "patch".to_string(),
            Json::Obj(vec![
                ("graph".to_string(), Json::from(record.graph.as_str())),
                ("seq".to_string(), Json::from(record.seq)),
                ("insert".to_string(), edges_json(&record.insert)),
                ("delete".to_string(), edges_json(&record.delete)),
            ]),
        ),
    ])
    .to_string()
}

/// Decodes a parsed journal line into a [`PatchRecord`], or `None` when
/// the line is not a (well-formed) patch record.
pub fn parse_patch_record(record: &Json) -> Option<PatchRecord> {
    let patch = record.get("patch")?;
    Some(PatchRecord {
        graph: patch.get("graph")?.as_str()?.to_string(),
        seq: patch.get("seq")?.as_u64()?,
        insert: edges_from_json(patch.get("insert")?)?,
        delete: edges_from_json(patch.get("delete")?)?,
    })
}

/// Every patch record surviving in the journal history of `dir`, in
/// append order (rotated generation first, then current). Non-patch
/// lines (`/rank` records) and malformed lines are skipped.
pub fn read_patch_records(dir: &Path) -> io::Result<Vec<PatchRecord>> {
    let current = dir.join(JOURNAL_FILE);
    let rotated = rotated_journal_path(&current);
    let mut out = Vec::new();
    for path in [rotated, current] {
        if !path.exists() {
            continue;
        }
        let text = fs::read_to_string(&path)?;
        out.extend(
            text.lines()
                .filter_map(|l| Json::parse(l).ok())
                .filter_map(|v| parse_patch_record(&v)),
        );
    }
    Ok(out)
}

/// Outcome of a journal replay.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Journal lines seen.
    pub lines: usize,
    /// Requests re-issued.
    pub replayed: usize,
    /// Lines skipped (no recorded request body, e.g. rejected requests).
    pub skipped: usize,
    /// Replays whose status differed from the recorded one.
    pub status_mismatches: usize,
}

/// Replays the full journal history of a state directory: the rotated
/// generation (`journal.log.1`, if present) first, then the current
/// `journal.log` — i.e. every surviving record in the order it was
/// appended. Stats are summed across both files.
pub fn replay_journals(dir: &Path, service: &Service) -> io::Result<ReplayStats> {
    let current = dir.join(JOURNAL_FILE);
    let rotated = rotated_journal_path(&current);
    let mut stats = ReplayStats::default();
    for path in [rotated, current] {
        if !path.exists() {
            continue;
        }
        let s = replay_journal(&path, service)?;
        stats.lines += s.lines;
        stats.replayed += s.replayed;
        stats.skipped += s.skipped;
        stats.status_mismatches += s.status_mismatches;
    }
    Ok(stats)
}

/// Replays every recorded `/rank` request in the journal at `path`
/// against `service`, comparing response statuses with the recorded ones.
/// Lines without a `request` object (rejected/unparseable requests) are
/// skipped. The journal is read fully before the first replay, so it is
/// safe to replay a service that journals into the same file.
pub fn replay_journal(path: &Path, service: &Service) -> io::Result<ReplayStats> {
    let text = fs::read_to_string(path)?;
    let mut stats = ReplayStats::default();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        stats.lines += 1;
        let record = match Json::parse(line) {
            Ok(v) => v,
            Err(_) => {
                stats.skipped += 1;
                continue;
            }
        };
        let Some(request) = record.get("request").filter(|r| r.get("graph").is_some()) else {
            stats.skipped += 1;
            continue;
        };
        let req = Request {
            method: "POST".to_string(),
            path: "/rank".to_string(),
            headers: Vec::new(),
            body: request.to_string().into_bytes(),
        };
        let (resp, _) = service.handle(&req);
        stats.replayed += 1;
        let recorded = record.get("status").and_then(Json::as_u64);
        if recorded != Some(resp.status as u64) {
            stats.status_mismatches += 1;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use saphyra_graph::fixtures;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("saphyra_persist_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_bytes_round_trip() {
        let g = fixtures::grid_graph(4, 4);
        let dec = BcDecomposition::compute(&g);
        let bytes = snapshot_to_bytes_with_warm("grid", &g, &dec, 0, &[]);
        let snap = snapshot_from_bytes(&bytes).unwrap();
        assert_eq!(snap.name, "grid");
        // The decode restores every CSR slot: offsets, neighbors, edge ids.
        assert_eq!(snap.graph.csr_arrays(), g.csr_arrays());
        assert_eq!(snap.graph.num_edges(), g.num_edges());
        let dec2 = snap.dec.expect("decomposition restores");
        assert_eq!(dec.gamma.to_bits(), dec2.gamma.to_bits());
        assert_eq!(dec.bic.edge_bicomp, dec2.bic.edge_bicomp);
    }

    #[test]
    fn graph_section_corruption_is_fatal() {
        let g = fixtures::grid_graph(3, 3);
        let dec = BcDecomposition::compute(&g);
        let mut bytes = snapshot_to_bytes_with_warm("g", &g, &dec, 0, &[]);
        // Flip one payload byte inside the graph section (a few bytes
        // past the section's fixed field header).
        bytes[GRAPH_SECTION_OFFSET + GRAPH_FIELDS_BYTES + 3] ^= 0x40;
        let err = snapshot_from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // Bad magic and bad version are equally fatal.
        let g2 = snapshot_to_bytes_with_warm("g", &g, &dec, 0, &[]);
        let mut bad = g2.clone();
        bad[0] = b'X';
        assert!(snapshot_from_bytes(&bad).is_err());
        let mut bad = g2;
        bad[SNAPSHOT_MAGIC.len()] = 0xFF;
        assert!(snapshot_from_bytes(&bad)
            .unwrap_err()
            .to_string()
            .contains("version"));
    }

    #[test]
    fn truncated_sections_error_instead_of_panicking() {
        // A bare header stub (shorter than the reserved page) must yield
        // Err, never a panic — boots load attacker-placeable files.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        wire::put_u32(&mut bytes, SNAPSHOT_VERSION);
        wire::put_usize(&mut bytes, 0);
        let err = snapshot_from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // Every prefix of a valid snapshot that cuts the header, the
        // header padding or the graph section errors cleanly too.
        let g = fixtures::grid_graph(3, 3);
        let full = snapshot_to_bytes_with_warm("g", &g, &BcDecomposition::compute(&g), 0, &[]);
        let graph_end =
            GRAPH_SECTION_OFFSET + inspect_snapshot_bytes(&full).unwrap().graph_bytes as usize;
        for cut in (0..128).chain(GRAPH_SECTION_OFFSET - 2..graph_end) {
            assert!(
                snapshot_from_bytes(&full[..cut]).is_err(),
                "prefix of {cut} bytes parsed as a whole snapshot"
            );
        }
        // A cut inside the dec section degrades to a recompute instead:
        // the graph section is whole and still decodes.
        let snap = snapshot_from_bytes(&full[..full.len() - 10]).unwrap();
        assert!(snap.dec.is_err());
        assert_eq!(snap.graph.csr_arrays(), g.csr_arrays());
    }

    #[test]
    fn concurrent_saves_of_the_same_name_do_not_tear() {
        // Regression: a fixed temp-file name let two concurrent saves of
        // one graph interleave into the same temp file and publish a torn
        // snapshot. With unique temp names, whatever save wins the rename,
        // the published file is internally consistent.
        let dir = tmp_dir("race");
        let g = fixtures::grid_graph(4, 4);
        let dec = BcDecomposition::compute(&g);
        let path = snapshot_path(&dir, "g");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        save_snapshot(&path, "g", &g, &dec, 0).unwrap();
                    }
                });
            }
        });
        let snap = load_snapshot(&path).unwrap();
        assert_eq!(snap.name, "g");
        assert!(snap.dec.is_ok());
        // No temp litter survives the stampede.
        let litter: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(litter.is_empty(), "{litter:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dec_section_corruption_degrades_to_recompute() {
        let g = fixtures::grid_graph(3, 3);
        let dec = BcDecomposition::compute(&g);
        let mut bytes = snapshot_to_bytes_with_warm("g", &g, &dec, 0, &[]);
        // Flip the LAST payload byte — inside the decomposition section.
        let len = bytes.len();
        bytes[len - 5] ^= 0x01;
        let snap = snapshot_from_bytes(&bytes).unwrap();
        assert_eq!(snap.name, "g");
        assert_eq!(snap.graph.num_nodes(), 9);
        let reason = snap.dec.unwrap_err();
        assert!(reason.contains("checksum"), "{reason}");
        // Truncating the dec section entirely also degrades.
        let g2 = snapshot_to_bytes_with_warm("g", &g, &BcDecomposition::compute(&g), 0, &[]);
        let truncated = &g2[..g2.len() - 20];
        let snap = snapshot_from_bytes(truncated).unwrap();
        assert!(snap.dec.is_err());
    }

    #[test]
    fn save_is_atomic_and_scan_finds_it() {
        let dir = tmp_dir("atomic");
        let g = fixtures::grid_graph(3, 3);
        let dec = BcDecomposition::compute(&g);
        let path = snapshot_path(&dir, "grid");
        save_snapshot(&path, "grid", &g, &dec, 0).unwrap();
        // No temp file left behind; the scan sees exactly one snapshot.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp file leaked: {leftovers:?}");
        assert_eq!(scan_snapshots(&dir).unwrap(), vec![path.clone()]);
        // Overwriting in place is fine (same atomic path).
        save_snapshot(&path, "grid", &g, &dec, 0).unwrap();
        let snap = load_snapshot(&path).unwrap();
        assert_eq!(snap.name, "grid");
        // A stray dotfile or non-snap file is not scanned.
        fs::write(dir.join(".hidden.snap"), b"junk").unwrap();
        fs::write(dir.join("notes.txt"), b"junk").unwrap();
        assert_eq!(scan_snapshots(&dir).unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn trailing_garbage_after_a_valid_container_is_rejected() {
        let g = fixtures::grid_graph(3, 3);
        let dec = BcDecomposition::compute(&g);
        let mut bytes = snapshot_to_bytes_with_warm("g", &g, &dec, 0, &[]);
        // Pristine bytes parse; the same bytes plus appended junk do not.
        assert!(snapshot_from_bytes(&bytes).is_ok());
        bytes.extend_from_slice(b"junk");
        let err = snapshot_from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
        // Two concatenated snapshots are likewise not one snapshot.
        let mut twice = snapshot_to_bytes_with_warm("g", &g, &dec, 0, &[]);
        twice.extend_from_slice(&snapshot_to_bytes_with_warm("g", &g, &dec, 0, &[]));
        assert!(snapshot_from_bytes(&twice).is_err());
    }

    #[test]
    fn journal_rotates_at_the_byte_bound_and_keeps_two_generations() {
        let dir = tmp_dir("rotate");
        // Each line is ~40 bytes; bound at 100 → rotation every 2-3 lines.
        let j = Journal::open_with_limit(&dir, Some(100)).unwrap();
        let current = dir.join(JOURNAL_FILE);
        let rotated = rotated_journal_path(&current);
        for ts in 0..10u64 {
            j.append(&journal_line(ts, 200, Some("miss"), None))
                .unwrap();
        }
        // Both generations exist, neither exceeds the bound, and together
        // they hold a contiguous SUFFIX of the appended lines in order
        // (older lines age out two-generations deep — the bound is the
        // whole point).
        assert!(rotated.exists(), "no rotation happened");
        let cur_len = fs::metadata(&current).unwrap().len();
        let rot_len = fs::metadata(&rotated).unwrap().len();
        assert!(cur_len <= 100, "current grew past the bound: {cur_len}");
        assert!(rot_len <= 100, "rotated grew past the bound: {rot_len}");
        let mut all = fs::read_to_string(&rotated).unwrap();
        all.push_str(&fs::read_to_string(&current).unwrap());
        let ts_seen: Vec<u64> = all
            .lines()
            .map(|l| {
                Json::parse(l)
                    .unwrap()
                    .get("ts")
                    .and_then(Json::as_u64)
                    .unwrap()
            })
            .collect();
        let expect: Vec<u64> = (10 - ts_seen.len() as u64..10).collect();
        assert_eq!(ts_seen, expect, "surviving lines out of order or gapped");
        assert!(ts_seen.len() < 10, "nothing was ever dropped — bound dead?");

        // Reopen mid-history: the length bookkeeping restarts from the
        // on-disk size, so the next rotation still happens on time.
        drop(j);
        let j = Journal::open_with_limit(&dir, Some(100)).unwrap();
        for ts in 10..14u64 {
            j.append(&journal_line(ts, 200, Some("hit"), None)).unwrap();
        }
        assert!(fs::metadata(&current).unwrap().len() <= 100);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_append_and_replay_honor_a_tiny_bound() {
        // A bound smaller than one line: every append rotates; the system
        // degrades to "remember the last two lines", never an error.
        let dir = tmp_dir("tinybound");
        let j = Journal::open_with_limit(&dir, Some(1)).unwrap();
        for ts in 0..3u64 {
            j.append(&journal_line(ts, 200, None, None)).unwrap();
        }
        let current = fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
        let rotated = fs::read_to_string(rotated_journal_path(&dir.join(JOURNAL_FILE))).unwrap();
        assert_eq!(current.lines().count(), 1);
        assert_eq!(rotated.lines().count(), 1);
        assert!(current.contains("\"ts\":2"), "{current}");
        assert!(rotated.contains("\"ts\":1"), "{rotated}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_round_trips_delta_seq_and_reads_v1_as_zero() {
        let g = fixtures::grid_graph(3, 3);
        let dec = BcDecomposition::compute(&g);
        let snap =
            snapshot_from_bytes(&snapshot_to_bytes_with_warm("g", &g, &dec, 7, &[])).unwrap();
        assert_eq!(snap.delta_seq, 7);
        assert!(snap.dec.is_ok());
        // Version-1 files no longer load at all, so none can be read as a
        // delta_seq of 0 (see only_version_4_loads_...).
    }

    /// A valid container re-stamped with `version`; versions 1 and 2 also
    /// lose everything past their sequential-section prefix, as their
    /// files never reserved a header page.
    fn container_with_version(version: u32) -> Vec<u8> {
        let g = fixtures::grid_graph(3, 3);
        let mut bytes = snapshot_to_bytes_with_warm("g", &g, &BcDecomposition::compute(&g), 0, &[]);
        bytes[SNAPSHOT_MAGIC.len()..SNAPSHOT_MAGIC.len() + 4]
            .copy_from_slice(&version.to_le_bytes());
        if version < 3 {
            bytes.truncate(64);
        }
        bytes
    }

    #[test]
    fn only_version_4_loads_and_others_name_the_resave_remedy() {
        let dir = tmp_dir("versions");
        let path = snapshot_path(&dir, "g");
        fs::write(&path, container_with_version(SNAPSHOT_VERSION)).unwrap();
        assert!(load_snapshot(&path).is_ok());
        for version in [1u32, 2, 3, 5] {
            let bytes = container_with_version(version);
            fs::write(&path, &bytes).unwrap();
            let errors = [
                snapshot_from_bytes(&bytes).map(|_| ()),
                load_snapshot(&path).map(|_| ()),
                inspect_snapshot_bytes(&bytes).map(|_| ()),
            ];
            for err in errors {
                let err = err.expect_err("only version 4 may load").to_string();
                assert!(err.contains(&format!("version {version} ")), "{err}");
                assert!(
                    err.contains("re-POST the graph") && err.contains("snapshot save"),
                    "{err}"
                );
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Swaps the edge ids — and, with `neighbors`, the neighbors too — of
    /// node 0's first two CSR slots in a saved container, then re-stamps
    /// the graph CRC, so only the CSR validator stands between the file
    /// and the engine.
    fn tamper_node0_slots(bytes: &mut [u8], neighbors: bool) {
        let sec = GRAPH_SECTION_OFFSET;
        let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        let (n, m, first) = (field(sec), field(sec + 8), field(sec + GRAPH_FIELDS_BYTES));
        let len = field(32); // the graph extent's length
        let neighbors_at = sec + GRAPH_FIELDS_BYTES + 8 * (n + 1) + 4 * first;
        let mut swap = |at: usize| {
            let (a, b) = bytes[at..at + 8].split_at_mut(4);
            a.swap_with_slice(b);
        };
        if neighbors {
            swap(neighbors_at);
        }
        swap(neighbors_at + 8 * m);
        let crc = wire::crc32(&bytes[sec..sec + len]);
        bytes[40..44].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn both_loaders_reject_unsorted_and_one_sided_adjacency() {
        let dir = tmp_dir("tamper");
        let g = fixtures::grid_graph(5, 7);
        let pristine = snapshot_to_bytes_with_warm("g", &g, &BcDecomposition::compute(&g), 0, &[]);
        let path = snapshot_path(&dir, "g");
        for (neighbors, want) in [(true, "not strictly sorted"), (false, "inconsistent slots")] {
            let mut bytes = pristine.clone();
            tamper_node0_slots(&mut bytes, neighbors);
            fs::write(&path, &bytes).unwrap();
            for err in [
                load_snapshot(&path).unwrap_err(),
                snapshot_from_bytes(&bytes).unwrap_err(),
            ] {
                assert!(err.to_string().contains(want), "{err}");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    fn warm_fixture() -> Vec<WarmEntry> {
        vec![
            WarmEntry {
                measure: 0,
                targets: vec![1, 2, 3],
                eps_bits: 0.05f64.to_bits(),
                delta_bits: 0.1f64.to_bits(),
                seed: 42,
                khops: 0,
                body: r#"{"scores":[0.5,0.25]}"#.to_string(),
            },
            WarmEntry {
                measure: 1,
                targets: vec![7],
                eps_bits: 0.02f64.to_bits(),
                delta_bits: 0.1f64.to_bits(),
                seed: 7,
                khops: 4,
                body: r#"{"scores":[1.0]}"#.to_string(),
            },
        ]
    }

    #[test]
    fn warm_entries_round_trip_and_damage_degrades_to_empty() {
        let g = fixtures::grid_graph(4, 4);
        let dec = BcDecomposition::compute(&g);
        let warm = warm_fixture();
        let bytes = snapshot_to_bytes_with_warm("g", &g, &dec, 2, &warm);
        let snap = snapshot_from_bytes(&bytes).unwrap();
        assert_eq!(snap.warm, warm);
        assert_eq!(snap.delta_seq, 2);

        // Through a file too.
        let dir = tmp_dir("warm");
        let path = snapshot_path(&dir, "g");
        save_snapshot_with_warm(&path, "g", &g, &dec, 2, &warm).unwrap();
        let snap = load_snapshot(&path).unwrap();
        assert_eq!(snap.warm, warm);

        // Damage inside the warm section: the load still succeeds, the
        // graph and dec are intact, the warm cache is simply empty.
        let mut bad = fs::read(&path).unwrap();
        let info = inspect_snapshot_bytes(&bad).unwrap();
        assert!(info.warm_bytes > 4);
        let warm_off = GRAPH_SECTION_OFFSET + info.graph_bytes as usize;
        bad[warm_off + 5] ^= 0x10;
        let snap = snapshot_from_bytes(&bad).unwrap();
        assert!(snap.warm.is_empty());
        assert!(snap.dec.is_ok());
        assert_eq!(snap.graph.num_nodes(), 16);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn inspect_reports_version_and_section_sizes() {
        let g = fixtures::grid_graph(3, 3);
        let dec = BcDecomposition::compute(&g);
        let bytes = snapshot_to_bytes_with_warm("g", &g, &dec, 9, &warm_fixture());
        let info = inspect_snapshot_bytes(&bytes).unwrap();
        assert_eq!(info.version, SNAPSHOT_VERSION);
        assert_eq!(info.name, "g");
        assert_eq!(info.delta_seq, 9);
        assert_eq!(info.total_bytes, bytes.len() as u64);
        assert!(info.graph_bytes >= GRAPH_FIELDS_BYTES as u64);
        assert!(info.warm_bytes > 4, "{info:?}");
        assert!(info.dec_bytes > 0);
        assert_eq!(info.warm_entries, 2);
        assert!(info.dec_ok);
        assert_eq!(
            info.total_bytes,
            GRAPH_SECTION_OFFSET as u64 + info.graph_bytes + info.warm_bytes + info.dec_bytes
        );

        // Damage is a verdict, not a panic.
        let mut bad = snapshot_to_bytes_with_warm("g", &g, &dec, 0, &[]);
        bad[GRAPH_SECTION_OFFSET + 100] ^= 0xFF;
        assert!(inspect_snapshot_bytes(&bad).is_err());
    }

    #[test]
    fn patch_records_round_trip_through_the_journal() {
        let dir = tmp_dir("patchlog");
        let j = Journal::open_with_limit(&dir, None).unwrap();
        let rec = PatchRecord {
            graph: "g".to_string(),
            seq: 1,
            insert: vec![(0, 4), (2, 3)],
            delete: vec![(1, 2)],
        };
        // Interleave with rank lines: the scan must pick out only patches.
        j.append(&journal_line(10, 200, Some("miss"), None))
            .unwrap();
        j.append(&patch_line(11, &rec)).unwrap();
        let rec2 = PatchRecord {
            seq: 2,
            insert: vec![],
            delete: vec![(0, 4)],
            ..rec.clone()
        };
        j.append(&patch_line(12, &rec2)).unwrap();
        j.append("not json at all").unwrap();
        let records = read_patch_records(&dir).unwrap();
        assert_eq!(records, vec![rec, rec2]);
        // Malformed patch objects decode to None, not garbage.
        assert!(parse_patch_record(&Json::parse(r#"{"patch":{"graph":"g"}}"#).unwrap()).is_none());
        assert!(parse_patch_record(
            &Json::parse(r#"{"patch":{"graph":"g","seq":1,"insert":[[0]],"delete":[]}}"#).unwrap()
        )
        .is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn patch_records_survive_rotation_in_order() {
        let dir = tmp_dir("patchrot");
        let j = Journal::open_with_limit(&dir, Some(120)).unwrap();
        for seq in 1..=6u64 {
            let rec = PatchRecord {
                graph: "g".to_string(),
                seq,
                insert: vec![(0, seq as u32)],
                delete: vec![],
            };
            j.append(&patch_line(seq, &rec)).unwrap();
        }
        let records = read_patch_records(&dir).unwrap();
        assert!(!records.is_empty());
        // Whatever survived the bound is a contiguous in-order suffix.
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        let expect: Vec<u64> = (7 - seqs.len() as u64..=6).collect();
        assert_eq!(seqs, expect);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_appends_and_survives_reopen() {
        let dir = tmp_dir("journal");
        let j = Journal::open_with_limit(&dir, None).unwrap();
        j.append(&journal_line(1, 200, Some("miss"), None)).unwrap();
        drop(j);
        let j = Journal::open_with_limit(&dir, None).unwrap();
        j.append(&journal_line(2, 400, None, None)).unwrap();
        let text = fs::read_to_string(j.path()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"cache\":\"miss\""), "{}", lines[0]);
        assert!(lines[1].contains("\"status\":400"), "{}", lines[1]);
        let _ = fs::remove_dir_all(&dir);
    }
}
