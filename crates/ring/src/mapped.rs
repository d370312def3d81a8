//! The index file format `RRPQM01` — the one snapshot format.
//!
//! Layout: an 8-byte magic, a fixed table of contents, then one
//! 8-byte-aligned section per component of the index:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ "RRPQM01\0" │ version u64 │ n_sections u64                   │
//! │ TOC: (tag u64, offset u64, byte_len u64, crc32c u64) × 10    │
//! ├──────────────────────────────────────────────────────────────┤
//! │ 1 META    n, n_nodes, n_preds, n_preds_base, has_inverses,   │
//! │           epoch                                              │
//! │ 2 L_O     wavelet matrix (objects in (s,p) order)            │
//! │ 3 L_S     wavelet matrix (subjects in (p,o) order)           │
//! │ 4 L_P     wavelet matrix (predicates in (o,s) order)         │
//! │ 5 C_S     boundaries                                         │
//! │ 6 C_P     boundaries                                         │
//! │ 7 C_O     boundaries                                         │
//! │ 8 NODES   dictionary (blob + offsets + name-sorted ids)      │
//! │ 9 PREDS   dictionary                                         │
//! │ 10 DELTA  committed update overlay (empty when immutable)    │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Every array inside a section is stored byte-identical to its
//! in-memory form and 8-byte aligned relative to the file start, so
//! [`open_index`] can point the succinct structures straight into an
//! `mmap` of the file: cold open validates shapes and headers but never
//! copies or rebuilds the payload. The `DELTA` section holds the
//! [`DeltaIndex`] in its [`DeltaIndex::write_to`] encoding,
//! and `META` the snapshot epoch, so an updatable database persists
//! in this format too.
//!
//! Alignment is a **soundness** invariant, not a preference: a
//! misaligned `&[u64]` reinterpretation is undefined behavior, so the
//! reader rejects any table-of-contents offset off the 8-byte grid
//! unconditionally (see `toc_offsets_must_be_aligned` in the tests).
//!
//! ## Versions and checksums
//!
//! Version 3 (current) adds the epoch and the `DELTA` section; version 2
//! files (nine sections) open at epoch 0 with an empty delta. Both
//! store a CRC32C per section in the TOC, and [`write_snapshot`] writes
//! atomically (temp file + fsync + rename). Older files — checksum-less
//! version 1 and the retired stream formats `RRPQDB01/02` and
//! `RRPQDU01/02` — fail with a typed
//! [`RetiredFormat`](crate::durable::DurabilityError::RetiredFormat)
//! error. To preserve the O(header) zero-copy cold open — the whole
//! point of this format — an `mmap` open validates structure only;
//! checksums are verified on heap opens (which touch every byte
//! anyway), by [`open_index_verified`], when `RPQ_VERIFY_ON_OPEN=1`, and
//! by [`verify_index_checksums`] (the `verify` CLI subcommand).

use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

use succinct::mapped::{
    err_data, host_supported, read_elias_fano, read_rank_select, read_wavelet_matrix,
    write_elias_fano, write_rank_select, write_wavelet_matrix, MapReader, SectionWriter, MAX_LEN,
};
use succinct::{MappedFile, ResidentMode};

use crate::{Boundaries, DeltaIndex, Dict, Id, Ring};

/// Magic bytes opening a mappable index file.
pub const MAPPED_MAGIC: [u8; 8] = *b"RRPQM01\0";
/// Current version of the format (3 = epoch in `META` plus the `DELTA`
/// section; 2 = nine sections, still readable).
pub const MAPPED_VERSION: u64 = 3;

const TAG_META: u64 = 1;
const TAG_L_O: u64 = 2;
const TAG_L_S: u64 = 3;
const TAG_L_P: u64 = 4;
const TAG_C_S: u64 = 5;
const TAG_C_P: u64 = 6;
const TAG_C_O: u64 = 7;
const TAG_NODES: u64 = 8;
const TAG_PREDS: u64 = 9;
const TAG_DELTA: u64 = 10;
const N_SECTIONS: usize = 10;
/// Sections of a version 2 file (no `DELTA`).
const N_SECTIONS_V2: usize = 9;
/// Bytes per TOC entry: tag, offset, length, CRC32C.
const TOC_ENTRY_LEN: usize = 32;

/// Header bytes before the first section: magic + version + count +
/// the table of contents. 344 bytes — itself a multiple of 8, so the
/// first section starts aligned.
pub const HEADER_LEN: usize = 8 + 8 + 8 + N_SECTIONS * TOC_ENTRY_LEN;

/// Human names per section, indexed `tag - 1` (error messages, verify
/// reports).
pub const SECTION_NAMES: [&str; N_SECTIONS] = [
    "META", "L_O", "L_S", "L_P", "C_S", "C_P", "C_O", "NODES", "PREDS", "DELTA",
];

/// Magics of the retired stream formats, which open with a typed
/// "rebuild" error instead of a bare "bad magic".
const RETIRED_MAGICS: [&[u8; 8]; 4] = [b"RRPQDB01", b"RRPQDB02", b"RRPQDU01", b"RRPQDU02"];

/// How [`open_index`] should back the loaded structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OpenMode {
    /// `mmap` where the platform supports it, aligned heap read
    /// otherwise.
    #[default]
    Auto,
    /// Require a real `mmap`; error where unavailable.
    Mmap,
    /// Force the aligned heap read (for differential testing and for
    /// hosts whose page cache should not hold the index).
    Heap,
}

/// A snapshot opened from a `RRPQM01` file, plus how it is resident.
#[derive(Debug)]
pub struct MappedIndex {
    /// The ring, its arrays borrowing the opened file.
    pub ring: Ring,
    /// Node dictionary (mapped form).
    pub nodes: Dict,
    /// Predicate dictionary (mapped form).
    pub preds: Dict,
    /// The committed update overlay (empty for an immutable database).
    pub delta: DeltaIndex,
    /// The snapshot epoch (0 for an immutable database).
    pub epoch: u64,
    /// Whether the bytes live in a kernel mapping or on the heap.
    pub resident: ResidentMode,
    /// Bytes held by the kernel mapping (0 in heap mode).
    pub mapped_bytes: u64,
}

fn section(
    f: impl FnOnce(&mut SectionWriter<&mut Vec<u8>>) -> io::Result<()>,
) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    let mut w = SectionWriter::new(&mut buf);
    f(&mut w)?;
    w.pad()?;
    Ok(buf)
}

fn write_boundaries<W: Write>(w: &mut SectionWriter<W>, b: &Boundaries) -> io::Result<()> {
    match b {
        Boundaries::Dense(v) => {
            w.u64(0)?;
            w.u64(v.len() as u64)?;
            w.u64s(v)
        }
        Boundaries::Sparse { bits, universe, n } => {
            w.u64(1)?;
            w.u64(*universe)?;
            w.u64(*n as u64)?;
            write_rank_select(w, bits)
        }
        Boundaries::EliasFano(ef) => {
            w.u64(2)?;
            write_elias_fano(w, ef)
        }
    }
}

fn read_boundaries(r: &mut MapReader) -> io::Result<Boundaries> {
    match r.u64()? {
        0 => {
            let n = r.len_u64(MAX_LEN)?;
            let v = r.slab_u64(n)?;
            if v.is_empty() {
                return Err(err_data("empty dense boundaries"));
            }
            if v[0] != 0 {
                return Err(err_data("boundaries must start at 0"));
            }
            if v.windows(2).any(|w| w[0] > w[1]) {
                return Err(err_data("boundary counts must be monotone"));
            }
            Ok(Boundaries::Dense(v))
        }
        1 => {
            let universe = r.u64()?;
            let n = r.len_u64(MAX_LEN)?;
            let bits = read_rank_select(r)?;
            if bits.len() as u64 != universe + n as u64 {
                return Err(err_data("sparse boundary length mismatch"));
            }
            if bits.count_ones() as u64 != universe {
                return Err(err_data("sparse boundary ones-count mismatch"));
            }
            Ok(Boundaries::Sparse { bits, universe, n })
        }
        2 => {
            let ef = read_elias_fano(r)?;
            if ef.is_empty() {
                return Err(err_data("empty elias-fano boundaries"));
            }
            if ef.get(0) != 0 {
                return Err(err_data("boundaries must start at 0"));
            }
            Ok(Boundaries::EliasFano(ef))
        }
        t => Err(err_data(format!("unknown boundaries tag {t}"))),
    }
}

fn write_dict<W: Write>(w: &mut SectionWriter<W>, d: &Dict) -> io::Result<()> {
    let (blob, offsets, order) = d.to_mapped_parts();
    w.u64(order.len() as u64)?;
    w.u64(blob.len() as u64)?;
    w.u64s(&offsets)?;
    w.u64s(&order)?;
    w.bytes(&blob)?;
    w.pad()
}

fn read_dict(r: &mut MapReader) -> io::Result<Dict> {
    let n = r.len_u64(MAX_LEN)?;
    let blob_len = r.len_u64(MAX_LEN)?;
    let offsets = r.slab_u64(n + 1)?;
    let order = r.slab_u64(n)?;
    let blob = r.slab_u8(blob_len)?;
    Dict::from_mapped_parts(blob, offsets, order).map_err(err_data)
}

/// Writes an immutable database — `ring` plus its dictionaries, an
/// empty delta, epoch 0 — as a `RRPQM01` file; see [`write_snapshot`].
pub fn write_index(path: &Path, ring: &Ring, nodes: &Dict, preds: &Dict) -> io::Result<u64> {
    let delta = DeltaIndex::empty(ring.n_preds_base());
    write_snapshot(path, ring, nodes, preds, &delta, 0)
}

/// Writes a snapshot — `ring`, its dictionaries, the committed `delta`
/// over it and the snapshot `epoch` — as a `RRPQM01` file (version 3:
/// per-section CRC32C in the TOC), atomically: the bytes go to a
/// same-directory temp file that is fsync'd and renamed over `path`, so
/// a crash mid-save preserves the previous index, and an engine still
/// reading a mapping of the previous file keeps its bytes. Returns the
/// total bytes written.
pub fn write_snapshot(
    path: &Path,
    ring: &Ring,
    nodes: &Dict,
    preds: &Dict,
    delta: &DeltaIndex,
    epoch: u64,
) -> io::Result<u64> {
    let sections: Vec<(u64, Vec<u8>)> = vec![
        (
            TAG_META,
            section(|w| {
                w.u64(ring.n_triples() as u64)?;
                w.u64(ring.n_nodes())?;
                w.u64(ring.n_preds())?;
                w.u64(ring.n_preds_base())?;
                w.u64(ring.has_inverses() as u64)?;
                w.u64(epoch)
            })?,
        ),
        (TAG_L_O, section(|w| write_wavelet_matrix(w, ring.l_o()))?),
        (TAG_L_S, section(|w| write_wavelet_matrix(w, ring.l_s()))?),
        (TAG_L_P, section(|w| write_wavelet_matrix(w, ring.l_p()))?),
        (TAG_C_S, section(|w| write_boundaries(w, ring.c_s_ref()))?),
        (TAG_C_P, section(|w| write_boundaries(w, ring.c_p_ref()))?),
        (TAG_C_O, section(|w| write_boundaries(w, ring.c_o_ref()))?),
        (TAG_NODES, section(|w| write_dict(w, nodes))?),
        (TAG_PREDS, section(|w| write_dict(w, preds))?),
        (
            TAG_DELTA,
            section(|w| {
                let mut encoded = Vec::new();
                delta.write_to(&mut encoded)?;
                w.u64(encoded.len() as u64)?;
                w.bytes(&encoded)
            })?,
        ),
    ];
    crate::durable::atomic_write(path, |out| {
        out.write_all(&MAPPED_MAGIC)?;
        out.write_all(&MAPPED_VERSION.to_le_bytes())?;
        out.write_all(&(N_SECTIONS as u64).to_le_bytes())?;
        let mut off = HEADER_LEN as u64;
        for (tag, buf) in &sections {
            debug_assert!(
                off.is_multiple_of(8),
                "section offsets must stay 8-byte aligned"
            );
            out.write_all(&tag.to_le_bytes())?;
            out.write_all(&off.to_le_bytes())?;
            out.write_all(&(buf.len() as u64).to_le_bytes())?;
            out.write_all(&(succinct::checksum::crc32c(buf) as u64).to_le_bytes())?;
            off += buf.len() as u64;
        }
        for (_, buf) in &sections {
            out.write_all(buf)?;
        }
        Ok(())
    })
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// A parsed and structurally validated table of contents.
struct Toc {
    /// On-disk format version (2 or 3).
    version: u64,
    /// `(offset, byte_len)` per section, indexed `tag - 1` (nine
    /// entries in a version 2 file).
    sections: Vec<(usize, usize)>,
    /// Per-section CRC32C from the TOC, indexed like `sections`.
    crcs: Vec<u32>,
}

/// Parses and validates the header (the TOC must list the known tags
/// in order). Every offset is checked to be 8-byte aligned — the
/// soundness invariant behind the zero-copy `&[u64]` views — and in
/// bounds. Retired formats fail with the typed `RetiredFormat` error.
fn read_toc(map: &MappedFile) -> io::Result<Toc> {
    let bytes = map.as_bytes();
    if let Some(magic) = RETIRED_MAGICS.iter().find(|m| bytes.starts_with(&m[..])) {
        return Err(crate::durable::retired_format_error(
            String::from_utf8_lossy(&magic[..]),
        ));
    }
    if bytes.len() < 24 {
        return Err(err_data("file too short for a mapped index header"));
    }
    if bytes[..8] != MAPPED_MAGIC {
        return Err(err_data("bad magic: not a RRPQM01 index"));
    }
    let version = u64_at(bytes, 8);
    let n_sections = match version {
        1 => return Err(crate::durable::retired_format_error("RRPQM01 version 1")),
        2 => N_SECTIONS_V2,
        3 => N_SECTIONS,
        v => {
            return Err(err_data(format!(
                "unsupported mapped format version {v} (supported: 2, {MAPPED_VERSION})"
            )))
        }
    };
    let header_len = 24 + n_sections * TOC_ENTRY_LEN;
    if bytes.len() < header_len {
        return Err(err_data("file too short for a mapped index header"));
    }
    if u64_at(bytes, 16) != n_sections as u64 {
        return Err(err_data("unexpected section count"));
    }
    let mut sections = Vec::with_capacity(n_sections);
    let mut crcs = Vec::with_capacity(n_sections);
    for i in 0..n_sections {
        let at = 24 + i * TOC_ENTRY_LEN;
        let tag = u64_at(bytes, at);
        let off = u64_at(bytes, at + 8);
        let len = u64_at(bytes, at + 16);
        let crc = u64_at(bytes, at + 24);
        if tag != (i as u64) + 1 {
            return Err(err_data(format!("unexpected section tag {tag}")));
        }
        if !off.is_multiple_of(8) {
            return Err(err_data(format!(
                "section {tag} offset {off} is not 8-byte aligned"
            )));
        }
        if (off as usize) < header_len
            || off.checked_add(len).is_none_or(|e| e > bytes.len() as u64)
        {
            return Err(err_data(format!("section {tag} extends past end of file")));
        }
        if crc > u32::MAX as u64 {
            return Err(err_data(format!("section {tag} checksum out of range")));
        }
        sections.push((off as usize, len as usize));
        crcs.push(crc as u32);
    }
    Ok(Toc {
        version,
        sections,
        crcs,
    })
}

/// Checks every section's bytes against the CRC32C recorded in the TOC.
/// Returns the typed
/// [`ChecksumMismatch`](crate::durable::DurabilityError::ChecksumMismatch)
/// error on the first disagreement.
fn check_section_crcs(map: &MappedFile, toc: &Toc) -> io::Result<()> {
    let bytes = map.as_bytes();
    for (i, &(off, len)) in toc.sections.iter().enumerate() {
        let actual = succinct::checksum::crc32c(&bytes[off..off + len]);
        if actual != toc.crcs[i] {
            return Err(crate::durable::checksum_error(
                format!("mapped index section {}", SECTION_NAMES[i]),
                toc.crcs[i],
                actual,
            ));
        }
    }
    Ok(())
}

/// Deep-checks the section checksums of the `RRPQM01` file at `path`
/// against its TOC (every byte is read). Returns the number of sections
/// verified: 10 for a version 3 file, 9 for version 2. Structural and
/// cross-component validation is [`open_index`]'s job; the `verify` CLI
/// subcommand runs both.
pub fn verify_index_checksums(path: &Path) -> io::Result<usize> {
    let map = MappedFile::open_heap(path)?;
    let toc = read_toc(&map)?;
    check_section_crcs(&map, &toc)?;
    Ok(toc.sections.len())
}

/// Opens a `RRPQM01` file, pointing the index structures into the file
/// in place. Cold-open cost is header parsing plus shape validation —
/// the succinct payloads are neither copied nor rebuilt (the dictionary
/// and delta sections are scanned once for validation).
pub fn open_index(path: &Path, mode: OpenMode) -> io::Result<MappedIndex> {
    let verify = std::env::var("RPQ_VERIFY_ON_OPEN").is_ok_and(|v| v != "0" && !v.is_empty());
    open_with_policy(path, mode, verify)
}

/// [`open_index`] that verifies every section checksum whatever the
/// residency, before any structural check — for the updatable store,
/// whose checkpoints re-serialize the (possibly mapped) ring under fresh
/// CRCs: corruption has to be caught before it is copied.
pub fn open_index_verified(path: &Path, mode: OpenMode) -> io::Result<MappedIndex> {
    open_with_policy(path, mode, true)
}

fn open_with_policy(path: &Path, mode: OpenMode, verify: bool) -> io::Result<MappedIndex> {
    if !host_supported() {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "mapped index format requires a little-endian host",
        ));
    }
    let map = match mode {
        OpenMode::Auto => MappedFile::open(path)?,
        OpenMode::Heap => MappedFile::open_heap(path)?,
        OpenMode::Mmap => {
            let m = MappedFile::open(path)?;
            if m.mode() != ResidentMode::Mmap {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "mmap is unavailable on this platform",
                ));
            }
            m
        }
    };
    let toc = read_toc(&map)?;
    // Checksum policy: heap opens touch every byte anyway, so verifying
    // is nearly free; mmap opens stay O(header) to preserve the
    // zero-copy cold-open contract unless asked.
    if verify || map.mode() == ResidentMode::Heap {
        check_section_crcs(&map, &toc)?;
    }
    let version = toc.version;
    let toc = toc.sections;
    let reader = |i: usize| MapReader::new(Arc::clone(&map), toc[i].0, toc[i].1);

    let mut meta = reader(0)?;
    let n = meta.len_u64(MAX_LEN)?;
    let n_nodes: Id = meta.u64()?;
    let n_preds: Id = meta.u64()?;
    let n_preds_base: Id = meta.u64()?;
    let has_inverses = match meta.u64()? {
        0 => false,
        1 => true,
        _ => return Err(err_data("invalid has_inverses flag")),
    };
    let epoch = if version >= 3 { meta.u64()? } else { 0 };
    meta.finish()?;
    if n_nodes > MAX_LEN || n_preds > MAX_LEN || n_preds_base > MAX_LEN {
        return Err(err_data("alphabet size out of range"));
    }
    let expected_preds = if n == 0 {
        (2 * n_preds_base).max(1)
    } else {
        2 * n_preds_base
    };
    if has_inverses && n_preds != expected_preds {
        return Err(err_data("inverse alphabet size mismatch"));
    }

    let mut sec = reader(1)?;
    let l_o = read_wavelet_matrix(&mut sec)?;
    sec.finish()?;
    let mut sec = reader(2)?;
    let l_s = read_wavelet_matrix(&mut sec)?;
    sec.finish()?;
    let mut sec = reader(3)?;
    let l_p = read_wavelet_matrix(&mut sec)?;
    sec.finish()?;
    let mut sec = reader(4)?;
    let c_s = read_boundaries(&mut sec)?;
    sec.finish()?;
    let mut sec = reader(5)?;
    let c_p = read_boundaries(&mut sec)?;
    sec.finish()?;
    let mut sec = reader(6)?;
    let c_o = read_boundaries(&mut sec)?;
    sec.finish()?;
    let mut sec = reader(7)?;
    let nodes = read_dict(&mut sec)?;
    sec.finish()?;
    let mut sec = reader(8)?;
    let preds = read_dict(&mut sec)?;
    sec.finish()?;
    let delta = if version >= 3 {
        let mut sec = reader(9)?;
        let len = sec.len_u64(MAX_LEN)?;
        let encoded = sec.slab_u8(len)?;
        sec.finish()?;
        let mut rest: &[u8] = &encoded;
        let delta = DeltaIndex::read_from(&mut rest)?;
        if !rest.is_empty() {
            return Err(err_data("delta section has trailing bytes"));
        }
        delta
    } else {
        DeltaIndex::empty(n_preds_base)
    };

    // Cross-component consistency, so a structurally valid but
    // inconsistent file cannot produce out-of-range ids at query time.
    for (name, wm) in [("L_o", &l_o), ("L_s", &l_s), ("L_p", &l_p)] {
        if wm.len() != n {
            return Err(err_data(format!("{name} length mismatch")));
        }
    }
    if l_o.sigma() != n_nodes.max(1)
        || l_s.sigma() != n_nodes.max(1)
        || l_p.sigma() != n_preds.max(1)
    {
        return Err(err_data("column alphabet mismatch"));
    }
    for (name, b, uni) in [
        ("C_s", &c_s, n_nodes),
        ("C_p", &c_p, n_preds),
        ("C_o", &c_o, n_nodes),
    ] {
        if b.universe() != uni {
            return Err(err_data(format!("{name} universe mismatch")));
        }
        if b.get(uni) != n {
            return Err(err_data(format!("{name} total mismatch")));
        }
    }
    if delta.n_preds_base() != n_preds_base {
        return Err(err_data("delta alphabet does not match the ring"));
    }
    // Append-only interning lets an updatable database's dictionaries
    // outgrow its committed triples, so they must cover the universes of
    // ring ⊎ delta, not match them. `Ring::build` clamps the node
    // universe to >= 1 even for an empty graph, so an empty ring
    // legitimately pairs n_nodes == 1 with an empty dictionary.
    let ring_nodes = if n == 0 && nodes.is_empty() {
        0
    } else {
        n_nodes
    };
    if (nodes.len() as Id) < ring_nodes.max(delta.n_nodes()) {
        return Err(err_data("node dictionary smaller than the node universe"));
    }
    if (preds.len() as Id) < n_preds_base {
        return Err(err_data(
            "predicate dictionary smaller than the predicate universe",
        ));
    }

    let resident = map.mode();
    let mapped_bytes = match resident {
        ResidentMode::Mmap => map.len() as u64,
        ResidentMode::Heap => 0,
    };
    Ok(MappedIndex {
        ring: Ring::from_raw_parts(
            l_o,
            l_s,
            l_p,
            c_s,
            c_p,
            c_o,
            n,
            n_nodes,
            n_preds,
            n_preds_base,
            has_inverses,
        ),
        nodes,
        preds,
        delta,
        epoch,
        resident,
        mapped_bytes,
    })
}
