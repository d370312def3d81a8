//! The mutable overlay on top of the immutable ring: a committed,
//! immutable batch of **added** triples and **tombstoned** (deleted)
//! triples, kept in the same three circular sort orders the ring itself
//! uses (`spo`, `pos`, `osp`) so every backward-search-shaped lookup the
//! RPQ engine performs has a cheap, binary-searchable delta counterpart.
//!
//! A [`DeltaIndex`] stores *canonical* triples only (predicate ids below
//! the base alphabet, no inverse completion); every accessor takes
//! labels from the **completed** alphabet `Σ↔` and canonicalizes
//! internally (`(s, p̂, o)` is the edge `(o, p, s)`), exactly mirroring
//! how [`crate::Ring`] indexes the completed graph.
//!
//! Invariants (maintained by [`crate::store::TripleStore`], not enforced
//! here beyond debug assertions): adds and deletes are disjoint, deletes
//! refer to triples present in the base ring, and adds to triples absent
//! from it.

use std::io::{self, Read, Write};

use succinct::mapped::{err_data, MAX_LEN};

use crate::{Id, Triple};

/// Magic tag opening the serialized delta.
const MAGIC: [u8; 4] = *b"RDl1";
/// Codec version written after the magic tag.
const VERSION: u32 = 1;

/// An immutable, committed delta: sorted adds plus tombstoned deletes in
/// the three ring orders. See the module docs for the label-space
/// convention.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaIndex {
    /// Added triples, `(s, p, o)` order — the authoritative copy.
    adds_spo: Vec<Triple>,
    /// Added triples, `(p, o, s)` order (the `L_s` order: backward steps
    /// by predicate land here).
    adds_pos: Vec<Triple>,
    /// Added triples, `(o, s, p)` order (the `L_p` order: per-object
    /// incidence).
    adds_osp: Vec<Triple>,
    /// Deleted triples, `(s, p, o)` order.
    dels_spo: Vec<Triple>,
    /// Deleted triples, `(p, o, s)` order.
    dels_pos: Vec<Triple>,
    /// Deleted triples, `(o, s, p)` order.
    dels_osp: Vec<Triple>,
    /// Base (pre-completion) predicate alphabet size; canonical triples
    /// satisfy `p < n_preds_base`.
    n_preds_base: Id,
    /// One past the largest node id mentioned by the delta (0 if empty).
    n_nodes: Id,
}

/// Sorts a triple list by the given key and deduplicates it.
fn order_by(mut v: Vec<Triple>, key: fn(&Triple) -> (Id, Id, Id)) -> Vec<Triple> {
    v.sort_unstable_by_key(key);
    v.dedup();
    v
}

/// The contiguous block of `v` (sorted by `key`) whose key starts with
/// `(a, b)`.
fn block2(v: &[Triple], key: fn(&Triple) -> (Id, Id, Id), a: Id, b: Id) -> &[Triple] {
    let lo = v.partition_point(|t| key(t) < (a, b, 0));
    let hi = v[lo..].partition_point(|t| {
        let k = key(t);
        (k.0, k.1) <= (a, b)
    }) + lo;
    &v[lo..hi]
}

/// The contiguous block of `v` (sorted by `key`) whose key starts with `a`.
fn block1(v: &[Triple], key: fn(&Triple) -> (Id, Id, Id), a: Id) -> &[Triple] {
    let lo = v.partition_point(|t| key(t).0 < a);
    let hi = v[lo..].partition_point(|t| key(t).0 <= a) + lo;
    &v[lo..hi]
}

impl DeltaIndex {
    /// An empty delta over the given base alphabet.
    pub fn empty(n_preds_base: Id) -> Self {
        Self {
            n_preds_base,
            ..Self::default()
        }
    }

    /// Builds a delta from canonical add/delete triple lists (sorted and
    /// deduplicated here; every predicate must be `< n_preds_base`).
    ///
    /// # Panics
    /// Panics if a triple mentions a predicate at or beyond the base
    /// alphabet — deltas never extend the ring's label space (a commit
    /// introducing new predicates rebuilds the ring instead).
    pub fn new(adds: Vec<Triple>, dels: Vec<Triple>, n_preds_base: Id) -> Self {
        for t in adds.iter().chain(dels.iter()) {
            assert!(
                t.p < n_preds_base,
                "delta triple {t} outside the base alphabet ({n_preds_base})"
            );
        }
        let n_nodes = adds
            .iter()
            .chain(dels.iter())
            .map(|t| t.s.max(t.o) + 1)
            .max()
            .unwrap_or(0);
        Self {
            adds_pos: order_by(adds.clone(), Triple::pos_key),
            adds_osp: order_by(adds.clone(), Triple::osp_key),
            adds_spo: order_by(adds, Triple::spo_key),
            dels_pos: order_by(dels.clone(), Triple::pos_key),
            dels_osp: order_by(dels.clone(), Triple::osp_key),
            dels_spo: order_by(dels, Triple::spo_key),
            n_preds_base,
            n_nodes,
        }
    }

    /// Whether the delta holds no adds and no deletes.
    pub fn is_empty(&self) -> bool {
        self.adds_spo.is_empty() && self.dels_spo.is_empty()
    }

    /// Number of added triples.
    pub fn n_adds(&self) -> usize {
        self.adds_spo.len()
    }

    /// Number of tombstoned triples.
    pub fn n_dels(&self) -> usize {
        self.dels_spo.len()
    }

    /// Total overlay size (adds + deletes) — the quantity the size-ratio
    /// compaction trigger compares against the base.
    pub fn len(&self) -> usize {
        self.n_adds() + self.n_dels()
    }

    /// Base (pre-completion) predicate alphabet size.
    pub fn n_preds_base(&self) -> Id {
        self.n_preds_base
    }

    /// One past the largest node id the delta mentions (0 when empty).
    /// Adds may introduce nodes beyond the ring's universe; the merged
    /// evaluation universe is the max of both.
    pub fn n_nodes(&self) -> Id {
        self.n_nodes
    }

    /// The added triples in `(s, p, o)` order (canonical labels).
    pub fn adds(&self) -> &[Triple] {
        &self.adds_spo
    }

    /// The tombstoned triples in `(s, p, o)` order (canonical labels).
    pub fn dels(&self) -> &[Triple] {
        &self.dels_spo
    }

    /// Canonicalizes a completed-alphabet edge: `(s, p̂, o)` is stored as
    /// `(o, p, s)`.
    #[inline]
    fn canon(&self, s: Id, p: Id, o: Id) -> Triple {
        if p < self.n_preds_base {
            Triple::new(s, p, o)
        } else {
            Triple::new(o, p - self.n_preds_base, s)
        }
    }

    /// Whether the completed-alphabet edge `(s, p, o)` was added.
    pub fn add_contains(&self, s: Id, p: Id, o: Id) -> bool {
        self.adds_spo.binary_search(&self.canon(s, p, o)).is_ok()
    }

    /// Whether the completed-alphabet edge `(s, p, o)` is tombstoned.
    pub fn del_contains(&self, s: Id, p: Id, o: Id) -> bool {
        self.dels_spo.binary_search(&self.canon(s, p, o)).is_ok()
    }

    /// Pushes the subjects of added completed-alphabet edges `(s, p, o)`
    /// into `out`, in ascending order without duplicates — the delta
    /// counterpart of one ring backward step by predicate.
    pub fn added_into(&self, o: Id, p: Id, out: &mut Vec<Id>) {
        Self::into_side(&self.adds_pos, &self.adds_spo, self.n_preds_base, o, p, out);
    }

    /// Like [`Self::added_into`], over the tombstones.
    pub fn deleted_into(&self, o: Id, p: Id, out: &mut Vec<Id>) {
        Self::into_side(&self.dels_pos, &self.dels_spo, self.n_preds_base, o, p, out);
    }

    fn into_side(pos: &[Triple], spo: &[Triple], base: Id, o: Id, p: Id, out: &mut Vec<Id>) {
        if p < base {
            // Canonical `(·, p, o)`: a `(p, o)` block of the pos order,
            // subjects ascending (each triple is distinct, so subjects
            // within one block are too).
            out.extend(block2(pos, Triple::pos_key, p, o).iter().map(|t| t.s));
        } else {
            // Inverse `(x, p̂, o)` ⟺ canonical `(o, p, x)`: the `(o, p)`
            // prefix of o's spo block, objects ascending.
            out.extend(
                block2(spo, Triple::spo_key, o, p - base)
                    .iter()
                    .map(|t| t.o),
            );
        }
    }

    /// Pushes the distinct subjects of added completed-alphabet edges
    /// labeled `p` into `out` (ascending).
    pub fn added_sources(&self, p: Id, out: &mut Vec<Id>) {
        if p < self.n_preds_base {
            let before = out.len();
            out.extend(
                block1(&self.adds_pos, Triple::pos_key, p)
                    .iter()
                    .map(|t| t.s),
            );
            out[before..].sort_unstable();
            out.dedup();
        } else {
            // Subjects of p̂ are the canonical objects of p, ascending in
            // the pos order already.
            let before = out.len();
            out.extend(
                block1(&self.adds_pos, Triple::pos_key, p - self.n_preds_base)
                    .iter()
                    .map(|t| t.o),
            );
            out[before..].sort_unstable();
            out.dedup();
        }
    }

    /// Number of added edges with the completed-alphabet label `p`
    /// (labels and their inverses have equal counts, as in the ring).
    pub fn add_count_label(&self, p: Id) -> usize {
        let c = if p < self.n_preds_base {
            p
        } else {
            p - self.n_preds_base
        };
        block1(&self.adds_pos, Triple::pos_key, c).len()
    }

    /// Number of tombstoned edges with the completed-alphabet label `p`.
    pub fn del_count_label(&self, p: Id) -> usize {
        let c = if p < self.n_preds_base {
            p
        } else {
            p - self.n_preds_base
        };
        block1(&self.dels_pos, Triple::pos_key, c).len()
    }

    /// Number of added completed-alphabet edges `(·, p, o)`.
    pub fn add_count_into(&self, o: Id, p: Id) -> usize {
        Self::count_into(&self.adds_pos, &self.adds_spo, self.n_preds_base, o, p)
    }

    /// Number of tombstoned completed-alphabet edges `(·, p, o)`.
    pub fn del_count_into(&self, o: Id, p: Id) -> usize {
        Self::count_into(&self.dels_pos, &self.dels_spo, self.n_preds_base, o, p)
    }

    fn count_into(pos: &[Triple], spo: &[Triple], base: Id, o: Id, p: Id) -> usize {
        if p < base {
            block2(pos, Triple::pos_key, p, o).len()
        } else {
            block2(spo, Triple::spo_key, o, p - base).len()
        }
    }

    /// Number of tombstoned completed-alphabet edges `(s, p, ·)` — the
    /// count that decides whether a ring subject still has a live
    /// `p`-edge.
    pub fn del_count_from(&self, s: Id, p: Id) -> usize {
        if p < self.n_preds_base {
            block2(&self.dels_spo, Triple::spo_key, s, p).len()
        } else {
            block2(&self.dels_pos, Triple::pos_key, p - self.n_preds_base, s).len()
        }
    }

    /// Completed-graph incidence the adds contribute at node `v` (as a
    /// subject of the completed graph: canonical out-edges plus canonical
    /// in-edges).
    pub fn added_incidence(&self, v: Id) -> usize {
        block1(&self.adds_spo, Triple::spo_key, v).len()
            + block1(&self.adds_osp, Triple::osp_key, v).len()
    }

    /// Completed-graph incidence the tombstones remove at node `v`.
    pub fn deleted_incidence(&self, v: Id) -> usize {
        block1(&self.dels_spo, Triple::spo_key, v).len()
            + block1(&self.dels_osp, Triple::osp_key, v).len()
    }

    /// Heap bytes of the six sorted orders.
    pub fn size_bytes(&self) -> usize {
        6 * self.len() * std::mem::size_of::<Triple>()
    }
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn write_triples(w: &mut impl Write, ts: &[Triple]) -> io::Result<()> {
    w.write_all(&(ts.len() as u64).to_le_bytes())?;
    for t in ts {
        for x in [t.s, t.p, t.o] {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    Ok(())
}

fn read_triples(r: &mut impl Read, base: Id) -> io::Result<Vec<Triple>> {
    let n = read_u64(r)?;
    if n > MAX_LEN {
        return Err(err_data(format!(
            "length {n} exceeds sanity bound {MAX_LEN}"
        )));
    }
    // The length is untrusted input: cap the pre-allocation and let a
    // short read fail with an EOF error instead of an OOM abort.
    let mut ts = Vec::with_capacity(n.min(4096) as usize);
    for _ in 0..n {
        let t = Triple::new(read_u64(r)?, read_u64(r)?, read_u64(r)?);
        if t.p >= base {
            return Err(err_data(format!(
                "delta triple predicate {} outside the base alphabet {base}",
                t.p
            )));
        }
        ts.push(t);
    }
    Ok(ts)
}

/// The little-endian codec of a snapshot's `DELTA` section: a 4-byte
/// magic tag, a `u32` version, then the payload. Readers treat every
/// length as untrusted, so corrupted input fails with a typed error,
/// never a panic or an allocator abort.
impl DeltaIndex {
    /// Writes magic, version and payload.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        // Only the canonical spo lists are serialized; the pos/osp orders
        // (and the node bound) are derived state rebuilt on load, so the
        // on-disk bytes are a pure function of the triple sets.
        w.write_all(&self.n_preds_base.to_le_bytes())?;
        write_triples(w, &self.adds_spo)?;
        write_triples(w, &self.dels_spo)
    }

    /// Reads and validates magic and version, then the payload.
    pub fn read_from(r: &mut impl Read) -> io::Result<Self> {
        // Little-endian: the magic tag is the low half of the first word.
        let header = read_u64(r)?;
        let (magic, version) = ((header as u32).to_le_bytes(), (header >> 32) as u32);
        if magic != MAGIC {
            return Err(err_data(format!(
                "bad magic: expected {MAGIC:?}, found {magic:?}"
            )));
        }
        if version != VERSION {
            return Err(err_data(format!(
                "unsupported format version {version} (expected {VERSION})"
            )));
        }
        let base = read_u64(r)?;
        let adds = read_triples(r, base)?;
        let dels = read_triples(r, base)?;
        Ok(DeltaIndex::new(adds, dels, base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: Id, p: Id, o: Id) -> Triple {
        Triple::new(s, p, o)
    }

    fn sample() -> DeltaIndex {
        // Base alphabet of 3 predicates (completed labels 0..6).
        DeltaIndex::new(
            vec![t(0, 1, 2), t(5, 0, 2), t(0, 1, 3), t(7, 2, 0)],
            vec![t(1, 1, 2), t(2, 0, 0)],
            3,
        )
    }

    #[test]
    fn completed_alphabet_lookups() {
        let d = sample();
        assert!(d.add_contains(0, 1, 2));
        assert!(d.add_contains(2, 4, 0)); // inverse view of (0, 1, 2)
        assert!(!d.add_contains(2, 1, 0));
        assert!(d.del_contains(1, 1, 2));
        assert!(d.del_contains(2, 4, 1));
        assert_eq!(d.n_nodes(), 8);
        assert_eq!(d.n_adds(), 4);
        assert_eq!(d.n_dels(), 2);
        assert_eq!(d.len(), 6);
    }

    #[test]
    fn into_and_source_enumeration() {
        let d = sample();
        let mut out = Vec::new();
        d.added_into(2, 1, &mut out);
        assert_eq!(out, vec![0]);
        out.clear();
        // Inverse direction: edges (x, ^1, 0) ⟺ canonical (0, 1, x).
        d.added_into(0, 4, &mut out);
        assert_eq!(out, vec![2, 3]);
        out.clear();
        d.deleted_into(2, 1, &mut out);
        assert_eq!(out, vec![1]);
        out.clear();
        d.added_sources(1, &mut out);
        assert_eq!(out, vec![0]);
        out.clear();
        d.added_sources(4, &mut out); // subjects of ^1 = objects of 1
        assert_eq!(out, vec![2, 3]);
        assert_eq!(d.add_count_label(1), 2);
        assert_eq!(d.add_count_label(4), 2);
        assert_eq!(d.del_count_label(0), 1);
        assert_eq!(d.add_count_into(2, 1), 1);
        assert_eq!(d.del_count_from(1, 1), 1);
        // (0, ^0, ·) edges are canonical (·, 0, 0): the tombstone (2,0,0).
        assert_eq!(d.del_count_from(0, 3), 1);
        assert_eq!(d.del_count_from(2, 3), 0);
    }

    #[test]
    fn incidence_counts() {
        let d = sample();
        // Node 0: adds (0,1,2), (0,1,3) as subject; (7,2,0) as object.
        assert_eq!(d.added_incidence(0), 3);
        // Node 2: adds (0,1,2), (5,0,2) as object.
        assert_eq!(d.added_incidence(2), 2);
        assert_eq!(d.deleted_incidence(2), 2); // (1,1,2) object + (2,0,0) subject
    }

    #[test]
    fn empty_delta() {
        let d = DeltaIndex::empty(4);
        assert!(d.is_empty());
        assert_eq!(d.n_nodes(), 0);
        assert_eq!(d.add_count_label(7), 0);
        assert!(!d.add_contains(0, 0, 0));
    }

    /// Wrong magic, a truncated payload and an absurd declared length
    /// all fail with an error; the length is rejected by the sanity
    /// bound, not allocated.
    #[test]
    fn corrupted_inputs_fail_cleanly() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        assert_eq!(
            DeltaIndex::read_from(&mut buf.as_slice()).unwrap(),
            sample()
        );

        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        let err = DeltaIndex::read_from(&mut bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");

        let bad = &buf[..buf.len() - 3];
        assert!(DeltaIndex::read_from(&mut &bad[..]).is_err());

        // After magic, version and the base alphabet: the adds length.
        let mut bad = buf.clone();
        bad[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = DeltaIndex::read_from(&mut bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("sanity bound"), "{err}");
    }

    #[test]
    #[should_panic(expected = "outside the base alphabet")]
    fn non_canonical_predicates_are_rejected() {
        DeltaIndex::new(vec![t(0, 3, 1)], vec![], 3);
    }
}
