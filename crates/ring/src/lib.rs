#![warn(missing_docs)]

//! The *ring* (Arroyuelo et al., SIGMOD 2021 \[4\]): a BWT-based succinct
//! representation of a labeled graph, and the substrate the Ring-RPQ
//! engine navigates.
//!
//! A graph is a set of triples `(s, p, o)`. Viewing each triple as a
//! circular string, the ring stores three columns (§3.4 of the RPQ paper):
//!
//! * `L_o`: objects of the triples sorted by `(s, p, o)`,
//! * `L_s`: subjects of the triples sorted by `(p, o, s)`,
//! * `L_p`: predicates of the triples sorted by `(o, s, p)`,
//!
//! each as a wavelet matrix, plus the boundary arrays `C_s`, `C_p`, `C_o`
//! counting, for every symbol, how many triples sort strictly before it in
//! the respective order. LF-steps and range backward-search steps
//! (Eqs. 3–5) move between the columns; together they answer every triple
//! pattern and power the RPQ traversal.
//!
//! Modules:
//! * [`triple`]: the `Triple` type and sort orders.
//! * [`dict`]: dictionary encoding between names and dense ids.
//! * [`graph`]: an in-memory triple set with completion `G↔` (inverse
//!   edges) and a whitespace text format.
//! * [`boundaries`]: the `C` arrays, dense (plain words) or succinct
//!   (bit vector + select), as in §5 of the paper.
//! * [`ring`]: the index itself.
//! * [`delta`]: the sorted add/tombstone overlay live updates accumulate
//!   into between ring rebuilds.
//! * [`store`]: the updatable store — ring + delta behind atomic,
//!   versioned snapshots with commit/compact.
//! * [`ltj`]: a Leapfrog-TrieJoin evaluator over rings — the worst-case
//!   optimal join the ring was originally built for, and the integration
//!   target §6 describes for mixing RPQs into multijoins.
//! * [`durable`]: crash-safe IO — atomic replace-writes, checksum
//!   footers, typed corruption errors, and the fault-injection layer the
//!   crash-consistency battery drives.
//! * [`mapped`]: the snapshot format `RRPQM01` — ring, dictionaries,
//!   delta overlay and epoch in one aligned file that opens zero-copy.
//! * [`wal`]: the write-ahead log that makes committed updates survive a
//!   crash between snapshots.
//! * [`sharded`]: horizontal sharding — the graph partitioned by
//!   predicate (subject ranges for skewed ones) into per-shard rings
//!   over shared universes, persisted as a manifest-bound directory of
//!   mapped files.

pub mod boundaries;
pub mod delta;
pub mod dict;
pub mod durable;
pub mod graph;
pub mod ltj;
pub mod mapped;
pub mod ntriples;
pub mod ring;
pub mod sharded;
pub mod store;
pub mod triple;
pub mod wal;

pub use boundaries::Boundaries;
pub use delta::DeltaIndex;
pub use dict::Dict;
pub use graph::Graph;
pub use ring::Ring;
pub use store::{StoreSnapshot, TripleStore};
pub use triple::Triple;

/// Node or predicate identifier (dense, 0-based).
pub type Id = u64;
