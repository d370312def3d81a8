//! Property-based cross-validation of the succinct structures: the wavelet
//! matrix, pointer wavelet tree, and a naive vector-backed reference must
//! agree on every operation for arbitrary inputs.

use proptest::prelude::*;
use succinct::wavelet_matrix::{MultiRangeGuide, RangeGuide, RangeSweep, SweepGuide};
use succinct::{BitVec, IntVec, RankSelect, WaveletMatrix, WaveletTree};

fn naive_rank(syms: &[u64], sym: u64, i: usize) -> usize {
    syms[..i].iter().filter(|&&s| s == sym).count()
}

/// All-admitting multi-range guide collecting `(item, sym, rb, re)`.
struct CollectMulti(Vec<(u32, u64, usize, usize)>);
impl MultiRangeGuide for CollectMulti {
    fn enter_node(&mut self, _: usize, _: u64) -> bool {
        true
    }
    fn enter_item(&mut self, _: u32, _: usize, _: u64) -> bool {
        true
    }
    fn leaf(&mut self, item: u32, sym: u64, rb: usize, re: usize) {
        self.0.push((item, sym, rb, re));
    }
}

/// A deterministic, order-independent pruning predicate over
/// `(range, level, prefix)`: internal nodes pass 4 times in 5, leaves 2
/// times in 3.
fn pruned(width: usize, range: u32, level: usize, prefix: u64) -> bool {
    let h = (u64::from(range) << 40 ^ (level as u64) << 32 ^ prefix)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        >> 32;
    if level == width {
        !h.is_multiple_of(3)
    } else {
        !h.is_multiple_of(5)
    }
}

/// The sweep guide: every node, or the [`pruned`] predicate.
struct SweepAdmit {
    width: usize,
    prune: bool,
}
impl SweepGuide for SweepAdmit {
    fn admit(&mut self, range: u32, level: usize, prefix: u64) -> bool {
        !self.prune || pruned(self.width, range, level, prefix)
    }
}

/// The per-range reference: a guided traversal under the same predicate,
/// counting the nodes it asks about.
struct RangeAdmit {
    width: usize,
    prune: bool,
    range: u32,
    asked: u64,
    out: Vec<u64>,
}
impl RangeGuide for RangeAdmit {
    fn enter(&mut self, level: usize, prefix: u64) -> bool {
        self.asked += 1;
        !self.prune || pruned(self.width, self.range, level, prefix)
    }
    fn leaf(&mut self, sym: u64, _: usize, _: usize) {
        self.out.push(sym);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The level-synchronous range sweep yields, per range, exactly the
    /// symbols a guided traversal under the same admission yields, in
    /// ascending order: `range_distinct`'s symbols when everything is
    /// admitted. Covers one-symbol, power-of-two and other alphabets,
    /// empty ranges, ranges ending at `len` (the `rank0_pair` fallback)
    /// and ranges crossing 512-bit superblocks.
    #[test]
    fn range_sweep_equals_guided_traversal(
        sigma_pick in 0usize..4,
        raw_syms in prop::collection::vec(0u64..1000, 0..1500),
        raw_ranges in prop::collection::vec((0usize..1500, 0usize..1500), 0..30),
        prune in any::<bool>(),
    ) {
        let sigma = [1u64, 2, 16, 37][sigma_pick];
        let syms: Vec<u64> = raw_syms.iter().map(|&s| s % sigma).collect();
        let n = syms.len();
        let wm = WaveletMatrix::new(&syms, sigma);
        let mut ranges: Vec<(usize, usize)> = raw_ranges
            .iter()
            .map(|&(x, y)| {
                let (b, e) = (x.min(n), y.min(n));
                (b.min(e), b.max(e))
            })
            .collect();
        ranges.extend([(n, n), (n / 2, n), (0, n), (n / 3, n / 3)]);
        let width = wm.width();
        let mut sweep = RangeSweep::new();
        wm.sweep_ranges(&ranges, &mut SweepAdmit { width, prune }, &mut sweep);
        let mut asked = 0;
        for (i, &(b, e)) in ranges.iter().enumerate() {
            let mut reference = RangeAdmit { width, prune, range: i as u32, asked: 0, out: Vec::new() };
            wm.guided_traverse(b, e, &mut reference);
            asked += reference.asked;
            prop_assert_eq!(sweep.symbols(i), &reference.out[..], "range {} = {:?}", i, (b, e));
            if !prune {
                let mut distinct = Vec::new();
                wm.range_distinct(b, e, &mut |s, _, _| distinct.push(s));
                prop_assert_eq!(sweep.symbols(i), &distinct[..]);
            }
        }
        prop_assert_eq!(sweep.nodes, asked);
        // Reuse: a second sweep over the same input agrees.
        let first: Vec<Vec<u64>> = (0..ranges.len()).map(|i| sweep.symbols(i).to_vec()).collect();
        wm.sweep_ranges(&ranges, &mut SweepAdmit { width, prune }, &mut sweep);
        for (i, syms) in first.iter().enumerate() {
            prop_assert_eq!(sweep.symbols(i), &syms[..]);
        }
    }

    #[test]
    fn rank_select_agree_with_naive(bits in prop::collection::vec(any::<bool>(), 0..2000)) {
        let rs = RankSelect::new(BitVec::from_bits(bits.iter().copied()));
        let mut ones = 0usize;
        for (i, &bit) in bits.iter().enumerate() {
            prop_assert_eq!(rs.rank1(i), ones);
            prop_assert_eq!(rs.rank0(i), i - ones);
            if bit {
                prop_assert_eq!(rs.select1(ones), Some(i));
                ones += 1;
            }
        }
        prop_assert_eq!(rs.rank1(bits.len()), ones);
        prop_assert_eq!(rs.select1(ones), None);
    }

    #[test]
    fn select0_is_inverse_of_rank0(bits in prop::collection::vec(any::<bool>(), 0..1500)) {
        let rs = RankSelect::new(BitVec::from_bits(bits.iter().copied()));
        let mut zeros = 0usize;
        for (i, &bit) in bits.iter().enumerate() {
            if !bit {
                prop_assert_eq!(rs.select0(zeros), Some(i));
                zeros += 1;
            }
        }
        prop_assert_eq!(rs.select0(zeros), None);
    }

    /// The sampled select directory at every stride boundary: for each
    /// multiple of the sampling rate, `select` must invert `rank` exactly
    /// (these are the positions the directory indexes directly, where an
    /// off-by-one in sample construction would surface).
    #[test]
    fn select_inverts_rank_at_sample_strides(
        bits in prop::collection::vec(any::<bool>(), 0..6000),
        rate in 1usize..64,
    ) {
        let rs = RankSelect::with_select_sample(BitVec::from_bits(bits.iter().copied()), rate);
        let ones: Vec<usize> = (0..bits.len()).filter(|&i| bits[i]).collect();
        let zeros: Vec<usize> = (0..bits.len()).filter(|&i| !bits[i]).collect();
        let mut k = 0usize;
        while k < ones.len() {
            prop_assert_eq!(rs.select1(k), Some(ones[k]), "select1 stride {}", k);
            prop_assert_eq!(rs.rank1(ones[k]), k);
            k += rate;
        }
        let mut k = 0usize;
        while k < zeros.len() {
            prop_assert_eq!(rs.select0(k), Some(zeros[k]), "select0 stride {}", k);
            prop_assert_eq!(rs.rank0(zeros[k]), k);
            k += rate;
        }
        prop_assert_eq!(rs.select1(ones.len()), None);
        prop_assert_eq!(rs.select0(zeros.len()), None);
    }

    /// `rank1_pair(b, e)` must equal two independent `rank1` calls for
    /// every boundary pair — in particular across superblock boundaries,
    /// where the shared-probe fast path must bow out.
    #[test]
    fn rank1_pair_equals_two_ranks(
        bits in prop::collection::vec(any::<bool>(), 0..4000),
        queries in prop::collection::vec((0usize..4001, 0usize..4001), 1..40),
    ) {
        let rs = RankSelect::new(BitVec::from_bits(bits.iter().copied()));
        for &(x, y) in &queries {
            let (mut b, mut e) = (x.min(bits.len()), y.min(bits.len()));
            if b > e { std::mem::swap(&mut b, &mut e); }
            prop_assert_eq!(rs.rank1_pair(b, e), (rs.rank1(b), rs.rank1(e)));
            prop_assert_eq!(rs.rank0_pair(b, e), (rs.rank0(b), rs.rank0(e)));
        }
    }

    /// The frontier-batched traversal is exactly the union of per-range
    /// guided traversals (item-tagged), for arbitrary range frontiers.
    #[test]
    fn guided_traverse_multi_equals_per_range_union(
        syms in prop::collection::vec(0u64..60, 1..500),
        raw_ranges in prop::collection::vec((0usize..500, 0usize..500), 0..40),
    ) {
        let n = syms.len();
        let wm = WaveletMatrix::new(&syms, 60);
        let ranges: Vec<(usize, usize)> = raw_ranges
            .iter()
            .map(|&(x, y)| {
                let (b, e) = (x.min(n), y.min(n));
                (b.min(e), b.max(e))
            })
            .collect();
        let mut guide = CollectMulti(Vec::new());
        wm.guided_traverse_multi(&ranges, &mut guide);
        let mut got = guide.0;
        got.sort_unstable();
        let mut expected = Vec::new();
        for (i, &(b, e)) in ranges.iter().enumerate() {
            wm.range_distinct(b, e, &mut |s, rb, re| expected.push((i as u32, s, rb, re)));
        }
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Batched wavelet rank ≡ per-position rank.
    #[test]
    fn rank_batch_equals_rank(
        syms in prop::collection::vec(0u64..32, 0..400),
        sym in 0u64..32,
        raw_pos in prop::collection::vec(0usize..401, 0..50),
    ) {
        let wm = WaveletMatrix::new(&syms, 32);
        let mut positions: Vec<usize> =
            raw_pos.iter().map(|&p| p.min(syms.len())).collect();
        let expected: Vec<usize> = positions.iter().map(|&i| wm.rank(sym, i)).collect();
        wm.rank_batch(sym, &mut positions);
        prop_assert_eq!(positions, expected);
    }

    #[test]
    fn int_vec_roundtrip(values in prop::collection::vec(0u64..(1 << 37), 0..300)) {
        let v = IntVec::from_slice(&values);
        prop_assert_eq!(v.len(), values.len());
        for (i, &x) in values.iter().enumerate() {
            prop_assert_eq!(v.get(i), x);
        }
        prop_assert_eq!(v.iter().collect::<Vec<_>>(), values);
    }

    #[test]
    fn wavelet_structures_agree(
        syms in prop::collection::vec(0u64..50, 0..400),
        queries in prop::collection::vec((0u64..50, 0usize..400), 1..20),
    ) {
        let sigma = 50;
        let wt = WaveletTree::new(&syms, sigma);
        let wm = WaveletMatrix::new(&syms, sigma);
        for &(sym, raw_i) in &queries {
            let i = raw_i.min(syms.len());
            let expected = naive_rank(&syms, sym, i);
            prop_assert_eq!(wt.rank(sym, i), expected);
            prop_assert_eq!(wm.rank(sym, i), expected);
        }
        for (i, &s) in syms.iter().enumerate() {
            prop_assert_eq!(wt.access(i), s);
            prop_assert_eq!(wm.access(i), s);
        }
    }

    #[test]
    fn wavelet_select_agrees(syms in prop::collection::vec(0u64..12, 0..300)) {
        let wt = WaveletTree::new(&syms, 12);
        let wm = WaveletMatrix::new(&syms, 12);
        for sym in 0..12u64 {
            let total = naive_rank(&syms, sym, syms.len());
            for k in 0..total {
                let expected = syms.iter().enumerate()
                    .filter(|(_, &s)| s == sym)
                    .map(|(i, _)| i)
                    .nth(k);
                prop_assert_eq!(wt.select(sym, k), expected);
                prop_assert_eq!(wm.select(sym, k), expected);
            }
            prop_assert_eq!(wt.select(sym, total), None);
            prop_assert_eq!(wm.select(sym, total), None);
        }
    }

    #[test]
    fn range_distinct_agrees(
        syms in prop::collection::vec(0u64..30, 1..300),
        b_frac in 0.0f64..1.0,
        e_frac in 0.0f64..1.0,
    ) {
        let n = syms.len();
        let (mut b, mut e) = (
            (b_frac * n as f64) as usize,
            (e_frac * n as f64) as usize,
        );
        if b > e { std::mem::swap(&mut b, &mut e); }
        let wt = WaveletTree::new(&syms, 30);
        let wm = WaveletMatrix::new(&syms, 30);
        let mut from_wt = Vec::new();
        wt.range_distinct(b, e, &mut |s, rb, re| from_wt.push((s, rb, re)));
        let mut from_wm = Vec::new();
        wm.range_distinct(b, e, &mut |s, rb, re| from_wm.push((s, rb, re)));
        prop_assert_eq!(&from_wt, &from_wm);
        // Rank offsets must reconstruct per-symbol occurrence counts.
        for &(s, rb, re) in &from_wt {
            prop_assert_eq!(re - rb, syms[b..e].iter().filter(|&&x| x == s).count());
            prop_assert_eq!(rb, naive_rank(&syms, s, b));
        }
    }

    #[test]
    fn range_next_value_agrees(
        syms in prop::collection::vec(0u64..40, 1..250),
        x in 0u64..45,
    ) {
        let wt = WaveletTree::new(&syms, 40);
        let wm = WaveletMatrix::new(&syms, 40);
        let b = syms.len() / 4;
        let e = syms.len();
        let expected = syms[b..e].iter().copied().filter(|&s| s >= x).min();
        prop_assert_eq!(wt.range_next_value(b, e, x).map(|t| t.0), expected);
        prop_assert_eq!(wm.range_next_value(b, e, x).map(|t| t.0), expected);
    }
}
