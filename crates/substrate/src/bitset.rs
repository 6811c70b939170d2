//! A flat, word-packed bitset for the hot membership scans.
//!
//! The MIS and matching loops track per-vertex flags (`alive`, `in_mis`,
//! `covered`, …) that used to live in `Vec<bool>` — one byte per vertex,
//! 8× the cache traffic of the information content. [`Bitset`] packs the
//! same flags into a single `Vec<u64>` word array with branchless
//! test-and-set, which is what the per-round scans at the 2²⁴ tier
//! actually stream through.
//!
//! The crate-level `#![forbid(unsafe_code)]` applies here: every access
//! is a checked slice index, with `debug_assert!` bounds audits on the
//! bit index itself (`cargo test` runs with debug assertions on, so the
//! audit is exercised by CI; release builds keep only the slice check).
//!
//! The word buffer can be drawn from and returned to a
//! [`ScratchPool`](crate::ScratchPool) so per-round masks stop churning
//! the allocator.
//!
//! ```
//! use mmvc_substrate::Bitset;
//!
//! let mut b = Bitset::new(100);
//! assert!(!b.get(63));
//! assert!(!b.test_and_set(63), "was clear");
//! assert!(b.test_and_set(63), "now set");
//! assert_eq!(b.count_ones(), 1);
//! ```

use crate::ScratchPool;

/// A fixed-length bitset over indices `0..len`, packed 64 per word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitset {
    words: Vec<u64>,
    len: usize,
}

#[inline]
fn words_for(len: usize) -> usize {
    len.div_ceil(64)
}

impl Bitset {
    /// An all-clear bitset over `0..len`.
    pub fn new(len: usize) -> Self {
        Bitset {
            words: vec![0; words_for(len)],
            len,
        }
    }

    /// An all-set bitset over `0..len` (trailing bits of the last word
    /// stay clear so [`count_ones`](Self::count_ones) is exact).
    pub fn filled(len: usize) -> Self {
        let mut b = Bitset {
            words: vec![u64::MAX; words_for(len)],
            len,
        };
        b.mask_tail();
        b
    }

    /// An all-clear bitset whose word buffer is drawn from `pool`.
    /// Return it with [`recycle`](Self::recycle) to keep the capacity.
    pub fn new_in(pool: &ScratchPool, len: usize) -> Self {
        let n = words_for(len);
        let mut words = pool.take_u64(n);
        words.resize(n, 0);
        Bitset { words, len }
    }

    /// Returns the word buffer to `pool`, consuming the bitset.
    pub fn recycle(self, pool: &ScratchPool) {
        pool.recycle_u64(self.words);
    }

    /// Zeroes the bits past `len` in the last word.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of indexable bits.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Tests bit `i`.
    ///
    /// # Panics
    ///
    /// Debug builds assert `i < len()`; release builds panic only if the
    /// word index is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit {i} out of range ({})", self.len);
        (self.words[i >> 6] >> (i & 63)) & 1 != 0
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len, "bit {i} out of range ({})", self.len);
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len, "bit {i} out of range ({})", self.len);
        self.words[i >> 6] &= !(1u64 << (i & 63));
    }

    /// Sets bit `i` and returns its *previous* value — branchless: one
    /// load, shift/mask arithmetic, one store, no data-dependent jumps.
    #[inline]
    pub fn test_and_set(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit {i} out of range ({})", self.len);
        let w = &mut self.words[i >> 6];
        let bit = (i & 63) as u32;
        let prev = (*w >> bit) & 1;
        *w |= 1u64 << bit;
        prev != 0
    }

    /// The packed words: bit `i` is bit `i % 64` of word `i / 64`. Bits
    /// at or past [`len`](Self::len) are clear.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable packed words, for word-parallel passes that split them
    /// into disjoint slabs. Callers must leave bits at or past
    /// [`len`](Self::len) clear.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Clears every bit (capacity and length unchanged).
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Sets every bit in `0..len`.
    pub fn set_all(&mut self) {
        self.words.fill(u64::MAX);
        self.mask_tail();
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                Some((wi << 6) | b)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_roundtrip() {
        let mut b = Bitset::new(130);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!b.get(i));
            b.set(i);
            assert!(b.get(i));
        }
        assert_eq!(b.count_ones(), 8);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 7);
        assert_eq!(
            b.iter_ones().collect::<Vec<_>>(),
            vec![0, 1, 63, 65, 127, 128, 129]
        );
    }

    #[test]
    fn test_and_set_reports_previous_value() {
        let mut b = Bitset::new(70);
        assert!(!b.test_and_set(69));
        assert!(b.test_and_set(69));
        assert_eq!(b.count_ones(), 1);
    }

    #[test]
    fn filled_and_tail_masking() {
        let b = Bitset::filled(67);
        assert_eq!(b.count_ones(), 67);
        assert!(b.get(66));
        let mut c = Bitset::new(67);
        c.set_all();
        assert_eq!(c, b);
        c.clear_all();
        assert_eq!(c.count_ones(), 0);
        assert_eq!(Bitset::filled(0).count_ones(), 0);
        assert_eq!(Bitset::filled(64).count_ones(), 64);
    }

    #[test]
    fn pooled_words_are_recycled() {
        let pool = ScratchPool::new();
        let b = Bitset::new_in(&pool, 1000);
        assert_eq!(b.count_ones(), 0, "pooled bitset starts clear");
        b.recycle(&pool);
        let c = Bitset::new_in(&pool, 500);
        assert_eq!(pool.stats().reuses, 1, "second bitset reuses the words");
        assert_eq!(c.count_ones(), 0);
        c.recycle(&pool);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_is_audited() {
        Bitset::new(10).get(10);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_is_audited() {
        Bitset::new(0).set(0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of range")]
    fn test_and_set_out_of_range_is_audited() {
        Bitset::new(64).test_and_set(64);
    }
}
