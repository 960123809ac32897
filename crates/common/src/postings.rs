//! Small-inline posting lists for the store hash indexes.
//!
//! Every distinct join-key value of an indexed attribute owns one posting
//! list (the positions of matching tuples in a store partition's log). The
//! seed used a `Vec<usize>` per value, which costs a heap allocation for
//! every distinct key — painful for high-cardinality key attributes where
//! most values have one or two postings. [`PostingList`] stores up to
//! [`INLINE_POSTINGS`] offsets inline and only spills to a heap `Vec`
//! beyond that, so the common low-fanout case allocates nothing beyond
//! the index map slot itself.
//!
//! A list that spilled stays heap-backed even if retention shrinks it
//! below the inline capacity again: expiry waves shrink and regrow lists
//! continuously, and bouncing between representations would trade the
//! saved bytes for churn.

/// Offsets stored inline before spilling to the heap.
pub const INLINE_POSTINGS: usize = 3;

/// A posting list: tuple offsets inline up to [`INLINE_POSTINGS`], heap
/// beyond.
#[derive(Debug, Clone)]
pub enum PostingList {
    /// Up to [`INLINE_POSTINGS`] offsets, no heap allocation.
    Inline {
        /// Number of valid entries in `slots`.
        len: u8,
        /// The inline offsets (`0..len` valid).
        slots: [usize; INLINE_POSTINGS],
    },
    /// Spilled representation for > [`INLINE_POSTINGS`] offsets.
    Heap(Vec<usize>),
}

impl Default for PostingList {
    fn default() -> Self {
        PostingList::Inline {
            len: 0,
            slots: [0; INLINE_POSTINGS],
        }
    }
}

impl PostingList {
    /// Creates an empty list.
    pub fn new() -> Self {
        PostingList::default()
    }

    /// Number of postings.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            PostingList::Inline { len, .. } => usize::from(*len),
            PostingList::Heap(v) => v.len(),
        }
    }

    /// `true` when no posting is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The postings as a slice (what probe candidate lookups borrow).
    #[inline]
    pub fn as_slice(&self) -> &[usize] {
        match self {
            PostingList::Inline { len, slots } => &slots[..usize::from(*len)],
            PostingList::Heap(v) => v,
        }
    }

    /// Appends one offset, spilling to the heap on overflow of the inline
    /// capacity.
    #[inline]
    pub fn push(&mut self, offset: usize) {
        match self {
            PostingList::Inline { len, slots } => {
                let n = usize::from(*len);
                if n < INLINE_POSTINGS {
                    slots[n] = offset;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(INLINE_POSTINGS * 2 + 2);
                    v.extend_from_slice(&slots[..]);
                    v.push(offset);
                    *self = PostingList::Heap(v);
                }
            }
            PostingList::Heap(v) => v.push(offset),
        }
    }

    /// Remaps every posting through `f`, dropping those mapped to `None`
    /// and compacting in place — the expiry index-repair primitive
    /// (old offset → new offset after a retain pass, `None` = expired).
    pub fn retain_map(&mut self, mut f: impl FnMut(usize) -> Option<usize>) {
        match self {
            PostingList::Inline { len, slots } => {
                let mut kept = 0usize;
                for i in 0..usize::from(*len) {
                    if let Some(new) = f(slots[i]) {
                        slots[kept] = new;
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            PostingList::Heap(v) => {
                let mut kept = 0usize;
                for i in 0..v.len() {
                    if let Some(new) = f(v[i]) {
                        v[kept] = new;
                        kept += 1;
                    }
                }
                v.truncate(kept);
            }
        }
    }

    /// Drops the leading postings below `bound`: the expiry trim of a list
    /// whose postings ascend, where the stale ones form a prefix.
    pub fn trim_below(&mut self, bound: usize) {
        let stale = self.as_slice().partition_point(|&p| p < bound);
        if stale == 0 {
            return;
        }
        match self {
            PostingList::Inline { len, slots } => {
                slots.copy_within(stale..usize::from(*len), 0);
                *len -= stale as u8;
            }
            PostingList::Heap(v) => {
                v.drain(..stale);
            }
        }
    }

    /// `true` when the list spilled to the heap (diagnostics/tests).
    pub fn is_spilled(&self) -> bool {
        matches!(self, PostingList::Heap(_))
    }
}

impl FromIterator<usize> for PostingList {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut list = PostingList::new();
        for offset in iter {
            list.push(offset);
        }
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_capacity_then_spills() {
        let mut list = PostingList::new();
        assert!(list.is_empty());
        for i in 0..INLINE_POSTINGS {
            list.push(i * 10);
            assert!(!list.is_spilled(), "inline at {i}");
        }
        assert_eq!(list.as_slice(), &[0, 10, 20]);
        list.push(30);
        assert!(list.is_spilled());
        assert_eq!(list.as_slice(), &[0, 10, 20, 30]);
        assert_eq!(list.len(), 4);
    }

    #[test]
    fn retain_map_remaps_and_drops_in_both_representations() {
        // Inline.
        let mut inline: PostingList = [2usize, 5, 7].into_iter().collect();
        inline.retain_map(|i| if i == 5 { None } else { Some(i - 1) });
        assert_eq!(inline.as_slice(), &[1, 6]);
        assert!(!inline.is_spilled());
        // Heap.
        let mut heap: PostingList = (0..10usize).collect();
        assert!(heap.is_spilled());
        heap.retain_map(|i| if i % 2 == 0 { Some(i / 2) } else { None });
        assert_eq!(heap.as_slice(), &[0, 1, 2, 3, 4]);
        // Dropping below the inline capacity keeps the heap representation.
        heap.retain_map(|i| if i == 0 { Some(0) } else { None });
        assert_eq!(heap.as_slice(), &[0]);
        assert!(heap.is_spilled());
    }

    #[test]
    fn trim_below_drops_the_stale_prefix_in_both_representations() {
        let mut inline: PostingList = [2usize, 5, 7].into_iter().collect();
        inline.trim_below(3);
        assert_eq!(inline.as_slice(), &[5, 7]);
        inline.trim_below(3);
        assert_eq!(inline.as_slice(), &[5, 7], "nothing left below the bound");
        inline.trim_below(8);
        assert!(inline.is_empty());
        let mut heap: PostingList = (10..20usize).collect();
        heap.trim_below(15);
        assert_eq!(heap.as_slice(), &[15, 16, 17, 18, 19]);
        assert!(heap.is_spilled());
    }

    #[test]
    fn retain_map_to_empty() {
        let mut list: PostingList = [1usize, 2].into_iter().collect();
        list.retain_map(|_| None);
        assert!(list.is_empty());
        assert_eq!(list.as_slice(), &[] as &[usize]);
    }

    #[test]
    fn matches_vec_model_under_random_ops() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let mut list = PostingList::new();
            let mut model: Vec<usize> = Vec::new();
            for _ in 0..rng.gen_range(0..40usize) {
                if rng.gen_bool(0.7) || model.is_empty() {
                    let v = rng.gen_range(0..1000usize);
                    list.push(v);
                    model.push(v);
                } else {
                    let threshold = rng.gen_range(0..1000usize);
                    let shift = rng.gen_range(0..5usize);
                    list.retain_map(|i| (i >= threshold).then(|| i + shift));
                    model.retain_mut(|i| {
                        if *i >= threshold {
                            *i += shift;
                            true
                        } else {
                            false
                        }
                    });
                }
                assert_eq!(list.as_slice(), model.as_slice());
                assert_eq!(list.len(), model.len());
            }
        }
    }
}
