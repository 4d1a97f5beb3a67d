//! Push-only tables whose elements never move.
//!
//! A `Vec` that grows by doubling copies its contents into a new block
//! at every step and frees the old one. For the tables that scale with
//! in-flight packets (the packet arena's slots and the scheduler
//! wheel's entry columns) those steps happen mid-run, at up to megabyte
//! sizes, and the freed blocks stay resident as holes in the allocator's
//! heap. A [`Segmented`] table instead allocates its storage in
//! segments: segment `k` holds `64 << k` elements and is allocated at
//! its full size when segment `k - 1` is full. A segment is never
//! reallocated, moved or freed before the table drops, so an element's
//! address is stable and growth copies nothing, while the capacity
//! after `K` segments, `64 · (2^K − 1)`, tracks the length as closely as
//! a doubling `Vec`'s does.
//!
//! Index `i` resolves with one `leading_zeros` and an xor: `j = i + 64`
//! lies in `[64 · 2^k, 64 · 2^(k+1))` exactly when `i` is in segment
//! `k`, so the top bit of `j` names the segment and the bits below it
//! are the offset. Since `j` must fit a `u32`, a table holds at most
//! [`MAX_LEN`] elements in 26 segments; the push past that panics with
//! the table's name instead of wrapping.

use std::ops::{Index, IndexMut};

/// Log2 of the first segment's length.
const FIRST_BITS: u32 = 6;
/// The first segment's length.
const FIRST: u32 = 1 << FIRST_BITS;
/// Most elements a table holds: index `MAX_LEN - 1` is the last whose
/// `i + 64` fits a `u32`. `u32::MAX`, the tables' end-of-list mark,
/// is never a valid index.
const MAX_LEN: u32 = u32::MAX - (FIRST - 1);

/// Segments a table has room for: the last ends at index `MAX_LEN - 1`.
const SEGMENTS: usize = 26;

/// Segment and offset of index `i`. An index past [`MAX_LEN`] resolves
/// to segment [`SEGMENTS`], which no table has. The sum is taken in
/// `u64`, so it cannot wrap.
#[inline]
fn locate(i: u32) -> (usize, usize) {
    let j = u64::from(i) + u64::from(FIRST);
    let lz = j.leading_zeros();
    (
        (63 - FIRST_BITS - lz) as usize,
        (j ^ (1 << 63 >> lz)) as usize,
    )
}

/// A push-only table of `T` in never-moving segments, indexed by `u32`.
#[derive(Debug)]
pub(crate) struct Segmented<T> {
    /// Names the table in panic messages.
    name: &'static str,
    /// Segment `k` has capacity `64 << k` once allocated; every
    /// allocated segment but the last is full. The segment headers sit
    /// in the table itself, so an index follows one pointer.
    segs: [Vec<T>; SEGMENTS],
    len: u32,
}

impl<T> Segmented<T> {
    /// An empty table; `name` names it in panic messages.
    pub(crate) fn new(name: &'static str) -> Self {
        Self {
            name,
            segs: std::array::from_fn(|_| Vec::new()),
            len: 0,
        }
    }

    /// Elements pushed so far.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// Appends `value` and returns its index.
    ///
    /// # Panics
    ///
    /// Panics, naming the table, if it already holds [`MAX_LEN`]
    /// elements.
    pub(crate) fn push(&mut self, value: T) -> u32 {
        let i = self.len;
        assert!(i < MAX_LEN, "{} exceeds {MAX_LEN} entries", self.name);
        let k = locate(i).0;
        let seg = &mut self.segs[k];
        if seg.capacity() == 0 {
            *seg = Vec::with_capacity((FIRST as usize) << k);
        }
        debug_assert!(seg.len() < seg.capacity(), "a segment would move");
        seg.push(value);
        self.len += 1;
        i
    }

    /// The element at `i`, or `None` if `i` is not below the length.
    #[inline]
    pub(crate) fn get(&self, i: u32) -> Option<&T> {
        let (k, off) = locate(i);
        self.segs.get(k)?.get(off)
    }

    /// The element at `i` mutably, or `None` if `i` is not below the
    /// length.
    #[inline]
    pub(crate) fn get_mut(&mut self, i: u32) -> Option<&mut T> {
        let (k, off) = locate(i);
        self.segs.get_mut(k)?.get_mut(off)
    }
}

#[cold]
#[inline(never)]
fn out_of_bounds(name: &str, len: u32, i: u32) -> ! {
    panic!("index {i} out of bounds of {name} ({len} entries)")
}

impl<T> Index<u32> for Segmented<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: u32) -> &T {
        match self.get(i) {
            Some(v) => v,
            None => out_of_bounds(self.name, self.len, i),
        }
    }
}

impl<T> IndexMut<u32> for Segmented<T> {
    #[inline]
    fn index_mut(&mut self, i: u32) -> &mut T {
        let (name, len) = (self.name, self.len);
        match self.get_mut(i) {
            Some(v) => v,
            None => out_of_bounds(name, len, i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The first index of every segment up to `2^20` elements, and the
    /// powers of two `64 · 2^k`.
    fn boundaries() -> Vec<u32> {
        (0..15)
            .flat_map(|k| [FIRST * ((1 << k) - 1), FIRST << k])
            .collect()
    }

    #[test]
    fn indices_resolve_to_consecutive_segment_offsets() {
        let mut want = (0usize, 0usize);
        for i in 0..(FIRST << 12) {
            assert_eq!(locate(i), want, "index {i}");
            want.1 += 1;
            if want.1 == (FIRST as usize) << want.0 {
                want = (want.0 + 1, 0);
            }
        }
        assert_eq!(locate(MAX_LEN - 1), (SEGMENTS - 1, (1 << 31) - 1));
        assert_eq!(locate(MAX_LEN).0, SEGMENTS);
        assert_eq!(locate(u32::MAX).0, SEGMENTS);
    }

    /// Seeded pushes and in-place writes against a `Vec` model; after
    /// each burst, `get`, `get_mut`, `Index` and `IndexMut` agree with
    /// the model around every segment boundary and at one past the
    /// length, and a random sample of indices reads the model's values.
    #[test]
    fn random_pushes_and_writes_match_a_vec() {
        use rng::props::cases;
        use rng::{Rng, RngCore};

        cases(8, |_case, rng| {
            let mut s = Segmented::new("model table");
            let mut model: Vec<u64> = Vec::new();
            let target = rng.gen_range(1..20_000usize);
            while model.len() < target {
                for _ in 0..rng.gen_range(1..2_000u32) {
                    let v = rng.next_u64();
                    assert_eq!(s.push(v) as usize, model.len());
                    model.push(v);
                }
                for _ in 0..64 {
                    let i = rng.gen_range(0..model.len());
                    let v = rng.next_u64();
                    if rng.gen_bool(0.5) {
                        s[i as u32] = v;
                    } else {
                        *s.get_mut(i as u32).expect("in bounds") = v;
                    }
                    model[i] = v;
                }
                assert_eq!(s.len(), model.len());
                let len = model.len() as u32;
                let mut probes = boundaries();
                probes.extend(boundaries().iter().map(|b| b.wrapping_sub(1)));
                probes.extend([len - 1, len, len + 1, MAX_LEN, u32::MAX]);
                probes.extend((0..64).map(|_| rng.gen_range(0..len)));
                for i in probes {
                    let want = model.get(i as usize).copied();
                    assert_eq!(s.get(i).copied(), want, "get({i}) at len {len}");
                    assert_eq!(s.get_mut(i).map(|v| *v), want, "get_mut({i})");
                    if let Some(w) = want {
                        assert_eq!(s[i], w, "index {i}");
                        s[i] = w ^ 1;
                        assert_eq!(s[i], w ^ 1, "index_mut {i}");
                        s[i] = w;
                    }
                }
            }
            for (i, &v) in model.iter().enumerate() {
                assert_eq!(s[i as u32], v);
            }
        });
    }

    /// An element keeps its address however far the table grows: a
    /// doubling `Vec` moves its first element on the first push past
    /// its capacity.
    #[test]
    fn elements_never_move() {
        let mut s = Segmented::new("stable table");
        for v in 0..=1_000u64 {
            s.push(v);
        }
        let probes = [0u32, 63, 64, 1_000];
        let addrs: Vec<*const u64> = probes.iter().map(|&i| &s[i] as *const u64).collect();
        for v in 0..100_000u64 {
            s.push(v);
        }
        for (&i, &addr) in probes.iter().zip(&addrs) {
            assert_eq!(&s[i] as *const u64, addr, "element {i} moved");
            assert_eq!(s[i], u64::from(i));
        }
        let allocated = s.segs.iter().take_while(|seg| seg.capacity() > 0).count();
        assert_eq!(allocated, 11, "64 · (2^11 − 1) ≥ 101,001 > 64 · (2^10 − 1)");
        for (k, seg) in s.segs.iter().enumerate() {
            let want = if k < allocated { 64 << k } else { 0 };
            assert_eq!(seg.capacity(), want, "segment {k} was reallocated");
        }
    }

    #[test]
    fn out_of_bounds_index_names_the_table() {
        let mut s = Segmented::new("the probe table");
        s.push(1u8);
        for i in [1, 64, MAX_LEN, u32::MAX] {
            let err = catch_unwind(AssertUnwindSafe(|| s[i])).expect_err("out of bounds");
            let msg = err.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains("the probe table"), "{msg}");
            let err = catch_unwind(AssertUnwindSafe(|| s[i] = 2)).expect_err("out of bounds");
            let msg = err.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains("the probe table"), "{msg}");
        }
    }

    /// The push that would make `i + 64` overflow a `u32` panics with
    /// the table's name and leaves the table as it was. The length is
    /// fast-forwarded: a table of zero-sized elements holds nothing in
    /// its segments, and the check runs before any segment is touched.
    #[test]
    #[should_panic(expected = "the full table exceeds 4294967232 entries")]
    fn push_past_the_last_segment_panics_with_the_name() {
        let mut s = Segmented::new("the full table");
        s.len = MAX_LEN;
        s.push(());
    }
}
