//! Typed column planes: one contiguous value vector plus a null bitmap.
//!
//! The columnar backend stores each column as a *plane* — `Vec<i64>`,
//! `Vec<f64>`, `Vec<bool>`, or dictionary codes `Vec<u32>` — with nullness
//! tracked out-of-band in a packed [`NullBitmap`]. Hot loops (joins,
//! filters, featurization) read the value vector directly with no per-cell
//! enum dispatch, no `Option` boxing, and no string clones.

use crate::dict::Dict;
use std::sync::Arc;

/// A packed bitmap marking which rows are null (bit set ⇒ null).
///
/// Trailing bits past `len` are always zero, so two bitmaps with equal
/// contents compare equal structurally.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NullBitmap {
    bits: Vec<u64>,
    len: usize,
}

impl NullBitmap {
    /// An empty bitmap.
    pub fn new() -> NullBitmap {
        NullBitmap::default()
    }

    /// An empty bitmap with room for `cap` rows.
    pub fn with_capacity(cap: usize) -> NullBitmap {
        NullBitmap {
            bits: Vec::with_capacity(cap.div_ceil(64)),
            len: 0,
        }
    }

    /// Number of rows tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no rows are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one row's nullness.
    pub fn push(&mut self, is_null: bool) {
        let word = self.len / 64;
        if word == self.bits.len() {
            self.bits.push(0);
        }
        if is_null {
            self.bits[word] |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    /// `true` iff row `row` is null. Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize) -> bool {
        assert!(
            row < self.len,
            "bitmap row {row} out of bounds ({})",
            self.len
        );
        self.bits[row / 64] >> (row % 64) & 1 == 1
    }

    /// Overwrite row `row`'s nullness. Panics if out of bounds.
    pub fn set(&mut self, row: usize, is_null: bool) {
        assert!(
            row < self.len,
            "bitmap row {row} out of bounds ({})",
            self.len
        );
        let mask = 1u64 << (row % 64);
        if is_null {
            self.bits[row / 64] |= mask;
        } else {
            self.bits[row / 64] &= !mask;
        }
    }

    /// Number of null rows.
    pub fn count_nulls(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bitmap with the rows at `indices` (callers bounds-check).
    pub fn take(&self, indices: &[usize]) -> NullBitmap {
        let mut out = NullBitmap::with_capacity(indices.len());
        for &i in indices {
            out.push(self.get(i));
        }
        out
    }

    /// Append all rows of `other`.
    pub fn extend_from(&mut self, other: &NullBitmap) {
        for i in 0..other.len {
            self.push(other.get(i));
        }
    }
}

/// A plane of `Copy` primitives (`i64`, `f64`, `bool`) with a null bitmap.
///
/// Null rows hold `T::default()` padding in `values` so the vector stays
/// densely initialized; readers must consult `nulls` before trusting a slot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PrimPlane<T: Copy + Default> {
    /// Row values; null rows hold `T::default()` padding.
    pub values: Vec<T>,
    /// Which rows are null.
    pub nulls: NullBitmap,
}

impl<T: Copy + Default> PrimPlane<T> {
    /// An empty plane.
    pub fn new() -> PrimPlane<T> {
        PrimPlane {
            values: Vec::new(),
            nulls: NullBitmap::new(),
        }
    }

    /// An empty plane with capacity for `cap` rows.
    pub fn with_capacity(cap: usize) -> PrimPlane<T> {
        PrimPlane {
            values: Vec::with_capacity(cap),
            nulls: NullBitmap::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the plane has no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Append a present value.
    pub fn push(&mut self, v: T) {
        self.values.push(v);
        self.nulls.push(false);
    }

    /// Append a null row.
    pub fn push_null(&mut self) {
        self.values.push(T::default());
        self.nulls.push(true);
    }

    /// The value at `row`, or `None` if null.
    #[inline]
    pub fn get(&self, row: usize) -> Option<T> {
        if self.nulls.get(row) {
            None
        } else {
            Some(self.values[row])
        }
    }

    /// Overwrite `row` (null padding is normalized to `T::default()`).
    pub fn set(&mut self, row: usize, v: Option<T>) {
        match v {
            Some(x) => {
                self.values[row] = x;
                self.nulls.set(row, false);
            }
            None => {
                self.values[row] = T::default();
                self.nulls.set(row, true);
            }
        }
    }

    /// Plane with the rows at `indices` (callers bounds-check).
    pub fn take(&self, indices: &[usize]) -> PrimPlane<T> {
        PrimPlane {
            values: indices.iter().map(|&i| self.values[i]).collect(),
            nulls: self.nulls.take(indices),
        }
    }

    /// Plane gathering `indices`, writing null rows for `None` slots —
    /// the outer-join gather.
    pub fn take_opt(&self, indices: &[Option<usize>]) -> PrimPlane<T> {
        let mut out = PrimPlane::with_capacity(indices.len());
        for &i in indices {
            match i {
                Some(i) if !self.nulls.get(i) => out.push(self.values[i]),
                _ => out.push_null(),
            }
        }
        out
    }

    /// Append all rows of `other`.
    pub fn extend_from(&mut self, other: &PrimPlane<T>) {
        self.values.extend_from_slice(&other.values);
        self.nulls.extend_from(&other.nulls);
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        self.nulls.count_nulls()
    }
}

/// Integer plane.
pub type I64Plane = PrimPlane<i64>;
/// Float plane.
pub type F64Plane = PrimPlane<f64>;
/// Boolean plane.
pub type BoolPlane = PrimPlane<bool>;

/// A dictionary-encoded string plane: per-row `u32` codes into a shared
/// [`Dict`], plus a null bitmap. Null rows hold code `0` padding.
///
/// The dictionary is shared (`Arc`) across tables produced by `take`,
/// `filter`, and joins, so those operations gather 4-byte codes and never
/// touch string heap data.
#[derive(Debug, Clone, Default)]
pub struct StrPlane {
    dict: Arc<Dict>,
    /// Per-row dictionary codes; null rows hold `0` padding.
    pub codes: Vec<u32>,
    /// Which rows are null.
    pub nulls: NullBitmap,
}

impl StrPlane {
    /// An empty plane with its own empty dictionary.
    pub fn new() -> StrPlane {
        StrPlane::default()
    }

    /// An empty plane with capacity for `cap` rows.
    pub fn with_capacity(cap: usize) -> StrPlane {
        StrPlane {
            dict: Arc::new(Dict::new()),
            codes: Vec::with_capacity(cap),
            nulls: NullBitmap::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// `true` if the plane has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The shared dictionary.
    pub fn dict(&self) -> &Dict {
        &self.dict
    }

    /// Append a present string, interning it.
    pub fn push(&mut self, s: &str) {
        let code = Arc::make_mut(&mut self.dict).intern(s);
        self.codes.push(code);
        self.nulls.push(false);
    }

    /// Append a null row.
    pub fn push_null(&mut self) {
        self.codes.push(0);
        self.nulls.push(true);
    }

    /// The string at `row`, or `None` if null.
    #[inline]
    pub fn get(&self, row: usize) -> Option<&str> {
        if self.nulls.get(row) {
            None
        } else {
            Some(self.dict.value(self.codes[row]))
        }
    }

    /// Overwrite `row` (null padding is normalized to code `0`). Only a
    /// string new to the dictionary writes to it, so writing a known string
    /// never copies a dictionary shared with other planes.
    pub fn set(&mut self, row: usize, v: Option<&str>) {
        match v {
            Some(s) => {
                let code = match self.dict.code_of(s) {
                    Some(code) => code,
                    None => Arc::make_mut(&mut self.dict).intern(s),
                };
                self.codes[row] = code;
                self.nulls.set(row, false);
            }
            None => {
                self.codes[row] = 0;
                self.nulls.set(row, true);
            }
        }
    }

    /// Plane with the rows at `indices`: gathers codes, shares the dict.
    pub fn take(&self, indices: &[usize]) -> StrPlane {
        let mut codes = Vec::with_capacity(indices.len());
        let mut nulls = NullBitmap::with_capacity(indices.len());
        for &i in indices {
            let null = self.nulls.get(i);
            codes.push(if null { 0 } else { self.codes[i] });
            nulls.push(null);
        }
        StrPlane {
            dict: Arc::clone(&self.dict),
            codes,
            nulls,
        }
    }

    /// Plane gathering `indices`, null rows for `None` slots; shares the dict.
    pub fn take_opt(&self, indices: &[Option<usize>]) -> StrPlane {
        let mut codes = Vec::with_capacity(indices.len());
        let mut nulls = NullBitmap::with_capacity(indices.len());
        for &i in indices {
            match i {
                Some(i) if !self.nulls.get(i) => {
                    codes.push(self.codes[i]);
                    nulls.push(false);
                }
                _ => {
                    codes.push(0);
                    nulls.push(true);
                }
            }
        }
        StrPlane {
            dict: Arc::clone(&self.dict),
            codes,
            nulls,
        }
    }

    /// Append all rows of `other`. When the dictionaries are the same `Arc`
    /// the codes transfer directly; otherwise `other`'s codes are remapped
    /// through one intern per *distinct* value.
    pub fn extend_from(&mut self, other: &StrPlane) {
        if Arc::ptr_eq(&self.dict, &other.dict) {
            self.codes.extend_from_slice(&other.codes);
            self.nulls.extend_from(&other.nulls);
            return;
        }
        let dict = Arc::make_mut(&mut self.dict);
        let remap: Vec<u32> = other.dict.values().iter().map(|s| dict.intern(s)).collect();
        for row in 0..other.len() {
            if other.nulls.get(row) {
                self.codes.push(0);
                self.nulls.push(true);
            } else {
                self.codes.push(remap[other.codes[row] as usize]);
                self.nulls.push(false);
            }
        }
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        self.nulls.count_nulls()
    }

    /// Per-distinct-value row counts, indexed by code, plus the null count —
    /// the dictionary fast path behind `Table::value_counts`.
    pub fn code_counts(&self) -> (Vec<usize>, usize) {
        let mut counts = vec![0usize; self.dict.len()];
        let mut nulls = 0usize;
        for row in 0..self.len() {
            if self.nulls.get(row) {
                nulls += 1;
            } else {
                counts[self.codes[row] as usize] += 1;
            }
        }
        (counts, nulls)
    }
}

/// String planes are equal iff they hold the same logical string per row —
/// dictionaries with different code assignments can still compare equal.
impl PartialEq for StrPlane {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        if Arc::ptr_eq(&self.dict, &other.dict) || self.dict == other.dict {
            return self.codes == other.codes && self.nulls == other.nulls;
        }
        (0..self.len()).all(|row| self.get(row) == other.get(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_push_get_set() {
        let mut b = NullBitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        assert!(b.get(0));
        assert!(!b.get(1));
        assert!(b.get(129));
        assert_eq!(b.count_nulls(), 44);
        b.set(0, false);
        b.set(1, true);
        assert!(!b.get(0));
        assert!(b.get(1));
        assert_eq!(b.count_nulls(), 44);
    }

    #[test]
    fn bitmap_take_and_extend() {
        let mut b = NullBitmap::new();
        b.push(true);
        b.push(false);
        b.push(true);
        let t = b.take(&[2, 1, 1]);
        assert!(t.get(0));
        assert!(!t.get(1));
        assert!(!t.get(2));
        let mut c = NullBitmap::new();
        c.push(false);
        c.extend_from(&b);
        assert_eq!(c.len(), 4);
        assert!(c.get(1));
    }

    #[test]
    fn prim_plane_roundtrip() {
        let mut p: I64Plane = PrimPlane::new();
        p.push(7);
        p.push_null();
        p.push(-3);
        assert_eq!(p.get(0), Some(7));
        assert_eq!(p.get(1), None);
        assert_eq!(p.null_count(), 1);
        p.set(1, Some(5));
        p.set(0, None);
        assert_eq!(p.get(0), None);
        assert_eq!(p.get(1), Some(5));
        // Null padding is normalized, so structurally equal planes compare equal.
        assert_eq!(p.values[0], 0);
        let t = p.take(&[2, 2, 0]);
        assert_eq!(t.get(0), Some(-3));
        assert_eq!(t.get(2), None);
        let o = p.take_opt(&[Some(1), None, Some(0)]);
        assert_eq!(o.get(0), Some(5));
        assert_eq!(o.get(1), None);
        assert_eq!(o.get(2), None);
    }

    #[test]
    fn str_plane_interns_and_shares_dict() {
        let mut p = StrPlane::new();
        p.push("a");
        p.push("b");
        p.push("a");
        p.push_null();
        assert_eq!(p.dict().len(), 2);
        assert_eq!(p.codes, vec![0, 1, 0, 0]);
        assert_eq!(p.get(2), Some("a"));
        assert_eq!(p.get(3), None);
        let t = p.take(&[1, 3]);
        assert!(Arc::ptr_eq(&p.dict, &t.dict));
        assert_eq!(t.get(0), Some("b"));
        assert_eq!(t.get(1), None);
    }

    #[test]
    fn str_plane_set_copies_a_shared_dict_only_for_a_new_string() {
        let mut p = StrPlane::new();
        p.push("a");
        p.push("b");
        let mut t = p.take(&[0, 1]);
        t.set(0, Some("b"));
        assert!(Arc::ptr_eq(&p.dict, &t.dict), "known string: dict shared");
        assert_eq!(t.get(0), Some("b"));
        t.set(1, Some("c"));
        assert!(!Arc::ptr_eq(&p.dict, &t.dict), "new string: dict copied");
        assert_eq!((t.get(0), t.get(1)), (Some("b"), Some("c")));
        assert_eq!(
            (p.get(0), p.get(1), p.dict().len()),
            (Some("a"), Some("b"), 2)
        );
    }

    #[test]
    fn str_plane_extend_remaps_codes() {
        let mut a = StrPlane::new();
        a.push("x");
        let mut b = StrPlane::new();
        b.push("y");
        b.push("x");
        b.push_null();
        a.extend_from(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.get(1), Some("y"));
        assert_eq!(a.get(2), Some("x"));
        assert_eq!(a.get(3), None);
        // Logical equality across different dictionaries.
        let mut c = StrPlane::new();
        c.push("x");
        c.push("y");
        c.push("x");
        c.push_null();
        assert_eq!(a, c);
    }

    #[test]
    fn str_plane_code_counts() {
        let mut p = StrPlane::new();
        for s in ["a", "b", "a", "a"] {
            p.push(s);
        }
        p.push_null();
        let (counts, nulls) = p.code_counts();
        assert_eq!(counts, vec![3, 1]);
        assert_eq!(nulls, 1);
    }
}
