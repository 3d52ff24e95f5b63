//! The flat row store: a bag of equal-width tuples in one buffer.
//!
//! A [`Rows`] holds every cell of its rows, row after row, in a single
//! `Vec<Value>` — a row is a position in the store, read as a `&[Value]`
//! slice, not a heap block of its own. The store keeps its row count
//! explicitly (a nullary relation holds rows with no cells, so the count
//! cannot be derived from the cells) and a *generation* stamp that
//! derived views (the columnar encoding, ordered indexes) validate on.
//!
//! The store is append-only: it grows by [`Rows::push`],
//! [`Rows::push_row`], [`Rows::extend_from`] and their kin, or is replaced
//! whole; no row is overwritten in place. Every mutation goes through
//! `&mut self` and clears the stamp, and the next [`Rows::generation`]
//! draws a fresh one from a process-wide counter — so a view built at one
//! generation can never be served for different contents, and two clones
//! that diverge never share a stamp.

use crate::value::Value;
use std::fmt;
use std::ops::{Index, Range};
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of generation stamps; `0` is reserved for "not stamped yet".
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

/// A bag of rows of one arity, stored flat: every cell in one buffer,
/// row `i` at cells `i·arity .. (i+1)·arity`.
///
/// - The row count is kept, not derived: rows of arity 0 have no cells.
/// - The store only grows — [`Rows::push`], [`Rows::push_row`],
///   [`Rows::push_iter`], [`Rows::try_push_iter`], [`Rows::extend_from`],
///   [`Rows::append`] — or is replaced whole; there is no `IndexMut`.
/// - Every mutation clears the generation stamp; [`Rows::generation`]
///   draws a fresh one on the next read. Equality ignores the stamp.
pub struct Rows {
    cells: Vec<Value>,
    arity: usize,
    len: usize,
    /// The generation, or `0` when a mutation cleared it and no lookup has
    /// drawn a new one since.
    stamp: AtomicU64,
}

impl Rows {
    /// An empty store of rows `arity` values wide.
    pub fn new(arity: usize) -> Rows {
        Rows::with_capacity(arity, 0)
    }

    /// An empty store with room for `rows` rows.
    pub fn with_capacity(arity: usize, rows: usize) -> Rows {
        Rows {
            cells: Vec::with_capacity(arity * rows),
            arity,
            len: 0,
            stamp: AtomicU64::new(0),
        }
    }

    /// A store holding `rows`, moved in order.
    ///
    /// # Panics
    /// Panics when a row is not `arity` values wide.
    pub fn from_vecs(arity: usize, rows: Vec<Vec<Value>>) -> Rows {
        let mut out = Rows::with_capacity(arity, rows.len());
        for row in rows {
            out.push(row);
        }
        out
    }

    /// Values per row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows (bag cardinality).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<&[Value]> {
        (i < self.len).then(|| &self.cells[i * self.arity..(i + 1) * self.arity])
    }

    /// The rows, in order.
    pub fn iter(&self) -> Iter<'_> {
        self.range(0..self.len)
    }

    /// The rows in `range`, in order.
    ///
    /// # Panics
    /// Panics when `range` reaches past the last row.
    pub fn range(&self, range: Range<usize>) -> Iter<'_> {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "row range {range:?} out of bounds for {} rows",
            self.len
        );
        Iter {
            cells: &self.cells[range.start * self.arity..range.end * self.arity],
            arity: self.arity,
            left: range.end - range.start,
        }
    }

    /// The bytes the store's cells occupy, counting a nullary row as one
    /// cell: what a guarded build or append charges for holding them.
    pub fn bytes(&self) -> usize {
        self.len * self.arity.max(1) * std::mem::size_of::<Value>()
    }

    /// The store's generation: equal for two reads exactly when no
    /// mutation happened between them. Never `0`.
    ///
    /// `Relaxed` suffices: a stamp names contents and publishes none. The
    /// contents change only through `&mut self`, and a cache that compares
    /// stamps guards the view it serves with a lock of its own.
    pub fn generation(&self) -> u64 {
        match self.stamp.load(Ordering::Relaxed) {
            0 => {
                let fresh = NEXT_GENERATION.fetch_add(1, Ordering::Relaxed);
                match (self.stamp).compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => fresh,
                    Err(won) => won,
                }
            }
            g => g,
        }
    }

    /// Clear the stamp: the contents are about to change.
    fn touch(&mut self) {
        *self.stamp.get_mut() = 0;
    }

    /// Make room for `rows` more rows.
    pub fn reserve(&mut self, rows: usize) {
        self.cells.reserve(rows * self.arity);
    }

    /// Append one row, moving its values.
    ///
    /// # Panics
    /// Panics when the row is not [`Rows::arity`] values wide.
    pub fn push(&mut self, row: Vec<Value>) {
        self.check(row.len());
        self.touch();
        self.cells.extend(row);
        self.len += 1;
    }

    /// Append a copy of one row.
    ///
    /// # Panics
    /// Panics when the row is not [`Rows::arity`] values wide.
    pub fn push_row(&mut self, row: &[Value]) {
        self.check(row.len());
        self.touch();
        self.cells.extend_from_slice(row);
        self.len += 1;
    }

    /// Append one row written value by value.
    ///
    /// # Panics
    /// Panics when `values` yields other than [`Rows::arity`] values.
    pub fn push_iter(&mut self, values: impl IntoIterator<Item = Value>) {
        let start = self.cells.len();
        self.touch();
        self.cells.extend(values);
        self.check(self.cells.len() - start);
        self.len += 1;
    }

    /// Append one row written value by value, each of which may fail: the
    /// first error leaves the store as it was and is returned.
    ///
    /// # Panics
    /// Panics when `values` yields other than [`Rows::arity`] values.
    pub fn try_push_iter<E>(
        &mut self,
        values: impl IntoIterator<Item = Result<Value, E>>,
    ) -> Result<(), E> {
        let start = self.cells.len();
        self.touch();
        for v in values {
            match v {
                Ok(v) => self.cells.push(v),
                Err(e) => {
                    self.cells.truncate(start);
                    return Err(e);
                }
            }
        }
        self.check(self.cells.len() - start);
        self.len += 1;
        Ok(())
    }

    /// Append a copy of every row of `other`, in order.
    ///
    /// # Panics
    /// Panics when the two stores differ in arity.
    pub fn extend_from(&mut self, other: &Rows) {
        self.check(other.arity);
        self.touch();
        self.cells.extend_from_slice(&other.cells);
        self.len += other.len;
    }

    /// Append every row of `other`, in order, moving its values.
    ///
    /// # Panics
    /// Panics when the two stores differ in arity.
    pub fn append(&mut self, mut other: Rows) {
        self.check(other.arity);
        if self.is_empty() {
            other.touch();
            *self = other;
            return;
        }
        self.touch();
        self.cells.append(&mut other.cells);
        self.len += other.len;
    }

    /// The store of the rows whose `keep` entry is true, in order, their
    /// values moved.
    ///
    /// # Panics
    /// Panics when `keep` has other than [`Rows::len`] entries.
    pub fn filter(mut self, keep: &[bool]) -> Rows {
        assert_eq!(keep.len(), self.len, "one verdict per row");
        let arity = self.arity;
        let mut at = 0;
        self.cells.retain(|_| {
            at += 1;
            keep[(at - 1) / arity]
        });
        self.len = keep.iter().filter(|&&k| k).count();
        self.touch();
        self
    }

    /// Every row as a vector of its own.
    pub fn to_vecs(&self) -> Vec<Vec<Value>> {
        self.iter().map(<[Value]>::to_vec).collect()
    }

    fn check(&self, width: usize) {
        assert_eq!(
            width, self.arity,
            "a row of {width} values in a store of arity {}",
            self.arity
        );
    }
}

impl Clone for Rows {
    /// A copy of the rows, unstamped: it draws a generation of its own.
    fn clone(&self) -> Rows {
        Rows {
            cells: self.cells.clone(),
            arity: self.arity,
            len: self.len,
            stamp: AtomicU64::new(0),
        }
    }
}

impl PartialEq for Rows {
    /// Same arity, same rows in the same order; the stamp is ignored.
    fn eq(&self, other: &Rows) -> bool {
        self.arity == other.arity && self.len == other.len && self.cells == other.cells
    }
}
impl Eq for Rows {}

impl PartialEq<Vec<Vec<Value>>> for Rows {
    /// The same rows in the same order as the vectors of `other`.
    fn eq(&self, other: &Vec<Vec<Value>>) -> bool {
        self.len == other.len() && self.iter().zip(other).all(|(a, b)| a == &b[..])
    }
}

impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Index<usize> for Rows {
    type Output = [Value];

    fn index(&self, i: usize) -> &[Value] {
        match self.get(i) {
            Some(row) => row,
            None => panic!("row {i} out of bounds for {} rows", self.len),
        }
    }
}

impl<'r> IntoIterator for &'r Rows {
    type Item = &'r [Value];
    type IntoIter = Iter<'r>;

    fn into_iter(self) -> Iter<'r> {
        self.iter()
    }
}

/// The rows of a [`Rows`] (or a range of them), as slices.
#[derive(Clone)]
pub struct Iter<'r> {
    cells: &'r [Value],
    arity: usize,
    left: usize,
}

impl<'r> Iterator for Iter<'r> {
    type Item = &'r [Value];

    #[inline]
    fn next(&mut self) -> Option<&'r [Value]> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let (row, rest) = self.cells.split_at(self.arity);
        self.cells = rest;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }

    fn nth(&mut self, n: usize) -> Option<&'r [Value]> {
        let skip = n.min(self.left);
        self.cells = &self.cells[skip * self.arity..];
        self.left -= skip;
        self.next()
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(rows: &[&[i64]]) -> Rows {
        let arity = rows.first().map_or(0, |r| r.len());
        let mut out = Rows::new(arity);
        for row in rows {
            out.push_iter(row.iter().map(|&v| Value::Int(v)));
        }
        out
    }

    #[test]
    fn rows_read_back_as_slices_in_order() {
        let rows = ints(&[&[1, 2], &[3, 4], &[5, 6]]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1], [Value::Int(3), Value::Int(4)]);
        let firsts: Vec<&Value> = rows.iter().map(|r| &r[0]).collect();
        assert_eq!(firsts, [&Value::Int(1), &Value::Int(3), &Value::Int(5)]);
        assert_eq!(rows.range(1..3).len(), 2);
        assert_eq!(rows.iter().nth(2), Some(&rows[2]));
        assert_eq!(rows.iter().step_by(2).count(), 2);
        assert_eq!(rows.get(3), None);
    }

    #[test]
    fn nullary_rows_are_counted_not_derived() {
        let mut rows = Rows::new(0);
        rows.push(vec![]);
        rows.push_row(&[]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.iter().count(), 2);
        assert!(rows.iter().all(<[Value]>::is_empty));
        assert_eq!(rows.bytes(), 2 * std::mem::size_of::<Value>());
        assert_eq!(rows.clone().filter(&[true, false]).len(), 1);
    }

    #[test]
    fn every_mutation_moves_the_generation() {
        let mut rows = ints(&[&[1]]);
        let g = rows.generation();
        assert_ne!(g, 0);
        assert_eq!(rows.generation(), g, "stable while unchanged");
        rows.push_row(&[Value::Int(2)]);
        let pushed = rows.generation();
        assert_ne!(pushed, g);
        rows.extend_from(&ints(&[&[3]]));
        let extended = rows.generation();
        assert_ne!(extended, pushed);
        // A failed write leaves the contents, not necessarily the stamp.
        let err: Result<(), &str> = rows.try_push_iter([Ok(Value::Int(9)), Err("no")]);
        assert_eq!(err, Err("no"));
        assert_eq!(rows, ints(&[&[1], &[2], &[3]]));
    }

    #[test]
    fn diverging_clones_never_share_a_generation() {
        let rows = ints(&[&[1]]);
        let (mut a, mut b) = (rows.clone(), rows.clone());
        a.push_row(&[Value::Int(2)]);
        b.push_row(&[Value::Int(3)]);
        assert_ne!(a.generation(), b.generation());
        assert_ne!(a.generation(), rows.generation());
        assert_eq!(rows, rows.clone(), "equality ignores the stamp");
    }

    #[test]
    fn filter_and_append_move_rows_in_order() {
        let rows = ints(&[&[1, 1], &[2, 2], &[3, 3]]);
        let kept = rows.filter(&[true, false, true]);
        assert_eq!(kept, ints(&[&[1, 1], &[3, 3]]));
        let mut all = Rows::new(2);
        all.append(kept);
        all.append(ints(&[&[4, 4]]));
        assert_eq!(all, ints(&[&[1, 1], &[3, 3], &[4, 4]]));
    }

    #[test]
    #[should_panic(expected = "a row of 1 values in a store of arity 2")]
    fn a_row_of_the_wrong_width_panics() {
        Rows::new(2).push(vec![Value::Int(1)]);
    }
}
