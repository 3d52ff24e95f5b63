//! Columnar chunk storage and vectorized kernels.
//!
//! A [`ColumnSet`] is a typed, chunked encoding of a bag of tuples: rows
//! are split into fixed-size chunks of [`CHUNK_ROWS`], and each chunk
//! stores one [`ColumnChunk`] per schema position — a contiguous typed
//! array (`Vec<i64>`, `Vec<f64>`, …) plus an optional validity bitmap
//! (bit set ⇔ the slot is non-`NULL`). Columns whose non-null values mix
//! types fall back to a `Vec<Value>` payload; all-`NULL` columns store no
//! payload at all.
//!
//! The kernels here are the vectorized counterparts of the engine's
//! row-at-a-time evaluation and replicate its semantics *exactly*:
//!
//! - [`ColumnChunk::and_cmp`] / [`ColumnChunk::and_is_null`] narrow a
//!   per-chunk [`Mask`] by a constant comparison / null test, with the
//!   same three-valued acceptance rule as the row path (only `True`
//!   passes — which makes constant filters convention-independent, see
//!   [`cmp_truth`]);
//! - [`ColumnChunk::and_offset_cmp`] narrows it by `(row ± offset) op
//!   rhs` over an `Int` or `Float` payload, with the evaluator's
//!   arithmetic (`Int` wraps, `NULL` propagates) — the engine's
//!   per-entry kernel for a filter like `r.B - s.B > t.B`, whose offset
//!   and right side are fixed once the earlier frames are bound;
//! - [`ColumnChunk::join_keys_into`] computes equi-join keys for a whole
//!   column slice with [`Value::join_key`] semantics (`NULL`/`NaN` never
//!   join, integral floats normalize to integer keys) — what `ANALYZE`
//!   reads string and mixed chunks through; it folds `Int`, `Float` and
//!   `Bool` chunks straight off [`ColumnChunk::data`].
//!
//! Invalid (null) slots in a typed payload hold placeholder defaults, so
//! every kernel masks with validity before trusting the payload.

use crate::ast::{ArithOp, CmpOp};
use crate::rows::{Iter as RowIter, Rows};
use crate::value::{cmp_truth, ord_satisfies, Key, Value};

/// Rows per chunk. Chosen so a typical chunk's working set (a few typed
/// arrays plus a mask) stays cache-resident while amortizing per-chunk
/// dispatch over enough rows to be negligible.
pub const CHUNK_ROWS: usize = 1024;

/// The typed payload of one column within one chunk.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// All non-null values are integers.
    Int(Vec<i64>),
    /// All non-null values are floats (`NaN` included — `NaN` is a value,
    /// not a `NULL`, even though it never equi-joins).
    Float(Vec<f64>),
    /// All non-null values are booleans.
    Bool(Vec<bool>),
    /// All non-null values are strings.
    Str(Vec<String>),
    /// Non-null values mix types: stored as verbatim [`Value`]s
    /// (including any `NULL`s) and evaluated per-slot via [`cmp_truth`].
    Mixed(Vec<Value>),
    /// Every slot is `NULL`: no payload array at all.
    Null,
}

/// One column of one chunk: typed payload + validity bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnChunk {
    data: ColumnData,
    /// One bit per row, set ⇔ non-`NULL`. `None` ⇔ no nulls in the chunk.
    /// Invalid slots in a typed payload hold placeholder defaults.
    validity: Option<Vec<u64>>,
    len: usize,
}

impl ColumnChunk {
    /// Encode column `col` of the given rows.
    fn encode(rows: RowIter<'_>, col: usize) -> ColumnChunk {
        let len = rows.len();
        let mut nulls = 0usize;
        let mut tag: Option<u8> = None;
        let mut mixed = false;
        for row in rows.clone() {
            match &row[col] {
                Value::Null => nulls += 1,
                v => {
                    let t = match v {
                        Value::Bool(_) => 0u8,
                        Value::Int(_) => 1,
                        Value::Float(_) => 2,
                        Value::Str(_) => 3,
                        Value::Null => unreachable!("matched above"),
                    };
                    match tag {
                        None => tag = Some(t),
                        Some(p) if p == t => {}
                        Some(_) => mixed = true,
                    }
                }
            }
        }
        let validity = if nulls == 0 {
            None
        } else {
            let mut words = vec![0u64; len.div_ceil(64)];
            for (i, row) in rows.clone().enumerate() {
                if !row[col].is_null() {
                    words[i / 64] |= 1 << (i % 64);
                }
            }
            Some(words)
        };
        let data = if mixed {
            ColumnData::Mixed(rows.clone().map(|r| r[col].clone()).collect())
        } else {
            match tag {
                None => ColumnData::Null,
                Some(0) => ColumnData::Bool(
                    rows.clone()
                        .map(|r| match &r[col] {
                            Value::Bool(b) => *b,
                            _ => false,
                        })
                        .collect(),
                ),
                Some(1) => ColumnData::Int(
                    rows.clone()
                        .map(|r| match &r[col] {
                            Value::Int(i) => *i,
                            _ => 0,
                        })
                        .collect(),
                ),
                Some(2) => ColumnData::Float(
                    rows.clone()
                        .map(|r| match &r[col] {
                            Value::Float(f) => *f,
                            _ => 0.0,
                        })
                        .collect(),
                ),
                _ => ColumnData::Str(
                    rows.clone()
                        .map(|r| match &r[col] {
                            Value::Str(s) => s.clone(),
                            _ => String::new(),
                        })
                        .collect(),
                ),
            }
        };
        ColumnChunk {
            data,
            validity,
            len,
        }
    }

    /// Rows in this chunk.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the chunk has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The typed payload (invalid slots hold placeholder defaults — mask
    /// with [`ColumnChunk::is_valid`] / the validity words before use).
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// True when slot `i` is non-`NULL`.
    pub fn is_valid(&self, i: usize) -> bool {
        match &self.data {
            ColumnData::Null => false,
            _ => self
                .validity
                .as_ref()
                .is_none_or(|w| (w[i / 64] >> (i % 64)) & 1 == 1),
        }
    }

    /// Decode slot `i` back to a [`Value`].
    pub fn value(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(xs) => Value::Int(xs[i]),
            ColumnData::Float(xs) => Value::Float(xs[i]),
            ColumnData::Bool(xs) => Value::Bool(xs[i]),
            ColumnData::Str(xs) => Value::Str(xs[i].clone()),
            ColumnData::Mixed(vs) => vs[i].clone(),
            ColumnData::Null => Value::Null,
        }
    }

    /// Narrow `mask` to the rows where `row op rhs` is `True`.
    ///
    /// Exactly the row path's acceptance rule: `NULL` operands and `NaN`
    /// orderings never pass, heterogeneous values pass only `Ne` — so the
    /// kernel is correct under both null conventions (`Unknown` and
    /// `False` both fail a filter).
    pub fn and_cmp(&self, op: CmpOp, rhs: &Value, mask: &mut Mask) {
        if rhs.is_null() {
            mask.clear_all();
            return;
        }
        // NULL rows compare as Unknown: never True.
        if let Some(words) = &self.validity {
            mask.and_words(words);
        }
        match (&self.data, rhs) {
            (ColumnData::Null, _) => mask.clear_all(),
            (ColumnData::Int(xs), Value::Int(c)) => and_where_cmp(mask, xs, |x| x, op, *c),
            // NaN: incomparable — the float operators answer exactly as
            // `cmp_truth` does (only `Ne` holds).
            (ColumnData::Int(xs), Value::Float(c)) => and_where_cmp(mask, xs, |x| x as f64, op, *c),
            (ColumnData::Float(xs), Value::Int(c)) => and_where_cmp(mask, xs, |x| x, op, *c as f64),
            (ColumnData::Float(xs), Value::Float(c)) => and_where_cmp(mask, xs, |x| x, op, *c),
            (ColumnData::Bool(xs), Value::Bool(c)) => {
                let c = *c;
                mask.retain(|i| ord_satisfies(xs[i].cmp(&c), op));
            }
            (ColumnData::Str(xs), Value::Str(c)) => {
                let c = c.as_str();
                mask.retain(|i| ord_satisfies(xs[i].as_str().cmp(c), op));
            }
            (ColumnData::Mixed(vs), _) => {
                mask.retain(|i| cmp_truth(&vs[i], op, rhs).is_true());
            }
            // Heterogeneous column/constant types: incomparable for every
            // valid row (Ne passes, everything else fails).
            _ => {
                if op != CmpOp::Ne {
                    mask.clear_all();
                }
            }
        }
    }

    /// Narrow `mask` to the rows where `(row ⊕ offset) op rhs` is
    /// `True`, `⊕` being `Add` or `Sub`: exactly `cmp_truth` over the
    /// evaluator's arithmetic — `Int ⊕ Int` wraps and stays `Int`, any
    /// other numeric pair computes in `f64`, and a `NULL` or non-numeric
    /// operand makes the sum `NULL`, which passes nothing. Never rewrite
    /// the comparison as `row op rhs ∓ offset`: under wrapping the two
    /// differ.
    ///
    /// Only `Int` and `Float` payloads have a typed loop: for any other
    /// payload (or a `Mul`/`Div` operator) the mask is left untouched and
    /// `false` returned, and the caller evaluates the chunk's rows itself.
    pub fn and_offset_cmp(
        &self,
        arith: ArithOp,
        offset: &Value,
        op: CmpOp,
        rhs: &Value,
        mask: &mut Mask,
    ) -> bool {
        let sub = match arith {
            ArithOp::Add => false,
            ArithOp::Sub => true,
            ArithOp::Mul | ArithOp::Div => return false,
        };
        if !matches!(self.data, ColumnData::Int(_) | ColumnData::Float(_)) {
            return false;
        }
        if rhs.is_null() || !matches!(offset, Value::Int(_) | Value::Float(_)) {
            mask.clear_all(); // a NULL right side, or a NULL sum: Unknown
            return true;
        }
        if let Some(words) = &self.validity {
            mask.and_words(words);
        }
        // The sum's type decides the comparison domain; a non-numeric
        // right side is incomparable with it (only `Ne` holds).
        let (int_rhs, float_rhs) = match rhs {
            Value::Int(c) => (Some(*c), *c as f64),
            Value::Float(c) => (None, *c),
            _ => {
                if op != CmpOp::Ne {
                    mask.clear_all();
                }
                return true;
            }
        };
        // Subtracting is adding the negation, exactly: `x - a` wraps to
        // the same `i64` as `x + (-a)` (also for `a = i64::MIN`), and IEEE
        // defines `x - a` as `x + (-a)`.
        match (&self.data, offset) {
            (ColumnData::Int(xs), Value::Int(a)) => {
                let a = if sub { a.wrapping_neg() } else { *a };
                match int_rhs {
                    Some(c) => and_where_cmp(mask, xs, |x| x.wrapping_add(a), op, c),
                    None => and_where_cmp(mask, xs, |x| x.wrapping_add(a) as f64, op, float_rhs),
                }
            }
            (data, offset) => {
                let a = offset.as_f64().expect("a numeric offset");
                let a = if sub { -a } else { a };
                match data {
                    ColumnData::Int(xs) => and_where_cmp(mask, xs, |x| x as f64 + a, op, float_rhs),
                    ColumnData::Float(xs) => and_where_cmp(mask, xs, |x| x + a, op, float_rhs),
                    _ => unreachable!("checked: an Int or Float payload"),
                }
            }
        }
        true
    }

    /// Narrow `mask` by `IS [NOT] NULL` (two-valued in both conventions;
    /// `NaN` is a value, not a `NULL`).
    pub fn and_is_null(&self, negated: bool, mask: &mut Mask) {
        if let ColumnData::Null = self.data {
            if negated {
                mask.clear_all();
            }
            return;
        }
        match (self.validity.as_deref(), negated) {
            (None, false) => mask.clear_all(),
            (None, true) => {}
            (Some(words), true) => mask.and_words(words),
            (Some(words), false) => mask.and_not_words(words),
        }
    }

    /// Compute the equi-join key of every slot into `out` (cleared first):
    /// [`Value::join_key`] semantics, one typed pass.
    pub fn join_keys_into(&self, out: &mut Vec<Option<Key>>) {
        out.clear();
        out.reserve(self.len);
        match &self.data {
            ColumnData::Int(xs) => {
                for (i, x) in xs.iter().enumerate() {
                    out.push(self.is_valid(i).then_some(Key::Int(*x)));
                }
            }
            ColumnData::Float(xs) => {
                for (i, x) in xs.iter().enumerate() {
                    out.push(if self.is_valid(i) {
                        Value::Float(*x).join_key()
                    } else {
                        None
                    });
                }
            }
            ColumnData::Bool(xs) => {
                for (i, x) in xs.iter().enumerate() {
                    out.push(self.is_valid(i).then_some(Key::Bool(*x)));
                }
            }
            ColumnData::Str(xs) => {
                for (i, x) in xs.iter().enumerate() {
                    out.push(self.is_valid(i).then(|| Key::Str(x.clone())));
                }
            }
            ColumnData::Mixed(vs) => {
                for v in vs {
                    out.push(v.join_key());
                }
            }
            ColumnData::Null => {
                for _ in 0..self.len {
                    out.push(None);
                }
            }
        }
    }
}

/// `mask &= { i | map(xs[i]) op c }`, one 64-row word at a time. Over
/// `i64` the operators are total; over `f64` they are IEEE's, which
/// answer exactly as [`cmp_truth`] does (a `NaN` side satisfies only
/// `Ne`, and `-0.0 == 0.0`).
fn and_where_cmp<T: Copy, V: PartialOrd + Copy>(
    mask: &mut Mask,
    xs: &[T],
    map: impl Fn(T) -> V,
    op: CmpOp,
    c: V,
) {
    match op {
        CmpOp::Eq => mask.and_where(xs, |x| map(x) == c),
        CmpOp::Ne => mask.and_where(xs, |x| map(x) != c),
        CmpOp::Lt => mask.and_where(xs, |x| map(x) < c),
        CmpOp::Le => mask.and_where(xs, |x| map(x) <= c),
        CmpOp::Gt => mask.and_where(xs, |x| map(x) > c),
        CmpOp::Ge => mask.and_where(xs, |x| map(x) >= c),
    }
}

/// One chunk: a horizontal slice of [`CHUNK_ROWS`] (or fewer, for the
/// tail) rows, stored as one [`ColumnChunk`] per schema position.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    base: usize,
    len: usize,
    cols: Vec<ColumnChunk>,
}

impl Chunk {
    /// Global row index of this chunk's first row.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Rows in this chunk.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the chunk has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Column `c` of this chunk.
    pub fn col(&self, c: usize) -> &ColumnChunk {
        &self.cols[c]
    }
}

/// The chunked columnar encoding of a whole relation.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSet {
    arity: usize,
    rows: usize,
    chunks: Vec<Chunk>,
}

impl ColumnSet {
    /// Encode `rows` into column chunks of their arity.
    pub fn encode(rows: &Rows) -> ColumnSet {
        let arity = rows.arity();
        let mut chunks = Vec::with_capacity(rows.len().div_ceil(CHUNK_ROWS.max(1)));
        let mut base = 0;
        while base < rows.len() {
            let end = (base + CHUNK_ROWS).min(rows.len());
            chunks.push(Chunk {
                base,
                len: end - base,
                cols: (0..arity)
                    .map(|c| ColumnChunk::encode(rows.range(base..end), c))
                    .collect(),
            });
            base = end;
        }
        ColumnSet {
            arity,
            rows: rows.len(),
            chunks,
        }
    }

    /// Column arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Total rows across all chunks.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The chunks, in row order (every chunk but the last holds exactly
    /// [`CHUNK_ROWS`] rows, so `row / CHUNK_ROWS` indexes directly).
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Decode one cell by global row index.
    pub fn value(&self, row: usize, col: usize) -> Value {
        let chunk = &self.chunks[row / CHUNK_ROWS];
        chunk.col(col).value(row - chunk.base)
    }
}

/// A per-chunk selection bitmask (one bit per row, set ⇔ selected).
/// Kernels narrow it monotonically; tail bits past `len` stay zero so
/// popcounts and index extraction never see phantom rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Mask {
    words: Vec<u64>,
    len: usize,
}

impl Mask {
    /// A mask selecting every row of a `len`-row chunk.
    pub fn all_true(len: usize) -> Mask {
        let mut mask = Mask::default();
        mask.select_range(len, 0..len);
        mask
    }

    /// Reuse this mask for a `len`-row chunk, selecting exactly the rows
    /// of `range` (a sub-range of `0..len`); keeps the allocation.
    pub fn select_range(&mut self, len: usize, range: std::ops::Range<usize>) {
        self.len = len;
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        for (wi, w) in self.words.iter_mut().enumerate() {
            let (lo, hi) = (range.start.max(wi * 64), range.end.min(wi * 64 + 64));
            if lo < hi {
                let bits = hi - lo;
                let ones = if bits == 64 {
                    u64::MAX
                } else {
                    (1u64 << bits) - 1
                };
                *w = ones << (lo - wi * 64);
            }
        }
    }

    /// Select row `i` as well.
    pub fn select(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Rows the mask covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mask covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when row `i` is selected.
    pub fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Deselect every row.
    pub fn clear_all(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// True when any row is still selected.
    pub fn any(&self) -> bool {
        self.words.iter().any(|w| *w != 0)
    }

    /// Number of selected rows.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Intersect with a bitmap of the same shape (e.g. validity words).
    pub fn and_words(&mut self, other: &[u64]) {
        for (w, o) in self.words.iter_mut().zip(other) {
            *w &= *o;
        }
    }

    /// Intersect with the complement of a bitmap of the same shape.
    pub fn and_not_words(&mut self, other: &[u64]) {
        for (w, o) in self.words.iter_mut().zip(other) {
            *w &= !*o;
        }
    }

    /// Keep only the rows `i` whose `keep(xs[i])` holds (`xs` holds one
    /// value per row). Builds each 64-row word whole — `keep` runs for
    /// every row of a word with any row still selected, branch-free — so
    /// `keep` must be cheap and total; for one that may not be, use
    /// [`Mask::retain`].
    pub fn and_where<T: Copy>(&mut self, xs: &[T], keep: impl Fn(T) -> bool) {
        for (w, xs) in self.words.iter_mut().zip(xs.chunks(64)) {
            if *w == 0 {
                continue;
            }
            let mut bits = 0u64;
            for (j, &x) in xs.iter().enumerate() {
                bits |= (keep(x) as u64) << j;
            }
            *w &= bits;
        }
    }

    /// Keep only the selected rows for which `keep` holds; `keep` is
    /// called for currently-selected rows only, in row order.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for wi in 0..self.words.len() {
            let mut w = self.words[wi];
            while w != 0 {
                let b = w.trailing_zeros() as usize;
                if !keep(wi * 64 + b) {
                    self.words[wi] &= !(1u64 << b);
                }
                w &= w - 1;
            }
        }
    }

    /// Append the selected row indices, offset by `base`, to `out` (in
    /// ascending order — which is what keeps vectorized scans
    /// row-identical to the sequential row path).
    pub fn indices_into(&self, base: u32, out: &mut Vec<u32>) {
        for (wi, word) in self.words.iter().enumerate() {
            let mut w = *word;
            while w != 0 {
                let b = w.trailing_zeros();
                out.push(base + wi as u32 * 64 + b);
                w &= w - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_of(col: &[Value]) -> Rows {
        Rows::from_vecs(1, col.iter().map(|v| vec![v.clone()]).collect())
    }

    /// Reference implementation: the row path's acceptance rule.
    fn row_filter(col: &[Value], op: CmpOp, rhs: &Value) -> Vec<u32> {
        col.iter()
            .enumerate()
            .filter(|(_, v)| cmp_truth(v, op, rhs).is_true())
            .map(|(i, _)| i as u32)
            .collect()
    }

    fn vec_filter(col: &[Value], op: CmpOp, rhs: &Value) -> Vec<u32> {
        let set = ColumnSet::encode(&rows_of(col));
        let mut out = Vec::new();
        for chunk in set.chunks() {
            let mut mask = Mask::all_true(chunk.len());
            chunk.col(0).and_cmp(op, rhs, &mut mask);
            mask.indices_into(chunk.base() as u32, &mut out);
        }
        out
    }

    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    fn value_pool() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-3),
            Value::Int(0),
            Value::Int(7),
            Value::Float(-0.5),
            Value::Float(7.0),
            Value::Float(f64::NAN),
            Value::str(""),
            Value::str("abc"),
        ]
    }

    #[test]
    fn cmp_kernels_match_row_path_on_every_column_shape() {
        let pool = value_pool();
        // Homogeneous, nullable, mixed, and all-null columns.
        let columns: Vec<Vec<Value>> = vec![
            vec![Value::Int(1), Value::Int(7), Value::Int(-3)],
            vec![Value::Int(1), Value::Null, Value::Int(7)],
            vec![Value::Float(1.5), Value::Float(f64::NAN), Value::Null],
            vec![Value::str("a"), Value::str("b"), Value::Null],
            vec![Value::Bool(true), Value::Bool(false)],
            vec![Value::Int(1), Value::str("1"), Value::Float(1.0)],
            vec![Value::Null, Value::Null, Value::Null],
            pool.clone(),
        ];
        for col in &columns {
            for rhs in &pool {
                for op in OPS {
                    assert_eq!(
                        vec_filter(col, op, rhs),
                        row_filter(col, op, rhs),
                        "col {col:?} {op:?} {rhs:?}"
                    );
                }
            }
        }
    }

    /// Reference: the evaluator's null-propagating arithmetic (`Int`
    /// wraps), restricted to `±`.
    fn row_arith(op: ArithOp, l: &Value, r: &Value) -> Value {
        match (l, r) {
            (Value::Int(a), Value::Int(b)) => Value::Int(match op {
                ArithOp::Add => a.wrapping_add(*b),
                _ => a.wrapping_sub(*b),
            }),
            _ => match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => Value::Float(match op {
                    ArithOp::Add => a + b,
                    _ => a - b,
                }),
                _ => Value::Null,
            },
        }
    }

    #[test]
    fn offset_kernel_matches_row_arithmetic_then_compare() {
        let edges = vec![
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Int(-1),
            Value::Int(0),
            Value::Int(3),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
        ];
        let columns: Vec<Vec<Value>> = vec![
            vec![
                Value::Int(i64::MIN),
                Value::Int(i64::MAX),
                Value::Int(0),
                Value::Int(3),
            ],
            vec![
                Value::Int(1),
                Value::Null,
                Value::Int(-7),
                Value::Int(i64::MAX),
            ],
            vec![
                Value::Float(-0.0),
                Value::Float(f64::NAN),
                Value::Null,
                Value::Float(1.5),
            ],
            (0..130).map(|i| Value::Int(i * 7 - 400)).collect(),
        ];
        let mut rhs_pool = edges.clone();
        rhs_pool.extend([Value::Null, Value::str("x"), Value::Bool(true)]);
        let mut offsets = edges.clone();
        offsets.extend([Value::Null, Value::str("x")]);
        for col in &columns {
            let set = ColumnSet::encode(&rows_of(col));
            let chunk = set.chunks()[0].col(0);
            for arith in [ArithOp::Add, ArithOp::Sub] {
                for offset in &offsets {
                    for rhs in &rhs_pool {
                        for op in OPS {
                            let mut mask = Mask::all_true(col.len());
                            assert!(chunk.and_offset_cmp(arith, offset, op, rhs, &mut mask));
                            let mut got = Vec::new();
                            mask.indices_into(0, &mut got);
                            let want: Vec<u32> = (0..col.len() as u32)
                                .filter(|&i| {
                                    let v = if col[i as usize].is_null() || offset.is_null() {
                                        Value::Null
                                    } else {
                                        row_arith(arith, &col[i as usize], offset)
                                    };
                                    cmp_truth(&v, op, rhs).is_true()
                                })
                                .collect();
                            assert_eq!(got, want, "{col:?} {arith:?} {offset:?} {op:?} {rhs:?}");
                        }
                    }
                }
            }
        }
        // No typed loop for strings: the caller evaluates those rows.
        let set = ColumnSet::encode(&rows_of(&[Value::str("a")]));
        let mut mask = Mask::all_true(1);
        let typed = set.chunks()[0].col(0).and_offset_cmp(
            ArithOp::Add,
            &Value::Int(1),
            CmpOp::Eq,
            &Value::Int(1),
            &mut mask,
        );
        assert!(!typed && mask.count() == 1);
    }

    #[test]
    fn select_range_reuses_and_bounds_the_mask() {
        let mut mask = Mask::all_true(200);
        mask.select_range(130, 3..129);
        let mut got = Vec::new();
        mask.indices_into(0, &mut got);
        assert_eq!(got, (3..129).collect::<Vec<u32>>());
        mask.select_range(70, 0..0);
        assert!(!mask.any());
        mask.select(69);
        assert_eq!(mask.count(), 1);
    }

    #[test]
    fn is_null_kernel_matches_row_path() {
        let columns: Vec<Vec<Value>> = vec![
            vec![Value::Int(1), Value::Null, Value::Float(f64::NAN)],
            vec![Value::Null, Value::Null],
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Int(1), Value::str("x"), Value::Null],
        ];
        for col in &columns {
            for negated in [false, true] {
                let set = ColumnSet::encode(&rows_of(col));
                let mut got = Vec::new();
                for chunk in set.chunks() {
                    let mut mask = Mask::all_true(chunk.len());
                    chunk.col(0).and_is_null(negated, &mut mask);
                    mask.indices_into(chunk.base() as u32, &mut got);
                }
                let want: Vec<u32> = col
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| v.is_null() != negated)
                    .map(|(i, _)| i as u32)
                    .collect();
                assert_eq!(got, want, "col {col:?} negated {negated}");
            }
        }
    }

    #[test]
    fn encode_round_trips_across_chunk_boundaries() {
        let pool = value_pool();
        for n in [0usize, 1, 63, 64, 1023, 1024, 1025, 2500] {
            let rows: Vec<Vec<Value>> = (0..n)
                .map(|i| vec![pool[i % pool.len()].clone(), Value::Int(i as i64)])
                .collect();
            let set = ColumnSet::encode(&Rows::from_vecs(2, rows.clone()));
            assert_eq!(set.rows(), n);
            for (i, row) in rows.iter().enumerate() {
                for (c, v) in row.iter().enumerate() {
                    assert_eq!(set.value(i, c).key(), v.key(), "row {i} col {c}");
                }
            }
        }
    }

    #[test]
    fn join_keys_follow_join_key_semantics() {
        let col = vec![
            Value::Int(1),
            Value::Float(1.0), // normalizes to Key::Int(1)
            Value::Float(f64::NAN),
            Value::Null,
            Value::str("x"),
        ];
        let set = ColumnSet::encode(&rows_of(&col));
        let mut keys = Vec::new();
        set.chunks()[0].col(0).join_keys_into(&mut keys);
        let want: Vec<Option<Key>> = col.iter().map(|v| v.join_key()).collect();
        assert_eq!(keys, want);
        assert_eq!(keys[0], keys[1], "integral float joins with int");
    }

    #[test]
    fn mask_tail_bits_stay_clear() {
        let mask = Mask::all_true(70);
        assert_eq!(mask.count(), 70);
        let mut out = Vec::new();
        mask.indices_into(0, &mut out);
        assert_eq!(out.len(), 70);
        assert_eq!(out.last(), Some(&69));
    }

    #[test]
    fn all_null_column_stores_no_payload() {
        let set = ColumnSet::encode(&rows_of(&[Value::Null, Value::Null]));
        assert_eq!(*set.chunks()[0].col(0).data(), ColumnData::Null);
        assert!(!set.chunks()[0].col(0).is_valid(0));
    }
}
