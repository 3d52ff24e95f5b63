//! Scalar values and three-valued logic.
//!
//! ARC treats the behaviour of `NULL` as a *convention* (paper §2.6, §2.10):
//! the calculus itself is agnostic, but the engine must be able to interpret
//! predicates under SQL's three-valued logic as well as under two-valued
//! logic (Soufflé has no nulls). [`Value`] is the dynamically-typed scalar
//! domain and [`Truth`] the three-valued logic lattice.

use crate::ast::CmpOp;
use std::cmp::Ordering;
use std::fmt;

/// A scalar value in the relational domain.
///
/// The domain is deliberately small: the paper's examples use integers,
/// floats (averages), strings (drinkers and beers), booleans (sentences) and
/// `NULL`. Mixed `Int`/`Float` comparisons coerce to `f64`.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL `NULL`: absence of a value. Comparisons involving `Null` yield
    /// [`Truth::Unknown`] under three-valued logic.
    Null,
    /// A boolean. Produced by boolean sentences (paper Fig 9).
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float. `avg` produces floats even over integer inputs.
    Float(f64),
    /// A string.
    Str(String),
}

impl Value {
    /// String value helper (avoids `Value::Str("x".to_string())` noise).
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// True iff this is `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (ints widen to `f64`); `None` for non-numerics.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view; `None` for non-integers.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// A short type tag used in error messages and canonical keys.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
        }
    }

    /// Three-valued comparison. Returns `None` when either side is `NULL`
    /// (the caller maps that to [`Truth::Unknown`] or to `false` depending on
    /// the active [null convention](crate::conventions::NullLogic)), or when
    /// the two values are incomparable (e.g. string vs int), which SQL would
    /// reject at type-check time; we treat it as `None` as well.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            _ => None,
        }
    }

    /// SQL equality under three-valued logic.
    pub fn eq3(&self, other: &Value) -> Truth {
        match self.compare(other) {
            Some(Ordering::Equal) => Truth::True,
            Some(_) => Truth::False,
            None => {
                if self.is_null() || other.is_null() {
                    Truth::Unknown
                } else {
                    Truth::False // incomparable types are simply not equal
                }
            }
        }
    }

    /// Grouping/deduplication key: a totally ordered, hashable canonical form.
    ///
    /// SQL's `GROUP BY` and `DISTINCT` treat `NULL`s as equal to each other,
    /// so the key view is *two-valued* by design, independent of the
    /// comparison convention.
    #[inline]
    pub fn key(&self) -> Key {
        self.key_ref().to_key()
    }

    /// [`Value::key`] without the copy: the same canonical form, borrowing
    /// the string payload. This is where the normalization lives (`key`
    /// is this plus an owned string), so a borrowed key hashes and
    /// compares exactly like the owned one it stands for.
    #[inline]
    pub fn key_ref(&self) -> KeyRef<'_> {
        match self {
            Value::Null => KeyRef::Null,
            Value::Bool(b) => KeyRef::Bool(*b),
            Value::Int(i) => KeyRef::Int(*i),
            Value::Float(f) => {
                // Normalize integral floats so that 1.0 groups with 1.
                if f.fract() == 0.0
                    && f.is_finite()
                    && *f >= i64::MIN as f64
                    && *f <= i64::MAX as f64
                {
                    KeyRef::Int(*f as i64)
                } else if f.is_nan() {
                    KeyRef::Float(f64::NAN.to_bits())
                } else {
                    KeyRef::Float(f.to_bits())
                }
            }
            Value::Str(s) => KeyRef::Str(s),
        }
    }

    /// This value's hash key for *equi-join* purposes, or `None` when the
    /// value can never satisfy an equality predicate (`NULL` compares as
    /// `Unknown`; a float `NaN` is incomparable even to itself), so
    /// indexing/probing/counting with it must produce no matches.
    ///
    /// This is the **one** place join-key semantics live: the engine's
    /// hash-join executor builds its indexes with it and the statistics
    /// subsystem (`arc-stats`) counts distinct keys with it, so the two
    /// can never disagree on what "equal" means. Unlike [`Value::key`]
    /// (grouping: NULLs group together, NaNs are self-equal), the join
    /// view excludes both.
    pub fn join_key(&self) -> Option<Key> {
        match self {
            Value::Null => None,
            Value::Float(f) if f.is_nan() => None,
            other => Some(other.key()),
        }
    }

    /// [`Value::join_key`] without the copy (see [`Value::key_ref`]): what
    /// the hash-join probe hashes and compares, so probing with a string
    /// key allocates nothing.
    pub fn join_key_ref(&self) -> Option<KeyRef<'_>> {
        match self {
            Value::Null => None,
            Value::Float(f) if f.is_nan() => None,
            other => Some(other.key_ref()),
        }
    }
}

/// Three-valued truth of `l op r`, *before* any null-convention collapse.
///
/// `NULL` on either side yields `Unknown`; incomparable (heterogeneous)
/// values answer only the equality family (`Eq` → `False`, `Ne` → `True`,
/// orderings → `Unknown`); `NaN` is incomparable even to itself. This is
/// the **one** place comparison semantics live: the engine's row-at-a-time
/// predicate evaluator delegates here and the columnar kernels in
/// [`crate::column`] replicate exactly this table in their typed loops
/// (checked against this function by their unit tests), so the two paths
/// can never disagree.
pub fn cmp_truth(l: &Value, op: CmpOp, r: &Value) -> Truth {
    if l.is_null() || r.is_null() {
        return Truth::Unknown;
    }
    match l.compare(r) {
        Some(ord) => Truth::from_bool(ord_satisfies(ord, op)),
        // Incomparable (heterogeneous) values: only equality-family
        // operators have a defined answer.
        None => match op {
            CmpOp::Eq => Truth::False,
            CmpOp::Ne => Truth::True,
            _ => Truth::Unknown,
        },
    }
}

/// Whether a concrete ordering satisfies `op` (the two-valued core of
/// [`cmp_truth`], shared with the columnar kernels' typed loops).
pub fn ord_satisfies(ord: Ordering, op: CmpOp) -> bool {
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Canonical grouping key (total order + hash, NULL-tolerant).
///
/// `Ord` sorts `Null` first, then booleans, numbers, strings — the order is
/// arbitrary but total and stable, which is all grouping and deterministic
/// output ordering need.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // variants/fields are self-describing
pub enum Key {
    Null,
    Bool(bool),
    Int(i64),
    Float(u64),
    Str(String),
}

impl Key {
    /// The borrowed view of this key (what [`Value::key_ref`] yields for
    /// the value the key was built from).
    #[inline]
    pub fn key_ref(&self) -> KeyRef<'_> {
        match self {
            Key::Null => KeyRef::Null,
            Key::Bool(b) => KeyRef::Bool(*b),
            Key::Int(i) => KeyRef::Int(*i),
            Key::Float(bits) => KeyRef::Float(*bits),
            Key::Str(s) => KeyRef::Str(s),
        }
    }
}

/// A [`Key`] that borrows its string payload: same variants, same
/// equality, produced by [`Value::key_ref`] and [`Key::key_ref`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants/fields are self-describing
pub enum KeyRef<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(u64),
    Str(&'a str),
}

impl KeyRef<'_> {
    /// The owned [`Key`] this view stands for (copies a string payload).
    #[inline]
    pub fn to_key(self) -> Key {
        match self {
            KeyRef::Null => Key::Null,
            KeyRef::Bool(b) => Key::Bool(b),
            KeyRef::Int(i) => Key::Int(i),
            KeyRef::Float(bits) => Key::Float(bits),
            KeyRef::Str(s) => Key::Str(s.to_string()),
        }
    }
}

/// Three-valued logic (Kleene), as used by SQL (paper §2.10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants/fields are self-describing
pub enum Truth {
    True,
    False,
    Unknown,
}

impl Truth {
    /// Lift a two-valued bool.
    pub fn from_bool(b: bool) -> Truth {
        if b {
            Truth::True
        } else {
            Truth::False
        }
    }

    /// Kleene conjunction.
    pub fn and(self, other: Truth) -> Truth {
        use Truth::*;
        match (self, other) {
            (False, _) | (_, False) => False,
            (True, True) => True,
            _ => Unknown,
        }
    }

    /// Kleene disjunction.
    pub fn or(self, other: Truth) -> Truth {
        use Truth::*;
        match (self, other) {
            (True, _) | (_, True) => True,
            (False, False) => False,
            _ => Unknown,
        }
    }

    /// Kleene negation.
    #[allow(clippy::should_implement_trait)] // deliberate: mirrors `.and`/`.or`
    pub fn not(self) -> Truth {
        use Truth::*;
        match self {
            True => False,
            False => True,
            Unknown => Unknown,
        }
    }

    /// SQL `WHERE`-clause acceptance: only `True` passes.
    pub fn is_true(self) -> bool {
        self == Truth::True
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.eq3(&Value::Int(1)), Truth::Unknown);
        assert_eq!(Value::Int(1).eq3(&Value::Null), Truth::Unknown);
        assert_eq!(Value::Null.eq3(&Value::Null), Truth::Unknown);
    }

    #[test]
    fn mixed_numeric_comparisons_coerce() {
        assert_eq!(Value::Int(1).eq3(&Value::Float(1.0)), Truth::True);
        assert_eq!(
            Value::Int(2).compare(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn incomparable_types_are_not_equal() {
        assert_eq!(Value::Int(1).eq3(&Value::str("1")), Truth::False);
    }

    #[test]
    fn keys_group_nulls_and_integral_floats() {
        assert_eq!(Value::Null.key(), Value::Null.key());
        assert_eq!(Value::Int(3).key(), Value::Float(3.0).key());
        assert_ne!(Value::Int(3).key(), Value::Float(3.5).key());
    }

    #[test]
    fn nan_keys_are_self_equal() {
        assert_eq!(Value::Float(f64::NAN).key(), Value::Float(f64::NAN).key());
    }

    #[test]
    fn kleene_tables() {
        use Truth::*;
        assert_eq!(Unknown.and(False), False);
        assert_eq!(Unknown.and(True), Unknown);
        assert_eq!(Unknown.or(True), True);
        assert_eq!(Unknown.or(False), Unknown);
        assert_eq!(Unknown.not(), Unknown);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::str("a").to_string(), "'a'");
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
    }

    #[test]
    fn value_equality_follows_keys() {
        assert_eq!(Value::Int(1), Value::Float(1.0));
        assert_eq!(Value::Null, Value::Null); // two-valued *key* equality
        assert_ne!(Value::Int(1), Value::str("1"));
    }
}
