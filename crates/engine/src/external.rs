//! **External relations** (paper §2.13.1): relations whose semantics come
//! from outside the relational core — arithmetic, comparisons, string
//! operators — with possibly infinite extensions, accessed through
//! **access patterns** (Guagliardo et al., cited as \[35\] in the paper).
//!
//! An access pattern names the attribute positions that must be *bound*
//! before the relation can be enumerated; the pattern's function then
//! returns the finitely many completing tuples. `Add(2, x, 5)` is the
//! paper's example: with positions 0 and 2 bound, the pattern returns
//! `x = 3`. The evaluator picks a viable pattern based on which attributes
//! are determined by equality predicates in the enclosing scope
//! ([`crate::eval`]).

use crate::relation::Tuple;
use arc_core::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The completing function of an access pattern: given the values of the
/// pattern's bound positions (in [`AccessPattern::bound`] order), return
/// every completing full tuple (schema order). Boolean externals return
/// zero or one empty-completion tuples.
pub type PatternFn = Arc<dyn Fn(&[Value]) -> Vec<Tuple> + Send + Sync>;

/// One access pattern of an external relation.
#[derive(Clone)]
pub struct AccessPattern {
    /// Attribute indices that must be bound (inputs).
    pub bound: Vec<usize>,
    /// Completion function producing full tuples.
    pub complete: PatternFn,
}

impl fmt::Debug for AccessPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AccessPattern")
            .field("bound", &self.bound)
            .finish_non_exhaustive()
    }
}

/// An external relation: name, schema, and its access patterns.
#[derive(Clone, Debug)]
pub struct ExternalRelation {
    /// Relation name, e.g. `Minus`, `*`, `Bigger`.
    pub name: String,
    /// Attribute names.
    pub schema: Vec<String>,
    /// Access patterns, tried in declaration order.
    pub patterns: Vec<AccessPattern>,
}

impl ExternalRelation {
    /// Create an external relation with no patterns yet.
    pub fn new(name: impl Into<String>, schema: &[&str]) -> Self {
        ExternalRelation {
            name: name.into(),
            schema: schema.iter().map(|s| s.to_string()).collect(),
            patterns: Vec::new(),
        }
    }

    /// Add an access pattern (builder style).
    pub fn with_pattern(
        mut self,
        bound: &[usize],
        complete: impl Fn(&[Value]) -> Vec<Tuple> + Send + Sync + 'static,
    ) -> Self {
        self.patterns.push(AccessPattern {
            bound: bound.to_vec(),
            complete: Arc::new(complete),
        });
        self
    }

    /// The first pattern whose bound positions are all contained in
    /// `available` (indices of attributes determinable from the scope).
    pub fn viable_pattern(&self, available: &[usize]) -> Option<&AccessPattern> {
        self.patterns
            .iter()
            .find(|p| p.bound.iter().all(|b| available.contains(b)))
    }
}

// Externals cross worker threads with the scope pipeline that references
// them — [`PatternFn`] requires `Send + Sync` for exactly this reason.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AccessPattern>();
    assert_send_sync::<ExternalRelation>();
};

/// A binary numeric total function lifted to a ternary external relation
/// `(left, right, out)` with the forward pattern `(b, b, f)`.
fn ternary_numeric(
    name: &str,
    attrs: &[&str],
    forward: impl Fn(f64, f64) -> Option<f64> + Send + Sync + Copy + 'static,
) -> ExternalRelation {
    ExternalRelation::new(name, attrs).with_pattern(&[0, 1], move |inputs| {
        numeric_binop(&inputs[0], &inputs[1], forward)
            .map(|out| vec![vec![inputs[0].clone(), inputs[1].clone(), out]])
            .unwrap_or_default()
    })
}

/// Apply a float-level op while preserving integer typing when both inputs
/// are integers and the result is integral.
fn numeric_binop(a: &Value, b: &Value, f: impl Fn(f64, f64) -> Option<f64>) -> Option<Value> {
    let (x, y) = (a.as_f64()?, b.as_f64()?);
    let out = f(x, y)?;
    let both_int = matches!((a, b), (Value::Int(_), Value::Int(_)));
    if both_int && out.fract() == 0.0 && out.is_finite() {
        Some(Value::Int(out as i64))
    } else {
        Some(Value::Float(out))
    }
}

/// The standard library of external relations used by the paper's examples:
///
/// * `Minus(left, right, out)` — Example 1 / Eq (20), with the extra
///   *backward* pattern `(b, f, b)` so that `Minus(5, x, 2)` solves `x = 3`
///   (the access-pattern flexibility of §2.13.1, discussion point 3);
/// * `Add(left, right, out)` — with backward patterns on either operand;
/// * `*`(`$1`, `$2`, `out`) — multiplication, the Fig 20 matrix-multiply
///   external;
/// * `Div(left, right, out)`;
/// * `Bigger(left, right)` — the reified `>` of Eq (21) (boolean);
/// * `>`(`left`, `right`) — alias used in Fig 15;
/// * `Concat(left, right, out)` — string concatenation (shows non-numeric
///   externals are nothing special).
pub fn standard_externals() -> HashMap<String, ExternalRelation> {
    let mut m = HashMap::new();

    let minus = ternary_numeric("Minus", &["left", "right", "out"], |a, b| Some(a - b))
        // Backward: left - x = out  =>  x = left - out.
        .with_pattern(&[0, 2], |inputs| {
            numeric_binop(&inputs[0], &inputs[1], |l, o| Some(l - o))
                .map(|right| vec![vec![inputs[0].clone(), right, inputs[1].clone()]])
                .unwrap_or_default()
        });
    m.insert(minus.name.clone(), minus);

    let add = ternary_numeric("Add", &["left", "right", "out"], |a, b| Some(a + b))
        // Add(x, b, out): x = out - right.
        .with_pattern(&[1, 2], |inputs| {
            numeric_binop(&inputs[1], &inputs[0], |o, r| Some(o - r))
                .map(|left| vec![vec![left, inputs[0].clone(), inputs[1].clone()]])
                .unwrap_or_default()
        })
        // Add(a, x, out): x = out - left.
        .with_pattern(&[0, 2], |inputs| {
            numeric_binop(&inputs[1], &inputs[0], |o, l| Some(o - l))
                .map(|right| vec![vec![inputs[0].clone(), right, inputs[1].clone()]])
                .unwrap_or_default()
        });
    m.insert(add.name.clone(), add);

    let mul = ternary_numeric("*", &["$1", "$2", "out"], |a, b| Some(a * b));
    m.insert(mul.name.clone(), mul);

    let div = ternary_numeric("Div", &["left", "right", "out"], |a, b| {
        if b == 0.0 {
            None
        } else {
            Some(a / b)
        }
    });
    m.insert(div.name.clone(), div);

    for name in ["Bigger", ">"] {
        let bigger = ExternalRelation::new(name, &["left", "right"]).with_pattern(
            &[0, 1],
            |inputs: &[Value]| match inputs[0].compare(&inputs[1]) {
                Some(std::cmp::Ordering::Greater) => {
                    vec![vec![inputs[0].clone(), inputs[1].clone()]]
                }
                _ => Vec::new(),
            },
        );
        m.insert(bigger.name.clone(), bigger);
    }

    let concat = ExternalRelation::new("Concat", &["left", "right", "out"]).with_pattern(
        &[0, 1],
        |inputs: &[Value]| match (&inputs[0], &inputs[1]) {
            (Value::Str(a), Value::Str(b)) => vec![vec![
                inputs[0].clone(),
                inputs[1].clone(),
                Value::str(format!("{a}{b}")),
            ]],
            _ => Vec::new(),
        },
    );
    m.insert(concat.name.clone(), concat);

    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minus_forward_pattern() {
        let ext = &standard_externals()["Minus"];
        let p = ext.viable_pattern(&[0, 1]).unwrap();
        let out = (p.complete)(&[Value::Int(5), Value::Int(3)]);
        assert_eq!(out, vec![vec![Value::Int(5), Value::Int(3), Value::Int(2)]]);
    }

    #[test]
    fn minus_backward_pattern_solves_operand() {
        // Minus(5, x, 2) => x = 3 (paper's Add(2, x, 5) flavour).
        let ext = &standard_externals()["Minus"];
        let p = ext.viable_pattern(&[0, 2]).unwrap();
        let out = (p.complete)(&[Value::Int(5), Value::Int(2)]);
        assert_eq!(out, vec![vec![Value::Int(5), Value::Int(3), Value::Int(2)]]);
    }

    #[test]
    fn bigger_is_boolean() {
        let ext = &standard_externals()["Bigger"];
        let p = ext.viable_pattern(&[0, 1]).unwrap();
        assert_eq!((p.complete)(&[Value::Int(5), Value::Int(3)]).len(), 1);
        assert_eq!((p.complete)(&[Value::Int(3), Value::Int(5)]).len(), 0);
        assert_eq!((p.complete)(&[Value::Null, Value::Int(5)]).len(), 0);
    }

    #[test]
    fn viable_pattern_requires_all_bound() {
        let ext = &standard_externals()["*"];
        assert!(ext.viable_pattern(&[0]).is_none());
        assert!(ext.viable_pattern(&[0, 1, 2]).is_some());
    }

    #[test]
    fn integer_typing_preserved() {
        let ext = &standard_externals()["*"];
        let p = ext.viable_pattern(&[0, 1]).unwrap();
        let out = (p.complete)(&[Value::Int(4), Value::Int(2)]);
        assert_eq!(out[0][2], Value::Int(8));
        let out = (p.complete)(&[Value::Float(2.5), Value::Int(2)]);
        assert_eq!(out[0][2], Value::Float(5.0));
    }

    #[test]
    fn div_by_zero_yields_no_tuple() {
        let ext = &standard_externals()["Div"];
        let p = ext.viable_pattern(&[0, 1]).unwrap();
        assert!((p.complete)(&[Value::Int(1), Value::Int(0)]).is_empty());
    }

    #[test]
    fn concat_strings() {
        let ext = &standard_externals()["Concat"];
        let p = ext.viable_pattern(&[0, 1]).unwrap();
        let out = (p.complete)(&[Value::str("a"), Value::str("b")]);
        assert_eq!(out[0][2], Value::str("ab"));
    }
}
