//! The ARC abstract syntax — which, by design, *is* the Abstract Language
//! Tree (ALT).
//!
//! The paper argues (§1, §2.2) that for an abstract relational query
//! language the AST and the ALT should coincide: the syntax reflects the
//! semantics. The types below mirror the ALT nodes of the paper's figures
//! one-to-one: `COLLECTION`, `HEAD`, `QUANTIFIER ∃`, `BINDING`, `GROUPING`,
//! `JOIN`, `AND/OR/NOT`, and `PREDICATE`.
//!
//! Key design points inherited from the paper:
//!
//! * **Named perspective** (§2.1): every attribute access is `var.attr`
//!   ([`AttrRef`]); there is no positional addressing.
//! * **Strict scoping** (§2.1): head attributes are never bound in the body;
//!   they are assigned via explicit *assignment predicates* `Q.A = r.A`.
//! * **Explicit quantifiers**: every range variable is introduced by a
//!   quantifier binding `∃ r ∈ R`; several bindings may share one quantifier.
//! * **Grouping operator γ** (§2.5): an aggregation predicate turns an
//!   existential scope into a grouping scope; `γ∅` denotes grouping on the
//!   empty key list ("group by true").
//! * **Join annotations** (§2.11): `inner`/`left`/`full` trees over the
//!   bound variables express arbitrary nestings of outer joins.
//! * **Nesting is orthogonal** (§2.4): a binding may range over a nested
//!   collection (SQL's `LATERAL`), but nesting in the *head* is disallowed
//!   (§2.3, §2.12).

use crate::value::Value;
use std::fmt;

/// A program: an ordered list of relation [`Definition`]s (views, CTEs,
/// intensional relations — possibly mutually recursive) plus an optional
/// final query collection.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Defined (intensional) relations, in declaration order.
    pub definitions: Vec<Definition>,
    /// The query to evaluate, if any.
    pub query: Option<Collection>,
}

impl Program {
    /// A program consisting of a single query.
    pub fn query(collection: Collection) -> Self {
        Program {
            definitions: Vec::new(),
            query: Some(collection),
        }
    }

    /// Add a definition (builder style).
    pub fn with_definition(mut self, def: Definition) -> Self {
        self.definitions.push(def);
        self
    }
}

/// A defined (intensional) relation: `name` is given by the collection's
/// head. Definitions may reference earlier definitions and — for recursion
/// (§2.9) — themselves or later ones; the engine stratifies and solves with
/// a least fixed point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Definition {
    /// The collection whose head names the defined relation.
    pub collection: Collection,
}

impl Definition {
    /// The defined relation's name (the head relation symbol).
    pub fn name(&self) -> &str {
        &self.collection.head.relation
    }
}

/// A collection comprehension `{ Head | Body }` — the paper's `COLLECTION`
/// node. Under set semantics it denotes a set of head tuples; under bag
/// semantics a bag (§2.7 — a convention, not part of the syntax).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Collection {
    /// The output relation: name + attribute list.
    pub head: Head,
    /// The body formula; almost always rooted in a quantifier or a
    /// disjunction of quantifiers.
    pub body: Formula,
}

/// The head `Q(A, B, …)` of a collection. Head attributes receive values
/// only through assignment predicates in the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Head {
    /// The output relation name (`Q`, `X`, …). Nested collections may leave
    /// it unnamed in diagrams, but the calculus always names it.
    pub relation: String,
    /// Output attribute names, in display order.
    pub attrs: Vec<String>,
}

impl Head {
    /// Construct a head from a name and attribute list.
    pub fn new(relation: impl Into<String>, attrs: &[&str]) -> Self {
        Head {
            relation: relation.into(),
            attrs: attrs.iter().map(|a| a.to_string()).collect(),
        }
    }
}

/// A body formula. `Pred` leaves are predicates; inner nodes are the logical
/// connectives and quantifier scopes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Formula {
    /// An existential quantifier scope with bindings (and optionally a
    /// grouping operator and/or join annotation).
    Quant(Box<Quant>),
    /// Conjunction. The order of conjuncts carries no meaning (§2.3).
    And(Vec<Formula>),
    /// Disjunction; also expresses union of rules (§2.8, §2.9).
    Or(Vec<Formula>),
    /// Negation `¬`. Opens a negation scope in the higraph modality.
    Not(Box<Formula>),
    /// A predicate leaf.
    Pred(Predicate),
}

impl Formula {
    /// `true` as an empty conjunction.
    pub fn truth() -> Formula {
        Formula::And(Vec::new())
    }

    /// Flatten nested `And`s (used by normalizers and printers).
    pub fn conjuncts(&self) -> Vec<&Formula> {
        let mut out = Vec::new();
        self.each_conjunct(&mut |f| out.push(f));
        out
    }

    /// Visit the conjuncts [`Formula::conjuncts`] lists, in the same
    /// order, without building the list.
    pub fn each_conjunct<'a>(&'a self, visit: &mut impl FnMut(&'a Formula)) {
        match self {
            Formula::And(fs) => fs.iter().for_each(|f| f.each_conjunct(visit)),
            other => visit(other),
        }
    }

    /// Structural normalization: flatten nested `And`/`Or`, unwrap
    /// singletons, and drop double negations. Modalities round-trip up to
    /// this normalization (the connective tree shape is presentation, not
    /// pattern).
    pub fn normalized(&self) -> Formula {
        match self {
            Formula::And(fs) => {
                let mut out = Vec::new();
                for f in fs {
                    match f.normalized() {
                        Formula::And(inner) => out.extend(inner),
                        other => out.push(other),
                    }
                }
                if out.len() == 1 {
                    out.pop().expect("len checked")
                } else {
                    Formula::And(out)
                }
            }
            Formula::Or(fs) => {
                let mut out = Vec::new();
                for f in fs {
                    match f.normalized() {
                        Formula::Or(inner) => out.extend(inner),
                        other => out.push(other),
                    }
                }
                if out.len() == 1 {
                    out.pop().expect("len checked")
                } else {
                    Formula::Or(out)
                }
            }
            Formula::Not(inner) => match inner.normalized() {
                Formula::Not(f) => *f,
                other => Formula::Not(Box::new(other)),
            },
            Formula::Quant(q) => Formula::Quant(Box::new(Quant {
                bindings: q
                    .bindings
                    .iter()
                    .map(|b| Binding {
                        var: b.var.clone(),
                        source: match &b.source {
                            BindingSource::Named(n) => BindingSource::Named(n.clone()),
                            BindingSource::Collection(c) => {
                                BindingSource::Collection(Box::new(c.normalized()))
                            }
                        },
                    })
                    .collect(),
                grouping: q.grouping.clone(),
                join: q.join.clone(),
                body: q.body.normalized(),
            })),
            Formula::Pred(p) => Formula::Pred(p.clone()),
        }
    }
}

impl Collection {
    /// Normalize the body (see [`Formula::normalized`]).
    pub fn normalized(&self) -> Collection {
        Collection {
            head: self.head.clone(),
            body: self.body.normalized(),
        }
    }
}

/// A quantifier scope `∃ b₁, b₂, …[, γ keys][, join] [ body ]`.
///
/// The paper's `QUANTIFIER ∃` ALT node, whose children are `BINDING`s, an
/// optional `GROUPING`, an optional `JOIN`, and the body formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quant {
    /// Range-variable bindings introduced by this quantifier.
    pub bindings: Vec<Binding>,
    /// `Some(γ)` turns this existential scope into a grouping scope.
    pub grouping: Option<Grouping>,
    /// Outer-join annotation over the bound variables (§2.11). `None` means
    /// the default k-ary `inner` over all bindings.
    pub join: Option<JoinTree>,
    /// The scope body.
    pub body: Formula,
}

/// A range-variable binding `r ∈ R` (named source) or `x ∈ { … }` (nested
/// collection — the lateral-join pattern of §2.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    /// The range variable name.
    pub var: String,
    /// What the variable ranges over.
    pub source: BindingSource,
}

impl Binding {
    /// Bind `var` to a named relation.
    pub fn named(var: impl Into<String>, relation: impl Into<String>) -> Self {
        Binding {
            var: var.into(),
            source: BindingSource::Named(relation.into()),
        }
    }

    /// Bind `var` to a nested collection.
    pub fn nested(var: impl Into<String>, collection: Collection) -> Self {
        Binding {
            var: var.into(),
            source: BindingSource::Collection(Box::new(collection)),
        }
    }
}

/// The source of a binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindingSource {
    /// A base, defined, or external relation referenced by name.
    Named(String),
    /// A nested comprehension evaluated per environment of the enclosing
    /// scope (correlated / lateral).
    Collection(Box<Collection>),
}

/// The grouping operator `γ keys…`. An empty key list is the explicit `γ∅`
/// of the paper ("group by true"): a single group over the whole join.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Grouping {
    /// Grouping-key attributes (possibly empty = `γ∅`).
    pub keys: Vec<AttrRef>,
}

impl Grouping {
    /// `γ∅`.
    pub fn empty() -> Self {
        Grouping { keys: Vec::new() }
    }

    /// `γ k₁, k₂, …`.
    pub fn by(keys: Vec<AttrRef>) -> Self {
        Grouping { keys }
    }
}

/// A join annotation tree over bound variables (§2.11).
///
/// `inner` is k-ary; `left`/`full` are binary. A literal leaf denotes a
/// singleton virtual relation containing exactly that value (paper Fig 12:
/// `left(r, inner(11, s))`); it participates in join conditions through the
/// implicit attribute `v` of an auto-generated variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinTree {
    /// A bound variable.
    Var(String),
    /// A literal singleton relation (a "virtual unary table").
    Lit(Value),
    /// Inner join of the children (k-ary).
    Inner(Vec<JoinTree>),
    /// Left outer join: the right side is optional.
    Left(Box<JoinTree>, Box<JoinTree>),
    /// Full outer join: both sides optional.
    Full(Box<JoinTree>, Box<JoinTree>),
}

impl JoinTree {
    /// All variable leaves, in tree order (literal leaves excluded).
    pub fn vars(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            JoinTree::Var(v) => out.push(v),
            JoinTree::Lit(_) => {}
            JoinTree::Inner(children) => {
                for c in children {
                    c.collect_vars(out);
                }
            }
            JoinTree::Left(l, r) | JoinTree::Full(l, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
        }
    }

    /// True if the tree contains any outer (left/full) node.
    pub fn has_outer(&self) -> bool {
        match self {
            JoinTree::Var(_) | JoinTree::Lit(_) => false,
            JoinTree::Inner(children) => children.iter().any(|c| c.has_outer()),
            JoinTree::Left(..) | JoinTree::Full(..) => true,
        }
    }
}

/// A predicate leaf.
///
/// The paper distinguishes *assignment predicates* (`Q.A = r.A`, head on one
/// side), *comparison predicates*, and *aggregation predicates* (an
/// aggregate appears as an operand). These are **roles**, not syntax: the
/// binder classifies each `Cmp` occurrence (see [`crate::binder`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variants/fields are self-describing
pub enum Predicate {
    /// `left op right`.
    Cmp {
        left: Scalar,
        op: CmpOp,
        right: Scalar,
    },
    /// `expr IS [NOT] NULL` — needed to replicate SQL's `NOT IN` behaviour
    /// in two-valued logic (§2.10, Eq (17)).
    IsNull { expr: Scalar, negated: bool },
}

impl Predicate {
    /// Visit every attribute reference of the predicate, left operand
    /// first, in occurrence order.
    pub fn each_attr_ref<'a>(&'a self, visit: &mut impl FnMut(&'a AttrRef)) {
        match self {
            Predicate::Cmp { left, right, .. } => {
                left.each_attr_ref(visit);
                right.each_attr_ref(visit);
            }
            Predicate::IsNull { expr, .. } => expr.each_attr_ref(visit),
        }
    }

    /// True iff an aggregate occurs anywhere in the predicate.
    pub fn has_aggregate(&self) -> bool {
        match self {
            Predicate::Cmp { left, right, .. } => left.has_aggregate() || right.has_aggregate(),
            Predicate::IsNull { expr, .. } => expr.has_aggregate(),
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants/fields are self-describing
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// The operator with sides swapped (`a < b` ⇔ `b > a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Display symbol (`=`, `<>`, `<`, `<=`, `>`, `>=`).
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Scalar expressions: attribute references, constants, aggregates, and
/// arithmetic. Arithmetic may alternatively be *reified* into external
/// relations (§2.13.1, Eqs (19)–(21)); both forms are supported and the
/// `reify` rewrite in `arc-analysis` converts between them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scalar {
    /// `var.attr`.
    Attr(AttrRef),
    /// A constant.
    Const(Value),
    /// An aggregate call, e.g. `sum(r.B)`. Only legal inside a grouping
    /// scope (validated by the binder).
    Agg(Box<AggCall>),
    /// Binary arithmetic.
    Arith {
        /// The operator.
        op: ArithOp,
        /// Left operand.
        left: Box<Scalar>,
        /// Right operand.
        right: Box<Scalar>,
    },
}

impl Scalar {
    /// True iff an aggregate occurs anywhere in this expression.
    pub fn has_aggregate(&self) -> bool {
        match self {
            Scalar::Attr(_) | Scalar::Const(_) => false,
            Scalar::Agg(_) => true,
            Scalar::Arith { left, right, .. } => left.has_aggregate() || right.has_aggregate(),
        }
    }

    /// All attribute references in this expression, in occurrence order
    /// (including those inside aggregates).
    pub fn attr_refs(&self) -> Vec<&AttrRef> {
        let mut out = Vec::new();
        self.each_attr_ref(&mut |a| out.push(a));
        out
    }

    /// Visit the references [`Scalar::attr_refs`] lists, in the same
    /// order, without building the list.
    pub fn each_attr_ref<'a>(&'a self, visit: &mut impl FnMut(&'a AttrRef)) {
        match self {
            Scalar::Attr(a) => visit(a),
            Scalar::Const(_) => {}
            Scalar::Agg(call) => {
                if let AggArg::Expr(e) = &call.arg {
                    e.each_attr_ref(visit);
                }
            }
            Scalar::Arith { left, right, .. } => {
                left.each_attr_ref(visit);
                right.each_attr_ref(visit);
            }
        }
    }
}

/// An attribute reference `var.attr` in the named perspective.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrRef {
    /// Range variable (or head relation name, for assignment predicates).
    pub var: String,
    /// Attribute name.
    pub attr: String,
}

impl AttrRef {
    /// Construct `var.attr`.
    pub fn new(var: impl Into<String>, attr: impl Into<String>) -> Self {
        AttrRef {
            var: var.into(),
            attr: attr.into(),
        }
    }
}

/// An aggregate call `func([distinct] arg)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggCall {
    /// The aggregate function.
    pub func: AggFunc,
    /// The aggregated expression (or `*` for `count(*)`).
    pub arg: AggArg,
    /// Deduplicate input values first (`countdistinct` & co., §2.5).
    pub distinct: bool,
}

/// Argument of an aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggArg {
    /// An expression evaluated per tuple of the group.
    Expr(Scalar),
    /// `*`: count rows (only meaningful for `count`).
    Star,
}

/// Aggregate functions. The initialization on empty input is a *convention*
/// (§2.6): SQL returns `NULL` for `sum/avg/min/max`, Soufflé returns 0 for
/// `sum`; `count` is 0 in both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants/fields are self-describing
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    /// Lower-case name as written in the comprehension syntax.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants/fields are self-describing
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl ArithOp {
    /// Display symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        }
    }
}

// ---------------------------------------------------------------------------
// Display impls (used by the ALT renderer and error messages; the full
// comprehension-syntax printer lives in `arc-parser`).
// ---------------------------------------------------------------------------

impl fmt::Display for AttrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.var, self.attr)
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Attr(a) => write!(f, "{a}"),
            Scalar::Const(v) => write!(f, "{v}"),
            Scalar::Agg(call) => write!(f, "{call}"),
            Scalar::Arith { op, left, right } => {
                let fmt_side = |s: &Scalar| -> String {
                    match s {
                        Scalar::Arith { .. } => format!("({s})"),
                        _ => format!("{s}"),
                    }
                };
                write!(f, "{} {} {}", fmt_side(left), op.symbol(), fmt_side(right))
            }
        }
    }
}

impl fmt::Display for AggCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = if self.distinct { "distinct " } else { "" };
        match &self.arg {
            AggArg::Expr(e) => write!(f, "{}({d}{e})", self.func.name()),
            AggArg::Star => write!(f, "{}({d}*)", self.func.name()),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Cmp { left, op, right } => {
                write!(f, "{left} {} {right}", op.symbol())
            }
            Predicate::IsNull { expr, negated } => {
                write!(f, "{expr} is {}null", if *negated { "not " } else { "" })
            }
        }
    }
}

impl fmt::Display for Head {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.relation, self.attrs.join(","))
    }
}

impl fmt::Display for JoinTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinTree::Var(v) => write!(f, "{v}"),
            JoinTree::Lit(v) => write!(f, "{v}"),
            JoinTree::Inner(children) => {
                let parts: Vec<String> = children.iter().map(|c| c.to_string()).collect();
                write!(f, "inner({})", parts.join(", "))
            }
            JoinTree::Left(l, r) => write!(f, "left({l}, {r})"),
            JoinTree::Full(l, r) => write!(f, "full({l}, {r})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(v: &str, a: &str) -> Scalar {
        Scalar::Attr(AttrRef::new(v, a))
    }

    #[test]
    fn display_predicate_forms() {
        let p = Predicate::Cmp {
            left: attr("Q", "A"),
            op: CmpOp::Eq,
            right: attr("r", "A"),
        };
        assert_eq!(p.to_string(), "Q.A = r.A");

        let agg = Predicate::Cmp {
            left: attr("Q", "sm"),
            op: CmpOp::Eq,
            right: Scalar::Agg(Box::new(AggCall {
                func: AggFunc::Sum,
                arg: AggArg::Expr(attr("r", "B")),
                distinct: false,
            })),
        };
        assert_eq!(agg.to_string(), "Q.sm = sum(r.B)");
        assert!(agg.has_aggregate());
    }

    #[test]
    fn arith_display_parenthesizes_nested() {
        let e = Scalar::Arith {
            op: ArithOp::Sub,
            left: Box::new(attr("r", "B")),
            right: Box::new(Scalar::Arith {
                op: ArithOp::Mul,
                left: Box::new(attr("s", "B")),
                right: Box::new(Scalar::Const(Value::Int(2))),
            }),
        };
        assert_eq!(e.to_string(), "r.B - (s.B * 2)");
    }

    #[test]
    fn join_tree_vars_and_outer() {
        let jt = JoinTree::Left(
            Box::new(JoinTree::Var("r".into())),
            Box::new(JoinTree::Inner(vec![
                JoinTree::Lit(Value::Int(11)),
                JoinTree::Var("s".into()),
            ])),
        );
        assert_eq!(jt.vars(), vec!["r", "s"]);
        assert!(jt.has_outer());
        assert_eq!(jt.to_string(), "left(r, inner(11, s))");
    }

    #[test]
    fn conjunct_flattening() {
        let f = Formula::And(vec![
            Formula::And(vec![Formula::Pred(Predicate::Cmp {
                left: attr("r", "A"),
                op: CmpOp::Eq,
                right: Scalar::Const(Value::Int(1)),
            })]),
            Formula::Pred(Predicate::IsNull {
                expr: attr("r", "B"),
                negated: false,
            }),
        ]);
        assert_eq!(f.conjuncts().len(), 2);
    }

    #[test]
    fn json_round_trip() {
        let c = Collection {
            head: Head::new("Q", &["A"]),
            body: Formula::Quant(Box::new(Quant {
                bindings: vec![Binding::named("r", "R")],
                grouping: Some(Grouping::by(vec![AttrRef::new("r", "A")])),
                join: None,
                body: Formula::Pred(Predicate::Cmp {
                    left: attr("Q", "A"),
                    op: CmpOp::Eq,
                    right: attr("r", "A"),
                }),
            })),
        };
        let json = crate::json::to_json_compact(&c);
        let back: Collection = crate::json::from_json(&json).unwrap();
        assert_eq!(c, back);
    }
}
