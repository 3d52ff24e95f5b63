//! The binder: name resolution and the "linking step" of the paper (§2.2).
//!
//! Binding turns the ALT into the *linked* ALT (conceptually an Abstract
//! Language Higraph): every attribute reference is connected to the binding
//! that declares its range variable (the red overlay arrows of Fig 2a), and
//! every predicate occurrence is classified into its **role**:
//!
//! * *assignment predicate* — `Q.A = r.A` with the head on one side (§2.1);
//! * *comparison predicate* — everything else;
//! * either may additionally be an *aggregation predicate* when an aggregate
//!   appears as an operand (§2.5, footnote 5).
//!
//! The binder also performs the validation the paper assigns to the
//! machine-facing modality ("well-scoped variables, grouping legality,
//! correlation shape", §4): see [`BindError`] for the full rule list.

use crate::ast::*;
use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Write as _};

/// Relation name → attribute list, for schema-aware (closed-world) binding.
pub type SchemaMap = HashMap<String, Vec<String>>;

/// Sentinel collection ordinal for variables bound outside any collection
/// (boolean sentences, Fig 9).
const ROOT: usize = usize::MAX;

/// A binding/validation diagnostic. [`BindError::is_error`] distinguishes
/// hard errors from warnings (an *abstract* definition is legal but unsafe
/// on its own, §2.13.2).
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field names are self-describing
pub enum BindError {
    /// A binding references a relation not in scope (closed-world mode only).
    UnknownRelation { relation: String },
    /// An attribute reference's variable is not bound in any enclosing scope.
    UnboundVariable { var: String, place: String },
    /// The attribute does not exist on the resolved relation.
    UnknownAttribute {
        var: String,
        attr: String,
        relation: String,
    },
    /// Two bindings in the same visible scope chain share a variable name.
    ShadowedVariable { var: String },
    /// An aggregate occurs in a predicate whose scope has no grouping
    /// operator ("the appearance of any aggregation predicate … requires a
    /// grouping operator", §2.5).
    AggregateOutsideGroupingScope { predicate: String },
    /// A grouping key's variable is not bound by the same quantifier.
    GroupingKeyNotLocal { key: String },
    /// An aggregate's argument references a variable not bound by the
    /// quantifier whose scope contains the aggregation predicate.
    AggregateArgNotLocal { predicate: String, var: String },
    /// In a grouping scope, a non-aggregated attribute that escapes the
    /// group (head assignment or aggregation-predicate operand) is not a
    /// grouping key — SQL's "column must appear in GROUP BY" rule.
    NonKeyAttributeEscapesGroup { attr: String, predicate: String },
    /// A head attribute never receives an assignment.
    HeadAttrNotAssigned { collection: String, attr: String },
    /// A head reference names an attribute that is not in the head.
    HeadAttrUnknown { collection: String, attr: String },
    /// A join-annotation leaf names a variable not bound by the quantifier.
    JoinVarUnknown { var: String },
    /// A quantifier variable appears more than once in its join annotation.
    JoinVarDuplicated { var: String },
    /// A quantifier with a join annotation omits one of its variables.
    JoinVarMissing { var: String },
    /// Warning: the definition is *abstract* (§2.13.2): its head attributes
    /// are range-restricted by the surrounding query rather than assigned,
    /// so the relation has no standalone extension.
    AbstractDefinition { collection: String },
    /// A head attribute reference is nested inside an arithmetic or
    /// aggregate expression; heads stay "clean" (§2.3).
    HeadRefNested { attr: String, predicate: String },
}

impl BindError {
    /// Whether the diagnostic is a hard error (vs. informational warning).
    pub fn is_error(&self) -> bool {
        !matches!(self, BindError::AbstractDefinition { .. })
    }
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::UnknownRelation { relation } => write!(f, "unknown relation `{relation}`"),
            BindError::UnboundVariable { var, place } => {
                write!(f, "unbound variable `{var}` in `{place}`")
            }
            BindError::UnknownAttribute { var, attr, relation } => {
                write!(f, "relation `{relation}` (via `{var}`) has no attribute `{attr}`")
            }
            BindError::ShadowedVariable { var } => {
                write!(f, "variable `{var}` shadows an enclosing binding")
            }
            BindError::AggregateOutsideGroupingScope { predicate } => {
                write!(f, "aggregation predicate `{predicate}` requires a grouping scope (γ)")
            }
            BindError::GroupingKeyNotLocal { key } => {
                write!(f, "grouping key `{key}` must be bound by the same quantifier")
            }
            BindError::AggregateArgNotLocal { predicate, var } => write!(
                f,
                "aggregate in `{predicate}` ranges over `{var}`, which is not bound in the grouping scope"
            ),
            BindError::NonKeyAttributeEscapesGroup { attr, predicate } => write!(
                f,
                "`{attr}` escapes a grouping scope in `{predicate}` but is not a grouping key"
            ),
            BindError::HeadAttrNotAssigned { collection, attr } => {
                write!(f, "head attribute `{collection}.{attr}` is never assigned")
            }
            BindError::HeadAttrUnknown { collection, attr } => {
                write!(f, "head reference `{collection}.{attr}` is not in the head")
            }
            BindError::JoinVarUnknown { var } => {
                write!(f, "join annotation references unknown variable `{var}`")
            }
            BindError::JoinVarDuplicated { var } => {
                write!(f, "join annotation references `{var}` more than once")
            }
            BindError::JoinVarMissing { var } => {
                write!(f, "join annotation does not cover bound variable `{var}`")
            }
            BindError::AbstractDefinition { collection } => write!(
                f,
                "definition `{collection}` is abstract: head attributes are range-restricted, not assigned"
            ),
            BindError::HeadRefNested { attr, predicate } => write!(
                f,
                "head attribute `{attr}` must not be nested inside expressions (`{predicate}`)"
            ),
        }
    }
}

/// Role of a predicate occurrence (paper vocabulary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredRole {
    /// `Head.attr = expr` in a positive equality.
    Assignment {
        /// The assigned head attribute.
        target: AttrRef,
        /// Does the assigned expression aggregate (`Q.sm = sum(r.B)`)?
        aggregating: bool,
    },
    /// Any other predicate.
    Comparison {
        /// Does an aggregate appear as an operand (`r.q = count(s.d)`)?
        aggregating: bool,
    },
}

impl PredRole {
    /// True for aggregation predicates of either role.
    pub fn is_aggregating(&self) -> bool {
        match self {
            PredRole::Assignment { aggregating, .. } | PredRole::Comparison { aggregating } => {
                *aggregating
            }
        }
    }

    /// True for assignment predicates.
    pub fn is_assignment(&self) -> bool {
        matches!(self, PredRole::Assignment { .. })
    }
}

/// A recorded correlation: an attribute reference inside one collection that
/// resolves to a binding of an *enclosing* collection — the "from the
/// outside in" ingredient of §2.5 and the lateral pattern of §2.4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Correlation {
    /// Ordinal of the referencing (inner) collection.
    pub inner: usize,
    /// Head name of the referencing collection.
    pub inner_name: String,
    /// The referenced variable and attribute.
    pub var: String,
    /// The referenced attribute.
    pub attr: String,
    /// Ordinal of the collection that binds the variable ([`ROOT`]-level
    /// sentences use `usize::MAX`).
    pub outer: usize,
}

/// Assignment vs. comparison use of an aggregate — the distinction the
/// paper uses to *name* the count bug ("an aggregate used as a value …
/// and an aggregate used as a test", §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggRole {
    /// `Q.sm = sum(r.B)`.
    Assignment,
    /// `r.q = count(s.d)` — a test.
    Comparison,
}

/// Information about one aggregate occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggOccurrence {
    /// The function.
    pub func: AggFunc,
    /// Distinct aggregate?
    pub distinct: bool,
    /// Assignment or comparison use.
    pub role: AggRole,
    /// Number of grouping keys of the scope holding the predicate
    /// (`0` = `γ∅`).
    pub grouping_keys: usize,
    /// Ordinal of the collection containing the predicate.
    pub collection: usize,
    /// Whether the predicate references variables bound by an *enclosing*
    /// quantifier (per-outer-tuple correlation, e.g. the count-bug shape
    /// `r.q = count(s.d)` where `r` is outer).
    pub outer_refs: bool,
    /// Rendered predicate, for diagnostics and reports.
    pub predicate: String,
}

/// One classified predicate occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredOccurrence {
    /// Rendered predicate.
    pub display: String,
    /// Classified role.
    pub role: PredRole,
    /// Scope-nesting depth at the occurrence.
    pub depth: usize,
    /// Whether the predicate sits under a negation.
    pub under_negation: bool,
    /// Ordinal of the collection containing the predicate.
    pub collection: usize,
}

/// The product of binding: link structure plus the summary statistics used
/// by the pattern layer and renderers.
#[derive(Debug, Clone, Default)]
pub struct BoundInfo {
    /// Diagnostics (errors and warnings).
    pub diagnostics: Vec<BindError>,
    /// How many times each named relation is bound — the **signature** of
    /// the query that the paper uses to distinguish Fig 6 from Figs 7/8.
    pub relation_occurrences: BTreeMap<String, usize>,
    /// Number of quantifier scopes.
    pub scope_count: usize,
    /// Number of collections (outer + nested + definitions).
    pub collection_count: usize,
    /// Number of negation scopes.
    pub negation_count: usize,
    /// Number of grouping scopes.
    pub grouping_scope_count: usize,
    /// Maximum scope-nesting depth.
    pub max_depth: usize,
    /// All correlations.
    pub correlations: Vec<Correlation>,
    /// All aggregate occurrences.
    pub aggregates: Vec<AggOccurrence>,
    /// All predicate occurrences with roles.
    pub predicates: Vec<PredOccurrence>,
    /// Head names of collections classified as abstract (§2.13.2).
    pub abstract_collections: Vec<String>,
}

impl BoundInfo {
    /// Hard errors only.
    pub fn errors(&self) -> Vec<&BindError> {
        self.diagnostics.iter().filter(|d| d.is_error()).collect()
    }

    /// True if binding produced no hard errors.
    pub fn is_valid(&self) -> bool {
        self.diagnostics.iter().all(|d| !d.is_error())
    }

    /// Whether a given collection ordinal is correlated to any enclosing
    /// scope (used by the FIO/FOI classifier in `arc-analysis`).
    pub fn is_correlated(&self, collection: usize) -> bool {
        self.correlations.iter().any(|c| c.inner == collection)
    }
}

// ---------------------------------------------------------------------------
// Implementation
// ---------------------------------------------------------------------------

/// The binder. Construct with [`Binder::new`] (open world: unknown relation
/// names allowed, attributes unchecked) or [`Binder::with_schemas`]
/// (closed world).
pub struct Binder {
    schemas: Option<SchemaMap>,
}

impl Default for Binder {
    fn default() -> Self {
        Binder::new()
    }
}

impl Binder {
    /// Open-world binder.
    pub fn new() -> Self {
        Binder { schemas: None }
    }

    /// Closed-world binder: named sources must be known base relations,
    /// program definitions, or recursive self-references; attribute names
    /// are checked.
    pub fn with_schemas(schemas: SchemaMap) -> Self {
        Binder {
            schemas: Some(schemas),
        }
    }

    /// Bind a single query collection.
    pub fn bind_collection(&self, c: &Collection) -> BoundInfo {
        let mut w = Walk::new(self.schemas.as_ref(), true);
        w.collection(c, true);
        w.info
    }

    /// Bind a boolean sentence (Fig 9): a formula with no head.
    pub fn bind_sentence(&self, f: &Formula) -> BoundInfo {
        let mut w = Walk::new(self.schemas.as_ref(), true);
        w.formula(f);
        w.info
    }

    /// Bind a whole program: definitions (mutually visible, so recursion
    /// binds) then the query.
    pub fn bind_program(&self, p: &Program) -> BoundInfo {
        let mut w = Walk::new(self.schemas.as_ref(), true);
        w.program(p);
        w.info
    }

    /// The head names of the program's *abstract* definitions (§2.13.2)
    /// — [`BoundInfo::abstract_collections`] of [`Binder::bind_program`],
    /// by the same walk, which records nothing else: no diagnostics, no
    /// occurrences, no rendered predicates.
    pub fn abstract_definitions(&self, p: &Program) -> Vec<String> {
        // Only a definition that leaves a head attribute unassigned can be
        // abstract; most programs have none, and need no walk to say so.
        let complete = |c: &Collection| {
            let assigned = |a: &String| assigns(&c.body, &c.head.relation, a);
            c.head.attrs.iter().all(assigned)
        };
        if p.definitions.iter().all(|d| complete(&d.collection)) {
            return Vec::new();
        }
        let mut w = Walk::new(self.schemas.as_ref(), false);
        w.program(p);
        w.info.abstract_collections
    }
}

struct VarEntry<'a> {
    var: &'a str,
    /// Attribute list when known (None for open-world named relations).
    attrs: Option<&'a [String]>,
    /// Source relation name (None for nested collections).
    relation: Option<&'a str>,
    /// Ordinal of the collection this binding belongs to.
    collection: usize,
    /// Ordinal of the quantifier this binding belongs to.
    quant: usize,
}

struct CollFrame<'a> {
    name: &'a str,
    attrs: &'a [String],
    ordinal: usize,
    head_used_in_comparison: bool,
    /// Negation depth at frame creation; predicates are "positive" for this
    /// collection only while the global depth equals this base.
    neg_base: usize,
}

struct QuantFrame<'a> {
    id: usize,
    /// `Some(keys)` iff the quantifier carries a grouping operator.
    grouping: Option<&'a [AttrRef]>,
}

/// One pass over the AST. Names and attribute lists are borrowed from the
/// AST and the schema map; what the walk owns is what it hands back.
struct Walk<'a> {
    schemas: Option<&'a SchemaMap>,
    /// Whether the walk records its findings. A walk that does not still
    /// classifies every definition (`info.abstract_collections`).
    record: bool,
    local_defs: HashMap<&'a str, &'a [String]>,
    vars: Vec<VarEntry<'a>>,
    colls: Vec<CollFrame<'a>>,
    quants: Vec<QuantFrame<'a>>,
    quant_counter: usize,
    depth: usize,
    neg_depth: usize,
    /// Set per-predicate: does the current predicate reference variables
    /// bound outside the innermost quantifier?
    pred_outer_refs: bool,
    info: BoundInfo,
}

impl<'a> Walk<'a> {
    fn new(schemas: Option<&'a SchemaMap>, record: bool) -> Self {
        Walk {
            schemas,
            record,
            local_defs: HashMap::new(),
            vars: Vec::new(),
            colls: Vec::new(),
            quants: Vec::new(),
            quant_counter: 0,
            depth: 0,
            neg_depth: 0,
            pred_outer_refs: false,
            info: BoundInfo::default(),
        }
    }

    fn program(&mut self, p: &'a Program) {
        for def in &p.definitions {
            self.local_defs
                .insert(def.name(), &def.collection.head.attrs);
        }
        for def in &p.definitions {
            self.collection(&def.collection, false);
        }
        if let Some(q) = &p.query {
            self.collection(q, true);
        }
    }

    /// Record a diagnostic; the closure keeps a walk that records nothing
    /// from building one.
    fn diag(&mut self, e: impl FnOnce() -> BindError) {
        if self.record {
            self.info.diagnostics.push(e());
        }
    }

    fn relation_attrs(&self, name: &str) -> Option<&'a [String]> {
        if let Some(a) = self.local_defs.get(name) {
            return Some(a);
        }
        self.schemas.and_then(|s| s.get(name).map(Vec::as_slice))
    }

    fn current_collection(&self) -> usize {
        self.colls.last().map(|c| c.ordinal).unwrap_or(ROOT)
    }

    /// The innermost binding of `var`.
    fn var(&self, var: &str) -> Option<&VarEntry<'a>> {
        self.vars.iter().rev().find(|v| v.var == var)
    }

    fn collection(&mut self, c: &'a Collection, is_query: bool) {
        let ordinal = self.info.collection_count;
        self.info.collection_count += 1;
        self.colls.push(CollFrame {
            name: &c.head.relation,
            attrs: &c.head.attrs,
            ordinal,
            head_used_in_comparison: false,
            neg_base: self.neg_depth,
        });
        self.depth += 1;
        self.info.max_depth = self.info.max_depth.max(self.depth);

        self.formula(&c.body);

        let frame = self.colls.pop().expect("collection frame");
        self.depth -= 1;

        let mut missing = c
            .head
            .attrs
            .iter()
            .filter(|a| !assigns(&c.body, &c.head.relation, a))
            .peekable();
        if missing.peek().is_none() {
            return;
        }
        if frame.head_used_in_comparison && !is_query {
            // Unsafe standalone, meaningful in context: abstract (§2.13.2).
            self.info.abstract_collections.push(frame.name.to_string());
            self.diag(|| BindError::AbstractDefinition {
                collection: frame.name.to_string(),
            });
        } else {
            for attr in missing {
                self.diag(|| BindError::HeadAttrNotAssigned {
                    collection: frame.name.to_string(),
                    attr: attr.clone(),
                });
            }
        }
    }

    fn formula(&mut self, f: &'a Formula) {
        match f {
            Formula::Quant(q) => self.quant(q),
            Formula::And(fs) | Formula::Or(fs) => {
                for sub in fs {
                    self.formula(sub);
                }
            }
            Formula::Not(inner) => {
                self.info.negation_count += 1;
                self.neg_depth += 1;
                self.formula(inner);
                self.neg_depth -= 1;
            }
            Formula::Pred(p) => self.predicate(p),
        }
    }

    fn quant(&mut self, q: &'a Quant) {
        let quant_id = self.quant_counter;
        self.quant_counter += 1;
        self.info.scope_count += 1;
        if q.grouping.is_some() {
            self.info.grouping_scope_count += 1;
        }
        let coll_ordinal = self.current_collection();
        let var_base = self.vars.len();

        for b in &q.bindings {
            if self.vars.iter().any(|v| v.var == b.var)
                || self.colls.iter().any(|c| c.name == b.var)
            {
                self.diag(|| BindError::ShadowedVariable { var: b.var.clone() });
            }
            let (attrs, relation) = match &b.source {
                BindingSource::Named(rel) => {
                    if self.record {
                        match self.info.relation_occurrences.get_mut(rel) {
                            Some(n) => *n += 1,
                            None => {
                                self.info.relation_occurrences.insert(rel.clone(), 1);
                            }
                        }
                    }
                    let attrs = self.relation_attrs(rel);
                    if attrs.is_none() && self.schemas.is_some() {
                        self.diag(|| BindError::UnknownRelation {
                            relation: rel.clone(),
                        });
                    }
                    (attrs, Some(rel.as_str()))
                }
                BindingSource::Collection(c) => {
                    self.collection(c, true);
                    (Some(c.head.attrs.as_slice()), None)
                }
            };
            self.vars.push(VarEntry {
                var: &b.var,
                attrs,
                relation,
                collection: coll_ordinal,
                quant: quant_id,
            });
        }

        // The join annotation must cover exactly the bound variables.
        if let Some(jt) = q.join.as_ref().filter(|_| self.record) {
            let vars = jt.vars();
            for (i, v) in vars.iter().enumerate() {
                if vars[..i].contains(v) {
                    continue; // reported at its first occurrence
                }
                if vars[i + 1..].contains(v) {
                    self.diag(|| BindError::JoinVarDuplicated { var: v.to_string() });
                }
                if !q.bindings.iter().any(|b| b.var == *v) {
                    self.diag(|| BindError::JoinVarUnknown { var: v.to_string() });
                }
            }
            for b in &q.bindings {
                if !vars.contains(&b.var.as_str()) {
                    self.diag(|| BindError::JoinVarMissing { var: b.var.clone() });
                }
            }
        }

        // Grouping keys must be bound by this very quantifier.
        if let Some(g) = &q.grouping {
            for key in &g.keys {
                let local = self.vars[var_base..].iter().any(|v| v.var == key.var);
                if !local {
                    self.diag(|| BindError::GroupingKeyNotLocal {
                        key: key.to_string(),
                    });
                } else {
                    self.check_attr_exists(key);
                }
            }
        }

        self.quants.push(QuantFrame {
            id: quant_id,
            grouping: q.grouping.as_ref().map(|g| g.keys.as_slice()),
        });
        self.depth += 1;
        self.info.max_depth = self.info.max_depth.max(self.depth);
        self.formula(&q.body);
        self.depth -= 1;
        self.quants.pop();
        self.vars.truncate(var_base);
    }

    fn check_attr_exists(&mut self, r: &AttrRef) {
        let Some(entry) = self.var(&r.var) else {
            return;
        };
        let (attrs, relation) = (entry.attrs, entry.relation);
        if attrs.is_some_and(|attrs| !attrs.contains(&r.attr)) {
            self.diag(|| BindError::UnknownAttribute {
                var: r.var.clone(),
                attr: r.attr.clone(),
                relation: relation.unwrap_or("<nested collection>").to_string(),
            });
        }
    }

    /// Resolve a non-head attribute reference, recording correlations.
    /// Returns the binding's quantifier id when resolution succeeds.
    fn resolve(&mut self, r: &AttrRef, place: &str) -> Option<usize> {
        let current = self.current_collection();
        let found = self.var(&r.var).map(|e| (e.collection, e.quant));
        match found {
            Some((coll, quant)) => {
                if coll != current && self.record {
                    let inner_name = self.colls.last().map(|c| c.name).unwrap_or_default();
                    self.info.correlations.push(Correlation {
                        inner: current,
                        inner_name: inner_name.to_string(),
                        var: r.var.clone(),
                        attr: r.attr.clone(),
                        outer: coll,
                    });
                }
                self.check_attr_exists(r);
                Some(quant)
            }
            None => {
                self.diag(|| BindError::UnboundVariable {
                    var: r.var.clone(),
                    place: place.to_string(),
                });
                None
            }
        }
    }

    /// Does `var` name the head of an enclosing collection (and is not
    /// shadowed by a range-variable binding)?
    fn is_head_var(&self, var: &str) -> bool {
        !self.vars.iter().any(|v| v.var == var) && self.colls.iter().any(|c| c.name == var)
    }

    fn head_frame_mut(&mut self, var: &str) -> Option<&mut CollFrame<'a>> {
        self.colls.iter_mut().rev().find(|c| c.name == var)
    }

    fn predicate(&mut self, p: &'a Predicate) {
        // Rendered for the occurrence list and for diagnostics; a walk
        // that records neither never reads it.
        let mut display = String::new();
        if self.record {
            // Sized for a typical predicate: rendering then allocates once.
            display.reserve(48);
            let _ = write!(display, "{p}");
        }
        let aggregating = p.has_aggregate();

        // Does this predicate reach outside the innermost quantifier?
        self.pred_outer_refs = {
            let current = self.quants.last().map(|q| q.id);
            let mut outer = false;
            p.each_attr_ref(&mut |r| {
                outer |= self.var(&r.var).is_some_and(|v| Some(v.quant) != current);
            });
            outer
        };

        // Negation relative to the innermost collection: an equality with a
        // head side can only *assign* in a positive context; under negation
        // it is a test (which is what makes a definition abstract, §2.13.2).
        let positive = self.neg_depth == self.colls.last().map(|c| c.neg_base).unwrap_or(0);

        // Role classification: the assignment target, if the predicate
        // assigns.
        let target: Option<(&'a AttrRef, bool)> = match p {
            Predicate::Cmp { left, op, right } if *op == CmpOp::Eq && positive => {
                let head_side = |s: &'a Scalar| -> Option<&'a AttrRef> {
                    match s {
                        Scalar::Attr(a) if self.is_head_var(&a.var) => Some(a),
                        _ => None,
                    }
                };
                match (head_side(left), head_side(right)) {
                    (Some(t), None) => Some((t, right.has_aggregate())),
                    (None, Some(t)) => Some((t, left.has_aggregate())),
                    _ => None,
                }
            }
            _ => None,
        };
        let target_ref = target.map(|(t, _)| t);

        // Resolve operands.
        match p {
            Predicate::Cmp { left, right, .. } => {
                self.scalar(left, &display, target_ref, false);
                self.scalar(right, &display, target_ref, false);
            }
            Predicate::IsNull { expr, .. } => {
                self.scalar(expr, &display, target_ref, false);
            }
        }

        // Aggregation predicates need a grouping scope (§2.5).
        if aggregating {
            let grouped = self
                .quants
                .last()
                .map(|q| q.grouping.is_some())
                .unwrap_or(false);
            if !grouped {
                self.diag(|| BindError::AggregateOutsideGroupingScope {
                    predicate: display.clone(),
                });
            }
        }

        // Grouping legality: in a grouping scope, plain attributes that
        // escape the group (via head assignment or as operands of an
        // aggregation predicate) must be grouping keys.
        let escapes = target.is_some() || aggregating;
        if let (
            true,
            true,
            Some(&QuantFrame {
                id: qid,
                grouping: Some(keys),
            }),
        ) = (escapes, self.record, self.quants.last())
        {
            let mut bare: Vec<&AttrRef> = Vec::new();
            match p {
                Predicate::Cmp { left, right, .. } => {
                    collect_bare_refs(left, &mut bare);
                    collect_bare_refs(right, &mut bare);
                }
                Predicate::IsNull { expr, .. } => collect_bare_refs(expr, &mut bare),
            }
            for a in bare {
                if self.is_head_var(&a.var) {
                    continue; // assignment target
                }
                let local = self.var(&a.var).is_some_and(|v| v.quant == qid);
                if local && !keys.contains(a) {
                    self.diag(|| BindError::NonKeyAttributeEscapesGroup {
                        attr: a.to_string(),
                        predicate: display.clone(),
                    });
                }
            }
        }

        if self.record {
            let collection = self.current_collection();
            self.info.predicates.push(PredOccurrence {
                display,
                role: match target {
                    Some((t, aggregating)) => PredRole::Assignment {
                        target: t.clone(),
                        aggregating,
                    },
                    None => PredRole::Comparison { aggregating },
                },
                depth: self.depth,
                under_negation: !positive,
                collection,
            });
        }
    }

    /// Resolve the attribute references of a scalar. `target` is the head
    /// attribute the enclosing predicate assigns, if it assigns; `nested`
    /// is true when the scalar is an operand of arithmetic or an aggregate
    /// (head references are illegal there).
    fn scalar(
        &mut self,
        s: &'a Scalar,
        pred_display: &str,
        target: Option<&'a AttrRef>,
        nested: bool,
    ) {
        match s {
            Scalar::Attr(a) => {
                if self.is_head_var(&a.var) {
                    if nested {
                        self.diag(|| BindError::HeadRefNested {
                            attr: a.to_string(),
                            predicate: pred_display.to_string(),
                        });
                        return;
                    }
                    // Check the attribute is declared in the head.
                    let unknown = self
                        .head_frame_mut(&a.var)
                        .map(|f| !f.attrs.iter().any(|x| x == &a.attr))
                        .unwrap_or(false);
                    if unknown {
                        self.diag(|| BindError::HeadAttrUnknown {
                            collection: a.var.clone(),
                            attr: a.attr.clone(),
                        });
                    }
                    // A head ref that is not the assignment target marks the
                    // collection abstract-capable (§2.13.2).
                    if target != Some(a) {
                        if let Some(frame) = self.head_frame_mut(&a.var) {
                            frame.head_used_in_comparison = true;
                        }
                    }
                } else {
                    self.resolve(a, pred_display);
                }
            }
            Scalar::Const(_) => {}
            Scalar::Agg(call) => {
                if self.record {
                    self.record_aggregate(call, pred_display, target.is_some());
                }
                if let AggArg::Expr(e) = &call.arg {
                    self.aggregate_arg(e, pred_display);
                }
            }
            Scalar::Arith { left, right, .. } => {
                self.scalar(left, pred_display, target, true);
                self.scalar(right, pred_display, target, true);
            }
        }
    }

    /// Aggregate arguments must range over variables bound by the
    /// quantifier whose scope contains the aggregation predicate (§2.5:
    /// "the full join, determined by the scope in which the aggregation
    /// predicate appears").
    fn aggregate_arg(&mut self, e: &'a Scalar, pred_display: &str) {
        let current_quant = self.quants.last().map(|q| q.id);
        for a in e.attr_refs() {
            if self.is_head_var(&a.var) {
                self.diag(|| BindError::HeadRefNested {
                    attr: a.to_string(),
                    predicate: pred_display.to_string(),
                });
                continue;
            }
            let resolved_quant = self.resolve(a, pred_display);
            if let (Some(rq), Some(cq)) = (resolved_quant, current_quant) {
                if rq != cq {
                    self.diag(|| BindError::AggregateArgNotLocal {
                        predicate: pred_display.to_string(),
                        var: a.var.clone(),
                    });
                }
            }
        }
    }

    fn record_aggregate(&mut self, call: &AggCall, pred_display: &str, assigning: bool) {
        let grouping_keys = self
            .quants
            .last()
            .and_then(|q| q.grouping)
            .map(|k| k.len())
            .unwrap_or(0);
        let collection = self.current_collection();
        self.info.aggregates.push(AggOccurrence {
            func: call.func,
            distinct: call.distinct,
            role: if assigning {
                AggRole::Assignment
            } else {
                AggRole::Comparison
            },
            grouping_keys,
            collection,
            outer_refs: self.pred_outer_refs,
            predicate: pred_display.to_string(),
        });
    }
}

/// Collect bare (non-aggregated) attribute references of a scalar.
fn collect_bare_refs<'a>(s: &'a Scalar, out: &mut Vec<&'a AttrRef>) {
    match s {
        Scalar::Attr(a) => out.push(a),
        Scalar::Const(_) => {}
        Scalar::Agg(_) => {} // aggregated refs do not escape bare
        Scalar::Arith { left, right, .. } => {
            collect_bare_refs(left, out);
            collect_bare_refs(right, out);
        }
    }
}

/// Whether `head.attr` is definitely assigned when `f` holds: by some
/// conjunct, by every disjunct, never under a negation. Used for
/// head-completeness checking.
fn assigns(f: &Formula, head: &str, attr: &str) -> bool {
    let is_target = |s: &Scalar| matches!(s, Scalar::Attr(a) if a.var == head && a.attr == attr);
    match f {
        Formula::Pred(Predicate::Cmp { left, op, right }) => {
            *op == CmpOp::Eq && (is_target(left) || is_target(right))
        }
        Formula::Pred(_) | Formula::Not(_) => false,
        Formula::And(fs) => fs.iter().any(|sub| assigns(sub, head, attr)),
        Formula::Or(fs) => !fs.is_empty() && fs.iter().all(|sub| assigns(sub, head, attr)),
        Formula::Quant(q) => assigns(&q.body, head, attr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;

    fn schemas() -> SchemaMap {
        let mut m = SchemaMap::new();
        m.insert("R".into(), vec!["A".into(), "B".into()]);
        m.insert("S".into(), vec!["B".into(), "C".into()]);
        m
    }

    /// Eq (1): {Q(A) | ∃r∈R, s∈S [Q.A=r.A ∧ r.B=s.B ∧ s.C=0]}
    fn eq1() -> Collection {
        collection(
            "Q",
            &["A"],
            exists(
                &[bind("r", "R"), bind("s", "S")],
                and([
                    assign("Q", "A", col("r", "A")),
                    eq(col("r", "B"), col("s", "B")),
                    eq(col("s", "C"), int(0)),
                ]),
            ),
        )
    }

    #[test]
    fn eq1_binds_cleanly() {
        let info = Binder::with_schemas(schemas()).bind_collection(&eq1());
        assert!(info.is_valid(), "diagnostics: {:?}", info.diagnostics);
        assert_eq!(info.relation_occurrences["R"], 1);
        assert_eq!(info.relation_occurrences["S"], 1);
        assert_eq!(info.scope_count, 1);
        // One assignment, two comparisons.
        let assignments = info
            .predicates
            .iter()
            .filter(|p| p.role.is_assignment())
            .count();
        assert_eq!(assignments, 1);
        assert_eq!(info.predicates.len(), 3);
    }

    #[test]
    fn unknown_relation_and_attribute_detected() {
        let q = collection(
            "Q",
            &["A"],
            exists(&[bind("r", "Nope")], and([assign("Q", "A", col("r", "A"))])),
        );
        let info = Binder::with_schemas(schemas()).bind_collection(&q);
        assert!(info
            .diagnostics
            .iter()
            .any(|d| matches!(d, BindError::UnknownRelation { .. })));

        let q2 = collection(
            "Q",
            &["A"],
            exists(&[bind("r", "R")], and([assign("Q", "A", col("r", "Z"))])),
        );
        let info2 = Binder::with_schemas(schemas()).bind_collection(&q2);
        assert!(info2
            .diagnostics
            .iter()
            .any(|d| matches!(d, BindError::UnknownAttribute { .. })));
    }

    #[test]
    fn unbound_variable_detected() {
        let q = collection(
            "Q",
            &["A"],
            exists(
                &[bind("r", "R")],
                and([
                    assign("Q", "A", col("r", "A")),
                    eq(col("ghost", "B"), int(1)),
                ]),
            ),
        );
        let info = Binder::new().bind_collection(&q);
        assert!(info
            .diagnostics
            .iter()
            .any(|d| matches!(d, BindError::UnboundVariable { var, .. } if var == "ghost")));
    }

    #[test]
    fn aggregate_requires_grouping_scope() {
        // Missing γ: {Q(s) | ∃r∈R [Q.s = sum(r.B)]}
        let q = collection(
            "Q",
            &["s"],
            exists(
                &[bind("r", "R")],
                and([assign_agg("Q", "s", sum(col("r", "B")))]),
            ),
        );
        let info = Binder::new().bind_collection(&q);
        assert!(info
            .diagnostics
            .iter()
            .any(|d| matches!(d, BindError::AggregateOutsideGroupingScope { .. })));
    }

    #[test]
    fn eq3_fio_binds_and_classifies() {
        // Eq (3): {Q(A,sm) | ∃r∈R, γ r.A [Q.A=r.A ∧ Q.sm=sum(r.B)]}
        let q = collection(
            "Q",
            &["A", "sm"],
            quant(
                &[bind("r", "R")],
                group(&[("r", "A")]),
                None,
                and([
                    assign("Q", "A", col("r", "A")),
                    assign_agg("Q", "sm", sum(col("r", "B"))),
                ]),
            ),
        );
        let info = Binder::with_schemas(schemas()).bind_collection(&q);
        assert!(info.is_valid(), "diagnostics: {:?}", info.diagnostics);
        assert_eq!(info.grouping_scope_count, 1);
        assert_eq!(info.aggregates.len(), 1);
        let agg = &info.aggregates[0];
        assert_eq!(agg.role, AggRole::Assignment);
        assert_eq!(agg.grouping_keys, 1);
    }

    #[test]
    fn non_key_attribute_escaping_group_rejected() {
        // {Q(A,sm) | ∃r∈R, γ r.A [Q.A=r.B ∧ Q.sm=sum(r.B)]} — r.B not a key.
        let q = collection(
            "Q",
            &["A", "sm"],
            quant(
                &[bind("r", "R")],
                group(&[("r", "A")]),
                None,
                and([
                    assign("Q", "A", col("r", "B")),
                    assign_agg("Q", "sm", sum(col("r", "B"))),
                ]),
            ),
        );
        let info = Binder::new().bind_collection(&q);
        assert!(info
            .diagnostics
            .iter()
            .any(|d| matches!(d, BindError::NonKeyAttributeEscapesGroup { .. })));
    }

    #[test]
    fn grouping_key_must_be_local() {
        // Outer r used as grouping key of inner quantifier.
        let q = collection(
            "Q",
            &["A"],
            exists(
                &[bind("r", "R")],
                and([
                    assign("Q", "A", col("r", "A")),
                    quant(
                        &[bind("s", "S")],
                        group(&[("r", "A")]),
                        None,
                        and([eq(col("s", "B"), col("r", "B"))]),
                    ),
                ]),
            ),
        );
        let info = Binder::new().bind_collection(&q);
        assert!(info
            .diagnostics
            .iter()
            .any(|d| matches!(d, BindError::GroupingKeyNotLocal { .. })));
    }

    #[test]
    fn correlation_recorded_for_lateral_nesting() {
        // Eq (2): inner collection references outer x.
        let inner = collection(
            "Z",
            &["B"],
            exists(
                &[bind("y", "Y")],
                and([
                    assign("Z", "B", col("y", "A")),
                    lt(col("x", "A"), col("y", "A")),
                ]),
            ),
        );
        let q = collection(
            "Q",
            &["A", "B"],
            exists(
                &[bind("x", "X"), bind_coll("z", inner)],
                and([
                    assign("Q", "A", col("x", "A")),
                    assign("Q", "B", col("z", "B")),
                ]),
            ),
        );
        let info = Binder::new().bind_collection(&q);
        assert!(info.is_valid(), "diagnostics: {:?}", info.diagnostics);
        assert_eq!(info.correlations.len(), 1);
        assert_eq!(info.correlations[0].var, "x");
        assert_eq!(info.correlations[0].inner_name, "Z");
    }

    #[test]
    fn head_completeness_enforced() {
        let q = collection(
            "Q",
            &["A", "B"],
            exists(&[bind("r", "R")], and([assign("Q", "A", col("r", "A"))])),
        );
        let info = Binder::new().bind_collection(&q);
        assert!(info
            .diagnostics
            .iter()
            .any(|d| matches!(d, BindError::HeadAttrNotAssigned { attr, .. } if attr == "B")));
    }

    #[test]
    fn disjunction_requires_assignment_in_every_branch() {
        // Eq (16) shape: both branches assign — valid.
        let q = collection(
            "A",
            &["s", "t"],
            or([
                exists(
                    &[bind("p", "P")],
                    and([
                        assign("A", "s", col("p", "s")),
                        assign("A", "t", col("p", "t")),
                    ]),
                ),
                exists(
                    &[bind("p2", "P"), bind("a2", "A")],
                    and([
                        assign("A", "s", col("p2", "s")),
                        eq(col("p2", "t"), col("a2", "s")),
                        assign("A", "t", col("a2", "t")),
                    ]),
                ),
            ]),
        );
        let info = Binder::new().bind_collection(&q);
        assert!(info.is_valid(), "diagnostics: {:?}", info.diagnostics);

        // Drop one assignment from the second branch — now invalid.
        let bad = collection(
            "A",
            &["s", "t"],
            or([
                exists(
                    &[bind("p", "P")],
                    and([
                        assign("A", "s", col("p", "s")),
                        assign("A", "t", col("p", "t")),
                    ]),
                ),
                exists(&[bind("p2", "P")], and([assign("A", "s", col("p2", "s"))])),
            ]),
        );
        let info = Binder::new().bind_collection(&bad);
        assert!(!info.is_valid());
    }

    #[test]
    fn shadowing_rejected() {
        let q = collection(
            "Q",
            &["A"],
            exists(
                &[bind("r", "R")],
                and([
                    assign("Q", "A", col("r", "A")),
                    exists(&[bind("r", "S")], and([eq(col("r", "B"), int(1))])),
                ]),
            ),
        );
        let info = Binder::new().bind_collection(&q);
        assert!(info
            .diagnostics
            .iter()
            .any(|d| matches!(d, BindError::ShadowedVariable { .. })));
    }

    #[test]
    fn abstract_definition_flagged_as_warning() {
        // Eq (23): Subset(left,right) with head attrs range-restricted only.
        let subset = collection(
            "S",
            &["left", "right"],
            not(exists(
                &[bind("l3", "L")],
                and([
                    eq(col("l3", "d"), col("S", "left")),
                    not(exists(
                        &[bind("l4", "L")],
                        and([
                            eq(col("l4", "b"), col("l3", "b")),
                            eq(col("l4", "d"), col("S", "right")),
                        ]),
                    )),
                ]),
            )),
        );
        let program = Program {
            definitions: vec![define(subset)],
            query: None,
        };
        let info = Binder::new().bind_program(&program);
        assert!(
            info.is_valid(),
            "abstract is a warning: {:?}",
            info.diagnostics
        );
        assert_eq!(info.abstract_collections, vec!["S".to_string()]);
    }

    #[test]
    fn join_annotation_coverage_checked() {
        let q = collection(
            "Q",
            &["m"],
            quant(
                &[bind("r", "R"), bind("s", "S")],
                None,
                Some(jleft(jvar("r"), jvar("r"))),
                and([assign("Q", "m", col("r", "A"))]),
            ),
        );
        let info = Binder::new().bind_collection(&q);
        assert!(info
            .diagnostics
            .iter()
            .any(|d| matches!(d, BindError::JoinVarDuplicated { .. })));
        assert!(info
            .diagnostics
            .iter()
            .any(|d| matches!(d, BindError::JoinVarMissing { var } if var == "s")));
    }

    #[test]
    fn recursion_binds_via_program() {
        let anc = collection(
            "A",
            &["s", "t"],
            or([
                exists(
                    &[bind("p", "P")],
                    and([
                        assign("A", "s", col("p", "s")),
                        assign("A", "t", col("p", "t")),
                    ]),
                ),
                exists(
                    &[bind("p", "P"), bind("a2", "A")],
                    and([
                        assign("A", "s", col("p", "s")),
                        eq(col("p", "t"), col("a2", "s")),
                        assign("A", "t", col("a2", "t")),
                    ]),
                ),
            ]),
        );
        let mut schemas = SchemaMap::new();
        schemas.insert("P".into(), vec!["s".into(), "t".into()]);
        let program = Program {
            definitions: vec![define(anc)],
            query: None,
        };
        let info = Binder::with_schemas(schemas).bind_program(&program);
        assert!(info.is_valid(), "diagnostics: {:?}", info.diagnostics);
        assert_eq!(info.relation_occurrences["A"], 1);
        assert_eq!(info.relation_occurrences["P"], 2);
    }

    #[test]
    fn aggregate_arg_must_be_local_to_grouping_scope() {
        // Aggregate over outer variable: ∃r∈R [∃s∈S, γ∅ [Q.c = count(r.B)]]
        let q = collection(
            "Q",
            &["c"],
            exists(
                &[bind("r", "R")],
                and([quant(
                    &[bind("s", "S")],
                    group_all(),
                    None,
                    and([assign_agg("Q", "c", count(col("r", "B")))]),
                )]),
            ),
        );
        let info = Binder::new().bind_collection(&q);
        assert!(info
            .diagnostics
            .iter()
            .any(|d| matches!(d, BindError::AggregateArgNotLocal { .. })));
    }

    #[test]
    fn sentence_binding_works() {
        // Eq (13): ∃r∈R [∃s∈S, γ∅ [r.id=s.id ∧ r.q ≤ count(s.d)]]
        let sentence = exists(
            &[bind("r", "R")],
            and([quant(
                &[bind("s", "S")],
                group_all(),
                None,
                and([
                    eq(col("r", "id"), col("s", "id")),
                    le(col("r", "q"), count(col("s", "d"))),
                ]),
            )]),
        );
        let info = Binder::new().bind_sentence(&sentence);
        assert!(info.is_valid(), "diagnostics: {:?}", info.diagnostics);
        assert_eq!(info.aggregates.len(), 1);
        assert_eq!(info.aggregates[0].role, AggRole::Comparison);
    }
}
