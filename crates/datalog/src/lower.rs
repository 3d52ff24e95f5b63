//! Datalog → ARC lowering.
//!
//! Datalog's positional, domain-style atoms become ARC's named-perspective
//! bindings (§2.1: the implicit `{(x) | R(x)}` binding becomes an explicit
//! assignment predicate). Multiple rules with one head become a disjunction
//! within a single definition (§2.9), and Soufflé aggregates become the
//! **FOI pattern** the paper identifies (§2.5): a correlated nested
//! collection with `γ∅`, one scope per aggregate.

use crate::ast::*;
use arc_core::ast::{
    self as arc, AttrRef, Binding, CmpOp, Formula, Grouping, Head, Predicate, Quant, Scalar,
};
use std::collections::HashMap;
use std::fmt;

/// Lowering error.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field names are self-describing
pub enum DatalogLowerError {
    /// An atom references a relation with no `.decl` (and no derivable arity).
    MissingDecl(String),
    /// Atom arity does not match its declaration.
    ArityMismatch {
        relation: String,
        expected: usize,
        found: usize,
    },
    /// A head or comparison variable is never bound by a positive atom.
    UnboundVariable(String),
    /// Constructs outside the subset.
    Unsupported(String),
}

impl fmt::Display for DatalogLowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatalogLowerError::MissingDecl(r) => write!(f, "missing .decl for `{r}`"),
            DatalogLowerError::ArityMismatch {
                relation,
                expected,
                found,
            } => write!(
                f,
                "`{relation}` declared with {expected} attributes, used with {found}"
            ),
            DatalogLowerError::UnboundVariable(v) => {
                write!(f, "variable `{v}` is not bound by a positive atom")
            }
            DatalogLowerError::Unsupported(m) => write!(f, "unsupported Datalog: {m}"),
        }
    }
}

impl std::error::Error for DatalogLowerError {}

/// Lower a Datalog program to an ARC [`Program`](arc::Program): one
/// definition per IDB relation (rules merged by disjunction), facts
/// included as constant disjuncts.
pub fn lower_program(p: &DatalogProgram) -> Result<arc::Program, DatalogLowerError> {
    let mut lw = Lowerer {
        program: p,
        counter: 0,
    };
    let mut by_head: Vec<(String, Vec<Formula>)> = Vec::new();
    for rule in &p.rules {
        let disjunct = lw.rule(rule)?;
        match by_head.iter_mut().find(|(n, _)| n == &rule.head.name) {
            Some((_, ds)) => ds.push(disjunct),
            None => by_head.push((rule.head.name.clone(), vec![disjunct])),
        }
    }
    let mut out = arc::Program::default();
    for (name, mut disjuncts) in by_head {
        let attrs = lw.attrs_of(
            &name,
            p.rules
                .iter()
                .find(|r| r.head.name == name)
                .map(|r| r.head.args.len())
                .unwrap_or(0),
        )?;
        let body = if disjuncts.len() == 1 {
            disjuncts.pop().expect("len 1")
        } else {
            Formula::Or(disjuncts)
        };
        out.definitions.push(arc::Definition {
            collection: arc::Collection {
                head: Head {
                    relation: name,
                    attrs,
                },
                body,
            },
        });
    }
    Ok(out)
}

struct Lowerer<'p> {
    program: &'p DatalogProgram,
    counter: usize,
}

/// Per-rule lowering state: the variable → representative-scalar map and
/// the accumulated conjuncts/bindings.
struct RuleCtx {
    var_map: HashMap<String, AttrRef>,
    bindings: Vec<Binding>,
    conjuncts: Vec<Formula>,
}

impl<'p> Lowerer<'p> {
    fn fresh(&mut self, prefix: &str) -> String {
        self.counter += 1;
        format!("{prefix}{}", self.counter)
    }

    fn attrs_of(&self, name: &str, arity: usize) -> Result<Vec<String>, DatalogLowerError> {
        if let Some(d) = self.program.decl(name) {
            return Ok(d.attrs.clone());
        }
        if arity == 0 {
            return Err(DatalogLowerError::MissingDecl(name.to_string()));
        }
        // Lenient default: positional attribute names.
        Ok((1..=arity).map(|i| format!("x{i}")).collect())
    }

    fn rule(&mut self, rule: &Rule) -> Result<Formula, DatalogLowerError> {
        let mut cx = RuleCtx {
            var_map: HashMap::new(),
            bindings: Vec::new(),
            conjuncts: Vec::new(),
        };

        // Positive atoms first: they ground the variables.
        for lit in &rule.body {
            if let Literal::Atom {
                atom,
                negated: false,
            } = lit
            {
                self.positive_atom(atom, &mut cx)?;
            }
        }
        // Then everything else, in source order.
        for lit in &rule.body {
            match lit {
                Literal::Atom { negated: false, .. } => {}
                Literal::Atom {
                    atom,
                    negated: true,
                } => {
                    let f = self.negated_atom(atom, &cx)?;
                    cx.conjuncts.push(f);
                }
                Literal::Cmp { left, op, right } => {
                    let l = self.term_scalar(left, &cx)?;
                    let r = self.term_scalar(right, &cx)?;
                    cx.conjuncts.push(Formula::Pred(Predicate::Cmp {
                        left: l,
                        op: *op,
                        right: r,
                    }));
                }
                Literal::AggAssign { var, agg } => {
                    let rep = self.aggregate(agg, &mut cx)?;
                    match cx.var_map.get(var) {
                        // Already bound: `q = count : {…}` compares.
                        Some(bound) => cx.conjuncts.push(Formula::Pred(Predicate::Cmp {
                            left: Scalar::Attr(bound.clone()),
                            op: CmpOp::Eq,
                            right: Scalar::Attr(rep),
                        })),
                        None => {
                            cx.var_map.insert(var.clone(), rep);
                        }
                    }
                }
            }
        }

        // Head assignments.
        let head_attrs = self.attrs_of(&rule.head.name, rule.head.args.len())?;
        if head_attrs.len() != rule.head.args.len() {
            return Err(DatalogLowerError::ArityMismatch {
                relation: rule.head.name.clone(),
                expected: head_attrs.len(),
                found: rule.head.args.len(),
            });
        }
        for (i, term) in rule.head.args.iter().enumerate() {
            let target = Scalar::Attr(AttrRef::new(rule.head.name.clone(), head_attrs[i].clone()));
            let value: Scalar = match term {
                Term::Var(v) => Scalar::Attr(
                    cx.var_map
                        .get(v)
                        .cloned()
                        .ok_or_else(|| DatalogLowerError::UnboundVariable(v.clone()))?,
                ),
                Term::Const(c) => Scalar::Const(c.clone()),
                Term::Underscore => {
                    return Err(DatalogLowerError::Unsupported(
                        "`_` in rule head".to_string(),
                    ))
                }
                Term::Agg(agg) => {
                    // Eq (6): head aggregate = FOI nested scope + assignment.
                    let rep = self.aggregate(agg, &mut cx)?;
                    Scalar::Attr(rep)
                }
            };
            cx.conjuncts.push(Formula::Pred(Predicate::Cmp {
                left: target,
                op: CmpOp::Eq,
                right: value,
            }));
        }

        if cx.bindings.is_empty() {
            Ok(Formula::And(cx.conjuncts))
        } else {
            Ok(Formula::Quant(Box::new(Quant {
                bindings: cx.bindings,
                grouping: None,
                join: None,
                body: Formula::And(cx.conjuncts),
            })))
        }
    }

    fn positive_atom(&mut self, atom: &Atom, cx: &mut RuleCtx) -> Result<(), DatalogLowerError> {
        let attrs = self.attrs_of(&atom.name, atom.args.len())?;
        if attrs.len() != atom.args.len() {
            return Err(DatalogLowerError::ArityMismatch {
                relation: atom.name.clone(),
                expected: attrs.len(),
                found: atom.args.len(),
            });
        }
        let var = self.fresh("r");
        cx.bindings
            .push(Binding::named(var.clone(), atom.name.clone()));
        for (i, term) in atom.args.iter().enumerate() {
            let here = AttrRef::new(var.clone(), attrs[i].clone());
            match term {
                Term::Var(v) => match cx.var_map.get(v) {
                    Some(rep) => cx.conjuncts.push(Formula::Pred(Predicate::Cmp {
                        left: Scalar::Attr(here),
                        op: CmpOp::Eq,
                        right: Scalar::Attr(rep.clone()),
                    })),
                    None => {
                        cx.var_map.insert(v.clone(), here);
                    }
                },
                Term::Const(c) => cx.conjuncts.push(Formula::Pred(Predicate::Cmp {
                    left: Scalar::Attr(here),
                    op: CmpOp::Eq,
                    right: Scalar::Const(c.clone()),
                })),
                Term::Underscore => {}
                Term::Agg(_) => {
                    return Err(DatalogLowerError::Unsupported(
                        "aggregate term inside a body atom".to_string(),
                    ))
                }
            }
        }
        Ok(())
    }

    fn negated_atom(&mut self, atom: &Atom, cx: &RuleCtx) -> Result<Formula, DatalogLowerError> {
        let attrs = self.attrs_of(&atom.name, atom.args.len())?;
        if attrs.len() != atom.args.len() {
            return Err(DatalogLowerError::ArityMismatch {
                relation: atom.name.clone(),
                expected: attrs.len(),
                found: atom.args.len(),
            });
        }
        let var = self.fresh("n");
        let mut preds = Vec::new();
        for (i, term) in atom.args.iter().enumerate() {
            let here = AttrRef::new(var.clone(), attrs[i].clone());
            match term {
                Term::Var(v) => {
                    // Safety: vars in a negated atom must be grounded
                    // positively; ungrounded ones act as projections.
                    if let Some(rep) = cx.var_map.get(v) {
                        preds.push(Formula::Pred(Predicate::Cmp {
                            left: Scalar::Attr(here),
                            op: CmpOp::Eq,
                            right: Scalar::Attr(rep.clone()),
                        }));
                    }
                }
                Term::Const(c) => preds.push(Formula::Pred(Predicate::Cmp {
                    left: Scalar::Attr(here),
                    op: CmpOp::Eq,
                    right: Scalar::Const(c.clone()),
                })),
                Term::Underscore => {}
                Term::Agg(_) => {
                    return Err(DatalogLowerError::Unsupported(
                        "aggregate term inside a negated atom".to_string(),
                    ))
                }
            }
        }
        Ok(Formula::Not(Box::new(Formula::Quant(Box::new(Quant {
            bindings: vec![Binding::named(var, atom.name.clone())],
            grouping: None,
            join: None,
            body: Formula::And(preds),
        })))))
    }

    /// Lower an aggregate term into the FOI pattern: a correlated nested
    /// collection with `γ∅` whose single attribute carries the aggregate.
    /// Returns the attribute reference the aggregate value is available at.
    fn aggregate(&mut self, agg: &AggTerm, cx: &mut RuleCtx) -> Result<AttrRef, DatalogLowerError> {
        let coll_name = self.fresh("X");
        let out_var = self.fresh("x");

        // The aggregate body is its own scope; shared variables correlate
        // to the outer rule ("you cannot export information from within the
        // body of an aggregate").
        let mut inner = RuleCtx {
            var_map: HashMap::new(),
            bindings: Vec::new(),
            conjuncts: Vec::new(),
        };
        for lit in &agg.body {
            if let Literal::Atom {
                atom,
                negated: false,
            } = lit
            {
                self.positive_atom(atom, &mut inner)?;
            }
        }
        // Correlations: inner variables that the outer rule also grounds
        // equate to their outer representatives (the FOI "per-outer-tuple"
        // linkage).
        let mut correlated: Vec<(AttrRef, AttrRef)> = inner
            .var_map
            .iter()
            .filter_map(|(v, here)| cx.var_map.get(v).map(|outer| (here.clone(), outer.clone())))
            .collect();
        correlated.sort(); // deterministic output order
        for (here, outer) in &correlated {
            inner.conjuncts.push(Formula::Pred(Predicate::Cmp {
                left: Scalar::Attr(here.clone()),
                op: CmpOp::Eq,
                right: Scalar::Attr(outer.clone()),
            }));
        }
        for lit in &agg.body {
            match lit {
                Literal::Atom { negated: false, .. } => {}
                Literal::Atom {
                    atom,
                    negated: true,
                } => {
                    // Resolve against inner first, then outer.
                    let merged = merge_ctx(&inner, cx);
                    let f = self.negated_atom(atom, &merged)?;
                    inner.conjuncts.push(f);
                }
                Literal::Cmp { left, op, right } => {
                    let merged = merge_ctx(&inner, cx);
                    let l = self.term_scalar(left, &merged)?;
                    let r = self.term_scalar(right, &merged)?;
                    inner.conjuncts.push(Formula::Pred(Predicate::Cmp {
                        left: l,
                        op: *op,
                        right: r,
                    }));
                }
                Literal::AggAssign { .. } => {
                    return Err(DatalogLowerError::Unsupported(
                        "nested aggregate assignment".to_string(),
                    ))
                }
            }
        }

        let agg_arg = match &agg.var {
            Some(v) => {
                let rep = inner
                    .var_map
                    .get(v)
                    .cloned()
                    .ok_or_else(|| DatalogLowerError::UnboundVariable(v.clone()))?;
                arc::AggArg::Expr(Scalar::Attr(rep))
            }
            None => arc::AggArg::Star,
        };
        inner.conjuncts.push(Formula::Pred(Predicate::Cmp {
            left: Scalar::Attr(AttrRef::new(coll_name.clone(), "v")),
            op: CmpOp::Eq,
            right: Scalar::Agg(Box::new(arc::AggCall {
                func: agg.func,
                arg: agg_arg,
                distinct: false,
            })),
        }));

        let nested = arc::Collection {
            head: Head {
                relation: coll_name,
                attrs: vec!["v".to_string()],
            },
            body: Formula::Quant(Box::new(Quant {
                bindings: inner.bindings,
                grouping: Some(Grouping::empty()),
                join: None,
                body: Formula::And(inner.conjuncts),
            })),
        };
        cx.bindings.push(Binding::nested(out_var.clone(), nested));
        Ok(AttrRef::new(out_var, "v"))
    }

    fn term_scalar(&self, term: &Term, cx: &RuleCtx) -> Result<Scalar, DatalogLowerError> {
        match term {
            Term::Var(v) => cx
                .var_map
                .get(v)
                .map(|r| Scalar::Attr(r.clone()))
                .ok_or_else(|| DatalogLowerError::UnboundVariable(v.clone())),
            Term::Const(c) => Ok(Scalar::Const(c.clone())),
            Term::Underscore => Err(DatalogLowerError::Unsupported(
                "`_` in comparison".to_string(),
            )),
            Term::Agg(_) => Err(DatalogLowerError::Unsupported(
                "aggregate in comparison (assign it to a variable first)".to_string(),
            )),
        }
    }
}

/// A view merging inner and outer variable maps (inner shadows outer).
fn merge_ctx(inner: &RuleCtx, outer: &RuleCtx) -> RuleCtx {
    let mut var_map = outer.var_map.clone();
    for (k, v) in &inner.var_map {
        var_map.insert(k.clone(), v.clone());
    }
    RuleCtx {
        var_map,
        bindings: Vec::new(),
        conjuncts: Vec::new(),
    }
}
