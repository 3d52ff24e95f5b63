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
use std::borrow::Cow;
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
                    attrs: attrs.into_owned(),
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

/// Per-rule lowering state: the variable → representative-attribute map
/// and the accumulated conjuncts/bindings. Variable names are borrowed
/// from the rule; a rule has a handful of them, so the map is a list.
struct RuleCtx<'p> {
    var_map: Vec<(&'p str, AttrRef)>,
    bindings: Vec<Binding>,
    conjuncts: Vec<Formula>,
}

impl<'p> RuleCtx<'p> {
    fn new() -> Self {
        RuleCtx {
            var_map: Vec::new(),
            bindings: Vec::new(),
            conjuncts: Vec::new(),
        }
    }

    /// The representative of variable `v`, when a positive atom (or an
    /// aggregate assignment) grounds it.
    fn rep(&self, v: &str) -> Option<&AttrRef> {
        self.var_map
            .iter()
            .find(|(name, _)| *name == v)
            .map(|(_, rep)| rep)
    }
}

/// The variables one literal can see: a rule's own, or — inside an
/// aggregate body — the body's first and then the enclosing rule's.
#[derive(Clone, Copy)]
struct Vars<'c, 'p> {
    inner: &'c RuleCtx<'p>,
    outer: Option<&'c RuleCtx<'p>>,
}

impl Vars<'_, '_> {
    fn rep(&self, v: &str) -> Option<&AttrRef> {
        self.inner
            .rep(v)
            .or_else(|| self.outer.and_then(|outer| outer.rep(v)))
    }
}

fn eq(left: Scalar, right: Scalar) -> Formula {
    Formula::Pred(Predicate::Cmp {
        left,
        op: CmpOp::Eq,
        right,
    })
}

impl<'p> Lowerer<'p> {
    fn fresh(&mut self, prefix: &str) -> String {
        self.counter += 1;
        format!("{prefix}{}", self.counter)
    }

    /// The attribute names of `name`: its `.decl`'s, or positional ones.
    fn attrs_of(&self, name: &str, arity: usize) -> Result<Cow<'p, [String]>, DatalogLowerError> {
        if let Some(d) = self.program.decl(name) {
            return Ok(Cow::Borrowed(&d.attrs));
        }
        if arity == 0 {
            return Err(DatalogLowerError::MissingDecl(name.to_string()));
        }
        // Lenient default: positional attribute names.
        Ok(Cow::Owned((1..=arity).map(|i| format!("x{i}")).collect()))
    }

    /// [`Lowerer::attrs_of`] an atom, arity-checked.
    fn atom_attrs(&self, atom: &Atom) -> Result<Cow<'p, [String]>, DatalogLowerError> {
        let attrs = self.attrs_of(&atom.name, atom.args.len())?;
        if attrs.len() != atom.args.len() {
            return Err(DatalogLowerError::ArityMismatch {
                relation: atom.name.clone(),
                expected: attrs.len(),
                found: atom.args.len(),
            });
        }
        Ok(attrs)
    }

    fn rule(&mut self, rule: &'p Rule) -> Result<Formula, DatalogLowerError> {
        let mut cx = RuleCtx::new();

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
                    let vars = Vars {
                        inner: &cx,
                        outer: None,
                    };
                    let f = self.negated_atom(atom, vars)?;
                    cx.conjuncts.push(f);
                }
                Literal::Cmp { left, op, right } => {
                    let vars = Vars {
                        inner: &cx,
                        outer: None,
                    };
                    let f = Formula::Pred(Predicate::Cmp {
                        left: term_scalar(left, vars)?,
                        op: *op,
                        right: term_scalar(right, vars)?,
                    });
                    cx.conjuncts.push(f);
                }
                Literal::AggAssign { var, agg } => {
                    let rep = self.aggregate(agg, &mut cx)?;
                    match cx.rep(var) {
                        // Already bound: `q = count : {…}` compares.
                        Some(bound) => {
                            let f = eq(Scalar::Attr(bound.clone()), Scalar::Attr(rep));
                            cx.conjuncts.push(f);
                        }
                        None => cx.var_map.push((var, rep)),
                    }
                }
            }
        }

        // Head assignments.
        let head_attrs = self.atom_attrs(&rule.head)?;
        for (term, attr) in rule.head.args.iter().zip(head_attrs.iter()) {
            let value: Scalar = match term {
                Term::Var(v) => Scalar::Attr(
                    cx.rep(v)
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
            let target = Scalar::Attr(AttrRef::new(rule.head.name.as_str(), attr.as_str()));
            cx.conjuncts.push(eq(target, value));
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

    fn positive_atom(
        &mut self,
        atom: &'p Atom,
        cx: &mut RuleCtx<'p>,
    ) -> Result<(), DatalogLowerError> {
        let attrs = self.atom_attrs(atom)?;
        let var = self.fresh("r");
        for (term, attr) in atom.args.iter().zip(attrs.iter()) {
            let here = || AttrRef::new(var.as_str(), attr.as_str());
            match term {
                Term::Var(v) => match cx.rep(v) {
                    Some(rep) => {
                        let f = eq(Scalar::Attr(here()), Scalar::Attr(rep.clone()));
                        cx.conjuncts.push(f);
                    }
                    None => cx.var_map.push((v, here())),
                },
                Term::Const(c) => cx
                    .conjuncts
                    .push(eq(Scalar::Attr(here()), Scalar::Const(c.clone()))),
                Term::Underscore => {}
                Term::Agg(_) => {
                    return Err(DatalogLowerError::Unsupported(
                        "aggregate term inside a body atom".to_string(),
                    ))
                }
            }
        }
        cx.bindings.push(Binding::named(var, atom.name.clone()));
        Ok(())
    }

    fn negated_atom(
        &mut self,
        atom: &Atom,
        vars: Vars<'_, '_>,
    ) -> Result<Formula, DatalogLowerError> {
        let attrs = self.atom_attrs(atom)?;
        let var = self.fresh("n");
        let mut preds = Vec::new();
        for (term, attr) in atom.args.iter().zip(attrs.iter()) {
            let here = || Scalar::Attr(AttrRef::new(var.as_str(), attr.as_str()));
            match term {
                Term::Var(v) => {
                    // Safety: vars in a negated atom must be grounded
                    // positively; ungrounded ones act as projections.
                    if let Some(rep) = vars.rep(v) {
                        preds.push(eq(here(), Scalar::Attr(rep.clone())));
                    }
                }
                Term::Const(c) => preds.push(eq(here(), Scalar::Const(c.clone()))),
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
    fn aggregate(
        &mut self,
        agg: &'p AggTerm,
        cx: &mut RuleCtx<'p>,
    ) -> Result<AttrRef, DatalogLowerError> {
        let coll_name = self.fresh("X");
        let out_var = self.fresh("x");

        // The aggregate body is its own scope; shared variables correlate
        // to the outer rule ("you cannot export information from within the
        // body of an aggregate").
        let mut inner = RuleCtx::new();
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
        let mut correlated: Vec<(&AttrRef, &AttrRef)> = inner
            .var_map
            .iter()
            .filter_map(|(v, here)| cx.rep(v).map(|outer| (here, outer)))
            .collect();
        correlated.sort(); // deterministic output order
        let correlations: Vec<Formula> = correlated
            .into_iter()
            .map(|(here, outer)| eq(Scalar::Attr(here.clone()), Scalar::Attr(outer.clone())))
            .collect();
        inner.conjuncts.extend(correlations);
        for lit in &agg.body {
            // Resolve against inner first, then outer.
            let vars = Vars {
                inner: &inner,
                outer: Some(&*cx),
            };
            let f = match lit {
                Literal::Atom { negated: false, .. } => continue,
                Literal::Atom {
                    atom,
                    negated: true,
                } => self.negated_atom(atom, vars)?,
                Literal::Cmp { left, op, right } => Formula::Pred(Predicate::Cmp {
                    left: term_scalar(left, vars)?,
                    op: *op,
                    right: term_scalar(right, vars)?,
                }),
                Literal::AggAssign { .. } => {
                    return Err(DatalogLowerError::Unsupported(
                        "nested aggregate assignment".to_string(),
                    ))
                }
            };
            inner.conjuncts.push(f);
        }

        let agg_arg = match &agg.var {
            Some(v) => {
                let rep = inner
                    .rep(v)
                    .cloned()
                    .ok_or_else(|| DatalogLowerError::UnboundVariable(v.clone()))?;
                arc::AggArg::Expr(Scalar::Attr(rep))
            }
            None => arc::AggArg::Star,
        };
        inner.conjuncts.push(eq(
            Scalar::Attr(AttrRef::new(coll_name.as_str(), "v")),
            Scalar::Agg(Box::new(arc::AggCall {
                func: agg.func,
                arg: agg_arg,
                distinct: false,
            })),
        ));

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
        let out = AttrRef::new(out_var.as_str(), "v");
        cx.bindings.push(Binding::nested(out_var, nested));
        Ok(out)
    }
}

fn term_scalar(term: &Term, vars: Vars<'_, '_>) -> Result<Scalar, DatalogLowerError> {
    match term {
        Term::Var(v) => vars
            .rep(v)
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
