//! Boolean formula evaluation: sentences, negation scopes, and nested
//! existentials, including existential grouping scopes.

use super::env::Env;
use super::quantifier::Sink;
use super::scope::{Body, Scope};
use super::slots::{CFormula, Resolver};
use super::Ctx;
use crate::error::{EvalError, Result};
use arc_core::ast::*;
use arc_core::value::Truth;

impl<'a> Ctx<'a> {
    /// Evaluate a formula as a truth value, resolving its names against
    /// the frames on the stack right now (top-level sentences; scope
    /// bodies arrive compiled).
    pub(crate) fn formula_truth(&self, f: &'a Formula, env: &mut Env<'a>) -> Result<Truth> {
        let compiled = Resolver::tuple(env.names()).formula(f);
        self.cformula_truth(&compiled, env)
    }

    /// Evaluate a compiled formula (sentences, negation scopes, nested
    /// existentials).
    pub(crate) fn cformula_truth(&self, f: &CFormula<'a>, env: &mut Env<'a>) -> Result<Truth> {
        match f {
            CFormula::Pred(p) => self.pred_truth(p, env),
            CFormula::And(fs) => {
                let mut t = Truth::True;
                for sub in fs {
                    t = t.and(self.cformula_truth(sub, env)?);
                    if t == Truth::False {
                        break;
                    }
                }
                Ok(t)
            }
            CFormula::Or(fs) => {
                let mut t = Truth::False;
                for sub in fs {
                    t = t.or(self.cformula_truth(sub, env)?);
                    if t == Truth::True {
                        break;
                    }
                }
                Ok(t)
            }
            CFormula::Not(inner) => Ok(self.cformula_truth(inner, env)?.not()),
            CFormula::Quant(q) => self.quant_truth(q, env),
        }
    }

    /// Whether every formula holds (stops at the first that does not).
    pub(crate) fn all_hold(&self, fs: &[CFormula<'a>], env: &mut Env<'a>) -> Result<bool> {
        for f in fs {
            if !self.cformula_truth(f, env)?.is_true() {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Existential truth of a quantifier scope: does any binding
    /// environment (or, for grouping scopes, any group) satisfy the body?
    ///
    /// Scopes with pure equi-join correlation short-cut through the
    /// decorrelated set-level path ([`Ctx::semijoin_truth`]): the body is
    /// evaluated once and every outer row probes a build-once key set
    /// instead of re-entering the enumeration.
    pub(crate) fn quant_truth(&self, q: &'a Quant, env: &mut Env<'a>) -> Result<Truth> {
        let sc = self.bool_scope(q, false, env)?;
        match &sc.body {
            Body::Semi(semi) => match self.semijoin_truth(&sc, semi, env)? {
                Some(t) => Ok(t),
                // Failed build: the nested loop reproduces whatever went
                // wrong, exactly when the reference enumeration would.
                None => self.exists(&*self.bool_scope(q, true, env)?, env),
            },
            Body::Exists => self.exists(&sc, env),
            Body::Groups(g) => {
                let mut found = false;
                self.each_group(&sc, g, None, env, |group, tests, env| {
                    found = group.verdict(self, tests, env)?;
                    Ok(!found)
                })?;
                Ok(Truth::from_bool(found))
            }
            Body::Rows { .. } => Err(EvalError::Internal(
                "emitting scope evaluated as a sentence".into(),
            )),
        }
    }

    /// The nested loop of a boolean scope: stop at the first surviving
    /// environment.
    fn exists(&self, sc: &Scope<'a>, env: &mut Env<'a>) -> Result<Truth> {
        let mut found = false;
        let mut first = |ctx: &Ctx<'a>, env: &mut Env<'a>| {
            if !ctx.all_hold(&sc.pre_bool, env)? {
                return Ok(true);
            }
            found = true;
            Ok(false) // stop early
        };
        self.run_scope(sc, env, &mut Sink::Each(&mut first))?;
        Ok(Truth::from_bool(found))
    }
}
