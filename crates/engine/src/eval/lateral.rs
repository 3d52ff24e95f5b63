//! Lateral steps: correlated nested collections (§2.4), memoized by the
//! outer values they read.
//!
//! A nested collection's result is a function of its *correlation key* —
//! the values of the attribute references it makes to frames outside
//! itself ([`arc_plan::analysis::free_attr_refs`]) — because everything
//! else it reads (the catalog, the materialized definitions) is immutable
//! for the lifetime of the evaluation context. So a lateral step keeps a
//! memo from key to result and evaluates the collection only on a miss:
//! once when it reads nothing from outside (the key is empty), once per
//! *distinct* key when the outer rows repeat theirs.
//!
//! Keys compare **exactly** — `Int 1` and `Float 1.0`, `0.0` and `-0.0`
//! are different keys — because the inner head may copy the outer value.
//! Rows leave the memo as owned copies, so a frame stays what it is
//! everywhere else: a borrowed row or an owned one.
//!
//! The memo decides from what it observes, never from a setting: it
//! charges every entry to the guard's accountant and stops admitting
//! entries when a reservation is denied, or when — past the first
//! [`WARMUP`] probes — misses outnumber hits (an all-distinct key gains
//! nothing from a memo and must not pay for one). A step that stopped
//! admitting, like one that never had a memo, evaluates per outer row.

use super::env::{resolve, Env, Names, Resolution};
use super::quantifier::KeySlots;
use super::Ctx;
use crate::error::Result;
use crate::relation::Tuple;
use arc_core::ast::Collection;
use arc_core::value::Value;
use arc_plan::analysis::free_attr_refs;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Mutex;

/// Probes before the memo judges whether it pays.
const WARMUP: u64 = 128;

/// A lateral step's source.
pub(crate) struct Lateral<'a> {
    collection: &'a Collection,
    /// `None`: the collection's result is not a function of outer
    /// attribute values alone — it is evaluated per environment.
    memo: Option<Memo>,
}

struct Memo {
    /// The correlation key: the `(frame, column)` slot of every outer
    /// attribute the collection reads.
    key: Vec<(usize, usize)>,
    /// Behind a mutex because a partitioned scope's workers share its
    /// compiled steps.
    state: Mutex<MemoState>,
}

impl Memo {
    /// The key's values in `env`.
    fn key_in<'e>(&'e self, env: &'e Env<'_>) -> impl Iterator<Item = &'e Value> {
        self.key.iter().map(|&(f, c)| &env.frames[f].row()[c])
    }

    /// Whether `stored` is, value for value, the key in `env`.
    fn is_key(&self, stored: &[Value], env: &Env<'_>) -> bool {
        stored
            .iter()
            .zip(self.key_in(env))
            .all(|(a, b)| same_value(a, b))
    }
}

#[derive(Default)]
struct MemoState {
    slots: KeySlots,
    /// Per admitted key, its values and the collection's rows for them.
    entries: Vec<(Tuple, Vec<Tuple>)>,
    hits: u64,
    misses: u64,
    /// No further entries are admitted (the existing ones keep serving).
    closed: bool,
}

/// Exact identity of two values: same type, same bits.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

fn hash_value(v: &Value, h: &mut impl Hasher) {
    std::mem::discriminant(v).hash(h);
    match v {
        Value::Null => {}
        Value::Bool(b) => b.hash(h),
        Value::Int(i) => i.hash(h),
        Value::Float(f) => f.to_bits().hash(h),
        Value::Str(s) => s.hash(h),
    }
}

impl<'a> Ctx<'a> {
    /// Compile a lateral step over `c`, entered with the frames `names`
    /// on the stack.
    pub(crate) fn lateral(&self, c: &'a Collection, names: &[Names<'a>]) -> Lateral<'a> {
        // An abstract definition's body resolves names against its call
        // site's frames, and an external relation answers through caller
        // code: neither is a function of the collection's own references.
        let mut sources = Vec::new();
        crate::fixpoint::collect_sources(c, &mut sources);
        let opaque = sources.iter().any(|&name| {
            !self.shared.defined.contains_key(name)
                && self.shared.catalog.relation(name).is_none()
                && (self.shared.abstracts.contains_key(name)
                    || self.shared.catalog.external(name).is_some())
        });
        // A reference that does not resolve raises when (and only if) it
        // is evaluated: leave that to the per-environment path.
        let key: Option<Vec<(usize, usize)>> = free_attr_refs(c)
            .into_iter()
            .map(|a| match resolve(names, &a.var, &a.attr) {
                Resolution::Slot { frame, col } => Some((frame, col)),
                _ => None,
            })
            .collect();
        Lateral {
            collection: c,
            memo: key.filter(|_| !opaque).map(|key| Memo {
                key,
                state: Mutex::default(),
            }),
        }
    }

    /// The rows of a lateral step for `env`: from its memo, or evaluated.
    pub(crate) fn lateral_rows(&self, lat: &Lateral<'a>, env: &mut Env<'a>) -> Result<Vec<Tuple>> {
        let c = lat.collection;
        let Some(memo) = &lat.memo else {
            return self.collection_rows(c, env);
        };
        let mut h = self.shared.hash_state.build_hasher();
        for v in memo.key_in(env) {
            hash_value(v, &mut h);
        }
        let hash = h.finish();
        // A poisoned memo (a worker panicked inside it) is no memo.
        let admitting = match memo.state.lock() {
            Err(_) => false,
            Ok(mut st) => {
                let st = &mut *st;
                let hit = st
                    .slots
                    .find(hash, |id| memo.is_key(&st.entries[id as usize].0, env));
                if let Some(id) = hit {
                    st.hits += 1;
                    return Ok(st.entries[id as usize].1.clone());
                }
                st.misses += 1;
                st.closed |= st.hits + st.misses >= WARMUP && st.misses > st.hits;
                !st.closed
            }
        };
        // Evaluate unlocked: other workers keep probing meanwhile.
        let rows = self.collection_rows(c, env)?;
        if !admitting {
            return Ok(rows);
        }
        let width = c.head.attrs.len().max(1);
        let bytes = 64 + 24 * (memo.key.len() + rows.len() * (1 + width));
        if let Some(g) = self.shared.guard.as_ref().filter(|g| !g.try_reserve(bytes)) {
            // Denied: from here on the step evaluates per environment.
            g.note_degradation();
            crate::metrics::guard_degradations().inc();
            if let Ok(mut st) = memo.state.lock() {
                st.closed = true;
            }
            return Ok(rows);
        }
        let key: Tuple = memo.key_in(env).cloned().collect();
        let admitted = memo.state.lock().is_ok_and(|mut st| {
            let st = &mut *st;
            let id = u32::try_from(st.entries.len()).expect("fewer than 2^32 memo entries");
            // Another worker may have admitted the same key meanwhile.
            let new = st
                .slots
                .insert(hash, id, |at| memo.is_key(&st.entries[at as usize].0, env));
            if new {
                st.entries.push((key, rows.clone()));
            }
            new
        });
        if let (false, Some(g)) = (admitted, &self.shared.guard) {
            g.release(bytes);
        }
        Ok(rows)
    }
}
