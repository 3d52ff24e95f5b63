//! Program evaluation: definitions, stratification, and least-fixed-point
//! recursion (paper §2.9).
//!
//! ARC expresses recursion as a single definition whose disjuncts reference
//! the defined relation itself (Eq (16)). The engine:
//!
//! 1. classifies definitions into *intensional* (safe — materialized) and
//!    *abstract* (§2.13.2 — checked in context, never materialized);
//! 2. builds the dependency graph and its strongly connected components;
//! 3. evaluates SCCs in topological order; recursive SCCs are solved with a
//!    least fixed point — **semi-naive** by default, **naive** iteration as
//!    the reference the equivalence tests compare against;
//! 4. rejects non-stratifiable programs (recursion through negation or
//!    aggregation) and recursion under bag semantics.
//!
//! ## Semi-naive rounds
//!
//! Every member of a recursive SCC keeps one **total** — its entry in the
//! `defined` map, appended in place — and one **seen set** over the
//! total's rows (`SeenRows`), filled from the seed. A round evaluates the
//! member's *delta variants* (the rule once per recursive binding
//! occurrence, that occurrence redirected (`Redirect`) to last round's
//! delta) and streams the
//! rows they derive through the seen set: a row not derived before joins
//! the new delta. That single pass is the union of the variants, its
//! de-duplication and the difference against everything derived so far —
//! over the *derived* rows only; the total is never re-keyed or copied.
//! After every member of the round is evaluated the new deltas are
//! appended to their totals and moved under the reserved `@delta:` names
//! for the next round. A program costs O(seed + Σ derived), and a total
//! lists its rows in derivation order: the seed, then each round's delta,
//! each in first-occurrence order.

use crate::error::{EvalError, Result};
use crate::eval::quantifier::KeySlots;
use crate::eval::{Engine, Entry, Redirect};
use crate::relation::{Relation, Tuple};
use arc_core::ast::*;
use arc_core::binder::Binder;
use arc_core::conventions::Semantics;
use arc_core::value::Value;
use arc_guard::seam;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};

/// Fixpoint iteration cap (each iteration must add at least one tuple, so
/// this bounds derivable-set growth, not wall-clock time).
const MAX_ITERATIONS: usize = 1_000_000;

/// How recursive SCCs are iterated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FixpointStrategy {
    /// Re-derive everything each round (the textbook definition).
    Naive,
    /// Differentiate on the per-round delta (one variant per recursive
    /// binding occurrence); asymptotically avoids re-deriving old facts.
    #[default]
    SemiNaive,
}

/// The result of evaluating a [`Program`].
#[derive(Debug, Clone)]
pub struct ProgramOutput {
    /// Materialized intensional relations, by name.
    pub defined: BTreeMap<String, Relation>,
    /// The query result, when the program has a query.
    pub query: Option<Relation>,
}

impl Engine<'_> {
    /// Evaluate a program with the default (semi-naive) strategy.
    pub fn eval_program(&self, p: &Program) -> Result<ProgramOutput> {
        self.eval_program_with(p, FixpointStrategy::default())
    }

    /// Evaluate a program with an explicit fixpoint strategy.
    pub fn eval_program_with(
        &self,
        p: &Program,
        strategy: FixpointStrategy,
    ) -> Result<ProgramOutput> {
        self.program_recorded(p, strategy, None, None)
    }

    /// [`Engine::eval_program_with`] recording into the given sinks (the
    /// `profile_*` and `span_trace_*` entry points).
    pub(crate) fn program_recorded(
        &self,
        p: &Program,
        strategy: FixpointStrategy,
        profile: Option<arc_trace::ProfileSink>,
        spans: Option<arc_trace::SpanSink>,
    ) -> Result<ProgramOutput> {
        // One latency sample — and, when a span sink is attached, one
        // enclosing `query` span — for the whole program: definitions,
        // fixpoints, and the final query count as a single engine entry.
        // The entry is likewise program-scoped: one deadline and one
        // budget cover every stratum and fixpoint round.
        self.entered(profile, spans, |entry| {
            let (defined, abstracts) = self.materialize_definitions(p, strategy, entry)?;
            let query = match &p.query {
                Some(q) => Some(self.eval_with(q, &defined, &abstracts, entry, None)?),
                None => None,
            };
            Ok(ProgramOutput {
                defined: defined.into_iter().collect(),
                query,
            })
        })
    }

    /// Evaluate a boolean sentence in the context of a program's
    /// definitions.
    pub fn eval_sentence_in(&self, p: &Program, f: &Formula) -> Result<arc_core::value::Truth> {
        self.entered(None, None, |entry| {
            let (defined, abstracts) =
                self.materialize_definitions(p, FixpointStrategy::default(), entry)?;
            self.eval_sentence_with(f, &defined, &abstracts, entry)
        })
    }

    fn materialize_definitions(
        &self,
        p: &Program,
        strategy: FixpointStrategy,
        entry: &Entry,
    ) -> Result<(HashMap<String, Relation>, HashMap<String, Collection>)> {
        // Classify abstract definitions via the binder (open world: the
        // catalog may hold relations the binder does not know about).
        let abstract_names = Binder::new().abstract_definitions(p);

        let mut abstracts: HashMap<String, Collection> = HashMap::new();
        let mut safe: Vec<&Definition> = Vec::new();
        for def in &p.definitions {
            if abstract_names.iter().any(|n| n == def.name()) {
                abstracts.insert(def.name().to_string(), def.collection.clone());
            } else {
                safe.push(def);
            }
        }

        // Dependency graph over safe definitions. References routed through
        // abstract relations inherit the abstract body's own references.
        let def_index = |name: &str| safe.iter().position(|d| d.name() == name);
        let mut deps: Vec<HashSet<usize>> = vec![HashSet::new(); safe.len()];
        for (i, def) in safe.iter().enumerate() {
            let mut names = Vec::new();
            collect_sources(&def.collection, &mut names);
            let mut seen_abstract: HashSet<&str> = HashSet::new();
            let mut queue = names;
            while let Some(name) = queue.pop() {
                if let Some(j) = def_index(name) {
                    deps[i].insert(j);
                } else if let Some(a) = abstracts.get(name) {
                    if seen_abstract.insert(name) {
                        collect_sources(a, &mut queue);
                    }
                }
            }
        }

        // Strongly connected components (Tarjan). An edge `i → j` says
        // definition `i` reads `j`, and Tarjan emits a component only
        // after every component it can reach — so emission order already
        // materializes what a definition reads before the definition.
        let sccs = tarjan(&deps);

        let mut defined: HashMap<String, Relation> = HashMap::new();
        for scc in sccs {
            let recursive = scc.len() > 1 || (scc.len() == 1 && deps[scc[0]].contains(&scc[0]));
            if !recursive {
                let def = safe[scc[0]];
                let rel = self.eval_with(&def.collection, &defined, &abstracts, entry, None)?;
                defined.insert(def.name().to_string(), rel);
                continue;
            }
            self.solve_recursive_scc(&scc, &safe, &mut defined, &abstracts, strategy, entry)?;
        }
        Ok((defined, abstracts))
    }

    fn solve_recursive_scc(
        &self,
        scc: &[usize],
        safe: &[&Definition],
        defined: &mut HashMap<String, Relation>,
        abstracts: &HashMap<String, Collection>,
        strategy: FixpointStrategy,
        entry: &Entry,
    ) -> Result<()> {
        let member_names: HashSet<String> =
            scc.iter().map(|&i| safe[i].name().to_string()).collect();
        let first_name = safe[scc[0]].name().to_string();

        if self.conventions.semantics == Semantics::Bag {
            return Err(EvalError::RecursionUnderBag {
                relation: first_name,
            });
        }
        for &i in scc {
            if uses_nonmonotonically(&safe[i].collection, &member_names) {
                return Err(EvalError::NotStratifiable {
                    relation: safe[i].name().to_string(),
                });
            }
        }

        // Seed every member with an empty relation of the right schema.
        let empty = |def: &Definition| {
            let mut rel = Relation::new(def.name().to_string(), &[]);
            rel.schema = def.collection.head.attrs.clone();
            rel
        };
        for &i in scc {
            defined.insert(safe[i].name().to_string(), empty(safe[i]));
        }

        match strategy {
            FixpointStrategy::Naive => {
                for iteration in 0.. {
                    // Guard seam: one cooperative check (and fault
                    // window) per fixpoint round, so a runaway recursion
                    // observes its deadline/cancellation between rounds.
                    crate::eval::guard_check_at(entry.guard.as_ref(), seam::FIXPOINT_ROUND)?;
                    if iteration >= MAX_ITERATIONS {
                        return Err(EvalError::FixpointLimit {
                            relation: first_name,
                            iterations: MAX_ITERATIONS,
                        });
                    }
                    let mut changed = false;
                    for &i in scc {
                        let def = safe[i];
                        let new = self
                            .eval_with(&def.collection, defined, abstracts, entry, None)?
                            .union(&defined[def.name()])
                            .deduped();
                        let grown = new.len().saturating_sub(defined[def.name()].len());
                        if grown > 0 {
                            changed = true;
                            // Derived-set growth has no streaming
                            // fallback: hard-charge it, trip on denial.
                            crate::eval::guard_reserve_hard(
                                entry.guard.as_ref(),
                                grown * new.schema.len().max(1) * 24,
                            )?;
                        }
                        defined.insert(def.name().to_string(), new);
                    }
                    if !changed {
                        break;
                    }
                }
            }
            FixpointStrategy::SemiNaive => {
                // Bytes one derived row charges: its tuple in the total and
                // its slot in the seen set. Neither can stream, so the
                // reservation is hard — denial trips the guard.
                let row_bytes = |def: &Definition| {
                    def.collection.head.attrs.len().max(1) * 24 + SeenRows::SLOT_BYTES
                };
                let delta_names: Vec<String> =
                    scc.iter().map(|&i| delta_name(safe[i].name())).collect();

                // Round 0: full rules against empty members seed the
                // totals (a later member already reads an earlier one's
                // seed) and fill each member's seen set. A seed is its
                // member's first delta too.
                let mut seen: Vec<SeenRows> = Vec::with_capacity(scc.len());
                for (&i, delta) in scc.iter().zip(&delta_names) {
                    let def = safe[i];
                    let rows = self.eval_with(&def.collection, defined, abstracts, entry, None)?;
                    let (mut set, mut seed) = (SeenRows::default(), empty(def));
                    for row in rows.rows {
                        if set.insert(&row, &[], &seed.rows) {
                            seed.rows.push(row);
                        }
                    }
                    crate::eval::guard_reserve_hard(
                        entry.guard.as_ref(),
                        seed.len() * SeenRows::SLOT_BYTES,
                    )?;
                    seen.push(set);
                    defined.insert(delta.clone(), seed.clone());
                    defined.insert(def.name().to_string(), seed);
                }
                // The delta variants of a rule: one per recursive binding
                // occurrence — the rule itself, that occurrence reading
                // last round's delta of the member it names.
                let delta_of = |member: &str| {
                    let named = |&(&m, _): &(&usize, &String)| safe[m].name() == member;
                    let (_, delta) = scc.iter().zip(&delta_names).find(named)?;
                    Some(delta.as_str())
                };
                let variants: Vec<Vec<Redirect<'_>>> = scc
                    .iter()
                    .map(|&i| {
                        let mut variants = Vec::new();
                        delta_variants(&safe[i].collection, &delta_of, &mut variants);
                        variants
                    })
                    .collect();

                for iteration in 0.. {
                    // Guard seam: one cooperative check (and fault
                    // window) per semi-naive round.
                    crate::eval::guard_check_at(entry.guard.as_ref(), seam::FIXPOINT_ROUND)?;
                    if iteration >= MAX_ITERATIONS {
                        return Err(EvalError::FixpointLimit {
                            relation: first_name,
                            iterations: MAX_ITERATIONS,
                        });
                    }
                    if delta_names.iter().all(|delta| defined[delta].is_empty()) {
                        break;
                    }
                    // Stream every variant's rows through the member's
                    // seen set: a row not derived before joins the new
                    // delta, in first-occurrence order across variants.
                    let mut fresh: Vec<Vec<Tuple>> = Vec::with_capacity(scc.len());
                    for ((&i, variants), seen) in scc.iter().zip(&variants).zip(&mut seen) {
                        let def = safe[i];
                        let mut new = Vec::new();
                        for variant in variants {
                            let rows = self.eval_with(
                                &def.collection,
                                defined,
                                abstracts,
                                entry,
                                Some(*variant),
                            )?;
                            let total = &defined[def.name()].rows;
                            for row in rows.rows {
                                if seen.insert(&row, total, &new) {
                                    new.push(row);
                                }
                            }
                        }
                        crate::eval::guard_reserve_hard(
                            entry.guard.as_ref(),
                            new.len() * row_bytes(def),
                        )?;
                        fresh.push(new);
                    }
                    // Publish only now: within a round every member reads
                    // the totals and deltas of the round before.
                    for ((&i, delta), new) in scc.iter().zip(&delta_names).zip(fresh) {
                        let total = defined.get_mut(safe[i].name()).expect("seeded above");
                        total.rows.extend(new.iter().cloned());
                        defined.get_mut(delta).expect("seeded above").rows = new;
                    }
                }
                for delta in &delta_names {
                    defined.remove(delta);
                }
            }
        }
        Ok(())
    }
}

/// The rows one SCC member has derived so far, as a set: one slot per
/// distinct row, holding the row's index in the member's total. No key is
/// stored — a slot is verified against the row it points at — so testing
/// a derived row allocates nothing, and equality is [`Relation::row_key`]'s
/// (`1` and `1.0` are one tuple, `NULL`s group).
#[derive(Default)]
struct SeenRows {
    slots: KeySlots,
    state: RandomState,
}

impl SeenRows {
    /// What one slot charges the guard's accountant.
    const SLOT_BYTES: usize = 16;

    /// Whether `row` is new. A new row claims index
    /// `total.len() + pending.len()`: the caller pushes it onto `pending`,
    /// and appends `pending` to `total` before the next round.
    fn insert(&mut self, row: &[Value], total: &[Tuple], pending: &[Tuple]) -> bool {
        let mut h = self.state.build_hasher();
        for v in row {
            v.key_ref().hash(&mut h);
        }
        let id = u32::try_from(total.len() + pending.len()).expect("fewer than 2^32 derived rows");
        self.slots.insert(h.finish(), id, |at| {
            let stored = match (at as usize).checked_sub(total.len()) {
                None => &total[at as usize],
                Some(at) => &pending[at],
            };
            stored
                .iter()
                .zip(row)
                .all(|(a, b)| a.key_ref() == b.key_ref())
        })
    }
}

/// Reserved delta-relation name (cannot collide with user names, which are
/// parsed identifiers).
fn delta_name(name: &str) -> String {
    format!("@delta:{name}")
}

/// All named binding sources of a collection, recursively.
pub(crate) fn collect_sources<'c>(c: &'c Collection, out: &mut Vec<&'c str>) {
    fn walk<'c>(f: &'c Formula, out: &mut Vec<&'c str>) {
        match f {
            Formula::Quant(q) => {
                for b in &q.bindings {
                    match &b.source {
                        BindingSource::Named(n) => out.push(n),
                        BindingSource::Collection(c) => collect_sources(c, out),
                    }
                }
                walk(&q.body, out);
            }
            Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|s| walk(s, out)),
            Formula::Not(inner) => walk(inner, out),
            Formula::Pred(_) => {}
        }
    }
    walk(&c.body, out);
}

/// Does the collection reference any of `names` under negation, inside a
/// grouping scope, or on the null-supplying side of an outer join
/// (non-monotonic use → not stratifiable)? A new row on a padded side can
/// *remove* a result — the `NULL`-padded row it now matches — exactly
/// like a new row under `¬`.
fn uses_nonmonotonically(c: &Collection, names: &HashSet<String>) -> bool {
    fn walk(f: &Formula, names: &HashSet<String>, neg: bool, grouped: bool) -> bool {
        match f {
            Formula::Quant(q) => {
                let grouped = grouped || q.grouping.is_some();
                let mut padded = Vec::new();
                if let Some(tree) = &q.join {
                    null_supplied(tree, &mut padded);
                }
                for b in &q.bindings {
                    let neg = neg || padded.contains(&b.var.as_str());
                    match &b.source {
                        BindingSource::Named(n) => {
                            if names.contains(n) && (neg || grouped) {
                                return true;
                            }
                        }
                        BindingSource::Collection(c) => {
                            if walk(&c.body, names, neg, grouped) {
                                return true;
                            }
                        }
                    }
                }
                walk(&q.body, names, neg, grouped)
            }
            Formula::And(fs) | Formula::Or(fs) => fs.iter().any(|s| walk(s, names, neg, grouped)),
            Formula::Not(inner) => walk(inner, names, true, grouped),
            Formula::Pred(_) => false,
        }
    }
    walk(&c.body, names, false, false)
}

/// The variables of `tree` that an outer join may pad with `NULL`s: all
/// of `left`'s right child and of both children of `full`.
fn null_supplied<'t>(tree: &'t JoinTree, out: &mut Vec<&'t str>) {
    match tree {
        JoinTree::Var(_) | JoinTree::Lit(_) => {}
        JoinTree::Inner(children) => children.iter().for_each(|c| null_supplied(c, out)),
        JoinTree::Left(l, r) => {
            null_supplied(l, out);
            out.extend(r.vars());
        }
        JoinTree::Full(l, r) => out.extend(l.vars().into_iter().chain(r.vars())),
    }
}

/// One [`Redirect`] per binding of `c` whose source has a delta
/// (`delta_of` names it: the source is a member of the recursive
/// component being solved) — in source order, nested collections
/// included.
fn delta_variants<'c>(
    c: &'c Collection,
    delta_of: &impl Fn(&str) -> Option<&'c str>,
    out: &mut Vec<Redirect<'c>>,
) {
    fn walk<'c>(
        f: &'c Formula,
        delta_of: &impl Fn(&str) -> Option<&'c str>,
        out: &mut Vec<Redirect<'c>>,
    ) {
        match f {
            Formula::Quant(q) => {
                for binding in &q.bindings {
                    match &binding.source {
                        BindingSource::Named(source) => {
                            out.extend(delta_of(source).map(|name| Redirect { binding, name }))
                        }
                        BindingSource::Collection(c) => delta_variants(c, delta_of, out),
                    }
                }
                walk(&q.body, delta_of, out);
            }
            Formula::And(fs) | Formula::Or(fs) => {
                fs.iter().for_each(|sub| walk(sub, delta_of, out))
            }
            Formula::Not(inner) => walk(inner, delta_of, out),
            Formula::Pred(_) => {}
        }
    }
    walk(&c.body, delta_of, out);
}

/// Tarjan's strongly connected components, in emission order: a
/// component comes after every component reachable from it. With edges
/// pointing from a definition to what it reads, that is dependencies
/// first.
fn tarjan(deps: &[HashSet<usize>]) -> Vec<Vec<usize>> {
    struct State<'d> {
        deps: &'d [HashSet<usize>],
        index: Vec<Option<usize>>,
        low: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next: usize,
        out: Vec<Vec<usize>>,
    }
    fn strongconnect(s: &mut State<'_>, v: usize) {
        s.index[v] = Some(s.next);
        s.low[v] = s.next;
        s.next += 1;
        s.stack.push(v);
        s.on_stack[v] = true;
        let deps = s.deps;
        for &w in &deps[v] {
            if s.index[w].is_none() {
                strongconnect(s, w);
                s.low[v] = s.low[v].min(s.low[w]);
            } else if s.on_stack[w] {
                s.low[v] = s.low[v].min(s.index[w].expect("indexed"));
            }
        }
        if s.low[v] == s.index[v].expect("indexed") {
            let mut scc = Vec::new();
            loop {
                let w = s.stack.pop().expect("stack non-empty");
                s.on_stack[w] = false;
                scc.push(w);
                if w == v {
                    break;
                }
            }
            s.out.push(scc);
        }
    }
    let n = deps.len();
    let mut s = State {
        deps,
        index: vec![None; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next: 0,
        out: Vec::new(),
    };
    for v in 0..n {
        if s.index[v].is_none() {
            strongconnect(&mut s, v);
        }
    }
    s.out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tarjan_orders_components() {
        // 0 → 1 → 2, 2 → 1 (cycle {1,2}).
        let deps = vec![HashSet::from([1]), HashSet::from([2]), HashSet::from([1])];
        let sccs = tarjan(&deps);
        assert_eq!(sccs.len(), 2);
        // 0 reads the cycle, so the cycle {1,2} is emitted first.
        let mut first = sccs[0].clone();
        first.sort_unstable();
        assert_eq!(first, vec![1, 2]);
        assert_eq!(sccs[1], vec![0]);
    }

    #[test]
    fn seen_rows_admit_a_row_once_across_rounds() {
        let pair = |a: i64, b: i64| vec![Value::Int(a), Value::Int(b)];
        let mut seen = SeenRows::default();
        let mut total: Vec<Tuple> = Vec::new();
        let mut round = |rows: Vec<Tuple>, total: &mut Vec<Tuple>| {
            let mut pending = Vec::new();
            for row in rows {
                if seen.insert(&row, total, &pending) {
                    pending.push(row);
                }
            }
            total.extend(pending.iter().cloned());
            pending
        };
        // De-duplicated in first-occurrence order within a round …
        let seed = round(vec![pair(1, 2), pair(3, 4), pair(1, 2)], &mut total);
        assert_eq!(seed, [pair(1, 2), pair(3, 4)]);
        // … and minus everything derived before, under grouping-key
        // equality: `1.0` is `1`, NULLs group.
        let nulls = vec![Value::Null, Value::Null];
        let delta = round(
            vec![
                pair(3, 4),
                vec![Value::Float(1.0), Value::Int(2)],
                pair(5, 6),
                nulls.clone(),
                nulls.clone(),
            ],
            &mut total,
        );
        assert_eq!(delta, [pair(5, 6), nulls]);
        assert_eq!(total.len(), 4);
    }

    #[test]
    fn delta_name_is_reserved() {
        assert_eq!(delta_name("A"), "@delta:A");
    }
}
