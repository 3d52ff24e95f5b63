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
//!    **semi-naive** least fixed point;
//! 4. rejects non-stratifiable programs (recursion through negation or
//!    aggregation) and recursion under bag semantics.
//!
//! A dependency may pass through an abstract definition: the rule reads
//! the abstract relation, whose body reads the member. Every walk over a
//! rule's reads (`reads`) therefore follows the abstract bodies it
//! reaches, so the dependency graph, the stratification check and the
//! delta variants all see those reads.
//!
//! ## Semi-naive rounds
//!
//! A round evaluates *rules*, not definitions. A member's rules are the
//! top-level disjuncts of its body (nested disjunctions flattened); the
//! relation of a disjunction is the union of its disjuncts' relations, so
//! each rule is evaluated alone, by reference into the program's AST.
//!
//! Every member of a recursive SCC keeps one **total** — its entry in the
//! `defined` map, appended in place — and one **seen set** over the
//! total's rows (`SeenRows`). Round 0 evaluates every rule of every
//! member against the members' empty totals and fills the seen sets: the
//! seed. A later round evaluates only the rules that reach a member
//! (through `reads`, abstract bodies included), each through its *delta
//! variants* — the rule once per recursive binding occurrence, that
//! occurrence redirected (`Redirect`) to last round's delta — and streams
//! the rows they derive straight through the seen set: a row not derived
//! before joins the new delta. That single pass is the union of the
//! variants, its de-duplication and the difference against everything
//! derived so far — over the *derived* rows only; the total is never
//! re-keyed or copied, and a rule that reaches no member never runs
//! again (all it derives is in the seed). After every member of the round
//! is evaluated the new deltas are appended to their totals and moved
//! under the reserved `@delta:` names for the next round. A program costs
//! O(seed + Σ derived).
//!
//! A total lists its rows in derivation order: the seed, then each
//! round's delta. Within a round, rows come in first-occurrence order
//! over the member's rules in source order, each rule's variants in the
//! order of its recursive occurrences. Each round derives the same *set*
//! whichever order its rules run in.
//!
//! The hash indexes over catalog relations — which no round can change —
//! live in one build store per solve, on the driver's stack, lent to
//! every round's evaluation: the rounds probe one build instead of one
//! per round (`Ctx::join_index`). Indexes over the totals and deltas are
//! built per evaluation: their rows' generation moves every round, so a
//! solve-wide store of them would only grow.

use crate::error::{EvalError, Result};
use crate::eval::builds::Builds;
use crate::eval::quantifier::KeySlots;
use crate::eval::{Engine, Entry, Recording, Redirect};
use crate::relation::{Relation, Rows};
use arc_core::ast::*;
use arc_core::binder::Binder;
use arc_core::conventions::Semantics;
use arc_core::value::Value;
use arc_guard::seam;
use arc_trace::Recorder;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};

/// Fixpoint iteration cap (each iteration must add at least one tuple, so
/// this bounds derivable-set growth, not wall-clock time).
const MAX_ITERATIONS: usize = 1_000_000;

/// The result of evaluating a [`Program`].
#[derive(Debug, Clone)]
pub struct ProgramOutput {
    /// Materialized intensional relations, by name.
    pub defined: BTreeMap<String, Relation>,
    /// The query result, when the program has a query.
    pub query: Option<Relation>,
}

impl Engine<'_> {
    /// Evaluate a program: its definitions, stratum by stratum, then its
    /// query.
    pub fn eval_program(&self, p: &Program) -> Result<ProgramOutput> {
        self.program_recorded(p, Recording::Options)
            .map(|(out, _)| out)
    }

    /// [`Engine::eval_program`] under the given [`Recording`] (the
    /// `profile_*` and `span_trace_*` entry points), returning the
    /// entry's recorder beside the output.
    pub(crate) fn program_recorded(
        &self,
        p: &Program,
        recording: Recording,
    ) -> Result<(ProgramOutput, Option<Recorder>)> {
        // One latency sample — and, when timed, one enclosing `query`
        // span — for the whole program: definitions, fixpoints, and the
        // final query count as a single engine entry. The entry is
        // likewise program-scoped: one deadline, one budget and one
        // record cover every stratum and fixpoint round.
        self.entered(recording, |entry| {
            let strata = Strata::of(p);
            let defined = self.materialize_definitions(&strata, entry)?;
            let query = match &p.query {
                Some(q) => Some(self.eval_with(q, &defined, &strata.abstracts, entry)?),
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
        self.entered(Recording::Options, |entry| {
            let strata = Strata::of(p);
            let defined = self.materialize_definitions(&strata, entry)?;
            self.eval_sentence_with(f, &defined, &strata.abstracts, entry)
        })
        .map(|(truth, _)| truth)
    }

    /// Materialize a program's definitions, stratum by stratum.
    fn materialize_definitions(
        &self,
        strata: &Strata<'_>,
        entry: &Entry,
    ) -> Result<HashMap<String, Relation>> {
        let mut defined: HashMap<String, Relation> = HashMap::new();
        for stratum in &strata.components {
            match stratum.members.as_slice() {
                [def] if !stratum.recursive => {
                    let rel =
                        self.eval_with(&def.collection, &defined, &strata.abstracts, entry)?;
                    defined.insert(def.name().to_string(), rel);
                }
                members => {
                    self.solve_recursive_scc(members, &mut defined, &strata.abstracts, entry)?
                }
            }
        }
        Ok(defined)
    }

    fn solve_recursive_scc(
        &self,
        scc: &[&Definition],
        defined: &mut HashMap<String, Relation>,
        abstracts: &HashMap<String, Collection>,
        entry: &Entry,
    ) -> Result<()> {
        let member_names: HashSet<String> = scc.iter().map(|d| d.name().to_string()).collect();
        let first_name = scc[0].name().to_string();

        if self.conventions.semantics == Semantics::Bag {
            return Err(EvalError::RecursionUnderBag {
                relation: first_name,
            });
        }
        for def in scc {
            if uses_nonmonotonically(&def.collection, abstracts, &member_names) {
                return Err(EvalError::NotStratifiable {
                    relation: def.name().to_string(),
                });
            }
        }

        // Seed every member with an empty relation of the right schema.
        let empty = |def: &Definition| {
            let attrs = &def.collection.head.attrs;
            Relation::from_store(def.name(), attrs.clone(), Rows::new(attrs.len()))
        };
        for def in scc {
            defined.insert(def.name().to_string(), empty(def));
        }

        // Bytes a round's new rows charge: their cells in the total and
        // their slots in the seen set. Neither can stream, so the
        // reservation is hard — denial trips the guard.
        let new_bytes = |new: &Rows| new.bytes() + new.len() * SeenRows::SLOT_BYTES;
        let delta_names: Vec<String> = scc.iter().map(|d| delta_name(d.name())).collect();
        let delta_of = |member: &str| {
            let named = |(d, _): &(&&Definition, &String)| d.name() == member;
            let (_, delta) = scc.iter().zip(&delta_names).find(named)?;
            Some(delta.as_str())
        };
        // Every member's rules, each with its delta variants.
        let rules: Vec<Vec<Rule<'_>>> = scc
            .iter()
            .map(|def| {
                let mut bodies = Vec::new();
                disjuncts(&def.collection.body, &mut bodies);
                let rule = |body| Rule {
                    body,
                    variants: delta_variants(body, abstracts, &delta_of),
                };
                bodies.into_iter().map(rule).collect()
            })
            .collect();
        // What no round can change is indexed once for all of them.
        let base = Builds::default();

        // Round 0: every rule against empty members seeds the totals (a
        // later member already reads an earlier one's seed) and fills each
        // member's seen set. A seed is its member's first delta too.
        let mut seen: Vec<SeenRows> = Vec::with_capacity(scc.len());
        for ((def, rules), delta) in scc.iter().zip(&rules).zip(&delta_names) {
            let (c, mut set, mut seed) = (&def.collection, SeenRows::default(), empty(def));
            let nothing_before = Rows::new(seed.arity());
            for rule in rules {
                let rows = self.eval_rule(c, rule.body, defined, abstracts, entry, None, &base)?;
                for row in &rows {
                    if set.insert(row, &nothing_before, &seed.rows) {
                        seed.rows.push_row(row);
                    }
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

        for iteration in 0.. {
            // Guard seam: one cooperative check (and fault window) per
            // round.
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
            // Stream every recursive rule's variants through the member's
            // seen set: a row not derived before joins the new delta, in
            // first-occurrence order across rules and their variants. A
            // rule that reaches no member has no variant: all it derives
            // is in the seed.
            let mut fresh: Vec<Rows> = Vec::with_capacity(scc.len());
            for ((def, rules), seen) in scc.iter().zip(&rules).zip(&mut seen) {
                let c = &def.collection;
                let mut new = Rows::new(c.head.attrs.len());
                let total = &defined[def.name()].rows;
                for rule in rules {
                    for &variant in &rule.variants {
                        let rows = self
                            .eval_rule(c, rule.body, defined, abstracts, entry, variant, &base)?;
                        for row in &rows {
                            if seen.insert(row, total, &new) {
                                new.push_row(row);
                            }
                        }
                    }
                }
                crate::eval::guard_reserve_hard(entry.guard.as_ref(), new_bytes(&new))?;
                fresh.push(new);
            }
            // Publish only now: within a round every member reads the totals
            // and deltas of the round before. The new rows append to the
            // total in one range copy; the delta takes their store.
            for ((def, delta), new) in scc.iter().zip(&delta_names).zip(fresh) {
                let total = defined.get_mut(def.name()).expect("seeded above");
                total.rows.extend_from(&new);
                defined.get_mut(delta).expect("seeded above").rows = new;
            }
        }
        for delta in &delta_names {
            defined.remove(delta);
        }
        Ok(())
    }
}

/// One rule of a recursive component's member: a top-level disjunct of
/// its body, by reference — so [`Redirect`], the plan cache and the
/// operator profile see the program's own AST — with its delta variants.
struct Rule<'p> {
    body: &'p Formula,
    /// Empty when the rule reaches no member: it runs in round 0 only.
    variants: Vec<Option<Redirect<'p>>>,
}

/// The rules of a member's body `f`: its top-level disjuncts, nested
/// disjunctions flattened, in source order.
fn disjuncts<'f>(f: &'f Formula, out: &mut Vec<&'f Formula>) {
    match f {
        Formula::Or(fs) => fs.iter().for_each(|g| disjuncts(g, out)),
        rule => out.push(rule),
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
}

impl SeenRows {
    /// What one slot charges the guard's accountant.
    const SLOT_BYTES: usize = 16;

    /// Whether `row` is new. A new row claims index
    /// `total.len() + pending.len()`: the caller pushes it onto `pending`,
    /// and appends `pending` to `total` before the next round.
    fn insert(&mut self, row: &[Value], total: &Rows, pending: &Rows) -> bool {
        let mut h = crate::eval::builds::hasher().build_hasher();
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

/// A program's strata — the one pass evaluation and `EXPLAIN` share:
/// definitions classified into *abstract* (§2.13.2: checked in context,
/// never materialized) and materialized ones, the latter grouped into the
/// strongly connected components of their dependency graph in the order
/// they materialize.
pub(crate) struct Strata<'p> {
    /// Abstract definitions, by name.
    pub(crate) abstracts: HashMap<String, Collection>,
    /// The materialized definitions' components, dependencies first.
    pub(crate) components: Vec<arc_plan::Stratum<'p>>,
}

impl<'p> Strata<'p> {
    pub(crate) fn of(p: &'p Program) -> Strata<'p> {
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

        // Dependency graph over safe definitions, abstract bodies followed.
        let def_index = |name: &str| safe.iter().position(|d| d.name() == name);
        let mut deps: Vec<HashSet<usize>> = vec![HashSet::new(); safe.len()];
        for (i, def) in safe.iter().enumerate() {
            reads(&def.collection.body, &abstracts, &mut |_, name, _| {
                deps[i].extend(def_index(name));
            });
        }

        // Strongly connected components (Tarjan). An edge `i → j` says
        // definition `i` reads `j`, and Tarjan emits a component only
        // after every component it can reach — so emission order already
        // materializes what a definition reads before the definition.
        let components = tarjan(&deps, |scc| arc_plan::Stratum {
            recursive: scc.len() > 1 || deps[scc[0]].contains(&scc[0]),
            members: scc.iter().map(|&i| safe[i]).collect(),
        });
        Strata {
            abstracts,
            components,
        }
    }
}

/// Visit every named binding formula `f` reads, in source order — nested
/// collections included, and the body of each abstract definition a
/// binding names right after that binding (once per path, so a cycle of
/// abstract definitions ends) — with whether the read is monotone. A read
/// is not monotone under `¬`, inside a grouping scope, or on the
/// null-supplying side of an outer join: a new row on a padded side can
/// *remove* a result — the `NULL`-padded row it now matches — exactly like
/// a new row under `¬`. An abstract body read non-monotonically reads
/// everything in it non-monotonically.
pub(crate) fn reads<'c>(
    f: &'c Formula,
    abstracts: &'c HashMap<String, Collection>,
    visit: &mut impl FnMut(&'c Binding, &'c str, bool),
) {
    fn walk<'c>(
        f: &'c Formula,
        abstracts: &'c HashMap<String, Collection>,
        monotone: bool,
        path: &mut Vec<&'c str>,
        visit: &mut impl FnMut(&'c Binding, &'c str, bool),
    ) {
        match f {
            Formula::Quant(q) => {
                let monotone = monotone && q.grouping.is_none();
                let mut padded = Vec::new();
                if let Some(tree) = &q.join {
                    null_supplied(tree, &mut padded);
                }
                for b in &q.bindings {
                    let monotone = monotone && !padded.contains(&b.var.as_str());
                    match &b.source {
                        BindingSource::Named(name) => {
                            visit(b, name, monotone);
                            match abstracts.get(name) {
                                Some(body) if !path.contains(&name.as_str()) => {
                                    path.push(name);
                                    walk(&body.body, abstracts, monotone, path, visit);
                                    path.pop();
                                }
                                _ => {}
                            }
                        }
                        BindingSource::Collection(c) => {
                            walk(&c.body, abstracts, monotone, path, visit)
                        }
                    }
                }
                walk(&q.body, abstracts, monotone, path, visit);
            }
            Formula::And(fs) | Formula::Or(fs) => fs
                .iter()
                .for_each(|sub| walk(sub, abstracts, monotone, path, visit)),
            Formula::Not(inner) => walk(inner, abstracts, false, path, visit),
            Formula::Pred(_) => {}
        }
    }
    walk(f, abstracts, true, &mut Vec::new(), visit);
}

/// Does the collection read any of `names` non-monotonically ([`reads`])?
/// Then it is not stratifiable.
fn uses_nonmonotonically(
    c: &Collection,
    abstracts: &HashMap<String, Collection>,
    names: &HashSet<String>,
) -> bool {
    let mut found = false;
    reads(&c.body, abstracts, &mut |_, name, monotone| {
        found |= !monotone && names.contains(name);
    });
    found
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

/// The delta variants of `rule` (one disjunct of a member's body): one
/// [`Redirect`] per binding it reads ([`reads`]) whose source has a delta
/// (`delta_of` names it: the source is a member of the recursive
/// component being solved) — the rule itself, that occurrence reading
/// last round's delta. None when the rule reaches no member.
///
/// An abstract body is one AST however often the rule reads the abstract
/// relation, and redirecting a binding in it redirects every read at
/// once, which misses a row that needs a new fact in one read and an old
/// one in another. A rule that reaches one binding twice therefore has
/// one variant, the rule itself unredirected: each round derives all of
/// it again, and the seen set keeps only what is new. The member's other
/// rules keep their own variants.
fn delta_variants<'c>(
    rule: &'c Formula,
    abstracts: &'c HashMap<String, Collection>,
    delta_of: &impl Fn(&str) -> Option<&'c str>,
) -> Vec<Option<Redirect<'c>>> {
    let mut variants: Vec<Redirect<'c>> = Vec::new();
    reads(rule, abstracts, &mut |binding, source, _| {
        variants.extend(delta_of(source).map(|name| Redirect { binding, name }));
    });
    let twice = variants.iter().enumerate().any(|(i, v)| {
        variants[..i]
            .iter()
            .any(|w| std::ptr::eq(w.binding, v.binding))
    });
    if twice {
        vec![None]
    } else {
        variants.into_iter().map(Some).collect()
    }
}

/// Tarjan's strongly connected components, in emission order, each as
/// `component` makes it of the member indices: a component comes after
/// every component reachable from it. With edges pointing from a
/// definition to what it reads, that is dependencies first.
fn tarjan<T>(deps: &[HashSet<usize>], component: impl FnMut(&[usize]) -> T) -> Vec<T> {
    struct State<'d, F, T> {
        deps: &'d [HashSet<usize>],
        index: Vec<Option<usize>>,
        low: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next: usize,
        component: F,
        out: Vec<T>,
    }
    fn strongconnect<F: FnMut(&[usize]) -> T, T>(s: &mut State<'_, F, T>, v: usize) {
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
            // The component is the stack above `v`, listed in pop order.
            let at = s.stack.iter().rposition(|&w| w == v).expect("on the stack");
            let scc = &mut s.stack[at..];
            scc.reverse();
            scc.iter().for_each(|&w| s.on_stack[w] = false);
            s.out.push((s.component)(scc));
            s.stack.truncate(at);
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
        component,
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
        let sccs = tarjan(&deps, <[usize]>::to_vec);
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
        let mut total = Rows::new(2);
        let mut round = |rows: Vec<Vec<Value>>, total: &mut Rows| {
            let mut pending = Rows::new(2);
            for row in rows {
                if seen.insert(&row, total, &pending) {
                    pending.push(row);
                }
            }
            total.extend_from(&pending);
            pending.to_vecs()
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
