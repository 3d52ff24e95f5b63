//! The evaluation's build store, and the engine's one hasher.
//!
//! What an evaluation builds once and reads many times — hash indexes,
//! scan selections, distinct-key estimates, semi-join key sets — lives in
//! one [`Builds`] on its `QueryShared`: the coordinator and every worker
//! read and fill the same store, and it dies with the evaluation. A
//! recursive component's solve owns one more, lent to each round, for the
//! hash indexes over catalog relations (`Ctx::join_index`).
//!
//! A build over a relation is keyed by what it read ([`key`]): the
//! [generation](crate::relation::Rows::generation) of the relation's rows
//! — every mutation moves it, a clone draws its own — and the columns or
//! filters it covers. A semi-join entry is keyed by its scope and its
//! pinned plan (see `semijoin`). Lookups and publishes hold the one lock
//! for a map operation; no build runs under it, and the first publish of
//! a key wins. A panic under the lock empties the store and clears the
//! poison: every entry is an optimisation, so losing one costs a rebuild.

use super::quantifier::HashIndex;
use super::semijoin::{BuildKey, SemiEntry};
use crate::relation::Relation;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// The hasher of every engine table that hashes values — hash indexes
/// and their probes, group tables and `distinct` accumulators, semi-join
/// key sets, the lateral memo, the fixpoint's seen set, `dedupe_rows` —
/// keyed once per process, so builds and probes agree by construction.
pub(crate) fn hasher() -> &'static RandomState {
    static HASHER: OnceLock<RandomState> = OnceLock::new();
    HASHER.get_or_init(RandomState::new)
}

/// *(generation of the relation's rows, what the build covers)*.
pub(crate) type Key = (u64, Vec<usize>);

/// The key of a build over `rel` that covers `cover`.
pub(crate) fn key(rel: &Relation, cover: Vec<usize>) -> Key {
    (rel.rows.generation(), cover)
}

/// One evaluation's builds (see the module docs).
#[derive(Default)]
pub(crate) struct Builds(Mutex<Store>);

#[derive(Default)]
pub(crate) struct Store {
    pub(crate) hash: HashMap<Key, Arc<HashIndex>>,
    pub(crate) selections: HashMap<Key, Arc<Vec<u32>>>,
    pub(crate) distinct: HashMap<Key, usize>,
    /// Semi-join entries, newest first, linked through `SemiEntry::next`:
    /// an evaluation has a handful, so a walk is as fast as a hash.
    semi: Option<Arc<SemiEntry>>,
}

/// One of [`Store`]'s maps.
type Map<T> = fn(&mut Store) -> &mut HashMap<Key, T>;

impl Builds {
    fn lock(&self) -> MutexGuard<'_, Store> {
        self.0.lock().unwrap_or_else(|poisoned| {
            self.0.clear_poison();
            let mut store = poisoned.into_inner();
            *store = Store::default();
            store
        })
    }

    /// The build `map` holds for `key`, if one was published.
    pub(crate) fn get<T: Clone>(&self, map: Map<T>, key: &Key) -> Option<T> {
        map(&mut self.lock()).get(key).cloned()
    }

    /// Publish `value` for `key` unless a racing worker already did; the
    /// build `map` holds for `key` afterwards.
    pub(crate) fn publish<T: Clone>(&self, map: Map<T>, key: Key, value: T) -> T {
        map(&mut self.lock()).entry(key).or_insert(value).clone()
    }

    /// The semi-join entry for `key`, if one was published.
    pub(crate) fn semi(&self, key: BuildKey) -> Option<Arc<SemiEntry>> {
        find(&self.lock(), key)
    }

    /// Publish the entry `make` returns — given the list to link in front
    /// of — unless one for `key` was published; the entry for `key`
    /// afterwards.
    pub(crate) fn publish_semi(
        &self,
        key: BuildKey,
        make: impl FnOnce(Option<Arc<SemiEntry>>) -> SemiEntry,
    ) -> Arc<SemiEntry> {
        let mut store = self.lock();
        if let Some(entry) = find(&store, key) {
            return entry;
        }
        let entry = Arc::new(make(store.semi.take()));
        store.semi = Some(entry.clone());
        entry
    }

    /// Every semi-join entry, newest first.
    pub(crate) fn each_semi(&self, mut f: impl FnMut(&SemiEntry)) {
        let store = self.lock();
        let mut at = store.semi.as_deref();
        while let Some(entry) = at {
            f(entry);
            at = entry.next.as_deref();
        }
    }
}

fn find(store: &Store, key: BuildKey) -> Option<Arc<SemiEntry>> {
    let mut at = store.semi.as_ref();
    while let Some(entry) = at {
        if entry.key == key {
            return Some(entry.clone());
        }
        at = entry.next.as_ref();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use arc_core::value::Value;

    #[test]
    fn a_poisoned_store_recovers_empty() {
        let builds = Builds::default();
        builds.publish(|s| &mut s.distinct, (1, vec![0]), 7);
        std::thread::scope(|s| {
            let poison = s.spawn(|| {
                let _guard = builds.0.lock().unwrap();
                panic!("worker panicked mid-publish");
            });
            poison.join().unwrap_err();
        });
        assert!(builds.0.is_poisoned());
        assert_eq!(builds.get(|s| &mut s.distinct, &(1, vec![0])), None);
        assert!(!builds.0.is_poisoned(), "recovery clears the poison");
    }

    #[test]
    fn the_first_publish_wins() {
        let (builds, key, first) = (Builds::default(), (1, vec![0]), Arc::new(vec![1u32]));
        let won = builds.publish(|s| &mut s.selections, key.clone(), first.clone());
        let lost = builds.publish(|s| &mut s.selections, key.clone(), Arc::new(vec![2]));
        let read = builds.get(|s| &mut s.selections, &key).unwrap();
        assert!([won, lost, read].iter().all(|a| Arc::ptr_eq(a, &first)));
    }

    #[test]
    fn a_build_is_keyed_by_the_rows_it_read() {
        let mut rel = Relation::from_ints("R", &["A"], &[&[1], &[2], &[2]]);
        let builds = Builds::default();
        let lookup = |rel: &Relation| builds.get(|s| &mut s.hash, &key(rel, vec![0]));
        let index = Arc::new(HashIndex::build(&rel.rows, &[0]));
        builds.publish(|s| &mut s.hash, key(&rel, vec![0]), index.clone());
        assert!(
            Arc::ptr_eq(&lookup(&rel).unwrap(), &index),
            "untouched: a hit"
        );
        assert!(lookup(&rel).is_some(), "and a hit again");
        assert!(lookup(&rel.clone()).is_none(), "a clone misses");
        rel.push(vec![Value::Int(3)]);
        assert!(lookup(&rel).is_none(), "a push moves the generation");
    }

    /// No code in this crate outside this module keys a cache by a
    /// relation's address or draws a hasher of its own, and no key table
    /// of the evaluator hashes with a default-built one.
    #[test]
    fn only_the_store_keys_builds_and_draws_a_hasher() {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let files = super::super::knobs::rust_sources(&src);
        let needles = [
            "as *const Relation",
            "RandomState::new()",
            "RandomState::default()",
        ];
        let eval_needles = ["HashSet<Key>", "HashSet<Vec<Key>>"];
        let offenders: Vec<_> = files
            .iter()
            .filter(|f| !f.ends_with("eval/builds.rs"))
            .filter(|f| {
                let text = std::fs::read_to_string(f).unwrap();
                let in_eval = f.parent().is_some_and(|d| d.ends_with("eval"));
                needles.iter().any(|n| text.contains(n))
                    || in_eval && eval_needles.iter().any(|n| text.contains(n))
            })
            .collect();
        assert!(files.len() > 20, "walked {} files", files.len());
        assert!(
            offenders.is_empty(),
            "address keys or hashers: {offenders:?}"
        );
    }
}
