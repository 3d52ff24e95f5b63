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
//!
//! Every engine table that hashes values hashes with one [`hasher`]: a
//! multiply-rotate step per written word, keyed once per process and
//! finished with a 64-bit avalanche. Keys are one or two words and a
//! tag, so a per-call cost like SipHash's would dwarf the words hashed.
//! The key is random, but the hasher is not SipHash-strength against
//! keys crafted to collide. That is acceptable here: every table
//! re-checks key equality, so a collision costs probe time and never
//! changes rows; `with_timeout` bounds a pathological query; and a
//! one-word key cannot collide fully, since every step is a bijection.
//! Statistics sketches and plan fingerprints must agree across
//! processes, so they deliberately hash with hashers of their own.

use super::quantifier::HashIndex;
use super::semijoin::{BuildKey, SemiEntry};
use crate::relation::Relation;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// The hasher of every engine table that hashes values — hash indexes
/// and their probes, group tables and `distinct` accumulators, semi-join
/// key sets, the lateral memo, the fixpoint's seen set, `dedupe_rows`,
/// distinct-key estimates — keyed once per process, so builds and probes
/// agree by construction. Not SipHash-strength against crafted keys: a
/// collision costs time, never rows (see the module docs). Sketches and
/// plan fingerprints do not use it.
pub(crate) fn hasher() -> &'static WordState {
    static HASHER: OnceLock<WordState> = OnceLock::new();
    HASHER.get_or_init(|| WordState(RandomState::new().hash_one(0u64) | 1))
}

/// [`hasher`]'s state: the process's key.
#[derive(Clone)]
pub(crate) struct WordState(u64);

impl BuildHasher for WordState {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher(self.0)
    }
}

/// One multiply-rotate step per written word, then an avalanche.
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    /// `M` is odd, so each step is a bijection of `word`.
    #[inline]
    fn write_u64(&mut self, word: u64) {
        const M: u64 = 0x5851_F42D_4C95_7F2D;
        self.0 = (self.0 ^ word).wrapping_mul(M).rotate_left(29);
    }

    /// Eight bytes at a time; the length folds into the last, padded word.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let mut last = [0; 8];
        last[..words.remainder().len()].copy_from_slice(words.remainder());
        self.write_u64(u64::from_le_bytes(last) ^ ((bytes.len() as u64) << 56));
    }

    // Every other fixed-width write (`write_isize`, the derived `Hash`'s
    // discriminant, included) defaults to one of these.
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.write_u64(n as u64);
        self.write_u64((n >> 64) as u64);
    }

    /// fmix64: both ends of the hash are mixed — the slot maps take a
    /// bucket from its low bits and a tag from its top seven.
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h = (h ^ (h >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h = (h ^ (h >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
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
    use super::super::quantifier::KeySlots;
    use super::*;
    use crate::relation::Rows;
    use arc_core::value::{KeyRef, Value};
    use std::hash::Hash;

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

    /// `key` hashed as a hash index hashes a row's key columns.
    fn hash(state: &WordState, key: &[KeyRef<'_>]) -> u64 {
        let mut h = state.build_hasher();
        key.iter().for_each(|k| k.hash(&mut h));
        h.finish()
    }

    /// Three fixed keys, so a failure reproduces, and this process's own.
    fn states() -> [WordState; 4] {
        [
            WordState(1),
            WordState(0x9E37_79B9_7F4A_7C15),
            WordState(u64::MAX),
            hasher().clone(),
        ]
    }

    /// Fails unless every one of the 128 buckets the low seven bits of
    /// `hashes` pick, and every one of the 128 tags their top seven bits
    /// make, holds within a factor of two of the uniform count.
    fn assert_spread(what: &str, hashes: &[u64]) {
        let uniform = hashes.len() / 128;
        for (end, shift) in [("low", 0), ("top", 57)] {
            let mut counts = [0usize; 128];
            for h in hashes {
                counts[((h >> shift) & 127) as usize] += 1;
            }
            let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(
                2 * lo >= uniform && *hi <= 2 * uniform,
                "{what}: {lo}..{hi} per {end} 7-bit bucket, uniform is {uniform}"
            );
        }
    }

    #[test]
    fn arithmetic_progressions_spread_over_buckets_and_tags() {
        const N: i64 = 1 << 14;
        // (what, first key, step)
        let runs = [
            ("multiples of 2^0", 0, 1),
            ("multiples of 2^8", 0, 1 << 8),
            ("multiples of 2^16", 0, 1 << 16),
            ("multiples of 2^32", 0, 1 << 32),
            ("a negative run", 0, -1),
            ("a run above i64::MIN", i64::MIN, 1),
            ("a run below i64::MAX", i64::MAX, -1),
        ];
        for state in &states() {
            for (what, first, step) in runs {
                let hashes: Vec<u64> = (0..N)
                    .map(|i| hash(state, &[KeyRef::Int(first + i * step)]))
                    .collect();
                assert_spread(what, &hashes);
            }
            let pairs: Vec<u64> = (0..N)
                .map(|i| hash(state, &[KeyRef::Int(i), KeyRef::Int(i)]))
                .collect();
            assert_spread("(i, i) pairs", &pairs);
        }
    }

    /// 128 strings of one length that differ only in their last byte hash
    /// apart and reach at least half of the buckets and of the tags (about
    /// 81 of 128 for uniform hashes), at lengths on and off a word's.
    #[test]
    fn strings_differing_in_their_last_byte_spread() {
        for state in &states() {
            for len in [1, 7, 8, 9, 16, 23] {
                let mut hashes: Vec<u64> = (0..128u8)
                    .map(|last| {
                        let key = "k".repeat(len - 1) + &char::from(last).to_string();
                        hash(state, &[KeyRef::Str(&key)])
                    })
                    .collect();
                for (end, shift) in [("low", 0), ("top", 57)] {
                    let mut seen = [false; 128];
                    for h in &hashes {
                        seen[((h >> shift) & 127) as usize] = true;
                    }
                    let reached = seen.iter().filter(|&&s| s).count();
                    assert!(reached >= 64, "length {len}: {reached} {end} 7-bit buckets");
                }
                hashes.sort_unstable();
                hashes.dedup();
                assert_eq!(hashes.len(), 128, "length {len}");
            }
        }
    }

    /// Every step of the hasher, and its finish, is a bijection of the
    /// word it takes, so distinct one-column `Int` keys never share a hash.
    #[test]
    fn distinct_int_keys_never_share_a_hash() {
        let sample = (-(1 << 16)..1 << 16)
            .chain((1..1 << 12).flat_map(|i| [i64::MIN + i, i64::MAX - i, i << 40]));
        let mut hashes: Vec<u64> = sample.map(|i| hash(hasher(), &[KeyRef::Int(i)])).collect();
        let n = hashes.len();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), n);
    }

    /// With every key hashed alike, the hash index and the key slots still
    /// tell keys apart by comparing them: a collision costs probe time,
    /// never rows.
    #[test]
    fn a_collision_costs_probe_time_never_rows() {
        let col = [
            Value::Int(1),
            Value::Float(1.0),
            Value::str("a"),
            Value::Int(2),
            Value::Null,
            Value::str("a"),
            Value::Float(2.5),
        ];
        let rows = Rows::from_vecs(1, col.iter().map(|v| vec![v.clone()]).collect());
        fn is<'r>(rows: &'r Rows, v: &'r Value) -> impl Fn(u32) -> bool + 'r {
            move |at| rows[at as usize][0].key_ref() == v.key_ref()
        }
        let index = HashIndex::build_by(&rows, &[0], |row| row[0].join_key_ref().map(|_| 7));
        let probe = |v: Value| {
            index
                .bucket(7, |at| Ok(is(&rows, &v)(at)))
                .unwrap()
                .to_vec()
        };
        assert_eq!(probe(Value::Int(1)), [0, 1]);
        assert_eq!(probe(Value::str("a")), [2, 5]);
        assert_eq!(probe(Value::Int(2)), [3]);
        assert_eq!(probe(Value::Float(2.5)), [6]);
        assert_eq!(probe(Value::Int(3)), []);

        // Keyed by hash alone, one bucket holds every indexed row, for the
        // caller to re-check.
        let hashes: Vec<_> = col.iter().map(|v| v.join_key_ref().map(|_| 7)).collect();
        let index = HashIndex::from_hashes(&hashes);
        assert_eq!(index.bucket(7, |_| Ok(true)).unwrap(), [0, 1, 2, 3, 5, 6]);
        assert_eq!(index.bucket(8, |_| Ok(true)).unwrap(), []);

        let mut slots = KeySlots::with_capacity(1);
        let fresh: Vec<bool> = (0..col.len() as u32)
            .map(|i| slots.insert(7, i, is(&rows, &col[i as usize])))
            .collect();
        assert_eq!(fresh, [true, false, true, true, true, false, true]);
        assert_eq!(slots.find(7, is(&rows, &Value::Int(2))), Some(3));
        assert_eq!(slots.find(7, is(&rows, &Value::str("a"))), Some(2));
        assert_eq!(slots.find(7, is(&rows, &Value::Null)), Some(4));
        assert_eq!(slots.find(7, is(&rows, &Value::Int(3))), None);
    }

    /// No code in this crate outside this module keys a cache by a
    /// relation's address or names a std hasher, and no key table hashes
    /// with a default-built one: a `HashSet<Vec<Key>>` anywhere, or a
    /// `HashSet<Key>` in the evaluator.
    #[test]
    fn only_the_store_keys_builds_and_draws_a_hasher() {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let files = super::super::knobs::rust_sources(&src);
        let needles = [
            "as *const Relation",
            "RandomState",
            "DefaultHasher",
            "HashSet<Vec<Key>>",
        ];
        let offenders: Vec<_> = files
            .iter()
            .filter(|f| !f.ends_with("eval/builds.rs"))
            .filter_map(|f| {
                let text = std::fs::read_to_string(f).unwrap();
                let in_eval = f.parent().is_some_and(|d| d.ends_with("eval"));
                let eval_needles: &[&str] = if in_eval { &["HashSet<Key>"] } else { &[] };
                let found: Vec<_> = needles
                    .iter()
                    .chain(eval_needles)
                    .filter(|n| text.contains(*n))
                    .collect();
                (!found.is_empty()).then(|| format!("{}: {found:?}", f.display()))
            })
            .collect();
        assert!(files.len() > 20, "walked {} files", files.len());
        assert!(
            offenders.is_empty(),
            "address keys or hashers: {offenders:?}"
        );
    }
}
