//! A register-based distinct counter (HLL-style).
//!
//! 256 six-bit registers (stored as bytes), a deterministic 64-bit hash
//! (FNV-1a over the canonical key bytes, finished with a splitmix64
//! avalanche so short inputs still spread across registers), harmonic-mean
//! estimation with the standard linear-counting correction for small
//! cardinalities. Standard error is `1.04/√256 ≈ 6.5%` — far inside the
//! factor the planner needs to *rank* join candidates — and the state is
//! 256 bytes per column regardless of relation size.

use arc_core::value::Key;

/// log2 of the register count.
const P: u32 = 8;
/// Register count (2^P).
const M: usize = 1 << P;
/// Bias correction for M = 256 (the standard HLL constant).
const ALPHA: f64 = 0.7182725932495458; // 0.7213 / (1 + 1.079 / 256)

/// A streaming distinct-count sketch over canonical [`Key`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistinctSketch {
    registers: Vec<u8>, // length M; Vec (not array) keeps serialization simple
}

impl Default for DistinctSketch {
    fn default() -> Self {
        DistinctSketch::new()
    }
}

impl DistinctSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        DistinctSketch {
            registers: vec![0; M],
        }
    }

    /// Rebuild from serialized registers (must be exactly 256 bytes).
    pub fn from_registers(registers: Vec<u8>) -> Result<Self, String> {
        if registers.len() != M {
            return Err(format!(
                "distinct sketch needs {M} registers, got {}",
                registers.len()
            ));
        }
        Ok(DistinctSketch { registers })
    }

    /// The raw registers (for serialization).
    pub fn registers(&self) -> &[u8] {
        &self.registers
    }

    /// Observe one key.
    pub fn insert(&mut self, key: &Key) {
        self.insert_hash(hash_key(key));
    }

    /// Observe one key by its [`hash_key`] — for a caller that needs the
    /// hash for something else too (ANALYZE folds the same hash into the
    /// cell's row hash), so each cell is hashed once.
    pub fn insert_hash(&mut self, h: u64) {
        let idx = (h >> (64 - P)) as usize;
        // Rank of the first set bit in the remaining stream (1-based);
        // an all-zero remainder gets the maximum rank.
        let w = h << P;
        let rho = if w == 0 {
            64 - P + 1
        } else {
            w.leading_zeros() + 1
        } as u8;
        if rho > self.registers[idx] {
            self.registers[idx] = rho;
        }
    }

    /// The estimated distinct count.
    pub fn estimate(&self) -> u64 {
        let sum: f64 = self
            .registers
            .iter()
            .map(|&r| 2f64.powi(-i32::from(r)))
            .sum();
        let raw = ALPHA * (M as f64) * (M as f64) / sum;
        let zeros = self.registers.iter().filter(|&&r| r == 0).count();
        let corrected = if raw <= 2.5 * M as f64 && zeros > 0 {
            // Linear counting: far more accurate in the small range.
            (M as f64) * ((M as f64) / zeros as f64).ln()
        } else {
            raw
        };
        corrected.round() as u64
    }
}

/// Deterministic 64-bit hash of a canonical key: FNV-1a over tagged bytes,
/// then a splitmix64 finalizer (FNV alone biases the low bits on short
/// inputs, which would starve HLL registers). ANALYZE computes it once
/// per cell and hands it to both consumers:
/// [`DistinctSketch::insert_hash`] and, through [`combine_hashes`], the
/// row hash a [`RowSketch`] takes.
pub fn hash_key(key: &Key) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    match key {
        Key::Null => eat(&[0x01]),
        Key::Bool(b) => eat(&[0x02, u8::from(*b)]),
        Key::Int(i) => {
            eat(&[0x03]);
            eat(&i.to_le_bytes());
        }
        Key::Float(bits) => {
            eat(&[0x04]);
            eat(&bits.to_le_bytes());
        }
        Key::Str(s) => {
            eat(&[0x05]);
            eat(s.as_bytes());
            eat(&[0xff]);
        }
    }
    mix(h)
}

/// splitmix64's finalizer, applied twice — FNV's output on short inputs is
/// too structured for register/rank splitting, and one round still leaves
/// measurable bias in the leading-zero ranks.
fn mix(h: u64) -> u64 {
    let mut z = h;
    for _ in 0..2 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
    }
    z
}

/// Combine a row's per-column hashes into one row hash (order-sensitive),
/// for whole-row distinct sketches.
pub fn combine_hashes(acc: u64, next: u64) -> u64 {
    // The 64-bit FNV prime keeps combination non-commutative, so
    // (a, b) and (b, a) produce different row hashes.
    acc.wrapping_mul(0x0000_0100_0000_01b3) ^ next
}

/// A sketch fed with pre-combined row hashes rather than keys (the
/// whole-row distinct counter of [`TableStats`](crate::table::TableStats)).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RowSketch {
    inner: DistinctSketch,
}

impl RowSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        RowSketch::default()
    }

    /// Observe one pre-hashed row.
    pub fn insert_hash(&mut self, h: u64) {
        // Finalize-mix the combined hash so correlated row hashes spread,
        // then update registers exactly as a key insert would.
        self.inner.insert_hash(mix(h));
    }

    /// The estimated distinct row count.
    pub fn estimate(&self) -> u64 {
        self.inner.estimate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactish_in_the_small_range() {
        let mut s = DistinctSketch::new();
        for i in 0..50i64 {
            s.insert(&Key::Int(i));
            s.insert(&Key::Int(i)); // duplicates must not inflate
        }
        let est = s.estimate();
        assert!((45..=55).contains(&est), "est {est} for 50 distinct");
    }

    #[test]
    fn within_error_bound_at_scale() {
        let mut s = DistinctSketch::new();
        let n = 100_000i64;
        for i in 0..n {
            s.insert(&Key::Int(i));
        }
        let est = s.estimate() as f64;
        let err = (est - n as f64).abs() / n as f64;
        assert!(err < 0.2, "relative error {err:.3} (est {est})");
    }

    #[test]
    fn mixed_key_types_do_not_collide() {
        let mut s = DistinctSketch::new();
        for i in 0..100i64 {
            s.insert(&Key::Int(i));
            s.insert(&Key::Str(i.to_string()));
            s.insert(&Key::Float((i as f64 + 0.5).to_bits()));
        }
        let est = s.estimate();
        assert!((270..=330).contains(&est), "est {est} for 300 distinct");
    }

    #[test]
    fn round_trips_registers() {
        let mut s = DistinctSketch::new();
        for i in 0..1000i64 {
            s.insert(&Key::Int(i * 7));
        }
        let back = DistinctSketch::from_registers(s.registers().to_vec()).unwrap();
        assert_eq!(back.estimate(), s.estimate());
        assert!(DistinctSketch::from_registers(vec![0; 3]).is_err());
    }
}
