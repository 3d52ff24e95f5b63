//! # arc-guard — per-query resource governance and fault isolation
//!
//! The serving-layer story (ROADMAP: "Engine as a shared service") needs
//! one bad query — a runaway cross product, a panicking worker, an
//! oversized build — to stop taking the whole process with it. This
//! crate is the mechanism: a [`QueryGuard`] created once per engine
//! entry point and shared (`Arc`) by every worker evaluating that query.
//! It carries three cooperative limits and one test harness:
//!
//! * a **cancellation flag** ([`CancelHandle`]) the caller can trip from
//!   another thread;
//! * a **deadline** (wall-clock instant, from `ARC_TIMEOUT_MS` or
//!   `Engine::with_timeout`);
//! * a **memory budget** (`ARC_MEM_BUDGET`): an atomic accountant charged
//!   with coarse byte estimates at every allocation-heavy seam. A build
//!   whose reservation would exceed the budget *releases its claim* and
//!   degrades to a streaming path ([`QueryGuard::try_reserve`] returning
//!   `false`); only a hard reservation ([`QueryGuard::reserve_hard`],
//!   used for fixpoint deltas that cannot stream) trips the guard;
//! * a **fault plan** ([`FaultPlan`], `ARC_FAULT=seam:N[:kind]`): a
//!   deterministic injector that fires a panic, budget denial, or
//!   cancellation at the Nth visit of a named seam, so CI can walk every
//!   error path on demand.
//!
//! All checks are cooperative: execution seams call
//! [`QueryGuard::check`] (per morsel, per fixpoint round, and on an
//! amortized enumeration tick) and surface a [`Trip`] as a structured
//! engine error within one morsel of work. The first trip wins — every
//! seam that observes a tripped guard reports the *same* cause, so a
//! query that dies of a deadline never half-reports a budget error.
//!
//! The crate is std-only with no dependencies so both `arc-exec` (the
//! worker pool's morsel claim loop) and `arc-engine` (every build seam)
//! can use it.

#![warn(missing_docs)]

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Named guard seams: every point where the engine checks the guard,
/// charges the memory accountant, or lets the fault injector fire.
/// `ARC_FAULT` specs are validated against this registry.
pub mod seam {
    /// Amortized per-environment check inside scope enumeration.
    pub const ENUMERATE: &str = "enumerate";
    /// Per-morsel check at partition-scan entry.
    pub const MORSEL: &str = "morsel";
    /// Per-round check (and delta reservation) in recursive fixpoints.
    pub const FIXPOINT_ROUND: &str = "fixpoint-round";
    /// Hash-join index build (degrades to a streaming nested probe).
    pub const HASH_BUILD: &str = "hash-build";
    /// Semi-join key-set build (degrades to the nested fallback).
    pub const SEMI_BUILD: &str = "semi-build";
    /// Columnar chunk-view build (degrades to the row path).
    pub const CHUNK_BUILD: &str = "chunk-build";
    /// Ordered secondary-index build (degrades to a row-filter scan).
    pub const ORDERED_BUILD: &str = "ordered-build";
    /// Cached selection-vector build (degrades to per-row filtering).
    pub const SELECTION_BUILD: &str = "selection-build";
    /// Every registered seam, in documentation order. CI's fault-matrix
    /// smoke leg iterates this list.
    pub const ALL: &[&str] = &[
        ENUMERATE,
        MORSEL,
        FIXPOINT_ROUND,
        HASH_BUILD,
        SEMI_BUILD,
        CHUNK_BUILD,
        ORDERED_BUILD,
        SELECTION_BUILD,
    ];

    /// Canonicalize a seam name to its `'static` registry entry.
    pub fn lookup(name: &str) -> Option<&'static str> {
        ALL.iter().find(|s| **s == name).copied()
    }
}

/// Why a guard tripped. Maps 1:1 onto the engine's structured
/// `EvalError::{Cancelled, DeadlineExceeded, MemoryBudget}` variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trip {
    /// The caller tripped the [`CancelHandle`].
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// A hard reservation exceeded the memory budget.
    MemoryBudget,
}

impl Trip {
    fn as_u8(self) -> u8 {
        match self {
            Trip::Cancelled => 1,
            Trip::DeadlineExceeded => 2,
            Trip::MemoryBudget => 3,
        }
    }

    fn from_u8(v: u8) -> Option<Trip> {
        match v {
            1 => Some(Trip::Cancelled),
            2 => Some(Trip::DeadlineExceeded),
            3 => Some(Trip::MemoryBudget),
            _ => None,
        }
    }
}

impl std::fmt::Display for Trip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trip::Cancelled => write!(f, "cancelled"),
            Trip::DeadlineExceeded => write!(f, "deadline exceeded"),
            Trip::MemoryBudget => write!(f, "memory budget exceeded"),
        }
    }
}

/// What an injected fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the seam (exercises worker-panic containment).
    Panic,
    /// Behave as if the memory budget denied the seam's reservation
    /// (build seams degrade; check seams trip [`Trip::MemoryBudget`]).
    Budget,
    /// Trip cooperative cancellation at the seam.
    Cancel,
}

/// A deterministic fault: fire `kind` at the `at`-th visit of `seam`.
/// Parsed from `ARC_FAULT=seam:N[:panic|budget|cancel]` (kind defaults
/// to `panic`); visits are counted per query, so the same spec fires at
/// the same point on every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The registered seam name (canonicalized via [`seam::lookup`]).
    pub seam: &'static str,
    /// 1-based visit count at which the fault fires.
    pub at: u64,
    /// What happens when it fires.
    pub kind: FaultKind,
}

impl FaultPlan {
    /// Parse a `seam:N[:kind]` spec, validating the seam against the
    /// registry. Empty input means "no fault" (`Ok(None)`).
    pub fn parse(spec: &str) -> Result<Option<FaultPlan>, String> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Ok(None);
        }
        let mut parts = spec.split(':');
        let name = parts.next().unwrap_or("");
        let seam = seam::lookup(name).ok_or_else(|| {
            format!(
                "unknown fault seam `{name}` (expected one of {})",
                seam::ALL.join(", ")
            )
        })?;
        let at = parts
            .next()
            .ok_or_else(|| format!("fault spec `{spec}` is missing a visit count (seam:N)"))?;
        let at: u64 = at
            .parse()
            .map_err(|_| format!("fault visit count `{at}` is not a positive integer"))?;
        if at == 0 {
            return Err("fault visit counts are 1-based (seam:1 fires on the first visit)".into());
        }
        let kind = match parts.next() {
            None | Some("panic") => FaultKind::Panic,
            Some("budget") => FaultKind::Budget,
            Some("cancel") => FaultKind::Cancel,
            Some(k) => {
                return Err(format!(
                    "unknown fault kind `{k}` (expected `panic`, `budget`, or `cancel`)"
                ))
            }
        };
        if parts.next().is_some() {
            return Err(format!(
                "trailing fields in fault spec `{spec}` (seam:N[:kind])"
            ));
        }
        Ok(Some(FaultPlan { seam, at, kind }))
    }
}

/// Parse a memory budget: plain bytes, or with a `k`/`m`/`g` (or
/// `kb`/`mb`/`gb`) suffix, case-insensitive. Empty and `0` both mean
/// "no budget".
pub fn parse_mem_budget(value: &str) -> Result<Option<usize>, String> {
    let v = value.trim().to_lowercase();
    if v.is_empty() {
        return Ok(None);
    }
    let (digits, mult) = ["kb", "mb", "gb", "k", "m", "g", "b"]
        .iter()
        .find_map(|s| v.strip_suffix(s).map(|d| (d, *s)))
        .map(|(d, s)| {
            let mult: usize = match s {
                "k" | "kb" => 1 << 10,
                "m" | "mb" => 1 << 20,
                "g" | "gb" => 1 << 30,
                _ => 1,
            };
            (d.trim_end(), mult)
        })
        .unwrap_or((v.as_str(), 1));
    let n: usize = digits
        .parse()
        .map_err(|_| format!("unparseable memory budget `{value}` (expected bytes, e.g. `64m`)"))?;
    Ok(n.checked_mul(mult).filter(|&b| b > 0))
}

/// Shared cancellation state: the flag a [`CancelHandle`] trips, plus an
/// `armed` bit so an engine that never handed out a handle skips guard
/// construction entirely.
#[derive(Debug, Default)]
pub struct CancelState {
    flag: AtomicBool,
    armed: AtomicBool,
}

impl CancelState {
    /// Mark that a handle exists; subsequent queries build a guard.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Relaxed);
    }

    /// Has a handle ever been handed out?
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Is the flag currently tripped?
    pub fn is_set(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// A caller-side handle that cancels the query currently running on the
/// engine it came from. Cloneable and sendable across threads; tripping
/// it is sticky until [`CancelHandle::reset`].
#[derive(Debug, Clone)]
pub struct CancelHandle(Arc<CancelState>);

impl CancelHandle {
    /// Wrap shared state (the engine calls this; `state.arm()` first).
    pub fn new(state: Arc<CancelState>) -> CancelHandle {
        CancelHandle(state)
    }

    /// Trip cancellation: the running query surfaces `Cancelled` within
    /// one morsel of work. Queries started while the flag stays set are
    /// cancelled immediately.
    pub fn cancel(&self) {
        self.0.flag.store(true, Ordering::Relaxed);
    }

    /// Clear the flag so the next query on the same engine runs to
    /// completion.
    pub fn reset(&self) {
        self.0.flag.store(false, Ordering::Relaxed);
    }

    /// Is the flag currently tripped?
    pub fn is_cancelled(&self) -> bool {
        self.0.is_set()
    }
}

/// The per-query guard: cooperative limits shared by every worker
/// evaluating one query. See the crate docs for the protocol.
#[derive(Debug)]
pub struct QueryGuard {
    cancel: Option<Arc<CancelState>>,
    deadline: Option<Instant>,
    budget: Option<usize>,
    used: AtomicUsize,
    peak: AtomicUsize,
    degradations: AtomicU64,
    faults: AtomicU64,
    tripped: AtomicU8,
    fault_plan: Option<FaultPlan>,
    fault_visits: AtomicU64,
}

impl QueryGuard {
    /// A guard with the given limits. `cancel` is the engine's shared
    /// cancellation state (present only when a handle was handed out).
    pub fn new(
        deadline: Option<Instant>,
        budget: Option<usize>,
        fault_plan: Option<FaultPlan>,
        cancel: Option<Arc<CancelState>>,
    ) -> QueryGuard {
        QueryGuard {
            cancel,
            deadline,
            budget,
            used: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            degradations: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            tripped: AtomicU8::new(0),
            fault_plan,
            fault_visits: AtomicU64::new(0),
        }
    }

    /// Cooperative check: already tripped → that cause; else the cancel
    /// flag, then the deadline. First trip wins and is sticky, so every
    /// seam reports the same structured error.
    pub fn check(&self) -> Result<(), Trip> {
        if let Some(t) = Trip::from_u8(self.tripped.load(Ordering::Relaxed)) {
            return Err(t);
        }
        if self.cancel.as_ref().is_some_and(|c| c.is_set()) {
            return Err(self.trip(Trip::Cancelled));
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(self.trip(Trip::DeadlineExceeded));
        }
        Ok(())
    }

    /// Record a trip (first cause wins); returns the winning cause.
    pub fn trip(&self, cause: Trip) -> Trip {
        match self
            .tripped
            .compare_exchange(0, cause.as_u8(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => cause,
            Err(prev) => Trip::from_u8(prev).unwrap_or(cause),
        }
    }

    /// The recorded trip cause, if any.
    pub fn trip_cause(&self) -> Option<Trip> {
        Trip::from_u8(self.tripped.load(Ordering::Relaxed))
    }

    /// Soft reservation for a degradable build: charge `bytes`, and if
    /// the budget is exceeded release the claim and return `false` — the
    /// caller falls back to its streaming path. Always charges (and
    /// returns `true`) when no budget is set, so `mem_peak` is
    /// meaningful under a pure deadline guard too.
    pub fn try_reserve(&self, bytes: usize) -> bool {
        let prev = self.used.fetch_add(bytes, Ordering::Relaxed);
        let now = prev.saturating_add(bytes);
        if self.budget.is_some_and(|b| now > b) {
            self.used.fetch_sub(bytes, Ordering::Relaxed);
            return false;
        }
        self.peak.fetch_max(now, Ordering::Relaxed);
        true
    }

    /// Hard reservation for allocations that cannot stream (fixpoint
    /// deltas): on denial the guard trips [`Trip::MemoryBudget`].
    pub fn reserve_hard(&self, bytes: usize) -> Result<(), Trip> {
        if self.try_reserve(bytes) {
            Ok(())
        } else {
            Err(self.trip(Trip::MemoryBudget))
        }
    }

    /// Return a previous reservation to the accountant.
    pub fn release(&self, bytes: usize) {
        self.used.fetch_sub(
            bytes.min(self.used.load(Ordering::Relaxed)),
            Ordering::Relaxed,
        );
    }

    /// Bytes currently reserved.
    pub fn mem_used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// High-water mark of the accountant.
    pub fn mem_peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Count one graceful degradation (a build that fell back to a
    /// streaming path instead of allocating past the budget).
    pub fn note_degradation(&self) {
        self.degradations.fetch_add(1, Ordering::Relaxed);
    }

    /// Degradations so far.
    pub fn degradations(&self) -> u64 {
        self.degradations.load(Ordering::Relaxed)
    }

    /// Injected faults fired so far.
    pub fn faults_fired(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// Is a fault plan armed? Seams use this to skip injection work on
    /// the fast path.
    pub fn fault_armed(&self) -> bool {
        self.fault_plan.is_some()
    }

    /// Visit a seam for fault injection: counts visits of the planned
    /// seam and returns the fault kind exactly at the planned visit.
    /// Returns `None` (and counts nothing) when no plan is armed or the
    /// seam doesn't match.
    pub fn fire_fault(&self, seam: &str) -> Option<FaultKind> {
        let plan = self.fault_plan.as_ref()?;
        if plan.seam != seam {
            return None;
        }
        let visit = self.fault_visits.fetch_add(1, Ordering::Relaxed) + 1;
        if visit == plan.at {
            self.faults.fetch_add(1, Ordering::Relaxed);
            Some(plan.kind)
        } else {
            None
        }
    }
}

/// Best-effort text of a panic payload (the common `&str` / `String`
/// forms), for converting caught worker panics into structured errors.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_guard_never_trips() {
        let g = QueryGuard::new(None, None, None, None);
        assert_eq!(g.check(), Ok(()));
        assert!(g.try_reserve(usize::MAX / 2));
        assert_eq!(g.check(), Ok(()));
        assert_eq!(g.trip_cause(), None);
    }

    #[test]
    fn deadline_trips_and_is_sticky() {
        let g = QueryGuard::new(
            Some(Instant::now() - Duration::from_millis(1)),
            None,
            None,
            None,
        );
        assert_eq!(g.check(), Err(Trip::DeadlineExceeded));
        // Sticky: later causes cannot overwrite the first.
        g.trip(Trip::MemoryBudget);
        assert_eq!(g.trip_cause(), Some(Trip::DeadlineExceeded));
    }

    #[test]
    fn cancel_handle_trips_and_resets() {
        let state = Arc::new(CancelState::default());
        let handle = CancelHandle::new(state.clone());
        let g = QueryGuard::new(None, None, None, Some(state.clone()));
        assert_eq!(g.check(), Ok(()));
        handle.cancel();
        assert_eq!(g.check(), Err(Trip::Cancelled));
        handle.reset();
        // The guard already tripped (sticky), but a *fresh* guard on the
        // same state runs clean — the same-engine re-run contract.
        let g2 = QueryGuard::new(None, None, None, Some(state));
        assert_eq!(g2.check(), Ok(()));
    }

    #[test]
    fn soft_reservations_release_on_denial() {
        let g = QueryGuard::new(None, Some(100), None, None);
        assert!(g.try_reserve(60));
        assert!(!g.try_reserve(60), "would exceed the budget");
        assert_eq!(g.mem_used(), 60, "denied claim was released");
        assert!(g.try_reserve(40), "exactly at the budget is fine");
        assert_eq!(g.mem_peak(), 100);
        assert_eq!(g.check(), Ok(()), "soft denial never trips");
        g.release(40);
        assert_eq!(g.mem_used(), 60);
    }

    #[test]
    fn hard_reservation_trips_memory_budget() {
        let g = QueryGuard::new(None, Some(10), None, None);
        assert_eq!(g.reserve_hard(8), Ok(()));
        assert_eq!(g.reserve_hard(8), Err(Trip::MemoryBudget));
        assert_eq!(g.check(), Err(Trip::MemoryBudget));
    }

    #[test]
    fn faults_fire_exactly_at_the_planned_visit() {
        let plan = FaultPlan::parse("hash-build:3:budget").unwrap().unwrap();
        let g = QueryGuard::new(None, None, Some(plan), None);
        assert!(g.fault_armed());
        assert_eq!(g.fire_fault(seam::MORSEL), None, "other seams don't count");
        assert_eq!(g.fire_fault(seam::HASH_BUILD), None);
        assert_eq!(g.fire_fault(seam::HASH_BUILD), None);
        assert_eq!(g.fire_fault(seam::HASH_BUILD), Some(FaultKind::Budget));
        assert_eq!(g.fire_fault(seam::HASH_BUILD), None, "fires exactly once");
        assert_eq!(g.faults_fired(), 1);
    }

    #[test]
    fn fault_specs_parse_and_validate() {
        assert_eq!(FaultPlan::parse("").unwrap(), None);
        let p = FaultPlan::parse("morsel:2").unwrap().unwrap();
        assert_eq!((p.seam, p.at, p.kind), (seam::MORSEL, 2, FaultKind::Panic));
        let p = FaultPlan::parse("enumerate:5:cancel").unwrap().unwrap();
        assert_eq!(p.kind, FaultKind::Cancel);
        for bad in [
            "nope:1",
            "morsel",
            "morsel:0",
            "morsel:x",
            "morsel:1:explode",
            "morsel:1:panic:extra",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad}");
        }
        for s in seam::ALL {
            assert!(FaultPlan::parse(&format!("{s}:1")).is_ok(), "{s}");
            assert_eq!(seam::lookup(s), Some(*s));
        }
    }

    #[test]
    fn mem_budgets_parse_with_suffixes() {
        assert_eq!(parse_mem_budget(""), Ok(None));
        assert_eq!(parse_mem_budget("0"), Ok(None));
        assert_eq!(parse_mem_budget("4096"), Ok(Some(4096)));
        assert_eq!(parse_mem_budget("64k"), Ok(Some(64 << 10)));
        assert_eq!(parse_mem_budget("64K"), Ok(Some(64 << 10)));
        assert_eq!(parse_mem_budget("2mb"), Ok(Some(2 << 20)));
        assert_eq!(parse_mem_budget("1g"), Ok(Some(1 << 30)));
        assert_eq!(parse_mem_budget("512b"), Ok(Some(512)));
        assert!(parse_mem_budget("lots").is_err());
        assert!(parse_mem_budget("-5").is_err());
    }

    #[test]
    fn panic_messages_extract_common_payloads() {
        let p: Box<dyn Any + Send> = Box::new("boom");
        assert_eq!(panic_message(p.as_ref()), "boom");
        let p: Box<dyn Any + Send> = Box::new(String::from("kaboom"));
        assert_eq!(panic_message(p.as_ref()), "kaboom");
        let p: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(p.as_ref()), "worker panicked");
    }
}
