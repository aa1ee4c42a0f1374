//! Ordered synchronization primitives and a deterministic schedule-chaos
//! injector — the runtime half of the workspace's concurrency-correctness
//! story (the static half is `neo-xtask lint`'s `lock_order` rule).
//!
//! # Ordered locks
//!
//! [`OrderedMutex`] and [`OrderedRwLock`] wrap their `std::sync`
//! counterparts with a `&'static str` name; [`OrderedBarrier`] is a named
//! spin-then-park barrier. With the crate's
//! `sanitize` feature **off** (the default) they are pass-throughs: no
//! tracking, no extra state per acquisition, bitwise-identical behavior.
//! With `sanitize` **on**, every acquisition maintains a thread-local
//! held-lock stack and a process-wide acquisition-order graph:
//!
//! * acquiring `B` while holding `A` records the order edge `A → B`;
//! * an acquisition whose edge would close a cycle — the classic AB/BA
//!   inversion that deadlocks under the wrong interleaving — is reported
//!   as a typed [`LockOrderViolation`] *before* blocking, either via the
//!   fallible [`OrderedMutex::lock_ordered`] or by recording into a
//!   process-wide registry drained with [`take_violations`];
//! * an [`OrderedBarrier::wait`] entered while holding any lock is
//!   flagged as a rendezvous wait-cycle hazard (a peer that needs the
//!   lock to reach the barrier would hang the whole group).
//!
//! Lock names form the workspace lock hierarchy documented in DESIGN.md
//! (e.g. `collectives.main.slots`, `dataio.feed.state`,
//! `telemetry.store`); the graph is keyed by those names, so one misuse
//! anywhere in a process is enough for the validator to learn the edge
//! and flag the reverse order everywhere else.
//!
//! # Poison policy
//!
//! All wrappers recover from poisoning via [`recover`] instead of
//! propagating panics into unrelated threads: worker panics are already
//! surfaced as typed errors at their ends of the channels (e.g.
//! `CollectiveError::LaneFailed`), so a poisoned guard only means "a
//! panic was reported elsewhere" and the protected state — plain data,
//! never mid-invariant — stays usable.
//!
//! # Schedule chaos
//!
//! The [`chaos`] module provides seeded yield points for the
//! `neo-xtask interleave` harness; see its docs for the determinism
//! contract.

#![forbid(unsafe_code)]
#![deny(warnings)]
#![deny(missing_docs)]

pub mod chaos;
mod order;

pub use order::{take_violations, LockOrderViolation, ViolationKind};

use std::fmt;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Recovers the guard from a poisoned lock result.
///
/// The workspace-wide poison policy: a poisoned `std::sync` lock only
/// records that some thread panicked while holding it; the panic itself
/// is surfaced as a typed error on whichever channel the panicking
/// thread served. Protected state is plain data (never left
/// mid-invariant), so the guard is safe to use.
pub fn recover<G>(r: Result<G, PoisonError<G>>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Lock names the calling thread currently holds, outermost first.
/// Always empty when the `sanitize` feature is off.
pub fn held_locks() -> Vec<&'static str> {
    order::held_locks()
}

/// A named [`std::sync::Mutex`] participating in lock-order validation
/// when the `sanitize` feature is on; a plain pass-through otherwise.
pub struct OrderedMutex<T> {
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wraps `value` under the order-graph node `name`. Names should be
    /// globally unique, dot-separated `crate.component.field` paths.
    pub const fn new(name: &'static str, value: T) -> Self {
        Self {
            name,
            inner: Mutex::new(value),
        }
    }

    /// This lock's order-graph name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquires the lock, recovering from poison. Under `sanitize`, a
    /// would-be ordering violation is recorded in the process registry
    /// (see [`take_violations`]) and the acquisition proceeds anyway —
    /// the call site keeps its infallible signature.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        if let Some(v) = order::on_acquire(self.name) {
            order::record(v);
        }
        let inner = recover(self.inner.lock());
        order::on_acquired(self.name);
        OrderedMutexGuard {
            name: self.name,
            inner,
        }
    }

    /// Acquires the lock, refusing (without blocking) if the acquisition
    /// would commit an ordering violation under `sanitize`. With
    /// `sanitize` off this never fails.
    pub fn lock_ordered(&self) -> Result<OrderedMutexGuard<'_, T>, LockOrderViolation> {
        if let Some(v) = order::on_acquire(self.name) {
            return Err(v);
        }
        let inner = recover(self.inner.lock());
        order::on_acquired(self.name);
        Ok(OrderedMutexGuard {
            name: self.name,
            inner,
        })
    }
}

impl<T> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("name", &self.name)
            .finish()
    }
}

/// RAII guard for [`OrderedMutex`]; releases the order-graph hold on drop.
pub struct OrderedMutexGuard<'a, T> {
    name: &'static str,
    inner: MutexGuard<'a, T>,
}

impl<T> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        order::on_release(self.name);
    }
}

impl<T> fmt::Debug for OrderedMutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutexGuard")
            .field("name", &self.name)
            .finish()
    }
}

/// A named [`std::sync::RwLock`] participating in lock-order validation
/// when the `sanitize` feature is on; a plain pass-through otherwise.
/// Reader and writer acquisitions share one order-graph node.
pub struct OrderedRwLock<T> {
    name: &'static str,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Wraps `value` under the order-graph node `name`.
    pub const fn new(name: &'static str, value: T) -> Self {
        Self {
            name,
            inner: RwLock::new(value),
        }
    }

    /// This lock's order-graph name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Shared acquisition; ordering violations are recorded, not raised.
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        if let Some(v) = order::on_acquire(self.name) {
            order::record(v);
        }
        let inner = recover(self.inner.read());
        order::on_acquired(self.name);
        OrderedReadGuard {
            name: self.name,
            inner,
        }
    }

    /// Exclusive acquisition; ordering violations are recorded, not raised.
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        if let Some(v) = order::on_acquire(self.name) {
            order::record(v);
        }
        let inner = recover(self.inner.write());
        order::on_acquired(self.name);
        OrderedWriteGuard {
            name: self.name,
            inner,
        }
    }

    /// Shared acquisition that refuses (without blocking) on a would-be
    /// ordering violation under `sanitize`.
    pub fn read_ordered(&self) -> Result<OrderedReadGuard<'_, T>, LockOrderViolation> {
        if let Some(v) = order::on_acquire(self.name) {
            return Err(v);
        }
        let inner = recover(self.inner.read());
        order::on_acquired(self.name);
        Ok(OrderedReadGuard {
            name: self.name,
            inner,
        })
    }

    /// Exclusive acquisition that refuses (without blocking) on a
    /// would-be ordering violation under `sanitize`.
    pub fn write_ordered(&self) -> Result<OrderedWriteGuard<'_, T>, LockOrderViolation> {
        if let Some(v) = order::on_acquire(self.name) {
            return Err(v);
        }
        let inner = recover(self.inner.write());
        order::on_acquired(self.name);
        Ok(OrderedWriteGuard {
            name: self.name,
            inner,
        })
    }
}

impl<T> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("name", &self.name)
            .finish()
    }
}

/// Shared-access RAII guard for [`OrderedRwLock`].
pub struct OrderedReadGuard<'a, T> {
    name: &'static str,
    inner: RwLockReadGuard<'a, T>,
}

impl<T> std::ops::Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> Drop for OrderedReadGuard<'_, T> {
    fn drop(&mut self) {
        order::on_release(self.name);
    }
}

impl<T> fmt::Debug for OrderedReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedReadGuard")
            .field("name", &self.name)
            .finish()
    }
}

/// Exclusive-access RAII guard for [`OrderedRwLock`].
pub struct OrderedWriteGuard<'a, T> {
    name: &'static str,
    inner: RwLockWriteGuard<'a, T>,
}

impl<T> std::ops::Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for OrderedWriteGuard<'_, T> {
    fn drop(&mut self) {
        order::on_release(self.name);
    }
}

impl<T> fmt::Debug for OrderedWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedWriteGuard")
            .field("name", &self.name)
            .finish()
    }
}

/// Spin iterations an arrival makes before it parks: about 17 µs on a
/// Xeon whose `pause` takes ~17 ns, near the cost of one park/unpark
/// round trip, so a late peer costs at most twice what parking at once
/// would. Longer budgets bought no throughput and burned the CPU time
/// that other threads on the host (the batch prefetcher) need.
const SPIN_LIMIT: u32 = 1 << 10;

/// A named, reusable barrier for `n` threads that spins, then parks.
///
/// Arrivals count up on an atomic; the last one bumps a generation
/// counter, which releases the rest. A waiter first spins on the
/// generation for a fixed budget ([`SPIN_LIMIT`] iterations), then parks
/// on a condvar; the last arrival takes the condvar's lock and notifies
/// only when some waiter has parked, so a fully spinning rendezvous makes
/// no syscall. Spinning only pays while every party can hold a core at
/// once: with more parties than `std::thread::available_parallelism()`
/// a spinner steals the core a late arrival needs, so such barriers park
/// at once.
///
/// Under `sanitize`, entering the wait while holding any ordered lock
/// records a [`ViolationKind::RendezvousWhileLocked`] hazard (a peer that
/// needs the held lock to reach this barrier would deadlock the
/// rendezvous); the wait itself always proceeds so peers are not starved
/// of the arrival.
pub struct OrderedBarrier {
    name: &'static str,
    parties: usize,
    spin: bool,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    parked: AtomicUsize,
    park: Mutex<()>,
    wake: Condvar,
}

/// What [`OrderedBarrier::wait`] returns: exactly one waiter per
/// generation is the leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierWaitResult {
    leader: bool,
}

impl BarrierWaitResult {
    /// Whether this waiter was the generation's leader (its last arrival).
    pub fn is_leader(&self) -> bool {
        self.leader
    }
}

impl OrderedBarrier {
    /// A barrier for `n` threads under the order-graph node `name`.
    pub fn new(name: &'static str, n: usize) -> Self {
        // lint: allow(determinism) — picks spin-vs-park only; no value ever depends on it
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        Self {
            name,
            parties: n,
            spin: n <= cores,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
            park: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// This barrier's order-graph name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Blocks until all `n` threads arrive; exactly one caller observes
    /// `is_leader()`.
    pub fn wait(&self) -> BarrierWaitResult {
        order::on_rendezvous(self.name);
        // The generation cannot advance before this thread arrives.
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 >= self.parties {
            // Reset before the release: a waiter that sees the new
            // generation also sees the count at zero.
            self.arrived.store(0, Ordering::Relaxed);
            // SeqCst pairs with the waiter's `parked` increment: either it
            // sees this bump or this load sees its increment.
            self.generation.fetch_add(1, Ordering::SeqCst);
            if self.parked.load(Ordering::SeqCst) > 0 {
                let _guard = recover(self.park.lock());
                self.wake.notify_all();
            }
            return BarrierWaitResult { leader: true };
        }
        if self.spin {
            for _ in 0..SPIN_LIMIT {
                if self.generation.load(Ordering::Acquire) != generation {
                    return BarrierWaitResult { leader: false };
                }
                std::hint::spin_loop();
            }
        }
        let mut guard = recover(self.park.lock());
        self.parked.fetch_add(1, Ordering::SeqCst);
        while self.generation.load(Ordering::SeqCst) == generation {
            guard = recover(self.wake.wait(guard));
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
        BarrierWaitResult { leader: false }
    }
}

impl fmt::Debug for OrderedBarrier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedBarrier")
            .field("name", &self.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_and_rwlock_pass_values_through() {
        let m = OrderedMutex::new("test.pass.m", 1u32);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.name(), "test.pass.m");

        let rw = OrderedRwLock::new("test.pass.rw", vec![1, 2]);
        rw.write().push(3);
        assert_eq!(rw.read().as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn barrier_elects_one_leader() {
        let b = Arc::new(OrderedBarrier::new("test.pass.bar", 3));
        let leaders: usize = std::thread::scope(|s| {
            (0..3)
                .map(|_| {
                    let b = Arc::clone(&b);
                    s.spawn(move || usize::from(b.wait().is_leader()))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("barrier thread"))
                .sum()
        });
        assert_eq!(leaders, 1);
    }

    /// `parties` threads cross `rounds` generations; before each crossing
    /// every thread bumps a shared count, so after it each must see
    /// exactly `round * parties` bumps, and exactly one leader per round.
    fn cross_generations(parties: usize, rounds: usize) {
        let b = OrderedBarrier::new("test.gen.bar", parties);
        let count = AtomicUsize::new(0);
        let leaders = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..parties {
                s.spawn(|| {
                    for round in 1..=rounds {
                        count.fetch_add(1, Ordering::SeqCst);
                        if b.wait().is_leader() {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                        assert_eq!(count.load(Ordering::SeqCst), round * parties);
                        // keep the next round's bumps out of this check
                        b.wait();
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::SeqCst), rounds);
    }

    #[test]
    fn barrier_reuses_generations_when_spinning() {
        cross_generations(2, 2_000);
    }

    #[test]
    fn barrier_reuses_generations_when_oversubscribed() {
        let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
        let b = OrderedBarrier::new("test.gen.park", cores + 1);
        assert!(!b.spin, "more parties than cores must park at once");
        cross_generations(cores + 3, 200);
    }

    #[test]
    fn consistent_nesting_is_silent() {
        let a = OrderedMutex::new("test.nest.a", ());
        let b = OrderedMutex::new("test.nest.b", ());
        for _ in 0..3 {
            let _ga = a.lock();
            let gb = b.lock_ordered();
            assert!(gb.is_ok(), "same-order nesting must never be flagged");
        }
        assert!(held_locks().is_empty());
    }

    #[cfg(feature = "sanitize")]
    #[test]
    fn inversion_is_refused_with_the_closing_cycle() {
        let a = OrderedMutex::new("test.inv.a", ());
        let b = OrderedMutex::new("test.inv.b", ());
        {
            let _ga = a.lock();
            let _gb = b.lock(); // learns the edge a -> b
        }
        let _gb = b.lock();
        let err = a.lock_ordered().expect_err("b-then-a closes a cycle");
        assert_eq!(err.kind, ViolationKind::Cycle);
        assert_eq!(err.acquiring, "test.inv.a");
        assert_eq!(err.held, vec!["test.inv.b"]);
        assert_eq!(err.cycle.first(), Some(&"test.inv.a"));
        assert_eq!(err.cycle.last(), Some(&"test.inv.a"));
        assert!(err.cycle.contains(&"test.inv.b"));
        assert!(err.to_string().contains("lock-order cycle"));
    }

    #[cfg(feature = "sanitize")]
    #[test]
    fn reacquiring_the_same_lock_is_a_self_cycle() {
        let a = OrderedMutex::new("test.self.a", ());
        let _g = a.lock();
        let err = a.lock_ordered().expect_err("self-deadlock");
        assert_eq!(err.cycle, vec!["test.self.a", "test.self.a"]);
    }

    #[cfg(feature = "sanitize")]
    #[test]
    fn held_stack_tracks_scopes() {
        let a = OrderedMutex::new("test.held.a", ());
        let rw = OrderedRwLock::new("test.held.rw", ());
        {
            let _ga = a.lock();
            let _gr = rw.read();
            assert_eq!(held_locks(), vec!["test.held.a", "test.held.rw"]);
        }
        assert!(held_locks().is_empty());
    }

    #[cfg(feature = "sanitize")]
    #[test]
    fn rendezvous_while_locked_is_recorded() {
        let b = OrderedBarrier::new("test.rdv.bar", 1);
        let m = OrderedMutex::new("test.rdv.m", ());
        {
            let _g = m.lock();
            b.wait();
        }
        let hazards = take_violations();
        assert!(
            hazards
                .iter()
                .any(|v| v.kind == ViolationKind::RendezvousWhileLocked
                    && v.acquiring == "test.rdv.bar"
                    && v.held == vec!["test.rdv.m"]),
            "expected a rendezvous hazard, got {hazards:?}"
        );
    }

    #[cfg(not(feature = "sanitize"))]
    #[test]
    fn disarmed_wrappers_never_flag_anything() {
        let a = OrderedMutex::new("test.off.a", ());
        let b = OrderedMutex::new("test.off.b", ());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let _gb = b.lock();
        assert!(a.lock_ordered().is_ok(), "pass-through build");
        assert!(take_violations().is_empty());
        assert!(held_locks().is_empty());
    }
}
