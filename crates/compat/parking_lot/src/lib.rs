//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to crates.io, so this vendored
//! shim provides the (small) subset of `parking_lot`'s API the workspace
//! uses — `Mutex` and `RwLock` with guard-returning lock methods —
//! implemented over `std::sync`. Semantics match `parking_lot` for every
//! call site in this repo: a panicked holder does not poison the lock for
//! later users.
//!
//! In debug builds every acquisition (`lock`, a successful `try_lock`,
//! `read`, `write`) bumps a per-thread counter that [`acquisitions`]
//! reads, so a test can pin how many locks a code path takes, the way a
//! counting allocator pins its allocations. Release builds count nothing.

#[cfg(debug_assertions)]
use std::cell::Cell;
use std::fmt;
use std::ops::{Deref, DerefMut};

// ---------------------------------------------------------------------
// Acquisition counting (debug builds)
// ---------------------------------------------------------------------

#[cfg(debug_assertions)]
thread_local! {
    static TAKEN: Cell<u64> = const { Cell::new(0) };
}

/// Counts one acquisition on this thread (a no-op in release builds).
#[inline]
fn taken() {
    // `try_with`: a lock taken during thread teardown is not counted.
    #[cfg(debug_assertions)]
    let _ = TAKEN.try_with(|n| n.set(n.get() + 1));
}

/// The locks this thread has acquired so far, every `Mutex` and `RwLock`
/// of this crate together. Debug builds only: release builds keep no
/// count.
#[cfg(debug_assertions)]
pub fn acquisitions() -> u64 {
    TAKEN.with(Cell::get)
}

// ---------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------

/// A mutual-exclusion lock whose `lock` returns the guard directly.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized>(std::sync::MutexGuard<'a, T>);

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, ignoring poisoning (parking_lot has none).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        taken();
        MutexGuard(self.0.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Tries to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = match self.0.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        taken();
        Some(MutexGuard(guard))
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

// ---------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------

/// A reader-writer lock whose `read`/`write` return guards directly.
#[derive(Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

/// Shared-access guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized>(std::sync::RwLockReadGuard<'a, T>);

/// Exclusive-access guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized>(std::sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        taken();
        RwLockReadGuard(self.0.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Acquires exclusive access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        taken();
        RwLockWriteGuard(self.0.write().unwrap_or_else(|e| e.into_inner()))
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic_and_unpoisoned() {
        let m = Arc::new(Mutex::new(0u32));
        *m.lock() += 5;
        assert_eq!(*m.lock(), 5);
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // parking_lot semantics: no poisoning.
        assert_eq!(*m.lock(), 5);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(r1.len() + r2.len(), 4);
        }
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn acquisitions_count_this_threads_locks() {
        let (m, l) = (Mutex::new(0), RwLock::new(0));
        let before = acquisitions();
        drop(m.lock());
        drop(m.try_lock());
        let held = m.lock();
        assert!(m.try_lock().is_none(), "a failed try_lock takes nothing");
        drop(held);
        drop(l.read());
        drop(l.write());
        assert_eq!(acquisitions() - before, 5);
        let other = std::thread::spawn(acquisitions).join().unwrap();
        assert_eq!(other, 0, "each thread counts its own");
    }
}
