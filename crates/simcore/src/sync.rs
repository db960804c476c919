//! Minimal `parking_lot`-style synchronization on top of `std::sync`.
//!
//! The reservation tables in `nod-cmfs` and `nod-netsim` were written
//! against `parking_lot::Mutex`, whose `lock()` returns the guard directly
//! (no poisoning `Result`). This shim preserves that API over
//! `std::sync::Mutex` so the workspace carries no external dependency: a
//! poisoned lock is recovered by taking the inner guard, which matches
//! `parking_lot`'s no-poisoning semantics (the state protected here is a
//! reservation table that stays consistent under panic-unwind because every
//! mutation is a single insert/remove).

use std::fmt;
use std::sync::MutexGuard;

/// A mutual-exclusion lock whose `lock()` never returns a poisoning error.
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A new lock around `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquire the lock, recovering from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Mutable access without locking (requires exclusive access).
    pub fn get_mut(&mut self) -> &mut T {
        self.0
            .get_mut()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.try_lock() {
            Ok(guard) => f.debug_tuple("Mutex").field(&&*guard).finish(),
            Err(_) => f.write_str("Mutex(<locked>)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = std::sync::Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the lock");
        })
        .join();
        *m.lock() = 7;
        assert_eq!(*m.lock(), 7);
    }
}
