//! Panic-safe output flushing for the experiment binaries.
//!
//! The run binaries write their metrics snapshots, trace logs and
//! Prometheus expositions *after* the run completes — which means a
//! panic mid-run (an assertion in the broker, a capacity-audit trip)
//! loses every byte of telemetry collected up to that point, exactly
//! when it is most needed. [`FlushGuard`] closes that hole: it holds a
//! flush closure and runs it on drop, and drops happen during unwinding
//! too. A binary arms the guard as soon as its sinks exist, writes its
//! outputs normally at the end, then [`disarm`](FlushGuard::disarm)s so
//! the partial-flush path only fires when the normal path did not run.

/// Runs a flush closure on drop — including the drop that happens while
/// a panic unwinds — unless [`disarm`](Self::disarm)ed first.
pub struct FlushGuard {
    hook: Option<Box<dyn FnOnce()>>,
}

impl FlushGuard {
    /// Arm a guard with the flush action to run if the scope unwinds
    /// (or otherwise exits) before [`disarm`](Self::disarm) is called.
    pub fn new(hook: impl FnOnce() + 'static) -> Self {
        FlushGuard {
            hook: Some(Box::new(hook)),
        }
    }

    /// Disarm the guard: the normal output path has run, so the
    /// emergency flush must not.
    pub fn disarm(&mut self) {
        self.hook = None;
    }
}

impl Drop for FlushGuard {
    fn drop(&mut self) {
        if let Some(hook) = self.hook.take() {
            hook();
        }
    }
}

impl std::fmt::Debug for FlushGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlushGuard")
            .field("armed", &self.hook.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::rc::Rc;

    #[test]
    fn flushes_on_panic_unwind() {
        let flushed = Rc::new(Cell::new(0));
        let seen = flushed.clone();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _guard = FlushGuard::new(move || {
                seen.set(seen.get() + 1);
            });
            panic!("mid-run failure");
        }));
        assert!(result.is_err());
        assert_eq!(
            flushed.get(),
            1,
            "the guard must flush while the panic unwinds"
        );
    }

    #[test]
    fn disarm_suppresses_the_flush() {
        let flushed = Rc::new(Cell::new(0));
        let seen = flushed.clone();
        {
            let mut guard = FlushGuard::new(move || {
                seen.set(seen.get() + 1);
            });
            guard.disarm();
        }
        assert_eq!(flushed.get(), 0);
    }

    #[test]
    fn plain_drop_flushes_once() {
        let flushed = Rc::new(Cell::new(0));
        let seen = flushed.clone();
        drop(FlushGuard::new(move || {
            seen.set(seen.get() + 1);
        }));
        assert_eq!(flushed.get(), 1);
    }
}
