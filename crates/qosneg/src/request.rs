//! The unified request/session API — one entry point for every
//! negotiation variant.
//!
//! Before this module the crate grew four divergent signatures:
//! `negotiate` (live), `negotiate_future` (advance booking),
//! `negotiate_multidomain` (hierarchical) and the two baselines. A
//! [`NegotiationRequest`] now carries everything those signatures
//! threaded positionally — client, document, profile, plus per-request
//! overrides (strategy, recorder) and the retry/deadline
//! policy the concurrent broker consumes — and a [`Session`] facade
//! dispatches it:
//!
//! ```
//! use nod_qosneg::{NegotiationRequest, Session};
//! # use nod_qosneg::negotiate::NegotiationContext;
//! # fn demo(ctx: NegotiationContext<'_>, client: &nod_client::ClientMachine,
//! #         profile: &nod_qosneg::UserProfile) -> Result<(), nod_qosneg::QosError> {
//! let session = Session::new(ctx);
//! let outcome = session.submit(
//!     &NegotiationRequest::new(client, nod_mmdoc::DocumentId(1), profile),
//! )?;
//! # let _ = outcome; Ok(())
//! # }
//! ```
//!
//! The old free-function entry points have been removed; this facade is
//! the only way in.

use nod_client::ClientMachine;
use nod_mmdoc::DocumentId;
use nod_obs::Recorder;
use nod_simcore::{SimTime, StreamRng};

use crate::classify::ClassificationStrategy;
use crate::error::QosError;
use crate::future::{negotiate_future_impl, AdvanceBook, FutureOutcome};
use crate::hierarchy::{negotiate_multidomain_impl, Domain, MultiDomainConfig, MultiDomainOutcome};
use crate::negotiate::{
    negotiate_impl, NegotiationContext, NegotiationOutcome, SessionReservation,
};
use crate::profile::UserProfile;

/// Which negotiation procedure a request runs.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Procedure {
    /// The paper's full six-step procedure (the default).
    #[default]
    Smart,
    /// The static first-fit baseline: one a-priori configuration, a single
    /// capacity check.
    FirstFit,
    /// The per-monomedia baseline: each component negotiated in isolation.
    PerMonomedia,
}

/// Bounded exponential backoff with seeded jitter — how a caller (the
/// broker above all) retries a FAILEDTRYLATER session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed, the first included. 1 means no retries.
    pub max_attempts: u32,
    /// Backoff before the first retry, ms; doubles per retry.
    pub base_backoff_ms: u64,
    /// Ceiling on a single backoff, ms.
    pub max_backoff_ms: u64,
    /// Symmetric jitter fraction in `[0, 1]`: a computed backoff `b`
    /// becomes a uniform draw from `[b·(1−j), b·(1+j)]`. Jitter decorrelates
    /// retry herds — without it every session refused in the same instant
    /// retries in the same instant, and collides again.
    pub jitter: f64,
    /// Give up once this much time has passed since the first attempt, ms.
    ///
    /// The deadline is **exclusive**: a retry may only fire strictly less
    /// than `deadline_ms` after the session's arrival. A retry whose
    /// jittered backoff would land it exactly at (or past) the deadline
    /// instant is not scheduled — the session starves there and then.
    /// Attempts already in flight are never cut short; the deadline gates
    /// scheduling, not execution.
    pub deadline_ms: Option<u64>,
}

impl RetryPolicy {
    /// A single attempt, no retries — the classic `negotiate()` behavior.
    pub const NO_RETRY: RetryPolicy = RetryPolicy {
        max_attempts: 1,
        base_backoff_ms: 0,
        max_backoff_ms: 0,
        jitter: 0.0,
        deadline_ms: None,
    };

    /// A period-plausible interactive policy: up to 6 attempts, 1 s base
    /// backoff doubling to a 32 s cap, ±25% jitter, no deadline.
    pub fn era_default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_backoff_ms: 1_000,
            max_backoff_ms: 32_000,
            jitter: 0.25,
            deadline_ms: None,
        }
    }

    /// The jittered backoff before retry number `retry` (1-based: pass 1
    /// after the first refused attempt).
    ///
    /// # Panics
    /// Panics when `retry` is 0 or `jitter` is outside `[0, 1]`.
    pub fn backoff_ms(&self, retry: u32, rng: &mut StreamRng) -> u64 {
        assert!(retry >= 1, "retry numbering is 1-based");
        assert!(
            (0.0..=1.0).contains(&self.jitter),
            "jitter must be in [0,1]"
        );
        let doubling = retry.min(32) - 1;
        let raw = self
            .base_backoff_ms
            .saturating_mul(1u64.checked_shl(doubling).unwrap_or(u64::MAX))
            .min(self.max_backoff_ms);
        if self.jitter == 0.0 || raw == 0 {
            return raw;
        }
        let factor = 1.0 - self.jitter + 2.0 * self.jitter * rng.f64();
        (raw as f64 * factor).round() as u64
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::NO_RETRY
    }
}

/// One negotiation request: who wants what, under which profile, and how
/// the procedure should be tuned for this request alone.
#[derive(Clone)]
pub struct NegotiationRequest<'a> {
    /// The requesting client machine.
    pub client: &'a ClientMachine,
    /// The requested document.
    pub document: DocumentId,
    /// The user's QoS/cost/importance profile.
    pub profile: &'a UserProfile,
    /// Which procedure to run (default [`Procedure::Smart`]).
    pub procedure: Procedure,
    /// Override the session's classification strategy for this request.
    pub strategy: Option<ClassificationStrategy>,
    /// Override (or attach) an observability recorder for this request.
    pub recorder: Option<&'a Recorder>,
    /// Request decision provenance ([`crate::DecisionLog`]) on the outcome
    /// even when the session's context has it off.
    pub explain: bool,
    /// Retry/backoff/deadline policy. The synchronous [`Session::submit`]
    /// makes exactly one attempt regardless; the broker interprets the
    /// policy across virtual time.
    pub retry: RetryPolicy,
    /// Advance-booking start instant ([`Session::submit_future`] requires
    /// it; [`Session::submit`] rejects a request carrying one, so a booking
    /// cannot silently run as a live negotiation).
    pub start_at: Option<SimTime>,
}

impl<'a> NegotiationRequest<'a> {
    /// A request with every knob at its default.
    pub fn new(client: &'a ClientMachine, document: DocumentId, profile: &'a UserProfile) -> Self {
        NegotiationRequest {
            client,
            document,
            profile,
            procedure: Procedure::default(),
            strategy: None,
            recorder: None,
            explain: false,
            retry: RetryPolicy::NO_RETRY,
            start_at: None,
        }
    }

    /// Select the procedure variant.
    pub fn procedure(mut self, procedure: Procedure) -> Self {
        self.procedure = procedure;
        self
    }

    /// Override the classification strategy.
    pub fn strategy(mut self, strategy: ClassificationStrategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Attach an observability recorder.
    pub fn recorder(mut self, recorder: &'a Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Request decision provenance on the outcome.
    pub fn explain(mut self) -> Self {
        self.explain = true;
        self
    }

    /// Set the retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Set the overall deadline, ms from the first attempt.
    pub fn deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.retry.deadline_ms = Some(deadline_ms);
        self
    }

    /// Mark the request as an advance booking starting at `start`.
    pub fn start_at(mut self, start: SimTime) -> Self {
        self.start_at = Some(start);
        self
    }
}

/// The single negotiation entry point: a thin facade over a
/// [`NegotiationContext`] that dispatches [`NegotiationRequest`]s to the
/// right procedure.
#[derive(Clone, Copy)]
pub struct Session<'a> {
    ctx: NegotiationContext<'a>,
}

impl<'a> Session<'a> {
    /// A session over the shared system state.
    pub fn new(ctx: NegotiationContext<'a>) -> Self {
        Session { ctx }
    }

    /// The underlying context (request overrides are applied per-submit
    /// and never mutate it).
    pub fn context(&self) -> &NegotiationContext<'a> {
        &self.ctx
    }

    /// The context this request actually runs under: the session's, with
    /// the request's overrides applied.
    fn effective_ctx<'r>(&'r self, req: &NegotiationRequest<'r>) -> NegotiationContext<'r>
    where
        'a: 'r,
    {
        let mut ctx: NegotiationContext<'r> = self.ctx;
        if let Some(strategy) = req.strategy {
            ctx.strategy = strategy;
        }
        if let Some(recorder) = req.recorder {
            ctx.recorder = Some(recorder);
        }
        if req.explain {
            ctx.explain = true;
        }
        ctx
    }

    /// Run one live negotiation attempt (steps 1–5) for the request.
    ///
    /// Rejects advance-booking requests (`start_at` set) — those go
    /// through [`Session::submit_future`].
    pub fn submit<'r>(
        &'r self,
        req: &NegotiationRequest<'r>,
    ) -> Result<NegotiationOutcome, QosError> {
        if req.start_at.is_some() {
            return Err(QosError::InvalidRequest(
                "request has a start_at: advance bookings go through submit_future".into(),
            ));
        }
        let ctx = self.effective_ctx(req);
        let result = match req.procedure {
            Procedure::Smart => negotiate_impl(&ctx, req.client, req.document, req.profile),
            Procedure::FirstFit => crate::baseline::negotiate_static_first_fit_impl(
                &ctx,
                req.client,
                req.document,
                req.profile,
            ),
            Procedure::PerMonomedia => crate::baseline::negotiate_per_monomedia_impl(
                &ctx,
                req.client,
                req.document,
                req.profile,
            ),
        };
        result.map_err(QosError::from)
    }

    /// Run the request as an advance booking against `book` (steps 1–4
    /// live, step 5 over the window ledgers). Requires `start_at`; only
    /// [`Procedure::Smart`] supports advance booking.
    pub fn submit_future<'r>(
        &'r self,
        req: &NegotiationRequest<'r>,
        book: &mut AdvanceBook,
    ) -> Result<FutureOutcome, QosError> {
        let start = req.start_at.ok_or_else(|| {
            QosError::InvalidRequest("advance negotiation requires start_at".into())
        })?;
        if req.procedure != Procedure::Smart {
            return Err(QosError::InvalidRequest(
                "advance booking supports only the smart procedure".into(),
            ));
        }
        let ctx = self.effective_ctx(req);
        negotiate_future_impl(&ctx, book, req.client, req.document, req.profile, start)
            .map_err(QosError::from)
    }

    /// Run the request hierarchically across `domains` (home first, then
    /// peers with transit surcharge). An associated function because each
    /// domain owns its own farm/network — there is no single context to
    /// hold a session over. The request's strategy override, when set,
    /// replaces the shared config's. A `home` that does not index
    /// `domains` is [`QosError::InvalidRequest`].
    pub fn submit_multidomain(
        domains: &[Domain],
        home: usize,
        req: &NegotiationRequest<'_>,
        config: &MultiDomainConfig<'_>,
    ) -> Result<MultiDomainOutcome, QosError> {
        if req.procedure != Procedure::Smart {
            return Err(QosError::InvalidRequest(
                "multi-domain negotiation supports only the smart procedure".into(),
            ));
        }
        if home >= domains.len() {
            return Err(QosError::InvalidRequest(format!(
                "home domain {home} out of range: {} domains",
                domains.len()
            )));
        }
        let mut cfg = *config;
        if let Some(strategy) = req.strategy {
            cfg.strategy = strategy;
        }
        negotiate_multidomain_impl(domains, home, req.client, req.document, req.profile, &cfg)
            .map_err(QosError::from)
    }

    /// Release a reservation back to the session's farm and network.
    pub fn release(&self, reservation: &SessionReservation) {
        reservation.release(self.ctx.farm, self.ctx.network);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_caps_and_jitters_within_bounds() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff_ms: 1_000,
            max_backoff_ms: 8_000,
            jitter: 0.0,
            deadline_ms: None,
        };
        let mut rng = StreamRng::new(7);
        assert_eq!(policy.backoff_ms(1, &mut rng), 1_000);
        assert_eq!(policy.backoff_ms(2, &mut rng), 2_000);
        assert_eq!(policy.backoff_ms(3, &mut rng), 4_000);
        assert_eq!(policy.backoff_ms(4, &mut rng), 8_000);
        assert_eq!(policy.backoff_ms(5, &mut rng), 8_000, "capped");

        let jittered = RetryPolicy {
            jitter: 0.25,
            ..policy
        };
        for retry in 1..=6 {
            let raw = policy.backoff_ms(retry, &mut rng);
            let b = jittered.backoff_ms(retry, &mut rng);
            let lo = (raw as f64 * 0.75).floor() as u64;
            let hi = (raw as f64 * 1.25).ceil() as u64;
            assert!(
                (lo..=hi).contains(&b),
                "retry {retry}: {b} not in [{lo},{hi}]"
            );
        }
    }

    #[test]
    fn backoff_is_deterministic_under_a_seed() {
        let policy = RetryPolicy::era_default();
        let a: Vec<u64> = {
            let mut rng = StreamRng::new(42);
            (1..=5).map(|r| policy.backoff_ms(r, &mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = StreamRng::new(42);
            (1..=5).map(|r| policy.backoff_ms(r, &mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn huge_retry_counts_do_not_overflow() {
        let policy = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff_ms: u64::MAX / 2,
            max_backoff_ms: u64::MAX,
            jitter: 0.0,
            deadline_ms: None,
        };
        let mut rng = StreamRng::new(1);
        // Shift saturates instead of overflowing.
        assert_eq!(policy.backoff_ms(64, &mut rng), u64::MAX);
    }
}
