//! Retry policy over the logical clock: exponential backoff with
//! deterministic jitter, and the circuit breaker that takes over when
//! backing off is not enough.
//!
//! Both users — the download module's per-assignment CDN fetches and the
//! sharded store client's per-shard requests — sit above this crate, so
//! the one implementation lives here, next to the [`SimTime`] it runs on
//! and the [`SimRng`] it draws jitter from.

use crate::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// `base * 2^min(attempt-1, 10)` plus a uniform jitter in `[0, base)`
/// drawn from the caller's dedicated retry stream (one draw per call).
pub fn backoff_delay(base: SimDuration, attempt: u32, rng: &mut SimRng) -> SimDuration {
    let shift = attempt.saturating_sub(1).min(10);
    let scaled = base.as_micros().saturating_mul(1u64 << shift);
    SimDuration::from_micros(scaled + rng.below(base.as_micros().max(1)))
}

/// Observable state of a circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are rejected until the cooldown elapses.
    Open,
    /// Cooled down: exactly one probe request may pass; its outcome
    /// closes or re-opens the breaker.
    HalfOpen,
}

/// A circuit breaker over a logical clock: a streak of consecutive
/// faults opens it for a cooldown, after which a single half-open probe
/// decides between closing it again and another full cooldown.
///
/// The breaker holds state only — the threshold and cooldown are the
/// caller's constants, passed to [`Breaker::record_fault`] — so a
/// serialized breaker (the download cursor persists one per assignment)
/// carries nothing a restart could find stale.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Breaker {
    faults: u32,
    open_until: Option<SimTime>,
    probing: bool,
}

impl Breaker {
    /// The state an observer at `now` would see.
    pub fn state(&self, now: SimTime) -> BreakerState {
        match self.open_until {
            Some(t) if now < t => BreakerState::Open,
            Some(_) => BreakerState::HalfOpen,
            None if self.probing => BreakerState::HalfOpen,
            None => BreakerState::Closed,
        }
    }

    /// May a request pass at `now`? Crossing an elapsed cooldown
    /// converts the breaker to half-open and admits the probe.
    pub fn allows(&mut self, now: SimTime) -> bool {
        match self.open_until {
            Some(t) if now < t => false,
            Some(_) => {
                self.open_until = None;
                self.probing = true;
                true
            }
            None => true,
        }
    }

    /// The guarded host answered: close fully and clear the streak.
    pub fn record_success(&mut self) {
        *self = Breaker::default();
    }

    /// The guarded host faulted at `now`. A faulted half-open probe
    /// re-opens immediately; otherwise `threshold` consecutive faults
    /// open the breaker. Either way it stays open for `cooldown`.
    pub fn record_fault(
        &mut self,
        now: SimTime,
        threshold: u32,
        cooldown: SimDuration,
    ) -> BreakerState {
        if !self.probing {
            self.faults += 1;
            if self.faults < threshold {
                return BreakerState::Closed;
            }
        }
        self.faults = 0;
        self.probing = false;
        self.open_until = Some(now + cooldown);
        BreakerState::Open
    }

    /// Consecutive faults since the last success or trip — the attempt
    /// number a caller that stays closed feeds to [`backoff_delay`].
    pub fn fault_streak(&self) -> u32 {
        self.faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const THRESHOLD: u32 = 3;
    const COOLDOWN: SimDuration = SimDuration::from_millis(100);

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let mut b = Breaker::default();
        let t0 = SimTime::from_mins(10);
        assert_eq!(b.state(t0), BreakerState::Closed);
        // A success on an ordinary request clears the streak: two faults,
        // a success, and two more faults never reach the threshold.
        for _ in 0..2 {
            for streak in 1..THRESHOLD {
                assert!(b.allows(t0));
                assert_eq!(
                    b.record_fault(t0, THRESHOLD, COOLDOWN),
                    BreakerState::Closed
                );
                assert_eq!(b.fault_streak(), streak);
            }
            b.record_success();
            assert_eq!(b.fault_streak(), 0);
        }
        // Faults below the threshold stay closed; the threshold-th opens.
        for _ in 1..THRESHOLD {
            b.record_fault(t0, THRESHOLD, COOLDOWN);
        }
        assert_eq!(b.state(t0), BreakerState::Closed);
        assert!(b.allows(t0));
        assert_eq!(b.record_fault(t0, THRESHOLD, COOLDOWN), BreakerState::Open);
        assert_eq!(b.state(t0), BreakerState::Open);
        // Open: stray requests before the cooldown edge are refused.
        let t1 = t0 + COOLDOWN;
        assert!(!b.allows(t0), "open breaker rejects");
        assert!(!b.allows(t0 + SimDuration::from_micros(1)));
        assert!(!b.allows(t1 - SimDuration::from_micros(1)));
        // Cooldown elapses → half-open, the probe is admitted.
        assert_eq!(b.state(t1), BreakerState::HalfOpen);
        assert!(b.allows(t1), "half-open admits the probe");
        assert_eq!(b.state(t1), BreakerState::HalfOpen);
        // Successful probe closes it and clears the streak.
        b.record_success();
        assert_eq!(b.state(t1), BreakerState::Closed);
        assert_eq!(b.fault_streak(), 0);
        // Closed again: a single fresh fault does not trip.
        assert!(b.allows(t1));
        assert_eq!(
            b.record_fault(t1, THRESHOLD, COOLDOWN),
            BreakerState::Closed
        );
    }

    #[test]
    fn breaker_failed_probe_reopens() {
        let mut b = Breaker::default();
        let t0 = SimTime::from_mins(5);
        for _ in 0..THRESHOLD {
            assert!(b.allows(t0));
            b.record_fault(t0, THRESHOLD, COOLDOWN);
        }
        let t1 = t0 + COOLDOWN;
        assert!(b.allows(t1), "probe admitted at the cooldown edge");
        // The half-open probe fails → straight back to open on one
        // fault, not a fresh threshold's worth, for a full cooldown.
        assert_eq!(b.record_fault(t1, THRESHOLD, COOLDOWN), BreakerState::Open);
        assert_eq!(b.state(t1), BreakerState::Open);
        assert!(!b.allows(t1));
        assert!(!b.allows(t1 + SimDuration::from_millis(30)));
        let t2 = t1 + COOLDOWN;
        assert_eq!(b.state(t2), BreakerState::HalfOpen);
    }

    proptest! {
        #[test]
        fn backoff_is_bounded_and_seed_deterministic(
            attempt in 1u32..41,
            base_us in 1u64..5_000_000,
            seed in any::<u64>(),
        ) {
            let base = SimDuration::from_micros(base_us);
            let floor = base_us * (1u64 << (attempt - 1).min(10));
            let delay = backoff_delay(base, attempt, &mut SimRng::new(seed));
            prop_assert!(delay.as_micros() >= floor);
            prop_assert!(delay.as_micros() < floor + base_us);
            // Equal seeds give equal draws.
            prop_assert_eq!(delay, backoff_delay(base, attempt, &mut SimRng::new(seed)));
        }
    }
}
