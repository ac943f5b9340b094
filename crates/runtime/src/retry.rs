//! Retry policies for supervised finish scopes
//! (`Runtime::finish_supervised`).
//!
//! Rank recovery itself — crash points, checkpoint restore, epoch restart
//! and the per-rank circuit breaker — lives in the simulated cluster
//! (`hiper-netsim`'s supervise harness), which owns the endpoints. The
//! runtime only decides whether a failed scope runs again.

use std::time::Duration;

use crate::promise::TaskError;

/// Which task failures a supervised scope re-executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryOn {
    /// Only failures classified transient (see [`TaskError::is_transient`]):
    /// unreachable peers, timeouts, rank-down windows. Deterministic bugs
    /// (assertion failures, index panics) surface immediately.
    Transient,
    /// Any scope failure. Useful when the body is known idempotent and the
    /// failure source is external.
    Any,
}

/// Retry policy for `Runtime::finish_supervised` /
/// `api::finish_supervised`: the per-scope retry budget plus backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total executions allowed, including the first (so 1 = no retry).
    pub max_attempts: u32,
    /// Base delay before a retry; attempt `n`'s delay is `backoff * n`
    /// (linear — failures here are rank recoveries measured in modeled
    /// milliseconds, not remote-service rate limits).
    pub backoff: Duration,
    /// Failure classification filter.
    pub retry_on: RetryOn,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(1),
            retry_on: RetryOn::Transient,
        }
    }
}

impl RetryPolicy {
    /// A policy retrying any failure up to `max_attempts` with no backoff.
    pub fn any(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            backoff: Duration::ZERO,
            retry_on: RetryOn::Any,
        }
    }

    /// A policy retrying transient failures up to `max_attempts`.
    pub fn transient(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        }
    }

    /// Builder-style backoff override.
    pub fn with_backoff(mut self, backoff: Duration) -> RetryPolicy {
        self.backoff = backoff;
        self
    }

    /// Whether a failure on execution `attempt` (1-based) warrants another
    /// try under this policy.
    pub fn should_retry(&self, attempt: u32, err: &TaskError) -> bool {
        if attempt >= self.max_attempts {
            return false;
        }
        match self.retry_on {
            RetryOn::Any => true,
            RetryOn::Transient => err.is_transient(),
        }
    }

    /// Delay before retrying after a failed execution `attempt` (1-based).
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        self.backoff.saturating_mul(attempt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_policy_classification() {
        let p = RetryPolicy::transient(3);
        let transient = TaskError::new("module shmem: peer 1 unreachable");
        let hard = TaskError::new("index out of bounds");
        assert!(p.should_retry(1, &transient));
        assert!(p.should_retry(2, &transient));
        assert!(!p.should_retry(3, &transient)); // budget spent
        assert!(!p.should_retry(1, &hard));
        assert!(RetryPolicy::any(2).should_retry(1, &hard));
        assert_eq!(
            RetryPolicy::default()
                .with_backoff(Duration::from_millis(2))
                .backoff_for(3),
            Duration::from_millis(6)
        );
    }
}
