//! The evaluation-fabric seam: how candidate evaluation rides an
//! external worker pool.
//!
//! `pax-serve` owns the production worker pool (sharded, work-stealing,
//! backpressured); this crate owns the evaluator. The two meet through
//! [`EvalFabric`], a minimal submit-only trait defined *here* so the
//! dependency keeps pointing one way (`pax-serve` depends on
//! `pax-core`, never the reverse): the serve engine's per-study tenant
//! handle implements it, and
//! [`Evaluator::with_fabric`](super::Evaluator::with_fabric) routes
//! every fresh evaluation through whatever implementation it is given.
//!
//! A [`FabricJob`] is a fully-owned unit of work — the evaluator ships
//! each candidate as a closure over an `Arc`'d owned context (overlay,
//! pruning analysis and session pool), so jobs are `'static` and the
//! pool's long-lived worker threads can run them without borrowing the
//! study's stack. The evaluator's own scoped workers run the very same
//! jobs when no fabric is attached. Completion is signalled by the job itself (the
//! evaluator's jobs send their result over a channel); a dropped,
//! never-run job therefore surfaces as a closed channel, which the
//! evaluator reports as [`FabricError::Cancelled`] instead of hanging.

/// One fully-owned unit of batch work submitted to a fabric.
pub type FabricJob = Box<dyn FnOnce() + Send + 'static>;

/// Why a fabric could not take (or finish) a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// The fabric is shutting down; the job was not accepted.
    Shutdown,
    /// The study's tenant was unregistered (or its queue torn down)
    /// while jobs were still queued or in flight.
    Cancelled,
    /// The tenant's evaluation budget is spent; the fabric refuses
    /// further jobs until the tenant re-registers with a fresh budget.
    BudgetExhausted {
        /// The budget that was configured (in jobs).
        budget: u64,
    },
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::Shutdown => write!(f, "fabric is shutting down"),
            FabricError::Cancelled => write!(f, "fabric dropped queued jobs (tenant torn down)"),
            FabricError::BudgetExhausted { budget } => {
                write!(f, "tenant budget of {budget} jobs is exhausted")
            }
        }
    }
}

impl std::error::Error for FabricError {}

/// An external batch-execution pool candidate evaluation can ride.
///
/// Implementations accept fully-owned jobs and run each exactly once on
/// some worker thread, in any order and with any parallelism. `submit`
/// may block on backpressure (a bounded tenant queue) but must
/// eventually either accept the job or return a typed refusal — it must
/// never silently drop an accepted job while the fabric is healthy.
/// Jobs still queued when the fabric (or the submitting tenant) tears
/// down may be dropped unrun; submitters detect that through their own
/// completion channels.
pub trait EvalFabric: Send + Sync + std::fmt::Debug {
    /// Enqueues one job, blocking on backpressure until the fabric
    /// accepts it.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::Shutdown`] when the pool is tearing down,
    /// [`FabricError::Cancelled`] when the tenant was unregistered, and
    /// [`FabricError::BudgetExhausted`] when the tenant's job budget is
    /// spent.
    fn submit(&self, job: FabricJob) -> Result<(), FabricError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_cause() {
        assert!(FabricError::Shutdown.to_string().contains("shutting down"));
        assert!(FabricError::Cancelled.to_string().contains("dropped"));
        assert!(FabricError::BudgetExhausted { budget: 7 }.to_string().contains('7'));
    }

    #[test]
    fn inline_fabric_runs_jobs() {
        /// The degenerate fabric: runs every job on the submitting
        /// thread. Useful as the trait's smallest contract check.
        #[derive(Debug)]
        struct Inline;
        impl EvalFabric for Inline {
            fn submit(&self, job: FabricJob) -> Result<(), FabricError> {
                job();
                Ok(())
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        Inline.submit(Box::new(move || tx.send(41 + 1).unwrap())).unwrap();
        assert_eq!(rx.recv().unwrap(), 42);
    }
}
