//! Job identity, lifecycle state, and status reporting.
//!
//! A [`Job`] is one submitted optimization run: the wire spec, the boxed
//! engine built from it, its stopping rule, and the counters the
//! scheduler maintains across slices. Jobs move through the
//! [`JobState`] lifecycle `Queued → Running → {Done, Cancelled, Failed,
//! Poisoned}`; terminal states are never left.
//!
//! `Failed` and `Poisoned` split the crash space: a slice failure
//! (panic, watchdog stall) is *not* terminal while the job has retry
//! budget left — the scheduler resurrects the job from its last good
//! snapshot with exponential backoff. Only when the budget is exhausted
//! does the job land in `Poisoned`: quarantined, visible in `GET /jobs`,
//! and never scheduled again. `Failed` remains for jobs that cannot be
//! resurrected at all (e.g. a spool record whose engine can no longer
//! be rebuilt).

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pga_core::erased::BoxedEngine;
use pga_core::termination::{StopReason, Termination};
use pga_observe::JsonlStream;

use crate::protocol::{JobSpec, Json};

/// Opaque job identifier, rendered as `j<n>` on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "j{}", self.0)
    }
}

impl FromStr for JobId {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.strip_prefix('j')
            .and_then(|n| n.parse::<u64>().ok())
            .map(JobId)
            .ok_or(())
    }
}

/// Where a job is in its lifecycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for its tenant's next scheduling turn.
    Queued,
    /// Has received at least one slice and is not yet finished.
    Running,
    /// Terminated normally with the recorded stop reason.
    Done(StopReason),
    /// Cancelled by the client before completion.
    Cancelled,
    /// The engine panicked during a slice; the message is retained.
    Failed(String),
    /// The job exhausted its retry budget: every resurrection attempt
    /// crashed again. Quarantined — never scheduled again, never takes
    /// the pool down. The message records the final crash.
    Poisoned(String),
}

impl JobState {
    /// `true` once the job can no longer be scheduled.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            Self::Done(_) | Self::Cancelled | Self::Failed(_) | Self::Poisoned(_)
        )
    }

    /// Wire name of the state.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Done(_) => "done",
            Self::Cancelled => "cancelled",
            Self::Failed(_) => "failed",
            Self::Poisoned(_) => "poisoned",
        }
    }
}

/// Stable wire name for a [`StopReason`].
#[must_use]
pub fn stop_reason_name(reason: StopReason) -> &'static str {
    match reason {
        StopReason::MaxGenerations => "max_generations",
        StopReason::MaxEvaluations => "max_evaluations",
        StopReason::TargetReached => "target_reached",
        StopReason::Stagnation => "stagnation",
        StopReason::WallClock => "wall_clock",
        StopReason::MaxCost => "max_cost",
        StopReason::Halted => "halted",
        StopReason::IslandLost => "island_lost",
    }
}

/// Parses a wire name back into a [`StopReason`] (spool round-trip).
#[must_use]
pub fn stop_reason_from_name(name: &str) -> Option<StopReason> {
    Some(match name {
        "max_generations" => StopReason::MaxGenerations,
        "max_evaluations" => StopReason::MaxEvaluations,
        "target_reached" => StopReason::TargetReached,
        "stagnation" => StopReason::Stagnation,
        "wall_clock" => StopReason::WallClock,
        "max_cost" => StopReason::MaxCost,
        "halted" => StopReason::Halted,
        "island_lost" => StopReason::IslandLost,
        _ => return None,
    })
}

/// Progress counters mirrored out of the engine after every slice, so
/// status queries never need to touch the engine (which may be out on a
/// worker thread mid-slice).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct JobProgress {
    /// Completed steps (generations / sweeps / epochs).
    pub generations: u64,
    /// Fitness evaluations consumed.
    pub evaluations: u64,
    /// Best fitness seen so far.
    pub best_fitness: f64,
    /// `true` when the best equals the problem's known optimum.
    pub best_is_optimal: bool,
}

/// One submitted optimization run and everything the scheduler tracks
/// about it.
pub struct Job {
    /// Identity.
    pub id: JobId,
    /// The wire spec it was built from (kept verbatim for the spool).
    pub spec: JobSpec,
    /// Stopping rule derived from the spec's budget.
    pub termination: Termination,
    /// The boxed engine; `None` while a slice is executing on the pool,
    /// and dropped once the job reaches a terminal state.
    pub engine: Option<BoxedEngine>,
    /// Lifecycle state.
    pub state: JobState,
    /// Slices granted so far.
    pub slices: u64,
    /// Engine steps executed so far.
    pub steps: u64,
    /// Active scheduler time consumed (sum of slice durations); this is
    /// the job's wall-clock budget base, so multi-tenant queueing does
    /// not eat a job's time budget.
    pub consumed: Duration,
    /// Last observed progress, for lock-free-ish status reads.
    pub progress: JobProgress,
    /// Cooperative cancel flag, checked between steps inside a slice.
    pub cancel: Arc<AtomicBool>,
    /// JSONL event stream served by `GET /jobs/:id/events`.
    pub stream: JsonlStream,
    /// Resurrections consumed so far (0 until the first crash).
    pub retries: u64,
    /// Backoff gate: the job is not schedulable before this instant.
    pub not_before: Option<Instant>,
    /// Last good engine snapshot (`Snapshot::to_bytes`), encoded once
    /// per slice on the worker and shared with that slice's spool record.
    /// This is the resurrection source, and still available when the
    /// spool is degraded. Dropped once the job is terminal.
    pub resume_from: Option<Arc<[u8]>>,
}

impl Job {
    /// Creates a freshly admitted job.
    #[must_use]
    pub fn new(
        id: JobId,
        spec: JobSpec,
        termination: Termination,
        engine: BoxedEngine,
        stream: JsonlStream,
    ) -> Self {
        Self {
            id,
            spec,
            termination,
            engine: Some(engine),
            state: JobState::Queued,
            slices: 0,
            steps: 0,
            consumed: Duration::ZERO,
            progress: JobProgress::default(),
            cancel: Arc::new(AtomicBool::new(false)),
            stream,
            retries: 0,
            not_before: None,
            resume_from: None,
        }
    }

    /// Creates an engine-less terminal job: a spool record whose run is
    /// already over (or can no longer be resurrected), kept so that
    /// `GET /jobs/:id` stays answerable across restarts. `state` must
    /// be terminal.
    #[must_use]
    pub fn tombstone(
        id: JobId,
        spec: JobSpec,
        termination: Termination,
        state: JobState,
        stream: JsonlStream,
    ) -> Self {
        debug_assert!(state.is_terminal());
        Self {
            id,
            spec,
            termination,
            engine: None,
            state,
            slices: 0,
            steps: 0,
            consumed: Duration::ZERO,
            progress: JobProgress::default(),
            cancel: Arc::new(AtomicBool::new(false)),
            stream,
            retries: 0,
            not_before: None,
            resume_from: None,
        }
    }

    /// `true` when the backoff gate currently blocks scheduling.
    #[must_use]
    pub fn backoff_pending(&self, now: Instant) -> bool {
        self.not_before.is_some_and(|t| t > now)
    }

    /// Requests cooperative cancellation (takes effect at the next
    /// step boundary).
    pub fn request_cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }

    /// `true` when cancellation has been requested.
    #[must_use]
    pub fn cancel_requested(&self) -> bool {
        self.cancel.load(Ordering::Acquire)
    }

    /// Status document for `GET /jobs/:id`.
    #[must_use]
    pub fn status_json(&self) -> Json {
        let mut fields = vec![
            ("id".to_string(), Json::Str(self.id.to_string())),
            ("tenant".to_string(), Json::Str(self.spec.tenant.clone())),
            ("state".to_string(), Json::Str(self.state.name().into())),
        ];
        match &self.state {
            JobState::Done(reason) => fields.push((
                "stop_reason".into(),
                Json::Str(stop_reason_name(*reason).into()),
            )),
            JobState::Failed(message) | JobState::Poisoned(message) => {
                fields.push(("error".into(), Json::Str(message.clone())));
            }
            _ => {}
        }
        fields.extend([
            (
                "problem".to_string(),
                Json::Str(self.spec.problem.name().into()),
            ),
            (
                "family".to_string(),
                Json::Str(self.spec.engine.family().into()),
            ),
            ("seed".to_string(), Json::Num(self.spec.seed as f64)),
            (
                "generations".to_string(),
                Json::Num(self.progress.generations as f64),
            ),
            (
                "evaluations".to_string(),
                Json::Num(self.progress.evaluations as f64),
            ),
            (
                "best_fitness".to_string(),
                Json::Num(self.progress.best_fitness),
            ),
            (
                "best_is_optimal".to_string(),
                Json::Bool(self.progress.best_is_optimal),
            ),
            ("slices".to_string(), Json::Num(self.slices as f64)),
            ("steps".to_string(), Json::Num(self.steps as f64)),
            ("retries".to_string(), Json::Num(self.retries as f64)),
            (
                "consumed_ms".to_string(),
                Json::Num(self.consumed.as_secs_f64() * 1e3),
            ),
        ]);
        Json::Obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_ids_roundtrip_their_wire_form() {
        for n in [0u64, 1, 7, 12345] {
            let id = JobId(n);
            assert_eq!(id.to_string().parse::<JobId>(), Ok(id));
        }
        assert!("x7".parse::<JobId>().is_err());
        assert!("j".parse::<JobId>().is_err());
        assert!("j-1".parse::<JobId>().is_err());
    }

    #[test]
    fn stop_reasons_roundtrip_their_wire_names() {
        for reason in [
            StopReason::MaxGenerations,
            StopReason::MaxEvaluations,
            StopReason::TargetReached,
            StopReason::Stagnation,
            StopReason::WallClock,
            StopReason::MaxCost,
            StopReason::Halted,
            StopReason::IslandLost,
        ] {
            assert_eq!(
                stop_reason_from_name(stop_reason_name(reason)),
                Some(reason)
            );
        }
        assert_eq!(stop_reason_from_name("nope"), None);
    }

    #[test]
    fn terminal_states_are_terminal() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Done(StopReason::MaxGenerations).is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(JobState::Failed("boom".into()).is_terminal());
        assert!(JobState::Poisoned("boom x3".into()).is_terminal());
        assert_eq!(JobState::Poisoned("boom".into()).name(), "poisoned");
    }
}
