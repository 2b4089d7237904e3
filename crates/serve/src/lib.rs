//! # pga-serve
//!
//! Multi-tenant **GA-as-a-service**: a zero-dependency HTTP/1.1 + JSONL
//! job server over the workspace's type-erased [`Engine`] runtime.
//!
//! Clients `POST` an optimization job — benchmark problem, engine
//! family, RNG seed, and a bounded budget — and the server multiplexes
//! *many heterogeneous jobs concurrently* on the one persistent
//! work-stealing pool the engines themselves evaluate fitness on. This
//! is the survey's "computing trends" endpoint taken literally: the
//! same PGA engine families, consumed as a service instead of a binary.
//!
//! Problems and families resolve through *registries*
//! ([`ProblemRegistry`]/[`FamilyRegistry`], see [`Registries`]): each
//! wire name maps to a validated constructor, the protocol layer
//! validates specs against the same table engines are later built from,
//! and `GET /families` lists whatever is registered. All seven stock
//! families — `ga`, `steady`, `cellular`, `island`, `async-steady`,
//! `cga`, `pcga` — are one registration call each; so is yours.
//!
//! The subsystem stacks six layers, each its own module:
//!
//! | Module | Responsibility |
//! |---|---|
//! | [`protocol`] | wire DTOs ([`JobSpec`] et al.) + a minimal JSON codec |
//! | [`factory`] | [`ProblemRegistry`]/[`FamilyRegistry`]: spec → [`BoxedEngine`](pga_core::erased::BoxedEngine) |
//! | [`job`] | job identity, lifecycle, status documents |
//! | [`scheduler`] | slice scheduling, DRR fairness, admission, recovery |
//! | [`spool`] | per-slice crash-safe checkpoints (append-only log of PGAS records) |
//! | [`http`] | the HTTP/1.1 endpoint surface |
//! | [`metrics`] | `GET /metrics` plain-text rendering |
//!
//! ## Guarantees
//!
//! * **Slices never change trajectories.** The slice loop is
//!   check-then-step, mirroring the core driver, so a job sliced 100
//!   ways computes bit-for-bit the run an uninterrupted
//!   [`Driver`](pga_core::driver::Driver) would.
//! * **Crash safety.** Every job's engine snapshot is spooled after
//!   every slice; a server restarted after a process crash re-admits
//!   all in-flight jobs and their final results are bit-identical to an
//!   uninterrupted run. There is no fsync: a power loss may lose a
//!   job's newest record (see [`spool`]).
//! * **Finished jobs keep only their status.** A terminal job's engine
//!   and checkpoint are dropped and its event buffer is freed once
//!   drained; `serve.retained_bytes` in `GET /metrics` counts the
//!   checkpoint and undrained event bytes held. The status entry itself
//!   is kept for every job the server has seen.
//! * **No tenant starvation.** Deficit round-robin over tenants in
//!   units of engine steps: a tenant hogging the queue cannot slow
//!   another tenant's step throughput beyond one slice of lag.
//! * **Bounded admission.** At the live-job cap, submissions are shed
//!   with `429` + `Retry-After` instead of queueing unboundedly.
//!
//! ## Quick example (embedded, no HTTP)
//!
//! ```
//! use pga_serve::{Budget, EngineSpec, JobSpec, ProblemSpec, ServeBuilder};
//! use std::time::Duration;
//!
//! let dir = std::env::temp_dir().join(format!("pga-serve-doc-{}", std::process::id()));
//! let serve = ServeBuilder::new()
//!     .spool_dir(&dir)
//!     .max_jobs(8)
//!     .build()
//!     .unwrap();
//! let id = serve
//!     .submit(JobSpec {
//!         tenant: "docs".into(),
//!         problem: ProblemSpec::onemax(32),
//!         engine: EngineSpec::ga(20, 1),
//!         seed: 7,
//!         budget: Budget { generations: Some(30), ..Budget::default() },
//!     })
//!     .unwrap();
//! assert!(serve.wait(id, Duration::from_secs(30)));
//! serve.shutdown();
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```
//!
//! [`Engine`]: pga_core::driver::Engine

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod factory;
pub mod http;
pub mod job;
pub mod metrics;
pub mod protocol;
pub mod scheduler;
pub mod spool;

use std::ops::Deref;
use std::path::PathBuf;
use std::sync::Arc;

use pga_core::ConfigError;

pub use factory::{
    build_engine, default_registries, BuiltProblem, EngineCtx, FamilyRegistry, ProblemRegistry,
    Registries, SharedProblem,
};
pub use http::{serve_http, HttpServer};
pub use job::{JobId, JobProgress, JobState};
pub use pga_cluster::chaos::{ChaosInjector, ChaosPlan, StormSpec};
pub use protocol::{Budget, EngineSpec, JobSpec, ProblemSpec, ProtocolError};
pub use scheduler::{
    DrainReport, HealthReport, RecoverReport, ServeConfig, ServeRuntime, SubmitError,
};
pub use spool::{JobRecord, Spool};

/// Builder for a [`Serve`] instance. Follows the workspace convention:
/// every knob validated, failures reported as typed
/// [`ConfigError`]s, never panics.
#[derive(Clone, Debug)]
pub struct ServeBuilder {
    spool_dir: Option<PathBuf>,
    bind: Option<String>,
    max_jobs: usize,
    steps_per_slice: u64,
    quantum_steps: u64,
    max_batch: usize,
    retry_after_ms: u64,
    stream_capacity: usize,
    retry_budget: u64,
    backoff_base_ms: u64,
    slice_deadline_ms: u64,
    max_body_bytes: usize,
    chaos: Option<Arc<ChaosInjector>>,
}

impl Default for ServeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeBuilder {
    /// A builder with production defaults (64 live jobs, 8-step slices).
    #[must_use]
    pub fn new() -> Self {
        Self {
            spool_dir: None,
            bind: None,
            max_jobs: 64,
            steps_per_slice: 8,
            quantum_steps: 8,
            max_batch: 16,
            retry_after_ms: 1000,
            stream_capacity: 1 << 16,
            retry_budget: 3,
            backoff_base_ms: 20,
            slice_deadline_ms: 10_000,
            max_body_bytes: 1 << 20,
            chaos: None,
        }
    }

    /// Directory for crash-safe job checkpoints (required).
    #[must_use]
    pub fn spool_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spool_dir = Some(dir.into());
        self
    }

    /// Also bind an HTTP listener on `addr` (e.g. `"127.0.0.1:0"`).
    /// Without this, the instance is embedded-only.
    #[must_use]
    pub fn bind(mut self, addr: impl Into<String>) -> Self {
        self.bind = Some(addr.into());
        self
    }

    /// Admission bound: maximum concurrent live (non-terminal) jobs.
    #[must_use]
    pub fn max_jobs(mut self, n: usize) -> Self {
        self.max_jobs = n;
        self
    }

    /// Hard cap on engine steps per scheduling slice.
    #[must_use]
    pub fn steps_per_slice(mut self, n: u64) -> Self {
        self.steps_per_slice = n;
        self
    }

    /// Steps a tenant earns per deficit-round-robin visit.
    #[must_use]
    pub fn quantum_steps(mut self, n: u64) -> Self {
        self.quantum_steps = n;
        self
    }

    /// Maximum jobs sliced concurrently per scheduler turn.
    #[must_use]
    pub fn max_batch(mut self, n: usize) -> Self {
        self.max_batch = n;
        self
    }

    /// `Retry-After` hint (milliseconds) attached to shed responses.
    #[must_use]
    pub fn retry_after_ms(mut self, ms: u64) -> Self {
        self.retry_after_ms = ms;
        self
    }

    /// Per-job event stream capacity in lines (drop-oldest past it).
    #[must_use]
    pub fn stream_capacity(mut self, lines: usize) -> Self {
        self.stream_capacity = lines;
        self
    }

    /// Resurrections granted to a crashing job before it is quarantined
    /// as `poisoned`. `0` quarantines on the first crash.
    #[must_use]
    pub fn retry_budget(mut self, retries: u64) -> Self {
        self.retry_budget = retries;
        self
    }

    /// Base of the exponential resurrection backoff, in milliseconds
    /// (`base × 2^(n-1)` before retry *n*).
    #[must_use]
    pub fn backoff_base_ms(mut self, ms: u64) -> Self {
        self.backoff_base_ms = ms;
        self
    }

    /// Watchdog deadline per slice, in milliseconds: a yielded slice
    /// that took longer is treated as stalled and replayed from its
    /// last good snapshot. `0` disables the watchdog.
    #[must_use]
    pub fn slice_deadline_ms(mut self, ms: u64) -> Self {
        self.slice_deadline_ms = ms;
        self
    }

    /// Largest request body `POST /jobs` accepts; larger
    /// `Content-Length`s are rejected `413` before the body is read.
    #[must_use]
    pub fn max_body_bytes(mut self, bytes: usize) -> Self {
        self.max_body_bytes = bytes;
        self
    }

    /// Arms a deterministic chaos plan (fault drills only — see
    /// [`ChaosPlan`]). Production leaves this unset: the default is a
    /// no-op branch per guarded operation.
    #[must_use]
    pub fn chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(Arc::new(ChaosInjector::new(plan)));
        self
    }

    /// Validates the configuration, opens the spool (recovering any
    /// jobs found in it), starts the scheduler, and — when
    /// [`bind`](Self::bind) was set — the HTTP listener.
    pub fn build(self) -> Result<Serve, ConfigError> {
        let spool_dir = self
            .spool_dir
            .ok_or(ConfigError::MissingComponent("spool_dir"))?;
        fn positive<T: PartialOrd + Default + std::fmt::Display>(
            name: &'static str,
            v: T,
        ) -> Result<T, ConfigError> {
            if v <= T::default() {
                return Err(ConfigError::InvalidParameter {
                    name,
                    message: format!("must be positive, got {v}"),
                });
            }
            Ok(v)
        }
        let config = ServeConfig {
            spool_dir,
            max_jobs: positive("max_jobs", self.max_jobs)?,
            steps_per_slice: positive("steps_per_slice", self.steps_per_slice)?,
            quantum_steps: positive("quantum_steps", self.quantum_steps)?,
            max_batch: positive("max_batch", self.max_batch)?,
            retry_after_ms: positive("retry_after_ms", self.retry_after_ms)?,
            stream_capacity: positive("stream_capacity", self.stream_capacity)?,
            // Zero is meaningful for all three: quarantine on first
            // crash, no backoff, watchdog disabled.
            retry_budget: self.retry_budget,
            backoff_base_ms: self.backoff_base_ms,
            slice_deadline_ms: self.slice_deadline_ms,
            max_body_bytes: positive("max_body_bytes", self.max_body_bytes)?,
            chaos: self.chaos,
        };
        let runtime =
            Arc::new(
                ServeRuntime::start(config).map_err(|e| ConfigError::InvalidParameter {
                    name: "spool_dir",
                    message: format!("cannot open spool: {e}"),
                })?,
            );
        let http = match &self.bind {
            None => None,
            Some(addr) => Some(serve_http(Arc::clone(&runtime), addr).map_err(|e| {
                ConfigError::InvalidParameter {
                    name: "bind",
                    message: format!("cannot bind `{addr}`: {e}"),
                }
            })?),
        };
        Ok(Serve { runtime, http })
    }
}

/// A running server instance: the job runtime plus (optionally) its
/// HTTP listener. Dereferences to [`ServeRuntime`], so the whole
/// embedded API (`submit`, `wait`, `cancel`, `metrics_text`, …) is
/// available directly on it.
pub struct Serve {
    runtime: Arc<ServeRuntime>,
    http: Option<HttpServer>,
}

impl Serve {
    /// The HTTP listener's bound address, when one was requested.
    #[must_use]
    pub fn http_addr(&self) -> Option<std::net::SocketAddr> {
        self.http.as_ref().map(HttpServer::addr)
    }

    /// A shareable handle to the underlying runtime.
    #[must_use]
    pub fn runtime(&self) -> Arc<ServeRuntime> {
        Arc::clone(&self.runtime)
    }

    /// Graceful shutdown: stop the HTTP listener, finish and persist
    /// the in-flight slice batch, and join the scheduler.
    pub fn shutdown(mut self) {
        if let Some(mut http) = self.http.take() {
            http.shutdown();
        }
        self.runtime.shutdown();
    }

    /// Crash simulation (see [`ServeRuntime::abandon`]): the in-flight
    /// slice batch is lost, the spool keeps each job's previous slice.
    pub fn abandon(mut self) {
        if let Some(mut http) = self.http.take() {
            http.shutdown();
        }
        self.runtime.abandon();
    }
}

impl Deref for Serve {
    type Target = ServeRuntime;

    fn deref(&self) -> &ServeRuntime {
        &self.runtime
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_requires_a_spool_dir() {
        assert_eq!(
            ServeBuilder::new().build().err(),
            Some(ConfigError::MissingComponent("spool_dir"))
        );
    }

    #[test]
    fn builder_rejects_zero_parameters() {
        let err = ServeBuilder::new()
            .spool_dir(std::env::temp_dir().join("pga-serve-zero"))
            .max_jobs(0)
            .build()
            .err();
        assert!(matches!(
            err,
            Some(ConfigError::InvalidParameter {
                name: "max_jobs",
                ..
            })
        ));
    }
}
