//! CAFQA-as-a-service: a multi-tenant job server over the shared
//! [`ExecEngine`](cafqa_core::ExecEngine).
//!
//! # Serving model
//!
//! [`CafqaServer::start`] spawns one scheduler thread that round-robins
//! **slices** of Bayesian-optimization work between all queued jobs:
//! each slice runs a bounded number of live BO batches (one warm-up
//! batch, then one batch per surrogate refit), then suspends the job
//! into a [checkpoint](cafqa_core::SearchCheckpoint) and requeues it at
//! the back. A small Cr2-class job submitted behind a large one
//! therefore completes after a handful of slices instead of waiting for
//! the large job's entire search — fair-share scheduling without
//! preemptive threads.
//!
//! Suspension is built on replay-based resume: BO decisions are a pure
//! function of the seed and the returned objective values, so resuming
//! from a checkpoint re-serves the recorded values (skipping the
//! expensive objective evaluations) and lands in exactly the state an
//! uninterrupted run would occupy. **A job sliced N ways is
//! bit-identical to the same job run solo**, at any engine worker
//! count.
//!
//! # Content-addressed caching and warm starts
//!
//! Completed results enter a bounded cache keyed by a canonical
//! fingerprint of the job identity (see [`cafqa_core::fingerprint`]).
//! An exact resubmission returns the cached
//! [`CafqaResult`](cafqa_core::CafqaResult) without recompute; a *near*
//! submission — same term masks, different coefficients, e.g. a
//! neighbouring bond length — is warm-started by injecting the nearest
//! cached incumbent as its first seed (disable with
//! [`ServeOptions::warm_start`]).
//!
//! # Panic-free serving
//!
//! Every error reachable from the serve API is a structured
//! [`ServeError`]. [`CafqaServer::submit`] admits a spec through the
//! same validator the search runs,
//! [`CafqaProblem::new`](cafqa_core::CafqaProblem::new): register
//! widths, seed lengths and ranges, and
//! [`IsingFastPath::Force`](cafqa_core::IsingFastPath::Force) routability
//! are core's checks, and a failure rejects as
//! [`ServeError::Invalid`] carrying the very
//! [`CafqaError`](cafqa_core::CafqaError) that
//! [`run_cafqa_resumable_on`](cafqa_core::run_cafqa_resumable_on) would
//! return. The server adds one policy of its own: non-finite
//! coefficients, targets and weights reject as [`ServeError::NonFinite`]
//! (the search would only report a NaN or infinite energy). A full queue
//! backpressures with [`ServeError::QueueFull`], and runner failures
//! surface through [`CafqaServer::wait`] as [`ServeError::JobFailed`].
//!
//! ```
//! use cafqa_circuit::EfficientSu2;
//! use cafqa_core::{CafqaOptions, ExecEngine};
//! use cafqa_pauli::PauliOp;
//! use cafqa_serve::{CafqaServer, Disposition, JobSpec, ServeOptions};
//!
//! let ham: PauliOp = "0.5*ZZ + 0.25*XX".parse().unwrap();
//! let opts = CafqaOptions { warmup: 8, iterations: 8, ..Default::default() };
//! let mut server = CafqaServer::start(ExecEngine::serial(), ServeOptions::default());
//! let spec = JobSpec::new(EfficientSu2::new(2, 1), ham, opts);
//! let first = server.submit(spec.clone()).unwrap();
//! let first = server.wait(first).unwrap();
//! let again = server.submit(spec).unwrap();
//! let again = server.wait(again).unwrap();
//! assert!(matches!(again.disposition, Disposition::CacheHit));
//! assert_eq!(first.result.energy.to_bits(), again.result.energy.to_bits());
//! server.shutdown();
//! ```

mod cache;
mod job;
mod server;

pub use job::{Disposition, JobId, JobOutcome, JobSpec, JobStatus, PenaltySpec, ServeError};
pub use server::{CafqaServer, ServeOptions, ServerStats};
