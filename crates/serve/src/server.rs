//! The job server: admission control, the content-addressed cache, and
//! a fair-share scheduler thread slicing concurrent jobs over one
//! shared [`ExecEngine`].

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use cafqa_core::fingerprint::{coefficient_vector, family_fingerprint, job_fingerprint};
use cafqa_core::{run_cafqa_resumable_on, ExecEngine, RunControl, RunStatus, SearchCheckpoint};

use crate::cache::{CacheRecord, ResultCache};
use crate::job::{Disposition, JobId, JobOutcome, JobSpec, JobStatus, ServeError};

/// Server policy knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Maximum jobs in flight (queued, running or suspended); further
    /// submissions reject with [`ServeError::QueueFull`] — the
    /// backpressure contract. Completed jobs do not count.
    pub capacity: usize,
    /// Live BO batches (one warm-up batch, then one per surrogate
    /// refit) a job runs per scheduler slice before it is suspended and
    /// requeued round-robin. Small slices keep one Cr2-class job from
    /// starving H2-sized ones; the checkpoint/resume bit-identity
    /// contract makes the slicing invisible in every result.
    pub slice_batches: usize,
    /// Warm-start near hits: seed a new job's search with the incumbent
    /// of the nearest completed same-family job (same term masks,
    /// nearest coefficients). Disable to make every non-cached job's
    /// effective inputs exactly its submitted inputs.
    pub warm_start: bool,
    /// Completed results kept in the cache (FIFO eviction beyond this).
    pub cache_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { capacity: 64, slice_batches: 4, warm_start: true, cache_capacity: 256 }
    }
}

/// Lifetime serving statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Jobs accepted by [`CafqaServer::submit`].
    pub submitted: u64,
    /// Jobs rejected at admission (validation or backpressure).
    pub rejected: u64,
    /// Jobs that finished with a result (fresh, warm-started or cached).
    pub completed: u64,
    /// Completions answered from the cache without recompute.
    pub cache_hits: u64,
    /// Completions that ran with an injected warm-start seed.
    pub warm_starts: u64,
    /// Jobs cancelled before completion.
    pub cancelled: u64,
    /// Jobs the runner failed mid-flight.
    pub failed: u64,
    /// Scheduler slices executed (suspensions + completions).
    pub slices: u64,
}

struct JobEntry {
    spec: JobSpec,
    /// Exact fingerprint of the spec as submitted.
    fingerprint_submitted: u64,
    /// Exact fingerprint of the spec actually run (differs from
    /// `fingerprint_submitted` when a warm-start seed was injected).
    fingerprint_effective: u64,
    family: u64,
    disposition: Disposition,
    status: JobStatus,
    checkpoint: Option<SearchCheckpoint>,
    outcome: Option<JobOutcome>,
    error: Option<String>,
    cancel: Arc<AtomicBool>,
}

struct ServerState {
    jobs: HashMap<u64, JobEntry>,
    /// Round-robin run queue of job ids.
    queue: VecDeque<u64>,
    cache: ResultCache,
    next_id: u64,
    in_flight: usize,
    shutdown: bool,
    stats: ServerStats,
}

struct Shared {
    engine: ExecEngine,
    opts: ServeOptions,
    state: Mutex<ServerState>,
    /// Wakes the scheduler (new work or shutdown).
    wake: Condvar,
    /// Wakes waiters (a job reached a terminal status).
    done: Condvar,
}

/// A long-running CAFQA job server over one shared engine. See the
/// crate docs for the serving model; construction starts the scheduler
/// thread, [`CafqaServer::shutdown`] (or drop) stops it after draining
/// in-flight jobs.
pub struct CafqaServer {
    shared: Arc<Shared>,
    scheduler: Option<JoinHandle<()>>,
}

impl CafqaServer {
    /// Starts a server scheduling onto `engine`.
    pub fn start(engine: ExecEngine, opts: ServeOptions) -> Self {
        let shared = Arc::new(Shared {
            engine,
            state: Mutex::new(ServerState {
                jobs: HashMap::new(),
                queue: VecDeque::new(),
                cache: ResultCache::new(opts.cache_capacity),
                next_id: 0,
                in_flight: 0,
                shutdown: false,
                stats: ServerStats::default(),
            }),
            opts,
            wake: Condvar::new(),
            done: Condvar::new(),
        });
        let scheduler = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cafqa-serve-scheduler".into())
                .spawn(move || scheduler_loop(&shared))
                .expect("scheduler thread spawn failed")
        };
        CafqaServer { shared, scheduler: Some(scheduler) }
    }

    /// Submits a job. An invalid problem (the core contract of
    /// [`CafqaProblem::new`](cafqa_core::CafqaProblem::new), as
    /// [`ServeError::Invalid`]), a non-finite input, a full queue, and a
    /// shutting-down server reject with a structured [`ServeError`] —
    /// never a panic. An exact cache hit completes the job immediately
    /// (no queue slot consumed); otherwise the job enters the
    /// round-robin queue, possibly warm-started from the nearest cached
    /// same-family completion.
    pub fn submit(&self, mut spec: JobSpec) -> Result<JobId, ServeError> {
        let mut state = self.shared.state.lock().expect("server state poisoned");
        if state.shutdown {
            state.stats.rejected += 1;
            return Err(ServeError::ShuttingDown);
        }
        if let Err(err) = spec.validate() {
            state.stats.rejected += 1;
            return Err(err);
        }
        let penalties = spec.build_penalties();
        let key = |spec: &JobSpec| {
            job_fingerprint(&spec.ansatz, &spec.hamiltonian, &penalties, &spec.seeds, &spec.opts)
        };
        let fingerprint_submitted = key(&spec);
        let mut fingerprint_effective = fingerprint_submitted;
        let family = family_fingerprint(
            &spec.ansatz,
            &spec.hamiltonian,
            &penalties,
            &spec.seeds,
            &spec.opts,
        );
        let id = JobId(state.next_id);
        state.next_id += 1;
        state.stats.submitted += 1;
        let mut disposition = Disposition::Fresh;
        let answer = |record: &CacheRecord| ((*record.result).clone(), record.seeds_used.clone());
        // An exact hit on the as-submitted spec completes on the spot,
        // without taking a queue slot.
        let mut hit = state.cache.get(fingerprint_submitted).map(answer);
        if hit.is_none() {
            // Backpressure: only jobs that will occupy the scheduler count.
            if state.in_flight >= self.shared.opts.capacity {
                state.stats.rejected += 1;
                return Err(ServeError::QueueFull { capacity: self.shared.opts.capacity });
            }
            // Near hit: warm-start from the nearest cached family member.
            if self.shared.opts.warm_start {
                let coefficients = coefficient_vector(&spec.hamiltonian);
                if let Some(donor) =
                    state.cache.nearest_in_family(family, &coefficients, fingerprint_submitted)
                {
                    spec.seeds.insert(0, donor.incumbent);
                    disposition = Disposition::WarmStarted { distance: donor.distance };
                    fingerprint_effective = key(&spec);
                    // The effective spec may itself be cached (same donor
                    // chosen on an earlier identical submission whose
                    // as-submitted alias was since evicted): still an
                    // exact hit.
                    hit = state.cache.get(fingerprint_effective).map(answer);
                }
            }
        }
        let is_hit = hit.is_some();
        let entry = JobEntry {
            spec,
            fingerprint_submitted,
            fingerprint_effective,
            family,
            disposition: if is_hit { Disposition::CacheHit } else { disposition },
            status: if is_hit { JobStatus::Completed } else { JobStatus::Queued },
            checkpoint: None,
            outcome: hit.map(|(result, seeds_used)| JobOutcome {
                id,
                result,
                disposition: Disposition::CacheHit,
                seeds_used,
            }),
            error: None,
            cancel: Arc::new(AtomicBool::new(false)),
        };
        state.jobs.insert(id.0, entry);
        if is_hit {
            state.stats.completed += 1;
            state.stats.cache_hits += 1;
            drop(state);
            self.shared.done.notify_all();
        } else {
            state.queue.push_back(id.0);
            state.in_flight += 1;
            drop(state);
            self.shared.wake.notify_all();
        }
        Ok(id)
    }

    /// The job's current lifecycle status.
    pub fn status(&self, id: JobId) -> Result<JobStatus, ServeError> {
        let state = self.shared.state.lock().expect("server state poisoned");
        state.jobs.get(&id.0).map(|e| e.status).ok_or(ServeError::UnknownJob(id))
    }

    /// Blocks until the job reaches a terminal status and returns its
    /// outcome (or the structured failure).
    pub fn wait(&self, id: JobId) -> Result<JobOutcome, ServeError> {
        let mut state = self.shared.state.lock().expect("server state poisoned");
        loop {
            let Some(entry) = state.jobs.get(&id.0) else {
                return Err(ServeError::UnknownJob(id));
            };
            match entry.status {
                JobStatus::Completed => {
                    return Ok(entry.outcome.clone().expect("completed jobs carry an outcome"));
                }
                JobStatus::Cancelled => return Err(ServeError::Cancelled(id)),
                JobStatus::Failed => {
                    return Err(ServeError::JobFailed {
                        id,
                        message: entry.error.clone().unwrap_or_default(),
                    });
                }
                _ => state = self.shared.done.wait(state).expect("server state poisoned"),
            }
        }
    }

    /// Requests cooperative cancellation. Queued jobs cancel before
    /// their first slice; running jobs stop at the next batch boundary.
    /// Returns whether the request landed on a live job (`false` once
    /// terminal).
    pub fn cancel(&self, id: JobId) -> Result<bool, ServeError> {
        let state = self.shared.state.lock().expect("server state poisoned");
        let Some(entry) = state.jobs.get(&id.0) else {
            return Err(ServeError::UnknownJob(id));
        };
        if entry.status.is_terminal() {
            return Ok(false);
        }
        entry.cancel.store(true, Ordering::Relaxed);
        drop(state);
        self.shared.wake.notify_all();
        Ok(true)
    }

    /// A snapshot of the lifetime statistics.
    pub fn stats(&self) -> ServerStats {
        self.shared.state.lock().expect("server state poisoned").stats
    }

    /// Number of cached completions currently held.
    pub fn cached_results(&self) -> usize {
        self.shared.state.lock().expect("server state poisoned").cache.len()
    }

    /// Stops admissions, drains every in-flight job (cancelled jobs
    /// stop at their next batch boundary), and joins the scheduler.
    /// Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("server state poisoned");
            state.shutdown = true;
        }
        self.shared.wake.notify_all();
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for CafqaServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Moves an in-flight job to a terminal status: frees its queue slot,
/// counts it, and wakes every waiter.
fn finish(shared: &Shared, mut state: MutexGuard<'_, ServerState>, id: u64, status: JobStatus) {
    state.jobs.get_mut(&id).expect("in-flight jobs exist").status = status;
    state.in_flight -= 1;
    match status {
        JobStatus::Completed => state.stats.completed += 1,
        JobStatus::Cancelled => state.stats.cancelled += 1,
        _ => state.stats.failed += 1,
    }
    drop(state);
    shared.done.notify_all();
}

fn scheduler_loop(shared: &Shared) {
    loop {
        // Claim the next runnable job.
        let claimed = {
            let mut state = shared.state.lock().expect("server state poisoned");
            loop {
                if let Some(id) = state.queue.pop_front() {
                    break Some(id);
                }
                if state.shutdown {
                    break None;
                }
                state = shared.wake.wait(state).expect("server state poisoned");
            }
        };
        let Some(id) = claimed else { return };
        // Snapshot what the slice needs, mark Running.
        let (spec, penalties, checkpoint, cancel, slice_batches) = {
            let mut state = shared.state.lock().expect("server state poisoned");
            let entry = state.jobs.get_mut(&id).expect("queued jobs exist");
            if entry.cancel.load(Ordering::Relaxed) {
                finish(shared, state, id, JobStatus::Cancelled);
                continue;
            }
            entry.status = JobStatus::Running;
            (
                entry.spec.clone(),
                entry.spec.build_penalties(),
                entry.checkpoint.take(),
                Arc::clone(&entry.cancel),
                shared.opts.slice_batches.max(1),
            )
        };
        // Run one slice on the engine, lock released. The spec passed the
        // core problem contract at admission, the checkpoint is
        // self-produced, and every runner error path is structured —
        // nothing here can panic the scheduler.
        let status = run_cafqa_resumable_on(
            &shared.engine,
            &spec.ansatz,
            &spec.hamiltonian,
            penalties,
            &spec.seeds,
            &spec.opts,
            checkpoint.as_ref(),
            &mut |progress| {
                if cancel.load(Ordering::Relaxed) || progress.live_batches >= slice_batches {
                    RunControl::Suspend
                } else {
                    RunControl::Continue
                }
            },
        );
        // Publish the slice result.
        let mut guard = shared.state.lock().expect("server state poisoned");
        let state = &mut *guard;
        state.stats.slices += 1;
        let entry = state.jobs.get_mut(&id).expect("running jobs exist");
        let terminal = match status {
            Ok(RunStatus::Suspended(_)) if cancel.load(Ordering::Relaxed) => JobStatus::Cancelled,
            Ok(RunStatus::Suspended(checkpoint)) => {
                entry.status = JobStatus::Suspended;
                entry.checkpoint = Some(checkpoint);
                state.queue.push_back(id);
                continue;
            }
            Ok(RunStatus::Complete(result)) => {
                entry.outcome = Some(JobOutcome {
                    id: JobId(id),
                    result: result.clone(),
                    disposition: entry.disposition,
                    seeds_used: entry.spec.seeds.clone(),
                });
                if matches!(entry.disposition, Disposition::WarmStarted { .. }) {
                    state.stats.warm_starts += 1;
                }
                state.cache.insert(CacheRecord {
                    keys: if entry.fingerprint_submitted == entry.fingerprint_effective {
                        vec![entry.fingerprint_submitted]
                    } else {
                        vec![entry.fingerprint_submitted, entry.fingerprint_effective]
                    },
                    family: entry.family,
                    coefficients: coefficient_vector(&entry.spec.hamiltonian),
                    incumbent: result.best_config.clone(),
                    result: Arc::new(result),
                    seeds_used: entry.spec.seeds.clone(),
                });
                JobStatus::Completed
            }
            Err(err) => {
                entry.error = Some(err.to_string());
                JobStatus::Failed
            }
        };
        finish(shared, guard, id, terminal);
    }
}
