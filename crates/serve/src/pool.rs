//! Bounded, self-healing worker pool with FIFO admission control.
//!
//! "On the Cost of Concurrency in Transactional Memory"'s lesson applies
//! to the serving layer itself: admitting unbounded concurrent simulations
//! degrades everyone. The pool therefore runs a fixed number of worker
//! threads over one FIFO queue with a hard depth bound — a submission
//! against a full queue is *rejected immediately* ([`PoolFull`], surfaced
//! as HTTP 429 with the current depth in a header) instead of piling up
//! latency for every queued client.
//!
//! ## Supervision
//!
//! Every job runs under `catch_unwind`. A panicking job must not take a
//! worker with it — before supervision, one poisoned job spec could
//! silently halve the pool until nothing drained the queue. A caught
//! panic is counted, the worker *retires* (a panicked stack is not worth
//! trusting for the next job), and a sentinel [`Drop`] guard spawns a
//! fresh replacement thread, so capacity converges back to the configured
//! worker count no matter how many jobs panic. A job submitted with
//! [`WorkerPool::submit_with_recovery`] also names a handler that runs
//! after the panic is counted, so whatever the handler publishes (a
//! `failed` job phase) is never visible ahead of the count.
//! [`WorkerPool::health`] snapshots live workers, lifetime panics, and
//! respawns for the `/v1/healthz` readiness endpoint.
//!
//! The sentinel pushes the replacement's `JoinHandle` while still holding
//! the state lock so a concurrent shutdown either observes `open ==
//! false` before the respawn decision, or finds the new handle already in
//! the join list — a replacement can never be leaked past `shutdown`.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A queued job and the handler to run if it panics.
struct Task {
    run: Job,
    on_panic: Job,
}

/// Rejection: the queue was at capacity. Carries the depth observed at
/// rejection time (== capacity) for the `x-asf-queue-depth` header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolFull(pub usize);

/// Point-in-time supervision snapshot, serialised into `/v1/healthz`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolHealth {
    /// Configured worker count (the target the pool heals towards).
    pub workers: usize,
    /// Workers currently alive (between a retirement and its respawn this
    /// can briefly dip below `workers`).
    pub live: usize,
    /// Lifetime count of jobs that panicked.
    pub panics: u64,
    /// Lifetime count of replacement workers spawned after a panic.
    pub respawns: u64,
    /// Pending (not yet started) jobs.
    pub queue_depth: usize,
}

struct State {
    queue: VecDeque<Task>,
    open: bool,
    live: usize,
    panics: u64,
    respawns: u64,
    next_worker: usize,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    capacity: usize,
    // Lock order: `state` before `handles`, never the reverse.
    handles: Mutex<Vec<JoinHandle<()>>>,
}

/// Fixed-size worker pool over a bounded FIFO queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: usize,
}

impl WorkerPool {
    /// Start `workers` threads serving a queue bounded at `capacity`
    /// pending jobs (jobs being executed do not count against the bound).
    pub fn new(workers: usize, capacity: usize) -> WorkerPool {
        assert!(workers >= 1, "need at least one worker");
        assert!(capacity >= 1, "queue capacity must be at least 1");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                open: true,
                live: workers,
                panics: 0,
                respawns: 0,
                next_worker: workers,
            }),
            cv: Condvar::new(),
            capacity,
            handles: Mutex::new(Vec::with_capacity(workers)),
        });
        let handles: Vec<JoinHandle<()>> =
            (0..workers).map(|i| spawn_worker(&shared, i)).collect();
        shared.handles.lock().unwrap().extend(handles);
        WorkerPool { shared, workers }
    }

    /// Enqueue a job. `Ok(depth)` is the queue depth right after the
    /// enqueue; `Err(PoolFull)` rejects without blocking when the queue is
    /// at capacity or the pool is shutting down.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> Result<usize, PoolFull> {
        self.submit_with_recovery(job, || {})
    }

    /// [`WorkerPool::submit`], plus `on_panic`, which the worker runs
    /// after a panic in `job` has been counted in [`WorkerPool::health`]
    /// and before the worker retires.
    pub fn submit_with_recovery(
        &self,
        job: impl FnOnce() + Send + 'static,
        on_panic: impl FnOnce() + Send + 'static,
    ) -> Result<usize, PoolFull> {
        let mut state = self.shared.state.lock().unwrap();
        if !state.open || state.queue.len() >= self.shared.capacity {
            return Err(PoolFull(state.queue.len()));
        }
        state.queue.push_back(Task { run: Box::new(job), on_panic: Box::new(on_panic) });
        let depth = state.queue.len();
        drop(state);
        self.shared.cv.notify_one();
        Ok(depth)
    }

    /// Pending (not yet started) jobs.
    pub fn depth(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// The queue's depth bound.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Supervision snapshot for the readiness endpoint.
    pub fn health(&self) -> PoolHealth {
        let state = self.shared.state.lock().unwrap();
        PoolHealth {
            workers: self.workers,
            live: state.live,
            panics: state.panics,
            respawns: state.respawns,
            queue_depth: state.queue.len(),
        }
    }

    /// Stop accepting work, drain the queue, and join every worker
    /// (including any replacements spawned during the drain).
    pub fn shutdown(self) {
        // Drop does the work; this name exists for call-site clarity.
    }

    fn close(&self) {
        self.shared.state.lock().unwrap().open = false;
        self.shared.cv.notify_all();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Dropping without an explicit shutdown still stops the workers;
        // queued-but-unstarted jobs are executed first (drain semantics).
        self.close();
        // Join until the list is empty — sentinels may append replacement
        // handles while earlier ones are being joined.
        loop {
            let handle = self.shared.handles.lock().unwrap().pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }
}

fn spawn_worker(shared: &Arc<Shared>, id: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("asf-serve-worker-{id}"))
        .spawn(move || worker_loop(&shared))
        .expect("spawn worker")
}

/// Decrements `live` on worker exit and — when the exit was a
/// panic-retirement while the pool is still open — spawns the
/// replacement. Running this from `Drop` (not straight-line code) means
/// even an unexpected unwind out of the worker loop heals the pool.
struct Sentinel {
    shared: Arc<Shared>,
    clean: bool,
}

impl Drop for Sentinel {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().unwrap();
        state.live -= 1;
        if !self.clean && state.open {
            state.respawns += 1;
            state.live += 1;
            let id = state.next_worker;
            state.next_worker += 1;
            let handle = spawn_worker(&self.shared, id);
            // Push while still holding the state lock: shutdown's close()
            // serialises on that lock, so it cannot observe `open` flipped
            // without also seeing this handle in the join list.
            self.shared.handles.lock().unwrap().push(handle);
        }
        drop(state);
        self.shared.cv.notify_all();
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    let mut sentinel = Sentinel { shared: Arc::clone(shared), clean: false };
    loop {
        let task = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if let Some(task) = state.queue.pop_front() {
                    break task;
                }
                if !state.open {
                    sentinel.clean = true;
                    return;
                }
                state = shared.cv.wait(state).unwrap();
            }
        };
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(task.run)).is_err() {
            shared.state.lock().unwrap().panics += 1;
            // Count first, then let the submitter publish the failure.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task.on_panic));
            // Retire: a stack that just unwound is not worth reusing.
            // `sentinel.clean` stays false, so Drop spawns a replacement.
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn runs_submitted_jobs_and_drains_on_shutdown() {
        let pool = WorkerPool::new(2, 64);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                done.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let pool = WorkerPool::new(1, 2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        // Block the single worker so the queue actually fills.
        let g = Arc::clone(&gate);
        pool.submit(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        })
        .unwrap();
        // Wait until the worker has dequeued the blocker.
        while pool.depth() > 0 {
            std::thread::yield_now();
        }
        assert_eq!(pool.submit(|| {}), Ok(1));
        assert_eq!(pool.submit(|| {}), Ok(2));
        assert_eq!(pool.submit(|| {}), Err(PoolFull(2)));
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        pool.shutdown();
    }

    #[test]
    fn a_panicking_job_retires_and_respawns_the_worker() {
        let pool = WorkerPool::new(1, 16);
        pool.submit(|| panic!("poisoned job")).unwrap();
        // The single worker must heal; a job submitted after the panic
        // still completes.
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if pool
                .submit({
                    let d = Arc::clone(&d);
                    move || {
                        d.fetch_add(1, Ordering::Relaxed);
                    }
                })
                .is_ok()
            {
                break;
            }
            assert!(Instant::now() < deadline, "pool never healed");
            std::thread::sleep(Duration::from_millis(1));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while done.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "healed worker never ran the job");
            std::thread::sleep(Duration::from_millis(1));
        }
        let health = pool.health();
        assert_eq!(health.panics, 1);
        assert_eq!(health.respawns, 1);
        assert_eq!(health.live, 1);
        pool.shutdown();
    }

    #[test]
    fn panic_handler_runs_after_the_panic_is_counted() {
        let pool = Arc::new(WorkerPool::new(1, 16));
        let (tx, rx) = std::sync::mpsc::channel();
        let seen_by_handler = Arc::clone(&pool);
        pool.submit_with_recovery(
            || panic!("poisoned job"),
            move || {
                let panics = seen_by_handler.health().panics;
                // Release the pool here, not after the send: the last
                // reference must not be dropped on the worker it joins.
                drop(seen_by_handler);
                tx.send(panics).unwrap();
            },
        )
        .unwrap();
        let panics = rx.recv_timeout(Duration::from_secs(10)).expect("handler ran");
        assert_eq!(panics, 1, "the handler must see its own panic counted");
        // A job that returns normally never runs its handler.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        pool.submit_with_recovery(|| {}, move || tx.send(()).unwrap()).unwrap();
        Arc::into_inner(pool).expect("sole owner").shutdown();
        assert!(rx.try_recv().is_err());
    }
}
