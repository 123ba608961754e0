//! Deterministic ordered fan-out over OS threads.
//!
//! The sweep, tuner and figure pipelines are embarrassingly parallel: a grid
//! of independent simulation runs whose outputs are combined by *index*, not
//! by completion order. [`par_map`] runs such a grid across a pool of scoped
//! threads and returns results in input order, so callers that derive any
//! per-item randomness from the item index produce byte-identical output at
//! every thread count. Parallelism lives only here, across runs: a single
//! simulation run is sequential, so `PAP_THREADS` never changes what one
//! run computes.
//!
//! Thread count resolution, highest priority first:
//! 1. [`set_threads`] (e.g. from `papctl --threads N`),
//! 2. the `PAP_THREADS` environment variable,
//! 3. all available cores.
//!
//! A value of 1 forces the plain sequential loop (no threads spawned).
//! Nested [`par_map`] calls from inside a worker run sequentially, so outer
//! parallelism (e.g. the tuner's kind × size grid) is not multiplied by
//! inner parallelism (each cell's sweep).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Explicit override; 0 means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cached `PAP_THREADS` / core-count default.
static DEFAULT: OnceLock<usize> = OnceLock::new();

std::thread_local! {
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Set the global thread count (1 forces sequential execution).
///
/// Takes priority over `PAP_THREADS` and the core count.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n.max(1), Ordering::Relaxed);
}

/// The thread count [`par_map`] will use at top level.
pub fn threads() -> usize {
    let forced = OVERRIDE.load(Ordering::Relaxed);
    if forced != 0 {
        return forced;
    }
    *DEFAULT.get_or_init(|| {
        if let Ok(v) = std::env::var("PAP_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
            eprintln!("warning: ignoring invalid PAP_THREADS={v:?}");
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    })
}

/// True when called from inside a [`par_map`] worker.
pub fn in_worker() -> bool {
    IN_WORKER.with(|f| f.get())
}

/// Apply `f(index, &item)` to every item, returning results in input order.
///
/// Runs on [`threads`] scoped threads pulling indices from a shared counter;
/// sequential when the thread count is 1, the input has fewer than 2 items,
/// or the caller is itself a worker. A panic in `f` propagates.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    let workers = threads().min(n);
    if workers <= 1 || in_worker() {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let m = pool_metrics();
    m.par_map_calls.inc();
    m.par_map_items.add(n as u64);
    let _span = pap_obs::span("pool", "par_map");

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    IN_WORKER.with(|flag| flag.set(true));
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            // join() re-raises worker panics on the caller.
            for (i, v) in handle.join().expect("par_map worker panicked") {
                slots[i] = Some(v);
            }
        }
    });
    slots.into_iter().map(|s| s.expect("par_map slot unfilled")).collect()
}

/// [`par_map`] over an index range instead of a slice.
pub fn par_map_range<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let idx: Vec<usize> = (0..n).collect();
    par_map(&idx, |_, &i| f(i))
}

/// Run `f` with this thread marked as a pool worker, so any [`par_map`]
/// it performs (directly or transitively) stays sequential. Long-running
/// services use this to keep total parallelism bounded by their own pool
/// instead of multiplying it by the fan-out width.
pub fn sequential<R>(f: impl FnOnce() -> R) -> R {
    let was = IN_WORKER.with(|w| w.replace(true));
    let out = f();
    IN_WORKER.with(|w| w.set(was));
    out
}

/// Cached handles into the global metrics registry. Resolved once; each
/// task then costs a few relaxed atomic ops (submit, queue-wait, busy
/// gauge, completion), taken only on the pool path — `par_map` grids pay a
/// single per-call add.
struct PoolMetrics {
    submitted: pap_obs::Counter,
    completed: pap_obs::Counter,
    dropped: pap_obs::Counter,
    queue_wait_us: pap_obs::Histogram,
    workers_busy: pap_obs::Gauge,
    par_map_calls: pap_obs::Counter,
    par_map_items: pap_obs::Counter,
}

fn pool_metrics() -> &'static PoolMetrics {
    static M: OnceLock<PoolMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let reg = pap_obs::global();
        PoolMetrics {
            submitted: reg.counter("pool.tasks.submitted"),
            completed: reg.counter("pool.tasks.completed"),
            dropped: reg.counter("pool.tasks.dropped"),
            queue_wait_us: reg.histogram(
                "pool.queue_wait_us",
                &[10, 100, 1_000, 10_000, 100_000, 1_000_000],
            ),
            workers_busy: reg.gauge("pool.workers_busy"),
            par_map_calls: reg.counter("pool.par_map.calls"),
            par_map_items: reg.counter("pool.par_map.items"),
        }
    })
}

/// A queued task plus its enqueue time (for the queue-wait histogram).
type Task = (std::time::Instant, Box<dyn FnOnce() + Send + 'static>);

struct PoolShared {
    queue: Mutex<PoolQueue>,
    /// One wake-up per worker: a pushed task wakes the most recently idled
    /// worker, so a trickle of tasks stays on one warm thread (its stack
    /// and allocator arena) instead of rotating through all of them.
    wake: Vec<Condvar>,
    bound: usize,
    after_task: Box<dyn Fn() + Send + Sync>,
}

struct PoolQueue {
    tasks: VecDeque<Task>,
    /// Idle workers, most recently idled last.
    idle: Vec<usize>,
    shutdown: bool,
    /// When shutting down: run the queued backlog (`true`, drain) or drop it
    /// (`false`, abort). In-flight tasks always run to completion.
    run_backlog: bool,
}

/// A bounded FIFO pool of long-lived worker threads for dynamically
/// submitted tasks (as opposed to [`par_map`]'s static grids).
///
/// * A task wakes the most recently idled worker, so tasks that arrive one
///   at a time all run on one thread and touch one stack and one
///   allocator arena.
/// * [`Pool::submit`] never blocks: it rejects a task while the queue
///   holds `queue_bound` pending tasks, and the caller picks the fallback
///   (a server answering on an event loop must not wait for a slot).
/// * Workers run tasks with the [`in_worker`] flag set, so a task calling
///   [`par_map`] runs it sequentially: total parallelism stays bounded by
///   the pool size.
/// * [`Pool::join`] stops intake, runs the queued backlog, and joins the
///   workers (graceful drain). [`Pool::abort`] drops the backlog and joins
///   after in-flight tasks finish.
pub struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawn a pool of `workers` threads with a queue bound of
    /// `queue_bound` pending tasks (both clamped to at least 1).
    pub fn new(workers: usize, queue_bound: usize) -> Pool {
        Pool::with_after_task(workers, queue_bound, || {})
    }

    /// [`Pool::new`] plus a hook each worker runs after every task, once it
    /// holds its next task or is listed idle. A task that announces its
    /// result from here rather than from inside itself guarantees that a
    /// submit reacting to the announcement finds this same worker first.
    pub fn with_after_task(
        workers: usize,
        queue_bound: usize,
        after_task: impl Fn() + Send + Sync + 'static,
    ) -> Pool {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                tasks: VecDeque::new(),
                idle: Vec::with_capacity(workers),
                shutdown: false,
                run_backlog: true,
            }),
            wake: (0..workers).map(|_| Condvar::new()).collect(),
            bound: queue_bound.max(1),
            after_task: Box::new(after_task),
        });
        let workers = (0..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || work(&shared, id))
            })
            .collect();
        Pool { shared, workers }
    }

    /// Enqueue a task without blocking. Returns `false` (dropping the task)
    /// if the queue is full or the pool is shutting down.
    pub fn submit(&self, f: impl FnOnce() + Send + 'static) -> bool {
        let mut q = self.shared.queue.lock().expect("pool queue poisoned");
        if q.shutdown || q.tasks.len() >= self.shared.bound {
            return false;
        }
        q.tasks.push_back((std::time::Instant::now(), Box::new(f)));
        let idle = q.idle.pop();
        drop(q);
        pool_metrics().submitted.inc();
        if let Some(w) = idle {
            self.shared.wake[w].notify_one();
        }
        true
    }

    /// Graceful shutdown: stop intake, run every queued task, join workers.
    pub fn join(self) {
        self.finish(true);
    }

    /// Abort: stop intake, drop queued tasks, join workers once their
    /// current task (if any) completes. Returns the number of dropped tasks.
    pub fn abort(self) -> usize {
        self.finish(false)
    }

    fn finish(mut self, run_backlog: bool) -> usize {
        let dropped = {
            let mut q = self.shared.queue.lock().expect("pool queue poisoned");
            q.shutdown = true;
            q.run_backlog = run_backlog;
            if run_backlog { 0 } else { std::mem::take(&mut q.tasks).len() }
        };
        pool_metrics().dropped.add(dropped as u64);
        for cv in &self.shared.wake {
            cv.notify_all();
        }
        for w in self.workers.drain(..) {
            w.join().expect("pool worker panicked");
        }
        dropped
    }
}

/// What a worker does next.
enum Next {
    Run(Task),
    /// Listed idle; announce the finished task before waiting.
    Idle,
    Exit,
}

/// One pool worker's loop.
fn work(shared: &PoolShared, id: usize) {
    IN_WORKER.with(|flag| flag.set(true));
    let mut finished = false;
    loop {
        let next = {
            let mut q = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if q.shutdown && (!q.run_backlog || q.tasks.is_empty()) {
                    break Next::Exit;
                }
                if let Some(t) = q.tasks.pop_front() {
                    // Woken spuriously or beaten to its task: a busy worker
                    // must not stay listed idle.
                    q.idle.retain(|&w| w != id);
                    break Next::Run(t);
                }
                if !q.idle.contains(&id) {
                    q.idle.push(id);
                }
                if finished {
                    break Next::Idle;
                }
                q = shared.wake[id].wait(q).expect("pool queue poisoned");
            }
        };
        if std::mem::take(&mut finished) {
            (shared.after_task)();
        }
        let (enqueued, task) = match next {
            Next::Run(t) => t,
            Next::Idle => continue,
            Next::Exit => return,
        };
        let m = pool_metrics();
        m.queue_wait_us.record(enqueued.elapsed().as_micros().min(u64::MAX as u128) as u64);
        m.workers_busy.add(1);
        let span = pap_obs::span("pool", "task");
        task();
        drop(span);
        m.workers_busy.add(-1);
        m.completed.inc();
        finished = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that mutate the global thread-count override.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3 + 1
        });
        assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential_at_any_thread_count() {
        let _guard = LOCK.lock().unwrap();
        let items: Vec<u64> = (0..100).collect();
        let seq: Vec<u64> = items.iter().map(|x| x.wrapping_mul(0x9E37_79B9)).collect();
        for n in [1, 2, 7] {
            set_threads(n);
            assert_eq!(par_map(&items, |_, x| x.wrapping_mul(0x9E37_79B9)), seq);
        }
        set_threads(1);
    }

    #[test]
    fn nested_calls_run_sequentially() {
        let _guard = LOCK.lock().unwrap();
        set_threads(4);
        let outer: Vec<usize> = (0..8).collect();
        let out = par_map(&outer, |_, &i| {
            assert!(in_worker());
            let inner: Vec<usize> = (0..4).collect();
            par_map(&inner, |_, &j| i * 10 + j)
        });
        assert_eq!(out[3], vec![30, 31, 32, 33]);
        set_threads(1);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |_, x| *x).is_empty());
        assert_eq!(par_map(&[42u32], |_, x| *x), vec![42]);
        assert_eq!(par_map_range(3, |i| i * i), vec![0, 1, 4]);
    }

    #[test]
    fn sequential_scope_disables_fanout() {
        assert!(!in_worker());
        let inside = sequential(|| {
            assert!(in_worker());
            // Nested par_map must run inline (order-preserving is trivially
            // true either way; in_worker() proves the sequential path).
            par_map(&[1u32, 2, 3], |_, &x| {
                assert!(in_worker());
                x * 2
            })
        });
        assert_eq!(inside, vec![2, 4, 6]);
        assert!(!in_worker(), "sequential() must restore the flag");
    }

    #[test]
    fn pool_runs_all_tasks_and_drains_on_join() {
        let counter = Arc::new(AtomicUsize::new(0));
        let pool = Pool::new(3, 64);
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            assert!(pool.submit(move || {
                assert!(in_worker(), "pool tasks run with the worker flag set");
                c.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.join();
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn after_task_hook_keeps_one_at_a_time_tasks_on_one_worker() {
        let (tx, rx) = std::sync::mpsc::channel();
        let tx = Mutex::new(tx);
        let pool = Pool::with_after_task(4, 16, move || tx.lock().unwrap().send(()).unwrap());
        // Let every worker start and list itself idle first.
        while pool.shared.queue.lock().unwrap().idle.len() < 4 {
            std::thread::yield_now();
        }
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        for _ in 0..10 {
            let ran_on = Arc::clone(&ran_on);
            assert!(pool.submit(move || ran_on.lock().unwrap().push(std::thread::current().id())));
            // Submit the next task as soon as this one is announced: the
            // worker that ran it is already listed idle, most recently.
            rx.recv().unwrap();
        }
        pool.join();
        let ran_on = ran_on.lock().unwrap();
        assert_eq!(ran_on.len(), 10);
        assert!(ran_on.windows(2).all(|w| w[0] == w[1]), "{ran_on:?}");
    }

    #[test]
    fn pool_submit_rejects_instead_of_blocking_when_full() {
        let ran = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let pool = Pool::new(1, 2);
        {
            let (ran, gate) = (Arc::clone(&ran), Arc::clone(&gate));
            assert!(pool.submit(move || {
                ran.fetch_add(1, Ordering::Relaxed);
                let (lock, cv) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            }));
        }
        // The lone worker holds the gated task, so the queue is empty.
        while ran.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        for _ in 0..2 {
            let ran = Arc::clone(&ran);
            assert!(pool.submit(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            }));
        }
        // The queue holds its bound: the next submit returns at once.
        let start = std::time::Instant::now();
        assert!(!pool.submit(|| unreachable!("a rejected task never runs")));
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(pool.shared.queue.lock().unwrap().tasks.len(), 2);
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        pool.join();
        assert_eq!(ran.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn pool_abort_drops_backlog_but_finishes_inflight() {
        let started = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let pool = Pool::new(1, 64);
        // First task blocks the lone worker until the gate opens.
        {
            let started = Arc::clone(&started);
            let gate = Arc::clone(&gate);
            pool.submit(move || {
                started.fetch_add(1, Ordering::Relaxed);
                let (lock, cv) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            });
        }
        // Queue a backlog that abort() must drop.
        for _ in 0..10 {
            let started = Arc::clone(&started);
            pool.submit(move || {
                started.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Wait for the worker to pick up the blocking task.
        while started.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        // Abort from a helper thread (it blocks joining the gated worker);
        // only open the gate once the shutdown flag is set, so the worker
        // cannot steal backlog tasks in the window before the abort.
        let shared = Arc::clone(&pool.shared);
        let aborter = std::thread::spawn(move || pool.abort());
        while !shared.queue.lock().unwrap().shutdown {
            std::thread::yield_now();
        }
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        let dropped = aborter.join().unwrap();
        assert_eq!(started.load(Ordering::Relaxed), 1, "backlog must not run after abort");
        assert_eq!(dropped, 10);
    }

    #[test]
    fn pool_publishes_metrics() {
        let m = pool_metrics();
        let (sub0, comp0, wait0) =
            (m.submitted.get(), m.completed.get(), m.queue_wait_us.count());
        let pool = Pool::new(2, 8);
        for _ in 0..5 {
            assert!(pool.submit(|| {}));
        }
        pool.join();
        assert!(m.submitted.get() >= sub0 + 5);
        assert!(m.completed.get() >= comp0 + 5);
        assert!(m.queue_wait_us.count() >= wait0 + 5);
    }

    #[test]
    fn pool_submit_after_shutdown_is_rejected() {
        let pool = Pool::new(2, 2);
        let shared = Arc::clone(&pool.shared);
        pool.join();
        // A fresh handle to the shared state simulates a racing submitter.
        let mut q = shared.queue.lock().unwrap();
        assert!(q.shutdown);
        assert!(q.tasks.is_empty());
        q.tasks.clear();
    }
}
