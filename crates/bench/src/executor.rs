//! A work-stealing executor for sweep grids.
//!
//! A figure grid is `cells × seeds` independent deterministic
//! simulations of wildly different durations (a 1 MB-transfer cell
//! finishes long before a 64 KB one at the same byte volume). The old
//! harness parallelised the two axes separately — an atomic claim loop
//! over cells, then one thread per seed inside each cell — which had two
//! problems: the per-cell join was a barrier (workers idled while the
//! slowest seed of a cell finished), and thread count was
//! `workers × seeds`, unbounded by the host.
//!
//! This executor flattens the grid into one task pool drained by exactly
//! `min(available_parallelism, tasks)` workers. Tasks are pre-split into
//! contiguous per-worker ranges; a worker drains its own range from the
//! front and, when empty, steals from the *back* of the victim with the
//! most work left. Stealing one task at a time is the right granularity
//! here — a task is an entire simulation run, seconds of work, so the
//! steal path is cold and balance beats amortisation.
//!
//! Execution order never affects results: every task writes only its own
//! slot, and callers fold the slots in task-index order afterwards (see
//! `harness::Sweep::run_cells_named`), so means over seeds are
//! bit-identical to a sequential loop no matter which worker ran what.

use std::sync::Mutex;
use std::time::Instant;

/// One worker's span of the task range: `[next, end)` still to run.
/// A `Mutex` rather than lock-free split counters: tasks are whole
/// simulation runs, so pool overhead is nanoseconds against seconds and
/// clarity wins.
struct Span {
    next: usize,
    end: usize,
}

impl Span {
    fn len(&self) -> usize {
        self.end - self.next
    }
}

/// What one steal attempt found.
enum StealOutcome {
    /// Took a task from a victim's back.
    Took(usize),
    /// A victim looked non-empty during the scan but drained before the
    /// take — the thief rescans.
    Raced,
    /// Every span is empty: the pool is permanently dry.
    Dry,
}

/// Per-worker fairness counters, accumulated across every pool this
/// process runs. Always on: the counters are a handful of adds per
/// *task* (a task is an entire simulation run), so there is no off
/// switch to get wrong — they feed `perfbench`'s executor layer and, under
/// `--profile`, the hostprof executor section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerCounters {
    /// Tasks this worker ran (own span + stolen).
    pub tasks: u64,
    /// Steal attempts that took a task from a victim.
    pub steals_hit: u64,
    /// Steal attempts that raced a draining victim and got nothing.
    pub steals_missed: u64,
    /// Pools in which this worker drained its own span and went stealing.
    pub span_drains: u64,
    /// Nanoseconds spent running tasks.
    pub busy_ns: u64,
    /// Nanoseconds of pool wall time this worker was *not* running tasks
    /// (steal scans, lock waits, and end-of-pool starvation).
    pub idle_ns: u64,
}

impl WorkerCounters {
    fn merge(&mut self, o: &WorkerCounters) {
        self.tasks += o.tasks;
        self.steals_hit += o.steals_hit;
        self.steals_missed += o.steals_missed;
        self.span_drains += o.span_drains;
        self.busy_ns += o.busy_ns;
        self.idle_ns += o.idle_ns;
    }
}

/// Process-wide executor statistics: every [`run_indexed`] pool folds its
/// per-worker counters in here (by worker index).
#[derive(Debug, Clone, Default)]
pub struct ExecutorStats {
    /// Pools run so far.
    pub pools: u64,
    /// Per-worker counters, indexed by worker id, summed across pools.
    pub workers: Vec<WorkerCounters>,
}

static EXEC_STATS: Mutex<ExecutorStats> = Mutex::new(ExecutorStats {
    pools: 0,
    workers: Vec::new(),
});

/// Snapshot the accumulated executor statistics.
pub fn executor_stats() -> ExecutorStats {
    EXEC_STATS.lock().expect("no poisoning").clone()
}

/// Run `f(0) ..= f(total - 1)`, each exactly once, on `workers` threads
/// with work stealing. Blocks until every task has finished. `workers`
/// is clamped to `[1, total]`; with one worker (or one task) this
/// degenerates to a sequential in-order loop.
pub fn run_indexed<F>(total: usize, workers: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if total == 0 {
        return;
    }
    let workers = workers.clamp(1, total);
    // Contiguous pre-split: worker w owns [w*total/workers, (w+1)*total/workers).
    let spans: Vec<Mutex<Span>> = (0..workers)
        .map(|w| {
            Mutex::new(Span {
                next: w * total / workers,
                end: (w + 1) * total / workers,
            })
        })
        .collect();
    let take_own = |w: usize| -> Option<usize> {
        let mut s = spans[w].lock().expect("no poisoning");
        (s.next < s.end).then(|| {
            s.next += 1;
            s.next - 1
        })
    };
    // Steal one task from the back of the victim with the most left —
    // the back, so the victim's own front-draining is disturbed last.
    let steal = |thief: usize| -> StealOutcome {
        let mut victim: Option<usize> = None;
        let mut most = 0;
        for (v, span) in spans.iter().enumerate() {
            if v == thief {
                continue;
            }
            let left = span.lock().expect("no poisoning").len();
            if left > most {
                most = left;
                victim = Some(v);
            }
        }
        // Re-lock to take: the victim may have drained in between, in
        // which case this steal attempt simply misses and the caller
        // rescans.
        let Some(v) = victim else {
            return StealOutcome::Dry;
        };
        let mut s = spans[v].lock().expect("no poisoning");
        if s.next < s.end {
            s.end -= 1;
            StealOutcome::Took(s.end)
        } else {
            StealOutcome::Raced
        }
    };
    let counters: Vec<Mutex<WorkerCounters>> = (0..workers)
        .map(|_| Mutex::new(WorkerCounters::default()))
        .collect();
    let pool_start = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (take_own, steal, f, counters) = (&take_own, &steal, &f, &counters);
            scope.spawn(move || {
                sais_prof::set_thread_label(&format!("worker{w}"));
                let mut c = WorkerCounters::default();
                // A worker's own span only ever shrinks (front by its own
                // takes, back by thieves), so once drained it stays dry —
                // probe it until then, steal afterwards.
                let mut own_dry = false;
                loop {
                    if !own_dry {
                        if let Some(t) = take_own(w) {
                            let t0 = Instant::now();
                            f(t);
                            c.busy_ns += t0.elapsed().as_nanos() as u64;
                            c.tasks += 1;
                            continue;
                        }
                        own_dry = true;
                        c.span_drains += 1;
                    }
                    match steal(w) {
                        StealOutcome::Took(t) => {
                            c.steals_hit += 1;
                            let t0 = Instant::now();
                            f(t);
                            c.busy_ns += t0.elapsed().as_nanos() as u64;
                            c.tasks += 1;
                        }
                        StealOutcome::Raced => c.steals_missed += 1,
                        // Dry pool: tasks are never re-queued, so nothing
                        // can appear for this worker (in-flight tasks on
                        // other workers are already claimed) — exit.
                        StealOutcome::Dry => break,
                    }
                }
                *counters[w].lock().expect("no poisoning") = c;
            });
        }
    });
    // Idle is charged against the pool's wall clock: everything a worker
    // did that was not running a task, including waiting out the pool's
    // slowest straggler after going dry.
    let wall_ns = pool_start.elapsed().as_nanos() as u64;
    let mut stats = EXEC_STATS.lock().expect("no poisoning");
    stats.pools += 1;
    if stats.workers.len() < workers {
        stats.workers.resize(workers, WorkerCounters::default());
    }
    for (w, c) in counters.iter().enumerate() {
        let mut c = *c.lock().expect("no poisoning");
        c.idle_ns = wall_ns.saturating_sub(c.busy_ns);
        stats.workers[w].merge(&c);
    }
}

/// The host's parallelism: worker count for [`run_indexed`] when the
/// caller has no better bound.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn run_and_count(total: usize, workers: usize) {
        let hits: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
        run_indexed(total, workers, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "task {i} ran exactly once");
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        for workers in [1, 2, 3, 7, 64] {
            run_and_count(100, workers);
        }
    }

    #[test]
    fn more_workers_than_tasks() {
        run_and_count(3, 16);
    }

    #[test]
    fn single_task_and_empty_pool() {
        run_and_count(1, 4);
        run_indexed(0, 4, |_| panic!("no tasks to run"));
    }

    #[test]
    fn fairness_counters_accumulate() {
        // EXEC_STATS is process-global and other tests run pools
        // concurrently, so assert on deltas, not absolutes.
        let sum_tasks = || {
            let s = executor_stats();
            (s.pools, s.workers.iter().map(|w| w.tasks).sum::<u64>())
        };
        let (pools0, tasks0) = sum_tasks();
        run_indexed(23, 3, |_| std::hint::spin_loop());
        let (pools1, tasks1) = sum_tasks();
        assert!(pools1 > pools0, "pool run must be counted");
        assert!(tasks1 >= tasks0 + 23, "all 23 tasks counted across workers");
        let s = executor_stats();
        assert!(s.workers.len() >= 3, "three workers leave three slots");
        for w in &s.workers {
            // Hit + missed steals only happen after a span drain; a worker
            // that stole must have drained its own span at least once.
            if w.steals_hit + w.steals_missed > 0 {
                assert!(w.span_drains > 0);
            }
        }
    }

    #[test]
    fn imbalanced_tasks_get_stolen() {
        // Worker 0's pre-split range holds one slow task followed by many
        // fast ones; with two workers the fast tasks must migrate to the
        // idle worker rather than queue behind the slow one. Detect by
        // wall time: stolen execution overlaps the sleep.
        let t0 = std::time::Instant::now();
        run_indexed(32, 2, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(80));
            }
        });
        // Sequentially-behind-the-sleep would add nothing measurable, so
        // the assertion is only that the whole pool finishes about when
        // the slow task does, not after any serial tail.
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(400),
            "pool stalled behind the slow task: {:?}",
            t0.elapsed()
        );
    }
}
