//! Deterministic cooperative session executor.
//!
//! The cohort servers used to be thread-per-session: one OS thread per
//! player under `catch_unwind`, which caps a simulated node at hundreds
//! of in-flight sessions. This module replaces the *scheduling* with a
//! cooperative model — sessions are explicit [`SessionTask`] state
//! machines that yield at fetch/decode boundaries — while keeping the
//! *decode work* on the work-stealing `parallel_map_indexed` pool. One
//! simulated node now models tens of thousands of in-flight sessions
//! (EXP-18) with byte-identical output.
//!
//! # Determinism argument
//!
//! No tokio, no wall clock, no thread preemption decides anything:
//!
//! * The run queue is polled single-threaded. Its order is a **seeded
//!   shuffle** per tick — deliberately arbitrary, so any accidental
//!   dependence on poll order shows up as a broken replay instead of a
//!   latent bug. All cross-task effects flow through commutative sinks
//!   (atomic counters, windowed series, per-task span recorders sorted
//!   at snapshot) or through the batch phase below.
//! * Fetch requests never touch the link/cache from inside a task.
//!   Each [`Step::Fetch`] is collected by a
//!   [`vgbl_stream::BatchPlanner`], which coalesces one tick's
//!   requests into a sorted, deduplicated [`BatchPlan`] — a pure
//!   function of the request *set*, not its order. The plan is then
//!   resolved once (decodes fan out over `parallel_map_indexed`, which
//!   returns results in index order), and the requesting tasks resume
//!   in the same tick.
//! * Timers ([`EventQueue`]) order strictly by
//!   `(time, class, tie, seq)`: simulated time first, then an explicit
//!   class (so e.g. slot-free events outrank arrivals at the same
//!   instant), then a caller tie-break, then insertion order. There are
//!   no equal keys, so heap behaviour is never visible.
//! * A panicking task is caught **per poll**, retired as a `Failed`
//!   row, and its spans still flush — the same isolation contract the
//!   thread-per-session path made, without the thread.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use vgbl_obs::{Obs, SeriesSpec};
use vgbl_stream::{BatchPlan, BatchPlanner};

use crate::server::panic_reason;
use crate::supervisor::mix;

// ---------------------------------------------------------------------------
// Simulated time + event queue
// ---------------------------------------------------------------------------

/// A simulated clock value usable as an [`EventQueue`] key. Implemented
/// for `u64` (microsecond ticks) and `f64` (millisecond clocks, ordered
/// by `total_cmp`; simulation clocks are always finite).
pub trait SimTime: Copy {
    /// Total order on clock values.
    fn cmp_total(self, other: Self) -> Ordering;
}

impl SimTime for u64 {
    fn cmp_total(self, other: u64) -> Ordering {
        self.cmp(&other)
    }
}

impl SimTime for f64 {
    fn cmp_total(self, other: f64) -> Ordering {
        self.total_cmp(&other)
    }
}

/// An event popped from an [`EventQueue`]: the scheduled time, the
/// ordering key parts, and the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timed<T, K> {
    /// Scheduled simulated time.
    pub at: T,
    /// Ordering class: lower classes fire first at equal times.
    pub class: u8,
    /// Caller tie-break within a class (e.g. a slot index).
    pub tie: u64,
    /// Payload scheduled by the caller.
    pub payload: K,
}

struct QEntry<T, K> {
    at: T,
    class: u8,
    tie: u64,
    seq: u64,
    payload: K,
}

impl<T: SimTime, K> QEntry<T, K> {
    fn key_cmp(&self, other: &QEntry<T, K>) -> Ordering {
        self.at
            .cmp_total(other.at)
            .then(self.class.cmp(&other.class))
            .then(self.tie.cmp(&other.tie))
            .then(self.seq.cmp(&other.seq))
    }
}

impl<T: SimTime, K> PartialEq for QEntry<T, K> {
    fn eq(&self, other: &QEntry<T, K>) -> bool {
        self.key_cmp(other) == Ordering::Equal
    }
}

impl<T: SimTime, K> Eq for QEntry<T, K> {}

impl<T: SimTime, K> PartialOrd for QEntry<T, K> {
    fn partial_cmp(&self, other: &QEntry<T, K>) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: SimTime, K> Ord for QEntry<T, K> {
    fn cmp(&self, other: &QEntry<T, K>) -> Ordering {
        self.key_cmp(other)
    }
}

/// A deterministic simulated-time event heap ordered by
/// `(time, class, tie, seq)`. `seq` is the insertion index, so entries
/// with otherwise-equal keys fire in push order and the heap's internal
/// layout is never observable. The supervisor's slot stepping and the
/// fleet's segment/fault/control events both run on this queue.
#[derive(Default)]
pub struct EventQueue<T: SimTime, K> {
    heap: BinaryHeap<Reverse<QEntry<T, K>>>,
    seq: u64,
}

impl<T: SimTime, K> EventQueue<T, K> {
    /// An empty queue.
    pub fn new() -> EventQueue<T, K> {
        EventQueue { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedules `payload` at `at` with class 0 and tie 0.
    pub fn push(&mut self, at: T, payload: K) {
        self.push_keyed(at, 0, 0, payload);
    }

    /// Schedules `payload` at `at` with an explicit ordering class and
    /// tie-break.
    pub fn push_keyed(&mut self, at: T, class: u8, tie: u64, payload: K) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(QEntry { at, class, tie, seq, payload }));
    }

    /// The earliest scheduled time, if any.
    pub fn peek_at(&self) -> Option<T> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// The earliest event's time and payload, without removing it.
    pub fn peek(&self) -> Option<(T, &K)> {
        self.heap.peek().map(|Reverse(e)| (e.at, &e.payload))
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Timed<T, K>> {
        self.heap.pop().map(|Reverse(e)| Timed {
            at: e.at,
            class: e.class,
            tie: e.tie,
            payload: e.payload,
        })
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Cooperative session tasks
// ---------------------------------------------------------------------------

/// What a [`SessionTask`] asks of the executor after one poll.
#[derive(Debug)]
pub enum Step<K, R> {
    /// Yield; poll again next tick.
    Pending,
    /// The task needs `key` fetched/decoded before it can continue;
    /// the executor batches the tick's requests, resolves them once,
    /// and re-polls the task in the same tick.
    Fetch(K),
    /// The task finished with `output` and will not be polled again.
    Done(R),
}

/// A session as an explicit cooperative state machine.
///
/// Contract: a poll that returned [`Step::Fetch`] must, on the re-poll
/// after the batch resolves, make progress (serve, conceal or fail)
/// rather than unconditionally re-requesting — the executor resolves
/// any number of fetch rounds per tick, so a task that never progresses
/// would spin the tick forever.
pub trait SessionTask {
    /// Batchable fetch key (e.g. a GOP keyframe index).
    type Fetch: Ord + Copy;
    /// Per-session success value.
    type Output;

    /// Runs the task up to its next yield point. May panic; the
    /// executor isolates the panic to this task.
    fn poll(&mut self) -> Step<Self::Fetch, std::result::Result<Self::Output, String>>;

    /// Called exactly once when the task retires (done, failed or
    /// panicked): flush observability state here, never in `poll`.
    fn flush(&mut self) {}
}

/// Counters the executor accumulates over a cohort run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Scheduler ticks executed.
    pub ticks: u64,
    /// Task polls performed.
    pub polls: u64,
    /// Batch-fetch rounds resolved.
    pub batches: u64,
    /// Unique keys across all batch rounds.
    pub batched_keys: u64,
    /// Most tasks simultaneously in flight at the top of any tick.
    pub peak_in_flight: usize,
    /// Task polls that panicked (each retires its task).
    pub panics: u64,
}

/// Outcome of [`run_tasks`]: one row per task in index order, plus the
/// executor's counters.
#[derive(Debug)]
pub struct CohortRun<R> {
    /// `rows[i]` is task `i`'s result: `Ok` on completion, `Err` with
    /// the error display or panic message otherwise. Always `Some` —
    /// the executor never loses a task.
    pub rows: Vec<Option<std::result::Result<R, String>>>,
    /// Scheduler counters.
    pub stats: ExecutorStats,
}

/// Deterministic Fisher–Yates shuffle of this tick's run queue, seeded
/// by `(seed, tick)`. The draws are the splitmix64 stream: `mix` of a
/// state that advances by the golden-ratio increment after each draw.
fn shuffle_queue(queue: &mut [usize], seed: u64, tick: u64) {
    let mut state = seed ^ tick.wrapping_mul(0x2545_f491_4f6c_dd1d);
    for i in (1..queue.len()).rev() {
        let j = (mix(state) % (i as u64 + 1)) as usize;
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        queue.swap(i, j);
    }
}

/// One simulated tick of executor time, in microseconds, for the
/// per-tick series. The executor has no external clock; its tick index
/// *is* the clock, scaled so series bins line up with the registry's
/// microsecond convention.
const TICK_US: u64 = 1_000;

/// Runs a cohort of [`SessionTask`]s to completion on the cooperative
/// executor.
///
/// Per tick: every live task is polled once in seeded-shuffle order;
/// tasks that yielded [`Step::Fetch`] have their keys coalesced into a
/// [`BatchPlan`] handed to `fetch_batch` (which typically prewarms a
/// shared cache through `parallel_map_indexed`), then resume within the
/// tick. Tasks that yielded [`Step::Pending`] sleep until the next
/// tick. Panics retire the offending task only.
///
/// `obs` receives an `executor.run_queue_depth` high-water gauge, an
/// `executor.fetch_batch_size` histogram (one sample per coalesced
/// batch round), and an `executor.polled_tasks` per-tick series on the
/// tick clock. With [`Obs::noop`] every tap is a single branch.
pub fn run_tasks<S, R, F>(
    mut tasks: Vec<S>,
    seed: u64,
    mut fetch_batch: F,
    obs: &Obs,
) -> CohortRun<R>
where
    S: SessionTask<Output = R>,
    F: FnMut(&BatchPlan<S::Fetch>),
{
    let l: &[(&'static str, &'static str)] = &[("pillar", "runtime")];
    let queue_depth = obs.gauge("executor.run_queue_depth", l);
    let batch_size = obs.histogram("executor.fetch_batch_size", l);
    let polled = obs.series(SeriesSpec::counter("executor.polled_tasks", TICK_US, 4096));
    let n = tasks.len();
    let mut rows: Vec<Option<std::result::Result<R, String>>> = (0..n).map(|_| None).collect();
    let mut stats = ExecutorStats::default();
    let mut planner: BatchPlanner<S::Fetch> = BatchPlanner::new();
    let mut live: Vec<usize> = (0..n).collect();
    let mut tick = 0u64;
    while !live.is_empty() {
        stats.ticks += 1;
        stats.peak_in_flight = stats.peak_in_flight.max(live.len());
        queue_depth.observe(live.len() as u64);
        let polls_before = stats.polls;
        shuffle_queue(&mut live, seed, tick);
        let mut runnable = std::mem::take(&mut live);
        let mut next: Vec<usize> = Vec::new();
        // Fetch rounds within the tick: poll, batch, resolve, re-poll
        // the fetchers — until the tick quiesces.
        loop {
            let mut fetchers: Vec<usize> = Vec::new();
            for idx in runnable.drain(..) {
                stats.polls += 1;
                match catch_unwind(AssertUnwindSafe(|| tasks[idx].poll())) {
                    Ok(Step::Pending) => next.push(idx),
                    Ok(Step::Fetch(key)) => {
                        planner.request(idx as u64, key);
                        fetchers.push(idx);
                    }
                    Ok(Step::Done(row)) => {
                        rows[idx] = Some(row);
                        tasks[idx].flush();
                    }
                    Err(payload) => {
                        stats.panics += 1;
                        rows[idx] = Some(Err(panic_reason(payload)));
                        tasks[idx].flush();
                    }
                }
            }
            if fetchers.is_empty() {
                break;
            }
            let plan = planner.take_plan();
            stats.batches += 1;
            stats.batched_keys += plan.len() as u64;
            batch_size.record(plan.len() as u64);
            fetch_batch(&plan);
            runnable = fetchers;
        }
        polled.record(tick * TICK_US, stats.polls - polls_before);
        // Canonical order between ticks; the next tick re-shuffles.
        next.sort_unstable();
        live = next;
        tick += 1;
    }
    CohortRun { rows, stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executor_event_queue_orders_by_time_class_tie_seq() {
        let mut q: EventQueue<u64, &'static str> = EventQueue::new();
        q.push_keyed(10, 1, 0, "t10-c1");
        q.push_keyed(10, 0, 5, "t10-c0-tie5");
        q.push_keyed(10, 0, 2, "t10-c0-tie2");
        q.push_keyed(3, 9, 9, "t3");
        q.push_keyed(10, 0, 2, "t10-c0-tie2-later");
        assert_eq!(q.peek_at(), Some(3));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(
            order,
            vec!["t3", "t10-c0-tie2", "t10-c0-tie2-later", "t10-c0-tie5", "t10-c1"]
        );
    }

    #[test]
    fn executor_event_queue_orders_f64_times_totally() {
        let mut q: EventQueue<f64, u32> = EventQueue::new();
        q.push(1.5, 1);
        q.push(0.25, 0);
        q.push(1.5, 2);
        let order: Vec<(f64, u32)> =
            std::iter::from_fn(|| q.pop().map(|e| (e.at, e.payload))).collect();
        assert_eq!(order, vec![(0.25, 0), (1.5, 1), (1.5, 2)]);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    /// Counts down `ticks` yields, optionally demanding one fetch of
    /// `key` per step, then finishes with its poll count.
    struct CountTask {
        remaining: u32,
        key: Option<u32>,
        fetching: bool,
        polls: u32,
        panic_at: Option<u32>,
    }

    impl SessionTask for CountTask {
        type Fetch = u32;
        type Output = u32;

        fn poll(&mut self) -> Step<u32, std::result::Result<u32, String>> {
            self.polls += 1;
            if Some(self.polls) == self.panic_at {
                panic!("count task blew up");
            }
            if self.fetching {
                self.fetching = false;
                self.remaining -= 1;
                return if self.remaining == 0 {
                    Step::Done(Ok(self.polls))
                } else {
                    Step::Pending
                };
            }
            if self.remaining == 0 {
                return Step::Done(Ok(self.polls));
            }
            if let Some(k) = self.key {
                self.fetching = true;
                Step::Fetch(k)
            } else {
                self.remaining -= 1;
                if self.remaining == 0 {
                    Step::Done(Ok(self.polls))
                } else {
                    Step::Pending
                }
            }
        }
    }

    fn counting(remaining: u32, key: Option<u32>) -> CountTask {
        CountTask { remaining, key, fetching: false, polls: 0, panic_at: None }
    }

    #[test]
    fn executor_runs_cohort_to_completion_in_index_order() {
        let tasks: Vec<CountTask> = (1..=5).map(|i| counting(i, None)).collect();
        let run = run_tasks(tasks, 7, |_plan: &BatchPlan<u32>| {}, &Obs::noop());
        assert_eq!(run.rows.len(), 5);
        for (i, row) in run.rows.iter().enumerate() {
            let polls = row.as_ref().unwrap().as_ref().unwrap();
            assert_eq!(*polls, i as u32 + 1, "task {i} finishes after its count");
        }
        assert_eq!(run.stats.peak_in_flight, 5);
        assert_eq!(run.stats.ticks, 5, "longest task needs 5 ticks");
        assert_eq!(run.stats.batches, 0);
    }

    #[test]
    fn executor_output_is_independent_of_run_queue_seed() {
        let run = |seed: u64| {
            let tasks: Vec<CountTask> = (1..=8).map(|i| counting(i, Some(i % 3))).collect();
            let mut plans: Vec<Vec<u32>> = Vec::new();
            let run = run_tasks(
                tasks,
                seed,
                |plan: &BatchPlan<u32>| plans.push(plan.keys.clone()),
                &Obs::noop(),
            );
            let rows: Vec<u32> =
                run.rows.iter().map(|r| *r.as_ref().unwrap().as_ref().unwrap()).collect();
            (rows, plans)
        };
        // The seeded shuffle changes poll order; results and batch
        // plans must not change (plans are sets, not sequences).
        assert_eq!(run(1), run(0xdead_beef));
    }

    #[test]
    fn executor_coalesces_fetches_within_a_tick() {
        // 6 tasks all needing key 42 every step: one batched key per
        // fetch round, not six.
        let tasks: Vec<CountTask> = (0..6).map(|_| counting(3, Some(42))).collect();
        let mut seen = Vec::new();
        let run = run_tasks(
            tasks,
            3,
            |plan: &BatchPlan<u32>| {
                seen.push((plan.keys.clone(), plan.waiters.iter().map(Vec::len).sum::<usize>()));
            },
            &Obs::noop(),
        );
        assert_eq!(run.stats.batches, 3, "one fetch round per step");
        assert_eq!(run.stats.batched_keys, 3);
        for (keys, waiters) in seen {
            assert_eq!(keys, vec![42]);
            assert_eq!(waiters, 6, "all six tasks coalesced onto the key");
        }
    }

    #[test]
    fn executor_isolates_a_panicking_task() {
        let mut tasks: Vec<CountTask> = (0..4).map(|_| counting(4, None)).collect();
        tasks[2].panic_at = Some(2);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let run = run_tasks(tasks, 11, |_plan: &BatchPlan<u32>| {}, &Obs::noop());
        std::panic::set_hook(prev);
        assert_eq!(run.stats.panics, 1);
        for (i, row) in run.rows.iter().enumerate() {
            let row = row.as_ref().unwrap();
            if i == 2 {
                let reason = row.as_ref().unwrap_err();
                assert!(reason.contains("count task blew up"), "{reason}");
            } else {
                assert!(row.is_ok(), "task {i} unaffected");
            }
        }
    }

    #[test]
    fn executor_observed_taps_mirror_stats() {
        let obs = Obs::recording();
        let tasks: Vec<CountTask> = (1..=6).map(|i| counting(i, Some(i % 2))).collect();
        let polled = obs.series(SeriesSpec::counter("executor.polled_tasks", TICK_US, 4096));
        let run = run_tasks(tasks, 5, |_plan: &BatchPlan<u32>| {}, &obs);
        let snap = obs.snapshot();
        assert_eq!(
            snap.gauge_max("executor.run_queue_depth"),
            run.stats.peak_in_flight as u64,
            "gauge high-water is the peak run-queue depth"
        );
        let h = snap.histogram("executor.fetch_batch_size").expect("batch histogram recorded");
        assert_eq!(h.count, run.stats.batches, "one batch-size sample per fetch round");
        assert_eq!(h.sum, run.stats.batched_keys, "batch sizes sum to the batched keys");
        assert_eq!(
            polled.totals().sum,
            run.stats.polls,
            "per-tick polled series sums to the poll counter"
        );

        // The unobserved path is byte-identical: same rows, same stats.
        let tasks: Vec<CountTask> = (1..=6).map(|i| counting(i, Some(i % 2))).collect();
        let plain = run_tasks(tasks, 5, |_plan: &BatchPlan<u32>| {}, &Obs::noop());
        let rows = |r: &CohortRun<u32>| -> Vec<Option<std::result::Result<u32, String>>> {
            r.rows.clone()
        };
        assert_eq!(rows(&plain), rows(&run));
        assert_eq!(plain.stats, run.stats);
    }

    #[test]
    fn executor_shuffle_is_a_permutation() {
        let mut q: Vec<usize> = (0..97).collect();
        shuffle_queue(&mut q, 0xfeed, 12);
        let mut sorted = q.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..97).collect::<Vec<_>>());
        // Identical (seed, tick) reproduces the permutation; a
        // different tick permutes differently.
        let mut q2: Vec<usize> = (0..97).collect();
        shuffle_queue(&mut q2, 0xfeed, 12);
        assert_eq!(q, q2);
        let mut q3: Vec<usize> = (0..97).collect();
        shuffle_queue(&mut q3, 0xfeed, 13);
        assert_ne!(q, q3);
    }

    #[test]
    fn executor_shuffle_order_is_pinned() {
        // Cohort outputs are independent of poll order by design, so no
        // output test notices a changed shuffle; this pins the order.
        let mut q: Vec<usize> = (0..16).collect();
        shuffle_queue(&mut q, 0xfeed, 12);
        assert_eq!(q, vec![1, 5, 9, 3, 2, 7, 12, 8, 0, 10, 15, 4, 6, 14, 13, 11]);
    }
}
