//! The fixed work-stealing thread pool epoch scheduling runs on, and
//! the pool executor of the epoch-round planner.
//!
//! The paper's prototyping platform runs *one* session; a fleet service
//! runs hundreds. [`FleetPool`] gives them a fixed worker population:
//! epoch rounds are *work items*, and however many sessions are in
//! flight, host parallelism stays bounded by the worker count.
//!
//! [`FleetPool::submit_epoch_rounds`] runs one shard set on the pool:
//! one job per live shard per round, no thread spawned per round. The
//! job that finishes a round performs the barrier exchange and queues
//! the planning of the next round. Every decision is
//! [`plan_epoch_round`], the same procedure
//! the inline executor [`run_epoch_rounds`](crate::run_epoch_rounds)
//! runs, so the pooled schedule is bit-identical to it whenever shards
//! touch no shared mutable state inside an epoch. The fleet service
//! submits M sessions concurrently; [`FleetPool::run_epoch_rounds`]
//! and [`run_epochs_pooled`] are the blocking single-session entries.
//!
//! Stealing discipline: every worker owns a deque and pops its own work
//! LIFO (a worker that just finished a shard round keeps the cache-hot
//! session); idle workers steal FIFO from the external injector queue
//! and then from their peers, oldest item first — so one long-running
//! session cannot starve the rest of the fleet. Jobs a worker spawns
//! land on its own deque; external spawns land on the injector.

use crate::{
    plan_epoch_round, run_shard_to_deadline, ExecutionEngine, Limit, RoundPlan, ShardState,
    StopCause,
};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread;

/// Locks a pool-internal mutex, recovering from poison. The pool's
/// shared state (job deques, the wake generation, latch counters) is
/// a plain collection of values with no multi-step invariants, so the
/// state behind a poisoned lock is still coherent — a panicking *job*
/// must not take the whole worker population down with it.
fn lock_ok<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One unit of pool work (an epoch round of one shard, a batch driver's
/// bookkeeping step, …).
type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// The pool this thread is a worker of, if any — lets jobs spawned
    /// from inside a worker land on the worker's own deque (stolen only
    /// when a peer goes idle).
    static WORKER: std::cell::RefCell<Option<(Weak<PoolCore>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// Shared state of a [`FleetPool`]: the deques, the sleep gate and the
/// shutdown flag. Jobs hold an `Arc` of this so they can schedule
/// follow-up work (a pooled run pushes its next round from the job
/// that completed the last).
struct PoolCore {
    /// One deque per worker, then the injector queue last.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Guards sleeping: pushes bump the generation under this lock, so
    /// a worker that re-checks the queues under it cannot miss a wake.
    gate: Mutex<u64>,
    wake: Condvar,
    shutdown: AtomicBool,
}

impl PoolCore {
    /// Enqueues jobs, under one lock and one wake-up: onto the current
    /// worker's own deque when called from inside this pool, onto the
    /// injector otherwise.
    fn push(self: &Arc<Self>, jobs: impl IntoIterator<Item = Job>) {
        let slot = WORKER.with(|w| {
            w.borrow()
                .as_ref()
                .and_then(|(core, id)| (Weak::as_ptr(core) == Arc::as_ptr(self)).then_some(*id))
        });
        let q = slot.unwrap_or(self.queues.len() - 1);
        lock_ok(&self.queues[q]).extend(jobs);
        let mut generation = lock_ok(&self.gate);
        *generation += 1;
        drop(generation);
        self.wake.notify_all();
    }

    /// Own deque LIFO, then injector and peers FIFO.
    fn grab(&self, id: usize) -> Option<Job> {
        if let Some(job) = lock_ok(&self.queues[id]).pop_back() {
            return Some(job);
        }
        let n = self.queues.len();
        // Start at the injector (index n-1), then sweep the peers.
        for step in 0..n {
            let q = (n - 1 + step) % n;
            if q == id {
                continue;
            }
            if let Some(job) = lock_ok(&self.queues[q]).pop_front() {
                return Some(job);
            }
        }
        None
    }

    fn has_work(&self) -> bool {
        self.queues.iter().any(|q| !lock_ok(q).is_empty())
    }

    fn worker(self: Arc<Self>, id: usize) {
        WORKER.with(|w| *w.borrow_mut() = Some((Arc::downgrade(&self), id)));
        loop {
            if let Some(job) = self.grab(id) {
                // A panicking job must not kill the worker: the pool
                // would silently lose capacity (and, once every worker
                // died, deadlock the latch-waiting coordinator). The
                // session the job belonged to reports the failure
                // through its own outcome slot; the worker moves on.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                continue;
            }
            let generation = lock_ok(&self.gate);
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            // Re-check under the gate: a push between `grab` and the
            // lock bumped the generation and must not be slept through.
            if self.has_work() {
                continue;
            }
            drop(
                self.wake
                    .wait(generation)
                    .unwrap_or_else(PoisonError::into_inner),
            );
        }
    }
}

/// A fixed pool of worker threads executing epoch-scheduling work items.
///
/// Dropping the pool shuts it down: workers finish the jobs already
/// queued, then exit and are joined. [`FleetPool::spawn`] is the raw
/// entry; [`FleetPool::submit_epoch_rounds`] schedules shard sets.
pub struct FleetPool {
    core: Arc<PoolCore>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl FleetPool {
    /// A pool of `workers` threads (clamped to ≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if the host refuses to spawn even a single worker thread
    /// (a pool with no workers would queue jobs nobody ever runs).
    pub fn new(workers: usize) -> FleetPool {
        let workers = workers.max(1);
        let core = Arc::new(PoolCore {
            queues: (0..=workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            gate: Mutex::new(0),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        // A host refusing threads mid-loop degrades the pool to the
        // workers it did get — queues of spawn-failed slots are still
        // drained by the survivors via stealing. Only a host that
        // grants *no* threads at all is unrecoverable: every spawn()
        // would queue work nobody runs, so fail loudly up front.
        let handles: Vec<_> = (0..workers)
            .filter_map(|id| {
                let core = Arc::clone(&core);
                thread::Builder::new()
                    .name(format!("fleet-worker-{id}"))
                    .spawn(move || core.worker(id))
                    .ok()
            })
            .collect();
        assert!(
            !handles.is_empty(),
            "fleet pool: the host refused to spawn even one worker thread"
        );
        FleetPool { core, handles }
    }

    /// A pool sized to the host's available parallelism.
    pub fn with_host_parallelism() -> FleetPool {
        let workers = thread::available_parallelism().map_or(1, std::num::NonZero::get);
        FleetPool::new(workers)
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Enqueues a job for execution on some worker.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.core.push([Box::new(job) as Job]);
    }
}

impl Drop for FleetPool {
    fn drop(&mut self) {
        self.core.shutdown.store(true, Ordering::Release);
        {
            let mut generation = lock_ok(&self.core.gate);
            *generation += 1;
        }
        self.core.wake.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A countdown latch: the coordinator waits until `n` completions have
/// been counted down — how batch drivers block on a fleet of
/// event-driven sessions without polling.
pub struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    /// A latch expecting `n` completions.
    pub fn new(n: usize) -> Latch {
        Latch {
            remaining: Mutex::new(n),
            done: Condvar::new(),
        }
    }

    /// Records one completion.
    pub fn count_down(&self) {
        let mut remaining = lock_ok(&self.remaining);
        *remaining = remaining.saturating_sub(1);
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every expected completion has been counted down.
    pub fn wait(&self) {
        let mut remaining = lock_ok(&self.remaining);
        while *remaining > 0 {
            remaining = self
                .done
                .wait(remaining)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

// --- the pool executor of the epoch-round planner -----------------------

/// Panic payload of a shard job (or barrier hook) of a pooled run.
pub type Panic = Box<dyn Any + Send + 'static>;

/// Result of a pooled run: the shards and barrier context move into
/// the run (they cross worker threads, and the workspace forbids
/// `unsafe`, so scoped borrowing is not an option) and come back here.
pub struct PooledOutcome<E: ExecutionEngine, C> {
    /// The shard engines, in shard order, at their final states.
    pub shards: Vec<E>,
    /// The barrier context handed to the barrier hook (e.g. a shard
    /// arbiter).
    pub ctx: C,
    /// Why the run stopped, or the fault of the lowest-numbered
    /// faulting shard.
    pub stop: Result<StopCause, E::Error>,
}

type BarrierFn<E, C> = Box<dyn FnMut(&mut C, &[MutexGuard<'_, E>]) + Send>;
type DoneFn<E, C> = Box<dyn FnOnce(Result<PooledOutcome<E, C>, Panic>) + Send>;

/// Shared state of one pooled run, held by every job of the run. The
/// run completes when the last handle drops: [`Drop`] hands the shards,
/// the context and the stop cause to the completion callback, so the
/// callback fires exactly once however the run ended.
struct PooledRun<E: ExecutionEngine, C> {
    shards: Vec<Mutex<E>>,
    /// The barrier context (`None` once handed back) and hook.
    barrier: Mutex<(Option<C>, BarrierFn<E, C>)>,
    on_done: Mutex<Option<DoneFn<E, C>>>,
    /// Shard jobs still running in the current round; the job that
    /// takes this to zero runs the barrier.
    remaining: AtomicUsize,
    /// Lowest-numbered shard fault of the failing round, if any.
    fault: Mutex<Option<(usize, E::Error)>>,
    /// First panic payload of a shard job or barrier hook.
    panic: Mutex<Option<Panic>>,
    stop: Mutex<Option<StopCause>>,
    limit: Limit,
    epoch: u64,
    /// `false` suppresses the planner's in-round boundary-halt commits.
    commit_boundary_halts: bool,
}

fn take<T>(m: &mut Mutex<Option<T>>) -> Option<T> {
    m.get_mut().unwrap_or_else(PoisonError::into_inner).take()
}

impl<E, C> PooledRun<E, C>
where
    E: ExecutionEngine + Send + 'static,
    E::Error: Send + 'static,
    C: Send + 'static,
{
    fn new(
        shards: Vec<E>,
        ctx: C,
        limit: Limit,
        epoch: u64,
        commit_boundary_halts: bool,
        on_barrier: BarrierFn<E, C>,
        on_done: DoneFn<E, C>,
    ) -> Arc<Self> {
        Arc::new(PooledRun {
            shards: shards.into_iter().map(Mutex::new).collect(),
            barrier: Mutex::new((Some(ctx), on_barrier)),
            on_done: Mutex::new(Some(on_done)),
            remaining: AtomicUsize::new(0),
            fault: Mutex::new(None),
            panic: Mutex::new(None),
            stop: Mutex::new(None),
            limit,
            epoch,
            commit_boundary_halts,
        })
    }

    /// Plans the next round: either records the stop cause — the run
    /// then completes as the last handle drops — or pushes one job per
    /// live shard. No job of this run is in flight here, so every lock
    /// is uncontended.
    fn plan(self: Arc<Self>, core: &Arc<PoolCore>) {
        let planned = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let states: Vec<ShardState> = self
                .shards
                .iter()
                .map(|s| ShardState::of(&*lock_ok(s)))
                .collect();
            let plan = plan_epoch_round(&states, self.limit, self.epoch);
            if plan == RoundPlan::Done(StopCause::Halted) {
                for s in &self.shards {
                    lock_ok(s).commit_arch_state();
                }
            }
            plan
        }));
        match planned {
            Err(payload) => self.record_panic(payload),
            Ok(RoundPlan::Done(stop)) => *lock_ok(&self.stop) = Some(stop),
            Ok(RoundPlan::Round {
                deadline,
                commit_boundary_halts,
                live,
            }) => {
                let commit = commit_boundary_halts && self.commit_boundary_halts;
                // Set before the first push: the round cannot complete
                // until every one of its jobs has been pushed and run.
                self.remaining.store(live.len(), Ordering::Release);
                core.push(live.into_iter().map(|idx| {
                    let (run, job_core) = (Arc::clone(&self), Arc::clone(core));
                    Box::new(move || run.shard_job(&job_core, idx, deadline, commit)) as Job
                }));
            }
        }
    }

    /// One shard's slice of a round. The job that completes the round
    /// runs the barrier and pushes the planning of the next round as a
    /// job of its own, so a long run never grows the stack.
    fn shard_job(self: Arc<Self>, core: &Arc<PoolCore>, idx: usize, deadline: u64, commit: bool) {
        let ran = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_shard_to_deadline(&mut *lock_ok(&self.shards[idx]), deadline, commit)
        }));
        match ran {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                // Deterministic fault report: the lowest-numbered
                // faulting shard wins, whatever order the jobs
                // finished in.
                let mut fault = lock_ok(&self.fault);
                if fault.as_ref().is_none_or(|&(winner, _)| idx < winner) {
                    *fault = Some((idx, e));
                }
            }
            Err(payload) => self.record_panic(payload),
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        // A faulting round ends the run without its barrier.
        if lock_ok(&self.fault).is_some() || lock_ok(&self.panic).is_some() {
            return;
        }
        let barrier = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let shards: Vec<MutexGuard<'_, E>> = self.shards.iter().map(lock_ok).collect();
            let (ctx, on_barrier) = &mut *lock_ok(&self.barrier);
            if let Some(ctx) = ctx {
                on_barrier(ctx, &shards);
            }
        }));
        match barrier {
            Err(payload) => self.record_panic(payload),
            // Not planned inline: measured on a 2-core host, inline
            // planning left the second worker asleep for whole rounds,
            // and 64-shard runs took ~40% longer than with this hop.
            Ok(()) => {
                let plan_core = Arc::clone(core);
                core.push([Box::new(move || self.plan(&plan_core)) as Job]);
            }
        }
    }

    fn record_panic(&self, payload: Panic) {
        lock_ok(&self.panic).get_or_insert(payload);
    }
}

impl<E: ExecutionEngine, C> Drop for PooledRun<E, C> {
    fn drop(&mut self) {
        let Some(on_done) = take(&mut self.on_done) else {
            return;
        };
        let outcome = match take(&mut self.panic) {
            Some(payload) => Err(payload),
            None => match (take(&mut self.fault), take(&mut self.stop)) {
                (Some((_, e)), _) => Ok(Err(e)),
                (None, Some(stop)) => Ok(Ok(stop)),
                (None, None) => Err(Box::new("pooled run ended without a stop cause") as Panic),
            },
        };
        // A fresh vector, not an in-place `collect`: shrinking the
        // shards' allocation in place here, on a pool worker, measured
        // slower on a 2-core host — in the next run and at pool
        // teardown (~0.5 ms per worker exit).
        let mut shards = Vec::with_capacity(self.shards.len());
        for shard in std::mem::take(&mut self.shards) {
            shards.push(shard.into_inner().unwrap_or_else(PoisonError::into_inner));
        }
        let outcome = outcome.map(|stop| PooledOutcome {
            shards,
            ctx: lock_ok(&self.barrier)
                .0
                .take()
                .expect("the barrier context is handed back once"),
            stop,
        });
        on_done(outcome);
    }
}

impl FleetPool {
    /// Starts a shard set's epoch rounds on the pool and returns at
    /// once: the pool executor of [`plan_epoch_round`]. Each round's
    /// live shards run as one job each; the job that completes a round
    /// runs `on_barrier` over the context and every shard (read-only,
    /// in shard order), then queues the planning of the next round. Any
    /// number of runs share the pool concurrently.
    ///
    /// `on_done` fires exactly once, on whichever thread finishes the
    /// run: with the [`PooledOutcome`], or with the panic payload of a
    /// shard job or barrier hook that panicked (the pool survives it).
    /// The simulation is bit-identical to
    /// [`run_epoch_rounds`](crate::run_epoch_rounds) whenever shards
    /// touch no shared mutable state inside an epoch.
    pub fn submit_epoch_rounds<E, C>(
        &self,
        shards: Vec<E>,
        ctx: C,
        limit: Limit,
        epoch: u64,
        on_barrier: impl FnMut(&mut C, &[MutexGuard<'_, E>]) + Send + 'static,
        on_done: impl FnOnce(Result<PooledOutcome<E, C>, Panic>) + Send + 'static,
    ) where
        E: ExecutionEngine + Send + 'static,
        E::Error: Send + 'static,
        C: Send + 'static,
    {
        let run = PooledRun::new(
            shards,
            ctx,
            limit,
            epoch,
            true,
            Box::new(on_barrier),
            Box::new(on_done),
        );
        run.plan(&self.core);
    }

    /// [`FleetPool::submit_epoch_rounds`], blocking the calling thread
    /// until the run completes.
    ///
    /// # Panics
    ///
    /// Re-raises a shard job's panic on the calling thread.
    pub fn run_epoch_rounds<E, C>(
        &self,
        shards: Vec<E>,
        ctx: C,
        limit: Limit,
        epoch: u64,
        on_barrier: impl FnMut(&mut C, &[MutexGuard<'_, E>]) + Send + 'static,
    ) -> PooledOutcome<E, C>
    where
        E: ExecutionEngine + Send + 'static,
        E::Error: Send + 'static,
        C: Send + 'static,
    {
        run_blocking(self, shards, ctx, limit, epoch, true, Box::new(on_barrier))
    }
}

fn run_blocking<E, C>(
    pool: &FleetPool,
    shards: Vec<E>,
    ctx: C,
    limit: Limit,
    epoch: u64,
    commit_boundary_halts: bool,
    on_barrier: BarrierFn<E, C>,
) -> PooledOutcome<E, C>
where
    E: ExecutionEngine + Send + 'static,
    E::Error: Send + 'static,
    C: Send + 'static,
{
    let done = Arc::new((Mutex::new(None), Latch::new(1)));
    let slot = Arc::clone(&done);
    let on_done: DoneFn<E, C> = Box::new(move |outcome| {
        *lock_ok(&slot.0) = Some(outcome);
        slot.1.count_down();
    });
    PooledRun::new(
        shards,
        ctx,
        limit,
        epoch,
        commit_boundary_halts,
        on_barrier,
        on_done,
    )
    .plan(&pool.core);
    done.1.wait();
    let outcome = lock_ok(&done.0).take();
    match outcome.expect("a pooled run always reports its outcome") {
        Ok(outcome) => outcome,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// [`FleetPool::run_epoch_rounds`] under a cycle budget on the
/// frontier clock, with a barrier hook over the context alone — the
/// pooled twin of [`run_epochs_sharded`](crate::run_epochs_sharded).
/// With `commit_boundary_halts` false, shards halting exactly on a
/// round deadline are committed only once the whole set has halted.
///
/// # Panics
///
/// Re-raises a shard job's panic on the calling thread.
pub fn run_epochs_pooled<E, C, F>(
    pool: &FleetPool,
    shards: Vec<E>,
    ctx: C,
    max_cycles: u64,
    epoch: u64,
    commit_boundary_halts: bool,
    mut on_epoch: F,
) -> PooledOutcome<E, C>
where
    E: ExecutionEngine + Send + 'static,
    E::Error: Send + 'static,
    C: Send + 'static,
    F: FnMut(&mut C) + Send + 'static,
{
    run_blocking(
        pool,
        shards,
        ctx,
        Limit::Cycles(max_cycles),
        epoch,
        commit_boundary_halts,
        Box::new(move |ctx: &mut C, _: &[MutexGuard<'_, E>]| on_epoch(ctx)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{shardling, Boom, Shardling};
    use crate::{aggregate_stats, run_epoch_rounds, EngineStats};
    use std::sync::mpsc;

    #[test]
    fn pool_runs_every_job_exactly_once() {
        let pool = FleetPool::new(4);
        let hits = Arc::new(AtomicUsize::new(0));
        let latch = Arc::new(Latch::new(100));
        for _ in 0..100 {
            let (hits, latch) = (Arc::clone(&hits), Arc::clone(&latch));
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::Relaxed);
                latch.count_down();
            });
        }
        latch.wait();
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn jobs_spawned_from_workers_run_and_steal_across_workers() {
        // A chain of follow-up jobs spawned from inside worker threads —
        // the shape of the event-driven epoch scheduler.
        let pool = FleetPool::new(3);
        let latch = Arc::new(Latch::new(1));
        let core = Arc::clone(&pool.core);
        fn step(core: Arc<PoolCore>, latch: Arc<Latch>, left: usize) {
            if left == 0 {
                latch.count_down();
                return;
            }
            let next = Arc::clone(&core);
            core.push([Box::new(move || step(next, latch, left - 1)) as Job]);
        }
        step(core, Arc::clone(&latch), 64);
        latch.wait();
    }

    #[test]
    fn a_panicking_job_does_not_kill_its_worker() {
        // One worker, so the panicking job and the jobs after it are
        // guaranteed to share a thread: if the panic killed the worker,
        // the follow-up jobs would never run and the latch would hang.
        let pool = FleetPool::new(1);
        let hits = Arc::new(AtomicUsize::new(0));
        let latch = Arc::new(Latch::new(16));
        for i in 0..16 {
            let (hits, latch) = (Arc::clone(&hits), Arc::clone(&latch));
            pool.spawn(move || {
                if i % 4 == 0 {
                    latch.count_down();
                    panic!("job {i} failed");
                }
                // Count down only after the increment: the main thread
                // reads `hits` as soon as the latch opens.
                hits.fetch_add(1, Ordering::Relaxed);
                latch.count_down();
            });
        }
        latch.wait();
        assert_eq!(hits.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn drop_finishes_queued_work() {
        let hits = Arc::new(AtomicUsize::new(0));
        let latch = Arc::new(Latch::new(8));
        {
            let pool = FleetPool::new(2);
            for _ in 0..8 {
                let (hits, latch) = (Arc::clone(&hits), Arc::clone(&latch));
                pool.spawn(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                    latch.count_down();
                });
            }
            latch.wait();
        }
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn pooled_schedule_matches_sequential_bit_for_bit() {
        // Cycle and retirement budgets alike: stop cause, barrier count
        // and shard stats equal the inline executor's.
        let limits = [u64::MAX, 50, 0].map(Limit::Cycles);
        let budgets = [0, 1, 37, 150, 10_000].map(Limit::Retirements);
        for limit in limits.into_iter().chain(budgets) {
            let build = || {
                vec![
                    shardling(3, 40),
                    shardling(5, 25),
                    shardling(2, 60),
                    shardling(7, 13),
                ]
            };
            let mut seq = build();
            let mut seq_bounds = 0u32;
            let rs = run_epoch_rounds(&mut seq, limit, 16, |_| seq_bounds += 1);

            let pool = FleetPool::new(3);
            let out = pool.run_epoch_rounds(build(), 0u32, limit, 16, |bounds, _| *bounds += 1);
            assert_eq!(out.stop, rs, "{limit:?}: stop cause");
            assert_eq!(out.ctx, seq_bounds, "{limit:?}: epoch boundaries");
            let stats = |v: &[Shardling]| {
                v.iter()
                    .map(ExecutionEngine::engine_stats)
                    .collect::<Vec<_>>()
            };
            assert_eq!(stats(&seq), stats(&out.shards), "{limit:?}: shard stats");
            assert_eq!(aggregate_stats(&seq), aggregate_stats(&out.shards));
        }
    }

    #[test]
    fn pooled_entry_semantics_match_the_trait() {
        let pool = FleetPool::new(2);
        // Zero budget: LimitReached without dispatching, even halted.
        let out = run_epochs_pooled(
            &pool,
            vec![shardling(1, 0), shardling(1, 0)],
            (),
            0,
            4,
            true,
            |()| {},
        );
        assert_eq!(out.stop, Ok(StopCause::LimitReached));
        // With budget, a fully halted set reports Halted.
        let out = run_epochs_pooled(&pool, out.shards, (), 100, 4, true, |()| {});
        assert_eq!(out.stop, Ok(StopCause::Halted));
        // An empty shard set is trivially halted, no job scheduled.
        let out = run_epochs_pooled(&pool, Vec::<Shardling>::new(), (), 100, 4, true, |()| {});
        assert_eq!(out.stop, Ok(StopCause::Halted));
    }

    #[test]
    fn pooled_fault_reports_lowest_shard_and_skips_the_barrier() {
        // Shards 1 and 3 fault in the second round; shard 3 faults one
        // unit into the round (its report arrives first on a pool),
        // shard 1 six units in. Every executor must report shard 1's
        // fault, leave the same post-fault state (every live shard of
        // the round runs to its deadline) and fire the first round's
        // barrier only.
        let build = || {
            let mut v: Vec<Shardling> = (0..4).map(|_| shardling(1, 100)).collect();
            v[1].fault_at = Some(8 + 6);
            v[3].fault_at = Some(8 + 1);
            v
        };
        let stats = |v: &[Shardling]| {
            v.iter()
                .map(ExecutionEngine::engine_stats)
                .collect::<Vec<_>>()
        };
        for limit in [Limit::Cycles(u64::MAX), Limit::Retirements(1_000)] {
            let mut inline = build();
            let mut inline_bounds = 0u32;
            let err = run_epoch_rounds(&mut inline, limit, 8, |_| inline_bounds += 1).unwrap_err();
            assert_eq!(err, Boom(14), "{limit:?}: shard 1's fault wins inline");
            assert_eq!(
                inline_bounds, 1,
                "{limit:?}: no barrier on the faulting round"
            );
            for workers in [1, 2, 4] {
                let pool = FleetPool::new(workers);
                let out = pool.run_epoch_rounds(build(), 0u32, limit, 8, |bounds, _| {
                    *bounds += 1;
                });
                assert_eq!(out.stop, Err(Boom(14)), "{limit:?}, {workers} workers");
                assert_eq!(out.ctx, 1, "{limit:?}, {workers} workers: barriers");
                assert_eq!(
                    stats(&inline),
                    stats(&out.shards),
                    "{limit:?}, {workers} workers: post-fault state"
                );
            }
        }
    }

    /// An engine whose every step panics.
    struct Bomb;
    impl ExecutionEngine for Bomb {
        type Error = Boom;
        type Snapshot = ();
        fn snapshot(&self) -> Self::Snapshot {}
        fn restore(&mut self, (): &Self::Snapshot) {}
        fn reset(&mut self) {}
        fn step_unit(&mut self) -> Result<(), Boom> {
            panic!("engine bug");
        }
        fn cycle(&self) -> u64 {
            0
        }
        fn is_halted(&self) -> bool {
            false
        }
        fn pc(&self) -> Option<u32> {
            None
        }
        fn reg_count(&self) -> usize {
            0
        }
        fn read_reg_index(&self, _i: usize) -> u32 {
            0
        }
        fn write_reg_index(&mut self, _i: usize, _v: u32) {}
        fn read_mem(&mut self, _a: u32, len: usize) -> Result<Vec<u8>, Boom> {
            Ok(vec![0; len])
        }
        fn engine_stats(&self) -> EngineStats {
            EngineStats::default()
        }
    }

    #[test]
    fn pooled_shard_panic_resurfaces_on_the_coordinator() {
        let pool = FleetPool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_epochs_pooled(&pool, vec![Bomb], (), u64::MAX, 8, true, |()| {})
        }));
        assert!(caught.is_err(), "the shard panic re-raises, not deadlocks");
    }

    #[test]
    fn a_shard_panic_completes_a_submitted_run_and_spares_the_pool() {
        let pool = FleetPool::new(1);
        let (tx, rx) = mpsc::channel();
        pool.submit_epoch_rounds(
            vec![Bomb, Bomb],
            (),
            Limit::Cycles(u64::MAX),
            8,
            |(), _| {},
            move |outcome| {
                let _ = tx.send(outcome.is_err());
            },
        );
        assert!(
            rx.recv().expect("the completion callback fires"),
            "the panic is reported, not swallowed"
        );
        // The same pool still completes a healthy run afterwards.
        let out = pool.run_epoch_rounds(
            (0..3).map(|i| shardling(1 + i, 20)).collect(),
            (),
            Limit::Cycles(u64::MAX),
            8,
            |(), _| {},
        );
        assert_eq!(out.stop, Ok(StopCause::Halted));
    }
}
