//! Fleet-scale session service over the CABT vehicles.
//!
//! The paper's platform is a *single-session* instrument: one workload,
//! one vehicle, one run. This crate turns it into a service. Three
//! pieces:
//!
//! * **[`FleetPool`]** — a fixed work-stealing thread pool. Epoch
//!   rounds are work items, so M concurrent sessions × N shards
//!   multiplex onto a bounded worker population.
//! * **The fleet scheduler** ([`run_fleet`]) — each distinct workload
//!   of a batch is assembled once, every request is built once with
//!   [`SimBuilder`] from that image, taken apart with
//!   [`Session::into_shard_parts`] and submitted to the pool executor
//!   ([`FleetPool::submit_epoch_rounds`]): the job that completes the
//!   last shard of a round performs the barrier exchange and plans the
//!   next round. Every decision is `cabt_exec`'s one round planner,
//!   so the simulation is bit-identical to a plain
//!   [`Session`] run — pinned per epoch by a rolling
//!   [`cabt_exec::fingerprint_engine`] digest chain.
//! * **Portable sessions** — [`cabt_sim::Session::park`] serializes a
//!   mid-run session to versioned bytes; [`cabt_sim::Session::resume`]
//!   rebuilds it on any worker, or in another process entirely. The
//!   `fleet-server` binary front-ends both over a line protocol.
//!
//! ```
//! use cabt_exec::Limit;
//! use cabt_fleet::{run_fleet, FleetPool, FleetRequest};
//!
//! let pool = FleetPool::new(2);
//! let requests: Vec<FleetRequest> = ["gcd", "sieve"]
//!     .iter()
//!     .map(|w| FleetRequest::named(*w).budget(Limit::Cycles(10_000_000)))
//!     .collect();
//! for result in run_fleet(&pool, &requests) {
//!     let r = result?;
//!     assert!(r.checksum_ok());
//! }
//! # Ok::<(), cabt_sim::SessionError>(())
//! ```

pub use cabt_exec::pool::{self, FleetPool, Latch};

use cabt_exec::pool::{Panic, PooledOutcome};
use cabt_exec::{aggregate_stats, fingerprint_engine, EngineStats, Fingerprint, Limit, StopCause};
use cabt_platform::ShardArbiter;
use cabt_sim::{Backend, Session, SessionError, SimBuilder};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Scheduling epoch (target cycles) used when a request does not name
/// one — the same default granularity sharded sessions fall back to.
pub const FLEET_EPOCH_CYCLES: u64 = 4096;

/// One workload the fleet should run.
#[derive(Debug, Clone)]
pub struct FleetRequest {
    /// Named `cabt-workloads` entry (`"gcd"`, `"sieve"`, …).
    pub workload: String,
    /// The vehicle to run it on. [`Backend::Sharded`] requests run one
    /// work item per live shard per epoch around their device fabric;
    /// single-core backends one work item per epoch.
    pub backend: Backend,
    /// Run budget (frontier cycles or aggregate retirements, exactly as
    /// [`cabt_sim::Session::run`] interprets them).
    pub budget: Limit,
    /// Scheduling epoch in target cycles ([`FLEET_EPOCH_CYCLES`] when
    /// `None`).
    pub epoch: Option<u64>,
}

impl FleetRequest {
    /// A request for the named workload on the default backend with an
    /// effectively unbounded budget.
    pub fn named(workload: impl Into<String>) -> FleetRequest {
        FleetRequest {
            workload: workload.into(),
            backend: Backend::default(),
            budget: Limit::Cycles(u64::MAX),
            epoch: None,
        }
    }

    /// Selects the backend.
    #[must_use]
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the run budget.
    #[must_use]
    pub fn budget(mut self, budget: Limit) -> Self {
        self.budget = budget;
        self
    }

    /// Overrides the scheduling epoch (target cycles, clamped to ≥ 1).
    #[must_use]
    pub fn epoch(mut self, target_cycles: u64) -> Self {
        self.epoch = Some(target_cycles.max(1));
        self
    }
}

/// What one fleet session produced.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// The request's workload name.
    pub workload: String,
    /// The request's backend.
    pub backend: Backend,
    /// Why the run stopped.
    pub stop: StopCause,
    /// Aggregate counters (`retired`/`stall_cycles` summed across
    /// shards, `cycles` the longest shard clock).
    pub stats: EngineStats,
    /// Epoch rounds the scheduler drove.
    pub epochs: u64,
    /// Final state digest: every shard's
    /// [`cabt_exec::fingerprint_engine`] mixed in shard order.
    pub digest: u64,
    /// Rolling digest chain over every epoch boundary — two schedulers
    /// ran the *same simulation* iff their chains match, not just their
    /// final states.
    pub epoch_chain: u64,
    /// Checksum register `%d2` of shard 0 at stop.
    pub d2: u32,
    /// The workload's predicted checksum.
    pub expected_d2: u32,
    /// Merged UART transmit log (timestamped bytes), where the vehicle
    /// has a device fabric.
    pub uart: Vec<(u64, u8)>,
}

impl FleetResult {
    /// True when the session halted with the workload's predicted
    /// checksum in `%d2`.
    pub fn checksum_ok(&self) -> bool {
        self.stop == StopCause::Halted && self.d2 == self.expected_d2
    }
}

/// Barrier context of one fleet session: the device fabric of a
/// sharded request, plus the epoch count and rolling per-epoch digest
/// chain.
struct Progress {
    arbiter: Option<ShardArbiter>,
    epochs: u64,
    chain: Fingerprint,
}

/// Builds a request once — `source` is its workload, already resolved
/// by the batch — and takes it apart for the pool executor.
fn build(req: &FleetRequest, source: SimBuilder) -> Result<cabt_sim::ShardParts, SessionError> {
    let session = source
        .backend(req.backend)
        .shard_epoch(req.epoch.unwrap_or(FLEET_EPOCH_CYCLES))
        .build()?;
    Ok(session.into_shard_parts())
}

/// The [`FleetResult`] of a completed pooled run.
fn fleet_result(
    req: &FleetRequest,
    expected_d2: u32,
    outcome: Result<PooledOutcome<Session, Progress>, Panic>,
) -> Result<FleetResult, SessionError> {
    let out = outcome.map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        SessionError::Service(format!("a shard job panicked: {msg}"))
    })?;
    let stop = out.stop?;
    let mut digest = Fingerprint::new();
    for shard in &out.shards {
        digest.mix_u64(fingerprint_engine(shard));
    }
    let uart = match &out.ctx.arbiter {
        Some(arbiter) => arbiter.uart_log(),
        None => out.shards[0]
            .soc_bus_handle()
            .map_or_else(Vec::new, |b| b.uart_log()),
    };
    Ok(FleetResult {
        workload: req.workload.clone(),
        backend: req.backend,
        stop,
        stats: aggregate_stats(&out.shards),
        epochs: out.ctx.epochs,
        digest: digest.digest(),
        epoch_chain: out.ctx.chain.digest(),
        d2: out.shards[0].read_d(2),
        expected_d2,
        uart,
    })
}

/// Runs every request to completion on the pool and returns the results
/// in request order. Sessions run *concurrently* — M sessions × N
/// shards multiplex as epoch-sized work items over the pool's fixed
/// worker population — but each session's simulation is bit-identical
/// to a dedicated [`cabt_sim::Session::run`] with the same budget,
/// whatever the worker count (the per-epoch digest chain in
/// [`FleetResult::epoch_chain`] is the receipt).
///
/// Build failures (unknown workload, invalid configuration) and shard
/// panics ([`SessionError::Service`]) are reported per request; they
/// do not abort the batch.
pub fn run_fleet(
    pool: &FleetPool,
    requests: &[FleetRequest],
) -> Vec<Result<FleetResult, SessionError>> {
    type Slot = Option<Result<FleetResult, SessionError>>;
    let results: Arc<Mutex<Vec<Slot>>> = Arc::new(Mutex::new(vec![None; requests.len()]));
    let latch = Arc::new(Latch::new(requests.len()));
    // Each distinct workload is looked up and assembled once per batch;
    // every request naming it builds from a copy of that one image.
    let mut images = HashMap::new();
    for req in requests {
        images.entry(req.workload.as_str()).or_insert_with(|| {
            let w = cabt_workloads::by_name(&req.workload)
                .ok_or_else(|| SessionError::UnknownWorkload(req.workload.clone()))?;
            Ok::<_, SessionError>((w.elf()?, w.expected_d2))
        });
    }
    for (i, req) in requests.iter().enumerate() {
        let (results, latch) = (Arc::clone(&results), Arc::clone(&latch));
        let report = move |result| {
            results.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(result);
            latch.count_down();
        };
        let image = images[req.workload.as_str()].clone();
        let built = image
            .and_then(|(elf, expected_d2)| Ok((build(req, SimBuilder::elf(elf))?, expected_d2)));
        match built {
            Err(e) => report(Err(e)),
            Ok((parts, expected_d2)) => {
                let progress = Progress {
                    arbiter: parts.arbiter,
                    epochs: 0,
                    chain: Fingerprint::new(),
                };
                let req = req.clone();
                pool.submit_epoch_rounds(
                    parts.shards,
                    progress,
                    req.budget,
                    parts.epoch,
                    |p, shards| {
                        if let Some(arbiter) = &mut p.arbiter {
                            arbiter.exchange();
                        }
                        p.epochs += 1;
                        for shard in shards {
                            p.chain.mix_u64(fingerprint_engine(&**shard));
                        }
                    },
                    move |outcome| report(fleet_result(&req, expected_d2, outcome)),
                );
            }
        }
    }
    latch.wait();
    let mut results = results.lock().unwrap_or_else(PoisonError::into_inner);
    results
        .iter_mut()
        .map(|slot| {
            slot.take()
                .expect("every request reports before the latch opens")
        })
        .collect()
}

/// Convenience single-session entry: one request, run to completion on
/// the pool.
///
/// # Errors
///
/// Build and engine faults, as [`run_fleet`] reports them.
pub fn run_one(pool: &FleetPool, request: FleetRequest) -> Result<FleetResult, SessionError> {
    run_fleet(pool, std::slice::from_ref(&request))
        .pop()
        .unwrap_or_else(|| {
            Err(SessionError::Service(
                "fleet batch returned no result for the request".into(),
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_matches_dedicated_session_on_single_core_backends() {
        let pool = FleetPool::new(2);
        for backend in [Backend::golden(), Backend::golden_compiled()] {
            let req = FleetRequest::named("gcd")
                .backend(backend)
                .budget(Limit::Cycles(50_000_000));
            let fleet = run_one(&pool, req).unwrap();
            let mut oracle = SimBuilder::named("gcd").backend(backend).build().unwrap();
            oracle.run(Limit::Cycles(50_000_000)).unwrap();
            assert_eq!(fleet.stop, StopCause::Halted, "{backend}");
            assert!(fleet.checksum_ok(), "{backend}");
            let mut expected = Fingerprint::new();
            expected.mix_u64(fingerprint_engine(&oracle));
            assert_eq!(
                fleet.digest,
                expected.digest(),
                "{backend}: fleet diverged from the dedicated session"
            );
        }
    }

    #[test]
    fn fleet_shard_groups_match_the_sharded_session_oracle() {
        let pool = FleetPool::new(3);
        let backend = Backend::sharded(2, Backend::golden());
        let fleet = run_one(
            &pool,
            FleetRequest::named("producer_consumer")
                .backend(backend)
                .budget(Limit::Cycles(50_000_000)),
        )
        .unwrap();
        let mut oracle = SimBuilder::named("producer_consumer")
            .backend(backend)
            .build()
            .unwrap();
        oracle.run(Limit::Cycles(50_000_000)).unwrap();
        assert_eq!(fleet.stop, StopCause::Halted);
        // Shard-for-shard bit identity against the in-process sharded
        // vehicle, plus the merged device log.
        let mut expected = Fingerprint::new();
        for i in 0..oracle.shard_count() {
            expected.mix_u64(fingerprint_engine(oracle.shard(i).unwrap()));
        }
        assert_eq!(fleet.digest, expected.digest(), "shard states diverged");
        assert_eq!(
            fleet.uart,
            oracle.sharded_stats().unwrap().uart,
            "device fabric diverged"
        );
    }

    #[test]
    fn fleet_shards_carry_their_core_link_identity() {
        // The doorbell all-to-all only converges when every fleet-built
        // shard owns a CoreLink with *its own* core id and the real
        // core count — a uniform device population (every shard id 0,
        // count 1) runs to completion with the wrong checksum.
        let pool = FleetPool::new(2);
        let fleet = run_one(
            &pool,
            FleetRequest::named("mailbox")
                .backend(Backend::sharded_pooled(2, 2, Backend::golden()))
                .budget(Limit::Cycles(50_000_000)),
        )
        .unwrap();
        assert_eq!(fleet.stop, StopCause::Halted);
        assert!(
            fleet.checksum_ok(),
            "doorbell all-reduce: d2={:#x}",
            fleet.d2
        );
    }

    #[test]
    fn digest_chain_is_identical_across_worker_counts() {
        let requests: Vec<FleetRequest> = ["gcd", "sieve", "fibonacci"]
            .iter()
            .map(|w| {
                FleetRequest::named(*w)
                    .backend(Backend::sharded(2, Backend::golden()))
                    .budget(Limit::Cycles(50_000_000))
            })
            .collect();
        let one = run_fleet(&FleetPool::new(1), &requests);
        let many = run_fleet(&FleetPool::new(4), &requests);
        for (a, b) in one.iter().zip(&many) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(
                a.epoch_chain, b.epoch_chain,
                "{}: schedule leaked in",
                a.workload
            );
            assert_eq!(a.digest, b.digest);
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.epochs, b.epochs);
        }
    }

    #[test]
    fn repeated_requests_in_one_batch_match_their_solo_runs() {
        // One image per distinct workload serves every request naming
        // it; each request must still run exactly the machine it would
        // run alone.
        let pool = FleetPool::new(2);
        let keys = [
            ("gcd", Backend::golden()),
            ("producer_consumer", Backend::sharded(2, Backend::golden())),
            ("gcd", Backend::translated_compiled(cabt_core_detail())),
        ];
        let requests: Vec<FleetRequest> = keys
            .iter()
            .cycle()
            .take(3 * keys.len())
            .map(|&(w, b)| {
                FleetRequest::named(w)
                    .backend(b)
                    .budget(Limit::Cycles(50_000_000))
            })
            .collect();
        let batch = run_fleet(&pool, &requests);
        for (req, got) in requests.iter().zip(&batch) {
            let got = got.as_ref().unwrap();
            let solo = run_one(&pool, req.clone()).unwrap();
            let tag = format!("{} on {}", req.workload, req.backend);
            assert!(got.checksum_ok(), "{tag}");
            assert_eq!(got.digest, solo.digest, "{tag}: digest");
            assert_eq!(got.epoch_chain, solo.epoch_chain, "{tag}: epoch chain");
            assert_eq!(got.stats, solo.stats, "{tag}: stats");
            assert_eq!(got.uart, solo.uart, "{tag}: uart");
        }
    }

    #[test]
    fn retirement_budgets_stop_without_halting() {
        let pool = FleetPool::new(2);
        let r = run_one(
            &pool,
            FleetRequest::named("sieve")
                .backend(Backend::golden())
                .budget(Limit::Retirements(1_000)),
        )
        .unwrap();
        assert_eq!(r.stop, StopCause::LimitReached);
        assert!(r.stats.retired >= 1_000);
    }

    #[test]
    fn a_shard_panic_is_a_service_error_of_its_request() {
        let err =
            fleet_result(&FleetRequest::named("gcd"), 0, Err(Box::new("engine bug"))).unwrap_err();
        assert!(
            matches!(&err, SessionError::Service(msg) if msg.contains("engine bug")),
            "{err:?}"
        );
    }

    #[test]
    fn unknown_workloads_fail_per_request_not_per_batch() {
        let pool = FleetPool::new(1);
        let results = run_fleet(
            &pool,
            &[
                FleetRequest::named("nonesuch"),
                FleetRequest::named("gcd").budget(Limit::Cycles(50_000_000)),
            ],
        );
        assert!(matches!(results[0], Err(SessionError::UnknownWorkload(_))));
        assert!(results[1].as_ref().unwrap().checksum_ok());
    }

    #[test]
    fn parked_sessions_resume_inside_pool_workers() {
        // Park on this thread, resume and finish inside a pool job —
        // the migration the portable snapshot format exists for.
        let pool = FleetPool::new(2);
        let backend = Backend::translated_compiled(cabt_core_detail());
        let mut donor = SimBuilder::named("gcd").backend(backend).build().unwrap();
        donor.run(Limit::Retirements(500)).unwrap();
        let parked = donor.park().unwrap();
        donor.run(Limit::Cycles(50_000_000)).unwrap();
        let expected = fingerprint_engine(&donor);

        let latch = Arc::new(Latch::new(1));
        let slot: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));
        let (l2, s2) = (Arc::clone(&latch), Arc::clone(&slot));
        pool.spawn(move || {
            let mut resumed = Session::resume(&parked).unwrap();
            resumed.run(Limit::Cycles(50_000_000)).unwrap();
            *s2.lock().unwrap() = Some(fingerprint_engine(&resumed));
            l2.count_down();
        });
        latch.wait();
        assert_eq!(slot.lock().unwrap().unwrap(), expected);
    }

    fn cabt_core_detail() -> cabt_core::DetailLevel {
        cabt_core::DetailLevel::Cache
    }
}
