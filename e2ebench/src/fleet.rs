//! `fleet_burst`: a closed loop of one client; each op is one
//! `run_fleet` batch of 64 requests for named programs at default
//! sizes. The batch is a fixed mix — mostly `golden` and
//! `golden:compiled`, some `translated:static`, plus one `sharded-4x`
//! `producer_consumer` and one `sharded-2x` `mailbox` request — whose
//! order is drawn from the seed per batch. Requests repeat the same
//! images across batches, as a long-lived service sees. It shows build
//! cost and fleet scheduling, and covers the fleet's own sharded
//! construction path.

use crate::spans::{Ctx, Summary};
use crate::{mix, on_lanes, Bench, Counters, Scale, POOL_WORKERS};
use cabt_exec::{Fingerprint, Limit, StopCause};
use cabt_fleet::{run_fleet, FleetPool, FleetRequest, FleetResult, FLEET_EPOCH_CYCLES};
use cabt_sim::{Backend, SessionError, SimBuilder};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const PROGRAMS: [&str; 7] = [
    "gcd",
    "dpcm",
    "fir",
    "ellip",
    "sieve",
    "subband",
    "fibonacci",
];

/// Runs of each request key timed standalone for the overhead estimate.
const STANDALONE_REPS: usize = 3;

pub(crate) struct FleetBurst {
    pool: FleetPool,
    seed: u64,
    mix: Vec<(&'static str, &'static str)>,
    /// Median standalone `Session::run` ns per request key, measured on
    /// the first traced op.
    standalone_ns: BTreeMap<(&'static str, &'static str), f64>,
}

/// The batch mix as (workload, backend descriptor) pairs.
fn batch_mix(scale: Scale) -> Vec<(&'static str, &'static str)> {
    let mut mix = Vec::new();
    let per_program: &[(&str, usize)] = match scale {
        Scale::Full => &[
            ("golden", 4),
            ("golden:compiled", 3),
            ("translated:static", 1),
        ],
        Scale::Smoke => &[("golden", 1)],
    };
    for p in PROGRAMS {
        for &(backend, n) in per_program {
            mix.extend(std::iter::repeat_n((p, backend), n));
        }
    }
    if scale == Scale::Full {
        // Six more golden requests bring the batch to 64.
        mix.extend(PROGRAMS[..6].iter().map(|p| (*p, "golden")));
    }
    mix.push(("producer_consumer", "sharded-4x:golden"));
    mix.push(("mailbox", "sharded-2x:golden"));
    mix
}

/// The predicted `%d2` of a named workload at its default size.
fn expected_d2(name: &str) -> u32 {
    cabt_workloads::by_name(name).map_or(u32::MAX, |w| w.expected_d2)
}

fn requests(pairs: &[(&'static str, &'static str)], budget: Limit) -> Vec<FleetRequest> {
    pairs
        .iter()
        .map(|(w, b)| {
            FleetRequest::named(*w)
                .backend(b.parse().expect("the batch mix names valid backends"))
                .budget(budget)
        })
        .collect()
}

/// A result passes when it halted with the predicted `%d2` on shard 0
/// (the only shard `FleetResult` reports) and, for
/// `producer_consumer`, every shard transmitted the checksum byte.
fn checked(r: &Result<FleetResult, SessionError>) -> bool {
    let Ok(r) = r else { return false };
    if !r.checksum_ok() {
        return false;
    }
    match r.backend {
        Backend::Sharded { cores, .. } if r.workload == "producer_consumer" => {
            r.uart.len() == usize::from(cores)
                && r.uart
                    .iter()
                    .all(|&(_, b)| b == (r.expected_d2 & 0xff) as u8)
        }
        _ => true,
    }
}

fn count(results: &[Result<FleetResult, SessionError>]) -> Counters {
    let mut c = Counters::default();
    let mut fp = Fingerprint::new();
    for r in results {
        c.session(checked(r));
        if let Ok(r) = r {
            c.retired += r.stats.retired;
            c.epochs += r.epochs;
            fp.mix_u64(r.digest);
        }
    }
    c.digest = fp.digest();
    c
}

impl Bench for FleetBurst {
    type Input = Vec<(&'static str, &'static str)>;
    type Probe = ();

    fn setup(seed: u64, scale: Scale) -> Self {
        FleetBurst {
            pool: FleetPool::new(usize::from(POOL_WORKERS)),
            seed,
            mix: batch_mix(scale),
            standalone_ns: BTreeMap::new(),
        }
    }

    /// The fixed mix in a seeded order (Fisher–Yates).
    fn input(&self, op: u64) -> Self::Input {
        let mut order = self.mix.clone();
        for i in (1..order.len()).rev() {
            let j = (mix(self.seed, op, i as u64) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }

    fn run(&mut self, input: &Self::Input) -> Counters {
        count(&run_fleet(
            &self.pool,
            &requests(input, Limit::Cycles(u64::MAX)),
        ))
    }

    /// The batch's build cost is the same batch under a zero budget
    /// (every unit is built, none runs); the run is the full batch.
    fn run_traced(&mut self, input: &Self::Input, ctx: &Ctx) -> (Counters, ()) {
        let built = ctx.leaf("fleet.build", || {
            run_fleet(&self.pool, &requests(input, Limit::Cycles(0)))
        });
        let results = ctx.leaf("fleet.batch", || {
            run_fleet(&self.pool, &requests(input, Limit::Cycles(u64::MAX)))
        });
        let mut c = ctx.leaf("check", || count(&results));
        // A request whose zero-budget build failed is a failed session
        // even if the full batch then checked out.
        c.failed += built
            .iter()
            .zip(&results)
            .filter(|(b, r)| !matches!(b, Ok(b) if b.stop == StopCause::LimitReached) && checked(r))
            .count() as u64;
        (c, ())
    }

    /// Times each distinct request standalone (`Session::run`, build
    /// untimed) on the first traced op. The runs go on two lanes, so
    /// they share the host the way the pool's two workers do.
    fn probe(&mut self, (): (), ctx: &Ctx) -> Counters {
        let mut c = Counters::default();
        if !self.standalone_ns.is_empty() {
            return c;
        }
        let mut keys = self.mix.clone();
        keys.sort_unstable();
        keys.dedup();
        let runs: Vec<_> = keys
            .iter()
            .flat_map(|k| std::iter::repeat_n(*k, STANDALONE_REPS))
            .collect();
        let timed = on_lanes(&runs, Some(ctx), |&(w, b), lane| {
            let mut s = SimBuilder::named(w)
                .backend(b.parse().expect("the batch mix names valid backends"))
                .shard_epoch(FLEET_EPOCH_CYCLES)
                .build()
                .ok()?;
            let lane = lane.expect("probe lanes carry a span context");
            let t = Instant::now();
            let stop = lane.leaf("fleet.standalone", || s.run(Limit::Cycles(u64::MAX)));
            let ns = t.elapsed().as_secs_f64() * 1e9;
            (matches!(stop, Ok(StopCause::Halted)) && s.read_d(2) == expected_d2(w)).then_some(ns)
        });
        for (key, times) in keys.iter().zip(timed.chunks(STANDALONE_REPS)) {
            for t in times {
                c.session(t.is_some());
            }
            let ok: Vec<f64> = times.iter().flatten().copied().collect();
            if !ok.is_empty() {
                self.standalone_ns.insert(*key, crate::stats::median(&ok));
            }
        }
        c
    }

    /// `fleet.overhead_share`: the share of the batch's run time the
    /// pool's workers do not spend running sessions, against the sum
    /// of the requests' standalone run times spread over the workers.
    fn layer_metrics(&self, _s: &Summary, m: &mut BTreeMap<&'static str, f64>) {
        let pure_ns: f64 = self
            .mix
            .iter()
            .map(|k| self.standalone_ns.get(k).copied().unwrap_or(0.0))
            .sum();
        let run_ns = m["fleet.run_us"] * 1e3;
        if run_ns > 0.0 {
            m.insert(
                "fleet.overhead_share",
                1.0 - pure_ns / (f64::from(POOL_WORKERS) * run_ns),
            );
        }
        m.insert("fleet.epochs", m["epochs"]);
    }

    /// The fleet build vs run split (ROADMAP: fleet rows measure set-up,
    /// not simulation).
    fn baseline_table(&self, s: &Summary, _m: &BTreeMap<&'static str, f64>, out: &mut String) {
        let ops = s.ops.max(1) as f64;
        let build = s.total_of("fleet.build") as f64 / ops / 1e3;
        let batch = s.total_of("fleet.batch") as f64 / ops / 1e3;
        let n = self.mix.len() as f64;
        let _ = writeln!(
            out,
            "  fleet batch of {n}: build {build:.0} us ({:.1}%), run {:.0} us ({:.1}%), {:.1} us/session end to end",
            build / batch * 100.0,
            batch - build,
            (batch - build) / batch * 100.0,
            batch / n
        );
    }
}
