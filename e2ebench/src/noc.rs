//! `noc_shared` and `noc_doorbell`: one op builds a
//! `sharded-64x-pool2:translated:static:trace` session with
//! `shard_epoch(256)`, runs it to halt and checks every shard.
//!
//! * `noc_shared` runs `producer_consumer(192, seed)`: one scratch-RAM
//!   writer, and at cycle 1024 four shards migrate (`park_shard` then
//!   `adopt_shard`). It is the only workload that uses the `CABTPARK`
//!   codec.
//! * `noc_doorbell` runs `mailbox(64)` without migration: every shard
//!   rings CoreLink doorbells every round — the barrier's other delta
//!   path, with many writers instead of one.
//!
//! The traced op rebuilds the shard set from public parts (one
//! `SimBuilder` session per shard around `shard_soc_bus`, a
//! `ShardArbiter` over `mirror_soc_bus`, `run_epochs_pooled`) so the
//! barrier exchange can be timed, and must simulate the same machine as
//! the untraced `Session`.

use crate::spans::{Ctx, Summary};
use crate::{mix, Bench, Counters, Scale, POOL_WORKERS};
use cabt_core::DetailLevel;
use cabt_exec::pool::{run_epochs_pooled, FleetPool};
use cabt_exec::{fingerprint_engine, ExecutionEngine, Fingerprint, Limit, StopCause};
use cabt_platform::{mirror_soc_bus, shard_soc_bus, ShardArbiter, SharedSocBus};
use cabt_sim::{Backend, Session, SimBuilder};
use cabt_workloads::Workload;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Target cycles between barriers.
const SHARD_EPOCH: u64 = 256;
/// Frontier-cycle budget of the run to halt; exhausting it is a failure.
const HALT_CYCLES: u64 = 50_000_000;

/// `SHARED`: `noc_shared` (producer/consumer with migration);
/// otherwise `noc_doorbell`.
pub(crate) struct Noc<const SHARED: bool> {
    seed: u64,
    cores: u16,
    words: usize,
    migrations: usize,
    /// Frontier cycle at which `noc_shared` migrates shards.
    migrate_at: u64,
}

/// One op's inputs: the program and the shards to migrate.
pub(crate) struct Input {
    workload: Workload,
    migrate: Vec<usize>,
}

fn shard_backend() -> Backend {
    Backend::translated_trace(DetailLevel::Static)
}

/// Checks every shard's `%d2`, and folds the shards into the counters.
fn check_shards<'a>(
    c: &mut Counters,
    shards: impl Iterator<Item = &'a Session>,
    expected: u32,
    halted: bool,
) {
    let mut fp = Fingerprint::new();
    let mut ok = halted;
    for s in shards {
        ok &= s.read_d(2) == expected;
        let st = s.stats();
        c.retired += st.retired;
        c.trace_retired += s.trace_stats().map_or(0, |t| t.trace_retired);
        fp.mix_u64(fingerprint_engine(s));
    }
    c.digest = fp.digest();
    c.session(ok);
}

impl<const SHARED: bool> Noc<SHARED> {
    /// The untraced op; `None` when a call fails before the checks.
    fn session(&self, input: &Input) -> Option<Session> {
        let backend = Backend::sharded_pooled(self.cores, POOL_WORKERS, shard_backend());
        let mut s = SimBuilder::workload(&input.workload)
            .backend(backend)
            .shard_epoch(SHARD_EPOCH)
            .build()
            .ok()?;
        if !input.migrate.is_empty() {
            if s.run(Limit::Cycles(self.migrate_at)).ok()? != StopCause::LimitReached {
                return None;
            }
            for &i in &input.migrate {
                let bytes = s.park_shard(i).ok()?;
                s.adopt_shard(i, &bytes, None).ok()?;
            }
        }
        (s.run(Limit::Cycles(HALT_CYCLES)).ok()? == StopCause::Halted).then_some(s)
    }
}

impl<const SHARED: bool> Bench for Noc<SHARED> {
    type Input = Input;
    type Probe = ();

    fn setup(seed: u64, scale: Scale) -> Self {
        let (cores, words, migrations, migrate_at) = match scale {
            Scale::Full => (64, 192, 4, 1024),
            Scale::Smoke => (8, 16, 2, 128),
        };
        Noc {
            seed,
            cores,
            words,
            migrations: if SHARED { migrations } else { 0 },
            migrate_at,
        }
    }

    fn input(&self, op: u64) -> Input {
        let workload = if SHARED {
            cabt_workloads::producer_consumer(self.words, mix(self.seed, op, 0))
        } else {
            cabt_workloads::mailbox(u32::from(self.cores))
        };
        let mut migrate = Vec::with_capacity(self.migrations);
        let mut k = 1;
        while migrate.len() < self.migrations {
            let i = (mix(self.seed, op, k) % u64::from(self.cores)) as usize;
            if !migrate.contains(&i) {
                migrate.push(i);
            }
            k += 1;
        }
        Input { workload, migrate }
    }

    fn run(&mut self, input: &Input) -> Counters {
        let mut c = Counters::default();
        match self.session(input) {
            Some(s) => {
                let shards = (0..s.shard_count()).filter_map(|i| s.shard(i));
                check_shards(&mut c, shards, input.workload.expected_d2, true);
                let st = s.sharded_stats().expect("a sharded session");
                c.epochs = st.epochs;
                c.bus_transactions = st.bus_transactions;
            }
            None => c.session(false),
        }
        c
    }

    fn run_traced(&mut self, input: &Input, ctx: &Ctx) -> (Counters, ()) {
        let mut c = Counters::default();
        let n = self.cores;
        let Ok(elf) = ctx.leaf("asm", || {
            cabt_tricore::asm::assemble(&input.workload.source)
        }) else {
            c.session(false);
            return (c, ());
        };
        let pool = ctx.leaf("pool", || FleetPool::new(usize::from(POOL_WORKERS)));
        let built = ctx.leaf("sim.build", || {
            let buses: Vec<SharedSocBus> = (0..n)
                .map(|id| SharedSocBus::new(shard_soc_bus(u32::from(id), u32::from(n))))
                .collect();
            let mut shards = Vec::with_capacity(usize::from(n));
            for (id, bus) in buses.iter().enumerate() {
                let mut s = SimBuilder::elf(elf.clone())
                    .backend(shard_backend())
                    .soc_bus(bus.clone())
                    .build()
                    .ok()?;
                s.write_d(15, id as u32);
                shards.push(s);
            }
            Some((
                shards,
                ShardArbiter::new(mirror_soc_bus(u32::from(n)), buses),
            ))
        });
        let Some((mut shards, mut arbiter)) = built else {
            c.session(false);
            return (c, ());
        };
        let run = |shards: Vec<Session>, arbiter: ShardArbiter, max_cycles: u64| {
            ctx.span("round", "", |round| {
                let (rec, op, parent) = (Arc::clone(&round.rec), round.op, round.parent);
                let out = run_epochs_pooled(
                    &pool,
                    shards,
                    arbiter,
                    max_cycles,
                    SHARD_EPOCH,
                    true,
                    move |arb| {
                        let id = rec.open("barrier", "", op, parent);
                        arb.exchange();
                        rec.close(id, 0);
                    },
                );
                (out, 0)
            })
        };
        let mut ok = true;
        if !input.migrate.is_empty() {
            let out = run(shards, arbiter, self.migrate_at);
            ok &= matches!(out.stop, Ok(StopCause::LimitReached));
            (shards, arbiter) = (out.shards, out.ctx);
            for &i in &input.migrate {
                let adopted = ctx
                    .span("migrate.park", "", |_| {
                        let bytes = shards[i].park();
                        let len = bytes.as_ref().map_or(0, Vec::len) as u64;
                        (bytes, len)
                    })
                    .ok()
                    .and_then(|bytes| {
                        // `adopt_shard` from public parts: decode and
                        // rebuild the parked shard, then rebuild it
                        // around the arbiter's bus for slot `i` and
                        // restore the parked state into it.
                        ctx.leaf("migrate.adopt", || {
                            let parked = Session::resume(&bytes).ok()?;
                            let mut s = SimBuilder::elf(parked.source_elf().clone())
                                .backend(parked.backend())
                                .soc_bus(arbiter.bus(i))
                                .build()
                                .ok()?;
                            s.restore(&parked.snapshot());
                            Some(s)
                        })
                    });
                match adopted {
                    Some(s) => shards[i] = s,
                    None => ok = false,
                }
            }
        }
        let out = run(shards, arbiter, HALT_CYCLES);
        ok &= matches!(out.stop, Ok(StopCause::Halted));
        ctx.leaf("check", || {
            check_shards(&mut c, out.shards.iter(), input.workload.expected_d2, ok);
            c.epochs = out.ctx.epochs();
            c.bus_transactions = out.ctx.transactions();
        });
        ctx.leaf("teardown", || drop((out, pool)));
        (c, ())
    }

    /// Barriers crossed per op (the ROADMAP's sharded rows crossed 2).
    fn baseline_table(&self, _s: &Summary, m: &BTreeMap<&'static str, f64>, out: &mut String) {
        let _ = writeln!(
            out,
            "  sharded-{}x-pool{POOL_WORKERS}, shard_epoch {SHARD_EPOCH}: {} barriers per session (re-anchor sharded rows: 2), barrier {:.1}% of op wall, {:.2} us per barrier",
            self.cores,
            m["epochs"],
            m["barrier.share"] * 100.0,
            m["barrier.us_per_epoch"]
        );
    }
}
