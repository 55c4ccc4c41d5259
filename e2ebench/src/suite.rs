//! `paper_suite`: one op is one pass over the seven paper programs at
//! about 3× their Fig. 5 sizes, each built fresh under `strict_lint`
//! and run to halt on `golden:trace` and `translated:cache:trace`.
//! Seeded programs get new inputs every pass. The pass is dominated by
//! dispatch and trace warm-up, so it shows dispatch and tier changes
//! and is the "no change expected" side for build caching.
//!
//! The pass's 14 sessions are independent, so they run on the two
//! lanes of [`on_lanes`], as a user of a two-core host would run them.

use crate::spans::{Ctx, Summary};
use crate::{mix, on_lanes, Bench, Counters, Scale};
use cabt_core::{DetailLevel, Translated, Translator};
use cabt_exec::{fingerprint_engine, ExecutionEngine, Fingerprint, Limit, StopCause};
use cabt_platform::{Platform, PlatformConfig};
use cabt_sim::{Backend, SimBuilder};
use cabt_tricore::isa::DReg;
use cabt_tricore::sim::{DispatchMode, Simulator};
use cabt_vliw::sim::VliwDispatch;
use cabt_workloads::Workload;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Budget of every run, in retired units; exhausting it is a failure.
const HALT: Limit = Limit::Retirements(1_000_000_000);

const LEVEL: DetailLevel = DetailLevel::Cache;

pub(crate) struct PaperSuite {
    seed: u64,
    scale: Scale,
}

/// One session of a pass: a program on the golden (`false`) or the
/// translated (`true`) vehicle.
type Job<'a> = (&'a Workload, bool);

/// What a checked session leaves for the counters.
struct Done {
    retired: u64,
    trace_retired: u64,
    fingerprint: u64,
    /// Golden cycles, or generated SoC cycles on the translated vehicle.
    cycles: u64,
}

/// A traced session's engine, kept for the steady-state probe.
pub(crate) enum Engine {
    Golden(Box<Simulator>),
    Vliw(Box<Translated>),
}

/// The probe's work: program name, predicted `%d2` and engine of each
/// checked traced session.
pub(crate) type Engines = Vec<(&'static str, u32, Engine)>;

/// |generated − golden| / golden cycles, in percent (Fig. 6).
fn deviation(golden_cycles: u64, generated: u64) -> f64 {
    (generated as f64 - golden_cycles as f64).abs() / golden_cycles as f64 * 100.0
}

/// Source register `%d2` of a translated engine, via the register binding.
fn vliw_d2(p: &Platform) -> u32 {
    p.sim()
        .read_reg_index(cabt_core::regbind::dreg(DReg(2)).index())
}

/// Golden then translated session of every program, in input order.
fn jobs(input: &[Workload]) -> Vec<Job<'_>> {
    input.iter().flat_map(|w| [(w, false), (w, true)]).collect()
}

/// Folds a pass's sessions, in job order, into its counters.
fn fold<'a>(done: impl Iterator<Item = Option<&'a Done>>) -> Counters {
    let done: Vec<Option<&Done>> = done.collect();
    let mut c = Counters::default();
    let mut fp = Fingerprint::new();
    for pair in done.chunks(2) {
        for d in pair {
            c.session(d.is_some());
            if let Some(d) = d {
                c.retired += d.retired;
                c.trace_retired += d.trace_retired;
                fp.mix_u64(d.fingerprint);
            }
        }
        if let [Some(g), Some(t)] = pair {
            c.cycle_dev_pct = c.cycle_dev_pct.max(deviation(g.cycles, t.cycles));
        }
    }
    c.digest = fp.digest();
    c
}

/// One untraced session through the `SimBuilder` front door.
fn session((w, translated): Job<'_>) -> Option<Done> {
    let backend = if translated {
        Backend::translated_trace(LEVEL)
    } else {
        Backend::golden_trace()
    };
    let mut s = SimBuilder::workload(w)
        .strict_lint(true)
        .backend(backend)
        .build()
        .ok()?;
    let stop = s.run(HALT).ok()?;
    if stop != StopCause::Halted || s.read_d(2) != w.expected_d2 {
        return None;
    }
    let cycles = if translated {
        s.platform_stats().map_or(0, |p| p.total_generated())
    } else {
        s.stats().cycles
    };
    Some(Done {
        retired: s.stats().retired,
        trace_retired: s.trace_stats().map_or(0, |t| t.trace_retired),
        fingerprint: fingerprint_engine(&s),
        cycles,
    })
}

/// The same session with the build taken apart into the layer calls
/// `SimBuilder::build` makes: assemble and lint, then pre-decode and
/// compile (golden), or translate, pre-decode and compile (translated).
/// One span per session, tagged with the program, lets the baseline
/// table put end-to-end MIPS (build included) next to first-run and
/// steady MIPS.
fn traced_session((w, translated): Job<'_>, ctx: &Ctx) -> Option<(Done, Engine)> {
    let layer = if translated {
        "vliw.session"
    } else {
        "golden.session"
    };
    ctx.span(layer, w.name, |ctx| {
        let done = traced_build_and_run(w, translated, ctx);
        let retired = done.as_ref().map_or(0, |(d, _)| d.retired);
        (done, retired)
    })
}

fn traced_build_and_run(w: &Workload, translated: bool, ctx: &Ctx) -> Option<(Done, Engine)> {
    let elf = ctx
        .leaf("asm", || cabt_tricore::asm::assemble(&w.source))
        .ok()?;
    let clean = ctx.leaf("lint", || {
        cabt_sim::analyze::analyze_elf(&elf).is_ok_and(|r| r.is_clean())
    });
    if !clean {
        return None;
    }
    if translated {
        let image = ctx
            .leaf("translate", || Translator::new(LEVEL).translate(&elf))
            .ok()?;
        let mut platform = ctx
            .leaf("predecode", || {
                Platform::new(&image, PlatformConfig::unlimited())
            })
            .ok()?;
        ctx.leaf("compile", || platform.set_dispatch(VliwDispatch::Trace));
        let stop = ctx.span("vliw.run", w.name, |_| {
            let stop = platform.engine().run_until(HALT);
            (stop, platform.sim().engine_stats().retired)
        });
        let done = ctx.leaf("check", || {
            (stop == Ok(StopCause::Halted) && vliw_d2(&platform) == w.expected_d2).then(|| Done {
                retired: platform.sim().engine_stats().retired,
                trace_retired: platform.trace_stats().map_or(0, |t| t.trace_retired),
                fingerprint: fingerprint_engine(platform.sim()),
                cycles: platform.stats().total_generated(),
            })
        });
        done.map(|d| (d, Engine::Vliw(Box::new(image))))
    } else {
        let mut sim = ctx.leaf("predecode", || Simulator::new(&elf)).ok()?;
        ctx.leaf("compile", || sim.set_dispatch(DispatchMode::Trace));
        let stop = ctx.span("golden.run", w.name, |_| {
            let stop = sim.run_until(HALT);
            (stop, sim.engine_stats().retired)
        });
        let done = ctx.leaf("check", || {
            (stop == Ok(StopCause::Halted) && sim.cpu.d(2) == w.expected_d2).then(|| Done {
                retired: sim.engine_stats().retired,
                trace_retired: sim.trace_stats().map_or(0, |t| t.trace_retired),
                fingerprint: fingerprint_engine(&sim),
                cycles: sim.engine_stats().cycles,
            })
        });
        done.map(|d| (d, Engine::Golden(Box::new(sim))))
    }
}

impl Bench for PaperSuite {
    type Input = Vec<Workload>;
    type Probe = Engines;

    fn setup(seed: u64, scale: Scale) -> Self {
        PaperSuite { seed, scale }
    }

    /// The pass's programs, heaviest first so the two lanes finish
    /// close together.
    fn input(&self, op: u64) -> Vec<Workload> {
        let s = |k: u64| mix(self.seed, op, k);
        match self.scale {
            Scale::Full => vec![
                cabt_workloads::fibonacci(3450, 6),
                cabt_workloads::sieve(1200),
                cabt_workloads::dpcm(1800, s(1)),
                cabt_workloads::subband(360, s(5)),
                cabt_workloads::ellip(360, s(3)),
                cabt_workloads::fir(16, 900, s(2)),
                cabt_workloads::gcd(48, s(0)),
            ],
            Scale::Smoke => vec![
                cabt_workloads::fibonacci(80, 6),
                cabt_workloads::sieve(240),
                cabt_workloads::dpcm(160, s(1)),
                cabt_workloads::subband(32, s(5)),
                cabt_workloads::ellip(32, s(3)),
                cabt_workloads::fir(8, 120, s(2)),
                cabt_workloads::gcd(8, s(0)),
            ],
        }
    }

    fn run(&mut self, input: &Vec<Workload>) -> Counters {
        let done = on_lanes(&jobs(input), None, |job, _| session(*job));
        fold(done.iter().map(Option::as_ref))
    }

    fn run_traced(&mut self, input: &Vec<Workload>, ctx: &Ctx) -> (Counters, Engines) {
        let jobs = jobs(input);
        let results = on_lanes(&jobs, Some(ctx), |job, lane| {
            traced_session(*job, lane.expect("traced lanes carry a span context"))
        });
        let counters = fold(results.iter().map(|r| r.as_ref().map(|(d, _)| d)));
        let engines = jobs
            .iter()
            .zip(results)
            .filter_map(|((w, _), r)| r.map(|(_, e)| (w.name, w.expected_d2, e)))
            .collect();
        (counters, engines)
    }

    /// Steady-state runs after `reset()`, outside the op and on the
    /// same two lanes as the first runs: the golden engine resets in
    /// place; a translated session's reset rebuilds its platform from
    /// the retained image, as `Session::reset` does (not timed).
    fn probe(&mut self, engines: Engines, ctx: &Ctx) -> Counters {
        let engines: Vec<_> = engines.into_iter().map(std::sync::Mutex::new).collect();
        let checked = on_lanes(&engines, Some(ctx), |slot, lane| {
            let lane = lane.expect("probe lanes carry a span context");
            let mut slot = slot.lock().expect("each engine is probed once");
            let (name, expected, engine) = &mut *slot;
            match engine {
                Engine::Golden(sim) => {
                    sim.reset();
                    let stop = lane.span("golden.steady", name, |_| {
                        let stop = sim.run_until(HALT);
                        (stop, sim.engine_stats().retired)
                    });
                    stop == Ok(StopCause::Halted) && sim.cpu.d(2) == *expected
                }
                Engine::Vliw(image) => {
                    let Ok(mut platform) = Platform::new(image, PlatformConfig::unlimited()) else {
                        return false;
                    };
                    platform.set_dispatch(VliwDispatch::Trace);
                    let stop = lane.span("vliw.steady", name, |_| {
                        let stop = platform.engine().run_until(HALT);
                        (stop, platform.sim().engine_stats().retired)
                    });
                    stop == Ok(StopCause::Halted) && vliw_d2(&platform) == *expected
                }
            }
        });
        let mut c = Counters::default();
        for ok in checked {
            c.session(ok);
        }
        c
    }

    /// End-to-end, first-run and steady MIPS per program — the
    /// ROADMAP's trace-tier gap on fir (golden 42 MIPS end to end vs 86
    /// steady at the re-anchor).
    fn baseline_table(&self, s: &Summary, _m: &BTreeMap<&'static str, f64>, out: &mut String) {
        let mut rows: BTreeMap<&str, [f64; 6]> = BTreeMap::new();
        for ((layer, tag), (ns, units)) in &s.by_tag {
            let col = match *layer {
                "golden.session" => 0,
                "golden.run" => 1,
                "golden.steady" => 2,
                "vliw.session" => 3,
                "vliw.run" => 4,
                "vliw.steady" => 5,
                _ => continue,
            };
            rows.entry(tag).or_default()[col] = *units as f64 / *ns as f64 * 1e3;
        }
        let _ = writeln!(
            out,
            "  trace tiers, Munits/s: end to end (build included) / first run / steady run after reset()\n  {:<10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "program", "golden", "1st", "steady", "vliw", "1st", "steady"
        );
        for (tag, r) in rows {
            let _ = writeln!(
                out,
                "  {tag:<10} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
                r[0], r[1], r[2], r[3], r[4], r[5]
            );
        }
    }
}
