//! The execution-engine abstraction shared by every CABT simulator.
//!
//! The paper's experiments (Fig. 5, Fig. 6, Tables 1/2) compare *four*
//! execution vehicles for the same source program: the evaluation board
//! (our golden model), the translated VLIW image, the FPGA emulation and
//! an RT-level simulation. The repo grows more backends over time (JIT,
//! sharded multi-core); everything that *drives* an execution — the
//! platform harness, the lockstep debugger, the benchmark tables — goes
//! through one trait so backends stay interchangeable.
//!
//! [`ExecutionEngine`] deliberately models the *dispatch core* of a
//! simulator, not its construction: engines are built by their own
//! crates (from an ELF image, a packet list, a translation) and handed
//! to generic drivers afterwards. The trait surface is exactly what the
//! drivers need:
//!
//! * stepping and bounded runs ([`ExecutionEngine::step_unit`],
//!   [`ExecutionEngine::run_until`]) with a uniform stop/fault shape,
//! * cycle/retirement counters ([`EngineStats`]) for throughput tables,
//! * architectural inspection (program counter, a flat register file
//!   index space, memory reads) for debuggers and differential tests.
//!
//! Engines in this workspace come in three dispatch flavours (see
//! `cabt-tricore`/`cabt-vliw`): a retained naive interpreter that
//! re-fetches through an address map on every step (the seed
//! implementation, kept as the reference for differential testing),
//! the pre-decoded engine, which decodes the whole image once at load
//! into a dense table indexed by position so the hot loop chases table
//! indices instead of hashing addresses, and the *compiled* engine,
//! which fuses each basic block of that table into one boxed closure —
//! the paper's compiled-simulation thesis. The basic-block discovery
//! every compiled engine (and the translator's CFG) shares lives in
//! [`blocks`]: one index-based partition algorithm producing leaders,
//! block spans and fall-through/taken block edges.

pub mod analyze;
pub mod blocks;
pub mod pool;
pub mod trace;

use std::fmt;

/// Why a bounded run returned without a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// The program reached its halt instruction.
    Halted,
    /// The budget given to [`ExecutionEngine::run_until`] was exhausted.
    LimitReached,
}

/// Budget for [`ExecutionEngine::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limit {
    /// Stop once the engine's cycle counter reaches this value.
    Cycles(u64),
    /// Stop once this many units (instructions or packets) have retired.
    Retirements(u64),
}

/// Uniform counters every engine exposes, in engine-native units
/// (source cycles/instructions for interpreters of source code, target
/// cycles/packets for the VLIW core).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Clock cycles consumed.
    pub cycles: u64,
    /// Units retired (instructions or execute packets).
    pub retired: u64,
    /// Cycles spent stalled (device waits, cache misses — engine
    /// defined; 0 where the engine does not track stalls separately).
    pub stall_cycles: u64,
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles / {} retired ({} stalled)",
            self.cycles, self.retired, self.stall_cycles
        )
    }
}

/// A simulator core that generic drivers (platform, debugger, bench
/// harnesses) can reset, step, run and inspect.
///
/// Registers are exposed through a flat index space; what an index
/// means is engine-defined and documented by the implementation (the
/// golden model maps `0..16` to `D0..D15` and `16..32` to `A0..A15`;
/// the VLIW engine exposes its 64 physical registers, with source
/// registers at the homes assigned by register binding). Drivers that
/// need *named* source registers resolve names to indices themselves.
pub trait ExecutionEngine {
    /// Fault type raised by stepping.
    type Error: std::error::Error + 'static;

    /// Resumable image of the engine's *mutable* state: registers,
    /// memory, counters, pending pipeline state. Immutable load-time
    /// artifacts (pre-decoded tables, elaborated processes) are shared
    /// by reference or rebuilt identically, so a snapshot is cheap
    /// relative to reconstruction.
    type Snapshot: Clone;

    /// Captures the engine's current mutable state.
    ///
    /// Scope matches [`ExecutionEngine::reset`]: the snapshot covers
    /// the *engine*. Attached devices (bus hooks, memory-mapped
    /// peripherals) are owned by whoever attached them and are not
    /// captured; runs whose engine trajectory depends on device state
    /// (e.g. stalling synchronization reads) are only reproducible
    /// from a snapshot if the devices are restored by their owner too.
    fn snapshot(&self) -> Self::Snapshot;

    /// Restores state captured by [`ExecutionEngine::snapshot`] on
    /// *this* engine (or one built from the same image). Restoring a
    /// snapshot from a different program is not detected and yields
    /// unspecified (but memory-safe) behaviour.
    fn restore(&mut self, snapshot: &Self::Snapshot);

    /// Returns architectural state (registers, program counter, cycle
    /// and stat counters, pending pipeline state) to the
    /// post-load/reset state, and restores memory to the engine's
    /// load-time image where one was captured — so reset-then-rerun is
    /// reproducible even for programs that mutate their data sections.
    /// Engines loaded by hand without sealing an image leave memory
    /// untouched (see the implementation's docs). Engines without a
    /// bespoke reset path implement this by restoring a
    /// [`ExecutionEngine::snapshot`] captured at construction (the RTL
    /// core does).
    ///
    /// Scope: reset covers the *engine*. Attached devices (bus hooks,
    /// memory-mapped peripherals) are owned by whoever attached them
    /// and keep their state; a driver that needs a fully fresh system
    /// — e.g. a platform whose synchronization device has generated
    /// cycles — rebuilds that harness instead.
    fn reset(&mut self);

    /// Dispatches one engine-native unit: one instruction on an
    /// instruction interpreter, one execute packet on the VLIW core.
    ///
    /// # Errors
    ///
    /// Engine-specific faults (invalid program counter, memory faults).
    fn step_unit(&mut self) -> Result<(), Self::Error>;

    /// Runs until halt or until `limit` is exhausted, whichever comes
    /// first. The budget check happens *before* each dispatch and
    /// *before* the halt check, uniformly across every engine: a zero
    /// budget, or a limit already met at entry, returns
    /// [`StopCause::LimitReached`] without dispatching anything — even
    /// on an engine that is already halted. A `Retirements` budget is
    /// exact, while a `Cycles` budget may be overshot by the last
    /// dispatched unit (units cost several cycles on most engines) —
    /// `LimitReached` means the engine is at or just past the boundary,
    /// never more than one unit beyond it.
    ///
    /// # Errors
    ///
    /// Propagates faults from stepping.
    fn run_until(&mut self, limit: Limit) -> Result<StopCause, Self::Error> {
        loop {
            let exhausted = match limit {
                Limit::Cycles(c) => self.cycle() >= c,
                Limit::Retirements(r) => self.engine_stats().retired >= r,
            };
            if exhausted {
                return Ok(StopCause::LimitReached);
            }
            if self.is_halted() {
                self.commit_arch_state();
                return Ok(StopCause::Halted);
            }
            self.step_unit()?;
        }
    }

    /// Clock cycles consumed so far.
    fn cycle(&self) -> u64;

    /// True once the program executed its halt instruction.
    fn is_halted(&self) -> bool;

    /// Address of the next unit to dispatch, if it is known and inside
    /// the program (`None` once execution left the image).
    fn pc(&self) -> Option<u32>;

    /// Makes all retired results architecturally visible (e.g. commits
    /// delayed write-backs). A no-op for engines without delayed state.
    fn commit_arch_state(&mut self) {}

    /// Size of the flat register index space.
    fn reg_count(&self) -> usize;

    /// Reads register `index` of the flat space.
    ///
    /// # Panics
    ///
    /// May panic if `index >= reg_count()`.
    fn read_reg_index(&self, index: usize) -> u32;

    /// Writes register `index` of the flat space.
    ///
    /// # Panics
    ///
    /// May panic if `index >= reg_count()`.
    fn write_reg_index(&mut self, index: usize, value: u32);

    /// Reads `len` bytes of engine memory at `addr`.
    ///
    /// # Errors
    ///
    /// Engine memory faults.
    fn read_mem(&mut self, addr: u32, len: usize) -> Result<Vec<u8>, Self::Error>;

    /// Uniform counters.
    fn engine_stats(&self) -> EngineStats;
}

/// Seed-reproducible rolling hash of execution effects — the 8-byte
/// *execution fingerprint* the long randomized differential suites
/// compare instead of full state dumps (one full-state check stays as
/// the anchor; every other comparison shrinks to a digest that still
/// pins every mixed-in observable).
///
/// FNV-1a over the mixed words, with each value serialized
/// little-endian: dependency-free, byte-order stable across hosts, and
/// order-sensitive (mixing the same values in a different order yields
/// a different digest — register files are positional).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// The FNV-1a 64-bit offset basis.
    pub fn new() -> Fingerprint {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes raw bytes.
    pub fn mix_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Mixes one 32-bit word.
    pub fn mix_u32(&mut self, v: u32) {
        self.mix_bytes(&v.to_le_bytes());
    }

    /// Mixes one 64-bit word.
    pub fn mix_u64(&mut self, v: u64) {
        self.mix_bytes(&v.to_le_bytes());
    }

    /// The accumulated digest.
    pub fn digest(&self) -> u64 {
        self.0
    }
}

/// Digest of an engine's architecturally visible trajectory: counters,
/// the full flat register file, the program counter and the halt flag.
/// Memory is not walked here (engines read it mutably and tests care
/// about specific windows) — mix the windows of interest with
/// [`Fingerprint::mix_bytes`] on top of this digest's parts if needed.
pub fn fingerprint_engine<E: ExecutionEngine>(engine: &E) -> u64 {
    let mut fp = Fingerprint::new();
    let s = engine.engine_stats();
    fp.mix_u64(s.cycles);
    fp.mix_u64(s.retired);
    fp.mix_u64(s.stall_cycles);
    for i in 0..engine.reg_count() {
        fp.mix_u32(engine.read_reg_index(i));
    }
    fp.mix_u32(engine.pc().unwrap_or(u32::MAX));
    fp.mix_u64(u64::from(engine.is_halted()));
    fp.digest()
}

/// An ordered list of [`fingerprint_engine`] digests recorded at
/// comparison boundaries — the unit a differential harness compares
/// instead of full state dumps.
///
/// Two engines driven through the *same* boundary sequence (same epoch
/// stride, same run-call pattern) produce element-wise equal chains iff
/// their architecturally visible trajectories agree at every boundary;
/// [`DigestChain::first_divergence`] then localizes a mismatch to the
/// first diverging boundary, which is what the fuzz loop's shrinker
/// and the regression tests pin.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DigestChain {
    entries: Vec<u64>,
}

impl DigestChain {
    /// An empty chain.
    pub fn new() -> DigestChain {
        DigestChain::default()
    }

    /// Records the engine's current [`fingerprint_engine`] digest as
    /// the next boundary entry and returns it.
    pub fn record<E: ExecutionEngine>(&mut self, engine: &E) -> u64 {
        let d = fingerprint_engine(engine);
        self.entries.push(d);
        d
    }

    /// Appends a precomputed digest (e.g. one augmented with memory
    /// windows on top of [`fingerprint_engine`]).
    pub fn push(&mut self, digest: u64) {
        self.entries.push(digest);
    }

    /// Number of recorded boundaries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no boundary has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The recorded per-boundary digests, in order.
    pub fn entries(&self) -> &[u64] {
        &self.entries
    }

    /// The whole chain folded into one digest (order-sensitive).
    pub fn rolled(&self) -> u64 {
        let mut fp = Fingerprint::new();
        for &e in &self.entries {
            fp.mix_u64(e);
        }
        fp.digest()
    }

    /// Index of the first boundary where the chains disagree: the
    /// first element-wise mismatch, or — when one chain is a strict
    /// prefix of the other — the first index only one of them has.
    /// `None` iff the chains are identical.
    pub fn first_divergence(&self, other: &DigestChain) -> Option<usize> {
        let common = self.entries.len().min(other.entries.len());
        for i in 0..common {
            if self.entries[i] != other.entries[i] {
                return Some(i);
            }
        }
        (self.entries.len() != other.entries.len()).then_some(common)
    }
}

/// Generic epoch-batched driver: runs `engine` to halt within a total
/// cycle budget, advancing in epochs of `epoch` cycles.
///
/// Harnesses that poll shared state between bursts (the platform
/// snapshots synchronization-device counters, future async peripherals
/// get clocked) call this instead of hand-rolling the loop; `on_epoch`
/// fires after every completed epoch. With `epoch >= max_cycles` this
/// degenerates to a single uninterrupted run.
///
/// # Errors
///
/// Propagates engine faults.
pub fn run_epochs<E: ExecutionEngine>(
    engine: &mut E,
    max_cycles: u64,
    epoch: u64,
    mut on_epoch: impl FnMut(&mut E),
) -> Result<StopCause, E::Error> {
    let epoch = epoch.max(1);
    loop {
        let deadline = engine.cycle().saturating_add(epoch).min(max_cycles);
        match engine.run_until(Limit::Cycles(deadline))? {
            StopCause::Halted => return Ok(StopCause::Halted),
            StopCause::LimitReached => {
                // `run_until` reports the budget before the halt: an
                // engine that halted exactly on the epoch boundary is
                // still a completed run, not an exhausted one.
                if engine.is_halted() {
                    engine.commit_arch_state();
                    return Ok(StopCause::Halted);
                }
                if deadline >= max_cycles {
                    return Ok(StopCause::LimitReached);
                }
                on_epoch(engine);
            }
        }
    }
}

/// The scheduling frontier of a shard set: the cycle count of the
/// least-advanced non-halted shard (every shard has completed at least
/// this many cycles), or the maximum cycle count when all shards have
/// halted. Paired with whether the whole set has halted. This is the
/// clock [`plan_epoch_round`] budgets against, and what a sharded
/// session reports as its own [`ExecutionEngine::cycle`].
pub fn shard_frontier<E: ExecutionEngine>(shards: &[E]) -> (u64, bool) {
    frontier_of(shards.iter().map(|s| (s.cycle(), s.is_halted())))
}

fn frontier_of(shards: impl Iterator<Item = (u64, bool)>) -> (u64, bool) {
    let mut max_all = 0u64;
    let mut min_live: Option<u64> = None;
    for (c, halted) in shards {
        max_all = max_all.max(c);
        if !halted {
            min_live = Some(min_live.map_or(c, |m| m.min(c)));
        }
    }
    (min_live.unwrap_or(max_all), min_live.is_none())
}

/// One shard as the epoch-round planner sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardState {
    /// Clock cycles consumed.
    pub cycle: u64,
    /// True once the shard executed its halt instruction.
    pub halted: bool,
    /// Units retired.
    pub retired: u64,
}

impl ShardState {
    /// The planner's view of `shard`.
    pub fn of<E: ExecutionEngine>(shard: &E) -> ShardState {
        ShardState {
            cycle: shard.cycle(),
            halted: shard.is_halted(),
            retired: shard.engine_stats().retired,
        }
    }
}

/// What [`plan_epoch_round`] decided for the next round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundPlan {
    /// Stop the run. Before reporting [`StopCause::Halted`] the
    /// executor commits architectural state on every shard.
    Done(StopCause),
    /// Run every shard in `live` to `deadline`, then exchange shared
    /// state at the barrier and plan again. A faulting round ends the
    /// run with the lowest-numbered shard's fault and no barrier.
    Round {
        /// The cycle deadline of this round.
        deadline: u64,
        /// Whether a shard halting exactly on the deadline commits its
        /// architectural state inside the round (a completed run, as
        /// in the single-engine epoch driver).
        commit_boundary_halts: bool,
        /// The non-halted shards below the deadline, in shard order.
        /// Never empty.
        live: Vec<usize>,
    },
}

/// The epoch schedule of a shard set — the one decision procedure
/// every shard executor runs ([`run_epoch_rounds`] inline,
/// [`pool::FleetPool`] on worker threads), so all of them simulate
/// the same rounds to the same deadlines and exchange at the same
/// barriers.
///
/// Stop semantics mirror [`ExecutionEngine::run_until`]: the budget
/// check precedes the halt check (a zero budget stops with
/// [`StopCause::LimitReached`] even on a fully halted set), and
/// `Halted` means *every* shard halted. An empty set is halted.
///
/// * `Limit::Cycles(max)` binds the frontier ([`shard_frontier`]):
///   each round runs to `frontier + epoch`, clamped to `max`.
/// * `Limit::Retirements(budget)` binds the aggregate retirement
///   count. A shard retires at most one unit per cycle, so the round
///   length shrinks with the remaining budget
///   (`remaining / shards`, clamped to `1..=epoch`) and the aggregate
///   overshoots by fewer than `shards` units. Boundary halts commit
///   only when the whole set has halted.
///
/// `epoch` is clamped to at least one cycle.
pub fn plan_epoch_round(shards: &[ShardState], limit: Limit, epoch: u64) -> RoundPlan {
    if shards.is_empty() {
        return RoundPlan::Done(StopCause::Halted);
    }
    let epoch = epoch.max(1);
    let (frontier, all_halted) = frontier_of(shards.iter().map(|s| (s.cycle, s.halted)));
    let (exhausted, deadline, commit_boundary_halts) = match limit {
        Limit::Cycles(max) => (
            frontier >= max,
            frontier.saturating_add(epoch).min(max),
            true,
        ),
        Limit::Retirements(budget) => {
            let retired: u64 = shards.iter().map(|s| s.retired).sum();
            let room = (budget.saturating_sub(retired) / shards.len() as u64).clamp(1, epoch);
            (retired >= budget, frontier.saturating_add(room), false)
        }
    };
    if exhausted {
        return RoundPlan::Done(StopCause::LimitReached);
    }
    if all_halted {
        return RoundPlan::Done(StopCause::Halted);
    }
    let live = shards
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.halted && s.cycle < deadline)
        .map(|(i, _)| i)
        .collect();
    RoundPlan::Round {
        deadline,
        commit_boundary_halts,
        live,
    }
}

/// Advances one shard to an epoch-round deadline — the per-shard body
/// of every executor. With `commit_boundary_halts`, a shard that halts
/// exactly on the deadline gets its architectural state committed.
pub(crate) fn run_shard_to_deadline<E: ExecutionEngine>(
    shard: &mut E,
    deadline: u64,
    commit_boundary_halts: bool,
) -> Result<(), E::Error> {
    if shard.run_until(Limit::Cycles(deadline))? == StopCause::LimitReached
        && commit_boundary_halts
        && shard.is_halted()
    {
        shard.commit_arch_state();
    }
    Ok(())
}

/// Runs a shard set to `limit` on the calling thread: the inline
/// executor of [`plan_epoch_round`]. Each round runs its live shards in
/// shard order, then fires `on_epoch` — the barrier at which harnesses
/// exchange shared device state (the platform's arbiter merges the
/// per-shard SoC-bus images there). Because no shard runs ahead of the
/// slowest by more than one epoch, shards communicating through shared
/// devices see each other's traffic with at most one epoch of skew,
/// identically on every run and under every executor.
///
/// # Errors
///
/// The fault of the lowest-numbered faulting shard. Every other live
/// shard of the round still runs to its deadline first, so the
/// post-fault state is the same under every executor; the faulting
/// round fires no barrier.
pub fn run_epoch_rounds<E: ExecutionEngine>(
    shards: &mut [E],
    limit: Limit,
    epoch: u64,
    mut on_epoch: impl FnMut(&mut [E]),
) -> Result<StopCause, E::Error> {
    loop {
        let states: Vec<ShardState> = shards.iter().map(ShardState::of).collect();
        match plan_epoch_round(&states, limit, epoch) {
            RoundPlan::Done(stop) => {
                if stop == StopCause::Halted {
                    for s in shards.iter_mut() {
                        s.commit_arch_state();
                    }
                }
                return Ok(stop);
            }
            RoundPlan::Round {
                deadline,
                commit_boundary_halts,
                live,
            } => {
                let mut fault = None;
                for i in live {
                    if let Err(e) =
                        run_shard_to_deadline(&mut shards[i], deadline, commit_boundary_halts)
                    {
                        fault.get_or_insert(e);
                    }
                }
                if let Some(e) = fault {
                    return Err(e);
                }
                on_epoch(shards);
            }
        }
    }
}

/// Epoch-synchronized multi-core driver: [`run_epoch_rounds`] under a
/// cycle budget on the frontier clock — every shard halts, or the
/// least-advanced shard exhausts `max_cycles`.
///
/// # Errors
///
/// The fault of the lowest-numbered faulting shard of the failing
/// round (see [`run_epoch_rounds`]).
pub fn run_epochs_sharded<E: ExecutionEngine>(
    shards: &mut [E],
    max_cycles: u64,
    epoch: u64,
    on_epoch: impl FnMut(&mut [E]),
) -> Result<StopCause, E::Error> {
    run_epoch_rounds(shards, Limit::Cycles(max_cycles), epoch, on_epoch)
}

/// Aggregate counters of a shard set: `retired` and `stall_cycles` sum
/// across shards (total work done), `cycles` is the maximum shard clock
/// (the machine has run for as long as its longest-running core).
pub fn aggregate_stats<E: ExecutionEngine>(shards: &[E]) -> EngineStats {
    shards.iter().fold(EngineStats::default(), |acc, s| {
        let st = s.engine_stats();
        EngineStats {
            cycles: acc.cycles.max(st.cycles),
            retired: acc.retired + st.retired,
            stall_cycles: acc.stall_cycles + st.stall_cycles,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy engine: each unit costs 3 cycles, halts after 5 units.
    struct Toy {
        cycles: u64,
        units: u64,
        regs: [u32; 4],
    }

    #[derive(Debug, PartialEq)]
    struct NoFault;
    impl fmt::Display for NoFault {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "no fault")
        }
    }
    impl std::error::Error for NoFault {}

    impl ExecutionEngine for Toy {
        type Error = NoFault;
        type Snapshot = (u64, u64, [u32; 4]);
        fn snapshot(&self) -> Self::Snapshot {
            (self.cycles, self.units, self.regs)
        }
        fn restore(&mut self, &(cycles, units, regs): &Self::Snapshot) {
            self.cycles = cycles;
            self.units = units;
            self.regs = regs;
        }
        fn reset(&mut self) {
            self.cycles = 0;
            self.units = 0;
            self.regs = [0; 4];
        }
        fn step_unit(&mut self) -> Result<(), NoFault> {
            self.cycles += 3;
            self.units += 1;
            self.regs[0] = self.units as u32;
            Ok(())
        }
        fn cycle(&self) -> u64 {
            self.cycles
        }
        fn is_halted(&self) -> bool {
            self.units >= 5
        }
        fn pc(&self) -> Option<u32> {
            (!self.is_halted()).then_some(self.units as u32 * 4)
        }
        fn reg_count(&self) -> usize {
            4
        }
        fn read_reg_index(&self, index: usize) -> u32 {
            self.regs[index]
        }
        fn write_reg_index(&mut self, index: usize, value: u32) {
            self.regs[index] = value;
        }
        fn read_mem(&mut self, _addr: u32, len: usize) -> Result<Vec<u8>, NoFault> {
            Ok(vec![0; len])
        }
        fn engine_stats(&self) -> EngineStats {
            EngineStats {
                cycles: self.cycles,
                retired: self.units,
                stall_cycles: 0,
            }
        }
    }

    fn toy() -> Toy {
        Toy {
            cycles: 0,
            units: 0,
            regs: [0; 4],
        }
    }

    #[test]
    fn fingerprints_are_reproducible_and_state_sensitive() {
        let mut a = toy();
        let mut b = toy();
        a.run_until(Limit::Retirements(3)).unwrap();
        b.run_until(Limit::Retirements(3)).unwrap();
        assert_eq!(fingerprint_engine(&a), fingerprint_engine(&b));

        // One more retirement, one register poke, each move the digest.
        b.step_unit().unwrap();
        assert_ne!(fingerprint_engine(&a), fingerprint_engine(&b));
        let base = fingerprint_engine(&a);
        a.write_reg_index(3, 1);
        assert_ne!(fingerprint_engine(&a), base);

        // Mixing is order-sensitive (positional register files).
        let mut x = Fingerprint::new();
        x.mix_u32(1);
        x.mix_u32(2);
        let mut y = Fingerprint::new();
        y.mix_u32(2);
        y.mix_u32(1);
        assert_ne!(x.digest(), y.digest());
    }

    #[test]
    fn run_until_halts_or_limits() {
        let mut t = toy();
        assert_eq!(t.run_until(Limit::Cycles(1_000)), Ok(StopCause::Halted));
        assert_eq!(t.cycle(), 15);

        let mut t = toy();
        assert_eq!(t.run_until(Limit::Cycles(7)), Ok(StopCause::LimitReached));
        assert_eq!(
            t.engine_stats().retired,
            3,
            "budget checked before dispatch"
        );

        let mut t = toy();
        assert_eq!(
            t.run_until(Limit::Retirements(2)),
            Ok(StopCause::LimitReached)
        );
        assert_eq!(t.engine_stats().retired, 2);
    }

    #[test]
    fn zero_budget_and_met_limits_never_step() {
        // Fresh engine, zero budget: LimitReached, nothing dispatched.
        let mut t = toy();
        assert_eq!(t.run_until(Limit::Cycles(0)), Ok(StopCause::LimitReached));
        assert_eq!(t.engine_stats().retired, 0);
        assert_eq!(
            t.run_until(Limit::Retirements(0)),
            Ok(StopCause::LimitReached)
        );
        assert_eq!(t.engine_stats().retired, 0);

        // Limit already met at entry: LimitReached without stepping.
        t.run_until(Limit::Retirements(2)).unwrap();
        let before = t.engine_stats();
        assert_eq!(t.run_until(Limit::Cycles(3)), Ok(StopCause::LimitReached));
        assert_eq!(t.engine_stats(), before);

        // The budget check precedes the halt check: even a halted
        // engine reports an exhausted budget as LimitReached.
        let mut t = toy();
        t.run_until(Limit::Cycles(u64::MAX)).unwrap();
        assert!(t.is_halted());
        assert_eq!(t.run_until(Limit::Cycles(0)), Ok(StopCause::LimitReached));
        assert_eq!(
            t.run_until(Limit::Cycles(u64::MAX)),
            Ok(StopCause::Halted),
            "an unexhausted budget still reports the halt"
        );
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut t = toy();
        t.run_until(Limit::Retirements(2)).unwrap();
        let snap = t.snapshot();
        t.run_until(Limit::Cycles(u64::MAX)).unwrap();
        let end = t.engine_stats();
        t.restore(&snap);
        assert_eq!(t.engine_stats().retired, 2);
        t.run_until(Limit::Cycles(u64::MAX)).unwrap();
        assert_eq!(t.engine_stats(), end, "replay from snapshot is identical");
    }

    #[test]
    fn epoch_driver_reports_boundary_halt_as_halted() {
        // The toy halts at exactly 15 cycles; an epoch of 5 makes the
        // halt coincide with an epoch deadline.
        let mut t = toy();
        let r = run_epochs(&mut t, 15, 5, |_| {});
        assert_eq!(r, Ok(StopCause::Halted));
    }

    #[test]
    fn reset_restores_counters() {
        let mut t = toy();
        t.run_until(Limit::Cycles(u64::MAX)).unwrap();
        t.reset();
        assert_eq!(t.cycle(), 0);
        assert!(!t.is_halted());
    }

    #[test]
    fn epoch_driver_visits_epoch_boundaries() {
        let mut t = toy();
        let mut epochs = 0;
        let r = run_epochs(&mut t, 1_000, 6, |_| epochs += 1);
        assert_eq!(r, Ok(StopCause::Halted));
        assert!(
            epochs >= 2,
            "15 cycles in epochs of 6: at least two boundaries"
        );
    }

    #[test]
    fn epoch_driver_respects_total_budget() {
        let mut t = toy();
        let r = run_epochs(&mut t, 7, 2, |_| {});
        assert_eq!(r, Ok(StopCause::LimitReached));
        assert!(t.cycle() <= 9, "stops at the budget boundary");
        assert!(!t.is_halted());
    }

    /// A toy shard for schedule-parity tests: each unit costs `cost`
    /// cycles, halts after `halt_units` units, optionally faults at a
    /// given unit count.
    pub(crate) struct Shardling {
        cycles: u64,
        units: u64,
        cost: u64,
        halt_units: u64,
        pub(crate) fault_at: Option<u64>,
    }

    #[derive(Debug, PartialEq)]
    pub(crate) struct Boom(pub(crate) u64);
    impl fmt::Display for Boom {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "boom at unit {}", self.0)
        }
    }
    impl std::error::Error for Boom {}

    impl ExecutionEngine for Shardling {
        type Error = Boom;
        type Snapshot = (u64, u64);
        fn snapshot(&self) -> Self::Snapshot {
            (self.cycles, self.units)
        }
        fn restore(&mut self, &(cycles, units): &Self::Snapshot) {
            self.cycles = cycles;
            self.units = units;
        }
        fn reset(&mut self) {
            self.cycles = 0;
            self.units = 0;
        }
        fn step_unit(&mut self) -> Result<(), Boom> {
            if self.fault_at == Some(self.units) {
                return Err(Boom(self.units));
            }
            self.units += 1;
            self.cycles += self.cost;
            Ok(())
        }
        fn cycle(&self) -> u64 {
            self.cycles
        }
        fn is_halted(&self) -> bool {
            self.units >= self.halt_units
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
            EngineStats {
                cycles: self.cycles,
                retired: self.units,
                stall_cycles: 0,
            }
        }
    }

    pub(crate) fn shardling(cost: u64, halt_units: u64) -> Shardling {
        Shardling {
            cycles: 0,
            units: 0,
            cost,
            halt_units,
            fault_at: None,
        }
    }

    #[test]
    fn sharded_driver_halts_when_all_shards_halt() {
        // Unequal speeds: the slow shard defines the frontier.
        let mut shards = vec![shardling(2, 10), shardling(7, 4)];
        let mut boundaries = 0;
        let r = run_epochs_sharded(&mut shards, u64::MAX, 8, |_| boundaries += 1);
        assert_eq!(r, Ok(StopCause::Halted));
        assert!(shards.iter().all(super::ExecutionEngine::is_halted));
        assert!(boundaries >= 2, "multiple epoch rounds: {boundaries}");
        let agg = aggregate_stats(&shards);
        assert_eq!(agg.retired, 14);
        assert_eq!(agg.cycles, 28, "max shard clock (7 * 4)");
    }

    #[test]
    fn sharded_driver_budget_precedes_halt_and_is_frontier_based() {
        // Zero budget: LimitReached without dispatching, even halted.
        let mut shards = vec![shardling(1, 0), shardling(1, 0)];
        assert!(shards.iter().all(super::ExecutionEngine::is_halted));
        let r = run_epochs_sharded(&mut shards, 0, 4, |_| {});
        assert_eq!(r, Ok(StopCause::LimitReached));
        // With budget, a fully halted set reports Halted.
        let r = run_epochs_sharded(&mut shards, 100, 4, |_| {});
        assert_eq!(r, Ok(StopCause::Halted));

        // The budget binds the *frontier*: the slowest live shard.
        let mut shards = vec![shardling(1, 1000), shardling(10, 1000)];
        let r = run_epochs_sharded(&mut shards, 50, 5, |_| {});
        assert_eq!(r, Ok(StopCause::LimitReached));
        let (frontier, all_halted) = shard_frontier(&shards);
        assert!(!all_halted);
        assert!(frontier >= 50, "frontier reached the budget: {frontier}");
        // Lockstep: nobody ran more than one epoch past the frontier.
        for s in &shards {
            assert!(
                s.cycle() < 50 + 5 + 10,
                "shard ran ahead of the epoch window: {}",
                s.cycle()
            );
        }
    }

    #[test]
    fn sharded_driver_is_deterministic() {
        let run = || {
            let mut shards = vec![shardling(3, 40), shardling(5, 25), shardling(2, 60)];
            run_epochs_sharded(&mut shards, u64::MAX, 16, |_| {}).unwrap();
            shards
                .iter()
                .map(super::ExecutionEngine::engine_stats)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn planner_checks_the_budget_first_and_sizes_retirement_rounds() {
        let st = |cycle, halted, retired| ShardState {
            cycle,
            halted,
            retired,
        };
        let halted = [st(40, true, 10), st(70, true, 30)];
        for limit in [Limit::Cycles(70), Limit::Retirements(40)] {
            assert_eq!(
                plan_epoch_round(&halted, limit, 16),
                RoundPlan::Done(StopCause::LimitReached),
                "{limit:?}: an exhausted budget wins over the halt"
            );
        }
        assert_eq!(
            plan_epoch_round(&halted, Limit::Retirements(41), 16),
            RoundPlan::Done(StopCause::Halted)
        );
        // 100 - 40 retired leaves 30 per shard, clamped to the epoch;
        // then 2 per shard; then the one-cycle floor.
        let set = [st(5, false, 20), st(9, false, 20)];
        for (budget, deadline) in [(100, 5 + 16), (44, 5 + 2), (41, 5 + 1)] {
            assert_eq!(
                plan_epoch_round(&set, Limit::Retirements(budget), 16),
                RoundPlan::Round {
                    deadline,
                    commit_boundary_halts: false,
                    live: if deadline > 9 { vec![0, 1] } else { vec![0] },
                },
                "budget {budget}"
            );
        }
    }

    #[test]
    fn empty_shard_set_is_trivially_halted() {
        let mut shards: Vec<Toy> = Vec::new();
        assert_eq!(
            run_epochs_sharded(&mut shards, 100, 4, |_| {}),
            Ok(StopCause::Halted)
        );
    }

    #[test]
    fn stats_display() {
        let s = EngineStats {
            cycles: 10,
            retired: 4,
            stall_cycles: 1,
        };
        assert_eq!(s.to_string(), "10 cycles / 4 retired (1 stalled)");
    }

    /// Drives a toy to halt recording one chain entry per retirement.
    fn toy_chain(t: &mut Toy) -> DigestChain {
        let mut chain = DigestChain::new();
        chain.record(t);
        while !t.is_halted() {
            t.step_unit().unwrap();
            chain.record(t);
        }
        chain
    }

    #[test]
    fn identical_runs_produce_identical_chains() {
        let mut a = toy();
        let mut b = toy();
        let ca = toy_chain(&mut a);
        let cb = toy_chain(&mut b);
        assert_eq!(ca, cb);
        assert_eq!(ca.first_divergence(&cb), None);
        assert_eq!(ca.rolled(), cb.rolled());
        assert_eq!(ca.len(), 6, "entry boundary plus five retirements");
        assert!(!ca.is_empty());
        assert_eq!(ca.entries().len(), ca.len());
    }

    #[test]
    fn register_flip_at_epoch_k_diverges_at_k_and_never_earlier() {
        // Boundary k is recorded after k retirements; flip a register
        // in engine `b` right before that boundary's record call.
        for k in 1..=5usize {
            let mut a = toy();
            let mut b = toy();
            let mut ca = DigestChain::new();
            let mut cb = DigestChain::new();
            ca.record(&a);
            cb.record(&b);
            for step in 1..=5usize {
                a.step_unit().unwrap();
                b.step_unit().unwrap();
                if step == k {
                    b.write_reg_index(3, b.read_reg_index(3) ^ 1);
                }
                ca.record(&a);
                cb.record(&b);
            }
            assert_eq!(
                ca.first_divergence(&cb),
                Some(k),
                "flip at epoch {k} must surface at boundary {k}, never earlier"
            );
            assert_eq!(cb.first_divergence(&ca), Some(k), "divergence is symmetric");
            assert_ne!(ca.rolled(), cb.rolled());
        }
    }

    #[test]
    fn prefix_chains_diverge_at_the_shorter_length() {
        let mut a = toy();
        let mut b = toy();
        let ca = toy_chain(&mut a);
        let mut cb = DigestChain::new();
        cb.record(&b);
        for _ in 0..3 {
            b.step_unit().unwrap();
            cb.record(&b);
        }
        // `cb` is a strict prefix of `ca`: first index only one has.
        assert_eq!(ca.first_divergence(&cb), Some(4));
        assert_eq!(cb.first_divergence(&ca), Some(4));

        // A hand-pushed digest participates like a recorded one.
        let mut cc = cb.clone();
        cc.push(0xdead_beef);
        assert_eq!(cb.first_divergence(&cc), Some(4));
    }
}
