//! Differential proof of the trait-level snapshot capability:
//! `snapshot → run N → restore → run N` must be bit-identical —
//! registers, memory, `EngineStats`, cycle count, pc — on both
//! pre-decoded dispatch cores (golden model and VLIW target, in both
//! dispatch modes) and on the RTL core. The snapshot is taken
//! mid-flight, so pending pipeline state (delayed write-backs, branch
//! shadows, cache contents, timing state) is covered, not just
//! architectural registers.

use cabt::prelude::*;
use cabt_isa::elf::SectionKind;
use cabt_rtlsim::RtlCore;
use cabt_tricore::sim::DispatchMode;
use cabt_vliw::sim::VliwDispatch;

const SRC: &str = "
    .text
_start:
    movh.a %a2, hi:arr
    lea  %a2, [%a2]lo:arr
    mov  %d0, 6
    mov.a %a3, %d0
    mov  %d2, 0
sum:
    ld.w %d1, [%a2+]4
    add  %d2, %d1
    st.w [%a2]-4, %d2
    loop %a3, sum
    debug
    .data
arr: .word 3, 1, 4, 1, 5, 9
";

/// Every observable the trait exposes, plus the given memory windows.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    regs: Vec<u32>,
    stats: cabt::exec::EngineStats,
    cycle: u64,
    pc: Option<u32>,
    halted: bool,
    mem: Vec<Vec<u8>>,
}

fn observe<E: ExecutionEngine>(e: &mut E, windows: &[(u32, usize)]) -> Observed {
    Observed {
        regs: (0..e.reg_count()).map(|i| e.read_reg_index(i)).collect(),
        stats: e.engine_stats(),
        cycle: e.cycle(),
        pc: e.pc(),
        halted: e.is_halted(),
        mem: windows
            .iter()
            .map(|&(addr, len)| e.read_mem(addr, len).expect("readable"))
            .collect(),
    }
}

/// The differential core: run `k` units, snapshot, run `n` more,
/// observe, restore, run `n` again, and demand identical observables
/// after both replays.
fn diff_snapshot<E: ExecutionEngine>(label: &str, e: &mut E, k: u64, n: u64, win: &[(u32, usize)]) {
    assert_eq!(
        e.run_until(Limit::Retirements(k)).expect("runs"),
        StopCause::LimitReached,
        "{label}: warm-up must not halt (pick a smaller k)"
    );
    // Block-granular engines (the golden compiled core) may overshoot a
    // retirement budget into the end of the current block; the snapshot
    // contract is about rewinding to wherever the warm-up *actually*
    // stopped.
    let at = e.engine_stats().retired;
    assert!(at >= k, "{label}: warm-up fell short of its budget");
    let snap = e.snapshot();
    e.run_until(Limit::Retirements(k + n)).expect("runs");
    let first = observe(e, win);
    e.restore(&snap);
    assert_eq!(
        e.engine_stats().retired,
        at,
        "{label}: restore must rewind the retirement counter"
    );
    e.run_until(Limit::Retirements(k + n)).expect("replays");
    let second = observe(e, win);
    assert_eq!(first, second, "{label}: replay diverged");

    // And a restored engine replays all the way to the same halt.
    e.restore(&snap);
    e.run_until(Limit::Cycles(u64::MAX))
        .expect("replays to halt");
    let end1 = observe(e, win);
    e.restore(&snap);
    e.run_until(Limit::Cycles(u64::MAX))
        .expect("replays to halt");
    let end2 = observe(e, win);
    assert_eq!(end1, end2, "{label}: halt replay diverged");
    assert!(end1.halted, "{label}: replay must reach the halt");
}

/// Data/BSS windows of the source image (identity-mapped on every
/// backend in this workspace).
fn data_windows(elf: &cabt_isa::elf::ElfFile) -> Vec<(u32, usize)> {
    elf.sections
        .iter()
        .filter(|s| matches!(s.kind, SectionKind::Data | SectionKind::Bss) && s.size > 0)
        .map(|s| (s.addr, s.size as usize))
        .collect()
}

#[test]
fn golden_model_snapshot_is_bit_identical_in_every_dispatch_mode() {
    let elf = assemble(SRC).unwrap();
    let win = data_windows(&elf);
    for mode in [
        DispatchMode::Predecoded,
        DispatchMode::Compiled,
        DispatchMode::Trace,
        DispatchMode::Naive,
    ] {
        let mut sim = Simulator::new(&elf).unwrap();
        // Aggressive trace formation so the snapshot/restore straddles
        // fused-trace dispatch (the tier is architecturally invisible,
        // so restore need not rewind the profile — replay must still be
        // bit-identical).
        sim.set_trace_config(cabt::exec::trace::TraceConfig {
            warmup: 1_000_000,
            hot_threshold: 2,
            ..Default::default()
        });
        sim.set_dispatch(mode);
        diff_snapshot(&format!("golden/{mode:?}"), &mut sim, 7, 9, &win);
    }
}

#[test]
fn vliw_core_snapshot_is_bit_identical_in_both_dispatch_modes() {
    let elf = assemble(SRC).unwrap();
    let win = data_windows(&elf);
    for level in [DetailLevel::Static, DetailLevel::Cache] {
        let t = Translator::new(level).translate(&elf).unwrap();
        for mode in [
            VliwDispatch::Predecoded,
            VliwDispatch::Compiled,
            VliwDispatch::Trace,
            VliwDispatch::Naive,
        ] {
            let mut sim = t.make_sim().unwrap();
            sim.set_trace_config(cabt::exec::trace::TraceConfig {
                warmup: 1_000_000,
                hot_threshold: 2,
                ..Default::default()
            });
            sim.set_dispatch(mode);
            // Snapshot inside the program: loads in flight, branch
            // shadows pending.
            diff_snapshot(&format!("vliw/{level}/{mode:?}"), &mut sim, 11, 17, &win);
        }
    }
}

#[test]
fn rtl_core_snapshot_is_bit_identical() {
    let elf = assemble(SRC).unwrap();
    let win = data_windows(&elf);
    let mut core = RtlCore::new(&elf).unwrap();
    diff_snapshot("rtl", &mut core, 7, 9, &win);
}

#[test]
fn rtl_core_reset_restores_the_initial_snapshot() {
    let elf = assemble(SRC).unwrap();
    let win = data_windows(&elf);
    let mut core = RtlCore::new(&elf).unwrap();
    core.run_until(Limit::Cycles(u64::MAX)).unwrap();
    let first = observe(&mut core, &win);
    assert!(first.halted);
    core.reset();
    assert_eq!(core.cycle(), 0, "reset rewinds the clock");
    assert_eq!(core.engine_stats().retired, 0);
    assert!(!ExecutionEngine::is_halted(&core));
    core.run_until(Limit::Cycles(u64::MAX)).unwrap();
    let second = observe(&mut core, &win);
    assert_eq!(first, second, "reset + rerun reproduces the run");
}

/// A timer+UART driver: three rounds of delay-spin, timer read,
/// transmit, timer-epoch reset — every peripheral the default bus has
/// state in gets touched repeatedly.
const TIMER_UART_SRC: &str = "
    .text
_start:
    movh.a %a2, 0xf000          # timer at the I/O base
    movh.a %a3, 0xf000
    lea    %a3, [%a3]0x100      # uart
    mov    %d6, 3
round:
    mov    %d0, 40
spin:
    addi   %d0, %d0, -1
    jnz    %d0, spin
    ld.w   %d1, [%a2]0          # timer count since last epoch reset
    st.w   [%a3]0, %d1          # transmit its low byte (timestamped)
    st.w   [%a2]12, %d0         # reset the timer epoch
    addi   %d6, %d6, -1
    jnz    %d6, round
    debug
";

/// Session snapshots carry the SoC peripherals: a restore-replay of a
/// device-driving program repeats the *device* behaviour bit-identically
/// — same UART log length, same byte values, same SoC-cycle timestamps,
/// same timer reads. Before the peripheral state hook, the replay
/// double-logged every UART byte and read timer counts against a stale
/// epoch.
#[test]
fn peripheral_state_replays_bit_identically() {
    for backend in [
        Backend::translated(DetailLevel::Static),
        Backend::translated(DetailLevel::Cache),
    ] {
        let mut s = SimBuilder::asm(TIMER_UART_SRC)
            .backend(backend)
            .platform(PlatformConfig::default())
            .build()
            .unwrap();
        // Into the middle of round two: one byte logged, one epoch reset
        // behind us.
        s.run_until(Limit::Retirements(150)).unwrap();
        let snap = s.snapshot();
        s.run_until(Limit::Cycles(u64::MAX)).unwrap();
        let first = s.platform_stats().unwrap();
        assert_eq!(first.uart.len(), 3, "{backend}: three rounds transmit");

        s.restore(&snap);
        let mid = s.platform_stats().unwrap();
        assert!(
            mid.uart.len() < 3,
            "{backend}: restore must rewind the UART log, got {:?}",
            mid.uart
        );
        s.run_until(Limit::Cycles(u64::MAX)).unwrap();
        let second = s.platform_stats().unwrap();
        assert_eq!(
            first, second,
            "{backend}: peripheral replay diverged (UART bytes/timestamps or timer state)"
        );
        assert_eq!(s.stats(), {
            s.restore(&snap);
            s.run_until(Limit::Cycles(u64::MAX)).unwrap();
            s.stats()
        });
    }
}

/// The golden bridge clocks peripherals with the golden core's *cycle
/// count*, not a per-access counter — so a timer read after a delay
/// loop sees (approximately) the same SoC time on the golden model as
/// on the translated platform, whose peripherals are clocked by the
/// generated-cycle count reproducing that same source clock.
#[test]
fn golden_and_translated_timers_agree() {
    const TIMER_READ_SRC: &str = "
        .text
    _start:
        movh.a %a2, 0xf000
        mov    %d0, 300
    spin:
        addi   %d0, %d0, -1
        jnz    %d0, spin
        ld.w   %d3, [%a2]0
        debug
    ";
    let bus = cabt_platform::SharedSocBus::new(cabt_platform::default_soc_bus());
    let mut golden = SimBuilder::asm(TIMER_READ_SRC)
        .soc_bus(bus)
        .build()
        .unwrap();
    golden.run_until(Limit::Cycles(u64::MAX)).unwrap();
    let g = golden.read_d(3);
    assert!(
        g > 300,
        "golden timer must see the delay loop's cycles, not an access count: {g}"
    );

    let mut translated = SimBuilder::asm(TIMER_READ_SRC)
        .backend(Backend::translated(DetailLevel::Cache))
        .platform(PlatformConfig::default())
        .build()
        .unwrap();
    translated.run_until(Limit::Cycles(u64::MAX)).unwrap();
    let t = translated.read_d(3);
    assert!(t > 300, "translated timer sees generated SoC time: {t}");

    let dev = (g as f64 - t as f64).abs() / g as f64;
    assert!(
        dev < 0.2,
        "timer parity: golden read {g}, translated read {t} ({:.1}% apart)",
        dev * 100.0
    );
}

/// Snapshots are *schedule-independent*: an image captured mid-flight
/// in a pooled sharded session restores into a sequential
/// session (and vice versa), and both replay to bit-identical state —
/// per-shard checksums, aggregate stats, merged UART log. A snapshot
/// pins simulation state, not the host schedule that produced it.
#[test]
fn sharded_snapshots_are_schedule_independent() {
    let w = cabt_workloads::by_name("producer_consumer").unwrap();
    for cores in [2u16, 4] {
        let build = |schedule: ShardSchedule| {
            SimBuilder::workload(&w)
                .backend(Backend::sharded_with_schedule(
                    cores,
                    Backend::translated(DetailLevel::Static),
                    schedule,
                ))
                .build()
                .unwrap()
        };
        // Run k epochs under the POOLED scheduler, snapshot
        // mid-handoff, finish pooled.
        let mut par = build(ShardSchedule::Pooled(2));
        par.run_until(Limit::Cycles(500)).unwrap();
        let snap = par.snapshot();
        par.run_until(Limit::Cycles(50_000_000)).unwrap();
        let end_par = par.sharded_stats().unwrap();
        let d2_par: Vec<u32> = (0..cores as usize)
            .map(|i| par.shard(i).unwrap().read_d(2))
            .collect();

        // Restore that image into a SEQUENTIAL session and replay.
        let mut seq = build(ShardSchedule::Sequential);
        seq.restore(&snap);
        assert!(seq.cycle() > 0, "restore lands mid-flight, not at reset");
        seq.run_until(Limit::Cycles(50_000_000)).unwrap();
        assert_eq!(
            seq.sharded_stats().unwrap(),
            end_par,
            "{cores} cores: sequential replay of a pooled snapshot diverged"
        );
        let d2_seq: Vec<u32> = (0..cores as usize)
            .map(|i| seq.shard(i).unwrap().read_d(2))
            .collect();
        assert_eq!(d2_seq, d2_par, "{cores} cores: replay checksums diverged");

        // And back the other way: the same image replays identically
        // under the pooled scheduler too.
        let mut par2 = build(ShardSchedule::Pooled(2));
        par2.restore(&snap);
        par2.run_until(Limit::Cycles(50_000_000)).unwrap();
        assert_eq!(par2.sharded_stats().unwrap(), end_par, "{cores} cores");
    }
}

/// The same capability through the session layer: sessions snapshot and
/// restore uniformly, whatever the backend.
#[test]
fn sessions_snapshot_uniformly_across_backends() {
    for backend in Backend::all() {
        let mut s = SimBuilder::asm(SRC).backend(backend).build().unwrap();
        s.run_until(Limit::Retirements(6)).unwrap();
        let snap = s.snapshot();
        s.run_until(Limit::Cycles(u64::MAX)).unwrap();
        let end = (s.stats(), s.read_d(2));
        s.restore(&snap);
        s.run_until(Limit::Cycles(u64::MAX)).unwrap();
        assert_eq!((s.stats(), s.read_d(2)), end, "{backend}: replay diverged");
    }
}

/// The *portable* capability: `park` serializes a mid-run session to
/// versioned bytes, `resume` rebuilds it from nothing but those bytes —
/// on EVERY backend, with the resumed session finishing on a *different
/// thread* (a fleet pool worker) and matching the `fingerprint_engine`
/// digest of the uninterrupted run exactly. The bytes carry the full
/// rebuild recipe (backend descriptor, platform/trace configuration,
/// ELF image, snapshot payload); nothing is shared with the donor.
#[test]
fn parked_bytes_resume_bit_identically_on_every_backend() {
    use std::sync::{Arc, Mutex};
    let pool = FleetPool::new(2);
    for backend in Backend::all() {
        let mut donor = SimBuilder::asm(SRC).backend(backend).build().unwrap();
        donor.run_until(Limit::Retirements(6)).unwrap();
        let parked = donor.park().unwrap();
        donor.run_until(Limit::Cycles(u64::MAX)).unwrap();
        let expected = (
            cabt::exec::fingerprint_engine(&donor),
            donor.stats(),
            donor.read_d(2),
        );

        let latch = Arc::new(cabt::fleet::Latch::new(1));
        let slot = Arc::new(Mutex::new(None));
        let (l2, s2) = (Arc::clone(&latch), Arc::clone(&slot));
        pool.spawn(move || {
            let mut resumed = Session::resume(&parked).expect("parked bytes decode");
            resumed
                .run_until(Limit::Cycles(u64::MAX))
                .expect("resumed session finishes");
            *s2.lock().unwrap() = Some((
                cabt::exec::fingerprint_engine(&resumed),
                resumed.stats(),
                resumed.read_d(2),
            ));
            l2.count_down();
        });
        latch.wait();
        let got = slot.lock().unwrap().take().expect("worker reported");
        assert_eq!(
            got, expected,
            "{backend}: resumed-on-a-worker run diverged from the uninterrupted one"
        );
    }
}

/// Version safety of the portable format: a flipped magic and a bumped
/// version header are both rejected with typed errors — a future format
/// revision can never be misparsed as the current one.
#[test]
fn park_header_rejects_foreign_and_future_images() {
    use cabt_isa::codec::CodecError;

    let mut s = SimBuilder::asm(SRC).build().unwrap();
    s.run_until(Limit::Retirements(6)).unwrap();
    let good = s.park().unwrap();
    assert!(Session::resume(&good).is_ok(), "the pristine image resumes");

    // Bytes 0..8 are the magic.
    let mut foreign = good.clone();
    foreign[0] ^= 0xff;
    assert!(
        matches!(
            Session::resume(&foreign),
            Err(SessionError::Codec(CodecError::BadMagic))
        ),
        "foreign magic must be rejected"
    );

    // Bytes 8..10 are the little-endian format version.
    let mut future = good.clone();
    future[8] = future[8].wrapping_add(1);
    match Session::resume(&future) {
        Err(SessionError::Codec(CodecError::Version { found, expected })) => {
            assert_eq!(expected, cabt::sim::PARK_VERSION);
            assert_ne!(found, expected);
        }
        other => panic!("future version must be rejected, got {other:?}"),
    }

    // Truncation anywhere is a typed decode error, never a panic.
    for cut in [5, 9, good.len() / 2, good.len() - 1] {
        assert!(
            matches!(Session::resume(&good[..cut]), Err(SessionError::Codec(_))),
            "truncated at {cut}: must fail to decode"
        );
    }
}

/// Resuming untrusted bytes never panics: 4000 seeded mutants of a
/// mid-run 2-shard envelope (half truncations, half single-bit flips)
/// each resume or fail with a typed error. Device images decode through
/// the shared codec, so corrupt device bytes are `SessionError::Codec`.
/// An envelope of the previous format version is rejected by version.
#[test]
fn corrupt_park_envelopes_fail_typed_never_panic() {
    use cabt_isa::codec::CodecError;
    use cabt_isa::rng::Pcg32;

    let w = cabt_workloads::by_name("producer_consumer").unwrap();
    let mut s = SimBuilder::workload(&w)
        .backend(Backend::sharded(2, Backend::golden()))
        .build()
        .unwrap();
    s.run_until(Limit::Cycles(3000)).unwrap();
    let good = s.park().unwrap();
    assert!(Session::resume(&good).is_ok(), "the pristine image resumes");

    let mut old = good.clone();
    old[8..10].copy_from_slice(&(cabt::sim::PARK_VERSION - 1).to_le_bytes());
    assert!(matches!(
        Session::resume(&old),
        Err(SessionError::Codec(CodecError::Version { .. }))
    ));

    let mut rng = Pcg32::seed_from_u64(0xc0de_c0de);
    let mut mutate = |bytes: &[u8], i: usize| {
        if i.is_multiple_of(2) {
            bytes[..rng.below(bytes.len())].to_vec()
        } else {
            let mut m = bytes.to_vec();
            m[rng.below(bytes.len())] ^= 1 << rng.below(8);
            m
        }
    };
    let mut panics = Vec::new();
    for i in 0..4000 {
        let mutant = mutate(&good, i);
        let resumed = std::panic::catch_unwind(|| Session::resume(&mutant).map(drop));
        if resumed.is_err() {
            panics.push(i);
        }
    }
    assert!(panics.is_empty(), "mutants {panics:?} panicked on resume");

    // Mutants of one shard's envelope, adopted into a live session that
    // ran on past the park: a rejected envelope leaves the shard's bus
    // as it was.
    let parked = s.park_shard(1).unwrap();
    let live = || {
        let mut t = Session::resume(&good).unwrap();
        t.run_until(Limit::Cycles(50_000_000)).unwrap();
        t
    };
    let bus = |s: &Session| s.shard(1).unwrap().soc_bus_handle().unwrap().save_state();
    let mut target = live();
    let before = bus(&target);
    assert_ne!(before, bus(&s), "the live bus moved on from the parked one");
    for i in 0..1000 {
        let mutant = mutate(&parked, i);
        let adopt = std::panic::AssertUnwindSafe(|| target.adopt_shard(1, &mutant, None));
        match std::panic::catch_unwind(adopt) {
            Err(_) => panics.push(i),
            Ok(Err(_)) => assert_eq!(bus(&target), before, "mutant {i} left a half-restored bus"),
            Ok(Ok(())) => target = live(),
        }
    }
    assert!(panics.is_empty(), "mutants {panics:?} panicked on adopt");
}
