//! The SoC bus and its peripherals.
//!
//! The attached hardware "expects to be connected to an SoC bus" and is
//! clocked by the synchronization device's generated cycles. Peripherals
//! receive the current generated-cycle count with every transaction, so
//! time-dependent behaviour (timer expiry, UART byte timestamps) is
//! defined in emulated SoC time — which is exactly what makes device
//! drivers validated on this platform cycle-accurate.
//!
//! Every peripheral is *snapshottable*: [`SocPeripheral::save_state`] /
//! [`SocPeripheral::restore_state`] serialize the device's mutable state
//! with the [`cabt_isa::codec`] conventions, and [`SocBus::save_state`]
//! bundles the whole bus (devices plus the transaction counter) into a
//! [`SocBusState`]. Session snapshots carry that image, so `snapshot →
//! run → restore → run` replays device behaviour bit-identically — no
//! double-logged UART bytes, no stale timer epochs — and corrupt image
//! bytes restore as a typed [`CodecError`], never a panic.
//!
//! For multi-core sharding every shard owns a *private* clone of the
//! device population behind its own [`SharedSocBus`] handle, and a
//! [`ShardArbiter`] reconciles them at every epoch barrier: each device
//! ships the journal of its mutations since the last barrier
//! ([`SocPeripheral::barrier_delta`]), and the arbiter applies the
//! shard-ordered concatenation of those journals to every shard's bus
//! and to its canonical mirror ([`SocPeripheral::apply_barrier`]).
//! Because shards never touch each other's devices *inside* an epoch,
//! the protocol is schedule-independent — the sequential and pooled
//! shard schedulers produce bit-identical runs — and every type in the
//! exchange is `Send`, so shards can run on worker threads.

use cabt_isa::codec::{ByteReader, ByteWriter, CodecError};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

/// A device on the SoC bus. `Send` is a supertrait: buses cross thread
/// boundaries when shards run on worker threads, so devices must not
/// hold thread-bound state.
pub trait SocPeripheral: Send {
    /// `(first, last_exclusive)` address range served by this device.
    fn range(&self) -> (u32, u32);
    /// Handles a read at SoC time `soc_cycle`.
    fn read(&mut self, soc_cycle: u64, addr: u32, size: u32) -> u32;
    /// Handles a write at SoC time `soc_cycle`.
    fn write(&mut self, soc_cycle: u64, addr: u32, size: u32, value: u32);
    /// Transmit log, for peripherals that record output (UARTs).
    fn transmit_log(&self) -> Vec<(u64, u8)> {
        Vec::new()
    }
    /// Serializes the device's mutable state, barrier journal included.
    /// The encoding is private to the device — only
    /// [`SocPeripheral::restore_state`] of the same device type needs
    /// to understand it. Stateless devices keep the default (empty)
    /// image.
    fn save_state(&self) -> Vec<u8> {
        Vec::new()
    }
    /// Restores state produced by [`SocPeripheral::save_state`] on the
    /// same device type. The default pairs with the default
    /// `save_state`: only the empty image restores.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on a truncated, overlong or
    /// inconsistent image; the device is left unchanged then.
    fn restore_state(&mut self, state: &[u8]) -> Result<(), CodecError> {
        ByteReader::new(state).finish()
    }

    /// The device's barrier journal: its mutations since the last
    /// barrier. At the barrier the [`ShardArbiter`] concatenates every
    /// shard's journal **in shard order** and hands the concatenation
    /// to [`SocPeripheral::apply_barrier`] on every shard's bus and on
    /// its canonical mirror, so a device's journal and its apply rule
    /// together define how it reconciles. Barrier cost is O(epoch
    /// traffic), independent of the state accumulated so far.
    /// Stateless devices keep the default (empty) journal.
    fn barrier_delta(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Applies the shard-ordered concatenation of one barrier's
    /// journals (see [`SocPeripheral::barrier_delta`]) and clears this
    /// device's own journal. The result may depend only on `merged`
    /// and the state reconciled at the previous barrier, never on host
    /// scheduling.
    fn apply_barrier(&mut self, merged: &[u8]) {
        let _ = merged;
    }

    /// True if the device journaled mutations since the last barrier.
    /// The [`ShardArbiter`] skips a device no shard reports dirty, so
    /// an idle device costs the barrier one flag read per shard. The
    /// conservative default (always dirty) keeps a journaling device
    /// correct when it does not track its own traffic.
    fn barrier_dirty(&self) -> bool {
        true
    }
}

/// Label of the `expect`s on barrier journals: journals are built
/// in-process by `barrier_delta`, so one that does not decode is a
/// device bug, not corrupt input.
const JOURNAL: &str = "in-process barrier journal";

/// Decodes `read` records until `r` is exhausted — the tail of a state
/// image or a whole barrier journal. A partial trailing record is a
/// [`CodecError::Truncated`].
fn records<'a, T, F>(
    mut r: ByteReader<'a>,
    read: F,
) -> impl Iterator<Item = Result<T, CodecError>> + use<'a, T, F>
where
    F: Fn(&mut ByteReader<'a>) -> Result<T, CodecError>,
{
    std::iter::from_fn(move || (r.remaining() > 0).then(|| read(&mut r)))
}

/// Serialized state of every device on a [`SocBus`] plus the bus's own
/// transaction counter — the device half of a resumable platform image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocBusState {
    /// Per-device state images, in attachment order.
    devices: Vec<Vec<u8>>,
    /// Transactions served at capture time.
    transactions: u64,
}

impl SocBusState {
    /// Transactions the bus had served when this image was captured.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Serializes the bus image for a portable snapshot. Per-device
    /// images are opaque bytes (their encoding is private to each
    /// device), carried positionally.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::new(out);
        w.u64(self.devices.len() as u64);
        for img in &self.devices {
            w.bytes(img);
        }
        w.u64(self.transactions);
    }

    /// Decodes a [`SocBusState::encode_into`] image. Device images stay
    /// opaque here; each device validates its own on restore.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or corrupt input.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let ndevices = r.count("bus device images", 8)?;
        let mut devices = Vec::with_capacity(ndevices);
        for _ in 0..ndevices {
            devices.push(r.bytes("device image")?.to_vec());
        }
        Ok(SocBusState {
            devices,
            transactions: r.u64()?,
        })
    }
}

/// A word-level SoC bus with positional device decoding. Unclaimed
/// addresses read zero and ignore writes (open bus) and are *not*
/// counted as transactions — `transactions` counts accesses a device
/// actually served.
#[derive(Default)]
pub struct SocBus {
    devices: Vec<Box<dyn SocPeripheral>>,
    /// Transactions served (diagnostics).
    transactions: u64,
}

impl std::fmt::Debug for SocBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocBus")
            .field("devices", &self.devices.len())
            .field("transactions", &self.transactions)
            .finish()
    }
}

impl SocBus {
    /// An empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// The `(first, last_exclusive)` address windows of every attached
    /// device, in attach order — the MMIO half of the static
    /// analyzer's valid-address map.
    pub fn device_ranges(&self) -> Vec<(u32, u32)> {
        self.devices.iter().map(|d| d.range()).collect()
    }

    /// Attaches a peripheral to the bus; later devices win address
    /// overlaps (checked in order).
    pub fn attach(&mut self, dev: Box<dyn SocPeripheral>) {
        self.devices.push(dev);
    }

    /// Number of transactions served so far (open-bus accesses are not
    /// served and not counted).
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Routes a read.
    pub fn read(&mut self, soc_cycle: u64, addr: u32, size: u32) -> u32 {
        for d in &mut self.devices {
            let (lo, hi) = d.range();
            if (lo..hi).contains(&addr) {
                self.transactions += 1;
                return d.read(soc_cycle, addr, size);
            }
        }
        0
    }

    /// Routes a write.
    pub fn write(&mut self, soc_cycle: u64, addr: u32, size: u32, value: u32) {
        for d in &mut self.devices {
            let (lo, hi) = d.range();
            if (lo..hi).contains(&addr) {
                self.transactions += 1;
                d.write(soc_cycle, addr, size, value);
                return;
            }
        }
    }

    /// Concatenated transmit logs of all logging peripherals on the bus.
    pub fn uart_log(&self) -> Vec<(u64, u8)> {
        self.devices.iter().flat_map(|d| d.transmit_log()).collect()
    }

    /// Captures the state of every attached device plus the transaction
    /// counter.
    pub fn save_state(&self) -> SocBusState {
        SocBusState {
            devices: self.devices.iter().map(|d| d.save_state()).collect(),
            transactions: self.transactions,
        }
    }

    /// Restores a [`SocBus::save_state`] image into this bus.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BadLength`] if the image was captured from
    /// a bus with a different device count (state is positional, so
    /// the device population must match), or the first device's error
    /// for an image that does not decode. Devices before a failing one
    /// are already restored then.
    pub fn restore_state(&mut self, state: &SocBusState) -> Result<(), CodecError> {
        if state.devices.len() != self.devices.len() {
            return Err(CodecError::BadLength {
                what: "bus device images",
                len: state.devices.len() as u64,
            });
        }
        for (dev, img) in self.devices.iter_mut().zip(&state.devices) {
            dev.restore_state(img)?;
        }
        self.transactions = state.transactions;
        Ok(())
    }
}

/// A free-running timer clocked by generated SoC cycles.
///
/// Register map (offsets from base): `0x0` current count (read),
/// `0x4` compare value (read/write), `0x8` status — 1 once the count has
/// reached the compare value (read), `0xc` epoch reset (write).
///
/// In a sharded run the timer's barrier journal is its whole
/// `(epoch, compare)` record, shipped when a register was written this
/// epoch; the barrier applies the last record of the shard-ordered
/// concatenation, so the highest-numbered writer wins — the same
/// tie-break as the [`ScratchRam`].
#[derive(Debug)]
pub struct Timer {
    base: u32,
    epoch: u64,
    compare: u32,
    /// A register was written since the last barrier. Part of the
    /// state image, so a mid-epoch snapshot resumes with the write
    /// still scheduled for the next barrier.
    pending: bool,
}

impl Timer {
    /// A timer at `base`.
    pub fn new(base: u32) -> Self {
        Timer {
            base,
            epoch: 0,
            compare: u32::MAX,
            pending: false,
        }
    }

    fn write_record(&self, w: &mut ByteWriter<'_>) {
        w.u64(self.epoch);
        w.u32(self.compare);
    }
}

impl SocPeripheral for Timer {
    fn range(&self) -> (u32, u32) {
        (self.base, self.base + 0x10)
    }

    fn read(&mut self, soc_cycle: u64, addr: u32, _size: u32) -> u32 {
        let count = soc_cycle.saturating_sub(self.epoch);
        match addr - self.base {
            0x0 => count as u32,
            0x4 => self.compare,
            0x8 => (count >= self.compare as u64) as u32,
            _ => 0,
        }
    }

    fn write(&mut self, soc_cycle: u64, addr: u32, _size: u32, value: u32) {
        match addr - self.base {
            0x4 => {
                self.compare = value;
                self.pending = true;
            }
            0xc => {
                self.epoch = soc_cycle;
                self.pending = true;
            }
            _ => {}
        }
    }

    /// State image: `epoch: u64`, `compare: u32`, `pending: bool`.
    fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(13);
        let mut w = ByteWriter::new(&mut out);
        self.write_record(&mut w);
        w.bool(self.pending);
        out
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), CodecError> {
        let mut r = ByteReader::new(state);
        let (epoch, compare, pending) = (r.u64()?, r.u32()?, r.bool()?);
        r.finish()?;
        (self.epoch, self.compare, self.pending) = (epoch, compare, pending);
        Ok(())
    }

    fn barrier_delta(&self) -> Vec<u8> {
        let mut out = Vec::new();
        if self.pending {
            self.write_record(&mut ByteWriter::new(&mut out));
        }
        out
    }

    /// The last record is the highest-numbered writer's.
    fn apply_barrier(&mut self, merged: &[u8]) {
        if let Some(last) = merged.rchunks_exact(12).next() {
            let mut r = ByteReader::new(last);
            self.epoch = r.u64().expect(JOURNAL);
            self.compare = r.u32().expect(JOURNAL);
        }
        self.pending = false;
    }

    fn barrier_dirty(&self) -> bool {
        self.pending
    }
}

/// A transmit-only UART that logs bytes with their SoC-cycle timestamps.
///
/// Register map: `0x0` data (write to transmit), `0x4` status (reads 1 —
/// always ready).
///
/// The log is append-only, so in a sharded run each epoch barrier moves
/// only the bytes transmitted *during that epoch* (`exchanged` marks the
/// canonical prefix), keeping barrier cost independent of how long the
/// run — and the accumulated log — has grown.
#[derive(Debug, Default)]
pub struct Uart {
    base: u32,
    log: Vec<(u64, u8)>,
    /// Entries already reconciled through a barrier (the canonical
    /// prefix length). Part of the saved state, so snapshot restores
    /// re-seat the delta mark along with the log.
    exchanged: usize,
}

impl Uart {
    /// A UART at `base`.
    pub fn new(base: u32) -> Self {
        Uart {
            base,
            log: Vec::new(),
            exchanged: 0,
        }
    }

    /// Bytes transmitted so far.
    pub fn transmitted(&self) -> &[(u64, u8)] {
        &self.log
    }

    fn write_entries(&self, from: usize, w: &mut ByteWriter<'_>) {
        for &(ts, byte) in &self.log[from..] {
            w.u64(ts);
            w.u8(byte);
        }
    }

    fn read_entry(r: &mut ByteReader<'_>) -> Result<(u64, u8), CodecError> {
        Ok((r.u64()?, r.u8()?))
    }
}

impl SocPeripheral for Uart {
    fn range(&self) -> (u32, u32) {
        (self.base, self.base + 0x100)
    }

    fn transmit_log(&self) -> Vec<(u64, u8)> {
        self.log.clone()
    }

    fn read(&mut self, _soc_cycle: u64, addr: u32, _size: u32) -> u32 {
        match addr - self.base {
            0x4 => 1,
            _ => 0,
        }
    }

    fn write(&mut self, soc_cycle: u64, addr: u32, _size: u32, value: u32) {
        if addr - self.base == 0 {
            self.log.push((soc_cycle, value as u8));
        }
    }

    /// State image: the `u64` exchanged-prefix length, then the log
    /// entries (`u64` timestamp, `u8` byte) to the end of the image.
    fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 9 * self.log.len());
        let mut w = ByteWriter::new(&mut out);
        w.u64(self.exchanged as u64);
        self.write_entries(0, &mut w);
        out
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), CodecError> {
        let mut r = ByteReader::new(state);
        let exchanged = r.u64()?;
        let log = records(r, Self::read_entry).collect::<Result<Vec<_>, _>>()?;
        if exchanged > log.len() as u64 {
            return Err(CodecError::BadLength {
                what: "UART exchanged prefix",
                len: exchanged,
            });
        }
        self.exchanged = exchanged as usize;
        self.log = log;
        Ok(())
    }

    /// Only the entries past the canonical prefix travel.
    fn barrier_delta(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(9 * (self.log.len() - self.exchanged));
        self.write_entries(self.exchanged, &mut ByteWriter::new(&mut out));
        out
    }

    fn apply_barrier(&mut self, merged: &[u8]) {
        self.log.truncate(self.exchanged);
        let entries = records(ByteReader::new(merged), Self::read_entry);
        self.log.extend(entries.map(|e| e.expect(JOURNAL)));
        self.exchanged = self.log.len();
    }

    /// Dirty exactly when bytes sit past the exchanged prefix — no
    /// separate flag to maintain.
    fn barrier_dirty(&self) -> bool {
        self.log.len() > self.exchanged
    }
}

/// A scratch RAM window on the SoC bus (shared mailbox / DMA-style
/// buffer). Byte and halfword accesses honor their byte lanes.
///
/// The RAM keeps a *dirty-word journal*: every word address written
/// since the last barrier. The journal makes the epoch barrier
/// O(traffic) — [`SocPeripheral::barrier_delta`] ships only the
/// journaled `(addr, word)` pairs, and the barrier applies the
/// concatenated per-shard journals in shard order (on a conflict the
/// highest-numbered *writer* wins — a fixed, schedule-independent
/// tie-break), however large the RAM has grown.
#[derive(Debug, Default)]
pub struct ScratchRam {
    base: u32,
    size: u32,
    words: HashMap<u32, u32>,
    /// Word addresses written since the last barrier, kept sorted so
    /// delta images are deterministic. Part of the saved state: a
    /// mid-epoch snapshot must resume with its pending writes still
    /// scheduled for the next barrier.
    journal: BTreeSet<u32>,
}

impl ScratchRam {
    /// A RAM of `size` bytes at `base`.
    pub fn new(base: u32, size: u32) -> Self {
        ScratchRam {
            base,
            size,
            words: HashMap::new(),
            journal: BTreeSet::new(),
        }
    }

    fn word(&self, addr: u32) -> u32 {
        self.words.get(&addr).copied().unwrap_or(0)
    }

    fn read_pair(r: &mut ByteReader<'_>) -> Result<(u32, u32), CodecError> {
        Ok((r.u32()?, r.u32()?))
    }
}

impl SocPeripheral for ScratchRam {
    fn range(&self) -> (u32, u32) {
        (self.base, self.base + self.size)
    }

    fn read(&mut self, _soc_cycle: u64, addr: u32, size: u32) -> u32 {
        let word = self.word(addr & !3);
        match size {
            1 => (word >> ((addr & 3) * 8)) & 0xff,
            2 => (word >> ((addr & 2) * 8)) & 0xffff,
            _ => word,
        }
    }

    fn write(&mut self, _soc_cycle: u64, addr: u32, size: u32, value: u32) {
        let key = addr & !3;
        let old = self.word(key);
        let new = match size {
            1 => {
                let sh = (addr & 3) * 8;
                (old & !(0xff << sh)) | ((value & 0xff) << sh)
            }
            2 => {
                let sh = (addr & 2) * 8;
                (old & !(0xffff << sh)) | ((value & 0xffff) << sh)
            }
            _ => value,
        };
        self.words.insert(key, new);
        self.journal.insert(key);
    }

    /// State image: the journal as a `u64` count and its addresses
    /// (ascending), then every `(addr, word)` pair sorted by address to
    /// the end of the image. Sorted, because `HashMap` iteration order
    /// must not leak into the snapshot image (replays compare state
    /// bytes for equality).
    fn save_state(&self) -> Vec<u8> {
        let mut entries: Vec<(u32, u32)> = self.words.iter().map(|(&a, &w)| (a, w)).collect();
        entries.sort_unstable();
        let mut out = Vec::with_capacity(8 + 4 * self.journal.len() + 8 * entries.len());
        let mut w = ByteWriter::new(&mut out);
        w.u64(self.journal.len() as u64);
        for &addr in &self.journal {
            w.u32(addr);
        }
        for (addr, word) in entries {
            w.u32(addr);
            w.u32(word);
        }
        out
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), CodecError> {
        let mut r = ByteReader::new(state);
        let njournal = r.count("scratch-RAM journal", 4)?;
        let journal = (0..njournal).map(|_| r.u32()).collect::<Result<_, _>>()?;
        self.words = records(r, Self::read_pair).collect::<Result<_, _>>()?;
        self.journal = journal;
        Ok(())
    }

    /// Only the journaled `(addr, word)` pairs travel.
    fn barrier_delta(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 * self.journal.len());
        let mut w = ByteWriter::new(&mut out);
        for &addr in &self.journal {
            w.u32(addr);
            w.u32(self.word(addr));
        }
        out
    }

    fn apply_barrier(&mut self, merged: &[u8]) {
        for pair in records(ByteReader::new(merged), Self::read_pair) {
            let (addr, word) = pair.expect(JOURNAL);
            self.words.insert(addr, word);
        }
        self.journal.clear();
    }

    fn barrier_dirty(&self) -> bool {
        !self.journal.is_empty()
    }
}

/// The per-shard NoC doorbell endpoint: a core-id register and one
/// mailbox per peer core, giving SPMD guests an inter-core signaling
/// path that does not round-trip through the merged scratch RAM.
///
/// Register map (offsets from base):
///
/// * `0x000` — this core's id (read-only; replaces the `%d15` seeding
///   convention, which is kept for compatibility)
/// * `0x004` — the shard count (read-only)
/// * `0x400 + 4*t` — doorbell *send* window: writing a word rings core
///   `t`'s doorbell with that value (writes to cores ≥ the shard count
///   are dropped)
/// * `0x800 + 4*s` — doorbell *inbox* window: the last value core `s`
///   sent to this core, `0` until the first delivery
///
/// Delivery is *epoch-synchronous*: sends append to a private outbox
/// journal and are delivered into the targets' inboxes at the next
/// epoch barrier, in shard order (the [`ShardArbiter`]'s delta
/// contract) — so delivery has a deterministic one-epoch latency and
/// runs are bit-identical whatever host schedule executed the epoch.
/// On a single-core session the device still answers the id/count
/// registers, but with no barrier there is no delivery.
///
/// Unlike every other peripheral the CoreLink is *not* identical
/// across shards — each shard's inbox is private: each endpoint's
/// [`SocPeripheral::apply_barrier`] filters the merged send journal by
/// its own id. The id and shard count are construction identity, not
/// state: they are excluded from the state image so resets and
/// snapshot restores cannot clobber which core a bus belongs to.
#[derive(Debug)]
pub struct CoreLink {
    base: u32,
    /// This endpoint's core id; `u32::MAX` marks an arbiter mirror,
    /// which observes the exchange but never receives a delivery.
    core_id: u32,
    ncores: u32,
    /// Last delivered value per source core.
    inbox: Vec<u32>,
    /// `(src, target, value)` sends since the last barrier.
    outbox: Vec<(u32, u32, u32)>,
}

/// Byte size of the [`CoreLink`] MMIO window (fixed — covers 256
/// cores, the fabric's design ceiling).
pub const CORE_LINK_WINDOW: u32 = 0xc00;

impl CoreLink {
    /// The endpoint of core `core_id` in a fabric of `ncores`.
    pub fn new(base: u32, core_id: u32, ncores: u32) -> Self {
        CoreLink {
            base,
            core_id,
            ncores,
            inbox: vec![0; ncores as usize],
            outbox: Vec::new(),
        }
    }

    /// An arbiter-mirror endpoint: participates in the barrier exchange
    /// (so device populations stay positional) but is no core, receives
    /// nothing, and keeps an all-zero inbox.
    pub fn mirror(base: u32, ncores: u32) -> Self {
        Self::new(base, u32::MAX, ncores)
    }

    fn write_sends(&self, w: &mut ByteWriter<'_>) {
        for &(src, target, value) in &self.outbox {
            w.u32(src);
            w.u32(target);
            w.u32(value);
        }
    }

    fn read_send(r: &mut ByteReader<'_>) -> Result<(u32, u32, u32), CodecError> {
        Ok((r.u32()?, r.u32()?, r.u32()?))
    }
}

impl SocPeripheral for CoreLink {
    fn range(&self) -> (u32, u32) {
        (self.base, self.base + CORE_LINK_WINDOW)
    }

    fn read(&mut self, _soc_cycle: u64, addr: u32, _size: u32) -> u32 {
        match addr - self.base {
            0x0 => self.core_id,
            0x4 => self.ncores,
            o if (0x800..CORE_LINK_WINDOW).contains(&o) => {
                let src = ((o - 0x800) / 4) as usize;
                self.inbox.get(src).copied().unwrap_or(0)
            }
            _ => 0,
        }
    }

    fn write(&mut self, _soc_cycle: u64, addr: u32, _size: u32, value: u32) {
        let o = addr - self.base;
        if (0x400..0x800).contains(&o) {
            let target = (o - 0x400) / 4;
            if target < self.ncores {
                self.outbox.push((self.core_id, target, value));
            }
        }
    }

    /// State image: the inbox as a `u64` count and its words, then the
    /// outbox as a `u64` count and its `(src, target, value)` send
    /// triples. The core id and shard count are construction identity
    /// and deliberately not part of the image.
    fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 4 * self.inbox.len() + 12 * self.outbox.len());
        let mut w = ByteWriter::new(&mut out);
        w.u64(self.inbox.len() as u64);
        for &word in &self.inbox {
            w.u32(word);
        }
        w.u64(self.outbox.len() as u64);
        self.write_sends(&mut w);
        out
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), CodecError> {
        let mut r = ByteReader::new(state);
        let ninbox = r.count("CoreLink inbox", 4)?;
        let inbox = (0..ninbox).map(|_| r.u32()).collect::<Result<_, _>>()?;
        let noutbox = r.count("CoreLink outbox", 12)?;
        let outbox = (0..noutbox)
            .map(|_| Self::read_send(&mut r))
            .collect::<Result<_, _>>()?;
        r.finish()?;
        (self.inbox, self.outbox) = (inbox, outbox);
        Ok(())
    }

    /// Only the sends of the epoch travel.
    fn barrier_delta(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 * self.outbox.len());
        self.write_sends(&mut ByteWriter::new(&mut out));
        out
    }

    /// Delivery: every send of the epoch, in shard order; each endpoint
    /// keeps only the triples addressed to its own id (on two sends
    /// from one source, the later one in shard-merge order wins).
    fn apply_barrier(&mut self, merged: &[u8]) {
        for send in records(ByteReader::new(merged), Self::read_send) {
            let (src, target, value) = send.expect(JOURNAL);
            if target == self.core_id {
                if let Some(slot) = self.inbox.get_mut(src as usize) {
                    *slot = value;
                }
            }
        }
        self.outbox.clear();
    }

    fn barrier_dirty(&self) -> bool {
        !self.outbox.is_empty()
    }
}

/// A cloneable handle to one [`SocBus`] — the currency for sharing a
/// device population between execution vehicles: the golden model (via
/// [`GoldenBridge`]) and translated platforms route into the same
/// peripherals through clones of this handle. The handle is
/// `Send + Sync` (shards of a pooled session carry their private
/// buses onto worker threads); accesses serialize through an
/// uncontended mutex — within an epoch exactly one shard owns every
/// handle to its bus, so the lock never blocks on the hot path.
///
/// Sharded sessions deliberately do *not* alias one bus across shards:
/// each shard gets a private clone of the device population, and the
/// [`ShardArbiter`] reconciles the states at epoch barriers. Handing
/// the same handle to two concurrently running shards would make runs
/// schedule-dependent; [`ShardArbiter::new`] rejects aliased buses.
#[derive(Clone)]
pub struct SharedSocBus(Arc<Mutex<SocBus>>);

impl std::fmt::Debug for SharedSocBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SharedSocBus")
            .field(&*self.0.lock().expect("bus lock"))
            .finish()
    }
}

impl SharedSocBus {
    /// Wraps a bus into a shareable handle.
    pub fn new(bus: SocBus) -> Self {
        SharedSocBus(Arc::new(Mutex::new(bus)))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SocBus> {
        self.0.lock().expect("SoC bus lock poisoned")
    }

    /// Attaches a peripheral. Attach the full device population before
    /// capturing any [`SocBusState`] — state is positional.
    pub fn attach(&self, dev: Box<dyn SocPeripheral>) {
        self.lock().attach(dev);
    }

    /// Routes a read at SoC time `soc_cycle`.
    pub fn read(&self, soc_cycle: u64, addr: u32, size: u32) -> u32 {
        self.lock().read(soc_cycle, addr, size)
    }

    /// Routes a write at SoC time `soc_cycle`.
    pub fn write(&self, soc_cycle: u64, addr: u32, size: u32, value: u32) {
        self.lock().write(soc_cycle, addr, size, value);
    }

    /// Concatenated transmit logs of all logging peripherals.
    pub fn uart_log(&self) -> Vec<(u64, u8)> {
        self.lock().uart_log()
    }

    /// Transactions served so far.
    pub fn transactions(&self) -> u64 {
        self.lock().transactions()
    }

    /// Captures the bus state (see [`SocBus::save_state`]).
    pub fn save_state(&self) -> SocBusState {
        self.lock().save_state()
    }

    /// Restores a captured bus state (see [`SocBus::restore_state`]).
    ///
    /// # Errors
    ///
    /// See [`SocBus::restore_state`].
    pub fn restore_state(&self, state: &SocBusState) -> Result<(), CodecError> {
        self.lock().restore_state(state)
    }

    /// True if `other` is a handle to the same underlying bus.
    pub fn same_bus(&self, other: &SharedSocBus) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// The epoch-barrier arbiter of a sharded run. Every shard owns a
/// *private* [`SharedSocBus`] with an identical device population;
/// within an epoch each shard talks only to its own devices (so shards
/// can run concurrently on worker threads), and at the barrier the
/// arbiter [`exchanges`](ShardArbiter::exchange) the per-device
/// journals in fixed shard order and applies them to every shard's bus
/// and to the canonical mirror. The exchange is a pure function of the
/// journals, so a run's device behaviour is identical whatever host
/// schedule executed the epoch — which is exactly what makes the
/// sequential and pooled shard schedulers bit-identical.
///
/// The arbiter holds the canonical state in a private *mirror* bus (a
/// device population never attached to any engine); mid-epoch
/// aggregate views ([`ShardArbiter::transactions`],
/// [`ShardArbiter::uart_log`]) combine the mirror with the per-shard
/// deltas accumulated since the last barrier.
#[derive(Debug)]
pub struct ShardArbiter {
    /// Canonical device state as of the last barrier.
    mirror: SocBus,
    /// Per-shard private buses, in shard order.
    buses: Vec<SharedSocBus>,
    /// Epoch boundaries crossed.
    epochs: u64,
}

impl ShardArbiter {
    /// An arbiter over per-shard buses (in shard order), with `mirror`
    /// holding the canonical device population. All buses and the
    /// mirror must carry the same device population in the same state.
    ///
    /// # Panics
    ///
    /// Panics if two shard slots alias the same underlying bus —
    /// aliasing would let one shard's mid-epoch traffic leak into
    /// another's, making runs schedule-dependent — or if a shard bus
    /// carries a different device count than the mirror (state
    /// exchange is positional, so the populations must match).
    pub fn new(mirror: SocBus, buses: Vec<SharedSocBus>) -> Self {
        for (i, a) in buses.iter().enumerate() {
            assert_eq!(
                a.lock().devices.len(),
                mirror.devices.len(),
                "shard bus {i} carries a different device population than the mirror"
            );
            for b in &buses[i + 1..] {
                assert!(
                    !a.same_bus(b),
                    "shard buses must be private: slots may not alias one SocBus"
                );
            }
        }
        ShardArbiter {
            mirror,
            buses,
            epochs: 0,
        }
    }

    /// Shard `i`'s private bus handle.
    pub fn bus(&self, i: usize) -> SharedSocBus {
        self.buses[i].clone()
    }

    /// Number of shard buses.
    pub fn shard_count(&self) -> usize {
        self.buses.len()
    }

    /// Runs the epoch barrier: reconciles every device across the
    /// shard buses and the canonical mirror, then returns the number
    /// of bus transactions served during the epoch that just ended.
    ///
    /// A device *no* shard reports dirty ([`SocPeripheral::barrier_dirty`])
    /// is skipped outright — an idle device costs the barrier one flag
    /// read per shard. Every other device ships its journal
    /// ([`SocPeripheral::barrier_delta`]) from each shard; the
    /// concatenation in shard order is applied to the mirror and to
    /// every shard ([`SocPeripheral::apply_barrier`]). Cost is
    /// O(epoch traffic), independent of accumulated history — a long
    /// run's barrier does not slow down as logs and RAM contents grow.
    pub fn exchange(&mut self) -> u64 {
        let base_transactions = self.mirror.transactions;
        let served: u64 = self
            .buses
            .iter()
            .map(|b| b.transactions() - base_transactions)
            .sum();
        for i in 0..self.mirror.devices.len() {
            if !self
                .buses
                .iter()
                .any(|b| b.lock().devices[i].barrier_dirty())
            {
                continue;
            }
            let mut merged = Vec::new();
            for bus in &self.buses {
                merged.extend_from_slice(&bus.lock().devices[i].barrier_delta());
            }
            self.mirror.devices[i].apply_barrier(&merged);
            for bus in &self.buses {
                bus.lock().devices[i].apply_barrier(&merged);
            }
        }
        self.mirror.transactions = base_transactions + served;
        for bus in &self.buses {
            bus.lock().transactions = base_transactions + served;
        }
        self.epochs += 1;
        served
    }

    /// Epoch boundaries crossed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The canonical device-state image of the last epoch boundary —
    /// what a session snapshot, a shard handed to another host, or an
    /// external checkpoint carries.
    pub fn canonical_state(&self) -> SocBusState {
        self.mirror.save_state()
    }

    /// Total bus transactions served: the canonical count plus every
    /// shard's delta since the last barrier.
    pub fn transactions(&self) -> u64 {
        let canonical = self.mirror.transactions();
        canonical
            + self
                .buses
                .iter()
                .map(|b| b.transactions() - canonical)
                .sum::<u64>()
    }

    /// The merged transmit log: the canonical log plus each shard's
    /// mid-epoch suffix, in shard order (logs are append-only within an
    /// epoch, so every shard log extends the canonical prefix).
    pub fn uart_log(&self) -> Vec<(u64, u8)> {
        let mut out = self.mirror.uart_log();
        let canonical_len = out.len();
        for bus in &self.buses {
            let log = bus.uart_log();
            out.extend_from_slice(&log[canonical_len..]);
        }
        out
    }

    /// Resets the whole device fabric to `initial`: the mirror and
    /// every shard bus are restored and the epoch counter cleared.
    ///
    /// # Panics
    ///
    /// Panics if `initial` does not restore into the fabric — it must
    /// be an in-process image of the same device population.
    pub fn reset(&mut self, initial: &SocBusState) {
        const RESET: &str = "reset image of the fabric's own device population";
        self.mirror.restore_state(initial).expect(RESET);
        for bus in &self.buses {
            bus.restore_state(initial).expect(RESET);
        }
        self.epochs = 0;
    }

    /// Restores the canonical state and epoch counter from a snapshot —
    /// the restore-side pair of [`ShardArbiter::exchange`]. The
    /// per-shard buses are restored by their owners (each shard's
    /// snapshot carries its own possibly mid-epoch device image); this
    /// only re-seats the barrier's canonical mirror.
    ///
    /// # Errors
    ///
    /// See [`SocBus::restore_state`]; the epoch counter is unchanged
    /// then.
    pub fn restore_canonical(
        &mut self,
        state: &SocBusState,
        epochs: u64,
    ) -> Result<(), CodecError> {
        self.mirror.restore_state(state)?;
        self.epochs = epochs;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_routes_by_range() {
        let mut bus = SocBus::new();
        bus.attach(Box::new(Timer::new(0x1000)));
        bus.attach(Box::new(ScratchRam::new(0x2000, 0x100)));
        bus.write(0, 0x2004, 4, 0xabcd);
        assert_eq!(bus.read(0, 0x2004, 4), 0xabcd);
        assert_eq!(bus.read(5, 0x1000, 4), 5, "timer count");
        assert_eq!(bus.read(0, 0x9999, 4), 0, "open bus reads zero");
        assert_eq!(
            bus.transactions(),
            3,
            "open-bus accesses are not served and not counted"
        );
    }

    #[test]
    fn timer_compare_and_reset() {
        let mut t = Timer::new(0);
        t.write(0, 0x4, 4, 100); // compare = 100
        assert_eq!(t.read(50, 0x8, 4), 0);
        assert_eq!(t.read(100, 0x8, 4), 1);
        t.write(150, 0xc, 4, 0); // reset epoch at soc time 150
        assert_eq!(t.read(170, 0x0, 4), 20);
        assert_eq!(t.read(170, 0x8, 4), 0);
    }

    #[test]
    fn uart_logs_bytes_with_time() {
        let mut u = Uart::new(0x100);
        assert_eq!(u.read(0, 0x104, 4), 1, "always ready");
        u.write(10, 0x100, 4, b'A' as u32);
        u.write(20, 0x100, 4, b'B' as u32);
        assert_eq!(u.transmitted(), &[(10, b'A'), (20, b'B')]);
    }

    #[test]
    fn scratch_ram_round_trips() {
        let mut r = ScratchRam::new(0, 64);
        r.write(0, 16, 4, 42);
        assert_eq!(r.read(0, 16, 4), 42);
        assert_eq!(r.read(0, 20, 4), 0);
    }

    #[test]
    fn scratch_ram_honors_byte_lanes() {
        let mut r = ScratchRam::new(0, 64);
        r.write(0, 8, 4, 0xaabb_ccdd);
        // Byte store replaces one lane, not the whole word.
        r.write(0, 9, 1, 0x11);
        assert_eq!(r.read(0, 8, 4), 0xaabb_11dd);
        // Halfword store replaces the upper lane pair.
        r.write(0, 10, 2, 0x2233);
        assert_eq!(r.read(0, 8, 4), 0x2233_11dd);
        // Sub-word reads extract their lanes, zero-extended.
        assert_eq!(r.read(0, 9, 1), 0x11);
        assert_eq!(r.read(0, 11, 1), 0x22);
        assert_eq!(r.read(0, 8, 2), 0x11dd);
        assert_eq!(r.read(0, 10, 2), 0x2233);
    }

    #[test]
    fn timer_state_round_trips() {
        let mut t = Timer::new(0);
        t.write(0, 0x4, 4, 77); // compare
        t.write(123, 0xc, 4, 0); // epoch = 123
        let img = t.save_state();
        let mut fresh = Timer::new(0);
        fresh.restore_state(&img).unwrap();
        assert_eq!(fresh.read(200, 0x0, 4), 77, "epoch restored");
        assert_eq!(fresh.read(200, 0x4, 4), 77, "compare restored");
        assert_eq!(fresh.save_state(), img);
    }

    #[test]
    fn uart_state_round_trips() {
        let mut u = Uart::new(0);
        u.write(10, 0, 4, b'X' as u32);
        u.write(900, 0, 4, b'Y' as u32);
        let img = u.save_state();
        let mut fresh = Uart::new(0);
        fresh.restore_state(&img).unwrap();
        assert_eq!(fresh.transmitted(), u.transmitted());
        // Restoring an earlier image truncates later transmissions —
        // the double-log fix.
        u.write(1000, 0, 4, b'Z' as u32);
        u.restore_state(&img).unwrap();
        assert_eq!(u.transmitted().len(), 2);
    }

    #[test]
    fn scratch_ram_state_is_deterministic_and_round_trips() {
        let mut r = ScratchRam::new(0, 0x100);
        for i in 0..16u32 {
            r.write(0, (16 - i) * 4, 4, i * 3 + 1);
        }
        let img = r.save_state();
        let mut r2 = ScratchRam::new(0, 0x100);
        for i in (0..16u32).rev() {
            r2.write(0, (16 - i) * 4, 4, i * 3 + 1);
        }
        assert_eq!(
            r2.save_state(),
            img,
            "state image must not depend on insertion order"
        );
        let mut fresh = ScratchRam::new(0, 0x100);
        fresh.restore_state(&img).unwrap();
        assert_eq!(fresh.read(0, 4 * 4, 4), r.read(0, 4 * 4, 4));
        assert_eq!(fresh.save_state(), img);
    }

    #[test]
    fn bus_state_round_trips_all_devices() {
        let mut bus = SocBus::new();
        bus.attach(Box::new(Timer::new(0x0)));
        bus.attach(Box::new(Uart::new(0x100)));
        bus.attach(Box::new(ScratchRam::new(0x200, 0x100)));
        bus.write(5, 0x200, 4, 99);
        bus.write(7, 0x100, 4, b'!' as u32);
        bus.write(9, 0xc, 4, 0); // timer epoch = 9
        let img = bus.save_state();

        bus.write(20, 0x100, 4, b'?' as u32);
        bus.write(20, 0x204, 4, 1);
        assert_eq!(bus.uart_log().len(), 2);

        bus.restore_state(&img).unwrap();
        assert_eq!(bus.uart_log(), vec![(7, b'!')]);
        assert_eq!(bus.read(10, 0x204, 4), 0, "later write rolled back");
        assert_eq!(bus.read(10, 0x0, 4), 1, "timer epoch restored (10 - 9)");
        assert_eq!(img, {
            // transactions counter restored too (the reads above advanced it)
            let mut b2 = SocBus::new();
            b2.attach(Box::new(Timer::new(0x0)));
            b2.attach(Box::new(Uart::new(0x100)));
            b2.attach(Box::new(ScratchRam::new(0x200, 0x100)));
            b2.restore_state(&img).unwrap();
            b2.save_state()
        });
    }

    #[test]
    fn bus_state_rejects_mismatched_population() {
        let mut a = SocBus::new();
        a.attach(Box::new(Timer::new(0)));
        let img = a.save_state();
        let mut b = SocBus::new();
        b.attach(Box::new(Timer::new(0)));
        b.attach(Box::new(Uart::new(0x100)));
        assert_eq!(
            b.restore_state(&img),
            Err(CodecError::BadLength {
                what: "bus device images",
                len: 1
            })
        );
    }

    #[test]
    fn shared_bus_serves_multiple_handles() {
        let bus = SharedSocBus::new(SocBus::new());
        bus.attach(Box::new(Uart::new(0x100)));
        let other = bus.clone();
        bus.write(1, 0x100, 4, b'a' as u32);
        other.write(2, 0x100, 4, b'b' as u32);
        assert_eq!(bus.uart_log(), vec![(1, b'a'), (2, b'b')]);
        assert!(bus.same_bus(&other));
        assert!(!bus.same_bus(&SharedSocBus::new(SocBus::new())));
    }

    fn arbiter_population() -> SocBus {
        let mut bus = SocBus::new();
        bus.attach(Box::new(Timer::new(0x0)));
        bus.attach(Box::new(Uart::new(0x100)));
        bus.attach(Box::new(ScratchRam::new(0x200, 0x100)));
        bus
    }

    #[test]
    fn arbiter_exchange_merges_and_broadcasts() {
        let shard0 = SharedSocBus::new(arbiter_population());
        let shard1 = SharedSocBus::new(arbiter_population());
        let initial = shard0.save_state();
        let mut arb = ShardArbiter::new(arbiter_population(), vec![shard0.clone(), shard1.clone()]);
        assert_eq!(arb.epochs(), 0);
        assert_eq!(arb.canonical_state(), initial);

        // Epoch 1: shard 0 fills the mailbox, shard 1 transmits.
        shard0.write(5, 0x200, 4, 99);
        shard1.write(7, 0x100, 4, b'b' as u32);
        assert_eq!(arb.transactions(), 2, "mid-epoch deltas are aggregated");
        assert_eq!(arb.uart_log(), vec![(7, b'b')]);
        assert_eq!(arb.exchange(), 2, "two transactions this epoch");
        assert_eq!(arb.epochs(), 1);
        assert_eq!(arb.canonical_state(), shard0.save_state());

        // Both shards now see the merged state.
        for bus in [&shard0, &shard1] {
            assert_eq!(bus.read(9, 0x200, 4), 99, "mailbox word broadcast");
            assert_eq!(bus.uart_log(), vec![(7, b'b')], "UART log broadcast");
        }

        // Idle epoch: nothing served (the reads above count, so take
        // the counter before and after a no-traffic exchange).
        let before = arb.exchange();
        assert_eq!(arb.exchange(), 0, "idle epoch after {before} reads");

        arb.reset(&initial);
        assert_eq!(arb.epochs(), 0);
        assert_eq!(arb.canonical_state(), initial);
        assert_eq!(shard1.save_state(), initial, "reset restores every bus");
    }

    #[test]
    fn arbiter_merge_is_shard_ordered_and_schedule_independent() {
        // Both shards write the same mailbox word in one epoch: the
        // higher-numbered shard wins, whatever order the writes landed.
        let shard0 = SharedSocBus::new(arbiter_population());
        let shard1 = SharedSocBus::new(arbiter_population());
        let mut arb = ShardArbiter::new(arbiter_population(), vec![shard0.clone(), shard1.clone()]);
        shard1.write(3, 0x204, 4, 0x1111); // "later" shard writes first
        shard0.write(4, 0x204, 4, 0x2222);
        shard0.write(4, 0x208, 4, 0x3333); // uncontended word survives
        arb.exchange();
        assert_eq!(shard0.read(9, 0x204, 4), 0x1111, "shard-order tie-break");
        assert_eq!(shard1.read(9, 0x208, 4), 0x3333);

        // UART suffixes concatenate in shard order regardless of
        // timestamps.
        shard1.write(10, 0x100, 4, b'B' as u32);
        shard0.write(20, 0x100, 4, b'A' as u32);
        arb.exchange();
        let bytes: Vec<u8> = arb.uart_log().iter().map(|&(_, b)| b).collect();
        assert_eq!(bytes, b"AB", "shard 0's byte merges first");

        // Two shards reconfigure the timer in one epoch: the
        // higher-numbered writer's record lands everywhere.
        shard1.write(30, 0x4, 4, 500);
        shard0.write(40, 0x4, 4, 600);
        shard0.write(40, 0xc, 4, 0);
        arb.exchange();
        assert_eq!(arb.canonical_state(), shard0.save_state());
        assert_eq!(shard0.save_state(), shard1.save_state());
        assert_eq!(shard0.read(50, 0x4, 4), 500, "shard 1 wrote last in order");
        assert_eq!(shard0.read(50, 0x0, 4), 50, "shard 1 never reset the epoch");

        // A shard saved mid-epoch with a pending timer write, restored
        // and exchanged, reconciles as if it had never been restored.
        let run = |restore: bool| {
            let a = SharedSocBus::new(arbiter_population());
            let b = SharedSocBus::new(arbiter_population());
            let mut arb = ShardArbiter::new(arbiter_population(), vec![a.clone(), b.clone()]);
            a.write(5, 0x4, 4, 70);
            b.write(6, 0xc, 4, 0);
            if restore {
                let img = b.save_state();
                b.write(7, 0x4, 4, 99); // rolled back by the restore
                b.restore_state(&img).unwrap();
            }
            arb.exchange();
            assert_eq!(a.save_state(), b.save_state());
            let canonical = arb.canonical_state();
            // Shard 1's record carries its epoch reset and its
            // untouched compare; it wins over shard 0's compare.
            assert_eq!(a.read(10, 0x0, 4), 4, "epoch reset at cycle 6");
            assert_eq!(a.read(10, 0x4, 4), u32::MAX);
            canonical
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn uart_barrier_delta_is_the_epoch_suffix_only() {
        let mut u = Uart::new(0);
        u.write(1, 0, 4, b'a' as u32);
        u.write(2, 0, 4, b'b' as u32);
        let d = u.barrier_delta();
        assert_eq!(d.len(), 18, "two unexchanged entries");
        u.apply_barrier(&d);
        assert_eq!(
            u.barrier_delta().len(),
            0,
            "after the barrier nothing is pending"
        );
        // Only traffic of the new epoch travels, however long the log.
        u.write(3, 0, 4, b'c' as u32);
        assert_eq!(u.barrier_delta().len(), 9);
        assert_eq!(u.transmitted().len(), 3, "history intact");

        // The exchanged mark survives a save/restore round trip.
        let img = u.save_state();
        let mut fresh = Uart::new(0);
        fresh.restore_state(&img).unwrap();
        assert_eq!(fresh.barrier_delta().len(), 9);
        assert_eq!(fresh.transmitted(), u.transmitted());
    }

    #[test]
    fn delta_exchange_accumulates_canonically_over_many_epochs() {
        // Multi-epoch run: every epoch's bytes merge in shard order
        // behind the history, no byte is duplicated or dropped, and
        // the canonical image matches every shard's image at each
        // barrier — the behaviour the full-state exchange had, now at
        // O(epoch) cost.
        let shard0 = SharedSocBus::new(arbiter_population());
        let shard1 = SharedSocBus::new(arbiter_population());
        let mut arb = ShardArbiter::new(arbiter_population(), vec![shard0.clone(), shard1.clone()]);
        let mut expected: Vec<u8> = Vec::new();
        for epoch in 0..5u8 {
            let a = b'a' + 2 * epoch;
            let b = a + 1;
            shard1.write(10 + epoch as u64, 0x100, 4, b as u32);
            shard0.write(20 + epoch as u64, 0x100, 4, a as u32);
            expected.push(a); // shard order, whatever the write order
            expected.push(b);
            arb.exchange();
            let bytes: Vec<u8> = arb.uart_log().iter().map(|&(_, x)| x).collect();
            assert_eq!(bytes, expected, "epoch {epoch}: merged log");
            assert_eq!(
                arb.canonical_state(),
                shard0.save_state(),
                "epoch {epoch}: broadcast state"
            );
            assert_eq!(shard0.save_state(), shard1.save_state());
        }
    }

    #[test]
    #[should_panic(expected = "must be private")]
    fn arbiter_rejects_aliased_shard_buses() {
        let bus = SharedSocBus::new(arbiter_population());
        ShardArbiter::new(arbiter_population(), vec![bus.clone(), bus.clone()]);
    }

    #[test]
    fn scratch_ram_journal_is_the_epoch_traffic_only() {
        let mut r = ScratchRam::new(0, 0x100);
        r.write(0, 0x10, 4, 7);
        r.write(0, 0x20, 4, 9);
        let d = r.barrier_delta();
        assert_eq!(d.len(), 16, "two journaled words");
        r.apply_barrier(&d);
        assert!(!r.barrier_dirty(), "journal cleared at the barrier");
        assert_eq!(
            r.barrier_delta().len(),
            0,
            "after the barrier nothing is pending"
        );
        // Only the epoch's writes travel, however full the RAM.
        r.write(0, 0x10, 4, 8);
        assert_eq!(r.barrier_delta().len(), 8);
        assert_eq!(r.read(0, 0x20, 4), 9, "contents intact");

        // The journal survives a save/restore round trip (a mid-epoch
        // snapshot resumes with its writes still pending exchange).
        let img = r.save_state();
        let mut fresh = ScratchRam::new(0, 0x100);
        fresh.restore_state(&img).unwrap();
        assert_eq!(fresh.barrier_delta(), r.barrier_delta());
        assert_eq!(fresh.save_state(), img);
    }

    #[test]
    fn timer_dirty_tracks_configuration_writes() {
        let mut t = Timer::new(0);
        assert!(!t.barrier_dirty(), "fresh timer is clean");
        assert_eq!(t.read(5, 0x0, 4), 5);
        assert!(!t.barrier_dirty(), "reads do not dirty");
        t.write(0, 0x4, 4, 100);
        assert!(t.barrier_dirty());
        let mut restored = Timer::new(0);
        restored.restore_state(&t.save_state()).unwrap();
        assert!(
            restored.barrier_dirty(),
            "a restore keeps the pending write"
        );
        t.apply_barrier(&t.barrier_delta());
        assert!(!t.barrier_dirty());
        restored.restore_state(&t.save_state()).unwrap();
        assert!(!restored.barrier_dirty(), "and its absence");
    }

    /// A device whose journal captures are observable, for pinning the
    /// arbiter's clean-device skip.
    struct Probe {
        captures: Arc<std::sync::atomic::AtomicUsize>,
        dirty: Arc<std::sync::atomic::AtomicBool>,
    }

    impl SocPeripheral for Probe {
        fn range(&self) -> (u32, u32) {
            (0x9000, 0x9010)
        }
        fn read(&mut self, _c: u64, _a: u32, _s: u32) -> u32 {
            0
        }
        fn write(&mut self, _c: u64, _a: u32, _s: u32, _v: u32) {}
        fn barrier_delta(&self) -> Vec<u8> {
            use std::sync::atomic::Ordering;
            self.captures.fetch_add(1, Ordering::Relaxed);
            Vec::new()
        }
        fn apply_barrier(&mut self, _merged: &[u8]) {
            self.dirty
                .store(false, std::sync::atomic::Ordering::Relaxed);
        }
        fn barrier_dirty(&self) -> bool {
            self.dirty.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    #[test]
    fn arbiter_skips_devices_no_shard_dirtied() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let captures = Arc::new(AtomicUsize::new(0));
        let dirty = Arc::new(AtomicBool::new(false));
        let population = || {
            let mut bus = SocBus::new();
            bus.attach(Box::new(Probe {
                captures: Arc::clone(&captures),
                dirty: Arc::clone(&dirty),
            }));
            bus
        };
        let shard0 = SharedSocBus::new(population());
        let shard1 = SharedSocBus::new(population());
        let mut arb = ShardArbiter::new(population(), vec![shard0, shard1]);
        arb.exchange();
        assert_eq!(
            captures.load(Ordering::Relaxed),
            0,
            "a clean device is not captured or applied"
        );
        dirty.store(true, Ordering::Relaxed);
        arb.exchange();
        assert_eq!(
            captures.load(Ordering::Relaxed),
            2,
            "a dirty device ships one journal per shard"
        );
        assert!(
            !dirty.load(Ordering::Relaxed),
            "applying clears the journal"
        );
    }

    fn doorbell_population(core_id: u32, ncores: u32) -> SocBus {
        let mut bus = SocBus::new();
        bus.attach(Box::new(Uart::new(0x100)));
        bus.attach(Box::new(CoreLink::new(0x2000, core_id, ncores)));
        bus
    }

    #[test]
    fn corelink_identity_registers_and_window() {
        let mut link = CoreLink::new(0x2000, 3, 8);
        assert_eq!(link.range(), (0x2000, 0x2c00));
        assert_eq!(link.read(0, 0x2000, 4), 3, "core id");
        assert_eq!(link.read(0, 0x2004, 4), 8, "shard count");
        assert_eq!(link.read(0, 0x2800, 4), 0, "inbox empty");
        // Sends to cores beyond the fabric are dropped.
        link.write(0, 0x2400 + 4 * 9, 4, 1);
        assert!(!link.barrier_dirty());
    }

    #[test]
    fn corelink_delivers_doorbells_at_the_barrier() {
        let shard0 = SharedSocBus::new(doorbell_population(0, 2));
        let shard1 = SharedSocBus::new(doorbell_population(1, 2));
        let mirror = {
            let mut bus = SocBus::new();
            bus.attach(Box::new(Uart::new(0x100)));
            bus.attach(Box::new(CoreLink::mirror(0x2000, 2)));
            bus
        };
        let mut arb = ShardArbiter::new(mirror, vec![shard0.clone(), shard1.clone()]);

        // Core 0 rings core 1 (value 42) and itself (value 7); core 1
        // rings core 0 (value 9). Nothing lands before the barrier.
        shard0.write(1, 0x2400 + 4, 4, 42);
        shard0.write(2, 0x2400, 4, 7);
        shard1.write(3, 0x2400, 4, 9);
        assert_eq!(shard1.read(4, 0x2800, 4), 0, "pre-barrier: no delivery");
        arb.exchange();
        assert_eq!(shard1.read(5, 0x2800, 4), 42, "core 0 → core 1");
        assert_eq!(shard0.read(5, 0x2800, 4), 7, "self-send delivered");
        assert_eq!(shard0.read(5, 0x2804, 4), 9, "core 1 → core 0");
        assert_eq!(shard1.read(5, 0x2804, 4), 0, "not addressed to core 1");

        // Idle epoch: outboxes drained, nothing re-delivered.
        arb.exchange();
        assert_eq!(shard1.read(6, 0x2800, 4), 42, "inbox latches");

        // Identity is construction state: a fabric-wide reset keeps
        // per-core ids while clearing the mailboxes.
        let initial = doorbell_population(0, 2).save_state();
        arb.reset(&initial);
        assert_eq!(shard1.read(7, 0x2000, 4), 1, "id survives reset");
        assert_eq!(shard1.read(7, 0x2800, 4), 0, "inbox cleared");
    }

    #[test]
    fn corelink_state_round_trips_without_identity() {
        let mut link = CoreLink::new(0, 1, 3);
        link.write(0, 0x400 + 8, 4, 5); // ring core 2
        let mut delivered = CoreLink::new(0, 2, 3);
        let d = link.barrier_delta();
        delivered.apply_barrier(&d);
        assert_eq!(delivered.read(0, 0x800 + 4, 4), 5, "from core 1");
        let img = delivered.save_state();
        // Restoring core 2's image into another endpoint moves the
        // mailboxes but not the identity.
        let mut fresh = CoreLink::new(0, 0, 3);
        fresh.restore_state(&img).unwrap();
        assert_eq!(fresh.read(0, 0x0, 4), 0, "identity kept");
        assert_eq!(fresh.read(0, 0x804, 4), 5, "inbox restored");
        assert_eq!(fresh.save_state(), img);
        // Pending sends survive the round trip too.
        let img2 = link.save_state();
        let mut fresh2 = CoreLink::new(0, 1, 3);
        fresh2.restore_state(&img2).unwrap();
        assert_eq!(fresh2.barrier_delta(), link.barrier_delta());
        assert!(fresh2.barrier_dirty());
    }
}

/// Adapter that exposes a [`SharedSocBus`] as the golden model's
/// [`cabt_tricore::sim::IoDevice`], so the *same* peripherals can sit
/// behind the reference simulator and behind the translated platform.
/// SoC time is the golden core's own cycle count, delivered with every
/// access — on the golden side the core *is* the SoC clock, so timer
/// reads and UART timestamps land in exactly the clock domain the
/// synchronization device reproduces for translated runs.
#[derive(Debug)]
pub struct GoldenBridge {
    bus: SharedSocBus,
}

impl GoldenBridge {
    /// Wraps a shared bus.
    pub fn new(bus: SharedSocBus) -> Self {
        GoldenBridge { bus }
    }
}

impl cabt_tricore::sim::IoDevice for GoldenBridge {
    fn io_read(&mut self, cycle: u64, addr: u32, size: u32) -> u32 {
        self.bus.read(cycle, addr, size)
    }

    fn io_write(&mut self, cycle: u64, addr: u32, size: u32, value: u32) {
        self.bus.write(cycle, addr, size, value);
    }
}
