//! The shared memory subsystem: interconnect, banked L2, and DRAM channels.
//!
//! SMs submit line-granular requests after an L1 miss; the request crosses a
//! fixed-latency interconnect to the L2 partition owning the line (one
//! partition per memory channel, Table I), probes the partition's slice of
//! the L2, and on a miss queues in that channel's FR-FCFS DRAM controller.
//! Responses cross the interconnect back and wake the issuing warp.
//!
//! Traffic moves through FIFOs that hold their payloads, each entry tagged
//! with the cycle it is due. Every queue is appended to in due order, so
//! none needs a priority queue:
//!
//! * every request crosses the interconnect in `icnt_latency` cycles, so
//!   submission order is arrival order;
//! * responses come from two streams whose due cycles never decrease: L2
//!   hits and atomics (due `l2_hit_latency + icnt_latency` after the L2
//!   phase that served them) and DRAM completions (due `icnt_latency`
//!   after the DRAM phase). Of two heads due in the same cycle, the L2 one
//!   was created first, at least `l2_hit_latency` cycles earlier or earlier
//!   in the same tick, so taking it first delivers responses in creation
//!   order, as one queue ordered by (due, creation) would.
//!
//! Both facts need the cycles passed to [`MemorySystem::submit`] and
//! [`MemorySystem::tick_into`] never to decrease, as they do in
//! `Gpu::tick_into`. A request waiting for DRAM sits in a [`Slab`], whose
//! slot index is the token its [`DramRequest`] carries; the channel never
//! orders by token, so reusing a slot changes nothing.

use std::collections::VecDeque;

use crate::cache::{Cache, CacheConfig, CacheOutcome};
use crate::config::GpuConfig;
use crate::dram::{DramChannel, DramConfig, DramRequest};

/// Kind of request submitted by an SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// L1 read miss; produces a response.
    Load,
    /// Write-through store; fire-and-forget.
    Store,
    /// Atomic read-modify-write at the L2; serializes at the partition and
    /// produces a response.
    Atomic,
}

/// A line-granular memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Issuing SM.
    pub sm: usize,
    /// Issuing warp within the SM.
    pub warp: usize,
    /// Line address.
    pub line_addr: u64,
    /// Request kind.
    pub kind: ReqKind,
    /// SM-side token grouping the transactions of one instruction.
    pub instr_token: u64,
}

/// A response delivered back to an SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResponse {
    /// Destination SM.
    pub sm: usize,
    /// Destination warp.
    pub warp: usize,
    /// The instruction token this transaction belonged to.
    pub instr_token: u64,
}

/// Aggregate statistics of the memory subsystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemStats {
    /// L2 demand accesses.
    pub l2_accesses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// Requests sent to DRAM.
    pub dram_requests: u64,
    /// Atomic operations serviced.
    pub atomics: u64,
}

/// Values keyed by the token [`Slab::insert`] hands out, which is the
/// value's slot index. A removed value's slot is handed out again, last
/// freed first (the vacant slots form a list through the slots
/// themselves), so the slab grows only to the most values it has held at
/// once, and two identical runs grow it (and allocate) identically.
#[derive(Debug)]
pub(crate) struct Slab<T> {
    slots: Vec<Slot<T>>,
    /// The most recently freed slot.
    free: Option<usize>,
    held: usize,
}

#[derive(Debug)]
enum Slot<T> {
    Held(T),
    /// A free slot, linking to the slot freed before it.
    Vacant(Option<usize>),
}

impl<T> Slab<T> {
    pub(crate) fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: None,
            held: 0,
        }
    }

    /// Stores `value` and returns its token.
    pub(crate) fn insert(&mut self, value: T) -> u64 {
        self.held += 1;
        let slot = match self.free {
            Some(slot) => {
                let Slot::Vacant(next) = self.slots[slot] else {
                    unreachable!("the free list links vacant slots");
                };
                self.free = next;
                self.slots[slot] = Slot::Held(value);
                slot
            }
            None => {
                self.slots.push(Slot::Held(value));
                self.slots.len() - 1
            }
        };
        slot as u64
    }

    /// The value under `token`, if it is held.
    pub(crate) fn get_mut(&mut self, token: u64) -> Option<&mut T> {
        match self.slots.get_mut(usize::try_from(token).ok()?)? {
            Slot::Held(value) => Some(value),
            Slot::Vacant(_) => None,
        }
    }

    /// Takes the value under `token` out, freeing its slot.
    pub(crate) fn remove(&mut self, token: u64) -> Option<T> {
        let slot = usize::try_from(token).ok()?;
        let entry = self.slots.get_mut(slot)?;
        if matches!(entry, Slot::Vacant(_)) {
            return None;
        }
        self.held -= 1;
        match std::mem::replace(entry, Slot::Vacant(self.free.replace(slot))) {
            Slot::Held(value) => Some(value),
            Slot::Vacant(_) => unreachable!("the slot was checked held"),
        }
    }

    /// True when no value is held.
    pub(crate) fn is_empty(&self) -> bool {
        self.held == 0
    }
}

/// Appends `item`, due at cycle `due`, to a queue kept in due order.
fn push_due<T>(queue: &mut VecDeque<(u64, T)>, due: u64, item: T) {
    debug_assert!(
        queue.back().is_none_or(|&(last, _)| last <= due),
        "memory-system cycles must not decrease between calls"
    );
    queue.push_back((due, item));
}

/// Pops the front of `queue` if it is due by `now`.
fn pop_due<T>(queue: &mut VecDeque<(u64, T)>, now: u64) -> Option<T> {
    if queue.front()?.0 > now {
        return None;
    }
    queue.pop_front().map(|(_, item)| item)
}

/// Queues `req`'s response (stores are fire-and-forget and get none).
fn respond(queue: &mut VecDeque<(u64, MemResponse)>, due: u64, req: &MemRequest) {
    if req.kind != ReqKind::Store {
        push_due(
            queue,
            due,
            MemResponse {
                sm: req.sm,
                warp: req.warp,
                instr_token: req.instr_token,
            },
        );
    }
}

/// The shared L2 + DRAM subsystem.
#[derive(Debug)]
pub struct MemorySystem {
    icnt_latency: u64,
    l2_hit_latency: u64,
    n_channels: usize,
    /// Requests crossing the interconnect, with the cycle each reaches its
    /// L2 partition.
    to_l2: VecDeque<(u64, MemRequest)>,
    l2_queues: Vec<VecDeque<MemRequest>>,
    l2_banks: Vec<Cache>,
    l2_busy_until: Vec<u64>,
    dram: Vec<DramChannel>,
    /// Requests in a DRAM channel, keyed by their `DramRequest` token.
    dram_pending: Slab<MemRequest>,
    /// One channel's completed DRAM tokens, refilled per channel per cycle
    /// so the hot path allocates nothing.
    dram_done: Vec<u64>,
    /// Responses to L2 hits and atomics, with the cycle each reaches its SM.
    l2_responses: VecDeque<(u64, MemResponse)>,
    /// Responses to DRAM completions, with the cycle each reaches its SM.
    dram_responses: VecDeque<(u64, MemResponse)>,
    stats: MemStats,
}

impl MemorySystem {
    /// Builds the subsystem from the GPU configuration.
    pub fn new(config: &GpuConfig) -> Self {
        let n = config.mem_channels;
        let bank_cfg = CacheConfig {
            bytes: config.l2_bytes / n,
            ways: config.l2_ways,
            line_bytes: config.line_bytes,
        };
        MemorySystem {
            icnt_latency: u64::from(config.icnt_latency),
            l2_hit_latency: u64::from(config.l2_hit_latency),
            n_channels: n,
            to_l2: VecDeque::new(),
            l2_queues: vec![VecDeque::new(); n],
            l2_banks: (0..n).map(|_| Cache::new(bank_cfg, true)).collect(),
            l2_busy_until: vec![0; n],
            dram: (0..n)
                .map(|_| {
                    DramChannel::new(DramConfig {
                        banks: config.dram_banks,
                        t_rcd: config.dram_t_rcd,
                        t_rp: config.dram_t_rp,
                        t_cas: config.dram_t_cas,
                        t_burst: config.dram_t_burst,
                        ..DramConfig::default()
                    })
                })
                .collect(),
            dram_pending: Slab::new(),
            dram_done: Vec::new(),
            l2_responses: VecDeque::new(),
            dram_responses: VecDeque::new(),
            stats: MemStats::default(),
        }
    }

    /// Submits a request from an SM at cycle `now`, which must not be
    /// earlier than the cycle of the previous `submit` or `tick_into`.
    pub fn submit(&mut self, now: u64, req: MemRequest) {
        push_due(&mut self.to_l2, now + self.icnt_latency, req);
    }

    fn channel_of(&self, line_addr: u64) -> usize {
        (line_addr % self.n_channels as u64) as usize
    }

    /// Advances one cycle; returns responses arriving at the SMs this cycle.
    ///
    /// Allocates a fresh response vector per call; the hot path should use
    /// [`MemorySystem::tick_into`] with a reusable buffer instead.
    pub fn tick(&mut self, now: u64) -> Vec<MemResponse> {
        let mut out = Vec::new();
        self.tick_into(now, &mut out);
        out
    }

    /// Advances one cycle, clearing `out` and filling it with the responses
    /// arriving at the SMs this cycle. `now` must not be earlier than the
    /// cycle of the previous `submit` or `tick_into`.
    pub fn tick_into(&mut self, now: u64, out: &mut Vec<MemResponse>) {
        out.clear();
        // Interconnect arrivals into the L2 partition queues.
        while let Some(req) = pop_due(&mut self.to_l2, now) {
            let ch = self.channel_of(req.line_addr);
            self.l2_queues[ch].push_back(req);
        }

        // Each L2 partition serves at most one request per cycle.
        let l2_response_latency = self.l2_hit_latency + self.icnt_latency;
        for ch in 0..self.n_channels {
            if self.l2_busy_until[ch] > now {
                continue;
            }
            let Some(req) = self.l2_queues[ch].pop_front() else {
                continue;
            };
            match req.kind {
                ReqKind::Atomic => {
                    // Atomics serialize at the partition: occupy it for a few
                    // cycles and always touch the L2 (allocate).
                    self.stats.atomics += 1;
                    self.stats.l2_accesses += 1;
                    let _ = self.l2_banks[ch].access(req.line_addr, true);
                    self.l2_busy_until[ch] = now + 4;
                    respond(&mut self.l2_responses, now + l2_response_latency, &req);
                }
                ReqKind::Load | ReqKind::Store => {
                    self.stats.l2_accesses += 1;
                    let is_write = matches!(req.kind, ReqKind::Store);
                    match self.l2_banks[ch].access(req.line_addr, is_write) {
                        CacheOutcome::Hit => {
                            self.stats.l2_hits += 1;
                            respond(&mut self.l2_responses, now + l2_response_latency, &req);
                        }
                        CacheOutcome::Miss { .. } => {
                            self.stats.dram_requests += 1;
                            self.dram[ch].push(DramRequest {
                                line_addr: req.line_addr,
                                token: self.dram_pending.insert(req),
                                arrived: now,
                            });
                        }
                    }
                }
            }
        }

        // DRAM channels.
        let mut done = std::mem::take(&mut self.dram_done);
        for ch in 0..self.n_channels {
            self.dram[ch].tick_into(now, &mut done);
            for &token in &done {
                let req = self.dram_pending.remove(token).expect("pending request");
                respond(&mut self.dram_responses, now + self.icnt_latency, &req);
            }
        }
        self.dram_done = done;

        // Responses arriving at the SMs, in creation order: an L2 response
        // due in the same cycle as a DRAM one was created first.
        loop {
            let l2_due = self.l2_responses.front().map(|r| r.0);
            let dram_due = self.dram_responses.front().map(|r| r.0);
            let queue = match (l2_due, dram_due) {
                (Some(l2), Some(dram)) if dram < l2 => &mut self.dram_responses,
                (Some(_), _) => &mut self.l2_responses,
                (None, Some(_)) => &mut self.dram_responses,
                (None, None) => break,
            };
            match pop_due(queue, now) {
                Some(resp) => out.push(resp),
                None => break,
            }
        }
    }

    /// True when nothing is queued or in flight anywhere.
    pub fn is_idle(&self) -> bool {
        self.to_l2.is_empty()
            && self.l2_responses.is_empty()
            && self.dram_responses.is_empty()
            && self.dram_pending.is_empty()
            && self.l2_queues.iter().all(VecDeque::is_empty)
            && self.dram.iter().all(DramChannel::is_idle)
    }

    /// Subsystem-level statistics.
    pub fn stats(&self) -> MemStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> MemorySystem {
        MemorySystem::new(&GpuConfig::default())
    }

    fn drain(ms: &mut MemorySystem, start: u64, limit: u64) -> Vec<(u64, MemResponse)> {
        let mut out = Vec::new();
        let mut now = start;
        while !ms.is_idle() && now < limit {
            for r in ms.tick(now) {
                out.push((now, r));
            }
            now += 1;
        }
        out
    }

    fn load(sm: usize, warp: usize, line: u64, tok: u64) -> MemRequest {
        MemRequest {
            sm,
            warp,
            line_addr: line,
            kind: ReqKind::Load,
            instr_token: tok,
        }
    }

    #[test]
    fn slab_reuses_the_last_freed_slot() {
        let mut slab = Slab::new();
        let (a, b, c) = (slab.insert('a'), slab.insert('b'), slab.insert('c'));
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(slab.remove(a), Some('a'));
        assert_eq!(slab.remove(c), Some('c'));
        assert_eq!(slab.remove(c), None, "a freed token holds nothing");
        assert_eq!(slab.get_mut(a), None);
        assert_eq!(slab.get_mut(u64::MAX), None);
        assert_eq!(slab.insert('d'), c, "last freed, first reused");
        assert_eq!(slab.insert('e'), a);
        assert_eq!(slab.insert('f'), 3);
        for token in [b, c, a, 3] {
            assert!(slab.remove(token).is_some());
        }
        assert!(slab.is_empty());
    }

    #[test]
    fn load_roundtrip_produces_one_response() {
        let mut ms = system();
        ms.submit(0, load(3, 7, 1234, 99));
        let out = drain(&mut ms, 0, 10_000);
        assert_eq!(out.len(), 1);
        let (at, r) = out[0];
        assert_eq!((r.sm, r.warp, r.instr_token), (3, 7, 99));
        // icnt + dram (cold miss) + icnt: at least ~40 cycles.
        assert!(at >= 40, "response at {at}");
    }

    #[test]
    fn second_access_hits_l2_and_is_faster() {
        let mut ms = system();
        ms.submit(0, load(0, 0, 42, 1));
        let first = drain(&mut ms, 0, 10_000)[0].0;
        let t0 = first + 1;
        ms.submit(t0, load(0, 1, 42, 2));
        let second = drain(&mut ms, t0, t0 + 10_000)[0].0 - t0;
        assert!(second < first, "L2 hit {second} must beat cold miss {first}");
        assert_eq!(ms.stats().l2_hits, 1);
    }

    #[test]
    fn stores_produce_no_response() {
        let mut ms = system();
        ms.submit(
            0,
            MemRequest {
                sm: 0,
                warp: 0,
                line_addr: 5,
                kind: ReqKind::Store,
                instr_token: 1,
            },
        );
        let out = drain(&mut ms, 0, 10_000);
        assert!(out.is_empty());
        assert!(ms.is_idle());
    }

    #[test]
    fn atomics_respond_and_serialize() {
        let mut ms = system();
        // Two atomics to the same partition serialize (partition busy 4 cyc).
        ms.submit(0, MemRequest { sm: 0, warp: 0, line_addr: 6, kind: ReqKind::Atomic, instr_token: 1 });
        ms.submit(0, MemRequest { sm: 0, warp: 1, line_addr: 6, kind: ReqKind::Atomic, instr_token: 2 });
        let out = drain(&mut ms, 0, 10_000);
        assert_eq!(out.len(), 2);
        assert_eq!(ms.stats().atomics, 2);
        assert!(out[1].0 >= out[0].0 + 4);
    }

    #[test]
    fn channel_interleaving_spreads_lines() {
        let ms = system();
        let mut seen = std::collections::HashSet::new();
        for line in 0..6 {
            seen.insert(ms.channel_of(line));
        }
        assert_eq!(seen.len(), 6, "consecutive lines hit distinct channels");
    }

    #[test]
    fn many_scattered_loads_all_complete() {
        let mut ms = system();
        for i in 0..200u64 {
            ms.submit(0, load(i as usize % 16, i as usize % 48, i * 977, i));
        }
        let out = drain(&mut ms, 0, 100_000);
        assert_eq!(out.len(), 200);
        assert!(ms.is_idle());
    }
}
