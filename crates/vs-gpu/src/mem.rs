//! The shared memory subsystem: interconnect, banked L2, and DRAM channels.
//!
//! SMs submit line-granular requests after an L1 miss; the request crosses a
//! fixed-latency interconnect to the L2 partition owning the line (one
//! partition per memory channel, Table I), probes the partition's slice of
//! the L2, and on a miss queues in that channel's FR-FCFS DRAM controller.
//! Responses cross the interconnect back and wake the issuing warp.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::BuildHasherDefault;

use crate::cache::{Cache, CacheConfig, CacheOutcome, CacheStats};
use crate::config::GpuConfig;
use crate::dram::{DramChannel, DramConfig, DramRequest, DramStats};

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

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Timed<T: Ord> {
    at: u64,
    payload: T,
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

/// A map keyed by request token. The hasher has fixed keys, so when the
/// map grows, and so how often the model allocates, is the same in every
/// run; the maps are never iterated, so results never depended on it.
pub(crate) type TokenMap<V> = HashMap<u64, V, BuildHasherDefault<DefaultHasher>>;

/// The shared L2 + DRAM subsystem.
#[derive(Debug)]
pub struct MemorySystem {
    icnt_latency: u64,
    l2_hit_latency: u64,
    n_channels: usize,
    to_l2: BinaryHeap<Reverse<Timed<u64>>>,
    to_l2_payload: TokenMap<MemRequest>,
    l2_queues: Vec<VecDeque<MemRequest>>,
    l2_banks: Vec<Cache>,
    l2_busy_until: Vec<u64>,
    dram: Vec<DramChannel>,
    dram_pending: TokenMap<MemRequest>,
    /// One channel's completed DRAM tokens, refilled per channel per cycle
    /// so the hot path allocates nothing.
    dram_done: Vec<u64>,
    responses: BinaryHeap<Reverse<Timed<u64>>>,
    response_payload: TokenMap<MemResponse>,
    next_token: u64,
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
            to_l2: BinaryHeap::new(),
            to_l2_payload: TokenMap::default(),
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
            dram_pending: TokenMap::default(),
            dram_done: Vec::new(),
            responses: BinaryHeap::new(),
            response_payload: TokenMap::default(),
            next_token: 0,
            stats: MemStats::default(),
        }
    }

    /// Submits a request from an SM at cycle `now`.
    pub fn submit(&mut self, now: u64, req: MemRequest) {
        let token = self.next_token;
        self.next_token += 1;
        self.to_l2_payload.insert(token, req);
        self.to_l2.push(Reverse(Timed {
            at: now + self.icnt_latency,
            payload: token,
        }));
    }

    fn channel_of(&self, line_addr: u64) -> usize {
        (line_addr % self.n_channels as u64) as usize
    }

    fn schedule_response(&mut self, at: u64, req: MemRequest) {
        if matches!(req.kind, ReqKind::Store) {
            return; // stores are fire-and-forget
        }
        let token = self.next_token;
        self.next_token += 1;
        self.response_payload.insert(
            token,
            MemResponse {
                sm: req.sm,
                warp: req.warp,
                instr_token: req.instr_token,
            },
        );
        self.responses.push(Reverse(Timed {
            at: at + self.icnt_latency,
            payload: token,
        }));
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
    /// arriving at the SMs this cycle.
    pub fn tick_into(&mut self, now: u64, out: &mut Vec<MemResponse>) {
        out.clear();
        // Interconnect arrivals into the L2 partition queues.
        while let Some(Reverse(t)) = self.to_l2.peek() {
            if t.at > now {
                break;
            }
            let Reverse(t) = self.to_l2.pop().expect("peeked");
            let req = self.to_l2_payload.remove(&t.payload).expect("payload");
            let ch = self.channel_of(req.line_addr);
            self.l2_queues[ch].push_back(req);
        }

        // Each L2 partition serves at most one request per cycle.
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
                    self.schedule_response(now + self.l2_hit_latency, req);
                }
                ReqKind::Load | ReqKind::Store => {
                    self.stats.l2_accesses += 1;
                    let is_write = matches!(req.kind, ReqKind::Store);
                    match self.l2_banks[ch].access(req.line_addr, is_write) {
                        CacheOutcome::Hit => {
                            self.stats.l2_hits += 1;
                            self.schedule_response(now + self.l2_hit_latency, req);
                        }
                        CacheOutcome::Miss { .. } => {
                            self.stats.dram_requests += 1;
                            let token = self.next_token;
                            self.next_token += 1;
                            self.dram_pending.insert(token, req);
                            self.dram[ch].push(DramRequest {
                                line_addr: req.line_addr,
                                token,
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
                let req = self.dram_pending.remove(&token).expect("pending request");
                self.schedule_response(now, req);
            }
        }
        self.dram_done = done;

        // Responses arriving at the SMs.
        while let Some(Reverse(t)) = self.responses.peek() {
            if t.at > now {
                break;
            }
            let Reverse(t) = self.responses.pop().expect("peeked");
            out.push(self.response_payload.remove(&t.payload).expect("payload"));
        }
    }

    /// True when nothing is queued or in flight anywhere.
    pub fn is_idle(&self) -> bool {
        self.to_l2.is_empty()
            && self.responses.is_empty()
            && self.dram_pending.is_empty()
            && self.l2_queues.iter().all(VecDeque::is_empty)
            && self.dram.iter().all(DramChannel::is_idle)
    }

    /// Subsystem-level statistics.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Per-partition L2 statistics.
    pub fn l2_stats(&self) -> Vec<CacheStats> {
        self.l2_banks.iter().map(|c| c.stats()).collect()
    }

    /// Per-channel DRAM statistics.
    pub fn dram_stats(&self) -> Vec<DramStats> {
        self.dram.iter().map(|d| d.stats()).collect()
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
