//! GDDR-style DRAM channel with an FR-FCFS (first-ready, first-come
//! first-served) scheduler — the memory-controller policy from Table I.
//!
//! Each channel owns a set of banks with open-row state. Every cycle the
//! scheduler starts at most one request: it prefers the oldest *row-hit*
//! request whose bank is free (first-ready), falling back to the oldest
//! request overall (FCFS). Timing uses tRCD/tRP/tCAS plus a shared data-bus
//! burst occupancy.

use std::collections::VecDeque;

/// DRAM timing/geometry parameters (in GPU clock cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Banks per channel.
    pub banks: usize,
    /// Row-activate latency.
    pub t_rcd: u32,
    /// Precharge latency.
    pub t_rp: u32,
    /// Column-access latency.
    pub t_cas: u32,
    /// Data-bus occupancy per burst.
    pub t_burst: u32,
    /// Cache lines per DRAM row (row-buffer size / line size).
    pub lines_per_row: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            banks: 8,
            t_rcd: 12,
            t_rp: 12,
            t_cas: 12,
            t_burst: 4,
            lines_per_row: 16,
        }
    }
}

/// A queued DRAM request, identified by an opaque token the owner uses to
/// match completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramRequest {
    /// Line-granular address.
    pub line_addr: u64,
    /// Owner-assigned completion token.
    pub token: u64,
    /// Cycle the request entered the queue.
    pub arrived: u64,
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    token: u64,
    done_at: u64,
}

/// Running statistics for a channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Requests serviced.
    pub serviced: u64,
    /// Row-buffer hits among serviced requests.
    pub row_hits: u64,
    /// Sum of queueing+service latencies (cycles) for serviced requests.
    pub total_latency: u64,
}

/// One DRAM channel with FR-FCFS scheduling.
#[derive(Debug, Clone)]
pub struct DramChannel {
    config: DramConfig,
    queue: VecDeque<DramRequest>,
    banks: Vec<Bank>,
    bus_free_at: u64,
    in_flight: Vec<InFlight>,
    stats: DramStats,
}

impl DramChannel {
    /// Creates an idle channel.
    pub fn new(config: DramConfig) -> Self {
        DramChannel {
            config,
            queue: VecDeque::new(),
            banks: vec![
                Bank {
                    open_row: None,
                    busy_until: 0,
                };
                config.banks
            ],
            bus_free_at: 0,
            in_flight: Vec::new(),
            stats: DramStats::default(),
        }
    }

    /// Queue depth (requests not yet started).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// True when no work is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.in_flight.is_empty()
    }

    /// Statistics so far.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    fn bank_of(&self, line_addr: u64) -> usize {
        // Interleave rows across banks so streaming accesses exploit bank
        // parallelism.
        ((line_addr / self.config.lines_per_row) % self.config.banks as u64) as usize
    }

    fn row_of(&self, line_addr: u64) -> u64 {
        line_addr / (self.config.lines_per_row * self.config.banks as u64)
    }

    /// Enqueues a request.
    pub fn push(&mut self, req: DramRequest) {
        self.queue.push_back(req);
    }

    /// Advances one cycle; returns the tokens of requests whose data
    /// completed this cycle.
    ///
    /// Allocates a fresh token vector whenever a request completes; the hot
    /// path should use [`DramChannel::tick_into`] with a reusable buffer.
    pub fn tick(&mut self, now: u64) -> Vec<u64> {
        let mut done = Vec::new();
        self.tick_into(now, &mut done);
        done
    }

    /// Advances one cycle, clearing `done` and filling it with the tokens of
    /// requests whose data completed this cycle.
    pub fn tick_into(&mut self, now: u64, done: &mut Vec<u64>) {
        // Collect completions.
        done.clear();
        self.in_flight.retain(|f| {
            if f.done_at <= now {
                done.push(f.token);
                false
            } else {
                true
            }
        });

        // FR-FCFS: oldest row-hit with a free bank, else oldest with a free
        // bank.
        let mut pick: Option<usize> = None;
        for (i, req) in self.queue.iter().enumerate() {
            let bank = self.bank_of(req.line_addr);
            if self.banks[bank].busy_until > now {
                continue;
            }
            let row_hit = self.banks[bank].open_row == Some(self.row_of(req.line_addr));
            if row_hit {
                pick = Some(i);
                break; // oldest row-hit wins immediately
            }
            if pick.is_none() {
                pick = Some(i);
            }
        }

        if let Some(i) = pick {
            let req = self.queue.remove(i).expect("index valid");
            let bank_idx = self.bank_of(req.line_addr);
            let row = self.row_of(req.line_addr);
            let cfg = self.config;
            let bank = &mut self.banks[bank_idx];
            let access_cycles = match bank.open_row {
                Some(r) if r == row => {
                    self.stats.row_hits += 1;
                    cfg.t_cas
                }
                Some(_) => cfg.t_rp + cfg.t_rcd + cfg.t_cas,
                None => cfg.t_rcd + cfg.t_cas,
            };
            bank.open_row = Some(row);
            let data_start = (now + u64::from(access_cycles)).max(self.bus_free_at);
            let done_at = data_start + u64::from(cfg.t_burst);
            bank.busy_until = done_at;
            self.bus_free_at = done_at;
            self.in_flight.push(InFlight {
                token: req.token,
                done_at,
            });
            self.stats.serviced += 1;
            self.stats.total_latency += done_at - req.arrived;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_until_done(ch: &mut DramChannel, mut now: u64, limit: u64) -> Vec<(u64, u64)> {
        let mut completions = Vec::new();
        while !ch.is_idle() && now < limit {
            for t in ch.tick(now) {
                completions.push((t, now));
            }
            now += 1;
        }
        completions
    }

    #[test]
    fn single_request_timing() {
        let mut ch = DramChannel::new(DramConfig::default());
        ch.push(DramRequest {
            line_addr: 0,
            token: 7,
            arrived: 0,
        });
        let done = run_until_done(&mut ch, 0, 1_000);
        assert_eq!(done.len(), 1);
        let (tok, at) = done[0];
        assert_eq!(tok, 7);
        // Closed row: tRCD + tCAS + burst = 12 + 12 + 4 = 28, started at
        // cycle 0, completion observed on the tick after done_at.
        assert!((28..=30).contains(&at), "completed at {at}");
    }

    #[test]
    fn row_hits_are_faster() {
        let cfg = DramConfig::default();
        let mut ch = DramChannel::new(cfg);
        // Same row, sequential lines.
        ch.push(DramRequest { line_addr: 0, token: 1, arrived: 0 });
        ch.push(DramRequest { line_addr: 1, token: 2, arrived: 0 });
        let done = run_until_done(&mut ch, 0, 1_000);
        assert_eq!(ch.stats().row_hits, 1);
        let t2 = done.iter().find(|(t, _)| *t == 2).unwrap().1;
        let t1 = done.iter().find(|(t, _)| *t == 1).unwrap().1;
        // Second access pays only tCAS + burst after the first frees the bus.
        assert!(t2 > t1);
        assert!(t2 - t1 <= u64::from(cfg.t_cas + cfg.t_burst) + 2);
    }

    #[test]
    fn fr_fcfs_prefers_row_hit() {
        let cfg = DramConfig::default();
        let mut ch = DramChannel::new(cfg);
        // Open a row in bank 0 (addresses 0..16 are bank 0 row 0).
        ch.push(DramRequest { line_addr: 0, token: 1, arrived: 0 });
        let mut now = 0;
        while ch.stats().serviced == 0 {
            ch.tick(now);
            now += 1;
        }
        // Wait for the bank to go idle again.
        while !ch.is_idle() {
            ch.tick(now);
            now += 1;
        }
        // Queue a row-conflict (bank 0, different row) first, then a row-hit.
        let other_row = cfg.lines_per_row * cfg.banks as u64; // bank 0, row 1
        ch.push(DramRequest { line_addr: other_row, token: 10, arrived: now });
        ch.push(DramRequest { line_addr: 1, token: 11, arrived: now });
        let done = run_until_done(&mut ch, now, now + 1_000);
        let hit_at = done.iter().find(|(t, _)| *t == 11).unwrap().1;
        let conflict_at = done.iter().find(|(t, _)| *t == 10).unwrap().1;
        assert!(hit_at < conflict_at, "row hit must be scheduled first");
    }

    #[test]
    fn bank_parallelism_overlaps_access() {
        let cfg = DramConfig::default();
        let mut ch = DramChannel::new(cfg);
        // Two requests to different banks issue back to back; total time is
        // far less than 2x the serial latency.
        ch.push(DramRequest { line_addr: 0, token: 1, arrived: 0 });
        ch.push(DramRequest {
            line_addr: cfg.lines_per_row, // next bank
            token: 2,
            arrived: 0,
        });
        let done = run_until_done(&mut ch, 0, 1_000);
        let last = done.iter().map(|(_, at)| *at).max().unwrap();
        assert!(last < 2 * 28, "banks should overlap: finished at {last}");
    }

    #[test]
    fn average_latency_grows_under_load() {
        let cfg = DramConfig::default();
        let mut light = DramChannel::new(cfg);
        light.push(DramRequest { line_addr: 0, token: 0, arrived: 0 });
        run_until_done(&mut light, 0, 10_000);

        let mut heavy = DramChannel::new(cfg);
        for i in 0..64 {
            heavy.push(DramRequest {
                line_addr: i * 1000, // scattered: mostly row misses
                token: i,
                arrived: 0,
            });
        }
        run_until_done(&mut heavy, 0, 100_000);
        let l_avg = light.stats().total_latency as f64 / light.stats().serviced as f64;
        let h_avg = heavy.stats().total_latency as f64 / heavy.stats().serviced as f64;
        assert!(h_avg > 2.0 * l_avg, "queueing must raise latency: {l_avg} vs {h_avg}");
    }
}
