//! Streaming-multiprocessor timing model.
//!
//! Each SM holds up to 48 resident warps, dual-issues ready warps per cycle
//! under a GTO (greedy-then-oldest, Table I) or two-level gating-aware
//! scheduler, tracks register dependences with a scoreboard, and owns an L1
//! data cache plus ports into the shared SP / SFU / LSU execution pipelines.
//!
//! The SM is also the actuation point for the cross-layer voltage-smoothing
//! scheme: the issue adjuster realizes fractional issue widths (DIWS) with a
//! 10-cycle down-counter window, fake instructions are injected into issue
//! slack (FII), per-SM frequency scaling models DFS clock masking, and
//! execution units can be power-gated (Warped-Gates-style PG).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cache::{Cache, CacheConfig, CacheOutcome};
use crate::config::{GpuConfig, MAX_WARPS_PER_SM};
use crate::isa::{AccessPattern, ExecUnit, Instruction, MemSpace, Opcode};
use crate::mem::{MemRequest, MemResponse, MemorySystem, ReqKind, Slab};
use crate::workload::Kernel;

/// Warp scheduler policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Greedy-then-oldest (GPGPU-Sim's GTO, the paper's Table I setting).
    #[default]
    Gto,
    /// Gating-aware two-level scheduling (Warped Gates' GATES): clusters
    /// same-unit instructions to lengthen idle windows of the other units.
    TwoLevelGates,
}

/// Per-cycle control inputs applied to an SM by the voltage-smoothing
/// controller, the DFS governor, and the power-gating policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmControl {
    /// Average issue width in warps/cycle (DIWS), `0..=2`.
    pub issue_width: f64,
    /// Fake instructions to inject per cycle (FII), `0..=2`.
    pub fake_rate: f64,
    /// Clock scaling for DFS: fraction of cycles this SM is clocked, `0..=1`.
    pub freq_scale: f64,
    /// Whole-SM power gate (used by the worst-case imbalance scenario).
    pub sm_gated: bool,
    /// Enables execution-unit power gating.
    pub unit_gating: bool,
    /// Idle cycles before a unit is gated (Warped Gates' idle-detect).
    pub gating_idle_detect: u32,
}

impl Default for SmControl {
    fn default() -> Self {
        SmControl {
            issue_width: 2.0,
            fake_rate: 0.0,
            freq_scale: 1.0,
            sm_gated: false,
            unit_gating: false,
            gating_idle_detect: IDLE_DETECT,
        }
    }
}

/// Microarchitectural events of one SM cycle; the power model's input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmCycleStats {
    /// SM was clocked this cycle (false under DFS masking / SM gating).
    pub active: bool,
    /// Warp instructions issued to SP pipelines.
    pub issued_sp: u8,
    /// Warp instructions issued to the SFU.
    pub issued_sfu: u8,
    /// Warp instructions issued to the LSU.
    pub issued_lsu: u8,
    /// Fake (injected) instructions issued.
    pub issued_fake: u8,
    /// Control instructions (barrier/exit) retired.
    pub issued_ctrl: u8,
    /// L1 hits this cycle.
    pub l1_hits: u8,
    /// L1 misses this cycle (transactions sent downstream).
    pub l1_misses: u8,
    /// Shared-memory accesses.
    pub shared_accesses: u8,
    /// Global stores submitted.
    pub stores: u8,
    /// Atomics submitted.
    pub atomics: u8,
    /// SP pipelines power-gated this cycle.
    pub sp_gated: bool,
    /// SFU power-gated this cycle.
    pub sfu_gated: bool,
    /// LSU power-gated this cycle.
    pub lsu_gated: bool,
    /// Unit wake-ups triggered this cycle (each costs break-even energy).
    pub unit_wakeups: u8,
    /// Number of warps still resident (not done).
    pub live_warps: u8,
}

impl SmCycleStats {
    /// Total real instructions issued this cycle.
    pub fn issued_total(&self) -> u32 {
        u32::from(self.issued_sp) + u32::from(self.issued_sfu) + u32::from(self.issued_lsu)
    }
}

/// Lifetime statistics of an SM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmStats {
    /// Cycles the SM was clocked.
    pub active_cycles: u64,
    /// Real warp instructions retired.
    pub instructions: u64,
    /// Fake instructions injected.
    pub fake_instructions: u64,
}

impl SmStats {
    /// Average issue rate in warps/cycle over active cycles.
    pub fn ipc(&self) -> f64 {
        if self.active_cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.active_cycles as f64
        }
    }
}

/// Shared pool of kernel-body batches, drained by all SMs — the analogue of
/// a CUDA grid's CTA pool: SMs stay busy until the grid is exhausted, so
/// per-SM speed differences shift *who* does the work, not how long some SMs
/// idle at the end.
#[derive(Debug, Clone, Copy)]
pub struct WorkPool {
    remaining: u64,
}

impl WorkPool {
    /// Creates a pool with `batches` kernel-body executions to hand out.
    pub fn new(batches: u64) -> Self {
        WorkPool { remaining: batches }
    }

    /// Takes one batch; false when the pool is dry.
    pub fn try_take(&mut self) -> bool {
        if self.remaining > 0 {
            self.remaining -= 1;
            true
        } else {
            false
        }
    }

    /// Batches left.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

#[derive(Debug, Clone)]
struct WarpCtx {
    pc: usize,
    /// Current batch iteration counter: how many body repeats remain in the
    /// batch this warp holds (batches are `iters_per_batch` body runs).
    iters_left: u32,
    pending: u32,
    at_barrier: bool,
    done: bool,
    inflight_mem_instrs: u32,
}

const ISSUE_WINDOW: u64 = 10;
/// Default Warped-Gates idle-detect threshold, cycles.
pub(crate) const IDLE_DETECT: u32 = 5;
/// Active-set size of the two-level (GATES) scheduler; large enough to
/// hide ALU latency, small enough to cluster unit usage.
const ACTIVE_SET_SIZE: usize = 16;
const WAKE_LATENCY: u64 = 3;
const MAX_INFLIGHT_MEM: u32 = 6;

#[derive(Debug, Clone, Copy, Default)]
struct UnitState {
    free_at: u64,
    idle_cycles: u32,
    gated: bool,
    wake_at: u64,
}

/// Outcome of an issue attempt, distinguishing "the warp itself is blocked"
/// (scoreboard hazard, barrier, done, memory throttle) from "the warp is
/// ready but its execution port is busy or waking". Only the former may
/// clear a warp's maybe-ready bit: port state changes on its own with time,
/// warp state only changes through an observable event.
///
/// A port found blocked stays blocked for the rest of the cycle: `free_at`
/// only grows, and gating state changes only after the issue loop. So the
/// loop drops every other warp bound for that unit without trying it. The
/// one side effect of a blocked try, a gated unit's first wake-up, happens
/// on the try that reports the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssueOutcome {
    Issued,
    PortBlocked(ExecUnit),
    NotReady,
}

/// One streaming multiprocessor.
#[derive(Debug)]
pub struct Sm {
    id: usize,
    body: Vec<Instruction>,
    /// Per-pc scoreboard mask (dst | srcs), precomputed so `warp_ready`
    /// is a table lookup instead of an instruction decode.
    body_masks: Vec<u32>,
    /// Per-pc flag: instruction counts against `MAX_INFLIGHT_MEM`.
    body_throttled: Vec<bool>,
    /// Per-pc execution unit, the index into `unit_warps`.
    body_units: Vec<ExecUnit>,
    warps: Vec<WarpCtx>,
    /// Warps not yet done — maintained incrementally (decremented when a
    /// warp retires) instead of recounted every cycle.
    live_warps: u32,
    /// Conservative per-warp "maybe ready" mask: a cleared bit means the
    /// warp is definitely not issuable; a set bit means it must be checked.
    /// Bits are set on every event that can unblock a warp (writeback
    /// retirement, memory response, barrier release) and cleared lazily
    /// when a try proves the warp blocked, so schedule order is identical
    /// to a full scan — blocked warps are just skipped cheaply. A warp the
    /// issue loop drops untried (its unit's port is blocked) keeps its bit,
    /// which changes no decision.
    ready_mask: u128,
    /// Set bit per non-done warp (cleared on retirement).
    live_mask: u128,
    /// Bit `w` of entry `u` is set when warp `w`'s next instruction issues
    /// to unit `u` (indexed by `ExecUnit as usize`); kept in step by
    /// [`Sm::set_pc`].
    unit_warps: [u128; 4],
    /// Active-set membership mask for the two-level scheduler: built with
    /// the active set and kept in step with it by every swap, refill and
    /// retirement.
    active_mask: u128,
    /// Warps currently stalled at a barrier; lets the per-cycle barrier
    /// resolution exit immediately when nobody is waiting.
    barrier_waiting: u32,
    warps_per_cta: usize,
    l1: Cache,
    control: SmControl,
    scheduler: SchedulerKind,
    greedy: usize,
    preferred_unit: ExecUnit,
    active_set: Vec<usize>,
    /// Reusable candidate-order scratch for the two-level scheduler.
    order: Vec<usize>,
    /// Reusable line-address scratch for memory instructions.
    lines_buf: Vec<u64>,
    /// Reusable L1-miss scratch for global loads.
    missed_buf: Vec<u64>,
    rr_cursor: usize,
    sp: UnitState,
    sfu: UnitState,
    lsu: UnitState,
    writebacks: BinaryHeap<Reverse<(u64, usize, u32)>>,
    outstanding: Slab<(usize, u32, u32)>, // token -> (warp, reg mask, remaining)
    freq_acc: f64,
    fake_acc: f64,
    grants_left: u32,
    active_cycle: u64,
    working_set_lines: u64,
    sp_latency: u64,
    sfu_latency: u64,
    shared_latency: u64,
    l1_hit_latency: u64,
    stats: SmStats,
}

impl Sm {
    /// Creates an SM running `kernel`. Work is drawn from a shared
    /// [`WorkPool`]; each warp starts holding one batch.
    ///
    /// # Panics
    ///
    /// Panics if the kernel holds more than 128 warps per SM, the width of
    /// the scheduler's warp masks.
    pub fn new(id: usize, config: &GpuConfig, kernel: &Kernel, scheduler: SchedulerKind) -> Self {
        assert!(
            kernel.warps_per_sm <= MAX_WARPS_PER_SM,
            "kernel holds {} warps per SM; the scheduler's masks hold {MAX_WARPS_PER_SM}",
            kernel.warps_per_sm
        );
        let warps: Vec<WarpCtx> = (0..kernel.warps_per_sm)
            .map(|_| WarpCtx {
                pc: 0,
                iters_left: 1,
                pending: 0,
                at_barrier: false,
                done: false,
                inflight_mem_instrs: 0,
            })
            .collect();
        let body_masks = kernel
            .body
            .iter()
            .map(|instr| {
                let mut mask = 0u32;
                if let Some(d) = instr.dst {
                    mask |= 1 << (d.0 as u32 % 32);
                }
                for s in instr.srcs.iter().flatten() {
                    mask |= 1 << (s.0 as u32 % 32);
                }
                mask
            })
            .collect();
        let body_throttled = kernel
            .body
            .iter()
            .map(|i| matches!(i.opcode, Opcode::Ld(MemSpace::Global) | Opcode::Atom))
            .collect();
        let body_units: Vec<ExecUnit> = kernel.body.iter().map(Instruction::unit).collect();
        let live_warps = warps.len() as u32;
        let low_bits = |n: usize| {
            if n >= 128 {
                u128::MAX
            } else {
                (1u128 << n) - 1
            }
        };
        let ready_mask = low_bits(warps.len());
        let mut unit_warps = [0; 4];
        if let Some(&first) = body_units.first() {
            unit_warps[first as usize] = ready_mask;
        }
        let active_set_len = kernel.warps_per_sm.min(ACTIVE_SET_SIZE);
        Sm {
            id,
            body: kernel.body.clone(),
            body_masks,
            body_throttled,
            body_units,
            warps,
            live_warps,
            ready_mask,
            live_mask: ready_mask,
            unit_warps,
            active_mask: low_bits(active_set_len),
            barrier_waiting: 0,
            warps_per_cta: config.warps_per_cta,
            l1: Cache::new(
                CacheConfig {
                    bytes: config.l1_bytes,
                    ways: config.l1_ways,
                    line_bytes: config.line_bytes,
                },
                false,
            ),
            control: SmControl::default(),
            scheduler,
            greedy: 0,
            preferred_unit: ExecUnit::Sp,
            active_set: (0..active_set_len).collect(),
            order: Vec::new(),
            lines_buf: Vec::new(),
            missed_buf: Vec::new(),
            rr_cursor: 0,
            sp: UnitState::default(),
            sfu: UnitState::default(),
            lsu: UnitState::default(),
            writebacks: BinaryHeap::new(),
            outstanding: Slab::new(),
            freq_acc: 0.0,
            fake_acc: 0.0,
            grants_left: 2 * ISSUE_WINDOW as u32,
            active_cycle: 0,
            working_set_lines: kernel_working_set(kernel),
            sp_latency: u64::from(config.sp_latency),
            sfu_latency: u64::from(config.sfu_latency),
            shared_latency: u64::from(config.shared_latency),
            l1_hit_latency: u64::from(config.l1_hit_latency),
            stats: SmStats::default(),
        }
    }

    /// This SM's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Applies new control inputs (effective next cycle).
    pub fn set_control(&mut self, control: SmControl) {
        self.control = control;
    }

    /// Current control inputs.
    pub fn control(&self) -> SmControl {
        self.control
    }

    /// True when every warp has retired all its iterations.
    pub fn done(&self) -> bool {
        self.live_warps == 0
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> SmStats {
        self.stats
    }

    /// Delivers a memory response to this SM.
    pub fn on_response(&mut self, resp: &MemResponse) {
        if let Some((warp, mask, remaining)) = self.outstanding.get_mut(resp.instr_token) {
            *remaining -= 1;
            if *remaining == 0 {
                let w = *warp;
                let m = *mask;
                self.outstanding.remove(resp.instr_token);
                let ctx = &mut self.warps[w];
                ctx.pending &= !m;
                ctx.inflight_mem_instrs = ctx.inflight_mem_instrs.saturating_sub(1);
                self.mark_maybe_ready(w);
            }
        }
    }

    /// Records that `w` may have become issuable again.
    #[inline]
    fn mark_maybe_ready(&mut self, w: usize) {
        self.ready_mask |= 1u128 << w;
    }

    /// [`Sm::warp_ready`] with the maybe-ready fast path: a cleared mask bit
    /// short-circuits to false, and a full check that fails clears the bit.
    fn warp_ready_lazy(&mut self, w: usize) -> bool {
        if self.ready_mask & (1u128 << w) == 0 {
            return false;
        }
        if self.warp_ready(w) {
            true
        } else {
            self.ready_mask &= !(1u128 << w);
            false
        }
    }

    /// Moves warp `w` to `pc`, keeping `unit_warps` in step: every pc
    /// write goes through here.
    fn set_pc(&mut self, w: usize, pc: usize) {
        let bit = 1u128 << w;
        self.unit_warps[self.body_units[self.warps[w].pc] as usize] &= !bit;
        self.unit_warps[self.body_units[pc] as usize] |= bit;
        self.warps[w].pc = pc;
    }

    fn unit_mut(&mut self, u: ExecUnit) -> &mut UnitState {
        match u {
            ExecUnit::Sp => &mut self.sp,
            ExecUnit::Sfu => &mut self.sfu,
            ExecUnit::Lsu => &mut self.lsu,
            ExecUnit::None => unreachable!("control instructions have no unit"),
        }
    }

    fn unit_issue_interval(&self, u: ExecUnit) -> u64 {
        match u {
            // Two 16-wide SP blocks: a 32-thread warp occupies a block for 2
            // cycles, and with two blocks the SM sustains ~1 SP warp/cycle;
            // dual issue allows an SP + another-unit pair each cycle.
            ExecUnit::Sp => 1,
            // 4 SFU lanes: 32 threads take 8 cycles.
            ExecUnit::Sfu => 8,
            // 16 LSU lanes: 2 cycles per warp.
            ExecUnit::Lsu => 2,
            ExecUnit::None => 0,
        }
    }

    /// Releases a CTA's barrier once all its live warps have arrived.
    fn resolve_barriers(&mut self) {
        if self.barrier_waiting == 0 {
            return;
        }
        let n = self.warps.len();
        let per = self.warps_per_cta.max(1);
        let mut cta = 0;
        while cta * per < n {
            let lo = cta * per;
            let hi = ((cta + 1) * per).min(n);
            let all_arrived = self.warps[lo..hi]
                .iter()
                .all(|w| w.done || w.at_barrier);
            let any_waiting = self.warps[lo..hi].iter().any(|w| w.at_barrier);
            if all_arrived && any_waiting {
                for w in lo..hi {
                    if self.warps[w].at_barrier {
                        self.warps[w].at_barrier = false;
                        self.set_pc(w, self.warps[w].pc + 1);
                        self.barrier_waiting -= 1;
                        self.mark_maybe_ready(w);
                    }
                }
            }
            cta += 1;
        }
    }

    fn warp_ready(&self, w: usize) -> bool {
        let ctx = &self.warps[w];
        if ctx.done || ctx.at_barrier {
            return false;
        }
        if ctx.pending & self.body_masks[ctx.pc] != 0 {
            return false;
        }
        if self.body_throttled[ctx.pc] && ctx.inflight_mem_instrs >= MAX_INFLIGHT_MEM {
            return false;
        }
        true
    }

    /// Next inactive, non-done, *ready* warp in round-robin order from
    /// `rr_cursor`. Only warps whose maybe-ready bit is set are tried (a
    /// cleared bit proves the warp blocked), and a failed try clears it.
    fn find_ready_inactive(&mut self) -> Option<usize> {
        let mut cand = self.ready_mask & self.live_mask & !self.active_mask;
        while let Some(w) = next_round_robin(cand, self.rr_cursor) {
            if self.warp_ready(w) {
                self.rr_cursor = (w + 1) % self.warps.len();
                return Some(w);
            }
            cand &= !(1u128 << w);
            self.ready_mask &= !(1u128 << w);
        }
        None
    }

    /// Next inactive, non-done warp (ready or not) in round-robin order.
    fn find_any_inactive(&mut self) -> Option<usize> {
        let w = next_round_robin(self.live_mask & !self.active_mask, self.rr_cursor)?;
        self.rr_cursor = (w + 1) % self.warps.len();
        Some(w)
    }

    /// Deterministic line-address generator for a warp access; fills `out`
    /// (a reusable scratch buffer) instead of allocating.
    fn gen_lines_into(
        &self,
        warp: usize,
        pc: usize,
        iter: u32,
        pattern: AccessPattern,
        out: &mut Vec<u64>,
    ) {
        out.clear();
        let ws = self.working_set_lines;
        let n = pattern.transactions() as u64;
        let mix = |a: u64, b: u64, c: u64| -> u64 {
            let mut h = 0x9e3779b97f4a7c15u64 ^ a;
            h = h.wrapping_mul(0xbf58476d1ce4e5b9) ^ b.rotate_left(17);
            h = h.wrapping_mul(0x94d049bb133111eb) ^ c.rotate_left(31);
            h ^ (h >> 29)
        };
        match pattern {
            AccessPattern::Coalesced { .. } => {
                // Streaming with cross-warp sharing and short temporal reuse.
                let base = mix(pc as u64, u64::from(iter / 2), warp as u64 / 2) % ws;
                out.extend((0..n).map(|t| (base + t) % ws));
            }
            AccessPattern::Strided { stride_lines, .. } => {
                let base = mix(pc as u64, u64::from(iter), warp as u64) % ws;
                out.extend((0..n).map(|t| (base + t * u64::from(stride_lines)) % ws));
            }
            AccessPattern::Random { .. } => {
                out.extend((0..n).map(|t| mix(pc as u64 ^ t << 33, u64::from(iter), warp as u64) % ws));
            }
        }
    }

    /// Attempts to issue warp `w`'s next instruction.
    #[allow(clippy::too_many_lines)]
    fn try_issue(
        &mut self,
        w: usize,
        now: u64,
        mem: &mut MemorySystem,
        pool: &mut WorkPool,
        stats: &mut SmCycleStats,
    ) -> IssueOutcome {
        if !self.warp_ready(w) {
            return IssueOutcome::NotReady;
        }
        let ctx_pc = self.warps[w].pc;
        let unit = self.body_units[ctx_pc];

        if unit != ExecUnit::None {
            // Port availability and power-gating wake-up.
            let gating = self.control.unit_gating;
            let u = self.unit_mut(unit);
            if u.free_at > now {
                return IssueOutcome::PortBlocked(unit);
            }
            if gating && u.gated {
                if u.wake_at == 0 {
                    u.wake_at = now + WAKE_LATENCY;
                    stats.unit_wakeups += 1;
                }
                if u.wake_at > now {
                    return IssueOutcome::PortBlocked(unit);
                }
                u.gated = false;
                u.wake_at = 0;
            }
        }

        // Commit the issue.
        let instr = self.body[ctx_pc];
        let iter = self.warps[w].iters_left;
        match instr.opcode {
            Opcode::IAlu | Opcode::FAlu | Opcode::Ffma => {
                stats.issued_sp += 1;
                let lat = self.sp_latency;
                let ii = self.unit_issue_interval(ExecUnit::Sp);
                self.sp.free_at = now + ii;
                self.sp.idle_cycles = 0;
                if let Some(d) = instr.dst {
                    let bit = 1u32 << (d.0 as u32 % 32);
                    self.warps[w].pending |= bit;
                    self.writebacks.push(Reverse((now + lat, w, bit)));
                }
                self.set_pc(w, ctx_pc + 1);
            }
            Opcode::Sfu(_) => {
                stats.issued_sfu += 1;
                let lat = self.sfu_latency;
                let ii = self.unit_issue_interval(ExecUnit::Sfu);
                self.sfu.free_at = now + ii;
                self.sfu.idle_cycles = 0;
                if let Some(d) = instr.dst {
                    let bit = 1u32 << (d.0 as u32 % 32);
                    self.warps[w].pending |= bit;
                    self.writebacks.push(Reverse((now + lat, w, bit)));
                }
                self.set_pc(w, ctx_pc + 1);
            }
            Opcode::Ld(MemSpace::Shared) => {
                stats.issued_lsu += 1;
                stats.shared_accesses += 1;
                let ii = self.unit_issue_interval(ExecUnit::Lsu);
                self.lsu.free_at = now + ii;
                self.lsu.idle_cycles = 0;
                if let Some(d) = instr.dst {
                    let bit = 1u32 << (d.0 as u32 % 32);
                    self.warps[w].pending |= bit;
                    self.writebacks.push(Reverse((now + self.shared_latency, w, bit)));
                }
                self.set_pc(w, ctx_pc + 1);
            }
            Opcode::Ld(MemSpace::Global) => {
                stats.issued_lsu += 1;
                let ii = self.unit_issue_interval(ExecUnit::Lsu);
                self.lsu.free_at = now + ii;
                self.lsu.idle_cycles = 0;
                let pattern = instr.pattern.unwrap_or(AccessPattern::Coalesced { n_lines: 1 });
                let mut lines = std::mem::take(&mut self.lines_buf);
                let mut missed = std::mem::take(&mut self.missed_buf);
                self.gen_lines_into(w, ctx_pc, iter, pattern, &mut lines);
                missed.clear();
                for line in &lines {
                    match self.l1.access(*line, false) {
                        CacheOutcome::Hit => stats.l1_hits = stats.l1_hits.saturating_add(1),
                        CacheOutcome::Miss { .. } => {
                            stats.l1_misses = stats.l1_misses.saturating_add(1);
                            missed.push(*line);
                        }
                    }
                }
                if let Some(d) = instr.dst {
                    let bit = 1u32 << (d.0 as u32 % 32);
                    self.warps[w].pending |= bit;
                    if missed.is_empty() {
                        self.writebacks.push(Reverse((now + self.l1_hit_latency, w, bit)));
                    } else {
                        let token = self.outstanding.insert((w, bit, missed.len() as u32));
                        self.warps[w].inflight_mem_instrs += 1;
                        for &line in &missed {
                            mem.submit(
                                now,
                                MemRequest {
                                    sm: self.id,
                                    warp: w,
                                    line_addr: line,
                                    kind: ReqKind::Load,
                                    instr_token: token,
                                },
                            );
                        }
                    }
                }
                self.set_pc(w, ctx_pc + 1);
                self.lines_buf = lines;
                self.missed_buf = missed;
            }
            Opcode::St(space) => {
                stats.issued_lsu += 1;
                let ii = self.unit_issue_interval(ExecUnit::Lsu);
                self.lsu.free_at = now + ii;
                self.lsu.idle_cycles = 0;
                if matches!(space, MemSpace::Global) {
                    stats.stores += 1;
                    let pattern = instr.pattern.unwrap_or(AccessPattern::Coalesced { n_lines: 1 });
                    let mut lines = std::mem::take(&mut self.lines_buf);
                    self.gen_lines_into(w, ctx_pc, iter, pattern, &mut lines);
                    for &line in &lines {
                        let _ = self.l1.access(line, true); // write-through
                        mem.submit(
                            now,
                            MemRequest {
                                sm: self.id,
                                warp: w,
                                line_addr: line,
                                kind: ReqKind::Store,
                                instr_token: u64::MAX,
                            },
                        );
                    }
                    self.lines_buf = lines;
                } else {
                    stats.shared_accesses += 1;
                }
                self.set_pc(w, ctx_pc + 1);
            }
            Opcode::Atom => {
                stats.issued_lsu += 1;
                stats.atomics += 1;
                let ii = self.unit_issue_interval(ExecUnit::Lsu);
                self.lsu.free_at = now + ii;
                self.lsu.idle_cycles = 0;
                let pattern = instr.pattern.unwrap_or(AccessPattern::Random { n_lines: 4 });
                let mut lines = std::mem::take(&mut self.lines_buf);
                self.gen_lines_into(w, ctx_pc, iter, pattern, &mut lines);
                if let Some(d) = instr.dst {
                    let bit = 1u32 << (d.0 as u32 % 32);
                    self.warps[w].pending |= bit;
                    let token = self.outstanding.insert((w, bit, lines.len() as u32));
                    self.warps[w].inflight_mem_instrs += 1;
                    for &line in &lines {
                        mem.submit(
                            now,
                            MemRequest {
                                sm: self.id,
                                warp: w,
                                line_addr: line,
                                kind: ReqKind::Atomic,
                                instr_token: token,
                            },
                        );
                    }
                }
                self.set_pc(w, ctx_pc + 1);
                self.lines_buf = lines;
            }
            Opcode::Bar => {
                stats.issued_ctrl += 1;
                self.warps[w].at_barrier = true;
                self.barrier_waiting += 1;
                // pc advances on barrier release.
            }
            Opcode::Exit => {
                stats.issued_ctrl += 1;
                let ctx = &mut self.warps[w];
                ctx.iters_left = ctx.iters_left.saturating_sub(1);
                if ctx.iters_left == 0 {
                    // Batch retired: grab the next one from the grid pool.
                    if pool.try_take() {
                        ctx.iters_left = 1;
                        self.set_pc(w, 0);
                    } else {
                        ctx.done = true;
                        self.live_warps -= 1;
                        let bit = !(1u128 << w);
                        self.live_mask &= bit;
                        self.ready_mask &= bit;
                    }
                } else {
                    self.set_pc(w, 0);
                }
            }
        }
        if unit != ExecUnit::None {
            self.preferred_unit = unit;
            self.stats.instructions += 1;
        }
        IssueOutcome::Issued
    }

    /// Advances the SM one GPU cycle, drawing new batches from `pool` as
    /// warps retire theirs.
    pub fn tick(&mut self, now: u64, mem: &mut MemorySystem, pool: &mut WorkPool) -> SmCycleStats {
        let mut stats = SmCycleStats {
            live_warps: self.live_warps as u8,
            ..SmCycleStats::default()
        };

        // DFS clock masking and whole-SM gating.
        if self.control.sm_gated {
            return stats;
        }
        self.freq_acc += self.control.freq_scale.clamp(0.0, 1.0);
        if self.freq_acc < 1.0 {
            return stats;
        }
        self.freq_acc -= 1.0;
        stats.active = true;
        self.stats.active_cycles += 1;
        self.active_cycle += 1;

        // Retire completed writebacks.
        while let Some(Reverse((at, w, bit))) = self.writebacks.peek().copied() {
            if at > now {
                break;
            }
            self.writebacks.pop();
            self.warps[w].pending &= !bit;
            self.mark_maybe_ready(w);
        }

        self.resolve_barriers();

        // Issue-width window (the DIWS issue adjuster).
        if self.active_cycle % ISSUE_WINDOW == 1 {
            self.grants_left = (self.control.issue_width.clamp(0.0, 2.0)
                * ISSUE_WINDOW as f64)
                .round() as u32;
        }

        // Scheduler: candidate ordering and issue.
        let n = self.warps.len();
        let mut issued = 0u32;
        match self.scheduler {
            SchedulerKind::Gto => {
                // Greedy warp first, then the rest in ascending index order.
                // The candidate sequence is walked through the maybe-ready
                // mask (cleared bits are warps proven blocked, which a full
                // scan would skip without side effects), so the schedule is
                // identical to materializing the full order each cycle. The
                // greedy pointer is snapshotted so mid-loop updates do not
                // reshuffle candidates.
                let greedy = self.greedy;
                let mut cand = self.ready_mask;
                let mut greedy_pending = cand & (1u128 << greedy) != 0;
                cand &= !(1u128 << greedy);
                while issued < 2 && self.grants_left > 0 {
                    let w = if greedy_pending {
                        greedy_pending = false;
                        greedy
                    } else if cand != 0 {
                        let w = cand.trailing_zeros() as usize;
                        cand &= cand - 1;
                        w
                    } else {
                        break;
                    };
                    if self.warps[w].done {
                        self.ready_mask &= !(1u128 << w);
                        continue;
                    }
                    match self.try_issue(w, now, mem, pool, &mut stats) {
                        IssueOutcome::Issued => {
                            issued += 1;
                            self.grants_left -= 1;
                            self.greedy = w;
                        }
                        IssueOutcome::NotReady => self.ready_mask &= !(1u128 << w),
                        IssueOutcome::PortBlocked(u) => cand &= !self.unit_warps[u as usize],
                    }
                }
            }
            SchedulerKind::TwoLevelGates => {
                // Two-level scheduling (Warped Gates' GATES): only a small
                // active set of warps competes for issue; warps that block
                // on memory or barriers are swapped out for ready pending
                // warps. The narrower instruction window naturally clusters
                // execution-unit usage, lengthening the idle windows the
                // gating logic needs, without convoying the whole SM.
                if self.active_mask & !self.live_mask != 0 {
                    // An active warp has retired: drop it from the set.
                    let live = self.live_mask;
                    self.active_set.retain(|&w| live & (1u128 << w) != 0);
                    self.active_mask &= live;
                }
                // Swap blocked active warps for ready inactive ones.
                for slot in 0..self.active_set.len() {
                    let w = self.active_set[slot];
                    if !self.warp_ready_lazy(w) {
                        if let Some(repl) = self.find_ready_inactive() {
                            self.active_set[slot] = repl;
                            self.active_mask &= !(1u128 << w);
                            self.active_mask |= 1u128 << repl;
                        }
                    }
                }
                // Refill after retirements.
                while self.active_set.len() < ACTIVE_SET_SIZE {
                    match self.find_any_inactive() {
                        Some(w) => {
                            self.active_set.push(w);
                            self.active_mask |= 1u128 << w;
                        }
                        None => break,
                    }
                }
                let mut order = std::mem::take(&mut self.order);
                order.clear();
                if let Some(pos) = self.active_set.iter().position(|&w| w == self.greedy) {
                    order.push(self.active_set[pos]);
                }
                order.extend(self.active_set.iter().copied().filter(|&w| w != self.greedy));
                // Warps bound for a unit whose port was found blocked.
                let mut blocked = 0u128;
                for &w in &order {
                    if issued >= 2 || self.grants_left == 0 {
                        break;
                    }
                    if w >= n || self.warps[w].done || blocked & (1u128 << w) != 0 {
                        continue;
                    }
                    match self.try_issue(w, now, mem, pool, &mut stats) {
                        IssueOutcome::Issued => {
                            issued += 1;
                            self.grants_left -= 1;
                            self.greedy = w;
                        }
                        IssueOutcome::PortBlocked(u) => blocked |= self.unit_warps[u as usize],
                        IssueOutcome::NotReady => {}
                    }
                }
                self.order = order;
            }
        }

        // Fake-instruction injection into issue slack (FII).
        self.fake_acc += self.control.fake_rate.clamp(0.0, 2.0);
        while self.fake_acc >= 1.0 && issued < 2 && self.sp.free_at <= now {
            self.fake_acc -= 1.0;
            issued += 1;
            stats.issued_fake += 1;
            self.stats.fake_instructions += 1;
            self.sp.free_at = now + self.unit_issue_interval(ExecUnit::Sp);
            self.sp.idle_cycles = 0;
        }
        self.fake_acc = self.fake_acc.min(4.0);

        // Execution-unit idle tracking and power gating.
        for unit in [ExecUnit::Sp, ExecUnit::Sfu, ExecUnit::Lsu] {
            let gating = self.control.unit_gating;
            let idle_detect = self.control.gating_idle_detect.max(1);
            let u = self.unit_mut(unit);
            if u.free_at <= now {
                u.idle_cycles = u.idle_cycles.saturating_add(1);
            }
            if gating && !u.gated && u.idle_cycles > idle_detect {
                u.gated = true;
            }
            if !gating {
                u.gated = false;
                u.wake_at = 0;
            }
        }
        stats.sp_gated = self.sp.gated;
        stats.sfu_gated = self.sfu.gated;
        stats.lsu_gated = self.lsu.gated;

        stats
    }
}

/// The first set bit of `mask` at or above `from`, else its lowest set bit:
/// the next warp of a round-robin walk over `mask` that starts at `from`.
fn next_round_robin(mask: u128, from: usize) -> Option<usize> {
    if mask == 0 {
        return None;
    }
    let upper = mask & (u128::MAX << from);
    let w = if upper != 0 { upper } else { mask }.trailing_zeros();
    Some(w as usize)
}

/// Working-set size (in cache lines) for a kernel, derived from its access
/// character: graph-like random access sweeps a large footprint, coalesced
/// streaming kernels reuse a compact one.
fn kernel_working_set(kernel: &Kernel) -> u64 {
    let has_random = kernel.body.iter().any(|i| {
        matches!(
            i.pattern,
            Some(AccessPattern::Random { .. })
        )
    });
    let max_lines = kernel
        .body
        .iter()
        .filter_map(|i| i.pattern.map(|p| p.transactions()))
        .max()
        .unwrap_or(1);
    if has_random {
        1 << 17 // 16 MiB: thrashes L2
    } else if max_lines <= 2 {
        1 << 12 // 512 KiB: partial L2 reuse
    } else {
        1 << 15 // 4 MiB
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{benchmark, build_kernel};

    /// A per-SM pool share for single-SM tests: 8 warps x 4 iterations.
    fn test_pool() -> WorkPool {
        WorkPool::new(8 * 4)
    }

    fn small_kernel() -> Kernel {
        let cfg = GpuConfig::default();
        let mut k = build_kernel(&benchmark("heartwall").unwrap(), &cfg, 1);
        k.warps_per_sm = 8;
        k.iterations = 4;
        k.sm_iteration_scale = vec![1.0; cfg.n_sms];
        k
    }

    fn run_to_completion(sm: &mut Sm, mem: &mut MemorySystem, limit: u64) -> u64 {
        let mut pool = test_pool();
        let mut now = 0;
        while !sm.done() && now < limit {
            sm.tick(now, mem, &mut pool);
            for r in mem.tick(now) {
                if r.sm == sm.id() {
                    sm.on_response(&r);
                }
            }
            now += 1;
        }
        now
    }

    #[test]
    fn kernel_runs_to_completion() {
        let cfg = GpuConfig::default();
        let k = small_kernel();
        let mut sm = Sm::new(0, &cfg, &k, SchedulerKind::Gto);
        let mut mem = MemorySystem::new(&cfg);
        let cycles = run_to_completion(&mut sm, &mut mem, 2_000_000);
        assert!(sm.done(), "did not finish in {cycles} cycles");
        assert!(sm.stats().instructions > 0);
    }

    #[test]
    fn issue_rate_in_papers_range() {
        // The paper reports 0.8-1.8 warps/cycle average issue rates.
        let cfg = GpuConfig::default();
        for name in ["heartwall", "blackscholes", "hotspot"] {
            let k = build_kernel(&benchmark(name).unwrap(), &cfg, 1);
            let mut sm = Sm::new(0, &cfg, &k, SchedulerKind::Gto);
            let mut mem = MemorySystem::new(&cfg);
            run_to_completion(&mut sm, &mut mem, 5_000_000);
            assert!(sm.done(), "{name} did not finish");
            let ipc = sm.stats().ipc();
            assert!(
                (0.4..=2.0).contains(&ipc),
                "{name}: issue rate {ipc} out of plausible range"
            );
        }
    }

    #[test]
    fn diws_throttling_slows_execution() {
        let cfg = GpuConfig::default();
        let k = small_kernel();
        let mut mem1 = MemorySystem::new(&cfg);
        let mut full = Sm::new(0, &cfg, &k, SchedulerKind::Gto);
        let t_full = run_to_completion(&mut full, &mut mem1, 2_000_000);

        let mut mem2 = MemorySystem::new(&cfg);
        let mut half = Sm::new(0, &cfg, &k, SchedulerKind::Gto);
        half.set_control(SmControl {
            issue_width: 0.5,
            ..SmControl::default()
        });
        let t_half = run_to_completion(&mut half, &mut mem2, 4_000_000);
        assert!(half.done());
        assert!(
            t_half > t_full,
            "issue throttling must slow execution: {t_full} vs {t_half}"
        );
    }

    #[test]
    fn diws_penalty_is_sublinear_for_stall_heavy_code() {
        // With stalls, reducing peak issue width costs less than its
        // proportional share (the paper's key DIWS observation).
        let cfg = GpuConfig::default();
        let k = build_kernel(&benchmark("bfs").unwrap(), &cfg, 1);
        let mut mem1 = MemorySystem::new(&cfg);
        let mut full = Sm::new(0, &cfg, &k, SchedulerKind::Gto);
        let t_full = run_to_completion(&mut full, &mut mem1, 20_000_000) as f64;

        let mut mem2 = MemorySystem::new(&cfg);
        let mut threequarters = Sm::new(0, &cfg, &k, SchedulerKind::Gto);
        threequarters.set_control(SmControl {
            issue_width: 1.5,
            ..SmControl::default()
        });
        let t_tq = run_to_completion(&mut threequarters, &mut mem2, 20_000_000) as f64;
        assert!(threequarters.done());
        // 25% issue reduction must cost far less than 25% time.
        assert!(
            t_tq / t_full < 1.20,
            "penalty {:.3} too high for memory-bound code",
            t_tq / t_full - 1.0
        );
    }

    #[test]
    fn fake_injection_counts_but_does_not_block_completion() {
        let cfg = GpuConfig::default();
        let k = small_kernel();
        let mut mem = MemorySystem::new(&cfg);
        let mut sm = Sm::new(0, &cfg, &k, SchedulerKind::Gto);
        sm.set_control(SmControl {
            fake_rate: 1.0,
            ..SmControl::default()
        });
        run_to_completion(&mut sm, &mut mem, 4_000_000);
        assert!(sm.done());
        assert!(sm.stats().fake_instructions > 0);
    }

    #[test]
    fn freq_scaling_halves_active_cycles() {
        let cfg = GpuConfig::default();
        let k = small_kernel();
        let mut mem = MemorySystem::new(&cfg);
        let mut sm = Sm::new(0, &cfg, &k, SchedulerKind::Gto);
        sm.set_control(SmControl {
            freq_scale: 0.5,
            ..SmControl::default()
        });
        let mut pool = test_pool();
        let mut active = 0u64;
        for now in 0..10_000 {
            if sm.tick(now, &mut mem, &mut pool).active {
                active += 1;
            }
            for r in mem.tick(now) {
                sm.on_response(&r);
            }
        }
        assert!((4_900..=5_100).contains(&active), "active {active}");
    }

    #[test]
    fn sm_gating_freezes_execution() {
        let cfg = GpuConfig::default();
        let k = small_kernel();
        let mut mem = MemorySystem::new(&cfg);
        let mut sm = Sm::new(0, &cfg, &k, SchedulerKind::Gto);
        sm.set_control(SmControl {
            sm_gated: true,
            ..SmControl::default()
        });
        let mut pool = test_pool();
        for now in 0..1_000 {
            let s = sm.tick(now, &mut mem, &mut pool);
            assert!(!s.active);
        }
        assert_eq!(sm.stats().instructions, 0);
    }

    #[test]
    fn unit_gating_engages_on_idle_units() {
        let cfg = GpuConfig::default();
        // heartwall barely uses the SFU; with gating on, the SFU should be
        // gated most of the time.
        let k = small_kernel();
        let mut mem = MemorySystem::new(&cfg);
        let mut sm = Sm::new(0, &cfg, &k, SchedulerKind::TwoLevelGates);
        sm.set_control(SmControl {
            unit_gating: true,
            ..SmControl::default()
        });
        let mut pool = test_pool();
        let mut gated_cycles = 0u64;
        let mut active_cycles = 0u64;
        let mut now = 0;
        while !sm.done() && now < 2_000_000 {
            let s = sm.tick(now, &mut mem, &mut pool);
            if s.active {
                active_cycles += 1;
                if s.sfu_gated {
                    gated_cycles += 1;
                }
            }
            for r in mem.tick(now) {
                sm.on_response(&r);
            }
            now += 1;
        }
        assert!(sm.done());
        assert!(
            gated_cycles as f64 > 0.3 * active_cycles as f64,
            "SFU gated only {gated_cycles}/{active_cycles} cycles"
        );
    }

    #[test]
    fn round_robin_walk_wraps_past_the_highest_warp() {
        let mask = (1u128 << 3) | (1u128 << 9) | (1u128 << 127);
        assert_eq!(next_round_robin(mask, 0), Some(3));
        assert_eq!(next_round_robin(mask, 3), Some(3));
        assert_eq!(next_round_robin(mask, 4), Some(9));
        assert_eq!(next_round_robin(mask, 10), Some(127));
        assert_eq!(next_round_robin(mask & !(1u128 << 127), 10), Some(3));
        assert_eq!(next_round_robin(0, 5), None);
    }

    #[test]
    fn barrier_synchronizes_cta() {
        let cfg = GpuConfig::default();
        let k = build_kernel(&benchmark("hotspot").unwrap(), &cfg, 3);
        let mut sm = Sm::new(0, &cfg, &k, SchedulerKind::Gto);
        let mut mem = MemorySystem::new(&cfg);
        let cycles = run_to_completion(&mut sm, &mut mem, 20_000_000);
        assert!(sm.done(), "barrier kernel deadlocked after {cycles} cycles");
    }
}
