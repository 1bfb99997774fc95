//! The two replay columns and the loop that drives an op stream through
//! them: the defended layer (`MineSweeper` or an `ArenaPool`) and plain
//! jalloc, each over fresh `AddrSpace`s.

use std::time::Instant;

use jalloc::{JAlloc, JallocConfig};
use minesweeper::{Arena, ArenaId, ArenaPool, FreeOutcome, MineSweeper, MsConfig};
use vmem::{Addr, AddrSpace};
use workloads::Op;

use crate::calib::{Calibrator, WINDOW_OPS};
use crate::mutator::Mutator;
use crate::spans::{Name, Spans};

/// Mark words a single-arena sweep advances per mutator op.
pub const STEP_WORDS: u64 = 2048;

/// Ops between RSS samples; the allocators' decay purge runs at the same
/// cadence.
const SAMPLE_OPS: u64 = 1024;

/// Host time of the sweep rounds one replay ran, scaled to the reference
/// host ([`crate::calib`]) once the replay ends.
#[derive(Debug, Default)]
pub struct RoundLog {
    /// Whole rounds: summed start + steps + finish of one single-arena
    /// sweep, or one non-empty `sweep_round` call.
    pub rounds_ns: Vec<u64>,
    /// The in-flight round's time so far.
    pending_ns: u64,
    /// Pooled mark wall time (`RoundReport.mark_wall_ns`), summed.
    pub mark_wall_ns: u64,
    /// Arenas swept, summed over rounds.
    pub arenas_swept: u64,
    /// Effective helpers of the last pooled round.
    pub helpers: usize,
}

impl RoundLog {
    /// Adds host time to the in-flight round.
    pub fn add(&mut self, ns: u64) {
        self.pending_ns += ns;
    }

    /// The in-flight round is complete.
    pub fn complete(&mut self) {
        self.rounds_ns.push(std::mem::take(&mut self.pending_ns));
    }

    /// Scales every completed round's time by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for ns in &mut self.rounds_ns {
            *ns = (*ns as f64 * factor) as u64;
        }
    }
}

/// One allocator column over one or more address spaces (one per arena).
pub trait Column {
    fn space(&mut self, k: usize) -> &mut AddrSpace;
    fn malloc(&mut self, k: usize, size: u64, spans: &mut Spans) -> Addr;
    /// Frees `addr`; `false` when the free did not take the expected path
    /// (not quarantined, or refused by the allocator).
    fn free(&mut self, k: usize, addr: Addr, site: u32, spans: &mut Spans) -> bool;
    /// Sweep control after an op on arena `k`.
    fn after_op(&mut self, _k: usize, _teardown: bool, _spans: &mut Spans, _log: &mut RoundLog) {}
    /// Advances the allocators' clocks and runs their decay purge.
    fn tick(&mut self, now: u64, spans: &mut Spans);
    /// Lands a sweep still in flight when the stream ends.
    fn drain(&mut self, _spans: &mut Spans, _log: &mut RoundLog) {}
    /// Simulated RSS over every space.
    fn rss(&self) -> u64;
}

/// The defended single-arena column: sweeps are stepped on the replay
/// thread between mutator ops.
#[derive(Debug)]
pub struct Defended {
    pub ms: MineSweeper,
    pub space: AddrSpace,
}

impl Defended {
    pub fn new(decay_cycles: u64) -> Self {
        let jcfg = JallocConfig {
            decay_cycles,
            ..JallocConfig::minesweeper()
        };
        Defended {
            ms: MineSweeper::with_heap_config(MsConfig::fully_concurrent(), jcfg),
            space: AddrSpace::new(),
        }
    }

    fn step(&mut self, spans: &mut Spans, log: &mut RoundLog) -> bool {
        let (r, ns) = spans.timed(Name::CoreStep, || {
            self.ms.sweep_step(&mut self.space, STEP_WORDS)
        });
        log.add(ns);
        if r.finished {
            let (_, ns) = spans.timed(Name::CoreFinish, || self.ms.finish_sweep(&mut self.space));
            log.add(ns);
            log.complete();
        }
        r.finished
    }
}

impl Column for Defended {
    fn space(&mut self, _k: usize) -> &mut AddrSpace {
        &mut self.space
    }

    fn malloc(&mut self, _k: usize, size: u64, spans: &mut Spans) -> Addr {
        spans.span(Name::CoreMalloc, || self.ms.malloc(&mut self.space, size))
    }

    fn free(&mut self, _k: usize, addr: Addr, site: u32, spans: &mut Spans) -> bool {
        let outcome = spans.span(Name::CoreFree, || {
            self.ms.free_sited(&mut self.space, addr, site)
        });
        outcome == FreeOutcome::Quarantined
    }

    fn after_op(&mut self, _k: usize, teardown: bool, spans: &mut Spans, log: &mut RoundLog) {
        if self.ms.in_sweep() {
            self.step(spans, log);
        } else if !teardown && spans.span(Name::CoreNeeded, || self.ms.sweep_needed(&self.space)) {
            let (_, ns) = spans.timed(Name::CoreStart, || self.ms.start_sweep(&mut self.space));
            log.add(ns);
        }
    }

    fn tick(&mut self, now: u64, spans: &mut Spans) {
        self.ms.advance_clock(now);
        spans.span(Name::CorePurge, || self.ms.decay_purge(&mut self.space));
    }

    fn drain(&mut self, spans: &mut Spans, log: &mut RoundLog) {
        while self.ms.in_sweep() && !self.step(spans, log) {}
    }

    fn rss(&self) -> u64 {
        self.space.rss_bytes()
    }
}

/// The multi-tenant defended column: one arena per program, swept
/// through the pool's scheduler whenever the arena just used is due.
#[derive(Debug)]
pub struct Tenants {
    pub pool: ArenaPool,
}

impl Tenants {
    pub fn new(arenas: usize, decay_cycles: u64, helpers: usize) -> Self {
        let jcfg = JallocConfig {
            decay_cycles,
            ..JallocConfig::minesweeper()
        };
        let arenas = (0..arenas as u32)
            .map(|i| {
                Arena::with_backend(
                    ArenaId::new(i),
                    MsConfig::fully_concurrent(),
                    JAlloc::with_config(jcfg),
                )
            })
            .collect();
        let mut pool = ArenaPool::from_arenas(arenas);
        pool.set_helpers(helpers);
        Tenants { pool }
    }
}

impl Column for Tenants {
    fn space(&mut self, k: usize) -> &mut AddrSpace {
        self.pool.arena_mut(k).space_mut()
    }

    fn malloc(&mut self, k: usize, size: u64, spans: &mut Spans) -> Addr {
        let arena = self.pool.arena_mut(k);
        spans.span(Name::CoreMalloc, || arena.malloc(size))
    }

    fn free(&mut self, k: usize, addr: Addr, site: u32, spans: &mut Spans) -> bool {
        let arena = self.pool.arena_mut(k);
        spans.span(Name::CoreFree, || arena.free_sited(addr, site)) == FreeOutcome::Quarantined
    }

    fn after_op(&mut self, k: usize, teardown: bool, spans: &mut Spans, log: &mut RoundLog) {
        let arena = self.pool.arena(k);
        if teardown || !spans.span(Name::CoreNeeded, || arena.sweep_needed()) {
            return;
        }
        let (report, ns) = spans.timed(Name::ArenaRound, || self.pool.sweep_round());
        assert!(!report.swept.is_empty(), "a due arena is always scheduled");
        log.add(ns);
        log.complete();
        log.mark_wall_ns += report.mark_wall_ns;
        log.arenas_swept += report.swept.len() as u64;
        log.helpers = report.effective_helpers;
    }

    fn tick(&mut self, now: u64, spans: &mut Spans) {
        for k in 0..self.pool.len() {
            let (ms, space) = self.pool.arena_mut(k).split_mut();
            ms.advance_clock(now);
            spans.span(Name::CorePurge, || ms.decay_purge(space));
        }
    }

    fn rss(&self) -> u64 {
        self.pool.iter().map(|a| a.space().rss_bytes()).sum()
    }
}

/// Plain jalloc, one heap and space per program.
#[derive(Debug)]
pub struct Plain {
    pub heaps: Vec<(JAlloc, AddrSpace)>,
}

impl Plain {
    pub fn new(programs: usize, decay_cycles: u64) -> Self {
        let jcfg = JallocConfig {
            decay_cycles,
            ..JallocConfig::stock()
        };
        Plain {
            heaps: (0..programs)
                .map(|_| (JAlloc::with_config(jcfg), AddrSpace::new()))
                .collect(),
        }
    }
}

impl Column for Plain {
    fn space(&mut self, k: usize) -> &mut AddrSpace {
        &mut self.heaps[k].1
    }

    fn malloc(&mut self, k: usize, size: u64, spans: &mut Spans) -> Addr {
        let (heap, space) = &mut self.heaps[k];
        spans.span(Name::JallocMalloc, || heap.malloc(space, size))
    }

    fn free(&mut self, k: usize, addr: Addr, _site: u32, spans: &mut Spans) -> bool {
        let (heap, space) = &mut self.heaps[k];
        spans
            .span(Name::JallocFree, || heap.free(space, addr))
            .is_ok()
    }

    fn tick(&mut self, now: u64, spans: &mut Spans) {
        for (heap, space) in &mut self.heaps {
            heap.advance_clock(now);
            spans.span(Name::JallocPurge, || heap.purge_aged(space));
        }
    }

    fn rss(&self) -> u64 {
        self.heaps.iter().map(|(_, s)| s.rss_bytes()).sum()
    }
}

/// What one column's replay did.
#[derive(Debug, Default)]
pub struct Pass {
    pub mallocs: u64,
    pub frees: u64,
    /// Frees that did not take the expected path.
    pub bad_frees: u64,
    /// Host time of the replay, calibration pauses excluded.
    pub raw_ns: u64,
    /// Host time of each window of [`WINDOW_OPS`] ops, scaled to the
    /// reference host. Replays are deterministic, so window `k` holds the
    /// same work in every iteration.
    pub windows_ns: Vec<f64>,
    pub peak_rss: u64,
    /// Mean of the RSS samples, in bytes.
    pub avg_rss: f64,
    /// Oracle: slots still pointing into reallocated memory.
    pub reuses: u64,
    /// Oracle: recorded ranges evaluated.
    pub checks: u64,
    pub stores: u64,
    pub log: RoundLog,
}

impl Pass {
    /// Allocator calls per second of replay on the reference host.
    pub fn ops_per_s(&self) -> f64 {
        self.ops() / (self.windows_ns.iter().sum::<f64>().max(1.0) / 1e9)
    }

    pub fn ops(&self) -> f64 {
        (self.mallocs + self.frees) as f64
    }

    /// Allocator calls per host second of replay, unscaled.
    pub fn raw_ops_per_s(&self) -> f64 {
        self.ops() / (self.raw_ns.max(1) as f64 / 1e9)
    }

    /// Scales the windows and rounds by `factor` once the replay is done.
    pub fn scale(&mut self, factor: f64) {
        self.raw_ns = self.windows_ns.iter().sum::<f64>() as u64;
        for w in &mut self.windows_ns {
            *w *= factor;
        }
        self.log.scale(factor);
    }
}

/// Replays `steps` (`(program, op)` pairs) through `col`, with one
/// mutator per program, timing each window of [`WINDOW_OPS`] ops. With a
/// calibrator, the replay pauses after every window to run the reference
/// kernel, and its host time is scaled by the kernel runs around and
/// within it; without one (traced replays) time is reported raw.
pub fn replay<C: Column>(
    col: &mut C,
    steps: &[(u8, Op)],
    muts: &mut [Mutator],
    spans: &mut Spans,
    mut calib: Option<&mut Calibrator>,
) -> Pass {
    let mut pass = Pass::default();
    let mut teardown = vec![false; muts.len()];
    let (mut now, mut ops, mut rss_sum, mut samples) = (0u64, 0u64, 0f64, 0u64);
    let first_run = calib.as_deref_mut().map(Calibrator::sample);
    let mut window = Instant::now();
    spans.begin(Name::Replay);
    for &(k, op) in steps {
        let k = usize::from(k);
        match op {
            Op::Work(cycles) => {
                now += cycles;
                continue;
            }
            Op::Teardown => {
                teardown[k] = true;
                continue;
            }
            Op::Alloc { id, size, site } => {
                let base = col.malloc(k, size, spans);
                muts[k].on_alloc(col.space(k), spans, id, size, site, base);
                pass.mallocs += 1;
            }
            Op::Free { id } => {
                let (base, site) = muts[k].on_free(col.space(k), spans, id);
                if !col.free(k, base, site, spans) {
                    pass.bad_frees += 1;
                }
                pass.frees += 1;
            }
        }
        col.after_op(k, teardown[k], spans, &mut pass.log);
        ops += 1;
        if ops.is_multiple_of(SAMPLE_OPS) {
            col.tick(now, spans);
            let rss = col.rss();
            pass.peak_rss = pass.peak_rss.max(rss);
            rss_sum += rss as f64;
            samples += 1;
        }
        if ops.is_multiple_of(WINDOW_OPS) {
            pass.windows_ns.push(window.elapsed().as_nanos() as f64);
            if let Some(c) = calib.as_deref_mut() {
                c.sample();
            }
            window = Instant::now();
        }
    }
    col.drain(spans, &mut pass.log);
    spans.end();
    pass.windows_ns.push(window.elapsed().as_nanos() as f64);
    let factor = match (calib, first_run) {
        (Some(c), Some(first)) => {
            c.sample();
            c.factor_since(first)
        }
        _ => 1.0,
    };
    pass.scale(factor);
    pass.avg_rss = rss_sum / samples.max(1) as f64;
    for m in muts.iter() {
        pass.reuses += m.oracle.reuses;
        pass.checks += m.oracle.checks;
        pass.stores += m.stores;
    }
    pass
}
