//! The discrete-event mutator engine.
//!
//! Replays a workload trace against a system under test, maintaining a
//! real pointer graph in simulated memory (so sweeps and GCs find real
//! dangling pointers), charging cycle costs, and interleaving concurrent
//! sweep progress with mutator progress in virtual time.

use std::collections::HashMap;

use baselines::{
    CrCount, CrFreeOutcome, DangSan, DsFreeOutcome, FfConfig, FfMalloc, MarkUs,
    MarkUsFreeOutcome, Oscar, PSweeper, PsFreeOutcome,
};
use jalloc::{JAlloc, JallocConfig};
use minesweeper::{FreeOutcome, HeapBackend, MineSweeper, LAYER_SUBSYSTEM};
use scudo::Scudo;
use telemetry::{
    CostKind, CostRecorder, Histogram, Registry, Sink, SloPolicy, Watchdog,
};
use vmem::{Addr, AddrSpace, Segment, PAGE_SIZE, WORD_SIZE};
use workloads::{Op, Profile, Rng, TraceGen};

use crate::cost::CostModel;
use crate::metrics::RunMetrics;
use crate::system::System;

/// A live object as the engine tracks it.
#[derive(Clone, Debug)]
struct Obj {
    base: Addr,
    /// Requested size (what the program may write).
    req: u64,
    /// Allocation-site id from the trace (0 = unknown). Forwarded into
    /// the quarantine so forensics can attribute failed frees.
    site: u32,
    /// Outgoing pointer slots: (byte offset, target id).
    out: Vec<(u64, u64)>,
}

/// A memory slot holding a pointer to some object.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Slot {
    /// Root slot index on the stack.
    Root(u32),
    /// Offset within a live object.
    InObj {
        /// Holder object id.
        id: u64,
        /// Byte offset of the slot.
        off: u64,
    },
}

/// The system under test, instantiated. The baseline variant is unboxed
/// intentionally: it is the hot path and `JAlloc` is a few hundred bytes.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum Sys {
    Base(JAlloc),
    Ms(Box<MineSweeper>),
    Mu(Box<MarkUs>),
    Ff(Box<FfMalloc>),
    ScudoBase(Box<Scudo>),
    MsScudo(Box<MineSweeper<Scudo>>),
    Cr(Box<CrCount>),
    Os(Box<Oscar>),
    Ps(Box<PSweeper>),
    Ds(Box<DangSan>),
}

/// Subsystem label the engine registers its instruments under, alongside
/// the layer's [`minesweeper::LAYER_SUBSYSTEM`] counters in the same
/// registry.
pub const ENGINE_SUBSYSTEM: &str = "engine";

/// Engine-side telemetry: virtual-cycle histograms registered on the
/// layer's shared registry, so one snapshot covers both the allocator
/// layer's counters and the engine's timing distributions.
#[derive(Debug)]
struct EngineTelem {
    /// Cycles the mutator spent blocked per allocation pause / sequential
    /// sweep (the paper's §5.7 pause valve).
    pause_cycles: Histogram,
    /// Stop-the-world re-check cycles charged to the mutator, per sweep.
    stw_cycles: Histogram,
    /// Virtual duration of each completed sweep, start to finish.
    sweep_cycles: Histogram,
    /// `now` at which the in-flight sweep started.
    sweep_start: u64,
}

impl EngineTelem {
    fn register(registry: &Registry) -> Self {
        EngineTelem {
            pause_cycles: registry.histogram(ENGINE_SUBSYSTEM, "pause_cycles"),
            stw_cycles: registry.histogram(ENGINE_SUBSYSTEM, "stw_cycles"),
            sweep_cycles: registry.histogram(ENGINE_SUBSYSTEM, "sweep_cycles"),
            sweep_start: 0,
        }
    }

    /// Stamps the run's helper-thread demand vs. supply and the active
    /// scan-kernel tier into the registry, so a trace from a degraded run
    /// (1 spare core, SWAR fallback) is distinguishable from a genuinely
    /// parallel one without out-of-band context.
    fn stamp_environment(registry: &Registry, requested: u64, effective: u64) {
        registry.counter(ENGINE_SUBSYSTEM, "requested_helpers").add(requested);
        registry.counter(ENGINE_SUBSYSTEM, "effective_helpers").add(effective);
        let tier = minesweeper::simd::active_tier().as_str();
        registry.counter(ENGINE_SUBSYSTEM, &format!("scan_tier_{tier}")).inc();
    }
}

/// Replays one `(profile, system, seed)` run. See the
/// [crate docs](crate) and [`crate::run`].
#[derive(Debug)]
pub struct Engine {
    space: AddrSpace,
    sys: Sys,
    cost: CostModel,
    rng: Rng,
    profile: Profile,
    /// Mutator-visible virtual time.
    now: u64,
    background: u64,
    objects: HashMap<u64, Obj>,
    live_ids: Vec<u64>,
    live_pos: HashMap<u64, usize>,
    incoming: HashMap<u64, Vec<Slot>>,
    root_owner: Vec<Option<(u64, Addr)>>,
    freed_at: HashMap<u64, u64>,
    sweep_active: bool,
    teardown: bool,
    /// Next pSweeper background-sweep time (scaled "1 s" period).
    next_psweep: u64,
    psweep_period: u64,
    metrics: RunMetrics,
    sample_interval: u64,
    next_sample: u64,
    seed: u64,
    /// Present for MineSweeper-layered systems (they own the registry).
    telem: Option<EngineTelem>,
    /// Cost-attribution ledger ([`telemetry::CostRecorder`]) on the same
    /// registry; on by default for layered systems, purely observational
    /// (disabling it never changes verdicts, traces or virtual time).
    cost_rec: Option<CostRecorder>,
    /// Ledger total at the current sweep's start, for the per-generation
    /// `cost/per_sweep_cycles` attribution histogram.
    cost_sweep_start: u64,
    /// Pause-budget SLO objectives checked at finalize
    /// ([`Engine::set_slo_policy`]); breaches emit typed
    /// [`telemetry::EventKind::SloViolation`] trace events.
    slo: Option<SloPolicy>,
}

impl Engine {
    /// Builds an engine for `profile` under `system` with the given trace
    /// seed.
    pub fn new(profile: &Profile, system: System, seed: u64) -> Self {
        let cost = CostModel::desktop();
        // Scale the allocator's 10 s decay window to the (scaled-down)
        // run length so background purging fires a realistic number of
        // times per run.
        let run_cycles = profile.total_allocs.max(1) * profile.cycles_per_alloc.max(1);
        let decay = (run_cycles / 30).clamp(1_000_000, 500_000_000);
        let sys = match system {
            System::Baseline => Sys::Base(JAlloc::with_config(JallocConfig {
                decay_cycles: decay,
                ..JallocConfig::stock()
            })),
            System::MineSweeper(cfg) => {
                let jcfg = if cfg.purge_after_sweep {
                    JallocConfig { decay_cycles: decay, ..JallocConfig::minesweeper() }
                } else {
                    JallocConfig {
                        decay_cycles: decay,
                        end_padding: true,
                        ..JallocConfig::stock()
                    }
                };
                Sys::Ms(Box::new(MineSweeper::with_heap_config(cfg, jcfg)))
            }
            System::MarkUs(cfg) => Sys::Mu(Box::new(MarkUs::new(cfg))),
            System::FfMalloc => Sys::Ff(Box::new(FfMalloc::new(FfConfig::standard()))),
            System::ScudoBaseline => Sys::ScudoBase(Box::new(Scudo::new())),
            System::MineSweeperScudo(cfg) => {
                Sys::MsScudo(Box::new(MineSweeper::with_backend(cfg, Scudo::new())))
            }
            System::CrCount => Sys::Cr(Box::new(CrCount::new())),
            System::Oscar => Sys::Os(Box::new(Oscar::new())),
            System::PSweeper => Sys::Ps(Box::new(PSweeper::new())),
            System::DangSan => Sys::Ds(Box::new(DangSan::new())),
        };
        let registry = layer_registry(&sys);
        let telem = registry.map(EngineTelem::register);
        let cost_rec = registry.map(CostRecorder::new);
        if let Some(registry) = registry {
            let (requested, effective) = sweeper_clamp(&sys, &cost, profile);
            EngineTelem::stamp_environment(registry, requested, effective);
        }
        let sample_interval = (run_cycles / 256).max(10_000);
        let mut metrics = RunMetrics {
            benchmark: profile.name.to_string(),
            system: system.label().to_string(),
            ..RunMetrics::default()
        };
        metrics.rss_series.push((0, 0));
        Engine {
            space: AddrSpace::new(),
            sys,
            cost,
            rng: Rng::new(seed ^ 0x9aa9_0000),
            profile: profile.clone(),
            now: 0,
            background: 0,
            objects: HashMap::new(),
            live_ids: Vec::new(),
            live_pos: HashMap::new(),
            incoming: HashMap::new(),
            root_owner: vec![None; profile.root_slots as usize],
            freed_at: HashMap::new(),
            sweep_active: false,
            teardown: false,
            next_psweep: (run_cycles / 32).max(100_000),
            psweep_period: (run_cycles / 32).max(100_000),
            metrics,
            sample_interval,
            next_sample: sample_interval,
            seed,
            telem,
            cost_rec,
            cost_sweep_start: 0,
            slo: None,
        }
    }

    /// Turns the cost-attribution ledger on or off. It is on by default
    /// for layered systems; turning it off stops all `cost/*` counter
    /// traffic (the run is otherwise bit-identical — the ledger only
    /// observes charges, it never changes them). No-op for baselines.
    pub fn set_cost_ledger(&mut self, on: bool) {
        if !on {
            self.cost_rec = None;
        } else if self.cost_rec.is_none() {
            self.cost_rec = layer_registry(&self.sys).map(CostRecorder::new);
        }
    }

    /// Self-test leak injection: skip `kind`'s per-kind counter on every
    /// future charge (histogram and total still accumulate), so
    /// `ms-report --costs --check` must fail naming exactly that kind.
    pub fn set_cost_drop(&mut self, kind: CostKind) {
        if let Some(rec) = &mut self.cost_rec {
            rec.set_drop(Some(kind));
        }
    }

    fn record_cost(&mut self, kind: CostKind, cycles: u64, site: Option<u32>) {
        if let Some(rec) = &mut self.cost_rec {
            rec.charge(kind, cycles, site, None);
        }
    }

    /// Arms the SLO watchdog: at finalize the run's registry snapshot is
    /// evaluated against `policy` and every breached objective emits a
    /// typed [`telemetry::EventKind::SloViolation`] through the attached
    /// trace sink. No-op for systems without a registry (baselines).
    pub fn set_slo_policy(&mut self, policy: SloPolicy) {
        self.slo = Some(policy);
    }

    /// Attaches `sink` to the layered system's sweep tracer, so the run
    /// emits lifecycle events ([`telemetry::EventKind`]) stamped with the
    /// engine's virtual clock. With `deterministic` set, wall-clock
    /// durations in events are zeroed so identically seeded runs produce
    /// byte-identical traces.
    ///
    /// Returns `false` (and drops the sink) when the system under test has
    /// no tracer (baselines).
    pub fn set_trace_sink(&mut self, sink: Box<dyn Sink>, deterministic: bool) -> bool {
        let tracer = match &mut self.sys {
            Sys::Ms(ms) => ms.tracer_mut(),
            Sys::MsScudo(ms) => ms.tracer_mut(),
            _ => return false,
        };
        tracer.set_sink(sink);
        tracer.set_deterministic(deterministic);
        true
    }

    /// Runs the profile's generated trace to completion and returns the
    /// metrics.
    pub fn run(self) -> RunMetrics {
        let trace = TraceGen::new(&self.profile, self.seed);
        self.run_ops(trace)
    }

    /// Replays an explicit op stream (e.g. a recorded trace,
    /// [`workloads::recorded`]) instead of the generated one. The profile
    /// still supplies the pointer-graph knobs (density, dangling rate,
    /// roots) and the cost-model scaling.
    pub fn run_ops(mut self, ops: impl IntoIterator<Item = Op>) -> RunMetrics {
        for op in ops {
            match op {
                Op::Work(c) => {
                    // CRCount taxes pointer-write-heavy compute: the
                    // engine's pointer graph only covers initialisation
                    // stores, so the steady-state instrumented stores are
                    // charged proportionally to the profile's pointer
                    // density (§6.6's mcf/povray effect).
                    let tax = match self.sys {
                        Sys::Cr(_) => self.cost.crcount_work_tax,
                        Sys::Ds(_) => self.cost.dangsan_work_tax,
                        _ => 0.0,
                    };
                    let c = c + (c as f64 * tax * self.profile.ptr_density.min(1.0)) as u64;
                    self.charge_mutator(c)
                }
                Op::Alloc { id, size, site } => self.do_alloc(id, size, site),
                Op::Free { id } => self.do_free(id),
                Op::Teardown => self.teardown = true,
            }
            if !self.teardown {
                self.housekeep();
            }
        }
        self.finish_run()
    }

    fn finish_run(mut self) -> RunMetrics {
        // If a sweep is still in flight at exit, let it land (the process
        // would normally just exit; finishing keeps accounting closed).
        if self.sweep_active {
            self.fast_forward_sweep(false);
        }
        self.finalize()
    }

    // ---- time accounting -------------------------------------------------

    /// Effective concurrent sweeper threads: capped by spare cores.
    fn sweeper_threads(&self) -> u64 {
        sweeper_clamp(&self.sys, &self.cost, &self.profile).1
    }

    /// Contention factor on mutator work while sweepers are running.
    fn contention(&self) -> f64 {
        if !self.sweep_active {
            return 1.0;
        }
        let demand = self.profile.threads as u64 + self.sweeper_threads();
        if demand <= self.cost.cores as u64 {
            1.0
        } else {
            demand as f64 / self.cost.cores as f64
        }
    }

    /// Charges mutator-visible cycles and advances any concurrent sweep by
    /// the same wall time.
    fn charge_mutator(&mut self, cycles: u64) {
        let effective = (cycles as f64 * self.contention()) as u64;
        self.now += effective;
        if self.sweep_active {
            self.progress_sweep(effective);
        }
        self.sample();
    }

    /// Charges cycles to background threads.
    fn charge_background(&mut self, cycles: u64) {
        self.background += cycles;
    }

    fn sample(&mut self) {
        while self.now >= self.next_sample {
            let rss = self.space.rss_bytes() + self.metadata_bytes();
            self.metrics.peak_rss = self.metrics.peak_rss.max(rss);
            self.metrics.rss_series.push((self.next_sample, rss));
            self.next_sample += self.sample_interval;
            // Allocator decay purging rides the sample clock.
            match &mut self.sys {
                Sys::Base(heap) => {
                    heap.advance_clock(self.now);
                    heap.purge_aged(&mut self.space);
                }
                Sys::Ms(ms) => {
                    ms.advance_clock(self.now);
                    ms.decay_purge(&mut self.space);
                }
                Sys::Mu(mu) => mu.advance_clock(self.now),
                Sys::Ff(_) => {}
                Sys::ScudoBase(heap) => {
                    heap.advance_clock(self.now);
                    // Scudo releases free pages opportunistically.
                    heap.release_to_os(&mut self.space);
                }
                Sys::MsScudo(ms) => ms.advance_clock(self.now),
                Sys::Cr(cr) => {
                    cr.advance_clock(self.now);
                    cr.purge_aged(&mut self.space);
                }
                Sys::Os(_) => {}
                Sys::Ps(ps) => {
                    ps.advance_clock(self.now);
                    ps.purge_aged(&mut self.space);
                }
                Sys::Ds(ds) => {
                    ds.advance_clock(self.now);
                    ds.purge_aged(&mut self.space);
                }
            }
            // pSweeper's background thread wakes on its fixed period.
            if self.now >= self.next_psweep {
                self.next_psweep = self.now + self.psweep_period;
                if let Sys::Ps(ps) = &mut self.sys {
                    if !self.teardown {
                        let report = ps.sweep(&mut self.space);
                        let scan = report.slots_scanned * self.cost.psweeper_slot_scan
                            + report.released * self.cost.release_entry;
                        // Concurrent thread; a thin slice of interference
                        // reaches the mutator (nullification stores).
                        self.now += report.nullified * 20;
                        self.background += scan;
                        self.metrics.sweeps += 1;
                    }
                }
            }
        }
    }

    /// Mitigation metadata resident alongside the heap (quarantine lists,
    /// dedup sets; the shadow map is transient per sweep).
    fn metadata_bytes(&self) -> u64 {
        match &self.sys {
            Sys::Base(_) => 0,
            Sys::Ms(ms) => ms.quarantine().len() as u64 * 64,
            Sys::Mu(mu) => mu.quarantine_len() as u64 * 64,
            Sys::Ff(ff) => ff.live_allocations() as u64 * 48,
            Sys::ScudoBase(_) => 0,
            Sys::MsScudo(ms) => ms.quarantine().len() as u64 * 64,
            Sys::Cr(cr) => cr.pending() as u64 * 48,
            // Oscar's page tables only ever grow: one PTE per alias ever
            // created, plus the out-of-line object map.
            Sys::Os(os) => {
                os.stats().aliases_created * 8 + os.live_allocations() as u64 * 40
            }
            Sys::Ps(ps) => ps.tracked_ptrs() as u64 * 8 + ps.pending() as u64 * 16,
            Sys::Ds(ds) => ds.stats().log_bytes,
        }
    }

    // ---- allocation ------------------------------------------------------

    fn do_alloc(&mut self, id: u64, size: u64, site: u32) {
        self.metrics.allocs += 1;
        // Pause valve: an overloaded sweep blocks new allocations (§5.7).
        let pause = match &self.sys {
            Sys::Ms(ms) => ms.pause_needed(),
            Sys::MsScudo(ms) => ms.pause_needed(),
            _ => false,
        };
        if pause {
            self.fast_forward_sweep(true);
        }
        let cost = self.cost;
        let (base, alloc_cost) = match &mut self.sys {
            Sys::Base(heap) => {
                let s0 = *heap.stats();
                let base = heap.malloc(&mut self.space, size);
                (base, malloc_cost(&cost, &s0, heap.stats()))
            }
            Sys::Ms(ms) => {
                let s0 = *ms.heap().stats();
                let base = ms.malloc(&mut self.space, size);
                (base, malloc_cost(&cost, &s0, ms.heap().stats()))
            }
            Sys::Mu(mu) => {
                let s0 = *mu.heap().stats();
                let base = mu.malloc(&mut self.space, size);
                (base, malloc_cost(&cost, &s0, mu.heap().stats()) + cost.markus_malloc_extra)
            }
            Sys::Ff(ff) => {
                let base = ff.malloc(&mut self.space, size);
                (base, cost.ff_malloc)
            }
            Sys::ScudoBase(heap) => {
                let base = heap.allocate(&mut self.space, size);
                (base, cost.scudo_malloc)
            }
            Sys::MsScudo(ms) => {
                let base = ms.malloc(&mut self.space, size);
                (base, cost.scudo_malloc)
            }
            Sys::Cr(cr) => {
                let s0 = *cr.heap().stats();
                let base = cr.malloc(&mut self.space, size);
                (base, malloc_cost(&cost, &s0, cr.heap().stats()))
            }
            Sys::Os(os) => {
                let base = os.malloc(&mut self.space, size);
                (base, cost.oscar_malloc_syscall)
            }
            Sys::Ps(ps) => {
                let s0 = *ps.heap().stats();
                let base = ps.malloc(&mut self.space, size);
                (base, malloc_cost(&cost, &s0, ps.heap().stats()))
            }
            Sys::Ds(ds) => {
                let s0 = *ds.heap().stats();
                let base = ds.malloc(&mut self.space, size);
                (base, malloc_cost(&cost, &s0, ds.heap().stats()))
            }
        };
        // Delay-of-reuse cache penalty, scaled by how much the benchmark
        // depends on hot reuse. Three cases:
        //  * warm — the base was freed moments ago (tcache-style LIFO
        //    reuse): free.
        //  * stale reuse — recycled long after it went cold (quarantine's
        //    signature effect): full cold cost.
        //  * fresh — never recycled: cold, but bump cursors and fresh slab
        //    carves stream in address order, so the prefetcher discounts it
        //    (this is also why FFmalloc's always-fresh memory stays cheap).
        let sens = self.profile.cache_sensitivity;
        let cold_cost = match self.freed_at.remove(&base.raw()) {
            Some(t) if self.now.saturating_sub(t) < self.cost.warm_window => 0,
            Some(_) => (self.cost.cold_cost(size) as f64 * sens) as u64,
            None => (self.cost.cold_cost(size) as f64 * sens * self.cost.fresh_locality)
                as u64,
        };
        self.charge_mutator(alloc_cost + cold_cost);

        // Touch every page (commit; programs initialise their objects).
        let mut page = base.align_down(PAGE_SIZE as u64);
        if page < base {
            page = page.add_bytes(PAGE_SIZE as u64);
        }
        self.space.write_word(base, self.rng.next_u64() | 1).ok();
        while page < base.add_bytes(size) {
            if page > base {
                self.space.write_word(page, self.rng.next_u64() | 1).ok();
            }
            page = page.add_bytes(PAGE_SIZE as u64);
        }

        let mut obj = Obj { base, req: size, site, out: Vec::new() };
        // Pointer wiring per the profile's density.
        let slots_f = self.profile.ptr_density * size as f64 / 64.0;
        let mut k = slots_f as u64;
        if self.rng.chance(slots_f.fract()) {
            k += 1;
        }
        let mut cr_writes = 0u64;
        let mut instr_writes = 0u64;
        for _ in 0..k.min(size / WORD_SIZE as u64) {
            let Some(&target) = pick(&mut self.rng, &self.live_ids) else { break };
            let t_obj = &self.objects[&target];
            let t_base = t_obj.base;
            let off = self.rng.below((size / 8).max(1)) * 8;
            let interior = if self.rng.chance(0.2) && t_obj.req > 16 {
                self.rng.below(t_obj.req / 8) * 8
            } else {
                0
            };
            let value = t_base.add_bytes(interior);
            if self.space.write_word(base.add_bytes(off), value.raw()).is_ok() {
                obj.out.push((off, target));
                self.incoming.entry(target).or_default().push(Slot::InObj { id, off });
                let slot_addr = base.add_bytes(off);
                match &mut self.sys {
                    Sys::Cr(cr) => {
                        cr.inc_ref(t_base);
                        cr_writes += 1;
                    }
                    Sys::Ps(ps) => {
                        ps.register_ptr(slot_addr);
                        instr_writes += 1;
                    }
                    Sys::Ds(ds) => {
                        ds.note_ptr_store(t_base, slot_addr);
                        instr_writes += 1;
                    }
                    _ => {}
                }
            }
        }
        // A "false pointer": plain data that happens to equal a heap
        // address (Figure 4). Untracked — never erased.
        if self.rng.chance(self.profile.false_ptr_rate) {
            if let Some(&target) = pick(&mut self.rng, &self.live_ids) {
                let off = self.rng.below((size / 8).max(1)) * 8;
                let value = self.objects[&target].base.raw();
                self.space.write_word(base.add_bytes(off), value).ok();
            }
        }

        // Root the object (rotating root-slot assignment keeps a live
        // root set for sweeps to scan).
        if !self.root_owner.is_empty() {
            let r = (id % self.root_owner.len() as u64) as u32;
            self.clear_root(r);
            let slot_addr = self.root_addr(r);
            self.space.write_word(slot_addr, base.raw()).expect("stack is mapped");
            self.incoming.entry(id).or_default().push(Slot::Root(r));
            self.root_owner[r as usize] = Some((id, base));
            match &mut self.sys {
                Sys::Cr(cr) => {
                    cr.inc_ref(base);
                    cr_writes += 1;
                }
                Sys::Ps(ps) => {
                    ps.register_ptr(slot_addr);
                    instr_writes += 1;
                }
                Sys::Ds(ds) => {
                    ds.note_ptr_store(base, slot_addr);
                    instr_writes += 1;
                }
                _ => {}
            }
        }
        if cr_writes > 0 {
            self.charge_mutator(cr_writes * self.cost.crcount_ptr_write);
        }
        if instr_writes > 0 {
            let per = match &self.sys {
                Sys::Ps(_) => self.cost.psweeper_register,
                Sys::Ds(_) => self.cost.dangsan_log_append,
                _ => 0,
            };
            self.charge_mutator(instr_writes * per);
        }

        self.objects.insert(id, obj);
        self.live_pos.insert(id, self.live_ids.len());
        self.live_ids.push(id);
    }

    fn root_addr(&self, r: u32) -> Addr {
        self.space.layout().segment_base(Segment::Stack) + r as u64 * 8
    }

    fn clear_root(&mut self, r: u32) {
        if let Some((old, old_base)) = self.root_owner[r as usize].take() {
            if let Some(list) = self.incoming.get_mut(&old) {
                list.retain(|s| *s != Slot::Root(r));
            }
            // Overwriting a pointer is an instrumented store under CRCount
            // (this is how dangling-root references eventually drain).
            if let Sys::Cr(cr) = &mut self.sys {
                cr.dec_ref(&mut self.space, old_base);
            }
        }
        // The slot itself is overwritten by the caller (or zeroed here).
        self.space.write_word(self.root_addr(r), 0).expect("stack is mapped");
    }

    // ---- free ------------------------------------------------------------

    fn do_free(&mut self, id: u64) {
        self.metrics.frees += 1;
        let obj = self.objects.remove(&id).expect("trace frees live ids once");
        // Program behaviour: erase (most) references to the dying object.
        let mut cr_writes = 0u64;
        if let Some(slots) = self.incoming.remove(&id) {
            for slot in slots {
                let dangle = self.rng.chance(self.profile.dangling_rate);
                if !dangle {
                    // Erasing a reference is an instrumented store.
                    if let Sys::Cr(cr) = &mut self.sys {
                        cr.dec_ref(&mut self.space, obj.base);
                        cr_writes += 1;
                    }
                }
                match slot {
                    Slot::Root(r) => {
                        if !dangle {
                            self.space.write_word(self.root_addr(r), 0).expect("stack");
                            self.root_owner[r as usize] = None;
                        }
                        // If dangling: the stale root pointer stays until
                        // the slot is recycled — a genuine dangling pointer
                        // the sweep must find.
                    }
                    Slot::InObj { id: holder, off } => {
                        if !dangle {
                            if let Some(h) = self.objects.get_mut(&holder) {
                                self.space
                                    .write_word(h.base.add_bytes(off), 0)
                                    .ok();
                                h.out.retain(|&(o, t)| !(o == off && t == id));
                            }
                        }
                    }
                }
            }
        }
        // The dying object's own outgoing slots stop being app references,
        // and destructors usually clear the member pointers themselves
        // (~85% of the time) before the memory is freed — without this,
        // stale pointers inside non-zeroed quarantined objects (MarkUs,
        // MineSweeper-without-zeroing) pin whatever later occupies the
        // pointed-to addresses, cascading retention far beyond reality.
        for (off, target) in &obj.out {
            if let Some(list) = self.incoming.get_mut(target) {
                list.retain(|s| *s != Slot::InObj { id, off: *off });
            }
            if self.rng.chance(0.85) {
                self.space.write_word(obj.base.add_bytes(*off), 0).ok();
            }
            // CRCount's zero-fill on free invalidates every outgoing
            // reference exactly once, whatever the destructors did;
            // pSweeper's table drops the dead holder's slots.
            match &mut self.sys {
                Sys::Cr(cr) => {
                    if let Some(t) = self.objects.get(target) {
                        cr.dec_ref(&mut self.space, t.base);
                        cr_writes += 1;
                    }
                }
                Sys::Ps(ps) => ps.unregister_ptr(obj.base.add_bytes(*off)),
                _ => {}
            }
        }
        // Live-list swap-remove.
        let pos = self.live_pos.remove(&id).expect("live");
        let last = self.live_ids.pop().expect("non-empty");
        if last != id {
            self.live_ids[pos] = last;
            self.live_pos.insert(last, pos);
        }
        self.freed_at.insert(obj.base.raw(), self.now);

        // Hand the allocation to the system under test, charging costs.
        match &mut self.sys {
            Sys::Base(heap) => {
                heap.free(&mut self.space, obj.base).expect("live allocation");
                self.charge_mutator(self.cost.free_fast);
            }
            Sys::Ms(ms) => {
                ms.tracer_mut().set_virtual_now(self.now);
                let st0 = ms.stats();
                let outcome = ms.free_sited(&mut self.space, obj.base, obj.site);
                debug_assert_eq!(outcome, FreeOutcome::Quarantined);
                let st = ms.stats();
                let zeroing = self.cost.zero_cost(st.zeroed_bytes - st0.zeroed_bytes);
                let mut quarantine = self.cost.quarantine_insert;
                if st.unmapped_pages > st0.unmapped_pages {
                    quarantine += self.cost.unmap_syscall;
                }
                if st.tl_flushes > st0.tl_flushes {
                    quarantine += ms.config().tl_buffer_capacity as u64
                        * self.cost.quarantine_flush_per_entry;
                }
                self.record_cost(CostKind::Zeroing, zeroing, Some(obj.site));
                self.record_cost(CostKind::Quarantine, quarantine, Some(obj.site));
                self.charge_mutator(zeroing + quarantine);
            }
            Sys::Mu(mu) => {
                let p0 = mu.stats().unmapped_pages;
                let outcome = mu.free(&mut self.space, obj.base);
                debug_assert_eq!(outcome, MarkUsFreeOutcome::Quarantined);
                let mut c = self.cost.quarantine_insert + self.cost.markus_free_extra;
                if mu.stats().unmapped_pages > p0 {
                    c += self.cost.unmap_syscall;
                }
                self.charge_mutator(c);
            }
            Sys::Ff(ff) => {
                let report = ff.free(&mut self.space, obj.base).expect("live");
                let mut c = self.cost.ff_free;
                if report.pages_released > 0 {
                    c += self.cost.unmap_syscall;
                }
                self.charge_mutator(c);
            }
            Sys::ScudoBase(heap) => {
                heap.deallocate(&mut self.space, obj.base).expect("live allocation");
                self.charge_mutator(self.cost.scudo_free);
            }
            Sys::MsScudo(ms) => {
                ms.tracer_mut().set_virtual_now(self.now);
                let st0 = ms.stats();
                let outcome = ms.free_sited(&mut self.space, obj.base, obj.site);
                debug_assert_eq!(outcome, FreeOutcome::Quarantined);
                let st = ms.stats();
                let zeroing = self.cost.zero_cost(st.zeroed_bytes - st0.zeroed_bytes);
                let mut quarantine = self.cost.quarantine_insert;
                if st.unmapped_pages > st0.unmapped_pages {
                    quarantine += self.cost.unmap_syscall;
                }
                if st.tl_flushes > st0.tl_flushes {
                    quarantine += ms.config().tl_buffer_capacity as u64
                        * self.cost.quarantine_flush_per_entry;
                }
                // The Scudo substrate's own free-path share is allocator
                // cost, not defence cost: charged, never attributed.
                self.record_cost(CostKind::Zeroing, zeroing, Some(obj.site));
                self.record_cost(CostKind::Quarantine, quarantine, Some(obj.site));
                self.charge_mutator(zeroing + quarantine + self.cost.scudo_free / 4);
            }
            Sys::Cr(cr) => {
                let usable = cr.usable_size(obj.base).expect("live allocation");
                let outcome = cr.free(&mut self.space, obj.base);
                debug_assert_ne!(outcome, CrFreeOutcome::Invalid);
                self.charge_mutator(
                    self.cost.free_fast
                        + self.cost.zero_cost(usable)
                        + cr_writes * self.cost.crcount_ptr_write,
                );
            }
            Sys::Os(os) => {
                os.free(&mut self.space, obj.base).expect("live allocation");
                self.charge_mutator(self.cost.oscar_free_syscall);
            }
            Sys::Ps(ps) => {
                let outcome = ps.free(&mut self.space, obj.base);
                debug_assert_eq!(outcome, PsFreeOutcome::Deferred);
                self.charge_mutator(self.cost.free_fast);
            }
            Sys::Ds(ds) => {
                let outcome = ds.free(&mut self.space, obj.base);
                let DsFreeOutcome::Released { log_entries, nullified } = outcome else {
                    unreachable!("engine frees live ids once");
                };
                self.charge_mutator(
                    self.cost.free_fast
                        + log_entries * self.cost.dangsan_log_walk
                        + nullified * 10,
                );
            }
        }
    }

    // ---- sweep orchestration ----------------------------------------------

    fn housekeep(&mut self) {
        match &mut self.sys {
            Sys::Ms(ms)
                if !self.sweep_active && ms.sweep_needed(&self.space) => {
                    ms.tracer_mut().set_virtual_now(self.now);
                    ms.start_sweep(&mut self.space);
                    self.sweep_active = true;
                    if let Some(t) = &mut self.telem {
                        t.sweep_start = self.now;
                    }
                    self.cost_sweep_start =
                        self.cost_rec.as_ref().map_or(0, CostRecorder::total);
                    if !ms.config().concurrent {
                        // Sequential version: the whole sweep runs in the
                        // mutator (§5.4).
                        self.fast_forward_sweep(true);
                    }
                }
            Sys::MsScudo(ms)
                if !self.sweep_active && ms.sweep_needed(&self.space) => {
                    ms.tracer_mut().set_virtual_now(self.now);
                    ms.start_sweep(&mut self.space);
                    self.sweep_active = true;
                    if let Some(t) = &mut self.telem {
                        t.sweep_start = self.now;
                    }
                    self.cost_sweep_start =
                        self.cost_rec.as_ref().map_or(0, CostRecorder::total);
                    if !ms.config().concurrent {
                        self.fast_forward_sweep(true);
                    }
                }
            Sys::Mu(mu)
                if mu.gc_needed() => {
                    let dc0 = self.space.stats().demand_commits;
                    let report = mu.collect(&mut self.space);
                    let dcs = self.space.stats().demand_commits - dc0;
                    // Bytes stream near linear-sweep speed; the transitive
                    // pass pays its pointer-chase penalty per visited node.
                    let scan_cycles = report.scanned_words * WORD_SIZE as u64
                        / self.cost.sweep_bytes_per_cycle
                        + report.marked_objects * self.cost.mark_object_visit
                        + dcs * self.cost.demand_commit;
                    // MarkUs marking is mostly parallel with stop-the-world
                    // phases and allocation stalls: roughly half the scan
                    // lands on the application's critical path, the rest on
                    // background threads.
                    let stw = scan_cycles / 2 / self.sweeper_threads();
                    self.now += stw;
                    self.metrics.stw_cycles += stw;
                    self.charge_background(
                        scan_cycles / 2 + report.released * self.cost.release_entry,
                    );
                    self.metrics.sweeps += 1;
                    self.metrics.failed_frees += report.retained;
                    self.sample();
                }
            _ => {}
        }
    }

    /// Advances an in-flight sweep by `wall` cycles of real time.
    fn progress_sweep(&mut self, wall: u64) {
        let cost = self.cost;
        let threads = self.sweeper_threads();
        let space = &mut self.space;
        let metrics = &mut self.metrics;
        let background = &mut self.background;
        let rec = self.cost_rec.as_mut();
        let finished = match &mut self.sys {
            Sys::Ms(ms) => {
                progress_one(ms, space, metrics, background, rec, &cost, threads, wall)
            }
            Sys::MsScudo(ms) => {
                progress_one(ms, space, metrics, background, rec, &cost, threads, wall)
            }
            _ => return,
        };
        if finished {
            self.finish_sweep();
        }
    }

    /// Runs the in-flight sweep to completion immediately. When `blocking`
    /// the mutator waits for it (allocation pause / sequential mode).
    fn fast_forward_sweep(&mut self, blocking: bool) {
        let cost = self.cost;
        let threads = self.sweeper_threads();
        if !self.sweep_active {
            return;
        }
        let (wall, dcs) = match &mut self.sys {
            Sys::Ms(ms) => fast_forward_one(ms, &mut self.space, &cost, threads),
            Sys::MsScudo(ms) => fast_forward_one(ms, &mut self.space, &cost, threads),
            _ => return,
        };
        self.metrics.sweep_demand_commits += dcs;
        // Attribution: the drained mark bill (background) lands on
        // MarkScan wholesale — fast-forward collapses the skip/forensics
        // detail into one wall figure — the blocking stall on Stw, and
        // demand commits on Commit. The amounts recorded are exactly the
        // amounts charged below.
        let mark_bill = wall * threads;
        let commit = dcs * self.cost.demand_commit;
        self.record_cost(CostKind::MarkScan, mark_bill, None);
        self.record_cost(CostKind::Commit, commit, None);
        if blocking {
            self.record_cost(CostKind::Stw, wall, None);
            self.now += wall + commit;
            self.metrics.pause_cycles += wall;
            if let Some(t) = &self.telem {
                t.pause_cycles.record(wall);
            }
            self.background += mark_bill;
        } else {
            self.background += mark_bill + commit;
        }
        self.finish_sweep();
    }

    fn finish_sweep(&mut self) {
        let (report, purged, concurrent) = match &mut self.sys {
            Sys::Ms(ms) => {
                ms.tracer_mut().set_virtual_now(self.now);
                let purged0 = ms.heap().stats().purged_pages;
                let concurrent = ms.config().concurrent;
                let report = ms.finish_sweep(&mut self.space);
                (report, ms.heap().stats().purged_pages - purged0, concurrent)
            }
            Sys::MsScudo(ms) => {
                ms.tracer_mut().set_virtual_now(self.now);
                let purged0 = ms.heap().stats().released_pages;
                let concurrent = ms.config().concurrent;
                let report = ms.finish_sweep(&mut self.space);
                (report, ms.heap().stats().released_pages - purged0, concurrent)
            }
            _ => return,
        };
        // Stop-the-world re-check hits the mutator.
        let stw = report.stw_pages * self.cost.stw_page;
        self.record_cost(CostKind::Stw, stw, None);
        self.now += stw;
        self.metrics.stw_cycles += stw;
        if let Some(t) = &self.telem {
            if stw > 0 {
                t.stw_cycles.record(stw);
            }
            t.sweep_cycles.record(self.now.saturating_sub(t.sweep_start));
        }
        // Release + purge work.
        let finish_cost =
            report.released * self.cost.release_entry + purged * self.cost.purge_page;
        self.record_cost(CostKind::Release, finish_cost, None);
        if concurrent {
            self.background += finish_cost;
        } else {
            self.now += finish_cost;
        }
        self.metrics.sweeps += 1;
        self.metrics.failed_frees += report.failed;
        self.sweep_active = false;
        // Close the generation's attribution window.
        if let Some(rec) = &self.cost_rec {
            rec.record_sweep(rec.total().saturating_sub(self.cost_sweep_start));
        }
        self.sample();
    }

    fn finalize(mut self) -> RunMetrics {
        // Close the RSS series at the final time.
        let rss = self.space.rss_bytes() + self.metadata_bytes();
        self.metrics.peak_rss = self.metrics.peak_rss.max(rss);
        self.metrics.rss_series.push((self.now.max(1), rss));
        self.metrics.mutator_cycles = self.now.max(1);
        self.metrics.background_cycles = self.background;
        // Export telemetry: flush any attached trace sink, snapshot the
        // shared registry, and derive the headline sweep metrics from the
        // layer's counters (single source of truth).
        // SLO watchdog: evaluate the final snapshot before the flush so
        // violation events land in the same trace as the sweeps they
        // indict.
        let watchdog = self.slo.take().map(Watchdog::new);
        let snap = match &mut self.sys {
            Sys::Ms(ms) => {
                if let Some(w) = &watchdog {
                    let checks = w.evaluate(&ms.registry().snapshot());
                    Watchdog::emit_violations(ms.tracer_mut(), &checks);
                }
                ms.tracer_mut().flush();
                Some(ms.registry().snapshot())
            }
            Sys::MsScudo(ms) => {
                if let Some(w) = &watchdog {
                    let checks = w.evaluate(&ms.registry().snapshot());
                    Watchdog::emit_violations(ms.tracer_mut(), &checks);
                }
                ms.tracer_mut().flush();
                Some(ms.registry().snapshot())
            }
            _ => None,
        };
        if let Some(snap) = snap {
            self.metrics.sweeps = snap.counter(LAYER_SUBSYSTEM, "sweeps").unwrap_or(0);
            self.metrics.failed_frees =
                snap.counter(LAYER_SUBSYSTEM, "failed_frees").unwrap_or(0);
            self.metrics.telemetry = Some(snap);
        }
        self.metrics
    }
}

/// The registry a layered system owns (`None` for the baselines).
fn layer_registry(sys: &Sys) -> Option<&Registry> {
    match sys {
        Sys::Ms(ms) => Some(ms.registry()),
        Sys::MsScudo(ms) => Some(ms.registry()),
        _ => None,
    }
}

/// The engine's one sweeper-thread clamp: `(requested, effective)`.
/// Requested is the layer's helpers plus the main sweeper (MarkUs runs
/// two); effective caps that by the cores the mutator's threads leave
/// spare, and is at least one.
fn sweeper_clamp(sys: &Sys, cost: &CostModel, profile: &Profile) -> (u64, u64) {
    let requested = match sys {
        Sys::Ms(ms) => ms.config().helper_threads as u64 + 1,
        Sys::MsScudo(ms) => ms.config().helper_threads as u64 + 1,
        Sys::Mu(_) => 2,
        _ => 0,
    };
    let spare = (cost.cores as u64).saturating_sub(profile.threads as u64).max(1);
    (requested, requested.min(spare).max(1))
}

/// Advances one layered system's in-flight sweep by `wall` cycles on
/// `threads` sweeper threads. Returns whether marking finished.
#[allow(clippy::too_many_arguments)]
fn progress_one<B: HeapBackend>(
    ms: &mut MineSweeper<B>,
    space: &mut AddrSpace,
    metrics: &mut RunMetrics,
    background: &mut u64,
    cost_rec: Option<&mut CostRecorder>,
    cost: &CostModel,
    threads: u64,
    wall: u64,
) -> bool {
    let budget_words = wall * cost.sweep_words_per_cycle() * threads;
    if budget_words == 0 {
        return false;
    }
    let dc0 = space.stats().demand_commits;
    let r = ms.sweep_step(space, budget_words);
    let dcs = space.stats().demand_commits - dc0;
    metrics.sweep_demand_commits += dcs;
    // Skipped pages (incremental sweep) advance the cursor without the
    // word-by-word re-read; they cost a flat per-page lookup instead.
    let (scan, skip) = cost.mark_cost(&r);
    let forensics = r.pin_edges * cost.forensics_edge;
    let commit = dcs * cost.demand_commit;
    if let Some(rec) = cost_rec {
        rec.charge(CostKind::MarkScan, scan, None, None);
        rec.charge(CostKind::SkipReplay, skip, None, None);
        rec.charge(CostKind::Forensics, forensics, None, None);
        rec.charge(CostKind::Commit, commit, None, None);
    }
    *background += scan + skip + forensics + commit;
    r.finished
}

/// Drains one layered system's in-flight marking completely, on
/// `threads` sweeper threads when the layer sweeps concurrently and on
/// the mutator's one otherwise. Returns the wall time the drain would
/// have taken and the demand commits incurred.
fn fast_forward_one<B: HeapBackend>(
    ms: &mut MineSweeper<B>,
    space: &mut AddrSpace,
    cost: &CostModel,
    threads: u64,
) -> (u64, u64) {
    let threads = if ms.config().concurrent { threads } else { 1 };
    let dc0 = space.stats().demand_commits;
    let r = ms.sweep_step(space, u64::MAX);
    debug_assert!(r.finished);
    // Derive the wall time from what the drain actually did: skipped
    // pages (incremental sweep) cost a flat per-page lookup, not the
    // streaming re-read.
    let (scan, skip) = cost.mark_cost(&r);
    let wall = (scan + skip + r.pin_edges * cost.forensics_edge) / threads;
    (wall, space.stats().demand_commits - dc0)
}

/// Classifies a malloc call (tcache hit / arena / fresh mapping) from
/// allocator stats deltas and returns its cycle cost.
fn malloc_cost(
    cost: &CostModel,
    before: &jalloc::AllocStats,
    after: &jalloc::AllocStats,
) -> u64 {
    if after.tcache_hits > before.tcache_hits {
        cost.malloc_fast
    } else if after.fresh_maps > before.fresh_maps
        || after.slabs_created > before.slabs_created
    {
        cost.malloc_fresh
    } else {
        cost.malloc_slow
    }
}

/// Picks a uniformly random element.
fn pick<'a>(rng: &mut Rng, xs: &'a [u64]) -> Option<&'a u64> {
    if xs.is_empty() {
        None
    } else {
        Some(&xs[rng.below(xs.len() as u64) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;
    use minesweeper::MsConfig;
    use workloads::{LifetimeDist, SizeDist};

    fn fast_profile() -> Profile {
        Profile {
            total_allocs: 4_000,
            cycles_per_alloc: 300,
            size_dist: SizeDist::LogNormal { median: 64, sigma: 2.5, cap: 64 * 1024 },
            lifetime: LifetimeDist::Mixture(vec![
                (0.9, LifetimeDist::Exp(100.0)),
                (0.1, LifetimeDist::Exp(1_500.0)),
            ]),
            ..Profile::demo()
        }
    }

    #[test]
    fn baseline_run_completes_and_balances() {
        let m = run(&fast_profile(), System::Baseline, 1);
        assert_eq!(m.allocs, 4_000);
        assert_eq!(m.frees, 4_000, "teardown frees everything");
        assert_eq!(m.sweeps, 0);
        assert!(m.mutator_cycles > 0);
        assert_eq!(m.background_cycles, 0, "baseline has no helper threads");
    }

    #[test]
    fn identical_seeds_are_bit_reproducible() {
        let a = run(&fast_profile(), System::minesweeper_default(), 7);
        let b = run(&fast_profile(), System::minesweeper_default(), 7);
        assert_eq!(a.mutator_cycles, b.mutator_cycles);
        assert_eq!(a.rss_series, b.rss_series);
        assert_eq!(a.sweeps, b.sweeps);
    }

    #[test]
    fn minesweeper_sweeps_and_stays_close_to_baseline() {
        let base = run(&fast_profile(), System::Baseline, 3);
        let ms = run(&fast_profile(), System::minesweeper_default(), 3);
        assert!(ms.sweeps > 0, "allocation churn must trigger sweeps");
        let slowdown = ms.slowdown_vs(&base);
        assert!(slowdown >= 1.0, "mitigation cannot be faster: {slowdown}");
        assert!(slowdown < 2.0, "demo workload slowdown out of range: {slowdown}");
        assert!(ms.cpu_utilisation() > 1.0, "sweeper threads burn CPU");
    }

    #[test]
    fn markus_collects_and_costs_more_than_minesweeper() {
        let base = run(&fast_profile(), System::Baseline, 3);
        let mu = run(&fast_profile(), System::markus_default(), 3);
        let ms = run(&fast_profile(), System::minesweeper_default(), 3);
        assert!(mu.sweeps > 0, "collections must trigger");
        assert!(
            mu.slowdown_vs(&base) >= ms.slowdown_vs(&base) * 0.95,
            "transitive marking should not beat the linear sweep: markus {} ms {}",
            mu.slowdown_vs(&base),
            ms.slowdown_vs(&base)
        );
    }

    #[test]
    fn ffmalloc_is_fast_but_memory_hungry_under_mixed_lifetimes() {
        let profile = Profile {
            // Churn with a long-lived minority: FFmalloc's pathology.
            lifetime: LifetimeDist::Mixture(vec![
                (0.93, LifetimeDist::Exp(50.0)),
                (0.07, LifetimeDist::Permanent),
            ]),
            ..fast_profile()
        };
        let base = run(&profile, System::Baseline, 5);
        let ff = run(&profile, System::FfMalloc, 5);
        assert!(ff.slowdown_vs(&base) < 1.25, "one-time allocation is cheap");
        assert!(
            ff.memory_overhead_vs(&base) > 1.3,
            "survivors must pin pages: {}",
            ff.memory_overhead_vs(&base)
        );
    }

    #[test]
    fn mostly_concurrent_costs_more_than_fully() {
        let base = run(&fast_profile(), System::Baseline, 9);
        let fully = run(&fast_profile(), System::minesweeper_default(), 9);
        let mostly = run(&fast_profile(), System::minesweeper_mostly(), 9);
        assert!(mostly.stw_cycles > 0, "STW re-checks must happen");
        assert!(
            mostly.slowdown_vs(&base) >= fully.slowdown_vs(&base),
            "mostly {} < fully {}",
            mostly.slowdown_vs(&base),
            fully.slowdown_vs(&base)
        );
    }

    #[test]
    fn ablation_unoptimised_is_worst() {
        let p = fast_profile();
        let base = run(&p, System::Baseline, 11);
        let unopt = run(&p, System::MineSweeper(MsConfig::ablation_unoptimised()), 11);
        let full = run(&p, System::MineSweeper(MsConfig::fully_concurrent()), 11);
        assert!(
            unopt.slowdown_vs(&base) > full.slowdown_vs(&base),
            "unoptimised {} vs full {}",
            unopt.slowdown_vs(&base),
            full.slowdown_vs(&base)
        );
    }

    #[test]
    fn dangling_pointers_cause_failed_frees() {
        let p = Profile { dangling_rate: 0.2, ..fast_profile() };
        let ms = run(&p, System::minesweeper_default(), 13);
        assert!(ms.failed_frees > 0, "20% dangling rate must trip some sweeps");
    }

    #[test]
    fn telemetry_snapshot_matches_headline_metrics() {
        let m = run(&fast_profile(), System::minesweeper_default(), 7);
        let snap = m.telemetry.as_ref().expect("layered runs carry telemetry");
        assert_eq!(snap.counter("layer", "sweeps"), Some(m.sweeps));
        assert_eq!(snap.counter("layer", "failed_frees"), Some(m.failed_frees));
        // Every sweep the engine drove is one sweep_cycles observation.
        let sweeps = snap.histogram(ENGINE_SUBSYSTEM, "sweep_cycles").unwrap();
        assert_eq!(sweeps.count(), m.sweeps);
        assert!(run(&fast_profile(), System::Baseline, 7).telemetry.is_none());
    }

    #[test]
    fn rss_series_is_monotone_in_time() {
        let m = run(&fast_profile(), System::minesweeper_default(), 17);
        for w in m.rss_series.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        assert!(m.peak_rss >= m.rss_series.iter().map(|&(_, r)| r).max().unwrap());
    }

    #[test]
    fn scudo_systems_run_and_layer_costs_are_modest() {
        // §7: the same layer over Scudo; overhead relative to the *Scudo*
        // baseline should be small (the paper reports 4.4%).
        let p = fast_profile();
        let scudo_base = run(&p, System::ScudoBaseline, 21);
        let layered = run(&p, System::minesweeper_scudo(), 21);
        assert_eq!(scudo_base.allocs, p.total_allocs);
        assert_eq!(layered.frees, p.total_allocs);
        assert!(layered.sweeps > 0, "quarantine must trigger sweeps over Scudo too");
        let slowdown = layered.slowdown_vs(&scudo_base);
        assert!((1.0..1.6).contains(&slowdown), "scudo-layer slowdown {slowdown}");
    }

    #[test]
    fn crcount_defers_frees_and_taxes_pointer_writes() {
        let p = Profile { dangling_rate: 0.1, ..fast_profile() };
        let base = run(&p, System::Baseline, 23);
        let cr = run(&p, System::CrCount, 23);
        assert_eq!(cr.frees, p.total_allocs);
        assert_eq!(cr.sweeps, 0, "reference counting never sweeps");
        let slowdown = cr.slowdown_vs(&base);
        assert!(slowdown > 1.0, "per-pointer-write upkeep must cost: {slowdown}");
        // Pointer-density work tax: a pointer-heavy profile pays more.
        let heavy = Profile { ptr_density: 1.0, ..p.clone() };
        let base_h = run(&heavy, System::Baseline, 23);
        let cr_h = run(&heavy, System::CrCount, 23);
        assert!(
            cr_h.slowdown_vs(&base_h) > slowdown,
            "denser pointers must cost CRCount more"
        );
    }

    #[test]
    fn oscar_pays_syscalls_and_growing_page_tables() {
        let p = fast_profile();
        let base = run(&p, System::Baseline, 29);
        let os = run(&p, System::Oscar, 29);
        assert_eq!(os.frees, p.total_allocs);
        let slowdown = os.slowdown_vs(&base);
        assert!(slowdown > 1.1, "per-alloc syscalls must show: {slowdown}");
        // Page tables only grow: with a flat live set, a late mid-run RSS
        // sample (metadata included) exceeds an early one by the PTE
        // accumulation. (Avoid the teardown tail, where frames drain.)
        let early = os.rss_series[os.rss_series.len() / 4].1;
        let late = os.rss_series[os.rss_series.len() * 3 / 4].1;
        assert!(late > early, "alias PTEs accumulate: early {early} late {late}");
    }

    #[test]
    fn psweeper_sweeps_periodically_and_defers_frees() {
        let p = fast_profile();
        let ps = run(&p, System::PSweeper, 31);
        assert!(ps.sweeps >= 5, "periodic background sweeps, got {}", ps.sweeps);
        assert!(ps.background_cycles > 0);
    }

    #[test]
    fn dangsan_frees_immediately_but_carries_logs() {
        let p = Profile { ptr_density: 1.0, ..fast_profile() };
        let base = run(&p, System::Baseline, 33);
        let ds = run(&p, System::DangSan, 33);
        assert_eq!(ds.sweeps, 0, "no sweeps: log walk at free");
        assert!(ds.slowdown_vs(&base) > 1.0);
        // Log metadata shows up as memory overhead on pointer-dense heaps.
        assert!(
            ds.memory_overhead_vs(&base) > 1.02,
            "logs must cost memory: {}",
            ds.memory_overhead_vs(&base)
        );
    }

    #[test]
    fn threaded_profiles_pay_sweep_contention() {
        let single = Profile { threads: 1, ..fast_profile() };
        let threaded = Profile { threads: 8, ..fast_profile() };
        let base_s = run(&single, System::Baseline, 19);
        let base_t = run(&threaded, System::Baseline, 19);
        let ms_s = run(&single, System::minesweeper_default(), 19);
        let ms_t = run(&threaded, System::minesweeper_default(), 19);
        assert!(
            ms_t.slowdown_vs(&base_t) >= ms_s.slowdown_vs(&base_s),
            "sweepers must contend with 8 mutator threads"
        );
    }
}
