//! Wall-clock benchmark for the MineSweeper reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <churn|scan|tenants|sim-run> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each workload generates its op stream from `workloads::TraceGen` with
//! the given seed, then replays it over and over until `--seconds` have
//! passed: once through the defended layer's public API and once through
//! plain jalloc, each against fresh address spaces (`sim-run` instead
//! times `sim::Engine` on the same stream, defended against baseline).
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` every other replay is traced with in-memory spans and
//! the last line carries the per-layer metrics. Every run checks the
//! program's outputs (reuse oracle, determinism, conservation); a failed
//! check makes `correct` false and the exit code 1.

mod calib;
mod mutator;
mod replay;
mod sim_run;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::time::{Instant, SystemTime};

use minesweeper::{MineSweeper, MsStats};
use vmem::AddrSpace;
use workloads::{spec2006, LifetimeDist, Op, Profile, SizeDist, TraceGen};

use calib::Calibrator;
use mutator::Mutator;
use replay::{replay, Defended, Pass, Plain, Tenants};
use spans::{Layer, Name, Spans};

/// End-to-end metrics: `(name, unit)`, reported with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("base_ops_per_s", "1/s"),
    ("sweep_round_p50_us", "us"),
    ("sweep_round_p90_us", "us"),
    ("peak_rss_mib", "MiB"),
    ("avg_rss_mib", "MiB"),
];

/// Per-layer metrics: `(name, unit)`, reported with `--trace 1`. Times
/// and counts are per traced iteration (one defended plus one baseline
/// replay); a layer a workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_s", "s"),
    ("jalloc.malloc_ns_p50", "ns"),
    ("jalloc.malloc_ns_p99", "ns"),
    ("jalloc.free_ns_p50", "ns"),
    ("jalloc.purge_ms", "ms"),
    ("core.free_ns_p50", "ns"),
    ("core.free_ns_p99", "ns"),
    ("core.free_ms", "ms"),
    ("core.frees", "count"),
    ("core.zeroed_bytes_per_free", "B"),
    ("core.unmapped_pages", "count"),
    ("core.sweeps", "count"),
    ("core.start_us_p50", "us"),
    ("core.start_ms", "ms"),
    ("core.start_share", "ratio"),
    ("core.mark_ms", "ms"),
    ("core.mark_words", "count"),
    ("core.mark_words_per_s", "1/s"),
    ("core.plan_bytes", "B"),
    ("core.mark_skip_ratio", "ratio"),
    ("core.heap_words", "count"),
    ("core.filter_reject_ratio", "ratio"),
    ("core.finish_us_p50", "us"),
    ("core.finish_ms", "ms"),
    ("core.locked_entries", "count"),
    ("core.release_ratio", "ratio"),
    ("arena.rounds", "count"),
    ("arena.round_us_p50", "us"),
    ("arena.mark_share", "ratio"),
    ("arena.effective_helpers", "count"),
    ("arena.arenas_per_round", "count"),
    ("arena.coalesced", "count"),
    ("vmem.stores", "count"),
    ("vmem.store_ns_p50", "ns"),
    ("vmem.store_ms", "ms"),
    ("vmem.demand_commits", "count"),
    ("vmem.decommits", "count"),
    ("vmem.protects", "count"),
    ("sim.new_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sweep.rounds", "count"),
    ("oracle.checks", "count"),
    ("oracle.reuses", "count"),
    ("oracle.base_checks", "count"),
    ("oracle.base_reuses", "count"),
    ("core.self_ms", "ms"),
    ("jalloc.self_ms", "ms"),
    ("vmem.self_ms", "ms"),
    ("arena.self_ms", "ms"),
    ("sim.self_ms", "ms"),
    ("driver.unattributed_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead", "ratio"),
];

/// The workloads, with why each is in the benchmark.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "churn",
        "xalancbmk: the paper's allocation-heavy outlier on a ~1 MiB heap; free path, sweep start and jalloc dominate, marking is small",
    ),
    (
        "scan",
        "a >=16 MiB live heap of 256 B-16 KiB objects at pointer density 0.3; marking, page cache and filter carry the work, large frees unmap",
    ),
    (
        "tenants",
        "8 arenas of a small churn profile in one ArenaPool, ops round-robin; the only workload on sweep_round, the pooled mark and a helper",
    ),
    (
        "sim-run",
        "sim::Engine on the churn stream, minesweeper against baseline; the only workload on the sim layer's virtual time, cost model and ledger",
    ),
];

/// Setups timed per run; `setup_s` reports their median.
const SETUP_REPS: usize = 9;
/// Untraced iterations a run makes at least, however long they take.
const MIN_ITERATIONS: usize = 3;
/// Sweep rounds an iteration must run, so that ten lie beyond p90.
const MIN_ROUNDS: usize = 100;
/// Traced iterations a run makes at most (bounds the spans kept).
const MAX_TRACED: usize = 3;
/// Arenas in the `tenants` pool.
const TENANTS: usize = 8;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Churn,
    Scan,
    Tenants,
    SimRun,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "churn" => Workload::Churn,
            "scan" => Workload::Scan,
            "tenants" => Workload::Tenants,
            "sim-run" => Workload::SimRun,
            _ => return None,
        })
    }
}

/// The churn workload's profile: SPEC CPU2006 xalancbmk as calibrated
/// in `workloads`.
fn churn_profile() -> Profile {
    spec2006::by_name("xalancbmk").expect("xalancbmk is a SPEC CPU2006 profile")
}

/// A large live heap: mean lifetime 6000 allocations of ~3 KiB objects
/// keeps ~17 MiB live once warm, a tenth of the objects span pages, and
/// 240 000 allocations give over 100 sweeps.
fn scan_profile() -> Profile {
    Profile {
        name: "scan",
        suite: "perfbench",
        total_allocs: 240_000,
        size_dist: SizeDist::Mixture(vec![
            (0.9, SizeDist::Uniform(256, 4096)),
            (0.1, SizeDist::Uniform(4096, 16 * 1024)),
        ]),
        lifetime: LifetimeDist::Exp(6000.0),
        ptr_density: 0.3,
        dangling_rate: 0.002,
        ..churn_profile()
    }
}

/// One tenant: xalancbmk's pointer mix with 160 B-median objects and
/// short lifetimes, so each small arena's quarantine reaches the 64 KiB
/// sweep floor often and the pool runs over 100 rounds per replay.
fn tenant_profile() -> Profile {
    Profile {
        name: "tenant",
        suite: "perfbench",
        total_allocs: 40_000,
        size_dist: SizeDist::LogNormal {
            median: 160,
            sigma: 2.0,
            cap: 4 * 1024,
        },
        lifetime: LifetimeDist::Mixture(vec![
            (0.919, LifetimeDist::Exp(500.0)),
            (0.08, LifetimeDist::Exp(2_000.0)),
            (0.001, LifetimeDist::Permanent),
        ]),
        ..churn_profile()
    }
}

/// One program: a profile and the seed of its op stream and mutator.
struct Program {
    profile: Profile,
    seed: u64,
}

/// A workload's generated input.
struct Input {
    programs: Vec<Program>,
    /// `(program, op)` in replay order.
    steps: Vec<(u8, Op)>,
    /// Allocator decay window scaled to the run, as the sim engine does.
    decay_cycles: u64,
}

fn programs(w: Workload, seed: u64) -> Vec<Program> {
    match w {
        Workload::Churn | Workload::SimRun => vec![Program {
            profile: churn_profile(),
            seed,
        }],
        Workload::Scan => vec![Program {
            profile: scan_profile(),
            seed,
        }],
        Workload::Tenants => (0..TENANTS as u64)
            .map(|k| Program {
                profile: tenant_profile(),
                seed: seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            })
            .collect(),
    }
}

/// Generates the op streams, interleaving programs round-robin.
fn generate(w: Workload, seed: u64) -> Input {
    let programs = programs(w, seed);
    let mut gens: Vec<TraceGen> = programs
        .iter()
        .map(|p| TraceGen::new(&p.profile, p.seed))
        .collect();
    let mut steps = Vec::new();
    let mut live = true;
    while live {
        live = false;
        for (k, g) in gens.iter_mut().enumerate() {
            if let Some(op) = g.next() {
                steps.push((k as u8, op));
                live = true;
            }
        }
    }
    let run_cycles: u64 = programs
        .iter()
        .map(|p| p.profile.total_allocs * p.profile.cycles_per_alloc)
        .sum();
    let decay_cycles = (run_cycles / 30).clamp(1_000_000, 500_000_000);
    Input {
        programs,
        steps,
        decay_cycles,
    }
}

fn mutators(input: &Input) -> Vec<Mutator> {
    input
        .programs
        .iter()
        .map(|p| Mutator::new(&p.profile, p.seed))
        .collect()
}

fn helpers() -> usize {
    nproc().saturating_sub(1)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Builds what one iteration replays into (timed as part of set-up).
fn construct(w: Workload, input: &Input) {
    let n = input.programs.len();
    match w {
        Workload::Tenants => drop(std::hint::black_box(Tenants::new(
            n,
            input.decay_cycles,
            helpers(),
        ))),
        Workload::SimRun => sim_run::construct(&input.programs[0].profile, input.programs[0].seed),
        Workload::Churn | Workload::Scan => {
            drop(std::hint::black_box(Defended::new(input.decay_cycles)))
        }
    }
    if w != Workload::SimRun {
        drop(std::hint::black_box((
            Plain::new(n, input.decay_cycles),
            mutators(input),
        )));
    }
}

/// Layer counters of the defended column, summed over arenas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Core {
    pub sweeps: u64,
    pub quarantined: u64,
    pub released: u64,
    pub failed_frees: u64,
    pub zeroed_bytes: u64,
    pub unmapped_pages: u64,
    pub swept_bytes: u64,
    pub skipped_bytes: u64,
    pub filter_rejects: u64,
    pub heap_words: u64,
    pub demand_commits: u64,
    pub decommits: u64,
    pub protects: u64,
}

impl Core {
    fn add(&mut self, st: &MsStats, space: &AddrSpace) {
        self.sweeps += st.sweeps;
        self.quarantined += st.quarantined;
        self.released += st.released;
        self.failed_frees += st.failed_frees;
        self.zeroed_bytes += st.zeroed_bytes;
        self.unmapped_pages += st.unmapped_pages;
        self.swept_bytes += st.swept_bytes;
        self.skipped_bytes += st.skipped_bytes;
        self.filter_rejects += st.filter_rejects;
        self.heap_words += st.heap_words;
        let m = space.stats();
        self.demand_commits += m.demand_commits;
        self.decommits += m.decommits;
        self.protects += m.protects;
    }
}

/// Quarantine conservation: every quarantined byte and entry was either
/// released or is still held.
fn conserved<B: minesweeper::HeapBackend>(ms: &MineSweeper<B>) -> Result<(), String> {
    let st = ms.stats();
    let q = ms.quarantine();
    let held = q.tracked_bytes() + q.unmapped_bytes();
    if st.quarantined_bytes != st.released_bytes + held {
        return Err(format!(
            "{}: quarantined {} B != released {} B + held {} B",
            ms.arena_id(),
            st.quarantined_bytes,
            st.released_bytes,
            held
        ));
    }
    if st.quarantined != st.released + q.len() as u64 {
        return Err(format!(
            "{}: quarantined {} entries != released {} + held {}",
            ms.arena_id(),
            st.quarantined,
            st.released,
            q.len()
        ));
    }
    Ok(())
}

/// One iteration: the defended replay, then the baseline replay.
struct Iteration {
    traced: bool,
    def: Pass,
    base: Pass,
    core: Core,
    coalesced: u64,
}

fn iterate(
    w: Workload,
    input: &Input,
    spans: &mut Spans,
    mut calib: Option<&mut Calibrator>,
    errors: &mut Vec<String>,
) -> Iteration {
    if w == Workload::SimRun {
        return sim_run::iterate(input, spans, calib, errors);
    }
    let n = input.programs.len();
    let mut core = Core::default();
    let mut coalesced = 0;
    let mut muts = mutators(input);
    let def = if w == Workload::Tenants {
        let mut col = Tenants::new(n, input.decay_cycles, helpers());
        let pass = replay(
            &mut col,
            &input.steps,
            &mut muts,
            spans,
            calib.as_deref_mut(),
        );
        for a in col.pool.iter() {
            core.add(&a.ms().stats(), a.space());
            errors.extend(conserved(a.ms()).err());
        }
        coalesced = col.pool.scheduler().coalesced();
        pass
    } else {
        let mut col = Defended::new(input.decay_cycles);
        let pass = replay(
            &mut col,
            &input.steps,
            &mut muts,
            spans,
            calib.as_deref_mut(),
        );
        core.add(&col.ms.stats(), &col.space);
        errors.extend(conserved(&col.ms).err());
        pass
    };
    let mut muts = mutators(input);
    let mut col = Plain::new(n, input.decay_cycles);
    let base = replay(&mut col, &input.steps, &mut muts, spans, calib);
    Iteration {
        traced: false,
        def,
        base,
        core,
        coalesced,
    }
}

/// Everything one run measured.
struct Run {
    w: Workload,
    seed: u64,
    trace: bool,
    setup_s: Vec<f64>,
    gen_s: Vec<f64>,
    iterations: Vec<Iteration>,
    spans: Spans,
    errors: Vec<String>,
}

fn run(w: Workload, seed: u64, seconds: u64, trace: bool) -> Run {
    let mut calib = Calibrator::new();
    calib.sample();
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut input = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let generated = std::hint::black_box(generate(w, seed));
        gen_s.push(t0.elapsed().as_secs_f64());
        construct(w, &generated);
        let raw = t0.elapsed().as_secs_f64();
        let first = calib.sample();
        setup_s.push(raw * calib.factor_since(first - 1));
        input = Some(generated);
    }
    let input = input.expect("at least one set-up");
    let mut spans = Spans::new(false);
    let mut errors = Vec::new();
    let mut iterations: Vec<Iteration> = Vec::new();
    let t0 = Instant::now();
    loop {
        let traced_so_far = iterations.iter().filter(|i| i.traced).count();
        let traced = trace && iterations.len() % 2 == 1 && traced_so_far < MAX_TRACED;
        spans.set_on(traced);
        let mut it = iterate(
            w,
            &input,
            &mut spans,
            (!traced).then_some(&mut calib),
            &mut errors,
        );
        it.traced = traced;
        iterations.push(it);
        let untraced = iterations.iter().filter(|i| !i.traced).count();
        let done = t0.elapsed().as_secs() >= seconds
            && untraced >= MIN_ITERATIONS
            && (!trace || iterations.len() > untraced);
        if done {
            break;
        }
    }
    spans.set_on(false);
    Run {
        w,
        seed,
        trace,
        setup_s,
        gen_s,
        iterations,
        spans,
        errors,
    }
}

/// Checks every iteration against the program's expected outputs.
fn check(r: &Run) -> Vec<String> {
    let mut errors = r.errors.clone();
    let first = &r.iterations[0];
    for (i, it) in r.iterations.iter().enumerate() {
        let fp = |it: &Iteration| {
            (
                it.core.sweeps,
                it.core.released,
                it.core.zeroed_bytes,
                it.def.peak_rss,
            )
        };
        if fp(it) != fp(first) {
            errors.push(format!(
                "iteration {i} is not deterministic: (sweeps, released, zeroed_bytes, peak_rss) {:?} != {:?}",
                fp(it),
                fp(first)
            ));
        }
        if (it.def.mallocs, it.def.frees) != (it.base.mallocs, it.base.frees) {
            errors.push(format!(
                "iteration {i}: defended replayed {} mallocs / {} frees, baseline {} / {}",
                it.def.mallocs, it.def.frees, it.base.mallocs, it.base.frees
            ));
        }
        if it.def.bad_frees > 0 {
            errors.push(format!(
                "iteration {i}: {} defended frees not quarantined",
                it.def.bad_frees
            ));
        }
        if it.base.bad_frees > 0 {
            errors.push(format!(
                "iteration {i}: {} baseline frees refused",
                it.base.bad_frees
            ));
        }
        if it.def.reuses > 0 {
            errors.push(format!(
                "iteration {i}: {} use-after-free reuses under defence",
                it.def.reuses
            ));
        }
        if it.def.log.rounds_ns.len() < MIN_ROUNDS {
            errors.push(format!(
                "iteration {i}: {} sweep rounds, fewer than {MIN_ROUNDS}",
                it.def.log.rounds_ns.len()
            ));
        }
        if matches!(r.w, Workload::Churn | Workload::Scan) && it.base.reuses == 0 {
            errors.push(format!(
                "iteration {i}: the oracle saw no baseline reuse ({} checks); its self-test failed",
                it.base.checks
            ));
        }
    }
    if r.trace {
        let sum: u64 = Layer::ALL.iter().map(|&l| r.spans.self_ns(l)).sum();
        if sum != r.spans.wall_ns() {
            errors.push(format!(
                "layer self times sum to {sum} ns, traced wall time is {} ns",
                r.spans.wall_ns()
            ));
        }
    }
    errors
}

fn mib(bytes: f64) -> f64 {
    bytes / (1024.0 * 1024.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The sweep-round samples of a run: round `k`'s time is its median over
/// the untraced iterations (every iteration runs the same rounds), which
/// keeps a round that a burst of host noise landed on from moving the
/// tail. Ascending.
fn round_samples(r: &Run) -> Vec<u64> {
    let series: Vec<Vec<f64>> = untraced(r)
        .map(|i| i.def.log.rounds_ns.iter().map(|&ns| ns as f64).collect())
        .collect();
    let mut v: Vec<u64> = stats::aligned_medians(&series)
        .iter()
        .map(|&ns| ns as u64)
        .collect();
    v.sort_unstable();
    v
}

/// Calls per second of one column: the replay time is the sum over
/// windows of each window's median over the untraced iterations.
fn robust_ops_per_s(r: &Run, column: impl Fn(&Iteration) -> &Pass) -> f64 {
    let series: Vec<Vec<f64>> = untraced(r).map(|i| column(i).windows_ns.clone()).collect();
    let ns: f64 = stats::aligned_medians(&series).iter().sum();
    column(&r.iterations[0]).ops() / (ns.max(1.0) / 1e9)
}

fn untraced(r: &Run) -> impl Iterator<Item = &Iteration> {
    r.iterations.iter().filter(|i| !i.traced)
}

fn end_to_end(r: &Run) -> BTreeMap<&'static str, f64> {
    let rounds = round_samples(r);
    let first = &r.iterations[0].def;
    BTreeMap::from([
        ("setup_s", stats::median(&r.setup_s)),
        ("ops_per_s", robust_ops_per_s(r, |i| &i.def)),
        ("base_ops_per_s", robust_ops_per_s(r, |i| &i.base)),
        ("sweep_round_p50_us", stats::quantile(&rounds, 0.5) / 1e3),
        ("sweep_round_p90_us", stats::quantile(&rounds, 0.9) / 1e3),
        ("peak_rss_mib", mib(first.peak_rss as f64)),
        ("avg_rss_mib", mib(first.avg_rss)),
    ])
}

fn per_layer(r: &Run) -> BTreeMap<&'static str, f64> {
    let s = &r.spans;
    let traced: Vec<&Iteration> = r.iterations.iter().filter(|i| i.traced).collect();
    let untraced: Vec<&Iteration> = r.iterations.iter().filter(|i| !i.traced).collect();
    let n = traced.len().max(1) as f64;
    let ms = |name: Name| s.total_ns(name) as f64 / 1e6 / n;
    let ns = |name: Name, q: f64| s.quantile_ns(name, q);
    let it = traced.first().copied().unwrap_or(&r.iterations[0]);
    let c = it.core;
    // Tenants mark inside `sweep_round` and the engine inside `run_ops`:
    // their mark time comes from the round reports and the event stream.
    let mark_ns = if matches!(r.w, Workload::Tenants | Workload::SimRun) {
        traced.iter().map(|i| i.def.log.mark_wall_ns).sum::<u64>() as f64 / n
    } else {
        s.total_ns(Name::CoreStep) as f64 / n
    };
    let mark_words = c.swept_bytes.saturating_sub(c.skipped_bytes) / 8;
    let sweep_ns =
        s.total_ns(Name::CoreStart) + s.total_ns(Name::CoreStep) + s.total_ns(Name::CoreFinish);
    let arena_rounds: u64 = traced
        .iter()
        .map(|i| i.def.log.rounds_ns.len() as u64)
        .sum();
    let arena_round_ns: u64 = s.total_ns(Name::ArenaRound);
    let (arena_mark, arenas_swept) = traced.iter().fold((0, 0), |(m, a), i| {
        (m + i.def.log.mark_wall_ns, a + i.def.log.arenas_swept)
    });
    let tenants = r.w == Workload::Tenants;
    let ops = |its: &[&Iteration]| {
        stats::median(
            &its.iter()
                .map(|i| i.def.raw_ops_per_s())
                .collect::<Vec<_>>(),
        )
    };
    BTreeMap::from([
        ("workloads.gen_s", stats::median(&r.gen_s)),
        ("jalloc.malloc_ns_p50", ns(Name::JallocMalloc, 0.5)),
        ("jalloc.malloc_ns_p99", ns(Name::JallocMalloc, 0.99)),
        ("jalloc.free_ns_p50", ns(Name::JallocFree, 0.5)),
        ("jalloc.purge_ms", ms(Name::JallocPurge)),
        ("core.free_ns_p50", ns(Name::CoreFree, 0.5)),
        ("core.free_ns_p99", ns(Name::CoreFree, 0.99)),
        ("core.free_ms", ms(Name::CoreFree)),
        ("core.frees", c.quarantined as f64),
        (
            "core.zeroed_bytes_per_free",
            ratio(c.zeroed_bytes, c.quarantined),
        ),
        ("core.unmapped_pages", c.unmapped_pages as f64),
        ("core.sweeps", c.sweeps as f64),
        ("core.start_us_p50", ns(Name::CoreStart, 0.5) / 1e3),
        ("core.start_ms", ms(Name::CoreStart)),
        (
            "core.start_share",
            ratio(s.total_ns(Name::CoreStart), sweep_ns),
        ),
        ("core.mark_ms", mark_ns / 1e6),
        ("core.mark_words", mark_words as f64),
        (
            "core.mark_words_per_s",
            if mark_ns > 0.0 {
                mark_words as f64 / (mark_ns / 1e9)
            } else {
                0.0
            },
        ),
        ("core.plan_bytes", c.swept_bytes as f64),
        (
            "core.mark_skip_ratio",
            ratio(c.skipped_bytes, c.swept_bytes),
        ),
        ("core.heap_words", c.heap_words as f64),
        (
            "core.filter_reject_ratio",
            ratio(c.filter_rejects, c.heap_words),
        ),
        ("core.finish_us_p50", ns(Name::CoreFinish, 0.5) / 1e3),
        ("core.finish_ms", ms(Name::CoreFinish)),
        ("core.locked_entries", (c.released + c.failed_frees) as f64),
        (
            "core.release_ratio",
            ratio(c.released, c.released + c.failed_frees),
        ),
        (
            "arena.rounds",
            if tenants {
                arena_rounds as f64 / n
            } else {
                0.0
            },
        ),
        ("arena.round_us_p50", ns(Name::ArenaRound, 0.5) / 1e3),
        ("arena.mark_share", ratio(arena_mark, arena_round_ns)),
        ("arena.effective_helpers", it.def.log.helpers as f64),
        ("arena.arenas_per_round", ratio(arenas_swept, arena_rounds)),
        ("arena.coalesced", it.coalesced as f64),
        ("vmem.stores", (it.def.stores + it.base.stores) as f64),
        ("vmem.store_ns_p50", ns(Name::VmemStore, 0.5)),
        ("vmem.store_ms", ms(Name::VmemStore)),
        ("vmem.demand_commits", c.demand_commits as f64),
        ("vmem.decommits", c.decommits as f64),
        ("vmem.protects", c.protects as f64),
        ("sim.new_ms", ms(Name::SimNew)),
        ("sim.run_ms", ms(Name::SimRun)),
        ("sweep.rounds", it.def.log.rounds_ns.len() as f64),
        ("oracle.checks", it.def.checks as f64),
        ("oracle.reuses", it.def.reuses as f64),
        ("oracle.base_checks", it.base.checks as f64),
        ("oracle.base_reuses", it.base.reuses as f64),
        ("core.self_ms", s.self_ns(Layer::Core) as f64 / 1e6 / n),
        ("jalloc.self_ms", s.self_ns(Layer::Jalloc) as f64 / 1e6 / n),
        ("vmem.self_ms", s.self_ns(Layer::Vmem) as f64 / 1e6 / n),
        ("arena.self_ms", s.self_ns(Layer::Arena) as f64 / 1e6 / n),
        ("sim.self_ms", s.self_ns(Layer::Sim) as f64 / 1e6 / n),
        (
            "driver.unattributed_ms",
            s.self_ns(Layer::Bench) as f64 / 1e6 / n,
        ),
        ("trace.wall_ms", s.wall_ns() as f64 / 1e6 / n),
        ("trace.spans", s.count() as f64 / n),
        ("trace.overhead", {
            let traced_ops = ops(&traced);
            if traced_ops > 0.0 {
                ops(&untraced) / traced_ops
            } else {
                0.0
            }
        }),
    ])
}

/// Short git revision, or `"unknown"` outside a git checkout. Git may
/// not search above the working directory's parent.
fn git_rev() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// UTC timestamp (`YYYY-MM-DDTHH:MM:SSZ`), civil-from-days.
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let mo = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(mo <= 2);
    format!(
        "{y:04}-{mo:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

/// The host stamp every output carries.
fn host_stamp() -> String {
    format!(
        "nproc={} scan_tier={} {}={} git_rev={} utc={}",
        nproc(),
        minesweeper::simd::active_tier().as_str(),
        minesweeper::simd::TIER_ENV,
        std::env::var(minesweeper::simd::TIER_ENV).unwrap_or_else(|_| "unset".into()),
        git_rev(),
        utc_now()
    )
}

/// Writes the traced run's spans next to the benchmark's sources.
fn write_spans(r: &Run, host: &str) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}.tsv", WORKLOADS[r.w as usize].0));
    let body = format!("# host: {host} seed={}\n{}", r.seed, r.spans.render());
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

struct Args {
    w: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut w, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                w = Some(Workload::parse(value).ok_or_else(|| bad("churn|scan|tenants|sim-run"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| bad("a whole number of seconds"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        w: w.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <churn|scan|tenants|sim-run> --seed N --seconds S --trace <0|1>");
            std::process::exit(2);
        }
    };
    let host = host_stamp();
    let r = run(args.w, args.seed, args.seconds, args.trace);
    let mut errors = check(&r);
    let untraced = r.iterations.iter().filter(|i| !i.traced).count();
    println!("host: {host}");
    println!(
        "workload {} seed {} trace {}: {} iterations ({} untraced)",
        WORKLOADS[r.w as usize].0,
        r.seed,
        u8::from(r.trace),
        r.iterations.len(),
        untraced
    );
    let e2e = end_to_end(&r);
    let (names, values) = if r.trace {
        match write_spans(&r, &host) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => errors.push(format!("writing spans: {e}")),
        }
        (PER_LAYER, per_layer(&r))
    } else {
        (END_TO_END, e2e.clone())
    };
    for &(name, unit) in names {
        println!("  {name:<28} {:>16.4} {unit}", values[name]);
    }
    let per_iteration: Vec<String> = r
        .iterations
        .iter()
        .map(|i| {
            format!(
                "{:.0}/{:.0} (raw {:.0}/{:.0}){}",
                i.def.ops_per_s(),
                i.base.ops_per_s(),
                i.def.raw_ops_per_s(),
                i.base.raw_ops_per_s(),
                if i.traced { " traced" } else { "" }
            )
        })
        .collect();
    println!(
        "  per-iteration ops_per_s/base_ops_per_s: {}",
        per_iteration.join(" ")
    );
    let rounds = round_samples(&r);
    let q = |p: f64| stats::quantile(&rounds, p) / 1e3;
    println!(
        "  sweep rounds sampled: {} ({} beyond p90); p10/p50/p75/p90/p99 {:.0}/{:.0}/{:.0}/{:.0}/{:.0} us",
        rounds.len(),
        rounds.len() - (rounds.len() as f64 * 0.9).ceil() as usize,
        q(0.1),
        q(0.5),
        q(0.75),
        q(0.9),
        q(0.99)
    );
    println!(
        "  derived slowdown base_ops_per_s / ops_per_s = {:.3}x (not gated)",
        e2e["base_ops_per_s"] / e2e["ops_per_s"].max(f64::MIN_POSITIVE)
    );
    if r.trace {
        let sum: f64 = Layer::ALL.iter().map(|&l| r.spans.self_ns(l) as f64).sum();
        println!(
            "  traced wall {:.3} ms = layer self times {:.3} ms + driver.unattributed {:.3} ms (per iteration)",
            values["trace.wall_ms"],
            (sum - r.spans.self_ns(Layer::Bench) as f64) / 1e6 / r.iterations.iter().filter(|i| i.traced).count().max(1) as f64,
            values["driver.unattributed_ms"]
        );
    }
    for e in &errors {
        println!("  CHECK FAILED: {e}");
    }
    let attempted: u64 = r
        .iterations
        .iter()
        .map(|i| i.def.mallocs + i.def.frees)
        .sum();
    let failed: u64 = r
        .iterations
        .iter()
        .map(|i| i.def.bad_frees + i.def.reuses)
        .sum();
    let metrics: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                values[name]
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        metrics.join(", ")
    );
    if !errors.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root must declare exactly the
    /// workloads and metrics this program reports.
    #[test]
    fn benchmark_json_matches_the_declarations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let squashed: String = json.split_whitespace().collect();
        for (name, _) in WORKLOADS {
            assert!(
                squashed.contains(&format!("\"name\":\"{name}\"")),
                "workload {name}"
            );
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                squashed.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\"")),
                "metric {name} ({unit})"
            );
        }
        let declared = squashed.matches("\"name\":").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn scan_keeps_at_least_16_mib_live() {
        assert!(scan_profile().expected_live_bytes() >= 16.0 * 1024.0 * 1024.0);
    }

    #[test]
    fn utc_stamp_has_the_iso_shape() {
        let s = utc_now();
        assert_eq!(s.len(), 20);
        assert!(s.ends_with('Z') && s.as_bytes()[10] == b'T');
    }

    #[test]
    fn tenant_streams_interleave_round_robin() {
        let input = generate(Workload::Tenants, 3);
        let first: Vec<u8> = input.steps.iter().take(TENANTS).map(|s| s.0).collect();
        assert_eq!(first, (0..TENANTS as u8).collect::<Vec<_>>());
    }

    #[test]
    fn the_oracle_catches_baseline_reuse_and_not_defended_reuse() {
        let input = generate(Workload::Churn, 1);
        let mut spans = Spans::new(false);
        let mut errors = Vec::new();
        let it = iterate(Workload::Churn, &input, &mut spans, None, &mut errors);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(it.def.reuses, 0);
        assert!(it.base.reuses > 0);
        assert_eq!(it.def.bad_frees, 0);
    }
}
