//! Multi-tenant simulation: N mutators driving N arenas that share one
//! sweep scheduler and one helper pool.
//!
//! The single-system [`crate::Engine`] models the paper's setting — one
//! process, one heap, one sweeper. This driver models the deployment the
//! sharded layer exists for: every tenant replays its own
//! [`workloads::TraceGen`] stream against its own [`minesweeper::Arena`],
//! the [`minesweeper::SweepScheduler`] batches their quarantine pressure
//! into coalesced rounds, and one work-stealing helper pool marks every
//! scheduled arena in a single pass.
//!
//! Telemetry goes to **one shared registry** with two independent views
//! of the same work:
//!
//! * per-shard counters (`arena/a{k}_*`), copied from each layer's own
//!   statistics at finalize, and
//! * global totals (`arena/total_*`), accumulated *during the run* from
//!   per-free deltas and per-round reports.
//!
//! [`reconcile_arenas`] (run by `ms-report --check`) reconciles the two
//! — if sharding ever lost an update (a free attributed to the wrong
//! shard, a round double-counted), the sums diverge.

use minesweeper::{ArenaPool, MsConfig};
use telemetry::{CostKind, CostRecorder, Histogram, Registry, Snapshot};
use vmem::{Addr, Segment};
use workloads::{Op, Profile, TraceGen};

use crate::cost::CostModel;
use crate::metrics::RunMetrics;

/// Subsystem label for the shard counters and per-arena histograms.
pub const ARENA_SUBSYSTEM: &str = "arena";

/// The counter keys every arena shard exports (`arena/a{k}_<key>`) and the
/// run re-accumulates globally (`arena/total_<key>`) — the reconciliation
/// surface between the two paths.
pub const ARENA_KEYS: [&str; 4] =
    ["quarantined_bytes", "released_bytes", "failed_frees", "sweeps"];

/// Reconciles a [`run_arenas`] snapshot's two views of the same work: for
/// every [`ARENA_KEYS`] key, the per-shard counters must sum to the
/// independently accumulated global total. Returns each mismatch, naming
/// the key (empty = clean).
pub fn reconcile_arenas(snap: &Snapshot) -> Vec<String> {
    let n = snap.counter(ARENA_SUBSYSTEM, "arenas").unwrap_or(0);
    let counter = |name: &str| snap.counter(ARENA_SUBSYSTEM, name).unwrap_or(0);
    ARENA_KEYS
        .iter()
        .filter_map(|key| {
            let sum: u64 = (0..n).map(|k| counter(&format!("a{k}_{key}"))).sum();
            let total = counter(&format!("total_{key}"));
            (sum != total).then(|| {
                format!("shard {key} sums to {sum}, global arena/total_{key} counted {total}")
            })
        })
        .collect()
}

/// Per-arena mutator state.
struct Tenant {
    ops: std::vec::IntoIter<Op>,
    /// id -> base for live allocations of this tenant.
    objects: std::collections::HashMap<u64, Addr>,
    /// Next stack root slot a dangling free parks its stale pointer in.
    next_root: u64,
    /// Histograms for this arena on the shared registry.
    pause_cycles: Histogram,
    stw_cycles: Histogram,
    sweep_cycles: Histogram,
    done: bool,
}

/// Totals accumulated during the run, independently of the per-layer
/// statistics the shard counters are copied from at finalize.
#[derive(Default)]
struct Totals {
    quarantined_bytes: u64,
    released_bytes: u64,
    failed_frees: u64,
    sweeps: u64,
}

/// Runs `profile` as `n` identically-shaped tenants (seeds `seed`,
/// `seed+1`, …) over one [`ArenaPool`] under `cfg`, interleaving the
/// mutator streams round-robin and letting the scheduler decide when each
/// arena sweeps. Returns metrics whose telemetry snapshot carries the
/// per-shard counters, the independently accumulated `arena/total_*`
/// globals, and per-arena pause/STW/sweep histograms.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn run_arenas(profile: &Profile, n: u32, seed: u64, cfg: MsConfig) -> RunMetrics {
    assert!(n > 0, "at least one arena");
    let cost = CostModel::desktop();
    let registry = Registry::new();
    let mut cost_rec = CostRecorder::new(&registry);
    let mut pool = ArenaPool::new(n, cfg);
    pool.set_helpers(cfg.helper_threads);
    let labels: Vec<String> = (0..n as usize).map(|k| pool.arena(k).id().label()).collect();
    let mut tenants: Vec<Tenant> = (0..n)
        .map(|k| {
            let ops: Vec<Op> =
                TraceGen::new(profile, seed.wrapping_add(k as u64)).collect();
            Tenant {
                ops: ops.into_iter(),
                objects: std::collections::HashMap::new(),
                next_root: 0,
                pause_cycles: registry
                    .histogram(ARENA_SUBSYSTEM, &format!("a{k}_pause_cycles")),
                stw_cycles: registry
                    .histogram(ARENA_SUBSYSTEM, &format!("a{k}_stw_cycles")),
                sweep_cycles: registry
                    .histogram(ARENA_SUBSYSTEM, &format!("a{k}_sweep_cycles")),
                done: false,
            }
        })
        .collect();
    let mut totals = Totals::default();
    let mut metrics = RunMetrics {
        benchmark: profile.name.to_string(),
        system: format!("minesweeper-arenas{n}"),
        ..RunMetrics::default()
    };
    metrics.rss_series.push((0, 0));
    let mut now = 0u64;
    let mut background = 0u64;
    let run_cycles = profile.total_allocs.max(1) * profile.cycles_per_alloc.max(1);
    let sample_interval = (run_cycles / 256).max(10_000);
    let mut next_sample = sample_interval;
    let root_slots = profile.root_slots.max(1) as u64;

    // Round-robin over the tenants until every stream is drained.
    let mut active = n as usize;
    while active > 0 {
        for k in 0..n as usize {
            if tenants[k].done {
                continue;
            }
            let Some(op) = tenants[k].ops.next() else {
                tenants[k].done = true;
                active -= 1;
                continue;
            };
            match op {
                Op::Work(c) => now += c,
                Op::Alloc { id, size, site: _ } => {
                    metrics.allocs += 1;
                    let base = pool.arena_mut(k).malloc(size);
                    // Programs initialise what they allocate.
                    let _ = pool.arena_mut(k).space_mut().write_word(base, 1);
                    tenants[k].objects.insert(id, base);
                    now += cost.malloc_fast;
                }
                Op::Free { id } => {
                    metrics.frees += 1;
                    let Some(base) = tenants[k].objects.remove(&id) else {
                        continue;
                    };
                    // A dangling free parks a stale pointer to the dying
                    // object in one of this tenant's (rotating, hence
                    // eventually recycled) stack root slots.
                    let dangle =
                        (base.raw() >> 4).wrapping_mul(0x9e37_79b9) % 1000
                            < (profile.dangling_rate * 1000.0) as u64;
                    let st0 = pool.arena(k).ms().stats();
                    pool.arena_mut(k).free(base);
                    let st = pool.arena(k).ms().stats();
                    totals.quarantined_bytes +=
                        st.quarantined_bytes - st0.quarantined_bytes;
                    let zeroing = cost.zero_cost(st.zeroed_bytes - st0.zeroed_bytes);
                    let mut quarantine = cost.quarantine_insert;
                    if st.unmapped_pages > st0.unmapped_pages {
                        quarantine += cost.unmap_syscall;
                    }
                    cost_rec.charge(CostKind::Zeroing, zeroing, None, Some(&labels[k]));
                    cost_rec.charge(
                        CostKind::Quarantine,
                        quarantine,
                        None,
                        Some(&labels[k]),
                    );
                    now += zeroing + quarantine;
                    let slot = tenants[k].next_root % root_slots;
                    tenants[k].next_root += 1;
                    let root = pool.arena(k).space().layout().segment_base(Segment::Stack)
                        + slot * 8;
                    let value = if dangle { base.raw() } else { 0 };
                    pool.arena_mut(k)
                        .space_mut()
                        .write_word(root, value)
                        .expect("stack is mapped");
                }
                Op::Teardown => {}
            }
            sweep_if_due(
                &mut pool, &mut tenants, &cost, &mut cost_rec, &labels, &mut totals,
                &mut metrics, &mut now, &mut background,
            );
        }
        while now >= next_sample {
            let rss: u64 = pool.iter().map(|a| a.space().rss_bytes()).sum::<u64>()
                + pool.iter().map(|a| a.ms().quarantine().len() as u64 * 64).sum::<u64>();
            metrics.peak_rss = metrics.peak_rss.max(rss);
            metrics.rss_series.push((next_sample, rss));
            next_sample += sample_interval;
        }
    }

    // Finalize: copy each shard's own statistics next to the globals the
    // loop accumulated, stamp scheduler counters, snapshot once.
    for k in 0..n as usize {
        let st = pool.arena(k).ms().stats();
        let label = pool.arena(k).id().label();
        registry
            .counter(ARENA_SUBSYSTEM, &format!("{label}_quarantined_bytes"))
            .add(st.quarantined_bytes);
        registry
            .counter(ARENA_SUBSYSTEM, &format!("{label}_released_bytes"))
            .add(st.released_bytes);
        registry
            .counter(ARENA_SUBSYSTEM, &format!("{label}_failed_frees"))
            .add(st.failed_frees);
        registry.counter(ARENA_SUBSYSTEM, &format!("{label}_sweeps")).add(st.sweeps);
    }
    registry.counter(ARENA_SUBSYSTEM, "arenas").add(n as u64);
    registry
        .counter(ARENA_SUBSYSTEM, "total_quarantined_bytes")
        .add(totals.quarantined_bytes);
    registry.counter(ARENA_SUBSYSTEM, "total_released_bytes").add(totals.released_bytes);
    registry.counter(ARENA_SUBSYSTEM, "total_failed_frees").add(totals.failed_frees);
    registry.counter(ARENA_SUBSYSTEM, "total_sweeps").add(totals.sweeps);
    registry.counter(ARENA_SUBSYSTEM, "sched_rounds").add(pool.scheduler().rounds());
    registry
        .counter(ARENA_SUBSYSTEM, "sched_scheduled")
        .add(pool.scheduler().scheduled());
    registry
        .counter(ARENA_SUBSYSTEM, "sched_coalesced")
        .add(pool.scheduler().coalesced());

    let rss: u64 = pool.iter().map(|a| a.space().rss_bytes()).sum();
    metrics.peak_rss = metrics.peak_rss.max(rss);
    metrics.rss_series.push((now.max(1), rss));
    metrics.mutator_cycles = now.max(1);
    metrics.background_cycles = background;
    metrics.sweeps = totals.sweeps;
    metrics.failed_frees = totals.failed_frees;
    metrics.telemetry = Some(registry.snapshot());
    metrics
}

/// Gives the scheduler a chance to run one pooled round and charges its
/// costs: scheduler setup per scheduled arena, the pooled mark split over
/// the effective threads, stop-the-world pages to the mutator, and pause
/// time to any arena whose valve was already open when the round started.
#[allow(clippy::too_many_arguments)]
fn sweep_if_due(
    pool: &mut ArenaPool,
    tenants: &mut [Tenant],
    cost: &CostModel,
    cost_rec: &mut CostRecorder,
    labels: &[String],
    totals: &mut Totals,
    metrics: &mut RunMetrics,
    now: &mut u64,
    background: &mut u64,
) {
    if !pool.iter().any(|a| a.sweep_needed()) {
        return;
    }
    let paused: Vec<bool> = pool.iter().map(|a| a.ms().pause_needed()).collect();
    let round = pool.sweep_round();
    if round.swept.is_empty() {
        return;
    }
    *background += cost.sweep_round_setup * round.swept.len() as u64;
    let threads = (round.effective_helpers as u64 + 1).max(1);
    for (id, report) in &round.swept {
        let k = id.raw() as usize;
        let arena = Some(labels[k].as_str());
        cost_rec.charge(CostKind::SchedSetup, cost.sweep_round_setup, None, arena);
        let (scan, skip) = cost.mark_cost(&report.mark);
        cost_rec.charge(CostKind::MarkScan, scan, None, arena);
        cost_rec.charge(CostKind::SkipReplay, skip, None, arena);
        let mark = scan + skip;
        let wall = mark / threads;
        *background += mark;
        tenants[k].sweep_cycles.record(wall);
        let stw = report.stw_pages * cost.stw_page;
        if stw > 0 {
            *now += stw;
            metrics.stw_cycles += stw;
            tenants[k].stw_cycles.record(stw);
        }
        cost_rec.charge(CostKind::Stw, stw, None, arena);
        if paused[k] {
            // The valve was open: this tenant's mutator stalled for the
            // round's mark wall time.
            *now += wall;
            metrics.pause_cycles += wall;
            tenants[k].pause_cycles.record(wall);
            cost_rec.charge(CostKind::Stw, wall, None, arena);
        }
        let release = report.released * cost.release_entry;
        cost_rec.charge(CostKind::Release, release, None, arena);
        *background += release;
        totals.released_bytes += report.released_bytes;
        totals.failed_frees += report.failed;
        totals.sweeps += 1;
        metrics.sweeps += 1;
        metrics.failed_frees += report.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{LifetimeDist, SizeDist};

    fn fast_profile() -> Profile {
        Profile {
            total_allocs: 2_000,
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
    fn arenas_run_sweeps_and_reconcile() {
        let m = run_arenas(&fast_profile(), 4, 7, MsConfig::fully_concurrent());
        assert!(m.sweeps > 0, "churn across 4 tenants must trigger rounds");
        let snap = m.telemetry.as_ref().expect("pool runs carry telemetry");
        assert_eq!(snap.counter(ARENA_SUBSYSTEM, "arenas"), Some(4));
        // The reconcile invariant ms-report --check gates on: shard sums
        // must equal the independently accumulated globals.
        assert_eq!(reconcile_arenas(snap), Vec::<String>::new());
        for key in ARENA_KEYS {
            assert!(snap.counter(ARENA_SUBSYSTEM, &format!("total_{key}")).is_some(), "{key}");
        }
        assert_eq!(
            snap.counter(ARENA_SUBSYSTEM, "total_sweeps"),
            Some(m.sweeps),
            "headline sweeps come from the same totals"
        );
    }

    #[test]
    fn reconcile_names_a_lost_shard_update() {
        let reg = Registry::new();
        reg.counter(ARENA_SUBSYSTEM, "arenas").add(2);
        reg.counter(ARENA_SUBSYSTEM, "a0_sweeps").add(3);
        reg.counter(ARENA_SUBSYSTEM, "a1_sweeps").add(1);
        reg.counter(ARENA_SUBSYSTEM, "total_sweeps").add(5);
        let mismatches = reconcile_arenas(&reg.snapshot());
        assert_eq!(
            mismatches,
            vec!["shard sweeps sums to 4, global arena/total_sweeps counted 5".to_string()]
        );
    }

    #[test]
    fn identical_seeds_reproduce() {
        let a = run_arenas(&fast_profile(), 3, 11, MsConfig::fully_concurrent());
        let b = run_arenas(&fast_profile(), 3, 11, MsConfig::fully_concurrent());
        assert_eq!(a.mutator_cycles, b.mutator_cycles);
        assert_eq!(a.sweeps, b.sweeps);
        assert_eq!(a.failed_frees, b.failed_frees);
    }

    #[test]
    fn scheduler_coalesces_under_shared_pressure() {
        let m = run_arenas(&fast_profile(), 4, 3, MsConfig::fully_concurrent());
        let snap = m.telemetry.as_ref().unwrap();
        let rounds = snap.counter(ARENA_SUBSYSTEM, "sched_rounds").unwrap_or(0);
        let scheduled = snap.counter(ARENA_SUBSYSTEM, "sched_scheduled").unwrap_or(0);
        assert!(rounds > 0);
        assert!(
            scheduled >= rounds,
            "every round schedules at least the due arena"
        );
    }

    #[test]
    fn dangling_tenants_fail_frees() {
        let p = Profile { dangling_rate: 0.3, ..fast_profile() };
        let m = run_arenas(&p, 2, 13, MsConfig::fully_concurrent());
        assert!(m.failed_frees > 0, "stale root pointers must pin entries");
    }
}
