//! Multi-tenant arenas and the global sweep scheduler.
//!
//! The paper evaluates one heap, one quarantine, one sweep plan. A
//! production deployment serves many tenants, each with its own arena
//! (heap + quarantine + shadow map), all competing for the same physical
//! sweep bandwidth. This module shards the layer per arena and puts a
//! scheduler above the shards:
//!
//! * [`ArenaId`] tags every shard — the quarantine, the shadow map and
//!   the backend all carry the id of the arena that owns them.
//! * [`Arena`] is one tenant: a [`MineSweeper`] layer over an
//!   id-carrying backend plus its own [`AddrSpace`].
//! * [`SweepScheduler`] turns per-arena quarantine pressure into a
//!   priority-ordered, coalesced batch: when any arena's sweep trigger
//!   fires, other arenas already most of the way to their own trigger
//!   ride along in the same round.
//! * [`ArenaPool`] executes a round: it starts each scheduled arena's
//!   sweep, drains **all** their mark plans through one work-stealing
//!   helper pool ([`crate::parallel_mark_pool`] — a single chunk cursor
//!   spanning every arena, clamped by
//!   [`crate::effective_helper_count`]), then finishes each sweep with
//!   its pooled mark stats.
//!
//! Heap words mark only their owning arena's shadow — tenant heaps are
//! disjoint, so a batched round's release decisions are bit-identical to
//! sweeping each arena alone (the differential proptest pins this).
//! Root segments (stack/globals) model *shared process state*: a root
//! chunk is marked into every scheduled arena's shadow, so a dangling
//! root pointer in arena A pins a quarantined block in arena B.

use jalloc::{JAlloc, JallocConfig};
use vmem::{Addr, AddrSpace};

use crate::backend::{ArenaBackend, HeapBackend};
use crate::config::MsConfig;
use crate::layer::{FreeOutcome, MineSweeper, SweepReport};
use crate::sweep::{parallel_mark_pool, PoolMarkOpts};

/// Identifies one arena (tenant shard). Id 0 is the root arena — the
/// single-arena layer constructors use it, so existing single-tenant
/// code is "arena 0" of the sharded world.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ArenaId(u32);

impl ArenaId {
    /// The root (single-tenant / default) arena.
    pub const ROOT: ArenaId = ArenaId(0);

    /// An arena id from its raw index.
    pub const fn new(id: u32) -> Self {
        ArenaId(id)
    }

    /// The raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The telemetry label for this arena's shard counters (`a0`, `a1`,
    /// …) — the same names `ms-report` reconciles against the global
    /// totals.
    pub fn label(self) -> String {
        format!("a{}", self.0)
    }

    /// Parses a [`label`](Self::label) (`a0`, `a17`, …) back into an id.
    /// Reporting uses this to join per-arena metric keys — shard counters
    /// and `cost/arena_a{k}_cycles` shares — into numeric shard order.
    pub fn from_label(label: &str) -> Option<ArenaId> {
        let idx = label.strip_prefix('a')?;
        if idx.is_empty() || idx.len() > 1 && idx.starts_with('0') {
            return None;
        }
        idx.parse().ok().map(ArenaId)
    }
}

impl std::fmt::Display for ArenaId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// One tenant arena: an id-tagged [`MineSweeper`] layer plus the address
/// space it manages. Arenas own disjoint spaces; only the sweep pool
/// looks across them.
#[derive(Debug)]
pub struct Arena<B: HeapBackend = JAlloc> {
    ms: MineSweeper<ArenaBackend<B>>,
    space: AddrSpace,
}

impl Arena<JAlloc> {
    /// Creates an arena over the default JeMalloc-style heap, configured
    /// exactly as [`MineSweeper::new`] configures its heap.
    pub fn new(id: ArenaId, cfg: MsConfig) -> Self {
        let jcfg = if cfg.purge_after_sweep {
            JallocConfig::minesweeper()
        } else {
            JallocConfig { end_padding: true, ..JallocConfig::stock() }
        };
        Arena::with_backend(id, cfg, JAlloc::with_config(jcfg))
    }
}

impl<B: HeapBackend> Arena<B> {
    /// Creates an arena over any backend; the backend is wrapped so its
    /// [`HeapBackend::arena_id`] reports `id` and every shard the layer
    /// builds (quarantine, shadow map) carries it.
    pub fn with_backend(id: ArenaId, cfg: MsConfig, backend: B) -> Self {
        Arena {
            ms: MineSweeper::with_backend(cfg, ArenaBackend::new(id, backend)),
            space: AddrSpace::new(),
        }
    }

    /// This arena's id.
    pub fn id(&self) -> ArenaId {
        self.ms.arena_id()
    }

    /// The layer (read-only).
    pub fn ms(&self) -> &MineSweeper<ArenaBackend<B>> {
        &self.ms
    }

    /// The layer (mutable — for tracer/sweep control).
    pub fn ms_mut(&mut self) -> &mut MineSweeper<ArenaBackend<B>> {
        &mut self.ms
    }

    /// The arena's address space (read-only).
    pub fn space(&self) -> &AddrSpace {
        &self.space
    }

    /// The arena's address space (mutable — for mutator writes).
    pub fn space_mut(&mut self) -> &mut AddrSpace {
        &mut self.space
    }

    /// Allocates in this arena.
    pub fn malloc(&mut self, size: u64) -> Addr {
        self.ms.malloc(&mut self.space, size)
    }

    /// Frees in this arena (quarantining per the layer config).
    pub fn free(&mut self, addr: Addr) -> FreeOutcome {
        self.ms.free(&mut self.space, addr)
    }

    /// [`Arena::free`] with an allocation-site id.
    pub fn free_sited(&mut self, addr: Addr, site: u32) -> FreeOutcome {
        self.ms.free_sited(&mut self.space, addr, site)
    }

    /// Sweeps this arena alone, outside any pool (the single-arena
    /// reference path the differential tests compare against).
    pub fn sweep_now(&mut self) -> SweepReport {
        self.ms.sweep_now(&mut self.space)
    }

    /// Whether this arena's own sweep trigger has fired.
    pub fn sweep_needed(&self) -> bool {
        self.ms.sweep_needed(&self.space)
    }

    /// Quarantine pressure in permille of the sweep trigger.
    pub fn pressure(&self) -> u64 {
        self.ms.sweep_pressure(&self.space)
    }
}

/// Scheduler policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct SchedPolicy {
    /// Arenas at or above this fraction of their own trigger (permille)
    /// are coalesced into a round another arena made due. 1000 disables
    /// coalescing (only due arenas sweep); 0 batches everyone with any
    /// pressure. Default 500: an arena halfway to its trigger rides
    /// along rather than paying its own round shortly after.
    pub coalesce_permille: u64,
    /// Maximum arenas per round (highest pressure wins; fairness bound
    /// on round length). Default unbounded.
    pub max_batch: usize,
}

impl Default for SchedPolicy {
    fn default() -> Self {
        SchedPolicy { coalesce_permille: 500, max_batch: usize::MAX }
    }
}

/// The global sweep scheduler: quarantine-ratio pressure in, coalesced
/// priority-ordered batch out.
///
/// Pressure for an arena is its eligible quarantined bytes as a permille
/// of its own sweep trigger ([`MineSweeper::sweep_pressure`]); ≥ 1000
/// means the arena is *due* (its [`MineSweeper::sweep_needed`] fired).
/// A round is scheduled only when at least one arena is due; the batch
/// is then every due arena plus every arena above
/// [`SchedPolicy::coalesce_permille`], sorted by pressure (ties by
/// arena index, so rounds are deterministic), truncated to
/// [`SchedPolicy::max_batch`].
#[derive(Clone, Debug, Default)]
pub struct SweepScheduler {
    policy: SchedPolicy,
    rounds: u64,
    scheduled: u64,
    coalesced: u64,
}

impl SweepScheduler {
    /// A scheduler with the given policy.
    pub fn new(policy: SchedPolicy) -> Self {
        SweepScheduler { policy, ..Default::default() }
    }

    /// The policy in force.
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Rounds planned so far that scheduled at least one arena.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total arena-sweeps scheduled across all rounds.
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Arena-sweeps that were *coalesced* (swept before their own
    /// trigger fired, riding a due arena's round).
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Plans one round over `(due, pressure)` per arena: returns the
    /// arena indices to sweep, highest pressure first. Empty when no
    /// arena is due.
    pub fn plan_round(&mut self, arenas: &[(bool, u64)]) -> Vec<usize> {
        if !arenas.iter().any(|&(due, _)| due) {
            return Vec::new();
        }
        let mut batch: Vec<(u64, usize, bool)> = arenas
            .iter()
            .enumerate()
            .filter(|&(_, &(due, p))| due || p >= self.policy.coalesce_permille)
            .map(|(i, &(due, p))| (p, i, due))
            .collect();
        // Highest pressure first; ties resolve by arena index so the
        // round is deterministic.
        batch.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        batch.truncate(self.policy.max_batch.max(1));
        self.rounds += 1;
        self.scheduled += batch.len() as u64;
        self.coalesced += batch.iter().filter(|&&(_, _, due)| !due).count() as u64;
        batch.into_iter().map(|(_, i, _)| i).collect()
    }
}

/// Plan bytes a pooled round needs per marker thread before it spawns a
/// helper for that thread. A helper's start-up (a thread spawn and the
/// wake-up of an idle core, tens to hundreds of microseconds on a
/// virtualised host, and longer when the host is busy) is paid before it
/// claims its first chunk; below this size that costs more than the share
/// of the scan the helper takes over. On a 2-vCPU host, one helper made
/// pooled marks of 0.5-2 MiB 1.2-1.8x slower than the caller marking
/// alone, about broke even at 4 MiB (0.8-1.0x) and halved 8 MiB marks.
pub(crate) const HELPER_MIN_BYTES: u64 = 4 << 20;

/// Outcome of one pooled sweep round.
#[derive(Clone, Debug, Default)]
pub struct RoundReport {
    /// `(arena, report)` per scheduled arena, in scheduling (pressure)
    /// order. Empty when no arena was due.
    pub swept: Vec<(ArenaId, SweepReport)>,
    /// Wall nanoseconds of the pooled mark phase.
    pub mark_wall_ns: u64,
    /// Helpers actually used: the requested count, clamped to the
    /// hardware and to one per 4 MiB of pooled plan beyond the caller's
    /// share.
    pub effective_helpers: usize,
}

/// A pool of arenas sharing one sweep scheduler and one helper pool.
#[derive(Debug)]
pub struct ArenaPool<B: HeapBackend = JAlloc> {
    arenas: Vec<Arena<B>>,
    sched: SweepScheduler,
    /// Helper threads requested per round (clamped to the hardware and
    /// the round's size at mark time).
    helpers: usize,
}

impl ArenaPool<JAlloc> {
    /// A pool of `n` default-heap arenas with ids `a0..a{n-1}`, all
    /// running the same layer configuration.
    pub fn new(n: u32, cfg: MsConfig) -> Self {
        let arenas =
            (0..n).map(|i| Arena::new(ArenaId::new(i), cfg)).collect();
        ArenaPool { arenas, sched: SweepScheduler::default(), helpers: 0 }
    }
}

impl<B: HeapBackend> ArenaPool<B> {
    /// A pool over pre-built arenas.
    pub fn from_arenas(arenas: Vec<Arena<B>>) -> Self {
        ArenaPool { arenas, sched: SweepScheduler::default(), helpers: 0 }
    }

    /// Sets the scheduler policy.
    pub fn set_policy(&mut self, policy: SchedPolicy) {
        self.sched = SweepScheduler::new(policy);
    }

    /// Sets the helper threads requested per pooled mark.
    pub fn set_helpers(&mut self, helpers: usize) {
        self.helpers = helpers;
    }

    /// The scheduler (read-only; rounds/coalesced counters).
    pub fn scheduler(&self) -> &SweepScheduler {
        &self.sched
    }

    /// Number of arenas.
    pub fn len(&self) -> usize {
        self.arenas.len()
    }

    /// Whether the pool has no arenas.
    pub fn is_empty(&self) -> bool {
        self.arenas.is_empty()
    }

    /// The arena at `idx`.
    pub fn arena(&self, idx: usize) -> &Arena<B> {
        &self.arenas[idx]
    }

    /// The arena at `idx` (mutable).
    pub fn arena_mut(&mut self, idx: usize) -> &mut Arena<B> {
        &mut self.arenas[idx]
    }

    /// Iterates the arenas.
    pub fn iter(&self) -> impl Iterator<Item = &Arena<B>> {
        self.arenas.iter()
    }

    /// Runs one scheduler round: plans the batch from per-arena
    /// pressure, and if any arena is due, sweeps the whole batch through
    /// one pooled mark. Returns an empty report when nothing was due.
    pub fn sweep_round(&mut self) -> RoundReport {
        let states: Vec<(bool, u64)> = self
            .arenas
            .iter()
            .map(|a| (a.sweep_needed(), a.pressure()))
            .collect();
        let batch = self.sched.plan_round(&states);
        self.run_round(&batch)
    }

    /// Sweeps **every** arena in one pooled round regardless of
    /// pressure (manual trigger; exploit scenarios and tests).
    pub fn sweep_all(&mut self) -> RoundReport {
        let batch: Vec<usize> = (0..self.arenas.len()).collect();
        self.run_round(&batch)
    }

    /// Executes one batched round over explicit arena indices: start
    /// every sweep (locking each arena's quarantine generation), pool
    /// all mark plans through one work-stealing cursor, then finish each
    /// sweep with its own pooled stats.
    fn run_round(&mut self, batch: &[usize]) -> RoundReport {
        if batch.is_empty() {
            return RoundReport::default();
        }
        for &i in batch {
            let a = &mut self.arenas[i];
            let (ms, space) = a.split_mut();
            ms.start_sweep(space);
        }
        let (per_job, wall_ns, helpers) = {
            let jobs: Vec<_> = batch
                .iter()
                .map(|&i| {
                    let a = &self.arenas[i];
                    a.ms.pooled_mark_job(&a.space)
                })
                .collect();
            let plan_bytes: u64 = jobs.iter().map(|j| j.plan.total_bytes()).sum();
            let helper_threads =
                self.helpers.min((plan_bytes / HELPER_MIN_BYTES).saturating_sub(1) as usize);
            let opts = PoolMarkOpts { helper_threads, ..Default::default() };
            let t0 = std::time::Instant::now();
            let result = parallel_mark_pool(&jobs, &opts);
            let wall_ns = t0.elapsed().as_nanos() as u64;
            (result.per_job, wall_ns, result.effective_helpers)
        };
        let swept = batch
            .iter()
            .zip(&per_job)
            .map(|(&i, mark)| {
                let (ms, space) = self.arenas[i].split_mut();
                (ms.arena_id(), ms.finish_sweep_premarked(space, mark, wall_ns))
            })
            .collect();
        RoundReport { swept, mark_wall_ns: wall_ns, effective_helpers: helpers }
    }
}

impl<B: HeapBackend> Arena<B> {
    /// Splits the arena into its layer and space for calls needing both
    /// mutably.
    pub fn split_mut(&mut self) -> (&mut MineSweeper<ArenaBackend<B>>, &mut AddrSpace) {
        (&mut self.ms, &mut self.space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_ids_tag_every_shard() {
        let a = Arena::new(ArenaId::new(3), MsConfig::fully_concurrent());
        assert_eq!(a.id(), ArenaId::new(3));
        assert_eq!(a.ms().arena_id(), ArenaId::new(3));
        assert_eq!(a.ms().quarantine().arena(), ArenaId::new(3));
        assert_eq!(a.ms().shadow().arena(), ArenaId::new(3));
        assert_eq!(a.id().label(), "a3");
    }

    #[test]
    fn single_arena_layer_is_root() {
        let ms = MineSweeper::new(MsConfig::fully_concurrent());
        assert_eq!(ms.arena_id(), ArenaId::ROOT);
        assert_eq!(ms.quarantine().arena(), ArenaId::ROOT);
    }

    #[test]
    fn scheduler_waits_for_a_due_arena() {
        let mut sched = SweepScheduler::default();
        // Plenty of pressure, nobody due: no round.
        assert!(sched.plan_round(&[(false, 900), (false, 800)]).is_empty());
        assert_eq!(sched.rounds(), 0);
    }

    #[test]
    fn scheduler_coalesces_and_orders_by_pressure() {
        let mut sched = SweepScheduler::default();
        // a1 due; a3 above the coalesce bar; a0/a2 below it.
        let batch =
            sched.plan_round(&[(false, 100), (true, 1200), (false, 499), (false, 700)]);
        assert_eq!(batch, vec![1, 3]);
        assert_eq!(sched.scheduled(), 2);
        assert_eq!(sched.coalesced(), 1);
    }

    #[test]
    fn scheduler_max_batch_keeps_highest_pressure() {
        let mut sched =
            SweepScheduler::new(SchedPolicy { coalesce_permille: 0, max_batch: 2 });
        let batch = sched.plan_round(&[(true, 1000), (false, 400), (true, 1500)]);
        assert_eq!(batch, vec![2, 0]);
    }

    #[test]
    fn pooled_round_sweeps_due_arenas() {
        let mut pool = ArenaPool::new(2, MsConfig::fully_concurrent());
        // Arena 0: enough frees to trip its trigger. Arena 1: idle.
        for _ in 0..64 {
            let p = pool.arena_mut(0).malloc(4096);
            pool.arena_mut(0).space_mut().write_word(p, 1).unwrap();
            pool.arena_mut(0).free(p);
        }
        assert!(pool.arena(0).sweep_needed());
        let round = pool.sweep_round();
        assert_eq!(round.swept.len(), 1);
        assert_eq!(round.swept[0].0, ArenaId::new(0));
        assert!(round.swept[0].1.released > 0);
        assert!(!pool.arena(0).sweep_needed(), "round cleared the trigger");
        // Nothing due any more: the next round is empty.
        assert!(pool.sweep_round().swept.is_empty());
    }

    #[test]
    fn pooled_round_matches_standalone_decisions() {
        // Two arenas, one with a dangling heap pointer: the batched round
        // must release/retain exactly like standalone sweeps.
        let cfg = MsConfig::fully_concurrent();
        let mut pool = ArenaPool::new(2, cfg);
        let victim = pool.arena_mut(0).malloc(64);
        let holder = pool.arena_mut(0).malloc(64);
        pool.arena_mut(0).space_mut().write_word(holder, victim.raw()).unwrap();
        pool.arena_mut(0).free(victim);
        let clean = pool.arena_mut(1).malloc(64);
        pool.arena_mut(1).free(clean);
        let round = pool.sweep_all();
        let by_id: std::collections::HashMap<_, _> = round.swept.into_iter().collect();
        assert_eq!(by_id[&ArenaId::new(0)].failed, 1, "dangling pointer pins");
        assert_eq!(by_id[&ArenaId::new(1)].released, 1, "clean arena releases");
    }

    #[test]
    fn arena_labels_roundtrip() {
        for k in [0u32, 1, 9, 10, 4095] {
            let id = ArenaId::new(k);
            assert_eq!(ArenaId::from_label(&id.label()), Some(id));
        }
        assert_eq!(ArenaId::from_label("a"), None);
        assert_eq!(ArenaId::from_label("a01"), None);
        assert_eq!(ArenaId::from_label("b3"), None);
        assert_eq!(ArenaId::from_label("none"), None);
    }

    #[test]
    fn helpers_scale_with_round_size() {
        // A helper per HELPER_MIN_BYTES of pooled plan beyond the
        // caller's share, within the request and the hardware.
        let mut pool = ArenaPool::new(2, MsConfig::fully_concurrent());
        pool.set_helpers(7);
        let small = pool.arena_mut(0).malloc(64);
        pool.arena_mut(0).free(small);
        assert_eq!(pool.sweep_all().effective_helpers, 0, "a small round marks on the caller");
        // A live 12 MiB object puts its extent in the plan (unbacked, so
        // cheap to skip): three threads' worth.
        let _big = pool.arena_mut(1).malloc(3 * HELPER_MIN_BYTES);
        let round = pool.sweep_all();
        assert_eq!(round.effective_helpers, crate::sweep::effective_helper_count(2));
    }

    #[test]
    fn shared_root_pointer_pins_across_arenas() {
        // The multi-tenant model: stacks/globals are shared process
        // state. A root word in arena A holding an address in arena B's
        // quarantine pins B's entry during a pooled round.
        let mut pool = ArenaPool::new(2, MsConfig::fully_concurrent());
        let victim = pool.arena_mut(1).malloc(64);
        pool.arena_mut(1).free(victim);
        let stack = {
            let a = pool.arena(0);
            a.space().layout().segment_base(vmem::Segment::Stack)
        };
        pool.arena_mut(0).space_mut().write_word(stack, victim.raw()).unwrap();
        let round = pool.sweep_all();
        let by_id: std::collections::HashMap<_, _> = round.swept.into_iter().collect();
        assert_eq!(by_id[&ArenaId::new(1)].failed, 1, "cross-arena root pin");
        // Erase the root pointer: the next round releases it.
        pool.arena_mut(0).space_mut().write_word(stack, 0).unwrap();
        let round = pool.sweep_all();
        let by_id: std::collections::HashMap<_, _> = round.swept.into_iter().collect();
        assert_eq!(by_id[&ArenaId::new(1)].released, 1);
    }
}
