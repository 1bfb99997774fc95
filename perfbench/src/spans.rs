//! In-memory spans around every call the benchmark makes into the system
//! under test, and the per-layer self-time breakdown computed from them.
//!
//! A span carries a name, start, end and parent. Self time (a span's
//! duration minus the part its child spans cover) is folded in as each
//! span closes, so the layer totals plus the benchmark's own remainder add
//! up to the root spans' wall time exactly, in integer nanoseconds.

use std::fmt::Write as _;
use std::time::Instant;

/// The calls the benchmark times. The text before the first `.` of a
/// label names the layer the call belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Name {
    /// One column's whole replay (root span; its self time is the
    /// benchmark's own work: mutator bookkeeping and the reuse oracle).
    Replay,
    CoreMalloc,
    CoreFree,
    CoreNeeded,
    CoreStart,
    CoreStep,
    CoreFinish,
    CorePurge,
    JallocMalloc,
    JallocFree,
    JallocPurge,
    VmemStore,
    ArenaRound,
    SimNew,
    SimRun,
}

impl Name {
    pub const ALL: [Name; 15] = [
        Name::Replay,
        Name::CoreMalloc,
        Name::CoreFree,
        Name::CoreNeeded,
        Name::CoreStart,
        Name::CoreStep,
        Name::CoreFinish,
        Name::CorePurge,
        Name::JallocMalloc,
        Name::JallocFree,
        Name::JallocPurge,
        Name::VmemStore,
        Name::ArenaRound,
        Name::SimNew,
        Name::SimRun,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Name::Replay => "bench.replay",
            Name::CoreMalloc => "core.malloc",
            Name::CoreFree => "core.free",
            Name::CoreNeeded => "core.sweep_needed",
            Name::CoreStart => "core.start_sweep",
            Name::CoreStep => "core.sweep_step",
            Name::CoreFinish => "core.finish_sweep",
            Name::CorePurge => "core.decay_purge",
            Name::JallocMalloc => "jalloc.malloc",
            Name::JallocFree => "jalloc.free",
            Name::JallocPurge => "jalloc.purge_aged",
            Name::VmemStore => "vmem.write_word",
            Name::ArenaRound => "arena.sweep_round",
            Name::SimNew => "sim.new",
            Name::SimRun => "sim.run_ops",
        }
    }

    pub fn layer(self) -> Layer {
        match self {
            Name::Replay => Layer::Bench,
            Name::CoreMalloc
            | Name::CoreFree
            | Name::CoreNeeded
            | Name::CoreStart
            | Name::CoreStep
            | Name::CoreFinish
            | Name::CorePurge => Layer::Core,
            Name::JallocMalloc | Name::JallocFree | Name::JallocPurge => Layer::Jalloc,
            Name::VmemStore => Layer::Vmem,
            Name::ArenaRound => Layer::Arena,
            Name::SimNew | Name::SimRun => Layer::Sim,
        }
    }
}

/// The layers self time is attributed to; `Bench` is the benchmark's own
/// remainder.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    Bench,
    Core,
    Jalloc,
    Vmem,
    Arena,
    Sim,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Bench,
        Layer::Core,
        Layer::Jalloc,
        Layer::Vmem,
        Layer::Arena,
        Layer::Sim,
    ];
}

/// One closed span, kept for the span file.
#[derive(Clone, Copy, Debug)]
struct Span {
    name: Name,
    /// Index of the parent span in `raw`, or `u32::MAX` for a root.
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// A span still open: its child time accumulates as children close.
#[derive(Clone, Copy, Debug)]
struct Open {
    name: Name,
    raw: u32,
    start_ns: u64,
    child_ns: u64,
}

/// Spans kept verbatim for the span file; the rest are folded into the
/// aggregates only, which keeps a multi-million-span run small.
const RAW_SPANS_KEPT: usize = 100_000;

/// The span recorder. When off, [`Spans::span`] is one branch around the
/// call; [`Spans::timed`] still measures the call's duration.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    open: Vec<Open>,
    raw: Vec<Span>,
    /// Per [`Name`]: durations (ns, saturated to `u32`) for percentiles.
    durations: Vec<Vec<u32>>,
    /// Per [`Name`]: exact summed duration.
    total_ns: Vec<u64>,
    /// Per [`Layer`]: summed self time.
    self_ns: Vec<u64>,
    /// Summed duration of root spans: the traced wall time.
    wall_ns: u64,
    count: u64,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            open: Vec::new(),
            raw: Vec::new(),
            durations: vec![Vec::new(); Name::ALL.len()],
            total_ns: vec![0; Name::ALL.len()],
            self_ns: vec![0; Layer::ALL.len()],
            wall_ns: 0,
            count: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled with spans open");
        self.on = on;
    }

    /// Runs `f`, recording a span around it when tracing is on.
    #[inline]
    pub fn span<R>(&mut self, name: Name, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.open(name);
        let r = f();
        self.close();
        r
    }

    /// Runs `f` and returns its host duration in nanoseconds, recording a
    /// span around it when tracing is on.
    #[inline]
    pub fn timed<R>(&mut self, name: Name, f: impl FnOnce() -> R) -> (R, u64) {
        if !self.on {
            let t0 = Instant::now();
            let r = f();
            return (r, t0.elapsed().as_nanos() as u64);
        }
        self.open(name);
        let r = f();
        (r, self.close())
    }

    /// Opens a span that later calls nest under, when tracing is on.
    pub fn begin(&mut self, name: Name) {
        if self.on {
            self.open(name);
        }
    }

    /// Closes the span [`Spans::begin`] opened.
    pub fn end(&mut self) {
        if self.on {
            self.close();
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: Name) {
        let parent = self.open.last().map_or(u32::MAX, |o| o.raw);
        let start_ns = self.now_ns();
        let raw = if self.raw.len() < RAW_SPANS_KEPT {
            self.raw.push(Span {
                name,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            (self.raw.len() - 1) as u32
        } else {
            u32::MAX
        };
        self.open.push(Open {
            name,
            raw,
            start_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost span and returns its duration.
    fn close(&mut self) -> u64 {
        let end_ns = self.now_ns();
        let o = self.open.pop().expect("close without open");
        let dur = end_ns - o.start_ns;
        if let Some(s) = self.raw.get_mut(o.raw as usize) {
            s.end_ns = end_ns;
        }
        let i = o.name as usize;
        self.durations[i].push(dur.min(u64::from(u32::MAX)) as u32);
        self.total_ns[i] += dur;
        self.self_ns[o.name.layer() as usize] += dur - o.child_ns;
        self.count += 1;
        match self.open.last_mut() {
            Some(parent) => parent.child_ns += dur,
            None => self.wall_ns += dur,
        }
        dur
    }

    /// Summed duration of every `name` span, in nanoseconds.
    pub fn total_ns(&self, name: Name) -> u64 {
        self.total_ns[name as usize]
    }

    /// The `q` quantile of `name`'s span durations, in nanoseconds.
    pub fn quantile_ns(&self, name: Name, q: f64) -> f64 {
        let mut d: Vec<u64> = self.durations[name as usize]
            .iter()
            .map(|&x| x.into())
            .collect();
        d.sort_unstable();
        crate::stats::quantile_truncated(&d, q)
    }

    /// Self time attributed to `layer`, in nanoseconds.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }

    /// Summed duration of the root spans: the traced wall time.
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The span file: a per-name summary, then the first spans verbatim
    /// (`index name parent start_ns end_ns`, times from recorder start).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# spans: {} recorded, first {} kept",
            self.count,
            self.raw.len()
        );
        let _ = writeln!(out, "# name\tcount\ttotal_ns");
        for name in Name::ALL {
            let _ = writeln!(
                out,
                "# {}\t{}\t{}",
                name.label(),
                self.durations[name as usize].len(),
                self.total_ns[name as usize]
            );
        }
        let _ = writeln!(out, "index\tname\tparent\tstart_ns\tend_ns");
        for (i, s) in self.raw.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}",
                s.name.label(),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_wall() {
        let mut s = Spans::new(true);
        s.begin(Name::Replay);
        std::hint::black_box((0..1000).sum::<u64>());
        s.span(Name::CoreMalloc, || std::hint::black_box(1));
        s.span(Name::VmemStore, || std::hint::black_box(2));
        s.end();
        let sum: u64 = Layer::ALL.iter().map(|&l| s.self_ns(l)).sum();
        assert_eq!(sum, s.wall_ns());
        assert_eq!(s.count(), 3);
        assert!(s.render().contains("core.malloc"));
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut s = Spans::new(false);
        s.begin(Name::Replay);
        let (v, _ns) = s.timed(Name::CoreStart, || 7);
        s.end();
        assert_eq!(v, 7);
        assert_eq!(s.count(), 0);
        assert_eq!(s.wall_ns(), 0);
    }
}
