//! The `sim-run` workload: `sim::Engine` replaying the churn stream,
//! MineSweeper against the jalloc baseline.
//!
//! The engine drives its own sweeps, so they are timed from its event
//! stream: a sink records each sweep's host lifetime (`SweepEnd.wall_ns`,
//! start of `start_sweep` to the end of `finish_sweep`, including the
//! mutator work interleaved with it) and the summed mark time
//! (`MarkPhase.wall_ns`).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use minesweeper::telemetry::{Event, EventKind, Sink};
use minesweeper::LAYER_SUBSYSTEM;
use sim::{CostLedger, Engine, RunMetrics, System};
use workloads::{Op, Profile};

use crate::calib::{Calibrator, WINDOW_OPS};
use crate::replay::{Pass, RoundLog};
use crate::spans::{Name, Spans};
use crate::{Core, Input, Iteration};

/// Kernel runs before and after each engine run.
const SIDE_RUNS: usize = 4;

#[derive(Debug, Default)]
struct SweepTimes {
    lifetimes_ns: Vec<u64>,
    mark_ns: u64,
}

/// A trace sink that keeps only sweep timings.
#[derive(Clone, Debug, Default)]
struct SweepClock(Arc<Mutex<SweepTimes>>);

impl Sink for SweepClock {
    fn record(&mut self, event: &Event) {
        let mut t = self.0.lock().expect("sweep clock poisoned");
        match event.kind {
            EventKind::SweepEnd { wall_ns, .. } => t.lifetimes_ns.push(wall_ns),
            EventKind::MarkPhase { wall_ns, .. } => t.mark_ns += wall_ns,
            _ => {}
        }
    }
}

/// The op stream, stamping the time every [`WINDOW_OPS`] ops the engine
/// pulls, so engine runs split into the same windows in every iteration.
struct Windowed<'a, I> {
    ops: I,
    n: u64,
    marks: &'a mut Vec<Instant>,
}

impl<I: Iterator<Item = Op>> Iterator for Windowed<'_, I> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        self.n += 1;
        if self.n.is_multiple_of(WINDOW_OPS) {
            self.marks.push(Instant::now());
        }
        self.ops.next()
    }
}

/// Builds both engines (timed as part of set-up).
pub fn construct(profile: &Profile, seed: u64) {
    for system in [System::minesweeper_default(), System::Baseline] {
        drop(std::hint::black_box(Engine::new(profile, system, seed)));
    }
}

fn engine_pass(
    input: &Input,
    system: System,
    spans: &mut Spans,
    mut calib: Option<&mut Calibrator>,
) -> (RunMetrics, Pass) {
    let p = &input.programs[0];
    let clock = SweepClock::default();
    // The engine cannot pause mid-run for the kernel: bracket the run
    // with a few kernel runs on each side instead.
    let first = calib.as_deref_mut().map(|c| {
        let first = c.sample();
        for _ in 1..SIDE_RUNS {
            c.sample();
        }
        first
    });
    spans.begin(Name::Replay);
    let mut engine = spans.span(Name::SimNew, || Engine::new(&p.profile, system, p.seed));
    engine.set_trace_sink(Box::new(clock.clone()), false);
    let mut marks = vec![Instant::now()];
    let ops = Windowed {
        ops: input.steps.iter().map(|&(_, op)| op),
        n: 0,
        marks: &mut marks,
    };
    let m = spans.span(Name::SimRun, move || engine.run_ops(ops));
    marks.push(Instant::now());
    spans.end();
    let factor = match (calib, first) {
        (Some(c), Some(first)) => {
            for _ in 0..SIDE_RUNS {
                c.sample();
            }
            c.factor_since(first)
        }
        _ => 1.0,
    };
    let times = std::mem::take(&mut *clock.0.lock().expect("sweep clock poisoned"));
    let mut log = RoundLog::default();
    log.rounds_ns = times.lifetimes_ns;
    log.mark_wall_ns = times.mark_ns;
    let mut pass = Pass {
        mallocs: m.allocs,
        frees: m.frees,
        windows_ns: marks
            .windows(2)
            .map(|w| (w[1] - w[0]).as_nanos() as f64)
            .collect(),
        peak_rss: m.peak_rss,
        avg_rss: m.avg_rss(),
        log,
        ..Pass::default()
    };
    pass.scale(factor);
    (m, pass)
}

pub fn iterate(
    input: &Input,
    spans: &mut Spans,
    mut calib: Option<&mut Calibrator>,
    errors: &mut Vec<String>,
) -> Iteration {
    let (m, def) = engine_pass(
        input,
        System::minesweeper_default(),
        spans,
        calib.as_deref_mut(),
    );
    let (_, base) = engine_pass(input, System::Baseline, spans, calib);
    let mut core = Core::default();
    match &m.telemetry {
        Some(snap) => {
            let c = |name: &str| snap.counter(LAYER_SUBSYSTEM, name).unwrap_or(0);
            core.sweeps = c("sweeps");
            core.quarantined = c("quarantined");
            core.released = c("released");
            core.failed_frees = c("failed_frees");
            core.zeroed_bytes = c("zeroed_bytes");
            core.unmapped_pages = c("unmapped_pages");
            core.swept_bytes = c("swept_bytes");
            core.skipped_bytes = c("skipped_bytes");
            core.filter_rejects = c("filter_rejects");
            core.heap_words = c("heap_words");
            match CostLedger::from_snapshot(snap) {
                Some(ledger) => errors.extend(ledger.reconcile()),
                None => errors.push("sim-run: the engine exported no cost ledger".into()),
            }
        }
        None => errors.push("sim-run: the defended engine exported no telemetry".into()),
    }
    Iteration {
        traced: false,
        def,
        base,
        core,
        coalesced: 0,
    }
}
