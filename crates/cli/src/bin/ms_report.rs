//! `ms-report`: summarise a sweep-lifecycle trace (and optional metrics
//! snapshot) produced by `minesweeper-sim run --trace-out/--metrics-out`,
//! check a metrics snapshot against an SLO policy, or compare two bench
//! metrics snapshots for regressions.

use std::process::ExitCode;

use ms_cli::{CliError, ReportOpts};

const USAGE: &str = "\
ms-report — summarise MineSweeper sweep-lifecycle traces

USAGE:
    ms-report <run.jsonl> [--metrics <metrics.json>] [--pinners] [--failed-frees]
    ms-report --metrics <metrics.json>
    ms-report --slo <spec> --metrics <metrics.json>
    ms-report --compare <old.json> <new.json> [--threshold <pct>]
    ms-report --security <matrix.json> [--baseline <matrix.json>]
    ms-report --costs <metrics.json> [<run.jsonl>]
    ms-report --trajectory <trajectory.jsonl>
    (every form but --compare and --trajectory also takes --check)

Prints a per-sweep timeline plus failed-free and quarantine tables from
the JSONL event stream; with --metrics also the engine's pause/STW/sweep
histograms. --pinners ranks allocation sites by the bytes their dangling
pointers pin in quarantine, and --failed-frees lists every entry still in
the failed-free ledger (both need a trace recorded with the `forensics`
config knob on).

Without a trace file, --metrics alone renders a multi-arena snapshot
(minesweeper-sim run --arenas N --metrics-out): the per-arena shard
table, the sweep-scheduler summary and each arena's pause histograms.

--slo evaluates the snapshot against a comma-separated objective spec
(stw=CYCLES,sweep=CYCLES,qratio=PERMILLE,util=PCT), prints a pass/fail
table and exits 2 on any violation.

--compare diffs two bench metrics snapshots (sweep_bandwidth
--metrics-out) config by config, prints per-config best/mean deltas with
the runs' measured noise, and exits 2 when a non-degraded config slowed
beyond both --threshold (default 5%) and the noise on a same-host pair.

--security renders the scenario x backend verdict matrix from a
SECURITY_matrix.json (minesweeper-sim exploit --corpus --out). With
--baseline it diffs the matrix against a committed baseline and exits 2
when a cell's verdict regressed, a baseline cell went missing, or any
minesweeper cell is compromised (the hard floor).

--costs renders the defence-cost attribution ledger from a metrics
snapshot (minesweeper-sim run --metrics-out): per-kind, per-site and
per-arena cycle tables with their share of cost/total_cycles, plus the
per-sweep cost distribution. An optional trace file joins the top sites
against the bytes they pin in quarantine (needs forensics).

--trajectory renders the per-config trend table from an append-only
BENCH_trajectory.jsonl history (sweep_bandwidth --trajectory): best_us
at the oldest and newest recorded revision per config, with degraded
samples marked.

--check runs, after the report, every conservation invariant the loaded
artifacts allow, each owned by the module that writes its numbers:
    trace + metrics         telemetry::RunReport::reconcile — event totals
                            vs layer counters, per-sweep scanned + skipped
                            bytes vs plan bytes, the forensic ledger
    metrics with arenas     sim::reconcile_arenas — shard counters vs the
                            arena/total_* globals
    metrics with a ledger   sim::CostLedger::reconcile — kind/site/arena
                            dimensions vs cost/total_cycles, kind counters
                            vs their histograms
    security matrix         sim::SecurityMatrix::reconcile — security/*
                            counters and per-cell defence bills recounted
                            from the cells
Each invariant that holds prints one pass line; a violation names the
invariant and every mismatched counter and exits 2. --check with nothing
to check (e.g. a trace without --metrics) is bad input.

EXIT CODES:
    0  success — report printed, every requested gate passed
    1  bad input — unreadable file, malformed document, unknown flag,
       --check with nothing to check
    2  gate failure — any --check invariant violation, SLO breach, bench
       regression, or security verdict regression
";

/// Exit code for a failed gate (an invariant violation, SLO breach, bench
/// or verdict regression) — distinct from 1, which means bad input.
const GATE_FAILED: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok((out, gate_ok)) => {
            print!("{out}");
            if gate_ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(GATE_FAILED)
            }
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(String, bool), CliError> {
    let mut trace = None;
    let mut metrics = None;
    let mut slo = None;
    let mut security = None;
    let mut baseline = None;
    let mut costs = None;
    let mut trajectory = None;
    let mut compare: Option<(String, String)> = None;
    let mut threshold = telemetry::DEFAULT_THRESHOLD_PCT;
    let mut check = false;
    let mut opts = ReportOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next().cloned().ok_or_else(|| CliError(format!("{arg} needs {what}")))
        };
        match arg.as_str() {
            "-h" | "--help" => return Ok((USAGE.to_string(), true)),
            "--metrics" => metrics = Some(value("a value")?),
            "--slo" => slo = Some(value("a spec")?),
            "--security" => security = Some(value("a value")?),
            "--baseline" => baseline = Some(value("a value")?),
            "--costs" => costs = Some(value("a metrics file")?),
            "--trajectory" => trajectory = Some(value("a history file")?),
            "--compare" => {
                let old = value("<old.json> <new.json>")?;
                compare = Some((old, value("<old.json> <new.json>")?));
            }
            "--threshold" => {
                threshold = value("a percentage")?
                    .parse()
                    .map_err(|_| CliError("--threshold must be a number".into()))?;
            }
            "--check" => check = true,
            "--pinners" => opts.pinners = true,
            "--failed-frees" => opts.failed_frees = true,
            flag if flag.starts_with('-') => {
                return Err(CliError(format!("unknown flag: {flag}")));
            }
            name => {
                if trace.replace(name.to_string()).is_some() {
                    return Err(CliError(format!("unexpected argument: {name}")));
                }
            }
        }
    }

    if baseline.is_some() && security.is_none() {
        return Err(CliError("--baseline needs --security <matrix.json>".into()));
    }
    if check && (trajectory.is_some() || compare.is_some()) {
        return Err(CliError("--check does not apply to --trajectory or --compare".into()));
    }
    if let Some(path) = trajectory {
        return Ok((ms_cli::render_trajectory(&read(&path)?)?, true));
    }
    if let Some((old, new)) = compare {
        let (out, regressed) = ms_cli::render_compare(&read(&old)?, &read(&new)?, threshold)?;
        return Ok((out, !regressed));
    }

    // Every other mode parses its artifacts once; the renderer and the
    // --check pass share them.
    let mut matrix = None;
    let mut report = None;
    let mut snap = None;
    let (mut out, mut gate_ok) = if let Some(path) = security {
        let new = read_matrix(&path)?;
        let mut out = ms_cli::render_security(&new);
        let mut gate_ok = true;
        if let Some(base) = baseline {
            let (gate, failed) = ms_cli::gate_security(&read_matrix(&base)?, &new);
            out.push_str(&gate);
            gate_ok = !failed;
        }
        matrix = Some(new);
        (out, gate_ok)
    } else {
        // --costs names its own metrics snapshot; the positional trace
        // file, when given, joins pinned bytes into its site table.
        if let Some(path) = costs.as_ref().or(metrics.as_ref()) {
            snap = Some(ms_cli::parse_metrics(&read(path)?)?);
        }
        if let Some(path) = &trace {
            report = Some(ms_cli::parse_trace(&read(path)?)?);
        }
        if let Some(spec) = slo {
            let snap =
                snap.as_ref().ok_or_else(|| CliError("--slo needs --metrics <file>".into()))?;
            let (out, breached) = ms_cli::render_slo(snap, &spec)?;
            (out, !breached)
        } else if costs.is_some() {
            (ms_cli::render_costs(snap.as_ref().expect("parsed above"), report.as_ref())?, true)
        } else if let Some(report) = &report {
            (ms_cli::render_report_with(report, snap.as_ref(), &opts), true)
        } else {
            // Metrics-only mode: a multi-arena snapshot report.
            let snap = snap.as_ref().ok_or_else(|| {
                CliError("ms-report needs a trace file or --metrics <file>".into())
            })?;
            if opts.pinners || opts.failed_frees {
                return Err(CliError("--pinners/--failed-frees need a trace file".into()));
            }
            (ms_cli::render_metrics_report(snap)?, true)
        }
    };
    if check {
        let (text, held) = ms_cli::check(report.as_ref(), snap.as_ref(), matrix.as_ref())?;
        out.push_str(&text);
        gate_ok &= held;
    }
    Ok((out, gate_ok))
}

fn read_matrix(path: &str) -> Result<sim::SecurityMatrix, CliError> {
    sim::SecurityMatrix::from_json(&read(path)?)
        .map_err(|e| CliError(format!("bad security matrix {path}: {e}")))
}

fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))
}
