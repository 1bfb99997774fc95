//! Bench-trajectory comparison: noise-aware per-config deltas between two
//! bench metrics snapshots (`ms-report --compare old.json new.json`).
//!
//! The bench exports one `bench/<config>_us` log2 histogram per config
//! (one observation per rep; `sum` and `count` are exact, so the mean is
//! exact) plus `bench/<config>_best_us` (fastest rep) and
//! `bench/<config>_degraded` counters and host facts (`bench/host_cpus`,
//! `bench/scan_tier_<tier>`). A config counts as regressed when its
//! best-rep time got slower by more than both the caller's threshold and
//! the run's own measured noise — and it was not `degraded` (a parallel
//! row the hardware clamped to zero helpers measures nothing real).

use crate::registry::Snapshot;

/// Default regression threshold: 5% on the best-rep time.
pub const DEFAULT_THRESHOLD_PCT: f64 = 5.0;

/// Schema of `BENCH_trajectory.jsonl` lines: `sweep_bandwidth
/// --trajectory` writes it and `ms-report --trajectory` accepts only it.
pub const TRAJECTORY_SCHEMA: u64 = 1;

/// One config's old-vs-new comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfigDelta {
    /// Config name (the `<config>` in `bench/<config>_us`).
    pub name: String,
    /// Fastest rep in the old snapshot, µs (mean when no best counter).
    pub old_best_us: f64,
    /// Fastest rep in the new snapshot, µs (mean when no best counter).
    pub new_best_us: f64,
    /// Mean rep in the old snapshot, µs.
    pub old_mean_us: f64,
    /// Mean rep in the new snapshot, µs.
    pub new_mean_us: f64,
    /// Relative change of the best-rep time, percent (positive = slower).
    pub delta_pct: f64,
    /// Measured rep-to-rep noise: the worse of the two runs'
    /// `(mean/best - 1)`, percent.
    pub noise_pct: f64,
    /// Whether either run flagged the config degraded (zero effective
    /// helpers on a parallel row).
    pub degraded: bool,
    /// Whether this row regressed beyond threshold and noise.
    pub regressed: bool,
}

/// The full comparison: per-config rows plus host like-for-like checks.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CompareReport {
    /// One row per config present in both snapshots, in the new
    /// snapshot's order.
    pub rows: Vec<ConfigDelta>,
    /// Host facts that differ between the snapshots (CPU count, scan
    /// tier) — deltas across different hosts are not like-for-like.
    pub host_mismatches: Vec<String>,
    /// Configs present in only one snapshot (reported, never gated on).
    pub unmatched: Vec<String>,
}

impl CompareReport {
    /// Rows that regressed (non-degraded, beyond threshold and noise).
    pub fn regressions(&self) -> Vec<&ConfigDelta> {
        self.rows.iter().filter(|r| r.regressed).collect()
    }

    /// Whether the comparison crossed hosts (gate decisions should treat
    /// regressions as warnings then).
    pub fn cross_host(&self) -> bool {
        !self.host_mismatches.is_empty()
    }

    /// Renders the `ms-report --compare` table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.host_mismatches {
            out.push_str(&format!("warning: host mismatch: {m}\n"));
        }
        out.push_str(
            "config                        old_best_us  new_best_us   delta    noise   verdict\n",
        );
        for r in &self.rows {
            let verdict = if r.degraded {
                "skip (degraded)"
            } else if r.regressed {
                "REGRESSED"
            } else {
                "ok"
            };
            out.push_str(&format!(
                "{:<28}  {:>11.1}  {:>11.1}  {:>+6.1}%  {:>5.1}%  {verdict}\n",
                r.name, r.old_best_us, r.new_best_us, r.delta_pct, r.noise_pct
            ));
        }
        for name in &self.unmatched {
            out.push_str(&format!("{name:<28}  (present in only one snapshot)\n"));
        }
        let n = self.regressions().len();
        out.push_str(&format!(
            "{} configs compared, {n} regressed\n",
            self.rows.len()
        ));
        out
    }
}

fn strip_us(name: &str) -> Option<&str> {
    name.strip_suffix("_us").filter(|s| !s.ends_with("_best"))
}

fn config_stats(snap: &Snapshot, config: &str) -> Option<(f64, f64)> {
    let h = snap.histogram("bench", &format!("{config}_us")).filter(|h| h.count() > 0)?;
    let mean = h.sum as f64 / h.count() as f64;
    // A degraded run's best-rep counter timed a hardware-clamped,
    // helperless configuration — letting it stand in for the config would
    // let a multi-core host trip the gate against a 1-CPU baseline (or a
    // 1-CPU host mask a real regression). Degraded rows fall back to the
    // histogram mean and are additionally excluded from gating below.
    let best = if degraded(snap, config) {
        mean
    } else {
        snap.counter("bench", &format!("{config}_best_us")).map_or(mean, |b| b as f64)
    };
    Some((best, mean))
}

fn degraded(snap: &Snapshot, config: &str) -> bool {
    snap.counter("bench", &format!("{config}_degraded")).unwrap_or(0) > 0
}

/// Compares two bench metrics snapshots. `threshold_pct` is the minimum
/// relative slowdown of the best-rep time to call a regression (use
/// [`DEFAULT_THRESHOLD_PCT`]); the effective bar per config is
/// `max(threshold_pct, noise_pct)`.
pub fn compare(old: &Snapshot, new: &Snapshot, threshold_pct: f64) -> CompareReport {
    let mut report = CompareReport::default();

    // Host like-for-like checks over the bench host facts.
    let cpus = |s: &Snapshot| s.counter("bench", "host_cpus");
    if let (Some(a), Some(b)) = (cpus(old), cpus(new)) {
        if a != b {
            report.host_mismatches.push(format!("old ran on {a} CPUs, new on {b}"));
        }
    }
    let tier = |s: &Snapshot| {
        s.counters
            .iter()
            .find(|c| {
                c.subsystem == "bench" && c.name.starts_with("scan_tier_") && c.value > 0
            })
            .map(|c| c.name["scan_tier_".len()..].to_owned())
    };
    if let (Some(a), Some(b)) = (tier(old), tier(new)) {
        if a != b {
            report
                .host_mismatches
                .push(format!("old ran scan tier {a}, new ran {b}"));
        }
    }

    for h in &new.histograms {
        if h.subsystem != "bench" {
            continue;
        }
        let Some(config) = strip_us(&h.name) else { continue };
        let Some((new_best, new_mean)) = config_stats(new, config) else { continue };
        let Some((old_best, old_mean)) = config_stats(old, config) else {
            report.unmatched.push(config.to_owned());
            continue;
        };
        let delta_pct = if old_best > 0.0 {
            (new_best - old_best) / old_best * 100.0
        } else {
            0.0
        };
        let spread = |mean: f64, best: f64| {
            if best > 0.0 {
                (mean / best - 1.0) * 100.0
            } else {
                0.0
            }
        };
        let noise_pct = spread(old_mean, old_best).max(spread(new_mean, new_best));
        let degraded = degraded(old, config) || degraded(new, config);
        let regressed = !degraded && delta_pct > threshold_pct.max(noise_pct);
        report.rows.push(ConfigDelta {
            name: config.to_owned(),
            old_best_us: old_best,
            new_best_us: new_best,
            old_mean_us: old_mean,
            new_mean_us: new_mean,
            delta_pct,
            noise_pct,
            degraded,
            regressed,
        });
    }
    for h in &old.histograms {
        if h.subsystem != "bench" {
            continue;
        }
        let Some(config) = strip_us(&h.name) else { continue };
        if new.histogram("bench", &h.name).is_none() {
            report.unmatched.push(config.to_owned());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    /// Builds a bench-shaped snapshot: per-config rep times in µs plus
    /// host facts.
    fn bench_snapshot(configs: &[(&str, &[u64], bool)], cpus: u64, tier: &str) -> Snapshot {
        let reg = Registry::new();
        reg.counter("bench", "host_cpus").add(cpus);
        reg.counter("bench", &format!("scan_tier_{tier}")).add(1);
        for (name, reps, degraded) in configs {
            let h = reg.histogram("bench", &format!("{name}_us"));
            for &r in *reps {
                h.record(r);
            }
            reg.counter("bench", &format!("{name}_best_us"))
                .add(reps.iter().copied().min().unwrap_or(0));
            if *degraded {
                reg.counter("bench", &format!("{name}_degraded")).inc();
            }
        }
        reg.snapshot()
    }

    #[test]
    fn synthetic_ten_percent_slowdown_is_flagged() {
        // Tight reps (≈1% noise), then a clean 10% slowdown: the gate must
        // fire with the default 5% threshold.
        let old = bench_snapshot(&[("simd_serial", &[1000, 1005, 1010], false)], 1, "avx2");
        let new = bench_snapshot(&[("simd_serial", &[1100, 1105, 1111], false)], 1, "avx2");
        let report = compare(&old, &new, DEFAULT_THRESHOLD_PCT);
        assert!(report.host_mismatches.is_empty());
        assert_eq!(report.rows.len(), 1);
        let r = &report.rows[0];
        assert!((r.delta_pct - 10.0).abs() < 0.5, "{r:?}");
        assert!(r.noise_pct < 2.0, "{r:?}");
        assert!(r.regressed, "{r:?}");
        assert_eq!(report.regressions().len(), 1);
        let table = report.render();
        assert!(table.contains("REGRESSED"), "{table}");
        assert!(table.contains("1 regressed"), "{table}");
    }

    #[test]
    fn noise_and_improvements_do_not_flag() {
        // A 3% wobble under the 5% threshold: ok.
        let old = bench_snapshot(&[("a", &[1000, 1001], false)], 1, "swar");
        let new = bench_snapshot(&[("a", &[1030, 1032], false)], 1, "swar");
        assert!(compare(&old, &new, DEFAULT_THRESHOLD_PCT).regressions().is_empty());

        // A 20% slowdown inside a ~27% measured noise band: ok.
        let old = bench_snapshot(&[("b", &[1000, 1400, 1400], false)], 1, "swar");
        let new = bench_snapshot(&[("b", &[1200, 1500, 1560], false)], 1, "swar");
        let report = compare(&old, &new, DEFAULT_THRESHOLD_PCT);
        assert!(report.rows[0].noise_pct > 25.0, "{:?}", report.rows[0]);
        assert!(report.regressions().is_empty());

        // A 10% speedup: negative delta never flags.
        let old = bench_snapshot(&[("c", &[1000], false)], 1, "swar");
        let new = bench_snapshot(&[("c", &[900], false)], 1, "swar");
        assert!(compare(&old, &new, DEFAULT_THRESHOLD_PCT).regressions().is_empty());
    }

    #[test]
    fn degraded_rows_are_skipped_and_hosts_are_checked() {
        let old = bench_snapshot(
            &[("steal_parallel_h6", &[1000], true), ("simd_serial", &[1000], false)],
            1,
            "avx2",
        );
        let new = bench_snapshot(
            &[("steal_parallel_h6", &[2000], true), ("simd_serial", &[1500], false)],
            8,
            "swar",
        );
        let report = compare(&old, &new, DEFAULT_THRESHOLD_PCT);
        let steal = report.rows.iter().find(|r| r.name == "steal_parallel_h6").unwrap();
        assert!(steal.degraded && !steal.regressed, "degraded rows never gate");
        let simd = report.rows.iter().find(|r| r.name == "simd_serial").unwrap();
        assert!(simd.regressed);
        assert!(report.cross_host());
        assert_eq!(report.host_mismatches.len(), 2, "{:?}", report.host_mismatches);
        let table = report.render();
        assert!(table.contains("skip (degraded)"), "{table}");
        assert!(table.contains("host mismatch"), "{table}");
    }

    #[test]
    fn unmatched_configs_are_reported_not_gated() {
        let old = bench_snapshot(&[("gone", &[100], false)], 1, "swar");
        let new = bench_snapshot(&[("fresh", &[100], false)], 1, "swar");
        let report = compare(&old, &new, DEFAULT_THRESHOLD_PCT);
        assert!(report.rows.is_empty());
        assert!(report.regressions().is_empty());
        assert_eq!(report.unmatched, vec!["fresh".to_owned(), "gone".to_owned()]);
    }

    #[test]
    fn degraded_best_counters_never_represent_a_config() {
        // A 1-CPU CI container records a parallel row as degraded: its
        // _best_us timed a clamped, helperless run. A multi-core host
        // comparing against that baseline must neither trip the gate on
        // the bogus number nor let it mask a real regression — the row's
        // stats fall back to the histogram mean and gating skips it.
        let old = bench_snapshot(&[("steal_parallel_h6", &[4000, 4100], true)], 1, "swar");
        let new =
            bench_snapshot(&[("steal_parallel_h6", &[1000, 1050], false)], 8, "avx2");
        let report = compare(&old, &new, DEFAULT_THRESHOLD_PCT);
        let r = &report.rows[0];
        assert!(r.degraded && !r.regressed, "{r:?}");
        assert!((r.old_best_us - 4050.0).abs() < 1e-9, "mean, not the counter: {r:?}");
        assert!((r.new_best_us - 1000.0).abs() < 1e-9, "clean side keeps its best: {r:?}");

        // The reverse direction — a regression hiding behind a degraded
        // new run — is likewise skipped, not reported as ok.
        let report = compare(&new, &old, DEFAULT_THRESHOLD_PCT);
        assert!(report.rows[0].degraded && !report.rows[0].regressed);
        assert!(report.regressions().is_empty());
    }

    #[test]
    fn missing_best_counter_falls_back_to_mean() {
        // Old snapshots (pre-trajectory bench) carry only the histogram.
        let reg = Registry::new();
        let h = reg.histogram("bench", "simd_serial_us");
        h.record(1000);
        h.record(1000);
        let old = reg.snapshot();
        let new = bench_snapshot(&[("simd_serial", &[1200, 1210], false)], 1, "swar");
        let report = compare(&old, &new, DEFAULT_THRESHOLD_PCT);
        let r = &report.rows[0];
        assert!((r.old_best_us - 1000.0).abs() < 1e-9, "{r:?}");
        assert!(r.regressed, "20% up from the mean fallback: {r:?}");
    }
}
