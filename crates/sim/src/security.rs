//! The differential security matrix: every corpus scenario replayed
//! against every backend column, with verdicts, attack-window latency and
//! telemetry counters, serialised to the stable `SECURITY_matrix.json`
//! wire format the CI regression gate diffs.
//!
//! The runner is fully deterministic: scenario scripts are fixed or
//! seeded ([`workloads::exploit::fuzz_corpus`]), every backend's
//! randomness is seeded (Scudo), and [`SecurityMatrix::to_json`] emits
//! keys in a fixed order with counters sorted — so the same seed produces
//! a byte-identical document, which is what lets CI treat any diff
//! against the committed baseline as a real behaviour change.

use telemetry::{CostKind, Registry};
use workloads::exploit::{corpus, fuzz_corpus, validate, ExploitOutcome};

use crate::exploit::{run_scenario, DefenceCost, SecSystem, Weaken};

/// Registry subsystem for the corpus runner's counters.
pub const SECURITY_SUBSYSTEM: &str = "security";

/// Wire-format version of `SECURITY_matrix.json`. Schema 2 added the
/// per-cell `defence_cycles` total and `defence_kinds` breakdown.
pub const SECURITY_SCHEMA: u32 = 2;

/// Oldest schema readers must still accept. Schema-1 documents carry no
/// defence costs; they parse with all-zero bills.
pub const SECURITY_MIN_SCHEMA: u32 = 1;

/// One (scenario, backend) cell of the matrix.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SecCell {
    /// Scenario name (row).
    pub scenario: String,
    /// Backend label (column).
    pub backend: String,
    /// The verdict.
    pub outcome: ExploitOutcome,
    /// Whether the victim's address was handed out again after its free.
    pub victim_reallocated: bool,
    /// Successful frees until the victim's address was reused (`None`:
    /// the window never opened).
    pub attack_window: Option<u64>,
    /// Allocations the script performed on this backend.
    pub allocs: u64,
    /// Free attempts the script performed on this backend.
    pub frees: u64,
    /// Judged dangling accesses performed.
    pub judged: u64,
    /// MTE tag-mismatch detections raised.
    pub detections: u64,
    /// What defending this cell cost the backend, in model cycles
    /// (schema 2; zero for cells parsed from schema-1 documents).
    pub defence: DefenceCost,
}

/// The full matrix plus the run's provenance and telemetry.
#[derive(Clone, PartialEq, Debug)]
pub struct SecurityMatrix {
    /// Wire schema: [`SECURITY_SCHEMA`] for a fresh run, the declared one
    /// for a document parsed by [`SecurityMatrix::from_json`].
    pub schema: u32,
    /// Seed that drove the scenario fuzzer.
    pub seed: u64,
    /// Number of fuzzed scenarios appended to the named corpus.
    pub fuzz: u32,
    /// The weaken knob the run used (`"none"` for a real evaluation — a
    /// weakened run is permanently marked so it can never be mistaken for
    /// a baseline).
    pub weaken: String,
    /// Backend column labels, in matrix order.
    pub backends: Vec<String>,
    /// Scenario `(name, summary)` rows, in matrix order.
    pub scenarios: Vec<(String, String)>,
    /// Row-major cells (scenario-major, backend-minor).
    pub cells: Vec<SecCell>,
    /// Sorted `security/*` counter snapshot, recounted from the cells by
    /// [`SecurityMatrix::reconcile`].
    pub counters: Vec<(String, u64)>,
}

/// Runs the whole corpus — the named scenarios plus `fuzz` seeded random
/// ones — against every backend column.
///
/// # Panics
///
/// Panics if a generated scenario script fails
/// [`workloads::exploit::validate`]; the generators are well-formed by
/// construction, so this is a bug, not an input error.
pub fn run_corpus(seed: u64, fuzz: u32, weaken: Weaken) -> SecurityMatrix {
    let mut scenarios = corpus();
    scenarios.extend(fuzz_corpus(seed, fuzz));
    for sc in &scenarios {
        validate(&sc.steps).unwrap_or_else(|e| panic!("malformed scenario {}: {e}", sc.name));
    }
    let backends = SecSystem::all();

    let registry = Registry::new();
    let c_cells = registry.counter(SECURITY_SUBSYSTEM, "cells");
    let c_allocs = registry.counter(SECURITY_SUBSYSTEM, "allocs");
    let c_frees = registry.counter(SECURITY_SUBSYSTEM, "frees");
    let c_judged = registry.counter(SECURITY_SUBSYSTEM, "judged_accesses");
    let c_detect = registry.counter(SECURITY_SUBSYSTEM, "detections");
    let c_reuse = registry.counter(SECURITY_SUBSYSTEM, "reuses");
    let c_defence = registry.counter(SECURITY_SUBSYSTEM, "defence_cycles");
    let c_verdict = |o: ExploitOutcome| {
        registry.counter(
            SECURITY_SUBSYSTEM,
            match o {
                ExploitOutcome::Compromised => "verdict_compromised",
                ExploitOutcome::CleanTermination => "verdict_clean_termination",
                ExploitOutcome::Benign => "verdict_benign",
                ExploitOutcome::Detected => "verdict_detected",
            },
        )
    };

    let mut cells = Vec::with_capacity(scenarios.len() * backends.len());
    for sc in &scenarios {
        let scenario_counter = registry.counter(
            SECURITY_SUBSYSTEM,
            &format!("s_{}_compromised", sc.name.replace('-', "_")),
        );
        for sys in &backends {
            let run = run_scenario(sc, sys, weaken);
            c_cells.inc();
            c_allocs.add(run.allocs);
            c_frees.add(run.frees);
            c_judged.add(run.judged);
            c_detect.add(run.detections);
            c_defence.add(run.defence.total);
            if run.victim_reallocated {
                c_reuse.inc();
            }
            c_verdict(run.outcome).inc();
            if run.outcome == ExploitOutcome::Compromised {
                scenario_counter.inc();
            }
            cells.push(SecCell {
                scenario: sc.name.clone(),
                backend: sys.label().to_string(),
                outcome: run.outcome,
                victim_reallocated: run.victim_reallocated,
                attack_window: run.attack_window,
                allocs: run.allocs,
                frees: run.frees,
                judged: run.judged,
                detections: run.detections,
                defence: run.defence,
            });
        }
    }

    let mut counters: Vec<(String, u64)> = registry
        .snapshot()
        .counters
        .iter()
        .map(|c| (format!("{}/{}", c.subsystem, c.name), c.value))
        .collect();
    counters.sort();

    SecurityMatrix {
        schema: SECURITY_SCHEMA,
        seed,
        fuzz,
        weaken: weaken.label().to_string(),
        backends: backends.iter().map(|s| s.label().to_string()).collect(),
        scenarios: scenarios.into_iter().map(|s| (s.name, s.summary)).collect(),
        cells,
        counters,
    }
}

impl SecurityMatrix {
    /// Cells whose backend is `label`, in scenario order.
    pub fn column<'a>(&'a self, label: &'a str) -> impl Iterator<Item = &'a SecCell> + 'a {
        self.cells.iter().filter(move |c| c.backend == label)
    }

    /// Serialises to the stable wire format: fixed key order, cells
    /// row-major, counters sorted — byte-identical for identical runs.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let esc = telemetry::json::escape;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {SECURITY_SCHEMA},");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"fuzz\": {},", self.fuzz);
        let _ = writeln!(out, "  \"weaken\": \"{}\",", esc(&self.weaken));
        let backends: Vec<String> =
            self.backends.iter().map(|b| format!("\"{}\"", esc(b))).collect();
        let _ = writeln!(out, "  \"backends\": [{}],", backends.join(", "));
        out.push_str("  \"scenarios\": [\n");
        for (i, (name, summary)) in self.scenarios.iter().enumerate() {
            let comma = if i + 1 < self.scenarios.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"summary\": \"{}\"}}{comma}",
                esc(name),
                esc(summary)
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let comma = if i + 1 < self.cells.len() { "," } else { "" };
            let window = match c.attack_window {
                Some(w) => w.to_string(),
                None => "null".to_string(),
            };
            // Schema 2: the defence bill, nonzero kinds only (ALL order).
            let mut kinds = String::new();
            for k in CostKind::ALL {
                let v = c.defence.kind(k);
                if v > 0 {
                    if !kinds.is_empty() {
                        kinds.push_str(", ");
                    }
                    let _ = write!(kinds, "\"{}\": {v}", k.label());
                }
            }
            let _ = writeln!(
                out,
                "    {{\"scenario\": \"{}\", \"backend\": \"{}\", \"verdict\": \"{}\", \
                 \"victim_reallocated\": {}, \"attack_window\": {window}, \
                 \"allocs\": {}, \"frees\": {}, \"judged\": {}, \"detections\": {}, \
                 \"defence_cycles\": {}, \"defence_kinds\": {{{kinds}}}}}{comma}",
                esc(&c.scenario),
                esc(&c.backend),
                c.outcome.label(),
                c.victim_reallocated,
                c.allocs,
                c.frees,
                c.judged,
                c.detections,
                c.defence.total,
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"counters\": {\n");
        for (i, (key, value)) in self.counters.iter().enumerate() {
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{}\": {value}{comma}", esc(key));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parses a `SECURITY_matrix.json` document — the one reader of the
    /// format [`SecurityMatrix::to_json`] writes. Accepts schemas
    /// [`SECURITY_MIN_SCHEMA`]`..=`[`SECURITY_SCHEMA`]: schema-1 cells
    /// predate the cost ledger and parse with an all-zero defence bill.
    /// Absent tallies read as zero, an absent weaken knob as `"none"`.
    ///
    /// # Errors
    ///
    /// A description of the first problem: malformed JSON, an unsupported
    /// schema, a missing list or field, an unknown verdict or cost-kind
    /// label.
    pub fn from_json(text: &str) -> Result<SecurityMatrix, String> {
        use telemetry::json::Json;
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let declared = doc.get("schema").and_then(Json::as_u64);
        let schema = match declared.and_then(|s| u32::try_from(s).ok()) {
            Some(s) if (SECURITY_MIN_SCHEMA..=SECURITY_SCHEMA).contains(&s) => s,
            _ => {
                return Err(format!(
                    "unsupported security matrix schema {declared:?} \
                     (want {SECURITY_MIN_SCHEMA}..={SECURITY_SCHEMA})"
                ))
            }
        };
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("security matrix missing {key}"))
        };
        let num = |v: &Json, key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
        let text_of = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("security matrix entry missing {key}"))
        };
        let backends = list("backends")?
            .iter()
            .map(|b| b.as_str().map(String::from).ok_or("malformed backends entry"))
            .collect::<Result<_, _>>()?;
        let mut scenarios = Vec::new();
        for sc in list("scenarios")? {
            let summary = sc.get("summary").and_then(Json::as_str).unwrap_or_default();
            scenarios.push((text_of(sc, "name")?, summary.to_string()));
        }
        let mut cells = Vec::new();
        for c in list("cells")? {
            let verdict = text_of(c, "verdict")?;
            let outcome = ExploitOutcome::from_label(&verdict)
                .ok_or_else(|| format!("unknown verdict label: {verdict}"))?;
            let mut defence =
                DefenceCost { total: num(c, "defence_cycles"), ..DefenceCost::default() };
            if let Some(Json::Obj(kinds)) = c.get("defence_kinds") {
                for (label, v) in kinds {
                    let kind = CostKind::from_label(label)
                        .ok_or_else(|| format!("unknown defence cost kind: {label}"))?;
                    defence.kinds[kind.index()] =
                        v.as_u64().ok_or_else(|| format!("bad defence kind {label}"))?;
                }
            }
            cells.push(SecCell {
                scenario: text_of(c, "scenario")?,
                backend: text_of(c, "backend")?,
                outcome,
                victim_reallocated: matches!(c.get("victim_reallocated"), Some(Json::Bool(true))),
                attack_window: c.get("attack_window").and_then(Json::as_u64),
                allocs: num(c, "allocs"),
                frees: num(c, "frees"),
                judged: num(c, "judged"),
                detections: num(c, "detections"),
                defence,
            });
        }
        let mut counters = Vec::new();
        if let Some(Json::Obj(pairs)) = doc.get("counters") {
            for (k, v) in pairs {
                counters.push((k.clone(), v.as_u64().ok_or_else(|| format!("bad counter {k}"))?));
            }
        }
        Ok(SecurityMatrix {
            schema,
            seed: num(&doc, "seed"),
            fuzz: u32::try_from(num(&doc, "fuzz")).map_err(|_| "fuzz count out of range")?,
            weaken: doc.get("weaken").and_then(Json::as_str).unwrap_or("none").to_string(),
            backends,
            scenarios,
            cells,
            counters,
        })
    }

    /// Recounts every `security/*` counter from the cells and returns each
    /// mismatch, named by counter (empty = clean); also checks that each
    /// cell's per-kind defence bill sums to its `defence_cycles`. A
    /// mismatch means the exporter and the matrix disagree about what ran.
    ///
    /// The recount is deliberately independent of the registry increments
    /// in [`run_corpus`]: sharing one function would make the check a
    /// tautology. Absent counters read as zero.
    pub fn reconcile(&self) -> Vec<String> {
        let mut mismatches = Vec::new();
        let mut expect = |key: &str, want: u64| {
            let got = self.counters.iter().find(|(k, _)| k == key).map_or(0, |(_, v)| *v);
            if got != want {
                mismatches.push(format!("{key}: counter {got} != cells {want}"));
            }
        };
        let sum = |f: fn(&SecCell) -> u64| self.cells.iter().map(f).sum::<u64>();
        expect("security/cells", self.cells.len() as u64);
        expect("security/allocs", sum(|c| c.allocs));
        expect("security/frees", sum(|c| c.frees));
        expect("security/judged_accesses", sum(|c| c.judged));
        expect("security/detections", sum(|c| c.detections));
        expect("security/reuses", sum(|c| u64::from(c.victim_reallocated)));
        expect("security/defence_cycles", sum(|c| c.defence.total));
        for o in [
            ExploitOutcome::Compromised,
            ExploitOutcome::CleanTermination,
            ExploitOutcome::Benign,
            ExploitOutcome::Detected,
        ] {
            let want = self.cells.iter().filter(|c| c.outcome == o).count() as u64;
            expect(&format!("security/verdict_{}", o.label().replace('-', "_")), want);
        }
        for (name, _) in &self.scenarios {
            let want = self
                .cells
                .iter()
                .filter(|c| c.scenario == *name && c.outcome == ExploitOutcome::Compromised)
                .count() as u64;
            expect(&format!("security/s_{}_compromised", name.replace('-', "_")), want);
        }
        for c in &self.cells {
            let kind_sum: u64 = c.defence.kinds.iter().sum();
            if kind_sum != c.defence.total {
                mismatches.push(format!(
                    "{}/{}: defence kinds sum to {kind_sum}, defence_cycles is {}",
                    c.scenario, c.backend, c.defence.total
                ));
            }
        }
        mismatches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_covers_every_scenario_backend_pair() {
        let m = run_corpus(42, 2, Weaken::None);
        assert!(m.scenarios.len() >= 10, "8+ named + 2 fuzzed");
        assert_eq!(m.backends.len(), 10);
        assert_eq!(m.cells.len(), m.scenarios.len() * m.backends.len());
        let cell_count = m
            .counters
            .iter()
            .find(|(k, _)| k == "security/cells")
            .map(|(_, v)| *v);
        assert_eq!(cell_count, Some(m.cells.len() as u64));
    }

    #[test]
    fn minesweeper_column_has_zero_compromised() {
        let m = run_corpus(42, 3, Weaken::None);
        for c in m.column("minesweeper") {
            assert_ne!(
                c.outcome,
                ExploitOutcome::Compromised,
                "minesweeper compromised by {}",
                c.scenario
            );
        }
    }

    #[test]
    fn baseline_column_is_compromised_somewhere() {
        let m = run_corpus(42, 0, Weaken::None);
        assert!(
            m.column("baseline").any(|c| c.outcome == ExploitOutcome::Compromised),
            "the unprotected baseline must fall to at least one scenario"
        );
    }

    #[test]
    fn matrix_json_is_deterministic() {
        let a = run_corpus(7, 3, Weaken::None).to_json();
        let b = run_corpus(7, 3, Weaken::None).to_json();
        assert_eq!(a, b, "same seed must serialise byte-identically");
    }

    #[test]
    fn weakened_run_is_marked_and_flips_minesweeper() {
        let m = run_corpus(42, 0, Weaken::QuarantineOff);
        assert_eq!(m.weaken, "quarantine-off");
        assert!(
            m.column("minesweeper").any(|c| c.outcome == ExploitOutcome::Compromised),
            "quarantine-off must reopen at least one scenario"
        );
    }

    #[test]
    fn defence_cycles_reconcile_with_the_counter() {
        let m = run_corpus(42, 0, Weaken::None);
        let cell_sum: u64 = m.cells.iter().map(|c| c.defence.total).sum();
        let counter = m
            .counters
            .iter()
            .find(|(k, _)| k == "security/defence_cycles")
            .map(|(_, v)| *v);
        assert_eq!(counter, Some(cell_sum), "counter must equal the cell sum");
        assert!(cell_sum > 0, "protected columns must have been billed");
        assert!(
            m.column("baseline").all(|c| c.defence.total == 0),
            "the unprotected baseline defends for free"
        );
        assert!(
            m.column("minesweeper").any(|c| c.defence.total > 0),
            "minesweeper must pay for its quarantine somewhere"
        );
    }

    #[test]
    fn json_parses_back() {
        let m = run_corpus(1, 1, Weaken::None);
        let doc = telemetry::json::Json::parse(&m.to_json()).expect("valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_u64(), Some(u64::from(SECURITY_SCHEMA)));
        assert_eq!(
            doc.get("cells").unwrap().as_array().unwrap().len(),
            m.cells.len()
        );
        assert_eq!(doc.get("weaken").unwrap().as_str(), Some("none"));
    }

    #[test]
    fn from_json_round_trips_the_writer() {
        let m = run_corpus(42, 3, Weaken::None);
        let parsed = SecurityMatrix::from_json(&m.to_json()).expect("writer output parses");
        assert_eq!(parsed, m, "the reader must recover exactly what the writer wrote");
        assert_eq!(parsed.to_json(), m.to_json());
        let weak = run_corpus(42, 0, Weaken::QuarantineOff);
        assert_eq!(SecurityMatrix::from_json(&weak.to_json()), Ok(weak));
    }

    #[test]
    fn from_json_rejects_unknown_labels_and_schemas() {
        let good = run_corpus(1, 0, Weaken::None).to_json();
        let bad_verdict = good.replacen("\"verdict\": \"benign\"", "\"verdict\": \"pwned\"", 1);
        assert_ne!(bad_verdict, good, "fixture must actually change");
        let err = SecurityMatrix::from_json(&bad_verdict).unwrap_err();
        assert!(err.contains("unknown verdict label: pwned"), "{err}");
        let bad_kind = good.replacen("\"zeroing\": ", "\"gilding\": ", 1);
        assert_ne!(bad_kind, good, "fixture must actually change");
        let err = SecurityMatrix::from_json(&bad_kind).unwrap_err();
        assert!(err.contains("unknown defence cost kind: gilding"), "{err}");
        let future = good.replacen("\"schema\": 2", "\"schema\": 99", 1);
        let err = SecurityMatrix::from_json(&future).unwrap_err();
        assert!(err.contains("unsupported security matrix schema"), "{err}");
        assert!(SecurityMatrix::from_json("junk").is_err());
    }

    #[test]
    fn reconcile_recounts_counters_from_cells() {
        let mut m = run_corpus(42, 1, Weaken::None);
        assert_eq!(m.reconcile(), Vec::<String>::new(), "a fresh run reconciles");
        let benign = m.counters.iter_mut().find(|(k, _)| k == "security/verdict_benign").unwrap();
        benign.1 += 1;
        m.cells[0].defence.total += 1;
        let mismatches = m.reconcile();
        let named = |what: &str| mismatches.iter().any(|e| e.contains(what));
        assert!(named("security/verdict_benign:"), "{mismatches:?}");
        assert!(named("security/defence_cycles:"), "{mismatches:?}");
        assert!(named("defence kinds sum to"), "{mismatches:?}");
    }
}
