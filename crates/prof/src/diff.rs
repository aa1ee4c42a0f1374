//! Perf-diff between two `BENCH_<label>.json` reports — the analysis
//! behind `neo-xtask bench --diff A.json B.json`.
//!
//! The regression check ([`crate::benchfile::BenchReport::check_against`])
//! answers *"did throughput drop?"*; this module answers *"where did the
//! time go?"*. For every entry present in both reports it computes the
//! throughput delta and joins the per-phase mean-ms columns, then names
//! the **dominant phase** — the phase whose per-iteration cost moved the
//! most in absolute milliseconds. That attribution is what turns a bench
//! regression from a number into a lead: "`quickstart_w4` lost 8% and
//! `comm_fwd_a2a` gained 0.4 ms/iter" points straight at the wire.

use std::fmt;

use neo_telemetry::phase;

use crate::benchfile::BenchReport;

/// Throughput and per-phase deltas for one entry present in both reports.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryDiff {
    /// Entry name (the join key).
    pub name: String,
    /// Baseline median throughput, samples/sec.
    pub base_throughput: f64,
    /// Current median throughput, samples/sec.
    pub cur_throughput: f64,
    /// `(current / baseline - 1) * 100`; negative means slower.
    pub throughput_delta_pct: f64,
    /// `(phase, baseline ms, current ms)` for the union of both entries'
    /// phase columns (a side missing the phase contributes `0.0`),
    /// baseline column order first, current-only columns appended.
    pub phases: Vec<(String, f64, f64)>,
    /// The phase with the largest `|current - baseline|` ms, with that
    /// signed delta (positive = current is slower). `None` when neither
    /// entry carries phase columns or nothing moved.
    pub dominant_phase: Option<(String, f64)>,
}

/// The full diff between two bench reports.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDiff {
    /// Label of the baseline (the `A` in `--diff A B`).
    pub base_label: String,
    /// Label of the current report (the `B`).
    pub cur_label: String,
    /// Per-entry deltas, in baseline entry order.
    pub entries: Vec<EntryDiff>,
    /// Entry names present only in the baseline.
    pub only_in_base: Vec<String>,
    /// Entry names present only in the current report.
    pub only_in_cur: Vec<String>,
}

/// Whether a phase column may be named as the dominant millisecond
/// delta. Aggregate spans (`iteration`, `backward`) are sums of leaf
/// phases, so they always move at least as much as the leaf that caused
/// the change; percentage columns (`*_overhead_pct`) are not milliseconds
/// at all.
fn is_attributable(name: &str) -> bool {
    !phase::AGGREGATE.contains(&name) && !name.ends_with("_pct")
}

/// The column a recorded phase is compared under: the trainer records the
/// dense-gradient AllReduce as two halves, which older reports carry as
/// one `allreduce` column.
fn reported_as(name: &str) -> &str {
    match name {
        phase::ALLREDUCE_TOP | phase::ALLREDUCE_BOT => phase::ALLREDUCE,
        other => other,
    }
}

/// `phase_ms` with every column renamed by [`reported_as`] and columns
/// that land on the same name summed, in first-occurrence order.
fn folded(phase_ms: &[(String, f64)]) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::with_capacity(phase_ms.len());
    for (name, ms) in phase_ms {
        let name = reported_as(name);
        match out.iter_mut().find(|(n, _)| n == name) {
            Some((_, sum)) => *sum += ms,
            None => out.push((name.to_owned(), *ms)),
        }
    }
    out
}

/// Joins two reports entry-by-entry (on `name`) and attributes each
/// throughput delta to the phase whose per-iteration cost moved the most.
/// The AllReduce halves are summed into `allreduce` on both sides first,
/// so a report that records them is compared like for like with one that
/// carries the combined column.
pub fn diff_reports(base: &BenchReport, cur: &BenchReport) -> BenchDiff {
    let mut entries = Vec::new();
    let mut only_in_base = Vec::new();
    for b in &base.entries {
        let Some(c) = cur.entries.iter().find(|e| e.name == b.name) else {
            only_in_base.push(b.name.clone());
            continue;
        };
        let (b_phases, c_phases) = (folded(&b.phase_ms), folded(&c.phase_ms));
        // union of phase columns: baseline order, then current-only
        let mut phases: Vec<(String, f64, f64)> = b_phases
            .iter()
            .map(|(name, ms)| {
                let cur_ms = c_phases
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |(_, v)| *v);
                (name.clone(), *ms, cur_ms)
            })
            .collect();
        for (name, ms) in &c_phases {
            if !phases.iter().any(|(n, _, _)| n == name) {
                phases.push((name.clone(), 0.0, *ms));
            }
        }
        let dominant_phase = phases
            .iter()
            .filter(|(name, _, _)| is_attributable(name))
            .map(|(name, base_ms, cur_ms)| (name.clone(), cur_ms - base_ms))
            .filter(|(_, d)| *d != 0.0)
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()));
        let denom = b.throughput_samples_per_sec.max(f64::MIN_POSITIVE);
        entries.push(EntryDiff {
            name: b.name.clone(),
            base_throughput: b.throughput_samples_per_sec,
            cur_throughput: c.throughput_samples_per_sec,
            throughput_delta_pct: (c.throughput_samples_per_sec / denom - 1.0) * 100.0,
            phases,
            dominant_phase,
        });
    }
    let only_in_cur = cur
        .entries
        .iter()
        .filter(|c| !base.entries.iter().any(|b| b.name == c.name))
        .map(|c| c.name.clone())
        .collect();
    BenchDiff {
        base_label: base.label.clone(),
        cur_label: cur.label.clone(),
        entries,
        only_in_base,
        only_in_cur,
    }
}

impl fmt::Display for BenchDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "bench diff: {} -> {}", self.base_label, self.cur_label)?;
        for e in &self.entries {
            write!(
                f,
                "  {}: {:.0} -> {:.0} samples/sec ({:+.1}%)",
                e.name, e.base_throughput, e.cur_throughput, e.throughput_delta_pct
            )?;
            match &e.dominant_phase {
                Some((phase, delta)) => {
                    // the dominant phase always comes from the joined
                    // columns, so the find cannot miss; default defensively
                    let (base_ms, cur_ms) = e
                        .phases
                        .iter()
                        .find(|(n, _, _)| n == phase)
                        .map_or((0.0, 0.0), |(_, b, c)| (*b, *c));
                    writeln!(
                        f,
                        "; dominant phase delta: {phase} {delta:+.3} ms \
                         ({base_ms:.3} -> {cur_ms:.3})"
                    )?;
                }
                None => writeln!(f, "; no phase columns moved")?,
            }
        }
        if !self.only_in_base.is_empty() {
            writeln!(
                f,
                "  only in {}: {}",
                self.base_label,
                self.only_in_base.join(", ")
            )?;
        }
        if !self.only_in_cur.is_empty() {
            writeln!(
                f,
                "  only in {}: {}",
                self.cur_label,
                self.only_in_cur.join(", ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchfile::{BenchEntry, BenchReport, BENCH_SCHEMA_VERSION};

    fn entry(name: &str, tput: f64, phases: &[(&str, f64)]) -> BenchEntry {
        BenchEntry {
            name: name.into(),
            world: 4,
            global_batch: 256,
            iters: 24,
            throughput_samples_per_sec: tput,
            phase_ms: phases.iter().map(|(n, ms)| (n.to_string(), *ms)).collect(),
            exposed_comm_fraction: 0.2,
            cache_hit_rate: None,
        }
    }

    fn report(label: &str, entries: Vec<BenchEntry>) -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            label: label.into(),
            entries,
        }
    }

    #[test]
    fn diff_names_the_dominant_phase_delta() {
        let base = report(
            "baseline",
            vec![entry(
                "quickstart_w4",
                100_000.0,
                &[
                    ("iteration", 2.0),
                    ("emb_lookup", 0.5),
                    ("comm_fwd_a2a", 0.4),
                ],
            )],
        );
        let cur = report(
            "ci",
            vec![entry(
                "quickstart_w4",
                92_000.0,
                &[
                    ("iteration", 2.2),
                    ("emb_lookup", 0.52),
                    ("comm_fwd_a2a", 0.8),
                ],
            )],
        );
        let d = diff_reports(&base, &cur);
        assert_eq!(d.entries.len(), 1);
        let e = &d.entries[0];
        assert!((e.throughput_delta_pct + 8.0).abs() < 1e-9, "{e:?}");
        // comm_fwd_a2a moved +0.4 ms, more than iteration's +0.2
        let (phase, delta) = e.dominant_phase.clone().expect("dominant phase");
        assert_eq!(phase, "comm_fwd_a2a");
        assert!((delta - 0.4).abs() < 1e-9, "{delta}");
        let text = format!("{d}");
        assert!(text.contains("comm_fwd_a2a"), "{text}");
        assert!(text.contains("-8.0%"), "{text}");
    }

    #[test]
    fn diff_tracks_membership_and_column_unions() {
        let base = report(
            "baseline",
            vec![
                entry("shared", 50_000.0, &[("old_phase", 1.0)]),
                entry("gone", 10_000.0, &[]),
            ],
        );
        let cur = report(
            "ci",
            vec![
                entry("shared", 50_000.0, &[("new_phase", 0.3)]),
                entry("added", 20_000.0, &[]),
            ],
        );
        let d = diff_reports(&base, &cur);
        assert_eq!(d.only_in_base, vec!["gone".to_string()]);
        assert_eq!(d.only_in_cur, vec!["added".to_string()]);
        let e = &d.entries[0];
        // union: old_phase went 1.0 -> 0.0 (missing side contributes 0)
        assert_eq!(
            e.phases,
            vec![
                ("old_phase".to_string(), 1.0, 0.0),
                ("new_phase".to_string(), 0.0, 0.3),
            ]
        );
        // old_phase's -1.0 ms beats new_phase's +0.3 ms in magnitude
        assert_eq!(e.dominant_phase, Some(("old_phase".to_string(), -1.0)));
        let text = format!("{d}");
        assert!(text.contains("only in baseline: gone"), "{text}");
        assert!(text.contains("only in ci: added"), "{text}");
    }

    #[test]
    fn aggregate_backward_span_is_never_the_dominant_phase() {
        // `backward` contains the sparse optimizer, so it moves by at
        // least as much; the attribution must name the leaf
        let base = report(
            "baseline",
            vec![entry(
                "quickstart_w4",
                100_000.0,
                &[
                    ("backward", 1.0),
                    ("sparse_optim", 0.3),
                    ("emb_lookup", 0.2),
                ],
            )],
        );
        let cur = report(
            "ci",
            vec![entry(
                "quickstart_w4",
                90_000.0,
                &[
                    ("backward", 1.5),
                    ("sparse_optim", 0.7),
                    ("emb_lookup", 0.2),
                ],
            )],
        );
        let d = diff_reports(&base, &cur);
        let (phase, delta) = d.entries[0].dominant_phase.clone().expect("a leaf moved");
        assert_eq!(phase, "sparse_optim");
        assert!((delta - 0.4).abs() < 1e-9, "{delta}");
    }

    #[test]
    fn overhead_percentages_stay_out_of_the_millisecond_attribution() {
        let base = report(
            "baseline",
            vec![entry(
                "quickstart_w4_monitor",
                100_000.0,
                &[("monitor_overhead_pct", 0.5), ("alltoall_fwd", 0.40)],
            )],
        );
        let cur = report(
            "ci",
            vec![entry(
                "quickstart_w4_monitor",
                99_000.0,
                &[("monitor_overhead_pct", 2.5), ("alltoall_fwd", 0.45)],
            )],
        );
        let d = diff_reports(&base, &cur);
        let (phase, _) = d.entries[0].dominant_phase.clone().expect("a phase moved");
        assert_eq!(phase, "alltoall_fwd");
        let text = format!("{d}");
        assert!(!text.contains("monitor_overhead_pct +"), "{text}");
    }

    #[test]
    fn allreduce_halves_are_compared_with_the_combined_column() {
        // an older baseline carries one `allreduce` column; the current
        // trainer records the two halves, which together cost the same
        let base = report(
            "baseline",
            vec![entry(
                "quickstart_w8",
                100_000.0,
                &[("allreduce", 2.0), ("emb_lookup", 0.5)],
            )],
        );
        let cur = report(
            "ci",
            vec![entry(
                "quickstart_w8",
                95_000.0,
                &[
                    ("allreduce_top", 1.0),
                    ("emb_lookup", 1.0),
                    ("allreduce_bot", 1.0),
                ],
            )],
        );
        let d = diff_reports(&base, &cur);
        let e = &d.entries[0];
        assert_eq!(
            e.phases,
            vec![
                ("allreduce".to_string(), 2.0, 2.0),
                ("emb_lookup".to_string(), 0.5, 1.0),
            ]
        );
        assert_eq!(e.dominant_phase, Some(("emb_lookup".to_string(), 0.5)));
        let text = format!("{d}");
        assert!(text.contains("dominant phase delta: emb_lookup"), "{text}");
    }

    #[test]
    fn identical_reports_diff_to_no_movement() {
        let r = report("same", vec![entry("a", 1_000.0, &[("iteration", 1.0)])]);
        let d = diff_reports(&r, &r);
        assert_eq!(d.entries[0].throughput_delta_pct, 0.0);
        assert_eq!(d.entries[0].dominant_phase, None);
        assert!(format!("{d}").contains("no phase columns moved"));
    }
}
