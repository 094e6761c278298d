//! Markdown rendering of exhibits.
//!
//! `EXPERIMENTS.md` and the harness's comparison report are Markdown;
//! this module renders exhibits as GitHub-flavoured tables so those
//! documents can embed any exhibit without hand-formatting.

use bb_study::exhibit::{BarFigure, BinnedFigure, CdfFigure, ExperimentTable};
use bb_study::robustness::{SurvivalMatrix, SweepRow};
use bb_study::StreamStudy;
use bb_trace::{Event, EventLog, Value};
use std::fmt::Write as _;

/// Escape a cell for a Markdown table.
fn cell(s: &str) -> String {
    s.replace('|', "\\|")
}

/// The percentile columns of [`cdf_figure`].
const CDF_PERCENTILES: [u32; 5] = [10, 25, 50, 75, 90];

/// CDF figure → Markdown: one row per series with n, median, and the
/// x-values at a fixed percentile grid (the first recorded point whose
/// cumulative fraction reaches the percentile). A summary table rather
/// than a point dump — the full resolution lives in the CSV/JSON
/// renders; Markdown is for humans and HTTP responses.
pub fn cdf_figure(f: &CdfFigure) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "**{}** — {}{}\n",
        cell(&f.title),
        cell(&f.x_label),
        if f.log_x { " (log x)" } else { "" }
    );
    let mut header = String::from("| series | n | median |");
    let mut rule = String::from("|---|---|---|");
    for p in CDF_PERCENTILES {
        let _ = write!(header, " p{p} |");
        rule.push_str("---|");
    }
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "{rule}");
    for s in &f.series {
        let _ = write!(out, "| {} | {} | {:.3} |", cell(&s.label), s.n, s.median);
        for p in CDF_PERCENTILES {
            let q = f64::from(p) / 100.0;
            let x = s
                .points
                .iter()
                .find(|(_, frac)| *frac >= q)
                .or(s.points.last())
                .map(|(x, _)| *x);
            match x {
                Some(x) => {
                    let _ = write!(out, " {x:.3} |");
                }
                None => {
                    let _ = write!(out, " — |");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Bar figure → Markdown: one row per bar, grouped in figure order.
pub fn bar_figure(f: &BarFigure) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "**{}**\n", cell(&f.title));
    let _ = writeln!(out, "| group | bar | {} | 95% CI | n |", cell(&f.y_label));
    let _ = writeln!(out, "|---|---|---|---|---|");
    for g in &f.groups {
        for b in &g.bars {
            let ci =
                b.ci.map(|(lo, hi)| format!("[{lo:.3}, {hi:.3}]"))
                    .unwrap_or_else(|| "—".into());
            let _ = writeln!(
                out,
                "| {} | {} | {:.3} | {ci} | {} |",
                cell(&g.label),
                cell(&b.label),
                b.value,
                b.n
            );
        }
    }
    out
}

/// Experiment table → Markdown.
pub fn experiment_table(t: &ExperimentTable) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| {} | {} | pairs | % H holds | p-value |",
        cell(&t.control_label),
        cell(&t.treatment_label)
    );
    let _ = writeln!(out, "|---|---|---|---|---|");
    for r in &t.rows {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.1}%{} | {:.3e} |",
            cell(&r.control),
            cell(&r.treatment),
            r.n_pairs,
            r.percent_holds,
            r.asterisk(),
            r.p_value
        );
    }
    out
}

/// Binned figure → Markdown (one table per series).
pub fn binned_figure(f: &BinnedFigure) -> String {
    let mut out = String::new();
    for s in &f.series {
        match s.r_log {
            Some(r) => {
                let _ = writeln!(out, "**{}** (r = {:.3})\n", cell(&s.label), r);
            }
            None => {
                let _ = writeln!(out, "**{}**\n", cell(&s.label));
            }
        }
        let _ = writeln!(
            out,
            "| {} | mean {} | 95% CI | n |",
            cell(&f.x_label),
            cell(&f.y_label)
        );
        let _ = writeln!(out, "|---|---|---|---|");
        for p in &s.points {
            let _ = writeln!(
                out,
                "| {:.3} | {:.4} | [{:.4}, {:.4}] | {} |",
                p.x, p.mean, p.ci_lo, p.ci_hi, p.n
            );
        }
        let _ = writeln!(out);
    }
    out
}

/// The streaming scale run's population table (Fig. 1 headline numbers
/// against the paper's), as `reproduce --users` and the federation
/// coordinator print it. Empty when the study folded no users.
pub fn stream_population(study: &StreamStudy) -> String {
    let Some(stats) = study.population_stats() else {
        return String::new();
    };
    let mut out = String::from("# Streaming scale run\n\n");
    out.push_str("| quantity | paper | measured |\n|---|---|---|\n");
    let _ = writeln!(out, "| users streamed | — | {} |", study.users);
    let _ = writeln!(
        out,
        "| median download capacity | 7.4 Mbps | {:.1} Mbps |",
        stats.median_capacity_mbps
    );
    let _ = writeln!(
        out,
        "| share below 1 Mbps | ~10% | {:.0}% |",
        stats.frac_below_1mbps * 100.0
    );
    let _ = writeln!(
        out,
        "| median latency | ~100 ms | {:.0} ms |",
        stats.median_latency_ms
    );
    let _ = writeln!(
        out,
        "| share with loss > 1% | ~14% | {:.1}% |",
        stats.frac_loss_above_1pct * 100.0
    );
    out
}

/// Robustness sweep → Markdown.
pub fn sweep_table(rows: &[SweepRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| experiment | runs | min % | mean % | max % | significant | pairs |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|");
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {} | {:.1} | {:.1} | {:.1} | {}/{} | {} |",
            cell(&r.experiment),
            r.n_runs,
            r.min,
            r.mean,
            r.max,
            r.n_significant,
            r.n_runs,
            r.total_pairs
        );
    }
    out
}

/// Chaos survival matrix → Markdown: one row per experiment, one value
/// cell per severity (`% H holds (pairs)`, starred when significant),
/// then the three survival thresholds. An em-dash threshold means the
/// finding survived the whole grid.
pub fn survival_matrix(m: &SurvivalMatrix) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Scenario: `{}` — severity grid {:?}. Cells are \"% H holds (pairs)\"; `*` marks a significant result, `—` a finding that survived the whole grid.",
        m.scenario, m.severities
    );
    let _ = writeln!(out);
    let mut header = String::from("| experiment |");
    let mut rule = String::from("|---|");
    for s in &m.severities {
        let _ = write!(header, " s={s} |");
        rule.push_str("---|");
    }
    header.push_str(" flips at | sig. lost at | pairs gone at |");
    rule.push_str("---|---|---|");
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "{rule}");
    let threshold = |t: Option<f64>| t.map_or_else(|| "—".to_string(), |s| format!("{s}"));
    for row in &m.rows {
        let _ = write!(out, "| {} |", cell(&row.experiment));
        for c in &row.cells {
            match c.value {
                Some(v) => {
                    let star = if c.significant { "\\*" } else { "" };
                    let _ = write!(out, " {v:.1}%{star} ({}) |", c.pairs);
                }
                None => {
                    let _ = write!(out, " — |");
                }
            }
        }
        let _ = writeln!(
            out,
            " {} | {} | {} |",
            threshold(row.direction_flip_at),
            threshold(row.significance_lost_at),
            threshold(row.pairs_collapse_at)
        );
    }
    out
}

/// A ledger value as a short Markdown cell.
fn value_cell(v: &Value) -> String {
    match v {
        Value::U64(n) => n.to_string(),
        Value::I64(n) => n.to_string(),
        Value::F64(x) => {
            if x.is_finite() {
                format!("{x:.3e}")
            } else {
                "—".into()
            }
        }
        Value::Str(s) => cell(s),
        Value::Bool(b) => b.to_string(),
        Value::Hist(h) => format!("n={} (≤0: {})", h.count(), h.nonpositive()),
        Value::Counts(pairs) => {
            let parts: Vec<String> = pairs
                .iter()
                .map(|(label, count)| format!("{}: {count}", cell(label)))
                .collect();
            if parts.is_empty() {
                "—".into()
            } else {
                parts.join(", ")
            }
        }
    }
}

/// Look up `key` on `event`, rendering missing fields as an em-dash.
fn field(event: &Event, key: &str) -> String {
    event.get(key).map(value_cell).unwrap_or_else(|| "—".into())
}

/// Provenance ledger → Markdown appendix: matching audits, sign tests,
/// and per-exhibit input/drop accounting, in ledger (= exhibit) order.
pub fn provenance(log: &EventLog) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Provenance\n");
    let _ = writeln!(
        out,
        "Every row below is recorded in the `--ledger` event log while the"
    );
    let _ = writeln!(
        out,
        "exhibits are computed; the log is byte-identical for any shard/thread plan.\n"
    );

    let audits: Vec<&Event> = log.events().filter(|e| e.kind() == "match_audit").collect();
    if !audits.is_empty() {
        let _ = writeln!(out, "### Matching audits\n");
        let _ = writeln!(
            out,
            "| exhibit | experiment | control pool | treated | eligible | pairs | unmatched | caliper rejections |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
        for e in &audits {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} | {} |",
                field(e, "exhibit"),
                field(e, "experiment"),
                field(e, "control_pool"),
                field(e, "treated_considered"),
                field(e, "candidates_eligible"),
                field(e, "pairs_formed"),
                field(e, "treated_unmatched"),
                field(e, "caliper_rejections"),
            );
        }
        let _ = writeln!(out);
    }

    let tests: Vec<&Event> = log.events().filter(|e| e.kind() == "sign_test").collect();
    if !tests.is_empty() {
        let _ = writeln!(out, "### Sign tests\n");
        let _ = writeln!(
            out,
            "| exhibit | experiment | n | positives | ties | p-value | direction | kept |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
        for e in &tests {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} | {} |",
                field(e, "exhibit"),
                field(e, "experiment"),
                field(e, "n"),
                field(e, "positives"),
                field(e, "ties"),
                field(e, "p_value"),
                field(e, "direction"),
                field(e, "kept"),
            );
        }
        let _ = writeln!(out);
    }

    let exhibits: Vec<&Event> = log.events().filter(|e| e.kind() == "exhibit").collect();
    if !exhibits.is_empty() {
        let _ = writeln!(out, "### Exhibit inputs\n");
        let _ = writeln!(out, "| exhibit | accounting |");
        let _ = writeln!(out, "|---|---|");
        for e in &exhibits {
            let rest: Vec<String> = e
                .fields()
                .filter(|(k, _)| *k != "id")
                .map(|(k, v)| format!("{k} = {}", value_cell(v)))
                .collect();
            let _ = writeln!(out, "| {} | {} |", field(e, "id"), rest.join(", "));
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_study::exhibit::*;

    #[test]
    fn experiment_markdown_shape() {
        let t = ExperimentTable {
            id: "x".into(),
            title: "T".into(),
            control_label: "Control".into(),
            treatment_label: "Treatment".into(),
            rows: vec![ExperimentRow {
                control: "(0, 64]".into(),
                treatment: "(64, 128]".into(),
                n_pairs: 42,
                percent_holds: 63.5,
                p_value: 8.25e-3,
                significant: true,
            }],
        };
        let md = experiment_table(&t);
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[2].contains("| 42 | 63.5% | 8.250e-3 |"), "{md}");
    }

    #[test]
    fn pipes_are_escaped() {
        let t = ExperimentTable {
            id: "x".into(),
            title: "T".into(),
            control_label: "a|b".into(),
            treatment_label: "t".into(),
            rows: vec![],
        };
        assert!(experiment_table(&t).contains("a\\|b"));
    }

    #[test]
    fn binned_markdown_carries_r() {
        let f = BinnedFigure {
            id: "f".into(),
            title: "t".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![BinnedSeries {
                label: "s".into(),
                r_log: Some(0.87),
                points: vec![BinnedPoint {
                    x: 1.0,
                    mean: 2.0,
                    ci_lo: 1.5,
                    ci_hi: 2.5,
                    n: 9,
                }],
            }],
        };
        let md = binned_figure(&f);
        assert!(md.contains("r = 0.870"));
        assert!(md.contains("| 1.000 | 2.0000 | [1.5000, 2.5000] | 9 |"));
    }

    #[test]
    fn provenance_renders_each_event_kind() {
        let mut log = EventLog::new();
        log.emit("match_audit")
            .str("exhibit", "table2")
            .str("experiment", "capacity (4, 8] vs (8, 16]")
            .u64("control_pool", 120)
            .u64("treated_considered", 60)
            .u64("candidates_eligible", 300)
            .u64("pairs_formed", 40)
            .u64("treated_unmatched", 20)
            .counts(
                "caliper_rejections",
                vec![("latency".into(), 5), ("loss".into(), 0)],
            );
        log.emit("sign_test")
            .str("exhibit", "table2")
            .str("experiment", "capacity (4, 8] vs (8, 16]")
            .u64("n", 38)
            .u64("positives", 25)
            .u64("ties", 2)
            .f64("p_value", 0.036)
            .str("direction", "treatment_higher")
            .bool("kept", true);
        log.emit("exhibit").str("id", "fig2").u64("n", 900);
        let md = provenance(&log);
        assert!(md.contains("### Matching audits"));
        assert!(md.contains("| table2 | capacity (4, 8] vs (8, 16] | 120 | 60 | 300 | 40 | 20 | latency: 5, loss: 0 |"));
        assert!(md.contains("### Sign tests"));
        assert!(md.contains("| 38 | 25 | 2 | 3.600e-2 | treatment_higher | true |"));
        assert!(md.contains("| fig2 | n = 900 |"));
    }

    #[test]
    fn provenance_of_an_empty_ledger_is_just_the_header() {
        let md = provenance(&EventLog::new());
        assert!(md.contains("## Provenance"));
        assert!(!md.contains("###"));
    }

    #[test]
    fn sweep_markdown() {
        let rows = vec![bb_study::robustness::SweepRow {
            experiment: "table1".into(),
            n_runs: 3,
            min: 60.0,
            mean: 65.0,
            max: 70.0,
            n_significant: 3,
            total_pairs: 300,
        }];
        let md = sweep_table(&rows);
        assert!(md.contains("| table1 | 3 | 60.0 | 65.0 | 70.0 | 3/3 | 300 |"));
    }

    #[test]
    fn survival_matrix_markdown() {
        use bb_study::robustness::{SurvivalCell, SurvivalMatrix, SurvivalRow};
        let cell = |s: f64, v: Option<f64>, sig: bool, pairs: usize| SurvivalCell {
            severity: s,
            value: v,
            significant: sig,
            pairs,
        };
        let m = SurvivalMatrix {
            scenario: "omnibus".into(),
            severities: vec![0.0, 0.5, 1.0],
            rows: vec![SurvivalRow {
                experiment: "table1 movers (peak)".into(),
                cells: vec![
                    cell(0.0, Some(70.0), true, 40),
                    cell(0.5, Some(55.0), false, 12),
                    cell(1.0, None, false, 0),
                ],
                direction_flip_at: None,
                significance_lost_at: Some(0.5),
                pairs_collapse_at: Some(1.0),
            }],
        };
        let md = survival_matrix(&m);
        assert!(
            md.contains(
                "| experiment | s=0 | s=0.5 | s=1 | flips at | sig. lost at | pairs gone at |"
            ),
            "{md}"
        );
        assert!(
            md.contains("| table1 movers (peak) | 70.0%\\* (40) | 55.0% (12) | — | — | 0.5 | 1 |"),
            "{md}"
        );
    }
}
