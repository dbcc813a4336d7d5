//! Fig. 6: performance per area of the RASA-Data designs.

use super::Fig5Result;
use rasa_power::AreaModel;
use rasa_systolic::SystolicConfig;
use std::fmt;

/// One bar of Fig. 6: a RASA-Data design paired with its best control
/// scheme, compared to the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Row {
    /// Design name.
    pub design: String,
    /// Average speedup over the baseline (baseline cycles / design cycles).
    pub speedup: f64,
    /// Array area relative to the baseline array.
    pub area_ratio: f64,
    /// Performance per area normalized to the baseline
    /// (`speedup / area_ratio`).
    pub performance_per_area: f64,
}

crate::json::json_document!(Fig6Row: encode {
    "design" => design,
    "speedup" => speedup,
    "area_ratio" => area_ratio,
    "performance_per_area" => performance_per_area,
});

/// The Fig. 6 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Result {
    /// One row per RASA-Data design (DB-WLS, DM-WLBP, DMDB-WLS).
    pub rows: Vec<Fig6Row>,
}

/// The designs Fig. 6 compares (paired with their best control scheme, as
/// in the paper).
const FIG6_DESIGNS: [&str; 3] = ["RASA-DB-WLS", "RASA-DM-WLBP", "RASA-DMDB-WLS"];

pub(super) fn from_fig5(fig5: &Fig5Result) -> Fig6Result {
    let area_model = AreaModel::new();
    let baseline_area = area_model.array_area_mm2(&SystolicConfig::paper_baseline());

    let rows = FIG6_DESIGNS
        .iter()
        .filter_map(|&design| {
            let normalized = fig5.average_normalized(design)?;
            let speedup = if normalized > 0.0 {
                1.0 / normalized
            } else {
                0.0
            };
            // Recover the systolic configuration from the design name via
            // the runs recorded in the Fig. 5 result.
            let area = fig5
                .runs
                .iter()
                .flat_map(|run| run.reports.iter())
                .find(|r| r.design == design)
                .map_or(baseline_area, |r| r.power.area.total());
            let area_ratio = area / baseline_area;
            Some(Fig6Row {
                design: design.to_string(),
                speedup,
                area_ratio,
                performance_per_area: speedup / area_ratio,
            })
        })
        .collect();
    Fig6Result { rows }
}

impl Fig6Result {
    /// The row for a given design, if present.
    #[must_use]
    pub fn row(&self, design: &str) -> Option<&Fig6Row> {
        self.rows.iter().find(|r| r.design == design)
    }
}

impl fmt::Display for Fig6Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 6 — performance per area normalized to the baseline"
        )?;
        writeln!(
            f,
            "{:>16}{:>12}{:>12}{:>12}",
            "design", "speedup", "area ratio", "PPA"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:>16}{:>12.2}{:>12.3}{:>12.2}",
                row.design, row.speedup, row.area_ratio, row.performance_per_area
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::ExperimentSuite;

    #[test]
    fn ppa_follows_runtime_because_area_overheads_are_small() {
        let suite = ExperimentSuite::new().with_matmul_cap(Some(192));
        let fig5 = suite.fig5_runtime().unwrap();
        let fig6 = suite.fig6_from(&fig5);
        assert_eq!(fig6.rows.len(), 3);

        let db = fig6.row("RASA-DB-WLS").unwrap();
        let dm = fig6.row("RASA-DM-WLBP").unwrap();
        let dmdb = fig6.row("RASA-DMDB-WLS").unwrap();

        // Area overheads are a few percent, so PPA tracks the speedup.
        for row in &fig6.rows {
            assert!(row.area_ratio > 1.0 && row.area_ratio < 1.10, "{row:?}");
            assert!(row.performance_per_area > 0.9 * row.speedup);
        }
        // The paper's ordering: both WLS designs beat DM-WLBP, and DMDB-WLS
        // is at least as good as DB-WLS.
        assert!(db.performance_per_area > dm.performance_per_area);
        assert!(dmdb.performance_per_area >= db.performance_per_area * 0.95);
        assert!(fig6.row("BASELINE").is_none());
        assert!(fig6.to_string().contains("PPA"));
    }
}
