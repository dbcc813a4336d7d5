use rasa_cpu::CpuConfig;
use rasa_systolic::{ControlScheme, PeVariant, SystolicConfig};
use std::fmt;

/// One evaluated design point: a systolic-array configuration (PE variant +
/// control scheme) paired with the host CPU configuration.
///
/// The paper evaluates the baseline plus seven RASA designs whose names
/// concatenate the applied optimizations (e.g. `RASA-DM-PIPE`); the named
/// constructors below reproduce that set, and [`DesignPoint::paper_designs`]
/// returns them in the order Fig. 5 presents them.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    name: String,
    systolic: SystolicConfig,
    cpu: CpuConfig,
}

/// A paper design's name and its constructor.
type NamedDesign = (&'static str, fn() -> DesignPoint);

/// The paper designs in Fig. 5 order, each under its name, so that a name
/// resolves without building the other designs.
const PAPER_DESIGNS: [NamedDesign; 8] = [
    ("BASELINE", DesignPoint::baseline),
    ("RASA-PIPE", DesignPoint::rasa_pipe),
    ("RASA-WLBP", DesignPoint::rasa_wlbp),
    ("RASA-DM-PIPE", DesignPoint::rasa_dm_pipe),
    ("RASA-DM-WLBP", DesignPoint::rasa_dm_wlbp),
    ("RASA-DB-WLS", DesignPoint::rasa_db_wls),
    ("RASA-DMDB-WLBP", DesignPoint::rasa_dmdb_wlbp),
    ("RASA-DMDB-WLS", DesignPoint::rasa_dmdb_wls),
];

impl DesignPoint {
    /// Creates a custom design point.
    #[must_use]
    pub fn new(name: impl Into<String>, systolic: SystolicConfig, cpu: CpuConfig) -> Self {
        DesignPoint {
            name: name.into(),
            systolic,
            cpu,
        }
    }

    fn paper(pe: PeVariant, scheme: ControlScheme) -> Self {
        let systolic =
            SystolicConfig::paper(pe, scheme).expect("paper design combinations are always valid");
        DesignPoint {
            name: systolic.label(),
            systolic,
            cpu: CpuConfig::skylake_like(),
        }
    }

    /// The baseline: 32×16 baseline PEs, fully serialized `rasa_mm`s.
    #[must_use]
    pub fn baseline() -> Self {
        DesignPoint::paper(PeVariant::Baseline, ControlScheme::Base)
    }

    /// RASA-PIPE: basic pipelining (overlap Drain with the next Weight Load).
    #[must_use]
    pub fn rasa_pipe() -> Self {
        DesignPoint::paper(PeVariant::Baseline, ControlScheme::Pipe)
    }

    /// RASA-WLBP: weight-load bypass on clean weight-register reuse.
    #[must_use]
    pub fn rasa_wlbp() -> Self {
        DesignPoint::paper(PeVariant::Baseline, ControlScheme::Wlbp)
    }

    /// RASA-DM-PIPE: double-multiplier PEs with basic pipelining.
    #[must_use]
    pub fn rasa_dm_pipe() -> Self {
        DesignPoint::paper(PeVariant::Dm, ControlScheme::Pipe)
    }

    /// RASA-DM-WLBP: double-multiplier PEs with weight-load bypass.
    #[must_use]
    pub fn rasa_dm_wlbp() -> Self {
        DesignPoint::paper(PeVariant::Dm, ControlScheme::Wlbp)
    }

    /// RASA-DB-WLS: double-buffered PEs with weight-load skip (prefetch).
    #[must_use]
    pub fn rasa_db_wls() -> Self {
        DesignPoint::paper(PeVariant::Db, ControlScheme::Wls)
    }

    /// RASA-DMDB-WLBP: double multiplier and double buffering, bypass only.
    #[must_use]
    pub fn rasa_dmdb_wlbp() -> Self {
        DesignPoint::paper(PeVariant::Dmdb, ControlScheme::Wlbp)
    }

    /// RASA-DMDB-WLS: the most aggressive design (double multiplier, double
    /// buffering, weight-load skip) — the one Fig. 7 sweeps.
    #[must_use]
    pub fn rasa_dmdb_wls() -> Self {
        DesignPoint::paper(PeVariant::Dmdb, ControlScheme::Wls)
    }

    /// The baseline plus the seven RASA designs of the Fig. 5 runtime
    /// comparison, in presentation order.
    #[must_use]
    pub fn paper_designs() -> Vec<DesignPoint> {
        PAPER_DESIGNS.iter().map(|(_, design)| design()).collect()
    }

    /// Resolves one of the eight named paper designs from its Fig. 5 name
    /// (e.g. `"RASA-DMDB-WLS"`). The wire protocol ships designs by name,
    /// so this is how a shard worker reconstructs the design point a
    /// remote request asks for; custom design points are not resolvable.
    /// Only the design named is built.
    #[must_use]
    pub fn by_name(name: &str) -> Option<DesignPoint> {
        PAPER_DESIGNS
            .iter()
            .find(|(paper, _)| *paper == name)
            .map(|(_, design)| design())
    }

    /// The three RASA-Data design points compared in Fig. 6 (each paired
    /// with its best-performing control scheme, as in the paper).
    #[must_use]
    pub fn fig6_designs() -> Vec<DesignPoint> {
        vec![
            DesignPoint::rasa_db_wls(),
            DesignPoint::rasa_dm_wlbp(),
            DesignPoint::rasa_dmdb_wls(),
        ]
    }

    /// The design name (e.g. `RASA-DMDB-WLS`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The systolic-array configuration.
    #[must_use]
    pub const fn systolic(&self) -> &SystolicConfig {
        &self.systolic
    }

    /// The host CPU configuration.
    #[must_use]
    pub const fn cpu(&self) -> &CpuConfig {
        &self.cpu
    }

    /// Returns a copy with a different CPU configuration (for sensitivity
    /// studies on the host core).
    #[must_use]
    pub fn with_cpu(mut self, cpu: CpuConfig) -> Self {
        self.cpu = cpu;
        self
    }
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{} | {}]", self.name, self.systolic, self.cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_designs_are_the_documented_eight() {
        let designs = DesignPoint::paper_designs();
        assert_eq!(designs.len(), 8);
        let names: Vec<_> = designs.iter().map(DesignPoint::name).collect();
        assert_eq!(
            names,
            vec![
                "BASELINE",
                "RASA-PIPE",
                "RASA-WLBP",
                "RASA-DM-PIPE",
                "RASA-DM-WLBP",
                "RASA-DB-WLS",
                "RASA-DMDB-WLBP",
                "RASA-DMDB-WLS",
            ]
        );
    }

    #[test]
    fn each_paper_design_resolves_by_its_own_name() {
        for (name, design) in PAPER_DESIGNS {
            assert_eq!(design().name(), name);
            assert_eq!(DesignPoint::by_name(name), Some(design()));
        }
        assert_eq!(DesignPoint::by_name("RASA-DMDB"), None);
    }

    #[test]
    fn design_configurations_are_consistent() {
        let baseline = DesignPoint::baseline();
        assert_eq!(baseline.systolic().rows(), 32);
        assert_eq!(baseline.cpu().rob_size, 97);
        let dmdb = DesignPoint::rasa_dmdb_wls();
        assert_eq!(dmdb.systolic().rows(), 16);
        assert_eq!(dmdb.systolic().num_multipliers(), 512);
        assert!(dmdb.to_string().contains("RASA-DMDB-WLS"));
    }

    #[test]
    fn fig6_designs_match_paper_selection() {
        let names: Vec<_> = DesignPoint::fig6_designs()
            .iter()
            .map(|d| d.name().to_string())
            .collect();
        assert_eq!(names, vec!["RASA-DB-WLS", "RASA-DM-WLBP", "RASA-DMDB-WLS"]);
    }

    #[test]
    fn with_cpu_overrides_host() {
        let mut cpu = CpuConfig::skylake_like();
        cpu.rob_size = 224;
        let d = DesignPoint::baseline().with_cpu(cpu);
        assert_eq!(d.cpu().rob_size, 224);
        assert_eq!(d.name(), "BASELINE");
    }

    #[test]
    fn custom_design_point() {
        let d = DesignPoint::new(
            "CUSTOM",
            SystolicConfig::paper_baseline(),
            CpuConfig::skylake_like(),
        );
        assert_eq!(d.name(), "CUSTOM");
    }
}
