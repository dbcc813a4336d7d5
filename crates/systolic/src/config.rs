use crate::SystolicError;
use std::fmt;

/// RASA-Data processing-element variants (§IV-B, Fig. 4(c)).
///
/// All variants perform the same mixed-precision computation (BF16 × BF16
/// products accumulated in FP32); they differ in the per-PE resources and
/// therefore in the array geometry and the control optimizations they
/// enable:
///
/// * [`PeVariant::Baseline`] — one multiplier, one adder, a single weight
///   buffer.
/// * [`PeVariant::Db`] — **D**ouble **B**uffering: an extra weight buffer
///   plus dedicated weight links, enabling Weight Load Skip
///   ([`ControlScheme::Wls`]).
/// * [`PeVariant::Dm`] — **D**ouble **M**ultiplier: two multipliers and an
///   extra adder per PE so each PE covers two K positions; the array uses
///   half the rows (same total multiplier count) plus a merge-adder row at
///   the bottom.
/// * [`PeVariant::Dmdb`] — both DB and DM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PeVariant {
    /// Baseline PE: single multiplier, single weight buffer.
    Baseline,
    /// Double-buffered weights (enables WLS).
    Db,
    /// Double multiplier (two K positions per PE, merge-adder row).
    Dm,
    /// Double multiplier and double-buffered weights.
    Dmdb,
}

impl PeVariant {
    /// Number of weight buffers per PE (1, or 2 with double buffering).
    #[must_use]
    pub const fn weight_buffers(self) -> usize {
        match self {
            PeVariant::Baseline | PeVariant::Dm => 1,
            PeVariant::Db | PeVariant::Dmdb => 2,
        }
    }

    /// Number of multipliers per PE (and K positions folded into one PE).
    #[must_use]
    pub const fn multipliers_per_pe(self) -> usize {
        match self {
            PeVariant::Baseline | PeVariant::Db => 1,
            PeVariant::Dm | PeVariant::Dmdb => 2,
        }
    }

    /// Whether the variant has the shadow weight plane required by
    /// [`ControlScheme::Wls`].
    #[must_use]
    pub const fn has_double_buffering(self) -> bool {
        self.weight_buffers() == 2
    }

    /// Whether the variant folds two K positions per PE.
    #[must_use]
    pub const fn has_double_multiplier(self) -> bool {
        self.multipliers_per_pe() == 2
    }

    /// Whether the array needs the extra merge-adder row at the bottom
    /// (present exactly when two partial-sum chains per column must be
    /// reduced).
    #[must_use]
    pub const fn needs_merge_adder_row(self) -> bool {
        self.has_double_multiplier()
    }

    /// Short uppercase name used in design-point labels (`DB`, `DM`, …).
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            PeVariant::Baseline => "BASE-PE",
            PeVariant::Db => "DB",
            PeVariant::Dm => "DM",
            PeVariant::Dmdb => "DMDB",
        }
    }

    /// All variants, in the order the paper presents them.
    #[must_use]
    pub const fn all() -> [PeVariant; 4] {
        [
            PeVariant::Baseline,
            PeVariant::Db,
            PeVariant::Dm,
            PeVariant::Dmdb,
        ]
    }
}

impl fmt::Display for PeVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// RASA-Control pipelining schemes (§IV-B, Fig. 4(b)).
///
/// The scheme decides how the sub-stages of consecutive `rasa_mm`
/// instructions may overlap on the array:
///
/// * [`ControlScheme::Base`] — no overlap; instructions are fully
///   serialized (one per `L_tot` cycles).
/// * [`ControlScheme::Pipe`] — the Drain of instruction *i* overlaps the
///   Weight Load of instruction *i+1*.
/// * [`ControlScheme::Wlbp`] — Weight Load Bypass: when the weight tile
///   register is reused and clean, Weight Load is skipped entirely and the
///   next Feed First may overlap the previous Feed Second/Drain.
/// * [`ControlScheme::Wls`] — Weight Load Skip: the next weights are
///   prefetched into the shadow buffer during the previous instruction's
///   compute, hiding Weight Load even when weights change. Requires a PE
///   variant with double buffering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ControlScheme {
    /// Fully serialized execution.
    Base,
    /// Basic pipelining: overlap previous Drain with next Weight Load.
    Pipe,
    /// Weight Load Bypass on weight-register reuse (includes PIPE).
    Wlbp,
    /// Weight Load Skip via shadow-buffer prefetch (includes WLBP and PIPE).
    Wls,
}

impl ControlScheme {
    /// Whether the scheme requires double-buffered weights.
    #[must_use]
    pub const fn requires_double_buffering(self) -> bool {
        matches!(self, ControlScheme::Wls)
    }

    /// Whether the scheme can skip Weight Load when the weight register is
    /// reused with a clear dirty bit.
    #[must_use]
    pub const fn supports_weight_bypass(self) -> bool {
        matches!(self, ControlScheme::Wlbp | ControlScheme::Wls)
    }

    /// Whether the scheme can run on a PE variant: every scheme except WLS
    /// works everywhere, and WLS needs the shadow weight plane of a
    /// double-buffered variant. This is the single validity rule of the
    /// (variant × scheme) design space; [`SystolicConfig::new`] enforces it
    /// and design-space enumeration filters with it.
    #[must_use]
    pub const fn is_supported_by(self, pe: PeVariant) -> bool {
        !self.requires_double_buffering() || pe.has_double_buffering()
    }

    /// Short uppercase name used in design-point labels.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            ControlScheme::Base => "BASE",
            ControlScheme::Pipe => "PIPE",
            ControlScheme::Wlbp => "WLBP",
            ControlScheme::Wls => "WLS",
        }
    }

    /// All schemes, from least to most aggressive.
    #[must_use]
    pub const fn all() -> [ControlScheme; 4] {
        [
            ControlScheme::Base,
            ControlScheme::Pipe,
            ControlScheme::Wlbp,
            ControlScheme::Wls,
        ]
    }
}

impl fmt::Display for ControlScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Full configuration of the systolic-array matrix engine.
///
/// `rows` is the number of physical PE rows (the K dimension of the array)
/// and `cols` the number of physical PE columns (the N dimension). The
/// paper's evaluated arrays are 32×16 with single-multiplier PEs and 16×16
/// with double-multiplier PEs, keeping the total multiplier count at 512 in
/// both cases; [`SystolicConfig::paper`] encodes that convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SystolicConfig {
    rows: usize,
    cols: usize,
    pe: PeVariant,
    control: ControlScheme,
    /// CPU core cycles per engine cycle (the paper runs the array at
    /// 500 MHz under a 2 GHz core: ratio 4).
    clock_ratio: u32,
    /// Maximum number of `rasa_mm` instructions the engine tracks in flight.
    max_in_flight: usize,
}

impl SystolicConfig {
    /// Creates a configuration after validating it.
    ///
    /// # Errors
    ///
    /// Returns [`SystolicError::InvalidConfig`] for zero dimensions or a zero
    /// clock ratio, and [`SystolicError::UnsupportedCombination`] when the
    /// control scheme requires double buffering the PE variant lacks.
    pub fn new(
        rows: usize,
        cols: usize,
        pe: PeVariant,
        control: ControlScheme,
        clock_ratio: u32,
    ) -> Result<Self, SystolicError> {
        if rows == 0 || cols == 0 {
            return Err(SystolicError::InvalidConfig {
                reason: format!("array dimensions must be non-zero, got {rows}x{cols}"),
            });
        }
        if clock_ratio == 0 {
            return Err(SystolicError::InvalidConfig {
                reason: "clock ratio must be at least 1".to_string(),
            });
        }
        if !control.is_supported_by(pe) {
            return Err(SystolicError::UnsupportedCombination {
                scheme: control.label(),
                variant: pe.label(),
                reason: "weight load skip prefetches into a shadow weight buffer".to_string(),
            });
        }
        Ok(SystolicConfig {
            rows,
            cols,
            pe,
            control,
            clock_ratio,
            max_in_flight: 8,
        })
    }

    /// The paper's evaluated geometry for a given PE variant and control
    /// scheme: 32×16 PEs (16×16 with a double-multiplier variant, keeping
    /// the multiplier count constant), engine at 500 MHz under a 2 GHz core.
    ///
    /// # Errors
    ///
    /// Returns [`SystolicError::UnsupportedCombination`] when `control`
    /// requires double buffering and `pe` lacks it.
    pub fn paper(pe: PeVariant, control: ControlScheme) -> Result<Self, SystolicError> {
        SystolicConfig::new(SystolicConfig::paper_rows(pe), 16, pe, control, 4)
    }

    /// The paper's baseline design: 32×16 baseline PEs, no pipelining.
    #[must_use]
    pub fn paper_baseline() -> Self {
        SystolicConfig::paper(PeVariant::Baseline, ControlScheme::Base)
            .expect("baseline combination is always valid")
    }

    /// The paper's PE-row convention for a variant: double-multiplier PEs
    /// cover two K positions, so the array halves its rows to keep the
    /// multiplier count at 512.
    #[must_use]
    pub const fn paper_rows(pe: PeVariant) -> usize {
        if pe.has_double_multiplier() {
            16
        } else {
            32
        }
    }

    /// Every valid (PE variant × control scheme) combination, variant-major
    /// in the paper's presentation order: 14 of the 16 raw pairs survive
    /// the WLS filter. This is the ground-truth count an exhaustive search
    /// over the paper's design space must cover (asserted by
    /// `tests/paper_claims.rs`).
    #[must_use]
    pub fn valid_combinations() -> Vec<(PeVariant, ControlScheme)> {
        PeVariant::all()
            .into_iter()
            .flat_map(|pe| {
                ControlScheme::all()
                    .into_iter()
                    .filter(move |scheme| scheme.is_supported_by(pe))
                    .map(move |scheme| (pe, scheme))
            })
            .collect()
    }

    /// Physical PE rows.
    #[must_use]
    pub const fn rows(&self) -> usize {
        self.rows
    }

    /// Physical PE columns.
    #[must_use]
    pub const fn cols(&self) -> usize {
        self.cols
    }

    /// PE variant.
    #[must_use]
    pub const fn pe(&self) -> PeVariant {
        self.pe
    }

    /// Control scheme.
    #[must_use]
    pub const fn control(&self) -> ControlScheme {
        self.control
    }

    /// CPU cycles per engine cycle.
    #[must_use]
    pub const fn clock_ratio(&self) -> u32 {
        self.clock_ratio
    }

    /// Maximum `rasa_mm` instructions tracked in flight by the engine.
    #[must_use]
    pub const fn max_in_flight(&self) -> usize {
        self.max_in_flight
    }

    /// Total number of PEs.
    #[must_use]
    pub const fn num_pes(&self) -> usize {
        self.rows * self.cols
    }

    /// Total number of multipliers (constant across the paper's variants).
    #[must_use]
    pub const fn num_multipliers(&self) -> usize {
        self.num_pes() * self.pe.multipliers_per_pe()
    }

    /// Maximum K extent of a tile the array can hold stationary.
    #[must_use]
    pub const fn max_tk(&self) -> usize {
        self.rows * self.pe.multipliers_per_pe()
    }

    /// Maximum N extent of a tile.
    #[must_use]
    pub const fn max_tn(&self) -> usize {
        self.cols
    }

    /// Peak multiply-accumulate throughput per engine cycle.
    #[must_use]
    pub const fn peak_macs_per_cycle(&self) -> usize {
        self.num_multipliers()
    }

    /// Returns a copy with a different control scheme.
    ///
    /// # Errors
    ///
    /// Returns [`SystolicError::UnsupportedCombination`] when the new scheme
    /// is incompatible with the PE variant.
    pub fn with_control(&self, control: ControlScheme) -> Result<Self, SystolicError> {
        SystolicConfig::new(self.rows, self.cols, self.pe, control, self.clock_ratio)
    }

    /// Returns a copy with a different in-flight limit (at least 1).
    #[must_use]
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight.max(1);
        self
    }

    /// A short design label such as `RASA-DMDB-WLS` or `BASELINE`.
    #[must_use]
    pub fn label(&self) -> String {
        match (self.pe, self.control) {
            (PeVariant::Baseline, ControlScheme::Base) => "BASELINE".to_string(),
            (PeVariant::Baseline, c) => format!("RASA-{}", c.label()),
            (p, c) => format!("RASA-{}-{}", p.label(), c.label()),
        }
    }
}

impl Default for SystolicConfig {
    fn default() -> Self {
        SystolicConfig::paper_baseline()
    }
}

impl fmt::Display for SystolicConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}x{} {} PEs, {} control, 1:{} clock)",
            self.label(),
            self.rows,
            self.cols,
            self.pe,
            self.control,
            self.clock_ratio
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_resources() {
        assert_eq!(PeVariant::Baseline.weight_buffers(), 1);
        assert_eq!(PeVariant::Db.weight_buffers(), 2);
        assert_eq!(PeVariant::Dm.multipliers_per_pe(), 2);
        assert_eq!(PeVariant::Dmdb.multipliers_per_pe(), 2);
        assert_eq!(PeVariant::Dmdb.weight_buffers(), 2);
        assert!(PeVariant::Dm.needs_merge_adder_row());
        assert!(!PeVariant::Db.needs_merge_adder_row());
        assert_eq!(PeVariant::all().len(), 4);
    }

    #[test]
    fn scheme_capabilities() {
        assert!(!ControlScheme::Base.supports_weight_bypass());
        assert!(!ControlScheme::Pipe.supports_weight_bypass());
        assert!(ControlScheme::Wlbp.supports_weight_bypass());
        assert!(ControlScheme::Wls.supports_weight_bypass());
        assert!(ControlScheme::Wls.requires_double_buffering());
        assert!(!ControlScheme::Wlbp.requires_double_buffering());
    }

    #[test]
    fn paper_geometry_keeps_multiplier_count() {
        let base = SystolicConfig::paper(PeVariant::Baseline, ControlScheme::Base).unwrap();
        assert_eq!(base.rows(), 32);
        assert_eq!(base.cols(), 16);
        assert_eq!(base.num_multipliers(), 512);
        assert_eq!(base.max_tk(), 32);
        assert_eq!(base.max_tn(), 16);

        let dm = SystolicConfig::paper(PeVariant::Dm, ControlScheme::Pipe).unwrap();
        assert_eq!(dm.rows(), 16);
        assert_eq!(dm.num_pes(), 256);
        assert_eq!(dm.num_multipliers(), 512);
        assert_eq!(dm.max_tk(), 32);
    }

    #[test]
    fn wls_requires_double_buffering() {
        assert!(SystolicConfig::paper(PeVariant::Baseline, ControlScheme::Wls).is_err());
        assert!(SystolicConfig::paper(PeVariant::Dm, ControlScheme::Wls).is_err());
        assert!(SystolicConfig::paper(PeVariant::Db, ControlScheme::Wls).is_ok());
        assert!(SystolicConfig::paper(PeVariant::Dmdb, ControlScheme::Wls).is_ok());
        assert!(!ControlScheme::Wls.is_supported_by(PeVariant::Baseline));
        assert!(!ControlScheme::Wls.is_supported_by(PeVariant::Dm));
        assert!(ControlScheme::Wls.is_supported_by(PeVariant::Db));
        assert!(ControlScheme::Wlbp.is_supported_by(PeVariant::Baseline));
    }

    #[test]
    fn valid_combinations_enumerate_the_fourteen_designs() {
        let combos = SystolicConfig::valid_combinations();
        assert_eq!(combos.len(), 14, "16 raw pairs minus the two invalid WLS");
        assert!(combos
            .iter()
            .all(|(pe, scheme)| scheme.is_supported_by(*pe)));
        // Variant-major presentation order, starting from the baseline.
        assert_eq!(combos[0], (PeVariant::Baseline, ControlScheme::Base));
        assert!(!combos.contains(&(PeVariant::Baseline, ControlScheme::Wls)));
        assert!(!combos.contains(&(PeVariant::Dm, ControlScheme::Wls)));

        // Every materialized combination follows the paper's row
        // convention and keeps the 512-multiplier budget.
        for (pe, scheme) in combos {
            let config = SystolicConfig::paper(pe, scheme).unwrap();
            assert_eq!(config.rows(), SystolicConfig::paper_rows(pe));
            assert_eq!(config.num_multipliers(), 512);
        }
        assert_eq!(SystolicConfig::paper_rows(PeVariant::Baseline), 32);
        assert_eq!(SystolicConfig::paper_rows(PeVariant::Dmdb), 16);
    }

    #[test]
    fn invalid_dimensions_rejected() {
        assert!(SystolicConfig::new(0, 16, PeVariant::Baseline, ControlScheme::Base, 4).is_err());
        assert!(SystolicConfig::new(32, 0, PeVariant::Baseline, ControlScheme::Base, 4).is_err());
        assert!(SystolicConfig::new(32, 16, PeVariant::Baseline, ControlScheme::Base, 0).is_err());
    }

    #[test]
    fn labels() {
        assert_eq!(SystolicConfig::paper_baseline().label(), "BASELINE");
        let wlbp = SystolicConfig::paper(PeVariant::Baseline, ControlScheme::Wlbp).unwrap();
        assert_eq!(wlbp.label(), "RASA-WLBP");
        let dmdb = SystolicConfig::paper(PeVariant::Dmdb, ControlScheme::Wls).unwrap();
        assert_eq!(dmdb.label(), "RASA-DMDB-WLS");
        assert!(dmdb.to_string().contains("16x16"));
    }

    #[test]
    fn with_control_revalidates() {
        let base = SystolicConfig::paper_baseline();
        assert!(base.with_control(ControlScheme::Wls).is_err());
        let piped = base.with_control(ControlScheme::Pipe).unwrap();
        assert_eq!(piped.control(), ControlScheme::Pipe);
        assert_eq!(piped.rows(), base.rows());
    }

    #[test]
    fn default_is_paper_baseline() {
        assert_eq!(SystolicConfig::default(), SystolicConfig::paper_baseline());
    }

    #[test]
    fn in_flight_floor_is_one() {
        let cfg = SystolicConfig::paper_baseline().with_max_in_flight(0);
        assert_eq!(cfg.max_in_flight(), 1);
    }
}
