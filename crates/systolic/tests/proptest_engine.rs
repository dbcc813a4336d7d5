//! Property-based tests of the matrix-engine scheduler: structural
//! invariants that must hold for arbitrary request sequences on every
//! design point.

use proptest::prelude::*;
use rasa_isa::TileReg;
use rasa_systolic::{
    base_latency, ControlScheme, MatrixEngine, MmRequest, PeVariant, SystolicConfig, TileDims,
};

fn arb_config() -> impl Strategy<Value = SystolicConfig> {
    prop_oneof![
        Just(SystolicConfig::paper(PeVariant::Baseline, ControlScheme::Base).unwrap()),
        Just(SystolicConfig::paper(PeVariant::Baseline, ControlScheme::Pipe).unwrap()),
        Just(SystolicConfig::paper(PeVariant::Baseline, ControlScheme::Wlbp).unwrap()),
        Just(SystolicConfig::paper(PeVariant::Dm, ControlScheme::Pipe).unwrap()),
        Just(SystolicConfig::paper(PeVariant::Dm, ControlScheme::Wlbp).unwrap()),
        Just(SystolicConfig::paper(PeVariant::Db, ControlScheme::Wls).unwrap()),
        Just(SystolicConfig::paper(PeVariant::Dmdb, ControlScheme::Wlbp).unwrap()),
        Just(SystolicConfig::paper(PeVariant::Dmdb, ControlScheme::Wls).unwrap()),
    ]
}

/// A random request stream: weight register index, whether the register was
/// rewritten just before the request, and how much later than the previous
/// request its operands become ready.
fn arb_stream() -> impl Strategy<Value = Vec<(u8, bool, u64)>> {
    proptest::collection::vec(((4u8..8), any::<bool>(), 0u64..40), 1..60)
}

/// A random event stream over the weight registers: a write to a register
/// (`true`, reported through `note_tile_write`) or a `rasa_mm` using it as
/// its weight operand (`false`).
fn arb_events() -> impl Strategy<Value = Vec<(u8, bool)>> {
    proptest::collection::vec(((4u8..8), any::<bool>()), 1..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Stage windows of one instruction are contiguous and in order; issue
    /// order is preserved (Feed First starts never decrease); the busy
    /// horizon equals the last drain end; and per-instruction occupancy
    /// never exceeds the serialized Eq. 1 latency.
    #[test]
    fn schedules_are_well_formed(config in arb_config(), stream in arb_stream()) {
        let mut engine = MatrixEngine::new(config);
        let tile = TileDims::full(&config);
        let serialized = base_latency(&config, tile);
        let mut ready = 0u64;
        let mut last_ff_start = 0u64;
        let mut last_dr_end = 0u64;
        let mut counted_bypasses = 0u64;

        for (reg, rewrite, delay) in stream {
            let weight = TileReg::new(reg).unwrap();
            if rewrite {
                engine.note_tile_write(weight);
            }
            ready += delay;
            let completion = engine
                .submit(MmRequest::ready_at(weight, tile, ready))
                .expect("full tiles always fit the paper configurations");
            let t = completion.timing;

            // Stage contiguity.
            prop_assert_eq!(t.fs.start, t.ff.end);
            prop_assert_eq!(t.dr.start, t.fs.end);
            if !t.wl.is_skipped() {
                prop_assert!(t.wl.start <= t.ff.start);
            }
            // Operand readiness respected.
            prop_assert!(t.ff.start >= ready);
            // In-order issue.
            prop_assert!(t.ff.start >= last_ff_start);
            last_ff_start = t.ff.start;
            last_dr_end = last_dr_end.max(t.dr.end);
            // Occupancy bounded by the serialized latency.
            prop_assert!(t.latency() <= serialized);
            // A bypass can only happen on a bypass-capable scheme.
            if t.weight_bypassed {
                prop_assert!(config.control().supports_weight_bypass());
                counted_bypasses += 1;
            }
            // Prefetches only exist under WLS.
            if t.weight_prefetched {
                prop_assert_eq!(config.control(), ControlScheme::Wls);
            }
            prop_assert_eq!(completion.complete_cycle, t.dr.end);
        }

        let stats = engine.stats();
        prop_assert_eq!(stats.weight_bypasses, counted_bypasses);
        prop_assert_eq!(engine.busy_horizon(), last_dr_end);
        prop_assert_eq!(
            stats.weight_bypasses + stats.weight_prefetches + stats.full_weight_loads,
            stats.matmuls
        );
    }

    /// The weight-bypass rule (RASA-WLBP's dirty bit): a `submit` skips
    /// Weight Load exactly when the scheme supports bypass, the previous
    /// `submit` used the same weight register, and no `note_tile_write` on
    /// that register came in between. Writes to other registers do not
    /// matter.
    #[test]
    fn weight_bypass_follows_the_dirty_bit_rule(config in arb_config(), events in arb_events()) {
        let mut engine = MatrixEngine::new(config);
        let tile = TileDims::full(&config);
        let supported = config.control().supports_weight_bypass();
        // The previous submit's weight register, forgotten once rewritten.
        let mut reusable: Option<TileReg> = None;
        for (reg, is_write) in events {
            let reg = TileReg::new(reg).unwrap();
            if is_write {
                engine.note_tile_write(reg);
                if reusable == Some(reg) {
                    reusable = None;
                }
            } else {
                let timing = engine
                    .submit(MmRequest::ready_at(reg, tile, 0))
                    .expect("full tiles always fit the paper configurations")
                    .timing;
                prop_assert_eq!(timing.weight_bypassed, supported && reusable == Some(reg));
                reusable = Some(reg);
            }
        }
    }

    /// More aggressive control schemes never produce a later busy horizon
    /// than less aggressive ones on the same PE variant and request stream.
    #[test]
    fn scheme_aggressiveness_is_monotone(stream in arb_stream(), dm in any::<bool>()) {
        let pe = if dm { PeVariant::Dmdb } else { PeVariant::Db };
        let schemes = [
            ControlScheme::Base,
            ControlScheme::Pipe,
            ControlScheme::Wlbp,
            ControlScheme::Wls,
        ];
        let mut horizons = Vec::new();
        for scheme in schemes {
            let config = SystolicConfig::paper(pe, scheme).unwrap();
            let tile = TileDims::full(&config);
            let mut engine = MatrixEngine::new(config);
            let mut ready = 0u64;
            for &(reg, rewrite, delay) in &stream {
                let weight = TileReg::new(reg).unwrap();
                if rewrite {
                    engine.note_tile_write(weight);
                }
                ready += delay;
                engine
                    .submit(MmRequest::ready_at(weight, tile, ready))
                    .expect("valid tile");
            }
            horizons.push(engine.busy_horizon());
        }
        for pair in horizons.windows(2) {
            prop_assert!(pair[0] >= pair[1], "horizons not monotone: {:?}", horizons);
        }
    }

    /// The engine's reported MAC count is exact regardless of tile clipping.
    #[test]
    fn mac_accounting_matches_tiles(
        tm in 1usize..16,
        tk in 1usize..32,
        tn in 1usize..16,
        count in 1usize..20,
    ) {
        let config = SystolicConfig::paper(PeVariant::Baseline, ControlScheme::Wlbp).unwrap();
        let mut engine = MatrixEngine::new(config);
        let tile = TileDims::new(tm, tk, tn);
        for _ in 0..count {
            engine
                .submit(MmRequest::ready_at(TileReg::new(4).unwrap(), tile, 0))
                .unwrap();
        }
        prop_assert_eq!(
            engine.stats().total_macs,
            (tm * tk * tn * count) as u64
        );
    }
}
