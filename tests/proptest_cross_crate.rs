//! Cross-crate property tests: invariants that must hold for arbitrary
//! workload shapes and design points.

use proptest::prelude::*;
use rasa::prelude::*;
use rasa::systolic::{base_latency, steady_state_interval, ControlScheme, PeVariant, TileDims};
use rasa::trace::{GemmKernelConfig, KernelSchemeBuilder, LoopOrder, MatmulOrder};

fn arb_design() -> impl Strategy<Value = DesignPoint> {
    prop_oneof![
        Just(DesignPoint::baseline()),
        Just(DesignPoint::rasa_pipe()),
        Just(DesignPoint::rasa_wlbp()),
        Just(DesignPoint::rasa_dm_pipe()),
        Just(DesignPoint::rasa_dm_wlbp()),
        Just(DesignPoint::rasa_db_wls()),
        Just(DesignPoint::rasa_dmdb_wlbp()),
        Just(DesignPoint::rasa_dmdb_wls()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The trace generator always emits exactly one rasa_mm per register
    /// tile, whatever the GEMM shape, and the emitted program is valid.
    /// The streaming source emits the identical sequence as bounded
    /// segments (with per-segment matmul counts summing to the same total),
    /// and `matmul_count` predicts the uncapped emission exactly.
    #[test]
    fn trace_matmul_count_matches_tiling(
        m in 1usize..200,
        k in 1usize..200,
        n in 1usize..200,
        segment_size in 1usize..600,
    ) {
        let generator = TraceGenerator::amx_like()
            .with_kernel(GemmKernelConfig::amx_like().without_scalar_overhead())
            .unwrap();
        let shape = GemmShape::new(m, k, n);
        let program = generator.gemm(shape, "prop").unwrap();
        let tiles = m.div_ceil(16) * k.div_ceil(32) * n.div_ceil(16);
        prop_assert_eq!(program.count_matmuls(), tiles);
        prop_assert_eq!(generator.matmul_count(shape).unwrap(), tiles);
        // Every accumulator tile is loaded and stored exactly once.
        let c_tiles = m.div_ceil(16) * n.div_ceil(16);
        prop_assert_eq!(program.stats().tile_stores, c_tiles);

        // Streamed segments reassemble to the materialized program.
        let blocks = generator.block_count(shape).unwrap();
        let mut stream = generator.gemm_blocks(shape, "prop", 0..blocks, segment_size).unwrap();
        let mut segments = Vec::new();
        let mut streamed_matmuls = 0usize;
        while let Some(segment) = stream.next_segment().unwrap() {
            streamed_matmuls += segment.count_matmuls();
            segments.push(segment);
        }
        prop_assert_eq!(streamed_matmuls, tiles);
        let rebuilt = rasa::isa::Program::from_segments(segments, "prop").unwrap();
        prop_assert_eq!(&rebuilt, &program);
    }

    /// Every RASA design completes any small workload at least as fast as
    /// the serialized baseline, and never loses instructions.
    #[test]
    fn designs_never_lose_instructions_and_never_slow_down(
        design in arb_design(),
        m in 1usize..6,
        k in 1usize..6,
        n in 1usize..6,
    ) {
        let shape = GemmShape::new(m * 16, k * 32, n * 16);
        let baseline = Simulator::new(DesignPoint::baseline()).unwrap()
            .run_gemm(shape).unwrap();
        let report = Simulator::new(design).unwrap().run_gemm(shape).unwrap();
        prop_assert_eq!(report.total_matmuls, (m * k * n) as u64);
        prop_assert_eq!(report.simulated_matmuls, (m * k * n) as u64);
        prop_assert!(report.core_cycles <= baseline.core_cycles);
        prop_assert!(report.core_cycles > 0);
    }

    /// The closed-form steady-state interval never exceeds the serialized
    /// latency and never drops below the Feed First duration, for any tile
    /// shape and design.
    #[test]
    fn steady_state_interval_is_bounded(
        tm in 1usize..16,
        tk in 1usize..32,
        tn in 1usize..16,
        reuse in any::<bool>(),
    ) {
        for pe in PeVariant::all() {
            for scheme in ControlScheme::all() {
                let Ok(cfg) = SystolicConfig::paper(pe, scheme) else { continue };
                let tile = TileDims::new(tm, tk, tn);
                let interval = steady_state_interval(&cfg, tile, reuse);
                prop_assert!(interval <= base_latency(&cfg, tile));
                prop_assert!(interval >= tm as u64);
            }
        }
    }

    /// The event-driven core scheduler is cycle-exact: for arbitrary
    /// instruction mixes, designs and buffer sizes, its statistics are
    /// bit-identical to the cycle-stepping reference loop — and feeding
    /// the same program through the resumable streaming API in arbitrary
    /// bounded chunks reproduces them again, bit for bit.
    #[test]
    fn event_driven_core_matches_reference_on_random_programs(
        design in arb_design(),
        seed in 0u64..1000,
        length in 1usize..160,
        rob_size in 6usize..97,
        rs_size in 2usize..60,
        chunk in 1usize..48,
    ) {
        use rand::{Rng, SeedableRng};
        use rasa::cpu::{CpuConfig, CpuCore};
        use rasa::isa::{GprReg, IsaConfig, MemRef, ProgramBuilder, TileReg};
        use rasa::systolic::MatrixEngine;

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = ProgramBuilder::new(IsaConfig::amx_like());
        for i in 0..8u8 {
            b.declare_live_in(TileReg::new(i).unwrap());
        }
        for _ in 0..length {
            match rng.gen_range(0u32..8) {
                0 => { b.tile_load(
                    TileReg::new(rng.gen_range(0u8..8)).unwrap(),
                    MemRef::tile(u64::from(rng.gen_range(0u32..64)) * 0x400, 64),
                ); }
                1 => { b.tile_store(
                    MemRef::tile(u64::from(rng.gen_range(0u32..64)) * 0x400, 64),
                    TileReg::new(rng.gen_range(0u8..8)).unwrap(),
                ); }
                2 => { b.matmul(
                    TileReg::new(rng.gen_range(0u8..4)).unwrap(),
                    TileReg::new(rng.gen_range(4u8..6)).unwrap(),
                    TileReg::new(rng.gen_range(6u8..8)).unwrap(),
                ); }
                3 => { b.tile_zero(TileReg::new(rng.gen_range(0u8..8)).unwrap()); }
                4 => {
                    let srcs: Vec<GprReg> = (0..rng.gen_range(0usize..3))
                        .map(|_| GprReg::new(rng.gen_range(0u8..16)).unwrap())
                        .collect();
                    b.scalar_alu(GprReg::new(rng.gen_range(0u8..16)).unwrap(), &srcs);
                }
                5 => { b.vector_fma(
                    rng.gen_range(0u8..32),
                    rng.gen_range(0u8..32),
                    rng.gen_range(0u8..32),
                ); }
                6 => { b.branch(rng.gen_range(0u32..2) == 0); }
                _ => { b.push(rasa::isa::Instruction::Nop); }
            }
        }
        let program = b.finish().unwrap();

        let mut cfg = CpuConfig::skylake_like();
        cfg.rob_size = rob_size;
        cfg.rs_size = rs_size;
        let engine = MatrixEngine::new(*design.systolic());
        let mut core = CpuCore::new(cfg, engine);
        let event = core.run(&program).unwrap();
        let reference = core.run_reference(&program).unwrap();
        prop_assert_eq!(&event, &reference);

        // Resumable streaming parity: feed the program in bounded chunks.
        let mut run = core.begin_run(program.isa()).unwrap();
        for slice in program.instructions().chunks(chunk) {
            core.feed_instructions(&mut run, slice).unwrap();
        }
        let streamed = core.run_to_quiescence(run).unwrap();
        prop_assert_eq!(&streamed, &event);
        prop_assert_eq!(
            core.stream_stats().segments as usize,
            program.len().div_ceil(chunk)
        );
    }

    /// Two jobs that differ only in their kernel scheme must never alias —
    /// not in the runner's semantic cell key (the LRU memoization key) and
    /// not in the serving tier's shape key (the consistent-hash routing
    /// key, which is defined to be the same string). A default-kernel wire
    /// request additionally stays byte-stable: its JSON carries no scheme
    /// member at all.
    #[test]
    fn kernel_schemes_never_alias_cell_or_shape_keys(
        design in arb_design(),
        block_a in 0usize..5,
        block_b in 0usize..5,
        interleaved_a in any::<bool>(),
        interleaved_b in any::<bool>(),
        n_innermost_a in any::<bool>(),
        n_innermost_b in any::<bool>(),
        unroll_a in any::<bool>(),
        unroll_b in any::<bool>(),
    ) {
        let kernel = |block: usize, interleaved: bool, n_innermost: bool, unroll: bool| {
            let (bm, bn) = [(2, 2), (1, 2), (2, 1), (1, 3), (3, 1)][block];
            let mut builder = KernelSchemeBuilder::new()
                .with_block(bm, bn)
                .with_matmul_order(if interleaved {
                    MatmulOrder::Interleaved
                } else {
                    MatmulOrder::WeightPaired
                })
                .with_loop_order(if n_innermost {
                    LoopOrder::NInnermost
                } else {
                    LoopOrder::KInnermost
                });
            if unroll {
                builder = builder.without_scalar_overhead();
            }
            builder.build().unwrap()
        };
        let a = kernel(block_a, interleaved_a, n_innermost_a, unroll_a);
        let b = kernel(block_b, interleaved_b, n_innermost_b, unroll_b);
        prop_assume!(a != b);

        let layer = LayerSpec::fc("KEY-PROP", 64, 64, 64);
        let job_a = SimJob::new(design.clone(), layer.clone()).with_kernel(a);
        let job_b = SimJob::new(design.clone(), layer.clone()).with_kernel(b);
        for cap in [None, Some(256)] {
            prop_assert_ne!(job_a.semantic_key(cap), job_b.semantic_key(cap));
        }

        let request_a = WireRequest::new(1, design.name(), layer.clone()).with_kernel(a);
        let request_b = WireRequest::new(1, design.name(), layer.clone()).with_kernel(b);
        prop_assert_ne!(
            request_a.shape_key(Some(256)).unwrap(),
            request_b.shape_key(Some(256)).unwrap()
        );

        // The default-kernel wire encoding predates kernel schemes and must
        // keep its exact shape: no scheme member, and the default kernel's
        // explicit encoding round-trips to the same key as omitting it.
        let default_request =
            WireRequest::new(1, design.name(), layer).with_kernel(GemmKernelConfig::amx_like());
        prop_assert!(!default_request.to_json().to_string_pretty().contains("\"scheme\""));
        prop_assert_eq!(
            request_a.to_json().to_string_pretty().contains("\"scheme\""),
            !a.scheme.is_default()
        );
    }

    /// Interning cell keys is a pure optimization, never a semantic
    /// change: for any design × workload × kernel × cap, the interned
    /// key's text is byte-identical to the legacy string key, its
    /// precomputed hash is exactly the consistent-hash ring point of that
    /// text (so router placement is unchanged on any ring), the wire
    /// request renders the identical key, and interning is aliasing-free —
    /// equal text means equal keys, perturbed text never compares equal.
    #[test]
    fn interned_cell_keys_match_legacy_string_keys_everywhere(
        design in arb_design(),
        m in 1usize..128,
        k in 1usize..128,
        n in 1usize..128,
        block in 0usize..5,
        interleaved in any::<bool>(),
        unroll in any::<bool>(),
        cap in prop_oneof![Just(None), (1usize..512).prop_map(Some)],
        shards in 1usize..6,
        vnodes in 1usize..48,
    ) {
        use rasa::sim::net::hash::ring_point;
        use rasa::sim::net::HashRing;
        use rasa::sim::CellKey;

        let (bm, bn) = [(2, 2), (1, 2), (2, 1), (1, 3), (3, 1)][block];
        let mut builder = KernelSchemeBuilder::new()
            .with_block(bm, bn)
            .with_matmul_order(if interleaved {
                MatmulOrder::Interleaved
            } else {
                MatmulOrder::WeightPaired
            });
        if unroll {
            builder = builder.without_scalar_overhead();
        }
        let kernel = builder.build().unwrap();
        let layer = LayerSpec::fc(format!("KEY-{m}x{k}x{n}"), m, k, n);
        let job = SimJob::new(design.clone(), layer.clone()).with_kernel(kernel);

        // Byte-identity with the legacy string rendering, at every cap.
        let legacy = job.semantic_key(cap);
        let interned = job.cell_key(cap);
        prop_assert_eq!(interned.as_str(), legacy.as_str());
        prop_assert_eq!(interned.to_string(), legacy.as_str());

        // The precomputed hash is the ring point of the text, so the
        // zero-rehash router path places the key exactly where hashing
        // the string again would, on any ring shape.
        prop_assert_eq!(interned.hash64(), ring_point(legacy.as_bytes()));
        let ring = HashRing::new(shards, vnodes);
        prop_assert_eq!(ring.route(&legacy), ring.route_point(interned.hash64()));

        // The serving tier renders the same key from the wire form.
        let request = WireRequest::new(7, design.name(), layer).with_kernel(kernel);
        prop_assert_eq!(&request.shape_key(cap).unwrap(), &interned);

        // Aliasing-freedom: re-interning the same text compares equal with
        // the same hash; any perturbation of the text never aliases.
        let again = CellKey::from(legacy.clone());
        prop_assert_eq!(&again, &interned);
        prop_assert_eq!(again.hash64(), interned.hash64());
        let perturbed = CellKey::new(format!("{legacy}|x"));
        prop_assert_ne!(&perturbed, &interned);
    }

    /// Functional correctness of the systolic array holds for random
    /// operand values on every PE variant (random shapes are covered by the
    /// crate-level tests; here the emphasis is on data).
    #[test]
    fn functional_array_matches_reference_on_random_data(seed in 0u64..500) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::from_fn(7, 19, |_, _| Bf16::from_f32(rng.gen_range(-2.0f32..2.0)));
        let b = Matrix::from_fn(19, 11, |_, _| Bf16::from_f32(rng.gen_range(-2.0f32..2.0)));
        let c = Matrix::from_fn(7, 11, |_, _| rng.gen_range(-2.0f32..2.0));
        let mut golden = c.clone();
        gemm_bf16_fp32(&a, &b, &mut golden).unwrap();

        for pe in PeVariant::all() {
            let scheme = if pe.has_double_buffering() { ControlScheme::Wls } else { ControlScheme::Base };
            let cfg = SystolicConfig::paper(pe, scheme).unwrap();
            let mut array = FunctionalArray::new(cfg);
            let (out, _) = array.matmul(&a, &b, &c).unwrap();
            // The double-multiplier variants accumulate the even and odd K
            // positions in separate chains before merging, so the result can
            // differ from the reference by floating-point associativity.
            prop_assert!(rasa::numeric::max_abs_diff(&golden, &out) < 1e-4);
        }
    }
}

/// Steady-state fast-forward is exact: on random GEMMs (M and N need not
/// be multiples of the register block), matmul caps, kernel schemes,
/// designs and segment sizes, the fast-forwarded run's `CpuStats` and
/// `SchedStats` equal both the sequential streamed run's and those of the
/// materialized trace on the one-shot core, bit for bit, and it counts every
/// skipped instruction as fed. At least four fifths of the drawn cases must
/// actually fast-forward, so the property cannot hold vacuously.
#[test]
fn fast_forward_matches_sequential_and_materialized_runs() {
    const CASES: usize = 64;
    let mut rng = proptest::rng_for("fast_forward_matches_sequential_and_materialized_runs");
    let mut engaged = 0;
    for case in 0..CASES {
        let design = arb_design().sample(&mut rng);
        let shape = GemmShape::new(
            (1usize..400).sample(&mut rng),
            (1usize..130).sample(&mut rng),
            (1usize..400).sample(&mut rng),
        );
        let (bm, bn) = [(2, 2), (1, 2), (2, 1), (1, 3), (3, 1)][(0usize..5).sample(&mut rng)];
        let builder = KernelSchemeBuilder::new()
            .with_block(bm, bn)
            .with_loop_order(if any::<bool>().sample(&mut rng) {
                LoopOrder::NInnermost
            } else {
                LoopOrder::KInnermost
            })
            .with_matmul_order(if any::<bool>().sample(&mut rng) {
                MatmulOrder::Interleaved
            } else {
                MatmulOrder::WeightPaired
            });
        let builder = match (0u8..3).sample(&mut rng) {
            0 => builder,
            1 => builder.with_scalar_ops_per_step(1),
            _ => builder.without_scalar_overhead(),
        };
        let segment_size = (8usize..128).sample(&mut rng);
        let mut kernel = builder.with_segment_size(segment_size).build().unwrap();
        kernel.max_matmuls = if any::<bool>().sample(&mut rng) {
            None
        } else {
            Some((1usize..2000).sample(&mut rng))
        };

        let sim = Simulator::new(design).unwrap().with_kernel(kernel).unwrap();
        let what = format!(
            "case {case}: {} on {shape:?}, kernel {kernel}, segment {segment_size}",
            sim.design().name()
        );
        let fast = sim.run_gemm(shape).unwrap();
        let sequential = sim.clone().with_speculation(false).run_gemm(shape).unwrap();
        // The materialized oracle: the whole trace up front on the one-shot
        // core.
        let generator = TraceGenerator::amx_like().with_kernel(kernel).unwrap();
        let program = generator.gemm(shape, "oracle").unwrap();
        let total = generator.matmul_count(shape).unwrap() as u64;
        let materialized = sim.run_program(&program, total, "oracle").unwrap();
        assert_eq!(fast.cpu, sequential.cpu, "{what}");
        assert_eq!(fast.sched, sequential.sched, "{what}");
        assert_eq!(fast.cpu, materialized.cpu, "{what}");
        assert_eq!(fast.sched, materialized.sched, "{what}");
        assert_eq!(
            fast.pipeline.fed_instructions, materialized.pipeline.fed_instructions,
            "{what}"
        );
        assert_eq!(fast.pipeline.spec_commits, fast.pipeline.spec_forks);
        assert_eq!(sequential.pipeline.spec_forks, 0);
        if fast.pipeline.spec_forks > 0 {
            engaged += 1;
        }
    }
    assert!(
        engaged * 5 >= CASES * 4,
        "only {engaged} of {CASES} cases fast-forwarded"
    );
}
