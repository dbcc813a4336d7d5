//! Cross-crate property tests: invariants that must hold for arbitrary
//! workload shapes and design points.

use proptest::prelude::*;
use rasa::isa::{Instruction, InstructionKind};
use rasa::prelude::*;
use rasa::systolic::{base_latency, steady_state_interval, ControlScheme, PeVariant, TileDims};
use rasa::trace::{GemmKernelConfig, KernelSchemeBuilder, LoopOrder, MatmulOrder};

/// A kernel scheme drawn over every axis: register block, loop order,
/// matmul order and scalar-overhead model (uncapped).
fn arb_kernel() -> impl Strategy<Value = GemmKernelConfig> {
    (0usize..5, any::<bool>(), any::<bool>(), 0u8..3).prop_map(
        |(block, n_innermost, interleaved, scalar)| {
            let (bm, bn) = [(2, 2), (1, 2), (2, 1), (1, 3), (3, 1)][block];
            let builder = KernelSchemeBuilder::new()
                .with_block(bm, bn)
                .with_loop_order(if n_innermost {
                    LoopOrder::NInnermost
                } else {
                    LoopOrder::KInnermost
                })
                .with_matmul_order(if interleaved {
                    MatmulOrder::Interleaved
                } else {
                    MatmulOrder::WeightPaired
                });
            let builder = match scalar {
                0 => builder,
                1 => builder.with_scalar_ops_per_step(1),
                _ => builder.without_scalar_overhead(),
            };
            builder.build().unwrap()
        },
    )
}

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
    /// tile, whatever the GEMM shape and kernel scheme, and the emitted
    /// program is valid. The streaming cursor emits the identical sequence
    /// as whole-block pieces, capped or not, from the walk's start or from
    /// any block it skips to. The walk plan predicts what the cursor emits:
    /// its whole-block pieces, which under a cap are the shortest block
    /// prefix whose `rasa_mm`s reach it; the uncapped `rasa_mm` count; the
    /// length of a uniform step of any block; and a uniform run of whole
    /// periods inside the walk.
    #[test]
    fn trace_matmul_count_matches_tiling(
        m in 1usize..200,
        k in 1usize..200,
        n in 1usize..200,
        kernel in arb_kernel(),
        (capped, cap) in (any::<bool>(), 0usize..1_000_000),
        skip in 0usize..64,
        sample in 0usize..1_000_000,
    ) {
        let shape = GemmShape::new(m, k, n);
        let (m_tiles, k_tiles, n_tiles) = (m.div_ceil(16), k.div_ceil(32), n.div_ceil(16));
        let tiles = m_tiles * k_tiles * n_tiles;
        let uncapped = TraceGenerator::amx_like().with_kernel(kernel).unwrap();
        let program = uncapped.gemm(shape, "prop").unwrap();
        prop_assert_eq!(program.count_matmuls(), tiles);
        // Every accumulator tile is stored once, or once per reduction step
        // when the accumulators are spilled around every step.
        let stores = match kernel.scheme.loop_order {
            LoopOrder::KInnermost => m_tiles * n_tiles,
            LoopOrder::NInnermost => m_tiles * n_tiles * k_tiles,
        };
        prop_assert_eq!(program.stats().tile_stores, stores);

        // The whole-block pieces of a cursor that first skips `skip` blocks.
        let pieces = |generator: &TraceGenerator, skip: usize| {
            let plan = generator.plan(shape).unwrap();
            let mut stream = generator.gemm_blocks(plan);
            stream.skip_blocks(skip).unwrap();
            let mut pieces = Vec::new();
            while let Some(piece) = stream.steps_to(plan.steps()).unwrap() {
                pieces.push(piece.instructions().to_vec());
            }
            pieces
        };
        let matmuls = |instructions: &[Instruction]| {
            instructions
                .iter()
                .filter(|inst| inst.kind() == InstructionKind::MatMul)
                .count()
        };
        // Running rasa_mm totals after each block of the uncapped walk.
        let mut prefix = vec![0];
        for piece in pieces(&uncapped, 0) {
            prefix.push(prefix[prefix.len() - 1] + matmuls(&piece));
        }
        let walk = prefix.len() - 1;
        prop_assert_eq!(prefix[walk], tiles);

        // A cap of none, or 1 up to one past the tile count.
        let cap = capped.then_some(1 + cap % (tiles + 1));
        let generator = TraceGenerator::amx_like()
            .with_kernel(GemmKernelConfig { max_matmuls: cap, ..kernel })
            .unwrap();
        let plan = generator.plan(shape).unwrap();
        let program = generator.gemm(shape, "prop").unwrap();
        let walked = pieces(&generator, 0);
        prop_assert_eq!(walked.len(), plan.blocks());
        prop_assert_eq!(walked.concat().as_slice(), program.instructions());
        let blocks = cap.map_or(walk, |cap| (1..=walk).find(|&b| prefix[b] >= cap).unwrap_or(walk));
        prop_assert_eq!(plan.blocks(), blocks);
        prop_assert_eq!(matmuls(program.instructions()), prefix[blocks]);
        prop_assert_eq!(plan.matmuls(), tiles);
        let rest = pieces(&generator, skip.min(blocks)).concat();
        prop_assert!(program.instructions().ends_with(&rest));
        prop_assert_eq!(plan.uniform_end() % plan.period(), 0);
        prop_assert!(plan.uniform_end() <= plan.blocks());

        // One uniform step of a sampled block.
        let uniform = plan.repeated_steps();
        if !uniform.is_empty() {
            let block = sample % blocks;
            let step = uniform.start + sample / blocks % uniform.len();
            let mut stream = generator.gemm_blocks(plan);
            stream.skip_blocks(block).unwrap();
            stream.steps_to(step).unwrap();
            let emitted = stream.steps_to(step + 1).unwrap().unwrap();
            prop_assert_eq!(emitted.len(), plan.step_len(block));
        }
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

    /// Two jobs that differ only in their kernel scheme must never alias in
    /// the runner's semantic cell key (the LRU memoization key), at any
    /// cap. (The serving tier's route key has no kernel part: a wire
    /// request is a design and a layer.)
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
        let job_b = SimJob::new(design, layer).with_kernel(b);
        for cap in [None, Some(256)] {
            prop_assert_ne!(job_a.semantic_key(cap), job_b.semantic_key(cap));
        }
    }

    /// Interning cell keys is a pure optimization, never a semantic
    /// change: for any design × workload × kernel × cap, the interned
    /// key's text is byte-identical to the legacy string key, its
    /// precomputed hash is exactly the routing point of that text, and
    /// interning is aliasing-free — equal text means equal keys, perturbed
    /// text never compares equal.
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
    ) {
        use rasa::sim::net::hash::ring_point;
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
        let job = SimJob::new(design, layer).with_kernel(kernel);

        // Byte-identity with the legacy string rendering, at every cap.
        let legacy = job.semantic_key(cap);
        let interned = job.cell_key(cap);
        prop_assert_eq!(interned.text(), legacy.as_str());
        prop_assert_eq!(interned.to_string(), legacy.as_str());

        // The precomputed hash is the routing point of the text, so a
        // probe never re-hashes the string.
        prop_assert_eq!(interned.hash64(), ring_point(legacy.as_bytes()));

        // Aliasing-freedom: re-interning the same text compares equal with
        // the same hash; any perturbation of the text never aliases.
        let again = CellKey::from(legacy.clone());
        prop_assert_eq!(&again, &interned);
        prop_assert_eq!(again.hash64(), interned.hash64());
        let perturbed = CellKey::new(format!("{legacy}|x"));
        prop_assert_ne!(&perturbed, &interned);

        // A runner's key shares its machine's text but is the same key.
        let runner = ExperimentRunner::builder().with_matmul_cap(cap).build().unwrap();
        let shared = runner.job_key(&SimJob::new(job.design.clone(), job.workload.clone()));
        let default_kernel = SimJob::new(job.design.clone(), job.workload.clone()).cell_key(cap);
        prop_assert_eq!(shared.text(), default_kernel.text());
        prop_assert_eq!(shared.hash64(), default_kernel.hash64());
        prop_assert_eq!(&runner.job_key(&job), &interned);
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
/// be multiples of the register block), matmul caps, kernel schemes and
/// designs, the fast-forwarded run's `CpuStats` and
/// `SchedStats` equal both the sequential streamed run's and those of the
/// materialized trace on the one-shot core, bit for bit, and it counts every
/// skipped instruction as fed. Every other case is deep — K in the low
/// thousands, so each block has 32–125 reduction steps, with M and N under
/// 100 to keep the oracles cheap — to reach the in-block level. At least
/// four fifths of all cases must fast-forward, and three quarters of the
/// deep ones must skip reduction steps inside a block, so the property
/// cannot hold vacuously at either level.
#[test]
fn fast_forward_matches_sequential_and_materialized_runs() {
    let cases = proptest::case_count(64) as usize;
    let mut rng = proptest::rng_for("fast_forward_matches_sequential_and_materialized_runs");
    let (mut engaged, mut skipped_steps) = (0, 0);
    for case in 0..cases {
        let deep = case % 2 == 1;
        let design = arb_design().sample(&mut rng);
        let shape = if deep {
            GemmShape::new(
                (1usize..100).sample(&mut rng),
                (1000usize..4000).sample(&mut rng),
                (1usize..100).sample(&mut rng),
            )
        } else {
            GemmShape::new(
                (1usize..400).sample(&mut rng),
                (1usize..130).sample(&mut rng),
                (1usize..400).sample(&mut rng),
            )
        };
        let mut kernel = arb_kernel().sample(&mut rng);
        kernel.max_matmuls = if any::<bool>().sample(&mut rng) {
            None
        } else {
            Some((1usize..2000).sample(&mut rng))
        };

        let sim = Simulator::new(design).unwrap().with_kernel(kernel).unwrap();
        let what = format!(
            "case {case}: {} on {shape:?}, kernel {kernel}",
            sim.design().name()
        );
        let fast = sim.run_gemm(shape).unwrap();
        let sequential = sim.clone().with_speculation(false).run_gemm(shape).unwrap();
        // The materialized oracle: the whole trace up front on the one-shot
        // core.
        let generator = TraceGenerator::amx_like().with_kernel(kernel).unwrap();
        let program = generator.gemm(shape, "oracle").unwrap();
        let total = generator.plan(shape).unwrap().matmuls() as u64;
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
        assert!(fast.pipeline.spec_step_forks <= fast.pipeline.spec_forks);
        assert_eq!(sequential.pipeline.spec_forks, 0);
        if fast.pipeline.spec_forks > 0 {
            engaged += 1;
        }
        if deep && fast.pipeline.spec_step_forks > 0 {
            skipped_steps += 1;
        }
    }
    assert!(
        engaged * 5 >= cases * 4,
        "only {engaged} of {cases} cases fast-forwarded"
    );
    assert!(
        skipped_steps * 4 >= cases / 2 * 3,
        "only {skipped_steps} of {} deep cases skipped reduction steps",
        cases / 2
    );
}

/// The memo of simulated transitions: one runner, whose cell cache
/// holds a single cell (so repeats reach the memo, not the cache), runs a
/// seeded sequence of layers on BASELINE and RASA-DMDB-WLS. A quarter are
/// fresh shapes — deep ones (K in the low thousands, so blocks fast-forward
/// their reduction steps) and shallow ones (whole-block pieces), ragged in
/// M and N — and the rest revisit an earlier case: exactly, with another K
/// in the same range, or with M or N moved by a few rows. Half of the cases
/// run uncapped, half under a capped kernel override. Every report must be
/// what fresh simulators compute: `cpu` and `sched` a sequential
/// (`--speculation off`) run's, `pipeline` a fast-forwarded run's on an
/// empty memo. At least half the cells must be recalled whole and at least
/// one must miss midway and replay, so the property cannot hold vacuously.
#[test]
fn recalled_cells_match_fresh_sequential_and_fast_forwarded_runs() {
    let cases = proptest::case_count(64) as usize;
    let mut rng =
        proptest::rng_for("recalled_cells_match_fresh_sequential_and_fast_forwarded_runs");
    let runner = ExperimentRunner::builder()
        .with_matmul_cap(None)
        .with_cache_capacity(1)
        .build()
        .unwrap();
    let designs = [DesignPoint::baseline(), DesignPoint::rasa_dmdb_wls()];
    let mut drawn: Vec<(usize, GemmShape, Option<usize>)> = Vec::new();
    for case in 0..cases {
        let deep = |rng: &mut proptest::TestRng| (1000usize..4000).sample(rng);
        let (design, shape, cap) = if case % 4 == 0 || drawn.is_empty() {
            let shape = if any::<bool>().sample(&mut rng) {
                GemmShape::new(
                    (1usize..100).sample(&mut rng),
                    deep(&mut rng),
                    (1usize..100).sample(&mut rng),
                )
            } else {
                GemmShape::new(
                    (1usize..400).sample(&mut rng),
                    (1usize..130).sample(&mut rng),
                    (1usize..400).sample(&mut rng),
                )
            };
            let cap = any::<bool>().sample(&mut rng).then_some(1500);
            ((0usize..2).sample(&mut rng), shape, cap)
        } else {
            let (design, mut shape, cap) = drawn[(0..drawn.len()).sample(&mut rng)];
            match (0u8..3).sample(&mut rng) {
                0 => {}
                1 if shape.k >= 1000 => shape.k = deep(&mut rng),
                _ => {
                    let moved = (1usize..17).sample(&mut rng);
                    if any::<bool>().sample(&mut rng) {
                        shape.m += moved;
                    } else {
                        shape.n += moved;
                    }
                }
            }
            (design, shape, cap)
        };
        drawn.push((design, shape, cap));
        let layer = LayerSpec::fc(format!("case{case}"), shape.m, shape.k, shape.n);
        let mut job = SimJob::new(designs[design].clone(), layer.clone());
        if let Some(cap) = cap {
            job = job.with_kernel(GemmKernelConfig::default().with_max_matmuls(cap));
        }
        let what = format!(
            "case {case}: {} on {shape:?}, cap {cap:?}",
            designs[design].name()
        );
        let report = runner.run_job(&job).unwrap();
        let fresh = Simulator::new(designs[design].clone())
            .unwrap()
            .with_kernel(job.resolved_kernel(None))
            .unwrap();
        let sequential = fresh
            .clone()
            .with_speculation(false)
            .run_layer(&layer)
            .unwrap();
        let fast = fresh.run_layer(&layer).unwrap();
        assert_eq!(report.cpu, sequential.cpu, "{what}");
        assert_eq!(report.sched, sequential.sched, "{what}");
        assert_eq!(report.pipeline, fast.pipeline, "{what}");
        assert_eq!(*report, fast, "{what}");
    }
    let (machines, memo) = runner.memo_stats();
    assert_eq!(machines, 4, "two designs, uncapped and capped");
    // A repeat of the case just before it is the one cell the cache holds.
    let walked = memo.recalls + memo.misses;
    assert_eq!(walked + runner.cache_stats().hits, cases as u64);
    assert!(
        memo.recalls * 2 >= walked,
        "only {} of {walked} cells recalled whole",
        memo.recalls
    );
    assert!(
        memo.midway_misses >= 1,
        "no cell missed midway and replayed"
    );
}
