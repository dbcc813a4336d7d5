//! Cross-crate integration tests: workload → trace → CPU + matrix engine →
//! report, exercised through the public facade crate.

use rasa::prelude::*;
use rasa::workloads::{dlrm_layers, resnet50_layers};

fn quick_sim(design: DesignPoint) -> Simulator {
    Simulator::new(design)
        .expect("design constructs")
        .with_matmul_cap(Some(512))
        .expect("cap accepted")
}

#[test]
fn all_paper_designs_run_a_conv_layer() {
    let layer = &resnet50_layers()[0];
    for design in DesignPoint::paper_designs() {
        let report = quick_sim(design.clone()).run_layer(layer).unwrap();
        assert!(report.core_cycles > 0, "{}", design.name());
        assert_eq!(report.design, design.name());
        assert_eq!(report.workload, "ResNet50-1");
        // The engine executed exactly the simulated matmuls.
        assert_eq!(report.cpu.engine.matmuls, report.simulated_matmuls);
    }
}

#[test]
fn runtime_ordering_holds_on_a_fc_layer_end_to_end() {
    let layer = &dlrm_layers()[2]; // DLRM-3, the largest FC layer
    let order = [
        DesignPoint::baseline(),
        DesignPoint::rasa_pipe(),
        DesignPoint::rasa_wlbp(),
        DesignPoint::rasa_dm_wlbp(),
        DesignPoint::rasa_db_wls(),
        DesignPoint::rasa_dmdb_wls(),
    ];
    let cycles: Vec<u64> = order
        .iter()
        .map(|d| quick_sim(d.clone()).run_layer(layer).unwrap().core_cycles)
        .collect();
    for (i, pair) in cycles.windows(2).enumerate() {
        assert!(
            pair[0] >= pair[1],
            "design {} should not be slower than its predecessor: {cycles:?}",
            order[i + 1].name()
        );
    }
    let best_reduction = 1.0 - cycles.last().copied().unwrap() as f64 / cycles[0] as f64;
    assert!(
        best_reduction > 0.6,
        "RASA-DMDB-WLS should reduce runtime by well over 60%, got {best_reduction}"
    );
}

#[test]
fn extrapolated_and_exact_runs_agree_on_throughput() {
    // Simulating a quarter of the tiles and extrapolating should land close
    // to simulating everything, because the kernel reaches steady state
    // quickly.
    let gemm = GemmShape::new(256, 512, 256);
    let design = DesignPoint::rasa_wlbp();
    let exact = Simulator::new(design.clone())
        .unwrap()
        .with_matmul_cap(None)
        .unwrap()
        .run_gemm(gemm)
        .unwrap();
    let capped = Simulator::new(design)
        .unwrap()
        .with_matmul_cap(Some(1024))
        .unwrap()
        .run_gemm(gemm)
        .unwrap();
    assert!(!exact.is_extrapolated());
    assert!(capped.is_extrapolated());
    let ratio = capped.core_cycles as f64 / exact.core_cycles as f64;
    assert!(
        (0.9..1.1).contains(&ratio),
        "extrapolation should be within 10%: {ratio}"
    );
}

#[test]
fn functional_array_agrees_with_reference_through_the_facade() {
    use rasa::numeric::max_abs_diff;
    let a32 = Matrix::from_fn(16, 32, |i, j| ((i * 7 + j * 3) % 11) as f32 - 5.0);
    let b32 = Matrix::from_fn(32, 16, |i, j| ((i + j * 5) % 9) as f32 - 4.0);
    let a = a32.map(Bf16::from_f32);
    let b = b32.map(Bf16::from_f32);
    let mut golden = Matrix::zeros(16, 16);
    gemm_bf16_fp32(&a, &b, &mut golden).unwrap();

    for design in [DesignPoint::baseline(), DesignPoint::rasa_dmdb_wls()] {
        let mut array = FunctionalArray::new(*design.systolic());
        let (out, _) = array.matmul(&a, &b, &Matrix::zeros(16, 16)).unwrap();
        assert_eq!(max_abs_diff(&golden, &out), 0.0, "{}", design.name());
    }
}

#[test]
fn trace_statistics_match_workload_structure() {
    // The trace generator, tiling and simulator agree on how many rasa_mm
    // instructions a workload needs.
    let generator = TraceGenerator::amx_like();
    let layer = &dlrm_layers()[1]; // DLRM-2: 512x1024x64
    let shape = layer.gemm_shape();
    let expected = (512 / 16) * (1024 / 32) * (64 / 16);
    assert_eq!(generator.plan(shape).unwrap().matmuls(), expected);

    let report = quick_sim(DesignPoint::baseline()).run_layer(layer).unwrap();
    assert_eq!(report.total_matmuls, expected as u64);
}

#[test]
fn engine_bypass_rate_reflects_the_kernel_blocking() {
    // The 2x2 register blocking reuses each weight tile twice, so roughly
    // half of the rasa_mm instructions bypass Weight Load under WLBP.
    let layer = &dlrm_layers()[0];
    let report = quick_sim(DesignPoint::rasa_wlbp())
        .run_layer(layer)
        .unwrap();
    let rate = report.cpu.engine.bypass_rate();
    assert!(rate > 0.40 && rate < 0.55, "bypass rate {rate}");

    // The baseline never bypasses.
    let base = quick_sim(DesignPoint::baseline()).run_layer(layer).unwrap();
    assert_eq!(base.cpu.engine.weight_bypasses, 0);
}

#[test]
fn csv_summaries_are_well_formed() {
    let layer = &resnet50_layers()[2];
    let report = quick_sim(DesignPoint::rasa_db_wls())
        .run_layer(layer)
        .unwrap();
    let summary = report.summary();
    let row = summary.to_csv_row();
    assert_eq!(
        row.split(',').count(),
        SimSummary::csv_header().split(',').count()
    );
    assert!(row.contains("RASA-DB-WLS"));
    assert!(row.contains("ResNet50-3"));
}
