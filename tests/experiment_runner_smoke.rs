//! Cross-crate smoke tests for the shared `ExperimentRunner` pipeline,
//! exercised through the public facade crate: every built-in design point
//! runs a 128³ GEMM, parallel cached execution is bit-identical to a fresh
//! serial run, and the prelude re-exports the runner types.

use rasa::prelude::*;
use rasa::workloads::LayerSpec;

/// A 128³ GEMM expressed as a workload the runner can grid over (an FC
/// layer lowers to exactly `M = batch, K = in, N = out`).
fn gemm_128() -> LayerSpec {
    let layer = LayerSpec::fc("GEMM-128", 128, 128, 128);
    assert_eq!(layer.gemm_shape(), GemmShape::new(128, 128, 128));
    layer
}

#[test]
fn every_builtin_design_runs_a_128_cubed_gemm() {
    let runner = ExperimentRunner::new();
    let designs = DesignPoint::paper_designs();
    let runs = runner
        .run_grid(&[gemm_128()], &designs)
        .expect("the 128^3 GEMM simulates on every design");
    assert_eq!(runs.len(), 1);
    let run = &runs[0];
    assert_eq!(run.reports.len(), designs.len());
    let baseline = run.baseline().expect("BASELINE leads paper_designs");
    for (design, report) in designs.iter().zip(&run.reports) {
        assert_eq!(report.design, design.name());
        assert_eq!(report.workload, "GEMM-128");
        // 128^3 = (128/16) * (128/32) * (128/16) register tiles.
        assert_eq!(report.total_matmuls, 8 * 4 * 8);
        assert_eq!(report.simulated_matmuls, report.total_matmuls);
        assert!(report.core_cycles > 0);
        assert!(
            report.normalized_runtime_vs(baseline) <= 1.0 + 1e-9,
            "{}",
            design.name()
        );
    }
}

#[test]
fn cached_parallel_results_are_bit_identical_to_a_fresh_serial_run() {
    let workloads: Vec<LayerSpec> = rasa::workloads::dlrm_layers();
    let designs = vec![
        DesignPoint::baseline(),
        DesignPoint::rasa_wlbp(),
        DesignPoint::rasa_dmdb_wls(),
    ];

    let parallel = ExperimentRunner::builder()
        .with_matmul_cap(Some(128))
        .with_parallel(true)
        .build()
        .expect("valid runner");
    let serial = ExperimentRunner::builder()
        .with_matmul_cap(Some(128))
        .serial()
        .build()
        .expect("valid runner");

    // First parallel pass populates the cache; the second must be served
    // entirely from it and return the same values.
    let first = parallel
        .run_grid(&workloads, &designs)
        .expect("parallel run");
    let cached = parallel.run_grid(&workloads, &designs).expect("cached run");
    let stats = parallel.cache_stats();
    assert_eq!(stats.misses as usize, workloads.len() * designs.len());
    assert_eq!(stats.hits as usize, workloads.len() * designs.len());
    assert_eq!(first, cached, "cache must return identical reports");

    // And a fresh serial runner reproduces them bit-for-bit.
    let fresh = serial.run_grid(&workloads, &designs).expect("serial run");
    assert!(!serial.is_parallel() && parallel.is_parallel());
    assert_eq!(
        first, fresh,
        "parallel and serial results must be identical"
    );
    // Report equality skips the execution diagnostics; they are
    // deterministic too.
    for (a, b) in first.iter().zip(&fresh) {
        for (a, b) in a.reports.iter().zip(&b.reports) {
            assert_eq!((a.sched, a.pipeline), (b.sched, b.pipeline));
        }
    }
}

#[test]
fn prelude_reexports_the_runner_types() {
    // The suite builder wires a runner with the same configuration surface.
    let suite: ExperimentSuite = ExperimentSuiteBuilder::default()
        .with_matmul_cap(Some(64))
        .build()
        .expect("valid suite");
    let runner: &ExperimentRunner = suite.runner();
    assert_eq!(runner.matmul_cap(), Some(64));

    // SimJob / ExperimentSpec / CacheStats are usable from the prelude.
    let job = SimJob::new(DesignPoint::baseline(), gemm_128());
    let report = runner.run_job(&job).expect("job runs");
    assert_eq!(report.workload, "GEMM-128");

    let spec = ExperimentSpec {
        name: "prelude-smoke",
        workloads: vec![gemm_128()],
        designs: vec![DesignPoint::baseline()],
        kernel: None,
    };
    assert_eq!(spec.jobs().len(), 1);
    let stats: CacheStats = runner.cache_stats();
    assert_eq!(stats.misses, 1);
    assert!(ExperimentRunnerBuilder::default().build().is_ok());
}
