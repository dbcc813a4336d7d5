//! Recommendation / NLP fully-connected layers and the batch-size study.
//!
//! Simulates the DLRM and BERT FC layers of Table I on RASA-DMDB-WLS, then
//! sweeps the batch size of one DLRM layer to show the Fig. 7 behaviour:
//! batches below the 16-row tile granularity all cost the same, and large
//! batches approach the 16/95 ≈ 0.168 perfect-pipelining asymptote.
//!
//! Both tables run through one memoizing [`ExperimentRunner`], so the whole
//! example is two grid calls rather than a dozen separate simulations.
//!
//! Run with: `cargo run --release --example mlp_recommender`

use rasa::prelude::*;
use rasa::workloads::{bert_layers, dlrm_layers, BatchMatrix};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let runner = ExperimentRunner::builder()
        .with_matmul_cap(Some(2048))
        .build()?;
    let designs = [DesignPoint::baseline(), DesignPoint::rasa_dmdb_wls()];

    println!("DLRM / BERT fully-connected layers, RASA-DMDB-WLS vs baseline:");
    let mut layers = dlrm_layers();
    layers.extend(bert_layers());
    for run in runner.run_grid(&layers, &designs)? {
        let base = run.baseline().expect("baseline leads the design list");
        let rasa = &run.reports[1];
        println!(
            "  {:<8} {:>11} -> {:>11} core cycles  (normalized {:.3}, bypass rate {:.0}%)",
            run.workload,
            base.core_cycles,
            rasa.core_cycles,
            rasa.normalized_runtime_vs(base),
            rasa.cpu.engine.bypass_rate() * 100.0
        );
    }

    println!();
    println!("Batch-size sensitivity of DLRM-1 (Fig. 7 behaviour):");
    let dlrm1 = [dlrm_layers()[0].clone()];
    let batches = [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512];
    let swept: Vec<_> = BatchMatrix::new(&dlrm1, &batches).collect();
    println!("  {:>8} {:>12} {:>12}", "batch", "normalized", "asymptote");
    for (run, layer) in runner.run_grid(&swept, &designs)?.iter().zip(&swept) {
        let base = run.baseline().expect("baseline leads the design list");
        println!(
            "  {:>8} {:>12.3} {:>12.3}",
            layer.batch(),
            run.reports[1].normalized_runtime_vs(base),
            16.0 / 95.0
        );
    }
    Ok(())
}
