//! Regenerates Fig. 5: runtime of every RASA design on the Table I layers,
//! normalized to the baseline. Also prints Table I itself (the workload
//! dimensions) and the measured-vs-paper average reductions.

use rasa_workloads::WorkloadSuite;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let options = rasa_bench::BinOptions::from_env_or_usage("fig5_runtime");
    let suite = options.suite()?;

    println!("Table I — layer dimensions (lowered GEMMs)");
    for layer in WorkloadSuite::mlperf().layers() {
        println!("  {layer}  ->  {}", layer.gemm_shape());
    }
    println!();

    let start = std::time::Instant::now();
    let fig5 = suite.fig5_runtime()?;
    let elapsed = start.elapsed();
    println!("{fig5}");
    let stats = suite.runner().cache_stats();
    println!("({} cells in {:.2} s)", stats.misses, elapsed.as_secs_f64());

    println!("Average runtime reduction, measured vs paper:");
    for (design, paper) in rasa_bench::PAPER_FIG5_REDUCTIONS {
        if let Some(measured) = fig5.average_reduction(design) {
            println!("{}", rasa_bench::compare_line(design, measured, paper, ""));
        }
    }

    println!();
    println!(
        "CSV ({} rasa_mm cap per run):",
        match options.matmul_cap {
            Some(c) => c.to_string(),
            None => "no".to_string(),
        }
    );
    println!("{}", rasa_sim::SimSummary::csv_header());
    for run in &fig5.runs {
        for report in &run.reports {
            println!("{}", report.summary().to_csv_row());
        }
    }
    Ok(())
}
