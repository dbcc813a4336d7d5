//! Regenerates Fig. 7: batch-size sensitivity of RASA-DMDB-WLS.

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let suite = rasa_bench::BinOptions::from_env_or_usage("fig7_batch").suite()?;
    let start = std::time::Instant::now();
    let result = suite.fig7_batch()?;
    let elapsed = start.elapsed();
    println!("{result}");
    println!(
        "{}",
        rasa_bench::compare_line(
            "asymptote",
            result.asymptote,
            rasa_bench::PAPER_FIG7_ASYMPTOTE,
            ""
        )
    );
    let stats = suite.runner().cache_stats();
    let ms = elapsed.as_secs_f64() * 1e3;
    println!("({} cells in {ms:.1} ms)", stats.misses);
    Ok(())
}
