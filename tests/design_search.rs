//! Integration tests of the design-space search subsystem: seeded
//! determinism (identical frontiers and byte-identical JSON), cell-cache
//! reuse on revisited genotypes, and cross-strategy consistency.

use proptest::prelude::*;
use rasa::sim::search::{
    DesignSearch, Evolutionary, ExhaustiveGrid, RandomSampling, SearchSpace, SearchStrategy,
};
use rasa::sim::{ExperimentRunner, ToJson};
use rasa::systolic::{ControlScheme, PeVariant};
use rasa::workloads::LayerSpec;

/// A layer small enough that a capped cell simulates in well under a
/// millisecond, so the proptest can afford dozens of search runs.
fn tiny_layer() -> LayerSpec {
    LayerSpec::fc("TINY-FC", 32, 64, 64)
}

fn capped_runner() -> ExperimentRunner {
    ExperimentRunner::builder()
        .with_matmul_cap(Some(32))
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Seeded-search determinism: whatever the seed and strategy
    /// parameters, two runs of the same search (on fresh runners) produce
    /// the identical frontier and a byte-identical JSON document.
    #[test]
    fn seeded_search_runs_are_reproducible(
        seed in 0u64..1_000_000,
        population in 2usize..7,
        generations in 1usize..4,
        samples in 1usize..24,
        kind in 0usize..3,
    ) {
        let strategy: Box<dyn SearchStrategy> = match kind {
            0 => Box::new(ExhaustiveGrid),
            1 => Box::new(RandomSampling::new(samples, seed)),
            _ => Box::new(Evolutionary::new(population, generations, seed)),
        };
        let space = SearchSpace::explorer();
        let layer = tiny_layer();
        let first = DesignSearch::new(&capped_runner(), space.clone(), layer.clone())
            .run(strategy.as_ref())
            .unwrap();
        let second = DesignSearch::new(&capped_runner(), space, layer)
            .run(strategy.as_ref())
            .unwrap();
        prop_assert_eq!(&first.frontier, &second.frontier);
        prop_assert_eq!(&first, &second);
        let first_json = first.to_json().to_string_pretty();
        let second_json = second.to_json().to_string_pretty();
        prop_assert_eq!(first_json, second_json, "JSON documents must be byte-identical");
    }
}

/// An evolutionary run over a two-candidate space revisits genotypes by
/// construction; every revisit must be served by the runner's memoizing
/// cell cache — observable through `CacheStats` — and never re-simulated.
#[test]
fn evolutionary_revisits_hit_the_cell_cache() {
    let space = SearchSpace::builder()
        .with_pe_variants(vec![PeVariant::Baseline])
        .with_control_schemes(vec![ControlScheme::Base, ControlScheme::Pipe])
        .build()
        .unwrap();
    assert_eq!(space.len(), 2);
    let runner = capped_runner();
    let outcome = DesignSearch::new(&runner, space, tiny_layer())
        .run(&Evolutionary::new(4, 3, 9))
        .unwrap();

    assert_eq!(outcome.requested_evaluations, 4 * 4, "init + 3 generations");
    assert!(outcome.distinct_evaluated <= 2);
    assert!(
        outcome.requested_evaluations > outcome.distinct_evaluated,
        "a 16-request run over 2 candidates must revisit genotypes"
    );

    let stats = runner.cache_stats();
    // No re-simulation: at most one cell per distinct genotype plus the
    // baseline anchor (which here shares the BASELINE candidate's cell).
    assert!(
        stats.misses as usize <= outcome.distinct_evaluated + 1,
        "revisited genotypes were re-simulated: {stats:?}"
    );
    assert!(
        stats.hits >= 1,
        "revisits must be served by the cell cache: {stats:?}"
    );
}

/// The three strategies agree with each other: sampling strategies only
/// ever find frontier points the exhaustive grid (ground truth over the
/// same space) either contains or dominates.
#[test]
fn sampled_frontiers_are_consistent_with_the_exhaustive_grid() {
    let space = SearchSpace::explorer();
    let layer = tiny_layer();
    let grid = DesignSearch::new(&capped_runner(), space.clone(), layer.clone())
        .run(&ExhaustiveGrid)
        .unwrap();
    for strategy in [
        Box::new(RandomSampling::new(24, 5)) as Box<dyn SearchStrategy>,
        Box::new(Evolutionary::new(6, 3, 5)) as Box<dyn SearchStrategy>,
    ] {
        let sampled = DesignSearch::new(&capped_runner(), space.clone(), layer.clone())
            .run(strategy.as_ref())
            .unwrap();
        for member in &sampled.frontier {
            let represented = grid.frontier.iter().any(|g| {
                g.genotype == member.genotype || g.objectives.dominates(&member.objectives)
            });
            let tied = grid
                .frontier
                .iter()
                .any(|g| g.objectives == member.objectives);
            assert!(
                represented || tied,
                "{} frontier point {} is neither on nor dominated by the grid frontier",
                sampled.strategy,
                member.name
            );
        }
    }
}

/// Joint hardware × kernel search is deterministic (two runs on fresh
/// runners produce byte-identical JSON) and pays off:
/// the joint frontier contains a co-designed point that strictly
/// dominates a point on the hardware-only frontier over the same
/// hardware axes, which is the whole argument for searching the two
/// spaces together.
#[test]
fn joint_search_is_deterministic_and_dominates_hardware_only_points() {
    let layer = tiny_layer();
    let first = DesignSearch::new(
        &capped_runner(),
        SearchSpace::explorer_joint(),
        layer.clone(),
    )
    .run(&ExhaustiveGrid)
    .unwrap();
    let second = DesignSearch::new(
        &capped_runner(),
        SearchSpace::explorer_joint(),
        layer.clone(),
    )
    .run(&ExhaustiveGrid)
    .unwrap();
    assert_eq!(first, second);
    assert_eq!(
        first.to_json().to_string_pretty(),
        second.to_json().to_string_pretty(),
        "joint-search JSON must be byte-identical across runs"
    );

    let hardware_only = DesignSearch::new(&capped_runner(), SearchSpace::explorer(), layer)
        .run(&ExhaustiveGrid)
        .unwrap();
    let dominating = first.frontier.iter().find(|joint| {
        joint.genotype.kernel.is_some_and(|k| !k.is_default())
            && hardware_only
                .frontier
                .iter()
                .any(|hw| joint.objectives.dominates(&hw.objectives))
    });
    assert!(
        dominating.is_some(),
        "no co-designed frontier point dominates the hardware-only frontier: {:?}",
        first.frontier_names()
    );
    // Every joint candidate carries its kernel in the document.
    assert!(first
        .frontier
        .iter()
        .all(|member| member.genotype.kernel.is_some()));
}

/// The JSON document written by the `design_search` binary path is
/// parse→reserialize stable (the property `write_verified_json` checks on
/// every write).
#[test]
fn search_json_survives_a_parse_reserialize_round_trip() {
    let outcome = DesignSearch::new(&capped_runner(), SearchSpace::paper(), tiny_layer())
        .run(&RandomSampling::new(8, 3))
        .unwrap();
    let text = outcome.to_json().to_string_pretty();
    let reparsed = rasa::sim::JsonValue::parse(&text).unwrap();
    assert_eq!(reparsed.to_string_pretty(), text);
}
