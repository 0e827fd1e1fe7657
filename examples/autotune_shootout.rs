//! Autotuner shoot-out: the paper's motivating scenario.
//!
//! Three search strategies tune the syr2k kernel (SM size) with a budget of
//! 40 empirical evaluations: pure random search, a boosted-tree surrogate
//! loop (the classical approach the paper endorses), and the LLM
//! discriminative surrogate in the same loop (the LLAMBO recipe the paper
//! stress-tests; the tune service's `ServiceLlmSearch`, which scores each
//! candidate pool through an `InferenceService`). Prints the best-so-far
//! curves and final winners.
//!
//! ```text
//! cargo run --release --example autotune_shootout
//! ```

use lm_peel::configspace::{ArraySize, Syr2kConfig};
use lm_peel::core::autotune::{GbdtSearch, RandomSearch, Tuner};
use lm_peel::lm::InductionLm;
use lm_peel::perfdata::{CostModel, PerfDataset};
use lm_peel::tune::ServiceLlmSearch;

fn main() {
    let dataset = PerfDataset::generate(&CostModel::paper(), ArraySize::SM);
    let budget = 40;
    let global_best = dataset.best();
    println!(
        "search space: {} configs; global optimum {:.6}s\n",
        dataset.len(),
        global_best.runtime
    );

    let tuners: Vec<Box<dyn Tuner>> = vec![
        Box::new(RandomSearch),
        Box::new(GbdtSearch::default()),
        Box::new(ServiceLlmSearch {
            model: std::sync::Arc::new(InductionLm::paper(0)),
            init_random: 8,
            pool: 4,
            max_icl: 20,
        }),
    ];

    for tuner in &tuners {
        let t0 = std::time::Instant::now();
        let traj = tuner.run_dataset(&dataset, budget, 11);
        let curve = traj.best_curve();
        let (best_cfg, best_rt) = traj.best();
        let typed = Syr2kConfig::from_config(dataset.space(), best_cfg);
        println!("{}:", tuner.name());
        println!(
            "  best-so-far @ 10/20/40 evals: {:.6} / {:.6} / {:.6}  (wall {:.1}s)",
            curve[9],
            curve[19],
            curve[budget - 1],
            t0.elapsed().as_secs_f64()
        );
        println!(
            "  winner: {typed:?} -> {best_rt:.6}s ({:.1}% above global optimum)\n",
            100.0 * (best_rt / global_best.runtime - 1.0)
        );
    }
    println!(
        "Expected outcome (the paper's thesis): the boosted-tree surrogate reliably\n\
         beats random search, while the LLM surrogate adds cost without beating the\n\
         classical baseline."
    );
}
