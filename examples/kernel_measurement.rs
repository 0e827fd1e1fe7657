//! Empirical measurement path: run the *real* syr2k kernel with different
//! optimization configurations, check correctness against the reference
//! nest, and compare wall-clock measurements with the analytical cost
//! model's ordering.
//!
//! ```text
//! cargo run --release --example kernel_measurement
//! ```

use lm_peel::configspace::{ArraySize, Syr2kConfig};
use lm_peel::kernel::{measure, MeasureSpec, Syr2kProblem};
use lm_peel::perfdata::CostModel;

fn main() {
    // Polybench S size keeps this example quick; the paper's collection ran
    // SM and XL exhaustively on a dual-EPYC machine.
    let size = ArraySize::S;
    let (m, n) = size.dims();
    let problem = Syr2kProblem::new(m, n);
    let reference = problem.run_reference();
    let model = CostModel::paper();

    let configs = [
        (
            "naive (huge tiles)",
            Syr2kConfig {
                pack_a: false,
                pack_b: false,
                interchange: false,
                tile_outer: 128,
                tile_middle: 128,
                tile_inner: 128,
            },
        ),
        (
            "tiny tiles",
            Syr2kConfig {
                pack_a: false,
                pack_b: false,
                interchange: false,
                tile_outer: 4,
                tile_middle: 4,
                tile_inner: 4,
            },
        ),
        (
            "tiled + packed",
            Syr2kConfig {
                pack_a: true,
                pack_b: true,
                interchange: false,
                tile_outer: 32,
                tile_middle: 20,
                tile_inner: 32,
            },
        ),
        (
            "tiled + interchanged",
            Syr2kConfig {
                pack_a: false,
                pack_b: false,
                interchange: true,
                tile_outer: 32,
                tile_middle: 32,
                tile_inner: 50,
            },
        ),
    ];

    println!("syr2k at size {size} (M={m}, N={n}); every variant is checked against");
    println!("the untransformed reference nest.\n");
    println!(
        "{:<22} {:>12} {:>14} {:>12}",
        "configuration", "measured", "model estimate", "max |diff|"
    );
    for (name, cfg) in configs {
        let (timing, result) = measure(MeasureSpec::new(1, 5).expect("nonzero repeats"), || {
            problem.run_configured(cfg)
        });
        let diff = reference.max_abs_diff(&result);
        assert!(
            diff / reference.frobenius() < 1e-12,
            "{name}: transformation changed the result!"
        );
        println!(
            "{:<22} {:>10.4}ms {:>12.4}ms {:>12.2e}",
            name,
            timing.median().expect("repeats >= 1") * 1e3,
            model.runtime_exact(cfg, size) * 1e3,
            diff
        );
    }
    println!(
        "\nNote: the analytical model is calibrated for the paper's EPYC 7742 at sizes\n\
         SM/XL, so absolute numbers differ on this machine and size — the point is that\n\
         every configured variant computes the same result while the cost varies."
    );
}
