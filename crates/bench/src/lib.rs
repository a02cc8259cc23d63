//! # saphyra-bench
//!
//! The benchmark harness regenerating every table and figure of the SaPHyRa
//! evaluation (§V) on the simulated networks of `saphyra-gen` (whose
//! `datasets` module lists the regime each stand-in for the paper's SNAP
//! and DIMACS networks preserves).
//!
//! * Binaries (`cargo run --release -p saphyra-bench --bin <name>`):
//!   `table1`, `table2`, `fig3`, `fig4`, `fig5`, `fig6`, `fig7`,
//!   `ablation`. Each prints the paper-style rows and writes a TSV under
//!   `results/`.
//! * Criterion benches (`cargo bench`): reduced-size versions of the same
//!   experiments plus substrate microbenches.
//!
//! Environment knobs: `SAPHYRA_SCALE` = `tiny` | `small` | `full`
//! (default `small`), `SAPHYRA_TRIALS` = subsets per configuration
//! (default 3; the paper uses 1000), `SAPHYRA_SEED`.

pub mod harness;
pub mod report;
pub mod sweep;

pub use harness::{
    build_networks, ground_truth, random_subset, run_algo, scale_from_env, seed_from_env,
    service_targets16, trials_from_env, Algo, Network, RunOutput,
};
pub use report::Table;
