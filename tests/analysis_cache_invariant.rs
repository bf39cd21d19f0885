//! Acceptance check for the per-function analysis cache: one `optimize`
//! call computes the dominator tree **at most once per function** on the
//! no-CFG-edit path (every pass after `prepare_module` only rewrites
//! instructions).
//!
//! The backing counter (`specframe_analysis::dom_compute_count`) is
//! per-thread, and each function's analyses are built by the worker that
//! owns it, so the driver takes the counter's delta per function in that
//! worker and sums the deltas at its join; dominator builds of tests
//! running on other threads never reach it. `PassTimings::dom_computes` is
//! that sum. It is checked at one and at four workers, over the workloads
//! and a mega module: a small module can finish on the calling thread
//! before any spawned worker claims an item.

use specframe::prelude::*;

#[test]
fn dominators_computed_once_per_function() {
    let mut modules: Vec<(String, Module)> = all_workloads(Scale::Test)
        .into_iter()
        .map(|w| (w.name.to_string(), w.module))
        .collect();
    modules.push(("mega 42:200".into(), mega_module(42, 200)));
    let opts = OptOptions {
        data: SpecSource::Heuristic,
        control: ControlSpec::Static,
        strength_reduction: true,
        lftr: true,
        store_sinking: true,
        target: Default::default(),
    };
    for (name, module) in &modules {
        let nf = module.funcs.len() as u64;
        for jobs in [1, 4] {
            let mut m = module.clone();
            let cfg = PipelineConfig { jobs };
            let (report, _) =
                try_optimize_cached(&mut m, &opts, &cfg, &PipelineHooks::default(), None)
                    .expect("optimize");
            assert_eq!(
                report.timings.dom_computes, nf,
                "{name} at jobs {jobs}: expected exactly one DomTree::compute per function \
                 ({nf}), got {}",
                report.timings.dom_computes
            );
        }
    }
}
