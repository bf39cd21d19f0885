//! Acceptance check for the per-function analysis cache: one `optimize`
//! call computes the dominator tree **at most once per function** on the
//! no-CFG-edit path (every pass after `prepare_module` only rewrites
//! instructions).
//!
//! The backing counter (`specframe_analysis::dom_compute_count`) is
//! per-thread, and the driver builds every function's analyses on the
//! calling thread before its worker fan-out, so dominator builds of tests
//! running on other threads never reach the delta.
//! `PassTimings::dom_computes` is that delta, measured inside
//! `try_optimize_cached` itself.

use specframe::prelude::*;

#[test]
fn dominators_computed_once_per_function() {
    for w in all_workloads(Scale::Test) {
        let nf = w.module.funcs.len() as u64;
        let opts = OptOptions {
            data: SpecSource::Heuristic,
            control: ControlSpec::Static,
            strength_reduction: true,
            lftr: true,
            store_sinking: true,
            target: Default::default(),
        };
        let mut m = w.module.clone();
        let cfg = PipelineConfig { jobs: 1 };
        let (report, _) = try_optimize_cached(&mut m, &opts, &cfg, &PipelineHooks::default(), None)
            .expect("optimize");
        assert_eq!(
            report.timings.dom_computes, nf,
            "{}: expected exactly one DomTree::compute per function ({nf}), got {}",
            w.name, report.timings.dom_computes
        );
    }
}
