//! The parallel-driver determinism contract, checked on the synthetic
//! mega-module the compile-throughput work targets.
//!
//! `tests/parallel_determinism.rs` pins jobs-level byte-parity over the
//! eight hand-written workloads; those are small and shape-poor compared
//! to the generated module (deep loop nests with speculative load
//! candidates, call chains, hundred-op straight-line blocks, 48 shared
//! globals). This test runs the same contract — identical printed module,
//! identical `OptStats`, identical `--dump-after` streams at every job
//! count — over a 150-function generated module, so a scheduling-order
//! bug in the chunked work-claiming driver or an ordering bug in the
//! dense-index kernel storage cannot hide behind workload simplicity.

use specframe::ir::display::print_module;
use specframe::prelude::*;

const SEED: u64 = 7;
const FUNCS: usize = 150;

fn opts() -> OptOptions<'static> {
    OptOptions {
        data: SpecSource::Heuristic,
        control: ControlSpec::Static,
        strength_reduction: true,
        lftr: true,
        store_sinking: true,
        target: Default::default(),
    }
}

fn optimize_at(m: &mut Module, jobs: usize, hooks: &PipelineHooks) -> (OptReport, Vec<PassDump>) {
    try_optimize_cached(m, &opts(), &PipelineConfig { jobs }, hooks, None).expect("optimize")
}

#[test]
fn mega_module_is_bit_identical_across_job_counts() {
    let mut base = mega_module(SEED, FUNCS);
    prepare_module(&mut base);

    let mut serial = base.clone();
    let (r1, _) = optimize_at(&mut serial, 1, &PipelineHooks::default());
    let s1 = print_module(&serial);
    verify_module(&serial).expect("optimized mega-module must verify");

    for jobs in [2, 4] {
        let mut parallel = base.clone();
        let (rj, _) = optimize_at(&mut parallel, jobs, &PipelineHooks::default());
        assert_eq!(
            r1.stats, rj.stats,
            "OptStats diverge between jobs=1 and jobs={jobs}"
        );
        assert_eq!(
            s1,
            print_module(&parallel),
            "printed module diverges between jobs=1 and jobs={jobs}"
        );
    }
}

#[test]
fn mega_module_dumps_are_bit_identical_across_job_counts() {
    let hooks = PipelineHooks {
        dump_after: [Pass::Hssa, Pass::Ssapre].into_iter().collect(),
        ..Default::default()
    };
    let mut base = mega_module(SEED, FUNCS);
    prepare_module(&mut base);

    let mut serial = base.clone();
    let (_, d1) = optimize_at(&mut serial, 1, &hooks);
    let r1 = render_dumps(&d1);
    assert!(
        r1.contains("dump-after ssapre"),
        "mega-module must produce ssapre dumps"
    );

    for jobs in [2, 4] {
        let mut parallel = base.clone();
        let (_, dj) = optimize_at(&mut parallel, jobs, &hooks);
        assert_eq!(
            r1,
            render_dumps(&dj),
            "dump stream diverges between jobs=1 and jobs={jobs}"
        );
    }
}
