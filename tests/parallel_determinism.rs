//! Regression test for the parallel driver's determinism contract.
//!
//! `try_optimize_cached` fans the per-function pipeline out over worker threads;
//! the contract (see `DESIGN.md`) is that the result is *bit-identical* for
//! every job count, because the module is only touched at the deterministic
//! fan-out/join points and fresh memory sites are renumbered serially at
//! the join. This test pins that down over every workload and every
//! speculation configuration: a serial run (`jobs = 1`) and a heavily
//! oversubscribed run (`jobs = 8`) must print the same module and report
//! the same `OptStats`.

use specframe::ir::display::print_module;
use specframe::prelude::*;

fn configs() -> Vec<(&'static str, OptOptions<'static>)> {
    vec![
        ("baseline", OptOptions::default()),
        (
            "heuristic",
            OptOptions {
                data: SpecSource::Heuristic,
                control: ControlSpec::Static,
                strength_reduction: true,
                lftr: true,
                store_sinking: true,
                target: Default::default(),
            },
        ),
        (
            "aggressive",
            OptOptions {
                data: SpecSource::Aggressive,
                control: ControlSpec::Static,
                strength_reduction: true,
                lftr: true,
                store_sinking: true,
                target: Default::default(),
            },
        ),
    ]
}

#[test]
fn serial_and_parallel_runs_are_bit_identical() {
    for w in all_workloads(Scale::Test) {
        for (cname, opts) in configs() {
            let mut serial = w.module.clone();
            let mut parallel = w.module.clone();
            let hooks = PipelineHooks::default();
            let optimize_at = |m: &mut Module, jobs| {
                let cfg = PipelineConfig { jobs };
                try_optimize_cached(m, &opts, &cfg, &hooks, None)
                    .expect("optimize")
                    .0
            };
            let r1 = optimize_at(&mut serial, 1);
            let r8 = optimize_at(&mut parallel, 8);

            assert_eq!(
                r1.stats, r8.stats,
                "{}/{cname}: OptStats diverge between jobs=1 and jobs=8",
                w.name
            );
            let s1 = print_module(&serial);
            let s8 = print_module(&parallel);
            assert_eq!(
                s1, s8,
                "{}/{cname}: printed module diverges between jobs=1 and jobs=8",
                w.name
            );

            // The optimized module must still pass the verifier and compute
            // the same checksum as the pristine program.
            verify_module(&parallel)
                .unwrap_or_else(|e| panic!("{}/{cname}: verify failed: {e}", w.name));
            let (want, _) = run(&w.module, w.entry, &w.ref_args, w.fuel).unwrap();
            let (got, _) = run(&parallel, w.entry, &w.ref_args, w.fuel).unwrap();
            assert_eq!(want, got, "{}/{cname}: optimized checksum changed", w.name);
        }
    }
}

/// The same contract extended to `--dump-after`: per-pass snapshots are
/// captured inside the workers but assembled at the deterministic join, so
/// the rendered dump stream must also be byte-identical at any job count.
#[test]
fn pass_dumps_are_bit_identical_across_job_counts() {
    let hooks = PipelineHooks {
        dump_after: Pass::ALL.into_iter().collect(),
        ..Default::default()
    };
    for w in all_workloads(Scale::Test) {
        for (cname, opts) in configs() {
            let mut serial = w.module.clone();
            let mut parallel = w.module.clone();
            let (_, d1) = try_optimize_cached(
                &mut serial,
                &opts,
                &PipelineConfig { jobs: 1 },
                &hooks,
                None,
            )
            .unwrap();
            let (_, d8) = try_optimize_cached(
                &mut parallel,
                &opts,
                &PipelineConfig { jobs: 8 },
                &hooks,
                None,
            )
            .unwrap();
            assert_eq!(
                render_dumps(&d1),
                render_dumps(&d8),
                "{}/{cname}: dump stream diverges between jobs=1 and jobs=8",
                w.name
            );
        }
    }
}
