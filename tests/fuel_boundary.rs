//! Pins the fuel contract of both executors at its exact boundary.
//!
//! The reference interpreter spends one unit of fuel per executed
//! instruction and one per executed terminator; every terminator either
//! takes a CFG edge or returns from an entered function, so a run needs
//! exactly `RunStats.steps` + Σ edge counts + Σ entry counts. The
//! simulator spends one unit per retired instruction, so a run needs
//! exactly `Counters.insts`. With exactly that much fuel each run
//! succeeds; with one unit less it fails with `OutOfFuel`. A loop that
//! batches fuel per block or per step range fails this test.

use specframe::ir::FuncId;
use specframe::machine::SimError;
use specframe::prelude::*;
use specframe::profile::InterpError;

/// The fuel the reference run of `w` spends, counted from its profile.
fn interpreter_fuel(m: &Module, w: &Workload) -> u64 {
    let mut ep = EdgeProfiler::new();
    let (_, stats) = run_with(m, w.entry, &w.ref_args, w.fuel, &mut ep).expect("reference run");
    let edges = ep.finish();
    let mut fuel = stats.steps;
    for (fi, f) in m.funcs.iter().enumerate() {
        let fid = FuncId::from_index(fi);
        fuel += edges.entry_count(fid);
        for b in f.block_ids() {
            for s in f.block(b).term.successors() {
                fuel += edges.edge_count(fid, b, s);
            }
        }
    }
    fuel
}

#[test]
fn both_executors_run_on_exactly_their_fuel() {
    for w in all_workloads(Scale::Test) {
        let mut m = w.module.clone();
        prepare_module(&mut m);

        let exact = interpreter_fuel(&m, &w);
        let (want, _) = run(&m, w.entry, &w.ref_args, exact)
            .unwrap_or_else(|e| panic!("{}: interpreter with fuel {exact}: {e}", w.name));
        assert_eq!(
            run(&m, w.entry, &w.ref_args, exact - 1).unwrap_err(),
            InterpError::OutOfFuel,
            "{}: interpreter with fuel {}",
            w.name,
            exact - 1
        );

        let mut ap = AliasProfiler::new();
        run_with(&m, w.entry, &w.train_args, w.fuel, &mut ap).expect("training run");
        let aprof = ap.finish();
        for (config, data) in [
            ("O3", SpecSource::None),
            ("paper", SpecSource::Profile(&aprof)),
        ] {
            for target in TargetId::ALL {
                let mut opt = m.clone();
                optimize(
                    &mut opt,
                    &OptOptions {
                        data,
                        control: ControlSpec::Static,
                        strength_reduction: true,
                        lftr: true,
                        store_sinking: true,
                        target,
                    },
                );
                let prog = lower_module_for(&opt, target.spec());
                let label = format!("{} {config} {}", w.name, target.name());
                let (_, c) = run_machine_on(&prog, target.spec(), w.entry, &w.ref_args, w.fuel)
                    .unwrap_or_else(|e| panic!("{label}: simulation: {e}"));
                let (got, again) =
                    run_machine_on(&prog, target.spec(), w.entry, &w.ref_args, c.insts)
                        .unwrap_or_else(|e| panic!("{label}: fuel {}: {e}", c.insts));
                assert_eq!((got, again), (want, c), "{label}");
                assert_eq!(
                    run_machine_on(&prog, target.spec(), w.entry, &w.ref_args, c.insts - 1)
                        .unwrap_err(),
                    SimError::OutOfFuel,
                    "{label}: fuel {}",
                    c.insts - 1
                );
            }
        }
    }
}
