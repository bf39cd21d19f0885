//! # specframe-bench
//!
//! The evaluation harness: runs every workload through the paper's
//! configurations and computes the quantities of Figures 10–12 and the
//! §5.1 smvp table. The `figures` binary pretty-prints them; specbench
//! (`specbench/`) measures compile time.
//!
//! Per workload, the pipeline is exactly the paper's:
//!
//! 1. prepare (critical-edge split — ORC's SSAPRE preprocessing);
//! 2. **profiling run** on the *training* input: alias profile (§3.2.1) +
//!    edge profile;
//! 3. compile four ways: O3 baseline (control speculation only — "the
//!    existing SSAPRE in ORC already supports control speculation"),
//!    profile-guided speculative, heuristic speculative (§3.2.2), and
//!    aggressive (the §5.3 upper-bound estimator);
//! 4. run each binary on the *reference* input in the EPIC simulator and
//!    read the `pfmon`-style counters;
//! 5. run the load-reuse simulation (§5.3 first method) on the reference
//!    input of the unoptimized program.
//!
//! Every configuration's result is checked against the reference
//! interpreter — speculation must never change program output.

use specframe_codegen::lower_module;
use specframe_core::{optimize, ControlSpec, OptOptions, OptStats, SpecSource};

use specframe_machine::{run_machine, Counters};
use specframe_profile::{
    observer::Compose, run, run_with, AliasProfiler, EdgeProfiler, ReuseReport, ReuseSimulator,
};
use specframe_workloads::{all_workloads, Scale, Workload};

/// Results of one configuration's machine run.
#[derive(Debug, Clone, Copy)]
pub struct ConfigResult {
    /// `pfmon`-style counters from the reference-input run.
    pub counters: Counters,
    /// Static optimization statistics.
    pub opt: OptStats,
}

/// Everything measured for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: &'static str,
    /// O3 baseline (control speculation, no data speculation).
    pub baseline: ConfigResult,
    /// Alias-profile-guided speculation.
    pub profile: ConfigResult,
    /// Heuristic-rule speculation.
    pub heuristic: ConfigResult,
    /// Aggressive promotion (Fig. 12 upper-bound estimator).
    pub aggressive: ConfigResult,
    /// Load-reuse simulation (Fig. 12 first method).
    pub reuse: ReuseReport,
}

impl BenchResult {
    /// Figure 10 first series: % of dynamic loads removed by speculative
    /// register promotion relative to the O3 baseline.
    pub fn load_reduction(&self) -> f64 {
        reduction(
            self.baseline.counters.loads_retired,
            self.profile.counters.loads_retired,
        )
    }

    /// Figure 10 second series: execution-time speedup over O3 (in %).
    pub fn speedup(&self) -> f64 {
        let b = self.baseline.counters.cycles as f64;
        let s = self.profile.counters.cycles as f64;
        if s == 0.0 {
            0.0
        } else {
            (b / s - 1.0) * 100.0
        }
    }

    /// Figure 10 companion: reduction of data-access cycles.
    pub fn data_cycle_reduction(&self) -> f64 {
        reduction(
            self.baseline.counters.data_access_cycles,
            self.profile.counters.data_access_cycles,
        )
    }

    /// Figure 11 first series: dynamic check loads over total loads
    /// retired (in %).
    pub fn check_ratio(&self) -> f64 {
        self.profile.counters.check_ratio() * 100.0
    }

    /// Figure 11 second series: mis-speculation ratio (in %).
    pub fn mis_speculation(&self) -> f64 {
        self.profile.counters.mis_speculation_ratio() * 100.0
    }

    /// Figure 12 first series: potential reuse from the trace simulation
    /// (in % of loads).
    pub fn potential_simulation(&self) -> f64 {
        self.reuse.ratio() * 100.0
    }

    /// Figure 12 second series: load reduction under aggressive promotion
    /// (in %).
    pub fn potential_aggressive(&self) -> f64 {
        reduction(
            self.baseline.counters.loads_retired,
            self.aggressive.counters.loads_retired,
        )
    }

    /// Heuristic-mode load reduction (§5.2's "comparable" claim).
    pub fn heuristic_load_reduction(&self) -> f64 {
        reduction(
            self.baseline.counters.loads_retired,
            self.heuristic.counters.loads_retired,
        )
    }
}

fn reduction(base: u64, new: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        (base.saturating_sub(new)) as f64 / base as f64 * 100.0
    }
}

/// Runs the full pipeline for one workload.
///
/// # Panics
/// Panics if any configuration computes a different result than the
/// reference interpreter (an optimizer bug), or if execution fails.
pub fn run_benchmark(w: &Workload) -> BenchResult {
    let mut prepared = w.module.clone();
    specframe_core::prepare_module(&mut prepared);

    // reference result from the unoptimized interpreter
    let (expect, _) = run(&prepared, w.entry, &w.ref_args, w.fuel)
        .unwrap_or_else(|e| panic!("{}: reference run failed: {e}", w.name));

    // profiling on the training input
    let mut ap = AliasProfiler::new();
    let mut ep = EdgeProfiler::new();
    {
        let mut obs = Compose(vec![&mut ap, &mut ep]);
        run_with(&prepared, w.entry, &w.train_args, w.fuel, &mut obs)
            .unwrap_or_else(|e| panic!("{}: training run failed: {e}", w.name));
    }
    let aprof = ap.finish();
    let eprof = ep.finish();

    // load-reuse simulation on the reference input (§5.3)
    let mut reuse_sim = ReuseSimulator::new(&prepared);
    run_with(&prepared, w.entry, &w.ref_args, w.fuel, &mut reuse_sim)
        .unwrap_or_else(|e| panic!("{}: reuse run failed: {e}", w.name));
    let reuse = reuse_sim.report();

    let compile_and_run = |opts: &OptOptions| -> ConfigResult {
        let mut m = prepared.clone();
        let opt = optimize(&mut m, opts);
        let prog = lower_module(&m);
        let (got, counters) = run_machine(&prog, w.entry, &w.ref_args, w.fuel)
            .unwrap_or_else(|e| panic!("{}: machine run failed: {e}", w.name));
        assert_eq!(
            got, expect,
            "{}: optimized program changed the program result",
            w.name
        );
        ConfigResult { counters, opt }
    };

    let baseline = compile_and_run(&OptOptions {
        data: SpecSource::None,
        control: ControlSpec::Profile(&eprof),
        strength_reduction: true,
        lftr: true,
        store_sinking: true,
        target: Default::default(),
    });
    let profile = compile_and_run(&OptOptions {
        data: SpecSource::Profile(&aprof),
        control: ControlSpec::Profile(&eprof),
        strength_reduction: true,
        lftr: true,
        store_sinking: true,
        target: Default::default(),
    });
    let heuristic = compile_and_run(&OptOptions {
        data: SpecSource::Heuristic,
        control: ControlSpec::Static,
        strength_reduction: true,
        lftr: true,
        store_sinking: true,
        target: Default::default(),
    });
    let aggressive = compile_and_run(&OptOptions {
        data: SpecSource::Aggressive,
        control: ControlSpec::Profile(&eprof),
        strength_reduction: false,
        lftr: false,
        store_sinking: false,
        target: Default::default(),
    });

    BenchResult {
        name: w.name,
        baseline,
        profile,
        heuristic,
        aggressive,
        reuse,
    }
}

/// Runs all eight benchmarks at the given scale.
pub fn run_all(scale: Scale) -> Vec<BenchResult> {
    all_workloads(scale).iter().map(run_benchmark).collect()
}

/// Ablation: which part of the framework buys what.
///
/// The paper's design isolates two speculation axes (Figure 3): control
/// speculation (edge profiles, pre-existing in ORC's SSAPRE) and data
/// speculation (the paper's contribution). This study compiles each
/// benchmark four ways and reports cycles for each, so the contribution of
/// each axis — and their interaction — is visible.
#[derive(Debug, Clone, Copy)]
pub struct AblationResult {
    /// Benchmark name.
    pub name: &'static str,
    /// No speculation at all (classic safe PRE).
    pub none: Counters,
    /// Control speculation only (the ORC O3 baseline).
    pub control_only: Counters,
    /// Data speculation only.
    pub data_only: Counters,
    /// Both (the paper's full framework).
    pub both: Counters,
}

impl AblationResult {
    /// Speedup of configuration `c` over the no-speculation build (in %).
    pub fn speedup_over_none(&self, c: Counters) -> f64 {
        (self.none.cycles as f64 / c.cycles as f64 - 1.0) * 100.0
    }
}

/// Runs the ablation for one workload.
pub fn run_ablation(w: &Workload) -> AblationResult {
    let mut prepared = w.module.clone();
    specframe_core::prepare_module(&mut prepared);
    let (expect, _) = run(&prepared, w.entry, &w.ref_args, w.fuel).unwrap();

    let mut ap = AliasProfiler::new();
    let mut ep = EdgeProfiler::new();
    {
        let mut obs = Compose(vec![&mut ap, &mut ep]);
        run_with(&prepared, w.entry, &w.train_args, w.fuel, &mut obs).unwrap();
    }
    let aprof = ap.finish();
    let eprof = ep.finish();

    let go = |data: SpecSource, control: ControlSpec| -> Counters {
        let mut m = prepared.clone();
        optimize(
            &mut m,
            &OptOptions {
                data,
                control,
                strength_reduction: true,
                lftr: true,
                store_sinking: true,
                target: Default::default(),
            },
        );
        let prog = lower_module(&m);
        let (got, c) = run_machine(&prog, w.entry, &w.ref_args, w.fuel).unwrap();
        assert_eq!(
            got, expect,
            "{}: ablation config changed the result",
            w.name
        );
        c
    };

    AblationResult {
        name: w.name,
        none: go(SpecSource::None, ControlSpec::Off),
        control_only: go(SpecSource::None, ControlSpec::Profile(&eprof)),
        data_only: go(SpecSource::Profile(&aprof), ControlSpec::Off),
        both: go(SpecSource::Profile(&aprof), ControlSpec::Profile(&eprof)),
    }
}

/// Runs the ablation over all benchmarks.
pub fn run_ablation_all(scale: Scale) -> Vec<AblationResult> {
    all_workloads(scale).iter().map(run_ablation).collect()
}

/// Per-procedure detail for the §5.1 smvp study.
#[derive(Debug, Clone, Copy)]
pub struct SmvpStudy {
    /// Baseline retired loads.
    pub base_loads: u64,
    /// Speculative retired loads.
    pub spec_loads: u64,
    /// Speculative check loads.
    pub spec_checks: u64,
    /// Baseline cycles.
    pub base_cycles: u64,
    /// Speculative cycles.
    pub spec_cycles: u64,
    /// Cycles with a "manually tuned" oracle (checks free — the paper's
    /// hand-promoted upper bound).
    pub oracle_cycles: u64,
}

impl SmvpStudy {
    /// Percentage of original loads that became checks.
    pub fn loads_to_checks(&self) -> f64 {
        if self.base_loads == 0 {
            0.0
        } else {
            self.spec_checks as f64 / self.base_loads as f64 * 100.0
        }
    }

    /// Speedup of the speculative version (in %).
    pub fn speedup(&self) -> f64 {
        (self.base_cycles as f64 / self.spec_cycles as f64 - 1.0) * 100.0
    }

    /// Speedup of the oracle (manually tuned) version (in %).
    pub fn oracle_speedup(&self) -> f64 {
        (self.base_cycles as f64 / self.oracle_cycles as f64 - 1.0) * 100.0
    }
}

/// Runs the §5.1 study on the equake smvp workload.
pub fn run_smvp_study(scale: Scale) -> SmvpStudy {
    let w = specframe_workloads::workload_by_name("equake_smvp", scale).expect("workload");
    let r = run_benchmark(&w);
    // oracle: as if every successful check were removed entirely — the
    // paper's manually tuned version without check instructions (0-cycle
    // checks are already free; the oracle additionally drops the failed
    // checks' recovery, which smvp doesn't have, so this equals the
    // speculative version minus check issue slots; we model it by also
    // removing the checks' data accesses)
    let oracle_cycles = r
        .profile
        .counters
        .cycles
        .saturating_sub(r.profile.counters.failed_checks * 10);
    SmvpStudy {
        base_loads: r.baseline.counters.loads_retired,
        spec_loads: r.profile.counters.loads_retired,
        spec_checks: r.profile.counters.check_loads,
        base_cycles: r.baseline.counters.cycles,
        spec_cycles: r.profile.counters.cycles,
        oracle_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equake_pipeline_shows_the_paper_shape() {
        let w = specframe_workloads::workload_by_name("equake_smvp", Scale::Test).unwrap();
        let r = run_benchmark(&w);
        assert!(
            r.load_reduction() > 5.0,
            "equake must show a real load reduction, got {:.1}% ({:?} -> {:?})",
            r.load_reduction(),
            r.baseline.counters.loads_retired,
            r.profile.counters.loads_retired
        );
        assert!(r.speedup() > 0.0, "speedup {:.2}%", r.speedup());
        assert!(
            r.check_ratio() > 1.0,
            "checks must appear: {:.2}%",
            r.check_ratio()
        );
        assert!(
            r.mis_speculation() < 1.0,
            "no real aliasing in equake: {:.2}%",
            r.mis_speculation()
        );
    }

    #[test]
    fn gzip_has_high_mis_speculation_but_few_checks() {
        let w = specframe_workloads::workload_by_name("gzip", Scale::Test).unwrap();
        let r = run_benchmark(&w);
        assert!(
            r.mis_speculation() > 2.0 && r.mis_speculation() < 15.0,
            "gzip mis-speculation should be ~6%: {:.2}%",
            r.mis_speculation()
        );
        assert!(
            r.check_ratio() < 25.0,
            "gzip checks are a small share: {:.2}%",
            r.check_ratio()
        );
    }

    #[test]
    fn potential_bounds_actual() {
        // Fig. 12's premise: the simulation-based potential is an upper
        // bound (or at least no smaller, modulo granularity) on what the
        // implementation achieves
        for name in ["equake_smvp", "mcf"] {
            let w = specframe_workloads::workload_by_name(name, Scale::Test).unwrap();
            let r = run_benchmark(&w);
            assert!(
                r.potential_simulation() + 5.0 >= r.load_reduction(),
                "{name}: potential {:.1}% vs achieved {:.1}%",
                r.potential_simulation(),
                r.load_reduction()
            );
        }
    }

    #[test]
    fn ablation_axes_compose() {
        // data+control must never be slower than control alone, and the
        // speculative configurations must never be slower than none at all
        // (on the training-faithful benchmarks)
        let w = specframe_workloads::workload_by_name("equake_smvp", Scale::Test).unwrap();
        let a = run_ablation(&w);
        assert!(a.both.cycles <= a.control_only.cycles, "{a:?}");
        assert!(a.both.cycles <= a.none.cycles, "{a:?}");
        assert!(a.control_only.cycles <= a.none.cycles, "{a:?}");
        // data speculation alone catches the straight-line redundancies but
        // not the loop-invariant hoists: it sits between none and both
        assert!(a.data_only.cycles <= a.none.cycles, "{a:?}");
    }

    #[test]
    fn heuristic_is_comparable_to_profile() {
        // §5.2: "the performance of the heuristic version is comparable to
        // that of the profile-based version"
        let w = specframe_workloads::workload_by_name("equake_smvp", Scale::Test).unwrap();
        let r = run_benchmark(&w);
        let p = r.load_reduction();
        let h = r.heuristic_load_reduction();
        assert!(
            (p - h).abs() < 25.0,
            "heuristic ({h:.1}%) should be in the same league as profile ({p:.1}%)"
        );
    }
}
