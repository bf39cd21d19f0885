//! `fuzzdiff` — CI driver for the differential misspeculation oracle.
//!
//! ```text
//! fuzzdiff [--seed N] [--random N] [--time-budget SECS] [--policy SPEC]..
//!          [--skip-workloads] [--break-checks] [--reduce-on-failure]
//! ```
//!
//! Runs the workload kernels and `N` seeded random programs through every
//! optimizer configuration × ALAT fault policy and compares each machine
//! run against the unoptimized reference interpreter. The seed makes a
//! failing run reproducible (`fuzzdiff --seed S --random 1` replays one
//! case); the time budget keeps CI bounded — cases are skipped once it is
//! exhausted, and the skip count is reported so a silently-short run is
//! visible.
//!
//! Every case also runs the storage-fault and key-soundness cache oracles;
//! the summary line reports the key oracle's over-invalidation rate.
//!
//! `--break-checks` deletes one check instruction from every optimized
//! module before comparing — a deliberate sabotage that MUST make the
//! oracle fail, proving it has teeth. `--reduce-on-failure` shrinks each
//! failing case with the ddmin reducer and prints a `.spec`-ready repro
//! to stdout.
//!
//! Exit code 0 when every comparison matched, 1 otherwise (2 for usage).

use specframe::prelude::*;
use specframe_fuzzdiff::{
    diff_case, key_soundness_case, random_case, reduce_failing_case, storage_fault_case,
    workload_cases, DiffOutcome, DiffStats, DEFAULT_STEPS,
};
use std::time::{Duration, Instant};

struct Opts {
    seed: u64,
    random: u64,
    steps: u64,
    budget: Duration,
    policies: Vec<String>,
    workloads: bool,
    break_checks: bool,
    reduce_on_failure: bool,
}

fn parse_opts() -> Result<Opts, String> {
    let mut o = Opts {
        seed: 1,
        random: 16,
        steps: DEFAULT_STEPS,
        budget: Duration::from_secs(300),
        policies: Vec::new(),
        workloads: true,
        break_checks: false,
        reduce_on_failure: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--seed" => {
                o.seed = val("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--random" => {
                o.random = val("--random")?
                    .parse()
                    .map_err(|e| format!("bad --random: {e}"))?
            }
            "--time-budget" => {
                let secs: u64 = val("--time-budget")?
                    .parse()
                    .map_err(|e| format!("bad --time-budget: {e}"))?;
                o.budget = Duration::from_secs(secs);
            }
            "--steps" => {
                o.steps = val("--steps")?
                    .parse()
                    .map_err(|e| format!("bad --steps: {e}"))?
            }
            "--policy" => o.policies.push(val("--policy")?),
            "--skip-workloads" => o.workloads = false,
            "--break-checks" => o.break_checks = true,
            "--reduce-on-failure" => o.reduce_on_failure = true,
            "--help" | "-h" => {
                return Err("usage: fuzzdiff [--seed N] [--random N] [--steps N] \
                            [--time-budget SECS] [--policy SPEC].. \
                            [--skip-workloads] [--break-checks] \
                            [--reduce-on-failure]\n\
                            default policies: the full fault matrix \
                            (default, always-miss, forced-miss, random:1/2/3, \
                            flash-clear)"
                    .into())
            }
            other => return Err(format!("unknown option `{other}` (try --help)")),
        }
    }
    if o.policies.is_empty() {
        o.policies = fault_matrix();
    }
    // reject bad policy specs before burning budget
    for p in &o.policies {
        parse_fault_policy(p)?;
    }
    Ok(o)
}

fn main() -> std::process::ExitCode {
    let o = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fuzzdiff: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let mut stats = DiffStats::default();
    let mut failures = 0u64;
    let mut skipped = 0u64;

    let mut cases: Vec<Box<dyn FnOnce() -> specframe_fuzzdiff::Case>> = Vec::new();
    if o.workloads {
        for c in workload_cases() {
            cases.push(Box::new(move || c));
        }
    }
    for i in 0..o.random {
        let seed = o.seed.wrapping_add(i);
        let steps = o.steps;
        cases.push(Box::new(move || random_case(seed, steps)));
    }

    for make in cases {
        if start.elapsed() > o.budget {
            skipped += 1;
            continue;
        }
        let case = make();
        let name = case.name.clone();
        match diff_case(&case, &o.policies, &mut stats, o.break_checks) {
            DiffOutcome::Agree => println!("ok   {name}"),
            DiffOutcome::Setup(report) => {
                failures += 1;
                println!("FAIL {name}");
                eprintln!("{report}");
            }
            DiffOutcome::Diverged(report) => {
                failures += 1;
                println!("FAIL {name}");
                eprintln!("{report}");
                if o.reduce_on_failure {
                    eprintln!("fuzzdiff: shrinking {name} to a minimal repro...");
                    let (spec, rs) = reduce_failing_case(&case, &o.policies, o.break_checks);
                    eprintln!(
                        "fuzzdiff: reduce: {} probes, {} -> {} instructions \
                         ({:.0}% shrink)",
                        rs.probes,
                        rs.initial_insts,
                        rs.final_insts,
                        rs.shrink_percent()
                    );
                    print!("{spec}");
                }
            }
        }
        // the storage-fault oracle rides along on every case: the compile
        // cache must survive the injected-fault matrix without moving the
        // module text a byte (sabotage mode targets the ALAT oracle only),
        // and so does the key-soundness oracle: one edit at a time, an
        // unchanged cache key must mean an unchanged stored entry
        if !o.break_checks {
            if let Err(report) = storage_fault_case(&case, &mut stats) {
                failures += 1;
                println!("FAIL {name} (storage-fault oracle)");
                eprintln!("{report}");
            }
            if let Err(report) = key_soundness_case(&case, &mut stats) {
                failures += 1;
                println!("FAIL {name} (key-soundness oracle)");
                eprintln!("{report}");
            }
        }
    }

    println!(
        "fuzzdiff: {} cases, {} sim runs, {} failed checks recovered, \
         {} leak sites fenced ({} fences), {} cached compiles \
         ({} retries / {} injected errors, {} breaker trips), \
         {} key pairs ({} over-invalidated, {:.1}%), \
         {} skipped (budget), {} failures in {:.1}s",
        stats.cases,
        stats.sim_runs,
        stats.failed_checks,
        stats.leak_sites,
        stats.fences_inserted,
        stats.cache_runs,
        stats.cache_retries,
        stats.cache_io_errors,
        stats.cache_breaker_trips,
        stats.key_pairs,
        stats.key_over_invalidations,
        stats.over_invalidation_pct(),
        skipped,
        failures,
        start.elapsed().as_secs_f64()
    );
    if failures == 0 {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
