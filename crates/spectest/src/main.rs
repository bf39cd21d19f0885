//! `spectest` — run the golden-test suite.
//!
//! ```text
//! spectest [PATHS...] [options]
//!
//!   PATHS            .spec files and/or directories to scan for *.spec
//!                    (default: tests/golden)
//!   --filter SUBSTR  run only cases whose path contains SUBSTR
//!   --dump FILE      print FILE's RUN output instead of checking it
//!                    (the authoring aid: pick lines to pin from this)
//!   --verify-each    run every case with pass-boundary verification on
//!   --audit-spec     run every case with the speculation auditor on
//!                    (cases may opt out of an override with a
//!                    `; UNSUPPORTED: <override>` line and are counted
//!                    as skipped)
//!   --audit-leaks    check the leak-fencing contract on every case's
//!                    compiled module: flagged speculative-leak sites must
//!                    fence to a clean re-audit with unchanged results
//!   --cache-dir DIR  route every RUN through a persistent compile cache
//!                    (cached-path parity: output must not change)
//!   --target NAME    force every RUN onto execution target NAME
//!                    (epic|swr); target-pinned cases opt out with
//!                    `; UNSUPPORTED: target`
//!   -q, --quiet      only print failures and the summary
//! ```
//!
//! Exit status: 0 when every case passes, 1 on any failure, 2 on usage or
//! discovery errors.

use specframe::machine::TargetId;
use specframe::pipeline::choose;
use spectest::runner;
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    paths: Vec<PathBuf>,
    filter: Option<String>,
    dump: Option<PathBuf>,
    overrides: runner::RunOverrides,
    quiet: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        paths: Vec::new(),
        filter: None,
        dump: None,
        overrides: runner::RunOverrides::default(),
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--filter" => cli.filter = Some(args.next().ok_or("--filter needs a value")?),
            "--dump" => cli.dump = Some(PathBuf::from(args.next().ok_or("--dump needs a value")?)),
            "--verify-each" => cli.overrides.verify_each = true,
            "--audit-spec" => cli.overrides.audit_spec = true,
            "--audit-leaks" => cli.overrides.audit_leaks = true,
            "--cache-dir" => {
                cli.overrides.cache_dir = Some(PathBuf::from(
                    args.next().ok_or("--cache-dir needs a value")?,
                ))
            }
            "--cache-fault-policy" => {
                let spec = args.next().ok_or("--cache-fault-policy needs a value")?;
                cli.overrides.cache_fault_policy =
                    Some(specframe::core::parse_store_fault_policy(&spec)?)
            }
            "--target" => {
                let name = args.next().ok_or("--target needs a value")?;
                let targets = TargetId::ALL.map(|t| (t.name(), t));
                cli.overrides.target = Some(choose("--target", &name, &targets)?)
            }
            "-q" | "--quiet" => cli.quiet = true,
            "--help" | "-h" => {
                return Err(
                    "usage: spectest [PATHS...] [--filter SUBSTR] [--dump FILE] \
                            [--verify-each] [--audit-spec] [--audit-leaks] \
                            [--cache-dir DIR] [--cache-fault-policy SPEC] \
                            [--target NAME] [-q]"
                        .into(),
                )
            }
            other if !other.starts_with('-') => cli.paths.push(PathBuf::from(other)),
            other => return Err(format!("unknown option `{other}` (try --help)")),
        }
    }
    if cli.paths.is_empty() {
        cli.paths.push(PathBuf::from("tests/golden"));
    }
    Ok(cli)
}

fn real_main() -> Result<bool, String> {
    let cli = parse_cli()?;

    if let Some(file) = &cli.dump {
        let text = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        // a RUN line with no checks yet is fine here: --dump exists to
        // produce the text you will then write checks against
        let case = runner::parse_spec(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        print!("{}", runner::case_output(&case)?);
        return Ok(true);
    }

    let mut files = runner::discover(&cli.paths)?;
    if let Some(f) = &cli.filter {
        files.retain(|p| p.to_string_lossy().contains(f.as_str()));
    }
    if files.is_empty() {
        return Err("no .spec files found".into());
    }

    let mut failures = 0usize;
    let mut skipped = 0usize;
    for path in &files {
        match runner::run_case(path, cli.overrides.clone()) {
            runner::CaseOutcome::Pass => {
                if !cli.quiet {
                    println!("PASS {}", path.display());
                }
            }
            runner::CaseOutcome::Skip(why) => {
                skipped += 1;
                if !cli.quiet {
                    println!("SKIP {} (UNSUPPORTED: {why})", path.display());
                }
            }
            runner::CaseOutcome::Fail(msg) => {
                failures += 1;
                println!("FAIL {}", path.display());
                for line in msg.lines() {
                    println!("     {line}");
                }
            }
        }
    }
    println!(
        "spectest: {} passed, {} failed, {} skipped ({} total)",
        files.len() - failures - skipped,
        failures,
        skipped,
        files.len()
    );
    Ok(failures == 0)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("spectest: {e}");
            ExitCode::from(2)
        }
    }
}
