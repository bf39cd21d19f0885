//! The compile cache's headline invariant: a cached compile is
//! **byte-identical** to an uncached one — cold, warm, at any `--jobs`
//! level — and damaged entries degrade to a fresh compile, never to
//! wrong output.

use specframe::ir::display::print_module;
use specframe::prelude::*;
use std::path::{Path, PathBuf};

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("specframe-cachert-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn req(cache: Option<&Path>, jobs: usize) -> CompileRequest {
    CompileRequest {
        spec: SpecKind::Heuristic,
        control: ControlKind::Static,
        jobs,
        cache_dir: cache.map(Path::to_path_buf),
        ..Default::default()
    }
}

fn compile_mega(seed: u64, funcs: usize, r: &CompileRequest) -> (String, CompileOutput) {
    let out = compile_module(mega_module(seed, funcs), r).expect("compile");
    (print_module(&out.module), out)
}

/// Every `*.spcc` entry file under the cache root, sorted for
/// deterministic sabotage targets.
fn entry_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for shard in std::fs::read_dir(dir).expect("cache dir") {
        let shard = shard.unwrap().path();
        if !shard.is_dir() {
            continue;
        }
        for f in std::fs::read_dir(&shard).unwrap() {
            let p = f.unwrap().path();
            if p.extension().is_some_and(|e| e == "spcc") {
                files.push(p);
            }
        }
    }
    files.sort();
    files
}

#[test]
fn cold_and_warm_match_uncached_at_every_jobs_level() {
    cold_warm_and_edited(11, 40, false);
    // 1000 functions with every optional pass on, store sinking included
    cold_warm_and_edited(42, 1000, true);
}

/// One input through a fresh cache, against uncached jobs-1 compiles:
/// the cold run compiles every function at jobs 4, the warm runs at jobs
/// 1/2/4 replay every function and compile nothing, and a body plus
/// global-initializer edit recompiles only the edited function.
fn cold_warm_and_edited(seed: u64, funcs: usize, store_sinking: bool) {
    let dir = temp_cache(&format!("parity{funcs}"));
    let request = |cache, jobs| CompileRequest {
        store_sinking,
        ..req(cache, jobs)
    };
    let n = funcs as u64;

    let (baseline, base_out) = compile_mega(seed, funcs, &request(None, 1));
    assert_eq!(base_out.report.cache.probes(), 0, "no cache attached");
    // the optimized module prints, re-parses, verifies and prints back to
    // the same bytes
    let reparsed = parse_module(&baseline).expect("optimized module re-parses");
    verify_module(&reparsed).expect("re-parsed optimized module verifies");
    assert_eq!(
        print_module(&reparsed),
        baseline,
        "print round trip moved bytes"
    );

    let (cold, cold_out) = compile_mega(seed, funcs, &request(Some(&dir), 4));
    assert_eq!(
        cold, baseline,
        "cold jobs-4 compile diverged from uncached jobs 1"
    );
    assert_eq!(cold_out.report.cache.hits, 0);
    assert_eq!(cold_out.report.cache.misses, n);

    for jobs in [1, 2, 4] {
        let (warm, warm_out) = compile_mega(seed, funcs, &request(Some(&dir), jobs));
        assert_eq!(warm, baseline, "warm cached compile diverged (jobs {jobs})");
        assert_eq!(warm_out.report.cache.hits, n, "jobs {jobs}");
        assert_eq!(warm_out.report.cache.misses, 0, "jobs {jobs}");
        assert_eq!(warm_out.report.cache.stale, 0, "jobs {jobs}");
        // a hit builds no analyses: one dominator tree per compiled function
        assert_eq!(warm_out.report.timings.dom_computes, 0, "jobs {jobs}");
        // replayed stats are the stored ones: identical to a fresh compile
        assert_eq!(warm_out.report.stats, base_out.report.stats, "jobs {jobs}");
    }

    // an initializer is not in any key, and a literal moves only its
    // own function's key
    let src = mega_source(seed, funcs);
    let edited = src
        .replacen("global g0: i64[1] = [1]\n", "global g0: i64[1] = [2]\n", 1)
        .replacen(" = add n, 3\n", " = add n, 4\n", 1);
    let changed = src.lines().zip(edited.lines()).filter(|(a, b)| a != b);
    assert_eq!(changed.count(), 2, "one initializer and one body line");
    let compile_edited = |r: &CompileRequest| {
        let m = parse_module(&edited).expect("edited module parses");
        compile_module(m, r).expect("compile")
    };
    let uncached = print_module(&compile_edited(&request(None, 1)).module);
    let out = compile_edited(&request(Some(&dir), 1));
    assert_eq!(
        print_module(&out.module),
        uncached,
        "edited cached compile diverged"
    );
    assert_eq!(out.report.cache.misses, 1, "{:?}", out.report.cache);
    assert_eq!(out.report.cache.hits, n - 1, "{:?}", out.report.cache);
    assert_eq!(out.report.cache.stale, 0, "{:?}", out.report.cache);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn damaged_entries_recompile_fresh_and_heal() {
    const FUNCS: usize = 30;
    let dir = temp_cache("sabotage");

    let (baseline, _) = compile_mega(23, FUNCS, &req(None, 1));
    compile_mega(23, FUNCS, &req(Some(&dir), 1)); // populate

    // sabotage three entries on disk: truncation, a payload bit flip, and
    // a version skew — the three corruption families the codec must catch
    let files = entry_files(&dir);
    assert_eq!(files.len(), FUNCS);
    let bytes = std::fs::read(&files[0]).unwrap();
    std::fs::write(&files[0], &bytes[..bytes.len() / 2]).unwrap();
    let mut bytes = std::fs::read(&files[1]).unwrap();
    let mid = 24 + (bytes.len() - 24) / 2; // a payload byte, past the header
    bytes[mid] ^= 0x40;
    std::fs::write(&files[1], bytes).unwrap();
    let mut bytes = std::fs::read(&files[2]).unwrap();
    bytes[4..8].copy_from_slice(&999u32.to_le_bytes());
    std::fs::write(&files[2], bytes).unwrap();

    let (warm, out) = compile_mega(23, FUNCS, &req(Some(&dir), 2));
    assert_eq!(warm, baseline, "sabotaged cache changed the output");
    assert_eq!(out.report.cache.stale, 3, "{:?}", out.report.cache);
    assert_eq!(out.report.cache.hits, FUNCS as u64 - 3);
    let stale_warnings: Vec<_> = out
        .report
        .warnings
        .iter()
        .filter(|w| w.pass == "cache")
        .collect();
    assert_eq!(stale_warnings.len(), 3, "{:?}", out.report.warnings);
    assert!(
        stale_warnings
            .iter()
            .all(|w| w.message.contains("recompiled from source")),
        "{stale_warnings:?}"
    );
    // the stale-entry diagnostics lead the report's warnings, in the module
    // order of their functions
    let stale_at: Vec<usize> = out.report.warnings[..3]
        .iter()
        .map(|w| {
            assert!(w.message.starts_with("stale cache entry"), "{w}");
            let at = out.module.funcs.iter().position(|f| f.name == w.function);
            at.expect("a stale entry's function is in the module")
        })
        .collect();
    assert!(
        stale_at.windows(2).all(|p| p[0] < p[1]),
        "stale entries out of module order: {stale_at:?}"
    );

    // the recompiles were written back: the next run is all hits again
    let (healed, out) = compile_mega(23, FUNCS, &req(Some(&dir), 1));
    assert_eq!(healed, baseline);
    assert_eq!(
        out.report.cache.hits, FUNCS as u64,
        "{:?}",
        out.report.cache
    );
    assert_eq!(out.report.cache.stale, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fault_injection_disables_the_cache() {
    let dir = temp_cache("inject");
    compile_mega(31, 10, &req(Some(&dir), 1)); // populate

    let mut r = req(Some(&dir), 1);
    r.hooks.inject_spec_fail = Some("f3".into());
    let out = compile_module(mega_module(31, 10), &r).expect("inject compile");
    // with a fault hook armed, nothing may be served from (or written to)
    // the cache — the run behaves exactly like an uncached one
    assert_eq!(out.report.cache.probes(), 0, "{:?}", out.report.cache);
    assert_eq!(out.report.stats.spec_fallbacks, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}
