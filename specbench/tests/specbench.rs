//! End-to-end checks of the benchmark itself: its edit stream, its
//! `--quick` runs of every workload, and its trace.
//!
//! The runs need `specc` beside the `specbench` binary, located the way
//! `ci_smoke` locates it; the helper builds it there when it is missing.
//! Run with `cargo test --release --manifest-path specbench/Cargo.toml`.

use specbench::inputs::{edit_plan, MegaText};
use specbench::json::{self, Json};
use specframe_alias::AliasAnalysis;
use specframe_core::{
    prepare_module, ControlSpec, KeyContext, OptOptions, PipelineHooks, SpecSource,
};
use specframe_ir::{parse_module, FuncId, Module, VarId};
use specframe_machine::TargetId;
use specframe_workloads::{workload_by_name, Scale};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The `specbench` binary, with `specc` built beside it if needed.
fn specbench() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let bin = PathBuf::from(env!("CARGO_BIN_EXE_specbench"));
        let dir = bin.parent().expect("binary directory");
        if !dir.join("specc").exists() {
            let mut build = Command::new(env!("CARGO"));
            build
                .current_dir(repo_root())
                .args(["build", "--offline", "--bin", "specc"])
                .env("CARGO_TARGET_DIR", dir.parent().expect("target directory"));
            if dir.file_name().is_some_and(|n| n == "release") {
                build.arg("--release");
            }
            let status = build.status().expect("run cargo");
            assert!(status.success(), "building specc failed");
        }
        bin
    })
}

/// Runs specbench from the repository root (where `BENCHMARK.json` is) and
/// returns its standard output.
fn run(args: &[&str]) -> String {
    let out = Command::new(specbench())
        .current_dir(repo_root())
        .args(args)
        .output()
        .expect("run specbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "specbench {args:?} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn last_json(stdout: &str) -> Json {
    json::parse(stdout.lines().last().expect("output")).expect("result line parses")
}

fn bench_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("specbench-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn keys(m: &Module) -> Vec<specframe_core::CacheKey> {
    let mut m = m.clone();
    prepare_module(&mut m);
    let aa = AliasAnalysis::analyze(&m);
    let opts = OptOptions {
        data: SpecSource::Heuristic,
        control: ControlSpec::Static,
        strength_reduction: true,
        lftr: true,
        store_sinking: false,
        target: TargetId::Epic,
    };
    let ctx = KeyContext::new(&m, &aa, &opts, &PipelineHooks::default());
    (0..m.funcs.len()).map(|fi| ctx.function_key(fi)).collect()
}

/// Everything a per-function reachable-context digest would cover besides
/// the body: signatures, globals, and each function's alias slice.
fn context(m: &Module) -> Vec<String> {
    let mut m = m.clone();
    prepare_module(&mut m);
    let aa = AliasAnalysis::analyze(&m);
    let mut out: Vec<String> = m.globals.iter().map(|g| format!("{g:?}")).collect();
    for (fi, f) in m.funcs.iter().enumerate() {
        let slice: Vec<_> = (0..f.vars.len())
            .map(|v| {
                aa.locs_in_class(aa.var_class(FuncId::from_index(fi), VarId(v as u32)))
                    .to_vec()
            })
            .collect();
        out.push(format!("{} {} {:?} {slice:?}", f.name, f.params, f.ret_ty));
    }
    out
}

#[test]
fn edit_stream_is_seeded_and_body_edits_move_only_their_keys() {
    let a: Vec<_> = (0..8).map(|k| edit_plan(5, k, 1000, 48)).collect();
    let b: Vec<_> = (0..8).map(|k| edit_plan(5, k, 1000, 48)).collect();
    assert_eq!(a, b, "same seed, same edits");
    assert_ne!(
        a,
        (0..8)
            .map(|k| edit_plan(6, k, 1000, 48))
            .collect::<Vec<_>>()
    );
    for (k, e) in a.iter().enumerate() {
        assert_eq!(e.funcs.len(), 10, "1% of the functions");
        assert_eq!(
            e.global.is_some(),
            k % 4 == 3,
            "every 4th request edits a global"
        );
    }

    let mut text = MegaText::generate(5, 300);
    let before = parse_module(&text.render()).unwrap();
    let edit = (0..)
        .map(|k| edit_plan(9, k, text.funcs(), text.globals()))
        .find(|e| e.global.is_none())
        .unwrap();
    text.apply(&edit);
    let after = parse_module(&text.render()).unwrap();

    // the edit reaches only bodies: same instruction counts, same
    // signatures, globals and alias slices, so the same keys would move
    // under a reachable-context digest as under today's module digest
    assert_eq!(
        specframe_workloads::inst_count(&before),
        specframe_workloads::inst_count(&after)
    );
    assert_eq!(context(&before), context(&after));
    let (k0, k1) = (keys(&before), keys(&after));
    let moved: Vec<usize> = (0..k0.len()).filter(|&i| k0[i] != k1[i]).collect();
    assert_eq!(moved, edit.funcs);
}

#[test]
fn quick_runs_report_every_declared_metric_and_repeat_exact_counts() {
    let dir = scratch("quick");
    let bench = bench_json();
    let declared: Vec<(String, String)> = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect();

    let mut records = Vec::new();
    for round in 0..2 {
        let out = dir.join(format!("r{round}.jsonl"));
        let stdout = run(&[
            "--all",
            "--seed",
            "1",
            "--quick",
            "--out",
            out.to_str().unwrap(),
        ]);
        let last = last_json(&stdout);
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)), "{stdout}");
        assert_eq!(last.get("failed").and_then(Json::as_f64), Some(0.0));
        let metrics = last.get("metrics").unwrap();
        for wl in ["mega-cold", "serve-edits", "kernels-sim"] {
            for (name, unit) in &declared {
                let m = metrics
                    .get(&format!("{wl}/{name}"))
                    .unwrap_or_else(|| panic!("{wl}: {name} missing"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                assert!(
                    stdout.lines().any(|l| l.contains(name.as_str()) && l.trim_end().ends_with(unit.as_str())),
                    "{name} not printed with its unit"
                );
            }
        }
        let text = std::fs::read_to_string(&out).unwrap();
        records.push(
            text.lines()
                .map(|l| json::parse(l).unwrap())
                .collect::<Vec<_>>(),
        );
    }

    // exact counts repeat, and fail_ratio is zero everywhere
    for (a, b) in records[0].iter().zip(&records[1]) {
        let (ma, mb) = (a.get("metrics").unwrap(), b.get("metrics").unwrap());
        assert_eq!(
            ma.get("fail_ratio")
                .unwrap()
                .get("value")
                .and_then(Json::as_f64),
            Some(0.0)
        );
        for (name, m) in ma.as_obj().unwrap() {
            if m.get("exact") == Some(&Json::Bool(true)) {
                assert_eq!(
                    m.get("value"),
                    mb.get(name).unwrap().get("value"),
                    "{name} moved"
                );
            }
        }
    }

    // the per-kernel epic counters equal the in-process figure harness's
    let kernels = records[0]
        .iter()
        .find(|r| r.get("workload").and_then(Json::as_str) == Some("kernels-sim"))
        .and_then(|r| r.get("kernels"))
        .expect("kernels-sim detail");
    for (name, targets) in kernels.as_obj().unwrap() {
        let w = workload_by_name(name, Scale::Test).unwrap();
        let r = specframe_bench::run_benchmark(&w);
        let epic = targets.get("epic").unwrap();
        for (cfg, want) in [
            ("baseline", r.baseline.counters),
            ("paper", r.profile.counters),
        ] {
            let got = epic.get(cfg).unwrap();
            let field = |k| got.get(k).and_then(Json::as_f64).unwrap() as u64;
            assert_eq!(field("cycles"), want.cycles, "{name} {cfg}");
            assert_eq!(field("loads_retired"), want.loads_retired, "{name} {cfg}");
            assert_eq!(field("check_loads"), want.check_loads, "{name} {cfg}");
            assert_eq!(field("failed_checks"), want.failed_checks, "{name} {cfg}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traced_quick_run_writes_a_nested_trace_and_every_layer_metric() {
    let dir = scratch("trace");
    let trace = dir.join("trace.json");
    let stdout = run(&[
        "--all",
        "--seed",
        "2",
        "--quick",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    let last = last_json(&stdout);
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    let metrics = last.get("metrics").unwrap();
    for m in bench_json()
        .get("per_layer")
        .and_then(Json::as_arr)
        .unwrap()
    {
        let name = m.get("name").and_then(Json::as_str).unwrap();
        for wl in ["mega-cold", "serve-edits", "kernels-sim"] {
            assert!(
                metrics.get(&format!("{wl}/{name}")).is_some(),
                "{wl}: {name} missing"
            );
        }
    }

    let doc = json::parse(&std::fs::read_to_string(&trace).unwrap()).expect("trace parses");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let spans: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    assert!(spans.len() > 100, "{} spans", spans.len());
    let num = |e: &Json, k: &str| e.get(k).and_then(Json::as_f64).unwrap();
    let arg = |e: &Json, k: &str| e.get("args").and_then(|a| a.get(k)).and_then(Json::as_f64);
    let mut children = 0;
    for s in &spans {
        let Some(parent) = arg(s, "parent") else {
            continue;
        };
        let p = spans
            .iter()
            .find(|p| num(p, "pid") == num(s, "pid") && arg(p, "id") == Some(parent))
            .expect("parent span recorded");
        // microsecond floats: allow a nanosecond of rounding
        assert!(
            num(s, "ts") >= num(p, "ts") - 1e-3,
            "{s:?} starts before {p:?}"
        );
        assert!(
            num(s, "ts") + num(s, "dur") <= num(p, "ts") + num(p, "dur") + 1e-3,
            "{s:?} ends after {p:?}"
        );
        children += 1;
    }
    assert!(children > 50);
    let _ = std::fs::remove_dir_all(&dir);
}
