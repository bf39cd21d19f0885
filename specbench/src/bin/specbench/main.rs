//! `specbench` — measures `specc` end to end, and layer by layer.
//!
//! ```text
//! specbench (--all | --workload NAME...) --seed S [--seconds T]
//!           [--trace 0|1|FILE] [--out results.jsonl] [--quick]
//! specbench compare A.jsonl B.jsonl [--bench BENCHMARK.json]
//! ```
//!
//! Workloads: `mega-cold`, `serve-edits`, `kernels-sim`. Every metric is
//! printed by name with its unit; the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}` holding the
//! metrics `BENCHMARK.json` (in the current directory) declares —
//! `end_to_end` for untraced runs, `per_layer` for traced ones. `--trace 1`
//! writes the spans to `.specbench/trace-s<SEED>.json`, `--trace FILE` to
//! FILE; open either in Perfetto. `--out` appends one JSONL record per
//! workload run.

use specbench::json::{self, Json};
use specbench::trace::Recorder;
use specbench::{run, specc, traced, Outcome, RunCfg, Workload};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Cli {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<PathBuf>,
    out: Option<PathBuf>,
    quick: bool,
}

const USAGE: &str = "usage: specbench (--all | --workload NAME...) --seed S [--seconds T] \
                     [--trace 0|1|FILE] [--out FILE] [--quick]\n       \
                     specbench compare A.jsonl B.jsonl [--bench BENCHMARK.json]\n\
                     workloads: mega-cold, serve-edits, kernels-sim";

/// Scratch and artifact directory, relative to the working directory.
const STATE_DIR: &str = ".specbench";

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: 0,
        seconds: 30.0,
        trace: None,
        out: None,
        quick: false,
    };
    let mut seed = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--all" => cli.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                let v = val()?;
                cli.workloads
                    .push(Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(val()?.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                cli.seconds = val()?.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !cli.seconds.is_finite() || cli.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                cli.trace = match val()?.as_str() {
                    "0" => None,
                    // the default path needs the seed; resolved below
                    "1" => Some(PathBuf::new()),
                    f => Some(PathBuf::from(f)),
                }
            }
            "--out" => cli.out = Some(PathBuf::from(val()?)),
            "--quick" => cli.quick = true,
            "-h" | "--help" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if cli.workloads.is_empty() {
        return Err(format!(
            "no workload (use --all or --workload NAME)\n{USAGE}"
        ));
    }
    cli.seed = seed.ok_or(format!("--seed is required\n{USAGE}"))?;
    if cli.trace.as_ref().is_some_and(|p| p.as_os_str().is_empty()) {
        cli.trace = Some(Path::new(STATE_DIR).join(format!("trace-s{}.json", cli.seed)));
    }
    Ok(cli)
}

/// Removes the scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The commit the checkout is at, read from `.git` without running git;
/// "unknown" outside a repository.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(r)
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// Whether `dir` lives on a tmpfs mount (so cache I/O never reaches a
/// disk).
fn on_tmpfs(dir: &Path) -> bool {
    let Ok(dir) = dir.canonicalize() else {
        return false;
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return false;
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, at, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(at).then_some((at.len(), fs == "tmpfs"))
        })
        .max_by_key(|m| m.0)
        .is_some_and(|m| m.1)
}

/// Pins this process to the last CPU it may run on and returns that CPU.
/// Every `specc` it starts inherits the pin. Only one of the two runs at a
/// time, so the pin takes nothing from `specc`. It makes the host-speed
/// probe time the CPU the requests run on: on a shared host one virtual
/// CPU can run a third slower than the other for seconds at a time.
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is writable for the size passed; pid 0 is this process.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is readable for the size passed; pid 0 is this process.
    let r = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (r == 0).then_some(cpu)
}

/// `(name, {"value", "unit"[, "exact"]})` for each metric `only` admits.
fn metrics_json(o: &Outcome, only: Option<&[String]>, with_exact: bool) -> Vec<(String, Json)> {
    o.metrics
        .iter()
        .filter(|m| only.is_none_or(|names| names.contains(&m.name)))
        .map(|m| {
            let mut v = vec![
                ("value".to_string(), Json::Num(m.value)),
                ("unit".to_string(), Json::str(m.unit)),
            ];
            if with_exact {
                v.push(("exact".to_string(), Json::Bool(m.exact)));
            }
            (m.name.clone(), Json::Obj(v))
        })
        .collect()
}

/// Metric names `BENCHMARK.json` declares under `section`, when the file
/// is present.
fn declared(bench: Option<&Json>, section: &str) -> Option<Vec<String>> {
    let list = bench?.get(section)?.as_arr()?;
    Some(
        list.iter()
            .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_string))
            .collect(),
    )
}

fn print_outcome(wl: Workload, traced: bool, cli: &Cli, o: &Outcome) {
    println!(
        "== {} ({}) seed={} samples={} attempted={} failed={}",
        wl.name(),
        if traced { "traced" } else { "untraced" },
        cli.seed,
        o.samples,
        o.attempted,
        o.failed
    );
    for m in &o.metrics {
        println!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    print!("{}", o.text);
    for p in o.problems.iter().take(10) {
        println!("  FAILED: {p}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bench = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|t| json::parse(&t).ok());
    if args.first().map(String::as_str) == Some("compare") {
        return compare_main(&args[1..]);
    }
    let cli = match parse_cli(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("specbench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench_main(&cli, bench.as_ref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("specbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn compare_main(args: &[String]) -> ExitCode {
    let (files, bench_path) = match args {
        [a, b] => ([a, b], "BENCHMARK.json"),
        [a, b, flag, p] if flag == "--bench" => ([a, b], p.as_str()),
        _ => {
            eprintln!("specbench: {USAGE}");
            return ExitCode::from(2);
        }
    };
    let bench = std::fs::read_to_string(bench_path)
        .ok()
        .and_then(|t| json::parse(&t).ok());
    match specbench::compare::compare(files[0], files[1], bench.as_ref()) {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("specbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench_main(cli: &Cli, bench: Option<&Json>) -> Result<(), String> {
    let specc = specc::locate()?;
    let work = WorkDir(Path::new(STATE_DIR).join(format!("work-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("{}: {e}", work.0.display()))?;
    let cfg = RunCfg {
        seed: cli.seed,
        seconds: cli.seconds,
        quick: cli.quick,
        specc,
        work: work.0.clone(),
    };
    let traced_mode = cli.trace.is_some();
    let section = if traced_mode {
        "per_layer"
    } else {
        "end_to_end"
    };
    let only = declared(bench, section);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = pin_to_one_cpu();
    let tmpfs = on_tmpfs(&work.0);
    let rev = git_rev();
    let cpu_json = cpu.map_or(Json::Null, |c| Json::Num(c as f64));
    println!(
        "specbench seed={} seconds={} quick={} nproc={nproc} cpu={} tmpfs={tmpfs} rev={rev}",
        cli.seed,
        cli.seconds,
        cli.quick,
        cpu_json.render()
    );

    let mut events = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut last = Vec::new();
    for (k, &wl) in cli.workloads.iter().enumerate() {
        let o = if traced_mode {
            let (o, rec): (Outcome, Recorder) = traced::traced(wl, &cfg)?;
            events.extend(rec.chrome_events(k as u32 + 1, wl.name()));
            o
        } else {
            run::run(wl, &cfg)?
        };
        print_outcome(wl, traced_mode, cli, &o);
        if let Some(names) = &only {
            let missing: Vec<&String> = names.iter().filter(|n| o.get(n).is_none()).collect();
            if !missing.is_empty() {
                return Err(format!(
                    "{}: declared metrics not measured: {missing:?}",
                    wl.name()
                ));
            }
        }
        if let Some(path) = &cli.out {
            let mut rec = vec![
                ("workload".to_string(), Json::str(wl.name())),
                (
                    "mode".to_string(),
                    Json::str(if traced_mode { "traced" } else { "untraced" }),
                ),
                ("seed".to_string(), Json::Num(cli.seed as f64)),
                ("seconds".to_string(), Json::Num(cli.seconds)),
                ("quick".to_string(), Json::Bool(cli.quick)),
                ("samples".to_string(), Json::Num(o.samples as f64)),
                ("nproc".to_string(), Json::Num(nproc as f64)),
                ("cpu".to_string(), cpu_json.clone()),
                ("git_rev".to_string(), Json::str(rev.clone())),
                ("tmpfs".to_string(), Json::Bool(tmpfs)),
                ("correct".to_string(), Json::Bool(o.failed == 0)),
                ("attempted".to_string(), Json::Num(o.attempted as f64)),
                ("failed".to_string(), Json::Num(o.failed as f64)),
                (
                    "metrics".to_string(),
                    Json::Obj(metrics_json(&o, None, true)),
                ),
            ];
            rec.extend(o.detail.iter().cloned());
            rec.push((
                "problems".to_string(),
                Json::Arr(o.problems.iter().map(|p| Json::str(p.clone())).collect()),
            ));
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            writeln!(f, "{}", Json::Obj(rec).render())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        attempted += o.attempted;
        failed += o.failed;
        last.push((wl, o));
    }

    if let Some(path) = &cli.trace {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        }
        let doc = Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ]);
        std::fs::write(path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "trace written to {} (open it in https://ui.perfetto.dev)",
            path.display()
        );
    }

    // one workload: its metrics by name; several: `workload/name`
    let metrics = match last.as_slice() {
        [(_, o)] => metrics_json(o, only.as_deref(), false),
        many => many
            .iter()
            .flat_map(|(wl, o)| {
                metrics_json(o, only.as_deref(), false)
                    .into_iter()
                    .map(move |(k, v)| (format!("{}/{k}", wl.name()), v))
            })
            .collect(),
    };
    let result = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(())
}
