//! The untraced workload runs: every number here comes from the real
//! `specc` binary, driven as a subprocess by one closed-loop client.

use crate::inputs::{self, edit_plan, kernels, shuffled_units, Config, Kernel, MegaText, Unit};
use crate::json::Json;
use crate::probe::{Prober, NOMINAL_PROBE_MS};
use crate::specc::{flush_disk, one_shot, Service};
use crate::stats::{median, percentile};
use crate::{ratio, Outcome, RunCfg, Workload};
use specframe_machine::TargetId;
use specframe_workloads::megamod::mega_source;
use specframe_workloads::Scale;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up is repeated this many times per run and reported as a median.
pub const SETUPS: usize = 9;

/// Every n-th served request is re-checked against a one-shot compile.
const CHECK_EVERY: usize = 10;

/// Requests per serve workload in `--quick` mode.
const QUICK_REQUESTS: usize = 3;

/// Functions per mega-cold module. Smaller than serve-edits' module so a
/// timed phase collects well over the 100 samples a p90 needs.
pub fn mega_cold_funcs(quick: bool) -> usize {
    if quick {
        200
    } else {
        600
    }
}

/// Functions in the serve-edits module (1% of them are edited per
/// request).
pub fn serve_edits_funcs(quick: bool) -> usize {
    if quick {
        200
    } else {
        1000
    }
}

/// Generator seed of the warm-up module. The warm-up does not depend on
/// the run's seed, so set-up time and a fresh service's peak memory compare
/// across seeds; the seed drives the timed traffic.
const WARM_UP_SEED: u64 = u64::MAX;

/// The mega-cold module of request `i` (0 is the warm-up).
fn mega_cold_source(cfg: &RunCfg, i: u64) -> String {
    let seed = match i {
        0 => WARM_UP_SEED,
        i => cfg.seed.wrapping_mul(1000).wrapping_add(i),
    };
    mega_source(seed, mega_cold_funcs(cfg.quick))
}

pub fn kernel_scale(quick: bool) -> Scale {
    if quick {
        Scale::Test
    } else {
        Scale::Reference
    }
}

pub fn run(wl: Workload, cfg: &RunCfg) -> Result<Outcome, String> {
    let dir = cfg.work.join(wl.name());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    match wl {
        Workload::KernelsSim => kernels_sim(cfg, &dir),
        _ => serve_workload(cfg, &dir, wl.cached(), &mut traffic(wl, cfg)),
    }
}

/// A serve workload's module sources in send order: call 0 is the warm-up
/// (for serve-edits, the module the seeded edits start from), then one per
/// request. Sequential calls only: serve-edits' edits accumulate.
pub fn traffic(wl: Workload, cfg: &RunCfg) -> Box<dyn FnMut(u64) -> String + '_> {
    match wl {
        Workload::ServeEdits => {
            let mut text = MegaText::generate(WARM_UP_SEED, serve_edits_funcs(cfg.quick));
            Box::new(move |i| {
                if i > 0 {
                    let e = edit_plan(cfg.seed, i - 1, text.funcs(), text.globals());
                    text.apply(&e);
                }
                text.render()
            })
        }
        _ => Box::new(move |i| mega_cold_source(cfg, i)),
    }
}

/// Reads a `key=value` field from a `specc --serve` response line.
fn resp_field(resp: &str, key: &str) -> Option<u64> {
    resp.split_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

pub fn io_err(what: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{}: {e}", what.display())
}

/// Starts a fresh service (on `cache`, if given) and sends the warm-up
/// request; returns the service, the set-up time (spawn to warm-up
/// response) and the fresh service's peak memory in MB.
fn set_up(
    cfg: &RunCfg,
    dir: &Path,
    cache: Option<&Path>,
    warm: &Path,
) -> Result<(Service, f64, f64), String> {
    let t0 = Instant::now();
    let mut svc = Service::spawn(&cfg.specc, cache).map_err(|e| format!("spawn specc: {e}"))?;
    let out = dir.join("warm.out.ir");
    let (resp, _) = svc
        .request(&format!("compile {} -o {}", warm.display(), out.display()))
        .map_err(|e| format!("warm-up: {e}"))?;
    if !resp.starts_with("ok ") {
        return Err(format!("warm-up request failed: {resp}"));
    }
    let secs = t0.elapsed().as_secs_f64();
    let peak_mb = svc.peak_rss_kb().unwrap_or(0) as f64 / 1024.0;
    Ok((svc, secs, peak_mb))
}

/// mega-cold and serve-edits: one long-lived `specc --serve`, one request
/// in flight, each request a `compile PATH -o OUT`.
fn serve_workload(
    cfg: &RunCfg,
    dir: &Path,
    cached: bool,
    traffic: &mut dyn FnMut(u64) -> String,
) -> Result<Outcome, String> {
    let warm = dir.join("warm.ir");
    std::fs::write(&warm, traffic(0)).map_err(io_err(&warm))?;

    // a cached service is measured as a restart on a primed cache: the
    // prime writes a thousand entries, whose time on a disk-backed work
    // directory says more about the disk than about the service
    let cache = cached.then(|| dir.join("cache"));
    if let Some(c) = &cache {
        let (prime, _, _) = set_up(cfg, dir, Some(c), &warm)?;
        prime.quit().map_err(|e| format!("quit: {e}"))?;
        // the prime's entries go to disk now, not during the set-ups
        flush_disk(dir);
    }
    let mut prober = Prober::default();
    let mut setups = Vec::new();
    let mut setup_probes = Vec::new();
    let mut peak_mb = Vec::new();
    let mut svc = None;
    for _ in 0..SETUPS {
        if let Some(old) = svc.take() {
            Service::quit(old).map_err(|e| format!("quit: {e}"))?;
        }
        setup_probes.push(prober.probe());
        let (s, secs, mb) = set_up(cfg, dir, cache.as_deref(), &warm)?;
        setups.push(secs);
        peak_mb.push(mb);
        svc = Some(s);
    }
    setup_probes.push(prober.probe());
    let mut svc = svc.expect("at least one set-up");

    let mut out = Outcome::default();
    let mut lat_ms = Vec::new();
    let mut starts = Vec::new();
    let mut hits = Vec::new();
    let mut lookups = Vec::new();
    let mut kept: Vec<(PathBuf, PathBuf)> = Vec::new();
    // one input and one output file, rewritten in place: creating and
    // deleting two large files per request is disk churn the requests
    // would otherwise pay for
    let (inp, outp) = (dir.join("in.ir"), dir.join("out.ir"));
    let mut wrote_cache = cached;
    let start = Instant::now();
    let mut i = 0u64;
    loop {
        let more = if cfg.quick {
            lat_ms.len() < QUICK_REQUESTS
        } else {
            lat_ms.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds
        };
        if !more {
            break;
        }
        i += 1;
        std::fs::write(&inp, traffic(i)).map_err(io_err(&inp))?;
        // cache entries written by the previous request (or the prime) go
        // to disk now, not in the background during this one
        if wrote_cache {
            flush_disk(dir);
        }
        prober.tick();
        starts.push(prober.now());
        let (resp, d) = svc
            .request(&format!("compile {} -o {}", inp.display(), outp.display()))
            .map_err(|e| format!("request {i}: {e}"))?;
        lat_ms.push(d.as_secs_f64() * 1e3);
        out.attempted += 1;
        if resp.starts_with("ok ") {
            let field = |k| resp_field(&resp, k).unwrap_or(0);
            hits.push(field("hits"));
            lookups.push(field("hits") + field("misses") + field("stale"));
            wrote_cache = field("misses") + field("stale") > 0;
        } else {
            out.fail(format!("request {i}: {resp}"));
        }
        if (i as usize - 1).is_multiple_of(CHECK_EVERY) && resp.starts_with("ok ") {
            let keep = (
                dir.join(format!("in{i}.ir")),
                dir.join(format!("out{i}.ir")),
            );
            std::fs::rename(&inp, &keep.0).map_err(io_err(&inp))?;
            std::fs::rename(&outp, &keep.1).map_err(io_err(&outp))?;
            kept.push(keep);
        }
    }
    svc.quit().map_err(|e| format!("quit: {e}"))?;

    // outside the timed window: a served output must equal an uncached
    // one-shot compile of the same input, byte for byte
    for (inp, served) in &kept {
        let reference = inp.with_extension("ref.ir");
        let args: Vec<String> = [
            &inp.display().to_string(),
            // mega modules have no `main`; `f0(0, 0)` is a trivial
            // reference run every generated module supports
            "--entry",
            "f0",
            "--args",
            "0,0",
            "--spec",
            "heuristic",
            "--control",
            "static",
            "--jobs",
            "1",
            "-o",
            &reference.display().to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let r = one_shot(&cfg.specc, &args).map_err(|e| format!("one-shot check: {e}"))?;
        let same =
            r.code == Some(0) && std::fs::read(&reference).ok() == std::fs::read(served).ok();
        if !same {
            out.fail(format!(
                "{}: served output differs from one-shot compile (exit {:?}) {}",
                inp.display(),
                r.code,
                r.stderr.trim()
            ));
        }
    }

    // hit ratio over whole 4-request edit cycles, so it does not depend on
    // where the timed phase happened to stop
    let whole = hits.len() - hits.len() % 4;
    let (h, p) = if whole > 0 {
        (
            hits[..whole].iter().sum::<u64>(),
            lookups[..whole].iter().sum::<u64>(),
        )
    } else {
        (hits.iter().sum(), lookups.iter().sum())
    };
    let setup = (setups.as_slice(), setup_probes.as_slice());
    push_latency(&mut out, setup, &peak_mb, &lat_ms, &starts, &prober);
    if cached {
        out.push_exact("cache_hit_ratio", ratio(h as f64, p as f64), "hits/probes");
    }
    out.detail
        .push(("checked_requests".into(), Json::Num(kept.len() as f64)));
    Ok(out)
}

/// The metrics every workload reports: set-up time (median over the
/// set-ups), the median peak memory of a fresh `specc` serving one request,
/// the median and p90 request time and the closed-loop throughput
/// (requests over the summed request time — the client's think time is
/// excluded). Each timing is also reported relative to the host-speed
/// probe: every request is divided by the probes around its start time.
/// `setup` holds the set-up times in seconds and the probes taken before
/// each set-up and after the last. `setup_s` is the median set-up time on
/// a host whose probe takes [`NOMINAL_PROBE_MS`]. Its normalizer is the
/// median of those ten probes, because single probes vary by 15% and a
/// set-up has only two or three within reach. `setup_raw_s` is the wall
/// time as measured.
fn push_latency(
    out: &mut Outcome,
    setup: (&[f64], &[f64]),
    peak_mb: &[f64],
    lat_ms: &[f64],
    starts: &[f64],
    prober: &Prober,
) {
    out.samples = lat_ms.len();
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    out.detail.push(("req_ms".into(), nums(lat_ms)));
    out.detail.push(("req_start_s".into(), nums(starts)));
    out.detail.push((
        "probes".into(),
        Json::Arr(
            prober
                .samples()
                .iter()
                .map(|&(t, ms)| nums(&[t, ms]))
                .collect(),
        ),
    ));
    let rel: Vec<f64> = lat_ms
        .iter()
        .zip(starts)
        .map(|(&ms, &t)| ratio(ms, prober.around(t)))
        .collect();
    let per_s = |v: &[f64], unit: f64| ratio(v.len() as f64, v.iter().sum::<f64>() / unit);
    let (setup_secs, setup_probes) = setup;
    out.detail.push(("setups_s".into(), nums(setup_secs)));
    out.push(
        "setup_s",
        NOMINAL_PROBE_MS * ratio(median(setup_secs), median(setup_probes)),
        "s",
    );
    out.push("setup_raw_s", median(setup_secs), "s");
    out.push("req_ms_p50", median(lat_ms), "ms");
    out.push("req_ms_p90", percentile(lat_ms, 90.0), "ms");
    out.push("throughput_rps", per_s(lat_ms, 1e3), "req/s");
    out.push("probe_ms", prober.median_ms(), "ms");
    out.push("req_p50_rel", median(&rel), "x_probe");
    out.push("req_p90_rel", percentile(&rel, 90.0), "x_probe");
    out.push("throughput_rel", per_s(&rel, 1.0), "req/probe");
    out.push("peak_rss_mb", median(peak_mb), "MB");
    out.push_exact(
        "fail_ratio",
        ratio(out.failed as f64, out.attempted as f64),
        "failed/attempted",
    );
}

/// `specc` counters of one simulated unit, read from its `--sim` block.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SimCounters {
    pub result: String,
    pub cycles: u64,
    pub loads_retired: u64,
    pub check_loads: u64,
    pub failed_checks: u64,
    pub alat_inserts: u64,
}

impl SimCounters {
    /// Parses the `name = value` counter block `specc --sim` prints.
    pub fn parse(stderr: &str) -> Option<SimCounters> {
        let mut c = SimCounters::default();
        let mut seen = 0;
        for line in stderr.lines() {
            let Some((k, v)) = line.split_once('=') else {
                continue;
            };
            let (k, v) = (k.trim(), v.trim());
            let num = || v.parse::<u64>().ok();
            match k {
                "result" => c.result = v.to_string(),
                "cycles" => c.cycles = num()?,
                "loads retired" => c.loads_retired = num()?,
                "check loads" => c.check_loads = num()?,
                "failed checks" => c.failed_checks = num()?,
                "alat inserts" => c.alat_inserts = num()?,
                _ => continue,
            }
            seen += 1;
        }
        (seen == 6).then_some(c)
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cycles", Json::Num(self.cycles as f64)),
            ("loads_retired", Json::Num(self.loads_retired as f64)),
            ("check_loads", Json::Num(self.check_loads as f64)),
            ("failed_checks", Json::Num(self.failed_checks as f64)),
            ("alat_inserts", Json::Num(self.alat_inserts as f64)),
        ])
    }
}

/// The one-shot `specc` arguments of a kernels-sim unit.
pub fn unit_args(k: &Kernel, path: &Path, u: Unit) -> Vec<String> {
    let w = &k.w;
    [
        path.display().to_string(),
        "--entry".into(),
        w.entry.into(),
        "--spec".into(),
        u.config.spec().into(),
        "--control".into(),
        "profile".into(),
        "--store-sinking".into(),
        "--args".into(),
        inputs::args_flag(&w.ref_args),
        "--train-args".into(),
        inputs::args_flag(&w.train_args),
        "--sim".into(),
        "--jobs".into(),
        "1".into(),
        "--target".into(),
        u.target.name().into(),
        "--fuel".into(),
        w.fuel.to_string(),
    ]
    .to_vec()
}

/// Writes each kernel's source for `specc` to read.
pub fn write_kernels(dir: &Path, ks: &[Kernel]) -> Result<Vec<PathBuf>, String> {
    ks.iter()
        .map(|k| {
            let p = dir.join(format!("{}.ir", k.w.name));
            std::fs::write(&p, &k.source).map_err(io_err(&p))?;
            Ok(p)
        })
        .collect()
}

/// `kernel target config` of a unit, for messages.
pub fn unit_label(k: &Kernel, u: Unit) -> String {
    format!("{} {} {}", k.w.name, u.target.name(), u.config.name())
}

/// Runs one unit through `specc`. Returns its wall time in ms, its peak
/// memory in kB, and its counters if it exited 0 and printed them; the
/// caller checks the `result` against the reference interpreter.
pub fn run_unit(
    cfg: &RunCfg,
    k: &Kernel,
    path: &Path,
    u: Unit,
) -> Result<(f64, u64, Result<SimCounters, String>), String> {
    let r =
        one_shot(&cfg.specc, &unit_args(k, path, u)).map_err(|e| format!("spawn specc: {e}"))?;
    let counters = match (r.code, SimCounters::parse(&r.stderr)) {
        (Some(0), Some(c)) => Ok(c),
        (code, _) => Err(format!(
            "{}: exit {code:?}: {}",
            unit_label(k, u),
            r.stderr.trim()
        )),
    };
    Ok((r.wall.as_secs_f64() * 1e3, r.maxrss_kb, counters))
}

/// kernels-sim: whole passes over the 32-unit matrix in seed-shuffled
/// order, one one-shot `specc` per unit.
fn kernels_sim(cfg: &RunCfg, dir: &Path) -> Result<Outcome, String> {
    let ks = kernels(kernel_scale(cfg.quick));
    let paths = write_kernels(dir, &ks)?;

    // set-up: the same fixed unit each time, so it does not move with the
    // seed
    let warm = inputs::units(ks.len())[0];
    let mut prober = Prober::default();
    let mut setups = Vec::new();
    let mut setup_probes = Vec::new();
    let mut warm_result = String::new();
    for _ in 0..SETUPS {
        setup_probes.push(prober.probe());
        let (ms, _, counters) = run_unit(cfg, &ks[warm.kernel], &paths[warm.kernel], warm)?;
        warm_result = counters
            .map_err(|e| format!("warm-up unit failed: {e}"))?
            .result;
        setups.push(ms / 1e3);
    }
    setup_probes.push(prober.probe());

    let mut out = Outcome::default();
    let mut lat_ms = Vec::new();
    let mut peak_mb = Vec::new();
    let mut starts = Vec::new();
    let mut first: BTreeMap<(usize, &'static str, &'static str), SimCounters> = BTreeMap::new();
    let mut runs: BTreeMap<(usize, &'static str, &'static str), u64> = BTreeMap::new();
    let start = Instant::now();
    let mut pass = 0u64;
    let mut last_pass_s = 0.0;
    loop {
        let t = start.elapsed().as_secs_f64();
        let more = pass == 0 || (!cfg.quick && t + last_pass_s <= cfg.seconds);
        if !more {
            break;
        }
        let t0 = Instant::now();
        for u in shuffled_units(cfg.seed, pass, ks.len()) {
            prober.tick();
            starts.push(prober.now());
            let (ms, kb, counters) = run_unit(cfg, &ks[u.kernel], &paths[u.kernel], u)?;
            lat_ms.push(ms);
            peak_mb.push(kb as f64 / 1024.0);
            out.attempted += 1;
            let key = (u.kernel, u.target.name(), u.config.name());
            match counters {
                Err(e) => out.fail(e),
                Ok(c) => match first.get(&key) {
                    Some(c0) if *c0 != c => out.fail(format!(
                        "{}: counters changed between passes",
                        unit_label(&ks[u.kernel], u)
                    )),
                    seen => {
                        if seen.is_none() {
                            first.insert(key, c);
                        }
                        *runs.entry(key).or_default() += 1;
                    }
                },
            }
        }
        last_pass_s = t0.elapsed().as_secs_f64();
        pass += 1;
    }

    // outside the timed window: every result must equal the reference
    // interpreter's; each run of a unit that printed another one failed
    // (runs already failed for changed counters are not counted again)
    let want: Vec<String> = ks.iter().map(Kernel::reference_result).collect();
    if warm_result != want[warm.kernel] {
        return Err(format!(
            "warm-up unit: result {warm_result} != reference {}",
            want[warm.kernel]
        ));
    }
    for (key, c) in &first {
        if c.result != want[key.0] {
            out.failed += runs[key];
            out.problems.push(format!(
                "{} {} {}: result {} != reference {}",
                ks[key.0].w.name, key.1, key.2, c.result, want[key.0]
            ));
        }
    }

    let setup = (setups.as_slice(), setup_probes.as_slice());
    push_latency(&mut out, setup, &peak_mb, &lat_ms, &starts, &prober);
    out.detail.push(("passes".into(), Json::Num(pass as f64)));
    if first.len() == inputs::units(ks.len()).len() {
        push_fig10(&mut out, &ks, &first);
    }
    Ok(out)
}

/// The Fig 10–11 quantities, paper config vs O3 baseline on epic, summed
/// over kernels, plus per-target cycle totals of the paper config.
fn push_fig10(
    out: &mut Outcome,
    ks: &[Kernel],
    c: &BTreeMap<(usize, &'static str, &'static str), SimCounters>,
) {
    let sum = |t: TargetId, cf: Config, f: fn(&SimCounters) -> u64| -> f64 {
        (0..ks.len())
            .map(|k| f(&c[&(k, t.name(), cf.name())]) as f64)
            .sum()
    };
    let (epic, paper, base) = (TargetId::Epic, Config::Paper, Config::Baseline);
    let cycles = |s: &SimCounters| s.cycles;
    let loads = |s: &SimCounters| s.loads_retired;
    out.push_exact("sim_cycles_epic", sum(epic, paper, cycles), "cycles");
    out.push_exact(
        "sim_cycles_swr",
        sum(TargetId::Swr, paper, cycles),
        "cycles",
    );
    out.push_exact("loads_retired", sum(epic, paper, loads), "count");
    out.push_exact(
        "misspec_pct",
        100.0
            * ratio(
                sum(epic, paper, |s| s.failed_checks),
                sum(epic, paper, |s| s.check_loads),
            ),
        "%",
    );
    let (bl, pl) = (sum(epic, base, loads), sum(epic, paper, loads));
    out.push_exact("load_reduction_pct", 100.0 * ratio(bl - pl, bl), "%");
    out.push_exact(
        "speedup_pct",
        100.0 * (ratio(sum(epic, base, cycles), sum(epic, paper, cycles)) - 1.0),
        "%",
    );

    let mut per_kernel = Vec::new();
    for (k, kern) in ks.iter().enumerate() {
        let mut targets = Vec::new();
        for t in TargetId::ALL {
            let cfgs = Config::ALL
                .iter()
                .map(|cf| (cf.name(), c[&(k, t.name(), cf.name())].to_json()));
            targets.push((t.name(), Json::obj(cfgs)));
        }
        per_kernel.push((kern.w.name, Json::obj(targets)));
    }
    out.detail.push(("kernels".into(), Json::obj(per_kernel)));
}
