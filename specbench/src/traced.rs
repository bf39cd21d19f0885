//! The traced run: the same traffic replayed three times —
//!
//! 1. through the real `specc` (untraced, the reference for the outputs
//!    and for the serve/IPC residual);
//! 2. in-process with the recorder off;
//! 3. in-process with the recorder on, one span per layer call —
//!
//! so the per-layer numbers, the tracing overhead (3 vs 2) and the cost
//! outside the layers (1 vs 3) all come from one run. The in-process
//! replay calls each layer's public entry point in the order `specc`
//! does, and its output must equal the real binary's byte for byte.

use crate::inputs::{kernels, shuffled_units, Config, Kernel, Unit};
use crate::run::{io_err, kernel_scale, run_unit, traffic, unit_label, write_kernels, SimCounters};
use crate::specc::Service;
use crate::stats::median;
use crate::trace::{LayerTable, Recorder, Span};
use crate::{ratio, Outcome, RunCfg, Workload};
use specframe_alias::AliasAnalysis;
use specframe_codegen::lower_module_for;
use specframe_core::cache::{
    decode_entry, encode_entry, FileStore, KeyContext, Probe, Storage, DEFAULT_RETRY_BUDGET,
};
use specframe_core::{
    prepare_module, try_optimize_cached, CacheHealth, CacheOutcome, CacheStats, ControlSpec,
    FuncCache, OptOptions, OptReport, OptStats, PassTimings, PipelineConfig, PipelineHooks,
    SpecSource,
};
use specframe_ir::{display::print_module, parse_module, verify_module};
use specframe_machine::{run_machine_on, TargetId};
use specframe_profile::{
    observer::Compose, run as interpret, run_with, AliasProfiler, EdgeProfiler,
};
use specframe_workloads::inst_count;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests replayed per serve workload (the first ones of the untraced
/// run's traffic).
const TRACED_REQUESTS: u64 = 30;

/// Span names of every layer call the replay records, so each workload
/// reports the same metric set (0 where it never calls a layer).
const LAYERS: [&str; 24] = [
    "request",
    "io.read",
    "ir.parse",
    "ir.verify",
    "analysis.prepare",
    "profile.ref_run",
    "profile.train",
    "core.optimize",
    "alias.analyze",
    "core.cache",
    "core.pass.analyses",
    "core.pass.refine",
    "core.pass.hssa_build",
    "core.pass.ssapre",
    "core.pass.strength",
    "core.pass.lftr",
    "core.pass.storeprom",
    "core.pass.verify",
    "core.pass.lower",
    "core.pass.module_verify",
    "ir.print",
    "io.write",
    "codegen.lower",
    "machine.sim",
];

/// Layer groups for the share-of-request metrics.
const SHARES: [(&str, &[&str]); 9] = [
    ("ir", &["ir.parse", "ir.verify", "ir.print"]),
    ("analysis", &["analysis.prepare", "core.pass.analyses"]),
    ("alias", &["alias.analyze"]),
    (
        "core",
        &[
            "core.optimize",
            "core.pass.refine",
            "core.pass.hssa_build",
            "core.pass.ssapre",
            "core.pass.strength",
            "core.pass.lftr",
            "core.pass.storeprom",
            "core.pass.verify",
            "core.pass.lower",
            "core.pass.module_verify",
        ],
    ),
    ("cache", &["core.cache"]),
    ("profile", &["profile.ref_run", "profile.train"]),
    ("codegen", &["codegen.lower"]),
    ("machine", &["machine.sim"]),
    ("io", &["request", "io.read", "io.write"]),
];

/// The optimizer's own per-pass accounting as child spans of
/// `core.optimize`.
fn optimizer_parts(t: &PassTimings) -> Vec<(&'static str, Duration)> {
    t.rows()
        .into_iter()
        .map(|(row, d)| {
            let name = match row {
                "alias" => "alias.analyze",
                "cache" => "core.cache",
                "analyses" => "core.pass.analyses",
                "refine" => "core.pass.refine",
                "hssa-build" => "core.pass.hssa_build",
                "ssapre" => "core.pass.ssapre",
                "strength" => "core.pass.strength",
                "lftr" => "core.pass.lftr",
                "storeprom" => "core.pass.storeprom",
                "verify" => "core.pass.verify",
                "verify-each" => "core.pass.verify_each",
                "audit" => "core.pass.audit",
                "audit-leaks" => "core.pass.audit_leaks",
                "lower" => "core.pass.lower",
                "module-verify" => "core.pass.module_verify",
                other => other,
            };
            (name, d)
        })
        .collect()
}

/// Counts summed over the recorded replay.
#[derive(Default)]
struct Acc {
    in_insts: u64,
    out_insts: u64,
    stats: OptStats,
    cache: CacheStats,
    dom_computes: u64,
    ref_steps: u64,
    train_steps: u64,
    minsts: u64,
    insts: u64,
    cycles: u64,
    check_loads: u64,
    failed_checks: u64,
    alat_inserts: u64,
    alat_store_invalidations: u64,
    /// Cache cost breakdown: (total time, operations) per step.
    key: (Duration, u64),
    probe: (Duration, u64),
    decode: (Duration, u64),
    write: (Duration, u64),
}

impl Acc {
    fn absorb(&mut self, r: &OptReport) {
        self.stats.absorb(&r.stats);
        self.cache.absorb(&r.cache);
        self.dom_computes += r.timings.dom_computes;
    }
}

pub fn traced(wl: Workload, cfg: &RunCfg) -> Result<(Outcome, Recorder), String> {
    let dir = cfg.work.join(format!("{}-traced", wl.name()));
    std::fs::create_dir_all(&dir).map_err(io_err(&dir))?;
    match wl {
        Workload::KernelsSim => kernels_traced(cfg, &dir),
        _ => serve_traced(wl, cfg, &dir),
    }
}

/// The compile configuration `specc --serve --spec heuristic --control
/// static` runs every request under.
fn serve_opts() -> OptOptions<'static> {
    OptOptions {
        data: SpecSource::Heuristic,
        control: ControlSpec::Static,
        strength_reduction: true,
        lftr: true,
        store_sinking: false,
        target: TargetId::Epic,
    }
}

/// One `compile IN -o OUT` request, in-process: what the service does
/// between reading the request line and writing the response.
fn serve_one(
    rec: &mut Recorder,
    inp: &Path,
    outp: &Path,
    cache: Option<&Path>,
    health: &Arc<CacheHealth>,
    acc: &mut Acc,
) -> Result<OptReport, String> {
    rec.span("request", |rec| {
        let src = rec
            .span("io.read", |_| std::fs::read_to_string(inp))
            .map_err(io_err(inp))?;
        let mut m = rec
            .span("ir.parse", |_| parse_module(&src))
            .map_err(|e| e.to_string())?;
        acc.in_insts += inst_count(&m) as u64;
        rec.span("ir.verify", |_| verify_module(&m))
            .map_err(|e| e.to_string())?;
        rec.span("analysis.prepare", |_| prepare_module(&mut m));
        let fc = cache.map(|dir| {
            FuncCache::open(dir)
                .with_retry_budget(DEFAULT_RETRY_BUDGET)
                .with_health(Arc::clone(health))
        });
        let (report, _) = rec
            .span("core.optimize", |_| {
                try_optimize_cached(
                    &mut m,
                    &serve_opts(),
                    &PipelineConfig { jobs: 1 },
                    &PipelineHooks::default(),
                    fc.as_ref(),
                )
            })
            .map_err(|e| e.to_string())?;
        rec.attach_children("core.optimize", &optimizer_parts(&report.timings));
        let text = rec.span("ir.print", |_| print_module(&m));
        acc.out_insts += inst_count(&m) as u64;
        rec.span("io.write", |_| std::fs::write(outp, text))
            .map_err(io_err(outp))?;
        acc.absorb(&report);
        Ok(report)
    })
}

/// Runs `f` in a span and also returns its duration.
fn timed<T>(rec: &mut Recorder, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    rec.span(name, |_| {
        let t0 = Instant::now();
        let v = f();
        (v, t0.elapsed())
    })
}

/// Times the cache's steps one by one, outside the request: key
/// derivation for every function, a probe and a decode of every entry
/// (all present after the request's write-back), and encode + store of
/// the request's misses into a scratch store.
fn cache_breakdown(
    rec: &mut Recorder,
    inp: &Path,
    cache: &Path,
    report: &OptReport,
    acc: &mut Acc,
) -> Result<(), String> {
    let src = std::fs::read_to_string(inp).map_err(io_err(inp))?;
    let mut m = parse_module(&src).map_err(|e| e.to_string())?;
    prepare_module(&mut m);
    let aa = AliasAnalysis::analyze(&m);
    let opts = serve_opts();
    let hooks = PipelineHooks::default();
    let n = m.funcs.len();
    let scratch = cache.with_extension("scratch");
    let r = rec.span("cache.breakdown", |rec| -> Result<(), String> {
        let (keys, d) = timed(rec, "cache.key", || {
            let ctx = KeyContext::new(&m, &aa, &opts, &hooks);
            (0..n).map(|fi| ctx.function_key(fi)).collect::<Vec<_>>()
        });
        acc.key.0 += d;
        acc.key.1 += n as u64;

        let fc = FuncCache::open(cache);
        let (hits, d) = timed(rec, "cache.probe", || {
            keys.iter()
                .filter(|k| matches!(fc.probe(k), Probe::Hit(_)))
                .count()
        });
        acc.probe.0 += d;
        acc.probe.1 += hits as u64;

        let store = FileStore::new(cache);
        let bytes: Vec<Vec<u8>> = keys
            .iter()
            .map(|k| store.load(k).ok().flatten().unwrap_or_default())
            .collect();
        let (entries, d) = timed(rec, "cache.decode", || {
            bytes
                .iter()
                .map(|b| decode_entry(b).ok())
                .collect::<Vec<_>>()
        });
        acc.decode.0 += d;
        acc.decode.1 += entries.iter().flatten().count() as u64;

        let misses: Vec<usize> = (0..n)
            .filter(|&fi| report.cache_outcomes.get(fi) != Some(&CacheOutcome::Hit))
            .collect();
        let out = FileStore::new(&scratch);
        let (written, d) = timed(rec, "cache.write", || -> std::io::Result<u64> {
            let mut w = 0;
            for &fi in &misses {
                if let Some(cf) = &entries[fi] {
                    let b = encode_entry(&cf.func, cf.fresh_sites, &cf.stats, &cf.dumps);
                    out.store(&keys[fi], &b)?;
                    w += 1;
                }
            }
            Ok(w)
        });
        acc.write.0 += d;
        acc.write.1 += written.map_err(|e| format!("scratch store: {e}"))?;
        Ok(())
    });
    let _ = std::fs::remove_dir_all(&scratch);
    r
}

/// mega-cold / serve-edits: the first [`TRACED_REQUESTS`] requests of the
/// untraced traffic, through the service and twice in-process.
fn serve_traced(wl: Workload, cfg: &RunCfg, dir: &Path) -> Result<(Outcome, Recorder), String> {
    let n = if cfg.quick { 3 } else { TRACED_REQUESTS };
    let mut next = traffic(wl, cfg);
    let mut inputs: Vec<PathBuf> = Vec::new();
    for i in 0..=n {
        let p = dir.join(format!("in{i}.ir"));
        std::fs::write(&p, next(i)).map_err(io_err(&p))?;
        inputs.push(p);
    }
    let served = |i: u64| dir.join(format!("served{i}.ir"));
    let mut out = Outcome::default();

    // 1. the real service
    let cache = wl.cached().then(|| dir.join("cache-served"));
    let mut svc =
        Service::spawn(&cfg.specc, cache.as_deref()).map_err(|e| format!("spawn specc: {e}"))?;
    let mut lat_served = Vec::new();
    for i in 0..=n {
        let (resp, d) = svc
            .request(&format!(
                "compile {} -o {}",
                inputs[i as usize].display(),
                served(i).display()
            ))
            .map_err(|e| format!("request {i}: {e}"))?;
        if i == 0 {
            if !resp.starts_with("ok ") {
                return Err(format!("warm-up request failed: {resp}"));
            }
            continue;
        }
        out.attempted += 1;
        lat_served.push(d.as_secs_f64() * 1e3);
        if !resp.starts_with("ok ") {
            out.fail(format!("served request {i}: {resp}"));
        }
    }
    svc.quit().map_err(|e| format!("quit: {e}"))?;

    // 2 and 3. in-process with the recorder off and on, interleaved
    // request by request so drift in the machine's speed hits both alike;
    // each session warms up its own cache, as the service did
    let mut sessions = Session::pair();
    for s in &mut sessions {
        s.cache = wl
            .cached()
            .then(|| dir.join(format!("cache-{}", s.rec.is_on())));
        let warm_out = dir.join("inproc0.ir");
        let mut quiet = Recorder::new(false);
        let cache = s.cache.as_deref();
        serve_one(
            &mut quiet,
            &inputs[0],
            &warm_out,
            cache,
            &s.health,
            &mut Acc::default(),
        )?;
    }
    for i in 1..=n {
        let inp = &inputs[i as usize];
        for s in &mut sessions {
            let outp = dir.join(format!("inproc{i}.ir"));
            let cache = s.cache.as_deref();
            s.rec.set_req(i as u32);
            let t0 = Instant::now();
            let res = serve_one(&mut s.rec, inp, &outp, cache, &s.health, &mut s.acc);
            s.lat.push(t0.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            let report = match res {
                Err(e) => {
                    out.fail(format!("in-process request {i}: {e}"));
                    continue;
                }
                Ok(r) => r,
            };
            if std::fs::read(&outp).ok() != std::fs::read(served(i)).ok() {
                out.fail(format!(
                    "in-process request {i}: output differs from specc's"
                ));
            }
            let c = report.cache;
            if c.probes() > 0 && c.hits * 10 >= c.probes() * 9 {
                s.hit_reqs.push(i as u32);
            }
            if let (true, Some(cache)) = (s.rec.is_on(), cache) {
                cache_breakdown(&mut s.rec, inp, cache, &report, &mut s.acc)?;
            }
        }
    }
    Ok(Session::finish(sessions, out, &lat_served))
}

/// One in-process replay: its recorder, its counts, its latencies, and
/// (for the serve workloads) its cache.
struct Session {
    rec: Recorder,
    acc: Acc,
    lat: Vec<f64>,
    cache: Option<PathBuf>,
    health: Arc<CacheHealth>,
    /// Requests served ≥ 90% from the cache.
    hit_reqs: Vec<u32>,
}

impl Session {
    /// The recorder-off and recorder-on replays.
    fn pair() -> [Session; 2] {
        [false, true].map(|on| Session {
            rec: Recorder::new(on),
            acc: Acc::default(),
            lat: Vec::new(),
            cache: None,
            health: Arc::new(CacheHealth::default()),
            hit_reqs: Vec::new(),
        })
    }

    fn finish(pair: [Session; 2], mut out: Outcome, lat_served: &[f64]) -> (Outcome, Recorder) {
        let [off, on] = pair;
        out.samples = on.lat.len();
        layer_metrics(&mut out, &on.rec, &on.acc, lat_served, &off.lat, &on.lat);
        // a workload mixing cache hits with full recompiles also gets the
        // hit regime's own table: medians over a bimodal mix do not add up
        if !on.hit_reqs.is_empty() && on.hit_reqs.len() < on.lat.len() {
            let t = LayerTable::build(on.rec.spans(), "request", |r| on.hit_reqs.contains(&r));
            out.text.push_str(&t.render("hit regime (>=90% hits)"));
        }
        (out, on.rec)
    }
}

/// One kernels-sim unit in-process, in `specc KERNEL --sim` order:
/// parse, verify, prepare, reference run, training run, optimize, lower,
/// simulate; the result must equal `want`, the reference interpreter's.
fn kernel_one(
    rec: &mut Recorder,
    k: &Kernel,
    want: &str,
    path: &Path,
    u: Unit,
    acc: &mut Acc,
) -> Result<SimCounters, String> {
    let w = &k.w;
    let label = unit_label(k, u);
    rec.span("request", |rec| {
        let src = rec
            .span("io.read", |_| std::fs::read_to_string(path))
            .map_err(io_err(path))?;
        let mut m = rec
            .span("ir.parse", |_| parse_module(&src))
            .map_err(|e| e.to_string())?;
        acc.in_insts += inst_count(&m) as u64;
        rec.span("ir.verify", |_| verify_module(&m))
            .map_err(|e| e.to_string())?;
        rec.span("analysis.prepare", |_| prepare_module(&mut m));
        let (expect, rs) = rec
            .span("profile.ref_run", |_| {
                interpret(&m, w.entry, &w.ref_args, w.fuel)
            })
            .map_err(|e| format!("{label}: reference run: {e}"))?;
        acc.ref_steps += rs.steps;
        // the compile session prepares again (a no-op on prepared input)
        rec.span("analysis.prepare", |_| prepare_module(&mut m));
        let (aprof, eprof) = rec
            .span("profile.train", |_| {
                let mut ap = AliasProfiler::new();
                let mut ep = EdgeProfiler::new();
                let r = run_with(
                    &m,
                    w.entry,
                    &w.train_args,
                    w.fuel,
                    &mut Compose(vec![&mut ap, &mut ep]),
                );
                r.map(|(_, s)| {
                    acc.train_steps += s.steps;
                    (ap.finish(), ep.finish())
                })
            })
            .map_err(|e| format!("{label}: training run: {e}"))?;
        let opts = OptOptions {
            data: match u.config {
                Config::Baseline => SpecSource::None,
                Config::Paper => SpecSource::Profile(&aprof),
            },
            control: ControlSpec::Profile(&eprof),
            strength_reduction: true,
            lftr: true,
            store_sinking: true,
            target: u.target,
        };
        let (report, _) = rec
            .span("core.optimize", |_| {
                try_optimize_cached(
                    &mut m,
                    &opts,
                    &PipelineConfig { jobs: 1 },
                    &PipelineHooks::default(),
                    None,
                )
            })
            .map_err(|e| format!("{label}: {e}"))?;
        rec.attach_children("core.optimize", &optimizer_parts(&report.timings));
        acc.absorb(&report);
        acc.out_insts += inst_count(&m) as u64;
        let prog = rec.span("codegen.lower", |_| lower_module_for(&m, u.target.spec()));
        acc.minsts += prog.funcs.iter().map(|f| f.code.len() as u64).sum::<u64>();
        let (got, c) = rec
            .span("machine.sim", |_| {
                run_machine_on(&prog, u.target.spec(), w.entry, &w.ref_args, w.fuel)
            })
            .map_err(|e| format!("{label}: simulation: {e}"))?;
        if got != expect || format!("{got:?}") != want {
            return Err(format!(
                "{label}: simulated result {got:?} != reference {want}"
            ));
        }
        acc.insts += c.insts;
        acc.cycles += c.cycles;
        acc.check_loads += c.check_loads;
        acc.failed_checks += c.failed_checks;
        acc.alat_inserts += c.alat_inserts;
        acc.alat_store_invalidations += c.alat_store_invalidations;
        Ok(SimCounters {
            result: format!("{got:?}"),
            cycles: c.cycles,
            loads_retired: c.loads_retired,
            check_loads: c.check_loads,
            failed_checks: c.failed_checks,
            alat_inserts: c.alat_inserts,
        })
    })
}

/// kernels-sim: the first pass of the untraced run's unit order, through
/// `specc` and twice in-process; the in-process counters must equal the
/// binary's.
fn kernels_traced(cfg: &RunCfg, dir: &Path) -> Result<(Outcome, Recorder), String> {
    let ks = kernels(kernel_scale(cfg.quick));
    let paths = write_kernels(dir, &ks)?;
    let order = shuffled_units(cfg.seed, 0, ks.len());
    let warm = crate::inputs::units(ks.len())[0];
    let want: Vec<String> = ks.iter().map(Kernel::reference_result).collect();
    let mut out = Outcome::default();

    let (_, _, w) = run_unit(cfg, &ks[warm.kernel], &paths[warm.kernel], warm)?;
    w.map_err(|e| format!("warm-up unit failed: {e}"))?;
    let mut lat_served = Vec::new();
    let mut served = Vec::new();
    for &u in &order {
        let (ms, _, c) = run_unit(cfg, &ks[u.kernel], &paths[u.kernel], u)?;
        lat_served.push(ms);
        out.attempted += 1;
        match &c {
            Err(e) => out.fail(e.clone()),
            Ok(c) if c.result != want[u.kernel] => out.fail(format!(
                "{}: result {} != reference {}",
                unit_label(&ks[u.kernel], u),
                c.result,
                want[u.kernel]
            )),
            Ok(_) => {}
        }
        served.push(c.ok());
    }

    let mut sessions = Session::pair();
    let mut quiet = Recorder::new(false);
    let k = warm.kernel;
    kernel_one(
        &mut quiet,
        &ks[k],
        &want[k],
        &paths[k],
        warm,
        &mut Acc::default(),
    )?;
    for (i, &u) in order.iter().enumerate() {
        let k = u.kernel;
        for s in &mut sessions {
            s.rec.set_req(i as u32 + 1);
            let t0 = Instant::now();
            let res = kernel_one(&mut s.rec, &ks[k], &want[k], &paths[k], u, &mut s.acc);
            s.lat.push(t0.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            match res {
                Err(e) => out.fail(e),
                Ok(c) if served[i].as_ref().is_some_and(|s| *s != c) => out.fail(format!(
                    "{}: in-process counters differ from specc's",
                    unit_label(&ks[k], u)
                )),
                Ok(_) => {}
            }
        }
    }
    Ok(Session::finish(sessions, out, &lat_served))
}

fn total(spans: &[Span], name: &str) -> Duration {
    Duration::from_nanos(spans.iter().filter(|s| s.name == name).map(Span::dur).sum())
}

fn per_op_us(step: (Duration, u64)) -> f64 {
    ratio(step.0.as_secs_f64() * 1e6, step.1 as f64)
}

/// Every per-layer metric, from the recorded replay (`acc`, `rec`) and the
/// latencies of the three replays.
fn layer_metrics(
    out: &mut Outcome,
    rec: &Recorder,
    acc: &Acc,
    lat_served: &[f64],
    lat_off: &[f64],
    lat_on: &[f64],
) {
    let t = LayerTable::build(rec.spans(), "request", |_| true);
    let spans = rec.spans();
    for name in LAYERS {
        out.push(format!("{name}_ms_p50"), t.incl(name), "ms");
    }
    let secs = |name| total(spans, name).as_secs_f64();

    out.push(
        "ir.parse_kinsts_per_s",
        ratio(acc.in_insts as f64 / 1e3, secs("ir.parse")),
        "kinst/s",
    );
    out.push_exact("ir.out_insts", acc.out_insts as f64, "count");
    out.push_exact("core.dom_computes", acc.dom_computes as f64, "count");
    let s = &acc.stats;
    for (name, v) in [
        ("candidates", s.candidates),
        ("transformed", s.transformed),
        ("checks", s.checks),
        ("advanced_loads", s.advanced_loads),
        ("data_spec_reloads", s.data_spec_reloads),
        ("control_spec_loads", s.control_spec_loads),
        ("loads_removed", s.loads_removed),
        ("spec_fallbacks", s.spec_fallbacks),
    ] {
        out.push_exact(format!("core.stats.{name}"), v as f64, "count");
    }
    out.push_exact(
        "core.ssapre.transform_ratio",
        ratio(s.transformed as f64, s.candidates as f64),
        "ratio",
    );

    let c = &acc.cache;
    out.push_exact("core.cache.hits", c.hits as f64, "count");
    out.push_exact("core.cache.misses", c.misses as f64, "count");
    out.push_exact("core.cache.stale", c.stale as f64, "count");
    out.push_exact(
        "core.cache.hit_ratio",
        ratio(c.hits as f64, c.probes() as f64),
        "hits/probes",
    );
    out.push("core.cache.key_us_per_func", per_op_us(acc.key), "us");
    out.push("core.cache.probe_us_per_hit", per_op_us(acc.probe), "us");
    out.push("core.cache.decode_us_per_hit", per_op_us(acc.decode), "us");
    out.push("core.cache.write_us_per_miss", per_op_us(acc.write), "us");

    out.push(
        "profile.steps_per_s",
        ratio(
            (acc.ref_steps + acc.train_steps) as f64,
            secs("profile.ref_run") + secs("profile.train"),
        ),
        "steps/s",
    );
    out.push_exact("codegen.minsts", acc.minsts as f64, "count");
    for (name, v) in [
        ("insts", acc.insts),
        ("cycles", acc.cycles),
        ("check_loads", acc.check_loads),
        ("failed_checks", acc.failed_checks),
        ("alat_inserts", acc.alat_inserts),
        ("alat_store_invalidations", acc.alat_store_invalidations),
    ] {
        out.push_exact(format!("machine.{name}"), v as f64, "count");
    }
    out.push(
        "machine.sim_minsts_per_s",
        ratio(acc.insts as f64 / 1e6, secs("machine.sim")),
        "Minst/s",
    );
    out.push_exact(
        "machine.check_success_ratio",
        ratio(
            (acc.check_loads - acc.failed_checks) as f64,
            acc.check_loads as f64,
        ),
        "ok/checks",
    );

    let self_total = t.self_sum();
    for (group, members) in SHARES {
        let own = t
            .rows
            .iter()
            .filter(|r| members.contains(&r.0))
            .fold(0.0, |sum, r| sum + r.2);
        out.push(
            format!("share.{group}_pct"),
            100.0 * ratio(own, self_total),
            "%",
        );
    }

    out.push(
        "serve.residual_ms_p50",
        median(lat_served) - t.request_p50_ms,
        "ms",
    );
    let (off, on) = (median(lat_off), median(lat_on));
    out.push("trace.overhead_pct", 100.0 * ratio(on - off, off), "%");

    out.text = format!(
        "  request p50: specc {:.3} ms, in-process {:.3} ms (recorder off) / {:.3} ms (on)\n",
        median(lat_served),
        off,
        on
    );
    out.text.push_str(&t.render("all requests"));
}
