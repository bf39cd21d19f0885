//! Seeded benchmark inputs: mega-module sources, the serve-edits edit
//! stream, and the kernels-sim unit matrix. Every input is a pure function
//! of the seed, so a seed reproduces a run's traffic exactly.

use specframe_ir::{display::print_module, Value};
use specframe_machine::TargetId;
use specframe_workloads::megamod::{mega_source, Rng};
use specframe_workloads::{all_workloads, Scale, Workload};

/// A mega-module kept as editable text: the global table's initializers
/// and one source chunk per function, in module order.
#[derive(Debug, Clone, PartialEq)]
pub struct MegaText {
    inits: Vec<i64>,
    funcs: Vec<String>,
}

impl MegaText {
    /// The generator's module for `(seed, funcs)`, split into pieces.
    pub fn generate(seed: u64, funcs: usize) -> MegaText {
        let src = mega_source(seed, funcs);
        let mut inits = Vec::new();
        let mut chunks: Vec<String> = Vec::new();
        for line in src.split_inclusive('\n') {
            if let Some(rest) = line.strip_prefix("global g") {
                let init = rest
                    .trim_end()
                    .strip_suffix(']')
                    .and_then(|r| r.rsplit('[').next())
                    .and_then(|n| n.parse().ok())
                    .expect("mega global line ends in `[INIT]`");
                inits.push(init);
            } else if line.starts_with("func ") {
                chunks.push(line.to_string());
            } else {
                chunks
                    .last_mut()
                    .expect("mega body line follows a func header")
                    .push_str(line);
            }
        }
        let text = MegaText {
            inits,
            funcs: chunks,
        };
        debug_assert_eq!(text.render(), src);
        text
    }

    /// Number of functions.
    pub fn funcs(&self) -> usize {
        self.funcs.len()
    }

    /// Number of globals.
    pub fn globals(&self) -> usize {
        self.inits.len()
    }

    /// The module source text.
    pub fn render(&self) -> String {
        let mut s = String::with_capacity(self.funcs.iter().map(String::len).sum::<usize>() + 2048);
        for (g, init) in self.inits.iter().enumerate() {
            s.push_str(&format!("global g{g}: i64[1] = [{init}]\n"));
        }
        for f in &self.funcs {
            s.push_str(f);
        }
        s
    }

    /// Bumps the first integer literal in function `fi`'s body by one.
    /// The edit changes an operand, never an instruction count, so memory
    /// sites keep their numbers and only this function's body changes.
    fn bump_body(&mut self, fi: usize) {
        let f = &mut self.funcs[fi];
        let mut out = String::with_capacity(f.len() + 1);
        let mut done = false;
        for line in f.split_inclusive('\n') {
            if !done {
                if let Some(bumped) = bump_trailing_literal(line) {
                    out.push_str(&bumped);
                    done = true;
                    continue;
                }
            }
            out.push_str(line);
        }
        assert!(done, "every generated function has an integer literal");
        *f = out;
    }

    /// Applies one [`Edit`].
    pub fn apply(&mut self, e: &Edit) {
        for &fi in &e.funcs {
            self.bump_body(fi);
        }
        // a module-context edit every function's cache key can observe
        if let Some(g) = e.global {
            self.inits[g] += 1;
        }
    }
}

/// `  x = op a, 7\n` → `  x = op a, 8\n` and `  x = 0\n` → `  x = 1\n`;
/// `None` for a line that does not end in an integer operand.
fn bump_trailing_literal(line: &str) -> Option<String> {
    let body = line.strip_suffix('\n')?;
    if !body.starts_with("  ") || body.trim_start().starts_with("var ") {
        return None;
    }
    let cut = body.rfind([' ', ','])? + 1;
    let n: i64 = body[cut..].parse().ok()?;
    Some(format!("{}{}\n", &body[..cut], n + 1))
}

/// The edits of one serve-edits request: 1% of the functions get a body
/// edit, and every 4th request also edits one global's initializer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edit {
    /// Distinct function indices, ascending.
    pub funcs: Vec<usize>,
    /// The global whose initializer changes, if any.
    pub global: Option<usize>,
}

/// The deterministic edit for request `k` of a seed's stream.
pub fn edit_plan(seed: u64, k: u64, funcs: usize, globals: usize) -> Edit {
    let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(k));
    let want = (funcs / 100).max(1);
    let mut picked: Vec<usize> = Vec::with_capacity(want);
    while picked.len() < want {
        let fi = rng.below(funcs as u64) as usize;
        if !picked.contains(&fi) {
            picked.push(fi);
        }
    }
    picked.sort_unstable();
    let global = (k % 4 == 3).then(|| rng.below(globals as u64) as usize);
    Edit {
        funcs: picked,
        global,
    }
}

/// The two compile configurations of Fig 10: the O3 baseline (control
/// speculation only) and the paper's profile-guided data speculation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    Baseline,
    Paper,
}

impl Config {
    pub const ALL: [Config; 2] = [Config::Baseline, Config::Paper];

    pub fn name(self) -> &'static str {
        match self {
            Config::Baseline => "baseline",
            Config::Paper => "paper",
        }
    }

    /// The `--spec` value.
    pub fn spec(self) -> &'static str {
        match self {
            Config::Baseline => "none",
            Config::Paper => "profile",
        }
    }
}

/// One paper kernel, written out for `specc`.
pub struct Kernel {
    pub w: Workload,
    /// The IR text `specc` reads.
    pub source: String,
}

impl Kernel {
    /// What the unoptimized kernel returns on the reference input, run by
    /// the reference interpreter, spelled as `specc` prints its `result`.
    ///
    /// A child's peak resident set, as `wait4` reports it, is at least the
    /// resident set of the process that spawned it, and the interpreter
    /// runs leave this process near the size of a `specc` kernel run. So
    /// the kernels-sim run calls this only after its timed phase.
    pub fn reference_result(&self) -> String {
        let w = &self.w;
        let (expect, _) = specframe_profile::run(&w.module, w.entry, &w.ref_args, w.fuel)
            .unwrap_or_else(|e| panic!("{}: reference run failed: {e}", w.name));
        format!("{expect:?}")
    }
}

/// The eight paper kernels (not the `many_funcs` compiler stressor).
pub fn kernels(scale: Scale) -> Vec<Kernel> {
    all_workloads(scale)
        .into_iter()
        .filter(|w| w.name != "many_funcs")
        .map(|w| Kernel {
            source: print_module(&w.module),
            w,
        })
        .collect()
}

/// One kernels-sim unit: a kernel compiled one way for one target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unit {
    /// Index into [`kernels`].
    pub kernel: usize,
    pub target: TargetId,
    pub config: Config,
}

/// Every unit of the matrix in canonical order.
pub fn units(kernels: usize) -> Vec<Unit> {
    let mut v = Vec::new();
    for kernel in 0..kernels {
        for target in TargetId::ALL {
            for config in Config::ALL {
                v.push(Unit {
                    kernel,
                    target,
                    config,
                });
            }
        }
    }
    v
}

/// The units of pass `pass` in a seed-shuffled order (Fisher–Yates): the
/// seed only reorders work, it never changes which units run.
pub fn shuffled_units(seed: u64, pass: u64, kernels: usize) -> Vec<Unit> {
    let mut v = units(kernels);
    let mut rng = Rng::new(seed ^ pass.wrapping_mul(0xd1b5_4a32_d192_ed03));
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}

/// `--args` spelling of an argument list.
pub fn args_flag(values: &[Value]) -> String {
    values
        .iter()
        .map(|v| match v {
            Value::I(x) => x.to_string(),
            Value::F(x) => format!("{x:?}"),
            Value::Nat => "0".into(),
        })
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mega_text_renders_the_generator_output() {
        assert_eq!(MegaText::generate(5, 40).render(), mega_source(5, 40));
    }

    #[test]
    fn body_bump_changes_one_literal() {
        assert_eq!(
            bump_trailing_literal("  t1 = add n, 7\n").as_deref(),
            Some("  t1 = add n, 8\n")
        );
        assert_eq!(
            bump_trailing_literal("  acc = 0\n").as_deref(),
            Some("  acc = 1\n")
        );
        assert_eq!(bump_trailing_literal("  t = add t, acc\n"), None);
        assert_eq!(bump_trailing_literal("  var t0: i64\n"), None);
        assert_eq!(bump_trailing_literal("entry:\n"), None);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut a = shuffled_units(3, 1, 8);
        assert_eq!(a.len(), 32);
        let key = |u: &Unit| (u.kernel, u.target.name(), u.config.name());
        a.sort_by_key(key);
        let mut b = units(8);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }
}
