//! The pass-manager seam: named pipeline stages, per-stage snapshot
//! requests, and early stopping.
//!
//! The per-function pipeline of [`crate::driver`] runs a fixed sequence of
//! stages. Each stage has a stable public name so tools can address it:
//!
//! | name        | stage                                                  |
//! |-------------|--------------------------------------------------------|
//! | `refine`    | flow-sensitive pointer refinement (Figure 4, last box) |
//! | `hssa`      | speculative SSA construction with χ/μ flags (§3)       |
//! | `ssapre`    | speculative SSAPRE: Φ-Insertion, Rename, CodeMotion (§4) |
//! | `strength`  | strength reduction                                     |
//! | `lftr`      | linear-function test replacement over SR temporaries   |
//! | `storeprom` | store promotion (loop-invariant store sinking)         |
//! | `lower`     | out-of-SSA lowering back to executable IR              |
//!
//! A [`PipelineHooks`] value says which stages to snapshot
//! (`--dump-after`) and where to stop (`--stop-after`). Snapshots are
//! taken per function inside the parallel workers and joined in function
//! index order, so the rendered output is byte-identical for every job
//! count — this is what the `spectest` golden suite matches against.

use std::fmt;
use std::str::FromStr;

/// A named stage of the per-function pipeline, in execution order.
///
/// `Ord` follows pipeline order, so `a <= b` means "`a` runs no later
/// than `b`".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pass {
    /// Flow-sensitive pointer refinement on the input IR.
    Refine,
    /// Speculative SSA construction (χ/μ lists + speculation flags).
    Hssa,
    /// The speculative SSAPRE worklist (PRE + register promotion).
    Ssapre,
    /// Strength reduction.
    Strength,
    /// Linear-function test replacement over the SR temporaries.
    Lftr,
    /// Store promotion (sinking loop-invariant direct stores).
    Storeprom,
    /// Out-of-SSA lowering.
    Lower,
}

impl Pass {
    /// Every pass, in pipeline order.
    pub const ALL: [Pass; 7] = [
        Pass::Refine,
        Pass::Hssa,
        Pass::Ssapre,
        Pass::Strength,
        Pass::Lftr,
        Pass::Storeprom,
        Pass::Lower,
    ];

    /// The stable public name (the `--dump-after` spelling).
    pub fn name(self) -> &'static str {
        match self {
            Pass::Refine => "refine",
            Pass::Hssa => "hssa",
            Pass::Ssapre => "ssapre",
            Pass::Strength => "strength",
            Pass::Lftr => "lftr",
            Pass::Storeprom => "storeprom",
            Pass::Lower => "lower",
        }
    }
}

// the PassSet bitmask below holds one bit per variant
const _: () = assert!(Pass::ALL.len() <= 16, "PassSet(u16) is full — widen it");

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Pass {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Pass::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| {
                format!(
                    "unknown pass `{s}` (expected one of: {})",
                    Pass::ALL.map(|p| p.name()).join(", ")
                )
            })
    }
}

/// A small set of [`Pass`]es (bitmask over the stages).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassSet(u16);

impl PassSet {
    /// The empty set.
    pub const EMPTY: PassSet = PassSet(0);

    /// Every pass.
    pub fn all() -> PassSet {
        Pass::ALL.into_iter().collect()
    }

    /// Adds `p`.
    pub fn insert(&mut self, p: Pass) {
        self.0 |= 1u16 << p as u16;
    }

    /// Membership test.
    pub fn contains(self, p: Pass) -> bool {
        self.0 & (1u16 << p as u16) != 0
    }

    /// True when no pass is selected.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Members in pipeline order.
    pub fn iter(self) -> impl Iterator<Item = Pass> {
        Pass::ALL.into_iter().filter(move |&p| self.contains(p))
    }

    /// Parses a comma-separated pass list (the `--dump-after` argument).
    pub fn parse_list(s: &str) -> Result<PassSet, String> {
        let mut set = PassSet::EMPTY;
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            set.insert(part.parse()?);
        }
        Ok(set)
    }
}

impl FromIterator<Pass> for PassSet {
    fn from_iter<I: IntoIterator<Item = Pass>>(iter: I) -> Self {
        let mut s = PassSet::EMPTY;
        for p in iter {
            s.insert(p);
        }
        s
    }
}

/// Snapshot/stop requests threaded through
/// [`crate::driver::try_optimize_cached`], plus the fault-injection knobs
/// the robustness tests use to exercise the non-speculative fallback
/// deterministically.
#[derive(Debug, Clone, Default)]
pub struct PipelineHooks {
    /// Stages to snapshot (textual dump after the stage runs).
    pub dump_after: PassSet,
    /// Run the pipeline only through this stage; later *optimization*
    /// stages are skipped. Lowering back to executable IR always happens,
    /// so the resulting module stays runnable and verifiable.
    pub stop_after: Option<Pass>,
    /// Panic the *speculative* compilation of the named function
    /// (`--inject-spec-fail`), forcing the driver onto its non-speculative
    /// fallback path. Test-only; `None` in production.
    pub inject_spec_fail: Option<String>,
    /// Panic the *non-speculative fallback* of the named function too
    /// (`--inject-fallback-fail`), exhausting recovery. Test-only.
    pub inject_fallback_fail: Option<String>,
    /// Run the structural verifier (IR level after `refine`/`lower`, the
    /// HSSA checker after every HSSA-level stage) at every pass boundary
    /// (`--verify-each`), attributing any failure to the offending pass
    /// and function.
    pub verify_each: bool,
    /// Run the post-lowering speculation-safety auditor on each function's
    /// machine code (`--audit-spec`): every `ld.a`/`ld.sa` must be
    /// validated by a matching check on every path to a use.
    pub audit_spec: bool,
    /// Corrupt the named function's HSSA right after the named pass runs
    /// (`--inject-corrupt FUNC:PASS`), exercising the verify-each +
    /// per-pass-rollback recovery path deterministically. Test-only.
    pub inject_corrupt: Option<(String, Pass)>,
    /// Run the post-lowering speculative-leak auditor on each function's
    /// machine code (`--audit-leaks`): no `ld.a`/`ld.sa` value may reach
    /// an address computation or branch condition before its check. A
    /// flagged function fails compilation (degradation ladder applies).
    pub audit_leaks: bool,
    /// Like `audit_leaks`, but repair instead of reject: insert a
    /// speculation barrier before each flagged sink so the machine-level
    /// re-audit is clean (`--fence-leaks`). Implies the audit.
    pub fence_leaks: bool,
    /// Cooperative deadline token (`--deadline-ms`), polled at pass
    /// boundaries and between functions. Deliberately excluded from the
    /// cache-key fingerprint: a deadline changes when a compile stops,
    /// never what it produces.
    pub cancel: crate::cancel::CancelToken,
}

impl PipelineHooks {
    /// Whether stage `p` runs under this configuration.
    pub fn runs(&self, p: Pass) -> bool {
        self.stop_after.is_none_or(|s| p <= s)
    }

    /// Parses the `--inject-corrupt` argument: `FUNC:PASS`.
    ///
    /// # Errors
    /// Rejects a missing separator or an unknown pass name.
    pub fn parse_inject_corrupt(s: &str) -> Result<(String, Pass), String> {
        let Some((func, pass)) = s.rsplit_once(':') else {
            return Err(format!("expected FUNC:PASS, got `{s}`"));
        };
        if func.is_empty() {
            return Err(format!("expected FUNC:PASS, got `{s}`"));
        }
        Ok((func.to_string(), pass.parse()?))
    }
}

/// One per-function snapshot taken after a stage ran.
#[derive(Debug, Clone, PartialEq)]
pub struct PassDump {
    /// The stage the snapshot was taken after.
    pub pass: Pass,
    /// Name of the function the snapshot is of.
    pub func: String,
    /// The textual form: IR syntax for `refine`/`lower`, the paper-style
    /// speculative SSA dump for the HSSA-level stages.
    pub text: String,
}

/// Renders a dump collection in the stable `specc --dump-after` format:
/// one `; === dump-after <pass>: func <name> ===` header per snapshot,
/// functions in module order, stages in pipeline order within a function.
pub fn render_dumps(dumps: &[PassDump]) -> String {
    let mut out = String::new();
    for d in dumps {
        out.push_str(&format!(
            "; === dump-after {}: func {} ===\n",
            d.pass, d.func
        ));
        out.push_str(&d.text);
        if !d.text.ends_with('\n') {
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_names_roundtrip() {
        for p in Pass::ALL {
            assert_eq!(p.name().parse::<Pass>().unwrap(), p);
        }
        assert!("nope".parse::<Pass>().is_err());
    }

    #[test]
    fn pass_order_matches_pipeline() {
        assert!(Pass::Refine < Pass::Hssa);
        assert!(Pass::Hssa < Pass::Ssapre);
        assert!(Pass::Ssapre < Pass::Strength);
        assert!(Pass::Strength < Pass::Lftr);
        assert!(Pass::Lftr < Pass::Storeprom);
        assert!(Pass::Storeprom < Pass::Lower);
    }

    /// The pass registry must stay in sync across its three spellings:
    /// `Pass::name`, `PassSet::parse_list`, and the dump-hook headers
    /// rendered by [`render_dumps`].
    #[test]
    fn pass_registry_names_stay_in_sync() {
        let expected = [
            "refine",
            "hssa",
            "ssapre",
            "strength",
            "lftr",
            "storeprom",
            "lower",
        ];
        assert_eq!(Pass::ALL.map(|p| p.name()), expected);
        // parse_list accepts every registered name, individually and joined
        for name in expected {
            let s = PassSet::parse_list(name).unwrap();
            assert_eq!(s.iter().count(), 1, "{name}");
        }
        let all = PassSet::parse_list(&expected.join(",")).unwrap();
        assert_eq!(all, PassSet::all());
        // dump headers use the same spelling
        for p in Pass::ALL {
            let rendered = render_dumps(&[PassDump {
                pass: p,
                func: "f".into(),
                text: String::new(),
            }]);
            assert!(
                rendered.starts_with(&format!("; === dump-after {}: func f ===", p.name())),
                "{rendered}"
            );
        }
    }

    #[test]
    fn parse_list_accepts_commas_and_rejects_junk() {
        let s = PassSet::parse_list("hssa,ssapre").unwrap();
        assert!(s.contains(Pass::Hssa) && s.contains(Pass::Ssapre));
        assert!(!s.contains(Pass::Refine));
        assert_eq!(s.iter().count(), 2);
        assert!(PassSet::parse_list("hssa,bogus").is_err());
    }

    #[test]
    fn inject_corrupt_parses_func_colon_pass() {
        let (f, p) = PipelineHooks::parse_inject_corrupt("kern:strength").unwrap();
        assert_eq!(f, "kern");
        assert_eq!(p, Pass::Strength);
        assert!(PipelineHooks::parse_inject_corrupt("kern").is_err());
        assert!(PipelineHooks::parse_inject_corrupt(":ssapre").is_err());
        assert!(PipelineHooks::parse_inject_corrupt("kern:bogus").is_err());
    }

    #[test]
    fn hooks_stop_after_gates_later_passes() {
        let h = PipelineHooks {
            stop_after: Some(Pass::Ssapre),
            ..Default::default()
        };
        assert!(h.runs(Pass::Refine) && h.runs(Pass::Hssa) && h.runs(Pass::Ssapre));
        assert!(!h.runs(Pass::Strength) && !h.runs(Pass::Lower));
        assert!(PipelineHooks::default().runs(Pass::Lower));
    }
}
