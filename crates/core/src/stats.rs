//! Optimization statistics.

use std::time::Duration;

/// Declares a counter block from one field list: the struct, an `absorb`
/// that sums every counter field and lets each label field (after the `;`)
/// keep its first non-default value, and — for the fields of an optional
/// leading `rows TYPE { .. }` group — `rows()`, their `(name, value)`
/// pairs in declaration order. A block of plain `u64` counters also gets
/// `values()`, every counter in declaration order, and its inverse
/// `from_values()`.
macro_rules! counter_block {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident: u64, )*
        }
    ) => {
        counter_block! {
            @block
            $(#[$meta])*
            pub struct $name {
                $( $(#[$fmeta])* pub $field: u64, )*
            }
        }

        impl $name {
            /// How many counters the block holds.
            pub const COUNTERS: usize = [$(stringify!($field)),*].len();

            /// Every counter in declaration order.
            pub fn values(&self) -> [u64; $name::COUNTERS] {
                [$( self.$field ),*]
            }

            /// The block holding `values` in declaration order: the inverse
            /// of [`Self::values`].
            pub fn from_values(values: [u64; $name::COUNTERS]) -> $name {
                let [$( $field ),*] = values;
                $name { $( $field ),* }
            }
        }
    };
    (
        $(@block)?
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( rows $rty:ty { $( $(#[$rmeta:meta])* pub $rfield:ident => $row:literal, )* } )?
            $( $(#[$fmeta:meta])* pub $field:ident: $ty:ty, )*
            $( ; $( $(#[$lmeta:meta])* pub $label:ident: $lty:ty, )* )?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($( $(#[$rmeta])* pub $rfield: $rty, )*)?
            $( $(#[$fmeta])* pub $field: $ty, )*
            $($( $(#[$lmeta])* pub $label: $lty, )*)?
        }

        impl $name {
            /// Merges another block into this one: sums every counter, and
            /// fills each label this block has not set yet.
            pub fn absorb(&mut self, other: &$name) {
                $($( self.$rfield += other.$rfield; )*)?
                $( self.$field += other.$field; )*
                $($(
                    if self.$label == <$lty>::default() {
                        self.$label = other.$label;
                    }
                )*)?
            }

            $(
                /// The per-row fields in declaration order, as `(name, value)`.
                pub fn rows(&self) -> [(&'static str, $rty); [$($row),*].len()] {
                    [$( ($row, self.$rfield) ),*]
                }
            )?
        }
    };
}
pub(crate) use counter_block;

counter_block! {
    /// Counters reported by one [`crate::driver::optimize`] run.
    ///
    /// These are *static* counts (program text); the dynamic effect — retired
    /// loads, check ratio, cycles — is measured by `specframe-machine` after
    /// code generation, matching the paper's split between compile-time
    /// transformation and `pfmon` run-time measurement.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct OptStats {
        /// Candidate expressions scanned.
        pub candidates: u64,
        /// Expressions that changed the program.
        pub transformed: u64,
        /// PRE temporaries introduced.
        pub temps: u64,
        /// Defining occurrences saved into a temporary.
        pub saves: u64,
        /// Redundant occurrences replaced by reloads.
        pub reloads: u64,
        /// Static loads eliminated (reloads of load expressions).
        pub loads_removed: u64,
        /// Check instructions (ld.c / NaT checks) emitted.
        pub checks: u64,
        /// Reloads that required an ALAT check (data speculation).
        pub data_spec_reloads: u64,
        /// Loads flagged as advanced loads (`ld.a`).
        pub advanced_loads: u64,
        /// Computations inserted on incoming paths.
        pub insertions: u64,
        /// Inserted loads that are control-speculative (`ld.s`).
        pub control_spec_loads: u64,
        /// Expressions where data speculation fired.
        pub data_speculated_exprs: u64,
        /// Expressions where control speculation fired.
        pub control_speculated_exprs: u64,
        /// Strength-reduction rewrites applied.
        pub strength_reduced: u64,
        /// Linear-function test replacements applied.
        pub lftr_applied: u64,
        /// Loop stores sunk to loop exits (store promotion).
        pub stores_sunk: u64,
        /// Functions whose speculative compilation failed and were recompiled
        /// non-speculatively (each one also carries an `OptReport` warning).
        pub spec_fallbacks: u64,
        /// Functions rescued by the per-pass rollback rung of the degradation
        /// ladder: one offending pass was rolled back and the remaining
        /// pipeline re-run, keeping speculation for everything else.
        pub pass_rollbacks: u64,
        /// Speculative-leak sites the `--audit-leaks`/`--fence-leaks` auditor
        /// flagged (advanced-load values reaching an address or branch sink
        /// before their check).
        pub leak_sites_flagged: u64,
        /// Speculation barriers inserted by `--fence-leaks`.
        pub leak_fences_inserted: u64,
    }
}

counter_block! {
    /// Per-pass wall-clock time of one [`crate::driver::optimize`] run, plus
    /// the dominator-build counter backing the analysis-cache invariant.
    ///
    /// Kept separate from [`OptStats`] on purpose: `OptStats` is `Eq`-compared
    /// across serial and parallel runs by the determinism tests, while wall
    /// times necessarily differ from run to run. Per-function timings are
    /// merged (summed) at the driver's join point in function-index order, so
    /// the *set* of samples is deterministic even though the values are not.
    #[derive(Debug, Default, Clone, Copy)]
    pub struct PassTimings {
        rows Duration {
            /// Module-level Steensgaard alias analysis.
            pub alias => "alias",
            /// FuncAnalyses construction (dominators, frontiers, loops) — all
            /// functions.
            pub analyses => "analyses",
            /// Flow-sensitive refinement (`refine_function`).
            pub refine => "refine",
            /// Speculative SSA construction (`build_hssa`).
            pub hssa_build => "hssa-build",
            /// The SSAPRE engine.
            pub ssapre => "ssapre",
            /// Strength reduction.
            pub strength => "strength",
            /// Linear-function test replacement.
            pub lftr => "lftr",
            /// Store sinking.
            pub storeprom => "storeprom",
            /// HSSA verification.
            pub verify => "verify",
            /// Pass-boundary verification (`--verify-each`): every structural
            /// re-check between stages, summed.
            pub verify_each => "verify-each",
            /// Post-lowering speculation-safety audit (`--audit-spec`).
            pub audit => "audit",
            /// Post-lowering speculative-leak audit and fencing
            /// (`--audit-leaks` / `--fence-leaks`).
            pub audit_leaks => "audit-leaks",
            /// Out-of-SSA lowering.
            pub lower => "lower",
            /// Final whole-module IR verification.
            pub module_verify => "module-verify",
            /// Compile-cache overhead: key derivation, entry probes/decodes and
            /// write-back encodes. Zero when no cache is attached.
            pub cache => "cache",
        }
        /// Whole `optimize` call, wall clock.
        pub total: Duration,
        /// `DomTree::compute` invocations attributed to this run.
        pub dom_computes: u64,
        ;
        /// Name of the execution target the run lowered for (`""` until a
        /// driver stamps it). Shown in the report header and the lower row so
        /// `--time-passes` output says which cost model was active.
        pub target: &'static str,
    }
}

impl PassTimings {
    /// Human-readable aggregate table (the `specc --time-passes` output):
    /// every pass with its total wall time and share of the whole
    /// `optimize` call, sorted most-expensive first (ties keep pipeline
    /// order — the sort is stable — so the layout is deterministic), then
    /// the total, the process peak RSS when the OS exposes it cheaply, and
    /// the dominator-build counter.
    pub fn report(&self) -> String {
        fn ms(d: Duration) -> String {
            format!("{:9.3} ms", d.as_secs_f64() * 1e3)
        }
        let total = self.total.as_secs_f64();
        let mut rows = self.rows();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        let mut s = String::new();
        if self.target.is_empty() {
            s.push_str("=== pass timings ===\n");
        } else {
            s.push_str(&format!("=== pass timings (target: {}) ===\n", self.target));
        }
        for (name, d) in rows {
            let pct = if total > 0.0 {
                100.0 * d.as_secs_f64() / total
            } else {
                0.0
            };
            // the lower row names the target whose hooks produced the code
            let name = if name == "lower" && !self.target.is_empty() {
                format!("lower({})", self.target)
            } else {
                name.to_string()
            };
            s.push_str(&format!("  {name:<14} {} {pct:5.1}%\n", ms(d)));
        }
        s.push_str(&format!("  {:<14} {}\n", "total", ms(self.total)));
        if let Some(kb) = peak_rss_kb() {
            s.push_str(&format!("  {:<14} {:>9} kB\n", "peak-rss", kb));
        }
        s.push_str(&format!("  dom computes   {:>9}\n", self.dom_computes));
        s
    }
}

/// The process's peak resident set size in kilobytes (`VmHWM` from
/// `/proc/self/status`), or `None` where that interface does not exist.
/// One small file read — cheap enough to sample per report.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_absorb_sums() {
        let mut a = PassTimings {
            ssapre: std::time::Duration::from_millis(2),
            dom_computes: 3,
            ..Default::default()
        };
        let b = PassTimings {
            ssapre: std::time::Duration::from_millis(5),
            lower: std::time::Duration::from_millis(1),
            dom_computes: 4,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.ssapre, std::time::Duration::from_millis(7));
        assert_eq!(a.lower, std::time::Duration::from_millis(1));
        assert_eq!(a.dom_computes, 7);
    }

    #[test]
    fn report_mentions_every_pass() {
        let t = PassTimings::default();
        let r = t.report();
        for name in [
            "alias",
            "analyses",
            "refine",
            "hssa-build",
            "ssapre",
            "strength",
            "lftr",
            "storeprom",
            "verify",
            "verify-each",
            "audit",
            "audit-leaks",
            "lower",
            "module-verify",
            "cache",
            "total",
            "dom computes",
        ] {
            assert!(r.contains(name), "missing {name} in report");
        }
    }

    #[test]
    fn report_names_the_target_when_stamped() {
        let t = PassTimings {
            target: "swr",
            ..Default::default()
        };
        let r = t.report();
        assert!(r.contains("=== pass timings (target: swr) ==="));
        assert!(r.contains("lower(swr)"));
        // an unstamped block keeps the historical layout
        let plain = PassTimings::default().report();
        assert!(plain.contains("=== pass timings ===\n"));
        assert!(!plain.contains("lower("));
        // absorbing a stamped block propagates the name
        let mut merged = PassTimings::default();
        merged.absorb(&t);
        assert_eq!(merged.target, "swr");
    }

    #[test]
    fn absorb_sums_fields() {
        let mut a = OptStats {
            saves: 2,
            reloads: 3,
            ..Default::default()
        };
        let b = OptStats {
            saves: 1,
            checks: 5,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.saves, 3);
        assert_eq!(a.reloads, 3);
        assert_eq!(a.checks, 5);
    }
}
