//! ALAT fault policies.
//!
//! IA-64 only promises that a `ld.c` *hit* is justified — it never promises
//! a hit. An implementation may drop ALAT entries at any moment: smaller
//! tables, capacity pressure, context switches that flash-invalidate the
//! whole structure. Compiled code is correct only if it computes the same
//! results under **every** such behavior, because the recovery path
//! (re-load on a failed check) is the actual correctness mechanism.
//!
//! A [`FaultPolicy`] says what the simulated hardware does to the ALAT:
//! the table's geometry, whether every check is forced to miss, and which
//! entries it drops before which instruction. The default policy is the
//! 32-entry/2-way model with no injected faults — simulations without an
//! explicit policy behave exactly as before. [`parse_fault_policy`] reads
//! the grammar and [`FaultPolicy::name`] prints it:
//!
//! | name            | behavior                                          |
//! |-----------------|---------------------------------------------------|
//! | `default`       | deterministic 32-entry 2-way table, no faults     |
//! | `geom:E:W`      | deterministic E-entry W-way table (E may be 0)    |
//! | `always-miss`   | 0-entry table — every check load misses           |
//! | `forced-miss`   | default table, but every ALAT check reports miss  |
//! | `random:S[:D]`  | seeded (xorshift64, seed S) kill of one random    |
//! |                 | entry with probability 1/D per instruction        |
//! |                 | (default D = 16)                                  |
//! | `flash-clear[:P]`| drop the whole table every P instructions        |
//! |                 | (default P = 64) — the context-switch model       |
//! | `evict-at:N[:N…]`| drop the whole table exactly at the scheduled    |
//! |                 | instruction counts — the constructed witness the  |
//! |                 | leak auditor emits (see `crate::leaks`)           |
//!
//! All policies are deterministic given their parameters, so a failing
//! differential run reproduces from its policy name alone.

use crate::alat::{ALAT_ENTRIES, ALAT_WAYS};

/// Default kill probability denominator of `random:SEED`.
pub const RANDOM_EVICT_DENOM: u64 = 16;

/// Default flash-clear period (instructions).
pub const FLASH_CLEAR_PERIOD: u64 = 64;

/// One parsed `--fault-policy` spec. The name of every policy parses back
/// to an equal policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPolicy {
    /// A fixed-geometry table with no injected faults: `default`,
    /// `geom:E:W` and `always-miss`.
    Table {
        /// Total entries; 0 builds the always-miss table.
        entries: usize,
        /// Associativity, at least 1.
        ways: usize,
    },
    /// The default table, but every ALAT check is forced to miss — an
    /// implementation that resolves every `ld.c` conservatively. Unlike
    /// `always-miss` the table still fills and evicts, so insert/eviction
    /// counters stay realistic while every check takes the recovery path.
    ForcedMiss,
    /// Seeded random eviction: each instruction kills one random live
    /// entry with probability `1/denom`.
    Random {
        /// Seed of the xorshift stream.
        seed: u64,
        /// Kill probability denominator, at least 1.
        denom: u64,
    },
    /// Context switch: drops the whole table every `period` instructions.
    FlashClear {
        /// Instructions between clears, at least 1.
        period: u64,
    },
    /// Targeted eviction: drops the whole table exactly at these
    /// instruction counts (1-based, ascending, at least one). This is the
    /// constructed adversary the leak auditor emits — a schedule placed one
    /// instruction after a speculative load's ALAT insert forces that
    /// specific site into misspeculation, witnessing a static leak report
    /// with a concrete run.
    EvictAt(Vec<u64>),
}

impl Default for FaultPolicy {
    /// The stock 32-entry 2-way table with no injected faults.
    fn default() -> Self {
        FaultPolicy::Table {
            entries: ALAT_ENTRIES,
            ways: ALAT_WAYS,
        }
    }
}

impl FaultPolicy {
    /// The 0-entry table: every check load misses.
    pub const ALWAYS_MISS: FaultPolicy = FaultPolicy::Table {
        entries: 0,
        ways: 1,
    };

    /// The spec that reproduces this policy, in its shortest form:
    /// `random:3:16` prints `random:3`, `geom:32:2` prints `default`,
    /// `geom:0:2` prints `always-miss` and `flash-clear:64` prints
    /// `flash-clear`.
    pub fn name(&self) -> String {
        match self {
            FaultPolicy::Table {
                entries: ALAT_ENTRIES,
                ways: ALAT_WAYS,
            } => "default".into(),
            FaultPolicy::Table { entries: 0, .. } => "always-miss".into(),
            FaultPolicy::Table { entries, ways } => format!("geom:{entries}:{ways}"),
            FaultPolicy::ForcedMiss => "forced-miss".into(),
            FaultPolicy::Random {
                seed,
                denom: RANDOM_EVICT_DENOM,
            } => format!("random:{seed}"),
            FaultPolicy::Random { seed, denom } => format!("random:{seed}:{denom}"),
            FaultPolicy::FlashClear {
                period: FLASH_CLEAR_PERIOD,
            } => "flash-clear".into(),
            FaultPolicy::FlashClear { period } => format!("flash-clear:{period}"),
            FaultPolicy::EvictAt(ticks) => {
                let ticks: Vec<String> = ticks.iter().map(u64::to_string).collect();
                format!("evict-at:{}", ticks.join(":"))
            }
        }
    }

    /// The entry count and associativity of the table the simulator
    /// builds.
    pub fn geometry(&self) -> (usize, usize) {
        match *self {
            FaultPolicy::Table { entries, ways } => (entries, ways),
            _ => (ALAT_ENTRIES, ALAT_WAYS),
        }
    }
}

/// `xorshift64*`-style generator — deterministic, seedable, no external
/// dependency. Never yields 0.
#[derive(Debug, Clone, Copy)]
pub struct XorShift64(u64);

impl XorShift64 {
    /// Seeds the generator; seed 0 is remapped to a fixed odd constant.
    pub fn new(seed: u64) -> XorShift64 {
        XorShift64(if seed == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            seed
        })
    }

    /// Next pseudo-random value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// What the hardware does to the ALAT this instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// Nothing — the common case.
    None,
    /// Drop one live entry, selected by `lottery % occupancy`.
    KillOne(u64),
    /// Drop every entry (context switch).
    FlashClear,
}

/// A policy's injections over one run: its xorshift stream, the
/// instructions seen so far and the cursor into an `evict-at` schedule.
/// Every run builds its own, so a run reproduces from its policy.
#[derive(Debug, Clone)]
pub(crate) struct Injector {
    policy: FaultPolicy,
    rng: XorShift64,
    seen: u64,
    next: usize,
}

impl Injector {
    /// The injections of a run under `policy`; `None` when it never drops
    /// an entry.
    pub(crate) fn new(policy: &FaultPolicy) -> Option<Injector> {
        let seed = match *policy {
            FaultPolicy::Table { .. } | FaultPolicy::ForcedMiss => return None,
            FaultPolicy::Random { seed, .. } => seed,
            FaultPolicy::FlashClear { .. } | FaultPolicy::EvictAt(_) => 0,
        };
        Some(Injector {
            policy: policy.clone(),
            rng: XorShift64::new(seed),
            seen: 0,
            next: 0,
        })
    }

    /// Called once per retired instruction, before it executes.
    pub(crate) fn on_inst(&mut self) -> FaultAction {
        self.seen += 1;
        match self.policy {
            FaultPolicy::Random { denom, .. } => {
                if self.rng.next_u64().is_multiple_of(denom) {
                    FaultAction::KillOne(self.rng.next_u64())
                } else {
                    FaultAction::None
                }
            }
            FaultPolicy::FlashClear { period } if self.seen.is_multiple_of(period) => {
                FaultAction::FlashClear
            }
            FaultPolicy::EvictAt(ref ticks) if ticks.get(self.next) == Some(&self.seen) => {
                self.next += 1;
                FaultAction::FlashClear
            }
            _ => FaultAction::None,
        }
    }
}

/// Parses the `--fault-policy` grammar:
///
/// ```text
/// default | geom:E:W | always-miss | forced-miss
///         | random:SEED[:DENOM] | flash-clear[:PERIOD] | evict-at:N[:N...]
/// ```
///
/// A way count, denominator or period of 0 counts as 1; an `evict-at`
/// schedule is sorted, deduplicated, and loses its zeros.
///
/// # Errors
/// A usage message naming the bad policy string, also for an `evict-at`
/// schedule with no instruction count of at least 1.
pub fn parse_fault_policy(s: &str) -> Result<FaultPolicy, String> {
    let mut parts = s.split(':');
    let head = parts.next().unwrap_or("");
    let rest: Vec<&str> = parts.collect();
    let arity = |want: std::ops::RangeInclusive<usize>| -> Result<(), String> {
        if want.contains(&rest.len()) {
            Ok(())
        } else {
            Err(format!("bad fault policy `{s}` (try --help)"))
        }
    };
    let num = |t: &str, what: &str| -> Result<u64, String> {
        t.parse::<u64>()
            .map_err(|_| format!("bad fault policy `{s}`: `{t}` is not a valid {what}"))
    };
    match head {
        "default" => {
            arity(0..=0)?;
            Ok(FaultPolicy::default())
        }
        "geom" => {
            arity(2..=2)?;
            let entries = num(rest[0], "entry count")? as usize;
            let ways = num(rest[1], "way count")?.max(1) as usize;
            if entries == 0 {
                return Ok(FaultPolicy::ALWAYS_MISS);
            }
            Ok(FaultPolicy::Table { entries, ways })
        }
        "always-miss" => {
            arity(0..=0)?;
            Ok(FaultPolicy::ALWAYS_MISS)
        }
        "forced-miss" => {
            arity(0..=0)?;
            Ok(FaultPolicy::ForcedMiss)
        }
        "random" => {
            arity(1..=2)?;
            let seed = num(rest[0], "seed")?;
            let denom = match rest.get(1) {
                Some(t) => num(t, "denominator")?.max(1),
                None => RANDOM_EVICT_DENOM,
            };
            Ok(FaultPolicy::Random { seed, denom })
        }
        "flash-clear" => {
            arity(0..=1)?;
            let period = match rest.first() {
                Some(t) => num(t, "period")?.max(1),
                None => FLASH_CLEAR_PERIOD,
            };
            Ok(FaultPolicy::FlashClear { period })
        }
        "evict-at" => {
            arity(1..=usize::MAX)?;
            let mut ticks: Vec<u64> = rest
                .iter()
                .map(|t| num(t, "instruction count"))
                .collect::<Result<_, _>>()?;
            ticks.retain(|&t| t > 0);
            if ticks.is_empty() {
                return Err(format!(
                    "bad fault policy `{s}`: the schedule needs an instruction count >= 1"
                ));
            }
            ticks.sort_unstable();
            ticks.dedup();
            Ok(FaultPolicy::EvictAt(ticks))
        }
        _ => Err(format!("unknown fault policy `{s}` (try --help)")),
    }
}

/// The fault matrix CI sweeps.
pub fn fault_matrix() -> Vec<FaultPolicy> {
    let random = |seed| FaultPolicy::Random {
        seed,
        denom: RANDOM_EVICT_DENOM,
    };
    vec![
        FaultPolicy::default(),
        FaultPolicy::ALWAYS_MISS,
        FaultPolicy::ForcedMiss,
        random(1),
        random(2),
        random(3),
        FaultPolicy::FlashClear {
            period: FLASH_CLEAR_PERIOD,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> FaultPolicy {
        parse_fault_policy(s).unwrap_or_else(|e| panic!("`{s}`: {e}"))
    }

    /// The actions `n` instructions draw from a run under `policy`.
    fn actions(policy: &str, n: usize) -> Vec<FaultAction> {
        let mut inj = Injector::new(&parse(policy)).expect("an injecting policy");
        (0..n).map(|_| inj.on_inst()).collect()
    }

    #[test]
    fn parse_roundtrips_names() {
        for s in [
            "default",
            "always-miss",
            "forced-miss",
            "random:3",
            "random:7:4",
            "flash-clear",
            "flash-clear:128",
            "geom:8:2",
            "evict-at:5",
            "evict-at:3:9:40",
        ] {
            assert_eq!(parse(s).name(), s, "round-trip of `{s}`");
        }
    }

    #[test]
    fn parse_normalizes_defaults() {
        for (spec, name) in [
            ("random:3:16", "random:3"),
            ("flash-clear:64", "flash-clear"),
            ("geom:32:2", "default"),
            ("geom:0:2", "always-miss"),
        ] {
            assert_eq!(parse(spec).name(), name, "`{spec}`");
        }
    }

    #[test]
    fn every_accepted_spec_prints_a_name_that_parses_back_to_it() {
        for s in [
            // every variant with its default parameters
            "default",
            "always-miss",
            "forced-miss",
            "random:0",
            "flash-clear",
            "evict-at:1",
            // explicit parameters, also the defaults spelled out
            "geom:8:2",
            "geom:3:4",
            "geom:32:2",
            "random:7:3",
            "random:3:16",
            "flash-clear:10",
            "flash-clear:64",
            "evict-at:3:40:400",
            // clamped: a 0-entry table of any associativity, a way count,
            // denominator or period of 0
            "geom:0:2",
            "geom:0:0",
            "geom:4:0",
            "random:5:0",
            "flash-clear:0",
            // deduplicated, sorted, zeros dropped
            "evict-at:9:3:9",
            "evict-at:0:4",
            "evict-at:5:0:5",
        ] {
            let p = parse(s);
            let name = p.name();
            assert_eq!(parse(&name), p, "`{s}` prints `{name}`");
        }
        assert_eq!(parse("evict-at:9:3:9:0").name(), "evict-at:3:9");
        assert_eq!(parse("flash-clear:0").name(), "flash-clear:1");
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in [
            "",
            "bogus",
            "random",
            "random:x",
            "random:1:2:3",
            "geom",
            "geom:8",
            "geom:a:b",
            "default:1",
            "flash-clear:p",
            "evict-at",
            "evict-at:",
            "evict-at:x",
            "evict-at:0",
            "evict-at:0:0",
        ] {
            assert!(parse_fault_policy(s).is_err(), "`{s}` should be rejected");
        }
        let e = parse_fault_policy("evict-at:0").unwrap_err();
        assert!(e.contains("needs an instruction count >= 1"), "{e}");
    }

    #[test]
    fn only_policies_that_drop_entries_inject() {
        for s in ["default", "geom:8:2", "always-miss", "forced-miss"] {
            assert!(Injector::new(&parse(s)).is_none(), "`{s}`");
        }
        for p in fault_matrix() {
            assert_eq!(parse(&p.name()), p);
        }
    }

    #[test]
    fn evict_at_fires_exactly_on_schedule() {
        use FaultAction::{FlashClear, None};
        assert_eq!(
            actions("evict-at:2:5:5:0", 6),
            vec![None, FlashClear, None, None, FlashClear, None]
        );
    }

    #[test]
    fn always_miss_geometry_is_empty() {
        assert_eq!(parse("always-miss").geometry().0, 0);
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let (sa, sb, sc) = (
            actions("random:3:4", 256),
            actions("random:3:4", 256),
            actions("random:4:4", 256),
        );
        assert_eq!(sa, sb, "same seed, same schedule");
        assert_ne!(sa, sc, "different seed, different schedule");
        assert!(
            sa.iter().any(|f| matches!(f, FaultAction::KillOne(_))),
            "1/4 probability must fire within 256 instructions"
        );
    }

    #[test]
    fn flash_clear_fires_on_period() {
        use FaultAction::{FlashClear, None};
        assert_eq!(
            actions("flash-clear:3", 7),
            vec![None, None, FlashClear, None, None, FlashClear, None]
        );
    }
}
