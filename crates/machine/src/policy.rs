//! Adversarial ALAT behavior policies.
//!
//! IA-64 only promises that a `ld.c` *hit* is justified — it never promises
//! a hit. An implementation may drop ALAT entries at any moment: smaller
//! tables, capacity pressure, context switches that flash-invalidate the
//! whole structure. Compiled code is correct only if it computes the same
//! results under **every** such behavior, because the recovery path
//! (re-load on a failed check) is the actual correctness mechanism.
//!
//! An [`AlatPolicy`] decides, per retired instruction, whether the
//! simulated hardware drops entries, and whether a check is forced to
//! miss. The [`Deterministic`] policy is the default 32-entry/2-way model
//! with no injected faults — simulations without an explicit policy behave
//! exactly as before. The adversaries:
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
//! differential run reproduces from its policy string alone.

use crate::alat::{ALAT_ENTRIES, ALAT_WAYS};

/// Table geometry a policy asks the simulator to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlatGeometry {
    /// Total entries; 0 builds the always-miss table.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
}

impl Default for AlatGeometry {
    fn default() -> Self {
        AlatGeometry {
            entries: ALAT_ENTRIES,
            ways: ALAT_WAYS,
        }
    }
}

/// What the hardware does to the ALAT this instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Nothing — the common case.
    None,
    /// Drop one live entry, selected by `lottery % occupancy`.
    KillOne(u64),
    /// Drop every entry (context switch).
    FlashClear,
}

/// A pluggable ALAT behavior model.
///
/// The simulator consults the policy once per retired instruction
/// ([`AlatPolicy::on_inst`], unless [`AlatPolicy::injects_faults`] says it
/// never acts) and once per ALAT check load ([`AlatPolicy::force_miss`]).
/// Policies mutate only their own state; the table itself applies the
/// returned [`FaultAction`].
pub trait AlatPolicy: Send {
    /// The policy string that reproduces this policy (e.g. `random:3:16`).
    fn name(&self) -> String;

    /// Geometry the simulator should build the table with.
    fn geometry(&self) -> AlatGeometry {
        AlatGeometry::default()
    }

    /// Called once per retired instruction, before it executes, when
    /// [`AlatPolicy::injects_faults`] says it may act.
    fn on_inst(&mut self) -> FaultAction {
        FaultAction::None
    }

    /// Whether [`AlatPolicy::on_inst`] can return anything but
    /// [`FaultAction::None`]. The simulator asks once per run and skips the
    /// per-instruction call when the answer is `false`.
    fn injects_faults(&self) -> bool {
        true
    }

    /// Called per ALAT check load; `true` forces the check to miss
    /// regardless of table contents.
    fn force_miss(&mut self) -> bool {
        false
    }
}

/// The default model: a fixed-geometry table with no injected faults.
#[derive(Debug, Clone, Copy)]
pub struct Deterministic {
    geometry: AlatGeometry,
}

impl Deterministic {
    /// The stock 32-entry 2-way policy.
    pub fn new() -> Deterministic {
        Deterministic {
            geometry: AlatGeometry::default(),
        }
    }

    /// A deterministic policy with custom geometry.
    pub fn with_geometry(entries: usize, ways: usize) -> Deterministic {
        Deterministic {
            geometry: AlatGeometry { entries, ways },
        }
    }
}

impl Default for Deterministic {
    fn default() -> Self {
        Deterministic::new()
    }
}

impl AlatPolicy for Deterministic {
    fn name(&self) -> String {
        let d = AlatGeometry::default();
        if self.geometry == d {
            "default".into()
        } else if self.geometry.entries == 0 {
            "always-miss".into()
        } else {
            format!("geom:{}:{}", self.geometry.entries, self.geometry.ways)
        }
    }

    fn geometry(&self) -> AlatGeometry {
        self.geometry
    }

    fn injects_faults(&self) -> bool {
        false
    }
}

/// Default table, but every ALAT check is forced to miss — models an
/// implementation that resolves every `ld.c` conservatively. Unlike
/// `always-miss` the table still fills and evicts, so insert/eviction
/// counters stay realistic while every check takes the recovery path.
#[derive(Debug, Clone, Copy, Default)]
pub struct ForcedMiss;

impl AlatPolicy for ForcedMiss {
    fn name(&self) -> String {
        "forced-miss".into()
    }

    fn force_miss(&mut self) -> bool {
        true
    }

    fn injects_faults(&self) -> bool {
        false
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

/// Seeded random eviction: each instruction kills one random live entry
/// with probability `1/denom`.
#[derive(Debug, Clone, Copy)]
pub struct RandomEvict {
    seed: u64,
    denom: u64,
    rng: XorShift64,
}

/// Default kill probability denominator for [`RandomEvict`].
pub const RANDOM_EVICT_DENOM: u64 = 16;

impl RandomEvict {
    /// A random-eviction adversary with kill probability `1/denom` per
    /// instruction (`denom == 0` is clamped to 1, i.e. kill every cycle).
    pub fn new(seed: u64, denom: u64) -> RandomEvict {
        RandomEvict {
            seed,
            denom: denom.max(1),
            rng: XorShift64::new(seed),
        }
    }
}

impl AlatPolicy for RandomEvict {
    fn name(&self) -> String {
        if self.denom == RANDOM_EVICT_DENOM {
            format!("random:{}", self.seed)
        } else {
            format!("random:{}:{}", self.seed, self.denom)
        }
    }

    fn on_inst(&mut self) -> FaultAction {
        if self.rng.next_u64().is_multiple_of(self.denom) {
            FaultAction::KillOne(self.rng.next_u64())
        } else {
            FaultAction::None
        }
    }
}

/// Context-switch adversary: flash-clears the entire table every
/// `period` instructions.
#[derive(Debug, Clone, Copy)]
pub struct FlashClear {
    period: u64,
    until: u64,
}

/// Default flash-clear period (instructions).
pub const FLASH_CLEAR_PERIOD: u64 = 64;

impl FlashClear {
    /// Clears every `period` instructions (`period == 0` clamps to 1).
    pub fn new(period: u64) -> FlashClear {
        let period = period.max(1);
        FlashClear {
            period,
            until: period,
        }
    }
}

impl AlatPolicy for FlashClear {
    fn name(&self) -> String {
        if self.period == FLASH_CLEAR_PERIOD {
            "flash-clear".into()
        } else {
            format!("flash-clear:{}", self.period)
        }
    }

    fn on_inst(&mut self) -> FaultAction {
        self.until -= 1;
        if self.until == 0 {
            self.until = self.period;
            FaultAction::FlashClear
        } else {
            FaultAction::None
        }
    }
}

/// Targeted eviction: flash-clears the table exactly at the scheduled
/// instruction counts (1-based, in `on_inst`-call order). This is the
/// constructed adversary the leak auditor emits — a schedule placed one
/// instruction after a speculative load's ALAT insert forces that
/// specific site into misspeculation, witnessing a static leak report
/// with a concrete run.
#[derive(Debug, Clone)]
pub struct EvictAt {
    schedule: Vec<u64>,
    next: usize,
    seen: u64,
}

impl EvictAt {
    /// Clears the table when the instruction counter reaches each value of
    /// `schedule` (sorted and deduplicated; zeros are dropped).
    pub fn new(mut schedule: Vec<u64>) -> EvictAt {
        schedule.retain(|&t| t > 0);
        schedule.sort_unstable();
        schedule.dedup();
        EvictAt {
            schedule,
            next: 0,
            seen: 0,
        }
    }
}

impl AlatPolicy for EvictAt {
    fn name(&self) -> String {
        let ticks: Vec<String> = self.schedule.iter().map(|t| t.to_string()).collect();
        format!("evict-at:{}", ticks.join(":"))
    }

    fn on_inst(&mut self) -> FaultAction {
        self.seen += 1;
        if self.next < self.schedule.len() && self.schedule[self.next] == self.seen {
            self.next += 1;
            FaultAction::FlashClear
        } else {
            FaultAction::None
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
/// # Errors
/// A usage message naming the bad policy string.
pub fn parse_fault_policy(s: &str) -> Result<Box<dyn AlatPolicy>, String> {
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
            Ok(Box::new(Deterministic::new()))
        }
        "geom" => {
            arity(2..=2)?;
            let entries = num(rest[0], "entry count")? as usize;
            let ways = num(rest[1], "way count")?.max(1) as usize;
            Ok(Box::new(Deterministic::with_geometry(entries, ways)))
        }
        "always-miss" => {
            arity(0..=0)?;
            Ok(Box::new(Deterministic::with_geometry(0, 1)))
        }
        "forced-miss" => {
            arity(0..=0)?;
            Ok(Box::new(ForcedMiss))
        }
        "random" => {
            arity(1..=2)?;
            let seed = num(rest[0], "seed")?;
            let denom = match rest.get(1) {
                Some(t) => num(t, "denominator")?,
                None => RANDOM_EVICT_DENOM,
            };
            Ok(Box::new(RandomEvict::new(seed, denom)))
        }
        "flash-clear" => {
            arity(0..=1)?;
            let period = match rest.first() {
                Some(t) => num(t, "period")?,
                None => FLASH_CLEAR_PERIOD,
            };
            Ok(Box::new(FlashClear::new(period)))
        }
        "evict-at" => {
            arity(1..=usize::MAX)?;
            let ticks: Vec<u64> = rest
                .iter()
                .map(|t| num(t, "instruction count"))
                .collect::<Result<_, _>>()?;
            Ok(Box::new(EvictAt::new(ticks)))
        }
        _ => Err(format!("unknown fault policy `{s}` (try --help)")),
    }
}

/// The policy strings CI's fault matrix exercises.
pub fn fault_matrix() -> Vec<String> {
    vec![
        "default".into(),
        "always-miss".into(),
        "forced-miss".into(),
        "random:1".into(),
        "random:2".into(),
        "random:3".into(),
        "flash-clear".into(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let p = parse_fault_policy(s).unwrap();
            assert_eq!(p.name(), s, "round-trip of `{s}`");
        }
    }

    #[test]
    fn parse_normalizes_defaults() {
        assert_eq!(
            parse_fault_policy("random:3:16").unwrap().name(),
            "random:3"
        );
        assert_eq!(
            parse_fault_policy("flash-clear:64").unwrap().name(),
            "flash-clear"
        );
        assert_eq!(parse_fault_policy("geom:32:2").unwrap().name(), "default");
        assert_eq!(
            parse_fault_policy("geom:0:2").unwrap().name(),
            "always-miss"
        );
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
            "evict-at:x",
        ] {
            assert!(parse_fault_policy(s).is_err(), "`{s}` should be rejected");
        }
    }

    #[test]
    fn evict_at_fires_exactly_on_schedule() {
        let mut p = EvictAt::new(vec![2, 5, 5, 0]);
        let seq: Vec<FaultAction> = (0..6).map(|_| p.on_inst()).collect();
        assert_eq!(
            seq,
            vec![
                FaultAction::None,
                FaultAction::FlashClear,
                FaultAction::None,
                FaultAction::None,
                FaultAction::FlashClear,
                FaultAction::None,
            ]
        );
        assert_eq!(p.name(), "evict-at:2:5");
    }

    #[test]
    fn always_miss_geometry_is_empty() {
        let p = parse_fault_policy("always-miss").unwrap();
        assert_eq!(p.geometry().entries, 0);
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let mut a = RandomEvict::new(3, 4);
        let mut b = RandomEvict::new(3, 4);
        let mut c = RandomEvict::new(4, 4);
        let seq =
            |p: &mut RandomEvict| -> Vec<FaultAction> { (0..256).map(|_| p.on_inst()).collect() };
        let (sa, sb, sc) = (seq(&mut a), seq(&mut b), seq(&mut c));
        assert_eq!(sa, sb, "same seed, same schedule");
        assert_ne!(sa, sc, "different seed, different schedule");
        assert!(
            sa.iter().any(|f| matches!(f, FaultAction::KillOne(_))),
            "1/4 probability must fire within 256 instructions"
        );
    }

    #[test]
    fn flash_clear_fires_on_period() {
        let mut p = FlashClear::new(3);
        let seq: Vec<FaultAction> = (0..7).map(|_| p.on_inst()).collect();
        assert_eq!(
            seq,
            vec![
                FaultAction::None,
                FaultAction::None,
                FaultAction::FlashClear,
                FaultAction::None,
                FaultAction::None,
                FaultAction::FlashClear,
                FaultAction::None,
            ]
        );
    }
}
