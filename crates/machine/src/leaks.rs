//! Static speculative-leak auditor, fencing transform, and the
//! constructed-eviction witness.
//!
//! The speculation-safety auditor ([`crate::audit`]) proves every
//! advanced load reaches a check; this module answers the orthogonal
//! security question: what can a *misspeculated* `ld.a`/`ld.sa` value do
//! **before** that check fires? Between the load and its check the
//! register may hold a stale value (the ALAT entry can be dropped at any
//! instruction boundary), and if that value flows into an address
//! computation or a branch condition the microarchitectural footprint is
//! attacker-observable — the transient-execution leak model of the
//! Spectre literature, specialized to data speculation.
//!
//! Three pieces:
//!
//! * [`leak_audit_func`] — a forward may-dataflow over the same CFG the
//!   speculation auditor walks. Each register maps to the set of *open
//!   speculation windows* (instruction indices of advanced loads whose
//!   check has not yet executed) that may taint it; flows into load/store/
//!   check bases ("address" sinks) and branch conditions ("branch" sinks)
//!   are reported as [`LeakSite`]s.
//! * [`fence_func`] — inserts an [`MInst::Fence`] immediately before each
//!   flagged sink (remapping branch targets), which closes every window on
//!   every path into the sink; a single pass always re-audits clean.
//! * [`construct_leak_witness_on`] — turns a static report into a concrete
//!   run: a probe execution locates the flagged load's dynamic position,
//!   then an `evict-at` schedule ([`FaultPolicy::EvictAt`]) drops the
//!   ALAT entry right after the insert, driving that exact site into
//!   misspeculation. Every static report is thus *witnessed* (taint event
//!   at the sink plus a real failed check) or *refuted* (site unreachable
//!   under the given arguments).
//!
//! The dynamic taint mode ([`crate::sim`]) uses the same frame-local
//! window model, so a program that fences clean statically reports zero
//! taint-to-sink events under every fault policy.

use crate::audit::{forward_fixpoint, RegSets};
use crate::isa::{LdKind, MFunc, MInst, MOperand, MProgram};
use crate::policy::FaultPolicy;
use crate::sim::{run_machine_taint_on, SinkClass};
use crate::target::Target;
use specframe_ir::Value;
use std::collections::BTreeSet;

/// One statically-detected speculative leak: the value of the advanced
/// load at `origin` can reach the sink at `at` before any check closes
/// the window.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LeakSite {
    /// Function both instructions are in.
    pub func: String,
    /// Instruction index of the sink.
    pub at: usize,
    /// Instruction index of the window-opening advanced load.
    pub origin: usize,
    /// Destination register of that load.
    pub origin_reg: u32,
    /// What the value flows into.
    pub sink: SinkClass,
}

impl core::fmt::Display for LeakSite {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "speculative leak in `{}`: advanced load into r{} at inst {} reaches {} sink at inst {} before its check",
            self.func, self.origin_reg, self.origin, self.sink, self.at
        )
    }
}

/// Per-register set of open-window origins (advanced-load instruction
/// indices).
type WinState = RegSets<usize>;

fn oper_wins(st: &WinState, o: MOperand) -> BTreeSet<usize> {
    match o {
        MOperand::R(r) => st[r.0 as usize].clone(),
        _ => BTreeSet::new(),
    }
}

struct LeakWalk<'f> {
    f: &'f MFunc,
    /// `(at, origin, class)` — ordered so reports read in program order.
    sites: BTreeSet<(usize, usize, SinkClass)>,
    /// `(load, check)` pairs closed, for the audit-agreement contract.
    pairs: BTreeSet<(usize, usize)>,
}

impl LeakWalk<'_> {
    fn sink(&mut self, at: usize, ws: &BTreeSet<usize>, class: SinkClass) {
        for &o in ws {
            self.sites.insert((at, o, class));
        }
    }

    fn transfer(&mut self, st: &mut WinState, i: usize) {
        match &self.f.code[i] {
            MInst::Mov { d, s } => st[d.0 as usize] = oper_wins(st, *s),
            MInst::Un { d, a, .. } => st[d.0 as usize] = oper_wins(st, *a),
            MInst::Alu { d, a, b, .. } => {
                let mut w = oper_wins(st, *a);
                w.extend(oper_wins(st, *b));
                st[d.0 as usize] = w;
            }
            MInst::Ld { d, base, kind, .. } => {
                self.sink(i, &oper_wins(st, *base), SinkClass::Address);
                let slot = &mut st[d.0 as usize];
                slot.clear();
                if matches!(kind, LdKind::Advanced | LdKind::SpecAdvanced) {
                    slot.insert(i);
                }
            }
            MInst::Chk { d, base, .. } => {
                self.sink(i, &oper_wins(st, *base), SinkClass::Address);
                // the check resolves every open window whose load targets
                // this register — mirror the dynamic model exactly
                for regwins in st.iter_mut() {
                    regwins.retain(|&o| {
                        let closes = matches!(&self.f.code[o], MInst::Ld { d: ld, .. } if ld == d);
                        if closes {
                            self.pairs.insert((o, i));
                        }
                        !closes
                    });
                }
                st[d.0 as usize].clear();
            }
            MInst::ChkCmp { d, val, .. } => {
                // a software check verdict closes the windows of every
                // advanced load targeting the checked register, exactly
                // like `ld.c` does on an ALAT target; the verdict itself
                // is not a sink (its branch is audited as a branch sink
                // only if a windowed value reaches the condition)
                for regwins in st.iter_mut() {
                    regwins.retain(|&o| {
                        let closes =
                            matches!(&self.f.code[o], MInst::Ld { d: ld, .. } if ld == val);
                        if closes {
                            self.pairs.insert((o, i));
                        }
                        !closes
                    });
                }
                st[val.0 as usize].clear();
                st[d.0 as usize].clear();
            }
            MInst::St { base, .. } => {
                self.sink(i, &oper_wins(st, *base), SinkClass::Address);
            }
            MInst::Br { cond, .. } => {
                self.sink(i, &oper_wins(st, *cond), SinkClass::Branch);
            }
            MInst::Call { d: Some(d), .. } | MInst::Alloc { d, .. } => st[d.0 as usize].clear(),
            MInst::Fence => {
                for w in st.iter_mut() {
                    w.clear();
                }
            }
            MInst::Call { d: None, .. } | MInst::Jmp(_) | MInst::Ret(_) => {}
        }
    }
}

fn walk(f: &MFunc) -> LeakWalk<'_> {
    let mut lw = LeakWalk {
        f,
        sites: BTreeSet::new(),
        pairs: BTreeSet::new(),
    };
    // sites/pairs are sets, so recording on every visit is idempotent and
    // the last visit sees the converged in-state
    forward_fixpoint(f, |st, i| lw.transfer(st, i));
    lw
}

fn reg_of(f: &MFunc, origin: usize) -> u32 {
    match &f.code[origin] {
        MInst::Ld { d, .. } => d.0,
        _ => unreachable!("window origins are loads"),
    }
}

/// Audits one machine function, returning every speculative-leak site in
/// program order (sink index, then origin).
pub fn leak_audit_func(f: &MFunc) -> Vec<LeakSite> {
    walk(f)
        .sites
        .into_iter()
        .map(|(at, origin, sink)| LeakSite {
            func: f.name.clone(),
            at,
            origin,
            origin_reg: reg_of(f, origin),
            sink,
        })
        .collect()
}

/// Audits every function of a lowered program, in function order.
pub fn leak_audit_program(p: &MProgram) -> Vec<LeakSite> {
    p.funcs.iter().flat_map(leak_audit_func).collect()
}

/// The `(advanced load, check)` pairs the leak auditor's window model
/// closes — the same pairing [`crate::audit::check_pairs`] proves, which
/// the two audits' agreement test pins.
pub fn leak_check_pairs(f: &MFunc) -> Vec<(usize, usize)> {
    walk(f).pairs.into_iter().collect()
}

/// Inserts a speculation barrier immediately before every flagged sink of
/// `f`, remapping branch targets so a jump to a fenced sink lands on the
/// fence. Returns the number of fences inserted. One pass suffices: every
/// path into a sink now crosses a window-closing fence last, so the
/// re-audit is clean by construction.
pub fn fence_func(f: &mut MFunc) -> u64 {
    let fence_at: BTreeSet<usize> = leak_audit_func(f).into_iter().map(|s| s.at).collect();
    if fence_at.is_empty() {
        return 0;
    }
    let n = f.code.len();
    let mut new_code: Vec<MInst> = Vec::with_capacity(n + fence_at.len());
    let mut new_index = vec![0usize; n];
    for (i, inst) in f.code.iter().enumerate() {
        new_index[i] = new_code.len();
        if fence_at.contains(&i) {
            new_code.push(MInst::Fence);
        }
        new_code.push(inst.clone());
    }
    for inst in &mut new_code {
        match inst {
            MInst::Jmp(t) => *t = new_index[*t],
            MInst::Br { then_, else_, .. } => {
                *then_ = new_index[*then_];
                *else_ = new_index[*else_];
            }
            _ => {}
        }
    }
    f.code = new_code;
    fence_at.len() as u64
}

/// Fences every function of a program; returns total fences inserted.
pub fn fence_program(p: &mut MProgram) -> u64 {
    p.funcs.iter_mut().map(fence_func).sum()
}

/// Outcome of the adversarial witness construction for one static leak
/// report.
#[derive(Debug, Clone)]
pub struct LeakWitness {
    /// The static report being validated.
    pub site: LeakSite,
    /// The constructed eviction schedule that drove the site into a
    /// witnessed misspeculated leak; `None` when refuted.
    pub policy: Option<FaultPolicy>,
    /// Human-readable outcome.
    pub note: String,
}

impl LeakWitness {
    /// Whether a concrete run confirmed the static report.
    pub fn confirmed(&self) -> bool {
        self.policy.is_some()
    }
}

/// Validates one static leak report with a concrete simulator run on
/// `target`.
///
/// A fault-free probe run records the dynamic instruction count at the
/// flagged load's first execution; an `evict-at` schedule then
/// flash-clears the ALAT on the very next instruction — after the entry
/// is inserted, before the check — forcing that site into real
/// misspeculation. The witness stands when the run records a taint event
/// at the flagged sink *and* at least one failed check (`always-miss` is
/// tried as a fallback schedule). A site the probe never reaches is
/// refuted for those arguments. On a no-ALAT target the same constructed
/// schedules poison software check verdicts instead of dropping ALAT
/// entries — the forced recovery-branch miss plays the eviction's role.
pub fn construct_leak_witness_on(
    prog: &MProgram,
    target: &Target,
    entry: &str,
    args: &[Value],
    fuel: u64,
    site: &LeakSite,
) -> LeakWitness {
    let refuted = |note: String| LeakWitness {
        site: site.clone(),
        policy: None,
        note,
    };
    let probe = match run_machine_taint_on(
        prog,
        target,
        entry,
        args,
        fuel,
        &FaultPolicy::default(),
        &[],
    ) {
        Ok(p) => p,
        Err(e) => return refuted(format!("probe run failed: {e}")),
    };
    let Some(&(_, _, dyn_at)) = probe
        .spec_trace
        .iter()
        .find(|(func, at, _)| func == &site.func && *at == site.origin)
    else {
        return refuted("flagged load never executes under these arguments — refuted".into());
    };
    let candidates = [
        FaultPolicy::EvictAt(vec![dyn_at + 1]),
        FaultPolicy::ALWAYS_MISS,
    ];
    for policy in candidates {
        let Ok(rep) = run_machine_taint_on(prog, target, entry, args, fuel, &policy, &[]) else {
            continue;
        };
        let sink_hit = rep
            .events
            .iter()
            .any(|e| e.func == site.func && e.at == site.at);
        if sink_hit && rep.counters.failed_checks > 0 {
            return LeakWitness {
                site: site.clone(),
                note: format!(
                    "witnessed: constructed eviction `{}` drove the flagged load into \
                     misspeculation with a taint-to-sink event at inst {}",
                    policy.name(),
                    site.at
                ),
                policy: Some(policy),
            };
        }
    }
    refuted("no constructed eviction produced a misspeculated taint-to-sink run — refuted".into())
}

/// Witnesses every site of a static leak report on `target`
/// (deterministic: probe and schedules derive only from the program and
/// arguments).
pub fn witness_leaks_on(
    prog: &MProgram,
    target: &Target,
    entry: &str,
    args: &[Value],
    fuel: u64,
    sites: &[LeakSite],
) -> Vec<LeakWitness> {
    sites
        .iter()
        .map(|s| construct_leak_witness_on(prog, target, entry, args, fuel, s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit;
    use crate::isa::{ChkKind, Reg};
    use crate::sim::{run_machine, run_machine_taint_on};
    use crate::target::TargetId;
    use specframe_ir::Ty;

    fn mf(regs: u32, code: Vec<MInst>) -> MFunc {
        MFunc {
            name: "t".into(),
            params: 0,
            regs,
            slot_words: vec![],
            code,
            promoted_regs: vec![],
        }
    }

    fn lda(d: u32, addr: i64) -> MInst {
        MInst::Ld {
            d: Reg(d),
            base: MOperand::I(addr),
            off: 0,
            ty: Ty::I64,
            kind: LdKind::Advanced,
        }
    }

    fn ldc(d: u32, addr: i64) -> MInst {
        MInst::Chk {
            d: Reg(d),
            base: MOperand::I(addr),
            off: 0,
            ty: Ty::I64,
            kind: ChkKind::Alat,
        }
    }

    #[test]
    fn clean_pair_has_no_leaks() {
        let f = mf(
            1,
            vec![
                lda(0, 16),
                ldc(0, 16),
                MInst::Ret(Some(MOperand::R(Reg(0)))),
            ],
        );
        assert!(leak_audit_func(&f).is_empty());
    }

    #[test]
    fn address_sink_before_check_is_flagged() {
        // ld.a r0; ld r1 <- [r0] (address sink!); ld.c r0
        let f = mf(
            2,
            vec![
                lda(0, 16),
                MInst::Ld {
                    d: Reg(1),
                    base: MOperand::R(Reg(0)),
                    off: 0,
                    ty: Ty::I64,
                    kind: LdKind::Normal,
                },
                ldc(0, 16),
                MInst::Ret(Some(MOperand::R(Reg(1)))),
            ],
        );
        let sites = leak_audit_func(&f);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].at, 1);
        assert_eq!(sites[0].origin, 0);
        assert_eq!(sites[0].origin_reg, 0);
        assert_eq!(sites[0].sink, SinkClass::Address);
    }

    #[test]
    fn branch_sink_through_alu_is_flagged() {
        // the window value flows through an add into a branch condition
        let f = mf(
            2,
            vec![
                lda(0, 16),
                MInst::Alu {
                    d: Reg(1),
                    op: specframe_ir::BinOp::Add,
                    a: MOperand::R(Reg(0)),
                    b: MOperand::I(1),
                },
                MInst::Br {
                    cond: MOperand::R(Reg(1)),
                    then_: 3,
                    else_: 3,
                },
                ldc(0, 16),
                MInst::Ret(None),
            ],
        );
        let sites = leak_audit_func(&f);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].sink, SinkClass::Branch);
        assert_eq!(sites[0].at, 2);
    }

    #[test]
    fn sink_after_check_is_clean() {
        let f = mf(
            2,
            vec![
                lda(0, 16),
                ldc(0, 16),
                MInst::Ld {
                    d: Reg(1),
                    base: MOperand::R(Reg(0)),
                    off: 0,
                    ty: Ty::I64,
                    kind: LdKind::Normal,
                },
                MInst::Ret(Some(MOperand::R(Reg(1)))),
            ],
        );
        assert!(leak_audit_func(&f).is_empty());
    }

    #[test]
    fn fence_clears_and_reaudits_clean() {
        let f0 = mf(
            2,
            vec![
                lda(0, 16),
                MInst::Ld {
                    d: Reg(1),
                    base: MOperand::R(Reg(0)),
                    off: 0,
                    ty: Ty::I64,
                    kind: LdKind::Normal,
                },
                ldc(0, 16),
                MInst::Ret(Some(MOperand::R(Reg(1)))),
            ],
        );
        let mut f = f0.clone();
        let inserted = fence_func(&mut f);
        assert_eq!(inserted, 1);
        assert_eq!(f.code.len(), f0.code.len() + 1);
        assert_eq!(f.code[1], MInst::Fence);
        assert!(leak_audit_func(&f).is_empty(), "re-audit must be clean");
        // the speculation-safety audit still passes on fenced code
        audit::audit_func(&f).unwrap();
        // over the leaky kernel's memory (t = [18] at address 16, then
        // s = [7, 8, 9, 10]) the sink loads s[1]: fencing keeps that
        // result and cannot make the run cheaper
        let kernel = |f: MFunc| MProgram {
            funcs: vec![f],
            global_image: (16..)
                .zip([18, 7, 8, 9, 10])
                .map(|(a, v)| (a, Value::I(v)))
                .collect(),
            globals_end: 21,
        };
        let (want, c0) = run_machine(&kernel(f0), "t", &[], 100_000).unwrap();
        let (got, c1) = run_machine(&kernel(f), "t", &[], 100_000).unwrap();
        assert_eq!(want, Some(Value::I(8)));
        assert_eq!(got, want, "fencing changed the architectural result");
        assert!(c1.cycles >= c0.cycles, "a fence cannot be free");
    }

    #[test]
    fn fence_remaps_branch_targets_onto_fence() {
        // 0: br -> 1 / 3 ; 1: ld.a ; 2: st [r0] (sink) ; 3..: check+ret
        let f0 = mf(
            2,
            vec![
                MInst::Br {
                    cond: MOperand::I(1),
                    then_: 1,
                    else_: 2,
                },
                lda(0, 16),
                MInst::St {
                    base: MOperand::R(Reg(0)),
                    off: 0,
                    val: MOperand::I(7),
                    ty: Ty::I64,
                },
                ldc(0, 16),
                MInst::Ret(None),
            ],
        );
        let mut f = f0.clone();
        assert_eq!(fence_func(&mut f), 1);
        // the edge that jumped straight to the sink must land on the fence
        let MInst::Br { else_, .. } = &f.code[0] else {
            panic!("branch survived");
        };
        assert_eq!(f.code[*else_], MInst::Fence);
        assert!(leak_audit_func(&f).is_empty());
    }

    #[test]
    fn pairing_agrees_with_speculation_audit() {
        // straight-line, branchy, and merge-point shapes
        let shapes = vec![
            mf(
                2,
                vec![
                    lda(0, 16),
                    ldc(0, 16),
                    MInst::Ret(Some(MOperand::R(Reg(0)))),
                ],
            ),
            mf(
                3,
                vec![
                    lda(0, 16),
                    lda(1, 17),
                    ldc(1, 17),
                    ldc(0, 16),
                    MInst::Ret(None),
                ],
            ),
            mf(
                2,
                vec![
                    MInst::Br {
                        cond: MOperand::R(Reg(1)),
                        then_: 1,
                        else_: 3,
                    },
                    lda(0, 16),
                    MInst::Jmp(4),
                    lda(0, 16),
                    ldc(0, 16),
                    MInst::Ret(Some(MOperand::R(Reg(0)))),
                ],
            ),
        ];
        for f in &shapes {
            assert_eq!(
                audit::check_pairs(f),
                leak_check_pairs(f),
                "pairing disagreement in `{}`",
                f.name
            );
        }
    }

    #[test]
    fn witness_confirms_real_leak_site() {
        let f = mf(
            2,
            vec![
                lda(0, 16),
                MInst::Ld {
                    d: Reg(1),
                    base: MOperand::R(Reg(0)),
                    off: 0,
                    ty: Ty::I64,
                    kind: LdKind::Normal,
                },
                ldc(0, 16),
                MInst::Ret(Some(MOperand::R(Reg(1)))),
            ],
        );
        let p = MProgram {
            funcs: vec![f],
            global_image: vec![(16, Value::I(17)), (17, Value::I(5))],
            globals_end: 18,
        };
        let sites = leak_audit_program(&p);
        assert_eq!(sites.len(), 1);
        let w = construct_leak_witness_on(&p, TargetId::Epic.spec(), "t", &[], 10_000, &sites[0]);
        assert!(w.confirmed(), "witness must confirm: {}", w.note);
        let policy = w.policy.unwrap();
        assert!(
            matches!(policy, FaultPolicy::EvictAt(_)),
            "targeted schedule: {policy:?}"
        );
    }

    #[test]
    fn witness_refutes_unreachable_site() {
        // the leaky path is statically flagged but dynamically dead
        let f = mf(
            3,
            vec![
                // 0: always branch over the leak
                MInst::Br {
                    cond: MOperand::I(1),
                    then_: 4,
                    else_: 1,
                },
                lda(0, 16),
                MInst::Ld {
                    d: Reg(1),
                    base: MOperand::R(Reg(0)),
                    off: 0,
                    ty: Ty::I64,
                    kind: LdKind::Normal,
                },
                ldc(0, 16),
                MInst::Ret(None),
            ],
        );
        let p = MProgram {
            funcs: vec![f],
            global_image: vec![(16, Value::I(17)), (17, Value::I(5))],
            globals_end: 18,
        };
        let sites = leak_audit_program(&p);
        assert_eq!(sites.len(), 1);
        let w = construct_leak_witness_on(&p, TargetId::Epic.spec(), "t", &[], 10_000, &sites[0]);
        assert!(!w.confirmed(), "dead site must be refuted: {}", w.note);
    }

    #[test]
    fn taint_sim_agrees_with_static_audit_on_fenced_code() {
        // dynamic taint mode sees zero events on statically-fenced code
        let f = mf(
            2,
            vec![
                lda(0, 16),
                MInst::Ld {
                    d: Reg(1),
                    base: MOperand::R(Reg(0)),
                    off: 0,
                    ty: Ty::I64,
                    kind: LdKind::Normal,
                },
                ldc(0, 16),
                MInst::Ret(Some(MOperand::R(Reg(1)))),
            ],
        );
        let mut p = MProgram {
            funcs: vec![f],
            global_image: vec![(16, Value::I(17)), (17, Value::I(5))],
            globals_end: 18,
        };
        let unfenced = run_machine_taint_on(
            &p,
            TargetId::Epic.spec(),
            "t",
            &[],
            10_000,
            &FaultPolicy::default(),
            &[16],
        )
        .unwrap();
        assert!(unfenced.counters.leak_addr_events > 0);
        assert!(unfenced.counters.taint_loads > 0, "secret address was read");
        assert!(
            unfenced.counters.leak_secret_events > 0,
            "the leaked address value is itself secret-tainted"
        );
        let fences = fence_program(&mut p);
        assert_eq!(fences, 1);
        let fenced = run_machine_taint_on(
            &p,
            TargetId::Epic.spec(),
            "t",
            &[],
            10_000,
            &FaultPolicy::default(),
            &[16],
        )
        .unwrap();
        assert_eq!(fenced.counters.leak_addr_events, 0);
        assert_eq!(fenced.counters.leak_branch_events, 0);
        assert_eq!(fenced.counters.fences_retired, 1);
        assert_eq!(
            fenced.result, unfenced.result,
            "fence is architecturally silent"
        );
        assert_eq!(
            fenced.counters.cycles,
            unfenced.counters.cycles + crate::costs::CostModel::EPIC.fence
        );
    }
}
