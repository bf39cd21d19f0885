//! Step 2: Rename.
//!
//! A preorder dominator-tree walk maintains an expression stack alongside
//! one version stack per operand variable and assigns h-versions (classes)
//! to the real occurrences and Φ operands. The speculative extension
//! (paper Figure 7): when the memory versions of two occurrences differ
//! *only through speculative weak updates* — checked by the weak-chain
//! walker over the candidate's χ def chain — they receive the same class
//! with a speculation flag.
//!
//! A real occurrence is matched with the versions it carries itself; the
//! variable version stacks are read only at Φ entries and Φ operands. A
//! candidate without Φs therefore skips the per-statement def tracking and
//! visits just its occurrence slices.

use super::{mem_def_table, weak_reaches, Kernel, OpndDef, NO_PHI};
use crate::expr::OccVersions;
use specframe_hssa::{HStmtKind, HVarKind, HssaFunc};
use specframe_ir::{BlockId, DenseMap};

#[derive(Clone, Debug)]
enum Top {
    Real(usize),
    Phi(usize),
}

struct Entry {
    class: u32,
    top: Top,
    vers: OccVersions,
}

enum Walk {
    Visit(BlockId),
    /// Unwinds to the stack heights at the block's entry.
    Pop {
        exprs: usize,
        defs: usize,
    },
}

impl Kernel<'_> {
    pub(crate) fn rename(&mut self, hf: &HssaFunc) {
        let Kernel {
            client,
            dt,
            occs,
            occ_rng,
            phis,
            phi_at,
            ..
        } = self;
        let client = *client;
        let tracked_regs = &client.tracked_regs;
        let mem_var = client.mem_var;
        let base_collapsed = client.base_collapsed;
        let data = client.policy.data();
        let track_defs = !phis.is_empty();
        // only weak-chain matching reads the memory def table
        let mem_defs = match mem_var {
            Some(mv) if data => mem_def_table(hf, mv),
            _ => DenseMap::new(),
        };

        // Does a value with operand versions `cur` match the expression on
        // top of the stack? `Some(spec)` joins its class (`spec` when only
        // speculatively equal); `None` starts a new one.
        let matches = |top: &OccVersions, cur: &OccVersions| -> Option<bool> {
            let regs_exact = top.regs == cur.regs;
            // a collapsed base's versions are injuring defs, not kills
            let regs_eq = regs_exact || (base_collapsed && data);
            if !regs_eq {
                return None;
            }
            if top.mem == cur.mem {
                return Some(!regs_exact);
            }
            match (data, cur.mem, top.mem) {
                (true, Some(c), Some(a)) => weak_reaches(hf, &mem_defs, client, c, a),
                _ => None,
            }
        };

        let mut next_class = 0u32;
        let mut expr_stack: Vec<Entry> = Vec::new();
        // variable version stacks: the tracked regs by position, then mem
        let mem_slot = tracked_regs.len();
        let mut var_stacks: Vec<Vec<u32>> = vec![vec![0]; mem_slot + 1];
        // the var stack of every push, unwound when its block is left
        let mut pushed: Vec<usize> = Vec::new();
        let tops = |var_stacks: &[Vec<u32>]| OccVersions {
            regs: var_stacks[..mem_slot]
                .iter()
                .map(|s| *s.last().expect("a stack keeps its entry version"))
                .collect(),
            mem: mem_var.map(|_| {
                *var_stacks[mem_slot]
                    .last()
                    .expect("a stack keeps its entry version")
            }),
        };

        let mut walk = vec![Walk::Visit(dt.rpo()[0])];
        while let Some(w) = walk.pop() {
            let b = match w {
                Walk::Pop { exprs, defs } => {
                    expr_stack.truncate(exprs);
                    for i in pushed.drain(defs..) {
                        var_stacks[i].pop();
                    }
                    continue;
                }
                Walk::Visit(b) => b,
            };
            // the whole block is handled before its children are popped
            walk.push(Walk::Pop {
                exprs: expr_stack.len(),
                defs: pushed.len(),
            });
            walk.extend(dt.children(b).iter().rev().map(|&c| Walk::Visit(c)));
            let blk = &hf.blocks[b.index()];

            if track_defs {
                // (a) variable phis at block entry
                for phi in &blk.phis {
                    let slot = match hf.catalog.kind(phi.var) {
                        HVarKind::Reg(v) => tracked_regs.iter().position(|&r| r == v),
                        _ => (Some(phi.var) == mem_var).then_some(mem_slot),
                    };
                    if let Some(i) = slot {
                        var_stacks[i].push(phi.dest);
                        pushed.push(i);
                    }
                }
                // (b) expression Phi
                if phi_at[b.index()] != NO_PHI {
                    let pi = phi_at[b.index()] as usize;
                    phis[pi].class = next_class;
                    expr_stack.push(Entry {
                        class: next_class,
                        top: Top::Phi(pi),
                        vers: tops(&var_stacks),
                    });
                    next_class += 1;
                }
            }

            // (c) real occurrences: the block's slice occ_rng[b], in
            // statement order
            let (lo, hi) = (occ_rng[b.index()].0 as usize, occ_rng[b.index()].1 as usize);
            for (oi, occ) in (lo..hi).zip(&mut occs[lo..hi]) {
                let joined = expr_stack
                    .last()
                    .and_then(|top| Some((top.class, matches(&top.vers, &occ.vers)?)));
                match joined {
                    Some((class, spec)) => {
                        occ.class = class;
                        occ.spec = spec;
                    }
                    None => {
                        occ.class = next_class;
                        next_class += 1;
                    }
                }
                expr_stack.push(Entry {
                    class: occ.class,
                    top: Top::Real(oi),
                    vers: occ.vers.clone(),
                });
            }

            if !track_defs {
                continue;
            }

            // (d) variable defs, for the Φ operands below and the Φ entries
            // of dominated blocks (not interleaved with (c): occurrences
            // never read the stacks)
            for stmt in &blk.stmts {
                if let Some((v, ver)) = stmt.def_reg() {
                    if let Some(i) = tracked_regs.iter().position(|&r| r == v) {
                        var_stacks[i].push(ver);
                        pushed.push(i);
                    }
                }
                if let Some(mv) = mem_var {
                    if let HStmtKind::Store {
                        dvar_def: Some((id, ver)),
                        ..
                    } = &stmt.kind
                    {
                        if *id == mv {
                            var_stacks[mem_slot].push(*ver);
                            pushed.push(mem_slot);
                        }
                    }
                    if let Some(chi) = stmt.chi_of(mv) {
                        var_stacks[mem_slot].push(chi.new_ver);
                        pushed.push(mem_slot);
                    }
                }
            }

            // (e) expression-Phi operands in successors
            let succs = blk
                .term
                .as_ref()
                .map(|t| t.successors())
                .unwrap_or_default();
            for s in succs {
                let pi = phi_at[s.index()];
                if pi == NO_PHI {
                    continue;
                }
                let Some(op_idx) = hf.pred_index(s, b) else {
                    continue;
                };
                let cur = tops(&var_stacks);
                let bind = expr_stack.last().and_then(|top| {
                    let spec = matches(&top.vers, &cur)?;
                    Some(match top.top {
                        Top::Real(i) => (OpndDef::Real(i), true, spec),
                        Top::Phi(i) => (OpndDef::Phi(i), false, spec),
                    })
                });
                let opnd = &mut phis[pi as usize].opnds[op_idx];
                opnd.vers_at_pred = cur;
                if let Some((def, has_real_use, spec)) = bind {
                    opnd.def = def;
                    opnd.has_real_use = has_real_use;
                    opnd.spec = spec;
                }
            }
        }
        self.next_class = next_class;
    }
}
