//! Step 4: WillBeAvailable.
//!
//! `can_be_avail` / `later` propagation over the Φ graph, exactly as in
//! SSAPRE (Kennedy et al., TOPLAS '99), plus the speculative taint pass:
//! a Φ is *tainted* when some incoming value is only speculatively equal,
//! which Finalize turns into checking reloads downstream.

use super::{Kernel, OpndDef};

impl Kernel<'_> {
    pub(crate) fn willbeavail(&mut self) {
        let phis = &mut self.phis;
        // can_be_avail
        let mut queue: Vec<usize> = Vec::new();
        for (i, p) in phis.iter_mut().enumerate() {
            if !(p.down_safe || p.cspec) && p.opnds.iter().any(|o| o.def == OpndDef::Bottom) {
                p.can_be_avail = false;
                queue.push(i);
            }
        }
        while let Some(dead) = queue.pop() {
            for (i, p) in phis.iter_mut().enumerate() {
                if !p.can_be_avail {
                    continue;
                }
                let affected = p
                    .opnds
                    .iter()
                    .any(|o| o.def == OpndDef::Phi(dead) && !o.has_real_use);
                if affected && !(p.down_safe || p.cspec) {
                    p.can_be_avail = false;
                    queue.push(i);
                }
            }
        }
        // later
        for p in phis.iter_mut() {
            p.later = p.can_be_avail;
        }
        let mut queue: Vec<usize> = Vec::new();
        for (i, p) in phis.iter_mut().enumerate() {
            if p.later {
                let has_real = p
                    .opnds
                    .iter()
                    .any(|o| o.has_real_use || matches!(o.def, OpndDef::Real(_)));
                if has_real {
                    p.later = false;
                    queue.push(i);
                }
            }
        }
        while let Some(early) = queue.pop() {
            for (i, p) in phis.iter_mut().enumerate() {
                if p.later && p.opnds.iter().any(|o| o.def == OpndDef::Phi(early)) {
                    p.later = false;
                    queue.push(i);
                }
            }
        }
        for p in phis.iter_mut() {
            p.will_be_avail = p.can_be_avail && !p.later;
        }

        // taint: speculative values flowing into Phis
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..phis.len() {
                if phis[i].tainted {
                    continue;
                }
                let t = phis[i].opnds.iter().any(|o| {
                    o.spec
                        || match o.def {
                            OpndDef::Phi(j) => phis[j].tainted,
                            _ => false,
                        }
                });
                if t {
                    phis[i].tainted = true;
                    changed = true;
                }
            }
        }
    }
}
