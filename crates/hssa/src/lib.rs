//! # specframe-hssa
//!
//! The **speculative SSA form** of §3 of the paper — an HSSA variant (Chow
//! et al., CC '96) in which may-def (χ) and may-use (μ) operators carry a
//! *speculation flag* saying whether the alias they model is **highly
//! likely** to be substantiated at run time:
//!
//! * a flagged χ (`χs`) is a *speculative update*: it must be honoured;
//! * an **unflagged χ is a speculative weak update**: optimizations may
//!   ignore it, provided a check instruction (`ld.c`) re-validates the
//!   speculated value at the original location;
//! * flagged μ (`μs`) marks a reference that is highly likely to actually
//!   touch the variable.
//!
//! Flags come from an **alias profile** (§3.2.1) or from the three
//! **heuristic rules** of §3.2.2; with speculation disabled every χ/μ is
//! flagged, which degenerates to classic HSSA and gives the paper's O3
//! baseline.
//!
//! Module map:
//! * [`hvar`] — the SSA variable space: registers, direct-memory variables
//!   ("real variables"), and one *virtual variable* per Steensgaard alias
//!   class (the paper's vvar assignment rule);
//! * [`stmt`] — versioned statements, φ nodes, χ/μ operators;
//! * [`build`] — χ/μ list construction, speculation-flag assignment, φ
//!   insertion and renaming (Figure 4's pipeline);
//! * [`oracle`] — the [`Likeliness`] oracle, the single seam answering
//!   every χ/μ likeliness question (§3.2's profile and heuristic sources);
//! * [`lower`] — out-of-SSA lowering back to executable IR;
//! * [`mod@print`] — paper-style textual dumps (`a2 <- chi(a1)`, `mu_s(b2)`).

pub mod build;
pub mod hvar;
pub mod lower;
pub mod oracle;
pub mod print;
pub mod refine;
pub mod stmt;

pub use build::{build_hssa, verify_hssa, HssaVerifyError, SpecSource};
pub use hvar::{HVarId, HVarKind, MemBase, MemVar, VarCatalog};
pub use lower::{lower_function, resolve_fresh_sites, LOCAL_FRESH_BASE};
pub use oracle::{
    ChiRefine, FnEvidence, Likeliness, RefineStmt, SiteQuery, SpecCosts, Verdict, Why,
};
pub use print::print_hssa;
pub use refine::refine_function;
pub use stmt::{ChiOp, HBlock, HOperand, HStmt, HStmtKind, HTerm, HssaFunc, MuOp, Phi, FRESH_SITE};
