//! # specframe-analysis
//!
//! Control-flow analyses shared by every pass in the `specframe` framework:
//!
//! * [`mod@cfg`] — traversal orders, reachability, critical-edge splitting;
//! * [`dom`] — dominator tree (Cooper–Harvey–Kennedy);
//! * [`df`] — dominance frontiers and iterated dominance frontiers (the φ /
//!   Φ placement machinery of SSA and SSAPRE);
//! * [`loops`] — natural-loop detection and nesting depth;
//! * [`freq`] — edge profiles and static branch-prediction heuristics
//!   (Ball–Larus style), the *control speculation* information source of the
//!   paper's Figure 3.

pub mod cache;
pub mod cfg;
pub mod df;
pub mod dom;
pub mod freq;
pub mod loops;

pub use cache::FuncAnalyses;
pub use cfg::{reachable_blocks, reverse_postorder, split_critical_edges};
pub use df::{iterated_df, DomFrontiers};
pub use dom::{dom_compute_count, DomTree};
pub use freq::{estimate_function, estimate_profile, EdgeProfile};
pub use loops::LoopInfo;
