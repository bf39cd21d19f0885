//! # specframe-ir
//!
//! The mid-level intermediate representation used by the `specframe`
//! speculative-compiler framework, a reproduction of *"A Compiler Framework
//! for Speculative Analysis and Optimizations"* (PLDI 2003).
//!
//! The IR plays the role that WHIRL played inside ORC in the paper: a typed,
//! C-like, three-address program representation in which **all memory
//! traffic is explicit**. Scalars live in an unbounded set of virtual
//! registers ([`VarId`]); memory consists of globals ([`GlobalId`]), stack
//! slots ([`SlotId`]) and heap objects created by [`Inst::Alloc`]. A memory
//! access is *direct* when its base address is a [`Operand::GlobalAddr`] or
//! [`Operand::SlotAddr`] (the paper's "real variable" references such as
//! `a`), and *indirect* when the base is a register (the paper's `*p`).
//!
//! The distinction matters because the entire paper is about what a compiler
//! may assume about the interaction between direct and indirect references:
//! non-speculative analyses must honour every may-alias, while the
//! speculative SSA form of §3 lets optimizations ignore *unlikely* aliases
//! and recover through hardware checks (`ld.a`/`ld.c`/`chk.a` — see
//! [`LoadSpec`] and [`Inst::CheckLoad`]).
//!
//! ## Layout conventions
//!
//! Memory is word-addressed: every address names an 8-byte cell holding an
//! `i64` or `f64`. Pointers are plain `i64` word addresses. Offsets in
//! addressing modes (`[p + 3]`) are in words.
//!
//! ## Module map
//!
//! * [`types`] — value types and runtime values
//! * [`ids`] — index newtypes for every IR entity
//! * [`inst`] — operands, instructions, terminators, speculation flags
//! * [`function`] — blocks, functions, globals, modules
//! * [`memory`] — the word memory and address layout both executors share
//! * [`builder`] — programmatic construction API
//! * [`display`] — pretty printer (round-trips through the parser)
//! * [`parse`] — textual parser
//! * [`verify`] — structural verifier

pub mod builder;
pub mod dense;
pub mod display;
pub mod function;
pub mod fx;
pub mod ids;
pub mod inst;
pub mod memory;
pub mod parse;
pub mod types;
pub mod verify;

pub use builder::{FuncBuilder, ModuleBuilder};
pub use dense::{DenseMap, InlineVec};
pub use function::{layout_globals, Block, FuncSlot, Function, Global, Module, SlotDecl, VarDecl};
pub use fx::{FxHashMap, FxHashSet, FxHasher};
pub use ids::{AllocSiteId, BlockId, CallSiteId, FuncId, GlobalId, MemSiteId, SlotId, VarId};
pub use inst::{BinOp, CheckKind, Inst, LoadSpec, Operand, Terminator, UnOp};
pub use memory::{Memory, MEM_CAP, STACK_WORDS};
pub use parse::{parse_module, ParseError};
pub use types::{Ty, Value};
pub use verify::{verify_function, verify_module, CalleeSig, VerifyError};
