//! # specframe
//!
//! A Rust reproduction of *"A Compiler Framework for Speculative Analysis
//! and Optimizations"* (Lin, Chen, Hsu, Yew, Ju, Ngai, Chan — PLDI 2003):
//! a compiler framework in which **data speculation** — not just control
//! speculation — drives general dataflow optimizations, checked at run
//! time by IA-64-style hardware (`ld.a` / `ld.c` / the ALAT).
//!
//! This crate is the facade over the workspace:
//!
//! | crate | role |
//! |-------|------|
//! | [`ir`] | the mid-level IR (the paper's WHIRL stand-in) |
//! | [`analysis`] | CFG, dominators, loops, edge profiles & branch heuristics |
//! | [`alias`] | LOCs, Steensgaard equivalence classes, TBAA, mod/ref |
//! | [`profile`] | interpreter, alias/edge profilers, load-reuse simulation |
//! | [`hssa`] | the **speculative SSA form** (χs/μs, §3) |
//! | [`core`] | **speculative SSAPRE** (§4): PRE, register promotion, SR, LFTR |
//! | [`codegen`] | lowering to the EPIC target |
//! | [`machine`] | ALAT model + cycle-approximate simulator (`pfmon` counters) |
//! | [`workloads`] | the eight SPEC2000-personality kernels |
//!
//! ## Quickstart
//!
//! ```
//! use specframe::prelude::*;
//!
//! let src = r#"
//! global a: i64[1] = [7]
//! global b: i64[1]
//!
//! func kern(p: ptr, n: i64) -> i64 {
//!   var i: i64
//!   var c: i64
//!   var v: i64
//!   var acc: i64
//! entry:
//!   i = 0
//!   acc = 0
//!   jmp head
//! head:
//!   c = lt i, n
//!   br c, body, exit
//! body:
//!   v = load.i64 [@a]
//!   acc = add acc, v
//!   store.i64 [p], acc
//!   i = add i, 1
//!   jmp head
//! exit:
//!   ret acc
//! }
//!
//! func main(sel: i64, n: i64) -> i64 {
//!   var r: i64
//!   var p: ptr
//! entry:
//!   br sel, ua, ub
//! ua:
//!   p = @a
//!   jmp go
//! ub:
//!   p = @b
//!   jmp go
//! go:
//!   r = call kern(p, n)
//!   ret r
//! }
//! "#;
//!
//! // parse, prepare, profile on the training input
//! let mut m = parse_module(src).unwrap();
//! prepare_module(&mut m);
//! let mut profiler = AliasProfiler::new();
//! let args = [Value::I(0), Value::I(100)];
//! run_with(&m, "main", &args, 1_000_000, &mut profiler).unwrap();
//! let aprof = profiler.finish();
//!
//! // optimize with data + control speculation
//! let stats = optimize(&mut m, &OptOptions {
//!     data: SpecSource::Profile(&aprof),
//!     control: ControlSpec::Static,
//!     strength_reduction: true,
//!     lftr: true,
//!     store_sinking: true,
//!     target: TargetId::Epic,
//! });
//! assert!(stats.checks > 0);
//!
//! // run on the EPIC machine and read the pfmon-style counters
//! let prog = lower_module(&m);
//! let (result, counters) = run_machine(&prog, "main", &args, 1_000_000).unwrap();
//! assert_eq!(result, Some(Value::I(700)));
//! assert!(counters.check_loads > 0);
//! assert_eq!(counters.failed_checks, 0); // the profile held
//! ```

pub use specframe_alias as alias;
pub use specframe_analysis as analysis;
pub use specframe_codegen as codegen;
pub use specframe_core as core;
pub use specframe_hssa as hssa;
pub use specframe_ir as ir;
pub use specframe_machine as machine;
pub use specframe_profile as profile;
pub use specframe_workloads as workloads;

pub mod pipeline;
pub mod serve;

/// The most common imports in one place.
pub mod prelude {
    pub use crate::pipeline::{
        compile, compile_module, parse_flags, reduce_failure, simulate_text, CompileFailure,
        CompileOutput, CompileRequest, ControlKind, Invocation, SecretLoc, SimOptions, SpecKind,
    };
    pub use crate::serve::{serve_queue, serve_stdin, ServeConfig};
    pub use specframe_alias::{AliasAnalysis, Loc};
    pub use specframe_analysis::FuncAnalyses;
    pub use specframe_codegen::{lower_module, lower_module_for};
    pub use specframe_core::{
        optimize, prepare_module, reduce_module, render_dumps, try_optimize_cached, ControlSpec,
        OptOptions, OptReport, OptStats, Pass, PassDump, PassSet, PassTimings, PipelineConfig,
        PipelineHooks, ReduceStats, SpecSource,
    };
    pub use specframe_hssa::{build_hssa, print_hssa, Likeliness};
    pub use specframe_ir::display::func_name_table;
    pub use specframe_ir::{parse_module, verify_module, Module, ModuleBuilder, Ty, Value};
    pub use specframe_machine::{audit_func, audit_program, AuditError, AuditStats};
    pub use specframe_machine::{
        fault_matrix, parse_fault_policy, run_machine, run_machine_on, run_machine_with_policy_on,
        Counters, FaultPolicy, TargetId,
    };
    pub use specframe_profile::{
        run, run_with, train, AliasProfiler, Collect, EdgeProfiler, ReuseSimulator, Training,
    };
    pub use specframe_workloads::{
        all_workloads, inst_count, mega_module, mega_source, workload_by_name, Scale, Workload,
    };
}
