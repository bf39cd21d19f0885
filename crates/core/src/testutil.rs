//! Setup shared by this crate's unit tests.

use specframe_alias::AliasAnalysis;
use specframe_analysis::FuncAnalyses;
use specframe_hssa::{
    build_hssa, lower_function, resolve_fresh_sites, verify_hssa, HssaFunc, Likeliness, SpecSource,
};
use specframe_ir::{FuncId, MemSiteId, Module};

/// The non-speculative form of `m`'s function `fid`, with the analyses it
/// was built over.
pub(crate) fn plain_hssa(m: &Module, fid: FuncId, aa: &AliasAnalysis) -> (HssaFunc, FuncAnalyses) {
    let f = m.func(fid);
    let fa = FuncAnalyses::compute(f);
    let hf = build_hssa(
        &m.globals,
        f,
        fid,
        aa,
        &Likeliness::new(SpecSource::None),
        &fa,
    );
    (hf, fa)
}

/// Runs `rewrite` over the non-speculative form of every function of the
/// prepared module `m`, verifies the result and lowers it back in place,
/// numbering the memory sites the rewrite synthesized after the module's
/// last one.
pub(crate) fn rewrite_functions(
    m: &mut Module,
    mut rewrite: impl FnMut(&mut HssaFunc, &FuncAnalyses),
) {
    let aa = AliasAnalysis::analyze(m);
    for fi in 0..m.funcs.len() {
        let (mut hf, fa) = plain_hssa(m, FuncId::from_index(fi), &aa);
        rewrite(&mut hf, &fa);
        verify_hssa(&hf).unwrap();
        let (mut f, fresh) = lower_function(&m.funcs[fi], &hf);
        resolve_fresh_sites(&mut f, MemSiteId(m.next_mem_site));
        m.next_mem_site += fresh;
        m.funcs[fi] = f;
    }
}
