//! Content-addressed cache keys.
//!
//! A function's key must change whenever *anything* that can influence its
//! cached entry changes, and must be bit-stable across process restarts
//! (no pointer values, no `HashMap` iteration order). The key covers:
//!
//! 1. the cache format version ([`CACHE_FORMAT_VERSION`]);
//! 2. the optimization configuration: every [`OptOptions`] knob plus the
//!    output-shaping [`PipelineHooks`] (`--dump-after`, `--stop-after`,
//!    `--verify-each`, `--audit-spec`) — the fault-injection hooks disable
//!    caching entirely, so they never reach a key;
//! 3. a module-context digest: every global's name, type and size, and
//!    every function signature, because lowering resolves global addresses
//!    and call targets against them. Initializers stay out: only the
//!    whole-module machine lowering reads them, outside the cache, so an
//!    initializer edit invalidates nothing;
//! 4. the function itself: the codec's canonical byte encoding of the
//!    whole body (params, vars, slots, blocks, instructions *including*
//!    their raw memory/call/alloc site ids — module-global names the
//!    pretty-printer elides, so two textually identical bodies with
//!    different site numbering are still different cache entries). Using
//!    the same encoder as the entry payload keeps keying a byte walk
//!    instead of a pretty-print — the dominant cost of a warm probe;
//! 5. the alias slice the χ/μ construction consults: the value class of
//!    every variable, the access class of every load, store and check
//!    ([`AliasAnalysis::access_class`]: the pointee class of a register
//!    base, the location's own class for `@g`/`&slot`), and each callee's
//!    mod and ref classes. Classes are numbered by first occurrence in this
//!    walk, so the key records which accesses share a class without
//!    depending on Steensgaard's module-wide numbering, and each class
//!    contributes its LOC list. A caller edit that makes a pointer
//!    parameter alias a global the function loads therefore moves the
//!    function's key even though its body did not change. When an
//!    HSSA-level pass is dumped, the raw class id of each virtual variable
//!    enters too, because the HSSA printer names them `vv<class id>`;
//! 6. when speculation is profile-guided, the slice of the alias/edge
//!    profile this function's sites can observe — a profile change can
//!    never serve stale speculation decisions.

use crate::driver::{ControlSpec, OptOptions, SpecSource};
use crate::passes::{Pass, PipelineHooks};
use specframe_alias::{AliasAnalysis, ClassId, Loc};
use specframe_analysis::EdgeProfile;
use specframe_ir::{FuncId, Function, Inst, Module, Operand, Ty, VarId};
use specframe_profile::AliasProfile;

/// Bumped whenever the entry payload layout, its checksum, the key
/// derivation or the lowered form the optimizer emits changes (the key has
/// no optimizer revision); old entries then decode as version-skewed and
/// degrade to fresh compiles.
pub const CACHE_FORMAT_VERSION: u32 = 5;

/// A 128-bit content hash naming one cache entry.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CacheKey(pub [u8; 16]);

impl CacheKey {
    /// Lower-case hex spelling (32 chars) — the on-disk file stem.
    pub fn hex(&self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Parses the [`CacheKey::hex`] spelling back.
    pub fn from_hex(s: &str) -> Option<CacheKey> {
        if s.len() != 32 || !s.is_ascii() {
            return None;
        }
        let mut out = [0u8; 16];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = (hi * 16 + lo) as u8;
        }
        Some(CacheKey(out))
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Two independent multiply-rotate lanes folded into a 128-bit key.
/// Deliberately hand-rolled: `DefaultHasher` is allowed to change between
/// Rust releases and `fxhash` is not collision-resistant enough for content
/// addressing; two decorrelated 64-bit lanes are plenty for a compile cache
/// (a false hit needs a 128-bit collision *and* an identical config
/// fingerprint). Bulk input is absorbed a word at a time — the canonical
/// function body dominates key cost on the warm path, and a byte-at-a-time
/// FNV there is ~8× the work. Note the digest therefore depends on `write`
/// call boundaries (unlike FNV, `write(ab)` ≠ `write(a);write(b)`); keys
/// are only ever compared between identical derivation code paths, so the
/// boundaries are deterministic.
#[derive(Clone, Debug)]
pub struct StableHasher {
    a: u64,
    b: u64,
}

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A fresh hasher at the standard offset basis.
    pub fn new() -> StableHasher {
        StableHasher {
            a: FNV_OFFSET,
            b: FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Absorbs raw bytes, eight at a time.
    pub fn write(&mut self, bytes: &[u8]) {
        const K2: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            self.a = (self.a ^ w).wrapping_mul(FNV_PRIME).rotate_left(29);
            // the second lane sees each word rotated and a different
            // multiplier so the lanes do not collide on the same inputs
            self.b = (self.b ^ w.rotate_left(17))
                .wrapping_mul(K2)
                .rotate_left(31);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            // pad the tail to a word, folding the tail length in so
            // `[x]` and `[x, 0]` stay distinct
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            tail[7] ^= 0x80 | rem.len() as u8;
            let w = u64::from_le_bytes(tail);
            self.a = (self.a ^ w).wrapping_mul(FNV_PRIME).rotate_left(29);
            self.b = (self.b ^ w.rotate_left(17))
                .wrapping_mul(K2)
                .rotate_left(31);
        }
    }

    /// Absorbs a length-prefixed string (prefixing prevents `"ab","c"` from
    /// colliding with `"a","bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Absorbs a little-endian u32.
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a little-endian u64.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a bool as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Folds both lanes into the final 128-bit key.
    pub fn finish(&self) -> CacheKey {
        // one avalanche round per lane so short inputs still spread
        let mix = |mut x: u64| {
            x ^= x >> 33;
            x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
            x ^= x >> 33;
            x
        };
        let a = mix(self.a);
        let b = mix(self.b);
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&a.to_le_bytes());
        out[8..].copy_from_slice(&b.to_le_bytes());
        CacheKey(out)
    }
}

fn hash_ty(h: &mut StableHasher, ty: Ty) {
    h.write_u8(match ty {
        Ty::I64 => 0,
        Ty::F64 => 1,
        Ty::Ptr => 2,
    });
}

fn hash_loc(h: &mut StableHasher, loc: Loc) {
    match loc {
        Loc::Global(g) => {
            h.write_u8(0);
            h.write_u32(g.0);
        }
        Loc::Slot(fs) => {
            h.write_u8(1);
            h.write_u32(fs.func.0);
            h.write_u32(fs.slot.0);
        }
        Loc::Heap(a) => {
            h.write_u8(2);
            h.write_u32(a.0);
        }
    }
}

fn pass_index(p: Pass) -> u8 {
    Pass::ALL.iter().position(|&q| q == p).expect("pass in ALL") as u8
}

/// The passes whose `--dump-after` snapshots print HSSA, where virtual
/// variables are named by raw alias-class id.
const HSSA_DUMPS: [Pass; 5] = [
    Pass::Hssa,
    Pass::Ssapre,
    Pass::Strength,
    Pass::Lftr,
    Pass::Storeprom,
];

/// Per-module context for deriving per-function cache keys.
///
/// Construction hashes everything function-independent once (config
/// fingerprint + module-context digest); [`KeyContext::function_key`] then
/// folds in the per-function material.
pub struct KeyContext<'a> {
    m: &'a Module,
    aa: &'a AliasAnalysis,
    opts: &'a OptOptions<'a>,
    /// Hash state after the version, config fingerprint, and module
    /// context digest — cloned as the seed of every function key.
    seed: StableHasher,
    /// Whether the raw ids of printed classes enter the key (an HSSA-level
    /// pass is dumped).
    raw_class_ids: bool,
}

impl<'a> KeyContext<'a> {
    /// Builds the shared key context for one `optimize` run.
    pub fn new(
        m: &'a Module,
        aa: &'a AliasAnalysis,
        opts: &'a OptOptions<'a>,
        hooks: &PipelineHooks,
    ) -> KeyContext<'a> {
        let mut h = StableHasher::new();
        h.write_u32(CACHE_FORMAT_VERSION);

        // --- config fingerprint ---
        match opts.data {
            SpecSource::None => h.write_u8(0),
            SpecSource::Profile(_) => h.write_u8(1), // profile content hashed per function
            SpecSource::Heuristic => h.write_u8(2),
            SpecSource::Aggressive => h.write_u8(3),
        }
        match opts.control {
            ControlSpec::Off => h.write_u8(0),
            ControlSpec::Profile(_) => h.write_u8(1), // ditto
            // the static estimator is a pure function of the body, which is
            // already in the key — the mode tag suffices
            ControlSpec::Static => h.write_u8(2),
        }
        h.write_bool(opts.strength_reduction);
        h.write_bool(opts.lftr);
        h.write_bool(opts.store_sinking);
        // The execution target changes both the oracle's profitability
        // verdicts and the machine lowering of any audited artifact; its
        // fingerprint (identity | lowering revision) keys them apart.
        h.write_u64(opts.target.spec().fingerprint);
        // Output-shaping hooks: dumps are stored in the entry and
        // verify-each/audit change which ladder rung a function lands on,
        // so entries produced under different hook configs must not mix.
        for p in hooks.dump_after.iter() {
            h.write_u8(pass_index(p));
        }
        h.write_u8(0xff);
        match hooks.stop_after {
            None => h.write_u8(0xff),
            Some(p) => h.write_u8(pass_index(p)),
        }
        h.write_bool(hooks.verify_each);
        h.write_bool(hooks.audit_spec);
        h.write_bool(hooks.audit_leaks);
        h.write_bool(hooks.fence_leaks);

        // --- module-context digest: the global table and every signature.
        // Initializers stay out: only the whole-module machine lowering
        // reads them, outside the cache ---
        h.write_u64(m.globals.len() as u64);
        for g in &m.globals {
            h.write_str(&g.name);
            h.write_u32(g.words);
            hash_ty(&mut h, g.ty);
        }
        h.write_u64(m.funcs.len() as u64);
        for f in &m.funcs {
            h.write_str(&f.name);
            h.write_u32(f.params);
            match f.ret_ty {
                None => h.write_u8(0xff),
                Some(t) => hash_ty(&mut h, t),
            }
        }

        KeyContext {
            m,
            aa,
            opts,
            seed: h,
            raw_class_ids: HSSA_DUMPS.iter().any(|&p| hooks.dump_after.contains(p)),
        }
    }

    /// The content hash of function `fi` under this run's configuration.
    pub fn function_key(&self, fi: usize) -> CacheKey {
        let f = &self.m.funcs[fi];
        let fid = FuncId::from_index(fi);
        let mut h = self.seed.clone();

        // --- canonical body: the entry codec's byte encoding, so the key
        // covers exactly what a hit replays — every instruction, operand,
        // declaration, and raw mem/call/alloc site id ---
        h.write(&crate::cache::codec::function_bytes(f));

        // --- alias slice, classes numbered by first occurrence ---
        let mut local = Vec::new();
        for v in 0..f.vars.len() {
            let c = self.aa.var_class(fid, VarId(v as u32));
            self.fold_class(&mut h, &mut local, Some(c), false);
        }
        for b in &f.blocks {
            for inst in &b.insts {
                match inst {
                    Inst::Load { base, .. }
                    | Inst::Store { base, .. }
                    | Inst::CheckLoad { base, .. } => {
                        // a register base's class becomes an HSSA virtual
                        // variable, the only place a class id is printed
                        let printed = matches!(base, Operand::Var(_));
                        let c = self.aa.access_class(fid, *base);
                        self.fold_class(&mut h, &mut local, c, printed);
                    }
                    Inst::Call { callee, .. } => {
                        for set in [self.aa.func_mod(*callee), self.aa.func_ref(*callee)] {
                            h.write_u64(set.len() as u64);
                            for &c in set {
                                self.fold_class(&mut h, &mut local, Some(c), false);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }

        // --- profile slices (queried per site in body order — HashMap
        // iteration order never reaches the hash) ---
        if let SpecSource::Profile(p) = self.opts.data {
            hash_alias_profile_slice(&mut h, f, p);
        }
        if let ControlSpec::Profile(p) = self.opts.control {
            hash_edge_profile_slice(&mut h, fid, f, p);
        }

        h.finish()
    }

    /// Folds one class occurrence (`None`: an access with no class) as its
    /// index in `local`, the function's classes in order of first
    /// occurrence (a function touches few classes, so a scan beats a
    /// hash). A first occurrence is followed by the class's LOC list. A
    /// `printed` occurrence (an HSSA virtual variable) also folds the raw
    /// class id when HSSA dumps are stored.
    fn fold_class(
        &self,
        h: &mut StableHasher,
        local: &mut Vec<ClassId>,
        c: Option<ClassId>,
        printed: bool,
    ) {
        let Some(c) = c else {
            h.write_u32(u32::MAX);
            return;
        };
        match local.iter().position(|&k| k == c) {
            Some(n) => h.write_u32(n as u32),
            None => {
                let n = local.len() as u32;
                local.push(c);
                let locs = self.aa.locs_in_class(c);
                h.write_u32(n);
                h.write_u64(locs.len() as u64);
                for &loc in locs {
                    hash_loc(h, loc);
                }
            }
        }
        if printed && self.raw_class_ids {
            h.write_u32(c.0);
        }
    }
}

fn hash_alias_profile_slice(h: &mut StableHasher, f: &Function, p: &AliasProfile) {
    for b in &f.blocks {
        for inst in &b.insts {
            match inst {
                Inst::Load { site, .. }
                | Inst::Store { site, .. }
                | Inst::CheckLoad { site, .. } => {
                    h.write_u32(site.0);
                    match p.mem.get(site) {
                        None => h.write_u8(0),
                        Some(set) => {
                            h.write_u8(1);
                            h.write_u64(set.len() as u64);
                            for &loc in set {
                                hash_loc(h, loc);
                            }
                        }
                    }
                    h.write_u64(p.mem_count.get(site).copied().unwrap_or(0));
                }
                Inst::Call { site, .. } => {
                    h.write_u32(site.0);
                    for map in [&p.call_mod, &p.call_ref] {
                        match map.get(site) {
                            None => h.write_u8(0),
                            Some(set) => {
                                h.write_u8(1);
                                h.write_u64(set.len() as u64);
                                for &loc in set {
                                    hash_loc(h, loc);
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

fn hash_edge_profile_slice(h: &mut StableHasher, fid: FuncId, f: &Function, p: &EdgeProfile) {
    h.write_u64(p.entry_count(fid));
    for b in f.block_ids() {
        for s in f.block(b).term.successors() {
            h.write_u64(p.edge_count(fid, b, s));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips() {
        let mut h = StableHasher::new();
        h.write_str("hello");
        let k = h.finish();
        assert_eq!(CacheKey::from_hex(&k.hex()), Some(k));
        assert_eq!(CacheKey::from_hex("zz"), None);
        assert_eq!(CacheKey::from_hex(""), None);
    }

    #[test]
    fn hasher_is_order_and_length_sensitive() {
        let key = |parts: &[&str]| {
            let mut h = StableHasher::new();
            for p in parts {
                h.write_str(p);
            }
            h.finish()
        };
        assert_ne!(key(&["ab", "c"]), key(&["a", "bc"]));
        assert_ne!(key(&["a", "b"]), key(&["b", "a"]));
        assert_eq!(key(&["a", "b"]), key(&["a", "b"]));
    }

    #[test]
    fn lanes_are_decorrelated() {
        let mut h = StableHasher::new();
        h.write(b"x");
        let k = h.finish();
        assert_ne!(k.0[..8], k.0[8..]);
    }
}
