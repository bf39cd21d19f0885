//! Binary codec for cache entries.
//!
//! One entry stores everything the driver's join point needs to replay a
//! function without recompiling it: the lowered [`Function`] *before*
//! fresh-site renumbering (placeholder site ids ≥ `LOCAL_FRESH_BASE` are
//! preserved verbatim so the join can renumber them into whatever module
//! the hit lands in), the fresh-site count, the function's [`OptStats`],
//! and its `--dump-after` snapshots.
//!
//! The envelope is `"SPCC"` + format version + payload length + an FNV-1a
//! checksum + payload. Decoding distinguishes *version skew* (an entry
//! written by an older format — silently recompile) from *corruption*
//! (truncation, bit flips, impossible tags — recompile with a structured
//! diagnostic). Both outcomes land on the degradation ladder's stale-entry
//! rung; neither can produce wrong output.

use super::key::CACHE_FORMAT_VERSION;
use crate::passes::{Pass, PassDump};
use crate::stats::OptStats;
use specframe_ir::{
    AllocSiteId, BinOp, Block, BlockId, CallSiteId, CheckKind, FuncId, Function, GlobalId, Inst,
    LoadSpec, MemSiteId, Operand, SlotDecl, SlotId, Terminator, Ty, UnOp, VarDecl, VarId,
};

/// The decoded payload of one cache entry.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedFunc {
    /// The lowered function, pre-renumbering (fresh sites still hold their
    /// `LOCAL_FRESH_BASE`-relative placeholders).
    pub func: Function,
    /// How many fresh memory sites the compile minted.
    pub fresh_sites: u32,
    /// The function's deterministic transformation counters.
    pub stats: OptStats,
    /// `--dump-after` snapshots taken during the original compile.
    pub dumps: Vec<PassDump>,
}

/// Why an entry failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryError {
    /// Written by a different cache format — expected across upgrades.
    VersionSkew { found: u32 },
    /// Structurally damaged (truncated, bit-flipped, bad tag, bad checksum).
    Corrupt(String),
}

impl core::fmt::Display for EntryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EntryError::VersionSkew { found } => write!(
                f,
                "cache format version {found} (current {CACHE_FORMAT_VERSION})"
            ),
            EntryError::Corrupt(why) => write!(f, "corrupt entry: {why}"),
        }
    }
}

const MAGIC: &[u8; 4] = b"SPCC";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Serializes one entry (envelope + payload).
pub fn encode_entry(
    func: &Function,
    fresh_sites: u32,
    stats: &OptStats,
    dumps: &[PassDump],
) -> Vec<u8> {
    let mut p = Enc::default();
    enc_function(&mut p, func);
    p.u32(fresh_sites);
    enc_stats(&mut p, stats);
    p.u64(dumps.len() as u64);
    for d in dumps {
        p.u8(pass_tag(d.pass));
        p.str(&d.func);
        p.str(&d.text);
    }
    let payload = p.buf;

    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&CACHE_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// The canonical byte form of one function for key derivation: the same
/// encoding entries store, so the key covers exactly what a hit replays —
/// every instruction, operand, declaration, and raw mem/call/alloc site
/// id — at byte-pushing speed (the printer would dominate warm probes).
pub(crate) fn function_bytes(f: &Function) -> Vec<u8> {
    let mut p = Enc::default();
    enc_function(&mut p, f);
    p.buf
}

/// Parses an entry produced by [`encode_entry`], validating the envelope
/// and every structural tag.
pub fn decode_entry(bytes: &[u8]) -> Result<CachedFunc, EntryError> {
    if bytes.len() < 24 {
        return Err(EntryError::Corrupt(format!(
            "{} bytes is shorter than the envelope",
            bytes.len()
        )));
    }
    if &bytes[..4] != MAGIC {
        return Err(EntryError::Corrupt("bad magic".into()));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != CACHE_FORMAT_VERSION {
        return Err(EntryError::VersionSkew { found: version });
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let sum = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let payload = &bytes[24..];
    if payload.len() != len {
        return Err(EntryError::Corrupt(format!(
            "payload length {} != header {len}",
            payload.len()
        )));
    }
    if checksum(payload) != sum {
        return Err(EntryError::Corrupt("checksum mismatch".into()));
    }

    let mut d = Dec {
        buf: payload,
        pos: 0,
    };
    let func = dec_function(&mut d)?;
    let fresh_sites = d.u32()?;
    let stats = dec_stats(&mut d)?;
    let ndumps = d.u64()?;
    let mut dumps = Vec::new();
    for _ in 0..ndumps {
        let pass = pass_from_tag(d.u8()?)?;
        let func = d.str()?;
        let text = d.str()?;
        dumps.push(PassDump { pass, func, text });
    }
    if d.pos != d.buf.len() {
        return Err(EntryError::Corrupt(format!(
            "{} trailing bytes after payload",
            d.buf.len() - d.pos
        )));
    }
    Ok(CachedFunc {
        func,
        fresh_sites,
        stats,
        dumps,
    })
}

// --- primitive cursor ---

#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Dec<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], EntryError> {
        if self.buf.len() - self.pos < n {
            return Err(EntryError::Corrupt("truncated payload".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, EntryError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, EntryError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, EntryError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64, EntryError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn len(&mut self) -> Result<usize, EntryError> {
        let n = self.u64()?;
        // an honest entry can never hold more elements than payload bytes;
        // rejecting early keeps a flipped length bit from OOM-ing us
        if n > self.buf.len() as u64 {
            return Err(EntryError::Corrupt(format!("implausible length {n}")));
        }
        Ok(n as usize)
    }
    fn str(&mut self) -> Result<String, EntryError> {
        let n = self.len()?;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec()).map_err(|_| EntryError::Corrupt("non-UTF-8 string".into()))
    }
}

// --- IR codecs ---

fn enc_ty(p: &mut Enc, ty: Ty) {
    p.u8(match ty {
        Ty::I64 => 0,
        Ty::F64 => 1,
        Ty::Ptr => 2,
    });
}

fn dec_ty(d: &mut Dec) -> Result<Ty, EntryError> {
    match d.u8()? {
        0 => Ok(Ty::I64),
        1 => Ok(Ty::F64),
        2 => Ok(Ty::Ptr),
        t => Err(EntryError::Corrupt(format!("bad type tag {t}"))),
    }
}

fn enc_operand(p: &mut Enc, o: Operand) {
    match o {
        Operand::Var(v) => {
            p.u8(0);
            p.u32(v.0);
        }
        Operand::ConstI(x) => {
            p.u8(1);
            p.i64(x);
        }
        Operand::ConstF(x) => {
            p.u8(2);
            p.u64(x.to_bits());
        }
        Operand::GlobalAddr(g) => {
            p.u8(3);
            p.u32(g.0);
        }
        Operand::SlotAddr(s) => {
            p.u8(4);
            p.u32(s.0);
        }
    }
}

fn dec_operand(d: &mut Dec) -> Result<Operand, EntryError> {
    Ok(match d.u8()? {
        0 => Operand::Var(VarId(d.u32()?)),
        1 => Operand::ConstI(d.i64()?),
        2 => Operand::ConstF(f64::from_bits(d.u64()?)),
        3 => Operand::GlobalAddr(GlobalId(d.u32()?)),
        4 => Operand::SlotAddr(SlotId(d.u32()?)),
        t => return Err(EntryError::Corrupt(format!("bad operand tag {t}"))),
    })
}

fn pass_tag(p: Pass) -> u8 {
    Pass::ALL.iter().position(|&q| q == p).expect("pass in ALL") as u8
}

fn pass_from_tag(t: u8) -> Result<Pass, EntryError> {
    Pass::ALL
        .get(t as usize)
        .copied()
        .ok_or_else(|| EntryError::Corrupt(format!("bad pass tag {t}")))
}

fn enc_inst(p: &mut Enc, i: &Inst) {
    match i {
        Inst::Bin { dst, op, a, b } => {
            p.u8(0);
            p.u32(dst.0);
            p.u8(BinOp::ALL.iter().position(|o| o == op).unwrap() as u8);
            enc_operand(p, *a);
            enc_operand(p, *b);
        }
        Inst::Un { dst, op, a } => {
            p.u8(1);
            p.u32(dst.0);
            p.u8(UnOp::ALL.iter().position(|o| o == op).unwrap() as u8);
            enc_operand(p, *a);
        }
        Inst::Copy { dst, src } => {
            p.u8(2);
            p.u32(dst.0);
            enc_operand(p, *src);
        }
        Inst::Load {
            dst,
            base,
            offset,
            ty,
            spec,
            site,
        } => {
            p.u8(3);
            p.u32(dst.0);
            enc_operand(p, *base);
            p.i64(*offset);
            enc_ty(p, *ty);
            p.u8(match spec {
                LoadSpec::Normal => 0,
                LoadSpec::Advanced => 1,
                LoadSpec::Speculative => 2,
            });
            p.u32(site.0);
        }
        Inst::Store {
            base,
            offset,
            val,
            ty,
            site,
        } => {
            p.u8(4);
            enc_operand(p, *base);
            p.i64(*offset);
            enc_operand(p, *val);
            enc_ty(p, *ty);
            p.u32(site.0);
        }
        Inst::CheckLoad {
            dst,
            base,
            offset,
            ty,
            kind,
            site,
        } => {
            p.u8(5);
            p.u32(dst.0);
            enc_operand(p, *base);
            p.i64(*offset);
            enc_ty(p, *ty);
            p.u8(match kind {
                CheckKind::Alat => 0,
                CheckKind::Nat => 1,
            });
            p.u32(site.0);
        }
        Inst::Call {
            dst,
            callee,
            args,
            site,
        } => {
            p.u8(6);
            match dst {
                None => p.u8(0),
                Some(v) => {
                    p.u8(1);
                    p.u32(v.0);
                }
            }
            p.u32(callee.0);
            p.u64(args.len() as u64);
            for a in args {
                enc_operand(p, *a);
            }
            p.u32(site.0);
        }
        Inst::Alloc { dst, words, site } => {
            p.u8(7);
            p.u32(dst.0);
            enc_operand(p, *words);
            p.u32(site.0);
        }
    }
}

fn dec_inst(d: &mut Dec) -> Result<Inst, EntryError> {
    Ok(match d.u8()? {
        0 => Inst::Bin {
            dst: VarId(d.u32()?),
            op: *BinOp::ALL
                .get(d.u8()? as usize)
                .ok_or_else(|| EntryError::Corrupt("bad binop tag".into()))?,
            a: dec_operand(d)?,
            b: dec_operand(d)?,
        },
        1 => Inst::Un {
            dst: VarId(d.u32()?),
            op: *UnOp::ALL
                .get(d.u8()? as usize)
                .ok_or_else(|| EntryError::Corrupt("bad unop tag".into()))?,
            a: dec_operand(d)?,
        },
        2 => Inst::Copy {
            dst: VarId(d.u32()?),
            src: dec_operand(d)?,
        },
        3 => Inst::Load {
            dst: VarId(d.u32()?),
            base: dec_operand(d)?,
            offset: d.i64()?,
            ty: dec_ty(d)?,
            spec: match d.u8()? {
                0 => LoadSpec::Normal,
                1 => LoadSpec::Advanced,
                2 => LoadSpec::Speculative,
                t => return Err(EntryError::Corrupt(format!("bad load-spec tag {t}"))),
            },
            site: MemSiteId(d.u32()?),
        },
        4 => Inst::Store {
            base: dec_operand(d)?,
            offset: d.i64()?,
            val: dec_operand(d)?,
            ty: dec_ty(d)?,
            site: MemSiteId(d.u32()?),
        },
        5 => Inst::CheckLoad {
            dst: VarId(d.u32()?),
            base: dec_operand(d)?,
            offset: d.i64()?,
            ty: dec_ty(d)?,
            kind: match d.u8()? {
                0 => CheckKind::Alat,
                1 => CheckKind::Nat,
                t => return Err(EntryError::Corrupt(format!("bad check-kind tag {t}"))),
            },
            site: MemSiteId(d.u32()?),
        },
        6 => {
            let dst = match d.u8()? {
                0 => None,
                1 => Some(VarId(d.u32()?)),
                t => return Err(EntryError::Corrupt(format!("bad call-dst tag {t}"))),
            };
            let callee = FuncId(d.u32()?);
            let nargs = d.len()?;
            let mut args = Vec::with_capacity(nargs);
            for _ in 0..nargs {
                args.push(dec_operand(d)?);
            }
            Inst::Call {
                dst,
                callee,
                args,
                site: CallSiteId(d.u32()?),
            }
        }
        7 => Inst::Alloc {
            dst: VarId(d.u32()?),
            words: dec_operand(d)?,
            site: AllocSiteId(d.u32()?),
        },
        t => return Err(EntryError::Corrupt(format!("bad inst tag {t}"))),
    })
}

fn enc_term(p: &mut Enc, t: &Terminator) {
    match t {
        Terminator::Jump(b) => {
            p.u8(0);
            p.u32(b.0);
        }
        Terminator::Br { cond, then_, else_ } => {
            p.u8(1);
            enc_operand(p, *cond);
            p.u32(then_.0);
            p.u32(else_.0);
        }
        Terminator::Ret(v) => {
            p.u8(2);
            match v {
                None => p.u8(0),
                Some(o) => {
                    p.u8(1);
                    enc_operand(p, *o);
                }
            }
        }
    }
}

fn dec_term(d: &mut Dec) -> Result<Terminator, EntryError> {
    Ok(match d.u8()? {
        0 => Terminator::Jump(BlockId(d.u32()?)),
        1 => Terminator::Br {
            cond: dec_operand(d)?,
            then_: BlockId(d.u32()?),
            else_: BlockId(d.u32()?),
        },
        2 => Terminator::Ret(match d.u8()? {
            0 => None,
            1 => Some(dec_operand(d)?),
            t => return Err(EntryError::Corrupt(format!("bad ret tag {t}"))),
        }),
        t => return Err(EntryError::Corrupt(format!("bad terminator tag {t}"))),
    })
}

fn enc_function(p: &mut Enc, f: &Function) {
    p.str(&f.name);
    p.u32(f.params);
    match f.ret_ty {
        None => p.u8(0),
        Some(t) => {
            p.u8(1);
            enc_ty(p, t);
        }
    }
    p.u64(f.vars.len() as u64);
    for v in &f.vars {
        p.str(&v.name);
        enc_ty(p, v.ty);
    }
    p.u64(f.slots.len() as u64);
    for s in &f.slots {
        p.str(&s.name);
        p.u32(s.words);
        enc_ty(p, s.ty);
    }
    p.u64(f.blocks.len() as u64);
    for b in &f.blocks {
        p.str(&b.name);
        p.u64(b.insts.len() as u64);
        for i in &b.insts {
            enc_inst(p, i);
        }
        enc_term(p, &b.term);
    }
}

fn dec_function(d: &mut Dec) -> Result<Function, EntryError> {
    let name = d.str()?;
    let params = d.u32()?;
    let ret_ty = match d.u8()? {
        0 => None,
        1 => Some(dec_ty(d)?),
        t => return Err(EntryError::Corrupt(format!("bad ret-ty tag {t}"))),
    };
    let nvars = d.len()?;
    let mut vars = Vec::with_capacity(nvars);
    for _ in 0..nvars {
        vars.push(VarDecl {
            name: d.str()?,
            ty: dec_ty(d)?,
        });
    }
    let nslots = d.len()?;
    let mut slots = Vec::with_capacity(nslots);
    for _ in 0..nslots {
        slots.push(SlotDecl {
            name: d.str()?,
            words: d.u32()?,
            ty: dec_ty(d)?,
        });
    }
    let nblocks = d.len()?;
    let mut blocks = Vec::with_capacity(nblocks);
    for _ in 0..nblocks {
        let name = d.str()?;
        let ninsts = d.len()?;
        let mut insts = Vec::with_capacity(ninsts);
        for _ in 0..ninsts {
            insts.push(dec_inst(d)?);
        }
        let term = dec_term(d)?;
        blocks.push(Block { name, insts, term });
    }
    Ok(Function {
        name,
        params,
        ret_ty,
        vars,
        slots,
        blocks,
    })
}

fn enc_stats(p: &mut Enc, s: &OptStats) {
    for v in s.values() {
        p.u64(v);
    }
}

fn dec_stats(d: &mut Dec) -> Result<OptStats, EntryError> {
    let mut values = [0u64; OptStats::COUNTERS];
    for v in &mut values {
        *v = d.u64()?;
    }
    Ok(OptStats::from_values(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_function() -> Function {
        Function {
            name: "f".into(),
            params: 1,
            ret_ty: Some(Ty::I64),
            vars: vec![
                VarDecl {
                    name: "x".into(),
                    ty: Ty::I64,
                },
                VarDecl {
                    name: "t".into(),
                    ty: Ty::F64,
                },
            ],
            slots: vec![SlotDecl {
                name: "buf".into(),
                words: 4,
                ty: Ty::I64,
            }],
            blocks: vec![Block {
                name: "entry".into(),
                insts: vec![
                    Inst::Load {
                        dst: VarId(0),
                        base: Operand::SlotAddr(SlotId(0)),
                        offset: 2,
                        ty: Ty::I64,
                        spec: LoadSpec::Advanced,
                        site: MemSiteId(17),
                    },
                    Inst::Bin {
                        dst: VarId(0),
                        op: BinOp::FGe,
                        a: Operand::ConstF(-0.5),
                        b: Operand::Var(VarId(1)),
                    },
                    Inst::Call {
                        dst: None,
                        callee: FuncId(3),
                        args: vec![Operand::ConstI(-9)],
                        site: CallSiteId(5),
                    },
                ],
                term: Terminator::Ret(Some(Operand::Var(VarId(0)))),
            }],
        }
    }

    #[test]
    fn entry_round_trips() {
        let f = sample_function();
        // every counter distinct, so a field-order slip cannot round-trip
        let stats = OptStats::from_values(std::array::from_fn(|i| 100 + i as u64));
        assert_eq!((stats.candidates, stats.leak_fences_inserted), (100, 119));
        let dumps = vec![PassDump {
            pass: Pass::Ssapre,
            func: "f".into(),
            text: "snapshot".into(),
        }];
        let bytes = encode_entry(&f, 7, &stats, &dumps);
        let back = decode_entry(&bytes).unwrap();
        assert_eq!(back.func, f);
        assert_eq!(back.fresh_sites, 7);
        assert_eq!(back.stats, stats);
        assert_eq!(back.dumps, dumps);
    }

    #[test]
    fn nan_payloads_round_trip_bitwise() {
        let mut f = sample_function();
        f.blocks[0].insts[1] = Inst::Bin {
            dst: VarId(0),
            op: BinOp::FAdd,
            a: Operand::ConstF(f64::NAN),
            b: Operand::ConstF(f64::NEG_INFINITY),
        };
        let bytes = encode_entry(&f, 0, &OptStats::default(), &[]);
        let back = decode_entry(&bytes).unwrap();
        match back.func.blocks[0].insts[1] {
            Inst::Bin {
                a: Operand::ConstF(x),
                ..
            } => {
                assert_eq!(x.to_bits(), f64::NAN.to_bits());
            }
            ref other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn truncation_is_corrupt_not_panic() {
        let bytes = encode_entry(&sample_function(), 0, &OptStats::default(), &[]);
        for cut in [0, 3, 10, 23, bytes.len() / 2, bytes.len() - 1] {
            match decode_entry(&bytes[..cut]) {
                Err(EntryError::Corrupt(_)) => {}
                other => panic!("truncation at {cut} gave {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flips_are_detected() {
        let bytes = encode_entry(&sample_function(), 0, &OptStats::default(), &[]);
        // flip one bit in every byte position; decode must reject (or, for
        // the version field, report skew) — never return a wrong function
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            match decode_entry(&bad) {
                Err(_) => {}
                Ok(back) => {
                    panic!(
                        "bit flip at byte {pos} decoded successfully: {:?}",
                        back.func.name
                    )
                }
            }
        }
    }

    #[test]
    fn version_skew_is_distinguished() {
        let mut bytes = encode_entry(&sample_function(), 0, &OptStats::default(), &[]);
        bytes[4..8].copy_from_slice(&999u32.to_le_bytes());
        assert_eq!(
            decode_entry(&bytes),
            Err(EntryError::VersionSkew { found: 999 })
        );
    }

    #[test]
    fn implausible_lengths_do_not_allocate() {
        let mut bytes = encode_entry(&sample_function(), 0, &OptStats::default(), &[]);
        // the first payload field is the name length; blow it up
        let sum_at = 16;
        bytes[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        // fix the checksum so we exercise the length guard, not the checksum
        let sum = checksum(&bytes[24..]);
        bytes[sum_at..sum_at + 8].copy_from_slice(&sum.to_le_bytes());
        match decode_entry(&bytes) {
            Err(EntryError::Corrupt(why)) => assert!(why.contains("implausible"), "{why}"),
            other => panic!("{other:?}"),
        }
    }
}
