//! Textual IR parser.
//!
//! The grammar mirrors the printer in [`crate::display`]:
//!
//! ```text
//! module   := (global | func)*
//! global   := "global" NAME ":" ty "[" INT "]" ("=" "[" value,* "]")?
//! func     := "func" NAME "(" (NAME ":" ty),* ")" ("->" ty)? "{" decl* block+ "}"
//! decl     := "var" NAME ":" ty | "slot" NAME ":" ty "[" INT "]"
//! block    := NAME ":" stmt*
//! stmt     := NAME "=" rhs | "store" "." ty addr "," operand
//!           | "call" NAME "(" operand,* ")"
//!           | "jmp" NAME | "br" operand "," NAME "," NAME | "ret" operand?
//! rhs      := binop operand "," operand | unop operand
//!           | ("load"|"load.a"|"load.s"|"ldc"|"chks") "." ty addr
//!           | "call" NAME "(" operand,* ")" | "alloc" operand | operand
//! addr     := "[" operand (("+"|"-") INT)? "]"
//! operand  := NAME | "@" NAME | "&" NAME | INT | FLOAT
//! ```
//!
//! Comments run from `#` to end of line. Site ids are assigned fresh in
//! textual order.
//!
//! The whole source is lexed into one vector of tokens that borrow it
//! before parsing starts, so a lex error anywhere wins over a parse error
//! before it. Pass 1 reads every declaration and signature, skipping
//! bodies by brace depth, so calls and `@g` operands may refer forward;
//! pass 2 parses each body once. Nothing allocates per token or
//! instruction beyond the module being built.

use crate::function::{Function, Global, Module, SlotDecl, VarDecl};
use crate::fx::FxHashMap;
use crate::ids::{BlockId, FuncId, GlobalId, SlotId, VarId};
use crate::inst::{BinOp, CheckKind, Inst, LoadSpec, Operand, Terminator, UnOp};
use crate::types::{Ty, Value};

/// A parse failure, with a 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending token.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "parse error on line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// A token. Identifiers borrow the source text, so tokens are `Copy` and
/// the whole stream is one vector that both passes walk.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'s> {
    Ident(&'s str),
    Int(i64),
    Float(f64),
    Punct(char),
    Arrow,
}

#[derive(Debug, Clone, Copy)]
struct SpannedTok<'s> {
    tok: Tok<'s>,
    line: u32,
}

/// Lexes the whole source before any parsing, so an illegal character
/// anywhere in the file is reported ahead of a parse error before it.
fn lex(src: &str) -> Result<Vec<SpannedTok<'_>>, ParseError> {
    let mut toks = Vec::new();
    let mut line = 1u32;
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'>' => {
                toks.push(SpannedTok {
                    tok: Tok::Arrow,
                    line,
                });
                i += 2;
            }
            '(' | ')' | '{' | '}' | '[' | ']' | ',' | ':' | '@' | '&' | '=' | '+' | '-' => {
                toks.push(SpannedTok {
                    tok: Tok::Punct(c),
                    line,
                });
                i += 1;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut is_float = false;
                while i < bytes.len() {
                    let d = bytes[i] as char;
                    if d.is_ascii_digit() {
                        i += 1;
                    } else if d == '.'
                        && i + 1 < bytes.len()
                        && (bytes[i + 1] as char).is_ascii_digit()
                    {
                        is_float = true;
                        i += 1;
                    } else if (d == 'e' || d == 'E')
                        && i + 1 < bytes.len()
                        && ((bytes[i + 1] as char).is_ascii_digit()
                            || bytes[i + 1] == b'-'
                            || bytes[i + 1] == b'+')
                    {
                        is_float = true;
                        i += 2;
                    } else {
                        break;
                    }
                }
                let text = &src[start..i];
                let tok = if is_float {
                    Tok::Float(text.parse().map_err(|_| ParseError {
                        line,
                        msg: format!("bad float literal `{text}`"),
                    })?)
                } else {
                    Tok::Int(text.parse().map_err(|_| ParseError {
                        line,
                        msg: format!("bad int literal `{text}`"),
                    })?)
                };
                toks.push(SpannedTok { tok, line });
            }
            c if c.is_ascii_alphabetic() || c == '_' || c == '.' => {
                let start = i;
                while i < bytes.len() {
                    let d = bytes[i] as char;
                    if d.is_ascii_alphanumeric() || d == '_' || d == '.' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                toks.push(SpannedTok {
                    tok: Tok::Ident(&src[start..i]),
                    line,
                });
            }
            other => {
                return Err(ParseError {
                    line,
                    msg: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    Ok(toks)
}

struct Parser<'s> {
    toks: Vec<SpannedTok<'s>>,
    pos: usize,
}

impl<'s> Parser<'s> {
    fn peek(&self) -> Option<Tok<'s>> {
        self.toks.get(self.pos).map(|t| t.tok)
    }

    /// Whether the token after the next one is `:` — i.e. the next one
    /// starts a block label.
    fn label_follows(&self) -> bool {
        self.toks.get(self.pos + 1).map(|t| t.tok) == Some(Tok::Punct(':'))
    }

    fn line(&self) -> u32 {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |t| t.line)
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            msg: msg.into(),
        }
    }

    fn next(&mut self) -> Option<Tok<'s>> {
        let t = self.peek();
        self.pos += 1;
        t
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseError> {
        match self.next() {
            Some(Tok::Punct(p)) if p == c => Ok(()),
            other => Err(self.err(format!("expected `{c}`, found {other:?}"))),
        }
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.peek() == Some(Tok::Punct(c)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<&'s str, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn ty(&mut self) -> Result<Ty, ParseError> {
        let s = self.ident()?;
        ty_by_name(s).ok_or_else(|| self.err(format!("unknown type `{s}`")))
    }

    fn int(&mut self) -> Result<i64, ParseError> {
        let neg = self.eat_punct('-');
        match self.next() {
            Some(Tok::Int(v)) => Ok(if neg { -v } else { v }),
            other => Err(self.err(format!("expected integer, found {other:?}"))),
        }
    }
}

/// The module-wide name tables pass 1 builds, so pass 2 resolves `@g`
/// operands and call targets (forward references included) by hash.
#[derive(Default)]
struct Names<'s> {
    globals: FxHashMap<&'s str, GlobalId>,
    funcs: FxHashMap<&'s str, FuncId>,
}

/// What pass 1 records about one function for pass 2.
struct FuncHead<'s> {
    /// Token index just past the body's `{`.
    body: usize,
    /// Parameter names, in order.
    params: Vec<&'s str>,
}

/// Per-function name tables, cleared and reused from one body to the next.
#[derive(Default)]
struct FuncCtx<'s> {
    vars: FxHashMap<&'s str, VarId>,
    slots: FxHashMap<&'s str, SlotId>,
    blocks: FxHashMap<&'s str, BlockId>,
    /// Terminators whose targets resolve once every label is known.
    pending: Vec<(BlockId, PendingTerm<'s>)>,
}

impl<'s> FuncCtx<'s> {
    /// Empties the tables for the next function, whose parameters are
    /// its first vars.
    fn reset(&mut self, params: &[&'s str]) {
        self.vars.clear();
        self.slots.clear();
        self.blocks.clear();
        self.pending.clear();
        for (k, &name) in params.iter().enumerate() {
            self.vars.insert(name, VarId::from_index(k));
        }
    }
}

/// Parses a whole module from its textual form.
///
/// # Errors
/// Returns a [`ParseError`] with the offending line on malformed input or
/// unresolved names.
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let mut p = Parser {
        toks: lex(src)?,
        pos: 0,
    };
    let mut module = Module::new();
    let mut names = Names::default();

    // Pass 1: global declarations and function signatures, so that forward
    // references (calls, @globals) resolve; bodies are skipped by brace
    // depth and parsed in pass 2.
    let mut heads = Vec::new();
    while let Some(t) = p.peek() {
        match t {
            Tok::Ident("global") => {
                p.next();
                parse_global(&mut p, &mut module, &mut names)?;
            }
            Tok::Ident("func") => {
                p.next();
                heads.push(parse_func_head(&mut p, &mut module, &mut names)?);
            }
            _ => return Err(p.err("expected `global` or `func` at top level")),
        }
    }

    // Pass 2: function bodies, in textual order (site ids are issued here).
    let mut ctx = FuncCtx::default();
    for (i, head) in heads.iter().enumerate() {
        p.pos = head.body;
        ctx.reset(&head.params);
        parse_func_body(&mut p, &mut module, &names, &mut ctx, FuncId::from_index(i))?;
    }
    Ok(module)
}

/// Parses one `global` declaration after its keyword.
fn parse_global<'s>(
    p: &mut Parser<'s>,
    module: &mut Module,
    names: &mut Names<'s>,
) -> Result<(), ParseError> {
    let name = p.ident()?;
    p.expect_punct(':')?;
    let ty = p.ty()?;
    p.expect_punct('[')?;
    let words = p.int()?;
    if words < 0 {
        return Err(p.err("negative global size"));
    }
    p.expect_punct(']')?;
    let mut init = Vec::new();
    if p.eat_punct('=') {
        p.expect_punct('[')?;
        if !p.eat_punct(']') {
            loop {
                let neg = p.eat_punct('-');
                let v = match p.next() {
                    Some(Tok::Int(v)) => {
                        if ty == Ty::F64 {
                            Value::F(if neg { -(v as f64) } else { v as f64 })
                        } else {
                            Value::I(if neg { -v } else { v })
                        }
                    }
                    Some(Tok::Float(v)) => Value::F(if neg { -v } else { v }),
                    other => return Err(p.err(format!("expected value, found {other:?}"))),
                };
                init.push(v);
                if !p.eat_punct(',') {
                    break;
                }
            }
            p.expect_punct(']')?;
        }
    }
    if init.len() > words as usize {
        return Err(p.err("initializer longer than global"));
    }
    if names.globals.contains_key(name) {
        return Err(p.err(format!("duplicate global `{name}`")));
    }
    names
        .globals
        .insert(name, GlobalId::from_index(module.globals.len()));
    module.globals.push(Global {
        name: name.to_string(),
        words: words as u32,
        ty,
        init,
    });
    Ok(())
}

/// Parses one function's signature after `func`, skips its body by brace
/// depth, and declares the function with its parameters.
fn parse_func_head<'s>(
    p: &mut Parser<'s>,
    module: &mut Module,
    names: &mut Names<'s>,
) -> Result<FuncHead<'s>, ParseError> {
    let name = p.ident()?;
    p.expect_punct('(')?;
    let mut params = Vec::new();
    let mut vars = Vec::new();
    if !p.eat_punct(')') {
        loop {
            let pn = p.ident()?;
            p.expect_punct(':')?;
            let ty = p.ty()?;
            params.push(pn);
            vars.push(VarDecl {
                name: pn.to_string(),
                ty,
            });
            if !p.eat_punct(',') {
                break;
            }
        }
        p.expect_punct(')')?;
    }
    let ret_ty = if p.peek() == Some(Tok::Arrow) {
        p.next();
        Some(p.ty()?)
    } else {
        None
    };
    p.expect_punct('{')?;
    let body = p.pos;
    let mut depth = 1;
    while depth > 0 {
        match p.next() {
            Some(Tok::Punct('{')) => depth += 1,
            Some(Tok::Punct('}')) => depth -= 1,
            Some(_) => {}
            None => return Err(p.err("unterminated function body")),
        }
    }
    if names.funcs.contains_key(name) {
        return Err(p.err(format!("duplicate function `{name}`")));
    }
    names
        .funcs
        .insert(name, FuncId::from_index(module.funcs.len()));
    module.funcs.push(Function {
        name: name.to_string(),
        params: vars.len() as u32,
        ret_ty,
        vars,
        slots: Vec::new(),
        blocks: Vec::new(),
    });
    Ok(FuncHead { body, params })
}

/// Parses one body from just past its `{` through its `}`, with `ctx`
/// reset to the function's parameters.
fn parse_func_body<'s>(
    p: &mut Parser<'s>,
    module: &mut Module,
    names: &Names<'s>,
    ctx: &mut FuncCtx<'s>,
    fid: FuncId,
) -> Result<(), ParseError> {
    // declarations
    loop {
        match p.peek() {
            Some(Tok::Ident("var")) => {
                p.next();
                let name = p.ident()?;
                p.expect_punct(':')?;
                let ty = p.ty()?;
                if ctx.vars.contains_key(name) {
                    return Err(p.err(format!("duplicate var `{name}`")));
                }
                let id = module.funcs[fid.index()].new_var(name, ty);
                ctx.vars.insert(name, id);
            }
            Some(Tok::Ident("slot")) => {
                p.next();
                let name = p.ident()?;
                p.expect_punct(':')?;
                let ty = p.ty()?;
                p.expect_punct('[')?;
                let words = p.int()?;
                p.expect_punct(']')?;
                if ctx.slots.contains_key(name) {
                    return Err(p.err(format!("duplicate slot `{name}`")));
                }
                let f = &mut module.funcs[fid.index()];
                ctx.slots.insert(name, SlotId::from_index(f.slots.len()));
                f.slots.push(SlotDecl {
                    name: name.to_string(),
                    words: words as u32,
                    ty,
                });
            }
            _ => break,
        }
    }

    // blocks; branch targets resolved afterwards via names
    let mut cur: Option<BlockId> = None;
    let mut cur_terminated = false;
    loop {
        match p.peek() {
            Some(Tok::Punct('}')) => {
                p.next();
                break;
            }
            Some(Tok::Ident(name)) if p.label_follows() => {
                if cur.is_some() && !cur_terminated {
                    return Err(p.err("block falls through without terminator"));
                }
                p.next();
                p.next();
                if ctx.blocks.contains_key(name) {
                    return Err(p.err(format!("duplicate block `{name}`")));
                }
                let b = module.funcs[fid.index()].new_block(name);
                ctx.blocks.insert(name, b);
                cur = Some(b);
                cur_terminated = false;
            }
            Some(_) => {
                let b = cur.ok_or_else(|| p.err("statement before first block label"))?;
                if cur_terminated {
                    return Err(p.err("statement after block terminator"));
                }
                if let Some(pending) = parse_stmt(p, module, names, ctx, fid, b)? {
                    ctx.pending.push((b, pending));
                    cur_terminated = true;
                }
            }
            None => return Err(p.err("unterminated function body")),
        }
    }
    if cur.is_some() && !cur_terminated {
        return Err(p.err("last block lacks a terminator"));
    }
    let f = &mut module.funcs[fid.index()];
    if f.blocks.is_empty() {
        return Err(p.err("function has no blocks"));
    }

    // resolve branch targets
    for &(b, pending) in &ctx.pending {
        f.block_mut(b).term = pending.resolve(&ctx.blocks, p)?;
    }
    Ok(())
}

#[derive(Clone, Copy)]
enum PendingTerm<'s> {
    Jump(&'s str),
    Br(Operand, &'s str, &'s str),
    Ret(Option<Operand>),
}

impl PendingTerm<'_> {
    fn resolve(
        self,
        blocks: &FxHashMap<&str, BlockId>,
        p: &Parser<'_>,
    ) -> Result<Terminator, ParseError> {
        let look = |n: &str| {
            blocks
                .get(n)
                .copied()
                .ok_or_else(|| p.err(format!("unknown block `{n}`")))
        };
        Ok(match self {
            PendingTerm::Jump(t) => Terminator::Jump(look(t)?),
            PendingTerm::Br(c, t, e) => Terminator::Br {
                cond: c,
                then_: look(t)?,
                else_: look(e)?,
            },
            PendingTerm::Ret(v) => Terminator::Ret(v),
        })
    }
}

fn parse_operand(
    p: &mut Parser<'_>,
    names: &Names<'_>,
    ctx: &FuncCtx<'_>,
) -> Result<Operand, ParseError> {
    match p.next() {
        Some(Tok::Ident(n)) => ctx
            .vars
            .get(n)
            .copied()
            .map(Operand::Var)
            .ok_or_else(|| p.err(format!("unknown var `{n}`"))),
        Some(Tok::Int(v)) => Ok(Operand::ConstI(v)),
        Some(Tok::Float(v)) => Ok(Operand::ConstF(v)),
        Some(Tok::Punct('-')) => match p.next() {
            Some(Tok::Int(v)) => Ok(Operand::ConstI(-v)),
            Some(Tok::Float(v)) => Ok(Operand::ConstF(-v)),
            other => Err(p.err(format!("expected literal after `-`, found {other:?}"))),
        },
        Some(Tok::Punct('@')) => {
            let n = p.ident()?;
            names
                .globals
                .get(n)
                .copied()
                .map(Operand::GlobalAddr)
                .ok_or_else(|| p.err(format!("unknown global `{n}`")))
        }
        Some(Tok::Punct('&')) => {
            let n = p.ident()?;
            ctx.slots
                .get(n)
                .copied()
                .map(Operand::SlotAddr)
                .ok_or_else(|| p.err(format!("unknown slot `{n}`")))
        }
        other => Err(p.err(format!("expected operand, found {other:?}"))),
    }
}

fn parse_addr(
    p: &mut Parser<'_>,
    names: &Names<'_>,
    ctx: &FuncCtx<'_>,
) -> Result<(Operand, i64), ParseError> {
    p.expect_punct('[')?;
    let base = parse_operand(p, names, ctx)?;
    let mut off = 0i64;
    if p.eat_punct('+') {
        off = p.int()?;
    } else if p.eat_punct('-') {
        off = -p.int()?;
    }
    p.expect_punct(']')?;
    Ok((base, off))
}

fn binop_by_name(s: &str) -> Option<BinOp> {
    BinOp::ALL.iter().copied().find(|o| o.mnemonic() == s)
}

fn unop_by_name(s: &str) -> Option<UnOp> {
    UnOp::ALL.iter().copied().find(|o| o.mnemonic() == s)
}

/// A right-hand side that reads memory: a load or a check.
#[derive(Clone, Copy)]
enum MemRead {
    Load(LoadSpec),
    Check(CheckKind),
}

/// The memory-reading keywords, each followed by its type: the prefix,
/// the form, and the message for an unknown type. `load.a.` and `load.s.`
/// come before the `load.` they extend.
const MEM_READS: [(&str, MemRead, &str); 5] = [
    (
        "load.a.",
        MemRead::Load(LoadSpec::Advanced),
        "bad load type",
    ),
    (
        "load.s.",
        MemRead::Load(LoadSpec::Speculative),
        "bad load type",
    ),
    ("load.", MemRead::Load(LoadSpec::Normal), "bad load type"),
    ("ldc.", MemRead::Check(CheckKind::Alat), "bad check type"),
    ("chks.", MemRead::Check(CheckKind::Nat), "bad check type"),
];

/// Parses one statement into block `b`; returns `Some` if it terminated the
/// block.
fn parse_stmt<'s>(
    p: &mut Parser<'s>,
    module: &mut Module,
    names: &Names<'s>,
    ctx: &FuncCtx<'s>,
    fid: FuncId,
    b: BlockId,
) -> Result<Option<PendingTerm<'s>>, ParseError> {
    let first = p.ident()?;
    match first {
        "jmp" => {
            let t = p.ident()?;
            return Ok(Some(PendingTerm::Jump(t)));
        }
        "br" => {
            let c = parse_operand(p, names, ctx)?;
            p.expect_punct(',')?;
            let t = p.ident()?;
            p.expect_punct(',')?;
            let e = p.ident()?;
            return Ok(Some(PendingTerm::Br(c, t, e)));
        }
        "ret" => {
            // `ret` may or may not carry a value; a value continues on the
            // same conceptual line, so peek for something operand-like that
            // is not a label/keyword start.
            let v = match p.peek() {
                Some(Tok::Int(_) | Tok::Float(_) | Tok::Punct('-' | '@' | '&')) => {
                    Some(parse_operand(p, names, ctx)?)
                }
                // a var name could also be a following label `n:`
                Some(Tok::Ident(n)) if ctx.vars.contains_key(n) && !p.label_follows() => {
                    Some(parse_operand(p, names, ctx)?)
                }
                _ => None,
            };
            return Ok(Some(PendingTerm::Ret(v)));
        }
        "store" => {
            return Err(p.err("`store` needs a type suffix, e.g. `store.i64`"));
        }
        _ => {}
    }

    let inst = if let Some(rest) = first.strip_prefix("store.") {
        let ty = ty_by_name(rest).ok_or_else(|| p.err(format!("bad store type `{rest}`")))?;
        let (base, offset) = parse_addr(p, names, ctx)?;
        p.expect_punct(',')?;
        let val = parse_operand(p, names, ctx)?;
        Inst::Store {
            base,
            offset,
            val,
            ty,
            site: module.fresh_mem_site(),
        }
    } else if first == "call" {
        let (callee, args) = parse_call_tail(p, names, ctx)?;
        Inst::Call {
            dst: None,
            callee,
            args,
            site: module.fresh_call_site(),
        }
    } else {
        // otherwise: `dst = rhs`
        let dst = ctx
            .vars
            .get(first)
            .copied()
            .ok_or_else(|| p.err(format!("unknown var `{first}`")))?;
        p.expect_punct('=')?;
        parse_rhs(p, module, names, ctx, dst)?
    };
    module.funcs[fid.index()].block_mut(b).insts.push(inst);
    Ok(None)
}

/// Parses the right-hand side of `dst = …`.
fn parse_rhs(
    p: &mut Parser<'_>,
    module: &mut Module,
    names: &Names<'_>,
    ctx: &FuncCtx<'_>,
    dst: VarId,
) -> Result<Inst, ParseError> {
    let Some(Tok::Ident(k)) = p.peek() else {
        let src = parse_operand(p, names, ctx)?;
        return Ok(Inst::Copy { dst, src });
    };
    let mem = MEM_READS
        .iter()
        .find_map(|&(pre, form, bad)| k.strip_prefix(pre).map(|rest| (rest, form, bad)));
    if let Some((rest, form, bad)) = mem {
        p.next();
        let ty = ty_by_name(rest).ok_or_else(|| p.err(bad))?;
        let (base, offset) = parse_addr(p, names, ctx)?;
        let site = module.fresh_mem_site();
        return Ok(match form {
            MemRead::Load(spec) => Inst::Load {
                dst,
                base,
                offset,
                ty,
                spec,
                site,
            },
            MemRead::Check(kind) => Inst::CheckLoad {
                dst,
                base,
                offset,
                ty,
                kind,
                site,
            },
        });
    }
    Ok(if k == "call" {
        p.next();
        let (callee, args) = parse_call_tail(p, names, ctx)?;
        Inst::Call {
            dst: Some(dst),
            callee,
            args,
            site: module.fresh_call_site(),
        }
    } else if k == "alloc" {
        p.next();
        let words = parse_operand(p, names, ctx)?;
        Inst::Alloc {
            dst,
            words,
            site: module.fresh_alloc_site(),
        }
    } else if let Some(op) = binop_by_name(k) {
        p.next();
        let a = parse_operand(p, names, ctx)?;
        p.expect_punct(',')?;
        let b = parse_operand(p, names, ctx)?;
        Inst::Bin { dst, op, a, b }
    } else if let Some(op) = unop_by_name(k) {
        p.next();
        let a = parse_operand(p, names, ctx)?;
        Inst::Un { dst, op, a }
    } else {
        // copy from a var
        let src = parse_operand(p, names, ctx)?;
        Inst::Copy { dst, src }
    })
}

fn parse_call_tail(
    p: &mut Parser<'_>,
    names: &Names<'_>,
    ctx: &FuncCtx<'_>,
) -> Result<(FuncId, Vec<Operand>), ParseError> {
    let name = p.ident()?;
    let callee = names
        .funcs
        .get(name)
        .copied()
        .ok_or_else(|| p.err(format!("unknown function `{name}`")))?;
    p.expect_punct('(')?;
    let mut args = Vec::new();
    if !p.eat_punct(')') {
        loop {
            args.push(parse_operand(p, names, ctx)?);
            if !p.eat_punct(',') {
                break;
            }
        }
        p.expect_punct(')')?;
    }
    Ok((callee, args))
}

fn ty_by_name(s: &str) -> Option<Ty> {
    Ty::ALL.into_iter().find(|t| t.name() == s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::display::print_module;

    const LOOPY: &str = r#"
global sum: i64[1]
global tab: f64[4] = [1.0, 2.5, -3.0, 0.0]

func count(n: i64) -> i64 {
  var i: i64
  var c: i64
  var s: i64
  var s2: i64
  var r: i64
entry:
  i = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  s = load.i64 [@sum]
  s2 = add s, 1
  store.i64 [@sum], s2
  i = add i, 1
  jmp head
exit:
  r = load.i64 [@sum]
  ret r
}
"#;

    #[test]
    fn parses_loop() {
        let m = parse_module(LOOPY).unwrap();
        assert_eq!(m.globals.len(), 2);
        assert_eq!(m.globals[1].init.len(), 4);
        assert_eq!(m.funcs.len(), 1);
        assert_eq!(m.funcs[0].blocks.len(), 4);
        crate::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn print_parse_print_fixpoint() {
        let m = parse_module(LOOPY).unwrap();
        let s1 = print_module(&m);
        let m2 = parse_module(&s1).unwrap();
        let s2 = print_module(&m2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn parses_speculative_forms() {
        let src = r#"
func f(p: ptr) -> i64 {
  var a: i64
  var b: i64
entry:
  a = load.a.i64 [p + 2]
  store.i64 [p], 5
  b = ldc.i64 [p + 2]
  ret b
}
"#;
        let m = parse_module(src).unwrap();
        let f = &m.funcs[0];
        assert!(matches!(
            f.blocks[0].insts[0],
            Inst::Load {
                spec: LoadSpec::Advanced,
                offset: 2,
                ..
            }
        ));
        assert!(matches!(
            f.blocks[0].insts[2],
            Inst::CheckLoad {
                kind: CheckKind::Alat,
                ..
            }
        ));
        let s1 = print_module(&m);
        let m2 = parse_module(&s1).unwrap();
        assert_eq!(s1, print_module(&m2));
    }

    #[test]
    fn forward_calls_resolve() {
        let src = r#"
func main() -> i64 {
  var r: i64
entry:
  r = call helper(3)
  ret r
}

func helper(x: i64) -> i64 {
entry:
  ret x
}
"#;
        let m = parse_module(src).unwrap();
        assert_eq!(m.funcs.len(), 2);
        crate::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn errors_carry_lines() {
        let e = parse_module("func f() {\nentry:\n  x = bogus y\n}").unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn unknown_block_target_is_error() {
        let e = parse_module("func f() {\nentry:\n  jmp nowhere\n}").unwrap_err();
        assert!(e.msg.contains("unknown block"));
    }

    #[test]
    fn fallthrough_is_error() {
        let src = "func f() {\nentry:\n  jmp b\nb:\nc:\n  ret\n}";
        // block b has no terminator before label c
        let e = parse_module(src).unwrap_err();
        assert!(e.msg.contains("terminator"), "{e}");
    }

    #[test]
    fn slots_parse_and_print() {
        let src = r#"
func f() -> i64 {
  var x: i64
  slot buf: i64[8]
entry:
  store.i64 [&buf + 3], 9
  x = load.i64 [&buf + 3]
  ret x
}
"#;
        let m = parse_module(src).unwrap();
        let s1 = print_module(&m);
        assert!(s1.contains("slot buf: i64[8]"));
        assert!(s1.contains("[&buf + 3]"));
        let m2 = parse_module(&s1).unwrap();
        assert_eq!(s1, print_module(&m2));
    }
}
