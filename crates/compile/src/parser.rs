//! A textual front end for WIR — the reproduction's analog of FaCT being
//! "a DSL for timing-sensitive computation". Programs written in this
//! little language compile through any of the three backends and can be
//! vetted by the taint checker, e.g.:
//!
//! ```text
//! secret key = 0b1011;
//! var out = 1;
//! var i = 0;
//! while (i < 4) bound 5 {
//!     if secret ((key >> i) & 1) {
//!         out = out * 3;
//!     } else {
//!         out = out + 1;
//!     }
//!     i = i + 1;
//! }
//! output out;
//! ```
//!
//! Grammar (informal):
//!
//! ```text
//! program  := item*
//! item     := decl | stmt | "output" IDENT ";"
//! decl     := ("var" | "secret") IDENT ("=" INT)? ";"
//!           | "scratch"? "array" IDENT "[" INT "]" ("=" "{" INT,* "}")? ";"
//! stmt     := IDENT "=" expr ";"
//!           | IDENT "[" expr "]" "=" expr ";"
//!           | "if" "secret"? "(" expr ")" block ("else" block)?
//!           | "while" "(" expr ")" "bound" INT block
//! expr     := precedence climbing over  * %  |  + -  |  << >>  |
//!             < <s == !=  |  &  |  ^  |  "|"
//! primary  := INT | IDENT | IDENT "[" expr "]" | "(" expr ")"
//! ```
//!
//! `<` is unsigned (the common case in constant-time code); `<s` is the
//! signed comparison. Comments run from `//` to end of line.

use core::fmt;
use std::collections::BTreeMap;

use sempe_isa::program::layout;

use crate::wir::{ArrId, BinOp, Expr, Stmt, VarId, WirBuilder, WirProgram};

/// A parse failure with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A parsed program plus the variables declared `secret` (inputs to the
/// taint checker).
#[derive(Debug, Clone)]
pub struct ParsedProgram {
    /// The WIR program.
    pub program: WirProgram,
    /// Variables declared with the `secret` keyword.
    pub secrets: Vec<VarId>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(u64),
    Sym(&'static str),
    Eof,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer { src: src.as_bytes(), pos: 0, line: 1, col: 1 }
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.src.get(self.pos).copied()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.bump() {
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
    }

    fn next_token(&mut self) -> Result<(Tok, usize, usize), ParseError> {
        self.skip_trivia();
        let (line, col) = (self.line, self.col);
        let err = |line, col, m: String| ParseError { line, col, message: m };
        let Some(c) = self.peek() else {
            return Ok((Tok::Eof, line, col));
        };
        if c.is_ascii_alphabetic() || c == b'_' {
            let mut s = String::new();
            while let Some(c) = self.peek() {
                if c.is_ascii_alphanumeric() || c == b'_' {
                    s.push(c as char);
                    self.bump();
                } else {
                    break;
                }
            }
            return Ok((Tok::Ident(s), line, col));
        }
        if c.is_ascii_digit() {
            let mut value: u64 = 0;
            if c == b'0' && matches!(self.peek2(), Some(b'x') | Some(b'X')) {
                self.bump();
                self.bump();
                let mut any = false;
                while let Some(c) = self.peek() {
                    let d = match c {
                        b'0'..=b'9' => u64::from(c - b'0'),
                        b'a'..=b'f' => u64::from(c - b'a' + 10),
                        b'A'..=b'F' => u64::from(c - b'A' + 10),
                        b'_' => {
                            self.bump();
                            continue;
                        }
                        _ => break,
                    };
                    any = true;
                    value = value.wrapping_mul(16).wrapping_add(d);
                    self.bump();
                }
                if !any {
                    return Err(err(line, col, "hex literal needs digits".into()));
                }
            } else if c == b'0' && matches!(self.peek2(), Some(b'b') | Some(b'B')) {
                self.bump();
                self.bump();
                let mut any = false;
                while let Some(c) = self.peek() {
                    match c {
                        b'0' | b'1' => {
                            any = true;
                            value = value.wrapping_mul(2) + u64::from(c - b'0');
                            self.bump();
                        }
                        b'_' => {
                            self.bump();
                        }
                        _ => break,
                    }
                }
                if !any {
                    return Err(err(line, col, "binary literal needs digits".into()));
                }
            } else {
                while let Some(c) = self.peek() {
                    match c {
                        b'0'..=b'9' => {
                            value = value.wrapping_mul(10) + u64::from(c - b'0');
                            self.bump();
                        }
                        b'_' => {
                            self.bump();
                        }
                        _ => break,
                    }
                }
            }
            return Ok((Tok::Int(value), line, col));
        }
        // Multi-char symbols first.
        let two: &[(&[u8], &'static str)] =
            &[(b"<<", "<<"), (b">>", ">>"), (b"==", "=="), (b"!=", "!="), (b"<s", "<s")];
        for (pat, sym) in two {
            if self.src[self.pos..].starts_with(pat) {
                self.bump();
                self.bump();
                return Ok((Tok::Sym(sym), line, col));
            }
        }
        let one: &[(u8, &'static str)] = &[
            (b'=', "="),
            (b';', ";"),
            (b'(', "("),
            (b')', ")"),
            (b'{', "{"),
            (b'}', "}"),
            (b'[', "["),
            (b']', "]"),
            (b',', ","),
            (b'+', "+"),
            (b'-', "-"),
            (b'*', "*"),
            (b'%', "%"),
            (b'&', "&"),
            (b'|', "|"),
            (b'^', "^"),
            (b'<', "<"),
        ];
        for (pat, sym) in one {
            if c == *pat {
                self.bump();
                return Ok((Tok::Sym(sym), line, col));
            }
        }
        Err(err(line, col, format!("unexpected character `{}`", c as char)))
    }
}

/// Nesting limit across `(` groups, `a[…]` loads, `{` blocks and binary
/// operator folds (each deepens the left-leaning tree a chain builds):
/// far above any real program, and low enough that the recursive descent
/// here and every pass over the tree it builds stay well inside a worker
/// thread's stack on adversarial input.
const MAX_DEPTH: usize = 256;

/// Words in the static data segment, the ceiling on the summed length of
/// every declared array: codegen lays them all out between `DATA_BASE`
/// and `SHADOW_BASE`, and both codegen and the interpreter allocate them
/// up front.
const DATA_WORDS: u64 = (layout::SHADOW_BASE - layout::DATA_BASE) / 8;

struct Parser {
    toks: Vec<(Tok, usize, usize)>,
    pos: usize,
    depth: usize,
    /// Summed length of the arrays declared so far.
    array_words: u64,
    builder: WirBuilder,
    vars: BTreeMap<String, VarId>,
    arrays: BTreeMap<String, ArrId>,
    secrets: Vec<VarId>,
}

impl Parser {
    fn here(&self) -> (usize, usize) {
        let (_, l, c) = &self.toks[self.pos.min(self.toks.len() - 1)];
        (*l, *c)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        let (line, col) = self.here();
        ParseError { line, col, message: message.into() }
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos.min(self.toks.len() - 1)].0
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].0.clone();
        self.pos += 1;
        t
    }

    fn eat_sym(&mut self, s: &str) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Sym(got) if *got == s => {
                self.bump();
                Ok(())
            }
            other => Err(self.error(format!("expected `{s}`, found {other:?}"))),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_int(&mut self) -> Result<u64, ParseError> {
        match self.bump() {
            Tok::Int(v) => Ok(v),
            other => Err(self.error(format!("expected integer, found {other:?}"))),
        }
    }

    /// Go one nesting level deeper, refusing past [`MAX_DEPTH`]. An error
    /// abandons the whole parse, so only success paths climb back out.
    fn descend(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn lookup_var(&self, name: &str) -> Result<VarId, ParseError> {
        self.vars.get(name).copied().ok_or_else(|| self.error(format!("unknown variable `{name}`")))
    }

    // --- declarations and top level ---------------------------------

    fn parse_program(&mut self) -> Result<(), ParseError> {
        loop {
            match self.peek().clone() {
                Tok::Eof => break,
                Tok::Ident(kw) if kw == "var" || kw == "secret" => {
                    // Lookahead: `secret` may also start `if secret`? No —
                    // `if` starts with the `if` keyword, so bare `secret`
                    // here is always a declaration.
                    self.bump();
                    let name = self.expect_ident()?;
                    let init = if matches!(self.peek(), Tok::Sym("=")) {
                        self.bump();
                        self.expect_int()?
                    } else {
                        0
                    };
                    self.eat_sym(";")?;
                    if self.vars.contains_key(&name) {
                        return Err(self.error(format!("variable `{name}` redeclared")));
                    }
                    let id = self.builder.var(name.clone(), init);
                    if kw == "secret" {
                        self.secrets.push(id);
                    }
                    self.vars.insert(name, id);
                }
                Tok::Ident(kw) if kw == "scratch" || kw == "array" => {
                    let scratch = kw == "scratch";
                    self.bump();
                    if scratch && !self.eat_kw("array") {
                        return Err(self.error("expected `array` after `scratch`"));
                    }
                    let name = self.expect_ident()?;
                    self.eat_sym("[")?;
                    let len = self.expect_int()?;
                    self.array_words = self.array_words.saturating_add(len);
                    if self.array_words > DATA_WORDS {
                        return Err(self.error(format!(
                            "arrays need more than the data segment's {DATA_WORDS} words"
                        )));
                    }
                    let len = len as usize;
                    self.eat_sym("]")?;
                    let mut init = Vec::new();
                    if matches!(self.peek(), Tok::Sym("=")) {
                        self.bump();
                        self.eat_sym("{")?;
                        loop {
                            init.push(self.expect_int()?);
                            if matches!(self.peek(), Tok::Sym(",")) {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                        self.eat_sym("}")?;
                    }
                    self.eat_sym(";")?;
                    if init.len() > len {
                        return Err(self.error("array initializer longer than the array"));
                    }
                    if self.arrays.contains_key(&name) {
                        return Err(self.error(format!("array `{name}` redeclared")));
                    }
                    let id = if scratch {
                        self.builder.scratch_array(name.clone(), len, init)
                    } else {
                        self.builder.array(name.clone(), len, init)
                    };
                    self.arrays.insert(name, id);
                }
                Tok::Ident(kw) if kw == "output" => {
                    self.bump();
                    let name = self.expect_ident()?;
                    let id = self.lookup_var(&name)?;
                    self.eat_sym(";")?;
                    self.builder.output(id);
                }
                _ => {
                    let s = self.parse_stmt()?;
                    self.builder.push(s);
                }
            }
        }
        Ok(())
    }

    // --- statements ---------------------------------------------------

    fn parse_block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.eat_sym("{")?;
        self.descend()?;
        let mut out = Vec::new();
        while !matches!(self.peek(), Tok::Sym("}")) {
            if matches!(self.peek(), Tok::Eof) {
                return Err(self.error("unclosed block"));
            }
            out.push(self.parse_stmt()?);
        }
        self.eat_sym("}")?;
        self.depth -= 1;
        Ok(out)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek().clone() {
            Tok::Ident(kw) if kw == "if" => {
                self.bump();
                let secret = self.eat_kw("secret");
                self.eat_sym("(")?;
                let cond = self.parse_expr()?;
                self.eat_sym(")")?;
                let then_ = self.parse_block()?;
                let else_ = if self.eat_kw("else") { self.parse_block()? } else { Vec::new() };
                Ok(Stmt::If { cond, secret, then_, else_ })
            }
            Tok::Ident(kw) if kw == "while" => {
                self.bump();
                self.eat_sym("(")?;
                let cond = self.parse_expr()?;
                self.eat_sym(")")?;
                if !self.eat_kw("bound") {
                    return Err(self.error(
                        "every `while` needs a public `bound N` (constant-time discipline)",
                    ));
                }
                let bound = self.expect_int()? as u32;
                let body = self.parse_block()?;
                Ok(Stmt::While { cond, bound, body })
            }
            Tok::Ident(name) => {
                self.bump();
                if matches!(self.peek(), Tok::Sym("[")) {
                    // Array store.
                    let arr = *self
                        .arrays
                        .get(&name)
                        .ok_or_else(|| self.error(format!("unknown array `{name}`")))?;
                    self.bump();
                    let idx = self.parse_expr()?;
                    self.eat_sym("]")?;
                    self.eat_sym("=")?;
                    let val = self.parse_expr()?;
                    self.eat_sym(";")?;
                    Ok(Stmt::Store(arr, idx, val))
                } else {
                    let var = self.lookup_var(&name)?;
                    self.eat_sym("=")?;
                    let e = self.parse_expr()?;
                    self.eat_sym(";")?;
                    Ok(Stmt::Assign(var, e))
                }
            }
            other => Err(self.error(format!("expected a statement, found {other:?}"))),
        }
    }

    // --- expressions (precedence climbing) ----------------------------

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_bin(0)
    }

    fn level_of(sym: &str) -> Option<(usize, BinOp)> {
        // Higher number binds tighter.
        Some(match sym {
            "|" => (0, BinOp::Or),
            "^" => (1, BinOp::Xor),
            "&" => (2, BinOp::And),
            "<" => (3, BinOp::Ltu),
            "<s" => (3, BinOp::Lt),
            "==" => (3, BinOp::Eq),
            "!=" => (3, BinOp::Ne),
            "<<" => (4, BinOp::Shl),
            ">>" => (4, BinOp::Shr),
            "+" => (5, BinOp::Add),
            "-" => (5, BinOp::Sub),
            "*" => (6, BinOp::Mul),
            "%" => (6, BinOp::Rem),
            _ => return None,
        })
    }

    fn parse_bin(&mut self, min_level: usize) -> Result<Expr, ParseError> {
        // Each fold deepens the left-leaning tree, so it descends a level
        // for the rest of the chain.
        let outer = self.depth;
        let mut lhs = self.parse_primary()?;
        while let Tok::Sym(s) = self.peek() {
            let Some((level, op)) = Self::level_of(s).filter(|(l, _)| *l >= min_level) else {
                break;
            };
            self.bump();
            self.descend()?;
            let rhs = self.parse_bin(level + 1)?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Tok::Int(v) => Ok(Expr::Const(v)),
            Tok::Sym("(") => {
                self.descend()?;
                let e = self.parse_expr()?;
                self.eat_sym(")")?;
                self.depth -= 1;
                Ok(e)
            }
            Tok::Ident(name) => {
                if matches!(self.peek(), Tok::Sym("[")) {
                    let arr = *self
                        .arrays
                        .get(&name)
                        .ok_or_else(|| self.error(format!("unknown array `{name}`")))?;
                    self.bump();
                    self.descend()?;
                    let idx = self.parse_expr()?;
                    self.eat_sym("]")?;
                    self.depth -= 1;
                    Ok(Expr::Load(arr, Box::new(idx)))
                } else {
                    Ok(Expr::Var(self.lookup_var(&name)?))
                }
            }
            other => Err(self.error(format!("expected an expression, found {other:?}"))),
        }
    }
}

/// Parse WIR source text.
///
/// # Errors
///
/// [`ParseError`] with 1-based line/column on the first syntax or
/// name-resolution problem.
pub fn parse_wir(src: &str) -> Result<ParsedProgram, ParseError> {
    let mut lx = Lexer::new(src);
    let mut toks = Vec::new();
    loop {
        let t = lx.next_token()?;
        let eof = matches!(t.0, Tok::Eof);
        toks.push(t);
        if eof {
            break;
        }
    }
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
        array_words: 0,
        builder: WirBuilder::new(),
        vars: BTreeMap::new(),
        arrays: BTreeMap::new(),
        secrets: Vec::new(),
    };
    p.parse_program()?;
    Ok(ParsedProgram { program: p.builder.build(), secrets: p.secrets })
}

// --- pretty-printing (the inverse of `parse_wir`) ---------------------

const KEYWORDS: &[&str] =
    &["var", "secret", "array", "scratch", "output", "if", "else", "while", "bound"];

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !KEYWORDS.contains(&s)
}

/// Printable, collision-free names for every variable and array:
/// invalid or duplicate names fall back to `v{i}` / `a{i}` ordinals.
fn name_tables(prog: &WirProgram) -> (Vec<String>, Vec<String>) {
    let mut taken = std::collections::BTreeSet::new();
    let mut rename = |want: &str, fallback: String| -> String {
        let mut name =
            if is_ident(want) && !taken.contains(want) { want.to_string() } else { fallback };
        while taken.contains(&name) {
            name.push('_');
        }
        taken.insert(name.clone());
        name
    };
    let vars =
        (0..prog.var_count()).map(|i| rename(prog.var_name(VarId(i)), format!("v{i}"))).collect();
    let arrays =
        prog.arrays().iter().enumerate().map(|(i, d)| rename(&d.name, format!("a{i}"))).collect();
    (vars, arrays)
}

fn expr_source(out: &mut String, e: &Expr, vars: &[String], arrays: &[String]) {
    match e {
        Expr::Const(c) => out.push_str(&c.to_string()),
        Expr::Var(v) => out.push_str(&vars[v.0]),
        Expr::Bin(op, a, b) => {
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Rem => "%",
                BinOp::And => "&",
                BinOp::Or => "|",
                BinOp::Xor => "^",
                BinOp::Shl => "<<",
                BinOp::Shr => ">>",
                BinOp::Ltu => "<",
                BinOp::Lt => "<s",
                BinOp::Eq => "==",
                BinOp::Ne => "!=",
            };
            // Fully parenthesized: precedence-proof by construction.
            out.push('(');
            expr_source(out, a, vars, arrays);
            out.push(' ');
            out.push_str(sym);
            out.push(' ');
            expr_source(out, b, vars, arrays);
            out.push(')');
        }
        Expr::Load(a, idx) => {
            out.push_str(&arrays[a.0]);
            out.push('[');
            expr_source(out, idx, vars, arrays);
            out.push(']');
        }
    }
}

fn stmts_source(out: &mut String, stmts: &[Stmt], vars: &[String], arrays: &[String], ind: usize) {
    let pad = "    ".repeat(ind);
    for s in stmts {
        match s {
            Stmt::Assign(v, e) => {
                out.push_str(&pad);
                out.push_str(&vars[v.0]);
                out.push_str(" = ");
                expr_source(out, e, vars, arrays);
                out.push_str(";\n");
            }
            Stmt::Store(a, idx, val) => {
                out.push_str(&pad);
                out.push_str(&arrays[a.0]);
                out.push('[');
                expr_source(out, idx, vars, arrays);
                out.push_str("] = ");
                expr_source(out, val, vars, arrays);
                out.push_str(";\n");
            }
            Stmt::If { cond, secret, then_, else_ } => {
                out.push_str(&pad);
                out.push_str(if *secret { "if secret (" } else { "if (" });
                expr_source(out, cond, vars, arrays);
                out.push_str(") {\n");
                stmts_source(out, then_, vars, arrays, ind + 1);
                if else_.is_empty() {
                    out.push_str(&pad);
                    out.push_str("}\n");
                } else {
                    out.push_str(&pad);
                    out.push_str("} else {\n");
                    stmts_source(out, else_, vars, arrays, ind + 1);
                    out.push_str(&pad);
                    out.push_str("}\n");
                }
            }
            Stmt::While { cond, bound, body } => {
                out.push_str(&pad);
                out.push_str("while (");
                expr_source(out, cond, vars, arrays);
                out.push_str(&format!(") bound {bound} {{\n"));
                stmts_source(out, body, vars, arrays, ind + 1);
                out.push_str(&pad);
                out.push_str("}\n");
            }
        }
    }
}

/// Render a WIR program as source text that [`parse_wir`] accepts and
/// parses back to a structurally identical program (same declaration
/// order, hence identical [`VarId`]/[`ArrId`] assignments, same `secrets`
/// list). Names that are not valid identifiers (or collide) are replaced
/// by `v{i}` / `a{i}` ordinals.
///
/// This is how the fuzzer's shrinker emits minimized reproducers: a
/// corpus entry is plain WIR source, readable and replayable by hand.
#[must_use]
pub fn to_source(prog: &WirProgram, secrets: &[VarId]) -> String {
    let (vars, arrays) = name_tables(prog);
    let mut out = String::new();
    for (i, name) in vars.iter().enumerate() {
        let v = VarId(i);
        let kw = if secrets.contains(&v) { "secret" } else { "var" };
        out.push_str(&format!("{kw} {name} = {};\n", prog.var_init(v)));
    }
    for (i, d) in prog.arrays().iter().enumerate() {
        let kw = if d.scratch { "scratch array" } else { "array" };
        out.push_str(&format!("{kw} {}[{}]", arrays[i], d.len));
        if d.init.is_empty() {
            out.push_str(";\n");
        } else {
            let words: Vec<String> = d.init.iter().map(u64::to_string).collect();
            out.push_str(&format!(" = {{{}}};\n", words.join(", ")));
        }
    }
    stmts_source(&mut out, prog.body(), &vars, &arrays, 0);
    for v in prog.outputs() {
        out.push_str(&format!("output {};\n", vars[v.0]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_wir;
    use crate::taint::analyze_taint;
    use std::collections::BTreeMap as Map;

    fn run(src: &str) -> Vec<u64> {
        let parsed = parse_wir(src).expect("parses");
        run_wir(&parsed.program, &Map::new()).expect("runs").outputs
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(run("var x = 0; x = 2 + 3 * 4; output x;"), vec![14]);
        assert_eq!(run("var x = 0; x = (2 + 3) * 4; output x;"), vec![20]);
        assert_eq!(run("var x = 0; x = 1 << 3 | 1; output x;"), vec![9]);
        assert_eq!(run("var x = 0; x = 10 % 3; output x;"), vec![1]);
        assert_eq!(run("var x = 0; x = 7 & 3 ^ 1; output x;"), vec![2]);
    }

    #[test]
    fn comparisons_signed_and_unsigned() {
        assert_eq!(run("var x = 0; x = 1 < 2; output x;"), vec![1]);
        // 0 - 1 wraps to u64::MAX: unsigned-greater, signed-less.
        assert_eq!(run("var x = 0; x = (0 - 1) < 1; output x;"), vec![0]);
        assert_eq!(run("var x = 0; x = (0 - 1) <s 1; output x;"), vec![1]);
        assert_eq!(run("var x = 0; x = 3 == 3; output x;"), vec![1]);
        assert_eq!(run("var x = 0; x = 3 != 3; output x;"), vec![0]);
    }

    #[test]
    fn literals_decimal_hex_binary() {
        assert_eq!(run("var x = 0; x = 0x10 + 0b101 + 1_000; output x;"), vec![16 + 5 + 1000]);
    }

    #[test]
    fn secret_if_and_outputs() {
        let src = r"
            secret s = 1;
            var out = 0;
            if secret (s) { out = 10; } else { out = 20; }
            output out;
        ";
        assert_eq!(run(src), vec![10]);
        let parsed = parse_wir(src).unwrap();
        assert_eq!(parsed.secrets.len(), 1);
        assert_eq!(parsed.program.secret_depth(), 1);
        assert!(analyze_taint(&parsed.program, &parsed.secrets).is_clean());
    }

    #[test]
    fn while_with_bound_and_arrays() {
        let src = r"
            array a[8] = { 5, 6, 7 };
            scratch array tmp[4];
            var i = 0;
            var acc = 0;
            while (i < 8) bound 9 {
                tmp[i & 3] = a[i & 7];
                acc = acc + tmp[i & 3];
                i = i + 1;
            }
            output acc;
        ";
        assert_eq!(run(src), vec![5 + 6 + 7]);
        let parsed = parse_wir(src).unwrap();
        assert!(parsed.program.arrays()[1].scratch);
        assert!(!parsed.program.arrays()[0].scratch);
    }

    #[test]
    fn modexp_in_the_surface_language_compiles_on_all_backends() {
        let src = r"
            secret key = 0b1011;
            var r = 1;
            var base = 7;
            var i = 0;
            var bit = 0;
            while (i < 4) bound 5 {
                bit = (key >> i) & 1;
                if secret (bit) { r = (r * base) % 1000003; }
                base = (base * base) % 1000003;
                i = i + 1;
            }
            output r;
        ";
        let parsed = parse_wir(src).unwrap();
        let want = run_wir(&parsed.program, &Map::new()).unwrap().outputs;
        assert_eq!(want, vec![7u64.pow(0b1011) % 1000003]);
        assert!(analyze_taint(&parsed.program, &parsed.secrets).is_clean());
        for backend in [crate::Backend::Baseline, crate::Backend::Sempe, crate::Backend::Cte] {
            let cw = crate::compile(&parsed.program, backend).expect("compiles");
            let mut m =
                sempe_isa::Interp::new(cw.program(), sempe_isa::InterpMode::Legacy).unwrap();
            m.run(10_000_000).unwrap();
            assert_eq!(cw.read_outputs(m.mem()), want, "{backend}");
        }
    }

    #[test]
    fn taint_checker_rejects_leaky_source() {
        let src = r"
            secret s = 1;
            var out = 0;
            if (s) { out = 1; }   // public branch on a secret!
            output out;
        ";
        let parsed = parse_wir(src).unwrap();
        let report = analyze_taint(&parsed.program, &parsed.secrets);
        assert!(!report.is_clean(), "the leak must be flagged");
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_wir("var x = 0;\nx = @;").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains('@'));

        let err = parse_wir("x = 1;").unwrap_err();
        assert!(err.message.contains("unknown variable"));

        let err = parse_wir("var x = 0; while (x < 3) { x = x + 1; }").unwrap_err();
        assert!(err.message.contains("bound"), "{err}");

        let err = parse_wir("var x = 0; var x = 1;").unwrap_err();
        assert!(err.message.contains("redeclared"));

        let err = parse_wir("var x = 0; x = (1 + 2;").unwrap_err();
        assert!(err.message.contains("expected `)`"), "{err}");
    }

    /// `out = ((…1…))` with `parens` parens, `ifs` nested `if`s,
    /// `out = a[a[…0…]]` with `loads` loads, and `out = 0 | 0 | … | 1`
    /// with `ors` operators.
    fn deep_sources(parens: usize, ifs: usize, loads: usize, ors: usize) -> [String; 4] {
        let (open, close) = ("(".repeat(parens), ")".repeat(parens));
        let parens = format!("var out = 0; out = {open}1{close}; output out;");
        let (open, close) = ("if (1) { ".repeat(ifs), "} ".repeat(ifs));
        let ifs = format!("var out = 0; {open}out = 1; {close}output out;");
        let (open, close) = ("a[".repeat(loads), "]".repeat(loads));
        let loads = format!("array a[4]; var out = 0; out = {open}0{close}; output out;");
        let ors = format!("var out = 0; out = {}1; output out;", "0 | ".repeat(ors));
        [parens, ifs, loads, ors]
    }

    #[test]
    fn hostile_nesting_is_a_parse_error_not_a_stack_overflow() {
        // Each of these overflowed a worker stack before the depth guard.
        for src in deep_sources(8000, 4000, 12000, 30000) {
            let err = parse_wir(&src).unwrap_err();
            assert!(err.message.contains("nesting deeper than 256 levels"), "{err}");
        }
    }

    #[test]
    fn nesting_up_to_the_limit_parses_runs_and_compiles() {
        for src in deep_sources(MAX_DEPTH, MAX_DEPTH, MAX_DEPTH, MAX_DEPTH) {
            // The innermost load reads the zero-initialised array.
            let want = if src.starts_with("array") { 0 } else { 1 };
            assert_eq!(run(&src), vec![want]);
            let parsed = parse_wir(&src).unwrap();
            for backend in [crate::Backend::Baseline, crate::Backend::Sempe, crate::Backend::Cte] {
                crate::compile(&parsed.program, backend).expect("compiles");
            }
        }
        for src in deep_sources(MAX_DEPTH + 1, MAX_DEPTH + 1, MAX_DEPTH + 1, MAX_DEPTH + 1) {
            assert!(parse_wir(&src).is_err(), "one level past the limit is refused");
        }
    }

    #[test]
    fn arrays_past_the_data_segment_are_a_parse_error_not_an_abort() {
        // 4e9 words made codegen try a 32 GB allocation; u64::MAX is a
        // `-1` length cast to `usize`. Two arrays that fit alone but not
        // together are refused too.
        let half = DATA_WORDS / 2 + 1;
        for decls in [
            "array a[4000000000];".to_string(),
            format!("array a[{}];", u64::MAX),
            format!("array a[{half}]; scratch array b[{half}];"),
        ] {
            let err = parse_wir(&format!("{decls} var out = 0; output out;")).unwrap_err();
            assert!(err.message.contains("data segment"), "{decls}: {err}");
        }
        assert!(parse_wir("array a[-1]; var out = 0; output out;").is_err());
    }

    #[test]
    fn the_largest_legal_array_still_parses() {
        let src = format!("array a[{DATA_WORDS}]; var out = 0; output out;");
        let parsed = parse_wir(&src).expect("a data-segment-sized array parses");
        assert_eq!(parsed.program.arrays()[0].len as u64, DATA_WORDS);
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(run("// leading\nvar x = 3; // trailing\noutput x; // end"), vec![3]);
    }

    #[test]
    fn nested_ifs_and_else() {
        let src = r"
            secret a = 1;
            secret b = 0;
            var out = 0;
            if secret (a) {
                if secret (b) { out = 1; } else { out = 2; }
            } else {
                out = 3;
            }
            output out;
        ";
        assert_eq!(run(src), vec![2]);
        let parsed = parse_wir(src).unwrap();
        assert_eq!(parsed.program.secret_depth(), 2);
    }

    #[test]
    fn to_source_round_trips_structurally() {
        let src = r"
            secret key = 11;
            var out = 1;
            var i = 0;
            array tab[4] = {2, 3};
            scratch array tmp[2];
            while (i < 4) bound 4 {
                if secret (((key >> i) & 1) != 0) {
                    out = (out * tab[i % 4]) % 1000003;
                } else {
                    tab[i % 4] = out <s (0 - 1);
                }
                i = i + 1;
            }
            if (out == 18446744073709551615) { out = out ^ (1 << 63); }
            output out;
            output i;
        ";
        let parsed = parse_wir(src).unwrap();
        let text = to_source(&parsed.program, &parsed.secrets);
        let reparsed = parse_wir(&text).expect("printed source parses");
        assert_eq!(reparsed.program, parsed.program, "structural round-trip");
        assert_eq!(reparsed.secrets, parsed.secrets);
        // And printing is a fixpoint.
        assert_eq!(to_source(&reparsed.program, &reparsed.secrets), text);
    }

    #[test]
    fn to_source_sanitizes_hostile_names() {
        let mut b = WirBuilder::new();
        let weird = b.var("not an ident!", 7);
        let kw = b.var("while", 1);
        let dup_a = b.var("x", 2);
        let dup_b = b.var("x", 3);
        let _arr = b.array("output", 2, vec![5]);
        b.push(b.assign(weird, Expr::bin(BinOp::Add, Expr::Var(dup_a), Expr::Var(dup_b))));
        b.output(weird);
        b.output(kw);
        let prog = b.build();
        let text = to_source(&prog, &[]);
        let reparsed = parse_wir(&text).expect("sanitized source parses");
        assert_eq!(reparsed.program.var_count(), 4);
        assert_eq!(reparsed.program.var_init(VarId(0)), 7);
        assert_eq!(reparsed.program.body(), prog.body());
        let out = crate::interp::run_wir(&reparsed.program, &Map::new()).unwrap();
        assert_eq!(out.outputs, vec![5, 1]);
    }
}
