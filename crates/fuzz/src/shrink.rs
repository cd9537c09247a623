//! Greedy divergence-preserving minimizer.
//!
//! Given a case that provokes a [`Divergence`](crate::Divergence),
//! repeatedly try single-step reductions — delete a statement, inline a
//! conditional arm, unroll a loop body once, collapse a subexpression,
//! zero an initializer — and keep any reduction that still provokes a
//! divergence of the same kind. The result is the small reproducer that
//! gets checked into `corpus/`.

use sempe_compile::wir::{Expr, Stmt};

use crate::gen::FuzzCase;
use crate::oracle::{check_case, DivergenceKind, EngineSet, SimArena};

/// Cap on oracle evaluations during one shrink (each evaluation is a
/// full differential run of a — shrinking — program).
pub const MAX_SHRINK_EVALS: usize = 400;

fn expr_reductions(e: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    match e {
        Expr::Const(c) => {
            if *c > 1 {
                out.push(Expr::Const(0));
                out.push(Expr::Const(1));
                out.push(Expr::Const(*c >> 1));
            } else if *c == 1 {
                out.push(Expr::Const(0));
            }
        }
        Expr::Var(_) => {
            out.push(Expr::Const(0));
            out.push(Expr::Const(1));
        }
        Expr::Bin(op, a, b) => {
            out.push((**a).clone());
            out.push((**b).clone());
            out.push(Expr::Const(0));
            for ra in expr_reductions(a) {
                out.push(Expr::Bin(*op, Box::new(ra), b.clone()));
            }
            for rb in expr_reductions(b) {
                out.push(Expr::Bin(*op, a.clone(), Box::new(rb)));
            }
        }
        Expr::Load(arr, idx) => {
            out.push((**idx).clone());
            out.push(Expr::Const(0));
            for ri in expr_reductions(idx) {
                out.push(Expr::Load(*arr, Box::new(ri)));
            }
        }
    }
    out
}

/// All one-step reductions of a single statement (keeping its kind).
fn stmt_reductions(s: &Stmt) -> Vec<Stmt> {
    let mut out = Vec::new();
    match s {
        Stmt::Assign(v, e) => {
            for re in expr_reductions(e) {
                out.push(Stmt::Assign(*v, re));
            }
        }
        Stmt::Store(a, idx, val) => {
            for ri in expr_reductions(idx) {
                out.push(Stmt::Store(*a, ri, val.clone()));
            }
            for rv in expr_reductions(val) {
                out.push(Stmt::Store(*a, idx.clone(), rv));
            }
        }
        Stmt::If { cond, secret, then_, else_ } => {
            for rc in expr_reductions(cond) {
                out.push(Stmt::If {
                    cond: rc,
                    secret: *secret,
                    then_: then_.clone(),
                    else_: else_.clone(),
                });
            }
            for rt in body_reductions(then_) {
                out.push(Stmt::If {
                    cond: cond.clone(),
                    secret: *secret,
                    then_: rt,
                    else_: else_.clone(),
                });
            }
            for re in body_reductions(else_) {
                out.push(Stmt::If {
                    cond: cond.clone(),
                    secret: *secret,
                    then_: then_.clone(),
                    else_: re,
                });
            }
        }
        Stmt::While { cond, bound, body } => {
            for rc in expr_reductions(cond) {
                out.push(Stmt::While { cond: rc, bound: *bound, body: body.clone() });
            }
            for rb in body_reductions(body) {
                out.push(Stmt::While { cond: cond.clone(), bound: *bound, body: rb });
            }
        }
    }
    out
}

/// All one-step reductions of a statement list: drop a statement,
/// replace a compound statement by one of its bodies, or reduce a
/// statement in place.
fn body_reductions(stmts: &[Stmt]) -> Vec<Vec<Stmt>> {
    let mut out = Vec::new();
    let splice = |i: usize, replacement: Vec<Stmt>| -> Vec<Stmt> {
        let mut v = stmts.to_vec();
        v.splice(i..=i, replacement);
        v
    };
    for (i, s) in stmts.iter().enumerate() {
        out.push(splice(i, Vec::new()));
        match s {
            Stmt::If { then_, else_, .. } => {
                if !then_.is_empty() {
                    out.push(splice(i, then_.clone()));
                }
                if !else_.is_empty() {
                    out.push(splice(i, else_.clone()));
                }
            }
            Stmt::While { body, .. } if !body.is_empty() => {
                out.push(splice(i, body.clone()));
            }
            _ => {}
        }
        for rs in stmt_reductions(s) {
            out.push(splice(i, vec![rs]));
        }
    }
    out
}

fn case_reductions(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    for body in body_reductions(&case.body) {
        out.push(FuzzCase { body, ..case.clone() });
    }
    for (i, init) in case.var_inits.iter().enumerate() {
        if *init != 0 {
            let mut c = case.clone();
            c.var_inits[i] = 0;
            out.push(c);
        }
    }
    for (j, spec) in case.arrays.iter().enumerate() {
        if spec.init.iter().any(|w| *w != 0) {
            let mut c = case.clone();
            c.arrays[j].init = vec![0; spec.init.len()];
            out.push(c);
        }
    }
    if case.pair != (0, 1) {
        let mut c = case.clone();
        c.pair = (0, 1);
        out.push(c);
    }
    out
}

/// Minimize `case` while preserving a divergence of kind `kind`.
/// Returns the reduced case (possibly the original).
#[must_use]
pub fn shrink(
    case: &FuzzCase,
    kind: DivergenceKind,
    engines: &EngineSet,
    arena: &mut SimArena,
) -> FuzzCase {
    let mut best = case.clone();
    let mut evals = 0usize;
    'outer: loop {
        for candidate in case_reductions(&best) {
            if evals >= MAX_SHRINK_EVALS {
                break 'outer;
            }
            // A constant-time case must stay audit-clean while it
            // shrinks — otherwise the minimizer "reproduces" the leak by
            // introducing a secret-dependent access of its own (e.g.
            // collapsing a masked index to the bare key).
            if candidate.profile == crate::gen::Profile::ConstantTime
                && !crate::gen::passes_ct_audit(&candidate)
            {
                continue;
            }
            evals += 1;
            if let Err(d) = check_case(&candidate, engines, arena) {
                if d.kind == kind {
                    best = candidate;
                    continue 'outer;
                }
            }
        }
        break;
    }
    best
}
