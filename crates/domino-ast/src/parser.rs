//! Recursive-descent parser for Domino.
//!
//! The grammar is a small subset of C (Table 1 of the paper):
//!
//! ```text
//! program     := (define | struct | global | transaction)*
//! define      := '#define' IDENT const-expr
//! struct      := 'struct' IDENT '{' ('int' IDENT ';')* '}' ';'
//! global      := 'int' IDENT ('[' expr ']')? ('=' init)? ';'
//! init        := expr | '{' expr '}'
//! transaction := 'void' IDENT '(' 'struct' IDENT IDENT ')' block
//! block       := '{' stmt* '}'
//! stmt        := assign ';' | if | block
//! if          := 'if' '(' expr ')' stmt ('else' stmt)?
//! assign      := lvalue ('=' | '+=' | '-=') expr | lvalue ('++' | '--')
//! ```
//!
//! Compound assignments and increments are desugared during parsing, so the
//! AST only ever contains plain assignments. Banned C constructs produce
//! targeted diagnostics referencing the paper's Table 1, and a program that
//! nests deeper than [`MAX_NEST`] is rejected where it does.

use crate::ast::*;
use crate::diag::{Diagnostic, Result, Stage};
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// The deepest nest the parser accepts: `if`s, brackets and operators above
/// any leaf, counted together. Every later pass recurses over the tree, and
/// branch removal's time grows as the fourth power of `if` depth, so this
/// bound is what keeps the compiler's stack and its running time finite on
/// any source text. The deepest Table 4 program nests 3.
pub const MAX_NEST: usize = 64;

/// Parses a complete Domino program (defines, packet struct, state
/// declarations, and exactly one packet transaction).
pub fn parse(source: &str) -> Result<Program> {
    let tokens = lex(source)?;
    Parser::new(tokens).program()
}

/// Parses a standalone expression (used for transaction *guards*, §3.3).
pub fn parse_expr(source: &str) -> Result<Expr> {
    let tokens = lex(source)?;
    let mut p = Parser::new(tokens);
    let e = p.expr()?;
    p.expect(TokenKind::Eof)?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// `if`s, brackets and operators open around the cursor.
    depth: usize,
}

/// Levels of `e`, a leaf being one. The recursion is bounded: the parser
/// checks every node it builds before building on it.
fn height(e: &Expr) -> usize {
    let below = match e {
        Expr::Int(..) | Expr::Ident(..) | Expr::Field(..) => 0,
        Expr::Index(_, e, _) | Expr::Unary(_, e, _) => height(e),
        Expr::Binary(_, a, b, _) => height(a).max(height(b)),
        Expr::Ternary(c, t, e, _) => height(c).max(height(t)).max(height(e)),
        Expr::Call(_, args, _) => args.iter().map(height).max().unwrap_or(0),
    };
    below + 1
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Parser {
        let (pos, depth) = (0, 0);
        Parser { tokens, pos, depth }
    }

    /// Refuses a tree of `levels` levels rooted at the cursor's depth.
    fn fits(&self, levels: usize) -> Result<()> {
        if self.depth + levels > MAX_NEST + 1 {
            return Err(self.err_here(format!(
                "this nests deeper than {MAX_NEST} levels (`if`s, brackets and operators \
                 counted together): flatten the conditionals, or split the expression \
                 over packet fields used as temporaries"
            )));
        }
        Ok(())
    }

    /// Runs `parse` one level down; the level will hold a leaf at least.
    fn nested<T>(&mut self, parse: fn(&mut Self) -> Result<T>) -> Result<T> {
        self.fits(2)?;
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    /// An operator node built over operands that were parsed at its own
    /// depth: the one way a tree outgrows the parser's recursion.
    fn built(&self, e: Expr) -> Result<Expr> {
        self.fits(height(&e))?;
        Ok(e)
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek_kind() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token> {
        if self.at(&kind) {
            Ok(self.bump())
        } else {
            Err(self.err_here(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek_kind().describe()
            )))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<(String, Span)> {
        match self.peek_kind().clone() {
            TokenKind::Ident(name) => {
                let t = self.bump();
                Ok((name, t.span))
            }
            other => Err(self.err_here(format!("expected {what}, found {}", other.describe()))),
        }
    }

    fn err_here(&self, msg: impl Into<String>) -> Diagnostic {
        Diagnostic::new(Stage::Parse, msg, self.peek().span)
    }

    /// Produces the targeted Table 1 diagnostic for a banned keyword.
    fn banned_diag(&self, kw: &str) -> Diagnostic {
        let reason = match kw {
            "for" | "while" | "do" => {
                "iteration is not allowed in Domino (Table 1): loops have \
                 unbounded cycle counts and cannot run at line rate"
            }
            "goto" | "break" | "continue" => {
                "unstructured control flow is not allowed in Domino (Table 1)"
            }
            "return" => {
                "`return` is not allowed: a packet transaction always runs to \
                 completion (use nested conditionals instead)"
            }
            _ => "this C keyword is not part of the Domino language (Table 1)",
        };
        self.err_here(format!("`{kw}`: {reason}"))
    }

    // ------------------------------------------------------------------
    // Items
    // ------------------------------------------------------------------

    fn program(&mut self) -> Result<Program> {
        let mut defines = Vec::new();
        let mut structs = Vec::new();
        let mut globals = Vec::new();
        let mut transaction: Option<Transaction> = None;

        loop {
            match self.peek_kind().clone() {
                TokenKind::Eof => break,
                TokenKind::HashDefine => defines.push(self.define()?),
                TokenKind::KwStruct => structs.push(self.struct_decl()?),
                TokenKind::KwInt => globals.push(self.global_decl()?),
                TokenKind::KwVoid => {
                    let t = self.transaction()?;
                    if let Some(prev) = &transaction {
                        return Err(Diagnostic::new(
                            Stage::Parse,
                            format!(
                                "multiple packet transactions (`{}` and `{}`): a Domino \
                                 program contains exactly one; compose several with the \
                                 policy API (§3.4)",
                                prev.name, t.name
                            ),
                            t.span,
                        ));
                    }
                    transaction = Some(t);
                }
                TokenKind::KwBanned(kw) => return Err(self.banned_diag(kw)),
                other => {
                    return Err(self.err_here(format!(
                        "expected a declaration or transaction, found {}",
                        other.describe()
                    )))
                }
            }
        }

        let transaction = transaction.ok_or_else(|| {
            Diagnostic::global(
                Stage::Parse,
                "program has no packet transaction (`void f(struct P pkt) {...}`)",
            )
        })?;
        Ok(Program {
            defines,
            structs,
            globals,
            transaction,
        })
    }

    fn define(&mut self) -> Result<Define> {
        let start = self.expect(TokenKind::HashDefine)?.span;
        let (name, _) = self.expect_ident("macro name after #define")?;
        let value = self.expr()?;
        let span = start.join(value.span());
        Ok(Define { name, value, span })
    }

    fn struct_decl(&mut self) -> Result<StructDecl> {
        let start = self.expect(TokenKind::KwStruct)?.span;
        let (name, _) = self.expect_ident("struct name")?;
        self.expect(TokenKind::LBrace)?;
        let mut fields = Vec::new();
        while !self.at(&TokenKind::RBrace) {
            self.expect(TokenKind::KwInt)?;
            self.reject_pointer()?;
            let (fname, fspan) = self.expect_ident("field name")?;
            if self.at(&TokenKind::LBracket) {
                return Err(self.err_here("packet fields must be scalar ints"));
            }
            self.expect(TokenKind::Semi)?;
            fields.push((fname, fspan));
        }
        let end = self.expect(TokenKind::RBrace)?.span;
        self.expect(TokenKind::Semi)?;
        Ok(StructDecl {
            name,
            fields,
            span: start.join(end),
        })
    }

    fn global_decl(&mut self) -> Result<GlobalDecl> {
        let start = self.expect(TokenKind::KwInt)?.span;
        self.reject_pointer()?;
        let (name, _) = self.expect_ident("state variable name")?;
        let size = if self.eat(&TokenKind::LBracket) {
            let e = self.expr()?;
            self.expect(TokenKind::RBracket)?;
            Some(e)
        } else {
            None
        };
        let init = if self.eat(&TokenKind::Assign) {
            if self.eat(&TokenKind::LBrace) {
                let e = self.expr()?;
                self.expect(TokenKind::RBrace)?;
                Some(e)
            } else {
                Some(self.expr()?)
            }
        } else {
            None
        };
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(GlobalDecl {
            name,
            size,
            init,
            span: start.join(end),
        })
    }

    fn reject_pointer(&self) -> Result<()> {
        if self.at(&TokenKind::Star) {
            return Err(self.err_here(
                "pointers are not allowed in Domino (Table 1): all state is \
                 named registers or arrays",
            ));
        }
        Ok(())
    }

    fn transaction(&mut self) -> Result<Transaction> {
        let start = self.expect(TokenKind::KwVoid)?.span;
        let (name, _) = self.expect_ident("transaction name")?;
        self.expect(TokenKind::LParen)?;
        self.expect(TokenKind::KwStruct)?;
        let (struct_name, _) = self.expect_ident("packet struct name")?;
        self.reject_pointer()?;
        let (param, _) = self.expect_ident("packet parameter name")?;
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        let span = start; // body spans are on statements
        Ok(Transaction {
            name,
            struct_name,
            param,
            body,
            span,
        })
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn block(&mut self) -> Result<Vec<Stmt>> {
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.at(&TokenKind::RBrace) {
            if self.at(&TokenKind::Eof) {
                return Err(self.err_here("unterminated block: expected `}`"));
            }
            stmts.push(self.stmt()?);
        }
        self.expect(TokenKind::RBrace)?;
        Ok(stmts)
    }

    /// A statement position: `if`, a nested block, or an assignment.
    fn stmt(&mut self) -> Result<Stmt> {
        match self.peek_kind().clone() {
            TokenKind::KwIf => self.nested(Self::if_stmt),
            TokenKind::KwBanned(kw) => Err(self.banned_diag(kw)),
            TokenKind::KwInt => Err(self.err_here(
                "local variable declarations are not allowed inside a packet \
                 transaction: use a packet field as a temporary",
            )),
            _ => {
                let s = self.assign_stmt()?;
                Ok(s)
            }
        }
    }

    /// One arm of an `if`: either a braced block or a single statement.
    fn arm(&mut self) -> Result<Vec<Stmt>> {
        if self.at(&TokenKind::LBrace) {
            self.block()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt> {
        let start = self.expect(TokenKind::KwIf)?.span;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let then_branch = self.arm()?;
        let else_branch = if self.eat(&TokenKind::KwElse) {
            if self.at(&TokenKind::KwIf) {
                // `else if` chains parse as a single-statement else arm.
                vec![self.nested(Self::if_stmt)?]
            } else {
                self.arm()?
            }
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_branch,
            else_branch,
            span: start,
        })
    }

    fn assign_stmt(&mut self) -> Result<Stmt> {
        let lhs = self.lvalue()?;
        let lspan = lhs.span();
        let lhs_as_expr = || -> Expr {
            match &lhs {
                LValue::Field(b, f, s) => Expr::Field(b.clone(), f.clone(), *s),
                LValue::Scalar(n, s) => Expr::Ident(n.clone(), *s),
                LValue::Array(n, i, s) => Expr::Index(n.clone(), i.clone(), *s),
            }
        };
        let rhs = match self.peek_kind().clone() {
            TokenKind::Assign => {
                self.bump();
                self.expr()?
            }
            TokenKind::PlusAssign => {
                self.bump();
                let r = self.expr()?;
                let s = lspan.join(r.span());
                Expr::Binary(BinOp::Add, Box::new(lhs_as_expr()), Box::new(r), s)
            }
            TokenKind::MinusAssign => {
                self.bump();
                let r = self.expr()?;
                let s = lspan.join(r.span());
                Expr::Binary(BinOp::Sub, Box::new(lhs_as_expr()), Box::new(r), s)
            }
            TokenKind::PlusPlus => {
                self.bump();
                Expr::Binary(
                    BinOp::Add,
                    Box::new(lhs_as_expr()),
                    Box::new(Expr::Int(1, lspan)),
                    lspan,
                )
            }
            TokenKind::MinusMinus => {
                self.bump();
                Expr::Binary(
                    BinOp::Sub,
                    Box::new(lhs_as_expr()),
                    Box::new(Expr::Int(1, lspan)),
                    lspan,
                )
            }
            other => {
                return Err(self.err_here(format!(
                    "expected an assignment operator after lvalue, found {}",
                    other.describe()
                )))
            }
        };
        let span = lspan.join(rhs.span());
        self.expect(TokenKind::Semi)?;
        Ok(Stmt::Assign { lhs, rhs, span })
    }

    fn lvalue(&mut self) -> Result<LValue> {
        let (name, span) = self.expect_ident("an lvalue (packet field or state variable)")?;
        if self.eat(&TokenKind::Dot) {
            let (field, fspan) = self.expect_ident("packet field name")?;
            Ok(LValue::Field(name, field, span.join(fspan)))
        } else if self.eat(&TokenKind::LBracket) {
            let idx = self.nested(Self::expr)?;
            let end = self.expect(TokenKind::RBracket)?.span;
            Ok(LValue::Array(name, Box::new(idx), span.join(end)))
        } else {
            Ok(LValue::Scalar(name, span))
        }
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing, C precedence)
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.ternary()
    }

    fn ternary(&mut self) -> Result<Expr> {
        let cond = self.logical_or()?;
        if self.eat(&TokenKind::Question) {
            let then = self.nested(Self::expr)?;
            self.expect(TokenKind::Colon)?;
            let els = self.nested(Self::ternary)?;
            let span = cond.span().join(els.span());
            self.built(Expr::Ternary(
                Box::new(cond),
                Box::new(then),
                Box::new(els),
                span,
            ))
        } else {
            Ok(cond)
        }
    }

    fn binary_level(
        &mut self,
        next: fn(&mut Self) -> Result<Expr>,
        ops: &[(TokenKind, BinOp)],
    ) -> Result<Expr> {
        let mut lhs = next(self)?;
        'outer: loop {
            for (tok, op) in ops {
                if self.at(tok) {
                    self.bump();
                    let rhs = next(self)?;
                    let span = lhs.span().join(rhs.span());
                    lhs = self.built(Expr::Binary(*op, Box::new(lhs), Box::new(rhs), span))?;
                    continue 'outer;
                }
            }
            return Ok(lhs);
        }
    }

    fn logical_or(&mut self) -> Result<Expr> {
        self.binary_level(Self::logical_and, &[(TokenKind::PipePipe, BinOp::Or)])
    }

    fn logical_and(&mut self) -> Result<Expr> {
        self.binary_level(Self::bit_or, &[(TokenKind::AmpAmp, BinOp::And)])
    }

    fn bit_or(&mut self) -> Result<Expr> {
        self.binary_level(Self::bit_xor, &[(TokenKind::Pipe, BinOp::BitOr)])
    }

    fn bit_xor(&mut self) -> Result<Expr> {
        self.binary_level(Self::bit_and, &[(TokenKind::Caret, BinOp::BitXor)])
    }

    fn bit_and(&mut self) -> Result<Expr> {
        self.binary_level(Self::equality, &[(TokenKind::Amp, BinOp::BitAnd)])
    }

    fn equality(&mut self) -> Result<Expr> {
        self.binary_level(
            Self::relational,
            &[(TokenKind::EqEq, BinOp::Eq), (TokenKind::Ne, BinOp::Ne)],
        )
    }

    fn relational(&mut self) -> Result<Expr> {
        self.binary_level(
            Self::shift,
            &[
                (TokenKind::Le, BinOp::Le),
                (TokenKind::Ge, BinOp::Ge),
                (TokenKind::Lt, BinOp::Lt),
                (TokenKind::Gt, BinOp::Gt),
            ],
        )
    }

    fn shift(&mut self) -> Result<Expr> {
        self.binary_level(
            Self::additive,
            &[(TokenKind::Shl, BinOp::Shl), (TokenKind::Shr, BinOp::Shr)],
        )
    }

    fn additive(&mut self) -> Result<Expr> {
        self.binary_level(
            Self::multiplicative,
            &[
                (TokenKind::Plus, BinOp::Add),
                (TokenKind::Minus, BinOp::Sub),
            ],
        )
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        self.binary_level(
            Self::unary,
            &[
                (TokenKind::Star, BinOp::Mul),
                (TokenKind::Slash, BinOp::Div),
                (TokenKind::Percent, BinOp::Mod),
            ],
        )
    }

    fn unary(&mut self) -> Result<Expr> {
        let span = self.peek().span;
        let op = match self.peek_kind() {
            TokenKind::Minus => UnOp::Neg,
            TokenKind::Bang => UnOp::Not,
            TokenKind::Tilde => UnOp::BitNot,
            TokenKind::Amp => {
                return Err(self.err_here(
                    "address-of is not allowed in Domino (Table 1): pointers do \
                     not exist in the language",
                ))
            }
            TokenKind::Star => {
                return Err(self.err_here("pointer dereference is not allowed in Domino (Table 1)"))
            }
            _ => return self.primary(),
        };
        self.bump();
        let e = self.nested(Self::unary)?;
        let s = span.join(e.span());
        Ok(Expr::Unary(op, Box::new(e), s))
    }

    fn primary(&mut self) -> Result<Expr> {
        let span = self.peek().span;
        match self.peek_kind().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Int(v as i32, span))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.nested(Self::expr)?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.eat(&TokenKind::Dot) {
                    let (field, fspan) = self.expect_ident("packet field name")?;
                    Ok(Expr::Field(name, field, span.join(fspan)))
                } else if self.eat(&TokenKind::LBracket) {
                    let idx = self.nested(Self::expr)?;
                    let end = self.expect(TokenKind::RBracket)?.span;
                    Ok(Expr::Index(name, Box::new(idx), span.join(end)))
                } else if self.eat(&TokenKind::LParen) {
                    let mut args = Vec::new();
                    if !self.at(&TokenKind::RParen) {
                        loop {
                            args.push(self.nested(Self::expr)?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    let end = self.expect(TokenKind::RParen)?.span;
                    Ok(Expr::Call(name, args, span.join(end)))
                } else {
                    Ok(Expr::Ident(name, span))
                }
            }
            TokenKind::KwBanned(kw) => Err(self.banned_diag(kw)),
            other => Err(self.err_here(format!(
                "expected an expression, found {}",
                other.describe()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLOWLET_SRC: &str = r#"
#define NUM_FLOWLETS 8000
#define THRESHOLD 5
#define NUM_HOPS 10

struct Packet {
  int sport;
  int dport;
  int new_hop;
  int arrival;
  int next_hop;
  int id;
};

int last_time[NUM_FLOWLETS] = {0};
int saved_hop[NUM_FLOWLETS] = {0};

void flowlet(struct Packet pkt) {
  pkt.new_hop = hash3(pkt.sport, pkt.dport, pkt.arrival) % NUM_HOPS;
  pkt.id = hash2(pkt.sport, pkt.dport) % NUM_FLOWLETS;
  if (pkt.arrival - last_time[pkt.id] > THRESHOLD) {
    saved_hop[pkt.id] = pkt.new_hop;
  }
  last_time[pkt.id] = pkt.arrival;
  pkt.next_hop = saved_hop[pkt.id];
}
"#;

    #[test]
    fn parses_flowlet_program() {
        let p = parse(FLOWLET_SRC).unwrap();
        assert_eq!(p.defines.len(), 3);
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.structs[0].fields.len(), 6);
        assert_eq!(p.globals.len(), 2);
        assert_eq!(p.transaction.name, "flowlet");
        assert_eq!(p.transaction.param, "pkt");
        assert_eq!(p.transaction.body.len(), 5);
    }

    #[test]
    fn precedence_binds_correctly() {
        // a - b > c must parse as (a - b) > c, as in Fig 3a line 27.
        let p = parse(
            "struct P { int a; int b; int c; int r; };\n\
             void f(struct P pkt) { pkt.r = pkt.a - pkt.b > pkt.c; }",
        )
        .unwrap();
        let Stmt::Assign { rhs, .. } = &p.transaction.body[0] else {
            panic!()
        };
        assert_eq!(rhs.to_string(), "((pkt.a - pkt.b) > pkt.c)");
    }

    #[test]
    fn ternary_is_right_associative() {
        let e = parse_expr("a ? b : c ? d : e").unwrap();
        assert_eq!(e.to_string(), "(a ? b : (c ? d : e))");
    }

    #[test]
    fn desugars_compound_assignment() {
        let p = parse(
            "struct P { int x; };\nint c = 0;\n\
             void f(struct P pkt) { c += pkt.x; }",
        )
        .unwrap();
        let Stmt::Assign { lhs, rhs, .. } = &p.transaction.body[0] else {
            panic!()
        };
        assert!(matches!(lhs, LValue::Scalar(n, _) if n == "c"));
        assert_eq!(rhs.to_string(), "(c + pkt.x)");
    }

    #[test]
    fn desugars_increment() {
        let p = parse("struct P { int x; };\nint c = 0;\nvoid f(struct P pkt) { c++; }").unwrap();
        let Stmt::Assign { rhs, .. } = &p.transaction.body[0] else {
            panic!()
        };
        assert_eq!(rhs.to_string(), "(c + 1)");
    }

    #[test]
    fn rejects_while_loop_with_table1_message() {
        let err =
            parse("struct P { int x; };\nvoid f(struct P pkt) { while (pkt.x) { pkt.x = 0; } }")
                .unwrap_err();
        assert!(err.message.contains("iteration"), "{}", err.message);
        assert!(err.message.contains("Table 1"), "{}", err.message);
    }

    #[test]
    fn rejects_for_goto_break_continue_return() {
        for (kw, frag) in [
            ("for", "for (;;) {}"),
            ("goto", "goto done;"),
            ("break", "break;"),
            ("continue", "continue;"),
            ("return", "return;"),
        ] {
            let src = format!("struct P {{ int x; }};\nvoid f(struct P pkt) {{ {frag} }}");
            let err = parse(&src).unwrap_err();
            assert!(err.message.contains(kw), "{kw}: {}", err.message);
        }
    }

    #[test]
    fn rejects_pointers() {
        let err = parse("int *x;\nstruct P { int a; };\nvoid f(struct P pkt) {}").unwrap_err();
        assert!(err.message.contains("pointer"), "{}", err.message);
        let err2 =
            parse("struct P { int a; };\nvoid f(struct P pkt) { pkt.a = &pkt; }").unwrap_err();
        assert!(err2.message.contains("address-of"), "{}", err2.message);
    }

    #[test]
    fn rejects_local_declarations() {
        let err = parse("struct P { int a; };\nvoid f(struct P pkt) { int tmp = 0; }").unwrap_err();
        assert!(err.message.contains("local variable"), "{}", err.message);
    }

    #[test]
    fn rejects_multiple_transactions() {
        let err = parse("struct P { int a; };\nvoid f(struct P pkt) {}\nvoid g(struct P pkt) {}")
            .unwrap_err();
        assert!(err.message.contains("exactly one"), "{}", err.message);
    }

    #[test]
    fn requires_a_transaction() {
        let err = parse("struct P { int a; };").unwrap_err();
        assert!(
            err.message.contains("no packet transaction"),
            "{}",
            err.message
        );
    }

    #[test]
    fn else_if_chain() {
        let p = parse(
            "struct P { int a; int b; };\nint x = 0;\n\
             void f(struct P pkt) {\n\
               if (pkt.a > 0) { x = 1; } else if (pkt.b > 0) { x = 2; } else { x = 3; }\n\
             }",
        )
        .unwrap();
        let Stmt::If { else_branch, .. } = &p.transaction.body[0] else {
            panic!()
        };
        assert_eq!(else_branch.len(), 1);
        assert!(matches!(&else_branch[0], Stmt::If { .. }));
    }

    #[test]
    fn if_without_braces() {
        let p = parse(
            "struct P { int a; };\nint x = 0;\n\
             void f(struct P pkt) { if (pkt.a) x = 1; }",
        )
        .unwrap();
        let Stmt::If {
            then_branch,
            else_branch,
            ..
        } = &p.transaction.body[0]
        else {
            panic!()
        };
        assert_eq!(then_branch.len(), 1);
        assert!(else_branch.is_empty());
    }

    #[test]
    fn array_global_with_initializer() {
        let p =
            parse("#define N 4\nint a[N] = {0};\nstruct P { int x; };\nvoid f(struct P pkt) {}")
                .unwrap();
        let g = &p.globals[0];
        assert_eq!(g.name, "a");
        assert!(g.size.is_some());
        assert!(matches!(g.init, Some(Expr::Int(0, _))));
    }

    #[test]
    fn call_with_no_args_and_many_args() {
        let e = parse_expr("now()").unwrap();
        assert!(matches!(e, Expr::Call(ref n, ref a, _) if n == "now" && a.is_empty()));
        let e = parse_expr("hash3(a, b, c)").unwrap();
        assert!(matches!(e, Expr::Call(ref n, ref a, _) if n == "hash3" && a.len() == 3));
    }

    #[test]
    fn unary_operators_parse() {
        assert_eq!(parse_expr("-a + b").unwrap().to_string(), "(-(a) + b)");
        assert_eq!(parse_expr("!a").unwrap().to_string(), "!(a)");
        assert_eq!(parse_expr("~a & b").unwrap().to_string(), "(~(a) & b)");
    }

    #[test]
    fn logical_vs_bitwise_precedence() {
        assert_eq!(
            parse_expr("a & b && c | d").unwrap().to_string(),
            "((a & b) && (c | d))"
        );
    }

    #[test]
    fn reports_missing_semicolon() {
        let err = parse("struct P { int a; };\nvoid f(struct P pkt) { pkt.a = 1 }").unwrap_err();
        assert!(err.message.contains("`;`"), "{}", err.message);
    }

    #[test]
    fn unterminated_block_reports_cleanly() {
        let err = parse("struct P { int a; };\nvoid f(struct P pkt) { pkt.a = 1;").unwrap_err();
        assert!(
            err.message.contains("unterminated") || err.message.contains("`}`"),
            "{}",
            err.message
        );
    }
}
