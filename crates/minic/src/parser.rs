//! MiniC recursive-descent parser.
//!
//! Control-flow bodies require braces (`if (c) { .. }`); declarations may
//! appear anywhere a statement may. See the crate docs for the full
//! grammar sketch.

use crate::ast::*;
use crate::lexer::{lex, LexError, Tok, Token};
use std::fmt;
use std::rc::Rc;

/// A parse error with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Problem description.
    pub message: String,
    /// Source line.
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
        }
    }
}

/// Parses a translation unit.
///
/// # Errors
/// Returns the first syntax error with its line number.
pub fn parse(src: &str) -> Result<Unit<'_>, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let mut unit = Unit::default();
    while !p.at_eof() {
        unit.decls.push(p.top_decl()?);
    }
    Ok(unit)
}

struct Parser<'s> {
    toks: Vec<Token<'s>>,
    pos: usize,
}

impl<'s> Parser<'s> {
    fn peek(&self) -> &Tok<'s> {
        &self.toks[self.pos].tok
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    /// Consumes the current token. The parser never looks back, so a
    /// consumed token is moved out (the final `Eof` stays in place).
    fn bump(&mut self) -> Tok<'s> {
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
            std::mem::replace(&mut self.toks[self.pos - 1].tok, Tok::Eof)
        } else {
            Tok::Eof
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: msg.into(),
            line: self.line(),
        })
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected `{p}`, found {}", self.peek()))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if *s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<&'s str, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn is_type_start(&self) -> bool {
        matches!(self.peek(), Tok::Ident(s)
            if matches!(*s, "void" | "char" | "long" | "fnptr" | "struct"))
    }

    /// base type + leading `*`s (no array suffix).
    fn parse_type(&mut self) -> Result<CType<'s>, ParseError> {
        let base = match self.bump() {
            Tok::Ident(s) => match s {
                "void" => CType::Void,
                "char" => CType::Char,
                "long" => CType::Long,
                "fnptr" => CType::FnPtr,
                "struct" => CType::Struct(self.expect_ident()?),
                other => return self.err(format!("unknown type `{other}`")),
            },
            other => return self.err(format!("expected type, found {other}")),
        };
        let mut t = base;
        while self.eat_punct("*") {
            t = t.ptr();
        }
        Ok(t)
    }

    fn top_decl(&mut self) -> Result<Decl<'s>, ParseError> {
        // struct definition?
        if matches!(self.peek(), Tok::Ident("struct"))
            && matches!(&self.toks[self.pos + 2].tok, Tok::Punct("{"))
        {
            self.bump(); // struct
            let name = self.expect_ident()?;
            self.expect_punct("{")?;
            let mut fields = Vec::new();
            while !self.eat_punct("}") {
                let ty = self.parse_type()?;
                let fname = self.expect_ident()?;
                let ty = self.maybe_array(ty)?;
                self.expect_punct(";")?;
                fields.push((ty, fname));
            }
            self.expect_punct(";")?;
            return Ok(Decl::Struct { name, fields });
        }

        let ty = self.parse_type()?;
        let name = self.expect_ident()?;
        if self.eat_punct("(") {
            // function definition
            let mut params = Vec::new();
            if !self.eat_punct(")") {
                loop {
                    let pty = self.parse_type()?;
                    let pname = self.expect_ident()?;
                    params.push((pty, pname));
                    if self.eat_punct(")") {
                        break;
                    }
                    self.expect_punct(",")?;
                }
            }
            self.expect_punct("{")?;
            let body = self.block_body()?;
            return Ok(Decl::Func {
                ret: ty,
                name,
                params,
                body,
            });
        }
        // global variable
        let ty = self.maybe_array(ty)?;
        let init = if self.eat_punct("=") {
            match self.peek().clone() {
                Tok::Str(s) => {
                    self.bump();
                    GlobalInitAst::Str(s)
                }
                Tok::Punct("{") => {
                    self.bump();
                    let mut items = Vec::new();
                    while !self.eat_punct("}") {
                        match self.bump() {
                            Tok::Int(v) => items.push(InitItem::Int(v)),
                            Tok::Punct("-") => match self.bump() {
                                Tok::Int(v) => items.push(InitItem::Int(-v)),
                                other => {
                                    return self
                                        .err(format!("expected number after -, got {other}"))
                                }
                            },
                            Tok::Ident(n) => items.push(InitItem::Name(n)),
                            other => {
                                return self
                                    .err(format!("expected initializer item, found {other}"))
                            }
                        }
                        if !self.eat_punct(",") && !matches!(self.peek(), Tok::Punct("}")) {
                            return self.err("expected `,` or `}` in initializer list");
                        }
                    }
                    GlobalInitAst::List(items)
                }
                _ => {
                    let e = self.expr()?;
                    match const_fold(&e) {
                        Some(v) => GlobalInitAst::Int(v),
                        None => return self.err("global initializer must be constant"),
                    }
                }
            }
        } else {
            GlobalInitAst::Zero
        };
        self.expect_punct(";")?;
        Ok(Decl::Global { ty, name, init })
    }

    fn maybe_array(&mut self, ty: CType<'s>) -> Result<CType<'s>, ParseError> {
        if self.eat_punct("[") {
            let n = match self.bump() {
                Tok::Int(v) if v > 0 => v as u64,
                other => return self.err(format!("expected array length, found {other}")),
            };
            self.expect_punct("]")?;
            Ok(CType::Array(Rc::new(ty), n))
        } else {
            Ok(ty)
        }
    }

    /// Statements until the closing `}` (consumed).
    fn block_body(&mut self) -> Result<Vec<Stmt<'s>>, ParseError> {
        let mut body = Vec::new();
        while !self.eat_punct("}") {
            if self.at_eof() {
                return self.err("unterminated block");
            }
            body.push(self.stmt()?);
        }
        Ok(body)
    }

    fn braced_block(&mut self) -> Result<Vec<Stmt<'s>>, ParseError> {
        self.expect_punct("{")?;
        self.block_body()
    }

    fn stmt(&mut self) -> Result<Stmt<'s>, ParseError> {
        if self.eat_kw("if") {
            self.expect_punct("(")?;
            let c = self.expr()?;
            self.expect_punct(")")?;
            let then_b = self.braced_block()?;
            let else_b = if self.eat_kw("else") {
                if matches!(self.peek(), Tok::Ident("if")) {
                    vec![self.stmt()?]
                } else {
                    self.braced_block()?
                }
            } else {
                Vec::new()
            };
            return Ok(Stmt::If(c, then_b, else_b));
        }
        if self.eat_kw("while") {
            self.expect_punct("(")?;
            let c = self.expr()?;
            self.expect_punct(")")?;
            let body = self.braced_block()?;
            return Ok(Stmt::While(c, body));
        }
        if self.eat_kw("for") {
            self.expect_punct("(")?;
            let init = self.simple_stmt()?;
            self.expect_punct(";")?;
            let cond = self.expr()?;
            self.expect_punct(";")?;
            let step = self.simple_stmt()?;
            self.expect_punct(")")?;
            let body = self.braced_block()?;
            return Ok(Stmt::For(Box::new(init), cond, Box::new(step), body));
        }
        if self.eat_kw("return") {
            if self.eat_punct(";") {
                return Ok(Stmt::Return(None));
            }
            let e = self.expr()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Return(Some(e)));
        }
        if self.eat_kw("break") {
            self.expect_punct(";")?;
            return Ok(Stmt::Break);
        }
        if self.eat_kw("continue") {
            self.expect_punct(";")?;
            return Ok(Stmt::Continue);
        }
        let s = self.simple_stmt()?;
        self.expect_punct(";")?;
        Ok(s)
    }

    /// Declaration, assignment, or expression — no trailing `;`.
    fn simple_stmt(&mut self) -> Result<Stmt<'s>, ParseError> {
        if self.is_type_start() {
            // Disambiguate `struct s x` from expression starting with ident:
            // all our type keywords are reserved, so this is a declaration.
            let ty = self.parse_type()?;
            let name = self.expect_ident()?;
            let ty = self.maybe_array(ty)?;
            let init = if self.eat_punct("=") {
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(Stmt::Decl { ty, name, init });
        }
        let lhs = self.expr()?;
        if self.eat_punct("=") {
            let rhs = self.expr()?;
            return Ok(Stmt::Assign(lhs, rhs));
        }
        Ok(Stmt::Expr(lhs))
    }

    fn expr(&mut self) -> Result<Expr<'s>, ParseError> {
        self.bin_expr(0)
    }

    fn bin_expr(&mut self, min_prec: u8) -> Result<Expr<'s>, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let (op, prec) = match self.peek() {
                Tok::Punct("||") => (BinExprOp::LOr, 1),
                Tok::Punct("&&") => (BinExprOp::LAnd, 2),
                Tok::Punct("|") => (BinExprOp::Or, 3),
                Tok::Punct("^") => (BinExprOp::Xor, 4),
                Tok::Punct("&") => (BinExprOp::And, 5),
                Tok::Punct("==") => (BinExprOp::Eq, 6),
                Tok::Punct("!=") => (BinExprOp::Ne, 6),
                Tok::Punct("<") => (BinExprOp::Lt, 7),
                Tok::Punct("<=") => (BinExprOp::Le, 7),
                Tok::Punct(">") => (BinExprOp::Gt, 7),
                Tok::Punct(">=") => (BinExprOp::Ge, 7),
                Tok::Punct("<<") => (BinExprOp::Shl, 8),
                Tok::Punct(">>") => (BinExprOp::Shr, 8),
                Tok::Punct("+") => (BinExprOp::Add, 9),
                Tok::Punct("-") => (BinExprOp::Sub, 9),
                Tok::Punct("*") => (BinExprOp::Mul, 10),
                Tok::Punct("/") => (BinExprOp::Div, 10),
                Tok::Punct("%") => (BinExprOp::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.bin_expr(prec + 1)?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr<'s>, ParseError> {
        if self.eat_punct("-") {
            return Ok(Expr::Neg(Box::new(self.unary()?)));
        }
        if self.eat_punct("!") {
            return Ok(Expr::Not(Box::new(self.unary()?)));
        }
        if self.eat_punct("~") {
            return Ok(Expr::BitNot(Box::new(self.unary()?)));
        }
        if self.eat_punct("*") {
            return Ok(Expr::Deref(Box::new(self.unary()?)));
        }
        if self.eat_punct("&") {
            return Ok(Expr::AddrOf(Box::new(self.unary()?)));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr<'s>, ParseError> {
        let mut e = self.primary()?;
        loop {
            if self.eat_punct("(") {
                let mut args = Vec::new();
                if !self.eat_punct(")") {
                    loop {
                        args.push(self.expr()?);
                        if self.eat_punct(")") {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                e = Expr::Call(Box::new(e), args);
            } else if self.eat_punct("[") {
                let idx = self.expr()?;
                self.expect_punct("]")?;
                e = Expr::Index(Box::new(e), Box::new(idx));
            } else if self.eat_punct(".") {
                e = Expr::Field(Box::new(e), self.expect_ident()?);
            } else if self.eat_punct("->") {
                e = Expr::Arrow(Box::new(e), self.expect_ident()?);
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr<'s>, ParseError> {
        if self.eat_kw("sizeof") {
            self.expect_punct("(")?;
            let ty = self.parse_type()?;
            let ty = self.maybe_array(ty)?;
            self.expect_punct(")")?;
            return Ok(Expr::SizeOf(ty));
        }
        match self.bump() {
            Tok::Int(v) => Ok(Expr::Int(v)),
            Tok::Str(s) => Ok(Expr::Str(s)),
            Tok::Ident(s) => Ok(Expr::Ident(s)),
            Tok::Punct("(") => {
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            other => self.err(format!("expected expression, found {other}")),
        }
    }
}

fn const_fold(e: &Expr) -> Option<i64> {
    match e {
        Expr::Int(v) => Some(*v),
        Expr::Neg(x) => const_fold(x).map(i64::wrapping_neg),
        Expr::Bin(op, a, b) => {
            let (a, b) = (const_fold(a)?, const_fold(b)?);
            Some(match op {
                BinExprOp::Add => a.wrapping_add(b),
                BinExprOp::Sub => a.wrapping_sub(b),
                BinExprOp::Mul => a.wrapping_mul(b),
                BinExprOp::Or => a | b,
                BinExprOp::And => a & b,
                BinExprOp::Xor => a ^ b,
                BinExprOp::Shl => a.wrapping_shl(b as u32),
                BinExprOp::Shr => ((a as u64) >> (b as u64 & 63)) as i64,
                _ => return None,
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_structs_globals_functions() {
        let src = r#"
            struct ctx { char *path; long flags; };
            long counter = 0;
            char banner[16] = "hi";
            fnptr handlers[2] = { h0, 0 };
            long mask = 1 | 2 | 4;
            long add(long a, long b) { return a + b; }
        "#;
        let u = parse(src).unwrap();
        assert_eq!(u.decls.len(), 6);
        assert!(matches!(&u.decls[0], Decl::Struct { name, fields }
            if *name == "ctx" && fields.len() == 2));
        assert!(
            matches!(&u.decls[3], Decl::Global { init: GlobalInitAst::List(items), .. }
            if items.len() == 2)
        );
        assert!(matches!(
            &u.decls[4],
            Decl::Global {
                init: GlobalInitAst::Int(7),
                ..
            }
        ));
        assert!(matches!(&u.decls[5], Decl::Func { params, .. } if params.len() == 2));
    }

    #[test]
    fn precedence_is_c_like() {
        let src = "long f() { return 1 + 2 * 3 == 7 && 4 < 5; }";
        let u = parse(src).unwrap();
        let Decl::Func { body, .. } = &u.decls[0] else {
            panic!()
        };
        let Stmt::Return(Some(Expr::Bin(BinExprOp::LAnd, _, _))) = &body[0] else {
            panic!("&& should bind loosest: {body:?}");
        };
    }

    #[test]
    fn control_flow_statements() {
        let src = r#"
            void f(long n) {
                long i;
                for (i = 0; i < n; i = i + 1) {
                    if (i == 3) { continue; } else { g(i); }
                }
                while (n > 0) { n = n - 1; break; }
            }
        "#;
        let u = parse(src).unwrap();
        let Decl::Func { body, .. } = &u.decls[0] else {
            panic!()
        };
        assert!(matches!(body[1], Stmt::For(..)));
        assert!(matches!(body[2], Stmt::While(..)));
    }

    #[test]
    fn postfix_chains() {
        let src = "void f(struct r *r) { r->v[i].handler(r, 1); }";
        let u = parse(src).unwrap();
        let Decl::Func { body, .. } = &u.decls[0] else {
            panic!()
        };
        let Stmt::Expr(Expr::Call(callee, args)) = &body[0] else {
            panic!("{body:?}")
        };
        assert!(matches!(callee.as_ref(), Expr::Field(..)));
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn pointer_and_array_types() {
        let src = "void f() { char *p; long xs[8]; struct ctx *c; fnptr h; }";
        let u = parse(src).unwrap();
        let Decl::Func { body, .. } = &u.decls[0] else {
            panic!()
        };
        assert!(matches!(
            &body[0],
            Stmt::Decl {
                ty: CType::Ptr(_),
                ..
            }
        ));
        assert!(matches!(
            &body[1],
            Stmt::Decl {
                ty: CType::Array(_, 8),
                ..
            }
        ));
        assert!(matches!(
            &body[3],
            Stmt::Decl {
                ty: CType::FnPtr,
                ..
            }
        ));
    }

    #[test]
    fn sizeof_and_unary() {
        let src = "long f() { return sizeof(struct ctx) + -x + !y + *p + &q; }";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn errors_report_lines() {
        let e = parse("long f() {\n  return @;\n}").unwrap_err();
        assert_eq!(e.line, 2);
    }
}
