//! MiniC abstract syntax tree.
//!
//! Names borrow from the source text (`'s`), so parsing allocates no
//! string per identifier.

use std::rc::Rc;

/// A source-level type.
///
/// Element types are reference-counted: lowering copies types on every
/// variable access, and a copy is then a count bump, not an allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CType<'s> {
    /// `void` (function returns only).
    Void,
    /// `char` — one byte.
    Char,
    /// `long` — the 64-bit word.
    Long,
    /// `T*`.
    Ptr(Rc<CType<'s>>),
    /// `struct Name`.
    Struct(&'s str),
    /// `fnptr` — a code pointer (arity checked at the callsite).
    FnPtr,
    /// `T name[N]` — fixed array (declarations only).
    Array(Rc<CType<'s>>, u64),
}

impl<'s> CType<'s> {
    /// Pointer to self.
    pub fn ptr(self) -> CType<'s> {
        CType::Ptr(Rc::new(self))
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinExprOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// Short-circuit `&&`.
    LAnd,
    /// Short-circuit `||`.
    LOr,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr<'s> {
    /// Integer literal.
    Int(i64),
    /// String literal (lowered to an anonymous global; value is `char*`).
    Str(Vec<u8>),
    /// Variable reference.
    Ident(&'s str),
    /// `a <op> b`.
    Bin(BinExprOp, Box<Expr<'s>>, Box<Expr<'s>>),
    /// `-e`.
    Neg(Box<Expr<'s>>),
    /// `!e`.
    Not(Box<Expr<'s>>),
    /// `~e`.
    BitNot(Box<Expr<'s>>),
    /// `*e`.
    Deref(Box<Expr<'s>>),
    /// `&lvalue`.
    AddrOf(Box<Expr<'s>>),
    /// `base[index]`.
    Index(Box<Expr<'s>>, Box<Expr<'s>>),
    /// `base.field`.
    Field(Box<Expr<'s>>, &'s str),
    /// `ptr->field`.
    Arrow(Box<Expr<'s>>, &'s str),
    /// `callee(args)` — direct if `callee` names a function, otherwise an
    /// indirect call through the expression's value.
    Call(Box<Expr<'s>>, Vec<Expr<'s>>),
    /// `sizeof(type)`.
    SizeOf(CType<'s>),
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt<'s> {
    /// Local declaration with optional initializer.
    Decl {
        /// Declared type.
        ty: CType<'s>,
        /// Variable name.
        name: &'s str,
        /// Initializer expression.
        init: Option<Expr<'s>>,
    },
    /// `lvalue = expr;`
    Assign(Expr<'s>, Expr<'s>),
    /// Bare expression (e.g. a call).
    Expr(Expr<'s>),
    /// `if (c) { .. } else { .. }`.
    If(Expr<'s>, Vec<Stmt<'s>>, Vec<Stmt<'s>>),
    /// `while (c) { .. }`.
    While(Expr<'s>, Vec<Stmt<'s>>),
    /// `for (init; cond; step) { .. }` — init/step are statements.
    For(Box<Stmt<'s>>, Expr<'s>, Box<Stmt<'s>>, Vec<Stmt<'s>>),
    /// `return expr?;`
    Return(Option<Expr<'s>>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
}

/// A global initializer.
#[derive(Debug, Clone, PartialEq)]
pub enum GlobalInitAst<'s> {
    /// No initializer (zero).
    Zero,
    /// Scalar constant.
    Int(i64),
    /// String literal (for `char name[] = "..."` / `char *p = "..."`).
    Str(Vec<u8>),
    /// Brace list: integers and/or function names (handler tables).
    List(Vec<InitItem<'s>>),
}

/// One element of a brace initializer.
#[derive(Debug, Clone, PartialEq)]
pub enum InitItem<'s> {
    /// Literal word.
    Int(i64),
    /// Address of the named function or global.
    Name(&'s str),
}

/// A top-level declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum Decl<'s> {
    /// `struct Name { ... };`
    Struct {
        /// Struct name.
        name: &'s str,
        /// Field declarations.
        fields: Vec<(CType<'s>, &'s str)>,
    },
    /// A global variable.
    Global {
        /// Declared type.
        ty: CType<'s>,
        /// Name.
        name: &'s str,
        /// Initializer.
        init: GlobalInitAst<'s>,
    },
    /// A function definition.
    Func {
        /// Return type.
        ret: CType<'s>,
        /// Name.
        name: &'s str,
        /// Parameters.
        params: Vec<(CType<'s>, &'s str)>,
        /// Body.
        body: Vec<Stmt<'s>>,
    },
}

/// A parsed translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Unit<'s> {
    /// Declarations in source order.
    pub decls: Vec<Decl<'s>>,
}
