//! Type system for the IR.
//!
//! The IR is word-oriented: every scalar value is a 64-bit word at runtime.
//! Types exist to drive **layout** (sizes and field offsets, needed for the
//! field-sensitive analysis of paper §6.3.3) and to give the LLVM-CFI
//! baseline its type-signature equivalence classes.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a [`StructDef`] within a [`crate::Module`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct StructId(pub u32);

impl StructId {
    /// Index into `Module::structs`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StructId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "struct#{}", self.0)
    }
}

/// An IR type.
///
/// `I8` exists so byte buffers (strings, network payloads) have a natural
/// representation; everything else is an 8-byte word. Function types carry
/// only their arity because MiniC (like C with our word model) has a single
/// scalar width — this is exactly the granularity at which coarse LLVM CFI
/// builds its equivalence classes for the baseline defense.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Ty {
    /// A single byte.
    I8,
    /// A 64-bit integer word; the default scalar type.
    I64,
    /// A pointer to `Ty`; 8 bytes at runtime.
    Ptr(Box<Ty>),
    /// A named aggregate defined in the module's struct table.
    Struct(StructId),
    /// A fixed-size array.
    Array(Box<Ty>, u64),
    /// A function with `arity` word arguments. Used for function pointers.
    Func { arity: u8 },
    /// No value (function return type only).
    Void,
}

impl Ty {
    /// Convenience constructor for a pointer to `t`.
    pub fn ptr(t: Ty) -> Ty {
        Ty::Ptr(Box::new(t))
    }

    /// Pointer to a byte, i.e. `char *`.
    pub fn byte_ptr() -> Ty {
        Ty::ptr(Ty::I8)
    }

    /// Size of the type in bytes given the module's struct table.
    ///
    /// # Panics
    /// Panics if a [`StructId`] is out of bounds for `structs`.
    pub fn size(&self, structs: &[StructDef]) -> u64 {
        match self {
            Ty::I8 => 1,
            Ty::I64 | Ty::Ptr(_) | Ty::Func { .. } => 8,
            Ty::Struct(id) => structs[id.index()].size(structs),
            Ty::Array(elem, n) => elem.size(structs) * n,
            Ty::Void => 0,
        }
    }

    /// The pointee type if this is a pointer.
    pub fn pointee(&self) -> Option<&Ty> {
        match self {
            Ty::Ptr(t) => Some(t),
            _ => None,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::I8 => write!(f, "i8"),
            Ty::I64 => write!(f, "i64"),
            Ty::Ptr(t) => write!(f, "{t}*"),
            Ty::Struct(id) => write!(f, "{id}"),
            Ty::Array(t, n) => write!(f, "[{t}; {n}]"),
            Ty::Func { arity } => write!(f, "fn/{arity}"),
            Ty::Void => write!(f, "void"),
        }
    }
}

/// A named field of a struct.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Field {
    /// Source-level field name (e.g. `path` in `ngx_exec_ctx_t`).
    pub name: String,
    /// Field type.
    pub ty: Ty,
}

/// An aggregate type definition.
///
/// Fields are laid out in declaration order with no padding beyond natural
/// byte packing — every scalar is 8 bytes so alignment issues do not arise
/// for word fields; byte arrays are packed as-is.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StructDef {
    /// Source-level struct name.
    pub name: String,
    /// Ordered fields.
    pub fields: Vec<Field>,
}

impl StructDef {
    /// Creates a struct definition from `(name, ty)` pairs.
    pub fn new(name: impl Into<String>, fields: Vec<(String, Ty)>) -> Self {
        StructDef {
            name: name.into(),
            fields: fields
                .into_iter()
                .map(|(name, ty)| Field { name, ty })
                .collect(),
        }
    }

    /// Total size in bytes.
    pub fn size(&self, structs: &[StructDef]) -> u64 {
        self.fields.iter().map(|f| f.ty.size(structs)).sum()
    }

    /// Byte offset of field `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    pub fn field_offset(&self, idx: usize, structs: &[StructDef]) -> u64 {
        assert!(idx < self.fields.len(), "field index out of bounds");
        self.fields[..idx].iter().map(|f| f.ty.size(structs)).sum()
    }

    /// Index of the field named `name`, if any.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn structs() -> Vec<StructDef> {
        vec![
            StructDef::new(
                "exec_ctx",
                vec![
                    ("path".into(), Ty::byte_ptr()),
                    ("argv".into(), Ty::ptr(Ty::byte_ptr())),
                    ("envp".into(), Ty::ptr(Ty::byte_ptr())),
                ],
            ),
            StructDef::new(
                "mixed",
                vec![
                    ("tag".into(), Ty::I8),
                    ("buf".into(), Ty::Array(Box::new(Ty::I8), 15)),
                    ("len".into(), Ty::I64),
                ],
            ),
        ]
    }

    #[test]
    fn scalar_sizes() {
        let s = structs();
        assert_eq!(Ty::I8.size(&s), 1);
        assert_eq!(Ty::I64.size(&s), 8);
        assert_eq!(Ty::byte_ptr().size(&s), 8);
        assert_eq!(Ty::Func { arity: 3 }.size(&s), 8);
        assert_eq!(Ty::Void.size(&s), 0);
    }

    #[test]
    fn struct_layout() {
        let s = structs();
        assert_eq!(Ty::Struct(StructId(0)).size(&s), 24);
        assert_eq!(s[0].field_offset(0, &s), 0);
        assert_eq!(s[0].field_offset(2, &s), 16);
        // mixed: 1 + 15 + 8
        assert_eq!(Ty::Struct(StructId(1)).size(&s), 24);
        assert_eq!(s[1].field_offset(2, &s), 16);
    }

    #[test]
    fn array_size_and_field_lookup() {
        let s = structs();
        assert_eq!(Ty::Array(Box::new(Ty::I64), 10).size(&s), 80);
        assert_eq!(s[0].field_index("argv"), Some(1));
        assert_eq!(s[0].field_index("nope"), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Ty::byte_ptr().to_string(), "i8*");
        assert_eq!(Ty::Array(Box::new(Ty::I64), 4).to_string(), "[i64; 4]");
        assert_eq!(Ty::Struct(StructId(7)).to_string(), "struct#7");
    }

    #[test]
    fn pointee_access() {
        assert_eq!(Ty::byte_ptr().pointee(), Some(&Ty::I8));
        assert_eq!(Ty::I64.pointee(), None);
    }
}
