//! Tokenizer for the comprehension-syntax modality.
//!
//! Both the paper's Unicode notation (`∃`, `∈`, `∧`, `∨`, `¬`, `γ`, `∅`)
//! and ASCII equivalents (`exists`, `in`, `and`, `or`, `not`, `group`,
//! `()`) are accepted, so queries can be written in either style.

use std::fmt;

/// A lexical token. Names and string contents borrow the source text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Token<'a> {
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `|`
    Bar,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// `∈` or keyword `in`
    In,
    /// `∃` or keyword `exists`
    Exists,
    /// `¬` or keyword `not`
    Not,
    /// `∧` or keyword `and`
    And,
    /// `∨` or keyword `or`
    Or,
    /// `γ` or keyword `group`
    Gamma,
    /// `∅`
    Empty,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=` or `≤`
    Le,
    /// `>`
    Gt,
    /// `>=` or `≥`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// An identifier (relation, variable, or attribute name). Identifiers
    /// may be quoted with double quotes to include symbols (`"-"`, `"*"`,
    /// `"$1"` — paper Fig 15).
    Ident(&'a str),
    /// An integer literal's magnitude (a sign is a [`Token::Minus`] of
    /// its own). At most `i64::MAX` — or one more, directly behind a
    /// `-`: the parser folds the sign and range-checks the result.
    Int(u64),
    /// A float literal.
    Float(f64),
    /// A single-quoted string literal.
    Str(&'a str),
    /// Keyword `is` (for `is null` / `is not null`).
    Is,
    /// Keyword `null`.
    Null,
    /// Keyword `distinct`.
    Distinct,
    /// Keyword `true`.
    True,
    /// Keyword `false`.
    False,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(v) => write!(f, "{v}"),
            Token::Float(v) => write!(f, "{v}"),
            Token::Str(s) => write!(f, "'{s}'"),
            other => {
                let s = match other {
                    Token::LBrace => "{",
                    Token::RBrace => "}",
                    Token::LParen => "(",
                    Token::RParen => ")",
                    Token::LBracket => "[",
                    Token::RBracket => "]",
                    Token::Bar => "|",
                    Token::Comma => ",",
                    Token::Dot => ".",
                    Token::Semicolon => ";",
                    Token::In => "∈",
                    Token::Exists => "∃",
                    Token::Not => "¬",
                    Token::And => "∧",
                    Token::Or => "∨",
                    Token::Gamma => "γ",
                    Token::Empty => "∅",
                    Token::Eq => "=",
                    Token::Ne => "<>",
                    Token::Lt => "<",
                    Token::Le => "<=",
                    Token::Gt => ">",
                    Token::Ge => ">=",
                    Token::Plus => "+",
                    Token::Minus => "-",
                    Token::Star => "*",
                    Token::Slash => "/",
                    Token::Is => "is",
                    Token::Null => "null",
                    Token::Distinct => "distinct",
                    Token::True => "true",
                    Token::False => "false",
                    _ => unreachable!(),
                };
                write!(f, "{s}")
            }
        }
    }
}

/// A token with its byte offset (for error messages).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spanned<'a> {
    /// The token.
    pub token: Token<'a>,
    /// Byte offset in the source.
    pub offset: usize,
}

/// Lexing error with position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable message.
    pub message: String,
    /// Byte offset in the source.
    pub offset: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

/// The character starting at byte `at` (a character boundary), if any.
fn char_at(src: &str, at: usize) -> Option<char> {
    src[at..].chars().next()
}

/// The byte offset where the run of characters `accept` takes ends,
/// scanning from `from`.
fn run_end(src: &str, from: usize, accept: impl Fn(char) -> bool) -> usize {
    src[from..]
        .char_indices()
        .find(|&(_, c)| !accept(c))
        .map_or(src.len(), |(i, _)| from + i)
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || matches!(c, '_' | '$' | '#' | '@')
}

fn is_ident_part(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '$' | '#' | '@')
}

/// The keyword `word` spells (ASCII case-insensitively), if it is one.
fn keyword(word: &str) -> Option<Token<'static>> {
    const KEYWORDS: [(&str, Token<'static>); 11] = [
        ("in", Token::In),
        ("exists", Token::Exists),
        ("not", Token::Not),
        ("and", Token::And),
        ("or", Token::Or),
        ("group", Token::Gamma),
        ("is", Token::Is),
        ("null", Token::Null),
        ("distinct", Token::Distinct),
        ("true", Token::True),
        ("false", Token::False),
    ];
    KEYWORDS
        .iter()
        .find(|(kw, _)| word.eq_ignore_ascii_case(kw))
        .map(|&(_, token)| token)
}

/// Tokenize a source string. The source is walked by byte offset and no
/// token owns text: identifiers and string literals are slices of `src`.
pub fn lex(src: &str) -> Result<Vec<Spanned<'_>>, LexError> {
    let mut out: Vec<Spanned<'_>> = Vec::with_capacity(src.len() / 2);
    let mut i = 0;
    while let Some(c) = char_at(src, i) {
        let offset = i;
        let next = i + c.len_utf8();
        let follows = |want: char| char_at(src, next) == Some(want);
        // The token starting here and the offset just past it; `None`
        // for whitespace and comments.
        let (token, end) = match c {
            c if c.is_whitespace() => (None, next),
            '{' => (Some(Token::LBrace), next),
            '}' => (Some(Token::RBrace), next),
            '(' => (Some(Token::LParen), next),
            ')' => (Some(Token::RParen), next),
            '[' => (Some(Token::LBracket), next),
            ']' => (Some(Token::RBracket), next),
            '|' => (Some(Token::Bar), next),
            ',' => (Some(Token::Comma), next),
            '.' => (Some(Token::Dot), next),
            ';' => (Some(Token::Semicolon), next),
            '∈' => (Some(Token::In), next),
            '∃' => (Some(Token::Exists), next),
            '¬' => (Some(Token::Not), next),
            '∧' => (Some(Token::And), next),
            '∨' => (Some(Token::Or), next),
            'γ' => (Some(Token::Gamma), next),
            '∅' => (Some(Token::Empty), next),
            '≤' => (Some(Token::Le), next),
            '≥' => (Some(Token::Ge), next),
            '≠' => (Some(Token::Ne), next),
            '+' => (Some(Token::Plus), next),
            '*' => (Some(Token::Star), next),
            '/' => (Some(Token::Slash), next),
            '=' => (Some(Token::Eq), next),
            '<' if follows('=') => (Some(Token::Le), next + 1),
            '<' if follows('>') => (Some(Token::Ne), next + 1),
            '<' => (Some(Token::Lt), next),
            '>' if follows('=') => (Some(Token::Ge), next + 1),
            '>' => (Some(Token::Gt), next),
            '!' if follows('=') => (Some(Token::Ne), next + 1),
            '!' => {
                return Err(LexError {
                    message: "expected `!=`".to_string(),
                    offset,
                })
            }
            // Comment `--` to end of line, else minus.
            '-' if follows('-') => (None, run_end(src, next, |c| c != '\n')),
            '-' => (Some(Token::Minus), next),
            '\'' | '"' => {
                // A string literal, or a quoted identifier (external
                // relation names like "-", "*"): everything up to the
                // closing quote.
                let close = run_end(src, next, |ch| ch != c);
                if close == src.len() {
                    let what = if c == '\'' {
                        "string literal"
                    } else {
                        "quoted identifier"
                    };
                    return Err(LexError {
                        message: format!("unterminated {what}"),
                        offset,
                    });
                }
                let text = &src[next..close];
                let token = if c == '\'' {
                    Token::Str(text)
                } else {
                    Token::Ident(text)
                };
                (Some(token), close + 1)
            }
            c if c.is_ascii_digit() => {
                let mut end = run_end(src, next, |c| c.is_ascii_digit());
                // A `.` continues the literal only when a digit follows.
                let fraction = src[end..]
                    .strip_prefix('.')
                    .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_digit()));
                if fraction {
                    end = run_end(src, end + 1, |c| c.is_ascii_digit());
                }
                let text = &src[offset..end];
                let token = if fraction {
                    Token::Float(text.parse().map_err(|_| LexError {
                        message: format!("bad float literal `{text}`"),
                        offset,
                    })?)
                } else {
                    // The magnitude of `i64::MIN` is one more than
                    // `i64::MAX`: in range only behind its sign.
                    let negated = matches!(out.last(), Some(s) if s.token == Token::Minus);
                    let max = i64::MAX as u64 + u64::from(negated);
                    match text.parse::<u64>() {
                        Ok(magnitude) if magnitude <= max => Token::Int(magnitude),
                        _ => {
                            return Err(LexError {
                                message: format!("bad integer literal `{text}`"),
                                offset,
                            })
                        }
                    }
                };
                (Some(token), end)
            }
            c if is_ident_start(c) => {
                let end = run_end(src, next, is_ident_part);
                let word = &src[offset..end];
                (Some(keyword(word).unwrap_or(Token::Ident(word))), end)
            }
            other => {
                return Err(LexError {
                    message: format!("unexpected character `{other}`"),
                    offset,
                })
            }
        };
        out.extend(token.map(|token| Spanned { token, offset }));
        i = end;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Token<'_>> {
        lex(src).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn unicode_and_ascii_forms_agree() {
        let a = kinds("∃r ∈ R [¬ x ∧ y ∨ z]");
        let b = kinds("exists r in R [not x and y or z]");
        assert_eq!(a, b);
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("= <> != < <= > >= ≤ ≥ ≠"),
            vec![
                Token::Eq,
                Token::Ne,
                Token::Ne,
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge,
                Token::Le,
                Token::Ge,
                Token::Ne
            ]
        );
    }

    #[test]
    fn numbers_and_strings() {
        assert_eq!(
            kinds("42 3.5 'hi'"),
            vec![Token::Int(42), Token::Float(3.5), Token::Str("hi")]
        );
    }

    #[test]
    fn attr_ref_lexes_as_ident_dot_ident() {
        assert_eq!(
            kinds("r.A"),
            vec![Token::Ident("r"), Token::Dot, Token::Ident("A")]
        );
    }

    #[test]
    fn quoted_identifiers_for_externals() {
        assert_eq!(
            kinds("f ∈ \"*\""),
            vec![Token::Ident("f"), Token::In, Token::Ident("*")]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(kinds("a -- comment\n b"), kinds("a b"));
    }

    #[test]
    fn dollar_identifiers() {
        assert_eq!(kinds("$1"), vec![Token::Ident("$1")]);
    }

    #[test]
    fn errors_carry_offsets() {
        let err = lex("a ? b").unwrap_err();
        assert_eq!(err.offset, 2);
    }
}
