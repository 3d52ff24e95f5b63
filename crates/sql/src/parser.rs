//! Hand-written lexer and recursive-descent parser for the SQL subset.

use crate::ast::*;
use arc_core::value::Value;
use std::fmt;

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlParseError {
    /// Human-readable message.
    pub message: String,
    /// Byte offset in the source.
    pub offset: usize,
}

impl fmt::Display for SqlParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SQL parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for SqlParseError {}

/// Parse one SQL query (an optional trailing `;` is accepted).
pub fn parse_sql(src: &str) -> Result<SqlQuery, SqlParseError> {
    let mut p = Parser::new(src)?;
    let q = p.query()?;
    p.eat_sym(";");
    if !p.at_eof() {
        return Err(p.err(format!(
            "unexpected trailing input `{}`",
            p.peek_text().unwrap_or_default()
        )));
    }
    Ok(q)
}

// -- Lexer -------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    /// Keyword or identifier (lower-cased keywords matched contextually).
    Word(&'a str),
    /// Quoted identifier `"..."`.
    Quoted(&'a str),
    /// An integer literal's magnitude (a sign is a `-` symbol of its
    /// own): at most `i64::MAX`, or one more directly behind a `-` —
    /// the parser folds the sign and range-checks the result.
    Int(u64),
    Float(f64),
    Str(&'a str),
    Sym(&'static str),
}

#[derive(Debug, Clone, Copy)]
struct Sp<'a> {
    tok: Tok<'a>,
    offset: usize,
}

/// The byte offset where the run of characters `accept` takes ends,
/// scanning from `from`.
fn run_end(src: &str, from: usize, accept: impl Fn(char) -> bool) -> usize {
    src[from..]
        .char_indices()
        .find(|&(_, c)| !accept(c))
        .map_or(src.len(), |(i, _)| from + i)
}

/// Tokenize by byte offset; words and string contents are slices of
/// `src`.
fn sql_lex(src: &str) -> Result<Vec<Sp<'_>>, SqlParseError> {
    let mut out: Vec<Sp<'_>> = Vec::with_capacity(src.len() / 2);
    let mut i = 0;
    while let Some(c) = src[i..].chars().next() {
        let offset = i;
        let next = i + c.len_utf8();
        let follows = |want: char| src[next..].starts_with(want);
        let sym = |s: &'static str| (Some(Tok::Sym(s)), offset + s.len());
        // The token starting here and the offset just past it; `None`
        // for whitespace and comments.
        let (tok, end) = match c {
            c if c.is_whitespace() => (None, next),
            '-' if follows('-') => (None, run_end(src, next, |c| c != '\n')),
            '(' => sym("("),
            ')' => sym(")"),
            ',' => sym(","),
            '.' => sym("."),
            ';' => sym(";"),
            '+' => sym("+"),
            '*' => sym("*"),
            '/' => sym("/"),
            '-' => sym("-"),
            '=' => sym("="),
            '<' if follows('=') => sym("<="),
            '<' if follows('>') => sym("<>"),
            '<' => sym("<"),
            '>' if follows('=') => sym(">="),
            '>' => sym(">"),
            '!' if follows('=') => (Some(Tok::Sym("<>")), next + 1),
            '\'' | '"' => {
                let close = run_end(src, next, |ch| ch != c);
                if close == src.len() {
                    let what = if c == '\'' {
                        "string"
                    } else {
                        "quoted identifier"
                    };
                    return Err(SqlParseError {
                        message: format!("unterminated {what}"),
                        offset,
                    });
                }
                let text = &src[next..close];
                let tok = if c == '\'' {
                    Tok::Str(text)
                } else {
                    Tok::Quoted(text)
                };
                (Some(tok), close + 1)
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
                let tok = if fraction {
                    Tok::Float(text.parse().unwrap_or(0.0))
                } else {
                    // The magnitude of `i64::MIN` is one more than
                    // `i64::MAX`: in range only behind its sign.
                    let negated = matches!(out.last(), Some(s) if s.tok == Tok::Sym("-"));
                    let max = i64::MAX as u64 + u64::from(negated);
                    match text.parse::<u64>() {
                        Ok(magnitude) if magnitude <= max => Tok::Int(magnitude),
                        _ => {
                            return Err(SqlParseError {
                                message: format!("bad integer `{text}`"),
                                offset,
                            })
                        }
                    }
                };
                (Some(tok), end)
            }
            c if c.is_alphabetic() || c == '_' || c == '$' => {
                let end = run_end(src, next, |c| c.is_alphanumeric() || c == '_' || c == '$');
                (Some(Tok::Word(&src[offset..end])), end)
            }
            other => {
                return Err(SqlParseError {
                    message: format!("unexpected character `{other}`"),
                    offset,
                })
            }
        };
        out.extend(tok.map(|tok| Sp { tok, offset }));
        i = end;
    }
    Ok(out)
}

// -- Parser ------------------------------------------------------------------

struct Parser<'a> {
    toks: Vec<Sp<'a>>,
    pos: usize,
    src_len: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Self, SqlParseError> {
        Ok(Parser {
            toks: sql_lex(src)?,
            pos: 0,
            src_len: src.len(),
        })
    }

    fn at_eof(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn offset(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|s| s.offset)
            .unwrap_or(self.src_len)
    }

    fn err(&self, message: String) -> SqlParseError {
        SqlParseError {
            message,
            offset: self.offset(),
        }
    }

    fn peek(&self) -> Option<Tok<'a>> {
        self.peek_at(0)
    }

    fn peek_at(&self, n: usize) -> Option<Tok<'a>> {
        self.toks.get(self.pos + n).map(|s| s.tok)
    }

    fn peek_text(&self) -> Option<String> {
        self.peek().map(|t| match t {
            Tok::Word(w) => w.to_string(),
            Tok::Quoted(q) => format!("\"{q}\""),
            Tok::Int(v) => v.to_string(),
            Tok::Float(v) => v.to_string(),
            Tok::Str(s) => format!("'{s}'"),
            Tok::Sym(s) => s.to_string(),
        })
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Word(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn peek_kw_at(&self, n: usize, kw: &str) -> bool {
        matches!(self.peek_at(n), Some(Tok::Word(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{kw}`, found `{}`",
                self.peek_text().unwrap_or_else(|| "end of input".into())
            )))
        }
    }

    fn peek_sym(&self) -> Option<&'static str> {
        match self.peek() {
            Some(Tok::Sym(s)) => Some(s),
            _ => None,
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if self.peek_sym() == Some(sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: &str) -> Result<(), SqlParseError> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{sym}`, found `{}`",
                self.peek_text().unwrap_or_else(|| "end of input".into())
            )))
        }
    }

    /// An identifier that is not one of the clause keywords.
    fn ident(&mut self) -> Result<String, SqlParseError> {
        match self.peek() {
            Some(Tok::Word(w)) if !is_reserved(w) => {
                self.pos += 1;
                Ok(w.to_string())
            }
            Some(Tok::Quoted(q)) => {
                self.pos += 1;
                Ok(q.to_string())
            }
            _ => Err(self.err(format!(
                "expected identifier, found `{}`",
                self.peek_text().unwrap_or_else(|| "end of input".into())
            ))),
        }
    }

    fn query(&mut self) -> Result<SqlQuery, SqlParseError> {
        let left = SqlQuery::Select(self.select()?);
        if self.eat_kw("union") {
            let all = self.eat_kw("all");
            let right = self.query()?;
            return Ok(SqlQuery::Union {
                left: Box::new(left),
                right: Box::new(right),
                all,
            });
        }
        Ok(left)
    }

    fn select(&mut self) -> Result<Select, SqlParseError> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut items = Vec::new();
        loop {
            let expr = self.expr()?;
            let explicit_as = self.eat_kw("as");
            let alias =
                if explicit_as || matches!(self.peek(), Some(Tok::Word(w)) if !is_reserved(w)) {
                    Some(self.ident()?)
                } else {
                    None
                };
            items.push(SelectItem { expr, alias });
            if !self.eat_sym(",") {
                break;
            }
        }
        let mut from = Vec::new();
        if self.eat_kw("from") {
            loop {
                from.push(self.table_ref()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                // `group by ()` / `group by true` = γ∅.
                if self.eat_sym("(") {
                    self.expect_sym(")")?;
                } else if self.eat_kw("true") {
                    // explicit single group
                } else {
                    group_by.push(self.expr()?);
                }
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let having = if self.eat_kw("having") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Select {
            distinct,
            items,
            from,
            where_clause,
            group_by,
            having,
        })
    }

    fn table_ref(&mut self) -> Result<TableRef, SqlParseError> {
        let mut left = self.table_primary()?;
        loop {
            // `A RIGHT JOIN B` parses as `B LEFT JOIN A`.
            let mirror = self.peek_kw("right");
            let kind = if self.peek_kw("join") {
                self.pos += 1;
                JoinKind::Inner
            } else if self.peek_kw("inner") && self.peek_kw_at(1, "join") {
                self.pos += 2;
                JoinKind::Inner
            } else if self.peek_kw("left") || mirror {
                self.pos += 1;
                self.eat_kw("outer");
                self.expect_kw("join")?;
                JoinKind::Left
            } else if self.peek_kw("natural") {
                return Err(self.err(
                    "NATURAL JOIN is not supported: name the join columns with ON".to_string(),
                ));
            } else if self.peek_kw("full") {
                self.pos += 1;
                self.eat_kw("outer");
                self.expect_kw("join")?;
                JoinKind::Full
            } else if self.peek_kw("cross") {
                self.pos += 1;
                self.expect_kw("join")?;
                JoinKind::Cross
            } else {
                break;
            };
            let right = self.table_primary()?;
            if self.peek_kw("using") {
                return Err(self.err(
                    "JOIN ... USING is not supported: spell the condition with ON".to_string(),
                ));
            }
            let on = if self.eat_kw("on") {
                Some(self.expr()?)
            } else {
                None
            };
            if mirror && matches!(right, TableRef::Subquery { lateral: true, .. }) {
                return Err(
                    self.err("LATERAL cannot be the preserved side of RIGHT JOIN".to_string())
                );
            }
            let (left_op, right_op) = if mirror { (right, left) } else { (left, right) };
            left = TableRef::Join {
                left: Box::new(left_op),
                right: Box::new(right_op),
                kind,
                on,
            };
        }
        Ok(left)
    }

    fn table_primary(&mut self) -> Result<TableRef, SqlParseError> {
        let lateral = self.eat_kw("lateral");
        if self.peek_sym() == Some("(") {
            if self.peek_kw_at(1, "select") {
                self.pos += 1;
                let query = self.query()?;
                self.expect_sym(")")?;
                self.eat_kw("as");
                let alias = self.table_alias()?;
                return Ok(TableRef::Subquery {
                    query: Box::new(query),
                    alias,
                    lateral,
                });
            }
            // Parenthesized join tree.
            self.pos += 1;
            let inner = self.table_ref()?;
            self.expect_sym(")")?;
            return Ok(inner);
        }
        if lateral {
            return Err(self.err("LATERAL must be followed by a subquery".to_string()));
        }
        let name = self.ident()?;
        let explicit_as = self.eat_kw("as");
        let alias = if explicit_as || matches!(self.peek(), Some(Tok::Word(w)) if !is_join_word(w))
        {
            Some(self.table_alias()?)
        } else {
            None
        };
        Ok(TableRef::Table { name, alias })
    }

    /// A table or subquery alias: an identifier that is no join keyword,
    /// so `R RIGHT JOIN S` cannot read as `R` aliased `RIGHT`.
    fn table_alias(&mut self) -> Result<String, SqlParseError> {
        match self.peek() {
            Some(Tok::Word(w)) if is_join_word(w) => {
                Err(self.err(format!("expected table alias, found keyword `{w}`")))
            }
            _ => self.ident(),
        }
    }

    // -- Expressions (precedence climbing) ------------------------------------

    fn expr(&mut self) -> Result<SqlExpr, SqlParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<SqlExpr, SqlParseError> {
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            let right = self.and_expr()?;
            left = SqlExpr::Binary {
                op: BinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<SqlExpr, SqlParseError> {
        let mut left = self.not_expr()?;
        while self.eat_kw("and") {
            let right = self.not_expr()?;
            left = SqlExpr::Binary {
                op: BinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<SqlExpr, SqlParseError> {
        if self.peek_kw("not") && !self.peek_kw_at(1, "exists") {
            self.pos += 1;
            return Ok(SqlExpr::Not(Box::new(self.not_expr()?)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<SqlExpr, SqlParseError> {
        // (NOT) EXISTS.
        if self.peek_kw("exists") || (self.peek_kw("not") && self.peek_kw_at(1, "exists")) {
            let negated = self.eat_kw("not");
            self.expect_kw("exists")?;
            self.expect_sym("(")?;
            let query = self.query()?;
            self.expect_sym(")")?;
            return Ok(SqlExpr::Exists {
                query: Box::new(query),
                negated,
            });
        }
        let left = self.add_expr()?;
        // IS [NOT] NULL.
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(SqlExpr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] IN (subquery).
        if self.peek_kw("in") || (self.peek_kw("not") && self.peek_kw_at(1, "in")) {
            let negated = self.eat_kw("not");
            self.expect_kw("in")?;
            self.expect_sym("(")?;
            let query = self.query()?;
            self.expect_sym(")")?;
            return Ok(SqlExpr::InSubquery {
                expr: Box::new(left),
                query: Box::new(query),
                negated,
            });
        }
        let op = match self.peek_sym() {
            Some("=") => BinOp::Eq,
            Some("<>") => BinOp::Ne,
            Some("<") => BinOp::Lt,
            Some("<=") => BinOp::Le,
            Some(">") => BinOp::Gt,
            Some(">=") => BinOp::Ge,
            _ => return Ok(left),
        };
        self.pos += 1;
        let right = self.add_expr()?;
        Ok(SqlExpr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        })
    }

    fn add_expr(&mut self) -> Result<SqlExpr, SqlParseError> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek_sym() {
                Some("+") => BinOp::Add,
                Some("-") => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.mul_expr()?;
            left = SqlExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<SqlExpr, SqlParseError> {
        let mut left = self.atom()?;
        loop {
            let op = match self.peek_sym() {
                Some("*") => BinOp::Mul,
                Some("/") => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let right = self.atom()?;
            left = SqlExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn atom(&mut self) -> Result<SqlExpr, SqlParseError> {
        match self.peek() {
            Some(Tok::Sym("-")) => {
                self.pos += 1;
                // An integer literal takes the sign itself, so that it is
                // the signed value that is range-checked:
                // `-9223372036854775808` is an `i64`, its magnitude is not.
                if let Some(Tok::Int(magnitude)) = self.peek() {
                    if let Some(v) = 0i64.checked_sub_unsigned(magnitude) {
                        self.pos += 1;
                        return Ok(SqlExpr::Literal(Value::Int(v)));
                    }
                }
                match self.atom()? {
                    SqlExpr::Literal(Value::Int(v)) if v != i64::MIN => {
                        Ok(SqlExpr::Literal(Value::Int(-v)))
                    }
                    SqlExpr::Literal(Value::Float(v)) => Ok(SqlExpr::Literal(Value::Float(-v))),
                    other => Ok(SqlExpr::Binary {
                        op: BinOp::Sub,
                        left: Box::new(SqlExpr::Literal(Value::Int(0))),
                        right: Box::new(other),
                    }),
                }
            }
            // Only the magnitude of `i64::MIN` does not fit, and the lexer
            // lets that through only behind a `-` — which is then binary
            // (`x - 9223372036854775808`), or it had folded the sign.
            Some(Tok::Int(magnitude)) => match i64::try_from(magnitude) {
                Ok(v) => {
                    self.pos += 1;
                    Ok(SqlExpr::Literal(Value::Int(v)))
                }
                Err(_) => Err(self.err(format!("bad integer `{magnitude}`"))),
            },
            Some(Tok::Float(v)) => {
                self.pos += 1;
                Ok(SqlExpr::Literal(Value::Float(v)))
            }
            Some(Tok::Str(s)) => {
                self.pos += 1;
                Ok(SqlExpr::Literal(Value::Str(s.to_string())))
            }
            Some(Tok::Sym("(")) => {
                // Scalar subquery or parenthesized expression.
                if self.peek_kw_at(1, "select") {
                    self.pos += 1;
                    let q = self.query()?;
                    self.expect_sym(")")?;
                    return Ok(SqlExpr::ScalarSubquery(Box::new(q)));
                }
                self.pos += 1;
                let e = self.expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Some(Tok::Word(w)) => {
                let is = |kw: &str| w.eq_ignore_ascii_case(kw);
                if is("null") {
                    self.pos += 1;
                    return Ok(SqlExpr::Literal(Value::Null));
                }
                if is("true") {
                    self.pos += 1;
                    return Ok(SqlExpr::Literal(Value::Bool(true)));
                }
                if is("false") {
                    self.pos += 1;
                    return Ok(SqlExpr::Literal(Value::Bool(false)));
                }
                if ["sum", "count", "avg", "min", "max"].into_iter().any(is)
                    && self.peek_at(1) == Some(Tok::Sym("("))
                {
                    self.pos += 2;
                    let distinct = self.eat_kw("distinct");
                    let arg = if self.eat_sym("*") {
                        None
                    } else {
                        Some(Box::new(self.expr()?))
                    };
                    self.expect_sym(")")?;
                    return Ok(SqlExpr::Agg {
                        func: w.to_ascii_lowercase(),
                        arg,
                        distinct,
                    });
                }
                // Column reference: ident or ident.ident.
                let first = self.ident()?;
                if self.eat_sym(".") {
                    let column = self.ident()?;
                    Ok(SqlExpr::Column {
                        table: Some(first),
                        column,
                    })
                } else {
                    Ok(SqlExpr::Column {
                        table: None,
                        column: first,
                    })
                }
            }
            Some(Tok::Quoted(_)) => {
                let first = self.ident()?;
                self.expect_sym(".")?;
                let column = self.ident()?;
                Ok(SqlExpr::Column {
                    table: Some(first),
                    column,
                })
            }
            other => Err(self.err(format!(
                "expected expression, found `{}`",
                other
                    .map(|t| format!("{t:?}"))
                    .unwrap_or_else(|| "end of input".into())
            ))),
        }
    }
}

fn is_reserved(word: &str) -> bool {
    const RESERVED: [&str; 27] = [
        "select", "distinct", "from", "where", "group", "by", "having", "union", "all", "as",
        "join", "inner", "left", "full", "cross", "outer", "lateral", "on", "and", "or", "not",
        "exists", "in", "is", "null", "true", "false",
    ];
    RESERVED.iter().any(|kw| word.eq_ignore_ascii_case(kw))
}

/// Words that may not alias a table: the reserved words, and the join
/// keywords that stay usable as attribute names (`right` is one of the
/// `Minus` external's).
fn is_join_word(word: &str) -> bool {
    is_reserved(word)
        || ["right", "natural", "using"]
            .iter()
            .any(|kw| word.eq_ignore_ascii_case(kw))
}
