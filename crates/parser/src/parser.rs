//! Recursive-descent parser for the comprehension-syntax modality.
//!
//! Grammar (Unicode forms shown; ASCII keywords equally accepted):
//!
//! ```text
//! program    := collection (';' collection)* ';'?
//! collection := '{' head '|' formula '}'
//! head       := IDENT '(' IDENT (',' IDENT)* ')'
//! formula    := and_f ('∨' and_f)*
//! and_f      := unary ('∧' unary)*
//! unary      := '¬' unary | quant | '(' formula ')' | 'true' | 'false'
//!             | predicate
//! quant      := '∃' item (',' item)* '[' formula ']'
//! item       := IDENT '∈' (IDENT | collection)          -- binding
//!             | 'γ' ('∅' | '(' keys? ')' | keys)        -- grouping
//!             | ('left'|'full'|'inner') '(' jtree… ')'  -- join annotation
//! keys       := attrref (',' attrref)*
//! jtree      := IDENT | literal | ('left'|'full'|'inner') '(' jtree… ')'
//! predicate  := scalar (CMP scalar | 'is' ['not'] 'null')
//! scalar     := term (('+'|'-') term)*
//! term       := atom (('*'|'/') atom)*
//! atom       := literal | AGG '(' ['distinct'] (scalar | '*') ')'
//!             | attrref | '(' scalar ')' | '-' atom
//! attrref    := IDENT '.' IDENT
//! ```
//!
//! A trailing `;` makes every statement a definition (`query = None`);
//! otherwise the final collection is the program's query.

use crate::lexer::{lex, LexError, Spanned, Token};
use arc_core::ast::*;
use arc_core::value::Value;
use std::fmt;

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable message.
    pub message: String,
    /// Byte offset in the source (end of input when the source ran out).
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            offset: e.offset,
        }
    }
}

/// Parse a single collection comprehension.
pub fn parse_collection(src: &str) -> Result<Collection, ParseError> {
    let mut p = Parser::new(src)?;
    let c = p.collection()?;
    p.expect_eof()?;
    Ok(c)
}

/// Parse a boolean sentence (a headless formula, paper Fig 9).
pub fn parse_sentence(src: &str) -> Result<Formula, ParseError> {
    let mut p = Parser::new(src)?;
    let f = p.formula()?;
    p.expect_eof()?;
    Ok(f)
}

/// Parse a program: `;`-separated collections. A trailing `;` marks all
/// statements as definitions; otherwise the last one is the query.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut p = Parser::new(src)?;
    let mut collections = Vec::new();
    let mut trailing_semi = false;
    loop {
        collections.push(p.collection()?);
        if p.eat(&Token::Semicolon) {
            trailing_semi = true;
            if p.at_eof() {
                break;
            }
            trailing_semi = false;
            continue;
        }
        break;
    }
    p.expect_eof()?;
    let mut program = Program::default();
    if trailing_semi {
        for c in collections {
            program.definitions.push(Definition { collection: c });
        }
    } else {
        let query = collections.pop();
        for c in collections {
            program.definitions.push(Definition { collection: c });
        }
        program.query = query;
    }
    Ok(program)
}

struct Parser<'a> {
    tokens: Vec<Spanned<'a>>,
    pos: usize,
    src_len: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Self, ParseError> {
        Ok(Parser {
            tokens: lex(src)?,
            pos: 0,
            src_len: src.len(),
        })
    }

    fn peek(&self) -> Option<Token<'a>> {
        self.peek_at(0)
    }

    fn peek_at(&self, n: usize) -> Option<Token<'a>> {
        self.tokens.get(self.pos + n).map(|s| s.token)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|s| s.offset)
            .unwrap_or(self.src_len)
    }

    fn bump(&mut self) -> Option<Token<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token<'_>) -> bool {
        if self.peek() == Some(*t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token<'_>) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{t}`, found {}",
                self.peek()
                    .map(|x| format!("`{x}`"))
                    .unwrap_or_else(|| "end of input".to_string())
            )))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError {
            message,
            offset: self.offset(),
        }
    }

    fn at_eof(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.err(format!(
                "unexpected trailing input starting with `{}`",
                self.peek().expect("not eof")
            )))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        self.name(what).map(str::to_string)
    }

    /// An identifier, as the slice of the source that spells it.
    fn name(&mut self, what: &str) -> Result<&'a str, ParseError> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.err(format!(
                "expected {what}, found {}",
                other
                    .map(|x| format!("`{x}`"))
                    .unwrap_or_else(|| "end of input".to_string())
            ))),
        }
    }

    // -- Collections ---------------------------------------------------------

    fn collection(&mut self) -> Result<Collection, ParseError> {
        self.expect(&Token::LBrace)?;
        let relation = self.ident("head relation name")?;
        self.expect(&Token::LParen)?;
        let mut attrs = Vec::new();
        if self.peek() != Some(Token::RParen) {
            loop {
                attrs.push(self.ident("head attribute")?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        self.expect(&Token::RParen)?;
        self.expect(&Token::Bar)?;
        let body = self.formula()?;
        self.expect(&Token::RBrace)?;
        Ok(Collection {
            head: Head { relation, attrs },
            body,
        })
    }

    // -- Formulas -------------------------------------------------------------

    fn formula(&mut self) -> Result<Formula, ParseError> {
        let first = self.and_formula()?;
        if self.peek() != Some(Token::Or) {
            return Ok(first);
        }
        let mut branches = Vec::with_capacity(4);
        branches.push(first);
        while self.eat(&Token::Or) {
            branches.push(self.and_formula()?);
        }
        Ok(Formula::Or(branches))
    }

    fn and_formula(&mut self) -> Result<Formula, ParseError> {
        let first = self.unary()?;
        if self.peek() != Some(Token::And) {
            return Ok(first);
        }
        let mut conjuncts = Vec::with_capacity(4);
        conjuncts.push(first);
        while self.eat(&Token::And) {
            conjuncts.push(self.unary()?);
        }
        Ok(Formula::And(conjuncts))
    }

    fn unary(&mut self) -> Result<Formula, ParseError> {
        match self.peek() {
            Some(Token::Not) => {
                self.bump();
                Ok(Formula::Not(Box::new(self.unary()?)))
            }
            Some(Token::Exists) => self.quant(),
            Some(tok @ (Token::True | Token::False)) => {
                // `true`/`false` standing alone are formula literals, but a
                // following operator means they start a boolean *scalar*
                // (e.g. `true <> r.flag`).
                let scalar_follows = matches!(
                    self.peek_at(1),
                    Some(
                        Token::Eq
                            | Token::Ne
                            | Token::Lt
                            | Token::Le
                            | Token::Gt
                            | Token::Ge
                            | Token::Is
                            | Token::Plus
                            | Token::Minus
                            | Token::Star
                            | Token::Slash
                    )
                );
                if scalar_follows {
                    Ok(Formula::Pred(self.predicate()?))
                } else {
                    let empty_and = tok == Token::True;
                    self.bump();
                    Ok(if empty_and {
                        Formula::And(Vec::new())
                    } else {
                        Formula::Or(Vec::new())
                    })
                }
            }
            Some(Token::LParen) => {
                // Ambiguous: parenthesized formula or parenthesized scalar
                // starting a predicate. Try predicate first (it consumes
                // scalar parens), backtrack to formula group — at once
                // when what follows can only start a formula.
                let saved = self.pos;
                let formula_follows = matches!(self.peek_at(1), Some(Token::Exists | Token::Not));
                let predicate = if formula_follows {
                    None
                } else {
                    self.predicate().ok()
                };
                match predicate {
                    Some(p) => Ok(Formula::Pred(p)),
                    None => {
                        self.pos = saved;
                        self.expect(&Token::LParen)?;
                        let f = self.formula()?;
                        self.expect(&Token::RParen)?;
                        Ok(f)
                    }
                }
            }
            _ => Ok(Formula::Pred(self.predicate()?)),
        }
    }

    fn quant(&mut self) -> Result<Formula, ParseError> {
        self.expect(&Token::Exists)?;
        let mut bindings = Vec::new();
        let mut grouping: Option<Grouping> = None;
        let mut join: Option<JoinTree> = None;
        loop {
            match self.peek() {
                Some(Token::Gamma) => {
                    self.bump();
                    grouping = Some(self.grouping_keys()?);
                }
                Some(Token::Ident(name))
                    if is_join_kw(name) && self.peek_at(1) == Some(Token::LParen) =>
                {
                    join = Some(self.join_tree()?);
                }
                Some(Token::Ident(_)) if self.peek_at(1) == Some(Token::In) => {
                    let var = self.ident("binding variable")?;
                    self.expect(&Token::In)?;
                    let source = match self.peek() {
                        Some(Token::LBrace) => {
                            BindingSource::Collection(Box::new(self.collection()?))
                        }
                        _ => BindingSource::Named(self.ident("relation name")?),
                    };
                    bindings.push(Binding { var, source });
                }
                _ => {
                    return Err(self.err(
                        "expected a binding (`var ∈ source`), grouping (`γ …`), or join annotation"
                            .to_string(),
                    ))
                }
            }
            if self.peek() == Some(Token::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(&Token::LBracket)?;
        let body = self.formula()?;
        self.expect(&Token::RBracket)?;
        Ok(Formula::Quant(Box::new(Quant {
            bindings,
            grouping,
            join,
            body,
        })))
    }

    fn grouping_keys(&mut self) -> Result<Grouping, ParseError> {
        // `γ ∅`, `γ()`, `γ(k, …)` or `γ k, …` (keys extend while the next
        // comma is followed by `ident.ident`).
        if self.eat(&Token::Empty) {
            return Ok(Grouping::empty());
        }
        if self.eat(&Token::LParen) {
            let mut keys = Vec::new();
            if self.peek() != Some(Token::RParen) {
                loop {
                    keys.push(self.attr_ref()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(Grouping::by(keys));
        }
        let mut keys = vec![self.attr_ref()?];
        while self.peek() == Some(Token::Comma)
            && matches!(self.peek_at(1), Some(Token::Ident(_)))
            && self.peek_at(2) == Some(Token::Dot)
        {
            self.bump(); // comma
            keys.push(self.attr_ref()?);
        }
        Ok(Grouping::by(keys))
    }

    fn join_tree(&mut self) -> Result<JoinTree, ParseError> {
        let kw = self.name("join keyword")?;
        self.expect(&Token::LParen)?;
        let mut children = Vec::new();
        loop {
            children.push(self.join_leaf()?);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        match kw {
            "inner" => Ok(JoinTree::Inner(children)),
            "left" | "full" => {
                if children.len() != 2 {
                    return Err(self.err(format!("`{kw}` join takes exactly two operands")));
                }
                let r = children.pop().expect("len 2");
                let l = children.pop().expect("len 2");
                if kw == "left" {
                    Ok(JoinTree::Left(Box::new(l), Box::new(r)))
                } else {
                    Ok(JoinTree::Full(Box::new(l), Box::new(r)))
                }
            }
            other => Err(self.err(format!("unknown join keyword `{other}`"))),
        }
    }

    fn join_leaf(&mut self) -> Result<JoinTree, ParseError> {
        match self.peek() {
            Some(Token::Ident(name))
                if is_join_kw(name) && self.peek_at(1) == Some(Token::LParen) =>
            {
                self.join_tree()
            }
            Some(Token::Ident(_)) => Ok(JoinTree::Var(self.ident("join variable")?)),
            Some(
                Token::Int(_)
                | Token::Float(_)
                | Token::Str(_)
                | Token::Null
                | Token::True
                | Token::False,
            ) => {
                let v = self.literal()?;
                Ok(JoinTree::Lit(v))
            }
            _ => Err(self.err("expected join-tree leaf".to_string())),
        }
    }

    // -- Predicates and scalars ------------------------------------------------

    fn predicate(&mut self) -> Result<Predicate, ParseError> {
        let left = self.scalar()?;
        match self.peek() {
            Some(Token::Is) => {
                self.bump();
                let negated = self.eat(&Token::Not);
                self.expect(&Token::Null)?;
                Ok(Predicate::IsNull {
                    expr: left,
                    negated,
                })
            }
            Some(op_tok) => {
                let op = match op_tok {
                    Token::Eq => CmpOp::Eq,
                    Token::Ne => CmpOp::Ne,
                    Token::Lt => CmpOp::Lt,
                    Token::Le => CmpOp::Le,
                    Token::Gt => CmpOp::Gt,
                    Token::Ge => CmpOp::Ge,
                    other => {
                        return Err(
                            self.err(format!("expected comparison operator, found `{other}`"))
                        )
                    }
                };
                self.bump();
                let right = self.scalar()?;
                Ok(Predicate::Cmp { left, op, right })
            }
            None => Err(self.err("expected comparison operator".to_string())),
        }
    }

    fn scalar(&mut self) -> Result<Scalar, ParseError> {
        let mut left = self.term()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => ArithOp::Add,
                Some(Token::Minus) => ArithOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.term()?;
            left = Scalar::Arith {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn term(&mut self) -> Result<Scalar, ParseError> {
        let mut left = self.atom()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => ArithOp::Mul,
                Some(Token::Slash) => ArithOp::Div,
                _ => break,
            };
            self.bump();
            let right = self.atom()?;
            left = Scalar::Arith {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn atom(&mut self) -> Result<Scalar, ParseError> {
        match self.peek() {
            Some(Token::Minus) => {
                self.bump();
                // An integer literal takes the sign itself, so that it is
                // the signed value that is range-checked:
                // `-9223372036854775808` is an `i64`, its magnitude is not.
                if let Some(Token::Int(magnitude)) = self.peek() {
                    if let Some(v) = 0i64.checked_sub_unsigned(magnitude) {
                        self.bump();
                        return Ok(Scalar::Const(Value::Int(v)));
                    }
                }
                match self.atom()? {
                    Scalar::Const(Value::Int(v)) if v != i64::MIN => {
                        Ok(Scalar::Const(Value::Int(-v)))
                    }
                    Scalar::Const(Value::Float(v)) => Ok(Scalar::Const(Value::Float(-v))),
                    other => Ok(Scalar::Arith {
                        op: ArithOp::Sub,
                        left: Box::new(Scalar::Const(Value::Int(0))),
                        right: Box::new(other),
                    }),
                }
            }
            Some(
                Token::Int(_)
                | Token::Float(_)
                | Token::Str(_)
                | Token::Null
                | Token::True
                | Token::False,
            ) => Ok(Scalar::Const(self.literal()?)),
            Some(Token::LParen) => {
                self.bump();
                let s = self.scalar()?;
                self.expect(&Token::RParen)?;
                Ok(s)
            }
            Some(Token::Ident(name)) => {
                if let Some(func) = agg_func(name) {
                    if self.peek_at(1) == Some(Token::LParen) {
                        self.bump(); // name
                        self.bump(); // (
                        let distinct = self.eat(&Token::Distinct);
                        let arg = if self.eat(&Token::Star) {
                            AggArg::Star
                        } else {
                            AggArg::Expr(self.scalar()?)
                        };
                        self.expect(&Token::RParen)?;
                        return Ok(Scalar::Agg(Box::new(AggCall {
                            func,
                            arg,
                            distinct,
                        })));
                    }
                }
                let attr = self.attr_ref()?;
                Ok(Scalar::Attr(attr))
            }
            other => Err(self.err(format!(
                "expected scalar expression, found {}",
                other
                    .map(|x| format!("`{x}`"))
                    .unwrap_or_else(|| "end of input".to_string())
            ))),
        }
    }

    fn attr_ref(&mut self) -> Result<AttrRef, ParseError> {
        let var = self.ident("range variable")?;
        self.expect(&Token::Dot)?;
        let attr = self.ident("attribute name")?;
        Ok(AttrRef { var, attr })
    }

    fn literal(&mut self) -> Result<Value, ParseError> {
        match self.bump() {
            // Only the magnitude of `i64::MIN` does not fit, and the lexer
            // lets that through only behind a `-` — which is then binary
            // (`x - 9223372036854775808`), or it had folded the sign.
            Some(Token::Int(magnitude)) => i64::try_from(magnitude).map(Value::Int).map_err(|_| {
                self.pos -= 1;
                self.err(format!("bad integer literal `{magnitude}`"))
            }),
            Some(Token::Float(v)) => Ok(Value::Float(v)),
            Some(Token::Str(s)) => Ok(Value::Str(s.to_string())),
            Some(Token::Null) => Ok(Value::Null),
            Some(Token::True) => Ok(Value::Bool(true)),
            Some(Token::False) => Ok(Value::Bool(false)),
            other => Err(self.err(format!(
                "expected literal, found {}",
                other
                    .map(|x| format!("`{x}`"))
                    .unwrap_or_else(|| "end of input".to_string())
            ))),
        }
    }
}

fn is_join_kw(name: &str) -> bool {
    matches!(name, "left" | "full" | "inner")
}

fn agg_func(name: &str) -> Option<AggFunc> {
    match name {
        "sum" => Some(AggFunc::Sum),
        "count" => Some(AggFunc::Count),
        "avg" => Some(AggFunc::Avg),
        "min" => Some(AggFunc::Min),
        "max" => Some(AggFunc::Max),
        _ => None,
    }
}
