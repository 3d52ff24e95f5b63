//! Parser for the Datalog/Soufflé subset.

use crate::ast::*;
use arc_core::ast::{AggFunc, CmpOp};
use arc_core::value::Value;
use std::fmt;

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatalogParseError {
    /// Human-readable message.
    pub message: String,
    /// Byte offset.
    pub offset: usize,
}

impl fmt::Display for DatalogParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Datalog parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for DatalogParseError {}

/// Parse a Datalog program.
pub fn parse_datalog(src: &str) -> Result<DatalogProgram, DatalogParseError> {
    let mut p = P {
        src: src.as_bytes(),
        pos: 0,
    };
    let mut program = DatalogProgram::default();
    loop {
        p.ws();
        if p.at_eof() {
            break;
        }
        if p.eat_str(".decl") {
            program.decls.push(p.decl()?);
        } else if p.eat_str(".output") || p.eat_str(".input") {
            // Directives accepted and ignored (I/O is the catalog's job).
            p.ws();
            p.ident()?;
            p.ws();
            // Optional trailing annotations up to end of line.
            while !p.at_eof() && p.peek() != Some(b'\n') {
                p.pos += 1;
            }
        } else {
            program.rules.push(p.rule()?);
        }
    }
    Ok(program)
}

struct P<'s> {
    src: &'s [u8],
    pos: usize,
}

impl<'s> P<'s> {
    fn at_eof(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn err(&self, message: impl Into<String>) -> DatalogParseError {
        DatalogParseError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn ws(&mut self) {
        loop {
            while matches!(self.peek(), Some(c) if c.is_ascii_whitespace()) {
                self.pos += 1;
            }
            // `//` comments.
            if self.src[self.pos..].starts_with(b"//") {
                while !self.at_eof() && self.peek() != Some(b'\n') {
                    self.pos += 1;
                }
                continue;
            }
            break;
        }
    }

    fn eat_str(&mut self, s: &str) -> bool {
        self.ws();
        if self.src[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), DatalogParseError> {
        if self.eat_str(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    fn ident(&mut self) -> Result<String, DatalogParseError> {
        match self.word() {
            Some(word) => Ok(word.to_string()),
            None => Err(self.err("expected identifier")),
        }
    }

    /// The identifier at the cursor (after whitespace), consumed — as the
    /// slice of the source that spells it; `None`, consuming nothing but
    /// the whitespace, when there is none.
    fn word(&mut self) -> Option<&'s str> {
        self.ws();
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
            self.pos += 1;
        }
        // ASCII letters, digits and `_` only: always valid UTF-8.
        std::str::from_utf8(&self.src[start..self.pos])
            .ok()
            .filter(|word| !word.is_empty())
    }

    fn decl(&mut self) -> Result<Decl, DatalogParseError> {
        let name = self.ident()?;
        self.expect("(")?;
        let mut attrs = Vec::new();
        loop {
            let attr = self.ident()?;
            // `: type` is parsed and discarded.
            if self.eat_str(":") {
                self.ident()?;
            }
            attrs.push(attr);
            if !self.eat_str(",") {
                break;
            }
        }
        self.expect(")")?;
        Ok(Decl { name, attrs })
    }

    fn rule(&mut self) -> Result<Rule, DatalogParseError> {
        let head = self.atom()?;
        let body = if self.eat_str(":-") {
            self.literals()?
        } else {
            Vec::new()
        };
        self.expect(".")?;
        Ok(Rule { head, body })
    }

    fn literals(&mut self) -> Result<Vec<Literal>, DatalogParseError> {
        let mut out = Vec::new();
        loop {
            out.push(self.literal()?);
            if !self.eat_str(",") {
                break;
            }
        }
        Ok(out)
    }

    fn literal(&mut self) -> Result<Literal, DatalogParseError> {
        self.ws();
        if self.eat_str("!") {
            let atom = self.atom()?;
            return Ok(Literal::Atom {
                atom,
                negated: true,
            });
        }
        let saved = self.pos;
        if let Some(var) = self.word() {
            // Try: aggregate assignment `v = func [x] : { … }`.
            if self.eat_str("=") {
                let var = var.to_string();
                if let Some(agg) = self.try_agg_term()? {
                    return Ok(Literal::AggAssign { var, agg });
                }
                // `v = term` equality comparison.
                let right = self.simple_term()?;
                return Ok(Literal::Cmp {
                    left: Term::Var(var),
                    op: CmpOp::Eq,
                    right,
                });
            }
            // Atom: a name and its argument list.
            self.ws();
            if self.peek() == Some(b'(') {
                self.pos = saved;
                let atom = self.atom()?;
                return Ok(Literal::Atom {
                    atom,
                    negated: false,
                });
            }
        }
        // Comparison.
        self.pos = saved;
        let left = self.simple_term()?;
        let op = self.cmp_op()?;
        let right = self.simple_term()?;
        Ok(Literal::Cmp { left, op, right })
    }

    fn cmp_op(&mut self) -> Result<CmpOp, DatalogParseError> {
        self.ws();
        for (text, op) in [
            ("<=", CmpOp::Le),
            (">=", CmpOp::Ge),
            ("!=", CmpOp::Ne),
            ("=", CmpOp::Eq),
            ("<", CmpOp::Lt),
            (">", CmpOp::Gt),
        ] {
            if self.eat_str(text) {
                return Ok(op);
            }
        }
        Err(self.err("expected comparison operator"))
    }

    fn atom(&mut self) -> Result<Atom, DatalogParseError> {
        let name = self.ident()?;
        self.expect("(")?;
        let mut args = Vec::new();
        loop {
            args.push(self.term()?);
            if !self.eat_str(",") {
                break;
            }
        }
        self.expect(")")?;
        Ok(Atom { name, args })
    }

    fn term(&mut self) -> Result<Term, DatalogParseError> {
        self.ws();
        if self.eat_str("_") {
            return Ok(Term::Underscore);
        }
        if let Some(agg) = self.try_agg_term()? {
            return Ok(Term::Agg(agg));
        }
        self.simple_term()
    }

    /// `sum v : { … }` / `count : { … }` — returns `None` when the input is
    /// not an aggregate term.
    fn try_agg_term(&mut self) -> Result<Option<AggTerm>, DatalogParseError> {
        let saved = self.pos;
        self.ws();
        let start = self.pos;
        let func = if self.eat_str("sum") {
            AggFunc::Sum
        } else if self.eat_str("count") {
            AggFunc::Count
        } else if self.eat_str("mean") {
            AggFunc::Avg
        } else if self.eat_str("min") {
            AggFunc::Min
        } else if self.eat_str("max") {
            AggFunc::Max
        } else {
            self.pos = saved;
            return Ok(None);
        };
        // The keyword must stand alone (`summary` is an identifier).
        if matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
            self.pos = saved;
            return Ok(None);
        }
        let _ = start;
        self.ws();
        let var = if self.peek() == Some(b':') {
            None
        } else {
            Some(self.ident()?)
        };
        self.expect(":")?;
        self.expect("{")?;
        let body = self.literals()?;
        self.expect("}")?;
        Ok(Some(AggTerm { func, var, body }))
    }

    fn simple_term(&mut self) -> Result<Term, DatalogParseError> {
        self.ws();
        match self.peek() {
            Some(b'"') => {
                self.pos += 1;
                let start = self.pos;
                while !self.at_eof() && self.peek() != Some(b'"') {
                    self.pos += 1;
                }
                if self.at_eof() {
                    return Err(self.err("unterminated string"));
                }
                let s = String::from_utf8_lossy(&self.src[start..self.pos]).to_string();
                self.pos += 1;
                Ok(Term::Const(Value::Str(s)))
            }
            Some(c) if c.is_ascii_digit() || c == b'-' => {
                let start = self.pos;
                if c == b'-' {
                    self.pos += 1;
                }
                let mut is_float = false;
                while matches!(self.peek(), Some(d) if d.is_ascii_digit() || d == b'.') {
                    if self.peek() == Some(b'.') {
                        // `.` might end the rule: only a float if a digit follows.
                        if matches!(self.src.get(self.pos + 1), Some(d) if d.is_ascii_digit()) {
                            is_float = true;
                        } else {
                            break;
                        }
                    }
                    self.pos += 1;
                }
                // A sign, digits and dots only: always valid UTF-8.
                let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap_or_default();
                if is_float {
                    Ok(Term::Const(Value::Float(
                        text.parse()
                            .map_err(|_| self.err(format!("bad float `{text}`")))?,
                    )))
                } else {
                    Ok(Term::Const(Value::Int(
                        text.parse()
                            .map_err(|_| self.err(format!("bad integer `{text}`")))?,
                    )))
                }
            }
            _ => Ok(Term::Var(self.ident()?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ancestor_program_parses() {
        let src = "\
            .decl P(s: number, t: number)\n\
            .decl A(s: number, t: number)\n\
            A(x, y) :- P(x, y).\n\
            A(x, y) :- P(x, z), A(z, y).\n";
        let p = parse_datalog(src).unwrap();
        assert_eq!(p.decls.len(), 2);
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[1].body.len(), 2);
        assert_eq!(p.idb_names(), vec!["A"]);
    }

    #[test]
    fn souffle_aggregate_assignment_parses() {
        // Eq (15).
        let src = "Q(ak, sm) :- R(ak, _), sm = sum b : {S(a, b), a < ak}.";
        let p = parse_datalog(src).unwrap();
        let rule = &p.rules[0];
        assert!(matches!(
            &rule.body[1],
            Literal::AggAssign { var, agg } if var == "sm" && agg.func == AggFunc::Sum
        ));
    }

    #[test]
    fn souffle_head_aggregate_parses() {
        // Eq (6).
        let src = "Q(a, sum b : {R(a, b)}) :- R(a, _).";
        let p = parse_datalog(src).unwrap();
        assert!(matches!(&p.rules[0].head.args[1], Term::Agg(_)));
    }

    #[test]
    fn negation_and_facts() {
        let src = "\
            Ok(x) :- R(x), !S(x).\n\
            R(1).\n\
            R(\"abc\").\n";
        let p = parse_datalog(src).unwrap();
        assert!(matches!(
            &p.rules[0].body[1],
            Literal::Atom { negated: true, .. }
        ));
        assert!(p.rules[1].body.is_empty());
        assert!(matches!(
            &p.rules[2].head.args[0],
            Term::Const(Value::Str(s)) if s == "abc"
        ));
    }

    #[test]
    fn comparisons_and_underscores() {
        let src = "Q(x) :- R(x, _), x >= 3, x != 5.";
        let p = parse_datalog(src).unwrap();
        assert_eq!(p.rules[0].body.len(), 3);
    }

    #[test]
    fn count_without_variable() {
        let src = "Q(a, c) :- R(a, _), c = count : {S(a, _)}.";
        let p = parse_datalog(src).unwrap();
        assert!(matches!(
            &p.rules[0].body[1],
            Literal::AggAssign { agg, .. } if agg.var.is_none()
        ));
    }

    #[test]
    fn errors_have_offsets() {
        let err = parse_datalog("Q(x) :- R(x)").unwrap_err(); // missing '.'
        assert!(err.message.contains("expected `.`"));
    }
}
