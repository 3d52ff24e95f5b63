//! AST for the supported SQL subset.
//!
//! The subset covers every SQL query printed in the paper: SELECT
//! [DISTINCT], FROM with aliases and comma joins, INNER/LEFT/RIGHT/FULL JOIN …
//! ON, (JOIN) LATERAL subqueries, WHERE with AND/OR/NOT, (NOT) EXISTS,
//! (NOT) IN subqueries, IS [NOT] NULL, scalar subqueries (in SELECT items
//! and comparisons), aggregates with DISTINCT and `count(*)`, GROUP BY,
//! HAVING, and UNION [ALL]. ORDER BY/LIMIT are out of scope (the paper
//! defers sorted collections, §5).

use arc_core::value::Value;
use std::fmt;

/// A query: a select or a union of queries.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlQuery {
    /// A plain SELECT block.
    Select(Select),
    /// `left UNION [ALL] right`.
    Union {
        /// Left branch.
        left: Box<SqlQuery>,
        /// Right branch.
        right: Box<SqlQuery>,
        /// `UNION ALL` (bag union) vs. `UNION` (set union).
        all: bool,
    },
}

/// A SELECT block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Select {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// FROM clause: comma-separated table references (each possibly a join
    /// tree).
    pub from: Vec<TableRef>,
    /// WHERE condition.
    pub where_clause: Option<SqlExpr>,
    /// GROUP BY expressions (column references in our subset).
    pub group_by: Vec<SqlExpr>,
    /// HAVING condition.
    pub having: Option<SqlExpr>,
}

/// One projection item: `expr [AS alias]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The projected expression.
    pub expr: SqlExpr,
    /// Optional alias.
    pub alias: Option<String>,
}

/// A FROM-clause element.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// `name [AS] alias`.
    Table {
        /// Relation name.
        name: String,
        /// Alias (defaults to the name).
        alias: Option<String>,
    },
    /// `[LATERAL] (subquery) [AS] alias`.
    Subquery {
        /// The subquery.
        query: Box<SqlQuery>,
        /// Mandatory alias.
        alias: String,
        /// LATERAL marker (correlation allowed).
        lateral: bool,
    },
    /// `left <kind> JOIN right [ON cond]`.
    Join {
        /// Left operand.
        left: Box<TableRef>,
        /// Right operand.
        right: Box<TableRef>,
        /// Join kind.
        kind: JoinKind,
        /// ON condition (`None` for CROSS or `ON true`).
        on: Option<SqlExpr>,
    },
}

impl TableRef {
    /// The binding variable this reference introduces (alias or name); join
    /// nodes have none.
    pub fn binding_var(&self) -> Option<&str> {
        match self {
            TableRef::Table { name, alias } => Some(alias.as_deref().unwrap_or(name)),
            TableRef::Subquery { alias, .. } => Some(alias),
            TableRef::Join { .. } => None,
        }
    }
}

/// Join kinds of the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// `[INNER] JOIN`.
    Inner,
    /// `LEFT [OUTER] JOIN` (and `RIGHT [OUTER] JOIN`, parsed with its
    /// operands swapped).
    Left,
    /// `FULL [OUTER] JOIN`.
    Full,
    /// `CROSS JOIN`.
    Cross,
}

/// Scalar/boolean expressions (SQL conflates them; the lowering separates
/// formula context from scalar context).
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    /// `[table.]column`.
    Column {
        /// Qualifier (alias), if any.
        table: Option<String>,
        /// Column name.
        column: String,
    },
    /// A literal.
    Literal(Value),
    /// Binary operation (comparison, logical, or arithmetic).
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        left: Box<SqlExpr>,
        /// Right operand.
        right: Box<SqlExpr>,
    },
    /// `NOT expr`.
    Not(Box<SqlExpr>),
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<SqlExpr>,
        /// `IS NOT NULL`.
        negated: bool,
    },
    /// `[NOT] EXISTS (subquery)`.
    Exists {
        /// The subquery.
        query: Box<SqlQuery>,
        /// `NOT EXISTS`.
        negated: bool,
    },
    /// `expr [NOT] IN (subquery)`.
    InSubquery {
        /// Tested expression.
        expr: Box<SqlExpr>,
        /// The subquery (single projected column).
        query: Box<SqlQuery>,
        /// `NOT IN`.
        negated: bool,
    },
    /// `(subquery)` used as a scalar.
    ScalarSubquery(Box<SqlQuery>),
    /// Aggregate call.
    Agg {
        /// Function name (`sum`, `count`, `avg`, `min`, `max`).
        func: String,
        /// Argument (`None` = `*`).
        arg: Option<Box<SqlExpr>>,
        /// `DISTINCT` argument.
        distinct: bool,
    },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // symbols are self-describing
pub enum BinOp {
    And,
    Or,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    Mul,
    Div,
}

impl BinOp {
    /// Is this a comparison operator?
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Is this a logical connective?
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        };
        write!(f, "{s}")
    }
}
