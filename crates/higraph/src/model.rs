//! The higraph data model (paper §2.2, Harel's higraphs \[36\]):
//! **nesting** captures containment (scopes as regions) and **edges**
//! capture references (predicates between attribute cells).
//!
//! The model mirrors the paper's Relational Diagram conventions:
//!
//! * quantifier scopes are regions; *grouping* scopes get a double-lined
//!   boundary and their grouping-key attributes a gray shade (Fig 4b);
//! * negation scopes are dashed regions (read outside-in, Fig 9);
//! * assignment predicates are visually decorated (directed) edges —
//!   "crucial for nested comprehensions" (§2.2);
//! * aggregation edges carry the function name (Fig 4b's `sum` arrow);
//! * the optional side of an outer join carries a circle marker (Fig 12);
//! * nested collections are sub-regions that can be collapsed/expanded
//!   (abstract relations, §2.13.2).

use arc_core::ast::CmpOp;
use arc_core::value::Value;

/// Node index into [`Higraph::nodes`].
pub type NodeId = usize;

/// A higraph over one query.
#[derive(Debug, Clone, Default)]
pub struct Higraph {
    /// Node arena; index 0 is the canvas.
    pub nodes: Vec<Node>,
    /// Cross-reference edges.
    pub edges: Vec<Edge>,
}

/// A node (region or table or constant).
#[derive(Debug, Clone)]
pub struct Node {
    /// Self index.
    pub id: NodeId,
    /// Parent region (None for the canvas).
    pub parent: Option<NodeId>,
    /// Children in insertion order.
    pub children: Vec<NodeId>,
    /// Payload.
    pub kind: NodeKind,
}

/// Node payloads.
#[derive(Debug, Clone)]
pub enum NodeKind {
    /// The drawing canvas.
    Canvas,
    /// A collection region (the output table plus its body scopes).
    Collection {
        /// Head relation name ("" for anonymous nested collections).
        name: String,
    },
    /// An existential scope region.
    Scope {
        /// Grouping scope (double-lined boundary)?
        grouping: bool,
    },
    /// A negation scope region (dashed boundary).
    Negation,
    /// A table: the head table (`is_head`) or a bound relation occurrence.
    Table {
        /// Relation name.
        relation: String,
        /// Range variable ("" for head tables).
        var: String,
        /// Attribute cells.
        attrs: Vec<AttrCell>,
        /// Is this the output (head) table?
        is_head: bool,
    },
    /// A constant operand (selection constants appear as labels).
    Const {
        /// The value.
        value: Value,
    },
}

/// One attribute cell of a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrCell {
    /// Attribute name.
    pub attr: String,
    /// Grouping key (gray shade in the diagram)?
    pub grouped: bool,
}

/// An edge endpoint: a node, optionally anchored at an attribute cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Target node.
    pub node: NodeId,
    /// Attribute anchor (None = whole node, e.g. constants).
    pub attr: Option<String>,
}

/// Edge kinds, following the paper's visual vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeKind {
    /// A comparison predicate (label = operator unless `=`).
    Comparison(CmpOp),
    /// An assignment predicate — decorated/directed (§2.2 difference (ii)).
    Assignment,
    /// An aggregation input: `to` receives `func(from)` (Fig 4b).
    Aggregation {
        /// Aggregate function name.
        func: String,
        /// Part of an assignment (vs. comparison) predicate.
        assignment: bool,
    },
    /// Optionality marker of an outer join: the `to` side is optional
    /// (empty circle in Fig 12).
    OuterOptional,
}

/// A cross-reference edge.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Source port.
    pub from: Port,
    /// Target port.
    pub to: Port,
    /// Kind.
    pub kind: EdgeKind,
}

impl Higraph {
    /// Create a higraph containing only the canvas.
    pub fn new() -> Self {
        Higraph {
            nodes: vec![Node {
                id: 0,
                parent: None,
                children: Vec::new(),
                kind: NodeKind::Canvas,
            }],
            edges: Vec::new(),
        }
    }

    /// The canvas node id.
    pub fn canvas(&self) -> NodeId {
        0
    }

    /// Add a node under `parent`; returns its id.
    pub fn add_node(&mut self, parent: NodeId, kind: NodeKind) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Node {
            id,
            parent: Some(parent),
            children: Vec::new(),
            kind,
        });
        self.nodes[parent].children.push(id);
        id
    }

    /// Add an edge.
    pub fn add_edge(&mut self, from: Port, to: Port, kind: EdgeKind) {
        self.edges.push(Edge { from, to, kind });
    }

    /// Depth of a node (canvas = 0).
    pub fn depth(&self, mut id: NodeId) -> usize {
        let mut d = 0;
        while let Some(p) = self.nodes[id].parent {
            d += 1;
            id = p;
        }
        d
    }

    /// Count nodes of a given predicate.
    pub fn count_nodes(&self, pred: impl Fn(&NodeKind) -> bool) -> usize {
        self.nodes.iter().filter(|n| pred(&n.kind)).count()
    }

    /// Count edges of a given predicate.
    pub fn count_edges(&self, pred: impl Fn(&EdgeKind) -> bool) -> usize {
        self.edges.iter().filter(|e| pred(&e.kind)).count()
    }
}
