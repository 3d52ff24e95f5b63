//! Runtime environments: the stack of bound range variables.
//!
//! At run time an environment is a stack of **rows**, nothing else. A
//! [`Frame`] borrows its row straight out of the relation being scanned or
//! probed (`&[Value]` into the catalog's or the definitions' storage,
//! which outlives the evaluation context), and owns one only where a row
//! is synthesized — lateral results, external completions, abstract
//! candidates, `NULL`-padded outer-join sides. Binding a candidate row is
//! therefore one pointer-pair push, whatever the row holds.
//!
//! Names live beside the stack, not in it: a [`Layout`] lists, per frame
//! position, the range variable and attribute names that position carries.
//! Every compiled scope (see [`super::scope`]) owns the layout of its own
//! frames on top of its outer ones and installs it in
//! [`Env::layout`] while it executes, so a nested scope compiled later
//! resolves its outer references against exactly the frames that will be
//! on the stack — once, to `(frame, column)` slots (see [`super::slots`]).
//! The layout's `Arc` address doubles as the identity under which compiled
//! scopes are cached: the same scope text reached under a different frame
//! layout compiles to different slots.
//!
//! Frames and layouts are `Send + Sync`: the parallel executor clones an
//! environment snapshot per morsel and drives it on a worker thread (see
//! [`super::parallel`]).

use crate::relation::Tuple;
use arc_core::value::Value;
use arc_plan::OuterScope;
use std::sync::Arc;

/// One bound range variable's current row.
#[derive(Debug, Clone)]
pub(crate) enum Frame<'a> {
    /// A row of a materialized relation, borrowed in place.
    Borrowed(&'a [Value]),
    /// A synthesized row (lateral, external, abstract, outer-join padding).
    Owned(Tuple),
}

impl Frame<'_> {
    #[inline]
    pub(crate) fn row(&self) -> &[Value] {
        match self {
            Frame::Borrowed(row) => row,
            Frame::Owned(row) => row,
        }
    }
}

/// The names one frame position carries: its range variable and the
/// attribute names of its rows, in column order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Names<'a> {
    pub(crate) var: &'a str,
    pub(crate) attrs: &'a [String],
}

/// Names of a frame stack, bottom first.
pub(crate) type Layout<'a> = Arc<[Names<'a>]>;

/// Where a name resolves to in a frame layout.
pub(crate) enum Resolution {
    /// The innermost frame binding the variable has the attribute.
    Slot { frame: usize, col: usize },
    /// The innermost frame binding the variable lacks the attribute.
    UnknownAttribute,
    /// No frame binds the variable.
    Unbound,
}

/// Resolve `var.attr` innermost-first (lexical scoping): the last frame
/// named `var` decides, whether or not it has the attribute.
pub(crate) fn resolve(names: &[Names<'_>], var: &str, attr: &str) -> Resolution {
    match names.iter().rposition(|n| n.var == var) {
        None => Resolution::Unbound,
        Some(frame) => match names[frame].attrs.iter().position(|a| a == attr) {
            Some(col) => Resolution::Slot { frame, col },
            None => Resolution::UnknownAttribute,
        },
    }
}

/// A frame layout as the planner's outer scope.
pub(crate) struct LayoutOuter<'l, 'a>(pub(crate) &'l [Names<'a>]);

impl OuterScope for LayoutOuter<'_, '_> {
    fn attrs(&self, var: &str) -> Option<&[String]> {
        self.0.iter().rev().find(|n| n.var == var).map(|n| n.attrs)
    }
}

/// A stack of frames plus the layout naming them.
#[derive(Debug, Default, Clone)]
pub(crate) struct Env<'a> {
    pub(crate) frames: Vec<Frame<'a>>,
    /// Names of the executing scope's frames: entry `i` describes
    /// `frames[i]`. It covers the whole scope, so it may run ahead of the
    /// frames pushed so far; `None` is the empty layout.
    pub(crate) layout: Option<Layout<'a>>,
}

impl<'a> Env<'a> {
    #[inline]
    pub(crate) fn push(&mut self, frame: Frame<'a>) {
        self.frames.push(frame);
    }

    #[inline]
    pub(crate) fn pop(&mut self) {
        self.frames.pop();
    }

    pub(crate) fn len(&self) -> usize {
        self.frames.len()
    }

    pub(crate) fn truncate(&mut self, n: usize) {
        self.frames.truncate(n);
    }

    /// Names of the frames currently on the stack.
    pub(crate) fn names(&self) -> &[Names<'a>] {
        match &self.layout {
            Some(layout) => &layout[..self.frames.len()],
            None => &[],
        }
    }

    /// Identity of the installed layout (its `Arc` address; 0 for none),
    /// part of the compiled-scope key (`Ctx::cached_scope`).
    ///
    /// The address is pinned for the key's lifetime. Every layout an
    /// environment installs ([`Env::with_layout`]) is owned by a compiled
    /// scope — its `layout`, or an abstract step's check layout — and
    /// every compiled scope stays in its `Ctx`'s scope cache, which never
    /// evicts, until the `Ctx` drops. A worker context keys layouts of
    /// its own scopes or of the coordinator's partitioned scope, which
    /// outlives it. So no layout is freed, and no other `Arc` can take
    /// its address, while a key naming it exists.
    pub(crate) fn layout_id(&self) -> usize {
        self.layout
            .as_ref()
            .map_or(0, |l| Arc::as_ptr(l) as *const Names<'a> as usize)
    }

    /// Run `f` with `layout` installed, restoring the previous one
    /// afterwards — also when `f` fails, because a caller may recover and
    /// keep using the environment (the semi-join build does).
    pub(crate) fn with_layout<T>(
        &mut self,
        layout: &Layout<'a>,
        f: impl FnOnce(&mut Env<'a>) -> T,
    ) -> T {
        let outer = self.layout.replace(layout.clone());
        let out = f(self);
        self.layout = outer;
        out
    }
}

// The parallel executor sends cloned environments (and their frames) to
// worker threads; keep that a compile-time fact.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Frame<'static>>();
    assert_send_sync::<Env<'static>>();
};
