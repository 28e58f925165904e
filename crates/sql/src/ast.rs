//! Abstract syntax of the Section 7 update language.
//!
//! [`ColumnRef`] and [`FromItem`] carry the byte-offset [`Span`] of their
//! source text so diagnostics can point at the exact reference. Spans are
//! **ignored by equality**: two parses of the same statement compare equal
//! regardless of where in a program they sat.

use std::fmt;

use crate::span::Span;

/// A (possibly qualified) column reference: `Salary` or `E1.Salary`.
#[derive(Debug, Clone, Eq)]
pub struct ColumnRef {
    /// Alias qualifier, if any.
    pub qualifier: Option<String>,
    /// Column name.
    pub column: String,
    /// Source span of the whole reference (ignored by `PartialEq`).
    pub span: Span,
}

impl ColumnRef {
    /// An unqualified reference with a dummy span (for tests and
    /// synthesized statements).
    pub fn bare(column: impl Into<String>) -> Self {
        Self {
            qualifier: None,
            column: column.into(),
            span: Span::DUMMY,
        }
    }
}

impl PartialEq for ColumnRef {
    fn eq(&self, other: &Self) -> bool {
        self.qualifier == other.qualifier && self.column == other.column
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// A condition: conjunction of atoms.
///
/// Column references denote **value sets** (a column's successors may be
/// empty or plural), so the negative atoms carry *set-level* semantics:
/// `a <> b` holds when the two value sets are **disjoint** (the exact
/// negation of `Eq`, whose semantics is "the sets intersect"), and
/// `c NOT IN TABLE T` holds when no value of `c` appears in `T`'s column.
/// In particular `Salary <> Salary` is *satisfiable* — by a row with no
/// salary edge at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Condition {
    /// `a = b`.
    Eq(ColumnRef, ColumnRef),
    /// `a <> b` — the value sets are disjoint.
    NotEq(ColumnRef, ColumnRef),
    /// `col IN TABLE T` (membership in a one-column table, as in the
    /// paper's `Salary in table Fire`).
    InTable(ColumnRef, String),
    /// `col NOT IN TABLE T` — no value of `col` is in `T`'s column.
    NotInTable(ColumnRef, String),
    /// `EXISTS (SELECT … )`.
    Exists(Box<Select>),
    /// Conjunction.
    And(Box<Condition>, Box<Condition>),
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Eq(a, b) => write!(f, "{a} = {b}"),
            Self::NotEq(a, b) => write!(f, "{a} <> {b}"),
            Self::InTable(c, t) => write!(f, "{c} IN TABLE {t}"),
            Self::NotInTable(c, t) => write!(f, "{c} NOT IN TABLE {t}"),
            Self::Exists(s) => write!(f, "EXISTS ({s})"),
            Self::And(a, b) => write!(f, "{a} AND {b}"),
        }
    }
}

/// One `FROM` entry: table plus optional alias.
#[derive(Debug, Clone, Eq)]
pub struct FromItem {
    /// Table name.
    pub table: String,
    /// Alias (defaults to the table name).
    pub alias: Option<String>,
    /// Source span of the entry (ignored by `PartialEq`).
    pub span: Span,
}

impl FromItem {
    /// Effective alias.
    pub fn name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

impl PartialEq for FromItem {
    fn eq(&self, other: &Self) -> bool {
        self.table == other.table && self.alias == other.alias
    }
}

/// What a `SELECT` projects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Projection {
    /// `SELECT *` (only meaningful under `EXISTS`).
    Star,
    /// A single column.
    Column(ColumnRef),
}

/// A (sub)query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Select {
    /// The projection.
    pub projection: Projection,
    /// The `FROM` list.
    pub from: Vec<FromItem>,
    /// The optional `WHERE`.
    pub where_clause: Option<Condition>,
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        match &self.projection {
            Projection::Star => write!(f, "*")?,
            Projection::Column(c) => write!(f, "{c}")?,
        }
        write!(f, " FROM ")?;
        for (i, item) in self.from.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", item.table)?;
            if let Some(a) = &item.alias {
                write!(f, " {a}")?;
            }
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        Ok(())
    }
}

/// The body of a `FOR EACH … DO` loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CursorBody {
    /// `IF cond DELETE t FROM table`.
    DeleteIf {
        /// Condition guarding the delete (`None` = unconditional).
        condition: Option<Condition>,
        /// The table deleted from (must match the loop's table).
        table: String,
    },
    /// `[IF cond] UPDATE t SET col = (SELECT …)`.
    UpdateSet {
        /// Condition guarding the update (`None` = unconditional). A row
        /// failing the guard keeps its old value.
        condition: Option<Condition>,
        /// The updated column.
        column: String,
        /// The value subquery (boxed: the variant dominates the enum's
        /// size otherwise).
        select: Box<Select>,
    },
}

/// A top-level statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlStatement {
    /// Set-oriented `DELETE FROM t WHERE cond`.
    Delete {
        /// The table.
        table: String,
        /// The condition.
        condition: Condition,
    },
    /// Set-oriented `UPDATE t SET col = (SELECT …) [WHERE cond]`.
    Update {
        /// The table.
        table: String,
        /// The updated column.
        column: String,
        /// The value subquery.
        select: Select,
        /// Optional guard: only rows satisfying it are updated (`None` =
        /// all rows). Rows failing the guard keep their old value.
        condition: Option<Condition>,
    },
    /// Cursor-based `FOR EACH var IN t DO body`.
    ForEach {
        /// The cursor variable.
        var: String,
        /// The table iterated over.
        table: String,
        /// The loop body.
        body: CursorBody,
    },
}

/// The alias a set statement's row binds as: a qualifier `t.` in its
/// guard or value subquery names the row, as the cursor variable does in
/// a cursor statement.
pub const SET_ROW: &str = "t";

/// What [`SqlStatement::parts`] returns: the target table, the alias the
/// statement's row binds as (the cursor variable, or [`SET_ROW`] for a
/// set statement), the guard (a delete's `WHERE`/`IF`, an update's
/// optional guard) and an update's column and value subquery.
pub type StatementParts<'a> = (
    &'a str,
    &'a str,
    Option<&'a Condition>,
    Option<(&'a str, &'a Select)>,
);

impl SqlStatement {
    /// The statement's parts, as every name-resolution caller binds them.
    pub fn parts(&self) -> StatementParts<'_> {
        match self {
            Self::Delete { table, condition } => (table, SET_ROW, Some(condition), None),
            Self::Update {
                table,
                column,
                select,
                condition,
            } => (table, SET_ROW, condition.as_ref(), Some((column, select))),
            Self::ForEach { var, table, body } => match body {
                CursorBody::DeleteIf { condition, .. } => (table, var, condition.as_ref(), None),
                CursorBody::UpdateSet {
                    condition,
                    column,
                    select,
                } => (table, var, condition.as_ref(), Some((column, select))),
            },
        }
    }
}

/// A statement together with the span it occupies in a program's source
/// (as returned by [`crate::parser::parse_program`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpannedStatement {
    /// The statement.
    pub stmt: SqlStatement,
    /// Its source span, first token to last.
    pub span: Span,
}

impl fmt::Display for SpannedStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.stmt.fmt(f)
    }
}

impl fmt::Display for SqlStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Delete { table, condition } => {
                write!(f, "DELETE FROM {table} WHERE {condition}")
            }
            Self::Update {
                table,
                column,
                select,
                condition,
            } => {
                write!(f, "UPDATE {table} SET {column} = ({select})")?;
                if let Some(c) = condition {
                    write!(f, " WHERE {c}")?;
                }
                Ok(())
            }
            Self::ForEach { var, table, body } => {
                write!(f, "FOR EACH {var} IN {table} DO ")?;
                match body {
                    CursorBody::DeleteIf { condition, table } => {
                        if let Some(c) = condition {
                            write!(f, "IF {c} ")?;
                        }
                        write!(f, "DELETE {var} FROM {table}")
                    }
                    CursorBody::UpdateSet {
                        condition,
                        column,
                        select,
                    } => {
                        if let Some(c) = condition {
                            write!(f, "IF {c} ")?;
                        }
                        write!(f, "UPDATE {var} SET {column} = ({select})")
                    }
                }
            }
        }
    }
}
