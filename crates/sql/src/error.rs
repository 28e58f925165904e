//! Errors for the SQL-flavoured layer.

use std::fmt;

use crate::span::{line_col, Span};

/// Errors raised while lexing, parsing, resolving, or executing
/// statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlError {
    /// Unexpected character during lexing.
    Lex {
        /// Where the character sits in the source.
        span: Span,
        /// The character.
        found: char,
    },
    /// Unexpected token during parsing.
    Parse {
        /// What the parser expected.
        expected: String,
        /// What it found.
        found: String,
        /// Where the offending token sits (empty at end of input).
        span: Span,
    },
    /// Unknown table name.
    UnknownTable(String),
    /// Unknown column name (in the named scope).
    UnknownColumn {
        /// The column.
        column: String,
        /// Where it was looked up.
        scope: String,
    },
    /// Unknown alias in a qualified reference.
    UnknownAlias(String),
    /// An update's value column holds objects of another class than the
    /// column it is assigned to.
    IllTypedAssignment {
        /// The assigned column, `Table.Column`.
        column: String,
        /// The class the assigned column holds.
        expected: String,
        /// The value subquery's projected column, as written.
        value: String,
        /// The class the value column holds.
        found: String,
    },
    /// Malformed catalog description file (see
    /// [`Catalog::parse`](crate::catalog::Catalog::parse)).
    CatalogDescription {
        /// 1-based line of the offending directive.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// The statement kind does not support the requested operation.
    Unsupported(String),
    /// Error from the update-method layer.
    Core(String),
    /// Error from the durability layer (the plan executor's durable
    /// driver surfaces write-ahead-log failures through this).
    Wal(String),
}

impl SqlError {
    /// The source span of the error, when it has one (lex and parse
    /// errors do; resolution and execution errors are span-free — the
    /// lint layer re-resolves with spans).
    pub fn span(&self) -> Option<Span> {
        match self {
            Self::Lex { span, .. } | Self::Parse { span, .. } => Some(*span),
            _ => None,
        }
    }

    /// Render with a `line:col` location computed against the source the
    /// error came from, e.g. `3:7: parse error: expected …`. Falls back
    /// to plain [`fmt::Display`] for errors without a span.
    pub fn render(&self, src: &str) -> String {
        match self.span() {
            Some(span) => format!("{}: {self}", line_col(src, span.start)),
            None => self.to_string(),
        }
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Lex { span, found } => {
                write!(f, "unexpected character `{found}` at byte {}", span.start)
            }
            Self::Parse {
                expected, found, ..
            } => {
                write!(f, "parse error: expected {expected}, found {found}")
            }
            Self::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            Self::UnknownColumn { column, scope } => {
                write!(f, "unknown column `{column}` in {scope}")
            }
            Self::UnknownAlias(a) => write!(f, "unknown alias `{a}`"),
            Self::IllTypedAssignment {
                column,
                expected,
                value,
                found,
            } => write!(
                f,
                "ill-typed assignment: `{column}` holds `{expected}` objects, \
                 but the value column `{value}` holds `{found}` objects"
            ),
            Self::CatalogDescription { line, msg } => {
                write!(f, "catalog description line {line}: {msg}")
            }
            Self::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            Self::Core(msg) => write!(f, "{msg}"),
            Self::Wal(msg) => write!(f, "durability: {msg}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<receivers_core::CoreError> for SqlError {
    fn from(e: receivers_core::CoreError) -> Self {
        Self::Core(e.to_string())
    }
}

impl From<receivers_objectbase::ObjectBaseError> for SqlError {
    fn from(e: receivers_objectbase::ObjectBaseError) -> Self {
        Self::Core(e.to_string())
    }
}

impl From<receivers_relalg::RelAlgError> for SqlError {
    fn from(e: receivers_relalg::RelAlgError) -> Self {
        Self::Core(e.to_string())
    }
}

impl From<receivers_wal::WalError> for SqlError {
    fn from(e: receivers_wal::WalError) -> Self {
        Self::Wal(e.to_string())
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SqlError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_locates_parse_errors() {
        let src = "delete from\nEmployee oops";
        let err = crate::parser::parse(src).unwrap_err();
        let rendered = err.render(src);
        assert!(
            rendered.starts_with("2:"),
            "expected a line-2 location, got {rendered}"
        );
    }

    #[test]
    fn render_passes_through_spanless_errors() {
        let err = SqlError::UnknownTable("Ghost".to_owned());
        assert_eq!(err.render("whatever"), "unknown table `Ghost`");
    }
}
