//! The catalog: how relational tables map onto the object-base model.
//!
//! Section 7 prescribes the interpretation: "a tuple `t` in some relation
//! `R` can be interpreted as an object of type `R`; an attribute `t.A`
//! can then be interpreted as a property of `t`". Each table therefore
//! names a class, designates one *identity column* (the primary key,
//! standing for the tuple object itself), and maps every other column to
//! a property of that class.

use std::collections::BTreeMap;
use std::sync::Arc;

use receivers_objectbase::examples::{employee_schema, EmployeeSchema};
use receivers_objectbase::{ClassId, PropId, Schema, SchemaBuilder};

use crate::error::{Result, SqlError};

/// One table's mapping.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TableInfo {
    /// The class whose objects are this table's tuples.
    pub class: ClassId,
    /// The identity column (references the tuple object itself).
    pub id_column: String,
    /// Data columns: column name → property.
    pub columns: BTreeMap<String, PropId>,
}

impl TableInfo {
    /// Does the table have this column (identity or data)?
    pub fn has_column(&self, name: &str) -> bool {
        self.id_column == name || self.columns.contains_key(name)
    }

    /// The property of a data column, `None` for the identity column.
    pub fn column_prop(&self, name: &str) -> Option<PropId> {
        self.columns.get(name).copied()
    }
}

/// A catalog of tables over one object-base schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Catalog {
    /// The underlying object-base schema.
    pub schema: Arc<Schema>,
    tables: BTreeMap<String, TableInfo>,
}

impl Catalog {
    /// Build an empty catalog over a schema.
    pub fn new(schema: Arc<Schema>) -> Self {
        Self {
            schema,
            tables: BTreeMap::new(),
        }
    }

    /// Register a table.
    pub fn table(
        &mut self,
        name: impl Into<String>,
        class: ClassId,
        id_column: impl Into<String>,
        columns: impl IntoIterator<Item = (String, PropId)>,
    ) -> &mut Self {
        self.tables.insert(
            name.into(),
            TableInfo {
                class,
                id_column: id_column.into(),
                columns: columns.into_iter().collect(),
            },
        );
        self
    }

    /// Look up a table.
    pub fn lookup(&self, name: &str) -> Result<&TableInfo> {
        self.tables
            .get(name)
            .ok_or_else(|| SqlError::UnknownTable(name.to_owned()))
    }

    /// Iterate over all registered tables in name order.
    pub fn tables(&self) -> impl Iterator<Item = (&str, &TableInfo)> {
        self.tables.iter().map(|(n, t)| (n.as_str(), t))
    }

    /// The SQL name of a property: `table.column` of the first table (in
    /// name order) storing it, else its schema name.
    pub fn column_name(&self, prop: PropId) -> String {
        self.tables()
            .find_map(|(table, info)| {
                info.columns
                    .iter()
                    .find(|&(_, &q)| q == prop)
                    .map(|(column, _)| format!("{table}.{column}"))
            })
            .unwrap_or_else(|| self.schema.prop_name(prop).to_owned())
    }

    /// Parse a catalog description, deriving both the object-base
    /// [`Schema`] and the table mappings. This is what frees the lint
    /// front end from the fixed Section 7 employee catalog: any schema
    /// can be described in a small text file and passed via
    /// `--catalog <path>`.
    ///
    /// The format is line-based; `#` starts a comment and blank lines are
    /// skipped. Three directives, each on its own line:
    ///
    /// ```text
    /// class <Name>                    # declare a class
    /// prop  <Src> <name> <Dst>        # property edge Src --name--> Dst
    /// table <Table> <Class> <IdCol> [<Col>=<prop> ...]
    /// ```
    ///
    /// `class` and `prop` build the schema (Definition 2.1: globally
    /// unique labels); `table` maps a relational table onto a class, with
    /// an identity column standing for the tuple object and every data
    /// column bound to a declared property. Directive order within each
    /// kind matters (ids are assigned in declaration order) but `table`
    /// lines may reference any class or property in the file.
    pub fn parse(text: &str) -> Result<Self> {
        let err = |line: usize, msg: String| SqlError::CatalogDescription { line, msg };
        let directives = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.split('#').next().unwrap_or("").trim()))
            .filter(|(_, l)| !l.is_empty());
        // Pass 1: the schema. `SchemaBuilder` already enforces unique
        // labels and declared endpoints, so only arity needs checking.
        let mut b = SchemaBuilder::default();
        for (n, line) in directives.clone() {
            let mut words = line.split_whitespace();
            let kind = words.next().expect("non-empty line");
            let args: Vec<&str> = words.collect();
            match kind {
                "class" => {
                    let [name] = args[..] else {
                        return Err(err(n, format!("expected `class <Name>`, got `{line}`")));
                    };
                    b.class(name).map_err(|e| err(n, e.to_string()))?;
                }
                "prop" => {
                    let [src, name, dst] = args[..] else {
                        return Err(err(
                            n,
                            format!("expected `prop <Src> <name> <Dst>`, got `{line}`"),
                        ));
                    };
                    let src = b
                        .declared_class(src)
                        .ok_or_else(|| err(n, format!("unknown class `{src}`")))?;
                    let dst = b
                        .declared_class(dst)
                        .ok_or_else(|| err(n, format!("unknown class `{dst}`")))?;
                    b.property(src, name, dst)
                        .map_err(|e| err(n, e.to_string()))?;
                }
                "table" => {}
                other => {
                    return Err(err(n, format!("unknown directive `{other}`")));
                }
            }
        }
        let schema = b.build();
        // Pass 2: the table mappings, resolved against the full schema.
        let mut catalog = Self::new(schema);
        for (n, line) in directives {
            let mut words = line.split_whitespace();
            if words.next() != Some("table") {
                continue;
            }
            let args: Vec<&str> = words.collect();
            let [name, class, id_column, cols @ ..] = &args[..] else {
                return Err(err(
                    n,
                    format!(
                        "expected `table <Table> <Class> <IdCol> [<Col>=<prop> ...]`, got `{line}`"
                    ),
                ));
            };
            if catalog.tables.contains_key(*name) {
                return Err(err(n, format!("duplicate table `{name}`")));
            }
            let class = catalog
                .schema
                .class(class)
                .ok_or_else(|| err(n, format!("unknown class `{class}`")))?;
            let mut columns = BTreeMap::new();
            for col in cols {
                let Some((col_name, prop_name)) = col.split_once('=') else {
                    return Err(err(n, format!("expected `<Col>=<prop>`, got `{col}`")));
                };
                let prop = catalog
                    .schema
                    .prop(prop_name)
                    .ok_or_else(|| err(n, format!("unknown property `{prop_name}`")))?;
                if catalog.schema.property(prop).src != class {
                    return Err(err(
                        n,
                        format!("property `{prop_name}` does not start at class of table `{name}`"),
                    ));
                }
                if col_name == *id_column || columns.insert(col_name.to_owned(), prop).is_some() {
                    return Err(err(n, format!("duplicate column `{col_name}`")));
                }
            }
            catalog.table(*name, class, *id_column, columns);
        }
        Ok(catalog)
    }

    /// The single data column of a one-column table (for `IN TABLE T`).
    pub fn single_column(&self, name: &str) -> Result<(&TableInfo, PropId)> {
        let t = self.lookup(name)?;
        if t.columns.len() != 1 {
            return Err(SqlError::Unsupported(format!(
                "`IN TABLE {name}` requires a one-column table, `{name}` has {}",
                t.columns.len()
            )));
        }
        let prop = *t.columns.values().next().expect("one column");
        Ok((t, prop))
    }
}

/// The Section 7 catalog: `Employee(EmpId, Salary, Manager)`,
/// `Fire(Amount)`, `NewSal(Old, New)` over the object-base schema of
/// [`receivers_objectbase::examples::employee_schema`].
pub fn employee_catalog() -> (EmployeeSchema, Catalog) {
    let es = employee_schema();
    let mut c = Catalog::new(Arc::clone(&es.schema));
    c.table(
        "Employee",
        es.employee,
        "EmpId",
        [
            ("Salary".to_owned(), es.salary),
            ("Manager".to_owned(), es.manager),
        ],
    );
    c.table(
        "Fire",
        es.fire,
        "FireId",
        [("Amount".to_owned(), es.fire_amount)],
    );
    c.table(
        "NewSal",
        es.newsal,
        "NewSalId",
        [("Old".to_owned(), es.old), ("New".to_owned(), es.new)],
    );
    (es, c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn employee_catalog_resolves() {
        let (es, c) = employee_catalog();
        let emp = c.lookup("Employee").unwrap();
        assert_eq!(emp.class, es.employee);
        assert!(emp.has_column("EmpId"));
        assert_eq!(emp.column_prop("Salary"), Some(es.salary));
        assert_eq!(emp.column_prop("EmpId"), None);
        assert!(c.lookup("Payroll").is_err());
    }

    #[test]
    fn in_table_requires_single_column() {
        let (_es, c) = employee_catalog();
        assert!(c.single_column("Fire").is_ok());
        assert!(c.single_column("NewSal").is_err());
    }

    /// The Section 7 catalog written out as a description file yields the
    /// same schema and mappings as the hand-built [`employee_catalog`].
    #[test]
    fn parsed_description_matches_employee_catalog() {
        let text = "\
# Section 7, as a description file.
class Employee
class Amount
class Fire
class NewSal
prop Employee salary Amount
prop Employee manager Employee
prop Fire fireAmount Amount
prop NewSal old Amount
prop NewSal new Amount
table Employee Employee EmpId Salary=salary Manager=manager
table Fire Fire FireId Amount=fireAmount
table NewSal NewSal NewSalId Old=old New=new
";
        let parsed = Catalog::parse(text).unwrap();
        let (_es, built) = employee_catalog();
        assert_eq!(parsed.schema, built.schema);
        for (name, t) in built.tables() {
            let p = parsed.lookup(name).unwrap();
            assert_eq!(p.class, t.class);
            assert_eq!(p.id_column, t.id_column);
            assert_eq!(p.columns, t.columns);
        }
        assert_eq!(parsed.tables().count(), built.tables().count());
    }

    #[test]
    fn parse_rejects_malformed_descriptions() {
        let lines = |s: &str| Catalog::parse(s).unwrap_err().to_string();
        assert!(lines("classy A").contains("unknown directive"));
        assert!(lines("class A\nclass A").contains("line 2"));
        assert!(lines("prop A x B").contains("unknown class `A`"));
        assert!(lines("class A\ntable T A id Col=ghost").contains("unknown property"));
        assert!(lines("class A\nclass B\nprop B x A\ntable T A id Col=x")
            .contains("does not start at class"));
        assert!(lines("class A\nprop A x A\ntable T A id id=x").contains("duplicate column"));
        assert!(lines("class A\ntable T A id\ntable T A id").contains("duplicate table"));
    }

    #[test]
    fn parse_ignores_comments_and_blank_lines() {
        let c = Catalog::parse("\n  # nothing\nclass A # trailing\n\ntable T A id\n").unwrap();
        assert_eq!(c.lookup("T").unwrap().id_column, "id");
        assert!(c.schema.class("A").is_some());
    }
}
