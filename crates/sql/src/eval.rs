//! Semantic evaluation of conditions and subqueries over an object-base
//! instance (the "reference interpreter" for the SQL layer; the
//! relational-algebra compilation in [`mod@crate::compile`] is cross-checked
//! against it in tests).

use receivers_objectbase::{Instance, Oid};

use crate::ast::{ColumnRef, Condition, Projection, Select};
use crate::catalog::{Catalog, TableInfo};
use crate::error::Result;
use crate::scope::{resolve, Column, Scope};

/// One cursor/alias binding: the alias name, its table, and the bound
/// tuple object.
#[derive(Debug, Clone)]
pub struct Binding<'a> {
    /// Alias (or cursor variable) name.
    pub alias: String,
    /// Its table.
    pub table: &'a TableInfo,
    /// The bound tuple.
    pub tuple: Oid,
}

/// A stack of scopes, innermost last.
pub type Scopes<'a> = Vec<Binding<'a>>;

impl Scope for Binding<'_> {
    fn alias(&self) -> Option<&str> {
        Some(&self.alias)
    }

    fn table(&self) -> &TableInfo {
        self.table
    }
}

/// The value of a column reference under the given scopes, resolved by
/// [`crate::scope::resolve`]: the set of objects the referenced property
/// points to (a singleton `{t}` for identity columns).
pub fn column_values(
    colref: &ColumnRef,
    scopes: &[Binding<'_>],
    instance: &Instance,
) -> Result<Vec<Oid>> {
    let r = resolve(colref, scopes)?;
    let tuple = scopes[r.scope].tuple;
    Ok(match r.column {
        Column::Id => vec![tuple],
        Column::Prop(prop) => instance.successors(tuple, prop).collect(),
    })
}

/// Evaluate a condition under the given scopes.
pub fn eval_condition(
    cond: &Condition,
    scopes: &Scopes<'_>,
    catalog: &Catalog,
    instance: &Instance,
) -> Result<bool> {
    match cond {
        Condition::Eq(a, b) => {
            let va = column_values(a, scopes, instance)?;
            let vb = column_values(b, scopes, instance)?;
            Ok(va.iter().any(|x| vb.contains(x)))
        }
        // Set-level negation of `Eq`: the value sets are disjoint. A row
        // with no `a`-value satisfies `a <> b` vacuously.
        Condition::NotEq(a, b) => {
            let va = column_values(a, scopes, instance)?;
            let vb = column_values(b, scopes, instance)?;
            Ok(!va.iter().any(|x| vb.contains(x)))
        }
        Condition::InTable(col, table) => {
            let vals = column_values(col, scopes, instance)?;
            let (t, prop) = catalog.single_column(table)?;
            for member in instance.class_members(t.class) {
                for v in instance.successors(member, prop) {
                    if vals.contains(&v) {
                        return Ok(true);
                    }
                }
            }
            Ok(false)
        }
        Condition::NotInTable(col, table) => {
            let vals = column_values(col, scopes, instance)?;
            let (t, prop) = catalog.single_column(table)?;
            for member in instance.class_members(t.class) {
                for v in instance.successors(member, prop) {
                    if vals.contains(&v) {
                        return Ok(false);
                    }
                }
            }
            Ok(true)
        }
        Condition::Exists(select) => {
            Ok(!eval_select(select, scopes, catalog, instance)?.is_empty())
        }
        Condition::And(a, b) => Ok(eval_condition(a, scopes, catalog, instance)?
            && eval_condition(b, scopes, catalog, instance)?),
    }
}

/// Evaluate a subquery under the given outer scopes. `SELECT *` returns
/// one sentinel value per satisfying binding (enough for `EXISTS`);
/// otherwise the projected column's values, deduplicated.
pub fn eval_select(
    select: &Select,
    outer: &Scopes<'_>,
    catalog: &Catalog,
    instance: &Instance,
) -> Result<Vec<Oid>> {
    let tables: Vec<(&str, &TableInfo)> = select
        .from
        .iter()
        .map(|f| Ok((f.name(), catalog.lookup(&f.table)?)))
        .collect::<Result<_>>()?;
    let mut out: Vec<Oid> = Vec::new();
    let mut bindings = outer.clone();
    cross_join(
        &tables,
        0,
        &mut bindings,
        &mut |scopes: &Scopes<'_>| -> Result<()> {
            let keep = match &select.where_clause {
                Some(c) => eval_condition(c, scopes, catalog, instance)?,
                None => true,
            };
            if keep {
                match &select.projection {
                    Projection::Star => {
                        // Sentinel: the innermost binding's tuple.
                        out.push(scopes.last().expect("nonempty FROM").tuple);
                    }
                    Projection::Column(c) => {
                        out.extend(column_values(c, scopes, instance)?);
                    }
                }
            }
            Ok(())
        },
        instance,
    )?;
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

fn cross_join<'a>(
    tables: &[(&str, &'a TableInfo)],
    idx: usize,
    scopes: &mut Scopes<'a>,
    f: &mut impl FnMut(&Scopes<'a>) -> Result<()>,
    instance: &Instance,
) -> Result<()> {
    if idx == tables.len() {
        return f(scopes);
    }
    let (alias, table) = tables[idx];
    let members: Vec<Oid> = instance.class_members(table.class).collect();
    for tuple in members {
        scopes.push(Binding {
            alias: alias.to_owned(),
            table,
            tuple,
        });
        cross_join(tables, idx + 1, scopes, f, instance)?;
        scopes.pop();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::employee_catalog;
    use crate::parser::parse;
    use crate::scenarios::section7_instance;

    #[test]
    fn evaluates_in_table_condition() {
        let (es, catalog) = employee_catalog();
        let (i, data) = section7_instance(&es);
        // Employee e1 earns amount a100 which is in Fire; e2 earns a200
        // which is not.
        let emp = catalog.lookup("Employee").unwrap();
        let cond = match parse("delete from Employee where Salary in table Fire").unwrap() {
            crate::ast::SqlStatement::Delete { condition, .. } => condition,
            _ => unreachable!(),
        };
        let scopes_e1 = vec![Binding {
            alias: "t".to_owned(),
            table: emp,
            tuple: data.employees[0],
        }];
        assert!(eval_condition(&cond, &scopes_e1, &catalog, &i).unwrap());
        let scopes_e2 = vec![Binding {
            alias: "t".to_owned(),
            table: emp,
            tuple: data.employees[1],
        }];
        assert!(!eval_condition(&cond, &scopes_e2, &catalog, &i).unwrap());
    }

    #[test]
    fn negative_atoms_negate_their_positive_forms() {
        let (es, catalog) = employee_catalog();
        let (i, data) = section7_instance(&es);
        let emp = catalog.lookup("Employee").unwrap();
        let parse_cond = |text: &str| match parse(text).unwrap() {
            crate::ast::SqlStatement::Delete { condition, .. } => condition,
            _ => unreachable!(),
        };
        let not_in = parse_cond("delete from Employee where Salary not in table Fire");
        let neq = parse_cond("delete from Employee where Manager <> EmpId");
        for (k, &e) in data.employees.iter().enumerate() {
            let scopes = vec![Binding {
                alias: "t".to_owned(),
                table: emp,
                tuple: e,
            }];
            // e1's salary a100 is the Fire amount; e2/e3 earn a200.
            assert_eq!(
                eval_condition(&not_in, &scopes, &catalog, &i).unwrap(),
                k != 0
            );
            // e1 is its own manager; e2's manager is e1, e3's is e2.
            assert_eq!(eval_condition(&neq, &scopes, &catalog, &i).unwrap(), k != 0);
        }
    }

    #[test]
    fn empty_value_set_satisfies_noteq_vacuously() {
        let (es, catalog) = employee_catalog();
        let (mut i, _) = section7_instance(&es);
        // A fresh employee with no salary edge: `Salary <> Salary` holds
        // (set disjointness), while `Salary = Salary` fails.
        let emp = catalog.lookup("Employee").unwrap();
        let loner = receivers_objectbase::Oid::new(es.employee, 77);
        i.add_object(loner);
        let scopes = vec![Binding {
            alias: "t".to_owned(),
            table: emp,
            tuple: loner,
        }];
        let parse_cond = |text: &str| match parse(text).unwrap() {
            crate::ast::SqlStatement::Delete { condition, .. } => condition,
            _ => unreachable!(),
        };
        let neq = parse_cond("delete from Employee where Salary <> Salary");
        let eq = parse_cond("delete from Employee where Salary = Salary");
        assert!(eval_condition(&neq, &scopes, &catalog, &i).unwrap());
        assert!(!eval_condition(&eq, &scopes, &catalog, &i).unwrap());
    }

    #[test]
    fn evaluates_correlated_exists() {
        let (es, catalog) = employee_catalog();
        let (i, data) = section7_instance(&es);
        let emp = catalog.lookup("Employee").unwrap();
        let cond = Condition::Exists(Box::new(
            match parse(
                "for each t in Employee do if exists (select * from Employee E1 \
                 where E1.EmpId = Manager and E1.Salary in table Fire) \
                 delete t from Employee",
            )
            .unwrap()
            {
                crate::ast::SqlStatement::ForEach {
                    body:
                        crate::ast::CursorBody::DeleteIf {
                            condition: Some(Condition::Exists(s)),
                            ..
                        },
                    ..
                } => *s,
                _ => unreachable!(),
            },
        ));
        // e2's manager is e1, whose salary is in Fire → condition true.
        let scopes = vec![Binding {
            alias: "t".to_owned(),
            table: emp,
            tuple: data.employees[1],
        }];
        assert!(eval_condition(&cond, &scopes, &catalog, &i).unwrap());
        // e1's manager is e1 itself? In the scenario, e1 is its own
        // manager; its salary is in Fire → also true. e3's manager is e2
        // (salary not in Fire) → false.
        let scopes_e3 = vec![Binding {
            alias: "t".to_owned(),
            table: emp,
            tuple: data.employees[2],
        }];
        assert!(!eval_condition(&cond, &scopes_e3, &catalog, &i).unwrap());
    }

    #[test]
    fn evaluates_newsal_select() {
        let (es, catalog) = employee_catalog();
        let (i, data) = section7_instance(&es);
        let emp = catalog.lookup("Employee").unwrap();
        let select =
            match parse("update Employee set Salary = (select New from NewSal where Old = Salary)")
                .unwrap()
            {
                crate::ast::SqlStatement::Update { select, .. } => select,
                _ => unreachable!(),
            };
        // e1's salary a100 maps to a150 in NewSal.
        let scopes = vec![Binding {
            alias: "t".to_owned(),
            table: emp,
            tuple: data.employees[0],
        }];
        let vals = eval_select(&select, &scopes, &catalog, &i).unwrap();
        assert_eq!(vals, vec![data.amounts[2]]); // a150
    }
}
