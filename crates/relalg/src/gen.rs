//! Random well-typed expression generation, used by the cross-check
//! property tests (compiled-CQ evaluation vs direct evaluation, rewrite
//! soundness) and by the benchmark harness.
//!
//! The generator builds candidate operators bottom-up and *validates each
//! candidate with the type checker*, falling back to the operand when a
//! randomly chosen operator does not type-check — so every produced
//! expression is well-typed by construction.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use receivers_objectbase::Schema;

use crate::expr::{Expr, RelName};
use crate::typecheck::{infer_schema, ParamSchemas};

/// Parameters for [`random_expr`].
#[derive(Debug, Clone, Copy)]
pub struct ExprParams {
    /// Maximum AST depth.
    pub depth: usize,
    /// Allow the difference operator (non-positive expressions).
    pub allow_diff: bool,
}

impl Default for ExprParams {
    fn default() -> Self {
        Self {
            depth: 4,
            allow_diff: false,
        }
    }
}

/// Generate a random well-typed expression over `schema`'s base relations
/// and the declared parameter relations.
pub fn random_expr(schema: &Schema, params: &ParamSchemas, p: ExprParams, seed: u64) -> Expr {
    let mut rng = StdRng::seed_from_u64(seed);
    go(schema, params, p.depth, p.allow_diff, &mut rng)
}

fn leaf(schema: &Schema, params: &ParamSchemas, rng: &mut StdRng) -> Expr {
    let n_classes = schema.class_count();
    let n_props = schema.property_count();
    let n_params = params.len();
    let total = n_classes + n_props + n_params;
    let pick = rng.random_range(0..total);
    if pick < n_classes {
        Expr::Base(RelName::Class(receivers_objectbase::ClassId(pick as u32)))
    } else if pick < n_classes + n_props {
        Expr::Base(RelName::Prop(receivers_objectbase::PropId(
            (pick - n_classes) as u32,
        )))
    } else {
        let name = params
            .keys()
            .nth(pick - n_classes - n_props)
            .expect("in range");
        Expr::Param(name.clone())
    }
}

fn go(
    schema: &Schema,
    params: &ParamSchemas,
    depth: usize,
    allow_diff: bool,
    rng: &mut StdRng,
) -> Expr {
    if depth == 0 {
        return leaf(schema, params, rng);
    }
    let e = go(schema, params, depth - 1, allow_diff, rng);
    let scheme = infer_schema(&e, schema, params).expect("generated exprs are well-typed");
    let attrs: Vec<String> = scheme.attrs().cloned().collect();

    let candidate: Option<Expr> = match rng.random_range(0..8u32) {
        // Projection onto a random non-empty prefix-shuffle of attrs.
        0 if !attrs.is_empty() => {
            let keep = rng.random_range(1..=attrs.len());
            let mut chosen = attrs.clone();
            for i in (1..chosen.len()).rev() {
                chosen.swap(i, rng.random_range(0..=i));
            }
            chosen.truncate(keep);
            Some(e.clone().project(chosen))
        }
        // Rename one attribute to a fresh name.
        1 if !attrs.is_empty() => {
            let a = attrs[rng.random_range(0..attrs.len())].clone();
            Some(
                e.clone()
                    .rename(a, format!("g{}", rng.random_range(0..1000))),
            )
        }
        // Equality / non-equality selection between same-domain attrs.
        2 | 3 => {
            let mut pairs = Vec::new();
            for (i, (a, da)) in scheme.columns().iter().enumerate() {
                for (b, db) in scheme.columns().iter().skip(i + 1) {
                    if da == db {
                        pairs.push((a.clone(), b.clone()));
                    }
                }
            }
            if pairs.is_empty() {
                None
            } else {
                let (a, b) = pairs[rng.random_range(0..pairs.len())].clone();
                Some(if rng.random_bool(0.5) {
                    e.clone().select_eq(a, b)
                } else {
                    e.clone().select_ne(a, b)
                })
            }
        }
        // Union with a same-scheme variant of e.
        4 => {
            let variant = if attrs.len() >= 2 {
                let (a, b) = (attrs[0].clone(), attrs[1].clone());
                let da = scheme.columns()[0].1;
                let db = scheme.columns()[1].1;
                if da == db {
                    e.clone().select_ne(a, b)
                } else {
                    e.clone()
                }
            } else {
                e.clone()
            };
            Some(e.clone().union(variant))
        }
        // Product with a fresh leaf, auto-renamed apart.
        5 => {
            let mut other = leaf(schema, params, rng);
            // Rename the other side's attributes to fresh names to avoid
            // clashes.
            if let Ok(os) = infer_schema(&other, schema, params) {
                for a in os.attrs() {
                    other = other.rename(a.clone(), format!("h{}_{a}", rng.random_range(0..1000)));
                }
                Some(e.clone().product(other))
            } else {
                None
            }
        }
        // Natural join with another sub-expression.
        6 => {
            let other = go(schema, params, depth.saturating_sub(2), allow_diff, rng);
            Some(e.clone().nat_join(other))
        }
        // Difference with a same-scheme variant (full algebra only).
        7 if allow_diff => Some(e.clone().diff(e.clone())),
        _ => None,
    };

    match candidate {
        Some(c) if infer_schema(&c, schema, params).is_ok() => c,
        _ => e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::positive::is_positive;
    use receivers_objectbase::examples::beer_schema;

    #[test]
    fn generated_expressions_are_well_typed() {
        let s = beer_schema();
        let params = ParamSchemas::new();
        for seed in 0..200u64 {
            let e = random_expr(
                &s.schema,
                &params,
                ExprParams {
                    depth: 5,
                    allow_diff: false,
                },
                seed,
            );
            assert!(
                infer_schema(&e, &s.schema, &params).is_ok(),
                "seed {seed}: {e}"
            );
            assert!(is_positive(&e), "seed {seed}");
        }
    }

    #[test]
    fn diff_only_appears_when_allowed() {
        let s = beer_schema();
        let params = ParamSchemas::new();
        let mut saw_diff = false;
        for seed in 0..200u64 {
            let e = random_expr(
                &s.schema,
                &params,
                ExprParams {
                    depth: 5,
                    allow_diff: true,
                },
                seed,
            );
            assert!(infer_schema(&e, &s.schema, &params).is_ok());
            saw_diff |= !is_positive(&e);
        }
        assert!(
            saw_diff,
            "difference should appear in some generated expression"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let s = beer_schema();
        let params = ParamSchemas::new();
        let a = random_expr(&s.schema, &params, ExprParams::default(), 11);
        let b = random_expr(&s.schema, &params, ExprParams::default(), 11);
        assert_eq!(a, b);
    }
}
