//! Extended, `--explain`-style documentation for every stable lint
//! code: a paragraph on what the code means and why it fires, plus a
//! minimal example program that triggers it. The registry test below
//! keeps this table in lockstep with [`crate::diag::codes::ALL`].

/// One code's extended documentation.
#[derive(Debug, Clone, Copy)]
pub struct Explanation {
    /// The stable code (`R0102`).
    pub code: &'static str,
    /// A paragraph explaining the diagnostic and the theory behind it.
    pub text: &'static str,
    /// A minimal program (or situation) that triggers it.
    pub example: &'static str,
}

/// Look up the extended documentation for a code (case-insensitive).
pub fn explain(code: &str) -> Option<&'static Explanation> {
    ALL.iter().find(|e| e.code.eq_ignore_ascii_case(code))
}

/// Render one explanation the way the CLI prints it.
pub fn render(e: &Explanation) -> String {
    format!("{}\n\n{}\n\nexample:\n{}\n", e.code, e.text, e.example)
}

/// Every explanation, in the same order as the code registry.
pub const ALL: &[Explanation] = &[
    Explanation {
        code: "R0001",
        text: "The value expression of this cursor update uses set difference, so it is \
               not positive. The Theorem 5.12 decision procedure for key-order \
               independence only applies to positive algebraic methods; the linter can \
               neither certify nor refute order independence and flags the statement so \
               the author knows the analysis gap is in the program, not the tool.",
        example: "a cursor update whose subquery subtracts one table from another",
    },
    Explanation {
        code: "R0002",
        text: "A relational algebra expression or update statement is ill-typed: an \
               operator was applied to arguments whose schemas do not fit (for example, \
               a union of relations with different arities). Nothing downstream can be \
               analysed until the typing error is fixed.",
        example: "update Employee set Salary = (select * from NewSal)  -- two columns into one",
    },
    Explanation {
        code: "R0003",
        text: "The program references a table the catalog does not define. Every table \
               mentioned in FROM, IN TABLE, or as an update/delete target must be \
               declared in the catalog mapping tables to schema classes.",
        example: "delete from Employe where Salary in table Fire  -- typo: Employe",
    },
    Explanation {
        code: "R0004",
        text: "A column reference does not resolve: no table visible at that point in \
               the statement (the cursor row, the update target, or a FROM entry) \
               defines a column of that name.",
        example: "update Employee set Salry = (select New from NewSal)  -- typo: Salry",
    },
    Explanation {
        code: "R0005",
        text: "A qualified column reference `q.Col` uses a qualifier `q` that names no \
               visible table alias — neither the cursor variable nor any FROM entry.",
        example: "for each t in Employee do update t set Salary = (select x.New from NewSal)",
    },
    Explanation {
        code: "R0010",
        text: "The program does not lex or parse. The rest of the pipeline is skipped; \
               fix the syntax error first.",
        example: "delete frm Employee",
    },
    Explanation {
        code: "R0101",
        text: "Certified order independent by Theorem 4.23: the statement's derived \
               schema coloring is simple — no schema item is both read (blue) and \
               written (red) — so applying the update method to the receivers in any \
               order yields the same instance. This is a certificate, not a warning.",
        example: "for each t in Employee do if Salary in table Fire delete t from Employee",
    },
    Explanation {
        code: "R0102",
        text: "Possibly order dependent: the derived coloring is not simple (some item \
               is doubly colored), so Theorem 4.23 gives no guarantee. The coloring \
               analysis is a sound abstraction and over-warns; when the exact Theorem \
               5.12 procedure certifies the same statement (R0103), this warning is \
               suppressed by the pass manager's refinement step.",
        example: "a cursor update whose subquery reads the column it writes",
    },
    Explanation {
        code: "R0103",
        text: "Certified key-order independent by Theorem 5.12: the receiver set is a \
               key set and the before/after update expressions agree, so every \
               enumeration order of the receivers produces the same final instance. \
               Scenario (B) of the paper is the canonical example.",
        example: "for each t in Employee do update t set Salary = \
                  (select New from NewSal where Old = Salary)",
    },
    Explanation {
        code: "R0104",
        text: "Proved order dependent: the Theorem 5.12 decision procedure found a \
               property whose before/after update expressions differ, meaning an \
               earlier iteration's write changes a later iteration's read. Different \
               cursor orders produce different final instances — scenario (C) of the \
               paper. This is an error because the program's meaning is undefined.",
        example: "for each t in Employee do update t set Salary = (select New from \
                  Employee E1, NewSal where E1.EmpId = Manager and Old = E1.Salary)",
    },
    Explanation {
        code: "R0105",
        text: "A set-oriented statement is two-phase: the receiver set and every \
               replacement value are computed against the original instance before any \
               write happens, so it is order independent by construction. Informational.",
        example: "update Employee set Salary = (select New from NewSal where Old = Salary)",
    },
    Explanation {
        code: "R0201",
        text: "A dead assignment: a later statement overwrites the same column before \
               any statement reads it, so the values this statement writes are never \
               observable. This is the planner's netting rule, so the planner skips \
               exactly these statements. An unguarded update of a column is a full \
               overwrite; a guarded one kills this statement when the satisfiability \
               solver proves this statement's guard implies it (identical guards do) \
               and nothing in between writes what its guard reads (the proof is \
               attached as notes). Any delete in between keeps the statement live.",
        example: "update Employee set Salary = (select Old from NewSal);\n\
                  update Employee set Salary = (select New from NewSal)",
    },
    Explanation {
        code: "R0202",
        text: "A catalog table no statement references. Either the program is \
               incomplete or the catalog carries stale tables.",
        example: "a program that never mentions the catalog's Fire table",
    },
    Explanation {
        code: "R0301",
        text: "This cursor update can be replaced by an equivalent set-oriented \
               statement: it is certified key-order independent (R0103), and by \
               Theorem 6.5 the sequential application on a key set coincides with the \
               parallel (set-oriented) semantics. The suggestion attached to the \
               diagnostic is machine-applicable — splicing it over the statement's \
               span yields the improved program. This is the paper's \"code \
               improvement tool\".",
        example: "for each t in Employee do update t set Salary = \
                  (select New from NewSal where Old = Salary)",
    },
    Explanation {
        code: "R0401",
        text: "A schema property is not mapped to any table column, so no SQL \
               statement can read or write it. Informational: the catalog view of the \
               object base is partial.",
        example: "a catalog whose Employee table omits the Manager column",
    },
    Explanation {
        code: "R0402",
        text: "A schema class is not mapped by any table, so its objects are invisible \
               to the SQL layer. Informational.",
        example: "a catalog with no table over the Amount class",
    },
    Explanation {
        code: "R0501",
        text: "The statement's condition is unsatisfiable: the satisfiability solver \
               proved that no row of any instance passes it, so the guarded delete or \
               update never affects anything. The proof — which identity atoms force \
               which equalities, and which negative atom they contradict — is attached \
               as notes. The solver is conservative: it only fires when the \
               canonical-instance argument is a proof, never on a heuristic.",
        example: "delete from Employee where Salary in table Fire \
                  and Salary not in table Fire",
    },
    Explanation {
        code: "R0502",
        text: "A conjunct is subsumed: the rest of the condition already implies it, \
               so deleting the conjunct leaves the set of affected rows unchanged. \
               The implication is proved by a homomorphism between the canonical \
               instances of the two conditions (conjunctive-query containment), not \
               guessed from syntax.",
        example: "delete from Employee where Salary in table Fire \
                  and Salary in table Fire",
    },
    Explanation {
        code: "R0503",
        text: "This cursor update is certified for clean sharded execution: its compiled \
               algebraic method's read and write footprints either never overlap, or \
               every overlap is discharged by a satisfiability-solver proof that each \
               read of the conflicting column is pinned to the receiving row itself. \
               Receivers whose objects fall in one shard can therefore run on that \
               shard's worker loop in parallel with the other shards, bit-identically \
               to the sequential order. Advisory: it reports headroom, not a problem.",
        example: "for each t in Employee do update t set Salary = \
                  (select New from NewSal where Old = Salary)",
    },
    Explanation {
        code: "R0900",
        text: "A lint pass panicked. Its partial findings were discarded and replaced \
               by this diagnostic; other passes ran normally, so the rest of the \
               report is trustworthy. This is a linter bug — report it.",
        example: "n/a (internal failure)",
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::codes;

    #[test]
    fn every_registered_code_has_an_explanation_in_order() {
        let registered: Vec<_> = codes::ALL.iter().map(|c| c.code).collect();
        let explained: Vec<_> = ALL.iter().map(|e| e.code).collect();
        assert_eq!(
            registered, explained,
            "explain table out of sync with registry"
        );
        for e in ALL {
            assert!(!e.text.is_empty() && !e.example.is_empty(), "{}", e.code);
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert_eq!(explain("r0501").unwrap().code, "R0501");
        assert!(explain("R9999").is_none());
    }
}
