//! The pass manager: runs registered analyses over a parsed program,
//! merges their diagnostics, refines, and sorts.
//!
//! **Refinement.** The coloring pass is a sound abstraction and therefore
//! over-warns: a cursor update whose subquery reads the updated column is
//! never simply colored, even when the exact Theorem 5.12 procedure
//! certifies it (scenario (B)). When both run, an `R0102` warning on a
//! statement the decision pass certified (`R0103`, same span) is
//! suppressed — the finer analysis wins.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use receivers_obs as obs;
use receivers_sql::catalog::Catalog;
use receivers_sql::{parse_program, SpannedStatement};

use crate::diag::{codes, Diagnostic};
use crate::render;

obs::counter!(C_PASSES_RUN, "lint.passes_run");
obs::counter!(C_DIAGNOSTICS, "lint.diagnostics");
obs::counter!(C_PASS_PANICS, "lint.pass_panics");

/// Shared context handed to program passes.
pub struct LintContext<'a> {
    /// The program source text (for spans and suggestions).
    pub source: &'a str,
    /// The catalog the program runs against.
    pub catalog: &'a Catalog,
}

/// An analysis over a parsed SQL program.
pub trait ProgramPass {
    /// Short pass name (for debugging and registration).
    fn name(&self) -> &'static str;
    /// Run, appending diagnostics to `out`.
    fn run(&self, program: &[SpannedStatement], cx: &LintContext<'_>, out: &mut Vec<Diagnostic>);
}

/// Per-pass execution statistics, in registration order.
#[derive(Debug, Clone)]
pub struct PassStat {
    /// The pass name.
    pub name: &'static str,
    /// Wall-clock time the pass took.
    pub micros: u128,
    /// Diagnostics the pass contributed (0 if it panicked).
    pub diagnostics: usize,
    /// Whether the pass panicked. Its partial findings were discarded
    /// and replaced by a single `R0900` diagnostic.
    pub panicked: bool,
}

/// The result of a lint run.
#[derive(Debug)]
pub struct LintReport {
    /// The refined, sorted diagnostics.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-pass timing and diagnostic counts, in registration order.
    pub pass_stats: Vec<PassStat>,
    source: String,
}

impl LintReport {
    /// Any error-severity diagnostics? (Nonzero exit for CLIs.)
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.is_error())
    }

    /// `(errors, warnings, notes, helps)`.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        render::count(&self.diagnostics)
    }

    /// Every diagnostic with the given stable code.
    pub fn with_code(&self, code: &str) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.code.code == code)
            .collect()
    }

    /// Human-readable rendering (rustc style).
    pub fn render_human(&self) -> String {
        render::render_report(&self.diagnostics, &self.source)
    }

    /// Stable JSON rendering for CI baselines.
    pub fn render_json(&self) -> String {
        render::render_json(&self.diagnostics, &self.source)
    }

    /// Human-readable per-pass statistics table (for `--stats`).
    pub fn render_stats(&self) -> String {
        let mut out = String::from("pass statistics\n");
        let width = self
            .pass_stats
            .iter()
            .map(|s| s.name.len())
            .max()
            .unwrap_or(4)
            .max(4);
        for s in &self.pass_stats {
            let flag = if s.panicked { "  PANICKED" } else { "" };
            out.push_str(&format!(
                "  {:<width$}  {:>8} µs  {:>3} diagnostics{}\n",
                s.name, s.micros, s.diagnostics, flag
            ));
        }
        let total: u128 = self.pass_stats.iter().map(|s| s.micros).sum();
        out.push_str(&format!(
            "  {:<width$}  {:>8} µs  {:>3} diagnostics\n",
            "total",
            total,
            self.diagnostics.len()
        ));
        out
    }
}

/// The pass manager.
#[derive(Default)]
pub struct PassManager {
    program_passes: Vec<Box<dyn ProgramPass>>,
}

impl PassManager {
    /// A manager with no passes registered.
    pub fn empty() -> Self {
        Self::default()
    }

    /// The standard pipeline: every built-in pass.
    pub fn with_default_passes() -> Self {
        let mut pm = Self::empty();
        pm.register_program_pass(Box::new(crate::passes::NameResolutionPass));
        pm.register_program_pass(Box::new(crate::passes::ColoringPass));
        pm.register_program_pass(Box::new(crate::passes::DecidePass));
        pm.register_program_pass(Box::new(crate::passes::SatPass));
        pm.register_program_pass(Box::new(crate::passes::ShardabilityPass));
        pm.register_program_pass(Box::new(crate::passes::DeadAssignmentPass));
        pm.register_program_pass(Box::new(crate::passes::UnusedTablePass));
        pm.register_program_pass(Box::new(crate::passes::CatalogCoveragePass));
        pm
    }

    /// Register a program pass (runs in registration order).
    pub fn register_program_pass(&mut self, pass: Box<dyn ProgramPass>) -> &mut Self {
        self.program_passes.push(pass);
        self
    }

    /// Lint a source program: parse, run every program pass, refine.
    /// A parse failure yields a single `R0010` report.
    pub fn lint_source(&self, source: &str, catalog: &Catalog) -> LintReport {
        match parse_program(source) {
            Ok(program) => self.lint_program(&program, source, catalog),
            Err(e) => {
                let mut d = Diagnostic::new(codes::SYNTAX_ERROR, e.to_string());
                if let Some(span) = e.span() {
                    d = d.with_span(span);
                }
                LintReport {
                    diagnostics: vec![d],
                    pass_stats: Vec::new(),
                    source: source.to_owned(),
                }
            }
        }
    }

    /// Lint an already-parsed program.
    pub fn lint_program(
        &self,
        program: &[SpannedStatement],
        source: &str,
        catalog: &Catalog,
    ) -> LintReport {
        let _span = obs::span("lint.program");
        let cx = LintContext { source, catalog };
        let mut diags = Vec::new();
        let mut stats = Vec::new();
        for pass in &self.program_passes {
            run_guarded(pass.name(), &mut stats, &mut diags, |out| {
                pass.run(program, &cx, out)
            });
        }
        finish(diags, stats, source.to_owned())
    }
}

/// Run one pass into a fresh buffer, timing it and catching panics. A
/// panicking pass contributes a single `R0900` diagnostic instead of its
/// (possibly half-written) findings; other passes are unaffected, so
/// `--json` output stays well-formed no matter what a pass does.
fn run_guarded(
    name: &'static str,
    stats: &mut Vec<PassStat>,
    diags: &mut Vec<Diagnostic>,
    run: impl FnOnce(&mut Vec<Diagnostic>),
) {
    C_PASSES_RUN.incr();
    let start = Instant::now();
    let mut local = Vec::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| run(&mut local)));
    let micros = start.elapsed().as_micros();
    match outcome {
        Ok(()) => {
            stats.push(PassStat {
                name,
                micros,
                diagnostics: local.len(),
                panicked: false,
            });
            diags.append(&mut local);
        }
        Err(payload) => {
            C_PASS_PANICS.incr();
            stats.push(PassStat {
                name,
                micros,
                diagnostics: 0,
                panicked: true,
            });
            diags.push(
                Diagnostic::new(
                    codes::INTERNAL_ERROR,
                    format!("lint pass `{name}` panicked: {}", panic_message(&*payload)),
                )
                .note("the pass's partial findings were discarded; other passes ran normally"),
            );
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

fn finish(mut diags: Vec<Diagnostic>, pass_stats: Vec<PassStat>, source: String) -> LintReport {
    refine(&mut diags);
    // Stable order: by position, then by code (R0101 before R0301 on the
    // same statement), keeping pass order for exact ties.
    let key = |d: &Diagnostic| {
        (
            d.span
                .map_or((usize::MAX, usize::MAX), |s| (s.start, s.end)),
            d.code.code,
        )
    };
    diags.sort_by(|a, b| key(a).cmp(&key(b)));
    C_DIAGNOSTICS.add(diags.len() as u64);
    LintReport {
        diagnostics: diags,
        pass_stats,
        source,
    }
}

/// Suppress coloring-abstraction warnings on statements the exact
/// decision procedure certified.
fn refine(diags: &mut Vec<Diagnostic>) {
    let certified: Vec<Option<receivers_sql::Span>> = diags
        .iter()
        .filter(|d| d.code == codes::CERTIFIED_KEY_ORDER)
        .map(|d| d.span)
        .collect();
    diags.retain(|d| !(d.code == codes::POSSIBLY_ORDER_DEPENDENT && certified.contains(&d.span)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use receivers_sql::catalog::employee_catalog;
    use receivers_sql::scenarios::{CURSOR_DELETE_MANAGER, CURSOR_DELETE_SIMPLE, CURSOR_UPDATE_B};

    #[test]
    fn sorted_spans_none_last() {
        let (_es, catalog) = employee_catalog();
        let pm = PassManager::with_default_passes();
        let src = format!("{CURSOR_DELETE_SIMPLE};\n{CURSOR_DELETE_MANAGER}");
        let report = pm.lint_source(&src, &catalog);
        let mut last_start = 0usize;
        let mut seen_none = false;
        for d in &report.diagnostics {
            match d.span {
                Some(s) => {
                    assert!(!seen_none, "span-less diagnostics must sort last");
                    assert!(s.start >= last_start);
                    last_start = s.start;
                }
                None => seen_none = true,
            }
        }
    }

    #[test]
    fn certification_suppresses_the_coloring_warning() {
        let (_es, catalog) = employee_catalog();
        let pm = PassManager::with_default_passes();
        let report = pm.lint_source(CURSOR_UPDATE_B, &catalog);
        assert!(
            !report.with_code("R0103").is_empty(),
            "scenario (B) is certified by Theorem 5.12"
        );
        assert!(
            report.with_code("R0102").is_empty(),
            "the coarser coloring warning must be suppressed: {:#?}",
            report.diagnostics
        );
        assert!(!report.with_code("R0301").is_empty(), "rewrite offered");
        assert!(!report.has_errors());
    }

    /// A pass that writes a partial finding and then panics: the partial
    /// finding must be discarded, the run must survive, and `--json`
    /// output must stay valid JSON with an `R0900` in it.
    struct PanicPass;
    impl ProgramPass for PanicPass {
        fn name(&self) -> &'static str {
            "panic-fixture"
        }
        fn run(
            &self,
            _program: &[SpannedStatement],
            _cx: &LintContext<'_>,
            out: &mut Vec<Diagnostic>,
        ) {
            out.push(Diagnostic::new(codes::UNUSED_TABLE, "half-written finding"));
            panic!("fixture pass exploded");
        }
    }

    #[test]
    fn panicking_pass_degrades_to_r0900_and_json_stays_valid() {
        let (_es, catalog) = employee_catalog();
        let mut pm = PassManager::with_default_passes();
        pm.register_program_pass(Box::new(PanicPass));
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep the fixture panic quiet
        let report = pm.lint_source(CURSOR_UPDATE_B, &catalog);
        std::panic::set_hook(prev);

        // The panicking pass's partial finding is gone; R0900 replaces it.
        assert!(
            !report
                .diagnostics
                .iter()
                .any(|d| d.message == "half-written finding"),
            "partial finding kept"
        );
        let internal = report.with_code("R0900");
        assert_eq!(internal.len(), 1);
        assert!(internal[0].message.contains("panic-fixture"));
        assert!(
            internal[0].message.contains("fixture pass exploded"),
            "{}",
            internal[0].message
        );
        assert!(report.has_errors());

        // The other passes still ran and reported normally.
        assert!(!report.with_code("R0103").is_empty());
        assert!(!report.with_code("R0301").is_empty());

        // Stats mark exactly the fixture pass as panicked.
        let panicked: Vec<_> = report
            .pass_stats
            .iter()
            .filter(|s| s.panicked)
            .map(|s| s.name)
            .collect();
        assert_eq!(panicked, ["panic-fixture"]);
        assert!(report.render_stats().contains("PANICKED"));

        // The JSON rendering still parses and carries the R0900.
        let json = report.render_json();
        let v = receivers_obs::json::Value::parse(&json).expect("valid JSON");
        assert!(json.contains("R0900"), "{v:?}");
    }

    #[test]
    fn parse_failures_become_r0010() {
        let (_es, catalog) = employee_catalog();
        let pm = PassManager::with_default_passes();
        let report = pm.lint_source("delete frm Employee", &catalog);
        assert!(report.has_errors());
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].code, codes::SYNTAX_ERROR);
        assert!(report.diagnostics[0].span.is_some());
    }
}
