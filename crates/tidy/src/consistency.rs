//! The cross-artifact rule family: checks that span source, goldens, and CI.
//!
//! Dynamic tests catch a drifted artifact one CI matrix job too late; these
//! rules catch it at tidy time by parsing the artifacts themselves:
//!
//! * `sweep-coverage` — the scenario names constructed in
//!   `ScenarioSpec::sweep_matrix()`, the golden files under
//!   `.github/golden/sweep/`, and the CI sweep job's matrix list must agree
//!   exactly, in all directions (subsumes the old pure-shell
//!   `sweep-coverage` CI job).
//! * `figure-golden` — every figure name returned by a `fn name()` in
//!   `crates/analysis/src` must appear as `record <name>.…` lines in every
//!   sweep golden, so a figure silently dropped from the suite (or renamed
//!   without re-blessing) fails statically. Conditionally registered
//!   figures carry an inline waiver at their `fn name()`.
//! * `detector-golden` — the detector names returned by `fn name()` in
//!   `crates/diagnose/src` and the `detector <name> …` outcome lines in
//!   the blessed diagnosis golden
//!   (`.github/golden/diagnose_tiny.golden`) must agree in both
//!   directions: a detector added without re-blessing fails, and so does
//!   a golden line for a detector that no longer exists. (The report
//!   prints one outcome line per registered detector even when nothing
//!   fired, which is what makes the golden a complete census.)
//! * `manifest-version` — the `MANIFEST_MAGIC` constant in
//!   `crates/trace/src/corpus.rs` and every `` `JIGC N` `` mention in that
//!   file's module docs must agree, so a format bump cannot leave the docs
//!   describing the previous version.
//!
//! A tree that lacks the artifacts entirely (e.g. a rule-test fixture tree)
//! skips the family; a tree that has one side of a pairing but not the
//! other fails it.

use crate::engine::SourceFile;
use crate::lexer::{skip_balanced, TokKind};
use crate::rules::Violation;
use std::collections::BTreeSet;
use std::path::Path;

/// Runs every cross-artifact check. `files` is the already-lexed tree.
pub fn check(root: &Path, files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    sweep_coverage(root, files, &mut out);
    figure_golden(root, files, &mut out);
    detector_golden(root, files, &mut out);
    manifest_version(files, &mut out);
    out
}

fn find<'a>(files: &'a [SourceFile], rel: &str) -> Option<&'a SourceFile> {
    files.iter().find(|f| f.rel == rel)
}

fn violation(file: &str, line: u32, rule: &'static str, message: String) -> Violation {
    Violation {
        file: file.into(),
        line,
        rule,
        message,
    }
}

/// Scenario names from `ScenarioSpec::sweep_matrix()`: the ctor idents the
/// matrix vec names (`Self::roaming()` …), resolved to the string literal
/// each ctor passes to `Self::plain("…", …)`.
fn matrix_names(spec: &SourceFile, out: &mut Vec<Violation>) -> BTreeSet<String> {
    let toks = &spec.stripped;
    let mut names = BTreeSet::new();

    // Index fn bodies: name -> (start, end) token range.
    let mut bodies: Vec<(String, usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].text == "fn" {
            if let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                let mut j = i + 2;
                while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| t.text == "{") {
                    let end = skip_balanced(toks, j, "{", "}");
                    bodies.push((name_tok.text.clone(), j, end));
                    i = j + 1; // descend into the body: ctors contain no nested fns
                    continue;
                }
            }
        }
        i += 1;
    }

    let Some(&(_, mstart, mend)) = bodies.iter().find(|(n, _, _)| n == "sweep_matrix") else {
        out.push(violation(
            &spec.rel,
            1,
            "sweep-coverage",
            "no `fn sweep_matrix` found in spec.rs".into(),
        ));
        return names;
    };

    // Ctors the matrix references: `Self :: ident ( )`.
    let body = &toks[mstart..mend];
    let mut ctors: Vec<(String, u32)> = Vec::new();
    for (k, t) in body.iter().enumerate() {
        if t.text == "Self"
            && body.get(k + 1).is_some_and(|t| t.text == ":")
            && body.get(k + 2).is_some_and(|t| t.text == ":")
            && body.get(k + 3).is_some_and(|t| t.kind == TokKind::Ident)
            && body.get(k + 4).is_some_and(|t| t.text == "(")
        {
            ctors.push((body[k + 3].text.clone(), t.line));
        }
    }

    // Resolve each ctor to the name literal it passes to `plain("…")`.
    for (ctor, line) in ctors {
        let Some(&(_, cstart, cend)) = bodies.iter().find(|(n, _, _)| *n == ctor) else {
            out.push(violation(
                &spec.rel,
                line,
                "sweep-coverage",
                format!("sweep_matrix names `Self::{ctor}()` but no such fn exists"),
            ));
            continue;
        };
        let ctor_body = &toks[cstart..cend];
        let lit = ctor_body.iter().enumerate().find_map(|(k, t)| {
            (t.text == "plain" && ctor_body.get(k + 1).is_some_and(|n| n.text == "("))
                .then(|| ctor_body.get(k + 2))
                .flatten()
                .filter(|l| l.kind == TokKind::Str)
        });
        match lit {
            Some(l) => {
                names.insert(l.text.clone());
            }
            None => out.push(violation(
                &spec.rel,
                line,
                "sweep-coverage",
                format!("ctor `{ctor}` passes no string literal to `Self::plain(…)`"),
            )),
        }
    }
    names
}

/// The `scenario:` list of the CI sweep job.
fn ci_matrix_names(ci_text: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let mut lines = ci_text.lines().peekable();
    while let Some(line) = lines.next() {
        if line.trim_end().ends_with("scenario:") {
            let indent = line.len() - line.trim_start().len();
            while let Some(next) = lines.peek() {
                let trimmed = next.trim_start();
                let next_indent = next.len() - trimmed.len();
                if let Some(item) = trimmed.strip_prefix("- ") {
                    if next_indent > indent {
                        names.insert(item.trim().to_string());
                        lines.next();
                        continue;
                    }
                }
                break;
            }
        }
    }
    names
}

fn sweep_coverage(root: &Path, files: &[SourceFile], out: &mut Vec<Violation>) {
    let Some(spec) = find(files, "crates/sim/src/spec.rs") else {
        return; // not a jigsaw tree (fixture roots): family does not apply
    };
    let spec_names = matrix_names(spec, out);

    let golden_dir = root.join(".github/golden/sweep");
    let mut golden_names = BTreeSet::new();
    match std::fs::read_dir(&golden_dir) {
        Ok(entries) => {
            for e in entries.flatten() {
                let name = e.file_name().to_string_lossy().into_owned();
                if let Some(stem) = name.strip_suffix(".golden") {
                    golden_names.insert(stem.to_string());
                }
            }
        }
        Err(_) => out.push(violation(
            ".github/golden/sweep",
            1,
            "sweep-coverage",
            "golden sweep directory missing while spec.rs defines a matrix".into(),
        )),
    }

    let ci_rel = ".github/workflows/ci.yml";
    let ci_names = match std::fs::read_to_string(root.join(ci_rel)) {
        Ok(text) => ci_matrix_names(&text),
        Err(_) => {
            out.push(violation(
                ci_rel,
                1,
                "sweep-coverage",
                "ci.yml missing while spec.rs defines a sweep matrix".into(),
            ));
            BTreeSet::new()
        }
    };

    let sides: [(&str, &BTreeSet<String>); 3] = [
        ("sweep_matrix()", &spec_names),
        (".github/golden/sweep", &golden_names),
        ("the ci.yml sweep matrix", &ci_names),
    ];
    for (a_name, a) in &sides {
        for (b_name, b) in &sides {
            if a_name == b_name {
                continue;
            }
            for missing in a.difference(b) {
                out.push(violation(
                    &spec.rel,
                    1,
                    "sweep-coverage",
                    format!("scenario `{missing}` is in {a_name} but not in {b_name}"),
                ));
            }
        }
    }
}

fn figure_golden(root: &Path, files: &[SourceFile], out: &mut Vec<Violation>) {
    let analysis: Vec<&SourceFile> = files
        .iter()
        .filter(|f| f.rel.starts_with("crates/analysis/src/"))
        .collect();
    if analysis.is_empty() {
        return;
    }

    // Figure names: the string literal a `Figure::name` body returns.
    let mut names: Vec<(String, String, u32)> = Vec::new(); // (name, file, line)
    for f in &analysis {
        let toks = &f.stripped;
        for (i, t) in toks.iter().enumerate() {
            if t.kind == TokKind::Ident
                && t.text == "fn"
                && toks.get(i + 1).is_some_and(|n| n.text == "name")
            {
                // The literal inside the (tiny) body: first Str within the
                // next dozen tokens.
                if let Some(lit) = toks[i + 2..toks.len().min(i + 14)]
                    .iter()
                    .find(|t| t.kind == TokKind::Str)
                {
                    names.push((lit.text.clone(), f.rel.clone(), toks[i + 1].line));
                }
            }
        }
    }
    names.sort();
    names.dedup_by(|a, b| a.0 == b.0);

    let golden_dir = root.join(".github/golden/sweep");
    let Ok(entries) = std::fs::read_dir(&golden_dir) else {
        return; // sweep-coverage already reports the missing directory
    };
    let mut goldens: Vec<(String, String)> = Vec::new();
    for e in entries.flatten() {
        let fname = e.file_name().to_string_lossy().into_owned();
        if fname.ends_with(".golden") {
            if let Ok(text) = std::fs::read_to_string(e.path()) {
                goldens.push((fname, text));
            }
        }
    }
    goldens.sort();

    for (name, file, line) in &names {
        let prefix = format!("record {name}.");
        for (gname, text) in &goldens {
            if !text.lines().any(|l| l.starts_with(&prefix)) {
                out.push(violation(
                    file,
                    *line,
                    "figure-golden",
                    format!(
                        "figure `{name}` has no `record {name}.…` line in {gname}; \
                         if it is registered in Suite::paper, re-bless the goldens — \
                         if it is conditional, waive at its `fn name()`"
                    ),
                ));
            }
        }
    }
}

/// The relative path of the blessed diagnosis golden the `detector-golden`
/// rule cross-checks (CI's diagnose job compares and blesses it).
const DIAGNOSE_GOLDEN: &str = ".github/golden/diagnose_tiny.golden";

fn detector_golden(root: &Path, files: &[SourceFile], out: &mut Vec<Violation>) {
    let diagnose: Vec<&SourceFile> = files
        .iter()
        .filter(|f| f.rel.starts_with("crates/diagnose/src/"))
        .collect();
    if diagnose.is_empty() {
        return; // not a jigsaw tree (fixture roots): family does not apply
    }

    // Detector names: the string literal a `fn name(…)` body returns,
    // exactly as figure-golden reads figure names.
    let mut names: Vec<(String, String, u32)> = Vec::new(); // (name, file, line)
    for f in &diagnose {
        let toks = &f.stripped;
        for (i, t) in toks.iter().enumerate() {
            if t.kind == TokKind::Ident
                && t.text == "fn"
                && toks.get(i + 1).is_some_and(|n| n.text == "name")
            {
                if let Some(lit) = toks[i + 2..toks.len().min(i + 14)]
                    .iter()
                    .find(|t| t.kind == TokKind::Str)
                {
                    names.push((lit.text.clone(), f.rel.clone(), toks[i + 1].line));
                }
            }
        }
    }
    names.sort();
    names.dedup_by(|a, b| a.0 == b.0);

    let Ok(text) = std::fs::read_to_string(root.join(DIAGNOSE_GOLDEN)) else {
        if !names.is_empty() {
            out.push(violation(
                DIAGNOSE_GOLDEN,
                1,
                "detector-golden",
                format!(
                    "crates/diagnose defines {} detector(s) but no diagnosis golden exists; \
                     bless one with `repro diagnose --corpus … --golden {DIAGNOSE_GOLDEN} --bless`",
                    names.len()
                ),
            ));
        }
        return;
    };
    // Outcome lines: `detector <name> triggered …` — present for every
    // registered detector even when nothing fired.
    let golden_names: BTreeSet<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("detector "))
        .filter_map(|rest| rest.split_whitespace().next())
        .collect();

    // Source → golden: a detector not in the golden means the catalogue
    // grew (or a name changed) without re-blessing. Attributed to the
    // source file, so an intentionally unregistered detector can carry a
    // waiver at its `fn name()`.
    for (name, file, line) in &names {
        if !golden_names.contains(name.as_str()) {
            out.push(violation(
                file,
                *line,
                "detector-golden",
                format!(
                    "detector `{name}` has no `detector {name} …` outcome line in \
                     {DIAGNOSE_GOLDEN}; if it is in `standard_detectors()`, re-bless the \
                     golden — if it is intentionally unregistered, waive at its `fn name()`"
                ),
            ));
        }
    }
    // Golden → source: a stale outcome line names a detector that no
    // longer exists. Attributed to the artifact (never waiver-eligible).
    let source_names: BTreeSet<&str> = names.iter().map(|(n, _, _)| n.as_str()).collect();
    for (lineno, l) in text.lines().enumerate() {
        if let Some(name) = l
            .strip_prefix("detector ")
            .and_then(|rest| rest.split_whitespace().next())
        {
            if !source_names.contains(name) {
                out.push(violation(
                    DIAGNOSE_GOLDEN,
                    lineno as u32 + 1,
                    "detector-golden",
                    format!(
                        "golden names detector `{name}` but no `fn name()` in \
                         crates/diagnose/src returns it; re-bless the golden"
                    ),
                ));
            }
        }
    }
}

fn manifest_version(files: &[SourceFile], out: &mut Vec<Violation>) {
    let Some(corpus) = find(files, "crates/trace/src/corpus.rs") else {
        return;
    };
    // The constant: `MANIFEST_MAGIC` … `=` … Str.
    let toks = &corpus.stripped;
    let magic = toks.iter().enumerate().find_map(|(i, t)| {
        (t.text == "MANIFEST_MAGIC")
            .then(|| {
                toks[i + 1..toks.len().min(i + 8)]
                    .iter()
                    .find(|t| t.kind == TokKind::Str)
            })
            .flatten()
    });
    let Some(magic) = magic else {
        out.push(violation(
            &corpus.rel,
            1,
            "manifest-version",
            "no `MANIFEST_MAGIC` string constant found in corpus.rs".into(),
        ));
        return;
    };

    // Doc mentions: every backtick-quoted `JIGC …` in comments must equal
    // the constant.
    let mut mentions = 0usize;
    for c in &corpus.lexed.comments {
        for (pos, _) in c.text.match_indices("`JIGC ") {
            let tail = &c.text[pos + 1..];
            let Some(end) = tail.find('`') else { continue };
            mentions += 1;
            let quoted = &tail[..end];
            if quoted != magic.text {
                out.push(violation(
                    &corpus.rel,
                    c.line,
                    "manifest-version",
                    format!(
                        "docs say `{quoted}` but MANIFEST_MAGIC is `{}`; \
                         update the module docs with the format bump",
                        magic.text
                    ),
                ));
            }
        }
    }
    if mentions == 0 {
        out.push(violation(
            &corpus.rel,
            magic.line,
            "manifest-version",
            "corpus.rs docs never mention the `JIGC …` manifest magic; document the \
             on-disk format version where readers will look for it"
                .into(),
        ));
    }
}
