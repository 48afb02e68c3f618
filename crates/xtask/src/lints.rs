//! The repo-native lint rules — invariants clippy cannot express.
//!
//! Every rule reports `error[<rule>]: <path>:<line>: <message>` and can be
//! suppressed for one site with a justified `// xtask-allow: <rule> —
//! <why>` comment on the same line or the line above (see DESIGN.md §8).
//!
//! | rule | invariant |
//! |------|-----------|
//! | `safety-comment` | every `unsafe` site carries a `// SAFETY:` comment naming the invariant |
//! | `target-feature-gate` | `#[target_feature]` fns are private `unsafe fn`s inside `mmm-align/src/simd/` or `mmm-index/src/unpack.rs`, reachable only through the dispatch gate |
//! | `raw-ptr-arith` | raw-pointer arithmetic only in `simd/`, `unpack.rs` and `mmap.rs` |
//! | `scratch-variant` | every public kernel (`align_*`/`extend_*`/`fill_*`) in mmm-align and mmm-exec has a `*_with_scratch` variant |
//! | `stats-forwarding` | `BackendStats` literals in `AlignBackend` impl files must name every field or forward from a non-default base |
//! | `lock-order` | no file acquires two named mutexes in both orders (AB *and* BA) — a static deadlock smell the loom-lite lock-order detector confirms dynamically |
//! | `condvar-wait-loop` | every condvar wait (`.wait(g)` / `.wait_timeout(..)` / `wait_unpoisoned(..)`) sits inside a `while`/`loop` re-check, never an `if` |
//! | `index-simd-confined` | SIMD intrinsics (`core::arch`, `_mm*` tokens) inside mmm-index live only in `src/unpack.rs`, the audited decode module |
//!
//! What the compiler can express is left to it: that mapped index bytes
//! pass the checksum layer before anything reads them is a *type* —
//! `mmm_index`'s mapped-file constructor takes only the `VerifiedMap` the
//! checksum pass returns (DESIGN.md §15.2) — not a text match. And what
//! clippy can express is left to clippy, which resolves paths instead
//! of matching text: `std::mem::transmute` is a `disallowed-methods` entry
//! in `clippy.toml`, and the daemon's "no `print!`/`eprintln!`" is
//! `clippy::print_stdout`/`print_stderr`, denied on `manymap::serve`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

use crate::lex::{has_word, scan, LineView};

pub const RULES: [&str; 8] = [
    "safety-comment",
    "target-feature-gate",
    "raw-ptr-arith",
    "scratch-variant",
    "stats-forwarding",
    "lock-order",
    "condvar-wait-loop",
    "index-simd-confined",
];

/// One lint finding, printable as `error[rule]: path:line: message`.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: String,
    pub path: PathBuf,
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error[{}]: {}:{}: {}",
            self.rule,
            self.path.display(),
            self.line,
            self.message
        )
    }
}

/// Recursively collect `.rs` files under `dir` (skipping `target/`).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Everything the per-file rules need, computed in one pass.
struct FileCtx<'a> {
    rel: &'a Path,
    views: &'a [LineView],
    /// `allows[line]` = rules suppressed at that line (1-based).
    allows: BTreeMap<usize, BTreeSet<String>>,
    /// 1-based lines inside `#[cfg(test)]` / `#[test]` item bodies.
    test_lines: Vec<bool>,
    /// 1-based lines inside `unsafe { .. }` blocks or `unsafe fn` bodies.
    unsafe_lines: Vec<bool>,
}

/// Parse `xtask-allow: <rule> <justification>` suppressions. A suppression
/// with no justification is itself a violation — the comment must say *why*.
/// The directive must open the comment (after the `//` markers); a mention
/// of `xtask-allow:` mid-prose (like this one) is not a directive.
fn parse_allows(
    rel: &Path,
    views: &[LineView],
    out: &mut Vec<Violation>,
) -> BTreeMap<usize, BTreeSet<String>> {
    let mut allows: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for (idx, v) in views.iter().enumerate() {
        let line = idx + 1;
        let opener = v.comment.trim_start_matches(['/', '!', '*', ' ']);
        let Some(rest) = opener.strip_prefix("xtask-allow:") else {
            continue;
        };
        let rest = rest.trim_start();
        let rule: String = rest
            .chars()
            .take_while(|c| c.is_ascii_lowercase() || *c == '-')
            .collect();
        let justification = rest[rule.len()..]
            .trim_start_matches([' ', '\u{2014}', '-', ':', '('])
            .trim();
        if !RULES.contains(&rule.as_str()) {
            out.push(Violation {
                rule: "xtask-allow".into(),
                path: rel.to_path_buf(),
                line,
                message: format!("unknown rule {rule:?} in xtask-allow (known: {RULES:?})"),
            });
            continue;
        }
        if justification.len() < 10 {
            out.push(Violation {
                rule: "xtask-allow".into(),
                path: rel.to_path_buf(),
                line,
                message: format!(
                    "xtask-allow: {rule} needs a justification, e.g. \
                     `// xtask-allow: {rule} — <why this site is sound>`"
                ),
            });
            continue;
        }
        // The suppression covers its own line and the next one, so it can
        // sit above the flagged code or trail it.
        allows.entry(line).or_default().insert(rule.clone());
        allows.entry(line + 1).or_default().insert(rule);
    }
    allows
}

/// Mark lines inside `#[cfg(test)]`-gated or `#[test]`-annotated item
/// bodies by matching the braces that follow the attribute.
fn mark_test_lines(views: &[LineView]) -> Vec<bool> {
    let flat: Vec<(char, usize)> = views
        .iter()
        .enumerate()
        .flat_map(|(idx, v)| {
            v.code
                .chars()
                .chain(std::iter::once('\n'))
                .map(move |c| (c, idx))
        })
        .collect();
    let text: String = flat.iter().map(|(c, _)| *c).collect();
    let mut marks = vec![false; views.len()];

    let mut search = 0;
    while let Some(off) = text[search..].find("#[cfg(") {
        let attr_start = search + off;
        let open = attr_start + "#[cfg(".len() - 1;
        // Find the matching `)` of the cfg argument list.
        let bytes: Vec<char> = text.chars().collect();
        let mut depth = 0usize;
        let mut close = None;
        for (k, ch) in bytes.iter().enumerate().skip(open) {
            match ch {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(k);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(close) = close else { break };
        search = close + 1;
        let args: String = bytes[open + 1..close].iter().collect();
        if !has_word(&args, "test") {
            continue;
        }
        mark_following_block(&flat, close + 1, &mut marks);
    }
    let mut search = 0;
    while let Some(off) = text[search..].find("#[test]") {
        let at = search + off;
        search = at + "#[test]".len();
        mark_following_block(&flat, search, &mut marks);
    }
    marks
}

/// Mark every line of the first `{ .. }` block at or after char `from`.
fn mark_following_block(flat: &[(char, usize)], from: usize, marks: &mut [bool]) {
    let mut depth = 0usize;
    let mut started = false;
    let mut start_line = 0usize;
    for &(c, line) in flat.iter().skip(from) {
        match c {
            '{' => {
                if !started {
                    started = true;
                    start_line = line;
                }
                depth += 1;
            }
            '}' if started => {
                depth -= 1;
                if depth == 0 {
                    for m in marks.iter_mut().take(line + 1).skip(start_line) {
                        *m = true;
                    }
                    return;
                }
            }
            // An item without a block (e.g. `#[cfg(test)] use ...;`) ends
            // the search at its semicolon.
            ';' if !started => return,
            _ => {}
        }
    }
}

/// Mark lines inside `unsafe` blocks / `unsafe fn` bodies / `unsafe impl`
/// blocks by tracking the brace that follows each `unsafe` keyword.
fn mark_unsafe_lines(views: &[LineView]) -> Vec<bool> {
    let mut marks = vec![false; views.len()];
    let mut pending_unsafe = false;
    let mut stack: Vec<bool> = Vec::new();
    let mut unsafe_depth = 0usize;
    for (idx, v) in views.iter().enumerate() {
        let chars: Vec<char> = v.code.chars().collect();
        let mut line_unsafe = unsafe_depth > 0;
        let mut k = 0;
        while k < chars.len() {
            let c = chars[k];
            if c.is_alphabetic() || c == '_' {
                let start = k;
                while k < chars.len() && (chars[k].is_alphanumeric() || chars[k] == '_') {
                    k += 1;
                }
                if chars[start..k].iter().collect::<String>() == "unsafe" {
                    pending_unsafe = true;
                }
                continue;
            }
            match c {
                '{' => {
                    stack.push(pending_unsafe);
                    if pending_unsafe {
                        unsafe_depth += 1;
                        line_unsafe = true;
                    }
                    pending_unsafe = false;
                }
                '}' => {
                    if let Some(was_unsafe) = stack.pop() {
                        if was_unsafe {
                            unsafe_depth -= 1;
                        }
                    }
                }
                // `unsafe fn f();` in a trait: no body, drop the flag.
                ';' => pending_unsafe = false,
                _ => {}
            }
            k += 1;
        }
        marks[idx] = line_unsafe || unsafe_depth > 0;
    }
    marks
}

fn emit(ctx: &FileCtx<'_>, out: &mut Vec<Violation>, rule: &str, line: usize, message: String) {
    if ctx
        .allows
        .get(&line)
        .is_some_and(|rules| rules.contains(rule))
    {
        return;
    }
    out.push(Violation {
        rule: rule.to_string(),
        path: ctx.rel.to_path_buf(),
        line,
        message,
    });
}

/// `safety-comment`: every `unsafe` keyword site must have a comment
/// containing `SAFETY:` (or a `# Safety` doc section) on the same line or
/// within the 6 lines above it.
fn rule_safety_comment(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    for (idx, v) in ctx.views.iter().enumerate() {
        if !has_word(&v.code, "unsafe") {
            continue;
        }
        // `unsafe` inside an already-unsafe context line (e.g. the body of
        // an `unsafe fn`) still demands its own comment — skip only lines
        // where the keyword is part of a `use`/path, which cannot happen
        // for a keyword. Look for the nearest comment upward.
        let lo = idx.saturating_sub(6);
        let documented = ctx.views[lo..=idx]
            .iter()
            .any(|w| w.comment.contains("SAFETY:") || w.comment.contains("# Safety"));
        if !documented {
            emit(
                ctx,
                out,
                "safety-comment",
                idx + 1,
                "`unsafe` without a `// SAFETY:` comment naming the invariant \
                 (alignment / bounds / feature availability) on this or the \
                 preceding lines"
                    .into(),
            );
        }
    }
}

/// `target-feature-gate`: `#[target_feature]` may only annotate non-`pub`
/// `unsafe fn`s inside `crates/mmm-align/src/simd/` or the posting-decode
/// module `crates/mmm-index/src/unpack.rs`, so the only route to them is
/// the module's safe wrapper asserting `available()` — which is what the
/// dispatch gate selects through.
fn rule_target_feature(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    let rel = ctx.rel.to_string_lossy();
    let in_simd = rel.contains("mmm-align/src/simd/") || rel.ends_with("mmm-index/src/unpack.rs");
    for (idx, v) in ctx.views.iter().enumerate() {
        if !v.code.contains("#[target_feature") {
            continue;
        }
        if !in_simd {
            emit(
                ctx,
                out,
                "target-feature-gate",
                idx + 1,
                "#[target_feature] outside mmm-align/src/simd/ and \
                 mmm-index/src/unpack.rs — kernels must live behind a \
                 runtime-detection dispatch gate"
                    .into(),
            );
            continue;
        }
        // Find the annotated fn (skip further attributes / blank lines).
        let mut fn_line = None;
        for (j, w) in ctx.views.iter().enumerate().skip(idx + 1).take(4) {
            let code = w.code.trim();
            if code.is_empty() || code.starts_with("#[") {
                continue;
            }
            fn_line = Some((j, code.to_string()));
            break;
        }
        match fn_line {
            Some((_, sig)) if has_word(&sig, "pub") => emit(
                ctx,
                out,
                "target-feature-gate",
                idx + 1,
                "#[target_feature] fn must not be `pub` — callers must go \
                 through the safe wrapper that asserts `available()`"
                    .into(),
            ),
            Some((_, sig)) if !has_word(&sig, "unsafe") => emit(
                ctx,
                out,
                "target-feature-gate",
                idx + 1,
                "#[target_feature] fn must be `unsafe fn` so every call site \
                 is forced to state the feature-availability invariant"
                    .into(),
            ),
            Some(_) => {}
            None => emit(
                ctx,
                out,
                "target-feature-gate",
                idx + 1,
                "#[target_feature] not followed by a function".into(),
            ),
        }
    }
}

/// `raw-ptr-arith`: `.add( / .sub( / .offset( / from_raw_parts` inside
/// `unsafe` regions are confined to the SIMD kernels (align `simd/`, index
/// `unpack.rs`) and `mmap.rs`, where the bounds invariants are documented
/// and oracle/Miri-checked.
fn rule_raw_ptr(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    let rel = ctx.rel.to_string_lossy();
    if rel.contains("mmm-align/src/simd/")
        || rel.ends_with("mmm-index/src/unpack.rs")
        || rel.ends_with("mmap.rs")
    {
        return;
    }
    const PATTERNS: [&str; 4] = [".add(", ".sub(", ".offset(", "from_raw_parts"];
    for (idx, v) in ctx.views.iter().enumerate() {
        if !ctx.unsafe_lines[idx] {
            continue; // `.add(` on a safe line is ordinary arithmetic/API
        }
        if PATTERNS.iter().any(|p| v.code.contains(p)) {
            emit(
                ctx,
                out,
                "raw-ptr-arith",
                idx + 1,
                "raw-pointer arithmetic outside simd/, unpack.rs and mmap.rs \
                 — keep pointer math where its invariants are audited"
                    .into(),
            );
        }
    }
}

/// `index-simd-confined`: inside mmm-index, SIMD intrinsics stay in the
/// one audited decode module, `src/unpack.rs`. Any `core::arch` import or
/// `_mm*` intrinsic token elsewhere in the crate means bit-twiddling decode
/// logic is leaking out of the module whose bounds/feature invariants the
/// oracle and lint suite actually check.
fn rule_index_simd_confined(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    let rel = ctx.rel.to_string_lossy();
    if !rel.contains("mmm-index/src/") || rel.ends_with("mmm-index/src/unpack.rs") {
        return;
    }
    for (idx, v) in ctx.views.iter().enumerate() {
        if ctx.test_lines[idx] {
            continue;
        }
        let intrinsic = v.code.contains("core::arch")
            || v.code
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .any(|w| w.starts_with("_mm") && w.len() > 3);
        if intrinsic {
            emit(
                ctx,
                out,
                "index-simd-confined",
                idx + 1,
                "SIMD intrinsics in mmm-index outside src/unpack.rs — packed \
                 decode kernels are confined to the one module the dispatch \
                 gate and oracle audit"
                    .into(),
            );
        }
    }
}

/// The last path segment of a borrow expression: `&self.inner` → `inner`,
/// `&state.slot` → `slot`, `&queue` → `queue`.
fn last_segment(expr: &str) -> String {
    expr.trim()
        .trim_start_matches(['&', '*', ' '])
        .rsplit('.')
        .next()
        .unwrap_or("")
        .chars()
        .filter(|c| c.is_alphanumeric() || *c == '_')
        .collect()
}

/// Mutex acquisitions on one code line: the lock-target names, in order.
/// Recognizes the two idioms this codebase uses — the poison-tolerant
/// helper `lock_unpoisoned(&EXPR)` and a direct `RECEIVER.lock()` call.
fn lock_targets(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut search = 0;
    while let Some(off) = code[search..].find("lock_unpoisoned(") {
        let at = search + off;
        search = at + "lock_unpoisoned(".len();
        // Skip the helper's own definition (`pub fn lock_unpoisoned(..)`).
        if code[..at].trim_end().ends_with("fn") || code[..at].contains("fn lock_unpoisoned") {
            continue;
        }
        let arg: String = code[search..]
            .chars()
            .take_while(|c| *c != ')' && *c != ',')
            .collect();
        let name = last_segment(&arg);
        if !name.is_empty() {
            out.push((at, name));
        }
    }
    let mut search = 0;
    while let Some(off) = code[search..].find(".lock()") {
        let at = search + off;
        search = at + ".lock()".len();
        // Walk the receiver chain backwards and take its last segment:
        // `self.inner.lock()` → `inner`, `ledger.lock()` → `ledger`.
        let recv_end = at;
        let mut recv_start = recv_end;
        let chars: Vec<char> = code[..recv_end].chars().collect();
        let mut k = chars.len();
        while k > 0
            && (chars[k - 1].is_alphanumeric() || chars[k - 1] == '_' || chars[k - 1] == '.')
        {
            k -= 1;
            recv_start = recv_end - (chars.len() - k);
        }
        let name = last_segment(&code[recv_start..recv_end]);
        if !name.is_empty() {
            out.push((at, name));
        }
    }
    out.sort_by_key(|(at, _)| *at);
    out.into_iter().map(|(_, name)| name).collect()
}

/// A guard currently held while scanning a file: which mutex it locks, the
/// binding it lives in (`None` for a same-statement temporary), the brace
/// depth it was taken at, and the line for reporting.
struct HeldGuard {
    target: String,
    binding: Option<String>,
    depth: usize,
    line: usize,
}

/// `lock-order`: within one file, two named mutexes must always be taken
/// in the same order. The scan is lexical — guards are tracked from their
/// `let` binding to `drop(..)` or the end of their block — and the edge
/// set is per file, so a genuine AB/BA inversion across files still needs
/// the dynamic loom-lite detector; this rule catches the common same-file
/// case at lint speed.
fn rule_lock_order(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if !ctx.rel.to_string_lossy().contains("/src/") {
        return;
    }
    // (held, acquired) -> first line the order was seen at.
    let mut edges: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut held: Vec<HeldGuard> = Vec::new();
    let mut depth = 0usize;
    for (idx, v) in ctx.views.iter().enumerate() {
        let line = idx + 1;
        let code = v.code.trim();
        let start_depth = depth;
        for c in v.code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        // `drop(g)` releases the named guard early.
        held.retain(|g| {
            g.binding
                .as_ref()
                .is_none_or(|b| !v.code.contains(&format!("drop({b})")))
        });
        // Leaving the block a guard was taken in releases it.
        held.retain(|g| depth >= g.depth);
        if ctx.test_lines[idx] {
            continue;
        }
        let targets = lock_targets(&v.code);
        if targets.is_empty() {
            continue;
        }
        // A `let` statement whose initializer locks keeps the guard alive;
        // anything else (`q.lock().field = ..`) is a same-statement
        // temporary that still orders against the guards currently held.
        let binding = code.strip_prefix("let ").map(|rest| {
            rest.trim_start_matches("mut ")
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect::<String>()
        });
        for target in targets {
            for g in &held {
                if g.target != target {
                    edges
                        .entry((g.target.clone(), target.clone()))
                        .or_insert(line);
                }
            }
            held.push(HeldGuard {
                target,
                binding: binding.clone(),
                depth: start_depth.max(1),
                line,
            });
        }
        // Only a `let`-bound guard survives past its own statement.
        if binding.is_none() {
            held.retain(|g| g.line != line);
        }
    }
    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    for ((a, b), &line_ab) in &edges {
        let Some(&line_ba) = edges.get(&(b.clone(), a.clone())) else {
            continue;
        };
        let key = if a < b {
            (a.clone(), b.clone())
        } else {
            (b.clone(), a.clone())
        };
        if !reported.insert(key) {
            continue;
        }
        let (first, later) = if line_ab >= line_ba {
            (line_ba, line_ab)
        } else {
            (line_ab, line_ba)
        };
        emit(
            ctx,
            out,
            "lock-order",
            later,
            format!(
                "mutexes `{a}` and `{b}` are acquired in both orders in this \
                 file (also line {first}) — pick one global order so no pair \
                 of threads can deadlock holding one each"
            ),
        );
    }
}

/// `condvar-wait-loop`: a condvar wakeup proves nothing about the guarded
/// predicate — spurious wakeups and raced-away state both require the wait
/// to sit inside a `while`/`loop` that re-checks. Flags `.wait(g)`,
/// `.wait_timeout(..)` and the repo helper `wait_unpoisoned(..)` whose
/// enclosing blocks contain no loop; `wait_while`/`wait_timeout_while`
/// re-check internally and `Child::wait()` (no argument) is not a condvar.
fn rule_condvar_wait_loop(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if !ctx.rel.to_string_lossy().contains("/src/") {
        return;
    }
    let flat: Vec<(char, usize)> = ctx
        .views
        .iter()
        .enumerate()
        .flat_map(|(idx, v)| {
            v.code
                .chars()
                .chain(std::iter::once('\n'))
                .map(move |c| (c, idx))
        })
        .collect();
    let text: String = flat.iter().map(|(c, _)| *c).collect();

    // Offsets of condvar-wait call sites.
    let mut sites: Vec<usize> = Vec::new();
    for pat in [".wait(", ".wait_timeout(", "wait_unpoisoned("] {
        let mut search = 0;
        while let Some(off) = text[search..].find(pat) {
            let at = search + off;
            search = at + pat.len();
            // `child.wait()` takes no guard; a condvar wait always does.
            if text[search..].trim_start().starts_with(')') {
                continue;
            }
            // Skip the helper's own definition line (`pub fn wait_unpoisoned(..`).
            if pat == "wait_unpoisoned(" {
                let line_start = text[..at].rfind('\n').map_or(0, |p| p + 1);
                if text[line_start..at].contains("fn ") {
                    continue;
                }
            }
            sites.push(at);
        }
    }
    sites.sort_unstable();
    sites.dedup();

    for at in sites {
        let line_idx = flat[at].1;
        if ctx.test_lines[line_idx] {
            continue;
        }
        // Walk the brace structure up to the call site; the wait is sound
        // iff one enclosing block is a loop body. A block is a loop body
        // when the text between the previous statement boundary and its
        // `{` uses `while`/`loop`/`for` — excluding `impl .. for ..`.
        let mut stack: Vec<bool> = Vec::new();
        let mut seg_start = 0usize;
        let chars: Vec<char> = text.chars().collect();
        for (k, &c) in chars.iter().enumerate().take(at) {
            match c {
                '{' => {
                    let seg: String = chars[seg_start..k].iter().collect();
                    let looping = (has_word(&seg, "while")
                        || has_word(&seg, "loop")
                        || has_word(&seg, "for"))
                        && !has_word(&seg, "impl");
                    stack.push(looping);
                    seg_start = k + 1;
                }
                '}' => {
                    stack.pop();
                    seg_start = k + 1;
                }
                ';' => seg_start = k + 1,
                _ => {}
            }
        }
        if !stack.iter().any(|&looping| looping) {
            emit(
                ctx,
                out,
                "condvar-wait-loop",
                line_idx + 1,
                "condvar wait outside a `while`/`loop` re-check — a spurious \
                 or raced-away wakeup leaves the guarded predicate false; \
                 re-test it in a loop around the wait"
                    .into(),
            );
        }
    }
}

/// `scratch-variant`: every public kernel entry point (in mmm-align and the
/// mmm-exec batch executors) must offer the zero-allocation
/// `*_with_scratch` form (the PR-1 contract).
fn rule_scratch_variant(files: &[(PathBuf, Vec<LineView>)], out: &mut Vec<Violation>) {
    let mut kernels: Vec<(PathBuf, usize, String)> = Vec::new();
    let mut names: BTreeSet<String> = BTreeSet::new();
    for (rel, views) in files {
        let rel_str = rel.to_string_lossy();
        if !rel_str.contains("mmm-align/src/") && !rel_str.contains("mmm-exec/src/") {
            continue;
        }
        for (idx, v) in views.iter().enumerate() {
            let code = v.code.trim_start();
            let Some(rest) = code.strip_prefix("pub fn ") else {
                continue;
            };
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if name.is_empty() {
                continue;
            }
            names.insert(name.clone());
            let is_kernel = ["align_", "extend_", "fill_"]
                .iter()
                .any(|p| name.starts_with(p));
            if is_kernel && !name.ends_with("_with_scratch") {
                kernels.push((rel.clone(), idx + 1, name));
            }
        }
    }
    for (rel, line, name) in kernels {
        if !names.contains(&format!("{name}_with_scratch")) {
            out.push(Violation {
                rule: "scratch-variant".into(),
                path: rel,
                line,
                message: format!(
                    "public kernel `{name}` has no `{name}_with_scratch` \
                     variant — every kernel must offer the zero-allocation \
                     scratch-arena form"
                ),
            });
        }
    }
}

/// Field names of `pub struct BackendStats`, read from its declaration so
/// the rule tracks field additions automatically.
fn backend_stats_fields(views: &[LineView]) -> Vec<String> {
    let mut fields = Vec::new();
    let mut in_struct = false;
    for v in views {
        let code = v.code.trim();
        if code.starts_with("pub struct BackendStats") {
            in_struct = true;
            continue;
        }
        if in_struct {
            if code.starts_with('}') {
                break;
            }
            if let Some(rest) = code.strip_prefix("pub ") {
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() && rest[name.len()..].trim_start().starts_with(':') {
                    fields.push(name);
                }
            }
        }
    }
    fields
}

/// One `BackendStats { .. }` struct literal: the 1-based line it opens on,
/// the field names it assigns, and the functional-update base expression
/// (the text after `..`), if any.
struct StatsLiteral {
    line: usize,
    named: BTreeSet<String>,
    rest: Option<String>,
}

/// Find `BackendStats { ... }` struct literals (not the declaration, not
/// `BackendStats::default()` calls) in one file.
fn backend_stats_literals(views: &[LineView]) -> Vec<StatsLiteral> {
    let flat: Vec<(char, usize)> = views
        .iter()
        .enumerate()
        .flat_map(|(idx, v)| {
            v.code
                .chars()
                .chain(std::iter::once('\n'))
                .map(move |c| (c, idx))
        })
        .collect();
    let text: String = flat.iter().map(|(c, _)| *c).collect();

    let mut out = Vec::new();
    let mut search = 0;
    while let Some(off) = text[search..].find("BackendStats") {
        let at = search + off;
        search = at + "BackendStats".len();
        // Declarations and impls are not literals.
        let before = text[..at].trim_end();
        if before.ends_with("struct") || before.ends_with("impl") || before.ends_with("for") {
            continue;
        }
        // Word boundary on the left (don't match `GpuBackendStats`).
        if text[..at]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            continue;
        }
        let after = text[search..].trim_start();
        if !after.starts_with('{') {
            continue; // a path use (`BackendStats::default()`, type position)
        }
        let open = search + (text[search..].len() - after.len());
        // Collect the depth-1 body of the literal.
        let chars: Vec<char> = text.chars().collect();
        let mut depth = 0usize;
        let mut close = None;
        for (k, ch) in chars.iter().enumerate().skip(open) {
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(k);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(close) = close else { break };
        let body: String = chars[open + 1..close].iter().collect();
        // Split the body at depth-0 commas and read each segment's shape.
        let mut named = BTreeSet::new();
        let mut rest = None;
        let mut seg = String::new();
        let mut depth = 0i32;
        for ch in body.chars().chain(std::iter::once(',')) {
            match ch {
                '{' | '(' | '[' => depth += 1,
                '}' | ')' | ']' => depth -= 1,
                ',' if depth == 0 => {
                    let s = seg.trim();
                    if let Some(base) = s.strip_prefix("..") {
                        rest = Some(base.trim().to_string());
                    } else {
                        let name: String = s
                            .chars()
                            .take_while(|c| c.is_alphanumeric() || *c == '_')
                            .collect();
                        if !name.is_empty() {
                            named.insert(name);
                        }
                    }
                    seg.clear();
                    continue;
                }
                _ => {}
            }
            seg.push(ch);
        }
        out.push(StatsLiteral {
            line: flat[at].1 + 1,
            named,
            rest,
        });
        search = close + 1;
    }
    out
}

/// `stats-forwarding`: in any file implementing `AlignBackend`, and in
/// every module of the executor crate (the supervisor and scheduler build
/// or merge the same counters without implementing the trait), a
/// `BackendStats { .. }` literal must either name every field the struct
/// declares or forward the remainder from a non-default base
/// (`..inner_stats`). A `..Default::default()` tail compiles cleanly when a
/// later PR adds a counter, and silently reports it as zero — exactly the
/// accounting drift this rule makes loud. Sites where zeroes are provably
/// right carry an `xtask-allow: stats-forwarding — <why>`.
fn rule_stats_forwarding(
    files: &[(PathBuf, Vec<LineView>)],
    allows: &[BTreeMap<usize, BTreeSet<String>>],
    out: &mut Vec<Violation>,
) {
    let Some(fields) = files.iter().find_map(|(rel, views)| {
        rel.to_string_lossy()
            .ends_with("mmm-exec/src/stats.rs")
            .then(|| backend_stats_fields(views))
    }) else {
        return;
    };
    if fields.is_empty() {
        return;
    }
    for ((rel, views), file_allows) in files.iter().zip(allows) {
        let in_exec_crate = rel.to_string_lossy().contains("mmm-exec/src/");
        let impls_backend = views
            .iter()
            .any(|v| v.code.contains("impl AlignBackend for"));
        if !in_exec_crate && !impls_backend {
            continue;
        }
        let test_lines = mark_test_lines(views);
        for lit in backend_stats_literals(views) {
            if test_lines.get(lit.line - 1).copied().unwrap_or(false) {
                continue;
            }
            match &lit.rest {
                // No functional update: the compiler already forces every
                // field to be named, including future ones.
                None => continue,
                // `..other_stats` forwards whatever it came from.
                Some(base)
                    if !base.contains("Default::default()")
                        && !base.contains("BackendStats::default()") =>
                {
                    continue;
                }
                Some(_) => {}
            }
            let missing: Vec<&str> = fields
                .iter()
                .filter(|f| !lit.named.contains(*f))
                .map(String::as_str)
                .collect();
            if missing.is_empty() {
                continue;
            }
            if file_allows
                .get(&lit.line)
                .is_some_and(|rules| rules.contains("stats-forwarding"))
            {
                continue;
            }
            out.push(Violation {
                rule: "stats-forwarding".into(),
                path: rel.clone(),
                line: lit.line,
                message: format!(
                    "BackendStats literal defaults fields [{}] in an AlignBackend \
                     impl file — name them explicitly, forward with `..inner`, or \
                     justify the zeros with an xtask-allow",
                    missing.join(", ")
                ),
            });
        }
    }
}

/// Run every rule over the workspace rooted at `root`. Paths in the returned
/// violations are relative to `root`.
pub fn run(root: &Path) -> Result<Vec<Violation>, String> {
    let mut paths = Vec::new();
    for top in ["crates", "shims"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut paths)?;
        }
    }
    paths.sort();

    let mut out = Vec::new();
    let mut parsed: Vec<(PathBuf, Vec<LineView>)> = Vec::new();
    for path in &paths {
        let src =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
        parsed.push((rel, scan(&src)));
    }

    let all_allows: Vec<BTreeMap<usize, BTreeSet<String>>> = parsed
        .iter()
        .map(|(rel, views)| parse_allows(rel, views, &mut out))
        .collect();
    for ((rel, views), allows) in parsed.iter().zip(&all_allows) {
        let ctx = FileCtx {
            rel,
            views,
            allows: allows.clone(),
            test_lines: mark_test_lines(views),
            unsafe_lines: mark_unsafe_lines(views),
        };
        rule_safety_comment(&ctx, &mut out);
        rule_target_feature(&ctx, &mut out);
        rule_raw_ptr(&ctx, &mut out);
        rule_lock_order(&ctx, &mut out);
        rule_condvar_wait_loop(&ctx, &mut out);
        rule_index_simd_confined(&ctx, &mut out);
    }
    rule_scratch_variant(&parsed, &mut out);
    rule_stats_forwarding(&parsed, &all_allows, &mut out);

    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_snippet(rel: &str, src: &str) -> Vec<Violation> {
        let views = scan(src);
        let mut out = Vec::new();
        let rel = PathBuf::from(rel);
        let allows = parse_allows(&rel, &views, &mut out);
        let ctx = FileCtx {
            rel: &rel,
            views: &views,
            allows,
            test_lines: mark_test_lines(&views),
            unsafe_lines: mark_unsafe_lines(&views),
        };
        rule_safety_comment(&ctx, &mut out);
        rule_target_feature(&ctx, &mut out);
        rule_raw_ptr(&ctx, &mut out);
        rule_lock_order(&ctx, &mut out);
        rule_condvar_wait_loop(&ctx, &mut out);
        rule_index_simd_confined(&ctx, &mut out);
        out
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let v = check_snippet("crates/a/src/lib.rs", "fn f() {\n    unsafe { g() }\n}\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "safety-comment");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn safety_comment_above_or_inline_passes() {
        let above = "fn f() {\n    // SAFETY: g is sound because x.\n    unsafe { g() }\n}\n";
        assert!(check_snippet("crates/a/src/lib.rs", above).is_empty());
        let inline = "fn f() {\n    unsafe { g() } // SAFETY: g is sound.\n}\n";
        assert!(check_snippet("crates/a/src/lib.rs", inline).is_empty());
    }

    #[test]
    fn unsafe_in_string_or_comment_is_ignored() {
        let src = "fn f() {\n    let s = \"unsafe { }\"; // unsafe in prose\n}\n";
        assert!(check_snippet("crates/a/src/lib.rs", src).is_empty());
    }

    #[test]
    fn cfg_all_test_blocks_are_test_code() {
        let src = "#[cfg(all(test, not(miri)))]\nmod tests {\n    use core::arch::x86_64::*;\n}\n";
        assert!(check_snippet("crates/mmm-index/src/newpath.rs", src).is_empty());
    }

    #[test]
    fn raw_ptr_arith_only_in_unsafe_regions_and_flagged_outside_simd() {
        // Safe-code `.add(` (a plain method) is not pointer arithmetic.
        let safe = "fn f(t: &mut Timer) { t.add(Stage::Align, 1.0); }\n";
        assert!(check_snippet("crates/mmm-io/src/timer.rs", safe).is_empty());
        // The same token inside an unsafe block outside simd/ is flagged.
        let hot = "fn f(p: *const u8) {\n    // SAFETY: in bounds.\n    unsafe { p.add(1); }\n}\n";
        let v = check_snippet("crates/mmm-chain/src/lib.rs", hot);
        assert!(v.iter().any(|v| v.rule == "raw-ptr-arith"), "{v:?}");
        // ...but allowed inside the simd kernels.
        assert!(check_snippet("crates/mmm-align/src/simd/sse.rs", hot).is_empty());
    }

    #[test]
    fn unsafe_fn_body_counts_as_unsafe_region() {
        let src =
            "// SAFETY: caller upholds bounds.\nunsafe fn f(p: *const u8) {\n    p.add(1);\n}\n";
        let v = check_snippet("crates/mmm-chain/src/lib.rs", src);
        assert!(v.iter().any(|v| v.rule == "raw-ptr-arith"), "{v:?}");
    }

    #[test]
    fn xtask_allow_with_justification_suppresses() {
        let src = "fn f(p: *const u8) {\n    // SAFETY: in bounds.\n    // xtask-allow: raw-ptr-arith — disjoint index writes, barrier-bounded.\n    unsafe { p.add(1); }\n}\n";
        assert!(check_snippet("crates/mmm-chain/src/lib.rs", src).is_empty());
    }

    #[test]
    fn xtask_allow_without_justification_is_itself_flagged() {
        let src = "fn f(p: *const u8) {\n    // SAFETY: in bounds.\n    // xtask-allow: raw-ptr-arith\n    unsafe { p.add(1); }\n}\n";
        let v = check_snippet("crates/mmm-chain/src/lib.rs", src);
        assert!(v.iter().any(|v| v.rule == "xtask-allow"), "{v:?}");
    }

    #[test]
    fn xtask_allow_mentioned_in_prose_is_not_a_directive() {
        let src = "//! Suppress a site with `xtask-allow: <rule> — <why>`.\nfn f() {}\n";
        assert!(check_snippet("crates/a/src/lib.rs", src).is_empty());
    }

    #[test]
    fn target_feature_must_be_private_unsafe_in_simd() {
        let good = "// SAFETY: callers check available().\n#[target_feature(enable = \"sse4.1\")]\nunsafe fn inner() {}\n";
        assert!(check_snippet("crates/mmm-align/src/simd/sse.rs", good).is_empty());
        let outside = check_snippet("crates/mmm-chain/src/lib.rs", good);
        assert!(
            outside.iter().any(|v| v.rule == "target-feature-gate"),
            "{outside:?}"
        );
        let public = "// SAFETY: callers check available().\n#[target_feature(enable = \"sse4.1\")]\npub unsafe fn inner() {}\n";
        let v = check_snippet("crates/mmm-align/src/simd/sse.rs", public);
        assert!(v.iter().any(|v| v.rule == "target-feature-gate"), "{v:?}");
    }

    /// A minimal stats.rs declaration plus one more file, through the
    /// cross-file stats-forwarding rule.
    fn check_stats_forwarding_at(rel: &str, src: &str) -> Vec<Violation> {
        let stats_src = "pub struct BackendStats {\n    pub batches: u64,\n    pub jobs: u64,\n    pub retries: u64,\n}\n";
        let files = vec![
            (
                PathBuf::from("crates/mmm-exec/src/stats.rs"),
                scan(stats_src),
            ),
            (PathBuf::from(rel), scan(src)),
        ];
        let mut out = Vec::new();
        let allows: Vec<_> = files
            .iter()
            .map(|(rel, views)| parse_allows(rel, views, &mut out))
            .collect();
        rule_stats_forwarding(&files, &allows, &mut out);
        out
    }

    fn check_stats_forwarding(backend_src: &str) -> Vec<Violation> {
        check_stats_forwarding_at("crates/mmm-exec/src/somebackend.rs", backend_src)
    }

    #[test]
    fn stats_forwarding_flags_defaulted_fields() {
        let src = "impl AlignBackend for X {}\nfn f() {\n    let s = BackendStats {\n        batches: 1,\n        ..Default::default()\n    };\n}\n";
        let v = check_stats_forwarding(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "stats-forwarding");
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("jobs"), "{}", v[0].message);
        assert!(v[0].message.contains("retries"), "{}", v[0].message);
    }

    #[test]
    fn stats_forwarding_accepts_exhaustive_and_forwarding_literals() {
        // All fields named: fine (and `..Default::default()` is then moot).
        let full = "impl AlignBackend for X {}\nfn f() {\n    let s = BackendStats { batches: 1, jobs: 2, retries: 0 };\n}\n";
        assert!(check_stats_forwarding(full).is_empty());
        // Forwarding from a real base: fine, the base carries the counters.
        let fwd = "impl AlignBackend for X {}\nfn f(inner: BackendStats) {\n    let s = BackendStats { batches: 1, ..inner };\n}\n";
        assert!(check_stats_forwarding(fwd).is_empty());
        // `BackendStats::default()` in expression position is not a literal.
        let call = "impl AlignBackend for X {}\nfn f() { let s = BackendStats::default(); }\n";
        assert!(check_stats_forwarding(call).is_empty());
    }

    #[test]
    fn stats_forwarding_ignores_non_backend_files_and_tests() {
        // No `impl AlignBackend for` and not in the executor crate: out of
        // scope (callers elsewhere consume stats, they don't fabricate them).
        let plain = "fn f() {\n    let s = BackendStats { batches: 1, ..Default::default() };\n}\n";
        assert!(check_stats_forwarding_at("crates/manymap/src/mapper.rs", plain).is_empty());
        // Test code may shorthand freely.
        let test = "impl AlignBackend for X {}\n#[cfg(test)]\nmod tests {\n    fn g() {\n        let s = BackendStats { jobs: 1, ..Default::default() };\n    }\n}\n";
        assert!(check_stats_forwarding(test).is_empty());
    }

    #[test]
    fn stats_forwarding_covers_executor_modules_without_an_impl() {
        // The scheduler and supervisor modules never write `impl AlignBackend
        // for`, but they sit on the dispatch path; a defaulted literal there
        // is the same accounting drift the rule exists for.
        let plain = "fn f() {\n    let s = BackendStats { batches: 1, ..Default::default() };\n}\n";
        for rel in [
            "crates/mmm-exec/src/sched.rs",
            "crates/mmm-exec/src/supervisor.rs",
        ] {
            let v = check_stats_forwarding_at(rel, plain);
            assert_eq!(v.len(), 1, "{rel}: {v:?}");
            assert_eq!(v[0].rule, "stats-forwarding");
        }
    }

    #[test]
    fn stats_forwarding_respects_justified_allow() {
        let src = "impl AlignBackend for X {}\nfn f() {\n    // xtask-allow: stats-forwarding — omitted counters are structurally zero here.\n    let s = BackendStats {\n        batches: 1,\n        ..Default::default()\n    };\n}\n";
        assert!(check_stats_forwarding(src).is_empty());
    }

    #[test]
    fn lock_order_inversion_is_flagged() {
        let src = "fn f(s: &S) {\n    let a = s.left.lock();\n    let b = s.right.lock();\n    drop(b);\n    drop(a);\n}\nfn g(s: &S) {\n    let b = s.right.lock();\n    let a = s.left.lock();\n    drop(a);\n    drop(b);\n}\n";
        let v = check_snippet("crates/a/src/lib.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "lock-order");
        assert!(v[0].message.contains("left"), "{}", v[0].message);
        assert!(v[0].message.contains("right"), "{}", v[0].message);
        // The same source in a test file or outside src/ is exempt.
        assert!(check_snippet("crates/a/tests/t.rs", src).is_empty());
    }

    #[test]
    fn lock_order_consistent_order_is_clean() {
        let src = "fn f(s: &S) {\n    let a = s.left.lock();\n    let b = s.right.lock();\n    drop(b);\n    drop(a);\n}\nfn g(s: &S) {\n    let a = s.left.lock();\n    let b = s.right.lock();\n}\n";
        assert!(check_snippet("crates/a/src/lib.rs", src).is_empty());
    }

    #[test]
    fn lock_order_release_ends_the_hold() {
        // `drop(a)` before the second lock: never held together.
        let dropped = "fn f(s: &S) {\n    let a = s.left.lock();\n    drop(a);\n    let b = s.right.lock();\n}\nfn g(s: &S) {\n    let b = s.right.lock();\n    drop(b);\n    let a = s.left.lock();\n}\n";
        assert!(check_snippet("crates/a/src/lib.rs", dropped).is_empty());
        // Block scope ends the hold the same way.
        let scoped = "fn f(s: &S) {\n    {\n        let a = s.left.lock();\n    }\n    let b = s.right.lock();\n}\nfn g(s: &S) {\n    {\n        let b = s.right.lock();\n    }\n    let a = s.left.lock();\n}\n";
        assert!(check_snippet("crates/a/src/lib.rs", scoped).is_empty());
    }

    #[test]
    fn lock_order_sees_lock_unpoisoned_and_temporaries() {
        // Helper idiom on one side, a same-statement temporary on the other.
        let src = "fn f(s: &S) {\n    let a = lock_unpoisoned(&s.left);\n    s.right.lock().x = 1;\n}\nfn g(s: &S) {\n    let b = lock_unpoisoned(&s.right);\n    s.left.lock().x = 1;\n}\n";
        let v = check_snippet("crates/a/src/lib.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "lock-order");
    }

    #[test]
    fn lock_order_respects_justified_allow() {
        let src = "fn f(s: &S) {\n    let a = s.left.lock();\n    let b = s.right.lock();\n}\nfn g(s: &S) {\n    let b = s.right.lock();\n    // xtask-allow: lock-order — g is only ever called with f's locks released.\n    let a = s.left.lock();\n}\n";
        assert!(check_snippet("crates/a/src/lib.rs", src).is_empty());
    }

    #[test]
    fn condvar_wait_outside_loop_is_flagged() {
        let iffy = "fn f(cv: &Condvar, m: &Mutex<bool>) {\n    let mut g = m.lock();\n    if !*g {\n        g = cv.wait(g);\n    }\n}\n";
        let v = check_snippet("crates/a/src/lib.rs", iffy);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "condvar-wait-loop");
        assert_eq!(v[0].line, 4);
        // Test code and non-src files are exempt.
        assert!(check_snippet("crates/a/tests/t.rs", iffy).is_empty());
    }

    #[test]
    fn condvar_wait_inside_loop_is_clean() {
        let looped = "fn f(cv: &Condvar, m: &Mutex<bool>) {\n    let mut g = m.lock();\n    while !*g {\n        g = cv.wait(g);\n    }\n}\n";
        assert!(check_snippet("crates/a/src/lib.rs", looped).is_empty());
        let timeout = "fn f(cv: &Condvar, m: &Mutex<bool>) {\n    let mut g = m.lock();\n    loop {\n        let (g2, t) = cv.wait_timeout(g, d);\n        g = g2;\n        if t.timed_out() { break; }\n    }\n}\n";
        assert!(check_snippet("crates/a/src/lib.rs", timeout).is_empty());
        let helper = "fn f() {\n    loop {\n        g = wait_unpoisoned(&cv, g);\n    }\n}\n";
        assert!(check_snippet("crates/a/src/lib.rs", helper).is_empty());
    }

    #[test]
    fn condvar_wait_non_condvar_waits_are_exempt() {
        // `Child::wait()` takes no guard.
        let child = "fn f(c: &mut Child) {\n    let st = c.wait();\n}\n";
        assert!(check_snippet("crates/a/src/lib.rs", child).is_empty());
        // `wait_while` re-checks the predicate internally.
        let wait_while =
            "fn f(cv: &Condvar, g: G) {\n    let g = cv.wait_while(g, |s| !s.ready);\n}\n";
        assert!(check_snippet("crates/a/src/lib.rs", wait_while).is_empty());
        // The helper's own definition is not a call site.
        let def = "pub fn wait_unpoisoned<'a, T>(cv: &Condvar, g: Guard<'a, T>) -> Guard<'a, T> {\n    f(g)\n}\n";
        assert!(check_snippet("crates/a/src/lib.rs", def).is_empty());
        // An `impl .. for ..` block is not a loop.
        let imp =
            "impl Waiter for W {\n    fn go(&self) {\n        let g = self.cv.wait(g);\n    }\n}\n";
        let v = check_snippet("crates/a/src/lib.rs", imp);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn target_feature_allowed_in_index_unpack() {
        let good = "// SAFETY: callers check available().\n#[target_feature(enable = \"avx2\")]\nunsafe fn inner() {}\n";
        assert!(check_snippet("crates/mmm-index/src/unpack.rs", good).is_empty());
        let public = "// SAFETY: callers check available().\n#[target_feature(enable = \"avx2\")]\npub unsafe fn inner() {}\n";
        let v = check_snippet("crates/mmm-index/src/unpack.rs", public);
        assert!(v.iter().any(|v| v.rule == "target-feature-gate"), "{v:?}");
    }

    #[test]
    fn raw_ptr_arith_allowed_in_index_unpack() {
        let hot = "fn f(p: *const u8) {\n    // SAFETY: in bounds.\n    unsafe { p.add(1); }\n}\n";
        assert!(check_snippet("crates/mmm-index/src/unpack.rs", hot).is_empty());
        let v = check_snippet("crates/mmm-index/src/postings.rs", hot);
        assert!(v.iter().any(|v| v.rule == "raw-ptr-arith"), "{v:?}");
    }

    #[test]
    fn index_simd_confined_flags_intrinsics_outside_unpack() {
        let simd = "fn f() {\n    // SAFETY: avx2 checked.\n    let v = unsafe { _mm256_setzero_si256() };\n}\n";
        let v = check_snippet("crates/mmm-index/src/postings.rs", simd);
        assert!(v.iter().any(|v| v.rule == "index-simd-confined"), "{v:?}");
        let import = "use core::arch::x86_64::*;\nfn f() {}\n";
        let v = check_snippet("crates/mmm-index/src/index.rs", import);
        assert!(v.iter().any(|v| v.rule == "index-simd-confined"), "{v:?}");
        // The decode module itself, other crates, and test code are exempt.
        assert!(check_snippet("crates/mmm-index/src/unpack.rs", import).is_empty());
        assert!(check_snippet("crates/mmm-align/src/simd/avx2.rs", import).is_empty());
        let test = "#[cfg(test)]\nmod tests {\n    use core::arch::x86_64::*;\n}\n";
        assert!(check_snippet("crates/mmm-index/src/minimizer.rs", test).is_empty());
        // Ordinary identifiers containing `_mm` elsewhere don't trip it.
        let plain = "fn f(x_mm: u32) { let total_mm = x_mm; }\n";
        assert!(check_snippet("crates/mmm-index/src/index.rs", plain).is_empty());
    }

    #[test]
    fn scratch_variant_rule_spots_missing_pair() {
        let files = vec![(
            PathBuf::from("crates/mmm-align/src/newkernel.rs"),
            scan("pub fn align_new(t: &[u8]) {}\npub fn align_old(t: &[u8]) {}\npub fn align_old_with_scratch(t: &[u8]) {}\n"),
        )];
        let mut out = Vec::new();
        rule_scratch_variant(&files, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("align_new"));
    }
}
