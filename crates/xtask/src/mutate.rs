//! `cargo xtask mutate` — automated single-token mutation testing.
//!
//! The generator derives mutants from the lexed token stream of the
//! protocol-critical sources (`crates/core`, `crates/sim/src/{engine,
//! journal,link,protocol,faults,sim,topology}.rs`,
//! `crates/verify/src/invariants.rs`):
//!
//! * operator swaps: `+`↔`-`, `<`→`<=`, `>`→`>=`, `<=`→`<`, `>=`→`>`,
//!   `==`↔`!=`, `&&`↔`||` (guarded to binary positions so generics and
//!   double-references are not mangled);
//! * boolean negation: deletion of a unary `!`;
//! * off-by-one constant tweaks: decimal integer literals ±1, type
//!   suffix preserved;
//! * match-arm deletion: removal of a final `_ => …` arm;
//! * early-return deletion: removal of a `return …;` statement that is
//!   not the last statement of its block.
//!
//! Substitution mutants differ from the original in exactly one token;
//! deletion mutants remove one contiguous token span — both properties
//! are pinned by self-tests. Test code and attributes are never
//! mutated. Each mutant id is an FNV-1a hash of its file, its enclosing
//! item (the function's name and ordinal among the file's functions of
//! that name), the mutated token's index within the item's body, and the
//! replacement — so ids are stable across runs and machines, and an edit
//! outside a function leaves its mutants' ids alone; `--sample N --seed
//! S` picks a deterministic SplitMix64-ranked subset.
//!
//! The runner splices each sampled mutant into its file (restoring the
//! original on every exit path), compiles it in the scratch target dir
//! `target/mutants`, and — if it builds — runs the per-crate kill suite
//! (targeted lib tests plus the `mdr-verify --kill-suite` model-checker
//! battery). Survivors must be triaged in `crates/xtask/mutants.allow`;
//! `--check` fails on an unmanifested survivor, a kill rate below the
//! threshold, or an allowlist id that no generated mutant carries.

use crate::lexer::{in_ranges, lex, test_ranges, Token, TokenKind};
use std::path::Path;
use std::process::ExitCode;

/// One generated mutant.
#[derive(Debug, Clone)]
pub(crate) struct Mutant {
    /// Stable 16-hex-digit id.
    pub id: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the mutated span.
    pub line: usize,
    /// Char-index span in the original source that is replaced.
    pub start: usize,
    /// End of the replaced span (half-open).
    pub end: usize,
    /// Original text of the span.
    pub original: String,
    /// Replacement text (empty for deletions).
    pub replacement: String,
    /// Operator name.
    pub op: &'static str,
}

/// 64-bit FNV-1a.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 — same mixer the sweep engine uses for seed derivation.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Keywords that disqualify an identifier from being a binary operand.
const OPERAND_KEYWORDS: &[&str] = &[
    "return", "if", "else", "match", "while", "for", "in", "loop", "let", "move", "as", "break",
    "continue", "where", "impl", "dyn", "ref", "mut", "fn", "use", "pub", "const", "static",
];

/// Whether `t` can be the left operand of a binary operator.
fn is_operand_left(t: &Token) -> bool {
    match t.kind {
        TokenKind::Ident => !OPERAND_KEYWORDS.contains(&t.text.as_str()),
        TokenKind::Int | TokenKind::Float => true,
        TokenKind::Punct => t.text == ")" || t.text == "]",
        _ => false,
    }
}

/// Whether `t` looks like the start of a comparison operand (used to
/// keep `<`/`>` swaps away from generics: type names are uppercase).
fn is_cmp_operand(t: &Token) -> bool {
    match t.kind {
        TokenKind::Ident => {
            !OPERAND_KEYWORDS.contains(&t.text.as_str()) && !t.text.starts_with(char::is_uppercase)
        }
        TokenKind::Int | TokenKind::Float => true,
        TokenKind::Punct => t.text == "(",
        _ => false,
    }
}

/// Starts-with-uppercase identifiers are type-position in practice;
/// swapping `+` in `Clone + Send` bounds only makes stillborns.
fn is_typeish(t: &Token) -> bool {
    t.kind == TokenKind::Ident && t.text.starts_with(char::is_uppercase)
}

/// Token index ranges covered by `#[…]` attributes.
fn attr_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct("#")
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.is_punct("[") || t.is_punct("!"))
        {
            let open = if tokens[i + 1].is_punct("!") {
                i + 2
            } else {
                i + 1
            };
            if tokens.get(open).is_some_and(|t| t.is_punct("[")) {
                let mut depth = 1;
                let mut j = open + 1;
                while j < tokens.len() && depth > 0 {
                    if tokens[j].is_punct("[") {
                        depth += 1;
                    } else if tokens[j].is_punct("]") {
                        depth -= 1;
                    }
                    j += 1;
                }
                out.push((i, j));
                i = j;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// The item a mutant's id is keyed on: the innermost function whose body
/// holds the mutated token, or the `const`/`static` item whose
/// initializer does.
struct Anchor {
    /// `fn name#k`: the item's kind and name, and its ordinal among the
    /// file's items of that kind and name.
    key: String,
    /// Token index offsets count from: the body's `{`, or the `const` or
    /// `static` keyword.
    from: usize,
    /// One past the item's last token.
    to: usize,
}

/// Index of the first token at or after `from`, outside every bracket
/// opened after `from`, for which `stop` holds.
fn first_at_depth0(tokens: &[Token], from: usize, stop: impl Fn(&Token) -> bool) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(from) {
        if depth == 0 && stop(t) {
            return Some(j);
        }
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth = depth.checked_sub(1)?;
        }
    }
    None
}

/// Every function body and `const`/`static` initializer in the file.
fn anchors(tokens: &[Token]) -> Vec<Anchor> {
    let mut ordinals = std::collections::HashMap::new();
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name_at = match t.text.as_str() {
            "static" if tokens.get(i + 1).is_some_and(|n| n.text == "mut") => i + 2,
            "fn" | "const" | "static" => i + 1,
            _ => continue,
        };
        let Some(name) = tokens.get(name_at).filter(|n| n.kind == TokenKind::Ident) else {
            continue;
        };
        let span = if t.text == "fn" {
            // The body opens at the first `{` outside the signature's
            // brackets; a `;` first means a bodiless declaration.
            first_at_depth0(tokens, name_at, |n| n.is_punct("{") || n.is_punct(";"))
                .filter(|&open| tokens[open].is_punct("{"))
                .and_then(|open| {
                    Some((
                        open,
                        first_at_depth0(tokens, open + 1, |n| n.is_punct("}"))?,
                    ))
                })
        } else if tokens.get(name_at + 1).is_some_and(|n| n.is_punct(":"))
            && !tokens
                .get(i.wrapping_sub(1))
                .is_some_and(|p| p.is_punct("<") || p.is_punct(","))
        {
            first_at_depth0(tokens, name_at, |n| n.is_punct(";")).map(|semi| (i, semi))
        } else {
            None
        };
        let Some((from, last)) = span else {
            continue;
        };
        let item = format!("{} {}", t.text, name.text);
        let ordinal = ordinals.entry(item.clone()).or_insert(0usize);
        *ordinal += 1;
        out.push(Anchor {
            key: format!("{item}#{ordinal}"),
            from,
            to: last + 1,
        });
    }
    out
}

/// The id of the mutant replacing the span that starts at token `at` by
/// `replacement`: keyed on the innermost item holding the token (or the
/// file, outside every item) and the token's offset within it.
fn mutant_id(path: &str, anchors: &[Anchor], at: usize, replacement: &str) -> String {
    let (item, offset) = anchors
        .iter()
        .filter(|a| (a.from..a.to).contains(&at))
        .max_by_key(|a| a.from)
        .map_or(("file", at), |a| (a.key.as_str(), at - a.from));
    format!(
        "{:016x}",
        fnv1a64(format!("{path}|{item}|{offset}|{replacement}").as_bytes())
    )
}

/// Generates every mutant for one file.
pub(crate) fn mutants_for(path: &str, src: &str) -> Vec<Mutant> {
    let tokens = lex(src);
    let tests = test_ranges(&tokens);
    let attrs = attr_ranges(&tokens);
    let anchors = anchors(&tokens);
    let skip = |idx: usize| in_ranges(&tests, idx) || in_ranges(&attrs, idx);
    let mut out = Vec::new();

    let mut push = |op: &'static str, at: usize, end: usize, original: String, repl: String| {
        let t = &tokens[at];
        let id = mutant_id(path, &anchors, at, &repl);
        out.push(Mutant {
            id,
            file: path.to_string(),
            line: t.line,
            start: t.start,
            end,
            original,
            replacement: repl,
            op,
        });
    };

    for (i, t) in tokens.iter().enumerate() {
        if skip(i) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| &tokens[p]);
        let next = tokens.get(i + 1);

        if t.kind == TokenKind::Punct {
            let binary = prev.is_some_and(is_operand_left);
            match t.text.as_str() {
                "+" | "-" => {
                    let bound = prev.is_some_and(is_typeish) || next.is_some_and(is_typeish);
                    if binary && !bound {
                        let repl = if t.text == "+" { "-" } else { "+" };
                        push("op-swap", i, t.end, t.text.clone(), repl.to_string());
                    }
                }
                "<" | ">"
                    if prev.is_some_and(is_cmp_operand) && next.is_some_and(is_cmp_operand) =>
                {
                    push("cmp-swap", i, t.end, t.text.clone(), format!("{}=", t.text));
                }
                "<=" | ">=" => {
                    let repl = t.text.trim_end_matches('=').to_string();
                    push("cmp-swap", i, t.end, t.text.clone(), repl);
                }
                "==" | "!=" => {
                    let repl = if t.text == "==" { "!=" } else { "==" };
                    push("cmp-swap", i, t.end, t.text.clone(), repl.to_string());
                }
                "&&" | "||" if binary => {
                    let repl = if t.text == "&&" { "||" } else { "&&" };
                    push("logic-swap", i, t.end, t.text.clone(), repl.to_string());
                }
                "!" => {
                    let unary = match prev {
                        None => true,
                        Some(p) => {
                            (p.kind != TokenKind::Ident
                                || OPERAND_KEYWORDS.contains(&p.text.as_str()))
                                && !p.is_punct("#")
                        }
                    };
                    let negatable = next.is_some_and(|n| {
                        (n.kind == TokenKind::Ident && !OPERAND_KEYWORDS.contains(&n.text.as_str()))
                            || n.is_punct("(")
                    });
                    if unary && negatable {
                        push("negation-del", i, t.end, t.text.clone(), String::new());
                    }
                }
                _ => {}
            }
            continue;
        }

        if t.kind == TokenKind::Int && !t.text.starts_with('0') {
            let digits: String = t.text.chars().take_while(char::is_ascii_digit).collect();
            let suffix: String = t.text.chars().skip(digits.len()).collect();
            if !digits.is_empty() && digits.len() <= 18 && !suffix.starts_with('_') {
                if let Ok(v) = digits.parse::<u64>() {
                    push(
                        "int-tweak",
                        i,
                        t.end,
                        t.text.clone(),
                        format!("{}{suffix}", v + 1),
                    );
                    if v > 0 {
                        push(
                            "int-tweak",
                            i,
                            t.end,
                            t.text.clone(),
                            format!("{}{suffix}", v - 1),
                        );
                    }
                }
            }
            continue;
        }

        if t.kind == TokenKind::Ident {
            if t.text == "_"
                && next.is_some_and(|n| n.is_punct("=>"))
                && prev.is_some_and(|p| p.is_punct(",") || p.is_punct("{"))
            {
                if let Some(last) = arm_end(&tokens, i) {
                    let original: String = slice_text(src, t.start, tokens[last].end);
                    push("arm-del", i, tokens[last].end, original, String::new());
                }
            }
            if t.text == "return" {
                // Statement position only: the previous token must close a
                // statement or open a block, so `match x { _ => return y }`
                // arms and similar expression uses are left alone.
                let stmt_pos =
                    prev.is_none_or(|p| p.is_punct("{") || p.is_punct(";") || p.is_punct("}"));
                if stmt_pos {
                    if let Some(semi) = statement_end(&tokens, i) {
                        // Deleting an early `return x;` from a statement-
                        // position `if` block compiles (the block becomes
                        // `()`); deletions that change a tail expression's
                        // type are caught by the stillborn check and
                        // excluded from the score.
                        let original = slice_text(src, t.start, tokens[semi].end);
                        push("return-del", i, tokens[semi].end, original, String::new());
                    }
                }
            }
        }
    }
    out
}

/// Token index of the last token of the match arm starting at the `_`
/// token `us` (`_ => expr,` or `_ => { … }[,]`).
fn arm_end(tokens: &[Token], us: usize) -> Option<usize> {
    let body = us + 2;
    if tokens.get(body)?.is_punct("{") {
        let mut depth = 0usize;
        let mut j = body;
        while j < tokens.len() {
            if tokens[j].is_punct("{") {
                depth += 1;
            } else if tokens[j].is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    let last = if tokens.get(j + 1).is_some_and(|n| n.is_punct(",")) {
                        j + 1
                    } else {
                        j
                    };
                    return Some(last);
                }
            }
            j += 1;
        }
        return None;
    }
    let mut depth = 0i64;
    let mut j = body;
    while j < tokens.len() {
        let t = &tokens[j];
        match t.text.as_str() {
            "(" | "[" | "{" if t.kind == TokenKind::Punct => depth += 1,
            ")" | "]" if t.kind == TokenKind::Punct => depth -= 1,
            "}" if t.kind == TokenKind::Punct => {
                if depth == 0 {
                    // Arm without trailing comma, closed by the match's
                    // own `}` — the arm ends at the previous token.
                    return Some(j - 1);
                }
                depth -= 1;
            }
            "," if t.kind == TokenKind::Punct && depth == 0 => {
                return Some(j);
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Token index of the `;` closing the `return` statement at `ret`, at
/// bracket depth 0.
fn statement_end(tokens: &[Token], ret: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut j = ret + 1;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        return None;
                    }
                    depth -= 1;
                }
                ";" if depth == 0 => return Some(j),
                _ => {}
            }
        }
        j += 1;
    }
    None
}

/// The chars of `src` in `[start, end)` (char indices).
fn slice_text(src: &str, start: usize, end: usize) -> String {
    src.chars()
        .skip(start)
        .take(end.saturating_sub(start))
        .collect()
}

/// Splices a mutant into its source.
pub(crate) fn apply_mutant(src: &str, m: &Mutant) -> String {
    let mut out = String::with_capacity(src.len());
    for (idx, c) in src.chars().enumerate() {
        if idx == m.start {
            out.push_str(&m.replacement);
        }
        if idx < m.start || idx >= m.end {
            out.push(c);
        }
    }
    if m.start >= src.chars().count() {
        out.push_str(&m.replacement);
    }
    out
}

/// Deterministically samples `n` mutants: rank by
/// `splitmix64(seed ^ fnv(id))`, take the lowest, then restore source
/// order for the run.
pub(crate) fn sample_mutants(all: &[Mutant], seed: u64, n: usize) -> Vec<Mutant> {
    let mut ranked: Vec<(u64, &Mutant)> = all
        .iter()
        .map(|m| (splitmix64(seed ^ fnv1a64(m.id.as_bytes())), m))
        .collect();
    ranked.sort_by(|a, b| (a.0, &a.1.id).cmp(&(b.0, &b.1.id)));
    let mut picked: Vec<Mutant> = ranked.into_iter().take(n).map(|(_, m)| m.clone()).collect();
    picked.sort_by(|a, b| {
        (&a.file, a.start, &a.replacement).cmp(&(&b.file, b.start, &b.replacement))
    });
    picked
}

/// The mutation target set, workspace-relative.
pub(crate) fn target_files(root: &Path) -> Vec<String> {
    let mut files = Vec::new();
    let core_src = root.join("crates/core/src");
    let mut core_files = Vec::new();
    crate::collect_rs(&core_src, &mut core_files);
    for f in core_files {
        if let Ok(rel) = f.strip_prefix(root) {
            files.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
    for fixed in [
        "crates/sim/src/engine.rs",
        "crates/sim/src/journal.rs",
        "crates/sim/src/link.rs",
        "crates/sim/src/protocol.rs",
        "crates/sim/src/faults.rs",
        "crates/sim/src/sim.rs",
        "crates/sim/src/topology.rs",
        "crates/verify/src/invariants.rs",
    ] {
        if root.join(fixed).is_file() {
            files.push(fixed.to_string());
        }
    }
    files.sort();
    files
}

/// Cargo package owning a workspace-relative path.
fn package_of(file: &str) -> &'static str {
    if file.starts_with("crates/core/") {
        "mdr-core"
    } else if file.starts_with("crates/sim/") {
        "mdr-sim"
    } else {
        "mdr-verify"
    }
}

/// Kill-suite commands for a package, cheapest first. Every command is
/// a cargo invocation run with the scratch `target/mutants` dir.
fn kill_suite(pkg: &str) -> Vec<Vec<&'static str>> {
    let core_tests = vec!["test", "-q", "-p", "mdr-core", "--lib"];
    let sim_tests = vec!["test", "-q", "-p", "mdr-sim", "--lib"];
    let checker = vec!["run", "-q", "-p", "mdr-verify", "--", "--kill-suite"];
    match pkg {
        "mdr-core" => vec![core_tests, sim_tests, checker],
        "mdr-sim" => vec![sim_tests, checker],
        _ => vec![checker],
    }
}

/// Per-command wall limit. Mutants that loop forever count as killed.
const COMMAND_TIME_LIMIT_MS: u64 = 240_000;

/// Outcome of running one mutant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Did not compile — excluded from the score.
    Stillborn,
    /// Detected by the named suite command.
    Killed(String),
    /// Compiled and passed the whole kill suite.
    Survived,
}

/// Restores a mutated file on drop, whatever happens to the run.
struct Restore<'a> {
    path: &'a Path,
    original: &'a str,
}

impl Drop for Restore<'_> {
    fn drop(&mut self) {
        if std::fs::write(self.path, self.original).is_err() {
            eprintln!(
                "xtask mutate: FAILED to restore {} — check `git status`",
                self.path.display()
            );
        }
    }
}

/// Runs one cargo command under the scratch target dir; `Ok(true)` means
/// it passed within the limit.
fn run_cargo(root: &Path, args: &[&str]) -> Result<bool, String> {
    use std::process::{Command, Stdio};
    let mut child = Command::new("cargo")
        .args(args)
        .current_dir(root)
        .env("CARGO_TARGET_DIR", root.join("target/mutants"))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn cargo {args:?}: {e}"))?;
    let started = std::time::Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Ok(status.success()),
            Ok(None) => {
                if started.elapsed().as_millis() as u64 > COMMAND_TIME_LIMIT_MS {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Ok(false);
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            Err(e) => return Err(format!("wait cargo {args:?}: {e}")),
        }
    }
}

/// Compiles and tests one mutant; the file is restored before returning.
fn run_mutant(root: &Path, m: &Mutant, src: &str) -> Result<Outcome, String> {
    let path = root.join(&m.file);
    let mutated = apply_mutant(src, m);
    let _restore = Restore {
        path: &path,
        original: src,
    };
    std::fs::write(&path, &mutated).map_err(|e| format!("write {}: {e}", m.file))?;
    let pkg = package_of(&m.file);
    if !run_cargo(root, &["check", "-q", "-p", pkg])? {
        return Ok(Outcome::Stillborn);
    }
    for cmd in kill_suite(pkg) {
        if !run_cargo(root, &cmd)? {
            return Ok(Outcome::Killed(cmd.join(" ")));
        }
    }
    Ok(Outcome::Survived)
}

/// Parsed `mutants.allow` manifest: (id, triage note).
pub(crate) fn parse_manifest(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((id, note)) = line.split_once('#') else {
            return Err(format!(
                "mutants.allow:{}: expected `id # triage note`",
                n + 1
            ));
        };
        let id = id.trim();
        let note = note.trim();
        let well_formed = id.len() == 16
            && id
                .chars()
                .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase());
        if !well_formed || note.is_empty() {
            return Err(format!(
                "mutants.allow:{}: need a 16-hex id and a non-empty triage note",
                n + 1
            ));
        }
        out.push((id.to_string(), note.to_string()));
    }
    Ok(out)
}

/// The manifest entries whose id matches none of the generated mutants.
pub(crate) fn stale_entries<'a>(
    manifest: &'a [(String, String)],
    all: &[Mutant],
) -> Vec<&'a (String, String)> {
    let ids: std::collections::BTreeSet<&str> = all.iter().map(|m| m.id.as_str()).collect();
    manifest
        .iter()
        .filter(|(id, _)| !ids.contains(id.as_str()))
        .collect()
}

/// CLI options for `xtask mutate`.
struct Options {
    sample: usize,
    seed: u64,
    threshold: u64,
    list: bool,
    check: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        sample: 40,
        seed: 6,
        threshold: 85,
        list: false,
        check: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .and_then(|v| v.parse().map_err(|e| format!("{name}: {e}")))
        };
        match a.as_str() {
            "--sample" => o.sample = usize::try_from(num("--sample")?).unwrap_or(usize::MAX),
            "--seed" => o.seed = num("--seed")?,
            "--threshold" => o.threshold = num("--threshold")?,
            "--list" => o.list = true,
            "--check" => o.check = true,
            other => return Err(format!("unknown mutate flag `{other}`")),
        }
    }
    Ok(o)
}

/// Entry point for `cargo xtask mutate`.
pub(crate) fn run(root: &Path, args: &[String]) -> ExitCode {
    match run_inner(root, args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("xtask mutate: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_inner(root: &Path, args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_options(args)?;
    let mut all = Vec::new();
    let mut sources: std::collections::BTreeMap<String, String> = std::collections::BTreeMap::new();
    for file in target_files(root) {
        let src =
            std::fs::read_to_string(root.join(&file)).map_err(|e| format!("read {file}: {e}"))?;
        all.extend(mutants_for(&file, &src));
        sources.insert(file, src);
    }
    all.sort_by(|a, b| (&a.file, a.start, &a.replacement).cmp(&(&b.file, b.start, &b.replacement)));

    if opts.list {
        for m in &all {
            println!(
                "{} {}:{} [{}] `{}` -> `{}`",
                m.id,
                m.file,
                m.line,
                m.op,
                m.original.replace('\n', "\\n"),
                m.replacement
            );
        }
        println!("xtask mutate: {} mutant(s) generated", all.len());
        return Ok(ExitCode::SUCCESS);
    }

    let manifest_path = root.join("crates/xtask/mutants.allow");
    let manifest = match std::fs::read_to_string(&manifest_path) {
        Ok(text) => parse_manifest(&text)?,
        Err(_) => Vec::new(),
    };

    // An allowlist id that no generated mutant carries any more — its code
    // moved or was deleted — would rot silently: name it, and fail
    // `--check` before spending a run.
    let stale = stale_entries(&manifest, &all);
    for (id, note) in &stale {
        println!("stale allowlist entry {id} matches no generated mutant: {note}");
    }
    if opts.check && !stale.is_empty() {
        println!(
            "xtask mutate: {} stale allowlist id(s) in crates/xtask/mutants.allow; re-key or drop them",
            stale.len()
        );
        return Ok(ExitCode::FAILURE);
    }

    let picked = sample_mutants(&all, opts.seed, opts.sample);
    println!(
        "xtask mutate: {} mutant(s) generated, running {} (seed {})",
        all.len(),
        picked.len(),
        opts.seed
    );

    let mut stillborn = 0usize;
    let mut killed = 0usize;
    let mut survivors: Vec<&Mutant> = Vec::new();
    for (n, m) in picked.iter().enumerate() {
        let Some(src) = sources.get(&m.file) else {
            return Err(format!("no source cached for {}", m.file));
        };
        let outcome = run_mutant(root, m, src)?;
        let (tag, extra) = match &outcome {
            Outcome::Stillborn => {
                stillborn += 1;
                ("stillborn", String::new())
            }
            Outcome::Killed(by) => {
                killed += 1;
                ("killed", format!(" by `cargo {by}`"))
            }
            Outcome::Survived => {
                survivors.push(m);
                ("SURVIVED", String::new())
            }
        };
        println!(
            "[{}/{}] {tag} {} {}:{} [{}] `{}` -> `{}`{extra}",
            n + 1,
            picked.len(),
            m.id,
            m.file,
            m.line,
            m.op,
            m.original.replace('\n', "\\n"),
            m.replacement
        );
    }

    let viable = killed + survivors.len();
    let score = if viable == 0 {
        100
    } else {
        (killed as u64) * 100 / (viable as u64)
    };
    println!(
        "xtask mutate: {viable} viable ({stillborn} stillborn), {killed} killed, {} survived — score {score}% (threshold {}%)",
        survivors.len(),
        opts.threshold
    );

    let mut failed = false;
    for s in &survivors {
        match manifest.iter().find(|(id, _)| *id == s.id) {
            Some((_, note)) => {
                println!("survivor {} is manifested: {note}", s.id);
            }
            None => {
                println!(
                    "survivor {} {}:{} [{}] `{}` -> `{}` is NOT in crates/xtask/mutants.allow",
                    s.id,
                    s.file,
                    s.line,
                    s.op,
                    s.original.replace('\n', "\\n"),
                    s.replacement
                );
                failed = true;
            }
        }
    }
    if score < opts.threshold {
        println!(
            "xtask mutate: score {score}% below threshold {}%",
            opts.threshold
        );
        failed = true;
    }
    if opts.check && failed {
        return Ok(ExitCode::FAILURE);
    }
    if !opts.check && failed {
        println!("xtask mutate: (informational run — pass --check to enforce)");
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (String, String) {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let path = "crates/demo/src/mutation_targets.rs".to_string();
        match std::fs::read_to_string(dir.join("mutation_targets.rs")) {
            Ok(src) => (path, src),
            Err(e) => panic!("fixture: {e}"),
        }
    }

    fn all_mutants() -> (String, Vec<Mutant>) {
        let (path, src) = fixture();
        let mutants = mutants_for(&path, &src);
        (src, mutants)
    }

    /// Lexes to comparable (kind, text) pairs.
    fn shape(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn substitution_mutants_change_exactly_one_token() {
        let (src, mutants) = all_mutants();
        let before = shape(&src);
        for m in mutants.iter().filter(|m| !m.replacement.is_empty()) {
            let after = shape(&apply_mutant(&src, m));
            assert_eq!(before.len(), after.len(), "{m:?}");
            let diffs: Vec<usize> = (0..before.len())
                .filter(|&i| before[i] != after[i])
                .collect();
            assert_eq!(diffs.len(), 1, "{m:?}");
            assert_eq!(after[diffs[0]].1, m.replacement, "{m:?}");
        }
    }

    #[test]
    fn deletion_mutants_remove_a_contiguous_token_run() {
        let (src, mutants) = all_mutants();
        let before = shape(&src);
        let deletions: Vec<&Mutant> = mutants
            .iter()
            .filter(|m| m.replacement.is_empty())
            .collect();
        assert!(!deletions.is_empty(), "fixture must produce deletions");
        for m in &deletions {
            let after = shape(&apply_mutant(&src, m));
            assert!(after.len() < before.len(), "{m:?}");
            // The surviving stream must be original-prefix + original-suffix.
            let removed = before.len() - after.len();
            let mut split = after.len();
            for i in 0..after.len() {
                if before[i] != after[i] {
                    split = i;
                    break;
                }
            }
            assert_eq!(&after[split..], &before[split + removed..], "{m:?}");
        }
    }

    #[test]
    fn applied_mutants_still_lex_and_ids_are_stable() {
        let (src, mutants) = all_mutants();
        assert!(!mutants.is_empty());
        let mut ids = std::collections::BTreeSet::new();
        for m in &mutants {
            assert_eq!(m.id.len(), 16, "{m:?}");
            assert!(ids.insert(m.id.clone()), "duplicate id {m:?}");
            assert_eq!(&src[..0], "", "spans are char indices");
            let mutated = apply_mutant(&src, m);
            assert_ne!(mutated, src, "{m:?}");
            // Round trip: splicing the original text back restores the file.
            let restored = {
                let head: String = mutated.chars().take(m.start).collect();
                let tail: String = mutated
                    .chars()
                    .skip(m.start + m.replacement.chars().count())
                    .collect();
                format!("{head}{}{tail}", m.original)
            };
            assert_eq!(restored, src, "{m:?}");
        }
    }

    /// A function inserted above every other, and a doc comment added
    /// between two functions, move every char offset of the file but no
    /// mutant's enclosing function or its place in it: every id survives.
    #[test]
    fn ids_survive_edits_outside_their_function() {
        let (path, src) = fixture();
        let ids = |src: &str| -> std::collections::BTreeSet<String> {
            mutants_for(&path, src).into_iter().map(|m| m.id).collect()
        };
        let before = ids(&src);
        let edited = src
            .replacen(
                "pub fn arith",
                "fn inserted(a: u64) -> u64 {\n    a + 7\n}\n\npub fn arith",
                1,
            )
            .replacen("fn done(", "/// Whether `a` is spent.\nfn done(", 1);
        let after = ids(&edited);
        assert!(before.is_subset(&after), "{:?}", before.difference(&after));
        // The new function brings its own three: `+` -> `-`, 7 -> 8, 7 -> 6.
        assert_eq!(after.len(), before.len() + 3);
    }

    #[test]
    fn every_operator_class_appears() {
        let (_, mutants) = all_mutants();
        let ops: std::collections::BTreeSet<&str> = mutants.iter().map(|m| m.op).collect();
        for op in [
            "op-swap",
            "cmp-swap",
            "logic-swap",
            "negation-del",
            "int-tweak",
            "arm-del",
            "return-del",
        ] {
            assert!(ops.contains(op), "missing {op}: have {ops:?}");
        }
    }

    #[test]
    fn guards_leave_types_tests_and_attributes_alone() {
        let (src, mutants) = all_mutants();
        // No mutant may touch the generics-heavy function: its only
        // angle brackets and `+`-free body offer nothing mutable
        // except guarded positions.
        let generics_at = src.find("fn generics_must_survive").unwrap_or(0);
        let tests_at = src.find("#[cfg(test)]").unwrap_or(src.len());
        for m in &mutants {
            let byte = src
                .char_indices()
                .nth(m.start)
                .map_or(src.len(), |(b, _)| b);
            assert!(
                !(generics_at..tests_at).contains(&byte),
                "mutant inside guarded generics fn: {m:?}"
            );
            assert!(byte < tests_at, "mutant inside #[cfg(test)]: {m:?}");
        }
    }

    #[test]
    fn sampling_is_deterministic_and_order_preserving() {
        let (_, mutants) = all_mutants();
        let a = sample_mutants(&mutants, 6, 5);
        let b = sample_mutants(&mutants, 6, 5);
        let ids = |v: &[Mutant]| v.iter().map(|m| m.id.clone()).collect::<Vec<_>>();
        assert_eq!(ids(&a), ids(&b));
        assert_eq!(a.len(), 5);
        // Samples come back in source order.
        for w in a.windows(2) {
            assert!(w[0].start < w[1].start || w[0].file != w[1].file);
        }
        // A different seed picks a different subset (overwhelmingly).
        let c = sample_mutants(&mutants, 7, 5);
        assert_ne!(ids(&a), ids(&c));
        // Oversampling returns everything.
        assert_eq!(sample_mutants(&mutants, 6, 10_000).len(), mutants.len());
    }

    #[test]
    fn stale_entries_are_the_ids_no_mutant_carries() {
        let (_, mutants) = all_mutants();
        let live = mutants[0].id.clone();
        let manifest = vec![
            (live, "still generated".to_owned()),
            ("0123456789abcdef".to_owned(), "code moved".to_owned()),
        ];
        let stale = stale_entries(&manifest, &mutants);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].0, "0123456789abcdef");
        assert!(stale_entries(&manifest[..1], &mutants).is_empty());
    }

    #[test]
    fn manifest_lines_require_ids_and_notes() {
        let good = "0123456789abcdef # equivalent mutant: rounding identity\n";
        assert_eq!(parse_manifest(good).map(|v| v.len()), Ok(1));
        assert!(
            parse_manifest("0123456789abcdef\n").is_err(),
            "note required"
        );
        assert!(parse_manifest("xyz # short id\n").is_err());
        assert!(parse_manifest("0123456789ABCDEF # uppercase\n").is_err());
        let commented = "# heading\n\n0123456789abcdef # fine\n";
        assert_eq!(parse_manifest(commented).map(|v| v.len()), Ok(1));
    }
}

#[cfg(test)]
mod sample_pins {
    use super::*;

    /// Seed-6 sample over the fixture corpus, pinned by id. Ids hash the
    /// file, the enclosing function, the token's place in it and the
    /// replacement, so a drift here means either the fixture changed or
    /// the generator/sampler changed behaviour — both are worth a
    /// deliberate re-pin, never an accident.
    #[test]
    fn seed_six_sample_is_pinned() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let src = match std::fs::read_to_string(dir.join("mutation_targets.rs")) {
            Ok(s) => s,
            Err(e) => panic!("fixture: {e}"),
        };
        let mutants = mutants_for("crates/demo/src/mutation_targets.rs", &src);
        let picked: Vec<(String, &'static str)> = sample_mutants(&mutants, 6, 4)
            .into_iter()
            .map(|m| (m.id, m.op))
            .collect();
        let expected = [
            ("19f6a397322e2fc0", "logic-swap"),
            ("dcf56cbfddad46ac", "return-del"),
            ("ef6481e47ff05ef6", "op-swap"),
            ("16f2d39f8da8f4d1", "int-tweak"),
        ];
        let got: Vec<(&str, &str)> = picked.iter().map(|(id, op)| (id.as_str(), *op)).collect();
        assert_eq!(got, expected);
    }
}
