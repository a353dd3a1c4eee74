//! `cargo xtask audit` — reachability-based determinism audit.
//!
//! The pass extracts every function symbol in the workspace, builds a
//! name-resolved call graph, computes the set of functions reachable
//! from the determinism-critical roots (`Simulation::run_*`,
//! `SweepGrid::run_*`, `parallel_map`, the `mdr-verify` checker entry
//! points, and every public seed-taking function), and then checks each
//! reachable body against the determinism rules:
//!
//! * `wall-clock` — no `SystemTime` / `Instant`: replayable runs must
//!   take time only from the simulated clock.
//! * `ambient-rng` — no `thread_rng` / `from_entropy` / `OsRng` /
//!   `rand::random`: all randomness must flow from an explicit seed.
//! * `unblessed-rng` — RNG construction (`seed_from_u64` / `from_seed` /
//!   `from_rng`) is only legitimate when fed by the SplitMix64
//!   `derive_seed` helpers; every construction site must be allowlisted
//!   with a justification naming its seed stream.
//! * `map-iteration` — no iteration over `HashMap`/`HashSet`-typed
//!   bindings: hash iteration order varies across processes and would
//!   desynchronize serial and parallel sweep ledgers.
//!
//! A separate workspace-wide pass, `deprecated-use`, reports internal
//! (non-test) calls to `#[deprecated]` symbols regardless of
//! reachability.
//!
//! Findings carry the full root→…→function call chain so a reader can
//! see *why* a helper is considered determinism-critical. Triaged
//! exceptions live in `crates/xtask/audit.allow`.

use crate::callgraph::{calls_in, Resolver};
use crate::lexer::TokenKind;
use crate::symbols::{extract, FileSymbols, Symbol, ITER_METHODS};
use std::collections::BTreeMap;
use std::fmt;

/// One audit finding.
#[derive(Debug, Clone)]
pub(crate) struct Finding {
    /// Rule id (`wall-clock`, `ambient-rng`, `unblessed-rng`,
    /// `map-iteration`, `deprecated-use`).
    pub rule: &'static str,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// Id of the containing function symbol (the allowlist key).
    pub symbol: String,
    /// Root→…→function chain that makes the symbol reachable.
    pub chain: String,
    /// Human-readable description of the offense.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: audit[{}] {} in `{}` (reachable via {})",
            self.file, self.line, self.rule, self.detail, self.symbol, self.chain
        )
    }
}

/// One triaged exception from `audit.allow`.
#[derive(Debug, Clone)]
pub(crate) struct AllowEntry {
    /// Rule the exception applies to.
    pub rule: String,
    /// Symbol id the exception applies to.
    pub symbol: String,
    /// Mandatory justification.
    pub note: String,
}

/// Parses the allowlist format: one `rule symbol-id # justification`
/// per line; blank lines and full-line `#` comments are skipped. The
/// justification is mandatory — an exception without a reason is a
/// finding waiting to be forgotten.
pub(crate) fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, note) = match line.split_once('#') {
            Some((h, c)) => (h.trim(), c.trim()),
            None => (line, ""),
        };
        let mut parts = head.split_whitespace();
        let (Some(rule), Some(symbol), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!(
                "audit.allow:{}: expected `rule symbol-id # justification`",
                n + 1
            ));
        };
        if note.is_empty() {
            return Err(format!(
                "audit.allow:{}: entry `{rule} {symbol}` is missing its justification comment",
                n + 1
            ));
        }
        entries.push(AllowEntry {
            rule: rule.to_string(),
            symbol: symbol.to_string(),
            note: note.to_string(),
        });
    }
    Ok(entries)
}

/// Result of one audit run.
#[derive(Debug)]
pub(crate) struct AuditReport {
    /// Unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// One line per allowlist suppression: `rule symbol — justification`.
    pub suppressed: Vec<String>,
    /// Allowlist entries that matched nothing — stale triage.
    pub unused_allow: Vec<String>,
    /// Total function symbols extracted.
    pub symbols: usize,
    /// Symbols reachable from the determinism roots.
    pub reachable: usize,
}

/// Identifiers whose mere mention in a reachable body is a wall-clock
/// dependency.
const WALL_CLOCK_IDENTS: &[&str] = &["SystemTime", "Instant"];

/// Identifiers that pull entropy from the environment.
const AMBIENT_RNG_IDENTS: &[&str] = &["thread_rng", "from_entropy", "OsRng"];

/// RNG construction methods — legitimate only when fed by
/// `derive_seed`, which the allowlist certifies per site.
const RNG_CONSTRUCTORS: &[&str] = &["seed_from_u64", "from_seed", "from_rng"];

/// The verify-crate entry points treated as audit roots.
const VERIFY_ROOTS: &[&str] = &["check", "check_state", "sweep", "faulty_sweep"];

/// Runs the audit over in-memory `(path, source)` pairs.
pub(crate) fn audit_sources(files: &[(String, String)], allow: &[AllowEntry]) -> AuditReport {
    let parsed: Vec<FileSymbols> = files.iter().map(|(p, s)| extract(p, s)).collect();

    // Flatten the symbol table; remember which file each symbol lives in.
    let mut symbols: Vec<Symbol> = Vec::new();
    let mut sym_file: Vec<usize> = Vec::new();
    for (fi, fs) in parsed.iter().enumerate() {
        for s in &fs.symbols {
            symbols.push(s.clone());
            sym_file.push(fi);
        }
    }
    let resolver = Resolver::new(&symbols);

    // Roots: the protocol/sweep drivers, the parallel fan-out, the
    // verify checker, and every public seeded entry point (this is what
    // extends coverage into mdr-core / mdr-multi / mdr-adversary).
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in symbols.iter().enumerate() {
        if s.is_test {
            continue;
        }
        let run_owner = matches!(s.owner.as_deref(), Some("Simulation" | "SweepGrid"));
        let is_root = (run_owner && s.name.starts_with("run"))
            || s.name == "parallel_map"
            || (s.file.starts_with("crates/verify/src/")
                && VERIFY_ROOTS.contains(&s.name.as_str()))
            || (s.is_pub && s.takes_seed);
        if is_root {
            roots.push(i);
        }
    }

    // BFS over name-resolved call edges; `parent` doubles as the
    // visited set and reconstructs chains.
    let mut parent: Vec<Option<usize>> = vec![None; symbols.len()];
    let mut seen: Vec<bool> = vec![false; symbols.len()];
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for &r in &roots {
        if !seen[r] {
            seen[r] = true;
            queue.push_back(r);
        }
    }
    while let Some(cur) = queue.pop_front() {
        let Some(body) = symbols[cur].body else {
            continue;
        };
        let fs = &parsed[sym_file[cur]];
        for call in calls_in(&fs.tokens, body) {
            for cand in resolver.resolve(&symbols, &call) {
                if symbols[cand].is_test || seen[cand] {
                    continue;
                }
                seen[cand] = true;
                parent[cand] = Some(cur);
                queue.push_back(cand);
            }
        }
    }
    let reachable = seen.iter().filter(|s| **s).count();

    let chain_of = |mut i: usize| -> String {
        let mut ids = vec![symbols[i].id.clone()];
        while let Some(p) = parent[i] {
            ids.push(symbols[p].id.clone());
            i = p;
        }
        ids.reverse();
        ids.join(" -> ")
    };

    let mut findings: Vec<Finding> = Vec::new();

    // Determinism rules over every reachable body.
    for (i, s) in symbols.iter().enumerate() {
        if !seen[i] {
            continue;
        }
        let Some(body) = s.body else { continue };
        let fs = &parsed[sym_file[i]];
        let chain = chain_of(i);
        body_findings(fs, s, body, &chain, &mut findings);
    }

    // Workspace-wide deprecated-use pass: internal callers of
    // `#[deprecated]` symbols, reachable or not.
    for (i, s) in symbols.iter().enumerate() {
        if s.is_test {
            continue;
        }
        let Some(body) = s.body else { continue };
        let fs = &parsed[sym_file[i]];
        for call in calls_in(&fs.tokens, body) {
            let cands = resolver.resolve(&symbols, &call);
            if cands.is_empty() || !cands.iter().all(|&c| symbols[c].deprecated) {
                continue;
            }
            let target = &symbols[cands[0]];
            findings.push(Finding {
                rule: "deprecated-use",
                file: s.file.clone(),
                line: call.line,
                symbol: s.id.clone(),
                chain: s.id.clone(),
                detail: format!(
                    "call to deprecated `{}` (declared at {}:{})",
                    target.id, target.file, target.line
                ),
            });
        }
    }

    // Apply the allowlist.
    let mut used = vec![false; allow.len()];
    let mut suppressed = Vec::new();
    findings.retain(|f| {
        let hit = allow
            .iter()
            .position(|a| a.rule == f.rule && a.symbol == f.symbol);
        if let Some(k) = hit {
            used[k] = true;
            suppressed.push(format!(
                "{} {} — {}",
                allow[k].rule, allow[k].symbol, allow[k].note
            ));
            false
        } else {
            true
        }
    });
    let unused_allow: Vec<String> = allow
        .iter()
        .zip(&used)
        .filter(|(_, u)| !**u)
        .map(|(a, _)| format!("{} {}", a.rule, a.symbol))
        .collect();

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.detail).cmp(&(&b.file, b.line, b.rule, &b.detail))
    });

    AuditReport {
        findings,
        suppressed,
        unused_allow,
        symbols: symbols.len(),
        reachable,
    }
}

/// Applies the per-body determinism rules and appends findings.
fn body_findings(
    fs: &FileSymbols,
    sym: &Symbol,
    body: (usize, usize),
    chain: &str,
    out: &mut Vec<Finding>,
) {
    let tokens = &fs.tokens;
    let (start, end) = body;
    let end = end.min(tokens.len());
    let mut push = |rule: &'static str, line: usize, detail: String| {
        out.push(Finding {
            rule,
            file: sym.file.clone(),
            line,
            symbol: sym.id.clone(),
            chain: chain.to_string(),
            detail,
        });
    };
    for t in start..end {
        let tok = &tokens[t];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let name = tok.text.as_str();
        if WALL_CLOCK_IDENTS.contains(&name) {
            push("wall-clock", tok.line, format!("wall-clock type `{name}`"));
        }
        if AMBIENT_RNG_IDENTS.contains(&name) {
            push("ambient-rng", tok.line, format!("ambient entropy `{name}`"));
        }
        if name == "random"
            && t >= 2
            && tokens[t - 1].is_punct("::")
            && tokens[t - 2].is_ident("rand")
        {
            push(
                "ambient-rng",
                tok.line,
                "ambient `rand::random`".to_string(),
            );
        }
        if RNG_CONSTRUCTORS.contains(&name) && t > 0 && tokens[t - 1].is_punct("::") {
            push(
                "unblessed-rng",
                tok.line,
                format!("RNG construction `{name}`"),
            );
        }
        // Map-iteration: `name.iter()`-style calls and `for … in
        // [&][mut] [self.]name` loops over hash-typed bindings.
        if fs.hash_names.binary_search(&tok.text).is_ok() {
            if tokens.get(t + 1).is_some_and(|n| n.is_punct("."))
                && tokens
                    .get(t + 2)
                    .is_some_and(|m| ITER_METHODS.contains(&m.text.as_str()))
                && tokens.get(t + 3).is_some_and(|p| p.is_punct("("))
            {
                push(
                    "map-iteration",
                    tok.line,
                    format!(
                        "hash-order iteration `{}.{}()`",
                        tok.text,
                        tokens[t + 2].text
                    ),
                );
            }
            let mut b = t;
            if b >= 2 && tokens[b - 1].is_punct(".") && tokens[b - 2].is_ident("self") {
                b -= 2;
            }
            while b > 0 && (tokens[b - 1].is_punct("&") || tokens[b - 1].is_ident("mut")) {
                b -= 1;
            }
            if b > 0 && tokens[b - 1].is_ident("in") {
                push(
                    "map-iteration",
                    tok.line,
                    format!("hash-order `for … in {}`", tok.text),
                );
            }
        }
    }
}

/// Summary map of deprecated symbols to their internal (non-test)
/// caller counts — the dead/deprecated-symbol report.
pub(crate) fn deprecated_symbols(files: &[(String, String)]) -> BTreeMap<String, usize> {
    let parsed: Vec<FileSymbols> = files.iter().map(|(p, s)| extract(p, s)).collect();
    let mut symbols: Vec<Symbol> = Vec::new();
    let mut sym_file: Vec<usize> = Vec::new();
    for (fi, fs) in parsed.iter().enumerate() {
        for s in &fs.symbols {
            symbols.push(s.clone());
            sym_file.push(fi);
        }
    }
    let resolver = Resolver::new(&symbols);
    let mut out: BTreeMap<String, usize> = symbols
        .iter()
        .filter(|s| s.deprecated)
        .map(|s| (s.id.clone(), 0usize))
        .collect();
    for (i, s) in symbols.iter().enumerate() {
        if s.is_test {
            continue;
        }
        let Some(body) = s.body else { continue };
        for call in calls_in(&parsed[sym_file[i]].tokens, body) {
            // Same conservative criterion as the findings pass: a call
            // counts only when every same-named candidate is deprecated
            // (or the qualified lookup resolved it uniquely), so common
            // names like `new` don't inflate the tally.
            let cands = resolver.resolve(&symbols, &call);
            if cands.is_empty() || !cands.iter().all(|&c| symbols[c].deprecated) {
                continue;
            }
            for c in cands {
                if let Some(n) = out.get_mut(&symbols[c].id) {
                    *n += 1;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(name: &str) -> String {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        match std::fs::read_to_string(dir.join(name)) {
            Ok(src) => src,
            Err(e) => panic!("fixture {name}: {e}"),
        }
    }

    fn audit_fixture(name: &str, allow: &[AllowEntry]) -> AuditReport {
        let files = vec![(format!("crates/demo/src/{name}"), fixture(name))];
        audit_sources(&files, allow)
    }

    fn rules(report: &AuditReport) -> Vec<&str> {
        report.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn every_rule_fires_on_the_positive_fixture() {
        let report = audit_fixture("audit_findings.rs", &[]);
        let rules = rules(&report);
        let count = |r: &str| rules.iter().filter(|x| **x == r).count();
        assert_eq!(count("wall-clock"), 1, "{rules:?}");
        assert_eq!(
            count("ambient-rng"),
            2,
            "thread_rng + rand::random: {rules:?}"
        );
        assert_eq!(count("unblessed-rng"), 1, "{rules:?}");
        // `for … in &counts`, `counts.values()` and its enclosing
        // `for … in` receiver each flag.
        assert_eq!(count("map-iteration"), 3, "{rules:?}");
        assert_eq!(count("deprecated-use"), 1, "{rules:?}");
    }

    #[test]
    fn findings_reach_through_the_call_graph() {
        // The map-iteration offenses live in the *private* `helper`,
        // reachable only via the seeded root; the chain must say so.
        let report = audit_fixture("audit_findings.rs", &[]);
        let finding = report
            .findings
            .iter()
            .find(|f| f.rule == "map-iteration")
            .expect("map-iteration fires");
        assert!(finding.symbol.ends_with("::helper"), "{}", finding.symbol);
        assert!(
            finding.chain.contains("run_cell") && finding.chain.contains("->"),
            "chain should walk root -> helper: {}",
            finding.chain
        );
    }

    #[test]
    fn the_clean_fixture_is_clean() {
        let report = audit_fixture("audit_clean.rs", &[]);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        // The unreachable helper and the test module exist but are not
        // audited: reachable < total.
        assert!(report.reachable < report.symbols);
    }

    #[test]
    fn allowlist_suppresses_exactly_its_entries() {
        let allow = vec![AllowEntry {
            rule: "unblessed-rng".to_string(),
            symbol: "demo::audit_findings::run_cell".to_string(),
            note: "fixture triage".to_string(),
        }];
        let report = audit_fixture("audit_findings.rs", &allow);
        assert!(!rules(&report).contains(&"unblessed-rng"));
        assert_eq!(report.suppressed.len(), 1);
        assert!(report.unused_allow.is_empty());
        // Wrong symbol: nothing matches, entry is reported stale.
        let stale = vec![AllowEntry {
            rule: "unblessed-rng".to_string(),
            symbol: "demo::other::nope".to_string(),
            note: "stale".to_string(),
        }];
        let report = audit_fixture("audit_findings.rs", &stale);
        assert!(rules(&report).contains(&"unblessed-rng"));
        assert_eq!(report.unused_allow.len(), 1);
    }

    #[test]
    fn allowlist_requires_a_justification() {
        assert!(parse_allowlist("unblessed-rng a::b # seeded via derive_seed").is_ok());
        assert!(parse_allowlist("unblessed-rng a::b").is_err());
        assert!(parse_allowlist("unblessed-rng a::b #   ").is_err());
        assert!(parse_allowlist("too many words here # note").is_err());
        // Blank lines and full-line comments are fine.
        let parsed = parse_allowlist("# header\n\nwall-clock x::y # reason\n");
        assert_eq!(parsed.map(|v| v.len()), Ok(1));
    }

    #[test]
    fn deprecated_pass_counts_internal_users() {
        let files = vec![(
            "crates/demo/src/audit_findings.rs".to_string(),
            fixture("audit_findings.rs"),
        )];
        let map = deprecated_symbols(&files);
        assert_eq!(map.len(), 1);
        let users = map.values().copied().next();
        assert_eq!(users, Some(1), "exactly the `caller` site");
    }
}
