//! The determinism-contract rules.
//!
//! Every rule is a token-level pattern over the output of [`crate::lexer`].
//! Rules never look inside comments or string literals (the lexer already
//! classified those), so prose about a hazard never trips the lint — only
//! code does.

use crate::lexer::{Token, TokenKind};

/// A single raw finding produced by a rule, before suppression matching.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// Id of the rule that fired.
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description of the specific occurrence.
    pub message: String,
}

/// A named rule of the determinism contract.
pub struct Rule {
    /// Stable id, used in findings, suppressions, and `--explain`.
    pub id: &'static str,
    /// One-line summary shown in listings.
    pub summary: &'static str,
    /// The fix hint attached to every finding.
    pub hint: &'static str,
    /// Long-form documentation for `--explain`.
    pub explain: &'static str,
    /// Path suffixes (workspace-relative, `/`-separated) where the rule is
    /// switched off wholesale — e.g. dedicated timing modules for
    /// `ambient-time`. Everywhere else, exemptions must be inline
    /// annotations so they are visible, reasoned, and counted.
    pub allowed_path_suffixes: &'static [&'static str],
    /// When non-empty, the rule applies **only** to files whose path ends
    /// with one of these suffixes — the inverse of `allowed_path_suffixes`,
    /// for rules that police a specific hot module (e.g. `hot-path-alloc`)
    /// rather than the whole workspace.
    pub only_path_suffixes: &'static [&'static str],
    check: fn(&[Token]) -> Vec<RawFinding>,
}

impl Rule {
    /// Runs the rule over a token stream, honouring the path allow- and
    /// scope-lists.
    pub fn check(&self, rel_path: &str, tokens: &[Token]) -> Vec<RawFinding> {
        if self
            .allowed_path_suffixes
            .iter()
            .any(|suffix| rel_path.ends_with(suffix))
        {
            return Vec::new();
        }
        if !self.only_path_suffixes.is_empty()
            && !self
                .only_path_suffixes
                .iter()
                .any(|suffix| rel_path.ends_with(suffix))
        {
            return Vec::new();
        }
        (self.check)(tokens)
    }
}

/// The rule table, in the order findings are reported.
pub const RULES: &[Rule] = &[
    Rule {
        id: "hashmap-iter",
        summary: "HashMap/HashSet in workspace code (randomized iteration order)",
        hint: "use BTreeMap/BTreeSet (or sort before iterating); if the collection is \
               provably never iterated (membership/lookup only), annotate the line with \
               // lbs-lint: allow(hashmap-iter, reason = \"...\")",
        explain: "Iterating std::collections::HashMap or HashSet yields elements in an \
                  order that changes between processes (SipHash keys are randomized per \
                  run via RandomState). Any estimate, report, CSV, or scheduling decision \
                  derived from that order breaks the bit-identical determinism contract \
                  the estimators, sessions, and scheduler promise — this exact bug class \
                  was hand-fixed in PR 2 (History, explorer known-set, RankOracle \
                  companions). The rule flags every HashMap/HashSet type or constructor \
                  token outside `use` declarations, because whether a map is iterated is \
                  a global property a token scanner cannot prove; membership-only caches \
                  are fine and should carry an inline allow stating that invariant.",
        allowed_path_suffixes: &[],
        only_path_suffixes: &[],
        check: check_hashmap_iter,
    },
    Rule {
        id: "float-ord",
        summary: "partial_cmp-based float comparison in comparators",
        hint: "use f64::total_cmp (total order, NaN-safe, deterministic); \
               .unwrap_or(Ordering::Equal) on partial_cmp makes the comparator \
               inconsistent and the sort implementation-defined",
        explain: "sort_by/max_by/min_by comparators built on partial_cmp are a trap: \
                  `.unwrap()` panics on NaN, and `.unwrap_or(Ordering::Equal)` silently \
                  produces an inconsistent comparator, making the sort order \
                  implementation-defined — the tie/NaN ranking bugs fixed by hand in \
                  PR 4. f64::total_cmp is a total order (IEEE 754 totalOrder), is \
                  identical to partial_cmp on the finite values real queries produce, \
                  and keeps every ranking deterministic. The rule flags every \
                  `partial_cmp` call token; defining `fn partial_cmp` for a PartialOrd \
                  impl is not flagged (delegate it to an Ord impl built on total_cmp).",
        allowed_path_suffixes: &[],
        only_path_suffixes: &[],
        check: check_float_ord,
    },
    Rule {
        id: "ambient-time",
        summary: "Instant::now/SystemTime::now outside allowlisted timing modules",
        hint: "route wall-clock reads through the loadtest timing module, or \
               annotate result-neutral uses with // lbs-lint: allow(ambient-time, \
               reason = \"...\") stating why no estimate depends on the value",
        explain: "Ambient wall-clock reads (std::time::Instant::now, SystemTime::now) \
                  make control flow depend on machine speed. On a result-affecting path \
                  (wave scheduling, early-stop, cache eviction) they silently break \
                  checkpoint/resume bit-identity and the served==batch contract: a run \
                  resumed on a slower machine would take a different branch. Timing \
                  belongs in the dedicated measurement module (the server's loadtest \
                  probe, which measures request latencies), which is allowlisted; \
                  anywhere else the use must be annotated with a reason explaining why \
                  the value never feeds back into an estimate.",
        allowed_path_suffixes: &["crates/server/src/loadtest.rs"],
        only_path_suffixes: &[],
        check: check_ambient_time,
    },
    Rule {
        id: "ambient-rng",
        summary: "entropy-based RNG outside the seeded (root_seed, sample_index) plumbing",
        hint: "derive randomness from the seeded driver plumbing \
               (StdRng::seed_from_u64 over sample_seed(root_seed, sample_index)); \
               never draw from process entropy",
        explain: "All randomness in the workspace flows from an explicit \
                  (root_seed, sample_index) derivation so that every estimate is \
                  reproducible bit for bit at any thread count. Entropy sources — \
                  thread_rng, ThreadRng, SmallRng/StdRng::from_entropy, OsRng, \
                  getrandom, rand::random, or hasher RandomState — inject per-process \
                  nondeterminism that no seed can replay. The vendored rand subset \
                  deliberately ships no entropy constructor; this rule keeps it that \
                  way when code is written against upstream rand docs.",
        allowed_path_suffixes: &[],
        only_path_suffixes: &[],
        check: check_ambient_rng,
    },
    Rule {
        id: "stray-seed-derivation",
        summary: "ad-hoc StdRng::seed_from_u64 inside estimator/session sampling code",
        hint: "derive per-sample and per-stratum seeds through the blessed helpers in \
               crates/core/src/driver.rs (sample_seed, stratum_seed) and let the \
               driver construct the StdRng; seeding an RNG inline in sampling code \
               creates a parallel seed scheme that silently drifts from the contract",
        explain: "Every RNG in the estimator pipeline is built from one derivation \
                  chain — sample_seed(root_seed, sample_index) for per-sample streams \
                  and stratum_seed(root_seed, stratum_id, stratum_count) for the \
                  per-stratum child sessions of the stratified combiner — so that \
                  estimates are bit-identical at any thread count, at any \
                  checkpoint/resume cut, and across the flat and stratified paths. \
                  A direct StdRng::seed_from_u64 call inside sampling code (the \
                  modules that name `sample_once`, `SampleEstimator` or \
                  `stratum_seed`: the estimators, the generic session and the \
                  stratified combiner) bypasses that chain: two strata or two \
                  samples can end up on correlated streams, \
                  and a refactor of the ad-hoc seed expression changes every \
                  committed reference number. The driver module, the one sanctioned \
                  home of the derivation, is allowlisted; test modules are exempt \
                  because fixture seeding does not feed the production chain.",
        allowed_path_suffixes: &["crates/core/src/driver.rs"],
        only_path_suffixes: &[],
        check: check_stray_seed_derivation,
    },
    Rule {
        id: "unsafe-block",
        summary: "`unsafe` outside vendor/",
        hint: "rewrite in safe Rust; every workspace crate carries \
               #![forbid(unsafe_code)], so this should be unreachable outside \
               generated or fixture code",
        explain: "The workspace promises memory safety and determinism with zero \
                  `unsafe` outside the vendored dependency stand-ins. Every crate \
                  backs this with #![forbid(unsafe_code)]; the lint re-checks it \
                  token-level so that the guarantee also covers code the compiler \
                  does not see (fixtures, doc snippets compiled elsewhere, cfg'd-out \
                  modules) and survives someone deleting the attribute.",
        allowed_path_suffixes: &[],
        only_path_suffixes: &[],
        check: check_unsafe_block,
    },
    Rule {
        id: "nondet-debug-fmt",
        summary: "Debug-formatting ({:?}) in output-producing macros",
        hint: "format fields explicitly (Display, or iterate a sorted view); if the \
               value is an enum or ordered type whose Debug output is deterministic, \
               annotate with // lbs-lint: allow(nondet-debug-fmt, reason = \"...\")",
        explain: "`{:?}` on an unordered collection (HashMap, HashSet) prints elements \
                  in randomized iteration order, so a report, CSV, log line, or error \
                  string built with Debug formatting can differ between identical runs \
                  — poison for byte-identical committed artifacts. The rule flags \
                  Debug/pretty-Debug specs inside the output-producing macros \
                  (format!, print!, println!, eprint!, eprintln!, write!, writeln!); \
                  assert/panic messages are exempt because they only render on a path \
                  that already fails the run. Deterministic Debug impls (fieldless \
                  enums, Vec, BTreeMap) are safe and should carry an inline allow \
                  naming the type.",
        allowed_path_suffixes: &[],
        only_path_suffixes: &[],
        check: check_nondet_debug_fmt,
    },
    Rule {
        id: "cache-key-float",
        summary: "raw f64 bit handling next to CacheKey (bypasses key canonicalization)",
        hint: "build answer-cache keys exclusively through CacheKey::for_query, which \
               canonicalizes -0.0 and NaN before hashing; never feed raw to_bits()/ \
               integer casts of query coordinates into a key",
        explain: "The answer cache's determinism rests on one invariant: every key is \
                  built by CacheKey::for_query, the single place that canonicalizes \
                  float payloads (-0.0 folds onto 0.0, every NaN onto the quiet NaN \
                  pattern) before the bits enter the BTreeMap order. Code that touches \
                  CacheKey while also converting floats to raw bits — f64::to_bits, \
                  f64::from_bits, or `as`-casts to integer types — is one refactor away \
                  from keying on uncanonicalized bits, where a -0.0 query point misses \
                  the 0.0 entry and two NaN-bearing points collide or diverge by sign \
                  bit. The rule therefore fires on those conversions only in files that \
                  name CacheKey; the cache module itself, whose constructor is the one \
                  sanctioned home of the conversion, is allowlisted.",
        allowed_path_suffixes: &["crates/service/src/cache.rs"],
        only_path_suffixes: &[],
        check: check_cache_key_float,
    },
    Rule {
        id: "hot-path-alloc",
        summary: "per-call heap allocation inside the cell-geometry hot modules",
        hint: "reuse a ClipScratch buffer (clear + extend) instead of allocating per \
               build; if the allocation escapes into the returned value or is \
               provably outside the per-sample loop, annotate the line with \
               // lbs-lint: allow(hot-path-alloc, reason = \"...\")",
        explain: "Every estimator sample funnels through the pruned cell constructions \
                  of crates/geom/src/cell_engine.rs and the enumerators of \
                  crates/geom/src/topk_cell.rs; a single Vec::new, vec![…], .to_vec() \
                  or .collect() in those loops turns into millions of allocator \
                  round-trips per run — the exact regression class the ClipScratch \
                  arena (crates/geom/src/scratch.rs) removed. The rule is scoped to \
                  the two hot modules (only_path_suffixes) because allocation is \
                  perfectly fine elsewhere; within them, every allocating idiom must \
                  either go through the arena or carry a reasoned allow (result \
                  ownership, cold setup path). Code after the #[cfg(test)] boundary \
                  is exempt, as the test module is the tail of the file by workspace \
                  convention. The counting-allocator test tests/cell_allocations.rs \
                  enforces the same budget dynamically; this rule catches offenders \
                  at review time, before they cost a test run.",
        allowed_path_suffixes: &[],
        only_path_suffixes: &[
            "crates/geom/src/cell_engine.rs",
            "crates/geom/src/topk_cell.rs",
        ],
        check: check_hot_path_alloc,
    },
];

/// Looks up a rule by id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    tokens.get(i).and_then(|t| {
        if t.kind == TokenKind::Ident {
            Some(t.text.as_str())
        } else {
            None
        }
    })
}

fn punct_at(tokens: &[Token], i: usize) -> Option<&str> {
    tokens.get(i).and_then(|t| {
        if t.kind == TokenKind::Punct {
            Some(t.text.as_str())
        } else {
            None
        }
    })
}

fn check_hashmap_iter(tokens: &[Token]) -> Vec<RawFinding> {
    let mut findings = Vec::new();
    let mut in_use_decl = false;
    for t in tokens {
        match t.kind {
            TokenKind::Ident if t.text == "use" => in_use_decl = true,
            TokenKind::Punct if t.text == ";" => in_use_decl = false,
            TokenKind::Ident if !in_use_decl && (t.text == "HashMap" || t.text == "HashSet") => {
                findings.push(RawFinding {
                    rule: "hashmap-iter",
                    line: t.line,
                    message: format!("`{}` has a randomized iteration order", t.text),
                });
            }
            _ => {}
        }
    }
    findings
}

fn check_float_ord(tokens: &[Token]) -> Vec<RawFinding> {
    let mut findings = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "partial_cmp" {
            continue;
        }
        // `fn partial_cmp` is a PartialOrd impl's required method name, not a
        // float comparison.
        if i > 0 && ident_at(tokens, i - 1) == Some("fn") {
            continue;
        }
        findings.push(RawFinding {
            rule: "float-ord",
            line: t.line,
            message: "`partial_cmp` used as a comparator (NaN-unsafe partial order)".to_string(),
        });
    }
    findings
}

fn check_ambient_time(tokens: &[Token]) -> Vec<RawFinding> {
    let mut findings = Vec::new();
    for i in 0..tokens.len() {
        let Some(ty) = ident_at(tokens, i) else {
            continue;
        };
        if (ty == "Instant" || ty == "SystemTime")
            && punct_at(tokens, i + 1) == Some("::")
            && ident_at(tokens, i + 2) == Some("now")
        {
            findings.push(RawFinding {
                rule: "ambient-time",
                line: tokens[i].line,
                message: format!("ambient wall-clock read `{ty}::now`"),
            });
        }
    }
    findings
}

const ENTROPY_IDENTS: &[&str] = &[
    "thread_rng",
    "ThreadRng",
    "from_entropy",
    "OsRng",
    "getrandom",
    "RandomState",
];

fn check_ambient_rng(tokens: &[Token]) -> Vec<RawFinding> {
    let mut findings = Vec::new();
    for i in 0..tokens.len() {
        let Some(id) = ident_at(tokens, i) else {
            continue;
        };
        if ENTROPY_IDENTS.contains(&id) {
            findings.push(RawFinding {
                rule: "ambient-rng",
                line: tokens[i].line,
                message: format!("entropy source `{id}`"),
            });
        } else if id == "rand"
            && punct_at(tokens, i + 1) == Some("::")
            && ident_at(tokens, i + 2) == Some("random")
        {
            findings.push(RawFinding {
                rule: "ambient-rng",
                line: tokens[i].line,
                message: "entropy source `rand::random`".to_string(),
            });
        }
    }
    findings
}

/// Identifiers that mark a module as sampling code: the per-sample body,
/// the trait a session runs, and the per-stratum seed helper.
const SAMPLING_IDENTS: &[&str] = &["sample_once", "SampleEstimator", "stratum_seed"];

fn check_stray_seed_derivation(tokens: &[Token]) -> Vec<RawFinding> {
    // Gate: the hazard lives in the modules that draw estimator samples or
    // derive stratum streams. Other code (generators, fixtures, probes)
    // seeds RNGs legitimately.
    if !tokens
        .iter()
        .any(|t| t.kind == TokenKind::Ident && SAMPLING_IDENTS.contains(&t.text.as_str()))
    {
        return Vec::new();
    }
    // Everything from the first `#[cfg(test)]` on is fixture seeding.
    let test_boundary = cfg_test_boundary(tokens);
    let mut findings = Vec::new();
    for i in 0..test_boundary {
        if ident_at(tokens, i) == Some("StdRng")
            && punct_at(tokens, i + 1) == Some("::")
            && ident_at(tokens, i + 2) == Some("seed_from_u64")
        {
            findings.push(RawFinding {
                rule: "stray-seed-derivation",
                line: tokens[i].line,
                message: "`StdRng::seed_from_u64` outside the blessed seed-derivation helpers"
                    .to_string(),
            });
        }
    }
    findings
}

fn check_unsafe_block(tokens: &[Token]) -> Vec<RawFinding> {
    tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Ident && t.text == "unsafe")
        .map(|t| RawFinding {
            rule: "unsafe-block",
            line: t.line,
            message: "`unsafe` in workspace code".to_string(),
        })
        .collect()
}

/// Output-producing format macros. assert!/assert_eq!/panic! are exempt:
/// their messages render only on an already-failing path.
const OUTPUT_MACROS: &[&str] = &[
    "format", "print", "println", "eprint", "eprintln", "write", "writeln",
];

fn check_nondet_debug_fmt(tokens: &[Token]) -> Vec<RawFinding> {
    let mut findings = Vec::new();
    for i in 0..tokens.len() {
        let Some(name) = ident_at(tokens, i) else {
            continue;
        };
        if !OUTPUT_MACROS.contains(&name) || punct_at(tokens, i + 1) != Some("!") {
            continue;
        }
        // Walk the macro's delimited argument list looking for a format
        // string with a Debug spec. The format string is not always the
        // first literal (write!(f, "...") has the writer first), so scan
        // every string literal inside the invocation.
        let mut depth = 0usize;
        let mut j = i + 2;
        while let Some(t) = tokens.get(j) {
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            if t.kind == TokenKind::Literal
                && t.text.starts_with(['"', 'r'])
                && (t.text.contains(":?}") || t.text.contains(":#?}"))
            {
                findings.push(RawFinding {
                    rule: "nondet-debug-fmt",
                    line: tokens[i].line,
                    message: format!("`{name}!` formats a value with a Debug spec"),
                });
                break;
            }
            j += 1;
            if j > i + 512 {
                break; // Defensive cap; no real invocation is this long.
            }
        }
    }
    findings
}

/// Integer types a float's raw bits can be smuggled through with an
/// `as`-cast.
const INT_CAST_TARGETS: &[&str] = &["u64", "i64", "u32", "i32", "u128", "i128", "usize", "isize"];

fn check_cache_key_float(tokens: &[Token]) -> Vec<RawFinding> {
    // Gate: the hazard is specific to code that handles answer-cache keys.
    // Prose in string literals does not count — only the identifier does.
    if !tokens
        .iter()
        .any(|t| t.kind == TokenKind::Ident && t.text == "CacheKey")
    {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        if t.text == "to_bits" || t.text == "from_bits" {
            findings.push(RawFinding {
                rule: "cache-key-float",
                line: t.line,
                message: format!(
                    "raw float-bit conversion `{}` in a file handling CacheKey",
                    t.text
                ),
            });
        } else if t.text == "as" {
            if let Some(target) = ident_at(tokens, i + 1) {
                if INT_CAST_TARGETS.contains(&target) {
                    findings.push(RawFinding {
                        rule: "cache-key-float",
                        line: t.line,
                        message: format!("integer cast `as {target}` in a file handling CacheKey"),
                    });
                }
            }
        }
    }
    findings
}

/// First token index of the `#[cfg(test)]` tail, or the stream length.
/// By workspace convention the test module is the tail of the file, so
/// everything after this boundary is fixture code.
fn cfg_test_boundary(tokens: &[Token]) -> usize {
    (0..tokens.len())
        .find(|&i| {
            ident_at(tokens, i) == Some("cfg")
                && punct_at(tokens, i + 1) == Some("(")
                && ident_at(tokens, i + 2) == Some("test")
        })
        .unwrap_or(tokens.len())
}

fn check_hot_path_alloc(tokens: &[Token]) -> Vec<RawFinding> {
    let boundary = cfg_test_boundary(tokens);
    let mut findings = Vec::new();
    for i in 0..boundary {
        let Some(id) = ident_at(tokens, i) else {
            continue;
        };
        let message = match id {
            "Vec"
                if punct_at(tokens, i + 1) == Some("::")
                    && ident_at(tokens, i + 2) == Some("new") =>
            {
                "`Vec::new()` allocates per call in a hot module".to_string()
            }
            "vec" if punct_at(tokens, i + 1) == Some("!") => {
                "`vec![…]` allocates per call in a hot module".to_string()
            }
            "to_vec" if i > 0 && punct_at(tokens, i - 1) == Some(".") => {
                "`.to_vec()` clones into a fresh allocation in a hot module".to_string()
            }
            "collect" if i > 0 && punct_at(tokens, i - 1) == Some(".") => {
                "`.collect()` builds a fresh collection in a hot module".to_string()
            }
            _ => continue,
        };
        findings.push(RawFinding {
            rule: "hot-path-alloc",
            line: tokens[i].line,
            message,
        });
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(rule_id: &str, src: &str) -> Vec<RawFinding> {
        let toks = lex(src).tokens;
        rule_by_id(rule_id)
            .expect("rule exists")
            .check("crates/x/src/lib.rs", &toks)
    }

    #[test]
    fn use_declarations_are_not_hashmap_findings() {
        assert!(run("hashmap-iter", "use std::collections::{HashMap, HashSet};").is_empty());
        assert_eq!(
            run("hashmap-iter", "let m: HashMap<u8, u8> = HashMap::new();").len(),
            2
        );
    }

    #[test]
    fn fn_partial_cmp_definitions_are_skipped() {
        let src = "impl PartialOrd for X { fn partial_cmp(&self, o: &X) -> Option<Ordering> { Some(self.cmp(o)) } }";
        assert!(run("float-ord", src).is_empty());
        assert_eq!(
            run("float-ord", "xs.sort_by(|a, b| a.partial_cmp(b).unwrap());").len(),
            1
        );
    }

    #[test]
    fn ambient_time_requires_the_full_path() {
        assert_eq!(run("ambient-time", "let t = Instant::now();").len(), 1);
        assert_eq!(
            run("ambient-time", "let t = std::time::SystemTime::now();").len(),
            1
        );
        assert!(run("ambient-time", "let d = started.elapsed(); now();").is_empty());
    }

    #[test]
    fn ambient_time_allowlists_timing_modules() {
        let toks = lex("let t = Instant::now();").tokens;
        let rule = rule_by_id("ambient-time").unwrap();
        assert!(rule
            .check("crates/server/src/loadtest.rs", &toks)
            .is_empty());
        assert_eq!(rule.check("crates/server/src/scheduler.rs", &toks).len(), 1);
    }

    #[test]
    fn entropy_sources_are_flagged() {
        assert_eq!(run("ambient-rng", "let mut rng = thread_rng();").len(), 1);
        assert_eq!(run("ambient-rng", "let x: u8 = rand::random();").len(), 1);
        assert!(run("ambient-rng", "let rng = StdRng::seed_from_u64(seed);").is_empty());
    }

    #[test]
    fn stray_seed_derivation_gates_on_sampling_modules() {
        // No sampling identifier in scope: inline seeding is fine.
        assert!(run(
            "stray-seed-derivation",
            "let rng = StdRng::seed_from_u64(seed);"
        )
        .is_empty());
        // Inside a sampling module — an estimator, the generic session, the
        // stratified combiner — an inline seed bypasses the derivation chain
        // and is a finding.
        let src = "fn sample_once() { let rng = StdRng::seed_from_u64(seed ^ 7); }";
        assert_eq!(run("stray-seed-derivation", src).len(), 1);
        for key in [
            "impl SampleEstimator for C {}",
            "let s = stratum_seed(r, h, n);",
        ] {
            let src = format!("{key}\nlet rng = StdRng::seed_from_u64(seed ^ 7);");
            assert_eq!(run("stray-seed-derivation", &src).len(), 1, "{key}");
        }
        // Fixture seeding after the test-module boundary is exempt.
        let src_with_tests = "fn stratum_seed() {}\n\
                              #[cfg(test)]\n\
                              mod tests { fn f() { let r = StdRng::seed_from_u64(1); } }";
        assert!(run("stray-seed-derivation", src_with_tests).is_empty());
        // The driver module is the sanctioned home of the derivation.
        let toks = lex(src).tokens;
        let rule = rule_by_id("stray-seed-derivation").unwrap();
        assert!(rule.check("crates/core/src/driver.rs", &toks).is_empty());
        assert_eq!(
            rule.check("crates/core/src/lr/estimator.rs", &toks).len(),
            1
        );
    }

    #[test]
    fn debug_fmt_only_in_output_macros() {
        assert_eq!(
            run("nondet-debug-fmt", r#"let s = format!("{m:?}");"#).len(),
            1
        );
        assert_eq!(
            run("nondet-debug-fmt", r#"writeln!(f, "x = {:#?}", m)?;"#).len(),
            1
        );
        assert!(run("nondet-debug-fmt", r#"assert_eq!(a, b, "{m:?}");"#).is_empty());
        assert!(run("nondet-debug-fmt", r#"let s = format!("{m}");"#).is_empty());
    }

    #[test]
    fn cache_key_float_fires_only_in_cache_key_files() {
        // Same hazards, no CacheKey in scope: silent.
        assert!(run("cache-key-float", "let b = x.to_bits(); let n = f as u64;").is_empty());
        // With CacheKey in scope, each conversion is a finding.
        let src = "let k = CacheKey { a }; let b = p.x.to_bits(); let c = f64::from_bits(b); \
                   let d = p.y as u64;";
        assert_eq!(run("cache-key-float", src).len(), 3);
        // The canonical constructor's own module is allowlisted.
        let toks = lex(src).tokens;
        let rule = rule_by_id("cache-key-float").unwrap();
        assert!(rule.check("crates/service/src/cache.rs", &toks).is_empty());
        // ... but an injected copy elsewhere in the tree is not.
        assert_eq!(
            rule.check("crates/core/src/cache_key_float_injected.rs", &toks)
                .len(),
            3
        );
    }

    #[test]
    fn hot_path_alloc_is_scoped_to_the_hot_modules() {
        let src = "let mut v = Vec::new(); let w = vec![0.0, len]; \
                   let a = xs.to_vec(); let b = ys.iter().collect();";
        let toks = lex(src).tokens;
        let rule = rule_by_id("hot-path-alloc").unwrap();
        // All four allocating idioms fire inside a hot module...
        assert_eq!(rule.check("crates/geom/src/cell_engine.rs", &toks).len(), 4);
        assert_eq!(rule.check("crates/geom/src/topk_cell.rs", &toks).len(), 4);
        // ... and none of them anywhere else.
        assert!(rule.check("crates/geom/src/convex.rs", &toks).is_empty());
        assert!(rule
            .check("crates/core/src/lr/history.rs", &toks)
            .is_empty());
    }

    #[test]
    fn hot_path_alloc_exempts_the_test_module_tail() {
        let src = "fn hot() { buf.clear(); }\n\
                   #[cfg(test)]\n\
                   mod tests { fn f() { let v = vec![1, 2]; let w = Vec::new(); } }";
        let toks = lex(src).tokens;
        let rule = rule_by_id("hot-path-alloc").unwrap();
        assert!(rule
            .check("crates/geom/src/cell_engine.rs", &toks)
            .is_empty());
    }

    #[test]
    fn hot_path_alloc_ignores_non_allocating_idioms() {
        // Scratch reuse (clear/extend/push), Vec types in signatures, and
        // turbofish-free iteration must not fire.
        let src = "fn f(out: &mut Vec<Point>) { out.clear(); out.extend(src.iter().copied()); \
                   out.push(p); let n: Vec<Point>; }";
        let toks = lex(src).tokens;
        let rule = rule_by_id("hot-path-alloc").unwrap();
        assert!(rule
            .check("crates/geom/src/cell_engine.rs", &toks)
            .is_empty());
    }

    #[test]
    fn unsafe_tokens_are_flagged_but_attrs_are_not() {
        assert_eq!(run("unsafe-block", "unsafe { *p }").len(), 1);
        assert!(run("unsafe-block", "#![forbid(unsafe_code)]").is_empty());
    }
}
