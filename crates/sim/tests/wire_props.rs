//! Differential tests of the serve wire codec. The direct decoder
//! (`ServeRequest::from_json`) and the direct decision printer
//! (`ServeResponse::to_json`) skip the `Value` tree; the tree path is the
//! reference they must match, value for value and byte for byte.

use mdr_core::{Action, Request};
use mdr_sim::engine::serve_bench_lines;
use mdr_sim::{
    ConfigError, Decision, ServeConfig, ServeEngine, ServeRequest, ServeResponse, Verdict,
};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

/// `op` values, as JSON. Decides dominate, as they do in real traffic.
const OPS: [&str; 10] = [
    r#""open""#,
    r#""decide""#,
    r#""decide""#,
    r#""decide""#,
    r#""stats""#,
    r#""snapshot""#,
    r#""close""#,
    r#""shutdown""#,
    r#""restore""#,
    r#""nope""#,
];
/// Tenant ids, as JSON: plain, multi-byte, empty and escaped.
const TENANTS: [&str; 5] = [r#""a""#, r#""b""#, r#""é😀""#, r#""""#, r#""\u0061""#];
/// `request` letters, as JSON.
const LETTERS: [&str; 6] = [r#""r""#, r#""w""#, r#""R""#, r#""x""#, r#""rw""#, r#""""#];
/// `policy` values, as JSON.
const POLICIES: [&str; 5] = ["null", r#""SW3""#, r#""T1(2)""#, r#""ST2""#, r#""bogus""#];
/// Any field's value, as JSON: what the direct path reads, then what only
/// the tree path reads.
const VALUES: [&str; 16] = [
    r#""decide""#,
    r#""a""#,
    r#""r""#,
    r#""SW3""#,
    r#""T1(2)""#,
    r#""message:0.5""#,
    r#""bogus""#,
    "null",
    r#""q\"x""#,
    r#""a\\b""#,
    r#""😀""#,
    "1",
    "-0.5",
    "true",
    r#"{"op":"decide"}"#,
    r#"["r"]"#,
];
/// Field names: every request field plus an unknown one. Drawing `op` or
/// `tenant` again makes a duplicate key.
const KEYS: [&str; 6] = ["op", "tenant", "request", "policy", "model", "extra"];
/// JSON whitespace between tokens.
const SPACES: [&str; 4] = [" ", "\t", "\r\n", " \n  "];
/// Replacements for single-character mutations.
const MUTANTS: [char; 10] = ['"', '\\', '{', '}', ':', ',', ' ', 'n', '1', '\u{1}'];

/// A small xorshift stream for the choices that have no strategy of their
/// own: field order, whitespace and mutations.
struct Bits(u64);

impl Bits {
    fn pick(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    fn space(&mut self) -> &'static str {
        if self.pick(3) == 0 {
            SPACES[self.pick(SPACES.len())]
        } else {
            ""
        }
    }
}

/// One request line: `op`, `tenant`, `request` and `policy`, plus up to
/// two fields from the whole value set. The fields are shuffled, one may
/// be dropped, whitespace is sprinkled between tokens, and one line in
/// four is truncated or has one character replaced.
fn line() -> impl Strategy<Value = String> {
    (
        0..OPS.len(),
        0..TENANTS.len(),
        0..LETTERS.len(),
        0..POLICIES.len(),
        prop::collection::vec((0..KEYS.len(), 0..VALUES.len()), 0..3),
        any::<u64>(),
    )
        .prop_map(|(op, tenant, letter, policy, extra, seed)| {
            let mut bits = Bits(seed | 1);
            let mut fields = vec![
                ("op", OPS[op]),
                ("tenant", TENANTS[tenant]),
                ("request", LETTERS[letter]),
                ("policy", POLICIES[policy]),
            ];
            fields.extend(extra.into_iter().map(|(k, v)| (KEYS[k], VALUES[v])));
            for i in (1..fields.len()).rev() {
                fields.swap(i, bits.pick(i + 1));
            }
            if bits.pick(4) == 0 {
                fields.pop();
            }
            let mut line = format!("{}{{", bits.space());
            for (i, (key, value)) in fields.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                let (a, b, c) = (bits.space(), bits.space(), bits.space());
                line.push_str(&format!("{a}\"{key}\"{b}:{c}{value}{}", bits.space()));
            }
            line.push('}');
            line.push_str(bits.space());
            let mut chars: Vec<char> = line.chars().collect();
            match bits.pick(8) {
                0 => chars.truncate(bits.pick(chars.len())),
                1 => {
                    let at = bits.pick(chars.len());
                    chars[at] = MUTANTS[bits.pick(MUTANTS.len())];
                }
                _ => {}
            }
            chars.into_iter().collect()
        })
}

/// A well-formed decide for one of the two tenants a session opens.
fn decide() -> impl Strategy<Value = String> {
    (0..2usize, prop::bool::ANY).prop_map(|(tenant, write)| {
        let (tenant, letter) = (["a", "é😀"][tenant], if write { 'w' } else { 'r' });
        format!(r#"{{"op":"decide","tenant":"{tenant}","request":"{letter}"}}"#)
    })
}

/// The tree path alone: JSON text to `Value`, then `from_value`.
fn tree_decode(line: &str) -> Result<ServeRequest, serde_json::Error> {
    let value: Value = serde_json::from_str(line)?;
    Ok(ServeRequest::from_value(&value)?)
}

/// The tree path alone: `to_value`, then the tree printer.
fn tree_encode(response: &ServeResponse) -> String {
    serde_json::to_string(&response.to_value()).expect("every Value prints")
}

/// `ServeEngine::handle_line` with both halves of the codec on the tree.
fn tree_handle_line(engine: &mut ServeEngine, line: &str) -> String {
    let response = match tree_decode(line) {
        Ok(request) => engine.apply(&request),
        Err(e) => ServeEngine::error(&ConfigError::BadDecisionRequest {
            reason: e.to_string(),
        }),
    };
    tree_encode(&response)
}

/// Tenant characters: those the printer escapes, DEL and multi-byte ones.
const CHARS: [char; 14] = [
    'a', 'Z', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '😀',
];
/// Costs whose printing has edge cases.
const COSTS: [f64; 12] = [
    -0.0,
    0.0,
    5e-324,
    1e300,
    0.1 + 0.2,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.0,
    0.5,
    1e21,
    1e-7,
];
const ACTIONS: [Action; 7] = [
    Action::LocalRead,
    Action::RemoteRead { allocates: false },
    Action::RemoteRead { allocates: true },
    Action::SilentWrite,
    Action::PropagatedWrite { deallocates: false },
    Action::PropagatedWrite { deallocates: true },
    Action::DeleteRequestWrite,
];
const VERDICTS: [Verdict; 6] = [
    Verdict::ServeLocal,
    Verdict::ServeRemote,
    Verdict::Allocate,
    Verdict::Silent,
    Verdict::Propagate,
    Verdict::Deallocate,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn direct_decode_agrees_with_the_tree(line in line()) {
        let tree = tree_decode(&line);
        if let Some(direct) = ServeRequest::from_json(&line) {
            prop_assert_eq!(Ok(direct), tree.clone(), "{}", line);
        }
        prop_assert_eq!(serde_json::from_str::<ServeRequest>(&line), tree, "{}", line);
    }

    #[test]
    fn decision_printer_agrees_with_the_tree(
        tenant in prop::collection::vec(0..CHARS.len(), 0..12),
        cost in prop_oneof![
            (0..COSTS.len()).prop_map(|i| COSTS[i]),
            any::<u64>().prop_map(f64::from_bits),
        ],
        counts in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        kind in (0..ACTIONS.len(), 0..VERDICTS.len(), prop::bool::ANY, prop::bool::ANY),
    ) {
        let (seq, data_messages, control_messages, connections, staleness) = counts;
        let (action, verdict, write, has_copy) = kind;
        let response = ServeResponse::Decided {
            tenant: tenant.iter().map(|&i| CHARS[i]).collect(),
            decision: Decision {
                seq,
                request: if write { Request::Write } else { Request::Read },
                action: ACTIONS[action],
                verdict: VERDICTS[verdict],
                data_messages,
                control_messages,
                connections,
                cost,
                has_copy,
                staleness,
            },
        };
        let direct = response.to_json();
        prop_assert!(direct.is_some());
        prop_assert_eq!(direct, Some(tree_encode(&response)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn handle_line_agrees_with_a_tree_only_engine(
        lines in prop::collection::vec(prop_oneof![line(), decide()], 1..48),
    ) {
        // Both tenant slots are taken up front and the budget is small, so
        // sessions decide, shed and fail.
        let config = ServeConfig {
            max_tenants: 2,
            decision_budget: Some(16),
            ..ServeConfig::default()
        };
        let mut direct = ServeEngine::new(config).expect("the config is valid");
        let mut tree = direct.clone();
        let opens = [r#"{"op":"open","tenant":"a"}"#, r#"{"op":"open","tenant":"é😀"}"#];
        for line in opens.into_iter().chain(lines.iter().map(String::as_str)) {
            prop_assert_eq!(direct.handle_line(line), tree_handle_line(&mut tree, line), "{}", line);
        }
    }
}

#[test]
fn the_benchmark_session_takes_the_direct_path_throughout() {
    let mut engine = ServeEngine::new(ServeConfig::default()).expect("the default is valid");
    for line in serve_bench_lines(8, 64, 1994) {
        let Some(request) = ServeRequest::from_json(&line) else {
            panic!("{line} took the tree path");
        };
        let response = engine.apply(&request);
        if matches!(response, ServeResponse::Decided { .. }) {
            assert_eq!(response.to_json(), Some(tree_encode(&response)));
        }
    }
}
