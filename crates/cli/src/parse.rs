//! Argument parsing for the `mdr` CLI: policy specs, cost models, and the
//! flag grammar. Hand-rolled (the surface is tiny) and fully unit-tested.

use mdr_core::{CostModel, PolicySpec};
use mdr_sim::ConfigError;
use std::collections::BTreeMap;
use std::fmt;

/// A CLI error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CliError(pub(crate) String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<ConfigError> for CliError {
    fn from(e: ConfigError) -> Self {
        CliError(e.to_string())
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// Parses a policy name: `ST1`, `ST2`, `SW<k>`, `T1:<m>`, `T2:<m>`
/// (case-insensitive). Delegates to [`PolicySpec`]'s `FromStr` — the
/// inverse of its canonical `Display` — so the CLI, the serve wire
/// format, and library users all accept the same grammar.
pub(crate) fn parse_policy(s: &str) -> Result<PolicySpec, CliError> {
    s.parse()
        .map_err(|e: mdr_core::ParsePolicyError| CliError(e.to_string()))
}

/// Parses a cost model: `connection` or `message:<omega>` (e.g.
/// `message:0.4`); `message` alone defaults to ω = 0.5. Delegates to
/// [`CostModel`]'s `FromStr`.
pub(crate) fn parse_model(s: &str) -> Result<CostModel, CliError> {
    s.parse()
        .map_err(|e: mdr_core::ParseModelError| CliError(e.to_string()))
}

/// Parses a journal fsync policy: `always`, `never`, or `interval[:N]`
/// (`interval` alone syncs every 64 records).
pub(crate) fn parse_fsync(s: &str) -> Result<mdr_sim::FsyncPolicy, CliError> {
    use mdr_sim::FsyncPolicy;
    match s {
        "always" => Ok(FsyncPolicy::Always),
        "never" => Ok(FsyncPolicy::Never),
        "interval" => Ok(FsyncPolicy::Interval(64)),
        other => {
            if let Some(n) = other.strip_prefix("interval:") {
                let n: u64 = n
                    .parse()
                    .map_err(|_| CliError(format!("invalid fsync interval {n:?}")))?;
                if n == 0 {
                    return err("--fsync interval must be at least 1");
                }
                return Ok(FsyncPolicy::Interval(n));
            }
            err(format!(
                "unknown fsync policy {other:?}; expected always, never, or interval[:N]"
            ))
        }
    }
}

/// A parsed flag set: `--key value` pairs plus the subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    /// `--key value` flags in order-independent form.
    pub flags: BTreeMap<String, String>,
}

impl Args {
    /// Parses `argv` (without the program name).
    pub(crate) fn parse(argv: &[String]) -> Result<Args, CliError> {
        let Some((command, rest)) = argv.split_first() else {
            return err("missing subcommand");
        };
        if command.starts_with("--") {
            return err(format!("expected a subcommand before {command:?}"));
        }
        let mut flags = BTreeMap::new();
        let mut i = 0;
        while i < rest.len() {
            let key = &rest[i];
            let Some(name) = key.strip_prefix("--") else {
                return err(format!("expected a --flag, got {key:?}"));
            };
            let Some(value) = rest.get(i + 1) else {
                return err(format!("flag --{name} needs a value"));
            };
            if flags.insert(name.to_owned(), value.clone()).is_some() {
                return err(format!("duplicate flag --{name}"));
            }
            i += 2;
        }
        Ok(Args {
            command: command.clone(),
            flags,
        })
    }

    /// A required flag.
    pub(crate) fn required(&self, name: &str) -> Result<&str, CliError> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| CliError(format!("missing required flag --{name}")))
    }

    /// An optional flag with a default.
    pub(crate) fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.flags.get(name).map_or(default, String::as_str)
    }

    /// A parsed optional numeric flag.
    pub(crate) fn number<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, CliError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("invalid value {v:?} for --{name}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_parse() {
        assert_eq!(parse_policy("st1").unwrap(), PolicySpec::St1);
        assert_eq!(parse_policy("ST2").unwrap(), PolicySpec::St2);
        assert_eq!(
            parse_policy("sw9").unwrap(),
            PolicySpec::SlidingWindow { k: 9 }
        );
        assert_eq!(parse_policy("T1:5").unwrap(), PolicySpec::T1 { m: 5 });
        assert_eq!(parse_policy("t2(3)").unwrap(), PolicySpec::T2 { m: 3 });
    }

    #[test]
    fn bad_policies_rejected() {
        assert!(parse_policy("SW4").is_err(), "even window");
        assert!(parse_policy("SW0").is_err());
        assert!(parse_policy("T1:0").is_err());
        assert!(parse_policy("LRU").is_err());
        assert!(parse_policy("SWx").is_err());
    }

    #[test]
    fn models_parse() {
        assert_eq!(parse_model("connection").unwrap(), CostModel::Connection);
        assert_eq!(parse_model("message:0.4").unwrap(), CostModel::message(0.4));
        assert_eq!(parse_model("msg:1").unwrap(), CostModel::message(1.0));
        assert_eq!(parse_model("message").unwrap(), CostModel::message(0.5));
    }

    #[test]
    fn bad_models_rejected() {
        assert!(parse_model("message:1.5").is_err());
        assert!(parse_model("message:x").is_err());
        assert!(parse_model("minutes").is_err());
    }

    #[test]
    fn fsync_policies_parse() {
        use mdr_sim::FsyncPolicy;
        assert_eq!(parse_fsync("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(parse_fsync("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(parse_fsync("interval").unwrap(), FsyncPolicy::Interval(64));
        assert_eq!(parse_fsync("interval:7").unwrap(), FsyncPolicy::Interval(7));
    }

    #[test]
    fn bad_fsync_policies_rejected() {
        assert!(parse_fsync("interval:0").is_err());
        assert!(parse_fsync("interval:x").is_err());
        assert!(parse_fsync("sometimes").is_err());
        assert!(parse_fsync("ALWAYS").is_err());
    }

    #[test]
    fn args_parse() {
        let argv: Vec<String> = ["simulate", "--policy", "SW9", "--theta", "0.3"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let args = Args::parse(&argv).unwrap();
        assert_eq!(args.command, "simulate");
        assert_eq!(args.required("policy").unwrap(), "SW9");
        assert_eq!(args.number::<f64>("theta", 0.5).unwrap(), 0.3);
        assert_eq!(args.number::<u64>("seed", 7).unwrap(), 7);
        assert_eq!(args.get_or("model", "connection"), "connection");
    }

    #[test]
    fn args_errors() {
        let to_vec = |v: &[&str]| v.iter().map(ToString::to_string).collect::<Vec<_>>();
        assert!(Args::parse(&to_vec(&[])).is_err());
        assert!(Args::parse(&to_vec(&["--policy", "x"])).is_err());
        assert!(Args::parse(&to_vec(&["run", "--policy"])).is_err());
        assert!(Args::parse(&to_vec(&["run", "stray"])).is_err());
        assert!(Args::parse(&to_vec(&["run", "--a", "1", "--a", "2"])).is_err());
        let args = Args::parse(&to_vec(&["run", "--n", "abc"])).unwrap();
        assert!(args.number::<u64>("n", 0).is_err());
        assert!(args.required("missing").is_err());
    }
}
