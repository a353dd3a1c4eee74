//! Pinned output digests (`perfbench/digests.txt`).
//!
//! Each line is `<workload> <key> <digest>`: sweep ledger digests keyed by
//! preset (`e17`, `e17-fast`, …), and serve response digests keyed by seed
//! (`seed-3`). Serve runs on an unpinned seed are checked against the
//! in-process reference alone.

/// The pinned digests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pins {
    entries: Vec<(String, String, u64)>,
}

impl Pins {
    /// The digests committed beside the benchmark.
    pub fn shipped() -> Pins {
        Pins::parse(include_str!("../digests.txt"))
    }

    /// Parses the `<workload> <key> <0xdigest>` format; `#` starts a
    /// comment line.
    pub fn parse(text: &str) -> Pins {
        let entries = text
            .lines()
            .filter(|l| !l.trim_start().starts_with('#'))
            .filter_map(|l| {
                let mut words = l.split_whitespace();
                let (workload, key, digest) = (words.next()?, words.next()?, words.next()?);
                let digest = u64::from_str_radix(digest.strip_prefix("0x")?, 16).ok()?;
                Some((workload.to_owned(), key.to_owned(), digest))
            })
            .collect();
        Pins { entries }
    }

    /// The digest pinned for `workload` and `key`.
    pub fn get(&self, workload: &str, key: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|(w, k, _)| w == workload && k == key)
            .map(|(_, _, d)| *d)
    }

    /// Whether `digest` is the one pinned for `workload` and `key`; an
    /// unpinned key never matches.
    pub fn matches(&self, workload: &str, key: &str, digest: u64) -> bool {
        self.get(workload, key) == Some(digest)
    }
}

/// Formats one pin line.
pub fn line(workload: &str, key: &str, digest: u64) -> String {
    format!("{workload} {key} {digest:#018x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_its_own_lines() {
        let text = format!(
            "# comment\n{}\n{}\n",
            line("a", "k", 0xff),
            line("b", "seed-1", 7)
        );
        let pins = Pins::parse(&text);
        assert_eq!(pins.get("a", "k"), Some(0xff));
        assert!(pins.matches("b", "seed-1", 7));
        assert!(!pins.matches("b", "seed-2", 7));
    }
}
