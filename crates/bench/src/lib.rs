//! # mdr-bench — experiment harness for the SIGMOD 1994 reproduction
//!
//! One module per paper artifact (figures 1–2 and every quantitative claim
//! of §5–§7/§9), each producing paper-vs-measured [`Experiment`] tables.
//! The `report` binary prints them:
//!
//! ```text
//! cargo run -p mdr-bench --release --bin report            # everything
//! cargo run -p mdr-bench --release --bin report -- --only e4
//! cargo run -p mdr-bench --release --bin report -- --fast  # CI-sized runs
//! cargo run -p mdr-bench --release --bin report -- --json  # machine readable
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod snapshot;
pub mod sweep;
pub mod table;

pub use snapshot::{BenchSnapshot, RegressionVerdict};
pub use table::{Experiment, Table};

/// Global knob for experiment sizes: `fast` shrinks Monte-Carlo sizes to
/// CI scale, full mode uses publication-scale runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunCfg {
    /// Use reduced sample sizes.
    pub fast: bool,
}

impl RunCfg {
    /// Picks `fast` or `full` according to the mode.
    pub fn pick<T>(self, fast: T, full: T) -> T {
        if self.fast {
            fast
        } else {
            full
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_selects_by_mode() {
        assert_eq!(RunCfg { fast: true }.pick(1, 2), 1);
        assert_eq!(RunCfg { fast: false }.pick(1, 2), 2);
    }
}
