//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 --mdr PATH --out DIR`
//!
//! Prints a summary on stderr and, as the last line of stdout, the JSON
//! result. `perfbench pins --seeds N --out DIR` prints a fresh
//! `digests.txt` instead (only after an intended change of outputs).

use perfbench::gen::Mode;
use perfbench::{pins, serve, sim, Args, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload sim-sweep|serve-mem|serve-durable --seed N \
                     --seconds S --trace 0|1 --mdr PATH --out DIR\n       \
                     perfbench pins --seeds N --out DIR";

fn flag<'a>(argv: &'a [String], name: &str) -> Option<&'a str> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
}

fn parse(argv: &[String]) -> Option<Args> {
    Some(Args {
        workload: Workload::parse(flag(argv, "--workload")?)?,
        seed: flag(argv, "--seed")?.parse().ok()?,
        seconds: flag(argv, "--seconds")?
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0)?,
        trace: match flag(argv, "--trace")? {
            "0" => false,
            "1" => true,
            _ => return None,
        },
        mdr: PathBuf::from(flag(argv, "--mdr")?),
        out: PathBuf::from(flag(argv, "--out")?),
    })
}

/// Prints `digests.txt` for the current code: sweep ledgers at every
/// size the benchmark runs, and serve response digests for seeds `0..seeds`.
fn print_pins(seeds: u64, out: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    println!("# Pinned output digests: <workload> <key> <digest>. Regenerate with");
    println!("# `perfbench pins` only when an output change is intended.");
    for requests in [sim::REQUESTS / 5, sim::REQUESTS] {
        for name in sim::PRESETS {
            let digest = sim::grid(name, requests).run_serial().ledger_digest();
            println!(
                "{}",
                pins::line("sim-sweep", &sim::pin_key(name, requests), digest)
            );
        }
    }
    for name in sim::PRESETS {
        let ci = sim::ci_grid(name);
        let digest = ci.run_serial().ledger_digest();
        println!(
            "{}",
            pins::line(
                "sim-sweep",
                &sim::pin_key(name, ci.requests_per_run()),
                digest
            )
        );
    }
    let mut scratch = serve::Scratch::new(out);
    for mode in [Mode::Mem, Mode::Durable] {
        for seed in 0..seeds {
            let plan = serve::plan(mode, seed, 1);
            let run = serve::in_process(&plan, &mut scratch, mdr_sim::FsyncPolicy::Never, None)?;
            println!(
                "{}",
                pins::line(
                    serve::name(mode),
                    &format!("seed-{seed}"),
                    run.session.digest
                )
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("pins") {
        let (Some(seeds), Some(out)) = (
            flag(&argv, "--seeds").and_then(|s| s.parse().ok()),
            flag(&argv, "--out"),
        ) else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match print_pins(seeds, std::path::Path::new(out)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(args) = parse(&argv) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match perfbench::run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
