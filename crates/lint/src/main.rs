//! The `p2plab-lint` command-line gate.
//!
//! ```text
//! p2plab-lint check    [--json] [--root <dir>]   # CI gate: nonzero exit on violations
//! p2plab-lint baseline [--write] [--root <dir>]  # regenerate the grandfather file
//! ```
//!
//! `check` prints one `file:line: rule[name]: message` diagnostic per surviving violation
//! (or a JSON array with `--json`) and exits with the offending rule's distinct code
//! (10–17; 20 when several rules fired). `baseline` prints the baseline the current tree
//! would need; `--write` updates `lint.baseline` in place.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut json = false;
    let mut write = false;
    let mut root = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "check" | "baseline" if command.is_none() => command = Some(arg.clone()),
            "--json" => json = true,
            "--write" => write = true,
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let Some(command) = command else {
        return usage("missing subcommand");
    };

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().expect("current dir");
            match p2plab_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("p2plab-lint: no workspace root above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    match command.as_str() {
        "check" => {
            let diags = match p2plab_lint::check_workspace(&root) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("p2plab-lint: walking {}: {e}", root.display());
                    return ExitCode::from(2);
                }
            };
            if json {
                print!("{}", p2plab_lint::render_json(&diags));
            } else {
                for d in &diags {
                    println!("{}", d.render());
                }
                if diags.is_empty() {
                    println!("p2plab-lint: clean");
                } else {
                    println!(
                        "p2plab-lint: {} violation(s) — waive inline with \
                         `// lint:allow(<rule>) — <reason>` or fix the site",
                        diags.len()
                    );
                }
            }
            ExitCode::from(p2plab_lint::exit_code(&diags) as u8)
        }
        "baseline" => {
            let text = match p2plab_lint::baseline_workspace(&root) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("p2plab-lint: walking {}: {e}", root.display());
                    return ExitCode::from(2);
                }
            };
            if write {
                let path = root.join(p2plab_lint::BASELINE_FILE);
                if let Err(e) = std::fs::write(&path, &text) {
                    eprintln!("p2plab-lint: writing {}: {e}", path.display());
                    return ExitCode::from(2);
                }
                println!("p2plab-lint: wrote {}", path.display());
            } else {
                print!("{text}");
            }
            ExitCode::SUCCESS
        }
        _ => unreachable!("validated above"),
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!(
        "p2plab-lint: {err}\n\
         usage: p2plab-lint check [--json] [--root <dir>]\n       \
         p2plab-lint baseline [--write] [--root <dir>]"
    );
    ExitCode::from(2)
}
