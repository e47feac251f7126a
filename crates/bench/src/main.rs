//! `experiments <name> [--flag value]… [--out dir]`: run one of the
//! paper's experiments at its paper arguments (or the flags given) and
//! print its text. With `--out dir` it also writes the experiment's JSON
//! to `dir/<stem>.json` and says so in a last `[wrote …]` line, so
//! `--out results` regenerates `results/`. A bad command line exits 2 with
//! a usage line.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (outcome, out) = match tero_bench::run(&args) {
        Ok(run) => run,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    print!("{}", outcome.text);
    if let (Some(dir), Some((stem, json))) = (out, outcome.json) {
        let path = dir.join(format!("{stem}.json"));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
            eprintln!("experiments: could not write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("[wrote {}]", path.display());
    }
    ExitCode::SUCCESS
}
