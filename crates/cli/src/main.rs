//! Thin binary wrapper; see the crate library for the implementation.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match tevot_cli::run(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            let code = tevot_cli::exit_code_for(e.as_ref());
            eprintln!("error: {e}");
            if code == 2 {
                eprintln!("run `tevot help` for usage");
            }
            ExitCode::from(code)
        }
    }
}
