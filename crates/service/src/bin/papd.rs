//! `papd` — the online selection daemon, standalone.
//!
//! Thin wrapper over [`pap_service::Server`], the same server `papctl
//! serve` and every fleet shard run. `--threads N` sets the worker count
//! of the startup tuning fan-out and of the pool that computes cold cells
//! and calibrations (as `papctl --threads N` does). SIGTERM or SIGINT
//! drains like a `Shutdown` frame: requests already received are
//! answered, then papd prints its stats table to stderr and exits 0.
//!
//! ```text
//! papd [--addr A] [--snapshot F] [--backend {sim,model}] [--threads N]
//!      [--machine M] [--ranks N] [--policy P] [--l1 N] [--refine-threads N]
//!      [--no-tune]
//! ```

use std::io::Write;
use std::process::ExitCode;

use pap_service::{install_signal_shutdown, ServeConfig, Server};

fn run(raw: &[String]) -> Result<(), String> {
    let mut cfg = ServeConfig::default();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("--{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value("addr")?.to_string(),
            "--snapshot" => cfg.snapshot = Some(value("snapshot")?.into()),
            "--backend" => cfg.backend = value("backend")?.parse()?,
            "--threads" => {
                let n: usize =
                    value("threads")?.parse().map_err(|_| "--threads must be a number")?;
                if n > 0 {
                    pap_parallel::set_threads(n);
                }
            }
            "--machine" => cfg.machine = value("machine")?.to_string(),
            "--ranks" => {
                cfg.ranks = value("ranks")?.parse().map_err(|_| "--ranks must be a number")?;
            }
            "--l1" => {
                cfg.l1_capacity = value("l1")?.parse().map_err(|_| "--l1 must be a number")?;
            }
            "--refine-threads" => {
                cfg.refine_threads = value("refine-threads")?
                    .parse()
                    .map_err(|_| "--refine-threads must be a number")?;
            }
            "--policy" => cfg.default_policy = value("policy")?.parse()?,
            "--no-tune" => cfg.tune_at_startup = false,
            "--help" | "-h" => {
                println!(
                    "usage: papd [--addr A] [--snapshot F] [--backend {{sim,model}}] \
                     [--threads N] [--machine M] [--ranks N] [--policy P] [--l1 N] \
                     [--refine-threads N] [--no-tune]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    let server = Server::start(cfg)?;
    install_signal_shutdown(&server)?;
    println!("papd listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    let stats = std::sync::Arc::clone(server.stats());
    server.join();
    eprint!("papd: shut down\n{}", stats.report().render_table());
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("papd: {e}");
            ExitCode::FAILURE
        }
    }
}
