//! `ee-serve` binary: build the engines, bind, and serve until killed.
//!
//! ```text
//! cargo run -p ee-serve --release              # defaults (127.0.0.1:7207)
//! EE_SERVE_ADDR=0.0.0.0:8080 cargo run -p ee-serve --release
//! EE_SERVE_TINY=1 cargo run -p ee-serve        # small dataset, fast start
//! cargo run -p ee-serve --release -- --writable            # accept POST /update
//! EE_SERVE_DATA_DIR=/var/lib/ee cargo run -p ee-serve --release -- --writable
//!
//! # Scale-out: two shards + a router (each in its own process)
//! EE_SERVE_ADDR=127.0.0.1:7301 ee-serve --shard-index 0 --shard-count 2
//! EE_SERVE_ADDR=127.0.0.1:7302 ee-serve --shard-index 1 --shard-count 2
//! EE_SERVE_ADDR=127.0.0.1:7207 ee-serve --router 127.0.0.1:7301,127.0.0.1:7302
//! ```
//!
//! `--writable` (or `EE_SERVE_WRITABLE=1`) enables `POST /update`;
//! without it every update is answered 403. `EE_SERVE_DATA_DIR` makes
//! the point store durable: the first start seeds the directory with a
//! generation-0 snapshot, later starts reopen snapshot + commit-log tail, so
//! committed updates survive restarts.
//!
//! Scale-out flags: `--shard-index I --shard-count N` builds only this
//! shard's subject-hash slice of the point store; `--router a,b,c`
//! (or `EE_SERVE_BACKENDS`) turns the process into the scatter-gather
//! router tier over those shard addresses (read-only, response cache
//! off — freshness belongs to the shards).
//! `EE_SERVE_WORKERS` overrides the resolve-worker count (default: one
//! per CPU, capped at 8) — benches pin it so results don't depend on
//! the machine's core count.
//!
//! On successful bind the process prints `LISTENING <addr>` on stdout —
//! the line a supervising process (the benchmark suite) parses to learn
//! the ephemeral port.

use ee_serve::{start, AppState, DataConfig, RouterTier, ServerConfig};
use std::sync::Arc;

/// The value following `flag`, from either `--flag value` or
/// `--flag=value`.
fn arg_value(args: &[String], flag: &str) -> Option<String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return it.next().cloned();
        }
        if let Some(v) = a.strip_prefix(&format!("{flag}=")) {
            return Some(v.to_string());
        }
    }
    None
}

fn env_u64(name: &str) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let addr =
        std::env::var("EE_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:7207".to_string());
    let mut data = if std::env::var("EE_SERVE_TINY").is_ok() {
        DataConfig::tiny()
    } else {
        DataConfig::default()
    };
    let writable = args.iter().any(|a| a == "--writable")
        || matches!(std::env::var("EE_SERVE_WRITABLE"), Ok(v) if !v.is_empty() && v != "0");

    // Shard assignment: --shard-index I --shard-count N (both or neither).
    let shard_index = arg_value(&args, "--shard-index").map(|v| v.parse::<usize>());
    let shard_count = arg_value(&args, "--shard-count").map(|v| v.parse::<usize>());
    match (shard_index, shard_count) {
        (None, None) => {}
        (Some(Ok(i)), Some(Ok(n))) if i < n && n >= 1 => data.shard = Some((i, n)),
        _ => {
            eprintln!(
                "ee-serve: --shard-index I and --shard-count N must both be given, \
                 parse as integers, and satisfy I < N"
            );
            std::process::exit(2);
        }
    }

    // Router mode: --router a,b,c or EE_SERVE_BACKENDS=a,b,c.
    let backends_raw = arg_value(&args, "--router")
        .or_else(|| std::env::var("EE_SERVE_BACKENDS").ok().filter(|v| !v.is_empty()));
    let backends: Option<Vec<std::net::SocketAddr>> = match &backends_raw {
        None => None,
        Some(list) => {
            let parsed: Result<Vec<_>, _> =
                list.split(',').map(|a| a.trim().parse()).collect();
            match parsed {
                Ok(v) if !v.is_empty() => Some(v),
                _ => {
                    eprintln!("ee-serve: --router takes a comma-separated shard address list");
                    std::process::exit(2);
                }
            }
        }
    };
    if backends.is_some() && data.shard.is_some() {
        eprintln!("ee-serve: a process is either a shard or the router, not both");
        std::process::exit(2);
    }

    eprintln!(
        "ee-serve: building engines (points={}, products={}, scene={}px, ice={} regions{})...",
        data.points,
        data.products,
        data.scene_size,
        ee_serve::state::ICE_REGIONS.len(),
        match data.shard {
            Some((i, n)) => format!(", shard {i}/{n}"),
            None => String::new(),
        }
    );
    let t0 = std::time::Instant::now();
    let mut state = match std::env::var("EE_SERVE_DATA_DIR") {
        Ok(dir) if !dir.is_empty() => {
            match AppState::build_durable(data, std::path::Path::new(&dir)) {
                Ok(s) => {
                    eprintln!(
                        "ee-serve: durable store in {dir} (generation {})",
                        s.generation()
                    );
                    s
                }
                Err(e) => {
                    eprintln!("ee-serve: cannot open data dir {dir}: {e}");
                    std::process::exit(1);
                }
            }
        }
        _ => AppState::build(data),
    };
    state.writable = writable;
    let router = backends.is_some();
    if let Some(addrs) = backends {
        state.router = Some(RouterTier::new(&addrs, Default::default()));
    }
    let state = Arc::new(state);
    let groups: Vec<String> = state
        .build_seconds()
        .iter()
        .map(|(group, seconds)| format!("{group} {:.1} ms", seconds * 1e3))
        .collect();
    eprintln!(
        "ee-serve: engines ready in {:?} ({})",
        t0.elapsed(),
        groups.join(", ")
    );

    let mut config = ServerConfig {
        addr,
        ..ServerConfig::default()
    };
    let workers_override = env_u64("EE_SERVE_WORKERS");
    if workers_override > 0 {
        config.workers = workers_override as usize;
    }
    if router {
        // The router must not serve yesterday's shard answers: its
        // response cache cannot see shard-side freshness, so it runs
        // uncached (the shards keep their own caches).
        config.cache_capacity_per_shard = 0;
    }
    let workers = config.workers;
    let handle = match start(config, state) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("ee-serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    // Machine-parsable bind announcement (the benchmark suite reads this).
    println!("LISTENING {}", handle.addr);
    eprintln!(
        "ee-serve: listening on http://{} ({} workers{}{}) — try /healthz, /query, /tiles/0/0/0",
        handle.addr,
        workers,
        if writable { ", writable" } else { "" },
        if router { ", router" } else { "" }
    );
    // Serve forever; the process is stopped by signal.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
