//! The experiment harness: regenerates every E1–E12 table plus the E-k0
//! kernel-throughput table.
//!
//! ```text
//! harness                 # run everything at Quick scale
//! harness --list          # print the experiment ids and exit
//! harness --full          # the EXPERIMENTS.md scale
//! harness e2 e3 --full    # selected experiments
//! harness kernels --full  # kernel throughput; also writes BENCH_PR1.json
//! harness e3 --threads 4  # join threads sweep up to 4; writes BENCH_PR3.json
//! ```
//!
//! Unknown experiment ids and unknown flags are rejected up front, before
//! anything runs; `--threads` must be a positive integer. The E3 threads
//! sweep asserts each parallel run bit-identical to serial and aborts
//! (non-zero exit) on divergence.

use ee_bench::{e3_complexity, kernels, run, Scale, ALL};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for id in ALL {
            println!("{id}");
        }
        return;
    }
    // Validate flags (and pull out --threads' value) before running
    // anything.
    let mut max_threads: Option<usize> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => {}
            "--threads" => {
                let Some(v) = it.next() else {
                    eprintln!("[harness] --threads needs a value, e.g. --threads 4");
                    std::process::exit(2);
                };
                match v.parse::<usize>() {
                    Ok(t) if t >= 1 => max_threads = Some(t),
                    _ => {
                        eprintln!("[harness] --threads must be a positive integer, got {v:?}");
                        std::process::exit(2);
                    }
                }
            }
            other if other.starts_with("--") => {
                eprintln!(
                    "[harness] unknown flag {other:?}; known: --full, --list, --threads N"
                );
                std::process::exit(2);
            }
            other => positional.push(other.to_string()),
        }
    }
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Quick
    };
    let selected: Vec<String> = positional;
    let ids: Vec<&str> = if selected.is_empty() {
        ALL.to_vec()
    } else {
        selected.iter().map(|s| s.as_str()).collect()
    };
    // Validate every id before running any experiment, so a typo at the
    // end of the list doesn't waste the minutes spent on the ones before.
    for id in &ids {
        if !ALL.contains(id) {
            eprintln!("[harness] unknown experiment {id:?}; known: {ALL:?}");
            std::process::exit(2);
        }
    }
    println!(
        "# ExtremeEarth-rs experiment harness ({} scale)\n",
        if scale == Scale::Full { "full" } else { "quick" }
    );
    for id in ids {
        eprintln!("[harness] running {id} ...");
        let start = std::time::Instant::now();
        // The two bench-artifact experiments run once, feeding both the
        // printed table and their JSON file.
        let artifact: Option<(&str, ee_util::json::Json)> = match id {
            "kernels" => {
                let (tables, json) = kernels::report(scale);
                for t in tables {
                    println!("{}", t.markdown());
                }
                Some(("BENCH_PR1.json", json))
            }
            "e3" => {
                let max = max_threads.unwrap_or_else(|| {
                    ee_util::par::available_threads().clamp(1, 8)
                });
                let (tables, json) = e3_complexity::report(scale, max);
                for t in tables {
                    println!("{}", t.markdown());
                }
                Some(("BENCH_PR3.json", json))
            }
            _ => {
                let tables = run(id, scale).expect("id validated above");
                for t in tables {
                    println!("{}", t.markdown());
                }
                None
            }
        };
        if let Some((path, json)) = artifact {
            match std::fs::write(path, json.emit_pretty() + "\n") {
                Ok(()) => eprintln!("[harness] wrote {path}"),
                Err(e) => eprintln!("[harness] could not write {path}: {e}"),
            }
        }
        eprintln!(
            "[harness] {id} done in {:.1}s",
            start.elapsed().as_secs_f64()
        );
    }
}
