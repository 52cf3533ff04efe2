//! `perfbench`: the measuring half of the repository benchmark.
//! `perfbench/run.py` builds it and drives it; see `perfbench/README.md`.
//!
//! ```text
//! perfbench gen   --workload W --seed N --dir D
//! perfbench run   --workload W --seed N --seconds S --trace 0|1 --dir D
//!                 [--server BIN] [--out DIR]
//! perfbench check-stream --input F --store F --rank R [--model F --fit X]
//! perfbench serve [--addr A]
//! ```
//!
//! `run` prints the input record (seed and fingerprints), then the result
//! line last. It exits 1 after printing when an output check failed, and
//! 2 without a result when the run could not complete.

use perfbench::layers::run_traced;
use perfbench::serve::{default_server_bin, run_serve};
use perfbench::workload::{Driver, Workload};
use perfbench::{als, Report, Scale, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tenblock_core::obs::SpanSnapshot;
use tenblock_serve::{Server, ServerConfig};

struct Args(Vec<String>);

impl Args {
    fn get(&self, key: &str) -> Option<&str> {
        let flag = format!("--{key}");
        self.0
            .windows(2)
            .find(|w| w[0] == flag)
            .map(|w| w[1].as_str())
    }

    fn req(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.req(key)?.parse().map_err(|_| format!("bad --{key}"))
    }
}

fn workload(args: &Args) -> Result<Workload, String> {
    let name = args.req("workload")?;
    Workload::by_name(name, Scale::Full).ok_or_else(|| format!("unknown workload {name}"))
}

/// The spans and per-layer table of a traced run, as JSON.
fn trace_json(run_id: &str, spans: &[SpanSnapshot], report: &Report) -> String {
    let spans: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"run\":\"{run_id}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.thread, s.start_ns, s.end_ns
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"value\":{:?},\"moves\":\"{}\",\"on\":{:?}}}",
                m.name,
                m.unit,
                report.get(m.name).unwrap_or(f64::NAN),
                m.moves,
                m.on
            )
        })
        .collect();
    format!(
        "{{\"run\":\"{run_id}\",\"layers\":[\n{}\n],\"spans\":[\n{}\n]}}\n",
        layers.join(",\n"),
        spans.join(",\n")
    )
}

fn run(args: &Args) -> Result<Report, String> {
    let w = workload(args)?;
    let scale = Scale::Full;
    let seed: u64 = args.num("seed")?;
    let seconds: f64 = args.num("seconds")?;
    let traced = args.req("trace")? == "1";
    let dir = PathBuf::from(args.req("dir")?);
    let bin = args
        .get("server")
        .map(PathBuf::from)
        .unwrap_or_else(default_server_bin);
    println!(
        "{}",
        w.describe_inputs(seed, &dir).map_err(|e| e.to_string())?
    );

    let mut report = Report::default();
    if traced {
        let spans = run_traced(&w, &dir, &bin, scale, &mut report)?;
        let run_id = format!("{}-{seed}-{}", w.name, std::process::id());
        let out = PathBuf::from(args.get("out").unwrap_or("perfbench/out"));
        std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
        let path = out.join(format!("trace-{}-{seed}.json", w.name));
        std::fs::write(&path, trace_json(&run_id, &spans, &report)).map_err(|e| e.to_string())?;
        eprintln!(
            "per-layer table and {} spans written to {}",
            spans.len(),
            path.display()
        );
        for m in PER_LAYER {
            eprintln!(
                "  {:<30} {:>16.6} {:<9} -> {} on {}",
                m.name,
                report.get(m.name).unwrap_or(f64::NAN),
                m.unit,
                m.moves,
                m.on.join(",")
            );
        }
    } else {
        match w.driver {
            Driver::InMemory => als::run_in_memory(&w, &dir, seconds, scale, &mut report)?,
            Driver::Stream => {
                let exe = std::env::current_exe().map_err(|e| e.to_string())?;
                als::run_stream(&w, &dir, &exe, seconds, scale, &mut report)?
            }
            Driver::Serve => run_serve(&w, &dir, &bin, seconds, scale, &mut report)?,
        }
    }
    Ok(report)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().cloned() else {
        eprintln!("usage: perfbench gen|run|check-stream ...");
        return ExitCode::from(2);
    };
    let args = Args(raw);
    match cmd.as_str() {
        "gen" => {
            let made = workload(&args).and_then(|w| {
                let seed: u64 = args.num("seed")?;
                w.generate(seed, Path::new(args.req("dir")?))
                    .map_err(|e| e.to_string())
            });
            match made {
                Ok(files) => {
                    for (path, nnz) in files {
                        eprintln!("generated {} ({nnz} nonzeros)", path.display());
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench gen: {e}");
                    ExitCode::from(2)
                }
            }
        }
        "run" => match run(&args) {
            Ok(report) => {
                let traced = args.get("trace") == Some("1");
                for f in &report.failures {
                    eprintln!("failed check: {f}");
                }
                match report.finish(traced) {
                    Ok(line) => {
                        println!("{line}");
                        if report.failed == 0 {
                            ExitCode::SUCCESS
                        } else {
                            ExitCode::from(1)
                        }
                    }
                    Err(e) => {
                        eprintln!("perfbench run: {e}");
                        ExitCode::from(2)
                    }
                }
            }
            Err(e) => {
                eprintln!("perfbench run: {e}");
                ExitCode::from(2)
            }
        },
        // An in-process stand-in for `tenblock serve` at its defaults, so
        // the benchmark's own tests can drive the serve path without the
        // repository's binary; the benchmark itself runs the real one.
        "serve" => match Server::bind(
            args.get("addr").unwrap_or("127.0.0.1:0"),
            ServerConfig::default(),
        ) {
            Ok(server) => {
                eprintln!("perfbench serve: listening on {}", server.addr());
                server.join();
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench serve: {e}");
                ExitCode::from(2)
            }
        },
        "check-stream" => {
            let checked = (|| -> Result<(), String> {
                let model = match args.get("model") {
                    Some(m) => Some((PathBuf::from(m), args.num::<f64>("fit")?)),
                    None => None,
                };
                als::check_stream(
                    Path::new(args.req("input")?),
                    Path::new(args.req("store")?),
                    args.num("rank")?,
                    model,
                )
            })();
            match checked {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(1)
                }
            }
        }
        other => {
            eprintln!("perfbench: unknown command {other}");
            ExitCode::from(2)
        }
    }
}
