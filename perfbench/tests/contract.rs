//! The benchmark's own tests: `BENCHMARK.json` against the metric tables,
//! seeded inputs, the output checks' ability to fail, and a smoke-scale
//! run of every workload that must emit exactly the declared names.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::als::{check_model, read_model, write_model};
use perfbench::serve::{check_counters, check_reply, closed_loop, tally, Until};
use perfbench::stats::file_fingerprint;
use perfbench::workload::{Driver, Workload};
use perfbench::{als, layers, serve, Report, Scale, END_TO_END, PER_LAYER, WORKLOADS};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use tenblock_core::obs::Rec;
use tenblock_cpd::KruskalTensor;
use tenblock_serve::Json;
use tenblock_tensor::{io_bin, DenseMatrix};

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn arr<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    match j.get(key) {
        Some(Json::Arr(a)) => a,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// An empty directory under the build's target directory.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let spec = spec();
    let Json::Obj(top) = &spec else {
        panic!("not an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let workloads: Vec<&str> = arr(&spec, "workloads")
        .iter()
        .map(|w| w.get_str("name").unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for w in arr(&spec, "workloads") {
        let why = w.get_str("why").unwrap();
        assert!(!why.contains('\n') && why.len() <= 200, "{why}");
    }

    let e2e = arr(&spec, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(j.get_str("name"), Some(m.name));
        assert_eq!(j.get_str("unit"), Some(m.unit));
        assert_eq!(j.get_str("better"), Some(m.better));
        assert_eq!(j.get_num("bound"), Some(m.bound));
        assert!(m.bound <= 0.25);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s declared");
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let layer = arr(&spec, "per_layer");
    assert_eq!(layer.len(), PER_LAYER.len());
    for (j, m) in layer.iter().zip(PER_LAYER) {
        assert_eq!(j.get_str("name"), Some(m.name));
        assert_eq!(j.get_str("unit"), Some(m.unit));
        assert_eq!(j.get_str("better"), Some(m.better));
        assert!(
            END_TO_END.iter().any(|e| e.name == m.moves),
            "{} moves undeclared {}",
            m.name,
            m.moves
        );
        assert!(
            !m.on.is_empty() && m.on.iter().all(|w| WORKLOADS.contains(w)),
            "{}",
            m.name
        );
    }

    let mut names: Vec<&str> = workloads.clone();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    for n in &names {
        assert!(valid_name(n) && n.len() <= 64, "bad name {n}");
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "names are unique");
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for name in WORKLOADS {
        let w = Workload::by_name(name, Scale::Smoke).unwrap();
        let prints = |seed: u64, tag: &str| -> Vec<u64> {
            let dir = fresh_dir(&format!("seed-{name}-{tag}"));
            w.generate(seed, &dir).unwrap();
            w.inputs
                .iter()
                .map(|s| file_fingerprint(&Workload::input_path(&dir, s)).unwrap())
                .collect()
        };
        let a = prints(5, "a");
        assert_eq!(a, prints(5, "b"), "{name}: same seed, same bytes");
        let c = prints(6, "c");
        assert!(
            a.iter().zip(&c).all(|(x, y)| x != y),
            "{name}: another seed changes every input"
        );
    }
}

#[test]
fn a_perturbed_factor_entry_is_counted_as_failed() {
    let w = Workload::by_name(perfbench::ALS_AMAZON, Scale::Smoke).unwrap();
    let dir = fresh_dir("perturbed");
    w.generate(1, &dir).unwrap();
    let x = io_bin::read_bin_file(Workload::input_path(&dir, &w.inputs[0])).unwrap();
    let r = tenblock_cpd::CpAls::new(&x, als::in_memory_options(&w, 2)).run(&x);
    let fit = *r.fit_history.last().unwrap();

    let mut report = Report::default();
    report.check(check_model(&r.model, fit, &x).is_ok(), String::new);
    let mut bad = r.model.clone();
    let f = &mut bad.factors[1];
    f.set(0, 0, f.get(0, 0) + 0.5);
    report.check(check_model(&bad, fit, &x).is_ok(), || "perturbed".into());
    let mut nan = r.model.clone();
    nan.lambda[0] = f64::NAN;
    report.check(check_model(&nan, fit, &x).is_ok(), || "nan".into());
    assert_eq!((report.attempted, report.failed), (3, 2));
    assert_eq!(report.failures, ["perturbed", "nan"]);

    // The streamed workload's model crosses a process boundary as a file.
    let path = dir.join("model.bin");
    write_model(&r.model, &path).unwrap();
    let back: KruskalTensor = read_model(&path).unwrap();
    assert_eq!(back.lambda, r.model.lambda);
    assert!(back
        .factors
        .iter()
        .zip(&r.model.factors)
        .all(|(a, b)| a.as_slice() == b.as_slice()));
}

fn reply(tensor: &str, mode: usize, rank: usize) -> Json {
    Json::parse(&format!(
        "{{\"ok\":true,\"v\":1,\"job\":\"j-1\",\"state\":\"done\",\"result\":{{\"tensor\":\"{tensor}\",\"mode\":{mode},\"kernel\":\"MB+RankB\",\"rank\":{rank},\"best_secs\":0.01}}}}"
    ))
    .unwrap()
}

#[test]
fn mis_echoed_or_dropped_replies_are_counted_as_failed() {
    assert!(check_reply(&reply("nell2", 1, 16), "nell2", 1, 16).is_ok());
    assert!(
        check_reply(&reply("nell2", 2, 16), "nell2", 1, 16).is_err(),
        "wrong mode"
    );
    assert!(
        check_reply(&reply("poisson2", 1, 16), "nell2", 1, 16).is_err(),
        "wrong tensor"
    );
    assert!(
        check_reply(&reply("nell2", 1, 8), "nell2", 1, 16).is_err(),
        "wrong rank"
    );
    let unversioned =
        Json::parse(r#"{"ok":true,"state":"done","result":{"tensor":"nell2","mode":1,"rank":16}}"#)
            .unwrap();
    assert!(check_reply(&unversioned, "nell2", 1, 16).is_err(), "no v");
    let refused =
        Json::parse(r#"{"ok":false,"v":1,"code":"queue-full","error":"job queue is full"}"#)
            .unwrap();
    assert!(check_reply(&refused, "nell2", 1, 16).is_err(), "refusal");

    let counters = |done: u64, rejected: u64| {
        Json::parse(&format!(
            "{{\"ok\":true,\"v\":1,\"metrics\":{{\"jobs\":{{\"submitted\":{done},\"rejected\":{rejected},\"done\":{done},\"failed\":0,\"cancelled\":0}}}}}}"
        ))
        .unwrap()
    };
    assert!(check_counters(&counters(10, 0), 10).is_ok());
    assert!(
        check_counters(&counters(9, 0), 10).is_err(),
        "a job the server never finished"
    );
    assert!(
        check_counters(&counters(10, 1), 10).is_err(),
        "a rejected job"
    );

    // A server that reads each request and hangs up without replying.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let hang_up = std::thread::spawn(move || {
        let (s, _) = listener.accept().unwrap();
        let mut line = String::new();
        std::io::BufReader::new(s).read_line(&mut line).unwrap();
    });
    let w = Workload::by_name(perfbench::SERVE_MTTKRP, Scale::Smoke).unwrap();
    let samples = closed_loop(&addr, &w, 1, Until::Count(3), &Rec::noop());
    hang_up.join().unwrap();
    let mut report = Report::default();
    let ok = tally(&samples, &mut report);
    assert!(ok.is_empty());
    assert_eq!(
        (report.attempted, report.failed),
        (1, 1),
        "{:?}",
        report.failures
    );
}

#[test]
fn a_report_with_a_missing_or_extra_metric_is_refused() {
    let mut report = Report::default();
    for m in END_TO_END {
        report.set(m.name, 1.0);
    }
    assert!(report.finish(false).is_ok());
    assert!(report.finish(true).is_err());
    report.set("extra", 1.0);
    assert!(report.finish(false).is_err());
}

/// Every workload at smoke scale, untraced and traced: each run passes
/// its output checks and emits exactly the declared metric names.
#[test]
fn smoke_runs_emit_exactly_the_declared_metrics() {
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
    for name in WORKLOADS {
        let w = Workload::by_name(name, Scale::Smoke).unwrap();
        let dir = fresh_dir(&format!("smoke-{name}"));
        w.generate(3, &dir).unwrap();
        for traced in [false, true] {
            let mut report = Report::default();
            if traced {
                layers::run_traced(&w, &dir, &exe, Scale::Smoke, &mut report).unwrap();
            } else {
                match w.driver {
                    Driver::InMemory => {
                        als::run_in_memory(&w, &dir, 0.1, Scale::Smoke, &mut report).unwrap()
                    }
                    Driver::Stream => {
                        als::run_stream(&w, &dir, &exe, 0.1, Scale::Smoke, &mut report).unwrap()
                    }
                    Driver::Serve => {
                        serve::run_serve(&w, &dir, &exe, 0.1, Scale::Smoke, &mut report).unwrap()
                    }
                }
            }
            let line = report
                .finish(traced)
                .unwrap_or_else(|e| panic!("{name} traced={traced}: {e}"));
            assert_eq!(
                report.failed, 0,
                "{name} traced={traced}: {:?}",
                report.failures
            );
            let parsed = Json::parse(&line).unwrap();
            let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
                panic!("{line}")
            };
            let declared: Vec<&str> = if traced {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            let mut declared = declared;
            declared.sort_unstable();
            assert_eq!(
                metrics.keys().map(String::as_str).collect::<Vec<_>>(),
                declared
            );
        }
    }
}

#[test]
fn kernel_check_catches_a_wrong_kernel() {
    // The pre-run check compares the workload kernel against the COO
    // reference; a result off by one entry must exceed the tolerance.
    let want = DenseMatrix::from_fn(4, 3, |r, c| (r + c) as f64);
    let mut got = want.clone();
    assert_eq!(als::rel_err(&got, &want), 0.0);
    got.set(2, 1, got.get(2, 1) * (1.0 + 1e-6));
    assert!(als::rel_err(&got, &want) > als::TOL);
}
