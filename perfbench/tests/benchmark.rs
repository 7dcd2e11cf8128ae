//! Tests of the benchmark itself: its declared metrics, its agreement with
//! `BENCHMARK.json`, its layer probes and its workloads' reproduction of
//! the committed result rows. Run with `--release`: the workload tests run
//! full-size simulations.

use fugu_bench::Json;
use fugu_perfbench::observe::{self, Findings, Observer};
use fugu_perfbench::spans::SpanLog;
use fugu_perfbench::workload::{Oracle, Workload};
use fugu_perfbench::{layers, repo_root, END_TO_END, PER_LAYER};

/// 1 to 64 characters from `[A-Za-z0-9_.-]`, starting with a letter or a
/// digit.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn metric_and_workload_names_are_valid_unique_and_within_limits() {
    assert!(END_TO_END.len() <= 16, "at most 16 end-to-end metrics");
    assert!(PER_LAYER.len() <= 128, "at most 128 per-layer metrics");
    let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n));
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
    }
    for w in Workload::ALL {
        assert!(valid_name(w.name()), "bad workload name {:?}", w.name());
        assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "names must be unique");
    assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b"));
    assert!(!valid_name(&"a".repeat(65)) && valid_name(&"a".repeat(64)));
}

fn strings(doc: &Json, key: &str) -> Vec<String> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        panic!("BENCHMARK.json lacks the array {key}");
    };
    items
        .iter()
        .map(|i| match i {
            Json::Str(s) => s.clone(),
            other => panic!("{key} holds a non-string {other:?}"),
        })
        .collect()
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        _ => panic!("BENCHMARK.json lacks the array {key}"),
    }
}

fn field(entry: &Json, key: &str) -> String {
    match entry.get(key) {
        Some(Json::Str(s)) => s.clone(),
        other => panic!("entry field {key} is {other:?}"),
    }
}

fn number(entry: &Json, key: &str) -> f64 {
    match entry.get(key) {
        Some(Json::Float(x)) => *x,
        Some(Json::UInt(n)) => *n as f64,
        other => panic!("entry field {key} is {other:?}"),
    }
}

fn keys(entry: &Json) -> Vec<&str> {
    match entry {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

#[test]
fn benchmark_json_lists_exactly_what_the_benchmark_reports() {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(strings(&doc, "paths"), ["perfbench"]);
    let command = strings(&doc, "command");
    assert!(command.iter().any(|a| a == "perfbench/Cargo.toml"));
    assert!(command
        .iter()
        .all(|a| !a.starts_with('/') && !a.contains("..")));
    let seconds = number(&doc, "run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let workloads = entries(&doc, "workloads");
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (entry, w) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(field(entry, "name"), w.name());
        assert_eq!(field(entry, "why"), w.why());
    }

    let e2e = entries(&doc, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, (name, unit)) in e2e.iter().zip(END_TO_END) {
        assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
        assert_eq!(
            (field(entry, "name"), field(entry, "unit")),
            (name.to_string(), unit.to_string())
        );
        assert!(["lower", "higher"].contains(&field(entry, "better").as_str()));
        let bound = number(entry, "bound");
        assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
    }
    let setup = e2e
        .iter()
        .find(|e| field(e, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(
        (field(setup, "unit"), field(setup, "better")),
        ("s".into(), "lower".into())
    );
    let largest = e2e.iter().map(|e| number(e, "bound")).fold(0.0, f64::max);
    assert_eq!(
        number(setup, "bound"),
        largest,
        "setup_s has the largest bound"
    );

    let per_layer = entries(&doc, "per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (entry, (name, unit)) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(keys(entry), ["name", "unit", "better"]);
        assert_eq!(
            (field(entry, "name"), field(entry, "unit")),
            (name.to_string(), unit.to_string())
        );
        assert!(["lower", "higher"].contains(&field(entry, "better").as_str()));
    }
}

#[test]
fn layer_probes_hold_their_checksums() {
    // Each probe asserts its checksum internally; small sizes suffice.
    for ns in [
        layers::coro_switch_ns(50),
        layers::coro_spawn_ns(8),
        layers::event_churn_ns(2_000, 7),
        layers::nic_enqueue_dispose_ns(1_000, 7),
        layers::net_inject_ns(1_000, 7),
        layers::vbuf_insert_pop_ns(1_000, 7),
    ] {
        assert!(ns.is_finite() && ns > 0.0);
    }
}

#[test]
fn oracle_rejects_a_run_that_differs_from_the_committed_row() {
    let results = repo_root().join("results");
    let seed = Oracle::load(Workload::BarrierFast, &results, 0)
        .expect("committed rows load")
        .committed_seed;
    let mut oracle = Oracle::load(Workload::BarrierFast, &results, seed).unwrap();
    assert!(oracle.against_committed());
    let row = [
        ("cycles", Json::from(405_000.0)),
        ("messages", Json::from(24_000.0)),
        ("t_hand", Json::from(89.0)),
    ];
    oracle.check(&row).expect("the committed row itself passes");
    let mut off = row.clone();
    off[1].1 = Json::from(24_001.0);
    assert!(oracle.check(&off).is_err());

    // Away from the committed seed, runs are held to the first run.
    let mut oracle = Oracle::load(Workload::BarrierFast, &results, seed + 1).unwrap();
    assert!(!oracle.against_committed());
    oracle
        .check(&off)
        .expect("the first run sets the reference");
    assert!(oracle.check(&row).is_err());
}

#[test]
fn every_workload_reproduces_its_committed_row() {
    let results = repo_root().join("results");
    for w in Workload::ALL {
        let seed = Oracle::load(w, &results, 0).unwrap().committed_seed;
        let mut oracle = Oracle::load(w, &results, seed).unwrap();
        let report = w.build(seed).run();
        oracle
            .check(&w.stats(&report))
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    }
}

#[test]
fn observers_leave_the_simulated_work_unchanged_and_find_nothing_wrong() {
    let w = Workload::BarnesSkew20;
    let mut log = SpanLog::new();
    let top = log.open("test", "test", None);
    let mut events = Vec::new();
    for observer in Observer::ALL {
        let outcome = observe::run(w, 3, observer, &mut log, top);
        let report = outcome.report.expect("the run completes");
        events.push(report.events_processed);
        match outcome.findings {
            Findings::None => assert_eq!(observer, Observer::Plain),
            Findings::Counts(c) => {
                assert!(c.records > 0 && c.launches > 0 && c.arrivals == c.launches);
            }
            Findings::Profile(p) => {
                assert!(p.errors.is_empty());
                assert_eq!(p.stitch_rate(), 1.0);
            }
            Findings::Violations(v) => assert!(v.is_empty(), "{v:?}"),
        }
    }
    assert!(events.iter().all(|&e| e == events[0]), "{events:?}");
    log.close(top, Vec::new());

    // Set-up, run and finish spans of four runs, under the top span.
    assert_eq!(log.len(), 1 + 4 * 3);
    let trace = Json::parse(&log.to_chrome_trace().render()).expect("trace parses");
    let Some(Json::Arr(events)) = trace.get("traceEvents") else {
        panic!("no traceEvents");
    };
    assert_eq!(events.len(), log.len());
    assert!(events.iter().all(|e| e.get("ph") == Some(&Json::from("X"))));
}
