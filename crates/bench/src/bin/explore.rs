//! Coverage-guided deterministic scenario explorer (`fugu-explore`).
//!
//! Searches the two-case-delivery scenario space in the FoundationDB
//! simulation-testing mold: scenarios (machine shape × workload × fault
//! plan × scheduling perturbations) are generated from one seed via
//! [`fugu_sim::explore::generate`], each is run under the full oracle stack
//! —
//!
//! - [`InvariantChecker`]: conservation, per-channel FIFO, drain progress,
//!   buffering accounting, frame-budget bound;
//! - [`fugu_sim::span::Profiler`] on fault-free runs: 100% stitch rate and
//!   exact per-message cycle attribution;
//! - report/trace cross-check on fault-free runs: the run report's send and
//!   delivery counters must equal the checker's trace-derived counts;
//! - byte-identical replay: every 16th scenario (and every failure) is run
//!   twice and the two outcomes must serialize to the same bytes —
//!
//! and its outcome is reduced to a behavioral coverage signature so the
//! corpus keeps one scenario per *behavior*, not per draw. Failures are
//! automatically shrunk to a structurally minimal repro and printed as a
//! one-line `--replay <spec>` invocation.
//!
//! The whole run is a pure function of `--seed` and `--budget`: two
//! invocations produce byte-identical corpus-summary JSON regardless of
//! `--jobs`. See `docs/TESTING.md`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use fugu_apps::{
    BarrierApp, BarrierParams, EnumApp, EnumParams, LuApp, LuParams, NullApp, SynthApp, SynthParams,
};
use fugu_bench::{parallel_map, write_output, Json, Table};
use fugu_sim::explore::{
    generate, shrink, Outcome, RunStatus, ScenarioSpec, ShrinkResult, WorkloadInfo,
};
use fugu_sim::rng::DetRng;
use fugu_sim::span::Profiler;
use udm::{InvariantChecker, Machine, MachineConfig};

/// Schema of the corpus-summary report.
const EXPLORE_SCHEMA: &str = "fugu-explore/v1";

/// Workloads the generator draws from. `synth` (and `mix`, which includes
/// it) blocks forever on a lost reply, so only the loss-tolerant protocols
/// are eligible for `drop` faults.
const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "synth",
        loss_tolerant: false,
        pow2_nodes: false,
    },
    WorkloadInfo {
        name: "barrier",
        loss_tolerant: true,
        pow2_nodes: true,
    },
    WorkloadInfo {
        name: "enum",
        loss_tolerant: true,
        pow2_nodes: false,
    },
    WorkloadInfo {
        name: "lu",
        loss_tolerant: true,
        pow2_nodes: true,
    },
    WorkloadInfo {
        name: "mix",
        loss_tolerant: false,
        pow2_nodes: false,
    },
];

/// Scenarios re-run for the byte-identical replay check (1 in this many).
const REPLAY_CHECK_STRIDE: usize = 16;

/// Replay budget for shrinking one failure.
const SHRINK_BUDGET: u32 = 60;

const USAGE: &str = "\
usage: explore [options]
  --seed S        corpus seed (default 0xF00D = 61453)
  --budget N      scenarios to explore (default 96; 32 with --quick)
  --jobs J        host threads (wall-clock only, never results; default 1)
  --json PATH     write the corpus summary as JSON (schema fugu-explore/v1)
  --quick         smaller default budget and workload intensities
  --replay SPEC   run one scenario spec verbosely and exit (1 if it fails)
  --help          print this help";

struct ExploreOpts {
    seed: u64,
    budget: u32,
    jobs: usize,
    json: Option<PathBuf>,
    quick: bool,
    replay: Option<String>,
}

fn parse_opts(args: impl IntoIterator<Item = String>) -> Result<ExploreOpts, String> {
    let mut opts = ExploreOpts {
        seed: 0xF00D,
        budget: 0, // resolved after --quick is known
        jobs: 1,
        json: None,
        quick: false,
        replay: None,
    };
    let mut budget: Option<u32> = None;
    let mut args = args.into_iter();
    fn value<T: std::str::FromStr>(
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<T, String> {
        args.next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse()
            .map_err(|_| format!("{flag} wants an integer"))
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => opts.seed = value("--seed", &mut args)?,
            "--budget" => budget = Some(value("--budget", &mut args)?),
            "--jobs" => opts.jobs = value("--jobs", &mut args)?,
            "--json" => {
                opts.json = Some(PathBuf::from(args.next().ok_or("--json needs a path")?));
            }
            "--quick" => opts.quick = true,
            "--replay" => {
                opts.replay = Some(args.next().ok_or("--replay needs a scenario spec")?);
            }
            "--help" => return Err("help".to_string()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    opts.budget = budget.unwrap_or(if opts.quick { 32 } else { 96 });
    Ok(opts)
}

/// Instantiates the spec's workload jobs on the machine.
fn add_workload(m: &mut Machine, spec: &ScenarioSpec) -> Result<(), String> {
    let nodes = spec.nodes;
    let scale = spec.scale.min(2) as usize;
    let synth = |scale: usize| {
        SynthApp::spec(
            nodes,
            SynthParams {
                group: [4, 10, 32][scale],
                groups: [4, 8, 16][scale],
                t_betw: 1_000,
                handler_stall: 193,
            },
        )
    };
    let enumerate = |scale: usize| {
        let a = EnumApp::spec(
            nodes,
            EnumParams {
                side: 4,
                empty: [1, 1, 2][scale],
                spray_depth: 4,
                spray_percent: 25,
                steal_batch: 2,
                expand_cost: 150,
            },
        );
        EnumApp::job(&a)
    };
    match spec.workload.as_str() {
        "synth" => {
            m.add_job(synth(scale));
        }
        "barrier" => {
            m.add_job(BarrierApp::spec(
                nodes,
                BarrierParams {
                    barriers: [20, 60, 150][scale],
                    work: 0,
                },
            ));
        }
        "enum" => {
            m.add_job(enumerate(scale));
        }
        "lu" => {
            let a = LuApp::spec(
                nodes,
                LuParams {
                    n: [24, 48, 96][scale],
                    block: 12,
                    flop_cost: 32,
                },
            );
            m.add_job(LuApp::job(&a));
        }
        "mix" => {
            // Two foreground jobs gang-scheduled against each other.
            m.add_job(enumerate(scale.min(1)));
            m.add_job(synth(scale.min(1)));
        }
        other => return Err(format!("unknown workload `{other}`")),
    }
    if spec.bg_null {
        m.add_job(NullApp::spec());
    }
    Ok(())
}

/// Runs one scenario under the full oracle stack.
fn run_scenario(spec: &ScenarioSpec) -> Result<Outcome, String> {
    if !WORKLOADS.iter().any(|w| w.name == spec.workload) {
        return Err(format!("unknown workload `{}`", spec.workload));
    }
    let mut cfg = MachineConfig::from_scenario(spec);
    // Generated timeslices reach 2M cycles and lossy plans retry; a
    // generous ceiling keeps runaway scenarios bounded without tripping on
    // legitimately slow ones (observed end times are tens of Mcycles).
    cfg.max_cycles = 1 << 33;
    let mut m = Machine::new(cfg);
    let checker = InvariantChecker::new().with_page_bound(spec.frames);
    checker.attach(m.tracer());
    let profiler = Profiler::new();
    profiler.attach(m.tracer());

    // Job construction runs inside the catch too: a hand-written replay
    // spec can violate an application precondition (e.g. the barrier's
    // power-of-two node count), which should classify, not crash.
    let run = catch_unwind(AssertUnwindSafe(move || {
        add_workload(&mut m, spec).expect("workload name validated above");
        m.run()
    }));

    let stats = checker.stats();
    let mut violations: Vec<(String, String)> = checker
        .violations()
        .iter()
        .map(|v| (v.kind.to_string(), format!("[{}] {}", v.at, v.detail)))
        .collect();
    let mut outcome = Outcome {
        spec: spec.clone(),
        status: RunStatus::Completed,
        detail: None,
        cycles: 0,
        launched: stats.launched,
        delivered: stats.delivered,
        fast: 0,
        buffered: 0,
        revocations: 0,
        peak_pages: stats.peak_pages,
        suspensions: 0,
        violations: Vec::new(),
    };
    match run {
        Ok(report) => {
            outcome.cycles = report.end_time;
            let mut sent = 0u64;
            for j in &report.jobs {
                sent += j.sent;
                outcome.fast += j.delivered_fast;
                outcome.buffered += j.delivered_buffered;
                outcome.revocations += j.atomicity_timeouts;
            }
            outcome.suspensions = report.nodes.iter().map(|n| n.overflow_suspends).sum();
            if !spec.faults.is_active() {
                // Fault-free runs: the report's counters and the trace
                // oracle's must agree exactly, and every delivered span
                // must stitch with an exact cycle attribution.
                if sent != stats.launched || outcome.fast + outcome.buffered != stats.delivered {
                    violations.push((
                        "report-trace-divergence".to_string(),
                        format!(
                            "report sent {sent} / delivered {} vs trace launched {} / \
                             delivered {}",
                            outcome.fast + outcome.buffered,
                            stats.launched,
                            stats.delivered
                        ),
                    ));
                }
                let profile = profiler.finish();
                for err in &profile.errors {
                    violations.push(("span-profile".to_string(), err.clone()));
                }
                if profile.stitch_rate() < 1.0 {
                    violations.push((
                        "span-stitch".to_string(),
                        format!(
                            "stitched {}/{} delivered spans",
                            profile.stitched, profile.delivered
                        ),
                    ));
                }
            }
        }
        Err(payload) => {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            outcome.status = RunStatus::classify(&message);
            let brief: String = message
                .lines()
                .next()
                .unwrap_or("")
                .chars()
                .take(160)
                .collect();
            outcome.detail = Some(brief);
        }
    }
    outcome.violations = violations;
    Ok(outcome)
}

/// Runs a scenario and, when `check_replay`, runs it a second time and
/// flags any byte-level divergence between the two outcomes.
fn run_checked(spec: &ScenarioSpec, check_replay: bool) -> Result<Outcome, String> {
    let mut outcome = run_scenario(spec)?;
    if check_replay || outcome.failed() {
        let again = run_scenario(spec)?;
        if again.to_json().render() != outcome.to_json().render() {
            outcome.violations.push((
                "nondeterministic-replay".to_string(),
                "same spec produced two different outcomes".to_string(),
            ));
        }
    }
    Ok(outcome)
}

/// The equivalence class used to decide a shrunk variant reproduces "the
/// same" failure: how the run ended plus the set of violation kinds.
fn failure_key(o: &Outcome) -> (RunStatus, Vec<String>) {
    let mut kinds: Vec<String> = o.violations.iter().map(|(k, _)| k.clone()).collect();
    kinds.sort();
    kinds.dedup();
    (o.status, kinds)
}

fn replay_main(spec_text: &str) -> i32 {
    let spec = match ScenarioSpec::parse(spec_text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    println!("replaying {spec}");
    match run_checked(&spec, true) {
        Ok(outcome) => {
            print!("{}", outcome.to_json().render_pretty());
            if outcome.failed() {
                eprintln!("scenario FAILED ({})", outcome.status.as_str());
                1
            } else {
                println!("scenario passed");
                0
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn main() {
    let opts = match parse_opts(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) if e == "help" => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(spec_text) = &opts.replay {
        std::process::exit(replay_main(spec_text));
    }

    println!(
        "exploring {} scenarios from seed {} ({} workloads, {} host thread(s))",
        opts.budget,
        opts.seed,
        WORKLOADS.len(),
        opts.jobs
    );
    let mut rng = DetRng::new(opts.seed);
    let mut specs: Vec<(usize, ScenarioSpec)> = (0..opts.budget as usize)
        .map(|i| (i, generate(&mut rng, WORKLOADS)))
        .collect();
    if opts.quick {
        for (_, s) in &mut specs {
            s.scale = s.scale.min(1);
        }
    }

    // Expected panics (deadlocks, max-cycles trips) are caught and
    // classified; silence the default hook so a sweep over thousands of
    // scenarios does not spray backtraces. Restored before reporting.
    let debug = std::env::var("FUGU_EXPLORE_DEBUG").is_ok();
    if debug {
        for (i, s) in &specs {
            eprintln!("spec {i}: {s}");
        }
    }
    let hook = std::panic::take_hook();
    if !debug {
        std::panic::set_hook(Box::new(|_| {}));
    }
    let outcomes = parallel_map(opts.jobs, &specs, |(idx, spec)| {
        run_checked(spec, idx % REPLAY_CHECK_STRIDE == 0).expect("generated workloads are known")
    });

    let mut corpus = fugu_sim::explore::Corpus::new();
    let mut failures: Vec<Outcome> = Vec::new();
    for outcome in outcomes {
        if outcome.failed() {
            failures.push(outcome.clone());
        }
        corpus.record(outcome);
    }

    // Shrink one representative per distinct failure class.
    let mut shrunk: Vec<(Outcome, ShrinkResult)> = Vec::new();
    let mut seen_keys: Vec<(RunStatus, Vec<String>)> = Vec::new();
    for failure in &failures {
        let key = failure_key(failure);
        if seen_keys.contains(&key) {
            continue;
        }
        seen_keys.push(key.clone());
        let result = shrink(&failure.spec, SHRINK_BUDGET, |candidate| {
            run_scenario(candidate)
                .map(|o| failure_key(&o) == key)
                .unwrap_or(false)
        });
        shrunk.push((failure.clone(), result));
    }
    std::panic::set_hook(hook);

    let mut t = Table::new(&[
        "signature",
        "status",
        "size",
        "cycles",
        "fast",
        "buffered",
        "revs",
        "pages",
    ]);
    for o in corpus.entries() {
        t.row(vec![
            o.signature().to_string(),
            o.status.as_str().to_string(),
            o.spec.size().to_string(),
            o.cycles.to_string(),
            o.fast.to_string(),
            o.buffered.to_string(),
            o.revocations.to_string(),
            o.peak_pages.to_string(),
        ]);
    }
    t.print();
    println!(
        "\n{} runs, {} unique behaviors, {} duplicates, {} failure(s) in {} class(es)",
        corpus.runs(),
        corpus.entries().len(),
        corpus.duplicates(),
        failures.len(),
        shrunk.len()
    );

    let mut failure_points = Vec::new();
    for (original, result) in &shrunk {
        println!(
            "\nFAILURE [{}] {}",
            original.status.as_str(),
            original.signature()
        );
        for (kind, detail) in &original.violations {
            println!("  {kind}: {detail}");
        }
        if let Some(detail) = &original.detail {
            println!("  panic: {detail}");
        }
        println!(
            "  original (size {:>3}): {}",
            original.spec.size(),
            original.spec
        );
        println!(
            "  shrunk   (size {:>3}): {} ({} replays, {} steps)",
            result.spec.size(),
            result.spec,
            result.runs,
            result.steps
        );
        println!("  repro: fugu explore --replay '{}'", result.spec);
        failure_points.push(Json::object([
            ("status", Json::from(original.status.as_str())),
            ("signature", Json::from(original.signature().to_string())),
            ("detail", Json::from(original.detail.clone())),
            (
                "violations",
                Json::array(original.violations.iter().map(|(kind, detail)| {
                    Json::object([
                        ("kind", Json::from(kind.as_str())),
                        ("detail", Json::from(detail.as_str())),
                    ])
                })),
            ),
            ("spec", Json::from(original.spec.render())),
            ("spec_size", Json::from(original.spec.size())),
            ("shrunk_spec", Json::from(result.spec.render())),
            ("shrunk_size", Json::from(result.spec.size())),
            ("shrink_replays", Json::from(result.runs)),
            ("shrink_steps", Json::from(result.steps)),
        ]));
    }

    if let Some(path) = &opts.json {
        // Deliberately excludes --jobs and the output path, so reports are
        // byte-identical across host parallelism (same discipline as
        // fugu_bench::write_report).
        let doc = Json::object([
            ("schema", Json::from(EXPLORE_SCHEMA)),
            ("seed", Json::from(opts.seed)),
            ("budget", Json::from(opts.budget)),
            ("quick", Json::from(opts.quick)),
            ("corpus", corpus.to_json()),
            ("failures", Json::array(failure_points)),
        ]);
        write_output(path, &doc.render_pretty());
    }

    if !failures.is_empty() {
        std::process::exit(1);
    }
    println!("all scenarios upheld the delivery guarantees");
}
