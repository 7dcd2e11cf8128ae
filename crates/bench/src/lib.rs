//! Experiment harnesses for the two-case delivery paper.
//!
//! One binary per table/figure of the evaluation section:
//!
//! | binary   | reproduces | run with |
//! |----------|-----------|----------|
//! | `table4` | Table 4: fast-path send/receive cycle counts | `cargo run -p fugu-bench --release --bin table4` |
//! | `table5` | Table 5: buffered-path costs | `... --bin table5` |
//! | `table6` | Table 6: application characteristics, standalone, 8 nodes | `... --bin table6` |
//! | `fig7`   | Fig. 7: % messages buffered vs schedule skew (+ §5.1 pages claim) | `... --bin fig7` |
//! | `fig8`   | Fig. 8: relative runtime vs schedule skew | `... --bin fig8` |
//! | `fig9`   | Fig. 9: % buffered vs send interval for synth-N | `... --bin fig9` |
//! | `fig10`  | Fig. 10: % buffered vs buffered-path cost | `... --bin fig10` |
//! | `ablate` | design-choice ablations from DESIGN.md §6 | `... --bin ablate` |
//! | `chaos`  | fault-injection sweep asserting delivery guarantees (docs/ROBUSTNESS.md) | `... --bin chaos` |
//! | `profile` | per-message latency spans, percentiles and cycle attribution by delivery case, plus a Perfetto trace (docs/OBSERVABILITY.md) | `... --bin profile` |
//! | `explore` | coverage-guided deterministic scenario explorer with automatic failure shrinking and `--replay` (docs/TESTING.md); its own flag set | `... --bin explore` |
//!
//! # Command-line flags
//!
//! Every binary accepts the same flag set:
//!
//! | flag | default | effect |
//! |------|---------|--------|
//! | `--quick` | off | reduced data sets for smoke runs |
//! | `--nodes N` | per-binary (8 for apps, 4 for synth, 2 for tables) | machine size |
//! | `--seed S` | `0xF00D` | base seed; trial `t` runs with seed `S + t` |
//! | `--trials K` | 1 | trials averaged per data point (paper: 3) |
//! | `--jobs J` | 1 | host threads sweeping data points in parallel |
//! | `--json PATH` | off | write the data points as schema-versioned JSON |
//! | `--help` | — | print usage and exit |
//!
//! `--jobs` only changes host-side wall-clock: every data point runs its
//! own deterministic simulation, results are reassembled in sweep order,
//! and the JSON output is byte-identical whatever `J` is (neither `--jobs`
//! nor `--json` is echoed into the report). Unknown options print usage
//! and exit with status 2. Data-set scaling versus the paper is recorded
//! in EXPERIMENTS.md; the JSON schema is documented in
//! docs/OBSERVABILITY.md.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use fugu_apps::{
    BarnesApp, BarnesParams, BarrierApp, BarrierParams, EnumApp, EnumParams, LuApp, LuParams,
    NullApp, SynthApp, SynthParams, WaterApp, WaterParams,
};
pub use fugu_sim::json::Json;
use udm::{CostModel, Cycles, JobSpec, Machine, MachineConfig, RunReport};

/// Schema identifier stamped into every `--json` report.
pub const BENCH_SCHEMA: &str = "fugu-bench/v1";

/// Common command-line options for all harness binaries.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Reduced data sets for smoke runs.
    pub quick: bool,
    /// Machine size (paper: 8 for the applications, 4 for synth).
    pub nodes: usize,
    /// Base seed.
    pub seed: u64,
    /// Trials averaged per data point (paper: 3).
    pub trials: u32,
    /// Host threads sweeping data points in parallel (default 1). Affects
    /// wall-clock only, never results.
    pub jobs: usize,
    /// Write the harness's data points to this path as JSON
    /// ([`BENCH_SCHEMA`]).
    pub json: Option<PathBuf>,
}

/// One line per flag; printed on `--help` and on a parse error.
pub const USAGE: &str = "\
options:
  --quick        reduced data sets for smoke runs
  --nodes N      machine size (default varies per binary)
  --seed S       base seed (default 0xF00D = 61453)
  --trials K     trials averaged per data point (default 1)
  --jobs J       host threads sweeping data points in parallel (default 1)
  --json PATH    write data points as JSON (schema fugu-bench/v1)
  --help         print this help";

impl Opts {
    /// Parses the flag set from explicit arguments (everything after
    /// `argv[0]`). Returns an error message naming the offending flag on
    /// unknown options, missing values, unparsable numbers, or a zero
    /// `--nodes` or `--trials`.
    ///
    /// # Example
    ///
    /// ```
    /// use fugu_bench::Opts;
    ///
    /// let args = ["--quick", "--nodes", "4", "--jobs", "2"];
    /// let opts = Opts::try_parse(8, args.iter().map(|s| s.to_string())).unwrap();
    /// assert!(opts.quick);
    /// assert_eq!(opts.nodes, 4);
    /// assert_eq!(opts.jobs, 2);
    /// assert!(Opts::try_parse(8, ["--bogus".to_string()]).is_err());
    /// ```
    pub fn try_parse(
        default_nodes: usize,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Opts, String> {
        let mut opts = Opts {
            quick: false,
            nodes: default_nodes,
            seed: 0xF00D,
            trials: 1,
            jobs: 1,
            json: None,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => opts.quick = true,
                "--nodes" => opts.nodes = positive("--nodes", flag_value("--nodes", &mut args)?)?,
                "--seed" => opts.seed = flag_value("--seed", &mut args)?,
                "--trials" => {
                    opts.trials = positive("--trials", flag_value("--trials", &mut args)?)?;
                }
                "--jobs" => opts.jobs = flag_value("--jobs", &mut args)?,
                "--json" => {
                    opts.json = Some(PathBuf::from(args.next().ok_or("--json needs a path")?));
                }
                "--help" => return Err("help".to_string()),
                other => return Err(format!("unknown option {other}")),
            }
        }
        Ok(opts)
    }

    /// Parses argv. On `--help` prints usage and exits 0; on any parse
    /// error prints the error plus usage to stderr and exits 2. Also calls
    /// [`stop_on_broken_pipe`].
    pub fn parse(default_nodes: usize) -> Opts {
        stop_on_broken_pipe();
        match Opts::try_parse(default_nodes, std::env::args().skip(1)) {
            Ok(opts) => opts,
            Err(e) if e == "help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }
}

/// Parses the integer that follows `flag` on the command line. The error
/// names the flag when the value is missing or is not an integer.
pub fn flag_value<T: std::str::FromStr>(
    flag: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<T, String> {
    args.next()
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("{flag} wants an integer"))
}

/// Passes `n` through unless it is zero, which `flag` does not accept.
pub fn positive<T: PartialEq + From<u8>>(flag: &str, n: T) -> Result<T, String> {
    if n == T::from(0) {
        return Err(format!("{flag} wants a positive integer"));
    }
    Ok(n)
}

/// Makes a write to a closed stdout (`fig7 | head -1`) end the process
/// quietly, as it does for `cat` or `grep`, instead of panicking in
/// `println!`. Rust ignores `SIGPIPE` by default; this restores the
/// default action. Every harness binary calls it before printing.
pub fn stop_on_broken_pipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    // SAFETY: installing the default disposition runs no handler code and
    // touches no memory; nothing in this program relies on `SIGPIPE` being
    // ignored.
    unsafe { signal(SIGPIPE, SIG_DFL) };
}

/// Applies `f` to every item, fanning out over `jobs` host threads
/// (`--jobs`). Results come back in item order regardless of which thread
/// finished first, so output built from them is independent of `jobs`.
/// With `jobs <= 1` this is a plain sequential map. A panic in any worker
/// propagates.
pub fn parallel_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        for _ in 0..jobs.min(items.len()) {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in rx {
        results[i] = Some(r);
    }
    results
        .into_iter()
        .map(|r| r.expect("scoped worker completed every item"))
        .collect()
}

/// Writes `text` to `path` and notes it on stderr. An unwritable path is
/// bad input, not a bug: it prints `error: writing <path>: <io error>` to
/// stderr and exits with status 1.
pub fn write_output(path: &Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("error: writing {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("wrote {}", path.display());
}

/// Writes the harness's data points to `opts.json` (no-op when the flag
/// was not given) via [`write_output`]. The document carries
/// [`BENCH_SCHEMA`], the binary name, and the result-affecting options —
/// deliberately *not* `--jobs` or the output path, so reports are
/// byte-identical across host parallelism.
pub fn write_report(opts: &Opts, binary: &str, points: Json) {
    let Some(path) = &opts.json else { return };
    let doc = Json::object([
        ("schema", Json::from(BENCH_SCHEMA)),
        ("binary", Json::from(binary)),
        ("quick", Json::from(opts.quick)),
        ("nodes", Json::from(opts.nodes)),
        ("seed", Json::from(opts.seed)),
        ("trials", Json::from(opts.trials)),
        ("points", points),
    ]);
    write_output(path, &doc.render_pretty());
}

/// The five applications of Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    Barnes,
    Water,
    Lu,
    Barrier,
    Enum,
}

impl AppKind {
    /// All five, in the paper's Table 6 order.
    pub const ALL: [AppKind; 5] = [
        AppKind::Barnes,
        AppKind::Water,
        AppKind::Lu,
        AppKind::Barrier,
        AppKind::Enum,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Barnes => "barnes",
            AppKind::Water => "water",
            AppKind::Lu => "lu",
            AppKind::Barrier => "barrier",
            AppKind::Enum => "enum",
        }
    }

    /// Paper-reported Table 6 row (cycles, messages, T_betw, T_hand), for
    /// side-by-side printing.
    pub fn paper_row(self) -> (f64, u64, f64, f64) {
        match self {
            AppKind::Barnes => (45.7e6, 107_849, 3_390.0, 337.0),
            AppKind::Water => (47.6e6, 36_303, 10_500.0, 419.0),
            AppKind::Lu => (13.4e6, 7_564, 14_200.0, 478.0),
            AppKind::Barrier => (18.5e6, 240_177, 615.0, 149.0),
            AppKind::Enum => (72.7e6, 610_148, 953.0, 320.0),
        }
    }

    /// Scaled workload parameters (see EXPERIMENTS.md for the mapping to
    /// the paper's data sets).
    pub fn job(self, nodes: usize, quick: bool) -> JobSpec {
        match self {
            AppKind::Barnes => {
                let params = BarnesParams {
                    bodies: if quick { 64 } else { 256 },
                    iters: 3,
                    interact_cost: 120,
                    build_cost: 120,
                    ..Default::default()
                };
                JobSpec::new("barnes", BarnesApp::spec(nodes, params))
            }
            AppKind::Water => {
                let params = WaterParams {
                    molecules: if quick { 32 } else { 128 },
                    iters: 3,
                    pair_check_cost: 30,
                    interact_cost: 800,
                    ..Default::default()
                };
                JobSpec::new("water", WaterApp::spec(nodes, params))
            }
            AppKind::Lu => {
                let params = if quick {
                    LuParams {
                        n: 48,
                        block: 12,
                        flop_cost: 32,
                    }
                } else {
                    LuParams {
                        n: 96,
                        block: 12,
                        flop_cost: 32,
                    }
                };
                JobSpec::new("lu", LuApp::spec(nodes, params))
            }
            AppKind::Barrier => {
                let params = BarrierParams {
                    barriers: if quick { 200 } else { 1_000 },
                    work: 0,
                };
                BarrierApp::spec(nodes, params)
            }
            AppKind::Enum => {
                let params = EnumParams {
                    side: if quick { 4 } else { 5 },
                    empty: if quick { 1 } else { 0 },
                    spray_depth: 4,
                    spray_percent: if quick { 25 } else { 12 },
                    steal_batch: 2,
                    expand_cost: 150,
                };
                JobSpec::new("enum", EnumApp::spec(nodes, params))
            }
        }
    }
}

/// Builds the standard experiment machine (§5: eight processors, 500k-cycle
/// timeslice, hard atomicity).
pub fn machine(nodes: usize, skew: f64, seed: u64, costs: CostModel) -> Machine {
    Machine::new(MachineConfig {
        nodes,
        skew,
        seed,
        costs,
        ..Default::default()
    })
}

/// Runs one application standalone (Table 6 conditions).
pub fn run_standalone(kind: AppKind, opts: &Opts, trial: u32) -> RunReport {
    let mut m = machine(
        opts.nodes,
        0.0,
        opts.seed + trial as u64,
        CostModel::hard_atomicity(),
    );
    m.add_job(kind.job(opts.nodes, opts.quick));
    m.run()
}

/// Cost model for the multiprogramming experiments. The paper's 500k-cycle
/// timeslice spans its applications' 13–73 Mcycle runtimes 27–146 times;
/// our data sets are scaled ~10× down, so the timeslice is scaled to match
/// (keeping the context-switch fraction identical). Recorded in
/// EXPERIMENTS.md.
pub fn multiprogram_costs() -> CostModel {
    CostModel {
        timeslice: 50_000,
        context_switch: 250,
        ..CostModel::hard_atomicity()
    }
}

/// Runs one application multiprogrammed against the null application at the
/// given skew (Fig. 7/8 conditions).
pub fn run_vs_null(kind: AppKind, skew: f64, opts: &Opts, trial: u32) -> RunReport {
    let mut m = machine(
        opts.nodes,
        skew,
        opts.seed + trial as u64,
        multiprogram_costs(),
    );
    m.add_job(kind.job(opts.nodes, opts.quick));
    m.add_job(NullApp::spec());
    m.run()
}

/// Runs synth-N multiprogrammed against null (Fig. 9/10 conditions: four
/// processors, 1% skew).
pub fn run_synth(
    group: u32,
    t_betw: Cycles,
    extra_buffer_cost: Cycles,
    opts: &Opts,
    trial: u32,
) -> RunReport {
    let costs = CostModel {
        extra_buffer_cost,
        ..CostModel::hard_atomicity()
    };
    let mut m = machine(opts.nodes, 0.01, opts.seed + trial as u64, costs);
    let total_requests: u32 = if opts.quick { 2_000 } else { 8_000 };
    let params = SynthParams {
        group,
        groups: (total_requests / group).max(2),
        t_betw,
        handler_stall: 193,
    };
    m.add_job(SynthApp::spec(opts.nodes, params));
    m.add_job(NullApp::spec());
    m.run()
}

/// The skew sweep of Figures 7 and 8 ("decreasing schedule quality").
pub fn skew_points(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.0, 0.1, 0.3]
    } else {
        vec![0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4]
    }
}

/// Aligned-column table printer for harness output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Renders the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (i, (c, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{:>width$}", c, width = w));
            }
            println!("{out}");
        };
        line(&self.headers);
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// Formats a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// Formats a cycle count in engineering style.
pub fn mcycles(c: Cycles) -> String {
    format!("{:.1}M", c as f64 / 1e6)
}
