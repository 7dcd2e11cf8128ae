//! The three workloads, each a configuration with a committed row in
//! `results/*.json`, and the oracle that checks runs against that row.

use std::path::Path;

use fugu_apps::{NullApp, SynthApp, SynthParams};
use fugu_bench::{machine, multiprogram_costs, AppKind, Json};
use udm::{CostModel, Machine, RunReport};

/// A benchmark workload: one machine configuration plus its jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 6 `barrier`: standalone, 8 nodes, hard atomicity, no skew.
    BarrierFast,
    /// `ablate.json` schedule quality at 40% skew: synth-1000 vs null.
    SynthSkew40,
    /// `fig7.json`/`fig8.json` barnes vs null at 20% skew.
    BarnesSkew20,
}

/// Where a workload's committed row lives: the file, the key/value pairs
/// that select the row among the file's points, and the fields checked.
struct RowSource {
    file: &'static str,
    nodes: usize,
    select: Vec<(&'static str, Json)>,
    fields: &'static [&'static str],
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::BarrierFast,
        Workload::SynthSkew40,
        Workload::BarnesSkew20,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BarrierFast => "barrier-fast",
            Workload::SynthSkew40 => "synth-skew40",
            Workload::BarnesSkew20 => "barnes-skew20",
        }
    }

    /// One line on why the workload is in the benchmark (`BENCHMARK.json`
    /// carries the same text).
    pub fn why(self) -> &'static str {
        match self {
            Workload::BarrierFast => {
                "Table 6 barrier: pure fast-path messaging, no compute, so host time is \
                 sim-thread switches plus the NIC/net fast path; the buffered layer idles"
            }
            Workload::SynthSkew40 => {
                "ablate synth-1000 vs null at 40% skew: 27% of messages buffered, so vbuf, \
                 frames, divert flips and quantum switches work at scale"
            }
            Workload::BarnesSkew20 => {
                "fig7/fig8 barnes vs null at 20% skew: CRL request/reply traffic whose \
                 interrupts preempt compute, churning the event queue; no layer dominates"
            }
        }
    }

    /// Looks a workload up by its `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The job whose completion and delivery statistics are measured.
    pub fn foreground(self) -> &'static str {
        match self {
            Workload::BarrierFast => "barrier",
            Workload::SynthSkew40 => "synth",
            Workload::BarnesSkew20 => "barnes",
        }
    }

    /// Builds the machine and adds the jobs, exactly as the harness that
    /// produced the committed row does (trial 0, so the machine seed is
    /// `seed` itself).
    pub fn build(self, seed: u64) -> Machine {
        match self {
            Workload::BarrierFast => {
                let mut m = machine(8, 0.0, seed, CostModel::hard_atomicity());
                m.add_job(AppKind::Barrier.job(8, false));
                m
            }
            Workload::SynthSkew40 => {
                // `ablate`'s schedule-quality ablation (its private
                // `run_synth_with_skew(1_000, 275, 0.4, ..)`).
                let mut m = machine(4, 0.4, seed, CostModel::hard_atomicity());
                m.add_job(SynthApp::spec(
                    4,
                    SynthParams {
                        group: 1_000,
                        groups: 6,
                        t_betw: 275,
                        handler_stall: 193,
                    },
                ));
                m.add_job(NullApp::spec());
                m
            }
            Workload::BarnesSkew20 => {
                // `fugu_bench::run_vs_null(Barnes, 0.2, ..)`.
                let mut m = machine(8, 0.2, seed, multiprogram_costs());
                m.add_job(AppKind::Barnes.job(8, false));
                m.add_job(NullApp::spec());
                m
            }
        }
    }

    fn sources(self) -> Vec<RowSource> {
        match self {
            Workload::BarrierFast => vec![RowSource {
                file: "table6.json",
                nodes: 8,
                select: vec![("app", Json::from("barrier"))],
                fields: &["cycles", "messages", "t_hand"],
            }],
            Workload::SynthSkew40 => vec![RowSource {
                file: "ablate.json",
                nodes: 4,
                select: vec![
                    ("section", Json::from("schedule_quality")),
                    ("skew", Json::from(0.4)),
                ],
                fields: &["buffered_fraction", "peak_pages"],
            }],
            Workload::BarnesSkew20 => {
                let select = vec![("app", Json::from("barnes")), ("skew", Json::from(0.2))];
                vec![
                    RowSource {
                        file: "fig7.json",
                        nodes: 8,
                        select: select.clone(),
                        fields: &["buffered_fraction", "peak_pages"],
                    },
                    RowSource {
                        file: "fig8.json",
                        nodes: 8,
                        select,
                        fields: &["completion_cycles"],
                    },
                ]
            }
        }
    }

    /// The checked statistics of one run, named and encoded as the
    /// harness that wrote the committed row encodes them.
    pub fn stats(self, report: &RunReport) -> Vec<(&'static str, Json)> {
        let job = report.job(self.foreground());
        let completion = job.completion.map(|c| c as f64);
        match self {
            Workload::BarrierFast => vec![
                ("cycles", Json::from(completion)),
                ("messages", Json::from(job.sent as f64)),
                ("t_hand", Json::from(job.handler_cycles.mean())),
            ],
            Workload::SynthSkew40 => vec![
                ("buffered_fraction", Json::from(job.buffered_fraction())),
                ("peak_pages", Json::from(report.peak_buffer_pages())),
            ],
            Workload::BarnesSkew20 => vec![
                ("buffered_fraction", Json::from(job.buffered_fraction())),
                ("peak_pages", Json::from(report.peak_buffer_pages())),
                ("completion_cycles", Json::from(completion)),
            ],
        }
    }
}

/// A run's checked statistics, rendered: `(field, JSON text)`.
pub type Signature = Vec<(String, String)>;

fn signature(stats: &[(&str, Json)]) -> Signature {
    stats
        .iter()
        .map(|(k, v)| (k.to_string(), v.render()))
        .collect()
}

/// Checks each run's statistics. At the seed the committed rows were
/// produced with, every run must equal its row byte for byte; at any seed,
/// every run must equal the first.
#[derive(Debug)]
pub struct Oracle {
    /// The seed recorded in the committed result files.
    pub committed_seed: u64,
    expected: Option<Signature>,
    first: Option<Signature>,
}

impl Oracle {
    /// Reads the committed rows of `workload` from `results_dir`.
    ///
    /// # Errors
    ///
    /// Returns a message if a result file is missing or unreadable, its
    /// header does not describe the workload's configuration, or the row is
    /// not there.
    pub fn load(workload: Workload, results_dir: &Path, seed: u64) -> Result<Oracle, String> {
        let mut committed_seed = None;
        let mut expected = Signature::new();
        for src in workload.sources() {
            let path = results_dir.join(src.file);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            let header = |key: &str| doc.get(key).map(Json::render).unwrap_or_default();
            if header("quick") != "false"
                || header("trials") != "1"
                || header("nodes") != src.nodes.to_string()
            {
                return Err(format!(
                    "{}: header is not a full-size single-trial run on {} nodes",
                    path.display(),
                    src.nodes
                ));
            }
            let file_seed: u64 = header("seed")
                .parse()
                .map_err(|_| format!("{}: no integer seed", path.display()))?;
            if *committed_seed.get_or_insert(file_seed) != file_seed {
                return Err(format!("{}: seed differs between files", path.display()));
            }
            let Some(Json::Arr(points)) = doc.get("points") else {
                return Err(format!("{}: no points array", path.display()));
            };
            let row = points
                .iter()
                .find(|p| {
                    src.select
                        .iter()
                        .all(|(k, v)| p.get(k).map(Json::render) == Some(v.render()))
                })
                .ok_or_else(|| format!("{}: no row matching {:?}", path.display(), src.select))?;
            for field in src.fields {
                let value = row
                    .get(field)
                    .ok_or_else(|| format!("{}: row lacks {field}", path.display()))?;
                expected.push((field.to_string(), value.render()));
            }
        }
        let committed_seed = committed_seed.expect("every workload has a source");
        Ok(Oracle {
            committed_seed,
            expected: (seed == committed_seed).then_some(expected),
            first: None,
        })
    }

    /// True if runs are checked against the committed rows (not only
    /// against each other).
    pub fn against_committed(&self) -> bool {
        self.expected.is_some()
    }

    /// Checks one run's statistics.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatching field.
    pub fn check(&mut self, stats: &[(&str, Json)]) -> Result<(), String> {
        let got = signature(stats);
        let first = self.first.get_or_insert_with(|| got.clone());
        for (reference, what) in [
            (self.expected.as_ref(), "committed row"),
            (Some(&*first), "first run"),
        ] {
            let Some(reference) = reference else { continue };
            let mut want = reference.clone();
            want.sort();
            let mut have = got.clone();
            have.sort();
            if want != have {
                return Err(format!("stats {have:?} differ from the {what} {want:?}"));
            }
        }
        Ok(())
    }
}
