//! Run data, metric definitions (with the prediction of which end-to-end
//! metric each layer metric should move), and their computation.

use hsyn::core::{SynthesisConfig, SynthesisReport};

use crate::jobs::Job;
use crate::probe::ProbeAcc;
use crate::stats::{geomean, mean, median, ratio, tail, Tail};
use crate::trace::{self, Span};

/// One metric of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// How it is measured.
    pub what: &'static str,
    /// For layer metrics: the end-to-end metric and workload it should
    /// move. For end-to-end metrics: how the workloads differ.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    what: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        what,
        moves,
    }
}

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower",
      "median of 21 set-ups: the first round's jobs generated, behaviors and library resolved, configs and traces built; serve_mixed adds daemon bind and first ping",
      "all workloads"),
    m("jobs_per_s", "jobs/s", "higher",
      "completed jobs / wall time of the timed phase (whole rounds of jobs; the gate is untimed)",
      "all workloads"),
    m("job_s_geomean", "s", "lower",
      "geometric mean latency of the first round's synthesizing jobs: synthesize wall time in process, client round trip of the new (missing) jobs on serve_mixed",
      "all workloads"),
    m("qor_area", "area", "lower",
      "geomean of final evaluation.area.total() over the first round's distinct jobs; exact for a seed",
      "all workloads"),
    m("qor_power", "power", "lower",
      "geomean of final evaluation.power.power over the first round's distinct jobs; exact for a seed",
      "all workloads"),
    m("peak_rss_mb", "MiB", "lower",
      "peak resident memory (VmHWM) while jobs run, before the output gate: per synthesize call on area_sweep, over the closed loop on serve_mixed",
      "all workloads"),
];

/// Layer metrics, from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("core.synthesize_s", "s", "lower", "mean span around synthesize (first round)",
      "jobs_per_s and job_s_geomean on area_sweep; job_s_geomean on serve_mixed"),
    m("core.evaluated", "count", "lower", "MoveStats.evaluated summed over the first round; exact",
      "exact: a performance change must leave it equal"),
    m("core.accept_ratio", "ratio", "higher", "applied A-D / evaluated; exact",
      "exact: a performance change must leave it equal"),
    m("core.rolled_back", "count", "lower", "MoveStats.moves_rolled_back summed; exact",
      "exact: a performance change must leave it equal"),
    m("core.applied_b", "count", "higher", "MoveStats.applied_b summed; exact",
      "exact: a performance change must leave it equal"),
    m("core.eval_cache_hit_rate", "ratio", "higher", "eval_cache_hits / (hits + misses)",
      "job_s_geomean on serve_mixed (power jobs)"),
    m("core.eval_s", "s", "lower", "ConfigTelemetry eval_full_s + eval_incr_s per job (summed across threads)",
      "job_s_geomean on serve_mixed (power jobs)"),
    m("core.apply_s", "s", "lower", "ConfigTelemetry apply_s per job (summed across threads)",
      "jobs_per_s on area_sweep"),
    m("core.lns_s", "s", "lower", "ConfigTelemetry lns_s per job (summed across threads)",
      "jobs_per_s on area_sweep (LNS sets its slowest jobs); 0 on serve_mixed"),
    m("core.unattributed_s", "s", "lower", "core.synthesize_s - eval - apply - lns - verify per job",
      "job_s_geomean on serve_mixed (the time no program timer covers; negative under area_sweep's parallel sweep)"),
    m("core.lns_accept_ratio", "ratio", "higher", "lns_accepts / lns_ruins",
      "area_sweep"),
    m("core.candidates", "count", "lower", "A/C/D candidates generated on each final design; exact",
      "jobs_per_s on area_sweep"),
    m("core.try_us", "us", "lower", "mean Transaction::apply + evaluate + rollback per candidate tried (move-B closure returns None)",
      "jobs_per_s on area_sweep"),
    m("core.initial_solution_us", "us", "lower", "mean initial_solution at the final operating point (sched + rtl build)",
      "jobs_per_s on area_sweep"),
    m("core.evaluate_us", "us", "lower", "mean full evaluate of the final design",
      "job_s_geomean on serve_mixed (power jobs)"),
    m("power.simulate_us", "us", "lower", "mean simulate of the final design on eval-length traces",
      "job_s_geomean on serve_mixed (power jobs); no change on area_sweep"),
    m("power.estimate_us", "us", "lower", "mean estimate of the final design on eval-length traces",
      "job_s_geomean on serve_mixed (power jobs); no change on area_sweep"),
    m("rtl.area_us", "us", "lower", "mean module_area of the final design",
      "jobs_per_s on area_sweep"),
    m("rtl.fingerprint_us", "us", "lower", "mean fingerprint_tree of the final design",
      "jobs_per_s on area_sweep (fingerprinting moves area and eval caching both)"),
    m("rtl.verilog_us", "us", "lower", "mean verilog_text of the final design",
      "job_s_geomean on serve_mixed (Verilog jobs)"),
    m("rtl.cosim_us", "us", "lower", "mean cosimulate in the output gate",
      "no end-to-end metric (off the default path)"),
    m("lint.verify_us", "us", "lower", "mean verify_design in the output gate",
      "no end-to-end metric (off the default path)"),
    m("dataflow.analyze_us", "us", "lower", "mean analyze_hierarchy of the behavior",
      "no end-to-end metric (off the default path)"),
    m("dfg.flatten_us", "us", "lower", "mean Hierarchy::flatten of the behavior",
      "jobs_per_s on area_sweep (flat jobs)"),
    m("dfg.parse_us", "us", "lower", "mean text::parse of text::print of the behavior",
      "no end-to-end metric (built-in jobs are not parsed)"),
    m("serve.warm_ms_p50", "ms", "lower", "client round trip of job-cache hits, median",
      "jobs_per_s on serve_mixed (2 in 3 submissions are hits)"),
    m("serve.warm_ms_tail", "ms", "lower", "client round trip of job-cache hits, tail",
      "jobs_per_s on serve_mixed"),
    m("serve.cold_s_p50", "s", "lower", "client round trip of misses, median",
      "job_s_geomean and jobs_per_s on serve_mixed"),
    m("serve.cold_s_tail", "s", "lower", "client round trip of misses, tail",
      "job_s_geomean on serve_mixed"),
    m("serve.transport_ms_p50", "ms", "lower", "round trip - queue_ms - wall_ms, median",
      "jobs_per_s on serve_mixed (the idle accept loop sleeps 20 ms)"),
    m("serve.exec_warm_ms_p50", "ms", "lower", "JobResult.wall_ms of cache hits, median",
      "jobs_per_s on serve_mixed (disk read and checksum)"),
    m("serve.exec_cold_ms_p50", "ms", "lower", "JobResult.wall_ms of misses, median",
      "job_s_geomean on serve_mixed"),
    m("serve.queue_ms_p50", "ms", "lower", "JobResult.queue_ms, median",
      "about 0 with 2 clients on 2 workers; more means a stalled worker"),
    m("serve.job_cache_hit_rate", "ratio", "higher", "stats: job_cache_hits / (hits + misses)",
      "jobs_per_s on serve_mixed"),
    m("serve.warm_area_hits", "count", "higher", "stats: warm_area_hits",
      "job_s_geomean on serve_mixed"),
    m("serve.area_store_kb", "KiB", "lower", "size of area.json at the end",
      "job_s_geomean on serve_mixed: the whole store is rewritten on every miss"),
    m("trace.spans", "count", "lower", "spans recorded in the timed phase",
      "tracing overhead"),
    m("trace.overhead_pct", "%", "lower", "timed-phase spans x measured cost per span / timed wall",
      "tracing overhead"),
];

/// One job as the benchmark saw it.
#[derive(Clone, Debug)]
pub struct JobRow {
    /// Stream index.
    pub index: usize,
    /// Round of the job.
    pub round: usize,
    /// Benchmark name.
    pub bench: String,
    /// `area` or `power`.
    pub objective: &'static str,
    /// Laxity factor.
    pub laxity: f64,
    /// Trace seed of the job.
    pub trace_seed: u64,
    /// Flattened baseline.
    pub flat: bool,
    /// LNS iterations.
    pub lns: usize,
    /// Verilog requested.
    pub verilog: bool,
    /// Earlier stream index this submission repeats.
    pub repeat_of: Option<usize>,
    /// Daemon answered from its job cache (serve only).
    pub cached: Option<bool>,
    /// Job latency, seconds.
    pub seconds: f64,
    /// Daemon-side execution, ms (serve only).
    pub wall_ms: f64,
    /// Daemon-side queueing, ms (serve only).
    pub queue_ms: f64,
    /// Final area (NaN until known).
    pub area: f64,
    /// Final power (NaN until known).
    pub power: f64,
    /// Digest of the job's `result_json`.
    pub digest: String,
    /// Why the job failed the gate, if it did.
    pub failure: Option<String>,
}

impl JobRow {
    /// A row for `job` with latency `seconds`, result not yet known.
    pub fn new(job: &Job, seconds: f64) -> JobRow {
        let spec = &job.spec;
        JobRow {
            index: job.index,
            round: job.round,
            bench: job.bench().to_owned(),
            objective: match spec.objective {
                hsyn::core::Objective::Area => "area",
                hsyn::core::Objective::Power => "power",
            },
            laxity: spec.laxity,
            trace_seed: spec
                .seed
                .unwrap_or(SynthesisConfig::new(spec.objective).seed),
            flat: spec.flat,
            lns: spec.lns_iters,
            verilog: spec.want_verilog,
            repeat_of: job.repeat_of,
            cached: None,
            seconds,
            wall_ms: 0.0,
            queue_ms: 0.0,
            area: f64::NAN,
            power: f64::NAN,
            digest: "-".to_owned(),
            failure: None,
        }
    }

    /// Fill in the result of a successful synthesis.
    pub fn set_result(&mut self, report: &SynthesisReport, result_json: &str) {
        self.area = report.evaluation.area.total();
        self.power = report.evaluation.power.power;
        self.digest = crate::gate::digest(result_json);
    }

    /// The printed row.
    pub fn line(&self) -> String {
        format!(
            "job {:>5} r{} {:<16} {:<5} {:.1} seed={:<10} {:<4} lns={:<2} v={} rep={:<5} cached={:<5} {:>10.6}s area={:.6} power={:.6} digest={} {}",
            self.index,
            self.round,
            self.bench,
            self.objective,
            self.laxity,
            self.trace_seed,
            if self.flat { "flat" } else { "hier" },
            self.lns,
            u8::from(self.verilog),
            self.repeat_of.map_or("-".to_owned(), |i| i.to_string()),
            self.cached.map_or("-".to_owned(), |c| c.to_string()),
            self.seconds,
            self.area,
            self.power,
            self.digest,
            self.failure.as_deref().map_or("ok".to_owned(), |f| format!("FAILED: {f}")),
        )
    }
}

/// Engine counters and timers summed over the first round's reports.
#[derive(Debug, Default)]
pub struct CoreAcc {
    /// Synthesize wall time per job, s.
    pub synth_s: Vec<f64>,
    /// Evaluated candidates.
    pub evaluated: u64,
    /// Applied moves of every family.
    pub applied: u64,
    /// Applied move-B.
    pub applied_b: u64,
    /// Rolled-back moves.
    pub rolled_back: u64,
    /// Eval cache hits.
    pub hits: u64,
    /// Eval cache misses.
    pub misses: u64,
    /// Per job: summed evaluation timers, s.
    pub eval_s: Vec<f64>,
    /// Per job: summed apply timers, s.
    pub apply_s: Vec<f64>,
    /// Per job: summed LNS timers, s.
    pub lns_s: Vec<f64>,
    /// Per job: summed verifier timers, s.
    pub verify_s: Vec<f64>,
    /// LNS ruins.
    pub lns_ruins: u64,
    /// LNS accepts.
    pub lns_accepts: u64,
}

impl CoreAcc {
    /// Add one job's report and its synthesize wall time.
    pub fn add(&mut self, r: &SynthesisReport, synth_s: f64) {
        let s = &r.stats;
        self.synth_s.push(synth_s);
        self.evaluated += s.evaluated;
        self.applied += s.applied_a + s.applied_b + s.applied_c + s.applied_d;
        self.applied_b += s.applied_b;
        self.rolled_back += s.moves_rolled_back;
        self.hits += s.eval_cache_hits;
        self.misses += s.eval_cache_misses;
        self.lns_ruins += s.lns_ruins;
        self.lns_accepts += s.lns_accepts;
        let sum = |f: fn(&hsyn::core::ConfigTelemetry) -> f64| -> f64 {
            r.per_config.iter().map(f).sum()
        };
        self.eval_s.push(sum(|c| c.eval_full_s + c.eval_incr_s));
        self.apply_s.push(sum(|c| c.apply_s));
        self.lns_s.push(sum(|c| c.lns_s));
        self.verify_s.push(sum(|c| c.verify_s));
    }
}

/// Daemon-side samples and counters.
#[derive(Debug, Default)]
pub struct ServeData {
    /// Round trips of cache hits, ms.
    pub warm_ms: Vec<f64>,
    /// Round trips of misses, s.
    pub cold_s: Vec<f64>,
    /// Round trip - queue - execution, ms.
    pub transport_ms: Vec<f64>,
    /// Execution of hits, ms.
    pub exec_warm_ms: Vec<f64>,
    /// Execution of misses, ms.
    pub exec_cold_ms: Vec<f64>,
    /// Queueing, ms.
    pub queue_ms: Vec<f64>,
    /// Stats reply: job-cache hit rate.
    pub job_cache_hit_rate: f64,
    /// Stats reply: warm area hits.
    pub warm_area_hits: u64,
    /// Size of area.json at the end, KiB.
    pub area_store_kb: f64,
}

impl ServeData {
    /// Add one answered submission.
    pub fn add(&mut self, cached: bool, round_trip_s: f64, wall_ms: f64, queue_ms: f64) {
        let rt_ms = round_trip_s * 1e3;
        if cached {
            self.warm_ms.push(rt_ms);
            self.exec_warm_ms.push(wall_ms);
        } else {
            self.cold_s.push(round_trip_s);
            self.exec_cold_ms.push(wall_ms);
        }
        self.transport_ms.push(rt_ms - queue_ms - wall_ms);
        self.queue_ms.push(queue_ms);
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct RunData {
    /// Every job of the timed phase, in stream order.
    pub rows: Vec<JobRow>,
    /// Set-up durations, s.
    pub setup_s: Vec<f64>,
    /// The daemon's part of each set-up (bind and first ping), s.
    pub setup_daemon_s: Vec<f64>,
    /// Wall time of the timed phase, s.
    pub timed_wall_s: f64,
    /// Spans opened in the timed phase (traced run).
    pub timed_spans: u64,
    /// Engine counters over the first round.
    pub core: CoreAcc,
    /// Probe counters.
    pub probes: ProbeAcc,
    /// Daemon samples: the workload's own (serve_mixed) or the serve
    /// probe's (traced area_sweep runs).
    pub serve: ServeData,
    /// Peak resident memory while jobs ran, MiB.
    pub peak_rss_mb: Option<f64>,
    /// The kernel let the benchmark reset the peak before the jobs.
    pub rss_reset: bool,
}

impl RunData {
    /// Fold the current peak resident memory into the run's peak.
    pub fn note_peak_rss(&mut self) {
        if let Some(mb) = peak_rss_mb() {
            self.peak_rss_mb = Some(self.peak_rss_mb.map_or(mb, |p| p.max(mb)));
        }
    }
}

/// A computed metric value with its sample count.
#[derive(Clone, Debug)]
pub struct Value {
    /// The metric.
    pub def: MetricDef,
    /// Its value.
    pub value: f64,
    /// Samples behind it.
    pub samples: usize,
    /// Extra detail for the printed line.
    pub note: String,
}

fn find(defs: &[MetricDef], name: &str) -> MetricDef {
    *defs
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not defined"))
}

fn tail_note(t: &Tail) -> String {
    format!(
        "p{} of {} samples, {} beyond",
        t.percentile, t.samples, t.beyond
    )
}

/// Reset this process's peak resident set to its current resident set
/// (`5` to `/proc/self/clear_refs`). Returns whether the kernel allowed it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process, MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end metrics of a run.
///
/// # Errors
///
/// When a metric cannot be measured (no successful job in the window,
/// no `/proc`), since every metric must be a real, non-zero reading.
pub fn end_to_end(data: &RunData) -> Result<Vec<Value>, String> {
    let v = |name: &str, value: f64, samples: usize, note: String| Value {
        def: find(END_TO_END, name),
        value,
        samples,
        note,
    };
    let ok: Vec<&JobRow> = data.rows.iter().filter(|r| r.failure.is_none()).collect();
    let first = first_round(data);
    let lat: Vec<f64> = first.iter().map(|r| r.seconds).collect();
    let areas: Vec<f64> = first.iter().map(|r| r.area).collect();
    let powers: Vec<f64> = first.iter().map(|r| r.power).collect();

    let setup = median(&data.setup_s).ok_or("no set-up was measured")?;
    let lat_g = geomean(&lat).ok_or("no job of the first round succeeded")?;
    let qa = geomean(&areas).ok_or("no area for the QoR geomean")?;
    let qp = geomean(&powers).ok_or("no power for the QoR geomean")?;
    let rss = data
        .peak_rss_mb
        .ok_or("cannot read peak RSS from /proc/self/status")?;
    if data.timed_wall_s <= 0.0 || ok.is_empty() {
        return Err("the timed phase completed no job".to_owned());
    }
    Ok(vec![
        v(
            "setup_s",
            setup,
            data.setup_s.len(),
            "median of set-ups".to_owned(),
        ),
        v(
            "jobs_per_s",
            ok.len() as f64 / data.timed_wall_s,
            ok.len(),
            format!("{} jobs in {:.3} s", ok.len(), data.timed_wall_s),
        ),
        v("job_s_geomean", lat_g, lat.len(), "first round".to_owned()),
        v("qor_area", qa, areas.len(), "geomean".to_owned()),
        v("qor_power", qp, powers.len(), "geomean".to_owned()),
        v(
            "peak_rss_mb",
            rss,
            1,
            if data.rss_reset {
                "VmHWM while jobs ran".to_owned()
            } else {
                "VmHWM since process start (peak reset refused)".to_owned()
            },
        ),
    ])
}

/// The first round's successful distinct jobs: the deterministic set that
/// latency, QoR and exact counts are taken over (on serve_mixed, its new
/// jobs, all of which miss the job cache).
fn first_round(data: &RunData) -> Vec<&JobRow> {
    data.rows
        .iter()
        .filter(|r| r.round == 0 && r.failure.is_none() && r.repeat_of.is_none())
        .collect()
}

/// Lines printed for information: the daemon's part of set-up, and the
/// median and tail of the first round's job latencies (single jobs, too
/// noisy to bound).
pub fn info_lines(data: &RunData) -> Vec<String> {
    let lat: Vec<f64> = first_round(data).iter().map(|r| r.seconds).collect();
    let mut out = Vec::new();
    if let Some(d) = median(&data.setup_daemon_s) {
        out.push(format!(
            "info setup_daemon_ms {:.6} ms n={} (daemon bind and first ping, part of setup_s)",
            d * 1e3,
            data.setup_daemon_s.len()
        ));
    }
    if let Some(p50) = median(&lat) {
        out.push(format!("info job_s_p50 {p50:.6} s n={}", lat.len()));
    }
    if let Some(t) = tail(&lat) {
        out.push(format!(
            "info job_s_tail {:.6} s {}",
            t.value,
            tail_note(&t)
        ));
    }
    out
}

/// The layer metrics of a traced run.
pub fn per_layer(data: &RunData, spans: &[Span], ns_per_span: f64) -> Vec<Value> {
    let v = |name: &str, value: f64, samples: usize, note: String| Value {
        def: find(PER_LAYER, name),
        value,
        samples,
        note,
    };
    let span_us = |name: &str| -> (f64, usize) {
        let d = trace::durations(spans, name);
        let us: Vec<f64> = d.iter().map(|&ns| ns as f64 / 1e3).collect();
        (mean(&us), us.len())
    };
    let c = &data.core;
    let n = c.synth_s.len();
    let synth = mean(&c.synth_s);
    let (eval, apply, lns, verify) = (
        mean(&c.eval_s),
        mean(&c.apply_s),
        mean(&c.lns_s),
        mean(&c.verify_s),
    );
    let mut out = vec![
        v("core.synthesize_s", synth, n, String::new()),
        v("core.evaluated", c.evaluated as f64, n, "exact".to_owned()),
        v(
            "core.accept_ratio",
            ratio(c.applied as f64, c.evaluated as f64),
            n,
            format!("{} / {}", c.applied, c.evaluated),
        ),
        v(
            "core.rolled_back",
            c.rolled_back as f64,
            n,
            "exact".to_owned(),
        ),
        v("core.applied_b", c.applied_b as f64, n, "exact".to_owned()),
        v(
            "core.eval_cache_hit_rate",
            ratio(c.hits as f64, (c.hits + c.misses) as f64),
            n,
            format!("{} / {}", c.hits, c.hits + c.misses),
        ),
        v("core.eval_s", eval, n, String::new()),
        v("core.apply_s", apply, n, String::new()),
        v("core.lns_s", lns, n, String::new()),
        v(
            "core.unattributed_s",
            synth - eval - apply - lns - verify,
            n,
            String::new(),
        ),
        v(
            "core.lns_accept_ratio",
            ratio(c.lns_accepts as f64, c.lns_ruins as f64),
            n,
            format!("{} / {}", c.lns_accepts, c.lns_ruins),
        ),
    ];
    let p = &data.probes;
    out.push(v(
        "core.candidates",
        p.candidates as f64,
        n,
        format!("{} tried, {} refused", p.try_us.len(), p.try_refused),
    ));
    out.push(v(
        "core.try_us",
        mean(&p.try_us),
        p.try_us.len(),
        String::new(),
    ));
    for (metric, span_name) in [
        ("core.initial_solution_us", "core.initial_solution"),
        ("core.evaluate_us", "core.evaluate"),
        ("power.simulate_us", "power.simulate"),
        ("power.estimate_us", "power.estimate"),
        ("rtl.area_us", "rtl.module_area"),
        ("rtl.fingerprint_us", "rtl.fingerprint_tree"),
        ("rtl.verilog_us", "rtl.verilog_text"),
        ("rtl.cosim_us", "rtl.cosimulate"),
        ("lint.verify_us", "lint.verify_design"),
        ("dataflow.analyze_us", "dataflow.analyze_hierarchy"),
        ("dfg.flatten_us", "dfg.flatten"),
        ("dfg.parse_us", "dfg.parse"),
    ] {
        let (us, k) = span_us(span_name);
        out.push(v(metric, us, k, format!("span {span_name}")));
    }
    let s = &data.serve;
    let med = |x: &[f64]| median(x).unwrap_or(0.0);
    let tl = |x: &[f64]| tail(x).map_or((0.0, String::new()), |t| (t.value, tail_note(&t)));
    let (warm_tail, warm_note) = tl(&s.warm_ms);
    let (cold_tail, cold_note) = tl(&s.cold_s);
    out.extend([
        v(
            "serve.warm_ms_p50",
            med(&s.warm_ms),
            s.warm_ms.len(),
            String::new(),
        ),
        v("serve.warm_ms_tail", warm_tail, s.warm_ms.len(), warm_note),
        v(
            "serve.cold_s_p50",
            med(&s.cold_s),
            s.cold_s.len(),
            String::new(),
        ),
        v("serve.cold_s_tail", cold_tail, s.cold_s.len(), cold_note),
        v(
            "serve.transport_ms_p50",
            med(&s.transport_ms),
            s.transport_ms.len(),
            String::new(),
        ),
        v(
            "serve.exec_warm_ms_p50",
            med(&s.exec_warm_ms),
            s.exec_warm_ms.len(),
            String::new(),
        ),
        v(
            "serve.exec_cold_ms_p50",
            med(&s.exec_cold_ms),
            s.exec_cold_ms.len(),
            String::new(),
        ),
        v(
            "serve.queue_ms_p50",
            med(&s.queue_ms),
            s.queue_ms.len(),
            String::new(),
        ),
        v(
            "serve.job_cache_hit_rate",
            s.job_cache_hit_rate,
            s.queue_ms.len(),
            String::new(),
        ),
        v(
            "serve.warm_area_hits",
            s.warm_area_hits as f64,
            1,
            String::new(),
        ),
        v("serve.area_store_kb", s.area_store_kb, 1, String::new()),
    ]);
    let overhead_pct = if data.timed_wall_s > 0.0 {
        100.0 * data.timed_spans as f64 * ns_per_span / (data.timed_wall_s * 1e9)
    } else {
        0.0
    };
    out.push(v(
        "trace.spans",
        data.timed_spans as f64,
        1,
        format!("{} spans in all", spans.len()),
    ));
    out.push(v(
        "trace.overhead_pct",
        overhead_pct,
        data.timed_spans as usize,
        format!("{ns_per_span:.1} ns per span"),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names declared in `BENCHMARK.json` are exactly the metrics the
    /// benchmark computes, with the same units and directions.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let json = hsyn::util::Json::parse(&text).expect("BENCHMARK.json is JSON");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(hsyn::util::Json::Arr(items)) = json.get(key) else {
                panic!("BENCHMARK.json lacks {key}");
            };
            let declared: Vec<(String, String, String)> = items
                .iter()
                .map(|i| {
                    let s = |k: &str| i.get(k).and_then(|v| v.as_str()).unwrap_or("").to_owned();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| (d.name.to_owned(), d.unit.to_owned(), d.better.to_owned()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
    }
}
