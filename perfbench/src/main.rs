//! `perfbench` — the two-clock benchmark of the PMNet reproduction.
//!
//! ```text
//! perfbench --workload <closed_update|kv_cached|open_overload|chaos_lossy|all>
//!           --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! With `--trace 0` it measures the untraced system and prints every
//! end-to-end metric; with `--trace 1` it alternates untraced runs with
//! runs of the traced rig and prints every per-layer metric. Either way it
//! checks the simulated outputs and ends with one JSON result line; a
//! failed check makes it exit with code 1. `--quick` shrinks every
//! workload for the benchmark's own tests. See `README.md` beside this
//! file for the workloads, metrics and reference numbers.

mod chaos;
mod closed;
mod open;
mod report;
mod rig;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use pmnet::sim::Dur;

use crate::chaos::Chaos;
use crate::closed::{Closed, ClosedKind, ClosedSim};
use crate::open::Open;
use crate::report::{result_line, Metric, Traced, LADDER};
use crate::rig::{Layer, Ledger, KINDS};
use crate::stats::{fastest, interpolated_quantile_us, median, nearest_rank, peak_rss_mib, ratio};

/// Every workload, in run order for `--workload all`.
const WORKLOADS: [&str; 4] = ["closed_update", "kv_cached", "open_overload", "chaos_lossy"];
/// Untraced repetitions (or untraced/traced pairs) measured at the least,
/// however short `--seconds` is (`--quick` runs two, enough to compare
/// repetitions).
const MIN_REPS: usize = 3;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

/// What one workload measured.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Lines describing the run (sample counts, checks, model checker).
    notes: Vec<String>,
}

/// Repeats `rep` until `--seconds` have passed and at least [`MIN_REPS`]
/// repetitions ran.
fn repeat<T>(args: &Args, mut rep: impl FnMut() -> Result<T, String>) -> Result<Vec<T>, String> {
    let min = if args.quick { 2 } else { MIN_REPS };
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min || start.elapsed().as_secs_f64() < args.seconds {
        reps.push(rep()?);
    }
    Ok(reps)
}

/// A note giving the minimum, median and maximum of per-repetition values.
fn spread_note(what: &str, values: &[f64]) -> String {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "{what} over {} repetitions: min {min:.1}, median {:.1}, max {max:.1}",
        values.len(),
        median(values)
    )
}

/// Fails when a repetition of the same seed simulated differently from
/// `reference`.
fn same_as<T: PartialEq>(reference: &T, sim: &T) -> Result<(), String> {
    if reference == sim {
        Ok(())
    } else {
        Err("the same seed simulated differently across repetitions".into())
    }
}

/// Keeps the first repetition's simulated outcome and fails when a later
/// repetition of the same seed differs from it.
fn same_as_first<T: PartialEq>(first: &mut Option<T>, sim: T) -> Result<(), String> {
    match first {
        None => *first = Some(sim),
        Some(f) => same_as(f, &sim)?,
    }
    Ok(())
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
#[allow(clippy::too_many_arguments)]
fn end_to_end(
    wall_ops: f64,
    wall_runs: f64,
    setup_s: f64,
    success: f64,
    goodput: f64,
    p50: f64,
    p99: f64,
    p999: f64,
    slo_rate: f64,
) -> Result<Vec<Metric>, String> {
    Ok(vec![
        Metric::host("wall_ops_per_s", wall_ops, "ops/s"),
        Metric::host("wall_runs_per_s", wall_runs, "runs/s"),
        Metric::host("setup_s", setup_s, "s"),
        Metric::host("peak_rss_mb", peak_rss_mib()?, "MiB"),
        Metric::count("success_frac", success, "ratio"),
        Metric::sim("sim_goodput_ops_per_s", goodput, "ops/s"),
        Metric::sim("sim_p50_us", p50, "us"),
        Metric::sim("sim_p99_us", p99, "us"),
        Metric::sim("sim_p999_us", p999, "us"),
        Metric::sim("sim_slo_rate_ops_per_s", slo_rate, "ops/s"),
    ])
}

/// Per-layer metrics: the traced decomposition (medians over traced
/// runs), the tracing overhead and the chaos verdict figures.
fn per_layer(traced: &[Traced], overhead: &[f64], chaos: [f64; 4]) -> Vec<Metric> {
    let runs: Vec<Vec<Metric>> = if traced.is_empty() {
        vec![Traced::default().layer_metrics()]
    } else {
        traced.iter().map(Traced::layer_metrics).collect()
    };
    let mut out: Vec<Metric> = runs[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = runs.iter().map(|r| r[i].value).collect();
            Metric {
                value: median(&values),
                ..m.clone()
            }
        })
        .collect();
    let overhead = if overhead.is_empty() {
        0.0
    } else {
        median(overhead)
    };
    out.push(Metric::host("trace.overhead_frac", overhead, "ratio"));
    out.extend([
        Metric::host("chaos.ms_per_run", chaos[0], "ms"),
        Metric::count("chaos.redo_applied_per_run", chaos[1], "count/run"),
        Metric::count("chaos.client_retries_per_run", chaos[2], "count/run"),
        Metric::count("chaos.duplicates_dropped_per_run", chaos[3], "count/run"),
    ]);
    out
}

fn run_closed(args: &Args, kind: ClosedKind) -> Result<Outcome, String> {
    let w = Closed {
        kind,
        ops_per_client: match (kind, args.quick) {
            (_, true) => 200,
            (ClosedKind::Update, false) => 8_000,
            (ClosedKind::Kv, false) => 5_000,
        },
    };
    // The full-size run gives the simulated metrics. Host speed is timed
    // on short repetitions (~0.15 s of run phase), so that a run holds
    // ~100 of them; a traced run is compared with an untraced run of its
    // own size.
    let timed = if args.trace {
        w
    } else {
        Closed {
            ops_per_client: w.ops_per_client.min(TIMED_OPS_PER_CLIENT),
            ..w
        }
    };
    let reference = w.run_untraced(args.seed)?.sim;
    let mut setup = Vec::new();
    let mut traced = Vec::new();
    let mut overhead = Vec::new();
    // Only the first timed repetition's simulation is kept; every later
    // one must equal it.
    let mut first: Option<ClosedSim> = None;
    let reps = repeat(args, || {
        let rep = timed.run_untraced(args.seed)?;
        setup.push(rep.setup_s);
        if args.trace {
            let t = timed.run_traced(args.seed, &rep.sim)?;
            overhead.push(t.wall_ns as f64 / (rep.run_s * 1e9) - 1.0);
            traced.push(t);
        }
        same_as_first(&mut first, rep.sim)?;
        Ok((rep.run_s, rep.total_s))
    })?;
    let sim = reference.metrics();
    let mut notes = vec![
        format!(
            "{} completed ops in the full-size run (p99.9 has {} samples beyond it); \
             {} timed repetitions of {} ops each",
            sim.completed,
            sim.completed / 1000,
            reps.len(),
            timed.issued()
        ),
        format!(
            "checks passed: every client finished, completed == issued, no client failures, \
             no stranded log entries, durability audit clean{}",
            if args.trace {
                "; traced rig reproduced the untraced run bit for bit"
            } else {
                ""
            }
        ),
    ];
    let ops = timed.issued() as f64;
    notes.push(spread_note(
        "wall ops/s",
        &reps.iter().map(|r| ops / r.0).collect::<Vec<_>>(),
    ));
    let metrics = if args.trace {
        notes.extend(layer_notes(&traced));
        per_layer(&traced, &overhead, [0.0; 4])
    } else {
        end_to_end(
            ops / fastest(&reps.iter().map(|r| r.0).collect::<Vec<_>>()),
            1.0 / fastest(&reps.iter().map(|r| r.1).collect::<Vec<_>>()),
            fastest(&setup),
            1.0 - ratio(
                reference.counters.get("client.failed") as f64,
                w.issued() as f64,
            ),
            sim.goodput,
            sim.p50_us,
            sim.p99_us,
            sim.p999_us,
            sim.slo_goodput,
        )?
    };
    Ok(Outcome {
        metrics,
        attempted: w.issued() as u64,
        failed: reference.counters.get("client.failed"),
        notes,
    })
}

/// Ops per client of a timed closed-loop repetition.
const TIMED_OPS_PER_CLIENT: usize = 1_000;

fn run_open(args: &Args) -> Result<Outcome, String> {
    let w = Open {
        measure: if args.quick {
            Dur::millis(2)
        } else {
            Dur::millis(20)
        },
    };
    // The first climb gives every rung's simulated results. Untraced, host
    // speed is then timed on repetitions of the top rung alone (build, run
    // and checks, ~0.75 s), the busiest rung, since a climb (~3.5 s) would
    // leave a run too few samples; traced, whole climbs are repeated.
    // Either way a repetition must reproduce the first climb.
    let climb = w.run_untraced(args.seed)?;
    let rungs = &climb.rungs;
    let top = rungs.last().expect("the ladder has rungs");
    let mut traced = Vec::new();
    let mut overhead = Vec::new();
    let reps = repeat(args, || {
        if args.trace {
            let rep = w.run_untraced(args.seed)?;
            let t = w.run_traced(args.seed, &rep.rungs)?;
            overhead.push(t.wall_ns as f64 / (rep.run_s() * 1e9) - 1.0);
            traced.push(t);
            same_as(rungs, &rep.rungs)?;
            Ok(rep.times[LADDER.len() - 1])
        } else {
            let (times, rung) = w.run_rung(args.seed, top.rate)?;
            same_as(top, &rung)?;
            Ok(times)
        }
    })?;
    let mut lat = top.latency.clone();
    let slo_rate = rungs
        .iter()
        .filter(|r| r.meets_slo())
        .map(|r| r.rate)
        .fold(0.0, f64::max);
    if slo_rate == 0.0 {
        return Err("no ladder rung met the latency limit".into());
    }
    let admitted: u64 = rungs.iter().map(|r| r.counters.admitted).sum();
    let timed_out: u64 = rungs.iter().map(|r| r.counters.timed_out).sum();
    let mut notes = vec![format!(
        "top rung {} arrivals/s: {} completed ops (p99.9 has {} samples beyond it); \
         {} timed repetitions of the {}",
        top.rate,
        top.counters.completed,
        top.counters.completed / 1000,
        reps.len(),
        if args.trace {
            "whole ladder"
        } else {
            "top rung"
        }
    )];
    for r in rungs {
        let mut l = r.latency.clone();
        notes.push(format!(
            "rung {:.1}M/s: goodput {:.0} ops/s, p99 {:.1} us, shed {}, queue drops {}, timeouts {}, slo {}",
            r.rate / 1e6,
            w.goodput(r),
            l.percentile(0.99).as_micros_f64(),
            r.counters.shed_admission,
            r.counters.queue_drops,
            r.counters.timed_out,
            if r.meets_slo() { "met" } else { "missed" }
        ));
    }
    notes.push(format!(
        "checks passed: no stranded log entries on any rung, arrival and admission accounting \
         balance, durability audit clean{}",
        if args.trace {
            "; traced rig reproduced every rung bit for bit"
        } else {
            ""
        }
    ));
    let top_ops = top.counters.completed as f64;
    notes.push(spread_note(
        "top-rung wall ops/s",
        &reps.iter().map(|t| top_ops / t.run_s).collect::<Vec<_>>(),
    ));
    let metrics = if args.trace {
        notes.extend(layer_notes(&traced));
        per_layer(&traced, &overhead, [0.0; 4])
    } else {
        end_to_end(
            top_ops / fastest(&reps.iter().map(|t| t.run_s).collect::<Vec<_>>()),
            1.0 / fastest(&reps.iter().map(|t| t.total_s).collect::<Vec<_>>()),
            fastest(&reps.iter().map(|t| t.setup_s).collect::<Vec<_>>()),
            1.0 - ratio(top.failed() as f64, top.counters.arrivals as f64),
            w.goodput(top),
            interpolated_quantile_us(&mut lat, 0.5),
            interpolated_quantile_us(&mut lat, 0.99),
            interpolated_quantile_us(&mut lat, 0.999),
            slo_rate,
        )?
    };
    // Arrivals admitted into a session, and those the system failed to
    // make durable within the retry budget. Arrivals the engine refused
    // (admission shedding, full queues, no connected session) and admitted
    // ops a session disconnect abandoned are the workload's designed
    // response to overload and churn; `success_frac` and the rung notes
    // count them.
    Ok(Outcome {
        metrics,
        attempted: admitted,
        failed: timed_out,
        notes,
    })
}

fn run_chaos(args: &Args) -> Result<Outcome, String> {
    // The campaign's worker count; one thread keeps host time comparable
    // across machines with different core counts.
    std::env::set_var("PMNET_CHAOS_THREADS", "1");
    let w = if args.quick {
        Chaos {
            plans_per_design: 10,
            campaigns: 2,
        }
    } else {
        Chaos {
            plans_per_design: 50,
            campaigns: 120,
        }
    };
    let mut setup = [Vec::new(), Vec::new()];
    // Every campaign once, then again from the first while time remains;
    // a repeated campaign must reproduce its digest.
    let start = Instant::now();
    let mut reps: Vec<(f64, chaos::CampaignSums)> = Vec::new();
    let mut digests = Vec::new();
    let mut k = 0;
    while k < w.campaigns || start.elapsed().as_secs_f64() < args.seconds {
        let rep = w.run_campaign(Chaos::campaign_seed(args.seed, k % w.campaigns))?;
        let digest = rep.outcome.digest;
        if k < w.campaigns {
            digests.push(digest);
        } else if digest != digests[(k % w.campaigns) as usize] {
            return Err("the same seed gave different campaign digests".into());
        }
        reps.push((rep.wall_s, rep.sums()));
        Chaos::time_setup(args.seed, &mut setup);
        k += 1;
    }
    let s = chaos::CampaignSums::pool(
        &reps[..w.campaigns as usize]
            .iter()
            .map(|r| r.1.clone())
            .collect::<Vec<_>>(),
    );
    let runs = s.runs as f64;
    // Host seconds per unit of work, fastest over the campaigns.
    let fastest_per = |f: &dyn Fn(&chaos::CampaignSums) -> u64| {
        fastest(
            &reps
                .iter()
                .map(|(wall, s)| wall / f(s) as f64)
                .collect::<Vec<_>>(),
        )
    };
    let notes = vec![
        format!(
            "{} campaigns ({} distinct) of {} runs each; {} runs pooled (p99.9 has {} runs beyond it)",
            reps.len(),
            w.campaigns,
            reps[0].1.runs,
            s.runs,
            s.runs / 1000
        ),
        "model checker ran on every scenario (the pmnet facade builds pmnet-chaos with its \
         model feature)"
            .into(),
        "checks passed: zero invariant violations, identical digest on every repeated campaign"
            .into(),
        spread_note(
            "wall runs/s",
            &reps
                .iter()
                .map(|(wall, s)| s.runs as f64 / wall)
                .collect::<Vec<_>>(),
        ),
    ];
    let metrics = if args.trace {
        per_layer(
            &[],
            &[],
            [
                fastest_per(&|s| s.runs) * 1e3,
                s.redo_applied as f64 / runs,
                s.client_retries as f64 / runs,
                s.duplicates_dropped as f64 / runs,
            ],
        )
    } else {
        let us = |q| nearest_rank(&s.run_ns, q) as f64 / 1e3;
        end_to_end(
            1.0 / fastest_per(&|s| s.acked),
            1.0 / fastest_per(&|s| s.runs),
            setup.iter().map(|t| fastest(t)).sum(),
            1.0 - ratio(s.failed as f64, s.issued as f64),
            s.acked as f64 / (s.sim_ns as f64 / 1e9),
            us(0.5),
            us(0.99),
            us(0.999),
            ratio(
                s.acked_in_clean_runs as f64,
                s.sim_ns_clean_runs as f64 / 1e9,
            ),
        )?
    };
    Ok(Outcome {
        metrics,
        attempted: s.issued,
        failed: s.failed,
        notes,
    })
}

/// Notes splitting the traced wall time: each layer's host time by
/// message kind (summed over the traced runs), then wrapped self times
/// plus the residual against the traced wall time.
fn layer_notes(traced: &[Traced]) -> Vec<String> {
    let ops: u64 = traced.iter().map(|t| t.ops).sum();
    let total = Ledger::default();
    for t in traced {
        total.absorb(&t.ledger);
    }
    let mut notes = Vec::new();
    for layer in Layer::ALL {
        let c = total.cost(layer);
        if c.total_calls() == 0 {
            continue;
        }
        let split: Vec<String> = KINDS
            .iter()
            .enumerate()
            .filter(|&(k, _)| c.calls[k] > 0)
            .map(|(k, name)| {
                format!(
                    "{name} {:.0} ns/op over {:.2}/op",
                    ratio(c.ns[k] as f64, ops as f64),
                    ratio(c.calls[k] as f64, ops as f64)
                )
            })
            .collect();
        notes.push(format!(
            "{:<7} self {:>6.0} ns/op; {}",
            layer.name(),
            ratio(total.self_ns(layer) as f64, ops as f64),
            split.join(", ")
        ));
    }
    let wall: u64 = traced.iter().map(|t| t.wall_ns).sum();
    let nodes = total.node_ns();
    notes.push(format!(
        "traced wall {wall} ns = wrapped self times {nodes} ns + residual {} ns",
        i128::from(wall) - i128::from(nodes)
    ));
    notes
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    let outcome = match args.workload.as_str() {
        "closed_update" => run_closed(args, ClosedKind::Update),
        "kv_cached" => run_closed(args, ClosedKind::Kv),
        "open_overload" => run_open(args),
        _ => run_chaos(args),
    }?;
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a finite number", m.name));
    }
    if args.trace {
        for t in outcome
            .metrics
            .iter()
            .filter(|m| m.name == "runtime.residual_ns_per_op")
        {
            if t.value < 0.0 {
                return Err(format!(
                    "wrapped self times exceed the traced wall time by {} ns/op",
                    -t.value
                ));
            }
        }
    }
    Ok(outcome)
}

/// Runs every workload, each in a process of its own so its peak memory
/// is its own, and fails if any of them fails.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut ok = true;
    for w in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("cannot run workload {w}: {e}"))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    match run_workload(&args) {
        Ok(o) => {
            for n in &o.notes {
                println!("  {n}");
            }
            for m in &o.metrics {
                println!(
                    "  {:<36} {:>18.6} {:<8} [{}]",
                    m.name, m.value, m.unit, m.clock
                );
            }
            println!("{}", result_line(true, o.attempted, o.failed, &o.metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("  CHECK FAILED: {e}");
            println!("{}", result_line(false, 1, 1, &[]));
            ExitCode::FAILURE
        }
    }
}
