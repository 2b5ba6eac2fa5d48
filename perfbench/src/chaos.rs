//! The chaos workload `chaos_lossy`: `run_lossy_recovery_campaign` on one
//! campaign thread, at the given seed and at seeds derived from it. Every
//! plan crashes the server and blankets the crash and recovery window with loss bursts, so this is the
//! only workload that runs server crash, device redo resend, the recovery
//! barrier, client RTO, the durability audit and the model checker. It
//! has no traced rig; its numbers come from the campaign's verdicts.

use std::time::Instant;

use pmnet::chaos::{run_lossy_recovery_campaign, CampaignOutcome, Scenario};
use pmnet::core::system::DesignPoint;

use crate::stats::time_builds;

/// The designs the lossy-recovery campaign covers.
pub const DESIGNS: [DesignPoint; 2] = [DesignPoint::PmnetSwitch, DesignPoint::PmnetNic];

/// A set of lossy-recovery campaigns.
///
/// About 0.8% of lossy-recovery runs take ~10.5 ms to quiesce, the rest
/// under ~8.5 ms, so the 99th percentile of run time sits near the edge of
/// that cluster; pooling many runs keeps it below the edge for most seeds.
/// The runs are split into many short campaigns so that the host figures
/// are the fastest of many samples.
#[derive(Debug, Clone, Copy)]
pub struct Chaos {
    /// Plans per design in each campaign (a campaign runs two designs).
    pub plans_per_design: usize,
    /// Campaigns; campaign `k` runs at `seed + k·2^32`.
    pub campaigns: u64,
}

/// One campaign.
#[derive(Debug)]
pub struct CampaignRep {
    /// Host seconds of the campaign.
    pub wall_s: f64,
    /// The outcome.
    pub outcome: CampaignOutcome,
}

/// Run-level totals of one campaign's verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSums {
    /// Scenario runs.
    pub runs: u64,
    /// Updates the clients issued.
    pub issued: u64,
    /// Updates acknowledged durable.
    pub acked: u64,
    /// Updates abandoned after the retry budget ran out.
    pub failed: u64,
    /// Acked updates of runs in which no update was abandoned.
    pub acked_in_clean_runs: u64,
    /// Simulated time of every run, summed, in ns.
    pub sim_ns: u128,
    /// Simulated time of the runs in which no update was abandoned, in ns.
    pub sim_ns_clean_runs: u128,
    /// Each run's simulated time to quiescence in ns, ascending.
    pub run_ns: Vec<u64>,
    /// Redo applies summed over runs.
    pub redo_applied: u64,
    /// Client retransmission rounds summed over runs.
    pub client_retries: u64,
    /// Duplicates dropped by the server's dedup filter, summed over runs.
    pub duplicates_dropped: u64,
}

impl Chaos {
    /// The seed of campaign `k`.
    pub fn campaign_seed(seed: u64, k: u64) -> u64 {
        seed.wrapping_add(k << 32)
    }

    /// Runs one campaign and checks it.
    pub fn run_campaign(&self, seed: u64) -> Result<CampaignRep, String> {
        let t = Instant::now();
        let outcome = run_lossy_recovery_campaign(seed, self.plans_per_design);
        let wall_s = t.elapsed().as_secs_f64();
        if let Some(a) = outcome.failures.first() {
            return Err(format!(
                "{} chaos runs violated an invariant; first replay artifact:\n{a}",
                outcome.failure_count()
            ));
        }
        Ok(CampaignRep { wall_s, outcome })
    }

    /// Appends the host seconds of a few builds of each design's scenario
    /// system to that design's entry of `times`.
    pub fn time_setup(seed: u64, times: &mut [Vec<f64>; DESIGNS.len()]) {
        for (&d, t) in DESIGNS.iter().zip(times) {
            let scenario = Scenario::standard(d, seed);
            time_builds(t, || scenario.build());
        }
    }
}

impl CampaignRep {
    /// Totals over the campaign's verdicts.
    pub fn sums(&self) -> CampaignSums {
        let mut s = CampaignSums {
            runs: 0,
            issued: 0,
            acked: 0,
            failed: 0,
            acked_in_clean_runs: 0,
            sim_ns: 0,
            sim_ns_clean_runs: 0,
            run_ns: Vec::new(),
            redo_applied: 0,
            client_retries: 0,
            duplicates_dropped: 0,
        };
        for r in &self.outcome.runs {
            let v = &r.verdict;
            let sc = Scenario::standard(r.design, r.seed);
            s.runs += 1;
            s.issued += (sc.clients * sc.requests_per_client) as u64;
            s.acked += v.acked as u64;
            s.failed += v.failed_updates;
            s.sim_ns += u128::from(v.end_ns);
            if v.failed_updates == 0 {
                s.acked_in_clean_runs += v.acked as u64;
                s.sim_ns_clean_runs += u128::from(v.end_ns);
            }
            s.run_ns.push(v.end_ns);
            s.redo_applied += v.redo_applied;
            s.client_retries += v.client_retries;
            s.duplicates_dropped += v.duplicates_dropped;
        }
        s.run_ns.sort_unstable();
        s
    }
}

impl CampaignSums {
    /// Pools several campaigns' totals.
    pub fn pool(parts: &[CampaignSums]) -> CampaignSums {
        let mut p = parts[0].clone();
        for s in &parts[1..] {
            p.runs += s.runs;
            p.issued += s.issued;
            p.acked += s.acked;
            p.failed += s.failed;
            p.acked_in_clean_runs += s.acked_in_clean_runs;
            p.sim_ns += s.sim_ns;
            p.sim_ns_clean_runs += s.sim_ns_clean_runs;
            p.run_ns.extend_from_slice(&s.run_ns);
            p.redo_applied += s.redo_applied;
            p.client_retries += s.client_retries;
            p.duplicates_dropped += s.duplicates_dropped;
        }
        p.run_ns.sort_unstable();
        p
    }
}
