//! Serving requests and their outcomes.

use tetriserve_costmodel::{Resolution, StageProfile};
use tetriserve_simulator::time::{SimDuration, SimTime};
use tetriserve_simulator::trace::{RequestId, TenantId};

/// An inbound generation request: an optional condition encode,
/// `total_steps` denoise steps and a `frames`-long VAE decode over one
/// resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSpec {
    /// Unique identifier.
    pub id: RequestId,
    /// Originating tenant (attribution only — decision paths must not
    /// branch on it). [`TenantId::UNTAGGED`] for single-stream workloads.
    pub tenant: TenantId,
    /// Output resolution (determines latent length and per-step cost).
    pub resolution: Resolution,
    /// Arrival time.
    pub arrival: SimTime,
    /// SLO deadline: the request must *complete* by this time to count.
    pub deadline: SimTime,
    /// Denoising steps to run (the model default, minus any steps skipped
    /// by cache-based acceleration such as Nirvana).
    pub total_steps: u32,
    /// The stage shape: whether the request carries an explicit
    /// condition-encode stage, and its output frame count (video DiT).
    /// [`StageProfile::FLAT`] for classic single-image requests.
    pub stages: StageProfile,
}

impl RequestSpec {
    /// The SLO budget `deadline − arrival`.
    pub fn slo_budget(&self) -> SimDuration {
        self.deadline.saturating_since(self.arrival)
    }
}

/// The final record of how a request was served.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestOutcome {
    /// The request identifier.
    pub id: RequestId,
    /// Originating tenant, carried through from the spec.
    pub tenant: TenantId,
    /// Output resolution.
    pub resolution: Resolution,
    /// Arrival time.
    pub arrival: SimTime,
    /// SLO deadline.
    pub deadline: SimTime,
    /// End-to-end completion time (diffusion + decode); `None` if the run
    /// ended before the request finished.
    pub completion: Option<SimTime>,
    /// Total GPU-seconds consumed.
    pub gpu_seconds: f64,
    /// Diffusion steps actually executed.
    pub steps_executed: u32,
    /// Sum of the sequence-parallel degree over executed steps; divide by
    /// `steps_executed` for the mean degree (Figure 11).
    pub sp_degree_step_sum: u64,
    /// Times a dispatch for this request was aborted by a GPU fault and
    /// re-scheduled.
    pub retries: u32,
    /// Whether admission control shed the request (it never completes).
    pub shed: bool,
    /// Diffusion steps the degrade ladder removed from the request's
    /// budget to rescue its deadline (0 on a full-quality serve). A
    /// degraded completion still counts toward SLO attainment; the shed
    /// steps are its *quality debt*.
    pub steps_shed: u32,
    /// When the condition-encode stage finished; `None` for flat
    /// requests (no explicit encode stage) and for requests shed or cut
    /// off before encoding.
    pub encode_done: Option<SimTime>,
    /// When the last denoise step finished (the VAE-decode stage begins
    /// here); `None` if the denoise never completed.
    pub denoise_done: Option<SimTime>,
}

impl RequestOutcome {
    /// Whether the request finished within its SLO.
    pub fn met_slo(&self) -> bool {
        matches!(self.completion, Some(c) if c <= self.deadline)
    }

    /// End-to-end latency, if the request completed.
    pub fn latency(&self) -> Option<SimDuration> {
        self.completion.map(|c| c.saturating_since(self.arrival))
    }

    /// Mean sequence-parallel degree over executed steps (0 if none ran).
    pub fn mean_sp_degree(&self) -> f64 {
        if self.steps_executed == 0 {
            0.0
        } else {
            self.sp_degree_step_sum as f64 / f64::from(self.steps_executed)
        }
    }

    /// Whether the degrade ladder shed steps from this request.
    pub fn was_degraded(&self) -> bool {
        self.steps_shed > 0
    }

    /// The per-stage latency breakdown `(encode, denoise, decode)` for a
    /// completed request: encode spans arrival → `encode_done` (zero
    /// without an explicit encode stage), denoise spans the encode
    /// hand-off → `denoise_done`, and decode spans `denoise_done` →
    /// completion. The three always sum to [`latency`](Self::latency),
    /// stage queueing included in the stage that waited.
    pub fn stage_breakdown(&self) -> Option<(SimDuration, SimDuration, SimDuration)> {
        let completion = self.completion?;
        let denoise_done = self.denoise_done.unwrap_or(completion);
        let denoise_start = self.encode_done.unwrap_or(self.arrival);
        let encode = denoise_start.saturating_since(self.arrival);
        let denoise = denoise_done.saturating_since(denoise_start);
        let decode = completion.saturating_since(denoise_done);
        Some((encode, denoise, decode))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> RequestSpec {
        RequestSpec {
            id: RequestId(1),
            tenant: TenantId::UNTAGGED,
            resolution: Resolution::R512,
            arrival: SimTime::from_secs_f64(10.0),
            deadline: SimTime::from_secs_f64(12.0),
            total_steps: 50,
            stages: StageProfile::FLAT,
        }
    }

    #[test]
    fn slo_budget_is_deadline_minus_arrival() {
        assert_eq!(spec().slo_budget(), SimDuration::from_secs(2));
    }

    #[test]
    fn outcome_slo_and_latency() {
        let s = spec();
        let on_time = RequestOutcome {
            id: s.id,
            tenant: s.tenant,
            resolution: s.resolution,
            arrival: s.arrival,
            deadline: s.deadline,
            completion: Some(SimTime::from_secs_f64(11.5)),
            gpu_seconds: 1.9,
            steps_executed: 50,
            sp_degree_step_sum: 100,
            retries: 0,
            shed: false,
            steps_shed: 0,
            encode_done: None,
            denoise_done: Some(SimTime::from_secs_f64(11.4)),
        };
        assert!(on_time.met_slo());
        assert_eq!(on_time.latency(), Some(SimDuration::from_secs_f64(1.5)));
        assert!((on_time.mean_sp_degree() - 2.0).abs() < 1e-12);

        let late = RequestOutcome {
            completion: Some(SimTime::from_secs_f64(12.5)),
            ..on_time
        };
        assert!(!late.met_slo());

        let unfinished = RequestOutcome {
            completion: None,
            steps_executed: 0,
            sp_degree_step_sum: 0,
            retries: 0,
            shed: false,
            ..on_time
        };
        assert!(!unfinished.met_slo());
        assert_eq!(unfinished.latency(), None);
        assert_eq!(unfinished.mean_sp_degree(), 0.0);
    }

    #[test]
    fn deadline_boundary_is_inclusive() {
        let s = spec();
        let exactly = RequestOutcome {
            id: s.id,
            tenant: s.tenant,
            resolution: s.resolution,
            arrival: s.arrival,
            deadline: s.deadline,
            completion: Some(s.deadline),
            gpu_seconds: 0.0,
            steps_executed: 1,
            sp_degree_step_sum: 1,
            retries: 0,
            shed: false,
            steps_shed: 0,
            encode_done: None,
            denoise_done: None,
        };
        assert!(exactly.met_slo());
    }

    #[test]
    fn stage_breakdown_conserves_latency() {
        let s = spec();
        let outcome = RequestOutcome {
            id: s.id,
            tenant: s.tenant,
            resolution: s.resolution,
            arrival: s.arrival,
            deadline: s.deadline,
            completion: Some(SimTime::from_secs_f64(11.8)),
            gpu_seconds: 1.0,
            steps_executed: 50,
            sp_degree_step_sum: 50,
            retries: 0,
            shed: false,
            steps_shed: 0,
            encode_done: Some(SimTime::from_secs_f64(10.2)),
            denoise_done: Some(SimTime::from_secs_f64(11.5)),
        };
        let (encode, denoise, decode) = outcome.stage_breakdown().expect("completed");
        assert_eq!(encode, SimDuration::from_secs_f64(0.2));
        assert_eq!(denoise, SimDuration::from_secs_f64(1.3));
        assert_eq!(decode, SimDuration::from_secs_f64(0.3));
        assert_eq!(
            encode + denoise + decode,
            outcome.latency().expect("latency")
        );

        // Flat requests report everything before decode as denoise.
        let flat = RequestOutcome {
            encode_done: None,
            denoise_done: Some(SimTime::from_secs_f64(11.5)),
            ..outcome
        };
        let (e, d, v) = flat.stage_breakdown().expect("completed");
        assert_eq!(e, SimDuration::ZERO);
        assert_eq!(e + d + v, flat.latency().expect("latency"));

        let unfinished = RequestOutcome {
            completion: None,
            ..outcome
        };
        assert!(unfinished.stage_breakdown().is_none());
    }
}
