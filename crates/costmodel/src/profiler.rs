//! Offline profiling and the runtime cost lookup table.
//!
//! §4.2.1 of the paper: *"TetriServe profiles execution times offline. For
//! every step type and GPU count k ∈ {1, 2, 4, …, N}, we measure the actual
//! execution time T(k). From this, we derive the GPU hour k·T(k) and store
//! it in a lookup table. At runtime, TetriServe simply enumerates candidate
//! GPU assignments using these pre-profiled values."*
//!
//! [`Profiler::profile`] reproduces that procedure against the simulated
//! engine — it actually executes warm-up steps and measures their (jittered)
//! durations — and produces a [`CostTable`], the immutable lookup structure
//! every scheduling policy consults. [`Profiler::analytic`] builds the same
//! table directly from the closed-form model, for tests that need exact
//! values.

// tetrilint: allow-file(taint-panic) -- cost-table axes are asserted non-empty at construction and every lookup panic is a documented `# Panics` contract: a missing profile entry must fail loudly at table build, not mis-price a schedule silently

use std::collections::BTreeMap;

use crate::comm::CommScheme;
use crate::hardware::ClusterSpec;
use crate::model::DitModel;
use crate::resolution::Resolution;
use crate::steptime::step_time_canonical;

use tetriserve_simulator::engine::{Engine, EngineConfig, StepDispatch};
use tetriserve_simulator::gpuset::GpuSet;
use tetriserve_simulator::time::{SimDuration, SimTime};
use tetriserve_simulator::trace::RequestId;

/// One profiled measurement, serialisable for persistence.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CostRow {
    /// Latent token count identifying the resolution.
    pub tokens: u64,
    /// Sequence-parallel degree.
    pub degree: usize,
    /// Batch size.
    pub batch: u32,
    /// Measured per-step latency in microseconds.
    pub step_micros: u64,
}

/// The profiled lookup table: per-step latency by (resolution, degree,
/// batch), plus derived quantities the scheduler needs (fastest degree,
/// minimal-GPU-hour degree).
///
/// Storage is a *dense* `(resolution × degree × batch)` grid so the round
/// loop's lookups are flat array reads, and every per-resolution derived
/// value (`T^min`, fastest degree, cheapest degree, `k·T(k)`, batch-1
/// step seconds, and the VAE-decode and condition-encode times at the
/// cluster's effective TFLOPs) is computed once at construction. The hot
/// path — `step_time`, `t_min`, `gpu_seconds`, [`CostTable::row`] and the
/// stage times, called per request per round or per route — therefore
/// never re-walks the degree list or re-runs the float pipelines behind
/// [`step_time_canonical`] and the model's stage formulas.
#[derive(Debug, Clone)]
pub struct CostTable {
    model: DitModel,
    cluster: ClusterSpec,
    scheme: CommScheme,
    resolutions: Vec<Resolution>,
    /// Token counts parallel to `resolutions` (the lookup key material).
    tokens: Vec<u64>,
    degrees: Vec<usize>,
    /// Direct-index map `degree -> index in degrees` (`NO_DEGREE` when the
    /// degree was not profiled).
    degree_index: Vec<u8>,
    max_batch: u32,
    /// Dense grid: `grid[(ri * degrees.len() + di) * max_batch + (batch-1)]`.
    grid: Vec<SimDuration>,
    /// Per-resolution `k · T(k, batch 1)`, laid out `[ri * degrees.len() + di]`.
    gpu_secs: Vec<f64>,
    /// Per-resolution batch-1 step seconds, laid out like `gpu_secs`.
    step_secs: Vec<f64>,
    /// Per-resolution fastest batch-1 step time (Algorithm 1's `T_i^min`).
    t_min: Vec<SimDuration>,
    /// Per-resolution index (into `degrees`) of the degree achieving `t_min`.
    fastest: Vec<usize>,
    /// Per-resolution degree minimising `k · T(k)`.
    cheapest: Vec<usize>,
    /// Per-resolution single-frame VAE decode at the cluster's effective
    /// TFLOPs.
    decode: Vec<SimDuration>,
    /// Per-resolution condition encode at the cluster's effective TFLOPs.
    encode: Vec<SimDuration>,
}

/// One profiled resolution's pricing inputs, all precomputed by the
/// [`CostTable`]: what pricing a request's remaining work reads, behind a
/// single resolution lookup. The slices are parallel to
/// [`CostTable::degrees`].
#[derive(Debug, Clone, Copy)]
pub struct ResolutionRow<'a> {
    /// Batch-1 step seconds per degree: `step_time(res, k, 1)` in seconds.
    pub step_secs: &'a [f64],
    /// GPU-seconds per step per degree: `gpu_seconds(res, k)`.
    pub gpu_secs: &'a [f64],
    /// GPU-seconds per step at the fastest degree (the first one on a tie).
    pub fastest_gpu_secs: f64,
    /// The fastest batch-1 step time, [`CostTable::t_min`].
    pub t_min: SimDuration,
    /// Single-frame VAE decode, [`CostTable::decode_time`] at one frame.
    pub decode: SimDuration,
    /// Condition encode, [`CostTable::encode_time`].
    pub encode: SimDuration,
}

const NO_DEGREE: u8 = u8::MAX;

impl CostTable {
    /// Builds the dense table and its derived values from a complete
    /// `(tokens, degree, batch) -> step time` map. Shared by the profiler,
    /// the analytic constructor and [`CostTable::from_rows`].
    fn from_entries(
        model: DitModel,
        cluster: ClusterSpec,
        scheme: CommScheme,
        resolutions: Vec<Resolution>,
        degrees: Vec<usize>,
        max_batch: u32,
        entries: &BTreeMap<(u64, usize, u32), SimDuration>,
    ) -> CostTable {
        assert!(!resolutions.is_empty(), "cost table needs a resolution");
        assert!(!degrees.is_empty(), "cost table needs a degree");
        let tokens: Vec<u64> = resolutions.iter().map(|r| r.tokens()).collect();
        let max_degree = *degrees.iter().max().expect("non-empty degrees");
        let mut degree_index = vec![NO_DEGREE; max_degree + 1];
        for (di, &k) in degrees.iter().enumerate() {
            degree_index[k] = u8::try_from(di).expect("degree count fits u8");
        }
        let nd = degrees.len();
        let nb = max_batch as usize;
        let mut grid = Vec::with_capacity(resolutions.len() * nd * nb);
        for &toks in &tokens {
            for &k in &degrees {
                for batch in 1..=max_batch {
                    let t = *entries.get(&(toks, k, batch)).unwrap_or_else(|| {
                        panic!("cost grid is missing tokens={toks} SP={k} batch={batch}")
                    });
                    grid.push(t);
                }
            }
        }
        // Derived per-resolution values. Ties resolve exactly as the former
        // on-demand scans did: `Iterator::min`/`min_by` keep the *first*
        // minimum, i.e. the smallest degree (degrees are ascending).
        let mut gpu_secs = Vec::with_capacity(resolutions.len() * nd);
        let mut step_secs = Vec::with_capacity(resolutions.len() * nd);
        let mut t_min = Vec::with_capacity(resolutions.len());
        let mut fastest = Vec::with_capacity(resolutions.len());
        let mut cheapest = Vec::with_capacity(resolutions.len());
        for ri in 0..resolutions.len() {
            let step1 = |di: usize| grid[(ri * nd + di) * nb];
            for (di, &k) in degrees.iter().enumerate() {
                gpu_secs.push(k as f64 * step1(di).as_secs_f64());
                step_secs.push(step1(di).as_secs_f64());
            }
            let (best_di, best_t) = (0..nd)
                .map(|di| (di, step1(di)))
                .min_by_key(|&(_, t)| t)
                .expect("at least one degree");
            t_min.push(best_t);
            fastest.push(best_di);
            // total_cmp matches partial_cmp on these always-finite costs
            // and needs no NaN panic path.
            let cheap_di = (0..nd)
                .min_by(|&a, &b| gpu_secs[ri * nd + a].total_cmp(&gpu_secs[ri * nd + b]))
                .expect("at least one degree");
            cheapest.push(degrees[cheap_di]);
        }
        let tflops = cluster.gpu.effective_tflops();
        let decode = resolutions
            .iter()
            .map(|&res| model.decode_time(res, tflops))
            .collect();
        let encode = resolutions
            .iter()
            .map(|&res| model.encode_time(res, tflops))
            .collect();
        CostTable {
            model,
            cluster,
            scheme,
            resolutions,
            tokens,
            degrees,
            degree_index,
            max_batch,
            grid,
            gpu_secs,
            step_secs,
            t_min,
            fastest,
            cheapest,
            decode,
            encode,
        }
    }

    /// Index of `res` in the profiled resolution list. Linear scan over a
    /// handful of token counts — faster than hashing at this size.
    #[inline]
    fn res_index(&self, res: Resolution) -> Option<usize> {
        let toks = res.tokens();
        self.tokens.iter().position(|&t| t == toks)
    }

    /// Index of degree `k` in the profiled degree list.
    #[inline]
    fn deg_index(&self, k: usize) -> Option<usize> {
        match self.degree_index.get(k) {
            Some(&di) if di != NO_DEGREE => Some(di as usize),
            _ => None,
        }
    }

    /// Per-step latency for `res` at degree `k` and batch size `batch`.
    ///
    /// # Panics
    ///
    /// Panics if the combination was not profiled; use
    /// [`CostTable::try_step_time`] for fallible lookup.
    #[inline]
    pub fn step_time(&self, res: Resolution, k: usize, batch: u32) -> SimDuration {
        self.try_step_time(res, k, batch).unwrap_or_else(|| {
            panic!(
                "cost table has no entry for {res} at SP={k}, batch={batch}; profiled \
                 resolutions {:?}, degrees {:?}, batches 1..={}",
                self.resolutions
                    .iter()
                    .map(|r| r.label())
                    .collect::<Vec<_>>(),
                self.degrees,
                self.max_batch
            )
        })
    }

    /// Fallible per-step latency lookup: a flat dense-grid read.
    #[inline]
    pub fn try_step_time(&self, res: Resolution, k: usize, batch: u32) -> Option<SimDuration> {
        if batch == 0 || batch > self.max_batch {
            return None;
        }
        let ri = self.res_index(res)?;
        let di = self.deg_index(k)?;
        let idx = (ri * self.degrees.len() + di) * self.max_batch as usize + (batch as usize - 1);
        Some(self.grid[idx])
    }

    /// GPU-seconds per step at degree `k`: `k · T(k)` (batch 1),
    /// precomputed at construction.
    ///
    /// # Panics
    ///
    /// Panics if the combination was not profiled.
    #[inline]
    pub fn gpu_seconds(&self, res: Resolution, k: usize) -> f64 {
        match (self.res_index(res), self.deg_index(k)) {
            (Some(ri), Some(di)) => self.gpu_secs[ri * self.degrees.len() + di],
            _ => {
                // Defer to step_time for the diagnostic panic message.
                k as f64 * self.step_time(res, k, 1).as_secs_f64()
            }
        }
    }

    /// The fastest profiled per-step time for a resolution (batch 1) — the
    /// `T_i^min` of Algorithm 1's survival bound. Precomputed.
    ///
    /// # Panics
    ///
    /// Panics if `res` was not profiled.
    #[inline]
    pub fn t_min(&self, res: Resolution) -> SimDuration {
        match self.res_index(res) {
            Some(ri) => self.t_min[ri],
            None => self.step_time(res, self.degrees[0], 1), // diagnostic panic
        }
    }

    /// The degree achieving [`CostTable::t_min`]. Precomputed.
    ///
    /// # Panics
    ///
    /// Panics if `res` was not profiled.
    #[inline]
    pub fn fastest_degree(&self, res: Resolution) -> usize {
        match self.res_index(res) {
            Some(ri) => self.degrees[self.fastest[ri]],
            None => {
                let _ = self.step_time(res, self.degrees[0], 1); // diagnostic panic
                unreachable!()
            }
        }
    }

    /// The degree minimising GPU-seconds `k · T(k)` — where a request runs
    /// when its deadline exerts no pressure. Precomputed.
    ///
    /// # Panics
    ///
    /// Panics if `res` was not profiled.
    #[inline]
    pub fn cheapest_degree(&self, res: Resolution) -> usize {
        match self.res_index(res) {
            Some(ri) => self.cheapest[ri],
            None => {
                let _ = self.step_time(res, self.degrees[0], 1); // diagnostic panic
                unreachable!()
            }
        }
    }

    /// The pricing row of `res`: every per-degree and stage value EDF
    /// demand pricing reads, precomputed.
    ///
    /// # Panics
    ///
    /// Panics if `res` was not profiled.
    #[inline]
    pub fn row(&self, res: Resolution) -> ResolutionRow<'_> {
        let Some(ri) = self.res_index(res) else {
            let _ = self.step_time(res, self.degrees[0], 1); // diagnostic panic
            unreachable!()
        };
        let nd = self.degrees.len();
        let gpu_secs = &self.gpu_secs[ri * nd..(ri + 1) * nd];
        ResolutionRow {
            step_secs: &self.step_secs[ri * nd..(ri + 1) * nd],
            gpu_secs,
            fastest_gpu_secs: gpu_secs[self.fastest[ri]],
            t_min: self.t_min[ri],
            decode: self.decode[ri],
            encode: self.encode[ri],
        }
    }

    /// VAE-decode latency of `frames` output frames at `res` on this
    /// table's cluster: exactly the model's
    /// [`decode_time_frames`](DitModel::decode_time_frames) at the
    /// cluster's effective TFLOPs, read from the table for profiled
    /// resolutions.
    #[inline]
    pub fn decode_time(&self, res: Resolution, frames: u32) -> SimDuration {
        let one = match self.res_index(res) {
            Some(ri) => self.decode[ri],
            None => self
                .model
                .decode_time(res, self.cluster.gpu.effective_tflops()),
        };
        crate::stage::frame_scaled(one, frames)
    }

    /// Condition-encode latency at `res` on this table's cluster: exactly
    /// the model's [`encode_time`](DitModel::encode_time) at the cluster's
    /// effective TFLOPs, read from the table for profiled resolutions.
    #[inline]
    pub fn encode_time(&self, res: Resolution) -> SimDuration {
        match self.res_index(res) {
            Some(ri) => self.encode[ri],
            None => self
                .model
                .encode_time(res, self.cluster.gpu.effective_tflops()),
        }
    }

    /// Profiled sequence-parallel degrees, ascending.
    pub fn degrees(&self) -> &[usize] {
        &self.degrees
    }

    /// Profiled resolutions, ascending by token count.
    pub fn resolutions(&self) -> &[Resolution] {
        &self.resolutions
    }

    /// Largest profiled batch size.
    pub fn max_batch(&self) -> u32 {
        self.max_batch
    }

    /// The model this table was profiled for.
    pub fn model(&self) -> &DitModel {
        &self.model
    }

    /// The cluster this table was profiled on.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The communication scheme assumed by the table.
    pub fn scheme(&self) -> CommScheme {
        self.scheme
    }

    /// Exports the table as serialisable rows (batch-1 and batched entries),
    /// sorted by `(tokens, degree, batch)` as the former map iteration was.
    pub fn to_rows(&self) -> Vec<CostRow> {
        let nd = self.degrees.len();
        let nb = self.max_batch as usize;
        let mut rows = Vec::with_capacity(self.grid.len());
        for (ri, &tokens) in self.tokens.iter().enumerate() {
            for (di, &degree) in self.degrees.iter().enumerate() {
                for batch in 1..=self.max_batch {
                    let d = self.grid[(ri * nd + di) * nb + (batch as usize - 1)];
                    rows.push(CostRow {
                        tokens,
                        degree,
                        batch,
                        step_micros: d.as_micros(),
                    });
                }
            }
        }
        rows.sort_by_key(|r| (r.tokens, r.degree, r.batch));
        rows
    }

    /// Reconstructs a table from persisted rows (the inverse of
    /// [`CostTable::to_rows`]), so expensive offline profiles can be stored
    /// and reloaded.
    ///
    /// # Panics
    ///
    /// Panics if the rows are empty, reference unknown token counts for the
    /// model's latent geometry (non-square-resolvable), or do not form a
    /// complete (resolution × degree × batch) grid.
    pub fn from_rows(
        model: DitModel,
        cluster: ClusterSpec,
        scheme: CommScheme,
        rows: &[CostRow],
    ) -> CostTable {
        assert!(!rows.is_empty(), "cost table rows must be non-empty");
        let mut entries = BTreeMap::new();
        let mut resolutions: Vec<Resolution> = Vec::new();
        let mut degrees: Vec<usize> = Vec::new();
        let mut max_batch = 1;
        for r in rows {
            let side = ((r.tokens as f64).sqrt() as u64) * 16;
            let res = Resolution::new(side as u32, side as u32);
            assert_eq!(
                res.tokens(),
                r.tokens,
                "row token count {} does not describe a square resolution",
                r.tokens
            );
            if !resolutions.contains(&res) {
                resolutions.push(res);
            }
            if !degrees.contains(&r.degree) {
                degrees.push(r.degree);
            }
            max_batch = max_batch.max(r.batch);
            entries.insert(
                (r.tokens, r.degree, r.batch),
                SimDuration::from_micros(r.step_micros),
            );
        }
        resolutions.sort();
        degrees.sort_unstable();
        let expected = resolutions.len() * degrees.len() * max_batch as usize;
        assert_eq!(
            entries.len(),
            expected,
            "rows must form a complete grid: got {} of {expected}",
            entries.len()
        );
        CostTable::from_entries(
            model,
            cluster,
            scheme,
            resolutions,
            degrees,
            max_batch,
            &entries,
        )
    }
}

/// Builds [`CostTable`]s, either by measuring the engine or analytically.
#[derive(Debug, Clone)]
pub struct Profiler {
    model: DitModel,
    cluster: ClusterSpec,
    scheme: CommScheme,
    resolutions: Vec<Resolution>,
    max_batch: u32,
    warmup_steps: u32,
    measure_steps: u32,
}

impl Profiler {
    /// Creates a profiler for the production resolutions with batch sizes
    /// up to 4 (the paper's profiling envelope).
    pub fn new(model: DitModel, cluster: ClusterSpec) -> Profiler {
        Profiler {
            model,
            cluster,
            scheme: CommScheme::Ulysses,
            resolutions: Resolution::PRODUCTION.to_vec(),
            max_batch: 4,
            warmup_steps: 2,
            measure_steps: 20,
        }
    }

    /// Overrides the communication scheme.
    pub fn scheme(&mut self, scheme: CommScheme) -> &mut Profiler {
        self.scheme = scheme;
        self
    }

    /// Overrides the profiled resolutions.
    pub fn resolutions(&mut self, res: &[Resolution]) -> &mut Profiler {
        let mut sorted = res.to_vec();
        sorted.sort();
        sorted.dedup();
        assert!(!sorted.is_empty(), "profiler needs at least one resolution");
        self.resolutions = sorted;
        self
    }

    /// Overrides the maximum profiled batch size.
    pub fn max_batch(&mut self, max_batch: u32) -> &mut Profiler {
        assert!(max_batch >= 1, "max batch must be at least 1");
        self.max_batch = max_batch;
        self
    }

    /// Builds the table by *measuring the engine*, as the paper's offline
    /// profiling pass does: for each (resolution, degree, batch) it runs a
    /// `warmup_steps` dispatch and then a back-to-back `measure_steps`
    /// dispatch on a canonical placement, and records the measured
    /// dispatch's mean step latency (jitter included).
    pub fn profile(&self) -> CostTable {
        let mut entries = BTreeMap::new();
        let degrees = self.cluster.sp_degrees();
        let topo = self.cluster.topology();
        for &res in &self.resolutions {
            for &k in &degrees {
                for batch in 1..=self.max_batch {
                    let gpus = GpuSet::contiguous(0, k);
                    let expected = crate::steptime::step_time_on(
                        &self.model,
                        res,
                        gpus,
                        batch,
                        &self.cluster,
                        &topo,
                        self.scheme,
                    );
                    let mut engine = Engine::new(self.cluster.topology(), EngineConfig::default());
                    let mut dispatch = StepDispatch {
                        requests: vec![RequestId(u64::MAX)],
                        gpus,
                        steps: self.warmup_steps,
                        per_step: expected,
                        latent_bytes: self.model.latent_bytes(res),
                        decode_after: None,
                        finishing: Vec::new(),
                    };
                    let warm = engine
                        .submit(SimTime::ZERO, &dispatch)
                        .expect("profiling dispatch is well-formed");
                    // The measured dispatch starts the instant the warm-up
                    // ends: same request, same warm group, so no stall.
                    dispatch.steps = self.measure_steps;
                    let out = engine
                        .submit(warm.gpus_free_at, &dispatch)
                        .expect("profiling dispatch is well-formed");
                    let span = out.gpus_free_at.saturating_since(out.start);
                    let mean = span / u64::from(self.measure_steps);
                    entries.insert((res.tokens(), k, batch), mean);
                }
            }
        }
        CostTable::from_entries(
            self.model.clone(),
            self.cluster,
            self.scheme,
            self.resolutions.clone(),
            degrees,
            self.max_batch,
            &entries,
        )
    }

    /// Builds the table from the closed-form model with no measurement
    /// noise. Useful in unit tests needing exact values.
    pub fn analytic(&self) -> CostTable {
        let mut entries = BTreeMap::new();
        let degrees = self.cluster.sp_degrees();
        for &res in &self.resolutions {
            for &k in &degrees {
                for batch in 1..=self.max_batch {
                    let t =
                        step_time_canonical(&self.model, res, k, batch, &self.cluster, self.scheme);
                    entries.insert((res.tokens(), k, batch), t);
                }
            }
        }
        CostTable::from_entries(
            self.model.clone(),
            self.cluster,
            self.scheme,
            self.resolutions.clone(),
            degrees,
            self.max_batch,
            &entries,
        )
    }
}

/// Measures the coefficient of variation of per-step latency over
/// `steps` engine-executed steps (Table 1's stability experiment), each
/// its own single-step dispatch submitted the instant the previous one
/// ends.
///
/// # Examples
///
/// ```
/// use tetriserve_costmodel::{measure_step_cv, ClusterSpec, DitModel, Resolution};
///
/// let cv = measure_step_cv(
///     &DitModel::flux_dev(),
///     &ClusterSpec::h100x8(),
///     Resolution::R1024,
///     4,
///     20,
///     0,
/// );
/// assert!(cv < 0.007, "Table 1: execution is stable (CV ≤ 0.7%)");
/// ```
pub fn measure_step_cv(
    model: &DitModel,
    cluster: &ClusterSpec,
    res: Resolution,
    k: usize,
    steps: u32,
    seed: u64,
) -> f64 {
    assert!(steps >= 2, "CV needs at least two steps");
    let expected = step_time_canonical(model, res, k, 1, cluster, CommScheme::Ulysses);
    let mut engine = Engine::new(
        cluster.topology(),
        EngineConfig {
            seed,
            ..EngineConfig::default()
        },
    );
    let dispatch = StepDispatch {
        requests: vec![RequestId(u64::MAX)],
        gpus: GpuSet::contiguous(0, k),
        steps: 1,
        per_step: expected,
        latent_bytes: model.latent_bytes(res),
        decode_after: None,
        finishing: Vec::new(),
    };
    let mut durations = Vec::with_capacity(steps as usize);
    let mut at = SimTime::ZERO;
    for _ in 0..steps {
        let out = engine
            .submit(at, &dispatch)
            .expect("CV dispatch is well-formed");
        durations.push(out.gpus_free_at.saturating_since(out.start).as_secs_f64());
        at = out.gpus_free_at;
    }
    let n = durations.len() as f64;
    let mean = durations.iter().sum::<f64>() / n;
    let var = durations.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> CostTable {
        Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic()
    }

    #[test]
    fn lookup_covers_the_profiling_envelope() {
        let t = table();
        for res in Resolution::PRODUCTION {
            for &k in t.degrees() {
                for b in 1..=4 {
                    assert!(t.try_step_time(res, k, b).is_some(), "{res} SP={k} b={b}");
                }
            }
        }
        assert_eq!(t.degrees(), &[1, 2, 4, 8]);
        assert!(t.try_step_time(Resolution::R256, 3, 1).is_none());
    }

    #[test]
    fn profiled_table_tracks_analytic_within_jitter() {
        let analytic = table();
        let profiled = Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).profile();
        for res in Resolution::PRODUCTION {
            for &k in analytic.degrees() {
                let a = analytic.step_time(res, k, 1).as_secs_f64();
                let p = profiled.step_time(res, k, 1).as_secs_f64();
                assert!(
                    (a - p).abs() / a < 0.01,
                    "{res} SP={k}: analytic {a}, profiled {p}"
                );
            }
        }
    }

    #[test]
    fn fastest_degree_is_max_parallelism_for_large_inputs() {
        let t = table();
        assert_eq!(t.fastest_degree(Resolution::R2048), 8);
        assert_eq!(t.fastest_degree(Resolution::R1024), 8);
        assert_eq!(
            t.t_min(Resolution::R2048),
            t.step_time(Resolution::R2048, 8, 1)
        );
    }

    #[test]
    fn precomputed_rows_match_the_lookups_and_the_model() {
        let a40 = Profiler::new(DitModel::sd3_medium(), ClusterSpec::a40x4()).analytic();
        for t in [table(), a40] {
            let tflops = t.cluster().gpu.effective_tflops();
            for res in Resolution::PRODUCTION {
                let row = t.row(res);
                for (di, &k) in t.degrees().iter().enumerate() {
                    let step = t.step_time(res, k, 1).as_secs_f64();
                    assert_eq!(row.step_secs[di].to_bits(), step.to_bits());
                    assert_eq!(row.gpu_secs[di].to_bits(), t.gpu_seconds(res, k).to_bits());
                }
                let fastest = t.gpu_seconds(res, t.fastest_degree(res));
                assert_eq!(row.fastest_gpu_secs.to_bits(), fastest.to_bits());
                assert_eq!(row.t_min, t.t_min(res));
                for frames in [1, 2, 8, 16] {
                    let model = t.model().decode_time_frames(res, tflops, frames);
                    assert_eq!(t.decode_time(res, frames), model, "{res} x{frames}");
                }
                assert_eq!(row.decode, t.decode_time(res, 1));
                assert_eq!(t.encode_time(res), t.model().encode_time(res, tflops));
                assert_eq!(row.encode, t.encode_time(res));
            }
            // Outside the profiled resolutions the stage times fall back
            // to the model.
            let odd = Resolution::new(768, 768);
            assert_eq!(
                t.decode_time(odd, 3),
                t.model().decode_time_frames(odd, tflops, 3)
            );
            assert_eq!(t.encode_time(odd), t.model().encode_time(odd, tflops));
        }
    }

    #[test]
    fn cheapest_degree_is_one_for_everything() {
        // k·T(k) is increasing in k for all production resolutions (tested
        // in steptime), so the GPU-hour-minimal degree is 1.
        let t = table();
        for res in Resolution::PRODUCTION {
            assert_eq!(t.cheapest_degree(res), 1, "{res}");
        }
    }

    #[test]
    fn measured_cv_is_sub_percent() {
        // Table 1 reports CVs ≤ 0.7% across the board.
        for (i, res) in Resolution::PRODUCTION.into_iter().enumerate() {
            for (j, k) in [1usize, 2, 4, 8].into_iter().enumerate() {
                let cv = measure_step_cv(
                    &DitModel::flux_dev(),
                    &ClusterSpec::h100x8(),
                    res,
                    k,
                    20,
                    (i * 4 + j) as u64,
                );
                assert!(cv < 0.007, "{res} SP={k}: CV {cv}");
            }
        }
    }

    #[test]
    fn from_rows_reconstructs_the_table() {
        let t = table();
        let rows = t.to_rows();
        let back = CostTable::from_rows(t.model().clone(), *t.cluster(), t.scheme(), &rows);
        assert_eq!(back.degrees(), t.degrees());
        assert_eq!(back.resolutions(), t.resolutions());
        assert_eq!(back.max_batch(), t.max_batch());
        for res in Resolution::PRODUCTION {
            for &k in t.degrees() {
                for b in 1..=t.max_batch() {
                    assert_eq!(back.step_time(res, k, b), t.step_time(res, k, b));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "complete grid")]
    fn from_rows_rejects_partial_grids() {
        let t = table();
        let mut rows = t.to_rows();
        rows.pop();
        let _ = CostTable::from_rows(t.model().clone(), *t.cluster(), t.scheme(), &rows);
    }

    #[test]
    fn rows_round_trip_the_entries() {
        let t = table();
        let rows = t.to_rows();
        assert_eq!(rows.len(), 4 * 4 * 4);
        let r = rows
            .iter()
            .find(|r| r.tokens == 4096 && r.degree == 4 && r.batch == 1)
            .unwrap();
        assert_eq!(
            SimDuration::from_micros(r.step_micros),
            t.step_time(Resolution::R1024, 4, 1)
        );
    }

    #[test]
    fn custom_resolution_envelope() {
        let mut p = Profiler::new(DitModel::sd3_medium(), ClusterSpec::a40x4());
        p.resolutions(&[Resolution::R512, Resolution::R256])
            .max_batch(2);
        let t = p.analytic();
        assert_eq!(t.resolutions(), &[Resolution::R256, Resolution::R512]);
        assert_eq!(t.degrees(), &[1, 2, 4]);
        assert_eq!(t.max_batch(), 2);
    }

    #[test]
    #[should_panic(expected = "no entry")]
    fn missing_entry_panics_with_context() {
        table().step_time(Resolution::square(4096), 1, 1);
    }

    #[test]
    fn memoised_grid_is_bit_identical_to_the_cost_model() {
        // The dense table is a pure memo: every lookup must equal the
        // un-memoised closed-form pipeline exactly (SimDuration is integer
        // microseconds, so equality here is bit-identity), for both testbeds
        // and both communication schemes.
        for (model, cluster) in [
            (DitModel::flux_dev(), ClusterSpec::h100x8()),
            (DitModel::sd3_medium(), ClusterSpec::a40x4()),
        ] {
            for scheme in [CommScheme::Ulysses, CommScheme::Ring] {
                let mut p = Profiler::new(model.clone(), cluster);
                p.scheme(scheme);
                let t = p.analytic();
                for &res in t.resolutions() {
                    for &k in t.degrees() {
                        for b in 1..=t.max_batch() {
                            let direct = step_time_canonical(&model, res, k, b, &cluster, scheme);
                            assert_eq!(
                                t.step_time(res, k, b),
                                direct,
                                "{res} SP={k} b={b} under {scheme:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn memoised_derived_values_match_on_demand_scans() {
        // t_min / fastest / cheapest / gpu_seconds are precomputed at
        // construction; they must agree with a fresh scan over the grid,
        // including the first-minimum (smallest degree) tie-break.
        let t = table();
        for &res in t.resolutions() {
            let scan_t_min = t
                .degrees()
                .iter()
                .map(|&k| t.step_time(res, k, 1))
                .min()
                .unwrap();
            assert_eq!(t.t_min(res), scan_t_min, "{res}");
            let scan_fastest = t
                .degrees()
                .iter()
                .copied()
                .min_by_key(|&k| t.step_time(res, k, 1))
                .unwrap();
            assert_eq!(t.fastest_degree(res), scan_fastest, "{res}");
            let scan_cheapest = t
                .degrees()
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    (a as f64 * t.step_time(res, a, 1).as_secs_f64())
                        .total_cmp(&(b as f64 * t.step_time(res, b, 1).as_secs_f64()))
                })
                .unwrap();
            assert_eq!(t.cheapest_degree(res), scan_cheapest, "{res}");
            for &k in t.degrees() {
                let direct = k as f64 * t.step_time(res, k, 1).as_secs_f64();
                assert_eq!(t.gpu_seconds(res, k).to_bits(), direct.to_bits(), "{res}");
            }
        }
    }

    #[test]
    fn out_of_envelope_batches_and_degrees_are_none() {
        let t = table();
        assert!(t.try_step_time(Resolution::R256, 1, 0).is_none());
        assert!(t
            .try_step_time(Resolution::R256, 1, t.max_batch() + 1)
            .is_none());
        assert!(t.try_step_time(Resolution::R256, 16, 1).is_none());
        assert!(t.try_step_time(Resolution::square(4096), 1, 1).is_none());
    }

    proptest::proptest! {
        /// Memoisation property over randomised custom models: the table's
        /// lookup agrees exactly with the un-memoised cost-model path at
        /// every grid point a random probe lands on.
        #[test]
        fn prop_memoised_agrees_with_direct(
            hidden_kb in 1u64..8,
            layers in 4u32..64,
            ri in 0usize..4,
            di in 0usize..4,
            batch in 1u32..5,
        ) {
            let model = DitModel::builder("probe")
                .hidden(hidden_kb * 512)
                .layers(layers)
                .build();
            let cluster = ClusterSpec::h100x8();
            let t = Profiler::new(model.clone(), cluster).analytic();
            let res = Resolution::PRODUCTION[ri];
            let k = t.degrees()[di];
            let direct = step_time_canonical(&model, res, k, batch, &cluster, CommScheme::Ulysses);
            proptest::prop_assert_eq!(t.step_time(res, k, batch), direct);
        }
    }
}
