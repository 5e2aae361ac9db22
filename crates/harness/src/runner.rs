//! The deterministic worker pool executing a spec's cells.
//!
//! Cells are enumerated once in the spec's fixed order, pulled by a
//! fixed pool of scoped workers from an atomic queue (work stealing:
//! fast cells do not hold up slow ones), and reassembled in cell order
//! before the sink ever sees them. Because each cell's seed is a pure
//! function of the spec — never of which worker ran it or when — the
//! collected output is **byte-identical for every worker count**.

use crate::sink::{CellRecord, CellTelemetry, ResultSink};
use crate::spec::{CellSpec, ExperimentSpec, Net, SpecError};
use crate::topo::TopologyCache;
use kya_graph::Digraph;
use kya_runtime::faults::FaultPlan;
use kya_runtime::telemetry::{CountSummary, RoundEvent};
use kya_runtime::CellReport;
use serde::{Serialize, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which telemetry a [`Runner`] collects for each cell.
///
/// Off by default: plain sweeps stay byte-stable and pay no observer or
/// timing cost. Cell functions read the mode from
/// [`CellCtx::telemetry`] to decide which observers to attach; the
/// runner itself adds wall-clock and cache-counter fields to each
/// record's telemetry block whenever any mode bit is set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetryMode {
    /// Buffer per-round [`RoundEvent`]s for the NDJSON trace stream.
    pub trace: bool,
    /// Keep per-round residual series in the cell reports.
    pub residuals: bool,
}

impl TelemetryMode {
    /// No telemetry — the default for plain sweeps.
    pub fn off() -> TelemetryMode {
        TelemetryMode::default()
    }

    /// Whether any telemetry is requested (the runner then measures
    /// per-cell timing and cache deltas).
    pub fn enabled(&self) -> bool {
        self.trace || self.residuals
    }
}

/// Everything a cell function sees: the spec (shared parameters), the
/// cell (resolved axis values), and the shared topology cache.
pub struct CellCtx<'a> {
    /// The experiment specification being swept.
    pub spec: &'a ExperimentSpec,
    /// The cell to execute.
    pub cell: &'a CellSpec,
    /// The memo table shared by all workers.
    pub cache: &'a TopologyCache,
    /// Which telemetry the caller asked for.
    pub telemetry: TelemetryMode,
}

impl CellCtx<'_> {
    /// The cell's graph via the shared cache.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when the topology label is not in the
    /// static-graph grammar.
    pub fn graph(&self) -> Result<Arc<Digraph>, SpecError> {
        self.cache.graph(&self.cell.topology)
    }

    /// The cell's network, static or dynamic, via the shared cache
    /// ([`TopologyCache::net`]).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when the topology label is not in the
    /// grammar.
    pub fn net(&self) -> Result<Net, SpecError> {
        self.cache.net(&self.cell.topology)
    }

    /// The cell's fault plan, its coins seeded by the deterministic
    /// per-cell seed.
    pub fn fault_plan(&self) -> FaultPlan {
        self.cell.plan.clone().reseed(self.cell.cell_seed)
    }

    /// Shorthand for the spec's round budget.
    pub fn rounds(&self) -> u64 {
        self.spec.round_budget()
    }

    /// Shorthand for the spec's convergence tolerance.
    pub fn eps(&self) -> f64 {
        self.spec.tolerance()
    }
}

/// What a cell function returns: an optional pass/fail verdict, an
/// optional measurement [`CellReport`], and free-form detail fields
/// that land in the record's `details` map.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellOutcome {
    pub(crate) ok: Option<bool>,
    pub(crate) report: Option<CellReport>,
    pub(crate) telemetry: Option<CountSummary>,
    pub(crate) details: Vec<(String, Value)>,
    pub(crate) trace: Vec<RoundEvent>,
}

impl CellOutcome {
    /// An empty outcome (no verdict, no report, no details).
    pub fn new() -> CellOutcome {
        CellOutcome::default()
    }

    /// Attach a pass/fail verdict (certification-style experiments).
    #[must_use]
    pub fn ok(mut self, ok: bool) -> CellOutcome {
        self.ok = Some(ok);
        self
    }

    /// Attach the cell's measurement report.
    #[must_use]
    pub fn report(mut self, report: CellReport) -> CellOutcome {
        self.report = Some(report);
        self
    }

    /// Attach a named detail value (any serializable type).
    #[must_use]
    pub fn detail(mut self, key: impl Into<String>, value: impl Serialize) -> CellOutcome {
        self.details.push((key.into(), value.to_value()));
        self
    }

    /// Attach the cell's observer counters; they become the counter
    /// fields of the record's `telemetry` block.
    #[must_use]
    pub fn telemetry(mut self, summary: CountSummary) -> CellOutcome {
        self.telemetry = Some(summary);
        self
    }

    /// Attach the cell's per-round trace events (rendered by
    /// [`ResultSink::to_trace_ndjson`], not in the record's JSON).
    #[must_use]
    pub fn trace(mut self, events: Vec<RoundEvent>) -> CellOutcome {
        self.trace = events;
        self
    }
}

/// The worker pool: built from a spec, configured with a worker count,
/// run with a cell function.
pub struct Runner<'a> {
    spec: &'a ExperimentSpec,
    workers: usize,
    telemetry: TelemetryMode,
}

impl<'a> Runner<'a> {
    /// A runner for `spec` with a single worker (sequential) and
    /// telemetry off.
    pub fn new(spec: &'a ExperimentSpec) -> Runner<'a> {
        Runner {
            spec,
            workers: 1,
            telemetry: TelemetryMode::off(),
        }
    }

    /// Set the worker count (clamped to at least 1). The output is the
    /// same for every value; this only chooses the parallelism.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Runner<'a> {
        self.workers = workers.max(1);
        self
    }

    /// Choose which telemetry to collect per cell (default: off).
    #[must_use]
    pub fn telemetry(mut self, mode: TelemetryMode) -> Runner<'a> {
        self.telemetry = mode;
        self
    }

    /// Execute every cell with a fresh [`TopologyCache`] and collect
    /// the records in cell order.
    pub fn run<F>(&self, f: F) -> ResultSink
    where
        F: Fn(&CellCtx) -> CellOutcome + Sync,
    {
        self.run_with_cache(&TopologyCache::new(), f)
    }

    /// Execute every cell against a caller-provided (possibly
    /// pre-warmed) cache — cache state must never change results, and
    /// the harness tests assert exactly that.
    pub fn run_with_cache<F>(&self, cache: &TopologyCache, f: F) -> ResultSink
    where
        F: Fn(&CellCtx) -> CellOutcome + Sync,
    {
        let cells = self.spec.cells();
        // Parse each distinct static label once up front so workers
        // share one graph from the first cell on. Labels outside the
        // grammar (dynamic networks) are simply skipped.
        for label in self.spec.topology_labels() {
            let _ = cache.graph(&label);
        }

        let next = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, CellRecord)>> =
            Mutex::new(Vec::with_capacity(cells.len()));
        let pool = self.workers.min(cells.len()).max(1);
        let spec = self.spec;
        let mode = self.telemetry;
        let run_start = Instant::now();
        let (cells_ref, next_ref, collected_ref, f_ref) = (&cells, &next, &collected, &f);
        crossbeam::scope(|s| {
            for worker in 0..pool {
                s.spawn(move |_| {
                    // Attribute this thread's cache traffic to its
                    // worker index so per-cell deltas are exact.
                    let _scope = TopologyCache::enter_worker(worker);
                    loop {
                        let i = next_ref.fetch_add(1, Ordering::Relaxed);
                        if i >= cells_ref.len() {
                            break;
                        }
                        let queue_wait = run_start.elapsed();
                        let cache_before = cache.stats_for_worker(worker);
                        let cell = &cells_ref[i];
                        let ctx = CellCtx {
                            spec,
                            cell,
                            cache,
                            telemetry: mode,
                        };
                        let cell_start = Instant::now();
                        let outcome = f_ref(&ctx);
                        let wall = cell_start.elapsed();
                        let mut record = CellRecord::new(spec, cell, outcome);
                        if mode.enabled() {
                            let cache_after = cache.stats_for_worker(worker);
                            let t = record.telemetry.get_or_insert_with(CellTelemetry::default);
                            t.wall_us = wall.as_micros() as u64;
                            t.queue_wait_us = queue_wait.as_micros() as u64;
                            t.cache_hits = cache_after.0 - cache_before.0;
                            t.cache_misses = cache_after.1 - cache_before.1;
                        }
                        collected_ref.lock().expect("result lock").push((i, record));
                    }
                });
            }
        })
        .expect("worker pool");

        let mut indexed = collected.into_inner().expect("result lock");
        indexed.sort_by_key(|&(i, _)| i);
        debug_assert!(indexed.iter().enumerate().all(|(k, &(i, _))| k == i));
        let mut sink = ResultSink::new();
        for (_, record) in indexed {
            sink.push(record);
        }
        sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ExperimentSpec;

    fn demo_spec() -> ExperimentSpec {
        ExperimentSpec::new("demo")
            .topologies(["ring:{n}", "torus:{n}"])
            .sizes([4, 6, 9])
            .algorithms(["a", "b"])
    }

    fn cell_fn(ctx: &CellCtx) -> CellOutcome {
        let g = ctx.graph().expect("static label");
        CellOutcome::new()
            .ok(g.n() == ctx.cell.n)
            .detail("edges", g.edge_count() as u64)
            .detail("cell_seed", ctx.cell.cell_seed)
    }

    #[test]
    fn sequential_and_parallel_agree_exactly() {
        let spec = demo_spec();
        let one = Runner::new(&spec).workers(1).run(cell_fn);
        let four = Runner::new(&spec).workers(4).run(cell_fn);
        let many = Runner::new(&spec).workers(32).run(cell_fn);
        assert_eq!(one.records().len(), 12);
        assert_eq!(one.to_ndjson(), four.to_ndjson());
        assert_eq!(one.to_ndjson(), many.to_ndjson());
        assert!(one.all_ok());
    }

    #[test]
    fn records_arrive_in_cell_order() {
        let spec = demo_spec();
        let sink = Runner::new(&spec).workers(3).run(cell_fn);
        for (i, r) in sink.records().iter().enumerate() {
            assert_eq!(r.cell, i);
        }
    }

    #[test]
    fn shared_cache_computes_each_graph_once() {
        let spec = ExperimentSpec::new("demo")
            .topologies(["ring:{n}"])
            .sizes([8])
            .seeds([1, 2, 3, 4, 5, 6, 7, 8]);
        let cache = TopologyCache::new();
        let sink = Runner::new(&spec)
            .workers(4)
            .run_with_cache(&cache, cell_fn);
        assert_eq!(sink.records().len(), 8);
        let (hits, misses) = cache.stats();
        assert_eq!(misses, 1, "one parse of ring:8");
        assert!(hits >= 8, "every cell hit the cache: {hits}");
    }

    #[test]
    fn plain_sweeps_carry_no_telemetry_block() {
        let spec = demo_spec();
        let sink = Runner::new(&spec).workers(2).run(cell_fn);
        assert!(sink.records().iter().all(|r| r.telemetry.is_none()));
        assert!(sink.records().iter().all(|r| r.trace.is_empty()));
    }

    #[test]
    fn telemetry_mode_fills_runner_side_fields() {
        let spec = demo_spec();
        let mode = TelemetryMode {
            trace: true,
            residuals: false,
        };
        assert!(mode.enabled());
        assert!(!TelemetryMode::off().enabled());
        let sink = Runner::new(&spec).telemetry(mode).run(cell_fn);
        for r in sink.records() {
            let t = r.telemetry.as_ref().expect("telemetry block");
            assert!(
                t.cache_hits + t.cache_misses >= 1,
                "cell {} never touched the cache",
                r.cell
            );
            assert!(t.wall_us <= t.queue_wait_us + t.wall_us);
        }
    }

    #[test]
    fn observer_counters_survive_into_the_record() {
        let spec = ExperimentSpec::new("demo")
            .topologies(["ring:{n}"])
            .sizes([4]);
        let sink = Runner::new(&spec)
            .telemetry(TelemetryMode {
                trace: true,
                residuals: true,
            })
            .run(|_| {
                let summary = CountSummary {
                    rounds: 3,
                    messages: 12,
                    ..CountSummary::default()
                };
                CellOutcome::new().telemetry(summary).trace(vec![])
            });
        let t = sink.records()[0].telemetry.as_ref().expect("telemetry");
        assert_eq!(t.rounds, 3);
        assert_eq!(t.messages, 12);
    }

    #[test]
    fn fault_plan_uses_cell_seed() {
        let template = FaultPlan::new(77).drop_links(0.2);
        let spec = ExperimentSpec::new("demo")
            .topologies(["ring:{n}"])
            .sizes([4])
            .plans([template.clone()]);
        let sink = Runner::new(&spec).run(|ctx| {
            let plan = ctx.fault_plan();
            let seed = ctx.cell.cell_seed;
            CellOutcome::new().ok(seed != 77 && plan == template.clone().reseed(seed))
        });
        assert!(sink.all_ok());
    }
}
