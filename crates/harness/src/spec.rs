//! Experiment specifications: axes, network/value grammars, and
//! deterministic cell enumeration.
//!
//! This module owns the one network-label grammar. Labels are
//! `family:params`; static graphs ([`parse_graph`]) are
//!
//! | spec | graph |
//! |------|-------|
//! | `ring:N` | directed ring |
//! | `biring:N` | bidirectional ring |
//! | `star:N` | bidirectional star |
//! | `instar:N` | directed in-star, in-edges in descending order |
//! | `path:N` | bidirectional path |
//! | `complete:N` | complete digraph |
//! | `torus:RxC` / `torus:N` | directed torus (near-square for `N`) |
//! | `hypercube:D` | bidirectional hypercube |
//! | `debruijn:BxK` | de Bruijn graph |
//! | `kautz:BxK` | Kautz graph |
//! | `layered:GxS` | layered cycle of `G` groups of `S` |
//! | `random:N:EXTRA:SEED` | random strongly connected digraph |
//! | `randbi:N:EXTRA:SEED` | random connected bidirectional graph |
//!
//! and [`parse_net`] reads those as constant networks plus the dynamic
//! families:
//!
//! | spec | network |
//! |------|---------|
//! | `periodic:N` | a directed ring and a bidirectional star, alternating |
//! | `dyn:directed:N:EXTRA:SEED` | random dynamic digraph |
//! | `dyn:symmetric:N:EXTRA:SEED` | random dynamic bidirectional graph |
//! | `async:MAXDELAY:SEED:<dyn>` | asynchronous starts on a `dyn` network |
//! | `sparse:BASEGAP:HORIZON:<dyn>` | geometric sparsely-connected schedule |
//! | `pair:uniform:N:SEED` / `pair:cover:N:SEED` | pairwise interactions |
//!
//! Every family is capped at [`MAX_AGENTS`] agents and [`MAX_EDGES`]
//! edges: a larger spec is a [`SpecError`], never an allocation abort,
//! and a size outside a family's range is an error, never clamped.
//!
//! In an [`ExperimentSpec`] topology axis, specs are *patterns*: the
//! placeholders `{n}` and `{seed}` are substituted from the size and
//! seed axes, so `ring:{n}` crossed with sizes `[4, 8]` enumerates
//! `ring:4` and `ring:8`.

use crate::args::Args;
use kya_graph::{
    generators, Digraph, DynamicGraph, PairingScheduler, PeriodicGraph, RandomDynamicGraph,
    RoundRobinCover, SparselyConnected, StaticGraph, UniformRandom,
};
use kya_runtime::adversary::AsyncStarts;
use kya_runtime::bits::splitmix64;
use kya_runtime::faults::FaultPlan;
use std::fmt;

/// A specification or flag parsing error with a human-oriented message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// The most agents a graph or value spec may describe: 2^24, above every
/// network size the experiments use (the largest flat runs have 10^6
/// agents). Specs past it are rejected before anything is allocated.
pub const MAX_AGENTS: usize = 1 << 24;

/// The most edges a graph spec may describe: 2^29, room for the densest
/// family at [`MAX_AGENTS`] (`hypercube:24`, 24 · 2^24 edges). Dense
/// families (`complete`, `layered`, `debruijn:Bx1`) and the random
/// families' extra-edge counts hit it long before the agent limit.
pub const MAX_EDGES: usize = 1 << 29;

fn err(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

fn parse_num(s: &str, what: &str) -> Result<usize, SpecError> {
    s.parse()
        .map_err(|_| err(format!("invalid {what}: `{s}` is not a number")))
}

fn parse_pair(s: &str, what: &str) -> Result<(usize, usize), SpecError> {
    let (a, b) = s
        .split_once('x')
        .ok_or_else(|| err(format!("invalid {what}: expected AxB, got `{s}`")))?;
    Ok((parse_num(a, what)?, parse_num(b, what)?))
}

/// The near-square factorization `r x c = n` (`n >= 1`) with `r <= c`
/// and `r` maximal — what `torus:N` means.
fn near_square(n: usize) -> (usize, usize) {
    let mut r = ((n as f64).sqrt() as usize).max(1);
    while r > 1 && !n.is_multiple_of(r) {
        r -= 1;
    }
    (r, n / r)
}

/// Parse a graph spec (see module docs for the grammar).
///
/// # Errors
///
/// Returns a [`SpecError`] describing the problem.
pub fn parse_graph(spec: &str) -> Result<Digraph, SpecError> {
    let mut parts = spec.split(':');
    let family = parts.next().unwrap_or_default();
    let rest: Vec<&str> = parts.collect();
    let arg = |i: usize| -> Result<&str, SpecError> {
        rest.get(i)
            .copied()
            .ok_or_else(|| err(format!("`{family}` needs more parameters (got `{spec}`)")))
    };
    // Word graphs (`debruijn`, `kautz`) over `b >= 2` letters pass the
    // agent limit beyond this length; over one letter longer words only
    // repeat the same graph at a larger generation cost.
    let word_length = |k: usize| -> Result<u32, SpecError> {
        match u32::try_from(k) {
            Ok(k) if k <= MAX_AGENTS.ilog2() => Ok(k),
            _ => Err(err(format!(
                "`{spec}` is too large: word length {k} exceeds {}",
                MAX_AGENTS.ilog2()
            ))),
        }
    };
    // Every size below must be at least 1: a network has an agent, and
    // clamping a 0 up to 1 would run a graph the user did not ask for.
    let positive = |n: usize, what: &str| -> Result<usize, SpecError> {
        match n {
            0 => Err(err(format!(
                "`{spec}` is empty: its {what} must be at least 1"
            ))),
            n => Ok(n),
        }
    };
    let size = |what| -> Result<usize, SpecError> { positive(parse_num(arg(0)?, what)?, what) };
    let pair = |what| -> Result<(usize, usize), SpecError> {
        let (a, b) = parse_pair(arg(0)?, what)?;
        Ok((positive(a, what)?, positive(b, what)?))
    };
    // Each arm checks its agent and edge counts (`None`: past `usize`)
    // against the limits before the generator allocates anything.
    let fits = |n: Option<usize>, m: Option<usize>| -> Result<(), SpecError> {
        match (n, m) {
            (Some(n), Some(m)) if n <= MAX_AGENTS && m <= MAX_EDGES => Ok(()),
            (Some(n), _) if n <= MAX_AGENTS => Err(err(format!(
                "`{spec}` is too large: it has more than {MAX_EDGES} edges"
            ))),
            _ => Err(err(format!(
                "`{spec}` is too large: it has more than {MAX_AGENTS} agents"
            ))),
        }
    };
    let graph = match family {
        "ring" => {
            let n = size("size")?;
            fits(Some(n), Some(n))?;
            generators::directed_ring(n)
        }
        "biring" => {
            let n = size("size")?;
            fits(Some(n), n.checked_mul(2))?;
            generators::bidirectional_ring(n)
        }
        "star" => {
            let n = size("size")?;
            fits(Some(n), (n - 1).checked_mul(2))?;
            generators::star(n)
        }
        "instar" => {
            let n = size("size")?;
            fits(Some(n), Some(n - 1))?;
            generators::instar(n)
        }
        "path" => {
            let n = size("size")?;
            fits(Some(n), (n - 1).checked_mul(2))?;
            generators::bidirectional_path(n)
        }
        "complete" => {
            let n = size("size")?;
            fits(Some(n), n.checked_mul(n.saturating_sub(1)))?;
            generators::complete(n)
        }
        "torus" => {
            let (r, c) = if arg(0)?.contains('x') {
                pair("torus dimensions")?
            } else {
                let n = size("torus size")?;
                fits(Some(n), n.checked_mul(2))?;
                near_square(n)
            };
            let n = r.checked_mul(c);
            fits(n, n.and_then(|n| n.checked_mul(2)))?;
            generators::directed_torus(r, c)
        }
        "hypercube" => {
            // Dimension 0 is the 1-vertex hypercube, not an empty graph.
            let dim = parse_num(arg(0)?, "dimension")?;
            let n = u32::try_from(dim).ok().and_then(|d| 1usize.checked_shl(d));
            fits(n, n.and_then(|n| n.checked_mul(dim)))?;
            generators::hypercube(dim as u32)
        }
        "debruijn" => {
            let (b, k) = pair("de Bruijn parameters")?;
            let k = word_length(k)?;
            let n = b.checked_pow(k);
            fits(n, n.and_then(|n| n.checked_mul(b)))?;
            generators::de_bruijn(b, k)
        }
        "kautz" => {
            // Word length 0 is the complete graph on `b + 1` letters.
            let (b, k) = parse_pair(arg(0)?, "Kautz parameters")?;
            let (b, k) = (positive(b, "Kautz parameters")?, word_length(k)?);
            let n = b
                .checked_add(1)
                .and_then(|letters| b.checked_pow(k)?.checked_mul(letters));
            fits(n, n.and_then(|n| n.checked_mul(b)))?;
            generators::kautz(b, k)
        }
        "layered" => {
            let (g, s) = pair("layered-cycle parameters")?;
            let n = g.checked_mul(s);
            fits(n, n.and_then(|n| n.checked_mul(s)))?;
            generators::layered_cycle(g, s)
        }
        "random" => {
            let n = size("size")?;
            let extra = parse_num(arg(1)?, "extra edge count")?;
            let seed = parse_num(arg(2)?, "seed")? as u64;
            fits(Some(n), n.checked_add(extra))?;
            generators::random_strongly_connected(n, extra, seed)
        }
        "randbi" => {
            let n = size("size")?;
            let extra = parse_num(arg(1)?, "extra pair count")?;
            let seed = parse_num(arg(2)?, "seed")? as u64;
            fits(
                Some(n),
                extra.checked_add(n - 1).and_then(|p| p.checked_mul(2)),
            )?;
            let free = generators::extra_pair_room(n);
            if extra > free {
                return Err(err(format!(
                    "`{spec}` asks for {extra} extra pairs, but only {free} vertex pairs \
                     are left after the spanning tree"
                )));
            }
            generators::random_bidirectional_connected(n, extra, seed)
        }
        other => {
            return Err(err(format!(
                "unknown graph family `{other}` (try ring, biring, star, instar, path, \
                 complete, torus, hypercube, debruijn, kautz, layered, random, randbi)"
            )))
        }
    };
    Ok(graph)
}

/// A network a label names: a static graph closed with self-loops, or a
/// dynamic network.
pub type Net = Box<dyn DynamicGraph + Send + Sync>;

/// Parse a network label (see module docs for the grammar): a static
/// family as a [`StaticGraph`], or a dynamic one.
///
/// # Errors
///
/// Returns a [`SpecError`] describing the problem.
pub fn parse_net(label: &str) -> Result<Net, SpecError> {
    match parse_dynamic(label) {
        Some(net) => net,
        None => Ok(Box::new(StaticGraph::new(parse_graph(label)?))),
    }
}

/// The dynamic network `label` names, or `None` when its family is not
/// a dynamic one (it is then static or unknown, for [`parse_graph`]).
pub(crate) fn parse_dynamic(label: &str) -> Option<Result<Net, SpecError>> {
    let family = label.split(':').next().unwrap_or_default();
    matches!(family, "periodic" | "dyn" | "async" | "sparse" | "pair").then(|| dynamic_net(label))
}

/// Build a dynamic network.
///
/// # Errors
///
/// Returns a [`SpecError`] for a malformed label, a number that does not
/// parse, `N` outside `1..=MAX_AGENTS` (`2..=MAX_AGENTS` for a pairing),
/// more extra edges than `MAX_EDGES` allows, more extra symmetric pairs
/// than [`generators::extra_pair_room`] allows, and a zero `MAXDELAY` or
/// `BASEGAP`.
fn dynamic_net(label: &str) -> Result<Net, SpecError> {
    let bad = |why: &str| SpecError(format!("dynamic network `{label}`: {why}"));
    let num = |s: &str| -> Result<u64, SpecError> {
        s.parse()
            .map_err(|_| bad(&format!("`{s}` is not a number")))
    };
    let agents = |s: &str| -> Result<usize, SpecError> {
        match usize::try_from(num(s)?) {
            Ok(0) => Err(bad("it needs at least one agent")),
            Ok(n) if n <= MAX_AGENTS => Ok(n),
            _ => Err(bad(&format!("it has more than {MAX_AGENTS} agents"))),
        }
    };
    // A pairwise interaction needs two agents.
    let pairing_agents = |s: &str| -> Result<usize, SpecError> {
        match agents(s)? {
            1 => Err(bad("a pairing needs at least two agents")),
            n => Ok(n),
        }
    };
    let positive = |s: &str, what: &str| -> Result<u64, SpecError> {
        match num(s)? {
            0 => Err(bad(&format!("its {what} must be at least 1"))),
            k => Ok(k),
        }
    };
    let rand_net = |parts: &[&str]| -> Result<RandomDynamicGraph, SpecError> {
        let ["dyn", kind @ ("directed" | "symmetric"), n, extra, seed] = parts else {
            return Err(bad("expected dyn:directed|symmetric:N:EXTRA:SEED"));
        };
        let (n, seed) = (agents(n)?, num(seed)?);
        let extra = usize::try_from(num(extra)?).unwrap_or(usize::MAX);
        if *kind == "directed" {
            if extra > MAX_EDGES - n {
                return Err(bad(&format!("it has more than {MAX_EDGES} edges")));
            }
            return Ok(RandomDynamicGraph::directed(n, extra, seed));
        }
        let room = generators::extra_pair_room(n);
        if extra > room {
            return Err(bad(&format!(
                "{n} agents leave room for at most {room} extra pairs"
            )));
        }
        Ok(RandomDynamicGraph::symmetric(n, extra, seed))
    };
    let parts: Vec<&str> = label.split(':').collect();
    Ok(match parts.as_slice() {
        ["periodic", n] => {
            let n = agents(n)?;
            Box::new(PeriodicGraph::new(vec![
                generators::directed_ring(n),
                generators::star(n),
            ]))
        }
        ["dyn", ..] => Box::new(rand_net(&parts)?),
        ["async", delay, seed, rest @ ..] => Box::new(AsyncStarts::random(
            rand_net(rest)?,
            positive(delay, "MAXDELAY")?,
            num(seed)?,
        )),
        ["sparse", gap, horizon, rest @ ..] => Box::new(SparselyConnected::geometric(
            rand_net(rest)?,
            positive(gap, "BASEGAP")?,
            num(horizon)?,
        )),
        ["pair", "uniform", n, seed] => {
            let n = pairing_agents(n)?;
            Box::new(PairingScheduler::new(
                n,
                UniformRandom::new(n / 2),
                num(seed)?,
            ))
        }
        ["pair", "cover", n, seed] => Box::new(PairingScheduler::new(
            pairing_agents(n)?,
            RoundRobinCover,
            num(seed)?,
        )),
        _ => {
            return Err(bad(
                "expected periodic:N, dyn:directed|symmetric:N:EXTRA:SEED, \
                 async:MAXDELAY:SEED:<dyn>, sparse:BASEGAP:HORIZON:<dyn> or \
                 pair:uniform|cover:N:SEED",
            ))
        }
    })
}

/// Parse a comma-separated value list (`1,2,3`), optionally with `xK`
/// repetition (`5x3,7` = `5,5,5,7`), of at most [`MAX_AGENTS`] values.
///
/// # Errors
///
/// Returns a [`SpecError`] describing the problem.
pub fn parse_values(spec: &str) -> Result<Vec<u64>, SpecError> {
    let mut out = Vec::new();
    for item in spec.split(',') {
        if item.is_empty() {
            continue;
        }
        match item.split_once('x') {
            Some((v, k)) => {
                let v: u64 = v.parse().map_err(|_| err(format!("invalid value `{v}`")))?;
                let k: usize = k
                    .parse()
                    .map_err(|_| err(format!("invalid repeat count `{k}`")))?;
                if k > MAX_AGENTS - out.len() {
                    return Err(err(format!(
                        "repeat count {k} makes the value list longer than the limit of \
                         {MAX_AGENTS} agents"
                    )));
                }
                out.extend(std::iter::repeat_n(v, k));
            }
            None => out.push(
                item.parse()
                    .map_err(|_| err(format!("invalid value `{item}`")))?,
            ),
        }
    }
    if out.is_empty() {
        return Err(err("empty value list"));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Experiment specifications
// ---------------------------------------------------------------------

/// The sweep flags every harness-driven sweep understands; pass to
/// [`Args::reject_unknown`] (plus any experiment-specific extras).
pub const SWEEP_FLAGS: &[&str] = &[
    "topologies",
    "sizes",
    "seeds",
    "seed",
    "rounds",
    "eps",
    "engine",
    "workers",
    "ndjson",
    "json",
];

/// A declarative experiment: cartesian axes (topology × size × seed ×
/// algorithm × variant × fault plan) plus shared run parameters.
///
/// Axes left empty contribute a single neutral element, so the cell
/// enumeration is always the full cartesian product in a fixed order —
/// the order (and each cell's derived seed) depends only on the spec,
/// never on worker scheduling.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentSpec {
    name: String,
    topologies: Vec<String>,
    sizes: Vec<usize>,
    seeds: Vec<u64>,
    algorithms: Vec<String>,
    variants: Vec<String>,
    plans: Vec<FaultPlan>,
    rounds: u64,
    eps: f64,
    base_seed: u64,
    engine: String,
}

/// One enumerated cell of an [`ExperimentSpec`]: the resolved axis
/// values plus the derived per-cell seed.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSpec {
    /// Position in the spec's enumeration order.
    pub index: usize,
    /// Resolved topology label (`{n}` / `{seed}` substituted).
    pub topology: String,
    /// The size-axis value (0 when the spec has no size axis).
    pub n: usize,
    /// The seed-axis value.
    pub seed: u64,
    /// The algorithm-axis label.
    pub algorithm: String,
    /// The variant-axis label (experiment-specific sub-axis).
    pub variant: String,
    /// The fault plan of this cell as the axis holds it; its seed is
    /// replaced by `cell_seed` when the cell runs
    /// ([`CellCtx::fault_plan`](crate::CellCtx::fault_plan)).
    pub plan: FaultPlan,
    /// Deterministic per-cell seed: a pure function of the spec's base
    /// seed, this cell's seed-axis value, and the cell index.
    pub cell_seed: u64,
}

impl ExperimentSpec {
    /// A new spec with no axes, 1000 rounds, ε = 1e-6, base seed 42.
    pub fn new(name: impl Into<String>) -> ExperimentSpec {
        ExperimentSpec {
            name: name.into(),
            topologies: Vec::new(),
            sizes: Vec::new(),
            seeds: Vec::new(),
            algorithms: Vec::new(),
            variants: Vec::new(),
            plans: Vec::new(),
            rounds: 1000,
            eps: 1e-6,
            base_seed: 42,
            engine: "boxed".to_string(),
        }
    }

    /// Set the topology axis (label patterns; `{n}`, `{seed}`
    /// placeholders).
    pub fn topologies<I, S>(mut self, t: I) -> ExperimentSpec
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.topologies = t.into_iter().map(Into::into).collect();
        self
    }

    /// Set the size axis.
    pub fn sizes(mut self, s: impl IntoIterator<Item = usize>) -> ExperimentSpec {
        self.sizes = s.into_iter().collect();
        self
    }

    /// Set the seed axis.
    pub fn seeds(mut self, s: impl IntoIterator<Item = u64>) -> ExperimentSpec {
        self.seeds = s.into_iter().collect();
        self
    }

    /// Set the algorithm axis.
    pub fn algorithms<I, S>(mut self, a: I) -> ExperimentSpec
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.algorithms = a.into_iter().map(Into::into).collect();
        self
    }

    /// Set the variant axis (experiment-specific sub-axis, e.g. the
    /// centralized-help rows of the tables or an ε sweep).
    pub fn variants<I, S>(mut self, v: I) -> ExperimentSpec
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.variants = v.into_iter().map(Into::into).collect();
        self
    }

    /// Set the fault-plan axis. A plan's own seed is ignored: every
    /// cell reseeds it with the cell seed.
    pub fn plans(mut self, p: impl IntoIterator<Item = FaultPlan>) -> ExperimentSpec {
        self.plans = p.into_iter().collect();
        self
    }

    /// Set the round budget shared by all cells.
    pub fn rounds(mut self, r: u64) -> ExperimentSpec {
        self.rounds = r;
        self
    }

    /// Set the convergence tolerance shared by all cells.
    pub fn eps(mut self, e: f64) -> ExperimentSpec {
        self.eps = e;
        self
    }

    /// Set the base seed from which per-cell seeds derive.
    pub fn base_seed(mut self, s: u64) -> ExperimentSpec {
        self.base_seed = s;
        self
    }

    /// Select the execution engine: `boxed` (the generic executor),
    /// `flat` (the flat CSR executor for f64 algorithms on static
    /// graphs), or `both` (experiments that compare them side by side).
    /// Experiments that never consult the engine ignore it.
    ///
    /// # Panics
    ///
    /// Panics on any other label; use [`ExperimentSpec::with_args`] for
    /// fallible parsing of user input.
    pub fn engine(mut self, e: impl Into<String>) -> ExperimentSpec {
        let e = e.into();
        assert!(
            matches!(e.as_str(), "boxed" | "flat" | "both"),
            "engine must be `boxed`, `flat`, or `both`, got `{e}`"
        );
        self.engine = e;
        self
    }

    /// Override axes and parameters from parsed sweep flags:
    /// `--topologies`, `--sizes`, `--seeds`, `--seed` (base seed; also
    /// the seed axis unless `--seeds` is given), `--rounds`, `--eps`.
    ///
    /// This is the one place `kya sweep` and `kya trace` map flags onto
    /// a spec.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for malformed numbers.
    pub fn with_args(mut self, args: &Args) -> Result<ExperimentSpec, SpecError> {
        if let Some(t) = args.optional("topologies") {
            self.topologies = t
                .split(',')
                .filter(|s| !s.is_empty())
                .map(String::from)
                .collect();
        }
        self.sizes = args.usize_list_flag("sizes", &self.sizes)?;
        if let Some(s) = args.optional("seeds") {
            self.seeds = s
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|item| {
                    item.parse()
                        .map_err(|_| err(format!("--seeds entries must be numbers, got `{item}`")))
                })
                .collect::<Result<Vec<u64>, _>>()?;
        }
        if args.optional("seed").is_some() {
            let s = args.u64_flag("seed", self.base_seed)?;
            self.base_seed = s;
            if args.optional("seeds").is_none() {
                self.seeds = vec![s];
            }
        }
        self.rounds = args.u64_flag("rounds", self.rounds)?;
        self.eps = args.f64_flag("eps", self.eps)?;
        if let Some(e) = args.optional("engine") {
            if !matches!(e, "boxed" | "flat" | "both") {
                return Err(err(format!(
                    "--engine must be `boxed`, `flat`, or `both`, got `{e}`"
                )));
            }
            self.engine = e.to_string();
        }
        Ok(self)
    }

    /// The experiment name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared round budget.
    pub fn round_budget(&self) -> u64 {
        self.rounds
    }

    /// The shared convergence tolerance.
    pub fn tolerance(&self) -> f64 {
        self.eps
    }

    /// The base seed.
    pub fn seed(&self) -> u64 {
        self.base_seed
    }

    /// The selected execution engine (`boxed`, `flat`, or `both`).
    pub fn engine_label(&self) -> &str {
        &self.engine
    }

    /// The size axis as configured (may be empty).
    pub fn size_axis(&self) -> &[usize] {
        &self.sizes
    }

    /// The seed axis as configured (may be empty; defaults to the base
    /// seed during enumeration).
    pub fn seed_axis(&self) -> &[u64] {
        &self.seeds
    }

    /// The variant axis as configured (may be empty).
    pub fn variant_axis(&self) -> &[String] {
        &self.variants
    }

    /// The fault-plan axis as configured (may be empty; defaults to a
    /// quiescent plan during enumeration).
    pub fn plan_axis(&self) -> &[FaultPlan] {
        &self.plans
    }

    /// The distinct resolved topology labels, in first-appearance order
    /// (what a runner pre-warms the cache with).
    pub fn topology_labels(&self) -> Vec<String> {
        let mut labels = Vec::new();
        for (topology, _, _) in self.points() {
            if !labels.contains(&topology) {
                labels.push(topology);
            }
        }
        labels
    }

    /// Every (topology, size, seed) point of the three outer axes, in
    /// enumeration order, with its resolved topology label.
    fn points(&self) -> Vec<(String, usize, u64)> {
        let topologies = or_neutral(&self.topologies, String::new());
        let sizes = or_neutral(&self.sizes, 0);
        let seeds = or_neutral(&self.seeds, self.base_seed);
        let mut out = Vec::with_capacity(topologies.len() * sizes.len() * seeds.len());
        for pattern in &topologies {
            for &n in &sizes {
                let sized = pattern.replace("{n}", &n.to_string());
                for &seed in &seeds {
                    out.push((sized.replace("{seed}", &seed.to_string()), n, seed));
                }
            }
        }
        out
    }

    /// Enumerate every cell in the fixed axis order: topology (outer) ×
    /// size × seed × algorithm × variant × plan (inner).
    pub fn cells(&self) -> Vec<CellSpec> {
        let algorithms = or_neutral(&self.algorithms, String::new());
        let variants = or_neutral(&self.variants, String::new());
        let plans = or_neutral(&self.plans, FaultPlan::new(0));
        let points = self.points();
        let base = splitmix64(self.base_seed ^ 0x6b79_615f_6877_7373);

        let mut out =
            Vec::with_capacity(points.len() * algorithms.len() * variants.len() * plans.len());
        for (topology, n, seed) in points {
            let h = splitmix64(base.wrapping_add(seed));
            for algorithm in &algorithms {
                for variant in &variants {
                    for plan in &plans {
                        let index = out.len();
                        out.push(CellSpec {
                            index,
                            topology: topology.clone(),
                            n,
                            seed,
                            algorithm: algorithm.clone(),
                            variant: variant.clone(),
                            plan: plan.clone(),
                            cell_seed: splitmix64(h.wrapping_add(index as u64)),
                        });
                    }
                }
            }
        }
        out
    }
}

/// An axis as enumerated: the configured values, or the single
/// `neutral` element when the axis is empty.
fn or_neutral<T: Clone>(axis: &[T], neutral: T) -> Vec<T> {
    if axis.is_empty() {
        vec![neutral]
    } else {
        axis.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_specs_parse() {
        assert_eq!(parse_graph("ring:5").unwrap().n(), 5);
        assert_eq!(parse_graph("biring:4").unwrap().edge_count(), 8);
        assert_eq!(parse_graph("torus:2x3").unwrap().n(), 6);
        assert_eq!(parse_graph("hypercube:3").unwrap().n(), 8);
        assert_eq!(parse_graph("debruijn:2x2").unwrap().n(), 4);
        assert_eq!(parse_graph("kautz:2x1").unwrap().n(), 6);
        assert_eq!(parse_graph("random:7:3:42").unwrap().n(), 7);
        assert_eq!(parse_graph("randbi:7:2:1").unwrap().n(), 7);
        assert_eq!(parse_graph("star:5").unwrap().outdegree(0), 4);
        assert_eq!(parse_graph("layered:3x4").unwrap().n(), 12);
    }

    #[test]
    fn torus_single_size_factorizes_near_square() {
        // torus:12 = the 3x4 torus (same graph the old F6 hard-coded).
        let a = parse_graph("torus:12").unwrap();
        let b = parse_graph("torus:3x4").unwrap();
        assert_eq!(a.multiplicity_matrix(), b.multiplicity_matrix());
        assert_eq!(parse_graph("torus:9").unwrap().n(), 9); // 3x3
        assert_eq!(parse_graph("torus:5").unwrap().n(), 5); // 1x5 ring
    }

    #[test]
    fn graph_spec_errors() {
        assert!(parse_graph("nonsense:3").is_err());
        assert!(parse_graph("ring").is_err());
        assert!(parse_graph("torus:axb").is_err());
        assert!(parse_graph("random:5:1").is_err());
        assert!(parse_graph("ring:xyz").is_err());
    }

    #[test]
    fn oversized_specs_are_errors_not_aborts() {
        // 2^64 overflows, 2^40 agents cannot be allocated, 2^25 passes
        // the agent limit.
        for label in ["hypercube:64", "hypercube:40", "hypercube:25"] {
            let e = parse_graph(label).unwrap_err();
            assert!(e.0.contains("too large"), "{label}: {e}");
        }
        assert!(parse_values("5x99999999999").is_err());
        assert!(parse_values(&format!("5x{}", MAX_AGENTS + 1)).is_err());
        assert!(parse_values(&format!("1,5x{MAX_AGENTS}")).is_err());
        assert_eq!(parse_graph("hypercube:4").unwrap().n(), 16);
    }

    #[test]
    fn every_graph_family_is_capped() {
        // Past the agent limit (or past `usize`): each used to abort on
        // its allocation or panic on overflow.
        for label in [
            "ring:99999999999",
            "biring:99999999999",
            "star:99999999999",
            "instar:99999999999",
            "path:99999999999",
            "complete:99999999999",
            "torus:99999x99999",
            "torus:99999999999",
            "torus:18446744073709551615x2",
            "debruijn:2x64",
            "debruijn:2x25",
            "debruijn:1x4294967296",
            "kautz:3x40",
            "kautz:1x4294967295",
            "kautz:18446744073709551615x0",
            "kautz:18446744073709551615x1",
            "layered:99999x99999",
            "random:99999999999:1:1",
            "randbi:99999999999:1:1",
        ] {
            let e = parse_graph(label).unwrap_err();
            assert!(e.0.contains("too large"), "{label}: {e}");
        }
        // Under the agent limit but past the edge limit.
        for label in [
            "complete:100000",
            "layered:2x100000",
            "debruijn:100000x1",
            "random:4:99999999999:1",
            "randbi:4:99999999999:1",
        ] {
            let e = parse_graph(label).unwrap_err();
            assert!(e.0.contains("edges"), "{label}: {e}");
        }
        // More extra pairs than a 4-vertex graph has room for used to
        // spin forever.
        assert!(parse_graph("randbi:4:4:1").is_err());
        assert_eq!(parse_graph("randbi:4:3:1").unwrap().edge_count(), 12);
        // At the limits, and the zero parameters that are not sizes,
        // parse as before.
        assert_eq!(parse_graph("debruijn:2x10").unwrap().n(), 1024);
        assert_eq!(parse_graph("kautz:1x24").unwrap().n(), 2);
        assert_eq!(parse_graph("kautz:2x0").unwrap().n(), 3);
        assert_eq!(parse_graph("hypercube:0").unwrap().n(), 1);
        assert_eq!(parse_graph("random:3:0:0").unwrap().n(), 3);
    }

    #[test]
    fn zero_sizes_are_errors() {
        // No zero is clamped to a 1-agent graph or builds 0 agents.
        for label in [
            "ring:0",
            "biring:0",
            "star:0",
            "instar:0",
            "path:0",
            "complete:0",
            "torus:0",
            "torus:0x0",
            "torus:0x4",
            "torus:4x0",
            "debruijn:0x3",
            "debruijn:2x0",
            "kautz:0x2",
            "layered:0x0",
            "layered:0x3",
            "layered:3x0",
            "random:0:5:1",
            "randbi:0:2:1",
        ] {
            let e = parse_graph(label).unwrap_err();
            assert!(e.0.contains("is empty"), "{label}: {e}");
        }
        for label in [
            "ring:1",
            "star:1",
            "instar:1",
            "complete:1",
            "torus:1x1",
            "layered:1x1",
        ] {
            assert_eq!(parse_graph(label).unwrap().n(), 1, "{label}");
        }
    }

    #[test]
    fn net_labels_parse() {
        for label in [
            "ring:6",
            "instar:6",
            "periodic:1",
            "periodic:4",
            "dyn:directed:12:6:555",
            "dyn:directed:4:2:1",
            "dyn:symmetric:16:4:2718",
            "dyn:symmetric:4:3:1",
            "dyn:symmetric:2:0:1",
            "async:8:4:dyn:symmetric:16:4:9182",
            "sparse:2:1023:dyn:directed:10:4:48",
            "pair:uniform:12:7",
            "pair:uniform:4:1",
            "pair:cover:9:0",
            "pair:cover:6:2",
        ] {
            let net = parse_net(label).expect(label);
            let g = net.graph(1);
            assert!((0..net.n()).all(|v| g.has_self_loop(v)), "{label}");
        }
        for label in [
            "nosuch:3",
            "periodic:0",
            "periodic:16777217",
            "periodic:4:1",
            "instar:0",
            "dyn:4:1",
            "dyn:undirected:4:1:1",
            "pair:4:uniform:1",
            "pair:lottery:4:1",
            "dyn:directed:0:1:1",
            "dyn:directed:16777217:1:1",
            "dyn:directed:4:536870909:1",
            "dyn:symmetric:4:4:1",
            "async:0:1:dyn:directed:4:1:1",
            "sparse:0:9:dyn:directed:4:1:1",
            "pair:cover:0:1",
            "pair:cover:1:1",
            "pair:uniform:1:7",
            "",
        ] {
            assert!(parse_net(label).is_err(), "{label}");
        }
    }

    #[test]
    fn value_specs_parse() {
        assert_eq!(parse_values("1,2,3").unwrap(), vec![1, 2, 3]);
        assert_eq!(parse_values("5x3,7").unwrap(), vec![5, 5, 5, 7]);
        assert_eq!(parse_values("0x2").unwrap(), vec![0, 0]);
        assert!(parse_values("").is_err());
        assert!(parse_values("a,b").is_err());
        assert!(parse_values("1x").is_err());
    }

    #[test]
    fn cells_enumerate_the_cartesian_product() {
        let spec = ExperimentSpec::new("t")
            .topologies(["ring:{n}", "torus:{n}"])
            .sizes([4, 6])
            .algorithms(["a", "b"]);
        let cells = spec.cells();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].topology, "ring:4");
        assert_eq!(cells[0].algorithm, "a");
        assert_eq!(cells[1].algorithm, "b");
        assert_eq!(cells[2].topology, "ring:6");
        assert_eq!(cells[4].topology, "torus:4");
        // Indices are the enumeration order.
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        assert_eq!(
            spec.topology_labels(),
            vec!["ring:4", "ring:6", "torus:4", "torus:6"]
        );
    }

    #[test]
    fn cell_seeds_are_deterministic_and_distinct() {
        let spec = ExperimentSpec::new("t")
            .topologies(["ring:{n}"])
            .sizes([4, 6, 8])
            .base_seed(7);
        let a = spec.cells();
        let b = spec.cells();
        assert_eq!(a, b, "pure function of the spec");
        let seeds: Vec<u64> = a.iter().map(|c| c.cell_seed).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "distinct per cell");
        // A different base seed shifts every cell seed.
        let other = ExperimentSpec::new("t")
            .topologies(["ring:{n}"])
            .sizes([4, 6, 8])
            .base_seed(8);
        assert!(other
            .cells()
            .iter()
            .zip(&a)
            .all(|(x, y)| x.cell_seed != y.cell_seed));
    }

    #[test]
    fn seed_placeholder_resolves() {
        let spec = ExperimentSpec::new("t")
            .topologies(["random:{n}:8:{seed}"])
            .sizes([12])
            .seeds([99]);
        assert_eq!(spec.cells()[0].topology, "random:12:8:99");
    }

    #[test]
    fn with_args_overrides_axes() {
        let argv: Vec<String> = ["--sizes", "3,5", "--seed", "9", "--rounds", "77"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = Args::parse(&argv);
        let spec = ExperimentSpec::new("t")
            .topologies(["ring:{n}"])
            .sizes([4])
            .with_args(&args)
            .unwrap();
        assert_eq!(spec.size_axis(), &[3, 5]);
        assert_eq!(spec.seed(), 9);
        assert_eq!(spec.seed_axis(), &[9]);
        assert_eq!(spec.round_budget(), 77);
        let cells = spec.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].topology, "ring:3");
    }

    #[test]
    fn engine_axis_parses_and_rejects() {
        let spec = ExperimentSpec::new("t").topologies(["ring:{n}"]);
        assert_eq!(spec.engine_label(), "boxed");
        for engine in ["boxed", "flat", "both"] {
            let argv: Vec<String> = ["--engine", engine].iter().map(|s| s.to_string()).collect();
            let spec = ExperimentSpec::new("t")
                .topologies(["ring:{n}"])
                .with_args(&Args::parse(&argv))
                .unwrap();
            assert_eq!(spec.engine_label(), engine);
        }
        let argv: Vec<String> = ["--engine", "warp"].iter().map(|s| s.to_string()).collect();
        let err = ExperimentSpec::new("t")
            .topologies(["ring:{n}"])
            .with_args(&Args::parse(&argv));
        assert!(err.is_err());
    }
}
