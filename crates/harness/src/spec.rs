//! Experiment specifications: axes, graph/value grammars, fault-plan
//! templates, and deterministic cell enumeration.
//!
//! Graph specs are `family:params`:
//!
//! | spec | graph |
//! |------|-------|
//! | `ring:N` | directed ring |
//! | `biring:N` | bidirectional ring |
//! | `star:N` | bidirectional star |
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
//! Every family is capped at [`MAX_AGENTS`] agents and [`MAX_EDGES`]
//! edges: a larger spec is a [`SpecError`], never an allocation abort.
//!
//! In an [`ExperimentSpec`] topology axis, specs are *patterns*: the
//! placeholders `{n}` and `{seed}` are substituted from the size and
//! seed axes, so `ring:{n}` crossed with sizes `[4, 8]` enumerates
//! `ring:4` and `ring:8`. Labels the grammar does not know (for dynamic
//! networks, say) pass through verbatim for the experiment's cell
//! function to interpret.

use crate::args::Args;
use kya_graph::{generators, Digraph};
use kya_runtime::churn::{ChurnPlan, ChurnWindow, ReinjectPolicy};
use kya_runtime::faults::{CrashWindow, FaultPlan};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

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
            // The spanning tree takes n - 1 of the n(n-1)/2 vertex pairs;
            // asking for more extra pairs than remain would never finish.
            let free = n * (n - 1) / 2 - (n - 1);
            if n > 1 && extra > free {
                return Err(err(format!(
                    "`{spec}` asks for {extra} extra pairs, but only {free} vertex pairs \
                     are left after the spanning tree"
                )));
            }
            generators::random_bidirectional_connected(n, extra, seed)
        }
        other => {
            return Err(err(format!(
                "unknown graph family `{other}` (try ring, biring, star, path, complete, \
                 torus, hypercube, debruijn, kautz, layered, random, randbi)"
            )))
        }
    };
    Ok(graph)
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

/// The same `splitmix64` finalizer the fault plans use: cell seeds are
/// pure functions of the spec, never of scheduling.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// Fault-plan templates
// ---------------------------------------------------------------------

/// A serializable [`FaultPlan`] template: everything but the seed, which
/// is supplied per cell (or pinned with [`PlanSpec::with_seed`]).
///
/// This is the fault-plan *axis* of an [`ExperimentSpec`]: the same
/// template crossed with many cells yields independent (but
/// deterministic and replayable) fault coins per cell.
///
/// Deserialization is total: it rejects what [`build`](PlanSpec::build)
/// would panic on — a drop rate outside `[0, 1)`, a duplication rate
/// outside `[0, 1]`, `horizon: 0`, a crash window starting at round 0
/// and an empty one — so every template it returns builds.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct PlanSpec {
    drop_p: f64,
    dup_p: f64,
    horizon: Option<u64>,
    crashes: Vec<CrashWindow>,
    seed: Option<u64>,
}

impl Default for PlanSpec {
    fn default() -> PlanSpec {
        PlanSpec::quiescent()
    }
}

impl PlanSpec {
    /// A template injecting no faults.
    pub fn quiescent() -> PlanSpec {
        PlanSpec {
            drop_p: 0.0,
            dup_p: 0.0,
            horizon: None,
            crashes: Vec::new(),
            seed: None,
        }
    }

    /// Drop each non-self-loop link i.i.d. with probability `p`.
    pub fn drop_links(mut self, p: f64) -> PlanSpec {
        self.drop_p = p;
        self
    }

    /// Deliver each surviving link twice with probability `p`.
    pub fn duplicate(mut self, p: f64) -> PlanSpec {
        self.dup_p = p;
        self
    }

    /// Probabilistic link faults cease after round `last`.
    pub fn until(mut self, last: u64) -> PlanSpec {
        self.horizon = Some(last);
        self
    }

    /// Crash `agent` for the rounds in `window` (crash-recover).
    pub fn crash(mut self, agent: usize, window: Range<u64>) -> PlanSpec {
        self.crashes.push(CrashWindow {
            agent,
            from: window.start,
            until: Some(window.end),
        });
        self
    }

    /// Crash `agent` at round `from`, permanently (crash-stop).
    pub fn crash_stop(mut self, agent: usize, from: u64) -> PlanSpec {
        self.crashes.push(CrashWindow {
            agent,
            from,
            until: None,
        });
        self
    }

    /// Pin the fault-coin seed instead of deriving it per cell (what the
    /// single-run `kya faults` adapter wants).
    pub fn with_seed(mut self, seed: u64) -> PlanSpec {
        self.seed = Some(seed);
        self
    }

    /// Whether the template injects no faults at all.
    pub fn is_quiescent(&self) -> bool {
        self.drop_p == 0.0 && self.dup_p == 0.0 && self.crashes.is_empty()
    }

    /// The per-round link-drop probability.
    pub fn drop_rate(&self) -> f64 {
        self.drop_p
    }

    /// The scripted crash windows.
    pub fn crashes(&self) -> &[CrashWindow] {
        &self.crashes
    }

    /// A short deterministic label for result records, e.g.
    /// `p0.3+c2` or `quiescent`.
    pub fn label(&self) -> String {
        if self.is_quiescent() {
            return "quiescent".to_string();
        }
        let mut parts = Vec::new();
        if self.drop_p > 0.0 {
            parts.push(format!("p{}", self.drop_p));
        }
        if self.dup_p > 0.0 {
            parts.push(format!("d{}", self.dup_p));
        }
        if !self.crashes.is_empty() {
            parts.push(format!("c{}", self.crashes.len()));
        }
        parts.join("+")
    }

    /// Instantiate the template as a concrete [`FaultPlan`], seeding the
    /// coins with the pinned seed if any, else `cell_seed`.
    pub fn build(&self, cell_seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::new(self.seed.unwrap_or(cell_seed));
        if self.drop_p > 0.0 {
            plan = plan.drop_links(self.drop_p);
        }
        if self.dup_p > 0.0 {
            plan = plan.duplicate(self.dup_p);
        }
        if let Some(h) = self.horizon {
            plan = plan.until(h);
        }
        for w in &self.crashes {
            plan = match w.until {
                Some(until) => plan.crash(w.agent, w.from..until),
                None => plan.crash_stop(w.agent, w.from),
            };
        }
        plan
    }
}

impl Deserialize for PlanSpec {
    fn from_value(v: &serde::Value) -> Result<PlanSpec, serde::Error> {
        let drop_p = f64::from_value(v.field("drop_p")?)?;
        if !(0.0..1.0).contains(&drop_p) {
            return Err(serde::Error::custom(format!(
                "drop rate {drop_p} is outside [0, 1)"
            )));
        }
        let dup_p = f64::from_value(v.field("dup_p")?)?;
        if !(0.0..=1.0).contains(&dup_p) {
            return Err(serde::Error::custom(format!(
                "duplication rate {dup_p} is outside [0, 1]"
            )));
        }
        let horizon = Option::<u64>::from_value(v.field("horizon")?)?;
        if horizon == Some(0) {
            return Err(serde::Error::custom(
                "fault horizon must be at least one round",
            ));
        }
        let crashes = Vec::<CrashWindow>::from_value(v.field("crashes")?)?;
        for w in &crashes {
            let item = window_label(w.agent, w.from, w.until);
            check_window(&item, w.from, w.until, "crash", ["FROM", "UNTIL"])
                .map_err(|e| serde::Error::custom(e.0))?;
        }
        Ok(PlanSpec {
            drop_p,
            dup_p,
            horizon,
            crashes,
            seed: Option::<u64>::from_value(v.field("seed")?)?,
        })
    }
}

/// Fold a crash spec into `plan`: comma-separated `AGENT:FROM:UNTIL`
/// (crash-recover for rounds `FROM..UNTIL`) and `AGENT:FROM:-`
/// (crash-stop from round `FROM`) windows over `n` agents — the grammar
/// of `kya faults --crash`. Total: a malformed item, an agent outside
/// `0..n`, round 0 or an empty window is a [`SpecError`].
pub fn parse_crashes(spec: &str, n: usize, mut plan: PlanSpec) -> Result<PlanSpec, SpecError> {
    for item in spec.split(',').filter(|s| !s.is_empty()) {
        let (agent, from, until) = parse_window(item, "crash", ["FROM", "UNTIL"])?;
        if agent >= n {
            return Err(err(format!(
                "crash agent {agent} out of range (the graph has {n} agents)"
            )));
        }
        plan = match until {
            Some(until) => plan.crash(agent, from..until),
            None => plan.crash_stop(agent, from),
        };
    }
    Ok(plan)
}

/// Parse one `AGENT:FROM:UNTIL` window of the crash and churn grammars
/// (`UNTIL` is `-` for a window that never ends) into
/// `(agent, from, until)`. `noun` and the two round names word the
/// errors. Total: a malformed field, round 0 or an empty window is a
/// [`SpecError`], so every window it returns builds a plan.
fn parse_window(
    item: &str,
    noun: &str,
    [from_name, until_name]: [&str; 2],
) -> Result<(usize, u64, Option<u64>), SpecError> {
    let parts: Vec<&str> = item.split(':').collect();
    let [agent, from, until] = parts[..] else {
        return Err(err(format!(
            "invalid {noun} window `{item}`: expected AGENT:{from_name}:{until_name} or AGENT:{from_name}:-"
        )));
    };
    let agent: usize = agent
        .parse()
        .map_err(|_| err(format!("invalid {noun} agent `{agent}`")))?;
    let from: u64 = from
        .parse()
        .map_err(|_| err(format!("invalid {noun} round `{from}`")))?;
    check_window(item, from, None, noun, [from_name, until_name])?;
    if until == "-" {
        return Ok((agent, from, None));
    }
    let until: u64 = until
        .parse()
        .map_err(|_| err(format!("invalid {noun} end round `{until}`")))?;
    check_window(item, from, Some(until), noun, [from_name, until_name])?;
    Ok((agent, from, Some(until)))
}

/// The `AGENT:FROM:UNTIL` text of a window, `-` for no end.
fn window_label(agent: usize, from: u64, until: Option<u64>) -> String {
    match until {
        Some(until) => format!("{agent}:{from}:{until}"),
        None => format!("{agent}:{from}:-"),
    }
}

/// Reject the window `item` if it starts at round 0 or is empty, the
/// two windows the crash and churn plans panic on; `noun` and the
/// round names word the error.
fn check_window(
    item: &str,
    from: u64,
    until: Option<u64>,
    noun: &str,
    [from_name, until_name]: [&str; 2],
) -> Result<(), SpecError> {
    if from == 0 {
        return Err(err(format!("{noun} rounds are numbered from 1")));
    }
    match until {
        Some(until) if until <= from => Err(err(format!(
            "{noun} window `{item}` is empty ({until_name} must exceed {from_name})"
        ))),
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------
// Churn-plan templates
// ---------------------------------------------------------------------

/// A serializable [`ChurnPlan`] template, mirroring [`PlanSpec`]:
/// everything but the seed, which is supplied per cell (or pinned with
/// [`ChurnSpec::with_seed`]).
///
/// Unlike the fault templates, churn templates ride the **variant axis**
/// of an [`ExperimentSpec`] as labels (the NDJSON schema is unchanged),
/// so the label grammar is round-trippable: [`ChurnSpec::label`] and
/// [`ChurnSpec::parse`] are inverses, and a cell function reconstructs
/// the template from its `variant` string.
///
/// Deserialization is total like [`ChurnSpec::parse`]: a window starting
/// at round 0 or an empty one is an error, so every template it returns
/// builds.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ChurnSpec {
    windows: Vec<ChurnWindow>,
    policy: ReinjectPolicy,
    seed: Option<u64>,
}

impl Default for ChurnSpec {
    fn default() -> ChurnSpec {
        ChurnSpec::stable()
    }
}

impl ChurnSpec {
    /// A template scripting no churn.
    pub fn stable() -> ChurnSpec {
        ChurnSpec {
            windows: Vec::new(),
            policy: ReinjectPolicy::Carry,
            seed: None,
        }
    }

    /// `agent` is absent for the rounds in `window` (leave + rejoin).
    pub fn leave(mut self, agent: usize, window: Range<u64>) -> ChurnSpec {
        self.windows.push(ChurnWindow {
            agent,
            leave: window.start,
            rejoin: Some(window.end),
        });
        self
    }

    /// `agent` leaves at round `from` and never comes back.
    pub fn depart(mut self, agent: usize, from: u64) -> ChurnSpec {
        self.windows.push(ChurnWindow {
            agent,
            leave: from,
            rejoin: None,
        });
        self
    }

    /// Rejoining agents get a fresh state ([`ReinjectPolicy::Reset`]).
    pub fn reset(mut self) -> ChurnSpec {
        self.policy = ReinjectPolicy::Reset;
        self
    }

    /// Rejoining agents resume from their parked state
    /// ([`ReinjectPolicy::Carry`], the default).
    pub fn carry(mut self) -> ChurnSpec {
        self.policy = ReinjectPolicy::Carry;
        self
    }

    /// Pin the plan seed instead of deriving it per cell.
    pub fn with_seed(mut self, seed: u64) -> ChurnSpec {
        self.seed = Some(seed);
        self
    }

    /// The scripted absence windows.
    pub fn windows(&self) -> &[ChurnWindow] {
        &self.windows
    }

    /// The mass re-injection policy.
    pub fn policy(&self) -> ReinjectPolicy {
        self.policy
    }

    /// A deterministic, parseable label: `stable`, or `c` followed by
    /// comma-joined `AGENT:LEAVE:REJOIN` windows (`-` for a permanent
    /// departure), with `+reset` appended under the reset policy — e.g.
    /// `c2:10:40,5:20:-+reset`. Inverse of [`ChurnSpec::parse`]; a
    /// pinned seed is not part of the label.
    pub fn label(&self) -> String {
        if self.windows.is_empty() {
            return "stable".to_string();
        }
        let windows: Vec<String> = self
            .windows
            .iter()
            .map(|w| window_label(w.agent, w.leave, w.rejoin))
            .collect();
        let suffix = match self.policy {
            ReinjectPolicy::Carry => "",
            ReinjectPolicy::Reset => "+reset",
        };
        format!("c{}{suffix}", windows.join(","))
    }

    /// Parse a [`ChurnSpec::label`] back into a template. Windows follow
    /// the grammar of [`parse_crashes`], so every template it returns
    /// [`build`](ChurnSpec::build)s.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] describing the malformed part, a window
    /// starting at round 0 or an empty window.
    pub fn parse(label: &str) -> Result<ChurnSpec, SpecError> {
        if label == "stable" {
            return Ok(ChurnSpec::stable());
        }
        let body = label.strip_prefix('c').ok_or_else(|| {
            err(format!(
                "churn label must be `stable` or start with `c`: `{label}`"
            ))
        })?;
        let (body, policy) = match body.strip_suffix("+reset") {
            Some(b) => (b, ReinjectPolicy::Reset),
            None => (body, ReinjectPolicy::Carry),
        };
        let mut spec = ChurnSpec::stable();
        spec.policy = policy;
        for part in body.split(',') {
            let (agent, leave, rejoin) = parse_window(part, "churn", ["LEAVE", "REJOIN"])?;
            spec.windows.push(ChurnWindow {
                agent,
                leave,
                rejoin,
            });
        }
        Ok(spec)
    }

    /// Instantiate the template as a concrete [`ChurnPlan`], using the
    /// pinned seed if any, else `cell_seed`.
    pub fn build(&self, cell_seed: u64) -> ChurnPlan {
        let mut plan = ChurnPlan::new(self.seed.unwrap_or(cell_seed)).policy(self.policy);
        for w in &self.windows {
            plan = match w.rejoin {
                Some(rejoin) => plan.leave(w.agent, w.leave..rejoin),
                None => plan.depart(w.agent, w.leave),
            };
        }
        plan
    }
}

impl Deserialize for ChurnSpec {
    fn from_value(v: &serde::Value) -> Result<ChurnSpec, serde::Error> {
        let windows = Vec::<ChurnWindow>::from_value(v.field("windows")?)?;
        for w in &windows {
            let item = window_label(w.agent, w.leave, w.rejoin);
            check_window(&item, w.leave, w.rejoin, "churn", ["LEAVE", "REJOIN"])
                .map_err(|e| serde::Error::custom(e.0))?;
        }
        Ok(ChurnSpec {
            windows,
            policy: ReinjectPolicy::from_value(v.field("policy")?)?,
            seed: Option::<u64>::from_value(v.field("seed")?)?,
        })
    }
}

// ---------------------------------------------------------------------
// Experiment specifications
// ---------------------------------------------------------------------

/// The sweep flags every harness-driven binary understands; pass to
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
    plans: Vec<PlanSpec>,
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
    /// The fault-plan template for this cell.
    pub plan: PlanSpec,
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

    /// Set the fault-plan axis.
    pub fn plans(mut self, p: impl IntoIterator<Item = PlanSpec>) -> ExperimentSpec {
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
    /// This is the one place the CLI and every bench binary map flags
    /// onto a spec.
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
        let plans = or_neutral(&self.plans, PlanSpec::quiescent());
        let points = self.points();
        let base = mix(self.base_seed ^ 0x6b79_615f_6877_7373);

        let mut out =
            Vec::with_capacity(points.len() * algorithms.len() * variants.len() * plans.len());
        for (topology, n, seed) in points {
            let h = mix(base.wrapping_add(seed));
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
                            cell_seed: mix(h.wrapping_add(index as u64)),
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
        for label in ["ring:1", "star:1", "complete:1", "torus:1x1", "layered:1x1"] {
            assert_eq!(parse_graph(label).unwrap().n(), 1, "{label}");
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

    #[test]
    fn plan_spec_builds_and_labels() {
        let p = PlanSpec::quiescent();
        assert_eq!(p.label(), "quiescent");
        assert!(p.build(5).is_quiescent());
        let p = PlanSpec::quiescent()
            .drop_links(0.3)
            .until(60)
            .crash(1, 10..30)
            .crash(2, 20..40);
        assert_eq!(p.label(), "p0.3+c2");
        let plan = p.build(5);
        assert_eq!(plan.seed(), 5);
        assert_eq!(plan.drop_rate(), 0.3);
        assert_eq!(plan.horizon(), Some(60));
        assert_eq!(plan.crashes().len(), 2);
        // A pinned seed wins over the cell seed.
        assert_eq!(p.with_seed(77).build(5).seed(), 77);
    }

    #[test]
    fn plan_spec_roundtrips_through_json() {
        let p = PlanSpec::quiescent()
            .drop_links(0.25)
            .duplicate(0.1)
            .until(50)
            .crash_stop(3, 12);
        let json = serde::to_json_string(&p);
        let back: PlanSpec = serde::from_json_str(&json).expect("parses");
        assert_eq!(back, p);
    }

    #[test]
    fn churn_spec_builds_labels_and_parses_back() {
        let s = ChurnSpec::stable();
        assert_eq!(s.label(), "stable");
        assert!(s.build(5).is_quiescent());
        assert_eq!(ChurnSpec::parse("stable").unwrap(), s);

        let s = ChurnSpec::stable().leave(2, 10..40).depart(5, 20).reset();
        assert_eq!(s.label(), "c2:10:40,5:20:-+reset");
        assert_eq!(
            ChurnSpec::parse(&s.label()).unwrap(),
            s,
            "label round-trips"
        );
        let plan = s.build(9);
        assert_eq!(plan.seed(), 9);
        assert_eq!(plan.windows().len(), 2);
        assert_eq!(plan.reinject_policy(), ReinjectPolicy::Reset);
        assert_eq!(s.with_seed(77).build(9).seed(), 77, "pinned seed wins");

        let carry = ChurnSpec::stable().leave(0, 1..3);
        assert_eq!(carry.label(), "c0:1:3");
        assert_eq!(ChurnSpec::parse("c0:1:3").unwrap(), carry);

        assert!(ChurnSpec::parse("nonsense").is_err());
        assert!(ChurnSpec::parse("c1:2").is_err());
        assert!(ChurnSpec::parse("c1:x:3").is_err());
        let err = ChurnSpec::parse("c1:0:5").unwrap_err();
        assert!(err.0.contains("numbered from 1"), "{err}");
        let err = ChurnSpec::parse("c1:15:5").unwrap_err();
        assert!(err.0.contains("is empty"), "{err}");
    }

    #[test]
    fn churn_spec_roundtrips_through_json() {
        let s = ChurnSpec::stable().leave(1, 5..9).depart(3, 30).reset();
        let json = serde::to_json_string(&s);
        let back: ChurnSpec = serde::from_json_str(&json).expect("parses");
        assert_eq!(back, s);
    }
}
