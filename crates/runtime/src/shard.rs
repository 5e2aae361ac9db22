//! Sharding a round's per-agent work over threads: the one
//! inline-or-spawn policy shared by the boxed and the flat engine.
//!
//! Rounds are communication closed (§2.2): an agent's next state
//! depends only on its own state and inbox, so each shard's output is a
//! pure function of its agent range. Which thread works a shard cannot
//! change a bit; it only costs time. A thread spawn costs more than a
//! small shard's work, so small shards stay on the calling thread.

use std::ops::Range;

/// Smallest shard worth a thread of its own. If any shard of a phase is
/// shorter, the whole phase runs in range order on the calling thread:
/// a spawn costs more than this many agents' work.
pub const MIN_SPAWN_AGENTS: usize = 4096;

/// Split `0..n` into at most `threads` contiguous, gap-free ranges of
/// near-equal length — the sharding layout every parallel phase uses.
/// Shards concatenate back in range order, so no post-sort is needed.
pub(crate) fn shard_ranges(n: usize, threads: usize) -> Vec<Range<usize>> {
    let shards = threads.min(n).max(1);
    (0..shards)
        .map(|t| (t * n / shards)..((t + 1) * n / shards))
        .collect()
}

/// Run `work` once per shard and return the outputs in range order;
/// `shards[i]` is the input that owns `ranges[i]`.
///
/// If there is only one shard, or any range is shorter than
/// [`MIN_SPAWN_AGENTS`], every shard runs on the calling thread in range
/// order. Otherwise the caller works shard 0 and one scoped worker per
/// remaining shard works the rest. A worker's panic is re-raised on the
/// caller with its own payload, so a contract violation reads the same
/// either way.
pub(crate) fn run_shards<S, T, F>(ranges: &[Range<usize>], shards: Vec<S>, work: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(S) -> T + Sync,
{
    assert_eq!(ranges.len(), shards.len(), "one input per shard");
    if ranges.len() < 2 || ranges.iter().any(|r| r.len() < MIN_SPAWN_AGENTS) {
        return shards.into_iter().map(work).collect();
    }
    let work = &work;
    let mut shards = shards.into_iter();
    let first = shards.next().expect("at least one shard");
    crossbeam::scope(|scope| {
        let handles: Vec<_> = shards.map(|s| scope.spawn(move |_| work(s))).collect();
        let mut out = Vec::with_capacity(ranges.len());
        out.push(work(first));
        for h in handles {
            out.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        out
    })
    .expect("crossbeam scope")
}

/// [`run_shards`] over per-agent work: `f(v)` for every agent `v` of
/// every range, concatenated in agent order.
pub(crate) fn map_agents<T, F>(ranges: &[Range<usize>], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut parts =
        run_shards(ranges, ranges.to_vec(), |r| r.map(&f).collect::<Vec<T>>()).into_iter();
    let mut out = parts.next().unwrap_or_default();
    for part in parts {
        out.extend(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::{self, ThreadId};

    /// Each shard's range start and the thread that worked it.
    fn who_ran(ranges: &[Range<usize>]) -> Vec<(usize, ThreadId)> {
        run_shards(ranges, ranges.to_vec(), |r| {
            (r.start, thread::current().id())
        })
    }

    fn starts(ranges: &[Range<usize>]) -> Vec<usize> {
        ranges.iter().map(|r| r.start).collect()
    }

    #[test]
    fn small_shards_run_on_the_caller_in_range_order() {
        let caller = thread::current().id();
        // Three shards of 4095 or 4096 agents: one is short.
        let ranges = shard_ranges(3 * MIN_SPAWN_AGENTS - 1, 3);
        assert!(ranges.iter().any(|r| r.len() < MIN_SPAWN_AGENTS));
        let ran = who_ran(&ranges);
        assert_eq!(
            ran.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
            starts(&ranges)
        );
        assert!(ran.iter().all(|&(_, id)| id == caller));
        // One short shard keeps every shard inline.
        let ranges = [0..MIN_SPAWN_AGENTS, MIN_SPAWN_AGENTS..MIN_SPAWN_AGENTS + 1];
        assert!(who_ran(&ranges).iter().all(|&(_, id)| id == caller));
        // A lone shard never spawns, however long.
        let lone = shard_ranges(2 * MIN_SPAWN_AGENTS, 1);
        assert!(who_ran(&lone).iter().all(|&(_, id)| id == caller));
    }

    #[test]
    fn large_shards_spawn_all_but_the_first() {
        let caller = thread::current().id();
        let ranges = shard_ranges(3 * MIN_SPAWN_AGENTS, 3);
        let ran = who_ran(&ranges);
        assert_eq!(
            ran.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
            starts(&ranges)
        );
        assert_eq!(ran[0].1, caller, "the caller works shard 0");
        assert!(ran[1..].iter().all(|&(_, id)| id != caller));
    }

    #[test]
    fn map_agents_concatenates_in_agent_order() {
        for n in [5, 2 * MIN_SPAWN_AGENTS + 3] {
            let out = map_agents(&shard_ranges(n, 2), |v| v * 3);
            assert_eq!(out, (0..n).map(|v| v * 3).collect::<Vec<_>>());
        }
    }
}
