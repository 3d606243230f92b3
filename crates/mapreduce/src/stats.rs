//! Per-job statistics, the analogue of Hadoop's job counters page.

/// Everything the runtime measured while executing one job.
///
/// These are the quantities the paper reports per round (its Table I):
/// map output records, shuffle bytes and simulated runtime, plus the user
/// counters snapshot the driver uses for termination decisions.
#[derive(Debug, Clone, Default)]
pub struct JobStats {
    /// Job name as given to [`JobBuilder::new`](crate::JobBuilder::new).
    pub name: String,
    /// Records read from the input path(s).
    pub map_input_records: u64,
    /// Intermediate records emitted by mappers ("Map Out" in Table I).
    pub map_output_records: u64,
    /// Total bytes of intermediate records (before considering locality).
    pub map_output_bytes: u64,
    /// Intermediate bytes that crossed node boundaries ("Shuffle" in
    /// Table I; Hadoop's `REDUCE_SHUFFLE_BYTES`).
    pub shuffle_bytes: u64,
    /// Bytes written by map tasks into key-sorted spill runs (one run per
    /// reduce partition). Equals `map_output_bytes` — the runtime spills
    /// every intermediate record exactly once.
    pub spilled_bytes: u64,
    /// Non-empty spill runs produced across all map tasks (Hadoop's
    /// "spilled records" analogue at run granularity).
    pub spill_runs: u64,
    /// Largest merge fan-in any reduce task saw: the number of non-empty
    /// sorted runs (schimmy side input included) its k-way merge drew from.
    pub merge_fanin_max: u64,
    /// Records produced by reducers into the output path.
    pub reduce_output_records: u64,
    /// Bytes written to the DFS output (one replica).
    pub output_bytes: u64,
    /// Bytes read from the DFS input.
    pub input_bytes: u64,
    /// Bytes read from a schimmy side input, if configured.
    pub schimmy_bytes: u64,
    /// Number of map tasks executed.
    pub map_tasks: usize,
    /// Number of reduce tasks executed.
    pub reduce_tasks: usize,
    /// Task attempts that failed and were retried (see
    /// [`FailurePolicy`](crate::runtime::FailurePolicy)).
    pub failed_attempts: u64,
    /// Simulated job duration in seconds under the cluster cost model.
    pub sim_seconds: f64,
    /// Host wall-clock spent actually executing the job, in seconds.
    pub wall_seconds: f64,
    /// Snapshot of user counters at job end, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Flight-recorder events: one per task attempt (including failed
    /// retries) plus one for the shuffle
    /// barrier. Empty unless the global
    /// [`ffmr_obs::events::recorder`] is enabled when the job runs.
    pub task_events: Vec<ffmr_obs::TaskEvent>,
    /// Per-dispatch telemetry from the remote executor (distributed
    /// mode only): queue/transfer/compute timings with worker
    /// attribution, rebased onto this job's wall clock. Empty in local
    /// mode or when the flight recorder is disabled.
    pub dispatch_notes: Vec<ffmr_obs::DispatchNote>,
}

impl JobStats {
    /// Value of a user counter at job end (0 if absent).
    ///
    /// # Example
    /// ```
    /// let stats = mapreduce::JobStats::default();
    /// assert_eq!(stats.counter("source move"), 0);
    /// ```
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// Aggregate over a chain of jobs (a multi-round MR program).
#[derive(Debug, Clone, Default)]
pub struct ChainStats {
    /// Stats of each round in execution order.
    pub rounds: Vec<JobStats>,
}

impl ChainStats {
    /// Creates an empty chain.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one round.
    pub fn push(&mut self, stats: JobStats) {
        self.rounds.push(stats);
    }

    /// Total simulated seconds across rounds.
    #[must_use]
    pub fn total_sim_seconds(&self) -> f64 {
        self.rounds.iter().map(|r| r.sim_seconds).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_lookup() {
        let stats = JobStats {
            counters: vec![("a".into(), 3), ("b".into(), 5)],
            ..JobStats::default()
        };
        assert_eq!(stats.counter("a"), 3);
        assert_eq!(stats.counter("b"), 5);
        assert_eq!(stats.counter("c"), 0);
    }

    #[test]
    fn chain_aggregates() {
        let mut chain = ChainStats::new();
        chain.push(JobStats {
            sim_seconds: 1.5,
            shuffle_bytes: 100,
            map_output_records: 7,
            ..JobStats::default()
        });
        chain.push(JobStats {
            sim_seconds: 2.5,
            shuffle_bytes: 300,
            map_output_records: 13,
            ..JobStats::default()
        });
        assert!((chain.total_sim_seconds() - 4.0).abs() < 1e-12);
    }
}
