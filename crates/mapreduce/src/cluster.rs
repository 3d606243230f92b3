//! The cluster cost model.
//!
//! The runtime really executes jobs on host threads; wall-clock time on the
//! host says nothing about a 21-machine Hadoop cluster, so every job is also
//! priced against a [`ClusterConfig`] describing the simulated cluster. The
//! model charges exactly the cost drivers the paper measures (Sec. V-A3):
//! DFS reads/writes, cross-node shuffle bytes, per-record CPU and a fixed
//! per-round scheduling overhead.

/// Describes the simulated cluster a job runs on.
///
/// Defaults mirror the paper's testbed: 20 slave nodes with 15 map and 15
/// reduce slots each, 1 GbE, commodity SATA disks (Sec. V).
///
/// # Example
/// ```
/// let five = mapreduce::ClusterConfig::paper_cluster(5);
/// let twenty = mapreduce::ClusterConfig::paper_cluster(20);
/// assert!(twenty.total_map_slots() > five.total_map_slots());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of slave nodes.
    pub nodes: usize,
    /// Concurrent map tasks per node.
    pub map_slots_per_node: usize,
    /// Concurrent reduce tasks per node.
    pub reduce_slots_per_node: usize,
    /// Sequential disk bandwidth per node, MB/s (shared across slots).
    pub disk_mb_per_s: f64,
    /// Network bandwidth per node, MB/s (1 GbE ≈ 110 MB/s effective).
    pub net_mb_per_s: f64,
    /// CPU cost per record processed by a map or reduce function, µs.
    pub cpu_us_per_record: f64,
    /// CPU surcharge per short-lived object allocation, µs. Models the
    /// JVM GC pressure that the paper's FF4 optimization removes.
    pub cpu_us_per_alloc: f64,
    /// Fixed per-job overhead in seconds: task scheduling, JVM reuse,
    /// job setup/teardown. The paper observes ~10–15 min floor per round
    /// on large graphs at 5 nodes; the per-node share is this value scaled
    /// by occupancy.
    pub round_overhead_s: f64,
    /// DFS replication factor (paper uses 2).
    pub dfs_replication: u32,
    /// DFS block size in MB (paper varies it with graph size).
    pub dfs_block_mb: f64,
    /// Multiplier on shuffle bytes for the sort/merge disk passes.
    pub sort_factor: f64,
}

impl ClusterConfig {
    /// The paper's testbed scaled to `nodes` slave nodes: 15 map + 15
    /// reduce slots per node, 1 GbE, 3 SATA disks per node.
    #[must_use]
    pub fn paper_cluster(nodes: usize) -> Self {
        Self {
            nodes: nodes.max(1),
            map_slots_per_node: 15,
            reduce_slots_per_node: 15,
            disk_mb_per_s: 3.0 * 90.0, // 3 disks @ ~90 MB/s sequential
            net_mb_per_s: 110.0,
            // Small relative to per-record I/O: the paper stresses that
            // fetching and shuffling dwarf the MAP/REDUCE computation.
            cpu_us_per_record: 0.2,
            cpu_us_per_alloc: 0.01,
            round_overhead_s: 35.0,
            dfs_replication: 2,
            dfs_block_mb: 64.0,
            // Hadoop's shuffle costs several disk passes per byte:
            // map-side sort spills and merges plus the reduce-side merge.
            sort_factor: 3.0,
        }
    }

    /// The paper's testbed with every data-dependent cost inflated by
    /// `slowdown`: bandwidths divided and per-record/allocation CPU
    /// multiplied, while the fixed round overhead stays put.
    ///
    /// This is how scaled-down reproductions keep the paper's *ratio* of
    /// data time to scheduling overhead: a workload 50 000x smaller in
    /// bytes run against a model 50 000x slower per byte costs each round
    /// what the full workload cost the real cluster.
    #[must_use]
    pub fn scaled_paper_cluster(nodes: usize, slowdown: f64) -> Self {
        let slowdown = slowdown.max(1.0);
        let base = Self::paper_cluster(nodes);
        Self {
            disk_mb_per_s: base.disk_mb_per_s / slowdown,
            net_mb_per_s: base.net_mb_per_s / slowdown,
            cpu_us_per_record: base.cpu_us_per_record * slowdown,
            cpu_us_per_alloc: base.cpu_us_per_alloc * slowdown,
            // Shrink blocks with the data so map-task counts (and thus
            // scheduling spread) stay realistic at the reduced scale.
            dfs_block_mb: (base.dfs_block_mb / slowdown).max(1e-4),
            ..base
        }
    }

    /// A small test cluster with low fixed overheads, convenient for unit
    /// tests and doc examples.
    #[must_use]
    pub fn small_cluster(nodes: usize) -> Self {
        Self {
            nodes: nodes.max(1),
            map_slots_per_node: 2,
            reduce_slots_per_node: 2,
            disk_mb_per_s: 200.0,
            net_mb_per_s: 100.0,
            cpu_us_per_record: 1.0,
            cpu_us_per_alloc: 0.05,
            round_overhead_s: 1.0,
            dfs_replication: 2,
            dfs_block_mb: 1.0,
            sort_factor: 1.0,
        }
    }

    /// Total map slots across the cluster.
    #[must_use]
    pub fn total_map_slots(&self) -> usize {
        self.nodes * self.map_slots_per_node
    }

    /// Total reduce slots across the cluster.
    #[must_use]
    pub fn total_reduce_slots(&self) -> usize {
        self.nodes * self.reduce_slots_per_node
    }

    /// The node a map task with this index is scheduled on (round-robin,
    /// matching Hadoop's roughly uniform task spread).
    #[must_use]
    pub fn map_node(&self, task: usize) -> usize {
        task % self.nodes
    }

    /// The node a reduce partition is scheduled on.
    #[must_use]
    pub fn reduce_node(&self, partition: usize) -> usize {
        partition % self.nodes
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self::paper_cluster(20)
    }
}

/// Accumulates the cost of one phase (map or reduce) task by task, then
/// converts to simulated seconds using a wave/makespan model.
#[derive(Debug, Default, Clone)]
pub struct PhaseCost {
    task_seconds: Vec<f64>,
}

impl PhaseCost {
    /// Creates an empty phase.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one task's cost in simulated seconds.
    pub fn push_task(&mut self, seconds: f64) {
        self.task_seconds.push(seconds);
    }

    /// Phase makespan given `slots` parallel executors: the classic
    /// `max(longest task, total work / slots)` lower bound, which is within
    /// 2x of optimal for list scheduling and deterministic.
    #[must_use]
    pub fn makespan(&self, slots: usize) -> f64 {
        let slots = slots.max(1) as f64;
        let total: f64 = self.task_seconds.iter().sum();
        let longest = self.task_seconds.iter().cloned().fold(0.0, f64::max);
        longest.max(total / slots)
    }
}

/// Cost of one task, assembled from the model's primitive charges.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskCost {
    /// Bytes read from local/remote DFS.
    pub read_bytes: u64,
    /// Bytes written to local disk (spills, outputs before replication).
    pub write_bytes: u64,
    /// Records processed by the user function.
    pub records: u64,
    /// Short-lived allocations attributed to the user function.
    pub allocs: u64,
}

impl TaskCost {
    /// Converts the primitive charges to simulated seconds under `cfg`.
    #[must_use]
    pub fn seconds(&self, cfg: &ClusterConfig) -> f64 {
        let mb = 1024.0 * 1024.0;
        let io = (self.read_bytes + self.write_bytes) as f64 / mb / cfg.disk_mb_per_s;
        let cpu = (self.records as f64 * cfg.cpu_us_per_record
            + self.allocs as f64 * cfg.cpu_us_per_alloc)
            / 1.0e6;
        io + cpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_is_total_over_slots_when_balanced() {
        let mut p = PhaseCost::new();
        for _ in 0..10 {
            p.push_task(1.0);
        }
        assert!((p.makespan(5) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn makespan_is_longest_task_when_skewed() {
        let mut p = PhaseCost::new();
        p.push_task(10.0);
        for _ in 0..9 {
            p.push_task(0.1);
        }
        assert!((p.makespan(100) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn makespan_of_empty_phase_is_zero() {
        assert_eq!(PhaseCost::new().makespan(4), 0.0);
    }

    #[test]
    fn zero_slots_does_not_divide_by_zero() {
        let mut p = PhaseCost::new();
        p.push_task(1.0);
        assert!(p.makespan(0).is_finite());
    }

    #[test]
    fn task_cost_charges_io_and_cpu() {
        let cfg = ClusterConfig::small_cluster(1);
        let t = TaskCost {
            read_bytes: 200 * 1024 * 1024,
            write_bytes: 0,
            records: 1_000_000,
            allocs: 0,
        };
        // 200 MB at 200 MB/s = 1s, plus 1M records at 1 µs = 1s.
        assert!((t.seconds(&cfg) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn more_nodes_means_more_slots() {
        assert_eq!(ClusterConfig::paper_cluster(20).total_map_slots(), 300);
        assert_eq!(ClusterConfig::paper_cluster(5).total_reduce_slots(), 75);
    }

    #[test]
    fn nodes_clamped_to_one() {
        assert_eq!(ClusterConfig::paper_cluster(0).nodes, 1);
    }
}
