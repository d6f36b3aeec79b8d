//! Serving-tier statistics: monotonic counters, point-in-time gauges, and
//! latency quantiles — kept in **separate sections** so aggregation across
//! shards is well-defined (counters sum, gauges are reported per shard,
//! histograms merge).
//!
//! The pre-sharding `ServiceStats` mixed a point-in-time `queue_depth` gauge
//! into a struct of monotonic counters, which had no correct cross-shard
//! aggregation (summing gauges sampled at different instants reports a depth
//! no shard ever had — and hides which shard is backed up). The split types
//! here fix that asymmetry: [`ServiceCounters`] is strictly monotonic and
//! sums, [`QueueSnapshot`] is strictly instantaneous and stays per-shard.

use crate::answer_cache::AnswerCacheStats;
use crate::cache::RouterCacheStats;
use octant_telemetry::{LatencySummary, MetricsSnapshot};
use std::time::Duration;

/// Monotonic serving counters. Within a [`ShardStats`] these are one
/// shard's; in [`ServiceStats`] they are the sum over all shards.
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct ServiceCounters {
    /// Micro-batches solved.
    pub batches: u64,
    /// Targets solved and delivered as [`ServeOutcome::Served`].
    ///
    /// [`ServeOutcome::Served`]: crate::ServeOutcome::Served
    pub targets_served: u64,
    /// Largest micro-batch drained (a high-water mark: monotonic, but maxes
    /// rather than sums across shards).
    pub largest_batch: usize,
    /// Micro-batches whose solve panicked; their targets were answered with
    /// unknown estimates instead of hanging the request.
    pub failed_batches: u64,
    /// Targets shed at admission because the shard's bounded queue was full.
    pub shed_queue_full: u64,
    /// Targets shed at drain time because their deadline expired while they
    /// waited in the queue (they were never solved).
    pub deadline_expired: u64,
}

impl ServiceCounters {
    /// Total shed targets across every reason (queue-full + deadline).
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.deadline_expired
    }

    /// Folds another shard's counters into this aggregate: counters sum,
    /// the high-water mark maxes.
    pub fn absorb(&mut self, other: &ServiceCounters) {
        self.batches += other.batches;
        self.targets_served += other.targets_served;
        self.largest_batch = self.largest_batch.max(other.largest_batch);
        self.failed_batches += other.failed_batches;
        self.shed_queue_full += other.shed_queue_full;
        self.deadline_expired += other.deadline_expired;
    }
}

/// A point-in-time gauge of one shard's queue. Never summed across shards:
/// each snapshot is taken under that shard's queue lock, and depths sampled
/// at different instants do not add up to anything meaningful.
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct QueueSnapshot {
    /// The shard this gauge was sampled from.
    pub shard: usize,
    /// Targets waiting in the shard's queue at sampling time.
    pub depth: usize,
}

/// One data-plane shard's statistics: its own counters, its queue gauge,
/// and its latency quantiles.
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct ShardStats {
    /// The shard index.
    pub shard: usize,
    /// The shard's monotonic counters.
    pub counters: ServiceCounters,
    /// The shard's queue gauge.
    pub queue: QueueSnapshot,
    /// Quantiles of the shard's served-request latencies
    /// (enqueue → completion).
    pub latency: LatencySummary,
}

/// The aggregate statistics snapshot of a serving tier.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct ServiceStats {
    /// Current model epoch.
    pub epoch: u64,
    /// Counters summed over every shard (the high-water mark maxes).
    pub counters: ServiceCounters,
    /// Per-shard queue gauges (one entry per shard, in shard order).
    pub queues: Vec<QueueSnapshot>,
    /// Quantiles of the merged per-shard latency histograms.
    pub latency: LatencySummary,
    /// Router cache counters (one cache shared by every shard).
    pub cache: RouterCacheStats,
    /// Answer-memo counters (the per-target-prefix estimate cache in front
    /// of the pipeline).
    pub answers: AnswerCacheStats,
}

impl ServiceStats {
    /// Total queued targets across all shards. A convenience for tests and
    /// single-shard callers; remember each addend is a gauge sampled under
    /// its own shard's lock, not one instant's global depth.
    pub fn queue_depth_total(&self) -> usize {
        self.queues.iter().map(|q| q.depth).sum()
    }

    /// Fraction of finished targets that were shed rather than served
    /// (0 when nothing has finished).
    pub fn shed_rate(&self) -> f64 {
        let total = self.counters.targets_served + self.counters.shed();
        if total == 0 {
            0.0
        } else {
            self.counters.shed() as f64 / total as f64
        }
    }
}

/// One merged per-stage wall-time row of a [`StatsReport`]: how much serve
/// wall time the stage accumulated across every shard, with quantiles over
/// its per-observation samples.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct StageBreakdown {
    /// The stage name (`queue_wait`, `solve`, `source.latency`, …).
    pub name: &'static str,
    /// Number of observations folded in.
    pub count: u64,
    /// Total wall time across all observations.
    pub total: Duration,
    /// Quantiles of the per-observation wall times.
    pub latency: LatencySummary,
}

/// The full observability export of a serving tier: the aggregate
/// [`ServiceStats`], the merged per-stage breakdown, and a snapshot of the
/// process-wide metrics registry. Produced by
/// `ShardedService::stats_report`; render with [`StatsReport::to_json`] or
/// `Display`.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct StatsReport {
    /// Counters, queue gauges, latency quantiles, cache counters.
    pub stats: ServiceStats,
    /// Per-stage wall-time rows, merged over every shard, in first-observed
    /// order (`queue_wait` leads when present).
    pub stage_breakdown: Vec<StageBreakdown>,
    /// A point-in-time snapshot of
    /// [`octant_telemetry::MetricsRegistry::global`].
    pub registry: MetricsSnapshot,
}

impl StatsReport {
    /// Renders the report as a single JSON object (hand-rolled; the
    /// workspace is offline, so there is no serializer dependency).
    pub fn to_json(&self) -> String {
        let s = &self.stats;
        let mut out = String::from("{");
        out.push_str(&format!("\"epoch\": {}", s.epoch));
        out.push_str(&format!(
            ", \"counters\": {{\"batches\": {}, \"targets_served\": {}, \"largest_batch\": {}, \
             \"failed_batches\": {}, \"shed_queue_full\": {}, \"deadline_expired\": {}}}",
            s.counters.batches,
            s.counters.targets_served,
            s.counters.largest_batch,
            s.counters.failed_batches,
            s.counters.shed_queue_full,
            s.counters.deadline_expired,
        ));
        out.push_str(", \"queues\": [");
        for (i, q) in s.queues.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"shard\": {}, \"depth\": {}}}",
                q.shard, q.depth
            ));
        }
        out.push(']');
        out.push_str(&format!(
            ", \"latency\": {}",
            octant_telemetry::summary_json(&s.latency)
        ));
        out.push_str(&format!(
            ", \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"entries\": {}}}",
            s.cache.hits, s.cache.misses, s.cache.evictions, s.cache.entries,
        ));
        out.push_str(&format!(
            ", \"answer_cache\": {{\"hits\": {}, \"misses\": {}, \"insertions\": {}, \
             \"evictions\": {}, \"entries\": {}, \"hit_rate\": {:.6}}}",
            s.answers.hits,
            s.answers.misses,
            s.answers.insertions,
            s.answers.evictions,
            s.answers.entries,
            s.answers.hit_rate(),
        ));
        out.push_str(", \"stage_breakdown\": [");
        for (i, stage) in self.stage_breakdown.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"count\": {}, \"total_ms\": {:.3}, \"p50_ms\": {:.3}, \
                 \"p99_ms\": {:.3}}}",
                stage.name,
                stage.count,
                stage.total.as_secs_f64() * 1e3,
                stage.latency.p50.as_secs_f64() * 1e3,
                stage.latency.p99.as_secs_f64() * 1e3,
            ));
        }
        out.push(']');
        out.push_str(&format!(", \"registry\": {}", self.registry.to_json()));
        out.push('}');
        out
    }
}

impl std::fmt::Display for StatsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = &self.stats;
        writeln!(
            f,
            "epoch {}  batches {}  served {}  shed {}  p50 {:.2} ms  p99 {:.2} ms",
            s.epoch,
            s.counters.batches,
            s.counters.targets_served,
            s.counters.shed(),
            s.latency.p50.as_secs_f64() * 1e3,
            s.latency.p99.as_secs_f64() * 1e3,
        )?;
        writeln!(
            f,
            "cache: {} hits / {} misses ({:.0}% hit rate), {} resident",
            s.cache.hits,
            s.cache.misses,
            s.cache.hit_rate() * 100.0,
            s.cache.entries,
        )?;
        writeln!(
            f,
            "answers: {} hits / {} misses ({:.0}% hit rate), {} resident",
            s.answers.hits,
            s.answers.misses,
            s.answers.hit_rate() * 100.0,
            s.answers.entries,
        )?;
        let grand_total: Duration = self.stage_breakdown.iter().map(|b| b.total).sum();
        writeln!(
            f,
            "{:<18} {:>8} {:>12} {:>7} {:>10} {:>10}",
            "stage", "count", "total ms", "share", "p50 ms", "p99 ms"
        )?;
        for b in &self.stage_breakdown {
            let share = if grand_total.is_zero() {
                0.0
            } else {
                b.total.as_secs_f64() / grand_total.as_secs_f64() * 100.0
            };
            writeln!(
                f,
                "{:<18} {:>8} {:>12.3} {:>6.1}% {:>10.3} {:>10.3}",
                b.name,
                b.count,
                b.total.as_secs_f64() * 1e3,
                share,
                b.latency.p50.as_secs_f64() * 1e3,
                b.latency.p99.as_secs_f64() * 1e3,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_and_high_water_marks_max() {
        let a = ServiceCounters {
            batches: 3,
            targets_served: 10,
            largest_batch: 8,
            failed_batches: 1,
            shed_queue_full: 2,
            deadline_expired: 1,
        };
        let b = ServiceCounters {
            batches: 2,
            targets_served: 5,
            largest_batch: 12,
            failed_batches: 0,
            shed_queue_full: 0,
            deadline_expired: 4,
        };
        let mut agg = a;
        agg.absorb(&b);
        assert_eq!(agg.batches, 5);
        assert_eq!(agg.targets_served, 15);
        assert_eq!(agg.largest_batch, 12, "high-water mark maxes, not sums");
        assert_eq!(agg.failed_batches, 1);
        assert_eq!(agg.shed(), 7);
    }

    #[test]
    fn shed_rate_counts_both_reasons() {
        let stats = ServiceStats {
            counters: ServiceCounters {
                targets_served: 90,
                shed_queue_full: 6,
                deadline_expired: 4,
                ..ServiceCounters::default()
            },
            ..ServiceStats::default()
        };
        assert!((stats.shed_rate() - 0.1).abs() < 1e-12);
        assert_eq!(ServiceStats::default().shed_rate(), 0.0);
    }
}
