//! The metrics registry: counters, gauges and sim-time histograms with a
//! commutative, associative merge.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A mergeable histogram over simulated-time values (nanoseconds), bucketed
/// by powers of two. Bucket `b` holds observations whose value `v` satisfies
/// `2^(b-1) < v <= 2^b` (bucket 0 holds `v == 0`), so the bucket index of an
/// observation is a pure function of the value — merging histograms built on
/// different shards can never disagree about boundaries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimTimeHistogram {
    /// Observation count per power-of-two bucket index.
    pub buckets: BTreeMap<u32, u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values in nanoseconds.
    pub sum_ns: u64,
}

impl SimTimeHistogram {
    /// The bucket index of a value: `0` for zero, else `ceil(log2(v))`.
    fn bucket_of(ns: u64) -> u32 {
        if ns <= 1 {
            ns as u32
        } else {
            64 - (ns - 1).leading_zeros()
        }
    }

    /// The inclusive upper bound of a bucket.
    fn bucket_bound(bucket: u32) -> u64 {
        if bucket >= 64 {
            u64::MAX
        } else {
            1u64 << bucket
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, ns: u64) {
        *self.buckets.entry(Self::bucket_of(ns)).or_insert(0) += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Adds another histogram's buckets into this one. Pure addition per
    /// bucket, so the merge is commutative and associative.
    pub fn merge(&mut self, other: &SimTimeHistogram) {
        for (&bucket, &n) in &other.buckets {
            *self.buckets.entry(bucket).or_insert(0) += n;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// The upper bound (in nanoseconds) of the bucket containing quantile
    /// `q` (0.0..=1.0), or 0 when the histogram is empty. A conservative
    /// quantile: the true value is at most this bound.
    pub(crate) fn quantile_bound_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (&bucket, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Self::bucket_bound(bucket);
            }
        }
        Self::bucket_bound(*self.buckets.keys().next_back().expect("non-empty histogram"))
    }
}

/// A deterministic, shard-mergeable registry of named metrics. See the
/// [crate docs](crate) for the merge laws and the naming convention.
///
/// The snapshot doubles as the recording registry: code records straight
/// into a `MetricsSnapshot` (or into a per-shard one that is merged later).
/// All maps are `BTreeMap`s, so iteration — and therefore [`render`] and
/// [`to_json`] — is in sorted name order, independent of insertion order.
///
/// [`render`]: MetricsSnapshot::render
/// [`to_json`]: MetricsSnapshot::to_json
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, SimTimeHistogram>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        MetricsSnapshot::default()
    }

    /// Adds `by` to the counter `name`, creating it at zero first. Counters
    /// merge by addition. Recording `incr(name, 0)` registers the name so it
    /// appears (as 0) in rendered output — exporters use this to keep the
    /// key set stable whether or not an event fired.
    pub fn incr(&mut self, name: &str, by: u64) {
        let slot = match self.counters.get_mut(name) {
            Some(slot) => slot,
            None => self.counters.entry(name.to_string()).or_insert(0),
        };
        *slot += by;
    }

    /// Raises the gauge `name` to `value` if it is below it (creating it at
    /// `value`). Gauges merge by maximum — the only order-independent
    /// reduction for sampled levels like queue occupancy, so a merged gauge
    /// reads "the highest level any shard observed".
    pub fn gauge_max(&mut self, name: &str, value: u64) {
        let slot = match self.gauges.get_mut(name) {
            Some(slot) => slot,
            None => self.gauges.entry(name.to_string()).or_insert(0),
        };
        *slot = (*slot).max(value);
    }

    /// Records one observation into the sim-time histogram `name`.
    pub fn observe_ns(&mut self, name: &str, ns: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(ns),
            None => self.histograms.entry(name.to_string()).or_default().observe(ns),
        }
    }

    /// The value of a counter (0 when never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The value of a gauge (0 when never recorded).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The histogram under `name`, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&SimTimeHistogram> {
        self.histograms.get(name)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merges another snapshot into this one: counters add, gauges take the
    /// maximum, histograms add per bucket. Commutative and associative (the
    /// campaign `Tally` laws, property-tested in `tests/telemetry_props.rs`),
    /// so per-shard snapshots reduce to the same bytes in any order.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, &v) in &other.counters {
            self.incr(name, v);
        }
        for (name, &v) in &other.gauges {
            self.gauge_max(name, v);
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => self.histograms.entry(name.clone()).or_default().merge(h),
            }
        }
    }

    /// Renders the snapshot as stable text: a header, then one line per
    /// metric in sorted name order (`  name value`), sectioned by kind.
    /// Byte-identical for equal snapshots, so it can be golden-locked.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "metrics snapshot: {} counters, {} gauges, {} histograms",
            self.counters.len(),
            self.gauges.len(),
            self.histograms.len()
        );
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name} {v}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name} {v}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name} count={} sum_ns={} p50<={} p99<={}",
                    h.count,
                    h.sum_ns,
                    h.quantile_bound_ns(0.5),
                    h.quantile_bound_ns(0.99)
                );
            }
        }
        out
    }

    /// Renders the snapshot as a JSON document. Hand-rolled because there is
    /// no JSON serialiser in the dependency tree; metric names follow the
    /// dotted `snake_case` convention, so escaping is limited to the standard
    /// string characters.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out
        }
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {v}", esc(name));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {v}", esc(name));
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\"count\": {}, \"sum_ns\": {}, \"buckets\": {{",
                esc(name),
                h.count,
                h.sum_ns
            );
            for (j, (bucket, n)) in h.buckets.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}\"{bucket}\": {n}");
            }
            out.push_str("}}");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_register_at_zero() {
        let mut m = MetricsSnapshot::new();
        m.incr("dns.resolver.bogus_dropped", 0);
        m.incr("dns.cache.hits", 2);
        m.incr("dns.cache.hits", 3);
        assert_eq!(m.counter("dns.cache.hits"), 5);
        assert_eq!(m.counter("dns.resolver.bogus_dropped"), 0);
        assert!(m.render().contains("dns.resolver.bogus_dropped 0"), "zero counters stay visible");
    }

    #[test]
    fn gauges_take_the_maximum() {
        let mut a = MetricsSnapshot::new();
        a.gauge_max("engine.events.pending", 10);
        a.gauge_max("engine.events.pending", 4);
        let mut b = MetricsSnapshot::new();
        b.gauge_max("engine.events.pending", 7);
        a.merge(&b);
        assert_eq!(a.gauge("engine.events.pending"), 10);
    }

    #[test]
    fn histogram_buckets_are_value_pure() {
        assert_eq!(SimTimeHistogram::bucket_of(0), 0);
        assert_eq!(SimTimeHistogram::bucket_of(1), 1);
        assert_eq!(SimTimeHistogram::bucket_of(2), 1);
        assert_eq!(SimTimeHistogram::bucket_of(3), 2);
        assert_eq!(SimTimeHistogram::bucket_of(4), 2);
        assert_eq!(SimTimeHistogram::bucket_of(5), 3);
        assert_eq!(SimTimeHistogram::bucket_of(1 << 20), 20);
        assert_eq!(SimTimeHistogram::bucket_of((1 << 20) + 1), 21);
        assert_eq!(SimTimeHistogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_quantiles_bound_the_observations() {
        let mut h = SimTimeHistogram::default();
        for ns in [100u64, 200, 300, 400, 1_000_000] {
            h.observe(ns);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum_ns, 1_001_000);
        assert!(h.quantile_bound_ns(0.5) >= 300);
        assert!(h.quantile_bound_ns(1.0) >= 1_000_000);
        assert_eq!(SimTimeHistogram::default().quantile_bound_ns(0.5), 0);
    }

    #[test]
    fn merge_is_commutative_on_mixed_kinds() {
        let mut a = MetricsSnapshot::new();
        a.incr("x.y.count", 2);
        a.observe_ns("x.y.latency_ns", 512);
        a.gauge_max("x.y.depth", 3);
        let mut b = MetricsSnapshot::new();
        b.incr("x.y.count", 5);
        b.incr("x.z.count", 1);
        b.observe_ns("x.y.latency_ns", 2048);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.render(), ba.render());
        assert_eq!(ab.to_json(), ba.to_json());
    }

    #[test]
    fn render_sections_only_what_exists() {
        let mut m = MetricsSnapshot::new();
        assert_eq!(m.render(), "metrics snapshot: 0 counters, 0 gauges, 0 histograms\n");
        m.incr("a.b.c", 1);
        let text = m.render();
        assert!(text.contains("counters:\n  a.b.c 1\n"));
        assert!(!text.contains("gauges:"));
        assert!(!text.contains("histograms:"));
    }

    #[test]
    fn json_is_balanced_and_escaped() {
        let mut m = MetricsSnapshot::new();
        m.incr("a.b", 1);
        m.gauge_max("g", 2);
        m.observe_ns("h", 7);
        let json = m.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"a.b\": 1"));
        assert!(json.contains("\"sum_ns\": 7"));
        let empty = MetricsSnapshot::new().to_json();
        assert_eq!(empty.matches('{').count(), empty.matches('}').count());
    }
}
