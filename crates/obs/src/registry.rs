//! Named metric families with label sets, and the process-global
//! registry the serving layer scrapes.
//!
//! A *family* is one metric name (`swsimd_query_latency_seconds`)
//! holding one series per label set (`scenario="scenario1"`). Families
//! are created on first use and live until their owner retires them
//! ([`Registry::remove_labelled`]); handles returned to callers are
//! `Arc`s, so the hot path records straight into atomics without
//! touching the registry lock again.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::expo;
use crate::hist::Histogram;

/// Monotonically increasing counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Instantaneous signed value (queue depths, in-flight counts).
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Add 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Subtract 1.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Relaxed);
    }

    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Relaxed)
    }
}

/// Sorted label pairs identifying one series within a family.
pub type LabelSet = Vec<(String, String)>;

pub(crate) enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

pub(crate) struct Family {
    pub(crate) help: &'static str,
    /// Multiplier applied when exposing histogram values (e.g. `1e-9`
    /// turns recorded nanoseconds into Prometheus seconds).
    pub(crate) scale: f64,
    pub(crate) series: BTreeMap<LabelSet, Metric>,
}

fn normalize(labels: &[(&str, &str)]) -> LabelSet {
    let mut set: LabelSet = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    set.sort();
    set
}

/// A collection of metric families. Most callers use [`global`]; the
/// server owns a private registry so tests do not share state.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl Registry {
    /// Create an empty registry.
    pub const fn new() -> Registry {
        Registry {
            families: Mutex::new(BTreeMap::new()),
        }
    }

    fn families(&self) -> MutexGuard<'_, BTreeMap<String, Family>> {
        self.families.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn get_or_create<T>(
        &self,
        name: &str,
        help: &'static str,
        scale: f64,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
        read: impl FnOnce(&Metric) -> Option<Arc<T>>,
    ) -> Arc<T> {
        let mut families = self.families();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help,
            scale,
            series: BTreeMap::new(),
        });
        let metric = family.series.entry(normalize(labels)).or_insert_with(make);
        read(metric)
            .unwrap_or_else(|| panic!("metric {name} already registered with a different type"))
    }

    /// Counter series for `name` + `labels` (created on first use).
    pub fn counter(&self, name: &str, help: &'static str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.get_or_create(
            name,
            help,
            1.0,
            labels,
            || Metric::Counter(Arc::new(Counter::default())),
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Gauge series for `name` + `labels` (created on first use).
    pub fn gauge(&self, name: &str, help: &'static str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.get_or_create(
            name,
            help,
            1.0,
            labels,
            || Metric::Gauge(Arc::new(Gauge::default())),
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// Histogram series for `name` + `labels` (created on first use).
    pub fn histogram(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        self.histogram_scaled(name, help, 1.0, labels)
    }

    /// Histogram whose exposed values are multiplied by `scale`
    /// (record nanoseconds, expose seconds with `scale = 1e-9`).
    pub fn histogram_scaled(
        &self,
        name: &str,
        help: &'static str,
        scale: f64,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        self.get_or_create(
            name,
            help,
            scale,
            labels,
            || Metric::Histogram(Arc::new(Histogram::new())),
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Drop every series carrying the label `key="value"` (e.g. one
    /// retired server's `instance`), and any family left without
    /// series. Outstanding handles keep working but are no longer
    /// exported. Returns how many series were removed.
    pub fn remove_labelled(&self, key: &str, value: &str) -> usize {
        let mut families = self.families();
        let mut removed = 0;
        families.retain(|_, family| {
            let before = family.series.len();
            family
                .series
                .retain(|labels, _| !labels.iter().any(|(k, v)| k == key && v == value));
            removed += before - family.series.len();
            !family.series.is_empty()
        });
        removed
    }

    /// Total series across every family.
    pub fn series_count(&self) -> usize {
        self.families().values().map(|f| f.series.len()).sum()
    }

    /// Render every family in Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        expo::prometheus_text(&self.families())
    }

    /// Render every family as a JSON object.
    pub fn json(&self) -> String {
        expo::json(&self.families())
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry (scenario latencies, kernel GCUPS).
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_and_labels_share_storage() {
        let r = Registry::new();
        let a = r.counter("hits", "hits", &[("shard", "0")]);
        let b = r.counter("hits", "hits", &[("shard", "0")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        // Different labels → different series.
        let c = r.counter("hits", "hits", &[("shard", "1")]);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn label_order_does_not_matter() {
        let r = Registry::new();
        let a = r.gauge("depth", "", &[("a", "1"), ("b", "2")]);
        let b = r.gauge("depth", "", &[("b", "2"), ("a", "1")]);
        a.set(7);
        assert_eq!(b.get(), 7);
    }

    #[test]
    fn remove_labelled_drops_only_matching_series() {
        let r = Registry::new();
        r.counter("hits", "", &[("instance", "0")]);
        r.counter("hits", "", &[("instance", "1")]);
        r.gauge("depth", "", &[("instance", "0"), ("tenant", "t")]);
        assert_eq!(r.series_count(), 3);
        assert_eq!(r.remove_labelled("instance", "0"), 2);
        assert_eq!(r.series_count(), 1);
        let text = r.prometheus_text();
        assert!(!text.contains("depth"), "emptied family must go: {text}");
        assert!(text.contains("instance=\"1\""), "{text}");
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("m", "", &[]);
        r.gauge("m", "", &[]);
    }
}
