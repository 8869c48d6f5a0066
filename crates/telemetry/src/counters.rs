//! Declare-once counter families.

/// Declares a counter family once: the struct, its `merge` and, when the
/// family names a key prefix, its `export_metrics`.
///
/// Each field is written once, with its doc comment and, for an exporting
/// family, its metric key relative to the prefix. A field marked `gauge`
/// merges by maximum and exports through
/// [`MetricsSnapshot::gauge_max`](crate::MetricsSnapshot::gauge_max); every
/// other field adds and exports through
/// [`MetricsSnapshot::incr`](crate::MetricsSnapshot::incr). A field whose
/// exported value is not the field itself names a `fn(&Self) -> u64` after
/// its key. The export registers every key even at zero, so the rendered key
/// set is stable, and it commutes with `merge`: exporting a merged value
/// equals merging the exports.
///
/// The generated methods take the visibility written before `fn`, and the
/// export takes any extra arguments its prefix expression needs.
///
/// ```
/// telemetry::counters! {
///     /// Work done by one shard.
///     #[derive(Debug, Clone, Default, PartialEq, Eq)]
///     pub struct ShardWork {
///         /// Packets handled; exported as the ones sent for the first time.
///         pub packets: u64 => "packets.fresh" = |s| s.packets - s.retransmits,
///         /// Of which retransmitted.
///         pub retransmits: u64 => "packets.retransmitted",
///         /// Deepest queue seen (merges by maximum).
///         pub queue_peak: u64 => gauge "queue.peak",
///     }
///     pub fn merge;
///     pub fn export_metrics(layer: &str) => format!("{layer}.shard");
/// }
///
/// let a = ShardWork { packets: 10, retransmits: 1, queue_peak: 4 };
/// let b = ShardWork { packets: 5, retransmits: 0, queue_peak: 9 };
/// let mut merged = a.clone();
/// merged.merge(&b);
/// assert_eq!(merged, ShardWork { packets: 15, retransmits: 1, queue_peak: 9 });
///
/// let mut m = telemetry::MetricsSnapshot::new();
/// merged.export_metrics("net", &mut m);
/// assert_eq!(m.counter("net.shard.packets.fresh"), 14);
/// assert_eq!(m.counter("net.shard.packets.retransmitted"), 1);
/// assert_eq!(m.gauge("net.shard.queue.peak"), 9);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                $field_vis:vis $field:ident : $ty:ty $(=> $($gauge:ident)? $key:literal $(= $value:expr)?)?
            ),* $(,)?
        }
        $merge_vis:vis fn merge;
        $($export_vis:vis fn export_metrics($($arg:ident : $arg_ty:ty),*) => $prefix:expr;)?
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$field_meta])* $field_vis $field: $ty,)*
        }

        impl $name {
            /// Folds `other` into `self`: counters add and gauges keep the
            /// maximum, so the fold is commutative and associative.
            $merge_vis fn merge(&mut self, other: &Self) {
                $($crate::counters!(@merge [$($($gauge)?)?] self.$field, other.$field);)*
            }
        }

        $crate::counters!(@export $name
            [$($export_vis ($($arg: $arg_ty),*) $prefix)?]
            [$($field $(=> $($gauge)? $key $(= $value)?)?),*]);
    };

    (@merge [] $mine:expr, $theirs:expr) => { $mine += $theirs };
    (@merge [gauge] $mine:expr, $theirs:expr) => { $mine = ::core::cmp::max($mine, $theirs) };

    (@export $name:ident [] [$($fields:tt)*]) => {};
    (@export $name:ident
        [$export_vis:vis ($($arg:ident : $arg_ty:ty),*) $prefix:expr]
        [$($field:ident => $($gauge:ident)? $key:literal $(= $value:expr)?),*]
    ) => {
        impl $name {
            /// Exports every field into `m` as `<prefix>.<key>`, registering
            /// each key even at zero. Counters export with `incr` and gauges
            /// with `gauge_max`, so the export commutes with `merge`.
            $export_vis fn export_metrics(&self, $($arg: $arg_ty,)* m: &mut $crate::MetricsSnapshot) {
                let prefix = $prefix;
                $(
                    let value = $crate::counters!(@value self, $field $(, $value)?);
                    $crate::counters!(@record [$($gauge)?] m, &format!("{prefix}.{}", $key), value);
                )*
            }
        }
    };

    (@value $this:expr, $field:ident) => { $this.$field };
    (@value $this:expr, $field:ident, $value:expr) => {{
        let value: fn(&Self) -> u64 = $value;
        value($this)
    }};

    (@record [] $m:ident, $key:expr, $value:expr) => { $m.incr($key, $value) };
    (@record [gauge] $m:ident, $key:expr, $value:expr) => { $m.gauge_max($key, $value) };
}
