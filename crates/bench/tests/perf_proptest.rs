//! Property test: `fg_bench::perf` JSON reports survive a
//! write → parse → write round trip **byte-identically**, for arbitrary
//! reports — including NaN/Inf stats (which serialize as `null`), empty
//! sample vectors, empty sections, and entries whose medians make
//! `compare` verdicts incomparable.
//!
//! Byte-stability is what the perf-regression gate relies on: a baseline
//! report checked into CI must re-render exactly after parsing, otherwise
//! diffs churn and comparisons drift.
//!
//! Round-trip caveats encoded in the generators:
//! * Entry stats and samples may be non-finite: the writer maps NaN/Inf to
//!   `null`, the parser reads `null` back as NaN, and NaN re-renders as
//!   `null` — a fixed point after one trip, so generators emit NaN (not
//!   Inf) to make the *first* write already stable.
//! * Counter values are u64 stored as f64 on the wire; they stay ≤ 2^53 so
//!   integer formatting round-trips exactly.
//! * Gauge/histogram/roofline floats (except the `Option`al arithmetic
//!   intensity) parse `null` as 0.0 or drop the pair, so those generators
//!   stay finite.

use fg_bench::{compare, Entry, GraphInfo, HistRow, Report, RooflineRow, SampleStats};
use proptest::prelude::*;

/// Identifier-ish strings plus JSON-hostile characters (quotes, backslash,
/// control chars, non-ASCII) to exercise string escaping.
fn names() -> impl Strategy<Value = String> {
    prop_oneof![
        (0usize..4, 0u32..1000).prop_map(|(style, n)| match style {
            0 => format!("table{n}/gcn/d64"),
            1 => format!("serve/model-{n}/latency"),
            2 => format!("id with \"quotes\" and \\slashes\\ {n}"),
            3 => format!("unicode-\u{3b1}\u{3b2}-and-tab\t-{n}"),
            _ => unreachable!(),
        }),
        Just(String::new()),
    ]
}

/// Stat values: finite floats of very different magnitudes, exact zero,
/// negative zero, and NaN (the write-stable non-finite representative).
fn stat() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1.0e12f64..1.0e12,
        -1.0e-9f64..1.0e-9,
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
    ]
}

/// Finite floats for fields whose `null` does not round-trip.
fn finite() -> impl Strategy<Value = f64> {
    prop_oneof![-1.0e9f64..1.0e9, Just(0.0)]
}

/// u64 small enough to be exactly representable as f64 on the wire.
fn wire_u64() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..1 << 53, 0u64..100]
}

fn entries() -> impl Strategy<Value = Vec<Entry>> {
    proptest::collection::vec(
        (
            names(),
            0usize..3,
            (stat(), stat(), stat(), stat(), stat()),
            proptest::collection::vec(stat(), 0..6),
            0usize..10,
        ),
        0..8,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(id, unit_sel, (min, max, mean, median, stddev), samples, runs)| Entry {
                id,
                unit: ["s", "ms", "req/s"][unit_sel].to_string(),
                stats: SampleStats {
                    runs,
                    min,
                    max,
                    mean,
                    median,
                    stddev,
                    samples,
                },
            })
            .collect()
    })
}

fn graphs() -> impl Strategy<Value = Vec<GraphInfo>> {
    proptest::collection::vec((names(), 0usize..1 << 30, finite()), 0..4).prop_map(|rows| {
        rows.into_iter()
            .map(|(dataset, vertices, avg_degree)| GraphInfo {
                dataset,
                vertices,
                edges: vertices.saturating_mul(3),
                avg_degree,
            })
            .collect()
    })
}

fn histograms() -> impl Strategy<Value = Vec<HistRow>> {
    proptest::collection::vec((names(), wire_u64(), wire_u64(), finite()), 0..4).prop_map(
        |rows| {
            rows.into_iter()
                .map(|(name, count, sum, imbalance)| HistRow {
                    name,
                    count,
                    sum,
                    min: count.min(7),
                    max: count,
                    p50: count / 2,
                    p90: count,
                    p99: count,
                    imbalance,
                })
                .collect()
        },
    )
}

fn roofline() -> impl Strategy<Value = Vec<RooflineRow>> {
    proptest::collection::vec(
        (names(), wire_u64(), finite(), 0usize..3, proptest::prelude::any::<bool>()),
        0..4,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(kernel, launches, time_ms, ai_sel, memory_bound)| RooflineRow {
                kernel,
                launches,
                time_ms,
                flops: launches.saturating_mul(64),
                dram_bytes: launches.saturating_mul(8),
                // None and Some(non-finite) both render null and parse back
                // as None — also a stable fixed point.
                arithmetic_intensity: match ai_sel {
                    0 => None,
                    1 => Some(time_ms.abs() + 1.5),
                    _ => Some(f64::NAN),
                },
                attained_gflops: time_ms * 0.5,
                attained_gbs: time_ms * 0.25,
                roofline_gflops: time_ms.abs() + 1.0,
                attained_fraction: 0.5,
                memory_bound,
            })
            .collect()
    })
}

fn reports() -> impl Strategy<Value = Report> {
    (
        (names(), 1usize..100),
        graphs(),
        entries(),
        proptest::collection::vec((names(), wire_u64()), 0..6),
        proptest::collection::vec((names(), finite()), 0..6),
        histograms(),
        roofline(),
    )
        .prop_map(
            |((command, scale), graphs, entries, counters, gauges, histograms, roofline)| {
                let mut rep = Report::new(&command, scale);
                rep.graphs = graphs;
                rep.entries = entries;
                // Object keys must be unique for a parse to preserve them all.
                rep.counters = counters
                    .into_iter()
                    .enumerate()
                    .map(|(i, (k, v))| (format!("c{i}_{k}"), v))
                    .collect();
                rep.gauges = gauges
                    .into_iter()
                    .enumerate()
                    .map(|(i, (k, v))| (format!("g{i}_{k}"), v))
                    .collect();
                rep.histograms = histograms;
                rep.roofline = roofline;
                rep
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn report_json_round_trips_byte_identically(rep in reports()) {
        let first = rep.to_json();
        let parsed = Report::from_json(&first)
            .map_err(|e| TestCaseError::Fail(format!("parse failed: {e}\n{first}")))?;
        let second = parsed.to_json();
        prop_assert_eq!(&first, &second, "write -> parse -> write changed bytes");

        // One more trip from the parsed value: the representation is a
        // fixed point, not merely stable on the first bounce.
        let reparsed = Report::from_json(&second)
            .map_err(|e| TestCaseError::Fail(format!("reparse failed: {e}")))?;
        prop_assert_eq!(&second, &reparsed.to_json());

        // Structure survives: same entry ids/units and section sizes.
        prop_assert_eq!(parsed.entries.len(), rep.entries.len());
        for (a, b) in parsed.entries.iter().zip(&rep.entries) {
            prop_assert_eq!(&a.id, &b.id);
            prop_assert_eq!(&a.unit, &b.unit);
            prop_assert_eq!(a.stats.samples.len(), b.stats.samples.len());
        }
        prop_assert_eq!(parsed.graphs.len(), rep.graphs.len());
        prop_assert_eq!(parsed.counters.len(), rep.counters.len());
        prop_assert_eq!(parsed.gauges.len(), rep.gauges.len());
        prop_assert_eq!(parsed.histograms.len(), rep.histograms.len());
        prop_assert_eq!(parsed.roofline.len(), rep.roofline.len());

        // Comparing a report against its round-tripped self yields the same
        // verdict row-for-row as comparing it against itself — NaN medians
        // stay incomparable rather than flipping to pass/regress.
        let self_cmp = compare(&rep, &rep, 5.0);
        let trip_cmp = compare(&rep, &parsed, 5.0);
        prop_assert_eq!(self_cmp.rows.len(), trip_cmp.rows.len());
        for (a, b) in self_cmp.rows.iter().zip(&trip_cmp.rows) {
            prop_assert_eq!(&a.id, &b.id);
            prop_assert_eq!(&a.verdict, &b.verdict, "verdict changed for {}", a.id);
        }
    }
}
