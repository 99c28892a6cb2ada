//! Stress coverage for the ring-buffered `LatencyRecorder`: wraparound
//! past the retained window and concurrent record/snapshot.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use fg_serve::LatencyRecorder;

#[test]
fn wraparound_past_capacity_keeps_exact_total_and_window_quantiles() {
    let rec = LatencyRecorder::new();
    let window = LatencyRecorder::WINDOW;
    let total = window + window / 2;
    // Strictly increasing samples: after wraparound the retained window is
    // exactly the newest `window` values, so the minimum retained value is
    // `total - window + 1` and quantiles must land inside that range.
    for i in 1..=total {
        rec.record_value(i as f64);
    }
    let snap = rec.snapshot();
    assert_eq!(
        snap.count, total as u64,
        "count tracks every sample ever recorded, not just the window"
    );
    assert_eq!(snap.max_ms, total as f64, "newest sample retained");
    let window_min = (total - window + 1) as f64;
    assert!(
        snap.p50_ms >= window_min,
        "p50 {} must come from the retained window (>= {window_min})",
        snap.p50_ms
    );
    // Quantile monotonicity.
    assert!(snap.p50_ms <= snap.p95_ms);
    assert!(snap.p95_ms <= snap.p99_ms);
    assert!(snap.p99_ms <= snap.max_ms);
    // Exact nearest-rank over the known window contents.
    let q = |p: f64| {
        let rank = ((p * window as f64).ceil() as usize).clamp(1, window);
        window_min + (rank - 1) as f64
    };
    assert_eq!(snap.p50_ms, q(0.50));
    assert_eq!(snap.p95_ms, q(0.95));
    assert_eq!(snap.p99_ms, q(0.99));
}

#[test]
fn concurrent_record_and_snapshot_lose_nothing() {
    const WRITERS: usize = 8;
    const PER_WRITER: usize = 5_000;
    let rec = Arc::new(LatencyRecorder::new());

    // Readers snapshot continuously while writers hammer the ring; every
    // intermediate snapshot must be internally consistent (monotone
    // quantiles, max bounded by the largest value any writer emits).
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let rec = Arc::clone(&rec);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut last_count = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let snap = rec.snapshot();
                    assert!(snap.count >= last_count, "count is monotone");
                    last_count = snap.count;
                    if snap.count > 0 {
                        assert!(snap.p50_ms <= snap.p95_ms);
                        assert!(snap.p95_ms <= snap.p99_ms);
                        assert!(snap.p99_ms <= snap.max_ms);
                        assert!(snap.max_ms <= 100.0, "max within emitted range");
                    }
                    thread::yield_now();
                }
            })
        })
        .collect();

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let rec = Arc::clone(&rec);
            thread::spawn(move || {
                for i in 0..PER_WRITER {
                    // Values in (0, 100].
                    let ms = ((w * PER_WRITER + i) % 100 + 1) as u64;
                    rec.record(Duration::from_millis(ms));
                }
            })
        })
        .collect();
    for h in writers {
        h.join().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in readers {
        h.join().unwrap();
    }

    let snap = rec.snapshot();
    assert_eq!(
        snap.count,
        (WRITERS * PER_WRITER) as u64,
        "every concurrent record landed exactly once"
    );
    assert!(snap.p50_ms <= snap.p95_ms && snap.p95_ms <= snap.p99_ms);
}
