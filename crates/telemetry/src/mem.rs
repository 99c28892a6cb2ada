//! fg-mem: whole-system byte-level memory accounting.
//!
//! A process-wide [`MemAccountant`] tracks **current** and **peak** bytes
//! per [`MemComponent`] on lock-free atomics. Allocation sites charge bytes
//! against the component named by the calling thread's ambient
//! [`MemScope`]; the matching credit happens at drop. On top of the
//! per-component watermarks the accountant keeps a tracked total and its
//! peak, so "how big did this process get, and where" is one snapshot away.
//!
//! Unlike counters and gauges, accounting is **not** gated on the runtime
//! [`enabled`](crate::enabled) flag: a buffer charged at allocation must be
//! credited at drop even if telemetry was toggled off in between, or the
//! balances would drift negative. So accounting is always live: each
//! charge or credit is a few relaxed atomic adds.
//!
//! Vec-backed structures that do not flow through `fg-tensor`'s aligned
//! buffers (CSR topology, edge lists) are accounted explicitly: they expose
//! `mem_bytes()` arithmetic and their owners hold a [`MemCharge`] guard for
//! the figure.
//!
//! [`read_rss`] is the OS cross-check: on Linux it reads `VmRSS`/`VmHWM`
//! from `/proc/self/status` (graceful `None` elsewhere), letting exporters
//! publish accounted-vs-resident side by side.

use std::sync::atomic::{AtomicU64, Ordering};

/// A component of the stack that owns accountable memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemComponent {
    /// Graph topology: CSR index structures, edge-id maps, degree arrays.
    GraphTopology,
    /// Input feature matrices.
    Features,
    /// Model parameters and optimizer state.
    ModelParams,
    /// Autograd-tape activations (training forward/backward passes).
    TapeActivations,
    /// Per-request serving scratch (a forward pass's activations, gathered
    /// rows).
    ServeBatch,
    /// Compiled kernel plans (partitioned CSR clones, edge orders) held
    /// while a serving registration computes its full-graph logits.
    PlanCache,
    /// Full-graph logits a serving registration keeps once computed (the
    /// answer every full-graph request reads its rows from).
    Activations,
    /// Per-request sampled subgraphs (induced topology + index maps).
    Sampling,
    /// Untagged allocations (no ambient scope).
    Scratch,
}

impl MemComponent {
    /// Number of components.
    pub const COUNT: usize = 9;

    /// Every component, in display order.
    pub const ALL: [MemComponent; MemComponent::COUNT] = [
        MemComponent::GraphTopology,
        MemComponent::Features,
        MemComponent::ModelParams,
        MemComponent::TapeActivations,
        MemComponent::ServeBatch,
        MemComponent::PlanCache,
        MemComponent::Activations,
        MemComponent::Sampling,
        MemComponent::Scratch,
    ];

    /// Stable snake_case name used in wire lines and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            MemComponent::GraphTopology => "graph_topology",
            MemComponent::Features => "features",
            MemComponent::ModelParams => "model_params",
            MemComponent::TapeActivations => "tape_activations",
            MemComponent::ServeBatch => "serve_batch",
            MemComponent::PlanCache => "plan_cache",
            MemComponent::Activations => "activations",
            MemComponent::Sampling => "sampling",
            MemComponent::Scratch => "scratch",
        }
    }
}

/// Point-in-time view of one component's watermarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemComponentSnapshot {
    /// Which component.
    pub component: MemComponent,
    /// Bytes currently charged.
    pub current: u64,
    /// High-water mark of `current`.
    pub peak: u64,
}

/// Per-component current/peak byte watermarks plus a tracked total, all
/// on lock-free atomics. One process-wide instance lives behind
/// [`accountant`]; the free functions in this module delegate to it.
pub struct MemAccountant {
    current: [AtomicU64; MemComponent::COUNT],
    peak: [AtomicU64; MemComponent::COUNT],
    total: AtomicU64,
    total_peak: AtomicU64,
}

static ACCOUNTANT: MemAccountant = MemAccountant {
    current: [const { AtomicU64::new(0) }; MemComponent::COUNT],
    peak: [const { AtomicU64::new(0) }; MemComponent::COUNT],
    total: AtomicU64::new(0),
    total_peak: AtomicU64::new(0),
};

impl MemAccountant {
    /// Charge `bytes` against `component`, advancing both watermark
    /// pairs (component and total).
    pub fn charge(&self, component: MemComponent, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let i = component as usize;
        let cur = self.current[i].fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak[i].fetch_max(cur, Ordering::Relaxed);
        let tot = self.total.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.total_peak.fetch_max(tot, Ordering::Relaxed);
    }

    /// Credit `bytes` back to `component`. Saturates at zero so an
    /// unbalanced credit (a bug, but survivable) cannot wrap the gauge
    /// to ~2^64.
    pub fn credit(&self, component: MemComponent, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let sat_sub = |slot: &AtomicU64| {
            let _ = slot.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(bytes))
            });
        };
        sat_sub(&self.current[component as usize]);
        sat_sub(&self.total);
    }

    /// Bytes currently charged against `component`.
    pub fn current(&self, component: MemComponent) -> u64 {
        self.current[component as usize].load(Ordering::Relaxed)
    }

    /// High-water mark for `component`.
    pub fn peak(&self, component: MemComponent) -> u64 {
        self.peak[component as usize].load(Ordering::Relaxed)
    }

    /// Bytes currently charged across every component.
    pub fn total_current(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// High-water mark of the tracked total.
    pub fn total_peak(&self) -> u64 {
        self.total_peak.load(Ordering::Relaxed)
    }
}

/// The process-wide accountant.
pub fn accountant() -> &'static MemAccountant {
    &ACCOUNTANT
}

thread_local! {
    static COMPONENT: std::cell::Cell<MemComponent> =
        const { std::cell::Cell::new(MemComponent::Scratch) };
}

/// The component new allocations on this thread are attributed to.
pub fn current_component() -> MemComponent {
    COMPONENT.with(|c| c.get())
}

fn swap_component(next: MemComponent) -> MemComponent {
    COMPONENT.with(|c| c.replace(next))
}

/// Charge `bytes` against `component` on the process-wide accountant.
#[inline]
pub fn mem_charge(component: MemComponent, bytes: u64) {
    accountant().charge(component, bytes);
}

/// Credit `bytes` back to `component` on the process-wide accountant.
#[inline]
pub fn mem_credit(component: MemComponent, bytes: u64) {
    accountant().credit(component, bytes);
}

/// Bytes currently charged against `component`.
#[inline]
pub fn mem_current(component: MemComponent) -> u64 {
    accountant().current(component)
}

/// High-water mark for `component`.
#[inline]
pub fn mem_peak(component: MemComponent) -> u64 {
    accountant().peak(component)
}

/// Bytes currently charged across every component.
#[inline]
pub fn mem_total_current() -> u64 {
    accountant().total_current()
}

/// High-water mark of the tracked total.
#[inline]
pub fn mem_total_peak() -> u64 {
    accountant().total_peak()
}

/// Every component's watermarks, in [`MemComponent::ALL`] order.
pub fn mem_snapshot() -> Vec<MemComponentSnapshot> {
    MemComponent::ALL
        .iter()
        .map(|&component| MemComponentSnapshot {
            component,
            current: mem_current(component),
            peak: mem_peak(component),
        })
        .collect()
}

/// RAII component attribution: allocations on this thread are charged to
/// `component` until the scope drops (restoring the previous component).
/// Scopes nest; the innermost wins.
pub struct MemScope {
    prev: MemComponent,
    // Thread-local restore must happen on the entering thread.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl MemScope {
    /// Attribute this thread's allocations to `component` until drop.
    pub fn enter(component: MemComponent) -> Self {
        MemScope {
            prev: swap_component(component),
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for MemScope {
    fn drop(&mut self) {
        let _ = swap_component(self.prev);
    }
}

/// RAII byte charge for memory that is not tracked at the allocator level
/// (plain `Vec`-backed structures): charges `bytes` on construction,
/// credits them back on drop.
#[derive(Debug)]
pub struct MemCharge {
    component: MemComponent,
    bytes: u64,
}

impl MemCharge {
    /// Charge `bytes` against `component` until the guard drops.
    pub fn new(component: MemComponent, bytes: u64) -> Self {
        mem_charge(component, bytes);
        MemCharge { component, bytes }
    }

    /// Bytes held by this guard.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Move the charge to `bytes`, charging growth or crediting shrinkage:
    /// for a long-lived structure whose guard lives as long as it does.
    pub fn set_bytes(&mut self, bytes: u64) {
        if bytes >= self.bytes {
            mem_charge(self.component, bytes - self.bytes);
        } else {
            mem_credit(self.component, self.bytes - bytes);
        }
        self.bytes = bytes;
    }
}

impl Drop for MemCharge {
    fn drop(&mut self) {
        mem_credit(self.component, self.bytes);
    }
}

/// Resident-set sizes reported by the OS, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RssReading {
    /// Current resident set (`VmRSS`).
    pub current_bytes: u64,
    /// Peak resident set (`VmHWM`).
    pub peak_bytes: u64,
}

/// Read the process resident-set size from the OS. Linux-only
/// (`/proc/self/status`); returns `None` elsewhere or when the fields are
/// missing, so callers degrade to accounted-bytes-only gracefully.
pub fn read_rss() -> Option<RssReading> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        parse_proc_status(&status)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Parse `VmRSS`/`VmHWM` out of `/proc/self/status` text. Values are
/// kibibytes in the kernel's format (`VmRSS:      1234 kB`).
pub fn parse_proc_status(status: &str) -> Option<RssReading> {
    let field = |key: &str| -> Option<u64> {
        status
            .lines()
            .find_map(|line| line.strip_prefix(key))
            .and_then(|rest| {
                rest.trim_start_matches(':')
                    .trim()
                    .split_ascii_whitespace()
                    .next()?
                    .parse::<u64>()
                    .ok()
            })
            .map(|kb| kb * 1024)
    };
    Some(RssReading {
        current_bytes: field("VmRSS")?,
        peak_bytes: field("VmHWM")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Zero every watermark; callers must be at a balanced state or
    /// subsequent credits go stale.
    fn reset_mem() {
        let acc = accountant();
        for slot in acc.current.iter().chain(&acc.peak) {
            slot.store(0, Ordering::Relaxed);
        }
        acc.total.store(0, Ordering::Relaxed);
        acc.total_peak.store(0, Ordering::Relaxed);
    }

    #[test]
    fn charge_credit_moves_watermarks() {
        let _guard = crate::TEST_LOCK.lock().unwrap();
        reset_mem();
        mem_charge(MemComponent::Features, 1000);
        mem_charge(MemComponent::Features, 500);
        mem_charge(MemComponent::GraphTopology, 200);
        assert_eq!(mem_current(MemComponent::Features), 1500);
        assert_eq!(mem_total_current(), 1700);
        mem_credit(MemComponent::Features, 1500);
        assert_eq!(mem_current(MemComponent::Features), 0);
        assert_eq!(
            mem_peak(MemComponent::Features),
            1500,
            "peak survives credit"
        );
        assert_eq!(mem_total_current(), 200);
        assert_eq!(mem_total_peak(), 1700);
        // Unbalanced credit saturates instead of wrapping.
        mem_credit(MemComponent::GraphTopology, 10_000);
        assert_eq!(mem_current(MemComponent::GraphTopology), 0);
        reset_mem();
    }

    #[test]
    fn scopes_nest_and_restore() {
        let _guard = crate::TEST_LOCK.lock().unwrap();
        assert_eq!(current_component(), MemComponent::Scratch);
        {
            let _outer = MemScope::enter(MemComponent::ModelParams);
            assert_eq!(current_component(), MemComponent::ModelParams);
            {
                let _inner = MemScope::enter(MemComponent::ServeBatch);
                assert_eq!(current_component(), MemComponent::ServeBatch);
            }
            assert_eq!(current_component(), MemComponent::ModelParams);
        }
        assert_eq!(current_component(), MemComponent::Scratch);
    }

    #[test]
    fn mem_charge_guard_balances_on_drop() {
        let _guard = crate::TEST_LOCK.lock().unwrap();
        reset_mem();
        {
            let charge = MemCharge::new(MemComponent::PlanCache, 4096);
            assert_eq!(charge.bytes(), 4096);
            assert_eq!(mem_current(MemComponent::PlanCache), 4096);
        }
        assert_eq!(mem_current(MemComponent::PlanCache), 0);
        assert_eq!(mem_peak(MemComponent::PlanCache), 4096);
        {
            let mut charge = MemCharge::new(MemComponent::Sampling, 100);
            charge.set_bytes(300);
            assert_eq!(mem_current(MemComponent::Sampling), 300);
            charge.set_bytes(50);
            assert_eq!(
                (charge.bytes(), mem_current(MemComponent::Sampling)),
                (50, 50)
            );
            assert_eq!(mem_peak(MemComponent::Sampling), 300);
        }
        assert_eq!(mem_current(MemComponent::Sampling), 0);
        reset_mem();
    }

    #[test]
    fn snapshot_covers_every_component() {
        let snap = mem_snapshot();
        assert_eq!(snap.len(), MemComponent::COUNT);
        for (row, &component) in snap.iter().zip(&MemComponent::ALL) {
            assert_eq!(row.component, component);
        }
    }

    #[test]
    fn parses_proc_status_fields() {
        let status = "Name:\tfgserve\nVmPeak:\t  123456 kB\nVmRSS:\t   98304 kB\n\
                      VmHWM:\t  102400 kB\nThreads:\t8\n";
        let rss = parse_proc_status(status).unwrap();
        assert_eq!(rss.current_bytes, 98304 * 1024);
        assert_eq!(rss.peak_bytes, 102400 * 1024);
        assert!(parse_proc_status("Name: x\n").is_none(), "missing fields");
        assert!(parse_proc_status("VmRSS: lots kB\nVmHWM: 1 kB\n").is_none());
    }

    #[test]
    fn component_names_are_stable() {
        let names: Vec<&str> = MemComponent::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            [
                "graph_topology",
                "features",
                "model_params",
                "tape_activations",
                "serve_batch",
                "plan_cache",
                "activations",
                "sampling",
                "scratch"
            ]
        );
    }
}
