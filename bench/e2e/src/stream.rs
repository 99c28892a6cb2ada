//! The four workloads and their request streams. A stream is a pure function
//! of `(--seed, connection, op index)`: hashed, not drawn from a shared RNG, so
//! it does not depend on how the two connections interleave.

use crate::wire::{self, Proto};

/// What one op of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `INFER`: one node, answered by a full-graph forward pass.
    Full,
    /// `INFER_SEEDS` with a per-request sampler seed and a feature override.
    Seeds {
        /// Seeds per request.
        seeds: usize,
        /// Per-hop fanout caps, seed side first.
        fanout: [u64; 2],
    },
    /// One training round in process: one epoch of each model.
    Train,
}

/// One benchmark workload: the dataset, the server flags and the op shape.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Models registered (and trained, for [`Kind::Train`]).
    pub models: &'static [&'static str],
    /// `--vertices`.
    pub vertices: usize,
    /// `--classes`.
    pub classes: usize,
    /// `--avg-deg`.
    pub avg_deg: usize,
    /// `--noise`; the feature width is `classes + noise`.
    pub noise: usize,
    /// `--hidden`.
    pub hidden: usize,
    /// Wire protocol of the load connections.
    pub proto: Proto,
    /// Op shape.
    pub kind: Kind,
    /// Count-bounded warm-up per connection (rounds for [`Kind::Train`]);
    /// part of set-up, and what the reply digest covers.
    pub warmup_ops: u64,
    /// Ops replayed one at a time for the per-layer numbers.
    pub replay_ops: u64,
}

const ALL_MODELS: &[&str] = &["gcn", "graphsage", "gat"];

/// The benchmark's workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "infer_full",
        models: ALL_MODELS,
        vertices: 9708,
        classes: 8,
        avg_deg: 100,
        noise: 56,
        hidden: 32,
        proto: Proto::Binary,
        kind: Kind::Full,
        warmup_ops: 24,
        replay_ops: 20,
    },
    Workload {
        name: "seeds_override",
        models: ALL_MODELS,
        vertices: 20000,
        classes: 8,
        avg_deg: 50,
        noise: 56,
        hidden: 32,
        proto: Proto::Binary,
        kind: Kind::Seeds {
            seeds: 16,
            fanout: [10, 10],
        },
        warmup_ops: 300,
        replay_ops: 200,
    },
    Workload {
        name: "seeds_text_wide",
        models: &["gcn"],
        vertices: 20000,
        classes: 8,
        avg_deg: 50,
        noise: 248,
        hidden: 32,
        proto: Proto::Text,
        kind: Kind::Seeds {
            seeds: 32,
            fanout: [1, 1],
        },
        warmup_ops: 300,
        replay_ops: 200,
    },
    Workload {
        name: "train_epoch",
        models: ALL_MODELS,
        vertices: 4000,
        classes: 8,
        avg_deg: 50,
        noise: 56,
        hidden: 32,
        proto: Proto::Binary,
        kind: Kind::Train,
        warmup_ops: 3,
        replay_ops: 0,
    },
];

/// Load connections of every serving workload: `nproc` is 2 and `fgserve`
/// answers one request per connection at a time.
pub const CONNECTIONS: u64 = 2;

/// Pre-rendered feature blocks per connection.
pub const POOL_BLOCKS: u64 = 64;

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Feature width of the dataset.
    pub fn in_dim(&self) -> usize {
        self.classes + self.noise
    }

    /// Flags for `fgserve serve`; everything not listed stays at its default.
    pub fn server_args(&self, seed: u64) -> Vec<String> {
        let model = if self.models.len() == 1 {
            self.models[0]
        } else {
            "all"
        };
        let mut args = vec!["serve".to_string(), "--addr".into(), "127.0.0.1:0".into()];
        for (flag, value) in [
            ("--model", model.to_string()),
            ("--vertices", self.vertices.to_string()),
            ("--classes", self.classes.to_string()),
            ("--avg-deg", self.avg_deg.to_string()),
            ("--noise", self.noise.to_string()),
            ("--hidden", self.hidden.to_string()),
            ("--seed", seed.to_string()),
        ] {
            args.push(flag.into());
            args.push(value);
        }
        args
    }
}

/// Counter-based hash: one well-mixed `u64` per `(seed, conn, op, slot)`.
pub fn hash(seed: u64, conn: u64, op: u64, slot: u64) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(conn.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(op.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(slot.wrapping_mul(0x94D0_49BB_1331_11EB));
    // splitmix64 finalizer
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

const SLOT_MODEL: u64 = 0;
const SLOT_NODE: u64 = 1;
const SLOT_SAMPLE_SEED: u64 = 2;
const SLOT_BLOCK: u64 = 3;
const SLOT_SEEDS: u64 = 16;
/// Pool blocks hash under op indices no request stream reaches.
const POOL_OP_BASE: u64 = 1 << 40;

/// What one serving op asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// `INFER <model> <node>`.
    Infer {
        /// Requested vertex.
        node: u64,
    },
    /// `INFER_SEEDS` with fanout caps, a sampler seed and a feature block.
    Seeds {
        /// Seed vertices; a power-law (`u²`) popularity draw, so a small
        /// head of hot vertices takes most of the traffic.
        seeds: Vec<u64>,
        /// Per-request sampler seed.
        sample_seed: u64,
        /// Index into the connection's block pool.
        block: usize,
    },
}

/// One serving op of a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Token the server must echo.
    pub id: String,
    /// Target model.
    pub model: &'static str,
    /// The request.
    pub body: Body,
}

/// Op `i` of connection `conn`. Panics on [`Kind::Train`], which has no
/// request stream.
pub fn op(w: &Workload, seed: u64, conn: u64, i: u64) -> Op {
    let model = w.models[(hash(seed, conn, i, SLOT_MODEL) % w.models.len() as u64) as usize];
    let body = match w.kind {
        Kind::Full => Body::Infer {
            node: hash(seed, conn, i, SLOT_NODE) % w.vertices as u64,
        },
        Kind::Seeds { seeds, .. } => Body::Seeds {
            seeds: (0..seeds as u64)
                .map(|j| {
                    let u = unit(hash(seed, conn, i, SLOT_SEEDS + j));
                    ((w.vertices as f64 * u * u) as u64).min(w.vertices as u64 - 1)
                })
                .collect(),
            sample_seed: hash(seed, conn, i, SLOT_SAMPLE_SEED),
            block: (hash(seed, conn, i, SLOT_BLOCK) % POOL_BLOCKS) as usize,
        },
        Kind::Train => panic!("train_epoch has no request stream"),
    };
    Op {
        id: format!("c{conn}-{i}"),
        model,
        body,
    }
}

/// One feature-override block: its values and its bytes on the wire.
pub struct Block {
    /// `seeds × in_dim` scalars in `[-1, 1)`, row-major.
    pub values: Vec<f32>,
    /// The block as the workload's protocol sends it.
    pub rendered: Vec<u8>,
}

/// The connection's pool of pre-rendered feature blocks (empty unless the
/// workload overrides features).
pub fn pool(w: &Workload, seed: u64, conn: u64) -> Vec<Block> {
    let Kind::Seeds { seeds, .. } = w.kind else {
        return Vec::new();
    };
    let cols = w.in_dim();
    (0..POOL_BLOCKS)
        .map(|b| {
            let values: Vec<f32> = (0..(seeds * cols) as u64)
                .map(|k| (unit(hash(seed, conn, POOL_OP_BASE + b, k)) * 2.0 - 1.0) as f32)
                .collect();
            let rendered = wire::render_feats(w.proto, seeds, cols, &values);
            Block { values, rendered }
        })
        .collect()
}

/// Append the op's complete request bytes to `out`.
pub fn render(w: &Workload, op: &Op, pool: &[Block], out: &mut Vec<u8>) {
    match (&op.body, w.kind) {
        (Body::Infer { node }, _) => wire::encode_infer(w.proto, op.model, *node, &op.id, out),
        (
            Body::Seeds {
                seeds,
                sample_seed,
                block,
            },
            Kind::Seeds { fanout, .. },
        ) => wire::encode_seeds(
            w.proto,
            &wire::SeedsRequest {
                model: op.model,
                seeds,
                fanouts: &fanout,
                sample_seed: *sample_seed,
                feats: &pool[*block].rendered,
                id: &op.id,
            },
            out,
        ),
        (Body::Seeds { .. }, _) => unreachable!("seeds op on a workload without a fanout"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(w: &Workload, seed: u64, conn: u64, ops: u64) -> Vec<u8> {
        let pool = pool(w, seed, conn);
        let mut out = Vec::new();
        for i in 0..ops {
            render(w, &op(w, seed, conn, i), &pool, &mut out);
        }
        out
    }

    #[test]
    fn streams_repeat_for_equal_seeds_and_differ_otherwise() {
        for w in WORKLOADS.iter().filter(|w| w.kind != Kind::Train) {
            let a = stream_bytes(w, 7, 0, 40);
            assert_eq!(a, stream_bytes(w, 7, 0, 40), "{}: same seed", w.name);
            assert_ne!(a, stream_bytes(w, 8, 0, 40), "{}: other seed", w.name);
            assert_ne!(a, stream_bytes(w, 7, 1, 40), "{}: other connection", w.name);
        }
    }

    #[test]
    fn ops_stay_in_range_and_use_every_model() {
        for w in WORKLOADS.iter().filter(|w| w.kind != Kind::Train) {
            let mut models = std::collections::BTreeSet::new();
            for i in 0..200 {
                let op = op(w, 3, 1, i);
                models.insert(op.model);
                match op.body {
                    Body::Infer { node } => assert!((node as usize) < w.vertices),
                    Body::Seeds { seeds, block, .. } => {
                        assert!(seeds.iter().all(|&s| (s as usize) < w.vertices));
                        assert!(block < POOL_BLOCKS as usize);
                    }
                }
            }
            assert_eq!(models.len(), w.models.len(), "{}", w.name);
        }
    }

    #[test]
    fn seed_popularity_is_skewed_toward_low_ids() {
        let w = workload("seeds_override").unwrap();
        let mut low = 0;
        let mut total = 0;
        for i in 0..200 {
            if let Body::Seeds { seeds, .. } = op(w, 1, 0, i).body {
                total += seeds.len();
                low += seeds
                    .iter()
                    .filter(|&&s| (s as usize) < w.vertices / 4)
                    .count();
            }
        }
        // P(u² < 1/4) = 1/2 under the draw, 1/4 under a uniform one.
        assert!(
            low * 5 > total * 2,
            "{low} of {total} seeds in the lowest quarter"
        );
    }

    #[test]
    fn text_wide_request_is_tens_of_kilobytes() {
        let w = workload("seeds_text_wide").unwrap();
        let bytes = stream_bytes(w, 1, 0, 1);
        assert!(bytes.len() > 50_000, "{} bytes", bytes.len());
        assert_eq!(*bytes.last().unwrap(), b'\n');
    }
}
