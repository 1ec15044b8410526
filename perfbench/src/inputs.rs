//! Seeded benchmark inputs.
//!
//! Everything the serving stack receives — the dataset, the focal records,
//! the standing queries and both connections' request streams — is a pure
//! function of `(workload, seed)`; [`Inputs::canonical_bytes`] serializes it
//! so a test can check that.
//!
//! The dataset is one fixed IND draw per workload; the seed drives the
//! request streams: the order of the exact focals, the approximate and
//! lookup focal choices, and every inserted record.  Seeded datasets were
//! measured first and rejected: independent draws at n = 1000, d = 4 gave
//! two seeds' competitive focal pools mean exact LP-CTA costs of 92 ms and
//! 221 ms, a spread no useful regression bound survives.

use kspr_datagen::Distribution;

/// The query's rank threshold on every workload.
pub const K: usize = 10;
/// Record arity on every workload.
pub const DIM: usize = 4;
/// Shards of the serving engine (`KsprConfig::with_shards`).
pub const SHARDS: usize = 4;
/// Half-width bound of the approximate tier's requests.
pub const EPSILON: f64 = 0.05;
/// Confidence of the approximate tier's requests.
pub const CONFIDENCE: f64 = 0.95;
/// Client connections; connection [`WRITER`] carries every update.
pub const CONNECTIONS: usize = 2;
/// The connection that issues the update stream.
pub const WRITER: usize = 1;
/// Inserts the writer keeps live before it starts deleting its oldest.
const FIFO_DEPTH: u64 = 4;

/// One benchmark workload (a traffic mix over its own dataset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Negative lookups and approximate queries: wire-bound requests.
    LookupLight,
    /// Exact LP-CTA queries on competitive focals: engine-bound requests.
    ExactCompetitive,
    /// Reads beside a durable update stream with standing queries.
    MixedDurable,
}

/// The fixed shape of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Records in the dataset.
    pub n: usize,
    /// Seed of the fixed base IND draw.
    base_seed: u64,
    /// Competitive focal records in rotation (exact and approximate reads).
    pub rotation: usize,
    /// Base-draw indices of the rotation; empty means `rotation` records
    /// spread evenly over the competitive pool.
    rotation_base: &'static [usize],
    /// Negative-lookup focal records (at least `K` dominators each).
    pub lookups: usize,
    /// Standing LP-CTA queries subscribed on connection 0 at set-up.
    pub standing: usize,
    /// Base-draw indices of the standing focal records; empty means the
    /// first rotation focals.
    standing_base: &'static [usize],
    /// Standing queries the traced run's monitor replay registers.
    pub replay_standing: usize,
    /// On the writer connection one request in `write_every` is an update.
    pub write_every: usize,
    /// What the writer inserts.
    pub inserts: Inserts,
}

/// The records a workload's writer inserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inserts {
    /// Uniform IND records.
    Uniform,
    /// Records dominated by every original record: no exact answer of an
    /// original focal can change while they are live.
    Tail,
    /// Three ordinary records (in `[0, 0.5)^d`, so at least `k` records
    /// dominate each and no standing result can move) to one close
    /// competitor of a live standing focal (a copy scaled up by 0.2–0.4%,
    /// which dominates it), cycling over the standing queries so each
    /// maintenance pass re-runs a known query.
    StandingMix,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::LookupLight,
        Workload::ExactCompetitive,
        Workload::MixedDurable,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LookupLight => "lookup-light",
            Workload::ExactCompetitive => "exact-competitive",
            Workload::MixedDurable => "mixed-durable",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed shape.
    pub fn params(self) -> Params {
        match self {
            Workload::LookupLight => Params {
                n: 4000,
                base_seed: 0x4c4c_0001,
                rotation: 64,
                rotation_base: &[],
                lookups: 64,
                standing: 0,
                // Non-empty LP-CTA answers (9 and 7 regions) that took 16
                // and 56 ms on a 2-core x86-64 container when the benchmark
                // was defined: the monitor replay's standing queries and the
                // recovery probes.
                standing_base: &[1738, 3147],
                replay_standing: 2,
                write_every: 4,
                inserts: Inserts::Uniform,
            },
            Workload::ExactCompetitive => Params {
                n: 1000,
                base_seed: 0x4543_0001,
                rotation: 16,
                // Competitive records of the base draw whose LP-CTA answer
                // is non-empty (19..185 regions) and took 67..218 ms each on
                // a 2-core x86-64 container when the benchmark was defined.
                // Evenly spread pool picks range from 2 ms to 1.3 s, and
                // which of those a 20 s window happens to reach moved the
                // query median 16% between seeds.
                rotation_base: &[
                    72, 122, 169, 284, 392, 411, 433, 476, 484, 517, 538, 632, 658, 760, 860, 959,
                ],
                lookups: 16,
                standing: 0,
                standing_base: &[],
                replay_standing: 2,
                // Connection 0 queries, connection 1 only writes: with both
                // connections querying, throughput spread 0.22 (IQR over
                // median, three seeds) against 0.09 with one.
                write_every: 1,
                inserts: Inserts::Tail,
            },
            Workload::MixedDurable => Params {
                n: 2000,
                base_seed: 0x4d44_0001,
                rotation: 64,
                rotation_base: &[],
                lookups: 64,
                standing: 8,
                // Competitive records of the base draw whose LP-CTA answer
                // is non-empty (6..20 regions) and took 10..45 ms each on a
                // 2-core x86-64 container when the benchmark was defined.
                // The pool also holds 0.5-5 s focals; with those, a
                // maintenance pass that re-runs all eight takes seconds and
                // a 20 s window sees too few requests for a steady p95.
                standing_base: &[1465, 189, 804, 932, 1793, 1348, 1491, 1935],
                replay_standing: 8,
                write_every: 1,
                inserts: Inserts::StandingMix,
            },
        }
    }

    fn tag(self) -> u64 {
        self as u64 + 1
    }
}

/// One request of a connection's stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Exact query on `Inputs::lookups[i]` (empty answer expected).
    NegLookup(usize),
    /// Approximate query on `Inputs::rotation[i]`.
    Approx(usize),
    /// Exact LP-CTA query on `Inputs::rotation[i]`.
    Exact(usize),
    /// `PollDeltas` on the `i`-th standing token.
    Poll(usize),
    /// Insert a record with these values.
    Insert(Vec<f64>),
    /// Delete the oldest record this connection inserted and still holds.
    DeleteOldest,
}

/// Everything one run feeds the serving stack.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The run seed.
    pub seed: u64,
    /// The workload's shape.
    pub params: Params,
    /// The served dataset.
    pub raw: Vec<Vec<f64>>,
    /// Competitive focal records (1..=k/2 dominators).
    pub rotation: Vec<Vec<f64>>,
    /// Negative-lookup focal records (the lowest attribute sums).
    pub lookups: Vec<Vec<f64>>,
    /// Standing-query focal records: the first `params.standing` are live,
    /// the first `params.replay_standing` are registered by the traced run's
    /// monitor replay.
    pub standing: Vec<Vec<f64>>,
    /// Per-dimension minimum of `raw`, the ceiling of `Inserts::Tail`.
    floor: Vec<f64>,
}

/// SplitMix64: a tiny, well-mixed deterministic generator.
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> Self {
        let mut rng = Self(seed);
        rng.next_u64();
        rng
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `count` indices spread evenly over `pool` (fewer if the pool is small).
fn spread(pool: &[usize], count: usize) -> Vec<usize> {
    let step = (pool.len() / count.max(1)).max(1);
    pool.iter().step_by(step).take(count).copied().collect()
}

impl Inputs {
    /// Generates the inputs of `workload` under `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let params = workload.params();
        let base =
            kspr_datagen::generate(Distribution::Independent, params.n, DIM, params.base_seed);
        let pools = kspr_bench::Workload::from_raw("IND", base.clone(), K);
        let mut by_sum: Vec<usize> = (0..base.len()).collect();
        by_sum.sort_by(|&a, &b| {
            let sum = |i: usize| base[i].iter().sum::<f64>();
            sum(a).total_cmp(&sum(b))
        });

        let pick = |indices: Vec<usize>| -> Vec<Vec<f64>> {
            indices.into_iter().map(|i| base[i].clone()).collect()
        };
        let rotation = if params.rotation_base.is_empty() {
            pick(spread(&pools.focal_pool, params.rotation))
        } else {
            pick(params.rotation_base.to_vec())
        };
        let lookups = pick(by_sum.into_iter().take(params.lookups).collect());
        let standing = if params.standing_base.is_empty() {
            rotation[..params.replay_standing].to_vec()
        } else {
            pick(params.standing_base.to_vec())
        };
        let raw = base;
        let floor = (0..DIM)
            .map(|d| raw.iter().map(|r| r[d]).fold(f64::INFINITY, f64::min))
            .collect();
        Self {
            workload,
            seed,
            params,
            raw,
            rotation,
            lookups,
            standing,
            floor,
        }
    }

    /// The request stream of connection `conn` (endless and deterministic).
    pub fn stream(&self, conn: usize) -> OpStream<'_> {
        OpStream {
            inputs: self,
            conn,
            rng: SplitMix::new(
                self.seed
                    ^ (self.workload.tag() << 8 | (conn as u64 + 1))
                        .wrapping_mul(0xE703_7ED1_A0B4_28DB),
            ),
            issued: 0,
            reads: 0,
            writes: 0,
            inserts: 0,
            order: Vec::new(),
        }
    }

    /// A byte image of everything the program would receive: the dataset,
    /// the focal lists and the first `ops` requests of every connection.
    pub fn canonical_bytes(&self, ops: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let put_rows = |out: &mut Vec<u8>, rows: &[Vec<f64>]| {
            out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
            for value in rows.iter().flatten() {
                out.extend_from_slice(&value.to_bits().to_le_bytes());
            }
        };
        put_rows(&mut out, &self.raw);
        put_rows(&mut out, &self.rotation);
        put_rows(&mut out, &self.lookups);
        put_rows(&mut out, &self.standing);
        for conn in 0..CONNECTIONS {
            for op in self.stream(conn).take(ops) {
                let (tag, index, values) = match &op {
                    Op::NegLookup(i) => (1u8, *i, None),
                    Op::Approx(i) => (2, *i, None),
                    Op::Exact(i) => (3, *i, None),
                    Op::Poll(i) => (4, *i, None),
                    Op::Insert(v) => (5, 0, Some(v)),
                    Op::DeleteOldest => (6, 0, None),
                };
                out.push(tag);
                out.extend_from_slice(&(index as u64).to_le_bytes());
                for value in values.into_iter().flatten() {
                    out.extend_from_slice(&value.to_bits().to_le_bytes());
                }
            }
        }
        out
    }
}

/// One connection's endless request stream.
#[derive(Debug, Clone)]
pub struct OpStream<'a> {
    inputs: &'a Inputs,
    conn: usize,
    rng: SplitMix,
    issued: u64,
    reads: u64,
    writes: u64,
    inserts: u64,
    /// The rest of the current shuffled pass over the rotation.
    order: Vec<usize>,
}

impl OpStream<'_> {
    fn write_op(&mut self) -> Op {
        let w = self.writes;
        self.writes += 1;
        // Fill a FIFO of own inserts, then alternate delete-oldest / insert:
        // only records this stream inserted are ever deleted, so every
        // original record (and every original dominator) survives and n
        // stays flat.
        if w >= FIFO_DEPTH && (w - FIFO_DEPTH).is_multiple_of(2) {
            return Op::DeleteOldest;
        }
        let inserts = self.inserts;
        self.inserts += 1;
        let values = match self.inputs.params.inserts {
            Inserts::Uniform => (0..DIM).map(|_| self.rng.unit()).collect(),
            Inserts::Tail => self
                .inputs
                .floor
                .iter()
                .map(|m| m * (0.1 + 0.8 * self.rng.unit()))
                .collect(),
            Inserts::StandingMix if inserts % 4 == 3 => {
                let focal =
                    &self.inputs.standing[(inserts / 4) as usize % self.inputs.params.standing];
                focal
                    .iter()
                    .map(|v| v * (1.002 + 0.002 * self.rng.unit()))
                    .collect()
            }
            Inserts::StandingMix => (0..DIM).map(|_| 0.5 * self.rng.unit()).collect(),
        };
        Op::Insert(values)
    }

    fn next_rotation(&mut self) -> usize {
        if self.order.is_empty() {
            self.order = (0..self.inputs.rotation.len()).collect();
            self.rng.shuffle(&mut self.order);
        }
        self.order.pop().expect("the rotation is never empty")
    }
}

impl Iterator for OpStream<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let p = self.inputs.params;
        let i = self.issued;
        self.issued += 1;
        if self.conn == WRITER && i % p.write_every as u64 == p.write_every as u64 - 1 {
            return Some(self.write_op());
        }
        let r = self.reads;
        self.reads += 1;
        let rotation = self.inputs.rotation.len();
        let lookups = self.inputs.lookups.len();
        Some(match self.inputs.workload {
            Workload::LookupLight => {
                if r.is_multiple_of(2) {
                    Op::NegLookup(self.rng.below(lookups))
                } else {
                    Op::Approx(self.rng.below(rotation))
                }
            }
            Workload::ExactCompetitive => Op::Exact(self.next_rotation()),
            Workload::MixedDurable => match r % 3 {
                0 => Op::Approx(self.rng.below(rotation)),
                1 => Op::NegLookup(self.rng.below(lookups)),
                _ => Op::Poll((r / 3) as usize % p.standing),
            },
        })
    }
}
