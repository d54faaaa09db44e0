//! Workload definitions, the dataset and the value scheme the oracle checks.
//!
//! Every value the benchmark writes is derived from its key and a tag, so a
//! read can be checked against values computed here, apart from the
//! program: a bulk-loaded value is a function of its key alone, and a put's
//! value is a function of the key, the writing session and that session's
//! write sequence number.

use cckvs_net::transport::{TransportConfig, TransportKind};
use workload::{Dataset, Mix, OpKind, WorkloadGen, ZipfGenerator};

/// Keys in the dataset.
pub const KEYS: u64 = 100_000;
/// Value size in bytes.
pub const VALUE_SIZE: usize = 40;
/// Keys in the installed hot set (the ranks `0..HOT_KEYS`).
pub const HOT_KEYS: u64 = 256;
/// Zipf exponent of the access distribution.
pub const ZIPF: f64 = 0.99;
/// Client sessions driving the measured phase.
pub const SESSIONS: u32 = 2;
/// Back-end KVS capacity per node (objects): each node homes about a third
/// of `KEYS`, so the 4096 of `RackConfig::small` would overflow.
pub const KVS_CAPACITY: usize = 65_536;
/// Reactor shards per node: 3 nodes x 1 shard plus 2 client threads, all
/// on the one CPU the run is pinned to.
pub const SHARDS: usize = 1;
/// Ops per client batch when a workload batches.
pub const BATCH_OPS: usize = 16;

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// The fabric the rack listens on and every session dials.
    pub transport: TransportConfig,
    pub write_ratio: f64,
    /// `Some(n)`: sessions send fixed `n`-op batches; `None`: one request
    /// in flight at a time.
    pub batch: Option<usize>,
    /// Salt mixed into the seed so workloads never share a stream.
    pub salt: u64,
}

const fn fabric(kind: TransportKind) -> TransportConfig {
    TransportConfig { kind, faults: None }
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "skew-read",
        transport: fabric(TransportKind::Tcp),
        write_ratio: 0.01,
        batch: None,
        salt: 0x5EAD,
    },
    Workload {
        name: "skew-write",
        transport: fabric(TransportKind::Tcp),
        write_ratio: 0.20,
        batch: None,
        salt: 0x3A17,
    },
    Workload {
        name: "udp-batched",
        transport: fabric(TransportKind::Udp),
        write_ratio: 0.05,
        batch: Some(BATCH_OPS),
        salt: 0xBA7C,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

pub fn dataset() -> Dataset {
    Dataset::new(KEYS, VALUE_SIZE)
}

/// Whether a rank belongs to the installed hot set.
pub fn is_hot_rank(rank: u64) -> bool {
    rank < HOT_KEYS
}

/// The hot set's keys, hottest first.
pub fn hot_keys() -> Vec<u64> {
    let ds = dataset();
    (0..HOT_KEYS).map(|r| ds.key_of_rank(r).0).collect()
}

/// The four latency classes an op falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    GetHot = 0,
    GetCold = 1,
    PutHot = 2,
    PutCold = 3,
}

impl Class {
    pub fn of(kind: OpKind, rank: u64) -> Class {
        match (kind, is_hot_rank(rank)) {
            (OpKind::Get, true) => Class::GetHot,
            (OpKind::Get, false) => Class::GetCold,
            (OpKind::Put, true) => Class::PutHot,
            (OpKind::Put, false) => Class::PutCold,
        }
    }

    pub fn is_put(self) -> bool {
        matches!(self, Class::PutHot | Class::PutCold)
    }
}

/// One generated operation, as the benchmark issues it.
#[derive(Debug, Clone, Copy)]
pub struct GenOp {
    pub key: u64,
    pub class: Class,
}

/// A seeded op stream for one session.
pub struct Stream {
    gen: WorkloadGen,
}

impl Stream {
    pub fn new(w: &Workload, zipf: &ZipfGenerator, seed: u64, session: u32) -> Stream {
        let stream_seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(w.salt << 20)
            .wrapping_add(u64::from(session));
        Stream {
            gen: WorkloadGen::with_shared_zipf(
                &dataset(),
                zipf.clone(),
                Mix::with_write_ratio(w.write_ratio),
                stream_seed,
            ),
        }
    }

    pub fn next_op(&mut self) -> GenOp {
        let op = self.gen.next_op();
        GenOp {
            key: op.key.0,
            class: Class::of(op.kind, op.rank),
        }
    }
}

/// The shared Zipf sampler (its O(n) normalisation is computed once).
pub fn zipf() -> ZipfGenerator {
    ZipfGenerator::new(KEYS, ZIPF)
}

/// High 16 bits of a bulk-loaded value's tag.
const INITIAL_MARK: u64 = 0x1A17;
const SEQ_BITS: u32 = 48;

/// Tag of the bulk-loaded value of `key`.
pub fn initial_tag(key: u64) -> u64 {
    (INITIAL_MARK << SEQ_BITS) | key
}

/// Tag of the `seq`-th put of `session` (session ids stay below 0x1A16).
pub fn put_tag(session: u32, seq: u64) -> u64 {
    (u64::from(session + 1) << SEQ_BITS) | (seq & ((1 << SEQ_BITS) - 1))
}

/// The 40-byte value carrying `tag` for `key`: the tag, the key, then a
/// filler derived from both.
pub fn render(key: u64, tag: u64) -> Vec<u8> {
    let mut v = vec![0u8; VALUE_SIZE];
    v[..8].copy_from_slice(&tag.to_le_bytes());
    v[8..16].copy_from_slice(&key.to_le_bytes());
    let mut x = tag ^ key.rotate_left(32);
    for chunk in v[16..].chunks_mut(8) {
        x = splitmix(x);
        chunk.copy_from_slice(&x.to_le_bytes()[..chunk.len()]);
    }
    v
}

/// The tag of a value read for `key`, if the value is well formed for that
/// key (`None` means the bytes were not rendered for `key`).
pub fn tag_of(key: u64, value: &[u8]) -> Option<u64> {
    if value.len() != VALUE_SIZE {
        return None;
    }
    let tag = u64::from_le_bytes(value[..8].try_into().expect("8 bytes"));
    (render(key, tag) == value).then_some(tag)
}

pub fn is_initial_tag(tag: u64) -> bool {
    tag >> SEQ_BITS == INITIAL_MARK
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
