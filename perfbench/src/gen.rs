//! Seeded inputs: the splitmix64 stream, zipf sampling, the per-client
//! request streams of the serving workloads, and the self-describing
//! payload format every pulled value is checked against.
//!
//! Everything here is a pure function of the workload and the seed, and
//! all of it runs before the timed phase starts.

/// The golden-ratio increment of splitmix64.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// splitmix64: advances `state` and returns the next output.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN);
    mix(*state)
}

/// The splitmix64 finaliser: a bijective 64-bit mixer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform sample in [0, 1).
pub fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A uniform integer in `0..n` (`n > 0`).
pub fn below(state: &mut u64, n: u64) -> u64 {
    splitmix64(state) % n
}

/// Zipf sampling over ranks `0..n` with exponent `s`, by binary search
/// over the precomputed CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The CDF over `n` ranks (`n > 0`).
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += 1.0 / (rank as f64).powf(s);
                acc
            })
            .collect();
        for p in &mut cdf {
            *p /= acc;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, state: &mut u64) -> usize {
        let u = unit(state);
        self.cdf.partition_point(|&p| p < u).min(self.cdf.len() - 1)
    }
}

/// The request types a serving client issues. A `Complete` follows each
/// winning claim and is not part of the generated stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Write a new version of an object.
    Put,
    /// Version-aware fetch of an object.
    Pull,
    /// Claim a computation at the DARR.
    Claim,
    /// Publish the result of a won claim.
    Complete,
}

impl Kind {
    /// Every kind, in reporting order.
    pub const ALL: [Kind; 4] = [Kind::Put, Kind::Pull, Kind::Claim, Kind::Complete];

    /// The lower-case name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Put => "put",
            Kind::Pull => "pull",
            Kind::Claim => "claim",
            Kind::Complete => "complete",
        }
    }

    /// Position in [`Kind::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One generated operation. `arg` depends on the kind: for a put the
/// region seed, for a pull whether the client keeps the reply as its
/// cached copy (1) or not (0), for a claim the pipeline index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// What to do.
    pub kind: Kind,
    /// Object index (the object id is `obj-{obj}`).
    pub obj: u32,
    /// Simulated client index.
    pub client: u32,
    /// Kind-specific argument, see the type documentation.
    pub arg: u32,
}

/// The shape of a serving workload's traffic and data.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Distinct objects.
    pub n_objects: usize,
    /// Bytes per object value (a multiple of [`BLOCK`]).
    pub object_bytes: usize,
    /// Zipf exponent of object popularity.
    pub zipf_s: f64,
    /// Relative weights of put, pull and claim.
    pub weights: [u32; 3],
    /// Simulated clients, split evenly over the client threads.
    pub n_clients: u32,
    /// True when each object has one writer thread and each put rewrites
    /// a small region of the current value; false when any thread writes
    /// any object with content unrelated to the previous version.
    pub region_updates: bool,
    /// Chance that a pull replaces the client's cached copy (the version
    /// it names in later pulls); 0 means pulls name no version at all.
    pub keep_prob: f64,
    /// Pipelines claimed per object version (0: one D7-style key per
    /// object rank, version-independent).
    pub pipelines: u32,
}

/// D7 resized to two client threads: 256 B values over 512 zipf(1.1)
/// objects, put 4 : pull 4 : claim 2, unrelated content per version.
pub const SERVE_WRITE: ServeSpec = ServeSpec {
    n_objects: 512,
    object_bytes: 256,
    zipf_s: 1.1,
    weights: [4, 4, 2],
    n_clients: 200_000,
    region_updates: false,
    keep_prob: 0.0,
    pipelines: 0,
};

/// Large versioned values (2048 x 4 KiB = 8 MiB live, twice the L2),
/// small region updates, lagging readers: put 1 : pull 6 : claim 3. The
/// mild skew keeps the touched set larger than the L2 as well.
pub const SERVE_READ: ServeSpec = ServeSpec {
    n_objects: 2048,
    object_bytes: 4096,
    zipf_s: 0.6,
    weights: [1, 6, 3],
    n_clients: 200_000,
    region_updates: true,
    keep_prob: 1.0 / 9.0,
    pipelines: 4,
};

/// Client threads driving the tier (the reference machine has two cores).
pub const CLIENT_THREADS: usize = 2;

/// The per-thread stream seed: distinct per (seed, thread), never zero.
fn thread_seed(seed: u64, thread: usize) -> u64 {
    mix(seed ^ mix(0x6265_6e63_6800 + thread as u64)) | 1
}

/// Generates `len` operations for client thread `thread`. With region
/// updates, a thread only writes the objects whose index has its parity,
/// so every object has exactly one writer.
pub fn stream(spec: &ServeSpec, seed: u64, thread: usize, len: usize) -> Vec<Op> {
    let mut rng = thread_seed(seed, thread);
    let zipf = Zipf::new(spec.n_objects, spec.zipf_s);
    let total: u32 = spec.weights.iter().sum();
    let per_thread = spec.n_clients / CLIENT_THREADS as u32;
    (0..len)
        .map(|_| {
            let rank = zipf.sample(&mut rng) as u32;
            let client = thread as u32 * per_thread + below(&mut rng, per_thread.into()) as u32;
            let roll = below(&mut rng, total.into()) as u32;
            let (kind, obj, arg) = if roll < spec.weights[0] {
                let obj = if spec.region_updates { (rank & !1) | thread as u32 } else { rank };
                (Kind::Put, obj, splitmix64(&mut rng) as u32)
            } else if roll < spec.weights[0] + spec.weights[1] {
                (Kind::Pull, rank, u32::from(unit(&mut rng) < spec.keep_prob))
            } else {
                let pipeline = if spec.pipelines > 0 {
                    below(&mut rng, spec.pipelines.into()) as u32
                } else {
                    0
                };
                (Kind::Claim, rank, pipeline)
            };
            Op { kind, obj, client, arg }
        })
        .collect()
}

/// Payload block size; equal to the delta codec's block, so a rewritten
/// block never shares a matchable block with its previous version.
pub const BLOCK: usize = 64;
const WORDS: usize = BLOCK / 8;
const MAGIC: u64 = u64::from_le_bytes(*b"perfbnch");

/// The filler word `word` of block `block` of object `obj` stamped `stamp`.
fn fill(obj: u64, stamp: u64, block: usize, word: usize) -> u64 {
    mix(obj.wrapping_mul(GOLDEN) ^ mix(stamp) ^ ((block as u64) << 8 | word as u64))
}

fn put_word(buf: &mut [u8], i: usize, v: u64) {
    buf[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
}

fn get_word(buf: &[u8], i: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&buf[i * 8..i * 8 + 8]);
    u64::from_le_bytes(w)
}

/// Writes the header (block 0): magic, object, stamp, block count, filler.
pub fn write_header(buf: &mut [u8], obj: u64, stamp: u64) {
    let n_blocks = (buf.len() / BLOCK) as u64;
    let head = &mut buf[..BLOCK];
    put_word(head, 0, MAGIC);
    put_word(head, 1, obj);
    put_word(head, 2, stamp);
    put_word(head, 3, n_blocks);
    for w in 4..WORDS {
        put_word(head, w, fill(obj, stamp, 0, w));
    }
}

/// Writes body block `block` (>= 1): object, stamp, filler.
pub fn write_block(buf: &mut [u8], obj: u64, stamp: u64, block: usize) {
    let b = &mut buf[block * BLOCK..(block + 1) * BLOCK];
    put_word(b, 0, obj);
    put_word(b, 1, stamp);
    for w in 2..WORDS {
        put_word(b, w, fill(obj, stamp, block, w));
    }
}

/// A whole value of `bytes` bytes with every block stamped `stamp`.
pub fn fresh_value(obj: u64, stamp: u64, bytes: usize) -> Vec<u8> {
    let mut buf = vec![0u8; bytes];
    write_header(&mut buf, obj, stamp);
    for block in 1..bytes / BLOCK {
        write_block(&mut buf, obj, stamp, block);
    }
    buf
}

/// Rewrites a contiguous region of 1-5% of `buf` (at least one block) and
/// the header with `stamp`, choosing the region from `region_seed`.
pub fn rewrite_region(buf: &mut [u8], obj: u64, stamp: u64, region_seed: u32) {
    let n_blocks = buf.len() / BLOCK;
    let mut rng = mix(u64::from(region_seed)) | 1;
    let share = 0.01 + 0.04 * unit(&mut rng);
    let len = ((buf.len() as f64 * share) / BLOCK as f64).ceil().max(1.0) as usize;
    let len = len.min(n_blocks - 1);
    let start = 1 + below(&mut rng, (n_blocks - len) as u64) as usize;
    write_header(buf, obj, stamp);
    for block in start..start + len {
        write_block(buf, obj, stamp, block);
    }
}

/// Checks a value against its self-describing header and returns the
/// header stamp. Every block must name object `obj`, carry a stamp no
/// newer than the header's, and hold exactly the filler of that stamp.
pub fn verify(buf: &[u8], obj: u64) -> Result<u64, String> {
    if buf.len() < BLOCK || !buf.len().is_multiple_of(BLOCK) {
        return Err(format!("obj-{obj}: length {} is not a whole number of blocks", buf.len()));
    }
    if get_word(buf, 0) != MAGIC || get_word(buf, 1) != obj {
        return Err(format!("obj-{obj}: header names another object or is not a header"));
    }
    let stamp = get_word(buf, 2);
    if get_word(buf, 3) != (buf.len() / BLOCK) as u64 {
        return Err(format!("obj-{obj}: header block count disagrees with length"));
    }
    if (4..WORDS).any(|w| get_word(buf, w) != fill(obj, stamp, 0, w)) {
        return Err(format!("obj-{obj}: header filler corrupt"));
    }
    for block in 1..buf.len() / BLOCK {
        let b = &buf[block * BLOCK..(block + 1) * BLOCK];
        let s = get_word(b, 1);
        if get_word(b, 0) != obj || s > stamp {
            return Err(format!("obj-{obj}: block {block} is foreign or newer than the header"));
        }
        if (2..WORDS).any(|w| get_word(b, w) != fill(obj, s, block, w)) {
            return Err(format!("obj-{obj}: block {block} filler corrupt"));
        }
    }
    Ok(stamp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_streams() {
        for spec in [&SERVE_WRITE, &SERVE_READ] {
            for thread in 0..CLIENT_THREADS {
                assert_eq!(stream(spec, 7, thread, 5000), stream(spec, 7, thread, 5000));
            }
        }
    }

    #[test]
    fn different_seeds_or_threads_give_different_streams() {
        for spec in [&SERVE_WRITE, &SERVE_READ] {
            assert_ne!(stream(spec, 7, 0, 5000), stream(spec, 8, 0, 5000));
            assert_ne!(stream(spec, 7, 0, 5000), stream(spec, 7, 1, 5000));
        }
    }

    #[test]
    fn op_mix_matches_weights() {
        for spec in [&SERVE_WRITE, &SERVE_READ] {
            let ops = stream(spec, 11, 0, 100_000);
            let total: u32 = spec.weights.iter().sum();
            for (i, kind) in [Kind::Put, Kind::Pull, Kind::Claim].into_iter().enumerate() {
                let share = ops.iter().filter(|o| o.kind == kind).count() as f64 / 1e5;
                let want = f64::from(spec.weights[i]) / f64::from(total);
                assert!((share - want).abs() < 0.01, "{kind:?}: {share} vs {want}");
            }
        }
    }

    #[test]
    fn region_writers_own_their_parity() {
        for thread in 0..CLIENT_THREADS {
            let ops = stream(&SERVE_READ, 3, thread, 20_000);
            assert!(ops
                .iter()
                .filter(|o| o.kind == Kind::Put)
                .all(|o| o.obj as usize % 2 == thread && (o.obj as usize) < SERVE_READ.n_objects));
        }
    }

    #[test]
    fn zipf_is_skewed_towards_low_ranks() {
        let z = Zipf::new(512, 1.1);
        let mut rng = 5;
        let mut counts = vec![0usize; 512];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > 10 * counts[255].max(1), "{:?}", &counts[..4]);
    }

    #[test]
    fn values_verify_and_tampering_is_caught() {
        let mut v = fresh_value(9, 1, 4096);
        assert_eq!(verify(&v, 9), Ok(1));
        assert!(verify(&v, 8).is_err(), "another object's value must not verify");
        rewrite_region(&mut v, 9, 2, 77);
        assert_eq!(verify(&v, 9), Ok(2));
        let changed = fresh_value(9, 1, 4096).iter().zip(&v).filter(|(a, b)| a != b).count();
        assert!(changed <= BLOCK * 5, "a region update touches few blocks: {changed}");
        v[700] ^= 1;
        assert!(verify(&v, 9).is_err(), "a flipped bit must be caught");
    }

    #[test]
    fn unrelated_versions_share_no_block() {
        let a = fresh_value(3, 10, 256);
        let b = fresh_value(3, 11, 256);
        for (x, y) in a.chunks(BLOCK).zip(b.chunks(BLOCK)) {
            assert_ne!(x, y);
        }
    }
}
