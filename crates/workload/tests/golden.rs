//! Pins the generator's output: `RandomExecution` on six shapes and three
//! seeds, each hashed over its intervals, completion order, message count
//! and replayed event stamps. The expected values were taken from the
//! generator that stored one clock per event, so a change to how events
//! are recorded or replayed must reproduce them bit for bit.

use ftscp_workload::{Execution, RandomExecution};

/// 64-bit FNV-1a, written out so the pins do not depend on std's hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn clock(&mut self, components: &[u32]) {
        self.u64(components.len() as u64);
        for &c in components {
            self.bytes(&c.to_le_bytes());
        }
    }
}

fn digest(exec: &Execution) -> u64 {
    let mut h = Fnv::new();
    h.u64(exec.n as u64);
    h.u64(exec.messages);
    for seq in &exec.intervals {
        h.u64(seq.len() as u64);
        for iv in seq {
            h.u64(u64::from(iv.source.0));
            h.u64(iv.seq);
            h.clock(iv.lo.components());
            h.clock(iv.hi.components());
        }
    }
    h.u64(exec.completion_order.len() as u64);
    for &(p, seq) in &exec.completion_order {
        h.u64(u64::from(p.0));
        h.u64(seq);
    }
    for history in exec.events() {
        h.u64(history.len() as u64);
        for e in history {
            h.clock(e.vc.components());
            h.u64(u64::from(e.pred));
        }
    }
    h.0
}

/// `(name, generator without its seed)`.
fn shapes() -> Vec<(&'static str, RandomExecution)> {
    vec![
        (
            "n4_r300",
            RandomExecution::builder(4).intervals_per_process(300),
        ),
        (
            "n64_r6",
            RandomExecution::builder(64).intervals_per_process(6),
        ),
        (
            "n256_r2",
            RandomExecution::builder(256).intervals_per_process(2),
        ),
        (
            "n32_r10_skip_solo",
            RandomExecution::builder(32)
                .intervals_per_process(10)
                .skip_prob(0.3)
                .solo_prob(0.2),
        ),
        (
            "n16_r12_heavy_noise",
            RandomExecution::builder(16)
                .intervals_per_process(12)
                .skip_prob(0.2)
                .solo_prob(0.2)
                .noise_events(4)
                .noise_msg_prob(0.8),
        ),
        (
            "n7_r400_noisy",
            RandomExecution::builder(7)
                .intervals_per_process(400)
                .noise_events(4)
                .noise_msg_prob(0.8),
        ),
    ]
}

const SEEDS: [u64; 3] = [1, 7, 11];

const EXPECTED: [(&str, [u64; 3]); 6] = [
    (
        "n4_r300",
        [0xbcc33c8ece647596, 0x9adaa7031feb660c, 0xa0b53ecc67a625af],
    ),
    (
        "n64_r6",
        [0x25a56e3f50703f16, 0xa185962384f0c26e, 0x90fe449a603a1cbb],
    ),
    (
        "n256_r2",
        [0x5ad3d1ae19a99f32, 0x6421ebc9c7614ac2, 0xe490b69f88c54ea2],
    ),
    (
        "n32_r10_skip_solo",
        [0x0cbafdab339114bb, 0xd2bb288a98d5d3f7, 0x3df7087f99431246],
    ),
    (
        "n16_r12_heavy_noise",
        [0xa88564bf3439e1c6, 0xc02e807f9f88fa44, 0xe1556c95438e7d86],
    ),
    (
        "n7_r400_noisy",
        [0x48044a1d4efac084, 0xe0570c339236d835, 0xa72acdafdb53a20f],
    ),
];

#[test]
fn generator_output_is_pinned() {
    let got: Vec<(&str, [u64; 3])> = shapes()
        .into_iter()
        .map(|(name, gen)| {
            let d = SEEDS.map(|s| {
                let exec = gen.clone().seed(s).build();
                exec.validate().unwrap();
                digest(&exec)
            });
            (name, d)
        })
        .collect();
    assert_eq!(got, EXPECTED.to_vec());
}
