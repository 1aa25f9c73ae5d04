//! Properties of the reactor fabric's link model, checked over a fixed
//! table of seeds: conservation of bytes, a monotone and causal clock,
//! FIFO per link, and transmission time monotone in size.

use pti_net::{NetConfig, PeerId, ReactorNet, Transport};

const SEEDS: [u64; 8] = [0, 1, 2, 3, 42, 0xDEAD_BEEF, 0x9E37_79B9_7F4A_7C15, u64::MAX];
const PEERS: u32 = 4;

/// SplitMix64: a tiny deterministic generator for the send scripts.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One scripted send: `(from, to, size)`.
fn script(seed: u64) -> Vec<(PeerId, PeerId, usize)> {
    let mut rng = SplitMix64(seed);
    let len = rng.below(40) as usize;
    (0..len)
        .map(|_| {
            let from = PeerId(rng.below(u64::from(PEERS)) as u32);
            let to = PeerId(rng.below(u64::from(PEERS)) as u32);
            (from, to, rng.below(2048) as usize)
        })
        .collect()
}

fn fabric(config: NetConfig) -> ReactorNet {
    let mut net = ReactorNet::with_link(config);
    for p in 0..PEERS {
        net.register(PeerId(p));
    }
    net
}

/// Every queued byte is accounted and delivered exactly once.
#[test]
fn bytes_are_conserved() {
    for seed in SEEDS {
        let sends = script(seed);
        let mut net = fabric(NetConfig::default());
        for &(from, to, size) in &sends {
            net.send(from, to, "k", vec![0u8; size].into()).unwrap();
        }
        let expected: u64 = sends.iter().map(|s| s.2 as u64).sum();
        assert_eq!(net.metrics().bytes, expected, "seed {seed}");
        assert_eq!(net.metrics().messages, sends.len() as u64, "seed {seed}");
        let (mut delivered, mut delivered_bytes) = (0usize, 0u64);
        for p in 0..PEERS {
            while let Some(m) = net.try_recv(PeerId(p)) {
                assert_eq!(m.to, PeerId(p), "seed {seed}");
                delivered += 1;
                delivered_bytes += m.payload.len() as u64;
            }
        }
        assert_eq!(delivered, sends.len(), "seed {seed}");
        assert_eq!(delivered_bytes, expected, "seed {seed}");
    }
}

/// The virtual clock never goes backwards, and no message is received
/// before its send time plus the link latency. Sends and receives
/// interleave so messages leave at different clock values; each payload
/// carries its send time.
#[test]
fn clock_is_monotone_and_causal() {
    let cfg = NetConfig {
        latency_us: 250,
        bandwidth_bps: 1_000_000,
    };
    for seed in SEEDS {
        let mut rng = SplitMix64(!seed);
        let mut net = fabric(cfg);
        let mut last = net.now_us();
        let mut check = |net: &mut ReactorNet, p: PeerId| {
            if let Some(m) = net.try_recv(p) {
                let sent_at = u64::from_le_bytes(m.payload[..8].try_into().unwrap());
                let now = net.now_us();
                assert!(now >= last, "seed {seed}: clock went back {last} -> {now}");
                assert!(now >= sent_at + cfg.latency_us, "seed {seed}: acausal");
                last = now;
            }
        };
        for (from, to, size) in script(seed) {
            let mut payload = vec![0u8; size.max(8)];
            payload[..8].copy_from_slice(&net.now_us().to_le_bytes());
            net.send(from, to, "k", payload.into()).unwrap();
            if rng.below(3) == 0 {
                check(&mut net, PeerId(rng.below(u64::from(PEERS)) as u32));
            }
        }
        for p in 0..PEERS {
            for _ in 0..64 {
                check(&mut net, PeerId(p));
            }
        }
    }
}

/// Messages on the same `(from, to)` link arrive in send order.
#[test]
fn each_link_is_fifo() {
    for seed in SEEDS {
        let mut rng = SplitMix64(seed);
        let count = 1 + rng.below(19) as u32;
        let mut net = fabric(NetConfig::default());
        for i in 0..count {
            let mut payload = vec![0u8; rng.below(512) as usize + 4];
            payload[..4].copy_from_slice(&i.to_le_bytes());
            net.send(PeerId(1), PeerId(2), "k", payload.into()).unwrap();
        }
        let mut expected = 0u32;
        while let Some(m) = net.try_recv(PeerId(2)) {
            let idx = u32::from_le_bytes(m.payload[..4].try_into().unwrap());
            assert_eq!(idx, expected, "seed {seed}");
            expected += 1;
        }
        assert_eq!(expected, count, "seed {seed}");
    }
}

/// Transmission time grows with size and never overflows.
#[test]
fn tx_time_is_monotone_in_size() {
    let cfg = NetConfig::default();
    for seed in SEEDS {
        let mut rng = SplitMix64(seed);
        for _ in 0..64 {
            let a = rng.below(1_000_000) as usize;
            let b = rng.below(1_000_000) as usize;
            let (small, large) = (a.min(b), a.max(b));
            assert!(cfg.tx_us(small) <= cfg.tx_us(large), "seed {seed}");
        }
    }
    assert!(
        cfg.tx_us(usize::MAX) > 0,
        "saturates instead of overflowing"
    );
}
