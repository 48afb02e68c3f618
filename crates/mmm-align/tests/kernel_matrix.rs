//! Integration matrix over the whole kernel zoo: every engine × both
//! outputs on workloads shaped like real inter-anchor fills.
// Drives every available SIMD tier, which Miri cannot execute.
#![cfg(not(miri))]

use mmm_align::{Engine, Scoring};

fn fill_like_pair(len: usize, indel_every: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let mut s = seed | 1;
    let mut rnd = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        (s >> 33) as usize
    };
    let t: Vec<u8> = (0..len).map(|_| (rnd() % 4) as u8).collect();
    let mut q = t.clone();
    let mut i = indel_every.max(2);
    while i < q.len() {
        match rnd() % 3 {
            0 => q[i] = (q[i] + 1) % 4,
            1 => q.insert(i, (rnd() % 4) as u8),
            _ => {
                q.remove(i);
            }
        }
        i += indel_every.max(2);
    }
    (t, q)
}

#[test]
fn all_engines_agree_on_fill_workloads() {
    let sc = Scoring::MAP_ONT;
    let engines: Vec<Engine> = Engine::all()
        .into_iter()
        .filter(|e| e.is_available())
        .collect();
    assert!(engines.len() >= 2);
    for (len, every, seed) in [(137usize, 9usize, 1u64), (512, 17, 2), (1201, 31, 3)] {
        let (t, q) = fill_like_pair(len, every, seed);
        for with_path in [false, true] {
            let gold = engines[0].align(&t, &q, &sc, with_path);
            for e in &engines[1..] {
                let r = e.align(&t, &q, &sc, with_path);
                assert_eq!(r, gold, "{} len={len} path={with_path}", e.label());
            }
        }
    }
}

#[test]
fn gcups_accounting_is_cells_based() {
    let (t, q) = fill_like_pair(256, 11, 6);
    let r = mmm_align::best_engine().align(&t, &q, &Scoring::MAP_ONT, false);
    assert_eq!(r.cells, t.len() as u64 * q.len() as u64);
    assert!(r.gcups(1.0) > 0.0);
}
