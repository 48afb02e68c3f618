#![allow(clippy::unwrap_used, clippy::expect_used)]

use mmm_align::{Engine, Scoring, Width};
use std::time::Instant;

fn main() {
    let n = 4000usize;
    let mut state = 42u64;
    let mut rnd = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) as usize
    };
    let t: Vec<u8> = (0..n).map(|_| (rnd() % 4) as u8).collect();
    let mut q = t.clone();
    for _ in 0..n / 8 {
        let p = rnd() % q.len();
        match rnd() % 3 {
            0 => q[p] = (rnd() % 4) as u8,
            1 => q.insert(p, (rnd() % 4) as u8),
            _ => {
                q.remove(p);
            }
        }
    }
    let sc = Scoring::MAP_ONT;
    for e in Engine::all() {
        if !e.is_available() || e.width == Width::Scalar {
            continue;
        }
        // median of 5 batches of 8 reps
        let mut samples = Vec::new();
        for _ in 0..5 {
            let start = Instant::now();
            for _ in 0..8 {
                std::hint::black_box(e.align(&t, &q, &sc, false));
            }
            samples.push(start.elapsed().as_secs_f64() / 8.0);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let el = samples[2];
        let gcups = (t.len() as f64 * q.len() as f64) / el / 1e9;
        println!("{:22} {:8.3} GCUPS", e.label(), gcups);
    }
}
