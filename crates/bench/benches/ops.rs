//! Word-level operator kernels vs the retained scalar reference loops.
//!
//! Measures the binary-genome hot paths before/after the word-level rewrite
//! in one run on one machine: uniform crossover (per-word Bernoulli masks vs
//! per-bit `chance` draws), bit-flip mutation at the canonical `p = 1/len`
//! rate (geometric skip sampling vs the per-bit loop), the end-to-end
//! cellular step cost with each operator family plugged in, and the
//! block-scored fitness functions (trap-4×32 and royal-road-8×16: the
//! full-block word kernel vs the per-bit reference loops).
//!
//! Prints a table and writes `results/BENCH_ops.json`; the verify gate
//! asserts every recorded speedup is >= 2x. Run with `cargo bench --bench ops`.

use pga_analysis::{table::fmt_f64, Table};
use pga_cellular::{CellularGa, UpdatePolicy};
use pga_core::ops::crossover::{Crossover, Uniform};
use pga_core::ops::mutation::{BitFlip, Mutation};
use pga_core::ops::scalar::{ScalarBitFlip, ScalarUniform};
use pga_core::{BitString, Engine, Problem, Rng64};
use pga_problems::{scalar, DeceptiveTrap, OneMax, RoyalRoad};
use std::hint::black_box;
use std::time::{Duration, Instant};

const LENS: [usize; 2] = [128, 1024];
const GRID: usize = 32;

/// Mean wall-clock per call in nanoseconds: warm up, then time batches
/// of calls until 60 ms have accumulated. A batch lasts about 20 µs, so
/// the two clock reads around it do not weigh on a call of a few
/// nanoseconds.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let warm = Instant::now();
    for _ in 0..64 {
        f();
    }
    let per_call = warm.elapsed().as_secs_f64() / 64.0;
    let batch = ((20e-6 / per_call.max(1e-9)) as u32).clamp(1, 4096);
    let mut total = Duration::ZERO;
    let mut calls = 0u64;
    while total < Duration::from_millis(60) {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        total += t0.elapsed();
        calls += u64::from(batch);
    }
    total.as_secs_f64() * 1e9 / calls as f64
}

struct Entry {
    op: String,
    len: usize,
    scalar_ns: f64,
    word_ns: f64,
}

impl Entry {
    fn speedup(&self) -> f64 {
        self.scalar_ns / self.word_ns
    }
}

fn cellular(len: usize, word: bool) -> CellularGa<OneMax> {
    let builder = CellularGa::builder(OneMax::new(len))
        .grid(GRID, GRID)
        // Asynchronous line sweep: sequential cell updates, so the
        // measurement contrasts operator kernels without rayon noise.
        .update_policy(UpdatePolicy::LineSweep)
        .seed(7);
    let builder = if word {
        builder
            .crossover(Uniform::half())
            .mutation(BitFlip::one_over_len(len))
    } else {
        builder
            .crossover(ScalarUniform::half())
            .mutation(ScalarBitFlip::one_over_len(len))
    };
    builder.build().expect("valid config")
}

fn main() {
    let mut rng = Rng64::new(2026);
    let mut entries: Vec<Entry> = Vec::new();
    let mut table = Table::new(vec!["op", "len", "scalar ns", "word ns", "speedup"])
        .with_title("Binary operator kernels: scalar reference vs word-level (mean ns/call)");

    for len in LENS {
        let a = BitString::random(len, &mut rng);
        let b = BitString::random(len, &mut rng);

        // Uniform crossover, p = 0.5 (one random word per genome word).
        let scalar_ns = {
            let op = ScalarUniform::half();
            let mut r = Rng64::new(11);
            time_ns(|| {
                let _ = op.crossover(&a, &b, &mut r);
            })
        };
        let word_ns = {
            let op = Uniform::half();
            let mut r = Rng64::new(11);
            time_ns(|| {
                let _ = op.crossover(&a, &b, &mut r);
            })
        };
        entries.push(Entry {
            op: "uniform-crossover".into(),
            len,
            scalar_ns,
            word_ns,
        });

        // Bit-flip mutation at the canonical 1/len rate (sparse regime:
        // geometric skip sampling vs a per-bit Bernoulli loop).
        let mut g = BitString::random(len, &mut rng);
        let scalar_ns = {
            let op = ScalarBitFlip::one_over_len(len);
            let mut r = Rng64::new(13);
            time_ns(|| op.mutate(&mut g, &mut r))
        };
        let word_ns = {
            let op = BitFlip::one_over_len(len);
            let mut r = Rng64::new(13);
            time_ns(|| op.mutate(&mut g, &mut r))
        };
        entries.push(Entry {
            op: "bit-flip".into(),
            len,
            scalar_ns,
            word_ns,
        });

        // End-to-end cellular generation (32x32 grid, line sweep) with each
        // operator family plugged into the same engine.
        let scalar_ns = {
            let mut cga = cellular(len, false);
            time_ns(|| {
                let _ = cga.step();
            })
        };
        let word_ns = {
            let mut cga = cellular(len, true);
            time_ns(|| {
                let _ = cga.step();
            })
        };
        entries.push(Entry {
            op: "cellular-step-32x32".into(),
            len,
            scalar_ns,
            word_ns,
        });
    }

    // Block-scored fitness on one 128-bit genome: the word kernel each
    // problem evaluates with vs the per-bit loop it replaced.
    let g = BitString::random(128, &mut rng);
    let trap = DeceptiveTrap::new(4, 32);
    let road = RoyalRoad::new(8, 16);
    for (op, scalar_ns, word_ns) in [
        (
            "trap-4x32",
            time_ns(|| {
                black_box(scalar::trap(4, 32, black_box(&g)));
            }),
            time_ns(|| {
                black_box(trap.evaluate(black_box(&g)));
            }),
        ),
        (
            "royal-road-8x16",
            time_ns(|| {
                black_box(scalar::royal_road(8, 16, black_box(&g)));
            }),
            time_ns(|| {
                black_box(road.evaluate(black_box(&g)));
            }),
        ),
    ] {
        entries.push(Entry {
            op: op.into(),
            len: g.len(),
            scalar_ns,
            word_ns,
        });
    }

    for e in &entries {
        table.row(vec![
            e.op.clone(),
            e.len.to_string(),
            fmt_f64(e.scalar_ns, 1),
            fmt_f64(e.word_ns, 1),
            format!("{}x", fmt_f64(e.speedup(), 2)),
        ]);
    }
    println!("{}", table.render());

    let json = render_json(&entries);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_ops.json");
    std::fs::write(path, &json).expect("write BENCH_ops.json");
    println!("wrote {path}");

    let slow = entries.iter().filter(|e| e.speedup() < 2.0).count();
    println!(
        "{}/{} kernels at >= 2x over the scalar reference",
        entries.len() - slow,
        entries.len()
    );
}

fn render_json(entries: &[Entry]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"pass_criterion\": \"speedup >= 2.0 on every entry\",\n");
    out.push_str(&format!("  \"grid\": \"{GRID}x{GRID}\",\n"));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"op\": \"{}\", \"len\": {}, \"scalar_ns\": {:.1}, \
             \"word_ns\": {:.1}, \"speedup\": {:.2}}}{}\n",
            e.op,
            e.len,
            e.scalar_ns,
            e.word_ns,
            e.speedup(),
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
