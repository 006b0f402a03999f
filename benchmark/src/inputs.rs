//! Seeded inputs: three databases, their planted homologs, and the
//! query pools. The crates under test receive only the FASTA text and
//! the query letters produced here.
//!
//! Every database is fitted to a fixed residue total, so the cells per
//! op — and with them `search_p50_ms` — do not wander with the seed.

use crate::rng::{fnv64, fnv64_extend, Rng};

/// Residue alphabet of a workload's sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alpha {
    Protein,
    Dna,
}

/// One pool query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub id: String,
    pub letters: String,
}

/// Everything one workload feeds the program.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub alpha: Alpha,
    pub db_fasta: String,
    pub db_subjects: usize,
    pub db_residues: usize,
    pub pool: Vec<Query>,
    /// FNV-1a over the FASTA text and every pool query: two commits
    /// that print the same value ran identical bytes.
    pub fnv64: u64,
}

const AMINO: &[u8; 20] = b"ARNDCQEGHILKMFPSTWYV";
/// Robinson & Robinson (1991) background frequencies, in `AMINO` order.
const AMINO_FREQ: [f64; 20] = [
    0.07805, 0.05129, 0.04487, 0.05364, 0.01925, 0.04264, 0.06295, 0.07377, 0.02199, 0.05142,
    0.09019, 0.05744, 0.02243, 0.03856, 0.05203, 0.07120, 0.05841, 0.01330, 0.03216, 0.06441,
];
const BASES: &[u8; 4] = b"ACGT";

const DB_PROT_SUBJECTS: usize = 2000;
const DB_SMALL_SUBJECTS: usize = 250;
const PROT_MEAN_LEN: usize = 360;
const PROT_MIN_LEN: usize = 20;
const DB_DNA_SUBJECTS: usize = 1000;
const DNA_MIN_LEN: usize = 400;
const DNA_MAX_LEN: usize = 1000;
const READ_LEN: usize = 48;

/// Inputs of the named workload, or `None` for an unknown name.
pub fn for_workload(name: &str, seed: u64) -> Option<Inputs> {
    let inputs = match name {
        "prot_long" | "prot_short" => {
            let (long, short) = (q1000(seed), q60(seed));
            let db = db_prot(seed, &long, &short);
            let pool = if name == "prot_long" { long } else { short };
            assemble(Alpha::Protein, &db, pool)
        }
        "serve_http" | "shard2" => {
            let short = q60(seed);
            assemble(Alpha::Protein, &db_small(seed, &short), short)
        }
        "dna_i8" => {
            let db = db_dna(seed);
            let reads = dna_reads(seed, &db, 8);
            assemble(Alpha::Dna, &db, reads)
        }
        _ => return None,
    };
    Some(inputs)
}

/// The 2 000-subject protein database on its own (`shard.launch_big_ms`
/// launches over it whatever the workload).
pub fn db_prot_fasta(seed: u64) -> String {
    fasta_text(&db_prot(seed, &q1000(seed), &q60(seed)))
}

fn q1000(seed: u64) -> Vec<Query> {
    protein_pool(seed, "Q1000", 1000, 4)
}

fn q60(seed: u64) -> Vec<Query> {
    protein_pool(seed, "Q60", 60, 4)
}

fn assemble(alpha: Alpha, db: &[Vec<u8>], pool: Vec<Query>) -> Inputs {
    let db_fasta = fasta_text(db);
    let mut sum = fnv64(db_fasta.as_bytes());
    for q in &pool {
        sum = fnv64_extend(sum, q.letters.as_bytes());
    }
    Inputs {
        alpha,
        db_subjects: db.len(),
        db_residues: db.iter().map(Vec::len).sum(),
        db_fasta,
        pool,
        fnv64: sum,
    }
}

fn fasta_text(db: &[Vec<u8>]) -> String {
    let mut text = String::with_capacity(db.iter().map(|s| s.len() + s.len() / 60 + 12).sum());
    for (i, seq) in db.iter().enumerate() {
        text.push_str(&format!(">s{i:05}\n"));
        for line in seq.chunks(60) {
            text.push_str(std::str::from_utf8(line).expect("generated letters are ASCII"));
            text.push('\n');
        }
    }
    text
}

fn amino(rng: &mut Rng) -> u8 {
    let mut u = rng.unit();
    for (letter, freq) in AMINO.iter().zip(AMINO_FREQ) {
        if u < freq {
            return *letter;
        }
        u -= freq;
    }
    AMINO[19]
}

fn random_protein(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| amino(rng)).collect()
}

fn protein_pool(seed: u64, label: &str, len: usize, count: usize) -> Vec<Query> {
    let mut rng = Rng::stream(seed, label);
    (0..count)
        .map(|i| Query {
            id: format!("{label}_{i}"),
            letters: String::from_utf8(random_protein(&mut rng, len)).expect("ASCII"),
        })
        .collect()
}

/// A homolog of `source`: each residue kept with a probability drawn
/// from 60–90 %, then 10–100 unrelated residues on each side.
fn homolog(rng: &mut Rng, source: &[u8]) -> Vec<u8> {
    let identity = 0.60 + 0.30 * rng.unit();
    let mut out = Vec::with_capacity(source.len() + 200);
    let left = rng.between(10, 100);
    out.extend((0..left).map(|_| amino(rng)));
    for &residue in source {
        out.push(if rng.unit() < identity {
            residue
        } else {
            amino(rng)
        });
    }
    let right = rng.between(10, 100);
    out.extend((0..right).map(|_| amino(rng)));
    out
}

/// Gamma(shape 2) length with the given mean.
fn gamma2_len(rng: &mut Rng, mean: usize) -> usize {
    let half = mean as f64 / 2.0;
    let draw = -half * ((1.0 - rng.unit()).ln() + (1.0 - rng.unit()).ln());
    draw.round() as usize
}

/// Scale `lens` so they sum to `target`, every length inside
/// `min..=max`, then settle the rounding remainder one residue at a
/// time in index order.
pub fn fit_total(lens: &mut [usize], target: usize, min: usize, max: usize) {
    assert!(
        (lens.len() * min..=lens.len() * max).contains(&target),
        "target {target} unreachable with {} lengths in {min}..={max}",
        lens.len()
    );
    let sum: usize = lens.iter().sum();
    let scale = target as f64 / sum.max(1) as f64;
    for len in lens.iter_mut() {
        *len = ((*len as f64 * scale).round() as usize).clamp(min, max);
    }
    let mut sum: usize = lens.iter().sum();
    let mut i = 0;
    while sum != target {
        let len = &mut lens[i % lens.len()];
        if sum < target && *len < max {
            *len += 1;
            sum += 1;
        } else if sum > target && *len > min {
            *len -= 1;
            sum -= 1;
        }
        i += 1;
    }
}

fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// `subjects` protein sequences totalling exactly `subjects ×
/// PROT_MEAN_LEN` residues: `per_query` homologs of each query at
/// seeded positions among gamma-length background sequences.
fn protein_db(
    seed: u64,
    label: &str,
    subjects: usize,
    queries: &[&Query],
    per_query: usize,
) -> Vec<Vec<u8>> {
    let mut rng = Rng::stream(seed, label);
    let mut db: Vec<Vec<u8>> = Vec::with_capacity(subjects);
    for q in queries {
        for _ in 0..per_query {
            db.push(homolog(&mut rng, q.letters.as_bytes()));
        }
    }
    let planted: usize = db.iter().map(Vec::len).sum();
    let mut lens: Vec<usize> = (db.len()..subjects)
        .map(|_| gamma2_len(&mut rng, PROT_MEAN_LEN).max(PROT_MIN_LEN))
        .collect();
    fit_total(
        &mut lens,
        subjects * PROT_MEAN_LEN - planted,
        PROT_MIN_LEN,
        usize::MAX / subjects,
    );
    for len in lens {
        db.push(random_protein(&mut rng, len));
    }
    shuffle(&mut rng, &mut db);
    db
}

fn db_prot(seed: u64, long: &[Query], short: &[Query]) -> Vec<Vec<u8>> {
    let queries: Vec<&Query> = long.iter().chain(short).collect();
    protein_db(seed, "db_prot", DB_PROT_SUBJECTS, &queries, 10)
}

fn db_small(seed: u64, short: &[Query]) -> Vec<Vec<u8>> {
    let queries: Vec<&Query> = short.iter().collect();
    protein_db(seed, "db_small", DB_SMALL_SUBJECTS, &queries, 2)
}

fn db_dna(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng::stream(seed, "db_dna");
    let mut lens: Vec<usize> = (0..DB_DNA_SUBJECTS)
        .map(|_| rng.between(DNA_MIN_LEN, DNA_MAX_LEN))
        .collect();
    fit_total(
        &mut lens,
        DB_DNA_SUBJECTS * (DNA_MIN_LEN + DNA_MAX_LEN) / 2,
        DNA_MIN_LEN,
        DNA_MAX_LEN,
    );
    lens.into_iter()
        .map(|len| (0..len).map(|_| BASES[rng.below(4)]).collect())
        .collect()
}

/// 48-nt windows of seeded subjects, each base replaced by a different
/// one with probability 5 %.
fn dna_reads(seed: u64, db: &[Vec<u8>], count: usize) -> Vec<Query> {
    let mut rng = Rng::stream(seed, "R48");
    (0..count)
        .map(|i| {
            let subject = &db[rng.below(db.len())];
            let start = rng.below(subject.len() - READ_LEN + 1);
            let letters: Vec<u8> = subject[start..start + READ_LEN]
                .iter()
                .map(|&base| {
                    if rng.unit() < 0.05 {
                        let at = BASES.iter().position(|&b| b == base).expect("a base");
                        BASES[(at + 1 + rng.below(3)) % 4]
                    } else {
                        base
                    }
                })
                .collect();
            Query {
                id: format!("R48_{i}"),
                letters: String::from_utf8(letters).expect("ASCII"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: [&str; 5] = ["prot_long", "prot_short", "dna_i8", "serve_http", "shard2"];

    #[test]
    fn the_same_seed_gives_the_same_bytes_and_another_seed_does_not() {
        for name in NAMES {
            let a = for_workload(name, 42).unwrap();
            let b = for_workload(name, 42).unwrap();
            let c = for_workload(name, 43).unwrap();
            assert_eq!(a.db_fasta, b.db_fasta, "{name}");
            assert_eq!(a.pool, b.pool, "{name}");
            assert_eq!(a.fnv64, b.fnv64, "{name}");
            assert_ne!(a.fnv64, c.fnv64, "{name}");
        }
    }

    #[test]
    fn databases_hit_their_fixed_sizes_on_every_seed() {
        for seed in [1, 42, 977] {
            let prot = for_workload("prot_long", seed).unwrap();
            assert_eq!((prot.db_subjects, prot.db_residues), (2000, 720_000));
            assert!(prot.pool.iter().all(|q| q.letters.len() == 1000));
            let small = for_workload("shard2", seed).unwrap();
            assert_eq!((small.db_subjects, small.db_residues), (250, 90_000));
            assert!(small.pool.iter().all(|q| q.letters.len() == 60));
            let dna = for_workload("dna_i8", seed).unwrap();
            assert_eq!((dna.db_subjects, dna.db_residues), (1000, 700_000));
            assert_eq!(dna.pool.len(), 8);
            assert!(dna.pool.iter().all(|q| q.letters.len() == 48));
        }
    }

    #[test]
    fn workloads_that_share_a_database_get_the_same_one() {
        let long = for_workload("prot_long", 42).unwrap();
        let short = for_workload("prot_short", 42).unwrap();
        assert_eq!(long.db_fasta, short.db_fasta);
        assert_eq!(long.db_fasta, db_prot_fasta(42));
        let http = for_workload("serve_http", 42).unwrap();
        let shard = for_workload("shard2", 42).unwrap();
        assert_eq!(http.db_fasta, shard.db_fasta);
        assert_eq!(http.pool, short.pool);
    }

    #[test]
    fn fit_total_respects_bounds_and_target() {
        let mut lens = vec![400, 1000, 700, 650, 999];
        fit_total(&mut lens, 3500, 400, 1000);
        assert_eq!(lens.iter().sum::<usize>(), 3500);
        assert!(lens.iter().all(|l| (400..=1000).contains(l)));
    }

    #[test]
    fn unknown_workloads_have_no_inputs() {
        assert!(for_workload("prot_medium", 42).is_none());
    }
}
