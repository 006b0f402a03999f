//! Sequence databases.
//!
//! The multi-threaded driver (paper Sec. V-E) aligns one query against
//! every subject in a database, sorted by length so the dynamic
//! work-binding stays balanced. [`SeqDatabase`] owns the subjects and
//! provides the sorted view plus summary statistics.

use std::io::BufRead;

use crate::alphabet::Alphabet;
use crate::fasta::{read_fasta, FastaError};
use crate::seq::Sequence;

/// An in-memory database of subject sequences.
#[derive(Debug, Clone, Default)]
pub struct SeqDatabase {
    seqs: Vec<Sequence>,
    /// Indices of `seqs` by descending length, ties in insertion
    /// order; computed once, since the sequences never change.
    by_length: Vec<usize>,
}

/// Summary statistics of a database.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbStats {
    pub count: usize,
    pub total_residues: usize,
    pub min_len: usize,
    pub max_len: usize,
    pub mean_len: f64,
    pub median_len: usize,
}

impl SeqDatabase {
    /// Build from a vector of sequences.
    pub fn new(seqs: Vec<Sequence>) -> Self {
        let mut by_length: Vec<usize> = (0..seqs.len()).collect();
        by_length.sort_by_key(|&i| core::cmp::Reverse(seqs[i].len()));
        Self { seqs, by_length }
    }

    /// Load from FASTA.
    pub fn from_fasta<R: BufRead>(
        reader: R,
        alphabet: &'static Alphabet,
    ) -> Result<Self, FastaError> {
        Ok(Self::new(read_fasta(reader, alphabet)?))
    }

    /// Number of sequences.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// True when the database holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// All sequences in insertion order.
    pub fn sequences(&self) -> &[Sequence] {
        &self.seqs
    }

    /// Sequence by position.
    pub fn get(&self, i: usize) -> &Sequence {
        &self.seqs[i]
    }

    /// Id of the sequence at position `i`.
    ///
    /// Search hits store only the database index (no per-hit `String`
    /// allocation in the sweep's hot loop); resolve ids through this
    /// accessor when rendering results.
    pub fn id(&self, i: usize) -> &str {
        self.seqs[i].id()
    }

    /// Indices of all sequences sorted by descending length — the
    /// paper's processing order (longest first keeps the tail of a
    /// dynamic schedule short, and neighbours of like length fill the
    /// lanes of a batch). The sort is stable — equal lengths keep
    /// their insertion order — and was done once, at construction.
    pub fn length_order(&self) -> &[usize] {
        &self.by_length
    }

    /// [`length_order`](Self::length_order), copied out.
    pub fn sorted_by_length_desc(&self) -> Vec<usize> {
        self.by_length.clone()
    }

    /// Summary statistics.
    ///
    /// # Panics
    /// Panics on an empty database.
    pub fn stats(&self) -> DbStats {
        assert!(!self.is_empty(), "stats of empty database");
        let mut lens: Vec<usize> = self.seqs.iter().map(Sequence::len).collect();
        lens.sort_unstable();
        let total: usize = lens.iter().sum();
        DbStats {
            count: lens.len(),
            total_residues: total,
            min_len: lens[0],
            max_len: *lens.last().unwrap(),
            mean_len: total as f64 / lens.len() as f64,
            median_len: lens[lens.len() / 2],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> SeqDatabase {
        SeqDatabase::new(vec![
            Sequence::protein("a", b"HE").unwrap(),
            Sequence::protein("b", b"HEAGAWGHEE").unwrap(),
            Sequence::protein("c", b"PAWHEAE").unwrap(),
        ])
    }

    #[test]
    fn sorted_by_length_desc_orders_longest_first() {
        let d = db();
        let order = d.sorted_by_length_desc();
        let lens: Vec<usize> = order.iter().map(|&i| d.get(i).len()).collect();
        assert_eq!(lens, vec![10, 7, 2]);
    }

    #[test]
    fn cached_order_is_a_fresh_stable_sort() {
        // Plenty of ties: lengths 0..=4 over 40 sequences.
        let seqs: Vec<Sequence> = (0..40usize)
            .map(|i| Sequence::protein(format!("s{i}"), &b"HEAG"[..(i * 7) % 5]).unwrap())
            .collect();
        let d = SeqDatabase::new(seqs);
        let mut fresh: Vec<usize> = (0..d.len()).collect();
        fresh.sort_by_key(|&i| core::cmp::Reverse(d.get(i).len()));
        assert_eq!(d.length_order(), fresh);
        assert_eq!(d.sorted_by_length_desc(), fresh);
        for pair in d.length_order().windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let (la, lb) = (d.get(a).len(), d.get(b).len());
            assert!(la > lb || (la == lb && a < b), "ties keep insertion order");
        }
        assert!(SeqDatabase::default().length_order().is_empty());
    }

    #[test]
    fn stats_are_correct() {
        let s = db().stats();
        assert_eq!(s.count, 3);
        assert_eq!(s.total_residues, 19);
        assert_eq!(s.min_len, 2);
        assert_eq!(s.max_len, 10);
        assert_eq!(s.median_len, 7);
        assert!((s.mean_len - 19.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn from_fasta_loads_records() {
        let d =
            SeqDatabase::from_fasta(">x\nHEAG\n>y\nPAW\n".as_bytes(), &crate::alphabet::PROTEIN)
                .unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.get(1).id(), "y");
    }

    #[test]
    #[should_panic(expected = "empty database")]
    fn stats_of_empty_panics() {
        let _ = SeqDatabase::default().stats();
    }
}
