//! The benchmark's own naive oracle: full scans over rows, with the
//! canonical `(diff, pid)` tie-break. Every served answer is compared
//! with these bit for bit.

use std::collections::HashMap;
use std::thread;

use knmatch_core::{
    BatchAnswer, BatchQuery, Dataset, FrequentEntry, FrequentResult, KnMatchResult, MatchEntry,
    PointId,
};

/// Widest point the stack buffers hold.
const MAX_DIMS: usize = 32;

/// The `n`-match difference of `p` against `q`: the n-th smallest
/// per-dimension `|p_i − q_i|`.
pub fn nth_diff(p: &[f64], q: &[f64], n: usize) -> f64 {
    debug_assert!(p.len() == q.len() && p.len() <= MAX_DIMS && (1..=p.len()).contains(&n));
    let mut buf = [0.0f64; MAX_DIMS];
    let buf = &mut buf[..p.len()];
    for ((b, a), c) in buf.iter_mut().zip(p).zip(q) {
        *b = (a - c).abs();
    }
    if n == 1 {
        return buf.iter().copied().fold(f64::INFINITY, f64::min);
    }
    *buf.select_nth_unstable_by(n - 1, f64::total_cmp).1
}

/// The k smallest `(diff, pid)` pairs offered so far, ascending.
struct Best {
    k: usize,
    entries: Vec<MatchEntry>,
}

impl Best {
    fn new(k: usize) -> Self {
        Best {
            k,
            entries: Vec::with_capacity(k + 1),
        }
    }

    fn before(a: &MatchEntry, b: &MatchEntry) -> bool {
        a.diff.total_cmp(&b.diff).then(a.pid.cmp(&b.pid)).is_lt()
    }

    fn offer(&mut self, pid: PointId, diff: f64) {
        let e = MatchEntry { pid, diff };
        if self.entries.len() == self.k && !Self::before(&e, &self.entries[self.k - 1]) {
            return;
        }
        let at = self.entries.partition_point(|x| Self::before(x, &e));
        self.entries.insert(at, e);
        self.entries.truncate(self.k);
    }

    /// The k-th best difference once k entries are held.
    fn worst(&self) -> Option<f64> {
        (self.entries.len() == self.k).then(|| self.entries[self.k - 1].diff)
    }

    fn into_result(self, n: usize) -> KnMatchResult {
        KnMatchResult {
            n,
            entries: self.entries,
        }
    }
}

/// Rows as `(pid, coordinates)`; `pid` is the id answers carry.
pub trait Rows: Sync {
    fn for_each_row(&self, f: &mut dyn FnMut(PointId, &[f64]));
}

impl Rows for Dataset {
    fn for_each_row(&self, f: &mut dyn FnMut(PointId, &[f64])) {
        for (pid, p) in self.iter() {
            f(pid, p);
        }
    }
}

/// Whether fewer than `n` dimensions of `p` lie within `bound` of `q`,
/// i.e. whether `p`'s n-match difference exceeds `bound` — a cheap
/// rejection before the exact selection.
fn beyond(p: &[f64], q: &[f64], n: usize, bound: f64) -> bool {
    let within: usize = p
        .iter()
        .zip(q)
        .map(|(a, c)| usize::from((a - c).abs() <= bound))
        .sum();
    within < n
}

/// The k-n-match answer.
pub fn k_n_match(rows: &dyn Rows, q: &[f64], k: usize, n: usize) -> KnMatchResult {
    let mut best = Best::new(k);
    rows.for_each_row(&mut |pid, p| {
        if best.worst().is_some_and(|w| beyond(p, q, n, w)) {
            return;
        }
        best.offer(pid, nth_diff(p, q, n));
    });
    best.into_result(n)
}

/// The frequent k-n-match answer over `n ∈ [n0, n1]`: per-n answer sets,
/// then the k points appearing in most of them (count descending, pid
/// ascending).
pub fn frequent(rows: &dyn Rows, q: &[f64], k: usize, n0: usize, n1: usize) -> FrequentResult {
    let mut per_n: Vec<Best> = (n0..=n1).map(|_| Best::new(k)).collect();
    rows.for_each_row(&mut |pid, p| {
        let mut buf = [0.0f64; MAX_DIMS];
        let buf = &mut buf[..p.len()];
        for ((b, a), c) in buf.iter_mut().zip(p).zip(q) {
            *b = (a - c).abs();
        }
        buf.sort_unstable_by(f64::total_cmp);
        for (i, best) in per_n.iter_mut().enumerate() {
            best.offer(pid, buf[n0 + i - 1]);
        }
    });
    let per_n: Vec<KnMatchResult> = per_n
        .into_iter()
        .enumerate()
        .map(|(i, b)| b.into_result(n0 + i))
        .collect();
    let mut counts: HashMap<PointId, u32> = HashMap::new();
    for e in per_n.iter().flat_map(|r| &r.entries) {
        *counts.entry(e.pid).or_default() += 1;
    }
    let mut entries: Vec<FrequentEntry> = counts
        .into_iter()
        .map(|(pid, count)| FrequentEntry { pid, count })
        .collect();
    entries.sort_unstable_by(|a, b| b.count.cmp(&a.count).then(a.pid.cmp(&b.pid)));
    entries.truncate(k);
    FrequentResult {
        range: (n0, n1),
        entries,
        per_n,
    }
}

/// The ε-n-match answer: every point whose n-match difference is at
/// most `eps`, ascending.
pub fn eps_match(rows: &dyn Rows, q: &[f64], eps: f64, n: usize) -> KnMatchResult {
    let mut entries = Vec::new();
    rows.for_each_row(&mut |pid, p| {
        if beyond(p, q, n, eps) {
            return;
        }
        let diff = nth_diff(p, q, n);
        if diff <= eps {
            entries.push(MatchEntry { pid, diff });
        }
    });
    entries.sort_unstable_by(|a, b| a.diff.total_cmp(&b.diff).then(a.pid.cmp(&b.pid)));
    KnMatchResult { n, entries }
}

/// The answer to any query kind.
pub fn answer(rows: &dyn Rows, q: &BatchQuery) -> BatchAnswer {
    match q {
        BatchQuery::KnMatch { query, k, n } => BatchAnswer::KnMatch(k_n_match(rows, query, *k, *n)),
        BatchQuery::Frequent { query, k, n0, n1 } => {
            BatchAnswer::Frequent(frequent(rows, query, *k, *n0, *n1))
        }
        BatchQuery::EpsMatch { query, eps, n } => {
            BatchAnswer::EpsMatch(eps_match(rows, query, *eps, *n))
        }
    }
}

/// Maps `f` over `items` on `threads` scoped threads, keeping order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| s.spawn(|| part.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use knmatch_core::{frequent_k_n_match_scan, k_n_match_scan};

    #[test]
    fn agrees_with_the_library_scans() {
        let ds = knmatch_data::synthetic::uniform(500, 6, 3);
        let q = [0.3, 0.5, 0.1, 0.9, 0.4, 0.6];
        for n in 1..=6 {
            assert_eq!(
                k_n_match(&ds, &q, 7, n),
                k_n_match_scan(&ds, &q, 7, n).unwrap()
            );
        }
        assert_eq!(
            frequent(&ds, &q, 5, 2, 5),
            frequent_k_n_match_scan(&ds, &q, 5, 2, 5).unwrap()
        );
        let eps = k_n_match(&ds, &q, 20, 3).entries[19].diff;
        let all = k_n_match_scan(&ds, &q, 500, 3).unwrap();
        let want: Vec<_> = all.entries.into_iter().filter(|e| e.diff <= eps).collect();
        assert_eq!(eps_match(&ds, &q, eps, 3).entries, want);
    }
}
