//! History of discovered tuples (paper §3.2.2) plus the shared cell cache.
//!
//! LBS databases such as Google Maps are static over the course of an
//! estimation run, so every tuple location discovered while computing one
//! Voronoi cell is free information for all later cells: starting the next
//! computation from the bisectors of already-known nearby tuples yields a
//! much tighter initial cell at zero query cost.
//!
//! [`History`] stores every `(tuple id, location)` pair ever returned by the
//! LR interface plus the volumes of the cells computed so far (the latter
//! feed the adaptive top-h selection threshold of §3.2.3).
//!
//! On top of the paper's history, this implementation keeps a **cell cache**
//! shared across samples: repeated samples frequently land in the cell of a
//! tuple whose exact top-h cell was already pinned down. An exact
//! (Theorem-1) exploration is a deterministic function of the site, the
//! level `h`, the region, and what the history knew when it started — the
//! seed-neighbour list and the nearest known distance — so a cache entry
//! stores that *seed fingerprint* together with the finished cell and the
//! exact sequence of vertex queries the exploration issued. A lookup whose
//! fingerprint matches can replay the stored queries (keeping the service
//! ledger, the history side-effects and therefore every downstream estimate
//! bit-identical to an uncached run) while skipping all of the geometry.
//! Only an exact match hits. A mismatch — the history learned a tuple that
//! joined the seed list since the entry was stored — simply falls through
//! to a fresh exploration, which is how entries are invalidated; [`History::version`] is bumped on every
//! genuinely new tuple as a cheap change signal for diagnostics and tests.
//! Misses are classified into new-site / other-h / stale counters so `repro`
//! can report *why* the cache missed, not just how often.
//!
//! The history also owns the [`ClipScratch`] arena threaded through every
//! cell construction performed on its behalf ([`History::build_topk_cell`]),
//! so the per-sample hot loop reuses one set of buffers instead of
//! reallocating them per cell. The arena carries no state between builds
//! (and `ClipScratch::clone` is empty), so forks stay bit-identical.
//!
//! The adaptive-h rule of §3.2.3 computes history-only volume bounds `λ_h`
//! for the returned tuples of every sample; the `h ≥ 2` bounds it needs are
//! cached the same way (fingerprint = the neighbour list the bound was
//! computed from) in a second map, without any query log since no queries
//! are involved.
//!
//! ## The known-set index
//!
//! Every cell exploration and every λ bound starts from
//! [`History::neighbors_of`], the `limit` known tuples nearest to a site.
//! Besides the id-keyed `BTreeMap` of locations, the history keeps the known
//! set ordered by `(x, y, id)` under `total_cmp`. The search walks that order
//! outward from the site's `x` on both sides, always taking the side nearer
//! in `x`, and stops once even `dx²` exceeds the current `limit`-th squared
//! distance: every tuple not yet visited has `d² ≥ dx²`, so none can still
//! enter the list. The result is the list a full sort of the known set by
//! `(d², x, y)` returns, bit for bit (the full sort is kept as the test
//! oracle). Both maps are ordered collections on purpose: estimation results
//! must be bit-identical across runs and across
//! [`crate::driver::SampleDriver`] thread counts, which rules out the
//! randomised iteration order of `HashMap`.
//!
//! The history is the chunk state of an LR session
//! ([`crate::session::SampleEstimator::State`]): [`History::fork`] hands
//! each driver chunk a private snapshot and [`History::absorb`] merges what
//! the chunk learned back into the master copy in a deterministic order. A
//! fork keeps a delta log of the tuple ids, cell volumes and cache keys it
//! added, and `absorb` replays only that log, so its cost follows what the
//! chunk learned rather than what the master already knew. Cache entries ride along: forks share
//! the stored entries cheaply through `Arc`, and absorbed entries overwrite
//! in chunk order. Which entries a fork happens to hold can vary with the
//! thread count, but that can never change an estimate — a hit replays
//! exactly what the corresponding miss would have computed.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::sync::Arc;

use lbs_data::TupleId;
use lbs_geom::{top_k_cell_pruned_with, ClipScratch, Point, Rect, TopKCell};

use crate::engine_stats::EngineReport;
use crate::stats::RunningStats;

/// A finished exact cell exploration, keyed by `(site id, h)` and validated
/// by the seed fingerprint captured when the exploration started.
#[derive(Clone, Debug)]
pub struct CellCacheEntry {
    /// Region the exploration was clipped to.
    pub region: Rect,
    /// The history neighbours that seeded the exploration (empty when the
    /// §3.2.2 history seeding was disabled).
    pub seeds: Vec<Point>,
    /// Nearest known distance at exploration start (drives the §3.2.1
    /// fast-initialization box; `None` when fast-init was disabled).
    pub nearest: Option<f64>,
    /// The exact top-h cell the exploration produced.
    pub cell: TopKCell,
    /// Every vertex query the exploration issued, in order. Replayed on a
    /// hit so the service ledger and history stay bit-identical.
    pub queries: Vec<Point>,
    /// Theorem-1 rounds the exploration ran.
    pub rounds: usize,
}

/// A cached adaptive-h volume bound λ_h.
#[derive(Clone, Debug)]
struct LambdaEntry {
    region: Rect,
    seeds: Vec<Point>,
    area: f64,
}

/// A known tuple in the spatial index, ordered by `(x, y, id)` under
/// `total_cmp`: on either side of a site's `x`, walking away from it visits
/// tuples in non-decreasing `dx²`.
#[derive(Clone, Copy, Debug)]
struct ByX {
    location: Point,
    id: TupleId,
}

impl Ord for ByX {
    fn cmp(&self, other: &Self) -> Ordering {
        self.location
            .x
            .total_cmp(&other.location.x)
            .then(self.location.y.total_cmp(&other.location.y))
            .then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for ByX {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for ByX {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for ByX {}

/// A neighbour candidate in the order [`lbs_geom::sort_by_distance`] sorts
/// by: squared distance from the site, then `x`, then `y`, all by
/// `total_cmp`.
#[derive(Clone, Copy, Debug)]
struct Ranked {
    d2: f64,
    location: Point,
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        self.d2
            .total_cmp(&other.d2)
            .then(self.location.x.total_cmp(&other.location.x))
            .then(self.location.y.total_cmp(&other.location.y))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// What a history learned since it was created or forked: the log that
/// [`History::absorb`] replays into the master copy.
#[derive(Clone, Debug, Default)]
struct DeltaLog {
    /// Genuinely new tuple ids, in insertion order.
    ids: Vec<TupleId>,
    /// Recorded cell volumes, in order.
    volumes: Vec<f64>,
    /// Keys of stored cell-cache entries, in order (a key stored twice
    /// appears twice; the replay reads the entry's final value).
    cells: Vec<(TupleId, usize)>,
    /// Keys of stored λ-cache entries, in order.
    lambdas: Vec<(TupleId, usize)>,
}

/// Accumulated knowledge about the hidden database.
#[derive(Clone, Debug, Default)]
pub struct History {
    locations: BTreeMap<TupleId, Point>,
    /// The same known set ordered by `(x, y, id)`: the index
    /// [`History::neighbors_of`] searches (see the module docs).
    by_x: BTreeSet<ByX>,
    cell_volumes: RunningStats,
    delta: DeltaLog,
    /// Bumped whenever a genuinely new tuple location is inserted.
    version: u64,
    cells: BTreeMap<(TupleId, usize), Arc<CellCacheEntry>>,
    lambdas: BTreeMap<(TupleId, usize), Arc<LambdaEntry>>,
    stats: EngineReport,
    /// Reusable buffers for every cell construction performed through this
    /// history ([`History::build_topk_cell`]). Plain workspace: carries no
    /// state between builds, and its `Clone` is deliberately empty, so the
    /// derived `History::clone` (checkpointing) stays cheap and forks stay
    /// bit-identical to fresh-allocation runs.
    scratch: ClipScratch,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Number of distinct tuples whose locations are known.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// `true` when no tuple has been seen yet.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// Known-set version: bumped once per genuinely new tuple location.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Records a tuple location (idempotent).
    pub fn insert(&mut self, id: TupleId, location: Point) {
        if let std::collections::btree_map::Entry::Vacant(slot) = self.locations.entry(id) {
            slot.insert(location);
            self.by_x.insert(ByX { location, id });
            self.delta.ids.push(id);
            self.version += 1;
        }
    }

    /// The known location of a tuple, if any.
    pub fn location_of(&self, id: TupleId) -> Option<Point> {
        self.locations.get(&id).copied()
    }

    /// `true` when the tuple has been seen before.
    pub fn contains(&self, id: TupleId) -> bool {
        self.locations.contains_key(&id)
    }

    /// The locations of the `limit` known tuples nearest to `site`,
    /// excluding any tuple at (essentially) the same location as `site`
    /// itself, in ascending distance order with a deterministic tie-break.
    ///
    /// These are the "historic tuples" fed into the initial cell of a new
    /// computation (Algorithm 3). Limiting the count keeps the geometry work
    /// bounded: faraway tuples cannot contribute edges to the cell anyway —
    /// and the ascending order is exactly what the pruned cell construction
    /// of [`lbs_geom::cell_engine`] needs.
    ///
    /// The order and the tie-break are those of
    /// [`lbs_geom::sort_by_distance`] (squared distance, then `x`, then `y`),
    /// and the list equals a full sort of the known set truncated to `limit`,
    /// bit for bit; the search only visits the strip of the index around
    /// `site.x` that can still hold a closer tuple (see the module docs).
    /// Known locations are finite.
    pub fn neighbors_of(&self, site: &Point, limit: usize) -> Vec<Point> {
        if limit == 0 {
            return Vec::new();
        }
        // The `limit` best so far, worst on top.
        let mut best: BinaryHeap<Ranked> = BinaryHeap::with_capacity(limit.min(self.len()));
        let split = ByX {
            location: Point::new(site.x, f64::NEG_INFINITY),
            id: 0,
        };
        let mut left = self.by_x.range(..split).rev().peekable();
        let mut right = self.by_x.range(split..).peekable();
        // The same `dx * dx` term `Point::distance_sq` adds `dy * dy` to, so
        // `d² ≥ dx²` holds in floating point too.
        let dx2 = |p: &ByX| {
            let dx = p.location.x - site.x;
            dx * dx
        };
        loop {
            let next = match (left.peek(), right.peek()) {
                (Some(l), Some(r)) if dx2(r) < dx2(l) => right.next(),
                (Some(_), _) => left.next(),
                (None, _) => right.next(),
            };
            let Some(p) = next else { break };
            if best.len() == limit && best.peek().is_some_and(|worst| dx2(p) > worst.d2) {
                // Every unvisited tuple is at least this far away in x alone.
                break;
            }
            if p.location.approx_eq(site) {
                continue;
            }
            let candidate = Ranked {
                d2: p.location.distance_sq(site),
                location: p.location,
            };
            if best.len() < limit {
                best.push(candidate);
            } else if let Some(mut worst) = best.peek_mut() {
                if candidate < *worst {
                    *worst = candidate;
                }
            }
        }
        best.into_sorted_vec()
            .into_iter()
            .map(|r| r.location)
            .collect()
    }

    /// Distance from `site` to the nearest known tuple (other than itself):
    /// the distance to `neighbors_of(site, 1)`.
    pub fn nearest_distance(&self, site: &Point) -> Option<f64> {
        self.neighbors_of(site, 1).first().map(|p| p.distance(site))
    }

    /// Records the volume of a cell computed during this run.
    pub fn record_cell_volume(&mut self, volume: f64) {
        self.cell_volumes.push(volume);
        self.delta.volumes.push(volume);
    }

    /// Looks up a cached exact exploration of `(site_id, h)` whose seed
    /// fingerprint matches the current history state exactly, counting the
    /// hit or miss and, on a miss, its cause.
    pub(crate) fn cell_cache_get(
        &mut self,
        site_id: TupleId,
        h: usize,
        region: &Rect,
        seeds: &[Point],
        nearest: Option<f64>,
    ) -> Option<Arc<CellCacheEntry>> {
        if let Some(entry) = self.cells.get(&(site_id, h)) {
            if entry.region == *region && entry.nearest == nearest && entry.seeds == seeds {
                self.stats.cache_hits += 1;
                return Some(Arc::clone(entry));
            }
            self.stats.cache_misses += 1;
            self.stats.cache_miss_stale += 1;
            return None;
        }
        self.stats.cache_misses += 1;
        // Distinguish "never explored this site" from "explored it, but at a
        // different h": the latter is a capacity/keying question, the former
        // is an inevitable cold miss.
        let mut levels = self.cells.range((site_id, 0)..=(site_id, usize::MAX));
        if levels.next().is_some() {
            self.stats.cache_miss_other_h += 1;
        } else {
            self.stats.cache_miss_new_site += 1;
        }
        None
    }

    /// Stores a finished exact exploration for later replay.
    pub(crate) fn cell_cache_put(&mut self, site_id: TupleId, h: usize, entry: CellCacheEntry) {
        self.cells.insert((site_id, h), Arc::new(entry));
        self.delta.cells.push((site_id, h));
    }

    /// Number of stored cell explorations (for tests and diagnostics).
    pub fn cached_cells(&self) -> usize {
        self.cells.len()
    }

    /// Looks up a cached λ_h volume bound computed from exactly `seeds`,
    /// counting the hit or miss.
    pub(crate) fn lambda_cache_get(
        &mut self,
        site_id: TupleId,
        h: usize,
        region: &Rect,
        seeds: &[Point],
    ) -> Option<f64> {
        if let Some(entry) = self.lambdas.get(&(site_id, h)) {
            if entry.region == *region && entry.seeds == seeds {
                self.stats.lambda_hits += 1;
                return Some(entry.area);
            }
        }
        self.stats.lambda_misses += 1;
        None
    }

    /// Stores a λ_h volume bound with the seeds it was computed from.
    pub(crate) fn lambda_cache_put(
        &mut self,
        site_id: TupleId,
        h: usize,
        region: Rect,
        seeds: Vec<Point>,
        area: f64,
    ) {
        self.lambdas.insert(
            (site_id, h),
            Arc::new(LambdaEntry {
                region,
                seeds,
                area,
            }),
        );
        self.delta.lambdas.push((site_id, h));
    }

    /// Builds a top-h cell through the pruned engine using this history's
    /// scratch arena and records the build counters.
    ///
    /// `ordered_others` must be in ascending distance from `site` (what
    /// [`History::neighbors_of`] and [`lbs_geom::sort_by_distance`] produce).
    /// Bit-identical to a fresh-allocation [`lbs_geom::top_k_cell_pruned`]
    /// call; the arena only removes the per-build heap traffic.
    pub fn build_topk_cell(
        &mut self,
        site: &Point,
        ordered_others: &[Point],
        h: usize,
        region: &Rect,
        prune: bool,
    ) -> TopKCell {
        let (cell, build) =
            top_k_cell_pruned_with(&mut self.scratch, site, ordered_others, h, region, prune);
        self.stats.record_build(&build);
        cell
    }

    /// The engine counters accumulated on this history.
    pub fn engine_report(&self) -> EngineReport {
        self.stats
    }

    /// Mutable access to the engine counters (for the explorer).
    pub(crate) fn engine_mut(&mut self) -> &mut EngineReport {
        &mut self.stats
    }

    /// Snapshot for a parallel worker block: identical knowledge, empty
    /// delta log and zeroed counters, so that [`History::absorb`] later
    /// merges back exactly what the block discovered.
    pub fn fork(&self) -> History {
        // Built by hand rather than `clone()` so the (potentially long)
        // delta log of the parent is never copied just to be thrown away.
        History {
            locations: self.locations.clone(),
            by_x: self.by_x.clone(),
            cell_volumes: self.cell_volumes.clone(),
            delta: DeltaLog::default(),
            version: self.version,
            cells: self.cells.clone(),
            lambdas: self.lambdas.clone(),
            stats: EngineReport::default(),
            // Each fork gets its own (cold) arena: warmed capacity must not
            // cross thread boundaries, and the buffers hold no state anyway.
            scratch: ClipScratch::new(),
        }
    }

    /// Empties the delta log.
    ///
    /// Estimators call this on their long-lived top-level history at the end
    /// of a run: that history is only ever forked *from*, never absorbed
    /// into another one, so keeping the log would grow memory without bound
    /// across repeated `run` calls.
    pub fn discard_delta_log(&mut self) {
        self.delta = DeltaLog::default();
    }

    /// Merges the knowledge a forked worker history gained back into `self`.
    ///
    /// Replays only the fork's delta log: the tuples it learned (inserted
    /// idempotently — a tuple's location never changes), the cell volumes it
    /// recorded (so snapshot volumes are never double counted) and the cache
    /// entries it stored. Entries the fork merely inherited are left alone,
    /// so an entry a sibling block refreshed earlier in the wave is not
    /// reverted to the wave-start copy. Absorbing blocks in a fixed order
    /// keeps the merged state — and therefore every estimate derived from it
    /// — bit-identical across thread counts. Cache entries overwrite (later
    /// blocks explored with fresher knowledge); entry contents can depend on
    /// scheduling, but a hit always replays exactly what the miss would have
    /// computed, so estimates cannot.
    pub fn absorb(&mut self, forked: &History) {
        for id in &forked.delta.ids {
            self.insert(*id, forked.locations[id]);
        }
        for &volume in &forked.delta.volumes {
            self.record_cell_volume(volume);
        }
        for key in &forked.delta.cells {
            self.cells.insert(*key, Arc::clone(&forked.cells[key]));
            self.delta.cells.push(*key);
        }
        for key in &forked.delta.lambdas {
            self.lambdas.insert(*key, Arc::clone(&forked.lambdas[key]));
            self.delta.lambdas.push(*key);
        }
        self.stats.add(&forked.stats);
    }

    /// Mean volume of the cells computed so far, if any.
    pub fn mean_cell_volume(&self) -> Option<f64> {
        if self.cell_volumes.count() == 0 {
            None
        } else {
            Some(self.cell_volumes.mean())
        }
    }

    /// Number of cell volumes recorded.
    pub fn cells_recorded(&self) -> u64 {
        self.cell_volumes.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbs_geom::EPS;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The full sort the indexed [`History::neighbors_of`] replaced: its
    /// oracle.
    fn neighbors_by_sort(h: &History, site: &Point, limit: usize) -> Vec<Point> {
        let mut pts: Vec<Point> = h
            .locations
            .values()
            .copied()
            .filter(|p| !p.approx_eq(site))
            .collect();
        lbs_geom::sort_by_distance(site, &mut pts);
        pts.truncate(limit);
        pts
    }

    /// The linear scan the indexed [`History::nearest_distance`] replaced.
    fn nearest_by_scan(h: &History, site: &Point) -> Option<f64> {
        h.locations
            .values()
            .filter(|p| !p.approx_eq(site))
            .map(|p| p.distance(site))
            .min_by(|a, b| a.total_cmp(b))
    }

    /// The full re-insert the delta [`History::absorb`] replaced.
    fn absorb_by_full_reinsert(master: &mut History, forked: &History) {
        for (id, location) in &forked.locations {
            master.insert(*id, *location);
        }
        for &volume in &forked.delta.volumes {
            master.record_cell_volume(volume);
        }
        for (key, entry) in &forked.cells {
            master.cells.insert(*key, Arc::clone(entry));
        }
        for (key, entry) in &forked.lambdas {
            master.lambdas.insert(*key, Arc::clone(entry));
        }
        master.stats.add(&forked.stats);
    }

    fn bits(points: &[Point]) -> Vec<(u64, u64)> {
        points
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect()
    }

    /// A known set around `site` with the cases the index search must get
    /// right: uniform spread, a lattice of equal distances broken only by
    /// `(x, y)` (including tuples sharing the site's `x`), exact duplicates,
    /// and tuples within and just beyond `EPS` of the site.
    fn random_known_set(rng: &mut StdRng, site: &Point) -> Vec<Point> {
        let mut pts = Vec::new();
        for _ in 0..rng.gen_range(0..120) {
            pts.push(Point::new(
                site.x + rng.gen_range(-50.0..50.0),
                site.y + rng.gen_range(-50.0..50.0),
            ));
        }
        let step = rng.gen_range(0.5..4.0);
        for i in -2i32..=2 {
            for j in -2i32..=2 {
                pts.push(Point::new(
                    site.x + step * f64::from(i),
                    site.y + step * f64::from(j),
                ));
            }
        }
        for _ in 0..rng.gen_range(0..6) {
            let dup = pts[rng.gen_range(0..pts.len())];
            pts.push(dup);
        }
        for offset in [0.0, 0.5 * EPS, EPS, 2.0 * EPS, 1e-6] {
            pts.push(Point::new(site.x + offset, site.y - offset));
            pts.push(Point::new(site.x - offset, site.y));
        }
        pts
    }

    fn assert_search_matches_oracles(h: &History, site: &Point, context: &str) {
        for limit in [0, 1, 2, 7, 32, h.len(), h.len() + 5] {
            assert_eq!(
                bits(&h.neighbors_of(site, limit)),
                bits(&neighbors_by_sort(h, site, limit)),
                "{context}: neighbors_of(limit = {limit}) differs from the full sort"
            );
        }
        assert_eq!(
            h.nearest_distance(site).map(f64::to_bits),
            nearest_by_scan(h, site).map(f64::to_bits),
            "{context}: nearest_distance differs from the scan"
        );
    }

    #[test]
    fn indexed_search_equals_sort_and_scan_oracles_bitwise() {
        let mut rng = StdRng::seed_from_u64(0x1dec_5ea7);
        for case in 0..40 {
            let site = Point::new(rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0));
            let pts = random_known_set(&mut rng, &site);
            let ids = 0..pts.len() as TupleId;

            let mut direct = History::new();
            for (id, p) in ids.clone().zip(&pts) {
                direct.insert(id, *p);
            }

            // The same set learned through sibling forks (overlapping in what
            // they learn) and a fork chained off one of them.
            let mut master = History::new();
            let third = pts.len() / 3;
            for (id, p) in ids.clone().zip(&pts).take(third) {
                master.insert(id, *p);
            }
            let mut a = master.fork();
            let mut b = master.fork();
            for (id, p) in ids.clone().zip(&pts).skip(third / 2).take(third * 2) {
                a.insert(id, *p);
            }
            for (id, p) in ids.clone().zip(&pts).skip(third * 2) {
                b.insert(id, *p);
            }
            let mut leaf = b.fork();
            for (id, p) in ids.clone().zip(&pts).skip(third) {
                leaf.insert(id, *p);
            }
            // Forks search their own copy of the index.
            for (h, how) in [(&a, "sibling fork"), (&leaf, "chained fork")] {
                assert_search_matches_oracles(h, &site, &format!("case {case}, {how}"));
            }
            b.absorb(&leaf);
            master.absorb(&a);
            master.absorb(&b);
            assert_eq!(master.len(), direct.len(), "case {case}");
            assert_eq!(master.version(), direct.version(), "case {case}");

            let known = pts[rng.gen_range(0..pts.len())];
            let far = Point::new(site.x + 500.0, site.y - 300.0);
            for (h, how) in [(&direct, "insert"), (&master, "fork/absorb")] {
                for (probe, what) in [(site, "site"), (known, "known tuple"), (far, "far point")] {
                    assert_search_matches_oracles(
                        h,
                        &probe,
                        &format!("case {case}, {how}, {what}"),
                    );
                }
            }
        }
    }

    #[test]
    fn indexed_search_on_an_empty_history() {
        let h = History::new();
        let site = Point::new(1.0, 2.0);
        assert!(h.neighbors_of(&site, 32).is_empty());
        assert!(h.nearest_distance(&site).is_none());
    }

    fn lambda_entry(area: f64) -> LambdaEntry {
        LambdaEntry {
            region: Rect::from_bounds(0.0, 0.0, 10.0, 10.0),
            seeds: vec![Point::new(1.0, 1.0)],
            area,
        }
    }

    fn cell_entry(rounds: usize) -> CellCacheEntry {
        let region = Rect::from_bounds(0.0, 0.0, 10.0, 10.0);
        CellCacheEntry {
            region,
            seeds: vec![],
            nearest: None,
            cell: dummy_cell(&region),
            queries: vec![],
            rounds,
        }
    }

    #[test]
    fn delta_absorb_equals_full_reinsert_after_sibling_and_chained_forks() {
        let mut master = History::new();
        for id in 0..5u64 {
            master.insert(id, Point::new(id as f64, 0.5 * id as f64));
            master.cell_cache_put(id, 1, cell_entry(1));
            master.lambdas.insert((id, 2), Arc::new(lambda_entry(1.0)));
        }
        master.record_cell_volume(3.0);

        // Siblings off one wave-start state: overlapping new tuples, a
        // re-insert of a known tuple at another location (ignored), fresh
        // volumes, new cache keys, and refreshed wave-start keys.
        let mut a = master.fork();
        a.insert(10, Point::new(10.0, 1.0));
        a.insert(11, Point::new(11.0, 2.0));
        a.insert(2, Point::new(99.0, 99.0));
        a.record_cell_volume(5.0);
        a.cell_cache_put(10, 2, cell_entry(2));
        a.cell_cache_put(1, 1, cell_entry(3));
        a.lambda_cache_put(10, 3, Rect::from_bounds(0.0, 0.0, 1.0, 1.0), vec![], 7.0);
        let mut b = master.fork();
        b.insert(11, Point::new(11.0, 2.0));
        b.insert(12, Point::new(12.0, 3.0));
        b.record_cell_volume(7.0);
        b.cell_cache_put(10, 2, cell_entry(4));
        // A fork chained off `b`, absorbed into it first.
        let mut leaf = b.fork();
        leaf.insert(13, Point::new(13.0, 4.0));
        leaf.insert(12, Point::new(12.0, 3.0));
        leaf.record_cell_volume(11.0);
        leaf.cell_cache_put(13, 1, cell_entry(5));
        leaf.cell_cache_put(13, 1, cell_entry(6));
        leaf.lambda_cache_put(3, 2, Rect::from_bounds(0.0, 0.0, 1.0, 1.0), vec![], 9.0);

        let mut b_delta = b.clone();
        b_delta.absorb(&leaf);
        let mut delta = master.clone();
        delta.absorb(&a);
        delta.absorb(&b_delta);

        let mut b_full = b.clone();
        absorb_by_full_reinsert(&mut b_full, &leaf);
        let mut full = master.clone();
        absorb_by_full_reinsert(&mut full, &a);
        absorb_by_full_reinsert(&mut full, &b_full);

        assert_eq!(delta.locations, full.locations);
        assert_eq!(delta.version(), full.version());
        assert_eq!(delta.version(), 9);
        assert_eq!(delta.cell_volumes, full.cell_volumes);
        assert_eq!(delta.cells_recorded(), 4);
        assert_eq!(delta.by_x.len(), delta.locations.len());
        for (id, location) in &delta.locations {
            assert!(delta.by_x.contains(&ByX {
                location: *location,
                id: *id
            }));
        }
        assert_eq!(delta.lambdas.len(), full.lambdas.len());
        for (key, entry) in &delta.lambdas {
            assert!(Arc::ptr_eq(entry, &full.lambdas[key]), "λ entry {key:?}");
        }
        assert_eq!(delta.cells.len(), full.cells.len());
        for (key, entry) in &delta.cells {
            if *key == (1, 1) {
                // The one intended difference: `a` refreshed a wave-start
                // entry that `b` only inherited. The full re-insert let
                // `b`'s inherited copy revert it; the delta keeps `a`'s.
                assert_eq!(entry.rounds, 3);
                assert_eq!(full.cells[key].rounds, 1);
            } else {
                assert!(Arc::ptr_eq(entry, &full.cells[key]), "cell entry {key:?}");
            }
        }
        assert_eq!(delta.cells[&(10, 2)].rounds, 4, "the later sibling wins");
        assert_eq!(delta.cells[&(13, 1)].rounds, 6, "a fork's last store wins");
        assert_eq!(delta.engine_report(), full.engine_report());
    }

    #[test]
    fn insert_is_idempotent_and_lookup_works() {
        let mut h = History::new();
        assert!(h.is_empty());
        assert_eq!(h.version(), 0);
        h.insert(3, Point::new(1.0, 1.0));
        h.insert(3, Point::new(9.0, 9.0)); // ignored: already known
        h.insert(5, Point::new(2.0, 2.0));
        assert_eq!(h.len(), 2);
        assert_eq!(h.version(), 2, "only genuinely new tuples bump the version");
        assert!(h.contains(3));
        assert!(!h.contains(4));
        assert_eq!(h.location_of(3), Some(Point::new(1.0, 1.0)));
        assert_eq!(h.location_of(99), None);
    }

    #[test]
    fn neighbors_are_sorted_and_limited() {
        let mut h = History::new();
        for i in 0..10u64 {
            h.insert(i, Point::new(i as f64 * 10.0, 0.0));
        }
        let site = Point::new(0.0, 0.0);
        let n = h.neighbors_of(&site, 3);
        assert_eq!(n.len(), 3);
        // The site itself (tuple 0 at the same location) is excluded.
        assert!(n.iter().all(|p| !p.approx_eq(&site)));
        assert!(n[0].distance(&site) <= n[1].distance(&site));
        assert!(n[1].distance(&site) <= n[2].distance(&site));
        assert!((n[0].x - 10.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_distance_excludes_self() {
        let mut h = History::new();
        let site = Point::new(5.0, 5.0);
        h.insert(1, site);
        assert!(h.nearest_distance(&site).is_none());
        h.insert(2, Point::new(8.0, 9.0));
        assert!((h.nearest_distance(&site).unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn fork_and_absorb_merge_only_fresh_knowledge() {
        let mut master = History::new();
        master.insert(1, Point::new(1.0, 0.0));
        master.record_cell_volume(10.0);

        // Two workers fork, learn different things, and are absorbed in
        // order.
        let mut a = master.fork();
        a.insert(2, Point::new(2.0, 0.0));
        a.record_cell_volume(20.0);
        let mut b = master.fork();
        b.insert(3, Point::new(3.0, 0.0));
        b.insert(1, Point::new(99.0, 99.0)); // ignored: already known
        b.record_cell_volume(30.0);

        master.absorb(&a);
        master.absorb(&b);
        assert_eq!(master.len(), 3);
        assert_eq!(master.location_of(1), Some(Point::new(1.0, 0.0)));
        assert_eq!(master.location_of(3), Some(Point::new(3.0, 0.0)));
        // Volumes: the snapshot volume 10 counted once, plus the two fresh
        // ones — never the forked copies of 10.
        assert_eq!(master.cells_recorded(), 3);
        assert!((master.mean_cell_volume().unwrap() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn absorb_is_transitive_through_chained_forks() {
        let mut master = History::new();
        master.record_cell_volume(1.0);
        let mut mid = master.fork();
        mid.record_cell_volume(2.0);
        let mut leaf = mid.fork();
        leaf.record_cell_volume(3.0);
        mid.absorb(&leaf);
        master.absorb(&mid);
        assert_eq!(master.cells_recorded(), 3);
        assert!((master.mean_cell_volume().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cell_volume_statistics() {
        let mut h = History::new();
        assert!(h.mean_cell_volume().is_none());
        h.record_cell_volume(10.0);
        h.record_cell_volume(30.0);
        assert_eq!(h.cells_recorded(), 2);
        assert!((h.mean_cell_volume().unwrap() - 20.0).abs() < 1e-12);
    }

    fn dummy_cell(region: &Rect) -> TopKCell {
        lbs_geom::top_k_cell(&Point::new(5.0, 5.0), &[Point::new(7.0, 5.0)], 1, region)
    }

    #[test]
    fn cell_cache_hits_only_on_matching_fingerprint() {
        let region = Rect::from_bounds(0.0, 0.0, 10.0, 10.0);
        let mut h = History::new();
        let seeds = vec![Point::new(7.0, 5.0)];
        h.cell_cache_put(
            42,
            1,
            CellCacheEntry {
                region,
                seeds: seeds.clone(),
                nearest: Some(2.0),
                cell: dummy_cell(&region),
                queries: vec![Point::new(1.0, 1.0)],
                rounds: 2,
            },
        );
        assert_eq!(h.cached_cells(), 1);
        // Exact fingerprint → hit.
        assert!(h
            .cell_cache_get(42, 1, &region, &seeds, Some(2.0))
            .is_some());
        // Any deviation → miss (stale entries are bypassed, not returned).
        assert!(h
            .cell_cache_get(42, 2, &region, &seeds, Some(2.0))
            .is_none());
        assert!(h.cell_cache_get(42, 1, &region, &[], Some(2.0)).is_none());
        assert!(h.cell_cache_get(42, 1, &region, &seeds, None).is_none());
        let other = Rect::from_bounds(0.0, 0.0, 5.0, 5.0);
        assert!(h.cell_cache_get(42, 1, &other, &seeds, Some(2.0)).is_none());
        let report = h.engine_report();
        assert_eq!(report.cache_hits, 1);
        assert_eq!(report.cache_misses, 4);
        // Cause breakdown: the h = 2 lookup found the site stored only at
        // other levels; the three fingerprint deviations are stale.
        assert_eq!(report.cache_miss_other_h, 1);
        assert_eq!(report.cache_miss_stale, 3);
        assert_eq!(report.cache_miss_new_site, 0);
    }

    #[test]
    fn cell_cache_miss_causes_distinguish_new_sites() {
        let region = Rect::from_bounds(0.0, 0.0, 10.0, 10.0);
        let mut h = History::new();
        assert!(h.cell_cache_get(99, 1, &region, &[], None).is_none());
        let report = h.engine_report();
        assert_eq!(report.cache_misses, 1);
        assert_eq!(report.cache_miss_new_site, 1);
        assert_eq!(report.cache_miss_other_h + report.cache_miss_stale, 0);
    }

    #[test]
    fn cell_cache_empty_seed_entries_require_exact_match() {
        // An exploration that started with no seeds ran the fake-corner
        // round; a seeded lookup must never replay it, however far the seeds.
        let region = Rect::from_bounds(0.0, 0.0, 100.0, 100.0);
        let mut h = History::new();
        h.cell_cache_put(
            42,
            1,
            CellCacheEntry {
                region,
                seeds: vec![],
                nearest: None,
                cell: dummy_cell(&region),
                queries: vec![],
                rounds: 1,
            },
        );
        let far = vec![Point::new(95.0, 95.0)];
        assert!(h.cell_cache_get(42, 1, &region, &far, None).is_none());
        assert!(h.cell_cache_get(42, 1, &region, &[], None).is_some());
    }

    #[test]
    fn lambda_cache_round_trip() {
        let region = Rect::from_bounds(0.0, 0.0, 10.0, 10.0);
        let mut h = History::new();
        let seeds = vec![Point::new(1.0, 1.0), Point::new(2.0, 2.0)];
        assert!(h.lambda_cache_get(7, 2, &region, &seeds).is_none());
        h.lambda_cache_put(7, 2, region, seeds.clone(), 12.5);
        assert_eq!(h.lambda_cache_get(7, 2, &region, &seeds), Some(12.5));
        // Any other seed list invalidates: shrunk or grown, however far.
        assert!(h.lambda_cache_get(7, 2, &region, &seeds[..1]).is_none());
        let mut grown = seeds.clone();
        grown.push(Point::new(9.0, 9.0));
        assert!(h.lambda_cache_get(7, 2, &region, &grown).is_none());
        let report = h.engine_report();
        assert_eq!(report.lambda_hits, 1);
        assert_eq!(report.lambda_misses, 3);
    }

    #[test]
    fn fork_shares_cache_and_zeroes_stats() {
        let region = Rect::from_bounds(0.0, 0.0, 10.0, 10.0);
        let mut master = History::new();
        master.cell_cache_put(
            1,
            1,
            CellCacheEntry {
                region,
                seeds: vec![],
                nearest: None,
                cell: dummy_cell(&region),
                queries: vec![],
                rounds: 1,
            },
        );
        master.engine_mut().cells_built = 5;
        let mut fork = master.fork();
        assert_eq!(fork.cached_cells(), 1);
        assert_eq!(fork.engine_report().cells_built, 0);
        fork.engine_mut().cells_built = 2;
        fork.cell_cache_put(
            2,
            1,
            CellCacheEntry {
                region,
                seeds: vec![],
                nearest: None,
                cell: dummy_cell(&region),
                queries: vec![],
                rounds: 1,
            },
        );
        master.absorb(&fork);
        assert_eq!(master.cached_cells(), 2);
        assert_eq!(master.engine_report().cells_built, 7);
    }
}
