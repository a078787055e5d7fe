//! The hidden database: a collection of tuples plus its bounding box.
//!
//! A [`Dataset`] is what an LBS holds behind its kNN interface. The
//! estimators never see it directly — they only interact with the
//! `lbs-service` interface — but the experiment harness uses it to compute
//! ground-truth aggregates and relative errors, and the simulator is built
//! from it.

use serde::{Deserialize, Serialize};

use lbs_geom::{Point, Rect};

use crate::tuple::{AttrValue, Tuple, TupleId};

/// Canonical bit pattern of an `f64` for fingerprinting: `-0.0` hashes like
/// `+0.0` and every NaN payload alike, so numerically-equal content always
/// fingerprints equal.
fn float_bits(value: f64) -> u64 {
    if value == 0.0 {
        0
    } else if value.is_nan() {
        0x7ff8_0000_0000_0000
    } else {
        value.to_bits()
    }
}

/// One splitmix64-style round combining `value` into the accumulator `acc`.
fn mix(acc: u64, value: u64) -> u64 {
    let mut x = acc ^ value.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A collection of tuples together with the bounding box of the region of
/// interest.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dataset {
    tuples: Vec<Tuple>,
    bbox: Rect,
}

impl Dataset {
    /// Creates a dataset from tuples and an explicit bounding box.
    ///
    /// Tuples outside the box are kept (the box describes the *query* region,
    /// not a filter), but generators normally place everything inside it.
    pub fn new(tuples: Vec<Tuple>, bbox: Rect) -> Self {
        Dataset { tuples, bbox }
    }

    /// Creates a dataset whose bounding box is the tight box around the
    /// tuples, expanded by `margin` on every side.
    pub fn with_tight_bbox(tuples: Vec<Tuple>, margin: f64) -> Self {
        let bbox = Rect::bounding(tuples.iter().map(|t| t.location))
            .unwrap_or_else(|| Rect::from_bounds(0.0, 0.0, 1.0, 1.0))
            .expanded(margin);
        Dataset { tuples, bbox }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` when the dataset has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The bounding box of the region of interest.
    pub fn bbox(&self) -> Rect {
        self.bbox
    }

    /// The tuples, in id order as produced by the generators.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Iterator over the tuple locations, in the same order as
    /// [`Dataset::tuples`].
    pub fn locations(&self) -> impl Iterator<Item = Point> + '_ {
        self.tuples.iter().map(|t| t.location)
    }

    /// A cheap content fingerprint of the dataset (tuples in order, plus the
    /// bounding box), suitable as the version stamp of derived artifacts
    /// such as cached kNN answers.
    ///
    /// The fingerprint is derived purely from content, so two datasets with
    /// equal tuples and box always agree, any [`Dataset::insert`] /
    /// [`Dataset::remove`] changes it, and it is stable across processes and
    /// platforms (float coordinates hash by canonicalized IEEE-754 bits:
    /// `-0.0` hashes like `+0.0`, every NaN alike).
    pub fn fingerprint(&self) -> u64 {
        let mut h = mix(0x6c62_7265_7375_6e1b, self.tuples.len() as u64);
        h = mix(h, float_bits(self.bbox.min_x));
        h = mix(h, float_bits(self.bbox.min_y));
        h = mix(h, float_bits(self.bbox.max_x));
        h = mix(h, float_bits(self.bbox.max_y));
        for t in &self.tuples {
            h = mix(h, t.id);
            h = mix(h, float_bits(t.location.x));
            h = mix(h, float_bits(t.location.y));
            for (name, value) in t.attributes.iter() {
                for b in name.as_bytes() {
                    h = mix(h, u64::from(*b));
                }
                h = match value {
                    AttrValue::Float(v) => mix(mix(h, 1), float_bits(*v)),
                    AttrValue::Int(v) => mix(mix(h, 2), *v as u64),
                    AttrValue::Text(s) => {
                        let mut inner = mix(h, 3);
                        for b in s.as_bytes() {
                            inner = mix(inner, u64::from(*b));
                        }
                        inner
                    }
                    AttrValue::Bool(v) => mix(mix(h, 4), u64::from(*v)),
                };
            }
        }
        h
    }

    /// Inserts a tuple, changing the content fingerprint.
    ///
    /// Unlike the bulk constructors, mutation keeps existing ids stable (no
    /// reassignment) so that derived artifacts can be invalidated
    /// selectively. The id must be unused.
    pub fn insert(&mut self, tuple: Tuple) {
        assert!(
            self.get(tuple.id).is_none(),
            "Dataset::insert: duplicate tuple id {}",
            tuple.id
        );
        self.tuples.push(tuple);
    }

    /// Removes the tuple with the given id, returning it. Ids of the
    /// remaining tuples are untouched.
    pub fn remove(&mut self, id: TupleId) -> Option<Tuple> {
        let pos = self.tuples.iter().position(|t| t.id == id)?;
        Some(self.tuples.remove(pos))
    }

    /// The smallest id not used by any tuple — what a caller should assign
    /// to the next [`Dataset::insert`].
    pub fn next_id(&self) -> TupleId {
        self.tuples.iter().map(|t| t.id + 1).max().unwrap_or(0)
    }

    /// Looks a tuple up by id.
    pub fn get(&self, id: TupleId) -> Option<&Tuple> {
        // Generators assign ids equal to the position, so try that first and
        // fall back to a scan for datasets assembled by hand or subsampled.
        if let Some(t) = self.tuples.get(id as usize) {
            if t.id == id {
                return Some(t);
            }
        }
        self.tuples.iter().find(|t| t.id == id)
    }

    /// Ground-truth `COUNT` of tuples matching a predicate.
    pub fn count_where<F: Fn(&Tuple) -> bool>(&self, pred: F) -> usize {
        self.tuples.iter().filter(|t| pred(t)).count()
    }

    /// Ground-truth `SUM` of a numeric attribute over tuples matching a
    /// predicate. Tuples without the attribute contribute zero.
    pub fn sum_where<F: Fn(&Tuple) -> bool>(&self, attr: &str, pred: F) -> f64 {
        self.tuples
            .iter()
            .filter(|t| pred(t))
            .filter_map(|t| t.num(attr))
            .sum()
    }

    /// Ground-truth `AVG` of a numeric attribute over tuples matching a
    /// predicate (`None` when no tuple matches and has the attribute).
    pub fn avg_where<F: Fn(&Tuple) -> bool>(&self, attr: &str, pred: F) -> Option<f64> {
        let values: Vec<f64> = self
            .tuples
            .iter()
            .filter(|t| pred(t))
            .filter_map(|t| t.num(attr))
            .collect();
        if values.is_empty() {
            None
        } else {
            Some(values.iter().sum::<f64>() / values.len() as f64)
        }
    }

    /// A new dataset containing a uniformly random fraction of the tuples.
    ///
    /// Used by the Figure 18 experiment ("query cost versus database size"),
    /// which evaluates the estimators on 25 %, 50 %, 75 % and 100 % subsets.
    /// Tuple ids are reassigned to stay dense.
    pub fn sample_fraction<R: rand::Rng>(&self, fraction: f64, rng: &mut R) -> Dataset {
        let fraction = fraction.clamp(0.0, 1.0);
        let mut tuples: Vec<Tuple> = self
            .tuples
            .iter()
            .filter(|_| rng.gen::<f64>() < fraction)
            .cloned()
            .collect();
        for (i, t) in tuples.iter_mut().enumerate() {
            t.id = i as TupleId;
        }
        Dataset {
            tuples,
            bbox: self.bbox,
        }
    }

    /// A new dataset restricted to tuples matching a predicate, with ids
    /// reassigned to stay dense.
    pub fn filter<F: Fn(&Tuple) -> bool>(&self, pred: F) -> Dataset {
        let mut tuples: Vec<Tuple> = self.tuples.iter().filter(|t| pred(t)).cloned().collect();
        for (i, t) in tuples.iter_mut().enumerate() {
            t.id = i as TupleId;
        }
        Dataset {
            tuples,
            bbox: self.bbox,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::attrs;
    use crate::ScenarioBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> Dataset {
        let tuples = vec![
            Tuple::new(0, Point::new(1.0, 1.0))
                .with_attr(attrs::CATEGORY, "restaurant")
                .with_attr(attrs::RATING, 4.0),
            Tuple::new(1, Point::new(2.0, 2.0))
                .with_attr(attrs::CATEGORY, "restaurant")
                .with_attr(attrs::RATING, 3.0),
            Tuple::new(2, Point::new(3.0, 3.0))
                .with_attr(attrs::CATEGORY, "school")
                .with_attr(attrs::ENROLLMENT, 500.0),
        ];
        Dataset::new(tuples, Rect::from_bounds(0.0, 0.0, 10.0, 10.0))
    }

    #[test]
    fn ground_truth_aggregates() {
        let d = toy();
        assert_eq!(d.len(), 3);
        assert_eq!(
            d.count_where(|t| t.text_eq(attrs::CATEGORY, "restaurant")),
            2
        );
        assert_eq!(
            d.sum_where(attrs::RATING, |t| t.text_eq(attrs::CATEGORY, "restaurant")),
            7.0
        );
        assert_eq!(
            d.avg_where(attrs::RATING, |t| t.text_eq(attrs::CATEGORY, "restaurant")),
            Some(3.5)
        );
        assert_eq!(
            d.avg_where(attrs::RATING, |t| t.text_eq(attrs::CATEGORY, "bank")),
            None
        );
        assert_eq!(d.sum_where(attrs::ENROLLMENT, |_| true), 500.0);
    }

    #[test]
    fn lookup_by_id() {
        let d = toy();
        assert_eq!(d.get(1).unwrap().num(attrs::RATING), Some(3.0));
        assert!(d.get(99).is_none());
    }

    #[test]
    fn lookup_by_id_with_non_positional_ids() {
        let tuples = vec![
            Tuple::new(10, Point::new(1.0, 1.0)),
            Tuple::new(20, Point::new(2.0, 2.0)),
        ];
        let d = Dataset::with_tight_bbox(tuples, 1.0);
        assert_eq!(d.get(20).unwrap().location, Point::new(2.0, 2.0));
        assert!(d.get(15).is_none());
    }

    #[test]
    fn tight_bbox_and_margin() {
        let d = Dataset::with_tight_bbox(
            vec![
                Tuple::new(0, Point::new(5.0, 5.0)),
                Tuple::new(1, Point::new(9.0, 7.0)),
            ],
            2.0,
        );
        assert_eq!(d.bbox(), Rect::from_bounds(3.0, 3.0, 11.0, 9.0));
    }

    #[test]
    fn sample_fraction_bounds() {
        let d = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let none = d.sample_fraction(0.0, &mut rng);
        assert!(none.is_empty());
        let all = d.sample_fraction(1.0, &mut rng);
        assert_eq!(all.len(), 3);
        // Ids stay dense after sampling.
        for (i, t) in all.tuples().iter().enumerate() {
            assert_eq!(t.id, i as u64);
        }
    }

    #[test]
    fn filter_reassigns_ids() {
        let d = toy();
        let restaurants = d.filter(|t| t.text_eq(attrs::CATEGORY, "restaurant"));
        assert_eq!(restaurants.len(), 2);
        assert_eq!(restaurants.tuples()[1].id, 1);
        assert_eq!(restaurants.bbox(), d.bbox());
    }

    #[test]
    fn fingerprint_is_content_derived() {
        let d = toy();
        assert_eq!(d.fingerprint(), toy().fingerprint());
        assert_eq!(d.fingerprint(), d.clone().fingerprint());
        let other = Dataset::new(
            toy().tuples().to_vec(),
            Rect::from_bounds(0.0, 0.0, 11.0, 10.0),
        );
        assert_ne!(d.fingerprint(), other.fingerprint(), "bbox is content");
    }

    #[test]
    fn fingerprint_of_generated_tables_is_pinned() {
        // The answer cache keys on these values, so the attribute
        // representation must keep hashing in the same byte order.
        let mut rng = StdRng::seed_from_u64(7);
        let pois = ScenarioBuilder::usa_pois(20_000).build(&mut rng);
        let users = ScenarioBuilder::wechat_users(20_000).build(&mut rng);
        assert_eq!(format!("{:016x}", pois.fingerprint()), "142a15a92f49460e");
        assert_eq!(format!("{:016x}", users.fingerprint()), "5016695b12b282cc");
    }

    #[test]
    fn fingerprint_canonicalizes_float_bits() {
        let pos = Dataset::new(
            vec![Tuple::new(0, Point::new(0.0, 1.0))],
            Rect::from_bounds(0.0, 0.0, 4.0, 4.0),
        );
        let neg = Dataset::new(
            vec![Tuple::new(0, Point::new(-0.0, 1.0))],
            Rect::from_bounds(0.0, 0.0, 4.0, 4.0),
        );
        assert_eq!(pos.fingerprint(), neg.fingerprint());
    }

    #[test]
    fn mutations_bump_the_fingerprint_and_keep_ids() {
        let mut d = toy();
        let before = d.fingerprint();
        assert_eq!(d.next_id(), 3);
        d.insert(Tuple::new(3, Point::new(4.0, 4.0)));
        let after_insert = d.fingerprint();
        assert_ne!(before, after_insert);
        assert_eq!(d.get(3).unwrap().location, Point::new(4.0, 4.0));

        let removed = d.remove(1).unwrap();
        assert_eq!(removed.id, 1);
        assert_ne!(d.fingerprint(), after_insert);
        assert!(d.get(1).is_none());
        // Remaining ids are untouched (no reassignment), so lookups by the
        // surviving ids still resolve.
        assert!(d.get(2).is_some());
        assert!(d.remove(99).is_none());

        // Re-inserting the removed tuple restores the original content up to
        // tuple order; order is content, so the fingerprint may differ, but
        // inserting a brand-new id never collides with an existing one.
        assert_eq!(d.next_id(), 4);
    }

    #[test]
    #[should_panic(expected = "duplicate tuple id")]
    fn duplicate_insert_panics() {
        let mut d = toy();
        d.insert(Tuple::new(2, Point::new(5.0, 5.0)));
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::with_tight_bbox(vec![], 1.0);
        assert!(d.is_empty());
        assert_eq!(d.count_where(|_| true), 0);
        assert_eq!(d.sum_where(attrs::RATING, |_| true), 0.0);
    }
}
