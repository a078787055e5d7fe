//! Aggregate specifications: what is being estimated.
//!
//! The paper supports queries of the form
//!
//! ```sql
//! SELECT AGGR(t) FROM D WHERE Cond
//! ```
//!
//! where `AGGR` is COUNT, SUM or AVG over an attribute and `Cond` is any
//! selection condition evaluable on a single tuple — including conditions on
//! the tuple's *location*, which LNR-LBS interfaces do not even return
//! (position inference, §4.3, fills that gap).
//!
//! [`Aggregate`] captures the aggregate function plus a [`Selection`]; it can
//! be evaluated against a returned tuple (what the estimators do) and against
//! a raw dataset tuple (what the experiment harness does to obtain ground
//! truth).

use serde::{Deserialize, Serialize};

use lbs_data::{attrs, Dataset, Tuple};
use lbs_geom::{Point, Rect};
use lbs_service::{PassThroughFilter, ReturnedTuple};

/// The aggregate function of a query.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum AggFunction {
    /// `COUNT(*)` over the selected tuples.
    Count,
    /// `SUM(attr)` over the selected tuples; tuples missing the attribute
    /// contribute zero.
    Sum(String),
    /// `AVG(attr)` over the selected tuples, computed as SUM/COUNT exactly as
    /// the paper prescribes (§1.3).
    Avg(String),
}

/// A selection condition evaluable on a single tuple.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Selection {
    /// No condition: every tuple qualifies.
    All,
    /// Case-insensitive equality on a text attribute (e.g. brand =
    /// "Starbucks"). This is the kind of condition real LBS can evaluate
    /// server-side, so it is eligible for pass-through (§5.1).
    TextEquals {
        /// Attribute name.
        attr: String,
        /// Required value.
        value: String,
    },
    /// A numeric attribute is at least the given threshold (e.g. rating ≥ 4).
    AtLeast {
        /// Attribute name.
        attr: String,
        /// Minimum value (inclusive).
        min: f64,
    },
    /// A boolean attribute has the given value (e.g. open on Sundays).
    Flag {
        /// Attribute name.
        attr: String,
        /// Required value.
        expected: bool,
    },
    /// The tuple's location lies inside a rectangle (e.g. "in Austin, TX").
    /// For LNR-LBS this requires position inference before it can be
    /// evaluated.
    InRegion(Rect),
    /// Conjunction of conditions.
    And(Vec<Selection>),
}

impl Selection {
    /// Evaluates the condition against a raw dataset tuple (ground truth).
    pub fn matches_tuple(&self, tuple: &Tuple) -> bool {
        match self {
            Selection::All => true,
            Selection::TextEquals { attr, value } => tuple.text_eq(attr, value),
            Selection::AtLeast { attr, min } => tuple.num(attr).is_some_and(|v| v >= *min),
            Selection::Flag { attr, expected } => tuple.flag(attr) == Some(*expected),
            Selection::InRegion(rect) => rect.contains(&tuple.location),
            Selection::And(parts) => parts.iter().all(|p| p.matches_tuple(tuple)),
        }
    }

    /// Evaluates the condition against a returned tuple.
    ///
    /// `location` is the tuple's location as known to the estimator: the
    /// returned location for LR-LBS, an inferred position for LNR-LBS, or
    /// `None` when unknown. Returns `None` when the condition needs a
    /// location but none is available — the caller then has to infer one.
    pub fn matches_returned(
        &self,
        tuple: &ReturnedTuple,
        location: Option<&Point>,
    ) -> Option<bool> {
        match self {
            Selection::All => Some(true),
            Selection::TextEquals { attr, value } => Some(
                tuple
                    .text(attr)
                    .map(|t| t.eq_ignore_ascii_case(value))
                    .unwrap_or(false),
            ),
            Selection::AtLeast { attr, min } => Some(tuple.num(attr).is_some_and(|v| v >= *min)),
            Selection::Flag { attr, expected } => Some(tuple.flag(attr) == Some(*expected)),
            Selection::InRegion(rect) => location.map(|loc| rect.contains(loc)),
            Selection::And(parts) => {
                let mut all = true;
                for p in parts {
                    match p.matches_returned(tuple, location) {
                        Some(true) => {}
                        Some(false) => all = false,
                        None => return None,
                    }
                }
                Some(all)
            }
        }
    }

    /// `true` when evaluating the condition requires the tuple's location.
    pub fn needs_location(&self) -> bool {
        match self {
            Selection::InRegion(_) => true,
            Selection::And(parts) => parts.iter().any(|p| p.needs_location()),
            _ => false,
        }
    }

    /// Extracts the part of the condition that can be passed through to the
    /// LBS as a keyword filter (text-equality conditions only), if any.
    pub fn pass_through_filter(&self) -> Option<PassThroughFilter> {
        fn collect(sel: &Selection, filter: &mut PassThroughFilter) {
            match sel {
                Selection::TextEquals { attr, value } => {
                    filter.conditions.push((attr.clone(), value.clone()));
                }
                Selection::And(parts) => {
                    for p in parts {
                        collect(p, filter);
                    }
                }
                _ => {}
            }
        }
        let mut filter = PassThroughFilter::default();
        collect(self, &mut filter);
        if filter.conditions.is_empty() {
            None
        } else {
            Some(filter)
        }
    }
}

/// An aggregate query: function plus selection condition.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Aggregate {
    /// The aggregate function.
    pub function: AggFunction,
    /// The selection condition.
    pub selection: Selection,
}

impl Aggregate {
    /// `COUNT(*)` with no selection condition.
    pub fn count_all() -> Self {
        Aggregate {
            function: AggFunction::Count,
            selection: Selection::All,
        }
    }

    /// `COUNT(*)` with a selection condition.
    pub fn count_where(selection: Selection) -> Self {
        Aggregate {
            function: AggFunction::Count,
            selection,
        }
    }

    /// `SUM(attr)` with a selection condition.
    pub fn sum_where(attr: &str, selection: Selection) -> Self {
        Aggregate {
            function: AggFunction::Sum(attr.to_string()),
            selection,
        }
    }

    /// `AVG(attr)` with a selection condition.
    pub fn avg_where(attr: &str, selection: Selection) -> Self {
        Aggregate {
            function: AggFunction::Avg(attr.to_string()),
            selection,
        }
    }

    /// `COUNT` of restaurants (convenience for the experiments).
    pub fn count_restaurants() -> Self {
        Aggregate::count_where(Selection::TextEquals {
            attr: attrs::CATEGORY.to_string(),
            value: "restaurant".to_string(),
        })
    }

    /// `COUNT` of schools (convenience for the experiments).
    pub fn count_schools() -> Self {
        Aggregate::count_where(Selection::TextEquals {
            attr: attrs::CATEGORY.to_string(),
            value: "school".to_string(),
        })
    }

    /// `SUM(enrollment)` over schools (convenience for the experiments).
    pub fn sum_school_enrollment() -> Self {
        Aggregate::sum_where(
            attrs::ENROLLMENT,
            Selection::TextEquals {
                attr: attrs::CATEGORY.to_string(),
                value: "school".to_string(),
            },
        )
    }

    /// `true` when the aggregate is an AVG (estimated as a ratio of SUM and
    /// COUNT estimates).
    pub fn is_ratio(&self) -> bool {
        matches!(self.function, AggFunction::Avg(_))
    }

    /// `true` when evaluating the aggregate requires tuple locations (either
    /// through the selection condition or not at all for plain attributes).
    pub fn needs_location(&self) -> bool {
        self.selection.needs_location()
    }

    /// The numerator contribution of a returned tuple: the value that gets
    /// divided by the tuple's selection probability in the Horvitz–Thompson
    /// style estimator of the paper's equation (1).
    ///
    /// Returns `None` when the selection needs a location that is not
    /// available; returns `Some(0.0)` for tuples that fail the selection
    /// (paper §5.1: "return 0 as the estimation").
    pub fn numerator(&self, tuple: &ReturnedTuple, location: Option<&Point>) -> Option<f64> {
        let selected = self.selection.matches_returned(tuple, location)?;
        if !selected {
            return Some(0.0);
        }
        Some(match &self.function {
            AggFunction::Count => 1.0,
            AggFunction::Sum(attr) | AggFunction::Avg(attr) => tuple.num(attr).unwrap_or(0.0),
        })
    }

    /// The denominator contribution for ratio (AVG) aggregates: 1 for
    /// selected tuples, 0 otherwise. `None` under the same conditions as
    /// [`Aggregate::numerator`].
    pub fn denominator(&self, tuple: &ReturnedTuple, location: Option<&Point>) -> Option<f64> {
        let selected = self.selection.matches_returned(tuple, location)?;
        Some(if selected { 1.0 } else { 0.0 })
    }

    /// Ground-truth value of the aggregate over a dataset, restricted to
    /// tuples inside `region`.
    pub fn ground_truth(&self, dataset: &Dataset, region: &Rect) -> f64 {
        let pred = |t: &Tuple| region.contains(&t.location) && self.selection.matches_tuple(t);
        match &self.function {
            AggFunction::Count => dataset.count_where(pred) as f64,
            AggFunction::Sum(attr) => dataset.sum_where(attr, pred),
            AggFunction::Avg(attr) => dataset.avg_where(attr, pred).unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn returned(attrs_list: &[(&str, lbs_data::AttrValue)]) -> ReturnedTuple {
        let mut attributes = lbs_data::Attributes::new();
        for (k, v) in attrs_list {
            attributes.insert(k, v.clone());
        }
        ReturnedTuple {
            id: 1,
            rank: 1,
            location: None,
            distance: None,
            attributes,
        }
    }

    #[test]
    fn selection_on_tuples() {
        let t = Tuple::new(0, Point::new(5.0, 5.0))
            .with_attr(attrs::CATEGORY, "restaurant")
            .with_attr(attrs::RATING, 4.2)
            .with_attr(attrs::OPEN_SUNDAY, true);
        assert!(Selection::All.matches_tuple(&t));
        assert!(Selection::TextEquals {
            attr: attrs::CATEGORY.into(),
            value: "Restaurant".into()
        }
        .matches_tuple(&t));
        assert!(Selection::AtLeast {
            attr: attrs::RATING.into(),
            min: 4.0
        }
        .matches_tuple(&t));
        assert!(!Selection::AtLeast {
            attr: attrs::RATING.into(),
            min: 4.5
        }
        .matches_tuple(&t));
        assert!(Selection::Flag {
            attr: attrs::OPEN_SUNDAY.into(),
            expected: true
        }
        .matches_tuple(&t));
        assert!(Selection::InRegion(Rect::from_bounds(0.0, 0.0, 10.0, 10.0)).matches_tuple(&t));
        assert!(!Selection::InRegion(Rect::from_bounds(20.0, 20.0, 30.0, 30.0)).matches_tuple(&t));
        let and = Selection::And(vec![
            Selection::TextEquals {
                attr: attrs::CATEGORY.into(),
                value: "restaurant".into(),
            },
            Selection::AtLeast {
                attr: attrs::RATING.into(),
                min: 4.0,
            },
        ]);
        assert!(and.matches_tuple(&t));
    }

    #[test]
    fn selection_on_returned_tuples_needs_location_for_regions() {
        let r = returned(&[(attrs::GENDER, lbs_data::AttrValue::Text("male".into()))]);
        let region = Selection::InRegion(Rect::from_bounds(0.0, 0.0, 10.0, 10.0));
        assert_eq!(region.matches_returned(&r, None), None);
        assert_eq!(
            region.matches_returned(&r, Some(&Point::new(5.0, 5.0))),
            Some(true)
        );
        assert_eq!(
            region.matches_returned(&r, Some(&Point::new(50.0, 5.0))),
            Some(false)
        );
        assert!(region.needs_location());
        assert!(!Selection::All.needs_location());
        let and = Selection::And(vec![Selection::All, region]);
        assert!(and.needs_location());
        assert_eq!(and.matches_returned(&r, None), None);
    }

    #[test]
    fn pass_through_extraction() {
        let sel = Selection::And(vec![
            Selection::TextEquals {
                attr: attrs::BRAND.into(),
                value: "Starbucks".into(),
            },
            Selection::Flag {
                attr: attrs::OPEN_SUNDAY.into(),
                expected: true,
            },
        ]);
        let filter = sel.pass_through_filter().unwrap();
        assert_eq!(filter.conditions.len(), 1);
        assert_eq!(filter.conditions[0].0, attrs::BRAND);
        assert!(Selection::All.pass_through_filter().is_none());
    }

    #[test]
    fn numerator_for_each_function() {
        let r = returned(&[
            (attrs::CATEGORY, lbs_data::AttrValue::Text("school".into())),
            (attrs::ENROLLMENT, lbs_data::AttrValue::Float(800.0)),
        ]);
        let count = Aggregate::count_all();
        assert_eq!(count.numerator(&r, None), Some(1.0));
        let sum = Aggregate::sum_school_enrollment();
        assert_eq!(sum.numerator(&r, None), Some(800.0));
        let avg = Aggregate::avg_where(attrs::ENROLLMENT, Selection::All);
        assert_eq!(avg.numerator(&r, None), Some(800.0));
        assert_eq!(avg.denominator(&r, None), Some(1.0));
        // A tuple failing the selection contributes zero, not None.
        let not_school = returned(&[(attrs::CATEGORY, lbs_data::AttrValue::Text("cafe".into()))]);
        assert_eq!(sum.numerator(&not_school, None), Some(0.0));
        assert_eq!(sum.denominator(&not_school, None), Some(0.0));
    }

    #[test]
    fn ground_truth_matches_dataset_helpers() {
        let tuples = vec![
            Tuple::new(0, Point::new(1.0, 1.0))
                .with_attr(attrs::CATEGORY, "school")
                .with_attr(attrs::ENROLLMENT, 100.0),
            Tuple::new(1, Point::new(2.0, 2.0))
                .with_attr(attrs::CATEGORY, "school")
                .with_attr(attrs::ENROLLMENT, 300.0),
            Tuple::new(2, Point::new(50.0, 50.0))
                .with_attr(attrs::CATEGORY, "school")
                .with_attr(attrs::ENROLLMENT, 700.0),
        ];
        let d = Dataset::new(tuples, Rect::from_bounds(0.0, 0.0, 100.0, 100.0));
        let region = Rect::from_bounds(0.0, 0.0, 10.0, 10.0);
        assert_eq!(Aggregate::count_schools().ground_truth(&d, &region), 2.0);
        assert_eq!(
            Aggregate::sum_school_enrollment().ground_truth(&d, &region),
            400.0
        );
        assert_eq!(
            Aggregate::avg_where(attrs::ENROLLMENT, Selection::All).ground_truth(&d, &region),
            200.0
        );
        let everywhere = Rect::from_bounds(0.0, 0.0, 100.0, 100.0);
        assert_eq!(Aggregate::count_all().ground_truth(&d, &everywhere), 3.0);
    }

    #[test]
    fn convenience_constructors() {
        assert!(matches!(
            Aggregate::count_restaurants().function,
            AggFunction::Count
        ));
        assert!(Aggregate::avg_where("x", Selection::All).is_ratio());
        assert!(!Aggregate::count_all().is_ratio());
    }
}
