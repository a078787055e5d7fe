//! Query/response value types of the kNN interface.
//!
//! The trait the estimators program against lives in [`crate::backend`]
//! ([`crate::LbsBackend`]); this module holds the data that flows through
//! it: [`QueryResponse`] / [`ReturnedTuple`] answers, [`QueryError`], and
//! the [`PassThroughFilter`] modelling server-side selection conditions.

use lbs_data::{AttrValue, Attributes, TupleId};
use lbs_geom::Point;

/// One tuple of a query answer.
#[derive(Clone, Debug, PartialEq)]
pub struct ReturnedTuple {
    /// Identifier of the tuple (always returned, also by LNR-LBS).
    pub id: TupleId,
    /// 1-based rank of the tuple within the answer (1 = nearest under the
    /// service's ranking function).
    pub rank: usize,
    /// Location of the tuple — `Some` only for LR-LBS interfaces.
    pub location: Option<Point>,
    /// Distance from the query location — `Some` only for LR-LBS interfaces.
    pub distance: Option<f64>,
    /// Non-location attributes returned alongside the tuple (name, rating,
    /// gender, …), shared with the service's copy of the tuple.
    pub attributes: Attributes,
}

impl ReturnedTuple {
    /// Numeric attribute helper (mirrors [`lbs_data::Tuple::num`]).
    pub fn num(&self, name: &str) -> Option<f64> {
        self.attributes.get(name).and_then(AttrValue::as_f64)
    }

    /// Text attribute helper.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.attributes.get(name).and_then(AttrValue::as_str)
    }

    /// Boolean attribute helper.
    pub fn flag(&self, name: &str) -> Option<bool> {
        self.attributes.get(name).and_then(AttrValue::as_bool)
    }
}

/// A complete answer to one kNN point query.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryResponse {
    /// The returned tuples, ordered by rank (best first). May be empty when
    /// a maximum-radius restriction filtered everything out.
    pub results: Vec<ReturnedTuple>,
}

impl QueryResponse {
    /// The top-ranked tuple, if any.
    pub fn top(&self) -> Option<&ReturnedTuple> {
        self.results.first()
    }

    /// `true` when the answer contains the given tuple id.
    pub fn contains(&self, id: TupleId) -> bool {
        self.results.iter().any(|r| r.id == id)
    }

    /// The rank (1-based) of the given tuple id within the answer.
    pub fn rank_of(&self, id: TupleId) -> Option<usize> {
        self.results.iter().find(|r| r.id == id).map(|r| r.rank)
    }
}

/// Errors a query can fail with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The service's hard query limit has been exhausted.
    BudgetExhausted {
        /// Queries already issued.
        issued: u64,
        /// The hard limit that was hit.
        limit: u64,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::BudgetExhausted { issued, limit } => {
                write!(f, "query budget exhausted: {issued} issued, limit {limit}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// A selection condition that can be "passed through" to the LBS, i.e.
/// appended to every query the estimator issues (paper §5.1, first scenario).
///
/// Real services support keyword or category filters; the simulator models
/// them as conjunctions of case-insensitive text-equality conditions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassThroughFilter {
    /// Attribute-name / required-value pairs, all of which must match.
    pub conditions: Vec<(String, String)>,
}

impl PassThroughFilter {
    /// A filter with a single condition.
    pub fn equals(attr: &str, value: &str) -> Self {
        PassThroughFilter {
            conditions: vec![(attr.to_string(), value.to_string())],
        }
    }

    /// Adds another condition.
    pub fn and(mut self, attr: &str, value: &str) -> Self {
        self.conditions.push((attr.to_string(), value.to_string()));
        self
    }

    /// `true` when the tuple satisfies every condition.
    pub fn matches(&self, tuple: &lbs_data::Tuple) -> bool {
        self.conditions
            .iter()
            .all(|(attr, value)| tuple.text_eq(attr, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbs_data::{attrs, Tuple};

    #[test]
    fn response_helpers() {
        let resp = QueryResponse {
            results: vec![
                ReturnedTuple {
                    id: 5,
                    rank: 1,
                    location: Some(Point::new(1.0, 1.0)),
                    distance: Some(0.5),
                    attributes: Attributes::new(),
                },
                ReturnedTuple {
                    id: 9,
                    rank: 2,
                    location: None,
                    distance: None,
                    attributes: Attributes::new(),
                },
            ],
        };
        assert_eq!(resp.top().unwrap().id, 5);
        assert!(resp.contains(9));
        assert!(!resp.contains(7));
        assert_eq!(resp.rank_of(9), Some(2));
        assert_eq!(resp.rank_of(7), None);
    }

    #[test]
    fn returned_tuple_attribute_helpers() {
        let tuple = Tuple::new(1, Point::ORIGIN)
            .with_attr(attrs::RATING, 4.5)
            .with_attr(attrs::GENDER, "female")
            .with_attr(attrs::OPEN_SUNDAY, true);
        let r = ReturnedTuple {
            id: 1,
            rank: 1,
            location: None,
            distance: None,
            attributes: tuple.attributes,
        };
        assert_eq!(r.num(attrs::RATING), Some(4.5));
        assert_eq!(r.text(attrs::GENDER), Some("female"));
        assert_eq!(r.flag(attrs::OPEN_SUNDAY), Some(true));
        assert!(r.num("missing").is_none());
    }

    #[test]
    fn pass_through_filter_matches_conjunction() {
        let t = Tuple::new(0, Point::ORIGIN)
            .with_attr(attrs::CATEGORY, "cafe")
            .with_attr(attrs::BRAND, "Starbucks");
        let f = PassThroughFilter::equals(attrs::BRAND, "starbucks");
        assert!(f.matches(&t));
        let f2 = f.clone().and(attrs::CATEGORY, "cafe");
        assert!(f2.matches(&t));
        let f3 = f2.and(attrs::CATEGORY, "restaurant");
        assert!(!f3.matches(&t));
        assert!(PassThroughFilter::default().matches(&t));
    }

    #[test]
    fn query_error_displays() {
        let e = QueryError::BudgetExhausted {
            issued: 100,
            limit: 100,
        };
        assert!(e.to_string().contains("100"));
    }
}
