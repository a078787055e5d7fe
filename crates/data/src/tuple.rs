//! Tuples: the hidden database records behind an LBS.
//!
//! A tuple is a point of interest (map services) or a user (location based
//! social networks): a location plus a bag of named attributes. The paper's
//! aggregates (`COUNT`, `SUM`, `AVG` with optional selection conditions) are
//! evaluated over these attributes.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize, Value};

use lbs_geom::Point;

/// Identifier of a tuple, unique within one [`crate::Dataset`].
///
/// LNR-LBS interfaces return *only* tuple ids (plus non-location attributes),
/// so the id is the handle everything else hangs off.
pub type TupleId = u64;

/// A typed attribute value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum AttrValue {
    /// A real-valued attribute (rating, enrollment, review count, …).
    Float(f64),
    /// An integer attribute.
    Int(i64),
    /// A textual attribute (name, brand, category, gender, …).
    Text(String),
    /// A boolean attribute (open on Sundays, location feature enabled, …).
    Bool(bool),
}

impl AttrValue {
    /// Numeric view of the value: floats and ints as themselves, booleans as
    /// 0/1, text as `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AttrValue::Float(v) => Some(*v),
            AttrValue::Int(v) => Some(*v as f64),
            AttrValue::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            AttrValue::Text(_) => None,
        }
    }

    /// Textual view of the value (`None` for non-text values).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view of the value (`None` for non-bool values).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AttrValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Float(v) => write!(f, "{v}"),
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Text(s) => write!(f, "{s}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Text(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Text(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

/// Well-known attribute names used by the generators and the experiment
/// harness. Keeping them in one place avoids typo-induced "attribute not
/// found" bugs in selection conditions.
pub mod attrs {
    /// POI category: `"restaurant"`, `"school"`, `"bank"`, `"cafe"`, ….
    pub const CATEGORY: &str = "category";
    /// Display name of the POI or user.
    pub const NAME: &str = "name";
    /// Brand of a POI (e.g. `"Starbucks"`).
    pub const BRAND: &str = "brand";
    /// Average review rating of a restaurant (1.0 ..= 5.0).
    pub const RATING: &str = "rating";
    /// Number of reviews of a POI.
    pub const REVIEW_COUNT: &str = "review_count";
    /// Enrollment of a school.
    pub const ENROLLMENT: &str = "enrollment";
    /// Whether a restaurant is open on Sundays.
    pub const OPEN_SUNDAY: &str = "open_sunday";
    /// Gender of a user: `"male"` or `"female"`.
    pub const GENDER: &str = "gender";
    /// Static popularity score used by prominence ranking.
    pub const PROMINENCE: &str = "prominence";
}

/// The [`attrs`] names. An attribute list borrows these instead of copying
/// them, so a generated table holds no per-tuple name strings.
const WELL_KNOWN_NAMES: [&str; 9] = [
    attrs::CATEGORY,
    attrs::NAME,
    attrs::BRAND,
    attrs::RATING,
    attrs::REVIEW_COUNT,
    attrs::ENROLLMENT,
    attrs::OPEN_SUNDAY,
    attrs::GENDER,
    attrs::PROMINENCE,
];

/// `name` as a static string when it is well known, else an owned copy.
fn attr_name(name: &str) -> Cow<'static, str> {
    match WELL_KNOWN_NAMES.iter().find(|known| **known == name) {
        Some(known) => Cow::Borrowed(known),
        None => Cow::Owned(name.to_string()),
    }
}

/// The named attributes of a tuple, shared by every copy of it.
///
/// One immutable list sorted by name behind a reference count: cloning a
/// tuple, or returning it in a query answer, bumps the count instead of
/// copying names and values. [`Attributes::insert`] copies the list first
/// when another handle shares it (copy on write), so an edit never shows
/// through another copy. Iteration, `Debug` and the JSON form follow name
/// order, exactly as a `BTreeMap<String, AttrValue>` would. The
/// well-known [`attrs`] names are not copied at all.
#[derive(Clone, Default, PartialEq)]
pub struct Attributes(Arc<Vec<(Cow<'static, str>, AttrValue)>>);

impl Attributes {
    /// An empty attribute list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks an attribute up by name.
    pub fn get(&self, name: &str) -> Option<&AttrValue> {
        let i = self.position(name).ok()?;
        Some(&self.0[i].1)
    }

    /// The attributes in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &AttrValue)> + '_ {
        self.0.iter().map(|(name, value)| (name.as_ref(), value))
    }

    /// Sets `name` to `value`, replacing any previous value. Copies the
    /// list first when another handle shares it.
    pub fn insert(&mut self, name: &str, value: AttrValue) {
        let slot = self.position(name);
        let list = Arc::make_mut(&mut self.0);
        match slot {
            Ok(i) => list[i].1 = value,
            Err(i) => list.insert(i, (attr_name(name), value)),
        }
    }

    fn position(&self, name: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(n, _)| n.as_ref().cmp(name))
    }
}

impl fmt::Debug for Attributes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl Serialize for Attributes {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(name, value)| (name.to_string(), value.to_value()))
                .collect(),
        )
    }
}

impl Deserialize for Attributes {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let map = BTreeMap::<String, AttrValue>::from_value(value)?;
        let list = map
            .into_iter()
            .map(|(name, value)| (Cow::Owned(name), value))
            .collect();
        Ok(Attributes(Arc::new(list)))
    }
}

/// A database record: location plus attributes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Tuple {
    /// Unique identifier within the dataset.
    pub id: TupleId,
    /// Location of the tuple on the plane (kilometre coordinates).
    pub location: Point,
    /// Named attributes of the tuple.
    pub attributes: Attributes,
}

impl Tuple {
    /// Creates a tuple with no attributes.
    pub fn new(id: TupleId, location: Point) -> Self {
        Tuple {
            id,
            location,
            attributes: Attributes::new(),
        }
    }

    /// Builder-style attribute insertion.
    pub fn with_attr(mut self, name: &str, value: impl Into<AttrValue>) -> Self {
        self.set_attr(name, value);
        self
    }

    /// Sets an attribute in place (other copies of the tuple keep the old
    /// value).
    pub fn set_attr(&mut self, name: &str, value: impl Into<AttrValue>) {
        self.attributes.insert(name, value.into());
    }

    /// Looks up an attribute.
    pub fn attr(&self, name: &str) -> Option<&AttrValue> {
        self.attributes.get(name)
    }

    /// Numeric value of an attribute (`None` when missing or non-numeric).
    pub fn num(&self, name: &str) -> Option<f64> {
        self.attr(name).and_then(AttrValue::as_f64)
    }

    /// Text value of an attribute (`None` when missing or non-text).
    pub fn text(&self, name: &str) -> Option<&str> {
        self.attr(name).and_then(AttrValue::as_str)
    }

    /// Boolean value of an attribute (`None` when missing or non-bool).
    pub fn flag(&self, name: &str) -> Option<bool> {
        self.attr(name).and_then(AttrValue::as_bool)
    }

    /// `true` when the text attribute `name` equals `value`
    /// (case-insensitive), mimicking the keyword filters LBS interfaces
    /// support for pass-through selection conditions.
    pub fn text_eq(&self, name: &str, value: &str) -> bool {
        self.text(name)
            .map(|t| t.eq_ignore_ascii_case(value))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_round_trip() {
        let t = Tuple::new(7, Point::new(1.0, 2.0))
            .with_attr(attrs::CATEGORY, "restaurant")
            .with_attr(attrs::RATING, 4.5)
            .with_attr(attrs::REVIEW_COUNT, 120_i64)
            .with_attr(attrs::OPEN_SUNDAY, true);
        assert_eq!(t.text(attrs::CATEGORY), Some("restaurant"));
        assert_eq!(t.num(attrs::RATING), Some(4.5));
        assert_eq!(t.num(attrs::REVIEW_COUNT), Some(120.0));
        assert_eq!(t.flag(attrs::OPEN_SUNDAY), Some(true));
        assert_eq!(t.num(attrs::OPEN_SUNDAY), Some(1.0));
        assert!(t.attr("missing").is_none());
        assert!(t.num(attrs::CATEGORY).is_none());
    }

    #[test]
    fn text_eq_is_case_insensitive() {
        let t = Tuple::new(1, Point::ORIGIN).with_attr(attrs::BRAND, "Starbucks");
        assert!(t.text_eq(attrs::BRAND, "starbucks"));
        assert!(t.text_eq(attrs::BRAND, "STARBUCKS"));
        assert!(!t.text_eq(attrs::BRAND, "Dunkin"));
        assert!(!t.text_eq("missing", "Starbucks"));
    }

    #[test]
    fn set_attr_overwrites() {
        let mut t = Tuple::new(1, Point::ORIGIN).with_attr(attrs::RATING, 3.0);
        t.set_attr(attrs::RATING, 4.0);
        assert_eq!(t.num(attrs::RATING), Some(4.0));
    }

    #[test]
    fn repeated_with_attr_replaces_the_value() {
        let t = Tuple::new(1, Point::ORIGIN)
            .with_attr(attrs::RATING, 3.0)
            .with_attr(attrs::CATEGORY, "cafe")
            .with_attr(attrs::RATING, 4.5);
        assert_eq!(t.num(attrs::RATING), Some(4.5));
        assert_eq!(t.attributes.iter().count(), 2);
    }

    #[test]
    fn set_attr_on_a_clone_leaves_the_original_unchanged() {
        let original = Tuple::new(1, Point::ORIGIN)
            .with_attr(attrs::RATING, 3.0)
            .with_attr(attrs::CATEGORY, "cafe");
        let mut copy = original.clone();
        copy.set_attr(attrs::RATING, 4.0);
        copy.set_attr(attrs::BRAND, "Starbucks");
        assert_eq!(original.num(attrs::RATING), Some(3.0));
        assert!(original.attr(attrs::BRAND).is_none());
        assert_eq!(copy.num(attrs::RATING), Some(4.0));
        assert_eq!(copy.text(attrs::BRAND), Some("Starbucks"));
    }

    #[test]
    fn json_and_debug_forms_are_a_name_ordered_map() {
        // All seven attributes of a generated POI, inserted out of name
        // order. The JSON is byte for byte what serde renders for a
        // `BTreeMap<String, AttrValue>`: a map in name order.
        let t = Tuple::new(17, Point::new(-97.25, 30.5))
            .with_attr(attrs::PROMINENCE, 0.625)
            .with_attr(attrs::CATEGORY, "cafe")
            .with_attr(attrs::OPEN_SUNDAY, true)
            .with_attr(attrs::BRAND, "Starbucks")
            .with_attr(attrs::REVIEW_COUNT, 42_i64)
            .with_attr(attrs::NAME, "Starbucks #17")
            .with_attr(attrs::RATING, 4.25);
        assert_eq!(
            serde_json::to_string(&t).unwrap(),
            "{\"id\":17,\"location\":{\"x\":-97.25,\"y\":30.5},\"attributes\":{\
             \"brand\":{\"Text\":\"Starbucks\"},\"category\":{\"Text\":\"cafe\"},\
             \"name\":{\"Text\":\"Starbucks #17\"},\"open_sunday\":{\"Bool\":true},\
             \"prominence\":{\"Float\":0.625},\"rating\":{\"Float\":4.25},\
             \"review_count\":{\"Int\":42}}}"
        );
        assert_eq!(
            // lbs-lint: allow(nondet-debug-fmt, reason = "Attributes' Debug is a name-ordered map, the form under test")
            format!("{:?}", t.attributes),
            "{\"brand\": Text(\"Starbucks\"), \"category\": Text(\"cafe\"), \
             \"name\": Text(\"Starbucks #17\"), \"open_sunday\": Bool(true), \
             \"prominence\": Float(0.625), \"rating\": Float(4.25), \"review_count\": Int(42)}"
        );
    }

    #[test]
    fn attr_value_display_and_conversions() {
        assert_eq!(AttrValue::from(2.5).to_string(), "2.5");
        assert_eq!(AttrValue::from(3_i64).to_string(), "3");
        assert_eq!(AttrValue::from("x").to_string(), "x");
        assert_eq!(AttrValue::from(true).to_string(), "true");
        assert_eq!(AttrValue::from("abc").as_str(), Some("abc"));
        assert_eq!(AttrValue::from(false).as_bool(), Some(false));
        assert_eq!(AttrValue::from(2_i64).as_f64(), Some(2.0));
        assert!(AttrValue::from("abc").as_f64().is_none());
    }

    #[test]
    fn serde_round_trip() {
        let t = Tuple::new(42, Point::new(3.0, 4.0))
            .with_attr(attrs::GENDER, "female")
            .with_attr(attrs::PROMINENCE, 0.7);
        let json = serde_json::to_string(&t).unwrap();
        let back: Tuple = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
