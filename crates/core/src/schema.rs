//! Schemas: the per-property type declarations and categorical domains.
//!
//! A [`Schema`] lists the `M` properties of the truth table (Definition 1),
//! each with a [`PropertyType`], and owns a string interner per categorical
//! property so observations can be stored as dense `u32` ids.
//!
//! The lookup maps are `BTreeMap`s, not `HashMap`s. Callers clone a
//! schema for each table build, and a randomly seeded map would clone
//! and drop its label strings in an order that changes from process to
//! process. That order shapes the allocator's heap, and so whether the
//! solver's transient buffers go back to the OS after a solve, which
//! moves peak memory and solve time between runs of one binary. Ordered
//! maps clone and drop in key order, the same in every run.

use std::collections::BTreeMap;

use crate::error::{CrhError, Result};
use crate::ids::PropertyId;
use crate::value::{PropertyType, Value};

/// A string interner for one categorical property's domain.
#[derive(Debug, Clone, Default)]
pub struct Domain {
    labels: Vec<String>,
    index: BTreeMap<String, u32>,
}

impl Domain {
    /// Intern `label`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.index.get(label) {
            return id;
        }
        // crh-lint: allow(panic-expect) — capacity contract: a categorical domain past u32::MAX labels is a caller bug, not a runtime input
        let id = u32::try_from(self.labels.len()).expect("domain overflow");
        self.labels.push(label.to_owned());
        self.index.insert(label.to_owned(), id);
        id
    }

    /// Look up an already-interned label.
    pub fn get(&self, label: &str) -> Option<u32> {
        self.index.get(label).copied()
    }

    /// The label for an id, if in range.
    pub fn label(&self, id: u32) -> Option<&str> {
        self.labels.get(id as usize).map(String::as_str)
    }

    /// Number of distinct labels (the `L_m` of Eq 10).
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterate over `(id, label)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.labels
            .iter()
            .enumerate()
            .map(|(i, l)| (i as u32, l.as_str()))
    }
}

/// One property declaration.
#[derive(Debug, Clone)]
pub struct PropertyDef {
    /// Human-readable name (column header).
    pub name: String,
    /// Declared data type.
    pub ptype: PropertyType,
}

/// The schema of a heterogeneous truth-discovery task.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    props: Vec<PropertyDef>,
    domains: Vec<Domain>, // parallel to props; empty Domain for non-categorical
    name_index: BTreeMap<String, PropertyId>,
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    fn add(&mut self, name: &str, ptype: PropertyType) -> PropertyId {
        assert!(
            !self.name_index.contains_key(name),
            "duplicate property name {name:?}"
        );
        let id = PropertyId::from_index(self.props.len());
        self.props.push(PropertyDef {
            name: name.to_owned(),
            ptype,
        });
        self.domains.push(Domain::default());
        self.name_index.insert(name.to_owned(), id);
        id
    }

    /// Declare a categorical property.
    ///
    /// # Panics
    /// Panics if a property with the same name already exists.
    pub fn add_categorical(&mut self, name: &str) -> PropertyId {
        self.add(name, PropertyType::Categorical)
    }

    /// Declare a continuous property.
    ///
    /// # Panics
    /// Panics if a property with the same name already exists.
    pub fn add_continuous(&mut self, name: &str) -> PropertyId {
        self.add(name, PropertyType::Continuous)
    }

    /// Declare a text property.
    ///
    /// # Panics
    /// Panics if a property with the same name already exists.
    pub fn add_text(&mut self, name: &str) -> PropertyId {
        self.add(name, PropertyType::Text)
    }

    /// Number of properties `M`.
    pub fn num_properties(&self) -> usize {
        self.props.len()
    }

    /// The declaration of property `m`.
    pub fn property(&self, m: PropertyId) -> Option<&PropertyDef> {
        self.props.get(m.index())
    }

    /// The declared type of property `m`.
    pub fn property_type(&self, m: PropertyId) -> Result<PropertyType> {
        self.props
            .get(m.index())
            .map(|p| p.ptype)
            .ok_or(CrhError::UnknownProperty(m))
    }

    /// Find a property by name.
    pub fn property_by_name(&self, name: &str) -> Option<PropertyId> {
        self.name_index.get(name).copied()
    }

    /// Iterate over `(PropertyId, &PropertyDef)`.
    pub fn properties(&self) -> impl Iterator<Item = (PropertyId, &PropertyDef)> {
        self.props
            .iter()
            .enumerate()
            .map(|(i, p)| (PropertyId::from_index(i), p))
    }

    /// Intern a categorical label into property `m`'s domain, returning a
    /// [`Value::Cat`].
    pub fn intern(&mut self, m: PropertyId, label: &str) -> Result<Value> {
        match self.property_type(m)? {
            PropertyType::Categorical => Ok(Value::Cat(self.domains[m.index()].intern(label))),
            other => Err(CrhError::TypeMismatch {
                property: m,
                expected: PropertyType::Categorical,
                got: other,
            }),
        }
    }

    /// Resolve an already-interned label without mutating the domain.
    pub fn lookup(&self, m: PropertyId, label: &str) -> Result<Value> {
        let dom = self
            .domains
            .get(m.index())
            .ok_or(CrhError::UnknownProperty(m))?;
        dom.get(label)
            .map(Value::Cat)
            .ok_or_else(|| CrhError::UnknownLabel {
                property: m,
                label: label.to_owned(),
            })
    }

    /// The domain of a categorical property.
    pub fn domain(&self, m: PropertyId) -> Option<&Domain> {
        self.domains.get(m.index())
    }

    /// The label for a categorical value of property `m`.
    pub fn label(&self, m: PropertyId, v: &Value) -> Option<&str> {
        match v {
            Value::Cat(id) => self.domains.get(m.index())?.label(*id),
            _ => None,
        }
    }

    /// Validate that `v` is admissible for property `m`.
    pub fn check_value(&self, m: PropertyId, v: &Value) -> Result<()> {
        let expected = self.property_type(m)?;
        let got = v.property_type();
        if expected != got {
            return Err(CrhError::TypeMismatch {
                property: m,
                expected,
                got,
            });
        }
        // Non-finite measurements would poison weighted medians/means and
        // deviation sums downstream; reject them at the boundary.
        if let Value::Num(x) = v {
            if !x.is_finite() {
                return Err(CrhError::NonFiniteValue {
                    property: m,
                    value: *x,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Domain::default();
        let a = d.intern("sunny");
        let b = d.intern("rainy");
        assert_eq!(d.intern("sunny"), a);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
        assert_eq!(d.label(a), Some("sunny"));
        assert_eq!(d.get("rainy"), Some(b));
        assert_eq!(d.get("foggy"), None);
        assert!(!d.is_empty());
    }

    #[test]
    fn domain_iter_in_id_order() {
        let mut d = Domain::default();
        d.intern("a");
        d.intern("b");
        let pairs: Vec<_> = d.iter().collect();
        assert_eq!(pairs, vec![(0, "a"), (1, "b")]);
    }

    #[test]
    fn schema_declarations() {
        let mut s = Schema::new();
        let cond = s.add_categorical("condition");
        let hi = s.add_continuous("high_temp");
        let note = s.add_text("note");
        assert_eq!(s.num_properties(), 3);
        assert_eq!(s.property_type(cond).unwrap(), PropertyType::Categorical);
        assert_eq!(s.property_type(hi).unwrap(), PropertyType::Continuous);
        assert_eq!(s.property_type(note).unwrap(), PropertyType::Text);
        assert_eq!(s.property_by_name("high_temp"), Some(hi));
        assert_eq!(s.property_by_name("nope"), None);
        assert_eq!(s.property(cond).unwrap().name, "condition");
    }

    #[test]
    fn schema_intern_and_label() {
        let mut s = Schema::new();
        let cond = s.add_categorical("condition");
        let v = s.intern(cond, "sunny").unwrap();
        assert_eq!(v, Value::Cat(0));
        assert_eq!(s.label(cond, &v), Some("sunny"));
        assert_eq!(s.lookup(cond, "sunny").unwrap(), Value::Cat(0));
        assert!(matches!(
            s.lookup(cond, "hail"),
            Err(CrhError::UnknownLabel { .. })
        ));
    }

    #[test]
    fn intern_on_continuous_property_is_error() {
        let mut s = Schema::new();
        let hi = s.add_continuous("high_temp");
        assert!(matches!(
            s.intern(hi, "x"),
            Err(CrhError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn check_value_enforces_types() {
        let mut s = Schema::new();
        let hi = s.add_continuous("high_temp");
        assert!(s.check_value(hi, &Value::Num(70.0)).is_ok());
        assert!(s.check_value(hi, &Value::Cat(0)).is_err());
        assert!(s.check_value(PropertyId(99), &Value::Num(0.0)).is_err());
    }

    #[test]
    fn check_value_rejects_non_finite() {
        let mut s = Schema::new();
        let hi = s.add_continuous("high_temp");
        assert!(matches!(
            s.check_value(hi, &Value::Num(f64::NAN)),
            Err(CrhError::NonFiniteValue { .. })
        ));
        assert!(matches!(
            s.check_value(hi, &Value::Num(f64::INFINITY)),
            Err(CrhError::NonFiniteValue { .. })
        ));
        assert!(s.check_value(hi, &Value::Num(f64::MAX)).is_ok());
    }

    #[test]
    #[should_panic(expected = "duplicate property name")]
    fn duplicate_name_panics() {
        let mut s = Schema::new();
        s.add_continuous("x");
        s.add_categorical("x");
    }

    #[test]
    fn properties_iterator() {
        let mut s = Schema::new();
        s.add_continuous("a");
        s.add_categorical("b");
        let names: Vec<_> = s.properties().map(|(_, p)| p.name.clone()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
