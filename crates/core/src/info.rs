//! MPI Info objects: key-value hints, including the MPI 4.0 assertions and the
//! MPICH-style VCI mapping hints from the paper's Listing 2.

use std::collections::BTreeMap;

use crate::error::{Error, Result};

/// Keys understood by this library. Unknown keys are stored and ignored, per
/// MPI's Info semantics.
pub mod keys {
    /// MPI 4.0: matching need not follow posting order.
    pub const ASSERT_ALLOW_OVERTAKING: &str = "mpi_assert_allow_overtaking";
    /// MPI 4.0: no receive on this communicator uses `ANY_TAG`.
    pub const ASSERT_NO_ANY_TAG: &str = "mpi_assert_no_any_tag";
    /// MPI 4.0: no receive on this communicator uses `ANY_SOURCE`.
    pub const ASSERT_NO_ANY_SOURCE: &str = "mpi_assert_no_any_source";
    /// Implementation hint: number of VCIs to spread this communicator over.
    pub const NUM_VCIS: &str = "mpich_num_vcis";
    /// Implementation hint: number of tag bits encoding a thread id.
    pub const NUM_TAG_BITS_VCI: &str = "mpich_num_tag_bits_vci";
    /// Implementation hint: where the VCI tag bits sit (`MSB` or `LSB`).
    pub const PLACE_TAG_BITS: &str = "mpich_place_tag_bits_local_vci";
    /// Implementation hint: how tag bits map to VCIs (`one-to-one` or `hash`).
    pub const TAG_VCI_HASH_TYPE: &str = "mpich_tag_vci_hash_type";
    /// RMA: ordering required between accumulate operations
    /// (`none` relaxes MPI's default same-source-same-target ordering).
    pub const ACCUMULATE_ORDERING: &str = "accumulate_ordering";
    /// Reliability hint: retransmissions per packet before the library gives
    /// up and surfaces `RetriesExhausted`/`LinkDown`.
    pub const RESIL_MAX_RETRIES: &str = "rankmpi_resil_max_retries";
    /// Reliability hint: base retransmission timeout in virtual nanoseconds
    /// (doubles per retry up to an 16× cap).
    pub const RESIL_RTO_NS: &str = "rankmpi_resil_rto_ns";
    /// Reliability hint: per-channel sliding-window size (unacked packets in
    /// flight before the sender stalls).
    pub const RESIL_WINDOW: &str = "rankmpi_resil_window";
}

/// An MPI Info object: an ordered map of string hints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Info {
    entries: BTreeMap<String, String>,
}

impl Info {
    /// An empty Info.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set a hint (builder style).
    pub fn set(mut self, key: &str, value: &str) -> Self {
        self.entries.insert(key.to_string(), value.to_string());
        self
    }

    /// Set a hint in place.
    pub fn insert(&mut self, key: &str, value: &str) {
        self.entries.insert(key.to_string(), value.to_string());
    }

    /// Look up a hint.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(String::as_str)
    }

    /// Number of hints set.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no hints are set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Interpret a hint as a boolean (`"true"`/`"false"`); absent = `false`.
    pub fn get_bool(&self, key: &str) -> Result<bool> {
        match self.get(key) {
            None => Ok(false),
            Some("true") => Ok(true),
            Some("false") => Ok(false),
            Some(other) => Err(Error::BadInfoValue {
                key: key.to_string(),
                value: other.to_string(),
            }),
        }
    }

    /// Interpret a hint as an unsigned integer.
    pub fn get_usize(&self, key: &str) -> Result<Option<usize>> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse::<usize>()
                .map(Some)
                .map_err(|_| Error::BadInfoValue {
                    key: key.to_string(),
                    value: v.to_string(),
                }),
        }
    }

    /// `mpi_assert_allow_overtaking`.
    pub fn allow_overtaking(&self) -> Result<bool> {
        self.get_bool(keys::ASSERT_ALLOW_OVERTAKING)
    }

    /// `mpi_assert_no_any_tag`.
    pub fn no_any_tag(&self) -> Result<bool> {
        self.get_bool(keys::ASSERT_NO_ANY_TAG)
    }

    /// `mpi_assert_no_any_source`.
    pub fn no_any_source(&self) -> Result<bool> {
        self.get_bool(keys::ASSERT_NO_ANY_SOURCE)
    }

    /// Apply the `rankmpi_resil_*` hints on top of `base`, returning the
    /// adjusted reliability config — or `None` when no reliability hint is
    /// set (leave the channel's current config alone).
    pub fn resil_config(
        &self,
        base: rankmpi_fabric::ResilConfig,
    ) -> Result<Option<rankmpi_fabric::ResilConfig>> {
        let retries = self.get_usize(keys::RESIL_MAX_RETRIES)?;
        let rto = self.get_usize(keys::RESIL_RTO_NS)?;
        let window = self.get_usize(keys::RESIL_WINDOW)?;
        if retries.is_none() && rto.is_none() && window.is_none() {
            return Ok(None);
        }
        let mut cfg = base;
        if let Some(r) = retries {
            cfg.max_retries = r as u32;
        }
        if let Some(ns) = rto {
            cfg.rto_base = rankmpi_vtime::Nanos(ns as u64);
            cfg.rto_cap = rankmpi_vtime::Nanos((ns as u64).saturating_mul(16));
        }
        if let Some(w) = window {
            if w == 0 {
                return Err(Error::BadInfoValue {
                    key: keys::RESIL_WINDOW.to_string(),
                    value: "0".to_string(),
                });
            }
            cfg.window = w;
        }
        Ok(Some(cfg))
    }

    /// Iterate over all hints.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_style_sets_hints() {
        let info = Info::new()
            .set(keys::ASSERT_NO_ANY_TAG, "true")
            .set(keys::NUM_VCIS, "8");
        assert!(info.no_any_tag().unwrap());
        assert!(!info.no_any_source().unwrap());
        assert_eq!(info.get_usize(keys::NUM_VCIS).unwrap(), Some(8));
        assert_eq!(info.len(), 2);
    }

    #[test]
    fn unknown_keys_are_stored() {
        let info = Info::new().set("vendor_specific_thing", "whatever");
        assert_eq!(info.get("vendor_specific_thing"), Some("whatever"));
        // The matching engine is fixed at universe build time; the retired
        // engine hint is just another unknown key.
        let info = Info::new().set("rankmpi_matching", "linear");
        assert_eq!(info.get("rankmpi_matching"), Some("linear"));
        assert_eq!(info.len(), 1);
    }

    #[test]
    fn bad_bool_is_an_error() {
        let info = Info::new().set(keys::ASSERT_NO_ANY_TAG, "yes");
        assert!(matches!(info.no_any_tag(), Err(Error::BadInfoValue { .. })));
    }

    #[test]
    fn bad_int_is_an_error() {
        let info = Info::new().set(keys::NUM_VCIS, "eight");
        assert!(info.get_usize(keys::NUM_VCIS).is_err());
    }

    #[test]
    fn resil_hints_override_the_base_config() {
        use rankmpi_fabric::ResilConfig;
        let base = ResilConfig::default();
        assert_eq!(Info::new().resil_config(base).unwrap(), None);
        let info = Info::new()
            .set(keys::RESIL_MAX_RETRIES, "3")
            .set(keys::RESIL_RTO_NS, "1000")
            .set(keys::RESIL_WINDOW, "8");
        let cfg = info.resil_config(base).unwrap().unwrap();
        assert_eq!(cfg.max_retries, 3);
        assert_eq!(cfg.rto_base, rankmpi_vtime::Nanos(1000));
        assert_eq!(cfg.rto_cap, rankmpi_vtime::Nanos(16_000));
        assert_eq!(cfg.window, 8);
        let bad = Info::new().set(keys::RESIL_WINDOW, "0");
        assert!(bad.resil_config(base).is_err());
    }

    #[test]
    fn absent_hints_default_sanely() {
        let info = Info::new();
        assert!(!info.allow_overtaking().unwrap());
        assert_eq!(info.get_usize(keys::NUM_VCIS).unwrap(), None);
        assert!(info.is_empty());
    }
}
