//! The benchmark's own checker: judges the rack's outputs against values
//! and orders computed by the benchmark, not by the program.
//!
//! Every op is logged with the benchmark's logical invoke/response times
//! (one process-wide counter, so real-time order across sessions is
//! exact). From that log the checker demands, per key:
//! - a read returns the bulk-loaded value or a value some put wrote to
//!   that key, and never a value overwritten before the read began or
//!   written only after it returned;
//! - after quiescence, a written key holds its last acknowledged write or a
//!   write concurrent with it, and every replica of a hot key agrees.

use crate::spec::{initial_tag, is_initial_tag, render, tag_of};
use std::collections::HashMap;

/// One completed op in the benchmark's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rec {
    pub key: u64,
    pub put: bool,
    /// The value tag written (put) or returned (get).
    pub tag: u64,
    pub inv: u64,
    pub resp: u64,
}

/// Decodes a value read for `key` into its tag; errs unless the bytes are
/// exactly a value the benchmark rendered for `key`.
pub fn check_read(key: u64, value: &[u8]) -> Result<u64, String> {
    tag_of(key, value).ok_or_else(|| {
        let shown: Vec<u8> = value.iter().take(16).copied().collect();
        format!("read of key {key} returned bytes not written for it: {shown:02x?}")
    })
}

struct KeyWrites<'a> {
    /// Writes of one key, sorted by invocation.
    writes: Vec<&'a Rec>,
    /// `suffix_min_resp[i]` = earliest response among `writes[i..]`.
    suffix_min_resp: Vec<u64>,
    by_tag: HashMap<u64, usize>,
}

impl<'a> KeyWrites<'a> {
    fn new(mut writes: Vec<&'a Rec>) -> KeyWrites<'a> {
        writes.sort_by_key(|w| w.inv);
        let mut suffix_min_resp = vec![u64::MAX; writes.len() + 1];
        for i in (0..writes.len()).rev() {
            suffix_min_resp[i] = suffix_min_resp[i + 1].min(writes[i].resp);
        }
        let by_tag = writes.iter().enumerate().map(|(i, w)| (w.tag, i)).collect();
        KeyWrites {
            writes,
            suffix_min_resp,
            by_tag,
        }
    }

    /// Earliest response among writes invoked after `t`.
    fn earliest_resp_invoked_after(&self, t: u64) -> u64 {
        let first = self.writes.partition_point(|w| w.inv <= t);
        self.suffix_min_resp[first]
    }

    /// The write that produced `tag`; `None` for the bulk-loaded value.
    /// Errs when no put to this key wrote `tag`.
    fn source(&self, key: u64, tag: u64) -> Result<Option<&'a Rec>, String> {
        if tag == initial_tag(key) {
            return Ok(None);
        }
        match self.by_tag.get(&tag) {
            Some(&i) => Ok(Some(self.writes[i])),
            None if is_initial_tag(tag) => Err(format!(
                "key {key} returned the bulk-loaded value of another key (tag {tag:#x})"
            )),
            None => Err(format!(
                "key {key} returned tag {tag:#x} no put to it wrote"
            )),
        }
    }
}

fn writes_by_key(log: &[Rec]) -> HashMap<u64, KeyWrites<'_>> {
    let mut grouped: HashMap<u64, Vec<&Rec>> = HashMap::new();
    for rec in log.iter().filter(|r| r.put) {
        grouped.entry(rec.key).or_default().push(rec);
    }
    grouped
        .into_iter()
        .map(|(k, w)| (k, KeyWrites::new(w)))
        .collect()
}

/// Checks every read in `log` against the writes in `log`.
pub fn check_history(log: &[Rec]) -> Result<(), String> {
    let empty = KeyWrites::new(Vec::new());
    let writes = writes_by_key(log);
    for get in log.iter().filter(|r| !r.put) {
        let kw = writes.get(&get.key).unwrap_or(&empty);
        let after = match kw.source(get.key, get.tag)? {
            None => 0,
            Some(w) if w.inv > get.resp => {
                return Err(format!(
                    "key {}: read [{}, {}] returned a write invoked later at {}",
                    get.key, get.inv, get.resp, w.inv
                ))
            }
            Some(w) => w.resp,
        };
        // Stale: some write began after the source was acknowledged and
        // was itself acknowledged before this read began.
        if kw.earliest_resp_invoked_after(after) < get.inv {
            return Err(format!(
                "key {}: read [{}, {}] returned tag {:#x}, overwritten before it began",
                get.key, get.inv, get.resp, get.tag
            ));
        }
    }
    Ok(())
}

/// Checks post-quiescence reads `(key, tag)` of written keys: each must
/// return the last acknowledged write or one concurrent with it.
pub fn check_final(log: &[Rec], finals: &[(u64, u64)]) -> Result<(), String> {
    let writes = writes_by_key(log);
    for &(key, tag) in finals {
        let Some(kw) = writes.get(&key) else {
            if tag == initial_tag(key) {
                continue;
            }
            return Err(format!("unwritten key {key} holds tag {tag:#x}"));
        };
        let after = kw.source(key, tag)?.map_or(0, |w| w.resp);
        if kw.earliest_resp_invoked_after(after) != u64::MAX {
            return Err(format!(
                "key {key} finally holds tag {tag:#x}, older than an acknowledged write"
            ));
        }
    }
    Ok(())
}

/// Checks that every node returned the same tag for each hot key.
pub fn check_symmetry(replicas: &[(u64, Vec<u64>)]) -> Result<(), String> {
    for (key, tags) in replicas {
        if tags.windows(2).any(|w| w[0] != w[1]) {
            return Err(format!("hot key {key} differs across nodes: {tags:#x?}"));
        }
    }
    Ok(())
}

/// Runs every check on planted faults and requires each to be flagged, and
/// on the matching clean inputs and requires each to pass. Returns how
/// many planted faults were caught.
pub fn self_test() -> Result<usize, String> {
    use crate::spec::put_tag;
    fn expect(
        name: &str,
        clean: Result<(), String>,
        fault: Result<(), String>,
    ) -> Result<usize, String> {
        clean.map_err(|e| format!("{name}: clean input flagged: {e}"))?;
        match fault {
            Err(_) => Ok(1),
            Ok(()) => Err(format!("{name}: planted fault not flagged")),
        }
    }
    let (k, other) = (7u64, 8u64);
    let put = |key, tag, inv, resp| Rec {
        key,
        put: true,
        tag,
        inv,
        resp,
    };
    let read = |tag, inv, resp| Rec {
        key: k,
        put: false,
        tag,
        inv,
        resp,
    };
    // Put a acknowledged at 2, put b invoked at 4 and acknowledged at 5.
    let a = put(k, put_tag(0, 1), 1, 2);
    let b = put(k, put_tag(1, 1), 4, 5);
    let elsewhere = put(other, put_tag(1, 2), 8, 9);
    let mut caught = 0;
    caught += expect(
        "read of another key's value",
        check_read(k, &render(k, b.tag)).map(drop),
        check_read(k, &render(other, initial_tag(other))).map(drop),
    )?;
    caught += expect(
        "read of a tag put only to another key",
        check_history(&[a, b, elsewhere, read(b.tag, 10, 11)]),
        check_history(&[a, b, elsewhere, read(elsewhere.tag, 10, 11)]),
    )?;
    caught += expect(
        "stale read after an acknowledged write",
        check_history(&[a, b, read(a.tag, 3, 6)]),
        check_history(&[a, b, read(a.tag, 6, 7)]),
    )?;
    caught += expect(
        "read from the future",
        check_history(&[a, b, read(b.tag, 3, 6)]),
        check_history(&[a, b, read(b.tag, 2, 3)]),
    )?;
    caught += expect(
        "stale final read after an acknowledged write",
        check_final(&[a, b], &[(k, b.tag)]),
        check_final(&[a, b], &[(k, a.tag)]),
    )?;
    caught += expect(
        "hot replicas that disagree",
        check_symmetry(&[(k, vec![b.tag; 3])]),
        check_symmetry(&[(k, vec![b.tag, b.tag, a.tag])]),
    )?;
    Ok(caught)
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_planted_fault_is_flagged() {
        assert_eq!(super::self_test(), Ok(6));
    }
}
