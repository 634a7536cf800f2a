//! Output checks: the operation ledger, FNV-1a digests of simulated
//! outputs, and the digests pinned for each workload's default seed.
//!
//! An operation is one `Gateway::call` or one `run_*` call. It fails if it
//! returns an error or if a check on its output fails; every failure is
//! recorded by name. Checks run outside the timed phases.

/// Seed every workload uses when `--seed` is not given. Digests are pinned
/// for this seed only; other seeds are checked for conservation and for
/// agreement between repeated runs inside one process.
pub const DEFAULT_SEED: u64 = 42;

/// Digests of the simulated outputs at [`DEFAULT_SEED`].
const PINNED: [(&str, u64); 3] = [
    ("boot-matrix", 0x0ff6_4dd3_04ec_b28c),
    ("fleet-burst", 0xb5c5_5514_9d16_99a9),
    ("cluster-chaos", 0x1eab_744a_b681_0438),
];

/// The pinned digest for `workload` at `seed`, if one is pinned.
pub fn pinned(workload: &str, seed: u64) -> Option<u64> {
    if seed != DEFAULT_SEED {
        return None;
    }
    PINNED
        .iter()
        .find(|(name, _)| *name == workload)
        .map(|&(_, digest)| digest)
}

/// Incremental FNV-1a (64-bit).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes raw bytes.
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Mixes a number.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Mixes a length-prefixed string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a serializable simulator outcome's canonical JSON.
pub fn digest_json<T: serde::Serialize>(value: &T) -> Result<u64, String> {
    let text = serde_json::to_string(value).map_err(|e| format!("serialize: {e}"))?;
    Ok(Digest::default().bytes(text.as_bytes()).finish())
}

/// Attempted and failed operations, with the name of every failure.
#[derive(Debug, Default)]
pub struct Ledger {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Ledger {
    /// Counts one operation; a failure is recorded under `what`.
    pub fn op<T, E: std::fmt::Display>(&mut self, result: Result<T, E>, what: &str) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(err) => {
                self.failed += 1;
                self.failures.push(format!("{what}: {err}"));
                None
            }
        }
    }

    /// Marks `ops` operations already counted as failed by a check.
    pub fn fail(&mut self, ops: u64, what: String) {
        self.failed = self.failed.saturating_add(ops).min(self.attempted);
        self.failures.push(what);
    }

    /// Compares a digest with its expectation, failing `ops` operations on
    /// a mismatch.
    pub fn expect_digest(&mut self, what: &str, got: u64, expected: Option<u64>, ops: u64) {
        if let Some(want) = expected {
            if got != want {
                self.fail(
                    ops,
                    format!("{what}: digest {got:016x} != expected {want:016x}"),
                );
            }
        }
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Every failure, in the order recorded.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// `completed + shed + failed == requests`, as a named failure otherwise.
pub fn conservation(
    what: &str,
    requests: u64,
    completed: u64,
    shed: u64,
    failed: u64,
) -> Result<(), String> {
    if completed.saturating_add(shed).saturating_add(failed) == requests {
        Ok(())
    } else {
        Err(format!(
            "{what}: conservation broken: completed {completed} + shed {shed} + failed {failed} != requests {requests}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_digest_fails_the_operations_it_covers() {
        let mut ledger = Ledger::default();
        for _ in 0..3 {
            ledger.op(Ok::<(), String>(()), "call");
        }
        ledger.expect_digest("w", 1, Some(1), 3);
        assert_eq!(ledger.failed(), 0);
        ledger.expect_digest("w", 1, Some(2), 3);
        assert_eq!(ledger.failed(), 3);
        assert!(ledger.failures()[0].contains("digest"));
    }

    #[test]
    fn conservation_names_the_broken_cell() {
        assert!(conservation("c", 10, 7, 2, 1).is_ok());
        assert!(conservation("c", 10, 7, 2, 0).unwrap_err().contains("c:"));
    }
}
