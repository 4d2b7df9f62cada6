//! PCIe transfer model.

use crate::platform::LinkSpec;
use crate::SimNs;

/// The CPU↔GPU link. Stateless beyond its spec; transfers are charged
/// `latency + bytes / bandwidth`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PciLink {
    spec: LinkSpec,
}

impl PciLink {
    pub fn new(spec: LinkSpec) -> Self {
        Self { spec }
    }

    pub fn spec(&self) -> LinkSpec {
        self.spec
    }

    /// Simulated ns to move `bytes` across the link (either direction).
    pub fn transfer_ns(&self, bytes: usize) -> SimNs {
        if bytes == 0 {
            return 0.0;
        }
        self.spec.latency_ns + bytes as f64 / self.spec.bandwidth_gbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> PciLink {
        PciLink::new(LinkSpec {
            bandwidth_gbps: 2.0,
            latency_ns: 10_000.0,
        })
    }

    #[test]
    fn zero_bytes_is_free() {
        assert_eq!(link().transfer_ns(0), 0.0);
    }

    #[test]
    fn latency_plus_bandwidth() {
        // 2 GB/s = 2 bytes/ns ⇒ 1 MB = 524288 ns + latency
        let ns = link().transfer_ns(1 << 20);
        assert!((ns - (10_000.0 + 524_288.0)).abs() < 1.0);
    }

    #[test]
    fn monotone_in_size() {
        let l = link();
        assert!(l.transfer_ns(100) < l.transfer_ns(1000));
    }
}
