//! Tenant → shard routing: hash by default, explicit affinity pins on top.

use crate::job::{tenant_hash, TenantId};

/// Routes tenants onto shards. The default placement hashes the tenant id
/// (SplitMix64, so consecutive small tenant ids still spread), and
/// individual tenants can be pinned to a shard — e.g. to co-locate a
/// latency-critical tenant with an underloaded shard, or to keep a tenant's
/// periodic timers on one dispatcher for strict intra-tenant ordering.
#[derive(Debug, Clone)]
pub struct Router {
    shards: usize,
    affinity: Vec<Option<usize>>,
}

impl Router {
    /// A hash router over `shards` shards for tenants `0..tenants`.
    pub fn new(shards: usize, tenants: usize) -> Self {
        assert!(shards >= 1, "router needs at least one shard");
        Router {
            shards,
            affinity: vec![None; tenants],
        }
    }

    /// Pins `tenant` to `shard`, overriding the hash placement. Both are
    /// in range: `ServerConfig::validate` refuses an affinity pin that is
    /// not, before the scheduler pins anything.
    pub(crate) fn pin(&mut self, tenant: TenantId, shard: usize) {
        debug_assert!(shard < self.shards);
        self.affinity[tenant.0 as usize] = Some(shard);
    }

    /// The shard that serves `tenant`.
    pub fn route(&self, tenant: TenantId) -> usize {
        if let Some(Some(pinned)) = self.affinity.get(tenant.0 as usize) {
            return *pinned;
        }
        (tenant_hash(tenant) % self.shards as u64) as usize
    }

    /// Number of shards this router spreads over.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_stable_and_in_range() {
        let r = Router::new(4, 32);
        for t in 0..32 {
            let s = r.route(TenantId(t));
            assert!(s < 4);
            assert_eq!(s, r.route(TenantId(t)), "routing must be stable");
        }
    }

    #[test]
    fn pin_overrides_the_hash() {
        let mut r = Router::new(4, 8);
        let t = TenantId(5);
        let hashed = r.route(t);
        let target = (hashed + 1) % 4;
        r.pin(t, target);
        assert_eq!(r.route(t), target);
        // Other tenants keep their hash placement.
        assert_eq!(r.route(TenantId(6)), Router::new(4, 8).route(TenantId(6)));
    }
}
