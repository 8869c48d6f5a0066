//! Token buckets and the ICMP error rate limit side channel.
//!
//! SadDNS (Man et al., CCS 2020; Section 3.2 of the paper) exploits the fact
//! that Linux applies a **single global** token bucket (50 tokens, refilled
//! once per jiffy up to 50/s) to outgoing ICMP error messages. By sending 50
//! spoofed UDP probes and then one verification probe from its own address,
//! an off-path attacker learns whether *any* of the 50 probed ports was open:
//! an open port consumes no token, leaving one for the verification probe.
//!
//! The patched behaviour (per-destination limits and/or a randomised global
//! limit, cf. CVE-2020-25705) removes the shared counter and therefore the
//! side channel. Both behaviours — and a no-limit mode — are implemented so
//! the measurement campaigns can mix vulnerable and patched resolvers.

use crate::time::SimTime;

/// A classic token bucket.
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    capacity: u32,
    tokens: f64,
    /// Tokens added per second.
    refill_rate: f64,
    last_refill: SimTime,
}

impl TokenBucket {
    /// Creates a full bucket with the given capacity and refill rate
    /// (tokens per second).
    pub fn new(capacity: u32, refill_rate: f64) -> Self {
        TokenBucket { capacity, tokens: capacity as f64, refill_rate, last_refill: SimTime::ZERO }
    }

    /// Refills according to elapsed time and attempts to take one token.
    pub(crate) fn try_take(&mut self, now: SimTime) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    fn refill(&mut self, now: SimTime) {
        let elapsed = now.duration_since(self.last_refill).as_secs_f64();
        if elapsed > 0.0 {
            self.tokens = (self.tokens + elapsed * self.refill_rate).min(self.capacity as f64);
            self.last_refill = now;
        }
    }
}

/// How a host limits the ICMP error messages it originates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IcmpRateLimitPolicy {
    /// A single bucket shared by all destinations (Linux default prior to the
    /// SadDNS patches) — **vulnerable** to the side channel.
    Global {
        /// Bucket capacity (Linux: 50).
        capacity: u32,
        /// Refill rate in tokens per second (Linux: 50/s, i.e. 20 ms per token).
        per_second: f64,
    },
    /// A separate bucket per destination address (patched behaviour): probing
    /// from spoofed source addresses no longer consumes the attacker's budget.
    PerDestination {
        /// Bucket capacity per destination.
        capacity: u32,
        /// Refill rate per destination in tokens per second.
        per_second: f64,
    },
    /// No ICMP error rate limiting at all.
    Unlimited,
    /// The host never sends ICMP errors (e.g. firewalled) — the
    /// "resolvers should not send ICMP errors" countermeasure of Section 6.
    Silent,
}

impl IcmpRateLimitPolicy {
    /// The Linux-default global limit the paper's attack assumes.
    pub fn linux_default() -> Self {
        IcmpRateLimitPolicy::Global { capacity: 50, per_second: 50.0 }
    }
}

/// Stateful ICMP rate limiter implementing an [`IcmpRateLimitPolicy`].
#[derive(Debug, Clone)]
pub struct IcmpRateLimiter {
    policy: IcmpRateLimitPolicy,
    global: Option<TokenBucket>,
    per_dest: std::collections::HashMap<std::net::Ipv4Addr, TokenBucket>,
    /// Number of ICMP errors that were suppressed by the limiter.
    pub suppressed: u64,
    /// Number of ICMP errors that were allowed.
    pub allowed: u64,
}

impl IcmpRateLimiter {
    /// Creates a limiter for the given policy.
    pub fn new(policy: IcmpRateLimitPolicy) -> Self {
        let global = match policy {
            IcmpRateLimitPolicy::Global { capacity, per_second } => Some(TokenBucket::new(capacity, per_second)),
            _ => None,
        };
        IcmpRateLimiter { policy, global, per_dest: std::collections::HashMap::new(), suppressed: 0, allowed: 0 }
    }

    /// The policy this limiter enforces.
    pub fn policy(&self) -> IcmpRateLimitPolicy {
        self.policy
    }

    /// Returns whether an ICMP error destined to `dst` may be sent now.
    pub fn allow(&mut self, dst: std::net::Ipv4Addr, now: SimTime) -> bool {
        let ok = match self.policy {
            IcmpRateLimitPolicy::Silent => false,
            IcmpRateLimitPolicy::Unlimited => true,
            IcmpRateLimitPolicy::Global { .. } => self.global.as_mut().expect("global bucket").try_take(now),
            IcmpRateLimitPolicy::PerDestination { capacity, per_second } => {
                self.per_dest.entry(dst).or_insert_with(|| TokenBucket::new(capacity, per_second)).try_take(now)
            }
        };
        if ok {
            self.allowed += 1;
        } else {
            self.suppressed += 1;
        }
        ok
    }

    /// Whether this limiter exposes the global-counter side channel.
    pub fn is_globally_limited(&self) -> bool {
        matches!(self.policy, IcmpRateLimitPolicy::Global { .. })
    }
}

/// A simple request rate limiter used by authoritative nameservers (DNS
/// Response Rate Limiting). The SadDNS attacker abuses RRL to "mute" the
/// genuine nameserver (Section 3.2 / 5.2.2): a burst of queries exhausts the
/// budget so the genuine response is delayed past the attack window.
#[derive(Debug, Clone)]
pub struct ResponseRateLimiter {
    bucket: TokenBucket,
    enabled: bool,
    /// Responses suppressed (slipped/dropped) by RRL.
    pub suppressed: u64,
}

impl ResponseRateLimiter {
    /// An RRL limiter allowing `per_second` responses per second.
    pub fn new(per_second: u32) -> Self {
        ResponseRateLimiter { bucket: TokenBucket::new(per_second, per_second as f64), enabled: true, suppressed: 0 }
    }

    /// A disabled limiter (nameserver without RRL).
    pub fn disabled() -> Self {
        ResponseRateLimiter { bucket: TokenBucket::new(u32::MAX, f64::INFINITY), enabled: false, suppressed: 0 }
    }

    /// Whether RRL is enabled at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Returns whether a response may be sent now.
    pub fn allow(&mut self, now: SimTime) -> bool {
        if !self.enabled {
            return true;
        }
        let ok = self.bucket.try_take(now);
        if !ok {
            self.suppressed += 1;
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + crate::time::Duration::from_millis(ms)
    }

    #[test]
    fn token_bucket_depletes_and_refills() {
        let mut b = TokenBucket::new(3, 1.0); // 1 token per second
        assert!(b.try_take(t(0)));
        assert!(b.try_take(t(0)));
        assert!(b.try_take(t(0)));
        assert!(!b.try_take(t(0)));
        // After two seconds two tokens are back.
        assert!(b.try_take(t(2000)));
        assert!(b.try_take(t(2000)));
        assert!(!b.try_take(t(2000)));
    }

    #[test]
    fn token_accounting_is_exact_at_linux_rate() {
        // The Linux-default bucket: 50 tokens, 50/s (one per 20 ms).
        let mut b = TokenBucket::new(50, 50.0);
        for i in 0..50 {
            assert!(b.try_take(t(0)), "token {i} should be available");
        }
        assert!(!b.try_take(t(0)), "bucket must be empty after 50 takes");
        // 20 ms refills exactly one token — not two.
        assert!(b.try_take(t(20)));
        assert!(!b.try_take(t(20)));
        // A long idle period refills to capacity, never beyond it.
        b.refill(t(10_000));
        assert_eq!(b.tokens as u32, 50);
        for _ in 0..50 {
            assert!(b.try_take(t(10_000)));
        }
        assert!(!b.try_take(t(10_000)));
    }

    #[test]
    fn fractional_refill_accumulates() {
        // 2.5 tokens/s: 200 ms yields half a token (not spendable), another
        // 200 ms completes it.
        let mut b = TokenBucket::new(10, 2.5);
        for _ in 0..10 {
            assert!(b.try_take(t(0)));
        }
        assert!(!b.try_take(t(200)));
        assert!(b.try_take(t(400)));
        assert!(!b.try_take(t(400)));
    }

    #[test]
    fn token_bucket_caps_at_capacity() {
        let mut b = TokenBucket::new(2, 100.0);
        b.refill(t(10_000));
        assert_eq!(b.tokens as u32, 2);
    }

    #[test]
    fn global_limiter_exposes_side_channel_semantics() {
        // 50 spoofed probes exhaust the budget; the verification probe from
        // the attacker's own address is then also suppressed.
        let mut lim = IcmpRateLimiter::new(IcmpRateLimitPolicy::linux_default());
        let spoofed: Ipv4Addr = "123.0.0.53".parse().unwrap();
        let attacker: Ipv4Addr = "6.6.6.6".parse().unwrap();
        for _ in 0..50 {
            assert!(lim.allow(spoofed, t(0)));
        }
        assert!(!lim.allow(attacker, t(0)), "global budget shared with the attacker's own probe");
        assert!(lim.is_globally_limited());
        assert_eq!(lim.allowed, 50);
        assert_eq!(lim.suppressed, 1);
    }

    #[test]
    fn per_destination_limiter_closes_side_channel() {
        let mut lim = IcmpRateLimiter::new(IcmpRateLimitPolicy::PerDestination { capacity: 50, per_second: 50.0 });
        let spoofed: Ipv4Addr = "123.0.0.53".parse().unwrap();
        let attacker: Ipv4Addr = "6.6.6.6".parse().unwrap();
        for _ in 0..50 {
            assert!(lim.allow(spoofed, t(0)));
        }
        // The attacker's own verification probe uses a different bucket and
        // always gets an answer — no information about the spoofed probes.
        assert!(lim.allow(attacker, t(0)));
        assert!(!lim.is_globally_limited());
    }

    #[test]
    fn silent_and_unlimited_policies() {
        let dst: Ipv4Addr = "10.0.0.1".parse().unwrap();
        let mut silent = IcmpRateLimiter::new(IcmpRateLimitPolicy::Silent);
        assert!(!silent.allow(dst, t(0)));
        let mut open = IcmpRateLimiter::new(IcmpRateLimitPolicy::Unlimited);
        for _ in 0..1000 {
            assert!(open.allow(dst, t(0)));
        }
    }

    #[test]
    fn global_budget_refills_over_time() {
        let mut lim = IcmpRateLimiter::new(IcmpRateLimitPolicy::linux_default());
        let dst: Ipv4Addr = "10.0.0.1".parse().unwrap();
        for _ in 0..50 {
            lim.allow(dst, t(0));
        }
        assert!(!lim.allow(dst, t(0)));
        // 20ms later one token has been refilled (50 per second).
        assert!(lim.allow(dst, t(21)));
    }

    #[test]
    fn rrl_mutes_after_burst() {
        let mut rrl = ResponseRateLimiter::new(10);
        let mut allowed = 0;
        for _ in 0..4000 {
            if rrl.allow(t(0)) {
                allowed += 1;
            }
        }
        assert_eq!(allowed, 10, "burst of queries exhausts the RRL budget");
        assert_eq!(rrl.suppressed, 3990);
        assert!(rrl.is_enabled());
    }

    #[test]
    fn disabled_rrl_never_mutes() {
        let mut rrl = ResponseRateLimiter::disabled();
        for _ in 0..10_000 {
            assert!(rrl.allow(t(0)));
        }
        assert!(!rrl.is_enabled());
    }
}
