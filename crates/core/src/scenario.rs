//! The composable cross-layer scenario pipeline (Section 4).
//!
//! Every row of the paper's Table 1 is the same three-stage pipeline with
//! different parts plugged in:
//!
//! ```text
//! trigger a query ──► poison the cache (dyn AttackVector) ──► exploit the
//!     (§4.3)              HijackDNS / SadDNS / FragDNS          record at the
//!                              (§3, `attacks`)                  application
//!                                                               (§4.5, `apps`)
//! ```
//!
//! [`Scenario`] is the builder that wires the stages together; the poisoning
//! methodology is a [`AttackVector`] trait object from the `attacks::vectors`
//! registry and the application behaviour is an [`ExploitStage`] trait object,
//! so adding a Table 1 row is a ~30-line `ExploitStage` impl, not a bespoke
//! scenario file. Deployable defences ([`Defence`]) slot into the environment
//! between the vector's preparation and the build, which is how the
//! countermeasure ablation (`countermeasures`) reuses the exact same pipeline.
//!
//! [`ScenarioCampaign`] fans a (vector × defence × seed) grid of full attack
//! simulations across the sharded campaign engine (`campaign::run_grid`),
//! producing the multi-seed success-rate matrix — success rate, attacker
//! packets/bytes and queries triggered per cell — with the engine's usual
//! guarantee that results are a function of the seed alone, never of the
//! worker count.
//!
//! ```
//! use xlayer_core::prelude::*;
//! use attacks::prelude::*;
//! use apps::prelude::*;
//!
//! // Table 1, row "Web": hijack the A record of a site, then watch where
//! // the victim's HTTP connection lands.
//! let outcome = Scenario::new(VictimEnvConfig::default())
//!     .trigger(QueryTrigger::InternalClient)
//!     .vector(vectors::quick_for(PoisonMethod::HijackDns))
//!     .defences(&[Defence::None])
//!     .exploit(WebRedirectExploit::new("www.vict.im", addrs::SERVICE))
//!     .run();
//! assert!(outcome.report.success);
//! assert_eq!(outcome.before, Some(ExploitVerdict::Web(WebAccess::Genuine)));
//! assert_eq!(outcome.exploit, Some(ExploitVerdict::Web(WebAccess::AttackerSite)));
//! ```

use crate::campaign::{run_grid, GridCampaign, SeedStream, Tally};
use crate::countermeasures::Defence;
use crate::report::TextTable;
use apps::prelude::*;
use attacks::prelude::*;
use bgp::prelude::*;
use dns::prelude::*;
use netsim::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

/// The unified application-layer verdict produced by an [`ExploitStage`]:
/// what the application actually did with the (possibly poisoned) answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExploitVerdict {
    /// SPF/DMARC evaluation at a receiving mail server.
    Spf(SpfVerdict),
    /// Where an outgoing email was delivered.
    Mail(MailDelivery),
    /// Where a password-recovery link was delivered.
    Recovery(PasswordRecovery),
    /// Where an HTTP(S) connection landed.
    Web(WebAccess),
    /// RPKI relying-party state after a repository synchronisation.
    Rpki {
        /// Route-origin validation result for the attacker's announcement.
        validity: Validity,
        /// Whether ROV-enforcing ASes now accept the prefix hijack.
        hijack_accepted: bool,
    },
    /// Whether a certificate authority issued the certificate the *attacker*
    /// ordered for a domain it does not control (the `ca` crate's
    /// `CertIssuanceExploit` stage — Table 1 "Hijack: fraudulent
    /// certificate").
    Issuance(CertIssuance),
}

/// The CA's decision on the attacker's certificate order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertIssuance {
    /// Domain validation passed and the certificate was issued — the
    /// attacker now holds a fraudulent certificate for the victim's domain.
    Issued,
    /// Domain validation failed (challenge mismatch or vantage quorum not
    /// met) and the order was refused.
    Refused,
}

impl ExploitVerdict {
    /// Whether this verdict means the attacker won at the application layer
    /// (mail accepted/intercepted, link stolen, connection captured, hijack
    /// re-enabled).
    pub fn compromised(&self) -> bool {
        match self {
            ExploitVerdict::Spf(v) => *v != SpfVerdict::Fail,
            ExploitVerdict::Mail(v) => *v == MailDelivery::InterceptedByAttacker,
            ExploitVerdict::Recovery(v) => *v == PasswordRecovery::AttackerReceivesLink,
            ExploitVerdict::Web(v) => *v == WebAccess::AttackerSite,
            ExploitVerdict::Rpki { hijack_accepted, .. } => *hijack_accepted,
            ExploitVerdict::Issuance(v) => *v == CertIssuance::Issued,
        }
    }
}

/// The application stage of the pipeline: which record the application
/// depends on, and what it does with whatever the resolver currently holds.
///
/// This is the paper's Section 4.5 step — "exploit the poisoned records" —
/// reified as a trait over the behavioural models in `apps::exploit`. The
/// scenario triggers [`lookup`](ExploitStage::lookup) at the victim resolver
/// for the baseline observation, the attack vector poisons that same record,
/// and [`observe`](ExploitStage::observe) maps the resolver's answer to an
/// [`ExploitVerdict`] — so the identical code path runs before and after the
/// poisoning, exactly like a real application.
pub trait ExploitStage {
    /// Human-readable stage name (Table 1 row).
    fn name(&self) -> &'static str;

    /// The `(name, qtype)` the application resolves.
    fn lookup(&self) -> (DomainName, RecordType);

    /// Maps the resolver's current answer to an application verdict. Takes
    /// `&mut self` so stateful applications (an RPKI relying party keeping a
    /// ROA cache across synchronisations) can be modelled.
    fn observe(&mut self, sim: &Simulator, env: &VictimEnv) -> ExploitVerdict;
}

/// Table 1 "SPF, DMARC": a receiving mail server fetches the sender domain's
/// SPF policy and evaluates the attacker's spoofed mail against it.
pub struct SpfPolicyExploit {
    name: DomainName,
}

impl SpfPolicyExploit {
    /// Evaluates the SPF policy TXT record of `domain`.
    pub fn new(domain: &str) -> Self {
        SpfPolicyExploit { name: domain.parse().expect("valid domain") }
    }
}

impl ExploitStage for SpfPolicyExploit {
    fn name(&self) -> &'static str {
        "SPF/DMARC policy"
    }

    fn lookup(&self) -> (DomainName, RecordType) {
        (self.name.clone(), RecordType::TXT)
    }

    fn observe(&mut self, sim: &Simulator, env: &VictimEnv) -> ExploitVerdict {
        let policy = env.resolver(sim).cache().peek(&self.name, RecordType::TXT, sim.now()).and_then(|e| {
            e.records.iter().find_map(|r| match &r.rdata {
                RData::Txt(t) if t.starts_with("v=spf1") => Some(t.clone()),
                _ => None,
            })
        });
        ExploitVerdict::Spf(evaluate_spf(policy.as_deref(), env.attacker_addr))
    }
}

/// Table 1 "Password recovery": the provider resolves the mail host of the
/// victim account's domain and sends the reset link there.
pub struct PasswordRecoveryExploit {
    mail_name: DomainName,
    genuine_mx: Ipv4Addr,
}

impl PasswordRecoveryExploit {
    /// Recovery mail for an account whose domain's mail host is `mail_name`.
    pub fn new(mail_name: &str, genuine_mx: Ipv4Addr) -> Self {
        PasswordRecoveryExploit { mail_name: mail_name.parse().expect("valid domain"), genuine_mx }
    }
}

impl ExploitStage for PasswordRecoveryExploit {
    fn name(&self) -> &'static str {
        "Password recovery"
    }

    fn lookup(&self) -> (DomainName, RecordType) {
        (self.mail_name.clone(), RecordType::A)
    }

    fn observe(&mut self, sim: &Simulator, env: &VictimEnv) -> ExploitVerdict {
        let resolved = env.resolver(sim).cache().cached_a(&self.mail_name, sim.now());
        ExploitVerdict::Recovery(password_recovery(resolved, self.genuine_mx, env.attacker_addr))
    }
}

/// Table 1 "Web": the victim's HTTP(S) connection lands on whatever address
/// the site's A record resolves to.
pub struct WebRedirectExploit {
    site: DomainName,
    genuine: Ipv4Addr,
}

impl WebRedirectExploit {
    /// Browsing `site`, genuinely hosted at `genuine`.
    pub fn new(site: &str, genuine: Ipv4Addr) -> Self {
        WebRedirectExploit { site: site.parse().expect("valid domain"), genuine }
    }
}

impl ExploitStage for WebRedirectExploit {
    fn name(&self) -> &'static str {
        "Web redirection"
    }

    fn lookup(&self) -> (DomainName, RecordType) {
        (self.site.clone(), RecordType::A)
    }

    fn observe(&mut self, sim: &Simulator, env: &VictimEnv) -> ExploitVerdict {
        let resolved = env.resolver(sim).cache().cached_a(&self.site, sim.now());
        ExploitVerdict::Web(web_access(resolved, self.genuine, env.attacker_addr))
    }
}

/// Table 1 "RPKI" — the paper's strongest result: the relying party
/// synchronises its ROA cache from a repository host resolved through the
/// victim resolver; poisoning that hostname empties the cache, validation
/// degrades to "unknown", and a prefix hijack that ROV used to filter is
/// accepted again.
pub struct RpkiDowngradeExploit {
    repo_name: DomainName,
    repository: RpkiRepository,
    relying_party: RelyingParty,
    protected_prefix: Prefix,
    attacker_as: AsId,
    topo: AsTopology,
    origin: AsId,
    hijacker: AsId,
    observer: AsId,
    rov: HashMap<AsId, RovPolicy>,
}

impl RpkiDowngradeExploit {
    /// The paper's setup: the victim AS 64500 publishes a ROA for its /22;
    /// the relying party syncs from `rpki.vict.im`; every AS of the small
    /// test topology enforces ROV.
    pub fn standard() -> Self {
        let victim_as = AsId(64500);
        let attacker_as = AsId(666);
        let protected_prefix: Prefix = "30.0.0.0/22".parse().expect("prefix");
        let repo_addr: Ipv4Addr = "30.0.0.124".parse().expect("addr");
        let repository = RpkiRepository::new("rpki.vict.im", repo_addr, vec![Roa::exact(protected_prefix, victim_as)]);
        let (topo, map) = AsTopology::small_test_topology();
        let rov: HashMap<AsId, RovPolicy> = topo.ases().map(|a| (a, RovPolicy::Enforced)).collect();
        RpkiDowngradeExploit {
            repo_name: "rpki.vict.im".parse().expect("name"),
            repository,
            relying_party: RelyingParty::new(),
            protected_prefix,
            attacker_as,
            origin: map["stub1"],
            hijacker: map["stub3"],
            observer: map["stub4"],
            topo,
            rov,
        }
    }
}

impl ExploitStage for RpkiDowngradeExploit {
    fn name(&self) -> &'static str {
        "RPKI downgrade"
    }

    fn lookup(&self) -> (DomainName, RecordType) {
        (self.repo_name.clone(), RecordType::A)
    }

    fn observe(&mut self, sim: &Simulator, env: &VictimEnv) -> ExploitVerdict {
        // The relying party's scheduled synchronisation: resolve the
        // repository host through the victim resolver and sync the ROA cache
        // from whatever answers.
        let resolved = env.resolver(sim).cache().cached_a(&self.repo_name, sim.now());
        self.relying_party.sync(&self.repository, resolved);
        let validity = self.relying_party.validate(self.protected_prefix, self.attacker_as);
        // Does a sub-prefix hijack of the protected prefix get through the
        // ROV-enforcing topology in this state?
        let result = sub_prefix_hijack(
            &self.topo,
            Announcement { prefix: self.protected_prefix, origin: self.origin },
            self.hijacker,
            Some(self.observer),
            &self.rov,
            &self.relying_party.validated_roas,
        );
        ExploitVerdict::Rpki { validity, hijack_accepted: result.target_captured == Some(true) }
    }
}

/// How the scenario transitions from the baseline observation to the attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackPhase {
    /// Stay in the same environment and let the genuine cache entry expire
    /// first, as a real attacker waiting for the next application cycle
    /// would (the default: 301 s, past the standard TTL).
    AfterCacheExpiry(Duration),
    /// Rebuild a fresh environment (same configuration, `seed + seed_bump`)
    /// for the attack — models attacking a different resolver with a cold
    /// cache, e.g. another receiving mail server.
    FreshEnvironment {
        /// Added to the baseline seed for the attack-phase environment.
        seed_bump: u64,
    },
}

/// The composed outcome of one scenario run: the poisoning stage's
/// [`AttackReport`] plus the application verdicts observed before and after.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Defences that were in place.
    pub defences: Vec<Defence>,
    /// Report of the poisoning stage.
    pub report: AttackReport,
    /// Application verdict on the genuine records (None without an exploit
    /// stage).
    pub before: Option<ExploitVerdict>,
    /// Application verdict after the attack (None without an exploit stage).
    pub exploit: Option<ExploitVerdict>,
}

impl ScenarioOutcome {
    /// Whether the full chain worked: cache poisoned *and* the application
    /// compromised (or just the poisoning, when no exploit stage is wired).
    pub fn chain_succeeded(&self) -> bool {
        self.report.success && self.exploit.map(|v| v.compromised()).unwrap_or(true)
    }
}

/// Builder for one end-to-end cross-layer scenario.
///
/// See the [module docs](self) for the pipeline picture and a runnable
/// example. Stage order at `run` time:
///
/// 1. the vector adjusts the environment ([`AttackVector::prepare_env`]),
/// 2. each [`Defence`] is applied ([`Defence::apply`]) — defences win over
///    vector preparation,
/// 3. baseline: the exploit stage's lookup is triggered and observed,
/// 4. transition per [`AttackPhase`],
/// 5. the vector executes, the exploit stage observes again.
pub struct Scenario {
    env_cfg: VictimEnvConfig,
    trigger: QueryTrigger,
    vector: Option<Box<dyn AttackVector>>,
    defences: Vec<Defence>,
    exploit: Option<Box<dyn ExploitStage>>,
    attack_phase: AttackPhase,
}

impl Scenario {
    /// Starts a scenario from an environment configuration.
    pub fn new(env_cfg: VictimEnvConfig) -> Self {
        Scenario {
            env_cfg,
            trigger: QueryTrigger::InternalClient,
            vector: None,
            defences: Vec::new(),
            exploit: None,
            attack_phase: AttackPhase::AfterCacheExpiry(Duration::from_secs(301)),
        }
    }

    /// Sets how the *baseline* query is triggered (the attack vector's own
    /// trigger is part of its configuration).
    pub fn trigger(mut self, trigger: QueryTrigger) -> Self {
        self.trigger = trigger;
        self
    }

    /// Sets the poisoning methodology.
    pub fn vector(mut self, vector: Box<dyn AttackVector>) -> Self {
        self.vector = Some(vector);
        self
    }

    /// Enables deployable defences (applied after the vector's environment
    /// preparation, so they override it).
    pub fn defences(mut self, defences: &[Defence]) -> Self {
        self.defences.extend_from_slice(defences);
        self
    }

    /// Sets the application stage consuming the poisoned record.
    pub fn exploit(mut self, stage: impl ExploitStage + 'static) -> Self {
        self.exploit = Some(Box::new(stage));
        self
    }

    /// Sets the baseline→attack transition (default: wait 301 s for the
    /// genuine cache entry to expire).
    pub fn attack_phase(mut self, phase: AttackPhase) -> Self {
        self.attack_phase = phase;
        self
    }

    /// The environment configuration `run` will build: the base config after
    /// the vector's `prepare_env` and every defence's `apply`. This is the
    /// seed-independent part of a run — snapshot it in an
    /// [`EnvTemplate`] to stamp out many
    /// independently-seeded runs of the same cell via [`run_in`](Self::run_in).
    ///
    /// # Panics
    /// When no attack vector was set.
    pub fn prepared_config(&self) -> VictimEnvConfig {
        let vector = self.vector.as_ref().expect("Scenario requires an attack vector (call .vector(...))");
        let mut cfg = self.env_cfg.clone();
        vector.prepare_env(&mut cfg);
        for defence in &self.defences {
            defence.apply(&mut cfg);
        }
        cfg
    }

    /// Runs the pipeline.
    ///
    /// # Panics
    /// When no attack vector was set.
    pub fn run(self) -> ScenarioOutcome {
        let template = EnvTemplate::new(self.prepared_config());
        let seed = template.config().seed;
        self.run_in(&template, seed, None)
    }

    /// Runs the pipeline inside an already-prepared environment template,
    /// seeding the simulator with `seed`. Byte-identical to [`run`](Self::run)
    /// when `template` snapshots this scenario's [`prepared_config`]
    /// (locked by the template-equivalence tests): only the seed-independent
    /// derivation is skipped. The packet trace is disabled — a
    /// [`ScenarioOutcome`] never exposes it, and grid campaigns would
    /// otherwise pay a recorded trace entry per simulated packet.
    ///
    /// With `Some(metrics)`, the run's telemetry — the victim resolver's
    /// counters (`dns.*`) and the simulator's engine counters (`engine.*`) —
    /// is exported into `metrics` after the pipeline completes. The export
    /// is a pure read of counters the run maintained anyway, so the outcome
    /// is the same either way and `None` costs nothing.
    ///
    /// [`prepared_config`]: Self::prepared_config
    pub fn run_in(
        mut self,
        template: &EnvTemplate,
        seed: u64,
        metrics: Option<&mut telemetry::MetricsSnapshot>,
    ) -> ScenarioOutcome {
        let vector = self.vector.take().expect("Scenario requires an attack vector (call .vector(...))");
        let (mut sim, mut env) = template.build_at(seed);
        let before = self.exploit.as_mut().map(|stage| {
            let (name, qtype) = stage.lookup();
            env.trigger_query(&mut sim, self.trigger, &name, qtype, 1);
            sim.run();
            stage.observe(&sim, &env)
        });

        match self.attack_phase {
            AttackPhase::AfterCacheExpiry(wait) => {
                if before.is_some() {
                    sim.run_for(wait);
                }
            }
            AttackPhase::FreshEnvironment { seed_bump } => {
                (sim, env) = template.build_at(seed.wrapping_add(seed_bump));
            }
        }

        let report = vector.execute(&mut sim, &env);
        let exploit = self.exploit.as_mut().map(|stage| stage.observe(&sim, &env));
        if let Some(m) = metrics {
            env.resolver(&sim).export_metrics(m);
            sim.export_metrics(m);
        }
        ScenarioOutcome { defences: self.defences, report, before, exploit }
    }
}

/// Runs one (methodology, defence) cell of an evaluation grid: the standard
/// environment at `seed`, the registry's quick vector for `method`, the
/// single `defence`, no exploit stage. This is **the** definition of a grid
/// cell — both the countermeasure ablation (`countermeasures::evaluate_cell`)
/// and [`ScenarioCampaign`] run cells through it, so the golden-locked
/// ablation table and the success-rate matrix can never disagree about what
/// a cell means.
pub fn run_cell(method: PoisonMethod, defence: Defence, seed: u64) -> ScenarioOutcome {
    Scenario::new(VictimEnvConfig { seed, ..Default::default() })
        .vector(attacks::vectors::quick_for(method))
        .defences(&[defence])
        .run()
}

/// One prepared (methodology × defence) grid cell: the post-`prepare_env`,
/// post-defence configuration and the victim zone's record set are derived
/// once, then [`run_at`](Self::run_at) stamps out the independently-seeded
/// runs. `run_at(m, d, s)` is byte-identical to [`run_cell`]`(m, d, s)` —
/// locked by the template-equivalence tests — so grid campaigns can reuse a
/// cell across its `runs_per_cell` seeds without changing a single outcome.
pub struct PreparedCell {
    method: PoisonMethod,
    defence: Defence,
    template: EnvTemplate,
}

impl PreparedCell {
    /// Prepares the cell: builds the quick vector, applies the defence, and
    /// snapshots the resulting configuration in an [`EnvTemplate`].
    pub fn new(method: PoisonMethod, defence: Defence) -> Self {
        let scenario =
            Scenario::new(VictimEnvConfig::default()).vector(attacks::vectors::quick_for(method)).defences(&[defence]);
        let template = EnvTemplate::new(scenario.prepared_config());
        PreparedCell { method, defence, template }
    }

    /// Runs the cell at one seed.
    pub fn run_at(&self, seed: u64) -> ScenarioOutcome {
        self.run(seed, None)
    }

    /// Runs the cell at one seed, exporting the run's resolver and engine
    /// telemetry into `metrics` when given (see [`Scenario::run_in`]).
    fn run(&self, seed: u64, metrics: Option<&mut telemetry::MetricsSnapshot>) -> ScenarioOutcome {
        Scenario::new(VictimEnvConfig { seed, ..Default::default() })
            .vector(attacks::vectors::quick_for(self.method))
            .defences(&[self.defence])
            .run_in(&self.template, seed, metrics)
    }
}

/// Stream salt separating the scenario grid's per-run seeds from every other
/// campaign derived from the same master seed.
pub const SCENARIO_GRID_SALT: u64 = 0x5ce9_a210_77ac_4a11;

/// Stream salt of the DNSSEC deployment matrix ([`ScenarioCampaign::dnssec_grid`]):
/// a distinct stream so the DNSSEC rows can never collide with (or reseed)
/// the classic grid's cells.
pub const DNSSEC_GRID_SALT: u64 = 0xd5ec_5a17_9e0f_2b63;

/// A (vector × defence × seed) grid of full attack simulations on the
/// sharded campaign engine: `runs_per_cell` independently-seeded scenario
/// runs per (methodology, defence) cell, folded into per-cell
/// [`AttackAggregate`]s. Run `r` of cell `(m, d)` is seeded by
/// [`derive_seed`](crate::campaign::derive_seed)`(base_seed, SCENARIO_GRID_SALT ⊕ f(m, d), r)` — a pure
/// function of the cell coordinates and run number, **never of the grid
/// shape** — so the matrix is byte-identical for every worker count *and*
/// appending a defence row or methodology column reseeds nothing that
/// already existed (the flat-index derivation used before the `DnsOverTcp`
/// row reshuffled every cell whenever the grid grew).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioCampaign {
    /// Master seed of the grid.
    pub base_seed: u64,
    /// Methodologies (matrix columns), in rendering order.
    pub methods: Vec<PoisonMethod>,
    /// Defences (matrix rows), in rendering order.
    pub defences: Vec<Defence>,
    /// Independently-seeded runs per (method, defence) cell.
    pub runs_per_cell: u64,
    /// Stream salt of this grid's seed derivation. Distinct grids over the
    /// same master seed (the classic matrix, the DNSSEC matrix) use distinct
    /// salts so their cells draw from disjoint seed streams.
    pub salt: u64,
}

/// One evaluated grid element.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRun {
    /// Column (index into [`ScenarioCampaign::methods`]).
    pub method_idx: usize,
    /// Row (index into [`ScenarioCampaign::defences`]).
    pub defence_idx: usize,
    /// The poisoning report of this run.
    pub report: AttackReport,
}

/// The mergeable partial tally of a scenario grid: per-cell aggregates keyed
/// by (method index, defence index). Merging sums aggregates cell-wise, so
/// it is commutative and associative by construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MatrixTally {
    /// Aggregate per (method index, defence index).
    pub cells: BTreeMap<(usize, usize), AttackAggregate>,
}

impl Tally for MatrixTally {
    type Profile = ScenarioRun;

    fn observe(&mut self, run: &ScenarioRun) {
        self.cells.entry((run.method_idx, run.defence_idx)).or_default().add(&run.report);
    }

    fn merge(&mut self, other: Self) {
        for (key, agg) in other.cells {
            self.cells.entry(key).or_default().merge(&agg);
        }
    }
}

impl GridCampaign for ScenarioCampaign {
    type Profile = ScenarioRun;
    type Tally = MatrixTally;

    fn eval(&self, index: usize) -> ScenarioRun {
        let (method_idx, defence_idx, run) = self.coords(index);
        let seed = self.cell_stream(method_idx, defence_idx).at(run);
        let outcome = run_cell(self.methods[method_idx], self.defences[defence_idx], seed);
        ScenarioRun { method_idx, defence_idx, report: outcome.report }
    }

    /// Consecutive indices walk the runs of one cell, so the block fold
    /// prepares each cell once ([`PreparedCell`]) and stamps out its seeds
    /// from the shared template instead of re-deriving the environment per
    /// run. Tallies exactly what the per-index `eval` would; with `metrics`,
    /// each run's resolver and engine telemetry is folded into the block's
    /// snapshot.
    fn eval_block(
        &self,
        indices: std::ops::Range<usize>,
        tally: &mut MatrixTally,
        mut metrics: Option<&mut telemetry::MetricsSnapshot>,
    ) {
        let mut prepared: Option<(usize, usize, PreparedCell, SeedStream)> = None;
        for index in indices {
            let (method_idx, defence_idx, run) = self.coords(index);
            match &prepared {
                Some((mi, di, ..)) if (*mi, *di) == (method_idx, defence_idx) => {}
                _ => {
                    let cell = PreparedCell::new(self.methods[method_idx], self.defences[defence_idx]);
                    let stream = self.cell_stream(method_idx, defence_idx);
                    prepared = Some((method_idx, defence_idx, cell, stream));
                }
            }
            let (_, _, cell, stream) = prepared.as_ref().expect("cell prepared above");
            let outcome = cell.run(stream.at(run), metrics.as_deref_mut());
            tally.observe(&ScenarioRun { method_idx, defence_idx, report: outcome.report });
        }
    }

    /// Exports the per-methodology attack aggregates (`attacks.<slug>.*`),
    /// summed across the defence rows, from the final merged matrix tally.
    fn export_metrics(&self, tally: &MatrixTally, metrics: &mut telemetry::MetricsSnapshot) {
        for (&(method_idx, _), agg) in &tally.cells {
            agg.export_metrics(self.methods[method_idx], metrics);
        }
    }

    fn new_tally(&self) -> MatrixTally {
        MatrixTally::default()
    }

    /// Attack simulations are millisecond-scale, so the work unit is one
    /// cell's worth of runs rather than a 4096-element shard — blocks align
    /// with cells (maximising template reuse in `eval_block`) and a
    /// 60-element grid still spreads across a 4-worker pool.
    fn block_size(&self) -> usize {
        self.runs_per_cell.max(1) as usize
    }
}

/// The evaluated success-rate matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioMatrix {
    /// Methodologies (columns).
    pub methods: Vec<PoisonMethod>,
    /// Defences (rows).
    pub defences: Vec<Defence>,
    /// Runs per cell.
    pub runs_per_cell: u64,
    /// Aggregate per (method index, defence index).
    pub cells: BTreeMap<(usize, usize), AttackAggregate>,
}

impl ScenarioMatrix {
    /// The aggregate of one (method, defence) cell, if evaluated.
    pub fn cell(&self, method: PoisonMethod, defence: Defence) -> Option<&AttackAggregate> {
        let mi = self.methods.iter().position(|&m| m == method)?;
        let di = self.defences.iter().position(|&d| d == defence)?;
        self.cells.get(&(mi, di))
    }
}

impl ScenarioCampaign {
    /// The full (vector × defence) grid over all three methodologies and
    /// every Section 6 defence.
    pub fn full_grid(base_seed: u64, runs_per_cell: u64) -> Self {
        ScenarioCampaign {
            base_seed,
            methods: PoisonMethod::all().to_vec(),
            defences: Defence::all(),
            runs_per_cell: runs_per_cell.max(1),
            salt: SCENARIO_GRID_SALT,
        }
    }

    /// The DNSSEC deployment matrix: the four attacks against DNSSEC itself
    /// ([`PoisonMethod::dnssec_suite`]) across the four deployment profiles
    /// ([`Defence::dnssec_profiles`]), on its own seed stream
    /// ([`DNSSEC_GRID_SALT`]).
    pub fn dnssec_grid(base_seed: u64, runs_per_cell: u64) -> Self {
        ScenarioCampaign {
            base_seed,
            methods: PoisonMethod::dnssec_suite().to_vec(),
            defences: Defence::dnssec_profiles().to_vec(),
            runs_per_cell: runs_per_cell.max(1),
            salt: DNSSEC_GRID_SALT,
        }
    }

    /// Total number of grid elements, or `None` when that is more than
    /// `usize` can count.
    pub fn population(&self) -> Option<usize> {
        let runs = usize::try_from(self.runs_per_cell.max(1)).ok()?;
        (self.methods.len() * self.defences.len()).checked_mul(runs)
    }

    fn runnable_population(&self) -> usize {
        self.population().expect("a grid larger than the address space cannot run")
    }

    /// Decomposes a flat grid index into (method index, defence index, run).
    fn coords(&self, index: usize) -> (usize, usize, u64) {
        let runs = self.runs_per_cell.max(1) as usize;
        let cell = index / runs;
        let run = (index % runs) as u64;
        (cell / self.defences.len().max(1), cell % self.defences.len().max(1), run)
    }

    /// The seed stream of cell `(method_idx, defence_idx)`. The per-run
    /// stream is salted by the cell *coordinates*, not the flat grid index:
    /// growing the grid can never reseed existing cells.
    fn cell_stream(&self, method_idx: usize, defence_idx: usize) -> SeedStream {
        let cell_salt = self.salt ^ ((method_idx as u64 + 1) << 40) ^ ((defence_idx as u64 + 1) << 48);
        SeedStream::new(self.base_seed, cell_salt)
    }

    /// Evaluates the grid across `workers` threads.
    ///
    /// # Panics
    /// When [`ScenarioCampaign::population`] is `None`.
    pub fn run(&self, workers: usize) -> ScenarioMatrix {
        self.matrix_from(run_grid(self, self.runnable_population(), workers, None))
    }

    /// Evaluates the grid across `workers` threads and returns the merged
    /// telemetry snapshot next to the matrix: every run's resolver and
    /// engine counters (`dns.*`, `engine.*`) plus the per-methodology attack
    /// aggregates (`attacks.<slug>.*`). Per-block snapshots are merged in
    /// block order, so the snapshot — like the matrix — is byte-identical at
    /// any worker count. Panics where [`ScenarioCampaign::run`] does.
    ///
    /// ```
    /// use xlayer_core::prelude::*;
    /// use attacks::prelude::*;
    ///
    /// let campaign = ScenarioCampaign {
    ///     base_seed: 7,
    ///     methods: vec![PoisonMethod::HijackDns],
    ///     defences: vec![Defence::None],
    ///     runs_per_cell: 1,
    ///     salt: SCENARIO_GRID_SALT,
    /// };
    /// let (_matrix, metrics) = campaign.run_with_metrics(2);
    /// assert_eq!(metrics.counter("attacks.hijackdns.runs"), 1);
    /// assert!(metrics.counter("engine.events.popped") > 0);
    /// assert!(metrics.render().contains("dns.resolver.client_queries"));
    /// ```
    pub fn run_with_metrics(&self, workers: usize) -> (ScenarioMatrix, telemetry::MetricsSnapshot) {
        let mut metrics = telemetry::MetricsSnapshot::new();
        let tally = run_grid(self, self.runnable_population(), workers, Some(&mut metrics));
        (self.matrix_from(tally), metrics)
    }

    fn matrix_from(&self, tally: MatrixTally) -> ScenarioMatrix {
        ScenarioMatrix {
            methods: self.methods.clone(),
            defences: self.defences.clone(),
            runs_per_cell: self.runs_per_cell.max(1),
            cells: tally.cells,
        }
    }
}

/// Renders the success-rate matrix: per cell the success count, average
/// attacker packets, average attacker traffic and average queries triggered.
pub fn render_scenario_matrix(matrix: &ScenarioMatrix) -> String {
    let mut headers: Vec<String> = vec!["Defence".into()];
    headers.extend(matrix.methods.iter().map(|m| m.name().to_string()));
    let header_refs: Vec<&str> = headers.iter().map(|h| h.as_str()).collect();
    let mut t = TextTable::new(
        &format!("Scenario campaign — attack success matrix ({} seeds per cell)", matrix.runs_per_cell),
        &header_refs,
    );
    for (di, defence) in matrix.defences.iter().enumerate() {
        let mut row = vec![defence.label()];
        for mi in 0..matrix.methods.len() {
            row.push(match matrix.cells.get(&(mi, di)) {
                Some(agg) if agg.runs > 0 => {
                    let runs = agg.runs as f64;
                    format!(
                        "{}/{} {:.0}pkt {:.1}KB {:.1}q",
                        agg.successes,
                        agg.runs,
                        agg.avg_packets(),
                        agg.total_bytes as f64 / runs / 1024.0,
                        agg.total_queries as f64 / runs,
                    )
                }
                _ => "-".into(),
            });
        }
        t.row(row);
    }
    t.render()
}

/// Renders the DNSSEC deployment matrix, transposed relative to
/// [`render_scenario_matrix`]: the attack vectors are the *rows* (each row
/// label starts its line, so reports can be grepped per vector) and the
/// deployment profiles are the columns.
pub fn render_dnssec_matrix(matrix: &ScenarioMatrix) -> String {
    let mut headers: Vec<String> = vec!["Vector".into()];
    headers.extend(matrix.defences.iter().map(|d| d.label().to_string()));
    let header_refs: Vec<&str> = headers.iter().map(|h| h.as_str()).collect();
    let mut t = TextTable::new(
        &format!(
            "DNSSEC deployment matrix — attacks against the pipeline itself ({} seeds per cell)",
            matrix.runs_per_cell
        ),
        &header_refs,
    );
    for (mi, method) in matrix.methods.iter().enumerate() {
        let mut row = vec![method.name().to_string()];
        for di in 0..matrix.defences.len() {
            row.push(match matrix.cells.get(&(mi, di)) {
                Some(agg) if agg.runs > 0 => {
                    if agg.successes == 0 {
                        format!("BLOCKED 0/{}", agg.runs)
                    } else {
                        format!(
                            "{}/{} {:.0}pkt {:.1}q",
                            agg.successes,
                            agg.runs,
                            agg.avg_packets(),
                            agg.total_queries as f64 / agg.runs as f64
                        )
                    }
                }
                _ => "-".into(),
            });
        }
        t.row(row);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_runs_without_an_exploit_stage() {
        let outcome = Scenario::new(VictimEnvConfig { seed: 5, ..Default::default() })
            .vector(attacks::vectors::quick_for(PoisonMethod::HijackDns))
            .run();
        assert!(outcome.report.success);
        assert_eq!(outcome.before, None);
        assert_eq!(outcome.exploit, None);
        assert!(outcome.chain_succeeded());
    }

    #[test]
    fn defences_override_vector_preparation() {
        // SadDNS prepares a rate-limited nameserver; the NoNameserverRrl
        // defence must win because it is applied afterwards.
        let outcome = Scenario::new(VictimEnvConfig { seed: 6, ..Default::default() })
            .vector(attacks::vectors::quick_for(PoisonMethod::SadDns))
            .defences(&[Defence::NoNameserverRrl])
            .run();
        assert!(!outcome.report.success);
        assert!(matches!(outcome.report.failure, Some(FailureReason::PreconditionNotMet(_))));
    }

    #[test]
    fn dnssec_blocks_the_spf_erasure_forgery() {
        // The grid cell behind the SPF-downgrade row: with DNSSEC deployed,
        // the empty-answer interception is rejected (no authenticated denial
        // of existence), so the policy stays retrievable on re-query and the
        // spoofed mail keeps failing SPF.
        let mut cfg = HijackDnsConfig::new(addrs::ATTACKER);
        cfg.target_name = "vict.im".parse().unwrap();
        cfg.qtype = RecordType::TXT;
        cfg.forgery = HijackForgery::EmptyAnswer;
        cfg.short_lived = false;
        let outcome = Scenario::new(VictimEnvConfig { seed: 11, ..Default::default() })
            .vector(Box::new(HijackDnsAttack::new(cfg)))
            .defences(&[Defence::Dnssec])
            .exploit(SpfPolicyExploit::new("vict.im"))
            .run();
        assert!(!outcome.report.success, "the validating resolver must reject the empty forgery");
        assert!(matches!(outcome.report.failure, Some(FailureReason::RejectedByResolver(_))));
    }

    #[test]
    fn web_redirect_chain_end_to_end() {
        let outcome = Scenario::new(VictimEnvConfig { seed: 9, ..Default::default() })
            .vector(attacks::vectors::quick_for(PoisonMethod::HijackDns))
            .exploit(WebRedirectExploit::new("www.vict.im", addrs::SERVICE))
            .run();
        assert_eq!(outcome.before, Some(ExploitVerdict::Web(WebAccess::Genuine)));
        assert_eq!(outcome.exploit, Some(ExploitVerdict::Web(WebAccess::AttackerSite)));
        assert!(outcome.chain_succeeded());
    }

    /// Table 1 "Email": an outgoing message is delivered to whatever address the
    /// MX/A resolution produced.
    struct MailInterceptExploit {
        mail_name: DomainName,
        genuine_mx: Ipv4Addr,
    }

    impl MailInterceptExploit {
        /// Delivery to the domain whose mail host is `mail_name`.
        fn new(mail_name: &str, genuine_mx: Ipv4Addr) -> Self {
            MailInterceptExploit { mail_name: mail_name.parse().expect("valid domain"), genuine_mx }
        }
    }

    impl ExploitStage for MailInterceptExploit {
        fn name(&self) -> &'static str {
            "Email interception"
        }

        fn lookup(&self) -> (DomainName, RecordType) {
            (self.mail_name.clone(), RecordType::A)
        }

        fn observe(&mut self, sim: &Simulator, env: &VictimEnv) -> ExploitVerdict {
            let resolved = env.resolver(sim).cache().cached_a(&self.mail_name, sim.now());
            ExploitVerdict::Mail(deliver_mail(resolved, self.genuine_mx, env.attacker_addr))
        }
    }

    #[test]
    fn mail_intercept_chain_end_to_end() {
        let genuine_mx: Ipv4Addr = "30.0.0.26".parse().unwrap();
        let mut cfg = HijackDnsConfig::new(addrs::ATTACKER);
        cfg.target_name = "mail.vict.im".parse().unwrap();
        let outcome = Scenario::new(VictimEnvConfig { seed: 10, ..Default::default() })
            .vector(Box::new(HijackDnsAttack::new(cfg)))
            .exploit(MailInterceptExploit::new("mail.vict.im", genuine_mx))
            .run();
        assert_eq!(outcome.before, Some(ExploitVerdict::Mail(MailDelivery::DeliveredToGenuine)));
        assert_eq!(outcome.exploit, Some(ExploitVerdict::Mail(MailDelivery::InterceptedByAttacker)));
    }

    #[test]
    fn scenario_matrix_counts_and_cells() {
        let campaign = ScenarioCampaign {
            base_seed: 2021,
            methods: vec![PoisonMethod::HijackDns, PoisonMethod::FragDns],
            defences: vec![Defence::None, Defence::FragmentFiltering],
            runs_per_cell: 2,
            salt: SCENARIO_GRID_SALT,
        };
        assert_eq!(campaign.population(), Some(8));
        let matrix = campaign.run(1);
        // Undefended cells succeed on every seed; fragment filtering blocks
        // FragDNS on every seed.
        let hijack_none = matrix.cell(PoisonMethod::HijackDns, Defence::None).unwrap();
        assert_eq!((hijack_none.runs, hijack_none.successes), (2, 2));
        let frag_filtered = matrix.cell(PoisonMethod::FragDns, Defence::FragmentFiltering).unwrap();
        assert_eq!((frag_filtered.runs, frag_filtered.successes), (2, 0));
        let rendered = render_scenario_matrix(&matrix);
        assert!(rendered.contains("FragmentFiltering"));
        assert!(rendered.contains("2/2"));
        assert!(rendered.contains("0/2"));
    }

    #[test]
    fn scenario_metrics_match_matrix() {
        let campaign = ScenarioCampaign {
            base_seed: 7,
            methods: vec![PoisonMethod::HijackDns],
            defences: vec![Defence::None],
            runs_per_cell: 2,
            salt: SCENARIO_GRID_SALT,
        };
        let (matrix, metrics) = campaign.run_with_metrics(1);
        assert_eq!(matrix, campaign.run(1), "the recorded grid tallies exactly what the plain grid does");
        let agg = matrix.cell(PoisonMethod::HijackDns, Defence::None).unwrap();
        assert_eq!(metrics.counter("attacks.hijackdns.runs"), agg.runs);
        assert_eq!(metrics.counter("attacks.hijackdns.successes"), agg.successes);
        assert!(metrics.counter("dns.resolver.client_queries") > 0, "per-run resolver counters folded in");
        assert!(metrics.counter("engine.events.popped") > 0, "per-run engine counters folded in");
        assert_eq!(metrics.counter("campaign.grid.cells"), 2);
    }

    #[test]
    fn scenario_matrix_is_worker_invariant() {
        let campaign = ScenarioCampaign {
            base_seed: 7,
            methods: vec![PoisonMethod::HijackDns],
            defences: vec![Defence::None, Defence::Dnssec],
            runs_per_cell: 3,
            salt: SCENARIO_GRID_SALT,
        };
        let reference = campaign.run(1);
        for workers in [2usize, 8] {
            assert_eq!(campaign.run(workers), reference, "workers={workers} changed the matrix");
        }
    }

    #[test]
    fn dnssec_matrix_means_what_the_paper_says() {
        // One seed per cell keeps this fast; the 2-seed rendering is locked
        // byte-for-byte by the golden suite.
        let matrix = ScenarioCampaign::dnssec_grid(2021, 1).run(2);
        let won = |m: PoisonMethod, d: Defence| matrix.cell(m, d).map(|agg| agg.successes > 0).unwrap();
        use PoisonMethod::*;
        // Unanchored (no DS in the parent): every vector wins — signing
        // without a chain of trust defends nothing.
        for m in PoisonMethod::dnssec_suite() {
            assert!(won(m, Defence::DnssecNoDs), "{m} must win against an unanchored zone");
        }
        // Classic NSEC deployment: forgeries are blocked, but the rollover
        // window and the walkable chain remain.
        assert!(!won(DowngradeToInsecure, Defence::Dnssec));
        assert!(!won(Nsec3OptOutAbuse, Defence::Dnssec));
        assert!(won(RolloverForgery, Defence::Dnssec));
        assert!(won(ZoneWalking, Defence::Dnssec));
        // NSEC3 opt-out: walking is blunted, but opt-out spans admit
        // unsigned insertions and the lenient rollover window stays open.
        assert!(!won(DowngradeToInsecure, Defence::DnssecNsec3OptOut));
        assert!(won(Nsec3OptOutAbuse, Defence::DnssecNsec3OptOut));
        assert!(won(RolloverForgery, Defence::DnssecNsec3OptOut));
        assert!(!won(ZoneWalking, Defence::DnssecNsec3OptOut));
        // Hardened profile: everything blocked.
        for m in PoisonMethod::dnssec_suite() {
            assert!(!won(m, Defence::DnssecStrict), "{m} must be blocked by the strict profile");
        }
    }

    #[test]
    fn dnssec_matrix_is_worker_invariant() {
        let campaign = ScenarioCampaign::dnssec_grid(7, 1);
        let reference = campaign.run(1);
        for workers in [2usize, 8] {
            assert_eq!(campaign.run(workers), reference, "workers={workers} changed the DNSSEC matrix");
        }
        let rendered = render_dnssec_matrix(&reference);
        for row in ["DowngradeToInsecure", "Nsec3OptOutAbuse", "RolloverForgery", "ZoneWalking"] {
            assert!(rendered.lines().any(|l| l.starts_with(row)), "row {row} must start a line of the rendered matrix");
        }
    }
}
