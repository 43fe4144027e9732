//! Cluster configuration: the paper's execution configurations (§6.2),
//! the cluster-level knobs, and the embedded per-node DSM configuration,
//! with one validation point.

use parade_dsm::{CommCosts, DsmConfig, HomePolicy, ProtoSelect, PAGE_SIZE};
use parade_net::{ChaosProfile, NetProfile, TimeSource};

/// The three measurement configurations of the paper's §6.2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecConfig {
    /// Uniprocessor kernel: one CPU handles both computation and
    /// communication — remote requests wait out scheduling delays.
    OneThreadOneCpu,
    /// SMP kernel, one computational thread: the second CPU is dedicated to
    /// the communication thread.
    OneThreadTwoCpu,
    /// SMP kernel, two computational threads: the communication thread
    /// shares the two CPUs with computation.
    TwoThreadTwoCpu,
    /// Free-form: explicit thread count and communication-thread costs.
    Custom {
        threads_per_node: usize,
        comm: CommCosts,
    },
}

impl ExecConfig {
    pub fn threads_per_node(&self) -> usize {
        match self {
            ExecConfig::OneThreadOneCpu | ExecConfig::OneThreadTwoCpu => 1,
            ExecConfig::TwoThreadTwoCpu => 2,
            ExecConfig::Custom {
                threads_per_node, ..
            } => *threads_per_node,
        }
    }

    pub fn comm_costs(&self) -> CommCosts {
        match self {
            ExecConfig::OneThreadOneCpu => CommCosts::shared_cpu_busy(),
            ExecConfig::OneThreadTwoCpu => CommCosts::dedicated_cpu(),
            ExecConfig::TwoThreadTwoCpu => CommCosts::shared_cpu_light(),
            ExecConfig::Custom { comm, .. } => *comm,
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            ExecConfig::OneThreadOneCpu => "1Thread-1CPU",
            ExecConfig::OneThreadTwoCpu => "1Thread-2CPU",
            ExecConfig::TwoThreadTwoCpu => "2Thread-2CPU",
            ExecConfig::Custom { .. } => "custom",
        }
    }

    pub const PAPER_CONFIGS: [ExecConfig; 3] = [
        ExecConfig::OneThreadOneCpu,
        ExecConfig::OneThreadTwoCpu,
        ExecConfig::TwoThreadTwoCpu,
    ];
}

/// Which runtime the OpenMP directives target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolMode {
    /// ParADE: hybrid execution — collectives for small-data
    /// synchronization/work-sharing directives, HLRC with migratory home
    /// for the rest.
    Parade,
    /// Conventional SDSM (the KDSM-style baseline of §6.1): lock-based
    /// synchronization, the invalidate protocol on fixed homes, no
    /// message-passing shortcut.
    SdsmOnly,
}

/// A [`ClusterConfig`] that [`ClusterConfig::validate`] rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Path of the offending field, e.g. `"dsm.pool_bytes"`.
    pub field: &'static str,
    pub reason: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid cluster config: `{}` {}",
            self.field, self.reason
        )
    }
}

impl std::error::Error for ConfigError {}

/// Full configuration of a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of SMP nodes.
    pub nodes: usize,
    pub exec: ExecConfig,
    pub protocol: ProtocolMode,
    pub net: NetProfile,
    /// Compute-time accounting for application threads. The default,
    /// `Counted`, charges what the program counts through
    /// `ThreadCtx::compute` (the paper kernels price their loop trips for
    /// the ~550 MHz Pentium III nodes in `parade_kernels::cost`); `Manual`
    /// makes compute free. Neither reads a host clock.
    pub time: TimeSource,
    /// Fault injection for the fabric. The default honours the
    /// `PARADE_CHAOS` environment variable (off when unset), so any run
    /// can be soaked under chaos without code changes.
    pub chaos: ChaosProfile,
    /// Per-node DSM knobs, passed through to every node except for those
    /// the cluster level decides (see [`ClusterConfig::dsm_config`]):
    /// `comm` always comes from `exec`, and `home_policy` and
    /// `proto_select` are the ParADE protocol's — `SdsmOnly` is the
    /// fixed-home invalidate baseline.
    pub dsm: DsmConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 2,
            exec: ExecConfig::TwoThreadTwoCpu,
            protocol: ProtocolMode::Parade,
            net: NetProfile::clan_via(),
            time: TimeSource::Counted,
            chaos: ChaosProfile::from_env(),
            dsm: DsmConfig::default(),
        }
    }
}

impl ClusterConfig {
    pub fn threads_per_node(&self) -> usize {
        self.exec.threads_per_node()
    }

    /// Total computational threads in the cluster.
    pub fn total_threads(&self) -> usize {
        self.nodes * self.threads_per_node()
    }

    /// The per-node DSM configuration this cluster config implies: `dsm`
    /// with the communication-thread costs of `exec` (§6.2) and, for the
    /// `SdsmOnly` baseline, the paper's invalidate protocol on fixed homes
    /// (§6.1).
    pub fn dsm_config(&self) -> DsmConfig {
        let dsm = DsmConfig {
            comm: self.exec.comm_costs(),
            ..self.dsm
        };
        match self.protocol {
            ProtocolMode::Parade => dsm,
            ProtocolMode::SdsmOnly => DsmConfig {
                home_policy: HomePolicy::Fixed,
                proto_select: ProtoSelect::Invalidate,
                ..dsm
            },
        }
    }

    /// The single checking point for a configuration: every way of
    /// building a cluster goes through here before anything is launched.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let reject = |field, reason: String| Err(ConfigError { field, reason });
        if self.nodes == 0 {
            return reject("nodes", "must be at least 1".into());
        }
        if self.threads_per_node() == 0 {
            return reject("exec", "must give at least 1 thread per node".into());
        }
        if self.dsm.pool_bytes < PAGE_SIZE {
            return reject(
                "dsm.pool_bytes",
                format!(
                    "{} is less than one {PAGE_SIZE}-byte page",
                    self.dsm.pool_bytes
                ),
            );
        }
        if self.dsm.comm != DsmConfig::default().comm && self.dsm.comm != self.exec.comm_costs() {
            return reject(
                "dsm.comm",
                "is decided by `exec`; use ExecConfig::Custom to set it".into(),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_presets() {
        assert_eq!(ExecConfig::OneThreadOneCpu.threads_per_node(), 1);
        assert_eq!(ExecConfig::TwoThreadTwoCpu.threads_per_node(), 2);
        assert!(
            ExecConfig::OneThreadOneCpu.comm_costs().service_penalty
                > ExecConfig::OneThreadTwoCpu.comm_costs().service_penalty
        );
        assert_eq!(ExecConfig::OneThreadTwoCpu.label(), "1Thread-2CPU");
    }

    #[test]
    fn cluster_level_decides_home_policy_and_comm_costs() {
        let mut c = ClusterConfig::default();
        assert_eq!(c.dsm_config().home_policy, HomePolicy::Migratory);
        c.dsm.home_policy = HomePolicy::Fixed;
        assert_eq!(c.dsm_config().home_policy, HomePolicy::Fixed);
        c.dsm.home_policy = HomePolicy::Migratory;
        assert_eq!(c.dsm_config().proto_select, ProtoSelect::Update);
        // The SDSM baseline runs the paper's invalidate protocol on fixed
        // homes, whatever the embedded config asks for.
        c.protocol = ProtocolMode::SdsmOnly;
        assert_eq!(c.dsm_config().home_policy, HomePolicy::Fixed);
        assert_eq!(c.dsm_config().proto_select, ProtoSelect::Invalidate);
        for exec in ExecConfig::PAPER_CONFIGS {
            c.exec = exec;
            assert_eq!(c.dsm_config().comm, exec.comm_costs());
        }
        // Under ParADE everything else passes through untouched.
        c.protocol = ProtocolMode::Parade;
        c.dsm.proto_select = ProtoSelect::Invalidate;
        assert_eq!(c.dsm_config().proto_select, ProtoSelect::Invalidate);
    }

    #[test]
    fn validate_names_the_offending_field() {
        let field = |c: ClusterConfig| c.validate().expect_err("must be rejected").field;
        let ok = ClusterConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        assert_eq!(
            field(ClusterConfig {
                nodes: 0,
                ..ok.clone()
            }),
            "nodes"
        );
        let no_threads = ExecConfig::Custom {
            threads_per_node: 0,
            comm: CommCosts::dedicated_cpu(),
        };
        assert_eq!(
            field(ClusterConfig {
                exec: no_threads,
                ..ok.clone()
            }),
            "exec"
        );
        let mut c = ok.clone();
        c.dsm.pool_bytes = PAGE_SIZE - 1;
        let e = c.validate().unwrap_err();
        assert_eq!(e.field, "dsm.pool_bytes");
        assert!(e.to_string().contains("`dsm.pool_bytes`"), "{e}");
        c.dsm.pool_bytes = PAGE_SIZE;
        assert_eq!(c.validate(), Ok(()));
        // A comm cost set on the embedded config would be overridden by
        // `exec`: reject it instead of ignoring it.
        let mut c = ok.clone();
        c.dsm.comm = CommCosts::shared_cpu_busy();
        assert_eq!(field(c.clone()), "dsm.comm");
        c.exec = ExecConfig::OneThreadOneCpu;
        assert_eq!(c.validate(), Ok(()), "consistent with exec is fine");
    }

    #[test]
    fn chaos_defaults_to_env_or_off() {
        // The test environment does not set PARADE_CHAOS, so the default
        // config must leave the fabric clean.
        if std::env::var("PARADE_CHAOS").is_err() {
            assert!(!ClusterConfig::default().chaos.is_active());
        }
    }
}
