#pragma once
/// \file agent_daemon.hpp
/// The live agent process: a TCP event loop multiplexing wire-protocol
/// connections onto the existing cas::Agent scheduling core. Servers connect
/// and register (kRegister), stream load reports and heartbeats, and notify
/// completions/failures; clients connect and submit kScheduleRequest per
/// task. Between turns, run() blocks in one readiness wait over every socket
/// (LoopWait) until a frame arrives or the earliest timer is due - the next
/// simulator event, a heartbeat, sync or steal deadline - capped at
/// kStopCap. All requests that arrive within one turn are drained into a
/// single Agent::scheduleBatch call - one HTM refresh amortized over the
/// whole burst, with placements identical to scheduling them one at a time
/// (locked by the batch equivalence test). The agent forwards each accepted
/// task to the chosen server as a kTaskSubmit over the agent->server
/// connection (agent-mediated submission, exactly the simulated submission
/// path) and relays terminal outcomes back to the requesting client.
///
/// Liveness: any frame from a server refreshes its deadline; a server silent
/// for `heartbeatTimeout` simulated seconds is retired through the agent's
/// deregisterServer path (its HTM row is dropped, it never receives work
/// again). A transport disconnect is an immediate kServerDown; a reconnect
/// re-registers, reviving a retired row when the deadline already passed.
///
/// Replication (protocol v3): the daemon can peer with other agents. It dials
/// the configured `peers` (re-dialing dropped links), accepts inbound peers
/// identifying with kAgentHello, and every `syncPeriod` simulated seconds
/// sends each of them a kAgentSync - load digests of its own servers plus its
/// serialized HTM snapshot in chunks - and writes the same snapshot to
/// `snapshotPath`. Received digests build a registry view of peer-owned
/// servers; received snapshots warm rows for servers not registered here, so
/// a replica (or a restarted agent booting from its snapshot file) starts
/// with warm predictions the moment those servers fail over to it.

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cas/agent.hpp"
#include "core/htm.hpp"
#include "mesh/router.hpp"
#include "net/clock.hpp"
#include "net/loop_wait.hpp"
#include "platform/calibration.hpp"
#include "simcore/engine.hpp"
#include "wire/messages.hpp"
#include "wire/tcp_transport.hpp"

namespace casched::obs {
class MetricsHttpServer;
}  // namespace casched::obs

namespace casched::net {

/// How a multi-agent deployment divides the server registry.
enum class AgentMode : std::uint8_t {
  /// Every agent can serve the full registry; snapshot sync keeps replicas
  /// warm so servers and clients can fail over to any of them.
  kReplicated,
  /// Each agent owns the servers that registered with it; clients spread
  /// their tasks across the agents. Load digests give each agent a read-only
  /// view of the partitions it does not own.
  kPartitioned,
};

AgentMode parseAgentMode(const std::string& name);
std::string agentModeName(AgentMode mode);

struct AgentDaemonConfig {
  /// Listening port on 127.0.0.1; 0 picks a free port (see port()).
  std::uint16_t port = 0;
  std::string heuristic = "msf";
  /// One-way control latency the scheduling core assumes for the submission
  /// path (the real network supplies the actual delay).
  double controlLatency = 0.005;
  bool faultTolerance = false;
  int maxRetries = 5;
  double noServerRetryDelay = 10.0;
  core::SyncPolicy htmSync = core::SyncPolicy::kDropOnNotice;
  /// Simulated seconds without any message from a registered server before
  /// its HTM row is retired via Agent::deregisterServer.
  double heartbeatTimeout = 90.0;
  std::uint64_t schedulerSeed = 7;
  /// Static cost database handed to the agent (the paper's calibrated
  /// Tables 3-4 when available); servers without entries fall back to
  /// refSeconds / speedIndex from their registration.
  platform::CostModel costs;

  // --- replication (multi-agent deployments) ---
  /// Name announced in kAgentHello; must be unique across the deployment.
  std::string agentName = "agent-0";
  AgentMode mode = AgentMode::kReplicated;
  /// Peer agents to dial, as "host:port". Dropped links are re-dialed every
  /// `peerRedialPeriod`; peers may also dial in (kAgentHello identifies them).
  std::vector<std::string> peers;
  double peerRedialPeriod = 5.0;
  /// Simulated seconds between kAgentSync broadcasts (and snapshot file
  /// saves); <= 0 disables both.
  double syncPeriod = 5.0;
  /// HTM snapshot file: loaded (if present) at construction for a warm
  /// start, rewritten every sync period. Empty disables persistence.
  std::string snapshotPath;

  // --- mesh (protocol v4: request forwarding / work stealing) ---
  /// Enables the mesh layer: schedule requests are routed (local / forward /
  /// park / deny) before the scheduling core sees them, kForwardRequest and
  /// kSteal* frames are honoured, and syncs advertise the parked-queue depth.
  bool meshEnabled = false;
  mesh::RouterConfig meshRouter;
  /// Simulated seconds between steal attempts when idle; <= 0 disables.
  double meshStealPeriod = 0.0;
  /// Max parked tasks handed over per steal grant.
  std::size_t meshStealBatch = 4;

  // --- observability ---
  /// Loopback HTTP port serving the metrics registry (GET / for Prometheus
  /// text, any path containing "json" for JSON). Negative disables the
  /// endpoint; 0 picks a free port (see metricsHttpPort()).
  int metricsPort = -1;
};

class AgentDaemon {
 public:
  AgentDaemon(AgentDaemonConfig config, PacedClock clock);
  ~AgentDaemon();

  AgentDaemon(const AgentDaemon&) = delete;
  AgentDaemon& operator=(const AgentDaemon&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// One event-loop turn: accept new connections, advance the paced clock,
  /// drain every transport, apply heartbeat deadlines. Non-blocking.
  void runOnce();

  /// Blocking loop for the CLI process: runOnce(), then wait for a readable
  /// socket or the next deadline (at most kStopCap). Returns within about
  /// kStopCap of `stop` becoming true, or once a client sends kShutdown.
  void run(const std::atomic<bool>& stop);

  /// Earliest simulated time at which one of this daemon's timers is due:
  /// the next simulator event (such as a submission's control-latency
  /// delay), a server's heartbeat or a pending connection's identify
  /// deadline, a deferred route's expiry, the next sync, steal or peer
  /// re-dial. Infinity when nothing is scheduled.
  double nextDeadline() const;

  cas::Agent& agent() { return agent_; }
  const cas::Agent& agent() const { return agent_; }
  simcore::Simulator& simulator() { return sim_; }

  /// Servers currently registered and not retired.
  std::size_t liveServerCount() const;
  std::size_t retiredServerCount() const;
  bool serverRetired(const std::string& name) const;
  bool serverKnown(const std::string& name) const;

  /// True once a kShutdown frame arrived.
  bool shutdownRequested() const { return shutdownRequested_; }

  /// Port of the metrics HTTP endpoint, or 0 when disabled.
  std::uint16_t metricsHttpPort() const;

  // --- replication surface ---
  const std::string& agentName() const { return config_.agentName; }
  AgentMode mode() const { return config_.mode; }
  /// Adds a peer address ("host:port") after construction; the loopback
  /// harness uses this once every agent's ephemeral port is known.
  void addPeer(const std::string& hostPort);
  /// Peer links currently connected (inbound or outbound).
  std::size_t connectedPeerCount() const;
  /// Rows adopted from the snapshot file at construction (warm start).
  std::size_t warmStartedRows() const { return warmStartedRows_; }
  /// kAgentSync frames digested so far.
  std::uint64_t syncsReceived() const { return syncsReceived_; }
  /// Distinct HTM rows ever adopted from peer snapshots (servers not
  /// registered here) - replication coverage, independent of run length.
  std::uint64_t peerRowsAdopted() const { return peerAdoptedRows_.size(); }
  /// Servers known only through peer load digests (the rest of the registry
  /// in partitioned mode).
  std::size_t knownPeerServerCount() const { return peerLoads_.size(); }

  // --- mesh surface ---
  /// Requests this agent handed to a peer (kForwardRequest sent).
  std::uint64_t meshForwards() const { return meshForwards_; }
  /// Requests this agent denied (kScheduleDeny / kForwardDeny sent).
  std::uint64_t meshDenies() const { return meshDenies_; }
  /// Tasks this agent pulled off a peer's parked queue (kStealGrant received).
  std::uint64_t meshSteals() const { return meshSteals_; }
  /// Requests ever parked awaiting a steal (cumulative, not current depth).
  std::uint64_t meshParked() const { return meshParkedTotal_; }

 private:
  struct WireLink;
  struct ServerEntry {
    std::unique_ptr<WireLink> link;
    std::shared_ptr<wire::TcpTransport> transport;
    double lastSeen = 0.0;  ///< agent sim time of the last frame
    bool up = false;
    bool retired = false;
    /// Tasks that were in flight when the server announced kServerDown
    /// (leave or collapse). The down-notice clears the scheduling core's own
    /// bookkeeping, so this is the only record left; each id leaves the set
    /// with its completion/failure frame, and whatever remains when the link
    /// dies is failed on the server's behalf (fault tolerance re-submits).
    std::set<std::uint64_t> draining;
  };

  /// One agent-to-agent link: outbound entries carry the address to re-dial;
  /// inbound entries (address empty) are pruned once their transport dies.
  struct PeerEntry {
    std::string address;  ///< "host:port" for outbound dials; "" when inbound
    std::string name;     ///< peer's agentName once its hello arrived
    std::string mode;
    std::shared_ptr<wire::TcpTransport> transport;
    bool helloSent = false;
    double nextDialAt = 0.0;
    /// "host:port" the peer listens on (from its hello) - what the resolver
    /// gossips to clients; empty until the hello arrives or when unknown.
    std::string listenAddress;
    /// Last kAgentSync digest, summarized for the mesh router.
    bool digestSeen = false;
    double meanLoad = 0.0;
    std::uint32_t liveServers = 0;
    std::uint32_t queuedTasks = 0;
    /// Snapshot chunk reassembly state.
    std::uint64_t snapshotSeq = 0;
    std::uint32_t chunkCount = 0;
    std::uint32_t chunksReceived = 0;
    std::vector<wire::Bytes> chunks;
  };

  void acceptPending();
  void pollTransports();
  void applyDeadlines();
  bool otherLiveLinkTo(const PeerEntry& peer) const;
  void pollPeers();
  void maybeSync();
  /// Flushes every link's queued outbound traffic (end of each poll cycle);
  /// consecutive same-type messages leave in coalesced frames.
  void flushAllQueued();
  void sendHello(PeerEntry& peer);
  void onAgentHello(const std::shared_ptr<wire::TcpTransport>& transport,
                    const wire::AgentHelloMsg& msg);
  void onAgentSync(const std::shared_ptr<wire::TcpTransport>& transport,
                   const wire::AgentSyncMsg& msg);
  void handleFrame(const std::shared_ptr<wire::TcpTransport>& transport,
                   const wire::Frame& frame);
  void onRegister(const std::shared_ptr<wire::TcpTransport>& transport,
                  const wire::RegisterMsg& msg);
  void onScheduleRequest(const std::shared_ptr<wire::TcpTransport>& transport,
                         const wire::ScheduleRequestMsg& msg);
  /// Moves a never-identified connection from pending_ to clients_, so the
  /// pending timeout leaves it alone; a no-op for one already identified.
  void promoteToClient(const std::shared_ptr<wire::TcpTransport>& transport);
  /// The task a request describes, arriving now; throws util::Error when the
  /// request's dimensions are malformed.
  workload::TaskInstance taskFromRequest(const wire::ScheduleRequestMsg& msg) const;
  /// Mesh routing for a validated request: place locally, forward to the
  /// least-loaded capable peer, park for a steal, defer (no digests yet), or
  /// deny. `fromAgent` is empty for client submissions and names the peer for
  /// kForwardRequest arrivals (it is excluded from forwarding candidates and
  /// receives kForwardDeny instead of kScheduleDeny).
  void routeRequest(const std::shared_ptr<wire::TcpTransport>& requester,
                    const wire::ScheduleRequestMsg& msg,
                    const workload::TaskInstance& task, std::uint32_t hops,
                    const std::string& fromAgent, double firstSeen);
  void denyRequest(const std::shared_ptr<wire::TcpTransport>& requester,
                   std::uint64_t taskId, const std::string& fromAgent,
                   const std::string& reason);
  /// True when `taskId` is already held somewhere in this daemon outside the
  /// scheduling core: this cycle's batch, parked awaiting a steal, deferred
  /// routing, or handed to a peer. Accepting a second copy would overwrite
  /// the first task's client entry and race the terminal relays.
  bool taskIdInFlight(std::uint64_t taskId) const;
  void retryDeferredRoutes();
  /// A peer link died with no replacement: every task handed to that peer
  /// (forwarded or steal-granted) has lost its terminal path, so re-route the
  /// retained requests - locally, to another peer, or as a deny to the
  /// original requester - instead of leaving clients to hang until timeout.
  void reclaimForwarded(const std::string& peerName);
  void maybeSteal();
  /// Terminal frame for a task this agent routed to a peer (the server is not
  /// registered here): relay it verbatim to the original client and return
  /// true. False means normal server-terminal handling applies.
  bool relayForwardedTerminal(std::uint64_t taskId, const std::string& serverName,
                              const wire::Frame& frame);
  void flushScheduleBatch();
  void markServerDown(const std::string& name);
  void failAbandonedTasks(const std::string& name);
  void sendSubmit(const std::string& server, std::uint64_t taskId,
                  const psched::ExecRequest& request);
  void relayTerminal(const metrics::TaskOutcome& outcome);

  AgentDaemonConfig config_;
  PacedClock clock_;
  wire::TcpListener listener_;
  simcore::Simulator sim_;
  cas::Agent agent_;
  /// Connections that have not yet identified themselves (first frame tells
  /// servers from clients apart), with the sim time they were accepted;
  /// one that stays mute past the heartbeat timeout is dropped so idle
  /// sockets cannot pile up in a long-lived daemon.
  std::vector<std::pair<std::shared_ptr<wire::TcpTransport>, double>> pending_;
  std::map<std::string, ServerEntry> servers_;
  std::vector<std::shared_ptr<wire::TcpTransport>> clients_;
  /// Which client asked for which task (terminal outcomes go back there).
  std::map<std::uint64_t, std::weak_ptr<wire::TcpTransport>> taskClients_;
  /// Requests validated this poll cycle, awaiting the cycle's single
  /// scheduleBatch call (capacity reused across cycles).
  std::vector<workload::TaskInstance> scheduleBatch_;
  bool shutdownRequested_ = false;

  // --- replication state ---
  std::vector<PeerEntry> peers_;
  double nextSyncAt_ = 0.0;
  std::uint64_t snapshotSeq_ = 0;
  /// Last load digest per peer-owned server (not registered here).
  std::map<std::string, wire::LoadDigest> peerLoads_;
  /// Distinct server names whose rows were adopted from peer snapshots.
  std::set<std::string> peerAdoptedRows_;
  std::size_t warmStartedRows_ = 0;
  std::uint64_t syncsReceived_ = 0;

  // --- mesh state ---
  /// Requests routed off this agent, by task id: the peer now responsible
  /// (forward target, or the thief that took a parked task) plus the original
  /// request, kept so a kForwardDeny can fall back to local scheduling.
  /// Terminal frames arriving over a peer link consult this map first - the
  /// server is not in servers_ here - and relay to the original client.
  struct ForwardedTask {
    std::string peer;
    wire::ScheduleRequestMsg request;
    /// Agent the request arrived from (multi-hop forwards answer with
    /// kForwardDeny there); empty when the requester is a client.
    std::string fromAgent;
  };
  std::map<std::uint64_t, ForwardedTask> forwardedTo_;
  /// Requests parked awaiting a kStealRequest (stealing topologies).
  std::deque<wire::ScheduleRequestMsg> parked_;
  /// Requests that could not be routed yet (no peer digest seen, typically
  /// the startup race before the first sync round); retried every poll cycle
  /// until the heartbeat timeout, then denied.
  struct DeferredRoute {
    std::weak_ptr<wire::TcpTransport> requester;
    wire::ScheduleRequestMsg msg;
    std::uint32_t hops = 0;
    std::string fromAgent;
    double firstSeen = 0.0;
  };
  std::vector<DeferredRoute> deferred_;
  /// DecisionLog origin tag per task ("forward:<agent>" / "steal:<agent>"),
  /// consumed by the decision annotator and erased at the terminal relay.
  std::map<std::uint64_t, std::string> taskOrigins_;
  double nextStealAt_ = 0.0;
  std::uint64_t meshForwards_ = 0;
  std::uint64_t meshDenies_ = 0;
  std::uint64_t meshSteals_ = 0;
  std::uint64_t meshParkedTotal_ = 0;

  /// Adds every socket runOnce() reads to `wait`.
  void watchSockets(LoopWait& wait) const;

  /// Non-null when config_.metricsPort >= 0; polled once per runOnce() turn.
  std::unique_ptr<obs::MetricsHttpServer> metricsServer_;
};

}  // namespace casched::net
