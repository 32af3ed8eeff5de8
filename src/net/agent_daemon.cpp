#include "net/agent_daemon.hpp"

#include <algorithm>

#include "core/htm_snapshot.hpp"
#include "obs/decision.hpp"
#include "obs/http_export.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

#undef CASCHED_LOG_COMPONENT
#define CASCHED_LOG_COMPONENT "net.agent"

namespace casched::net {

AgentMode parseAgentMode(const std::string& name) {
  const std::string n = util::toLower(name);
  if (n == "replicated") return AgentMode::kReplicated;
  if (n == "partitioned") return AgentMode::kPartitioned;
  throw util::ConfigError("unknown agent mode '" + name +
                          "' (want replicated | partitioned)");
}

std::string agentModeName(AgentMode mode) {
  switch (mode) {
    case AgentMode::kReplicated: return "replicated";
    case AgentMode::kPartitioned: return "partitioned";
  }
  return "?";
}

/// TaskDispatch implementation handed to the scheduling core: encodes the
/// submission as a kTaskSubmit frame on the server's current transport.
/// The object lives as long as its ServerEntry, surviving reconnects (the
/// frame always goes out on the entry's *current* transport).
struct AgentDaemon::WireLink final : cas::TaskDispatch {
  WireLink(AgentDaemon* owner, std::string server)
      : owner_(owner), server_(std::move(server)) {}

  void submitTask(std::uint64_t taskId, const psched::ExecRequest& request) override {
    owner_->sendSubmit(server_, taskId, request);
  }

  AgentDaemon* owner_;
  std::string server_;
};

namespace {

cas::AgentConfig toAgentConfig(const AgentDaemonConfig& config) {
  cas::AgentConfig out;
  out.controlLatency = config.controlLatency;
  out.faultTolerance = config.faultTolerance;
  out.maxRetries = config.maxRetries;
  out.noServerRetryDelay = config.noServerRetryDelay;
  out.htmSync = config.htmSync;
  return out;
}

obs::Counter& peerDialsCounter() {
  static obs::Counter* c = &obs::Registry::global().counter(
      "casched_agent_peer_dials_total", "Outbound peer-agent dial attempts");
  return *c;
}

obs::Counter& serversRetiredCounter() {
  static obs::Counter* c = &obs::Registry::global().counter(
      "casched_agent_servers_retired_total",
      "Servers retired after missing the report deadline");
  return *c;
}

}  // namespace

AgentDaemon::AgentDaemon(AgentDaemonConfig config, PacedClock clock)
    : config_(std::move(config)),
      clock_(clock),
      listener_(config_.port),
      agent_(sim_, core::makeScheduler(config_.heuristic, config_.schedulerSeed),
             config_.costs, toAgentConfig(config_)) {
  CASCHED_CHECK(config_.heartbeatTimeout > 0.0, "heartbeat timeout must be positive");
  agent_.setTaskTerminalObserver(
      [this](const metrics::TaskOutcome& outcome) { relayTerminal(outcome); });
  agent_.setDecisionLabel(config_.agentName);
  agent_.setDecisionAnnotator([this](std::uint64_t taskId, obs::DecisionRecord& record) {
    const auto it = taskOrigins_.find(taskId);
    record.origin = it == taskOrigins_.end() ? "local" : it->second;
  });
  for (const std::string& address : config_.peers) addPeer(address);
  if (config_.metricsPort >= 0) {
    metricsServer_ = std::make_unique<obs::MetricsHttpServer>(
        static_cast<std::uint16_t>(config_.metricsPort));
    LOG_INFO("agent " << config_.agentName << ": metrics endpoint on 127.0.0.1:"
                      << metricsServer_->port());
  }
  if (!config_.snapshotPath.empty()) {
    try {
      if (const auto snap = core::loadHtmSnapshotFile(config_.snapshotPath)) {
        warmStartedRows_ = agent_.warmStartHtm(*snap);
        LOG_INFO("agent " << config_.agentName << ": warm-started " << warmStartedRows_
                          << " HTM rows from " << config_.snapshotPath);
      }
    } catch (const util::Error& e) {
      // A corrupt or unreadable snapshot must not keep the agent down; it
      // simply starts cold.
      LOG_WARN("agent " << config_.agentName
                        << ": ignoring unusable snapshot: " << e.what());
    }
  }
}

AgentDaemon::~AgentDaemon() = default;

void AgentDaemon::runOnce() {
  sim_.advanceTo(clock_.simNow());
  acceptPending();
  pollTransports();
  retryDeferredRoutes();
  flushScheduleBatch();
  pollPeers();
  applyDeadlines();
  maybeSync();
  maybeSteal();
  flushAllQueued();
  if (metricsServer_) metricsServer_->pollOnce();
}

void AgentDaemon::flushAllQueued() {
  // One flush per poll cycle per link: everything queued above (terminal
  // relays, submits, heartbeat echoes, sync chunks) leaves as coalesced
  // frames wherever consecutive messages share a type.
  for (auto& [conn, since] : pending_) {
    if (conn && !conn->closed()) conn->flushQueued();
  }
  for (auto& [name, entry] : servers_) {
    if (entry.transport && !entry.transport->closed()) entry.transport->flushQueued();
  }
  for (auto& client : clients_) {
    if (client && !client->closed()) client->flushQueued();
  }
  for (auto& peer : peers_) {
    if (peer.transport && !peer.transport->closed()) peer.transport->flushQueued();
  }
}

std::uint16_t AgentDaemon::metricsHttpPort() const {
  return metricsServer_ ? metricsServer_->port() : 0;
}

void AgentDaemon::run(const std::atomic<bool>& stop) {
  LoopWait wait("agent");
  while (!stop.load(std::memory_order_relaxed) && !shutdownRequested_) {
    runOnce();
    wait.reset();
    watchSockets(wait);
    wait.wakeBy(clock_.wallAt(nextDeadline()));
    if (metricsServer_) wait.wakeBy(metricsServer_->nextDropAt());
    wait.wait();
  }
}

void AgentDaemon::watchSockets(LoopWait& wait) const {
  const auto watch = [&](const std::shared_ptr<wire::TcpTransport>& t) {
    if (t && !t->closed()) wait.watch(t->fd());
  };
  wait.watch(listener_.fd());
  for (const auto& [conn, since] : pending_) watch(conn);
  for (const auto& [name, entry] : servers_) watch(entry.transport);
  for (const auto& client : clients_) watch(client);
  for (const PeerEntry& peer : peers_) watch(peer.transport);
  if (metricsServer_) metricsServer_->forEachFd([&](int fd) { wait.watch(fd); });
}

double AgentDaemon::nextDeadline() const {
  // Each term mirrors the check that acts on it in runOnce(), so a deadline
  // is listed exactly while that check can still fire: a stale one would
  // wake the loop at once, every turn.
  double at = sim_.nextEventTime();
  const auto earliest = [&](double t) { at = std::min(at, t); };
  for (const auto& [conn, since] : pending_) earliest(since + config_.heartbeatTimeout);
  for (const auto& [name, entry] : servers_) {
    if (!entry.retired) earliest(entry.lastSeen + config_.heartbeatTimeout);
  }
  for (const DeferredRoute& route : deferred_) {
    earliest(route.firstSeen + config_.heartbeatTimeout);
  }
  if (config_.syncPeriod > 0.0 && (!config_.snapshotPath.empty() || !peers_.empty())) {
    earliest(nextSyncAt_);
  }
  if (config_.meshEnabled && config_.meshStealPeriod > 0.0) earliest(nextStealAt_);
  for (const PeerEntry& peer : peers_) {
    if ((!peer.transport || peer.transport->closed()) && !peer.address.empty() &&
        !otherLiveLinkTo(peer)) {
      earliest(peer.nextDialAt);
    }
  }
  return at;
}

void AgentDaemon::acceptPending() {
  while (auto conn = listener_.accept(0)) {
    pending_.emplace_back(std::move(conn), sim_.now());
  }
}

void AgentDaemon::pollTransports() {
  // Pending connections identify themselves with their first frame; polling
  // may move them into servers_ or clients_, so iterate over a copy. One
  // that stays mute past the heartbeat timeout is dropped.
  std::vector<std::shared_ptr<wire::TcpTransport>> snapshot;
  snapshot.reserve(pending_.size());
  for (auto& [transport, since] : pending_) {
    if (sim_.now() - since > config_.heartbeatTimeout) {
      LOG_WARN("agent: dropping connection that never identified itself");
      transport->close();
      continue;
    }
    snapshot.push_back(transport);
  }
  for (auto& transport : snapshot) {
    try {
      transport->poll([&](wire::Frame frame) { handleFrame(transport, frame); });
    } catch (const util::Error& e) {
      LOG_WARN("agent: dropping connection on bad frame: " << e.what());
      transport->close();
    }
  }
  pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                [](const auto& p) { return p.first->closed(); }),
                 pending_.end());

  for (auto& [name, entry] : servers_) {
    if (!entry.transport) continue;
    try {
      auto transport = entry.transport;
      transport->poll([&](wire::Frame frame) { handleFrame(transport, frame); });
    } catch (const util::Error& e) {
      LOG_WARN("agent: closing link to " << name << " on bad frame: " << e.what());
      entry.transport->close();
    }
    if (entry.transport->closed()) {
      entry.transport.reset();
      // The process is gone, not just the machine: unlike a simulated
      // collapse there is nobody left to report the victims, so fail the
      // abandoned in-flight tasks here (fault tolerance re-submits them).
      // A graceful leave drained before closing, so its set is empty.
      failAbandonedTasks(name);
    }
  }

  for (auto& client : clients_) {
    try {
      auto transport = client;
      transport->poll([&](wire::Frame frame) { handleFrame(transport, frame); });
    } catch (const util::Error& e) {
      LOG_WARN("agent: closing client connection on bad frame: " << e.what());
      client->close();
    }
  }
  clients_.erase(std::remove_if(clients_.begin(), clients_.end(),
                                [](const auto& t) { return t->closed(); }),
                 clients_.end());
}

void AgentDaemon::applyDeadlines() {
  const double now = sim_.now();
  for (auto& [name, entry] : servers_) {
    if (entry.retired) continue;
    if (now - entry.lastSeen <= config_.heartbeatTimeout) continue;
    LOG_INFO("agent: server " << name << " missed its report deadline ("
                              << config_.heartbeatTimeout << "s), retiring");
    failAbandonedTasks(name);
    agent_.deregisterServer(name);
    serversRetiredCounter().inc();
    entry.retired = true;
    // Close a still-open link so a merely-stalled daemon notices, re-dials
    // and re-registers (the revival path) instead of heartbeating forever
    // into a registration that no longer exists.
    if (entry.transport) {
      entry.transport->close();
      entry.transport.reset();
    }
  }
}

void AgentDaemon::addPeer(const std::string& hostPort) {
  PeerEntry peer;
  peer.address = hostPort;
  peers_.push_back(std::move(peer));
}

bool AgentDaemon::otherLiveLinkTo(const PeerEntry& peer) const {
  if (peer.name.empty()) return false;
  for (const PeerEntry& other : peers_) {
    if (&other != &peer && other.name == peer.name && other.transport &&
        !other.transport->closed()) {
      return true;
    }
  }
  return false;
}

std::size_t AgentDaemon::connectedPeerCount() const {
  std::size_t n = 0;
  for (const PeerEntry& p : peers_) {
    if (p.transport && !p.transport->closed()) ++n;
  }
  return n;
}

void AgentDaemon::sendHello(PeerEntry& peer) {
  if (!peer.transport || peer.transport->closed()) return;
  wire::AgentHelloMsg hello;
  hello.agentName = config_.agentName;
  hello.mode = agentModeName(config_.mode);
  hello.sampleTime = sim_.now();
  for (const auto& [name, entry] : servers_) {
    if (!entry.retired) hello.ownedServers.push_back(name);
  }
  hello.listenPort = listener_.port();
  peer.transport->send(wire::MessageType::kAgentHello, wire::encode(hello));
  peer.helloSent = true;
}

void AgentDaemon::pollPeers() {
  for (PeerEntry& peer : peers_) {
    if (peer.transport && peer.transport->closed()) {
      // The link died. Unless another live link to the same peer remains,
      // tasks handed over it have lost their terminal path - reclaim them
      // before the redial/prune logic forgets the closure ever happened.
      if (!otherLiveLinkTo(peer)) reclaimForwarded(peer.name);
      peer.transport.reset();
      peer.digestSeen = false;
    }
    if ((!peer.transport || peer.transport->closed()) && !peer.address.empty() &&
        sim_.now() >= peer.nextDialAt && !otherLiveLinkTo(peer)) {
      peer.nextDialAt = sim_.now() + config_.peerRedialPeriod;
      // Parse before dialing, so a malformed address is dropped for good
      // instead of masquerading as a transiently unreachable peer.
      const std::optional<util::HostPort> endpoint = util::parseHostPort(peer.address);
      if (!endpoint) {
        LOG_WARN("agent " << config_.agentName << ": bad peer address '"
                          << peer.address << "'");
        peer.address.clear();  // never dial garbage again
        continue;
      }
      peerDialsCounter().inc();
      try {
        peer.transport = wire::TcpTransport::connect(endpoint->host, endpoint->port);
        peer.helloSent = false;
        sendHello(peer);
        LOG_INFO("agent " << config_.agentName << ": dialed peer " << peer.address);
      } catch (const util::Error& e) {
        peer.transport.reset();
        LOG_DEBUG("agent " << config_.agentName << ": peer " << peer.address
                           << " unreachable: " << e.what());
      }
    }
    if (peer.transport && !peer.transport->closed()) {
      try {
        auto transport = peer.transport;
        transport->poll([&](wire::Frame frame) { handleFrame(transport, frame); });
      } catch (const util::Error& e) {
        LOG_WARN("agent " << config_.agentName
                          << ": closing peer link on bad frame: " << e.what());
        peer.transport->close();
      }
    }
  }
  // Inbound entries have no address to re-dial; drop them once dead. The
  // dialing side owns reconnection.
  peers_.erase(std::remove_if(peers_.begin(), peers_.end(),
                              [](const PeerEntry& p) {
                                return p.address.empty() &&
                                       (!p.transport || p.transport->closed());
                              }),
               peers_.end());
}

void AgentDaemon::maybeSync() {
  if (config_.syncPeriod <= 0.0) return;
  if (config_.snapshotPath.empty() && peers_.empty()) return;
  if (sim_.now() < nextSyncAt_) return;
  nextSyncAt_ = sim_.now() + config_.syncPeriod;

  const core::HtmSnapshot snapshot = agent_.htmSnapshot();
  if (!config_.snapshotPath.empty()) {
    try {
      core::saveHtmSnapshotFile(config_.snapshotPath, snapshot);
    } catch (const util::Error& e) {
      LOG_WARN("agent " << config_.agentName << ": snapshot save failed: " << e.what());
    }
  }
  if (connectedPeerCount() == 0) return;

  wire::AgentSyncMsg base;
  base.agentName = config_.agentName;
  base.sampleTime = sim_.now();
  for (const auto& [name, entry] : servers_) {
    if (entry.retired || !entry.up) continue;
    wire::LoadDigest digest;
    digest.serverName = name;
    digest.loadAverage = agent_.loadEstimate(name);
    digest.sampleTime = sim_.now();
    base.loads.push_back(std::move(digest));
  }
  // v4: advertise the parked-queue depth so idle mesh peers know whom to
  // steal from (harmlessly zero outside mesh deployments).
  base.queuedTasks = static_cast<std::uint32_t>(parked_.size());

  // Snapshot travels in chunks so one sync frame never approaches the frame
  // limit, whatever the trace sizes; loopback deployments fit in one chunk.
  constexpr std::size_t kChunkBytes = 256 * 1024;
  const wire::Bytes blob = core::encodeHtmSnapshot(snapshot);
  const auto chunkCount =
      static_cast<std::uint32_t>((blob.size() + kChunkBytes - 1) / kChunkBytes);
  base.snapshotSeq = ++snapshotSeq_;
  base.chunkCount = chunkCount;

  for (PeerEntry& peer : peers_) {
    if (!peer.transport || peer.transport->closed()) continue;
    if (!peer.helloSent) sendHello(peer);
    for (std::uint32_t i = 0; i < std::max<std::uint32_t>(chunkCount, 1); ++i) {
      wire::AgentSyncMsg msg = base;
      msg.chunkIndex = i;
      if (i > 0) msg.loads.clear();  // digests ride the first chunk only
      if (chunkCount > 0) {
        const std::size_t begin = static_cast<std::size_t>(i) * kChunkBytes;
        const std::size_t end = std::min(blob.size(), begin + kChunkBytes);
        msg.snapshotChunk.assign(blob.begin() + static_cast<std::ptrdiff_t>(begin),
                                 blob.begin() + static_cast<std::ptrdiff_t>(end));
      }
      peer.transport->queue(wire::MessageType::kAgentSync, wire::encode(msg));
    }
  }
}

void AgentDaemon::onAgentHello(const std::shared_ptr<wire::TcpTransport>& transport,
                               const wire::AgentHelloMsg& msg) {
  // An inbound connection identified itself as a peer agent: move it out of
  // pending_ into a peer entry (no address - the dialer re-dials).
  auto inPending = std::find_if(pending_.begin(), pending_.end(),
                                [&](const auto& p) { return p.first == transport; });
  PeerEntry* entry = nullptr;
  if (inPending != pending_.end()) {
    pending_.erase(inPending);
    PeerEntry peer;
    peer.transport = transport;
    peers_.push_back(std::move(peer));
    entry = &peers_.back();
  } else {
    for (PeerEntry& p : peers_) {
      if (p.transport == transport) {
        entry = &p;
        break;
      }
    }
  }
  if (entry == nullptr) return;  // hello on a server/client link: ignore
  entry->name = msg.agentName;
  entry->mode = msg.mode;
  // Dialable address for resolver gossip: the advertised listen port wins
  // (inbound links carry no address of their own), else the dialed address.
  if (msg.listenPort != 0) {
    entry->listenAddress = "127.0.0.1:" + std::to_string(msg.listenPort);
  } else if (!entry->address.empty()) {
    entry->listenAddress = entry->address;
  }

  // Mutually-configured peers (each dialing the other) would otherwise hold
  // two links per pair, doubling every sync. Keep exactly one - the link
  // dialed by the lexicographically smaller agent name; both sides compute
  // the same answer. The loser's transport closes (an inbound duplicate is
  // pruned, an outbound one stops dialing while the canonical link lives).
  for (PeerEntry& other : peers_) {
    if (&other == entry || other.name != msg.agentName) continue;
    if (!other.transport || other.transport->closed()) continue;
    const std::string& entryDialer =
        entry->address.empty() ? msg.agentName : config_.agentName;
    const std::string& canonical = std::min(config_.agentName, msg.agentName);
    PeerEntry& drop = entryDialer == canonical ? other : *entry;
    LOG_INFO("agent " << config_.agentName << ": dropping duplicate link to "
                      << msg.agentName);
    // Answer the hello before closing a losing inbound link: the reply is
    // how the remote dialer learns our name, and only a named entry lets its
    // otherLiveLinkTo() guard suppress further re-dials while the canonical
    // link lives - dropping silently would mean perpetual dial/close churn.
    if (!drop.helloSent) sendHello(drop);
    drop.transport->close();
    if (&drop == entry) return;  // this connection lost the tie-break
    break;
  }

  LOG_INFO("agent " << config_.agentName << ": peer " << msg.agentName << " ("
                    << msg.mode << ", " << msg.ownedServers.size()
                    << " servers) connected");
  // Answer an inbound hello with our own so the dialer learns our name.
  if (!entry->helloSent) sendHello(*entry);
}

void AgentDaemon::onAgentSync(const std::shared_ptr<wire::TcpTransport>& transport,
                              const wire::AgentSyncMsg& msg) {
  PeerEntry* peer = nullptr;
  for (PeerEntry& p : peers_) {
    if (p.transport == transport) {
      peer = &p;
      break;
    }
  }
  if (peer == nullptr) {
    LOG_WARN("agent " << config_.agentName << ": sync from unidentified connection");
    return;
  }
  ++syncsReceived_;
  if (peer->name.empty()) peer->name = msg.agentName;

  // Digest summary for the mesh router (digests ride the first chunk only).
  if (msg.chunkIndex == 0) {
    peer->digestSeen = true;
    peer->liveServers = static_cast<std::uint32_t>(msg.loads.size());
    double loadSum = 0.0;
    for (const wire::LoadDigest& digest : msg.loads) loadSum += digest.loadAverage;
    peer->meanLoad = msg.loads.empty() ? 0.0 : loadSum / static_cast<double>(msg.loads.size());
    peer->queuedTasks = msg.queuedTasks;
  }

  // Load digests: the peer's view of the servers it owns. Servers registered
  // here are our own partition - the local estimate is fresher - so digests
  // only fill in the rest of the registry.
  for (const wire::LoadDigest& digest : msg.loads) {
    if (servers_.count(digest.serverName) != 0) continue;
    peerLoads_[digest.serverName] = digest;
  }

  if (msg.chunkCount == 0) return;
  // Bound the reassembly buffer before allocating from a wire-supplied
  // count: a corrupt or hostile frame must be dropped like any other bad
  // snapshot, not allowed to throw bad_alloc past the util::Error handlers
  // and kill the daemon. 4096 chunks x 256 KiB = a 1 GiB snapshot, far
  // beyond any real deployment.
  constexpr std::uint32_t kMaxSnapshotChunks = 4096;
  if (msg.chunkCount > kMaxSnapshotChunks || msg.chunkIndex >= msg.chunkCount) {
    LOG_WARN("agent " << config_.agentName << ": dropping sync with bad chunking ("
                      << msg.chunkIndex << "/" << msg.chunkCount << ") from "
                      << peer->name);
    return;
  }
  if (msg.snapshotSeq != peer->snapshotSeq || msg.chunkCount != peer->chunkCount) {
    peer->snapshotSeq = msg.snapshotSeq;
    peer->chunkCount = msg.chunkCount;
    peer->chunksReceived = 0;
    peer->chunks.assign(msg.chunkCount, {});
  }
  if (peer->chunks[msg.chunkIndex].empty()) {
    peer->chunks[msg.chunkIndex] = msg.snapshotChunk;
    ++peer->chunksReceived;
  }
  if (peer->chunksReceived != peer->chunkCount) return;

  wire::Bytes blob;
  for (const wire::Bytes& chunk : peer->chunks) {
    blob.insert(blob.end(), chunk.begin(), chunk.end());
  }
  peer->chunks.clear();
  peer->chunkCount = 0;
  peer->chunksReceived = 0;
  try {
    const core::HtmSnapshot snapshot = core::decodeHtmSnapshot(blob);
    // Row-wise adoption only: a live sync must not overwrite this agent's
    // configured sync policy or its own accuracy statistics. Count DISTINCT
    // rows, so the metric reflects replication coverage, not run length.
    for (const std::string& name : agent_.adoptHtmRows(snapshot)) {
      peerAdoptedRows_.insert(name);
    }
  } catch (const util::Error& e) {
    LOG_WARN("agent " << config_.agentName << ": dropping corrupt snapshot from "
                      << peer->name << ": " << e.what());
  }
}

void AgentDaemon::handleFrame(const std::shared_ptr<wire::TcpTransport>& transport,
                              const wire::Frame& frame) {
  using wire::MessageType;
  // Any frame from a registered server refreshes its liveness deadline.
  const auto refresh = [&](const std::string& name) {
    auto it = servers_.find(name);
    if (it != servers_.end()) it->second.lastSeen = sim_.now();
  };

  switch (frame.type) {
    case MessageType::kRegister:
      onRegister(transport, wire::decodeRegister(frame.payload));
      return;
    case MessageType::kScheduleRequest:
      onScheduleRequest(transport, wire::decodeScheduleRequest(frame.payload));
      return;
    case MessageType::kHeartbeat: {
      const wire::HeartbeatMsg m = wire::decodeHeartbeat(frame.payload);
      if (m.serverName.empty()) {
        // Client hello: an empty-name heartbeat identifies a connection as a
        // client before its first request, exempting it from the
        // never-identified pending timeout.
        promoteToClient(transport);
        return;
      }
      refresh(m.serverName);
      // Echo the beacon back unchanged: the server measures a genuine round
      // trip from its own two clock readings (no cross-process skew).
      transport->queue(MessageType::kHeartbeat, frame.payload);
      return;
    }
    case MessageType::kLoadReport: {
      const wire::LoadReportMsg m = wire::decodeLoadReport(frame.payload);
      refresh(m.serverName);
      if (servers_.count(m.serverName) != 0) {
        agent_.onLoadReport(m.serverName, m.loadAverage, m.sampleTime);
      }
      return;
    }
    case MessageType::kTaskComplete: {
      const wire::TaskCompleteMsg m = wire::decodeTaskComplete(frame.payload);
      refresh(m.serverName);
      if (relayForwardedTerminal(m.taskId, m.serverName, frame)) return;
      auto it = servers_.find(m.serverName);
      if (it != servers_.end() && agent_.knowsTask(m.taskId)) {
        it->second.draining.erase(m.taskId);
        agent_.onTaskCompleted(m.serverName, m.taskId, m.completionTime,
                               m.unloadedDuration);
      }
      return;
    }
    case MessageType::kTaskFailed: {
      const wire::TaskFailedMsg m = wire::decodeTaskFailed(frame.payload);
      refresh(m.serverName);
      if (relayForwardedTerminal(m.taskId, m.serverName, frame)) return;
      auto it = servers_.find(m.serverName);
      if (it != servers_.end() && agent_.knowsTask(m.taskId)) {
        it->second.draining.erase(m.taskId);
        agent_.onTaskFailed(m.serverName, m.taskId);
      }
      return;
    }
    case MessageType::kServerDown: {
      const wire::ServerDownMsg m = wire::decodeServerDown(frame.payload);
      refresh(m.serverName);
      auto it = servers_.find(m.serverName);
      if (it != servers_.end() && it->second.up) {
        // Remember what the server still owes before the down-notice wipes
        // the scheduling core's in-flight view: a leaving server drains
        // these, a collapsing one reports them as failures - and if its
        // process dies first, failAbandonedTasks recovers the remainder.
        for (std::uint64_t id : agent_.inFlightTasks(m.serverName)) {
          it->second.draining.insert(id);
        }
      }
      markServerDown(m.serverName);
      return;
    }
    case MessageType::kServerUp: {
      const wire::ServerUpMsg m = wire::decodeServerUp(frame.payload);
      refresh(m.serverName);
      auto it = servers_.find(m.serverName);
      if (it != servers_.end() && !it->second.retired) {
        it->second.up = true;
        agent_.onServerUp(m.serverName);
      }
      return;
    }
    case MessageType::kAgentHello:
      onAgentHello(transport, wire::decodeAgentHello(frame.payload));
      return;
    case MessageType::kAgentSync:
      onAgentSync(transport, wire::decodeAgentSync(frame.payload));
      return;
    case MessageType::kStatsRequest: {
      // Operator connection asking for the metrics registry; treat it like a
      // client from now on so the pending timeout leaves it alone.
      promoteToClient(transport);
      const wire::StatsRequestMsg m = wire::decodeStatsRequest(frame.payload);
      wire::StatsReplyMsg reply;
      reply.agentName = config_.agentName;
      reply.sampleTime = sim_.now();
      try {
        const obs::StatsFormat format = obs::parseStatsFormat(m.format);
        reply.format = obs::statsFormatName(format);
        reply.body = obs::renderStats(obs::Registry::global().snapshot(), format);
      } catch (const util::ConfigError& e) {
        // A bad format name fails this request, not the connection.
        reply.format = "error";
        reply.body = e.what();
      }
      transport->send(MessageType::kStatsReply, wire::encode(reply));
      return;
    }
    case MessageType::kForwardRequest: {
      const wire::ForwardRequestMsg m = wire::decodeForwardRequest(frame.payload);
      if (!config_.meshEnabled) {
        denyRequest(transport, m.task.taskId, m.originAgent, "mesh disabled");
        return;
      }
      if (agent_.knowsTask(m.task.taskId) || taskIdInFlight(m.task.taskId)) {
        denyRequest(transport, m.task.taskId, m.originAgent, "task id already used");
        return;
      }
      try {
        const workload::TaskInstance task = taskFromRequest(m.task);
        routeRequest(transport, m.task, task, m.hops, m.originAgent, sim_.now());
      } catch (const util::Error& e) {
        denyRequest(transport, m.task.taskId, m.originAgent, e.what());
      }
      return;
    }
    case MessageType::kForwardDeny: {
      const wire::ForwardDenyMsg m = wire::decodeForwardDeny(frame.payload);
      auto it = forwardedTo_.find(m.taskId);
      if (it == forwardedTo_.end()) return;
      const wire::ScheduleRequestMsg original = it->second.request;
      const std::string originalFrom = it->second.fromAgent;
      forwardedTo_.erase(it);
      LOG_WARN("agent " << config_.agentName << ": task " << m.taskId
                        << " bounced by " << m.agentName << " (" << m.reason
                        << ")");
      // Fall back to local scheduling when anything here can run it (fault
      // tolerance takes over); otherwise pass the refusal on to the client.
      try {
        workload::TaskInstance task = taskFromRequest(original);
        if (agent_.hasFeasibleServer(task.type.name)) {
          scheduleBatch_.push_back(std::move(task));  // taskClients_ still set
          return;
        }
      } catch (const util::Error&) {
        // fall through to the client-facing deny
      }
      auto client = taskClients_.find(m.taskId);
      if (client != taskClients_.end()) {
        denyRequest(client->second.lock(), m.taskId, originalFrom, m.reason);
      }
      return;
    }
    case MessageType::kStealRequest: {
      const wire::StealRequestMsg m = wire::decodeStealRequest(frame.payload);
      if (!config_.meshEnabled || parked_.empty() || m.capacity == 0) return;
      wire::StealGrantMsg grant;
      grant.agentName = config_.agentName;
      const std::size_t count = std::min<std::size_t>(m.capacity, parked_.size());
      for (std::size_t i = 0; i < count; ++i) {
        wire::ScheduleRequestMsg task = std::move(parked_.front());
        parked_.pop_front();
        // The thief's terminal comes back over this peer link; the map entry
        // relays it to the original client, exactly like a forward.
        forwardedTo_[task.taskId] = {m.agentName, task, std::string()};
        grant.tasks.push_back(std::move(task));
      }
      transport->send(MessageType::kStealGrant, wire::encode(grant));
      return;
    }
    case MessageType::kStealGrant: {
      const wire::StealGrantMsg m = wire::decodeStealGrant(frame.payload);
      if (!config_.meshEnabled) return;
      for (const wire::ScheduleRequestMsg& req : m.tasks) {
        if (agent_.knowsTask(req.taskId) || taskIdInFlight(req.taskId)) {
          LOG_WARN("agent " << config_.agentName << ": dropping stolen task "
                            << req.taskId << " (id already used)");
          continue;
        }
        try {
          workload::TaskInstance task = taskFromRequest(req);
          ++meshSteals_;
          taskClients_[req.taskId] = transport;
          taskOrigins_[req.taskId] = "steal:" + m.agentName;
          scheduleBatch_.push_back(std::move(task));
        } catch (const util::Error& e) {
          // Answer over the peer link; the victim's forwardedTo_ entry relays
          // the failure to the original client.
          wire::TaskFailedMsg failed;
          failed.taskId = req.taskId;
          failed.reason = e.what();
          transport->send(MessageType::kTaskFailed, wire::encode(failed));
        }
      }
      return;
    }
    case MessageType::kResolverProbe: {
      // A probing connection is a client from now on.
      promoteToClient(transport);
      const wire::ResolverProbeMsg m = wire::decodeResolverProbe(frame.payload);
      wire::ResolverInfoMsg info;
      info.agentName = config_.agentName;
      info.probeId = m.probeId;
      info.echoSendTime = m.sendTime;
      info.sampleTime = sim_.now();
      info.meanLoad = agent_.meanLoadEstimate();
      info.liveServers = static_cast<std::uint32_t>(agent_.liveServerCount());
      info.queuedTasks = static_cast<std::uint32_t>(parked_.size());
      for (const PeerEntry& peer : peers_) {
        if (!peer.transport || peer.transport->closed()) continue;
        if (!peer.listenAddress.empty()) info.peerAddresses.push_back(peer.listenAddress);
      }
      transport->send(MessageType::kResolverInfo, wire::encode(info));
      return;
    }
    case MessageType::kStatsReply:
      return;  // agents only produce these; ignore a stray one
    case MessageType::kShutdown:
      shutdownRequested_ = true;
      return;
    default:
      LOG_WARN("agent: ignoring unexpected " << wire::messageTypeName(frame.type)
                                             << " frame");
      return;
  }
}

void AgentDaemon::onRegister(const std::shared_ptr<wire::TcpTransport>& transport,
                             const wire::RegisterMsg& msg) {
  // The connection is now known to be a server: remove it from pending_.
  pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                [&](const auto& p) { return p.first == transport; }),
                 pending_.end());

  core::ServerModel model;
  model.name = msg.serverName;
  model.bwInMBps = msg.bwInMBps;
  model.bwOutMBps = msg.bwOutMBps;
  model.latencyIn = msg.latencyIn;
  model.latencyOut = msg.latencyOut;

  auto it = servers_.find(msg.serverName);
  if (it != servers_.end() && !it->second.retired && it->second.transport &&
      !it->second.transport->closed() && it->second.transport != transport) {
    // The name is taken by a live connection: reject the impostor instead of
    // silently stealing the entry.
    LOG_WARN("agent: rejecting registration of '" << msg.serverName
                                                  << "' (name in use)");
    wire::RegisterAckMsg reject;
    reject.serverName = msg.serverName;
    reject.accepted = false;
    reject.agentTime = sim_.now();
    transport->send(wire::MessageType::kRegisterAck, wire::encode(reject));
    return;
  }

  if (it == servers_.end()) {
    ServerEntry entry;
    entry.link = std::make_unique<WireLink>(this, msg.serverName);
    entry.transport = transport;
    agent_.registerServer(entry.link.get(), model, msg.problems, msg.ramMB,
                          msg.ramMB + msg.swapMB);
    agent_.setServerSpeedIndex(msg.serverName, msg.speedIndex);
    it = servers_.emplace(msg.serverName, std::move(entry)).first;
    LOG_INFO("agent: registered server " << msg.serverName);
  } else if (it->second.retired) {
    // Reconnect after the deadline already retired the row: revive it.
    it->second.transport = transport;
    it->second.retired = false;
    agent_.registerServer(it->second.link.get(), model, msg.problems, msg.ramMB,
                          msg.ramMB + msg.swapMB);
    agent_.setServerSpeedIndex(msg.serverName, msg.speedIndex);
    LOG_INFO("agent: revived retired server " << msg.serverName);
  } else {
    // Reconnect of a live registration (brief disconnect). If the previous
    // link is gone, whatever was in flight on the old incarnation died with
    // it - reconcile before rebinding, or those ids would linger unfailed
    // and unresubmitted forever. The HTM row and the original link/memory
    // model survive; the speed index is refreshed since a restarted server
    // may advertise a new one.
    if (it->second.transport == nullptr || it->second.transport->closed()) {
      failAbandonedTasks(msg.serverName);
    }
    it->second.transport = transport;
    agent_.setServerSpeedIndex(msg.serverName, msg.speedIndex);
    agent_.onServerUp(msg.serverName);
    LOG_INFO("agent: server " << msg.serverName << " reconnected");
  }
  it->second.up = true;
  it->second.lastSeen = sim_.now();

  wire::RegisterAckMsg ack;
  ack.serverName = msg.serverName;
  ack.accepted = true;
  ack.agentTime = sim_.now();
  it->second.transport->send(wire::MessageType::kRegisterAck, wire::encode(ack));
}

void AgentDaemon::promoteToClient(const std::shared_ptr<wire::TcpTransport>& transport) {
  auto inPending = std::find_if(pending_.begin(), pending_.end(),
                                [&](const auto& p) { return p.first == transport; });
  if (inPending != pending_.end()) {
    pending_.erase(inPending);
    clients_.push_back(transport);
  }
}

workload::TaskInstance AgentDaemon::taskFromRequest(
    const wire::ScheduleRequestMsg& msg) const {
  workload::TaskInstance task;
  task.index = msg.taskId;
  task.arrival = sim_.now();
  task.type = workload::makeSyntheticType(msg.problem, msg.inMB, msg.refSeconds,
                                          msg.outMB, msg.memMB);
  return task;
}

void AgentDaemon::onScheduleRequest(const std::shared_ptr<wire::TcpTransport>& transport,
                                    const wire::ScheduleRequestMsg& msg) {
  // The connection is now known to be a client.
  promoteToClient(transport);

  // Task ids are client-chosen; reusing one (another client, or a replayed
  // metatask against a long-lived agent) would corrupt or shadow the first
  // task's state, so reject instead. The guard must also cover ids queued in
  // this cycle's batch, which the scheduling core has not seen yet.
  if (agent_.knowsTask(msg.taskId) || taskIdInFlight(msg.taskId)) {
    auto known = taskClients_.find(msg.taskId);
    if (known != taskClients_.end() && known->second.lock() == transport) {
      return;  // duplicate send from the same client, ignore
    }
    LOG_WARN("agent: rejecting task " << msg.taskId << " (id already used)");
    wire::TaskFailedMsg failed;
    failed.taskId = msg.taskId;
    failed.reason = "task id already used";
    transport->send(wire::MessageType::kTaskFailed, wire::encode(failed));
    return;
  }

  if (!config_.meshEnabled && liveServerCount() == 0) {
    // No server has ever registered (or all retired) and there is no mesh to
    // forward into: answer with an explicit deny so the client can fail over
    // or fail fast, instead of parking the request in the fault-tolerance
    // retry loop until the client times out (protocol v4).
    LOG_WARN("agent " << config_.agentName << ": denying task " << msg.taskId
                      << " (no servers registered)");
    denyRequest(transport, msg.taskId, "", "no servers registered");
    return;
  }

  try {
    workload::TaskInstance task = taskFromRequest(msg);
    if (config_.meshEnabled) {
      routeRequest(transport, msg, task, 0, "", sim_.now());
      return;
    }
    taskClients_[msg.taskId] = transport;
    scheduleBatch_.push_back(std::move(task));
  } catch (const util::Error& e) {
    // One malformed request fails that task; the connection (and every
    // other task of this client) stays up.
    LOG_WARN("agent: schedule request " << msg.taskId << " rejected: " << e.what());
    taskClients_.erase(msg.taskId);
    wire::TaskFailedMsg failed;
    failed.taskId = msg.taskId;
    failed.reason = e.what();
    transport->send(wire::MessageType::kTaskFailed, wire::encode(failed));
  }
}

void AgentDaemon::routeRequest(const std::shared_ptr<wire::TcpTransport>& requester,
                               const wire::ScheduleRequestMsg& msg,
                               const workload::TaskInstance& task, std::uint32_t hops,
                               const std::string& fromAgent, double firstSeen) {
  mesh::LocalView view;
  view.feasible = agent_.hasFeasibleServer(task.type.name);
  view.now = sim_.now();
  view.meanLoad = agent_.meanLoadEstimate();
  view.hops = hops;
  if (view.feasible && config_.meshRouter.overloadThreshold > 0.0) {
    view.predictedCompletion = agent_.previewBestCompletion(task);
  }

  // Candidate peers: connected, identified, digest received, and never the
  // agent that just handed us this request (no ping-pong).
  std::vector<mesh::PeerDigest> digests;
  std::vector<const PeerEntry*> digestPeers;
  for (const PeerEntry& peer : peers_) {
    if (!peer.transport || peer.transport->closed() || peer.name.empty()) continue;
    if (peer.name == fromAgent || !peer.digestSeen) continue;
    digests.push_back({digestPeers.size(), peer.meanLoad, peer.liveServers,
                       peer.queuedTasks});
    digestPeers.push_back(&peer);
  }

  const mesh::RouteDecision decision =
      mesh::decideRoute(config_.meshRouter, view, digests);
  switch (decision.kind) {
    case mesh::RouteKind::kLocal:
      taskClients_[msg.taskId] = requester;
      if (!fromAgent.empty()) taskOrigins_[msg.taskId] = "forward:" + fromAgent;
      scheduleBatch_.push_back(task);
      return;
    case mesh::RouteKind::kForward: {
      const PeerEntry* peer = digestPeers[decision.peer];
      ++meshForwards_;
      forwardedTo_[msg.taskId] = {peer->name, msg, fromAgent};
      taskClients_[msg.taskId] = requester;
      wire::ForwardRequestMsg forward;
      forward.task = msg;
      forward.originAgent = config_.agentName;
      forward.hops = hops + 1;
      peer->transport->send(wire::MessageType::kForwardRequest, wire::encode(forward));
      return;
    }
    case mesh::RouteKind::kPark:
      ++meshParkedTotal_;
      taskClients_[msg.taskId] = requester;
      parked_.push_back(msg);
      return;
    case mesh::RouteKind::kDeny:
      // Startup race: the router may see no usable peer only because the
      // first sync round has not landed yet. Retry every poll cycle within
      // the grace window before giving up for real.
      if (hops < config_.meshRouter.hopLimit &&
          sim_.now() - firstSeen < config_.heartbeatTimeout) {
        // Registering the requester here makes a duplicate resend of a
        // deferred id recognizable as same-client (ignored, not failed).
        taskClients_[msg.taskId] = requester;
        deferred_.push_back({requester, msg, hops, fromAgent, firstSeen});
        return;
      }
      denyRequest(requester, msg.taskId, fromAgent, decision.reason);
      return;
  }
}

void AgentDaemon::denyRequest(const std::shared_ptr<wire::TcpTransport>& requester,
                              std::uint64_t taskId, const std::string& fromAgent,
                              const std::string& reason) {
  ++meshDenies_;
  taskClients_.erase(taskId);
  if (!requester || requester->closed()) return;
  if (fromAgent.empty()) {
    wire::ScheduleDenyMsg deny;
    deny.taskId = taskId;
    deny.agentName = config_.agentName;
    deny.reason = reason;
    requester->send(wire::MessageType::kScheduleDeny, wire::encode(deny));
  } else {
    wire::ForwardDenyMsg deny;
    deny.taskId = taskId;
    deny.agentName = config_.agentName;
    deny.reason = reason;
    requester->send(wire::MessageType::kForwardDeny, wire::encode(deny));
  }
}

bool AgentDaemon::taskIdInFlight(std::uint64_t taskId) const {
  if (forwardedTo_.find(taskId) != forwardedTo_.end()) return true;
  if (std::any_of(scheduleBatch_.begin(), scheduleBatch_.end(),
                  [&](const workload::TaskInstance& t) { return t.index == taskId; })) {
    return true;
  }
  if (std::any_of(parked_.begin(), parked_.end(),
                  [&](const wire::ScheduleRequestMsg& p) { return p.taskId == taskId; })) {
    return true;
  }
  return std::any_of(deferred_.begin(), deferred_.end(), [&](const DeferredRoute& d) {
    return d.msg.taskId == taskId;
  });
}

void AgentDaemon::retryDeferredRoutes() {
  if (deferred_.empty()) return;
  std::vector<DeferredRoute> retry;
  retry.swap(deferred_);  // routeRequest may re-defer into deferred_
  for (DeferredRoute& route : retry) {
    auto requester = route.requester.lock();
    if (!requester || requester->closed()) {
      taskClients_.erase(route.msg.taskId);  // nobody left to answer
      continue;
    }
    try {
      const workload::TaskInstance task = taskFromRequest(route.msg);
      routeRequest(requester, route.msg, task, route.hops, route.fromAgent,
                   route.firstSeen);
    } catch (const util::Error& e) {
      denyRequest(requester, route.msg.taskId, route.fromAgent, e.what());
    }
  }
}

void AgentDaemon::reclaimForwarded(const std::string& peerName) {
  if (peerName.empty() || forwardedTo_.empty()) return;
  // Collect first: routeRequest may insert fresh forwardedTo_ entries.
  std::vector<ForwardedTask> orphans;
  for (auto it = forwardedTo_.begin(); it != forwardedTo_.end();) {
    if (it->second.peer == peerName) {
      orphans.push_back(std::move(it->second));
      it = forwardedTo_.erase(it);
    } else {
      ++it;
    }
  }
  for (ForwardedTask& orphan : orphans) {
    const wire::ScheduleRequestMsg& msg = orphan.request;
    LOG_WARN("agent " << config_.agentName << ": peer " << peerName
                      << " died holding task " << msg.taskId << ", re-routing");
    std::shared_ptr<wire::TcpTransport> requester;
    auto client = taskClients_.find(msg.taskId);
    if (client != taskClients_.end()) requester = client->second.lock();
    try {
      const workload::TaskInstance task = taskFromRequest(msg);
      routeRequest(requester, msg, task, 0, orphan.fromAgent, sim_.now());
    } catch (const util::Error& e) {
      denyRequest(requester, msg.taskId, orphan.fromAgent, e.what());
    }
  }
}

void AgentDaemon::maybeSteal() {
  if (!config_.meshEnabled || config_.meshStealPeriod <= 0.0) return;
  if (sim_.now() < nextStealAt_) return;
  nextStealAt_ = sim_.now() + config_.meshStealPeriod;
  // Only a genuinely idle agent steals: live servers to run the work, and
  // nothing parked of its own.
  if (!parked_.empty() || agent_.liveServerCount() == 0) return;
  PeerEntry* victim = nullptr;
  for (PeerEntry& peer : peers_) {
    if (!peer.transport || peer.transport->closed() || !peer.digestSeen) continue;
    if (peer.queuedTasks == 0) continue;
    if (victim == nullptr || peer.queuedTasks > victim->queuedTasks) victim = &peer;
  }
  if (victim == nullptr) return;
  wire::StealRequestMsg request;
  request.agentName = config_.agentName;
  request.capacity = static_cast<std::uint32_t>(config_.meshStealBatch);
  victim->transport->send(wire::MessageType::kStealRequest, wire::encode(request));
}

bool AgentDaemon::relayForwardedTerminal(std::uint64_t taskId,
                                         const std::string& serverName,
                                         const wire::Frame& frame) {
  if (!config_.meshEnabled) return false;
  if (servers_.find(serverName) != servers_.end()) return false;
  const auto fwd = forwardedTo_.find(taskId);
  if (fwd == forwardedTo_.end()) return false;
  forwardedTo_.erase(fwd);
  auto it = taskClients_.find(taskId);
  if (it == taskClients_.end()) return true;
  auto client = it->second.lock();
  taskClients_.erase(it);
  // Relay the peer's terminal verbatim: the payload already carries the
  // executing server's name and timings.
  if (client && !client->closed()) client->queue(frame.type, frame.payload);
  return true;
}

void AgentDaemon::flushScheduleBatch() {
  if (scheduleBatch_.empty()) return;
  agent_.scheduleBatch(scheduleBatch_);
  scheduleBatch_.clear();
}

void AgentDaemon::markServerDown(const std::string& name) {
  auto it = servers_.find(name);
  if (it == servers_.end() || !it->second.up) return;
  it->second.up = false;
  agent_.onServerDown(name);
}

void AgentDaemon::failAbandonedTasks(const std::string& name) {
  // Everything the dead server still owed: tasks in flight per the
  // scheduling core (no down-notice ever arrived) plus the unfinished
  // remainder of an announced drain (the notice already cleared the core's
  // view). A healthy leave drains both to empty before closing.
  std::set<std::uint64_t> abandoned;
  for (std::uint64_t taskId : agent_.inFlightTasks(name)) abandoned.insert(taskId);
  auto it = servers_.find(name);
  if (it != servers_.end()) {
    abandoned.insert(it->second.draining.begin(), it->second.draining.end());
    it->second.draining.clear();
  }
  markServerDown(name);
  for (std::uint64_t taskId : abandoned) {
    LOG_WARN("agent: task " << taskId << " abandoned by dead server " << name);
    agent_.onTaskFailed(name, taskId);
  }
}

void AgentDaemon::sendSubmit(const std::string& server, std::uint64_t taskId,
                             const psched::ExecRequest& request) {
  auto it = servers_.find(server);
  if (it == servers_.end() || !it->second.transport || it->second.transport->closed()) {
    // The link died between the decision and the submission; surface it as a
    // task failure so fault tolerance can re-submit elsewhere.
    LOG_WARN("agent: no link to " << server << " for task " << taskId);
    agent_.onTaskFailed(server, taskId);
    return;
  }
  wire::TaskSubmitMsg submit;
  submit.taskId = taskId;
  submit.inMB = request.inMB;
  submit.cpuSeconds = request.cpuSeconds;
  submit.outMB = request.outMB;
  submit.memMB = request.memMB;
  it->second.transport->queue(wire::MessageType::kTaskSubmit, wire::encode(submit));
}

void AgentDaemon::relayTerminal(const metrics::TaskOutcome& outcome) {
  taskOrigins_.erase(outcome.index);
  auto it = taskClients_.find(outcome.index);
  if (it == taskClients_.end()) return;
  auto transport = it->second.lock();
  // Terminal fires exactly once per task; drop the mapping so a long-lived
  // agent does not accumulate one entry per task ever submitted.
  taskClients_.erase(it);
  if (!transport || transport->closed()) return;
  if (outcome.status == metrics::TaskStatus::kCompleted) {
    wire::TaskCompleteMsg done;
    done.taskId = outcome.index;
    done.serverName = outcome.server;
    done.completionTime = outcome.completion;
    done.unloadedDuration = outcome.unloadedDuration;
    transport->queue(wire::MessageType::kTaskComplete, wire::encode(done));
  } else {
    wire::TaskFailedMsg failed;
    failed.taskId = outcome.index;
    failed.serverName = outcome.server;
    failed.reason = "lost";
    transport->queue(wire::MessageType::kTaskFailed, wire::encode(failed));
  }
}

std::size_t AgentDaemon::liveServerCount() const {
  std::size_t n = 0;
  for (const auto& [name, entry] : servers_) {
    if (!entry.retired) ++n;
  }
  return n;
}

std::size_t AgentDaemon::retiredServerCount() const {
  return servers_.size() - liveServerCount();
}

bool AgentDaemon::serverRetired(const std::string& name) const {
  auto it = servers_.find(name);
  return it != servers_.end() && it->second.retired;
}

bool AgentDaemon::serverKnown(const std::string& name) const {
  return servers_.count(name) != 0;
}

}  // namespace casched::net
