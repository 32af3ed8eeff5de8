#include "net/server_daemon.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

#undef CASCHED_LOG_COMPONENT
#define CASCHED_LOG_COMPONENT "net.server"

namespace casched::net {

namespace {
obs::Counter& reconnectsCounter() {
  static obs::Counter* c = &obs::Registry::global().counter(
      "casched_net_server_reconnects_total",
      "Successful server re-dials after a dropped agent link");
  return *c;
}

obs::Histogram& heartbeatRttHistogram() {
  static obs::Histogram* h = &obs::Registry::global().histogram(
      "casched_net_heartbeat_rtt_seconds",
      {0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0},
      "Heartbeat round-trip (send to agent echo), simulated seconds");
  return *h;
}
}  // namespace

NetServerDaemon::NetServerDaemon(NetServerConfig config, PacedClock clock)
    : config_(std::move(config)), clock_(clock), machine_(sim_, config_.machine) {
  CASCHED_CHECK(config_.reportPeriod > 0.0, "report period must be positive");
  CASCHED_CHECK(config_.heartbeatPeriod > 0.0, "heartbeat period must be positive");
  machine_.setCollapseObserver([this](const std::vector<psched::ExecRecord>& victims) {
    wire::ServerDownMsg down;
    down.serverName = name();
    send(wire::MessageType::kServerDown, wire::encode(down));
    for (const psched::ExecRecord& rec : victims) {
      sendTaskFailed(rec.request.taskId, "server collapsed");
    }
  });
  machine_.setRecoverObserver([this] {
    wire::ServerUpMsg up;
    up.serverName = name();
    send(wire::MessageType::kServerUp, wire::encode(up));
  });
}

NetServerDaemon::~NetServerDaemon() = default;

void NetServerDaemon::connect() {
  dial();
  if (!timersStarted_) {
    timersStarted_ = true;
    scheduleReportTimer();
    scheduleHeartbeatTimer();
  }
}

void NetServerDaemon::dial() {
  const std::uint16_t port =
      config_.agentPorts.empty()
          ? config_.agentPort
          : config_.agentPorts[dialIndex_ % config_.agentPorts.size()];
  transport_ = wire::TcpTransport::connect(config_.agentHost, port);
  registered_ = false;
  sendRegistration();
}

void NetServerDaemon::maybeReconnect() {
  if (leaving_ || left_ || shutdownRequested_) return;
  if (transport_ != nullptr && !transport_->closed()) return;
  if (sim_.now() < nextReconnectAt_) return;
  nextReconnectAt_ = sim_.now() + config_.reconnectPeriod;
  try {
    dial();
    reconnectsCounter().inc();
    LOG_INFO("server " << name() << ": re-dialed the agent");
  } catch (const util::IoError&) {
    transport_.reset();  // this agent unreachable; try the next in the cycle
    ++dialIndex_;
  }
}

void NetServerDaemon::sendRegistration() {
  const psched::MachineSpec& spec = config_.machine;
  wire::RegisterMsg reg;
  reg.serverName = spec.name;
  reg.bwInMBps = spec.bwInMBps;
  reg.bwOutMBps = spec.bwOutMBps;
  reg.latencyIn = spec.latencyIn;
  reg.latencyOut = spec.latencyOut;
  reg.ramMB = spec.ramMB;
  reg.swapMB = spec.swapMB;
  reg.speedIndex = config_.speedIndex;
  reg.problems = config_.problems;
  send(wire::MessageType::kRegister, wire::encode(reg));
}

void NetServerDaemon::runOnce() {
  if (left_) return;
  sim_.advanceTo(clock_.simNow());
  maybeReconnect();
  if (transport_ && !transport_->closed()) {
    try {
      transport_->poll([&](wire::Frame frame) { handleFrame(frame); });
    } catch (const util::Error& e) {
      LOG_WARN("server " << name() << ": closing link on bad frame: " << e.what());
      transport_->close();
    }
  }
  if (leaving_) {
    if (machine_.activeTasks() != 0) {
      leaveIdleSince_ = -1.0;
    } else if (leaveIdleSince_ < 0.0) {
      leaveIdleSince_ = sim_.now();
    } else if (sim_.now() - leaveIdleSince_ >= config_.leaveLingerSeconds) {
      if (transport_) {
        transport_->flushQueued();
        transport_->close();
      }
      left_ = true;
    }
  }
  // Everything queued this cycle (timer-driven reports/heartbeats, terminal
  // notices from advanceTo, replies from handleFrame) leaves as one batch, so
  // consecutive same-type messages share a coalesced frame.
  if (transport_ != nullptr && !transport_->closed()) transport_->flushQueued();
}

void NetServerDaemon::run(const std::atomic<bool>& stop) {
  // A closed link does not end the loop: maybeReconnect() re-dials until the
  // agent is back (or until the operator stops the daemon).
  LoopWait wait("server");
  while (!stop.load(std::memory_order_relaxed) && !shutdownRequested_ && !left_) {
    runOnce();
    wait.reset();
    if (connected()) wait.watch(transport_->fd());
    wait.wakeBy(clock_.wallAt(nextDeadline()));
    wait.wait();
  }
}

double NetServerDaemon::nextDeadline() const {
  // Machine completions, load reports and heartbeats are simulator events.
  double at = sim_.nextEventTime();
  if (!leaving_ && !left_ && !shutdownRequested_ && !connected()) {
    at = std::min(at, nextReconnectAt_);
  }
  if (leaving_ && leaveIdleSince_ >= 0.0) {
    at = std::min(at, leaveIdleSince_ + config_.leaveLingerSeconds);
  }
  return at;
}

void NetServerDaemon::handleFrame(const wire::Frame& frame) {
  using wire::MessageType;
  switch (frame.type) {
    case MessageType::kRegisterAck: {
      const wire::RegisterAckMsg ack = wire::decodeRegisterAck(frame.payload);
      registered_ = ack.accepted;
      if (!ack.accepted) {
        // Likely a half-open predecessor still holds the name; drop the link
        // and keep re-dialing - once the agent's deadline retires the old
        // row, the re-registration revives it.
        LOG_WARN("server " << name() << ": registration rejected by the agent");
        transport_->close();
        return;
      }
      // Align this process's paced clock with the agent's, so completion
      // dates and sample times are comparable even when the daemons were
      // started at different wall times. Only ever jump forward: the event
      // engine cannot rewind, and a backward shift (agent restarted with a
      // fresh clock) would freeze every timer until wall time caught up.
      if (ack.agentTime > sim_.now()) clock_.resyncTo(ack.agentTime);
      return;
    }
    case MessageType::kTaskSubmit:
      onTaskSubmit(wire::decodeTaskSubmit(frame.payload));
      return;
    case MessageType::kShutdown:
      shutdownRequested_ = true;
      return;
    case MessageType::kHeartbeat: {
      // The agent echoes our heartbeats back; the delta from the embedded
      // sampleTime is a genuine round trip on this link (both stamps come
      // from our own clock, so agent/server skew cancels out).
      const wire::HeartbeatMsg m = wire::decodeHeartbeat(frame.payload);
      if (m.serverName == name()) {
        heartbeatRttHistogram().observe(std::max(0.0, sim_.now() - m.sampleTime));
      }
      return;
    }
    default:
      LOG_WARN("server " << name() << ": ignoring unexpected "
                         << wire::messageTypeName(frame.type) << " frame");
      return;
  }
}

void NetServerDaemon::onTaskSubmit(const wire::TaskSubmitMsg& msg) {
  if (!machine_.up()) {
    sendTaskFailed(msg.taskId, "server down");
    return;
  }
  psched::ExecRequest request;
  request.taskId = msg.taskId;
  request.inMB = msg.inMB;
  request.cpuSeconds = msg.cpuSeconds;
  request.outMB = msg.outMB;
  request.memMB = msg.memMB;
  obs::TraceBuffer& trace = obs::TraceBuffer::global();
  const bool accepted = machine_.submit(request, [this](const psched::ExecRecord& rec) {
    if (rec.status != psched::ExecStatus::kCompleted) return;  // collapse observer reports
    wire::TaskCompleteMsg done;
    done.taskId = rec.request.taskId;
    done.serverName = name();
    done.completionTime = rec.endTime;
    done.unloadedDuration = machine_.unloadedDuration(rec.request);
    send(wire::MessageType::kTaskComplete, wire::encode(done));
  });
  if (!accepted) {
    // Machine went down or this admission collapsed it; the submitting task
    // is lost (collapse victims are reported by the collapse observer).
    sendTaskFailed(msg.taskId, "submission rejected");
    return;
  }
  if (trace.enabled()) {
    // Mirrors the sim-side hook in cas::ServerDaemon::submitTask, so live and
    // simulated runs produce the same per-task span chain.
    trace.push({msg.taskId, obs::TaskPhase::kStart, sim_.now(), 0.0, 0, name(), ""});
  }
}

void NetServerDaemon::sendLoadReport() {
  reportTimer_ = {};
  if (machine_.up()) {
    wire::LoadReportMsg report;
    report.serverName = name();
    report.loadAverage = machine_.loadAverage();
    report.sampleTime = sim_.now();
    report.residentMB = machine_.residentMB();
    send(wire::MessageType::kLoadReport, wire::encode(report));
  }
  scheduleReportTimer();
}

void NetServerDaemon::sendHeartbeat() {
  heartbeatTimer_ = {};
  wire::HeartbeatMsg beat;
  beat.serverName = name();
  beat.sampleTime = sim_.now();
  send(wire::MessageType::kHeartbeat, wire::encode(beat));
  scheduleHeartbeatTimer();
}

void NetServerDaemon::scheduleReportTimer() {
  if (leaving_) return;
  reportTimer_ = sim_.scheduleAfter(config_.reportPeriod, [this] { sendLoadReport(); });
}

void NetServerDaemon::scheduleHeartbeatTimer() {
  if (left_) return;
  heartbeatTimer_ =
      sim_.scheduleAfter(config_.heartbeatPeriod, [this] { sendHeartbeat(); });
}

void NetServerDaemon::sendTaskFailed(std::uint64_t taskId, const std::string& reason) {
  wire::TaskFailedMsg failed;
  failed.taskId = taskId;
  failed.serverName = name();
  failed.reason = reason;
  send(wire::MessageType::kTaskFailed, wire::encode(failed));
}

void NetServerDaemon::send(wire::MessageType type, const wire::Bytes& payload) {
  if (transport_ == nullptr || transport_->closed()) return;
  // Deferred to the end of the current runOnce cycle; flushQueued() there
  // coalesces consecutive same-type runs into one frame.
  transport_->queue(type, payload);
}

void NetServerDaemon::leave() {
  if (leaving_ || left_) return;
  leaving_ = true;
  wire::ServerDownMsg down;
  down.serverName = name();
  send(wire::MessageType::kServerDown, wire::encode(down));
  // Load reports stop (the server takes no new work), but heartbeats keep
  // flowing until the drain finishes and the link closes - a long drain must
  // not trip the agent's missed-report deadline while completions are still
  // coming. Once closed, the silence retires the row, the live equivalent of
  // the simulator's deregisterServer.
  if (reportTimer_.valid()) {
    sim_.cancel(reportTimer_);
    reportTimer_ = {};
  }
}

bool NetServerDaemon::crash(double downtime) {
  return machine_.forceCollapse(downtime);
}

}  // namespace casched::net
