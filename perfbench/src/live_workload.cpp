// Live workload: a real agent daemon on its run() loop, real server daemons
// pumped on a second thread, and an open-loop Poisson client on the calling
// thread, all over TCP on 127.0.0.1.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "net/agent_daemon.hpp"
#include "net/server_daemon.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simcore/rng.hpp"
#include "util/error.hpp"
#include "wire/messages.hpp"
#include "wire/tcp_transport.hpp"

namespace perfbench {

using namespace casched;

namespace {

// The workload: 4 servers, short msf tasks at a fixed offered rate the agent
// keeps up with while draining about two requests per loop turn.
constexpr double kRate = 4000.0;            ///< offered requests per wall second
constexpr std::size_t kServers = 4;
constexpr double kTaskSeconds = 0.00025;    ///< reference compute of one request
constexpr double kControlLatency = 0.0001;  ///< agent's one-way latency model
constexpr std::size_t kConnections = 2;
constexpr double kDrainSeconds = 5.0;  ///< wait for terminals after the last send
constexpr auto kLoopSleep = std::chrono::microseconds(500);  ///< NetServerDaemon::run's
constexpr auto kClientSleep = std::chrono::microseconds(50);
constexpr const char* kProblem = "live-short";
/// Set-up samples (each timeSetup's mean over back-to-back deployments):
/// half before the measured windows, half after, so the samples see the
/// host at both ends of the run.
constexpr std::size_t kSetupRepeats = 20;

/// One deployment: agent + servers + client connections. Set-up (construction)
/// ends once every server is registered and every client link is accepted.
class Deployment {
 public:
  Deployment() {
    net::AgentDaemonConfig agentConfig;
    agentConfig.heuristic = "msf";
    agentConfig.controlLatency = kControlLatency;
    agentConfig.heartbeatTimeout = 3600.0;
    agentConfig.syncPeriod = 0.0;
    agent_ = std::make_unique<net::AgentDaemon>(agentConfig, clock_);
    for (std::size_t i = 0; i < kServers; ++i) {
      net::NetServerConfig config;
      config.agentPort = agent_->port();
      config.machine.name = "live-" + std::to_string(i + 1);
      config.machine.bwInMBps = 1000.0;
      config.machine.bwOutMBps = 1000.0;
      config.machine.latencyIn = 0.0;
      config.machine.latencyOut = 0.0;
      config.reportPeriod = 1.0;
      config.heartbeatPeriod = 1.0;
      servers_.push_back(std::make_unique<net::NetServerDaemon>(config, clock_));
      servers_.back()->connect();
    }
    const auto registered = [&] {
      if (agent_->liveServerCount() != servers_.size()) return false;
      for (const auto& s : servers_) {
        if (!s->registered()) return false;
      }
      return true;
    };
    const auto pumpUntil = [&](const auto& done) {
      const net::WallDeadline deadline(10.0);
      while (!done()) {
        CASCHED_CHECK(!deadline.passed(), "live deployment did not come up within 10 s");
        agent_->runOnce();
        for (auto& s : servers_) s->runOnce();
        std::this_thread::sleep_for(kClientSleep);
      }
    };
    pumpUntil(registered);
    for (std::size_t i = 0; i < kConnections; ++i) {
      clients_.push_back(wire::TcpTransport::connect("127.0.0.1", agent_->port()));
    }
    agent_->runOnce();  // accepts the client links
  }

  ~Deployment() { stop(); }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  void start() {
    agentThread_ = std::thread([this] {
      const double cpu0 = threadCpuSeconds();
      const auto wall0 = Clock::now();
      agent_->run(stop_);
      agentCpu_ = threadCpuSeconds() - cpu0;
      agentWall_ = secondsSince(wall0);
    });
    serverThread_ = std::thread([this] {
      const double cpu0 = threadCpuSeconds();
      const auto wall0 = Clock::now();
      while (!stop_.load(std::memory_order_relaxed)) {
        for (auto& s : servers_) s->runOnce();
        std::this_thread::sleep_for(kLoopSleep);
      }
      serverCpu_ = threadCpuSeconds() - cpu0;
      serverWall_ = secondsSince(wall0);
    });
  }

  /// Stops and joins both daemon threads; afterwards the daemons may be read.
  void stop() {
    stop_.store(true);
    if (agentThread_.joinable()) agentThread_.join();
    if (serverThread_.joinable()) serverThread_.join();
  }

  const net::PacedClock& clock() const { return clock_; }
  net::AgentDaemon& agent() { return *agent_; }
  std::vector<std::shared_ptr<wire::TcpTransport>>& clients() { return clients_; }
  double agentCpuUtil() const { return agentWall_ > 0.0 ? agentCpu_ / agentWall_ : 0.0; }
  double serverCpuUtil() const { return serverWall_ > 0.0 ? serverCpu_ / serverWall_ : 0.0; }

 private:
  net::PacedClock clock_{1.0};
  std::unique_ptr<net::AgentDaemon> agent_;
  std::vector<std::unique_ptr<net::NetServerDaemon>> servers_;
  std::vector<std::shared_ptr<wire::TcpTransport>> clients_;
  std::atomic<bool> stop_{false};
  double agentCpu_ = 0.0;
  double agentWall_ = 0.0;
  double serverCpu_ = 0.0;
  double serverWall_ = 0.0;
  std::thread agentThread_;  // declared after everything the threads use
  std::thread serverThread_;
};

/// One open-loop window: request i (id firstId + i) is due at `due[i]`
/// seconds on the deployment clock, whether or not earlier ones finished.
struct Window {
  std::uint64_t firstId = 1;
  std::vector<double> due;
  std::vector<double> sent;
  std::vector<double> done;        ///< NaN until a terminal arrives
  std::vector<char> completed;     ///< the first terminal was kTaskComplete
  std::vector<std::uint32_t> terminals;
  std::uint64_t failed = 0;
  std::uint64_t unknownIds = 0;

  std::size_t size() const { return due.size(); }
};

Window makeWindow(std::uint64_t seed, double rate, double seconds, double start,
                  std::uint64_t firstId) {
  simcore::RandomStream rng(seed);
  Window w;
  w.firstId = firstId;
  for (double t = rng.exponentialMean(1.0 / rate); t < seconds;
       t += rng.exponentialMean(1.0 / rate)) {
    w.due.push_back(start + t);
  }
  w.sent.assign(w.size(), NAN);
  w.done.assign(w.size(), NAN);
  w.completed.assign(w.size(), 0);
  w.terminals.assign(w.size(), 0);
  return w;
}

void runWindow(Deployment& d, Window& w) {
  const net::PacedClock& clock = d.clock();
  auto& clients = d.clients();
  std::size_t next = 0;
  std::size_t finished = 0;
  const auto onFrame = [&](wire::Frame frame) {
    std::uint64_t id = 0;
    bool ok = true;
    if (frame.type == wire::MessageType::kTaskComplete) {
      id = wire::decodeTaskComplete(frame.payload).taskId;
    } else if (frame.type == wire::MessageType::kTaskFailed) {
      id = wire::decodeTaskFailed(frame.payload).taskId;
      ok = false;
    } else if (frame.type == wire::MessageType::kScheduleDeny) {
      id = wire::decodeScheduleDeny(frame.payload).taskId;
      ok = false;
    } else {
      return;
    }
    if (id < w.firstId || id >= w.firstId + w.size()) {
      ++w.unknownIds;
      return;
    }
    const std::size_t i = id - w.firstId;
    if (w.terminals[i]++ == 0) {
      w.done[i] = clock.wallElapsed();
      w.completed[i] = ok ? 1 : 0;
      ++finished;
      if (!ok) ++w.failed;
    }
  };
  const double deadline = w.due.empty() ? 0.0 : w.due.back() + kDrainSeconds;
  while (finished < w.size()) {
    const double now = clock.wallElapsed();
    if (now > deadline) break;
    while (next < w.size() && w.due[next] <= now) {
      wire::ScheduleRequestMsg request;
      request.taskId = w.firstId + next;
      request.problem = kProblem;
      request.refSeconds = kTaskSeconds;
      clients[next % clients.size()]->send(wire::MessageType::kScheduleRequest,
                                           wire::encode(request));
      w.sent[next] = clock.wallElapsed();
      ++next;
    }
    for (auto& c : clients) c->poll(onFrame);
    std::this_thread::sleep_for(kClientSleep);
  }
}

/// Seconds of the window's measured span: first due time to last terminal.
double windowSpan(const Window& w) {
  double last = w.due.front();
  for (const double t : w.done) {
    if (!std::isnan(t)) last = std::max(last, t);
  }
  return last - w.due.front();
}

void writeWindow(util::JsonWriter& json, const Window& w) {
  std::uint64_t missing = 0;
  std::uint64_t duplicates = 0;
  for (const std::uint32_t n : w.terminals) {
    if (n == 0) ++missing;
    if (n > 1) ++duplicates;
  }
  json.key("requests").value(w.size());
  json.key("failed").value(static_cast<std::uint64_t>(w.failed));
  json.key("missing_terminals").value(missing);
  json.key("duplicate_terminals").value(duplicates);
  json.key("unknown_ids").value(static_cast<std::uint64_t>(w.unknownIds));
  json.key("span_s").value(windowSpan(w));
  // Requests answered with kTaskComplete only: when each was due (seconds
  // into the window) and its latency.
  json.key("due_s").beginArray();
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (w.completed[i]) json.value(w.due[i] - w.due.front());
  }
  json.endArray();
  json.key("latencies_ms").beginArray();
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (w.completed[i]) json.value(1000.0 * (w.done[i] - w.due[i]));
  }
  json.endArray();
}

/// Mean stage times of the traced window from the TraceBuffer spans: due ->
/// agent submit (ingress), agent submit -> server start (to the server),
/// server start -> completion (execution) and completion -> client receipt
/// (egress). The daemons stamp spans with their paced clock, read once per
/// loop turn, so the decision's own wall time falls inside the to-server
/// span; it is probed directly and carved out of it.
struct Stages {
  double ingress = 0.0, toServer = 0.0, exec = 0.0, egress = 0.0;
  std::size_t chains = 0;
  std::size_t unordered = 0;  ///< chains with a stage that ends before it starts
  double maxDisorder = 0.0;   ///< seconds by which the worst such stage ran backwards
  std::vector<double> decideDepths;  ///< per-candidate depth at each decision
};

Stages stagesFromSpans(const std::vector<obs::SpanRecord>& spans, const Window& w,
                       std::size_t servers) {
  struct Chain {
    double submit = NAN, start = NAN, complete = NAN;
  };
  std::map<std::uint64_t, Chain> chains;
  std::map<std::string, double> depth;
  std::map<std::uint64_t, std::string> placedOn;
  Stages out;
  for (const obs::SpanRecord& s : spans) {
    Chain& c = chains[s.taskId];
    switch (s.phase) {
      case obs::TaskPhase::kSubmit: c.submit = s.time; break;
      case obs::TaskPhase::kStart: c.start = s.time; break;
      case obs::TaskPhase::kDecide: {
        for (std::size_t i = 0; i < servers; ++i) {
          out.decideDepths.push_back(depth["live-" + std::to_string(i + 1)]);
        }
        depth[s.detail] += 1.0;
        placedOn[s.taskId] = s.detail;
        break;
      }
      case obs::TaskPhase::kComplete: {
        c.complete = s.time;
        auto it = placedOn.find(s.taskId);
        if (it != placedOn.end()) {
          depth[it->second] -= 1.0;
          placedOn.erase(it);
        }
        break;
      }
      default: break;
    }
  }
  for (std::size_t i = 0; i < w.size(); ++i) {
    const auto it = chains.find(w.firstId + i);
    if (it == chains.end() || !w.completed[i]) continue;
    const Chain& c = it->second;
    if (std::isnan(c.submit) || std::isnan(c.start) || std::isnan(c.complete)) continue;
    const double disorder = std::max({w.due[i] - c.submit, c.submit - c.start,
                                      c.start - c.complete, c.complete - w.done[i]});
    if (disorder > 0.0) {
      ++out.unordered;
      out.maxDisorder = std::max(out.maxDisorder, disorder);
    }
    out.ingress += c.submit - w.due[i];
    out.toServer += c.start - c.submit;
    out.exec += c.complete - c.start;
    out.egress += w.done[i] - c.complete;
    ++out.chains;
  }
  if (out.chains > 0) {
    const double n = static_cast<double>(out.chains);
    out.ingress /= n;
    out.toServer /= n;
    out.exec /= n;
    out.egress /= n;
  }
  return out;
}

}  // namespace

void runLiveWorkload(const Params& p, util::JsonWriter& json) {
  std::vector<double> setup;
  const auto timeSetups = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      setup.push_back(timeSetup([] { const Deployment discard; }));
    }
  };
  timeSetups(kSetupRepeats / 2);
  Deployment d;
  json.key("servers").value(kServers);
  json.key("rate").value(kRate);

  const obs::RegistrySnapshot before = obs::Registry::global().snapshot();
  d.start();
  // Untraced run: one window of the whole measured time. Traced run: an
  // untraced half, then a traced half whose spans give the stage breakdown.
  const double windowSeconds = p.trace ? p.seconds / 2.0 : p.seconds;
  Window first = makeWindow(simcore::deriveSeed(p.seed, 1), kRate, windowSeconds,
                            d.clock().wallElapsed() + 0.05, 1);
  runWindow(d, first);
  Window second;
  if (p.trace) {
    obs::TraceBuffer::global().enable(8 * static_cast<std::size_t>(kRate * windowSeconds) + 1024);
    second = makeWindow(simcore::deriveSeed(p.seed, 2), kRate, windowSeconds,
                        d.clock().wallElapsed() + 0.05, first.size() + 1);
    runWindow(d, second);
    obs::TraceBuffer::global().disable();
  }
  d.stop();
  const obs::RegistrySnapshot delta = obs::Registry::global().snapshot().since(before);
  const double decodeErrors = counterTotal(delta, "casched_net_decode_errors_total");
  json.key("peak_rss_kb").value(peakRssKb());  // before the output grows
  timeSetups(kSetupRepeats - setup.size());
  json.key("setup_s").beginArray();
  for (const double s : setup) json.value(s);
  json.endArray();

  json.key("window").beginObject();
  writeWindow(json, first);
  json.endObject();
  json.key("decode_errors").value(decodeErrors);
  if (!p.trace) return;

  json.key("traced_window").beginObject();
  writeWindow(json, second);
  json.endObject();

  const std::vector<obs::SpanRecord> spans = obs::TraceBuffer::global().snapshot();
  CASCHED_CHECK(obs::TraceBuffer::global().dropped() == 0, "trace ring overflowed");
  obs::TraceBuffer::global().clear();
  const Stages st = stagesFromSpans(spans, second, kServers);
  const double depthP50 = st.decideDepths.empty() ? 0.0 : median(st.decideDepths);
  double depthMax = 0.0;
  for (const double v : st.decideDepths) depthMax = std::max(depthMax, v);

  // Probes at the live operating point: msf over every server at the depth
  // the decisions met, with the workload's one task shape.
  core::ServerModel model;
  model.name = "live-1";
  model.bwInMBps = 1000.0;
  model.bwOutMBps = 1000.0;
  const core::TaskDims dims{0.0, kTaskSeconds, 0.0};
  const auto probeDepth = static_cast<std::size_t>(std::max(1.0, std::round(depthP50)));
  const double previewUs = probeHtmPreviewUs(model, dims, probeDepth, true);
  const double previewMaxUs =
      probeHtmPreviewUs(model, dims, static_cast<std::size_t>(std::max(1.0, depthMax)), true);
  const double commitUs = probeHtmCommitUs(model, dims, probeDepth);
  const double completeUs = probeHtmCompleteUs(model, dims, probeDepth);
  const double chooseUs = probeChooseUs(kServers);
  const double decideMs =
      1e-3 * (static_cast<double>(kServers) * previewUs + commitUs + chooseUs);

  const core::HtmStats& htm = d.agent().agent().htm().stats();
  const double agentWall = windowSpan(first) + windowSpan(second);
  const double htmBusy = 1e-6 * (static_cast<double>(htm.previews) * previewUs +
                                 static_cast<double>(htm.commits) * commitUs +
                                 static_cast<double>(htm.completionNotices +
                                                     htm.failureNotices) * completeUs);
  const double decisions = static_cast<double>(d.agent().agent().scheduleDecisions());
  const double resubmissions = counterTotal(delta, "casched_tasks_resubmitted_total");
  const double events = static_cast<double>(d.agent().simulator().executedEvents());
  psched::MachineSpec machine;
  machine.latencyIn = 0.0;
  machine.latencyOut = 0.0;
  machine.bwInMBps = 1000.0;
  machine.bwOutMBps = 1000.0;
  const double pschedBusy = 1e-6 * probePschedTask(machine, dims, probeDepth).us *
                            counterTotal(delta, "casched_machine_submits_total");
  const double framesOut = counterTotal(delta, "casched_net_frames_out_total");
  const double messagesOut = counterTotal(delta, "casched_net_messages_out_total");
  const double bytesOut = counterTotal(delta, "casched_net_bytes_out_total");
  const double tasks = static_cast<double>(first.size() + second.size());

  std::vector<double> lateness;
  std::vector<double> latency;
  for (std::size_t i = 0; i < second.size(); ++i) {
    lateness.push_back(1000.0 * (second.sent[i] - second.due[i]));
    if (second.completed[i]) latency.push_back(second.done[i] - second.due[i]);
  }
  double meanLatency = 0.0;
  for (const double l : latency) meanLatency += l / static_cast<double>(latency.size());
  const double toServer = st.toServer - 1e-3 * decideMs;
  const double stageSum = st.ingress + 1e-3 * decideMs + toServer + st.exec + st.egress;
  std::vector<double> untracedLatency;
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (first.completed[i]) untracedLatency.push_back(first.done[i] - first.due[i]);
  }
  const double p50Untraced = median(untracedLatency);

  json.key("reconcile").beginObject();
  json.key("parent").value("mean latency (s)");
  json.key("total").value(meanLatency);
  json.key("samples").value(latency.size());
  json.key("chains").value(st.chains);
  json.key("unordered_chains").value(st.unordered);
  json.key("max_disorder_s").value(st.maxDisorder);
  json.key("parts").beginObject();
  json.key("net.stage.ingress").value(st.ingress);
  json.key("net.stage.decide").value(1e-3 * decideMs);
  json.key("net.stage.to_server").value(toServer);
  json.key("net.stage.exec").value(st.exec);
  json.key("net.stage.egress").value(st.egress);
  json.key("unaccounted_s").value(meanLatency - stageSum);
  json.endObject();
  json.endObject();

  json.key("layers").beginObject();
  json.key("core.htm.preview_us").value(previewUs);
  json.key("core.htm.preview_us_at_max").value(previewMaxUs);
  json.key("core.htm.depth_p50").value(depthP50);
  json.key("core.htm.depth_max").value(depthMax);
  json.key("core.htm.previews").value(static_cast<std::uint64_t>(htm.previews));
  json.key("core.htm.busy_share").value(agentWall > 0.0 ? htmBusy / agentWall : 0.0);
  json.key("core.htm.commit_us").value(commitUs);
  json.key("core.htm.complete_us").value(completeUs);
  json.key("core.htm.commits").value(static_cast<std::uint64_t>(htm.commits));
  json.key("core.htm.notices")
      .value(static_cast<std::uint64_t>(htm.completionNotices + htm.failureNotices));
  json.key("core.htm.pred_error_pct").value(htm.meanRelErrorPercent());
  json.key("core.sched.choose_us").value(chooseUs);
  json.key("mesh.route_us").value(probeMeshRouteUs(1));
  json.key("mesh.forwards").value(static_cast<std::uint64_t>(d.agent().meshForwards()));
  json.key("simcore.events").value(events);
  json.key("simcore.events_per_s").value(agentWall > 0.0 ? events / agentWall : 0.0);
  json.key("psched.busy_s").value(pschedBusy);
  json.key("cas.decisions").value(decisions);
  json.key("cas.resubmissions").value(resubmissions);
  json.key("cas.useful_ratio").value(decisions > 0.0 ? (decisions - resubmissions) / decisions : 0.0);
  json.key("unaccounted_s").value(meanLatency - stageSum);
  json.key("net.agent.cpu_util").value(d.agentCpuUtil());
  json.key("net.server.cpu_util").value(d.serverCpuUtil());
  json.key("net.stage.ingress_ms").value(1000.0 * st.ingress);
  json.key("net.stage.decide_ms").value(decideMs);
  json.key("net.stage.to_server_ms").value(1000.0 * toServer);
  json.key("net.stage.exec_ms").value(1000.0 * st.exec);
  json.key("net.stage.egress_ms").value(1000.0 * st.egress);
  json.key("wire.messages_per_frame").value(framesOut > 0.0 ? messagesOut / framesOut : 0.0);
  json.key("wire.bytes_per_task").value(tasks > 0.0 ? bytesOut / tasks : 0.0);
  json.key("wire.decode_errors").value(decodeErrors);
  json.key("loadgen.lateness_p99_ms").value(lateness.empty() ? 0.0 : percentile(lateness, 99.0));
  json.key("obs.trace_overhead_pct")
      .value(100.0 * (median(latency) - p50Untraced) / p50Untraced);
  json.endObject();
}

}  // namespace perfbench
