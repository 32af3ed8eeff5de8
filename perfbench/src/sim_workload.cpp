// Simulator workloads: one registry scenario run as a replicated campaign
// with one thread, repeated until the measured time is spent.

#include <algorithm>
#include <map>

#include "bench.hpp"
#include "exp/campaign.hpp"
#include "exp/runner.hpp"
#include "exp/suite.hpp"
#include "metrics/record.hpp"
#include "obs/decision.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/generate.hpp"
#include "scenario/registry.hpp"
#include "simcore/rng.hpp"
#include "util/error.hpp"

namespace perfbench {

using namespace casched;

namespace {

struct Prepared {
  scenario::ScenarioSpec spec;
  platform::Testbed platform;
  /// One compiled campaign per instance seed (derived from the benchmark
  /// seed): its own arrivals, task mix, noise and [faults] timeline.
  std::vector<exp::ExperimentSpec> instances;
  exp::CampaignConfig campaign;
};

/// The suite driver's default seed; the platform is drawn at it.
constexpr std::uint64_t kPlatformSeed = 42;
/// Repetitions that must agree exactly, however short the measured time.
constexpr std::size_t kMinCampaigns = 2;

std::uint64_t instanceSeed(const Params& p, std::size_t k) {
  return simcore::deriveSeed(p.seed, k + 1);
}

/// Scenario parse, compile and [faults] generation: the set-up a campaign
/// pays before its first run. The platform is part of the workload's
/// definition (the registry template drawn once at the platform seed); the
/// benchmark seed draws everything else.
Prepared prepare(const Params& p) {
  Prepared out;
  out.spec = scenario::findScenario(p.scenario);
  if (p.tasks > 0) out.spec.workload.count = p.tasks;
  if (p.replications > 0) out.spec.campaign.replications = p.replications;
  if (p.maxRetries > 0) out.spec.system.maxRetries = p.maxRetries;
  out.platform = exp::specFromScenarioSpec(out.spec, kPlatformSeed).testbed;
  for (std::size_t k = 0; k < p.instances; ++k) {
    out.instances.push_back(exp::specFromScenarioSpec(out.spec, instanceSeed(p, k)));
    out.instances.back().testbed = out.platform;
  }
  out.campaign = exp::campaignFromSpec(out.spec.campaign);
  out.campaign.threads = 1;
  return out;
}

/// Set-ups and host-speed references timed per repetition, spread over its
/// campaigns: the host's speed drifts over seconds, so samples taken across
/// the repetition see the same speeds its campaigns do.
constexpr std::size_t kSetupSamplesPerRepetition = 10;
constexpr std::size_t kReferenceSamplesPerRepetition = 20;
/// Probe rounds of the traced run, spread over its campaigns likewise.
constexpr std::size_t kProbeRounds = 10;

/// Whether a sample is due after instance `k` of `n`, when `count` samples
/// are spread evenly over the `n` instances.
bool spreadSampleDue(std::size_t k, std::size_t n, std::size_t count) {
  return (k + 1) * count / n > k * count / n;
}

/// What one repetition's campaigns returned, summed over the instances, and
/// the set-up and reference samples timed between them.
struct CampaignOutcome {
  double wall = 0.0;  ///< wall time inside exp::runCampaign
  double cpu = 0.0;   ///< the process's CPU time inside exp::runCampaign
  std::vector<double> setupS;      ///< CPU seconds per set-up (timeSetup)
  std::vector<double> referenceS;  ///< referenceWorkSeconds() samples
  std::size_t attempted = 0;
  std::size_t completed = 0;
  std::size_t lost = 0;
  double sumFlow = 0.0;
  std::uint64_t events = 0;
  double peakReportedLoad = 0.0;
  std::vector<double> runSumFlows;  ///< per run, in the suite driver's order
  std::vector<double> flowsMs;      ///< completed flows of the sample runs, when kept
};

/// Adds one campaign of the suite driver to `out`. Counts come from its raw
/// rows; per-task flows and peak loads from its sample runs (replication 1
/// of metatask 1, every heuristic).
void addCampaign(const exp::ExperimentSpec& spec, const exp::CampaignResult& result,
                 bool keepFlows, CampaignOutcome& out) {
  for (const exp::RawRow& row : result.raw) {
    out.attempted += spec.metatask.count;
    out.completed += row.metrics.completed;
    out.lost += row.metrics.lost;
    out.sumFlow += row.metrics.sumFlow;
    out.runSumFlows.push_back(row.metrics.sumFlow);
  }
  out.events += result.simulatedEvents;
  for (const auto& [heuristic, run] : result.sampleRuns) {
    for (const metrics::TaskOutcome& t : run.tasks) {
      if (keepFlows && t.status == metrics::TaskStatus::kCompleted) {
        out.flowsMs.push_back(1000.0 * t.flow());
      }
    }
    for (const auto& [name, server] : run.servers) {
      out.peakReportedLoad = std::max(out.peakReportedLoad, server.peakLoadReported);
    }
  }
}

/// One repetition: every instance's campaign through the suite driver
/// (exp::runCampaign), back to back; only the campaigns are timed, on the
/// wall clock and on the process's CPU clock. Between campaigns the set-up
/// and the host-speed reference are timed, on the CPU clock: a CPU the
/// process shares with others slows its wall clock, not its work. Only the
/// first repetition keeps its flows (the gate proves the others equal), so
/// peak memory does not grow with the number of repetitions.
CampaignOutcome runRepetition(const Params& p, const Prepared& prepared, bool keepFlows) {
  CampaignOutcome out;
  const std::size_t n = prepared.instances.size();
  for (std::size_t k = 0; k < n; ++k) {
    const exp::ExperimentSpec& spec = prepared.instances[k];
    const auto start = Clock::now();
    const double cpuStart = processCpuSeconds();
    const exp::CampaignResult result = exp::runCampaign(spec, prepared.campaign);
    out.cpu += processCpuSeconds() - cpuStart;
    out.wall += secondsSince(start);
    addCampaign(spec, result, keepFlows, out);
    if (spreadSampleDue(k, n, kSetupSamplesPerRepetition)) {
      out.setupS.push_back(
          timeSetup([&] { const Prepared discard = prepare(p); }, processCpuSeconds));
    }
    if (spreadSampleDue(k, n, kReferenceSamplesPerRepetition)) {
      out.referenceS.push_back(referenceWorkSeconds());
    }
  }
  return out;
}

bool usesHtm(const std::string& heuristic) { return heuristic != "mct"; }
bool previewsPerturbations(const std::string& heuristic) { return heuristic != "hmct"; }

/// What the traced campaign's spans and decision records say about the HTM
/// and the agent: the in-flight depth each operation met, and the counts.
struct SpanAnalysis {
  std::vector<double> previewDepthsFull;  ///< MP/MSF previews (perturbations)
  std::vector<double> previewDepthsFast;  ///< HMCT previews (completion only)
  std::vector<double> commitDepths;
  std::vector<double> noticeDepths;  ///< completion and failure notices
  std::uint64_t placements = 0;
  std::uint64_t firstPlacements = 0;
  std::uint64_t candidates = 0;
};

/// Replays the spans in record order (one thread, runs back to back; a run
/// ends when all `tasksPerRun` tasks reached a terminal). The k-th kDecide
/// span and the k-th decision record describe the same placement.
void analyzeSpans(const std::vector<obs::SpanRecord>& spans,
                  const std::vector<obs::DecisionRecord>& decisions,
                  std::size_t tasksPerRun, SpanAnalysis& out) {
  std::map<std::uint64_t, std::string> placedOn;
  std::map<std::string, double> depth;
  std::size_t terminals = 0;
  std::size_t nextDecision = 0;
  const auto notice = [&](std::uint64_t task) {
    auto it = placedOn.find(task);
    if (it == placedOn.end()) return;
    out.noticeDepths.push_back(depth[it->second]);
    depth[it->second] -= 1.0;
    placedOn.erase(it);
  };
  for (const obs::SpanRecord& s : spans) {
    switch (s.phase) {
      case obs::TaskPhase::kDecide: {
        CASCHED_CHECK(nextDecision < decisions.size(), "fewer decision records than spans");
        const obs::DecisionRecord& d = decisions[nextDecision++];
        CASCHED_CHECK(d.taskId == s.taskId, "decision records out of step with spans");
        if (usesHtm(d.heuristic)) {
          auto& bucket = previewsPerturbations(d.heuristic) ? out.previewDepthsFull
                                                            : out.previewDepthsFast;
          for (const obs::DecisionCandidate& c : d.candidates) bucket.push_back(depth[c.server]);
        }
        out.candidates += d.candidates.size();
        notice(s.taskId);  // a re-placement follows the previous attempt's failure
        out.commitDepths.push_back(depth[s.detail]);
        depth[s.detail] += 1.0;
        placedOn[s.taskId] = s.detail;
        ++out.placements;
        if (s.attempt == 1) ++out.firstPlacements;
        break;
      }
      case obs::TaskPhase::kComplete:
      case obs::TaskPhase::kLost:
        notice(s.taskId);
        if (++terminals == tasksPerRun) {
          terminals = 0;
          placedOn.clear();
          depth.clear();
        }
        break;
      default:
        break;
    }
  }
  CASCHED_CHECK(nextDecision == decisions.size(), "more decision records than spans");
}

double sumOver(const std::vector<double>& depths, const DepthCurve& curve) {
  double total = 0.0;
  for (const double d : depths) total += curve.at(d);
  return total;
}

void writeCampaign(util::JsonWriter& json, const CampaignOutcome& c) {
  json.beginObject();
  json.key("wall_s").value(c.wall);
  json.key("cpu_s").value(c.cpu);
  json.key("setup_s").beginArray();
  for (const double s : c.setupS) json.value(s);
  json.endArray();
  json.key("reference_s").beginArray();
  for (const double s : c.referenceS) json.value(s);
  json.endArray();
  json.key("attempted").value(c.attempted);
  json.key("completed").value(c.completed);
  json.key("lost").value(c.lost);
  json.key("sum_flow_s").value(c.sumFlow);
  json.key("events").value(static_cast<std::uint64_t>(c.events));
  json.endObject();
}

/// Preview depths (MP/MSF and HMCT together) and the deepest trace any
/// HTM operation met so far.
struct DepthPoint {
  std::vector<double> previews;
  double p50 = 0.0;
  double max = 0.0;
  double reached = 1.0;  ///< deepest preview or commit, at least 1
};

DepthPoint depthPoint(const SpanAnalysis& a) {
  DepthPoint out;
  out.previews = a.previewDepthsFull;
  out.previews.insert(out.previews.end(), a.previewDepthsFast.begin(),
                      a.previewDepthsFast.end());
  if (!out.previews.empty()) {
    out.p50 = median(out.previews);
    out.max = *std::max_element(out.previews.begin(), out.previews.end());
  }
  out.reached = std::max(out.max, 1.0);
  if (!a.commitDepths.empty()) {
    out.reached = std::max(out.reached,
                           *std::max_element(a.commitDepths.begin(), a.commitDepths.end()));
  }
  return out;
}

double meanCandidates(const SpanAnalysis& a) {
  return a.placements == 0 ? 1.0
                           : static_cast<double>(a.candidates) /
                                 static_cast<double>(a.placements);
}

/// The traced run: the suite driver's campaign with spans and decision
/// records on, instance by instance, with rounds of layer probes in between
/// at the operating point reached so far: the dominant task type on the
/// platform's first server, at every depth the campaign met. Each probe
/// figure is the median of its rounds, so the host's speed drifts reach the
/// probes as they reach the campaign.
void tracedRun(const Params& p, const Prepared& prepared, util::JsonWriter& json) {
  const CampaignOutcome untraced = runRepetition(p, prepared, true);
  const std::size_t tasksPerRun = prepared.spec.workload.count;
  const std::size_t runsPerInstance = untraced.runSumFlows.size() / prepared.instances.size();
  obs::TraceBuffer& trace = obs::TraceBuffer::global();
  obs::DecisionLog& decisions = obs::DecisionLog::global();
  const std::size_t capacity = 16 * tasksPerRun * runsPerInstance;

  const psched::MachineSpec& machine = prepared.platform.servers.front();
  const core::ServerModel model = serverModelOf(machine);
  const workload::TaskType& type = prepared.instances.front().metatask.types.front();
  const core::TaskDims dims{type.inMB, type.refSeconds, type.outMB};
  DepthCurve full([&](std::size_t d) { return probeHtmPreviewUs(model, dims, d, true); });
  DepthCurve fast([&](std::size_t d) { return probeHtmPreviewUs(model, dims, d, false); });
  DepthCurve commit([&](std::size_t d) { return probeHtmCommitUs(model, dims, d); });
  DepthCurve complete([&](std::size_t d) { return probeHtmCompleteUs(model, dims, d); });
  std::vector<double> chooseUs, eventUs, pschedUs, pschedEventsPerTask;

  SpanAnalysis a;
  obs::RegistrySnapshot delta;
  double campaignS = 0.0;
  double htmErrorPct = 0.0;
  std::size_t mismatches = 0;
  std::size_t run = 0;
  std::size_t lost = 0;
  const std::size_t n = prepared.instances.size();
  // Instance by instance, so the span rings hold one campaign at a time.
  for (std::size_t k = 0; k < n; ++k) {
    trace.enable(capacity);
    decisions.enable(capacity);
    const obs::RegistrySnapshot before = obs::Registry::global().snapshot();
    const exp::CampaignResult traced = exp::runCampaign(prepared.instances[k], prepared.campaign);
    const obs::RegistrySnapshot since = obs::Registry::global().snapshot().since(before);
    delta.metrics.insert(delta.metrics.end(), since.metrics.begin(), since.metrics.end());
    trace.disable();
    decisions.disable();
    CASCHED_CHECK(trace.dropped() == 0 && decisions.dropped() == 0,
                  "trace ring overflowed; raise its capacity");
    analyzeSpans(trace.snapshot(), decisions.snapshot(), tasksPerRun, a);
    campaignS += traced.wallSeconds;
    // Gate: tracing changed no decision; the traced campaign matches the
    // untraced one run for run.
    if (traced.raw.size() != runsPerInstance) mismatches += runsPerInstance;
    for (const exp::RawRow& row : traced.raw) {
      if (run >= untraced.runSumFlows.size() ||
          row.metrics.sumFlow != untraced.runSumFlows[run]) {
        ++mismatches;
      }
      lost += row.metrics.lost;
      htmErrorPct += row.htmRelErrorPct / static_cast<double>(untraced.runSumFlows.size());
      ++run;
    }
    if (spreadSampleDue(k, n, kProbeRounds)) {
      const DepthPoint at = depthPoint(a);
      const auto reached = static_cast<std::size_t>(at.reached);
      full.probeRound(reached);
      fast.probeRound(reached);
      commit.probeRound(reached);
      complete.probeRound(reached);
      chooseUs.push_back(probeChooseUs(static_cast<std::size_t>(meanCandidates(a) + 0.5)));
      eventUs.push_back(probeSimEventUs(tasksPerRun));
      const PschedCost cost =
          probePschedTask(machine, dims, static_cast<std::size_t>(std::max(1.0, at.p50)));
      pschedUs.push_back(cost.us);
      pschedEventsPerTask.push_back(cost.eventsPerTask);
    }
  }
  trace.clear();
  decisions.clear();

  const DepthPoint at = depthPoint(a);
  const double decisionsCount = counterTotal(delta, "casched_schedule_decisions_total");
  const double events = counterTotal(delta, "casched_sim_events_total");
  const double submits = counterTotal(delta, "casched_machine_submits_total");
  const double htmPreviewS = 1e-6 * (sumOver(a.previewDepthsFull, full) +
                                     sumOver(a.previewDepthsFast, fast));
  const double htmCommitS = 1e-6 * sumOver(a.commitDepths, commit);
  const double htmNoticeS = 1e-6 * sumOver(a.noticeDepths, complete);
  const double htmBusy = htmPreviewS + htmCommitS + htmNoticeS;
  const double schedBusy = 1e-6 * median(chooseUs) * decisionsCount;
  // psched's probe time includes the events its executions fire; the event
  // heap is charged for the rest.
  const double pschedBusy = 1e-6 * median(pschedUs) * submits;
  const double simcoreBusy =
      1e-6 * median(eventUs) * std::max(0.0, events - median(pschedEventsPerTask) * submits);
  const double unaccounted = campaignS - htmBusy - schedBusy - simcoreBusy - pschedBusy;

  // The registry's mesh section runs only under the mesh simulator, which the
  // suite driver does not use; one msf run of the first metatask there gives
  // the forwarding count.
  double meshForwards = 0.0;
  if (prepared.spec.mesh.enabled) {
    scenario::CompiledScenario compiled = scenario::compileScenario(prepared.spec, instanceSeed(p, 0));
    compiled.testbed = prepared.platform;
    meshForwards = static_cast<double>(scenario::runScenario(compiled, "msf").mesh.forwards);
  }

  json.key("latencies_ms").beginArray();
  for (const double f : untraced.flowsMs) json.value(f);
  json.endArray();
  json.key("trace_equivalence_mismatches").value(mismatches);
  json.key("traced_attempted").value(tasksPerRun * run);
  json.key("traced_lost").value(lost);
  json.key("reconcile").beginObject();
  json.key("parent").value("exp.campaign_s");
  json.key("total").value(campaignS);
  json.key("parts").beginObject();
  json.key("core.htm").value(htmBusy);
  json.key("core.sched").value(schedBusy);
  json.key("simcore").value(simcoreBusy);
  json.key("psched").value(pschedBusy);
  json.key("unaccounted_s").value(unaccounted);
  json.endObject();
  json.endObject();

  json.key("layers").beginObject();
  json.key("core.htm.preview_us").value(full.at(at.p50));
  json.key("core.htm.preview_us_at_max").value(full.at(at.max));
  json.key("core.htm.depth_p50").value(at.p50);
  json.key("core.htm.depth_max").value(at.max);
  json.key("core.htm.previews").value(static_cast<double>(at.previews.size()));
  json.key("core.htm.busy_share").value(campaignS > 0.0 ? htmBusy / campaignS : 0.0);
  json.key("core.htm.commit_us").value(commit.at(at.p50));
  json.key("core.htm.complete_us").value(complete.at(at.p50));
  json.key("core.htm.commits").value(static_cast<double>(a.commitDepths.size()));
  json.key("core.htm.notices").value(static_cast<double>(a.noticeDepths.size()));
  json.key("core.htm.pred_error_pct").value(htmErrorPct);
  json.key("core.sched.choose_us").value(median(chooseUs));
  json.key("mesh.route_us").value(probeMeshRouteUs(1));
  json.key("mesh.forwards").value(meshForwards);
  json.key("simcore.events").value(events);
  json.key("simcore.events_per_s").value(campaignS > 0.0 ? events / campaignS : 0.0);
  json.key("psched.busy_s").value(pschedBusy);
  json.key("cas.decisions").value(decisionsCount);
  json.key("cas.resubmissions").value(counterTotal(delta, "casched_tasks_resubmitted_total"));
  json.key("cas.useful_ratio")
      .value(a.placements == 0 ? 0.0
                               : static_cast<double>(a.firstPlacements) /
                                     static_cast<double>(a.placements));
  json.key("scenario.compile_s").value(median(untraced.setupS));
  json.key("exp.campaign_s").value(campaignS);
  json.key("unaccounted_s").value(unaccounted);
  json.key("obs.trace_overhead_pct").value(100.0 * (campaignS - untraced.wall) / untraced.wall);
  json.endObject();
}

}  // namespace

void runSimWorkload(const Params& p, util::JsonWriter& json) {
  const Prepared prepared = prepare(p);
  json.key("servers").value(prepared.platform.servers.size());
  json.key("heuristics").value(prepared.campaign.heuristics.size());
  if (p.trace) {
    tracedRun(p, prepared, json);
    return;
  }

  std::vector<CampaignOutcome> campaigns;
  const auto start = Clock::now();
  double lastRepetitionS = 0.0;
  // Repeat while another repetition still fits in the measured time.
  while (campaigns.size() < kMinCampaigns || secondsSince(start) + lastRepetitionS <= p.seconds) {
    const auto repetitionStart = Clock::now();
    campaigns.push_back(runRepetition(p, prepared, campaigns.empty()));
    lastRepetitionS = secondsSince(repetitionStart);
  }
  // Before the output below grows its own buffers.
  json.key("peak_rss_kb").value(peakRssKb());
  json.key("campaigns").beginArray();
  for (const CampaignOutcome& c : campaigns) writeCampaign(json, c);
  json.endArray();
  // Every repetition ran the same inputs; the gate checks their sum-flows
  // agree, so the first repetition's per-task flows stand for all of them.
  json.key("latencies_ms").beginArray();
  for (const double f : campaigns.front().flowsMs) json.value(f);
  json.endArray();
  json.key("peak_reported_load").value(campaigns.front().peakReportedLoad);
}

}  // namespace perfbench
