// Benchmark driver for the EcoFusion gating paths.
//
// Links libecofusion and times calls into each layer's public functions
// from outside the library. One process runs one workload in one mode and
// prints one JSON object (its last stdout line) that perfbench/run.py turns
// into the benchmark result:
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --mode <m>
//
// Modes:
//   setup  cold start to the first result: engine + gate + stream/frame-set
//          construction, the first frame's render, and that frame's cold
//          pass (scan-plan builds, lazy energy tables, arena growth).
//   e2e    warm-up pass, then the untraced timed phase for --seconds:
//          pipeline passes (streams) and single-thread closed-loop passes
//          that also check every frame.
//   trace  untraced timed reps for the scheduler/ingest counters, then a
//          traced single-thread replay that splits frame time by layer.
//
// Workloads (see perfbench/README.md for why each exists):
//   knowledge_stream   StreamingPipeline, Knowledge gate, 1 pool worker,
//                      window 16, no controller (windows pipelined).
//   attention_stream   same stream shape, Attention gate + energy budget.
//   attention_latency  closed loop on one thread: FrameWorkspace ->
//                      select_adaptive -> run_selected per pre-rendered frame
//                      of short, high-churn sequences.
//
// Every run checks its outputs: each frame's record (configuration, loss,
// energy, modeled latency, detection count) must be bitwise equal across
// repetitions and to an independent single-thread evaluation of the frame.
// Mismatching frames are counted as failed.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "eval/map_metric.hpp"
#include "exec/frame_arena.hpp"
#include "exec/stem_cache.hpp"
#include "exec/workspace.hpp"
#include "gating/knowledge_gate.hpp"
#include "gating/learned_gate.hpp"
#include "obs/manifest.hpp"
#include "runtime/budget.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/stream.hpp"
#include "tensor/tensor.hpp"

extern char** environ;

namespace {

using namespace eco;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_process_start = Clock::now();

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double seconds_since(Clock::time_point start) {
  return ms_since(start) / 1000.0;
}

/// Process CPU time (user + sys, all threads) in seconds.
double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile (p in [0, 100]) of unsorted samples.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      std::min(values.size() - 1,
               static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return values[index];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ---- workloads -------------------------------------------------------------

enum class GateKind { kKnowledge, kAttention };

struct Workload {
  GateKind gate = GateKind::kKnowledge;
  bool closed_loop = false;  // attention_latency: no pool, no scheduler
  runtime::StreamConfig stream;
  runtime::PipelineConfig pipeline;
};

/// Energy target for attention_stream: below the unconstrained mean
/// (~2.4 J/frame), so the BudgetController keeps moving λ_E.
constexpr double kAttentionBudgetJ = 2.2;

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.stream.seed = seed;
  w.stream.vary_severity = true;
  // Generation runs as pool tasks 8 sequences ahead (the library default,
  // set explicitly so no environment value can change it).
  w.stream.prefetch = 8;
  w.pipeline.workers = 1;
  w.pipeline.window = 16;
  if (name == "knowledge_stream" || name == "attention_stream") {
    w.stream.sequence.length = 16;
    w.stream.sequences_per_scene = 8;  // 8 lanes x 8 x 16 = 1024 frames
    if (name == "attention_stream") {
      w.gate = GateKind::kAttention;
      runtime::BudgetConfig budget;
      budget.target_j_per_frame = kAttentionBudgetJ;
      w.pipeline.budget = budget;
    }
  } else if (name == "attention_latency") {
    w.gate = GateKind::kAttention;
    w.closed_loop = true;
    // Short, fast, high-churn sequences: a quarter of the frames start a
    // sequence and miss the temporal stem cache.
    w.stream.sequence.length = 4;
    w.stream.sequence.vehicle_speed = 2.4f;
    w.stream.sequence.phantom_churn = 0.45f;
    w.stream.sequences_per_scene = 32;  // 8 lanes x 32 x 4 = 1024 frames
    w.stream.prefetch = 0;              // rendered inline, before timing
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

std::unique_ptr<gating::Gate> make_gate(const core::EcoFusionEngine& engine,
                                        GateKind kind) {
  if (kind == GateKind::kKnowledge) {
    return std::make_unique<gating::KnowledgeGate>(
        engine.default_knowledge_table(), engine.config_space().size());
  }
  // Untrained, fixed default seed: gate training is offline in the paper
  // and the forward cost does not depend on the weights.
  gating::LearnedGateConfig config;
  config.in_channels = engine.stems().gate_channels();
  config.num_configs = engine.config_space().size();
  config.use_attention = true;
  return std::make_unique<gating::LearnedGate>(config);
}

// ---- per-frame records and checks ----------------------------------------

/// What one frame's pass produced; compared bitwise.
struct FrameRecord {
  std::size_t config = 0;
  float loss = 0.0f;
  double energy = 0.0;
  double latency = 0.0;
  std::size_t detections = 0;

  friend bool operator==(const FrameRecord& a, const FrameRecord& b) {
    return a.config == b.config && a.detections == b.detections &&
           std::bit_cast<std::uint32_t>(a.loss) ==
               std::bit_cast<std::uint32_t>(b.loss) &&
           std::bit_cast<std::uint64_t>(a.energy) ==
               std::bit_cast<std::uint64_t>(b.energy) &&
           std::bit_cast<std::uint64_t>(a.latency) ==
               std::bit_cast<std::uint64_t>(b.latency);
  }
};

FrameRecord record_of(const runtime::FrameStats& s) {
  return {s.config_index, s.loss, s.energy_j, s.latency_ms, s.detections};
}

FrameRecord record_of(const core::RunResult& r) {
  return {r.config_index, r.loss.total(), r.energy_j, r.latency_ms,
          r.detections.size()};
}

/// Counts frames whose record differs from the reference (a length
/// mismatch fails every frame of the longer side).
std::size_t mismatches(const std::vector<FrameRecord>& reference,
                       const std::vector<FrameRecord>& observed) {
  if (reference.size() != observed.size()) {
    return std::max(reference.size(), observed.size());
  }
  std::size_t failed = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (!(reference[i] == observed[i])) ++failed;
  }
  return failed;
}

struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> notes;

  void compare(const char* what, const std::vector<FrameRecord>& reference,
               const std::vector<FrameRecord>& observed) {
    const std::size_t bad = mismatches(reference, observed);
    attempted += observed.size();
    failed += bad;
    if (bad != 0) {
      notes.push_back(std::string(what) + ": " + std::to_string(bad) +
                      " mismatching frames");
    }
  }
  void require(bool ok, const std::string& what) {
    if (!ok) notes.push_back(what);
  }
};

// ---- layer spans -------------------------------------------------------------

/// Layers the traced replay attributes frame time to. The render is timed
/// apart, in render_stream, because it is outside the replay's frame path.
enum Layer : std::size_t {
  kExec,     // FrameWorkspace construction
  kStems,    // FrameWorkspace::gate_features
  kGating,   // select_adaptive with F memoized
  kDetect,   // branch_detections over φ*'s branches
  kFusion,   // run_selected with branches memoized
  kEval,     // mean_average_precision over a pass
  kNumLayers
};

constexpr const char* kLayerNames[kNumLayers] = {
    "exec", "core/stems", "gating", "detect", "fusion", "eval"};

struct SpanRecord {
  Layer layer;
  std::size_t frame;
  std::int64_t begin_ns;
  std::int64_t end_ns;
};

/// In-memory span log of the traced replay; spans are siblings (the replay
/// calls one layer at a time), so each span's duration is its self time.
class SpanLog {
 public:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - g_process_start)
        .count();
  }
  void add(Layer layer, std::size_t frame, std::int64_t begin,
           std::int64_t end) {
    spans_.push_back({layer, frame, begin, end});
  }
  /// Chrome trace_event JSON (one lane; microsecond timestamps).
  void write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const SpanRecord& s : spans_) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"frame\":%zu}}",
                    first ? "" : ",", kLayerNames[s.layer],
                    static_cast<double>(s.begin_ns) / 1000.0,
                    static_cast<double>(s.end_ns - s.begin_ns) / 1000.0,
                    s.frame);
      out << buf;
      first = false;
    }
    out << "]}\n";
  }

 private:
  std::vector<SpanRecord> spans_;
};

/// Per-pass accumulated self time per layer (µs) and frame count.
struct PassLayers {
  std::array<double, kNumLayers> us{};
  std::size_t frames = 0;
  std::size_t stem_lookups = 0;
  std::size_t stem_hits = 0;
  std::size_t scans_requested = 0;  // channel scans the branches consumed
  std::size_t scans_unique = 0;     // channel scans executed
  std::vector<double> frame_ms;  // per-frame perception time (no render)
};

// ---- the single-thread replay ----------------------------------------------

/// Runs every frame of `frames` through FrameWorkspace -> select_adaptive ->
/// run_selected on the calling thread. `lambdas`, when given, supplies the
/// (λ_E, λ_L) each frame ran with in the pipeline. When `log` is set, each
/// layer call is wrapped in a span (the gate's features are pulled
/// explicitly first so the stem time is separated from the gate time).
struct ReplayFrame {
  std::uint64_t sequence_id = 0;
  const dataset::Frame* frame = nullptr;
};

struct ReplayResult {
  std::vector<FrameRecord> records;
  runtime::PipelineReport report;  // frame_stats + frame_results, finalized
  PassLayers layers;
  std::size_t tensor_allocs = 0;
};

ReplayResult replay(const core::EcoFusionEngine& engine, gating::Gate& gate,
                    const std::vector<ReplayFrame>& frames,
                    const core::JointOptParams& joint,
                    const std::vector<std::pair<float, float>>* lambdas,
                    exec::FrameArena& arena, SpanLog* log, bool pull_stems) {
  ReplayResult out;
  out.records.reserve(frames.size());
  out.report.frame_stats.reserve(frames.size());
  out.report.frame_results.reserve(frames.size());
  out.layers.frame_ms.reserve(frames.size());
  exec::TemporalStemCache stem_cache(engine.stems());
  const energy::GateComplexity complexity = gate.complexity();
  const std::vector<core::ModelConfig>& space = engine.config_space();
  const std::uint64_t allocs_before = tensor::tensor_alloc_count();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    core::JointOptParams params = joint;
    if (lambdas != nullptr) {
      params.lambda_energy = (*lambdas)[i].first;
      params.lambda_latency = (*lambdas)[i].second;
    }
    const dataset::Frame& frame = *frames[i].frame;
    const auto start = Clock::now();
    std::int64_t t0 = log != nullptr ? log->now_ns() : 0;
    const auto mark = [&](Layer layer) {
      if (log == nullptr) return;
      const std::int64_t t1 = log->now_ns();
      log->add(layer, i, t0, t1);
      out.layers.us[layer] += static_cast<double>(t1 - t0) / 1000.0;
      t0 = t1;
    };
    exec::FrameWorkspace ws(engine, frame, &stem_cache, frames[i].sequence_id,
                            /*share_channel_scans=*/true, &arena);
    mark(kExec);
    if (log != nullptr && pull_stems) {
      (void)ws.gate_features();
      mark(kStems);
    }
    const std::size_t selected =
        engine.select_adaptive(ws, gate, params).config_index;
    mark(kGating);
    if (log != nullptr) {
      for (core::BranchId branch : space[selected].branches) {
        (void)ws.branch_detections(branch);
      }
      mark(kDetect);
    }
    core::RunResult run = engine.run_selected(ws, selected, complexity);
    mark(kFusion);
    out.layers.frame_ms.push_back(ms_since(start));
    out.layers.scans_requested += ws.channel_scans_requested();
    out.layers.scans_unique += ws.channel_scans_unique();
    if (ws.stem_source() == exec::StemSource::kCacheHit ||
        ws.stem_source() == exec::StemSource::kCacheMiss) {
      ++out.layers.stem_lookups;
      if (ws.stem_source() == exec::StemSource::kCacheHit) {
        ++out.layers.stem_hits;
      }
    }

    runtime::FrameStats stats;
    stats.stream_index = i;
    stats.scene = frame.scene;
    stats.config_index = run.config_index;
    stats.loss = run.loss.total();
    stats.energy_j = run.energy_j;
    stats.latency_ms = run.latency_ms;
    stats.lambda_energy = params.lambda_energy;
    stats.lambda_latency = params.lambda_latency;
    stats.detections = run.detections.size();
    stats.stem_source = ws.stem_source();
    out.records.push_back(record_of(run));
    out.report.frame_stats.push_back(stats);
    out.report.frame_results.push_back(
        {std::move(run.detections), frame.objects});
  }
  out.tensor_allocs =
      static_cast<std::size_t>(tensor::tensor_alloc_count() - allocs_before);
  out.layers.frames = frames.size();
  if (log != nullptr) {
    std::int64_t t0 = log->now_ns();
    (void)eval::mean_average_precision(out.report.frame_results);
    const std::int64_t t1 = log->now_ns();
    log->add(kEval, frames.size(), t0, t1);
    out.layers.us[kEval] += static_cast<double>(t1 - t0) / 1000.0;
  }
  runtime::finalize_report(out.report);
  return out;
}

// ---- stream helpers ----------------------------------------------------------

/// Renders the whole stream inline (prefetch 0) on the calling thread,
/// returning the frames and the per-frame render time.
struct RenderedStream {
  std::vector<runtime::StreamFrame> frames;
  std::vector<double> render_us;

  std::vector<ReplayFrame> replay_frames() const {
    std::vector<ReplayFrame> out;
    out.reserve(frames.size());
    for (const runtime::StreamFrame& f : frames) {
      out.push_back({f.sequence_id, &f.frame});
    }
    return out;
  }
};

RenderedStream render_stream(runtime::StreamConfig config) {
  config.prefetch = 0;
  runtime::FrameStream stream(config);
  RenderedStream out;
  out.frames.reserve(stream.total_frames());
  out.render_us.reserve(stream.total_frames());
  for (;;) {
    const auto start = Clock::now();
    std::optional<runtime::StreamFrame> frame = stream.next();
    if (!frame) break;
    out.render_us.push_back(ms_since(start) * 1000.0);
    out.frames.push_back(std::move(*frame));
  }
  return out;
}

struct Rep {
  runtime::PipelineReport report;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Rep run_pipeline_rep(const core::EcoFusionEngine& engine, const Workload& w) {
  const runtime::StreamingPipeline pipeline(engine, w.pipeline);
  runtime::FrameStream stream(w.stream);
  const GateKind kind = w.gate;
  const runtime::GateFactory factory = [&engine, kind] {
    return make_gate(engine, kind);
  };
  Rep rep;
  const double cpu_before = cpu_seconds();
  const auto start = Clock::now();
  rep.report = pipeline.run(stream, factory);
  rep.wall_s = seconds_since(start);
  rep.cpu_s = cpu_seconds() - cpu_before;
  return rep;
}

std::vector<FrameRecord> records_of(const runtime::PipelineReport& report) {
  std::vector<FrameRecord> out;
  out.reserve(report.frame_stats.size());
  for (const runtime::FrameStats& s : report.frame_stats) {
    out.push_back(record_of(s));
  }
  return out;
}

// ---- output --------------------------------------------------------------------

class JsonOut {
 public:
  void num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
    fields_.push_back("\"" + key + "\":" + buf);
  }
  void str(const std::string& key, const std::string& value) {
    std::string escaped;
    for (char c : value) {
      if (c == '"' || c == '\\') escaped += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) escaped += c;
    }
    fields_.push_back("\"" + key + "\":\"" + escaped + "\"");
  }
  void raw(const std::string& key, const std::string& json) {
    fields_.push_back("\"" + key + "\":" + json);
  }
  [[nodiscard]] std::string render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) out += ",";
      out += fields_[i];
    }
    return out + "}";
  }

 private:
  std::vector<std::string> fields_;
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') ++begin;
        return line.substr(begin);
      }
    }
  }
  return "unknown";
}

/// Hardware and build provenance recorded with every result.
std::string environment_json() {
  const obs::BuildInfo& build = obs::build_info();
  JsonOut env;
  env.num("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  env.str("cpu_model", cpu_model());
  env.str("compiler", build.compiler);
  env.str("build_type", build.build_type);
  env.str("git_sha", build.git_sha);
  return env.render();
}

void emit(const JsonOut& metrics, const Checks& checks, std::size_t samples) {
  JsonOut out;
  out.raw("metrics", metrics.render());
  out.num("attempted", static_cast<double>(checks.attempted));
  out.num("failed", static_cast<double>(checks.failed));
  out.num("samples", static_cast<double>(samples));
  std::string notes = "[";
  for (std::size_t i = 0; i < checks.notes.size(); ++i) {
    JsonOut note;
    note.str("n", checks.notes[i]);
    if (i != 0) notes += ",";
    notes += note.render();
  }
  out.raw("check_notes", notes + "]");
  out.raw("env", environment_json());
  std::printf("%s\n", out.render().c_str());
}

void add_quality(JsonOut& m, const runtime::PipelineReport& report) {
  m.num("map", report.map);
  m.num("mean_loss", report.mean_loss);
  m.num("energy_j_per_frame", report.mean_energy_j);
  m.num("modeled_latency_ms", report.mean_latency_ms);
}

void check_quality(Checks& checks, const runtime::PipelineReport& report,
                   std::size_t expected_frames) {
  checks.require(report.frames == expected_frames,
                 "frame count " + std::to_string(report.frames) + " != " +
                     std::to_string(expected_frames));
  checks.require(report.map > 0.0 && report.map <= 1.0, "mAP out of (0, 1]");
  checks.require(report.mean_energy_j > 0.0, "non-positive energy");
  checks.require(report.mean_latency_ms > 0.0, "non-positive latency");
}

std::vector<std::pair<float, float>> lambdas_of(
    const runtime::PipelineReport& report) {
  std::vector<std::pair<float, float>> out;
  out.reserve(report.frame_stats.size());
  for (const runtime::FrameStats& s : report.frame_stats) {
    out.emplace_back(s.lambda_energy, s.lambda_latency);
  }
  return out;
}

// ---- modes ---------------------------------------------------------------------

int run_setup(const Workload& w) {
  const auto engine_start = Clock::now();
  const core::EcoFusionEngine engine;
  const double engine_ms = ms_since(engine_start);

  const auto first_start = Clock::now();
  std::unique_ptr<gating::Gate> gate = make_gate(engine, w.gate);
  runtime::StreamConfig config = w.stream;
  config.prefetch = 0;
  runtime::FrameStream stream(config);
  const std::optional<runtime::StreamFrame> first = stream.next();
  if (!first) return 1;
  exec::TemporalStemCache stem_cache(engine.stems());
  exec::FrameArena arena;
  exec::FrameWorkspace ws(engine, first->frame, &stem_cache,
                          first->sequence_id, true, &arena);
  const std::size_t selected =
      engine.select_adaptive(ws, *gate, w.pipeline.joint).config_index;
  const core::RunResult run =
      engine.run_selected(ws, selected, gate->complexity());
  const double first_frame_ms = ms_since(first_start);
  const double setup_s = seconds_since(g_process_start);

  JsonOut m;
  m.num("setup_s", setup_s);
  m.num("setup.engine_ms", engine_ms);
  m.num("setup.first_frame_ms", first_frame_ms);
  Checks checks;
  checks.attempted = 1;
  checks.require(run.energy_j > 0.0, "first frame: non-positive energy");
  emit(m, checks, 1);
  return 0;
}

/// Closed-loop latency statistics of replay passes: each pass contributes
/// its own p50/p95/throughput/CPU, and the run reports the median over
/// passes, so a contended stretch of the host moves at most a few passes.
struct LoopStats {
  std::vector<double> p50, p95, fps, cpu_ms;
  std::size_t frames = 0;

  void add(const std::vector<double>& frame_ms, double cpu_s) {
    double busy_ms = 0.0;
    for (double ms : frame_ms) busy_ms += ms;
    const double n = static_cast<double>(frame_ms.size());
    p50.push_back(percentile(frame_ms, 50.0));
    p95.push_back(percentile(frame_ms, 95.0));
    fps.push_back(n * 1000.0 / busy_ms);
    cpu_ms.push_back(cpu_s * 1000.0 / n);
    frames += frame_ms.size();
  }
};

/// Closed-loop replay passes over `frames` on the calling thread, each
/// checked against `reference`. Both pass kinds return their wall time in
/// seconds.
struct ClosedLoop {
  const core::EcoFusionEngine& engine;
  gating::Gate& gate;
  const std::vector<ReplayFrame>& frames;
  const core::JointOptParams& joint;
  const std::vector<std::pair<float, float>>* lambdas;
  const std::vector<FrameRecord>& reference;
  const char* what;
  exec::FrameArena arena;
  LoopStats stats;                  // untraced passes
  std::size_t tensor_allocs = 0;    // over untraced passes
  std::vector<PassLayers> traced;   // traced passes

  double pass(Checks& checks) {
    const auto start = Clock::now();
    const double cpu_before = cpu_seconds();
    const ReplayResult result =
        replay(engine, gate, frames, joint, lambdas, arena, nullptr, false);
    stats.add(result.layers.frame_ms, cpu_seconds() - cpu_before);
    tensor_allocs += result.tensor_allocs;
    checks.compare(what, reference, result.records);
    return seconds_since(start);
  }

  /// A pass with a span around each layer call (`pull_stems` separates the
  /// stem time from the gate time for gates that read F).
  double traced_pass(Checks& checks, SpanLog& log, bool pull_stems) {
    const auto start = Clock::now();
    ReplayResult result =
        replay(engine, gate, frames, joint, lambdas, arena, &log, pull_stems);
    checks.compare(what, reference, result.records);
    traced.push_back(std::move(result.layers));
    return seconds_since(start);
  }
};

/// Share of a stream workload's timed phase spent in pipeline passes; the
/// rest goes to closed-loop replay passes (frame_ms_p50/p95). The two kinds
/// of pass alternate, so both sample the whole timed phase.
constexpr double kPipelineShare = 0.75;

/// Stream workloads, untraced: warm-up pass (the reference), then for
/// `seconds` pipeline passes interleaved with single-thread replay passes
/// that check every frame against the pipeline and give the closed-loop
/// per-frame latency on this workload's frames (render excluded).
int run_stream_e2e(const Workload& w, double seconds) {
  const core::EcoFusionEngine engine;
  Checks checks;
  const std::size_t total = runtime::FrameStream(w.stream).total_frames();

  const Rep warm = run_pipeline_rep(engine, w);
  const std::vector<FrameRecord> reference = records_of(warm.report);
  check_quality(checks, warm.report, total);

  const RenderedStream rendered = render_stream(w.stream);
  const std::vector<ReplayFrame> frames = rendered.replay_frames();
  std::unique_ptr<gating::Gate> gate = make_gate(engine, w.gate);
  const std::vector<std::pair<float, float>> lambdas = lambdas_of(warm.report);
  ClosedLoop loop{engine,   *gate,     frames, w.pipeline.joint,
                  &lambdas, reference, "single-thread replay vs pipeline",
                  {},       {},        0,      {}};

  std::vector<double> fps;
  std::vector<double> cpu_ms;
  double pipeline_s = 0.0;
  double loop_s = 0.0;
  const auto timed_start = Clock::now();
  while (fps.empty() || loop.stats.p50.empty() ||
         seconds_since(timed_start) < seconds) {
    if (loop_s * kPipelineShare < pipeline_s * (1.0 - kPipelineShare)) {
      loop_s += loop.pass(checks);
      continue;
    }
    const Rep rep = run_pipeline_rep(engine, w);
    const double n = static_cast<double>(rep.report.frames);
    fps.push_back(n / rep.wall_s);
    cpu_ms.push_back(rep.cpu_s * 1000.0 / n);
    pipeline_s += rep.wall_s;
    checks.compare("timed pass vs first pass", reference,
                   records_of(rep.report));
  }

  JsonOut m;
  m.num("fps", median(fps));
  m.num("cpu_ms_per_frame", median(cpu_ms));
  m.num("frame_ms_p50", median(loop.stats.p50));
  m.num("frame_ms_p95", median(loop.stats.p95));
  m.num("peak_rss_mb", peak_rss_mb());
  add_quality(m, warm.report);
  emit(m, checks, fps.size());
  return 0;
}

/// attention_latency, untraced: frames pre-rendered; a reference pass
/// through the plain engine entry point (transient workspace, no stem
/// cache, no arena); a warm-up pass; then closed-loop passes for
/// `seconds`, each with a fresh temporal stem cache so every pass sees the
/// same hit/miss pattern.
int run_latency_e2e(const Workload& w, double seconds) {
  const core::EcoFusionEngine engine;
  Checks checks;
  const RenderedStream rendered = render_stream(w.stream);
  const std::vector<ReplayFrame> frames = rendered.replay_frames();
  std::unique_ptr<gating::Gate> gate = make_gate(engine, w.gate);

  std::vector<FrameRecord> reference;
  reference.reserve(frames.size());
  for (const ReplayFrame& f : frames) {
    reference.push_back(
        record_of(engine.run_adaptive(*f.frame, *gate, w.pipeline.joint).run));
  }

  ClosedLoop loop{engine,  *gate,     frames, w.pipeline.joint,
                  nullptr, reference, "closed-loop pass vs plain engine",
                  {},      {},        0,      {}};
  const ReplayResult warm = replay(engine, *gate, frames, w.pipeline.joint,
                                   nullptr, loop.arena, nullptr, false);
  checks.compare("warm-up pass vs plain engine", reference, warm.records);
  check_quality(checks, warm.report, frames.size());

  const auto timed_start = Clock::now();
  while (loop.stats.p50.empty() || seconds_since(timed_start) < seconds) {
    (void)loop.pass(checks);
  }

  JsonOut m;
  m.num("fps", median(loop.stats.fps));
  m.num("cpu_ms_per_frame", median(loop.stats.cpu_ms));
  m.num("frame_ms_p50", median(loop.stats.p50));
  m.num("frame_ms_p95", median(loop.stats.p95));
  m.num("peak_rss_mb", peak_rss_mb());
  add_quality(m, warm.report);
  emit(m, checks, loop.stats.frames);
  return 0;
}

/// Per-layer metrics shared by both trace paths.
void add_layer_metrics(JsonOut& m, const std::vector<PassLayers>& passes,
                       double untraced_frame_us, double render_us,
                       bool render_in_frame) {
  std::array<std::vector<double>, kNumLayers> per_layer;
  std::vector<double> traced_ms;
  for (const PassLayers& p : passes) {
    const double frames = static_cast<double>(p.frames);
    for (std::size_t l = 0; l < kNumLayers; ++l) {
      per_layer[l].push_back(p.us[l] / frames);
    }
    traced_ms.insert(traced_ms.end(), p.frame_ms.begin(), p.frame_ms.end());
  }
  double layer_sum = 0.0;
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    layer_sum += median(per_layer[l]);
  }
  const PassLayers& last = passes.back();
  m.num("dataset.render_us", render_us);
  m.num("stems.self_us", median(per_layer[kStems]));
  m.num("exec.self_us", median(per_layer[kExec]));
  m.num("gating.self_us", median(per_layer[kGating]));
  m.num("detect.self_us", median(per_layer[kDetect]));
  m.num("fusion.self_us", median(per_layer[kFusion]));
  m.num("eval.map_ms", median(per_layer[kEval]) *
                           static_cast<double>(last.frames) / 1000.0);
  const auto unique = static_cast<double>(last.scans_unique);
  m.num("exec.scans_unique_per_frame",
        unique / static_cast<double>(last.frames));
  m.num("exec.scan_dedup_ratio",
        unique == 0.0
            ? 0.0
            : static_cast<double>(last.scans_requested) / unique);
  m.num("exec.stem_cache_hit_pct",
        last.stem_lookups == 0
            ? 0.0
            : 100.0 * static_cast<double>(last.stem_hits) /
                  static_cast<double>(last.stem_lookups));
  const double accounted = layer_sum + (render_in_frame ? render_us : 0.0);
  m.num("runtime.residual_us", untraced_frame_us - accounted);
  m.num("trace.coverage_pct", 100.0 * accounted / untraced_frame_us);
  m.num("trace.frame_ms_p99", percentile(traced_ms, 99.0));
}

/// Stream workloads, traced: untraced pipeline passes (wall time per frame
/// and the pipeline's scheduler/exec counters) alternate with traced
/// single-thread replay passes, half of `seconds` each, so the layer split
/// and its coverage base come from the same stretch of host time.
int run_stream_trace(const Workload& w, double seconds,
                     const std::string& trace_out) {
  const core::EcoFusionEngine engine;
  Checks checks;
  const std::size_t total = runtime::FrameStream(w.stream).total_frames();
  const Rep warm = run_pipeline_rep(engine, w);
  const std::vector<FrameRecord> reference = records_of(warm.report);
  check_quality(checks, warm.report, total);

  const RenderedStream rendered = render_stream(w.stream);
  const std::vector<ReplayFrame> frames = rendered.replay_frames();
  std::unique_ptr<gating::Gate> gate = make_gate(engine, w.gate);
  const std::vector<std::pair<float, float>> lambdas = lambdas_of(warm.report);
  ClosedLoop loop{engine,   *gate,     frames, w.pipeline.joint,
                  &lambdas, reference, "traced replay vs pipeline",
                  {},       {},        0,      {}};
  SpanLog log;

  std::vector<double> frame_us;
  std::vector<double> tasks, queue_us, barrier_us, parks, ingest_us;
  std::size_t steady_allocs = 0;
  std::size_t steady_frames = 0;
  std::size_t arena_bytes = 0;
  double mean_batch = 0.0;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  const auto start = Clock::now();
  while (frame_us.empty() || loop.traced.empty() ||
         seconds_since(start) < seconds) {
    if (traced_s < untraced_s) {
      traced_s += loop.traced_pass(checks, log, w.gate == GateKind::kAttention);
      continue;
    }
    const Rep rep = run_pipeline_rep(engine, w);
    const runtime::PipelineReport& r = rep.report;
    checks.compare("timed pass vs first pass", reference, records_of(r));
    untraced_s += rep.wall_s;
    const double n = static_cast<double>(r.frames);
    frame_us.push_back(rep.wall_s * 1e6 / n);
    tasks.push_back(static_cast<double>(r.scheduler.tasks_executed) / n);
    queue_us.push_back(static_cast<double>(r.scheduler.queue_wait_ns) / 1e3 /
                       n);
    barrier_us.push_back(static_cast<double>(r.scheduler.barrier_wait_ns) /
                         1e3 / n);
    parks.push_back(static_cast<double>(r.scheduler.parks) / n);
    ingest_us.push_back(static_cast<double>(r.scheduler.ingest_blocked_ns) /
                        1e3 / n);
    // Steady state: every frame past the first two windows (one per
    // ping-ponged slot set).
    for (std::size_t i = 2 * w.pipeline.window; i < r.frame_stats.size();
         ++i) {
      steady_allocs += r.frame_stats[i].tensor_allocs;
      ++steady_frames;
    }
    arena_bytes = std::max(arena_bytes, r.exec.arena_bytes_high_water);
    mean_batch = r.exec.mean_batch;
  }

  JsonOut m;
  add_layer_metrics(m, loop.traced, median(frame_us),
                    mean(rendered.render_us), /*render_in_frame=*/true);
  m.num("runtime.ingest_blocked_us", median(ingest_us));
  m.num("runtime.tasks_per_frame", median(tasks));
  m.num("runtime.queue_wait_us", median(queue_us));
  m.num("runtime.barrier_wait_us", median(barrier_us));
  m.num("runtime.parks_per_frame", median(parks));
  m.num("runtime.final_lambda_energy", warm.report.final_lambda);
  m.num("exec.mean_batch", mean_batch);
  m.num("exec.steady_tensor_allocs",
        static_cast<double>(steady_allocs) /
            static_cast<double>(std::max<std::size_t>(1, steady_frames)));
  m.num("exec.arena_kb", static_cast<double>(arena_bytes) / 1024.0);
  if (!trace_out.empty()) log.write_chrome_trace(trace_out);
  emit(m, checks, loop.traced.size());
  return 0;
}

/// attention_latency, traced: untraced closed-loop passes (the coverage
/// base) alternate with traced passes over the same frames.
int run_latency_trace(const Workload& w, double seconds,
                      const std::string& trace_out) {
  const core::EcoFusionEngine engine;
  Checks checks;
  const RenderedStream rendered = render_stream(w.stream);
  const std::vector<ReplayFrame> frames = rendered.replay_frames();
  std::unique_ptr<gating::Gate> gate = make_gate(engine, w.gate);

  exec::FrameArena warm_arena;
  const ReplayResult warm = replay(engine, *gate, frames, w.pipeline.joint,
                                   nullptr, warm_arena, nullptr, false);
  check_quality(checks, warm.report, frames.size());
  ClosedLoop loop{engine,  *gate,       frames, w.pipeline.joint,
                  nullptr, warm.records, "closed-loop pass vs warm-up",
                  {},      {},           0,      {}};
  (void)loop.pass(checks);  // warms this loop's arena
  loop.stats = {};
  loop.tensor_allocs = 0;

  SpanLog log;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  const auto start = Clock::now();
  while (loop.stats.fps.empty() || loop.traced.empty() ||
         seconds_since(start) < seconds) {
    if (traced_s < untraced_s) {
      traced_s += loop.traced_pass(checks, log, /*pull_stems=*/true);
    } else {
      untraced_s += loop.pass(checks);
    }
  }
  std::vector<double> frame_us;
  for (double fps : loop.stats.fps) frame_us.push_back(1e6 / fps);

  JsonOut m;
  add_layer_metrics(m, loop.traced, median(frame_us),
                    mean(rendered.render_us), /*render_in_frame=*/false);
  // No pool and no stream in the closed loop: the runtime layer is absent.
  m.num("runtime.ingest_blocked_us", 0.0);
  m.num("runtime.tasks_per_frame", 0.0);
  m.num("runtime.queue_wait_us", 0.0);
  m.num("runtime.barrier_wait_us", 0.0);
  m.num("runtime.parks_per_frame", 0.0);
  m.num("runtime.final_lambda_energy", w.pipeline.joint.lambda_energy);
  m.num("exec.mean_batch", 1.0);
  m.num("exec.steady_tensor_allocs",
        static_cast<double>(loop.tensor_allocs) /
            static_cast<double>(loop.stats.frames));
  m.num("exec.arena_kb",
        static_cast<double>(loop.arena.bytes_high_water()) / 1024.0);
  if (!trace_out.empty()) log.write_chrome_trace(trace_out);
  emit(m, checks, loop.traced.size());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <knowledge_stream|"
               "attention_stream|attention_latency> --seed <n> --seconds <s> "
               "--mode <setup|e2e|trace> [--trace-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Every ECO_* variable changes what the library runs (backend, kernels,
  // prefetch, stealing, window pipelining, tracing); the benchmark only
  // measures the default configuration.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "ECO_", 4) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *env);
      return 2;
    }
  }
  std::string workload;
  std::string mode;
  std::string trace_out;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--mode") {
      mode = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace-out") {
      trace_out = value;
    } else {
      return usage();
    }
  }
  if (workload.empty() || mode.empty() || !have_seed || !(seconds > 0.0)) {
    return usage();
  }
  try {
    const Workload w = make_workload(workload, seed);
    if (mode == "setup") return run_setup(w);
    if (mode == "e2e") {
      return w.closed_loop ? run_latency_e2e(w, seconds)
                           : run_stream_e2e(w, seconds);
    }
    if (mode == "trace") {
      return w.closed_loop ? run_latency_trace(w, seconds, trace_out)
                           : run_stream_trace(w, seconds, trace_out);
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
