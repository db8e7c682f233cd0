// Network front-end benchmark, written to BENCH_net.json.
//
// Boots the full serving stack in-process — synthetic CUB-like world,
// frozen encoder, 2-shard flat index behind a SnapshotManager, MatchApp
// admission control, epoll HttpServer on an ephemeral loopback port —
// and drives it with the open-loop Poisson load generator:
//
//   1. nominal  — offered load well inside capacity. The CI gate
//                 (tools/check_bench_regression.py --net) requires zero
//                 5xx responses, zero transport errors, and p99 under
//                 the ceiling here.
//   2. overload — offered load far above capacity. Informational: shows
//                 admission control shedding (429s) instead of latency
//                 collapse; the gate only checks that the server
//                 answered (no transport errors ≈ no hangs/crashes).
//
// Latencies are measured from the *scheduled* Poisson arrival, so
// server-induced queueing is charged to the server (no coordinated
// omission). CI boxes are single-core and noisy — the nominal arm is
// deliberately modest.
//
// A TimeSeriesRecorder samples the metrics registry throughout the run;
// its sample/drop counts are embedded in BENCH_net.json under
// "recorder" (nominal_dropped = ticks lost during the nominal arm — the
// gate fails when that is nonzero), and the full ring dump plus the
// tail-sampled request traces are written to CROSSEM_BENCH_HISTORY_JSON
// / CROSSEM_BENCH_TRACEZ_JSON (defaults: BENCH_net.history.json,
// BENCH_net.tracez.json) for the CI artifact upload.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "clip/clip.h"
#include "data/dataset.h"
#include "net/loadgen.h"
#include "net/match_app.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/tracez.h"
#include "serve/index.h"
#include "serve/snapshot.h"
#include "text/tokenizer.h"
#include "util/random.h"

namespace crossem {
namespace {

struct World {
  data::CrossModalDataset dataset;
  std::unique_ptr<clip::ClipModel> model;
  std::unique_ptr<text::Tokenizer> tokenizer;
  std::unique_ptr<core::CrossEm> matcher;
};

std::unique_ptr<World> BuildWorld() {
  auto w = std::make_unique<World>();
  w->dataset = data::BuildDataset(data::CubLikeConfig(0.4));
  clip::ClipConfig cc;
  cc.vocab_size = w->dataset.vocab.size();
  cc.text_context = 32;
  cc.model_dim = 16;
  cc.text_layers = 1;
  cc.text_heads = 2;
  cc.image_layers = 1;
  cc.image_heads = 2;
  cc.patch_dim = w->dataset.world->config().patch_dim;
  cc.max_patches = 16;
  cc.embed_dim = 12;
  Rng rng(5);
  w->model = std::make_unique<clip::ClipModel>(cc, &rng);
  w->tokenizer =
      std::make_unique<text::Tokenizer>(&w->dataset.vocab, cc.text_context);
  core::CrossEmOptions options;
  options.prompt_mode = core::PromptMode::kHard;
  w->matcher = std::make_unique<core::CrossEm>(
      w->model.get(), &w->dataset.graph, w->tokenizer.get(), options);
  return w;
}

std::unique_ptr<serve::EmbeddingIndex> BuildIndex(const World& w) {
  const std::vector<int64_t> test_rows = w.dataset.TestImageIndices();
  Tensor images = w.dataset.StackImages(test_rows);
  Tensor embeddings = w.matcher->EncodeImages(images);
  std::vector<std::string> ids;
  for (int64_t i = 0; i < embeddings.size(0); ++i) {
    ids.push_back("img" + std::to_string(i));
  }
  auto index = std::make_unique<serve::FlatIndex>();
  if (!index->Add(embeddings, ids).ok()) std::abort();
  index->set_model_fingerprint(w.matcher->EncoderFingerprint());
  return index;
}

void WriteTextFile(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << body;
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace crossem

int main(int argc, char** argv) {
  using namespace crossem;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  const char* env = std::getenv("CROSSEM_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_net.json";

  auto world = BuildWorld();

  serve::EngineOptions eo;
  eo.shards = 2;
  serve::SnapshotManager manager(world->matcher.get(), eo);
  if (auto st = manager.SwapIndex(BuildIndex(*world), "bench"); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  net::MatchAppOptions app_options;
  app_options.admission.max_inflight = 64;
  // The bench measures server capacity, not quota policy: the single
  // bench tenant gets effectively unlimited rate.
  app_options.admission.tenant_rate = 100000.0;
  app_options.admission.tenant_burst = 100000.0;
  // Trace every request so the tracez dump has material; the tracez
  // ring tail-samples what it keeps.
  app_options.trace_all_requests = true;
  net::MatchApp app(&world->dataset.graph, &manager, app_options);

  // Flight recorder alongside the arms: 100ms ticks are coarse enough
  // that even a noisy single-core CI box keeps up — a dropped tick
  // during the nominal arm therefore indicates a real stall and fails
  // the gate (check_bench_regression.py --net-expect-recorder).
  obs::TimeSeriesOptions ts_options;
  ts_options.interval_micros = 100 * 1000;
  obs::TimeSeriesRecorder recorder(&obs::MetricsRegistry::Default(),
                                   ts_options);
  app.set_recorder(&recorder);
  recorder.Start();

  net::HttpServerOptions server_options;
  server_options.port = 0;  // ephemeral
  server_options.workers = 4;
  net::HttpServer server(server_options, [&app](const net::HttpRequest& r) {
    return app.Handle(r);
  });
  if (auto st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("serving on 127.0.0.1:%d\n", server.port());

  std::vector<std::string> entities;
  for (graph::VertexId v : world->dataset.entities) {
    entities.push_back(world->dataset.graph.VertexLabel(v));
  }

  struct ArmSpec {
    const char* name;
    double qps;
  };
  const std::vector<ArmSpec> specs = {
      {"nominal", quick ? 15.0 : 25.0},
      {"overload", quick ? 80.0 : 150.0},
  };
  std::vector<net::LoadGenReport> arms;
  net::RecorderSummary recorder_summary;
  for (size_t a = 0; a < specs.size(); ++a) {
    net::LoadGenOptions options;
    options.port = server.port();
    options.entities = entities;
    options.qps = specs[a].qps;
    options.duration_micros = quick ? 1200 * 1000 : 2500 * 1000;
    options.connections = 2;
    options.tenant = "bench";
    options.k = 10;
    options.seed = 11 + a;
    options.name = specs[a].name;
    auto report = net::RunLoadGen(options);
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    const net::LoadGenReport& r = report.value();
    std::printf(
        "arm %s: offered %.1f achieved %.1f qps | sent %lld "
        "transport_errors %lld 200:%lld 206:%lld 429:%lld 5xx:%lld | "
        "p50 %lldus p99 %lldus\n",
        r.name.c_str(), r.offered_qps, r.achieved_qps,
        static_cast<long long>(r.sent),
        static_cast<long long>(r.transport_errors),
        static_cast<long long>(r.status_200),
        static_cast<long long>(r.status_206),
        static_cast<long long>(r.status_429),
        static_cast<long long>(r.status_5xx),
        static_cast<long long>(r.latency_p50_us),
        static_cast<long long>(r.latency_p99_us));
    arms.push_back(r);
    if (std::string(specs[a].name) == "nominal") {
      // Drop count right after the nominal arm: losses during overload
      // (an intentionally saturated box) don't count against the gate.
      recorder_summary.nominal_dropped = recorder.GetStats().dropped;
    }
  }
  server.Stop();

  const obs::TimeSeriesRecorder::Stats ts_stats = recorder.GetStats();
  recorder_summary.samples = ts_stats.samples;
  recorder_summary.dropped = ts_stats.dropped;
  std::printf("recorder: %lld samples, %lld dropped (%lld during nominal)\n",
              static_cast<long long>(recorder_summary.samples),
              static_cast<long long>(recorder_summary.dropped),
              static_cast<long long>(recorder_summary.nominal_dropped));

  const char* history_env = std::getenv("CROSSEM_BENCH_HISTORY_JSON");
  WriteTextFile(
      history_env != nullptr ? history_env : "BENCH_net.history.json",
      recorder.RenderJson());
  const char* tracez_env = std::getenv("CROSSEM_BENCH_TRACEZ_JSON");
  WriteTextFile(tracez_env != nullptr ? tracez_env : "BENCH_net.tracez.json",
                obs::TracezBuffer::Default().RenderJson());
  recorder.Stop();
  manager.Shutdown();

  if (auto st = net::WriteBenchNetJson(path, arms, &recorder_summary);
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
