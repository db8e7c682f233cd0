// Workloads `serve_cold` and `serve_hot`: HTTP /v1/match, closed loop,
// against the stack `crossem_serve http` ships (4 HTTP workers,
// max_batch 16, max_wait_us 2000), served in-process on a loopback port.
//
//   serve_cold — MatchService over an int8 flat index with f32 re-rank;
//                uniform traffic over an entity set 16x the cache.
//   serve_hot  — ShardedMatchService (2 shards) over an f32 flat index;
//                traffic skewed onto a hot set the cache holds, while
//                POST /admin/snapshot swaps between two index files.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "checks.h"
#include "core/crossem.h"
#include "data/dataset.h"
#include "graph/json.h"
#include "net/http.h"
#include "net/loadgen.h"
#include "net/match_app.h"
#include "net/server.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/trace.h"
#include "pipebench.h"
#include "serve/index.h"
#include "serve/service.h"
#include "serve/sharded.h"
#include "serve/snapshot.h"
#include "spans.h"
#include "stats.h"
#include "tensor/ops.h"
#include "util/timer.h"

namespace pipebench {
namespace {

using namespace crossem;

// Inputs and load shape (README.md, "Seeds and inputs"). The world and
// its graph are a fixed reference dataset; --seed draws the model
// initialization, the image repositories, the hot set and the request
// schedule.
constexpr uint64_t kWorldSeed = 3001;
constexpr int64_t kEntities = 1024;
constexpr int64_t kRepoRows = 24576;
constexpr int64_t kPatchesPerImage = 8;
constexpr int64_t kAttrsShown = 4;
constexpr int64_t kCacheCapacity = 64;
constexpr int64_t kTopK = 10;
constexpr int64_t kHotSet = 32;
constexpr double kHotShare = 0.9;
constexpr int64_t kShards = 2;
constexpr double kSwapIntervalS = 1.0;
constexpr int64_t kTenants = 512;
constexpr double kWarmupS = 1.5;
constexpr double kEngineDirectS = 1.5;
constexpr double kRecallFloor = 0.9;
constexpr double kSimilarityTol = 1e-5;
constexpr int kLayerReps = 200;
constexpr int kFileReps = 5;
constexpr int64_t kKeptPerClient = 1000;
constexpr size_t kSingleIndexChecks = 64;


/// A checked answer kept for the exact checks run after the window.
struct Kept {
  int64_t entity = 0;
  ServedAnswer answer;
};

/// One POST /admin/snapshot, then the GET that confirms it.
struct Swap {
  int64_t version = 0;  // the snapshot version the swap should create
  double seconds = 0.0;
  std::string violation;  // empty when the swap took effect as posted
};

/// What one load phase saw. Every answer's status, shape,
/// probabilities and source file are checked as it arrives; a seeded
/// reservoir of kKeptPerClient answers per client is kept for the exact
/// top-k checks, so the benchmark's own memory does not grow with
/// throughput.
struct LoadResult {
  std::vector<double> ms;  // round trips answered 200
  int64_t sent = 0;
  int64_t failed = 0;
  int64_t checks = 0;
  int64_t violated = 0;
  std::vector<std::string> violations;  // the first few
  std::set<int64_t> versions;  // snapshot versions seen in answers
  std::vector<Kept> kept;
  std::vector<Swap> swaps;
  double elapsed_s = 0.0;

  void Check(std::string violation) {
    ++checks;
    if (violation.empty()) return;
    ++violated;
    if (violations.size() < 20) violations.push_back(std::move(violation));
  }

  void Merge(LoadResult&& other) {
    ms.insert(ms.end(), other.ms.begin(), other.ms.end());
    sent += other.sent;
    failed += other.failed;
    checks += other.checks;
    violated += other.violated;
    for (std::string& v : other.violations) violations.push_back(std::move(v));
    for (Kept& k : other.kept) kept.push_back(std::move(k));
    versions.insert(other.versions.begin(), other.versions.end());
  }
};

net::HttpRequest MakeRequest(const std::string& method,
                             const std::string& target, std::string body) {
  net::HttpRequest request;
  request.method = method;
  request.target = target;
  request.version = "HTTP/1.1";
  request.headers = {{"Host", "127.0.0.1"}};
  if (!body.empty()) {
    request.headers.emplace_back("Content-Type", "application/json");
  }
  request.body = std::move(body);
  return request;
}

class ServeBench {
 public:
  ServeBench(const RunOptions& options, bool hot)
      : options_(options), hot_(hot) {
    data::DatasetConfig dc = data::CubLikeConfig(1.0);
    dc.world.num_classes = kEntities;
    dc.images_per_class = 1;
    dc.seed = kWorldSeed;
    dataset_ = data::BuildDataset(dc);
    for (int64_t c = 0; c < kEntities; ++c) {
      const graph::VertexId v = dataset_.entities[static_cast<size_t>(c)];
      entities_.push_back(v);
      labels_.push_back(obs::JsonString(dataset_.graph.VertexLabel(v)));
    }

    // An untrained model of the tune workload's shape: accuracy is the
    // tune workload's concern, the serving path's cost is not.
    const clip::ClipConfig cc = ModelConfig(
        dataset_.vocab.size(), dataset_.world->config().patch_dim);
    tokenizer_ =
        std::make_unique<text::Tokenizer>(&dataset_.vocab, cc.text_context);
    Rng model_rng(options.seed * 31 + 7);
    model_ = std::make_unique<clip::ClipModel>(cc, &model_rng);
    matcher_ = std::make_unique<core::CrossEm>(
        model_.get(), &dataset_.graph, tokenizer_.get(),
        core::CrossEmPlusOptions());

    dir_ = options.out_dir + "/tmp-" + std::to_string(getpid());
    std::filesystem::create_directories(dir_);
    files_.push_back(BuildIndexFile("a/", options.seed * 7 + 1));
    if (hot_) files_.push_back(BuildIndexFile("b/", options.seed * 7 + 2));

    serve::EngineOptions eo;  // crossem_serve http defaults, but:
    eo.base.cache_capacity = kCacheCapacity;
    eo.shards = hot_ ? kShards : 1;
    base_options_ = eo.base;
    manager_ = std::make_unique<serve::SnapshotManager>(matcher_.get(), eo);
    Status loaded = manager_->LoadAndSwap(files_[0].path);
    CROSSEM_CHECK(loaded.ok()) << loaded.ToString();
    app_ = std::make_unique<net::MatchApp>(&dataset_.graph, manager_.get(),
                                           net::MatchAppOptions());
    server_ = std::make_unique<net::HttpServer>(
        net::HttpServerOptions(),
        [this](const net::HttpRequest& r) { return app_->Handle(r); });
    Status started = server_->Start();
    CROSSEM_CHECK(started.ok()) << started.ToString();

    Rng hot_rng(options.seed * 13 + 3);
    std::vector<int64_t> order(static_cast<size_t>(kEntities));
    for (int64_t i = 0; i < kEntities; ++i) order[static_cast<size_t>(i)] = i;
    hot_rng.Shuffle(&order);
    hot_set_.assign(order.begin(), order.begin() + kHotSet);
  }

  ~ServeBench() {
    server_->Stop();
    manager_->Shutdown();
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  /// Closed-loop load for `seconds`: options_.clients connections, plus
  /// (hot, `swaps`) one admin connection swapping the index file every
  /// kSwapIntervalS. `phase` keys the request schedule.
  LoadResult RunLoad(double seconds, bool traced, bool swaps, uint64_t phase) {
    std::vector<LoadResult> per_client(static_cast<size_t>(options_.clients));
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (int c = 0; c < options_.clients; ++c) {
      threads.emplace_back([&, c] {
        const uint64_t stream =
            options_.seed * 1000003 + phase * 101 + static_cast<uint64_t>(c);
        Rng rng(stream);
        Rng keep_rng(stream ^ 0x5eedULL);
        net::HttpClient client("127.0.0.1", server_->port());
        LoadResult& log = per_client[static_cast<size_t>(c)];
        log.ms.reserve(static_cast<size_t>(seconds * 4000));
        for (int64_t i = 0; Clock::now() < deadline; ++i) {
          const int64_t entity = PickEntity(&rng);
          net::HttpRequest request = MakeRequest(
              "POST", "/v1/match",
              "{\"entity\":" + labels_[static_cast<size_t>(entity)] +
                  ",\"k\":" + std::to_string(kTopK) + "}");
          request.headers.emplace_back(
              "x-tenant", "t" + std::to_string((i * options_.clients + c) %
                                               kTenants));
          if (traced) {
            request.headers.emplace_back(
                "traceparent",
                obs::FormatTraceparent(obs::MintTraceId(), obs::MintSpanId()));
          }
          const Clock::time_point sent = Clock::now();
          auto response = client.RoundTrip(request, 10 * 1000 * 1000);
          const double ms =
              std::chrono::duration<double, std::milli>(Clock::now() - sent)
                  .count();
          ++log.sent;
          const int status = response.ok() ? response.value().status : 0;
          if (status != 200) {
            ++log.failed;
            log.Check("request for entity " + std::to_string(entity) +
                           " got HTTP " + std::to_string(status));
            continue;
          }
          log.ms.push_back(ms);
          Kept kept{entity, ServedAnswer()};
          std::string error;
          if (!ParseServedAnswer(status, response.value().body, &kept.answer,
                                 &error)) {
            log.Check(error);
            continue;
          }
          log.versions.insert(kept.answer.snapshot_version);
          log.Check(CheckComplete(kept.answer, kTopK));
          log.Check(CheckProbabilities(kept.answer));
          const std::string& prefix =
              FileFor(kept.answer.snapshot_version).prefix;
          log.Check(CheckIdPrefix(kept.answer, prefix));
          // Reservoir sampling (Algorithm R) over this client's answers.
          const int64_t seen = static_cast<int64_t>(log.ms.size());
          if (seen <= kKeptPerClient) {
            log.kept.push_back(std::move(kept));
          } else {
            const int64_t slot = keep_rng.UniformInt(0, seen - 1);
            if (slot < kKeptPerClient) {
              log.kept[static_cast<size_t>(slot)] = std::move(kept);
            }
          }
        }
      });
    }
    LoadResult out;
    if (hot_ && swaps) {
      threads.emplace_back([&] { SwapLoop(start, deadline, &out.swaps); });
    }
    for (std::thread& t : threads) t.join();
    out.elapsed_s = SecondsSince(start);
    for (LoadResult& log : per_client) out.Merge(std::move(log));
    return out;
  }

  /// Exact checks of the kept answers; returns their mean recall@10
  /// against the benchmark's exact f32 top-10.
  double CheckKept(const std::vector<Kept>& kept, RunResult* result) {
    double recall = 0.0;
    for (const Kept& k : kept) {
      IndexFile& file = FileFor(k.answer.snapshot_version);
      const TopK& exact = Exact(file, k.entity);
      if (hot_) {
        result->Check(CheckTopK(k.answer, exact, kSimilarityTol));
        const auto key = std::make_pair(file.prefix, k.entity);
        if (served_.size() < kSingleIndexChecks && served_.count(key) == 0) {
          served_.emplace(key, k.answer);
        }
      } else {
        result->Check(CheckExactSimilarities(k.answer, Query(k.entity).data(),
                                             file.rows, kSimilarityTol));
      }
      recall += RecallAt(k.answer, exact);
    }
    return kept.empty() ? 0.0 : recall / static_cast<double>(kept.size());
  }

  /// The sharded-vs-single contract: a single-index MatchService over
  /// the same file answers exactly what the sharded HTTP stack did.
  void CheckAgainstSingleIndex(RunResult* result) {
    for (const IndexFile& file : files_) {
      auto index = serve::EmbeddingIndex::Load(file.path);
      if (!index.ok()) {
        result->Check("load " + file.path + ": " + index.status().ToString());
        continue;
      }
      serve::MatchService single(matcher_.get(), index.value().get(),
                                 base_options_);
      for (const auto& [key, http_answer] : served_) {
        if (key.first != file.prefix) continue;
        serve::MatchRequest request;
        request.vertex = entities_[static_cast<size_t>(key.second)];
        request.k = kTopK;
        auto direct = single.Match(request);
        if (!direct.ok()) {
          result->Check("single-index Match: " + direct.status().ToString());
          continue;
        }
        ServedAnswer expected;
        expected.status = 200;
        for (const serve::RankedMatch& m : direct.value().matches) {
          expected.matches.push_back(
              ServedMatch{m.image_id, m.image, m.similarity, m.probability});
        }
        result->Check(CheckSameAnswer(http_answer, expected));
      }
      single.Shutdown();
    }
  }

  /// Engine p50 with the HTTP layer removed: the same client count and
  /// request mix calling the live snapshot's Match in-process.
  double EngineDirectMs() {
    std::vector<std::vector<double>> per_client(
        static_cast<size_t>(options_.clients));
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kEngineDirectS));
    std::vector<std::thread> threads;
    for (int c = 0; c < options_.clients; ++c) {
      threads.emplace_back([&, c] {
        Rng rng(options_.seed * 1000003 + 3 * 101 + static_cast<uint64_t>(c));
        while (Clock::now() < deadline) {
          serve::MatchRequest request;
          request.vertex = entities_[static_cast<size_t>(PickEntity(&rng))];
          request.k = kTopK;
          const Clock::time_point t0 = Clock::now();
          serve::SnapshotLease lease = manager_->Acquire();
          auto r = lease->Match(request);
          per_client[static_cast<size_t>(c)].push_back(
              std::chrono::duration<double, std::milli>(Clock::now() - t0)
                  .count());
        }
      });
    }
    for (std::thread& t : threads) t.join();
    std::vector<double> all;
    for (auto& v : per_client) all.insert(all.end(), v.begin(), v.end());
    return Median(all);
  }

  /// Direct calls into the encode, search and snapshot layers with the
  /// workload's inputs, tracing off.
  void TimeLayers(double mean_batch, std::map<std::string, double>* out) {
    Rng rng(options_.seed * 977 + 5);
    const int64_t batch = std::max<int64_t>(1, std::llround(mean_batch));
    std::vector<double> encode;
    for (int r = 0; r < kLayerReps; ++r) {
      std::vector<graph::VertexId> vertices;
      for (int64_t b = 0; b < batch; ++b) {
        vertices.push_back(entities_[static_cast<size_t>(PickEntity(&rng))]);
      }
      Timer t;
      matcher_->EncodeVertices(vertices);
      encode.push_back(t.ElapsedMillis());
    }
    (*out)["core.encode_vertices_ms"] = Median(encode);

    auto loaded = serve::EmbeddingIndex::Load(files_[0].path);
    CROSSEM_CHECK(loaded.ok()) << loaded.status().ToString();
    const serve::EmbeddingIndex& index = *loaded.value();
    const int64_t candidates =
        std::max(kTopK, base_options_.probability_candidates);
    std::unique_ptr<serve::ShardedIndex> sharded;
    if (hot_) {
      serve::ShardedIndexOptions so;
      so.num_shards = kShards;
      auto parts = serve::ShardedIndex::Partition(index, so);
      CROSSEM_CHECK(parts.ok()) << parts.status().ToString();
      sharded = std::move(parts.value());
    }
    std::vector<double> search;
    for (int r = 0; r < kLayerReps; ++r) {
      const std::vector<float>& q = Query(PickEntity(&rng));
      Timer t;
      if (hot_) {
        sharded->SearchShard(0, q.data(), candidates,
                             serve::kNoSearchDeadline);
      } else {
        index.Search(q.data(), candidates);
      }
      search.push_back(t.ElapsedMillis());
    }
    (*out)["serve.search_ms"] = Median(search);
    if (!hot_) return;

    std::vector<double> load, partition;
    for (int r = 0; r < kFileReps; ++r) {
      Timer t;
      auto again = serve::EmbeddingIndex::Load(files_[1].path);
      load.push_back(t.ElapsedMillis());
      CROSSEM_CHECK(again.ok());
      t.Restart();
      serve::ShardedIndexOptions so;
      so.num_shards = kShards;
      auto parts = serve::ShardedIndex::Partition(*again.value(), so);
      partition.push_back(t.ElapsedMillis());
      CROSSEM_CHECK(parts.ok());
    }
    (*out)["serve.snapshot.load_ms"] = Median(load);
    (*out)["serve.sharded.partition_ms"] = Median(partition);
  }

  /// GET /debug/tracez?format=json, saved next to the result file.
  std::string FetchTracez() {
    net::HttpClient client("127.0.0.1", server_->port());
    auto response = client.RoundTrip(
        MakeRequest("GET", "/debug/tracez?format=json", ""), 10 * 1000 * 1000);
    return response.ok() ? response.value().body : std::string();
  }

 private:
  struct IndexFile {
    std::string prefix;
    std::string path;
    Matrix rows;  // the benchmark's own unit rows, index row order
    std::map<int64_t, TopK> exact;  // memoized brute-force top-k
  };

  /// Draws a repository of kRepoRows images, encodes it, and writes the
  /// index file (int8 with f32 re-rank on serve_cold, f32 on serve_hot).
  IndexFile BuildIndexFile(const std::string& prefix, uint64_t seed) {
    Rng rng(seed);
    std::vector<Tensor> images;
    images.reserve(static_cast<size_t>(kRepoRows));
    for (int64_t i = 0; i < kRepoRows; ++i) {
      images.push_back(dataset_.world
                           ->SampleImage(rng.UniformInt(0, kEntities - 1),
                                         kPatchesPerImage, kAttrsShown, &rng)
                           .patches);
    }
    const Tensor embeddings = matcher_->EncodeImages(ops::Stack(images));
    std::vector<std::string> ids;
    for (int64_t i = 0; i < kRepoRows; ++i) {
      ids.push_back(prefix + std::to_string(i));
    }
    serve::FlatIndex index(hot_ ? serve::quant::QuantFormat::kF32
                                : serve::quant::QuantFormat::kInt8);
    CROSSEM_CHECK(index.Add(embeddings, ids).ok());
    index.set_model_fingerprint(matcher_->EncoderFingerprint());
    IndexFile file;
    file.prefix = prefix;
    file.path = dir_ + "/" + prefix.substr(0, 1) + ".idx";
    Status saved = index.Save(file.path);
    CROSSEM_CHECK(saved.ok()) << saved.ToString();
    file.rows = NormalizeRows(ToMatrix(embeddings));
    return file;
  }

  int64_t PickEntity(Rng* rng) const {
    if (hot_ && rng->Bernoulli(kHotShare)) {
      return hot_set_[static_cast<size_t>(rng->UniformInt(0, kHotSet - 1))];
    }
    return rng->UniformInt(0, kEntities - 1);
  }

  /// Snapshot versions alternate files: 1 = the first file, each swap
  /// flips to the other.
  IndexFile& FileFor(int64_t version) {
    return files_[static_cast<size_t>(hot_ ? (version + 1) % 2 : 0)];
  }

  /// The benchmark's own encoding of an entity (one-vertex batch).
  const std::vector<float>& Query(int64_t entity) {
    auto it = queries_.find(entity);
    if (it != queries_.end()) return it->second;
    const Tensor e =
        matcher_->EncodeVertices({entities_[static_cast<size_t>(entity)]});
    return queries_[entity] =
               std::vector<float>(e.data(), e.data() + e.numel());
  }

  const TopK& Exact(IndexFile& file, int64_t entity) {
    auto it = file.exact.find(entity);
    if (it != file.exact.end()) return it->second;
    return file.exact[entity] =
               BruteForceTopK(Query(entity).data(), file.rows, kTopK);
  }

  void SwapLoop(Clock::time_point start, Clock::time_point deadline,
                std::vector<Swap>* swaps) {
    net::HttpClient client("127.0.0.1", server_->port());
    for (int k = 1;; ++k) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(k * kSwapIntervalS));
      if (due >= deadline) return;
      std::this_thread::sleep_until(due);
      const int64_t next_version = manager_->version() + 1;
      const IndexFile& next = FileFor(next_version);
      Swap swap;
      swap.version = next_version;
      const Clock::time_point sent = Clock::now();
      auto posted = client.RoundTrip(
          MakeRequest("POST", "/admin/snapshot",
                      "{\"index\":" + obs::JsonString(next.path) + "}"),
          10 * 1000 * 1000);
      swap.seconds = SecondsSince(sent);
      auto state = client.RoundTrip(MakeRequest("GET", "/admin/snapshot", ""),
                                    10 * 1000 * 1000);
      if (!posted.ok() || posted.value().status != 200) {
        swap.violation = "POST /admin/snapshot failed";
      } else if (!state.ok() || state.value().status != 200) {
        swap.violation = "GET /admin/snapshot failed";
      } else {
        auto doc = graph::ParseJson(state.value().body);
        const graph::JsonValue* version =
            doc.ok() ? doc.value().Find("version") : nullptr;
        const graph::JsonValue* source =
            doc.ok() ? doc.value().Find("source") : nullptr;
        if (version == nullptr || source == nullptr || !version->is_number() ||
            static_cast<int64_t>(version->number_value()) != next_version ||
            !source->is_string() || source->string_value() != next.path) {
          swap.violation = "GET /admin/snapshot after swap to version " +
                           std::to_string(next_version) + " reports " +
                           state.value().body;
        }
      }
      swaps->push_back(std::move(swap));
    }
  }

  const RunOptions options_;
  const bool hot_;
  data::CrossModalDataset dataset_;
  std::vector<graph::VertexId> entities_;
  std::vector<std::string> labels_;  // JSON-quoted entity labels
  std::vector<int64_t> hot_set_;
  std::unique_ptr<text::Tokenizer> tokenizer_;
  std::unique_ptr<clip::ClipModel> model_;
  std::unique_ptr<core::CrossEm> matcher_;
  std::string dir_;
  std::vector<IndexFile> files_;
  serve::MatchServiceOptions base_options_;
  std::unique_ptr<serve::SnapshotManager> manager_;
  std::unique_ptr<net::MatchApp> app_;
  std::unique_ptr<net::HttpServer> server_;
  std::map<int64_t, std::vector<float>> queries_;
  std::map<std::pair<std::string, int64_t>, ServedAnswer> served_;
};

/// Median of the request-scoped spans called `name`, ms.
double SpanMedianMs(const std::map<std::string, SpanTotals>& spans,
                    const char* name) {
  return Median(Totals(spans, name).durations_ms);
}

}  // namespace

RunResult RunServe(const RunOptions& options, bool hot) {
  RunResult result;
  ServeBench bench(options, hot);
  const double setup_s = SecondsSince(options.process_start);

  bench.RunLoad(kWarmupS, /*traced=*/false, /*swaps=*/false, /*phase=*/0);

  // Traced runs spend the first half of the window untraced (the
  // end-to-end numbers and the overhead baseline) and the second half
  // with tracing on and a traceparent on every request.
  const double window = options.trace ? options.seconds / 2 : options.seconds;
  LoadResult plain = bench.RunLoad(window, false, true, 1);
  LoadResult traced;
  std::map<std::string, SpanTotals> spans;
  const int64_t hits0 = CounterValue("crossem_serve_cache_hits_total");
  const int64_t misses0 = CounterValue("crossem_serve_cache_misses_total");
  const int64_t hedges0 = CounterValue("crossem_shard_hedges_total");
  const int64_t retries0 = CounterValue("crossem_shard_retries_total");
  const int64_t pool_hits0 = CounterValue("tensor_pool_hits_total");
  const int64_t pool_misses0 = CounterValue("tensor_pool_misses_total");
  obs::Histogram* batch_hist =
      obs::MetricsRegistry::Default().GetHistogram("crossem_serve_batch_size");
  const int64_t batches0 = batch_hist->count();
  const int64_t batched0 = batch_hist->sum();
  if (options.trace) {
    obs::ClearTrace();
    obs::SetTraceEnabled(true);
    traced = bench.RunLoad(window, true, true, 2);
    obs::SetTraceEnabled(false);
    spans = DrainSpans();
  }

  double recall = 0.0;
  std::vector<double> swap_s;
  for (const LoadResult* load : {&plain, &traced}) {
    result.attempted += load->sent + static_cast<int64_t>(load->swaps.size());
    result.failed += load->failed;
    result.checks += load->checks;
    result.violated += load->violated;
    for (const std::string& v : load->violations) {
      if (result.violations.size() < 20) result.violations.push_back(v);
    }
    for (const Swap& swap : load->swaps) {
      if (!swap.violation.empty()) ++result.failed;
      result.Check(swap.violation);
      // Answers after the swap come from the new snapshot (and, by the
      // per-answer prefix check, from the new file).
      result.Check(load->versions.count(swap.version) > 0
                       ? ""
                       : "no answer came from snapshot version " +
                             std::to_string(swap.version));
      swap_s.push_back(swap.seconds);
    }
    const double r = bench.CheckKept(load->kept, &result);
    if (load == &plain) recall = r;
  }
  result.Check(CheckAbove("recall@10", recall, kRecallFloor));
  if (hot) bench.CheckAgainstSingleIndex(&result);

  const std::vector<double>& ms = plain.ms;
  const double p50 = Median(ms);
  double p99 = 0.0;
  const bool have_p99 = TailPercentile(ms, 0.99, &p99);
  result.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"latency_p50_ms", p50, "ms"},
      {"throughput_per_s", static_cast<double>(ms.size()) / plain.elapsed_s,
       "1/s"},
      {"quality", recall, "1"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  char line[320];
  std::snprintf(line, sizeof(line),
                "%s: %zu requests in %.1fs, p50 %.3fms, p99 %s, %zu swaps "
                "(median %.1fms), recall@10 %.4f",
                options.workload.c_str(), ms.size(), plain.elapsed_s, p50,
                have_p99 ? (std::to_string(p99) + "ms").c_str()
                         : "n/a (<10 samples beyond)",
                plain.swaps.size(), 1e3 * Median(swap_s), recall);
  result.notes.push_back(line);

  if (!options.trace) return result;

  std::map<std::string, double>& L = result.per_layer;
  if (have_p99) L["pipeline.match_p99_ms"] = p99;
  if (hot) L["pipeline.swap_s"] = Median(swap_s);
  auto since = [](const char* counter, int64_t base) {
    return static_cast<double>(CounterValue(counter) - base);
  };
  const double hits = since("crossem_serve_cache_hits_total", hits0);
  const double misses = since("crossem_serve_cache_misses_total", misses0);
  const double hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  const double batches = static_cast<double>(batch_hist->count() - batches0);
  const double mean_batch =
      batches > 0 ? static_cast<double>(batch_hist->sum() - batched0) / batches
                  : 0.0;
  L["serve.cache_hit_rate"] = hit_rate;
  L["serve.batch_size_mean"] = mean_batch;
  const double pool_hits = since("tensor_pool_hits_total", pool_hits0);
  const double pool_all =
      pool_hits + since("tensor_pool_misses_total", pool_misses0);
  L["tensor.pool_hit_rate"] = pool_all > 0 ? pool_hits / pool_all : 0.0;
  const SpanTotals gemm = Totals(spans, "gemm");
  L["tensor.gemm_s"] = gemm.total_s;
  L["tensor.gemm_calls"] = static_cast<double>(gemm.count);
  L["tensor.gemm_gflops"] = gemm.total_s > 0 ? gemm.flops / gemm.total_s * 1e-9
                                             : 0.0;
  L["util.parallel_regions"] =
      static_cast<double>(Totals(spans, "parallel_region").count);
  L["util.parallel_region_s"] = Totals(spans, "parallel_region").total_s;
  L["net.admission_ms"] = SpanMedianMs(spans, "admission");
  L["serve.service_ms"] = SpanMedianMs(spans, "service");
  if (hot) {
    L["serve.sharded.gather_ms"] = SpanMedianMs(spans, "gather");
    L["serve.sharded.shard_search_ms"] = SpanMedianMs(spans, "shard_search");
    L["serve.sharded.hedges"] = since("crossem_shard_hedges_total", hedges0);
    L["serve.sharded.retries"] =
        since("crossem_shard_retries_total", retries0);
  }
  L["serve.index_bytes"] = obs::MetricsRegistry::Default()
                               .GetGauge("crossem_index_bytes")
                               ->Value();
  const double traced_p50 = Median(traced.ms);
  L["obs.trace_overhead_pct"] = 100.0 * (traced_p50 - p50) / p50;

  // The request trees must be visible where operators look for them.
  const std::string tracez = bench.FetchTracez();
  std::vector<std::string> expected = {"admission", "service"};
  if (hot) expected.insert(expected.end(), {"gather", "shard_attempt",
                                            "shard_search"});
  for (const std::string& span : expected) {
    if (tracez.find("\"name\":\"" + span + "\"") == std::string::npos) {
      result.Check("/debug/tracez has no " + span + " span");
    }
  }
  FILE* f = std::fopen((options.out_dir + "/" + options.workload + "-seed" +
                        std::to_string(options.seed) + "-tracez.json")
                           .c_str(),
                       "w");
  if (f != nullptr) {
    std::fwrite(tracez.data(), 1, tracez.size(), f);
    std::fclose(f);
  }

  const double engine_ms = bench.EngineDirectMs();
  L["serve.engine_ms"] = engine_ms;
  L["net.http_overhead_ms"] = p50 - engine_ms;
  bench.TimeLayers(mean_batch, &L);
  L["serve.wait_ms"] = L["serve.service_ms"] -
                       (1.0 - hit_rate) * L["core.encode_vertices_ms"] -
                       L["serve.search_ms"];
  return result;
}

}  // namespace pipebench
