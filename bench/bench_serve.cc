// Serving-layer benchmark: ANN index throughput/recall and MatchService
// micro-batching gains, written to BENCH_serve.json.
//
// Arms:
//   1. Index: flat vs HNSW top-10 QPS and recall@10 on a 30k x 32
//      clustered corpus (acceptance: HNSW >= 5x flat QPS at recall >=
//      0.95). Queries draw from the same cluster mixture as the corpus
//      with wider noise — the contrastive objective trains text
//      embeddings to land in the image-embedding distribution, so
//      in-distribution queries model real serving traffic.
//   2. Cache: service hit rate and QPS across embedding-cache
//      capacities on a repeating vertex workload.
//   3. Service: batched vs unbatched MatchService QPS with 8 client
//      threads over a real (small) CrossEm encoder (acceptance:
//      batched >= 2x unbatched). Traffic is skewed toward a hot set,
//      as production match traffic is, so concurrent duplicate
//      requests coalesce inside a batch (one encode serves them all).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "clip/clip.h"
#include "data/dataset.h"
#include "serve/index.h"
#include "serve/service.h"
#include "text/tokenizer.h"
#include "util/random.h"

namespace crossem {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Draws from a fixed Gaussian mixture: centers come from `center_seed`,
// point noise from `noise_seed`. Corpus and queries share centers (one
// embedding space) but use their own noise seed and spread.
Tensor ClusteredVectors(int64_t n, int64_t dim, uint64_t center_seed,
                        uint64_t noise_seed, float sigma,
                        int64_t clusters = 64) {
  Rng center_rng(center_seed);
  Tensor centers = Tensor::Randn({clusters, dim}, &center_rng, 1.0f);
  Rng rng(noise_seed);
  Tensor out = Tensor::Randn({n, dim}, &rng, sigma);
  float* o = out.data();
  const float* c = centers.data();
  for (int64_t i = 0; i < n; ++i) {
    const int64_t cl = rng.UniformInt(0, clusters - 1);
    for (int64_t d = 0; d < dim; ++d) o[i * dim + d] += c[cl * dim + d];
  }
  return out;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

struct IndexArm {
  std::string backend;
  double build_seconds = 0.0;
  double qps = 0.0;
  double recall_at_10 = 0.0;
};

struct CacheArm {
  int64_t capacity = 0;
  double hit_rate = 0.0;
  double qps = 0.0;
};

struct ServiceArm {
  std::string mode;
  int64_t clients = 0;
  double qps = 0.0;
  double mean_batch = 0.0;
  int64_t latency_p50_us = 0;
  int64_t latency_p99_us = 0;
};

std::vector<IndexArm> RunIndexArms(int64_t n, int64_t dim) {
  std::printf("== index: %lld vectors, dim %lld ==\n",
              static_cast<long long>(n), static_cast<long long>(dim));
  Tensor corpus = ClusteredVectors(n, dim, /*center_seed=*/101,
                                   /*noise_seed=*/101, /*sigma=*/0.25f);
  const int64_t num_queries = 400;
  const int64_t k = 10;
  // Same centers, fresh noise, twice the spread: queries live in the
  // corpus distribution but are not near-duplicates of corpus points.
  Tensor queries = ClusteredVectors(num_queries, dim, /*center_seed=*/101,
                                    /*noise_seed=*/202, /*sigma=*/0.5f);

  std::vector<IndexArm> arms;
  serve::FlatIndex flat;
  std::vector<std::string> ids;
  for (int64_t i = 0; i < n; ++i) ids.push_back(std::to_string(i));

  {
    IndexArm arm;
    arm.backend = "flat";
    auto t0 = std::chrono::steady_clock::now();
    if (!flat.Add(corpus, ids).ok()) std::abort();
    arm.build_seconds = SecondsSince(t0);
    t0 = std::chrono::steady_clock::now();
    for (int64_t qi = 0; qi < num_queries; ++qi) {
      auto r = flat.Search(queries.data() + qi * dim, k);
      if (r.empty()) std::abort();
    }
    arm.qps = num_queries / SecondsSince(t0);
    arm.recall_at_10 = 1.0;  // exact by construction
    arms.push_back(arm);
  }
  {
    IndexArm arm;
    arm.backend = "hnsw";
    serve::HnswIndex hnsw;
    auto t0 = std::chrono::steady_clock::now();
    if (!hnsw.Add(corpus, ids).ok()) std::abort();
    arm.build_seconds = SecondsSince(t0);

    int64_t found = 0;
    t0 = std::chrono::steady_clock::now();
    std::vector<std::vector<eval::ScoredId>> approx(num_queries);
    for (int64_t qi = 0; qi < num_queries; ++qi) {
      approx[qi] = hnsw.Search(queries.data() + qi * dim, k);
    }
    arm.qps = num_queries / SecondsSince(t0);
    for (int64_t qi = 0; qi < num_queries; ++qi) {
      auto exact = flat.Search(queries.data() + qi * dim, k);
      for (const auto& e : exact) {
        for (const auto& a : approx[qi]) {
          if (a.id == e.id) {
            ++found;
            break;
          }
        }
      }
    }
    arm.recall_at_10 =
        static_cast<double>(found) / static_cast<double>(num_queries * k);
    arms.push_back(arm);
  }
  for (const IndexArm& a : arms) {
    std::printf("  %-5s build %.2fs  %.0f qps  recall@10 %.3f\n",
                a.backend.c_str(), a.build_seconds, a.qps, a.recall_at_10);
  }
  std::printf("  hnsw/flat qps ratio: %.1fx\n", arms[1].qps / arms[0].qps);
  return arms;
}

/// The small real encoder the service arms run against.
struct ServiceWorld {
  data::CrossModalDataset dataset;
  std::unique_ptr<clip::ClipModel> model;
  std::unique_ptr<text::Tokenizer> tokenizer;
  std::unique_ptr<core::CrossEm> matcher;
  serve::FlatIndex index;
};

std::unique_ptr<ServiceWorld> BuildServiceWorld() {
  auto w = std::make_unique<ServiceWorld>();
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
  w->tokenizer = std::make_unique<text::Tokenizer>(&w->dataset.vocab,
                                                   cc.text_context);
  core::CrossEmOptions options;
  options.prompt_mode = core::PromptMode::kHard;
  w->matcher = std::make_unique<core::CrossEm>(
      w->model.get(), &w->dataset.graph, w->tokenizer.get(), options);

  Tensor images = w->dataset.StackImages(w->dataset.TestImageIndices());
  Tensor embeddings = w->matcher->EncodeImages(images);
  std::vector<std::string> ids;
  for (int64_t i = 0; i < embeddings.size(0); ++i) {
    ids.push_back("img" + std::to_string(i));
  }
  if (!w->index.Add(embeddings, ids).ok()) std::abort();
  w->index.set_model_fingerprint(w->matcher->EncoderFingerprint());
  return w;
}

/// Drives `total` requests through `clients` threads; returns wall QPS.
double DriveClients(serve::MatchService* service, const ServiceWorld& w,
                    int64_t clients, int64_t total) {
  std::vector<std::thread> threads;
  std::atomic<int64_t> next{0};
  const auto& entities = w.dataset.entities;
  auto t0 = std::chrono::steady_clock::now();
  for (int64_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        const int64_t i = next.fetch_add(1);
        if (i >= total) return;
        serve::MatchRequest request;
        // Skewed production-like traffic: ~70% of requests hit two hot
        // entities, the rest spread uniformly. Deterministic per request
        // index, so every arm sees the identical sequence.
        const uint64_t h = SplitMix64(static_cast<uint64_t>(i));
        const uint64_t h2 = SplitMix64(h);
        const size_t pick =
            (h % 10) < 7 ? static_cast<size_t>(h2 % 2)
                         : 2 + static_cast<size_t>(h2 % (entities.size() - 2));
        request.vertex = entities[pick];
        request.k = 5;
        auto result = service->Match(request);
        if (!result.ok()) std::abort();
      }
    });
  }
  for (auto& t : threads) t.join();
  return total / SecondsSince(t0);
}

std::vector<ServiceArm> RunServiceArms(const ServiceWorld& w) {
  const int64_t clients = 8;
  const int64_t total = 240;
  std::printf("== service: %lld clients, %lld requests ==\n",
              static_cast<long long>(clients), static_cast<long long>(total));
  std::vector<ServiceArm> arms;
  for (const char* mode : {"unbatched", "batched"}) {
    serve::MatchServiceOptions so;
    so.cache_capacity = 0;  // isolate the batching effect from the cache
    // Batched: requests queued while a batch runs join the next one,
    // up to one per client.
    so.max_batch = std::string(mode) == "unbatched" ? 1 : clients;
    serve::MatchService service(w.matcher.get(), &w.index, so);
    ServiceArm arm;
    arm.mode = mode;
    arm.clients = clients;
    arm.qps = DriveClients(&service, w, clients, total);
    service.Shutdown();
    serve::ServiceStats stats = service.Snapshot();
    arm.mean_batch = stats.batch_size_mean;
    arm.latency_p50_us = stats.latency_p50_us;
    arm.latency_p99_us = stats.latency_p99_us;
    arms.push_back(arm);
    std::printf("  %-9s %.0f qps  mean batch %.1f  p50 %lldus  p99 %lldus\n",
                arm.mode.c_str(), arm.qps, arm.mean_batch,
                static_cast<long long>(arm.latency_p50_us),
                static_cast<long long>(arm.latency_p99_us));
  }
  std::printf("  batched/unbatched qps ratio: %.1fx\n",
              arms[1].qps / arms[0].qps);
  return arms;
}

std::vector<CacheArm> RunCacheArms(const ServiceWorld& w) {
  std::printf("== cache sweep ==\n");
  std::vector<CacheArm> arms;
  const int64_t total = 120;
  for (int64_t capacity : {int64_t{0}, int64_t{16}, int64_t{4096}}) {
    serve::MatchServiceOptions so;
    so.cache_capacity = capacity;
    so.max_batch = 8;
    serve::MatchService service(w.matcher.get(), &w.index, so);
    CacheArm arm;
    arm.capacity = capacity;
    arm.qps = DriveClients(&service, w, 4, total);
    service.Shutdown();
    arm.hit_rate = service.Snapshot().CacheHitRate();
    arms.push_back(arm);
    std::printf("  capacity %-5lld hit rate %.2f  %.0f qps\n",
                static_cast<long long>(arm.capacity), arm.hit_rate, arm.qps);
  }
  return arms;
}

void WriteJson(const std::string& path, const std::vector<IndexArm>& index,
               const std::vector<CacheArm>& cache,
               const std::vector<ServiceArm>& service) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"index\": [\n");
  for (size_t i = 0; i < index.size(); ++i) {
    const IndexArm& a = index[i];
    std::fprintf(f,
                 "    {\"backend\": \"%s\", \"build_seconds\": %.4f, "
                 "\"qps\": %.1f, \"recall_at_10\": %.4f}%s\n",
                 a.backend.c_str(), a.build_seconds, a.qps, a.recall_at_10,
                 i + 1 < index.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"cache\": [\n");
  for (size_t i = 0; i < cache.size(); ++i) {
    const CacheArm& a = cache[i];
    std::fprintf(f,
                 "    {\"capacity\": %lld, \"hit_rate\": %.4f, "
                 "\"qps\": %.1f}%s\n",
                 static_cast<long long>(a.capacity), a.hit_rate, a.qps,
                 i + 1 < cache.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"service\": [\n");
  for (size_t i = 0; i < service.size(); ++i) {
    const ServiceArm& a = service[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"clients\": %lld, \"qps\": %.1f, "
                 "\"mean_batch\": %.2f, \"latency_p50_us\": %lld, "
                 "\"latency_p99_us\": %lld}%s\n",
                 a.mode.c_str(), static_cast<long long>(a.clients), a.qps,
                 a.mean_batch, static_cast<long long>(a.latency_p50_us),
                 static_cast<long long>(a.latency_p99_us),
                 i + 1 < service.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace crossem

int main(int argc, char** argv) {
  // --quick shrinks the corpus for smoke runs (CI, local sanity); the
  // HNSW-vs-flat ratio only shows its full gap at the default size.
  int64_t n = 30000;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") n = 6000;
  }
  const char* env = std::getenv("CROSSEM_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_serve.json";

  auto index_arms = crossem::RunIndexArms(n, 32);
  auto world = crossem::BuildServiceWorld();
  auto cache_arms = crossem::RunCacheArms(*world);
  auto service_arms = crossem::RunServiceArms(*world);
  crossem::WriteJson(path, index_arms, cache_arms, service_arms);
  return 0;
}
