// MatchService behavior on a real (small, untuned) CrossEm: answer
// correctness against the offline matcher, micro-batching under
// concurrent clients, per-request deadlines and cache reuse. The
// front end's queue-full backpressure, retry hint, shutdown drain and
// work-conserving dispatch are pinned deterministically by holding each
// engine's answer step on a latch. The ctest TSan re-run exercises the
// same suite with an 8-thread pool.
#include "serve/service.h"

#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "clip/clip.h"
#include "data/dataset.h"
#include "gtest/gtest.h"
#include "serve/frontend.h"
#include "serve/index.h"
#include "serve/sharded.h"
#include "text/tokenizer.h"
#include "util/status.h"

namespace crossem {
namespace serve {
namespace {

/// One small untuned model + flat index over its image embeddings,
/// shared by every test (encoding is the slow part).
class MatchServiceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::DatasetConfig dc = data::CubLikeConfig(0.4);
    ds_ = new data::CrossModalDataset(data::BuildDataset(dc));
    clip::ClipConfig cc;
    cc.vocab_size = ds_->vocab.size();
    cc.text_context = 32;
    cc.model_dim = 16;
    cc.text_layers = 1;
    cc.text_heads = 2;
    cc.image_layers = 1;
    cc.image_heads = 2;
    cc.patch_dim = ds_->world->config().patch_dim;
    cc.max_patches = 16;
    cc.embed_dim = 12;
    Rng rng(5);
    model_ = new clip::ClipModel(cc, &rng);
    tokenizer_ = new text::Tokenizer(&ds_->vocab, cc.text_context);

    core::CrossEmOptions options;
    options.prompt_mode = core::PromptMode::kHard;
    matcher_ = new core::CrossEm(model_, &ds_->graph, tokenizer_, options);

    Tensor images = ds_->StackImages(ds_->TestImageIndices());
    Tensor embeddings = matcher_->EncodeImages(images);
    std::vector<std::string> ids;
    for (int64_t i = 0; i < embeddings.size(0); ++i) {
      ids.push_back("img" + std::to_string(i));
    }
    index_ = new FlatIndex();
    ASSERT_TRUE(index_->Add(embeddings, ids).ok());
    index_->set_model_fingerprint(matcher_->EncoderFingerprint());
  }

  static void TearDownTestSuite() {
    delete index_;
    delete matcher_;
    delete tokenizer_;
    delete model_;
    delete ds_;
  }

  static graph::VertexId Vertex(size_t i) {
    return ds_->entities[i % ds_->entities.size()];
  }

  static data::CrossModalDataset* ds_;
  static clip::ClipModel* model_;
  static text::Tokenizer* tokenizer_;
  static core::CrossEm* matcher_;
  static FlatIndex* index_;
};

data::CrossModalDataset* MatchServiceFixture::ds_ = nullptr;
clip::ClipModel* MatchServiceFixture::model_ = nullptr;
text::Tokenizer* MatchServiceFixture::tokenizer_ = nullptr;
core::CrossEm* MatchServiceFixture::matcher_ = nullptr;
FlatIndex* MatchServiceFixture::index_ = nullptr;

TEST_F(MatchServiceFixture, AnswersMatchOfflineRanking) {
  MatchServiceOptions so;
  MatchService service(matcher_, index_, so);

  MatchRequest request;
  request.vertex = Vertex(0);
  request.k = 5;
  auto result = service.Match(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const MatchResponse& response = result.value();
  ASSERT_EQ(response.matches.size(), 5u);

  // Must agree with a direct index search over the same embedding.
  Tensor emb = matcher_->EncodeVertices({request.vertex});
  auto direct = index_->Search(emb.data(), 5);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(response.matches[i].image, direct[i].id);
    EXPECT_EQ(response.matches[i].similarity, direct[i].score);
    EXPECT_EQ(response.matches[i].image_id,
              index_->ids()[direct[i].id]);
  }
  // Probabilities: a softmax — positive, descending, summing under 1.
  float sum = 0.0f;
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_GT(response.matches[i].probability, 0.0f);
    if (i > 0) {
      EXPECT_LE(response.matches[i].probability,
                response.matches[i - 1].probability);
    }
    sum += response.matches[i].probability;
  }
  EXPECT_LE(sum, 1.0f + 1e-4f);
  service.Shutdown();
  EXPECT_EQ(service.Snapshot().completed, 1);
}

TEST_F(MatchServiceFixture, MinProbabilityFiltersTail) {
  MatchServiceOptions so;
  MatchService service(matcher_, index_, so);

  MatchRequest request;
  request.vertex = Vertex(1);
  request.k = static_cast<int64_t>(index_->size());
  auto unfiltered = service.Match(request);
  ASSERT_TRUE(unfiltered.ok());
  ASSERT_GT(unfiltered.value().matches.size(), 1u);
  // Threshold just above the weakest returned probability: at least one
  // match must drop, the strongest must survive.
  const auto& all = unfiltered.value().matches;
  request.min_probability = all.back().probability * 1.0001f;
  auto filtered = service.Match(request);
  ASSERT_TRUE(filtered.ok());
  EXPECT_LT(filtered.value().matches.size(), all.size());
  ASSERT_FALSE(filtered.value().matches.empty());
  EXPECT_EQ(filtered.value().matches.front().image, all.front().image);
}

TEST_F(MatchServiceFixture, ConcurrentClientsAllComplete) {
  MatchServiceOptions so;
  so.max_batch = 8;
  MatchService service(matcher_, index_, so);

  constexpr int kClients = 8;
  constexpr int kPerClient = 6;
  std::vector<std::thread> clients;
  std::vector<Status> failures;
  std::mutex mu;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        MatchRequest request;
        request.vertex = Vertex(static_cast<size_t>(c + r));
        request.k = 3;
        auto result = service.Match(request);
        if (!result.ok() || result.value().matches.size() != 3u) {
          std::lock_guard<std::mutex> lock(mu);
          failures.push_back(result.ok() ? Status::Internal("wrong k")
                                         : result.status());
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  service.Shutdown();

  for (const Status& st : failures) ADD_FAILURE() << st.ToString();
  ServiceStats stats = service.Snapshot();
  EXPECT_EQ(stats.received, kClients * kPerClient);
  EXPECT_EQ(stats.completed, kClients * kPerClient);
  EXPECT_EQ(stats.rejected_queue_full, 0);
  EXPECT_EQ(stats.expired_deadline, 0);
  // Requests queued while a batch runs join the next one, so
  // concurrency alone must have produced real batches.
  EXPECT_LT(stats.batches, stats.completed);
  EXPECT_GT(stats.batch_size_mean, 1.0);
  // Only |entities| distinct vertices exist, so the cache must have hit.
  EXPECT_GT(stats.cache_hits, 0);
}

TEST_F(MatchServiceFixture, DeadlineExpiryIsReported) {
  MatchServiceOptions so;
  MatchService service(matcher_, index_, so);

  MatchRequest request;
  request.vertex = Vertex(2);
  request.deadline_micros = 1;
  auto result = service.Match(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  service.Shutdown();
  EXPECT_EQ(service.Snapshot().expired_deadline, 1);
}

TEST_F(MatchServiceFixture, SubmitAfterShutdownIsRejected) {
  MatchServiceOptions so;
  MatchService service(matcher_, index_, so);
  service.Shutdown();

  MatchRequest request;
  request.vertex = Vertex(0);
  auto result = service.Submit(request).get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.Snapshot().rejected_shutdown, 1);
}

TEST_F(MatchServiceFixture, InvalidRequestsRejectedUpFront) {
  MatchServiceOptions so;
  MatchService service(matcher_, index_, so);

  MatchRequest bad_k;
  bad_k.vertex = Vertex(0);
  bad_k.k = 0;
  EXPECT_EQ(service.Submit(bad_k).get().status().code(),
            StatusCode::kInvalidArgument);

  MatchRequest bad_vertex;
  bad_vertex.vertex = ds_->graph.NumVertices() + 100;
  EXPECT_EQ(service.Submit(bad_vertex).get().status().code(),
            StatusCode::kInvalidArgument);
  service.Shutdown();
}

TEST_F(MatchServiceFixture, CacheHitOnRepeatAndHnswBackendInterchangeable) {
  // Same service contract over the ANN backend.
  Tensor images = ds_->StackImages(ds_->TestImageIndices());
  Tensor embeddings = matcher_->EncodeImages(images);
  HnswIndex hnsw;
  std::vector<std::string> ids;
  for (int64_t i = 0; i < embeddings.size(0); ++i) {
    ids.push_back("img" + std::to_string(i));
  }
  ASSERT_TRUE(hnsw.Add(embeddings, ids).ok());

  MatchServiceOptions so;
  MatchService service(matcher_, &hnsw, so);

  MatchRequest request;
  request.vertex = Vertex(3);
  request.k = 2;
  auto first = service.Match(request);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().cache_hit);
  auto second = service.Match(request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().cache_hit);
  ASSERT_EQ(first.value().matches.size(), second.value().matches.size());
  for (size_t i = 0; i < first.value().matches.size(); ++i) {
    EXPECT_EQ(first.value().matches[i].image, second.value().matches[i].image);
    EXPECT_EQ(first.value().matches[i].probability,
              second.value().matches[i].probability);
  }
  service.Shutdown();
  EXPECT_EQ(service.Snapshot().cache_hits, 1);
}

/// A test fake at the front end's seam: every Answer waits on a latch
/// until Release(), then runs the engine's real answer step.
class LatchedStep : public AnswerStep {
 public:
  explicit LatchedStep(AnswerStep* real) : real_(real) {}

  int64_t dim() const override { return real_->dim(); }
  void Answer(const MatchRequest& request, std::vector<float> query,
              int64_t candidates, SearchDeadline deadline, uint64_t span_id,
              MatchResponse* response) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    }
    real_->Answer(request, std::move(query), candidates, deadline, span_id,
                  response);
  }

  /// Blocks until `n` Answer calls have started.
  void WaitEntered(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_ >= n; });
  }
  /// Closes the latch again (later Answers wait) or opens it.
  void Hold() { Set(false); }
  void Release() { Set(true); }

 private:
  void Set(bool released) {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = released;
    cv_.notify_all();
  }

  AnswerStep* real_;
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool released_ = false;
};

/// One engine's real answer step (MatchService's index scan, or the
/// sharded engine's gather over a 2-shard split) behind a front end
/// whose answers wait on a LatchedStep.
struct LatchedEngine {
  LatchedEngine(bool sharded, const core::CrossEm* matcher,
                const EmbeddingIndex* index, MatchServiceOptions options)
      : real(MakeStep(sharded, matcher, index, &shards)),
        latch(real.get()),
        front(matcher, &latch, std::move(options),
              sharded ? "ShardedMatchService" : "MatchService") {}
  ~LatchedEngine() {
    latch.Release();
    front.Shutdown();
  }

  static std::unique_ptr<AnswerStep> MakeStep(
      bool sharded, const core::CrossEm* matcher, const EmbeddingIndex* index,
      std::unique_ptr<ShardedIndex>* shards) {
    if (!sharded) {
      return std::make_unique<IndexAnswerStep>(index, matcher->Temperature());
    }
    ShardedIndexOptions so;
    so.num_shards = 2;
    auto parts = ShardedIndex::Partition(*index, so);
    EXPECT_TRUE(parts.ok()) << parts.status().ToString();
    *shards = parts.MoveValue();
    return std::make_unique<ShardedAnswerStep>(
        shards->get(), matcher->Temperature(), ResilienceOptions());
  }

  std::unique_ptr<ShardedIndex> shards;
  std::unique_ptr<AnswerStep> real;
  LatchedStep latch;
  FrontEnd front;
};

/// Holds one request in the answer step, then fills the 2-slot queue
/// behind it: every further submit must bounce with the depth and a
/// retry hint. Before any completion the hint is the fixed floor.
TEST_F(MatchServiceFixture, QueueFullRejectsWithUnavailable) {
  for (bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "single");
    MatchServiceOptions so;
    so.max_queue = 2;
    LatchedEngine engine(sharded, matcher_, index_, so);

    MatchRequest request;
    request.vertex = Vertex(0);
    std::vector<std::future<Result<MatchResponse>>> admitted;
    admitted.push_back(engine.front.Submit(request));
    engine.latch.WaitEntered(1);
    admitted.push_back(engine.front.Submit(request));
    admitted.push_back(engine.front.Submit(request));
    for (int i = 0; i < 3; ++i) {
      auto result = engine.front.Submit(request).get();
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
      // Actionable: names the queue depth and when to come back.
      EXPECT_NE(result.status().message().find("queue full (2 of 2 pending)"),
                std::string::npos)
          << result.status().ToString();
      EXPECT_NE(result.status().message().find(
                    "retry after " + std::to_string(kRetryAfterFloorMicros) +
                    "us"),
                std::string::npos)
          << result.status().ToString();
    }
    engine.latch.Release();
    for (auto& f : admitted) {
      auto result = f.get();
      EXPECT_TRUE(result.ok()) << result.status().ToString();
    }
    engine.front.Shutdown();
    ServiceStats stats = engine.front.Snapshot();
    EXPECT_EQ(stats.rejected_queue_full, 3);
    EXPECT_EQ(stats.received, 3);
    EXPECT_EQ(stats.completed, 3);
  }
}

/// The retry hint is the observed p50 completion latency (the floor
/// before any completion), never past the request's own deadline.
TEST_F(MatchServiceFixture, QueueFullRetryHintIsClampedToDeadline) {
  for (bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "single");
    MatchServiceOptions so;
    so.max_queue = 1;
    LatchedEngine engine(sharded, matcher_, index_, so);

    MatchRequest request;
    request.vertex = Vertex(1);
    MatchRequest hurried = request;
    auto hint = [&](int64_t deadline_micros) {
      hurried.deadline_micros = deadline_micros;
      auto result = engine.front.Submit(hurried).get();
      EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
      return result.status().message();
    };
    auto fill = [&](int entered) {
      std::vector<std::future<Result<MatchResponse>>> admitted;
      admitted.push_back(engine.front.Submit(request));
      engine.latch.WaitEntered(entered);
      admitted.push_back(engine.front.Submit(request));
      return admitted;
    };

    // No completion yet: the floor, or the deadline when shorter.
    auto first = fill(1);
    EXPECT_NE(hint(0).find("retry after " +
                           std::to_string(kRetryAfterFloorMicros) + "us"),
              std::string::npos);
    EXPECT_NE(hint(kRetryAfterFloorMicros / 2)
                  .find("retry after " +
                        std::to_string(kRetryAfterFloorMicros / 2) + "us"),
              std::string::npos);
    engine.latch.Release();
    for (auto& f : first) ASSERT_TRUE(f.get().ok());

    // Completions seen: the p50, or the deadline when shorter.
    engine.latch.Hold();
    auto second = fill(3);
    const int64_t p50 = engine.front.Snapshot().latency_p50_us;
    ASSERT_GT(p50, 1);
    EXPECT_NE(hint(0).find("retry after " + std::to_string(p50) + "us"),
              std::string::npos)
        << "p50 " << p50;
    EXPECT_NE(hint(1).find("retry after 1us"), std::string::npos);
    engine.latch.Release();
    for (auto& f : second) ASSERT_TRUE(f.get().ok());
  }
}

/// Shutdown closes admissions at once but answers every request already
/// queued before it joins.
TEST_F(MatchServiceFixture, ShutdownDrainsQueuedRequests) {
  for (bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "single");
    MatchServiceOptions so;
    so.max_batch = 4;
    LatchedEngine engine(sharded, matcher_, index_, so);

    std::vector<std::future<Result<MatchResponse>>> futures;
    auto submit = [&](size_t i) {
      MatchRequest request;
      request.vertex = Vertex(i);
      request.k = 2;
      return engine.front.Submit(request);
    };
    futures.push_back(submit(0));
    engine.latch.WaitEntered(1);
    for (size_t i = 1; i < 10; ++i) futures.push_back(submit(i));

    std::thread stopper([&] { engine.front.Shutdown(); });
    // Probe until admissions close; probes admitted before that join
    // the drain like any other queued request.
    for (size_t i = 10;; ++i) {
      std::future<Result<MatchResponse>> probe = submit(i);
      if (probe.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        futures.push_back(std::move(probe));
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      auto rejected = probe.get();
      if (!rejected.ok() && rejected.status().message().find(
                                "queue full") != std::string::npos) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;  // the stopper has not run yet and the probes piled up
      }
      EXPECT_NE(rejected.status().message().find("is shut down"),
                std::string::npos)
          << rejected.status().ToString();
      break;
    }
    engine.latch.Release();
    stopper.join();

    for (auto& f : futures) {
      auto result = f.get();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result.value().matches.size(), 2u);
    }
    ServiceStats stats = engine.front.Snapshot();
    EXPECT_EQ(stats.received, static_cast<int64_t>(futures.size()));
    EXPECT_EQ(stats.completed, static_cast<int64_t>(futures.size()));
    EXPECT_EQ(stats.rejected_shutdown, 1);
  }
}

/// Work-conserving dispatch: nothing waits for a batch to fill, and
/// everything queued while a batch runs leaves as the next batch.
TEST_F(MatchServiceFixture, RequestsQueuedDuringABatchFormTheNextBatch) {
  constexpr int kQueued = 7;
  for (bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "single");
    MatchServiceOptions so;
    so.max_batch = 16;
    LatchedEngine engine(sharded, matcher_, index_, so);

    std::vector<std::future<Result<MatchResponse>>> futures;
    MatchRequest request;
    request.vertex = Vertex(2);
    futures.push_back(engine.front.Submit(request));
    engine.latch.WaitEntered(1);
    for (int i = 0; i < kQueued; ++i) {
      request.vertex = Vertex(static_cast<size_t>(3 + i));
      futures.push_back(engine.front.Submit(request));
    }
    engine.latch.Release();
    for (auto& f : futures) ASSERT_TRUE(f.get().ok());
    engine.front.Shutdown();

    ServiceStats stats = engine.front.Snapshot();
    EXPECT_EQ(stats.completed, kQueued + 1);
    EXPECT_EQ(stats.batches, 2);  // the held one, then all kQueued at once
    EXPECT_DOUBLE_EQ(stats.batch_size_mean, (kQueued + 1) / 2.0);
  }
}

}  // namespace
}  // namespace serve
}  // namespace crossem
