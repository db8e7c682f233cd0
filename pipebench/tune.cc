// Workload `tune`: a CUB-like reference world -> mini-CLIP pre-training
// (once per run, timed) -> repeated CrossEM+ tuning passes from the same
// pre-trained weights: Fit for a fixed number of epochs, then
// ScoreMatrix / FindMatches / ranking over every test entity x test
// image.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "checks.h"
#include "clip/pretrain.h"
#include "core/crossem.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipebench.h"
#include "spans.h"
#include "stats.h"
#include "tensor/ops.h"
#include "util/timer.h"

namespace pipebench {
namespace {

using namespace crossem;

// Inputs (README.md, "Seeds and inputs"): a fixed reference task. The
// world, its graph, the test image repository, the pre-training corpus
// and the tuning schedule do not vary with --seed, which only draws the
// chance permutations.
constexpr uint64_t kDatasetSeed = 1001;
constexpr uint64_t kImageSeed = 7930;
constexpr int64_t kImagesPerClass = 12;
constexpr int64_t kPatchesPerImage = 8;
constexpr int64_t kAttrsShown = 4;
constexpr int64_t kPretrainEpochs = 20;
constexpr int64_t kPretrainBatches = 20;
constexpr int64_t kPretrainBatchSize = 24;
constexpr uint64_t kPretrainSeed = 18;
constexpr uint64_t kTuneSeed = 22;
constexpr int64_t kFitEpochs = 4;
constexpr int kChancePermutations = 64;
constexpr size_t kMinPasses = 5;

/// Everything one tuning pass measured.
struct Pass {
  bool ok = false;
  double fit_s = 0.0;
  double score_s = 0.0;
  double mrr = 0.0;
  double pairs_per_s = 0.0;
  core::FitStats fit;
  std::map<std::string, SpanTotals> spans;  // traced passes only
  int64_t pool_hits = 0;
  int64_t pool_misses = 0;
  int64_t plan_replays = 0;
  int64_t plan_traces = 0;

  double total_s() const { return fit_s + score_s; }
};

class TuneBench {
 public:
  explicit TuneBench(const RunOptions& options) : options_(options) {
    data::DatasetConfig dc = data::CubLikeConfig(1.0);
    dc.seed = kDatasetSeed;
    dataset_ = data::BuildDataset(dc);

    clip_config_ = ModelConfig(dataset_.vocab.size(),
                               dataset_.world->config().patch_dim);
    tokenizer_ = std::make_unique<text::Tokenizer>(&dataset_.vocab,
                                                   clip_config_.text_context);
    Rng model_rng(kPretrainSeed);
    model_ = std::make_unique<clip::ClipModel>(clip_config_, &model_rng);
    // RunPass starts from this snapshot: the initial weights until
    // Pretrain replaces them with the pre-trained ones.
    pretrained_ = model_->SnapshotParameters();

    for (int64_t c : dataset_.test_classes) {
      vertices_.push_back(dataset_.entities[static_cast<size_t>(c)]);
      vertex_classes_.push_back(c);
    }
    // The test repository: kImagesPerClass images of every test class.
    Rng image_rng(kImageSeed);
    std::vector<Tensor> rows;
    for (int64_t c : dataset_.test_classes) {
      for (int64_t i = 0; i < kImagesPerClass; ++i) {
        rows.push_back(dataset_.world
                           ->SampleImage(c, kPatchesPerImage, kAttrsShown,
                                         &image_rng)
                           .patches);
        image_classes_.push_back(c);
      }
    }
    images_ = ops::Stack(rows);
  }

  /// Pre-trains the model once; returns wall seconds (0 on failure).
  double Pretrain(RunResult* result) {
    std::vector<int64_t> classes;
    for (int64_t c = 0; c < dataset_.world->num_classes(); ++c) {
      classes.push_back(c);
    }
    clip::PretrainConfig pc;
    pc.epochs = kPretrainEpochs;
    pc.batches_per_epoch = kPretrainBatches;
    pc.batch_size = kPretrainBatchSize;
    pc.seed = kPretrainSeed + 1;
    model_->RestoreParameters(pretrained_);
    Timer timer;
    auto stats = clip::PretrainClip(model_.get(), *dataset_.world, classes,
                                    *tokenizer_, pc);
    const double seconds = timer.ElapsedSeconds();
    if (!stats.ok()) {
      result->Check("PretrainClip: " + stats.status().ToString());
      return 0.0;
    }
    pretrained_ = model_->SnapshotParameters();

    // Zero-shot reference: the naive "a photo of <label>" prompt.
    core::CrossEmOptions zo;
    zo.prompt_mode = core::PromptMode::kBaseline;
    core::CrossEm zero_shot(model_.get(), &dataset_.graph, tokenizer_.get(),
                            zo);
    const Matrix scores = ToMatrix(zero_shot.ScoreMatrix(vertices_, images_));
    zero_shot_mrr_ = ReferenceMrr(scores, vertex_classes_, image_classes_);
    chance_ = ChanceMrr(scores, vertex_classes_, image_classes_, options_.seed,
                        kChancePermutations);
    result->Check(
        CheckAbove("zero-shot MRR over chance", zero_shot_mrr_, chance_));
    return seconds;
  }

  /// One tuning pass from the pre-trained (before Pretrain: the initial)
  /// weights; outputs are checked unless `check` is false.
  Pass RunPass(int64_t fit_epochs, bool check, RunResult* result) {
    Pass pass;
    model_->RestoreParameters(pretrained_);
    const int64_t hits0 = CounterValue("tensor_pool_hits_total");
    const int64_t misses0 = CounterValue("tensor_pool_misses_total");
    const int64_t replays0 = CounterValue("plan_replays_total");
    const int64_t traces0 = CounterValue("plan_traces_total");

    core::CrossEmOptions opt = core::CrossEmPlusOptions();
    opt.epochs = fit_epochs;
    opt.learning_rate = 1e-3f;
    opt.seed = kTuneSeed;
    core::CrossEm matcher(model_.get(), &dataset_.graph, tokenizer_.get(),
                          opt);
    Timer timer;
    auto fit = matcher.Fit(vertices_, images_);
    pass.fit_s = timer.ElapsedSeconds();
    if (!fit.ok()) {
      result->Check("Fit: " + fit.status().ToString());
      return pass;
    }
    pass.fit = fit.value();

    timer.Restart();
    Tensor scores = matcher.ScoreMatrix(vertices_, images_);
    std::vector<core::MatchingPair> matches =
        matcher.FindMatches(vertices_, images_);
    eval::RankingMetrics ranking = eval::ComputeRankingMetricsByClass(
        scores, vertex_classes_, image_classes_);
    pass.score_s = timer.ElapsedSeconds();
    pass.mrr = ranking.mrr;

    if (options_.trace) pass.spans = DrainSpans();
    pass.pool_hits = CounterValue("tensor_pool_hits_total") - hits0;
    pass.pool_misses = CounterValue("tensor_pool_misses_total") - misses0;
    pass.plan_replays = CounterValue("plan_replays_total") - replays0;
    pass.plan_traces = CounterValue("plan_traces_total") - traces0;
    int64_t pairs = 0;
    for (const core::EpochStats& e : pass.fit.epochs) pairs += e.num_pairs;
    pass.pairs_per_s = static_cast<double>(pairs) / pass.fit_s;

    if (check) CheckPass(matcher, scores, matches, ranking, pass, result);
    pass.ok = true;
    return pass;
  }

  /// Direct calls into each scoring-stage layer with the pass's inputs,
  /// tracing off: median seconds over `reps` calls each.
  void TimeLayers(int reps, std::map<std::string, double>* out) {
    model_->RestoreParameters(pretrained_);
    core::CrossEm matcher(model_.get(), &dataset_.graph, tokenizer_.get(),
                          core::CrossEmPlusOptions());
    std::vector<double> ev, ei, sm, rk;
    for (int r = 0; r < reps; ++r) {
      Timer t;
      matcher.EncodeVertices(vertices_);
      ev.push_back(t.ElapsedSeconds());
      t.Restart();
      matcher.EncodeImages(images_);
      ei.push_back(t.ElapsedSeconds());
      t.Restart();
      Tensor scores = matcher.ScoreMatrix(vertices_, images_);
      sm.push_back(t.ElapsedSeconds());
      t.Restart();
      eval::ComputeRankingMetricsByClass(scores, vertex_classes_,
                                         image_classes_);
      rk.push_back(t.ElapsedSeconds());
    }
    (*out)["core.encode_vertices_s"] = Median(ev);
    (*out)["core.encode_images_s"] = Median(ei);
    (*out)["core.score_matrix_s"] = Median(sm);
    (*out)["eval.ranking_s"] = Median(rk);
  }

  int64_t num_vertices() const {
    return static_cast<int64_t>(vertices_.size());
  }
  int64_t num_images() const { return images_.size(0); }
  double chance() const { return chance_; }
  double zero_shot_mrr() const { return zero_shot_mrr_; }

 private:
  void CheckPass(const core::CrossEm& matcher, const Tensor& scores,
                 const std::vector<core::MatchingPair>& matches,
                 const eval::RankingMetrics& ranking, const Pass& pass,
                 RunResult* result) {
    const Matrix s = ToMatrix(scores);
    result->Check(CheckScoreMatrix(
        s, ToMatrix(matcher.EncodeVertices(vertices_)),
        ToMatrix(matcher.EncodeImages(images_)), 1e-5));
    std::vector<Pick> picks;
    for (const core::MatchingPair& m : matches) {
      const auto it = std::find(vertices_.begin(), vertices_.end(), m.vertex);
      picks.push_back(Pick{it - vertices_.begin(), m.image, m.score});
    }
    result->Check(CheckFindMatches(picks, s, matcher.Temperature(), 1e-5));
    const double own_mrr = ReferenceMrr(s, vertex_classes_, image_classes_);
    result->Check(CheckClose("MRR vs eval", own_mrr, ranking.mrr, 1e-9));
    result->Check(CheckAbove("tuned MRR over chance", own_mrr, chance_));
    std::vector<EpochRecord> epochs;
    for (const core::EpochStats& e : pass.fit.epochs) {
      epochs.push_back(EpochRecord{e.loss, e.bad_batches, e.num_pairs});
    }
    result->Check(CheckEpochs(epochs, num_vertices(), num_images(),
                              /*mbg=*/true));
  }

  const RunOptions options_;
  data::CrossModalDataset dataset_;
  clip::ClipConfig clip_config_;
  std::unique_ptr<text::Tokenizer> tokenizer_;
  std::unique_ptr<clip::ClipModel> model_;
  std::vector<Tensor> pretrained_;
  std::vector<graph::VertexId> vertices_;
  std::vector<int64_t> vertex_classes_;
  Tensor images_;
  std::vector<int64_t> image_classes_;
  double zero_shot_mrr_ = 0.0;
  double chance_ = 0.0;
};

template <typename F>
double MedianOf(const std::vector<Pass>& passes, F f) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(f(p));
  return Median(v);
}

/// Passes until `seconds` have elapsed (at least kMinPasses).
std::vector<Pass> RunWindow(TuneBench* bench, double seconds,
                            RunResult* result) {
  std::vector<Pass> passes;
  const Clock::time_point start = Clock::now();
  while (passes.size() < kMinPasses || SecondsSince(start) < seconds) {
    ++result->attempted;
    Pass p = bench->RunPass(kFitEpochs, /*check=*/true, result);
    if (!p.ok) {
      ++result->failed;
      continue;
    }
    passes.push_back(std::move(p));
  }
  return passes;
}

}  // namespace

RunResult RunTune(const RunOptions& options) {
  RunResult result;
  TuneBench bench(options);
  // Set-up ends with one unchecked warm-up pass on the untrained model
  // (thread pool, tensor pool, traced plans): construction alone takes
  // 5-8 ms in two modes a median cannot hold (README.md).
  bench.RunPass(kFitEpochs, /*check=*/false, &result);
  const double setup_s = SecondsSince(options.process_start);

  const double pretrain_s = bench.Pretrain(&result);
  if (pretrain_s == 0.0) return result;

  // Traced runs spend the first half of the window untraced (the
  // end-to-end numbers and the overhead baseline) and the second half
  // with span tracing on.
  const double window = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<Pass> plain = RunWindow(&bench, window, &result);
  std::vector<Pass> traced;
  if (options.trace) {
    obs::ClearTrace();
    obs::SetTraceEnabled(true);
    traced = RunWindow(&bench, window, &result);
    obs::SetTraceEnabled(false);
    obs::ClearTrace();
  }
  if (plain.empty()) return result;

  // Tuning is deterministic: every pass must reach the same MRR.
  for (const Pass& p : plain) {
    result.Check(CheckClose("MRR across passes", p.mrr, plain[0].mrr, 0.0));
  }

  const double fit_s = MedianOf(plain, [](const Pass& p) { return p.fit_s; });
  const double score_s =
      MedianOf(plain, [](const Pass& p) { return p.score_s; });
  const double pass_ms =
      1e3 * MedianOf(plain, [](const Pass& p) { return p.total_s(); });
  result.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"latency_p50_ms", pass_ms, "ms"},
      {"throughput_per_s",
       MedianOf(plain, [](const Pass& p) { return p.pairs_per_s; }), "1/s"},
      {"quality", plain[0].mrr, "1"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  char line[320];
  std::snprintf(line, sizeof(line),
                "tune: pretrain %.3fs once, then %zu passes: fit %.4fs score "
                "%.4fs (medians); MRR %.4f, zero-shot %.4f, chance %.4f; "
                "%lld test entities x %lld test images",
                pretrain_s, plain.size(), fit_s, score_s, plain[0].mrr,
                bench.zero_shot_mrr(), bench.chance(),
                static_cast<long long>(bench.num_vertices()),
                static_cast<long long>(bench.num_images()));
  result.notes.push_back(line);

  if (!options.trace || traced.empty()) return result;

  std::map<std::string, double>& L = result.per_layer;
  auto med = [&](auto f) { return MedianOf(traced, f); };
  auto span_s = [](const Pass& p, const char* name) {
    return Totals(p.spans, name).total_s;
  };
  L["pipeline.pretrain_s"] = pretrain_s;
  L["pipeline.fit_s"] = fit_s;
  L["pipeline.score_s"] = score_s;
  L["clip.pretrain_ms_per_step"] =
      1e3 * pretrain_s /
      static_cast<double>(kPretrainEpochs * kPretrainBatches);
  L["tensor.gemm_s"] = med([&](const Pass& p) { return span_s(p, "gemm"); });
  L["tensor.gemm_calls"] = med([](const Pass& p) {
    return static_cast<double>(Totals(p.spans, "gemm").count);
  });
  L["tensor.gemm_gflops"] = med([&](const Pass& p) {
    return Totals(p.spans, "gemm").flops / span_s(p, "gemm") * 1e-9;
  });
  L["util.parallel_regions"] = med([](const Pass& p) {
    return static_cast<double>(Totals(p.spans, "parallel_region").count);
  });
  L["util.parallel_region_s"] =
      med([&](const Pass& p) { return span_s(p, "parallel_region"); });
  L["tensor.pool_hit_rate"] = med([](const Pass& p) {
    const double n = static_cast<double>(p.pool_hits + p.pool_misses);
    return n > 0 ? static_cast<double>(p.pool_hits) / n : 0.0;
  });
  auto fit_sum = [&](double core::EpochStats::*field) {
    return med([field](const Pass& p) {
      double s = 0.0;
      for (const core::EpochStats& e : p.fit.epochs) s += e.*field;
      return s;
    });
  };
  L["core.fit.batch_gen_s"] = fit_sum(&core::EpochStats::batch_gen_seconds);
  L["core.fit.encode_s"] = fit_sum(&core::EpochStats::encode_seconds);
  L["core.fit.score_s"] = fit_sum(&core::EpochStats::score_seconds);
  L["core.fit.backward_s"] = fit_sum(&core::EpochStats::backward_seconds);
  L["core.fit.optimizer_s"] = fit_sum(&core::EpochStats::optimizer_seconds);
  L["core.fit.pairs"] = med([](const Pass& p) {
    double s = 0.0;
    for (const auto& e : p.fit.epochs) s += static_cast<double>(e.num_pairs);
    return s;
  });
  L["core.pcp_s"] = med([&](const Pass& p) {
    return span_s(p, "pcp_proximity") + span_s(p, "pcp_partition");
  });
  L["core.kmeans_s"] = med([&](const Pass& p) { return span_s(p, "kmeans"); });
  L["core.plan.replays"] = med(
      [](const Pass& p) { return static_cast<double>(p.plan_replays); });
  L["core.plan.traces"] =
      med([](const Pass& p) { return static_cast<double>(p.plan_traces); });
  L["mem.tensor_peak_mb"] = med([](const Pass& p) {
    return static_cast<double>(p.fit.peak_bytes) / (1024.0 * 1024.0);
  });
  bench.TimeLayers(/*reps=*/30, &L);
  const double traced_ms =
      1e3 * med([](const Pass& p) { return p.total_s(); });
  L["obs.trace_overhead_pct"] = 100.0 * (traced_ms - pass_ms) / pass_ms;
  return result;
}

}  // namespace pipebench
