// Answer grid: explains a grid of SYNTH configurations and prints one
// canonical line per configuration — a label, then ExplainResponse::ToJson
// without checkpoint `elapsed_seconds` (wall clock) and without `stats`
// (wall clock plus work counters, which move with threads and candidate
// batching). What is left is the answer: predicates, influences, the
// what-if view and the NAIVE trace. So two builds (or two settings of one
// build) that answer alike print byte-identical output:
//
//   ./build/bench_answer_grid --tiny > a.txt
//   ./build/bench_answer_grid --tiny --threads 4 --no-batching > b.txt
//   cmp a.txt b.txt
//
// Full grid: 2-D/3-D x Easy/Hard x generator seeds 42/7/99 x
// c in {0, 0.1, 0.5, 1} x lambda in {0.5, 1} x DT/MC, plus NAIVE on 2-D, at
// 1,000 tuples per group (240 configurations), then EXPENSE (40 days of
// 100 rows, 300 recipients; its categorical attributes are the ones DT
// splits by value set) at lambda 0.8 x c in {0, 0.5, 1} x DT/MC (6 more).
// --tiny: 2-D Easy/Hard, seed 42, c in {0, 1}, lambda 0.5, DT/MC/NAIVE,
// plus EXPENSE DT at c 0.5 (13 configurations).
//
// NAIVE records checkpoints on improvement only, not on a timer.
//
// Flags: --tiny, --threads N (scoring threads, default 1), --no-batching.
// Exits non-zero if an explain fails or a NAIVE run does not exhaust its
// search space (a time-cut NAIVE answer depends on machine speed).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "api/dataset.h"
#include "common/json.h"
#include "workload/expense.h"
#include "workload/synth.h"

using namespace scorpion;

namespace {

/// `value` without the members that are not part of the answer, at any
/// depth.
JsonValue AnswerOnly(const JsonValue& value) {
  if (value.is_array()) {
    JsonValue out = JsonValue::Array();
    for (const JsonValue& item : value.items()) out.Append(AnswerOnly(item));
    return out;
  }
  if (!value.is_object()) return value;
  JsonValue out = JsonValue::Object();
  for (const auto& [key, member] : value.members()) {
    if (key == "stats" || key == "elapsed_seconds") continue;
    out.Add(key, AnswerOnly(member));
  }
  return out;
}

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kDT:
      return "DT";
    case Algorithm::kMC:
      return "MC";
    case Algorithm::kNaive:
      return "NAIVE";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  int threads = 1;
  bool batching = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) {
      tiny = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--no-batching") == 0) {
      batching = false;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--tiny] [--threads N] [--no-batching]\n",
                   argv[0]);
      return 2;
    }
  }
  if (threads < 1) {
    std::fprintf(stderr, "--threads must be at least 1\n");
    return 2;
  }

  const std::vector<int> dims = tiny ? std::vector<int>{2}
                                     : std::vector<int>{2, 3};
  const std::vector<uint64_t> seeds =
      tiny ? std::vector<uint64_t>{42} : std::vector<uint64_t>{42, 7, 99};
  const std::vector<double> cs =
      tiny ? std::vector<double>{0.0, 1.0}
           : std::vector<double>{0.0, 0.1, 0.5, 1.0};
  const std::vector<double> lambdas =
      tiny ? std::vector<double>{0.5} : std::vector<double>{0.5, 1.0};

  EngineOptions options;
  options.engine.num_threads = threads;
  options.engine.enable_candidate_batching = batching;
  // NAIVE must finish its sweep; the budget only guards against a hang.
  options.engine.naive.time_budget_seconds = 600.0;
  // Periodic checkpoints depend on machine speed; keep only the ones an
  // improvement records.
  options.engine.naive.checkpoint_interval_seconds =
      std::numeric_limits<double>::infinity();
  // Every explain runs cold: no configuration's answer may depend on which
  // ran before it.
  options.cache_enabled = false;
  Engine engine(options);

  int failures = 0;
  // Explains `request` and prints its answer line; false on a fatal error.
  auto print_answer = [&](const Dataset& dataset, const ExplainRequest& request,
                          const char* label) {
    auto response = dataset.Explain(request);
    if (!response.ok()) {
      std::printf("%s ERROR %s\n", label,
                  response.status().ToString().c_str());
      ++failures;
      return true;
    }
    if (request.algorithm() == Algorithm::kNaive &&
        !response->naive_exhausted) {
      std::fprintf(stderr, "%s: NAIVE did not exhaust its space\n", label);
      ++failures;
    }
    auto json = JsonValue::Parse(response->ToJson());
    if (!json.ok()) {
      std::fprintf(stderr, "FATAL %s: %s\n", label,
                   json.status().ToString().c_str());
      return false;
    }
    std::printf("%s %s\n", label, AnswerOnly(*json).Dump().c_str());
    return true;
  };
  for (int d : dims) {
    for (bool easy : {true, false}) {
      for (uint64_t seed : seeds) {
        SynthOptions synth = SynthPreset(d, easy, seed);
        synth.tuples_per_group = 1000;
        auto data = GenerateSynth(synth);
        if (!data.ok()) {
          std::fprintf(stderr, "FATAL GenerateSynth: %s\n",
                       data.status().ToString().c_str());
          return 1;
        }
        auto dataset = engine.Open(data->table, data->query);
        if (!dataset.ok()) {
          std::fprintf(stderr, "FATAL Open: %s\n",
                       dataset.status().ToString().c_str());
          return 1;
        }
        std::vector<Algorithm> algorithms = {Algorithm::kDT, Algorithm::kMC};
        if (d == 2) algorithms.push_back(Algorithm::kNaive);
        for (double c : cs) {
          for (double lambda : lambdas) {
            for (Algorithm algorithm : algorithms) {
              ExplainRequest request = ExplainRequest()
                                           .WithAttributes(data->attributes)
                                           .WithAlgorithm(algorithm)
                                           .WithC(c)
                                           .WithLambda(lambda)
                                           .Holdouts(data->holdout_keys);
              for (const std::string& key : data->outlier_keys) {
                request.FlagTooHigh(key);
              }
              char label[96];
              std::snprintf(label, sizeof(label),
                            "%dD-%s seed=%llu c=%g lambda=%g %s", d,
                            easy ? "Easy" : "Hard",
                            static_cast<unsigned long long>(seed), c, lambda,
                            AlgorithmName(algorithm));
              if (!print_answer(*dataset, request, label)) return 1;
            }
          }
        }
      }
    }
  }

  ExpenseOptions expense_options;
  expense_options.num_days = 40;
  expense_options.rows_per_day = 100;
  expense_options.num_recipients = 300;
  auto expense = GenerateExpense(expense_options);
  if (!expense.ok()) {
    std::fprintf(stderr, "FATAL GenerateExpense: %s\n",
                 expense.status().ToString().c_str());
    return 1;
  }
  auto expense_dataset = engine.Open(expense->table, expense->query);
  if (!expense_dataset.ok()) {
    std::fprintf(stderr, "FATAL Open: %s\n",
                 expense_dataset.status().ToString().c_str());
    return 1;
  }
  const std::vector<double> expense_cs =
      tiny ? std::vector<double>{0.5} : std::vector<double>{0.0, 0.5, 1.0};
  const std::vector<Algorithm> expense_algorithms =
      tiny ? std::vector<Algorithm>{Algorithm::kDT}
           : std::vector<Algorithm>{Algorithm::kDT, Algorithm::kMC};
  for (double c : expense_cs) {
    for (Algorithm algorithm : expense_algorithms) {
      ExplainRequest request = ExplainRequest()
                                   .WithAttributes(expense->attributes)
                                   .WithAlgorithm(algorithm)
                                   .WithC(c)
                                   .WithLambda(0.8)
                                   .Holdouts(expense->holdout_keys);
      for (const std::string& key : expense->outlier_keys) {
        request.FlagTooHigh(key);
      }
      char label[96];
      std::snprintf(label, sizeof(label), "EXPENSE c=%g lambda=0.8 %s", c,
                    AlgorithmName(algorithm));
      if (!print_answer(*expense_dataset, request, label)) return 1;
    }
  }
  return failures == 0 ? 0 : 1;
}
