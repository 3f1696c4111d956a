// Optimizer tests: rule registry invariants, configurations, cardinality
// derivation, cost model, plan shapes, signatures, and a property sweep over
// all 256 single-rule flips.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/hash.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "optimizer/cardinality.h"
#include "optimizer/cost_model.h"
#include "optimizer/optimizer.h"
#include "optimizer/rules.h"
#include "runtime/runtime.h"
#include "scope/compiler.h"
#include "workload/workload.h"

namespace qo::opt {
namespace {

// ---------------------------------------------------------------------------
// Rule registry and configurations.
// ---------------------------------------------------------------------------

TEST(RuleRegistryTest, Has256RulesInFourCategories) {
  const auto& reg = RuleRegistry::Get();
  size_t total = 0;
  for (auto cat :
       {RuleCategory::kRequired, RuleCategory::kOnByDefault,
        RuleCategory::kOffByDefault, RuleCategory::kImplementation}) {
    total += reg.ByCategory(cat).size();
    EXPECT_EQ(reg.ByCategory(cat).size(),
              static_cast<size_t>(reg.CategoryMask(cat).Count()));
  }
  EXPECT_EQ(total, 256u);
}

TEST(RuleRegistryTest, CategoryMasksArePartition) {
  const auto& reg = RuleRegistry::Get();
  BitVector256 all = reg.CategoryMask(RuleCategory::kRequired) |
                     reg.CategoryMask(RuleCategory::kOnByDefault) |
                     reg.CategoryMask(RuleCategory::kOffByDefault) |
                     reg.CategoryMask(RuleCategory::kImplementation);
  EXPECT_EQ(all.Count(), 256);
  EXPECT_TRUE((reg.CategoryMask(RuleCategory::kRequired) &
               reg.CategoryMask(RuleCategory::kOnByDefault))
                  .None());
}

TEST(RuleRegistryTest, BehavioralRulesHaveNames) {
  const auto& reg = RuleRegistry::Get();
  EXPECT_EQ(reg.name(rules::kJoinCommute), "JoinCommute");
  EXPECT_EQ(reg.name(rules::kEagerAggregationLeft), "EagerAggregationLeft");
  EXPECT_EQ(reg.name(rules::kHashJoinImpl), "HashJoinImpl");
  EXPECT_EQ(reg.category(rules::kEagerAggregationLeft),
            RuleCategory::kOffByDefault);
  // Merge join / stream agg are off-by-default alternative implementations.
  EXPECT_EQ(reg.category(rules::kMergeJoinImpl), RuleCategory::kOffByDefault);
  EXPECT_EQ(reg.category(rules::kStreamAggImpl), RuleCategory::kOffByDefault);
}

TEST(RuleConfigTest, DefaultEnablesExpectedCategories) {
  RuleConfig config = RuleConfig::Default();
  EXPECT_TRUE(config.IsEnabled(rules::kNormalizeScript));
  EXPECT_TRUE(config.IsEnabled(rules::kFilterPushdownIntoJoinLeft));
  EXPECT_TRUE(config.IsEnabled(rules::kHashJoinImpl));
  EXPECT_FALSE(config.IsEnabled(rules::kEagerAggregationLeft));
  EXPECT_FALSE(config.IsEnabled(rules::kBroadcastJoinAggressive));
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_TRUE(config.DiffFromDefault().empty());
}

TEST(RuleConfigTest, SingleFlipDiff) {
  RuleConfig config = RuleConfig::DefaultWithFlip(rules::kJoinAssociativity);
  EXPECT_TRUE(config.IsEnabled(rules::kJoinAssociativity));
  EXPECT_EQ(config.DiffFromDefault(),
            std::vector<int>{rules::kJoinAssociativity});
  config.Flip(rules::kJoinAssociativity);
  EXPECT_EQ(config, RuleConfig::Default());
}

TEST(RuleConfigTest, ValidateRejectsDisabledRequiredRule) {
  RuleConfig config = RuleConfig::DefaultWithFlip(rules::kBindReferences);
  auto status = config.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsCompileError());
  EXPECT_NE(status.message().find("BindReferences"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Cardinality derivation.
// ---------------------------------------------------------------------------

scope::Catalog CardCatalog() {
  scope::Catalog catalog;
  scope::TableStats t;
  t.true_rows = 10000;
  t.est_rows = 5000;  // optimizer sees a stale estimate
  t.avg_row_bytes = 50;
  t.columns["k"] = {100, 80};
  t.columns["v"] = {1000, 900};
  catalog.RegisterTable("t", t);
  return catalog;
}

scope::Schema CardSchema() {
  scope::Schema s;
  s.columns = {{Sym("k"), scope::ColumnType::kLong},
               {Sym("v"), scope::ColumnType::kDouble}};
  return s;
}

TEST(CardinalityTest, ScanUsesModeSpecificRows) {
  scope::Catalog catalog = CardCatalog();
  StatsDeriver est(catalog, StatsMode::kEstimated);
  StatsDeriver tru(catalog, StatsMode::kTrue);
  EXPECT_DOUBLE_EQ(est.Scan(Sym("t"), CardSchema()).rows, 5000);
  EXPECT_DOUBLE_EQ(tru.Scan(Sym("t"), CardSchema()).rows, 10000);
  EXPECT_DOUBLE_EQ(est.Scan(Sym("t"), CardSchema()).NdvOf(Sym("k")), 80);
  EXPECT_DOUBLE_EQ(tru.Scan(Sym("t"), CardSchema()).NdvOf(Sym("k")), 100);
}

TEST(CardinalityTest, FilterTrueModeUsesAnnotation) {
  scope::Catalog catalog = CardCatalog();
  StatsDeriver est(catalog, StatsMode::kEstimated);
  StatsDeriver tru(catalog, StatsMode::kTrue);
  RelStats in_est = est.Scan(Sym("t"), CardSchema());
  RelStats in_tru = tru.Scan(Sym("t"), CardSchema());
  scope::Predicate pred;
  pred.column = Sym("k");
  pred.op = scope::CompareOp::kEq;
  pred.literal = Sym("5");
  pred.true_selectivity = 0.5;
  // Estimated: 1/ndv_est(k) = 1/80. True: the annotation.
  EXPECT_NEAR(est.Filter(in_est, {pred}).rows, 5000.0 / 80.0, 1e-9);
  EXPECT_NEAR(tru.Filter(in_tru, {pred}).rows, 5000.0, 1e-9);
}

TEST(CardinalityTest, FilterHeuristicsByOperator) {
  scope::Catalog catalog = CardCatalog();
  StatsDeriver est(catalog, StatsMode::kEstimated);
  RelStats in = est.Scan(Sym("t"), CardSchema());
  auto sel_of = [&](scope::CompareOp op) {
    scope::Predicate p;
    p.column = Sym("k");
    p.op = op;
    p.literal = Sym("1");
    return est.PredicateSelectivity(p, in);
  };
  EXPECT_NEAR(sel_of(scope::CompareOp::kEq), 1.0 / 80, 1e-12);
  EXPECT_NEAR(sel_of(scope::CompareOp::kNe), 1.0 - 1.0 / 80, 1e-12);
  EXPECT_NEAR(sel_of(scope::CompareOp::kLt), 1.0 / 3.0, 1e-12);
}

TEST(CardinalityTest, JoinEstimateVsTrueFanout) {
  scope::Catalog catalog = CardCatalog();
  StatsDeriver est(catalog, StatsMode::kEstimated);
  StatsDeriver tru(catalog, StatsMode::kTrue);
  RelStats l_est = est.Scan(Sym("t"), CardSchema());
  RelStats l_tru = tru.Scan(Sym("t"), CardSchema());
  // est: |L||R| / max(ndv). true: L * fanout.
  RelStats j_est = est.Join(l_est, l_est, Sym("k"), Sym("k"), 2.0);
  RelStats j_tru = tru.Join(l_tru, l_tru, Sym("k"), Sym("k"), 2.0);
  EXPECT_NEAR(j_est.rows, 5000.0 * 5000.0 / 80.0, 1e-6);
  EXPECT_NEAR(j_tru.rows, 10000.0 * 2.0, 1e-6);
}

TEST(CardinalityTest, AggregateGroupsCappedByRows) {
  scope::Catalog catalog = CardCatalog();
  StatsDeriver est(catalog, StatsMode::kEstimated);
  RelStats in = est.Scan(Sym("t"), CardSchema());
  RelStats agg = est.Aggregate(in, {Sym("k")}, {});
  EXPECT_NEAR(agg.rows, 80.0, 1e-9);  // ndv(k)
  RelStats global = est.Aggregate(in, std::vector<qo::Symbol>{}, {});
  EXPECT_DOUBLE_EQ(global.rows, 1.0);
}

TEST(CardinalityTest, PartialAggregateBoundedByGroupsTimesPartitions) {
  scope::Catalog catalog = CardCatalog();
  StatsDeriver est(catalog, StatsMode::kEstimated);
  RelStats in = est.Scan(Sym("t"), CardSchema());
  RelStats partial = est.PartialAggregate(in, {Sym("k")}, 10);
  EXPECT_NEAR(partial.rows, 800.0, 1e-9);  // 80 groups x 10 partitions
  RelStats one_part = est.PartialAggregate(in, {Sym("k")}, 1);
  EXPECT_NEAR(one_part.rows, 80.0, 1e-9);
}

TEST(CardinalityTest, UnionAddsRows) {
  scope::Catalog catalog = CardCatalog();
  StatsDeriver est(catalog, StatsMode::kEstimated);
  RelStats in = est.Scan(Sym("t"), CardSchema());
  EXPECT_DOUBLE_EQ(est.UnionAll(in, in).rows, 10000.0);
}

TEST(CardinalityTest, NdvCapClampsEveryColumnIntoOneToRows) {
  // Every derivation that changes row counts re-caps the whole NDV column
  // into [1, rows]: values below 1 lift to 1, values above rows drop to
  // rows, exact boundary hits and interior values stay. Filter with no
  // predicates keeps the input's rows and applies only the cap.
  scope::Catalog catalog;
  StatsDeriver est(catalog, StatsMode::kEstimated);
  const std::vector<double> raw = {-3.0, 0.25, 1.0, 7.5, 64.0, 65.0, 1e9};
  RelStats in;
  for (size_t i = 0; i < raw.size(); ++i) {
    in.ndv[Sym("cap_c" + std::to_string(i))] = raw[i];
  }
  auto capped = [&](double rows) {
    in.rows = rows;
    RelStats out = est.Filter(in, {});
    EXPECT_EQ(out.rows, rows);
    std::vector<double> ndvs;
    for (size_t i = 0; i < raw.size(); ++i) {
      ndvs.push_back(out.NdvOf(Sym("cap_c" + std::to_string(i))));
    }
    return ndvs;
  };
  EXPECT_EQ(capped(64.0),
            (std::vector<double>{1.0, 1.0, 1.0, 7.5, 64.0, 64.0, 64.0}));
  // Degenerate ranges: at rows == 1 the bounds coincide, and below 1 the
  // lower bound wins; either way every NDV lands exactly on 1.
  for (double rows : {1.0, 0.5, 0.0}) {
    EXPECT_EQ(capped(rows), std::vector<double>(raw.size(), 1.0))
        << "rows=" << rows;
  }
}

// ---------------------------------------------------------------------------
// Cost model.
// ---------------------------------------------------------------------------

TEST(CostModelTest, ChoosePartitionsClampsAndScales) {
  EXPECT_EQ(ChoosePartitions(0), 1);
  EXPECT_EQ(ChoosePartitions(256.0e6), 1);
  EXPECT_EQ(ChoosePartitions(257.0e6), 2);
  EXPECT_EQ(ChoosePartitions(1.0e15), 500);
}

TEST(CostModelTest, BroadcastCostGrowsWithConsumers) {
  CostModel model;
  CostInputs node;
  node.kind = PhysOpKind::kExchangeBroadcast;
  node.est_rows = 1000;
  node.est_bytes = 1.0e6;
  node.partitions = 10;
  node.child_rows = {1000};
  node.child_bytes = {1.0e6};
  double c10 = model.LocalCost(node);
  node.partitions = 100;
  double c100 = model.LocalCost(node);
  EXPECT_GT(c100, c10 * 5);
}

TEST(CostModelTest, MergeJoinIncludesSortCost) {
  CostModel model;
  CostInputs hash, merge;
  hash.kind = PhysOpKind::kHashJoin;
  merge.kind = PhysOpKind::kMergeJoin;
  hash.partitions = merge.partitions = 4;
  hash.child_rows = merge.child_rows = {1.0e7, 1.0e7};
  hash.child_bytes = merge.child_bytes = {1.0e9, 1.0e9};
  EXPECT_GT(model.LocalCost(merge), model.LocalCost(hash));
}

// ---------------------------------------------------------------------------
// End-to-end optimization properties.
// ---------------------------------------------------------------------------

scope::Catalog PlanCatalog() {
  scope::Catalog catalog;
  scope::TableStats fact;
  fact.true_rows = 5e7;
  fact.est_rows = 6e7;
  fact.avg_row_bytes = 80;
  fact.columns["k"] = {2e5, 1.5e5};
  fact.columns["grp"] = {50, 45};
  fact.columns["v"] = {1e6, 1e6};
  catalog.RegisterTable("fact", fact);
  scope::TableStats dim;
  dim.true_rows = 2e6;
  dim.est_rows = 2.2e6;
  dim.avg_row_bytes = 40;
  dim.columns["pk"] = {2e6, 2.2e6};
  dim.columns["attr"] = {300, 280};
  catalog.RegisterTable("dim", dim);
  return catalog;
}

const char* kPlanScript = R"(
  f = EXTRACT k:long, grp:string, v:double FROM "fact";
  d = EXTRACT pk:long, attr:string FROM "dim";
  fd = SELECT * FROM f JOIN d ON k == pk @ 1.0 WHERE grp == "g" @ 0.02;
  agg = SELECT attr, SUM(v) AS total FROM fd GROUP BY attr;
  OUTPUT agg TO "out";
)";

TEST(OptimizerPlanTest, DefaultPlanIsWellFormed) {
  scope::Catalog catalog = PlanCatalog();
  auto logical = scope::CompileSource(kPlanScript, catalog);
  ASSERT_TRUE(logical.ok()) << logical.status();
  Optimizer optimizer(catalog);
  auto out = optimizer.Optimize(*logical, RuleConfig::Default());
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_GT(out->est_cost, 0);
  // Root must be the Output operator; all children ids must be valid.
  ASSERT_EQ(out->plan.roots.size(), 1u);
  EXPECT_EQ(out->plan.node(out->plan.roots[0]).kind, PhysOpKind::kOutput);
  for (const auto& node : out->plan.nodes) {
    for (int c : node.children) {
      ASSERT_GE(c, 0);
      ASSERT_LT(c, static_cast<int>(out->plan.size()));
    }
    EXPECT_GE(node.partitions, 1);
    EXPECT_GE(node.est_rows, 0);
    EXPECT_GE(node.true_rows, 0);
  }
  // Filter was pushed into the scan by normalization.
  bool scan_with_pred = false;
  for (const auto& node : out->plan.nodes) {
    if (node.kind == PhysOpKind::kScan && !node.predicates.empty()) {
      scan_with_pred = true;
    }
  }
  EXPECT_TRUE(scan_with_pred) << out->plan.ToString();
}

TEST(OptimizerPlanTest, SignatureContainsUsedImplementations) {
  scope::Catalog catalog = PlanCatalog();
  auto logical = scope::CompileSource(kPlanScript, catalog);
  ASSERT_TRUE(logical.ok());
  Optimizer optimizer(catalog);
  auto out = optimizer.Optimize(*logical, RuleConfig::Default());
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->signature.Test(rules::kScanImpl));
  EXPECT_TRUE(out->signature.Test(rules::kOutputImpl));
  EXPECT_TRUE(out->signature.Test(rules::kHashAggImpl));
  // Join implemented somehow.
  EXPECT_TRUE(out->signature.Test(rules::kHashJoinImpl) ||
              out->signature.Test(rules::kBroadcastJoinImpl) ||
              out->signature.Test(rules::kMergeJoinImpl));
  // Required normalization rules always present.
  EXPECT_TRUE(out->signature.Test(rules::kNormalizeScript));
  // Disabled rules can never appear in the signature.
  EXPECT_FALSE(out->signature.Test(rules::kEagerAggregationLeft));
}

TEST(OptimizerPlanTest, DisablingFilterPushdownKeepsFilterAboveScan) {
  scope::Catalog catalog = PlanCatalog();
  auto logical = scope::CompileSource(kPlanScript, catalog);
  ASSERT_TRUE(logical.ok());
  Optimizer optimizer(catalog);
  auto config = RuleConfig::Default();
  config.Disable(rules::kFilterIntoScan);
  auto out = optimizer.Optimize(*logical, config);
  ASSERT_TRUE(out.ok());
  for (const auto& node : out->plan.nodes) {
    if (node.kind == PhysOpKind::kScan) {
      EXPECT_TRUE(node.predicates.empty());
    }
  }
  EXPECT_FALSE(out->signature.Test(rules::kFilterIntoScan));
}

TEST(OptimizerPlanTest, EnablingOffByDefaultRuleNeverRaisesEstCost) {
  // Adding alternatives to the search space can only help the estimate.
  scope::Catalog catalog = PlanCatalog();
  auto logical = scope::CompileSource(kPlanScript, catalog);
  ASSERT_TRUE(logical.ok());
  Optimizer optimizer(catalog);
  auto base = optimizer.Optimize(*logical, RuleConfig::Default());
  ASSERT_TRUE(base.ok());
  for (int rule :
       RuleRegistry::Get().ByCategory(RuleCategory::kOffByDefault)) {
    auto flipped =
        optimizer.Optimize(*logical, RuleConfig::DefaultWithFlip(rule));
    ASSERT_TRUE(flipped.ok()) << RuleRegistry::Get().name(rule);
    EXPECT_LE(flipped->est_cost, base->est_cost * (1.0 + 1e-9))
        << RuleRegistry::Get().name(rule);
  }
}

// Property sweep: flipping each of the 256 rules either produces a valid
// plan (positive cost, valid roots) or a clean CompileError — never a crash
// or a malformed result.
class AllFlipsTest : public ::testing::TestWithParam<int> {};

TEST_P(AllFlipsTest, FlipIsSafe) {
  static const scope::Catalog catalog = PlanCatalog();
  static const auto logical = scope::CompileSource(kPlanScript, catalog);
  ASSERT_TRUE(logical.ok());
  Optimizer optimizer(catalog);
  int rule = GetParam();
  auto out = optimizer.Optimize(*logical,
                                RuleConfig::DefaultWithFlip(rule));
  if (RuleRegistry::Get().category(rule) == RuleCategory::kRequired) {
    EXPECT_FALSE(out.ok());
    return;
  }
  if (out.ok()) {
    EXPECT_GT(out->est_cost, 0);
    EXPECT_FALSE(out->plan.roots.empty());
  } else {
    EXPECT_TRUE(out.status().IsCompileError()) << out.status();
  }
}

INSTANTIATE_TEST_SUITE_P(All256, AllFlipsTest, ::testing::Range(0, 256));

TEST(OptimizerPlanTest, DeterministicAcrossRepeatedCalls) {
  scope::Catalog catalog = PlanCatalog();
  auto logical = scope::CompileSource(kPlanScript, catalog);
  ASSERT_TRUE(logical.ok());
  Optimizer optimizer(catalog);
  auto a = optimizer.Optimize(*logical, RuleConfig::Default());
  auto b = optimizer.Optimize(*logical, RuleConfig::Default());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->est_cost, b->est_cost);
  EXPECT_EQ(a->signature, b->signature);
  EXPECT_EQ(a->plan.ToString(), b->plan.ToString());
}

// ---------------------------------------------------------------------------
// Cross-config memo golden: the memo is an invisible accelerator. Outputs
// must be byte-identical to a fresh parse + optimize, at any thread count.
// ---------------------------------------------------------------------------

workload::JobInstance MemoJob() {
  workload::JobInstance job;
  job.template_name = "memo_golden";
  job.job_id = "memo_golden_0";
  job.script = kPlanScript;
  job.catalog = PlanCatalog();
  return job;
}

std::vector<RuleConfig> MemoConfigs() {
  std::vector<RuleConfig> configs;
  configs.push_back(RuleConfig::Default());
  // An unwired placeholder rule: never consulted, so the memo's full tier
  // can serve this config from the default-config compile.
  configs.push_back(RuleConfig::DefaultWithFlip(100));
  // A consulted off-by-default exploration rule (post-normalization phase):
  // eligible for the normalized tier, not the full tier.
  configs.push_back(RuleConfig::DefaultWithFlip(rules::kEagerAggregationLeft));
  // A consulted normalization rule: changes the normalized plan itself.
  RuleConfig no_pushdown = RuleConfig::Default();
  no_pushdown.Disable(rules::kFilterIntoScan);
  configs.push_back(no_pushdown);
  return configs;
}

std::string OutputKey(const CompilationOutput& out) {
  char cost[64];
  std::snprintf(cost, sizeof(cost), "%.17g", out.est_cost);
  return out.plan.ToString() + "|" + cost + "|" + out.signature.ToString();
}

/// MemoConfigs() plus every single flip of the default configuration: the
/// recommender's full sweep over one job.
std::vector<RuleConfig> SweepConfigs() {
  std::vector<RuleConfig> configs = MemoConfigs();
  for (int r = 0; r < 256; ++r) {
    configs.push_back(RuleConfig::DefaultWithFlip(r));
  }
  return configs;
}

/// The reference oracle: a fresh parse + optimize with no engine, cache or
/// memo. Returns the output key, or the error text of a failing config.
std::string ReferenceKey(const workload::JobInstance& job,
                         const RuleConfig& config) {
  auto plan = scope::CompileSource(job.script, job.catalog);
  if (!plan.ok()) return plan.status().ToString();
  auto out = Optimizer(job.catalog, {}).Optimize(*plan, config);
  return out.ok() ? OutputKey(*out) : out.status().ToString();
}

TEST(CrossConfigMemoTest, OutputsIdenticalToFreshCompile) {
  workload::JobInstance job = MemoJob();
  auto plan = scope::CompileSource(job.script, job.catalog);
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::vector<RuleConfig> configs = SweepConfigs();
  obs::Registry::Get().ZeroAllForTest();
  engine::ScopeEngine engine;

  // Memo tier counts, read from the registry.
  struct MemoCounts {
    double full_hits = 0.0;
    double norm_hits = 0.0;
    double misses = 0.0;
  };
  auto memo_counts = [] {
    const obs::MetricsSnapshot snap = obs::Registry::Get().Snapshot();
    return MemoCounts{snap.SeriesValue("optimizer.memo.full_hits"),
                      snap.SeriesValue("optimizer.memo.norm_hits"),
                      snap.SeriesValue("optimizer.memo.misses")};
  };
  MemoCounts first_pass;
  size_t failing = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < configs.size(); ++i) {
      auto got = engine.Compile(job, configs[i]);
      auto want = Optimizer(job.catalog, {}).Optimize(*plan, configs[i]);
      ASSERT_EQ(got.ok(), want.ok()) << "config " << i;
      if (!want.ok()) {
        EXPECT_EQ(got.status(), want.status()) << "config " << i;
        if (pass == 0) ++failing;
        continue;
      }
      EXPECT_EQ(OutputKey(*got), OutputKey(*want)) << "config " << i;
    }
    if (pass == 0) first_pass = memo_counts();
  }
  // The sweep must include failing configs for the Status check to bite.
  EXPECT_GT(failing, 0u);

  // The first pass must actually have exercised the memo: config 100 is
  // never consulted (full-tier hit) and the exploration flip reuses the
  // normalized plan (normalized-tier hit).
  EXPECT_GT(first_pass.full_hits, 0.0);
  EXPECT_GT(first_pass.norm_hits, 0.0);
  EXPECT_GT(first_pass.misses, 0.0);
  // The second pass is served entirely by the full tier: a whole
  // recommender sweep fits under the memo's full-tier bound, so the memo
  // alone caches every config of the job.
  const MemoCounts t = memo_counts();
  EXPECT_EQ(t.misses, first_pass.misses);
  EXPECT_EQ(t.norm_hits, first_pass.norm_hits);
  EXPECT_EQ(t.full_hits - first_pass.full_hits, configs.size());
}

TEST(CrossConfigMemoTest, ThreadCountDoesNotChangeOutputs) {
  workload::JobInstance job = MemoJob();
  std::vector<RuleConfig> configs = SweepConfigs();
  std::vector<std::string> expected;
  for (const RuleConfig& config : configs) {
    expected.push_back(ReferenceKey(job, config));
  }

  // The sweep fanned out over 4 worker threads, twice over so later
  // iterations race against fully warmed memo tiers.
  engine::ScopeEngine threaded;
  runtime::ParallelRuntime pool({.num_threads = 4});
  std::vector<std::string> got = pool.TransformOrdered<std::string>(
      configs.size() * 2, [](size_t i) { return i; },
      [](size_t) { return 0.0; },
      [&](size_t i) {
        auto out = threaded.Compile(job, configs[i % configs.size()]);
        return out.ok() ? OutputKey(*out) : out.status().ToString();
      });
  ASSERT_EQ(got.size(), expected.size() * 2);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i % expected.size()]) << "config " << i;
  }
}

// ---------------------------------------------------------------------------
// Compile golden: a pinned digest of everything the front end and the
// optimizer produce for a fixed set of fig10-shaped jobs under every sweep
// configuration. It pins plan output across changes to how names are
// represented inside the compile path.
// ---------------------------------------------------------------------------

/// Per-node rendering of every payload PhysicalPlan::ToString omits.
std::string PayloadDump(const PhysicalPlan& plan) {
  std::string out;
  char buf[192];
  for (const PhysicalNode& n : plan.nodes) {
    out += std::to_string(n.id);
    out += " preds[";
    for (const scope::Predicate& p : n.predicates) {
      out += p.ToString();
      std::snprintf(buf, sizeof(buf), " @%.17g;", p.true_selectivity);
      out += buf;
    }
    out += "] proj[";
    for (const scope::SelectItem& s : n.projections) {
      out += s.ToString();
      out += " -> ";
      out += SymName(s.output);
      out += ';';
    }
    out += "] by[";
    for (Symbol g : n.group_by) {
      out += SymName(g);
      out += ';';
    }
    out += "] out=";
    out += SymName(n.output_path);
    out += " schema=";
    out += n.schema != nullptr ? n.schema->ToString() : std::string("null");
    std::snprintf(buf, sizeof(buf),
                  " est=%.17g true=%.17g P=%d local=%.17g fan=%.17g\n",
                  n.est_rows, n.true_rows, n.partitions, n.local_cost,
                  n.true_fanout);
    out += buf;
  }
  return out;
}

/// The first jobs of day 0 of the fig10 workload (seed 2022).
std::vector<workload::JobInstance> GoldenJobs() {
  workload::WorkloadDriver driver(
      {.num_templates = 90, .jobs_per_day = 150, .seed = 2022});
  std::vector<workload::JobInstance> jobs = driver.DayJobs(0);
  jobs.resize(48);
  return jobs;
}

/// Digest of one compile source: the logical dump, then per config the
/// output key plus payload dump, or the error Status text.
uint64_t GoldenDigest(
    const std::vector<workload::JobInstance>& jobs,
    const std::function<Result<CompilationOutput>(
        const workload::JobInstance&, const RuleConfig&)>& compile) {
  const std::vector<RuleConfig> configs = SweepConfigs();
  std::string per_job;
  for (const workload::JobInstance& job : jobs) {
    std::string all;
    auto logical = scope::CompileSource(job.script, job.catalog);
    all += logical.ok() ? logical->ToString() : logical.status().ToString();
    for (const RuleConfig& config : configs) {
      auto out = compile(job, config);
      all += '\n';
      if (out.ok()) {
        all += OutputKey(*out);
        all += '\n';
        all += PayloadDump(out->plan);
      } else {
        all += out.status().ToString();
      }
    }
    per_job += std::to_string(HashString(all));
    per_job += '\n';
  }
  return HashString(per_job);
}

// Recorded on the build that still carried string twins of every name. Only
// PayloadDump's field reads may change with the plan representation; an
// intentional output change updates this value and says why in CHANGES.md.
constexpr uint64_t kCompileGoldenDigest = 0x7b8517ad5281e894ULL;

TEST(CompileGoldenTest, PlanDumpsMatchPinnedDigest) {
  const std::vector<workload::JobInstance> jobs = GoldenJobs();
  // The set must reach every payload kind the dumps render.
  std::string shapes;
  for (const workload::JobInstance& job : jobs) shapes += job.script;
  for (const char* clause : {"JOIN", "WHERE", "GROUP BY", "UNION ALL"}) {
    EXPECT_NE(shapes.find(clause), std::string::npos) << clause;
  }
  const uint64_t fresh = GoldenDigest(
      jobs, [](const workload::JobInstance& job, const RuleConfig& config)
                -> Result<CompilationOutput> {
        QO_ASSIGN_OR_RETURN(scope::LogicalPlan plan,
                            scope::CompileSource(job.script, job.catalog));
        return Optimizer(job.catalog, {}).Optimize(plan, config);
      });
  EXPECT_EQ(fresh, kCompileGoldenDigest) << std::hex << fresh;
  engine::ScopeEngine engine;
  const uint64_t cached = GoldenDigest(
      jobs, [&](const workload::JobInstance& job, const RuleConfig& config) {
        return engine.Compile(job, config);
      });
  EXPECT_EQ(cached, kCompileGoldenDigest) << std::hex << cached;
}

TEST(OptimizerPlanTest, TrueRowsUseAnnotationsNotEstimates) {
  scope::Catalog catalog = PlanCatalog();
  auto logical = scope::CompileSource(kPlanScript, catalog);
  ASSERT_TRUE(logical.ok());
  Optimizer optimizer(catalog);
  auto out = optimizer.Optimize(*logical, RuleConfig::Default());
  ASSERT_TRUE(out.ok());
  // The scan of "fact" must carry est 6e7-ish and true 5e7-ish rows.
  for (const auto& node : out->plan.nodes) {
    if (node.kind == PhysOpKind::kScan && node.table_path == Sym("fact") &&
        node.predicates.empty()) {
      EXPECT_DOUBLE_EQ(node.est_rows, 6e7);
      EXPECT_DOUBLE_EQ(node.true_rows, 5e7);
    }
  }
}

}  // namespace
}  // namespace qo::opt
