// Tests of tools/fs_lint v2: every seeded fixture under
// tests/lint_fixtures must be flagged with the expected rule at the
// expected line, the clean counterparts must stay quiet, and the
// tokenizer / CFG / summary / baseline machinery documented in
// tools/fs_lint/*.h must hold exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "cfg.h"
#include "lex.h"
#include "lint.h"

namespace fslint {
namespace {

std::string Fixture(const std::string& name) {
  return std::string(FS_LINT_FIXTURE_DIR) + "/" + name;
}

std::vector<Violation> RunFixture(const std::string& name) {
  return LintPath(Fixture(name));
}

size_t CountRule(const std::vector<Violation>& vs, const std::string& rule) {
  return static_cast<size_t>(
      std::count_if(vs.begin(), vs.end(),
                    [&](const Violation& v) { return v.rule == rule; }));
}

std::vector<int> LinesOfRule(const std::vector<Violation>& vs,
                             const std::string& rule) {
  std::vector<int> lines;
  for (const Violation& v : vs) {
    if (v.rule == rule) lines.push_back(v.line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

std::string Dump(const std::vector<Violation>& vs) {
  std::string s;
  for (const Violation& v : vs) s += Format(v) + "\n";
  return s;
}

// --- v1 fixture files (lexical rules, now running on the CFG) ---

TEST(FsLintFixtures, MissingFenceFlagsBothUnfencedPaths) {
  auto vs = RunFixture("missing_fence.cc");
  EXPECT_EQ(CountRule(vs, "fence-after-persist"), 2u);
  // The early return and the fall-off-the-end function; the properly
  // fenced CommitProperly contributes nothing.
  EXPECT_EQ(vs.size(), 2u) << Dump(vs);
}

TEST(FsLintFixtures, PmRawStoreFlagsMemcpyAndFieldStore) {
  auto vs = RunFixture("pm_raw_store.cc");
  EXPECT_EQ(CountRule(vs, "pm-store"), 2u);
  // The persisted and the waived variants are both clean.
  EXPECT_EQ(vs.size(), 2u) << Dump(vs);
}

TEST(FsLintFixtures, UnjustifiedRelaxedFlagsOnlyTheUntaggedSite) {
  auto vs = RunFixture("unjustified_relaxed.cc");
  ASSERT_EQ(vs.size(), 1u) << Dump(vs);
  EXPECT_EQ(vs[0].rule, "relaxed-needs-reason");
}

TEST(FsLintFixtures, HotAllocFlagsLockAndAllocation) {
  auto vs = RunFixture("hot_alloc.cc");
  EXPECT_EQ(CountRule(vs, "hot-path"), 2u);
  // try_lock in ServeWell and reserve() in the cold SetupPath are fine.
  EXPECT_EQ(vs.size(), 2u) << Dump(vs);
}

TEST(FsLintFixtures, RemoteWriteFlagsStoreAndMemcpy) {
  auto vs = RunFixture("remote_write.cc");
  EXPECT_EQ(CountRule(vs, "remote-write"), 2u);
  // The waived replication path and the local append are clean; every
  // store reaches a PersistFence, so pm-store stays quiet.
  EXPECT_EQ(vs.size(), 2u) << Dump(vs);
}

TEST(FsLintFixtures, CleanFixtureHasZeroViolations) {
  auto vs = RunFixture("clean.cc");
  EXPECT_TRUE(vs.empty()) << Dump(vs);
}

// --- v2 fixture files (path-sensitive / interprocedural rules) ---

TEST(FsLintFixtures, BranchyFenceFlagsOnlyTheUnfencedArm) {
  auto vs = RunFixture("branchy_fence.cc");
  // BranchFence fences on the `flush` arm only: one finding at its
  // closing brace. BothArmsFence, the early return, the noreturn crash
  // path, and the fence-guarded waiver are all clean.
  EXPECT_EQ(LinesOfRule(vs, "fence-after-persist"), (std::vector<int>{18}));
  EXPECT_EQ(vs.size(), 1u) << Dump(vs);
}

TEST(FsLintFixtures, PublishBeforePersistFlagsBothPublicationForms) {
  auto vs = RunFixture("publish_before_persist.cc");
  // The superblock field store and the release-store of the commit word,
  // each while a persist is pending. The fenced, paired-publish, and
  // publish-ok variants are clean.
  EXPECT_EQ(LinesOfRule(vs, "persist-before-publish"),
            (std::vector<int>{35, 45}));
  EXPECT_EQ(vs.size(), 2u) << Dump(vs);
}

TEST(FsLintFixtures, UnpinnedReadFlagsEveryPathWithoutAPin) {
  auto vs = RunFixture("unpinned_read.cc");
  // No pin at all (23), pin held on only one path (33), and the call to
  // an epoch-held helper without a pin (58). Scoped, manual, annotated,
  // and pinned-caller variants are clean.
  EXPECT_EQ(LinesOfRule(vs, "epoch-pin"), (std::vector<int>{23, 33, 58}));
  EXPECT_EQ(vs.size(), 3u) << Dump(vs);
}

TEST(FsLintFixtures, LockCycleFlagsBothWitnessEdges) {
  auto vs = RunFixture("lock_cycle.cc");
  // alpha->beta and beta->alpha are each reported at their witness
  // acquisition. The consistently ordered pair, the REQUIRES-seeded
  // edge, and the lock-order-waived init path produce nothing.
  EXPECT_EQ(LinesOfRule(vs, "lock-order-cycle"), (std::vector<int>{22, 27}));
  ASSERT_EQ(vs.size(), 2u) << Dump(vs);
  EXPECT_NE(vs[0].message.find("TwoLocks::alpha_lock"), std::string::npos);
  EXPECT_NE(vs[0].message.find("TwoLocks::beta_lock"), std::string::npos);
}

TEST(FsLintFixtures, InterprocFenceTracksObligationsThroughHelpers) {
  auto vs = RunFixture("interproc_fence.cc");
  // Only the caller that drops StageRecord's deferred obligation is
  // flagged; callers fenced by FlushRecord (even via FlushTwice) and the
  // caller that fences after StageRecord are clean.
  EXPECT_EQ(LinesOfRule(vs, "fence-after-persist"), (std::vector<int>{43}));
  EXPECT_EQ(vs.size(), 1u) << Dump(vs);
}

TEST(FsLintFixtures, TreeWalkAggregatesEveryFixture) {
  auto vs = LintTree(FS_LINT_FIXTURE_DIR);
  EXPECT_EQ(vs.size(), 18u) << Dump(vs);
  EXPECT_EQ(CountRule(vs, "fence-after-persist"), 4u);
  EXPECT_EQ(CountRule(vs, "pm-store"), 2u);
  EXPECT_EQ(CountRule(vs, "relaxed-needs-reason"), 1u);
  EXPECT_EQ(CountRule(vs, "hot-path"), 2u);
  EXPECT_EQ(CountRule(vs, "remote-write"), 2u);
  EXPECT_EQ(CountRule(vs, "persist-before-publish"), 2u);
  EXPECT_EQ(CountRule(vs, "epoch-pin"), 3u);
  EXPECT_EQ(CountRule(vs, "lock-order-cycle"), 2u);
}

// --- tokenizer ---

TEST(FsLintLex, StringsCharsAndPreprocessorProduceNoTokens) {
  LexFile lex = Lex(
      "int a = 1;  // trailing comment\n"
      "const char* s = \"Persist( { ) junk\";\n"
      "#define EVIL { ( \\\n"
      "    } )\n"
      "char c = '{';\n");
  int braces = 0;
  for (const Tok& t : lex.toks) {
    EXPECT_NE(t.text, "Persist");
    EXPECT_NE(t.text, "EVIL");
    EXPECT_NE(t.text, "junk");
    if (t.text == "{" || t.text == "}") braces++;
  }
  // Every brace in the input is inside a string, char literal, or macro
  // body — none of them is code in this translation unit.
  EXPECT_EQ(braces, 0);
  ASSERT_GE(lex.num_lines, 1);
  EXPECT_NE(lex.comments[0].find("trailing comment"), std::string::npos);
}

TEST(FsLintLex, WaiverReasonExtraction) {
  std::string r;
  EXPECT_TRUE(WaiverReason("// fs-lint: deferred-fence(batch commit point)",
                           "deferred-fence", &r));
  EXPECT_EQ(r, "batch commit point");
  EXPECT_TRUE(WaiverReason("fs-lint: pm-write()", "pm-write", &r));
  EXPECT_EQ(r, "");
  EXPECT_FALSE(WaiverReason("no marker in this comment", "pm-write", &r));
}

TEST(FsLintLex, NearbyCommentWindowIsInclusive) {
  LexFile lex = Lex("// tag-alpha\n\n\nint a;\n");
  EXPECT_TRUE(HasNearbyComment(lex, 3, "tag-alpha", 5));
  EXPECT_TRUE(HasNearbyComment(lex, 3, "tag-alpha", 3));
  EXPECT_FALSE(HasNearbyComment(lex, 3, "tag-alpha", 2));
  EXPECT_FALSE(HasNearbyComment(lex, 3, "tag-missing", 5));
}

// --- function extraction and CFG construction ---

TEST(FsLintCfg, NestedBracesStayOneFunctionWithScopeExits) {
  ParsedFile pf = Parse("f.cc",
                        "void N() {\n"
                        "  {\n"
                        "    {\n"
                        "      int x = 0;\n"
                        "    }\n"
                        "  }\n"
                        "}\n");
  ASSERT_EQ(pf.fns.size(), 1u);
  int scope_exits = 0;
  for (const CfgNode& n : pf.fns[0].nodes) {
    if (n.scope_exit_of >= 0) scope_exits++;
  }
  // One synthetic scope-exit per nested compound.
  EXPECT_GE(scope_exits, 2);
  EXPECT_TRUE(Reaches(pf.fns[0], FunctionDef::kEntry, FunctionDef::kExit));
}

TEST(FsLintCfg, LambdaIsLiftedIntoItsOwnFunction) {
  ParsedFile pf = Parse("f.cc",
                        "void Outer(int* v, int n) {\n"
                        "  int total = 0;\n"
                        "  ForEach(v, n, [&](int x) { total += x; });\n"
                        "  total++;\n"
                        "}\n");
  ASSERT_EQ(pf.fns.size(), 2u);
  const FunctionDef& outer = pf.fns[0];
  const FunctionDef& lambda = pf.fns[1];
  EXPECT_FALSE(outer.is_lambda);
  EXPECT_TRUE(lambda.is_lambda);
  EXPECT_NE(lambda.qual.find("Outer::[lambda@"), std::string::npos);
  // The enclosing function records the span so its scanners skip it.
  EXPECT_EQ(outer.lambda_spans.size(), 1u);
}

TEST(FsLintCfg, NoreturnStatementsEdgeToExitAndAreMarked) {
  ParsedFile pf = Parse("f.cc",
                        "void Dies(bool ok) {\n"
                        "  if (!ok) {\n"
                        "    abort();\n"
                        "  }\n"
                        "}\n");
  ASSERT_EQ(pf.fns.size(), 1u);
  const FunctionDef& fn = pf.fns[0];
  int noreturn_nodes = 0;
  for (const CfgNode& n : fn.nodes) {
    if (n.is_noreturn) {
      noreturn_nodes++;
      ASSERT_EQ(n.succ.size(), 1u);
      EXPECT_EQ(n.succ[0], FunctionDef::kExit);
    }
  }
  EXPECT_EQ(noreturn_nodes, 1);
  EXPECT_NE(DumpCfg(fn, pf.lex).find("[noreturn]"), std::string::npos);
}

TEST(FsLintCfg, StatementsAfterReturnAreUnreachable) {
  ParsedFile pf = Parse("f.cc",
                        "int G() {\n"
                        "  return 1;\n"
                        "  int dead = 2;\n"
                        "}\n");
  ASSERT_EQ(pf.fns.size(), 1u);
  const FunctionDef& fn = pf.fns[0];
  bool found_return = false, found_dead = false;
  for (size_t i = 2; i < fn.nodes.size(); i++) {
    const int n = static_cast<int>(i);
    if (fn.nodes[i].is_return) {
      found_return = true;
      EXPECT_TRUE(Reaches(fn, FunctionDef::kEntry, n));
    } else if (fn.nodes[i].scope_exit_of < 0) {
      found_dead = true;
      EXPECT_FALSE(Reaches(fn, FunctionDef::kEntry, n));
    }
  }
  EXPECT_TRUE(found_return);
  EXPECT_TRUE(found_dead);
}

TEST(FsLintCfg, MarkerWindowIsClampedAtThePreviousFunction) {
  ParsedFile pf = Parse("f.cc",
                        "void A() {\n"
                        "  int x = 0;\n"
                        "  // fs-lint: deferred-fence(tail batch)\n"
                        "  x++;\n"
                        "}\n"
                        "void B() {\n"
                        "}\n");
  ASSERT_EQ(pf.fns.size(), 2u);
  // B's five-line marker window would reach A's body; the clamp stops it
  // at the line after A's closing brace so A's waiver cannot leak.
  EXPECT_EQ(pf.fns[1].marker_lo, pf.fns[0].end_line + 1);
}

// --- rule semantics on inline snippets ---

TEST(FsLintRules, PmLayerIsExemptFromFenceAndStoreRules) {
  const std::string code =
      "struct P { void* At(unsigned long); void Persist(const void*, int); };\n"
      "void F(P* p) {\n"
      "  char* d = static_cast<char*>(p->At(0));\n"
      "  d[0] = 1;\n"
      "  p->Persist(d, 1);\n"
      "}\n";
  // Outside src/pm this has an unfenced Persist; inside src/pm both
  // rules are off (the layer implements the primitives themselves).
  EXPECT_EQ(LintFile("src/log/f.cc", code).size(), 1u);
  EXPECT_TRUE(LintFile("src/pm/f.cc", code).empty());
}

TEST(FsLintRules, DoWhileBodyCountsButWhileBodyMayBeSkipped) {
  const std::string head =
      "struct P { void Persist(const void*, unsigned long); void Fence(); };\n";
  const std::string dowhile = head +
      "void F(P* p, void* r, bool more) {\n"
      "  p->Persist(r, 8);\n"
      "  do {\n"
      "    p->Fence();\n"
      "  } while (more);\n"
      "}\n";
  const std::string whileloop = head +
      "void F(P* p, void* r, bool more) {\n"
      "  p->Persist(r, 8);\n"
      "  while (more) {\n"
      "    p->Fence();\n"
      "  }\n"
      "}\n";
  // A do/while body runs at least once, so its fence covers every path;
  // a while body can be skipped entirely.
  EXPECT_TRUE(LintFile("src/log/f.cc", dowhile).empty());
  EXPECT_EQ(LintFile("src/log/f.cc", whileloop).size(), 1u);
}

TEST(FsLintRules, SwitchFallthroughReachesTheFence) {
  const std::string head =
      "struct P { void Persist(const void*, unsigned long); void Fence(); };\n";
  const std::string breaks_out = head +
      "void F(P* p, void* r, int k) {\n"
      "  p->Persist(r, 8);\n"
      "  switch (k) {\n"
      "    case 0:\n"
      "      p->Fence();\n"
      "      break;\n"
      "    case 1:\n"
      "      break;\n"
      "    default:\n"
      "      p->Fence();\n"
      "  }\n"
      "}\n";
  const std::string falls_through = head +
      "void F(P* p, void* r, int k) {\n"
      "  p->Persist(r, 8);\n"
      "  switch (k) {\n"
      "    case 0:\n"
      "    default:\n"
      "      p->Fence();\n"
      "  }\n"
      "}\n";
  // `case 1: break;` exits the switch unfenced; a case that falls
  // through into the fencing default is covered.
  EXPECT_EQ(LintFile("src/log/f.cc", breaks_out).size(), 1u);
  EXPECT_TRUE(LintFile("src/log/f.cc", falls_through).empty());
}

TEST(FsLintRules, EmptyWaiverReasonIsItselfAViolation) {
  const std::string code =
      "// fs-lint: deferred-fence()\n"
      "void F(int* p) { *p = 1; }\n";
  auto vs = LintFile("src/log/f.cc", code);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "waiver-needs-reason");
}

TEST(FsLintRules, RelaxedTagWindowIsExactlyFiveLines) {
  const std::string tag = "// relaxed: single-writer cursor.\n";
  const std::string site = "int F(std::atomic<int>* a) {\n"
                           "  return a->load(std::memory_order_relaxed);\n"
                           "}\n";
  // 3 blank lines + the signature line: tag sits 5 lines above the
  // relaxed site — covered.
  EXPECT_TRUE(LintFile("src/net/f.cc", tag + "\n\n\n" + site).empty());
  // One more blank line: tag sits 6 lines above — out of the window.
  EXPECT_EQ(LintFile("src/net/f.cc", tag + "\n\n\n\n" + site).size(), 1u);
}

TEST(FsLintRules, TokensInCommentsAndStringsAreIgnored) {
  const std::string code =
      "void F(const char** out) {\n"
      "  // Persist(x) then memory_order_relaxed — just prose.\n"
      "  *out = \"Persist( memory_order_relaxed lock_guard\";\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/log/f.cc", code).empty());
}

TEST(FsLintRules, BlanketRelaxedDefaultCoversWholeFile) {
  const std::string code =
      "// fs-lint: relaxed-default(stat counters only)\n"
      "unsigned long F(std::atomic<unsigned long>* a) {\n"
      "  return a->load(std::memory_order_relaxed);\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/log/f.cc", code).empty());
}

TEST(FsLintRules, PersistFenceAloneSatisfiesTheFenceRule) {
  const std::string code =
      "void F(Pool* p, void* r) { p->PersistFence(r, 8); }\n";
  EXPECT_TRUE(LintFile("src/log/f.cc", code).empty());
}

TEST(FsLintRules, NetLayerIsExemptFromRemoteWrite) {
  const std::string code =
      "struct P { void* At(unsigned long); "
      "void PersistFence(const void*, int); };\n"
      "void F(P* p) {\n"
      "  char* remote_buf = static_cast<char*>(p->At(0));\n"
      "  remote_buf[0] = 1;\n"
      "  p->PersistFence(remote_buf, 1);\n"
      "}\n";
  // The same write is a remote-write violation in the log layer but
  // sanctioned inside src/net (the RPC fabric).
  auto vs = LintFile("src/log/f.cc", code);
  ASSERT_EQ(vs.size(), 1u) << Format(vs[0]);
  EXPECT_EQ(vs[0].rule, "remote-write");
  EXPECT_TRUE(LintFile("src/net/f.cc", code).empty());
}

TEST(FsLintRules, EmptyRemoteWriteWaiverIsItselfAViolation) {
  const std::string code =
      "// fs-lint: remote-write()\n"
      "void F(int* p) { *p = 1; }\n";
  auto vs = LintFile("src/log/f.cc", code);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "waiver-needs-reason");
}

TEST(FsLintRules, MissingFileReportsIoViolation) {
  auto vs = LintPath(Fixture("does_not_exist.cc"));
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "io");
}

// --- whole-run result: stats, registry, dedupe ---

TEST(FsLintResult, LintPathsCountsFilesFunctionsAndWaivers) {
  LintResult r = LintPaths({std::string(FS_LINT_FIXTURE_DIR)});
  EXPECT_EQ(r.violations.size(), 18u) << Dump(r.violations);
  EXPECT_GE(r.files, 11);
  EXPECT_GE(r.functions, 30);
  // The registry collects every annotation the fixtures carry.
  std::map<std::string, int> markers;
  for (const Waiver& w : r.waivers) markers[w.marker]++;
  for (const char* m : {"deferred-fence", "fence-guarded", "publish-ok",
                        "epoch-held", "lock-order"}) {
    EXPECT_GE(markers[m], 1) << "registry is missing marker " << m;
  }
}

TEST(FsLintResult, DuplicateRootsDeduplicateViolations) {
  LintResult r =
      LintPaths({Fixture("missing_fence.cc"), Fixture("missing_fence.cc")});
  EXPECT_EQ(r.violations.size(), 2u) << Dump(r.violations);
}

TEST(FsLintResult, JsonAndReportRenderTheRun) {
  LintResult r = LintPaths({Fixture("branchy_fence.cc")});
  const std::string json = ToJson(r);
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"violations\": ["), std::string::npos);
  EXPECT_NE(json.find("\"waivers\": ["), std::string::npos);
  EXPECT_NE(json.find("fence-after-persist"), std::string::npos);
  const std::string report = ToReport(r);
  EXPECT_NE(report.find("fence-guarded"), std::string::npos);
  EXPECT_NE(report.find("open findings"), std::string::npos);
}

// --- baseline differential ---

TEST(FsLintBaseline, KeyBlanksLineNumbersSoFindingsTrackCodeMotion) {
  Violation a{"src/log/f.cc", 10, "persist-before-publish",
              "store publishes 'sb->x' while the persist at line 32, 33 is "
              "not yet fenced"};
  Violation b{"src/log/f.cc", 99, "persist-before-publish",
              "store publishes 'sb->x' while the persist at line 7, 9 is "
              "not yet fenced"};
  EXPECT_EQ(BaselineKey(a), BaselineKey(b));
  Violation c = a;
  c.rule = "pm-store";
  EXPECT_NE(BaselineKey(a), BaselineKey(c));
}

TEST(FsLintBaseline, SaveLoadDiffRoundTrip) {
  LintResult r = LintPaths({std::string(FS_LINT_FIXTURE_DIR)});
  ASSERT_EQ(r.violations.size(), 18u);

  std::map<std::string, int> base;
  ASSERT_TRUE(LoadBaseline(SaveBaseline(r), &base));
  // Everything baselined: the differential is clean.
  EXPECT_TRUE(DiffBaseline(r.violations, base).empty());

  // An empty baseline surfaces every finding.
  std::map<std::string, int> empty_base;
  ASSERT_TRUE(LoadBaseline("{\"version\": 1, \"findings\": {}}", &empty_base));
  EXPECT_EQ(DiffBaseline(r.violations, empty_base).size(),
            r.violations.size());

  // Occurrences beyond the baselined count survive the diff.
  std::map<std::string, int> partial = base;
  for (auto& [key, count] : partial) {
    count -= 1;
    break;
  }
  EXPECT_EQ(DiffBaseline(r.violations, partial).size(), 1u);

  EXPECT_FALSE(LoadBaseline("not json at all", &base));
}

}  // namespace
}  // namespace fslint
