//===- tests/test_support.cpp - support/ unit tests -----------------------===//

#include "support/Chart.h"
#include "support/ParseInt.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

using namespace eco;

TEST(StringUtils, JoinBasic) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({"a", "b"}, ""), "ab");
}

TEST(StringUtils, Strformat) {
  EXPECT_EQ(strformat("x=%d y=%s", 42, "hi"), "x=42 y=hi");
  EXPECT_EQ(strformat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(strformat("empty"), "empty");
}

TEST(ParseInt, StrictRangesAndFullUnsignedRange) {
  int64_t I = -7;
  EXPECT_TRUE(parseIntInRange("2", 2, 4096, &I));
  EXPECT_EQ(I, 2);
  for (const char *Bad : {"", "abc", "7x", "1", "4097"})
    EXPECT_FALSE(parseIntInRange(Bad, 2, 4096, &I)) << Bad;
  EXPECT_EQ(I, 2);

  // Every uint64_t parses back, including seeds above INT64_MAX.
  uint64_t U = 0;
  EXPECT_TRUE(parseUInt64("18446744073709551615", &U));
  EXPECT_EQ(U, UINT64_MAX);
  EXPECT_TRUE(parseUInt64("9223372036854775808", &U));
  EXPECT_EQ(U, uint64_t(1) << 63);
  for (const char *Bad :
       {"", "-1", "+1", " 1", "7x", "18446744073709551616"})
    EXPECT_FALSE(parseUInt64(Bad, &U)) << Bad;
  EXPECT_EQ(U, uint64_t(1) << 63);
}

TEST(StringUtils, WithCommas) {
  EXPECT_EQ(withCommas(0), "0");
  EXPECT_EQ(withCommas(999), "999");
  EXPECT_EQ(withCommas(1000), "1,000");
  EXPECT_EQ(withCommas(1234567), "1,234,567");
  EXPECT_EQ(withCommas(10151010869ULL), "10,151,010,869");
}

TEST(StringUtils, Padding) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padLeft("abcd", 2), "abcd");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padRight("", 3), "   ");
}

TEST(StringUtils, StartsWithAndRepeat) {
  EXPECT_TRUE(startsWith("matmul_v2", "matmul"));
  EXPECT_FALSE(startsWith("mat", "matmul"));
  EXPECT_EQ(repeat("ab", 3), "ababab");
  EXPECT_EQ(repeat("x", 0), "");
}

TEST(TableTest, RendersAlignedColumns) {
  Table T({"Version", "Loads", "Cycles"});
  T.addRow({"mm1", "4,197,888,365", "10,151,010,869"});
  T.addRow({"mm5", "5,119,308,380", "9,175,706,120"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("Version"), std::string::npos);
  EXPECT_NE(Out.find("mm1"), std::string::npos);
  EXPECT_NE(Out.find("----"), std::string::npos);
  // Numbers right-align: both numeric columns end at the same offset.
  EXPECT_EQ(T.numRows(), 2u);
  EXPECT_EQ(T.numCols(), 3u);
}

TEST(TableTest, ShortRowsArePadded) {
  Table T({"a", "b", "c"});
  T.addRow({"x"});
  std::string Out = T.render();
  EXPECT_NE(Out.find('x'), std::string::npos);
}

TEST(TableTest, CsvEscapesSpecials) {
  Table T({"name", "value"});
  T.addRow({"with,comma", "with\"quote"});
  std::string Csv = T.renderCsv();
  EXPECT_NE(Csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(Csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(RngTest, DeterministicForSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  bool AnyDiff = false;
  for (int I = 0; I < 10; ++I)
    AnyDiff |= (A.next() != B.next());
  EXPECT_TRUE(AnyDiff);
}

TEST(RngTest, NextIntInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    int64_t V = R.nextInt(-3, 5);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 5);
  }
  // Degenerate range.
  EXPECT_EQ(R.nextInt(9, 9), 9);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng R(13);
  for (int I = 0; I < 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(StatsTest, MinMaxMean) {
  SummaryStats S;
  EXPECT_TRUE(S.empty());
  S.add(2.0);
  S.add(8.0);
  S.add(5.0);
  EXPECT_EQ(S.count(), 3u);
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.max(), 8.0);
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
}

TEST(TimerTest, MeasuresElapsed) {
  Timer T;
  volatile double Sink = 0;
  for (int I = 0; I < 100000; ++I)
    Sink = Sink + I;
  EXPECT_GE(T.seconds(), 0.0);
  EXPECT_GE(T.millis(), T.seconds()); // millis = 1000x seconds
}

TEST(ChartTest, EmptyChartRendersPlaceholder) {
  AsciiChart C;
  EXPECT_EQ(C.render(), "(empty chart)\n");
}

TEST(ChartTest, SingleSeriesPlotsAllPoints) {
  AsciiChart C(20, 8);
  C.addSeries("S", 'S', {0, 10, 20}, {0, 50, 100});
  std::string Out = C.render();
  // Three markers somewhere on the grid.
  size_t Count = 0;
  for (char Ch : Out)
    Count += Ch == 'S' ? 1 : 0;
  EXPECT_GE(Count, 3u + 1u); // three points + legend entry
  EXPECT_NE(Out.find("S = S"), std::string::npos);
}

TEST(ChartTest, OverlapUsesStar) {
  AsciiChart C(10, 5);
  C.addSeries("a", 'a', {0, 5}, {1, 1});
  C.addSeries("b", 'b', {0, 9}, {1, 2});
  std::string Out = C.render();
  EXPECT_NE(Out.find('*'), std::string::npos);
}

TEST(ChartTest, FixedYRangeClampsValues) {
  AsciiChart C(10, 5);
  C.setYRange(0, 10);
  C.addSeries("x", 'x', {0, 1}, {5, 100}); // 100 beyond range: clamped
  std::string Out = C.render();
  EXPECT_NE(Out.find('x'), std::string::npos);
  EXPECT_NE(Out.find("10 |"), std::string::npos);
}

TEST(ChartTest, LabelsAppear) {
  AsciiChart C(10, 5);
  C.setYLabel("MFLOPS");
  C.setXLabel("size");
  C.addSeries("x", 'x', {0, 1}, {0, 1});
  std::string Out = C.render();
  EXPECT_NE(Out.find("MFLOPS"), std::string::npos);
  EXPECT_NE(Out.find("size"), std::string::npos);
}

TEST(ChartTest, ConstantSeriesDoesNotDivideByZero) {
  AsciiChart C(10, 5);
  C.addSeries("c", 'c', {3, 3, 3}, {7, 7, 7});
  EXPECT_FALSE(C.render().empty());
}

// ---- Hash / NestHash / Json (engine persistence primitives) -------------

#include "ir/Loop.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/NestHash.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <thread>

TEST(HashTest, Fnv1aMatchesReferenceVectors) {
  // Published FNV-1a test vectors; the hashes persist to disk, so they
  // must never drift with the standard library or platform.
  EXPECT_EQ(eco::hashString(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(eco::hashString("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(eco::hashString("foobar"), 0x85944171f73967e8ull);
}

TEST(HashTest, HexIsFixedWidthLowercase) {
  std::string Hex = eco::hashHex(0x1a2bull);
  EXPECT_EQ(Hex.size(), 16u);
  EXPECT_EQ(Hex, "0000000000001a2b");
}

TEST(HashTest, CombineOrderMatters) {
  uint64_t A = eco::hashCombine(eco::hashCombine(eco::Fnv1aOffset, 1), 2);
  uint64_t B = eco::hashCombine(eco::hashCombine(eco::Fnv1aOffset, 2), 1);
  EXPECT_NE(A, B);
}

namespace {

/// A one-statement nest over arrays A[N,N]; symbols are declared in the
/// order given by the flags, so two calls with different flags produce
/// structurally identical nests with permuted symbol tables.
eco::LoopNest tinyNest(bool ParamsFirst, bool SwapParams) {
  eco::LoopNest Nest;
  Nest.Name = "tiny";
  eco::SymbolId N = -1, TI = -1, TJ = -1, I = -1;
  auto declParams = [&] {
    if (SwapParams) {
      TJ = Nest.declareParam("TJ");
      TI = Nest.declareParam("TI");
    } else {
      TI = Nest.declareParam("TI");
      TJ = Nest.declareParam("TJ");
    }
  };
  if (ParamsFirst) {
    declParams();
    N = Nest.declareProblemSize("N");
    I = Nest.declareLoopVar("I");
  } else {
    N = Nest.declareProblemSize("N");
    I = Nest.declareLoopVar("I");
    declParams();
  }
  eco::AffineExpr NE = eco::AffineExpr::sym(N);
  eco::ArrayId A = Nest.declareArray({"A", {NE, NE}});
  eco::AffineExpr IE = eco::AffineExpr::sym(I);
  eco::ArrayRef Ref(A, {IE, IE});
  auto Loop = std::make_unique<eco::Loop>(I, eco::AffineExpr::constant(0),
                                          eco::Bound(NE - 1));
  Loop->Items.push_back(eco::BodyItem(eco::Stmt::makeCompute(
      Ref, eco::ScalarExpr::makeRead(Ref))));
  Nest.Items.push_back(eco::BodyItem(std::move(Loop)));
  return Nest;
}

/// Binds N=64, TI=8, TJ=4 by name, whatever the symbol ids are.
eco::Env tinyConfig(const eco::LoopNest &Nest) {
  eco::Env E(Nest.Syms.size());
  E.set(Nest.Syms.lookup("N"), 64);
  E.set(Nest.Syms.lookup("TI"), 8);
  E.set(Nest.Syms.lookup("TJ"), 4);
  return E;
}

} // namespace

TEST(NestHashTest, InsensitiveToSymbolDeclarationOrder) {
  // Same structure, three different symbol-table orders: the canonical
  // print refers to symbols by name, so the hash must not change.
  eco::LoopNest N1 = tinyNest(false, false);
  eco::LoopNest N2 = tinyNest(true, false);
  eco::LoopNest N3 = tinyNest(true, true);
  EXPECT_EQ(eco::hashNest(N1), eco::hashNest(N2));
  EXPECT_EQ(eco::hashNest(N1), eco::hashNest(N3));
}

TEST(NestHashTest, SensitiveToStructure) {
  eco::LoopNest N1 = tinyNest(false, false);
  eco::LoopNest N2 = tinyNest(false, false);
  N2.Arrays[0].ElemBytes = 4; // same print, different array layout
  EXPECT_NE(eco::hashNest(N1), eco::hashNest(N2));
}

TEST(NestHashTest, EnvHashInsensitiveToSymbolOrder) {
  eco::LoopNest N1 = tinyNest(false, false);
  eco::LoopNest N2 = tinyNest(true, false);
  eco::LoopNest N3 = tinyNest(true, true);
  uint64_t H1 = eco::hashEnv(tinyConfig(N1), N1.Syms);
  uint64_t H2 = eco::hashEnv(tinyConfig(N2), N2.Syms);
  uint64_t H3 = eco::hashEnv(tinyConfig(N3), N3.Syms);
  EXPECT_EQ(H1, H2);
  EXPECT_EQ(H1, H3);
}

TEST(NestHashTest, EnvHashSeesValuesButNotLoopVars) {
  eco::LoopNest Nest = tinyNest(false, false);
  eco::Env E1 = tinyConfig(Nest);
  eco::Env E2 = tinyConfig(Nest);
  E2.set(Nest.Syms.lookup("TI"), 16); // a real config change
  EXPECT_NE(eco::hashEnv(E1, Nest.Syms), eco::hashEnv(E2, Nest.Syms));

  eco::Env E3 = tinyConfig(Nest);
  E3.set(Nest.Syms.lookup("I"), 37); // loop variable: not configuration
  EXPECT_EQ(eco::hashEnv(E1, Nest.Syms), eco::hashEnv(E3, Nest.Syms));
}

TEST(NestHashTest, SwappedValuesAcrossSymbolsDoNotCollide) {
  // Regression: with raw FNV pair hashes summed commutatively,
  // {TI=4,TJ=8} and {TI=8,TJ=4} collided (the pair hash is affine in the
  // value, so the difference cancels in the sum). mix64 must keep these
  // apart — a collision here silently served one config's cost for the
  // other and broke parallel/sequential determinism.
  eco::LoopNest Nest = tinyNest(false, false);
  eco::Env E1 = tinyConfig(Nest);
  eco::Env E2 = tinyConfig(Nest);
  E2.set(Nest.Syms.lookup("TI"), 4);
  E2.set(Nest.Syms.lookup("TJ"), 8); // E1 has TI=8, TJ=4
  EXPECT_NE(eco::hashEnv(E1, Nest.Syms), eco::hashEnv(E2, Nest.Syms));

  // Wider sweep: all distinct (TI, TJ) pairs over a small grid must
  // produce distinct hashes.
  std::set<uint64_t> Seen;
  size_t Count = 0;
  for (int64_t TI = 1; TI <= 16; ++TI)
    for (int64_t TJ = 1; TJ <= 16; ++TJ) {
      eco::Env E = tinyConfig(Nest);
      E.set(Nest.Syms.lookup("TI"), TI);
      E.set(Nest.Syms.lookup("TJ"), TJ);
      Seen.insert(eco::hashEnv(E, Nest.Syms));
      ++Count;
    }
  EXPECT_EQ(Seen.size(), Count);
}

TEST(NestHashTest, ShortEnvTreatedAsZeroBindings) {
  eco::LoopNest Nest = tinyNest(false, false);
  eco::Env Full(Nest.Syms.size()); // all zero
  eco::Env Empty;                  // no slots at all
  EXPECT_EQ(eco::hashEnv(Full, Nest.Syms), eco::hashEnv(Empty, Nest.Syms));
}

TEST(JsonTest, ScalarRoundTrip) {
  EXPECT_EQ(eco::Json(true).dump(), "true");
  EXPECT_EQ(eco::Json(42).dump(), "42");
  EXPECT_EQ(eco::Json(int64_t(1) << 53).dump(), "9007199254740992");
  EXPECT_EQ(eco::Json(2.5).dump(), "2.5");
  EXPECT_EQ(eco::Json("hi").dump(), "\"hi\"");
  EXPECT_EQ(eco::Json().dump(), "null");
}

TEST(JsonTest, StringEscapes) {
  std::string Raw = "a\"b\\c\n\t\x01";
  std::string Err;
  eco::Json Parsed = eco::Json::parse(eco::Json::quote(Raw), &Err);
  EXPECT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(Parsed.asString(), Raw);
}

TEST(JsonTest, ObjectKeepsInsertionOrderAndRoundTrips) {
  eco::Json O = eco::Json::object();
  O.set("zeta", 1);
  O.set("alpha", eco::Json::array());
  eco::Json Inner = eco::Json::object();
  Inner.set("k", "v");
  O.set("nested", std::move(Inner));
  std::string Text = O.dump();
  EXPECT_EQ(Text, "{\"zeta\":1,\"alpha\":[],\"nested\":{\"k\":\"v\"}}");

  std::string Err;
  eco::Json Back = eco::Json::parse(Text, &Err);
  EXPECT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(Back.dump(), Text);
  EXPECT_EQ(Back.get("nested").get("k").asString(), "v");
  EXPECT_TRUE(Back.get("missing").isNull());
}

TEST(JsonTest, ParseErrorsAreReported) {
  std::string Err;
  EXPECT_TRUE(eco::Json::parse("{\"a\":", &Err).isNull());
  EXPECT_FALSE(Err.empty());
  Err.clear();
  EXPECT_TRUE(eco::Json::parse("[1, 2,]", &Err).isNull());
  EXPECT_FALSE(Err.empty());
}

TEST(JsonTest, FileRoundTrip) {
  std::string Path = ::testing::TempDir() + "eco_json_roundtrip.json";
  eco::Json O = eco::Json::object();
  O.set("cost", 8.25e6);
  O.set("hits", 12);
  ASSERT_TRUE(O.saveFile(Path));
  std::string Err;
  eco::Json Back = eco::Json::loadFile(Path, &Err);
  EXPECT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(Back.get("cost").asNumber(), 8.25e6);
  EXPECT_EQ(Back.get("hits").asInt(), 12);
  std::remove(Path.c_str());
}

// ---- atomic persistence -------------------------------------------------

TEST(JsonTest, ConcurrentSaveFileAlwaysPublishesCompleteDocuments) {
  // Several writers snapshot different documents into ONE path while a
  // reader parses it in a loop. saveFile must stage each write under a
  // writer-unique temp name and publish via rename, so the reader only
  // ever observes a complete document. (The old fixed "<path>.tmp"
  // staging file let two writers interleave and rename torn JSON into
  // place — this test fails against that code.)
  const std::string Path =
      ::testing::TempDir() + "json_concurrent_save.json";
  constexpr int Writers = 4, SavesPerWriter = 30;

  auto docFor = [](int W) {
    Json J = Json::object();
    // Distinct payload sizes per writer so interleavings are visible.
    for (int I = 0; I <= W * 8; ++I)
      J.set(strformat("key_%d_%d", W, I), I * 1.5);
    return J;
  };
  ASSERT_TRUE(docFor(0).saveFile(Path));

  std::atomic<bool> Stop{false};
  std::atomic<size_t> Torn{0}, Good{0};
  std::thread Reader([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      std::string Error;
      if (Json::loadFile(Path, &Error).isObject())
        Good.fetch_add(1, std::memory_order_relaxed);
      else
        Torn.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> Threads;
  for (int W = 0; W < Writers; ++W)
    Threads.emplace_back([&docFor, &Path, W] {
      Json Mine = docFor(W);
      for (int S = 0; S < SavesPerWriter; ++S)
        ASSERT_TRUE(Mine.saveFile(Path));
    });
  for (std::thread &T : Threads)
    T.join();
  Stop.store(true);
  Reader.join();

  EXPECT_EQ(Torn.load(), 0u) << "reader observed torn JSON "
                             << Torn.load() << " time(s) ("
                             << Good.load() << " clean reads)";
  std::string Error;
  EXPECT_TRUE(Json::loadFile(Path, &Error).isObject()) << Error;
  std::remove(Path.c_str());
}

TEST(JsonTest, SaveFileLeavesNoTempDroppings) {
  // Every staged temp file must be renamed away or cleaned up.
  const std::string Dir = ::testing::TempDir() + "json_tmp_check/";
  (void)std::system(("rm -rf '" + Dir + "' && mkdir -p '" + Dir + "'").c_str());
  Json J = Json::object();
  J.set("a", 1);
  const std::string Path = Dir + "doc.json";
  for (int I = 0; I < 5; ++I)
    ASSERT_TRUE(J.saveFile(Path));
  // Only the published file may remain in the directory.
  const std::string CountFile = ::testing::TempDir() + "json_tmp_count";
  std::string Cmd = "ls -1 '" + Dir + "' | wc -l > '" + CountFile + "'";
  ASSERT_EQ(std::system(Cmd.c_str()), 0);
  std::ifstream Count(CountFile);
  int Entries = 0;
  Count >> Entries;
  EXPECT_EQ(Entries, 1); // doc.json only, no temp droppings
  std::remove(CountFile.c_str());
}
