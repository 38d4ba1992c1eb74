//===- tests/test_ir.cpp - ir/ unit tests ---------------------------------===//

#include "ir/Loop.h"
#include "kernels/Kernels.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace eco;

namespace {

class AffineTest : public ::testing::Test {
protected:
  SymbolTable Syms;
  SymbolId I = Syms.declare("I", SymbolKind::LoopVar);
  SymbolId J = Syms.declare("J", SymbolKind::LoopVar);
  SymbolId N = Syms.declare("N", SymbolKind::ProblemSize);
};

} // namespace

TEST_F(AffineTest, ConstantAndSymbol) {
  AffineExpr C = AffineExpr::constant(7);
  EXPECT_TRUE(C.isConstant());
  EXPECT_EQ(C.constTerm(), 7);

  AffineExpr V = AffineExpr::sym(I);
  EXPECT_FALSE(V.isConstant());
  EXPECT_EQ(V.coeff(I), 1);
  EXPECT_EQ(V.coeff(J), 0);
}

TEST_F(AffineTest, Arithmetic) {
  AffineExpr E = AffineExpr::sym(I) + AffineExpr::sym(J).scaled(2) + 5;
  EXPECT_EQ(E.coeff(I), 1);
  EXPECT_EQ(E.coeff(J), 2);
  EXPECT_EQ(E.constTerm(), 5);

  AffineExpr D = E - AffineExpr::sym(I);
  EXPECT_EQ(D.coeff(I), 0);
  EXPECT_FALSE(D.uses(I));
  EXPECT_TRUE(D.uses(J));
}

TEST_F(AffineTest, CancellationRemovesTerm) {
  AffineExpr E = AffineExpr::sym(I) - AffineExpr::sym(I);
  EXPECT_TRUE(E.isConstant());
  EXPECT_EQ(E.constTerm(), 0);
}

TEST_F(AffineTest, Eval) {
  Env E(Syms.size());
  E.set(I, 3);
  E.set(J, 4);
  E.set(N, 100);
  AffineExpr Expr = AffineExpr::sym(I).scaled(2) + AffineExpr::sym(N) - 1;
  EXPECT_EQ(Expr.eval(E), 2 * 3 + 100 - 1);
}

TEST_F(AffineTest, Substitute) {
  // I -> I + 2 (unrolling offset)
  AffineExpr E = AffineExpr::sym(I) + AffineExpr::sym(J);
  AffineExpr S = E.substitute(I, AffineExpr::sym(I) + 2);
  EXPECT_EQ(S.coeff(I), 1);
  EXPECT_EQ(S.constTerm(), 2);

  // I -> 0 (hoisting to loop entry)
  AffineExpr Z = E.substitute(I, AffineExpr::constant(0));
  EXPECT_FALSE(Z.uses(I));

  // Coefficient scaling: 3*I with I -> J+1 becomes 3*J+3.
  AffineExpr Scaled =
      AffineExpr::sym(I).scaled(3).substitute(I, AffineExpr::sym(J) + 1);
  EXPECT_EQ(Scaled.coeff(J), 3);
  EXPECT_EQ(Scaled.constTerm(), 3);
}

TEST_F(AffineTest, SubstituteNoOccurrenceIsIdentity) {
  AffineExpr E = AffineExpr::sym(J) + 1;
  EXPECT_EQ(E.substitute(I, AffineExpr::constant(42)), E);
}

TEST_F(AffineTest, Printing) {
  EXPECT_EQ(AffineExpr::constant(0).str(Syms), "0");
  EXPECT_EQ(AffineExpr::sym(I).str(Syms), "I");
  EXPECT_EQ((AffineExpr::sym(I) + 2).str(Syms), "I+2");
  EXPECT_EQ((AffineExpr::sym(I) - 1).str(Syms), "I-1");
  EXPECT_EQ((AffineExpr::sym(N).scaled(2) + AffineExpr::sym(I)).str(Syms),
            "I+2*N");
  EXPECT_EQ(AffineExpr::sym(I).scaled(-1).str(Syms), "-I");
}

TEST_F(AffineTest, BoundMinSemantics) {
  // min(J+7, N-1)
  Bound B = Bound::min(AffineExpr::sym(J) + 7, AffineExpr::sym(N) - 1);
  Env E(Syms.size());
  E.set(J, 0);
  E.set(N, 100);
  EXPECT_EQ(B.eval(E), 7);
  E.set(J, 98);
  EXPECT_EQ(B.eval(E), 99);
  EXPECT_EQ(B.str(Syms), "min(J+7,N-1)");
  EXPECT_FALSE(B.isSimple());
}

TEST_F(AffineTest, BoundDeduplicates) {
  Bound B(AffineExpr::sym(N) - 1);
  B.clampTo(AffineExpr::sym(N) - 1);
  EXPECT_TRUE(B.isSimple());
}

TEST_F(AffineTest, BoundMap) {
  Bound B = Bound::min(AffineExpr::sym(J) + 7, AffineExpr::sym(N) - 1);
  Bound Shifted = B.map([](const AffineExpr &E) { return E - 2; });
  Env E(Syms.size());
  E.set(J, 0);
  E.set(N, 100);
  EXPECT_EQ(Shifted.eval(E), 5);
}

TEST(ArrayRefTest, ConstOffset) {
  SymbolTable Syms;
  SymbolId I = Syms.declare("I", SymbolKind::LoopVar);
  SymbolId J = Syms.declare("J", SymbolKind::LoopVar);
  ArrayRef A(0, {AffineExpr::sym(I), AffineExpr::sym(J)});
  ArrayRef B(0, {AffineExpr::sym(I) + 1, AffineExpr::sym(J) - 2});
  ArrayRef C(0, {AffineExpr::sym(J), AffineExpr::sym(I)});
  ArrayRef D(1, {AffineExpr::sym(I), AffineExpr::sym(J)});

  auto Off = A.constOffsetTo(B);
  ASSERT_TRUE(Off.has_value());
  EXPECT_EQ((*Off)[0], 1);
  EXPECT_EQ((*Off)[1], -2);

  EXPECT_FALSE(A.constOffsetTo(C).has_value()); // different coefficients
  EXPECT_FALSE(A.constOffsetTo(D).has_value()); // different array

  auto Self = A.constOffsetTo(A);
  ASSERT_TRUE(Self.has_value());
  EXPECT_EQ((*Self)[0], 0);
}

TEST(ArrayRefTest, ConstOffsetMatchesSubtraction) {
  // constOffsetTo(O) against its definition: nullopt when some
  // O.Subs[d] - Subs[d] is not constant, otherwise those constants. The
  // second ref is the first with each subscript rebuilt in reverse term
  // order and then perturbed, so seeded trials cover equal terms with
  // shifted constants, terms that cancel, terms that differ, another
  // array and a rank mismatch; the symbols are declared in a shuffled
  // order each trial.
  std::vector<ArrayDecl> Arrays(2);
  Arrays[0].Name = "A";
  Arrays[1].Name = "B";
  Rng R(20261019);
  int Offsets = 0, OtherArray = 0, OtherRank = 0, OtherTerms = 0;
  for (int Trial = 0; Trial < 2000; ++Trial) {
    std::vector<std::string> Names = {"I", "J", "K", "N"};
    for (size_t X = Names.size(); X > 1; --X)
      std::swap(Names[X - 1], Names[R.nextInt(0, int64_t(X) - 1)]);
    SymbolTable Syms;
    std::vector<SymbolId> Ids;
    for (const std::string &Name : Names)
      Ids.push_back(Syms.declare(Name, SymbolKind::LoopVar));
    auto someSym = [&] { return AffineExpr::sym(Ids[R.nextInt(0, 3)]); };
    auto randomExpr = [&] {
      AffineExpr E = AffineExpr::constant(R.nextInt(-3, 3));
      for (int64_t T = R.nextInt(0, 3); T > 0; --T)
        E = E + someSym().scaled(R.nextInt(-2, 2));
      return E;
    };

    ArrayRef A(static_cast<ArrayId>(R.nextInt(0, 1)), {});
    for (int64_t D = R.nextInt(1, 3); D > 0; --D)
      A.Subs.push_back(randomExpr());
    ArrayRef B = A;
    for (AffineExpr &S : B.Subs) {
      std::vector<SymbolId> Used = S.symbols();
      AffineExpr Reversed = AffineExpr::constant(S.constTerm());
      for (size_t X = Used.size(); X-- > 0;)
        Reversed =
            Reversed + AffineExpr::sym(Used[X]).scaled(S.coeff(Used[X]));
      S = Reversed;
      switch (R.nextInt(0, 3)) {
      case 0: // shifted constant
        S = S + R.nextInt(-4, 4);
        break;
      case 1: { // a term added and taken away again
        AffineExpr T = someSym().scaled(R.nextInt(1, 3));
        S = S + T + R.nextInt(-1, 1) - T;
        break;
      }
      case 2: // a term that may or may not cancel an existing one
        S = S + someSym().scaled(R.nextInt(-1, 1));
        break;
      default:
        break;
      }
    }
    if (R.nextBool(0.15))
      B.Array = 1 - A.Array;
    if (R.nextBool(0.15)) {
      if (B.Subs.size() > 1 && R.nextBool())
        B.Subs.pop_back();
      else
        B.Subs.push_back(randomExpr());
    }

    std::optional<std::vector<int64_t>> Want;
    if (A.Array != B.Array) {
      ++OtherArray;
    } else if (A.rank() != B.rank()) {
      ++OtherRank;
    } else {
      Want.emplace();
      for (size_t D = 0; D < A.Subs.size() && Want; ++D) {
        AffineExpr Diff = B.Subs[D] - A.Subs[D];
        if (Diff.isConstant())
          Want->push_back(Diff.constTerm());
        else
          Want.reset();
      }
      ++(Want ? Offsets : OtherTerms);
    }
    SCOPED_TRACE("trial " + std::to_string(Trial) + ": " + A.str(Syms, Arrays) +
                 " to " + B.str(Syms, Arrays));
    EXPECT_EQ(A.constOffsetTo(B), Want);
  }
  EXPECT_GT(Offsets, 500);
  EXPECT_GT(OtherArray, 100);
  EXPECT_GT(OtherRank, 100);
  EXPECT_GT(OtherTerms, 100);
}

TEST(ScalarExprTest, FlopsAndReads) {
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  // The single compute statement: C = C + A*B -> 2 flops, 3 reads.
  int Count = 0;
  Nest.forEachStmt([&](const Stmt &S) {
    ASSERT_EQ(S.Kind, StmtKind::Compute);
    EXPECT_EQ(S.Rhs->flops(), 2u);
    EXPECT_EQ(S.Rhs->numReads(), 3u);
    ++Count;
  });
  EXPECT_EQ(Count, 1);
}

TEST(ScalarExprTest, CloneIsDeep) {
  auto E = ScalarExpr::makeBinary(ScalarExprKind::Add,
                                  ScalarExpr::makeConst(1.0),
                                  ScalarExpr::makeConst(2.0));
  auto C = E->clone();
  C->Lhs->ConstVal = 99;
  EXPECT_DOUBLE_EQ(E->Lhs->ConstVal, 1.0);
}

TEST(StmtTest, ForEachRefSeesReadsAndWrites) {
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  int Reads = 0, Writes = 0;
  Nest.forEachStmt([&](const Stmt &S) {
    S.forEachRef([&](const ArrayRef &, bool IsWrite) {
      (IsWrite ? Writes : Reads)++;
    });
  });
  EXPECT_EQ(Reads, 3);
  EXPECT_EQ(Writes, 1);
}

TEST(LoopNestTest, MatMulStructure) {
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  auto Spine = Nest.spine();
  ASSERT_EQ(Spine.size(), 3u);
  EXPECT_EQ(Spine[0]->Var, Ids.K);
  EXPECT_EQ(Spine[1]->Var, Ids.J);
  EXPECT_EQ(Spine[2]->Var, Ids.I);
  EXPECT_EQ(Nest.Arrays.size(), 3u);
  EXPECT_EQ(Nest.findLoop(Ids.J), Spine[1]);
  EXPECT_EQ(Nest.findLoop(Ids.N), nullptr);
}

TEST(LoopNestTest, CloneIsDeep) {
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  LoopNest Copy = Nest.clone();
  // Mutate the copy's inner loop bound; original unaffected.
  Copy.findLoop(Ids.I)->Lower = AffineExpr::constant(5);
  EXPECT_EQ(Nest.findLoop(Ids.I)->Lower.constTerm(), 0);
  EXPECT_EQ(Copy.findLoop(Ids.I)->Lower.constTerm(), 5);
  // Statement trees are also independent.
  Copy.forEachStmt([](Stmt &S) { S.Rhs->ConstVal = 1; });
  Nest.forEachStmt([](const Stmt &S) {
    EXPECT_NE(S.Rhs->Kind, ScalarExprKind::Const);
  });
}

TEST(LoopNestTest, PrintMatMulLooksLikeThePaper) {
  LoopNest Nest = makeMatMul();
  std::string P = Nest.print();
  EXPECT_NE(P.find("DO K = 0,N-1"), std::string::npos);
  EXPECT_NE(P.find("DO J = 0,N-1"), std::string::npos);
  EXPECT_NE(P.find("DO I = 0,N-1"), std::string::npos);
  EXPECT_NE(P.find("C[I,J] = C[I,J]+A[I,K]*B[K,J]"), std::string::npos);
}

TEST(LoopNestTest, JacobiStructure) {
  JacobiIds Ids;
  LoopNest Nest = makeJacobi(&Ids);
  auto Spine = Nest.spine();
  ASSERT_EQ(Spine.size(), 3u);
  int Stmts = 0;
  Nest.forEachStmt([&](const Stmt &S) {
    EXPECT_EQ(S.Rhs->flops(), 6u); // 5 adds + 1 multiply
    EXPECT_EQ(S.Rhs->numReads(), 6u);
    ++Stmts;
  });
  EXPECT_EQ(Stmts, 1);
  std::string P = Nest.print();
  EXPECT_NE(P.find("DO I = 1,N-2"), std::string::npos);
}

TEST(LoopNestTest, SubstituteInBody) {
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  // Rename N -> 2*N in everything below the K loop.
  substituteInBody(Nest.Items, Ids.N, AffineExpr::sym(Ids.N).scaled(2));
  Env E(Nest.Syms.size());
  E.set(Ids.N, 10);
  EXPECT_EQ(Nest.findLoop(Ids.I)->Upper.eval(E), 19);
}

TEST(SymbolTableTest, DeclareAndLookup) {
  SymbolTable T;
  SymbolId A = T.declare("TI", SymbolKind::Param);
  EXPECT_EQ(T.lookup("TI"), A);
  EXPECT_EQ(T.lookup("nope"), -1);
  EXPECT_EQ(T.kind(A), SymbolKind::Param);
  EXPECT_EQ(T.name(A), "TI");
}

TEST(EnvTest, GrowsOnSet) {
  Env E;
  E.set(5, 42);
  EXPECT_EQ(E.get(5), 42);
  EXPECT_EQ(E.get(3), 0); // default
}
