//===- SpecParserTest.cpp - Unit tests for the rc:: specification DSL -----===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "refinedc/SpecParser.h"

#include <gtest/gtest.h>

using namespace rcc;
using namespace rcc::refinedc;
using namespace rcc::pure;

namespace {

struct SpecFixture : ::testing::Test {
  DiagnosticEngine Diags;
  TypeEnv Env;
  SpecScope Scope;
  caesium::StructLayout ChunkLayout;

  void SetUp() override {
    Scope["a"] = Sort::Nat;
    Scope["n"] = Sort::Nat;
    Scope["p"] = Sort::Loc;
    Scope["s"] = Sort::MSet;
    Scope["xs"] = Sort::List;

    ChunkLayout.Name = "chunk";
    ChunkLayout.Fields = {
        {"size", caesium::layoutOfInt(caesium::intU64()), 0},
        {"next", caesium::layoutOfPtr(), 0}};
    ChunkLayout.computeLayout();
    Env.Layouts["chunk"] = &ChunkLayout;

    auto Def = std::make_shared<NamedTypeDef>();
    Def->Name = "chunks_t";
    Def->RefnVar = "s";
    Def->RefnSort = Sort::MSet;
    Def->IsPtrType = true;
    Def->Layout = &ChunkLayout;
    Env.Named["chunks_t"] = Def;
  }

  TypeRef parseType(const std::string &S) {
    SpecParser P(S, Env, Scope, Diags, {1, 1});
    TypeRef T = P.parseTypeFull();
    EXPECT_FALSE(P.hadError()) << S << "\n" << Diags.render("");
    return T;
  }
  TermRef parseTerm(const std::string &S) {
    SpecParser P(S, Env, Scope, Diags, {1, 1});
    TermRef T = P.parseTermFull();
    EXPECT_FALSE(P.hadError()) << S << "\n" << Diags.render("");
    return T;
  }
  bool failsType(const std::string &S) {
    DiagnosticEngine D2;
    SpecParser P(S, Env, Scope, D2, {1, 1});
    P.parseTypeFull();
    return P.hadError();
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

TEST_F(SpecFixture, RefinedInt) {
  TypeRef T = parseType("a @ int<size_t>");
  ASSERT_EQ(T->K, TypeKind::Int);
  EXPECT_EQ(T->Ity.ByteSize, 8u);
  EXPECT_FALSE(T->Ity.Signed);
  EXPECT_EQ(T->Refn, mkVar("a", Sort::Nat));
}

TEST_F(SpecFixture, OwnUninit) {
  TypeRef T = parseType("&own<uninit<a>>");
  ASSERT_EQ(T->K, TypeKind::Own);
  ASSERT_EQ(T->Children[0]->K, TypeKind::Uninit);
  EXPECT_EQ(T->Children[0]->Size, mkVar("a", Sort::Nat));
}

TEST_F(SpecFixture, UninitBySizeofStruct) {
  TypeRef T = parseType("uninit<chunk>");
  EXPECT_EQ(T->Size, mkNat(16));
}

TEST_F(SpecFixture, OptionalWithBracedRefinement) {
  TypeRef T = parseType("{n <= a} @ optional<&own<uninit<n>>, null>");
  ASSERT_EQ(T->K, TypeKind::Optional);
  EXPECT_EQ(T->Refn, mkLe(mkVar("n", Sort::Nat), mkVar("a", Sort::Nat)));
  EXPECT_EQ(T->Children[0]->K, TypeKind::Own);
  EXPECT_EQ(T->Children[1]->K, TypeKind::Null);
}

TEST_F(SpecFixture, NamedTypeWithMultisetRefinement) {
  TypeRef T = parseType("{{[n]} (+) s} @ chunks_t");
  ASSERT_EQ(T->K, TypeKind::Named);
  EXPECT_EQ(T->Refn, mkMUnion(mkMSingle(mkVar("n", Sort::Nat)),
                              mkVar("s", Sort::MSet)));
}

TEST_F(SpecFixture, WandType) {
  TypeRef T = parseType("wand<own p : s @ chunks_t, {{[n]} (+) s} @ chunks_t>");
  ASSERT_EQ(T->K, TypeKind::Wand);
  EXPECT_EQ(T->WandLoc, mkVar("p", Sort::Loc));
  EXPECT_EQ(T->Children[1]->K, TypeKind::Named); // hole type
  EXPECT_EQ(T->Children[0]->K, TypeKind::Named); // result type
}

TEST_F(SpecFixture, PaddedType) {
  TypeRef T = parseType("padded<null, {4096}>");
  ASSERT_EQ(T->K, TypeKind::Padded);
  EXPECT_EQ(T->Size, mkNat(4096));
}

TEST_F(SpecFixture, ArrayOfInts) {
  TypeRef T = parseType("xs @ array<int<size_t>>");
  ASSERT_EQ(T->K, TypeKind::Array);
  EXPECT_EQ(T->ElemSize, 8u);
  EXPECT_EQ(T->Refn, mkVar("xs", Sort::List));
  EXPECT_EQ(T->Children[0]->K, TypeKind::Int);
}

TEST_F(SpecFixture, ExistsType) {
  TypeRef T = parseType("exists c. c @ chunks_t");
  ASSERT_EQ(T->K, TypeKind::Exists);
  EXPECT_EQ(T->Binder, "c");
  EXPECT_EQ(T->Children[0]->K, TypeKind::Named);
}

TEST_F(SpecFixture, AtomicBoolWithPayloads) {
  TypeRef T = parseType(
      "atomicbool<u32, true, own global(pool) : exists c. c @ chunks_t>");
  ASSERT_EQ(T->K, TypeKind::AtomicBool);
  EXPECT_TRUE(T->HTrue.empty());
  ASSERT_EQ(T->HFalse.size(), 1u);
  EXPECT_EQ(T->HFalse[0].K, ResAtom::LocType);
  EXPECT_EQ(T->HFalse[0].Subject, mkVar("&g:pool", Sort::Loc));
}

TEST_F(SpecFixture, BoolWithIntType) {
  TypeRef T = parseType("{n <= a} @ bool<i32>");
  ASSERT_EQ(T->K, TypeKind::Bool);
  EXPECT_EQ(T->Ity.ByteSize, 4u);
  EXPECT_TRUE(T->Ity.Signed);
}

TEST_F(SpecFixture, ErrorsAreReported) {
  EXPECT_TRUE(failsType("unknown_type_name"));
  EXPECT_TRUE(failsType("&own<"));
  EXPECT_TRUE(failsType("optional<null>"));
  EXPECT_TRUE(failsType("q @ int<size_t>")); // unbound refinement variable
}

namespace {
/// Hostile nesting: deep enough to overflow the stack of a recursive parser
/// (or of a recursive pass over the terms it builds) many times over.
constexpr unsigned kHostileDepth = 100000;

std::string repeat(const std::string &S, unsigned N) {
  std::string Out;
  Out.reserve(S.size() * N);
  for (unsigned I = 0; I < N; ++I)
    Out += S;
  return Out;
}

/// The spec fails with exactly one diagnostic, the nesting limit, at the
/// annotation's location.
void expectTooDeep(const DiagnosticEngine &D, bool HadError) {
  EXPECT_TRUE(HadError);
  ASSERT_EQ(D.size(), 1u) << D.render().substr(0, 500);
  EXPECT_NE(D.diagnostics().front().Message.find("nesting too deep"),
            std::string::npos);
  EXPECT_EQ(D.diagnostics().front().Loc.Line, 7u);
}
} // namespace

TEST_F(SpecFixture, DeeplyNestedOwnTypeIsRejected) {
  // The shape of a hostile rc::args string.
  std::string S = repeat("&own<", kHostileDepth) + "int<i32>" +
                  repeat(">", kHostileDepth);
  DiagnosticEngine D;
  SpecParser P(S, Env, Scope, D, {7, 3});
  P.parseTypeFull();
  expectTooDeep(D, P.hadError());
}

TEST_F(SpecFixture, DeeplyNestedTermParenthesesAreRejected) {
  // The shape of a hostile rc::requires string.
  std::string S = "{" + repeat("(", kHostileDepth) + "n" +
                  repeat(")", kHostileDepth) + " = 0}";
  DiagnosticEngine D;
  SpecParser P(S, Env, Scope, D, {7, 3});
  ResAtom A;
  P.parseAtomFull(A);
  expectTooDeep(D, P.hadError());
}

TEST_F(SpecFixture, DeeplyNestedRefinementIsRejected) {
  // Hit inside the speculative refinement parse, whose errors are
  // otherwise silenced: the limit must still be reported.
  std::string S = "{" + repeat("(", kHostileDepth) + "n" +
                  repeat(")", kHostileDepth) + "} @ int<i32>";
  DiagnosticEngine D;
  SpecParser P(S, Env, Scope, D, {7, 3});
  P.parseTypeFull();
  expectTooDeep(D, P.hadError());
}

TEST_F(SpecFixture, LongTermChainsAreRejected) {
  for (const std::string &S :
       {repeat("n + ", kHostileDepth) + "n", repeat("!", kHostileDepth) + "a",
        repeat("n -> ", kHostileDepth) + "n",
        repeat("a = 0 && ", kHostileDepth) + "a = 0"}) {
    DiagnosticEngine D;
    SpecParser P(S, Env, Scope, D, {7, 3});
    P.parseTermFull();
    expectTooDeep(D, P.hadError());
  }
}

TEST_F(SpecFixture, NestingBelowTheLimitParses) {
  constexpr unsigned Depth = SpecParser::kMaxNestingDepth - 16;
  parseType(repeat("&own<", Depth / 2) + "int<i32>" + repeat(">", Depth / 2));
  parseTerm(repeat("(", Depth / 2) + "n" + repeat(")", Depth / 2));
}

//===----------------------------------------------------------------------===//
// Terms
//===----------------------------------------------------------------------===//

TEST_F(SpecFixture, ArithmeticPrecedence) {
  EXPECT_EQ(parseTerm("a + n * 2"),
            mkAdd(mkVar("a", Sort::Nat),
                  mkMul(mkVar("n", Sort::Nat), mkNat(2))));
}

TEST_F(SpecFixture, ComparisonAndTernary) {
  TermRef T = parseTerm("n <= a ? a - n : a");
  ASSERT_EQ(T->kind(), TermKind::Ite);
  EXPECT_EQ(T->arg(0), mkLe(mkVar("n", Sort::Nat), mkVar("a", Sort::Nat)));
}

TEST_F(SpecFixture, MultisetLiterals) {
  EXPECT_EQ(parseTerm("{[]}"), mkMEmpty());
  EXPECT_EQ(parseTerm("{[n]}"), mkMSingle(mkVar("n", Sort::Nat)));
  EXPECT_EQ(parseTerm("{[n]} (+) s"),
            mkMUnion(mkMSingle(mkVar("n", Sort::Nat)), mkVar("s", Sort::MSet)));
}

TEST_F(SpecFixture, ParenthesizedUnionIsNotApplication) {
  // Regression: `ls (+) rs` must not parse as the application ls(...).
  Scope["ls"] = Sort::MSet;
  Scope["rs"] = Sort::MSet;
  TermRef T = parseTerm("s = {[n]} (+) (ls (+) rs)");
  ASSERT_EQ(T->kind(), TermKind::Eq);
  EXPECT_EQ(T->arg(1)->kind(), TermKind::MUnion);
  EXPECT_EQ(T->arg(1)->arg(1)->kind(), TermKind::MUnion);
}

TEST_F(SpecFixture, BoundedForall) {
  TermRef T = parseTerm("forall k, k in s -> n <= k");
  ASSERT_EQ(T->kind(), TermKind::Forall);
  EXPECT_EQ(T->name(), "k");
  EXPECT_EQ(T->arg(0)->kind(), TermKind::Implies);
}

TEST_F(SpecFixture, UnicodeNotation) {
  // The paper's spellings: ≤ ≠ ⊎ ∈ ∀ →
  EXPECT_EQ(parseTerm("n ≤ a"), parseTerm("n <= a"));
  EXPECT_EQ(parseTerm("s ≠ {[]}"), parseTerm("s != {[]}"));
  EXPECT_EQ(parseTerm("{[n]} ⊎ s"), parseTerm("{[n]} (+) s"));
  EXPECT_EQ(parseTerm("∀ k, k ∈ s → n ≤ k"),
            parseTerm("forall k, k in s -> n <= k"));
}

TEST_F(SpecFixture, SizeofAndLengthAndSize) {
  EXPECT_EQ(parseTerm("sizeof(struct chunk)"), mkNat(16));
  EXPECT_EQ(parseTerm("length(xs)"), mkLLen(mkVar("xs", Sort::List)));
  EXPECT_EQ(parseTerm("size(s)"), mkMSize(mkVar("s", Sort::MSet)));
  EXPECT_EQ(parseTerm("xs !! n"),
            mkLNth(mkVar("xs", Sort::List), mkVar("n", Sort::Nat)));
  EXPECT_EQ(parseTerm("update(xs, n, a)"),
            mkLUpdate(mkVar("xs", Sort::List), mkVar("n", Sort::Nat),
                      mkVar("a", Sort::Nat)));
}

TEST_F(SpecFixture, UninterpretedApplication) {
  TermRef T = parseTerm("probe(xs, n)");
  ASSERT_EQ(T->kind(), TermKind::App);
  EXPECT_EQ(T->name(), "probe");
  EXPECT_EQ(T->numArgs(), 2u);
}

TEST_F(SpecFixture, GlobalTerm) {
  EXPECT_EQ(parseTerm("global(counter)"), mkVar("&g:counter", Sort::Loc));
}

//===----------------------------------------------------------------------===//
// Atoms and invariant entries
//===----------------------------------------------------------------------===//

TEST_F(SpecFixture, OwnAtom) {
  SpecParser P("own p : s @ chunks_t", Env, Scope, Diags, {1, 1});
  ResAtom A;
  ASSERT_TRUE(P.parseAtomFull(A));
  EXPECT_EQ(A.K, ResAtom::LocType);
  EXPECT_EQ(A.Subject, mkVar("p", Sort::Loc));
  EXPECT_EQ(A.Ty->K, TypeKind::Named);
}

TEST_F(SpecFixture, PureAtom) {
  SpecParser P("{sizeof(struct chunk) <= n}", Env, Scope, Diags, {1, 1});
  ResAtom A;
  ASSERT_TRUE(P.parseAtomFull(A));
  EXPECT_EQ(A.K, ResAtom::Pure);
  EXPECT_EQ(A.Prop, mkLe(mkNat(16), mkVar("n", Sort::Nat)));
}

TEST_F(SpecFixture, InvVarEntry) {
  SpecParser P("cur: p @ &own<s @ chunks_t>", Env, Scope, Diags, {1, 1});
  std::string Var;
  TypeRef Ty;
  ASSERT_TRUE(P.parseInvVarFull(Var, Ty));
  EXPECT_EQ(Var, "cur");
  EXPECT_EQ(Ty->K, TypeKind::Own);
}

TEST_F(SpecFixture, BinderParsing) {
  std::string Name;
  Sort S;
  DiagnosticEngine D;
  EXPECT_TRUE(parseBinder("a: nat", Name, S, D, {1, 1}));
  EXPECT_EQ(Name, "a");
  EXPECT_EQ(S, Sort::Nat);
  EXPECT_TRUE(parseBinder("s: {gmultiset nat}", Name, S, D, {1, 1}));
  EXPECT_EQ(S, Sort::MSet);
  EXPECT_TRUE(parseBinder("p: loc", Name, S, D, {1, 1}));
  EXPECT_EQ(S, Sort::Loc);
  EXPECT_FALSE(parseBinder("nonsense", Name, S, D, {1, 1}));
  EXPECT_FALSE(parseBinder("x: frobnicator", Name, S, D, {1, 1}));
}
