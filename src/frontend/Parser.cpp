//===- Parser.cpp ---------------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include <cstring>

using namespace rcc::front;
using rcc::caesium::IntType;

//===----------------------------------------------------------------------===//
// CType helpers
//===----------------------------------------------------------------------===//

std::string CType::str() const {
  switch (K) {
  case CTypeKind::Void:
    return "void";
  case CTypeKind::Int:
    return Ity.str();
  case CTypeKind::Pointer:
    return Pointee->str() + "*";
  case CTypeKind::Struct:
    return "struct " + StructName;
  case CTypeKind::Array:
    return Pointee->str() + "[" + std::to_string(ArrayLen) + "]";
  case CTypeKind::Func: {
    std::string S = Ret->str() + "(";
    for (size_t I = 0; I < Params.size(); ++I) {
      if (I)
        S += ", ";
      S += Params[I]->str();
    }
    return S + ")";
  }
  }
  return "?";
}

CTypePtr rcc::front::ctVoid() {
  static CTypePtr T = std::make_shared<CType>();
  return T;
}
CTypePtr rcc::front::ctInt(IntType Ity) {
  auto T = std::make_shared<CType>();
  T->K = CTypeKind::Int;
  T->Ity = Ity;
  return T;
}
CTypePtr rcc::front::ctPtr(CTypePtr Pointee) {
  auto T = std::make_shared<CType>();
  T->K = CTypeKind::Pointer;
  T->Pointee = std::move(Pointee);
  return T;
}
CTypePtr rcc::front::ctStruct(const std::string &Name) {
  auto T = std::make_shared<CType>();
  T->K = CTypeKind::Struct;
  T->StructName = Name;
  return T;
}
CTypePtr rcc::front::ctArray(CTypePtr Elem, uint64_t Len) {
  auto T = std::make_shared<CType>();
  T->K = CTypeKind::Array;
  T->Pointee = std::move(Elem);
  T->ArrayLen = Len;
  return T;
}
CTypePtr rcc::front::ctFunc(CTypePtr Ret, std::vector<CTypePtr> Params) {
  auto T = std::make_shared<CType>();
  T->K = CTypeKind::Func;
  T->Ret = std::move(Ret);
  T->Params = std::move(Params);
  return T;
}

//===----------------------------------------------------------------------===//
// Token helpers
//===----------------------------------------------------------------------===//

const Token &Parser::peek(int Ahead) const {
  size_t I = Pos + Ahead;
  if (I >= Toks.size())
    I = Toks.size() - 1; // Eof
  return Toks[I];
}

Token Parser::advance() {
  Token T = cur();
  if (Pos + 1 < Toks.size())
    ++Pos;
  return T;
}

bool Parser::eatPunct(const char *P) {
  if (!atPunct(P))
    return false;
  advance();
  return true;
}

bool Parser::eatKeyword(const char *K) {
  if (!atKeyword(K))
    return false;
  advance();
  return true;
}

bool Parser::expectPunct(const char *P) {
  if (eatPunct(P))
    return true;
  error(std::string("expected '") + P + "' but found '" + cur().Text + "'");
  return false;
}

void Parser::error(const std::string &Msg) {
  if (!TooDeep)
    Diags.error(cur().Loc, Msg);
}

bool Parser::nest(NestingGuard &G) {
  G.enter();
  if (Depth <= kMaxNestingDepth)
    return true;
  if (!TooDeep) {
    Diags.error(cur().Loc, "nesting too deep (more than " +
                               std::to_string(kMaxNestingDepth) + " levels)");
    TooDeep = true;
  }
  Pos = Toks.size() - 1; // Eof: abandon the rest of the input
  return false;
}

void Parser::skipTo(const char *P) {
  while (!cur().is(TokKind::Eof) && !atPunct(P))
    advance();
  eatPunct(P);
}

//===----------------------------------------------------------------------===//
// Annotations
//===----------------------------------------------------------------------===//

std::vector<RcAnnot> Parser::parseAnnotList() {
  std::vector<RcAnnot> Out;
  while (cur().is(TokKind::AttrOpen)) {
    advance();
    // rc :: kind ( "arg", ... )  -- possibly multiple attributes per [[ ]].
    while (!cur().is(TokKind::AttrClose) && !cur().is(TokKind::Eof)) {
      RcAnnot A;
      A.Loc = cur().Loc;
      if (!cur().isIdent() || cur().Text != "rc") {
        error("expected 'rc::' attribute");
        break;
      }
      advance();
      expectPunct(":");
      expectPunct(":");
      if (!cur().isIdent()) {
        error("expected annotation name after rc::");
        break;
      }
      A.Kind = advance().Text;
      if (eatPunct("(")) {
        while (!atPunct(")") && !cur().is(TokKind::Eof)) {
          if (cur().is(TokKind::String)) {
            // Adjacent string literals concatenate (used for multi-line
            // annotations, as in Figure 3's ptr_type).
            std::string S = advance().Text;
            while (cur().is(TokKind::String))
              S += advance().Text;
            A.Args.push_back(std::move(S));
          } else {
            error("annotation arguments must be string literals");
            advance();
          }
          if (!eatPunct(","))
            break;
        }
        expectPunct(")");
      }
      Out.push_back(std::move(A));
      if (!eatPunct(","))
        break;
    }
    if (!cur().is(TokKind::AttrClose)) {
      error("expected ']]'");
      while (!cur().is(TokKind::AttrClose) && !cur().is(TokKind::Eof))
        advance();
    }
    if (cur().is(TokKind::AttrClose))
      advance();
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

bool Parser::atTypeStart() const {
  if (cur().is(TokKind::Keyword)) {
    static const std::set<std::string> TypeKW = {
        "void",   "char",    "short",   "int",      "long",    "unsigned",
        "signed", "struct",  "union",   "size_t",   "uint8_t", "uint16_t",
        "uint32_t", "uint64_t", "int8_t", "int16_t", "int32_t", "int64_t",
        "bool",   "_Bool",   "const",   "static",   "uintptr_t"};
    return TypeKW.count(cur().Text) != 0;
  }
  if (cur().isIdent())
    return Typedefs.count(cur().Text) != 0;
  return false;
}

CTypePtr Parser::parseTypeSpecifier(std::vector<RcAnnot> *StructAnnotsOut) {
  while (eatKeyword("const") || eatKeyword("static")) {
  }
  if (eatKeyword("void"))
    return ctVoid();
  if (eatKeyword("struct") || eatKeyword("union")) {
    std::vector<RcAnnot> Annots = parseAnnotList();
    if (StructAnnotsOut)
      *StructAnnotsOut = std::move(Annots);
    if (!cur().isIdent()) {
      error("expected struct name");
      return ctVoid();
    }
    std::string Name = advance().Text;
    StructNames.insert(Name);
    return ctStruct(Name);
  }

  // Fixed-width and standard integer types.
  struct Named {
    const char *KW;
    IntType Ity;
  };
  static const Named NamedInts[] = {
      {"size_t", rcc::caesium::intSizeT()}, {"uintptr_t", rcc::caesium::intU64()},
      {"uint8_t", rcc::caesium::intU8()},   {"uint16_t", rcc::caesium::intU16()},
      {"uint32_t", rcc::caesium::intU32()}, {"uint64_t", rcc::caesium::intU64()},
      {"int8_t", rcc::caesium::intI8()},    {"int16_t", rcc::caesium::intI16()},
      {"int32_t", rcc::caesium::intI32()},  {"int64_t", rcc::caesium::intI64()},
      {"bool", rcc::caesium::intU8()},      {"_Bool", rcc::caesium::intU8()},
  };
  for (const Named &N : NamedInts)
    if (eatKeyword(N.KW))
      return ctInt(N.Ity);

  // Combinations of signed/unsigned char/short/int/long.
  bool SawUnsigned = false, SawSigned = false;
  int Longs = 0;
  bool SawChar = false, SawShort = false, SawInt = false;
  bool Any = false;
  while (true) {
    if (eatKeyword("unsigned")) {
      SawUnsigned = true;
      Any = true;
      continue;
    }
    if (eatKeyword("signed")) {
      SawSigned = true;
      Any = true;
      continue;
    }
    if (eatKeyword("long")) {
      ++Longs;
      Any = true;
      continue;
    }
    if (eatKeyword("char")) {
      SawChar = true;
      Any = true;
      continue;
    }
    if (eatKeyword("short")) {
      SawShort = true;
      Any = true;
      continue;
    }
    if (eatKeyword("int")) {
      SawInt = true;
      Any = true;
      continue;
    }
    break;
  }
  (void)SawSigned;
  (void)SawInt;
  if (Any) {
    uint8_t Size = SawChar ? 1 : SawShort ? 2 : Longs >= 1 ? 8 : 4;
    return ctInt(IntType{Size, !SawUnsigned});
  }

  // Typedef name.
  if (cur().isIdent()) {
    auto It = Typedefs.find(cur().Text);
    if (It != Typedefs.end()) {
      advance();
      return It->second;
    }
  }
  error("expected a type, found '" + cur().Text + "'");
  advance();
  return ctVoid();
}

CTypePtr Parser::parseDeclarator(CTypePtr Base, std::string &Name,
                                 bool AllowAbstract) {
  // One level per pointer, array or function-pointer layer of the type.
  NestingGuard G(Depth);
  while (eatPunct("*")) {
    if (!nest(G))
      return Base;
    Base = ctPtr(Base);
    while (eatKeyword("const")) {
    }
  }
  // Function-pointer declarator: ( * name ) ( params )
  if (atPunct("(") && peek(1).isPunct("*")) {
    if (!nest(G))
      return Base;
    advance(); // (
    advance(); // *
    if (cur().isIdent()) {
      LastNameLoc = cur().Loc;
      LastNameEnd = cur().End;
      Name = advance().Text;
    } else if (!AllowAbstract) {
      error("expected identifier in function-pointer declarator");
    }
    expectPunct(")");
    expectPunct("(");
    std::vector<CTypePtr> Params;
    if (!atPunct(")")) {
      do {
        CTypePtr PT = parseTypeSpecifier();
        std::string Ignored;
        PT = parseDeclarator(PT, Ignored, /*AllowAbstract=*/true);
        Params.push_back(PT);
      } while (eatPunct(","));
    }
    expectPunct(")");
    return ctPtr(ctFunc(Base, std::move(Params)));
  }
  if (cur().isIdent()) {
    LastNameLoc = cur().Loc;
    LastNameEnd = cur().End;
    Name = advance().Text;
  } else if (!AllowAbstract && !atPunct("[")) {
    // Nameless declarator only allowed in abstract positions.
  }
  while (eatPunct("[")) {
    if (!nest(G))
      return Base;
    uint64_t Len = 0;
    if (cur().is(TokKind::Number))
      Len = advance().IntVal;
    else
      error("array length must be an integer literal");
    expectPunct("]");
    Base = ctArray(Base, Len);
  }
  return Base;
}

CTypePtr Parser::parseFullType() {
  CTypePtr T = parseTypeSpecifier();
  std::string Ignored;
  return parseDeclarator(T, Ignored, /*AllowAbstract=*/true);
}

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

void Parser::parseStructBody(CStructDecl &SD) {
  expectPunct("{");
  while (!atPunct("}") && !cur().is(TokKind::Eof)) {
    CStructField F;
    F.Loc = cur().Loc;
    F.Annots = parseAnnotList();
    CTypePtr Base = parseTypeSpecifier();
    F.Ty = parseDeclarator(Base, F.Name);
    if (F.Name.empty())
      error("expected field name");
    expectPunct(";");
    SD.Fields.push_back(std::move(F));
  }
  expectPunct("}");
}

std::vector<CParam> Parser::parseParamList() {
  std::vector<CParam> Params;
  expectPunct("(");
  if (atKeyword("void") && peek(1).isPunct(")")) {
    advance();
    expectPunct(")");
    return Params;
  }
  if (!atPunct(")")) {
    do {
      CParam P;
      CTypePtr Base = parseTypeSpecifier();
      P.Ty = parseDeclarator(Base, P.Name, /*AllowAbstract=*/true);
      Params.push_back(std::move(P));
    } while (eatPunct(","));
  }
  expectPunct(")");
  return Params;
}

void Parser::parseTopLevel(CTranslationUnit &TU, std::vector<RcAnnot> Annots) {
  rcc::SourceLoc Loc = cur().Loc;

  // typedef ...
  if (eatKeyword("typedef")) {
    if (atKeyword("struct") || atKeyword("union")) {
      advance();
      // typedef struct [[annots]] name { ... } [*]alias ;
      std::vector<RcAnnot> StructAnnots = parseAnnotList();
      for (RcAnnot &A : StructAnnots)
        Annots.push_back(std::move(A));
      std::string StructName;
      if (cur().isIdent())
        StructName = advance().Text;
      CStructDecl SD;
      SD.Loc = Loc;
      SD.Name = StructName;
      SD.Annots = std::move(Annots);
      if (atPunct("{")) {
        StructNames.insert(StructName);
        parseStructBody(SD);
      }
      bool IsPtr = eatPunct("*");
      std::string Alias;
      if (cur().isIdent())
        Alias = advance().Text;
      expectPunct(";");
      if (!Alias.empty()) {
        CTypePtr T = ctStruct(StructName);
        if (IsPtr) {
          T = ctPtr(T);
          SD.PtrTypedefName = Alias;
        }
        Typedefs[Alias] = T;
        CTypedef TD;
        TD.Name = Alias;
        TD.Ty = T;
        TD.Loc = Loc;
        TU.Typedefs.push_back(std::move(TD));
      }
      if (!SD.Fields.empty() || !SD.Name.empty())
        TU.Structs.push_back(std::move(SD));
      return;
    }
    // typedef of a base/function type: `typedef int cmp_t(void*, void*);`
    // Annotations may follow the typedef keyword (function-type specs).
    for (RcAnnot &A : parseAnnotList())
      Annots.push_back(std::move(A));
    CTypePtr Base = parseTypeSpecifier();
    std::string Name;
    CTypePtr T = parseDeclarator(Base, Name);
    if (atPunct("(")) {
      std::vector<CParam> Params = parseParamList();
      std::vector<CTypePtr> PTs;
      for (CParam &P : Params)
        PTs.push_back(P.Ty);
      T = ctFunc(T, std::move(PTs));
    }
    expectPunct(";");
    if (Name.empty()) {
      error("expected typedef name");
      return;
    }
    Typedefs[Name] = T;
    CTypedef TD;
    TD.Name = Name;
    TD.Ty = T;
    TD.Annots = std::move(Annots);
    TD.Loc = Loc;
    TU.Typedefs.push_back(std::move(TD));
    return;
  }

  // struct definition (not typedef).
  if (atKeyword("struct") &&
      (peek(1).is(TokKind::AttrOpen) ||
       (peek(1).isIdent() && peek(2).isPunct("{")))) {
    advance(); // struct
    std::vector<RcAnnot> StructAnnots = parseAnnotList();
    for (RcAnnot &A : StructAnnots)
      Annots.push_back(std::move(A));
    CStructDecl SD;
    SD.Loc = Loc;
    SD.Annots = std::move(Annots);
    if (cur().isIdent())
      SD.Name = advance().Text;
    StructNames.insert(SD.Name);
    parseStructBody(SD);
    expectPunct(";");
    TU.Structs.push_back(std::move(SD));
    return;
  }

  // Function or global variable.
  CTypePtr Base = parseTypeSpecifier();
  std::string Name;
  CTypePtr T = parseDeclarator(Base, Name);
  // Snapshot the name range now: parseParamList runs parseDeclarator on
  // every parameter and would overwrite it.
  rcc::SourceLoc NameLoc = LastNameLoc;
  rcc::SourceLoc NameEnd = LastNameEnd;
  if (Name.empty()) {
    error("expected declaration name");
    skipTo(";");
    return;
  }

  if (atPunct("(")) {
    CFuncDecl FD;
    FD.Loc = Loc;
    FD.Name = Name;
    FD.NameLoc = NameLoc;
    FD.NameEnd = NameEnd;
    FD.RetTy = T;
    FD.Params = parseParamList();
    FD.Annots = std::move(Annots);
    if (atPunct("{"))
      FD.Body = parseCompound();
    else
      expectPunct(";");
    FD.EndLoc = Pos > 0 ? Toks[Pos - 1].End : cur().Loc;
    TU.Functions.push_back(std::move(FD));
    return;
  }

  CGlobalDecl GD;
  GD.Loc = Loc;
  GD.Name = Name;
  GD.Ty = T;
  GD.Annots = std::move(Annots);
  if (eatPunct("=")) {
    bool Neg = eatPunct("-");
    if (cur().is(TokKind::Number)) {
      int64_t V = static_cast<int64_t>(advance().IntVal);
      GD.Init = Neg ? -V : V;
    } else {
      error("global initializers must be integer literals");
      skipTo(";");
      TU.Globals.push_back(std::move(GD));
      return;
    }
  }
  expectPunct(";");
  TU.Globals.push_back(std::move(GD));
}

CTranslationUnit Parser::parseTranslationUnit() {
  CTranslationUnit TU;
  Unit = &TU;
  while (!cur().is(TokKind::Eof)) {
    std::vector<RcAnnot> Annots = parseAnnotList();
    if (cur().is(TokKind::Eof))
      break;
    size_t Before = Pos;
    parseTopLevel(TU, std::move(Annots));
    if (Pos == Before) {
      // Ensure forward progress on malformed input.
      advance();
    }
  }
  return TU;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

CStmtPtr Parser::parseCompound() {
  auto S = std::make_unique<CStmt>(CStmtKind::Compound);
  S->Loc = cur().Loc;
  expectPunct("{");
  while (!atPunct("}") && !cur().is(TokKind::Eof)) {
    std::vector<RcAnnot> Annots = parseAnnotList();
    size_t Before = Pos;
    CStmtPtr Sub = parseStmt();
    if (Sub) {
      if (!Annots.empty()) {
        if (Sub->K == CStmtKind::While || Sub->K == CStmtKind::For ||
            Sub->K == CStmtKind::DoWhile)
          Sub->LoopAnnots = std::move(Annots);
        else
          Diags.warning(Sub->Loc,
                        "annotations are only meaningful before loops here");
      }
      S->Body.push_back(std::move(Sub));
    }
    if (Pos == Before)
      advance();
  }
  expectPunct("}");
  return S;
}

CStmtPtr Parser::parseDeclStmt() {
  auto S = std::make_unique<CStmt>(CStmtKind::Decl);
  S->Loc = cur().Loc;
  CTypePtr Base = parseTypeSpecifier();
  S->DeclTy = parseDeclarator(Base, S->DeclName);
  if (S->DeclName.empty())
    error("expected variable name");
  if (eatPunct("="))
    S->Init = parseAssign();
  expectPunct(";");
  return S;
}

CStmtPtr Parser::parseStmt() {
  rcc::SourceLoc Loc = cur().Loc;
  NestingGuard G(Depth);
  if (!nest(G))
    return nullptr;

  if (atPunct("{"))
    return parseCompound();
  if (eatPunct(";")) {
    auto S = std::make_unique<CStmt>(CStmtKind::Empty);
    S->Loc = Loc;
    return S;
  }
  if (eatKeyword("return")) {
    auto S = std::make_unique<CStmt>(CStmtKind::Return);
    S->Loc = Loc;
    if (!atPunct(";"))
      S->E = parseExpr();
    expectPunct(";");
    return S;
  }
  if (eatKeyword("if")) {
    auto S = std::make_unique<CStmt>(CStmtKind::If);
    S->Loc = Loc;
    expectPunct("(");
    S->E = parseExpr();
    expectPunct(")");
    S->Then = parseStmt();
    if (eatKeyword("else"))
      S->Else = parseStmt();
    return S;
  }
  if (eatKeyword("while")) {
    auto S = std::make_unique<CStmt>(CStmtKind::While);
    S->Loc = Loc;
    expectPunct("(");
    S->E = parseExpr();
    expectPunct(")");
    S->LoopBody = parseStmt();
    return S;
  }
  if (eatKeyword("do")) {
    auto S = std::make_unique<CStmt>(CStmtKind::DoWhile);
    S->Loc = Loc;
    S->LoopBody = parseStmt();
    if (!eatKeyword("while"))
      error("expected 'while' after do-body");
    expectPunct("(");
    S->E = parseExpr();
    expectPunct(")");
    expectPunct(";");
    return S;
  }
  if (eatKeyword("for")) {
    auto S = std::make_unique<CStmt>(CStmtKind::For);
    S->Loc = Loc;
    expectPunct("(");
    if (!eatPunct(";")) {
      if (atTypeStart())
        S->ForInit = parseDeclStmt();
      else {
        auto E = std::make_unique<CStmt>(CStmtKind::ExprSt);
        E->Loc = cur().Loc;
        E->E = parseExpr();
        expectPunct(";");
        S->ForInit = std::move(E);
      }
    }
    if (!atPunct(";"))
      S->E = parseExpr();
    expectPunct(";");
    if (!atPunct(")"))
      S->ForStep = parseExpr();
    expectPunct(")");
    S->LoopBody = parseStmt();
    return S;
  }
  if (eatKeyword("break")) {
    auto S = std::make_unique<CStmt>(CStmtKind::Break);
    S->Loc = Loc;
    expectPunct(";");
    return S;
  }
  if (eatKeyword("continue")) {
    auto S = std::make_unique<CStmt>(CStmtKind::Continue);
    S->Loc = Loc;
    expectPunct(";");
    return S;
  }
  if (eatKeyword("goto")) {
    auto S = std::make_unique<CStmt>(CStmtKind::Goto);
    S->Loc = Loc;
    if (cur().isIdent())
      S->DeclName = advance().Text;
    else
      error("expected label after goto");
    expectPunct(";");
    return S;
  }
  // Label: ident ':'
  if (cur().isIdent() && peek(1).isPunct(":") && !peek(2).isPunct(":")) {
    auto S = std::make_unique<CStmt>(CStmtKind::Label);
    S->Loc = Loc;
    S->DeclName = advance().Text;
    advance(); // :
    return S;
  }
  if (atTypeStart())
    return parseDeclStmt();

  auto S = std::make_unique<CStmt>(CStmtKind::ExprSt);
  S->Loc = Loc;
  S->E = parseExpr();
  expectPunct(";");
  return S;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

CExprPtr Parser::parseExpr() { return parseAssign(); }

CExprPtr Parser::parseAssign() {
  CExprPtr L = parseCond();
  static const char *CompoundOps[] = {"+=", "-=", "*=", "/=", "%=",
                                      "&=", "|=", "^=", "<<=", ">>="};
  // Assignments nest to the right: `a = b = c` recurses once per '='.
  NestingGuard G(Depth);
  if (!nest(G))
    return L;
  if (atPunct("=")) {
    rcc::SourceLoc Loc = advance().Loc;
    auto E = std::make_unique<CExpr>(CExprKind::Assign);
    E->Loc = Loc;
    E->Kids.push_back(std::move(L));
    E->Kids.push_back(parseAssign());
    return E;
  }
  for (const char *Op : CompoundOps) {
    if (atPunct(Op)) {
      rcc::SourceLoc Loc = advance().Loc;
      auto E = std::make_unique<CExpr>(CExprKind::CompoundAssign);
      E->Loc = Loc;
      E->OpText = std::string(Op).substr(0, std::strlen(Op) - 1);
      E->Kids.push_back(std::move(L));
      E->Kids.push_back(parseAssign());
      return E;
    }
  }
  return L;
}

CExprPtr Parser::parseCond() {
  CExprPtr C = parseBinary(0);
  if (!atPunct("?"))
    return C;
  NestingGuard G(Depth);
  if (!nest(G))
    return C;
  rcc::SourceLoc Loc = advance().Loc;
  auto E = std::make_unique<CExpr>(CExprKind::Cond);
  E->Loc = Loc;
  E->Kids.push_back(std::move(C));
  E->Kids.push_back(parseExpr());
  expectPunct(":");
  E->Kids.push_back(parseCond());
  return E;
}

namespace {
int binPrec(const std::string &Op) {
  if (Op == "||")
    return 1;
  if (Op == "&&")
    return 2;
  if (Op == "|")
    return 3;
  if (Op == "^")
    return 4;
  if (Op == "&")
    return 5;
  if (Op == "==" || Op == "!=")
    return 6;
  if (Op == "<" || Op == ">" || Op == "<=" || Op == ">=")
    return 7;
  if (Op == "<<" || Op == ">>")
    return 8;
  if (Op == "+" || Op == "-")
    return 9;
  if (Op == "*" || Op == "/" || Op == "%")
    return 10;
  return -1;
}
} // namespace

CExprPtr Parser::parseBinary(int MinPrec) {
  CExprPtr L = parseUnary();
  // A left-associative chain deepens the tree once per operator.
  NestingGuard G(Depth);
  while (cur().is(TokKind::Punct)) {
    int Prec = binPrec(cur().Text);
    if (Prec < 0 || Prec < MinPrec)
      break;
    if (!nest(G))
      break;
    std::string Op = advance().Text;
    CExprPtr R = parseBinary(Prec + 1);
    auto E = std::make_unique<CExpr>(CExprKind::Binary);
    E->Loc = L->Loc;
    E->OpText = Op;
    E->Kids.push_back(std::move(L));
    E->Kids.push_back(std::move(R));
    L = std::move(E);
  }
  return L;
}

CExprPtr Parser::parseUnary() {
  rcc::SourceLoc Loc = cur().Loc;
  // Every prefix operator, cast and parenthesised sub-expression re-enters
  // here, so one level per call bounds all of them.
  NestingGuard G(Depth);
  if (!nest(G)) {
    auto E = std::make_unique<CExpr>(CExprKind::IntLit);
    E->Loc = Loc;
    return E;
  }
  if (eatPunct("*")) {
    auto E = std::make_unique<CExpr>(CExprKind::Deref);
    E->Loc = Loc;
    E->Kids.push_back(parseUnary());
    return E;
  }
  if (eatPunct("&")) {
    auto E = std::make_unique<CExpr>(CExprKind::AddrOf);
    E->Loc = Loc;
    E->Kids.push_back(parseUnary());
    return E;
  }
  if (atPunct("-") || atPunct("!") || atPunct("~")) {
    auto E = std::make_unique<CExpr>(CExprKind::Unary);
    E->Loc = Loc;
    E->OpText = advance().Text;
    E->Kids.push_back(parseUnary());
    return E;
  }
  if (atPunct("++") || atPunct("--")) {
    auto E = std::make_unique<CExpr>(CExprKind::IncDec);
    E->Loc = Loc;
    E->IsDecrement = advance().Text == "--";
    E->IsPost = false;
    E->Kids.push_back(parseUnary());
    return E;
  }
  if (eatKeyword("sizeof")) {
    auto E = std::make_unique<CExpr>(CExprKind::SizeofType);
    E->Loc = Loc;
    expectPunct("(");
    E->SizeofTy = parseFullType();
    expectPunct(")");
    return E;
  }
  // Cast: '(' type ')' unary
  if (atPunct("(")) {
    size_t Save = Pos;
    advance();
    if (atTypeStart()) {
      CTypePtr T = parseFullType();
      if (eatPunct(")")) {
        auto E = std::make_unique<CExpr>(CExprKind::Cast);
        E->Loc = Loc;
        E->CastTo = T;
        E->Kids.push_back(parseUnary());
        return E;
      }
    }
    Pos = Save;
  }
  return parsePostfix();
}

CExprPtr Parser::parsePostfix() {
  CExprPtr E = parsePrimary();
  // Each postfix operator deepens the tree by one level.
  NestingGuard G(Depth);
  while (true) {
    rcc::SourceLoc Loc = cur().Loc;
    if (!nest(G))
      break;
    if (eatPunct("(")) {
      auto C = std::make_unique<CExpr>(CExprKind::Call);
      C->Loc = Loc;
      C->Kids.push_back(std::move(E));
      if (!atPunct(")")) {
        do {
          C->Kids.push_back(parseAssign());
        } while (eatPunct(","));
      }
      expectPunct(")");
      E = std::move(C);
      continue;
    }
    if (eatPunct("[")) {
      auto C = std::make_unique<CExpr>(CExprKind::Index);
      C->Loc = Loc;
      C->Kids.push_back(std::move(E));
      C->Kids.push_back(parseExpr());
      expectPunct("]");
      E = std::move(C);
      continue;
    }
    if (atPunct(".") || atPunct("->")) {
      bool Arrow = advance().Text == "->";
      auto C = std::make_unique<CExpr>(CExprKind::Member);
      C->Loc = Loc;
      C->IsArrow = Arrow;
      if (cur().isIdent())
        C->Name = advance().Text;
      else
        error("expected field name");
      C->Kids.push_back(std::move(E));
      E = std::move(C);
      continue;
    }
    if (atPunct("++") || atPunct("--")) {
      auto C = std::make_unique<CExpr>(CExprKind::IncDec);
      C->Loc = Loc;
      C->IsDecrement = advance().Text == "--";
      C->IsPost = true;
      C->Kids.push_back(std::move(E));
      E = std::move(C);
      continue;
    }
    break;
  }
  return E;
}

CExprPtr Parser::parsePrimary() {
  rcc::SourceLoc Loc = cur().Loc;
  if (cur().is(TokKind::Number)) {
    auto E = std::make_unique<CExpr>(CExprKind::IntLit);
    E->Loc = Loc;
    E->IntVal = advance().IntVal;
    return E;
  }
  if (eatKeyword("NULL")) {
    auto E = std::make_unique<CExpr>(CExprKind::Null);
    E->Loc = Loc;
    return E;
  }
  if (eatKeyword("true")) {
    auto E = std::make_unique<CExpr>(CExprKind::IntLit);
    E->Loc = Loc;
    E->IntVal = 1;
    return E;
  }
  if (eatKeyword("false")) {
    auto E = std::make_unique<CExpr>(CExprKind::IntLit);
    E->Loc = Loc;
    E->IntVal = 0;
    return E;
  }
  if (cur().isIdent()) {
    auto E = std::make_unique<CExpr>(CExprKind::Ident);
    E->Loc = Loc;
    E->Name = advance().Text;
    return E;
  }
  if (eatPunct("(")) {
    CExprPtr E = parseExpr();
    expectPunct(")");
    return E;
  }
  error("expected expression, found '" + cur().Text + "'");
  advance();
  auto E = std::make_unique<CExpr>(CExprKind::IntLit);
  E->Loc = Loc;
  return E;
}
