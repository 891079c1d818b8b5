//===- Parser.h - Recursive-descent parser for annotated C -----*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the C subset the case studies need: struct definitions (with
/// `[[rc::...]]` annotations in C2x attribute position), typedefs (including
/// the pointer-typedef idiom of Figure 3 and function-pointer typedefs),
/// globals, and function definitions with statements/expressions covering
/// loops, goto, pointer arithmetic, member access, calls through function
/// pointers, and the atomic builtins.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_FRONTEND_PARSER_H
#define RCC_FRONTEND_PARSER_H

#include "frontend/CAst.h"
#include "frontend/Lexer.h"
#include "support/Util.h"

#include <map>
#include <set>

namespace rcc::front {

class Parser {
public:
  Parser(std::vector<Token> Tokens, rcc::DiagnosticEngine &Diags)
      : Toks(std::move(Tokens)), Diags(Diags) {}

  /// Parses the whole token stream. On errors, diagnostics are reported and
  /// a best-effort (possibly partial) unit is returned.
  CTranslationUnit parseTranslationUnit();

  /// Deepest nesting of statements, expressions and declarators accepted.
  /// Real code stays far below it; deeper input is rejected with a located
  /// diagnostic instead of overflowing the stack of this parser or of the
  /// recursive passes over its tree.
  static constexpr unsigned kMaxNestingDepth = 256;

private:
  // Token stream helpers.
  const Token &peek(int Ahead = 0) const;
  const Token &cur() const { return peek(0); }
  Token advance();
  bool atPunct(const char *P) const { return cur().isPunct(P); }
  bool atKeyword(const char *K) const { return cur().isKeyword(K); }
  bool eatPunct(const char *P);
  bool eatKeyword(const char *K);
  bool expectPunct(const char *P);
  void error(const std::string &Msg);
  void skipTo(const char *P);
  /// Enters one nesting level of \p G; past kMaxNestingDepth, reports the
  /// input once, abandons the rest of it, and returns false.
  bool nest(NestingGuard &G);

  // Annotations.
  std::vector<RcAnnot> parseAnnotList();

  // Types.
  bool atTypeStart() const;
  CTypePtr parseTypeSpecifier(std::vector<RcAnnot> *StructAnnotsOut = nullptr);
  CTypePtr parseDeclarator(CTypePtr Base, std::string &Name,
                           bool AllowAbstract = false);
  CTypePtr parseFullType(); ///< specifier + abstract declarator (casts/sizeof)

  // Declarations.
  void parseTopLevel(CTranslationUnit &TU, std::vector<RcAnnot> Annots);
  void parseStructBody(CStructDecl &SD);
  std::vector<CParam> parseParamList();

  // Statements.
  CStmtPtr parseStmt();
  CStmtPtr parseCompound();
  CStmtPtr parseDeclStmt();

  // Expressions (precedence climbing).
  CExprPtr parseExpr();
  CExprPtr parseAssign();
  CExprPtr parseCond();
  CExprPtr parseBinary(int MinPrec);
  CExprPtr parseUnary();
  CExprPtr parsePostfix();
  CExprPtr parsePrimary();

  std::vector<Token> Toks;
  size_t Pos = 0;
  rcc::DiagnosticEngine &Diags;
  unsigned Depth = 0;
  /// Set once the nesting limit was hit: the unit is rejected and every
  /// later error would only echo the abandoned input.
  bool TooDeep = false;

  /// Range of the most recent name token consumed by parseDeclarator, so
  /// parseTopLevel can attribute a declaration to its name (for editor
  /// diagnostics, which want to underline the name, not the return type).
  rcc::SourceLoc LastNameLoc;
  rcc::SourceLoc LastNameEnd;

  std::set<std::string> StructNames;
  std::map<std::string, CTypePtr> Typedefs;
  CTranslationUnit *Unit = nullptr;
};

} // namespace rcc::front

#endif // RCC_FRONTEND_PARSER_H
