#include "analysis/snap_lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>

#include "ckpt/serialize.hpp"

namespace mb::analysis {
namespace {

using Tok = cxx::Token;
using cxx::Comment;
using cxx::identChar;
using cxx::isDigit;
using cxx::isI;
using cxx::isP;
using cxx::kNpos;
using cxx::lex;
using cxx::Lexed;
using cxx::matchAngles;
using cxx::matchForward;
using cxx::skipToBody;

// ---------------------------------------------------------------------------
// Canonical op stream.
//
// Every element of an io() walk gets one canonical spelling — the same one
// the hand-mirrored save streams had, so fingerprints carry over:
//   - archive primitives spell as the wire type ("u8","b","u32","u64",
//     "i32","i64","f64"); a checked helper spells as the wire type its name
//     starts with (ar.u64Count / ar.u64Expect -> "u64", ar.u8Enum -> "u8",
//     ar.i32Index -> "i32");
//   - ar.sub(x) spells "sub:<x>" where <x> is the last identifier of the
//     argument (ar.sub(rk.actWindow) -> "sub:actWindow"), so the stream
//     records *which* member is walked;
//   - ioXxx(ar, ...) helper calls spell "call:Xxx";
//   - ar.mapSorted(m, ...) spells "u64","i64" (entry count, sorted key),
//     and the value lambda's ops follow naturally.

struct Op {
  std::string spell;
  int line = 0;
  std::size_t tok = 0;
};

const char* primSpell(const std::string& method) {
  static const char* prims[] = {"u8", "b", "u32", "u64", "i32", "i64", "f64"};
  for (const char* p : prims) {
    const std::size_t n = std::char_traits<char>::length(p);
    if (method.compare(0, n, p) != 0) continue;
    if (method.size() == n ||
        std::isupper(static_cast<unsigned char>(method[n])))
      return p;
  }
  return nullptr;
}

bool isWalkName(const std::string& name) {
  return name == "io" ||
         (name.size() > 2 && name.compare(0, 2, "io") == 0 &&
          std::isupper(static_cast<unsigned char>(name[2])));
}

// ---------------------------------------------------------------------------
// Structural inventory of one file set.

struct ClassSpan {
  std::string name;
  std::size_t file = 0;
  std::size_t open = 0, close = 0;  // token indices of { and }
};

struct Member {
  std::string name;
  int line = 0;
};

/// A token range inside a walk body that runs in one direction only
/// (the statement governed by `if constexpr (Ar::kLoading)` or its else).
struct Branch {
  std::size_t begin = 0, end = 0;  // inclusive token indices
  bool loading = false;
};

struct Walk {
  std::string cls;     // enclosing class ("" for free helpers)
  std::string suffix;  // name minus the "io" prefix
  std::string param;   // the archive parameter's name ("" if unnamed)
  std::size_t file = 0;
  int line = 0;
  std::size_t bodyOpen = 0, bodyClose = 0;
  std::vector<Op> ops;
  std::vector<Branch> branches;
  bool hasFail = false;
  std::set<std::string> walked;    // identifiers outside loading branches
  std::set<std::string> loadOnly;  // identifiers inside loading branches
};

struct TransientMark {
  std::string member;
  std::string reason;
  bool hasReason = false;
  std::string cls;  // innermost enclosing class ("" if none)
  std::size_t file = 0;
  int line = 0;
};

struct RawMarker {  // an MB_SNAP_ALLOW[_FILE] occurrence, pre-validation
  std::string code;
  std::string reason;
  bool hasReason = false;
  bool fileScope = false;
  std::size_t file = 0;
  int line = 0;
};

bool validSnapCode(const std::string& code) {
  if (code.size() != 10 || code.compare(0, 7, "MB-SNP-") != 0) return false;
  return isDigit(code[7]) && isDigit(code[8]) && isDigit(code[9]);
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Class spans and member declarations.

void collectClassSpans(const std::vector<Tok>& t, std::size_t fileIdx,
                       std::vector<ClassSpan>& out) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!isI(t[i], "class") && !isI(t[i], "struct")) continue;
    if (i > 0 && isI(t[i - 1], "enum")) continue;  // enum class
    // The name is the last identifier in the run after the keyword (the
    // run may include no-op annotation macros like MB_CHANNEL_LOCAL), with
    // a trailing `final` contextual keyword stepped over.
    std::string name, prev;
    std::size_t j = i + 1;
    for (; j < t.size(); ++j) {
      if (t[j].kind == Tok::Kind::Ident) {
        prev = std::move(name);
        name = t[j].text;
        continue;
      }
      break;
    }
    if (name == "final" && !prev.empty()) name = prev;
    if (name.empty() || j >= t.size()) continue;
    if (isP(t[j], ":")) {  // base clause: scan to the body's '{'
      while (j < t.size() && !isP(t[j], "{") && !isP(t[j], ";")) ++j;
    }
    if (j >= t.size() || !isP(t[j], "{")) continue;
    const std::size_t close = matchForward(t, j, "{", "}");
    if (close == kNpos) continue;
    out.push_back({name, fileIdx, j, close});
  }
}

/// Innermost class span containing token index `tokIdx` in file `fileIdx`.
const ClassSpan* innermostClass(const std::vector<ClassSpan>& spans,
                                std::size_t fileIdx, std::size_t tokIdx) {
  const ClassSpan* best = nullptr;
  for (const ClassSpan& c : spans) {
    if (c.file != fileIdx || tokIdx <= c.open || tokIdx >= c.close) continue;
    if (!best || c.open > best->open) best = &c;
  }
  return best;
}

bool isDeclIntro(const std::string& w) {
  return w == "using" || w == "friend" || w == "typedef" || w == "static" ||
         w == "template" || w == "enum" || w == "class" || w == "struct" ||
         w == "operator";
}

/// Non-static data members declared at depth 1 of the class body. Lexical
/// heuristic: a run of tokens ending in ';' with no top-level parentheses
/// is a data-member declaration; the declared name is the first identifier
/// (past any template-argument angles) directly followed by '=', '{', '[',
/// ',' or ';'. Function declarations/definitions, access specifiers, nested
/// types, usings and static members are skipped.
void collectMembers(const std::vector<Tok>& t, const ClassSpan& cls,
                    std::vector<Member>& out) {
  std::size_t j = cls.open + 1;
  std::vector<std::size_t> run;  // token indices of the current flat run
  bool hadParen = false;
  auto flush = [&]() {
    if (!hadParen && run.size() >= 2 &&
        !(t[run[0]].kind == Tok::Kind::Ident && isDeclIntro(t[run[0]].text))) {
      for (std::size_t k = 1; k < run.size(); ++k) {
        const std::size_t idx = run[k];
        if (isP(t[idx], "<")) {  // skip template arguments
          const std::size_t end = matchAngles(t, idx);
          if (end != kNpos) {
            while (k < run.size() && run[k] <= end) ++k;
            if (k >= run.size()) break;
          }
        }
        const std::size_t cur = run[k];
        if (t[cur].kind != Tok::Kind::Ident) continue;
        const std::size_t nxt = cur + 1;
        if (nxt < t.size() && (isP(t[nxt], ";") || isP(t[nxt], "=") ||
                               isP(t[nxt], "{") || isP(t[nxt], "[") ||
                               isP(t[nxt], ","))) {
          out.push_back({t[cur].text, t[cur].line});
          // Multi-declarator: continue after the next top-level ','.
          while (k < run.size() && !isP(t[run[k]], ",")) ++k;
          if (k >= run.size()) break;
        }
      }
    }
    run.clear();
    hadParen = false;
  };
  while (j < cls.close) {
    const Tok& tok = t[j];
    if (isP(tok, "(")) {
      hadParen = true;
      const std::size_t end = matchForward(t, j, "(", ")");
      if (end == kNpos || end >= cls.close) break;
      j = end + 1;
      continue;
    }
    if (isP(tok, "{")) {
      const std::size_t end = matchForward(t, j, "{", "}");
      if (end == kNpos || end > cls.close) break;
      if (hadParen) {
        // Function definition: its body is not a declaration run.
        run.clear();
        hadParen = false;
      } else {
        run.push_back(j);  // brace initializer / nested aggregate
      }
      j = end + 1;
      continue;
    }
    if (isP(tok, ";")) { flush(); ++j; continue; }
    if (isP(tok, ":") && run.size() == 1 &&
        t[run[0]].kind == Tok::Kind::Ident &&
        (t[run[0]].text == "public" || t[run[0]].text == "private" ||
         t[run[0]].text == "protected")) {
      run.clear();
      ++j;
      continue;
    }
    run.push_back(j);
    ++j;
  }
}

// ---------------------------------------------------------------------------
// Walk discovery and stream extraction.

/// True when any identifier token in (open, close) equals `name`.
bool rangeHasIdent(const std::vector<Tok>& t, std::size_t open,
                   std::size_t close, const std::string& name) {
  if (name.empty()) return false;
  for (std::size_t j = open + 1; j < close; ++j)
    if (t[j].kind == Tok::Kind::Ident && t[j].text == name) return true;
  return false;
}

/// Names declared by `template <class X, typename Y ...>` anywhere in the
/// file — the candidates for a walk's archive parameter type.
std::set<std::string> templateParams(const std::vector<Tok>& t) {
  std::set<std::string> out;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!isI(t[i], "template") || !isP(t[i + 1], "<")) continue;
    const std::size_t end = matchAngles(t, i + 1);
    if (end == kNpos) continue;
    for (std::size_t j = i + 2; j + 1 < end; ++j)
      if ((isI(t[j], "class") || isI(t[j], "typename")) &&
          t[j + 1].kind == Tok::Kind::Ident)
        out.insert(t[j + 1].text);
  }
  return out;
}

/// Last identifier at bracket depth 0 in the argument list (open, close):
/// ar.sub(*sys.mcs[i]) -> "mcs", ar.sub(rk.actWindow) -> "actWindow".
std::string lastArgIdent(const std::vector<Tok>& t, std::size_t open,
                         std::size_t close) {
  std::string last;
  int depth = 0;
  for (std::size_t j = open + 1; j < close; ++j) {
    if (isP(t[j], "[") || isP(t[j], "(")) ++depth;
    else if (isP(t[j], "]") || isP(t[j], ")")) --depth;
    else if (depth == 0 && t[j].kind == Tok::Kind::Ident) last = t[j].text;
  }
  return last;
}

/// Index of the last token of the statement starting at `i`.
std::size_t statementEnd(const std::vector<Tok>& t, std::size_t i,
                         std::size_t limit) {
  if (i >= limit) return limit;
  if (isP(t[i], "{")) {
    const std::size_t end = matchForward(t, i, "{", "}");
    return end == kNpos ? limit : end;
  }
  if (isI(t[i], "if") || isI(t[i], "for") || isI(t[i], "while")) {
    std::size_t p = i + 1;
    if (p < limit && isI(t[p], "constexpr")) ++p;
    if (p >= limit || !isP(t[p], "(")) return limit;
    const std::size_t close = matchForward(t, p, "(", ")");
    if (close == kNpos) return limit;
    std::size_t end = statementEnd(t, close + 1, limit);
    if (isI(t[i], "if") && end + 1 < limit && isI(t[end + 1], "else"))
      end = statementEnd(t, end + 2, limit);
    return end;
  }
  int depth = 0;
  for (std::size_t j = i; j < limit; ++j) {
    if (isP(t[j], "(") || isP(t[j], "{") || isP(t[j], "[")) ++depth;
    else if (isP(t[j], ")") || isP(t[j], "}") || isP(t[j], "]")) --depth;
    else if (depth == 0 && isP(t[j], ";")) return j;
  }
  return limit;
}

/// The direction-specific statements of a walk body:
/// `if constexpr (... kLoading ...) S [else S']`.
void findBranches(const std::vector<Tok>& t, Walk& w) {
  for (std::size_t j = w.bodyOpen + 1; j + 2 < w.bodyClose; ++j) {
    if (!isI(t[j], "if") || !isI(t[j + 1], "constexpr") || !isP(t[j + 2], "("))
      continue;
    const std::size_t close = matchForward(t, j + 2, "(", ")");
    if (close == kNpos || !rangeHasIdent(t, j + 2, close, "kLoading")) continue;
    bool negated = false;
    for (std::size_t k = j + 3; k < close; ++k)
      if (isP(t[k], "!")) negated = true;
    const std::size_t end = statementEnd(t, close + 1, w.bodyClose);
    w.branches.push_back({close + 1, end, !negated});
    if (end + 1 < w.bodyClose && isI(t[end + 1], "else"))
      w.branches.push_back(
          {end + 2, statementEnd(t, end + 2, w.bodyClose), negated});
  }
}

/// Direction of token `i`: the innermost branch covering it wins; -1 when
/// no branch does (the token runs in both directions).
int branchAt(const Walk& w, std::size_t i) {
  int dir = -1;
  std::size_t bestBegin = 0;
  for (const Branch& b : w.branches)
    if (i >= b.begin && i <= b.end && (dir < 0 || b.begin >= bestBegin)) {
      dir = b.loading ? 1 : 0;
      bestBegin = b.begin;
    }
  return dir;
}

/// Extract the canonical op stream from one walk body, sort its
/// identifiers into walked / load-only, and run the MB-SNP-005 raw-length
/// scan (a "!unguarded-size" sentinel op, reported but never hashed).
void extractStream(const std::vector<Tok>& t, Walk& w) {
  findBranches(t, w);
  std::map<std::string, std::size_t> rawSizeVars;  // var -> token of its read
  for (std::size_t j = w.bodyOpen + 1; j < w.bodyClose; ++j) {
    if (t[j].kind != Tok::Kind::Ident) continue;
    (branchAt(w, j) == 1 ? w.loadOnly : w.walked).insert(t[j].text);
    if (j + 1 >= w.bodyClose || !isP(t[j + 1], "(")) continue;
    const std::string& callee = t[j].text;
    const std::size_t argsEnd = matchForward(t, j + 1, "(", ")");
    if (argsEnd == kNpos) continue;
    const bool viaDot = j > 0 && (isP(t[j - 1], ".") || isP(t[j - 1], "->"));
    if (viaDot && j >= 2 && !w.param.empty() && t[j - 2].text == w.param) {
      if (callee == "fail") {
        w.hasFail = true;
      } else if (callee == "sub") {
        w.ops.push_back({"sub:" + lastArgIdent(t, j + 1, argsEnd), t[j].line, j});
      } else if (callee == "mapSorted") {
        w.ops.push_back({"u64", t[j].line, j});
        w.ops.push_back({"i64", t[j].line, j});
      } else if (const char* spell = primSpell(callee)) {
        w.ops.push_back({spell, t[j].line, j});
        // Raw (unguarded) length candidate: `ar.u64(n)` into a plain
        // variable. u64Count is the sanctioned guarded form.
        if ((callee == "u32" || callee == "u64") && argsEnd == j + 3 &&
            t[j + 2].kind == Tok::Kind::Ident)
          rawSizeVars.emplace(t[j + 2].text, j);
      }
    } else if (!viaDot && isWalkName(callee) && callee != "io" &&
               rangeHasIdent(t, j + 1, argsEnd, w.param)) {
      w.ops.push_back({"call:" + callee.substr(2), t[j].line, j});
    }
  }
  if (w.hasFail || rawSizeVars.empty()) return;
  for (std::size_t j = w.bodyOpen + 1; j < w.bodyClose; ++j) {
    const bool counted = isI(t[j], "for");
    if (!counted && !isI(t[j], "resize") && !isI(t[j], "reserve") &&
        !isI(t[j], "assign"))
      continue;
    if (j + 1 >= w.bodyClose || !isP(t[j + 1], "(")) continue;
    const std::size_t end = matchForward(t, j + 1, "(", ")");
    if (end == kNpos) continue;
    // A range-for has no ';' in its header — its loop variable is not a
    // wire-supplied count even if it shadows one.
    bool sizing = !counted;
    for (std::size_t k = j + 2; k < end && !sizing; ++k)
      if (isP(t[k], ";")) sizing = true;
    if (!sizing) continue;
    for (const auto& [v, readAt] : rawSizeVars)
      if (readAt < j && rangeHasIdent(t, j + 1, end, v)) {
        w.ops.push_back({"!unguarded-size", t[j].line, j});
        return;  // one report per body is enough
      }
  }
}

// ---------------------------------------------------------------------------
// Marker scanning (code tokens and comments).

void scanCommentForSnapMarkers(const std::string& text, int baseLine,
                               std::size_t fileIdx,
                               std::vector<TransientMark>& transients,
                               std::vector<RawMarker>& allows) {
  static const char* names[] = {"MB_SNAP_TRANSIENT", "MB_SNAP_ALLOW_FILE",
                                "MB_SNAP_ALLOW"};
  for (const char* nm : names) {
    const std::string name = nm;
    std::size_t pos = 0;
    while ((pos = text.find(name, pos)) != std::string::npos) {
      if (pos > 0 && identChar(text[pos - 1])) { pos += name.size(); continue; }
      const std::size_t after = pos + name.size();
      if (after < text.size() && identChar(text[after])) {
        pos = after;  // longer marker name: let that pass match it
        continue;
      }
      const int line =
          baseLine +
          static_cast<int>(std::count(
              text.begin(), text.begin() + static_cast<long>(pos), '\n'));
      std::size_t p = after;
      while (p < text.size() && (text[p] == ' ' || text[p] == '\t')) ++p;
      if (p >= text.size() || text[p] != '(') { pos = after; continue; }
      const std::size_t close = text.find(')', p);
      const std::string args = text.substr(
          p + 1, (close == std::string::npos ? text.size() : close) - p - 1);
      const std::size_t comma = args.find(',');
      std::string first = args.substr(0, comma);
      while (!first.empty() && (first.front() == ' ' || first.front() == '\t'))
        first.erase(first.begin());
      while (!first.empty() && (first.back() == ' ' || first.back() == '\t'))
        first.pop_back();
      std::string reason;
      bool hasReason = false;
      if (comma != std::string::npos) {
        const std::size_t q1 = args.find('"', comma);
        const std::size_t q2 =
            q1 == std::string::npos ? std::string::npos : args.find('"', q1 + 1);
        if (q2 != std::string::npos) {
          reason = args.substr(q1 + 1, q2 - q1 - 1);
          hasReason = !reason.empty();
        }
      }
      if (name == "MB_SNAP_TRANSIENT")
        transients.push_back({first, reason, hasReason, "", fileIdx, line});
      else
        allows.push_back({first, reason, hasReason,
                          name == "MB_SNAP_ALLOW_FILE", fileIdx, line});
      pos = after;
    }
  }
}

void scanToksForSnapMarkers(const std::vector<Tok>& t, std::size_t fileIdx,
                            std::vector<TransientMark>& transients,
                            std::vector<RawMarker>& allows) {
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Tok::Kind::Ident || !isP(t[i + 1], "(")) continue;
    const bool isTransient = t[i].text == "MB_SNAP_TRANSIENT";
    const bool isAllow = t[i].text == "MB_SNAP_ALLOW";
    const bool isAllowFile = t[i].text == "MB_SNAP_ALLOW_FILE";
    if (!isTransient && !isAllow && !isAllowFile) continue;
    const std::size_t close = matchForward(t, i + 1, "(", ")");
    if (close == kNpos) continue;
    // First argument: tokens up to the first top-level ',' concatenated
    // (a code like MB-SNP-003 lexes as several tokens).
    std::string first;
    std::size_t j = i + 2;
    int depth = 0;
    for (; j < close; ++j) {
      if (isP(t[j], "(")) ++depth;
      else if (isP(t[j], ")")) --depth;
      else if (isP(t[j], ",") && depth == 0) break;
      first += t[j].text;
    }
    std::string reason;
    bool hasReason = false;
    for (std::size_t k = j; k < close; ++k)
      if (t[k].kind == Tok::Kind::Str) {
        reason = t[k].text;
        hasReason = !reason.empty();
        break;
      }
    if (isTransient)
      transients.push_back({first, reason, hasReason, "", fileIdx, t[i].line});
    else
      allows.push_back(
          {first, reason, hasReason, isAllowFile, fileIdx, t[i].line});
  }
}

// ---------------------------------------------------------------------------
// Mutation scanning (MB-SNP-003).

bool isConstMethod(const std::string& m) {
  static const char* names[] = {
      "size",     "empty",    "begin",      "end",         "cbegin",
      "cend",     "at",       "find",       "lower_bound", "upper_bound",
      "count",    "contains", "front",      "back",        "data",
      "capacity", "save",     "json",       "text",        "value",
      "average",  "total",    "percentile", "mean",        "c_str",
      "str",      "view",     "valid",      "known",       "get"};
  for (const char* n : names)
    if (m == n) return true;
  return false;
}

bool isCompoundAssign(const Tok& t) {
  return t.kind == Tok::Kind::Punct &&
         (t.text == "+=" || t.text == "-=" || t.text == "*=" ||
          t.text == "/=");
}

/// Does the token range (open, close) mutate member `m` of the enclosing
/// object? Lexical: direct assignment / compound assignment / ++ / -- /
/// non-const method call on `m` (optionally via this-> and through member
/// or subscript chains).
bool rangeMutates(const std::vector<Tok>& t, std::size_t open,
                  std::size_t close, const std::string& m) {
  for (std::size_t j = open + 1; j < close; ++j) {
    if (t[j].kind != Tok::Kind::Ident || t[j].text != m) continue;
    if (j > 0 && (isP(t[j - 1], ".") || isP(t[j - 1], "->") ||
                  isP(t[j - 1], "::"))) {
      // someone_else.m — unless the receiver is `this`.
      if (!(j >= 2 && isI(t[j - 2], "this"))) continue;
    }
    if (j > 0 && (isP(t[j - 1], "++") || isP(t[j - 1], "--"))) return true;
    // Walk the access chain after the member: .field, ->field, [idx].
    std::size_t k = j + 1;
    std::string lastMethod;
    while (k < close) {
      if (isP(t[k], "[")) {
        const std::size_t end = matchForward(t, k, "[", "]");
        if (end == kNpos) break;
        k = end + 1;
        lastMethod.clear();
        continue;
      }
      if ((isP(t[k], ".") || isP(t[k], "->")) && k + 1 < close &&
          t[k + 1].kind == Tok::Kind::Ident) {
        lastMethod = t[k + 1].text;
        k += 2;
        continue;
      }
      break;
    }
    if (k >= close) continue;
    if (isP(t[k], "(")) {  // method call at the end of the chain
      if (!lastMethod.empty() && !isConstMethod(lastMethod)) return true;
      continue;
    }
    if (isP(t[k], "=") || isCompoundAssign(t[k]) || isP(t[k], "++") ||
        isP(t[k], "--"))
      return true;
    // |=, &=, ^=, %= lex as two tokens.
    if (k + 1 < close && isP(t[k + 1], "=") &&
        (isP(t[k], "|") || isP(t[k], "&") || isP(t[k], "^") ||
         isP(t[k], "%")))
      return true;
  }
  return false;
}

/// A token range attributable to one class, for the mutation scan.
struct BodySpan {
  std::size_t file = 0;
  std::size_t open = 0, close = 0;  // exclusive bounds
};

}  // namespace

// ---------------------------------------------------------------------------

int parseSnapshotVersion(const std::string& headerText) {
  const Lexed lx = lex(headerText);
  const std::vector<Tok>& t = lx.toks;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (isI(t[i], "kSnapshotVersion") && isP(t[i + 1], "=") &&
        t[i + 2].kind == Tok::Kind::Num)
      return std::atoi(t[i + 2].text.c_str());
  }
  return -1;
}

SnapLinter::SnapLinter(DiagnosticEngine& engine, SnapLintOptions opts)
    : engine_(engine), opts_(std::move(opts)) {}

std::string SnapLinter::renderBaseline() const {
  std::vector<const SnapWalk*> sorted;
  for (const SnapWalk& w : walks_) sorted.push_back(&w);
  std::sort(sorted.begin(), sorted.end(),
            [](const SnapWalk* a, const SnapWalk* b) { return a->key < b->key; });
  std::ostringstream os;
  os << "# mbsnapcheck fingerprint baseline — `pair fingerprint` per line,\n"
        "# stamped with the ckpt::kSnapshotVersion it was recorded against.\n"
        "# A fingerprint change without a version bump is MB-SNP-004;\n"
        "# regenerate: mbsnapcheck --write-baseline=tools/snap_baseline.txt\n";
  os << "version " << (opts_.snapshotVersion < 0 ? 0 : opts_.snapshotVersion)
     << "\n";
  for (const SnapWalk* w : sorted)
    os << w->key << " " << hex16(w->fingerprint) << "\n";
  return os.str();
}

void SnapLinter::run(const std::vector<SnapFileInput>& files) {
  std::vector<Lexed> lexed;
  lexed.reserve(files.size());
  for (const SnapFileInput& f : files) lexed.push_back(lex(f.contents));

  std::vector<Diagnostic> findings;
  auto add = [&](const char* code, Severity sev, std::string msg,
                 const std::string& file, int line) -> Diagnostic& {
    findings.emplace_back(code, sev, std::move(msg));
    findings.back().where = SourceLocation{file, line};
    return findings.back();
  };

  // ---- structural inventory --------------------------------------------
  std::vector<ClassSpan> spans;
  for (std::size_t fi = 0; fi < files.size(); ++fi)
    collectClassSpans(lexed[fi].toks, fi, spans);

  std::vector<Walk> walks;
  std::vector<TransientMark> transients;
  std::vector<RawMarker> allows;

  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const std::vector<Tok>& t = lexed[fi].toks;
    scanToksForSnapMarkers(t, fi, transients, allows);
    for (const Comment& c : lexed[fi].comments)
      scanCommentForSnapMarkers(c.text, c.line, fi, transients, allows);
    const std::set<std::string> archiveTypes = templateParams(t);

    for (std::size_t j = 0; j + 1 < t.size(); ++j) {
      if (t[j].kind != Tok::Kind::Ident || !isP(t[j + 1], "(")) continue;
      const std::string& name = t[j].text;
      const bool walkName = isWalkName(name);
      const bool entryName = name.compare(0, 4, "save") == 0 ||
                             name.compare(0, 4, "load") == 0;
      if (!walkName && !entryName) continue;
      // A definition's name is never preceded by call-position tokens.
      if (j > 0 && (isP(t[j - 1], ".") || isP(t[j - 1], "->") ||
                    isP(t[j - 1], "=") || isP(t[j - 1], "(") ||
                    isP(t[j - 1], ",") || isI(t[j - 1], "return")))
        continue;
      const std::size_t closeParams = matchForward(t, j + 1, "(", ")");
      if (closeParams == kNpos) continue;
      const std::size_t body = skipToBody(t, closeParams + 1);
      if (body == kNpos || !isP(t[body], "{")) continue;  // declaration only
      const std::size_t bodyClose = matchForward(t, body, "{", "}");
      if (bodyClose == kNpos) continue;
      std::string cls;
      if (j >= 2 && isP(t[j - 1], "::") && t[j - 2].kind == Tok::Kind::Ident)
        cls = t[j - 2].text;  // out-of-class definition
      else if (const ClassSpan* c = innermostClass(spans, fi, j))
        cls = c->name;

      if (entryName) {
        // save/load are generated forwarders (MB_SNAP_ENTRY_POINTS); a body
        // written by hand that touches its Writer/Reader is a second,
        // hand-mirrored description of the format.
        const char* typeName = name[0] == 's' ? "Writer" : "Reader";
        for (std::size_t k = j + 2; k + 2 < closeParams + 1; ++k)
          if (isI(t[k], typeName) && isP(t[k + 1], "&") &&
              rangeHasIdent(t, body, bodyClose, t[k + 2].text))
            add("MB-SNP-001", Severity::Error,
                (cls.empty() ? "" : cls + "::") + name +
                    "() does its own wire ops — describe the state once in "
                    "io() and generate save()/load() with "
                    "MB_SNAP_ENTRY_POINTS",
                files[fi].path, t[j].line);
        continue;
      }
      // The walk's first parameter is `Ar& name` for a template type Ar.
      if (!(closeParams > j + 3 && t[j + 2].kind == Tok::Kind::Ident &&
            archiveTypes.count(t[j + 2].text) && isP(t[j + 3], "&")))
        continue;
      Walk w;
      w.cls = cls;
      w.suffix = name.substr(2);
      w.param = t[j + 4].kind == Tok::Kind::Ident ? t[j + 4].text : "";
      w.file = fi;
      w.line = t[j].line;
      w.bodyOpen = body;
      w.bodyClose = bodyClose;
      extractStream(t, w);
      walks.push_back(std::move(w));
    }
  }

  // Attribute transient markers to their innermost class by line range.
  for (TransientMark& m : transients) {
    const ClassSpan* best = nullptr;
    const std::vector<Tok>& t = lexed[m.file].toks;
    for (const ClassSpan& c : spans) {
      if (c.file != m.file) continue;
      if (t[c.open].line <= m.line && m.line <= t[c.close].line)
        if (!best || c.open > best->open) best = &c;
    }
    if (best) m.cls = best->name;
  }

  // ---- streams: 001 (direction-specific wire ops), 005, fingerprints ----
  walks_.clear();
  std::set<std::string> seenKeys;
  for (const Walk& w : walks) {
    SnapWalk sw;
    sw.key = w.cls + "::" + w.suffix;
    sw.file = files[w.file].path;
    sw.line = w.line;
    for (const Op& op : w.ops) {
      if (op.spell == "!unguarded-size") {
        add("MB-SNP-005", Severity::Error,
            sw.key + ": io() sizes a loop/container from a raw u32/u64 with "
                     "no fail() guard — use ar.u64Count() or validate and "
                     "fail()",
            sw.file, op.line);
        continue;
      }
      const int dir = branchAt(w, op.tok);
      if (dir >= 0)
        add("MB-SNP-001", Severity::Error,
            sw.key + ": wire op " + op.spell + " inside an `if constexpr` " +
                (dir == 1 ? "loading" : "saving") +
                " branch — the two directions would read and write different "
                "streams",
            sw.file, op.line);
      if (!sw.stream.empty()) sw.stream += ',';
      sw.stream += op.spell;
    }
    sw.fingerprint = ckpt::fnv1a64(sw.stream);
    if (seenKeys.insert(sw.key).second) walks_.push_back(std::move(sw));
  }

  // ---- completeness (MB-SNP-003 / stale-transient 008) -----------------
  std::set<std::string> walkClasses;
  for (const Walk& w : walks)
    if (!w.cls.empty()) walkClasses.insert(w.cls);

  auto isWalkBody = [&](std::size_t fi, std::size_t open) {
    for (const Walk& w : walks)
      if (w.file == fi && w.bodyOpen == open) return true;
    return false;
  };

  for (const std::string& cls : walkClasses) {
    std::set<std::string> walked, loadOnly;
    std::vector<BodySpan> loadBranches;
    for (const Walk& w : walks) {
      if (w.cls != cls) continue;
      walked.insert(w.walked.begin(), w.walked.end());
      loadOnly.insert(w.loadOnly.begin(), w.loadOnly.end());
      for (const Branch& b : w.branches)
        if (b.loading) loadBranches.push_back({w.file, b.begin - 1, b.end + 1});
    }
    std::vector<Member> members;
    std::size_t declFile = kNpos;
    for (const ClassSpan& c : spans) {
      if (c.name != cls) continue;
      if (declFile == kNpos) declFile = c.file;
      collectMembers(lexed[c.file].toks, c, members);
    }
    if (members.empty()) continue;

    std::vector<BodySpan> bodies;
    // In-class method bodies.
    for (const ClassSpan& c : spans) {
      if (c.name != cls) continue;
      const std::vector<Tok>& t = lexed[c.file].toks;
      std::size_t j = c.open + 1;
      while (j < c.close) {
        if (isP(t[j], "(")) {
          const std::size_t endP = matchForward(t, j, "(", ")");
          if (endP == kNpos) break;
          const std::string fname =
              (j > 0 && t[j - 1].kind == Tok::Kind::Ident) ? t[j - 1].text : "";
          const std::size_t body = skipToBody(t, endP + 1);
          if (body != kNpos && body < c.close && isP(t[body], "{")) {
            const std::size_t bodyClose = matchForward(t, body, "{", "}");
            if (bodyClose != kNpos) {
              const bool ctor =
                  fname == cls || (j >= 2 && isP(t[j - 2], "~"));
              if (!ctor && !fname.empty() && !isWalkBody(c.file, body))
                bodies.push_back({c.file, body, bodyClose});
              j = bodyClose + 1;
              continue;
            }
          }
          j = endP + 1;
          continue;
        }
        if (isP(t[j], "{")) {  // nested type / initializer: step over
          const std::size_t end = matchForward(t, j, "{", "}");
          if (end == kNpos) break;
          j = end + 1;
          continue;
        }
        ++j;
      }
    }
    // Out-of-class definitions: Cls::name(...) {...} anywhere.
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
      const std::vector<Tok>& t = lexed[fi].toks;
      for (std::size_t j = 2; j + 1 < t.size(); ++j) {
        if (!isP(t[j + 1], "(") || t[j].kind != Tok::Kind::Ident) continue;
        if (!isP(t[j - 1], "::") || !isI(t[j - 2], cls.c_str())) continue;
        if (j >= 3 && (isP(t[j - 3], ".") || isP(t[j - 3], "->"))) continue;
        const std::size_t endP = matchForward(t, j + 1, "(", ")");
        if (endP == kNpos) continue;
        const std::size_t body = skipToBody(t, endP + 1);
        if (body == kNpos || !isP(t[body], "{")) continue;
        const std::size_t bodyClose = matchForward(t, body, "{", "}");
        if (bodyClose == kNpos) continue;
        if (t[j].text != cls && !isWalkBody(fi, body))
          bodies.push_back({fi, body, bodyClose});
      }
    }

    std::set<std::string> transientMembers;
    for (const TransientMark& m : transients)
      if (m.cls == cls) transientMembers.insert(m.member);

    auto mutatedIn = [&](const std::vector<BodySpan>& spansToScan,
                         const std::string& member) {
      for (const BodySpan& b : spansToScan)
        if (rangeMutates(lexed[b.file].toks, b.open, b.close, member))
          return true;
      return false;
    };
    const std::string declPath = declFile == kNpos ? "" : files[declFile].path;
    std::set<std::string> seen;  // de-dup multi-span member lists
    for (const Member& m : members) {
      if (!seen.insert(m.name).second) continue;
      if (walked.count(m.name) || transientMembers.count(m.name)) continue;
      if (loadOnly.count(m.name) && mutatedIn(loadBranches, m.name)) {
        add("MB-SNP-003", Severity::Error,
            cls + "::" + m.name +
                " is assigned only under Ar::kLoading and never walked — "
                "walk it or declare MB_SNAP_TRANSIENT(" +
                m.name + ", \"...\") to record that it is derived state",
            declPath, m.line);
      } else if (mutatedIn(bodies, m.name)) {
        add("MB-SNP-003", Severity::Error,
            cls + "::" + m.name +
                " is mutated outside io() but never serialized — walk it "
                "or declare MB_SNAP_TRANSIENT(" +
                m.name + ", \"...\")",
            declPath, m.line);
      }
    }

    for (const TransientMark& m : transients)
      if (m.cls == cls && walked.count(m.member))
        add("MB-SNP-008", Severity::Warning,
            "MB_SNAP_TRANSIENT(" + m.member + ") in " + cls +
                " is stale: io() walks this member",
            files[m.file].path, m.line);
  }

  // ---- annotation well-formedness (MB-SNP-007) -------------------------
  for (const TransientMark& m : transients) {
    if (!m.hasReason) {
      add("MB-SNP-007", Severity::Error,
          "MB_SNAP_TRANSIENT(" + m.member + ") needs a non-empty reason",
          files[m.file].path, m.line);
      continue;
    }
    if (m.member.empty() ||
        !std::all_of(m.member.begin(), m.member.end(), identChar)) {
      add("MB-SNP-007", Severity::Error,
          "MB_SNAP_TRANSIENT names no valid member identifier",
          files[m.file].path, m.line);
      continue;
    }
    if (m.cls.empty()) {
      add("MB-SNP-007", Severity::Error,
          "MB_SNAP_TRANSIENT(" + m.member +
              ") must appear inside a class body",
          files[m.file].path, m.line);
      continue;
    }
    bool found = false;
    for (const ClassSpan& c : spans) {
      if (c.name != m.cls) continue;
      std::vector<Member> members;
      collectMembers(lexed[c.file].toks, c, members);
      for (const Member& mm : members)
        if (mm.name == m.member) { found = true; break; }
      if (found) break;
    }
    if (!found)
      add("MB-SNP-007", Severity::Error,
          "MB_SNAP_TRANSIENT(" + m.member + "): " + m.cls +
              " declares no such data member",
          files[m.file].path, m.line);
  }
  for (const RawMarker& a : allows) {
    if (!validSnapCode(a.code))
      add("MB-SNP-007", Severity::Error,
          "MB_SNAP_ALLOW with malformed code \"" + a.code +
              "\" (want MB-SNP-0xx)",
          files[a.file].path, a.line);
    else if (!a.hasReason)
      add("MB-SNP-007", Severity::Error,
          "MB_SNAP_ALLOW(" + a.code + ") needs a non-empty reason",
          files[a.file].path, a.line);
  }

  // ---- fingerprint baseline (MB-SNP-004) -------------------------------
  if (opts_.haveBaseline && opts_.snapshotVersion >= 0) {
    int baseVersion = -1;
    std::map<std::string, std::string> baseHash;
    std::istringstream in(opts_.baselineContents);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ls(line);
      std::string a, b;
      ls >> a >> b;
      if (a == "version") baseVersion = std::atoi(b.c_str());
      else if (!a.empty() && !b.empty()) baseHash[a] = b;
    }
    if (baseVersion != opts_.snapshotVersion) {
      // A stale stamp would silently switch the fingerprint comparison off.
      add("MB-SNP-004", Severity::Error,
          "fingerprint baseline recorded for v" + std::to_string(baseVersion) +
              ", tree declares v" + std::to_string(opts_.snapshotVersion) +
              " — regenerate with --write-baseline",
          "", 0);
    } else {
      std::set<std::string> matched;
      for (const SnapWalk& w : walks_) {
        auto it = baseHash.find(w.key);
        if (it == baseHash.end()) {
          add("MB-SNP-004", Severity::Warning,
              w.key + ": new walk not in the fingerprint baseline — "
                      "run --write-baseline after review",
              w.file, w.line);
          continue;
        }
        matched.insert(w.key);
        if (it->second != hex16(w.fingerprint)) {
          Diagnostic& d = add(
              "MB-SNP-004", Severity::Error,
              w.key + ": walk stream changed without a kSnapshotVersion "
                      "bump (snapshot-compatibility rule) — bump the "
                      "version or restore the layout",
              w.file, w.line);
          d.with("baseline", it->second);
          d.with("current", hex16(w.fingerprint));
          d.with("stream", w.stream.empty() ? "<empty>" : w.stream);
        }
      }
      for (const auto& [bkey, bhash] : baseHash) {
        (void)bhash;
        if (!matched.count(bkey))
          add("MB-SNP-004", Severity::Warning,
              bkey + ": stale baseline entry (walk no longer exists) — "
                     "run --write-baseline",
              "", 0);
      }
    }
  }

  // ---- suppressions (unused ones are MB-SNP-008) -----------------------
  suppressions_.clear();
  std::vector<SnapSuppression> sups;
  for (const RawMarker& a : allows) {
    if (!validSnapCode(a.code) || !a.hasReason) continue;  // 007 above
    sups.push_back(
        {a.code, a.reason, files[a.file].path, a.line, a.fileScope, 0});
  }
  std::vector<Diagnostic> kept;
  for (Diagnostic& d : findings) {
    bool suppressed = false;
    for (SnapSuppression& s : sups) {
      if (s.code != d.code || s.file != d.where.file) continue;
      if (!s.fileScope && d.where.line != s.line && d.where.line != s.line + 1)
        continue;
      ++s.uses;
      suppressed = true;
      break;
    }
    if (!suppressed) kept.push_back(std::move(d));
  }
  for (const SnapSuppression& s : sups)
    if (s.uses == 0) {
      Diagnostic d("MB-SNP-008", Severity::Warning,
                   "unused suppression for " + s.code +
                       " — remove it or it hides future findings");
      d.where = SourceLocation{s.file, s.line};
      d.with("reason", s.reason);
      kept.push_back(std::move(d));
    }
  suppressions_ = std::move(sups);

  for (Diagnostic& d : kept) engine_.report(std::move(d));
  engine_.sortByLocation();
}

}  // namespace mb::analysis
