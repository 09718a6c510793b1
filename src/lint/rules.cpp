#include "lint/rules.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <tuple>

namespace quicsand::lint {

namespace {

std::string lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

/// Index of the next non-comment token at or after `i`, or tokens.size().
std::size_t skip_comments(const std::vector<Token>& tokens, std::size_t i) {
  while (i < tokens.size() && tokens[i].kind == TokenKind::kComment) ++i;
  return i;
}

/// Index of the previous non-comment token before `i`, or npos.
std::size_t prev_token(const std::vector<Token>& tokens, std::size_t i) {
  while (i > 0) {
    --i;
    if (tokens[i].kind != TokenKind::kComment) return i;
  }
  return static_cast<std::size_t>(-1);
}

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

// ---------------------------------------------------------------------
// Banned calls
// ---------------------------------------------------------------------

void check_banned(const std::string& path, const std::vector<Token>& tokens,
                  const BannedCallRule& rule, std::vector<Finding>* out) {
  if (path_allowed(path, rule.allowed_paths)) return;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (std::find(rule.identifiers.begin(), rule.identifiers.end(), t.text) ==
        rule.identifiers.end()) {
      continue;
    }
    if (rule.require_call) {
      const auto next = skip_comments(tokens, i + 1);
      if (next >= tokens.size() || !is_punct(tokens[next], "(")) continue;
    }
    const auto prev = prev_token(tokens, i);
    if (prev != static_cast<std::size_t>(-1)) {
      const Token& p = tokens[prev];
      // Member access (`x.rand()`, `x->rand()`) is someone else's method.
      if (is_punct(p, ".") || is_punct(p, ">")) continue;
      if (is_punct(p, "::")) {
        // Qualified name: only the global and std:: spellings are the
        // banned libc/std entry points.
        const auto qual = prev_token(tokens, prev);
        if (qual != static_cast<std::size_t>(-1) &&
            tokens[qual].kind == TokenKind::kIdentifier &&
            tokens[qual].text != "std" && tokens[qual].text != "chrono") {
          continue;
        }
      }
    }
    out->push_back({path, t.line, rule.name, rule.message, false});
  }
}

// ---------------------------------------------------------------------
// Mixed time-unit literals: `2 * kMinute + 30 * kSecond` must be
// `(2 * kMinute) + (30 * kSecond)`.
// ---------------------------------------------------------------------

struct Operand {
  std::size_t first = 0;       ///< token index
  std::size_t last = 0;        ///< token index (inclusive)
  int tokens = 0;              ///< non-comment token count
  std::set<std::string_view> units;
};

struct Chain {
  Operand cur;
  std::set<std::string_view> units;
  std::vector<Operand> fixable;  ///< multi-token unit-bearing operands
  int unit_operands = 0;         ///< operands carrying at least one unit
  bool any_multi = false;
  bool flagged = false;
  int flag_line = 0;
};

void close_operand(Chain* chain, int line) {
  Operand& op = chain->cur;
  if (op.tokens > 0 && !op.units.empty()) {
    chain->units.insert(op.units.begin(), op.units.end());
    ++chain->unit_operands;
    if (op.tokens > 1) {
      chain->any_multi = true;
      chain->fixable.push_back(op);
    }
    // Only additive mixing is ambiguous: a single operand such as
    // `kMinute / kSecond` already binds unambiguously.
    if (chain->units.size() >= 2 && chain->unit_operands >= 2 &&
        chain->any_multi && !chain->flagged) {
      chain->flagged = true;
      chain->flag_line = line;
    }
  }
  chain->cur = Operand{};
}

void finish_chain(const std::string& path, const std::vector<Token>& tokens,
                  Chain* chain, int line, std::vector<Finding>* out,
                  std::vector<TextEdit>* fixes) {
  close_operand(chain, line);
  if (chain->flagged) {
    out->push_back({path, chain->flag_line, kRuleMixedUnits,
                    "parenthesize each term when mixing time-unit "
                    "constants in one expression",
                    true});
    if (fixes != nullptr) {
      for (const Operand& op : chain->fixable) {
        fixes->push_back({tokens[op.first].offset, 0, "("});
        fixes->push_back(
            {tokens[op.last].offset + tokens[op.last].text.size(), 0, ")"});
      }
    }
  }
  *chain = Chain{};
}

void check_mixed_units(const std::string& path,
                       const std::vector<Token>& tokens, const RuleSet& rules,
                       std::vector<Finding>* out,
                       std::vector<TextEdit>* fixes) {
  if (path_allowed(path, rules.mixed_units_allowed_paths)) return;
  const auto is_unit = [&](std::string_view text) {
    return std::find(rules.unit_constants.begin(), rules.unit_constants.end(),
                     text) != rules.unit_constants.end();
  };

  std::vector<Chain> stack(1);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind == TokenKind::kComment) continue;
    Chain* chain = &stack.back();
    const auto extend = [&](Chain* c) {
      if (c->cur.tokens == 0) c->cur.first = i;
      c->cur.last = i;
      ++c->cur.tokens;
    };

    if (t.kind == TokenKind::kPunct) {
      const std::string_view p = t.text;
      if (p == "(" || p == "[") {
        extend(chain);        // the paren belongs to the outer operand
        stack.emplace_back();  // inner expression gets a fresh chain
        continue;
      }
      if (p == ")" || p == "]") {
        finish_chain(path, tokens, chain, t.line, out, fixes);
        if (stack.size() > 1) stack.pop_back();
        extend(&stack.back());
        continue;
      }
      if (p == "+" || p == "-" || p == "?" || p == ":") {
        close_operand(chain, t.line);
        continue;
      }
      if (p == ";" || p == "{" || p == "}" || p == "," || p == "=" ||
          p == "<" || p == ">" || p == "!" || p == "&" || p == "|") {
        finish_chain(path, tokens, chain, t.line, out, fixes);
        continue;
      }
      extend(chain);  // "*", "/", "::", "." etc. stay inside the operand
      continue;
    }
    if (t.kind == TokenKind::kIdentifier && t.text == "return") {
      finish_chain(path, tokens, chain, t.line, out, fixes);
      continue;
    }
    extend(chain);
    if (t.kind == TokenKind::kIdentifier && is_unit(t.text)) {
      chain->cur.units.insert(t.text);
    }
  }
  const int last_line = tokens.empty() ? 1 : tokens.back().line;
  while (!stack.empty()) {
    finish_chain(path, tokens, &stack.back(), last_line, out, fixes);
    stack.pop_back();
  }
}

// ---------------------------------------------------------------------
// Naked int64 time parameters: `std::int64_t start_us,` should be a
// strong type (util::Timestamp / util::Duration).
// ---------------------------------------------------------------------

void check_int64_time_params(const std::string& path,
                             const std::vector<Token>& tokens,
                             const RuleSet& rules,
                             std::vector<Finding>* out) {
  if (path_allowed(path, rules.int64_param_allowed_paths)) return;
  const auto time_name = [&](std::string_view name) {
    const std::string l = lower(name);
    for (const auto& sub : rules.time_name_substrings) {
      if (l.find(sub) != std::string::npos) return true;
    }
    for (const auto& suffix : rules.time_name_suffixes) {
      if (ends_with(l, suffix)) return true;
    }
    for (const auto& exact : rules.time_name_exact) {
      if (l == exact) return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokenKind::kIdentifier ||
        tokens[i].text != "int64_t") {
      continue;
    }
    const auto name_idx = skip_comments(tokens, i + 1);
    if (name_idx >= tokens.size() ||
        tokens[name_idx].kind != TokenKind::kIdentifier) {
      continue;
    }
    const auto after = skip_comments(tokens, name_idx + 1);
    if (after >= tokens.size() ||
        (!is_punct(tokens[after], ",") && !is_punct(tokens[after], ")"))) {
      continue;  // not a parameter
    }
    if (!time_name(tokens[name_idx].text)) continue;
    out->push_back({path, tokens[name_idx].line, kRuleInt64TimeParam,
                    "time-valued parameter '" +
                        std::string(tokens[name_idx].text) +
                        "' should be util::Timestamp or util::Duration, "
                        "not a naked int64_t",
                    false});
  }
}

// ---------------------------------------------------------------------
// static_cast<double> applied to a timestamp expression: the value is
// epoch microseconds and loses precision as double; go through
// util::to_seconds on a Duration instead.
// ---------------------------------------------------------------------

void check_timestamp_double_cast(const std::string& path,
                                 const std::vector<Token>& tokens,
                                 const RuleSet& rules,
                                 std::vector<Finding>* out) {
  if (path_allowed(path, rules.double_cast_allowed_paths)) return;
  for (std::size_t i = 0; i + 4 < tokens.size(); ++i) {
    if (tokens[i].kind != TokenKind::kIdentifier ||
        tokens[i].text != "static_cast") {
      continue;
    }
    auto j = skip_comments(tokens, i + 1);
    if (j >= tokens.size() || !is_punct(tokens[j], "<")) continue;
    j = skip_comments(tokens, j + 1);
    if (j >= tokens.size() || tokens[j].text != "double") continue;
    j = skip_comments(tokens, j + 1);
    if (j >= tokens.size() || !is_punct(tokens[j], ">")) continue;
    j = skip_comments(tokens, j + 1);
    if (j >= tokens.size() || !is_punct(tokens[j], "(")) continue;
    int depth = 1;
    bool hit = false;
    for (auto k = j + 1; k < tokens.size() && depth > 0; ++k) {
      const Token& t = tokens[k];
      if (is_punct(t, "(")) ++depth;
      if (is_punct(t, ")")) --depth;
      if (t.kind == TokenKind::kIdentifier) {
        const std::string l = lower(t.text);
        if (l.find("timestamp") != std::string::npos || l == "ts") hit = true;
      }
    }
    if (hit) {
      out->push_back({path, tokens[i].line, kRuleTimestampDoubleCast,
                      "casting a timestamp to double loses microsecond "
                      "precision; subtract an origin and use "
                      "util::to_seconds",
                      false});
    }
  }
}

// ---------------------------------------------------------------------
// Raw std synchronization primitives: everything must go through the
// annotated util::Mutex/util::CondVar wrappers in util/sync.hpp, which
// carry thread-safety capabilities and a lock rank.
// ---------------------------------------------------------------------

void check_raw_std_mutex(const std::string& path,
                         const std::vector<Token>& tokens,
                         const RuleSet& rules, std::vector<Finding>* out) {
  if (rules.raw_mutex_identifiers.empty()) return;
  if (path_allowed(path, rules.raw_mutex_allowed_paths)) return;
  const auto listed = [](const std::vector<std::string>& list,
                         std::string_view text) {
    return std::find(list.begin(), list.end(), text) != list.end();
  };
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    const auto prev = prev_token(tokens, i);
    if (prev == static_cast<std::size_t>(-1)) continue;
    // std::mutex, std::lock_guard, std::condition_variable, ...
    if (listed(rules.raw_mutex_identifiers, t.text) &&
        is_punct(tokens[prev], "::")) {
      const auto qual = prev_token(tokens, prev);
      if (qual != static_cast<std::size_t>(-1) &&
          tokens[qual].kind == TokenKind::kIdentifier &&
          tokens[qual].text == "std") {
        out->push_back(
            {path, t.line, kRuleRawStdMutex,
             "use util::Mutex/LockGuard/UniqueLock/CondVar (util/sync.hpp) "
             "instead of std::" +
                 std::string(t.text) +
                 ": the wrappers carry thread-safety annotations and a "
                 "lock rank",
             false});
      }
      continue;
    }
    // #include <mutex> and friends: pulling the raw header in at all is
    // a sign the sync layer is being bypassed.
    if (listed(rules.raw_mutex_headers, t.text) &&
        is_punct(tokens[prev], "<")) {
      const auto inc = prev_token(tokens, prev);
      if (inc == static_cast<std::size_t>(-1) ||
          tokens[inc].kind != TokenKind::kIdentifier ||
          tokens[inc].text != "include") {
        continue;
      }
      const auto hash = prev_token(tokens, inc);
      if (hash != static_cast<std::size_t>(-1) &&
          is_punct(tokens[hash], "#")) {
        out->push_back({path, t.line, kRuleRawStdMutex,
                        "include util/sync.hpp instead of <" +
                            std::string(t.text) +
                            ">: raw std synchronization primitives are "
                            "banned outside the sync layer",
                        false});
      }
    }
  }
}

// ---------------------------------------------------------------------
// Layering: src/<module> files may only include the modules their edge
// in the committed DAG allows (plus themselves and util).
// ---------------------------------------------------------------------

/// Longest module prefix of `rel` (a path relative to src/) among the
/// modules named in the edge table; empty when none matches.
std::string module_of(std::string_view rel, const RuleSet& rules) {
  std::string best;
  for (const auto& edge : rules.layering) {
    const auto& m = edge.module;
    if (rel.size() > m.size() && rel.substr(0, m.size()) == m &&
        rel[m.size()] == '/' && m.size() > best.size()) {
      best = m;
    }
  }
  return best;
}

void check_layering(const std::string& path, const std::vector<Token>& tokens,
                    const RuleSet& rules, std::vector<Finding>* out) {
  if (rules.layering.empty()) return;
  std::string normalized = path;
  std::replace(normalized.begin(), normalized.end(), '\\', '/');
  const auto src = normalized.rfind("src/");
  if (src == std::string::npos) return;  // tests/tools/bench: unconstrained
  const std::string from = module_of(normalized.substr(src + 4), rules);
  if (from.empty()) return;
  const LayeringEdge* edge = nullptr;
  for (const auto& candidate : rules.layering) {
    if (candidate.module == from) edge = &candidate;
  }
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (!is_punct(tokens[i], "#")) continue;
    auto j = skip_comments(tokens, i + 1);
    if (j >= tokens.size() || tokens[j].kind != TokenKind::kIdentifier ||
        tokens[j].text != "include") {
      continue;
    }
    j = skip_comments(tokens, j + 1);
    if (j >= tokens.size() || tokens[j].kind != TokenKind::kString) {
      continue;  // <system> includes carry no module
    }
    const std::string_view quoted = tokens[j].text;
    if (quoted.size() < 2) continue;
    const auto target =
        module_of(quoted.substr(1, quoted.size() - 2), rules);
    if (target.empty() || target == from || target == "util") continue;
    if (edge != nullptr &&
        std::find(edge->deps.begin(), edge->deps.end(), target) !=
            edge->deps.end()) {
      continue;
    }
    out->push_back({path, tokens[j].line, kRuleLayering,
                    "module '" + from + "' may not include '" + target +
                        "' (layering DAG; edge table in "
                        "lint/rules.cpp, diagram in DESIGN.md)",
                    false});
  }
}

// ---------------------------------------------------------------------
// Unguarded mutable namespace-scope state: a non-const global is
// invisible to the thread-safety analysis (no mutex can guard it by
// annotation), so it is banned outside allowlisted signal-handler
// files. const/constexpr and thread_local declarations are exempt.
// ---------------------------------------------------------------------

void check_mutable_static(const std::string& path,
                          const std::vector<Token>& tokens,
                          const RuleSet& rules, std::vector<Finding>* out) {
  if (path_allowed(path, rules.mutable_static_allowed_paths)) return;
  // Keywords whose statements are not plain variable definitions (type
  // definitions, templates, aliases, declarations) or are exempt
  // (const/constexpr/thread_local, extern declarations).
  static constexpr std::string_view kSkipKeywords[] = {
      "class",     "struct",        "enum",       "union",
      "template",  "using",         "typedef",    "extern",
      "friend",    "static_assert", "const",      "constexpr",
      "thread_local", "requires",   "concept",    "operator",
      "namespace", "asm"};
  std::vector<bool> namespace_scope;  // brace stack: true = namespace
  bool pending_namespace = false;
  const std::size_t n = tokens.size();
  std::size_t i = 0;
  while (i < n) {
    const Token& t = tokens[i];
    if (t.kind == TokenKind::kComment) {
      ++i;
      continue;
    }
    if (is_punct(t, "#")) {  // preprocessor: skip the directive's line
      const int line = t.line;
      while (i < n && tokens[i].line == line) ++i;
      continue;
    }
    if (t.kind == TokenKind::kIdentifier && t.text == "namespace") {
      pending_namespace = true;
      ++i;
      continue;
    }
    if (is_punct(t, "{")) {
      namespace_scope.push_back(pending_namespace);
      pending_namespace = false;
      ++i;
      continue;
    }
    if (is_punct(t, "}")) {
      if (!namespace_scope.empty()) namespace_scope.pop_back();
      ++i;
      continue;
    }
    if (is_punct(t, ";")) {
      pending_namespace = false;
      ++i;
      continue;
    }
    if (pending_namespace) {
      ++i;  // the namespace's name / '::' path, up to its '{' or ';'
      continue;
    }
    const bool at_namespace_scope =
        std::all_of(namespace_scope.begin(), namespace_scope.end(),
                    [](bool ns) { return ns; });
    if (!at_namespace_scope) {
      ++i;
      continue;
    }
    // Start of a namespace-scope statement: classify it, then consume
    // it whole (including any function/class body or brace initializer).
    bool skip = false;
    bool saw_paren = false;
    bool seen_init = false;
    std::size_t name_idx = static_cast<std::size_t>(-1);
    int brace_depth = 0;
    int paren_depth = 0;
    std::size_t j = i;
    for (; j < n; ++j) {
      const Token& u = tokens[j];
      if (u.kind == TokenKind::kComment) continue;
      if (u.text == "namespace" && u.kind == TokenKind::kIdentifier &&
          j == i) {
        break;  // let the main loop track the namespace scope
      }
      if (brace_depth == 0 && paren_depth == 0 &&
          u.kind == TokenKind::kIdentifier) {
        for (const auto kw : kSkipKeywords) {
          if (u.text == kw) skip = true;
        }
        if (!seen_init) name_idx = j;
      }
      if (is_punct(u, "(")) {
        if (brace_depth == 0 && paren_depth == 0) saw_paren = true;
        ++paren_depth;
      } else if (is_punct(u, ")")) {
        --paren_depth;
      } else if (is_punct(u, "{") && paren_depth == 0) {
        if (brace_depth == 0) seen_init = true;
        ++brace_depth;
      } else if (is_punct(u, "}") && paren_depth == 0) {
        --brace_depth;
        // A function definition's closing brace ends the statement with
        // no ';'. Type definitions keep their trailing ';', which the
        // main loop swallows as a stray.
        if (brace_depth == 0 && (saw_paren || skip)) {
          ++j;
          break;
        }
      } else if (brace_depth == 0 && paren_depth == 0 &&
                 (is_punct(u, "=") ||
                  (is_punct(u, "[") &&
                   name_idx != static_cast<std::size_t>(-1)))) {
        // '=' starts the initializer; '[' after the declarator is an
        // array bound (a leading '[' is an attribute, not an init).
        seen_init = true;
      } else if (is_punct(u, ";") && brace_depth == 0 && paren_depth == 0) {
        ++j;
        break;
      }
    }
    if (j == i) {  // hit the `namespace` bail-out
      continue;
    }
    // Out-of-class static member definitions (`Type Class::member_ =
    // ...`) are class-scope state defined at namespace scope; the class
    // is where annotations belong, so they are not flagged here.
    if (name_idx != static_cast<std::size_t>(-1)) {
      const auto before = prev_token(tokens, name_idx);
      if (before != static_cast<std::size_t>(-1) &&
          is_punct(tokens[before], "::")) {
        skip = true;
      }
    }
    if (!skip && !saw_paren && name_idx != static_cast<std::size_t>(-1) &&
        name_idx > i) {
      out->push_back(
          {path, tokens[i].line, kRuleMutableStatic,
           "mutable namespace-scope variable '" +
               std::string(tokens[name_idx].text) +
               "' is invisible to the thread-safety analysis; guard it "
               "behind a class with a util::Mutex, or make it "
               "const/thread_local",
           false});
    }
    i = j;
  }
}

}  // namespace

bool path_allowed(const std::string& path,
                  const std::vector<std::string>& allowed) {
  std::string normalized = path;
  std::replace(normalized.begin(), normalized.end(), '\\', '/');
  for (const auto& part : allowed) {
    if (normalized.find(part) != std::string::npos) return true;
  }
  return false;
}

RuleSet default_rules() {
  RuleSet rules;
  rules.banned = {
      {"parse-functions",
       {"atoi", "atol", "atoll", "strtol", "strtoul", "strtoll", "strtoull",
        "sscanf", "vsscanf"},
       {"src/util/parse."},
       "use util::parse_* / util::require_* (util/parse.hpp): libc parsers "
       "accept partial input and report errors through errno",
       true},
      {"raw-memcpy",
       {"memcpy", "memmove"},
       {"src/util/bytes.", "src/crypto/"},
       "use util::ByteReader/ByteWriter (util/bytes.hpp): raw memcpy "
       "bypasses bounds checks and byte-order discipline",
       true},
      {"nondeterministic-source",
       {"rand", "srand", "drand48", "random_device"},
       {},
       "use util::Rng with an explicit seed: the simulation must stay "
       "deterministic",
       true},
      {"nondeterministic-source",
       {"system_clock"},
       {},
       "inject util::Timestamp through the pipeline instead of reading "
       "wall-clock time",
       false},
  };
  rules.unit_constants = {"kMicrosecond", "kMillisecond", "kSecond",
                          "kMinute",      "kHour",        "kDay"};
  rules.mixed_units_allowed_paths = {};
  rules.time_name_substrings = {"timestamp"};
  rules.time_name_suffixes = {"_us", "_micros", "_usec"};
  rules.time_name_exact = {"ts", "deadline", "time"};
  rules.int64_param_allowed_paths = {"src/util/time.", "src/util/strong."};
  rules.double_cast_allowed_paths = {"src/util/time."};
  rules.raw_mutex_identifiers = {
      "mutex",       "recursive_mutex", "timed_mutex",
      "shared_mutex", "shared_timed_mutex", "recursive_timed_mutex",
      "lock_guard",  "unique_lock",     "scoped_lock",
      "shared_lock", "condition_variable", "condition_variable_any"};
  rules.raw_mutex_headers = {"mutex", "condition_variable", "shared_mutex"};
  // util/sync.hpp wraps the std primitives; nothing else may touch them.
  rules.raw_mutex_allowed_paths = {"src/util/sync."};
  // The module DAG, matching the includes actually in the tree (obs sits
  // LOW: net/core/server all report into it). Self and util are implicit
  // for every module. Keep DESIGN.md §9's diagram in sync with this.
  rules.layering = {
      {"util", {}},
      {"crypto", {}},
      {"lint", {}},
      {"obs", {}},
      {"obs/http", {"obs"}},
      {"net", {"obs"}},
      {"net/live", {"net", "obs"}},
      {"threat", {"net"}},
      {"asdb", {"net"}},
      {"quic", {"crypto", "net"}},
      {"scanner", {"asdb", "net", "quic"}},
      {"server", {"net", "obs", "quic"}},
      {"core", {"asdb", "net", "obs", "quic", "scanner"}},
      {"telescope",
       {"asdb", "core", "net", "quic", "scanner", "threat"}},
      {"fuzz", {"net", "net/live", "obs", "quic"}},
  };
  // Signal-handler stop flags in the examples: a sig_atomic_t-style
  // global is the one legitimate namespace-scope mutable.
  rules.mutable_static_allowed_paths = {"examples/flood_lab.cpp",
                                        "examples/monitor.cpp"};
  return rules;
}

std::vector<Finding> check_tokens(const std::string& path,
                                  const std::vector<Token>& tokens,
                                  const RuleSet& rules,
                                  std::vector<TextEdit>* fixes) {
  std::vector<Finding> findings;
  for (const auto& rule : rules.banned) {
    check_banned(path, tokens, rule, &findings);
  }
  check_mixed_units(path, tokens, rules, &findings, fixes);
  check_int64_time_params(path, tokens, rules, &findings);
  check_timestamp_double_cast(path, tokens, rules, &findings);
  check_raw_std_mutex(path, tokens, rules, &findings);
  check_layering(path, tokens, rules, &findings);
  check_mutable_static(path, tokens, rules, &findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
            });
  return findings;
}

}  // namespace quicsand::lint
