// The one command-line front end of every tool and bench main.
//
// Parses argv once into positionals and `--key [value]` flags, checked
// against what the tool accepts, and hands out typed values. Every
// malformed, out-of-range or unknown argument is a usage error: the tool
// prints `<tool>: <diagnostic>` and its usage line and exits 2 — never a
// coerced value, an uncaught exception, or an abort on a failed invariant.
// `--threads N` belongs to every tool: it is parsed here and sizes the exec
// pool (exec::set_thread_count).
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bgpcmp/exec/thread_pool.h"

namespace bgpcmp::tools {

/// What a tool accepts besides `--threads N`.
struct Syntax {
  std::string tool;                        ///< diagnostic prefix, e.g. "bgpcmp route"
  std::string usage;                       ///< printed after every usage error
  std::vector<std::string_view> valued{};    ///< flags followed by a value
  std::vector<std::string_view> switches{};  ///< bare flags
  std::size_t min_positional = 0;
  std::size_t max_positional = 0;
};

class Flags {
 public:
  /// Parse argv[first, argc) against `syntax`, then apply `--threads`.
  Flags(Syntax syntax, int argc, char** argv, int first = 1)
      : syntax_(std::move(syntax)), args_(argv, argv + argc) {
    const auto accepts = [](const std::vector<std::string_view>& names,
                            std::string_view name) {
      return std::ranges::find(names, name) != names.end();
    };
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (!arg.starts_with("--")) {
        if (positionals_.size() == syntax_.max_positional) {
          fail("unexpected argument '" + arg + "'");
        }
        positionals_.push_back(arg);
        continue;
      }
      const std::string key = arg.substr(2);
      if (accepts(syntax_.switches, key)) {
        values_[key] = "";
        continue;
      }
      if (key != "threads" && !accepts(syntax_.valued, key)) {
        fail("unknown flag '" + arg + "'");
      }
      if (i + 1 == argc || std::string_view{argv[i + 1]}.starts_with("--")) {
        fail(arg + " needs a value");
      }
      values_[key] = argv[++i];
    }
    if (positionals_.size() < syntax_.min_positional) fail("missing argument");
    if (has("threads")) exec::set_thread_count(number("threads", 0));
  }

  /// Every argument, argv[0] first: what a shard parent re-execs its workers with.
  [[nodiscard]] const std::vector<std::string>& args() const { return args_; }
  [[nodiscard]] const std::vector<std::string>& positionals() const {
    return positionals_;
  }
  [[nodiscard]] bool has(const std::string& name) const {
    return values_.contains(name);
  }

  /// The value of `--name`, or `fallback` when absent.
  [[nodiscard]] std::string text(const std::string& name,
                                 std::string fallback = {}) const {
    const auto it = values_.find(name);
    return it == values_.end() ? std::move(fallback) : it->second;
  }

  /// `--name` as an integer of type T no smaller than `min`, or `fallback`
  /// when absent. The whole value must parse and fit T.
  template <std::integral T>
  [[nodiscard]] T number(const std::string& name, T fallback, T min = 1) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : parse("--" + name, it->second, min);
  }
  /// `--name` as a finite positive number, or `fallback` when absent.
  [[nodiscard]] double number(const std::string& name, double fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : parse("--" + name, it->second);
  }

  /// Positional `i`, parsed like number() and called `label` in diagnostics.
  template <std::integral T>
  [[nodiscard]] T positional(std::size_t i, const std::string& label, T fallback,
                             T min = 1) const {
    return i < positionals_.size() ? parse(label, positionals_[i], min) : fallback;
  }
  [[nodiscard]] double positional(std::size_t i, const std::string& label,
                                  double fallback) const {
    return i < positionals_.size() ? parse(label, positionals_[i]) : fallback;
  }

  /// Print `<tool>: message` and the usage line, then exit 2.
  [[noreturn]] void fail(const std::string& message) const {
    std::fprintf(stderr, "%s: %s\n%s", syntax_.tool.c_str(), message.c_str(),
                 syntax_.usage.c_str());
    std::exit(2);
  }

 private:
  template <std::integral T>
  T parse(const std::string& label, const std::string& text, T min) const {
    T value{};
    const char* last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    if (ec != std::errc{} || end != last || value < min) {
      const std::string want = min == 0   ? "a non-negative integer"
                               : min == 1 ? "a positive integer"
                                          : "an integer >= " + std::to_string(min);
      fail(label + " needs " + want + ", got '" + text + "'");
    }
    return value;
  }
  double parse(const std::string& label, const std::string& text) const {
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size() || !std::isfinite(value) ||
        value <= 0) {
      fail(label + " needs a positive number, got '" + text + "'");
    }
    return value;
  }

  Syntax syntax_;
  std::vector<std::string> args_;
  std::vector<std::string> positionals_;
  std::map<std::string, std::string> values_;
};

/// A bench main's front end: `--threads N` plus, when `arg` names one (e.g.
/// "days"), one optional positional.
inline Flags bench_flags(int argc, char** argv, const std::string& arg = {}) {
  const std::string_view path = argv[0];
  const std::string bench{path.substr(path.rfind('/') + 1)};
  const std::string slot = arg.empty() ? "" : " [" + arg + "]";
  const std::size_t max_positional = arg.empty() ? 0 : 1;
  return Flags{
      {bench, "usage: " + bench + slot + " [--threads N]\n", {}, {}, 0, max_positional},
      argc, argv};
}

/// bench_flags' positional as a number, or `fallback` when absent.
template <typename T>
T bench_arg(int argc, char** argv, const std::string& arg, T fallback) {
  return bench_flags(argc, argv, arg).positional(0, arg, fallback);
}

}  // namespace bgpcmp::tools
