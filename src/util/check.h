// Fatal invariant checks: the project's CHECK/DCHECK layer.
//
// Two trust levels run through the codebase:
//
//  * Trust boundaries (file readers, the wire protocol, CLI flags) validate
//    untrusted input and *throw* with a path/line diagnostic — the caller
//    can report the bad input and keep serving.
//
//  * Internal invariants (CSR shape handed between phases, reduction-array
//    sizing, cache-byte accounting) are programmer contracts. When one
//    fails the process state is already wrong and an exact-counting system
//    must not keep producing numbers: CHECK prints `file:line: CHECK
//    failed: <condition> <message>` to stderr and aborts.
//
// CHECK is always on, in every build type; keep it off per-clique hot
// paths. DCHECK compiles to nothing under NDEBUG (the default Release
// configuration) and is the right guard for per-edge / per-recursion-call
// sites. Defining PIVOTSCALE_DCHECK_ALWAYS_ON forces DCHECKs on regardless
// of NDEBUG (the sanitizer CI builds do this).
//
// Usage:
//   CHECK(ptr != nullptr);
//   CHECK_LT(v, n) << "neighbor out of range in " << context;
//   DCHECK_EQ(pos, offsets[u + 1]);
//
// The comparison forms evaluate each operand exactly once and echo both
// values on failure. Mixed signed/unsigned integer comparisons are done
// value-correctly via std::cmp_* (no sign-conversion surprises).
#ifndef PIVOTSCALE_UTIL_CHECK_H_
#define PIVOTSCALE_UTIL_CHECK_H_

#include <concepts>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>

namespace pivotscale {
namespace check_internal {

// Builds the failure record; the destructor writes it to stderr and
// aborts. Constructed only on the (cold) failure path.
class CheckFailure {
 public:
  CheckFailure(const char* file, int line, const char* condition,
               const std::string& operands = std::string());
  ~CheckFailure();  // prints and aborts; never returns normally
  CheckFailure(const CheckFailure&) = delete;
  CheckFailure& operator=(const CheckFailure&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

// Swallows streamed operands of a compiled-out DCHECK.
struct NullStream {
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

// Integer types std::cmp_* accepts (character types and bool excluded).
template <typename T>
concept StdComparableInt =
    std::integral<T> && !std::same_as<std::remove_cv_t<T>, bool> &&
    !std::same_as<std::remove_cv_t<T>, char> &&
    !std::same_as<std::remove_cv_t<T>, wchar_t> &&
    !std::same_as<std::remove_cv_t<T>, char8_t> &&
    !std::same_as<std::remove_cv_t<T>, char16_t> &&
    !std::same_as<std::remove_cv_t<T>, char32_t>;

template <typename A, typename B>
constexpr bool OpEq(const A& a, const B& b) {
  if constexpr (StdComparableInt<A> && StdComparableInt<B>)
    return std::cmp_equal(a, b);
  else
    return a == b;
}
template <typename A, typename B>
constexpr bool OpLt(const A& a, const B& b) {
  if constexpr (StdComparableInt<A> && StdComparableInt<B>)
    return std::cmp_less(a, b);
  else
    return a < b;
}

template <typename T>
void AppendValue(std::ostream& os, const T& v) {
  if constexpr (requires(std::ostream& o, const T& x) { o << x; }) {
    if constexpr (std::is_integral_v<T> && sizeof(T) == 1)
      os << static_cast<int>(v);  // print bytes numerically, not as glyphs
    else
      os << v;
  } else {
    os << "<unprintable>";
  }
}

template <typename A, typename B>
std::string FormatOperands(const A& a, const B& b) {
  std::ostringstream os;
  os << " (";
  AppendValue(os, a);
  os << " vs. ";
  AppendValue(os, b);
  os << ")";
  return std::move(os).str();
}

// Each comparator returns the formatted operand echo iff the check failed;
// engaged optional => failure (mirrors glog's CheckOpString).
template <typename A, typename B>
std::optional<std::string> CheckOpEQ(const A& a, const B& b) {
  if (OpEq(a, b)) return std::nullopt;
  return FormatOperands(a, b);
}
template <typename A, typename B>
std::optional<std::string> CheckOpNE(const A& a, const B& b) {
  if (!OpEq(a, b)) return std::nullopt;
  return FormatOperands(a, b);
}
template <typename A, typename B>
std::optional<std::string> CheckOpLT(const A& a, const B& b) {
  if (OpLt(a, b)) return std::nullopt;
  return FormatOperands(a, b);
}
template <typename A, typename B>
std::optional<std::string> CheckOpLE(const A& a, const B& b) {
  if (!OpLt(b, a)) return std::nullopt;
  return FormatOperands(a, b);
}
template <typename A, typename B>
std::optional<std::string> CheckOpGT(const A& a, const B& b) {
  if (OpLt(b, a)) return std::nullopt;
  return FormatOperands(a, b);
}
template <typename A, typename B>
std::optional<std::string> CheckOpGE(const A& a, const B& b) {
  if (!OpLt(a, b)) return std::nullopt;
  return FormatOperands(a, b);
}

}  // namespace check_internal

// On x86-64, where the tree compiles with -mpopcnt (src/CMakeLists.txt),
// prints an error naming POPCNT and exits 1 unless has_popcnt; a no-op
// elsewhere. Every binary calls it at start-up with the CPU's answer.
void ExitIfCpuLacksPopcnt(bool has_popcnt);

}  // namespace pivotscale

// The failure branch is a `while` so a trailing `<< message` chain binds to
// the failure stream and the whole macro still parses as one statement.
// The loop body runs at most once: CheckFailure's destructor aborts.
#define CHECK(condition)                                                 \
  while (__builtin_expect(!(condition), 0))                              \
  ::pivotscale::check_internal::CheckFailure(__FILE__, __LINE__,         \
                                             #condition)                 \
      .stream()

#define PIVOTSCALE_CHECK_OP(op_name, op_token, a, b)                     \
  while (auto pivotscale_check_result =                                  \
             ::pivotscale::check_internal::CheckOp##op_name((a), (b)))   \
  ::pivotscale::check_internal::CheckFailure(                            \
      __FILE__, __LINE__, #a " " #op_token " " #b,                       \
      *pivotscale_check_result)                                          \
      .stream()

#define CHECK_EQ(a, b) PIVOTSCALE_CHECK_OP(EQ, ==, a, b)
#define CHECK_NE(a, b) PIVOTSCALE_CHECK_OP(NE, !=, a, b)
#define CHECK_LT(a, b) PIVOTSCALE_CHECK_OP(LT, <, a, b)
#define CHECK_LE(a, b) PIVOTSCALE_CHECK_OP(LE, <=, a, b)
#define CHECK_GT(a, b) PIVOTSCALE_CHECK_OP(GT, >, a, b)
#define CHECK_GE(a, b) PIVOTSCALE_CHECK_OP(GE, >=, a, b)

#if defined(NDEBUG) && !defined(PIVOTSCALE_DCHECK_ALWAYS_ON)
#define PIVOTSCALE_DCHECK_ENABLED 0
#else
#define PIVOTSCALE_DCHECK_ENABLED 1
#endif

#if PIVOTSCALE_DCHECK_ENABLED
#define DCHECK(condition) CHECK(condition)
#define DCHECK_EQ(a, b) CHECK_EQ(a, b)
#define DCHECK_NE(a, b) CHECK_NE(a, b)
#define DCHECK_LT(a, b) CHECK_LT(a, b)
#define DCHECK_LE(a, b) CHECK_LE(a, b)
#define DCHECK_GT(a, b) CHECK_GT(a, b)
#define DCHECK_GE(a, b) CHECK_GE(a, b)
#else
// Compiled out: operands stay syntactically checked (and warnings stay
// honest) but are never evaluated — `false &&` short-circuits and the dead
// branch folds away at -O1.
#define PIVOTSCALE_DCHECK_NOOP(expr)               \
  while (false && static_cast<bool>(expr))         \
  ::pivotscale::check_internal::NullStream {}
#define DCHECK(condition) PIVOTSCALE_DCHECK_NOOP(condition)
#define DCHECK_EQ(a, b) \
  PIVOTSCALE_DCHECK_NOOP(::pivotscale::check_internal::OpEq((a), (b)))
#define DCHECK_NE(a, b) \
  PIVOTSCALE_DCHECK_NOOP(!::pivotscale::check_internal::OpEq((a), (b)))
#define DCHECK_LT(a, b) \
  PIVOTSCALE_DCHECK_NOOP(::pivotscale::check_internal::OpLt((a), (b)))
#define DCHECK_LE(a, b) \
  PIVOTSCALE_DCHECK_NOOP(!::pivotscale::check_internal::OpLt((b), (a)))
#define DCHECK_GT(a, b) \
  PIVOTSCALE_DCHECK_NOOP(::pivotscale::check_internal::OpLt((b), (a)))
#define DCHECK_GE(a, b) \
  PIVOTSCALE_DCHECK_NOOP(!::pivotscale::check_internal::OpLt((a), (b)))
#endif

#endif  // PIVOTSCALE_UTIL_CHECK_H_
